//! Symbolic kernel analyzer: proves launch properties of F-COO
//! configurations without running a single launch.
//!
//! The PR-1 sanitizer can only *observe* the properties the paper's speedups
//! rest on — coalesced streaming loads, convergent barriers, atomics
//! confined to partition frontiers — dynamically, one recorded launch at a
//! time. This crate decides them statically for every `(kernel, BLOCK_SIZE,
//! threadlen)` point of the tuning grid by abstract interpretation of one
//! symbolic warp: lane `l ∈ [0, 32)`, symbolic partition index, and the
//! exact `nnz`/`threadlen` bounds of the [`Fcoo`] header (see
//! [`model::LaunchGeometry`] for the domain, `docs/ANALYZER.md` for the
//! full write-up).
//!
//! Each property gets a three-valued [`Verdict`]:
//!
//! * [`Verdict::Proved`] — holds for **every** concrete lane/partition/base
//!   assignment; the proof is exact arithmetic, not sampling.
//! * [`Verdict::Refuted`] — a concrete [`Counterexample`] (block, warp,
//!   lane assignment, worst-case addresses) witnesses the violation and
//!   reproduces under the dynamic sanitizer's replay.
//! * [`Verdict::Unknown`] — the property depends on tensor *values* in a
//!   way the static model cannot bracket; the verdict degrades to the
//!   dynamic sanitizer, which checks the recorded trace instead.
//!
//! The [`cost`] module extends the boolean verdicts with *certified counter
//! envelopes*: `[lo, hi]` bounds on every raw counter the golden suite pins,
//! derived from F-COO headers alone. That decides properties that used to be
//! `Unknown` — factor-row gather traffic is now bracketed by
//! [`cost::gather_bounds`] — and lets the tuner eliminate grid
//! configurations whose certified lower bound exceeds another's upper bound
//! without simulating a single launch.
//!
//! There is one tuning path. [`tune_select`] is the planner: it certifies
//! every grid point the structural filter [`tune_filter`] keeps, for every
//! serving format, and picks the `(format, BLOCK_SIZE, threadlen)` triple
//! with the smallest certified upper bound — zero launches. The serving
//! plan cache and `tensortool tune` select through it. The launched sweeps
//! are oracles only: `tensortool certify` checks the F-COO envelopes of
//! [`certify_grid`] against the exhaustive [`fcoo::tune()`], and the golden
//! suite passes [`tune_filter`] straight to [`fcoo::tune_with_filter`]
//! (same winner as the exhaustive sweep, strictly fewer simulated
//! launches).
//! [`plan_report`] lets the serving plan cache refuse persisted plans whose
//! configuration is refuted at load time, and `tensortool analyze` /
//! `tensortool certify` print the verdict and envelope matrices.

pub mod cost;
pub mod model;

use fcoo::{AnyFormat, Fcoo, FormatKind, SortedFcoo, TensorOp};
use gpu_sim::symbolic::{AffineLaneAccess, RangeAccess};
use gpu_sim::DeviceConfig;
use model::{launch_shape_violation, LaunchGeometry};
use sanitizer::{Finding, Pass, Report, Severity};
use tensor_core::SparseTensorCoo;

/// Which kernel a verdict is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Unified SpTTM (paper §IV-B).
    SpTtm,
    /// Unified one-shot SpMTTKRP (paper §IV-C).
    SpMttkrp,
    /// Unified SpTTMc (chained two-factor TTM).
    SpTtmc,
    /// Two-step SpMTTKRP baseline (Fig. 3a): unified SpTTM plus a fiber
    /// reduction over the materialized intermediate.
    TwoStep,
}

impl KernelKind {
    /// All four analyzed kernels.
    pub const ALL: [KernelKind; 4] = [
        KernelKind::SpTtm,
        KernelKind::SpMttkrp,
        KernelKind::SpTtmc,
        KernelKind::TwoStep,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            KernelKind::SpTtm => "SpTTM",
            KernelKind::SpMttkrp => "SpMTTKRP",
            KernelKind::SpTtmc => "SpTTMc",
            KernelKind::TwoStep => "two-step",
        }
    }

    /// The tensor operation whose F-COO preprocessing the kernel consumes.
    /// For the two-step baseline that is its step-1 SpTTM along the second
    /// product mode.
    pub fn op(self, mode: usize, order: usize) -> TensorOp {
        match self {
            KernelKind::SpTtm => TensorOp::SpTtm { mode },
            KernelKind::SpMttkrp => TensorOp::SpMttkrp { mode },
            KernelKind::SpTtmc => TensorOp::SpTtmc { mode },
            KernelKind::TwoStep => {
                let second_product = (0..order)
                    .filter(|&m| m != mode)
                    .nth(1)
                    .expect("two-step needs two product modes");
                TensorOp::SpTtm {
                    mode: second_product,
                }
            }
        }
    }
}

/// A launch property the analyzer decides per configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Property {
    /// The launch fits the device: block size a warp multiple within the
    /// thread and shared-memory limits.
    LaunchShape,
    /// Every warp of a block reaches each `syncthreads` barrier or none do.
    BarrierConvergence,
    /// The F-COO flag vectors are mutually consistent, including the padded
    /// final partition.
    SegmentFlags,
    /// Non-exclusive (atomic) output updates happen only at partition
    /// frontiers, bounding contention.
    AtomicConfinement,
    /// Warp-wide global accesses stay within a bounded factor of the ideal
    /// transaction count for every base alignment.
    Coalescing,
    /// No launched warp slot is statically dead when a strictly smaller
    /// configured block size covers the same work.
    EffectiveWarps,
}

impl Property {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Property::LaunchShape => "launch-shape",
            Property::BarrierConvergence => "barrier-convergence",
            Property::SegmentFlags => "segment-flags",
            Property::AtomicConfinement => "atomic-confinement",
            Property::Coalescing => "coalescing",
            Property::EffectiveWarps => "effective-warps",
        }
    }

    /// True for properties whose violation makes a launch *incorrect* (or a
    /// panic), as opposed to merely slow. Only these gate plan loading.
    pub fn is_correctness(self) -> bool {
        matches!(
            self,
            Property::LaunchShape | Property::BarrierConvergence | Property::SegmentFlags
        )
    }
}

/// Outcome of deciding one property for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Holds for every concrete assignment of the symbolic warp.
    Proved,
    /// Violated; a concrete counterexample is attached.
    Refuted,
    /// Data-dependent: degraded to the dynamic sanitizer.
    Unknown,
}

/// A concrete witness of a refutation: the lane/index assignment that
/// violates the property, reproducible under dynamic replay.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Linear block index of the witnessing warp.
    pub block: usize,
    /// Warp index within the block.
    pub warp: usize,
    /// What concretely goes wrong there.
    pub detail: String,
    /// For coalescing refutations: the per-lane byte offsets (relative to
    /// the buffer base) of the worst-aligned witnessing access.
    pub lane_offsets: Vec<u64>,
}

/// One property's verdict for one configuration.
#[derive(Debug, Clone)]
pub struct PropertyVerdict {
    /// The property decided.
    pub property: Property,
    /// The three-valued outcome.
    pub verdict: Verdict,
    /// Why: the proof sketch, the violation, or what data the verdict waits
    /// on.
    pub detail: String,
    /// Present exactly when `verdict` is [`Verdict::Refuted`].
    pub counterexample: Option<Counterexample>,
}

/// All property verdicts for one `(kernel, block_size, threadlen)` point.
#[derive(Debug, Clone)]
pub struct ConfigVerdict {
    /// The analyzed kernel.
    pub kernel: KernelKind,
    /// Threads per block.
    pub block_size: usize,
    /// Non-zeros per thread.
    pub threadlen: usize,
    /// One verdict per [`Property`].
    pub properties: Vec<PropertyVerdict>,
}

impl ConfigVerdict {
    /// The weakest verdict across all properties (refuted < unknown <
    /// proved).
    pub fn overall(&self) -> Verdict {
        if self
            .properties
            .iter()
            .any(|p| p.verdict == Verdict::Refuted)
        {
            Verdict::Refuted
        } else if self
            .properties
            .iter()
            .any(|p| p.verdict == Verdict::Unknown)
        {
            Verdict::Unknown
        } else {
            Verdict::Proved
        }
    }

    /// Refuted properties, in declaration order.
    pub fn refuted(&self) -> impl Iterator<Item = &PropertyVerdict> {
        self.properties
            .iter()
            .filter(|p| p.verdict == Verdict::Refuted)
    }

    /// True when a *correctness* property is refuted — the plan cache must
    /// refuse such a configuration.
    pub fn correctness_refuted(&self) -> bool {
        self.refuted().any(|p| p.property.is_correctness())
    }
}

/// The verdict matrix of one kernel over a tuning grid.
#[derive(Debug, Clone)]
pub struct GridAnalysis {
    /// The analyzed kernel.
    pub kernel: KernelKind,
    /// Output mode of the operation.
    pub mode: usize,
    /// Factor rank.
    pub rank: usize,
    /// Block-size axis of the grid.
    pub block_sizes: Vec<usize>,
    /// Threadlen axis of the grid.
    pub threadlens: Vec<usize>,
    /// One verdict per grid point, threadlen-major (matching sweep order).
    pub configs: Vec<ConfigVerdict>,
}

impl GridAnalysis {
    /// Grid points whose overall verdict is refuted.
    pub fn refuted_configs(&self) -> impl Iterator<Item = &ConfigVerdict> {
        self.configs
            .iter()
            .filter(|c| c.overall() == Verdict::Refuted)
    }

    /// `(proved, refuted, unknown)` counts over the grid.
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut tally = (0, 0, 0);
        for config in &self.configs {
            match config.overall() {
                Verdict::Proved => tally.0 += 1,
                Verdict::Refuted => tally.1 += 1,
                Verdict::Unknown => tally.2 += 1,
            }
        }
        tally
    }

    /// Renders the verdict matrix (rows: threadlen, columns: block size;
    /// `P` proved, `R` refuted, `?` unknown → dynamic sanitizer) followed by
    /// one line per refuted grid point.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let (proved, refuted, unknown) = self.tally();
        let _ = writeln!(
            out,
            "{} (mode {}, rank {}): {proved} proved, {refuted} refuted, {unknown} unknown",
            self.kernel.label(),
            // 1-based on output, matching the paper's notation and the CLI.
            self.mode + 1,
            self.rank
        );
        let _ = write!(out, "  T\\B ");
        for b in &self.block_sizes {
            let _ = write!(out, "{b:>6}");
        }
        let _ = writeln!(out);
        for (ti, t) in self.threadlens.iter().enumerate() {
            let _ = write!(out, "{t:>5} ");
            for bi in 0..self.block_sizes.len() {
                let config = &self.configs[ti * self.block_sizes.len() + bi];
                let cell = match config.overall() {
                    Verdict::Proved => 'P',
                    Verdict::Refuted => 'R',
                    Verdict::Unknown => '?',
                };
                let _ = write!(out, "{cell:>6}");
            }
            let _ = writeln!(out);
        }
        for config in self.refuted_configs() {
            for p in config.refuted() {
                let _ = writeln!(
                    out,
                    "  refuted ({}, T={}): {}: {}",
                    config.block_size,
                    config.threadlen,
                    p.property.label(),
                    p.detail
                );
            }
        }
        out
    }
}

/// Analyzes one kernel over a full `(block_sizes × threadlens)` grid for
/// `tensor`. The F-COO preprocessing runs host-side once per threadlen; no
/// launch is simulated. Returns `None` when the kernel does not apply (the
/// two-step baseline needs a 3-order tensor).
pub fn analyze_tensor(
    config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    kernel: KernelKind,
    mode: usize,
    rank: usize,
    block_sizes: &[usize],
    threadlens: &[usize],
) -> Option<GridAnalysis> {
    if kernel == KernelKind::TwoStep && tensor.order() != 3 {
        return None;
    }
    let mut configs = Vec::with_capacity(block_sizes.len() * threadlens.len());
    for &threadlen in threadlens {
        let fcoo = Fcoo::from_coo(tensor, kernel.op(mode, tensor.order()), threadlen);
        let flags = sanitizer::check_fcoo(&fcoo);
        for &block_size in block_sizes {
            configs.push(analyze_point(
                config,
                kernel,
                &fcoo,
                &flags,
                block_size,
                rank,
                block_sizes,
            ));
        }
    }
    Some(GridAnalysis {
        kernel,
        mode,
        rank,
        block_sizes: block_sizes.to_vec(),
        threadlens: threadlens.to_vec(),
        configs,
    })
}

/// [`analyze_tensor`] for all four kernels (skipping inapplicable ones).
pub fn analyze_all(
    config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    mode: usize,
    rank: usize,
    block_sizes: &[usize],
    threadlens: &[usize],
) -> Vec<GridAnalysis> {
    KernelKind::ALL
        .iter()
        .filter_map(|&kernel| {
            analyze_tensor(config, tensor, kernel, mode, rank, block_sizes, threadlens)
        })
        .collect()
}

/// Decides every property for one grid point. `fcoo` is the kernel's
/// preprocessed input (the step-1 SpTTM tensor for the two-step baseline)
/// and `flags` its lint report.
fn analyze_point(
    config: &DeviceConfig,
    kernel: KernelKind,
    fcoo: &Fcoo,
    flags: &Report,
    block_size: usize,
    rank: usize,
    grid_block_sizes: &[usize],
) -> ConfigVerdict {
    let tiling = fcoo::ColumnTiling::at_rank(fcoo, rank);
    let shared_bytes = (block_size / 32) * 8;
    let geometry = LaunchGeometry::new(
        block_size,
        fcoo.threadlen,
        fcoo.nnz(),
        tiling.columns,
        shared_bytes,
    )
    .with_tile(tiling.tile);
    let properties = vec![
        launch_shape_verdict(config, &geometry),
        barrier_verdict(kernel),
        segment_flags_verdict(fcoo, flags),
        atomic_verdict(kernel, fcoo, &geometry, rank),
        coalescing_verdict(config, kernel, fcoo, &geometry, rank),
        effective_warps_verdict(config, &geometry, grid_block_sizes),
    ];

    ConfigVerdict {
        kernel,
        block_size,
        threadlen: fcoo.threadlen,
        properties,
    }
}

fn launch_shape_verdict(config: &DeviceConfig, geometry: &LaunchGeometry) -> PropertyVerdict {
    match launch_shape_violation(geometry, config) {
        None => PropertyVerdict {
            property: Property::LaunchShape,
            verdict: Verdict::Proved,
            detail: format!(
                "grid ({}, {}) of {}-thread blocks, {} B shared/block within device limits",
                geometry.grid_x,
                geometry.grid_y(),
                geometry.block_size,
                geometry.shared_bytes
            ),
            counterexample: None,
        },
        Some(violation) => PropertyVerdict {
            property: Property::LaunchShape,
            verdict: Verdict::Refuted,
            detail: violation.clone(),
            counterexample: Some(Counterexample {
                block: 0,
                warp: 0,
                detail: violation,
                lane_offsets: Vec::new(),
            }),
        },
    }
}

fn barrier_verdict(kernel: KernelKind) -> PropertyVerdict {
    let detail = match kernel {
        KernelKind::TwoStep => {
            "step 2 contains no barrier; step 1 is the unified kernel, whose barrier sits \
             outside the per-warp loop behind the block-uniform `any_warp_ran` guard"
        }
        _ => {
            "the `syncthreads` pair sits outside the per-warp partition loop, guarded by \
             `any_warp_ran`, which every warp of a block computes identically — dead warps \
             skip work, never the barrier"
        }
    };
    PropertyVerdict {
        property: Property::BarrierConvergence,
        verdict: Verdict::Proved,
        detail: detail.to_owned(),
        counterexample: None,
    }
}

fn segment_flags_verdict(fcoo: &Fcoo, flags: &Report) -> PropertyVerdict {
    if flags.is_clean() {
        let pad = fcoo.nnz() % fcoo.threadlen;
        PropertyVerdict {
            property: Property::SegmentFlags,
            verdict: Verdict::Proved,
            detail: format!(
                "bf/sf/partition pointers mutually consistent over {} partitions \
                 (final partition {}, padding bits clear)",
                fcoo.partitions(),
                if pad == 0 {
                    "full".to_owned()
                } else {
                    format!("padded to {pad} live non-zeros")
                }
            ),
            counterexample: None,
        }
    } else {
        let first = flags
            .findings
            .first()
            .map(|f| f.message.clone())
            .unwrap_or_else(|| "flag lint failed".to_owned());
        PropertyVerdict {
            property: Property::SegmentFlags,
            verdict: Verdict::Refuted,
            detail: first.clone(),
            counterexample: Some(Counterexample {
                block: 0,
                warp: 0,
                detail: first,
                lane_offsets: Vec::new(),
            }),
        }
    }
}

fn atomic_verdict(
    kernel: KernelKind,
    fcoo: &Fcoo,
    geometry: &LaunchGeometry,
    rank: usize,
) -> PropertyVerdict {
    let mut bound = geometry.atomic_bound();
    let mut scope = "the launch".to_owned();
    if kernel == KernelKind::TwoStep {
        // Step 2 reduces nfibs fibers with the same frontier discipline.
        let partitions2 = fcoo.segments().div_ceil(fcoo.threadlen);
        bound += 2 * partitions2 * rank;
        scope = "both launches".to_owned();
    }
    PropertyVerdict {
        property: Property::AtomicConfinement,
        verdict: Verdict::Proved,
        detail: format!(
            "interior segments resolve with exclusive writes; each thread issues at most \
             two frontier atomics per column, ≤ {bound} atomic events across {scope}"
        ),
        counterexample: None,
    }
}

fn coalescing_verdict(
    config: &DeviceConfig,
    kernel: KernelKind,
    fcoo: &Fcoo,
    geometry: &LaunchGeometry,
    rank: usize,
) -> PropertyVerdict {
    let seg = config.transaction_bytes;
    // The streamed F-COO regions: a full warp reads 32·threadlen values of 4
    // bytes contiguously — the largest range any one stream issues.
    let stream = RangeAccess::new(32 * geometry.threadlen * 4, 4);
    debug_assert!(stream.is_coalesced(seg));
    let stream_detail = format!(
        "value/index/flag streams are contiguous ranges: worst alignment costs {} vs {} \
         ideal transactions",
        stream.max_transactions(seg),
        stream.ideal_transactions(seg)
    );
    if kernel != KernelKind::TwoStep {
        // Factor-row gathers target index-dependent rows, but the read-only
        // cache path and the 256-byte buffer alignment bound the traffic per
        // call between `n_factors` and `live · n_factors` transactions
        // regardless of the gathered values — the cost interpreter certifies
        // the launch-wide envelope from the header alone.
        let bounds = cost::gather_bounds(config, fcoo, rank, geometry.block_size);
        return PropertyVerdict {
            property: Property::Coalescing,
            verdict: Verdict::Proved,
            detail: format!(
                "{stream_detail}; factor-row gathers certified within {} transactions \
                 over {} calls (worst call {} ≤ {}× its ideal, any base, any indices)",
                bounds.transactions, bounds.calls, bounds.worst_call, bounds.bound_factor
            ),
            counterexample: None,
        };
    }
    // Two-step step 2: lane l of the first warp reads the intermediate at
    // y[((l·threadlen) + i)·r + col], a per-lane stride of threadlen·r·4
    // bytes — the uncoalesced access Fig. 3a exists to illustrate.
    let nfibs = fcoo.segments();
    let partitions2 = nfibs.div_ceil(fcoo.threadlen);
    let lanes = partitions2.min(32) as u32;
    let gather = AffineLaneAccess::strided((fcoo.threadlen * rank * 4) as u64, 4, lanes);
    if gather.is_coalesced(seg) {
        return PropertyVerdict {
            property: Property::Coalescing,
            verdict: Verdict::Proved,
            detail: format!(
                "{stream_detail}; intermediate gather degenerates to {lanes} lane(s) and \
                 stays within one extra transaction"
            ),
            counterexample: None,
        };
    }
    let worst_base = gather.worst_base_offset(seg);
    let max = gather.max_transactions(seg);
    let ideal = gather.ideal_transactions(seg);
    let detail = format!(
        "step-2 intermediate gather strides {} B per lane: {lanes} lanes cost {max} \
         transactions where {ideal} would be ideal ({:.0}% efficiency)",
        gather.stride_bytes,
        100.0 * gather.worst_case_efficiency(seg)
    );
    PropertyVerdict {
        property: Property::Coalescing,
        verdict: Verdict::Refuted,
        detail: detail.clone(),
        counterexample: Some(Counterexample {
            block: 0,
            warp: 0,
            detail,
            lane_offsets: gather.addrs(worst_base),
        }),
    }
}

fn effective_warps_verdict(
    config: &DeviceConfig,
    geometry: &LaunchGeometry,
    grid_block_sizes: &[usize],
) -> PropertyVerdict {
    let Some((block, warp, nnz_start)) = geometry.first_dead_warp(config) else {
        return PropertyVerdict {
            property: Property::EffectiveWarps,
            verdict: Verdict::Proved,
            detail: "every launched warp slot maps to live partitions".to_owned(),
            counterexample: None,
        };
    };
    let dead = geometry.dead_warps_last_block(config);
    match geometry.dominated_by(grid_block_sizes) {
        Some(smaller) => {
            let detail = format!(
                "warps {warp}..{} of block {block} are statically dead (warp_nnz_start \
                 {nnz_start} ≥ {} work items); block size {smaller} covers the same \
                 {}-partition launch in one block with a strictly cheaper segmented-scan \
                 tree",
                warp + dead,
                geometry.work_items,
                geometry.partitions
            );
            PropertyVerdict {
                property: Property::EffectiveWarps,
                verdict: Verdict::Refuted,
                detail: detail.clone(),
                counterexample: Some(Counterexample {
                    block,
                    warp,
                    detail,
                    lane_offsets: Vec::new(),
                }),
            }
        }
        None => PropertyVerdict {
            property: Property::EffectiveWarps,
            verdict: Verdict::Unknown,
            detail: format!(
                "{dead} warp slot(s) of block {block} are statically dead, but no smaller \
                 candidate block size covers the launch in one block — left to the tuner"
            ),
            counterexample: None,
        },
    }
}

/// The keep-filter [`fcoo::tune_with_filter`] consults: a `(fcoo,
/// block_size)` pair survives unless its launch shape violates the device
/// limits or a strictly smaller candidate block size provably dominates it
/// (see [`model::LaunchGeometry::dominated_by`]). Pruning is
/// winner-preserving by construction, so filtered tuning selects the same
/// best pair while simulating strictly fewer launches whenever anything is
/// pruned.
pub fn tune_filter(
    config: &DeviceConfig,
    candidate_block_sizes: &[usize],
) -> impl Fn(&Fcoo, usize) -> bool {
    let config = config.clone();
    let candidates = candidate_block_sizes.to_vec();
    move |fcoo: &Fcoo, block_size: usize| {
        structurally_kept(&config, &candidates, fcoo.threadlen, fcoo.nnz(), block_size)
    }
}

/// [`tune_filter`]'s predicate on bare header numbers.
fn structurally_kept(
    config: &DeviceConfig,
    candidates: &[usize],
    threadlen: usize,
    nnz: usize,
    block_size: usize,
) -> bool {
    let geometry = LaunchGeometry::new(block_size, threadlen, nnz, 1, (block_size / 32) * 8);
    launch_shape_violation(&geometry, config).is_none()
        && geometry.dominated_by(candidates).is_none()
}

/// One grid survivor's certified time envelope, as produced by
/// [`certify_grid`] and compared by [`tune_select`].
#[derive(Debug, Clone)]
pub struct CertifiedPoint {
    /// Threads per block.
    pub block_size: usize,
    /// Non-zeros per thread.
    pub threadlen: usize,
    /// Certified bounds on the launch's `KernelStats::time_us` (the
    /// quantity the tuner minimizes).
    pub time_us: cost::TimeBounds,
}

/// The certified `KernelStats::time_us` envelope of every `(BLOCK_SIZE,
/// threadlen)` grid point of `kind` that the structural filter
/// ([`tune_filter`]) keeps, sweep order (threadlen-major), plus the pairs
/// it pruned. Header arithmetic only: nothing is launched.
///
/// The sweep shares everything it can. `sorted` is the one sort of the
/// tensor for its operation; each threadlen only derives its partition
/// pointers from it, and BF-COO's buckets are counted once. Each threadlen
/// then charges its `(column tile, warp)` pairs once for all the block
/// sizes it keeps. Every envelope is bit-identical to
/// [`cost::certify_format`] over the format built at that point.
pub fn certify_grid(
    config: &DeviceConfig,
    sorted: &SortedFcoo,
    kind: FormatKind,
    rank: usize,
    grid_b: &[usize],
    grid_t: &[usize],
) -> (Vec<CertifiedPoint>, Vec<(usize, usize)>) {
    let buckets = (kind == FormatKind::BfCoo).then(|| sorted.bucket_counts());
    let mut pruned = Vec::new();
    let mut envelopes = Vec::new();
    for &threadlen in grid_t {
        let (kept, refused): (Vec<usize>, Vec<usize>) = grid_b.iter().partition(|&&block_size| {
            structurally_kept(config, grid_b, threadlen, sorted.nnz(), block_size)
        });
        pruned.extend(
            refused
                .into_iter()
                .map(|block_size| (block_size, threadlen)),
        );
        if kept.is_empty() {
            continue;
        }
        let partitioning = sorted.partition(threadlen);
        let header = cost::Header::sorted(
            sorted,
            threadlen,
            &partitioning.partition_first_segment,
            buckets.as_deref(),
        );
        let cfg = fcoo::LaunchConfig::default();
        let certified = cost::certify_block_sizes(config, &header, rank, &cfg, &kept);
        envelopes.extend(
            kept.into_iter()
                .zip(certified)
                .map(|(block_size, envelope)| CertifiedPoint {
                    block_size,
                    threadlen,
                    time_us: envelope.stats_time_us(),
                }),
        );
    }
    (envelopes, pruned)
}

/// One format's best certified configuration, as selected by
/// [`tune_select`].
#[derive(Debug, Clone)]
pub struct FormatBest {
    /// The format this candidate runs in.
    pub kind: FormatKind,
    /// Threads per block of its best grid point.
    pub block_size: usize,
    /// Non-zeros per thread of its best grid point.
    pub threadlen: usize,
    /// The grid point's certified `KernelStats::time_us` envelope — best
    /// means minimal upper bound, the quantity selection compares.
    pub time_us: cost::TimeBounds,
}

/// Outcome of cross-format certified selection: the winning `(format,
/// BLOCK_SIZE, threadlen)` triple plus every format's best certificate, so
/// consumers (the serving planner, `tensortool certify`) can show *why*
/// the winner won.
#[derive(Debug, Clone)]
pub struct FormatChoice {
    /// The selected triple and its certificate.
    pub chosen: FormatBest,
    /// Every format's best certified point, [`FormatKind::ALL`] order.
    pub candidates: Vec<FormatBest>,
}

impl FormatChoice {
    /// The selected format.
    pub fn kind(&self) -> FormatKind {
        self.chosen.kind
    }

    /// True when the winner's certified upper bound sits strictly below
    /// every other format's — the selection is proven, not a tie-break.
    pub fn strictly_dominates(&self) -> bool {
        self.candidates
            .iter()
            .filter(|c| c.kind != self.chosen.kind)
            .all(|c| self.chosen.time_us.hi < c.time_us.hi)
    }

    /// One verdict line per format: its best certified triple, marking the
    /// winner.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in &self.candidates {
            let marker = if c.kind == self.chosen.kind {
                "->"
            } else {
                "  "
            };
            let _ = writeln!(
                out,
                "{marker} {:<6} B{:<5} T{:<3} certified time [{:.3}, {:.3}] us",
                c.kind.label(),
                c.block_size,
                c.threadlen,
                c.time_us.lo,
                c.time_us.hi
            );
        }
        out
    }
}

/// Cross-format certified tuning: for every serving format, certifies each
/// structurally-surviving `(BLOCK_SIZE, threadlen)` grid point and keeps
/// the point with the minimal certified *upper* bound; the format whose
/// best upper bound is smallest wins. Zero launches — the choice is a
/// certificate, not a measurement: the winner's true cost is ≤ its `hi`,
/// which undercuts every bound the competitor can prove. Ties keep the
/// earlier format in [`FormatKind::ALL`] order (F-COO, the paper's
/// baseline), so uniform tensors — where bucket metadata buys nothing —
/// never churn formats.
pub fn tune_select(
    config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    op: TensorOp,
    rank: usize,
    block_sizes: Option<&[usize]>,
    threadlens: Option<&[usize]>,
) -> FormatChoice {
    let grid_b = block_sizes.unwrap_or(&fcoo::BLOCK_SIZES);
    let grid_t = threadlens.unwrap_or(&fcoo::THREADLENS);
    let sorted = SortedFcoo::new(tensor, op);
    let candidates: Vec<FormatBest> = FormatKind::ALL
        .into_iter()
        .map(|kind| {
            let (envelopes, _) = certify_grid(config, &sorted, kind, rank, grid_b, grid_t);
            let best = envelopes
                .into_iter()
                .reduce(|a, b| if b.time_us.hi < a.time_us.hi { b } else { a })
                .expect("the structural filter keeps at least one configuration");
            FormatBest {
                kind,
                block_size: best.block_size,
                threadlen: best.threadlen,
                time_us: best.time_us,
            }
        })
        .collect();
    let chosen = candidates
        .iter()
        .cloned()
        .reduce(|a, b| if b.time_us.hi < a.time_us.hi { b } else { a })
        .expect("at least one format candidate");
    FormatChoice { chosen, candidates }
}

/// Load-time gate for persisted serving plans: re-checks the *correctness*
/// properties a decoded plan can violate — launch shape against the device
/// and the decoded payload's own format invariants (segment flags; BF-COO
/// additionally re-derives the bucket metadata and rejects any deviation,
/// since an inexact bucket would unsound the certificate the plan
/// persists) — and reports refutations as [`Pass::Symbolic`] findings. A
/// plan whose report carries errors must be rebuilt, not replayed.
pub fn plan_report(config: &DeviceConfig, format: &AnyFormat, block_size: usize) -> Report {
    let fcoo = format.base();
    let mut report = Report::default();
    let geometry = LaunchGeometry::new(
        block_size,
        fcoo.threadlen,
        fcoo.nnz(),
        1,
        (block_size / 32) * 8,
    );
    if let Some(violation) = launch_shape_violation(&geometry, config) {
        report.findings.push(Finding {
            pass: Pass::Symbolic,
            severity: Severity::Error,
            message: format!("launch-shape refuted: {violation}"),
            launch: None,
            block: None,
        });
    }
    let flags = match format {
        AnyFormat::Fcoo(fcoo) => sanitizer::check_fcoo(fcoo),
        AnyFormat::BfCoo(bfcoo) => sanitizer::check_bfcoo(bfcoo),
    };
    if !flags.is_clean() {
        for finding in flags.findings {
            report.findings.push(Finding {
                pass: Pass::Symbolic,
                severity: finding.severity,
                message: format!("format-invariants refuted: {}", finding.message),
                launch: None,
                block: None,
            });
        }
    }
    report
}

/// True when [`plan_report`] finds no errors — the plan may execute.
pub fn plan_safe(config: &DeviceConfig, format: &AnyFormat, block_size: usize) -> bool {
    plan_report(config, format, block_size).error_count() == 0
}

/// Cross-checks one kernel's verdict matrix against the production
/// accept/reject predicates: every refuted config must be pruned by
/// [`tune_filter`] and, when a correctness property is refuted, refused by
/// the plan gate. Returns human-readable violations (empty = consistent) —
/// the CI `analyze` job fails on any entry.
pub fn gate_violations(
    config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    analysis: &GridAnalysis,
) -> Vec<String> {
    let mut violations = Vec::new();
    if analysis.kernel == KernelKind::TwoStep {
        // Neither the tuner nor the plan cache ever accepts the two-step
        // baseline; its refutations are informational.
        return violations;
    }
    let keep = tune_filter(config, &analysis.block_sizes);
    for &threadlen in &analysis.threadlens {
        let op = analysis.kernel.op(analysis.mode, tensor.order());
        let format = AnyFormat::build(FormatKind::Fcoo, tensor, op, threadlen);
        for refuted in analysis
            .refuted_configs()
            .filter(|c| c.threadlen == threadlen)
        {
            if keep(format.base(), refuted.block_size) {
                violations.push(format!(
                    "{} ({}, T={}): refuted but the tuner would still trial it",
                    analysis.kernel.label(),
                    refuted.block_size,
                    threadlen
                ));
            }
            if refuted.correctness_refuted() && plan_safe(config, &format, refuted.block_size) {
                violations.push(format!(
                    "{} ({}, T={}): correctness-refuted but the plan cache would load it",
                    analysis.kernel.label(),
                    refuted.block_size,
                    threadlen
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuDevice;
    use tensor_core::datasets::{self, DatasetKind};

    fn sample() -> SparseTensorCoo {
        datasets::generate(DatasetKind::Nell2, 4000, 7).0
    }

    #[test]
    fn every_kernel_gets_a_full_verdict_matrix() {
        let config = DeviceConfig::titan_x();
        let analyses = analyze_all(
            &config,
            &sample(),
            0,
            8,
            &fcoo::BLOCK_SIZES,
            &fcoo::THREADLENS,
        );
        assert_eq!(analyses.len(), 4);
        for analysis in &analyses {
            assert_eq!(analysis.configs.len(), 36);
            for c in &analysis.configs {
                assert_eq!(c.properties.len(), 6);
            }
        }
    }

    #[test]
    fn unified_kernels_prove_structure_and_certify_gathers() {
        let config = DeviceConfig::titan_x();
        let analysis = analyze_tensor(
            &config,
            &sample(),
            KernelKind::SpMttkrp,
            0,
            8,
            &fcoo::BLOCK_SIZES,
            &fcoo::THREADLENS,
        )
        .expect("applicable");
        for c in &analysis.configs {
            let by = |prop: Property| {
                c.properties
                    .iter()
                    .find(|p| p.property == prop)
                    .expect("property decided")
                    .verdict
            };
            assert_eq!(by(Property::LaunchShape), Verdict::Proved);
            assert_eq!(by(Property::BarrierConvergence), Verdict::Proved);
            assert_eq!(by(Property::SegmentFlags), Verdict::Proved);
            assert_eq!(by(Property::AtomicConfinement), Verdict::Proved);
            // Previously Unknown: the cost interpreter now certifies the
            // factor-gather traffic envelope from the header alone.
            assert_eq!(by(Property::Coalescing), Verdict::Proved);
            let gather = c
                .properties
                .iter()
                .find(|p| p.property == Property::Coalescing)
                .expect("coalescing decided");
            assert!(
                gather.detail.contains("certified within"),
                "{}",
                gather.detail
            );
        }
        // The grid contains dominated points on this tensor, and each
        // refutation carries its concrete dead-warp witness.
        let refuted: Vec<_> = analysis.refuted_configs().collect();
        assert!(!refuted.is_empty());
        for c in &refuted {
            let cex = c
                .refuted()
                .next()
                .and_then(|p| p.counterexample.as_ref())
                .expect("counterexample");
            assert!(cex.detail.contains("statically dead"));
        }
    }

    #[test]
    fn two_step_gather_is_refuted_with_lane_addresses() {
        let config = DeviceConfig::titan_x();
        let analysis = analyze_tensor(&config, &sample(), KernelKind::TwoStep, 0, 8, &[128], &[8])
            .expect("3-order tensor");
        let c = &analysis.configs[0];
        let gather = c
            .properties
            .iter()
            .find(|p| p.property == Property::Coalescing)
            .expect("coalescing decided");
        assert_eq!(gather.verdict, Verdict::Refuted);
        let cex = gather.counterexample.as_ref().expect("counterexample");
        assert_eq!(cex.lane_offsets.len(), 32);
        // Per-lane stride: threadlen · rank · 4 = 8 · 8 · 4 bytes.
        assert_eq!(cex.lane_offsets[1] - cex.lane_offsets[0], 256);
    }

    #[test]
    fn tune_filter_prunes_exactly_the_dominated_points() {
        let config = DeviceConfig::titan_x();
        let tensor = sample();
        let keep = tune_filter(&config, &fcoo::BLOCK_SIZES);
        // threadlen 32 → 125 partitions: 128 covers them, so 256/512/1024
        // are pruned and 32/64/128 survive.
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 32);
        let kept: Vec<usize> = fcoo::BLOCK_SIZES
            .iter()
            .copied()
            .filter(|&b| keep(&fcoo, b))
            .collect();
        assert_eq!(kept, vec![32, 64, 128]);
    }

    #[test]
    fn plan_gate_refuses_corrupt_block_sizes_and_flags() {
        let config = DeviceConfig::titan_x();
        let format = AnyFormat::build(FormatKind::Fcoo, &sample(), TensorOp::SpTtm { mode: 1 }, 16);
        assert!(plan_safe(&config, &format, 128));
        assert!(!plan_safe(&config, &format, 2048), "over the thread limit");
        assert!(!plan_safe(&config, &format, 48), "not a warp multiple");
        let report = plan_report(&config, &format, 0);
        assert!(report.findings[0].message.contains("launch-shape refuted"));
    }

    #[test]
    fn gate_holds_on_seed_tensors() {
        let config = DeviceConfig::titan_x();
        let tensor = sample();
        for analysis in analyze_all(
            &config,
            &tensor,
            0,
            8,
            &fcoo::BLOCK_SIZES,
            &fcoo::THREADLENS,
        ) {
            assert_eq!(
                gate_violations(&config, &tensor, &analysis),
                Vec::<String>::new()
            );
        }
    }

    #[test]
    fn certified_tuning_preserves_the_exhaustive_winner() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let op = TensorOp::SpMttkrp { mode: 0 };
        let exhaustive = fcoo::tune(&device, &tensor, op, 8, None, None);
        let sorted = SortedFcoo::new(&tensor, op);
        let (envelopes, pruned) = certify_grid(
            device.config(),
            &sorted,
            FormatKind::Fcoo,
            8,
            &fcoo::BLOCK_SIZES,
            &fcoo::THREADLENS,
        );
        // The exhaustive winner survives the structural filter and is not
        // dominated by any other point's certified upper bound.
        let min_hi = envelopes
            .iter()
            .map(|p| p.time_us.hi)
            .fold(f64::INFINITY, f64::min);
        let winner = envelopes
            .iter()
            .find(|p| (p.block_size, p.threadlen) == exhaustive.best_pair())
            .expect("the exhaustive winner was pruned");
        assert!(
            winner.time_us.lo <= min_hi,
            "the exhaustive winner is dominated"
        );
        // Structural pruning alone removes points on this tensor, so a sweep
        // over the survivors launches strictly less than the grid.
        assert!(!pruned.is_empty());
        // Every pair is accounted for exactly once: certified or pruned.
        let mut all: Vec<(usize, usize)> = envelopes
            .iter()
            .map(|p| (p.block_size, p.threadlen))
            .chain(pruned.iter().copied())
            .collect();
        let accounted = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!((all.len(), accounted), (36, 36));
    }

    #[test]
    fn single_survivor_grid_returns_a_zero_launch_certified_winner() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let op = TensorOp::SpMttkrp { mode: 0 };
        // One grid point trivially survives: the certificate alone names
        // the winner, with nothing left to launch.
        let sorted = SortedFcoo::new(&tensor, op);
        let (envelopes, pruned) =
            certify_grid(device.config(), &sorted, FormatKind::Fcoo, 8, &[128], &[8]);
        assert!(pruned.is_empty());
        let [winner] = &envelopes[..] else {
            panic!("expected one certified point, got {}", envelopes.len());
        };
        assert_eq!((winner.block_size, winner.threadlen), (128, 8));
        // The certificate agrees with what a real launch would cost.
        let launched = fcoo::tune(&device, &tensor, op, 8, Some(&[128]), Some(&[8]));
        assert_eq!(launched.best_pair(), (128, 8));
        assert!(
            winner.time_us.contains(launched.best.time_us),
            "certified [{}, {}] vs launched {}",
            winner.time_us.lo,
            winner.time_us.hi,
            launched.best.time_us
        );
    }

    /// Long-fiber power-law tensor (skewed) and a uniform scatter of the
    /// same nnz/shape — the two regimes format selection must separate.
    fn skew_and_uniform() -> (SparseTensorCoo, SparseTensorCoo) {
        let (slices, jdim, kdim) = (400u32, 300u32, 2000u32);
        let mut entries = Vec::new();
        for s in 0..slices {
            let len = ((30_000.0 / f64::powf(s as f64 + 1.0, 1.3)) as u32).clamp(1, kdim);
            for t in 0..len {
                entries.push((vec![s, (s * 7) % jdim, (t * 13) % kdim], 1.0f32));
            }
        }
        let shape = vec![slices as usize, jdim as usize, kdim as usize];
        let skew = SparseTensorCoo::from_entries(shape.clone(), &entries);
        // Saturating uniform counterpart: 128 non-zeros per slice (runs never
        // straddle slices) with j and k injective within each slice, so every
        // aligned 32-run holds 32 distinct rows in both product modes — the
        // buckets certify nothing beyond the strided worst case and the demux
        // shuffles are pure overhead.
        let mut uentries = Vec::new();
        for s in 0..slices {
            for t in 0..128u32 {
                let j = (s * 17 + t * 7) % jdim;
                let k = (s + t * 13) % kdim;
                uentries.push((vec![s, j, k], 1.0f32));
            }
        }
        (skew, SparseTensorCoo::from_entries(shape, &uentries))
    }

    #[test]
    fn selection_certifies_bfcoo_on_skew_and_keeps_fcoo_on_uniform() {
        let config = DeviceConfig::titan_x();
        let op = TensorOp::SpMttkrp { mode: 0 };
        let (skew, uniform) = skew_and_uniform();
        let grids = (Some(&[64usize, 128][..]), Some(&[16usize, 32][..]));
        let choice = tune_select(&config, &skew, op, 8, grids.0, grids.1);
        assert_eq!(choice.kind(), FormatKind::BfCoo);
        assert!(
            choice.strictly_dominates(),
            "skew selection must be proven, not tied:\n{}",
            choice.render()
        );
        let fcoo_best = choice
            .candidates
            .iter()
            .find(|c| c.kind == FormatKind::Fcoo)
            .expect("fcoo candidate");
        assert!(choice.chosen.time_us.hi < fcoo_best.time_us.hi);

        let choice = tune_select(&config, &uniform, op, 8, grids.0, grids.1);
        assert_eq!(
            choice.kind(),
            FormatKind::Fcoo,
            "uniform scatter buys nothing from buckets:\n{}",
            choice.render()
        );
        assert_eq!(choice.candidates.len(), FormatKind::ALL.len());
        assert!(choice.render().contains("->"));
    }

    #[test]
    fn format_plan_gate_rejects_corrupt_buckets() {
        let config = DeviceConfig::titan_x();
        let op = TensorOp::SpMttkrp { mode: 0 };
        let mut bf = fcoo::BfCoo::from_coo(&sample(), op, 8);
        let format = AnyFormat::BfCoo(std::sync::Arc::new(bf.clone()));
        assert!(plan_safe(&config, &format, 128));
        assert!(!plan_safe(&config, &format, 48), "bad block size");
        bf.buckets[0][0] += 1;
        let corrupt = AnyFormat::BfCoo(std::sync::Arc::new(bf));
        assert!(!plan_safe(&config, &corrupt, 128));
        let report = plan_report(&config, &corrupt, 128);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("format-invariants refuted")),
            "{report}"
        );
    }

    #[test]
    fn render_includes_matrix_and_refutations() {
        let config = DeviceConfig::titan_x();
        let analysis = analyze_tensor(
            &config,
            &sample(),
            KernelKind::SpTtm,
            0,
            8,
            &fcoo::BLOCK_SIZES,
            &fcoo::THREADLENS,
        )
        .expect("applicable");
        let rendered = analysis.render();
        assert!(rendered.contains("SpTTM"));
        assert!(rendered.contains("T\\B"));
        assert!(rendered.contains("refuted ("));
    }
}
