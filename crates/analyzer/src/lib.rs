//! Static analysis of F-COO launches: certified cost envelopes and the
//! predicates that gate tuning and plan loading, all from format headers
//! alone — no launch is simulated.
//!
//! The [`cost`] module derives a [`cost::CounterEnvelope`] per launch:
//! exact values for launches, blocks, waves, launched and active warps and
//! atomics, and `[lo, hi]` intervals for the value-dependent gather traffic
//! and the simulated time. A traced launch of the same configuration must
//! satisfy [`cost::CounterEnvelope::violations`] with no entry — that one
//! check subsumes launch-shape, dead-warp and atomic-confinement claims,
//! since each is an exact counter of the envelope.
//!
//! On top of the envelopes sit the predicates production applies:
//!
//! * [`tune_filter`] — the structural keep-filter: a grid point survives
//!   unless its launch shape violates the device limits or a strictly
//!   smaller block size covers the same launch in one block
//!   ([`model::LaunchGeometry::dominated_by`]);
//! * [`certify_grid`] — the certified time envelope of every grid point the
//!   filter keeps, in one pass per threadlen;
//! * [`tune_select`] — the planner: the `(format, BLOCK_SIZE, threadlen)`
//!   triple with the smallest certified upper bound, zero launches;
//! * [`plan_report`] / [`plan_safe`] — the load-time gate for persisted
//!   serving plans (launch shape plus the payload's format invariants).
//!
//! `tensortool certify` prints the envelope matrices and gates them
//! against the exhaustive launched sweep [`fcoo::tune()`]; see
//! `docs/ANALYZER.md`.

pub mod cost;
pub mod model;

use fcoo::{AnyFormat, Fcoo, FormatKind, SortedFcoo, TensorOp};
use gpu_sim::DeviceConfig;
use model::{launch_shape_violation, LaunchGeometry};
use sanitizer::{Finding, Pass, Report, Severity};
use tensor_core::SparseTensorCoo;

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
    let geometry = LaunchGeometry::new(block_size, threadlen, nnz);
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
    let geometry = LaunchGeometry::new(block_size, fcoo.threadlen, fcoo.nnz());
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

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuDevice;
    use tensor_core::datasets::{self, DatasetKind};

    fn sample() -> SparseTensorCoo {
        datasets::generate(DatasetKind::Nell2, 4000, 7).0
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
}
