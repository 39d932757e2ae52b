//! Execution plans and the plan cache.
//!
//! A *plan* is everything the paper's §IV-A preprocessing produces for one
//! (tensor, operation, rank) combination: the preprocessed sparse format
//! plus the certified winning `(format, BLOCK_SIZE, threadlen)` triple.
//! Building one costs a full sort of the non-zeros and a cross-format
//! certification sweep; serving amortizes that cost the same way CP-ALS
//! amortizes it across iterations — build once, reuse for every subsequent
//! request. Selection runs on the registered tensor; the chosen format is
//! built over *compact* product-mode coordinates, so the factors its kernel
//! reads hold only the rows the non-zeros touch ([`crate::upload`]).
//!
//! The cache persists plans through [`fcoo::write_fcoo`] under a small
//! versioned header carrying the tuned block size, the chosen
//! [`FormatKind`] tag, a digest of the tuning grids and the [`Objective`]
//! the shape was chosen for, so a restarted server warms itself from disk
//! instead of re-preprocessing ("warm restart"). Only the shared F-COO
//! payload is serialized; schedule metadata (BF-COO's buckets) is
//! re-derived on load. A plan tuned over other grids, or for another
//! objective than this cache's device gives it, is a miss: a rebuild here
//! could choose a different triple, and a warm cache must serve what a
//! cold one would.
//!
//! Three static-analyzer hooks guard the cache. Plan builds select with
//! zero trial launches: [`analyzer::tune_select`] certifies every
//! structurally-surviving grid point of every format and keeps the triple
//! with the minimal certified upper bound, and a format that can never be
//! resident is instead tuned on the chunks it streams, by the minimal
//! certified pipeline bound ([`pipeline_bound_us`]). Disk loads pass the
//! decoded plan through [`analyzer::plan_report`]: a persisted plan whose
//! tuned configuration is *refuted* — launch shape outside the device
//! limits, inconsistent segment flags, inexact bucket metadata — is
//! rejected and rebuilt instead of replayed into a panic or a wrong answer.
//! And every built plan carries a [`PlanCertificate`] — the certified
//! `time_us` envelope the cost interpreter derives for the tuned
//! configuration *in its chosen format* — persisted in the header and
//! re-derived from the decoded format at load time: a plan whose stored
//! certificate no longer matches its own bytes (bit-rot, a tampered header
//! pointing at a different-but-valid configuration or format, or a
//! cost-model upgrade since the file was written) is refused and rebuilt.

use crate::fingerprint::Fnv1a;
use crate::protocol;
use crate::scheduler::{Scheduler, PIPELINE_STREAMS, STREAMS_PER_DEVICE};
use crate::upload;
use fcoo::{AnyFormat, ChunkPlan, Fcoo, FormatKind, LaunchConfig, SortedFcoo, TensorOp};
use gpu_sim::{DeviceConfig, GpuDevice};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;
use tensor_core::SparseTensorCoo;

/// Magic bytes of a persisted plan file (header before the F-COO stream).
const PLAN_MAGIC: &[u8; 4] = b"SPLN";
/// Version 4 appended the 64-bit digest of the tuning grids
/// ([`grid_digest`]) after the one-byte [`FormatKind`] tag; version 5
/// appended the [`Objective`] (a tag byte and the streamed headroom).
/// Earlier versions do not say which grids and objective chose their
/// shape, so they are refused and rebuilt like a plan tuned over other
/// grids.
const PLAN_VERSION: u32 = 5;

/// The default `(BLOCK_SIZE)` grid a serving plan build sweeps — a subset of
/// the paper's Fig. 5 grid, chosen to keep tail latency of cold requests
/// bounded while still adapting to the sparsity pattern.
pub const SERVE_BLOCK_SIZES: [usize; 3] = [64, 128, 256];

/// The default `threadlen` grid for serving plan builds.
pub const SERVE_THREADLENS: [usize; 4] = [4, 8, 16, 32];

/// Digest of the `(BLOCK_SIZE, threadlen)` grids a plan was tuned over, in
/// sweep order (ties keep the earlier point, so order matters too).
fn grid_digest(block_sizes: &[usize], threadlens: &[usize]) -> u64 {
    let mut h = Fnv1a::default();
    for grid in [block_sizes, threadlens] {
        h.write_u64(grid.len() as u64);
        for &point in grid {
            h.write_u64(point as u64);
        }
    }
    h.finish()
}

/// Identity of a plan: tensor content, operation (with mode) and rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanKey {
    /// Content fingerprint of the registered tensor.
    pub fingerprint: u64,
    /// Operation code: 0 = SpTTM, 1 = SpMTTKRP, 2 = SpTTMc.
    pub op_code: u8,
    /// Operating mode (0-based).
    pub mode: u8,
    /// Factor-matrix rank the plan was tuned for.
    pub rank: u32,
}

impl PlanKey {
    /// Builds the key for `op` at `rank` over a tensor with `fingerprint`.
    pub fn new(fingerprint: u64, op: TensorOp, rank: usize) -> Self {
        let (op_code, mode) = match op {
            TensorOp::SpTtm { mode } => (0, mode),
            TensorOp::SpMttkrp { mode } => (1, mode),
            TensorOp::SpTtmc { mode } => (2, mode),
        };
        PlanKey {
            fingerprint,
            op_code,
            mode: mode as u8,
            rank: rank as u32,
        }
    }

    /// The operation this key describes.
    pub fn op(&self) -> TensorOp {
        let mode = self.mode as usize;
        match self.op_code {
            0 => TensorOp::SpTtm { mode },
            1 => TensorOp::SpMttkrp { mode },
            _ => TensorOp::SpTtmc { mode },
        }
    }

    /// Stable file name for the persisted form of this plan.
    pub fn file_name(&self) -> String {
        format!(
            "plan-{:016x}-op{}m{}-r{}.fcoo",
            self.fingerprint, self.op_code, self.mode, self.rank
        )
    }

    /// A deterministic 64-bit digest of the key (used for device affinity).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write_u64(self.fingerprint);
        h.write_u64(self.op_code as u64);
        h.write_u64(self.mode as u64);
        h.write_u64(self.rank as u64);
        h.finish()
    }
}

/// The certified cost envelope persisted alongside a tuned configuration:
/// the analyzer's `[lo, hi]` bounds on the plan's `KernelStats::time_us`,
/// derived from the format headers alone
/// ([`analyzer::cost::certify_format`]).
///
/// The certificate is a pure function of `(format headers, format kind,
/// block_size, rank, device)`, so a load-time re-derivation over the
/// decoded bytes must reproduce it bit for bit. A mismatch means the file
/// no longer describes the configuration it was certified for — corrupted
/// payload, a tampered header pointing at a *different but individually
/// valid* configuration or format tag, or a cost model newer than the file
/// — and the plan is rebuilt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCertificate {
    /// Certified lower bound on the tuned launch's `time_us`.
    pub time_lo_us: f64,
    /// Certified upper bound on the tuned launch's `time_us`.
    pub time_hi_us: f64,
}

impl PlanCertificate {
    /// Derives the certificate for `format` at `block_size`/`rank` on the
    /// device model `config`. Host-side header arithmetic only — the
    /// envelope depends on the format kind (BF-COO's buckets tighten the
    /// gather bounds), which is what lets the certificate gate catch a
    /// flipped-but-valid format tag.
    pub fn derive(
        config: &DeviceConfig,
        format: &AnyFormat,
        rank: usize,
        block_size: usize,
    ) -> PlanCertificate {
        let cfg = LaunchConfig::with_block_size(block_size);
        let bounds = analyzer::cost::certify_format(config, format, rank, &cfg).stats_time_us();
        PlanCertificate {
            time_lo_us: bounds.lo,
            time_hi_us: bounds.hi,
        }
    }

    /// Bit-exact equality — the load-time validation predicate. (`f64`
    /// comparison by bit pattern: the re-derivation runs the same exact
    /// integer fold, so even `-0.0` vs `0.0` drift counts as a mismatch.)
    pub fn matches(&self, other: &PlanCertificate) -> bool {
        self.time_lo_us.to_bits() == other.time_lo_us.to_bits()
            && self.time_hi_us.to_bits() == other.time_hi_us.to_bits()
    }
}

/// What a plan's launch shape was chosen to minimize. Decided from sizes
/// alone, before anything is certified: whether any serving-grid format
/// fits the device beside a request's transients, the rule in-core
/// admission applies ([`protocol::admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// One whole-format launch's certified upper bound
    /// ([`analyzer::tune_select`]): some serving-grid format can be
    /// resident.
    InCore,
    /// The certified pipeline bound of streaming the format in chunks
    /// ([`pipeline_bound_us`]): even the smallest serving-grid format plus
    /// a request's transients exceeds the device, so the format only ever
    /// launches as chunks.
    Streamed {
        /// The device bytes a request's transients leave for chunks.
        headroom: usize,
    },
}

impl Objective {
    /// The persisted form: a tag byte and the streamed headroom.
    fn encode(self) -> [u8; 9] {
        let (tag, headroom) = match self {
            Objective::InCore => (0u8, 0u64),
            Objective::Streamed { headroom } => (1, headroom as u64),
        };
        let mut bytes = [tag; 9];
        bytes[1..].copy_from_slice(&headroom.to_le_bytes());
        bytes
    }

    /// Inverse of [`Objective::encode`]; `None` on an unknown tag.
    fn decode(bytes: [u8; 9]) -> Option<Objective> {
        let mut headroom = [0u8; 8];
        headroom.copy_from_slice(&bytes[1..]);
        let headroom = u64::from_le_bytes(headroom) as usize;
        match bytes[0] {
            0 => Some(Objective::InCore),
            1 => Some(Objective::Streamed { headroom }),
            _ => None,
        }
    }
}

/// A reusable execution plan: preprocessed format plus tuned launch shape.
#[derive(Debug)]
pub struct Plan {
    /// The key this plan answers.
    pub key: PlanKey,
    /// The preprocessed format (kind and threadlen already selected).
    pub format: AnyFormat,
    /// Tuned threads-per-block.
    pub block_size: usize,
    /// The certified cost envelope of the tuned configuration.
    pub certificate: PlanCertificate,
    /// What selected the shape.
    pub objective: Objective,
}

impl Plan {
    /// The plan for `key` running `format` at `block_size`, certified on
    /// the device model `config`.
    fn certified(
        config: &DeviceConfig,
        key: PlanKey,
        format: AnyFormat,
        block_size: usize,
        objective: Objective,
    ) -> Plan {
        let certificate = PlanCertificate::derive(config, &format, key.rank as usize, block_size);
        Plan {
            key,
            format,
            block_size,
            certificate,
            objective,
        }
    }

    /// The format the planner certified as the winner.
    pub fn kind(&self) -> FormatKind {
        self.format.kind()
    }

    /// The shared F-COO payload (header arithmetic, chunk splitting,
    /// semi-sparse assembly).
    pub fn fcoo(&self) -> &Fcoo {
        self.format.base()
    }

    /// Tuned non-zeros per thread.
    pub fn threadlen(&self) -> usize {
        self.format.threadlen()
    }

    fn shape(&self) -> Shape<'_> {
        Shape {
            format: &self.format,
            block_size: self.block_size,
            rank: self.key.rank as usize,
        }
    }
}

/// Device bytes admission budgets for uploading `format`: its storage,
/// schedule metadata (BF-COO's buckets) included, plus 64 bytes of
/// allocator slack. PCIe moves only the storage bytes.
pub fn format_bytes(format: &AnyFormat) -> usize {
    format.storage_bytes() + 64
}

/// Candidate out-of-core chunk budgets, as `(numerator, denominator)`
/// fractions of the headroom a request's transients leave: from half (the
/// most two chunks held at once can take) down to a quarter, which leaves
/// the double buffer room for schedule metadata and allocator slack.
pub const CHUNK_BUDGET_FRACTIONS: [(usize, usize); 5] = [(1, 2), (4, 9), (2, 5), (1, 3), (1, 4)];

/// What sizes a streamed run beyond its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSizing {
    /// Device capacity of the pool the run streams through.
    pub capacity: usize,
    /// Device bytes the request holds beside its chunks: factors, output
    /// buffer and slack ([`crate::upload::FactorPlan::transient_bytes`]).
    pub transient_bytes: usize,
    /// Factor bytes the first chunk's upload carries.
    pub factor_bytes: usize,
}

impl StreamSizing {
    /// The headroom the transients leave for chunks.
    pub fn headroom(&self) -> usize {
        self.capacity.saturating_sub(self.transient_bytes)
    }
}

/// How a format streams: its chunk plan at one budget, each chunk's device
/// bytes, and the run's certified pipeline bound.
#[derive(Debug)]
pub struct StreamPlan {
    /// The chunks, in stream order, and the budget they were split at.
    pub chunks: Arc<ChunkPlan>,
    /// Per chunk, the device bytes its upload moves and reserves: its
    /// format plus the format's schedule metadata (BF-COO buckets).
    pub bytes: Vec<usize>,
    /// Certified upper bound (µs) on the fault-free pipeline span from
    /// idle streams; `INFINITY` when the chunks do not fit.
    pub bound_us: f64,
}

impl StreamPlan {
    /// The largest chunk's device bytes.
    pub fn max_chunk_bytes(&self) -> usize {
        self.bytes.iter().copied().max().unwrap_or(0)
    }
}

/// Device bytes of each chunk of a `kind` format split as `chunks`: the
/// chunk's format plus its schedule metadata.
fn chunk_bytes(kind: FormatKind, fcoo: &Fcoo, chunks: &ChunkPlan) -> Vec<usize> {
    let gather_modes = fcoo.product_indices.len();
    chunks
        .chunks
        .iter()
        .map(|c| c.format_bytes + kind.metadata_bytes(c.nnz, gather_modes))
        .collect()
}

/// `chunks` of a `kind` format with each chunk's device bytes, unbounded
/// until certified.
fn uncertified(kind: FormatKind, fcoo: &Fcoo, chunks: Arc<ChunkPlan>) -> StreamPlan {
    StreamPlan {
        bytes: chunk_bytes(kind, fcoo, &chunks),
        chunks,
        bound_us: f64::INFINITY,
    }
}

/// Certified upper bound (µs) on streaming `plan`'s format as `chunks`,
/// with zero launches: each chunk's H2D (its `bytes`, plus `factor_bytes`
/// on the first) and D2H (its output rows) over the PCIe model, and its
/// kernel at its certified `hi` ([`analyzer::cost::certify_chunks`]),
/// placed by the scheduler's 3-stream recurrence from idle streams exactly
/// as the engine places a streamed run. The recurrence is monotone in every
/// stage, so the real span is at most this.
pub fn pipeline_bound_us(
    config: &DeviceConfig,
    plan: &Plan,
    chunks: &ChunkPlan,
    bytes: &[usize],
    factor_bytes: usize,
) -> f64 {
    plan.shape().bound_us(config, chunks, bytes, factor_bytes)
}

/// A launch shape a format streams at: the format (its kind and
/// threadlen), the block size and the rank.
#[derive(Clone, Copy)]
struct Shape<'a> {
    format: &'a AnyFormat,
    block_size: usize,
    rank: usize,
}

impl Shape<'_> {
    /// [`pipeline_bound_us`] at this shape.
    fn bound_us(
        &self,
        config: &DeviceConfig,
        chunks: &ChunkPlan,
        bytes: &[usize],
        factor_bytes: usize,
    ) -> f64 {
        let (kind, fcoo) = (self.format.kind(), self.format.base());
        let cfg = LaunchConfig::with_block_size(self.block_size);
        let envelopes = analyzer::cost::certify_chunks(config, kind, fcoo, chunks, self.rank, &cfg);
        let kernel_hi_us: Vec<f64> = envelopes.iter().map(|e| e.stats_time_us().hi).collect();
        pipeline_span_us(fcoo, self.rank, chunks, bytes, &kernel_hi_us, factor_bytes)
    }
}

/// [`pipeline_bound_us`] given each chunk's certified kernel `hi`.
fn pipeline_span_us(
    fcoo: &Fcoo,
    rank: usize,
    chunks: &ChunkPlan,
    bytes: &[usize],
    kernel_hi_us: &[f64],
    factor_bytes: usize,
) -> f64 {
    let cols = fcoo::ColumnTiling::at_rank(fcoo, rank).columns;
    let mut scheduler = Scheduler::new(1, STREAMS_PER_DEVICE);
    let mut end_us = 0.0;
    for ((desc, &chunk_bytes), &kernel_us) in chunks.chunks.iter().zip(bytes).zip(kernel_hi_us) {
        let h2d_bytes = chunk_bytes + if desc.index == 0 { factor_bytes } else { 0 };
        let stages_us = [
            upload::transfer_us(h2d_bytes),
            kernel_us,
            upload::transfer_us(desc.segments * cols * 4),
        ];
        end_us = scheduler
            .place_chunk(0, PIPELINE_STREAMS, 0.0, desc.index, stages_us)
            .d2h
            .1;
    }
    end_us
}

/// Whether `stream`'s two largest-chunk slots fit beside the transients
/// ([`protocol::streamed_need`] within the capacity).
fn fits(stream: &StreamPlan, sizing: &StreamSizing) -> bool {
    protocol::streamed_need(sizing.transient_bytes, stream.max_chunk_bytes()) <= sizing.capacity
}

/// The per-chunk budget of `fraction` of `headroom` bytes.
fn budget_bytes(headroom: usize, (num, den): (usize, usize)) -> usize {
    ((headroom as u128 * num as u128 / den as u128) as usize).max(1)
}

/// The budget rule at `shape`: among the [`CHUNK_BUDGET_FRACTIONS`]
/// of the headroom whose chunks fit, the one with the smallest certified
/// [`pipeline_bound_us`] (ties to the larger budget); when none fits, the
/// smallest budget's plan, unbounded, for admission to reject. `split`
/// chunks the format at a budget. `known` holds streamings of this shape
/// already certified, whose bounds are reused rather than certified again;
/// every bound certified here is appended to `certified`.
fn choose_budget(
    config: &DeviceConfig,
    shape: Shape,
    sizing: &StreamSizing,
    mut split: impl FnMut(usize) -> Arc<ChunkPlan>,
    known: &[&StreamPlan],
    certified: &mut Vec<f64>,
) -> StreamPlan {
    let mut best: Option<StreamPlan> = None;
    let mut seen: Vec<Arc<ChunkPlan>> = Vec::new();
    for fraction in CHUNK_BUDGET_FRACTIONS {
        let chunks = split(budget_bytes(sizing.headroom(), fraction));
        // Two budgets can split alike; the larger one already spoke.
        if seen.iter().any(|s| s.chunks == chunks.chunks) {
            continue;
        }
        seen.push(Arc::clone(&chunks));
        let candidate = match known.iter().find(|k| k.chunks.chunks == chunks.chunks) {
            Some(known) => StreamPlan {
                chunks,
                bytes: known.bytes.clone(),
                bound_us: known.bound_us,
            },
            None => {
                let (kind, fcoo) = (shape.format.kind(), shape.format.base());
                let mut candidate = uncertified(kind, fcoo, chunks);
                if fits(&candidate, sizing) {
                    candidate.bound_us = shape.bound_us(
                        config,
                        &candidate.chunks,
                        &candidate.bytes,
                        sizing.factor_bytes,
                    );
                    certified.push(candidate.bound_us);
                }
                candidate
            }
        };
        // An unfit best gives way to any later, smaller budget.
        if best
            .as_ref()
            .is_none_or(|b| candidate.bound_us < b.bound_us || b.bound_us.is_infinite())
        {
            best = Some(candidate);
        }
    }
    best.expect("at least one candidate budget")
}

/// The largest of the [`CHUNK_BUDGET_FRACTIONS`] of the headroom at which
/// a `kind` format's chunks fit, with its schedule metadata, uncertified;
/// `None` when none fits.
fn first_fit(kind: FormatKind, fcoo: &Fcoo, sizing: &StreamSizing) -> Option<StreamPlan> {
    CHUNK_BUDGET_FRACTIONS.iter().find_map(|&fraction| {
        let chunks = fcoo::split(fcoo, budget_bytes(sizing.headroom(), fraction));
        let stream = uncertified(kind, fcoo, Arc::new(chunks));
        fits(&stream, sizing).then_some(stream)
    })
}

/// How a plan lookup was satisfied, ordered by cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlanSource {
    /// Found in memory — free.
    Memory,
    /// Reloaded from the persistence directory (warm restart).
    Disk,
    /// Built from scratch: sort + tuning sweep.
    Built,
}

/// Lookup counters for the cache-hit report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PlanCacheStats {
    /// Lookups answered from memory.
    pub memory_hits: u64,
    /// Lookups answered by decoding a persisted plan.
    pub disk_hits: u64,
    /// Lookups that paid the full preprocessing cost.
    pub builds: u64,
    /// Modeled milliseconds spent building plans: an `O(n log n)` sort of
    /// the nonzeros plus the simulated time of every tuning trial. Derived
    /// from the analytic cost model rather than a wall-clock measurement so
    /// the same workload always reports bit-identical numbers (host timing
    /// lives only in `baselines::timing` and the `decomp` benchmarks).
    pub build_ms: f64,
    /// Persisted plans refused at load time because the static analyzer
    /// refuted their tuned configuration, or because their format is not
    /// over compact product-mode coordinates (each such lookup rebuilds).
    pub refuted_loads: u64,
    /// Persisted plans refused at load time because the stored cost
    /// certificate did not match the one re-derived from the decoded bytes
    /// (each such lookup rebuilds).
    pub certificate_mismatches: u64,
    /// Persisted plans refused at load time because they were tuned over
    /// other grids than this cache's, for another [`Objective`] than this
    /// cache's device gives them, or were written before plan files
    /// recorded both (each such lookup rebuilds).
    pub stale_loads: u64,
    /// Out-of-core chunk plans split from scratch (one per new
    /// `(plan, budget)` pair the engine asked for).
    pub chunk_builds: u64,
    /// Out-of-core chunk-plan lookups answered from memory.
    pub chunk_hits: u64,
}

impl PlanCacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.memory_hits + self.disk_hits + self.builds
    }

    /// Fraction of lookups that skipped preprocessing (memory or disk).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        (self.memory_hits + self.disk_hits) as f64 / lookups as f64
    }
}

/// In-memory plan cache with optional disk persistence.
pub struct PlanCache {
    plans: BTreeMap<PlanKey, Arc<Plan>>,
    chunk_plans: BTreeMap<(PlanKey, usize), Arc<ChunkPlan>>,
    /// The chosen streaming of each plan, per headroom.
    stream_plans: BTreeMap<(PlanKey, usize), Arc<StreamPlan>>,
    dir: Option<PathBuf>,
    block_sizes: Vec<usize>,
    threadlens: Vec<usize>,
    /// Device bytes of the pool plans are served from.
    capacity: usize,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// Creates a cache. When `dir` is given, built plans are persisted there
    /// and lookups fall back to it before preprocessing (the directory is
    /// created on first write).
    pub fn new(dir: Option<PathBuf>) -> Self {
        PlanCache {
            plans: BTreeMap::new(),
            chunk_plans: BTreeMap::new(),
            stream_plans: BTreeMap::new(),
            dir,
            block_sizes: SERVE_BLOCK_SIZES.to_vec(),
            threadlens: SERVE_THREADLENS.to_vec(),
            capacity: usize::MAX,
            stats: PlanCacheStats::default(),
        }
    }

    /// Tunes plans for a device of `capacity` bytes (unbounded by
    /// default): a plan none of whose serving-grid formats ever fits it is
    /// tuned for streaming ([`Objective::Streamed`]).
    pub fn with_device_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Overrides the tuning grids used for plan builds.
    pub fn with_grids(mut self, block_sizes: &[usize], threadlens: &[usize]) -> Self {
        self.block_sizes = block_sizes.to_vec();
        self.threadlens = threadlens.to_vec();
        self
    }

    /// Number of plans resident in memory.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Lookup counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// The in-memory plan for `key`, if any, without touching counters or
    /// falling back to disk.
    pub fn peek(&self, key: PlanKey) -> Option<Arc<Plan>> {
        self.plans.get(&key).map(Arc::clone)
    }

    /// Drops `key` from memory *and* disk, so the next lookup pays a full
    /// rebuild instead of replaying a possibly-suspect plan. Used by the
    /// fault-tolerant serving path when a plan's tuned configuration
    /// correlates with corrupting faults. Returns true when an in-memory
    /// plan was actually dropped.
    pub fn invalidate(&mut self, key: PlanKey) -> bool {
        let removed = self.plans.remove(&key).is_some();
        self.chunk_plans.retain(|(k, _), _| *k != key);
        self.stream_plans.retain(|(k, _), _| *k != key);
        if let Some(dir) = &self.dir {
            std::fs::remove_file(dir.join(key.file_name())).ok();
        }
        removed
    }

    /// The out-of-core chunked variant of `key`'s plan under a per-chunk
    /// device budget of `budget_bytes`. Cached in memory keyed on
    /// `(plan, budget)` — the same plan served under two pool pressures
    /// learns both variants — and dropped with [`PlanCache::invalidate`].
    /// Not persisted: a split is cheap next to the preprocessing sort, and
    /// budgets shift with pool pressure.
    pub fn chunk_plan(&mut self, key: PlanKey, fcoo: &Fcoo, budget_bytes: usize) -> Arc<ChunkPlan> {
        if let Some(plan) = self.chunk_plans.get(&(key, budget_bytes)) {
            self.stats.chunk_hits += 1;
            return Arc::clone(plan);
        }
        let plan = Arc::new(fcoo::split(fcoo, budget_bytes));
        self.stats.chunk_builds += 1;
        self.chunk_plans
            .insert((key, budget_bytes), Arc::clone(&plan));
        plan
    }

    /// How `plan`'s format streams under `sizing`, chosen the way a plan
    /// build chooses its launch shape: among the
    /// [`CHUNK_BUDGET_FRACTIONS`] of the headroom whose chunks fit the
    /// streamed-admission rule ([`protocol::streamed_need`] within the
    /// capacity), the one with the smallest certified
    /// [`pipeline_bound_us`] (ties to the larger budget). When none fits,
    /// the smallest budget's plan, with an infinite bound, for admission
    /// to reject. Cached per `(plan, headroom)` and dropped with
    /// [`PlanCache::invalidate`]; a plan built for streaming finds the
    /// streaming its build chose here.
    pub fn stream_plan(
        &mut self,
        config: &DeviceConfig,
        plan: &Plan,
        sizing: &StreamSizing,
    ) -> Arc<StreamPlan> {
        let headroom = sizing.headroom();
        if let Some(chosen) = self.stream_plans.get(&(plan.key, headroom)) {
            return Arc::clone(chosen);
        }
        let split = |budget| self.chunk_plan(plan.key, plan.fcoo(), budget);
        let chosen = Arc::new(choose_budget(
            config,
            plan.shape(),
            sizing,
            split,
            &[],
            &mut Vec::new(),
        ));
        self.stream_plans
            .insert((plan.key, headroom), Arc::clone(&chosen));
        chosen
    }

    /// Returns the plan for `key`, preprocessing `tensor` on `device` only
    /// when neither memory nor disk has it. `touched[m]` holds mode `m`'s
    /// sorted distinct coordinates.
    ///
    /// A build sorts the format over *compact* product-mode coordinates
    /// ([`fcoo::compact_tensor`]) once, so its factors hold only their
    /// touched rows, and sizes it against this cache's device to pick the
    /// [`Objective`]. In core, the `(format, BLOCK_SIZE, threadlen)` triple
    /// is selected on `tensor` itself ([`analyzer::tune_select`]); a
    /// format that can never be resident is tuned on the chunks it streams
    /// instead, by the smallest certified [`pipeline_bound_us`], and its
    /// chosen streaming is what [`PlanCache::stream_plan`] then answers
    /// with. The certificate is derived from the compact format at the
    /// chosen shape, the one that launches.
    pub fn get_or_build(
        &mut self,
        key: PlanKey,
        tensor: &SparseTensorCoo,
        touched: &[Vec<u32>],
        device: &GpuDevice,
    ) -> (Arc<Plan>, PlanSource) {
        if let Some(plan) = self.plans.get(&key) {
            self.stats.memory_hits += 1;
            return (Arc::clone(plan), PlanSource::Memory);
        }
        if let Some(plan) = self.load(key, tensor.shape(), touched, device) {
            self.stats.disk_hits += 1;
            let plan = Arc::new(plan);
            self.plans.insert(key, Arc::clone(&plan));
            return (plan, PlanSource::Disk);
        }
        let sorted = SortedFcoo::new(&fcoo::compact_tensor(tensor, key.op(), touched), key.op());
        let product_modes = sorted.product_indices.len();
        let (objective, sizing) = self.objective(
            key,
            tensor.shape(),
            touched,
            (sorted.nnz(), product_modes, sorted.segments()),
        );
        let (plan, certified) = match objective {
            Objective::InCore => {
                let choice = self.select(key, tensor, device);
                let chosen = &choice.chosen;
                let format =
                    AnyFormat::from_fcoo(chosen.kind, Arc::new(sorted.into_fcoo(chosen.threadlen)));
                let plan =
                    Plan::certified(device.config(), key, format, chosen.block_size, objective);
                (
                    plan,
                    choice.candidates.iter().map(|c| c.time_us.hi).collect(),
                )
            }
            Objective::Streamed { headroom } => {
                let (plan, stream, certified) =
                    self.select_streamed(device.config(), key, sorted, &sizing);
                self.stream_plans.insert((key, headroom), Arc::new(stream));
                (plan, certified)
            }
        };
        let plan = Arc::new(plan);
        self.stats.builds += 1;
        self.stats.build_ms += Self::modeled_build_ms(tensor.nnz(), &certified);
        self.persist(&plan);
        self.plans.insert(key, Arc::clone(&plan));
        (plan, PlanSource::Built)
    }

    /// The [`Objective`] a plan for `key` is tuned for on this cache's
    /// device, and how its requests size against it. `(nnz, product
    /// modes, segments)` are the format's, the same at every kind and
    /// threadlen: a request holds its compact factors and one output row
    /// per segment ([`upload::FactorPlan::transient_bytes`]), and the plan
    /// streams when even the smallest serving-grid format does not fit
    /// beside them ([`protocol::admit`]'s rule, on [`format_bytes`]).
    fn objective(
        &self,
        key: PlanKey,
        shape: &[usize],
        touched: &[Vec<u32>],
        (nnz, product_modes, segments): (usize, usize, usize),
    ) -> (Objective, StreamSizing) {
        let rank = key.rank as usize;
        let factors = upload::FactorPlan::new(key.op(), shape, touched, rank);
        let rows_bytes = upload::rows_bytes(key.op(), product_modes, segments, rank);
        let sizing = StreamSizing {
            capacity: self.capacity,
            transient_bytes: factors.transient_bytes(rows_bytes),
            factor_bytes: factors.h2d_bytes(),
        };
        let smallest_format = FormatKind::ALL
            .into_iter()
            .flat_map(|kind| {
                self.threadlens
                    .iter()
                    .map(move |&t| kind.storage_bytes(nnz, product_modes, t) + 64)
            })
            .min()
            .expect("non-empty threadlen grid");
        let objective = if smallest_format.saturating_add(sizing.transient_bytes) > self.capacity {
            Objective::Streamed {
                headroom: sizing.headroom(),
            }
        } else {
            Objective::InCore
        };
        (objective, sizing)
    }

    /// The streamed objective's search: the `(format, threadlen,
    /// BLOCK_SIZE)` shape and the chunk budget with the smallest certified
    /// [`pipeline_bound_us`], zero launches. Each format at each threadlen
    /// is split at its largest fitting budget fraction ([`first_fit`]) and
    /// certified there once for all its block sizes; each format's best
    /// shape then tries every fraction by [`PlanCache::stream_plan`]'s
    /// rule, so a plan loaded from disk streams as its build chose. The
    /// smaller of the two formats' bounds wins. Ties keep the earlier
    /// candidate (F-COO, then threadlen, then block size, then the larger
    /// budget). Returns the plan, its streaming and the bound of every
    /// candidate certified.
    fn select_streamed(
        &self,
        config: &DeviceConfig,
        key: PlanKey,
        sorted: SortedFcoo,
        sizing: &StreamSizing,
    ) -> (Plan, StreamPlan, Vec<f64>) {
        let rank = key.rank as usize;
        let keep = analyzer::tune_filter(config, &self.block_sizes);
        let cfg = LaunchConfig::default();
        let mut certified = Vec::new();
        // Per format, its best shape at its largest fitting budget:
        // threadlen, block size and streaming.
        let mut leaders: Vec<Option<(usize, usize, StreamPlan)>> =
            FormatKind::ALL.iter().map(|_| None).collect();
        for &threadlen in &self.threadlens {
            let fcoo = sorted.fcoo(threadlen);
            let blocks: Vec<usize> = self
                .block_sizes
                .iter()
                .copied()
                .filter(|&b| keep(&fcoo, b))
                .collect();
            for (kind, leader) in FormatKind::ALL.into_iter().zip(&mut leaders) {
                let Some(stream) = first_fit(kind, &fcoo, sizing) else {
                    continue;
                };
                let envelopes = analyzer::cost::certify_chunks_at(
                    config,
                    kind,
                    &fcoo,
                    &stream.chunks,
                    rank,
                    &cfg,
                    &blocks,
                );
                for (i, &block_size) in blocks.iter().enumerate() {
                    let kernel_hi_us: Vec<f64> =
                        envelopes.iter().map(|e| e[i].stats_time_us().hi).collect();
                    let bound_us = pipeline_span_us(
                        &fcoo,
                        rank,
                        &stream.chunks,
                        &stream.bytes,
                        &kernel_hi_us,
                        sizing.factor_bytes,
                    );
                    certified.push(bound_us);
                    if leader.as_ref().is_none_or(|l| bound_us < l.2.bound_us) {
                        let stream = StreamPlan {
                            chunks: Arc::clone(&stream.chunks),
                            bytes: stream.bytes.clone(),
                            bound_us,
                        };
                        *leader = Some((threadlen, block_size, stream));
                    }
                }
            }
        }
        // Each format's leader searches its budget; the smaller bound wins.
        // With no leader nothing fits at any shape, and admission rejects
        // whatever streams.
        let mut best: Option<(AnyFormat, usize, StreamPlan)> = None;
        for (kind, leader) in FormatKind::ALL.into_iter().zip(leaders) {
            let Some((threadlen, block_size, first)) = leader else {
                continue;
            };
            let format = AnyFormat::from_fcoo(kind, Arc::new(sorted.fcoo(threadlen)));
            let stream = choose_budget(
                config,
                Shape {
                    format: &format,
                    block_size,
                    rank,
                },
                sizing,
                |budget| Arc::new(fcoo::split(format.base(), budget)),
                &[&first],
                &mut certified,
            );
            if best.as_ref().is_none_or(|b| stream.bound_us < b.2.bound_us) {
                best = Some((format, block_size, stream));
            }
        }
        let (format, block_size, stream) = best.unwrap_or_else(|| {
            let format =
                AnyFormat::from_fcoo(FormatKind::Fcoo, Arc::new(sorted.fcoo(self.threadlens[0])));
            let block_size = self.block_sizes[0];
            let shape = Shape {
                format: &format,
                block_size,
                rank,
            };
            let split = |budget| Arc::new(fcoo::split(format.base(), budget));
            let stream = choose_budget(config, shape, sizing, split, &[], &mut certified);
            (format, block_size, stream)
        });
        let objective = Objective::Streamed {
            headroom: sizing.headroom(),
        };
        let plan = Plan::certified(config, key, format, block_size, objective);
        (plan, stream, certified)
    }

    /// Deterministic analytic model of the host cost of one plan build: an
    /// `O(n log n)` comparison sort of the nonzeros plus the certified
    /// upper bound of every candidate the selection certified (the sweep
    /// is zero-launch, so its modeled cost is what the certifier proves
    /// the candidates would cost: each format's best grid point in core,
    /// every pipeline bound when streamed). Replaces a wall-clock
    /// `Instant::now()` measurement (banned repo-wide via clippy
    /// `disallowed-methods`) so `PlanCacheStats::build_ms` — and therefore
    /// the serve report — is bit-identical across runs and hosts.
    fn modeled_build_ms(nnz: usize, certified_us: &[f64]) -> f64 {
        // ~12 ns per comparison is a conventional host sort throughput; the
        // exact constant only scales the report, determinism is the point.
        const SORT_NS_PER_CMP: f64 = 12.0;
        let n = nnz.max(2) as f64;
        let sort_ms = n * n.log2() * SORT_NS_PER_CMP * 1e-6;
        let sweep_ms = certified_us.iter().sum::<f64>() * 1e-3;
        sort_ms + sweep_ms
    }

    fn select(
        &self,
        key: PlanKey,
        tensor: &SparseTensorCoo,
        device: &GpuDevice,
    ) -> analyzer::FormatChoice {
        analyzer::tune_select(
            device.config(),
            tensor,
            key.op(),
            key.rank as usize,
            Some(&self.block_sizes),
            Some(&self.threadlens),
        )
    }

    /// Writes `plan` into the persistence directory; I/O failures are
    /// swallowed (persistence is an optimization, not a correctness need).
    fn persist(&self, plan: &Plan) {
        let Some(dir) = &self.dir else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let path = dir.join(plan.key.file_name());
        let Ok(file) = std::fs::File::create(&path) else {
            return;
        };
        let mut w = std::io::BufWriter::new(file);
        let header_ok = w
            .write_all(PLAN_MAGIC)
            .and_then(|_| w.write_all(&PLAN_VERSION.to_le_bytes()))
            .and_then(|_| w.write_all(&(plan.block_size as u32).to_le_bytes()))
            .and_then(|_| w.write_all(&plan.key.rank.to_le_bytes()))
            .and_then(|_| w.write_all(&plan.certificate.time_lo_us.to_le_bytes()))
            .and_then(|_| w.write_all(&plan.certificate.time_hi_us.to_le_bytes()))
            .and_then(|_| w.write_all(&[plan.kind().tag()]))
            .and_then(|_| {
                w.write_all(&grid_digest(&self.block_sizes, &self.threadlens).to_le_bytes())
            })
            .and_then(|_| w.write_all(&plan.objective.encode()));
        if header_ok.is_err() || fcoo::write_fcoo(plan.fcoo(), &mut w).is_err() {
            drop(w);
            std::fs::remove_file(&path).ok();
        }
    }

    /// Attempts to reload a persisted plan; any corruption or mismatch
    /// (including truncation — `read_fcoo` rejects it with an error, never a
    /// panic) silently falls back to a rebuild. A plan that decodes but whose
    /// tuned configuration the static analyzer refutes against `device` is
    /// likewise refused (counted in [`PlanCacheStats::refuted_loads`]): a
    /// header promising block size 2048 would otherwise decode fine here and
    /// panic inside the launch asserts later. Finally the stored
    /// [`PlanCertificate`] is validated against a re-derivation over the
    /// decoded bytes — the certificate gate catches tampering the boolean
    /// gate cannot, e.g. a header rewritten to a *different but valid* block
    /// size or a flipped-but-valid format tag (counted in
    /// [`PlanCacheStats::certificate_mismatches`]).
    ///
    /// A plan written before formats were built over compact coordinates
    /// decodes and certifies fine, but its kernel would index full-size
    /// factors: any product mode whose extent differs from its number of
    /// distinct coordinates (`touched`) is refused as refuted. A fully
    /// touched mode is the same either way, so such plans still load.
    ///
    /// A plan tuned over other grids than this cache's, or written by an
    /// older version that did not record its grids and objective, is
    /// refused (counted in [`PlanCacheStats::stale_loads`]) before its
    /// payload is decoded; so is, once decoded, a plan whose recorded
    /// [`Objective`] is not the one this cache's device gives it (a plan
    /// tuned for streaming loaded where its format fits whole, or for
    /// another headroom). An unknown tag byte is corruption and falls back
    /// to a rebuild.
    fn load(
        &mut self,
        key: PlanKey,
        shape: &[usize],
        touched: &[Vec<u32>],
        device: &GpuDevice,
    ) -> Option<Plan> {
        let dir = self.dir.as_ref()?;
        let file = std::fs::File::open(dir.join(key.file_name())).ok()?;
        let mut r = std::io::BufReader::new(file);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).ok()?;
        if &magic != PLAN_MAGIC {
            return None;
        }
        let mut word = [0u8; 4];
        r.read_exact(&mut word).ok()?;
        let version = u32::from_le_bytes(word);
        if version != PLAN_VERSION {
            if version < PLAN_VERSION {
                self.stats.stale_loads += 1;
            }
            return None;
        }
        r.read_exact(&mut word).ok()?;
        let block_size = u32::from_le_bytes(word) as usize;
        r.read_exact(&mut word).ok()?;
        let rank = u32::from_le_bytes(word);
        let mut wide = [0u8; 8];
        r.read_exact(&mut wide).ok()?;
        let time_lo_us = f64::from_le_bytes(wide);
        r.read_exact(&mut wide).ok()?;
        let time_hi_us = f64::from_le_bytes(wide);
        let stored = PlanCertificate {
            time_lo_us,
            time_hi_us,
        };
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag).ok()?;
        let kind = FormatKind::from_tag(tag[0])?;
        r.read_exact(&mut wide).ok()?;
        if u64::from_le_bytes(wide) != grid_digest(&self.block_sizes, &self.threadlens) {
            self.stats.stale_loads += 1;
            return None;
        }
        let mut objective = [0u8; 9];
        r.read_exact(&mut objective).ok()?;
        let objective = Objective::decode(objective)?;
        let fcoo = fcoo::read_fcoo(&mut r).ok()?;
        if rank != key.rank || fcoo.op != key.op() {
            return None;
        }
        let uncompacted = fcoo.classification.product_modes.iter().any(|&m| {
            touched
                .get(m)
                .is_none_or(|rows| fcoo.shape[m] != rows.len())
        });
        if uncompacted {
            self.stats.refuted_loads += 1;
            return None;
        }
        let sizes = (fcoo.nnz(), fcoo.product_indices.len(), fcoo.segments());
        if self.objective(key, shape, touched, sizes).0 != objective {
            self.stats.stale_loads += 1;
            return None;
        }
        let format = AnyFormat::from_fcoo(kind, Arc::new(fcoo));
        if !analyzer::plan_safe(device.config(), &format, block_size) {
            self.stats.refuted_loads += 1;
            return None;
        }
        let derived = PlanCertificate::derive(device.config(), &format, rank as usize, block_size);
        if !stored.matches(&derived) {
            self.stats.certificate_mismatches += 1;
            return None;
        }
        Some(Plan {
            key,
            format,
            block_size,
            certificate: derived,
            objective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_core::datasets::{self, DatasetKind};

    fn sample() -> SparseTensorCoo {
        datasets::generate(DatasetKind::Nell2, 1500, 11).0
    }

    fn touched(tensor: &SparseTensorCoo) -> Vec<Vec<u32>> {
        (0..tensor.order())
            .map(|m| fcoo::touched_rows(tensor.mode_indices(m)))
            .collect()
    }

    fn key_for(tensor: &SparseTensorCoo) -> PlanKey {
        PlanKey::new(
            crate::fingerprint::tensor_fingerprint(tensor),
            TensorOp::SpMttkrp { mode: 0 },
            8,
        )
    }

    /// Long-fiber power-law tensor on which BF-COO's buckets certify a
    /// strictly tighter gather bound (mirrors the analyzer's selection
    /// regression).
    fn skew_tensor() -> SparseTensorCoo {
        let (slices, jdim, kdim) = (400u32, 300u32, 2000u32);
        let mut entries = Vec::new();
        for s in 0..slices {
            let len = ((30_000.0 / f64::powf(s as f64 + 1.0, 1.3)) as u32).clamp(1, kdim);
            for t in 0..len {
                entries.push((vec![s, (s * 7) % jdim, (t * 13) % kdim], 1.0f32));
            }
        }
        let shape = vec![slices as usize, jdim as usize, kdim as usize];
        SparseTensorCoo::from_entries(shape, &entries)
    }

    /// Saturating uniform counterpart: 128 non-zeros per slice with j and k
    /// injective within each slice, so every aligned 32-run holds 32
    /// distinct rows and buckets certify nothing — F-COO must win the tie.
    fn uniform_tensor() -> SparseTensorCoo {
        let (slices, jdim, kdim) = (400u32, 300u32, 2000u32);
        let mut entries = Vec::new();
        for s in 0..slices {
            for t in 0..128u32 {
                entries.push((
                    vec![s, (s * 17 + t * 7) % jdim, (s + t * 13) % kdim],
                    1.0f32,
                ));
            }
        }
        let shape = vec![slices as usize, jdim as usize, kdim as usize];
        SparseTensorCoo::from_entries(shape, &entries)
    }

    #[test]
    fn second_lookup_hits_memory() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let key = key_for(&tensor);
        let mut cache = PlanCache::new(None).with_grids(&[64], &[8]);
        let (_, first) = cache.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(first, PlanSource::Built);
        let (plan, second) = cache.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(second, PlanSource::Memory);
        assert_eq!(plan.threadlen(), 8);
        assert_eq!(plan.block_size, 64);
        assert_eq!(cache.stats().memory_hits, 1);
        assert_eq!(cache.stats().builds, 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn plans_survive_a_restart_via_disk() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let key = key_for(&tensor);
        let dir = std::env::temp_dir().join(format!("serve_plan_test_{:x}", key.fingerprint));
        std::fs::remove_dir_all(&dir).ok();
        let mut cold = PlanCache::new(Some(dir.clone())).with_grids(&[64, 128], &[8, 16]);
        let (built, source) = cold.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        // A fresh cache (server restart) finds the persisted plan.
        let mut warm = PlanCache::new(Some(dir.clone())).with_grids(&[64, 128], &[8, 16]);
        let (loaded, source) = warm.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Disk);
        assert_eq!(loaded.block_size, built.block_size);
        assert_eq!(loaded.threadlen(), built.threadlen());
        assert_eq!(loaded.kind(), built.kind());
        assert_eq!(loaded.fcoo().values, built.fcoo().values);
        assert_eq!(warm.stats().disk_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_plan_files_fall_back_to_rebuild() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let key = key_for(&tensor);
        let dir = std::env::temp_dir().join("serve_plan_test_corrupt");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Truncated garbage under the expected name must not panic.
        std::fs::write(dir.join(key.file_name()), b"SPLN\x01\x00\x00\x00garbage").unwrap();
        let mut cache = PlanCache::new(Some(dir.clone())).with_grids(&[64], &[8]);
        let (_, source) = cache.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refuted_persisted_plans_are_rebuilt() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let key = key_for(&tensor);
        let dir = std::env::temp_dir().join("serve_plan_test_refuted");
        std::fs::remove_dir_all(&dir).ok();
        let mut cold = PlanCache::new(Some(dir.clone())).with_grids(&[64], &[8]);
        let (_, source) = cold.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        // Patch the persisted header's block size to 2048 — the bytes decode
        // fine, but the configuration exceeds the device thread limit. The
        // analyzer gate must refuse it instead of letting the launch assert.
        let path = dir.join(key.file_name());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&2048u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let mut warm = PlanCache::new(Some(dir.clone())).with_grids(&[64], &[8]);
        let (plan, source) = warm.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        assert_eq!(plan.block_size, 64);
        assert_eq!(warm.stats().refuted_loads, 1);
        assert_eq!(warm.stats().disk_hits, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncompacted_plans_are_refused_and_rebuilt_before_serving() {
        let device = GpuDevice::titan_x();
        let text = "tensor t nell1 1500 3\nrequest t spttm 0 16 0.0 1\n";
        let workload = crate::Workload::parse(text).expect("valid workload");
        let spec = &workload.tensors[0];
        let tensor = datasets::generate(spec.kind, spec.nnz, spec.seed).0;
        let touched = touched(&tensor);
        assert!(
            touched[0].len() < tensor.shape()[0],
            "mode 0 is partially touched"
        );
        let op = TensorOp::SpTtm { mode: 0 };
        let key = PlanKey::new(crate::fingerprint::tensor_fingerprint(&tensor), op, 16);
        let dir = std::env::temp_dir().join("serve_plan_test_uncompacted");
        std::fs::remove_dir_all(&dir).ok();
        // Persist the plan as it was built before compact coordinates: the
        // same selection, its format over the full coordinates, and a
        // certificate that matches those bytes.
        let cache = PlanCache::new(Some(dir.clone()));
        let chosen = cache.select(key, &tensor, &device).chosen;
        let format = AnyFormat::build(chosen.kind, &tensor, op, chosen.threadlen);
        let certificate = PlanCertificate::derive(device.config(), &format, 16, chosen.block_size);
        cache.persist(&Plan {
            key,
            format,
            block_size: chosen.block_size,
            certificate,
            objective: Objective::InCore,
        });
        let mut engine = crate::ServeEngine::new(crate::ServeConfig {
            plan_dir: Some(dir.clone()),
            verify: true,
            ..crate::ServeConfig::default()
        });
        let report = engine.run(&workload);
        assert_eq!(report.requests.len(), 1, "{:?}", report.rejections);
        assert_eq!(report.verify_failures, 0);
        assert_eq!(report.plan_stats.refuted_loads, 1);
        assert_eq!(report.plan_stats.builds, 1);
        assert_eq!(report.plan_stats.disk_hits, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_but_valid_block_size_fails_the_certificate_gate() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let key = key_for(&tensor);
        let dir = std::env::temp_dir().join("serve_plan_test_certificate");
        std::fs::remove_dir_all(&dir).ok();
        let mut cold = PlanCache::new(Some(dir.clone())).with_grids(&[64], &[8]);
        let (built, source) = cold.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        assert_eq!(built.block_size, 64);
        // Rewrite the header's block size to 256 — individually a perfectly
        // valid configuration, so the boolean plan gate accepts it. Only the
        // certificate (derived for block 64) exposes the swap. (256, not
        // 128: on this tensor both formats' envelopes fit one wave at 64
        // and 128, so those two certificates coincide bit-for-bit.)
        let path = dir.join(key.file_name());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&256u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let mut warm = PlanCache::new(Some(dir.clone())).with_grids(&[64], &[8]);
        let (plan, source) = warm.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        assert_eq!(plan.block_size, 64);
        assert_eq!(warm.stats().certificate_mismatches, 1);
        assert_eq!(warm.stats().refuted_loads, 0);
        assert_eq!(warm.stats().disk_hits, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persisted_certificates_round_trip_and_validate() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let key = key_for(&tensor);
        let dir = std::env::temp_dir().join("serve_plan_test_cert_roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        let mut cold = PlanCache::new(Some(dir.clone())).with_grids(&[64, 128], &[8, 16]);
        let (built, _) = cold.get_or_build(key, &tensor, &touched(&tensor), &device);
        let mut warm = PlanCache::new(Some(dir.clone())).with_grids(&[64, 128], &[8, 16]);
        let (loaded, source) = warm.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Disk);
        assert!(loaded.certificate.matches(&built.certificate));
        assert!(loaded.certificate.time_lo_us <= loaded.certificate.time_hi_us);
        assert!(loaded.certificate.time_lo_us > 0.0);
        assert_eq!(warm.stats().certificate_mismatches, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalidate_forces_a_rebuild_from_scratch() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let key = key_for(&tensor);
        let dir = std::env::temp_dir().join("serve_plan_test_invalidate");
        std::fs::remove_dir_all(&dir).ok();
        let mut cache = PlanCache::new(Some(dir.clone())).with_grids(&[64], &[8]);
        let (_, source) = cache.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        assert!(dir.join(key.file_name()).exists());
        // Invalidation removes the memory copy and the persisted file, so
        // the next lookup cannot hit either.
        assert!(cache.invalidate(key));
        assert!(!dir.join(key.file_name()).exists());
        assert!(cache.peek(key).is_none());
        let (_, source) = cache.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        assert_eq!(cache.stats().builds, 2);
        // Invalidating an absent key reports false and stays harmless.
        cache.invalidate(key);
        assert!(!cache.invalidate(key));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_plans_cache_per_budget_and_die_with_invalidation() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let key = key_for(&tensor);
        let mut cache = PlanCache::new(None).with_grids(&[64], &[8]);
        let (plan, _) = cache.get_or_build(key, &tensor, &touched(&tensor), &device);
        let small = cache.chunk_plan(key, plan.fcoo(), 2048);
        let again = cache.chunk_plan(key, plan.fcoo(), 2048);
        assert_eq!(small.chunks, again.chunks);
        let large = cache.chunk_plan(key, plan.fcoo(), 1 << 20);
        assert!(large.len() <= small.len());
        assert_eq!(cache.stats().chunk_builds, 2);
        assert_eq!(cache.stats().chunk_hits, 1);
        // Invalidation drops every budget variant of the plan.
        cache.invalidate(key);
        cache.chunk_plan(key, plan.fcoo(), 2048);
        assert_eq!(cache.stats().chunk_builds, 3);
    }

    /// A `kind` plan for SpMTTKRP mode 0 of `tensor` at rank 8, block 128,
    /// with the sizing of its streamed runs under each headroom.
    fn streamed_case(
        tensor: &SparseTensorCoo,
        kind: FormatKind,
    ) -> (Plan, impl Fn(usize) -> StreamSizing) {
        let op = TensorOp::SpMttkrp { mode: 0 };
        let touched = touched(tensor);
        let format = AnyFormat::build(kind, &fcoo::compact_tensor(tensor, op, &touched), op, 8);
        let config = DeviceConfig::titan_x();
        let certificate = PlanCertificate::derive(&config, &format, 8, 128);
        let factors = upload::FactorPlan::new(op, tensor.shape(), &touched, 8);
        let transient_bytes = factors.transient_bytes(upload::output_bytes(format.base(), 8));
        let factor_bytes = factors.h2d_bytes();
        let plan = Plan {
            key: key_for(tensor),
            format,
            block_size: 128,
            certificate,
            objective: Objective::InCore,
        };
        let sizing = move |headroom: usize| StreamSizing {
            capacity: transient_bytes + headroom,
            transient_bytes,
            factor_bytes,
        };
        (plan, sizing)
    }

    #[test]
    fn the_chosen_chunk_budget_fits_with_its_schedule_metadata() {
        let config = DeviceConfig::titan_x();
        let tensor = datasets::generate(DatasetKind::Nell2, 3000, 7).0;
        let mut metadata_refused_half = false;
        for kind in [FormatKind::Fcoo, FormatKind::BfCoo] {
            let (plan, sizing) = streamed_case(&tensor, kind);
            let format_bytes = plan.format.storage_bytes();
            let mut cache = PlanCache::new(None);
            for step in 0..40 {
                let sizing = sizing(format_bytes / 8 + step * format_bytes / 80);
                let chosen = cache.stream_plan(&config, &plan, &sizing);
                let need =
                    protocol::streamed_need(sizing.transient_bytes, chosen.max_chunk_bytes());
                assert!(
                    chosen.bound_us.is_finite(),
                    "{kind:?} step {step}: nothing fits"
                );
                assert!(need <= sizing.capacity, "{kind:?} step {step}: {need} B");
                // The half budget's chunks fit by their formats alone but
                // not with their bucket metadata: it must not be chosen.
                let half = fcoo::split(plan.fcoo(), sizing.headroom() / 2);
                let bare = half.chunks.iter().map(|c| c.format_bytes).max().unwrap();
                let full = chunk_bytes(kind, plan.fcoo(), &half)
                    .into_iter()
                    .max()
                    .unwrap();
                let fits = |bytes| {
                    protocol::streamed_need(sizing.transient_bytes, bytes) <= sizing.capacity
                };
                if fits(bare) && !fits(full) {
                    metadata_refused_half = true;
                    assert_ne!(chosen.chunks.budget_bytes, sizing.headroom() / 2);
                }
            }
        }
        assert!(
            metadata_refused_half,
            "no headroom exercised the metadata case"
        );
    }

    #[test]
    fn the_chosen_bound_is_never_worse_than_the_quarter_budget() {
        let config = DeviceConfig::titan_x();
        let tensor = datasets::generate(DatasetKind::Nell2, 3000, 7).0;
        for kind in [FormatKind::Fcoo, FormatKind::BfCoo] {
            let (plan, sizing) = streamed_case(&tensor, kind);
            let format_bytes = plan.format.storage_bytes();
            let mut cache = PlanCache::new(None);
            let mut better = 0;
            for step in 0..20 {
                let sizing = sizing(format_bytes / 8 + step * format_bytes / 40);
                let chosen = cache.stream_plan(&config, &plan, &sizing);
                let quarter = fcoo::split(plan.fcoo(), sizing.headroom() / 4);
                let bytes = chunk_bytes(kind, plan.fcoo(), &quarter);
                let quarter_us =
                    pipeline_bound_us(&config, &plan, &quarter, &bytes, sizing.factor_bytes);
                assert!(
                    chosen.bound_us <= quarter_us,
                    "{kind:?} step {step}: chose {} µs over the quarter's {quarter_us} µs",
                    chosen.bound_us
                );
                better += usize::from(chosen.bound_us < quarter_us);
            }
            assert!(better > 0, "{kind:?}: the quarter always won");
        }
    }

    #[test]
    fn planner_selects_bfcoo_on_skew_and_round_trips_the_tag() {
        let device = GpuDevice::titan_x();
        let tensor = skew_tensor();
        let key = key_for(&tensor);
        let dir = std::env::temp_dir().join("serve_plan_test_bfcoo_select");
        std::fs::remove_dir_all(&dir).ok();
        let mut cold = PlanCache::new(Some(dir.clone())).with_grids(&[64, 128], &[16, 32]);
        let (built, source) = cold.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        assert_eq!(built.kind(), FormatKind::BfCoo);
        // The choice is a certificate: BF-COO's upper bound strictly beats
        // the best F-COO config the same planner grids could prove.
        let choice = analyzer::tune_select(
            device.config(),
            &tensor,
            key.op(),
            key.rank as usize,
            Some(&[64, 128]),
            Some(&[16, 32]),
        );
        assert!(choice.strictly_dominates(), "{}", choice.render());
        assert_eq!(
            built.certificate.time_hi_us.to_bits(),
            choice.chosen.time_us.hi.to_bits()
        );
        // A warm restart rehydrates the bucket metadata from the tag.
        let mut warm = PlanCache::new(Some(dir.clone())).with_grids(&[64, 128], &[16, 32]);
        let (loaded, source) = warm.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Disk);
        assert_eq!(loaded.kind(), FormatKind::BfCoo);
        assert!(loaded.certificate.matches(&built.certificate));
        assert_eq!(warm.stats().stale_loads, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn planner_keeps_fcoo_on_uniform_tensors() {
        let device = GpuDevice::titan_x();
        let tensor = uniform_tensor();
        let key = key_for(&tensor);
        let mut cache = PlanCache::new(None).with_grids(&[64, 128], &[16, 32]);
        let (plan, source) = cache.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        assert_eq!(plan.kind(), FormatKind::Fcoo);
    }

    #[test]
    fn plans_without_a_recorded_grid_are_rebuilt() {
        let device = GpuDevice::titan_x();
        let tensor = uniform_tensor();
        let key = key_for(&tensor);
        let dir = std::env::temp_dir().join("serve_plan_test_unrecorded_grid");
        for version in [2u32, 3, 4] {
            std::fs::remove_dir_all(&dir).ok();
            let mut cold = PlanCache::new(Some(dir.clone())).with_grids(&[64], &[16]);
            cold.get_or_build(key, &tensor, &touched(&tensor), &device);
            // Rewrite the file into its older shape: that version word and
            // no objective (the nine bytes at offset 41, after the grid
            // digest); version 3 had no grid digest (the eight bytes after
            // the tag at offset 32) and version 2 no tag either.
            let path = dir.join(key.file_name());
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let first_dropped = match version {
                2 => 32,
                3 => 33,
                _ => 41,
            };
            bytes.drain(first_dropped..50);
            std::fs::write(&path, bytes).unwrap();
            let mut warm = PlanCache::new(Some(dir.clone())).with_grids(&[64], &[16]);
            let (_, source) = warm.get_or_build(key, &tensor, &touched(&tensor), &device);
            assert_eq!(source, PlanSource::Built, "version {version}");
            assert_eq!(warm.stats().stale_loads, 1, "version {version}");
            assert_eq!(warm.stats().disk_hits, 0, "version {version}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plans_tuned_over_another_grid_are_rebuilt_as_a_cold_build_would() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let key = key_for(&tensor);
        let dir = std::env::temp_dir().join("serve_plan_test_stale_grid");
        std::fs::remove_dir_all(&dir).ok();
        let mut old_grid = PlanCache::new(Some(dir.clone())).with_grids(&[64, 128], &[8, 16]);
        let (stale, source) = old_grid.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        // A restart under a wider threadlen grid must not replay the plan
        // the narrower grid chose.
        let mut warm = PlanCache::new(Some(dir.clone())).with_grids(&[64, 128], &[4, 8, 16]);
        let (rebuilt, source) = warm.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        assert_eq!(warm.stats().stale_loads, 1);
        assert_eq!(warm.stats().disk_hits, 0);
        let mut cold = PlanCache::new(None).with_grids(&[64, 128], &[4, 8, 16]);
        let (fresh, _) = cold.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(rebuilt.kind(), fresh.kind());
        assert_eq!(rebuilt.block_size, fresh.block_size);
        assert_eq!(rebuilt.threadlen(), fresh.threadlen());
        assert!(rebuilt.certificate.matches(&fresh.certificate));
        assert_eq!(rebuilt.fcoo().values, fresh.fcoo().values);
        assert_eq!(rebuilt.fcoo().sf, fresh.fcoo().sf);
        assert_eq!(
            rebuilt.fcoo().partition_first_segment,
            fresh.fcoo().partition_first_segment
        );
        // This tensor's certified optimum lies below the old grid, which is
        // what makes replaying the stale plan wrong.
        assert_eq!(fresh.threadlen(), 4);
        assert_ne!(stale.threadlen(), fresh.threadlen());
        // The rebuilt plan overwrote the stale file: the next restart under
        // the new grid loads it.
        let mut again = PlanCache::new(Some(dir.clone())).with_grids(&[64, 128], &[4, 8, 16]);
        let (_, source) = again.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Disk);
        assert_eq!(again.stats().stale_loads, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_format_tags_are_rejected_and_rebuilt() {
        let device = GpuDevice::titan_x();
        let tensor = sample();
        let key = key_for(&tensor);
        let dir = std::env::temp_dir().join("serve_plan_test_unknown_tag");
        std::fs::remove_dir_all(&dir).ok();
        let mut cold = PlanCache::new(Some(dir.clone())).with_grids(&[64], &[8]);
        cold.get_or_build(key, &tensor, &touched(&tensor), &device);
        let path = dir.join(key.file_name());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[32] = 0xff;
        std::fs::write(&path, bytes).unwrap();
        let mut warm = PlanCache::new(Some(dir.clone())).with_grids(&[64], &[8]);
        let (_, source) = warm.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        assert_eq!(warm.stats().disk_hits, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_format_tag_fails_the_certificate_gate() {
        let device = GpuDevice::titan_x();
        let tensor = skew_tensor();
        let key = key_for(&tensor);
        let dir = std::env::temp_dir().join("serve_plan_test_flipped_tag");
        std::fs::remove_dir_all(&dir).ok();
        let mut cold = PlanCache::new(Some(dir.clone())).with_grids(&[64, 128], &[16, 32]);
        let (built, _) = cold.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(built.kind(), FormatKind::BfCoo);
        // Flip the tag to F-COO — individually a valid format over the same
        // payload, so the boolean plan gate accepts it. Only the stored
        // BF-COO certificate (strictly tighter on this tensor) exposes the
        // swap.
        let path = dir.join(key.file_name());
        let mut bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[32], FormatKind::BfCoo.tag());
        bytes[32] = FormatKind::Fcoo.tag();
        std::fs::write(&path, bytes).unwrap();
        let mut warm = PlanCache::new(Some(dir.clone())).with_grids(&[64, 128], &[16, 32]);
        let (plan, source) = warm.get_or_build(key, &tensor, &touched(&tensor), &device);
        assert_eq!(source, PlanSource::Built);
        assert_eq!(plan.kind(), FormatKind::BfCoo);
        assert_eq!(warm.stats().certificate_mismatches, 1);
        assert_eq!(warm.stats().refuted_loads, 0);
        assert_eq!(warm.stats().disk_hits, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn key_round_trips_op() {
        for op in [
            TensorOp::SpTtm { mode: 2 },
            TensorOp::SpMttkrp { mode: 0 },
            TensorOp::SpTtmc { mode: 1 },
        ] {
            let key = PlanKey::new(42, op, 16);
            assert_eq!(key.op(), op);
            assert_eq!(key.rank, 16);
        }
    }
}
