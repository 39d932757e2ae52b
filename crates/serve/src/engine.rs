//! The serving engine: plan cache + memory pool + scheduler, end to end.
//!
//! [`ServeEngine::run`] replays a [`Workload`] against one or more simulated
//! devices. Each request resolves its plan (memory → disk → build), is
//! admitted against the device memory pool (queueing when the working set
//! does not fit), executes the unified kernel functionally to produce the
//! *same bits* as the one-shot API, and is placed on a stream of its
//! affinity device. Same-plan same-factor requests are batched: later
//! arrivals reuse the computed result and pay only the device→host copy.
//! CP-ALS requests run the full ALS loop through the same per-mode SpMTTKRP
//! plans, so a decomposition warms the cache for later single-op requests
//! and vice versa.

use crate::events::ProtocolEvent;
use crate::metrics::{ExecTier, LatencySummary, RequestMetrics};
use crate::plan::{Plan, PlanCache, PlanCacheStats, PlanKey, PlanSource};
use crate::pool::{AdmitError, Admitted, DevicePool, PoolStats, ReservationId};
use crate::profile::{RequestProfile, ServeProfile};
use crate::scheduler::{Placement, Scheduler};
use crate::upload::{self, DeviceFactors, FactorPlan};
use crate::workload::{Request, ServeOp, Workload};
use decomp::cp::{cp_als, CpOptions, MttkrpEngine, MttkrpError};
use fcoo::{AnyFormatDevice, DeviceMatrix, Fcoo, FcooDevice, LaunchConfig, TensorOp};
use gpu_sim::{DeviceConfig, FaultConfig, FaultEvent, GpuDevice, LaunchTrace, Timeline};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use tensor_core::datasets;
use tensor_core::{DenseMatrix, SemiSparseTensor, SparseTensorCoo, Val};

pub use crate::upload::factor_seed_for_mode;

/// Serving-engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of simulated devices.
    pub devices: usize,
    /// Streams per device.
    pub streams_per_device: usize,
    /// Hardware model each device simulates.
    pub device_config: DeviceConfig,
    /// Host↔device transfer bandwidth in GB/s (PCIe 3.0 x16 ≈ 12).
    pub pcie_gbs: f64,
    /// Plan persistence directory (warm restarts) — `None` disables.
    pub plan_dir: Option<PathBuf>,
    /// Verify every unique computed result bit-exactly against the one-shot
    /// API after the run.
    pub verify: bool,
    /// Deterministic fault injection installed on every serving device
    /// (re-seeded per device via [`FaultConfig::for_device`]). `None`
    /// disables injection entirely: the hot path is then bit-exact with the
    /// engine's pre-fault behaviour, reports included. The plan-build
    /// scratch device never has an injector — preprocessing is host-side.
    pub fault_injection: Option<FaultConfig>,
    /// Recovery policy applied when `fault_injection` is active.
    pub fault_tolerance: FaultTolerance,
    /// Profile the run: every serving device traces its launches
    /// ([`gpu_sim::GpuDevice::start_tracing`]) and the report carries a
    /// [`ServeProfile`] with per-request lifecycle spans, launch/wave traces
    /// and the per-kernel counter rows. Tracing only observes — results,
    /// simulated timings and the rest of the report are bit-exact with an
    /// unprofiled run.
    pub profile: bool,
    /// Device-byte budget for one out-of-core chunk. `None` derives a
    /// budget from the pool headroom left after the request's transient
    /// working set (a quarter of it, so pipelined chunks plus allocator
    /// slack stay resident together).
    pub ooc_chunk_budget: Option<usize>,
}

/// Most same-plan same-factor results kept for replay; past it the
/// smallest `(plan, factor seed)` key is dropped.
const RESULT_CACHE_CAP: usize = 256;

/// Arrival-share threshold above which a plan is replicated to a second
/// device: once a single plan's measured share of all routed arrivals
/// exceeds this fraction (and [`REPLICATION_MIN_REQUESTS`] arrivals have
/// been observed), requests for it balance across two devices instead of
/// pinning one.
const REPLICATION_SHARE: f64 = 0.35;

/// Minimum routed arrivals before the replication share is trusted —
/// guards against replicating off a handful of early requests.
const REPLICATION_MIN_REQUESTS: u64 = 24;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: 1,
            streams_per_device: 2,
            device_config: DeviceConfig::titan_x(),
            pcie_gbs: 12.0,
            plan_dir: None,
            verify: false,
            fault_injection: None,
            fault_tolerance: FaultTolerance::default(),
            profile: false,
            ooc_chunk_budget: None,
        }
    }
}

/// Fault-recovery policy: retry budget, backoff shape, watchdog, sampled
/// redundancy, and the quarantine / plan-invalidation thresholds.
#[derive(Debug, Clone)]
pub struct FaultTolerance {
    /// Discarded attempts tolerated per ladder tier before the request
    /// degrades to the next tier (unified → two-step → cpu).
    pub max_retries: usize,
    /// First retry backoff in µs; doubles per attempt up to the cap.
    pub backoff_base_us: f64,
    /// Ceiling of the exponential backoff (µs).
    pub backoff_cap_us: f64,
    /// Seed of the deterministic backoff jitter and redundancy sampling —
    /// same workload + same seeds ⇒ identical retry schedule.
    pub retry_seed: u64,
    /// A stream stall at least this long is cancelled by the watchdog: the
    /// request is charged this much dead time and the attempt is retried.
    /// Shorter stalls just add their dead time to the request's latency.
    pub watchdog_timeout_us: f64,
    /// Fraction of requests whose accepted result is re-executed on the
    /// same tier and compared bit-exactly (silent-corruption sampling).
    /// Zero disables redundancy.
    pub redundancy_rate: f64,
    /// Corrupting faults attributed to one device before it is quarantined
    /// and its work redistributed (only while another device stays healthy).
    pub quarantine_threshold: u64,
    /// Corrupting faults attributed to one plan before the plan cache entry
    /// is invalidated (memory and disk) and rebuilt from scratch.
    pub plan_fault_threshold: u64,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        FaultTolerance {
            max_retries: 4,
            backoff_base_us: 50.0,
            backoff_cap_us: 800.0,
            retry_seed: 0x0BAD_F417,
            watchdog_timeout_us: 2_000.0,
            redundancy_rate: 0.0,
            quarantine_threshold: 25,
            plan_fault_threshold: 12,
        }
    }
}

/// Fault and recovery tallies accumulated over an engine's lifetime (like
/// the plan and pool counters, these are not reset between runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Corrected single-bit ECC events (data unaffected).
    pub ecc_single: u64,
    /// Uncorrectable double-bit ECC events.
    pub ecc_double: u64,
    /// Kernel launches dropped by injection.
    pub launch_failures: u64,
    /// Injected allocation failures.
    pub alloc_failures: u64,
    /// Stream stalls observed.
    pub stalls: u64,
    /// Lost atomic transactions.
    pub dropped_atomics: u64,
    /// Attempts discarded and retried.
    pub retries: u64,
    /// Stalls long enough for the watchdog to cancel the attempt.
    pub watchdog_cancellations: u64,
    /// Requests degraded to the two-step kernel.
    pub two_step_fallbacks: u64,
    /// Requests degraded to the sequential host reference.
    pub cpu_fallbacks: u64,
    /// Devices quarantined during the engine's lifetime.
    pub devices_quarantined: u64,
    /// Plans invalidated because their faults crossed the threshold.
    pub plans_invalidated: u64,
    /// Accepted results re-executed redundantly for integrity sampling.
    pub redundant_checks: u64,
    /// Redundant re-executions that disagreed (each forces a retry).
    pub redundant_mismatches: u64,
}

impl FaultStats {
    /// Total injected fault events observed.
    pub fn injected(&self) -> u64 {
        self.ecc_single
            + self.ecc_double
            + self.launch_failures
            + self.alloc_failures
            + self.stalls
            + self.dropped_atomics
    }

    fn record(&mut self, event: &FaultEvent) {
        match event {
            FaultEvent::EccSingle { .. } => self.ecc_single += 1,
            FaultEvent::EccDouble { .. } => self.ecc_double += 1,
            FaultEvent::LaunchFailure { .. } => self.launch_failures += 1,
            FaultEvent::AllocFailure { .. } => self.alloc_failures += 1,
            FaultEvent::StreamStall { .. } => self.stalls += 1,
            FaultEvent::DroppedAtomic { .. } => self.dropped_atomics += 1,
        }
    }
}

/// A request's computed result.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// SpTTM's semi-sparse tensor.
    Semi(SemiSparseTensor),
    /// SpMTTKRP / SpTTMc dense matrix.
    Dense(DenseMatrix),
    /// CP-ALS factor matrices and component weights.
    Cp {
        /// One column-normalized factor per mode.
        factors: Vec<DenseMatrix>,
        /// Component weights.
        lambda: Vec<Val>,
    },
}

impl JobOutput {
    /// Bytes of the result payload (what a device→host copy moves).
    pub fn bytes(&self) -> usize {
        match self {
            JobOutput::Semi(t) => t.values().len() * 4,
            JobOutput::Dense(m) => m.data().len() * 4,
            JobOutput::Cp { factors, lambda } => {
                factors.iter().map(|f| f.data().len() * 4).sum::<usize>() + lambda.len() * 4
            }
        }
    }

    /// Order-independent checksum of the result bits.
    ///
    /// Each element's canonical `f64` bit pattern is passed through the
    /// splitmix64 finalizer (a bijection on `u64`) and the mixed words are
    /// combined with a wrapping sum. The sum commutes, so any permutation
    /// of the same elements checksums identically; and because the mix is a
    /// bijection, changing *any single bit* of any element — a mantissa bit
    /// included — changes that element's mixed word and therefore the sum.
    /// A float sum has neither property: it is order-sensitive and absorbs
    /// small flips into rounding.
    pub fn checksum(&self) -> u64 {
        fn mixed(value: f32) -> u64 {
            // Canonicalize so that -0.0 and 0.0 checksum identically; NaN
            // payloads collapse to one canonical NaN.
            let v = value as f64;
            let bits = if v == 0.0 {
                0
            } else if v.is_nan() {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            };
            // splitmix64 finalizer (the workspace's standard offline mix).
            let mut z = bits.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let fold = |acc: u64, &v: &f32| acc.wrapping_add(mixed(v));
        match self {
            JobOutput::Semi(t) => t.values().iter().fold(0, fold),
            JobOutput::Dense(m) => m.data().iter().fold(0, fold),
            JobOutput::Cp { factors, lambda } => factors
                .iter()
                .flat_map(|f| f.data())
                .fold(lambda.iter().fold(0, fold), fold),
        }
    }
}

/// A request the engine could not serve.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// Index of the request in the trace.
    pub index: usize,
    /// Why it was rejected.
    pub reason: String,
}

/// A request shed by deadline-aware admission: its certified
/// completion-time lower bound provably missed its deadline, so it was
/// terminated before executing (reservations released).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedRecord {
    /// Index of the request in the trace.
    pub index: usize,
    /// Device the request would have run on.
    pub device: usize,
    /// Certified completion-time lower bound (absolute simulated µs).
    pub estimate_us: f64,
    /// Absolute deadline the request could not meet (simulated µs).
    pub deadline_us: f64,
}

/// Overload-policy tallies for one run (reset at the start of every
/// [`ServeEngine::run`], so each report's conservation accounting —
/// served + rejected + shed = submitted — is self-contained).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Requests that arrived carrying a deadline.
    pub deadlined: u64,
    /// Requests shed because their certified completion-time lower bound
    /// provably missed their deadline.
    pub shed: u64,
    /// Plan affinities re-placed onto surviving devices by quarantines.
    pub rebalanced: u64,
    /// Hot plans replicated to a second device by the arrival-share policy.
    pub replicated: u64,
}

impl OverloadStats {
    /// True when any overload-policy action fired this run.
    pub fn any(&self) -> bool {
        self.deadlined > 0 || self.shed > 0 || self.rebalanced > 0 || self.replicated > 0
    }
}

/// Host↔device traffic of one run's served requests (reset at the start of
/// every [`ServeEngine::run`]): what their accepted attempts moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcieStats {
    /// Bytes copied host→device: formats and out-of-core chunks uploaded,
    /// plus the compact factors' touched rows.
    pub h2d_bytes: u64,
    /// Bytes copied device→host: results, batched replays included.
    pub d2h_bytes: u64,
}

impl PcieStats {
    fn record(&mut self, h2d_bytes: usize, d2h_bytes: usize) {
        self.h2d_bytes += h2d_bytes as u64;
        self.d2h_bytes += d2h_bytes as u64;
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-request metrics, in trace order (rejected and shed requests
    /// excluded).
    pub requests: Vec<RequestMetrics>,
    /// Requests that could not be served (unknown tensor, impossible fit).
    pub rejections: Vec<Rejection>,
    /// Requests shed by deadline-aware admission, in trace order. Every
    /// submitted request lands in exactly one of `requests`, `rejections`
    /// or `sheds`.
    pub sheds: Vec<ShedRecord>,
    /// Overload-policy tallies for this run.
    pub overload: OverloadStats,
    /// Host↔device bytes this run's served requests moved.
    pub pcie: PcieStats,
    /// Plan-cache counters for the run.
    pub plan_stats: PlanCacheStats,
    /// Per-device pool counters.
    pub pool_stats: Vec<PoolStats>,
    /// Per-device peak bytes over the run.
    pub peak_bytes: Vec<usize>,
    /// Device capacity in bytes (same for all devices).
    pub capacity_bytes: usize,
    /// `utilizations[d][s]`: busy fraction of stream `s` on device `d`.
    pub utilizations: Vec<Vec<f64>>,
    /// When the last job finished (simulated µs).
    pub makespan_us: f64,
    /// Requests served by reusing a batched result.
    pub batched: usize,
    /// Requests admission control made wait for memory.
    pub deferred: usize,
    /// Unique results checked bit-exactly against the one-shot API.
    pub verified: usize,
    /// Verification mismatches (must be zero).
    pub verify_failures: usize,
    /// Fault and recovery tallies (all zero when injection is disabled).
    pub fault_stats: FaultStats,
    /// Per-request profiles and counter rows (present exactly when
    /// [`ServeConfig::profile`] was set).
    pub profile: Option<ServeProfile>,
}

impl ServeReport {
    /// Fraction of plan lookups that skipped preprocessing.
    pub fn hit_rate(&self) -> f64 {
        self.plan_stats.hit_rate()
    }

    /// End-to-end latency distribution.
    pub fn latency(&self) -> LatencySummary {
        LatencySummary::from_requests(&self.requests)
    }

    /// Served requests per simulated second.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            return 0.0;
        }
        self.requests.len() as f64 / (self.makespan_us * 1e-6)
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let lat = self.latency();
        let mut out = String::new();
        out.push_str("serve summary\n");
        out.push_str(&format!(
            "  requests:       {} served ({} batched, {} deferred, {} rejected)\n",
            self.requests.len(),
            self.batched,
            self.deferred,
            self.rejections.len()
        ));
        out.push_str(&format!(
            "  makespan:       {:.1} µs simulated, throughput {:.0} req/s\n",
            self.makespan_us,
            self.throughput_rps()
        ));
        out.push_str(&format!(
            "  plan cache:     {} builds, {} disk hits, {} memory hits — hit rate {:.1}%\n",
            self.plan_stats.builds,
            self.plan_stats.disk_hits,
            self.plan_stats.memory_hits,
            self.hit_rate() * 100.0
        ));
        out.push_str(&format!(
            "  preprocessing:  {:.1} ms modeled host cost across builds\n",
            self.plan_stats.build_ms
        ));
        out.push_str(&format!(
            "  latency (µs):   p50 {:.1}  p90 {:.1}  p99 {:.1}  max {:.1}  mean {:.1}\n",
            lat.p50_us, lat.p90_us, lat.p99_us, lat.max_us, lat.mean_us
        ));
        let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        out.push_str(&format!(
            "  pcie:           {:.2} MB h2d, {:.2} MB d2h\n",
            mb(self.pcie.h2d_bytes),
            mb(self.pcie.d2h_bytes)
        ));
        for (d, stats) in self.pool_stats.iter().enumerate() {
            out.push_str(&format!(
                "  device {d}:       peak {:.2} MB of {:.0} MB, {} uploads, {} format reuses, {} evictions\n",
                self.peak_bytes[d] as f64 / (1024.0 * 1024.0),
                self.capacity_bytes as f64 / (1024.0 * 1024.0),
                stats.uploads,
                stats.format_reuses,
                stats.evictions
            ));
            for (s, u) in self.utilizations[d].iter().enumerate() {
                out.push_str(&format!("    stream {s}:     busy {:.1}%\n", u * 100.0));
            }
        }
        if self.fault_stats.injected() > 0 {
            let f = &self.fault_stats;
            out.push_str(&format!(
                "  faults:         {} injected — {} ecc-single, {} ecc-double, {} launch, {} alloc, {} stall, {} dropped-atomic\n",
                f.injected(),
                f.ecc_single,
                f.ecc_double,
                f.launch_failures,
                f.alloc_failures,
                f.stalls,
                f.dropped_atomics
            ));
            out.push_str(&format!(
                "  recovery:       {} retries, {} watchdog cancels, {} two-step + {} cpu fallbacks, {} quarantined, {} plans invalidated\n",
                f.retries,
                f.watchdog_cancellations,
                f.two_step_fallbacks,
                f.cpu_fallbacks,
                f.devices_quarantined,
                f.plans_invalidated
            ));
            if f.redundant_checks > 0 {
                out.push_str(&format!(
                    "  redundancy:     {} sampled re-executions, {} mismatches\n",
                    f.redundant_checks, f.redundant_mismatches
                ));
            }
        }
        if self.overload.any() {
            let o = &self.overload;
            out.push_str(&format!(
                "  overload:       {} deadlined, {} shed, {} affinities rebalanced, {} plans replicated\n",
                o.deadlined, o.shed, o.rebalanced, o.replicated
            ));
        }
        if self.verified > 0 || self.verify_failures > 0 {
            out.push_str(&format!(
                "  verification:   {} unique results checked bit-exact vs one-shot API, {} mismatches\n",
                self.verified, self.verify_failures
            ));
        }
        out
    }
}

struct Registered {
    tensor: SparseTensorCoo,
    fingerprint: u64,
    /// Per mode, the sorted distinct coordinates: the factor rows any
    /// kernel over this tensor can read, and what plans compact over.
    touched: Vec<Vec<u32>>,
}

struct CachedResult {
    output: JobOutput,
    /// Ladder tier that computed the output (verification re-runs the same
    /// tier — cross-tier results are numerically close, not bit-exact).
    tier: ExecTier,
}

/// Inputs and output of one executed CP-ALS job, kept for verification.
struct CpExecution {
    tensor_id: String,
    rank: usize,
    iterations: usize,
    factor_seed: u64,
    threadlens: Vec<usize>,
    block_sizes: Vec<usize>,
    tier: ExecTier,
    output: JobOutput,
}

/// What the integrity barrier concluded about one attempt.
#[derive(Default)]
struct AttemptDamage {
    /// The attempt's output must be discarded.
    corrupted: bool,
    /// An injected allocation failure occurred (an `Err` from the attempt
    /// is then retryable rather than a genuine rejection).
    injected_alloc: bool,
    /// Stall dead time charged to the request (watchdog-capped).
    dead_us: f64,
}

/// How one request ended: `Ok(Some(metrics))` = completed, `Ok(None)` =
/// shed (recorded in the engine's shed list), `Err(reason)` = rejected —
/// exactly one terminal state per request.
type Served = Result<Option<RequestMetrics>, String>;

/// One request in flight: where it runs, the reservations it holds, and
/// what its attempts have cost so far. Every lifecycle step of
/// [`ServeEngine`] reads or advances it, from routing to the terminal
/// record.
struct Lifecycle<'r> {
    index: usize,
    request: &'r Request,
    device: usize,
    /// Plan the request's faults are attributed to (the first mode's plan
    /// for CP-ALS).
    key: PlanKey,
    /// Plan whose launch shape and format the terminal record reports.
    plan: Arc<Plan>,
    plan_source: PlanSource,
    /// Earliest time the request can start: its arrival, or the release
    /// that admission last deferred it to.
    ready: f64,
    deferred: bool,
    /// Reservations opened for the request and not yet committed or
    /// released.
    pending: Vec<ReservationId>,
    /// Certified completion-time lower bound of the shed check.
    lower_bound_us: Option<f64>,
    retries: u32,
    faults_seen: u32,
    /// Dead time of failed attempts, stalls, backoff and redundant
    /// re-executions.
    recovery_us: f64,
    /// Number of the next attempt (all ladders of the request share it).
    attempt: u32,
}

impl<'r> Lifecycle<'r> {
    fn new(
        index: usize,
        request: &'r Request,
        device: usize,
        key: PlanKey,
        plan: Arc<Plan>,
        plan_source: PlanSource,
    ) -> Self {
        Lifecycle {
            index,
            request,
            device,
            key,
            plan,
            plan_source,
            ready: request.arrival_us,
            deferred: false,
            pending: Vec::new(),
            lower_bound_us: None,
            retries: 0,
            faults_seen: 0,
            recovery_us: 0.0,
            attempt: 0,
        }
    }

    /// Places `exec_us` of work on the request's device once it is ready,
    /// behind `dead_us` of dead stream time.
    fn place(&self, scheduler: &mut Scheduler, dead_us: f64, exec_us: f64) -> Placement {
        if dead_us > 0.0 {
            scheduler.place_on_device_delayed(self.device, self.ready, dead_us, exec_us)
        } else {
            scheduler.place_on_device(self.device, self.ready, exec_us)
        }
    }

    /// The request's terminal record at `placement`, with an empty
    /// transfer/kernel split and no launch traces for the caller to fill.
    fn profile(&self, placement: &Placement, tier: ExecTier) -> RequestProfile {
        RequestProfile {
            index: self.index,
            tensor_id: self.request.tensor_id.clone(),
            op: self.request.op,
            rank: self.request.rank,
            device: placement.device,
            stream: placement.stream,
            arrival_us: self.request.arrival_us,
            start_us: placement.start_us,
            finish_us: placement.finish_us,
            recovery_us: self.recovery_us,
            h2d_us: 0.0,
            kernel_us: 0.0,
            d2h_us: 0.0,
            h2d_bytes: 0,
            lower_bound_us: self.lower_bound_us,
            plan_source: self.plan_source,
            block_size: self.plan.block_size,
            threadlen: self.plan.threadlen(),
            format: self.plan.kind(),
            batched: false,
            deferred: self.deferred,
            retries: self.retries,
            tier,
            faults_seen: self.faults_seen,
            launches: Vec::new(),
            chunks: Vec::new(),
            chunk_streams: [0, 0, 0],
        }
    }
}

/// How an attempt ladder ended without a rejection.
struct Attempts<T> {
    /// The accepted value and the tier that produced it; `None` when the
    /// ladder's last tier ran out of retries.
    accepted: Option<(T, ExecTier)>,
    /// Dead time this ladder charged: stalls and backoff.
    dead_us: f64,
}

/// A working set that can never fit the device pool.
struct TooLarge {
    working_set: usize,
    message: String,
}

/// What the complete step does with a finished request's result.
enum Keep {
    /// Nothing: it is already in the result cache (a replay).
    Cached,
    /// Insert it into the result cache for replays and verification.
    Result(JobOutput),
    /// Keep the CP-ALS job for verification.
    Cp(CpExecution),
}

/// One in-core attempt: its result and the accepted attempt's launches.
type InCoreRun = (Attempt, Vec<LaunchTrace>);

/// Projects an accepted attempt to the output sampled redundancy compares
/// and the kernel time it charges.
type Sampled<T> = fn(&T) -> (&JobOutput, f64);

/// What sampled redundancy compares and charges of an in-core attempt.
fn in_core_output(run: &InCoreRun) -> (&JobOutput, f64) {
    (&run.0 .0, run.0 .1)
}

/// The multi-tenant serving engine.
pub struct ServeEngine {
    config: ServeConfig,
    devices: Vec<GpuDevice>,
    pools: Vec<DevicePool>,
    /// Dedicated device for plan builds: the tuner's trial kernels allocate
    /// factors and outputs of their own, and running them against a serving
    /// device would collide with pool-resident formats under pressure.
    scratch: GpuDevice,
    plans: PlanCache,
    tensors: BTreeMap<String, Registered>,
    results: BTreeMap<(PlanKey, u64), CachedResult>,
    cp_executions: Vec<CpExecution>,
    fault_stats: FaultStats,
    /// Corrupting faults attributed to each device (quarantine evidence).
    device_fault_counts: Vec<u64>,
    /// Devices removed from the affinity rotation after repeated faults.
    quarantined: Vec<bool>,
    /// Corrupting faults correlated with one plan (invalidation evidence).
    plan_fault_counts: BTreeMap<PlanKey, u64>,
    /// Serving devices for each plan digest: primary first, then replicas.
    /// Entries are seeded lazily with the legacy rule (`digest % devices`,
    /// skipping quarantined devices) and rewritten eagerly when a
    /// quarantine fires — so stale affinities never route new work at a
    /// quarantined device — or when the replication policy adds a device.
    plan_affinity: BTreeMap<u64, Vec<usize>>,
    /// Routed arrivals per plan digest (replication evidence).
    plan_arrivals: BTreeMap<u64, u64>,
    /// Total routed arrivals (denominator of the replication share).
    total_arrivals: u64,
    /// Requests shed so far in the current run.
    sheds: Vec<ShedRecord>,
    /// Overload-policy tallies for the current run.
    overload: OverloadStats,
    /// Host↔device traffic of the current run.
    pcie: PcieStats,
    /// Per-request profiles of the current run (only filled when
    /// [`ServeConfig::profile`] is set).
    profiled: Vec<RequestProfile>,
    /// Host-visible protocol transitions (only recorded after
    /// [`ServeEngine::enable_protocol_log`]); the `modelcheck` crate replays
    /// its property automata over this log.
    protocol: Vec<ProtocolEvent>,
    protocol_enabled: bool,
}

fn product_modes(order: usize, mode: usize) -> Vec<usize> {
    (0..order).filter(|&m| m != mode).collect()
}

/// splitmix64 finalizer: the deterministic hash behind backoff jitter and
/// redundancy sampling (same workload + same seeds ⇒ same draws).
fn mix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Analytic host-execution model for the CPU fallback tier: `2·nnz·R·(N−1)`
/// flops at 2 GFLOP/s. An analytic model (not the wall clock) keeps reports
/// deterministic across runs and machines.
fn cpu_reference_us(nnz: usize, rank: usize, order: usize) -> f64 {
    2.0 * nnz as f64 * rank as f64 * order.saturating_sub(1) as f64 / 2000.0
}

/// The sequential host result for `op` with the engine's factor-seed
/// convention — the ladder's last rung, and its verification reference.
fn host_reference_output(
    tensor: &SparseTensorCoo,
    op: TensorOp,
    rank: usize,
    factor_seed: u64,
) -> JobOutput {
    let shape = tensor.shape();
    match op {
        TensorOp::SpTtm { mode } => {
            let u = DenseMatrix::random(shape[mode], rank, factor_seed_for_mode(factor_seed, mode));
            JobOutput::Semi(tensor_core::ops::spttm(tensor, mode, &u))
        }
        TensorOp::SpMttkrp { mode } => {
            let hosts: Vec<DenseMatrix> = (0..shape.len())
                .map(|m| DenseMatrix::random(shape[m], rank, factor_seed_for_mode(factor_seed, m)))
                .collect();
            let refs: Vec<&DenseMatrix> = hosts.iter().collect();
            JobOutput::Dense(tensor_core::ops::spmttkrp(tensor, mode, &refs))
        }
        TensorOp::SpTtmc { mode } => {
            let hosts: Vec<DenseMatrix> = product_modes(shape.len(), mode)
                .iter()
                .map(|&m| DenseMatrix::random(shape[m], rank, factor_seed_for_mode(factor_seed, m)))
                .collect();
            let refs: Vec<&DenseMatrix> = hosts.iter().collect();
            JobOutput::Dense(tensor_core::ops::spttmc_norder(tensor, mode, &refs))
        }
    }
}

/// Merges per-mode plan sources into one label for the request: any build
/// dominates, then any disk hit, then pure memory.
fn worst_source(sources: &[PlanSource]) -> PlanSource {
    if sources.contains(&PlanSource::Built) {
        PlanSource::Built
    } else if sources.contains(&PlanSource::Disk) {
        PlanSource::Disk
    } else {
        PlanSource::Memory
    }
}

impl ServeEngine {
    /// Creates an engine with `config.devices` fresh simulated devices.
    pub fn new(config: ServeConfig) -> Self {
        let devices: Vec<GpuDevice> = (0..config.devices.max(1))
            .map(|_| GpuDevice::new(config.device_config.clone()))
            .collect();
        let pools = devices
            .iter()
            .map(|d| DevicePool::new(d.memory().clone()))
            .collect();
        let plans = PlanCache::new(config.plan_dir.clone());
        // The plan-build scratch device models timing only, never results;
        // give it unbounded memory so tuning an out-of-core plan can hold a
        // format the serving pools cannot (simulated addresses don't feed
        // the timing model, so tuned winners are unchanged for plans that
        // also fit the real capacity).
        let scratch = GpuDevice::new(DeviceConfig {
            memory_capacity: usize::MAX / 2,
            ..config.device_config.clone()
        });
        if let Some(fault) = &config.fault_injection {
            for (i, device) in devices.iter().enumerate() {
                device.memory().install_faults(fault.for_device(i));
            }
        }
        if config.profile {
            // Serving devices only: the plan-build scratch device and the
            // verification references run off the profiled timeline.
            for device in &devices {
                device.start_tracing();
            }
        }
        let device_count = devices.len();
        ServeEngine {
            config,
            devices,
            pools,
            scratch,
            plans,
            tensors: BTreeMap::new(),
            results: BTreeMap::new(),
            cp_executions: Vec::new(),
            fault_stats: FaultStats::default(),
            device_fault_counts: vec![0; device_count],
            quarantined: vec![false; device_count],
            plan_fault_counts: BTreeMap::new(),
            plan_affinity: BTreeMap::new(),
            plan_arrivals: BTreeMap::new(),
            total_arrivals: 0,
            sheds: Vec::new(),
            overload: OverloadStats::default(),
            pcie: PcieStats::default(),
            profiled: Vec::new(),
            protocol: Vec::new(),
            protocol_enabled: false,
        }
    }

    /// Starts recording every [`ProtocolEvent`] the engine performs.
    /// Recording is off by default: the serve path allocates nothing for
    /// events unless a checker asks for them.
    pub fn enable_protocol_log(&mut self) {
        self.protocol_enabled = true;
    }

    /// Drains the protocol log recorded so far.
    pub fn take_protocol_log(&mut self) -> Vec<ProtocolEvent> {
        std::mem::take(&mut self.protocol)
    }

    fn log_event(&mut self, event: ProtocolEvent) {
        if self.protocol_enabled {
            self.protocol.push(event);
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// One of the simulated devices (for recording/sanitizing runs).
    pub fn device(&self, index: usize) -> &GpuDevice {
        &self.devices[index]
    }

    /// One of the device memory pools (for leak assertions in tests and the
    /// chaos harness).
    pub fn pool(&self, index: usize) -> &DevicePool {
        &self.pools[index]
    }

    /// Fault and recovery tallies accumulated so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Registers a tensor under `id`; re-registering replaces it.
    pub fn register_tensor(&mut self, id: &str, tensor: SparseTensorCoo) {
        let fingerprint = crate::fingerprint::tensor_fingerprint(&tensor);
        let touched = (0..tensor.order())
            .map(|mode| fcoo::touched_rows(tensor.mode_indices(mode)))
            .collect();
        self.tensors.insert(
            id.to_string(),
            Registered {
                tensor,
                fingerprint,
                touched,
            },
        );
    }

    /// Microseconds a host↔device copy of `bytes` takes at the configured
    /// PCIe bandwidth (1 GB/s = 10³ bytes/µs).
    fn transfer_us(&self, bytes: usize) -> f64 {
        upload::transfer_us(bytes, self.config.pcie_gbs)
    }

    /// How a tensor-op request's factors will cross PCIe (their touched
    /// rows, sized before admission; see [`crate::upload`]).
    fn factor_plan(
        &self,
        tensor_id: &str,
        op: TensorOp,
        rank: usize,
    ) -> Result<FactorPlan, String> {
        let registered = self.registered(tensor_id)?;
        Ok(FactorPlan::new(
            op,
            registered.tensor.shape(),
            &registered.touched,
            rank,
        ))
    }

    /// Runs a workload: registers its tensors, then serves its requests in
    /// arrival order.
    pub fn run(&mut self, workload: &Workload) -> ServeReport {
        for spec in &workload.tensors {
            let (tensor, _) = datasets::generate(spec.kind, spec.nnz, spec.seed);
            self.register_tensor(&spec.id, tensor);
        }
        let mut scheduler = Scheduler::new(self.config.devices, self.config.streams_per_device);
        self.profiled.clear();
        self.sheds.clear();
        self.overload = OverloadStats::default();
        self.pcie = PcieStats::default();
        let mut requests = Vec::new();
        let mut rejections = Vec::new();
        let mut batched = 0usize;
        let mut deferred_count = 0usize;
        for (index, request) in workload.requests.iter().enumerate() {
            if request.deadline_us.is_some() {
                self.overload.deadlined += 1;
            }
            let served = match request.op {
                ServeOp::Tensor(op) => self.serve_tensor_op(index, request, op, &mut scheduler),
                ServeOp::CpAls { iterations } => {
                    self.serve_cp(index, request, iterations, &mut scheduler)
                }
            };
            match served {
                Ok(Some(metrics)) => {
                    if metrics.batched {
                        batched += 1;
                    }
                    if metrics.deferred {
                        deferred_count += 1;
                    }
                    requests.push(metrics);
                }
                // Shed: already recorded in `self.sheds` by the shed path.
                Ok(None) => {}
                Err(reason) => rejections.push(Rejection { index, reason }),
            }
        }
        // End of run: every in-flight reservation has a finish time by now,
        // so retiring at +∞ returns pool bytes-in-use to zero — the leak
        // check the chaos harness asserts on.
        for pool in &mut self.pools {
            pool.retire(f64::INFINITY);
        }
        let (verified, verify_failures) = if self.config.verify {
            self.verify_results()
        } else {
            (0, 0)
        };
        let profile = if self.config.profile {
            let profiled = std::mem::take(&mut self.profiled);
            Some(ServeProfile::assemble(
                self.config.device_config.clone(),
                profiled,
                |id| self.tensors.get(id).map(|r| &r.tensor),
            ))
        } else {
            None
        };
        ServeReport {
            requests,
            rejections,
            sheds: std::mem::take(&mut self.sheds),
            overload: self.overload,
            pcie: self.pcie,
            plan_stats: self.plans.stats(),
            pool_stats: self.pools.iter().map(DevicePool::stats).collect(),
            peak_bytes: self
                .devices
                .iter()
                .map(|d| d.memory().peak_bytes())
                .collect(),
            capacity_bytes: self.config.device_config.memory_capacity,
            utilizations: scheduler.utilizations(),
            makespan_us: scheduler.makespan_us(),
            batched,
            deferred: deferred_count,
            verified,
            verify_failures,
            fault_stats: self.fault_stats,
            profile,
        }
    }

    fn registered(&self, tensor_id: &str) -> Result<&Registered, String> {
        self.tensors
            .get(tensor_id)
            .ok_or_else(|| format!("unknown tensor `{tensor_id}`"))
    }

    /// The legacy static affinity rule a fresh plan digest seeds its
    /// affinity entry with: `digest % devices`, re-hashed across the
    /// healthy devices when the preferred one is quarantined.
    fn affinity_seed(&self, digest: u64) -> usize {
        let preferred = (digest % self.devices.len() as u64) as usize;
        if !self.quarantined[preferred] {
            return preferred;
        }
        let healthy: Vec<usize> = (0..self.devices.len())
            .filter(|&d| !self.quarantined[d])
            .collect();
        if healthy.is_empty() {
            preferred
        } else {
            healthy[(digest % healthy.len() as u64) as usize]
        }
    }

    /// Routes a plan digest to a serving device: counts the arrival,
    /// replicates the plan to a second device once its measured arrival
    /// share crosses [`REPLICATION_SHARE`], and picks the
    /// earliest-available candidate (ties broken by lowest device index —
    /// with a single candidate this is bit-identical to the legacy static
    /// rule).
    fn route_device(&mut self, digest: u64, scheduler: &Scheduler) -> usize {
        self.total_arrivals += 1;
        let arrivals = {
            let n = self.plan_arrivals.entry(digest).or_insert(0);
            *n += 1;
            *n
        };
        if !self.plan_affinity.contains_key(&digest) {
            let seed = self.affinity_seed(digest);
            self.plan_affinity.insert(digest, vec![seed]);
        }
        let healthy: Vec<usize> = (0..self.devices.len())
            .filter(|&d| !self.quarantined[d])
            .collect();
        let entry = &self.plan_affinity[&digest];
        let share = arrivals as f64 / self.total_arrivals as f64;
        if entry.len() == 1
            && healthy.len() > 1
            && self.total_arrivals >= REPLICATION_MIN_REQUESTS
            && share > REPLICATION_SHARE
        {
            // Hot plan: add the earliest-available healthy device that is
            // not already serving it (ties → lowest index).
            let primary = entry[0];
            let replica = healthy
                .iter()
                .copied()
                .filter(|&d| d != primary)
                .min_by(|&a, &b| {
                    scheduler
                        .device_available_us(a)
                        .total_cmp(&scheduler.device_available_us(b))
                        .then(a.cmp(&b))
                })
                .expect("healthy.len() > 1 guarantees a replica candidate");
            self.plan_affinity
                .get_mut(&digest)
                .expect("affinity entry exists: read above")
                .push(replica);
            self.overload.replicated += 1;
            self.log_event(ProtocolEvent::Replicate { primary, replica });
        }
        let entry = &self.plan_affinity[&digest];
        if entry.len() == 1 {
            return entry[0];
        }
        entry
            .iter()
            .copied()
            .min_by(|&a, &b| {
                scheduler
                    .device_available_us(a)
                    .total_cmp(&scheduler.device_available_us(b))
                    .then(a.cmp(&b))
            })
            .unwrap_or_else(|| self.affinity_seed(digest))
    }

    /// Re-places every plan affinity that still targets the quarantined
    /// `device_index` onto the surviving devices (same re-hash rule the
    /// lazy seeding uses, so routing stays deterministic), and drops the
    /// quarantined pool's unpinned cached formats — its memory is dead
    /// weight once no new work routes there.
    fn rebalance_affinities(&mut self, device_index: usize) {
        let healthy: Vec<usize> = (0..self.devices.len())
            .filter(|&d| !self.quarantined[d])
            .collect();
        if healthy.is_empty() {
            return;
        }
        let mut moved = 0usize;
        for (&digest, entry) in self.plan_affinity.iter_mut() {
            if !entry.contains(&device_index) {
                continue;
            }
            entry.retain(|&d| d != device_index);
            if entry.is_empty() {
                entry.push(healthy[(digest % healthy.len() as u64) as usize]);
            }
            moved += 1;
        }
        if moved > 0 {
            self.overload.rebalanced += moved as u64;
            self.log_event(ProtocolEvent::Rebalance {
                device: device_index,
                plans: moved,
            });
        }
        self.pools[device_index].clear();
    }

    /// Capped exponential backoff with deterministic jitter for retry
    /// `attempt` of request `index`.
    fn backoff_us(&self, index: usize, attempt: u32) -> f64 {
        let ft = &self.config.fault_tolerance;
        let capped = (ft.backoff_base_us * f64::powi(2.0, attempt.min(16) as i32))
            .min(ft.backoff_cap_us.max(ft.backoff_base_us));
        let h = mix64(ft.retry_seed ^ (index as u64) ^ ((attempt as u64) << 32));
        // Jitter in [0.5, 1.0): half the schedule is deterministic floor.
        capped * (0.5 + 0.5 * (h >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Whether this accepted attempt is sampled for redundant re-execution.
    fn redundancy_draw(&self, index: usize, attempt: u32) -> bool {
        let ft = &self.config.fault_tolerance;
        if ft.redundancy_rate <= 0.0 {
            return false;
        }
        let h = mix64(
            ft.retry_seed
                .rotate_left(17)
                .wrapping_add(index as u64)
                .wrapping_add((attempt as u64) << 40),
        );
        (h >> 11) as f64 / ((1u64 << 53) as f64) < ft.redundancy_rate
    }

    /// The per-attempt integrity barrier: scrubs the device (forcing full
    /// detection and repairing latent flips), tallies every event, charges
    /// stall dead time (watchdog-capped), and attributes corrupting events
    /// to the device and plan for the quarantine/invalidation policy.
    fn absorb_events(
        &mut self,
        device_index: usize,
        key: PlanKey,
        events: &[FaultEvent],
    ) -> AttemptDamage {
        let watchdog = self.config.fault_tolerance.watchdog_timeout_us;
        let mut damage = AttemptDamage::default();
        for event in events {
            self.fault_stats.record(event);
            let mut corrupting = event.is_corrupting();
            match event {
                FaultEvent::StreamStall { stall_us, .. } => {
                    if *stall_us >= watchdog {
                        // The watchdog cancels the hung stream: the request
                        // pays the timeout, not the full stall, and the
                        // attempt is discarded (its kernel never finished).
                        self.fault_stats.watchdog_cancellations += 1;
                        damage.dead_us += watchdog;
                        corrupting = true;
                    } else {
                        damage.dead_us += stall_us;
                    }
                }
                FaultEvent::AllocFailure { .. } => damage.injected_alloc = true,
                _ => {}
            }
            if corrupting {
                damage.corrupted = true;
                self.device_fault_counts[device_index] += 1;
                *self.plan_fault_counts.entry(key).or_insert(0) += 1;
            }
        }
        damage
    }

    /// Applies the quarantine and plan-invalidation thresholds after an
    /// attempt's events have been attributed.
    fn apply_fault_policy(&mut self, device_index: usize, key: PlanKey) {
        let ft = &self.config.fault_tolerance;
        let quarantine_at = ft.quarantine_threshold;
        let plan_at = ft.plan_fault_threshold;
        if !self.quarantined[device_index]
            && self.device_fault_counts[device_index] >= quarantine_at
            && self.quarantined.iter().filter(|&&q| !q).count() > 1
        {
            self.quarantined[device_index] = true;
            self.fault_stats.devices_quarantined += 1;
            self.log_event(ProtocolEvent::Quarantine {
                device: device_index,
            });
            // Re-place the quarantined device's plan affinities immediately
            // — queued work behind a stale entry would otherwise keep
            // targeting the dead device until its own retry path noticed.
            self.rebalance_affinities(device_index);
        }
        if self.plan_fault_counts.get(&key).copied().unwrap_or(0) >= plan_at {
            self.plan_fault_counts.insert(key, 0);
            if self.plans.invalidate(key) {
                self.fault_stats.plans_invalidated += 1;
                self.log_event(ProtocolEvent::PlanInvalidate {
                    device: device_index,
                });
            }
        }
    }

    /// Scrubs the request's device after an attempt and runs the fault
    /// policy. Returns the attempt's damage; no-op defaults when injection
    /// is off.
    fn integrity_barrier(&mut self, lc: &mut Lifecycle<'_>) -> AttemptDamage {
        if self.config.fault_injection.is_none() {
            return AttemptDamage::default();
        }
        let events = self.devices[lc.device].memory().scrub_faults();
        lc.faults_seen += events.len() as u32;
        let damage = self.absorb_events(lc.device, lc.key, &events);
        self.log_event(ProtocolEvent::Scrub {
            request: lc.index as u64,
            device: lc.device,
            faults: events.len(),
            corrupted: damage.corrupted,
        });
        self.apply_fault_policy(lc.device, lc.key);
        damage
    }

    /// Serves one tensor-op request through the lifecycle: route → plan →
    /// replay → admit/defer → reserve → shed check → attempt ladder →
    /// complete. A format that can never fit the pool streams out of core
    /// instead ([`Self::serve_chunked`]).
    fn serve_tensor_op(
        &mut self,
        index: usize,
        request: &Request,
        op: TensorOp,
        scheduler: &mut Scheduler,
    ) -> Served {
        let registered = self.registered(&request.tensor_id)?;
        let order = registered.tensor.order();
        if op.mode() >= order {
            return Err(format!(
                "mode {} out of range for order-{order} tensor `{}`",
                op.mode(),
                request.tensor_id
            ));
        }
        let key = PlanKey::new(registered.fingerprint, op, request.rank);
        let device = self.route_device(key.digest(), scheduler);
        // Plan builds are host-side preprocessing, off the device timeline
        // like the paper's host-side sort.
        let registered = &self.tensors[&request.tensor_id];
        let (plan, plan_source) =
            self.plans
                .get_or_build(key, &registered.tensor, &registered.touched, &self.scratch);
        let mut lc = Lifecycle::new(index, request, device, key, plan, plan_source);
        self.pools[device].retire(lc.ready);
        if let Some(cached) = self.results.get(&(key, request.factor_seed)) {
            let (bytes, tier) = (cached.output.bytes(), cached.tier);
            return self.replay(lc, scheduler, bytes, tier);
        }

        let factor_plan = self.factor_plan(&request.tensor_id, op, request.rank)?;
        let plan = Arc::clone(&lc.plan);
        let transient_bytes = transient_bytes_for(plan.fcoo(), &factor_plan);
        let Ok(admitted) = self.admit_format(&mut lc, key, &plan, transient_bytes) else {
            return self.serve_chunked(lc, op, scheduler, &factor_plan, transient_bytes);
        };
        self.reserve(&mut lc, key, transient_bytes);
        // The bus moves the compact factor bytes, and the kernel runs at
        // least the plan certificate's floor.
        let floor = [
            self.transfer_us(factor_plan.h2d_bytes()),
            plan.certificate.time_lo_us,
        ];
        if self.shed_if_late(&mut lc, scheduler, &floor) {
            return Ok(None);
        }

        let tiers: &[ExecTier] = if matches!(op, TensorOp::SpMttkrp { .. }) && order == 3 {
            &[ExecTier::Unified, ExecTier::TwoStep, ExecTier::Cpu]
        } else {
            &[ExecTier::Unified, ExecTier::Cpu]
        };
        let attempts = self.attempt_ladder(
            &mut lc,
            tiers,
            true,
            |engine, tier| {
                let run = engine.execute_tier(device, tier, &admitted.format, request, op, &plan);
                let launches = engine.drain_launches(device);
                run.map(|attempt| (attempt, launches))
            },
            Some(in_core_output),
        )?;
        let (((output, kernel_us, factor_bytes), launches), tier) =
            attempts.accepted.expect("the host tier always accepts");
        let h2d_bytes = factor_bytes
            + if admitted.uploaded {
                plan.format_bytes()
            } else {
                0
            };
        // The host tier computes off-device: nothing crosses the bus for it.
        let d2h_bytes = if tier == ExecTier::Cpu {
            0
        } else {
            output.bytes()
        };
        let d2h_us = self.transfer_us(d2h_bytes);
        let h2d_us = self.transfer_us(h2d_bytes);
        let exec_us = h2d_us + kernel_us + d2h_us;
        let placement = lc.place(scheduler, lc.recovery_us, exec_us);
        let profile = RequestProfile {
            h2d_us,
            kernel_us,
            d2h_us,
            h2d_bytes,
            launches,
            ..lc.profile(&placement, tier)
        };
        Ok(Some(self.complete(
            lc,
            profile,
            exec_us,
            d2h_bytes,
            Keep::Result(output),
        )))
    }

    /// Serves a request from a cached same-plan same-factor result: only
    /// the device→host copy of its `bytes` runs.
    fn replay(
        &mut self,
        mut lc: Lifecycle<'_>,
        scheduler: &mut Scheduler,
        bytes: usize,
        tier: ExecTier,
    ) -> Served {
        let d2h_us = self.transfer_us(bytes);
        // Even a replay's queueing plus copy can provably miss a deadline
        // under saturation.
        if self.shed_if_late(&mut lc, scheduler, &[d2h_us]) {
            return Ok(None);
        }
        let placement = lc.place(scheduler, 0.0, d2h_us);
        let profile = RequestProfile {
            d2h_us,
            batched: true,
            ..lc.profile(&placement, tier)
        };
        Ok(Some(self.complete(
            lc,
            profile,
            d2h_us,
            bytes,
            Keep::Cached,
        )))
    }

    /// Serves a tensor-op request whose working set genuinely exceeds the
    /// device pool: split the plan's format into partition-aligned chunks
    /// sized to a byte budget, stream them through the 3-stage out-of-core
    /// pipeline (H2D / kernel / D2H on real device streams), and accumulate
    /// the per-chunk outputs into a result **bit-exact** with the in-core
    /// path.
    ///
    /// Pool accounting is chunk-granular: the job's transient working set
    /// (factors + output buffer) holds one pending reservation for the whole
    /// pipeline, while each chunk's format bytes take their own reservation
    /// committed at that chunk's D2H end — a fault that kills one chunk
    /// retries (or falls to the host rung) without re-streaming or leaking
    /// any other chunk's bytes.
    fn serve_chunked(
        &mut self,
        mut lc: Lifecycle<'_>,
        op: TensorOp,
        scheduler: &mut Scheduler,
        factor_plan: &FactorPlan,
        transient_bytes: usize,
    ) -> Served {
        let (key, device, request) = (lc.key, lc.device, lc.request);
        let plan = Arc::clone(&lc.plan);
        let capacity = self.config.device_config.memory_capacity;
        let headroom = capacity.saturating_sub(transient_bytes);
        if headroom == 0 {
            let too_large = TooLarge {
                working_set: transient_bytes,
                message: format!(
                    "transient working set of {transient_bytes} B leaves no out-of-core headroom on a {capacity} B device"
                ),
            };
            return Err(self.admission_rejected(&lc, too_large));
        }
        let budget = self
            .config
            .ooc_chunk_budget
            .unwrap_or(headroom / 4)
            .clamp(1, headroom);
        let chunk_plan = self.plans.chunk_plan(key, plan.fcoo(), budget);
        // Chunks reuse the in-core defer/evict machinery: wait out pinned
        // reservations, evict other plans' cached formats, and reject only
        // if the transients plus the two chunk formats the pipeline holds
        // at once — the kernel's chunk and the next chunk's upload — cannot
        // fit. Chunks are rehydrated into the plan's format at upload time,
        // so the budget charges each format's schedule metadata (BF-COO
        // buckets) too.
        let gather_modes = plan.fcoo().product_indices.len();
        let max_chunk_bytes = chunk_plan
            .chunks
            .iter()
            .map(|c| c.format_bytes + plan.kind().metadata_bytes(c.nnz, gather_modes))
            .max()
            .unwrap_or(0);
        let need = transient_bytes + 2 * max_chunk_bytes + 64;
        if let Err(too_large) = self.defer_admission(&mut lc, |pool| pool.make_room(key, need)) {
            return Err(self.admission_rejected(&lc, too_large));
        }
        self.log_event(ProtocolEvent::AdmitOk {
            request: lc.index as u64,
            device,
            uploaded: true,
        });
        self.reserve(&mut lc, key, transient_bytes);
        // The pipeline still pays the factor upload and at least the
        // certificate's whole-format kernel floor (the summed chunk envelope
        // dominates it — see `analyzer::cost`'s out-of-core bounds), so the
        // in-core floor stays a sound lower bound here.
        let floor = [
            self.transfer_us(factor_plan.h2d_bytes()),
            plan.certificate.time_lo_us,
        ];
        if self.shed_if_late(&mut lc, scheduler, &floor) {
            return Ok(None);
        }

        // Upload the factors once; they persist across every chunk. The
        // upload retries like an attempt but is not announced as one.
        let upload = self.attempt_ladder(
            &mut lc,
            &[ExecTier::Unified],
            false,
            |engine, _| engine.upload_factors(device, request, op),
            None,
        )?;
        // Dead time not yet charged to a stream stall (the host rung charges
        // it through a delayed placement instead).
        let mut unstalled_dead = upload.dead_us;
        let Some((uploaded, _)) = upload.accepted else {
            return self.host_rung(lc, op, scheduler, unstalled_dead);
        };

        let cfg = LaunchConfig::with_block_size(plan.block_size);
        let cols = uploaded.output_cols();
        let mut acc = ooc::Accumulator::for_op(plan.fcoo(), cols);
        let streams = scheduler.streams(device).max(1);
        // Stage→stream mapping: with two streams H2D keeps its own stream
        // and kernel + D2H share one — the next chunk's upload still hides
        // behind the current kernel. (Sharing the *copy* stream instead
        // chains D2H before the next H2D and serializes the pipeline.)
        let resources: [usize; 3] = match streams {
            1 => [0, 0, 0],
            2 => [0, 1, 1],
            _ => [0, 1, 2],
        };
        let pipeline_ready = resources.iter().fold(lc.ready, |t, &s| {
            t.max(scheduler.stream_available_us(device, s))
        });
        let mut builder = ooc::PipelineBuilder::new(pipeline_ready, resources);
        let mut chunk_schedules: Vec<ooc::ChunkSchedule> = Vec::with_capacity(chunk_plan.len());
        let mut launches_all = Vec::new();
        let mut h2d_us_total = 0.0f64;
        let mut kernel_us_total = 0.0f64;
        let mut d2h_us_total = 0.0f64;
        let (mut h2d_bytes_total, mut d2h_bytes_total) = (0usize, 0usize);
        let refs = uploaded.refs();
        for desc in chunk_plan.chunks.iter() {
            let chunk = fcoo::extract(plan.fcoo(), desc);
            let chunk_bytes = chunk.storage().total_bytes()
                + plan.kind().metadata_bytes(chunk.nnz(), gather_modes)
                + 64;
            self.reserve(&mut lc, key, chunk_bytes);
            let seed = acc.seed_image(desc, &chunk);
            let run = self.attempt_ladder(
                &mut lc,
                &[ExecTier::Unified],
                true,
                |engine, _| {
                    let device_ref = &engine.devices[device];
                    let run =
                        ooc::run_chunk_format(device_ref, plan.kind(), &chunk, &refs, &cfg, &seed);
                    let launches = engine.drain_launches(device);
                    run.map(|(out, stats)| (out, stats, launches))
                        .map_err(|e| format!("chunk {} allocation failed: {e}", desc.index))
                },
                None,
            )?;
            let chunk_pending = lc.pending.pop().expect("the chunk reservation is open");
            let chunk_dead = run.dead_us;
            let Some(((out, stats, attempt_launches), _)) = run.accepted else {
                // This chunk cannot be streamed: release its own reservation
                // (completed chunks stay committed) and fall to the host.
                self.release(&lc, chunk_pending);
                unstalled_dead += chunk_dead;
                return self.host_rung(lc, op, scheduler, unstalled_dead);
            };
            acc.absorb(desc, &chunk, &out);
            launches_all.extend(attempt_launches);
            // Dead time from failed attempts and short stalls occupies the
            // kernel stage — and its real stream — before the chunk's work.
            if chunk_dead > 0.0 {
                scheduler.stall_stream(device, resources[1], builder.stage_free_us(1), chunk_dead);
                builder.stall_stage(1, chunk_dead);
            }
            // The first chunk's upload carries the factors.
            let factor_bytes = if desc.index == 0 { uploaded.bytes() } else { 0 };
            let h2d_us = self.transfer_us(chunk_bytes + factor_bytes);
            h2d_bytes_total += chunk_bytes + factor_bytes;
            let d2h_us = self.transfer_us(acc.d2h_bytes(desc));
            let span = builder.push(ooc::StageTimes {
                h2d_us,
                kernel_us: stats.time_us,
                d2h_us,
            });
            scheduler.occupy_stream(device, resources[0], span.h2d.0, h2d_us);
            scheduler.occupy_stream(device, resources[1], span.kernel.0, stats.time_us);
            scheduler.occupy_stream(device, resources[2], span.d2h.0, d2h_us);
            h2d_us_total += h2d_us;
            kernel_us_total += stats.time_us;
            d2h_us_total += d2h_us;
            d2h_bytes_total += acc.d2h_bytes(desc);
            // Chunk-granular commit: this chunk's format bytes release at
            // its D2H end whether or not a later chunk faults.
            self.commit(&lc, chunk_pending, span.d2h.1);
            chunk_schedules.push(span);
        }
        drop(refs);
        let timing = builder.finish();
        let placement = Placement {
            device,
            stream: resources[1],
            start_us: pipeline_ready,
            finish_us: timing.finish_us(),
        };
        let rows = acc.rows();
        let output = match op {
            TensorOp::SpTtm { mode } => {
                // Assemble the semi-sparse result exactly like the in-core
                // SpTTM wrapper: one fiber per segment, values from the
                // accumulated buffer.
                let shape = self.registered(&request.tensor_id)?.tensor.shape().to_vec();
                let mut result = SemiSparseTensor::new(shape, mode, cols);
                let values = acc.values();
                for seg in 0..rows {
                    let coord: Vec<u32> = plan
                        .fcoo()
                        .segment_coords
                        .iter()
                        .map(|column| column[seg])
                        .collect();
                    result.push_fiber(&coord, &values[seg * cols..(seg + 1) * cols]);
                }
                JobOutput::Semi(result)
            }
            _ => JobOutput::Dense(DenseMatrix::from_vec(rows, cols, acc.into_values())),
        };
        let profile = RequestProfile {
            h2d_us: h2d_us_total,
            kernel_us: kernel_us_total,
            d2h_us: d2h_us_total,
            h2d_bytes: h2d_bytes_total,
            launches: launches_all,
            chunks: chunk_schedules,
            chunk_streams: resources,
            ..lc.profile(&placement, ExecTier::Unified)
        };
        Ok(Some(self.complete(
            lc,
            profile,
            timing.makespan_us(),
            d2h_bytes_total,
            Keep::Result(output),
        )))
    }

    /// The out-of-core ladder's host rung: a chunk (or the factor upload)
    /// ran out of retries, so the whole request runs on the host. Completed
    /// chunks' reservations are already committed; the job reservation
    /// commits at the host result's finish, so the pool still drains to
    /// zero. `dead_us` is the dead time no stream stall has charged yet.
    fn host_rung(
        &mut self,
        mut lc: Lifecycle<'_>,
        op: TensorOp,
        scheduler: &mut Scheduler,
        dead_us: f64,
    ) -> Served {
        self.degrade(&lc, ExecTier::Unified, ExecTier::Cpu);
        let request = lc.request;
        let host = self.attempt_ladder(
            &mut lc,
            &[ExecTier::Cpu],
            false,
            |engine, _| engine.execute_cpu(request, op),
            None,
        )?;
        let ((output, kernel_us, _), tier) = host.accepted.expect("the host tier always accepts");
        let placement = lc.place(scheduler, dead_us, kernel_us);
        let profile = RequestProfile {
            kernel_us,
            ..lc.profile(&placement, tier)
        };
        Ok(Some(self.complete(
            lc,
            profile,
            kernel_us,
            0,
            Keep::Result(output),
        )))
    }

    /// Serves a CP-ALS request: one SpMTTKRP plan per mode through the plan
    /// cache, all formats admitted to the pool, the ALS loop run on the
    /// affinity device with a two-stream timeline (§V-E overlap).
    fn serve_cp(
        &mut self,
        index: usize,
        request: &Request,
        iterations: usize,
        scheduler: &mut Scheduler,
    ) -> Served {
        if iterations == 0 {
            return Err("cp requests need at least one iteration".to_string());
        }
        let rank = request.rank;
        let registered = self.registered(&request.tensor_id)?;
        let fingerprint = registered.fingerprint;
        let shape = registered.tensor.shape().to_vec();
        // The initial upload moves the compact factors.
        let factor_bytes: usize = registered
            .touched
            .iter()
            .map(|rows| rows.len() * rank * 4)
            .sum();
        let keys: Vec<PlanKey> = (0..shape.len())
            .map(|mode| PlanKey::new(fingerprint, TensorOp::SpMttkrp { mode }, rank))
            .collect();
        let device = self.route_device(keys[0].digest(), scheduler);
        let registered = &self.tensors[&request.tensor_id];
        let (plans, sources): (Vec<Arc<Plan>>, Vec<PlanSource>) = keys
            .iter()
            .map(|&key| {
                self.plans
                    .get_or_build(key, &registered.tensor, &registered.touched, &self.scratch)
            })
            .unzip();
        // Faults of any ALS sweep are attributed to the first mode's plan.
        let plan = Arc::clone(&plans[0]);
        let mut lc = Lifecycle::new(
            index,
            request,
            device,
            keys[0],
            plan,
            worst_source(&sources),
        );
        self.pools[device].retire(lc.ready);
        // An upper bound on the device bytes of the decomposition: all
        // per-mode factors at full size plus the largest MTTKRP output. The
        // transient budget rides on the first mode's admission; the other
        // modes only need their formats.
        let transient_bytes =
            2 * shape.iter().map(|&s| s * rank * 4).sum::<usize>() + 1024 * shape.len();
        let transient = |mode: usize| if mode == 0 { transient_bytes } else { 0 };
        let mut uploaded_bytes = 0usize;
        let mut formats = Vec::with_capacity(plans.len());
        for (mode, plan) in plans.iter().enumerate() {
            let admitted = self
                .admit_format(&mut lc, keys[mode], plan, transient(mode))
                .map_err(|too_large| self.admission_rejected(&lc, too_large))?;
            if admitted.uploaded {
                uploaded_bytes += plan.format_bytes();
            }
            formats.push(admitted.format);
        }
        for (mode, &key) in keys.iter().enumerate() {
            self.reserve(&mut lc, key, transient(mode));
        }
        // A decomposition uploads its initial factors and runs at least one
        // ALS sweep at each mode's certified kernel floor.
        let sweep_lo: f64 = plans.iter().map(|p| p.certificate.time_lo_us).sum();
        if self.shed_if_late(
            &mut lc,
            scheduler,
            &[self.transfer_us(factor_bytes), sweep_lo],
        ) {
            return Ok(None);
        }

        let block_sizes: Vec<usize> = plans.iter().map(|p| p.block_size).collect();
        let format_refs: Vec<&AnyFormatDevice> = formats.iter().map(Arc::as_ref).collect();
        let opts = CpOptions {
            rank,
            max_iters: iterations,
            tol: 1e-5,
            seed: request.factor_seed,
        };
        // A corrupted iteration taints the whole decomposition, so every
        // attempt reruns the full ALS loop. CP-ALS has no two-step rung.
        let attempts = self.attempt_ladder(
            &mut lc,
            &[ExecTier::Unified, ExecTier::Cpu],
            true,
            |engine, tier| {
                let registered = &engine.tensors[&request.tensor_id];
                let ran = match tier {
                    ExecTier::Cpu => Ok(run_host_cp(&registered.tensor, &opts)),
                    _ => run_planned_cp(
                        &engine.devices[device],
                        &format_refs,
                        &block_sizes,
                        &registered.touched,
                        &registered.tensor,
                        &opts,
                    ),
                };
                let launches = engine.drain_launches(device);
                ran.map(|run| (run, launches))
            },
            None,
        )?;
        let (((output, gpu_us), launches), tier) =
            attempts.accepted.expect("the host tier always accepts");
        // Transfers: formats uploaded this admission, the initial factors
        // up, the final factors down (the host tier moves no factors).
        let (h2d_bytes, d2h_bytes) = if tier == ExecTier::Cpu {
            (uploaded_bytes, 0)
        } else {
            (uploaded_bytes + factor_bytes, output.bytes())
        };
        let h2d_us = self.transfer_us(h2d_bytes);
        let d2h_us = self.transfer_us(d2h_bytes);
        let exec_us = h2d_us + gpu_us + d2h_us;
        let placement = lc.place(scheduler, lc.recovery_us, exec_us);
        let profile = RequestProfile {
            h2d_us,
            kernel_us: gpu_us,
            d2h_us,
            h2d_bytes,
            launches,
            ..lc.profile(&placement, tier)
        };
        let execution = CpExecution {
            tensor_id: request.tensor_id.clone(),
            rank,
            iterations,
            factor_seed: request.factor_seed,
            threadlens: plans.iter().map(|p| p.threadlen()).collect(),
            block_sizes,
            tier,
            output,
        };
        Ok(Some(self.complete(
            lc,
            profile,
            exec_us,
            d2h_bytes,
            Keep::Cp(execution),
        )))
    }

    /// Admission's defer loop: runs `admit` against the request's device
    /// pool until it succeeds. While in-flight reservations pin the room it
    /// needs, the request waits for the earliest one to retire (logged as
    /// `AdmitDefer`, moving its ready time) instead of failing. A working
    /// set that can never fit comes back as [`TooLarge`]; the caller
    /// decides between rejection and the out-of-core path.
    fn defer_admission<T>(
        &mut self,
        lc: &mut Lifecycle<'_>,
        mut admit: impl FnMut(&mut DevicePool) -> Result<T, AdmitError>,
    ) -> Result<T, TooLarge> {
        loop {
            match admit(&mut self.pools[lc.device]) {
                Ok(admitted) => return Ok(admitted),
                Err(AdmitError::Defer { until_us }) => {
                    self.log_event(ProtocolEvent::AdmitDefer {
                        request: lc.index as u64,
                        device: lc.device,
                        until_us,
                    });
                    lc.deferred = true;
                    lc.ready = until_us.max(lc.ready);
                    self.pools[lc.device].retire(lc.ready);
                }
                Err(error @ AdmitError::TooLarge { working_set, .. }) => {
                    return Err(TooLarge {
                        working_set,
                        message: error.to_string(),
                    })
                }
            }
        }
    }

    /// Admits `key`'s format (uploading it when absent) plus
    /// `transient_bytes` through the defer loop.
    fn admit_format(
        &mut self,
        lc: &mut Lifecycle<'_>,
        key: PlanKey,
        plan: &Plan,
        transient_bytes: usize,
    ) -> Result<Admitted, TooLarge> {
        loop {
            let admitted = self.defer_admission(lc, |pool| {
                pool.admit(key, &plan.format, plan.format_bytes(), transient_bytes)
            });
            match admitted {
                Ok(admitted) => {
                    self.log_event(ProtocolEvent::AdmitOk {
                        request: lc.index as u64,
                        device: lc.device,
                        uploaded: admitted.uploaded,
                    });
                    return Ok(admitted);
                }
                // `TooLarge` can be a lie under injection: the pool's format
                // upload hit an *injected* allocation failure. The latched
                // event tells the two apart — retry the injected case.
                Err(too_large) if !self.injected_alloc_failure(lc.device) => return Err(too_large),
                Err(_) => self.fault_stats.retries += 1,
            }
        }
    }

    /// Whether the device latched an injected allocation failure; drains
    /// and tallies its latched fault events. Always false without injection.
    fn injected_alloc_failure(&mut self, device: usize) -> bool {
        if self.config.fault_injection.is_none() {
            return false;
        }
        let events = self.devices[device].memory().scrub_faults();
        for event in &events {
            self.fault_stats.record(event);
        }
        events
            .iter()
            .any(|e| matches!(e, FaultEvent::AllocFailure { .. }))
    }

    /// Logs a genuine admission rejection and returns its reason.
    fn admission_rejected(&mut self, lc: &Lifecycle<'_>, too_large: TooLarge) -> String {
        self.log_event(ProtocolEvent::AdmitReject {
            request: lc.index as u64,
            device: lc.device,
            working_set: too_large.working_set,
        });
        too_large.message
    }

    /// Opens a pending reservation of `bytes` that pins `key`'s format
    /// while attempts run. It stays on the lifecycle until committed or
    /// released, so neither success nor failure leaks pool bytes.
    fn reserve(&mut self, lc: &mut Lifecycle<'_>, key: PlanKey, bytes: usize) {
        lc.pending
            .push(self.pools[lc.device].reserve_pending(key, bytes));
        self.log_event(ProtocolEvent::ReservePending {
            request: lc.index as u64,
            device: lc.device,
            bytes,
        });
    }

    /// Gives a pending reservation its finish time.
    fn commit(&mut self, lc: &Lifecycle<'_>, id: ReservationId, finish_us: f64) {
        self.pools[lc.device].commit(id, finish_us);
        self.log_event(ProtocolEvent::Commit {
            request: lc.index as u64,
            device: lc.device,
            finish_us,
        });
    }

    /// Cancels a pending reservation.
    fn release(&mut self, lc: &Lifecycle<'_>, id: ReservationId) {
        self.pools[lc.device].release(id);
        self.log_event(ProtocolEvent::Release {
            request: lc.index as u64,
            device: lc.device,
        });
    }

    /// Cancels every reservation the request still holds open (a shed or a
    /// genuine failure).
    fn release_pending(&mut self, lc: &mut Lifecycle<'_>) {
        for id in std::mem::take(&mut lc.pending) {
            self.release(lc, id);
        }
    }

    /// The shed check. The request's certified completion-time lower bound
    /// is its earliest queue slot on the device plus `floor_us`, the costs
    /// it cannot avoid. The real placement can only start later and run
    /// longer, so a bound past the deadline proves the deadline
    /// unreachable: the request releases what it holds and is shed.
    /// Returns true when it was shed.
    fn shed_if_late(
        &mut self,
        lc: &mut Lifecycle<'_>,
        scheduler: &Scheduler,
        floor_us: &[f64],
    ) -> bool {
        let Some(relative) = lc.request.deadline_us else {
            return false;
        };
        let queue_start = lc.ready.max(scheduler.device_available_us(lc.device));
        let estimate_us = floor_us.iter().fold(queue_start, |t, us| t + us);
        lc.lower_bound_us = Some(estimate_us);
        let deadline_us = lc.request.arrival_us + relative;
        if estimate_us > deadline_us {
            self.release_pending(lc);
            self.overload.shed += 1;
            self.sheds.push(ShedRecord {
                index: lc.index,
                device: lc.device,
                estimate_us,
                deadline_us,
            });
            self.log_event(ProtocolEvent::Shed {
                request: lc.index as u64,
                device: lc.device,
                estimate_us,
                deadline_us,
            });
            return true;
        }
        false
    }

    /// The attempt ladder: runs `attempt`, starting on `tiers[0]`, until
    /// one attempt is accepted. After each attempt the integrity barrier scrubs the
    /// device (the host tier never touches it). A clean attempt is accepted
    /// — unless `sampled` is set and the redundancy draw re-executes it and
    /// disagrees. A genuine failure on the first tier releases what the
    /// request holds and rejects it; on a later tier it falls to the last. Anything else retries
    /// after a deterministic backoff; more than `max_retries` discarded
    /// attempts degrade to the next tier. A ladder whose last tier runs out
    /// of retries ends with nothing accepted.
    ///
    /// `announce` logs `AttemptStart` before each attempt. `sampled`
    /// projects an accepted value to its output and kernel time for the
    /// redundancy check.
    fn attempt_ladder<T>(
        &mut self,
        lc: &mut Lifecycle<'_>,
        tiers: &[ExecTier],
        announce: bool,
        mut attempt: impl FnMut(&mut Self, ExecTier) -> Result<T, String>,
        sampled: Option<Sampled<T>>,
    ) -> Result<Attempts<T>, String> {
        let mut rung = 0;
        let mut tier_attempts = 0usize;
        let mut dead_us = 0.0f64;
        loop {
            let tier = tiers[rung];
            if announce {
                self.log_event(ProtocolEvent::AttemptStart {
                    request: lc.index as u64,
                    device: lc.device,
                    attempt: lc.attempt,
                    tier,
                });
            }
            let result = attempt(self, tier);
            let damage = if tier == ExecTier::Cpu {
                AttemptDamage::default()
            } else {
                self.integrity_barrier(lc)
            };
            lc.recovery_us += damage.dead_us;
            dead_us += damage.dead_us;
            match result {
                Ok(value) if !damage.corrupted => {
                    let accept = match sampled {
                        Some(project)
                            if tier != ExecTier::Cpu
                                && self.config.fault_injection.is_some()
                                && self.redundancy_draw(lc.index, lc.attempt) =>
                        {
                            self.redundant_check(lc, tier, &value, project, &mut attempt)
                        }
                        _ => true,
                    };
                    if accept {
                        return Ok(Attempts {
                            accepted: Some((value, tier)),
                            dead_us,
                        });
                    }
                }
                Err(reason) if !damage.injected_alloc && !damage.corrupted => {
                    if rung == 0 {
                        self.release_pending(lc);
                        return Err(reason);
                    }
                    // A degraded tier that cannot run at all (e.g. the
                    // two-step intermediate does not fit) falls to the last.
                    let last = tiers.len() - 1;
                    self.degrade(lc, tier, tiers[last]);
                    rung = last;
                    tier_attempts = 0;
                    continue;
                }
                _ => {}
            }
            lc.retries += 1;
            self.fault_stats.retries += 1;
            tier_attempts += 1;
            let backoff_us = self.backoff_us(lc.index, lc.attempt);
            lc.recovery_us += backoff_us;
            dead_us += backoff_us;
            self.log_event(ProtocolEvent::Backoff {
                request: lc.index as u64,
                backoff_us,
            });
            lc.attempt += 1;
            if tier_attempts > self.config.fault_tolerance.max_retries {
                rung += 1;
                let Some(&next) = tiers.get(rung) else {
                    return Ok(Attempts {
                        accepted: None,
                        dead_us,
                    });
                };
                self.degrade(lc, tier, next);
                tier_attempts = 0;
            }
        }
    }

    /// Sampled redundancy: re-executes an accepted attempt on the same tier
    /// and accepts only when the re-execution is clean and bit-identical.
    /// The re-execution rides on the same stream, so its kernel time is
    /// recovery cost.
    fn redundant_check<T>(
        &mut self,
        lc: &mut Lifecycle<'_>,
        tier: ExecTier,
        value: &T,
        project: Sampled<T>,
        attempt: &mut impl FnMut(&mut Self, ExecTier) -> Result<T, String>,
    ) -> bool {
        self.fault_stats.redundant_checks += 1;
        let redo = attempt(self, tier);
        let damage = self.integrity_barrier(lc);
        lc.recovery_us += damage.dead_us;
        let Ok(redo) = redo else {
            return false;
        };
        let (redo_output, redo_us) = project(&redo);
        lc.recovery_us += redo_us;
        if damage.corrupted {
            // Inconclusive: the check itself faulted.
            false
        } else if redo_output == project(value).0 {
            true
        } else {
            self.fault_stats.redundant_mismatches += 1;
            false
        }
    }

    /// Moves the request one rung down the degradation ladder.
    fn degrade(&mut self, lc: &Lifecycle<'_>, from: ExecTier, to: ExecTier) {
        if to == ExecTier::TwoStep {
            self.fault_stats.two_step_fallbacks += 1;
        } else {
            self.fault_stats.cpu_fallbacks += 1;
        }
        self.log_event(ProtocolEvent::Degrade {
            request: lc.index as u64,
            from,
            to,
        });
    }

    /// Takes the launch traces `device` recorded since the last drain (none
    /// unless profiling). Draining after every attempt keeps each attempt's
    /// traces attributable: an accepted attempt's go to its profile, the
    /// rest are dropped.
    fn drain_launches(&self, device: usize) -> Vec<LaunchTrace> {
        if self.config.profile {
            self.devices[device].drain_trace()
        } else {
            Vec::new()
        }
    }

    /// The terminal step of a served request: logs its placement, commits
    /// every reservation it still holds at the placement's finish, accepts
    /// the result, records its PCIe traffic, keeps the result as `keep`
    /// says, and turns the profile into the request's metrics (pushing the
    /// profile itself when profiling).
    fn complete(
        &mut self,
        lc: Lifecycle<'_>,
        profile: RequestProfile,
        exec_us: f64,
        d2h_bytes: usize,
        keep: Keep,
    ) -> RequestMetrics {
        self.log_event(ProtocolEvent::Place {
            request: lc.index as u64,
            device: profile.device,
            stream: profile.stream,
            start_us: profile.start_us,
            finish_us: profile.finish_us,
        });
        for &id in &lc.pending {
            self.commit(&lc, id, profile.finish_us);
        }
        self.log_event(ProtocolEvent::Accept {
            request: lc.index as u64,
            device: lc.device,
        });
        self.pcie.record(profile.h2d_bytes, d2h_bytes);
        let result_key = (lc.key, lc.request.factor_seed);
        let checksum = match keep {
            Keep::Cached => self.results[&result_key].output.checksum(),
            Keep::Result(output) => {
                let checksum = output.checksum();
                let tier = profile.tier;
                self.results
                    .insert(result_key, CachedResult { output, tier });
                while self.results.len() > RESULT_CACHE_CAP {
                    self.results.pop_first();
                }
                checksum
            }
            Keep::Cp(execution) => {
                let checksum = execution.output.checksum();
                self.cp_executions.push(execution);
                checksum
            }
        };
        let metrics = profile.metrics(exec_us, checksum);
        if self.config.profile {
            self.profiled.push(profile);
        }
        metrics
    }

    /// Uploads a tensor-op request's compact factors to `device`: the one
    /// factor-upload path of the unified and two-step tiers and of the
    /// out-of-core pipeline.
    fn upload_factors(
        &self,
        device: usize,
        request: &Request,
        op: TensorOp,
    ) -> Result<DeviceFactors, String> {
        let plan = self.factor_plan(&request.tensor_id, op, request.rank)?;
        let touched = &self.registered(&request.tensor_id)?.touched;
        upload::upload(&self.devices[device], &plan, touched, request.factor_seed)
            .map_err(|e| format!("transient allocation failed: {e}"))
    }

    /// Runs one attempt of a tensor-op request on the requested
    /// degradation-ladder tier.
    fn execute_tier(
        &self,
        device: usize,
        tier: ExecTier,
        format: &Arc<AnyFormatDevice>,
        request: &Request,
        op: TensorOp,
        plan: &Plan,
    ) -> Result<Attempt, String> {
        match tier {
            ExecTier::Unified => self.execute(device, format, request, op, plan.block_size),
            ExecTier::TwoStep => self.execute_two_step(device, request, op, plan),
            ExecTier::Cpu => self.execute_cpu(request, op),
        }
    }

    /// Runs the planned kernel functionally on `device`.
    fn execute(
        &self,
        device: usize,
        format: &Arc<AnyFormatDevice>,
        request: &Request,
        op: TensorOp,
        block_size: usize,
    ) -> Result<Attempt, String> {
        let factors = self.upload_factors(device, request, op)?;
        let refs = factors.refs();
        let cfg = LaunchConfig::with_block_size(block_size);
        let gpu = &self.devices[device];
        let (output, stats) = match op {
            // The compact format's dense mode spans the touched rows; the
            // result reports the registered tensor's extent.
            TensorOp::SpTtm { mode } => {
                let extent = self.registered(&request.tensor_id)?.tensor.shape()[mode];
                format.spttm(gpu, refs[0], &cfg).map(|(result, stats)| {
                    (JobOutput::Semi(result.with_dense_extent(extent)), stats)
                })
            }
            TensorOp::SpMttkrp { .. } => format
                .spmttkrp(gpu, &refs, &cfg)
                .map(|(result, stats)| (JobOutput::Dense(result), stats)),
            TensorOp::SpTtmc { .. } => format
                .spttmc_norder(gpu, &refs, &cfg)
                .map(|(result, stats)| (JobOutput::Dense(result), stats)),
        }
        .map_err(|e| format!("transient allocation failed: {e}"))?;
        Ok((output, stats.time_us, factors.bytes()))
    }

    /// The two-step fallback (Fig. 3a): SpTTM then a second unified launch,
    /// on the same (faulted) device — still covered by the integrity barrier.
    /// It runs over the plan's compact coordinates, so it reads the same
    /// compact factors. SpMTTKRP on 3-order tensors only.
    fn execute_two_step(
        &self,
        device: usize,
        request: &Request,
        op: TensorOp,
        plan: &Plan,
    ) -> Result<Attempt, String> {
        let TensorOp::SpMttkrp { mode } = op else {
            return Err("two-step fallback only covers SpMTTKRP".to_string());
        };
        let registered = self.registered(&request.tensor_id)?;
        if registered.tensor.order() != 3 {
            return Err("two-step fallback is 3-order only".to_string());
        }
        let compact = fcoo::compact_tensor(&registered.tensor, op, &registered.touched);
        let factors = self.upload_factors(device, request, op)?;
        let cfg = LaunchConfig::with_block_size(plan.block_size);
        let outcome = fcoo::spmttkrp_two_step_device(
            &self.devices[device],
            &compact,
            mode,
            &factors.refs(),
            plan.threadlen(),
            &cfg,
        )
        .map_err(|e| format!("two-step allocation failed: {e}"))?;
        Ok((
            JobOutput::Dense(outcome.result),
            outcome.stats.time_us,
            factors.bytes(),
        ))
    }

    /// The last rung: sequential host reference with analytic timing. Never
    /// touches a device, so it cannot fault — the ladder always terminates.
    fn execute_cpu(&self, request: &Request, op: TensorOp) -> Result<Attempt, String> {
        let tensor = &self.registered(&request.tensor_id)?.tensor;
        let output = host_reference_output(tensor, op, request.rank, request.factor_seed);
        let kernel_us = cpu_reference_us(tensor.nnz(), request.rank, tensor.order());
        Ok((output, kernel_us, 0))
    }

    /// Re-runs every cached unique result (single ops and CP-ALS jobs)
    /// through the one-shot API on a fresh device and compares bit-exactly.
    /// Returns `(checked, mismatches)`.
    fn verify_results(&self) -> (usize, usize) {
        let mut checked = 0;
        let mut failures = 0;
        // References re-run on an unconstrained fresh device: capacity gates
        // only allocation success, never result bits, and an out-of-core
        // request's format deliberately exceeds the serving capacity.
        let reference_config = DeviceConfig {
            memory_capacity: usize::MAX / 2,
            ..self.config.device_config.clone()
        };
        for ((key, factor_seed), cached) in &self.results {
            let Some((_, registered)) = self
                .tensors
                .iter()
                .find(|(_, r)| r.fingerprint == key.fingerprint)
            else {
                continue;
            };
            let Some(plan) = self.plans.peek(*key) else {
                continue;
            };
            let reference = one_shot_tier_reference(
                &reference_config,
                &registered.tensor,
                key.op(),
                key.rank as usize,
                *factor_seed,
                plan.threadlen(),
                plan.block_size,
                cached.tier,
            );
            checked += 1;
            match reference {
                Some(reference) if reference == cached.output => {}
                _ => failures += 1,
            }
        }
        for exec in &self.cp_executions {
            let Some(registered) = self.tensors.get(&exec.tensor_id) else {
                continue;
            };
            let reference = match exec.tier {
                ExecTier::Cpu => {
                    let opts = CpOptions {
                        rank: exec.rank,
                        max_iters: exec.iterations,
                        tol: 1e-5,
                        seed: exec.factor_seed,
                    };
                    Some(run_host_cp(&registered.tensor, &opts).0)
                }
                _ => one_shot_cp_reference(
                    &reference_config,
                    &registered.tensor,
                    exec.rank,
                    exec.iterations,
                    exec.factor_seed,
                    &exec.threadlens,
                    &exec.block_sizes,
                ),
            };
            checked += 1;
            match reference {
                Some(reference) if reference == exec.output => {}
                _ => failures += 1,
            }
        }
        (checked, failures)
    }
}

/// One attempt's result: the output, the planned kernel's simulated time
/// (µs), and the factor bytes it moved host→device.
type Attempt = (JobOutput, f64, usize);

/// Device bytes a request holds beyond its cached format (see
/// [`FactorPlan::transient_bytes`]).
fn transient_bytes_for(fcoo: &Fcoo, factors: &FactorPlan) -> usize {
    let mode = fcoo.op.mode();
    let shape = &fcoo.shape;
    let rank = factors.rank;
    let output_bytes = match fcoo.op {
        TensorOp::SpTtm { .. } => fcoo.segments() * rank * 4,
        TensorOp::SpMttkrp { .. } => shape[mode] * rank * 4,
        TensorOp::SpTtmc { .. } => shape[mode] * rank.pow((shape.len() - 1) as u32) * 4,
    };
    factors.transient_bytes(output_bytes)
}

/// CP-ALS MTTKRP engine over pre-admitted per-mode formats: one unified
/// kernel per mode per iteration, each at its own plan's block size, dense
/// updates on a second stream (§V-E).
struct PlannedCpEngine<'a> {
    device: &'a GpuDevice,
    formats: &'a [&'a AnyFormatDevice],
    block_sizes: &'a [usize],
    /// Per mode, the factor rows the formats' product coordinates index.
    rows: &'a [Vec<u32>],
    timeline: Timeline,
    last_mttkrp_finish: f64,
}

impl MttkrpEngine for PlannedCpEngine<'_> {
    fn mttkrp(
        &mut self,
        mode: usize,
        factors: &[DenseMatrix],
    ) -> Result<(DenseMatrix, f64), MttkrpError> {
        // Admission control sized the device for CP factors, so an
        // `OutOfMemory` here is almost always an *injected* allocation
        // failure. It ends the attempt: the serving engine's integrity
        // barrier tells injected failures (retry, then degrade to the host)
        // from genuine exhaustion (reject).
        let oom =
            |e: gpu_sim::OutOfMemory| MttkrpError(format!("transient allocation failed: {e}"));
        // Only the product-mode factors go up, each as the rows its
        // coordinates index; the ignored mode-`mode` slot aliases one.
        let uploaded = (0..factors.len())
            .filter(|&m| m != mode)
            .map(|m| {
                let compact = upload::gather_rows(&factors[m], &self.rows[m]);
                DeviceMatrix::upload(self.device.memory(), &compact)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(oom)?;
        let refs = upload::mttkrp_refs(&uploaded, mode, factors.len());
        let cfg = LaunchConfig::with_block_size(self.block_sizes[mode]);
        let (result, stats) = self.formats[mode]
            .spmttkrp(self.device, &refs, &cfg)
            .map_err(oom)?;
        self.last_mttkrp_finish = self.timeline.push(0, stats.time_us);
        Ok((result, stats.time_us))
    }

    fn dense_update_us(&mut self, rows: usize, rank: usize) -> Option<f64> {
        // Same CUBLAS-style model as `decomp::engines::UnifiedGpuEngine`:
        // Gram products overlap the MTTKRP on stream 1; the solve waits.
        let config = self.device.config();
        let peak_flops_per_us = config.total_cores() as f64 * 2.0 * config.clock_ghz * 1e3;
        let effective = 0.1 * peak_flops_per_us;
        let gram_flops = 2.0 * rows as f64 * (rank * rank) as f64;
        let gram_us = gram_flops / effective + 2.0 * config.launch_overhead_us;
        let solve_us = (rank * rank * rank) as f64 / effective + config.launch_overhead_us;
        self.timeline.push(1, gram_us);
        self.timeline
            .push_after(1, self.last_mttkrp_finish, solve_us);
        Some(gram_us + solve_us)
    }

    fn overlapped_elapsed_us(&self) -> Option<f64> {
        Some(self.timeline.elapsed_us())
    }

    fn name(&self) -> &'static str {
        "serve-planned"
    }
}

/// Runs CP-ALS over pre-resolved per-mode formats launched at their
/// per-mode block sizes; `rows[m]` lists the factor rows mode `m`'s format
/// coordinates index. Returns the factor model and the two-stream GPU
/// makespan in microseconds, or why an MTTKRP could not run.
fn run_planned_cp(
    device: &GpuDevice,
    formats: &[&AnyFormatDevice],
    block_sizes: &[usize],
    rows: &[Vec<u32>],
    tensor: &SparseTensorCoo,
    opts: &CpOptions,
) -> Result<(JobOutput, f64), String> {
    let mut engine = PlannedCpEngine {
        device,
        formats,
        block_sizes,
        rows,
        timeline: Timeline::new(2),
        last_mttkrp_finish: 0.0,
    };
    let run = cp_als(tensor, &mut engine, opts).map_err(|e| e.to_string())?;
    let gpu_us = run.overlapped_total_us.unwrap_or_else(|| run.total_us());
    Ok((
        JobOutput::Cp {
            factors: run.model.factors,
            lambda: run.model.lambda,
        },
        gpu_us,
    ))
}

/// Sequential host MTTKRP engine with the analytic timing model — the CP
/// ladder's last rung. It never touches a device (so it cannot fault) and
/// never reads the wall clock (so reports stay deterministic).
struct HostCpEngine<'a> {
    tensor: &'a SparseTensorCoo,
    elapsed_us: f64,
}

impl MttkrpEngine for HostCpEngine<'_> {
    fn mttkrp(
        &mut self,
        mode: usize,
        factors: &[DenseMatrix],
    ) -> Result<(DenseMatrix, f64), MttkrpError> {
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let result = tensor_core::ops::spmttkrp(self.tensor, mode, &refs);
        let us = cpu_reference_us(self.tensor.nnz(), result.cols(), self.tensor.order());
        self.elapsed_us += us;
        Ok((result, us))
    }

    fn dense_update_us(&mut self, rows: usize, rank: usize) -> Option<f64> {
        // Gram products + solve at the same analytic 2 GFLOP/s host rate.
        let flops = 2.0 * rows as f64 * (rank * rank) as f64 + (rank * rank * rank) as f64;
        let us = flops / 2000.0;
        self.elapsed_us += us;
        Some(us)
    }

    fn overlapped_elapsed_us(&self) -> Option<f64> {
        Some(self.elapsed_us)
    }

    fn name(&self) -> &'static str {
        "serve-host"
    }
}

/// Runs CP-ALS entirely on the host; returns the factor model and the
/// analytic host makespan in microseconds.
fn run_host_cp(tensor: &SparseTensorCoo, opts: &CpOptions) -> (JobOutput, f64) {
    let mut engine = HostCpEngine {
        tensor,
        elapsed_us: 0.0,
    };
    let run = cp_als(tensor, &mut engine, opts).expect("the host engine computes every MTTKRP");
    let host_us = run.overlapped_total_us.unwrap_or_else(|| run.total_us());
    (
        JobOutput::Cp {
            factors: run.model.factors,
            lambda: run.model.lambda,
        },
        host_us,
    )
}

/// Computes the request's result the same way the given ladder tier would,
/// on fresh fault-free resources: the verification reference for a served
/// result. Tiers are *not* bit-exact with each other, so each result must be
/// checked against a clean re-execution of its own tier.
#[allow(clippy::too_many_arguments)]
pub fn one_shot_tier_reference(
    device_config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    op: TensorOp,
    rank: usize,
    factor_seed: u64,
    threadlen: usize,
    block_size: usize,
    tier: ExecTier,
) -> Option<JobOutput> {
    match tier {
        ExecTier::Unified => one_shot_reference(
            device_config,
            tensor,
            op,
            rank,
            factor_seed,
            threadlen,
            block_size,
        ),
        ExecTier::TwoStep => {
            let TensorOp::SpMttkrp { mode } = op else {
                return None;
            };
            let device = GpuDevice::new(device_config.clone());
            let shape = tensor.shape();
            let hosts: Vec<DenseMatrix> = (0..shape.len())
                .map(|m| DenseMatrix::random(shape[m], rank, factor_seed_for_mode(factor_seed, m)))
                .collect();
            let refs: Vec<&DenseMatrix> = hosts.iter().collect();
            let cfg = LaunchConfig::with_block_size(block_size);
            let outcome =
                fcoo::spmttkrp_two_step_unified(&device, tensor, mode, &refs, threadlen, &cfg)
                    .ok()?;
            Some(JobOutput::Dense(outcome.result))
        }
        ExecTier::Cpu => Some(host_reference_output(tensor, op, rank, factor_seed)),
    }
}

/// Computes the request's result through the one-shot API: fresh device,
/// F-COO rebuilt from the raw tensor (independently of any cached plan),
/// identical launch shape and factor seeds. The serving path must match
/// this bit for bit.
pub fn one_shot_reference(
    device_config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    op: TensorOp,
    rank: usize,
    factor_seed: u64,
    threadlen: usize,
    block_size: usize,
) -> Option<JobOutput> {
    let device = GpuDevice::new(device_config.clone());
    let fcoo = Fcoo::from_coo(tensor, op, threadlen);
    let format = FcooDevice::upload(device.memory(), &fcoo).ok()?;
    let cfg = LaunchConfig::with_block_size(block_size);
    let shape = tensor.shape();
    match op {
        TensorOp::SpTtm { mode } => {
            let host =
                DenseMatrix::random(shape[mode], rank, factor_seed_for_mode(factor_seed, mode));
            let u = DeviceMatrix::upload(device.memory(), &host).ok()?;
            let (result, _) = fcoo::spttm(&device, &format, &u, &cfg).ok()?;
            Some(JobOutput::Semi(result))
        }
        TensorOp::SpMttkrp { mode: _ } => {
            let hosts: Vec<DenseMatrix> = (0..shape.len())
                .map(|m| DenseMatrix::random(shape[m], rank, factor_seed_for_mode(factor_seed, m)))
                .collect();
            let uploaded: Vec<DeviceMatrix> = hosts
                .iter()
                .map(|h| DeviceMatrix::upload(device.memory(), h))
                .collect::<Result<_, _>>()
                .ok()?;
            let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
            let (result, _) = fcoo::spmttkrp(&device, &format, &refs, &cfg).ok()?;
            Some(JobOutput::Dense(result))
        }
        TensorOp::SpTtmc { mode } => {
            let hosts: Vec<DenseMatrix> = product_modes(shape.len(), mode)
                .iter()
                .map(|&m| DenseMatrix::random(shape[m], rank, factor_seed_for_mode(factor_seed, m)))
                .collect();
            let uploaded: Vec<DeviceMatrix> = hosts
                .iter()
                .map(|h| DeviceMatrix::upload(device.memory(), h))
                .collect::<Result<_, _>>()
                .ok()?;
            let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
            let (result, _) = fcoo::spttmc_norder(&device, &format, &refs, &cfg).ok()?;
            Some(JobOutput::Dense(result))
        }
    }
}

/// CP-ALS through the one-shot API: fresh device, per-mode F-COO rebuilt
/// from the raw tensor (full coordinates, full factors) with the same
/// threadlens and block sizes the serving plans used, identical ALS
/// options. Must match the served job bit for bit.
pub fn one_shot_cp_reference(
    device_config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    rank: usize,
    iterations: usize,
    factor_seed: u64,
    threadlens: &[usize],
    block_sizes: &[usize],
) -> Option<JobOutput> {
    let device = GpuDevice::new(device_config.clone());
    let fcoos: Vec<Fcoo> = (0..tensor.order())
        .map(|mode| Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode }, threadlens[mode]))
        .collect();
    let formats: Vec<AnyFormatDevice> = fcoos
        .iter()
        .map(|f| FcooDevice::upload(device.memory(), f).map(AnyFormatDevice::Fcoo))
        .collect::<Result<_, _>>()
        .ok()?;
    let format_refs: Vec<&AnyFormatDevice> = formats.iter().collect();
    let opts = CpOptions {
        rank,
        max_iters: iterations,
        tol: 1e-5,
        seed: factor_seed,
    };
    let all_rows: Vec<Vec<u32>> = tensor
        .shape()
        .iter()
        .map(|&s| (0..s as u32).collect())
        .collect();
    let (output, _) =
        run_planned_cp(&device, &format_refs, block_sizes, &all_rows, tensor, &opts).ok()?;
    Some(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn small_workload_end_to_end() {
        let w = workload::synthetic(40, 11);
        let mut engine = ServeEngine::new(ServeConfig {
            verify: true,
            ..ServeConfig::default()
        });
        let report = engine.run(&w);
        assert_eq!(report.requests.len() + report.rejections.len(), 40);
        assert!(report.rejections.is_empty(), "{:?}", report.rejections);
        assert_eq!(report.plan_stats.builds, 8, "4 tensors × 2 ops");
        assert!(report.hit_rate() > 0.5);
        assert!(report.verified > 0);
        assert_eq!(report.verify_failures, 0);
        assert!(report.makespan_us > 0.0);
        let rendered = report.render();
        assert!(rendered.contains("hit rate"), "{rendered}");
        assert!(rendered.contains("p99"), "{rendered}");
    }

    #[test]
    fn batching_reuses_results() {
        let mut w = workload::synthetic(1, 3);
        let first = w.requests[0].clone();
        for i in 1..6 {
            let mut r = first.clone();
            r.arrival_us += i as f64 * 10.0;
            w.requests.push(r);
        }
        let mut engine = ServeEngine::new(ServeConfig::default());
        let report = engine.run(&w);
        assert_eq!(report.batched, 5, "identical requests batch");
        let full = &report.requests[0];
        let reused = &report.requests[1];
        assert!(reused.exec_us < full.exec_us);
        assert_eq!(full.checksum, reused.checksum);
    }

    #[test]
    fn second_run_hits_memory_plans() {
        let w = workload::synthetic(20, 5);
        let mut engine = ServeEngine::new(ServeConfig::default());
        let first = engine.run(&w);
        assert!(first.plan_stats.builds > 0);
        let second = engine.run(&w);
        // Same engine: no new builds, pure memory hits.
        assert_eq!(second.plan_stats.builds, first.plan_stats.builds);
        assert!(second.plan_stats.memory_hits > first.plan_stats.memory_hits);
    }

    #[test]
    fn unknown_tensors_are_rejected_not_panicked() {
        let w = Workload::parse("request ghost mttkrp 0 8 0.0 1\n").unwrap();
        let mut engine = ServeEngine::new(ServeConfig::default());
        let report = engine.run(&w);
        assert!(report.requests.is_empty());
        assert_eq!(report.rejections.len(), 1);
        assert!(report.rejections[0].reason.contains("unknown tensor"));
        let bad_mode =
            Workload::parse("tensor t nell2 600 3\nrequest t mttkrp 7 8 0.0 1\n").unwrap();
        let report = engine.run(&bad_mode);
        assert_eq!(report.rejections.len(), 1);
        assert!(report.rejections[0].reason.contains("out of range"));
    }

    #[test]
    fn profiling_observes_without_perturbing() {
        let w = workload::synthetic(30, 13);
        let plain = ServeEngine::new(ServeConfig::default()).run(&w);
        let profiled = ServeEngine::new(ServeConfig {
            profile: true,
            ..ServeConfig::default()
        })
        .run(&w);
        assert_eq!(plain.requests, profiled.requests);
        assert_eq!(plain.makespan_us.to_bits(), profiled.makespan_us.to_bits());
        assert!(plain.profile.is_none());
        let profile = profiled.profile.expect("profile requested");
        assert_eq!(profile.requests.len(), profiled.requests.len());
        assert!(profile.event_count() > 0);
        assert!(!profile.kernels.is_empty());
        for (m, p) in profiled.requests.iter().zip(&profile.requests) {
            assert_eq!(m.index, p.index);
            assert_eq!(m.start_us.to_bits(), p.start_us.to_bits());
            assert_eq!(m.finish_us.to_bits(), p.finish_us.to_bits());
            assert!((p.h2d_us + p.kernel_us + p.d2h_us - m.exec_us).abs() < 1e-9);
            assert_eq!(m.batched, p.batched);
            if !p.batched && p.tier != ExecTier::Cpu {
                assert!(
                    !p.launches.is_empty(),
                    "request {} traced no launches",
                    m.index
                );
            }
        }
        let report = profile.counter_report();
        assert!(report.contains("kernel counters"), "{report}");
        let trace = profile.chrome_trace();
        assert!(trace.validate().is_empty(), "{:?}", trace.validate());
        assert!(trace.to_json().contains("\"traceEvents\""));
    }

    #[test]
    fn cp_requests_run_and_verify() {
        let text = "tensor t nell2 900 3\n\
                    request t cp 3 4 0.0 21\n\
                    request t mttkrp 0 4 500.0 22\n";
        let w = Workload::parse(text).unwrap();
        let mut engine = ServeEngine::new(ServeConfig {
            verify: true,
            ..ServeConfig::default()
        });
        let report = engine.run(&w);
        assert!(report.rejections.is_empty(), "{:?}", report.rejections);
        assert_eq!(report.requests.len(), 2);
        // The CP job warmed the mode-0 SpMTTKRP plan for the later request.
        assert_eq!(report.requests[1].plan_source, PlanSource::Memory);
        assert!(report.verified >= 2);
        assert_eq!(report.verify_failures, 0);
        // CP requests are never batched; zero iterations are rejected.
        let zero = Workload::parse("tensor t nell2 900 3\nrequest t cp 0 4 0.0 1\n").unwrap();
        let report = engine.run(&zero);
        assert_eq!(report.rejections.len(), 1);
    }

    #[test]
    fn cp_launches_each_mode_at_its_own_plan_shape() {
        let text = "tensor t nell1 2000 5\nrequest t cp 2 8 0.0 9\n";
        let mut engine = ServeEngine::new(ServeConfig {
            profile: true,
            verify: true,
            ..ServeConfig::default()
        });
        let report = engine.run(&Workload::parse(text).unwrap());
        assert_eq!(report.verify_failures, 0);
        let fingerprint = engine.tensors["t"].fingerprint;
        let block_sizes: Vec<usize> = (0..3)
            .map(|mode| {
                let key = PlanKey::new(fingerprint, TensorOp::SpMttkrp { mode }, 8);
                engine.plans.peek(key).expect("planned").block_size
            })
            .collect();
        assert!(
            block_sizes.iter().any(|&b| b != block_sizes[0]),
            "the modes' plans must differ for this check to bite: {block_sizes:?}"
        );
        // Two sweeps of three MTTKRPs, and no other launch.
        let launches = &report.profile.expect("profiling enabled").requests[0].launches;
        let ran: Vec<usize> = launches.iter().map(|l| l.block_threads).collect();
        assert_eq!(ran, [block_sizes.clone(), block_sizes].concat());
    }
}
