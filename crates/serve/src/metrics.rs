//! The per-request record and latency summary statistics.

use crate::plan::PlanSource;
use crate::workload::ServeOp;
use fcoo::FormatKind;
use gpu_sim::{KernelCounters, LaunchTrace};

/// Which rung of the graceful-degradation ladder produced a result.
///
/// Under fault injection the engine retries a tier a bounded number of
/// times, then falls one rung: the unified one-shot kernel, the two-step
/// method (Fig. 3a: SpTTM + segmented reduction, SpMTTKRP-only), and
/// finally the sequential host reference. Each tier is verified bit-exactly
/// against a clean re-execution of the *same* tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExecTier {
    /// The paper's unified one-shot kernel on the simulated device.
    Unified,
    /// Two-step fallback (materialized intermediate, two launches).
    TwoStep,
    /// Sequential `tensor_core::ops` reference on the host (last resort).
    Cpu,
}

impl ExecTier {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            ExecTier::Unified => "unified",
            ExecTier::TwoStep => "two-step",
            ExecTier::Cpu => "cpu",
        }
    }
}

/// The one record of a served request: where and when it ran, how its
/// plan and admission went, its attempts and tier, where its execution
/// time went (transfer/kernel split), its result checksum and, in a
/// profiled run's [`ServeProfile`](crate::profile::ServeProfile), the
/// launch traces of its accepted attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProfile {
    /// Index of the request in the trace.
    pub index: usize,
    /// Registered tensor the request operated on.
    pub tensor_id: String,
    /// The operation, including its mode (or CP-ALS iteration budget).
    pub op: ServeOp,
    /// Factor rank.
    pub rank: usize,
    /// Device the job ran on.
    pub device: usize,
    /// Stream within the device.
    pub stream: usize,
    /// When the request arrived (simulated µs).
    pub arrival_us: f64,
    /// When the stream picked it up (simulated µs; recovery dead time and
    /// execution follow from here).
    pub start_us: f64,
    /// When its result was ready on the host (simulated µs).
    pub finish_us: f64,
    /// Pure execution span: transfers plus kernel (simulated µs). For
    /// out-of-core requests it is the pipeline makespan, which per-chunk
    /// retry stalls extend.
    pub exec_us: f64,
    /// Dead time spent on failed attempts, stalls, backoff waits and
    /// redundant re-executions (µs); zero for a fault-free request.
    pub recovery_us: f64,
    /// Host→device transfer time of the accepted attempt (µs).
    pub h2d_us: f64,
    /// Simulated kernel time of the accepted attempt (µs).
    pub kernel_us: f64,
    /// Device→host transfer time of the result (µs).
    pub d2h_us: f64,
    /// Bytes the accepted attempt copied host→device: the format (when
    /// admission uploaded it) or its chunks, plus the factors as the factor
    /// plan moved them.
    pub h2d_bytes: usize,
    /// Bytes copied device→host: the result (zero on the host tier).
    pub d2h_bytes: usize,
    /// Certified completion-time lower bound deadline-aware admission
    /// computed for the request (absolute simulated µs); `None` for
    /// requests without a deadline.
    pub lower_bound_us: Option<f64>,
    /// How the plan lookup was satisfied.
    pub plan_source: PlanSource,
    /// Threads per block of the tuned plan.
    pub block_size: usize,
    /// Non-zeros per thread of the tuned plan.
    pub threadlen: usize,
    /// Sparse format the tuned plan executed with.
    pub format: FormatKind,
    /// True when the request reused a batched same-plan result.
    pub batched: bool,
    /// True when admission control made the job wait for memory.
    pub deferred: bool,
    /// Order-independent checksum of the result bits (see
    /// [`crate::engine::JobOutput::checksum`]), for cheap cross-checks.
    pub checksum: u64,
    /// Attempts discarded before the accepted one (fault recovery).
    pub retries: u32,
    /// Degradation-ladder tier that produced the accepted result.
    pub tier: ExecTier,
    /// Injected fault events observed while serving this request.
    pub faults_seen: u32,
    /// Launch traces of the accepted attempt's planned kernel, in issue
    /// order. Only a profiled run's [`ServeProfile`] carries them (empty
    /// for batched and host-tier requests); the report's records never
    /// do.
    ///
    /// [`ServeProfile`]: crate::profile::ServeProfile
    pub launches: Vec<LaunchTrace>,
    /// Placed pipeline intervals of an out-of-core request's chunks, in
    /// stream order with absolute simulated timestamps (empty for in-core
    /// requests). For these, `h2d_us`/`kernel_us`/`d2h_us` are per-stage
    /// totals, not a sequential layout.
    pub chunks: Vec<ooc::ChunkSchedule>,
    /// Device streams the three out-of-core pipeline stages ran on
    /// (H2D, kernel, D2H); meaningful only when `chunks` is non-empty.
    pub chunk_streams: [usize; 3],
}

impl RequestProfile {
    /// Time spent waiting before execution started.
    pub fn queue_us(&self) -> f64 {
        self.start_us - self.arrival_us
    }

    /// End-to-end latency from arrival to host-visible result.
    pub fn total_us(&self) -> f64 {
        self.finish_us - self.arrival_us
    }

    /// Counters aggregated over the accepted attempt's launches.
    pub fn counters(&self) -> KernelCounters {
        let mut total = KernelCounters::default();
        for launch in &self.launches {
            total.merge(&launch.counters());
        }
        total
    }
}

/// Latency distribution over a set of requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Median end-to-end latency (µs).
    pub p50_us: f64,
    /// 90th percentile (µs).
    pub p90_us: f64,
    /// 99th percentile (µs).
    pub p99_us: f64,
    /// 99.9th percentile (µs).
    pub p999_us: f64,
    /// Worst request (µs).
    pub max_us: f64,
    /// Mean (µs).
    pub mean_us: f64,
}

/// Nearest-rank percentile of `sorted` (ascending); `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl LatencySummary {
    /// Summarizes the end-to-end latency of `requests`.
    pub fn from_requests(requests: &[RequestProfile]) -> LatencySummary {
        let mut totals: Vec<f64> = requests.iter().map(RequestProfile::total_us).collect();
        totals.sort_by(f64::total_cmp);
        if totals.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            p50_us: percentile(&totals, 0.50),
            p90_us: percentile(&totals, 0.90),
            p99_us: percentile(&totals, 0.99),
            p999_us: percentile(&totals, 0.999),
            max_us: totals[totals.len() - 1],
            mean_us: totals.iter().sum::<f64>() / totals.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&data, 0.50), 50.0);
        assert_eq!(percentile(&data, 0.99), 99.0);
        assert_eq!(percentile(&data, 1.0), 100.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn summary_from_requests() {
        let make = |arrival: f64, finish: f64| RequestProfile {
            index: 0,
            tensor_id: "t".into(),
            op: ServeOp::Tensor(fcoo::TensorOp::SpTtm { mode: 0 }),
            rank: 8,
            device: 0,
            stream: 0,
            arrival_us: arrival,
            start_us: arrival,
            finish_us: finish,
            exec_us: finish - arrival,
            recovery_us: 0.0,
            h2d_us: 0.0,
            kernel_us: finish - arrival,
            d2h_us: 0.0,
            h2d_bytes: 0,
            d2h_bytes: 0,
            lower_bound_us: None,
            plan_source: PlanSource::Memory,
            block_size: 128,
            threadlen: 8,
            format: FormatKind::Fcoo,
            batched: false,
            deferred: false,
            checksum: 0,
            retries: 0,
            tier: ExecTier::Unified,
            faults_seen: 0,
            launches: Vec::new(),
            chunks: Vec::new(),
            chunk_streams: [0, 0, 0],
        };
        let reqs: Vec<_> = (0..10).map(|i| make(0.0, (i + 1) as f64 * 10.0)).collect();
        let s = LatencySummary::from_requests(&reqs);
        assert_eq!(s.p50_us, 50.0);
        assert_eq!(s.p999_us, 100.0);
        assert_eq!(s.max_us, 100.0);
        assert!((s.mean_us - 55.0).abs() < 1e-12);
        assert_eq!(reqs[0].queue_us(), 0.0);
        assert_eq!(reqs[0].total_us(), 10.0);
    }
}
