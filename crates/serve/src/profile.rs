//! Serving-side profiling: per-request lifecycle spans joined with the
//! per-launch traces the simulator captured, exported as a Chrome-trace JSON
//! document and a per-kernel counter report.
//!
//! With [`ServeConfig::profile`](crate::engine::ServeConfig) set, every
//! serving device runs in tracing mode
//! ([`GpuDevice::start_tracing`](gpu_sim::GpuDevice::start_tracing)) and the
//! engine drains each accepted attempt's [`LaunchTrace`]s into a
//! [`RequestProfile`]. Timestamps are simulated microseconds throughout —
//! the scheduler's placement times for the request lifecycle, the wave fold
//! of the timing model inside a kernel — so two runs of the same workload
//! produce byte-identical traces.
//!
//! The counter report groups requests by `(tensor, op, tier, config)` and
//! derives the quantities the paper's evaluation argues about (achieved vs.
//! peak bandwidth, coalescing efficiency, read-only cache hit rate,
//! atomic-conflict serialization, effective-warp occupancy), with the
//! analyzer's statically-decided verdicts shown side-by-side where the
//! kernel has a symbolic model.

use crate::metrics::{ExecTier, RequestMetrics};
use crate::plan::PlanSource;
use crate::workload::ServeOp;
use analyzer::model::LaunchGeometry;
use analyzer::{analyze_tensor, KernelKind, Property, Verdict};
use fcoo::{Fcoo, FormatKind};
use gpu_sim::{ChromeTrace, DeviceConfig, KernelCounters, LaunchTrace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tensor_core::SparseTensorCoo;

/// Everything profiled for one served request: the lifecycle timestamps of
/// its [`RequestMetrics`](crate::metrics::RequestMetrics), the transfer /
/// kernel split of its execution span, and the launch traces of the
/// accepted attempt.
#[derive(Debug, Clone)]
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
    /// Dead time spent on failed attempts, stalls and backoff (µs).
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
    /// Attempts discarded before the accepted one.
    pub retries: u32,
    /// Degradation-ladder tier that produced the accepted result.
    pub tier: ExecTier,
    /// Injected fault events observed while serving this request.
    pub faults_seen: u32,
    /// Launch traces of the accepted attempt's planned kernel, in issue
    /// order (empty for batched and host-tier requests).
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
    /// The request's metrics: this record's lifecycle fields plus its
    /// execution span and result checksum. The chunk count is the number
    /// of streamed chunks.
    pub(crate) fn metrics(&self, exec_us: f64, checksum: u64) -> RequestMetrics {
        RequestMetrics {
            index: self.index,
            tensor_id: self.tensor_id.clone(),
            op: self.op,
            rank: self.rank,
            device: self.device,
            stream: self.stream,
            arrival_us: self.arrival_us,
            start_us: self.start_us,
            finish_us: self.finish_us,
            exec_us,
            plan_source: self.plan_source,
            batched: self.batched,
            deferred: self.deferred,
            checksum,
            retries: self.retries,
            tier: self.tier,
            faults_seen: self.faults_seen,
            recovery_us: self.recovery_us,
            chunks: self.chunks.len(),
        }
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

/// The analyzer's statically-decided verdicts for one kernel row, shown
/// side-by-side with the dynamic counters.
#[derive(Debug, Clone)]
pub struct KernelStatics {
    /// Coalescing verdict (`proved` / `refuted` / `unknown`).
    pub coalescing: &'static str,
    /// Effective-warps verdict (`proved` / `refuted` / `unknown`).
    pub effective_warps: &'static str,
    /// Proved upper bound on functional atomic events across the launch.
    pub atomic_bound: u64,
}

/// Dynamic counters for one `(tensor, op, tier, config)` group of requests,
/// merged over every non-batched request in the group.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Registered tensor id.
    pub tensor_id: String,
    /// Operation label (e.g. `SpMTTKRP(mode-1)`).
    pub op: String,
    /// Ladder tier the group executed on.
    pub tier: ExecTier,
    /// Factor rank.
    pub rank: usize,
    /// Threads per block.
    pub block_size: usize,
    /// Non-zeros per thread.
    pub threadlen: usize,
    /// Sparse format the group executed with.
    pub format: FormatKind,
    /// Requests merged into the row.
    pub requests: usize,
    /// Aggregated dynamic counters.
    pub counters: KernelCounters,
    /// Analyzer verdicts, when the kernel has a symbolic model (single
    /// tensor operations on device tiers; CP-ALS and host-tier rows have
    /// none).
    pub statics: Option<KernelStatics>,
}

/// A profiled serving run: per-request profiles plus the grouped per-kernel
/// counter rows.
#[derive(Debug)]
pub struct ServeProfile {
    /// Hardware model the run simulated (for peak-bandwidth context).
    pub device_config: DeviceConfig,
    /// One profile per served request, in trace order.
    pub requests: Vec<RequestProfile>,
    /// Counter rows grouped by `(tensor, op, tier, config)`.
    pub kernels: Vec<KernelProfile>,
}

/// The kernel the analyzer models for a `(op, tier)` pair, if any.
fn kernel_kind(op: &ServeOp, tier: ExecTier) -> Option<(KernelKind, usize)> {
    let ServeOp::Tensor(op) = op else { return None };
    let kind = match (tier, op) {
        (ExecTier::Unified, fcoo::TensorOp::SpTtm { .. }) => KernelKind::SpTtm,
        (ExecTier::Unified, fcoo::TensorOp::SpMttkrp { .. }) => KernelKind::SpMttkrp,
        (ExecTier::Unified, fcoo::TensorOp::SpTtmc { .. }) => KernelKind::SpTtmc,
        (ExecTier::TwoStep, fcoo::TensorOp::SpMttkrp { .. }) => KernelKind::TwoStep,
        _ => return None,
    };
    Some((kind, op.mode()))
}

fn verdict_label(v: Verdict) -> &'static str {
    match v {
        Verdict::Proved => "proved",
        Verdict::Refuted => "refuted",
        Verdict::Unknown => "unknown",
    }
}

/// Decides the analyzer verdicts for one group, or `None` when the kernel
/// has no symbolic model (CP-ALS, host tier) or the tensor is gone.
fn statics_for(
    device: &DeviceConfig,
    tensor: Option<&SparseTensorCoo>,
    op: &ServeOp,
    tier: ExecTier,
    rank: usize,
    block_size: usize,
    threadlen: usize,
) -> Option<KernelStatics> {
    let (kind, mode) = kernel_kind(op, tier)?;
    let tensor = tensor?;
    let analysis = analyze_tensor(
        device,
        tensor,
        kind,
        mode,
        rank,
        &[block_size],
        &[threadlen],
    )?;
    let config = analysis.configs.first()?;
    let verdict = |p: Property| {
        config
            .properties
            .iter()
            .find(|v| v.property == p)
            .map_or("unknown", |v| verdict_label(v.verdict))
    };
    // Recompute the proved atomic bound exactly as `atomic_verdict` does:
    // 2 atomics per partition per column, plus the step-2 frontier for the
    // two-step baseline.
    let fcoo = Fcoo::from_coo(tensor, kind.op(mode, tensor.order()), threadlen);
    let columns = if kind == KernelKind::SpTtmc {
        rank * rank
    } else {
        rank
    };
    let geometry = LaunchGeometry::new(block_size, threadlen, fcoo.nnz(), columns, 0);
    let mut atomic_bound = geometry.atomic_bound() as u64;
    if kind == KernelKind::TwoStep {
        let partitions2 = fcoo.segments().div_ceil(threadlen.max(1));
        atomic_bound += (2 * partitions2 * rank) as u64;
    }
    Some(KernelStatics {
        coalescing: verdict(Property::Coalescing),
        effective_warps: verdict(Property::EffectiveWarps),
        atomic_bound,
    })
}

impl ServeProfile {
    /// Assembles a profile from the per-request captures, grouping counter
    /// rows and attaching analyzer verdicts via `tensor` lookup.
    pub(crate) fn assemble<'a>(
        device_config: DeviceConfig,
        requests: Vec<RequestProfile>,
        tensor: impl Fn(&str) -> Option<&'a SparseTensorCoo>,
    ) -> ServeProfile {
        // Group key: (tensor, op label, tier order, rank, block, threadlen,
        // format tag).
        type GroupKey = (String, String, u8, usize, usize, usize, u8);
        let mut groups: BTreeMap<GroupKey, Vec<&RequestProfile>> = BTreeMap::new();
        for request in requests.iter().filter(|r| !r.batched) {
            let tier_rank = match request.tier {
                ExecTier::Unified => 0,
                ExecTier::TwoStep => 1,
                ExecTier::Cpu => 2,
            };
            groups
                .entry((
                    request.tensor_id.clone(),
                    request.op.label(),
                    tier_rank,
                    request.rank,
                    request.block_size,
                    request.threadlen,
                    request.format.tag(),
                ))
                .or_default()
                .push(request);
        }
        let kernels = groups
            .into_iter()
            .map(
                |((tensor_id, op, _, rank, block_size, threadlen, _), members)| {
                    let mut counters = KernelCounters::default();
                    for member in &members {
                        counters.merge(&member.counters());
                    }
                    let tier = members[0].tier;
                    let format = members[0].format;
                    let statics = statics_for(
                        &device_config,
                        tensor(&tensor_id),
                        &members[0].op,
                        tier,
                        rank,
                        block_size,
                        threadlen,
                    );
                    KernelProfile {
                        tensor_id,
                        op,
                        tier,
                        rank,
                        block_size,
                        threadlen,
                        format,
                        requests: members.len(),
                        counters,
                        statics,
                    }
                },
            )
            .collect();
        ServeProfile {
            device_config,
            requests,
            kernels,
        }
    }

    /// Total memory events captured across all requests.
    pub fn event_count(&self) -> usize {
        self.requests
            .iter()
            .flat_map(|r| r.launches.iter())
            .map(LaunchTrace::event_count)
            .sum()
    }

    /// Exports the run as a Chrome-trace/Perfetto document: one `requests`
    /// track group (queue → recovery → exec spans with the h2d/kernel/d2h
    /// split per request), one track group per device with per-stream
    /// occupancy spans, and — whenever the accepted attempt's launch times
    /// exactly tile the kernel window — nested launch and wave spans from
    /// the simulator trace. Memory events are aggregated into per-launch
    /// args (and the counter report) rather than exported individually.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        trace.name_process(0, "requests");
        let devices: std::collections::BTreeSet<usize> =
            self.requests.iter().map(|r| r.device).collect();
        for &device in &devices {
            trace.name_process(1 + device as u64, format!("device {device}"));
        }
        for request in &self.requests {
            let tid = request.index as u64;
            let name = format!(
                "r{} {}:{}",
                request.index,
                request.tensor_id,
                request.op.label()
            );
            let mut args = vec![
                ("tier".to_string(), request.tier.label().to_string()),
                ("plan".to_string(), format!("{:?}", request.plan_source)),
                (
                    "config".to_string(),
                    format!(
                        "B{} T{} {}",
                        request.block_size,
                        request.threadlen,
                        request.format.label()
                    ),
                ),
            ];
            if request.retries > 0 {
                args.push(("retries".to_string(), request.retries.to_string()));
            }
            if request.faults_seen > 0 {
                args.push(("faults".to_string(), request.faults_seen.to_string()));
            }
            trace.begin(&name, "request", request.arrival_us, 0, tid, args);
            let queue_us = request.start_us - request.arrival_us;
            if queue_us > 0.0 {
                trace.complete(
                    "queue",
                    "queue",
                    request.arrival_us,
                    queue_us,
                    0,
                    tid,
                    vec![],
                );
            }
            let pid = 1 + request.device as u64;
            if request.chunks.is_empty() {
                let mut cursor = request.start_us;
                if request.recovery_us > 0.0 {
                    trace.complete(
                        "recovery",
                        "recovery",
                        cursor,
                        request.recovery_us,
                        0,
                        tid,
                        vec![("retries".to_string(), request.retries.to_string())],
                    );
                    cursor += request.recovery_us;
                }
                let exec_us = request.h2d_us + request.kernel_us + request.d2h_us;
                let exec_label = if request.batched {
                    "exec (batched reuse)"
                } else {
                    "exec"
                };
                trace.complete(
                    exec_label,
                    "exec",
                    cursor,
                    exec_us,
                    0,
                    tid,
                    vec![("tier".to_string(), request.tier.label().to_string())],
                );
                if request.h2d_us > 0.0 {
                    trace.complete("h2d", "transfer", cursor, request.h2d_us, 0, tid, vec![]);
                }
                if request.kernel_us > 0.0 {
                    trace.complete(
                        "kernel",
                        "kernel",
                        cursor + request.h2d_us,
                        request.kernel_us,
                        0,
                        tid,
                        vec![],
                    );
                }
                if request.d2h_us > 0.0 {
                    trace.complete(
                        "d2h",
                        "transfer",
                        cursor + request.h2d_us + request.kernel_us,
                        request.d2h_us,
                        0,
                        tid,
                        vec![],
                    );
                }
                trace.end("request", request.finish_us, 0, tid);

                // Stream occupancy on the device track (includes recovery
                // dead time, exactly like the scheduler's timeline).
                let stream = request.stream as u64;
                trace.complete(
                    &name,
                    "stream",
                    request.start_us,
                    request.finish_us - request.start_us,
                    pid,
                    stream,
                    vec![("tier".to_string(), request.tier.label().to_string())],
                );
                self.launch_spans(&mut trace, request, pid, stream);
            } else {
                // Out-of-core: each chunk's stages already carry absolute
                // placed intervals from the pipeline schedule, so their
                // overlap (H2D of chunk k+1 under the kernel of chunk k) is
                // visible directly — both on the request track and on the
                // per-stream device tracks.
                let exec_start = request.chunks[0].h2d.0;
                trace.complete(
                    format!("exec (ooc, {} chunks)", request.chunks.len()),
                    "exec",
                    exec_start,
                    request.finish_us - exec_start,
                    0,
                    tid,
                    vec![("tier".to_string(), request.tier.label().to_string())],
                );
                for chunk in &request.chunks {
                    let stages = [
                        ("h2d", "transfer", chunk.h2d, request.chunk_streams[0]),
                        ("kernel", "kernel", chunk.kernel, request.chunk_streams[1]),
                        ("d2h", "transfer", chunk.d2h, request.chunk_streams[2]),
                    ];
                    for (stage, cat, (start, end), stream) in stages {
                        if end <= start {
                            continue;
                        }
                        let label = format!("chunk{} {stage}", chunk.index);
                        trace.complete(&label, cat, start, end - start, 0, tid, vec![]);
                        trace.complete(
                            format!("r{} {label}", request.index),
                            "stream",
                            start,
                            end - start,
                            pid,
                            stream as u64,
                            vec![],
                        );
                    }
                }
                trace.end("request", request.finish_us, 0, tid);
            }
        }
        trace
    }

    /// Nested launch/wave spans for one request, laid out inside its kernel
    /// window. Only emitted when the accepted attempt's launch times tile
    /// the window exactly (single-op requests; a CP-ALS job overlaps two
    /// streams internally, so its launches are reported in counters only).
    fn launch_spans(&self, trace: &mut ChromeTrace, request: &RequestProfile, pid: u64, tid: u64) {
        if request.launches.is_empty() {
            return;
        }
        let launch_sum: f64 = request.launches.iter().map(|l| l.time_us).sum();
        if (launch_sum - request.kernel_us).abs() > 1e-6 {
            return;
        }
        let mut cursor = request.start_us + request.recovery_us + request.h2d_us;
        for (i, launch) in request.launches.iter().enumerate() {
            let counters = launch.counters();
            let name = if launch.dropped {
                format!("launch {i} (dropped)")
            } else {
                format!("launch {i} ({}x{})", launch.grid.0, launch.grid.1)
            };
            trace.complete(
                &name,
                "launch",
                cursor,
                launch.time_us,
                pid,
                tid,
                vec![
                    ("blocks".to_string(), counters.blocks.to_string()),
                    ("waves".to_string(), counters.waves.to_string()),
                    (
                        "transactions".to_string(),
                        counters.transactions.to_string(),
                    ),
                    ("dram_bytes".to_string(), counters.dram_bytes.to_string()),
                    (
                        "coalescing".to_string(),
                        format!("{:.3}", counters.coalescing_efficiency()),
                    ),
                    (
                        "occupancy".to_string(),
                        format!("{:.3}", counters.occupancy()),
                    ),
                ],
            );
            if launch.dropped {
                trace.instant("injected launch failure", "fault", cursor, pid, tid, vec![]);
            }
            for (w, wave) in launch.waves.iter().enumerate() {
                trace.complete(
                    format!("wave {w} ({} blocks)", wave.blocks),
                    "wave",
                    cursor + wave.start_us,
                    wave.dur_us,
                    pid,
                    tid,
                    vec![
                        ("compute_us".to_string(), format!("{:.3}", wave.compute_us)),
                        ("memory_us".to_string(), format!("{:.3}", wave.memory_us)),
                    ],
                );
            }
            cursor += launch.time_us;
        }
    }

    /// The per-kernel counter report: one row per `(tensor, op, tier,
    /// config)` group with the dynamic ratios, the analyzer verdicts beside
    /// them, and the device's peak bandwidth for context.
    pub fn counter_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel counters ({} requests profiled, peak {:.0} GB/s)",
            self.requests.len(),
            self.device_config.mem_bandwidth_gbs
        );
        let _ = writeln!(
            out,
            "  {:<10} {:<18} {:<8} {:>15} {:>5} {:>10} {:>7} {:>6} {:>6} {:>6} {:>8} {:>6}  static coal/warps/atomic",
            "tensor", "op", "tier", "config", "reqs", "time(µs)", "GB/s", "bw%", "coal%",
            "cache%", "atom-ser", "occup"
        );
        for row in &self.kernels {
            let c = &row.counters;
            let statics = match &row.statics {
                Some(s) => format!(
                    "{}/{}/{}{}",
                    s.coalescing,
                    s.effective_warps,
                    if c.atomics <= s.atomic_bound {
                        "≤"
                    } else {
                        ">"
                    },
                    s.atomic_bound
                ),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<10} {:<18} {:<8} {:>15} {:>5} {:>10.3} {:>7.1} {:>6.1} {:>6.1} {:>6.1} {:>8.2} {:>6.3}  {}",
                row.tensor_id,
                row.op,
                row.tier.label(),
                format!("B{} T{} {}", row.block_size, row.threadlen, row.format.label()),
                row.requests,
                c.time_us,
                c.achieved_gbs(),
                100.0 * c.bandwidth_fraction(&self.device_config),
                100.0 * c.coalescing_efficiency(),
                100.0 * c.cache_hit_rate(),
                c.atomic_serialization(),
                c.occupancy(),
                statics
            );
        }
        out
    }
}
