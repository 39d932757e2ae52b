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
//! plan's certified kernel-time envelope beside each in-core unified row.

use crate::metrics::{ExecTier, RequestProfile};
use crate::plan::{Plan, PlanCertificate};
use crate::workload::ServeOp;
use fcoo::{FormatKind, TensorOp};
use gpu_sim::{ChromeTrace, DeviceConfig, KernelCounters, LaunchTrace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

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
    /// The plan's certified `[lo, hi]` envelope on each member's kernel
    /// time, for rows of in-core unified launches (two-step, host-tier,
    /// chunked and CP-ALS rows have none).
    pub certificate: Option<PlanCertificate>,
    /// Members whose `kernel_us` lies outside `certificate`.
    pub certificate_escapes: usize,
}

/// A profiled serving run: the request records with their launch traces,
/// plus the grouped per-kernel counter rows.
#[derive(Debug)]
pub struct ServeProfile {
    /// Hardware model the run simulated (for peak-bandwidth context).
    pub device_config: DeviceConfig,
    /// The run's request records in trace order, each carrying its
    /// accepted attempt's launch traces (the report's copies carry none).
    pub requests: Vec<RequestProfile>,
    /// Counter rows grouped by `(tensor, op, tier, config)`.
    pub kernels: Vec<KernelProfile>,
}

impl ServeProfile {
    /// Assembles a profile from the traced request records, grouping
    /// counter rows and attaching each in-core unified row's certificate
    /// from `plan(tensor, op, rank)`, the plan cache's entry.
    pub(crate) fn assemble(
        device_config: DeviceConfig,
        requests: Vec<RequestProfile>,
        plan: impl Fn(&str, TensorOp, usize) -> Option<Arc<Plan>>,
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
                    let in_core_unified =
                        tier == ExecTier::Unified && members.iter().all(|m| m.chunks.is_empty());
                    let certificate = match members[0].op {
                        ServeOp::Tensor(op) if in_core_unified => plan(&tensor_id, op, rank)
                            .filter(|p| {
                                (p.block_size, p.threadlen(), p.kind())
                                    == (block_size, threadlen, format)
                            })
                            .map(|p| p.certificate),
                        _ => None,
                    };
                    let certificate_escapes = certificate.map_or(0, |c| {
                        members
                            .iter()
                            .filter(|m| !(c.time_lo_us..=c.time_hi_us).contains(&m.kernel_us))
                            .count()
                    });
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
                        certificate,
                        certificate_escapes,
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
                let exec_us = request.exec_us;
                // A CP-ALS job's format uploads hide under its sweep, so
                // its stages sum past its span: its kernels end where its
                // D2H starts, at the span's end.
                let kernel_start = if request.h2d_us + request.kernel_us + request.d2h_us > exec_us
                {
                    cursor + exec_us - request.d2h_us - request.kernel_us
                } else {
                    cursor + request.h2d_us
                };
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
                        kernel_start,
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
                        kernel_start + request.kernel_us,
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
    /// config)` group with the dynamic ratios, the row's kernel time per
    /// request (`µs/req`) and the plan's certified per-launch kernel-time
    /// envelope beside it (`in` when every member's kernel time lies
    /// inside it, `OUT` otherwise), and the device's peak bandwidth for
    /// context.
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
            "  {:<10} {:<18} {:<8} {:>15} {:>5} {:>10} {:>7} {:>6} {:>6} {:>6} {:>8} {:>6} {:>9}  certified µs",
            "tensor", "op", "tier", "config", "reqs", "time(µs)", "GB/s", "bw%", "coal%",
            "cache%", "atom-ser", "occup", "µs/req"
        );
        for row in &self.kernels {
            let c = &row.counters;
            let certified = match row.certificate {
                Some(cert) => format!(
                    "[{:.3}, {:.3}] {}",
                    cert.time_lo_us,
                    cert.time_hi_us,
                    if row.certificate_escapes == 0 {
                        "in"
                    } else {
                        "OUT"
                    }
                ),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<10} {:<18} {:<8} {:>15} {:>5} {:>10.3} {:>7.1} {:>6.1} {:>6.1} {:>6.1} {:>8.2} {:>6.3} {:>9.3}  {}",
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
                c.time_us / row.requests as f64,
                certified
            );
        }
        out
    }
}
