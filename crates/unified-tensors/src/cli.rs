//! Implementation of the `tensortool` command-line utility.
//!
//! Every subcommand is a plain function returning the text it prints, so the
//! logic is unit-testable without spawning processes. The binary in
//! `src/bin/tensortool.rs` only parses arguments and forwards here.

use crate::gpu_sim::OutOfMemory;
use crate::prelude::*;
use crate::serve::plan::{SERVE_BLOCK_SIZES, SERVE_THREADLENS};
use std::fmt::Write as _;
use std::path::Path;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError(message.into())
}

fn out_of_memory(e: OutOfMemory) -> CliError {
    err(format!("device out of memory: {e}"))
}

/// Uploads random `rank`-column factors for one launch of `op` on a tensor
/// of `shape`, listed as [`TensorOp::factor_modes`] says; the factor at
/// list position `p` is seeded `1 + p`.
fn upload_factors(
    device: &GpuDevice,
    op: TensorOp,
    shape: &[usize],
    rank: usize,
) -> Result<Vec<DeviceMatrix>, CliError> {
    op.factor_modes(shape.len())
        .into_iter()
        .enumerate()
        .map(|(p, m)| {
            let host = DenseMatrix::random(shape[m], rank, 1 + p as u64);
            DeviceMatrix::upload(device.memory(), &host).map_err(out_of_memory)
        })
        .collect()
}

/// Loads a tensor from a FROSTT `.tns` file.
pub fn load(path: &Path) -> Result<SparseTensorCoo, CliError> {
    let file = std::fs::File::open(path)
        .map_err(|e| err(format!("cannot open {}: {e}", path.display())))?;
    crate::tensor_core::io::read_tns(std::io::BufReader::new(file))
        .map_err(|e| err(format!("cannot parse {}: {e}", path.display())))
}

/// `tensortool info <file.tns>` — structural statistics.
pub fn info(tensor: &SparseTensorCoo) -> String {
    let mut out = String::new();
    let dims: Vec<String> = tensor.shape().iter().map(|s| s.to_string()).collect();
    let _ = writeln!(out, "order:    {}", tensor.order());
    let _ = writeln!(out, "shape:    {}", dims.join(" x "));
    let _ = writeln!(out, "nnz:      {}", tensor.nnz());
    let _ = writeln!(out, "density:  {:.3e}", tensor.density());
    let _ = writeln!(out, "coo size: {} bytes", tensor.storage_bytes());
    for mode in 0..tensor.order() {
        if let Some(summary) = crate::tensor_core::stats::group_summary(tensor, &[mode]) {
            let _ = writeln!(out, "mode {} slices: {}", mode + 1, summary.render());
        }
    }
    out
}

/// `tensortool generate <kind> <nnz> <out.tns>` — write a synthetic dataset.
pub fn generate(kind_name: &str, nnz: usize, path: &Path) -> Result<String, CliError> {
    let kind = match kind_name {
        "brainq" => DatasetKind::Brainq,
        "nell2" => DatasetKind::Nell2,
        "delicious" => DatasetKind::Delicious,
        "nell1" => DatasetKind::Nell1,
        "uniform" => DatasetKind::Uniform,
        other => return Err(err(format!("unknown dataset kind `{other}`"))),
    };
    if nnz < datasets::MIN_NNZ_BUDGET {
        return Err(err(format!(
            "nnz must be at least {}",
            datasets::MIN_NNZ_BUDGET
        )));
    }
    let (tensor, info) = datasets::generate(kind, nnz, 2017);
    let file = std::fs::File::create(path)
        .map_err(|e| err(format!("cannot create {}: {e}", path.display())))?;
    crate::tensor_core::io::write_tns(&tensor, std::io::BufWriter::new(file))
        .map_err(|e| err(format!("cannot write {}: {e}", path.display())))?;
    Ok(format!("wrote {} ({})\n", path.display(), info.table_row()))
}

/// `tensortool spttm <file> <mode> <rank>` — run the unified SpTTM on the
/// simulated device.
pub fn spttm(tensor: &SparseTensorCoo, mode: usize, rank: usize) -> Result<String, CliError> {
    check_mode(tensor, mode)?;
    let device = GpuDevice::titan_x();
    let fcoo = Fcoo::from_coo(tensor, TensorOp::SpTtm { mode }, 16);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).map_err(out_of_memory)?;
    let u_host = DenseMatrix::random(tensor.shape()[mode], rank, 1);
    let u = DeviceMatrix::upload(device.memory(), &u_host).map_err(out_of_memory)?;
    let (result, stats) = crate::fcoo::spttm(&device, &on_device, &u, &LaunchConfig::default())
        .map_err(out_of_memory)?;
    let checksum: f64 = result.values().iter().map(|&v| v as f64).sum();
    Ok(format!(
        "SpTTM(mode-{}) rank {rank}: {:.1} µs simulated, {} fibers, \
         {:.1}% cache hits, output checksum {checksum:.4}\n",
        mode + 1,
        stats.time_us,
        result.nfibs(),
        100.0 * stats.rocache_hit_rate,
    ))
}

/// `tensortool mttkrp <file> <mode> <rank>` — run the unified SpMTTKRP.
pub fn mttkrp(tensor: &SparseTensorCoo, mode: usize, rank: usize) -> Result<String, CliError> {
    check_mode(tensor, mode)?;
    let device = GpuDevice::titan_x();
    let fcoo = Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode }, 16);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).map_err(out_of_memory)?;
    let hosts: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, 1 + m as u64))
        .collect();
    let factors: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f))
        .collect::<Result<Vec<_>, _>>()
        .map_err(out_of_memory)?;
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    let (result, stats) =
        crate::fcoo::spmttkrp(&device, &on_device, &refs, &LaunchConfig::default())
            .map_err(out_of_memory)?;
    let checksum: f64 = result.data().iter().map(|&v| v as f64).sum();
    Ok(format!(
        "SpMTTKRP(mode-{}) rank {rank}: {:.1} µs simulated, output {}x{}, \
         {} atomics, checksum {checksum:.4}\n",
        mode + 1,
        stats.time_us,
        result.rows(),
        result.cols(),
        stats.atomics,
    ))
}

/// `tensortool cp <file> <rank> <iters>` — CP decomposition on the simulated
/// device.
pub fn cp(tensor: &SparseTensorCoo, rank: usize, iters: usize) -> Result<String, CliError> {
    let opts = CpOptions {
        rank,
        max_iters: iters.max(1),
        tol: 1e-6,
        seed: 1,
    };
    let device = GpuDevice::titan_x();
    let mut engine = UnifiedGpuEngine::new(&device, tensor, 16, LaunchConfig::default().block_size)
        .map_err(out_of_memory)?;
    let run = cp_als(tensor, &mut engine, &opts).map_err(|e| err(format!("cp-als failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "CP rank {rank}: fit {:.4} after {} iterations ({:.1} µs simulated GPU)",
        run.fit,
        run.iterations,
        run.total_us()
    );
    for (mode, &us) in run.mode_us.iter().enumerate() {
        let _ = writeln!(out, "  mode-{} MTTKRP: {us:.1} µs", mode + 1);
    }
    if let Some(overlapped) = run.overlapped_total_us {
        let (grams, solves) = engine.dense_launches();
        let _ = writeln!(
            out,
            "  two-stream makespan: {overlapped:.1} µs (dense stream: {grams} Grams, {solves} solves)"
        );
    }
    let lambdas: Vec<String> = run.model.lambda.iter().map(|l| format!("{l:.3}")).collect();
    let _ = writeln!(out, "  lambda: [{}]", lambdas.join(", "));
    Ok(out)
}

/// `tensortool preprocess <file.tns> <op> <mode> <out.fcoo>` — build and
/// persist the F-COO preprocessing for one operation and mode.
pub fn preprocess(
    tensor: &SparseTensorCoo,
    op_name: &str,
    mode: usize,
    path: &Path,
) -> Result<String, CliError> {
    check_mode(tensor, mode)?;
    let op = match op_name {
        "spttm" => TensorOp::SpTtm { mode },
        "mttkrp" => TensorOp::SpMttkrp { mode },
        "ttmc" => TensorOp::SpTtmc { mode },
        other => return Err(err(format!("unknown op `{other}` (spttm|mttkrp|ttmc)"))),
    };
    let fcoo = Fcoo::from_coo(tensor, op, 16);
    let file = std::fs::File::create(path)
        .map_err(|e| err(format!("cannot create {}: {e}", path.display())))?;
    crate::fcoo::write_fcoo(&fcoo, std::io::BufWriter::new(file))
        .map_err(|e| err(format!("cannot write {}: {e}", path.display())))?;
    let breakdown = fcoo.storage();
    Ok(format!(
        "wrote {} — {} for {}, {} segments, {} bytes ({} B/nnz core model)\n",
        path.display(),
        op.label(),
        fcoo.nnz(),
        fcoo.segments(),
        breakdown.total_bytes(),
        breakdown.paper_model_bytes() / fcoo.nnz(),
    ))
}

/// `tensortool run <file.fcoo> <rank>` — load preprocessed F-COO and run the
/// matching unified kernel with random factors.
pub fn run_cached(path: &Path, rank: usize) -> Result<String, CliError> {
    let file = std::fs::File::open(path)
        .map_err(|e| err(format!("cannot open {}: {e}", path.display())))?;
    let fcoo = crate::fcoo::read_fcoo(std::io::BufReader::new(file))
        .map_err(|e| err(format!("cannot decode {}: {e}", path.display())))?;
    let device = GpuDevice::titan_x();
    let on_device = AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo)
        .map_err(out_of_memory)?;
    let factors = upload_factors(&device, fcoo.op, &fcoo.shape, rank)?;
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    let (_, stats) = on_device
        .launch(&device, &refs, &LaunchConfig::default())
        .map_err(out_of_memory)?;
    Ok(format!(
        "{} rank {rank}: {:.1} µs simulated, {} blocks in {} waves, \
         {:.1}% cache hits\n",
        fcoo.op.label(),
        stats.time_us,
        stats.blocks,
        stats.waves,
        100.0 * stats.rocache_hit_rate,
    ))
}

/// `tensortool bench <file> <mode> <rank>` — compare unified against the
/// baselines on one MTTKRP.
pub fn bench(tensor: &SparseTensorCoo, mode: usize, rank: usize) -> Result<String, CliError> {
    check_mode(tensor, mode)?;
    if tensor.order() != 3 {
        return Err(err(
            "bench requires a 3-order tensor (baselines are 3-order)",
        ));
    }
    let device = GpuDevice::titan_x();
    let hosts: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, 1 + m as u64))
        .collect();
    let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
    let mut out = String::new();

    let fcoo = Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode }, 16);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).map_err(out_of_memory)?;
    let factors: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f))
        .collect::<Result<Vec<_>, _>>()
        .map_err(out_of_memory)?;
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    let (_, unified) = crate::fcoo::spmttkrp(&device, &on_device, &refs, &LaunchConfig::default())
        .map_err(out_of_memory)?;
    let _ = writeln!(out, "unified   (sim GPU): {:>10.1} µs", unified.time_us);

    match spmttkrp_two_step_gpu(&device, tensor, mode, &host_refs) {
        Ok((_, stats, _)) => {
            let _ = writeln!(out, "ParTI-GPU (sim GPU): {:>10.1} µs", stats.time_us);
        }
        Err(_) => {
            let _ = writeln!(out, "ParTI-GPU (sim GPU): out of memory");
        }
    }
    let csf = Csf::build(tensor, mode);
    let (_, splatt_us) = mttkrp_csf(&csf, &host_refs);
    let _ = writeln!(out, "SPLATT    (CPU):     {splatt_us:>10.1} µs");
    let prepared = SortedCoo::for_spmttkrp(tensor, mode);
    let (_, omp_us) = spmttkrp_omp(&prepared, &host_refs);
    let _ = writeln!(out, "ParTI-OMP (CPU):     {omp_us:>10.1} µs");
    Ok(out)
}

/// `tensortool sanitize <file.tns> <op> <mode> <rank>` — lint the F-COO
/// preprocessing and replay the matching unified kernel under the sanitizer
/// (racecheck, out-of-bounds, narration audit).
pub fn sanitize(
    tensor: &SparseTensorCoo,
    op_name: &str,
    mode: usize,
    rank: usize,
) -> Result<String, CliError> {
    check_mode(tensor, mode)?;
    let op = match op_name {
        "spttm" => TensorOp::SpTtm { mode },
        "mttkrp" => TensorOp::SpMttkrp { mode },
        "ttmc" => TensorOp::SpTtmc { mode },
        other => return Err(err(format!("unknown op `{other}` (spttm|mttkrp|ttmc)"))),
    };
    // The replay exercises the format the planner would actually serve —
    // certified cross-format selection over the serving grid, not a
    // hardcoded F-COO build — so a BF-COO-winning tensor is linted and
    // replayed with its bucketed schedule, and a threadlen-4 plan replays
    // at threadlen 4.
    let config = DeviceConfig::titan_x();
    let (blocks, threadlens) = (&SERVE_BLOCK_SIZES[..], &SERVE_THREADLENS[..]);
    let choice =
        crate::analyzer::tune_select(&config, tensor, op, rank, Some(blocks), Some(threadlens));
    let format = AnyFormat::build(choice.kind(), tensor, op, choice.chosen.threadlen);
    let cfg = LaunchConfig::with_block_size(choice.chosen.block_size);
    let mut out = String::new();
    let lint = match &format {
        AnyFormat::Fcoo(fcoo) => sanitizer::check_fcoo(fcoo),
        AnyFormat::BfCoo(bfcoo) => sanitizer::check_bfcoo(bfcoo),
    };
    let fcoo = format.base();
    let _ = write!(
        out,
        "{} lint ({} non-zeros, {} segments, {} partitions): {}",
        choice.kind().label(),
        fcoo.nnz(),
        fcoo.segments(),
        fcoo.partitions(),
        lint
    );

    let device = GpuDevice::titan_x();
    let on_device = format.upload(device.memory()).map_err(out_of_memory)?;
    device.start_recording();
    let factors = upload_factors(&device, op, tensor.shape(), rank)?;
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    let launch_result = on_device.launch(&device, &refs, &cfg);
    let log = device.stop_recording();
    launch_result.map_err(out_of_memory)?;
    let dynamic = sanitizer::analyze(&log);
    let _ = write!(
        out,
        "{} replay ({} recorded events): {}",
        op.label(),
        log.event_count(),
        dynamic
    );
    if !lint.is_clean() || dynamic.error_count() > 0 {
        return Err(err(out));
    }
    Ok(out)
}

/// `tensortool certify <file.tns> <mode> <rank> [out.json]` — certified
/// cost-bound tuning: derive a provable `[lo, hi]` envelope on
/// `KernelStats::time_us` for every grid configuration of the unified
/// SpTTM, SpMTTKRP and (column-tiled) SpTTMc kernels from the F-COO
/// headers alone ([`crate::analyzer::certify_grid`]), mark every
/// configuration whose certified lower bound exceeds another's upper bound
/// as dominated, and print the envelope matrix plus the trial launches a
/// sweep over the survivors avoids (none at all when a single
/// configuration survives). Beside each matrix it prints the serving
/// planner's cross-format selection ([`crate::analyzer::tune_select`]), and
/// for a 3-order tensor the two-step baseline's exactly certified step-2
/// transactions over ideal (paper Fig. 3a). Three gates decide the exit
/// code: every measured trial time of the exhaustive launched sweep
/// ([`crate::fcoo::tune()`]) lies within its envelope; the sweep's winner
/// is neither pruned nor dominated; and every format's certified best
/// payload passes the plan-load gate ([`crate::analyzer::plan_report`]).
/// With an output path, writes the deterministic `BENCH_certify.json`
/// trajectory point (trial launches avoided per grid).
pub fn certify(
    tensor: &SparseTensorCoo,
    mode: usize,
    rank: usize,
    out_path: Option<&Path>,
) -> Result<String, CliError> {
    use crate::fcoo::{BLOCK_SIZES, THREADLENS};
    check_mode(tensor, mode)?;
    let config = DeviceConfig::titan_x();
    let mut out = String::new();
    let mut violations: Vec<String> = Vec::new();
    let mut grid_rows = String::new();
    for (label, op) in [
        ("SpTTM", TensorOp::SpTtm { mode }),
        ("SpMTTKRP", TensorOp::SpMttkrp { mode }),
        ("SpTTMc", TensorOp::SpTtmc { mode }),
    ] {
        let sorted = crate::fcoo::SortedFcoo::new(tensor, op);
        let (envelopes, pruned) = crate::analyzer::certify_grid(
            &config,
            &sorted,
            FormatKind::Fcoo,
            rank,
            &BLOCK_SIZES,
            &THREADLENS,
        );
        // A point is dominated iff some other point's upper bound sits
        // strictly below its lower bound; the grid-wide minimum upper bound
        // decides exactly that, and never dominates its own point (lo ≤ hi).
        let min_hi = envelopes
            .iter()
            .map(|p| p.time_us.hi)
            .fold(f64::INFINITY, f64::min);
        let (dominated, survivors): (Vec<_>, Vec<_>) =
            envelopes.iter().partition(|p| p.time_us.lo > min_hi);
        let grid_points = BLOCK_SIZES.len() * THREADLENS.len();
        let zero_launch_winner = survivors.len() == 1;
        let launches = if zero_launch_winner {
            0
        } else {
            survivors.len()
        };
        let _ = writeln!(
            out,
            "{label} (mode {}, rank {}): {} grid points — {} pruned, {} dominated, \
             {} launched, {} trial launches avoided",
            mode + 1,
            rank,
            grid_points,
            pruned.len(),
            dominated.len(),
            launches,
            grid_points - launches,
        );
        let _ = write!(out, "  T\\B ");
        for b in &BLOCK_SIZES {
            let _ = write!(out, "{b:>16}");
        }
        let _ = writeln!(out);
        for &t in &THREADLENS {
            let _ = write!(out, "{t:>5} ");
            for &b in &BLOCK_SIZES {
                let point = envelopes
                    .iter()
                    .find(|p| (p.block_size, p.threadlen) == (b, t));
                let cell = match point {
                    None => "pruned".to_string(),
                    Some(p) if p.time_us.lo > min_hi => "dominated".to_string(),
                    Some(p) => format!("{:.1}..{:.1}", p.time_us.lo, p.time_us.hi),
                };
                let _ = write!(out, "{cell:>16}");
            }
            let _ = writeln!(out);
        }
        for p in &dominated {
            let _ = writeln!(
                out,
                "  dominated ({}, T={}): certified lower bound {:.1} µs exceeds the \
                 grid's best-case upper bound {:.1} µs — cannot win, needs no trial launch",
                p.block_size, p.threadlen, p.time_us.lo, min_hi
            );
        }
        // The exhaustive launched sweep is the reference: the certificates
        // must contain every measured time, and pruning or dominance must
        // not have ruled out its winner.
        let exhaustive = crate::fcoo::tune(&GpuDevice::titan_x(), tensor, op, rank, None, None);
        for point in &exhaustive.surface {
            if let Some(p) = envelopes
                .iter()
                .find(|p| (p.block_size, p.threadlen) == (point.block_size, point.threadlen))
            {
                if !p.time_us.contains(point.time_us) {
                    violations.push(format!(
                        "{label} B={} T={}: measured {:.3} µs outside the certified \
                         envelope [{:.3}, {:.3}]",
                        point.block_size,
                        point.threadlen,
                        point.time_us,
                        p.time_us.lo,
                        p.time_us.hi
                    ));
                }
            }
        }
        let (wb, wt) = exhaustive.best_pair();
        let Some(winner) = survivors
            .iter()
            .find(|p| (p.block_size, p.threadlen) == (wb, wt))
        else {
            violations.push(format!(
                "{label}: the exhaustive sweep's winner B={wb} T={wt} was pruned or dominated"
            ));
            continue;
        };
        if zero_launch_winner {
            let _ = writeln!(
                out,
                "  winner: B={wb} T={wt} — certified with zero launches, \
                 time in [{:.1}, {:.1}] µs",
                winner.time_us.lo, winner.time_us.hi
            );
        } else {
            let _ = writeln!(
                out,
                "  winner: B={wb} T={wt} — {:.1} µs measured; envelopes overlap \
                 on {launches} configurations, so only those need a trial launch",
                exhaustive.best.time_us,
            );
        }
        // The serving planner's certified selection beside the paper-grid
        // sweep above: the cross-format pick over the serving grids, the
        // one a served plan launches when its format can be resident. Each
        // format's best payload must pass the gate a persisted plan meets
        // at load (its launch shape and its own format invariants, BF-COO's
        // bucket arithmetic included).
        let (blocks, threadlens) = (&SERVE_BLOCK_SIZES[..], &SERVE_THREADLENS[..]);
        let choice =
            crate::analyzer::tune_select(&config, tensor, op, rank, Some(blocks), Some(threadlens));
        let _ = writeln!(out, "  formats:");
        for line in choice.render().lines() {
            let _ = writeln!(out, "    {line}");
        }
        for c in &choice.candidates {
            let format = AnyFormat::build(c.kind, tensor, op, c.threadlen);
            let report = crate::analyzer::plan_report(&config, &format, c.block_size);
            if report.error_count() > 0 {
                violations.push(format!(
                    "{label}: the {} payload at B{} T{} fails the plan gate: {report}",
                    c.kind.label(),
                    c.block_size,
                    c.threadlen
                ));
            }
        }
        let _ = writeln!(
            out,
            "    selected {} ({})",
            choice.kind().label(),
            if choice.strictly_dominates() {
                "strictly dominates on the certified upper bound"
            } else {
                "tie-break keeps the paper's baseline"
            }
        );
        if !grid_rows.is_empty() {
            grid_rows.push_str(",\n");
        }
        let _ = write!(
            grid_rows,
            "    {{\"kernel\": \"{label}\", \"grid_points\": {grid_points}, \"pruned\": {}, \
             \"dominated\": {}, \"launches\": {launches}, \"launches_avoided\": {}, \
             \"zero_launch_winner\": {zero_launch_winner}, \"chosen_format\": \"{}\", \
             \"format_strictly_dominates\": {}, \"winner\": {{\"block_size\": {wb}, \
             \"threadlen\": {wt}, \"time_lo_us\": {:.6}, \"time_hi_us\": {:.6}}}}}",
            pruned.len(),
            dominated.len(),
            grid_points - launches,
            choice.kind().label(),
            choice.strictly_dominates(),
            winner.time_us.lo,
            winner.time_us.hi,
        );
    }
    // Fig. 3a's finding as one exact number: the two-step baseline's step-2
    // reduction gathers the materialized intermediate at a per-lane stride
    // of threadlen · rank elements.
    let cfg = LaunchConfig::default();
    if let Some(two_step) =
        crate::analyzer::cost::certify_two_step(&config, tensor, mode, rank, 8, &cfg)
    {
        let step2 = &two_step.step2;
        let _ = writeln!(
            out,
            "two-step step 2 (B{} T8): {} transactions where {} are ideal ({:.2}x), \
             certified exactly: its strided intermediate gather is uncoalesced (paper Fig. 3a)",
            cfg.block_size,
            step2.transactions.hi,
            step2.ideal_transactions.hi,
            step2.transactions.hi as f64 / step2.ideal_transactions.hi as f64
        );
    }
    if !violations.is_empty() {
        for violation in &violations {
            let _ = writeln!(out, "certify violation: {violation}");
        }
        return Err(err(out));
    }
    let _ = writeln!(
        out,
        "gate: every measured trial lies within its certified envelope and \
         the exhaustive sweep's winner survives certification"
    );
    let _ = writeln!(
        out,
        "format gate: every format's certified best payload passes the plan-load gate"
    );
    if let Some(path) = out_path {
        let json = format!(
            "{{\n  \"bench\": \"certify\",\n  \"mode\": {},\n  \"rank\": {rank},\n  \
             \"nnz\": {},\n  \"grids\": [\n{grid_rows}\n  ]\n}}\n",
            mode + 1,
            tensor.nnz(),
        );
        std::fs::write(path, &json)
            .map_err(|e| err(format!("cannot write {}: {e}", path.display())))?;
        let _ = writeln!(out, "wrote {}", path.display());
    }
    Ok(out)
}

/// `tensortool workload <requests> <seed> <out.txt>` — write a seeded
/// synthetic serving workload (4 paper datasets × {SpTTM, SpMTTKRP}).
pub fn workload_gen(requests: usize, seed: u64, path: &Path) -> Result<String, CliError> {
    let workload = crate::serve::synthetic(requests, seed);
    std::fs::write(path, workload.render())
        .map_err(|e| err(format!("cannot write {}: {e}", path.display())))?;
    Ok(format!(
        "wrote {} — {} tensors, {} requests (seed {seed})\n",
        path.display(),
        workload.tensors.len(),
        workload.requests.len(),
    ))
}

/// Resolves a workload argument: a path to a workload file or an inline
/// `synthetic:<requests>:<seed>` spec.
fn parse_workload_spec(spec: &str) -> Result<crate::serve::Workload, CliError> {
    if let Some(rest) = spec.strip_prefix("synthetic:") {
        let (n, seed) = rest
            .split_once(':')
            .ok_or_else(|| err("synthetic spec is synthetic:<requests>:<seed>"))?;
        let n = n
            .parse::<usize>()
            .map_err(|_| err(format!("bad request count `{n}`")))?;
        let seed = seed
            .parse::<u64>()
            .map_err(|_| err(format!("bad seed `{seed}`")))?;
        Ok(crate::serve::synthetic(n, seed))
    } else {
        let text =
            std::fs::read_to_string(spec).map_err(|e| err(format!("cannot open {spec}: {e}")))?;
        crate::serve::Workload::parse(&text).map_err(|e| err(format!("{spec}: {e}")))
    }
}

/// `tensortool serve <workload.txt|synthetic:N:SEED> [plan-dir] [--verify]`
/// — replay a request workload through the serving engine and report
/// latency, throughput, cache-hit rate and per-stream utilization.
pub fn serve(spec: &str, plan_dir: Option<&Path>, verify: bool) -> Result<String, CliError> {
    let workload = parse_workload_spec(spec)?;
    if let Some(dir) = plan_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| err(format!("cannot create {}: {e}", dir.display())))?;
    }
    let config = crate::serve::ServeConfig {
        plan_dir: plan_dir.map(Path::to_path_buf),
        verify,
        ..crate::serve::ServeConfig::default()
    };
    let mut engine = crate::serve::ServeEngine::new(config);
    let report = engine.run(&workload);
    let mut out = format!(
        "workload: {} tensors, {} requests\n",
        workload.tensors.len(),
        workload.requests.len()
    );
    out.push_str(&report.render());
    if report.verify_failures > 0 {
        return Err(err(out));
    }
    Ok(out)
}

/// `tensortool profile <workload.txt|synthetic:N:SEED> [trace.json]` —
/// replay a workload with the tracing layer on every serving device, write
/// a Chrome-trace/Perfetto JSON document, and print the per-kernel counter
/// report (achieved vs. peak bandwidth, coalescing efficiency, cache hit
/// rate, atomic serialization, occupancy) with each plan's certified
/// kernel-time envelope beside it. Tracing only observes: the served results and
/// every latency are bit-identical to an unprofiled run.
pub fn profile(spec: &str, trace_path: Option<&Path>) -> Result<String, CliError> {
    let workload = parse_workload_spec(spec)?;
    let config = crate::serve::ServeConfig {
        profile: true,
        ..crate::serve::ServeConfig::default()
    };
    let mut engine = crate::serve::ServeEngine::new(config);
    let report = engine.run(&workload);
    let profile = report
        .profile
        .as_ref()
        .expect("profiling was enabled on the engine");
    let trace = profile.chrome_trace();
    let violations = trace.validate();
    if !violations.is_empty() {
        return Err(err(format!(
            "trace failed validation ({} violations): {}",
            violations.len(),
            violations[0]
        )));
    }
    let default_path = Path::new("trace.json");
    let path = trace_path.unwrap_or(default_path);
    std::fs::write(path, trace.to_json())
        .map_err(|e| err(format!("cannot write {}: {e}", path.display())))?;
    let mut out = format!(
        "workload: {} tensors, {} requests\n",
        workload.tensors.len(),
        workload.requests.len()
    );
    out.push_str(&profile.counter_report());
    let _ = writeln!(
        out,
        "trace: {} spans over {} memory events -> {} (load in Perfetto / chrome://tracing)",
        trace.events().len(),
        profile.event_count(),
        path.display()
    );
    out.push_str(&report.render());
    Ok(out)
}

/// `tensortool golden [--bless]` — run the golden-counter regression suite:
/// all four kernels over the four synthetic FROSTT stand-ins at tuned
/// configurations, traced, with raw counters compared byte-for-byte against
/// the blessed snapshot. `--bless` re-snapshots after an intentional
/// cost-model change.
pub fn golden(bless: bool) -> Result<String, CliError> {
    if bless {
        crate::golden::bless().map_err(err)
    } else {
        crate::golden::check().map_err(err)
    }
}

/// Parses a chaos fault schedule: `quiet`, `chaos:<rate>` (all five fault
/// kinds at one rate), or a comma-separated per-kind list — `ecc:<r>`,
/// `launch:<r>`, `alloc:<r>`, `stall:<r>`, `atomic:<r>`.
fn parse_schedule(schedule: &str, seed: u64) -> Result<crate::gpu_sim::FaultConfig, CliError> {
    use crate::gpu_sim::FaultConfig;
    if schedule == "quiet" {
        return Ok(FaultConfig::quiet(seed));
    }
    if let Some(rate) = schedule.strip_prefix("chaos:") {
        let rate: f64 = rate
            .parse()
            .map_err(|_| err(format!("bad fault rate `{rate}`")))?;
        return Ok(FaultConfig::chaos(seed, rate));
    }
    let mut config = FaultConfig::quiet(seed);
    config.detection_latency = 2;
    config.stall_us = 5_000.0;
    for part in schedule.split(',') {
        let (kind, rate) = part
            .split_once(':')
            .ok_or_else(|| err(format!("bad schedule part `{part}` (want kind:rate)")))?;
        let rate: f64 = rate
            .parse()
            .map_err(|_| err(format!("bad fault rate `{rate}`")))?;
        match kind {
            "ecc" => {
                config.ecc_single_rate = rate;
                config.ecc_double_rate = rate;
            }
            "launch" => config.launch_failure_rate = rate,
            "alloc" => config.alloc_failure_rate = rate,
            "stall" => config.stall_rate = rate,
            "atomic" => config.dropped_atomic_rate = rate,
            other => return Err(err(format!("unknown fault kind `{other}`"))),
        }
    }
    Ok(config)
}

/// `tensortool chaos <workload.txt|synthetic:N:SEED> <schedule> <seed>` —
/// replay a workload with deterministic fault injection installed on every
/// serving device and assert the recovery guarantees: zero wrong results,
/// zero lost requests, and pool bytes-in-use back at zero. Exits non-zero
/// on any violation.
pub fn chaos(spec: &str, schedule: &str, seed: u64) -> Result<String, CliError> {
    let workload = parse_workload_spec(spec)?;
    let fault = parse_schedule(schedule, seed)?;
    let config = crate::serve::ServeConfig {
        devices: 2,
        verify: true,
        fault_injection: Some(fault),
        ..crate::serve::ServeConfig::default()
    };
    let devices = config.devices;
    let mut engine = crate::serve::ServeEngine::new(config);
    let report = engine.run(&workload);
    let mut out = format!(
        "chaos: {} requests under schedule `{schedule}` (seed {seed})\n",
        workload.requests.len()
    );
    out.push_str(&report.render());
    let mut violations = Vec::new();
    if report.requests.len() + report.rejections.len() + report.sheds.len()
        != workload.requests.len()
    {
        violations.push(format!(
            "lost requests: {} served + {} rejected + {} shed != {} submitted",
            report.requests.len(),
            report.rejections.len(),
            report.sheds.len(),
            workload.requests.len()
        ));
    }
    if !report.rejections.is_empty() {
        violations.push(format!(
            "{} requests rejected under faults: {}",
            report.rejections.len(),
            report.rejections[0].reason
        ));
    }
    if report.verify_failures > 0 {
        violations.push(format!(
            "{} of {} verified results mismatched their clean re-execution",
            report.verify_failures, report.verified
        ));
    }
    for d in 0..devices {
        let leaked = engine.pool(d).reserved_bytes();
        if leaked > 0 {
            violations.push(format!("device {d} leaked {leaked} B of pool reservations"));
        }
    }
    if violations.is_empty() {
        let _ = writeln!(
            out,
            "chaos verdict: {} faults injected, {} retries — zero wrong results, \
             zero lost requests, zero leaked bytes",
            report.fault_stats.injected(),
            report.fault_stats.retries
        );
        Ok(out)
    } else {
        for violation in &violations {
            let _ = writeln!(out, "chaos violation: {violation}");
        }
        Err(err(out))
    }
}

/// `tensortool oocbench [out.json] [nnz]` — measure the out-of-core chunked
/// pipeline against the in-core path and write the `BENCH_out_of_core.json`
/// trajectory point: chunked vs in-core throughput (nnz/s), mean chunk
/// count, and the makespan over its certified floor at three device-memory
/// budgets that all reject the full format. Each budget's plan is tuned
/// for streaming there, and its floor does not depend on the chunking, so
/// launch overhead from needless chunks reads as distance from it: each
/// request's copy stream moves at least its format's storage and its
/// factors, and its compute stream runs the whole format's work, floored
/// by one whole-format launch's certified `lo`, and reads back its output
/// rows; the floor is the larger stream's sum over the requests.
/// Every run verifies bit-exactly against the one-shot reference; the
/// command exits non-zero on any rejection, verification mismatch or
/// makespan below the floor.
///
/// The emitted JSON is deterministic (simulated time, seeded datasets), so
/// successive trajectory points diff cleanly in version control.
pub fn oocbench(out_path: Option<&Path>, nnz: usize) -> Result<String, CliError> {
    use crate::serve::upload::{output_bytes, transfer_us, FactorPlan};
    use crate::serve::{PlanKey, ServeConfig, ServeEngine, Workload};
    if nnz == 0 {
        return Err(err("nnz must be positive"));
    }
    let rank = 8usize;
    let request_count = 4usize;
    let mut workload_text = format!("tensor big nell2 {nnz} 7\n");
    for i in 0..request_count {
        let _ = writeln!(
            workload_text,
            "request big mttkrp 0 {rank} {}.0 {}",
            i * 5,
            11 + i as u64
        );
    }
    let workload =
        Workload::parse(&workload_text).map_err(|e| err(format!("generated workload: {e}")))?;
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, nnz, 7);
    // The engine's own sizing rules: the request's transients (the factors
    // it uploads — no mode-0 factor for a mode-0 SpMTTKRP — plus its
    // one-row-per-segment output) and the formats the tuner could pick.
    let op = TensorOp::SpMttkrp { mode: 0 };
    let touched: Vec<Vec<u32>> = (0..tensor.order())
        .map(|m| crate::fcoo::touched_rows(tensor.mode_indices(m)))
        .collect();
    let factor_plan = FactorPlan::new(op, tensor.shape(), &touched, rank);
    let transient_bytes =
        factor_plan.transient_bytes(output_bytes(&Fcoo::from_coo(&tensor, op, 8), rank));
    let key = PlanKey::new(crate::serve::tensor_fingerprint(&tensor), op, rank);
    let min_format_bytes = crate::serve::plan::SERVE_THREADLENS
        .iter()
        .map(|&tl| {
            crate::serve::plan::format_bytes(&AnyFormat::build(FormatKind::Fcoo, &tensor, op, tl))
        })
        .min()
        .expect("non-empty threadlen grid");
    let total_nnz = (nnz * request_count) as f64;

    let run_at = |capacity: Option<usize>| -> Result<_, CliError> {
        let mut device_config = DeviceConfig::titan_x();
        if let Some(capacity) = capacity {
            device_config.memory_capacity = capacity;
        }
        let mut engine = ServeEngine::new(ServeConfig {
            device_config,
            verify: true,
            ..ServeConfig::default()
        });
        let report = engine.run(&workload);
        if !report.rejections.is_empty() {
            return Err(err(format!(
                "oocbench rejected {} requests: {}",
                report.rejections.len(),
                report.rejections[0].reason
            )));
        }
        if report.verify_failures > 0 {
            return Err(err(format!(
                "oocbench: {} of {} results mismatched the one-shot reference",
                report.verify_failures, report.verified
            )));
        }
        let leaked = engine.pool(0).reserved_bytes();
        if leaked > 0 {
            return Err(err(format!("oocbench leaked {leaked} B of reservations")));
        }
        let plan = engine
            .plan(key)
            .ok_or_else(|| err("oocbench: the engine built no plan for its requests"))?;
        Ok((report, plan))
    };

    let (in_core, _) = run_at(None)?;
    let in_core_nnz_s = total_nnz / (in_core.makespan_us * 1e-6);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "oocbench: {nnz} nnz x {request_count} mttkrp requests (rank {rank})"
    );
    let _ = writeln!(
        out,
        "  in-core    : makespan {:>10.1} us, {:>12.0} nnz/s",
        in_core.makespan_us, in_core_nnz_s
    );
    let mut budget_rows = String::new();
    for (label, divisor) in [("1/2", 2usize), ("1/4", 4), ("1/8", 8)] {
        let capacity = transient_bytes + min_format_bytes / divisor;
        let (report, plan) = run_at(Some(capacity))?;
        // The floor of the plan tuned for streaming at this capacity.
        let copy_floor_us = transfer_us(plan.format.storage_bytes() + factor_plan.h2d_bytes());
        let compute_floor_us =
            plan.certificate.time_lo_us + transfer_us(output_bytes(plan.fcoo(), rank));
        let floor_us = request_count as f64 * copy_floor_us.max(compute_floor_us);
        let shape = format!(
            "{} T{} B{}",
            plan.kind().label(),
            plan.threadlen(),
            plan.block_size
        );
        let _ = writeln!(
            out,
            "  floor {label}: {floor_us:.1} us at any chunking of {shape} ({request_count} x \
             max of copy {copy_floor_us:.1} us, compute {compute_floor_us:.1} us)"
        );
        let chunked: Vec<_> = report
            .requests
            .iter()
            .filter(|r| !r.chunks.is_empty())
            .collect();
        if chunked.is_empty() {
            return Err(err(format!(
                "budget {label}: no request went out-of-core (capacity {capacity} B)"
            )));
        }
        let mean_chunks =
            chunked.iter().map(|r| r.chunks.len() as f64).sum::<f64>() / chunked.len() as f64;
        let over_floor = report.makespan_us / floor_us;
        if over_floor < 1.0 {
            return Err(err(format!(
                "budget {label}: makespan {:.3} us below its certified floor {floor_us:.3} us",
                report.makespan_us
            )));
        }
        let nnz_s = total_nnz / (report.makespan_us * 1e-6);
        let _ = writeln!(
            out,
            "  budget {label}: makespan {:>10.1} us, {:>12.0} nnz/s, \
             {:.1} chunks/request, {:.2}x the certified floor, {:.2}x in-core",
            report.makespan_us,
            nnz_s,
            mean_chunks,
            over_floor,
            nnz_s / in_core_nnz_s
        );
        if !budget_rows.is_empty() {
            budget_rows.push_str(",\n");
        }
        let _ = write!(
            budget_rows,
            "    {{\"budget\": \"{label}\", \"capacity_bytes\": {capacity}, \
             \"plan\": \"{shape}\", \"makespan_us\": {:.3}, \"nnz_per_s\": {:.1}, \
             \"mean_chunks_per_request\": {:.3}, \"certified_floor_us\": {floor_us:.3}, \
             \"makespan_over_floor\": {:.4}, \
             \"throughput_vs_in_core\": {:.4}, \"verified\": {}, \
             \"verify_failures\": 0}}",
            report.makespan_us,
            nnz_s,
            mean_chunks,
            over_floor,
            nnz_s / in_core_nnz_s,
            report.verified
        );
    }
    // Certified whole-pipeline bound: replay one chunked pipeline
    // standalone and check it against the envelope the analyzer derives
    // from the parent format's headers before anything runs. Purely a
    // verification step — the emitted JSON is unchanged.
    {
        let device = GpuDevice::titan_x();
        let cfg = LaunchConfig::with_block_size(128);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        let factors: Vec<DenseMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &n)| DenseMatrix::random(n, rank, 1 + m as u64))
            .collect();
        let plan = crate::ooc::split(&fcoo, (fcoo.storage().total_bytes() / 2).max(1));
        let lint = sanitizer::check_chunk_plan(&fcoo, &plan);
        if !lint.is_clean() {
            return Err(err(format!("oocbench chunk-plan lint: {lint}")));
        }
        let envelope = crate::analyzer::cost::certify_chunked(
            device.config(),
            FormatKind::Fcoo,
            &fcoo,
            &plan,
            rank,
            &cfg,
        );
        let run = crate::ooc::run_chunked(&device, FormatKind::Fcoo, &fcoo, &plan, &factors, &cfg)
            .map_err(|e| err(format!("oocbench chunked replay: {e}")))?;
        let bound_violations = crate::ooc::check_run(&envelope, &run);
        if let Some(violation) = bound_violations.first() {
            return Err(err(format!(
                "oocbench certified-bound violation: {violation}"
            )));
        }
        let bounds = envelope.stats_time_us();
        let _ = writeln!(
            out,
            "  certified  : {} chunk launches, accumulated kernel time {:.1} us \
             within the header-derived bound [{:.1}, {:.1}] us",
            plan.len(),
            run.stats.time_us,
            bounds.lo,
            bounds.hi
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"out_of_core\",\n  \"dataset\": \"nell2\",\n  \
         \"nnz\": {nnz},\n  \"requests\": {request_count},\n  \"rank\": {rank},\n  \
         \"transient_bytes\": {transient_bytes},\n  \
         \"min_format_bytes\": {min_format_bytes},\n  \
         \"in_core\": {{\"makespan_us\": {:.3}, \"nnz_per_s\": {:.1}}},\n  \
         \"budgets\": [\n{budget_rows}\n  ]\n}}\n",
        in_core.makespan_us, in_core_nnz_s
    );
    let default_path = Path::new("BENCH_out_of_core.json");
    let path = out_path.unwrap_or(default_path);
    std::fs::write(path, &json)
        .map_err(|e| err(format!("cannot write {}: {e}", path.display())))?;
    let _ = writeln!(out, "wrote {}", path.display());
    Ok(out)
}

/// `tensortool saturate [out.json]` — open-loop saturation harness for the
/// overload policy (docs/SERVING.md). A seeded Poisson-ish arrival process
/// is swept across offered loads from half capacity to 4× capacity; every
/// request carries a deadline, so past saturation the engine sheds the
/// provably late tail instead of queueing without bound. Each sweep point
/// reports accepted/shed/rejected counts, goodput and the p50/p99/p99.9
/// latency of *accepted* requests, then a mid-run quarantine case (chaos
/// fault injection with a low quarantine threshold) checks that survivors
/// absorb a quarantined device's load with zero lost requests. The command
/// exits non-zero if any request fails to reach exactly one terminal state,
/// any pool byte leaks, overload never sheds, or the quarantine case loses
/// a request. The emitted `BENCH_saturation.json` is deterministic
/// (simulated time, seeded arrivals), so successive points diff cleanly.
pub fn saturate(out_path: Option<&Path>) -> Result<String, CliError> {
    use crate::serve::{FaultTolerance, LatencySummary, ServeConfig, ServeEngine, Workload};
    let seed = 42u64;
    let requests_per_load = 160usize;
    let devices = 2usize;
    let streams = crate::serve::STREAMS_PER_DEVICE;

    let run = |workload: &Workload,
               fault: Option<(crate::gpu_sim::FaultConfig, u64)>|
     -> (crate::serve::ServeReport, usize) {
        let config = ServeConfig {
            devices,
            fault_injection: fault.as_ref().map(|(f, _)| f.clone()),
            fault_tolerance: FaultTolerance {
                quarantine_threshold: fault.map_or(u64::MAX, |(_, t)| t),
                ..FaultTolerance::default()
            },
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(config);
        let report = engine.run(workload);
        let leaked = (0..devices).map(|d| engine.pool(d).reserved_bytes()).sum();
        (report, leaked)
    };
    let conservation = |label: &str,
                        report: &crate::serve::ServeReport,
                        leaked: usize,
                        submitted: usize|
     -> Result<(), CliError> {
        let terminal = report.requests.len() + report.rejections.len() + report.sheds.len();
        if terminal != submitted {
            return Err(err(format!(
                "saturation {label}: {} served + {} rejected + {} shed != {submitted} submitted",
                report.requests.len(),
                report.rejections.len(),
                report.sheds.len()
            )));
        }
        if leaked > 0 {
            return Err(err(format!(
                "saturation {label}: {leaked} B of pool reservations leaked"
            )));
        }
        Ok(())
    };

    // Calibration: arrivals so sparse nothing queues and the deadline is
    // effectively infinite — measures the mean execution span the capacity
    // estimate needs.
    let calib = crate::serve::open_loop(64, seed, 50_000.0, 1e12);
    let (calib_report, calib_leaked) = run(&calib, None);
    conservation(
        "calibration",
        &calib_report,
        calib_leaked,
        calib.requests.len(),
    )?;
    let mean_exec = calib_report.requests.iter().map(|r| r.exec_us).sum::<f64>()
        / calib_report.requests.len() as f64;
    // One request finishes every `capacity_gap` µs when every stream of
    // every device is busy — the knee of the open-loop sweep.
    let capacity_gap = mean_exec / (devices * streams) as f64;
    let deadline_us = 12.0 * mean_exec;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "saturation: {requests_per_load} open-loop requests per offered load (seed {seed})"
    );
    let _ = writeln!(
        out,
        "  calibration: mean exec {mean_exec:.1} µs, capacity gap {capacity_gap:.1} µs \
         ({devices} devices × {streams} streams), deadline {deadline_us:.1} µs"
    );
    let mut load_rows = String::new();
    let mut overload_sheds = 0usize;
    for rho in [0.5f64, 1.0, 2.0, 4.0] {
        let gap = capacity_gap / rho;
        let workload = crate::serve::open_loop(requests_per_load, seed, gap, deadline_us);
        let (report, leaked) = run(&workload, None);
        conservation(
            &format!("load {rho}x"),
            &report,
            leaked,
            workload.requests.len(),
        )?;
        let latency = LatencySummary::from_requests(&report.requests);
        let goodput = if report.makespan_us > 0.0 {
            report.requests.len() as f64 / (report.makespan_us * 1e-6)
        } else {
            0.0
        };
        let shed_rate = report.sheds.len() as f64 / workload.requests.len() as f64;
        if rho >= 2.0 {
            overload_sheds += report.sheds.len();
        }
        let _ = writeln!(
            out,
            "  load {rho:.1}x: gap {gap:>7.1} µs — {:>3} accepted, {:>3} shed, {} rejected, \
             goodput {goodput:>8.0} req/s, p50 {:.1} / p99 {:.1} / p99.9 {:.1} µs",
            report.requests.len(),
            report.sheds.len(),
            report.rejections.len(),
            latency.p50_us,
            latency.p99_us,
            latency.p999_us,
        );
        if !load_rows.is_empty() {
            load_rows.push_str(",\n");
        }
        let _ = write!(
            load_rows,
            "    {{\"offered_x\": {rho:.1}, \"mean_gap_us\": {gap:.3}, \
             \"accepted\": {}, \"shed\": {}, \"rejected\": {}, \
             \"goodput_rps\": {goodput:.1}, \"shed_rate\": {shed_rate:.4}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}, \"max_us\": {:.3}}}",
            report.requests.len(),
            report.sheds.len(),
            report.rejections.len(),
            latency.p50_us,
            latency.p99_us,
            latency.p999_us,
            latency.max_us,
        );
    }
    if overload_sheds == 0 {
        return Err(err(
            "saturation: zero requests shed at ≥2x capacity — deadline admission never engaged",
        ));
    }

    // Mid-run quarantine under overload: chaos faults with a hair-trigger
    // threshold quarantine a device while the queue is deep; the survivors
    // must absorb its load without losing a single request.
    let q_workload =
        crate::serve::open_loop(requests_per_load, seed, capacity_gap / 2.0, deadline_us);
    let q_fault = crate::gpu_sim::FaultConfig::chaos(seed, 0.08);
    let (q_report, q_leaked) = run(&q_workload, Some((q_fault, 2)));
    conservation("quarantine", &q_report, q_leaked, q_workload.requests.len())?;
    if q_report.fault_stats.devices_quarantined == 0 {
        return Err(err(
            "saturation quarantine case: chaos faults never quarantined a device",
        ));
    }
    let _ = writeln!(
        out,
        "  quarantine at 2.0x (chaos:0.08, threshold 2): {} device(s) quarantined, \
         {} affinities rebalanced — {} accepted, {} shed, {} rejected, zero lost",
        q_report.fault_stats.devices_quarantined,
        q_report.overload.rebalanced,
        q_report.requests.len(),
        q_report.sheds.len(),
        q_report.rejections.len(),
    );
    let _ = writeln!(
        out,
        "saturation verdict: every request terminal exactly once, zero leaked bytes, \
         overload sheds engaged, quarantine absorbed"
    );

    let json = format!(
        "{{\n  \"bench\": \"saturation\",\n  \"seed\": {seed},\n  \
         \"requests_per_load\": {requests_per_load},\n  \"devices\": {devices},\n  \
         \"streams_per_device\": {streams},\n  \"mean_exec_us\": {mean_exec:.3},\n  \
         \"capacity_gap_us\": {capacity_gap:.3},\n  \"deadline_us\": {deadline_us:.3},\n  \
         \"loads\": [\n{load_rows}\n  ],\n  \
         \"quarantine\": {{\"offered_x\": 2.0, \"fault_rate\": 0.08, \
         \"devices_quarantined\": {}, \"affinities_rebalanced\": {}, \
         \"accepted\": {}, \"shed\": {}, \"rejected\": {}, \"lost\": 0, \
         \"leaked_bytes\": 0}}\n}}\n",
        q_report.fault_stats.devices_quarantined,
        q_report.overload.rebalanced,
        q_report.requests.len(),
        q_report.sheds.len(),
        q_report.rejections.len(),
    );
    let default_path = Path::new("BENCH_saturation.json");
    let path = out_path.unwrap_or(default_path);
    std::fs::write(path, &json)
        .map_err(|e| err(format!("cannot write {}: {e}", path.display())))?;
    let _ = writeln!(out, "wrote {}", path.display());
    Ok(out)
}

/// `modelcheck` subcommand: the model checker's full report
/// ([`crate::modelcheck::report`]). Exits non-zero on any refuted
/// property or any escaped mutation.
pub fn modelcheck() -> Result<String, CliError> {
    crate::modelcheck::report().map_err(err)
}

fn check_mode(tensor: &SparseTensorCoo, mode: usize) -> Result<(), CliError> {
    if mode >= tensor.order() {
        return Err(err(format!(
            "mode {} out of range for an order-{} tensor (modes are 1-based on \
             the command line)",
            mode + 1,
            tensor.order()
        )));
    }
    Ok(())
}

/// Usage text shown by the binary.
pub const USAGE: &str = "\
tensortool — unified sparse tensor operations on a simulated GPU

USAGE:
  tensortool info <file.tns>
  tensortool generate <brainq|nell2|delicious|nell1|uniform> <nnz> <out.tns>
  tensortool spttm <file.tns> <mode> <rank>
  tensortool mttkrp <file.tns> <mode> <rank>
  tensortool cp <file.tns> <rank> <iterations>
  tensortool bench <file.tns> <mode> <rank>
  tensortool preprocess <file.tns> <spttm|mttkrp|ttmc> <mode> <out.fcoo>
  tensortool run <file.fcoo> <rank>
  tensortool sanitize <file.tns> <spttm|mttkrp|ttmc> <mode> <rank>
  tensortool certify <file.tns> <mode> <rank> [out.json]
  tensortool workload <requests> <seed> <out.txt>
  tensortool serve <workload.txt|synthetic:N:SEED> [plan-dir] [--verify]
  tensortool chaos <workload.txt|synthetic:N:SEED> <schedule> <seed>
  tensortool profile <workload.txt|synthetic:N:SEED> [trace.json]
  tensortool golden [--bless]
  tensortool oocbench [out.json] [nnz]
  tensortool saturate [out.json]
  tensortool modelcheck

Modes are 1-based, matching the paper's notation. `sanitize` lints the
F-COO invariants and replays the kernel under the memory sanitizer
(racecheck, out-of-bounds, narration audit); it exits non-zero on findings.
`certify` is the static analyzer's front end (docs/ANALYZER.md): per
kernel it derives a provable [lo, hi] envelope on every configuration's
simulated kernel time from the F-COO headers alone, eliminates
envelope-dominated configurations with zero trial launches, and prints the
envelope matrix, the launches-avoided count and the planner's cross-format
selection (docs/FORMATS.md); for a 3-order tensor it also prints the
two-step baseline's exactly certified step-2 transactions over ideal. It
exits non-zero if any exhaustively measured time escapes its envelope, the
launched sweep's winner was pruned or dominated, or a format's certified
best payload fails the plan-load gate; with an out.json it writes the
BENCH_certify.json trajectory point.
`serve` replays a request workload (see docs/SERVING.md for the file
format) through the multi-tenant engine — plan cache, device memory pool,
multi-stream scheduler — and prints latency/throughput/cache-hit stats;
with a plan-dir, tuned plans persist across invocations for warm restarts.
`chaos` replays a workload with deterministic fault injection (schedules:
`quiet`, `chaos:<rate>`, or per-kind `ecc:<r>,launch:<r>,alloc:<r>,stall:<r>,
atomic:<r>`) and exits non-zero unless the engine recovers every request
with zero wrong results, zero lost requests, and zero leaked pool bytes —
see docs/FAULTS.md for the fault model and recovery ladder.
`profile` replays a workload with the tracing layer enabled, writes a
Chrome-trace/Perfetto JSON timeline (request lifecycle spans, per-stream
occupancy, per-launch wave spans) and prints the per-kernel counter report
with each plan's certified kernel-time envelope beside it — see
docs/PROFILING.md.
`golden` runs the golden-counter regression suite against the blessed
snapshot in crates/unified-tensors/golden/ (`--bless` re-snapshots after an
intentional cost-model change).
`oocbench` measures the out-of-core chunked pipeline (docs/OOC.md) against
the in-core path at three device-memory budgets too small for the full
F-COO format, verifies every result bit-exactly, and writes the
`BENCH_out_of_core.json` perf-trajectory point (throughput, chunk counts,
makespan over the certified floor); it exits non-zero on any rejection or
mismatch.
`saturate` sweeps a seeded open-loop (Poisson-ish) arrival process across
offered loads from half capacity to 4x capacity with per-request deadlines
(docs/SERVING.md, overload policy): past saturation the engine sheds the
provably late tail, goodput plateaus instead of collapsing, and a chaos
quarantine case checks survivors absorb a dead device with zero lost
requests. Writes the deterministic `BENCH_saturation.json` trajectory
point and exits non-zero on any conservation, leak or shedding failure.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseTensorCoo {
        datasets::generate(DatasetKind::Nell2, 2_000, 7).0
    }

    /// Long-fiber power-law tensor on which BF-COO certifies a strictly
    /// tighter time upper bound (mirrors the analyzer's selection test).
    fn skew_tensor() -> SparseTensorCoo {
        let (slices, jdim, kdim) = (400u32, 300u32, 2000u32);
        let mut entries = Vec::new();
        for s in 0..slices {
            let len = ((30_000.0 / f64::powf(s as f64 + 1.0, 1.3)) as u32).clamp(1, kdim);
            for t in 0..len {
                entries.push((vec![s, (s * 7) % jdim, (t * 13) % kdim], 1.0f32));
            }
        }
        SparseTensorCoo::from_entries(
            vec![slices as usize, jdim as usize, kdim as usize],
            &entries,
        )
    }

    /// Every 32-aligned run of every slice touches exactly 32 distinct
    /// rows, so bucket metadata proves nothing and F-COO wins the tie.
    fn uniform_tensor() -> SparseTensorCoo {
        let (slices, jdim, kdim) = (64u32, 300u32, 2000u32);
        let mut entries = Vec::new();
        for s in 0..slices {
            for t in 0..128u32 {
                entries.push((
                    vec![s, (s * 17 + t * 7) % jdim, (s + t * 13) % kdim],
                    1.0f32,
                ));
            }
        }
        SparseTensorCoo::from_entries(
            vec![slices as usize, jdim as usize, kdim as usize],
            &entries,
        )
    }

    #[test]
    fn info_reports_structure() {
        let text = info(&sample());
        assert!(text.contains("order:    3"));
        assert!(text.contains("density:"));
        assert!(text.contains("mode 1 slices:"));
        assert!(text.contains("gini"));
    }

    #[test]
    fn generate_then_load_round_trips() {
        let path = std::env::temp_dir().join("tensortool_test_gen.tns");
        let message = generate("nell2", 500, &path).unwrap();
        assert!(message.contains("wrote"));
        let loaded = load(&path).unwrap();
        assert!(loaded.nnz() >= 450);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generate_rejects_unknown_kind() {
        let path = std::env::temp_dir().join("tensortool_test_bad.tns");
        assert!(generate("zebra", 100, &path).is_err());
    }

    #[test]
    fn oocbench_emits_trajectory_point() {
        let path = std::env::temp_dir().join("tensortool_test_ooc.json");
        let text = oocbench(Some(&path), 6_000).unwrap();
        assert!(text.contains("in-core"));
        assert!(text.contains("budget 1/8"));
        assert!(text.contains("the certified floor"));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"bench\": \"out_of_core\""));
        assert!(json.contains("\"budgets\": ["));
        assert!(json.contains("\"certified_floor_us\""));
        assert!(json.contains("\"makespan_over_floor\""));
        assert!(json.contains("\"verify_failures\": 0"));
        // Deterministic: a second run writes byte-identical JSON.
        oocbench(Some(&path), 6_000).unwrap();
        assert_eq!(json, std::fs::read_to_string(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saturate_sheds_under_overload_and_is_deterministic() {
        let path = std::env::temp_dir().join("tensortool_test_saturation.json");
        let text = saturate(Some(&path)).unwrap();
        assert!(text.contains("load 4.0x"), "{text}");
        assert!(text.contains("saturation verdict:"), "{text}");
        assert!(text.contains("quarantine at 2.0x"), "{text}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"bench\": \"saturation\""), "{json}");
        assert!(json.contains("\"shed_rate\""), "{json}");
        assert!(json.contains("\"p999_us\""), "{json}");
        assert!(json.contains("\"lost\": 0"), "{json}");
        // Deterministic: a second run writes byte-identical JSON.
        saturate(Some(&path)).unwrap();
        assert_eq!(json, std::fs::read_to_string(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spttm_and_mttkrp_report_stats() {
        let tensor = sample();
        let a = spttm(&tensor, 2, 8).unwrap();
        assert!(a.contains("SpTTM(mode-3)"));
        assert!(a.contains("µs simulated"));
        let b = mttkrp(&tensor, 0, 8).unwrap();
        assert!(b.contains("SpMTTKRP(mode-1)"));
    }

    #[test]
    fn mode_bounds_are_checked() {
        let tensor = sample();
        assert!(spttm(&tensor, 3, 8).is_err());
        assert!(mttkrp(&tensor, 9, 8).is_err());
    }

    #[test]
    fn cp_reports_fit_and_lambda() {
        let tensor = sample();
        let text = cp(&tensor, 4, 3).unwrap();
        assert!(text.contains("fit"));
        assert!(text.contains("lambda:"));
        assert!(text.contains("two-stream makespan"));
    }

    #[test]
    fn bench_lists_all_implementations() {
        let tensor = sample();
        let text = bench(&tensor, 0, 8).unwrap();
        for needle in ["unified", "ParTI-GPU", "SPLATT", "ParTI-OMP"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn preprocess_then_run_cached() {
        let tensor = sample();
        let path = std::env::temp_dir().join("tensortool_test_pre.fcoo");
        let message = preprocess(&tensor, "mttkrp", 0, &path).unwrap();
        assert!(message.contains("SpMTTKRP(mode-1)"));
        let ran = run_cached(&path, 8).unwrap();
        assert!(ran.contains("µs simulated"), "{ran}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn preprocess_rejects_unknown_op() {
        let tensor = sample();
        let path = std::env::temp_dir().join("tensortool_test_badop.fcoo");
        assert!(preprocess(&tensor, "zebra", 0, &path).is_err());
    }

    #[test]
    fn load_rejects_missing_file() {
        assert!(load(Path::new("/nonexistent/definitely_missing.tns")).is_err());
    }

    #[test]
    fn sanitize_reports_clean_kernels() {
        let tensor = sample();
        let text = sanitize(&tensor, "mttkrp", 0, 8).unwrap();
        assert!(text.contains(" lint ("), "{text}");
        assert!(text.contains("no issues found"), "{text}");
        assert!(text.contains("recorded events"), "{text}");
    }

    #[test]
    fn sanitize_replays_the_planner_selected_format() {
        // On a high-skew tensor the planner certifiably selects BF-COO, so
        // the sanitizer replay must lint and replay the bucketed format —
        // the pre-refactor code path hardcoded "F-COO lint" here.
        let text = sanitize(&skew_tensor(), "mttkrp", 0, 8).unwrap();
        assert!(text.contains("bfcoo lint"), "{text}");
        assert!(text.contains("no issues found"), "{text}");
        // A saturating uniform tensor keeps the baseline.
        let text = sanitize(&uniform_tensor(), "mttkrp", 0, 8).unwrap();
        assert!(text.starts_with("fcoo lint"), "{text}");
    }

    #[test]
    fn sanitize_replays_the_serving_grid_pick() {
        // The serving grid reaches threadlen 4, which the paper grid lacks:
        // sanitize must replay the plan serving picks, T4 here.
        let tensor = sample();
        let op = TensorOp::SpMttkrp { mode: 0 };
        let (blocks, threadlens) = (&SERVE_BLOCK_SIZES[..], &SERVE_THREADLENS[..]);
        let config = DeviceConfig::titan_x();
        let choice =
            crate::analyzer::tune_select(&config, &tensor, op, 8, Some(blocks), Some(threadlens));
        assert_eq!(choice.chosen.threadlen, 4, "the serving pick is T4");
        let text = sanitize(&tensor, "mttkrp", 0, 8).unwrap();
        let partitions = tensor.nnz().div_ceil(4);
        assert!(
            text.contains(&format!(", {partitions} partitions)")),
            "{text}"
        );
        assert!(text.contains("no issues found"), "{text}");
    }

    #[test]
    fn sanitize_covers_every_op() {
        let tensor = sample();
        for op in ["spttm", "ttmc"] {
            let text = sanitize(&tensor, op, 2, 4).unwrap();
            assert!(text.contains("no issues found"), "{op}: {text}");
        }
    }

    #[test]
    fn sanitize_rejects_unknown_op() {
        assert!(sanitize(&sample(), "zebra", 0, 8).is_err());
    }

    #[test]
    fn certify_prints_envelopes_and_passes_both_gates() {
        let path = std::env::temp_dir().join("tensortool_test_certify.json");
        let text = certify(&sample(), 0, 8, Some(&path)).unwrap();
        for needle in [
            "SpTTM",
            "SpMTTKRP",
            "SpTTMc (mode 1, rank 8)",
            "trial launches avoided",
            "winner: B=",
            "gate: every measured trial lies within its certified envelope",
            // Every op's cross-format selection, both formats listed, and
            // each format's best payload through the plan-load gate.
            "  formats:",
            "    -> ",
            "fcoo ",
            "bfcoo",
            "format gate: every format's certified best payload passes the plan-load gate",
            // Fig. 3a: the two-step baseline's step 2 is uncoalesced.
            "two-step step 2 (B128 T8): ",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
        assert_eq!(text.matches("  formats:").count(), 3, "{text}");
        // The formats block is the serving planner's pick: the serving
        // grids, threadlen 4 included, not the paper grid above it.
        let config = DeviceConfig::titan_x();
        let (blocks, threadlens) = (&SERVE_BLOCK_SIZES[..], &SERVE_THREADLENS[..]);
        for op in [
            TensorOp::SpTtm { mode: 0 },
            TensorOp::SpMttkrp { mode: 0 },
            TensorOp::SpTtmc { mode: 0 },
        ] {
            let choice = crate::analyzer::tune_select(
                &config,
                &sample(),
                op,
                8,
                Some(blocks),
                Some(threadlens),
            );
            for line in choice.render().lines() {
                assert!(text.contains(&format!("    {line}\n")), "{op:?}: {line}");
            }
        }
        let ratio: f64 = text
            .split("are ideal (")
            .nth(1)
            .and_then(|rest| rest.split("x)").next())
            .and_then(|r| r.parse().ok())
            .expect("step-2 ratio");
        assert!(ratio > 2.0, "step 2 must be far from coalesced: {ratio}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"bench\": \"certify\""), "{json}");
        assert!(json.contains("\"launches_avoided\""), "{json}");
        assert!(json.contains("\"zero_launch_winner\""), "{json}");
        // Deterministic: a second run writes byte-identical JSON.
        certify(&sample(), 0, 8, Some(&path)).unwrap();
        assert_eq!(json, std::fs::read_to_string(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn certify_selects_the_format_by_certified_bound() {
        // High skew: BF-COO wins every op with a strictly lower certified
        // upper bound.
        let text = certify(&skew_tensor(), 0, 8, None).unwrap();
        assert_eq!(
            text.matches("selected bfcoo (strictly dominates").count(),
            3,
            "{text}"
        );
        // Saturating uniform: every aligned bucket run touches 32 distinct
        // rows, so the bucket stream is pure overhead and F-COO's certified
        // upper bound undercuts BF-COO's.
        let text = certify(&uniform_tensor(), 0, 8, None).unwrap();
        assert_eq!(
            text.matches("selected fcoo (strictly dominates").count(),
            3,
            "{text}"
        );
    }

    #[test]
    fn certify_checks_mode_bounds() {
        assert!(certify(&sample(), 9, 8, None).is_err());
    }

    #[test]
    fn workload_then_serve_round_trips() {
        let path = std::env::temp_dir().join("tensortool_test_workload.txt");
        let message = workload_gen(30, 7, &path).unwrap();
        assert!(message.contains("30 requests"), "{message}");
        let text = serve(path.to_str().unwrap(), None, false).unwrap();
        assert!(text.contains("hit rate"), "{text}");
        assert!(text.contains("p99"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_plan_dir_warm_restarts() {
        let dir = std::env::temp_dir().join("tensortool_test_plans");
        std::fs::remove_dir_all(&dir).ok();
        let first = serve("synthetic:20:5", Some(&dir), false).unwrap();
        assert!(first.contains("builds"), "{first}");
        // A fresh engine finds every plan on disk: no rebuilds.
        let second = serve("synthetic:20:5", Some(&dir), false).unwrap();
        assert!(second.contains("0 builds"), "{second}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_bad_specs() {
        assert!(serve("synthetic:zebra:5", None, false).is_err());
        assert!(serve("synthetic:20", None, false).is_err());
        assert!(serve("/nonexistent/workload.txt", None, false).is_err());
    }

    #[test]
    fn chaos_recovers_a_faulted_workload() {
        let text = chaos("synthetic:60:2017", "chaos:0.02", 7).unwrap();
        assert!(text.contains("faults:"), "{text}");
        assert!(text.contains("chaos verdict:"), "{text}");
        assert!(text.contains("zero wrong results"), "{text}");
    }

    #[test]
    fn chaos_quiet_schedule_injects_nothing() {
        let text = chaos("synthetic:20:3", "quiet", 1).unwrap();
        assert!(text.contains("chaos verdict: 0 faults injected"), "{text}");
        assert!(!text.contains("faults:"), "{text}");
    }

    #[test]
    fn chaos_accepts_per_kind_schedules() {
        let text = chaos("synthetic:30:5", "ecc:0.05,alloc:0.03", 2).unwrap();
        assert!(text.contains("chaos verdict:"), "{text}");
    }

    #[test]
    fn chaos_rejects_bad_schedules() {
        assert!(chaos("synthetic:5:1", "chaos:zebra", 1).is_err());
        assert!(chaos("synthetic:5:1", "meteor:0.1", 1).is_err());
        assert!(chaos("synthetic:5:1", "ecc", 1).is_err());
    }
}
