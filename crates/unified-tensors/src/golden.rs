//! Golden-counter regression suite for the simulated cost model.
//!
//! The profiler (gpu-sim's `trace` module) exposes every quantity the timing
//! model folds into a simulated duration: transactions, ideal transactions,
//! DRAM bytes, cache hits/misses, atomic lanes and multiplicities, waves and
//! warp occupancy. This module runs all kernel variants — unified SpTTM,
//! SpMTTKRP and SpTTMc, the atomic and BF-COO SpMTTKRP competitors, plus the
//! two-step SpMTTKRP baseline — over the four synthetic FROSTT stand-ins at
//! their tuned configurations, plus a chunked pipeline and a rank-64 SpTTM
//! on nell2, traced, and renders the raw counters (with
//! the bit pattern of the simulated duration) into a deterministic text
//! document.
//!
//! That document is snapshotted at `golden/counters.txt` next to this
//! crate's manifest. [`check`] re-renders and compares byte-for-byte, so any
//! drift in a cost-model constant, a narration call, or the wave fold fails
//! the suite; `tensortool golden --bless` (or [`bless`]) re-snapshots after
//! an intentional model change.

use crate::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Tuning grid used by the suite (the serving grid: small enough to keep the
/// suite fast, wide enough that tuned configs differ across datasets).
const BLOCK_SIZES: [usize; 3] = [64, 128, 256];
/// Threadlen half of the tuning grid.
const THREADLENS: [usize; 3] = [8, 16, 32];
/// Non-zeros per synthetic stand-in.
const NNZ: usize = 1_500;
/// Dataset generator seed.
const SEED: u64 = 42;
/// Factor rank.
const RANK: usize = 8;
/// Product/output mode (0-based).
const MODE: usize = 0;

/// The four FROSTT stand-ins of the paper's evaluation (Table IV).
const DATASETS: [(DatasetKind, &str); 4] = [
    (DatasetKind::Brainq, "brainq"),
    (DatasetKind::Nell2, "nell2"),
    (DatasetKind::Delicious, "delicious"),
    (DatasetKind::Nell1, "nell1"),
];

/// One traced kernel execution of the suite, paired with the certified
/// counter envelope the analyzer derives from the format headers alone.
struct GoldenRun {
    kernel: &'static str,
    block_size: usize,
    threadlen: usize,
    counters: gpu_sim::KernelCounters,
    envelope: analyzer::cost::CounterEnvelope,
}

fn factors(tensor: &SparseTensorCoo) -> Vec<DenseMatrix> {
    tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, RANK, 1 + m as u64))
        .collect()
}

/// The golden rows' tuning: the grid swept with the analyzer's structural
/// pruning (untraced).
fn tune(device: &GpuDevice, tensor: &SparseTensorCoo, op: TensorOp) -> fcoo::TuneResult {
    fcoo::tune_with_filter(
        device,
        tensor,
        op,
        RANK,
        Some(&BLOCK_SIZES),
        Some(&THREADLENS),
        analyzer::tune_filter(device.config(), &BLOCK_SIZES),
    )
}

/// Tunes (untraced), then runs one unified kernel traced on `device` and
/// returns the drained counters.
fn run_tuned(
    config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    op: TensorOp,
    kernel: &'static str,
) -> GoldenRun {
    // A fresh device per row keeps rows independent: cache state warmed by
    // one row's tuning or execution never leaks into another's counters.
    let device = &GpuDevice::new(config.clone());
    let tuned = tune(device, tensor, op);
    let (block_size, threadlen) = tuned.best_pair();
    let cfg = LaunchConfig {
        block_size,
        ..LaunchConfig::default()
    };
    let fcoo = Fcoo::from_coo(tensor, op, threadlen);
    // Host-side, header-only: touches nothing on the device, so the traced
    // counters below stay byte-identical to the pre-certifier suite.
    let envelope = analyzer::cost::certify(config, &fcoo, RANK, &cfg);
    let on_device = AnyFormatDevice::upload_as(device.memory(), FormatKind::Fcoo, &fcoo)
        .expect("golden upload");
    let hosts = factors(tensor);
    let uploaded: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("golden factor upload"))
        .collect();
    let refs: Vec<&DeviceMatrix> = op
        .factor_modes(hosts.len())
        .into_iter()
        .map(|m| &uploaded[m])
        .collect();
    device.start_tracing();
    on_device
        .launch(device, &refs, &cfg)
        .expect("golden unified launch");
    let counters = device.stop_tracing().counters();
    GoldenRun {
        kernel,
        block_size,
        threadlen,
        counters,
        envelope,
    }
}

/// Runs the unified SpMTTKRP with segmented scan disabled (COO-style
/// accumulation: one atomic per non-zero), traced. The tuned configurations
/// all enable segmented scan, so this row is what pins the atomic-contention
/// half of the cost model.
fn run_atomic_mttkrp(config: &DeviceConfig, tensor: &SparseTensorCoo) -> GoldenRun {
    let device = &GpuDevice::new(config.clone());
    let (block_size, threadlen) = (128, 8);
    let cfg = LaunchConfig {
        block_size,
        use_segscan: false,
        use_fusion: false,
        ..LaunchConfig::default()
    };
    let op = TensorOp::SpMttkrp { mode: MODE };
    let fcoo = Fcoo::from_coo(tensor, op, threadlen);
    let envelope = analyzer::cost::certify(config, &fcoo, RANK, &cfg);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("golden upload");
    let hosts = factors(tensor);
    let uploaded: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("golden factor upload"))
        .collect();
    let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
    device.start_tracing();
    spmttkrp(device, &on_device, &refs, &cfg).expect("golden atomic mttkrp");
    let counters = device.stop_tracing().counters();
    GoldenRun {
        kernel: "mttkrp-atomic",
        block_size,
        threadlen,
        counters,
        envelope,
    }
}

/// Runs the unified SpMTTKRP in BF-COO at the format-aware planner's tuned
/// BF-COO grid point, traced through the format-erased dispatch layer. The
/// bucketed schedule coalesces gathers within each 32-non-zero run, so these
/// rows pin the transaction/cache counters of the load-balanced competitor;
/// their envelopes come from `certify_format`, which charges the bucket
/// stream on top of the shared F-COO arithmetic.
fn run_bfcoo_mttkrp(config: &DeviceConfig, tensor: &SparseTensorCoo) -> GoldenRun {
    let device = &GpuDevice::new(config.clone());
    let op = TensorOp::SpMttkrp { mode: MODE };
    let choice = analyzer::tune_select(
        config,
        tensor,
        op,
        RANK,
        Some(&BLOCK_SIZES),
        Some(&THREADLENS),
    );
    let best = choice
        .candidates
        .iter()
        .find(|c| c.kind == FormatKind::BfCoo)
        .expect("planner certifies every format");
    let cfg = LaunchConfig {
        block_size: best.block_size,
        ..LaunchConfig::default()
    };
    let format = AnyFormat::build(FormatKind::BfCoo, tensor, op, best.threadlen);
    let envelope = analyzer::cost::certify_format(config, &format, RANK, &cfg);
    let on_device = format.upload(device.memory()).expect("golden bfcoo upload");
    let hosts = factors(tensor);
    let uploaded: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("golden factor upload"))
        .collect();
    let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
    device.start_tracing();
    on_device
        .spmttkrp(device, &refs, &cfg)
        .expect("golden bfcoo mttkrp");
    let counters = device.stop_tracing().counters();
    GoldenRun {
        kernel: "mttkrp-bfcoo",
        block_size: best.block_size,
        threadlen: best.threadlen,
        counters,
        envelope,
    }
}

/// Runs the unified SpMTTKRP through the out-of-core chunked executor,
/// traced: the format is split at `total_bytes / divisor` and streamed
/// chunk by chunk, so these rows pin the *aggregate* counters of a whole
/// chunk pipeline — launch count grows with the chunk count while the
/// arithmetic totals (transactions, DRAM traffic, atomics) must track the
/// in-core row, and any drift in the boundary-segment carry shows up in
/// the duration bit pattern.
fn run_chunked_mttkrp(
    config: &DeviceConfig,
    tensor: &SparseTensorCoo,
    divisor: usize,
    kernel: &'static str,
) -> GoldenRun {
    let device = &GpuDevice::new(config.clone());
    let (block_size, threadlen) = (128, 8);
    let cfg = LaunchConfig {
        block_size,
        ..LaunchConfig::default()
    };
    let op = TensorOp::SpMttkrp { mode: MODE };
    let fcoo = Fcoo::from_coo(tensor, op, threadlen);
    let budget = (fcoo.storage().total_bytes() / divisor).max(1);
    let plan = crate::fcoo::chunk::split(&fcoo, budget);
    let envelope =
        analyzer::cost::certify_chunked(config, FormatKind::Fcoo, &fcoo, &plan, RANK, &cfg);
    let hosts = factors(tensor);
    device.start_tracing();
    crate::ooc::run_chunked(device, FormatKind::Fcoo, &fcoo, &plan, &hosts, &cfg)
        .expect("golden chunked mttkrp");
    let counters = device.stop_tracing().counters();
    GoldenRun {
        kernel,
        block_size,
        threadlen,
        counters,
        envelope,
    }
}

/// Rank of the high-rank SpTTM row.
const WIDE_RANK: usize = 64;

/// Runs the unified SpTTM at rank 64 (the high end of Fig. 8) traced, at
/// the fixed `(128, 8)` point. Its 64 column blocks per partition range
/// make it the suite's widest grid, the only one whose wave count responds
/// when fewer blocks fit on the device (threads per SM, SM count); the
/// power-of-two row stride also pins the read-only cache's set indexing.
fn run_wide_spttm(config: &DeviceConfig, tensor: &SparseTensorCoo) -> GoldenRun {
    let device = &GpuDevice::new(config.clone());
    let (block_size, threadlen) = (128, 8);
    let cfg = LaunchConfig::with_block_size(block_size);
    let fcoo = Fcoo::from_coo(tensor, TensorOp::SpTtm { mode: MODE }, threadlen);
    let envelope = analyzer::cost::certify(config, &fcoo, WIDE_RANK, &cfg);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("golden upload");
    let host = DenseMatrix::random(tensor.shape()[MODE], WIDE_RANK, 1 + MODE as u64);
    let u = DeviceMatrix::upload(device.memory(), &host).expect("golden factor upload");
    device.start_tracing();
    spttm(device, &on_device, &u, &cfg).expect("golden rank-64 spttm");
    let counters = device.stop_tracing().counters();
    GoldenRun {
        kernel: "spttm-r64",
        block_size,
        threadlen,
        counters,
        envelope,
    }
}

/// Runs the two-step SpMTTKRP baseline traced, reusing the unified
/// SpMTTKRP's tuned configuration (exactly what the serving engine's
/// degradation ladder does).
fn run_two_step(config: &DeviceConfig, tensor: &SparseTensorCoo) -> GoldenRun {
    let device = &GpuDevice::new(config.clone());
    let tuned = tune(device, tensor, TensorOp::SpMttkrp { mode: MODE });
    let (block_size, threadlen) = tuned.best_pair();
    let cfg = LaunchConfig {
        block_size,
        ..LaunchConfig::default()
    };
    let envelope = analyzer::cost::certify_two_step(config, tensor, MODE, RANK, threadlen, &cfg)
        .expect("two-step runs only on 3-order tensors")
        .total;
    let hosts = factors(tensor);
    let refs: Vec<&DenseMatrix> = hosts.iter().collect();
    device.start_tracing();
    crate::fcoo::spmttkrp_two_step_unified(device, tensor, MODE, &refs, threadlen, &cfg)
        .expect("golden two-step");
    let counters = device.stop_tracing().counters();
    GoldenRun {
        kernel: "two-step-mttkrp",
        block_size,
        threadlen,
        counters,
        envelope,
    }
}

/// Runs every row of the suite (in snapshot order) and returns the traced
/// counters paired with their certified envelopes.
fn collect_runs(config: &DeviceConfig) -> Vec<(&'static str, GoldenRun)> {
    let mut all = Vec::new();
    for (kind, name) in DATASETS {
        let (tensor, _) = datasets::generate(kind, NNZ, 2017);
        let mut runs = vec![
            run_tuned(config, &tensor, TensorOp::SpTtm { mode: MODE }, "spttm"),
            run_tuned(config, &tensor, TensorOp::SpMttkrp { mode: MODE }, "mttkrp"),
            run_tuned(config, &tensor, TensorOp::SpTtmc { mode: MODE }, "ttmc"),
            run_atomic_mttkrp(config, &tensor),
            run_bfcoo_mttkrp(config, &tensor),
        ];
        if tensor.order() == 3 {
            runs.push(run_two_step(config, &tensor));
        }
        // The out-of-core pipeline on one dataset, at three chunk depths:
        // the same non-zeros streamed through 2, 4 and 8 format splits.
        if kind == DatasetKind::Nell2 {
            runs.push(run_chunked_mttkrp(config, &tensor, 2, "mttkrp-chunked/2"));
            runs.push(run_chunked_mttkrp(config, &tensor, 4, "mttkrp-chunked/4"));
            runs.push(run_chunked_mttkrp(config, &tensor, 8, "mttkrp-chunked/8"));
            runs.push(run_wide_spttm(config, &tensor));
        }
        all.extend(runs.into_iter().map(|run| (name, run)));
    }
    all
}

/// Renders the golden document for one device model. Every field is an
/// integer counter except the simulated duration, which is written both
/// human-readably and as its exact `f64` bit pattern — a one-ULP drift in
/// the wave fold flips the hex column even when `{:.3}` rounds identically.
pub fn render_with(config: &DeviceConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "golden counters: {} kernels x {} datasets + chunked pipeline + rank-{WIDE_RANK} spttm (nnz {NNZ}, seed {SEED}, rank {RANK}, mode {})",
        6,
        DATASETS.len(),
        MODE + 1
    );
    let _ = writeln!(out, "device: {}", config.name);
    let _ = writeln!(
        out,
        "columns: launches blocks waves launched-warps active-warps transactions \
         ideal dram-bytes ro-hits ro-misses atomic-lanes atomic-calls mult-sum \
         time-us time-bits"
    );
    for (name, run) in collect_runs(config) {
        let c = &run.counters;
        let _ = writeln!(
            out,
            "{name} {} B{} T{}: {} {} {} {} {} {} {} {} {} {} {} {} {} {:.3} {:016x}",
            run.kernel,
            run.block_size,
            run.threadlen,
            c.launches,
            c.blocks,
            c.waves,
            c.launched_warps,
            c.active_warps,
            c.transactions,
            c.ideal_transactions,
            c.dram_bytes,
            c.cache_hits,
            c.cache_misses,
            c.atomics,
            c.atomic_calls,
            c.atomic_multiplicity_sum,
            c.time_us,
            c.time_us.to_bits()
        );
    }
    out
}

/// Cross-checks every measured golden row against its certified envelope
/// (`lo ≤ measured ≤ hi`, field-wise). A violation is a soundness bug in
/// either the cost model or the kernels, so it fails loudly with one line
/// per violated bound; `Ok` summarizes how many rows were certified.
pub fn certify_check() -> Result<String, String> {
    certify_check_with(&DeviceConfig::titan_x())
}

/// [`certify_check`] against an arbitrary device model.
pub fn certify_check_with(config: &DeviceConfig) -> Result<String, String> {
    let runs = collect_runs(config);
    let mut failures = Vec::new();
    for (name, run) in &runs {
        for violation in run.envelope.violations(&run.counters) {
            failures.push(format!(
                "{name} {} B{} T{}: {violation}",
                run.kernel, run.block_size, run.threadlen
            ));
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "all {} golden rows lie within their certified envelopes",
            runs.len()
        ))
    } else {
        Err(format!(
            "certified envelope violations (soundness bug in the cost model \
             or the kernels):\n{}",
            failures.join("\n")
        ))
    }
}

/// Renders the golden document on the reference device (the paper's
/// Titan X).
pub fn render() -> String {
    render_with(&DeviceConfig::titan_x())
}

/// Where the blessed snapshot lives (inside this crate, so the suite works
/// from any working directory).
pub fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("counters.txt")
}

/// Re-renders the suite and compares it byte-for-byte against the blessed
/// snapshot. `Err` carries a human-readable diff of the first divergence.
pub fn check() -> Result<String, String> {
    let path = snapshot_path();
    let blessed = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "no blessed snapshot at {} ({e}); run `tensortool golden --bless`",
            path.display()
        )
    })?;
    let current = render();
    if current == blessed {
        return Ok(format!(
            "golden counters match {} ({} rows)",
            path.display(),
            current.lines().count().saturating_sub(3)
        ));
    }
    let mut message = format!(
        "golden counter drift against {} — if the cost-model change is \
         intentional, re-bless with `tensortool golden --bless`\n",
        path.display()
    );
    let mut diverged = 0;
    for (i, (want, got)) in blessed.lines().zip(current.lines()).enumerate() {
        if want != got && diverged < 5 {
            let _ = writeln!(
                message,
                "line {}:\n  blessed: {want}\n  current: {got}",
                i + 1
            );
            diverged += 1;
        }
    }
    if blessed.lines().count() != current.lines().count() {
        let _ = writeln!(
            message,
            "line count changed: blessed {} vs current {}",
            blessed.lines().count(),
            current.lines().count()
        );
    }
    Err(message)
}

/// Renders and writes the snapshot, creating `golden/` if needed.
pub fn bless() -> Result<String, String> {
    let path = snapshot_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let current = render();
    std::fs::write(&path, &current).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(format!(
        "blessed {} ({} rows)",
        path.display(),
        current.lines().count().saturating_sub(3)
    ))
}
