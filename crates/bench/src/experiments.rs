//! One runner per table/figure of the paper's evaluation section.
//!
//! Conventions:
//! * GPU implementations (unified, ParTI-GPU) report **simulated** µs from
//!   the analytic device model; CPU implementations (ParTI-OMP, SPLATT)
//!   report wall-clock µs — the same mixed comparison the paper makes.
//! * Memory (Fig. 9) and out-of-memory verdicts are additionally **projected
//!   to paper scale**: per-non-zero and per-row byte costs are measured on
//!   the synthetic datasets and extrapolated to Table IV's full sizes,
//!   mirroring the paper's own "computed by hand from ParTI's source"
//!   methodology for the OOM cases.

use crate::table::{fmt_us, fmt_x, TextTable};
use crate::{bench_datasets, make_factors};
use unified_tensors::prelude::*;
use unified_tensors::tensor_core::ops;

/// Rank used throughout the speedup experiments (paper: 16).
pub const SPEEDUP_RANK: usize = 16;

// ---------------------------------------------------------------------------
// Tables I, III, IV — setup tables
// ---------------------------------------------------------------------------

/// Table I: mode classification per operation.
pub fn table1_text() -> String {
    let mut t = TextTable::new(&["operation", "product modes", "index modes", "sort order"]);
    for op in [
        TensorOp::SpTtm { mode: 2 },
        TensorOp::SpMttkrp { mode: 0 },
        TensorOp::SpTtmc { mode: 0 },
    ] {
        let c = unified_tensors::fcoo::ModeClassification::classify(op, 3);
        let one_based = |modes: &[usize]| {
            modes
                .iter()
                .map(|m| (m + 1).to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        t.row(vec![
            op.label(),
            one_based(&c.product_modes),
            one_based(&c.index_modes),
            one_based(&c.sort_order()),
        ]);
    }
    t.render()
}

/// Table III: platform configuration (simulated device + host CPU).
pub fn table3_text() -> String {
    let device = GpuDevice::titan_x();
    let cpu = unified_tensors::cpu_par::cpu_info();
    format!(
        "{}\nHost CPU pool (ParTI-OMP / SPLATT substitute): {} workers on {} logical cores\n",
        device.config().table_rows(),
        cpu.pool_threads,
        cpu.logical_cores
    )
}

/// Table IV: dataset descriptions at the current scale.
pub fn table4_rows(nnz: usize) -> TextTable {
    let mut t = TextTable::new(&[
        "dataset",
        "order",
        "mode sizes",
        "nnz",
        "density",
        "paper nnz",
    ]);
    for (_, info) in bench_datasets(nnz) {
        let dims: Vec<String> = info.shape.iter().map(|s| s.to_string()).collect();
        t.row(vec![
            info.name.clone(),
            info.shape.len().to_string(),
            dims.join("x"),
            info.nnz.to_string(),
            format!("{:.1e}", info.density),
            format!("{:.0e}", info.paper_nnz as f64),
        ]);
    }
    t
}

// ---------------------------------------------------------------------------
// Table II — storage costs
// ---------------------------------------------------------------------------

/// Table II: COO vs F-COO bytes, measured and closed-form.
pub fn table2_rows(nnz: usize) -> TextTable {
    let mut t = TextTable::new(&[
        "dataset",
        "op",
        "COO B",
        "F-COO model B",
        "F-COO total B",
        "model formula",
        "saving",
    ]);
    for (tensor, info) in bench_datasets(nnz) {
        let n = tensor.nnz();
        let coo = unified_tensors::fcoo::table2_coo_bytes(3, n);
        for (op, product_modes) in [
            (TensorOp::SpTtm { mode: 2 }, 1usize),
            (TensorOp::SpMttkrp { mode: 0 }, 2usize),
        ] {
            let threadlen = 8;
            let fcoo = Fcoo::from_coo(&tensor, op, threadlen);
            let breakdown = fcoo.storage();
            let formula = unified_tensors::fcoo::table2_fcoo_bytes(product_modes, n, threadlen);
            t.row(vec![
                info.name.clone(),
                op.label(),
                coo.to_string(),
                breakdown.paper_model_bytes().to_string(),
                breakdown.total_bytes().to_string(),
                format!("{formula:.0}"),
                format!(
                    "{:.1}%",
                    100.0 * (1.0 - breakdown.total_bytes() as f64 / coo as f64)
                ),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------------
// Fig. 5 / Table V — parameter tuning
// ---------------------------------------------------------------------------

/// One tuning run: dataset, operation, full surface, best pair.
pub struct TuningReport {
    /// Dataset name.
    pub dataset: String,
    /// Operation label.
    pub op: String,
    /// The sweep result.
    pub result: unified_tensors::fcoo::TuneResult,
}

/// Fig. 5: the full `(BLOCK_SIZE, threadlen)` surfaces for SpMTTKRP mode-1
/// on brainq and nell1.
pub fn fig5_surfaces(nnz: usize) -> Vec<TuningReport> {
    let device = GpuDevice::titan_x();
    [DatasetKind::Brainq, DatasetKind::Nell1]
        .iter()
        .map(|&kind| {
            let (tensor, info) = datasets::generate(kind, nnz, 2017);
            let result = unified_tensors::fcoo::tune(
                &device,
                &tensor,
                TensorOp::SpMttkrp { mode: 0 },
                SPEEDUP_RANK,
                None,
                None,
            );
            TuningReport {
                dataset: info.name,
                op: "SpMTTKRP(mode-1)".into(),
                result,
            }
        })
        .collect()
}

/// Renders a tuning surface as a `threadlen × BLOCK_SIZE` grid of µs.
pub fn render_surface(report: &TuningReport) -> String {
    let blocks = unified_tensors::fcoo::BLOCK_SIZES;
    let lens = unified_tensors::fcoo::THREADLENS;
    let mut header: Vec<String> = vec!["tl\\bs".into()];
    header.extend(blocks.iter().map(|b| b.to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = TextTable::new(&header_refs);
    for &tl in &lens {
        let mut row = vec![tl.to_string()];
        for &bs in &blocks {
            let point = report
                .result
                .surface
                .iter()
                .find(|p| p.block_size == bs && p.threadlen == tl);
            row.push(point.map_or("-".into(), |p| fmt_us(p.time_us)));
        }
        t.row(row);
    }
    let (bs, tl) = report.result.best_pair();
    format!(
        "{} {} — best (BLOCK_SIZE={bs}, threadlen={tl})\n{}",
        report.dataset,
        report.op,
        t.render()
    )
}

/// Table V: best `(BLOCK_SIZE, threadlen)` per dataset and operation.
pub fn table5_best(nnz: usize) -> TextTable {
    let device = GpuDevice::titan_x();
    let mut t = TextTable::new(&["op", "nell1", "delicious", "nell2", "brainq"]);
    for (op_name, op) in [
        ("SpTTM(mode-3)", TensorOp::SpTtm { mode: 2 }),
        ("SpMTTKRP(mode-1)", TensorOp::SpMttkrp { mode: 0 }),
    ] {
        let mut row = vec![op_name.to_string()];
        for (tensor, _) in bench_datasets(nnz) {
            let result = unified_tensors::fcoo::tune(
                &device,
                &tensor,
                op,
                SPEEDUP_RANK,
                Some(&[32, 128, 512, 1024]),
                Some(&[8, 16, 32, 64]),
            );
            let (bs, tl) = result.best_pair();
            row.push(format!("({bs},{tl})"));
        }
        t.row(row);
    }
    t
}

// ---------------------------------------------------------------------------
// Fig. 6 — speedups over ParTI-OMP
// ---------------------------------------------------------------------------

/// One dataset's timings for a speedup figure.
pub struct SpeedupRow {
    /// Dataset name.
    pub dataset: String,
    /// ParTI-OMP wall-clock µs (the baseline).
    pub parti_omp_us: f64,
    /// ParTI-GPU simulated µs; `None` when projected out-of-memory.
    pub parti_gpu_us: Option<f64>,
    /// SPLATT wall-clock µs (MTTKRP only).
    pub splatt_us: Option<f64>,
    /// Unified simulated µs.
    pub unified_us: f64,
}

/// Fig. 6a: SpTTM mode-3 at rank 16 across the four datasets.
pub fn fig6a(nnz: usize) -> Vec<SpeedupRow> {
    let device = GpuDevice::titan_x();
    bench_datasets(nnz)
        .into_iter()
        .map(|(tensor, info)| {
            let u_host = DenseMatrix::random(tensor.shape()[2], SPEEDUP_RANK, 5);
            let prepared = SortedCoo::for_spttm(&tensor, 2);
            let (omp_result, omp_us) = spttm_omp(&prepared, &u_host);
            let (gpu_result, gpu_stats) =
                spttm_fiber_gpu(&device, &prepared, &u_host).expect("fits");
            let (unified_result, unified_stats) =
                run_unified_spttm(&device, &tensor, 2, &u_host, 16, 128);
            let reference = ops::spttm(&tensor, 2, &u_host);
            for (name, result) in [
                ("omp", &omp_result),
                ("parti-gpu", &gpu_result),
                ("unified", &unified_result),
            ] {
                let diff = result.max_abs_diff(&reference).expect("fiber sets");
                assert!(diff < 1e-2, "{name} diverged on {}: {diff}", info.name);
            }
            SpeedupRow {
                dataset: info.name,
                parti_omp_us: omp_us,
                parti_gpu_us: Some(gpu_stats.time_us),
                splatt_us: None,
                unified_us: unified_stats.time_us,
            }
        })
        .collect()
}

/// Fig. 6b: SpMTTKRP mode-1 at rank 16 across the four datasets. ParTI-GPU
/// entries are `None` where the paper-scale projection exceeds the Titan X's
/// 12 GB (nell1, delicious — §V-A).
pub fn fig6b(nnz: usize) -> Vec<SpeedupRow> {
    let device = GpuDevice::titan_x();
    bench_datasets(nnz)
        .into_iter()
        .map(|(tensor, info)| {
            let hosts = make_factors(&tensor, SPEEDUP_RANK, 7);
            let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
            let prepared = SortedCoo::for_spmttkrp(&tensor, 0);
            let (_, omp_us) = spmttkrp_omp(&prepared, &host_refs);
            let csf = Csf::build(&tensor, 0);
            let (_, splatt_us) = mttkrp_csf(&csf, &host_refs);
            let projection = fig9_row(&tensor, &info, SPEEDUP_RANK);
            let parti_gpu_us = if projection.parti_paper_gb > 12.0 {
                None
            } else {
                let (_, stats, _) =
                    spmttkrp_two_step_gpu(&device, &tensor, 0, &host_refs).expect("fits");
                Some(stats.time_us)
            };
            let (_, unified_stats) = run_unified_mttkrp(&device, &tensor, 0, &hosts, 16, 128);
            SpeedupRow {
                dataset: info.name,
                parti_omp_us: omp_us,
                parti_gpu_us,
                splatt_us: Some(splatt_us),
                unified_us: unified_stats.time_us,
            }
        })
        .collect()
}

/// Renders a speedup figure as a table of times and speedups over ParTI-OMP.
pub fn render_speedups(rows: &[SpeedupRow], with_splatt: bool) -> String {
    let mut header = vec!["dataset", "ParTI-OMP", "ParTI-GPU", "Unified"];
    if with_splatt {
        header.insert(3, "SPLATT");
    }
    header.push("GPU x");
    if with_splatt {
        header.push("SPLATT x");
    }
    header.push("Unified x");
    let mut t = TextTable::new(&header);
    for row in rows {
        let mut cells = vec![
            row.dataset.clone(),
            fmt_us(row.parti_omp_us),
            row.parti_gpu_us.map_or("OOM".into(), fmt_us),
        ];
        if with_splatt {
            cells.push(row.splatt_us.map_or("-".into(), fmt_us));
        }
        cells.push(fmt_us(row.unified_us));
        cells.push(
            row.parti_gpu_us
                .map_or("-".into(), |t| fmt_x(row.parti_omp_us / t)),
        );
        if with_splatt {
            cells.push(
                row.splatt_us
                    .map_or("-".into(), |t| fmt_x(row.parti_omp_us / t)),
            );
        }
        cells.push(fmt_x(row.parti_omp_us / row.unified_us));
        t.row(cells);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Fig. 7 — mode behaviour on brainq
// ---------------------------------------------------------------------------

/// Per-mode times for one implementation.
pub struct ModeRow {
    /// Implementation name.
    pub implementation: String,
    /// Time per mode (µs).
    pub mode_us: [f64; 3],
}

/// Fig. 7a: SpTTM per mode on brainq (ParTI-GPU vs unified).
pub fn fig7_spttm(nnz: usize) -> Vec<ModeRow> {
    let device = GpuDevice::titan_x();
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, nnz, 2017);
    let mut parti = [0.0f64; 3];
    let mut unified = [0.0f64; 3];
    for mode in 0..3 {
        let u_host = DenseMatrix::random(tensor.shape()[mode], SPEEDUP_RANK, 9);
        let prepared = SortedCoo::for_spttm(&tensor, mode);
        let (_, stats) = spttm_fiber_gpu(&device, &prepared, &u_host).expect("fits");
        parti[mode] = stats.time_us;
        let (_, stats) = run_unified_spttm(&device, &tensor, mode, &u_host, 16, 128);
        unified[mode] = stats.time_us;
    }
    vec![
        ModeRow {
            implementation: "ParTI-GPU".into(),
            mode_us: parti,
        },
        ModeRow {
            implementation: "Unified".into(),
            mode_us: unified,
        },
    ]
}

/// Fig. 7b: SpMTTKRP per mode on brainq (ParTI-GPU, SPLATT, unified).
pub fn fig7_spmttkrp(nnz: usize) -> Vec<ModeRow> {
    let device = GpuDevice::titan_x();
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, nnz, 2017);
    let hosts = make_factors(&tensor, SPEEDUP_RANK, 11);
    let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
    let mut parti = [0.0f64; 3];
    let mut splatt = [0.0f64; 3];
    let mut unified = [0.0f64; 3];
    for mode in 0..3 {
        let (_, stats, _) =
            spmttkrp_two_step_gpu(&device, &tensor, mode, &host_refs).expect("fits");
        parti[mode] = stats.time_us;
        let csf = Csf::build(&tensor, mode);
        let (_, elapsed) = mttkrp_csf(&csf, &host_refs);
        splatt[mode] = elapsed;
        let (_, stats) = run_unified_mttkrp(&device, &tensor, mode, &hosts, 16, 128);
        unified[mode] = stats.time_us;
    }
    vec![
        ModeRow {
            implementation: "ParTI-GPU".into(),
            mode_us: parti,
        },
        ModeRow {
            implementation: "SPLATT".into(),
            mode_us: splatt,
        },
        ModeRow {
            implementation: "Unified".into(),
            mode_us: unified,
        },
    ]
}

/// Renders a mode-behaviour table with the max/min variation gauge.
pub fn render_modes(rows: &[ModeRow]) -> String {
    let mut t = TextTable::new(&["implementation", "mode-1", "mode-2", "mode-3", "max/min"]);
    for row in rows {
        let max = row.mode_us.iter().copied().fold(0.0f64, f64::max);
        let min = row.mode_us.iter().copied().fold(f64::INFINITY, f64::min);
        t.row(vec![
            row.implementation.clone(),
            fmt_us(row.mode_us[0]),
            fmt_us(row.mode_us[1]),
            fmt_us(row.mode_us[2]),
            format!("{:.2}", max / min),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Fig. 8 — rank behaviour
// ---------------------------------------------------------------------------

/// SpTTM time vs rank for one dataset and implementation.
pub struct RankRow {
    /// Implementation + dataset label.
    pub label: String,
    /// `(rank, µs)` series.
    pub series: Vec<(usize, f64)>,
}

/// Fig. 8: SpTTM time for ranks {8, 16, 32, 64} on brainq and nell2,
/// unified vs ParTI-GPU.
pub fn fig8(nnz: usize) -> Vec<RankRow> {
    let device = GpuDevice::titan_x();
    let ranks = [8usize, 16, 32, 64];
    let mut rows = Vec::new();
    for kind in [DatasetKind::Brainq, DatasetKind::Nell2] {
        let (tensor, info) = datasets::generate(kind, nnz, 2017);
        let mut unified_series = Vec::new();
        let mut parti_series = Vec::new();
        for &rank in &ranks {
            let u_host = DenseMatrix::random(tensor.shape()[2], rank, 13);
            let (_, stats) = run_unified_spttm(&device, &tensor, 2, &u_host, 16, 128);
            unified_series.push((rank, stats.time_us));
            let prepared = SortedCoo::for_spttm(&tensor, 2);
            let (_, stats) = spttm_fiber_gpu(&device, &prepared, &u_host).expect("fits");
            parti_series.push((rank, stats.time_us));
        }
        rows.push(RankRow {
            label: format!("Unified ({})", info.name),
            series: unified_series,
        });
        rows.push(RankRow {
            label: format!("ParTI-GPU ({})", info.name),
            series: parti_series,
        });
    }
    rows
}

/// Renders the rank series plus the absolute slope over the sweep — what
/// Fig. 8 plots ("the execution time of ParTI increases at a faster rate").
pub fn render_ranks(rows: &[RankRow]) -> String {
    let mut header: Vec<String> = vec!["series".into()];
    if let Some(first) = rows.first() {
        header.extend(first.series.iter().map(|(r, _)| format!("R={r}")));
    }
    header.push("slope".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = TextTable::new(&header_refs);
    for row in rows {
        let mut cells = vec![row.label.clone()];
        cells.extend(row.series.iter().map(|&(_, us)| fmt_us(us)));
        let (first, last) = match (row.series.first(), row.series.last()) {
            (Some(first), Some(last)) => (first.1, last.1),
            _ => continue,
        };
        let slope = last - first;
        cells.push(format!("+{}", fmt_us(slope)));
        t.row(cells);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Fig. 9 — GPU memory consumption
// ---------------------------------------------------------------------------

/// Operation-specific memory for SpMTTKRP mode-1 (factors excluded: they are
/// identical across implementations), measured at the current scale and
/// projected to the paper's full dataset sizes.
pub struct MemoryRow {
    /// Dataset name.
    pub dataset: String,
    /// ParTI-GPU bytes at this scale (sorted COO + intermediate + output).
    pub parti_bytes: usize,
    /// Unified bytes at this scale (F-COO + one output row per segment).
    pub unified_bytes: usize,
    /// ParTI-GPU projection at paper scale, GB.
    pub parti_paper_gb: f64,
    /// Unified projection at paper scale, GB.
    pub unified_paper_gb: f64,
}

/// Computes one Fig. 9 row.
pub fn fig9_row(tensor: &SparseTensorCoo, info: &DatasetInfo, rank: usize) -> MemoryRow {
    let nnz = tensor.nnz();
    let fibers = tensor.count_distinct(&[0, 1]);
    let out_rows = tensor.shape()[0];
    // ParTI: sorted COO (16 B/nnz) + fiber pointers + the semi-sparse
    // intermediate (R floats + 2 coords per fiber) + the dense output.
    let parti_bytes = 16 * nnz + 4 * (fibers + 1) + fibers * (4 * rank + 8) + out_rows * rank * 4;
    // Unified: F-COO (everything measured, auxiliary arrays included) +
    // the output it allocates, one row per segment (per distinct mode-1
    // coordinate); ParTI's output is dense.
    let fcoo = Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
    let segments = fcoo.segments();
    let unified_bytes = fcoo.storage().total_bytes() + segments * rank * 4;
    // Paper-scale projection: nnz-proportional terms scale by the nnz ratio;
    // row-proportional terms (ParTI's dense output, resident factor
    // matrices) use the paper's Table IV mode sizes directly. Segments
    // scale with the nnz too, but never past the mode size.
    let scale = info.paper_nnz as f64 / nnz as f64;
    let fiber_ratio = fibers as f64 / nnz as f64;
    let paper_nnz = info.paper_nnz as f64;
    let paper_fibers = fiber_ratio * paper_nnz;
    let paper_kind = DatasetKind::PAPER.iter().find(|k| k.name() == info.name);
    let paper_rows = paper_kind.map_or(out_rows as f64 * scale, |k| k.paper_shape()[0] as f64);
    let paper_factor_rows: f64 = paper_kind.map_or(
        tensor.shape().iter().map(|&s| s as f64).sum::<f64>() * scale,
        |k| k.paper_shape().iter().map(|&s| s as f64).sum(),
    );
    let factor_bytes = paper_factor_rows * rank as f64 * 4.0;
    let gb = 1024.0 * 1024.0 * 1024.0;
    let parti_paper_gb = (16.0 * paper_nnz
        + paper_fibers * (4.0 * rank as f64 + 8.0)
        + paper_rows * rank as f64 * 4.0
        + factor_bytes)
        / gb;
    let paper_segments = (segments as f64 / nnz as f64 * paper_nnz).min(paper_rows);
    let unified_paper_gb = ((fcoo.storage().total_bytes() as f64 / nnz as f64) * paper_nnz
        + paper_segments * rank as f64 * 4.0
        + factor_bytes)
        / gb;
    MemoryRow {
        dataset: info.name.clone(),
        parti_bytes,
        unified_bytes,
        parti_paper_gb,
        unified_paper_gb,
    }
}

/// Fig. 9 across the four datasets.
pub fn fig9(nnz: usize) -> Vec<MemoryRow> {
    bench_datasets(nnz)
        .iter()
        .map(|(tensor, info)| fig9_row(tensor, info, SPEEDUP_RANK))
        .collect()
}

/// Renders Fig. 9 with measured bytes, projections and reduction.
pub fn render_memory(rows: &[MemoryRow]) -> String {
    let mut t = TextTable::new(&[
        "dataset",
        "ParTI B",
        "Unified B",
        "reduction",
        "ParTI@paper",
        "Unified@paper",
        "fits 12GB?",
    ]);
    for row in rows {
        t.row(vec![
            row.dataset.clone(),
            row.parti_bytes.to_string(),
            row.unified_bytes.to_string(),
            format!(
                "{:.1}%",
                100.0 * (1.0 - row.unified_bytes as f64 / row.parti_bytes as f64)
            ),
            format!("{:.2} GB", row.parti_paper_gb),
            format!("{:.2} GB", row.unified_paper_gb),
            if row.parti_paper_gb > 12.0 {
                "ParTI OOM".into()
            } else {
                "both".to_string()
            },
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Fig. 10 — CP decomposition
// ---------------------------------------------------------------------------

/// Fig. 10: CP-ALS time breakdown, SPLATT vs unified, on brainq and nell2 at
/// rank 8.
pub fn fig10(nnz: usize) -> Vec<(String, CpRun)> {
    let opts = CpOptions {
        rank: 8,
        max_iters: 5,
        tol: 1e-7,
        seed: 3,
    };
    let mut out = Vec::new();
    for kind in [DatasetKind::Brainq, DatasetKind::Nell2] {
        let (tensor, info) = datasets::generate(kind, nnz, 2017);
        let mut splatt = SplattEngine::new(&tensor);
        out.push((
            format!("{}-SPLATT", info.name),
            cp_als(&tensor, &mut splatt, &opts).expect("SPLATT computes every MTTKRP"),
        ));
        let device = GpuDevice::titan_x();
        let mut unified =
            UnifiedGpuEngine::new(&device, &tensor, 16, LaunchConfig::default().block_size)
                .expect("fits");
        out.push((
            format!("{}-Unified", info.name),
            cp_als(&tensor, &mut unified, &opts).expect("device sized for CP-ALS"),
        ));
    }
    out
}

/// Renders the CP breakdown (per-mode MTTKRP + other), Fig. 10 style.
pub fn render_cp(runs: &[(String, CpRun)]) -> String {
    let mut t = TextTable::new(&[
        "configuration",
        "mode1-mttkrp",
        "mode2-mttkrp",
        "mode3-mttkrp",
        "other",
        "total",
        "2-stream",
        "fit",
    ]);
    for (label, run) in runs {
        t.row(vec![
            label.clone(),
            fmt_us(run.mode_us[0]),
            fmt_us(run.mode_us[1]),
            fmt_us(run.mode_us[2]),
            fmt_us(run.other_us),
            fmt_us(run.total_us()),
            run.overlapped_total_us.map_or("-".into(), fmt_us),
            format!("{:.4}", run.fit),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md design-choice experiments)
// ---------------------------------------------------------------------------

/// One ablation comparison: optimization on vs off.
pub struct AblationRow {
    /// What was toggled.
    pub name: String,
    /// µs with the optimization enabled.
    pub on_us: f64,
    /// µs with it disabled.
    pub off_us: f64,
}

/// Ablates segmented scan, read-only cache and kernel fusion on the unified
/// SpMTTKRP (brainq, rank 16).
pub fn ablations(nnz: usize) -> Vec<AblationRow> {
    let device = GpuDevice::titan_x();
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, nnz, 2017);
    let hosts = make_factors(&tensor, SPEEDUP_RANK, 21);
    let run = |cfg: &LaunchConfig| -> f64 {
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 16);
        let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("fits");
        let factors: Vec<DeviceMatrix> = hosts
            .iter()
            .map(|f| DeviceMatrix::upload(device.memory(), f).expect("fits"))
            .collect();
        let refs: Vec<&DeviceMatrix> = factors.iter().collect();
        let (_, stats) =
            unified_tensors::fcoo::spmttkrp(&device, &on_device, &refs, cfg).expect("kernel");
        stats.time_us
    };
    let base = LaunchConfig::default();
    let on_us = run(&base);
    // Fig. 3: one-shot vs two-step with a materialized intermediate, both
    // on unified kernels.
    let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
    let two_step = unified_tensors::fcoo::spmttkrp_two_step_unified(
        &device, &tensor, 0, &host_refs, 16, &base,
    )
    .expect("fits");
    vec![
        AblationRow {
            name: "one-shot (vs two-step intermediate, Fig. 3)".into(),
            on_us,
            off_us: two_step.stats.time_us,
        },
        AblationRow {
            name: "segmented scan (vs per-nnz atomics)".into(),
            on_us,
            off_us: run(&LaunchConfig {
                use_segscan: false,
                ..base.clone()
            }),
        },
        AblationRow {
            name: "read-only cache (vs plain global loads)".into(),
            on_us,
            off_us: run(&LaunchConfig {
                use_rocache: false,
                ..base.clone()
            }),
        },
        AblationRow {
            name: "kernel fusion (vs separate carry kernel)".into(),
            on_us,
            off_us: run(&LaunchConfig {
                use_fusion: false,
                ..base.clone()
            }),
        },
    ]
}

/// Renders the ablation table.
pub fn render_ablations(rows: &[AblationRow]) -> String {
    let mut t = TextTable::new(&["optimization", "on", "off", "benefit"]);
    for row in rows {
        t.row(vec![
            row.name.clone(),
            fmt_us(row.on_us),
            fmt_us(row.off_us),
            fmt_x(row.off_us / row.on_us),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Device sensitivity (extension: "other hardware platforms")
// ---------------------------------------------------------------------------

/// Unified vs ParTI-GPU SpMTTKRP on two device generations.
pub struct DeviceRow {
    /// Device name.
    pub device: String,
    /// Unified simulated µs.
    pub unified_us: f64,
    /// ParTI-GPU simulated µs.
    pub parti_us: f64,
}

/// Runs the rank-16 SpMTTKRP comparison on the Maxwell Titan X and the
/// Pascal P100: the unified method's advantage must persist across
/// hardware generations (the paper's portability claim, §I).
pub fn device_sensitivity(nnz: usize) -> Vec<DeviceRow> {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, nnz, 2017);
    let hosts = make_factors(&tensor, SPEEDUP_RANK, 13);
    let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
    [DeviceConfig::titan_x(), DeviceConfig::pascal_p100()]
        .into_iter()
        .map(|config| {
            let name = config.name.clone();
            let device = GpuDevice::new(config);
            let (_, unified) = run_unified_mttkrp(&device, &tensor, 0, &hosts, 16, 128);
            let (_, parti, _) =
                spmttkrp_two_step_gpu(&device, &tensor, 0, &host_refs).expect("fits");
            DeviceRow {
                device: name,
                unified_us: unified.time_us,
                parti_us: parti.time_us,
            }
        })
        .collect()
}

/// Renders the device-sensitivity table.
pub fn render_devices(rows: &[DeviceRow]) -> String {
    let mut t = TextTable::new(&["device", "Unified", "ParTI-GPU", "speedup"]);
    for row in rows {
        t.row(vec![
            row.device.clone(),
            fmt_us(row.unified_us),
            fmt_us(row.parti_us),
            fmt_x(row.parti_us / row.unified_us),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Shared kernel launchers
// ---------------------------------------------------------------------------

/// Runs the unified SpTTM end to end (preprocess, upload, launch).
pub fn run_unified_spttm(
    device: &GpuDevice,
    tensor: &SparseTensorCoo,
    mode: usize,
    u_host: &DenseMatrix,
    threadlen: usize,
    block_size: usize,
) -> (SemiSparseTensor, KernelStats) {
    let fcoo = Fcoo::from_coo(tensor, TensorOp::SpTtm { mode }, threadlen);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("fits");
    let u = DeviceMatrix::upload(device.memory(), u_host).expect("fits");
    let cfg = LaunchConfig {
        block_size,
        ..Default::default()
    };
    unified_tensors::fcoo::spttm(device, &on_device, &u, &cfg).expect("kernel")
}

/// Runs the unified SpMTTKRP end to end.
pub fn run_unified_mttkrp(
    device: &GpuDevice,
    tensor: &SparseTensorCoo,
    mode: usize,
    hosts: &[DenseMatrix],
    threadlen: usize,
    block_size: usize,
) -> (DenseMatrix, KernelStats) {
    let fcoo = Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode }, threadlen);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("fits");
    let factors: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("fits"))
        .collect();
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    let cfg = LaunchConfig {
        block_size,
        ..Default::default()
    };
    unified_tensors::fcoo::spmttkrp(device, &on_device, &refs, &cfg).expect("kernel")
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_NNZ: usize = 4_000;

    #[test]
    fn setup_tables_render() {
        assert!(table1_text().contains("SpTTM(mode-3)"));
        assert!(table3_text().contains("Titan X"));
        let t4 = table4_rows(TEST_NNZ).render();
        assert!(t4.contains("brainq") && t4.contains("nell1"));
    }

    #[test]
    fn table2_shows_fcoo_savings() {
        let rendered = table2_rows(TEST_NNZ).render();
        let rows: Vec<Vec<&str>> = rendered
            .lines()
            .skip(2)
            .map(|line| line.split_whitespace().collect())
            .collect();
        assert_eq!(rows.len(), 8, "{rendered}");
        for row in &rows {
            let bytes = |column: usize| row[column].parse::<usize>().expect("a byte count");
            let (coo, model, total) = (bytes(2), bytes(3), bytes(4));
            assert!(total < coo, "F-COO is not smaller than COO: {row:?}");
            // The device format adds only the partition pointers to the
            // paper's model: one u32 per 8-non-zero partition of a 3-order
            // tensor's `coo / 16` non-zeros.
            assert_eq!(total - model, (coo / 16).div_ceil(8) * 4, "{row:?}");
            assert!(!row[6].starts_with('-'), "{row:?}");
        }
    }

    #[test]
    fn fig6a_rows_have_positive_times() {
        let rows = fig6a(TEST_NNZ);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.parti_omp_us > 0.0);
            assert!(row.unified_us > 0.0);
        }
        let rendered = render_speedups(&rows, false);
        assert!(rendered.contains("Unified"));
    }

    #[test]
    fn fig9_projection_ooms_the_paper_datasets() {
        let rows = fig9(TEST_NNZ);
        let by_name = |name: &str| rows.iter().find(|r| r.dataset == name).unwrap();
        // nell1 and delicious exceed 12 GB at paper scale for ParTI; brainq
        // and nell2 fit — exactly the paper's Fig. 6b/9 situation.
        assert!(
            by_name("nell1").parti_paper_gb > 12.0,
            "{}",
            by_name("nell1").parti_paper_gb
        );
        assert!(
            by_name("delicious").parti_paper_gb > 12.0,
            "{}",
            by_name("delicious").parti_paper_gb
        );
        assert!(by_name("nell2").parti_paper_gb < 12.0);
        assert!(by_name("brainq").parti_paper_gb < 12.0);
        // Unified fits everywhere.
        for row in &rows {
            assert!(
                row.unified_paper_gb < 12.0,
                "{} unified projection",
                row.dataset
            );
            assert!(row.unified_bytes < row.parti_bytes, "{}", row.dataset);
        }
        // The unified kernel allocates one output row per segment, ParTI a
        // dense mode-sized output: on hypersparse nell1, whose segments are
        // a small fraction of the mode's rows, that is most of the paper's
        // 68.6% reduction.
        let nell1 = by_name("nell1");
        let reduction = 1.0 - nell1.unified_bytes as f64 / nell1.parti_bytes as f64;
        assert!(reduction > 0.686, "nell1 reduction {reduction}");
    }

    #[test]
    fn unified_wins_on_both_device_generations() {
        let rows = device_sensitivity(TEST_NNZ);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(
                row.unified_us < row.parti_us,
                "{}: unified {:.1} vs parti {:.1}",
                row.device,
                row.unified_us,
                row.parti_us
            );
        }
        // At this tiny scale launch overhead blurs absolute times across
        // devices; the portability claim is about the *relationship*, which
        // must hold on both generations (checked above).
    }

    #[test]
    fn ablations_show_benefits() {
        let rows = ablations(TEST_NNZ);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.on_us > 0.0 && row.off_us > 0.0);
        }
        // One-shot must beat the two-step intermediate (Fig. 3), and the
        // segmented scan must beat per-nnz atomics on the atomic-heavy
        // brainq.
        assert!(
            rows[0].off_us > rows[0].on_us,
            "one-shot should beat two-step"
        );
        assert!(rows[1].off_us > rows[1].on_us, "scan should beat atomics");
    }
}
