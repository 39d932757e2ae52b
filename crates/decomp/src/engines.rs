//! MTTKRP engines for the CP-ALS driver.
//!
//! * [`UnifiedGpuEngine`] — the paper's implementation and the one GPU
//!   engine: its input is one pre-resolved [`ModePlan`] per mode (a resident
//!   format, the block size it launches at, the factor rows the other modes'
//!   formats index). Formats stay resident, one unified kernel runs per mode
//!   per iteration on stream 0, and the dense stages run on stream 1 (§IV-D,
//!   §V-E) along the update's dependency chain: MTTKRP(n) → solve(n) →
//!   MTTKRP(n+1), with the Gram of the factor just solved hidden under the
//!   next MTTKRP. [`UnifiedGpuEngine::new`] is the F-COO, all-rows case; the
//!   serving engine passes the formats its pool admitted and, through
//!   [`UnifiedGpuEngine::after_uploads`], when its copy stream lands the
//!   factors and each (re)uploaded format;
//! * [`SplattEngine`] — SPLATT's CSF trees, one per mode, MTTKRP on the CPU
//!   pool (the Fig. 10 competitor);
//! * [`ReferenceEngine`] — the sequential oracle from `tensor_core::ops`.

use crate::cp::{DenseStage, MttkrpEngine, MttkrpError};
use baselines::csf::{mttkrp_csf, Csf};
use fcoo::{AnyFormatDevice, DeviceMatrix, Fcoo, FcooDevice, LaunchConfig, TensorOp};
use gpu_sim::{DeviceConfig, GpuDevice, OutOfMemory, Timeline};
use std::sync::Arc;
use tensor_core::{DenseMatrix, SparseTensorCoo};

/// Sequential reference engine (correctness oracle, wall-clock timed).
pub struct ReferenceEngine<'t> {
    tensor: &'t SparseTensorCoo,
}

impl<'t> ReferenceEngine<'t> {
    /// Wraps a tensor.
    pub fn new(tensor: &'t SparseTensorCoo) -> Self {
        ReferenceEngine { tensor }
    }
}

impl MttkrpEngine for ReferenceEngine<'_> {
    fn mttkrp(
        &mut self,
        mode: usize,
        factors: &[DenseMatrix],
    ) -> Result<(DenseMatrix, f64), MttkrpError> {
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        Ok(baselines::timing::time_us(|| {
            tensor_core::ops::spmttkrp(self.tensor, mode, &refs)
        }))
    }

    fn name(&self) -> &'static str {
        "reference"
    }
}

/// One mode's pre-resolved MTTKRP plan.
#[derive(Debug, Clone)]
pub struct ModePlan {
    /// The mode's resident format, built for `SpMttkrp { mode }`.
    pub format: Arc<AnyFormatDevice>,
    /// Threads per block the mode's kernel launches at.
    pub block_size: usize,
    /// The rows of this mode's factor that the other modes' formats index,
    /// ascending: every row for formats over full coordinates, the touched
    /// rows for formats over compact ones (`fcoo::compact_tensor`).
    pub rows: Vec<u32>,
}

impl ModePlan {
    /// Mode `mode`'s F-COO over full coordinates, uploaded to `device`.
    pub fn fcoo(
        device: &GpuDevice,
        tensor: &SparseTensorCoo,
        mode: usize,
        threadlen: usize,
        block_size: usize,
    ) -> Result<ModePlan, OutOfMemory> {
        let fcoo = Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode }, threadlen);
        Ok(ModePlan {
            format: Arc::new(AnyFormatDevice::Fcoo(FcooDevice::upload(
                device.memory(),
                &fcoo,
            )?)),
            block_size,
            rows: (0..tensor.shape()[mode] as u32).collect(),
        })
    }
}

/// The CUBLAS-style dense-stage throughput: a conservative 10% of the
/// device's peak single-precision FLOP/µs.
fn dense_flops_per_us(config: &DeviceConfig) -> f64 {
    0.1 * (config.total_cores() as f64 * 2.0 * config.clock_ghz * 1e3)
}

/// Simulated time of one Gram launch over a `rows × rank` factor (µs).
fn gram_us(config: &DeviceConfig, rows: usize, rank: usize) -> f64 {
    2.0 * rows as f64 * (rank * rank) as f64 / dense_flops_per_us(config)
        + config.launch_overhead_us
}

/// Simulated time of one `rank × rank` solve launch (µs).
pub fn solve_us(config: &DeviceConfig, rank: usize) -> f64 {
    (rank * rank * rank) as f64 / dense_flops_per_us(config) + config.launch_overhead_us
}

/// What one span of the engine's two-stream timeline ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Mode `n`'s MTTKRP kernel, on stream 0.
    Mttkrp(usize),
    /// A dense stage, on stream 1.
    Dense(DenseStage),
}

/// One launch on the engine's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpan {
    /// What ran.
    pub kind: SpanKind,
    /// Simulated start (µs from the job's start).
    pub start_us: f64,
    /// Simulated end (µs).
    pub end_us: f64,
}

/// The paper's CP engine: unified kernels on the simulated GPU.
///
/// Every mode's format is preprocessed up front and stays resident, so "no
/// format conversions or CPU-GPU data transfers happen inside a CP
/// iteration" (§IV-D) beyond the factors: each MTTKRP uploads only its
/// product-mode factors, gathered to the rows its format indexes.
pub struct UnifiedGpuEngine<'d> {
    device: &'d GpuDevice,
    plans: Vec<ModePlan>,
    /// Two-stream timeline (§V-E): stream 0 runs the MTTKRP kernels, stream
    /// 1 the CUBLAS-style dense stages the driver ran, in its order. An
    /// MTTKRP waits for the previous solve, whose factor it reads; a solve
    /// waits for its MTTKRP and, in stream order, for the previous Gram. A
    /// Gram follows its solve and hides under the next MTTKRP; the first
    /// `order − 1` overlap the first MTTKRP.
    timeline: Timeline,
    /// Every launch, in issue order.
    spans: Vec<StreamSpan>,
    last_mttkrp_end: f64,
    last_solve_end: f64,
    /// When the initial factors' upload ends: no launch starts before it.
    factors_ready_us: f64,
    /// Per mode, when its format's upload ends (empty: all resident).
    formats_ready_us: Vec<f64>,
}

impl<'d> UnifiedGpuEngine<'d> {
    /// An engine over pre-resolved per-mode plans on `device`.
    pub fn from_plans(device: &'d GpuDevice, plans: Vec<ModePlan>) -> Self {
        UnifiedGpuEngine {
            device,
            plans,
            timeline: Timeline::new(2),
            spans: Vec::new(),
            last_mttkrp_end: 0.0,
            last_solve_end: 0.0,
            factors_ready_us: 0.0,
            formats_ready_us: Vec::new(),
        }
    }

    /// Gates the timeline behind a copy stream that starts with it: the
    /// initial factors land at `factors_us`, and mode `m`'s format at
    /// `formats_us[m]` (the factors' landing for a resident format). Every
    /// launch waits for the factors, and mode `m`'s MTTKRP for its format,
    /// so a format upload hides under the sweep's earlier modes.
    pub fn after_uploads(mut self, factors_us: f64, formats_us: Vec<f64>) -> Self {
        self.factors_ready_us = factors_us;
        self.formats_ready_us = formats_us;
        self
    }

    /// Preprocesses and uploads F-COO over full coordinates for every mode,
    /// all launched at `block_size`.
    pub fn new(
        device: &'d GpuDevice,
        tensor: &SparseTensorCoo,
        threadlen: usize,
        block_size: usize,
    ) -> Result<Self, OutOfMemory> {
        let plans = (0..tensor.order())
            .map(|mode| ModePlan::fcoo(device, tensor, mode, threadlen, block_size))
            .collect::<Result<_, _>>()?;
        Ok(UnifiedGpuEngine::from_plans(device, plans))
    }

    /// Every launch so far, in issue order.
    pub fn spans(&self) -> &[StreamSpan] {
        &self.spans
    }

    /// The dense-stream launches so far: (Grams, solves).
    pub fn dense_launches(&self) -> (usize, usize) {
        let count = |gram: bool| {
            self.spans
                .iter()
                .filter(|s| match s.kind {
                    SpanKind::Dense(DenseStage::Gram { .. }) => gram,
                    SpanKind::Dense(DenseStage::Solve { .. }) => !gram,
                    SpanKind::Mttkrp(_) => false,
                })
                .count()
        };
        (count(true), count(false))
    }

    /// Enqueues `duration_us` of `kind` on its stream, not before
    /// `earliest_us`; returns its end.
    fn launch(&mut self, kind: SpanKind, earliest_us: f64, duration_us: f64) -> f64 {
        let stream = match kind {
            SpanKind::Mttkrp(_) => 0,
            SpanKind::Dense(_) => 1,
        };
        let start_us = self.timeline.stream_elapsed_us(stream).max(earliest_us);
        let end_us = self.timeline.push_after(stream, earliest_us, duration_us);
        self.spans.push(StreamSpan {
            kind,
            start_us,
            end_us,
        });
        end_us
    }
}

impl MttkrpEngine for UnifiedGpuEngine<'_> {
    fn mttkrp(
        &mut self,
        mode: usize,
        factors: &[DenseMatrix],
    ) -> Result<(DenseMatrix, f64), MttkrpError> {
        // A serving engine sizes the device before the run, so there an
        // `OutOfMemory` is almost always an injected allocation failure; its
        // integrity barrier tells those from genuine exhaustion.
        let oom = |e: OutOfMemory| MttkrpError(format!("device allocation failed: {e}"));
        let uploaded = (0..factors.len())
            .filter(|&m| m != mode)
            .map(|m| {
                let compact = fcoo::gather_rows(&factors[m], &self.plans[m].rows);
                DeviceMatrix::upload(self.device.memory(), &compact)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(oom)?;
        let refs = fcoo::mttkrp_refs(&uploaded, mode, factors.len());
        let plan = &self.plans[mode];
        let cfg = LaunchConfig::with_block_size(plan.block_size);
        let (result, stats) = plan
            .format
            .spmttkrp(self.device, &refs, &cfg)
            .map_err(oom)?;
        let format_ready = self.formats_ready_us.get(mode).copied().unwrap_or(0.0);
        let earliest = self
            .last_solve_end
            .max(self.factors_ready_us)
            .max(format_ready);
        self.last_mttkrp_end = self.launch(SpanKind::Mttkrp(mode), earliest, stats.time_us);
        Ok((result, stats.time_us))
    }

    fn dense_us(&mut self, stage: DenseStage, rank: usize) -> Option<f64> {
        let config = self.device.config();
        let kind = SpanKind::Dense(stage);
        match stage {
            // A Gram reads a factor no MTTKRP writes: it only queues behind
            // the solve that produced that factor.
            DenseStage::Gram { rows, .. } => {
                let us = gram_us(config, rows, rank);
                self.launch(kind, self.factors_ready_us, us);
                Some(us)
            }
            DenseStage::Solve { .. } => {
                let us = solve_us(config, rank);
                self.last_solve_end = self.launch(kind, self.last_mttkrp_end, us);
                Some(us)
            }
        }
    }

    fn overlapped_elapsed_us(&self) -> Option<f64> {
        Some(self.timeline.elapsed_us())
    }

    fn name(&self) -> &'static str {
        "unified-gpu"
    }
}

/// SPLATT engine: one CSF tree per mode, FLOP-reduced CPU MTTKRP.
pub struct SplattEngine {
    per_mode: Vec<Csf>,
}

impl SplattEngine {
    /// Builds CSF trees rooted at each mode.
    pub fn new(tensor: &SparseTensorCoo) -> Self {
        SplattEngine {
            per_mode: (0..tensor.order()).map(|m| Csf::build(tensor, m)).collect(),
        }
    }
}

impl MttkrpEngine for SplattEngine {
    fn mttkrp(
        &mut self,
        mode: usize,
        factors: &[DenseMatrix],
    ) -> Result<(DenseMatrix, f64), MttkrpError> {
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        Ok(mttkrp_csf(&self.per_mode[mode], &refs))
    }

    fn name(&self) -> &'static str {
        "splatt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp::{cp_als, CpOptions};
    use fcoo::{AnyFormat, FormatKind};
    use tensor_core::datasets::{self, DatasetKind};

    fn options() -> CpOptions {
        CpOptions {
            rank: 4,
            max_iters: 6,
            tol: 1e-7,
            seed: 3,
        }
    }

    /// Per-mode plans over full coordinates in the given formats and launch
    /// shapes.
    fn plans(
        device: &GpuDevice,
        tensor: &SparseTensorCoo,
        shapes: &[(FormatKind, usize, usize)],
    ) -> Vec<ModePlan> {
        shapes
            .iter()
            .enumerate()
            .map(|(mode, &(kind, block_size, threadlen))| {
                let format = AnyFormat::build(kind, tensor, TensorOp::SpMttkrp { mode }, threadlen);
                ModePlan {
                    format: Arc::new(format.upload(device.memory()).unwrap()),
                    block_size,
                    rows: (0..tensor.shape()[mode] as u32).collect(),
                }
            })
            .collect()
    }

    /// Each mode's certified `(format, BLOCK_SIZE, threadlen)` choice.
    fn selected(tensor: &SparseTensorCoo, rank: usize) -> Vec<(FormatKind, usize, usize)> {
        (0..tensor.order())
            .map(|mode| {
                let choice = analyzer::tune_select(
                    &gpu_sim::DeviceConfig::titan_x(),
                    tensor,
                    TensorOp::SpMttkrp { mode },
                    rank,
                    None,
                    None,
                );
                (
                    choice.kind(),
                    choice.chosen.block_size,
                    choice.chosen.threadlen,
                )
            })
            .collect()
    }

    #[test]
    fn engines_agree_on_fit() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2500, 70);
        let mut reference = ReferenceEngine::new(&tensor);
        let reference_run =
            cp_als(&tensor, &mut reference, &options()).expect("engine computes every MTTKRP");
        let mut splatt = SplattEngine::new(&tensor);
        let splatt_run =
            cp_als(&tensor, &mut splatt, &options()).expect("engine computes every MTTKRP");
        let device = GpuDevice::titan_x();
        let mut unified = UnifiedGpuEngine::new(&device, &tensor, 8, 128).unwrap();
        let unified_run =
            cp_als(&tensor, &mut unified, &options()).expect("engine computes every MTTKRP");
        // Same initialization, same math → same trajectory up to f32 noise.
        assert!((reference_run.fit - splatt_run.fit).abs() < 1e-3);
        assert!((reference_run.fit - unified_run.fit).abs() < 1e-3);
    }

    #[test]
    fn unified_engine_reports_simulated_time_and_model_other() {
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 4000, 71);
        let device = GpuDevice::titan_x();
        let mut unified = UnifiedGpuEngine::new(&device, &tensor, 8, 128).unwrap();
        let run = cp_als(&tensor, &mut unified, &options()).expect("engine computes every MTTKRP");
        assert_eq!(run.engine, "unified-gpu");
        assert!(run.mode_us.iter().all(|&t| t > 0.0));
        assert!(run.other_us > 0.0);
    }

    #[test]
    fn mttkrp_allocates_only_formats_product_factors_and_output() {
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 4000, 71);
        let device = GpuDevice::titan_x();
        let mut unified = UnifiedGpuEngine::new(&device, &tensor, 8, 128).unwrap();
        let formats = device.memory().live_bytes();
        device.memory().reset_peak();
        let opts = CpOptions {
            max_iters: 1,
            ..options()
        };
        cp_als(&tensor, &mut unified, &opts).expect("engine computes every MTTKRP");
        // Mode n's MTTKRP holds the order - 1 product factors and its
        // R-column output: together one full-size factor per mode, whatever
        // n is. The mode-n factor itself never goes up.
        let factors: usize = tensor.shape().iter().map(|&s| s * opts.rank * 4).sum();
        assert_eq!(device.memory().peak_bytes(), formats + factors);
        assert_eq!(
            device.memory().live_bytes(),
            formats,
            "factors and outputs freed"
        );
    }

    #[test]
    fn compact_plans_match_full_plans_bit_for_bit() {
        // Hypersparse: most factor rows are never touched.
        let (tensor, _) = datasets::generate(DatasetKind::Delicious, 3000, 78);
        let touched: Vec<Vec<u32>> = (0..tensor.order())
            .map(|m| fcoo::touched_rows(tensor.mode_indices(m)))
            .collect();
        assert!((0..tensor.order()).any(|m| touched[m].len() < tensor.shape()[m]));
        let device = GpuDevice::titan_x();
        let compact: Vec<ModePlan> = (0..tensor.order())
            .map(|mode| {
                let op = TensorOp::SpMttkrp { mode };
                let fcoo = Fcoo::from_coo(&fcoo::compact_tensor(&tensor, op, &touched), op, 8);
                ModePlan {
                    format: Arc::new(AnyFormatDevice::Fcoo(
                        FcooDevice::upload(device.memory(), &fcoo).unwrap(),
                    )),
                    block_size: 128,
                    rows: touched[mode].clone(),
                }
            })
            .collect();
        let compact_run = cp_als(
            &tensor,
            &mut UnifiedGpuEngine::from_plans(&device, compact),
            &options(),
        )
        .expect("engine computes every MTTKRP");
        let full_device = GpuDevice::titan_x();
        let mut full = UnifiedGpuEngine::new(&full_device, &tensor, 8, 128).unwrap();
        let full_run =
            cp_als(&tensor, &mut full, &options()).expect("engine computes every MTTKRP");
        assert_eq!(compact_run.model.lambda, full_run.model.lambda);
        for (c, f) in compact_run
            .model
            .factors
            .iter()
            .zip(&full_run.model.factors)
        {
            assert_eq!(c.data(), f.data());
        }
    }

    #[test]
    fn unified_mode_times_are_balanced() {
        // §V-B/Fig. 10: the unified method's per-mode MTTKRP times are
        // "very similar and well-balanced" even on the oddly-shaped brainq.
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 10_000, 72);
        let device = GpuDevice::titan_x();
        let mut unified = UnifiedGpuEngine::new(&device, &tensor, 8, 128).unwrap();
        let run = cp_als(&tensor, &mut unified, &options()).expect("engine computes every MTTKRP");
        let max = run.mode_us.iter().copied().fold(0.0f64, f64::max);
        let min = run.mode_us.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min < 3.0, "mode times unbalanced: {:?}", run.mode_us);
    }

    #[test]
    fn tuned_engine_launches_each_mode_at_its_own_block_size() {
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 1500, 77);
        let opts = options();
        let shapes = selected(&tensor, opts.rank);
        let expected: Vec<usize> = shapes
            .iter()
            .map(|&(_, block_size, _)| block_size)
            .collect();
        assert!(
            expected.iter().any(|&b| b != expected[0]),
            "the modes must select different block sizes: {expected:?}"
        );
        let device = GpuDevice::titan_x();
        let mut tuned = UnifiedGpuEngine::from_plans(&device, plans(&device, &tensor, &shapes));
        device.start_tracing();
        cp_als(&tensor, &mut tuned, &opts).expect("engine computes every MTTKRP");
        let launches = device.stop_tracing().launches;
        assert_eq!(launches.len(), opts.max_iters * tensor.order());
        for (i, launch) in launches.iter().enumerate() {
            let mode = i % tensor.order();
            assert_eq!(
                launch.block_threads, expected[mode],
                "launch {i} (mode {mode})"
            );
        }
    }

    #[test]
    fn tuned_engine_matches_default_engine_results() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 4000, 76);
        let opts = options();
        let device = GpuDevice::titan_x();
        let mut default_engine = UnifiedGpuEngine::new(&device, &tensor, 8, 128).unwrap();
        let default_run =
            cp_als(&tensor, &mut default_engine, &opts).expect("engine computes every MTTKRP");
        let tuned_device = GpuDevice::titan_x();
        let shapes = selected(&tensor, opts.rank);
        let mut tuned =
            UnifiedGpuEngine::from_plans(&tuned_device, plans(&tuned_device, &tensor, &shapes));
        let tuned_run = cp_als(&tensor, &mut tuned, &opts).expect("engine computes every MTTKRP");
        assert!((default_run.fit - tuned_run.fit).abs() < 1e-3);
        // Certified selection can only help or tie on total simulated
        // kernel time.
        let default_mttkrp: f64 = default_run.mode_us.iter().sum();
        let tuned_mttkrp: f64 = tuned_run.mode_us.iter().sum();
        assert!(
            tuned_mttkrp <= default_mttkrp * 1.25,
            "tuned {tuned_mttkrp:.1}µs should not regress far from default {default_mttkrp:.1}µs"
        );
    }

    #[test]
    fn two_stream_overlap_shortens_the_makespan() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 6000, 74);
        let device = GpuDevice::titan_x();
        let mut unified = UnifiedGpuEngine::new(&device, &tensor, 8, 128).unwrap();
        let run = cp_als(&tensor, &mut unified, &options()).expect("engine computes every MTTKRP");
        let overlapped = run
            .overlapped_total_us
            .expect("unified engine models streams");
        let serial = run.total_us();
        // The critical path: every MTTKRP and every solve, in turn.
        let chain: f64 = run.mode_us.iter().sum::<f64>()
            + (run.iterations * tensor.order()) as f64 * solve_us(device.config(), options().rank);
        assert!(
            overlapped <= serial + 1e-6,
            "overlap {overlapped} vs serial {serial}"
        );
        assert!(
            overlapped >= chain - 1e-9,
            "makespan {overlapped} cannot beat the MTTKRP + solve chain {chain}"
        );
        assert!(overlapped < serial, "Gram launches must actually overlap");
    }

    /// Runs CP-ALS on the unified engine and checks its timeline against the
    /// update's dependency chain.
    fn check_schedule(tensor: &SparseTensorCoo, opts: &CpOptions) {
        let order = tensor.order();
        let device = GpuDevice::titan_x();
        let mut unified = UnifiedGpuEngine::new(&device, tensor, 8, 128).unwrap();
        let run = cp_als(tensor, &mut unified, opts).expect("engine computes every MTTKRP");
        let spans = unified.spans();
        let gram = |mode: usize| {
            SpanKind::Dense(DenseStage::Gram {
                mode,
                rows: tensor.shape()[mode],
            })
        };
        // The dense stream runs the driver's stages in the driver's order:
        // the order − 1 initial Grams, then per update a solve and the
        // Gram of the factor it produced.
        let dense: Vec<SpanKind> = spans
            .iter()
            .map(|s| s.kind)
            .filter(|k| matches!(k, SpanKind::Dense(_)))
            .collect();
        let mut expected: Vec<SpanKind> = (1..order).map(gram).collect();
        for _ in 0..run.iterations {
            for mode in 0..order {
                expected.push(SpanKind::Dense(DenseStage::Solve { mode }));
                expected.push(gram(mode));
            }
        }
        assert_eq!(dense, expected);
        let (grams, solves) = unified.dense_launches();
        assert_eq!(solves, run.iterations * order);
        assert_eq!(grams, solves + order - 1);
        assert_eq!(
            run.grams, grams,
            "the driver computes what the engine charges"
        );
        // The initial Grams run back to back from the job's start.
        assert_eq!(spans[0].start_us, 0.0);
        for pair in spans[..order - 1].windows(2) {
            assert_eq!(pair[1].start_us, pair[0].end_us);
        }

        let (mut solve_end, mut mttkrp_end, mut gram_end) = (0.0f64, 0.0f64, 0.0f64);
        let mut chain = 0.0f64;
        for (i, span) in spans.iter().enumerate() {
            assert!(span.end_us >= span.start_us);
            match span.kind {
                SpanKind::Mttkrp(_) => {
                    assert!(
                        span.start_us >= solve_end,
                        "span {i}: MTTKRP at {} before the previous solve ends at {solve_end}",
                        span.start_us
                    );
                    mttkrp_end = span.end_us;
                    chain += span.end_us - span.start_us;
                }
                SpanKind::Dense(DenseStage::Solve { mode }) => {
                    assert_eq!(spans[i - 1].kind, SpanKind::Mttkrp(mode));
                    assert!(
                        span.start_us >= mttkrp_end && span.start_us >= gram_end,
                        "span {i}: solve at {} before its MTTKRP ({mttkrp_end}) or the \
                         previous Gram ({gram_end}) ends",
                        span.start_us
                    );
                    solve_end = span.end_us;
                    chain += span.end_us - span.start_us;
                }
                SpanKind::Dense(DenseStage::Gram { .. }) => {
                    if i >= order - 1 {
                        assert_eq!(
                            span.start_us, solve_end,
                            "span {i}: Gram right after its solve"
                        );
                    }
                    gram_end = span.end_us;
                }
            }
        }
        let makespan = run
            .overlapped_total_us
            .expect("unified engine models streams");
        let last = spans.iter().map(|s| s.end_us).fold(0.0, f64::max);
        assert_eq!(makespan, last);
        assert!(
            makespan >= chain - 1e-9,
            "makespan {makespan} below the MTTKRP + solve chain {chain}"
        );
    }

    #[test]
    fn schedule_follows_the_update_dependency_chain() {
        let opts = CpOptions {
            tol: 0.0,
            ..options()
        };
        let (order3, _) = datasets::generate(DatasetKind::Nell2, 3000, 79);
        check_schedule(&order3, &opts);
        let order4 = datasets::generate_norder(&[15, 12, 10, 8], 2_000, 0.6, 80);
        check_schedule(&order4, &opts);
    }

    #[test]
    fn uploads_gate_the_launches_that_read_them() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 3000, 79);
        let opts = options();
        let run = |uploads: Option<(f64, Vec<f64>)>| {
            let device = GpuDevice::titan_x();
            let mut engine = UnifiedGpuEngine::new(&device, &tensor, 8, 128).unwrap();
            if let Some((factors_us, formats_us)) = uploads {
                engine = engine.after_uploads(factors_us, formats_us);
            }
            let run = cp_als(&tensor, &mut engine, &opts).expect("engine computes every MTTKRP");
            (run, engine.spans().to_vec())
        };
        let (plain, plain_spans) = run(None);
        // Landing at zero changes nothing.
        let (zero, zero_spans) = run(Some((0.0, vec![0.0; 3])));
        assert_eq!(zero_spans, plain_spans);
        assert_eq!(zero.overlapped_total_us, plain.overlapped_total_us);
        // Late uploads: nothing starts before the factors, no MTTKRP before
        // its format, and the results are the same bits.
        let ready = vec![2.0, 30.0, 60.0];
        let (late, late_spans) = run(Some((2.0, ready.clone())));
        assert_eq!(late.model.lambda, plain.model.lambda);
        assert!(late_spans.iter().all(|s| s.start_us >= 2.0));
        for span in &late_spans {
            if let SpanKind::Mttkrp(mode) = span.kind {
                assert!(span.start_us >= ready[mode], "{span:?}");
            }
        }
        assert!(late.overlapped_total_us > plain.overlapped_total_us);
    }

    #[test]
    fn cpu_engines_do_not_claim_overlap() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1500, 75);
        let mut splatt = SplattEngine::new(&tensor);
        let run = cp_als(&tensor, &mut splatt, &options()).expect("engine computes every MTTKRP");
        assert!(run.overlapped_total_us.is_none());
    }

    #[test]
    fn engine_preprocessing_fails_cleanly_on_tiny_device() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 5000, 73);
        let device = GpuDevice::new(gpu_sim::DeviceConfig::titan_x_scaled_memory(1e-7));
        assert!(UnifiedGpuEngine::new(&device, &tensor, 8, 128).is_err());
    }
}
