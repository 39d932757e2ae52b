//! Plan selection for formats that can never be resident: a plan whose
//! smallest serving-grid format does not fit beside a request's transients
//! is tuned on the chunks it streams — format, threadlen, block size and
//! chunk budget chosen together by the certified pipeline bound
//! ([`serve::plan::pipeline_bound_us`]) — instead of for one whole-format
//! launch that never happens.
//!
//! `cargo test --release -p serve --test streamed_plan` runs these alone.

use fcoo::{AnyFormat, FormatKind, LaunchConfig, TensorOp};
use gpu_sim::{DeviceConfig, GpuDevice};
use serve::plan::{format_bytes, Objective, StreamSizing, SERVE_THREADLENS};
use serve::upload::{output_bytes, FactorPlan};
use serve::{PlanCache, PlanKey, PlanSource, ServeConfig, ServeEngine, Workload};
use tensor_core::datasets::{self, DatasetKind};
use tensor_core::{DenseMatrix, SparseTensorCoo};

const RANK: usize = 8;

/// One tensor and operation the selection is checked on.
struct Case {
    name: &'static str,
    kind: DatasetKind,
    nnz: usize,
    seed: u64,
    op: TensorOp,
}

/// Tensors whose streamed picks cover both formats: nell2 and brainq
/// stream in BF-COO, delicious and nell1 in F-COO at some headrooms.
const CASES: [Case; 4] = [
    Case {
        name: "nell2",
        kind: DatasetKind::Nell2,
        nnz: 3000,
        seed: 7,
        op: TensorOp::SpMttkrp { mode: 0 },
    },
    Case {
        name: "brainq",
        kind: DatasetKind::Brainq,
        nnz: 3000,
        seed: 3,
        op: TensorOp::SpMttkrp { mode: 1 },
    },
    Case {
        name: "delicious",
        kind: DatasetKind::Delicious,
        nnz: 3000,
        seed: 5,
        op: TensorOp::SpTtm { mode: 0 },
    },
    Case {
        name: "nell1",
        kind: DatasetKind::Nell1,
        nnz: 4000,
        seed: 2,
        op: TensorOp::SpMttkrp { mode: 2 },
    },
];

/// Headrooms, in percent of the smallest F-COO format: every one leaves
/// the format never resident.
const HEADROOM_PCT: [usize; 4] = [25, 45, 60, 90];

/// A case's tensor with what sizes its requests.
struct Sized {
    tensor: SparseTensorCoo,
    touched: Vec<Vec<u32>>,
    key: PlanKey,
    transient_bytes: usize,
    factor_bytes: usize,
    min_format_bytes: usize,
}

impl Sized {
    fn new(case: &Case) -> Self {
        let (tensor, _) = datasets::generate(case.kind, case.nnz, case.seed);
        let touched: Vec<Vec<u32>> = (0..tensor.order())
            .map(|m| fcoo::touched_rows(tensor.mode_indices(m)))
            .collect();
        let compact = fcoo::compact_tensor(&tensor, case.op, &touched);
        let factors = FactorPlan::new(case.op, tensor.shape(), &touched, RANK);
        let transient_bytes = factors.transient_bytes(output_bytes(
            &fcoo::Fcoo::from_coo(&compact, case.op, 8),
            RANK,
        ));
        let min_format_bytes = SERVE_THREADLENS
            .iter()
            .map(|&t| format_bytes(&AnyFormat::build(FormatKind::Fcoo, &compact, case.op, t)))
            .min()
            .expect("non-empty grid");
        Sized {
            key: PlanKey::new(serve::tensor_fingerprint(&tensor), case.op, RANK),
            factor_bytes: factors.h2d_bytes(),
            tensor,
            touched,
            transient_bytes,
            min_format_bytes,
        }
    }

    fn sizing(&self, headroom_pct: usize) -> StreamSizing {
        StreamSizing {
            capacity: self.transient_bytes + self.min_format_bytes * headroom_pct / 100,
            transient_bytes: self.transient_bytes,
            factor_bytes: self.factor_bytes,
        }
    }

    fn workload(&self, case: &Case) -> Workload {
        let op = match case.op {
            TensorOp::SpTtm { .. } => "spttm",
            TensorOp::SpMttkrp { .. } => "mttkrp",
            TensorOp::SpTtmc { .. } => "ttmc",
        };
        let text = format!(
            "tensor t {} {} {}\nrequest t {op} {} {RANK} 0.0 11\n",
            case.name,
            case.nnz,
            case.seed,
            case.op.mode()
        );
        Workload::parse(&text).expect("valid workload")
    }
}

/// The plan-build scratch device the engine tunes on.
fn scratch() -> GpuDevice {
    GpuDevice::new(DeviceConfig {
        memory_capacity: usize::MAX / 2,
        ..DeviceConfig::titan_x()
    })
}

fn with_capacity(capacity: usize) -> DeviceConfig {
    DeviceConfig {
        memory_capacity: capacity,
        ..DeviceConfig::titan_x()
    }
}

#[test]
fn streamed_selection_never_loses_to_the_in_core_shape_and_bounds_its_run() {
    let config = DeviceConfig::titan_x();
    let device = scratch();
    let (mut kinds, mut metadata_refused_half, mut strictly_better) = (Vec::new(), false, 0);
    for case in &CASES {
        let sized = Sized::new(case);
        for pct in HEADROOM_PCT {
            let sizing = sized.sizing(pct);
            let label = format!("{} {pct}%", case.name);
            // The in-core-tuned shape, streamed at its best budget.
            let mut in_core = PlanCache::new(None);
            let (tuned, _) =
                in_core.get_or_build(sized.key, &sized.tensor, &sized.touched, &device);
            assert_eq!(tuned.objective, Objective::InCore, "{label}");
            let baseline = in_core.stream_plan(&config, &tuned, &sizing);
            // The plan tuned for streaming on a device of that capacity.
            let mut cache = PlanCache::new(None).with_device_capacity(sizing.capacity);
            let (plan, _) = cache.get_or_build(sized.key, &sized.tensor, &sized.touched, &device);
            assert_eq!(
                plan.objective,
                Objective::Streamed {
                    headroom: sizing.headroom()
                },
                "{label}"
            );
            let chosen = cache.stream_plan(&config, &plan, &sizing);
            assert!(chosen.bound_us.is_finite(), "{label}: nothing fits");
            assert!(
                chosen.bound_us <= baseline.bound_us,
                "{label}: {} T{} B{} bound {} µs loses to the in-core shape {} T{} B{} at {} µs",
                plan.kind(),
                plan.threadlen(),
                plan.block_size,
                chosen.bound_us,
                tuned.kind(),
                tuned.threadlen(),
                tuned.block_size,
                baseline.bound_us
            );
            strictly_better += usize::from(chosen.bound_us < baseline.bound_us);
            kinds.push(plan.kind());
            // PR 31's metadata case: a BF-COO half budget that fits by its
            // formats alone but not with its bucket metadata is refused.
            if plan.kind() == FormatKind::BfCoo {
                let half = fcoo::split(plan.fcoo(), sizing.headroom() / 2);
                let modes = plan.fcoo().product_indices.len();
                let fits = |metadata: bool| {
                    let largest = half
                        .chunks
                        .iter()
                        .map(|c| {
                            c.format_bytes
                                + if metadata {
                                    FormatKind::BfCoo.metadata_bytes(c.nnz, modes)
                                } else {
                                    0
                                }
                        })
                        .max()
                        .expect("at least one chunk");
                    serve::protocol::streamed_need(sizing.transient_bytes, largest)
                        <= sizing.capacity
                };
                if fits(false) && !fits(true) {
                    metadata_refused_half = true;
                    assert_ne!(chosen.chunks.budget_bytes, sizing.headroom() / 2, "{label}");
                }
            }
            // The chosen chunks' summed kernel time lies in their certified
            // envelope...
            let cfg = LaunchConfig::with_block_size(plan.block_size);
            let shape = &plan.fcoo().shape;
            let factors: Vec<DenseMatrix> = case
                .op
                .factor_modes(shape.len())
                .into_iter()
                .map(|m| DenseMatrix::random(shape[m], RANK, 1 + m as u64))
                .collect();
            let envelope = analyzer::cost::certify_chunked(
                &config,
                plan.kind(),
                plan.fcoo(),
                &chosen.chunks,
                RANK,
                &cfg,
            );
            let run = ooc::run_chunked(
                &scratch(),
                plan.kind(),
                plan.fcoo(),
                &chosen.chunks,
                &factors,
                &cfg,
            )
            .expect("chunked run");
            assert_eq!(
                ooc::check_run(&envelope, &run),
                Vec::<String>::new(),
                "{label}"
            );
            // ...and the served, fault-free pipeline span in its bound.
            let mut engine = ServeEngine::new(ServeConfig {
                device_config: with_capacity(sizing.capacity),
                ..ServeConfig::default()
            });
            let report = engine.run(&sized.workload(case));
            assert!(
                report.rejections.is_empty(),
                "{label}: {:?}",
                report.rejections
            );
            let served = &report.requests[0];
            assert_eq!(served.chunks.len(), chosen.chunks.len(), "{label}");
            assert!(
                served.exec_us <= chosen.bound_us,
                "{label}: span {} µs over the bound {} µs",
                served.exec_us,
                chosen.bound_us
            );
            let engine_plan = engine.plan(sized.key).expect("the engine built the plan");
            assert_eq!(
                (
                    engine_plan.kind(),
                    engine_plan.threadlen(),
                    engine_plan.block_size
                ),
                (plan.kind(), plan.threadlen(), plan.block_size),
                "{label}"
            );
        }
    }
    for kind in FormatKind::ALL {
        assert!(
            kinds.contains(&kind),
            "no case streams in {kind}: {kinds:?}"
        );
    }
    assert!(
        metadata_refused_half,
        "no case exercised the metadata refusal"
    );
    assert!(strictly_better > 0, "the in-core shape always tied");
}

#[test]
fn streamed_selection_shed_floor_stays_below_the_summed_chunk_kernels() {
    for case in &CASES {
        let sized = Sized::new(case);
        for pct in [25, 60] {
            let sizing = sized.sizing(pct);
            let mut engine = ServeEngine::new(ServeConfig {
                device_config: with_capacity(sizing.capacity),
                ..ServeConfig::default()
            });
            let report = engine.run(&sized.workload(case));
            let served = &report.requests[0];
            assert!(
                served.chunks.len() >= 2,
                "{} {pct}%: did not stream",
                case.name
            );
            let plan = engine.plan(sized.key).expect("the engine built the plan");
            // The shed check's kernel floor is the certificate at the
            // shape that launches: a lower bound on every chunk's launch,
            // so on their sum.
            assert!(
                plan.certificate.time_lo_us <= served.kernel_us,
                "{} {pct}%: floor {} µs over the summed chunk kernels {} µs",
                case.name,
                plan.certificate.time_lo_us,
                served.kernel_us
            );
        }
    }
}

#[test]
fn streamed_selection_persists_its_objective_and_rebuilds_where_it_fits() {
    let device = scratch();
    let case = &CASES[0];
    let sized = Sized::new(case);
    let sizing = sized.sizing(45);
    let dir = std::env::temp_dir().join("serve_streamed_plan_objective");
    std::fs::remove_dir_all(&dir).ok();
    let config = DeviceConfig::titan_x();
    let build = |capacity: usize| {
        let mut cache = PlanCache::new(Some(dir.clone())).with_device_capacity(capacity);
        let (plan, source) = cache.get_or_build(sized.key, &sized.tensor, &sized.touched, &device);
        (cache, plan, source)
    };
    let (mut cold, streamed, source) = build(sizing.capacity);
    assert_eq!(source, PlanSource::Built);
    assert!(matches!(streamed.objective, Objective::Streamed { .. }));
    let chosen = cold.stream_plan(&config, &streamed, &sizing);
    // The same capacity loads the plan, and it streams as its build chose.
    let (mut warm, loaded, source) = build(sizing.capacity);
    assert_eq!(source, PlanSource::Disk);
    assert_eq!(loaded.objective, streamed.objective);
    assert!(loaded.certificate.matches(&streamed.certificate));
    let again = warm.stream_plan(&config, &loaded, &sizing);
    assert_eq!(again.chunks.chunks, chosen.chunks.chunks);
    assert_eq!(again.bound_us.to_bits(), chosen.bound_us.to_bits());
    // Where the format fits whole, the in-core objective applies: the
    // streamed plan is stale and rebuilds as a cold build would.
    let roomy = sizing.transient_bytes + 4 * sized.min_format_bytes;
    let (fits, in_core, source) = build(roomy);
    assert_eq!(source, PlanSource::Built);
    assert_eq!(fits.stats().stale_loads, 1);
    assert_eq!(in_core.objective, Objective::InCore);
    let mut fresh = PlanCache::new(None).with_device_capacity(roomy);
    let (expected, _) = fresh.get_or_build(sized.key, &sized.tensor, &sized.touched, &device);
    assert_eq!(
        (in_core.kind(), in_core.threadlen(), in_core.block_size),
        (expected.kind(), expected.threadlen(), expected.block_size)
    );
    // And the other way: the in-core plan it persisted is stale where the
    // format can never be resident.
    let (stale, rebuilt, source) = build(sizing.capacity);
    assert_eq!(source, PlanSource::Built);
    assert_eq!(stale.stats().stale_loads, 1);
    assert_eq!(rebuilt.objective, streamed.objective);
    assert!(rebuilt.certificate.matches(&streamed.certificate));
    std::fs::remove_dir_all(&dir).ok();
}
