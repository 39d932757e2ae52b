//! Pins the serving protocol: for a set of fault-free workloads, the exact
//! `ProtocolEvent` sequence and every request's placement (device, stream,
//! start, finish, exec span, tier, chunk count) must match the committed
//! text fixture `tests/fixtures/lifecycle.txt` byte for byte.
//!
//! The workloads reach every request path: in-core execution, result-cache
//! replay, admission deferral, a deadline shed, hot-plan replication,
//! out-of-core chunks, CP-ALS, and genuine rejections. Result checksums are
//! left out on purpose: events and simulated timings do not depend on the
//! values, so a checksum would pin the kernels' arithmetic, which the golden
//! and format-conformance suites pin already, rather than the protocol.
//!
//! On a mismatch the rendered log is written next to the test binary's
//! scratch directory (`CARGO_TARGET_TMPDIR/lifecycle.actual.txt`) so it can
//! be diffed against the fixture.

use fcoo::{AnyFormat, Fcoo, FormatKind, TensorOp};
use gpu_sim::DeviceConfig;
use serve::plan::{format_bytes, SERVE_THREADLENS};
use serve::upload::{output_bytes, FactorPlan};
use serve::{ServeConfig, ServeEngine, Workload};
use std::fmt::Write as _;
use tensor_core::datasets::{self, DatasetKind};

const FIXTURE: &str = include_str!("fixtures/lifecycle.txt");

/// The operation whose formats and transients size the scenarios' devices.
const OP: TensorOp = TensorOp::SpMttkrp { mode: 0 };

/// The F-COO footprints the tuner can pick for SpMTTKRP mode 0 of a
/// `nell2` tensor, smallest and largest.
fn format_bytes_range(nnz: usize, seed: u64) -> (usize, usize) {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, nnz, seed);
    let sizes: Vec<usize> = SERVE_THREADLENS
        .iter()
        .map(|&tl| format_bytes(&AnyFormat::build(FormatKind::Fcoo, &tensor, OP, tl)))
        .collect();
    let min = *sizes.iter().min().expect("non-empty grid");
    let max = *sizes.iter().max().expect("non-empty grid");
    (min, max)
}

/// Device bytes a rank-8 SpMTTKRP mode-0 request on a `nell2` tensor holds
/// beyond its format, sized by the engine's own rule.
fn transient_bytes(nnz: usize, seed: u64) -> usize {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, nnz, seed);
    let touched: Vec<Vec<u32>> = (0..tensor.order())
        .map(|m| fcoo::touched_rows(tensor.mode_indices(m)))
        .collect();
    FactorPlan::new(OP, tensor.shape(), &touched, 8)
        .transient_bytes(output_bytes(&Fcoo::from_coo(&tensor, OP, 8), 8))
}

fn with_capacity(capacity: usize) -> DeviceConfig {
    let mut config = DeviceConfig::titan_x();
    config.memory_capacity = capacity;
    config
}

fn parse(text: &str) -> Workload {
    Workload::parse(text).expect("valid workload")
}

/// Every scenario: a name, the engine configuration and the workload.
fn scenarios() -> Vec<(&'static str, ServeConfig, Workload)> {
    // Overload on two devices: tight deadlines shed (after reserving, and
    // once on a replay), the skewed plan pick replays cached results and
    // replicates the hot plan.
    let open_loop = (
        "open-loop",
        ServeConfig {
            devices: 2,
            ..ServeConfig::default()
        },
        serve::open_loop(60, 42, 3.0, 12.0),
    );
    // One device with room for a single working set: admission defers and
    // evicts. The CP-ALS job cannot fit at all and is rejected.
    let (_, max_a) = format_bytes_range(1500, 1);
    let (_, max_b) = format_bytes_range(1500, 2);
    let working_set = max_a.max(max_b) + transient_bytes(1500, 1).max(transient_bytes(1500, 2));
    let pressure = (
        "pressure",
        ServeConfig {
            device_config: with_capacity(working_set + 4096),
            ..ServeConfig::default()
        },
        parse(
            "tensor a nell2 1500 1\n\
             tensor b nell2 1500 2\n\
             request a mttkrp 0 8 0.0 11\n\
             request b mttkrp 0 8 0.0 12\n\
             request a mttkrp 0 8 0.0 13\n\
             request b mttkrp 0 8 0.0 14\n\
             request a cp 2 8 10.0 15\n\
             request a mttkrp 0 8 20.0 11\n",
        ),
    );
    // CP-ALS on the default device, warming the SpMTTKRP plans that later
    // single-op requests reuse; then unknown-tensor and bad-mode rejections.
    let cp = (
        "cp",
        ServeConfig::default(),
        parse(
            "tensor t nell2 900 3\n\
             request t cp 3 4 0.0 21\n\
             request t mttkrp 0 4 500.0 22\n\
             request t mttkrp 0 4 600.0 22\n\
             request t spttm 1 4 700.0 23\n\
             request t ttmc 2 4 750.0 24\n\
             request ghost mttkrp 0 4 800.0 1\n\
             request t mttkrp 7 4 900.0 1\n\
             request t cp 0 4 950.0 1\n",
        ),
    );
    // A format larger than the device streams out of core; a replay of the
    // same factors pays only the copy back.
    let (min_big, _) = format_bytes_range(3000, 7);
    let ooc = (
        "out-of-core",
        ServeConfig {
            device_config: with_capacity(transient_bytes(3000, 7) + min_big / 2),
            ..ServeConfig::default()
        },
        parse(
            "tensor big nell2 3000 7\n\
             request big mttkrp 0 8 0.0 11\n\
             request big mttkrp 0 8 5.0 12\n\
             request big mttkrp 0 8 10.0 11\n",
        ),
    );
    // The transients alone fill the device: no out-of-core headroom is
    // left, so the request is rejected.
    let no_headroom = (
        "no-headroom",
        ServeConfig {
            device_config: with_capacity(transient_bytes(3000, 7)),
            ..ServeConfig::default()
        },
        parse(
            "tensor big nell2 3000 7\n\
             request big mttkrp 0 8 0.0 11\n",
        ),
    );
    vec![open_loop, pressure, cp, ooc, no_headroom]
}

fn render(name: &str, config: ServeConfig, workload: &Workload) -> String {
    let mut engine = ServeEngine::new(config);
    engine.enable_protocol_log();
    let report = engine.run(workload);
    let mut out = String::new();
    let _ = writeln!(out, "== {name}");
    for event in engine.take_protocol_log() {
        let _ = writeln!(out, "event {event:?}");
    }
    for r in &report.requests {
        let _ = writeln!(
            out,
            "request {} device {} stream {} start {:?} finish {:?} exec {:?} tier {} chunks {} batched {} deferred {}",
            r.index,
            r.device,
            r.stream,
            r.start_us,
            r.finish_us,
            r.exec_us,
            r.tier.label(),
            r.chunks.len(),
            r.batched,
            r.deferred
        );
    }
    for s in &report.sheds {
        let _ = writeln!(
            out,
            "shed {} device {} estimate {:?} deadline {:?}",
            s.index, s.device, s.estimate_us, s.deadline_us
        );
    }
    for r in &report.rejections {
        let _ = writeln!(out, "reject {} {}", r.index, r.reason);
    }
    let _ = writeln!(
        out,
        "summary batched {} deferred {} replicated {} makespan {:?}",
        report.batched, report.deferred, report.overload.replicated, report.makespan_us
    );
    for d in 0..report.pool_stats.len() {
        assert_eq!(
            engine.pool(d).reserved_bytes(),
            0,
            "{name}: device {d} leaked"
        );
    }
    out
}

#[test]
fn protocol_and_placements_match_the_fixture() {
    let actual: String = scenarios()
        .into_iter()
        .map(|(name, config, workload)| render(name, config, &workload))
        .collect();
    if actual != FIXTURE {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("lifecycle.actual.txt");
        std::fs::write(&path, &actual).expect("write the rendered log");
        let line = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, f)| a != f)
            .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "protocol log differs from the fixture at line {} (rendered log: {})",
            line + 1,
            path.display()
        );
    }
}

#[test]
fn the_fixture_covers_every_request_path() {
    let has = |needle: &str| FIXTURE.contains(needle);
    assert!(has("event AdmitOk"), "in-core admission");
    assert!(has("batched true"), "result-cache replay");
    assert!(has("event AdmitDefer"), "deferral");
    assert!(has("event Shed"), "deadline shed");
    assert!(has("event Replicate"), "hot-plan replication");
    assert!(
        FIXTURE
            .lines()
            .any(|l| l.starts_with("request") && !l.contains(" chunks 0 ")),
        "out-of-core chunks"
    );
    assert!(has("event AdmitReject"), "genuine rejection");
    assert!(has("unknown tensor"), "unknown-tensor rejection");
    let cp = FIXTURE
        .split("== ")
        .find(|section| section.starts_with("cp\n"))
        .expect("a CP-ALS scenario");
    assert!(cp.contains("\nrequest 0 "), "the CP-ALS job completes");
}
