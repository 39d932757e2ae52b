//! Pins what the simulator's instrumentation observes.
//!
//! A fixed set of launches — SpTTM, SpMTTKRP and SpTTMc on F-COO and
//! BF-COO, SpMTTKRP on its float-atomic fallback, the two-step SpMTTKRP,
//! and one launch dropped by an injected launch failure — runs once under
//! sanitizer recording and once under profiler tracing. The rendered
//! summary must match the committed fixture
//! `tests/fixtures/instrumentation.txt` byte for byte:
//!
//! * recorded: per launch the grid, block size and allocation snapshot; per
//!   block the event count and a digest of every `Event` field, in order;
//! * traced: per launch the waves, the `time_us` bits and `counters()`; per
//!   block the warps, the event count and a digest of every `MemoryEvent`
//!   field, in order.
//!
//! On a mismatch the rendered text is written to
//! `CARGO_TARGET_TMPDIR/instrumentation.actual.txt` so it can be diffed
//! against the fixture.
//!
//! The other tests check that recording and tracing together see exactly
//! what each sees alone, and that a kernel panic leaves no per-block state
//! behind on the worker that ran it.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use unified_tensors::fcoo::spmttkrp_two_step_unified;
use unified_tensors::gpu_sim::{AccessLog, FaultConfig, LaunchTrace, TraceLog};
use unified_tensors::prelude::*;

const FIXTURE: &str = include_str!("fixtures/instrumentation.txt");

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) -> &mut Self {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
}

/// What one operation left behind on a device.
struct OpRun {
    label: String,
    recorded: Option<AccessLog>,
    traced: Option<TraceLog>,
    stats: String,
    output: Vec<u32>,
}

/// Runs the fixture's operations on a fresh device, recording and/or
/// tracing each one separately.
fn run_ops(record: bool, trace: bool) -> Vec<OpRun> {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1_200, 99);
    let rank = 4;
    let threadlen = 4;
    let cfg = LaunchConfig {
        block_size: 64,
        ..LaunchConfig::default()
    };
    let hosts: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, 1 + m as u64))
        .collect();
    let device = GpuDevice::titan_x();
    let factors: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("factor upload"))
        .collect();
    let observe = |label: String, op: &dyn Fn() -> (Vec<f32>, KernelStats)| {
        if record {
            device.start_recording();
        }
        if trace {
            device.start_tracing();
        }
        let (values, stats) = op();
        OpRun {
            label,
            recorded: record.then(|| device.stop_recording()),
            traced: trace.then(|| device.stop_tracing()),
            stats: format!("{stats:?}"),
            output: values.iter().map(|v| v.to_bits()).collect(),
        }
    };
    let unified = |kind: FormatKind, op: TensorOp, cfg: &LaunchConfig| {
        let format = AnyFormat::build(kind, &tensor, op, threadlen);
        let uploaded = format.upload(device.memory()).expect("format upload");
        let refs: Vec<&DeviceMatrix> = op
            .factor_modes(tensor.order())
            .into_iter()
            .map(|m| &factors[m])
            .collect();
        let (out, stats) = uploaded
            .launch(&device, &refs, cfg)
            .expect("unified launch");
        (out.data().to_vec(), stats)
    };
    let mut runs = Vec::new();
    for op in [
        TensorOp::SpTtm { mode: 0 },
        TensorOp::SpMttkrp { mode: 1 },
        TensorOp::SpTtmc { mode: 2 },
    ] {
        for kind in [FormatKind::Fcoo, FormatKind::BfCoo] {
            runs.push(observe(format!("{} {kind}", op.label()), &|| {
                unified(kind, op, &cfg)
            }));
        }
    }
    // The atomic fallback: the one path that issues float atomics.
    runs.push(observe("SpMTTKRP(mode-2) fcoo, atomics".into(), &|| {
        let atomics = LaunchConfig {
            use_segscan: false,
            ..cfg
        };
        unified(FormatKind::Fcoo, TensorOp::SpMttkrp { mode: 1 }, &atomics)
    }));
    runs.push(observe("two-step SpMTTKRP(mode-1)".into(), &|| {
        let refs: Vec<&DenseMatrix> = hosts.iter().collect();
        let outcome = spmttkrp_two_step_unified(&device, &tensor, 0, &refs, threadlen, &cfg)
            .expect("two-step run");
        (outcome.result.data().to_vec(), outcome.stats)
    }));
    runs.push(observe("dropped SpTTM(mode-1) fcoo".into(), &|| {
        device.memory().install_faults(FaultConfig {
            launch_failure_rate: 1.0,
            ..FaultConfig::quiet(7)
        });
        let result = unified(FormatKind::Fcoo, TensorOp::SpTtm { mode: 0 }, &cfg);
        device.memory().clear_faults();
        result
    }));
    runs
}

fn render_recorded(out: &mut String, log: &AccessLog) {
    for (index, launch) in log.launches.iter().enumerate() {
        let _ = writeln!(
            out,
            "  launch {index}: grid {:?} block {} allocations {:?}",
            launch.grid, launch.block_threads, launch.allocations
        );
        for block in &launch.blocks {
            let mut digest = Digest::new();
            for e in &block.events {
                digest
                    .word(e.addr)
                    .word(u64::from(e.bytes))
                    .word(e.kind as u64)
                    .word(u64::from(e.warp))
                    .word(u64::from(e.epoch))
                    .word(u64::from(e.adjacent_epoch));
            }
            let _ = writeln!(
                out,
                "    block {}: {} events {:016x}",
                block.block,
                block.events.len(),
                digest.0
            );
        }
    }
}

fn render_traced(out: &mut String, launches: &[LaunchTrace]) {
    for (index, launch) in launches.iter().enumerate() {
        let _ = writeln!(
            out,
            "  launch {index}: grid {:?} block {} dropped {} waves {} time_us {:016x}",
            launch.grid,
            launch.block_threads,
            launch.dropped,
            launch.waves.len(),
            launch.time_us.to_bits()
        );
        let _ = writeln!(out, "    {:?}", launch.counters());
        for block in &launch.blocks {
            let mut digest = Digest::new();
            for e in &block.events {
                digest
                    .word(u64::from(e.warp))
                    .word(e.kind as u64)
                    .word(e.transactions)
                    .word(e.ideal_transactions)
                    .word(e.dram_bytes)
                    .word(e.cache_hits)
                    .word(e.cache_misses)
                    .word(e.atomic_lanes)
                    .word(e.atomic_multiplicity);
            }
            let _ = writeln!(
                out,
                "    block {}: {} warps {} events {:016x}",
                block.block,
                block.warps,
                block.events.len(),
                digest.0
            );
        }
    }
}

fn render() -> String {
    let mut out = String::from("# recorded run\n");
    for run in run_ops(true, false) {
        let _ = writeln!(out, "{}", run.label);
        render_recorded(&mut out, run.recorded.as_ref().expect("recorded"));
    }
    out.push_str("# traced run\n");
    for run in run_ops(false, true) {
        let _ = writeln!(out, "{}", run.label);
        render_traced(&mut out, &run.traced.as_ref().expect("traced").launches);
    }
    out
}

#[test]
fn instrumentation_matches_the_committed_fixture() {
    let actual = render();
    if actual != FIXTURE {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("instrumentation.actual.txt");
        std::fs::write(&path, &actual).expect("write the rendered instrumentation");
        let line = actual
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, f)| a != f)
            .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "instrumentation differs from the fixture at line {} (rendered: {})",
            line + 1,
            path.display()
        );
    }
}

#[test]
fn recording_and_tracing_together_match_each_alone() {
    let recorded = run_ops(true, false);
    let traced = run_ops(false, true);
    let both = run_ops(true, true);
    for ((r, t), b) in recorded.iter().zip(&traced).zip(&both) {
        let label = &b.label;
        assert_eq!(
            format!("{:?}", r.recorded),
            format!("{:?}", b.recorded),
            "{label}: access log"
        );
        assert_eq!(
            t.traced.as_ref().map(|log| &log.launches),
            b.traced.as_ref().map(|log| &log.launches),
            "{label}: trace log"
        );
        for other in [r, t] {
            assert_eq!(other.stats, b.stats, "{label}: kernel stats");
            assert_eq!(other.output, b.output, "{label}: output bits");
        }
    }
}

/// A small kernel that narrates, reads, writes and issues float atomics;
/// returns what the device recorded and traced plus the accumulated sums.
fn probe(device: &GpuDevice, input: &[f32]) -> (String, Vec<LaunchTrace>, Vec<u32>) {
    let data = device.memory().alloc_from_slice(input).expect("alloc");
    let sums = device.memory().alloc_zeroed::<f32>(4).expect("alloc");
    device.start_recording();
    device.start_tracing();
    device.launch((32, 1), 64, |ctx| {
        let b = ctx.block_x();
        for warp in 0..ctx.warps_per_block() {
            ctx.begin_warp();
            let addrs: Vec<u64> = (0..32)
                .map(|lane| data.addr((b + warp + lane) % 64))
                .collect();
            ctx.read_global(&addrs);
            let value = data.get(b);
            ctx.syncthreads();
            ctx.atomic_add_f32(&sums, &[(b % 4, value), ((b + 1) % 4, value * 0.5)]);
        }
    });
    let recorded = format!("{:?}", device.stop_recording());
    let traced = device.stop_tracing().launches;
    (
        recorded,
        traced,
        sums.to_vec().iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn a_kernel_panic_leaves_no_slot_behind() {
    let input: Vec<f32> = (0..64).map(|i| (i as f32 * 0.7).sin() * 1e3).collect();
    let device = GpuDevice::titan_x();
    let small = device.memory().alloc_zeroed::<f32>(8).expect("alloc");
    let sink = device.memory().alloc_zeroed::<f32>(1).expect("alloc");
    device.start_recording();
    device.start_tracing();
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        device.launch((64, 1), 32, |ctx| {
            ctx.begin_warp();
            ctx.read_global(&[small.addr(0)]);
            sink.atomic_add_f32(0, 1.0);
            // Blocks past the buffer's end read out of bounds and panic
            // with their record, trace and queued atomic half-built.
            let _ = small.get(ctx.block_x());
        });
    }));
    assert!(panicked.is_err(), "the out-of-bounds read must panic");
    device.stop_recording();
    device.stop_tracing();
    // No pool worker still holds a panicked block's slot: float atomics
    // issued on the workers outside any launch apply at once.
    let host = device.memory().alloc_zeroed::<f32>(1).expect("alloc");
    let mut tasks = vec![0u8; 256];
    unified_tensors::cpu_par::par_chunks_mut(&mut tasks, 1, |_, _| host.atomic_add_f32(0, 1.0));
    assert_eq!(host.get(0), 256.0, "host-side atomics after a panic");

    let fresh = GpuDevice::titan_x();
    let _small = fresh.memory().alloc_zeroed::<f32>(8).expect("alloc");
    let _sink = fresh.memory().alloc_zeroed::<f32>(1).expect("alloc");
    let _host = fresh.memory().alloc_zeroed::<f32>(1).expect("alloc");
    let after_panic = probe(&device, &input);
    let on_fresh = probe(&fresh, &input);
    assert_eq!(after_panic.0, on_fresh.0, "recording after a panic");
    assert_eq!(after_panic.1, on_fresh.1, "tracing after a panic");
    assert_eq!(after_panic.2, on_fresh.2, "float atomics after a panic");
}
