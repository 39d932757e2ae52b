//! Golden agreement tests: what the analyzer certifies from headers alone
//! must agree with what a *recorded* execution of the same configuration
//! shows.
//!
//! - the certified envelope's exact counters reproduce under replay — the
//!   frontier atomics, the dead warp slots absent from the record, the
//!   two-step baseline's step-2 gather transactions;
//! - the plan-load gate accepts a clean format that replays clean, and
//!   refuses a corrupted one the dynamic lint also rejects;
//! - structurally pruned tuning selects the same winner as the exhaustive
//!   sweep while simulating strictly fewer launches.

use analyzer::cost;
use fcoo::{AnyFormat, BitFlags, DeviceMatrix, Fcoo, FcooDevice, LaunchConfig, TensorOp};
use gpu_sim::record::AccessKind;
use gpu_sim::{coalesce, AccessLog, GpuDevice};
use tensor_core::datasets::{self, DatasetKind};
use tensor_core::{DenseMatrix, SparseTensorCoo};

fn sample(nnz: usize) -> SparseTensorCoo {
    datasets::generate(DatasetKind::Nell2, nnz, 11).0
}

/// Records one unified SpMTTKRP launch and returns the access log.
fn record_spmttkrp(
    device: &GpuDevice,
    tensor: &SparseTensorCoo,
    threadlen: usize,
    rank: usize,
    cfg: &LaunchConfig,
) -> AccessLog {
    let fcoo = Fcoo::from_coo(tensor, TensorOp::SpMttkrp { mode: 0 }, threadlen);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("upload");
    let hosts: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, 1 + m as u64))
        .collect();
    let factors: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("upload"))
        .collect();
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    device.start_recording();
    fcoo::spmttkrp(device, &on_device, &refs, cfg).expect("launch");
    device.stop_recording()
}

#[test]
fn recorded_atomics_stay_within_the_static_bound() {
    let device = GpuDevice::titan_x();
    let tensor = sample(2_000);
    let (threadlen, rank) = (16, 8);
    let cfg = LaunchConfig::default();
    let log = record_spmttkrp(&device, &tensor, threadlen, rank, &cfg);
    let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, threadlen);
    let atomics = log
        .launches
        .iter()
        .flat_map(|l| &l.blocks)
        .flat_map(|b| &b.events)
        .filter(|e| e.kind == AccessKind::FunctionalAtomic)
        .count() as u64;
    assert!(atomics > 0, "the kernel must issue frontier atomics");
    // Interior segments resolve with exclusive writes; each thread
    // finalizes at most two frontier segments (its first closed and its
    // last open one) per output column.
    let bound = 2 * (fcoo.partitions() * rank) as u64;
    assert!(
        atomics <= bound,
        "recorded {atomics} functional atomics exceed the static bound {bound}"
    );
}

#[test]
fn refuted_dead_warps_are_absent_from_the_record() {
    let device = GpuDevice::titan_x();
    let tensor = sample(4_000);
    let (threadlen, rank) = (64, 8);
    // 63 partitions in one 1024-thread block: 2 of its 32 warp slots live.
    let cfg = LaunchConfig::with_block_size(1024);
    let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, threadlen);
    let envelope = cost::certify(device.config(), &fcoo, rank, &cfg);
    assert!(
        envelope.launched_warps > envelope.active_warps,
        "block 1024 launches dead warp slots on this tensor"
    );
    assert!(
        analyzer::model::LaunchGeometry::new(1024, threadlen, fcoo.nnz())
            .dominated_by(&fcoo::BLOCK_SIZES)
            .is_some(),
        "and a smaller block size dominates it, so the tuner prunes it"
    );

    // Replay: exactly the certified active warps leave events in the
    // record, each block's lowest-numbered ones; the dead slots none.
    let log = record_spmttkrp(&device, &tensor, threadlen, rank, &cfg);
    let blocks = &log.launches[0].blocks;
    assert_eq!(blocks.len() as u64, envelope.blocks);
    let live_per_block = (envelope.active_warps / envelope.blocks) as u32;
    let mut active = 0;
    for block in blocks {
        let seen: std::collections::BTreeSet<u32> = block.events.iter().map(|e| e.warp).collect();
        assert_eq!(
            seen,
            (0..live_per_block).collect(),
            "a statically dead warp left events in the record"
        );
        active += seen.len() as u64;
    }
    assert_eq!(active, envelope.active_warps, "recorded vs certified warps");
}

#[test]
fn proved_segment_flags_replay_clean_and_refuted_flags_reproduce() {
    let device = GpuDevice::titan_x();
    let tensor = sample(2_000);
    let (threadlen, rank) = (16, 8);
    let mut fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, threadlen);
    let format = AnyFormat::Fcoo(std::sync::Arc::new(fcoo.clone()));
    assert!(analyzer::plan_safe(device.config(), &format, 128));
    // The gate's acceptance must hold dynamically: a full sanitizer replay
    // of the same configuration reports nothing.
    let log = record_spmttkrp(&device, &tensor, threadlen, rank, &LaunchConfig::default());
    let dynamic = sanitizer::analyze(&log);
    assert_eq!(dynamic.error_count(), 0, "{dynamic}");

    // And a refusal must reproduce: corrupt a padding bit of the packed
    // start-flags (a ghost segment head in the padded final partition) and
    // the plan the gate refuses is the one the dynamic lint rejects.
    let partitions = fcoo.partitions();
    assert!(
        !partitions.is_multiple_of(8),
        "need a partial final sf byte for this test"
    );
    let mut bytes = fcoo.sf.bytes().to_vec();
    let last = bytes.len() - 1;
    bytes[last] |= 1 << (partitions % 8);
    fcoo.sf = BitFlags::from_bytes(bytes, partitions);
    let format = AnyFormat::Fcoo(std::sync::Arc::new(fcoo.clone()));
    assert!(!analyzer::plan_safe(device.config(), &format, 128));
    let lint = sanitizer::check_fcoo(&fcoo);
    assert!(
        lint.findings.iter().any(|f| f.message.contains("padding")),
        "dynamic lint must reproduce the refusal: {lint}"
    );
}

#[test]
fn two_step_gather_counterexample_reproduces_under_replay() {
    let device = GpuDevice::titan_x();
    let tensor = sample(2_000);
    let (threadlen, rank) = (8, 8);
    let cfg = LaunchConfig::default();
    let step2 = cost::certify_two_step(device.config(), &tensor, 0, rank, threadlen, &cfg)
        .expect("3-order tensor")
        .step2;
    assert_eq!(step2.transactions.lo, step2.transactions.hi, "exact");
    assert_eq!(step2.ideal_transactions.lo, step2.ideal_transactions.hi);
    let hosts: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, 1 + m as u64))
        .collect();
    let refs: Vec<&DenseMatrix> = hosts.iter().collect();

    // Replay, traced: the step-2 launch costs exactly the certified
    // transactions, far above its ideal.
    device.start_tracing();
    fcoo::spmttkrp_two_step_unified(&device, &tensor, 0, &refs, threadlen, &cfg).expect("launch");
    let traced = device.stop_tracing();
    assert_eq!(traced.launches.len(), 2, "one launch per step");
    let measured = traced.launches[1].counters();
    assert_eq!(step2.violations(&measured), Vec::<String>::new());
    assert_eq!(measured.transactions, step2.transactions.lo);
    assert!(measured.transactions > 2 * measured.ideal_transactions);

    // Replay, recorded: warp 0's iteration-0 intermediate gather in block
    // (0, col 0) — the first 32 lane-granular narrated reads — strides
    // threadlen · rank elements per lane, one transaction each.
    device.start_recording();
    fcoo::spmttkrp_two_step_unified(&device, &tensor, 0, &refs, threadlen, &cfg).expect("launch");
    let log: AccessLog = device.stop_recording();
    let addrs: Vec<u64> = log.launches[1].blocks[0]
        .events
        .iter()
        .filter(|e| e.kind == AccessKind::NarratedRead && e.bytes == 1 && e.warp == 0)
        .take(32)
        .map(|e| e.addr)
        .collect();
    assert_eq!(addrs.len(), 32, "warp 0 must gather with all 32 lanes");
    let stride = (threadlen * rank * 4) as u64;
    for pair in addrs.windows(2) {
        assert_eq!(pair[1] - pair[0], stride, "recorded gather stride");
    }
    let seg = device.config().transaction_bytes;
    assert_eq!(coalesce::transactions(&addrs, seg), 32, "one per lane");
}

#[test]
fn pruned_tuning_selects_the_same_winner_with_fewer_launches() {
    let device = GpuDevice::titan_x();
    let tensor = sample(4_000);
    let op = TensorOp::SpMttkrp { mode: 0 };
    let exhaustive = fcoo::tune(&device, &tensor, op, 8, None, None);
    let keep = analyzer::tune_filter(device.config(), &fcoo::BLOCK_SIZES);
    let pruned = fcoo::tune_with_filter(&device, &tensor, op, 8, None, None, keep);
    assert_eq!(
        exhaustive.best_pair(),
        pruned.best_pair(),
        "pruning must be winner-preserving"
    );
    assert!(
        !pruned.pruned.is_empty(),
        "the full grid has dominated configurations on this tensor"
    );
    assert_eq!(
        pruned.surface.len() + pruned.pruned.len(),
        exhaustive.surface.len(),
        "every grid point is either simulated or statically pruned"
    );
    assert!(pruned.surface.len() < exhaustive.surface.len());
}
