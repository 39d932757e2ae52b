//! Golden agreement tests: every verdict the symbolic analyzer issues must
//! agree with what a *recorded* execution of the same configuration shows.
//!
//! - statically **proved** properties hold in dynamic sanitizer traces on the
//!   seed tensors (no disagreement in either direction);
//! - statically **refuted** configurations reproduce their counterexample
//!   under replay — the dead warps are absent from the record, the strided
//!   gather costs exactly the predicted transactions;
//! - analyzer-pruned tuning selects the same winner as the exhaustive sweep
//!   while simulating strictly fewer launches.

use analyzer::model::LaunchGeometry;
use analyzer::{analyze_tensor, KernelKind, Property, Verdict};
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
    let bound = LaunchGeometry::new(cfg.block_size, threadlen, fcoo.nnz(), rank, 0).atomic_bound();
    let atomics: usize = log
        .launches
        .iter()
        .flat_map(|l| &l.blocks)
        .flat_map(|b| &b.events)
        .filter(|e| e.kind == AccessKind::FunctionalAtomic)
        .count();
    assert!(atomics > 0, "the kernel must issue frontier atomics");
    assert!(
        atomics <= bound,
        "recorded {atomics} functional atomics exceed the proved bound {bound}"
    );
}

#[test]
fn refuted_dead_warps_are_absent_from_the_record() {
    let device = GpuDevice::titan_x();
    let tensor = sample(4_000);
    let (threadlen, rank) = (64, 8);
    let analysis = analyze_tensor(
        device.config(),
        &tensor,
        KernelKind::SpMttkrp,
        0,
        rank,
        &[64, 1024],
        &[threadlen],
    )
    .expect("unified kernels analyze on any order");
    let config = analysis
        .configs
        .iter()
        .find(|c| c.block_size == 1024)
        .expect("grid point");
    let warps = config
        .properties
        .iter()
        .find(|p| p.property == Property::EffectiveWarps)
        .expect("effective-warps verdict");
    assert_eq!(
        warps.verdict,
        Verdict::Refuted,
        "block 1024 is dominated by 64 on this tensor: {}",
        warps.detail
    );
    let cx = warps.counterexample.as_ref().expect("counterexample");

    // Replay the refuted configuration: the warps the analyzer declared dead
    // must never appear in the recorded trace, and every live warp must.
    let cfg = LaunchConfig {
        block_size: 1024,
        ..LaunchConfig::default()
    };
    let log = record_spmttkrp(&device, &tensor, threadlen, rank, &cfg);
    let block = &log.launches[0].blocks[cx.block];
    let seen: std::collections::BTreeSet<u32> = block.events.iter().map(|e| e.warp).collect();
    assert_eq!(
        seen.len(),
        cx.warp,
        "live warp count must equal the first dead warp index {}: saw {seen:?}",
        cx.warp
    );
    assert!(
        seen.iter().all(|&w| (w as usize) < cx.warp),
        "a statically dead warp left events in the record: {seen:?}"
    );
}

#[test]
fn proved_segment_flags_replay_clean_and_refuted_flags_reproduce() {
    let device = GpuDevice::titan_x();
    let tensor = sample(2_000);
    let (threadlen, rank) = (16, 8);
    let analysis = analyze_tensor(
        device.config(),
        &tensor,
        KernelKind::SpMttkrp,
        0,
        rank,
        &[128],
        &[threadlen],
    )
    .expect("analysis");
    let flags = analysis.configs[0]
        .properties
        .iter()
        .find(|p| p.property == Property::SegmentFlags)
        .expect("segment-flags verdict");
    assert_eq!(flags.verdict, Verdict::Proved, "{}", flags.detail);
    // The proof must hold dynamically: a full sanitizer replay of the same
    // configuration reports nothing.
    let log = record_spmttkrp(&device, &tensor, threadlen, rank, &LaunchConfig::default());
    let dynamic = sanitizer::analyze(&log);
    assert_eq!(dynamic.error_count(), 0, "{dynamic}");

    // And a refutation must reproduce: corrupt a padding bit of the packed
    // start-flags (a ghost segment head in the padded final partition) and
    // the same plan the analyzer refutes is the one the dynamic lint rejects.
    let mut fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, threadlen);
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
        "dynamic lint must reproduce the refutation: {lint}"
    );
}

#[test]
fn two_step_gather_counterexample_reproduces_under_replay() {
    let device = GpuDevice::titan_x();
    let tensor = sample(2_000);
    let (threadlen, rank) = (8, 8);
    let cfg = LaunchConfig::default();
    let analysis = analyze_tensor(
        device.config(),
        &tensor,
        KernelKind::TwoStep,
        0,
        rank,
        &[cfg.block_size],
        &[threadlen],
    )
    .expect("3-order tensor");
    let gather = analysis.configs[0]
        .properties
        .iter()
        .find(|p| p.property == Property::Coalescing)
        .expect("coalescing verdict");
    assert_eq!(gather.verdict, Verdict::Refuted, "{}", gather.detail);
    let cx = gather.counterexample.as_ref().expect("counterexample");
    assert_eq!(cx.lane_offsets.len(), 32);

    // Replay: record both launches of the two-step method. In the step-2
    // record of block (0, col 0), the first 32 lane-granular narrated reads
    // are warp 0's iteration-0 intermediate gather — the exact access the
    // counterexample symbolizes.
    let hosts: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, rank, 1 + m as u64))
        .collect();
    let refs: Vec<&DenseMatrix> = hosts.iter().collect();
    device.start_recording();
    fcoo::spmttkrp_two_step_unified(&device, &tensor, 0, &refs, threadlen, &cfg).expect("launch");
    let log = device.stop_recording();
    assert_eq!(log.launches.len(), 2, "one launch per step");
    let step2 = &log.launches[1].blocks[cx.block];
    let addrs: Vec<u64> = step2
        .events
        .iter()
        .filter(|e| e.kind == AccessKind::NarratedRead && e.bytes == 1 && e.warp == cx.warp as u32)
        .take(32)
        .map(|e| e.addr)
        .collect();
    assert_eq!(addrs.len(), 32, "warp 0 must gather with all 32 lanes");

    // Identical stride pattern...
    let stride = (threadlen * rank * 4) as u64;
    for pair in addrs.windows(2) {
        assert_eq!(pair[1] - pair[0], stride, "recorded gather stride");
    }
    for pair in cx.lane_offsets.windows(2) {
        assert_eq!(pair[1] - pair[0], stride, "symbolic gather stride");
    }
    // ...and the replayed access costs what the refutation claims: far off
    // the ideal, within the symbolic worst case.
    let seg = device.config().transaction_bytes;
    let replayed = coalesce::transactions(&addrs, seg);
    let symbolic_worst = coalesce::transactions(&cx.lane_offsets, seg);
    assert_eq!(replayed, 32, "each lane pays its own transaction");
    assert!(replayed <= symbolic_worst);
    assert!(replayed > gpu_sim::RangeAccess::new(32 * 4, 4).ideal_transactions(seg));
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
