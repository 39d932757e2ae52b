//! Property tests for the symbolic cost certifier (`analyzer::cost`).
//!
//! Two claims must hold for *arbitrary* tensors and configurations, not
//! just the golden datasets:
//!
//! * **soundness** — the `[lo, hi]` envelope certified from the F-COO
//!   headers alone contains every raw counter a real traced launch
//!   produces, including the simulated duration;
//! * **winner preservation** — certified dominance pruning never rules
//!   out the configuration an exhaustive launched sweep would pick: the
//!   true winner is neither structurally pruned nor envelope-eliminated,
//!   and its measured time lies inside its certificate.
//!
//! Column-tiled SpTTMc gets its own property over order-3 and order-4
//! tensors, ranks with and without tiling, both formats and the launch
//! grid: the output matches the sequential reference, BF-COO matches F-COO
//! and each format's certificate contains its traced counters.
//!
//! A deterministic case pins the headline acceptance number: on the
//! nell2 stand-in the MTTKRP winner is certified with at least half of
//! the full tuning grid ruled out with zero trial launches.

use analyzer::cost;
use fcoo::{
    spmttkrp, spttm, AnyFormat, DeviceMatrix, Fcoo, FcooDevice, FormatKind, LaunchConfig, TensorOp,
};
use gpu_sim::{DeviceConfig, GpuDevice};
use proptest::prelude::*;
use tensor_core::datasets::{self, DatasetKind};
use tensor_core::{ops, DenseMatrix, SparseTensorCoo};

const RANK: usize = 8;

fn kind_from(selector: u8) -> DatasetKind {
    match selector % 3 {
        0 => DatasetKind::Nell2,
        1 => DatasetKind::Brainq,
        _ => DatasetKind::Uniform,
    }
}

fn op_from(selector: u8, mode: usize) -> TensorOp {
    if selector.is_multiple_of(2) {
        TensorOp::SpTtm { mode }
    } else {
        TensorOp::SpMttkrp { mode }
    }
}

fn factors(tensor: &SparseTensorCoo, seed: u64) -> Vec<DenseMatrix> {
    tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &n)| DenseMatrix::random(n, RANK, seed + m as u64))
        .collect()
}

/// Runs one traced launch of `op` at `(block_size, threadlen)` on a fresh
/// device and returns the certified envelope next to the drained counters.
fn certify_and_trace(
    tensor: &SparseTensorCoo,
    op: TensorOp,
    threadlen: usize,
    block_size: usize,
    factor_seed: u64,
) -> (cost::CounterEnvelope, Vec<String>) {
    let device = GpuDevice::titan_x();
    let config = device.config();
    let cfg = LaunchConfig::with_block_size(block_size);
    let fcoo = Fcoo::from_coo(tensor, op, threadlen);
    let envelope = cost::certify(config, &fcoo, RANK, &cfg);
    let on_device = FcooDevice::upload(device.memory(), &fcoo).expect("format upload");
    let hosts = factors(tensor, factor_seed);
    let uploaded: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|f| DeviceMatrix::upload(device.memory(), f).expect("factor upload"))
        .collect();
    device.start_tracing();
    match op {
        TensorOp::SpTtm { mode } => {
            spttm(&device, &on_device, &uploaded[mode], &cfg).expect("traced spttm");
        }
        _ => {
            let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
            spmttkrp(&device, &on_device, &refs, &cfg).expect("traced spmttkrp");
        }
    }
    let counters = device.stop_tracing().counters();
    let violations = envelope.violations(&counters);
    (envelope, violations)
}

/// Launches SpTTMc over `tensor` in `kind`'s format at rank `rank` on a
/// fresh device, traced, and returns the output with the envelope
/// violations of the format's certificate.
fn traced_spttmc(
    tensor: &SparseTensorCoo,
    kind: FormatKind,
    mode: usize,
    hosts: &[DenseMatrix],
    threadlen: usize,
    cfg: &LaunchConfig,
) -> (DenseMatrix, Vec<String>) {
    let op = TensorOp::SpTtmc { mode };
    let format = AnyFormat::build(kind, tensor, op, threadlen);
    let rank = hosts[0].cols();
    let envelope = cost::certify_format(&DeviceConfig::titan_x(), &format, rank, cfg);
    let device = GpuDevice::titan_x();
    let on_device = format.upload(device.memory()).expect("format upload");
    let factors: Vec<DeviceMatrix> = hosts
        .iter()
        .map(|h| DeviceMatrix::upload(device.memory(), h).expect("factor upload"))
        .collect();
    let refs: Vec<&DeviceMatrix> = factors.iter().collect();
    device.start_tracing();
    let (out, _) = on_device
        .spttmc_norder(&device, &refs, cfg)
        .expect("traced spttmc");
    let counters = device.stop_tracing().counters();
    (out, envelope.violations(&counters))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiled SpTTMc: exact against the reference, format-invariant and
    /// certified, at tiles 1 (ranks 1, 2, 3, 5), 2 (rank 4), 4 (rank 6 on
    /// order 3), 8 (ranks 8, 12 and 16 on order 3) and 64 (ranks 8, 12 and
    /// 16 on order 4), with the read-only cache and the segmented scan each
    /// on or off. Rows of 6 and 12 floats are no multiple of the 8-float
    /// line, so a tile's wide load touches one or two lines per factor
    /// depending on where the row starts.
    #[test]
    fn tiled_spttmc_matches_the_reference_across_formats_inside_its_envelope(
        order4 in proptest::bool::ANY,
        nnz in 60usize..400,
        dataset_seed in 0u64..1000,
        kind_selector in 0u8..3,
        mode in 0usize..4,
        rank_index in 0usize..9,
        threadlen in 1usize..24,
        block_index in 0usize..3,
        ablation in 0u8..3,
        factor_seed in 0u64..1000,
    ) {
        let tensor = if order4 {
            datasets::generate_norder(&[12, 9, 14, 7], nnz, 0.6, dataset_seed)
        } else {
            datasets::generate(kind_from(kind_selector), nnz, dataset_seed).0
        };
        prop_assume!(mode < tensor.order());
        let rank = [1usize, 2, 3, 4, 5, 6, 8, 12, 16][rank_index];
        let cfg = LaunchConfig {
            use_rocache: ablation != 1,
            use_segscan: ablation != 2,
            ..LaunchConfig::with_block_size([32usize, 64, 128][block_index])
        };
        let hosts: Vec<DenseMatrix> = (0..tensor.order())
            .filter(|&m| m != mode)
            .map(|m| DenseMatrix::random(tensor.shape()[m], rank, factor_seed + m as u64))
            .collect();
        let host_refs: Vec<&DenseMatrix> = hosts.iter().collect();
        let reference = ops::spttmc_norder(&tensor, mode, &host_refs);
        let scale = 1.0 + reference.data().iter().fold(0.0f64, |m, v| m.max(f64::from(v.abs())));
        let mut outputs = Vec::new();
        for kind in FormatKind::ALL {
            let (out, violations) = traced_spttmc(&tensor, kind, mode, &hosts, threadlen, &cfg);
            let label = format!(
                "{kind:?} order {} rank {rank} B{} T{threadlen} rocache {} segscan {}",
                tensor.order(), cfg.block_size, cfg.use_rocache, cfg.use_segscan
            );
            prop_assert!(violations.is_empty(), "{label}: {violations:?}");
            let diff = out.max_abs_diff(&reference);
            prop_assert!(diff < 1e-3 * scale, "{label}: diff {diff} against the reference");
            outputs.push(out);
        }
        // Boundary segments meet through float atomics, applied in block
        // order only at one pool worker.
        if cpu_par::global_pool().num_threads() == 1 {
            let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&outputs[0]), bits(&outputs[1]));
        } else {
            prop_assert!(outputs[0].max_abs_diff(&outputs[1]) < 1e-3 * scale);
        }
    }

    /// Soundness: for any power-law tensor, kernel, mode and grid point,
    /// every counter of a real traced launch lies within the envelope
    /// certified from the headers alone.
    #[test]
    fn traced_counters_lie_within_their_certified_envelope(
        nnz in 150usize..900,
        dataset_seed in 0u64..1000,
        kind_selector in 0u8..3,
        op_selector in 0u8..2,
        mode in 0usize..3,
        threadlen_index in 0usize..3,
        block_index in 0usize..3,
        factor_seed in 0u64..1000,
    ) {
        let (tensor, _) = datasets::generate(kind_from(kind_selector), nnz, dataset_seed);
        prop_assume!(mode < tensor.order());
        let op = op_from(op_selector, mode);
        let threadlen = [8usize, 16, 32][threadlen_index];
        let block_size = [64usize, 128, 256][block_index];
        let (envelope, violations) =
            certify_and_trace(&tensor, op, threadlen, block_size, factor_seed);
        prop_assert!(
            violations.is_empty(),
            "{:?} B{block_size} T{threadlen}: {violations:?}",
            op
        );
        prop_assert!(envelope.launches >= 1);
    }

    /// Winner preservation: the configuration an exhaustive launched sweep
    /// picks is never pruned or envelope-eliminated by the certified
    /// tuner, and its measured time sits inside its certificate.
    #[test]
    fn certified_pruning_never_rules_out_the_exhaustive_winner(
        nnz in 150usize..700,
        dataset_seed in 0u64..1000,
        op_selector in 0u8..2,
        mode in 0usize..3,
    ) {
        const BLOCKS: [usize; 3] = [64, 128, 256];
        const THREADS: [usize; 3] = [8, 16, 32];
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, nnz, dataset_seed);
        prop_assume!(mode < tensor.order());
        let op = op_from(op_selector, mode);
        let exhaustive = fcoo::tune(
            &GpuDevice::titan_x(),
            &tensor,
            op,
            RANK,
            Some(&BLOCKS),
            Some(&THREADS),
        );
        let certified = analyzer::tune_certified(
            &GpuDevice::titan_x(),
            &tensor,
            op,
            RANK,
            Some(&BLOCKS),
            Some(&THREADS),
        );
        let best = exhaustive.best_pair();
        prop_assert!(
            !certified.pruned.contains(&best),
            "structural filter pruned the exhaustive winner {best:?}"
        );
        prop_assert!(
            !certified.eliminated.contains(&best),
            "envelope dominance eliminated the exhaustive winner {best:?}"
        );
        let envelope = certified
            .envelopes
            .iter()
            .find(|p| (p.block_size, p.threadlen) == best)
            .expect("the surviving winner carries a certificate");
        prop_assert!(
            envelope.time_us.contains(exhaustive.best.time_us),
            "winner time {} outside certified [{}, {}]",
            exhaustive.best.time_us,
            envelope.time_us.lo,
            envelope.time_us.hi
        );
        // The trial-launch accounting always partitions the grid.
        prop_assert_eq!(
            certified.launches + certified.launches_avoided(),
            certified.grid_points
        );
    }
}

/// Headline acceptance case: on the nell2 stand-in at golden-suite scale
/// the MTTKRP winner is certified while at least half of the paper's full
/// 6×6 tuning grid is ruled out with zero trial launches — and skipping
/// those launches does not change the winner.
#[test]
fn nell2_mttkrp_certifies_the_winner_with_majority_grid_elimination() {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1_500, 2017);
    let op = TensorOp::SpMttkrp { mode: 0 };
    let certified = analyzer::tune_certified(&GpuDevice::titan_x(), &tensor, op, RANK, None, None);
    assert!(
        certified.launches_avoided() * 2 >= certified.grid_points,
        "only {} of {} grid points were ruled out without a launch",
        certified.launches_avoided(),
        certified.grid_points
    );
    let exhaustive = fcoo::tune(&GpuDevice::titan_x(), &tensor, op, RANK, None, None);
    assert_eq!(
        certified.best_pair(),
        exhaustive.best_pair(),
        "certified winner disagrees with the exhaustive sweep"
    );
}
