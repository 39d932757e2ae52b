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
//! Hypersparse SpMTTKRP and SpTTMc get a property over ranks 1–16: the
//! certificate's exact counters equal the traced ones at every column-grid
//! height.
//!
//! A deterministic case pins the headline acceptance number: on the
//! nell2 stand-in the MTTKRP winner is certified with at least half of
//! the full tuning grid ruled out with zero trial launches.

use analyzer::cost;
use fcoo::{
    spmttkrp, spttm, AnyFormat, DeviceMatrix, Fcoo, FcooDevice, FormatKind, LaunchConfig,
    SortedFcoo, TensorOp,
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
    /// picks is never pruned or envelope-eliminated by certification, and
    /// its measured time sits inside its certificate.
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
        let sorted = SortedFcoo::new(&tensor, op);
        let (envelopes, pruned) = analyzer::certify_grid(
            &DeviceConfig::titan_x(),
            &sorted,
            FormatKind::Fcoo,
            RANK,
            &BLOCKS,
            &THREADS,
        );
        let best = exhaustive.best_pair();
        prop_assert!(
            !pruned.contains(&best),
            "structural filter pruned the exhaustive winner {best:?}"
        );
        let envelope = envelopes
            .iter()
            .find(|p| (p.block_size, p.threadlen) == best)
            .expect("the surviving winner carries a certificate");
        let min_hi = envelopes.iter().map(|p| p.time_us.hi).fold(f64::INFINITY, f64::min);
        prop_assert!(
            envelope.time_us.lo <= min_hi,
            "envelope dominance eliminated the exhaustive winner {best:?}"
        );
        prop_assert!(
            envelope.time_us.contains(exhaustive.best.time_us),
            "winner time {} outside certified [{}, {}]",
            exhaustive.best.time_us,
            envelope.time_us.lo,
            envelope.time_us.hi
        );
        // Certified and pruned points always partition the grid.
        prop_assert_eq!(envelopes.len() + pruned.len(), BLOCKS.len() * THREADS.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Coordinate streams across the column grid: on hypersparse tensors,
    /// whose warps each finalize tens of segment rows, SpMTTKRP and SpTTMc
    /// at every rank 1–16, both formats and both reduction schedules are
    /// certified exactly: every exact counter equals the traced one, and
    /// while the factors fit L2 (so read-only misses move no DRAM) so do
    /// the DRAM bytes — the bIdy = 0 block alone pays DRAM for the
    /// coordinates, in the certificate as in the trace.
    #[test]
    fn envelopes_over_ranks_1_to_16_contain_traced_runs_exactly(
        nnz in 60usize..500,
        dataset_seed in 0u64..1000,
        nell1 in proptest::bool::ANY,
        mode in 0usize..3,
        ttmc in proptest::bool::ANY,
        rank in 1usize..17,
        threadlen in 1usize..12,
        block_index in 0usize..3,
        segscan in proptest::bool::ANY,
        factor_seed in 0u64..1000,
    ) {
        let kind = if nell1 { DatasetKind::Nell1 } else { DatasetKind::Delicious };
        let (tensor, _) = datasets::generate(kind, nnz, dataset_seed);
        let op = if ttmc { TensorOp::SpTtmc { mode } } else { TensorOp::SpMttkrp { mode } };
        let cfg = LaunchConfig {
            use_segscan: segscan,
            ..LaunchConfig::with_block_size([32usize, 64, 128][block_index])
        };
        let factor_modes = op.factor_modes(tensor.order());
        let hosts: Vec<DenseMatrix> = factor_modes
            .iter()
            .map(|&m| DenseMatrix::random(tensor.shape()[m], rank, factor_seed + m as u64))
            .collect();
        let config = DeviceConfig::titan_x();
        let factor_bytes: usize = hosts.iter().map(|h| h.data().len() * 4).sum();
        for format_kind in FormatKind::ALL {
            let format = AnyFormat::build(format_kind, &tensor, op, threadlen);
            let envelope = cost::certify_format(&config, &format, rank, &cfg);
            let device = GpuDevice::titan_x();
            let on_device = format.upload(device.memory()).expect("format upload");
            let factors: Vec<DeviceMatrix> = hosts
                .iter()
                .map(|h| DeviceMatrix::upload(device.memory(), h).expect("factor upload"))
                .collect();
            let refs: Vec<&DeviceMatrix> = factors.iter().collect();
            device.start_tracing();
            on_device.launch(&device, &refs, &cfg).expect("traced launch");
            let counters = device.stop_tracing().counters();
            let label = format!(
                "{format_kind:?} {op:?} rank {rank} B{} T{threadlen} segscan {segscan}",
                cfg.block_size
            );
            let violations = envelope.violations(&counters);
            prop_assert!(violations.is_empty(), "{label}: {violations:?}");
            if factor_bytes <= config.l2_bytes {
                prop_assert!(envelope.dram_bytes.is_exact(), "{label}: {:?}", envelope.dram_bytes);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The one-sort, one-pass grid sweep is exact: over order-3 and order-4
    /// tensors, every operation, both formats, block sizes 32–256 and
    /// threadlens 1–33, each certified envelope equals `certify_format`
    /// over the format built at that point, bit for bit, the structural
    /// filter prunes the same pairs, and `tune_select` picks what a
    /// per-point sweep picks.
    #[test]
    fn one_pass_grid_sweep_equals_certifying_every_point(
        order4 in proptest::bool::ANY,
        nnz in 60usize..400,
        dataset_seed in 0u64..1000,
        kind_selector in 0u8..3,
        mode in 0usize..4,
        op_selector in 0u8..3,
        rank_index in 0usize..3,
    ) {
        const BLOCKS: [usize; 4] = [32, 64, 128, 256];
        let tensor = if order4 {
            datasets::generate_norder(&[12, 9, 14, 7], nnz, 0.6, dataset_seed)
        } else {
            datasets::generate(kind_from(kind_selector), nnz, dataset_seed).0
        };
        prop_assume!(mode < tensor.order());
        let op = match op_selector {
            0 => TensorOp::SpTtm { mode },
            1 => TensorOp::SpMttkrp { mode },
            _ => TensorOp::SpTtmc { mode },
        };
        let rank = [2usize, 4, 8][rank_index];
        let threadlens: Vec<usize> = (1..=33).collect();
        let config = DeviceConfig::titan_x();
        let keep = analyzer::tune_filter(&config, &BLOCKS);
        let sorted = SortedFcoo::new(&tensor, op);
        let mut bests = Vec::new();
        for kind in FormatKind::ALL {
            let (envelopes, pruned) =
                analyzer::certify_grid(&config, &sorted, kind, rank, &BLOCKS, &threadlens);
            let mut want_envelopes = Vec::new();
            let mut want_pruned = Vec::new();
            for &threadlen in &threadlens {
                let format = AnyFormat::build(kind, &tensor, op, threadlen);
                for block_size in BLOCKS {
                    if !keep(format.base(), block_size) {
                        want_pruned.push((block_size, threadlen));
                        continue;
                    }
                    let cfg = LaunchConfig::with_block_size(block_size);
                    let time = cost::certify_format(&config, &format, rank, &cfg).stats_time_us();
                    want_envelopes.push((block_size, threadlen, time.lo.to_bits(), time.hi.to_bits()));
                }
            }
            let got: Vec<_> = envelopes
                .iter()
                .map(|p| (p.block_size, p.threadlen, p.time_us.lo.to_bits(), p.time_us.hi.to_bits()))
                .collect();
            prop_assert_eq!(got, want_envelopes.clone(), "{:?} {:?} rank {}", kind, op, rank);
            prop_assert_eq!(pruned, want_pruned);
            // Minimal certified upper bound; ties keep the earlier point.
            let best = want_envelopes
                .into_iter()
                .reduce(|a, b| if f64::from_bits(b.3) < f64::from_bits(a.3) { b } else { a })
                .expect("the filter keeps a configuration");
            bests.push((kind, best));
        }
        let chosen = bests
            .iter()
            .copied()
            .reduce(|a, b| if f64::from_bits(b.1 .3) < f64::from_bits(a.1 .3) { b } else { a })
            .expect("two formats");
        let choice = analyzer::tune_select(&config, &tensor, op, rank, Some(&BLOCKS), Some(&threadlens));
        let c = &choice.chosen;
        prop_assert_eq!(
            (c.kind, c.block_size, c.threadlen, c.time_us.lo.to_bits(), c.time_us.hi.to_bits()),
            (chosen.0, chosen.1 .0, chosen.1 .1, chosen.1 .2, chosen.1 .3)
        );
    }
}

/// Headline acceptance case: on the nell2 stand-in at golden-suite scale
/// the MTTKRP winner is certified while at least half of the paper's full
/// 6×6 tuning grid is ruled out with zero trial launches — and ruling
/// those points out does not rule out the exhaustive sweep's winner.
#[test]
fn nell2_mttkrp_certifies_the_winner_with_majority_grid_elimination() {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, 1_500, 2017);
    let op = TensorOp::SpMttkrp { mode: 0 };
    let sorted = SortedFcoo::new(&tensor, op);
    let (envelopes, _) = analyzer::certify_grid(
        &DeviceConfig::titan_x(),
        &sorted,
        FormatKind::Fcoo,
        RANK,
        &fcoo::BLOCK_SIZES,
        &fcoo::THREADLENS,
    );
    let min_hi = envelopes
        .iter()
        .map(|p| p.time_us.hi)
        .fold(f64::INFINITY, f64::min);
    let survivors: Vec<(usize, usize)> = envelopes
        .iter()
        .filter(|p| p.time_us.lo <= min_hi)
        .map(|p| (p.block_size, p.threadlen))
        .collect();
    let grid_points = fcoo::BLOCK_SIZES.len() * fcoo::THREADLENS.len();
    assert!(
        survivors.len() * 2 <= grid_points,
        "only {} of {grid_points} grid points were ruled out without a launch",
        grid_points - survivors.len()
    );
    let exhaustive = fcoo::tune(&GpuDevice::titan_x(), &tensor, op, RANK, None, None);
    assert!(
        survivors.contains(&exhaustive.best_pair()),
        "certification ruled out the exhaustive sweep's winner {:?}",
        exhaustive.best_pair()
    );
}
