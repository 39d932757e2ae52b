//! Property tests for out-of-core streaming: chunked execution must be
//! bit-exact with the in-core kernels for *arbitrary* chunk budgets —
//! including budgets so small the plan degrades to single-partition (even
//! single-non-zero) chunks — and a segment that spans a chunk boundary
//! must fold into the output exactly once.
//!
//! Sizes are capped so `grid_x · columns ≤ 8` blocks: the simulator then
//! runs every block on one worker chunk and results are strictly
//! deterministic, making bitwise comparison meaningful.

use fcoo::{chunk, DeviceMatrix, Fcoo, FcooDevice, FormatKind, LaunchConfig, TensorOp};
use gpu_sim::GpuDevice;
use ooc::run_chunked;
use proptest::prelude::*;
use tensor_core::datasets::{self, DatasetKind};
use tensor_core::{DenseMatrix, SparseTensorCoo};

const RANK: usize = 4;
/// SpTTMc column budget per product mode (`2 · 2 = 4` output columns keeps
/// the launch inside the deterministic block bound).
const TTMC_RANK: usize = 2;

fn op_from(selector: u8, mode: usize) -> TensorOp {
    match selector % 3 {
        0 => TensorOp::SpTtm { mode },
        1 => TensorOp::SpMttkrp { mode },
        _ => TensorOp::SpTtmc { mode },
    }
}

/// Host factors in the `ooc::run_chunk` convention: `[U]` for SpTTM, one
/// per tensor mode for SpMTTKRP, one per product mode (ascending) for
/// SpTTMc.
fn host_factors(t: &SparseTensorCoo, op: TensorOp, seed: u64) -> Vec<DenseMatrix> {
    match op {
        TensorOp::SpTtm { mode } => vec![DenseMatrix::random(t.shape()[mode], RANK, seed)],
        TensorOp::SpMttkrp { .. } => (0..t.order())
            .map(|m| DenseMatrix::random(t.shape()[m], RANK, seed + m as u64))
            .collect(),
        TensorOp::SpTtmc { mode } => (0..t.order())
            .filter(|&m| m != mode)
            .map(|m| DenseMatrix::random(t.shape()[m], TTMC_RANK, seed + m as u64))
            .collect(),
    }
}

/// In-core reference output as raw bits, via the one-shot wrappers.
fn in_core_bits(f: &Fcoo, factors: &[DenseMatrix], cfg: &LaunchConfig) -> Vec<u32> {
    let device = GpuDevice::titan_x();
    let format = FcooDevice::upload(device.memory(), f).expect("in-core upload");
    let uploaded: Vec<DeviceMatrix> = factors
        .iter()
        .map(|h| DeviceMatrix::upload(device.memory(), h).expect("factor upload"))
        .collect();
    let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
    match f.op {
        TensorOp::SpTtm { .. } => {
            let (out, _) = fcoo::spttm(&device, &format, refs[0], cfg).expect("spttm");
            out.values().iter().map(|v| v.to_bits()).collect()
        }
        TensorOp::SpMttkrp { .. } => {
            let (out, _) = fcoo::spmttkrp(&device, &format, &refs, cfg).expect("spmttkrp");
            out.data().iter().map(|v| v.to_bits()).collect()
        }
        TensorOp::SpTtmc { .. } => {
            let (out, _) = fcoo::spttmc_norder(&device, &format, &refs, cfg).expect("spttmc");
            out.data().iter().map(|v| v.to_bits()).collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any budget, any op, any mode, any threadlen: the streamed result is
    /// bit-identical to running the whole format in-core. `budget in 1..`
    /// deliberately includes budgets below a single partition's footprint,
    /// which degrade to one-partition chunks — with `threadlen 1` those
    /// are one-non-zero chunks, the degenerate tail.
    #[test]
    fn chunked_matches_in_core_for_any_budget(
        nnz in 60usize..250,
        dataset_seed in 0u64..1000,
        op_selector in 0u8..3,
        mode in 0usize..3,
        threadlen_index in 0usize..4,
        budget in 1usize..6000,
        factor_seed in 0u64..1000,
    ) {
        let (t, _) = datasets::generate(DatasetKind::Nell2, nnz, dataset_seed);
        let op = op_from(op_selector, mode);
        let threadlen = [1usize, 2, 4, 8][threadlen_index];
        let f = Fcoo::from_coo(&t, op, threadlen);
        prop_assume!(f.nnz() > 0);
        let factors = host_factors(&t, op, factor_seed);
        let cfg = LaunchConfig::default();
        let reference = in_core_bits(&f, &factors, &cfg);
        let plan = chunk::split(&f, budget);
        prop_assert_eq!(plan.total_nnz(), f.nnz());
        let run = run_chunked(&GpuDevice::titan_x(), FormatKind::Fcoo, &f, &plan, &factors, &cfg)
            .expect("streaming run");
        let got: Vec<u32> = run.values.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(
            reference,
            got,
            "budget {} B ({} chunks, threadlen {}) diverged from in-core",
            budget,
            plan.len(),
            threadlen
        );
    }

    /// A segment whose non-zeros span a chunk boundary is shared by both
    /// chunks (carry-out / carry-in) but folds into the output exactly
    /// once: the ownership identity `Σ (segments − carry_in)` covers every
    /// parent segment once, and the carried rows still match in-core
    /// bitwise — which can only hold if the partial sums compose without
    /// double-counting.
    #[test]
    fn boundary_segments_accumulate_exactly_once(
        nnz in 100usize..250,
        dataset_seed in 0u64..500,
        threadlen_index in 0usize..3,
        budget in 600usize..3000,
        factor_seed in 0u64..1000,
    ) {
        let (t, _) = datasets::generate(DatasetKind::Nell2, nnz, dataset_seed);
        let op = TensorOp::SpMttkrp { mode: 0 };
        let threadlen = [2usize, 4, 8][threadlen_index];
        let f = Fcoo::from_coo(&t, op, threadlen);
        prop_assume!(f.nnz() > 0);
        let plan = chunk::split(&f, budget);
        prop_assume!(plan.chunks.iter().any(|c| c.carry_in));
        // Ownership: each parent segment is introduced by exactly one
        // chunk; carried-in segments are continuations, not re-counts.
        let owned: usize = plan
            .chunks
            .iter()
            .map(|c| c.segments - usize::from(c.carry_in))
            .sum();
        prop_assert_eq!(owned, f.segments());
        for pair in plan.chunks.windows(2) {
            prop_assert_eq!(pair[0].carry_out, pair[1].carry_in);
        }
        // Values: the carried fold must still be the in-core fold.
        let factors = host_factors(&t, op, factor_seed);
        let cfg = LaunchConfig::default();
        let reference = in_core_bits(&f, &factors, &cfg);
        let run = run_chunked(&GpuDevice::titan_x(), FormatKind::Fcoo, &f, &plan, &factors, &cfg)
            .expect("streaming run");
        let got: Vec<u32> = run.values.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(reference, got, "carried segment double- or under-counted");
    }
}
