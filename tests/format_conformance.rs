//! Cross-format conformance suite: BF-COO must be *bit-exact* with F-COO
//! on every unified kernel, for arbitrary power-law, hypersparse and
//! order-4 tensors, modes, ranks and threadlens — in-core and on the
//! chunked/carry-row path.
//!
//! The bucketed schedule only permutes gathers within a thread; it never
//! reorders the segmented fold, so the two formats must agree to the last
//! ulp. Any divergence is a scheduling bug, not numeric noise, which is why
//! every assertion below compares IEEE-754 bit patterns rather than using a
//! tolerance. See docs/FORMATS.md for the trait contract.

use proptest::prelude::*;
use unified_tensors::fcoo::{chunk, scatter_rows};
use unified_tensors::ooc::run_chunked;
use unified_tensors::prelude::*;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic power-law tensor: slice `s` holds `~160 / (s+1)^alpha`
/// non-zeros with hashed fiber coordinates, so early slices are long fibers
/// (the regime BF-COO's buckets compress) and the tail is near-uniform.
fn power_law_tensor(seed: u64, alpha: f64) -> SparseTensorCoo {
    let (slices, jdim, kdim) = (48usize, 40usize, 56usize);
    let mut rng = seed;
    let mut entries = Vec::new();
    for s in 0..slices {
        let len = ((160.0 / f64::powf(s as f64 + 1.0, alpha)) as usize).clamp(1, 120);
        for _ in 0..len {
            let j = (splitmix(&mut rng) as usize % jdim) as u32;
            let k = (splitmix(&mut rng) as usize % kdim) as u32;
            let v = (splitmix(&mut rng) % 1000) as f32 / 500.0 + 0.1;
            entries.push((vec![s as u32, j, k], v));
        }
    }
    SparseTensorCoo::from_entries(vec![slices, jdim, kdim], &entries)
}

/// Builds both formats from the same tensor and uploads each to its own
/// fresh device so neither run can observe the other's allocations.
fn both_formats(
    tensor: &SparseTensorCoo,
    op: TensorOp,
    threadlen: usize,
) -> Vec<(GpuDevice, unified_tensors::fcoo::AnyFormatDevice)> {
    FormatKind::ALL
        .iter()
        .map(|&kind| {
            let device = GpuDevice::titan_x();
            let format = AnyFormat::build(kind, tensor, op, threadlen);
            let on_device = format.upload(device.memory()).expect("conformance upload");
            (device, on_device)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// SpTTM: fiber sets, fiber coordinates and every output value agree
    /// bit-for-bit between the two formats.
    #[test]
    fn prop_spttm_bit_exact_across_formats(
        seed in 0u64..u64::MAX,
        alpha in 0.5f64..1.8,
        mode in 0usize..3,
        rank in 1usize..12,
        threadlen in 1usize..20,
        block_pow in 0u32..4,
    ) {
        let tensor = power_law_tensor(seed, alpha);
        let cfg = LaunchConfig {
            block_size: 32usize << block_pow,
            ..Default::default()
        };
        let u_host = DenseMatrix::random(tensor.shape()[mode], rank, seed ^ 0xA5A5);
        let results: Vec<_> = both_formats(&tensor, TensorOp::SpTtm { mode }, threadlen)
            .into_iter()
            .map(|(device, format)| {
                let u = DeviceMatrix::upload(device.memory(), &u_host).unwrap();
                format.spttm(&device, &u, &cfg).unwrap().0
            })
            .collect();
        let (reference, bucketed) = (&results[0], &results[1]);
        prop_assert_eq!(reference.nfibs(), bucketed.nfibs());
        for fib in 0..reference.nfibs() {
            prop_assert_eq!(reference.fiber_coord(fib), bucketed.fiber_coord(fib));
            prop_assert_eq!(
                bits(reference.fiber(fib)),
                bits(bucketed.fiber(fib)),
                "mode {} fiber {}",
                mode,
                fib
            );
        }
    }

    /// SpMTTKRP: the dense output matrices are bit-identical.
    #[test]
    fn prop_spmttkrp_bit_exact_across_formats(
        seed in 0u64..u64::MAX,
        alpha in 0.5f64..1.8,
        mode in 0usize..3,
        rank in 1usize..10,
        threadlen in 1usize..16,
    ) {
        let tensor = power_law_tensor(seed, alpha);
        let cfg = LaunchConfig::default();
        let hosts: Vec<DenseMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &n)| DenseMatrix::random(n, rank, seed ^ (m as u64 + 1)))
            .collect();
        let results: Vec<_> = both_formats(&tensor, TensorOp::SpMttkrp { mode }, threadlen)
            .into_iter()
            .map(|(device, format)| {
                let factors: Vec<DeviceMatrix> = hosts
                    .iter()
                    .map(|h| DeviceMatrix::upload(device.memory(), h).unwrap())
                    .collect();
                let refs: Vec<&DeviceMatrix> = factors.iter().collect();
                format.spmttkrp(&device, &refs, &cfg).unwrap().0
            })
            .collect();
        prop_assert_eq!(bits(results[0].data()), bits(results[1].data()));
    }

    /// SpTTMc with distinct per-factor ranks: bit-identical outputs.
    #[test]
    fn prop_spttmc_bit_exact_across_formats(
        seed in 0u64..u64::MAX,
        alpha in 0.5f64..1.8,
        mode in 0usize..3,
        rank_a in 1usize..6,
        rank_b in 1usize..6,
        threadlen in 1usize..16,
    ) {
        let tensor = power_law_tensor(seed, alpha);
        let cfg = LaunchConfig::default();
        let op = TensorOp::SpTtmc { mode };
        let product_modes = AnyFormat::build(FormatKind::Fcoo, &tensor, op, 8)
            .base()
            .classification
            .product_modes
            .clone();
        let hosts: Vec<DenseMatrix> = product_modes
            .iter()
            .zip([rank_a, rank_b])
            .map(|(&m, rank)| DenseMatrix::random(tensor.shape()[m], rank, seed ^ m as u64))
            .collect();
        let results: Vec<_> = both_formats(&tensor, op, threadlen)
            .into_iter()
            .map(|(device, format)| {
                let factors: Vec<DeviceMatrix> = hosts
                    .iter()
                    .map(|h| DeviceMatrix::upload(device.memory(), h).unwrap())
                    .collect();
                let refs: Vec<&DeviceMatrix> = factors.iter().collect();
                format.spttmc_norder(&device, &refs, &cfg).unwrap().0
            })
            .collect();
        prop_assert_eq!(bits(results[0].data()), bits(results[1].data()));
    }

    /// The chunked/carry-row path: a BF-COO chunk stream (bucket metadata
    /// rebuilt per chunk) stays bit-exact with the F-COO chunk stream for
    /// every op, even when the budget splits segments across chunk
    /// boundaries and the accumulator must carry partial rows.
    #[test]
    fn prop_chunked_carry_row_bit_exact_across_formats(
        seed in 0u64..u64::MAX,
        alpha in 0.5f64..1.8,
        mode in 0usize..3,
        op_pick in 0usize..3,
        rank in 1usize..6,
        threadlen in 1usize..12,
        budget_share in 0.1f64..0.9,
    ) {
        let tensor = power_law_tensor(seed, alpha);
        let op = match op_pick {
            0 => TensorOp::SpTtm { mode },
            1 => TensorOp::SpMttkrp { mode },
            _ => TensorOp::SpTtmc { mode },
        };
        let fcoo = Fcoo::from_coo(&tensor, op, threadlen);
        let factors: Vec<DenseMatrix> = match op {
            TensorOp::SpTtm { .. } => {
                vec![DenseMatrix::random(tensor.shape()[mode], rank, seed ^ 3)]
            }
            TensorOp::SpMttkrp { .. } => tensor
                .shape()
                .iter()
                .enumerate()
                .map(|(m, &n)| DenseMatrix::random(n, rank, seed ^ (m as u64 + 1)))
                .collect(),
            TensorOp::SpTtmc { .. } => fcoo
                .classification
                .product_modes
                .iter()
                .map(|&m| DenseMatrix::random(tensor.shape()[m], rank, seed ^ m as u64))
                .collect(),
        };
        // A budget below the whole format's bytes always splits it.
        let budget = (fcoo.storage().total_bytes() as f64 * budget_share) as usize;
        let plan = chunk::split(&fcoo, budget);
        prop_assert!(plan.len() >= 2, "budget {} left {} chunk(s)", budget, plan.len());
        let cfg = LaunchConfig::default();
        let [strided, bucketed] = [FormatKind::Fcoo, FormatKind::BfCoo]
            .map(|kind| run_chunked(&GpuDevice::titan_x(), kind, &fcoo, &plan, &factors, &cfg).unwrap());
        prop_assert_eq!((strided.rows, strided.cols), (bucketed.rows, bucketed.cols));
        prop_assert_eq!(bits(&strided.values), bits(&bucketed.values));
        prop_assert_eq!(strided.chunks.len(), bucketed.chunks.len());
    }

    /// Hypersparse (nell1, delicious) and order-4 tensors, whose segments
    /// are a small fraction of the operating mode's rows: SpMTTKRP's and
    /// SpTTMc's segment rows, placed at their coordinates, agree bit for bit
    /// across both formats in-core and on the chunked path with the F-COO
    /// one-shot result.
    #[test]
    fn prop_hypersparse_and_order4_bit_exact_in_core_and_chunked(
        seed in 0u64..1000,
        kind_pick in 0usize..3,
        mode in 0usize..4,
        op_pick in 0usize..2,
        rank in 1usize..5,
        threadlen in 1usize..12,
        budget in 1_500usize..6_000,
    ) {
        let tensor = match kind_pick {
            0 => datasets::generate(DatasetKind::Nell1, 1500, seed).0,
            1 => datasets::generate(DatasetKind::Delicious, 1500, seed).0,
            _ => datasets::generate_norder(&[12, 9, 14, 7], 1500, 0.5, seed),
        };
        let (shape, order) = (tensor.shape().to_vec(), tensor.order());
        let mode = mode % order;
        let mttkrp = op_pick == 0;
        let op = if mttkrp {
            TensorOp::SpMttkrp { mode }
        } else {
            TensorOp::SpTtmc { mode }
        };
        let hosts: Vec<DenseMatrix> = op
            .factor_modes(order)
            .into_iter()
            .map(|m| DenseMatrix::random(shape[m], rank, seed ^ (m as u64 + 7)))
            .collect();
        let cfg = LaunchConfig::default();
        let in_core: Vec<DenseMatrix> = both_formats(&tensor, op, threadlen)
            .into_iter()
            .map(|(device, format)| {
                let factors: Vec<DeviceMatrix> = hosts
                    .iter()
                    .map(|h| DeviceMatrix::upload(device.memory(), h).unwrap())
                    .collect();
                let refs: Vec<&DeviceMatrix> = factors.iter().collect();
                let result = if mttkrp {
                    format.spmttkrp(&device, &refs, &cfg)
                } else {
                    format.spttmc_norder(&device, &refs, &cfg)
                };
                result.unwrap().0
            })
            .collect();
        prop_assert_eq!(bits(in_core[0].data()), bits(in_core[1].data()));
        let fcoo = Fcoo::from_coo(&tensor, op, threadlen);
        let plan = chunk::split(&fcoo, budget);
        for kind in FormatKind::ALL {
            let run = run_chunked(&GpuDevice::titan_x(), kind, &fcoo, &plan, &hosts, &cfg).unwrap();
            prop_assert_eq!(run.rows, fcoo.segments());
            let rows = DenseMatrix::from_vec(run.rows, run.cols, run.values);
            let placed = scatter_rows(&rows, &fcoo.segment_coords[0], shape[mode]);
            prop_assert_eq!(
                bits(placed.data()),
                bits(in_core[0].data()),
                "{} chunked ({} chunks) diverged from the one-shot result",
                kind,
                plan.len()
            );
        }
    }
}
