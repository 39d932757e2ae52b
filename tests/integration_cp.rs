//! End-to-end CP-ALS integration across engines.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use unified_tensors::prelude::*;

/// A *sparse* tensor with exact planted low-rank structure: each factor
/// column is supported on a random subset of rows, so the sum of outer
/// products `Σ_r a_r ∘ b_r ∘ c_r` is itself sparse (including its zeros)
/// and exactly CP-rank ≤ `rank`.
fn planted_low_rank(shape: [usize; 3], rank: usize, support: f64, seed: u64) -> SparseTensorCoo {
    let mut rng = SmallRng::seed_from_u64(seed);
    let factors: Vec<DenseMatrix> = shape
        .iter()
        .map(|&n| {
            DenseMatrix::from_fn(n, rank, |_, _| {
                if rng.gen::<f64>() < support {
                    rng.gen::<f32>() + 0.1
                } else {
                    0.0
                }
            })
        })
        .collect();
    let mut tensor = SparseTensorCoo::new(shape.to_vec());
    for i in 0..shape[0] {
        for j in 0..shape[1] {
            for k in 0..shape[2] {
                let value: f32 = (0..rank)
                    .map(|r| factors[0].get(i, r) * factors[1].get(j, r) * factors[2].get(k, r))
                    .sum();
                if value != 0.0 {
                    tensor.push(&[i as u32, j as u32, k as u32], value);
                }
            }
        }
    }
    assert!(tensor.nnz() > 0, "planted tensor degenerated to empty");
    tensor
}

#[test]
fn cp_engines_produce_matching_fits() {
    let (tensor, _) = datasets::generate(DatasetKind::Nell2, 4_000, 300);
    let opts = CpOptions {
        rank: 4,
        max_iters: 5,
        tol: 1e-8,
        seed: 2,
    };
    let mut reference = ReferenceEngine::new(&tensor);
    let ref_run = cp_als(&tensor, &mut reference, &opts).expect("engine computes every MTTKRP");
    let mut splatt = SplattEngine::new(&tensor);
    let splatt_run = cp_als(&tensor, &mut splatt, &opts).expect("engine computes every MTTKRP");
    let device = GpuDevice::titan_x();
    let mut unified =
        UnifiedGpuEngine::new(&device, &tensor, 8, LaunchConfig::default().block_size).unwrap();
    let unified_run = cp_als(&tensor, &mut unified, &opts).expect("engine computes every MTTKRP");
    assert!(
        (ref_run.fit - splatt_run.fit).abs() < 1e-3,
        "splatt fit diverged"
    );
    assert!(
        (ref_run.fit - unified_run.fit).abs() < 1e-3,
        "unified fit diverged"
    );
    assert_eq!(ref_run.iterations, splatt_run.iterations);
}

#[test]
fn cp_on_gpu_recovers_planted_structure() {
    let tensor = planted_low_rank([40, 30, 20], 3, 0.35, 301);
    let device = GpuDevice::titan_x();
    let mut unified =
        UnifiedGpuEngine::new(&device, &tensor, 8, LaunchConfig::default().block_size).unwrap();
    let run = cp_als(
        &tensor,
        &mut unified,
        &CpOptions {
            rank: 3,
            max_iters: 40,
            tol: 1e-9,
            seed: 4,
        },
    )
    .expect("engine computes every MTTKRP");
    assert!(
        run.fit > 0.95,
        "fit {} too low for planted rank-3 data",
        run.fit
    );
}

#[test]
fn cp_brainq_rank8_converges_and_balances_modes() {
    // The Fig. 10 configuration: brainq, rank 8.
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, 15_000, 302);
    let opts = CpOptions {
        rank: 8,
        max_iters: 6,
        tol: 1e-7,
        seed: 6,
    };
    let device = GpuDevice::titan_x();
    let mut unified =
        UnifiedGpuEngine::new(&device, &tensor, 16, LaunchConfig::default().block_size).unwrap();
    let run = cp_als(&tensor, &mut unified, &opts).expect("engine computes every MTTKRP");
    assert!(run.fit > 0.0 && run.fit <= 1.0);
    let max = run.mode_us.iter().copied().fold(0.0f64, f64::max);
    let min = run.mode_us.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        max / min < 3.0,
        "unified mode times should be balanced: {:?}",
        run.mode_us
    );
    // At paper scale MTTKRP dominates the run; at this reduced scale the
    // modeled kernel-launch overheads in `other` are comparable, so we only
    // require the MTTKRP side to be a substantial share.
    assert!(run.mode_us.iter().sum::<f64>() > 0.2 * run.other_us);
}

#[test]
fn cp_handles_rank_exceeding_smallest_mode() {
    // brainq's mode-3 has size 9; rank > 9 produces a deficient Gram matrix
    // that must be handled by the pseudo-inverse path (§V-E).
    let (tensor, _) = datasets::generate(DatasetKind::Brainq, 8_000, 304);
    assert!(tensor.shape()[2] < 12);
    let mut engine = ReferenceEngine::new(&tensor);
    let run = cp_als(
        &tensor,
        &mut engine,
        &CpOptions {
            rank: 12,
            max_iters: 3,
            tol: 1e-7,
            seed: 9,
        },
    )
    .expect("engine computes every MTTKRP");
    assert!(run.fit.is_finite());
    for factor in &run.model.factors {
        assert!(
            factor.data().iter().all(|v| v.is_finite()),
            "factors must stay finite"
        );
    }
}
