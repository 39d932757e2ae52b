//! CP-ALS (Algorithm 1 of the paper) with pluggable MTTKRP engines.
//!
//! The ALS loop, normalization, λ handling and fit computation are shared;
//! what differs between the paper's implementations is only where the
//! MTTKRP runs — which is exactly the paper's point. Engines implement
//! [`MttkrpEngine`]; see [`crate::engines`] for the unified-GPU, SPLATT-CSF
//! and sequential reference engines.

use tensor_core::linalg::solve_normal_equations;
use tensor_core::{DenseMatrix, SparseTensorCoo, Val};

/// Why an engine could not compute an MTTKRP (e.g. a device allocation
/// failed). The ALS loop stops and hands the error to its caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MttkrpError(pub String);

impl std::fmt::Display for MttkrpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for MttkrpError {}

/// Why CP-ALS could not run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpError {
    /// The rank is 0: there is no component to fit.
    ZeroRank,
    /// The engine could not compute an MTTKRP.
    Mttkrp(MttkrpError),
}

impl std::fmt::Display for CpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpError::ZeroRank => f.write_str("rank must be at least 1"),
            CpError::Mttkrp(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CpError {}

impl From<MttkrpError> for CpError {
    fn from(e: MttkrpError) -> Self {
        CpError::Mttkrp(e)
    }
}

/// One dense stage of a factor update, as the driver runs it (the paper's
/// CUBLAS-style operations, §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseStage {
    /// `AᵀA` of mode `mode`'s `rows × rank` factor. The driver keeps one
    /// Gram per factor: every mode's but the first at the start, then each
    /// mode's again right after that mode's solve.
    Gram {
        /// Whose factor.
        mode: usize,
        /// The factor's rows.
        rows: usize,
    },
    /// The `rank × rank` normal-equations solve that updates mode `mode`'s
    /// factor from its MTTKRP and the other modes' Grams.
    Solve {
        /// Whose factor.
        mode: usize,
    },
}

/// Where one mode's MTTKRP runs and how long it took.
pub trait MttkrpEngine {
    /// Computes the MTTKRP for `mode` with the current factors. Returns the
    /// dense result and the engine's time in microseconds (simulated for GPU
    /// engines, wall-clock for CPU engines), or why it could not.
    fn mttkrp(
        &mut self,
        mode: usize,
        factors: &[DenseMatrix],
    ) -> Result<(DenseMatrix, f64), MttkrpError>;

    /// Cost of one dense stage the driver just ran, in the engine's time
    /// base, or `None` to have the driver measure it with the wall clock.
    fn dense_us(&mut self, _stage: DenseStage, _rank: usize) -> Option<f64> {
        None
    }

    /// Makespan of the engine's internal stream timeline, if it models
    /// kernel overlap (the paper's two-stream CP implementation, §V-E).
    fn overlapped_elapsed_us(&self) -> Option<f64> {
        None
    }

    /// Engine name for reports.
    fn name(&self) -> &'static str;
}

/// Options for a CP-ALS run.
#[derive(Debug, Clone)]
pub struct CpOptions {
    /// Decomposition rank.
    pub rank: usize,
    /// Maximum ALS iterations.
    pub max_iters: usize,
    /// Stop when the fit improves by less than this.
    pub tol: f64,
    /// Factor initialization seed.
    pub seed: u64,
}

impl Default for CpOptions {
    fn default() -> Self {
        CpOptions {
            rank: 8,
            max_iters: 20,
            tol: 1e-5,
            seed: 1,
        }
    }
}

/// The factorization produced by CP-ALS.
#[derive(Debug, Clone)]
pub struct CpModel {
    /// One column-normalized factor matrix per mode.
    pub factors: Vec<DenseMatrix>,
    /// Component weights (column norms absorbed from the last-updated mode).
    pub lambda: Vec<Val>,
}

impl CpModel {
    /// Reconstructed value at one coordinate:
    /// `Σ_r λ_r · Π_m factor_m(i_m, r)`.
    pub fn predict(&self, coord: &[u32]) -> Val {
        let rank = self.lambda.len();
        (0..rank)
            .map(|r| {
                self.lambda[r]
                    * self
                        .factors
                        .iter()
                        .zip(coord)
                        .map(|(f, &i)| f.get(i as usize, r))
                        .product::<Val>()
            })
            .sum()
    }
}

/// Timing and convergence record of a CP-ALS run (feeds Fig. 10).
#[derive(Debug, Clone)]
pub struct CpRun {
    /// The fitted model.
    pub model: CpModel,
    /// Final fit in `[0, 1]` (1 = exact).
    pub fit: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Total MTTKRP time per mode, microseconds, engine time base.
    pub mode_us: Vec<f64>,
    /// Total non-MTTKRP time (Grams and solves), microseconds.
    pub other_us: f64,
    /// Gram matrices computed: one per solve, plus `order − 1` at the start.
    pub grams: usize,
    /// Makespan with the engine's two-stream overlap applied, when the
    /// engine models it (always ≤ the serial total).
    pub overlapped_total_us: Option<f64>,
    /// Engine name.
    pub engine: &'static str,
}

impl CpRun {
    /// Total time across MTTKRPs and dense updates.
    pub fn total_us(&self) -> f64 {
        self.mode_us.iter().sum::<f64>() + self.other_us
    }
}

/// Runs one dense stage on the host and adds its cost to `other_us`: the
/// engine's modeled time, or else the host wall clock.
fn charged<T>(
    engine: &mut dyn MttkrpEngine,
    stage: DenseStage,
    rank: usize,
    other_us: &mut f64,
    work: impl FnOnce() -> T,
) -> T {
    // Sanctioned host wall-clock site (clippy `disallowed-methods`): the
    // dense stages run on the real host CPU and are measured, not simulated.
    #[allow(clippy::disallowed_methods)]
    let start = std::time::Instant::now();
    let out = work();
    *other_us += engine
        .dense_us(stage, rank)
        .unwrap_or_else(|| start.elapsed().as_secs_f64() * 1e6);
    out
}

/// The Hadamard product of `grams`, accumulated left to right.
fn hadamard_all<'a>(mut grams: impl Iterator<Item = &'a DenseMatrix>) -> DenseMatrix {
    let first = grams.next().expect("CP has at least two modes").clone();
    grams.fold(first, |acc, gram| acc.hadamard(gram))
}

/// Runs CP-ALS on `tensor` using `engine` for every MTTKRP. Each factor's
/// Gram is computed once per update, right after its solve, and cached for
/// the other modes' solves and the fit. Stops at the first MTTKRP the
/// engine cannot compute and returns its error; a zero rank is
/// [`CpError::ZeroRank`].
///
/// # Panics
/// If the tensor is empty.
pub fn cp_als(
    tensor: &SparseTensorCoo,
    engine: &mut dyn MttkrpEngine,
    opts: &CpOptions,
) -> Result<CpRun, CpError> {
    if opts.rank == 0 {
        return Err(CpError::ZeroRank);
    }
    assert!(tensor.nnz() > 0, "cannot decompose an empty tensor");
    let order = tensor.order();
    let mut factors: Vec<DenseMatrix> = tensor
        .shape()
        .iter()
        .enumerate()
        .map(|(m, &size)| {
            let mut f = DenseMatrix::random(size, opts.rank, opts.seed + m as u64);
            f.normalize_columns();
            f
        })
        .collect();
    let norm_x_sq: f64 = tensor
        .values()
        .iter()
        .map(|&v| (v as f64) * (v as f64))
        .sum();
    let mut lambda: Vec<Val> = vec![1.0; opts.rank];
    let mut mode_us = vec![0.0f64; order];
    let mut other_us = 0.0f64;
    let mut fit = 0.0f64;
    let mut iterations = 0usize;
    // `grams[m]` is `factors[m]`'s Gram. Mode 0 is solved before any solve
    // reads it, so its first Gram is computed after that solve.
    let mut grams: Vec<Option<DenseMatrix>> = vec![None; order];
    let mut gram_count = 0usize;
    let mut gram =
        |engine: &mut dyn MttkrpEngine, other_us: &mut f64, mode: usize, factor: &DenseMatrix| {
            gram_count += 1;
            let stage = DenseStage::Gram {
                mode,
                rows: factor.rows(),
            };
            charged(engine, stage, opts.rank, other_us, || factor.gram())
        };
    for mode in 1..order {
        grams[mode] = Some(gram(engine, &mut other_us, mode, &factors[mode]));
    }

    for _iter in 0..opts.max_iters {
        iterations += 1;
        let mut last_m: Option<DenseMatrix> = None;
        for mode in 0..order {
            let (m, elapsed) = engine.mttkrp(mode, &factors)?;
            mode_us[mode] += elapsed;
            let solve = DenseStage::Solve { mode };
            let updated = charged(engine, solve, opts.rank, &mut other_us, || {
                // V = ∗_{m ≠ mode} (A_mᵀ A_m), Hadamard of cached Grams.
                let v = hadamard_all(
                    grams
                        .iter()
                        .enumerate()
                        .filter(|&(other, _)| other != mode)
                        .map(|(_, g)| g.as_ref().expect("every other mode's Gram is cached")),
                );
                let mut updated = solve_normal_equations(&m, &v);
                lambda = updated.normalize_columns();
                // Guard against collapsed (zero) components.
                for (r, &norm) in lambda.iter().enumerate() {
                    if norm == 0.0 {
                        for row in 0..updated.rows() {
                            updated.set(row, r, 0.0);
                        }
                    }
                }
                updated
            });
            factors[mode] = updated;
            grams[mode] = Some(gram(engine, &mut other_us, mode, &factors[mode]));
            if mode == order - 1 {
                last_m = Some(m);
            }
        }

        // Fit via the standard CP-ALS identity (no residual materialized).
        let m = last_m.expect("loop ran");
        let last = order - 1;
        let inner: f64 = (0..opts.rank)
            .map(|r| {
                lambda[r] as f64
                    * (0..factors[last].rows())
                        .map(|i| (m.get(i, r) as f64) * (factors[last].get(i, r) as f64))
                        .sum::<f64>()
            })
            .sum();
        let gram_product = hadamard_all(grams.iter().flatten());
        let mut norm_model_sq = 0.0f64;
        for r in 0..opts.rank {
            for s in 0..opts.rank {
                norm_model_sq +=
                    (lambda[r] as f64) * (lambda[s] as f64) * (gram_product.get(r, s) as f64);
            }
        }
        let residual_sq = (norm_x_sq + norm_model_sq - 2.0 * inner).max(0.0);
        let new_fit = 1.0 - residual_sq.sqrt() / norm_x_sq.sqrt();
        let improved = (new_fit - fit).abs();
        fit = new_fit;
        if iterations > 1 && improved < opts.tol {
            break;
        }
    }

    Ok(CpRun {
        model: CpModel { factors, lambda },
        fit,
        iterations,
        mode_us,
        other_us,
        grams: gram_count,
        overlapped_total_us: engine.overlapped_elapsed_us(),
        engine: engine.name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::ReferenceEngine;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A dense low-rank tensor stored as COO: Σ_r a_r ∘ b_r ∘ c_r.
    pub(crate) fn low_rank_tensor(shape: [usize; 3], rank: usize, seed: u64) -> SparseTensorCoo {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = DenseMatrix::from_fn(shape[0], rank, |_, _| rng.gen::<f32>() + 0.1);
        let b = DenseMatrix::from_fn(shape[1], rank, |_, _| rng.gen::<f32>() + 0.1);
        let c = DenseMatrix::from_fn(shape[2], rank, |_, _| rng.gen::<f32>() + 0.1);
        let mut tensor = SparseTensorCoo::new(shape.to_vec());
        for i in 0..shape[0] {
            for j in 0..shape[1] {
                for k in 0..shape[2] {
                    let value: f32 = (0..rank)
                        .map(|r| a.get(i, r) * b.get(j, r) * c.get(k, r))
                        .sum();
                    tensor.push(&[i as u32, j as u32, k as u32], value);
                }
            }
        }
        tensor
    }

    #[test]
    fn cp_recovers_low_rank_structure() {
        let tensor = low_rank_tensor([8, 9, 7], 3, 5);
        let mut engine = ReferenceEngine::new(&tensor);
        let run = cp_als(
            &tensor,
            &mut engine,
            &CpOptions {
                rank: 3,
                max_iters: 60,
                tol: 1e-9,
                seed: 2,
            },
        )
        .expect("engine computes every MTTKRP");
        assert!(run.fit > 0.98, "fit {} too low", run.fit);
        assert!(run.iterations >= 2);
    }

    #[test]
    fn fit_improves_with_rank() {
        let tensor = low_rank_tensor([6, 6, 6], 4, 9);
        let mut fits = Vec::new();
        for rank in [1, 4] {
            let mut engine = ReferenceEngine::new(&tensor);
            let run = cp_als(
                &tensor,
                &mut engine,
                &CpOptions {
                    rank,
                    max_iters: 40,
                    tol: 1e-10,
                    seed: 3,
                },
            )
            .expect("engine computes every MTTKRP");
            fits.push(run.fit);
        }
        assert!(
            fits[1] > fits[0],
            "rank-4 fit {} should beat rank-1 {}",
            fits[1],
            fits[0]
        );
    }

    #[test]
    fn factors_are_column_normalized_with_positive_lambda() {
        let tensor = low_rank_tensor([5, 6, 7], 2, 11);
        let mut engine = ReferenceEngine::new(&tensor);
        let run = cp_als(
            &tensor,
            &mut engine,
            &CpOptions {
                rank: 2,
                ..Default::default()
            },
        )
        .expect("engine computes every MTTKRP");
        for factor in &run.model.factors {
            for norm in factor.column_norms() {
                assert!((norm - 1.0).abs() < 1e-3, "column norm {norm}");
            }
        }
        assert!(run.model.lambda.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn predict_approximates_entries() {
        let tensor = low_rank_tensor([6, 5, 4], 2, 13);
        let mut engine = ReferenceEngine::new(&tensor);
        let run = cp_als(
            &tensor,
            &mut engine,
            &CpOptions {
                rank: 2,
                max_iters: 80,
                tol: 1e-10,
                seed: 4,
            },
        )
        .expect("engine computes every MTTKRP");
        let mut worst = 0.0f64;
        for (coord, value) in tensor.iter() {
            let predicted = run.model.predict(&coord);
            worst = worst.max(((predicted - value) as f64).abs() / value.abs().max(0.1) as f64);
        }
        assert!(worst < 0.15, "worst relative prediction error {worst}");
    }

    #[test]
    fn mode_times_are_accumulated() {
        let tensor = low_rank_tensor([5, 5, 5], 2, 15);
        let mut engine = ReferenceEngine::new(&tensor);
        let run = cp_als(&tensor, &mut engine, &CpOptions::default())
            .expect("engine computes every MTTKRP");
        assert_eq!(run.mode_us.len(), 3);
        assert!(run.mode_us.iter().all(|&t| t > 0.0));
        assert!(run.total_us() > run.other_us);
    }

    #[test]
    #[should_panic(expected = "empty tensor")]
    fn rejects_empty_tensor() {
        let tensor = SparseTensorCoo::new(vec![3, 3, 3]);
        let mut engine = ReferenceEngine::new(&tensor);
        let _ = cp_als(&tensor, &mut engine, &CpOptions::default());
    }

    #[test]
    fn rejects_rank_zero_without_panicking() {
        let tensor = low_rank_tensor([4, 4, 4], 2, 17);
        let mut engine = ReferenceEngine::new(&tensor);
        let opts = CpOptions {
            rank: 0,
            ..CpOptions::default()
        };
        let err = cp_als(&tensor, &mut engine, &opts).unwrap_err();
        assert_eq!(err, CpError::ZeroRank);
        assert_eq!(err.to_string(), "rank must be at least 1");
    }
}
