//! Synthetic stand-ins for the paper's FROSTT datasets (Table IV).
//!
//! The real datasets (brainq, nell2, delicious, nell1; 11M–144M non-zeros)
//! are multi-gigabyte downloads. The performance phenomena the paper measures
//! depend on three structural properties, all of which these generators
//! preserve at a configurable non-zero budget:
//!
//! 1. **Shape** — mode-size *ratios* are kept (brainq stays the "oddly
//!    shaped" `60 × J × 9` tensor, which drives the mode-behaviour
//!    experiment of Fig. 7);
//! 2. **Density** — each dataset keeps its paper density class (brainq
//!    `2.9e-1` dense-ish → high factor-row cache hit rates; nell1 `9.3e-13`
//!    extremely sparse → scattered product-mode indices, the case §V-A says
//!    GPUs handle poorly);
//! 3. **Fiber-length skew** — the NELL/delicious web tensors have power-law
//!    fiber populations, which is what produces the load imbalance and warp
//!    divergence of fiber-centric baselines.
//!
//! Generation is deterministic per seed. If a real FROSTT `.tns` file is on
//! disk, [`crate::io::read_tns`] loads it into the same [`SparseTensorCoo`]
//! type and every kernel accepts it unchanged.

use crate::{Idx, SparseTensorCoo, Val};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Which paper dataset a synthetic tensor imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// fMRI noun × voxel × subject: tiny odd shape, very dense (2.9e-1).
    Brainq,
    /// NELL noun-verb-noun, medium density (2.5e-5), skewed.
    Nell2,
    /// user × item × tag tagging tensor, very sparse (6.1e-12), heavy skew.
    Delicious,
    /// NELL full, extremely sparse (9.3e-13), heaviest skew.
    Nell1,
    /// Uniform random tensor (not in the paper; for tests and ablations).
    Uniform,
}

impl DatasetKind {
    /// The four paper datasets in the order of Table IV's speedup figures.
    pub const PAPER: [DatasetKind; 4] = [
        DatasetKind::Nell1,
        DatasetKind::Delicious,
        DatasetKind::Nell2,
        DatasetKind::Brainq,
    ];

    /// Dataset name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Brainq => "brainq",
            DatasetKind::Nell2 => "nell2",
            DatasetKind::Delicious => "delicious",
            DatasetKind::Nell1 => "nell1",
            DatasetKind::Uniform => "uniform",
        }
    }

    /// The full-size shape from Table IV.
    pub fn paper_shape(self) -> [usize; 3] {
        match self {
            DatasetKind::Brainq => [60, 70_000, 9],
            DatasetKind::Nell2 => [12_092, 9_184, 28_818],
            DatasetKind::Delicious => [532_924, 17_262_471, 2_480_308],
            DatasetKind::Nell1 => [2_902_330, 2_143_368, 25_495_389],
            DatasetKind::Uniform => [1_000, 1_000, 1_000],
        }
    }

    /// The full-size non-zero count from Table IV.
    pub fn paper_nnz(self) -> usize {
        match self {
            DatasetKind::Brainq => 11_000_000,
            DatasetKind::Nell2 => 77_000_000,
            DatasetKind::Delicious => 140_000_000,
            DatasetKind::Nell1 => 144_000_000,
            DatasetKind::Uniform => 1_000_000,
        }
    }

    /// Skew exponent for coordinate sampling (0 = uniform). Larger values
    /// concentrate non-zeros in a power-law head, increasing fiber-length
    /// variance.
    fn skew(self) -> f64 {
        match self {
            DatasetKind::Brainq => 0.0,
            DatasetKind::Nell2 => 1.2,
            DatasetKind::Delicious => 2.0,
            DatasetKind::Nell1 => 2.5,
            DatasetKind::Uniform => 0.0,
        }
    }
}

/// Metadata describing a generated (or loaded) dataset, for Table IV.
#[derive(Debug, Clone)]
pub struct DatasetInfo {
    /// Dataset name.
    pub name: String,
    /// Shape actually generated.
    pub shape: Vec<usize>,
    /// Non-zeros actually generated.
    pub nnz: usize,
    /// Density of the generated tensor.
    pub density: f64,
    /// The paper's full-size nnz, for scale bookkeeping in EXPERIMENTS.md.
    pub paper_nnz: usize,
    /// Generation seed.
    pub seed: u64,
}

impl DatasetInfo {
    /// Formats a Table IV-style row.
    pub fn table_row(&self) -> String {
        let dims: Vec<String> = self.shape.iter().map(|s| s.to_string()).collect();
        format!(
            "{:<10} order={} modes={:<28} nnz={:<9} density={:.1e}",
            self.name,
            self.shape.len(),
            dims.join("x"),
            self.nnz,
            self.density
        )
    }
}

/// The smallest non-zero budget [`generate`] accepts.
pub const MIN_NNZ_BUDGET: usize = 16;

/// Generates a synthetic tensor imitating `kind`, scaled so that the
/// non-zero count is approximately `nnz_budget` while density and mode-size
/// ratios match the paper values.
///
/// ```
/// use tensor_core::datasets::{generate, DatasetKind};
///
/// let (tensor, info) = generate(DatasetKind::Brainq, 5_000, 42);
/// assert_eq!(tensor.shape()[0], 60); // brainq keeps its odd 60 × J × 9 shape
/// assert_eq!(tensor.shape()[2], 9);
/// assert!(info.density > 0.1); // and its dense-ish character
/// ```
///
/// Returns the tensor (coalesced, canonically sorted) and its metadata.
pub fn generate(kind: DatasetKind, nnz_budget: usize, seed: u64) -> (SparseTensorCoo, DatasetInfo) {
    assert!(
        nnz_budget >= MIN_NNZ_BUDGET,
        "nnz budget too small to be meaningful"
    );
    let shape = scaled_shape(kind, nnz_budget);
    let density_target = kind.paper_nnz() as f64
        / kind
            .paper_shape()
            .iter()
            .map(|&s| s as f64)
            .product::<f64>();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_da7a);
    let tensor = if density_target > 0.01 {
        generate_bernoulli(&shape, density_target, &mut rng)
    } else {
        generate_skewed(&shape, nnz_budget, kind.skew(), &mut rng)
    };
    let info = DatasetInfo {
        name: kind.name().to_string(),
        shape: tensor.shape().to_vec(),
        nnz: tensor.nnz(),
        density: tensor.density(),
        paper_nnz: kind.paper_nnz(),
        seed,
    };
    (tensor, info)
}

/// The four paper datasets at a shared non-zero budget.
pub fn paper_datasets(nnz_budget: usize, seed: u64) -> Vec<(SparseTensorCoo, DatasetInfo)> {
    DatasetKind::PAPER
        .iter()
        .enumerate()
        .map(|(i, &kind)| generate(kind, nnz_budget, seed.wrapping_add(i as u64)))
        .collect()
}

/// Computes the scaled shape: keeps exact mode sizes that are already tiny
/// (brainq's 60 and 9), scales the rest so the cell count supports
/// `nnz_budget` at the paper's density.
pub(crate) fn scaled_shape(kind: DatasetKind, nnz_budget: usize) -> Vec<usize> {
    let paper_shape = kind.paper_shape();
    let paper_cells: f64 = paper_shape.iter().map(|&s| s as f64).product();
    let density = kind.paper_nnz() as f64 / paper_cells;
    let target_cells = nnz_budget as f64 / density;
    // Modes small enough to keep verbatim (preserves brainq's odd shape).
    let fixed: Vec<bool> = paper_shape.iter().map(|&s| s <= 128).collect();
    let fixed_cells: f64 = paper_shape
        .iter()
        .zip(&fixed)
        .filter(|(_, &f)| f)
        .map(|(&s, _)| s as f64)
        .product();
    let free_count = fixed.iter().filter(|&&f| !f).count().max(1);
    let free_paper: f64 = paper_shape
        .iter()
        .zip(&fixed)
        .filter(|(_, &f)| !f)
        .map(|(&s, _)| s as f64)
        .product();
    // Shrink each free mode by the same ratio.
    let ratio = ((target_cells / fixed_cells) / free_paper).powf(1.0 / free_count as f64);
    paper_shape
        .iter()
        .zip(&fixed)
        .map(|(&s, &f)| {
            if f {
                s
            } else {
                ((s as f64 * ratio).round() as usize).max(8)
            }
        })
        .collect()
}

/// Dense-ish generator: Bernoulli per cell (only viable when cells is small,
/// which the density > 1% gate guarantees given the nnz budget).
fn generate_bernoulli(shape: &[usize], density: f64, rng: &mut SmallRng) -> SparseTensorCoo {
    let mut tensor = SparseTensorCoo::new(shape.to_vec());
    let mut coord = vec![0 as Idx; shape.len()];
    fill_bernoulli(&mut tensor, shape, density, rng, &mut coord, 0);
    tensor
}

fn fill_bernoulli(
    tensor: &mut SparseTensorCoo,
    shape: &[usize],
    density: f64,
    rng: &mut SmallRng,
    coord: &mut Vec<Idx>,
    mode: usize,
) {
    if mode == shape.len() {
        if rng.gen::<f64>() < density {
            let value = 0.1 + 0.9 * rng.gen::<Val>();
            tensor.push(coord, value);
        }
        return;
    }
    for i in 0..shape[mode] {
        coord[mode] = i as Idx;
        fill_bernoulli(tensor, shape, density, rng, coord, mode + 1);
    }
}

/// Sparse generator: sample coordinates with a power-law head per mode, then
/// dedupe. Oversamples slightly to compensate for duplicates. Works for any
/// tensor order.
fn generate_skewed(
    shape: &[usize],
    nnz_budget: usize,
    skew: f64,
    rng: &mut SmallRng,
) -> SparseTensorCoo {
    let order = shape.len();
    let mut seen: HashSet<Vec<Idx>> = HashSet::with_capacity(nnz_budget * 2);
    let mut tensor = SparseTensorCoo::new(shape.to_vec());
    let attempts_cap = nnz_budget.saturating_mul(8).max(1024);
    let mut attempts = 0usize;
    // Random per-mode permutation offsets so the "head" isn't always index 0.
    let offsets: Vec<u64> = (0..order).map(|_| rng.gen()).collect();
    let mut coord = vec![0 as Idx; order];
    while tensor.nnz() < nnz_budget && attempts < attempts_cap {
        attempts += 1;
        for (m, c) in coord.iter_mut().enumerate() {
            let n = shape[m];
            let u: f64 = rng.gen();
            // u^(1+skew) concentrates mass near zero for skew > 0.
            let raw = (u.powf(1.0 + skew) * n as f64) as usize;
            // Decorrelate the heads of different modes.
            let shuffled = (raw as u64).wrapping_add(offsets[m]) % n as u64;
            *c = shuffled.min(n as u64 - 1) as Idx;
        }
        if seen.insert(coord.clone()) {
            let value = 0.1 + 0.9 * rng.gen::<Val>();
            tensor.push(&coord, value);
        }
    }
    let canonical: Vec<usize> = (0..order).collect();
    tensor.sort_by_mode_order(&canonical);
    tensor
}

/// Generates an arbitrary-order sparse tensor with per-mode power-law skew —
/// the entry point for the paper's "can be extended to higher-order tensors"
/// claims. `skew = 0` gives uniform coordinates.
///
/// # Panics
/// If `shape` is empty or the budget is degenerate.
pub fn generate_norder(
    shape: &[usize],
    nnz_budget: usize,
    skew: f64,
    seed: u64,
) -> SparseTensorCoo {
    assert!(!shape.is_empty(), "tensor needs at least one mode");
    assert!(nnz_budget >= 1, "need a positive non-zero budget");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0c0ffee0);
    generate_skewed(shape, nnz_budget, skew, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brainq_keeps_odd_shape_and_density() {
        let (tensor, info) = generate(DatasetKind::Brainq, 30_000, 1);
        assert_eq!(tensor.shape()[0], 60);
        assert_eq!(tensor.shape()[2], 9);
        // Density class preserved: dense-ish.
        assert!(
            info.density > 0.15,
            "brainq density {} too low",
            info.density
        );
        assert!(info.nnz > 10_000);
    }

    #[test]
    fn nell1_is_much_sparser_than_nell2() {
        let (_, nell1) = generate(DatasetKind::Nell1, 20_000, 2);
        let (_, nell2) = generate(DatasetKind::Nell2, 20_000, 3);
        assert!(nell1.density < nell2.density / 10.0);
    }

    #[test]
    fn density_ordering_matches_paper() {
        let infos: Vec<DatasetInfo> = paper_datasets(15_000, 7)
            .into_iter()
            .map(|(_, info)| info)
            .collect();
        // Paper order: nell1, delicious, nell2, brainq — increasing density.
        for pair in infos.windows(2) {
            assert!(
                pair[0].density < pair[1].density,
                "{} ({:.2e}) should be sparser than {} ({:.2e})",
                pair[0].name,
                pair[0].density,
                pair[1].name,
                pair[1].density
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _) = generate(DatasetKind::Nell2, 5_000, 42);
        let (b, _) = generate(DatasetKind::Nell2, 5_000, 42);
        assert_eq!(a, b);
        let (c, _) = generate(DatasetKind::Nell2, 5_000, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn skewed_datasets_have_unbalanced_fibers() {
        let (nell1, _) = generate(DatasetKind::Nell1, 30_000, 5);
        let sizes = nell1.group_sizes(&[0, 1]);
        let max = *sizes.iter().max().unwrap();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        // Power-law head: the longest fiber dwarfs the mean.
        assert!(
            max as f64 > 4.0 * mean,
            "expected skew, got max {max} vs mean {mean:.2}"
        );
    }

    #[test]
    fn uniform_dataset_is_balanced() {
        let (uniform, _) = generate(DatasetKind::Uniform, 30_000, 6);
        let sizes = uniform.group_sizes(&[0]);
        let max = *sizes.iter().max().unwrap() as f64;
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(
            max < 3.0 * mean,
            "uniform should be balanced: max {max} mean {mean}"
        );
    }

    #[test]
    fn nnz_close_to_budget_for_sparse_kinds() {
        let budget = 25_000;
        let (tensor, _) = generate(DatasetKind::Delicious, budget, 8);
        assert!(tensor.nnz() >= budget * 9 / 10, "got {}", tensor.nnz());
        assert!(tensor.nnz() <= budget);
    }

    #[test]
    fn values_are_positive_and_bounded() {
        let (tensor, _) = generate(DatasetKind::Nell2, 5_000, 9);
        assert!(tensor.values().iter().all(|&v| (0.1..=1.0).contains(&v)));
    }

    #[test]
    fn no_duplicate_coordinates() {
        let (tensor, _) = generate(DatasetKind::Delicious, 10_000, 10);
        let mut t = tensor.clone();
        t.coalesce();
        assert_eq!(t.nnz(), tensor.nnz());
    }

    #[test]
    fn norder_generator_produces_valid_4_order_tensor() {
        let tensor = generate_norder(&[30, 40, 20, 10], 5_000, 1.0, 3);
        assert_eq!(tensor.order(), 4);
        assert!(tensor.nnz() >= 4_500, "got {}", tensor.nnz());
        // No duplicates.
        let mut copy = tensor.clone();
        copy.coalesce();
        assert_eq!(copy.nnz(), tensor.nnz());
        assert!(tensor.is_sorted_by(&[0, 1, 2, 3]));
    }

    #[test]
    fn norder_generator_is_deterministic() {
        let a = generate_norder(&[8, 8, 8, 8, 8], 1_000, 0.5, 9);
        let b = generate_norder(&[8, 8, 8, 8, 8], 1_000, 0.5, 9);
        assert_eq!(a, b);
        assert_eq!(a.order(), 5);
    }

    #[test]
    fn table_row_mentions_name_and_density() {
        let (_, info) = generate(DatasetKind::Brainq, 20_000, 11);
        let row = info.table_row();
        assert!(row.contains("brainq"));
        assert!(row.contains("density"));
    }
}
