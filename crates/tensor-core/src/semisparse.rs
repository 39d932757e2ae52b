//! Semi-sparse tensors: the output of TTM (sCOO format of Li et al.).
//!
//! After `Y = X ×ₙ U`, every mode-`n` fiber at a surviving coordinate is
//! dense with length `R = U.cols()`. Following the sCOO format, we store one
//! coordinate tuple per non-empty fiber (the index modes only) plus an
//! `nfibs × R` row-major dense value block.

use crate::{Idx, Val};

/// A tensor that is sparse in all modes except one dense mode of length `R`.
#[derive(Debug, Clone, PartialEq)]
pub struct SemiSparseTensor {
    /// Shape of the originating sparse tensor (all modes).
    shape: Vec<usize>,
    /// The mode that became dense (the TTM product mode).
    dense_mode: usize,
    /// Length of the dense fibers (`R`).
    dense_len: usize,
    /// `coords[m][fib]` for each index mode `m` (product mode omitted),
    /// in the same order as `shape` minus `dense_mode`.
    coords: Vec<Vec<Idx>>,
    /// `nfibs × dense_len` row-major fiber values.
    values: Vec<Val>,
}

impl SemiSparseTensor {
    /// Creates an empty semi-sparse tensor.
    ///
    /// # Panics
    /// If `dense_mode` is out of range or `dense_len` is zero.
    pub fn new(shape: Vec<usize>, dense_mode: usize, dense_len: usize) -> Self {
        assert!(dense_mode < shape.len(), "dense mode out of range");
        assert!(dense_len > 0, "dense fiber length must be positive");
        let index_mode_count = shape.len() - 1;
        SemiSparseTensor {
            shape,
            dense_mode,
            dense_len,
            coords: vec![Vec::new(); index_mode_count],
            values: Vec::new(),
        }
    }

    /// Appends a fiber with its dense values.
    ///
    /// `index_coord` lists the coordinates of every mode except the dense
    /// mode, in ascending mode order.
    ///
    /// # Panics
    /// If arities or bounds are violated.
    pub fn push_fiber(&mut self, index_coord: &[Idx], fiber: &[Val]) {
        assert_eq!(
            index_coord.len(),
            self.coords.len(),
            "index coordinate arity mismatch"
        );
        assert_eq!(fiber.len(), self.dense_len, "fiber length mismatch");
        for (slot, (&index, size)) in index_coord.iter().zip(self.index_mode_sizes()).enumerate() {
            assert!(
                (index as usize) < size,
                "fiber coordinate {index} out of bounds in slot {slot}"
            );
            self.coords[slot].push(index);
        }
        self.values.extend_from_slice(fiber);
    }

    /// One fiber per row of the row-major `values` block: fiber `f` sits at
    /// index coordinate `(coords[0][f], coords[1][f], …)` (one column per
    /// index mode, ascending) and holds row `f`, `dense_len` values long.
    ///
    /// # Panics
    /// As [`SemiSparseTensor::new`] and [`SemiSparseTensor::push_fiber`],
    /// or if a coordinate column is shorter than the row count.
    pub fn from_fibers(
        shape: Vec<usize>,
        dense_mode: usize,
        dense_len: usize,
        coords: &[Vec<Idx>],
        values: &[Val],
    ) -> Self {
        let mut result = SemiSparseTensor::new(shape, dense_mode, dense_len);
        for (fib, fiber) in values.chunks_exact(dense_len).enumerate() {
            let coord: Vec<Idx> = coords.iter().map(|column| column[fib]).collect();
            result.push_fiber(&coord, fiber);
        }
        result
    }

    /// The same fibers over an originating tensor whose dense mode has
    /// `extent` rows. No fiber indexes the dense mode, so only the recorded
    /// shape changes.
    pub fn with_dense_extent(mut self, extent: usize) -> Self {
        self.shape[self.dense_mode] = extent;
        self
    }

    /// Sizes of the index modes, in ascending mode order.
    pub fn index_mode_sizes(&self) -> Vec<usize> {
        self.shape
            .iter()
            .enumerate()
            .filter(|(m, _)| *m != self.dense_mode)
            .map(|(_, &s)| s)
            .collect()
    }

    /// Original tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The dense (product) mode.
    pub fn dense_mode(&self) -> usize {
        self.dense_mode
    }

    /// Length of each dense fiber.
    pub fn dense_len(&self) -> usize {
        self.dense_len
    }

    /// Number of stored fibers.
    pub fn nfibs(&self) -> usize {
        if self.coords.is_empty() {
            // Order-1 tensor: a single dense fiber if any values exist.
            usize::from(!self.values.is_empty())
        } else {
            self.coords[0].len()
        }
    }

    /// Index coordinates of fiber `fib` (ascending mode order, dense mode
    /// omitted).
    pub fn fiber_coord(&self, fib: usize) -> Vec<Idx> {
        self.coords.iter().map(|column| column[fib]).collect()
    }

    /// Dense values of fiber `fib`.
    pub fn fiber(&self, fib: usize) -> &[Val] {
        &self.values[fib * self.dense_len..(fib + 1) * self.dense_len]
    }

    /// Mutable dense values of fiber `fib`.
    pub fn fiber_mut(&mut self, fib: usize) -> &mut [Val] {
        &mut self.values[fib * self.dense_len..(fib + 1) * self.dense_len]
    }

    /// All fiber values, row-major `nfibs × dense_len`.
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// Sorts fibers lexicographically by index coordinates, dropping any
    /// all-zero fibers. Canonicalizes the tensor so two construction orders
    /// compare equal.
    pub fn canonicalize(&mut self) {
        let nfibs = self.nfibs();
        let mut perm: Vec<usize> = (0..nfibs).collect();
        let coords = &self.coords;
        perm.sort_unstable_by(|&a, &b| {
            for column in coords {
                match column[a].cmp(&column[b]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });
        let keep: Vec<usize> = perm
            .into_iter()
            .filter(|&fib| self.fiber(fib).iter().any(|&v| v != 0.0))
            .collect();
        let mut new_coords = vec![Vec::with_capacity(keep.len()); self.coords.len()];
        let mut new_values = Vec::with_capacity(keep.len() * self.dense_len);
        for &fib in &keep {
            for (column, new_column) in self.coords.iter().zip(&mut new_coords) {
                new_column.push(column[fib]);
            }
            new_values.extend_from_slice(self.fiber(fib));
        }
        self.coords = new_coords;
        self.values = new_values;
    }

    /// Largest absolute difference to `other`, after both are canonicalized.
    /// Returns `None` if the fiber sets differ.
    pub fn max_abs_diff(&self, other: &SemiSparseTensor) -> Option<f64> {
        if self.shape != other.shape
            || self.dense_mode != other.dense_mode
            || self.dense_len != other.dense_len
        {
            return None;
        }
        let mut a = self.clone();
        let mut b = other.clone();
        a.canonicalize();
        b.canonicalize();
        if a.nfibs() != b.nfibs() || a.coords != b.coords {
            return None;
        }
        Some(
            a.values
                .iter()
                .zip(&b.values)
                .map(|(x, y)| ((x - y) as f64).abs())
                .fold(0.0, f64::max),
        )
    }

    /// Expands the semi-sparse tensor back into coordinate format: the dense
    /// mode's positions become explicit coordinates (zeros are dropped).
    ///
    /// This is what a chained-TTM pipeline (the paper's Fig. 3a "previous
    /// method") must do between steps, and is exactly the conversion the
    /// one-shot method avoids.
    pub fn to_coo(&self) -> crate::SparseTensorCoo {
        let mut shape = self.shape.clone();
        shape[self.dense_mode] = self.dense_len;
        let mut out = crate::SparseTensorCoo::new(shape);
        let mut coord = vec![0 as Idx; self.shape.len()];
        for fib in 0..self.nfibs() {
            let index_coord = self.fiber_coord(fib);
            let mut slot = 0usize;
            for (m, c) in coord.iter_mut().enumerate() {
                if m != self.dense_mode {
                    *c = index_coord[slot];
                    slot += 1;
                }
            }
            for (r, &value) in self.fiber(fib).iter().enumerate() {
                if value != 0.0 {
                    coord[self.dense_mode] = r as Idx;
                    out.push(&coord, value);
                }
            }
        }
        out
    }

    /// Bytes occupied: sCOO stores index-mode coordinates once per fiber plus
    /// the dense block.
    pub fn storage_bytes(&self) -> usize {
        self.nfibs()
            * (self.coords.len() * std::mem::size_of::<Idx>()
                + self.dense_len * std::mem::size_of::<Val>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SemiSparseTensor {
        let mut y = SemiSparseTensor::new(vec![2, 2, 3], 2, 4);
        y.push_fiber(&[1, 0], &[5.0, 6.0, 7.0, 8.0]);
        y.push_fiber(&[0, 0], &[1.0, 2.0, 3.0, 4.0]);
        y
    }

    #[test]
    fn push_and_read_fibers() {
        let y = sample();
        assert_eq!(y.nfibs(), 2);
        assert_eq!(y.fiber_coord(0), vec![1, 0]);
        assert_eq!(y.fiber(1), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y.index_mode_sizes(), vec![2, 2]);
    }

    #[test]
    fn canonicalize_sorts_by_coordinates() {
        let mut y = sample();
        y.canonicalize();
        assert_eq!(y.fiber_coord(0), vec![0, 0]);
        assert_eq!(y.fiber(0), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn canonicalize_drops_zero_fibers() {
        let mut y = sample();
        y.push_fiber(&[1, 1], &[0.0, 0.0, 0.0, 0.0]);
        y.canonicalize();
        assert_eq!(y.nfibs(), 2);
    }

    #[test]
    fn diff_detects_equal_tensors_built_in_different_orders() {
        let a = sample();
        let mut b = SemiSparseTensor::new(vec![2, 2, 3], 2, 4);
        b.push_fiber(&[0, 0], &[1.0, 2.0, 3.0, 4.0]);
        b.push_fiber(&[1, 0], &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.max_abs_diff(&b), Some(0.0));
    }

    #[test]
    fn diff_detects_differing_fiber_sets() {
        let a = sample();
        let mut b = SemiSparseTensor::new(vec![2, 2, 3], 2, 4);
        b.push_fiber(&[0, 1], &[1.0, 2.0, 3.0, 4.0]);
        b.push_fiber(&[1, 0], &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.max_abs_diff(&b), None);
    }

    #[test]
    fn diff_measures_value_gap() {
        let a = sample();
        let mut b = a.clone();
        b.fiber_mut(0)[2] += 0.5;
        assert!((a.max_abs_diff(&b).unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn storage_bytes_scoo() {
        let y = sample();
        // 2 fibers × (2 index coords × 4 bytes + 4 dense values × 4 bytes).
        assert_eq!(y.storage_bytes(), 2 * (8 + 16));
    }

    #[test]
    fn to_coo_expands_dense_mode() {
        let y = sample();
        let coo = to_coo_of_sample(&y);
        assert_eq!(coo.shape(), &[2, 2, 4]);
        assert_eq!(coo.nnz(), 8);
        // Spot-check a couple of entries.
        let entries: std::collections::BTreeMap<Vec<u32>, f32> = coo.iter().collect();
        assert_eq!(entries[&vec![1, 0, 0]], 5.0);
        assert_eq!(entries[&vec![0, 0, 3]], 4.0);
    }

    fn to_coo_of_sample(y: &SemiSparseTensor) -> crate::SparseTensorCoo {
        y.to_coo()
    }

    #[test]
    fn to_coo_drops_zeros() {
        let mut y = SemiSparseTensor::new(vec![2, 2, 3], 2, 4);
        y.push_fiber(&[0, 1], &[1.0, 0.0, 0.0, 2.0]);
        let coo = y.to_coo();
        assert_eq!(coo.nnz(), 2);
    }

    #[test]
    fn to_coo_round_trips_through_spttm_identity() {
        // TTM with the identity matrix leaves values in place; converting
        // back to COO must reproduce the original tensor.
        let tensor = crate::SparseTensorCoo::from_entries(
            vec![3, 4, 5],
            &[
                (vec![0, 1, 2], 1.5),
                (vec![2, 3, 4], -2.0),
                (vec![1, 0, 0], 3.0),
            ],
        );
        let identity = crate::DenseMatrix::identity(5);
        let y = crate::ops::spttm(&tensor, 2, &identity);
        let mut recovered = y.to_coo();
        recovered.coalesce();
        let a: std::collections::BTreeMap<Vec<u32>, f32> = tensor.iter().collect();
        let b: std::collections::BTreeMap<Vec<u32>, f32> = recovered.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "fiber length mismatch")]
    fn push_rejects_bad_fiber_length() {
        let mut y = SemiSparseTensor::new(vec![2, 2, 3], 2, 4);
        y.push_fiber(&[0, 0], &[1.0]);
    }
}
