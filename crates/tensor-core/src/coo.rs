//! Coordinate-format (COO) sparse tensors of arbitrary order.
//!
//! Storage is struct-of-arrays: one index vector per mode plus one value
//! vector, which is both cache-friendly and exactly the layout whose byte
//! cost the paper's Table II charges (one `u32` per mode per non-zero, one
//! `f32` value per non-zero).

use crate::{Idx, Val};

/// An arbitrary-order sparse tensor in coordinate format.
///
/// ```
/// use tensor_core::SparseTensorCoo;
///
/// let mut x = SparseTensorCoo::new(vec![4, 5, 6]);
/// x.push(&[0, 1, 2], 1.5);
/// x.push(&[3, 4, 5], -2.0);
/// assert_eq!(x.nnz(), 2);
/// assert_eq!(x.order(), 3);
/// assert!(x.density() < 0.02);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensorCoo {
    shape: Vec<usize>,
    /// `indices[mode][nz]` — coordinate of non-zero `nz` along `mode`.
    indices: Vec<Vec<Idx>>,
    values: Vec<Val>,
}

impl SparseTensorCoo {
    /// Creates an empty tensor with the given mode sizes.
    ///
    /// # Panics
    /// If `shape` is empty or any mode size is zero or exceeds `u32::MAX`.
    pub fn new(shape: Vec<usize>) -> Self {
        assert!(!shape.is_empty(), "tensor must have at least one mode");
        for (mode, &size) in shape.iter().enumerate() {
            assert!(size > 0, "mode {mode} has zero size");
            assert!(
                size <= u32::MAX as usize,
                "mode {mode} exceeds u32 index range"
            );
        }
        let order = shape.len();
        SparseTensorCoo {
            shape,
            indices: vec![Vec::new(); order],
            values: Vec::new(),
        }
    }

    /// Builds a tensor from `(coordinate, value)` entries.
    ///
    /// # Panics
    /// If any coordinate has the wrong arity or is out of bounds.
    pub fn from_entries(shape: Vec<usize>, entries: &[(Vec<Idx>, Val)]) -> Self {
        let mut tensor = SparseTensorCoo::new(shape);
        for (coord, value) in entries {
            tensor.push(coord, *value);
        }
        tensor
    }

    /// Appends one non-zero.
    ///
    /// # Panics
    /// If the coordinate arity or any index is out of bounds.
    pub fn push(&mut self, coord: &[Idx], value: Val) {
        assert_eq!(coord.len(), self.order(), "coordinate arity mismatch");
        for (mode, (&index, &size)) in coord.iter().zip(&self.shape).enumerate() {
            assert!(
                (index as usize) < size,
                "index {index} out of bounds for mode {mode} (size {size})"
            );
            self.indices[mode].push(index);
        }
        self.values.push(value);
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Mode sizes.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of cells that are non-zero.
    pub fn density(&self) -> f64 {
        let cells: f64 = self.shape.iter().map(|&s| s as f64).product();
        self.nnz() as f64 / cells
    }

    /// Coordinates along one mode, parallel to [`values`](Self::values).
    #[inline]
    pub fn mode_indices(&self, mode: usize) -> &[Idx] {
        &self.indices[mode]
    }

    /// Non-zero values.
    #[inline]
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// Mutable non-zero values (coordinates are fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [Val] {
        &mut self.values
    }

    /// The full coordinate of non-zero `nz`.
    pub fn coord(&self, nz: usize) -> Vec<Idx> {
        self.indices.iter().map(|column| column[nz]).collect()
    }

    /// Iterates over `(coordinate, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<Idx>, Val)> + '_ {
        (0..self.nnz()).map(move |nz| (self.coord(nz), self.values[nz]))
    }

    /// Sorts non-zeros lexicographically by the given mode order (e.g.
    /// `[2, 0, 1]` sorts primarily by mode-2 coordinates).
    ///
    /// Every kernel crate relies on this: F-COO preprocessing for mode `n`
    /// sorts with the index modes leading, CSF construction sorts with the
    /// root mode leading.
    ///
    /// # Panics
    /// If `mode_order` is not a permutation of `0..order`.
    pub fn sort_by_mode_order(&mut self, mode_order: &[usize]) {
        self.check_mode_order(mode_order);
        let mut perm: Vec<usize> = (0..self.nnz()).collect();
        let indices = &self.indices;
        perm.sort_unstable_by(|&a, &b| {
            for &mode in mode_order {
                match indices[mode][a].cmp(&indices[mode][b]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });
        self.apply_permutation(&perm);
    }

    /// Renumbers `mode` to each coordinate's rank among `coords`, the mode's
    /// sorted distinct coordinates, and shrinks the mode to `coords.len()`.
    /// The renumbering keeps the coordinate order, so every sort order of
    /// the tensor is unchanged.
    ///
    /// # Panics
    /// If `coords` is not strictly increasing or misses a coordinate the
    /// mode holds.
    pub fn compact_mode(&mut self, mode: usize, coords: &[Idx]) {
        assert!(
            coords.windows(2).all(|pair| pair[0] < pair[1]),
            "compact coordinates must be strictly increasing"
        );
        for index in &mut self.indices[mode] {
            let rank = coords
                .binary_search(index)
                .unwrap_or_else(|_| panic!("mode {mode} coordinate {index} is not listed"));
            *index = rank as Idx;
        }
        self.shape[mode] = coords.len();
    }

    /// True if the non-zeros are lexicographically sorted by `mode_order`.
    pub fn is_sorted_by(&self, mode_order: &[usize]) -> bool {
        self.check_mode_order(mode_order);
        (1..self.nnz()).all(|nz| {
            for &mode in mode_order {
                match self.indices[mode][nz - 1].cmp(&self.indices[mode][nz]) {
                    std::cmp::Ordering::Less => return true,
                    std::cmp::Ordering::Greater => return false,
                    std::cmp::Ordering::Equal => continue,
                }
            }
            true
        })
    }

    /// Sorts by the canonical mode order `0, 1, …` and sums duplicates.
    pub fn coalesce(&mut self) {
        let canonical: Vec<usize> = (0..self.order()).collect();
        self.sort_by_mode_order(&canonical);
        if self.nnz() < 2 {
            return;
        }
        let mut write = 0usize;
        for read in 1..self.nnz() {
            let same = (0..self.order()).all(|m| self.indices[m][read] == self.indices[m][write]);
            if same {
                self.values[write] += self.values[read];
            } else {
                write += 1;
                for m in 0..self.order() {
                    self.indices[m][write] = self.indices[m][read];
                }
                self.values[write] = self.values[read];
            }
        }
        let new_len = write + 1;
        for column in &mut self.indices {
            column.truncate(new_len);
        }
        self.values.truncate(new_len);
    }

    /// Counts distinct coordinate combinations over the given modes — i.e.
    /// the number of non-empty fibers (one mode omitted) or slices (two modes
    /// omitted) the computation will touch.
    pub fn count_distinct(&self, modes: &[usize]) -> usize {
        if self.nnz() == 0 {
            return 0;
        }
        let mut keys: Vec<Vec<Idx>> = (0..self.nnz())
            .map(|nz| modes.iter().map(|&m| self.indices[m][nz]).collect())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Histogram of non-zero counts per distinct coordinate combination over
    /// `modes` (e.g. fiber lengths). Used to quantify the load imbalance the
    /// paper attributes to fiber-centric parallelization.
    pub fn group_sizes(&self, modes: &[usize]) -> Vec<usize> {
        if self.nnz() == 0 {
            return Vec::new();
        }
        let mut keys: Vec<Vec<Idx>> = (0..self.nnz())
            .map(|nz| modes.iter().map(|&m| self.indices[m][nz]).collect())
            .collect();
        keys.sort_unstable();
        let mut sizes = Vec::new();
        let mut run = 1usize;
        for i in 1..keys.len() {
            if keys[i] == keys[i - 1] {
                run += 1;
            } else {
                sizes.push(run);
                run = 1;
            }
        }
        sizes.push(run);
        sizes
    }

    /// Bytes this COO representation occupies (Table II's `16 × nnz` for a
    /// 3-order tensor: one `u32` per mode plus one `f32` value per non-zero).
    pub fn storage_bytes(&self) -> usize {
        self.nnz() * (self.order() * std::mem::size_of::<Idx>() + std::mem::size_of::<Val>())
    }

    fn check_mode_order(&self, mode_order: &[usize]) {
        assert_eq!(mode_order.len(), self.order(), "mode order arity mismatch");
        let mut seen = vec![false; self.order()];
        for &mode in mode_order {
            assert!(mode < self.order(), "mode {mode} out of range");
            assert!(!seen[mode], "duplicate mode {mode} in order");
            seen[mode] = true;
        }
    }

    fn apply_permutation(&mut self, perm: &[usize]) {
        for column in &mut self.indices {
            let gathered: Vec<Idx> = perm.iter().map(|&p| column[p]).collect();
            *column = gathered;
        }
        self.values = perm.iter().map(|&p| self.values[p]).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseTensorCoo {
        // The 2×2×3 example spirit of the paper's Figure 2.
        SparseTensorCoo::from_entries(
            vec![2, 2, 3],
            &[
                (vec![1, 1, 2], 12.0),
                (vec![0, 0, 0], 1.0),
                (vec![1, 0, 1], 7.0),
                (vec![0, 0, 2], 3.0),
                (vec![1, 1, 0], 10.0),
                (vec![0, 0, 1], 2.0),
            ],
        )
    }

    #[test]
    fn push_and_read_back() {
        let t = sample();
        assert_eq!(t.nnz(), 6);
        assert_eq!(t.order(), 3);
        assert_eq!(t.coord(0), vec![1, 1, 2]);
        assert_eq!(t.values()[0], 12.0);
    }

    #[test]
    fn sort_canonical_orders_lexicographically() {
        let mut t = sample();
        t.sort_by_mode_order(&[0, 1, 2]);
        assert!(t.is_sorted_by(&[0, 1, 2]));
        assert_eq!(t.coord(0), vec![0, 0, 0]);
        assert_eq!(t.values()[0], 1.0);
        assert_eq!(t.coord(5), vec![1, 1, 2]);
    }

    #[test]
    fn sort_by_alternate_mode_order() {
        let mut t = sample();
        t.sort_by_mode_order(&[2, 0, 1]);
        assert!(t.is_sorted_by(&[2, 0, 1]));
        // First entries have k = 0.
        assert_eq!(t.mode_indices(2)[0], 0);
        assert_eq!(t.mode_indices(2)[5], 2);
    }

    #[test]
    fn compact_mode_renumbers_by_rank_and_keeps_the_order() {
        let mut t = SparseTensorCoo::from_entries(
            vec![2, 9],
            &[(vec![1, 7], 1.0), (vec![0, 2], 2.0), (vec![1, 2], 3.0)],
        );
        t.compact_mode(1, &[2, 7]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.mode_indices(1), &[1, 0, 0]);
        assert_eq!(t.mode_indices(0), &[1, 0, 1]);
        t.sort_by_mode_order(&[1, 0]);
        assert_eq!(t.values(), &[2.0, 3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "is not listed")]
    fn compact_mode_refuses_an_unlisted_coordinate() {
        let mut t = sample();
        t.compact_mode(2, &[0, 2]);
    }

    #[test]
    fn sort_preserves_coordinate_value_pairing() {
        let mut t = sample();
        let before: std::collections::BTreeMap<Vec<Idx>, Val> = t.iter().collect();
        t.sort_by_mode_order(&[1, 2, 0]);
        let after: std::collections::BTreeMap<Vec<Idx>, Val> = t.iter().collect();
        assert_eq!(before, after);
    }

    #[test]
    fn coalesce_sums_duplicates() {
        let mut t = SparseTensorCoo::from_entries(
            vec![4, 4],
            &[
                (vec![1, 2], 1.0),
                (vec![0, 0], 5.0),
                (vec![1, 2], 2.5),
                (vec![1, 2], 0.5),
                (vec![3, 3], 1.0),
            ],
        );
        t.coalesce();
        assert_eq!(t.nnz(), 3);
        let entries: Vec<(Vec<Idx>, Val)> = t.iter().collect();
        assert_eq!(entries[1], (vec![1, 2], 4.0));
    }

    #[test]
    fn coalesce_on_empty_and_singleton() {
        let mut empty = SparseTensorCoo::new(vec![3, 3]);
        empty.coalesce();
        assert_eq!(empty.nnz(), 0);
        let mut one = SparseTensorCoo::from_entries(vec![3, 3], &[(vec![2, 2], 1.0)]);
        one.coalesce();
        assert_eq!(one.nnz(), 1);
    }

    #[test]
    fn count_distinct_fibers_and_slices() {
        let t = sample();
        // Mode-3 fibers are identified by (i, j): (0,0), (1,0), (1,1) → 3.
        assert_eq!(t.count_distinct(&[0, 1]), 3);
        // Mode-1 slices identified by i: {0, 1} → 2.
        assert_eq!(t.count_distinct(&[0]), 2);
    }

    #[test]
    fn group_sizes_sum_to_nnz() {
        let t = sample();
        let sizes = t.group_sizes(&[0, 1]);
        assert_eq!(sizes.iter().sum::<usize>(), t.nnz());
        assert_eq!(sizes, vec![3, 1, 2]);
    }

    #[test]
    fn density_of_sample() {
        let t = sample();
        let expected = 6.0 / (2.0 * 2.0 * 3.0);
        assert!((t.density() - expected).abs() < 1e-12);
    }

    #[test]
    fn storage_bytes_matches_coo_formula() {
        let t = sample();
        // 3-order: 16 bytes per nnz (Table II).
        assert_eq!(t.storage_bytes(), 16 * t.nnz());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_rejects_out_of_range_index() {
        let mut t = SparseTensorCoo::new(vec![2, 2]);
        t.push(&[2, 0], 1.0);
    }

    #[test]
    #[should_panic(expected = "coordinate arity mismatch")]
    fn push_rejects_wrong_arity() {
        let mut t = SparseTensorCoo::new(vec![2, 2]);
        t.push(&[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate mode")]
    fn sort_rejects_non_permutation() {
        let mut t = sample();
        t.sort_by_mode_order(&[0, 0, 1]);
    }

    #[test]
    fn empty_tensor_queries() {
        let t = SparseTensorCoo::new(vec![5, 5, 5]);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.count_distinct(&[0]), 0);
        assert!(t.group_sizes(&[0]).is_empty());
        assert!(t.is_sorted_by(&[0, 1, 2]));
    }
}
