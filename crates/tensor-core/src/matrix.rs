//! Row-major dense matrices and the matrix products used by sparse tensor
//! operations (Khatri-Rao, Hadamard, Gram).

use crate::Val;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A row-major dense matrix of [`Val`] entries.
///
/// This is the representation of the dense factor matrices `U`, `A`, `B`, `C`
/// in the paper: tall-skinny `I × R` matrices whose rows are consumed by the
/// sparse kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Val>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Val) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Val>) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        DenseMatrix { rows, cols, data }
    }

    /// Creates a matrix with entries drawn uniformly from `[0, 1)`, seeded
    /// deterministically.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        DenseMatrix::from_fn(rows, cols, |_, _| rng.gen::<Val>())
    }

    /// The `rows × rows` identity matrix.
    pub fn identity(rows: usize) -> Self {
        DenseMatrix::from_fn(rows, rows, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[Val] {
        &self.data
    }

    /// Mutable access to the underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [Val] {
        &mut self.data
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Val {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Entry setter.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: Val) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Borrow of row `row`.
    #[inline]
    pub fn row(&self, row: usize) -> &[Val] {
        let start = row * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutable borrow of row `row`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [Val] {
        let start = row * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Fills every entry with `value`.
    pub fn fill(&mut self, value: Val) {
        self.data.fill(value);
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DenseMatrix {
        DenseMatrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Plain matrix product `self * other`.
    ///
    /// # Panics
    /// If the inner dimensions disagree.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        // i-k-j loop order: streams over `other` rows, friendly to row-major.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let other_row = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(other_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// The Gram matrix `selfᵀ · self` (`R × R` for a tall-skinny factor),
    /// accumulated in `f64` for accuracy.
    pub fn gram(&self) -> DenseMatrix {
        let r = self.cols;
        let mut acc = vec![0.0f64; r * r];
        for row in 0..self.rows {
            let values = self.row(row);
            for a in 0..r {
                let va = values[a] as f64;
                if va == 0.0 {
                    continue;
                }
                for b in a..r {
                    acc[a * r + b] += va * values[b] as f64;
                }
            }
        }
        let mut out = DenseMatrix::zeros(r, r);
        for a in 0..r {
            for b in a..r {
                let value = acc[a * r + b] as Val;
                out.set(a, b, value);
                out.set(b, a, value);
            }
        }
        out
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    /// If the shapes disagree.
    pub fn hadamard(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "hadamard shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Khatri-Rao (column-wise Kronecker) product `self ⊙ other` (paper Eq. 2).
    ///
    /// ```
    /// use tensor_core::DenseMatrix;
    ///
    /// let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
    /// let b = DenseMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
    /// let kr = a.khatri_rao(&b);
    /// assert_eq!((kr.rows(), kr.cols()), (4, 2));
    /// assert_eq!(kr.get(0, 0), 5.0);  // a(0,0)·b(0,0)
    /// assert_eq!(kr.get(3, 1), 32.0); // a(1,1)·b(1,1)
    /// ```
    ///
    /// # Panics
    /// If the column counts disagree.
    pub fn khatri_rao(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cols, other.cols,
            "khatri-rao requires equal column counts"
        );
        let mut out = DenseMatrix::zeros(self.rows * other.rows, self.cols);
        for i in 0..self.rows {
            for k in 0..other.rows {
                let out_row = i * other.rows + k;
                for c in 0..self.cols {
                    out.set(out_row, c, self.get(i, c) * other.get(k, c));
                }
            }
        }
        out
    }

    /// Euclidean norm of each column.
    pub fn column_norms(&self) -> Vec<Val> {
        let mut norms = vec![0.0f64; self.cols];
        for row in 0..self.rows {
            for (norm, &value) in norms.iter_mut().zip(self.row(row)) {
                *norm += (value as f64) * (value as f64);
            }
        }
        norms.into_iter().map(|n| n.sqrt() as Val).collect()
    }

    /// Normalizes each column to unit norm and returns the norms (the `λ`
    /// weights of CP-ALS). Zero columns are left untouched and report norm 0.
    pub fn normalize_columns(&mut self) -> Vec<Val> {
        let norms = self.column_norms();
        for row in 0..self.rows {
            let start = row * self.cols;
            for (c, &norm) in norms.iter().enumerate() {
                if norm > 0.0 {
                    self.data[start + c] /= norm;
                }
            }
        }
        norms
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Largest absolute entry-wise difference to `other`.
    ///
    /// # Panics
    /// If the shapes disagree.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| ((a - b) as f64).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::assert_close;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = DenseMatrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DenseMatrix::random(5, 5, 1);
        let id = DenseMatrix::identity(5);
        assert!(a.matmul(&id).max_abs_diff(&a) < 1e-6);
        assert!(id.matmul(&a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn gram_matches_transpose_matmul() {
        let a = DenseMatrix::random(40, 7, 3);
        let gram = a.gram();
        let reference = a.transpose().matmul(&a);
        assert!(gram.max_abs_diff(&reference) < 1e-3);
    }

    #[test]
    fn gram_is_symmetric() {
        let a = DenseMatrix::random(31, 9, 9);
        let g = a.gram();
        for i in 0..9 {
            for j in 0..9 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
    }

    #[test]
    fn khatri_rao_is_columnwise_kronecker() {
        let a = DenseMatrix::random(3, 4, 11);
        let b = DenseMatrix::random(5, 4, 12);
        let kr = a.khatri_rao(&b);
        assert_eq!((kr.rows(), kr.cols()), (15, 4));
        for c in 0..4 {
            for i in 0..3 {
                for k in 0..5 {
                    assert_close(
                        kr.get(i * 5 + k, c) as f64,
                        (a.get(i, c) * b.get(k, c)) as f64,
                        1e-6,
                    );
                }
            }
        }
    }

    #[test]
    fn hadamard_elementwise() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = DenseMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.hadamard(&b).data(), &[5.0, 12.0, 21.0, 32.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = DenseMatrix::random(6, 3, 20);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn normalize_columns_returns_norms_and_unit_columns() {
        let mut a = DenseMatrix::from_vec(2, 2, vec![3.0, 0.0, 4.0, 0.0]);
        let norms = a.normalize_columns();
        assert_close(norms[0] as f64, 5.0, 1e-6);
        assert_eq!(norms[1], 0.0);
        assert_close(a.get(0, 0) as f64, 0.6, 1e-6);
        assert_close(a.get(1, 0) as f64, 0.8, 1e-6);
        // Zero column untouched.
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn column_norms_of_identity() {
        let id = DenseMatrix::identity(4);
        assert_eq!(id.column_norms(), vec![1.0; 4]);
    }

    #[test]
    fn frobenius_norm() {
        let a = DenseMatrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert_close(a.frobenius(), 5.0, 1e-9);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "khatri-rao requires equal column counts")]
    fn khatri_rao_mismatch_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 4);
        let _ = a.khatri_rao(&b);
    }

    #[test]
    fn fill_sets_every_entry() {
        let mut a = DenseMatrix::zeros(3, 2);
        a.fill(2.0);
        assert!(a.data().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn row_mut_writes_through() {
        let mut a = DenseMatrix::zeros(2, 3);
        a.row_mut(1).copy_from_slice(&[7.0, 8.0, 9.0]);
        assert_eq!(a.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(a.row(1), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        assert_eq!(DenseMatrix::random(4, 4, 7), DenseMatrix::random(4, 4, 7));
        assert_ne!(DenseMatrix::random(4, 4, 7), DenseMatrix::random(4, 4, 8));
    }
}
