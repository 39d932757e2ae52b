//! Unified classification of tensor modes (paper §IV-A, Table I).
//!
//! Every sparse tensor operation is described by which modes the tensor is
//! *multiplied along* (product modes) and which modes *index the output*
//! (index modes). Encoding this classification — rather than the operation —
//! into the storage format is what makes F-COO a single format for SpTTM,
//! SpMTTKRP and SpTTMc.

/// A sparse tensor operation, identified by kind and operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorOp {
    /// Sparse tensor-times-matrix on the given mode (paper Eq. 3).
    SpTtm {
        /// The mode the matrix multiplies along.
        mode: usize,
    },
    /// Sparse MTTKRP on the given mode (paper Eq. 6).
    SpMttkrp {
        /// The output (index) mode.
        mode: usize,
    },
    /// Sparse TTM-chain on the given mode (paper Eq. 4).
    SpTtmc {
        /// The output (index) mode.
        mode: usize,
    },
}

impl TensorOp {
    /// The mode argument of the operation.
    pub fn mode(&self) -> usize {
        match *self {
            TensorOp::SpTtm { mode } | TensorOp::SpMttkrp { mode } | TensorOp::SpTtmc { mode } => {
                mode
            }
        }
    }

    /// The tensor mode of each matrix in a unified-kernel launch's factor
    /// list, in list order: `[mode]` for SpTTM, every mode of an
    /// `order`-way tensor for SpMTTKRP (the kernel ignores the operating
    /// mode's slot), the product modes (ascending) for SpTTMc.
    pub fn factor_modes(&self, order: usize) -> Vec<usize> {
        match *self {
            TensorOp::SpTtm { mode } => vec![mode],
            TensorOp::SpMttkrp { .. } => (0..order).collect(),
            TensorOp::SpTtmc { mode } => (0..order).filter(|&m| m != mode).collect(),
        }
    }

    /// Short display name, e.g. `SpTTM(mode-3)` (1-based like the paper).
    pub fn label(&self) -> String {
        match *self {
            TensorOp::SpTtm { mode } => format!("SpTTM(mode-{})", mode + 1),
            TensorOp::SpMttkrp { mode } => format!("SpMTTKRP(mode-{})", mode + 1),
            TensorOp::SpTtmc { mode } => format!("SpTTMc(mode-{})", mode + 1),
        }
    }
}

/// The Table I classification of an operation on a tensor of a given order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeClassification {
    /// Modes along which the tensor is multiplied by dense matrices. These
    /// indices are stored explicitly in F-COO and drive the Hadamard /
    /// Kronecker products.
    pub product_modes: Vec<usize>,
    /// All other modes. These index the output; F-COO compresses them to
    /// change flags.
    pub index_modes: Vec<usize>,
}

impl ModeClassification {
    /// Classifies `op` for an `order`-way tensor.
    ///
    /// # Panics
    /// If the operating mode is out of range or the order is < 2.
    pub fn classify(op: TensorOp, order: usize) -> Self {
        assert!(order >= 2, "tensor operations need at least 2 modes");
        let mode = op.mode();
        assert!(
            mode < order,
            "operating mode {mode} out of range for order {order}"
        );
        let all: Vec<usize> = (0..order).collect();
        match op {
            TensorOp::SpTtm { mode } => ModeClassification {
                product_modes: vec![mode],
                index_modes: all.into_iter().filter(|&m| m != mode).collect(),
            },
            TensorOp::SpMttkrp { mode } | TensorOp::SpTtmc { mode } => ModeClassification {
                product_modes: all.into_iter().filter(|&m| m != mode).collect(),
                index_modes: vec![mode],
            },
        }
    }

    /// The sort order F-COO preprocessing uses: index modes first (so that
    /// equal index coordinates are contiguous — the segments of the scan),
    /// then product modes.
    pub fn sort_order(&self) -> Vec<usize> {
        self.index_modes
            .iter()
            .chain(&self.product_modes)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spttm_mode3_matches_table_i() {
        // Table I row 1: product mode-3, index modes (1,2).
        let c = ModeClassification::classify(TensorOp::SpTtm { mode: 2 }, 3);
        assert_eq!(c.product_modes, vec![2]);
        assert_eq!(c.index_modes, vec![0, 1]);
    }

    #[test]
    fn spmttkrp_mode1_matches_table_i() {
        // Table I row 2: product modes (2,3), index mode 1.
        let c = ModeClassification::classify(TensorOp::SpMttkrp { mode: 0 }, 3);
        assert_eq!(c.product_modes, vec![1, 2]);
        assert_eq!(c.index_modes, vec![0]);
    }

    #[test]
    fn spttmc_mode1_matches_table_i() {
        // Table I row 3: product modes (2,3), index mode 1.
        let c = ModeClassification::classify(TensorOp::SpTtmc { mode: 0 }, 3);
        assert_eq!(c.product_modes, vec![1, 2]);
        assert_eq!(c.index_modes, vec![0]);
    }

    #[test]
    fn classification_extends_to_higher_order() {
        let c = ModeClassification::classify(TensorOp::SpMttkrp { mode: 2 }, 5);
        assert_eq!(c.product_modes, vec![0, 1, 3, 4]);
        assert_eq!(c.index_modes, vec![2]);
        let t = ModeClassification::classify(TensorOp::SpTtm { mode: 4 }, 5);
        assert_eq!(t.product_modes, vec![4]);
        assert_eq!(t.index_modes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sort_order_puts_index_modes_first() {
        let c = ModeClassification::classify(TensorOp::SpTtm { mode: 0 }, 3);
        assert_eq!(c.sort_order(), vec![1, 2, 0]);
        let m = ModeClassification::classify(TensorOp::SpMttkrp { mode: 1 }, 3);
        assert_eq!(m.sort_order(), vec![1, 0, 2]);
    }

    #[test]
    fn labels_are_one_based() {
        assert_eq!(TensorOp::SpTtm { mode: 2 }.label(), "SpTTM(mode-3)");
        assert_eq!(TensorOp::SpMttkrp { mode: 0 }.label(), "SpMTTKRP(mode-1)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn classify_rejects_bad_mode() {
        ModeClassification::classify(TensorOp::SpTtm { mode: 3 }, 3);
    }
}
