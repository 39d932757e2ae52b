//! Compact product-mode coordinates: formats whose factors hold only the
//! rows a kernel reads.
//!
//! A unified kernel reads factor row `i` of product mode `m` only when some
//! non-zero has coordinate `i` in mode `m`. On hypersparse tensors those
//! *touched rows* are a small fraction of the factor. [`compact_tensor`]
//! renumbers each product mode of an operation to the coordinate's rank
//! among the mode's touched rows ([`touched_rows`]), so a format built from
//! it indexes a `touched × R` factor gathered on the host: nothing else
//! crosses PCIe or occupies the device.
//!
//! The renumbering keeps the coordinate order, so the sort order, the
//! `bf`/`sf` flags, the segments and BF-COO's buckets of the compact format
//! equal those of the original, and every output coordinate (the index
//! modes) is unchanged. A fully touched mode renumbers to itself.

use crate::modes::{ModeClassification, TensorOp};
use tensor_core::{Idx, SparseTensorCoo};

/// The sorted distinct coordinates of one mode: the rows of that mode's
/// factor any kernel over the tensor can read.
pub fn touched_rows(coords: &[Idx]) -> Vec<u32> {
    let mut rows = coords.to_vec();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// `tensor` with every product mode of `op` renumbered over its touched
/// rows; `touched[m]` holds mode `m`'s sorted distinct coordinates.
///
/// # Panics
/// If `touched` does not list every coordinate of a product mode.
pub fn compact_tensor(
    tensor: &SparseTensorCoo,
    op: TensorOp,
    touched: &[Vec<u32>],
) -> SparseTensorCoo {
    let mut compact = tensor.clone();
    for &mode in &ModeClassification::classify(op, tensor.order()).product_modes {
        compact.compact_mode(mode, &touched[mode]);
    }
    compact
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fcoo;
    use tensor_core::datasets::{self, DatasetKind};

    #[test]
    fn touched_rows_are_sorted_and_distinct() {
        assert_eq!(touched_rows(&[7, 2, 7, 0, 2]), vec![0, 2, 7]);
        assert!(touched_rows(&[]).is_empty());
    }

    #[test]
    fn compact_formats_keep_flags_segments_and_output_coordinates() {
        let (tensor, _) = datasets::generate(DatasetKind::Nell1, 1_500, 3);
        let touched: Vec<Vec<u32>> = (0..tensor.order())
            .map(|m| touched_rows(tensor.mode_indices(m)))
            .collect();
        for op in [
            TensorOp::SpTtm { mode: 0 },
            TensorOp::SpMttkrp { mode: 1 },
            TensorOp::SpTtmc { mode: 2 },
        ] {
            let full = Fcoo::from_coo(&tensor, op, 8);
            let compact = Fcoo::from_coo(&compact_tensor(&tensor, op, &touched), op, 8);
            assert_eq!(compact.values, full.values, "{op:?}");
            assert_eq!(compact.bf.bytes(), full.bf.bytes(), "{op:?}");
            assert_eq!(compact.sf.bytes(), full.sf.bytes(), "{op:?}");
            assert_eq!(compact.segment_coords, full.segment_coords, "{op:?}");
            let products = &full.classification.product_modes;
            for (slot, &mode) in products.iter().enumerate() {
                assert_eq!(compact.shape[mode], touched[mode].len());
                let back: Vec<u32> = compact.product_indices[slot]
                    .iter()
                    .map(|&rank| touched[mode][rank as usize])
                    .collect();
                assert_eq!(back, full.product_indices[slot], "{op:?} mode {mode}");
            }
            for &mode in &full.classification.index_modes {
                assert_eq!(compact.shape[mode], full.shape[mode], "{op:?} mode {mode}");
            }
        }
    }
}
