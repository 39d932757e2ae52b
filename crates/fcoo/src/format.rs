//! The F-COO (flagged-coordinate) storage format (paper §IV-B, Fig. 2).
//!
//! F-COO stores, per non-zero, only the **product-mode** coordinates and the
//! value. The index-mode coordinates are compressed to a one-bit-per-non-zero
//! **bit-flag** (`bf`) marking where the index coordinates change — i.e.
//! where the computation switches to a new fiber (SpTTM) or slice
//! (SpMTTKRP/SpTTMc) — plus a one-bit-per-partition **start-flag** (`sf`)
//! telling each thread whether its first non-zero starts a new segment.
//!
//! Two auxiliary arrays complete the executable format:
//!
//! * `partition_first_segment` — the global segment ordinal at each thread
//!   partition's start, the prefix-count companion of `sf` that lets threads
//!   address their output rows without a device-wide scan over `bf`. It is
//!   uploaded with the paper's arrays.
//! * `segment_coords` — the index-mode coordinates of each segment, stored
//!   once per *segment* (not per non-zero). The kernels write one output row
//!   per segment and never read them, so they stay on the host: the typed
//!   wrappers use them to place each row at "the correct location using the
//!   indices from the index mode" (§IV-C). They are shared, not copied, by
//!   every device handle made from this format.
//!
//! [`StorageBreakdown`] reports both the paper's Table II model (product
//! indices + values + `bf` + `sf`) and the device total, which adds only the
//! partition pointers, so the storage claims stay honest.

use crate::modes::{ModeClassification, TensorOp};
use std::sync::Arc;
use tensor_core::{Idx, SparseTensorCoo, Val};

/// Bit-flag semantics: bit `nz` is **set** when non-zero `nz` starts a new
/// segment (its index-mode coordinates differ from non-zero `nz − 1`).
///
/// The paper's Fig. 2 draws the complementary encoding (1 while inside a
/// segment, flipping to 0 on a change); both carry one bit per non-zero and
/// the head-flag form is the one the segmented scan consumes directly.
#[derive(Debug, Clone, PartialEq)]
pub struct BitFlags {
    bits: Vec<u8>,
    len: usize,
}

impl BitFlags {
    /// Creates an all-clear flag array for `len` non-zeros.
    pub fn new(len: usize) -> Self {
        BitFlags {
            bits: vec![0; len.div_ceil(8)],
            len,
        }
    }

    /// Wraps pre-packed bytes as a flag array of `len` flags, without
    /// masking the padding bits of the final byte. [`BitFlags::new`] + `set`
    /// can never produce a stray padding bit, so this is how tests and
    /// corruption tooling construct the adversarial inputs the sanitizer's
    /// padded-partition lint must reject.
    pub fn from_bytes(bytes: Vec<u8>, len: usize) -> Self {
        assert_eq!(bytes.len(), len.div_ceil(8), "byte count must match len");
        BitFlags { bits: bytes, len }
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no flags.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets flag `i`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "flag index out of range");
        self.bits[i / 8] |= 1 << (i % 8);
    }

    /// Reads flag `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.bits[i / 8] & (1 << (i % 8)) != 0
    }

    /// Number of set flags (segments).
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Packed bytes (for upload and storage accounting).
    pub fn bytes(&self) -> &[u8] {
        &self.bits
    }
}

/// Byte-level storage accounting for Table II and Fig. 9.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageBreakdown {
    /// Product-mode coordinate bytes (`4 × |product modes| × nnz`).
    pub product_index_bytes: usize,
    /// Value bytes (`4 × nnz`).
    pub value_bytes: usize,
    /// Bit-flag bytes (`nnz / 8`).
    pub bf_bytes: usize,
    /// Start-flag bytes (`⌈partitions / 8⌉`, as uploaded).
    pub sf_bytes: usize,
    /// Per-partition segment-ordinal bytes.
    pub partition_ptr_bytes: usize,
}

impl StorageBreakdown {
    /// The breakdown of an F-COO payload with `nnz` non-zeros over
    /// `product_modes` gather columns in `partitions` thread partitions,
    /// from the sizes alone: what [`Fcoo::storage`] reports for such a
    /// format, before it is built.
    pub(crate) fn of(product_modes: usize, nnz: usize, partitions: usize) -> Self {
        StorageBreakdown {
            product_index_bytes: product_modes * nnz * 4,
            value_bytes: nnz * 4,
            bf_bytes: nnz.div_ceil(8),
            sf_bytes: partitions.div_ceil(8),
            partition_ptr_bytes: partitions * 4,
        }
    }

    /// The bytes the paper's Table II formula counts:
    /// `(4·|product| + 4 + 1/8 + 1/(8·threadlen)) × nnz`.
    pub fn paper_model_bytes(&self) -> usize {
        self.product_index_bytes + self.value_bytes + self.bf_bytes + self.sf_bytes
    }

    /// All bytes of the device-resident format: exactly what
    /// [`crate::FcooDevice::upload`] allocates. The segment coordinates stay
    /// on the host and are not counted.
    pub fn total_bytes(&self) -> usize {
        self.paper_model_bytes() + self.partition_ptr_bytes
    }
}

/// Evaluates the Table II closed-form cost for F-COO in bytes.
pub fn table2_fcoo_bytes(product_modes: usize, nnz: usize, threadlen: usize) -> f64 {
    let per_nnz = 4.0 * product_modes as f64 + 4.0 + 1.0 / 8.0 + 1.0 / (8.0 * threadlen as f64);
    per_nnz * nnz as f64
}

/// Evaluates the Table II closed-form cost for COO in bytes (`4·order + 4`
/// per non-zero — `16 × nnz` for a 3-order tensor).
pub fn table2_coo_bytes(order: usize, nnz: usize) -> usize {
    (4 * order + 4) * nnz
}

/// A sparse tensor preprocessed into F-COO for one operation.
#[derive(Debug, Clone)]
pub struct Fcoo {
    /// The operation this instance was built for.
    pub op: TensorOp,
    /// The Table I classification that shaped the format.
    pub classification: ModeClassification,
    /// Original tensor shape.
    pub shape: Vec<usize>,
    /// Non-zeros per thread partition.
    pub threadlen: usize,
    /// `product_indices[p][nz]`: coordinate along the `p`-th product mode.
    pub product_indices: Vec<Vec<Idx>>,
    /// Non-zero values, in segment order.
    pub values: Vec<Val>,
    /// Segment head flags, one per non-zero.
    pub bf: BitFlags,
    /// Start flags, one per partition: set when the partition's first
    /// non-zero begins a new segment.
    pub sf: BitFlags,
    /// `segment_coords[m][seg]`: coordinate along the `m`-th index mode of
    /// each segment (the output sCOO coordinates). Host only.
    pub segment_coords: Arc<[Vec<Idx>]>,
    /// Global segment ordinal at the start of each partition.
    pub partition_first_segment: Vec<u32>,
}

/// The threadlen-independent part of an F-COO build: the non-zeros sorted
/// for one operation, their product-mode indices, values and segment head
/// flags, and the segments' index-mode coordinates.
///
/// Only `sf` and `partition_first_segment` depend on the partition size, so
/// a sweep over threadlens sorts once and derives each partitioning from
/// this with [`SortedFcoo::partition`] (one pass over `bf`).
#[derive(Debug, Clone)]
pub struct SortedFcoo {
    /// The operation the sort order serves.
    pub op: TensorOp,
    /// The Table I classification that shaped the sort.
    pub classification: ModeClassification,
    /// Original tensor shape.
    pub shape: Vec<usize>,
    /// `product_indices[p][nz]`: coordinate along the `p`-th product mode.
    pub product_indices: Vec<Vec<Idx>>,
    /// Non-zero values, in segment order.
    pub values: Vec<Val>,
    /// Segment head flags, one per non-zero.
    pub bf: BitFlags,
    /// `segment_coords[m][seg]`: coordinate along the `m`-th index mode of
    /// each segment.
    pub segment_coords: Arc<[Vec<Idx>]>,
}

/// The partition-size-dependent arrays of an F-COO instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    /// Start flags, one per partition.
    pub sf: BitFlags,
    /// Global segment ordinal at the start of each partition.
    pub partition_first_segment: Vec<u32>,
}

impl SortedFcoo {
    /// Sorts `tensor` for `op` (index modes leading, so equal index-mode
    /// coordinates are contiguous) and flags the segment heads: the one
    /// sort an F-COO build pays, done on the host once per mode — the paper
    /// preprocesses all modes up front and ships them to the GPU once.
    ///
    /// # Panics
    /// If the tensor is empty.
    pub fn new(tensor: &SparseTensorCoo, op: TensorOp) -> Self {
        assert!(tensor.nnz() > 0, "cannot build F-COO from an empty tensor");
        let classification = ModeClassification::classify(op, tensor.order());
        let order = classification.sort_order();
        let nnz = tensor.nnz();
        let perm: Vec<usize> = if tensor.is_sorted_by(&order) {
            (0..nnz).collect()
        } else {
            tensor.sort_permutation(&order)
        };
        let gather = |column: &[Idx]| -> Vec<Idx> { perm.iter().map(|&i| column[i]).collect() };
        let index_columns: Vec<Vec<Idx>> = classification
            .index_modes
            .iter()
            .map(|&m| gather(tensor.mode_indices(m)))
            .collect();

        let mut bf = BitFlags::new(nnz);
        let mut segment_coords: Vec<Vec<Idx>> = vec![Vec::new(); index_columns.len()];
        for nz in 0..nnz {
            let is_head = nz == 0 || index_columns.iter().any(|c| c[nz] != c[nz - 1]);
            if is_head {
                bf.set(nz);
                for (coords, column) in segment_coords.iter_mut().zip(&index_columns) {
                    coords.push(column[nz]);
                }
            }
        }

        let values = tensor.values();
        SortedFcoo {
            op,
            shape: tensor.shape().to_vec(),
            product_indices: classification
                .product_modes
                .iter()
                .map(|&m| gather(tensor.mode_indices(m)))
                .collect(),
            values: perm.iter().map(|&i| values[i]).collect(),
            bf,
            segment_coords: segment_coords.into(),
            classification,
        }
    }

    /// Number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of segments (output fibers/slices): the same at every
    /// threadlen.
    pub fn segments(&self) -> usize {
        self.segment_coords
            .first()
            .map_or(usize::from(self.nnz() > 0), Vec::len)
    }

    /// The start flags and partition pointers of `threadlen`-non-zero
    /// partitions.
    ///
    /// # Panics
    /// If `threadlen` is zero.
    pub fn partition(&self, threadlen: usize) -> Partitioning {
        assert!(threadlen > 0, "threadlen must be positive");
        let nnz = self.nnz();
        let partitions = nnz.div_ceil(threadlen);
        let mut sf = BitFlags::new(partitions);
        let mut partition_first_segment = Vec::with_capacity(partitions);
        let mut heads_before = 0u32;
        for p in 0..partitions {
            let start = p * threadlen;
            partition_first_segment.push(heads_before);
            if self.bf.get(start) {
                sf.set(p);
            }
            let end = ((p + 1) * threadlen).min(nnz);
            for nz in start..end {
                if self.bf.get(nz) {
                    heads_before += 1;
                }
            }
        }
        Partitioning {
            sf,
            partition_first_segment,
        }
    }

    /// BF-COO's per-run distinct-row counts ([`crate::bucket_counts`]):
    /// its runs are aligned 32-non-zero spans, the same at every
    /// threadlen.
    pub fn bucket_counts(&self) -> Vec<Vec<u32>> {
        crate::bfcoo::run_distinct_counts(&self.product_indices)
    }

    /// The F-COO instance at `threadlen`, copying the shared arrays.
    pub fn fcoo(&self, threadlen: usize) -> Fcoo {
        self.clone().into_fcoo(threadlen)
    }

    /// The F-COO instance at `threadlen`, moving the shared arrays.
    pub fn into_fcoo(self, threadlen: usize) -> Fcoo {
        let Partitioning {
            sf,
            partition_first_segment,
        } = self.partition(threadlen);
        Fcoo {
            op: self.op,
            classification: self.classification,
            shape: self.shape,
            threadlen,
            product_indices: self.product_indices,
            values: self.values,
            bf: self.bf,
            sf,
            segment_coords: self.segment_coords,
            partition_first_segment,
        }
    }
}

impl Fcoo {
    /// Preprocesses `tensor` for `op` with the given partition size: one
    /// [`SortedFcoo`] sort, partitioned at `threadlen`.
    ///
    /// # Panics
    /// If `threadlen` is zero or the tensor is empty.
    pub fn from_coo(tensor: &SparseTensorCoo, op: TensorOp, threadlen: usize) -> Self {
        assert!(threadlen > 0, "threadlen must be positive");
        SortedFcoo::new(tensor, op).into_fcoo(threadlen)
    }

    /// Number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of segments (output fibers/slices).
    pub fn segments(&self) -> usize {
        self.segment_coords
            .first()
            .map_or(usize::from(self.nnz() > 0), Vec::len)
    }

    /// Number of thread partitions.
    pub fn partitions(&self) -> usize {
        self.partition_first_segment.len()
    }

    /// Byte accounting of this instance.
    pub fn storage(&self) -> StorageBreakdown {
        StorageBreakdown {
            product_index_bytes: self.product_indices.len() * self.nnz() * 4,
            value_bytes: self.nnz() * 4,
            bf_bytes: self.bf.bytes().len(),
            sf_bytes: self.sf.bytes().len(),
            partition_ptr_bytes: self.partitions() * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 12-non-zero tensor of the paper's Fig. 2 (1-based there).
    fn figure2_tensor() -> SparseTensorCoo {
        let entries: Vec<(Vec<Idx>, Val)> = vec![
            (vec![0, 0, 0], 1.0),
            (vec![0, 0, 1], 2.0),
            (vec![0, 0, 2], 3.0),
            (vec![0, 0, 3], 4.0),
            (vec![0, 0, 4], 5.0),
            (vec![1, 0, 0], 6.0),
            (vec![1, 0, 1], 7.0),
            (vec![1, 0, 2], 8.0),
            (vec![1, 0, 3], 9.0),
            (vec![1, 1, 0], 10.0),
            (vec![1, 1, 1], 11.0),
            (vec![1, 1, 2], 12.0),
        ];
        SparseTensorCoo::from_entries(vec![2, 2, 5], &entries)
    }

    #[test]
    fn figure2_spttm_flags() {
        // SpTTM mode-3: index modes (i, j); segments are the three fibers
        // (0,0), (1,0), (1,1) with lengths 5, 4, 3.
        let f = Fcoo::from_coo(&figure2_tensor(), TensorOp::SpTtm { mode: 2 }, 4);
        assert_eq!(f.nnz(), 12);
        assert_eq!(f.segments(), 3);
        let heads: Vec<bool> = (0..12).map(|i| f.bf.get(i)).collect();
        assert_eq!(
            heads,
            vec![
                true, false, false, false, false, // fiber (0,0), 5 nnz
                true, false, false, false, // fiber (1,0), 4 nnz
                true, false, false, // fiber (1,1), 3 nnz
            ]
        );
        // Product-mode (k) indices are kept verbatim: Fig. 2(b) column 3.
        assert_eq!(f.product_indices.len(), 1);
        assert_eq!(
            f.product_indices[0],
            vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 0, 1, 2]
        );
    }

    #[test]
    fn figure2_spttm_start_flags() {
        // threadlen 4 → partitions start at nnz 0, 4, 8. Fig. 2(b):
        // sf = [1, 1, 0] wait — the figure shows sf[2]=1 for SpTTM because
        // nnz 8 (value 9) continues fiber (1,0)... nnz 8 is the 9th entry,
        // value 9, inside fiber (1,0) → sf[2]=0? The paper's figure marks
        // sf[2]=1 for (b); our head-flag derivation gives the semantics the
        // scan needs: partition 2 begins mid-segment.
        let f = Fcoo::from_coo(&figure2_tensor(), TensorOp::SpTtm { mode: 2 }, 4);
        assert_eq!(f.partitions(), 3);
        assert!(f.sf.get(0));
        assert!(!f.sf.get(1)); // nnz 4 (value 5) continues fiber (0,0)
        assert!(!f.sf.get(2)); // nnz 8 (value 9) continues fiber (1,0)
        assert_eq!(f.partition_first_segment, vec![0, 1, 2]);
    }

    #[test]
    fn figure2_spmttkrp_flags() {
        // SpMTTKRP mode-1: index mode i; segments are slices i=0 (5 nnz) and
        // i=1 (7 nnz); Fig. 2(c) keeps product indices j and k.
        let f = Fcoo::from_coo(&figure2_tensor(), TensorOp::SpMttkrp { mode: 0 }, 4);
        assert_eq!(f.segments(), 2);
        let heads: Vec<usize> = (0..12).filter(|&i| f.bf.get(i)).collect();
        assert_eq!(heads, vec![0, 5]);
        assert_eq!(f.product_indices.len(), 2);
        // Segment coordinates are the slice indices.
        assert_eq!(*f.segment_coords, [vec![0, 1]]);
        // sf: partition 0 starts slice 0; partitions 1 and 2 continue.
        assert!(f.sf.get(0));
        assert!(!f.sf.get(1));
        assert!(!f.sf.get(2));
    }

    #[test]
    fn unsorted_input_is_sorted_during_preprocessing() {
        let mut entries: Vec<(Vec<Idx>, Val)> = figure2_tensor().iter().collect();
        entries.reverse();
        let shuffled = SparseTensorCoo::from_entries(vec![2, 2, 5], &entries);
        let a = Fcoo::from_coo(&shuffled, TensorOp::SpTtm { mode: 2 }, 4);
        let b = Fcoo::from_coo(&figure2_tensor(), TensorOp::SpTtm { mode: 2 }, 4);
        assert_eq!(a.product_indices, b.product_indices);
        assert_eq!(a.values, b.values);
        assert_eq!(a.bf, b.bf);
    }

    #[test]
    fn segment_count_matches_distinct_index_coords() {
        let (tensor, _) = tensor_core::datasets::generate(tensor_core::DatasetKind::Nell2, 3000, 5);
        for mode in 0..3 {
            let f = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode }, 8);
            assert_eq!(f.segments(), tensor.count_distinct(&[mode]));
            let t = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode }, 8);
            let index_modes: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
            assert_eq!(t.segments(), tensor.count_distinct(&index_modes));
        }
    }

    #[test]
    fn head_count_equals_segment_count() {
        let (tensor, _) =
            tensor_core::datasets::generate(tensor_core::DatasetKind::Delicious, 2000, 6);
        let f = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 1 }, 16);
        assert_eq!(f.bf.count_ones(), f.segments());
    }

    #[test]
    fn partition_first_segment_is_consistent_with_bf() {
        let (tensor, _) = tensor_core::datasets::generate(tensor_core::DatasetKind::Nell2, 4000, 7);
        let f = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 1 }, 8);
        let mut heads = 0u32;
        for p in 0..f.partitions() {
            assert_eq!(f.partition_first_segment[p], heads);
            let start = p * f.threadlen;
            let end = ((p + 1) * f.threadlen).min(f.nnz());
            for nz in start..end {
                if f.bf.get(nz) {
                    heads += 1;
                }
            }
        }
        assert_eq!(heads as usize, f.segments());
    }

    #[test]
    fn storage_matches_table_ii_formula() {
        let (tensor, _) = tensor_core::datasets::generate(tensor_core::DatasetKind::Nell2, 8192, 8);
        let nnz = tensor.nnz();
        // SpTTM: one product mode → 8 bytes/nnz core.
        let spttm = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 2 }, 8);
        let breakdown = spttm.storage();
        let formula = table2_fcoo_bytes(1, nnz, 8);
        let model = breakdown.paper_model_bytes() as f64;
        assert!(
            (model - formula).abs() <= 8.0,
            "model {model} vs formula {formula}"
        );
        // SpMTTKRP: two product modes → 12 bytes/nnz core.
        let mttkrp = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        let formula = table2_fcoo_bytes(2, nnz, 8);
        let model = mttkrp.storage().paper_model_bytes() as f64;
        assert!((model - formula).abs() <= 8.0);
        // F-COO is smaller than COO.
        assert!(breakdown.total_bytes() < table2_coo_bytes(3, nnz));
    }

    /// Every field of two F-COO instances, values by bit pattern.
    fn assert_same_fcoo(a: &Fcoo, b: &Fcoo, label: &str) {
        assert_eq!(a.op, b.op, "{label}");
        assert_eq!(a.classification, b.classification, "{label}");
        assert_eq!(a.shape, b.shape, "{label}");
        assert_eq!(a.threadlen, b.threadlen, "{label}");
        assert_eq!(a.product_indices, b.product_indices, "{label}");
        let bits = |v: &[Val]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.values), bits(&b.values), "{label}");
        assert_eq!(a.bf, b.bf, "{label}");
        assert_eq!(a.sf, b.sf, "{label}");
        assert_eq!(a.segment_coords, b.segment_coords, "{label}");
        assert_eq!(
            a.partition_first_segment, b.partition_first_segment,
            "{label}"
        );
    }

    #[test]
    fn every_threadlen_derived_from_one_sort_equals_a_fresh_build() {
        let order3 = tensor_core::datasets::generate(tensor_core::DatasetKind::Nell1, 700, 3).0;
        let order4 = tensor_core::datasets::generate_norder(&[12, 9, 14, 7], 500, 0.6, 4);
        for tensor in [&order3, &order4] {
            for mode in 0..tensor.order() {
                for op in [
                    TensorOp::SpTtm { mode },
                    TensorOp::SpMttkrp { mode },
                    TensorOp::SpTtmc { mode },
                ] {
                    let sorted = SortedFcoo::new(tensor, op);
                    let buckets = sorted.bucket_counts();
                    for threadlen in 1..=33 {
                        let label = format!("order {} {op:?} T{threadlen}", tensor.order());
                        let fresh = Fcoo::from_coo(tensor, op, threadlen);
                        let derived = sorted.fcoo(threadlen);
                        assert_same_fcoo(&derived, &fresh, &label);
                        let partitioning = sorted.partition(threadlen);
                        assert_eq!(partitioning.sf, fresh.sf, "{label}");
                        let fresh_bf = crate::BfCoo::from_coo(tensor, op, threadlen);
                        assert_same_fcoo(&derived, &fresh_bf.base, &label);
                        assert_eq!(buckets, fresh_bf.buckets, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn bitflags_basics() {
        let mut flags = BitFlags::new(17);
        assert_eq!(flags.len(), 17);
        flags.set(0);
        flags.set(8);
        flags.set(16);
        assert!(flags.get(0) && flags.get(8) && flags.get(16));
        assert!(!flags.get(1) && !flags.get(15));
        assert_eq!(flags.count_ones(), 3);
        assert_eq!(flags.bytes().len(), 3);
    }

    #[test]
    #[should_panic(expected = "flag index out of range")]
    fn bitflags_bounds_checked() {
        let mut flags = BitFlags::new(4);
        flags.set(4);
    }

    #[test]
    #[should_panic(expected = "empty tensor")]
    fn from_coo_rejects_empty() {
        let tensor = SparseTensorCoo::new(vec![2, 2, 2]);
        let _ = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 0 }, 8);
    }
}
