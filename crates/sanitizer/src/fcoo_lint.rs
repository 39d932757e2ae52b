//! Static invariant lint for preprocessed F-COO tensors (paper §IV-A).
//!
//! [`Fcoo`] exposes its flag vectors publicly so kernels and serializers can
//! reach them; this lint is the single place that states what a *valid*
//! instance looks like. [`check_fcoo`] validates, in dependency order so a
//! corrupt tensor never panics the checker:
//!
//! 1. vector arities — one product-index column per product mode, one
//!    segment-coordinate column per index mode, `nnz` entries each;
//! 2. flag lengths — `bf` has one bit per non-zero, `sf` and
//!    `partition_first_segment` one entry per partition
//!    (`⌈nnz / threadlen⌉`);
//! 3. the first non-zero starts a segment (`bf[0]` set);
//! 4. segment-head count equals the segment-coordinate table length;
//! 5. `sf[p]` mirrors `bf[p · threadlen]` — the start flag is exactly "my
//!    partition's first non-zero is a segment head";
//! 6. `partition_first_segment[p]` counts the heads before the partition
//!    (so it is monotone and ends consistent with the total);
//! 7. every stored coordinate is inside the tensor shape;
//! 8. the packed padding bits past the last real flag are clear. When
//!    `nnz % threadlen != 0` the final partition is padded — the kernels'
//!    segment walk clamps to `nnz`, but the start-flag of a *subsequent*
//!    launch config or a `count_ones`-based consumer would observe ghost
//!    segment heads if stray bits sat beyond `nnz` (in `bf`) or beyond the
//!    partition count (in `sf`). Flag construction via `set` cannot produce
//!    them; serialization or hand-built flags can.
//!
//! [`check_chunk_plan`] extends the lint to out-of-core chunk plans: every
//! chunk boundary must be partition-aligned, its carry flags must mirror
//! the parent format's start flags, and the per-chunk segment windows must
//! chain exactly through `partition_first_segment`.

use crate::{Finding, Pass, Report, Severity};
use fcoo::chunk::ChunkPlan;
use fcoo::Fcoo;

fn error(report: &mut Report, message: String) {
    report.findings.push(Finding {
        pass: Pass::FcooLint,
        severity: Severity::Error,
        message,
        launch: None,
        block: None,
    });
}

/// Validates the structural invariants of a preprocessed F-COO tensor.
///
/// Returns a clean report for every tensor produced by
/// [`Fcoo::from_coo`]; any corruption of the flag vectors, partition
/// pointers or coordinate tables yields error findings describing the
/// violated invariant.
pub fn check_fcoo(fcoo: &Fcoo) -> Report {
    let mut report = Report::default();
    let nnz = fcoo.values.len();

    if fcoo.threadlen == 0 {
        error(&mut report, "threadlen is zero".to_owned());
        return report;
    }
    if nnz == 0 {
        error(&mut report, "F-COO holds no non-zeros".to_owned());
        return report;
    }

    // 1. Vector arities.
    let product_modes = &fcoo.classification.product_modes;
    let index_modes = &fcoo.classification.index_modes;
    if fcoo.product_indices.len() != product_modes.len() {
        error(
            &mut report,
            format!(
                "{} product-index columns for {} product modes",
                fcoo.product_indices.len(),
                product_modes.len()
            ),
        );
    }
    for (slot, column) in fcoo.product_indices.iter().enumerate() {
        if column.len() != nnz {
            error(
                &mut report,
                format!(
                    "product-index column {slot} has {} entries, nnz is {nnz}",
                    column.len()
                ),
            );
        }
    }
    if fcoo.segment_coords.len() != index_modes.len() {
        error(
            &mut report,
            format!(
                "{} segment-coordinate columns for {} index modes",
                fcoo.segment_coords.len(),
                index_modes.len()
            ),
        );
    }

    // 2. Flag lengths. bf-dependent checks need a correctly sized bf.
    if fcoo.bf.len() != nnz {
        error(
            &mut report,
            format!(
                "bf holds {} flags, one per non-zero required (nnz {nnz})",
                fcoo.bf.len()
            ),
        );
        return report;
    }
    let partitions = nnz.div_ceil(fcoo.threadlen);
    let sf_ok = fcoo.sf.len() == partitions;
    if !sf_ok {
        error(
            &mut report,
            format!(
                "sf holds {} flags for {partitions} partitions (nnz {nnz}, threadlen {})",
                fcoo.sf.len(),
                fcoo.threadlen
            ),
        );
    }
    let pfs_ok = fcoo.partition_first_segment.len() == partitions;
    if !pfs_ok {
        error(
            &mut report,
            format!(
                "partition_first_segment holds {} entries for {partitions} partitions",
                fcoo.partition_first_segment.len()
            ),
        );
    }

    // 3. The first non-zero always begins a segment.
    if !fcoo.bf.get(0) {
        error(
            &mut report,
            "bf[0] is clear: the first non-zero must start a segment".to_owned(),
        );
    }

    // 4. Segment-head count vs. the coordinate table.
    let segments = fcoo.bf.count_ones();
    for (slot, column) in fcoo.segment_coords.iter().enumerate() {
        if column.len() != segments {
            error(
                &mut report,
                format!(
                    "segment-coordinate column {slot} has {} entries, bf marks {segments} heads",
                    column.len()
                ),
            );
        }
    }

    // 5 & 6. Start flags and partition pointers mirror bf.
    if sf_ok && pfs_ok {
        let mut heads_before = 0u32;
        for p in 0..partitions {
            let start = p * fcoo.threadlen;
            if fcoo.sf.get(p) != fcoo.bf.get(start) {
                error(
                    &mut report,
                    format!(
                        "sf[{p}] is {} but bf[{start}] is {}: start flag must mirror the \
                         partition's first bit flag",
                        fcoo.sf.get(p),
                        fcoo.bf.get(start)
                    ),
                );
            }
            if fcoo.partition_first_segment[p] != heads_before {
                error(
                    &mut report,
                    format!(
                        "partition_first_segment[{p}] is {}, but {heads_before} segment \
                         heads precede the partition",
                        fcoo.partition_first_segment[p]
                    ),
                );
            }
            let end = ((p + 1) * fcoo.threadlen).min(nnz);
            heads_before += (start..end).filter(|&nz| fcoo.bf.get(nz)).count() as u32;
        }
        if heads_before as usize != segments {
            error(
                &mut report,
                format!("bf marks {segments} heads but partition walk counted {heads_before}"),
            );
        }
    }

    // 7. Coordinates inside the shape.
    let columns: [(_, &[Vec<u32>], _); 2] = [
        ("segment coordinate", &fcoo.segment_coords, index_modes),
        ("product index", &fcoo.product_indices, product_modes),
    ];
    for (what, table, modes) in columns {
        for (slot, (column, &mode)) in table.iter().zip(modes).enumerate() {
            let Some(&size) = fcoo.shape.get(mode) else {
                error(
                    &mut report,
                    format!("{what} column {slot} maps to missing mode {mode}"),
                );
                continue;
            };
            if let Some(pos) = column.iter().position(|&c| c as usize >= size) {
                error(
                    &mut report,
                    format!(
                        "{what} column {slot} entry {pos} is {} — out of bounds for mode {mode} \
                         (size {size})",
                        column[pos]
                    ),
                );
            }
        }
    }

    // 8. Padding bits of the final (padded) partition's packed flags.
    padding_clear(&mut report, "bf", fcoo.bf.bytes(), nnz);
    padding_clear(&mut report, "sf", fcoo.sf.bytes(), partitions);

    report
}

/// Validates a chunk plan against the F-COO tensor it partitions: the
/// out-of-core executor's carry-row seeding is only correct when every
/// chunk boundary is consistent with the parent format's flags.
///
/// Checked invariants, in dependency order:
///
/// 1. chunks are indexed in order and chain without gaps — each chunk
///    starts at the partition/non-zero where its predecessor ended, the
///    first starts at zero, and the last covers the remaining partitions
///    and non-zeros;
/// 2. every chunk begins on a partition boundary
///    (`nnz_start == partition_start · threadlen`);
/// 3. each boundary's carry flag mirrors the parent's start flag: a chunk
///    may declare no incoming carry exactly when it starts at a partition
///    whose `sf` flag is set (its first non-zero opens a fresh segment);
///    otherwise its first rows continue the previous chunk's last output
///    row and `carry_in` must say so. The first chunk never carries in,
///    the last never carries out, and adjacent chunks must agree
///    (`carry_out == carry_in` across the boundary);
/// 4. segment windows chain: `seg_base` equals the parent's
///    `partition_first_segment` at the boundary minus the carried segment,
///    each successor starts `segments − carry_out` past its predecessor,
///    and the last window ends at the parent's total segment count.
pub fn check_chunk_plan(fcoo: &Fcoo, plan: &ChunkPlan) -> Report {
    let mut report = Report::default();
    let partitions = fcoo.partitions();
    let nnz = fcoo.nnz();

    if plan.chunks.is_empty() {
        error(&mut report, "chunk plan holds no chunks".to_owned());
        return report;
    }

    // 1 & 2. Ordering, chaining and partition alignment. Any violation
    // here makes the flag lookups below meaningless, so bail out early.
    let mut chained = true;
    for (i, chunk) in plan.chunks.iter().enumerate() {
        if chunk.index != i {
            error(
                &mut report,
                format!("chunk {i} carries index {}", chunk.index),
            );
            chained = false;
        }
        if chunk.nnz_start != chunk.partition_start * fcoo.threadlen {
            error(
                &mut report,
                format!(
                    "chunk {i} starts at non-zero {} but partition {} begins at \
                     non-zero {}: chunk boundaries must be partition-aligned",
                    chunk.nnz_start,
                    chunk.partition_start,
                    chunk.partition_start * fcoo.threadlen
                ),
            );
            chained = false;
        }
    }
    let first = &plan.chunks[0];
    if first.partition_start != 0 || first.nnz_start != 0 {
        error(
            &mut report,
            format!(
                "first chunk starts at partition {} / non-zero {}, not the origin",
                first.partition_start, first.nnz_start
            ),
        );
        chained = false;
    }
    for pair in plan.chunks.windows(2) {
        let (prev, next) = (&pair[0], &pair[1]);
        if next.partition_start != prev.partition_start + prev.partitions
            || next.nnz_start != prev.nnz_start + prev.nnz
        {
            error(
                &mut report,
                format!(
                    "chunk {} starts at partition {} / non-zero {}, but chunk {} \
                     ends at partition {} / non-zero {}: chunks must chain without \
                     gaps or overlap",
                    next.index,
                    next.partition_start,
                    next.nnz_start,
                    prev.index,
                    prev.partition_start + prev.partitions,
                    prev.nnz_start + prev.nnz
                ),
            );
            chained = false;
        }
    }
    let last = plan.chunks.last().expect("plan is non-empty");
    if last.partition_start + last.partitions != partitions || last.nnz_start + last.nnz != nnz {
        error(
            &mut report,
            format!(
                "last chunk ends at partition {} / non-zero {}, but the format \
                 holds {partitions} partitions / {nnz} non-zeros",
                last.partition_start + last.partitions,
                last.nnz_start + last.nnz
            ),
        );
        chained = false;
    }
    if !chained {
        return report;
    }

    // 3. Carry flags vs. the parent's start flags at each boundary.
    if first.carry_in {
        error(
            &mut report,
            "first chunk declares an incoming carry row".to_owned(),
        );
    }
    if last.carry_out {
        error(
            &mut report,
            "last chunk declares an outgoing carry row".to_owned(),
        );
    }
    for pair in plan.chunks.windows(2) {
        let (prev, next) = (&pair[0], &pair[1]);
        if prev.carry_out != next.carry_in {
            error(
                &mut report,
                format!(
                    "chunk {} carries out {} but chunk {} carries in {}: the carry \
                     row must be consistent across the boundary",
                    prev.index, prev.carry_out, next.index, next.carry_in
                ),
            );
        }
    }
    for chunk in &plan.chunks {
        if chunk.partition_start >= fcoo.sf.len() {
            continue; // length mismatches are check_fcoo's findings
        }
        let starts_fresh = fcoo.sf.get(chunk.partition_start);
        if chunk.carry_in == starts_fresh {
            error(
                &mut report,
                format!(
                    "chunk {} boundary at partition {} has sf {} but declares \
                     carry_in {}: a chunk continues the previous output row exactly \
                     when its first partition does not start a segment",
                    chunk.index, chunk.partition_start, starts_fresh, chunk.carry_in
                ),
            );
        }
    }

    // 4. Segment windows chain through the parent's partition pointers.
    for chunk in &plan.chunks {
        let Some(&heads_before) = fcoo.partition_first_segment.get(chunk.partition_start) else {
            continue;
        };
        let expected = (heads_before as usize).saturating_sub(usize::from(chunk.carry_in));
        if chunk.seg_base != expected {
            error(
                &mut report,
                format!(
                    "chunk {} window starts at segment {}, but {} segment heads \
                     precede partition {} and the carry claims {}: expected {expected}",
                    chunk.index,
                    chunk.seg_base,
                    heads_before,
                    chunk.partition_start,
                    usize::from(chunk.carry_in)
                ),
            );
        }
    }
    for pair in plan.chunks.windows(2) {
        let (prev, next) = (&pair[0], &pair[1]);
        let expected = prev.seg_base + prev.segments - usize::from(prev.carry_out);
        if next.seg_base != expected {
            error(
                &mut report,
                format!(
                    "chunk {} window starts at segment {}, but chunk {}'s window \
                     ({} segments from {}, carry_out {}) ends at {expected}",
                    next.index,
                    next.seg_base,
                    prev.index,
                    prev.segments,
                    prev.seg_base,
                    prev.carry_out
                ),
            );
        }
    }
    if last.seg_base + last.segments != fcoo.segments() {
        error(
            &mut report,
            format!(
                "last chunk's window ends at segment {}, but the format holds {}",
                last.seg_base + last.segments,
                fcoo.segments()
            ),
        );
    }

    report
}

/// Validates the bucket metadata of a BF-COO tensor on top of the base
/// F-COO invariants.
///
/// The certifier's soundness rests on the buckets being **exact**: each
/// entry must equal the distinct-row count of its aligned 32-non-zero run,
/// not merely bound it. Checked in dependency order:
///
/// 1. the embedded F-COO base passes [`check_fcoo`];
/// 2. one bucket column per product mode;
/// 3. each column holds `⌈nnz / 32⌉` entries — one per aligned run;
/// 4. every entry lies in `[1, min(32, run length)]` and equals the exact
///    distinct count of the run's product indices (recomputed from the
///    payload, which is the single source of truth —
///    [`fcoo::bucket_counts`] is deterministic, so serialization never
///    needs to persist the buckets).
pub fn check_bfcoo(bfcoo: &fcoo::BfCoo) -> Report {
    let mut report = check_fcoo(&bfcoo.base);
    if !report.is_clean() {
        return report;
    }
    let nnz = bfcoo.base.nnz();
    let product_modes = bfcoo.base.classification.product_modes.len();
    if bfcoo.buckets.len() != product_modes {
        error(
            &mut report,
            format!(
                "{} bucket columns for {product_modes} product modes",
                bfcoo.buckets.len()
            ),
        );
        return report;
    }
    let runs = nnz.div_ceil(fcoo::BUCKET_RUN);
    for (slot, column) in bfcoo.buckets.iter().enumerate() {
        if column.len() != runs {
            error(
                &mut report,
                format!(
                    "bucket column {slot} has {} entries for {runs} aligned runs (nnz {nnz})",
                    column.len()
                ),
            );
        }
    }
    if report.error_count() > 0 {
        return report;
    }
    let exact = fcoo::bucket_counts(&bfcoo.base);
    for (slot, (column, truth)) in bfcoo.buckets.iter().zip(&exact).enumerate() {
        for (run, (&stored, &want)) in column.iter().zip(truth).enumerate() {
            let run_len = fcoo::BUCKET_RUN.min(nnz - run * fcoo::BUCKET_RUN) as u32;
            if stored < 1 || stored > run_len.min(fcoo::BUCKET_RUN as u32) {
                error(
                    &mut report,
                    format!(
                        "bucket column {slot} run {run} is {stored}, outside \
                         [1, {run_len}] for a {run_len}-non-zero run"
                    ),
                );
            } else if stored != want {
                error(
                    &mut report,
                    format!(
                        "bucket column {slot} run {run} is {stored}, but the run's \
                         product indices hold {want} distinct rows — the certified \
                         gather bound would be unsound"
                    ),
                );
            }
        }
    }
    report
}

/// Checks that the packed bits beyond flag `len` in the final byte of
/// `bytes` are clear: a stray bit there is a ghost segment head inside the
/// padded tail of the final partition.
fn padding_clear(report: &mut Report, what: &str, bytes: &[u8], len: usize) {
    if len.is_multiple_of(8) {
        return;
    }
    let Some(&last) = bytes.last() else {
        return;
    };
    let stray = last & (!0u8 << (len % 8));
    if stray != 0 {
        error(
            report,
            format!(
                "{what} has set padding bits ({stray:#04x}) beyond its last flag (index {}): \
                 ghost segment heads in the padded final partition",
                len - 1
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcoo::TensorOp;
    use tensor_core::SparseTensorCoo;

    fn sample_tensor() -> SparseTensorCoo {
        let mut tensor = SparseTensorCoo::new(vec![4, 5, 6]);
        for nz in 0..23u32 {
            tensor.push(&[nz % 4, (nz * 7) % 5, (nz * 3) % 6], nz as f32 + 1.0);
        }
        tensor
    }

    #[test]
    fn constructor_tensors_are_accepted() {
        let tensor = sample_tensor();
        for threadlen in [1, 2, 4, 8, 64] {
            for op in [
                TensorOp::SpTtm { mode: 2 },
                TensorOp::SpMttkrp { mode: 0 },
                TensorOp::SpTtmc { mode: 1 },
            ] {
                let fcoo = Fcoo::from_coo(&tensor, op, threadlen);
                let report = check_fcoo(&fcoo);
                assert!(report.is_clean(), "{op:?} threadlen {threadlen}: {report}");
            }
        }
    }

    #[test]
    fn corrupted_start_flag_is_rejected() {
        let mut fcoo = Fcoo::from_coo(&sample_tensor(), TensorOp::SpMttkrp { mode: 0 }, 4);
        // Rebuild sf with partition 1's flag inverted.
        let mut sf = fcoo::BitFlags::new(fcoo.sf.len());
        for p in 0..fcoo.sf.len() {
            if fcoo.sf.get(p) != (p == 1) {
                sf.set(p);
            }
        }
        fcoo.sf = sf;
        let report = check_fcoo(&fcoo);
        assert!(report.error_count() > 0);
        assert!(
            report.findings.iter().any(|f| f.message.contains("sf[1]")),
            "{report}"
        );
    }

    #[test]
    fn cleared_first_head_is_rejected() {
        let mut fcoo = Fcoo::from_coo(&sample_tensor(), TensorOp::SpTtm { mode: 2 }, 4);
        let mut bf = fcoo::BitFlags::new(fcoo.bf.len());
        for nz in 1..fcoo.bf.len() {
            if fcoo.bf.get(nz) {
                bf.set(nz);
            }
        }
        fcoo.bf = bf;
        let report = check_fcoo(&fcoo);
        assert!(
            report.findings.iter().any(|f| f.message.contains("bf[0]")),
            "{report}"
        );
    }

    #[test]
    fn wrong_length_flags_are_rejected_without_panicking() {
        let mut fcoo = Fcoo::from_coo(&sample_tensor(), TensorOp::SpMttkrp { mode: 1 }, 4);
        fcoo.bf = fcoo::BitFlags::new(3);
        let report = check_fcoo(&fcoo);
        assert!(report.error_count() > 0);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("bf holds 3")),
            "{report}"
        );
    }

    #[test]
    fn stale_partition_pointer_is_rejected() {
        let mut fcoo = Fcoo::from_coo(&sample_tensor(), TensorOp::SpMttkrp { mode: 2 }, 4);
        assert!(fcoo.partition_first_segment.len() > 2);
        fcoo.partition_first_segment[2] += 1;
        let report = check_fcoo(&fcoo);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("partition_first_segment[2]")),
            "{report}"
        );
    }

    #[test]
    fn padding_bit_in_final_bf_byte_is_rejected() {
        // 23 nnz, threadlen 4: the final partition holds 3 live non-zeros,
        // and bf's last byte has one padding bit (bit 23). Setting it is
        // invisible to every indexed get() but corrupts count_ones-style
        // consumers — exactly the boundary the lint must cover.
        let mut fcoo = Fcoo::from_coo(&sample_tensor(), TensorOp::SpMttkrp { mode: 0 }, 4);
        assert_eq!(fcoo.nnz() % fcoo.threadlen, 3);
        let mut bytes = fcoo.bf.bytes().to_vec();
        *bytes.last_mut().expect("bf bytes") |= 1 << (fcoo.nnz() % 8);
        fcoo.bf = fcoo::BitFlags::from_bytes(bytes, fcoo.nnz());
        let report = check_fcoo(&fcoo);
        assert!(report.error_count() > 0, "{report}");
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("bf has set padding bits")),
            "{report}"
        );
    }

    #[test]
    fn padding_bit_in_final_sf_byte_is_rejected() {
        // 23 nnz, threadlen 4 → 6 partitions, so sf's last byte has two
        // padding bits. Set the topmost one.
        let mut fcoo = Fcoo::from_coo(&sample_tensor(), TensorOp::SpTtm { mode: 2 }, 4);
        let partitions = fcoo.partitions();
        assert_eq!(partitions, 6);
        let mut bytes = fcoo.sf.bytes().to_vec();
        *bytes.last_mut().expect("sf bytes") |= 1 << 7;
        fcoo.sf = fcoo::BitFlags::from_bytes(bytes, partitions);
        let report = check_fcoo(&fcoo);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("sf has set padding bits")),
            "{report}"
        );
    }

    #[test]
    fn byte_aligned_flags_have_no_padding_to_check() {
        // 24 nnz, threadlen 3 → bf len 24 and sf len 8, both byte-aligned:
        // the padding check must not fire on the (non-existent) tail.
        let mut tensor = SparseTensorCoo::new(vec![4, 5, 6]);
        for nz in 0..24u32 {
            tensor.push(&[nz % 4, (nz * 7) % 5, (nz * 3) % 6], nz as f32 + 1.0);
        }
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 1 }, 3);
        assert_eq!(fcoo.nnz() % 8, 0);
        assert_eq!(fcoo.partitions() % 8, 0);
        assert!(check_fcoo(&fcoo).is_clean());
    }

    #[test]
    fn split_chunk_plans_are_accepted() {
        let tensor = sample_tensor();
        for threadlen in [1, 2, 4] {
            let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, threadlen);
            for divisor in [1, 2, 3, 5] {
                let budget = (fcoo.storage().total_bytes() / divisor).max(1);
                let plan = fcoo::chunk::split(&fcoo, budget);
                let report = check_chunk_plan(&fcoo, &plan);
                assert!(
                    report.is_clean(),
                    "threadlen {threadlen} divisor {divisor}: {report}"
                );
            }
        }
    }

    fn multi_chunk_plan() -> (Fcoo, fcoo::chunk::ChunkPlan) {
        let fcoo = Fcoo::from_coo(&sample_tensor(), TensorOp::SpMttkrp { mode: 0 }, 4);
        let plan = fcoo::chunk::split(&fcoo, (fcoo.storage().total_bytes() / 3).max(1));
        assert!(plan.len() >= 2, "need a multi-chunk plan");
        (fcoo, plan)
    }

    #[test]
    fn inconsistent_boundary_carry_is_rejected() {
        let (fcoo, mut plan) = multi_chunk_plan();
        plan.chunks[1].carry_in = !plan.chunks[1].carry_in;
        let report = check_chunk_plan(&fcoo, &plan);
        assert!(report.error_count() > 0);
        assert!(
            report.findings.iter().any(|f| f.message.contains("carry")),
            "{report}"
        );
    }

    #[test]
    fn unaligned_chunk_boundary_is_rejected() {
        let (fcoo, mut plan) = multi_chunk_plan();
        plan.chunks[1].partition_start += 1;
        let report = check_chunk_plan(&fcoo, &plan);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("partition-aligned")
                    || f.message.contains("chain without")),
            "{report}"
        );
    }

    #[test]
    fn corrupted_segment_window_is_rejected() {
        let (fcoo, mut plan) = multi_chunk_plan();
        plan.chunks[1].seg_base += 1;
        let report = check_chunk_plan(&fcoo, &plan);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("window starts at segment")),
            "{report}"
        );
    }

    #[test]
    fn trailing_carry_out_is_rejected() {
        let (fcoo, mut plan) = multi_chunk_plan();
        let last = plan.chunks.len() - 1;
        plan.chunks[last].carry_out = true;
        let report = check_chunk_plan(&fcoo, &plan);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("outgoing carry")),
            "{report}"
        );
    }

    #[test]
    fn empty_chunk_plan_is_rejected() {
        let fcoo = Fcoo::from_coo(&sample_tensor(), TensorOp::SpTtm { mode: 2 }, 4);
        let plan = fcoo::chunk::ChunkPlan {
            budget_bytes: 0,
            chunks: Vec::new(),
        };
        let report = check_chunk_plan(&fcoo, &plan);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("no chunks")),
            "{report}"
        );
    }

    #[test]
    fn constructor_bfcoo_is_accepted() {
        let tensor = sample_tensor();
        for threadlen in [1, 4, 8] {
            for op in [
                TensorOp::SpTtm { mode: 2 },
                TensorOp::SpMttkrp { mode: 0 },
                TensorOp::SpTtmc { mode: 1 },
            ] {
                let bf = fcoo::BfCoo::from_coo(&tensor, op, threadlen);
                let report = check_bfcoo(&bf);
                assert!(report.is_clean(), "{op:?} threadlen {threadlen}: {report}");
            }
        }
    }

    #[test]
    fn inflated_bucket_count_is_rejected() {
        let mut bf = fcoo::BfCoo::from_coo(&sample_tensor(), TensorOp::SpMttkrp { mode: 0 }, 4);
        // An overcount stays a *valid bound* but is no longer exact — the
        // lint must still reject it (certificates assume exactness).
        bf.buckets[0][0] += 1;
        let report = check_bfcoo(&bf);
        assert!(report.error_count() > 0);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("distinct rows")),
            "{report}"
        );
    }

    #[test]
    fn out_of_range_bucket_count_is_rejected() {
        let mut bf = fcoo::BfCoo::from_coo(&sample_tensor(), TensorOp::SpMttkrp { mode: 0 }, 4);
        bf.buckets[0][0] = 0;
        let report = check_bfcoo(&bf);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("outside")),
            "{report}"
        );
    }

    #[test]
    fn wrong_bucket_arity_is_rejected() {
        let mut bf = fcoo::BfCoo::from_coo(&sample_tensor(), TensorOp::SpMttkrp { mode: 0 }, 4);
        bf.buckets.pop();
        let report = check_bfcoo(&bf);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("bucket columns")),
            "{report}"
        );
        let mut bf = fcoo::BfCoo::from_coo(&sample_tensor(), TensorOp::SpMttkrp { mode: 0 }, 4);
        bf.buckets[1].pop();
        let report = check_bfcoo(&bf);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("aligned runs")),
            "{report}"
        );
    }

    #[test]
    fn corrupt_base_surfaces_through_bfcoo_lint() {
        let mut bf = fcoo::BfCoo::from_coo(&sample_tensor(), TensorOp::SpTtm { mode: 2 }, 4);
        bf.base.partition_first_segment[2] += 1;
        let report = check_bfcoo(&bf);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("partition_first_segment[2]")),
            "{report}"
        );
    }

    #[test]
    fn out_of_shape_coordinate_is_rejected() {
        let mut fcoo = Fcoo::from_coo(&sample_tensor(), TensorOp::SpTtm { mode: 2 }, 4);
        fcoo.product_indices[0][5] = 1000;
        let report = check_fcoo(&fcoo);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("out of bounds")),
            "{report}"
        );
    }
}
