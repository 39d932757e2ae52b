//! Chunk-at-a-time execution with bit-exact cross-chunk accumulation.
//!
//! The invariant that makes streaming exact: chunks split on partition
//! boundaries, so inside a chunk the unified kernel behaves exactly as it
//! would in-core over the same non-zeros. The only cross-chunk state is a
//! **carried segment** — a segment whose non-zeros span the boundary. Its
//! continuing chunk sees no head for it, so the kernel accumulates it with
//! atomic adds into the output row; seeding that row with the running
//! partial sum before the launch extends the in-core left-to-right fold
//! `((0 + a) + b) + …` with identical association, hence identical bits
//! (−0.0 and rounding included). Segments fully inside one chunk take the
//! same exclusive-write or atomic path they would in-core.
//!
//! Every chunk writes a fresh device buffer and the host [`Accumulator`]
//! is updated only after the chunk is accepted — a faulted chunk attempt
//! is discarded and re-streamed without double-accumulation, and completed
//! chunks never re-run (the serve layer's per-chunk retry).

use fcoo::chunk::{self, ChunkDescriptor, ChunkPlan};
use fcoo::{AnyFormatDevice, Fcoo, FormatKind, LaunchConfig, TensorOp};
use gpu_sim::{GpuDevice, KernelStats, OutOfMemory};
use tensor_core::DenseMatrix;

/// Host-side accumulator for a chunked job's output: one row per
/// **global segment** for every operation, the unified kernel's output
/// layout. A chunk's local segment `s` is global segment `seg_base + s`,
/// and distinct local segments are distinct rows — so absorbing a chunk is
/// a plain row overwrite.
#[derive(Debug, Clone)]
pub struct Accumulator {
    values: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl Accumulator {
    /// An all-zero accumulator sized for `fcoo`'s segments with `cols`
    /// output columns (the rank, or `Π R_p` for SpTTMc).
    pub fn for_op(fcoo: &Fcoo, cols: usize) -> Self {
        let rows = fcoo.segments();
        Accumulator {
            values: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Output rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Consumes the accumulator into the final row-major output.
    pub fn into_values(self) -> Vec<f32> {
        self.values
    }

    /// Host image of the chunk's device output buffer at launch, one row
    /// per local segment: zeros, except the carried-in segment's row (the
    /// chunk's first) which is seeded with the running partial sum.
    pub fn seed_image(&self, desc: &ChunkDescriptor) -> Vec<f32> {
        let cols = self.cols;
        let mut image = vec![0.0; desc.segments * cols];
        if desc.carry_in {
            let carried = desc.seg_base * cols;
            image[..cols].copy_from_slice(&self.values[carried..carried + cols]);
        }
        image
    }

    /// Folds an accepted chunk's device output into the accumulator: each
    /// local segment's row overwrites its global row (the carried row was
    /// seeded, so overwrite preserves the running fold).
    pub fn absorb(&mut self, desc: &ChunkDescriptor, out: &[f32]) {
        let (cols, base) = (self.cols, desc.seg_base * self.cols);
        let len = desc.segments * cols;
        self.values[base..base + len].copy_from_slice(&out[..len]);
    }

    /// Bytes the chunk's finished rows move device→host.
    pub fn d2h_bytes(&self, desc: &ChunkDescriptor) -> usize {
        desc.segments * self.cols * 4
    }
}

/// Output columns `fcoo`'s operation produces with these factors.
pub fn output_cols(fcoo: &Fcoo, factors: &[DenseMatrix]) -> usize {
    match fcoo.op {
        TensorOp::SpTtm { .. } => factors[0].cols(),
        TensorOp::SpMttkrp { .. } => factors[fcoo.classification.product_modes[0]].cols(),
        TensorOp::SpTtmc { .. } => factors.iter().map(DenseMatrix::cols).product(),
    }
}

/// Where a chunk's format comes from when it launches.
pub enum ChunkFormat<'a> {
    /// A format already on the device: the whole format as one chunk, with
    /// nothing carried in or out.
    Resident(&'a AnyFormatDevice),
    /// A chunk-local payload, uploaded as a `kind` format for each launch
    /// and freed after it. The format's schedule metadata (BF-COO's
    /// buckets, a pure function of the chunk-local coordinate stream) is
    /// derived from the chunk on upload.
    Upload(FormatKind, &'a Fcoo),
}

/// Runs one chunk's unified kernel into a buffer pre-loaded with `seed`
/// and reads the buffer back.
///
/// `factors` are listed as [`TensorOp::factor_modes`] says: `[U]` for
/// SpTTM, one matrix per tensor mode for SpMTTKRP, one per product mode
/// (ascending) for SpTTMc. The output buffer and an uploaded chunk's
/// format are freed on return — only the factors persist across chunks.
pub fn run_chunk(
    device: &GpuDevice,
    format: &ChunkFormat<'_>,
    factors: &[&fcoo::DeviceMatrix],
    cfg: &LaunchConfig,
    seed: &[f32],
) -> Result<(Vec<f32>, KernelStats), OutOfMemory> {
    let uploaded;
    let format = match format {
        ChunkFormat::Resident(format) => *format,
        ChunkFormat::Upload(kind, chunk) => {
            uploaded = AnyFormatDevice::upload_as(device.memory(), *kind, chunk)?;
            &uploaded
        }
    };
    let out = device.memory().alloc_from_slice(seed)?;
    let stats = format.launch_into(device, factors, cfg, &out);
    Ok((out.into_vec(), stats))
}

/// One chunk's placed intervals on the three pipeline streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkSchedule {
    /// Chunk ordinal in stream order.
    pub index: usize,
    /// H2D interval `[start, end)` in µs.
    pub h2d: (f64, f64),
    /// Kernel interval `[start, end)` in µs.
    pub kernel: (f64, f64),
    /// D2H interval `[start, end)` in µs.
    pub d2h: (f64, f64),
}

/// Per-chunk byte and time accounting of one streamed execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkReport {
    /// Chunk ordinal.
    pub index: usize,
    /// Non-zeros executed.
    pub nnz: usize,
    /// Chunk-local format bytes moved host→device.
    pub h2d_bytes: usize,
    /// Finished output-row bytes moved device→host.
    pub d2h_bytes: usize,
    /// Simulated kernel time for the chunk.
    pub kernel_us: f64,
}

/// Everything one chunked execution produced.
#[derive(Debug, Clone)]
pub struct ChunkedRun {
    /// Final output, row-major (`rows × cols`), one row per segment for
    /// every operation. Bit-exact with the in-core kernel's output buffer.
    pub values: Vec<f32>,
    /// Output rows: the format's segments.
    pub rows: usize,
    /// Output columns.
    pub cols: usize,
    /// Per-chunk accounting, in stream order.
    pub chunks: Vec<ChunkReport>,
    /// Merged kernel statistics across chunks.
    pub stats: KernelStats,
}

/// Streams `fcoo` through `plan` on `device` as a `kind` format and
/// returns the accumulated output. `factors` are host matrices in the
/// [`run_chunk`] convention; they are uploaded once and shared by every
/// chunk. Every chunk runs through [`run_chunk`], so a BF-COO stream
/// rebuilds each chunk's bucket metadata locally while the carry-row
/// accumulation stays format-independent (the bucketed schedule permutes
/// gathers within a thread, never the segment fold order, so outputs are
/// bit-exact across formats).
pub fn run_chunked(
    device: &GpuDevice,
    kind: FormatKind,
    fcoo: &Fcoo,
    plan: &ChunkPlan,
    factors: &[DenseMatrix],
    cfg: &LaunchConfig,
) -> Result<ChunkedRun, OutOfMemory> {
    let cols = output_cols(fcoo, factors);
    let uploaded: Vec<fcoo::DeviceMatrix> = factors
        .iter()
        .map(|f| fcoo::DeviceMatrix::upload(device.memory(), f))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&fcoo::DeviceMatrix> = uploaded.iter().collect();
    let mut acc = Accumulator::for_op(fcoo, cols);
    let mut reports = Vec::with_capacity(plan.len());
    let mut stats = KernelStats::default();
    let product_modes = fcoo.product_indices.len();
    for desc in &plan.chunks {
        let chunk = chunk::extract(fcoo, desc);
        let seed = acc.seed_image(desc);
        let format = ChunkFormat::Upload(kind, &chunk);
        let (out, chunk_stats) = run_chunk(device, &format, &refs, cfg, &seed)?;
        acc.absorb(desc, &out);
        reports.push(ChunkReport {
            index: desc.index,
            nnz: desc.nnz,
            h2d_bytes: chunk.storage().total_bytes() + kind.metadata_bytes(desc.nnz, product_modes),
            d2h_bytes: acc.d2h_bytes(desc),
            kernel_us: chunk_stats.time_us,
        });
        stats.merge(&chunk_stats);
    }
    let rows = acc.rows();
    Ok(ChunkedRun {
        values: acc.into_values(),
        rows,
        cols,
        chunks: reports,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcoo::{DeviceMatrix, FcooDevice};
    use tensor_core::datasets::{self, DatasetKind};

    /// Small enough that grid_x·columns ≤ 8 blocks: the simulator runs all
    /// blocks on one worker chunk, so results are strictly deterministic
    /// and bit-comparable across runs.
    const NNZ: usize = 600;
    const RANK: usize = 4;
    const THREADLEN: usize = 8;

    fn tensor() -> tensor_core::SparseTensorCoo {
        datasets::generate(DatasetKind::Nell2, NNZ, 17).0
    }

    fn factor(rows: usize, seed: u64) -> DenseMatrix {
        DenseMatrix::random(rows, RANK, seed)
    }

    /// Bits of a chunked run's segment rows placed at their `shape[mode]`
    /// coordinates: the typed wrappers' dense result.
    fn placed_bits(run: &ChunkedRun, f: &Fcoo) -> Vec<u32> {
        let rows = DenseMatrix::from_vec(run.rows, run.cols, run.values.clone());
        fcoo::scatter_rows(&rows, &f.segment_coords[0], f.shape[f.op.mode()])
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn chunked_spmttkrp_is_bit_exact_with_in_core() {
        let t = tensor();
        let f = Fcoo::from_coo(&t, TensorOp::SpMttkrp { mode: 0 }, THREADLEN);
        let factors: Vec<DenseMatrix> = (0..3)
            .map(|m| factor(t.shape()[m], 40 + m as u64))
            .collect();
        let device = GpuDevice::titan_x();
        let format = FcooDevice::upload(device.memory(), &f).unwrap();
        let dev_factors: Vec<DeviceMatrix> = factors
            .iter()
            .map(|h| DeviceMatrix::upload(device.memory(), h).unwrap())
            .collect();
        let refs: Vec<&DeviceMatrix> = dev_factors.iter().collect();
        let cfg = LaunchConfig::default();
        let (reference, _) = fcoo::spmttkrp(&device, &format, &refs, &cfg).unwrap();

        let plan = chunk::split(&f, 2048);
        assert!(plan.len() >= 4, "budget must force a real pipeline");
        let streaming_device = GpuDevice::titan_x();
        let run = run_chunked(
            &streaming_device,
            FormatKind::Fcoo,
            &f,
            &plan,
            &factors,
            &cfg,
        )
        .unwrap();
        assert_eq!(run.rows, f.segments());
        assert_eq!(run.cols, reference.cols());
        let ref_bits: Vec<u32> = reference.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            ref_bits,
            placed_bits(&run, &f),
            "chunked result diverged bitwise"
        );
    }

    #[test]
    fn chunked_spttm_is_bit_exact_with_in_core() {
        let t = tensor();
        let f = Fcoo::from_coo(&t, TensorOp::SpTtm { mode: 2 }, THREADLEN);
        let u = factor(t.shape()[2], 77);
        let device = GpuDevice::titan_x();
        let format = FcooDevice::upload(device.memory(), &f).unwrap();
        let du = DeviceMatrix::upload(device.memory(), &u).unwrap();
        let cfg = LaunchConfig::default();
        let (reference, _) = fcoo::spttm(&device, &format, &du, &cfg).unwrap();

        let plan = chunk::split(&f, 1536);
        assert!(plan.len() >= 4);
        let streaming_device = GpuDevice::titan_x();
        let run = run_chunked(
            &streaming_device,
            FormatKind::Fcoo,
            &f,
            &plan,
            std::slice::from_ref(&u),
            &cfg,
        )
        .unwrap();
        let ref_bits: Vec<u32> = reference.values().iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u32> = run.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ref_bits, got_bits);
    }

    #[test]
    fn chunked_spttmc_is_bit_exact_with_in_core() {
        let t = tensor();
        let f = Fcoo::from_coo(&t, TensorOp::SpTtmc { mode: 0 }, THREADLEN);
        // Keep Π R_p small so blocks = grid_x · 4 stays deterministic.
        let a = DenseMatrix::random(t.shape()[1], 2, 91);
        let b = DenseMatrix::random(t.shape()[2], 2, 92);
        let device = GpuDevice::titan_x();
        let format = FcooDevice::upload(device.memory(), &f).unwrap();
        let da = DeviceMatrix::upload(device.memory(), &a).unwrap();
        let db = DeviceMatrix::upload(device.memory(), &b).unwrap();
        let cfg = LaunchConfig::default();
        let (reference, _) = fcoo::spttmc_norder(&device, &format, &[&da, &db], &cfg).unwrap();

        let plan = chunk::split(&f, 2048);
        assert!(plan.len() >= 3);
        let streaming_device = GpuDevice::titan_x();
        let run = run_chunked(
            &streaming_device,
            FormatKind::Fcoo,
            &f,
            &plan,
            &[a, b],
            &cfg,
        )
        .unwrap();
        let ref_bits: Vec<u32> = reference.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ref_bits, placed_bits(&run, &f));
    }

    #[test]
    fn bfcoo_chunked_is_bit_exact_with_in_core_and_with_fcoo_chunks() {
        let t = tensor();
        let f = Fcoo::from_coo(&t, TensorOp::SpMttkrp { mode: 0 }, THREADLEN);
        let factors: Vec<DenseMatrix> = (0..3)
            .map(|m| factor(t.shape()[m], 40 + m as u64))
            .collect();
        let device = GpuDevice::titan_x();
        let format = FcooDevice::upload(device.memory(), &f).unwrap();
        let dev_factors: Vec<DeviceMatrix> = factors
            .iter()
            .map(|h| DeviceMatrix::upload(device.memory(), h).unwrap())
            .collect();
        let refs: Vec<&DeviceMatrix> = dev_factors.iter().collect();
        let cfg = LaunchConfig::default();
        let (reference, _) = fcoo::spmttkrp(&device, &format, &refs, &cfg).unwrap();
        let ref_bits: Vec<u32> = reference.data().iter().map(|v| v.to_bits()).collect();

        let plan = chunk::split(&f, 2048);
        assert!(plan.len() >= 4, "budget must force a real pipeline");
        let bf_run = run_chunked(
            &GpuDevice::titan_x(),
            FormatKind::BfCoo,
            &f,
            &plan,
            &factors,
            &cfg,
        )
        .unwrap();
        let bf_bits = placed_bits(&bf_run, &f);
        assert_eq!(ref_bits, bf_bits, "BF-COO chunked diverged from in-core");

        let fcoo_run = run_chunked(
            &GpuDevice::titan_x(),
            FormatKind::Fcoo,
            &f,
            &plan,
            &factors,
            &cfg,
        )
        .unwrap();
        let fcoo_bits = placed_bits(&fcoo_run, &f);
        assert_eq!(bf_bits, fcoo_bits, "formats diverged on the chunked path");
        // BF-COO chunks stream the extra bucket metadata host→device.
        for (bf, fc) in bf_run.chunks.iter().zip(&fcoo_run.chunks) {
            assert_eq!(
                bf.h2d_bytes,
                fc.h2d_bytes + FormatKind::BfCoo.metadata_bytes(fc.nnz, f.product_indices.len()),
                "chunk {} h2d accounting",
                fc.index
            );
        }
    }

    #[test]
    fn retrying_a_chunk_does_not_double_accumulate() {
        let t = tensor();
        let f = Fcoo::from_coo(&t, TensorOp::SpMttkrp { mode: 1 }, THREADLEN);
        let factors: Vec<DenseMatrix> = (0..3)
            .map(|m| factor(t.shape()[m], 60 + m as u64))
            .collect();
        let cfg = LaunchConfig::default();
        let plan = chunk::split(&f, 2048);
        assert!(plan.len() >= 2);
        // Serving retries chunks in the plan's format, so every format's
        // retry must be idempotent.
        for kind in FormatKind::ALL {
            let device = GpuDevice::titan_x();
            let uploaded: Vec<DeviceMatrix> = factors
                .iter()
                .map(|h| DeviceMatrix::upload(device.memory(), h).unwrap())
                .collect();
            let refs: Vec<&DeviceMatrix> = uploaded.iter().collect();
            let cols = output_cols(&f, &factors);
            let mut acc = Accumulator::for_op(&f, cols);
            for desc in &plan.chunks {
                let chunk_fcoo = chunk::extract(&f, desc);
                let format = ChunkFormat::Upload(kind, &chunk_fcoo);
                let seed = acc.seed_image(desc);
                // First attempt: discarded without absorbing (a faulted chunk).
                let (_discarded, _) = run_chunk(&device, &format, &refs, &cfg, &seed).unwrap();
                // Retry from the same seed; only this one is absorbed.
                let (out, _) = run_chunk(&device, &format, &refs, &cfg, &seed).unwrap();
                acc.absorb(desc, &out);
            }
            let clean =
                run_chunked(&GpuDevice::titan_x(), kind, &f, &plan, &factors, &cfg).unwrap();
            let a: Vec<u32> = acc.into_values().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = clean.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "{kind}: per-chunk retry must be idempotent");
        }
    }
}
