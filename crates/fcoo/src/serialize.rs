//! Binary serialization of preprocessed F-COO.
//!
//! Preprocessing (a full sort of the non-zeros per mode) is the expensive
//! host-side step of the unified method; the paper amortizes it by doing it
//! once before the CP iterations. This module persists the result so a
//! pipeline can preprocess once and reload across runs.
//!
//! The format is a versioned little-endian layout — no external
//! dependencies, byte-for-byte deterministic.

use crate::format::{BitFlags, Fcoo};
use crate::modes::{ModeClassification, TensorOp};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"FCOO";
const VERSION: u32 = 1;

/// Errors from decoding a serialized F-COO stream.
#[derive(Debug)]
pub enum DecodeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not an F-COO file or is structurally invalid.
    Corrupt(String),
    /// A newer or unknown format version.
    Version(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "i/o error: {e}"),
            DecodeError::Corrupt(what) => write!(f, "corrupt F-COO stream: {what}"),
            DecodeError::Version(v) => write!(f, "unsupported F-COO version {v}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> Self {
        DecodeError::Io(e)
    }
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn write_u32_slice(w: &mut impl Write, data: &[u32]) -> io::Result<()> {
    write_u64(w, data.len() as u64)?;
    for &v in data {
        write_u32(w, v)?;
    }
    Ok(())
}

fn read_u32_vec(r: &mut impl Read, cap: u64) -> Result<Vec<u32>, DecodeError> {
    let len = read_u64(r)?;
    if len > cap {
        return Err(DecodeError::Corrupt(format!(
            "array length {len} exceeds bound {cap}"
        )));
    }
    let mut out = Vec::with_capacity(len as usize);
    for _ in 0..len {
        out.push(read_u32(r)?);
    }
    Ok(out)
}

fn op_code(op: TensorOp) -> (u32, u32) {
    match op {
        TensorOp::SpTtm { mode } => (0, mode as u32),
        TensorOp::SpMttkrp { mode } => (1, mode as u32),
        TensorOp::SpTtmc { mode } => (2, mode as u32),
    }
}

fn op_from(code: u32, mode: u32) -> Result<TensorOp, DecodeError> {
    let mode = mode as usize;
    match code {
        0 => Ok(TensorOp::SpTtm { mode }),
        1 => Ok(TensorOp::SpMttkrp { mode }),
        2 => Ok(TensorOp::SpTtmc { mode }),
        other => Err(DecodeError::Corrupt(format!("unknown op code {other}"))),
    }
}

/// Writes a preprocessed F-COO instance.
pub fn write_fcoo(fcoo: &Fcoo, mut w: impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    let (code, mode) = op_code(fcoo.op);
    write_u32(&mut w, code)?;
    write_u32(&mut w, mode)?;
    write_u64(&mut w, fcoo.shape.len() as u64)?;
    for &s in &fcoo.shape {
        write_u64(&mut w, s as u64)?;
    }
    write_u64(&mut w, fcoo.threadlen as u64)?;
    write_u64(&mut w, fcoo.nnz() as u64)?;
    write_u64(&mut w, fcoo.product_indices.len() as u64)?;
    for column in &fcoo.product_indices {
        write_u32_slice(&mut w, column)?;
    }
    // Values as raw f32 bits.
    write_u64(&mut w, fcoo.values.len() as u64)?;
    for &v in &fcoo.values {
        write_u32(&mut w, v.to_bits())?;
    }
    write_u64(&mut w, fcoo.bf.len() as u64)?;
    w.write_all(fcoo.bf.bytes())?;
    write_u64(&mut w, fcoo.sf.len() as u64)?;
    w.write_all(fcoo.sf.bytes())?;
    write_u64(&mut w, fcoo.segment_coords.len() as u64)?;
    for column in fcoo.segment_coords.iter() {
        write_u32_slice(&mut w, column)?;
    }
    write_u32_slice(&mut w, &fcoo.partition_first_segment)?;
    Ok(())
}

/// Reads a preprocessed F-COO instance written by [`write_fcoo`].
pub fn read_fcoo(mut r: impl Read) -> Result<Fcoo, DecodeError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(DecodeError::Corrupt("bad magic".into()));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(DecodeError::Version(version));
    }
    let code = read_u32(&mut r)?;
    let mode = read_u32(&mut r)?;
    let op = op_from(code, mode)?;
    let order = read_u64(&mut r)?;
    if order == 0 || order > 16 {
        return Err(DecodeError::Corrupt(format!("implausible order {order}")));
    }
    let mut shape = Vec::with_capacity(order as usize);
    for _ in 0..order {
        shape.push(read_u64(&mut r)? as usize);
    }
    let classification = ModeClassification::classify(op, shape.len());
    let threadlen = read_u64(&mut r)? as usize;
    if threadlen == 0 {
        return Err(DecodeError::Corrupt("zero threadlen".into()));
    }
    let nnz = read_u64(&mut r)?;
    const MAX_NNZ: u64 = 1 << 33;
    if nnz == 0 || nnz > MAX_NNZ {
        return Err(DecodeError::Corrupt(format!("implausible nnz {nnz}")));
    }
    let product_columns = read_u64(&mut r)?;
    if product_columns as usize != classification.product_modes.len() {
        return Err(DecodeError::Corrupt("product-mode arity mismatch".into()));
    }
    let mut product_indices = Vec::with_capacity(product_columns as usize);
    for _ in 0..product_columns {
        let column = read_u32_vec(&mut r, nnz)?;
        if column.len() as u64 != nnz {
            return Err(DecodeError::Corrupt(
                "product index column length mismatch".into(),
            ));
        }
        product_indices.push(column);
    }
    let value_count = read_u64(&mut r)?;
    if value_count != nnz {
        return Err(DecodeError::Corrupt("value count mismatch".into()));
    }
    let mut values = Vec::with_capacity(nnz as usize);
    for _ in 0..nnz {
        values.push(f32::from_bits(read_u32(&mut r)?));
    }
    let bf = read_bitflags(&mut r, nnz)?;
    let partitions = (nnz as usize).div_ceil(threadlen) as u64;
    let sf = read_bitflags(&mut r, partitions)?;
    let coord_columns = read_u64(&mut r)?;
    if coord_columns as usize != classification.index_modes.len() {
        return Err(DecodeError::Corrupt("index-mode arity mismatch".into()));
    }
    let segments = bf.count_ones() as u64;
    let mut segment_coords = Vec::with_capacity(coord_columns as usize);
    for _ in 0..coord_columns {
        let column = read_u32_vec(&mut r, nnz)?;
        if column.len() as u64 != segments {
            return Err(DecodeError::Corrupt(
                "segment coordinate length mismatch".into(),
            ));
        }
        segment_coords.push(column);
    }
    let partition_first_segment = read_u32_vec(&mut r, partitions)?;
    if partition_first_segment.len() as u64 != partitions {
        return Err(DecodeError::Corrupt(
            "partition pointer length mismatch".into(),
        ));
    }
    Ok(Fcoo {
        op,
        classification,
        shape,
        threadlen,
        product_indices,
        values,
        bf,
        sf,
        segment_coords: segment_coords.into(),
        partition_first_segment,
    })
}

fn read_bitflags(r: &mut impl Read, expected_len: u64) -> Result<BitFlags, DecodeError> {
    let len = read_u64(r)?;
    if len != expected_len {
        return Err(DecodeError::Corrupt(format!(
            "flag length {len} does not match expected {expected_len}"
        )));
    }
    let mut bytes = vec![0u8; (len as usize).div_ceil(8)];
    r.read_exact(&mut bytes)?;
    let mut flags = BitFlags::new(len as usize);
    for i in 0..len as usize {
        if bytes[i / 8] & (1 << (i % 8)) != 0 {
            flags.set(i);
        }
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_core::datasets::{self, DatasetKind};

    fn sample(op: TensorOp) -> Fcoo {
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2_000, 60);
        Fcoo::from_coo(&tensor, op, 8)
    }

    #[test]
    fn round_trip_preserves_everything() {
        for op in [
            TensorOp::SpTtm { mode: 2 },
            TensorOp::SpMttkrp { mode: 0 },
            TensorOp::SpTtmc { mode: 1 },
        ] {
            let original = sample(op);
            let mut buffer = Vec::new();
            write_fcoo(&original, &mut buffer).unwrap();
            let decoded = read_fcoo(buffer.as_slice()).unwrap();
            assert_eq!(decoded.op, original.op);
            assert_eq!(decoded.shape, original.shape);
            assert_eq!(decoded.threadlen, original.threadlen);
            assert_eq!(decoded.product_indices, original.product_indices);
            assert_eq!(decoded.values, original.values);
            assert_eq!(decoded.bf, original.bf);
            assert_eq!(decoded.sf, original.sf);
            assert_eq!(decoded.segment_coords, original.segment_coords);
            assert_eq!(
                decoded.partition_first_segment,
                original.partition_first_segment
            );
        }
    }

    #[test]
    fn decoded_instance_runs_on_the_device() {
        use crate::device::{DeviceMatrix, FcooDevice};
        let original = sample(TensorOp::SpTtm { mode: 2 });
        let mut buffer = Vec::new();
        write_fcoo(&original, &mut buffer).unwrap();
        let decoded = read_fcoo(buffer.as_slice()).unwrap();
        let device = gpu_sim::GpuDevice::titan_x();
        let on_device = FcooDevice::upload(device.memory(), &decoded).unwrap();
        let u = DeviceMatrix::upload(
            device.memory(),
            &tensor_core::DenseMatrix::random(decoded.shape[2], 8, 1),
        )
        .unwrap();
        let (result, _) =
            crate::kernels::spttm(&device, &on_device, &u, &crate::LaunchConfig::default())
                .unwrap();
        assert_eq!(result.nfibs(), decoded.segments());
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_fcoo(&b"NOPE....."[..]).unwrap_err();
        assert!(matches!(err, DecodeError::Corrupt(_)));
    }

    #[test]
    fn rejects_future_version() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(MAGIC);
        buffer.extend_from_slice(&99u32.to_le_bytes());
        let err = read_fcoo(buffer.as_slice()).unwrap_err();
        assert!(matches!(err, DecodeError::Version(99)));
    }

    #[test]
    fn rejects_truncated_stream() {
        let original = sample(TensorOp::SpMttkrp { mode: 0 });
        let mut buffer = Vec::new();
        write_fcoo(&original, &mut buffer).unwrap();
        buffer.truncate(buffer.len() / 2);
        assert!(read_fcoo(buffer.as_slice()).is_err());
    }

    #[test]
    fn rejects_tampered_lengths() {
        let original = sample(TensorOp::SpTtm { mode: 0 });
        let mut buffer = Vec::new();
        write_fcoo(&original, &mut buffer).unwrap();
        // Corrupt the nnz field (offset: magic 4 + version 4 + op 8 +
        // order 8 + shape 3×8 + threadlen 8 = 56).
        buffer[56] ^= 0xff;
        assert!(read_fcoo(buffer.as_slice()).is_err());
    }
}
