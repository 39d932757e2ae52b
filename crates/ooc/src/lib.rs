//! Out-of-core chunked execution for F-COO tensors larger than device
//! memory.
//!
//! The paper's FROSTT-scale workloads do not fit a single device's pool;
//! this crate streams them. [`fcoo::chunk`] splits a format into
//! partition-aligned chunks sized to a byte budget; [`executor`] runs the
//! chunks through the unchanged unified kernels with carry-row seeding so
//! the accumulated output is **bit-exact** with the in-core path. The serve
//! layer's scheduler places each chunk's H2D, kernel and D2H stages on the
//! device's streams (H2D of chunk `k+1` under the kernel of chunk `k` under
//! the D2H of chunk `k−1`) and records them as [`ChunkSchedule`]s, whose
//! makespan `tensortool oocbench` reports against its certified floor.
//!
//! The execution path deliberately depends only on
//! `fcoo`/`gpu-sim`/`tensor-core`: the serve engine composes these pieces
//! with its own admission, reservation and fault machinery
//! (`crates/serve`), and the bench CLI drives them standalone. On top of
//! it, [`bound`] checks a finished run against the whole-pipeline counter
//! envelope the analyzer certifies for its chunk plan before it runs
//! ([`analyzer::cost::certify_chunked`]) — the bound `tensortool oocbench`
//! checks every streamed execution against.

#![warn(missing_docs)]

pub mod bound;
pub mod executor;

pub use bound::check_run;
pub use executor::{
    output_cols, run_chunk, run_chunked, Accumulator, ChunkFormat, ChunkReport, ChunkSchedule,
    ChunkedRun,
};
pub use fcoo::chunk::{extract, split, ChunkDescriptor, ChunkPlan};
