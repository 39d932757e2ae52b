//! Certified whole-pipeline cost bounds for chunked out-of-core runs.
//!
//! The analyzer's cost interpreter certifies one launch at a time
//! ([`analyzer::cost::certify`]); a chunked pipeline is a deterministic
//! sequence of such launches over the extracted chunk formats, so its
//! whole-pipeline envelope is the field-wise sum of the per-chunk
//! envelopes ([`analyzer::cost::certify_chunked`]). This module wraps that
//! sum in the executor's terms: [`pipeline_envelope`] derives the bound
//! from a [`ChunkPlan`] before anything runs, and [`check_run`] validates
//! a finished [`ChunkedRun`] against it — `tensortool oocbench` fails on
//! any violation, which would be a soundness bug in either the cost model
//! or the chunked executor (a mis-seeded carry row shows up here as an
//! atomic-count drift long before it corrupts an output value).

use crate::executor::ChunkedRun;
use analyzer::cost::{certify_chunked, CounterEnvelope};
use fcoo::chunk::ChunkPlan;
use fcoo::{Fcoo, FormatKind, LaunchConfig};
use gpu_sim::DeviceConfig;

/// Certified envelope of a whole chunked pipeline in format `kind`: every
/// counter of the merged per-chunk launches, summed over `plan`, plus
/// bounds on the accumulated `KernelStats::time_us`. Each chunk is
/// certified with the format's own cost interpreter (bucketed gather
/// transactions for BF-COO), matching what
/// [`run_chunked`](crate::executor::run_chunked) launches. Derived from the
/// parent format's headers alone — nothing is uploaded or launched.
pub fn pipeline_envelope(
    config: &DeviceConfig,
    kind: FormatKind,
    fcoo: &Fcoo,
    plan: &ChunkPlan,
    rank: usize,
    cfg: &LaunchConfig,
) -> CounterEnvelope {
    certify_chunked(config, kind, fcoo, plan, rank, cfg)
}

/// Validates a finished chunked run against its certified envelope.
///
/// Checks the two quantities a [`ChunkedRun`] reports: the kernel-launch
/// count must equal the plan length the envelope was derived from, and the
/// accumulated simulated duration must lie within the certified
/// `[lo, hi]` time bounds. Returns one human-readable line per violation
/// (empty = certified). For the full per-counter containment check, trace
/// the run and use [`CounterEnvelope::violations`] on the drained
/// counters — that is what the golden suite pins.
pub fn check_run(envelope: &CounterEnvelope, run: &ChunkedRun) -> Vec<String> {
    let mut violations = Vec::new();
    if envelope.launches != run.chunks.len() as u64 {
        violations.push(format!(
            "chunk launches: executed {}, certified exactly {}",
            run.chunks.len(),
            envelope.launches
        ));
    }
    let bounds = envelope.stats_time_us();
    if !bounds.contains(run.stats.time_us) {
        violations.push(format!(
            "pipeline time_us: accumulated {:.6} outside [{:.6}, {:.6}]",
            run.stats.time_us, bounds.lo, bounds.hi
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_chunked;
    use fcoo::TensorOp;
    use gpu_sim::GpuDevice;
    use tensor_core::datasets::{self, DatasetKind};
    use tensor_core::DenseMatrix;

    const RANK: usize = 8;

    #[test]
    fn chunked_pipeline_stays_within_its_certified_bound() {
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2000, 13);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpMttkrp { mode: 0 }, 8);
        let factors: Vec<DenseMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &n)| DenseMatrix::random(n, RANK, 1 + m as u64))
            .collect();
        let cfg = LaunchConfig::with_block_size(128);
        for divisor in [2usize, 5] {
            let budget = (fcoo.storage().total_bytes() / divisor).max(1);
            let plan = fcoo::split(&fcoo, budget);
            let envelope =
                pipeline_envelope(device.config(), FormatKind::Fcoo, &fcoo, &plan, RANK, &cfg);
            let run = run_chunked(&device, FormatKind::Fcoo, &fcoo, &plan, &factors, &cfg)
                .expect("chunked run");
            assert_eq!(
                check_run(&envelope, &run),
                Vec::<String>::new(),
                "divisor {divisor}"
            );
            assert_eq!(envelope.launches, plan.len() as u64);
        }
    }

    #[test]
    fn bfcoo_chunked_pipeline_stays_within_its_format_envelope() {
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Nell2, 2000, 13);
        let fcoo = Fcoo::from_coo(&tensor, fcoo::TensorOp::SpMttkrp { mode: 0 }, 8);
        let factors: Vec<tensor_core::DenseMatrix> = tensor
            .shape()
            .iter()
            .enumerate()
            .map(|(m, &n)| tensor_core::DenseMatrix::random(n, RANK, 1 + m as u64))
            .collect();
        let cfg = LaunchConfig::with_block_size(128);
        let budget = (fcoo.storage().total_bytes() / 3).max(1);
        let plan = fcoo::split(&fcoo, budget);
        let envelope =
            pipeline_envelope(device.config(), FormatKind::BfCoo, &fcoo, &plan, RANK, &cfg);
        let run = run_chunked(&device, FormatKind::BfCoo, &fcoo, &plan, &factors, &cfg)
            .expect("chunked run");
        assert_eq!(check_run(&envelope, &run), Vec::<String>::new());
        assert_eq!(envelope.launches, plan.len() as u64);
        // The strided envelope certifies the same launch count but models
        // the un-bucketed gathers — a BF-COO run is not obliged to fit it,
        // only its own format envelope (checked above).
        let strided =
            pipeline_envelope(device.config(), FormatKind::Fcoo, &fcoo, &plan, RANK, &cfg);
        assert_eq!(strided.launches, envelope.launches);
    }

    #[test]
    fn check_run_reports_a_bound_violation() {
        let device = GpuDevice::titan_x();
        let (tensor, _) = datasets::generate(DatasetKind::Brainq, 900, 3);
        let fcoo = Fcoo::from_coo(&tensor, TensorOp::SpTtm { mode: 0 }, 8);
        // SpTTM takes `[U]`: the mode-0 factor alone.
        let factors = vec![DenseMatrix::random(tensor.shape()[0], RANK, 1)];
        let cfg = LaunchConfig::with_block_size(64);
        let plan = fcoo::split(&fcoo, (fcoo.storage().total_bytes() / 3).max(1));
        let envelope =
            pipeline_envelope(device.config(), FormatKind::Fcoo, &fcoo, &plan, RANK, &cfg);
        let mut run = run_chunked(&device, FormatKind::Fcoo, &fcoo, &plan, &factors, &cfg)
            .expect("chunked run");
        run.stats.time_us = envelope.stats_time_us().hi * 2.0 + 1.0;
        let violations = check_run(&envelope, &run);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("pipeline time_us"));
    }
}
