//! Compute-sanitizer-style dynamic checking for `gpu-sim` kernels, plus a
//! static invariant lint for F-COO tensors.
//!
//! The simulator's kernels are *functional*: they compute real results on
//! host threads while narrating their memory behaviour to the cost model.
//! That duality is exactly what this crate cross-checks. Record a run with
//! [`GpuDevice::start_recording`](gpu_sim::GpuDevice::start_recording), then
//! feed the captured [`AccessLog`] to [`analyze`], which replays three
//! passes over the event streams:
//!
//! * **Racecheck** ([`racecheck`]) — conflicting functional accesses to the
//!   same address from parties not ordered by the warp/barrier/adjacent-sync
//!   synchronization model (the `cuda-memcheck --tool racecheck` analogue).
//! * **Out-of-bounds** ([`oob`]) — every recorded address must fall inside
//!   an allocation that was live at launch time, checked against the
//!   device's shadow allocation map (the `memcheck` analogue).
//! * **Narration audit** ([`audit`]) — traffic the kernel actually performed
//!   but never narrated to the cost model, i.e. simulated timings that
//!   silently under-count memory work. This pass is unique to a functional
//!   simulator: real hardware has no "claimed" stream to diff against.
//!
//! The static side, [`check_fcoo`], validates the bit-flag/start-flag
//! consistency invariants of a preprocessed [`Fcoo`](fcoo::Fcoo) tensor
//! (paper §IV-A): flag vector lengths, segment-head counts versus segment
//! coordinate tables, partition start flags mirroring `bf`, and monotone
//! partition→segment pointers.
//!
//! ```
//! use gpu_sim::GpuDevice;
//!
//! let device = GpuDevice::titan_x();
//! let data = device.memory().alloc_from_slice(&[0.0f32; 64]).unwrap();
//! device.start_recording();
//! device.launch((1, 1), 32, |ctx| {
//!     ctx.begin_warp();
//!     let addrs: Vec<u64> = (0..32).map(|lane| data.addr(lane)).collect();
//!     ctx.read_global(&addrs);
//!     let _ = data.get(0);
//! });
//! let report = sanitizer::analyze(&device.stop_recording());
//! assert!(report.is_clean(), "{report}");
//! ```

pub mod audit;
pub mod fcoo_lint;
pub mod oob;
pub mod racecheck;

pub use fcoo_lint::{check_bfcoo, check_chunk_plan, check_fcoo};

use gpu_sim::AccessLog;

/// Which sanitizer pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pass {
    /// Unordered conflicting accesses to one address ([`racecheck`]).
    Racecheck,
    /// Access outside every live allocation ([`oob`]).
    Oob,
    /// Functional traffic the kernel never narrated ([`audit`]).
    NarrationAudit,
    /// F-COO structural invariant violation ([`fcoo_lint`]).
    FcooLint,
    /// Statically refuted launch property or format invariant (emitted by
    /// the `analyzer` crate's plan-load gate; shares this report type so
    /// static and dynamic findings merge into one stream).
    Symbolic,
}

impl std::fmt::Display for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Pass::Racecheck => "racecheck",
            Pass::Oob => "oob",
            Pass::NarrationAudit => "narration-audit",
            Pass::FcooLint => "fcoo-lint",
            Pass::Symbolic => "symbolic",
        })
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but possibly benign (e.g. an atomic racing a plain read).
    Warning,
    /// A defect: data race, out-of-bounds access, broken invariant.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One sanitizer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The pass that raised it.
    pub pass: Pass,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description (addresses, blocks, warps involved).
    pub message: String,
    /// Launch index within the recording, when applicable.
    pub launch: Option<usize>,
    /// Linear block index, when the finding is block-local.
    pub block: Option<usize>,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.severity, self.pass)?;
        if let Some(launch) = self.launch {
            write!(f, " launch {launch}")?;
        }
        if let Some(block) = self.block {
            write!(f, " block {block}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of one or more sanitizer passes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in pass order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// True when no pass found anything — neither errors nor warnings.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Appends all findings of `other`.
    pub fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return writeln!(f, "sanitizer: no issues found");
        }
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        writeln!(
            f,
            "sanitizer: {} error(s), {} warning(s)",
            self.error_count(),
            self.findings.len() - self.error_count()
        )
    }
}

/// Runs every dynamic pass (racecheck, out-of-bounds, narration audit) over
/// a recorded log and merges their findings.
pub fn analyze(log: &AccessLog) -> Report {
    let mut report = racecheck::check(log);
    report.merge(oob::check(log));
    report.merge(audit::check(log));
    report
}
