//! Host-visible protocol events of the serving layer.
//!
//! Every state transition the serving substrate makes on behalf of a request
//! — admission, reservation lifecycle, execution attempts, scrub barriers,
//! placement, fault policy — is describable as a [`ProtocolEvent`]. The
//! engine can record its own transitions into a protocol log (see
//! [`crate::engine::ServeEngine::enable_protocol_log`]). The rules of
//! [`crate::protocol`] build the events, and the `modelcheck` crate runs
//! the same rules, so its counterexample schedules narrate exactly the
//! events a real engine trace would.
//! The `modelcheck::replay` checker closes the loop: it runs the property
//! automata over a real engine's log, tying the abstract model to the code.

use crate::metrics::ExecTier;

/// One host-visible transition of the serving protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolEvent {
    /// Admission succeeded; the request's format is resident on `device`.
    AdmitOk {
        /// Request id (arrival index).
        request: u64,
        /// Target device.
        device: usize,
        /// True when admission paid the host→device upload.
        uploaded: bool,
    },
    /// Admission deferred behind in-flight reservations until `until_us`.
    AdmitDefer {
        /// Request id.
        request: u64,
        /// Target device.
        device: usize,
        /// Simulated time the blocking reservation retires.
        until_us: f64,
    },
    /// Admission rejected outright: the working set can never fit.
    AdmitReject {
        /// Request id.
        request: u64,
        /// Target device.
        device: usize,
        /// Bytes the request needed resident at once.
        working_set: usize,
    },
    /// A pending reservation was opened for the request's working set.
    ReservePending {
        /// Request id.
        request: u64,
        /// Target device.
        device: usize,
        /// Transient bytes held until commit or release.
        bytes: usize,
    },
    /// The pending reservation was committed with a finish time.
    Commit {
        /// Request id.
        request: u64,
        /// Target device.
        device: usize,
        /// Simulated time the reservation retires.
        finish_us: f64,
    },
    /// The pending reservation was cancelled (failure path).
    Release {
        /// Request id.
        request: u64,
        /// Target device.
        device: usize,
    },
    /// An execution attempt started.
    AttemptStart {
        /// Request id.
        request: u64,
        /// Target device.
        device: usize,
        /// Zero-based attempt number.
        attempt: u32,
        /// Tier the attempt runs at.
        tier: ExecTier,
    },
    /// The post-attempt integrity barrier ran a full memory scrub.
    Scrub {
        /// Request id.
        request: u64,
        /// Target device.
        device: usize,
        /// Fault events drained by the scrub.
        faults: usize,
        /// True when a drained fault corrupted the attempt's output.
        corrupted: bool,
    },
    /// A corrupted attempt backs off before retrying.
    Backoff {
        /// Request id.
        request: u64,
        /// Deterministic backoff span in microseconds.
        backoff_us: f64,
    },
    /// The request degraded down the execution ladder.
    Degrade {
        /// Request id.
        request: u64,
        /// Tier that kept failing.
        from: ExecTier,
        /// Tier the request retries at.
        to: ExecTier,
    },
    /// A device crossed the fault threshold and was quarantined.
    Quarantine {
        /// The quarantined device.
        device: usize,
    },
    /// A plan's tuned configuration correlated with faults and was dropped.
    PlanInvalidate {
        /// Device whose attributed faults crossed the plan threshold.
        device: usize,
    },
    /// The request was placed on a stream.
    Place {
        /// Request id.
        request: u64,
        /// Device the job runs on.
        device: usize,
        /// Stream within the device.
        stream: usize,
        /// Simulated start time.
        start_us: f64,
        /// Simulated finish time.
        finish_us: f64,
    },
    /// The request's output was read back (device→host).
    Accept {
        /// Request id.
        request: u64,
        /// Device the output lived on.
        device: usize,
    },
    /// The request was shed: its certified completion-time lower bound
    /// provably missed its deadline, so it never executed.
    Shed {
        /// Request id.
        request: u64,
        /// Device the request would have run on.
        device: usize,
        /// Certified completion-time lower bound (µs, absolute).
        estimate_us: f64,
        /// Absolute deadline the request could not meet (µs).
        deadline_us: f64,
    },
    /// A quarantine re-placed the quarantined device's plan affinities
    /// across the surviving devices.
    Rebalance {
        /// The quarantined device whose load was re-spread.
        device: usize,
        /// Plan affinities moved to survivors.
        plans: usize,
    },
    /// A hot plan's arrival share crossed the replication threshold and it
    /// gained a second serving device.
    Replicate {
        /// The plan's primary device.
        primary: usize,
        /// The replica device added.
        replica: usize,
    },
}

impl std::fmt::Display for ProtocolEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolEvent::AdmitOk {
                request,
                device,
                uploaded,
            } => write!(
                f,
                "request {request} admitted on device {device} ({})",
                if *uploaded { "uploaded" } else { "format reused" }
            ),
            ProtocolEvent::AdmitDefer {
                request,
                device,
                until_us,
            } => write!(
                f,
                "request {request} deferred on device {device} until {until_us:.1} µs"
            ),
            ProtocolEvent::AdmitReject {
                request,
                device,
                working_set,
            } => write!(
                f,
                "request {request} rejected on device {device}: {working_set} B can never fit"
            ),
            ProtocolEvent::ReservePending {
                request,
                device,
                bytes,
            } => write!(
                f,
                "request {request} reserved {bytes} B pending on device {device}"
            ),
            ProtocolEvent::Commit {
                request,
                device,
                finish_us,
            } => write!(
                f,
                "request {request} committed its reservation on device {device} (retires {finish_us:.1} µs)"
            ),
            ProtocolEvent::Release { request, device } => write!(
                f,
                "request {request} released its reservation on device {device}"
            ),
            ProtocolEvent::AttemptStart {
                request,
                device,
                attempt,
                tier,
            } => write!(
                f,
                "request {request} attempt {attempt} starts on device {device} ({tier:?} tier)"
            ),
            ProtocolEvent::Scrub {
                request,
                device,
                faults,
                corrupted,
            } => write!(
                f,
                "request {request} scrubbed device {device}: {faults} fault(s) drained, {}",
                if *corrupted { "attempt corrupted" } else { "clean" }
            ),
            ProtocolEvent::Backoff {
                request,
                backoff_us,
            } => write!(f, "request {request} backs off {backoff_us:.0} µs"),
            ProtocolEvent::Degrade { request, from, to } => {
                write!(f, "request {request} degrades {from:?} → {to:?}")
            }
            ProtocolEvent::Quarantine { device } => {
                write!(f, "device {device} quarantined")
            }
            ProtocolEvent::PlanInvalidate { device } => {
                write!(f, "plan invalidated after faults on device {device}")
            }
            ProtocolEvent::Place {
                request,
                device,
                stream,
                start_us,
                finish_us,
            } => write!(
                f,
                "request {request} placed on device {device} stream {stream} [{start_us:.1}, {finish_us:.1}] µs"
            ),
            ProtocolEvent::Accept { request, device } => {
                write!(f, "request {request} output read back from device {device}")
            }
            ProtocolEvent::Shed {
                request,
                device,
                estimate_us,
                deadline_us,
            } => write!(
                f,
                "request {request} shed on device {device}: certified finish ≥ {estimate_us:.1} µs misses deadline {deadline_us:.1} µs"
            ),
            ProtocolEvent::Rebalance { device, plans } => write!(
                f,
                "device {device} rebalanced: {plans} plan affinit{} moved to survivors",
                if *plans == 1 { "y" } else { "ies" }
            ),
            ProtocolEvent::Replicate { primary, replica } => write!(
                f,
                "hot plan on device {primary} replicated to device {replica}"
            ),
        }
    }
}
