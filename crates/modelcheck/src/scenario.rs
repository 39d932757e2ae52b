//! Checkable scenarios and protocol mutations.
//!
//! A [`Scenario`] is a small, fully concrete serving workload: a handful of
//! requests with fixed arrival times, working-set sizes and fault schedules
//! over a couple of devices. Small on purpose — the checker in
//! [`crate::explore`] enumerates *every* host interleaving of the scenario,
//! so the value of a scenario is not its size but which protocol race it
//! makes reachable. A [`Mutation`] seeds a known protocol bug into the
//! transition rules; the self-test in `tests/check.rs` demands that every
//! mutation is refuted with a concrete counterexample while the unmutated
//! protocol proves all four properties on the same scenario.

/// One request of a scenario.
#[derive(Debug, Clone)]
pub struct ReqSpec {
    /// Simulated arrival time in microseconds.
    pub arrival_us: f64,
    /// Device the request prefers (affinity redirects on quarantine).
    pub preferred_device: usize,
    /// Plan identity: requests sharing a `key_id` share a cached format.
    pub key_id: u64,
    /// Bytes of the uploaded format (resident until evicted); unused out of
    /// core, where admission only makes room.
    pub format_bytes: usize,
    /// Transient working-set bytes held from admission to commit.
    pub transient_bytes: usize,
    /// Kernel duration in simulated microseconds.
    pub exec_us: f64,
    /// Zero-based attempt numbers hit by an injected corrupting fault
    /// (device tiers only — the host tier cannot fault).
    pub fault_attempts: Vec<u32>,
    /// True when every clean device-tier attempt fails *genuinely* (not a
    /// fault): the engine must release the reservation and reject.
    pub doomed: bool,
    /// Number of streamed chunks when the format exceeds device memory
    /// (`0` = in-core). A chunked request takes one *pending* reservation
    /// per chunk, holds it across the chunk's retries and commits it at the
    /// chunk's D2H end — or, once the chunk runs out of retries, releases
    /// it and takes the host rung.
    pub chunks: u32,
    /// Bytes one streamed chunk reserves while in flight.
    pub chunk_bytes: usize,
    /// Per chunk index, how many of the chunk's first attempts an injected
    /// corrupting fault hits (missing entries run clean). More than
    /// `max_retries` exhausts the chunk.
    pub chunk_faults: Vec<u32>,
    /// Relative deadline in microseconds, if the request carries one. A
    /// deadline below `exec_us` (the certified execution-time floor) is
    /// provably unreachable, so the engine sheds the request right after
    /// admission: reservation released, never executed.
    pub deadline_us: Option<f64>,
}

impl ReqSpec {
    fn new(arrival_us: f64, preferred_device: usize, key_id: u64) -> Self {
        ReqSpec {
            arrival_us,
            preferred_device,
            key_id,
            format_bytes: 8192,
            transient_bytes: 2048,
            exec_us: 50.0,
            fault_attempts: Vec::new(),
            doomed: false,
            chunks: 0,
            chunk_bytes: 0,
            chunk_faults: Vec::new(),
            deadline_us: None,
        }
    }
}

/// A complete checkable scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name.
    pub name: &'static str,
    /// Number of simulated devices.
    pub devices: usize,
    /// Streams per device.
    pub streams_per_device: usize,
    /// Pool capacity per device in bytes.
    pub capacity_bytes: usize,
    /// Retries per tier before degrading down the execution ladder.
    pub max_retries: u32,
    /// Faults on one device before it is quarantined.
    pub quarantine_threshold: u32,
    /// The requests, in arrival order.
    pub requests: Vec<ReqSpec>,
}

/// A protocol bug seeded into the transition rules. `None` is the faithful
/// protocol; every other variant is a mutation the checker must refute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The faithful protocol.
    None,
    /// A genuinely failing request skips `release`, leaking its pending
    /// reservation (and deadlocking any later request on the device).
    DropRelease,
    /// The integrity barrier skips the scrub: an injected fault is never
    /// detected and the taint survives into later device reads.
    SkipScrub,
    /// Quarantine is applied lazily at output readback instead of inside
    /// the barrier, opening an admission race on the fault count.
    LateQuarantine,
    /// A deferred admission retries without retiring finished
    /// reservations, so the retry can never make progress.
    StuckDefer,
    /// A chunk out of retries skips the `release` of its reservation on
    /// the way to the host rung, leaking it — and deadlocking any later
    /// request admitting on the device.
    DropChunkRelease,
    /// A shed request skips the `release` of its pending reservation,
    /// leaking its working-set bytes — and deadlocking any later request
    /// admitting on the device.
    DropShedRelease,
}

impl Mutation {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::DropRelease => "drop-release",
            Mutation::SkipScrub => "skip-scrub",
            Mutation::LateQuarantine => "late-quarantine",
            Mutation::StuckDefer => "stuck-defer",
            Mutation::DropChunkRelease => "drop-chunk-release",
            Mutation::DropShedRelease => "drop-shed-release",
        }
    }
}

fn base(name: &'static str, requests: Vec<ReqSpec>) -> Scenario {
    Scenario {
        name,
        devices: 2,
        streams_per_device: 2,
        capacity_bytes: 1 << 20,
        max_retries: 3,
        quarantine_threshold: 10,
        requests,
    }
}

/// Three fault-free requests over two devices, one format reuse.
pub fn baseline() -> Scenario {
    let mut r2 = ReqSpec::new(20.0, 0, 0);
    r2.exec_us = 35.0;
    base(
        "baseline",
        vec![ReqSpec::new(0.0, 0, 0), ReqSpec::new(5.0, 1, 1), r2],
    )
}

/// The acceptance scenario from the issue: 4 requests over 2 devices with
/// one injected fault (request 1, attempt 0) that must recover via retry.
pub fn acceptance() -> Scenario {
    let mut r1 = ReqSpec::new(5.0, 1, 1);
    r1.fault_attempts = vec![0];
    r1.exec_us = 60.0;
    let mut r2 = ReqSpec::new(10.0, 0, 2);
    r2.exec_us = 45.0;
    let mut r3 = ReqSpec::new(15.0, 1, 3);
    r3.exec_us = 70.0;
    base("acceptance", vec![ReqSpec::new(0.0, 0, 0), r1, r2, r3])
}

/// Memory pressure: request 1 cannot fit next to request 0's in-flight
/// reservation and must defer until it retires, then evict its format.
pub fn pressure() -> Scenario {
    let mut r0 = ReqSpec::new(0.0, 0, 0);
    r0.format_bytes = 400;
    r0.transient_bytes = 300;
    let mut r1 = ReqSpec::new(5.0, 0, 1);
    r1.format_bytes = 400;
    r1.transient_bytes = 300;
    let mut r2 = ReqSpec::new(8.0, 1, 2);
    r2.format_bytes = 200;
    r2.transient_bytes = 100;
    let mut s = base("pressure", vec![r0, r1, r2]);
    s.capacity_bytes = 1000;
    s.streams_per_device = 1;
    s
}

/// A genuinely failing (doomed) request on device 0 whose reservation must
/// be released on the failure path; the third request runs elsewhere.
pub fn doomed() -> Scenario {
    let mut r1 = ReqSpec::new(5.0, 0, 1);
    r1.doomed = true;
    base(
        "doomed",
        vec![ReqSpec::new(0.0, 0, 0), r1, ReqSpec::new(10.0, 1, 2)],
    )
}

/// Like [`doomed`], but a later request targets the same device — if the
/// doomed request leaks its reservation, admission deadlocks.
pub fn doomed_follower() -> Scenario {
    let mut r1 = ReqSpec::new(5.0, 0, 1);
    r1.doomed = true;
    base(
        "doomed-follower",
        vec![ReqSpec::new(0.0, 0, 0), r1, ReqSpec::new(10.0, 0, 2)],
    )
}

/// Request 0 faults twice on device 0 and crosses the quarantine
/// threshold; request 1 prefers the quarantined device and must redirect.
pub fn quarantine() -> Scenario {
    let mut r0 = ReqSpec::new(0.0, 0, 0);
    r0.fault_attempts = vec![0, 1];
    let mut s = base("quarantine", vec![r0, ReqSpec::new(5.0, 0, 1)]);
    s.quarantine_threshold = 2;
    s.max_retries = 2;
    s
}

/// Out-of-core streaming: request 0's format exceeds device memory and
/// streams in 3 chunks with chunk-granular pending reservations. The
/// middle chunk's first attempt faults and retries with its reservation
/// held; all four attempts of the last chunk fault (`max_retries` is 3),
/// so it releases its reservation and sends the request to the host rung.
/// Request 1 runs on the other device, free to interleave anywhere in the
/// chunk pipeline.
pub fn ooc() -> Scenario {
    let mut r0 = ReqSpec::new(0.0, 0, 0);
    (r0.chunks, r0.chunk_bytes, r0.transient_bytes) = (3, 200, 300);
    r0.chunk_faults = vec![0, 1, 4];
    base("ooc", vec![r0, ReqSpec::new(5.0, 1, 1)])
}

/// Like [`ooc`], but the follower targets the *same* device — if the
/// exhausted chunk leaks its pending reservation, the follower's admission
/// gate (no pending bytes on the device) can never open.
pub fn ooc_follower() -> Scenario {
    let mut s = ooc();
    s.name = "ooc-follower";
    s.requests[1].preferred_device = 0;
    s
}

/// Overload shedding: request 1 carries a deadline its certified
/// execution-time floor provably misses, so it is shed right after
/// admission — its pending reservation must come back. The third request
/// runs on the other device.
pub fn overload() -> Scenario {
    let mut r1 = ReqSpec::new(5.0, 0, 1);
    r1.deadline_us = Some(10.0);
    base(
        "overload",
        vec![ReqSpec::new(0.0, 0, 0), r1, ReqSpec::new(10.0, 1, 2)],
    )
}

/// Like [`overload`], but a later request targets the *same* device — if
/// the shed request leaks its reservation, admission deadlocks.
pub fn overload_follower() -> Scenario {
    let mut r1 = ReqSpec::new(5.0, 0, 1);
    r1.deadline_us = Some(10.0);
    base(
        "overload-follower",
        vec![ReqSpec::new(0.0, 0, 0), r1, ReqSpec::new(10.0, 0, 2)],
    )
}

/// Every scenario the unmutated protocol must prove.
pub fn standard() -> Vec<Scenario> {
    vec![
        baseline(),
        acceptance(),
        pressure(),
        doomed(),
        doomed_follower(),
        quarantine(),
        ooc(),
        ooc_follower(),
        overload(),
        overload_follower(),
    ]
}

/// The mutation self-test: each seeded bug paired with the scenario that
/// exposes it and the property it must refute there.
pub fn mutation_suite() -> Vec<(Mutation, Scenario, crate::Property)> {
    use crate::Property::{AdmissionLiveness, Determinism, LeakFreedom, ScrubBeforeReuse};
    vec![
        (Mutation::DropRelease, doomed(), LeakFreedom),
        (Mutation::DropRelease, doomed_follower(), AdmissionLiveness),
        (Mutation::SkipScrub, acceptance(), ScrubBeforeReuse),
        (Mutation::LateQuarantine, quarantine(), Determinism),
        (Mutation::StuckDefer, pressure(), AdmissionLiveness),
        (Mutation::DropChunkRelease, ooc(), LeakFreedom),
        (
            Mutation::DropChunkRelease,
            ooc_follower(),
            AdmissionLiveness,
        ),
        (Mutation::SkipScrub, ooc(), ScrubBeforeReuse),
        (Mutation::DropShedRelease, overload(), LeakFreedom),
        (
            Mutation::DropShedRelease,
            overload_follower(),
            AdmissionLiveness,
        ),
    ]
}
