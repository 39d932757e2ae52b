//! Bounded model checker for the serving layer.
//!
//! The serve engine's host-side protocol — request admission, pool
//! accounting, the retry ladder, stream placement, fault scrubbing and
//! quarantine — runs as a transition system ([`model`]) that calls the
//! engine's own rules ([`serve::protocol`]) over the *real* accounting
//! types ([`serve::PoolLedger`], [`serve::Scheduler`]), explored
//! exhaustively over every host interleaving of small scenarios
//! ([`explore`]). Four properties are proved or refuted with a concrete
//! counterexample trace:
//!
//! * **Determinism** — the same seed reaches a bit-identical serve report
//!   under *every* interleaving (single terminal fingerprint).
//! * **Leak-freedom** — pool bytes-in-use, pending reservations and format
//!   pins return to zero on every path.
//! * **Admission liveness** — queue-not-OOM admission never deadlocks or
//!   livelocks.
//! * **Scrub-before-reuse** — no device read (kernel launch or output
//!   readback) ever follows an injected fault without an intervening
//!   scrub barrier.
//!
//! The same properties cover the out-of-core chunk loop, which the engine
//! and the model share: each chunk holds one reservation across its retries
//! and commits it at its D2H end, or releases it when the chunk runs out of
//! retries and the request takes the host rung. They also cover the shed
//! path: a request whose certified floor provably misses its deadline
//! releases its reservation unrun.
//!
//! The mutation self-test ([`scenario::mutation_suite`]) seeds six known
//! protocol bugs — a dropped `release`, a skipped scrub, a lazily applied
//! quarantine, a deferred admission that never retires, a chunk out of
//! retries that skips its release, a shed request that skips its
//! release — and demands each is refuted while the faithful protocol
//! proves everything on the same scenario. Each mutation drops or postpones
//! one decision a shared rule returned; `serve` itself has no mutation
//! hook. [`replay`] runs the property automata over a real engine's
//! [`serve::ProtocolEvent`] log as a cross-check.

pub mod explore;
pub mod model;
pub mod replay;
pub mod scenario;
pub mod trace;

pub use explore::{Counterexample, ExploreResult, ExploreStats, Step};
pub use model::{Action, ModelState, Phase};
pub use scenario::{Mutation, ReqSpec, Scenario};

/// One of the four checked properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Property {
    /// Same seed ⇒ bit-identical serve report under every interleaving.
    Determinism,
    /// Every path returns the pools to zero bytes, zero pins.
    LeakFreedom,
    /// Admission never deadlocks or livelocks.
    AdmissionLiveness,
    /// No device read after an injected fault without a scrub barrier.
    ScrubBeforeReuse,
}

impl Property {
    /// All four properties, in report order.
    pub const ALL: [Property; 4] = [
        Property::Determinism,
        Property::LeakFreedom,
        Property::AdmissionLiveness,
        Property::ScrubBeforeReuse,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Property::Determinism => "determinism",
            Property::LeakFreedom => "leak-freedom",
            Property::AdmissionLiveness => "admission-liveness",
            Property::ScrubBeforeReuse => "scrub-before-reuse",
        }
    }
}

/// A property violation observed during a step or at a terminal state.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated property.
    pub property: Property,
    /// What exactly went wrong.
    pub detail: String,
}

/// Verdicts and counters for one (scenario, mutation) check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Scenario name.
    pub scenario: String,
    /// Mutation under which the protocol ran.
    pub mutation: Mutation,
    /// Exploration counters — the proof's coverage claim.
    pub full: ExploreStats,
    /// Verdict per property.
    pub result: ExploreResult,
}

impl CheckReport {
    /// True iff all four properties were proved.
    pub fn all_proved(&self) -> bool {
        self.result.violations.is_empty()
    }

    /// Human-readable verdict block (no counterexample bodies; use
    /// [`trace::render_counterexample`] for those).
    pub fn render(&self) -> String {
        let mut out = format!(
            "scenario `{}` (mutation: {})\n  full:    {} states, {} transitions, {} interleavings\n",
            self.scenario,
            self.mutation.label(),
            self.full.states,
            self.full.transitions,
            self.full.interleavings,
        );
        for property in Property::ALL {
            match self.result.counterexample(property) {
                None => out.push_str(&format!("  {:<18} PROVED\n", property.label())),
                Some(ce) => out.push_str(&format!(
                    "  {:<18} REFUTED after {} step(s): {}\n",
                    property.label(),
                    ce.schedule.len(),
                    ce.detail
                )),
            }
        }
        out
    }
}

/// Checks `scenario` under `mutation`: one full exploration for the
/// verdicts and the exact interleaving count.
pub fn check(scenario: &Scenario, mutation: Mutation) -> CheckReport {
    let result = explore::explore(scenario, mutation);
    CheckReport {
        scenario: scenario.name.to_string(),
        mutation,
        full: result.stats,
        result,
    }
}

/// The checker's full report, as `tensortool modelcheck` prints it: every
/// standard scenario under the faithful protocol (each must prove all four
/// properties), then the mutation
/// self-test (each seeded bug must be refuted). `Err` carries the same
/// report with the violations appended.
pub fn report() -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out =
        "modelcheck: serving-protocol properties over all host interleavings\n\n".to_string();
    let mut violations = Vec::new();
    for sc in scenario::standard() {
        let report = check(&sc, Mutation::None);
        out += &report.render();
        for ce in &report.result.violations {
            out += &trace::render_counterexample(ce);
            let property = ce.property.label();
            violations.push(format!("scenario `{}` refuted {property}", sc.name));
        }
        out.push('\n');
    }
    out += "mutation self-test: seeded bugs must be refuted\n\n";
    for (mutation, sc, property) in scenario::mutation_suite() {
        let (label, name, property_label) = (mutation.label(), sc.name, property.label());
        let _ = match check(&sc, mutation).result.counterexample(property) {
            Some(ce) => writeln!(
                out,
                "  {label} on `{name}`: {property_label} refuted after {} step(s) — {}",
                ce.schedule.len(),
                ce.detail
            ),
            None => {
                violations.push(format!("mutation {label} escaped on `{name}`"));
                writeln!(
                    out,
                    "  {label} on `{name}`: ESCAPED — {property_label} was not refuted"
                )
            }
        };
    }
    if violations.is_empty() {
        out += "\nmodelcheck verdict: all properties proved, all mutations refuted\n";
        return Ok(out);
    }
    for violation in &violations {
        let _ = writeln!(out, "modelcheck violation: {violation}");
    }
    Err(out)
}
