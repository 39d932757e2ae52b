//! Exhaustive interleaving exploration.
//!
//! The state graph of a scenario is explored by depth-first search with a
//! visited set keyed by a dual-seeded [`ModelState::digest`] (an effective
//! 128-bit key, so collisions are out of the picture for the few thousand
//! states a scenario produces). The number of *interleavings* — maximal
//! paths from the initial state — is computed exactly by memoized dynamic
//! programming over the acyclic graph, saturating at `u128::MAX`.
//!
//! Livelocks surface as self-loop transitions (an action that returns the
//! system to the identical state can be scheduled forever without
//! progress); deadlocks as non-terminal states with no enabled action.
//! Both refute admission liveness with the schedule that got there.

use crate::model::ModelState;
use crate::scenario::{Mutation, Scenario};
use crate::{Property, Violation};
use serve::ProtocolEvent;
use std::collections::{BTreeMap, HashMap, HashSet};

const SEED_A: u64 = 0xA5A5_5A5A_1234_5678;
const SEED_B: u64 = 0x3C3C_C3C3_8765_4321;

/// One step of an explored schedule: the action taken and the protocol
/// events the engine would have logged for it.
#[derive(Debug, Clone)]
pub struct Step {
    /// Action label, e.g. `admit(r1)`.
    pub label: String,
    /// The transition's narration.
    pub events: Vec<ProtocolEvent>,
}

/// A refutation: the property violated, what went wrong, and the exact
/// schedule(s) that exhibit it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The refuted property.
    pub property: Property,
    /// What exactly went wrong at the end of the schedule.
    pub detail: String,
    /// The schedule that reaches the violation.
    pub schedule: Vec<Step>,
    /// For determinism refutations: a second schedule reaching a different
    /// terminal fingerprint.
    pub alt_schedule: Option<Vec<Step>>,
}

/// Exploration counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreStats {
    /// Distinct states visited.
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Maximal paths from the initial state (exact, saturating).
    pub interleavings: u128,
}

/// The outcome of exploring one (scenario, mutation) pair.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Counters for this run.
    pub stats: ExploreStats,
    /// Terminal fingerprint → first schedule reaching it.
    pub fingerprints: BTreeMap<u64, Vec<Step>>,
    /// First counterexample found per refuted property.
    pub violations: Vec<Counterexample>,
}

impl ExploreResult {
    /// True iff `property` was refuted.
    pub fn refutes(&self, property: Property) -> bool {
        self.violations.iter().any(|v| v.property == property)
    }

    /// The counterexample for `property`, if refuted.
    pub fn counterexample(&self, property: Property) -> Option<&Counterexample> {
        self.violations.iter().find(|v| v.property == property)
    }
}

struct Ctx<'a> {
    sc: &'a Scenario,
    mutation: Mutation,
    visited: HashMap<(u64, u64), u128>,
    on_stack: HashSet<(u64, u64)>,
    fingerprints: BTreeMap<u64, Vec<Step>>,
    violations: Vec<Counterexample>,
    stats: ExploreStats,
}

impl Ctx<'_> {
    fn record(&mut self, violation: Violation, path: &[Step]) {
        if !self
            .violations
            .iter()
            .any(|c| c.property == violation.property)
        {
            self.violations.push(Counterexample {
                property: violation.property,
                detail: violation.detail,
                schedule: path.to_vec(),
                alt_schedule: None,
            });
        }
    }
}

/// Exhaustively explores every interleaving of `scenario` under
/// `mutation` and returns the verdicts. Determinism is judged across terminal fingerprints after the
/// walk; the other three properties are checked on every path.
pub fn explore(scenario: &Scenario, mutation: Mutation) -> ExploreResult {
    let mut ctx = Ctx {
        sc: scenario,
        mutation,
        visited: HashMap::new(),
        on_stack: HashSet::new(),
        fingerprints: BTreeMap::new(),
        violations: Vec::new(),
        stats: ExploreStats::default(),
    };
    let initial = ModelState::initial(scenario);
    let mut path = Vec::new();
    let total = dfs(&mut ctx, &initial, &mut path);
    ctx.stats.interleavings = total;
    ctx.stats.states = ctx.visited.len() as u64;
    if ctx.fingerprints.len() > 1 {
        let mut it = ctx.fingerprints.values();
        let first = it.next().cloned().unwrap_or_default();
        let second = it.next().cloned();
        ctx.violations.push(Counterexample {
            property: Property::Determinism,
            detail: format!(
                "{} distinct terminal report fingerprints reachable from the same \
                 seed — the serve report depends on the host interleaving",
                ctx.fingerprints.len()
            ),
            schedule: first,
            alt_schedule: second,
        });
    }
    ExploreResult {
        stats: ctx.stats,
        fingerprints: ctx.fingerprints,
        violations: ctx.violations,
    }
}

fn dfs(ctx: &mut Ctx<'_>, state: &ModelState, path: &mut Vec<Step>) -> u128 {
    let key = (state.digest(SEED_A), state.digest(SEED_B));
    if let Some(&paths) = ctx.visited.get(&key) {
        return paths;
    }
    let actions = state.enabled(ctx.sc);
    if actions.is_empty() {
        if state.terminal() {
            check_leaks(ctx, state, path);
            ctx.fingerprints
                .entry(state.fingerprint())
                .or_insert_with(|| path.clone());
        } else {
            let stuck: Vec<String> = state
                .reqs
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.phase.is_terminal())
                .map(|(i, r)| format!("request {i} stuck in {:?}", r.phase))
                .collect();
            ctx.record(
                Violation {
                    property: Property::AdmissionLiveness,
                    detail: format!("admission deadlock: {}", stuck.join(", ")),
                },
                path,
            );
        }
        ctx.visited.insert(key, 1);
        return 1;
    }
    ctx.on_stack.insert(key);
    let mut total: u128 = 0;
    for action in actions {
        let result = state.step(ctx.sc, ctx.mutation, action);
        ctx.stats.transitions += 1;
        path.push(Step {
            label: action.label(),
            events: result.events,
        });
        if let Some(v) = result.violation {
            ctx.record(v, path);
            total = total.saturating_add(1);
        } else {
            let next_key = (result.next.digest(SEED_A), result.next.digest(SEED_B));
            if next_key == key || ctx.on_stack.contains(&next_key) {
                // The action can be scheduled forever without progress.
                ctx.record(
                    Violation {
                        property: Property::AdmissionLiveness,
                        detail: format!(
                            "livelock: `{}` returns the system to a state it was \
                             already in — the schedule can repeat it forever",
                            action.label()
                        ),
                    },
                    path,
                );
                total = total.saturating_add(1);
            } else {
                total = total.saturating_add(dfs(ctx, &result.next, path));
            }
        }
        path.pop();
    }
    ctx.on_stack.remove(&key);
    ctx.visited.insert(key, total);
    total
}

/// Terminal-state leak audit: after every reservation that can retire has
/// retired, all transient bytes, pending reservations and format pins must
/// be back at zero on every device.
fn check_leaks(ctx: &mut Ctx<'_>, state: &ModelState, path: &[Step]) {
    let mut leaks = Vec::new();
    for (d, pool) in state.pools.iter().enumerate() {
        let mut settled = pool.clone();
        settled.retire(f64::MAX);
        if settled.reserved_bytes() > 0
            || settled.pending_reservations() > 0
            || settled.total_pins() > 0
        {
            leaks.push(format!(
                "device {d} never returns to zero: {} B still reserved, {} pending \
                 reservation(s), {} format pin(s) after the final retire",
                settled.reserved_bytes(),
                settled.pending_reservations(),
                settled.total_pins()
            ));
        }
    }
    if !leaks.is_empty() {
        ctx.record(
            Violation {
                property: Property::LeakFreedom,
                detail: leaks.join("; "),
            },
            path,
        );
    }
}
