//! Exhaustive interleaving exploration with ample-set reduction.
//!
//! The state graph of a scenario is explored by depth-first search with a
//! visited set keyed by a dual-seeded [`ModelState::digest`] (an effective
//! 128-bit key, so collisions are out of the picture for the few thousand
//! states a scenario produces). The number of *interleavings* — maximal
//! paths from the initial state — is computed exactly by memoized dynamic
//! programming over the acyclic graph, saturating at `u128::MAX`.
//!
//! # Partial-order reduction
//!
//! In reduced mode the checker expands a single action instead of all of
//! them whenever that action is provably independent of everything any
//! *other* request could ever do from here. Independence is checked on
//! resource footprints: each action touches a set of resources (its
//! request's control state, the admission ticket, a device's pool ledger /
//! execution lock / taint flag, the global fault-policy state, the
//! placement order, a device's timelines), and each request has a
//! conservative *future footprint* — every resource it might touch before
//! finishing, given its current phase. If an enabled action's footprint is
//! disjoint from the union of all other requests' future footprints, then
//! no pruned interleaving can disable, enable, or observe it differently
//! (the classic ample-set conditions hold by construction: commutation and
//! invisibility follow from disjointness, and the graph is cycle-free
//! except for livelock self-loops, which are detected before expansion).
//! The `reduction_agrees_with_full_exploration` test cross-validates the
//! claim on every standard scenario and mutation: verdicts *and* terminal
//! fingerprint sets must match the unreduced run.
//!
//! Livelocks surface as self-loop transitions (an action that returns the
//! system to the identical state can be scheduled forever without
//! progress); deadlocks as non-terminal states with no enabled action.
//! Both refute admission liveness with the schedule that got there.

use crate::model::{Action, ModelState};
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
    reduce: bool,
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
/// `mutation`, with or without ample-set reduction, and returns the
/// verdicts. Determinism is judged across terminal fingerprints after the
/// walk; the other three properties are checked on every path.
pub fn explore(scenario: &Scenario, mutation: Mutation, reduce: bool) -> ExploreResult {
    let mut ctx = Ctx {
        sc: scenario,
        mutation,
        reduce,
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
    let chosen = if ctx.reduce {
        select_ample(state, ctx.sc, ctx.mutation, &actions)
    } else {
        actions
    };
    ctx.on_stack.insert(key);
    let mut total: u128 = 0;
    for action in chosen {
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

// Resource-footprint bit layout (devices ≤ 8, requests ≤ 8).
const BIT_TICKET: u64 = 1 << 8;
const BIT_POLICY: u64 = 1 << 9;
const BIT_PLACE_ORDER: u64 = 1 << 10;

fn req_bit(r: usize) -> u64 {
    1 << r
}
fn pool_bit(d: usize) -> u64 {
    1 << (12 + d)
}
fn lock_bit(d: usize) -> u64 {
    1 << (20 + d)
}
fn taint_bit(d: usize) -> u64 {
    1 << (28 + d)
}
fn sched_bit(d: usize) -> u64 {
    1 << (36 + d)
}

fn device_bits(d: usize) -> u64 {
    pool_bit(d) | lock_bit(d) | taint_bit(d) | sched_bit(d)
}

/// Resources `action` reads or writes when executed from `state`.
fn action_footprint(
    state: &ModelState,
    sc: &Scenario,
    action: Action,
    can_fault: bool,
    late_quarantine: bool,
) -> u64 {
    let r = action.request();
    let dev = |r: usize| state.reqs[r].device().unwrap_or(0);
    match action {
        Action::Admit(_) => {
            let d = state
                .health
                .affinity(sc.requests[r].preferred_device as u64);
            let mut f = req_bit(r) | BIT_TICKET | BIT_PLACE_ORDER | pool_bit(d);
            if can_fault {
                // Affinity reads the quarantine flags.
                f |= BIT_POLICY;
            }
            f
        }
        Action::BeginExec(_) => req_bit(r) | lock_bit(dev(r)) | taint_bit(dev(r)),
        Action::Shed(_) => {
            // Releases the pending reservation and unblocks later
            // placements (the shed request stops gating arrival order).
            req_bit(r) | pool_bit(dev(r)) | BIT_PLACE_ORDER
        }
        Action::Chunk(_) => {
            // Reserve/commit/release on the pool, fault + scrub on the
            // taint flag, all under the held execution lock.
            let d = dev(r);
            let mut f = req_bit(r) | lock_bit(d) | taint_bit(d) | pool_bit(d);
            if can_fault {
                f |= BIT_POLICY;
            }
            f
        }
        Action::Barrier(_) => {
            let d = dev(r);
            let mut f = req_bit(r) | lock_bit(d) | taint_bit(d);
            if can_fault {
                f |= BIT_POLICY;
            }
            if sc.requests[r].doomed {
                // Genuine-failure path releases the reservation and
                // unblocks later placements.
                f |= pool_bit(d) | BIT_PLACE_ORDER;
            }
            f
        }
        Action::Place(_) => req_bit(r) | BIT_PLACE_ORDER | sched_bit(dev(r)),
        Action::Commit(_) => req_bit(r) | pool_bit(dev(r)),
        Action::Accept(_) => {
            let mut f = req_bit(r) | taint_bit(dev(r));
            if late_quarantine {
                f |= BIT_POLICY;
            }
            f
        }
    }
}

/// Conservative union of every resource request `r` might still touch
/// before finishing, given its current phase.
fn future_footprint(
    state: &ModelState,
    sc: &Scenario,
    r: usize,
    can_fault: bool,
    late_quarantine: bool,
) -> u64 {
    use crate::model::Phase;
    let req = &state.reqs[r];
    let d = req.device().unwrap_or(sc.requests[r].preferred_device);
    let policy = if can_fault || late_quarantine {
        BIT_POLICY
    } else {
        0
    };
    match req.phase {
        Phase::Done | Phase::Rejected | Phase::Shed => 0,
        Phase::Committed => req_bit(r) | taint_bit(d) | policy,
        Phase::Placed => req_bit(r) | pool_bit(d) | taint_bit(d) | policy,
        Phase::Barriered => {
            req_bit(r) | BIT_PLACE_ORDER | sched_bit(d) | pool_bit(d) | taint_bit(d) | policy
        }
        Phase::Admitted | Phase::Running => {
            req_bit(r)
                | lock_bit(d)
                | taint_bit(d)
                | pool_bit(d)
                | BIT_PLACE_ORDER
                | sched_bit(d)
                | policy
        }
        Phase::Idle => {
            let mut f = req_bit(r) | BIT_TICKET | BIT_PLACE_ORDER | policy;
            if can_fault {
                // Quarantine may redirect the request anywhere.
                for dv in 0..state.devs.len() {
                    f |= device_bits(dv);
                }
            } else {
                f |= device_bits(sc.requests[r].preferred_device);
            }
            f
        }
    }
}

/// Ample-set selection: the first enabled action whose footprint is
/// disjoint from every other request's future footprint, else the full
/// set.
fn select_ample(
    state: &ModelState,
    sc: &Scenario,
    mutation: Mutation,
    actions: &[Action],
) -> Vec<Action> {
    let can_fault = sc
        .requests
        .iter()
        .any(|r| !r.fault_attempts.is_empty() || !r.chunk_fault_chunks.is_empty());
    let late_quarantine = mutation == Mutation::LateQuarantine;
    for &action in actions {
        let r = action.request();
        let mut others = 0u64;
        for r2 in 0..state.reqs.len() {
            if r2 != r {
                others |= future_footprint(state, sc, r2, can_fault, late_quarantine);
            }
        }
        if action_footprint(state, sc, action, can_fault, late_quarantine) & others == 0 {
            return vec![action];
        }
    }
    actions.to_vec()
}
