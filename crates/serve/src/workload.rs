//! Workload files: declarative tensor registrations plus request traces.
//!
//! A workload is a plain-text file the CLI and the ledger replay against the
//! serving engine. Two line kinds (blank lines and `#` comments ignored):
//!
//! ```text
//! tensor  <id> <kind> <nnz> <seed>
//! request <tensor-id> <spttm|mttkrp|ttmc> <mode> <rank> <arrival_us> <factor-seed> [deadline_us]
//! request <tensor-id> cp <iterations> <rank> <arrival_us> <factor-seed> [deadline_us]
//! ```
//!
//! Modes are 0-based (the library convention; only the `tensortool` argv
//! surface is 1-based). A `cp` request runs a full CP-ALS decomposition
//! through the serving engine — its third field is the iteration budget
//! rather than a mode. The optional eighth field is a relative deadline in
//! µs: the engine sheds the request instead of serving it when its
//! certified completion-time lower bound provably misses
//! `arrival_us + deadline_us` (see `docs/SERVING.md`). [`synthetic`]
//! generates the acceptance workload: the paper's four datasets crossed
//! with {SpTTM, SpMTTKRP}, Poisson-ish arrivals from a seeded splitmix64
//! stream — fully deterministic for a given `(requests, seed)` pair.
//! [`open_loop`] generates the saturation workload: the same plan set
//! driven at a fixed offered arrival rate regardless of completion times,
//! with a skewed plan pick so a hot plan exists to exercise replication.

use fcoo::TensorOp;
use tensor_core::datasets::DatasetKind;

/// What a request asks the engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// A single unified-kernel operation (SpTTM / SpMTTKRP / SpTTMc).
    Tensor(TensorOp),
    /// A full CP-ALS decomposition (one SpMTTKRP plan per mode).
    CpAls {
        /// Maximum ALS iterations.
        iterations: usize,
    },
}

impl ServeOp {
    /// Short display label, e.g. `SpMTTKRP(mode-2)` or `CP-ALS(5 iters)`.
    pub fn label(&self) -> String {
        match self {
            ServeOp::Tensor(op) => op.label(),
            ServeOp::CpAls { iterations } => format!("CP-ALS({iterations} iters)"),
        }
    }
}

/// One `tensor` registration line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorSpec {
    /// Client-facing identifier requests refer to.
    pub id: String,
    /// Synthetic dataset family to generate.
    pub kind: DatasetKind,
    /// Non-zero budget passed to the generator.
    pub nnz: usize,
    /// Generator seed.
    pub seed: u64,
}

/// One `request` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Which registered tensor to operate on.
    pub tensor_id: String,
    /// What to run: one unified-kernel operation or a CP-ALS decomposition.
    pub op: ServeOp,
    /// Factor-matrix rank.
    pub rank: usize,
    /// Simulated arrival time in microseconds.
    pub arrival_us: f64,
    /// Seed for the dense factor matrices this request supplies.
    pub factor_seed: u64,
    /// Optional relative deadline (µs after arrival). A request whose
    /// certified completion-time lower bound provably exceeds
    /// `arrival_us + deadline` is shed instead of served.
    pub deadline_us: Option<f64>,
}

/// A parsed workload: registrations plus a request trace sorted by arrival.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Workload {
    /// Tensors to register before serving.
    pub tensors: Vec<TensorSpec>,
    /// Requests in arrival order.
    pub requests: Vec<Request>,
}

/// Workload parse failure, with the offending line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    /// 1-based line number of the bad line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workload line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for WorkloadError {}

fn parse_kind(name: &str) -> Option<DatasetKind> {
    Some(match name {
        "brainq" => DatasetKind::Brainq,
        "nell2" => DatasetKind::Nell2,
        "delicious" => DatasetKind::Delicious,
        "nell1" => DatasetKind::Nell1,
        "uniform" => DatasetKind::Uniform,
        _ => return None,
    })
}

fn op_fields(op: ServeOp) -> (&'static str, usize) {
    match op {
        ServeOp::Tensor(TensorOp::SpTtm { mode }) => ("spttm", mode),
        ServeOp::Tensor(TensorOp::SpMttkrp { mode }) => ("mttkrp", mode),
        ServeOp::Tensor(TensorOp::SpTtmc { mode }) => ("ttmc", mode),
        ServeOp::CpAls { iterations } => ("cp", iterations),
    }
}

impl Workload {
    /// Parses a workload from its text form.
    pub fn parse(text: &str) -> Result<Workload, WorkloadError> {
        let mut workload = Workload::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let err = |message: String| WorkloadError { line, message };
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            match fields[0] {
                "tensor" => {
                    if fields.len() != 5 {
                        return Err(err(format!(
                            "expected `tensor <id> <kind> <nnz> <seed>`, got {} fields",
                            fields.len()
                        )));
                    }
                    let kind = parse_kind(fields[2]).ok_or_else(|| {
                        err(format!(
                            "unknown dataset kind `{}` (brainq|nell2|delicious|nell1|uniform)",
                            fields[2]
                        ))
                    })?;
                    let nnz = fields[3]
                        .parse()
                        .map_err(|_| err(format!("bad nnz `{}`", fields[3])))?;
                    let seed = fields[4]
                        .parse()
                        .map_err(|_| err(format!("bad seed `{}`", fields[4])))?;
                    workload.tensors.push(TensorSpec {
                        id: fields[1].to_string(),
                        kind,
                        nnz,
                        seed,
                    });
                }
                "request" => {
                    if fields.len() != 7 && fields.len() != 8 {
                        return Err(err(format!(
                            "expected `request <tensor-id> <op> <mode> <rank> \
                             <arrival_us> <factor-seed> [deadline_us]`, got {} fields",
                            fields.len()
                        )));
                    }
                    let mode: usize = fields[3]
                        .parse()
                        .map_err(|_| err(format!("bad mode `{}`", fields[3])))?;
                    let op = match fields[2] {
                        "spttm" => ServeOp::Tensor(TensorOp::SpTtm { mode }),
                        "mttkrp" => ServeOp::Tensor(TensorOp::SpMttkrp { mode }),
                        "ttmc" => ServeOp::Tensor(TensorOp::SpTtmc { mode }),
                        "cp" => ServeOp::CpAls { iterations: mode },
                        other => {
                            return Err(err(format!("unknown op `{other}` (spttm|mttkrp|ttmc|cp)")))
                        }
                    };
                    let rank = fields[4]
                        .parse()
                        .map_err(|_| err(format!("bad rank `{}`", fields[4])))?;
                    let arrival_us: f64 = fields[5]
                        .parse()
                        .map_err(|_| err(format!("bad arrival `{}`", fields[5])))?;
                    if !arrival_us.is_finite() || arrival_us < 0.0 {
                        return Err(err(format!("bad arrival `{}`", fields[5])));
                    }
                    let factor_seed = fields[6]
                        .parse()
                        .map_err(|_| err(format!("bad factor seed `{}`", fields[6])))?;
                    let deadline_us = match fields.get(7) {
                        None => None,
                        Some(raw) => {
                            let d: f64 = raw
                                .parse()
                                .map_err(|_| err(format!("bad deadline `{raw}`")))?;
                            if !d.is_finite() || d <= 0.0 {
                                return Err(err(format!("bad deadline `{raw}`")));
                            }
                            Some(d)
                        }
                    };
                    workload.requests.push(Request {
                        tensor_id: fields[1].to_string(),
                        op,
                        rank,
                        arrival_us,
                        factor_seed,
                        deadline_us,
                    });
                }
                other => return Err(err(format!("unknown directive `{other}` (tensor|request)"))),
            }
        }
        workload
            .requests
            .sort_by(|a, b| a.arrival_us.total_cmp(&b.arrival_us));
        Ok(workload)
    }

    /// Renders the workload back to its text form (parse ∘ render = id).
    pub fn render(&self) -> String {
        let mut out = String::from("# serve workload\n");
        for t in &self.tensors {
            out.push_str(&format!(
                "tensor {} {} {} {}\n",
                t.id,
                t.kind.name(),
                t.nnz,
                t.seed
            ));
        }
        for r in &self.requests {
            let (name, third) = op_fields(r.op);
            out.push_str(&format!(
                "request {} {} {} {} {:.3} {}",
                r.tensor_id, name, third, r.rank, r.arrival_us, r.factor_seed
            ));
            if let Some(d) = r.deadline_us {
                out.push_str(&format!(" {d:.3}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Deterministic splitmix64 step (the workspace's standard offline PRNG):
/// the finalizer of the current state, then the state advances.
fn splitmix64(state: &mut u64) -> u64 {
    let draw = crate::ledger::splitmix(*state);
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    draw
}

/// Uniform f64 in `[0, 1)` from one splitmix64 draw.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates the acceptance-test workload: the paper's four datasets each
/// registered once, every (tensor × {SpTTM, SpMTTKRP}) pair exercised, rank
/// 8, arrivals ~40 µs apart (exponential gaps), factor seeds drawn from a
/// small pool so same-plan same-factors requests exist for batching. Fully
/// deterministic in `(requests, seed)`.
pub fn synthetic(requests: usize, seed: u64) -> Workload {
    let mut state = seed ^ 0x5e1e_c7a9_0f8e_d00d;
    let kinds = [
        (DatasetKind::Brainq, 1200usize),
        (DatasetKind::Nell2, 1500),
        (DatasetKind::Delicious, 1500),
        (DatasetKind::Nell1, 1800),
    ];
    let tensors: Vec<TensorSpec> = kinds
        .iter()
        .map(|&(kind, nnz)| TensorSpec {
            id: kind.name().to_string(),
            kind,
            nnz,
            seed: splitmix64(&mut state),
        })
        .collect();
    // 8 plans: each tensor with one SpTTM mode and one SpMTTKRP mode.
    let mut plans = Vec::new();
    for spec in &tensors {
        let m = (splitmix64(&mut state) % 3) as usize;
        plans.push((
            spec.id.clone(),
            ServeOp::Tensor(TensorOp::SpTtm { mode: m }),
        ));
        let m = (splitmix64(&mut state) % 3) as usize;
        plans.push((
            spec.id.clone(),
            ServeOp::Tensor(TensorOp::SpMttkrp { mode: m }),
        ));
    }
    let factor_pool: Vec<u64> = (0..6).map(|_| splitmix64(&mut state)).collect();
    let mut arrival = 0.0f64;
    let reqs = (0..requests)
        .map(|_| {
            let (ref id, op) = plans[(splitmix64(&mut state) % plans.len() as u64) as usize];
            let factor_seed = factor_pool[(splitmix64(&mut state) % 6) as usize];
            arrival += -(1.0 - unit(&mut state)).ln() * 40.0;
            Request {
                tensor_id: id.clone(),
                op,
                rank: 8,
                arrival_us: arrival,
                factor_seed,
                deadline_us: None,
            }
        })
        .collect();
    Workload {
        tensors,
        requests: reqs,
    }
}

/// Generates the open-loop saturation workload: the [`synthetic`] tensor
/// and plan set driven at a fixed offered arrival rate (exponential
/// inter-arrival gaps with mean `mean_gap_us`), independent of completion
/// times — the open-loop discipline closed-loop generators cannot provide.
/// Every request carries the relative deadline `deadline_us`. The plan
/// pick is skewed: half the draws land on plan 0, so a hot plan exists for
/// the engine's arrival-share replication to trigger on. Fully
/// deterministic in `(requests, seed, mean_gap_us, deadline_us)`.
pub fn open_loop(requests: usize, seed: u64, mean_gap_us: f64, deadline_us: f64) -> Workload {
    let mut state = seed ^ 0x0be1_0ad5_a77e_d10d;
    let kinds = [
        (DatasetKind::Brainq, 1200usize),
        (DatasetKind::Nell2, 1500),
        (DatasetKind::Delicious, 1500),
        (DatasetKind::Nell1, 1800),
    ];
    let tensors: Vec<TensorSpec> = kinds
        .iter()
        .map(|&(kind, nnz)| TensorSpec {
            id: kind.name().to_string(),
            kind,
            nnz,
            seed: splitmix64(&mut state),
        })
        .collect();
    let mut plans = Vec::new();
    for spec in &tensors {
        let m = (splitmix64(&mut state) % 3) as usize;
        plans.push((
            spec.id.clone(),
            ServeOp::Tensor(TensorOp::SpTtm { mode: m }),
        ));
        let m = (splitmix64(&mut state) % 3) as usize;
        plans.push((
            spec.id.clone(),
            ServeOp::Tensor(TensorOp::SpMttkrp { mode: m }),
        ));
    }
    let factor_pool: Vec<u64> = (0..6).map(|_| splitmix64(&mut state)).collect();
    let mut arrival = 0.0f64;
    let reqs = (0..requests)
        .map(|_| {
            // Skewed pick: every other draw collapses onto plan 0.
            let draw = (splitmix64(&mut state) % (2 * plans.len() as u64)) as usize;
            let (ref id, op) = plans[if draw < plans.len() {
                0
            } else {
                draw - plans.len()
            }];
            let factor_seed = factor_pool[(splitmix64(&mut state) % 6) as usize];
            arrival += -(1.0 - unit(&mut state)).ln() * mean_gap_us;
            Request {
                tensor_id: id.clone(),
                op,
                rank: 8,
                arrival_us: arrival,
                factor_seed,
                deadline_us: Some(deadline_us),
            }
        })
        .collect();
    Workload {
        tensors,
        requests: reqs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trip() {
        let w = synthetic(20, 42);
        let text = w.render();
        let reparsed = Workload::parse(&text).unwrap();
        assert_eq!(reparsed.tensors, w.tensors);
        assert_eq!(reparsed.requests.len(), w.requests.len());
        for (a, b) in reparsed.requests.iter().zip(&w.requests) {
            assert_eq!(a.tensor_id, b.tensor_id);
            assert_eq!(a.op, b.op);
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.factor_seed, b.factor_seed);
            // Arrivals survive the 3-decimal text round trip to the µs.
            assert!((a.arrival_us - b.arrival_us).abs() < 1e-3);
        }
    }

    #[test]
    fn synthetic_is_deterministic_and_batchable() {
        let a = synthetic(100, 7);
        let b = synthetic(100, 7);
        assert_eq!(a, b);
        let c = synthetic(100, 8);
        assert_ne!(a, c);
        // The factor-seed pool guarantees repeated (plan, factors) pairs.
        let mut seen = std::collections::BTreeSet::new();
        let mut repeats = 0;
        for r in &a.requests {
            if !seen.insert((r.tensor_id.clone(), format!("{:?}", r.op), r.factor_seed)) {
                repeats += 1;
            }
        }
        assert!(repeats > 0, "no batchable repeats in 100 requests");
    }

    #[test]
    fn arrivals_are_sorted_and_comments_skipped() {
        let text = "# comment\n\nrequest t mttkrp 0 8 50.0 1\ntensor t nell2 500 3\nrequest t spttm 1 8 10.0 2\n";
        let w = Workload::parse(text).unwrap();
        assert_eq!(w.tensors.len(), 1);
        assert_eq!(w.requests.len(), 2);
        assert!(w.requests[0].arrival_us <= w.requests[1].arrival_us);
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = Workload::parse("tensor t nell2 500 3\nbogus line here\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown directive"));
        let err = Workload::parse("tensor t fancy 500 3\n").unwrap_err();
        assert!(err.to_string().contains("unknown dataset kind"));
        let err = Workload::parse("request t spttm 0 8 -4.0 1\n").unwrap_err();
        assert!(err.to_string().contains("bad arrival"));
        let err = Workload::parse("request t spttm 0 8 4.0 1 -10.0\n").unwrap_err();
        assert!(err.to_string().contains("bad deadline"));
        let err = Workload::parse("request t spttm 0 8 4.0 1 soon\n").unwrap_err();
        assert!(err.to_string().contains("bad deadline"));
    }

    #[test]
    fn deadlines_parse_and_round_trip() {
        let text =
            "tensor t nell2 500 3\nrequest t spttm 0 8 10.0 2\nrequest t mttkrp 1 8 20.0 3 750.5\n";
        let w = Workload::parse(text).unwrap();
        assert_eq!(w.requests[0].deadline_us, None);
        assert_eq!(w.requests[1].deadline_us, Some(750.5));
        let reparsed = Workload::parse(&w.render()).unwrap();
        assert_eq!(reparsed.requests[0].deadline_us, None);
        assert_eq!(reparsed.requests[1].deadline_us, Some(750.5));
    }

    #[test]
    fn open_loop_is_deterministic_skewed_and_deadlined() {
        let a = open_loop(200, 7, 25.0, 900.0);
        let b = open_loop(200, 7, 25.0, 900.0);
        assert_eq!(a, b);
        assert_ne!(a, open_loop(200, 8, 25.0, 900.0));
        assert!(a.requests.iter().all(|r| r.deadline_us == Some(900.0)));
        // The skewed pick makes one plan's share far exceed the uniform 1/8.
        let mut counts = std::collections::BTreeMap::new();
        for r in &a.requests {
            *counts
                .entry((r.tensor_id.clone(), format!("{:?}", r.op)))
                .or_insert(0usize) += 1;
        }
        let hottest = counts.values().copied().max().unwrap();
        assert!(
            hottest as f64 > 0.4 * a.requests.len() as f64,
            "hot plan share too small: {hottest}/200"
        );
        // Open loop: mean gap tracks the offered rate, not completions.
        let span = a.requests.last().unwrap().arrival_us;
        let mean_gap = span / a.requests.len() as f64;
        assert!((10.0..60.0).contains(&mean_gap), "mean gap {mean_gap}");
    }
}
