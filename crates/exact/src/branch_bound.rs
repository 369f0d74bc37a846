//! Branch-and-bound exact solver for `{P,Q,R} | G | C_max`.
//!
//! The reference oracle behind every approximation-ratio experiment at
//! "small but not tiny" sizes (n ≲ 24). Jobs are branched in LPT order
//! (degree breaks ties: heavier, better-connected jobs first); nodes are
//! cut by
//!
//! * the incumbent found by a graph-aware greedy,
//! * the incremental graph-aware bounds of [`crate::lower_bounds`]
//!   (fractional load, max-remaining-job, machine exclusion, edge pair),
//! * per-candidate completion-time cuts (candidates are tried best-first
//!   and abandoned wholesale once one reaches the incumbent), and
//! * identical-machine symmetry breaking: a job may only *open* the
//!   lowest-indexed empty machine among interchangeable machines (equal
//!   speed for `P`/`Q`, identical time rows for `R`).
//!
//! Feasibility tests run on precomputed per-job conflict bitmasks
//! ([`crate::bitset::BitSet`]) instead of per-node neighbor scans, and
//! the candidate list lives in per-depth buffers allocated once per
//! search — the hot loop allocates nothing.
//!
//! ## Arithmetic and the makespan grid
//!
//! Completion times, the partial makespan and every bound term are
//! unreduced `(work, speed)` pairs ([`Frac`]) compared exactly by `u128`
//! cross-multiplication; no gcd is taken in the hot loop. A `Rat` is
//! built only when an incumbent is published to a [`SearchCtl`] and for
//! the returned [`Optimum`].
//!
//! Every makespan lies on a grid: it is `k / s` for an integer machine
//! load `k` and some machine speed `s` (on `P` and `R` it is an
//! integer). On each incumbent improvement the search computes `pred`,
//! the largest grid value strictly below the incumbent. It cuts a node
//! whose bound exceeds `pred`, ends a candidate list at the first
//! completion time above `pred`, and accepts a leaf only at or below
//! `pred`. A bound above `pred` means every completion of the node has
//! makespan at least the incumbent, so a cut subtree holds no strict
//! improvement. Completion times lie on the grid, so the candidate and
//! leaf tests decide exactly as "reaches the incumbent" would; only the
//! node cut is stronger than cutting once the bound reaches the
//! incumbent. The surviving nodes are visited in the same order, so the
//! sequence of incumbents, the returned schedule and the `complete` flag
//! are those of that weaker search (the `reference` test module keeps it
//! and compares); only node counts fall, and under a node budget each
//! incumbent is reached no later.
//!
//! Budgets: a node budget and an optional wall-clock deadline
//! ([`BnbLimits`]). Exhaustion is tracked explicitly, so
//! [`BnbOutcome::complete`] is `true` exactly when the search ran to
//! completion — including runs that finish on their very last budgeted
//! node.

use crate::bruteforce::Optimum;
use crate::lower_bounds::{Frac, IncrementalBounds};
use crate::search_ctl::{fraction_to_f64_down, SearchCtl};
use bisched_graph::bipartition;
use bisched_model::{Instance, MachineEnvironment, MachineId, Rat, Schedule};
use bisched_obs::names;
use std::time::{Duration, Instant};

/// Search budgets for [`branch_and_bound_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BnbLimits {
    /// Maximum nodes to expand.
    pub node_limit: u64,
    /// Optional wall-clock budget; checked every few hundred nodes, so
    /// overshoot is bounded by a handful of node expansions.
    pub deadline: Option<Duration>,
}

impl Default for BnbLimits {
    fn default() -> Self {
        BnbLimits {
            node_limit: u64::MAX,
            deadline: None,
        }
    }
}

impl BnbLimits {
    /// A pure node budget (no deadline).
    pub fn nodes(node_limit: u64) -> Self {
        BnbLimits {
            node_limit,
            deadline: None,
        }
    }
}

/// Outcome of a branch-and-bound run.
#[derive(Clone, Debug)]
pub struct BnbOutcome {
    /// Best schedule found (`None` if infeasible).
    pub optimum: Option<Optimum>,
    /// Nodes expanded.
    pub nodes: u64,
    /// `true` iff the search ran to completion (the result is proven
    /// optimal — or proven infeasible when `optimum` is `None`); `false`
    /// iff a budget (nodes or deadline) or a cancellation cut the search
    /// short.
    ///
    /// Under a [`SearchCtl`] with foreign-bound pruning the completed
    /// proof is relative to the control's published bound: no schedule
    /// strictly better than `min(optimum, published bound)` exists. For
    /// a standalone run (no control) this is the usual absolute optimum.
    pub complete: bool,
    /// `true` iff the search stopped because its [`SearchCtl`] was
    /// cancelled (a special case of `!complete`).
    pub cancelled: bool,
    /// Subtrees cut because the incremental lower bound reached the
    /// search's own incumbent.
    pub prunes_incumbent: u64,
    /// Subtrees cut against a racing engine's published (foreign) bound.
    pub prunes_foreign: u64,
    /// Candidate lists abandoned wholesale once a (sorted) candidate's
    /// completion time reached the incumbent.
    pub prunes_candidate: u64,
    /// Incumbent improvements (the search's convergence timeline; each
    /// one also lands in the flight recorder as a `bnb_incumbent`
    /// instant when recording is on).
    pub incumbent_updates: u64,
}

/// Exact branch and bound with a node budget; see
/// [`branch_and_bound_with`] for the deadline-aware form.
pub fn branch_and_bound(inst: &Instance, node_limit: u64) -> BnbOutcome {
    branch_and_bound_with(inst, &BnbLimits::nodes(node_limit))
}

/// Exact branch and bound under [`BnbLimits`]; see
/// [`branch_and_bound_ctl`] for the race-aware form.
///
/// Returns a proven optimum when `complete` is true; otherwise the best
/// incumbent seen (still feasible, not necessarily optimal).
pub fn branch_and_bound_with(inst: &Instance, limits: &BnbLimits) -> BnbOutcome {
    branch_and_bound_ctl(inst, limits, None)
}

/// Exact branch and bound under [`BnbLimits`] and an optional shared
/// [`SearchCtl`].
///
/// With a control attached the search cooperates with a portfolio race:
/// it polls cancellation at the deadline-check cadence (stopping with
/// `cancelled: true`), prunes against the best makespan any racing
/// engine has published, and publishes its own incumbent improvements.
pub fn branch_and_bound_ctl(
    inst: &Instance,
    limits: &BnbLimits,
    ctl: Option<&SearchCtl>,
) -> BnbOutcome {
    let n = inst.num_jobs();
    let m = inst.num_machines();
    let order = branching_order(inst);
    let bounds = IncrementalBounds::new(inst, &order);
    let best = greedy_incumbent(inst);
    if let (Some(ctl), Some(b)) = (ctl, &best) {
        ctl.publish_makespan(&b.makespan);
    }
    let speeds = match inst.env() {
        MachineEnvironment::Uniform { speeds } => speeds.clone(),
        _ => vec![1; m],
    };
    let mut grid = speeds.clone();
    grid.sort_unstable();
    grid.dedup();
    let pred = match &best {
        Some(b) => grid_pred(Frac::new(b.makespan.num(), b.makespan.den()), &grid),
        None => Some(Frac::new(u64::MAX, 1)),
    };
    let mut search = Search {
        inst,
        sym_class: symmetry_classes(inst),
        class_seen: vec![false; m],
        order,
        assignment: vec![u32::MAX; n],
        loads: vec![0; m],
        speeds,
        grid,
        job_count: vec![0; m],
        cands: vec![Vec::with_capacity(m); n],
        bounds,
        best,
        pred,
        nodes: 0,
        node_limit: limits.node_limit,
        deadline: limits.deadline.map(|d| Instant::now() + d),
        exhausted: false,
        ctl,
        foreign: f64::INFINITY,
        cancelled: false,
        prunes_incumbent: 0,
        prunes_foreign: 0,
        prunes_candidate: 0,
        incumbent_updates: 0,
    };
    search.run(0, Frac::ZERO);
    BnbOutcome {
        complete: !search.exhausted,
        optimum: search.best,
        nodes: search.nodes,
        cancelled: search.cancelled,
        prunes_incumbent: search.prunes_incumbent,
        prunes_foreign: search.prunes_foreign,
        prunes_candidate: search.prunes_candidate,
        incumbent_updates: search.incumbent_updates,
    }
}

/// LPT branching order (min-row for `R`); degree breaks ties so the
/// most-constrained among equal jobs is branched first.
fn branching_order(inst: &Instance) -> Vec<u32> {
    let mut order: Vec<u32> = (0..inst.num_jobs() as u32).collect();
    order.sort_by(|&a, &b| {
        inst.processing(b)
            .cmp(&inst.processing(a))
            .then(inst.graph().degree(b).cmp(&inst.graph().degree(a)))
            .then(a.cmp(&b))
    });
    order
}

/// The largest value of the makespan grid strictly below `best`, or
/// `None` when `best` is zero: the maximum over the grid's speeds `s`
/// (the instance's distinct speeds; `1` on `P` and `R`) of
/// `(⌈best·s⌉ − 1) / s`. A makespan improves on `best` iff it is at most
/// this value. Machine loads are `u64`, so a grid numerator past
/// `u64::MAX` is unreachable and clamps there.
fn grid_pred(best: Frac, grid: &[u64]) -> Option<Frac> {
    grid.iter()
        .filter_map(|&s| {
            let k = (best.work as u128 * s as u128)
                .div_ceil(best.speed as u128)
                .checked_sub(1)?;
            Some(Frac::new(k.min(u64::MAX as u128) as u64, s))
        })
        .max()
}

/// Machine interchangeability classes: two machines share a class iff
/// swapping them maps schedules to schedules of identical makespan —
/// equal speed for `P`/`Q`, identical processing-time rows for `R`.
/// Returns `class[i]` = lowest machine index of `i`'s class.
fn symmetry_classes(inst: &Instance) -> Vec<u32> {
    let m = inst.num_machines();
    let mut class: Vec<u32> = (0..m as u32).collect();
    for i in 1..m {
        for k in 0..i {
            let same = match inst.env() {
                MachineEnvironment::Identical { .. } => true,
                MachineEnvironment::Uniform { speeds } => speeds[i] == speeds[k],
                MachineEnvironment::Unrelated { times } => times[i] == times[k],
            };
            if same {
                class[i] = class[k];
                break;
            }
        }
    }
    class
}

/// A feasible incumbent: graph-aware greedy, falling back to a 2-coloring
/// split when the greedy dead-ends. The fallback places the two
/// bipartition sides on the machine pair (and orientation) minimizing the
/// resulting makespan — on uniform machines that is the two fastest, on
/// unrelated machines whichever pair the time matrix favors. Returns
/// `None` if even the coloring fallback is impossible (non-bipartite `G`
/// or fewer than two machines).
pub fn greedy_incumbent(inst: &Instance) -> Option<Optimum> {
    let n = inst.num_jobs();
    let m = inst.num_machines() as MachineId;
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| inst.processing(b).cmp(&inst.processing(a)).then(a.cmp(&b)));

    let mut assignment = vec![u32::MAX; n];
    let mut loads = vec![0u64; m as usize];
    let mut ok = true;
    'outer: for &j in &order {
        let mut best: Option<(Rat, MachineId)> = None;
        for i in 0..m {
            let conflict = inst
                .graph()
                .neighbors(j)
                .iter()
                .any(|&u| assignment[u as usize] == i);
            if conflict {
                continue;
            }
            let c = completion_if(inst, &loads, i, j);
            if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                best = Some((c, i));
            }
        }
        match best {
            Some((_, i)) => {
                loads[i as usize] += job_cost(inst, i, j);
                assignment[j as usize] = i;
            }
            None => {
                ok = false;
                break 'outer;
            }
        }
    }
    if !ok {
        if m < 2 {
            return None;
        }
        let bp = bipartition(inst.graph()).ok()?;
        // Side cost of each bipartition side on each machine.
        let side_of = |j: u32| match bp.side(j) {
            bisched_graph::Side::Left => 0usize,
            bisched_graph::Side::Right => 1usize,
        };
        let mut side_cost = vec![[0u64; 2]; m as usize];
        for (i, cost) in side_cost.iter_mut().enumerate() {
            for j in 0..n as u32 {
                cost[side_of(j)] += job_cost(inst, i as MachineId, j);
            }
        }
        // Pick the ordered machine pair (left side -> a, right side -> b)
        // minimizing the makespan.
        let time = |i: MachineId, load: u64| match inst.env() {
            MachineEnvironment::Uniform { speeds } => Rat::new(load, speeds[i as usize]),
            _ => Rat::integer(load),
        };
        let mut best_pair: Option<(Rat, MachineId, MachineId)> = None;
        for a in 0..m {
            for b in 0..m {
                if a == b {
                    continue;
                }
                let mk = time(a, side_cost[a as usize][0]).max(time(b, side_cost[b as usize][1]));
                if best_pair.as_ref().is_none_or(|(c, _, _)| mk < *c) {
                    best_pair = Some((mk, a, b));
                }
            }
        }
        let (_, a, b) = best_pair.expect("m >= 2 yields at least one pair");
        loads = vec![0u64; m as usize];
        for j in 0..n as u32 {
            let i = if side_of(j) == 0 { a } else { b };
            assignment[j as usize] = i;
            loads[i as usize] += job_cost(inst, i, j);
        }
    }
    let schedule = Schedule::new(assignment);
    debug_assert!(schedule.validate(inst).is_ok());
    let makespan = schedule.makespan(inst);
    Some(Optimum { schedule, makespan })
}

fn job_cost(inst: &Instance, i: MachineId, j: u32) -> u64 {
    match inst.env() {
        MachineEnvironment::Unrelated { times } => times[i as usize][j as usize],
        _ => inst.processing(j),
    }
}

fn completion_if(inst: &Instance, loads: &[u64], i: MachineId, j: u32) -> Rat {
    let new_load = loads[i as usize] + job_cost(inst, i, j);
    match inst.env() {
        MachineEnvironment::Uniform { speeds } => Rat::new(new_load, speeds[i as usize]),
        _ => Rat::integer(new_load),
    }
}

/// How many nodes pass between wall-clock checks.
const DEADLINE_STRIDE: u64 = 256;

struct Search<'a> {
    inst: &'a Instance,
    order: Vec<u32>,
    assignment: Vec<u32>,
    loads: Vec<u64>,
    /// Completion-time denominators: the speeds on `Q`, ones on `P`/`R`.
    speeds: Vec<u64>,
    /// The makespan grid's denominators: the distinct `speeds`.
    grid: Vec<u64>,
    /// Jobs per machine; `0` marks an *empty* (interchangeable) machine.
    job_count: Vec<u32>,
    /// Per-depth candidate buffers, allocated once.
    cands: Vec<Vec<(Frac, MachineId)>>,
    /// `sym_class[i]`: lowest machine index interchangeable with `i`.
    sym_class: Vec<u32>,
    /// Scratch: which classes already offered an empty machine.
    class_seen: Vec<bool>,
    bounds: IncrementalBounds,
    best: Option<Optimum>,
    /// The largest makespan that still improves on `best`
    /// ([`grid_pred`]): `u64::MAX` before the first incumbent, `None`
    /// once nothing can.
    pred: Option<Frac>,
    nodes: u64,
    node_limit: u64,
    deadline: Option<Instant>,
    /// Set when a budget cut the search short.
    exhausted: bool,
    /// Shared race controls (cancellation + cross-engine bound).
    ctl: Option<&'a SearchCtl>,
    /// Cached foreign bound, refreshed at the deadline-check cadence.
    foreign: f64,
    /// Set when `ctl` cancellation cut the search short.
    cancelled: bool,
    /// Prune tallies per bound kind plus incumbent improvements; plain
    /// integer bumps on the hot path, surfaced in [`BnbOutcome`].
    prunes_incumbent: u64,
    prunes_foreign: u64,
    prunes_candidate: u64,
    incumbent_updates: u64,
}

impl Search<'_> {
    /// Expands the node at `depth` whose partial schedule has makespan
    /// `mk`.
    fn run(&mut self, depth: usize, mk: Frac) {
        if self.nodes >= self.node_limit {
            self.exhausted = true;
            return;
        }
        if self.nodes.is_multiple_of(DEADLINE_STRIDE) {
            if let Some(dl) = self.deadline {
                if Instant::now() >= dl {
                    self.exhausted = true;
                    return;
                }
            }
            if let Some(ctl) = self.ctl {
                if ctl.cancelled() {
                    self.exhausted = true;
                    self.cancelled = true;
                    return;
                }
                self.foreign = ctl.foreign_bound();
            }
        }
        self.nodes += 1;
        if depth == self.order.len() {
            if self.pred.is_some_and(|p| mk <= p) {
                let makespan = mk.to_rat();
                if let Some(ctl) = self.ctl {
                    ctl.publish_makespan(&makespan);
                }
                self.incumbent_updates += 1;
                // Incumbent-convergence timeline: one instant per
                // improvement — rare by construction, so safe to emit
                // even from the search's hot recursion.
                bisched_obs::instant(
                    names::BNB_INCUMBENT,
                    "bnb",
                    "makespan_floor",
                    makespan.floor(),
                );
                self.best = Some(Optimum {
                    schedule: Schedule::new(self.assignment.clone()),
                    makespan,
                });
                self.pred = grid_pred(mk, &self.grid);
            }
            return;
        }
        if self.best.is_some() || self.foreign.is_finite() {
            let lb = self.bounds.lower_bound(&self.loads, depth).max(mk);
            // Grid cut: every completion has makespan >= lb > pred, so
            // none improves on the incumbent.
            if self.pred.is_none_or(|p| lb > p) {
                self.prunes_incumbent += 1;
                return;
            }
            // Foreign-bound cut: a racing engine already achieved a
            // makespan this subtree cannot beat (conservative rounding —
            // see `search_ctl`).
            if fraction_to_f64_down(lb.work, lb.speed) >= self.foreign {
                self.prunes_foreign += 1;
                return;
            }
        }
        let j = self.order[depth];
        let m = self.inst.num_machines();
        // Collect candidates into this depth's reusable buffer: empty
        // machines are interchangeable within a symmetry class (only the
        // lowest-indexed one may be opened, and it can never conflict);
        // occupied machines are screened by the conflict bitmasks.
        let mut cands = std::mem::take(&mut self.cands[depth]);
        cands.clear();
        self.class_seen.iter_mut().for_each(|x| *x = false);
        for i in 0..m {
            if self.job_count[i] == 0 {
                let class = self.sym_class[i] as usize;
                if self.class_seen[class] {
                    continue;
                }
                self.class_seen[class] = true;
            } else if self.bounds.conflicts(j, i) {
                continue;
            }
            let load = self.loads[i] + job_cost(self.inst, i as MachineId, j);
            cands.push((Frac::new(load, self.speeds[i]), i as MachineId));
        }
        // Best-first: try machines in order of resulting completion time.
        cands.sort_unstable();
        for &(c, i) in cands.iter() {
            // Candidate cut: machine `i`'s completion only grows below
            // this node, and candidates are sorted, so the first one past
            // `pred` (at or past the incumbent) ends the whole list.
            if self.pred.is_none_or(|p| c > p) {
                self.prunes_candidate += 1;
                break;
            }
            let cost = c.work - self.loads[i as usize];
            self.loads[i as usize] = c.work;
            self.job_count[i as usize] += 1;
            self.assignment[j as usize] = i;
            self.bounds.assign(j, i as usize);
            self.run(depth + 1, mk.max(c));
            self.bounds.unassign(j, i as usize);
            self.assignment[j as usize] = u32::MAX;
            self.job_count[i as usize] -= 1;
            self.loads[i as usize] -= cost;
            if self.exhausted {
                break;
            }
        }
        self.cands[depth] = cands;
    }
}

/// The test oracle for the grid cut: the same search with every
/// completion time, makespan and bound a gcd-normalised `Rat`, cutting a
/// subtree only once its bound reaches the incumbent. The race controls
/// are left out; the comparison runs standalone.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn branch_and_bound(inst: &Instance, node_limit: u64) -> BnbOutcome {
        let n = inst.num_jobs();
        let m = inst.num_machines();
        let order = branching_order(inst);
        let mut search = Search {
            inst,
            sym_class: symmetry_classes(inst),
            class_seen: vec![false; m],
            bounds: IncrementalBounds::new(inst, &order),
            order,
            assignment: vec![u32::MAX; n],
            loads: vec![0; m],
            job_count: vec![0; m],
            cands: vec![Vec::with_capacity(m); n],
            best: greedy_incumbent(inst),
            nodes: 0,
            node_limit,
            exhausted: false,
            prunes_incumbent: 0,
            prunes_candidate: 0,
            incumbent_updates: 0,
        };
        search.run(0);
        BnbOutcome {
            complete: !search.exhausted,
            optimum: search.best,
            nodes: search.nodes,
            cancelled: false,
            prunes_incumbent: search.prunes_incumbent,
            prunes_foreign: 0,
            prunes_candidate: search.prunes_candidate,
            incumbent_updates: search.incumbent_updates,
        }
    }

    struct Search<'a> {
        inst: &'a Instance,
        order: Vec<u32>,
        assignment: Vec<u32>,
        loads: Vec<u64>,
        job_count: Vec<u32>,
        cands: Vec<Vec<(Rat, MachineId)>>,
        sym_class: Vec<u32>,
        class_seen: Vec<bool>,
        bounds: IncrementalBounds,
        best: Option<Optimum>,
        nodes: u64,
        node_limit: u64,
        exhausted: bool,
        prunes_incumbent: u64,
        prunes_candidate: u64,
        incumbent_updates: u64,
    }

    impl Search<'_> {
        fn current_makespan(&self) -> Rat {
            match self.inst.env() {
                MachineEnvironment::Uniform { speeds } => self
                    .loads
                    .iter()
                    .zip(speeds)
                    .map(|(&l, &s)| Rat::new(l, s))
                    .max()
                    .unwrap_or(Rat::ZERO),
                _ => Rat::integer(self.loads.iter().copied().max().unwrap_or(0)),
            }
        }

        fn run(&mut self, depth: usize) {
            if self.nodes >= self.node_limit {
                self.exhausted = true;
                return;
            }
            self.nodes += 1;
            if depth == self.order.len() {
                let mk = self.current_makespan();
                if self.best.as_ref().is_none_or(|b| mk < b.makespan) {
                    self.incumbent_updates += 1;
                    self.best = Some(Optimum {
                        schedule: Schedule::new(self.assignment.clone()),
                        makespan: mk,
                    });
                }
                return;
            }
            if let Some(best) = &self.best {
                let lb = self
                    .bounds
                    .lower_bound(&self.loads, depth)
                    .to_rat()
                    .max(self.current_makespan());
                if lb >= best.makespan {
                    self.prunes_incumbent += 1;
                    return;
                }
            }
            let j = self.order[depth];
            let mut cands = std::mem::take(&mut self.cands[depth]);
            cands.clear();
            self.class_seen.iter_mut().for_each(|x| *x = false);
            for i in 0..self.inst.num_machines() {
                if self.job_count[i] == 0 {
                    let class = self.sym_class[i] as usize;
                    if self.class_seen[class] {
                        continue;
                    }
                    self.class_seen[class] = true;
                } else if self.bounds.conflicts(j, i) {
                    continue;
                }
                cands.push((
                    completion_if(self.inst, &self.loads, i as MachineId, j),
                    i as MachineId,
                ));
            }
            cands.sort_unstable();
            for &(c, i) in cands.iter() {
                if self.best.as_ref().is_some_and(|b| c >= b.makespan) {
                    self.prunes_candidate += 1;
                    break;
                }
                let cost = job_cost(self.inst, i, j);
                self.loads[i as usize] += cost;
                self.job_count[i as usize] += 1;
                self.assignment[j as usize] = i;
                self.bounds.assign(j, i as usize);
                self.run(depth + 1);
                self.bounds.unassign(j, i as usize);
                self.assignment[j as usize] = u32::MAX;
                self.job_count[i as usize] -= 1;
                self.loads[i as usize] -= cost;
                if self.exhausted {
                    break;
                }
            }
            self.cands[depth] = cands;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::brute_force;
    use bisched_graph::{gilbert_bipartite, Graph};
    use bisched_model::JobSizes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_bruteforce(inst: &Instance) {
        let bf = brute_force(inst);
        let bb = branch_and_bound(inst, 10_000_000);
        assert!(bb.complete);
        match (bf, bb.optimum) {
            (Some(a), Some(b)) => {
                assert_eq!(a.makespan, b.makespan, "on {}", inst.describe());
                assert!(b.schedule.validate(inst).is_ok());
            }
            (None, None) => {}
            (a, b) => panic!(
                "feasibility disagreement: brute={:?} bnb={:?}",
                a.map(|o| o.makespan),
                b.map(|o| o.makespan)
            ),
        }
    }

    #[test]
    fn agrees_with_bruteforce_on_fixed_cases() {
        let cases: Vec<Instance> = vec![
            Instance::identical(2, vec![3, 3, 2, 2], Graph::empty(4)).unwrap(),
            Instance::identical(3, vec![1; 5], Graph::cycle(5)).unwrap(),
            Instance::uniform(vec![3, 1], vec![4, 4, 4, 1], Graph::path(4)).unwrap(),
            Instance::uniform(
                vec![5, 2, 1],
                vec![7, 3, 3, 2, 2],
                Graph::complete_bipartite(2, 3),
            )
            .unwrap(),
            Instance::unrelated(
                vec![vec![2, 9, 4, 3], vec![7, 1, 8, 2]],
                Graph::from_edges(4, &[(0, 1), (2, 3)]),
            )
            .unwrap(),
            // Interchangeable-machine shapes (symmetry breaking on).
            Instance::identical(4, vec![5, 4, 3, 3, 2, 2, 1], Graph::path(7)).unwrap(),
            Instance::uniform(vec![3, 3, 1, 1], vec![6, 5, 4, 3, 2, 1], Graph::crown(3)).unwrap(),
            Instance::unrelated(
                vec![vec![4, 2, 3], vec![4, 2, 3], vec![1, 9, 9]],
                Graph::path(3),
            )
            .unwrap(),
        ];
        for inst in &cases {
            assert_matches_bruteforce(inst);
        }
    }

    #[test]
    fn agrees_with_bruteforce_randomized() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let n = rng.gen_range(2..=8);
            let m = rng.gen_range(2..=3);
            let g = gilbert_bipartite(n / 2, n - n / 2, 0.4, &mut rng);
            let p = JobSizes::Uniform { lo: 1, hi: 9 }.sample(n, &mut rng);
            let inst = match trial % 3 {
                0 => Instance::identical(m, p, g).unwrap(),
                1 => {
                    let speeds = (0..m).map(|_| rng.gen_range(1..=4)).collect();
                    Instance::uniform(speeds, p, g).unwrap()
                }
                _ => {
                    let times = (0..m)
                        .map(|_| (0..n).map(|_| rng.gen_range(1..=9)).collect())
                        .collect();
                    Instance::unrelated(times, g).unwrap()
                }
            };
            assert_matches_bruteforce(&inst);
        }
    }

    #[test]
    fn greedy_incumbent_always_feasible_on_bipartite() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = rng.gen_range(2..=20);
            let g = gilbert_bipartite(n / 2, n - n / 2, 0.3, &mut rng);
            let p = JobSizes::Uniform { lo: 1, hi: 20 }.sample(n, &mut rng);
            let inst = Instance::identical(2, p, g).unwrap();
            let inc = greedy_incumbent(&inst).expect("bipartite on 2 machines is feasible");
            assert!(inc.schedule.validate(&inst).is_ok());
        }
    }

    #[test]
    fn greedy_fallback_picks_the_best_machine_pair() {
        // K_{2,2} forces the coloring fallback path on unrelated machines
        // where machines 2 and 3 are far better than 0 and 1 — the old
        // hardcoded pair (0, 1) would land on makespan 100.
        let g = Graph::complete_bipartite(2, 2);
        let times = vec![
            vec![100, 100, 100, 100],
            vec![100, 100, 100, 100],
            vec![1, 1, 9, 9],
            vec![9, 9, 1, 1],
        ];
        let inst = Instance::unrelated(times, g).unwrap();
        let inc = greedy_incumbent(&inst).expect("feasible");
        assert!(inc.schedule.validate(&inst).is_ok());
        assert!(
            inc.makespan <= Rat::integer(18),
            "fallback used a dominated machine pair: {}",
            inc.makespan
        );
    }

    #[test]
    fn node_limit_returns_incumbent() {
        // LPT greedy lands on 19 here while the optimum is 18, so the
        // relaxed bound (18) cannot close the root and the search must
        // actually expand nodes — the tiny budget then cuts it short.
        let g = Graph::empty(7);
        let inst = Instance::identical(2, vec![7, 7, 6, 5, 4, 4, 3], g).unwrap();
        let out = branch_and_bound(&inst, 3);
        assert!(!out.complete);
        let opt = out.optimum.expect("incumbent exists");
        assert!(opt.schedule.validate(&inst).is_ok());
        // Full search proves the optimum of 18.
        let full = branch_and_bound(&inst, 1_000_000);
        assert!(full.complete);
        assert_eq!(full.optimum.unwrap().makespan, Rat::integer(18));
    }

    #[test]
    fn finishing_on_the_last_budgeted_node_is_still_complete() {
        // The seed implementation inferred completeness from
        // `nodes < node_limit`, spuriously reporting an exact result as
        // truncated whenever the search finished with the counter at the
        // limit. Exhaustion is tracked explicitly now.
        let g = Graph::empty(7);
        let inst = Instance::identical(2, vec![7, 7, 6, 5, 4, 4, 3], g).unwrap();
        let full = branch_and_bound(&inst, u64::MAX);
        assert!(full.complete);
        let exact_budget = branch_and_bound(&inst, full.nodes);
        assert_eq!(exact_budget.nodes, full.nodes);
        assert!(
            exact_budget.complete,
            "search finished with nodes == node_limit and must count as complete"
        );
        assert_eq!(
            exact_budget.optimum.unwrap().makespan,
            full.optimum.unwrap().makespan
        );
        // One node less genuinely truncates.
        let truncated = branch_and_bound(&inst, full.nodes - 1);
        assert!(!truncated.complete);
    }

    #[test]
    fn deadline_budget_cuts_the_search() {
        let mut rng = StdRng::seed_from_u64(99);
        let g = gilbert_bipartite(10, 10, 0.3, &mut rng);
        let p = JobSizes::Uniform { lo: 1, hi: 9 }.sample(20, &mut rng);
        let inst = Instance::identical(4, p, g).unwrap();
        let out = branch_and_bound_with(
            &inst,
            &BnbLimits {
                node_limit: u64::MAX,
                deadline: Some(Duration::ZERO),
            },
        );
        assert!(!out.complete, "zero deadline must truncate the search");
        // The greedy incumbent is still returned and valid.
        let opt = out.optimum.expect("incumbent exists");
        assert!(opt.schedule.validate(&inst).is_ok());
    }

    #[test]
    fn cancellation_cuts_the_search_and_is_reported() {
        let mut rng = StdRng::seed_from_u64(99);
        let g = gilbert_bipartite(10, 10, 0.3, &mut rng);
        let p = JobSizes::Uniform { lo: 1, hi: 9 }.sample(20, &mut rng);
        let inst = Instance::identical(4, p, g).unwrap();
        // Pre-cancelled control: the search stops at the first stride
        // check (the root) and still returns the greedy incumbent.
        let ctl = SearchCtl::new();
        ctl.cancel();
        let out = branch_and_bound_ctl(&inst, &BnbLimits::default(), Some(&ctl));
        assert!(!out.complete);
        assert!(out.cancelled);
        assert!(out.nodes < DEADLINE_STRIDE);
        let opt = out.optimum.expect("incumbent exists");
        assert!(opt.schedule.validate(&inst).is_ok());
        // An uncancelled control leaves the result identical to the
        // plain run — and publishes the proven optimum.
        let ctl = SearchCtl::new();
        let racing = branch_and_bound_ctl(&inst, &BnbLimits::default(), Some(&ctl));
        let plain = branch_and_bound_with(&inst, &BnbLimits::default());
        assert!(racing.complete && !racing.cancelled);
        assert_eq!(
            racing.optimum.as_ref().unwrap().makespan,
            plain.optimum.as_ref().unwrap().makespan
        );
        let mk = &racing.optimum.unwrap().makespan;
        assert!(ctl.foreign_bound() >= mk.to_f64());
        assert!(ctl.foreign_bound() < mk.to_f64() + 1.0);
    }

    #[test]
    fn foreign_bound_prunes_but_never_below_the_true_optimum() {
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..10 {
            let n = rng.gen_range(4..=8);
            let g = gilbert_bipartite(n / 2, n - n / 2, 0.4, &mut rng);
            let p = JobSizes::Uniform { lo: 1, hi: 9 }.sample(n, &mut rng);
            let inst = match trial % 2 {
                0 => Instance::identical(3, p, g).unwrap(),
                _ => Instance::uniform(vec![3, 2, 1], p, g).unwrap(),
            };
            let plain = branch_and_bound(&inst, u64::MAX);
            let Some(opt) = plain.optimum else { continue };
            // Publish the true optimum as a foreign bound: the racing
            // search may prune everything at or above it, but whatever
            // it proves must still be consistent with that bound — the
            // race's `min(optimum, published bound)` claim.
            let ctl = SearchCtl::new();
            ctl.publish_makespan(&opt.makespan);
            let racing = branch_and_bound_ctl(&inst, &BnbLimits::default(), Some(&ctl));
            assert!(racing.complete);
            let best = racing.optimum.expect("feasible instance");
            assert!(best.schedule.validate(&inst).is_ok());
            assert!(
                best.makespan >= opt.makespan,
                "racing search invented a sub-optimal makespan: {} < {}",
                best.makespan,
                opt.makespan
            );
        }
    }

    #[test]
    fn infeasible_detected() {
        let inst = Instance::identical(2, vec![1; 5], Graph::cycle(5)).unwrap();
        let out = branch_and_bound(&inst, 1_000_000);
        assert!(out.complete);
        assert!(out.optimum.is_none());
    }

    #[test]
    fn grid_pred_is_the_largest_grid_value_below_the_incumbent() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..2000 {
            let mut grid: Vec<u64> = (0..rng.gen_range(1..=4))
                .map(|_| rng.gen_range(1..=7))
                .collect();
            grid.sort_unstable();
            grid.dedup();
            let best = Frac::new(rng.gen_range(0..=60), rng.gen_range(1..=12));
            // Brute force: scan every k / s up to one past the incumbent.
            let mut scan: Option<Frac> = None;
            for &s in &grid {
                for k in 0..=best.work * s / best.speed + 1 {
                    let v = Frac::new(k, s);
                    if v < best && scan.is_none_or(|b| v > b) {
                        scan = Some(v);
                    }
                }
            }
            assert_eq!(grid_pred(best, &grid), scan, "best {best:?} grid {grid:?}");
        }
        // Integers on `P`/`R`; a mixed `Q` grid lands between them.
        assert_eq!(grid_pred(Frac::new(19, 1), &[1]), Some(Frac::new(18, 1)));
        assert_eq!(
            grid_pred(Frac::new(27, 2), &[2, 3, 5]),
            Some(Frac::new(67, 5))
        );
        assert_eq!(grid_pred(Frac::ZERO, &[1, 3]), None);
        // A numerator past `u64::MAX` is no machine's load: it clamps.
        let max = Frac::new(u64::MAX, 1);
        assert_eq!(grid_pred(max, &[4]), Some(Frac::new(u64::MAX, 4)));
        assert_eq!(grid_pred(max, &[1, 4]), Some(Frac::new(u64::MAX - 1, 1)));
    }

    /// A random instance for the reference comparison: up to 14 jobs on
    /// 2–4 machines over a bipartite graph of random density; `Q` speeds
    /// come from `1..=7`, so mixed grids like `{5, 3, 2}` occur.
    fn random_instance(seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..=14);
        let m = rng.gen_range(2..=4);
        let p_edge = rng.gen_range(0.0..0.6);
        let g = gilbert_bipartite(n / 2, n - n / 2, p_edge, &mut rng);
        let p = JobSizes::Uniform { lo: 1, hi: 12 }.sample(n, &mut rng);
        match seed % 3 {
            0 => Instance::identical(m, p, g).unwrap(),
            1 => {
                let speeds = (0..m).map(|_| rng.gen_range(1..=7)).collect();
                Instance::uniform(speeds, p, g).unwrap()
            }
            _ => {
                let times = (0..m)
                    .map(|_| (0..n).map(|_| rng.gen_range(1..=12)).collect())
                    .collect();
                Instance::unrelated(times, g).unwrap()
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn grid_search_matches_the_reference_with_no_more_nodes(
            seed in proptest::prelude::any::<u64>()
        ) {
            let inst = random_instance(seed);
            let new = branch_and_bound(&inst, u64::MAX);
            let old = reference::branch_and_bound(&inst, u64::MAX);
            proptest::prop_assert!(new.complete && old.complete);
            proptest::prop_assert!(
                new.nodes <= old.nodes,
                "{}: {} nodes, reference {}", inst.describe(), new.nodes, old.nodes
            );
            match (&new.optimum, &old.optimum) {
                (Some(a), Some(b)) => {
                    proptest::prop_assert_eq!(a.makespan, b.makespan);
                    proptest::prop_assert_eq!(&a.schedule, &b.schedule);
                }
                (None, None) => {}
                _ => proptest::prop_assert!(false, "feasibility disagreement"),
            }
            if inst.num_jobs() <= 9 {
                proptest::prop_assert_eq!(
                    brute_force(&inst).map(|o| o.makespan),
                    new.optimum.map(|o| o.makespan)
                );
            }
            // Under a node budget every incumbent arrives no later.
            for budget in [3, 20, 100] {
                let new = branch_and_bound(&inst, budget);
                let old = reference::branch_and_bound(&inst, budget);
                if let Some(b) = old.optimum {
                    let a = new.optimum.expect("the reference found an incumbent");
                    proptest::prop_assert!(a.makespan <= b.makespan);
                }
            }
        }
    }
}
