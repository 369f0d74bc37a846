//! # bisched-cp
//!
//! A constraint-propagation + branching solver for
//! `{P,Q,R} | G | C_max`: the CP-style member of the solver portfolio,
//! built to win exactly where the branch-and-bound oracle thrashes —
//! dense incompatibility graphs whose conflict structure propagates far
//! harder than load arithmetic alone.
//!
//! ## Model
//!
//! Decision variables are job → machine assignments with bitmask domains
//! (one `u64` per job, so `m ≤ 64`). All arithmetic is exact and
//! integral: uniform speeds are cleared by scaling every cost by
//! `L = lcm(speeds)` (`c[j][i] = p_j · L / s_i`; `L = 1` on `P`/`R`), so
//! a makespan bound is a single integer `T` and a machine is feasible
//! for a job iff its scaled load stays `≤ T`.
//!
//! ## Search
//!
//! The optimum is found by binary-searching `T` downward from a greedy
//! incumbent ([`bisched_exact::greedy_incumbent`]) to the root bound of
//! [`bisched_exact::lower_bounds`] (the fractional, largest-job and
//! edge-pair bounds, rounded up into scaled units; on `Q` it divides the
//! total work by the total speed). Each probe runs a propagation-backed
//! decision search —
//!
//! * **load/horizon propagation**: assigning a job removes every
//!   machine whose remaining capacity under `T` it would overflow from
//!   the other jobs' domains, plus a fractional total-capacity check
//!   (sum of domain-minimal costs vs. total remaining slack);
//! * **conflict-graph propagation**: assigning a job removes that
//!   machine from every unassigned neighbor's domain; singleton domains
//!   assign immediately (unit propagation); an empty domain backtracks;
//! * **activity-based branching with restarts**: branch on the smallest
//!   domain (failure-count activity breaks ties), try machines best-fit
//!   first, and restart with a doubled conflict limit — activities
//!   survive restarts, and an UNSAT proof only counts when a run
//!   finishes without tripping the limit.
//!
//! A SAT probe tightens the upper bound to the achieved makespan; a
//! finished UNSAT probe raises the proven lower bound. The whole search
//! runs under a [`CpLimits`] node/deadline budget and an optional shared
//! [`SearchCtl`]: cancellation stops it cooperatively mid-probe, every
//! new incumbent is published, and bounds published by racing engines
//! shrink the remaining `T` range (see [`CpOutcome::proven_lower`] for
//! what a "complete" run then proves).

#![warn(missing_docs)]
use bisched_exact::bruteforce::Optimum;
use bisched_exact::search_ctl::SearchCtl;
use bisched_model::{Instance, MachineEnvironment, Rat, Schedule};
use bisched_obs::names;
use std::time::{Duration, Instant};

/// Search budgets for [`cp_solve_with`], mirroring
/// [`bisched_exact::BnbLimits`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpLimits {
    /// Maximum decision nodes across all probes and restarts.
    pub node_limit: u64,
    /// Optional wall-clock budget; checked every few hundred nodes.
    pub deadline: Option<Duration>,
}

impl Default for CpLimits {
    fn default() -> Self {
        CpLimits {
            node_limit: u64::MAX,
            deadline: None,
        }
    }
}

impl CpLimits {
    /// A pure node budget (no deadline).
    pub fn nodes(node_limit: u64) -> Self {
        CpLimits {
            node_limit,
            deadline: None,
        }
    }
}

/// Outcome of a CP solve.
#[derive(Clone, Debug)]
pub struct CpOutcome {
    /// Best schedule found (`None` when none was found — infeasible, or
    /// the budget ran out before the first SAT probe).
    pub best: Option<Optimum>,
    /// `true` iff the binary search closed: `best` is proven optimal
    /// (or the instance proven infeasible when `best` is `None`).
    ///
    /// Under a [`SearchCtl`], foreign published bounds may close the
    /// search from above; the completed proof is then the statement of
    /// [`proven_lower`](Self::proven_lower) — no schedule strictly below
    /// it exists — and `best` itself need not be optimal.
    pub complete: bool,
    /// When `complete`, the proven greatest lower bound: **no schedule
    /// with makespan strictly below this exists**. Equals `best`'s
    /// makespan for a standalone (control-free) complete run on a
    /// feasible instance; `None` when infeasible or incomplete.
    pub proven_lower: Option<Rat>,
    /// Decision nodes expanded across all probes and restarts.
    pub nodes: u64,
    /// Backtracks (dead ends) across all probes and restarts.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Domain wipes performed by propagation (neighbor and capacity
    /// removals plus unit-propagated singletons), across all probes.
    pub propagations: u64,
    /// Binary-search probes answered SAT (each tightened the upper
    /// bound).
    pub probes_sat: u64,
    /// Binary-search probes that finished UNSAT (each raised the proven
    /// lower bound).
    pub probes_unsat: u64,
    /// `true` iff a [`SearchCtl`] cancellation cut the solve short (a
    /// special case of `!complete`).
    pub cancelled: bool,
}

/// Solves `inst` exactly under `limits`; see [`cp_solve_ctl`] for the
/// race-aware form.
///
/// `Err` means the engine is not applicable to this instance (more than
/// 64 machines, or speed scaling overflows `u64`), never that the
/// instance is infeasible — that is a complete outcome with no `best`.
pub fn cp_solve_with(inst: &Instance, limits: &CpLimits) -> Result<CpOutcome, String> {
    cp_solve_ctl(inst, limits, None)
}

/// Solves `inst` under `limits` and an optional shared [`SearchCtl`]
/// (cooperative cancellation, cross-engine incumbent bounds).
pub fn cp_solve_ctl(
    inst: &Instance,
    limits: &CpLimits,
    ctl: Option<&SearchCtl>,
) -> Result<CpOutcome, String> {
    let n = inst.num_jobs();
    let m = inst.num_machines();
    if m > 64 {
        return Err(format!("cp requires m <= 64 machines, instance has {m}"));
    }
    let costs = scaled_costs(inst)?;
    let scale = scaled_costs_scale(inst)?;

    // Total scaled work if every job ran on its worst machine bounds any
    // feasible makespan; also the overflow guard for `T` arithmetic.
    let mut t_max: u64 = 0;
    for row in &costs {
        let worst = row.iter().copied().max().unwrap_or(0);
        t_max = t_max
            .checked_add(worst)
            .ok_or_else(|| "cp: total scaled work overflows u64".to_string())?;
    }

    let mut lo = scaled_root_bound(inst, scale, t_max);

    let mut stats = Stats {
        nodes: 0,
        conflicts: 0,
        restarts: 0,
        propagations: 0,
        probes_sat: 0,
        probes_unsat: 0,
        node_limit: limits.node_limit,
        deadline: limits.deadline.map(|d| Instant::now() + d),
        ctl,
        cancelled: false,
    };
    let mut search = Decide::new(inst, &costs, n, m);

    // Upper bound: the greedy/LPT incumbent, exactly rescaled; a fresh
    // decision probe at `t_max` settles feasibility when the greedy
    // dead-ends.
    let mut best: Option<(Vec<u32>, u64)>;
    if let Some(greedy) = bisched_exact::greedy_incumbent(inst) {
        let scaled = rat_to_scaled(&greedy.makespan, scale);
        if let Some(ctl) = ctl {
            ctl.publish_makespan(&greedy.makespan);
        }
        best = Some((schedule_assignment(&greedy.schedule, n), scaled));
    } else {
        match search.probe(t_max, &mut stats) {
            Probe::Sat(assignment, achieved) => {
                publish(ctl, inst, &assignment);
                best = Some((assignment, achieved));
            }
            Probe::Unsat => {
                // No schedule exists at the capacity-free horizon:
                // proven infeasible.
                return Ok(outcome(inst, None, true, None, &stats));
            }
            Probe::Stopped => {
                return Ok(outcome(inst, None, false, None, &stats));
            }
        }
    }

    // Binary search `T` downward: invariant `opt >= lo/L` (everything
    // below `lo` is proven UNSAT) and `best` achieves `hi`.
    let mut complete = true;
    loop {
        let mut hi = best.as_ref().map(|(_, s)| *s).unwrap_or(t_max);
        if let Some(ctl) = ctl {
            if ctl.cancelled() {
                stats.cancelled = true;
                complete = false;
                break;
            }
            // A racing engine's published bound shrinks the range from
            // above: its true achieved makespan is <= the published
            // value, so a scaled horizon at or above it is achievable
            // (by that engine), and probing there is wasted work.
            let foreign = ctl.foreign_bound();
            if foreign.is_finite() {
                let foreign_scaled = (foreign * scale as f64).next_up().ceil() as u64;
                hi = hi.min(foreign_scaled);
            }
        }
        if lo >= hi {
            break;
        }
        // Midpoint of [lo, hi - 1]: every probe targets a strict
        // improvement over the known-achievable `hi`.
        let mid = lo + (hi - 1 - lo) / 2;
        match search.probe(mid, &mut stats) {
            Probe::Sat(assignment, achieved) => {
                publish(ctl, inst, &assignment);
                best = Some((assignment, achieved));
            }
            Probe::Unsat => lo = mid + 1,
            Probe::Stopped => {
                complete = false;
                break;
            }
        }
    }

    let proven_lower = complete.then(|| Rat::new(lo, scale));
    Ok(outcome(
        inst,
        best.map(|(a, _)| a),
        complete,
        proven_lower,
        &stats,
    ))
}

fn outcome(
    inst: &Instance,
    assignment: Option<Vec<u32>>,
    complete: bool,
    proven_lower: Option<Rat>,
    stats: &Stats,
) -> CpOutcome {
    let best = assignment.map(|a| {
        let schedule = Schedule::new(a);
        debug_assert!(schedule.validate(inst).is_ok());
        let makespan = schedule.makespan(inst);
        Optimum { schedule, makespan }
    });
    CpOutcome {
        best,
        complete,
        proven_lower,
        nodes: stats.nodes,
        conflicts: stats.conflicts,
        restarts: stats.restarts,
        propagations: stats.propagations,
        probes_sat: stats.probes_sat,
        probes_unsat: stats.probes_unsat,
        cancelled: stats.cancelled,
    }
}

fn publish(ctl: Option<&SearchCtl>, inst: &Instance, assignment: &[u32]) {
    if let Some(ctl) = ctl {
        let mk = Schedule::new(assignment.to_vec()).makespan(inst);
        ctl.publish_makespan(&mk);
    }
}

fn schedule_assignment(schedule: &Schedule, n: usize) -> Vec<u32> {
    (0..n as u32).map(|j| schedule.machine_of(j)).collect()
}

/// `lcm(speeds)` on `Q` (1 on `P`/`R`), the common denominator clearing
/// every per-machine rate.
fn scaled_costs_scale(inst: &Instance) -> Result<u64, String> {
    match inst.env() {
        MachineEnvironment::Uniform { speeds } => {
            let mut l: u64 = 1;
            for &s in speeds {
                let g = gcd(l, s);
                l = (l / g)
                    .checked_mul(s)
                    .ok_or_else(|| "cp: lcm of speeds overflows u64".to_string())?;
            }
            Ok(l)
        }
        _ => Ok(1),
    }
}

/// Integer scaled cost matrix `c[j][i]`: the load machine `i` gains from
/// job `j`, in units of `1/L` of makespan.
fn scaled_costs(inst: &Instance) -> Result<Vec<Vec<u64>>, String> {
    let n = inst.num_jobs();
    let m = inst.num_machines();
    let scale = scaled_costs_scale(inst)?;
    let mut costs = vec![vec![0u64; m]; n];
    for (j, row) in costs.iter_mut().enumerate() {
        for (i, c) in row.iter_mut().enumerate() {
            *c = match inst.env() {
                MachineEnvironment::Unrelated { times } => times[i][j],
                MachineEnvironment::Uniform { speeds } => {
                    let w = scale / speeds[i];
                    inst.processing(j as u32)
                        .checked_mul(w)
                        .ok_or_else(|| "cp: scaled processing time overflows u64".to_string())?
                }
                MachineEnvironment::Identical { .. } => inst.processing(j as u32),
            };
        }
    }
    Ok(costs)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// The lower bounds module's root bound (fractional load over the total
/// speed, the largest job on the fastest machine, the edge-pair bound)
/// rounded up into scaled units: `L·OPT` is an integer at or above
/// `L·bound`, so the ceiling is still a lower bound. Capped at `t_max`,
/// which bounds every feasible scaled makespan.
fn scaled_root_bound(inst: &Instance, scale: u64, t_max: u64) -> u64 {
    let root = bisched_exact::lower_bounds::root_lower_bound(inst).to_rat();
    (root.num() as u128 * scale as u128)
        .div_ceil(root.den() as u128)
        .min(t_max as u128) as u64
}

/// Exact rescale of a rational makespan: `r · scale`, which is integral
/// for any schedule's makespan (the denominator divides some speed,
/// which divides `scale`).
fn rat_to_scaled(r: &Rat, scale: u64) -> u64 {
    (r.num() as u128 * scale as u128 / r.den() as u128) as u64
}

/// How many nodes pass between deadline/cancellation checks.
const CHECK_STRIDE: u64 = 256;
/// First restart fires after this many conflicts in one run.
const RESTART_BASE: u64 = 128;

struct Stats<'a> {
    nodes: u64,
    conflicts: u64,
    restarts: u64,
    propagations: u64,
    probes_sat: u64,
    probes_unsat: u64,
    node_limit: u64,
    deadline: Option<Instant>,
    ctl: Option<&'a SearchCtl>,
    cancelled: bool,
}

impl Stats<'_> {
    /// Charges one decision node; `false` means a budget or cancellation
    /// stop.
    fn charge(&mut self) -> bool {
        if self.nodes >= self.node_limit {
            return false;
        }
        if self.nodes.is_multiple_of(CHECK_STRIDE) {
            if let Some(dl) = self.deadline {
                if Instant::now() >= dl {
                    return false;
                }
            }
            if let Some(ctl) = self.ctl {
                if ctl.cancelled() {
                    self.cancelled = true;
                    return false;
                }
            }
        }
        self.nodes += 1;
        true
    }
}

/// One decision probe's answer.
enum Probe {
    /// A schedule with scaled makespan `<= T` exists; the achieved
    /// scaled makespan rides along (it may beat `T`).
    Sat(Vec<u32>, u64),
    /// Proven: no schedule with scaled makespan `<= T` exists.
    Unsat,
    /// Budget or cancellation stop — no verdict.
    Stopped,
}

/// Why a search run unwound.
enum Stop {
    /// Budget/cancellation: abandon the whole probe.
    Budget,
    /// Conflict limit: restart this probe with a doubled limit.
    Restart,
}

const UNASSIGNED: u32 = u32::MAX;

/// The propagation-backed decision solver, reused across probes (domains
/// and loads are rebuilt per probe; activities persist for the whole
/// solve).
struct Decide<'a> {
    inst: &'a Instance,
    costs: &'a [Vec<u64>],
    n: usize,
    m: usize,
    full_domain: u64,
    domain: Vec<u64>,
    assigned: Vec<u32>,
    loads: Vec<u64>,
    /// Failure-count branching activity, persisted across restarts.
    activity: Vec<u64>,
    /// Undo log of domain wipes: `(job, previous domain)`.
    trail: Vec<(u32, u64)>,
    /// Undo log of assignments (decisions and propagated singletons).
    assign_log: Vec<u32>,
    /// Conflicts charged in the current run (restart trigger).
    run_conflicts: u64,
    run_conflict_limit: u64,
}

impl<'a> Decide<'a> {
    fn new(inst: &'a Instance, costs: &'a [Vec<u64>], n: usize, m: usize) -> Self {
        let full_domain = if m == 64 { u64::MAX } else { (1u64 << m) - 1 };
        Decide {
            inst,
            costs,
            n,
            m,
            full_domain,
            domain: vec![full_domain; n],
            assigned: vec![UNASSIGNED; n],
            loads: vec![0; m],
            activity: vec![0; n],
            trail: Vec::new(),
            assign_log: Vec::new(),
            run_conflicts: 0,
            run_conflict_limit: RESTART_BASE,
        }
    }

    /// Decides whether a schedule with scaled makespan `<= t` exists,
    /// restarting on conflict-limit trips until a run finishes.
    fn probe(&mut self, t: u64, stats: &mut Stats) -> Probe {
        self.run_conflict_limit = RESTART_BASE;
        loop {
            self.reset(t);
            // Root propagation: jobs whose domain is already singleton
            // (or empty) under `t` settle before any branching.
            let mut root_ok = true;
            for j in 0..self.n as u32 {
                if self.domain[j as usize] == 0 {
                    root_ok = false;
                    break;
                }
                if self.assigned[j as usize] == UNASSIGNED
                    && self.domain[j as usize].count_ones() == 1
                {
                    let i = self.domain[j as usize].trailing_zeros();
                    if !self.assign_and_propagate(j, i, t, stats) {
                        root_ok = false;
                        break;
                    }
                }
            }
            if !root_ok {
                stats.probes_unsat += 1;
                bisched_obs::instant(names::CP_PROBE_UNSAT, "cp", "t_scaled", t);
                return Probe::Unsat;
            }
            match self.run(t, stats) {
                Ok(true) => {
                    let achieved = *self.loads.iter().max().unwrap_or(&0);
                    stats.probes_sat += 1;
                    bisched_obs::instant(names::CP_PROBE_SAT, "cp", "achieved_scaled", achieved);
                    return Probe::Sat(self.assigned.clone(), achieved);
                }
                Ok(false) => {
                    stats.probes_unsat += 1;
                    bisched_obs::instant(names::CP_PROBE_UNSAT, "cp", "t_scaled", t);
                    return Probe::Unsat;
                }
                Err(Stop::Budget) => return Probe::Stopped,
                Err(Stop::Restart) => {
                    stats.restarts += 1;
                    bisched_obs::instant(
                        names::CP_RESTART,
                        "cp",
                        "conflict_limit",
                        self.run_conflict_limit,
                    );
                    self.run_conflict_limit = self.run_conflict_limit.saturating_mul(2);
                }
            }
        }
    }

    fn reset(&mut self, t: u64) {
        self.assigned.fill(UNASSIGNED);
        self.loads.fill(0);
        self.trail.clear();
        self.assign_log.clear();
        self.run_conflicts = 0;
        for (j, d) in self.domain.iter_mut().enumerate() {
            // A machine is in `j`'s root domain iff `j` alone fits `t`.
            let mut mask = 0u64;
            for i in 0..self.m {
                if self.costs[j][i] <= t {
                    mask |= 1 << i;
                }
            }
            *d = mask & self.full_domain;
        }
    }

    /// DFS under horizon `t`. `Ok(true)`: full assignment built (state
    /// holds it); `Ok(false)`: subtree exhausted.
    fn run(&mut self, t: u64, stats: &mut Stats) -> Result<bool, Stop> {
        if !stats.charge() {
            return Err(Stop::Budget);
        }
        // Branch job: smallest live domain, most failures, largest
        // cheapest-cost. All assigned means SAT.
        let mut branch: Option<(u32, u32)> = None; // (domain size, job)
        let mut slack_total: u128 = 0;
        let mut need_total: u128 = 0;
        for i in 0..self.m {
            slack_total += (t - self.loads[i].min(t)) as u128;
        }
        for j in 0..self.n as u32 {
            if self.assigned[j as usize] != UNASSIGNED {
                continue;
            }
            let d = self.domain[j as usize];
            debug_assert!(d != 0, "empty domains must backtrack before branching");
            let mut cheapest = u64::MAX;
            let mut bits = d;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                cheapest = cheapest.min(self.costs[j as usize][i]);
            }
            need_total += cheapest as u128;
            let size = d.count_ones();
            let better = match branch {
                None => true,
                Some((bs, bj)) => {
                    let (ba, bc) = (self.activity[bj as usize], self.cheapest(bj));
                    let (ja, jc) = (self.activity[j as usize], cheapest);
                    (size, std::cmp::Reverse(ja), std::cmp::Reverse(jc))
                        < (bs, std::cmp::Reverse(ba), std::cmp::Reverse(bc))
                }
            };
            if better {
                branch = Some((size, j));
            }
        }
        let Some((_, j)) = branch else {
            return Ok(true);
        };
        // Fractional capacity check: the cheapest possible completion of
        // the unassigned jobs must fit the total remaining slack.
        if need_total > slack_total {
            self.conflict(j, stats)?;
            return Ok(false);
        }

        // Value order: best fit (smallest resulting load) first.
        let mut cands: Vec<(u64, u32)> = Vec::with_capacity(self.m);
        let mut bits = self.domain[j as usize];
        while bits != 0 {
            let i = bits.trailing_zeros();
            bits &= bits - 1;
            cands.push((
                self.loads[i as usize] + self.costs[j as usize][i as usize],
                i,
            ));
        }
        cands.sort_unstable();
        for &(_, i) in &cands {
            let trail_mark = self.trail.len();
            let assign_mark = self.assign_log.len();
            if self.assign_and_propagate(j, i, t, stats) {
                match self.run(t, stats) {
                    Ok(true) => return Ok(true),
                    Ok(false) => {}
                    Err(stop) => {
                        self.undo(trail_mark, assign_mark);
                        return Err(stop);
                    }
                }
            }
            self.undo(trail_mark, assign_mark);
        }
        self.conflict(j, stats)?;
        Ok(false)
    }

    fn cheapest(&self, j: u32) -> u64 {
        let mut best = u64::MAX;
        let mut bits = self.domain[j as usize];
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            best = best.min(self.costs[j as usize][i]);
        }
        best
    }

    /// Charges a dead end to `j`'s activity and trips the restart policy.
    fn conflict(&mut self, j: u32, stats: &mut Stats) -> Result<(), Stop> {
        stats.conflicts += 1;
        self.run_conflicts += 1;
        self.activity[j as usize] += 1;
        if self.run_conflicts >= self.run_conflict_limit {
            return Err(Stop::Restart);
        }
        Ok(())
    }

    /// Assigns `j -> i` and runs propagation to a fixpoint: neighbor and
    /// capacity domain wipes, then unit-propagating every singleton.
    /// `false` means some domain emptied (state is left for `undo`).
    /// Every domain wipe is charged to `stats.propagations`.
    fn assign_and_propagate(&mut self, j: u32, i: u32, t: u64, stats: &mut Stats) -> bool {
        let mut queue = vec![(j, i)];
        while let Some((j, i)) = queue.pop() {
            if self.assigned[j as usize] != UNASSIGNED {
                // Already settled by an earlier propagation on the same
                // machine: consistent assignments are fine.
                if self.assigned[j as usize] == i {
                    continue;
                }
                return false;
            }
            if self.domain[j as usize] & (1 << i) == 0 {
                return false;
            }
            self.assigned[j as usize] = i;
            self.assign_log.push(j);
            self.loads[i as usize] += self.costs[j as usize][i as usize];
            let slack = t.saturating_sub(self.loads[i as usize]);
            let neighbors = self.inst.graph().neighbors(j);
            let mut nb_mark = 0usize;
            for k in 0..self.n as u32 {
                if self.assigned[k as usize] != UNASSIGNED {
                    continue;
                }
                let is_neighbor = {
                    // Neighbor lists are sorted job ids; walk in step.
                    while nb_mark < neighbors.len() && neighbors[nb_mark] < k {
                        nb_mark += 1;
                    }
                    nb_mark < neighbors.len() && neighbors[nb_mark] == k
                };
                let d = self.domain[k as usize];
                if d & (1 << i) == 0 {
                    continue;
                }
                let wipe = is_neighbor || self.costs[k as usize][i as usize] > slack;
                if !wipe {
                    continue;
                }
                self.trail.push((k, d));
                stats.propagations += 1;
                let nd = d & !(1 << i);
                self.domain[k as usize] = nd;
                if nd == 0 {
                    return false;
                }
                if nd.count_ones() == 1 {
                    queue.push((k, nd.trailing_zeros()));
                }
            }
        }
        true
    }

    /// Rolls domains and assignments back to the given marks.
    fn undo(&mut self, trail_mark: usize, assign_mark: usize) {
        while self.trail.len() > trail_mark {
            let (k, d) = self.trail.pop().unwrap();
            self.domain[k as usize] = d;
        }
        while self.assign_log.len() > assign_mark {
            let j = self.assign_log.pop().unwrap();
            let i = self.assigned[j as usize];
            self.loads[i as usize] -= self.costs[j as usize][i as usize];
            self.assigned[j as usize] = UNASSIGNED;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_exact::{branch_and_bound, brute_force};
    use bisched_graph::{gilbert_bipartite, Graph};
    use bisched_model::JobSizes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_bruteforce(inst: &Instance) {
        let bf = brute_force(inst);
        let cp = cp_solve_with(inst, &CpLimits::default()).expect("applicable");
        assert!(cp.complete, "unbudgeted cp must complete");
        assert!(!cp.cancelled);
        match (bf, cp.best) {
            (Some(a), Some(b)) => {
                assert_eq!(a.makespan, b.makespan, "on {}", inst.describe());
                assert!(b.schedule.validate(inst).is_ok());
                assert_eq!(cp.proven_lower, Some(a.makespan));
            }
            (None, None) => assert_eq!(cp.proven_lower, None),
            (a, b) => panic!(
                "feasibility disagreement: brute={:?} cp={:?}",
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
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..30 {
            let n = rng.gen_range(2..=8);
            let m = rng.gen_range(2..=3);
            let g = gilbert_bipartite(n / 2, n - n / 2, 0.5, &mut rng);
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
    fn agrees_with_branch_and_bound_on_oracle_scale_dense_graphs() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..4 {
            let half = 10;
            let g = gilbert_bipartite(half, half, 0.6, &mut rng);
            let p = JobSizes::Uniform { lo: 1, hi: 20 }.sample(2 * half, &mut rng);
            let inst = match trial % 2 {
                0 => Instance::identical(4, p, g).unwrap(),
                _ => Instance::uniform(vec![4, 2, 2, 1], p, g).unwrap(),
            };
            let bb = branch_and_bound(&inst, u64::MAX);
            assert!(bb.complete);
            let cp = cp_solve_with(&inst, &CpLimits::default()).expect("applicable");
            assert!(cp.complete);
            assert_eq!(
                bb.optimum.map(|o| o.makespan),
                cp.best.map(|o| o.makespan),
                "on {}",
                inst.describe()
            );
        }
    }

    #[test]
    fn node_budget_truncates_with_incumbent() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = gilbert_bipartite(12, 12, 0.4, &mut rng);
        let p = JobSizes::Uniform { lo: 1, hi: 30 }.sample(24, &mut rng);
        let inst = Instance::identical(3, p, g).unwrap();
        let out = cp_solve_with(&inst, &CpLimits::nodes(1)).expect("applicable");
        assert!(!out.complete);
        assert!(out.proven_lower.is_none());
        // The greedy incumbent still rides along.
        let best = out.best.expect("greedy incumbent");
        assert!(best.schedule.validate(&inst).is_ok());
    }

    #[test]
    fn zero_deadline_truncates() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = gilbert_bipartite(12, 12, 0.4, &mut rng);
        let p = JobSizes::Uniform { lo: 1, hi: 30 }.sample(24, &mut rng);
        let inst = Instance::identical(3, p, g).unwrap();
        let out = cp_solve_with(
            &inst,
            &CpLimits {
                node_limit: u64::MAX,
                deadline: Some(Duration::ZERO),
            },
        )
        .expect("applicable");
        assert!(!out.complete);
    }

    #[test]
    fn cancellation_stops_the_solve_and_is_reported() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = gilbert_bipartite(12, 12, 0.4, &mut rng);
        let p = JobSizes::Uniform { lo: 1, hi: 30 }.sample(24, &mut rng);
        let inst = Instance::identical(3, p, g).unwrap();
        let ctl = SearchCtl::new();
        ctl.cancel();
        let out = cp_solve_ctl(&inst, &CpLimits::default(), Some(&ctl)).expect("applicable");
        assert!(!out.complete);
        assert!(out.cancelled);
    }

    #[test]
    fn foreign_bound_at_the_optimum_closes_the_search_from_above() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = gilbert_bipartite(6, 6, 0.5, &mut rng);
        let p = JobSizes::Uniform { lo: 1, hi: 9 }.sample(12, &mut rng);
        let inst = Instance::identical(3, p, g).unwrap();
        let opt = branch_and_bound(&inst, u64::MAX).optimum.expect("feasible");
        let ctl = SearchCtl::new();
        ctl.publish_makespan(&opt.makespan);
        let out = cp_solve_ctl(&inst, &CpLimits::default(), Some(&ctl)).expect("applicable");
        assert!(out.complete);
        // The proven lower bound certifies the foreign winner: nothing
        // strictly below it exists, and the optimum sits at or above it.
        let lower = out.proven_lower.expect("complete feasible run");
        assert!(lower <= opt.makespan);
        assert!(out.best.expect("feasible").makespan >= lower);
    }

    #[test]
    fn infeasible_is_proven() {
        let inst = Instance::identical(2, vec![1; 5], Graph::cycle(5)).unwrap();
        let out = cp_solve_with(&inst, &CpLimits::default()).expect("applicable");
        assert!(out.complete);
        assert!(out.best.is_none());
        assert!(out.proven_lower.is_none());
    }

    #[test]
    fn root_bound_dominates_the_old_start_and_stays_below_the_optimum() {
        let mut rng = StdRng::seed_from_u64(29);
        for trial in 0..120 {
            let n = rng.gen_range(1..=8);
            let m = rng.gen_range(2..=4);
            let g = gilbert_bipartite(n / 2, n - n / 2, rng.gen_range(0.0..0.6), &mut rng);
            let p = JobSizes::Uniform { lo: 1, hi: 12 }.sample(n, &mut rng);
            let inst = match trial % 3 {
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
            };
            let scale = scaled_costs_scale(&inst).unwrap();
            let costs = scaled_costs(&inst).unwrap();
            // The start the binary search had before it took the shared
            // root bound: max(⌈Σ min-cost / m⌉, max min-cost).
            let mins: Vec<u64> = costs.iter().map(|r| *r.iter().min().unwrap()).collect();
            let old = mins
                .iter()
                .sum::<u64>()
                .div_ceil(m as u64)
                .max(*mins.iter().max().unwrap());
            let lo = scaled_root_bound(&inst, scale, u64::MAX);
            let opt = brute_force(&inst).map(|o| o.makespan);
            if matches!(inst.env(), MachineEnvironment::Uniform { .. }) {
                assert!(lo >= old, "{}: lo {lo} < old {old}", inst.describe());
            } else {
                assert_eq!(lo, old, "{}: P and R keep their start", inst.describe());
            }
            let cp = cp_solve_with(&inst, &CpLimits::default()).expect("applicable");
            assert!(cp.complete);
            if let Some(opt) = opt {
                assert!(
                    Rat::new(lo, scale) <= opt,
                    "{}: lo {lo}/{scale} > {opt}",
                    inst.describe()
                );
                assert!(cp.proven_lower.expect("feasible") <= opt);
            }
        }
    }

    #[test]
    fn too_many_machines_is_not_applicable() {
        let inst = Instance::identical(65, vec![1; 4], Graph::empty(4)).unwrap();
        assert!(cp_solve_with(&inst, &CpLimits::default()).is_err());
    }
}
