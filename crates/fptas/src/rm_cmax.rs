//! FPTAS for `R2 || C_max` (two unrelated machines).
//!
//! The paper uses the Jansen–Porkolab FPTAS \[15\] as a black box inside
//! Algorithm 5 and Theorem 4. Any `(1+ε)` scheme preserves every claim, so
//! we implement the classical Horowitz–Sahni approach instead: sweep jobs,
//! maintain the set of reachable machine-load pairs `(l0, l1)`, and *trim*
//! after every job by bucketing `l0` on an additive grid of width
//! `w = max(1, ⌊ε·LB/n⌋)` while keeping the exact minimum `l1` per bucket.
//! `n` counts the matrix's columns and `LB = max(⌈Σ_j min(p0j, p1j) / 2⌉,
//! max_j min(p0j, p1j))` lower-bounds the optimum: every job adds at least
//! its row minimum to one machine.
//!
//! Error analysis: a trim replaces a state by its bucket's representative,
//! whose `l0` is at most `w − 1` larger and whose `l1` is no larger. The
//! errors add up instead of compounding, so after `n` trims a surviving
//! state sits within `n·w ≤ ε·LB ≤ ε·OPT` of the optimum's loads, and its
//! makespan is at most `(1+ε)·OPT`. `w` is the exact floor of `ε·LB/n`
//! (see `bucket_width`): a rounded-up `f64` quotient would break
//! `n·w ≤ ε·LB`. With `ε = 0`, `w = 1`: every distinct `l0` is its own
//! bucket and the sweep is the exact pseudo-polynomial Pareto DP — the
//! mode Theorem 4 exploits with `ε = 1/(n+1)`-style parameters.
//!
//! ## Who reaches the sweep
//!
//! The solver enters only through Algorithm 5
//! (`bisched_core::r2_fptas_with`). Algorithm 1's S1 step and the
//! Theorem 4 `Q2 | p_j = 1` route call Algorithm 5 too, and the paper
//! needs the scheme for nothing but two machines, so the entry points
//! take exactly two rows: `&[Vec<u64>; 2]`.
//!
//! ## The merge
//!
//! Each layer is kept sorted by `l0`. Its two child lists, `(l0 + p0j,
//! l1)` for job `j` on machine 0 and `(l0, l1 + p1j)` on machine 1, are
//! then sorted too, so one linear merge visits every candidate in `l0`
//! order. Bucket `k` is the interval `[k·w, (k+1)·w)`, so a bucket's
//! candidates arrive as one contiguous run, whose end one division at its
//! first candidate finds.
//!
//! * A run keeps its smallest `l1`. On an equal `l1` it keeps the smaller
//!   `l0`, the candidate merged first.
//! * With pruning on, a run winner whose `l1` is not below the last kept
//!   state's is dominated and dropped: the two-machine Pareto rule. With
//!   pruning off every run winner is kept.
//! * Layers come out strictly increasing in `l0` and, with pruning,
//!   strictly decreasing in `l1` (debug-asserted per layer).
//!
//! No hash map, no per-layer sort and no per-candidate binary search sit
//! on this path.
//!
//! ## Around the merge
//!
//! * **Job order** — [`rm_cmax_fptas_with`] sorts the columns once, largest
//!   jobs first: row minimum descending, ties on the column's values, then
//!   on index. The incumbent, the suffix bounds and every sweep (coarsening
//!   retries included) run on the sorted matrix, and the schedule is mapped
//!   back to the caller's job order. The trimming bound above never uses
//!   the order: each job is one trim of less than `w`, whichever position
//!   it takes. Large jobs first keeps the trimmed layers narrow: the small
//!   jobs come last, when they move the loads by less than a bucket, so
//!   their children mostly merge back into their parents' buckets. And
//!   since the sort key fixes the sorted matrix, the result, counters
//!   included, does not depend on the caller's job order.
//! * **Incumbent pruning** — a greedy schedule (LPT on the per-job row
//!   minima, min-resulting-load machine) seeds an upper bound; any state
//!   whose larger load, or fractional-average completion bound
//!   (`(l0 + l1 + Σ remaining row minima) / 2`, the suffix analogue of
//!   `exact::lower_bounds`), exceeds it is dead — guarantee-preserving
//!   because loads only grow and the result is never worse than the
//!   incumbent itself (see [`rm_cmax_fptas_with`]).
//! * **State cap** — [`FptasParams::state_cap`] counts a layer's width
//!   after dominance; the sweep aborts as soon as a layer passes it, and
//!   reruns with `ε` doubled, up to `ε = 1`, Algorithm 5's regime. A cap
//!   that even `ε = 1` cannot meet is a typed
//!   [`FptasError::StateCapExceeded`].
//! * **Streaming memory** — only compact `(parent, machine)` backpointers
//!   are retained per layer; the load arenas ping-pong between two
//!   buffers, and each layer's backpointer buffers are sized from its
//!   parent's width. Peak RSS is `O(n · width)`.

use bisched_model::Schedule;
use bisched_obs::names;

/// The coarsest `ε` a state cap may force. Algorithm 5 pins its guard jobs
/// with a cost that dominates `(1+ε)·OPT` only while `ε ≤ 1`.
const MAX_COARSENED_EPS: f64 = 1.0;

/// Tuning knobs for one [`rm_cmax_fptas_with`] run.
#[derive(Clone, Copy, Debug)]
pub struct FptasParams {
    /// Accuracy `ε ∈ [0, 2]`; `0` disables trimming (exact sweep).
    pub eps: f64,
    /// Optional bound on any layer's live width, measured after dominance
    /// — the width that persists as backpointers and feeds the next layer.
    /// The DP's memory is `O(width)` plus backpointers, so this caps peak
    /// RSS. A layer past the cap reruns the sweep with `ε` doubled (from
    /// `1/16` when it was `0`), up to `ε = 1`; past that the run fails with
    /// [`FptasError::StateCapExceeded`]. `None` leaves the width unbounded.
    pub state_cap: Option<usize>,
    /// Incumbent + suffix-bound pruning and the Pareto-dominance rule.
    /// On by default; the tests turn it off for a reference sweep.
    pub prune: bool,
}

impl FptasParams {
    /// Defaults for accuracy `eps`: no cap, pruning on.
    pub fn new(eps: f64) -> Self {
        assert!((0.0..=2.0).contains(&eps), "ε must be in [0, 2], got {eps}");
        FptasParams {
            eps,
            state_cap: None,
            prune: true,
        }
    }
}

/// Why an FPTAS run produced no schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FptasError {
    /// A layer outgrew [`FptasParams::state_cap`] even at the coarsest `ε`
    /// coarsening may reach.
    StateCapExceeded {
        /// The configured cap.
        cap: usize,
        /// The width the layer had reached when the sweep aborted.
        width: usize,
        /// The coarsest `ε` that was attempted.
        eps_reached: f64,
    },
}

impl std::fmt::Display for FptasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FptasError::StateCapExceeded {
                cap,
                width,
                eps_reached,
            } => write!(
                f,
                "FPTAS state cap {cap} exceeded (layer reached {width} states at ε={eps_reached})"
            ),
        }
    }
}

impl std::error::Error for FptasError {}

/// Result of one FPTAS run.
#[derive(Clone, Debug)]
pub struct FptasResult {
    /// The produced schedule (assignment of all jobs), in the caller's job
    /// order: `schedule.machine_of(j)` is the machine of column `j`.
    pub schedule: Schedule,
    /// Its true makespan (computed from the real loads, not the trimmed
    /// surrogates — the guarantee is `makespan ≤ (1+ε)·OPT`).
    pub makespan: u64,
    /// Peak number of states kept in any layer (the DP's live width,
    /// measured after dominance filtering).
    pub peak_states: usize,
    /// Candidate states generated across the sweep (before dedup).
    pub expanded: u64,
    /// Candidates discarded by the incumbent bound or Pareto dominance.
    pub pruned: u64,
    /// The `ε` the caller asked for.
    pub eps_requested: f64,
    /// The `ε` the returned guarantee actually carries — larger than
    /// `eps_requested` only when a state cap forced coarsening.
    pub eps_effective: f64,
}

/// Runs the FPTAS on a `2 × n` unrelated-times matrix, `ε ∈ [0, 2]`.
///
/// `ε = 0` disables trimming: the result is exactly optimal (pseudo-
/// polynomial time/space — caller's responsibility to keep sums small).
pub fn rm_cmax_fptas(times: &[Vec<u64>; 2], eps: f64) -> FptasResult {
    rm_cmax_fptas_with(times, &FptasParams::new(eps)).expect("infallible without a state cap")
}

/// Exact `R2 || C_max` via the untrimmed Pareto sweep (`ε = 0`).
pub fn rm_cmax_exact(times: &[Vec<u64>; 2]) -> FptasResult {
    rm_cmax_fptas(times, 0.0)
}

/// The fully-parameterised FPTAS entry point.
///
/// The returned makespan is the better of the DP's best surviving final
/// state and the greedy incumbent, which keeps the pruning guarantee-
/// preserving: when the incumbent `UB ≥ OPT + ε·LB`, the trimming
/// analysis's witness path has every prefix bound `≤ OPT + ε·LB ≤ UB` and
/// is never pruned; when `UB < OPT + ε·LB`, the incumbent itself already
/// meets the promise.
pub fn rm_cmax_fptas_with(
    times: &[Vec<u64>; 2],
    params: &FptasParams,
) -> Result<FptasResult, FptasError> {
    assert!(
        (0.0..=2.0).contains(&params.eps),
        "ε must be in [0, 2], got {}",
        params.eps
    );
    let n = times[0].len();
    assert!(times[1].len() == n, "ragged matrix");

    if n == 0 {
        return Ok(FptasResult {
            schedule: Schedule::new(Vec::new()),
            makespan: 0,
            peak_states: 1,
            expanded: 0,
            pruned: 0,
            eps_requested: params.eps,
            eps_effective: params.eps,
        });
    }

    // Sweep the largest jobs first (see "Job order" in the module docs).
    // `order[k]` is the caller's index of sorted column `k`.
    let order = lpt_order(times);
    let sorted = times
        .each_ref()
        .map(|row| order.iter().map(|&j| row[j]).collect::<Vec<u64>>());
    let incumbent = greedy_incumbent(&sorted);
    let suffix_min = suffix_min_sums(&sorted);
    // The grid's `LB`: half the row minima's sum, or the largest row
    // minimum, which the sort put in column 0.
    let lb = suffix_min[0]
        .div_ceil(2)
        .max(sorted[0][0].min(sorted[1][0]));

    let mut eps_eff = params.eps;
    loop {
        let w = bucket_width(eps_eff, lb, n);
        match sweep(&sorted, w, params, &incumbent, &suffix_min) {
            Ok(mut result) => {
                let mut assignment = vec![0u32; n];
                for (&j, &i) in order.iter().zip(result.schedule.assignment()) {
                    assignment[j] = i;
                }
                result.schedule = Schedule::new(assignment);
                result.eps_requested = params.eps;
                result.eps_effective = eps_eff;
                return Ok(result);
            }
            Err(width) => {
                let cap = params.state_cap.expect("only a cap aborts the sweep");
                let doubled = if eps_eff <= 0.0 {
                    0.0625
                } else {
                    eps_eff * 2.0
                };
                let next = doubled.min(MAX_COARSENED_EPS);
                if next <= eps_eff {
                    return Err(FptasError::StateCapExceeded {
                        cap,
                        width,
                        eps_reached: eps_eff,
                    });
                }
                eps_eff = next;
            }
        }
    }
}

/// True makespan of an assignment under a times matrix.
pub fn makespan_of(times: &[Vec<u64>; 2], assignment: &[u32]) -> u64 {
    let mut loads = [0u64; 2];
    for (j, &i) in assignment.iter().enumerate() {
        loads[i as usize] += times[i as usize][j];
    }
    loads[0].max(loads[1])
}

/// The sweep's job order: row minimum descending (LPT), ties broken on the
/// column's values (descending) and then on index. Equal keys mean equal
/// columns, so the sorted matrix does not depend on the caller's order.
fn lpt_order(times: &[Vec<u64>; 2]) -> Vec<usize> {
    let column = |j: usize| [times[0][j], times[1][j]];
    let row_min: Vec<u64> = (0..times[0].len())
        .map(|j| times[0][j].min(times[1][j]))
        .collect();
    let mut order: Vec<usize> = (0..row_min.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        row_min[b]
            .cmp(&row_min[a])
            .then_with(|| column(b).cmp(&column(a)))
            .then(a.cmp(&b))
    });
    order
}

/// The greedy upper bound seeding the pruning threshold. Any feasible
/// assignment is a valid bound; this one is cheap (`O(n)`) and usually
/// tight enough to matter.
struct Incumbent {
    assignment: Vec<u32>,
    makespan: u64,
}

/// Jobs in matrix order, each to the machine minimising its resulting
/// load (machine 0 on a tie). [`rm_cmax_fptas_with`] hands it the
/// LPT-sorted matrix (see `lpt_order`), so this is greedy LPT on the row
/// minima.
fn greedy_incumbent(times: &[Vec<u64>; 2]) -> Incumbent {
    let mut loads = [0u64; 2];
    let assignment = (0..times[0].len())
        .map(|j| {
            let best = usize::from(loads[0] + times[0][j] > loads[1] + times[1][j]);
            loads[best] += times[best][j];
            best as u32
        })
        .collect();
    Incumbent {
        assignment,
        makespan: loads[0].max(loads[1]),
    }
}

/// The widest bucket the error analysis allows: `max(1, ⌊ε·lb/n⌋)`, with
/// the floor taken on the exact value of `ε·lb/n`, so `n·w ≤ ε·lb` holds
/// exactly (an `f64` quotient can round up across an integer). An `ε` in
/// `[0, 2]` is `mantissa · 2^-shift` with `shift ≥ 51`, and
/// `⌊⌊x / 2^shift⌋ / n⌋ = ⌊x / (2^shift · n)⌋` for integers.
fn bucket_width(eps: f64, lb: u64, n: usize) -> u64 {
    debug_assert!((0.0..=2.0).contains(&eps));
    let bits = eps.to_bits();
    // Masked: `-0.0` passes the range check with its sign bit set.
    let biased = (bits >> 52) as u32 & 0x7ff;
    let fraction = bits & ((1 << 52) - 1);
    let (mantissa, shift) = match biased {
        0 => (fraction, 1074),
        _ => (fraction | 1 << 52, 1075 - biased),
    };
    let scaled = u128::from(mantissa) * u128::from(lb);
    let w = scaled.checked_shr(shift).unwrap_or(0) / n as u128;
    u64::try_from(w).unwrap_or(u64::MAX).max(1)
}

/// `suffix_min[j] = Σ_{k ≥ j} min(times[0][k], times[1][k])` — every
/// yet-unassigned job adds at least its row minimum to *some* machine, so
/// `(l0 + l1 + suffix_min[j]) / 2` lower-bounds any completion's max.
fn suffix_min_sums(times: &[Vec<u64>; 2]) -> Vec<u64> {
    let n = times[0].len();
    let mut suffix = vec![0u64; n + 1];
    for j in (0..n).rev() {
        suffix[j] = suffix[j + 1] + times[0][j].min(times[1][j]);
    }
    suffix
}

/// Compact per-layer backpointers — all that survives a layer once the
/// next one is expanded.
struct Back {
    parent: Vec<u32>,
    machine: Vec<u8>,
}

/// A layer under construction.
#[derive(Default)]
struct LayerBufs {
    loads: Vec<[u64; 2]>,
    parent: Vec<u32>,
    machine: Vec<u8>,
}

impl LayerBufs {
    /// Empties the buffers for a layer whose parent holds `width` states.
    /// The last layer's backpointers left with the chain, so those buffers
    /// are sized here rather than regrown push by push.
    fn start(&mut self, width: usize) {
        self.loads.clear();
        self.parent.clear();
        self.machine.clear();
        self.parent.reserve(width);
        self.machine.reserve(width);
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    fn push(&mut self, child: &Child) {
        self.loads.push(child.loads);
        self.parent.push(child.parent);
        self.machine.push(child.machine);
    }
}

/// One child in the merge.
#[derive(Clone, Copy)]
struct Child {
    loads: [u64; 2],
    parent: u32,
    machine: u8,
}

/// The open run of the merge: the exclusive `l0` end of its bucket and
/// the best child seen in it so far.
struct Run {
    end: u64,
    best: Child,
}

/// One full sweep on the grid of bucket width `w`: every layer sorted by
/// `l0`, built by one merge of its parent's two sorted child lists (see
/// the module docs). `Err(width)` reports a state-cap abort; the caller
/// decides whether to coarsen or fail.
fn sweep(
    times: &[Vec<u64>; 2],
    w: u64,
    params: &FptasParams,
    incumbent: &Incumbent,
    suffix_min: &[u64],
) -> Result<FptasResult, usize> {
    let n = times[0].len();
    let ub = incumbent.makespan;
    let cap = params.state_cap.unwrap_or(usize::MAX);
    let mut chain = Chain::new(n);
    let mut cur = LayerBufs::default();

    for j in 0..n {
        let (p0, p1) = (times[0][j], times[1][j]);
        let remaining_min = suffix_min[j + 1];
        let prev = &chain.prev_loads;
        let width = prev.len();
        chain.expanded += 2 * width as u64;
        cur.start(width);
        let mut run: Option<Run> = None;
        let (mut a, mut b) = (0usize, 0usize);
        while a + b < 2 * width {
            // Next child in `l0` order; on a tie the machine-0 child first.
            let on0 = b == width || (a < width && prev[a][0] + p0 <= prev[b][0]);
            let s = if on0 { a } else { b };
            let child = Child {
                loads: if on0 {
                    [prev[s][0] + p0, prev[s][1]]
                } else {
                    [prev[s][0], prev[s][1] + p1]
                },
                parent: s as u32,
                machine: u8::from(!on0),
            };
            a += usize::from(on0);
            b += usize::from(!on0);
            if params.prune && !candidate_alive(child.loads, ub, remaining_min) {
                chain.pruned += 1;
                continue;
            }
            if let Some(open) = run.as_mut() {
                if child.loads[0] < open.end {
                    if child.loads[1] < open.best.loads[1] {
                        open.best = child;
                    }
                    continue;
                }
            }
            // A new run: its bucket `[k·w, (k+1)·w)` ends past `l0`.
            let l0 = child.loads[0];
            let end = (l0 - l0 % w).saturating_add(w);
            if let Some(done) = run.replace(Run { end, best: child }) {
                close_run(&mut cur, &done.best, params.prune, cap, &mut chain.pruned)?;
            }
        }
        if let Some(done) = run {
            close_run(&mut cur, &done.best, params.prune, cap, &mut chain.pruned)?;
        }
        debug_assert!(
            cur.loads
                .windows(2)
                .all(|pair| pair[0][0] < pair[1][0] && (!params.prune || pair[0][1] > pair[1][1])),
            "layers are strictly increasing in l0 (and decreasing in l1 when pruned)"
        );
        if cur.len() == 0 {
            return Ok(chain.incumbent_result(incumbent));
        }
        chain.push_layer(&mut cur);
    }
    Ok(chain.finish(incumbent))
}

/// Closes a run of the merge into `cur`. With pruning on, its winner is
/// dominated (and counted in `pruned`) when the last kept state (smaller
/// `l0`) has no larger `l1`. `Err(width)` once `cur` outgrows `cap`.
#[inline]
fn close_run(
    cur: &mut LayerBufs,
    best: &Child,
    prune: bool,
    cap: usize,
    pruned: &mut u64,
) -> Result<(), usize> {
    if prune && cur.loads.last().is_some_and(|l| l[1] <= best.loads[1]) {
        *pruned += 1;
        return Ok(());
    }
    cur.push(best);
    if cur.len() > cap {
        return Err(cur.len());
    }
    Ok(())
}

/// What a sweep carries from one layer to the next: the last layer's
/// loads, the backpointer chain, and the counters.
struct Chain {
    prev_loads: Vec<[u64; 2]>,
    backs: Vec<Back>,
    peak_states: usize,
    expanded: u64,
    pruned: u64,
}

impl Chain {
    /// The chain before any job: one all-zero state.
    fn new(n: usize) -> Self {
        Chain {
            prev_loads: vec![[0, 0]],
            backs: Vec::with_capacity(n),
            peak_states: 1,
            expanded: 0,
            pruned: 0,
        }
    }

    /// Makes the finished, non-empty layer `cur` the previous one: its
    /// backpointers join the chain and its load arena is swapped in.
    fn push_layer(&mut self, cur: &mut LayerBufs) {
        self.peak_states = self.peak_states.max(cur.len());
        // One counter sample per layer (~n per sweep): the DP's live
        // width over time, the flight recorder's view of state growth.
        bisched_obs::counter(names::FPTAS_LAYER_WIDTH, "fptas", cur.len() as u64);
        self.backs.push(Back {
            parent: std::mem::take(&mut cur.parent),
            machine: std::mem::take(&mut cur.machine),
        });
        std::mem::swap(&mut self.prev_loads, &mut cur.loads);
    }

    /// The last layer's state with the smallest makespan, traced back to
    /// its assignment — or the incumbent when that is strictly better.
    fn finish(self, incumbent: &Incumbent) -> FptasResult {
        let (best_idx, best_val) = self
            .prev_loads
            .iter()
            .enumerate()
            .map(|(s, l)| (s, l[0].max(l[1])))
            .min_by_key(|&(s, mx)| (mx, s))
            .expect("a finished sweep has a non-empty last layer");
        if incumbent.makespan < best_val {
            return self.incumbent_result(incumbent);
        }
        let mut assignment = vec![0u32; self.backs.len()];
        let mut idx = best_idx;
        for (j, back) in self.backs.iter().enumerate().rev() {
            assignment[j] = back.machine[idx] as u32;
            idx = back.parent[idx] as usize;
        }
        FptasResult {
            schedule: Schedule::new(assignment),
            makespan: best_val,
            peak_states: self.peak_states,
            expanded: self.expanded,
            pruned: self.pruned,
            eps_requested: 0.0,
            eps_effective: 0.0,
        }
    }

    /// The greedy incumbent as the answer: everything died against it, or
    /// it beats the DP (within the guarantee either way — see
    /// `rm_cmax_fptas_with`).
    fn incumbent_result(&self, incumbent: &Incumbent) -> FptasResult {
        FptasResult {
            schedule: Schedule::new(incumbent.assignment.clone()),
            makespan: incumbent.makespan,
            peak_states: self.peak_states,
            expanded: self.expanded,
            pruned: self.pruned,
            eps_requested: 0.0,
            eps_effective: 0.0,
        }
    }
}

/// Incumbent + suffix pruning test: `true` when a state with these loads
/// can still beat `ub`.
#[inline]
fn candidate_alive(loads: [u64; 2], ub: u64, remaining_min: u64) -> bool {
    if loads[0].max(loads[1]) > ub {
        return false;
    }
    // Fractional completion bound: the remaining jobs add at least their
    // row minima somewhere, and the final max is at least the average.
    (loads[0] + loads[1] + remaining_min).div_ceil(2) <= ub
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute force over all 2^n assignments.
    fn brute(times: &[Vec<u64>; 2]) -> u64 {
        let n = times[0].len();
        (0..1u64 << n)
            .map(|code| {
                let assignment: Vec<u32> = (0..n).map(|j| (code >> j & 1) as u32).collect();
                makespan_of(times, &assignment)
            })
            .min()
            .expect("at least the empty assignment")
    }

    /// A `2 × n` matrix with entries drawn from `range`.
    fn random_times(
        rng: &mut StdRng,
        n: usize,
        range: std::ops::RangeInclusive<u64>,
    ) -> [Vec<u64>; 2] {
        std::array::from_fn(|_| (0..n).map(|_| rng.gen_range(range.clone())).collect())
    }

    #[test]
    fn empty_and_trivial() {
        let r = rm_cmax_fptas(&[vec![], vec![]], 0.5);
        assert_eq!(r.makespan, 0);
        let r1 = rm_cmax_exact(&[vec![7], vec![9]]);
        assert_eq!(r1.makespan, 7);
        assert_eq!(r1.schedule.assignment(), &[0]);
    }

    #[test]
    fn exact_mode_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..30 {
            let n = rng.gen_range(1..=8);
            let times = random_times(&mut rng, n, 1..=15);
            let r = rm_cmax_exact(&times);
            assert_eq!(r.makespan, brute(&times), "times={times:?}");
            assert_eq!(makespan_of(&times, r.schedule.assignment()), r.makespan);
        }
    }

    #[test]
    fn fptas_respects_guarantee() {
        let mut rng = StdRng::seed_from_u64(31);
        for &eps in &[0.05, 0.1, 0.3, 0.5, 1.0, 2.0] {
            for _ in 0..10 {
                let n = rng.gen_range(2..=8);
                let times = random_times(&mut rng, n, 1..=100);
                let opt = brute(&times);
                let r = rm_cmax_fptas(&times, eps);
                assert_eq!(
                    makespan_of(&times, r.schedule.assignment()),
                    r.makespan,
                    "reported makespan must be the schedule's true makespan"
                );
                assert!(
                    r.makespan as f64 <= (1.0 + eps) * opt as f64 + 1e-9,
                    "ε={eps}: got {} vs opt {opt}",
                    r.makespan
                );
            }
        }
    }

    #[test]
    fn trimming_reduces_states() {
        let mut rng = StdRng::seed_from_u64(37);
        // Large spread so the exact Pareto set is wide. Pruning is
        // disabled on both runs to isolate the trimming effect (the
        // incumbent bound alone already collapses this instance to a
        // handful of states).
        let times = random_times(&mut rng, 14, 1000..=100_000);
        let mut exact_params = FptasParams::new(0.0);
        exact_params.prune = false;
        let mut coarse_params = FptasParams::new(1.0);
        coarse_params.prune = false;
        let exact = rm_cmax_fptas_with(&times, &exact_params).unwrap();
        let coarse = rm_cmax_fptas_with(&times, &coarse_params).unwrap();
        assert!(
            coarse.peak_states < exact.peak_states,
            "trimming should shrink the state set: {} vs {}",
            coarse.peak_states,
            exact.peak_states
        );
        assert!(coarse.makespan as f64 <= 2.0 * exact.makespan as f64);
        // And pruning shrinks it further still without hurting quality.
        let pruned = rm_cmax_fptas(&times, 1.0);
        assert!(pruned.peak_states <= coarse.peak_states);
        assert!(pruned.makespan as f64 <= 2.0 * exact.makespan as f64);
    }

    #[test]
    fn forced_assignment_via_huge_penalty() {
        // Algorithm 5's guard jobs: absurd cost on the wrong machine pins
        // a job. Verify the DP never pays the penalty when avoidable.
        let big = 1_000_000u64;
        let times = [vec![5, big, 3], vec![big, 4, 3]];
        let r = rm_cmax_exact(&times);
        assert_eq!(r.schedule.machine_of(0), 0);
        assert_eq!(r.schedule.machine_of(1), 1);
        assert!(r.makespan < big);
    }

    #[test]
    fn eps_one_is_paper_s1_mode() {
        // Algorithm 1 uses Algorithm 5 with ε = 1 (a 2-approximation).
        let times = [vec![10, 10, 10, 10], vec![10, 10, 10, 10]];
        let r = rm_cmax_fptas(&times, 1.0);
        assert!(r.makespan <= 40); // trivially feasible
        assert!(r.makespan <= 2 * 20); // 2 * OPT
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrix_rejected() {
        rm_cmax_fptas(&[vec![1, 2], vec![1]], 0.1);
    }

    #[test]
    fn counters_are_coherent() {
        let mut rng = StdRng::seed_from_u64(43);
        let times = random_times(&mut rng, 12, 1..=500);
        let r = rm_cmax_fptas(&times, 0.25);
        assert!(r.expanded > 0);
        assert!(r.pruned <= r.expanded);
        assert_eq!(r.eps_requested, 0.25);
        assert_eq!(r.eps_effective, 0.25);
    }

    #[test]
    fn state_cap_fail_is_typed() {
        // A cap of one state: the first job's two children already differ
        // in both loads, so no ε can meet it. The exact request coarsens
        // through the whole ladder and fails typed at the ε = 1 ceiling.
        let mut rng = StdRng::seed_from_u64(47);
        let times = random_times(&mut rng, 16, 1000..=100_000);
        let mut params = FptasParams::new(0.0);
        params.state_cap = Some(1);
        match rm_cmax_fptas_with(&times, &params) {
            Err(FptasError::StateCapExceeded {
                cap,
                width,
                eps_reached,
            }) => {
                assert_eq!(cap, 1);
                assert!(width > 1);
                assert_eq!(eps_reached, 1.0);
            }
            other => panic!("expected a state-cap error, got {other:?}"),
        }
    }

    #[test]
    fn state_cap_coarsens_gracefully() {
        // Pruning alone collapses this instance, so it is disabled here:
        // the point is the cap → coarsen → retry loop, which needs the
        // width to actually scale with ε.
        let mut rng = StdRng::seed_from_u64(53);
        let times = random_times(&mut rng, 16, 1000..=100_000);
        let unpruned = |eps: f64| {
            let mut p = FptasParams::new(eps);
            p.prune = false;
            p
        };
        let wide = rm_cmax_fptas_with(&times, &unpruned(0.05)).unwrap();
        let mut params = unpruned(0.05);
        // A cap the requested ε cannot meet but a coarsened one can.
        let cap = rm_cmax_fptas_with(&times, &unpruned(1.0))
            .unwrap()
            .peak_states;
        assert!(cap < wide.peak_states);
        params.state_cap = Some(cap);
        let r = rm_cmax_fptas_with(&times, &params).expect("coarsening relieves the cap");
        assert!(r.eps_effective > r.eps_requested);
        assert!(r.eps_effective <= 1.0);
        assert!(r.peak_states <= cap);
        // The coarser run still honours the *effective* guarantee.
        let exact = rm_cmax_exact(&times).makespan;
        assert!(r.makespan as f64 <= (1.0 + r.eps_effective) * exact as f64 + 1e-9);
    }

    #[test]
    fn bucket_width_is_the_exact_floor() {
        // ε = 0.3 is just below 3/10 in binary, so ε·20/3 is just below 2,
        // yet the rounded f64 product 0.3 · 20 is exactly 6.0: an f64
        // quotient reads 2 and would give n·w = 6 > ε·lb.
        assert_eq!(0.3 * 20.0 / 3.0, 2.0);
        assert_eq!(bucket_width(0.3, 20, 3), 1);
        assert_eq!(
            bucket_width(0.0, u64::MAX, 1),
            1,
            "ε = 0 is the exact sweep"
        );
        assert_eq!(bucket_width(-0.0, u64::MAX, 1), 1);
        assert_eq!(bucket_width(2.0, u64::MAX, 1), u64::MAX);
        // Dyadic ε = k/2^10 is exact in f64, so the floor has an integer
        // reference.
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..10_000 {
            let k = rng.gen_range(0..=2048u64);
            let bits = rng.gen_range(0..=62);
            let lb = rng.gen_range(0..=1u64 << bits);
            let n = rng.gen_range(1..=400usize);
            let exact = u128::from(k) * u128::from(lb) / (1024 * n as u128);
            let want = (exact as u64).max(1);
            assert_eq!(
                bucket_width(k as f64 / 1024.0, lb, n),
                want,
                "k={k} lb={lb} n={n}"
            );
        }
    }
}
