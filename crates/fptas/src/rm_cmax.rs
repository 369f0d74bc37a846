//! FPTAS for `Rm || C_max` (fixed number of unrelated machines).
//!
//! The paper uses the Jansen–Porkolab FPTAS [15] as a black box inside
//! Algorithm 5 and Theorem 4. Any `(1+ε)` scheme preserves every claim, so
//! we implement the classical Horowitz–Sahni approach instead: sweep jobs,
//! maintain the set of reachable machine-load vectors, and *trim* after
//! every job by bucketing the first `m−1` coordinates on a `(1+δ)` log-grid
//! (δ = ε/2n) while keeping the exact minimum of the last coordinate per
//! bucket.
//!
//! Error analysis: each of the `n` trims perturbs coordinates by at most a
//! `(1+δ)` factor, so the surviving vector nearest the optimum is within
//! `(1+δ)^n ≤ e^{ε/2} ≤ 1+ε` (for `ε ≤ 2`). With `ε = 0` no trimming
//! happens and the sweep degenerates to the exact pseudo-polynomial Pareto
//! DP — the mode Theorem 4 exploits with `ε = 1/(n+1)`-style parameters.
//!
//! ## Who reaches the sweep
//!
//! The solver enters only through Algorithm 5
//! (`bisched_core::r2_fptas_with`). Algorithm 1's S1 step and the
//! Theorem 4 `Q2 | p_j = 1` route call Algorithm 5 too, so every solver
//! call into the sweep has exactly two machines and takes the merge
//! below. The public `rm_cmax_*` functions accept any `m`; for `m ≠ 2`
//! they run the keyed sweep, which the tests use.
//!
//! ## The two-machine merge (`m = 2`)
//!
//! Each layer is kept sorted by machine-0 load `l0`. Its two child lists,
//! `(l0 + p0j, l1)` for job `j` on machine 0 and `(l0, l1 + p1j)` on
//! machine 1, are then sorted too, so one linear merge visits every
//! candidate in `l0` order. The grid's bucket is monotone in `l0`, so a
//! bucket's candidates arrive as one contiguous run; a forward galloping
//! cursor over the grid edges finds where each run ends.
//!
//! * A run keeps its smallest `l1`. On an equal `l1` it keeps the smaller
//!   `l0`, the candidate merged first.
//! * With pruning on, a run winner whose `l1` is not below the last kept
//!   state's is dominated and dropped: the `m = 2` Pareto rule. With
//!   pruning off every run winner is kept.
//! * Layers come out strictly increasing in `l0` and, with pruning,
//!   strictly decreasing in `l1` (debug-asserted per layer).
//! * [`FptasParams::state_cap`] counts the width after dominance; the
//!   sweep aborts as soon as a layer passes it.
//!
//! No hash map, no per-layer sort and no per-candidate binary search sit
//! on this path.
//!
//! ## The keyed sweep (`m ≠ 2`)
//!
//! * **Packed keys** — the `m−1` bucketed coordinates are packed into one
//!   `u128` whenever they fit (always for `m ≤ 3`; for the lab's `m ≤ 8`
//!   whenever the per-coordinate bucket count fits its bit budget), hashed
//!   by a small in-crate multiply-xor hasher; a transparent tuple-key
//!   fallback covers the rest. The first candidate in a bucket stays
//!   unless a later one has a strictly smaller last coordinate.
//! * **Pareto dominance** (`m = 3`) — a coordinate-wise dominated state
//!   can be dropped outright: any completion of the dominated vector is
//!   available, no worse, from the dominating one.
//!
//! ## Shared by both
//!
//! * **Job order** — [`rm_cmax_fptas_with`] sorts the columns once, largest
//!   jobs first: row minimum descending, ties on the column's values, then
//!   on index. The incumbent, the suffix bounds and every sweep (coarsening
//!   retries included) run on the sorted matrix, and the schedule is mapped
//!   back to the caller's job order. The trimming bound above never uses
//!   the order: each job is one trim of at most `(1+δ)`, whichever position
//!   it takes. Large jobs first keeps the trimmed layers narrow: the small
//!   jobs come last, when they move the loads by less than a bucket, so
//!   their children mostly merge back into their parents' buckets. And
//!   since the sort key fixes the sorted matrix, the result, counters
//!   included, does not depend on the caller's job order.
//! * **Monotone integer grid** — bucketing goes through
//!   [`BucketGrid`]: no `f64::ln` in the inner
//!   loop, and boundary rounding can never destroy monotonicity.
//! * **Incumbent pruning** — a greedy schedule (LPT on the per-job row
//!   minima, min-resulting-load machine) seeds an upper bound; any state
//!   whose max coordinate, or fractional-average completion bound
//!   (`(Σ loads + Σ remaining row minima) / m`, the suffix analogue of
//!   `exact::lower_bounds`), exceeds it is dead — guarantee-preserving
//!   because loads only grow and the result is never worse than the
//!   incumbent itself (see [`rm_cmax_fptas_with`]).
//! * **Streaming memory** — only compact `(parent, machine)` backpointers
//!   are retained per layer; the load arenas ping-pong between two
//!   buffers, and scratch buffers are reused across layers. Peak RSS is
//!   `O(width · m + n · width)`.

use crate::bucket::BucketGrid;
use bisched_model::Schedule;
use bisched_obs::names;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Past this many grid edges, materialising the trimming table stops
/// paying for itself (δ so small that buckets are near-singletons); the
/// sweep falls back to the exact Pareto DP, which is strictly more
/// accurate.
pub(crate) const MAX_GRID_EDGES: f64 = 4e6;

/// A small multiply-xor hasher for the packed DP keys: one `wrapping_mul`
/// per written word plus an avalanche on `finish`. Quality is plenty for
/// log-grid bucket tuples and it beats SipHash by a wide margin on this
/// workload.
#[derive(Default)]
pub struct MulXorHasher(u64);

impl Hasher for MulXorHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 32;
        h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^= h >> 32;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulXorHasher>>;

/// What to do when a layer's live width exceeds [`FptasParams::state_cap`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CapRelief {
    /// Re-run the sweep with a doubled `ε` (coarser grid, fewer states)
    /// until the width fits or `ε` would exceed `max_eps`; then fail.
    Coarsen {
        /// Ceiling for the coarsened `ε` (callers that must keep a
        /// specific guarantee regime — Algorithm 5 needs `ε ≤ 1` — set it
        /// accordingly).
        max_eps: f64,
    },
    /// Fail immediately with [`FptasError::StateCapExceeded`].
    Fail,
}

/// Tuning knobs for one [`rm_cmax_fptas_with`] run.
#[derive(Clone, Copy, Debug)]
pub struct FptasParams {
    /// Accuracy `ε ∈ [0, 2]`; `0` disables trimming (exact sweep).
    pub eps: f64,
    /// Optional bound on any layer's live width (measured after
    /// dominance filtering — the width that persists as backpointers and
    /// feeds the next layer; on the keyed `m ≠ 2` sweep the transient
    /// mid-layer buffer is bounded by `cap · m` states). The DP's memory
    /// is `O(width · m)` plus backpointers, so this caps peak RSS. `None`
    /// leaves the width unbounded.
    pub state_cap: Option<usize>,
    /// Behaviour when `state_cap` is hit; irrelevant without a cap.
    pub on_cap: CapRelief,
    /// Incumbent + suffix-bound pruning (and `m ≤ 3` Pareto dominance).
    /// On by default; disable only for A/B measurements.
    pub prune: bool,
}

impl FptasParams {
    /// Defaults for accuracy `eps`: no cap, coarsening up to the scheme's
    /// `ε = 2` limit, pruning on.
    pub fn new(eps: f64) -> Self {
        assert!((0.0..=2.0).contains(&eps), "ε must be in [0, 2], got {eps}");
        FptasParams {
            eps,
            state_cap: None,
            on_cap: CapRelief::Coarsen { max_eps: 2.0 },
            prune: true,
        }
    }
}

/// Why an FPTAS run produced no schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FptasError {
    /// A layer outgrew [`FptasParams::state_cap`] and the configured
    /// relief ([`CapRelief`]) was exhausted.
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

/// Runs the FPTAS on an `m × n` unrelated-times matrix, `ε ∈ [0, 2]`.
///
/// `ε = 0` disables trimming: the result is exactly optimal (pseudo-
/// polynomial time/space — caller's responsibility to keep sums small).
pub fn rm_cmax_fptas(times: &[Vec<u64>], eps: f64) -> FptasResult {
    rm_cmax_fptas_with(times, &FptasParams::new(eps)).expect("infallible without a state cap")
}

/// Exact `Rm || C_max` via the untrimmed Pareto sweep (`ε = 0`).
pub fn rm_cmax_exact(times: &[Vec<u64>]) -> FptasResult {
    rm_cmax_fptas(times, 0.0)
}

/// The fully-parameterised FPTAS entry point.
///
/// The returned makespan is the better of the DP's best surviving final
/// state and the greedy incumbent, which keeps the pruning guarantee-
/// preserving: when the incumbent `UB ≥ (1+ε)·OPT`, the trimming
/// analysis's witness path has every prefix bound `≤ (1+ε)·OPT ≤ UB` and
/// is never pruned; when `UB < (1+ε)·OPT`, the incumbent itself already
/// beats the promise.
pub fn rm_cmax_fptas_with(
    times: &[Vec<u64>],
    params: &FptasParams,
) -> Result<FptasResult, FptasError> {
    let m = times.len();
    assert!(m >= 1, "at least one machine");
    assert!(
        (0.0..=2.0).contains(&params.eps),
        "ε must be in [0, 2], got {}",
        params.eps
    );
    let n = times[0].len();
    assert!(times.iter().all(|row| row.len() == n), "ragged matrix");

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
    let order = lpt_order(times, m, n);
    let sorted: Vec<Vec<u64>> = times
        .iter()
        .map(|row| order.iter().map(|&j| row[j]).collect())
        .collect();
    let incumbent = greedy_incumbent(&sorted, m, n);
    let suffix_min = suffix_min_sums(&sorted, m, n);

    let mut eps_eff = params.eps;
    loop {
        match sweep(&sorted, m, n, eps_eff, params, &incumbent, &suffix_min) {
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
                let next = match params.on_cap {
                    CapRelief::Fail => None,
                    CapRelief::Coarsen { max_eps } => {
                        let doubled = if eps_eff <= 0.0 {
                            0.0625
                        } else {
                            eps_eff * 2.0
                        };
                        (doubled.min(max_eps) > eps_eff).then(|| doubled.min(max_eps))
                    }
                };
                match next {
                    Some(e) => eps_eff = e,
                    None => {
                        return Err(FptasError::StateCapExceeded {
                            cap,
                            width,
                            eps_reached: eps_eff,
                        })
                    }
                }
            }
        }
    }
}

/// True makespan of an assignment under a times matrix.
pub fn makespan_of(times: &[Vec<u64>], assignment: &[u32]) -> u64 {
    let mut loads = vec![0u64; times.len()];
    for (j, &i) in assignment.iter().enumerate() {
        loads[i as usize] += times[i as usize][j];
    }
    loads.into_iter().max().unwrap_or(0)
}

/// The sweep's job order: row minimum descending (LPT), ties broken on the
/// column's values (descending) and then on index. Equal keys mean equal
/// columns, so the sorted matrix does not depend on the caller's order.
fn lpt_order(times: &[Vec<u64>], m: usize, n: usize) -> Vec<usize> {
    let row_min: Vec<u64> = (0..n)
        .map(|j| (0..m).map(|i| times[i][j]).min().expect("m >= 1"))
        .collect();
    let column = |j: usize| times.iter().map(move |row| row[j]);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        row_min[b]
            .cmp(&row_min[a])
            .then_with(|| column(b).cmp(column(a)))
            .then(a.cmp(&b))
    });
    order
}

/// The greedy upper bound seeding the pruning threshold. Any feasible
/// assignment is a valid bound; this one is cheap (`O(n·m)`) and usually
/// tight enough to matter.
struct Incumbent {
    assignment: Vec<u32>,
    makespan: u64,
}

/// Jobs in matrix order, each to the machine minimising its resulting
/// load. [`rm_cmax_fptas_with`] hands it the LPT-sorted matrix (see
/// `lpt_order`), so this is greedy LPT on the row minima.
fn greedy_incumbent(times: &[Vec<u64>], m: usize, n: usize) -> Incumbent {
    let mut loads = vec![0u64; m];
    let mut assignment = vec![0u32; n];
    for (j, slot) in assignment.iter_mut().enumerate() {
        let best = (0..m)
            .min_by_key(|&i| (loads[i] + times[i][j], i))
            .expect("m >= 1");
        loads[best] += times[best][j];
        *slot = best as u32;
    }
    Incumbent {
        assignment,
        makespan: loads.into_iter().max().expect("m >= 1"),
    }
}

/// `suffix_min[j] = Σ_{k ≥ j} min_i times[i][k]` — every yet-unassigned
/// job adds at least its row minimum to *some* machine, so
/// `(Σ loads + suffix_min[j]) / m` lower-bounds any completion's max.
fn suffix_min_sums(times: &[Vec<u64>], m: usize, n: usize) -> Vec<u64> {
    let mut suffix = vec![0u64; n + 1];
    for j in (0..n).rev() {
        let mn = (0..m).map(|i| times[i][j]).min().expect("m >= 1");
        suffix[j] = suffix[j + 1] + mn;
    }
    suffix
}

/// How the first `m−1` coordinates become a dedup key.
trait Keyer {
    /// The key type (packed word or boxed tuple).
    type Key: Eq + Hash;
    /// Builds the key from the raw (untrimmed) prefix coordinates.
    fn key(&self, prefix: &[u64]) -> Self::Key;
}

/// Grid-or-identity view shared by both key schemes.
enum Coords<'a> {
    Grid(&'a BucketGrid),
    Exact,
}

impl Coords<'_> {
    #[inline]
    fn map(&self, load: u64) -> u64 {
        match self {
            Coords::Grid(g) => g.bucket(load),
            Coords::Exact => load,
        }
    }
}

/// Packs the (bucketed) prefix into a single `u128`, `bits` bits per
/// coordinate — the no-allocation fast path.
struct PackedKeyer<'a> {
    coords: Coords<'a>,
    bits: u32,
}

impl Keyer for PackedKeyer<'_> {
    type Key = u128;
    #[inline]
    fn key(&self, prefix: &[u64]) -> u128 {
        let mut k: u128 = 0;
        for &l in prefix {
            k = (k << self.bits) | self.coords.map(l) as u128;
        }
        k
    }
}

/// Tuple fallback for the (rare) shapes whose packed key would not fit
/// 128 bits; allocates one boxed slice per surviving candidate.
struct TupleKeyer<'a> {
    coords: Coords<'a>,
}

impl Keyer for TupleKeyer<'_> {
    type Key = Box<[u64]>;
    #[inline]
    fn key(&self, prefix: &[u64]) -> Box<[u64]> {
        prefix.iter().map(|&l| self.coords.map(l)).collect()
    }
}

/// Compact per-layer backpointers — all that survives a layer once the
/// next one is expanded.
struct Back {
    parent: Vec<u32>,
    machine: Vec<u8>,
}

/// One candidate accepted into a layer under construction.
#[derive(Default)]
struct LayerBufs {
    loads: Vec<u64>,
    parent: Vec<u32>,
    machine: Vec<u8>,
}

impl LayerBufs {
    fn clear(&mut self) {
        self.loads.clear();
        self.parent.clear();
        self.machine.clear();
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    fn push(&mut self, loads: &[u64], parent: u32, machine: u8) {
        self.loads.extend_from_slice(loads);
        self.parent.push(parent);
        self.machine.push(machine);
    }
}

/// One full sweep at a fixed effective `ε`. `Err(width)` reports a state-
/// cap abort (the caller decides whether to coarsen or fail).
#[allow(clippy::too_many_arguments)]
fn sweep(
    times: &[Vec<u64>],
    m: usize,
    n: usize,
    eps: f64,
    params: &FptasParams,
    incumbent: &Incumbent,
    suffix_min: &[u64],
) -> Result<FptasResult, usize> {
    let delta = eps / (2.0 * n as f64);
    let ub = incumbent.makespan;
    // Loads above the largest value the sweep can keep never need a
    // bucket: with pruning everything past `ub` dies first; without it
    // the worst reachable coordinate is the heaviest row sum.
    let max_kept_load = if params.prune {
        ub
    } else {
        (0..m)
            .map(|i| times[i].iter().sum::<u64>())
            .max()
            .expect("m >= 1")
    };
    let grid = if delta > 0.0 && BucketGrid::projected_edges(delta, max_kept_load) <= MAX_GRID_EDGES
    {
        Some(BucketGrid::new(delta, max_kept_load))
    } else {
        // δ = 0 (exact mode) — or a grid so fine it would be pointless to
        // materialise; the exact sweep is strictly more accurate.
        None
    };
    if m == 2 {
        return sweep_two(times, n, params, incumbent, suffix_min, grid.as_ref());
    }

    // Key packing: with `b` bits per (bucketed) coordinate the m−1 prefix
    // coordinates need (m−1)·b ≤ 128 bits; always true for m ≤ 3.
    let coord_bound = grid
        .as_ref()
        .map(|g| g.max_bucket())
        .unwrap_or(max_kept_load)
        .max(1);
    let bits = 64 - coord_bound.leading_zeros();
    if (m as u32 - 1) * bits <= 128 {
        let keyer = PackedKeyer {
            coords: grid.as_ref().map(Coords::Grid).unwrap_or(Coords::Exact),
            bits,
        };
        sweep_keyed(times, m, n, params, incumbent, suffix_min, &keyer)
    } else {
        let keyer = TupleKeyer {
            coords: grid.as_ref().map(Coords::Grid).unwrap_or(Coords::Exact),
        };
        sweep_keyed(times, m, n, params, incumbent, suffix_min, &keyer)
    }
}

#[allow(clippy::too_many_arguments)]
fn sweep_keyed<K: Keyer>(
    times: &[Vec<u64>],
    m: usize,
    n: usize,
    params: &FptasParams,
    incumbent: &Incumbent,
    suffix_min: &[u64],
    keyer: &K,
) -> Result<FptasResult, usize> {
    let cap = params.state_cap.unwrap_or(usize::MAX);
    // A layer under construction may transiently exceed the cap before
    // dominance filtering shrinks it; expansion only aborts past this
    // hard ceiling (each of the ≤ cap parent states spawns ≤ m children).
    let transient_cap = cap.saturating_mul(m);
    let ub = incumbent.makespan;
    let mut chain = Chain::new(m, n);
    let mut cur = LayerBufs::default();
    let mut seen: FastMap<K::Key, u32> = FastMap::default();
    let mut scratch = vec![0u64; m];
    let mut pareto_ws = ParetoScratch::default();

    for j in 0..n {
        seen.clear();
        cur.clear();
        let filled = expand_layer(
            times,
            m,
            j,
            params,
            ub,
            suffix_min,
            keyer,
            (&chain.prev_loads, chain.prev_width),
            &mut cur,
            &mut seen,
            &mut scratch,
            transient_cap,
            &mut chain.expanded,
            &mut chain.pruned,
        );
        if !filled {
            return Err(cur.len());
        }
        if params.prune && m == 3 && cur.len() > 1 {
            chain.pruned += pareto_filter(&mut cur, &mut pareto_ws) as u64;
        }
        if cur.len() > cap {
            return Err(cur.len());
        }
        if cur.len() == 0 {
            return Ok(chain.incumbent_result(incumbent));
        }
        chain.push_layer(&mut cur);
    }
    Ok(chain.finish(incumbent))
}

/// One child in the two-machine merge.
#[derive(Clone, Copy)]
struct Child {
    loads: [u64; 2],
    parent: u32,
    machine: u8,
}

/// The open run of the two-machine merge: the exclusive `l0` end of its
/// bucket and the best child seen in it so far.
struct Run {
    end: u64,
    best: Child,
}

/// Bucket lookups for loads visited in non-decreasing order: each lookup
/// gallops forward from the previous one instead of searching every edge.
struct BucketCursor<'a> {
    edges: &'a [u64],
    /// Number of edges `≤` the last load looked up (its bucket index).
    at: usize,
}

impl BucketCursor<'_> {
    /// Exclusive upper end of the bucket holding `load` (`u64::MAX` for
    /// the open-ended last bucket). `load` must not be below the previous
    /// call's.
    #[inline]
    fn end_of(&mut self, load: u64) -> u64 {
        let edges = self.edges;
        let mut lo = self.at;
        if edges.get(lo).is_some_and(|&e| e <= load) {
            // edges[..lo] ≤ load; double the probe until it overshoots,
            // then binary-search the last stride.
            lo += 1;
            let mut step = 1;
            while lo + step <= edges.len() && edges[lo + step - 1] <= load {
                lo += step;
                step *= 2;
            }
            let hi = (lo + step - 1).min(edges.len());
            lo += edges[lo..hi].partition_point(|&e| e <= load);
        }
        self.at = lo;
        edges.get(lo).copied().unwrap_or(u64::MAX)
    }
}

/// The two-machine sweep: every layer sorted by `l0`, built by one merge
/// of its parent's two sorted child lists (see the module docs). `grid =
/// None` runs it untrimmed: each distinct `l0` is its own bucket.
fn sweep_two(
    times: &[Vec<u64>],
    n: usize,
    params: &FptasParams,
    incumbent: &Incumbent,
    suffix_min: &[u64],
    grid: Option<&BucketGrid>,
) -> Result<FptasResult, usize> {
    let cap = params.state_cap.unwrap_or(usize::MAX);
    let ub = incumbent.makespan;
    let mut chain = Chain::new(2, n);
    let mut cur = LayerBufs::default();

    for j in 0..n {
        let (p0, p1) = (times[0][j], times[1][j]);
        let remaining_min = suffix_min[j + 1];
        let prev = &chain.prev_loads;
        let width = chain.prev_width;
        chain.expanded += 2 * width as u64;
        cur.clear();
        let mut cursor = grid.map(|g| BucketCursor {
            edges: g.edges(),
            at: 0,
        });
        let mut run: Option<Run> = None;
        let (mut a, mut b) = (0usize, 0usize);
        while a + b < 2 * width {
            // Next child in `l0` order; on a tie the machine-0 child first.
            let on0 = b == width || (a < width && prev[2 * a] + p0 <= prev[2 * b]);
            let s = if on0 { a } else { b };
            let child = Child {
                loads: [
                    prev[2 * s] + if on0 { p0 } else { 0 },
                    prev[2 * s + 1] + if on0 { 0 } else { p1 },
                ],
                parent: s as u32,
                machine: u8::from(!on0),
            };
            a += usize::from(on0);
            b += usize::from(!on0);
            if params.prune && !candidate_alive(&child.loads, 2, ub, remaining_min) {
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
            let end = match cursor.as_mut() {
                Some(c) => c.end_of(child.loads[0]),
                None => child.loads[0] + 1,
            };
            if let Some(done) = run.replace(Run { end, best: child }) {
                close_run(&mut cur, &done.best, params.prune, cap, &mut chain.pruned)?;
            }
        }
        if let Some(done) = run {
            close_run(&mut cur, &done.best, params.prune, cap, &mut chain.pruned)?;
        }
        debug_assert!(
            cur.loads
                .windows(4)
                .step_by(2)
                .all(|w| w[0] < w[2] && (!params.prune || w[1] > w[3])),
            "two-machine layers are strictly increasing in l0 (and decreasing in l1 when pruned)"
        );
        if cur.len() == 0 {
            return Ok(chain.incumbent_result(incumbent));
        }
        chain.push_layer(&mut cur);
    }
    Ok(chain.finish(incumbent))
}

/// Closes a run of the two-machine merge into `cur`. With pruning on, its
/// winner is dominated (and counted in `pruned`) when the last kept state
/// (smaller `l0`) has no larger `l1`. `Err(width)` once `cur` outgrows
/// `cap`.
#[inline]
fn close_run(
    cur: &mut LayerBufs,
    best: &Child,
    prune: bool,
    cap: usize,
    pruned: &mut u64,
) -> Result<(), usize> {
    if prune && cur.loads.last().is_some_and(|&l1| l1 <= best.loads[1]) {
        *pruned += 1;
        return Ok(());
    }
    cur.push(&best.loads, best.parent, best.machine);
    if cur.len() > cap {
        return Err(cur.len());
    }
    Ok(())
}

/// What a sweep carries from one layer to the next: the last layer's
/// loads, the backpointer chain, and the counters.
struct Chain {
    m: usize,
    prev_loads: Vec<u64>,
    prev_width: usize,
    backs: Vec<Back>,
    peak_states: usize,
    expanded: u64,
    pruned: u64,
}

impl Chain {
    /// The chain before any job: one all-zero state.
    fn new(m: usize, n: usize) -> Self {
        Chain {
            m,
            prev_loads: vec![0u64; m],
            prev_width: 1,
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
        self.prev_width = cur.len();
        self.backs.push(Back {
            parent: std::mem::take(&mut cur.parent),
            machine: std::mem::take(&mut cur.machine),
        });
        std::mem::swap(&mut self.prev_loads, &mut cur.loads);
    }

    /// The last layer's state with the smallest makespan, traced back to
    /// its assignment — or the incumbent when that is strictly better.
    fn finish(self, incumbent: &Incumbent) -> FptasResult {
        let m = self.m;
        let (best_idx, best_val) = (0..self.prev_width)
            .map(|s| {
                let loads = &self.prev_loads[s * m..(s + 1) * m];
                (s, *loads.iter().max().expect("m >= 1"))
            })
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

/// Incumbent + suffix pruning test for the candidate in `scratch`.
/// Returns `true` when the candidate can still beat `ub`.
#[inline]
fn candidate_alive(scratch: &[u64], m: usize, ub: u64, remaining_min: u64) -> bool {
    let mut mx = 0u64;
    let mut sum = 0u64;
    for &l in scratch {
        mx = mx.max(l);
        sum += l;
    }
    if mx > ub {
        return false;
    }
    // Fractional completion bound: the remaining jobs add at least their
    // row minima somewhere, and the final max is at least the average.
    let bound = (sum + remaining_min).div_ceil(m as u64);
    bound <= ub
}

/// The keyed sweep's dedup rule: the first occupant of a bucket wins; a
/// later candidate replaces it iff its last coordinate is strictly
/// smaller.
#[inline]
fn insert_candidate<Key: Eq + Hash>(
    key: Key,
    seen: &mut FastMap<Key, u32>,
    cur: &mut LayerBufs,
    loads: &[u64],
    m: usize,
    parent: u32,
    machine: u8,
) {
    match seen.entry(key) {
        std::collections::hash_map::Entry::Vacant(e) => {
            let idx = cur.len();
            debug_assert!(idx < u32::MAX as usize, "layer width must fit u32");
            cur.push(loads, parent, machine);
            e.insert(idx as u32);
        }
        std::collections::hash_map::Entry::Occupied(e) => {
            let idx = *e.get() as usize;
            if loads[m - 1] < cur.loads[idx * m + (m - 1)] {
                cur.loads[idx * m..(idx + 1) * m].copy_from_slice(loads);
                cur.parent[idx] = parent;
                cur.machine[idx] = machine;
            }
        }
    }
}

/// Expands the previous layer into `cur`; returns `false` on a cap abort.
#[allow(clippy::too_many_arguments)]
fn expand_layer<K: Keyer>(
    times: &[Vec<u64>],
    m: usize,
    j: usize,
    params: &FptasParams,
    ub: u64,
    suffix_min: &[u64],
    keyer: &K,
    (prev_loads, prev_width): (&[u64], usize),
    cur: &mut LayerBufs,
    seen: &mut FastMap<K::Key, u32>,
    scratch: &mut [u64],
    cap: usize,
    expanded: &mut u64,
    pruned: &mut u64,
) -> bool {
    let remaining_min = suffix_min[j + 1];
    for s in 0..prev_width {
        let base = &prev_loads[s * m..(s + 1) * m];
        for i in 0..m {
            *expanded += 1;
            scratch.copy_from_slice(base);
            scratch[i] += times[i][j];
            if params.prune && !candidate_alive(scratch, m, ub, remaining_min) {
                *pruned += 1;
                continue;
            }
            let key = keyer.key(&scratch[..m - 1]);
            insert_candidate(key, seen, cur, scratch, m, s as u32, i as u8);
            if cur.len() > cap {
                return false;
            }
        }
    }
    true
}

/// Reusable working memory for [`pareto_filter`] — allocated once per
/// sweep and cleared per layer, like the bucket map and load scratch.
#[derive(Default)]
struct ParetoScratch {
    order: Vec<u32>,
    keep: Vec<bool>,
    stair: BTreeMap<u64, u64>,
    evict: Vec<u64>,
}

/// Coordinate-wise Pareto dominance filter for `m = 3` (the two-machine
/// merge applies its own rule inline): drops every state some other state
/// dominates (all coordinates `≤`). Safe under trimming — if the
/// analysis's witness is dominated, the dominator is an at-least-as-good
/// witness. Returns how many states were dropped; survivors keep their
/// original relative order.
fn pareto_filter(cur: &mut LayerBufs, ws: &mut ParetoScratch) -> usize {
    const M: usize = 3;
    let len = cur.len();
    ws.order.clear();
    ws.order.extend(0..len as u32);
    let coord = |s: u32, c: usize| cur.loads[s as usize * M + c];
    ws.order.sort_unstable_by(|&a, &b| {
        (0..M)
            .map(|c| coord(a, c).cmp(&coord(b, c)))
            .fold(std::cmp::Ordering::Equal, |acc, o| acc.then(o))
            .then(a.cmp(&b))
    });

    ws.keep.clear();
    ws.keep.resize(len, true);
    // Staircase over (l1 → l2) among already-accepted states (their l0 is
    // ≤ by sort order): the candidate is dominated iff the largest
    // staircase key ≤ its l1 carries an l2 ≤ its own. Values strictly
    // decrease along keys, so one probe suffices; dominated entries are
    // evicted to keep it so.
    ws.stair.clear();
    for &s in &ws.order {
        let (l1, l2) = (coord(s, 1), coord(s, 2));
        if let Some((_, &v)) = ws.stair.range(..=l1).next_back() {
            if v <= l2 {
                ws.keep[s as usize] = false;
                continue;
            }
        }
        ws.evict.clear();
        ws.evict.extend(
            ws.stair
                .range(l1..)
                .take_while(|&(_, &v)| v >= l2)
                .map(|(&k, _)| k),
        );
        for k in &ws.evict {
            ws.stair.remove(k);
        }
        ws.stair.insert(l1, l2);
    }

    let mut write = 0usize;
    for (read, &kept) in ws.keep.iter().enumerate() {
        if kept {
            if write != read {
                cur.loads.copy_within(read * M..(read + 1) * M, write * M);
                cur.parent[write] = cur.parent[read];
                cur.machine[write] = cur.machine[read];
            }
            write += 1;
        }
    }
    cur.loads.truncate(write * M);
    cur.parent.truncate(write);
    cur.machine.truncate(write);
    len - write
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute force over all m^n assignments.
    #[allow(clippy::needless_range_loop)]
    fn brute(times: &[Vec<u64>]) -> u64 {
        let m = times.len();
        let n = times[0].len();
        let mut best = u64::MAX;
        let total = (m as u64).pow(n as u32);
        for code in 0..total {
            let mut c = code;
            let mut loads = vec![0u64; m];
            for j in 0..n {
                let i = (c % m as u64) as usize;
                c /= m as u64;
                loads[i] += times[i][j];
            }
            best = best.min(loads.iter().copied().max().unwrap());
        }
        best
    }

    #[test]
    fn empty_and_trivial() {
        let r = rm_cmax_fptas(&[vec![], vec![]], 0.5);
        assert_eq!(r.makespan, 0);
        let r1 = rm_cmax_exact(&[vec![7]]);
        assert_eq!(r1.makespan, 7);
    }

    #[test]
    fn single_machine_sums_everything() {
        let r = rm_cmax_exact(&[vec![3, 4, 5]]);
        assert_eq!(r.makespan, 12);
        assert_eq!(r.schedule.assignment(), &[0, 0, 0]);
    }

    #[test]
    fn exact_mode_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..30 {
            let m = rng.gen_range(2..=3);
            let n = rng.gen_range(1..=8);
            let times: Vec<Vec<u64>> = (0..m)
                .map(|_| (0..n).map(|_| rng.gen_range(1..=15)).collect())
                .collect();
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
                let m = rng.gen_range(2..=3);
                let n = rng.gen_range(2..=8);
                let times: Vec<Vec<u64>> = (0..m)
                    .map(|_| (0..n).map(|_| rng.gen_range(1..=100)).collect())
                    .collect();
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
        let times: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..14).map(|_| rng.gen_range(1000..=100_000)).collect())
            .collect();
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
        let times = vec![vec![5, big, 3], vec![big, 4, 3]];
        let r = rm_cmax_exact(&times);
        assert_eq!(r.schedule.machine_of(0), 0);
        assert_eq!(r.schedule.machine_of(1), 1);
        assert!(r.makespan < big);
    }

    #[test]
    fn eps_one_is_paper_s1_mode() {
        // Algorithm 1 uses Algorithm 5 with ε = 1 (a 2-approximation).
        let times = vec![vec![10, 10, 10, 10], vec![10, 10, 10, 10]];
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
        let times: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..12).map(|_| rng.gen_range(1..=500)).collect())
            .collect();
        let r = rm_cmax_fptas(&times, 0.25);
        assert!(r.expanded > 0);
        assert!(r.pruned <= r.expanded);
        assert_eq!(r.eps_requested, 0.25);
        assert_eq!(r.eps_effective, 0.25);
    }

    #[test]
    fn state_cap_fail_is_typed() {
        let mut rng = StdRng::seed_from_u64(47);
        let times: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..16).map(|_| rng.gen_range(1000..=100_000)).collect())
            .collect();
        let mut params = FptasParams::new(0.0);
        params.state_cap = Some(4);
        params.on_cap = CapRelief::Fail;
        match rm_cmax_fptas_with(&times, &params) {
            Err(FptasError::StateCapExceeded { cap, width, .. }) => {
                assert_eq!(cap, 4);
                assert!(width > 4);
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
        let times: Vec<Vec<u64>> = (0..2)
            .map(|_| (0..16).map(|_| rng.gen_range(1000..=100_000)).collect())
            .collect();
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
        assert!(r.eps_effective <= 2.0);
        assert!(r.peak_states <= cap);
        // The coarser run still honours the *effective* guarantee.
        let exact = rm_cmax_exact(&times).makespan;
        assert!(r.makespan as f64 <= (1.0 + r.eps_effective) * exact as f64 + 1e-9);
    }

    #[test]
    fn bucket_cursor_matches_bucket_lookup() {
        // The two-machine merge trusts the cursor to end a run exactly
        // where `BucketGrid::bucket` changes; a wider run would merge loads
        // more than (1+δ) apart and quietly weaken the guarantee.
        let mut rng = StdRng::seed_from_u64(61);
        for &delta in &[0.5, 0.01, 1e-4] {
            let grid = BucketGrid::new(delta, 1_000_000);
            let mut cursor = BucketCursor {
                edges: grid.edges(),
                at: 0,
            };
            let mut load = 0u64;
            while load < 1_500_000 {
                let bucket = grid.bucket(load) as usize;
                let end = grid.edges().get(bucket).copied().unwrap_or(u64::MAX);
                assert_eq!(cursor.end_of(load), end, "δ={delta} load={load}");
                // Mostly short strides, sometimes long jumps, sometimes a
                // repeat of the same load.
                load += match rng.gen_range(0..100) {
                    0..=9 => 0,
                    10..=11 => rng.gen_range(1_000..=100_000),
                    _ => rng.gen_range(1..=50),
                };
            }
        }
    }
}
