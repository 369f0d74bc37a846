//! The `(1+δ)` log-grid the trimming step buckets loads on.
//!
//! The seed implementation computed `⌊ln l / ln(1+δ)⌋` per coordinate per
//! expanded state. That is two `f64::ln` calls on the hottest path, and —
//! worse — the float rounding of `ln` near a bucket boundary can map
//! `l` and `l+1` to *decreasing* bucket indices, silently merging loads
//! that sit `(1+δ)` apart (a correctness hazard for the trimming
//! analysis, which needs every bucket to span at most a `(1+δ)` factor).
//!
//! [`BucketGrid`] fixes both: the integer bucket edges are materialised
//! once per sweep (`edges[k] = max(edges[k-1]+1, ⌈(1+δ)^k⌉)`, strictly
//! increasing **by construction**, so `bucket` is monotone in the load no
//! matter how `powi` rounds), and the per-load lookup is a branch-free
//! binary search over a cache-resident table — no transcendentals in the
//! inner loop. The `max(edges[k-1]+1, ·)` clamp can only *narrow* buckets
//! below the exact geometric grid, so the `(1+δ)`-per-trim error bound of
//! the FPTAS analysis is preserved (never loosened).
//!
//! The build itself avoids most `powi` calls, and its edges are bit-identical
//! to one `powi(k)` per edge (pinned against that reference by test):
//!
//! * **Identity prefix** — while `(1+δ)^k ≤ k + 1`, for loads up to about
//!   `ln(1/δ)/δ`, the clamp wins and `edges[k] = k + 1`. A `ln`-based bound
//!   with a wide margin finds how far that provably holds, and that prefix
//!   is written without any `powi`. For Algorithm 5's grids it is most of
//!   the table.
//! * **Geometric tail** — `(1+δ)^k` is tracked by one multiplication per
//!   edge, restarted from every `powi` the build computes. Its distance from
//!   `powi(k)` has a proven bound (see [`BucketGrid::new`]); wherever an
//!   integer lies within that bound the ceiling could differ, so that edge
//!   calls `powi` instead.

/// Monotone integer log-grid: bucket `0` holds load `0`, bucket `k ≥ 1`
/// holds the integer loads in `[edges[k-1], edges[k])`.
#[derive(Clone, Debug)]
pub struct BucketGrid {
    /// `edges[k]` = smallest load belonging to bucket `k + 1`; strictly
    /// increasing, `edges[0] = 1`.
    edges: Vec<u64>,
}

impl BucketGrid {
    /// Builds the grid for growth factor `1 + delta` covering loads up to
    /// `max_load` (larger loads saturate into the last bucket — callers
    /// prune loads above their incumbent bound before bucketing, so the
    /// saturation range is never consulted in a guarantee-carrying run).
    ///
    /// The edges equal `max(edges[k-1]+1, ⌈powi(1+δ, k)⌉)` bit for bit, but
    /// `powi` runs only where that is needed to know the ceiling:
    ///
    /// * the identity prefix `edges[k] = k + 1` is written directly for
    ///   every `k` up to the bound `identity_prefix` proves;
    /// * past it, `x` tracks `powi(k)` as the product of the last computed
    ///   `powi(k₁)` and `k − k₁` factors of `1 + δ`. Both are `(1+δ)^k`
    ///   within a relative `γ_k = k·u/(1 − k·u)` (`u = 2⁻⁵³`; `powi`
    ///   squares and multiplies, at most `k − 1` roundings), so
    ///   `|x − powi(k)| ≤ 2γ_k·(1+δ)^k`, under `b = 4k·u·x`. When no
    ///   integer lies within `b` of `x`, `⌈x⌉ = ⌈powi(k)⌉` (below `2⁵²`
    ///   both gaps `⌈x⌉ − x` and `x − ⌊x⌋` are exact); otherwise the edge
    ///   calls `powi` and `x` restarts from it. Every `f64` from `2⁵²` up is
    ///   an integer, so there every edge calls `powi`.
    ///
    /// Requires `delta > 0`.
    pub fn new(delta: f64, max_load: u64) -> Self {
        debug_assert!(delta > 0.0, "a trimming grid needs δ > 0");
        let growth = 1.0 + delta;
        let prefix = identity_prefix(growth, max_load);
        let mut edges: Vec<u64> = (1..=prefix + 1).collect();
        let mut k = i32::try_from(prefix).expect("a grid of 2³¹ edges does not fit in memory");
        let mut x = growth.powi(k);
        loop {
            let last = *edges.last().expect("edges is non-empty");
            if last > max_load {
                break;
            }
            k += 1;
            x *= growth;
            let bound = x * f64::from(k) * (2.0 * f64::EPSILON);
            if x.ceil() - x <= bound || x - x.floor() <= bound {
                x = growth.powi(k);
            }
            let geometric = x.ceil();
            let next = if geometric >= u64::MAX as f64 {
                u64::MAX
            } else {
                (geometric as u64).max(last + 1)
            };
            edges.push(next);
            if next == u64::MAX {
                break;
            }
        }
        BucketGrid { edges }
    }

    /// How many edges would cover loads up to `max_load` — used to decide
    /// whether materialising the grid is sane before paying for it
    /// (δ → 0 makes the grid approach one bucket per integer).
    pub fn projected_edges(delta: f64, max_load: u64) -> f64 {
        if max_load <= 1 {
            return 1.0;
        }
        (max_load as f64).ln() / (1.0 + delta).ln()
    }

    /// The bucket index of `load`: `0` for `0`, else the number of edges
    /// `≤ load`. Monotone non-decreasing in `load` by construction.
    #[inline]
    pub fn bucket(&self, load: u64) -> u64 {
        if load == 0 {
            return 0;
        }
        self.edges.partition_point(|&e| e <= load) as u64
    }

    /// Largest bucket index this grid can produce.
    pub fn max_bucket(&self) -> u64 {
        self.edges.len() as u64
    }

    /// The bucket edges: bucket `k ≥ 1` is `[edges[k-1], edges[k])`, and
    /// the last bucket is open-ended. Lets a caller that visits loads in
    /// order walk the table forward instead of searching it per load.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }
}

/// The largest `K ≤ max_load` for which every `k ≤ K` provably has
/// `powi(growth, k) ≤ k + 1`, so the clamp sets `edges[k] = k + 1`.
///
/// `powi(k) ≤ growth^k·(1 + γ_k)`, and `ln(1 + γ_k) ≤ 2k·u`, so
/// `ψ(k) = ln(k+1) − k·ln(growth) − ln(1 + γ_k) ≥ 0` suffices. The test
/// below checks it with margins (`10⁻⁹` relative, `10⁻¹⁵` per `k` for the
/// `2k·u` term) that dwarf the rounding of its few float operations. `ψ` is
/// concave, so it holds on all of `[1, K]` once it holds at both ends: the
/// binary search only ever accepts a `k` the test passed.
fn identity_prefix(growth: f64, max_load: u64) -> u64 {
    let ln_growth = growth.ln();
    let clamp_wins = |k: u64| {
        let k = k as f64;
        k * ln_growth * (1.0 + 1e-9) + k * 1e-15 + 1e-12 <= (k + 1.0).ln() * (1.0 - 1e-9)
    };
    if max_load == 0 || !clamp_wins(1) {
        return 0;
    }
    if clamp_wins(max_load) {
        return max_load;
    }
    let (mut lo, mut hi) = (1u64, max_load);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if clamp_wins(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rm_cmax::MAX_GRID_EDGES;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The grid as built before the identity prefix and the product tail:
    /// one `powi` per edge. `BucketGrid::new` must match it bit for bit.
    fn reference_edges(delta: f64, max_load: u64) -> Vec<u64> {
        let growth = 1.0 + delta;
        let mut edges: Vec<u64> = vec![1];
        let mut k = 0i32;
        loop {
            let last = *edges.last().expect("edges is non-empty");
            if last > max_load {
                break;
            }
            k += 1;
            let geometric = growth.powi(k).ceil();
            let next = if geometric >= u64::MAX as f64 {
                u64::MAX
            } else {
                (geometric as u64).max(last + 1)
            };
            edges.push(next);
            if next == u64::MAX {
                break;
            }
        }
        edges
    }

    #[test]
    fn edges_match_the_powi_reference() {
        // Algorithm 5's δ = ε/(2n), over its ε ladder, n in 3..=300 and max
        // loads up to 2⁴⁰, sampled: the reference is slow in debug builds.
        let mut rng = StdRng::seed_from_u64(67);
        let mut cases: Vec<(f64, u64, u64)> = Vec::new();
        for &eps in &[1.0, 0.5, 0.125, 0.02] {
            // Both ends of the n range at the largest load, then samples.
            cases.push((eps, 3, 1 << 40));
            cases.push((eps, 300, 1 << 40));
            for _ in 0..40 {
                let n = rng.gen_range(3..=300);
                let bits = rng.gen_range(0..=40);
                cases.push((eps, n, rng.gen_range(1..=1u64 << bits)));
            }
        }
        for (eps, n, max_load) in cases {
            let delta = eps / (2.0 * n as f64);
            if BucketGrid::projected_edges(delta, max_load) > MAX_GRID_EDGES {
                continue;
            }
            assert_eq!(
                BucketGrid::new(delta, max_load).edges,
                reference_edges(delta, max_load),
                "ε={eps} n={n} max_load={max_load}"
            );
        }
    }

    #[test]
    fn zero_and_one_are_distinct_buckets() {
        let g = BucketGrid::new(0.5, 100);
        assert_eq!(g.bucket(0), 0);
        assert_eq!(g.bucket(1), 1);
    }

    #[test]
    fn small_loads_get_singleton_buckets() {
        // Below ~1/δ the geometric spacing is under 1, so the strict-
        // increase clamp gives every integer its own bucket — the grid is
        // *finer* than the ⌊ln l / ln(1+δ)⌋ formula there, never coarser.
        for &delta in &[0.1f64, 0.25, 0.5] {
            let g = BucketGrid::new(delta, 10_000);
            let horizon = (1.0 / delta) as u64;
            for l in 1..=horizon {
                assert_eq!(
                    g.bucket(l + 1),
                    g.bucket(l) + 1,
                    "δ={delta}: loads {l} and {} must not share a bucket",
                    l + 1
                );
            }
        }
    }

    #[test]
    fn monotone_over_exhaustive_small_range() {
        for &delta in &[1e-3, 0.01, 0.1, 0.5, 1.0] {
            let g = BucketGrid::new(delta, 5_000);
            let mut prev = 0;
            for l in 0..=5_000u64 {
                let b = g.bucket(l);
                assert!(b >= prev, "δ={delta}: bucket({l})={b} < {prev}");
                prev = b;
            }
        }
    }

    #[test]
    fn bucket_width_stays_within_growth_factor() {
        // Any two integer loads sharing a bucket are within (1+δ): the
        // property the FPTAS error analysis stands on.
        for &delta in &[0.01f64, 0.1, 0.7] {
            let g = BucketGrid::new(delta, 200_000);
            let mut start = 1u64;
            for l in 2..=200_000u64 {
                if g.bucket(l) != g.bucket(start) {
                    start = l;
                } else {
                    assert!(
                        l as f64 <= start as f64 * (1.0 + delta),
                        "δ={delta}: {start} and {l} share a bucket"
                    );
                }
            }
        }
    }

    #[test]
    fn saturates_instead_of_panicking_past_max_load() {
        let g = BucketGrid::new(0.5, 1_000);
        assert_eq!(g.bucket(u64::MAX), g.max_bucket());
    }

    #[test]
    fn projected_edges_tracks_actual_size() {
        let delta = 0.05;
        let g = BucketGrid::new(delta, 1 << 30);
        let projected = BucketGrid::projected_edges(delta, 1 << 30);
        let actual = g.max_bucket() as f64;
        assert!(
            (actual - projected).abs() <= 0.1 * projected + 8.0,
            "projected {projected} vs actual {actual}"
        );
    }
}
