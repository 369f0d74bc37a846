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
    /// Requires `delta > 0`.
    pub fn new(delta: f64, max_load: u64) -> Self {
        debug_assert!(delta > 0.0, "a trimming grid needs δ > 0");
        let growth = 1.0 + delta;
        let mut edges: Vec<u64> = vec![1];
        let mut k = 0i32;
        loop {
            let last = *edges.last().expect("edges is non-empty");
            if last > max_load {
                break;
            }
            k += 1;
            // `powi` per edge (not cumulative multiplication) keeps the
            // drift at ~1 ulp; the strict-increase clamp makes the grid
            // monotone regardless.
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

#[cfg(test)]
mod tests {
    use super::*;

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
