//! Theorem 24: the gap reduction from 1-PrExt to
//! `Rm | G = bipartite | C_max` (`m ≥ 3`) ruling out any
//! `O(n^b · p_max^{1-ε})`-approximation unless P = NP.
//!
//! Unlike Theorem 8, no gadgets are needed — the unrelated times do all the
//! forcing. With stretch `d`:
//!
//! * pinned job `v_c` (`c ∈ {0,1,2}`): time `1` on machine `c`, `d` on the
//!   other two fast machines;
//! * every job: time `1` on `M_1..M_3`, `d` on every machine beyond;
//!
//! so **YES** ⇒ the color-extension schedule costs ≤ `n`, while **NO** ⇒
//! any schedule cheaper than `d` would place every job on `M_1..M_3` with
//! the pins on their own machines — i.e. exhibit a proper extension — so
//! `C*_max ≥ d`. The instance is small (`n` jobs), which lets the tests
//! verify the gap *exactly* with the branch-and-bound oracle.

use bisched_exact::is_proper_coloring;
use bisched_graph::{is_bipartite, Graph, Vertex};
use bisched_model::{Instance, Rat, Schedule};

/// The reduction output.
#[derive(Clone, Debug)]
pub struct Thm24Reduction {
    /// The produced `Rm | G = bipartite | C_max` instance.
    pub instance: Instance,
    /// The stretch parameter `d`.
    pub d: u64,
    /// The three precolored vertices.
    pub pins: [Vertex; 3],
}

impl Thm24Reduction {
    /// YES-side bound: a color-derived schedule costs at most `n`.
    pub fn yes_bound(&self) -> Rat {
        Rat::integer(self.instance.num_jobs() as u64)
    }

    /// NO-side bound: every schedule costs at least `d`.
    pub fn no_bound(&self) -> Rat {
        Rat::integer(self.d)
    }

    /// The witness schedule from a proper 3-coloring extension
    /// (color `c` → machine `M_{c+1}`).
    pub fn schedule_from_coloring(&self, coloring: &[u8]) -> Schedule {
        assert_eq!(coloring.len(), self.instance.num_jobs());
        let schedule = Schedule::new(coloring.iter().map(|&c| c as u32).collect());
        debug_assert!(schedule.validate(&self.instance).is_ok());
        schedule
    }

    /// Decodes machine labels back into a coloring (`None` if a job sits
    /// beyond `M_3`).
    pub fn decode_coloring(&self, schedule: &Schedule) -> Option<Vec<u8>> {
        (0..self.instance.num_jobs())
            .map(|v| {
                let m = schedule.machine_of(v as u32);
                (m < 3).then_some(m as u8)
            })
            .collect()
    }

    /// Whether the schedule decodes to a proper pinned extension of
    /// `source`.
    pub fn decodes_to_yes(&self, schedule: &Schedule, source: &Graph) -> bool {
        match self.decode_coloring(schedule) {
            None => false,
            Some(colors) => {
                is_proper_coloring(source, &colors)
                    && self
                        .pins
                        .iter()
                        .enumerate()
                        .all(|(c, &v)| colors[v as usize] == c as u8)
            }
        }
    }
}

/// Builds the Theorem 24 reduction for `m ≥ 3` machines and stretch
/// `d ≥ 1`.
pub fn reduce_1prext_to_rm(source: &Graph, pins: [Vertex; 3], d: u64, m: usize) -> Thm24Reduction {
    assert!(m >= 3, "Theorem 24 needs m ≥ 3 machines");
    assert!(d >= 1);
    assert!(
        is_bipartite(source),
        "1-PrExt source must be bipartite here"
    );
    assert!(
        pins[0] != pins[1] && pins[1] != pins[2] && pins[0] != pins[2],
        "precolored vertices must be distinct"
    );
    let n = source.num_vertices();
    let mut times = vec![vec![1u64; n]; m];
    // Fast machines M_1..M_3: pins cost d off their own machine.
    for (c, &v) in pins.iter().enumerate() {
        for (i, row) in times.iter_mut().take(3).enumerate() {
            row[v as usize] = if i == c { 1 } else { d };
        }
    }
    // Machines beyond M_3 are useless: everything costs d there.
    for row in times.iter_mut().skip(3) {
        for t in row.iter_mut() {
            *t = d;
        }
    }
    let instance = Instance::unrelated(times, source.clone()).expect("valid reduction");
    Thm24Reduction { instance, d, pins }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_exact::{
        branch_and_bound, claw_no_instance, path_yes_instance, precoloring_extension, standard_pins,
    };

    /// Stretches `d` from 32 to 2048: the gap must hold for every `p_max`.
    const STRETCHES: [u64; 4] = [32, 50, 256, 2048];

    #[test]
    fn yes_gap_verified_exactly() {
        let (g, pins) = path_yes_instance(2);
        let coloring = precoloring_extension(&g, &standard_pins(&pins), 3).expect("YES");
        for d in STRETCHES {
            let red = reduce_1prext_to_rm(&g, pins, d, 3);
            // Witness is cheap.
            let s = red.schedule_from_coloring(&coloring);
            assert!(s.makespan(&red.instance) <= red.yes_bound());
            // And the exact optimum is at most n, and decodes to a proper
            // extension.
            let opt = branch_and_bound(&red.instance, 10_000_000);
            assert!(opt.complete);
            let opt = opt.optimum.unwrap();
            assert!(opt.makespan <= red.yes_bound(), "d={d}");
            assert!(red.decodes_to_yes(&opt.schedule, &g), "d={d}");
        }
    }

    #[test]
    fn no_gap_verified_exactly() {
        for padding in [2, 4] {
            let (g, pins) = claw_no_instance(padding);
            assert!(precoloring_extension(&g, &standard_pins(&pins), 3).is_none());
            for d in STRETCHES {
                let red = reduce_1prext_to_rm(&g, pins, d, 3);
                let opt = branch_and_bound(&red.instance, 10_000_000);
                assert!(opt.complete);
                let mk = opt.optimum.unwrap().makespan;
                assert!(
                    mk >= red.no_bound(),
                    "NO instance scheduled below d: {mk} < {}",
                    red.no_bound()
                );
            }
        }
    }

    #[test]
    fn extra_machines_do_not_help() {
        let (g, pins) = claw_no_instance(1);
        let red3 = reduce_1prext_to_rm(&g, pins, 30, 3);
        let red5 = reduce_1prext_to_rm(&g, pins, 30, 5);
        let o3 = branch_and_bound(&red3.instance, 10_000_000)
            .optimum
            .unwrap()
            .makespan;
        let o5 = branch_and_bound(&red5.instance, 10_000_000)
            .optimum
            .unwrap()
            .makespan;
        // More d-cost machines can spread d-jobs but never beat the bound.
        assert!(o5 >= red5.no_bound().min(o3));
    }

    #[test]
    fn decode_roundtrip_on_yes() {
        let (g, pins) = path_yes_instance(0);
        let coloring = precoloring_extension(&g, &standard_pins(&pins), 3).unwrap();
        let red = reduce_1prext_to_rm(&g, pins, 10, 4);
        let s = red.schedule_from_coloring(&coloring);
        assert!(red.decodes_to_yes(&s, &g));
    }

    #[test]
    fn cheap_optimum_decodes_to_coloring() {
        // The forcing direction: an exact optimum under d must decode.
        let (g, pins) = path_yes_instance(3);
        let red = reduce_1prext_to_rm(&g, pins, 40, 3);
        let opt = branch_and_bound(&red.instance, 10_000_000).optimum.unwrap();
        assert!(opt.makespan < red.no_bound());
        assert!(red.decodes_to_yes(&opt.schedule, &g));
    }

    #[test]
    fn gap_scales_with_d() {
        let (g, pins) = claw_no_instance(0);
        for d in [10u64, 100, 1000] {
            let red = reduce_1prext_to_rm(&g, pins, d, 3);
            let gap = red.no_bound().ratio_to(&red.yes_bound());
            assert!((gap - d as f64 / 4.0).abs() < 1e-9);
        }
    }
}
