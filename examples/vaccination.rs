//! The paper's motivating scenario: an inoculation campaign.
//!
//! A government must vaccinate a population split into two groups with
//! cross-group personal conflicts, using medical facilities of different
//! daily capacities. People assigned to the same facility must be mutually
//! conflict-free; the goal is to finish the campaign as early as possible.
//!
//! People = jobs (unit processing), conflicts = a bipartite incompatibility
//! graph, facilities = uniform machines whose speed is the daily capacity.
//!
//! Run with: `cargo run --release --example vaccination`

use bisched::graph::gilbert_bipartite;
use bisched::model::bounds::min_time_to_cover;
use bisched::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2022);

    // Two communities of 400 people each; each cross-community pair is in
    // conflict with probability 3/n (the critical regime of Section 4.1).
    let n = 400usize;
    let conflicts = gilbert_bipartite(n, n, 3.0 / n as f64, &mut rng);
    println!(
        "population: {} people, {} pairwise conflicts",
        2 * n,
        conflicts.num_edges()
    );

    // Five facilities: a large hospital, two clinics, two pop-up sites.
    // Speeds are daily throughputs.
    let capacities = vec![120u64, 60, 60, 25, 25];
    let people = vec![1u64; 2 * n];
    let inst = Instance::uniform(capacities.clone(), people, conflicts).unwrap();

    // Algorithm 2 is the tool for random conflict graphs (Theorem 19:
    // a.a.s. within twice the optimal campaign length).
    let plan = alg2_random_graph(&inst).expect("conflict graph is bipartite");
    plan.schedule
        .validate(&inst)
        .expect("no conflicts co-located");

    // The no-conflicts lower bound: pure capacity.
    let capacity_lb = min_time_to_cover(&capacities, 2 * n as u64);
    println!(
        "campaign length: {:.2} days (pure-capacity lower bound {:.2})",
        plan.makespan.to_f64(),
        capacity_lb.to_f64()
    );
    println!(
        "conflict overhead factor: {:.3}",
        plan.makespan.ratio_to(&capacity_lb)
    );
    for i in 0..inst.num_machines() as u32 {
        let assigned = plan.schedule.jobs_on(i).len();
        println!(
            "  facility {} (capacity {:>3}/day): {:>3} people, {:.2} days",
            i + 1,
            inst.speed(i),
            assigned,
            assigned as f64 / inst.speed(i) as f64
        );
    }

    // Sanity: the theorem's promise (checked statistically by the
    // `bisched-random` tests; here it just demonstrates the API).
    assert!(plan.makespan.ratio_to(&plan.cstar) <= 2.5);
}
