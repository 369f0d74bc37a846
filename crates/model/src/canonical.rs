//! Canonical normal form and fingerprint for instances.
//!
//! Two instances that differ only in how jobs are numbered (and, for `R`,
//! how machines are numbered) describe the same scheduling problem. The
//! canonicalizer maps every member of such an isomorphism class to one
//! **normal form** — jobs renumbered by an invariant canonical order,
//! `R` machine rows sorted — and hashes its byte certificate to a stable
//! 128-bit [`fingerprint`](Canonical::fingerprint). That key is what lets
//! a solve cache serve a relabeled resubmission without re-solving.
//!
//! # The job order
//!
//! Jobs start with invariant colors derived from their processing data
//! and are refined to an equitable coloring: jobs of one color see the
//! same multiset of neighbor colors. An individualization-refinement
//! search then resolves the remaining ties: it branches on the first tied
//! cell (the smallest color held by two or more jobs), individualizes
//! each candidate in turn, refines, and recurses until the coloring is
//! discrete. Each such leaf orders the jobs by color, and its key is the
//! leaf's colors followed by the edge list relabeled in that order. The
//! canonical order is the first leaf, in depth-first order, with the
//! smallest key. Fully interchangeable tie cells — every outside job
//! adjacent to all or none of the cell, the cell itself complete or empty
//! — are ordered directly without branching, which covers empty graphs,
//! complete bipartite blocks and equal-size job classes in linear time.
//!
//! # Refinement
//!
//! Two refinements run, each where it is cheapest:
//!
//! - **At the root: rounds.** Every job absorbs the sorted multiset of its
//!   neighbors' colors, round after round, until the partition stops
//!   growing. Rounds also run after each shortcut at the root.
//! - **Below the root: splitters** (McKay & Piperno, *Practical graph
//!   isomorphism II*, 2014). Individualizing a job splits its cell into
//!   the job and the rest. From then on only cells that just split are
//!   used as splitters: the neighbors of a splitter's members are
//!   counted, and a cell whose members' counts differ splits into parts
//!   named `mix(cell, splitter, count)`. A cell that does not split keeps
//!   its name. Splitters wait in a queue, joined in name order under
//!   Hopcroft's rule (all parts of a waiting cell, else all but the
//!   largest). Refinement stops when the queue is empty or the coloring
//!   is discrete; the result is the coarsest equitable refinement, which
//!   rounds would also reach, under other names. Each step reads only the
//!   splitter's adjacency, not the whole graph's.
//! - **After a shortcut below the root: none.** An interchangeable cell's
//!   outside jobs see all or none of it, so in an equitable coloring
//!   every other cell sees each of its singletons equally often: the
//!   coloring stays equitable.
//!
//! Every queue order, tie-break and name derives from names and counts,
//! never from job ids, so relabeled instances get the same names and the
//! same search tree. An instance whose search never branches is colored
//! by the root's rounds alone, which are those of the search before
//! splitter refinement, so its canonical form cannot move; only forms of
//! instances that branch depend on the refinement below the root.
//!
//! # Pruning with automorphisms
//!
//! Symmetric graphs (unions of cycles, crowns, cubic graphs with unit
//! jobs) give search trees with one leaf per automorphism. The search
//! prunes them the way nauty-style canonical labelers do:
//!
//! - **Automorphisms from leaves.** A leaf whose color key equals the
//!   first leaf's, or whose whole key equals the best leaf's, maps that
//!   earlier leaf's order onto its own. Once checked to be a graph
//!   automorphism, the permutation is kept as a generator.
//! - **Orbit pruning.** At a branching node, the generators that map every
//!   job to one of the same color at that node merge candidates into
//!   orbits (union-find, smallest job as root). A candidate whose orbit
//!   already holds an explored candidate is skipped.
//! - **Backjumping.** When a new generator puts the candidate being
//!   explored at some ancestor into the orbit of an explored sibling, the
//!   rest of that candidate's subtree is abandoned at once.
//! - **Twins.** Jobs with equal processing data and equal neighborhoods
//!   are swapped by an automorphism, so they seed each node's orbits
//!   before any leaf is reached. Twin classes are computed once per
//!   instance and shared by all `R` machine orders; nodes skip orbit work
//!   entirely while there are neither twins nor generators.
//! - **Lazy edge keys.** A leaf's edge key is built only when its color
//!   key ties the best leaf's.
//!
//! **Same form as the unpruned search.** A subtree is skipped only when
//! an automorphism preserving its parent's coloring maps an earlier
//! sibling's subtree onto it. Both then hold the same leaf keys, so the
//! skipped one can neither improve the best key nor hold its first
//! occurrence. The pruned search therefore returns exactly the leaf the
//! plain search on the same refinement schedule returns: the same
//! certificate, fingerprint, job and machine permutations, cache keys and
//! snapshot files. A reference property test in this module pins this,
//! and `bisched-lab` pins the registry's forms by digest: one digest for
//! the scenarios that never branch, one for those that do.
//!
//! # The budget
//!
//! A search budget still bounds the number of explored candidates. It
//! now binds only where many candidates are *not* equivalent, e.g. large
//! graphs whose automorphism group is small but whose refinement leaves
//! big cells. Past it the canonical form is still deterministic and
//! self-consistent but may distinguish some relabelings (costing a cache
//! miss, never a wrong answer — caches must compare
//! [`Canonical::certificate`] bytes on lookup, not just the fingerprint).

use crate::instance::{Instance, MachineEnvironment};
use crate::schedule::Schedule;
use bisched_graph::Graph;
use std::cmp::{Ordering, Reverse};
use std::collections::VecDeque;
use std::ops::Range;

/// Search budget: maximum number of candidate subtrees the
/// individualization search explores before falling back to
/// first-candidate-only exploration.
const SEARCH_BUDGET: usize = 4096;

/// Maximum number of `R` machine-row orderings enumerated when several
/// rows share the same sorted-multiset key.
const MACHINE_ORDER_BUDGET: usize = 48;

/// The canonical form of an instance plus everything needed to translate
/// answers between the original and canonical labelings.
#[derive(Clone, Debug)]
pub struct Canonical {
    /// The instance in normal form: jobs renumbered canonically and, for
    /// `R`, machine rows sorted.
    pub instance: Instance,
    /// `job_perm[c]` = the original id of the job at canonical position
    /// `c`.
    pub job_perm: Vec<u32>,
    /// `machine_perm[c]` = the original id of the machine at canonical
    /// position `c` (identity for `P`/`Q`, whose machine order is already
    /// canonical).
    pub machine_perm: Vec<u32>,
    /// Byte certificate of the normal form; equal bytes ⇔ identical
    /// canonical instances. Cache lookups must compare this, not only the
    /// fingerprint, so hash collisions degrade to misses.
    pub certificate: Vec<u8>,
    /// 128-bit FNV-1a hash of [`certificate`](Self::certificate).
    pub fingerprint: u128,
}

impl Canonical {
    /// Translates a schedule expressed over the **canonical** labeling
    /// back to the original labeling: original job `job_perm[c]` goes to
    /// original machine `machine_perm[assignment[c]]`.
    pub fn schedule_to_original(&self, canonical: &Schedule) -> Schedule {
        let mut assignment = vec![0u32; canonical.num_jobs()];
        for (c, &machine) in canonical.assignment().iter().enumerate() {
            assignment[self.job_perm[c] as usize] = self.machine_perm[machine as usize];
        }
        Schedule::new(assignment)
    }
}

/// Computes the canonical form of `inst`. Deterministic; invariant under
/// job (and `R` machine) relabelings for all but search-budget-exceeding
/// inputs (see the module docs).
pub fn canonicalize(inst: &Instance) -> Canonical {
    let mut search = OrderSearch::new(inst);
    canonicalize_by(inst, |init| search.job_order(init))
}

/// The canonical form of `inst`, with `job_order` mapping initial job
/// colors to the canonical job order.
fn canonicalize_by(inst: &Instance, mut job_order: impl FnMut(&[u64]) -> Vec<u32>) -> Canonical {
    match inst.env() {
        // `P`/`Q`: machines are already canonical (anonymous /
        // speed-sorted), so only the job order is searched.
        MachineEnvironment::Identical { .. } | MachineEnvironment::Uniform { .. } => {
            let order = job_order(&processing_colors(inst));
            let machine_perm = (0..inst.num_machines() as u32).collect();
            Candidate::new(inst, order, machine_perm).finish()
        }
        // `R`: machine rows are keyed by their sorted multiset; ties
        // between rows are broken by enumerating their orderings
        // (bounded) and keeping the smallest certificate.
        MachineEnvironment::Unrelated { times } => {
            let mut best: Option<Candidate> = None;
            for machine_perm in
                enumerate_machine_orders(&machine_classes(times), MACHINE_ORDER_BUDGET)
            {
                let order = job_order(&column_colors(times, &machine_perm));
                let cand = Candidate::new(inst, order, machine_perm);
                if best
                    .as_ref()
                    .is_none_or(|b| cand.certificate < b.certificate)
                {
                    best = Some(cand);
                }
            }
            best.expect("at least one machine order").finish()
        }
    }
}

/// Initial `P`/`Q` job colors: the processing time.
fn processing_colors(inst: &Instance) -> Vec<u64> {
    (0..inst.num_jobs())
        .map(|j| mix(0x9e37_79b9, inst.processing(j as u32)))
        .collect()
}

/// Initial `R` job colors under a fixed machine order: with the order
/// fixed, a job's exact column is invariant job data.
fn column_colors(times: &[Vec<u64>], machine_perm: &[u32]) -> Vec<u64> {
    let n = times.first().map_or(0, Vec::len);
    (0..n)
        .map(|j| {
            machine_perm
                .iter()
                .fold(0xc0de_u64, |h, &i| mix(h, times[i as usize][j]))
        })
        .collect()
}

/// Machines grouped into tie classes of identical sorted rows, classes in
/// ascending key order, members in ascending id order.
fn machine_classes(times: &[Vec<u64>]) -> Vec<Vec<u32>> {
    let mut keyed: Vec<(Vec<u64>, u32)> = times
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut k = row.clone();
            k.sort_unstable();
            (k, i as u32)
        })
        .collect();
    keyed.sort();
    keyed
        .chunk_by(|a, b| a.0 == b.0)
        .map(|class| class.iter().map(|&(_, i)| i).collect())
        .collect()
}

/// All machine orders compatible with the sorted tie classes, capped at
/// `budget` (the identity-within-class order always comes first, so the
/// fallback past the cap stays deterministic).
fn enumerate_machine_orders(classes: &[Vec<u32>], budget: usize) -> Vec<Vec<u32>> {
    let mut orders: Vec<Vec<u32>> = vec![Vec::new()];
    for class in classes {
        let mut next = Vec::new();
        for prefix in &orders {
            for perm in permutations(class, budget.div_ceil(orders.len().max(1))) {
                let mut o = prefix.clone();
                o.extend_from_slice(&perm);
                next.push(o);
                if next.len() >= budget {
                    break;
                }
            }
            if next.len() >= budget {
                break;
            }
        }
        orders = next;
    }
    orders
}

/// Up to `cap` permutations of `items`, in a deterministic order starting
/// from the identity (Heap's algorithm order).
fn permutations(items: &[u32], cap: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut work = items.to_vec();
    let n = work.len();
    let mut c = vec![0usize; n];
    out.push(work.clone());
    let mut i = 0;
    while i < n && out.len() < cap.max(1) {
        if c[i] < i {
            if i % 2 == 0 {
                work.swap(0, i);
            } else {
                work.swap(c[i], i);
            }
            out.push(work.clone());
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    out
}

/// One candidate normal form: the relabeled parts of the instance and
/// their certificate. The instance itself is assembled only for the
/// winning candidate.
struct Candidate {
    env: MachineEnvironment,
    /// Relabeled `P`/`Q` processing times; empty for `R`, whose times
    /// live in `env`.
    processing: Vec<u64>,
    graph: Graph,
    job_perm: Vec<u32>,
    machine_perm: Vec<u32>,
    certificate: Vec<u8>,
}

impl Candidate {
    /// Relabels `inst` by a job order and a machine order.
    fn new(inst: &Instance, order: Vec<u32>, machine_perm: Vec<u32>) -> Candidate {
        let mut inv = vec![0u32; inst.num_jobs()];
        for (c, &j) in order.iter().enumerate() {
            inv[j as usize] = c as u32;
        }
        let graph = inst.graph().relabeled(&inv);
        let (env, processing) = match inst.env() {
            MachineEnvironment::Unrelated { times } => (
                MachineEnvironment::Unrelated {
                    times: machine_perm
                        .iter()
                        .map(|&i| {
                            order
                                .iter()
                                .map(|&j| times[i as usize][j as usize])
                                .collect()
                        })
                        .collect(),
                },
                Vec::new(),
            ),
            env => (
                env.clone(),
                order.iter().map(|&j| inst.processing(j)).collect(),
            ),
        };
        Candidate {
            certificate: certificate_bytes(&env, &processing, &graph),
            env,
            processing,
            graph,
            job_perm: order,
            machine_perm,
        }
    }

    fn finish(self) -> Canonical {
        let instance = match self.env {
            MachineEnvironment::Identical { m } => {
                Instance::identical(m, self.processing, self.graph)
            }
            MachineEnvironment::Uniform { speeds } => {
                Instance::uniform(speeds, self.processing, self.graph)
            }
            MachineEnvironment::Unrelated { times } => Instance::unrelated(times, self.graph),
        };
        Canonical {
            instance: instance.expect("canonical relabeling is valid"),
            job_perm: self.job_perm,
            machine_perm: self.machine_perm,
            fingerprint: fnv128(&self.certificate),
            certificate: self.certificate,
        }
    }
}

/// Stable byte encoding of a canonical instance: the `α` field, the job
/// count, the machine data, the processing times and the edge list
/// (`u < v`, sorted).
fn certificate_bytes(env: &MachineEnvironment, processing: &[u64], graph: &Graph) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(env.alpha().as_bytes());
    let push = |out: &mut Vec<u8>, x: u64| out.extend_from_slice(&x.to_le_bytes());
    push(&mut out, graph.num_vertices() as u64);
    let push_processing = |out: &mut Vec<u8>| {
        out.push(b'p');
        processing.iter().for_each(|&x| push(out, x));
    };
    match env {
        MachineEnvironment::Identical { m } => {
            out.push(b'm');
            push(&mut out, *m as u64);
            push_processing(&mut out);
        }
        MachineEnvironment::Uniform { speeds } => {
            out.push(b's');
            push(&mut out, speeds.len() as u64);
            speeds.iter().for_each(|&s| push(&mut out, s));
            push_processing(&mut out);
        }
        MachineEnvironment::Unrelated { times } => {
            out.push(b't');
            push(&mut out, times.len() as u64);
            for row in times {
                row.iter().for_each(|&x| push(&mut out, x));
            }
        }
    }
    out.push(b'e');
    push(&mut out, graph.num_edges() as u64);
    for (u, v) in graph.edges() {
        push(&mut out, u as u64);
        push(&mut out, v as u64);
    }
    out
}

/// 128-bit FNV-1a — the hash behind [`Canonical::fingerprint`], exposed
/// so callers composing cache keys (e.g. the service's config-aware key)
/// use the same construction.
pub fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// 64-bit hash combiner (splitmix-style finalization).
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Marks a job without a twin.
const NO_TWIN: u32 = u32::MAX;

/// The automorphism-pruned individualization-refinement search for one
/// instance. Twin classes and generators are graph properties, so they
/// carry over between the calls an `R` instance makes per machine order;
/// the leaves and the budget are per call.
struct OrderSearch<'a> {
    inst: &'a Instance,
    /// `twins[j]`: the smallest job with `j`'s processing data and
    /// neighborhood, or [`NO_TWIN`]; empty when no job has a twin.
    /// Computed at the instance's first branching node.
    twins: Option<Vec<u32>>,
    /// Graph automorphisms found at leaves.
    generators: Vec<Generator>,
    budget: usize,
    /// The branching nodes of the current path, by depth, and the node
    /// being refined below them. Buffers are reused across nodes.
    levels: Vec<Level>,
    /// Leaves reached in the current call.
    leaves: usize,
    /// Adjacency entries read by refinement in the current call.
    refine_reads: usize,
    first: Leaf,
    best: Leaf,
    /// Whether the best leaf is still the first one (`best` is then
    /// stale).
    best_is_first: bool,
    scratch: Scratch,
}

/// A graph automorphism and the jobs it moves.
struct Generator {
    perm: Vec<u32>,
    support: Vec<u32>,
}

impl Generator {
    /// Whether every job is mapped to one of the same color.
    fn preserves(&self, colors: &[u64]) -> bool {
        self.support
            .iter()
            .all(|&x| colors[self.perm[x as usize] as usize] == colors[x as usize])
    }
}

/// One node of the current search path.
#[derive(Default)]
struct Level {
    /// The node's coloring: refined, with shortcut cells individualized.
    colors: Vec<u64>,
    /// `(color, job)` pairs of `colors` in ascending order.
    sorted: Vec<(u64, u32)>,
    /// The cell branched on, ascending job ids.
    cell: Vec<u32>,
    /// Union-find parents over job ids, smallest id as root, merging
    /// candidates that an automorphism preserving `colors` maps onto each
    /// other. Empty while every orbit is trivial.
    orbits: Vec<u32>,
    /// The candidate whose subtree is being explored.
    current: u32,
}

impl Level {
    /// Whether no smaller candidate shares `j`'s orbit. Candidates are
    /// explored in ascending order, so a non-root's orbit holds an
    /// explored one.
    fn is_orbit_root(&mut self, j: u32) -> bool {
        self.orbits.is_empty() || find(&mut self.orbits, j) == j
    }

    fn union(&mut self, a: u32, b: u32) {
        if self.orbits.is_empty() {
            self.orbits.extend(0..self.colors.len() as u32);
        }
        let (ra, rb) = (find(&mut self.orbits, a), find(&mut self.orbits, b));
        if ra != rb {
            self.orbits[ra.max(rb) as usize] = ra.min(rb);
        }
    }

    /// Merges the orbits `g` induces on the cell if `g` preserves this
    /// node's coloring; returns whether it does.
    fn absorb(&mut self, g: &Generator) -> bool {
        if !g.preserves(&self.colors) {
            return false;
        }
        let cell_color = self.colors[self.cell[0] as usize];
        for &x in &g.support {
            if self.colors[x as usize] == cell_color {
                self.union(x, g.perm[x as usize]);
            }
        }
        true
    }
}

/// Union-find root with path halving.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let up = parent[parent[x as usize] as usize];
        parent[x as usize] = up;
        x = up;
    }
    x
}

/// A leaf of the search: a discrete coloring.
#[derive(Default)]
struct Leaf {
    /// The jobs in ascending color order: a candidate canonical order.
    order: Vec<u32>,
    /// Their colors: the first half of the leaf key.
    colors: Vec<u64>,
    /// The edge list relabeled by `order`: the second half, built when
    /// first compared.
    edges: Option<Vec<u8>>,
}

impl Leaf {
    fn set(&mut self, sorted: &[(u64, u32)], edges: Option<Vec<u8>>) {
        self.colors.clear();
        self.colors.extend(sorted.iter().map(|&(c, _)| c));
        self.order.clear();
        self.order.extend(sorted.iter().map(|&(_, j)| j));
        self.edges = edges;
    }
}

/// Reusable buffers, sized for one instance.
#[derive(Default)]
struct Scratch {
    next: Vec<u64>,
    neighbor_colors: Vec<u64>,
    distinct: Vec<u64>,
    in_cell: Vec<bool>,
    outside_hits: Vec<u32>,
    touched: Vec<u32>,
    /// A candidate automorphism.
    gamma: Vec<u32>,
    inv: Vec<u32>,
    /// Per twin class: its first member in the current cell.
    twin_slot: Vec<u32>,
    cells: Cells,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            in_cell: vec![false; n],
            outside_hits: vec![0; n],
            gamma: vec![0; n],
            inv: vec![0; n],
            twin_slot: vec![NO_TWIN; n],
            cells: Cells::new(n),
            ..Scratch::default()
        }
    }

    /// Round-based refinement: each round every job absorbs the sorted
    /// multiset of its neighbors' colors; stops after the first round
    /// that does not grow the partition. Returns the adjacency entries
    /// read.
    fn refine(&mut self, graph: &Graph, colors: &mut [u64]) -> usize {
        let mut reads = 0;
        let mut distinct = self.count_distinct(colors);
        loop {
            self.next.clear();
            for (j, &color) in colors.iter().enumerate() {
                let neighbors = graph.neighbors(j as u32);
                reads += neighbors.len();
                self.neighbor_colors.clear();
                self.neighbor_colors
                    .extend(neighbors.iter().map(|&v| colors[v as usize]));
                self.neighbor_colors.sort_unstable();
                let h = self
                    .neighbor_colors
                    .iter()
                    .fold(mix(0xace1, color), |h, &c| mix(h, c));
                self.next.push(h);
            }
            colors.copy_from_slice(&self.next);
            let d = self.count_distinct(colors);
            if d == distinct {
                return reads;
            }
            distinct = d;
        }
    }

    fn count_distinct(&mut self, colors: &[u64]) -> usize {
        self.distinct.clear();
        self.distinct.extend_from_slice(colors);
        self.distinct.sort_unstable();
        self.distinct.dedup();
        self.distinct.len()
    }

    /// Whether every job outside the cell is adjacent to all or none of
    /// it, and the cell's induced subgraph is complete or empty — i.e.
    /// the cell's members are fully interchangeable and need no
    /// branching.
    fn interchangeable(&mut self, graph: &Graph, cell: &[u32]) -> bool {
        let k = cell.len();
        for &j in cell {
            self.in_cell[j as usize] = true;
        }
        let mut inner_edges = 0usize;
        for &j in cell {
            for &v in graph.neighbors(j) {
                if self.in_cell[v as usize] {
                    inner_edges += 1;
                } else {
                    if self.outside_hits[v as usize] == 0 {
                        self.touched.push(v);
                    }
                    self.outside_hits[v as usize] += 1;
                }
            }
        }
        inner_edges /= 2;
        let ok = (inner_edges == 0 || inner_edges == k * (k - 1) / 2)
            && self
                .touched
                .iter()
                .all(|&v| self.outside_hits[v as usize] as usize == k);
        for &j in cell {
            self.in_cell[j as usize] = false;
        }
        for &v in &self.touched {
            self.outside_hits[v as usize] = 0;
        }
        self.touched.clear();
        ok
    }
}

/// Sorts the jobs by color into `sorted` and returns the range of the
/// first tied cell: the smallest color held by two or more jobs,
/// members in ascending id order.
fn first_cell(colors: &[u64], sorted: &mut Vec<(u64, u32)>) -> Option<Range<usize>> {
    sorted.clear();
    sorted.extend(colors.iter().enumerate().map(|(j, &c)| (c, j as u32)));
    sorted.sort_unstable();
    let mut i = 0;
    while i < sorted.len() {
        let mut k = i + 1;
        while k < sorted.len() && sorted[k].0 == sorted[i].0 {
            k += 1;
        }
        if k - i > 1 {
            return Some(i..k);
        }
        i = k;
    }
    None
}

/// The partition of the jobs that splitter refinement works on: every
/// cell is a run of `elems`, identified by where it starts and named by
/// its members' common color. Where parts of a split cell go inside its
/// run depends on counts only, so cell starts, like names, never depend
/// on job ids.
#[derive(Default)]
struct Cells {
    /// The jobs, cell by cell.
    elems: Vec<u32>,
    /// `start[j]`: where job `j`'s cell starts in `elems`.
    start: Vec<u32>,
    /// `end[s]`: where the cell starting at `s` ends.
    end: Vec<u32>,
    /// Whether the cell starting at `s` waits in `queue`.
    queued: Vec<bool>,
    /// Whether the cell starting at `s` holds a neighbor of the splitter.
    touched: Vec<bool>,
    /// `count[j]`: how many neighbors job `j` has in the splitter.
    count: Vec<u32>,
    /// Splitters waiting, by cell start.
    queue: VecDeque<u32>,
    touched_jobs: Vec<u32>,
    touched_cells: Vec<u32>,
    /// The parts of the cell being split: `(name, start, size)`.
    parts: Vec<(u64, u32, u32)>,
}

impl Cells {
    fn new(n: usize) -> Cells {
        Cells {
            start: vec![0; n],
            end: vec![0; n],
            queued: vec![false; n],
            touched: vec![false; n],
            count: vec![0; n],
            ..Cells::default()
        }
    }

    /// Seeded equitable refinement. `parent` holds the `(color, job)`
    /// pairs of an equitable coloring in ascending order, and `colors` a
    /// copy of that coloring. Individualizes job `c`, whose cell is
    /// tied, and refines only by the cells that split from then on, until
    /// the coloring is equitable again (or discrete). Returns the
    /// adjacency entries read.
    fn refine_from(
        &mut self,
        graph: &Graph,
        parent: &[(u64, u32)],
        c: u32,
        colors: &mut [u64],
    ) -> usize {
        let n = parent.len();
        self.elems.clear();
        self.elems.extend(parent.iter().map(|&(_, j)| j));
        let mut cells = 0;
        let mut a = 0;
        for run in parent.chunk_by(|x, y| x.0 == y.0) {
            for &(_, j) in run {
                self.start[j as usize] = a as u32;
            }
            self.end[a] = (a + run.len()) as u32;
            a += run.len();
            cells += 1;
        }
        // `c` moves to the front of its cell as a singleton. Both parts
        // are renamed: were the rest to keep the cell's name, a job
        // individualized from it later would take `c`'s name.
        let a = self.start[c as usize] as usize;
        let b = self.end[a] as usize;
        debug_assert!(b - a > 1, "only a tied job is individualized");
        let at = self.elems[a..b]
            .iter()
            .position(|&j| j == c)
            .expect("a job lies in its own cell");
        self.elems.swap(a, a + at);
        self.end[a] = a as u32 + 1;
        self.end[a + 1] = b as u32;
        let cell = colors[c as usize];
        for &j in &self.elems[a + 1..b] {
            self.start[j as usize] = a as u32 + 1;
            colors[j as usize] = mix(cell, 0x1d20);
        }
        colors[c as usize] = mix(cell, 0x1d1f);
        cells += 1;
        // Every cell has uniform counts into the old cell, so counts into
        // the singleton determine counts into the rest: the singleton
        // alone is a complete set of splitters.
        self.queued[a] = true;
        self.queue.push_back(a as u32);
        let mut reads = 0;
        while cells < n {
            let Some(s) = self.queue.pop_front() else {
                break;
            };
            let s = s as usize;
            self.queued[s] = false;
            let splitter = colors[self.elems[s] as usize];
            for &u in &self.elems[s..self.end[s] as usize] {
                let neighbors = graph.neighbors(u);
                reads += neighbors.len();
                for &v in neighbors {
                    if self.count[v as usize] == 0 {
                        self.touched_jobs.push(v);
                    }
                    self.count[v as usize] += 1;
                }
            }
            for &v in &self.touched_jobs {
                let t = self.start[v as usize];
                if !self.touched[t as usize] {
                    self.touched[t as usize] = true;
                    self.touched_cells.push(t);
                }
            }
            let mut touched_cells = std::mem::take(&mut self.touched_cells);
            touched_cells.sort_unstable_by_key(|&t| (colors[self.elems[t as usize] as usize], t));
            for &t in &touched_cells {
                self.touched[t as usize] = false;
                cells += self.split(t as usize, splitter, colors);
            }
            touched_cells.clear();
            self.touched_cells = touched_cells;
            for &v in &self.touched_jobs {
                self.count[v as usize] = 0;
            }
            self.touched_jobs.clear();
        }
        for s in self.queue.drain(..) {
            self.queued[s as usize] = false;
        }
        reads
    }

    /// Splits the cell starting at `t` by the members' counts into the
    /// splitter named `splitter`. Parts are laid out by ascending count
    /// and named `mix(cell, splitter, count)`; a cell whose counts agree
    /// keeps its name. The parts join the queue in name order under
    /// Hopcroft's rule: all of them if the cell was waiting, else all but
    /// the largest (ties: the smallest name). Returns the cells added.
    fn split(&mut self, t: usize, splitter: u64, colors: &mut [u64]) -> usize {
        let e = self.end[t] as usize;
        let count = &self.count;
        let cell = &mut self.elems[t..e];
        let first = count[cell[0] as usize];
        if cell.iter().all(|&j| count[j as usize] == first) {
            return 0;
        }
        cell.sort_unstable_by_key(|&j| count[j as usize]);
        let name = mix(colors[cell[0] as usize], splitter);
        self.parts.clear();
        let mut a = t;
        for part in self.elems[t..e].chunk_by(|&x, &y| count[x as usize] == count[y as usize]) {
            let part_name = mix(name, count[part[0] as usize] as u64);
            for &j in part {
                self.start[j as usize] = a as u32;
                colors[j as usize] = part_name;
            }
            self.end[a] = (a + part.len()) as u32;
            self.parts.push((part_name, a as u32, part.len() as u32));
            a += part.len();
        }
        self.parts.sort_unstable();
        let stays = if self.queued[t] {
            // The waiting entry now stands for the part at `t`.
            t as u32
        } else {
            let largest = self
                .parts
                .iter()
                .max_by_key(|&&(name, _, size)| (size, Reverse(name)))
                .expect("a split has parts");
            largest.1
        };
        for &(_, s, _) in &self.parts {
            if s != stays {
                self.queued[s as usize] = true;
                self.queue.push_back(s);
            }
        }
        self.parts.len() - 1
    }
}

/// The edge half of a leaf key: the edges relabeled by `order`,
/// normalized, sorted, as little-endian bytes.
fn edge_key(graph: &Graph, order: impl Iterator<Item = u32>, inv: &mut [u32]) -> Vec<u8> {
    for (c, j) in order.enumerate() {
        inv[j as usize] = c as u32;
    }
    let mut edges: Vec<(u32, u32)> = graph
        .edges()
        .map(|(u, v)| {
            let (a, b) = (inv[u as usize], inv[v as usize]);
            (a.min(b), a.max(b))
        })
        .collect();
    edges.sort_unstable();
    let mut key = Vec::with_capacity(edges.len() * 8);
    for (u, v) in edges {
        key.extend_from_slice(&u.to_le_bytes());
        key.extend_from_slice(&v.to_le_bytes());
    }
    key
}

/// Compares a leaf's colors with `key` as the little-endian byte strings
/// the leaf key is made of.
fn cmp_color_keys(sorted: &[(u64, u32)], key: &[u64]) -> Ordering {
    sorted
        .iter()
        .map(|&(c, _)| c.swap_bytes())
        .cmp(key.iter().map(|c| c.swap_bytes()))
}

/// Whether the permutation maps every edge onto an edge.
fn is_automorphism(graph: &Graph, gamma: &[u32]) -> bool {
    graph
        .edges()
        .all(|(u, v)| graph.has_edge(gamma[u as usize], gamma[v as usize]))
}

/// Twin classes: jobs with equal processing data (the `R` column) and
/// equal neighborhoods, mapped to the smallest member. Empty when every
/// class is a singleton.
fn twin_classes(inst: &Instance) -> Vec<u32> {
    let graph = inst.graph();
    let key = |u: u32, v: u32| {
        let data = match inst.env() {
            MachineEnvironment::Unrelated { times } => times
                .iter()
                .map(|row| row[u as usize])
                .cmp(times.iter().map(|row| row[v as usize])),
            _ => inst.processing(u).cmp(&inst.processing(v)),
        };
        graph.neighbors(u).cmp(graph.neighbors(v)).then(data)
    };
    let mut jobs: Vec<u32> = (0..inst.num_jobs() as u32).collect();
    jobs.sort_by(|&u, &v| key(u, v).then(u.cmp(&v)));
    let mut twins = vec![NO_TWIN; jobs.len()];
    let mut any = false;
    for class in jobs.chunk_by(|&u, &v| key(u, v).is_eq()) {
        if class.len() > 1 {
            any = true;
            for &j in class {
                twins[j as usize] = class[0];
            }
        }
    }
    if any {
        twins
    } else {
        Vec::new()
    }
}

impl<'a> OrderSearch<'a> {
    fn new(inst: &'a Instance) -> OrderSearch<'a> {
        OrderSearch {
            inst,
            twins: None,
            generators: Vec::new(),
            budget: 0,
            levels: Vec::new(),
            leaves: 0,
            refine_reads: 0,
            first: Leaf::default(),
            best: Leaf::default(),
            best_is_first: true,
            scratch: Scratch::new(inst.num_jobs()),
        }
    }

    /// The canonical job order for the initial colors `init`.
    fn job_order(&mut self, init: &[u64]) -> Vec<u32> {
        self.budget = SEARCH_BUDGET;
        self.leaves = 0;
        self.refine_reads = 0;
        if self.levels.is_empty() {
            self.levels.push(Level::default());
        }
        self.levels[0].colors.clear();
        self.levels[0].colors.extend_from_slice(init);
        self.explore(0);
        let best = if self.best_is_first {
            &self.first
        } else {
            &self.best
        };
        best.order.clone()
    }

    /// Searches the subtree of the node at depth `d`, whose coloring is in
    /// `levels[d]`: the initial colors at the root, already refined
    /// below it. `Some(t)` abandons every node below depth `t`: the
    /// candidate being explored at `t` turned out to be equivalent to an
    /// explored sibling.
    fn explore(&mut self, d: usize) -> Option<usize> {
        let inst = self.inst;
        let graph = inst.graph();
        let level = &mut self.levels[d];
        if d == 0 {
            self.refine_reads += self.scratch.refine(graph, &mut level.colors);
        }
        loop {
            let Some(range) = first_cell(&level.colors, &mut level.sorted) else {
                return self.leaf(d);
            };
            level.cell.clear();
            level
                .cell
                .extend(level.sorted[range].iter().map(|&(_, j)| j));
            if !self.scratch.interchangeable(graph, &level.cell) {
                break;
            }
            // Any ordering of the cell yields the same leaves:
            // individualize all members at once, in id order, and go on
            // without branching. The coloring stays equitable, so only
            // the root refines again, which keeps the forms of instances
            // that never branch.
            for (rank, &j) in level.cell.iter().enumerate() {
                level.colors[j as usize] = mix(level.colors[j as usize], rank as u64 + 1);
            }
            if d == 0 {
                self.refine_reads += self.scratch.refine(graph, &mut level.colors);
            }
        }
        self.seed_orbits(d);
        let width = if self.budget == 0 {
            1
        } else {
            self.levels[d].cell.len()
        };
        for idx in 0..width {
            let c = self.levels[d].cell[idx];
            if !self.levels[d].is_orbit_root(c) {
                continue;
            }
            self.budget = self.budget.saturating_sub(1);
            self.levels[d].current = c;
            if self.levels.len() == d + 1 {
                self.levels.push(Level::default());
            }
            let (path, below) = self.levels.split_at_mut(d + 1);
            let child = &mut below[0].colors;
            child.clear();
            child.extend_from_slice(&path[d].colors);
            self.refine_reads += self
                .scratch
                .cells
                .refine_from(graph, &path[d].sorted, c, child);
            if let Some(to) = self.explore(d + 1) {
                if to < d {
                    return Some(to);
                }
            }
        }
        None
    }

    /// Seeds the orbits of the branching node at depth `d` from the twin
    /// classes and the stored generators that preserve its coloring.
    fn seed_orbits(&mut self, d: usize) {
        let level = &mut self.levels[d];
        level.orbits.clear();
        let twins = self.twins.get_or_insert_with(|| twin_classes(self.inst));
        if !twins.is_empty() {
            let slots = &mut self.scratch.twin_slot;
            let cell = std::mem::take(&mut level.cell);
            for &c in &cell {
                let class = twins[c as usize];
                if class == NO_TWIN {
                    continue;
                }
                match slots[class as usize] {
                    NO_TWIN => slots[class as usize] = c,
                    first => level.union(first, c),
                }
            }
            for &c in &cell {
                let class = twins[c as usize];
                if class != NO_TWIN {
                    slots[class as usize] = NO_TWIN;
                }
            }
            level.cell = cell;
        }
        for g in &self.generators {
            level.absorb(g);
        }
    }

    /// Scores the discrete coloring of the node at depth `d` (its jobs
    /// sorted by color are in `levels[d].sorted`).
    fn leaf(&mut self, d: usize) -> Option<usize> {
        let inst = self.inst;
        let graph = inst.graph();
        self.leaves += 1;
        let sorted = &self.levels[d].sorted;
        let Scratch { gamma, inv, .. } = &mut self.scratch;
        if self.leaves == 1 {
            self.first.set(sorted, None);
            self.best_is_first = true;
            return None;
        }
        // Equal colors to the first leaf: usually its automorphic image.
        if sorted
            .iter()
            .map(|&(c, _)| c)
            .eq(self.first.colors.iter().copied())
        {
            for (&from, &(_, to)) in self.first.order.iter().zip(sorted.iter()) {
                gamma[from as usize] = to;
            }
            if is_automorphism(graph, gamma) {
                return self.add_generator(d);
            }
        }
        let best = if self.best_is_first {
            &mut self.first
        } else {
            &mut self.best
        };
        let mut edges = None;
        let ord = match cmp_color_keys(sorted, &best.colors) {
            Ordering::Equal => {
                let mine = edge_key(graph, sorted.iter().map(|&(_, j)| j), inv);
                let theirs = best
                    .edges
                    .get_or_insert_with(|| edge_key(graph, best.order.iter().copied(), inv));
                let ord = mine.cmp(theirs);
                if ord == Ordering::Equal {
                    // Equal keys: the best leaf's automorphic image.
                    for (&from, &(_, to)) in best.order.iter().zip(sorted.iter()) {
                        gamma[from as usize] = to;
                    }
                    return self.add_generator(d);
                }
                edges = Some(mine);
                ord
            }
            ord => ord,
        };
        if ord == Ordering::Less {
            self.best.set(sorted, edges);
            self.best_is_first = false;
        }
        None
    }

    /// Stores the automorphism in `scratch.gamma`, merges orbits on the
    /// path above depth `d`, and returns the shallowest depth whose
    /// explored candidate it shows to be equivalent to an earlier one.
    fn add_generator(&mut self, d: usize) -> Option<usize> {
        let perm = self.scratch.gamma.clone();
        let support: Vec<u32> = (0..perm.len() as u32)
            .filter(|&x| perm[x as usize] != x)
            .collect();
        if support.is_empty() {
            return None;
        }
        let g = Generator { perm, support };
        let mut jump = None;
        for (depth, level) in self.levels[..d].iter_mut().enumerate() {
            if level.absorb(&g) && !level.is_orbit_root(level.current) {
                jump = Some(depth);
                break;
            }
        }
        self.generators.push(g);
        jump
    }
}

#[cfg(test)]
mod reference {
    //! The unpruned search the pruned one must reproduce: the search from
    //! before automorphism pruning, on the same refinement schedule
    //! (rounds at the root, seeded refinement below it, none after a
    //! shortcut below it).

    use super::{mix, Cells, SEARCH_BUDGET};
    use bisched_graph::Graph;

    /// The reference job order, and whether its search stayed within the
    /// budget (a budget spent to zero counts as exhausted).
    pub(super) fn job_order(graph: &Graph, init: &[u64]) -> (Vec<u32>, bool) {
        let mut budget = SEARCH_BUDGET;
        let mut best: Option<(Vec<u8>, Vec<u32>)> = None;
        let mut colors = init.to_vec();
        refine(graph, &mut colors);
        search_order(graph, colors, true, &mut budget, &mut best);
        (
            best.expect("search yields at least one order").1,
            budget > 0,
        )
    }

    /// One search node over a refined coloring: shortcut or branch on the
    /// first tied cell.
    fn search_order(
        graph: &Graph,
        mut colors: Vec<u64>,
        root: bool,
        budget: &mut usize,
        best: &mut Option<(Vec<u8>, Vec<u32>)>,
    ) {
        loop {
            let cells = tied_cells(&colors);
            let Some(cell) = cells.first().cloned() else {
                // Discrete: order by color (all distinct).
                let mut order: Vec<u32> = (0..colors.len() as u32).collect();
                order.sort_unstable_by_key(|&j| colors[j as usize]);
                let key = order_key(graph, &colors, &order);
                if best.as_ref().is_none_or(|(bk, _)| key < *bk) {
                    *best = Some((key, order));
                }
                return;
            };
            if is_interchangeable_cell(graph, &colors, &cell) {
                // Any ordering of the cell yields the same certificate:
                // individualize all members at once, in current order, and
                // keep refining without branching.
                for (rank, &j) in cell.iter().enumerate() {
                    colors[j as usize] = mix(colors[j as usize], rank as u64 + 1);
                }
                if root {
                    refine(graph, &mut colors);
                }
                continue;
            }
            // Branch: individualize each candidate in the cell.
            let mut parent: Vec<(u64, u32)> = colors
                .iter()
                .enumerate()
                .map(|(j, &c)| (c, j as u32))
                .collect();
            parent.sort_unstable();
            let candidates: &[u32] = if *budget == 0 { &cell[..1] } else { &cell };
            for &j in candidates {
                if *budget > 0 {
                    *budget -= 1;
                }
                let mut next = colors.clone();
                Cells::new(colors.len()).refine_from(graph, &parent, j, &mut next);
                search_order(graph, next, false, budget, best);
            }
            return;
        }
    }

    /// Stable refinement: each round every job absorbs the sorted multiset of
    /// its neighbors' colors; stops when the partition stops growing.
    pub(super) fn refine(graph: &Graph, colors: &mut [u64]) {
        let mut distinct = count_distinct(colors);
        loop {
            let mut next = vec![0u64; colors.len()];
            for j in 0..colors.len() {
                let mut nb: Vec<u64> = graph
                    .neighbors(j as u32)
                    .iter()
                    .map(|&v| colors[v as usize])
                    .collect();
                nb.sort_unstable();
                let mut h = mix(0xace1, colors[j]);
                for c in nb {
                    h = mix(h, c);
                }
                next[j] = h;
            }
            let d = count_distinct(&next);
            colors.copy_from_slice(&next);
            if d == distinct {
                return;
            }
            distinct = d;
        }
    }

    fn count_distinct(colors: &[u64]) -> usize {
        let mut sorted = colors.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    }

    /// Non-singleton color classes, ordered by color value, members by id.
    fn tied_cells(colors: &[u64]) -> Vec<Vec<u32>> {
        let mut by_color: Vec<(u64, u32)> = colors
            .iter()
            .enumerate()
            .map(|(j, &c)| (c, j as u32))
            .collect();
        by_color.sort_unstable();
        let mut cells = Vec::new();
        let mut i = 0;
        while i < by_color.len() {
            let mut k = i + 1;
            while k < by_color.len() && by_color[k].0 == by_color[i].0 {
                k += 1;
            }
            if k - i > 1 {
                cells.push(by_color[i..k].iter().map(|&(_, j)| j).collect());
            }
            i = k;
        }
        cells
    }

    /// Whether every job outside the cell is adjacent to all or none of it,
    /// and the cell's induced subgraph is complete or empty — i.e. the cell's
    /// members are fully interchangeable and need no branching.
    fn is_interchangeable_cell(graph: &Graph, colors: &[u64], cell: &[u32]) -> bool {
        let k = cell.len();
        let in_cell: Vec<bool> = {
            let mut mask = vec![false; colors.len()];
            for &j in cell {
                mask[j as usize] = true;
            }
            mask
        };
        let mut inner_edges = 0usize;
        let mut outside_counts = std::collections::HashMap::new();
        for &j in cell {
            for &v in graph.neighbors(j) {
                if in_cell[v as usize] {
                    inner_edges += 1;
                } else {
                    *outside_counts.entry(v).or_insert(0usize) += 1;
                }
            }
        }
        inner_edges /= 2;
        if inner_edges != 0 && inner_edges != k * (k - 1) / 2 {
            return false;
        }
        outside_counts.values().all(|&c| c == k)
    }

    /// Certificate key of a discrete order: per-job initial-invariant colors
    /// would already be equal inside former ties, so the distinguishing data
    /// is the edge relation (plus the colors for cross-cell stability).
    fn order_key(graph: &Graph, colors: &[u64], order: &[u32]) -> Vec<u8> {
        let n = order.len();
        let mut inv = vec![0u32; n];
        for (c, &j) in order.iter().enumerate() {
            inv[j as usize] = c as u32;
        }
        let mut edges: Vec<(u32, u32)> = graph
            .edges()
            .map(|(u, v)| {
                let (a, b) = (inv[u as usize], inv[v as usize]);
                (a.min(b), a.max(b))
            })
            .collect();
        edges.sort_unstable();
        let mut key = Vec::with_capacity(n * 8 + edges.len() * 8);
        for &j in order {
            key.extend_from_slice(&colors[j as usize].to_le_bytes());
        }
        for (u, v) in edges {
            key.extend_from_slice(&u.to_le_bytes());
            key.extend_from_slice(&v.to_le_bytes());
        }
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::InstanceData;
    use bisched_graph::random::regular_bipartite;
    use bisched_graph::{Graph, GraphBuilder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn fp(inst: &Instance) -> u128 {
        canonicalize(inst).fingerprint
    }

    /// The canonical form under the reference search, and whether every
    /// reference search it ran stayed within the budget.
    fn reference_canonicalize(inst: &Instance) -> (Canonical, bool) {
        let mut within = true;
        let canon = canonicalize_by(inst, |init| {
            let (order, ok) = reference::job_order(inst.graph(), init);
            within &= ok;
            order
        });
        (canon, within)
    }

    /// A uniformly random permutation: `perm[j]` is job `j`'s new id.
    fn shuffled(n: usize, rng: &mut StdRng) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        perm
    }

    /// `inst` with job `j` renamed `perm[j]` and, for `R`, the machine
    /// rows reversed.
    fn relabeled(inst: &Instance, perm: &[u32]) -> Instance {
        let mut data = InstanceData::from_instance(inst);
        let permute = |values: &[u64]| {
            let mut out = vec![0; values.len()];
            for (j, &v) in values.iter().enumerate() {
                out[perm[j] as usize] = v;
            }
            out
        };
        if let Some(p) = data.processing.as_mut() {
            *p = permute(p);
        }
        if let Some(times) = data.times.as_mut() {
            for row in times.iter_mut() {
                *row = permute(row);
            }
            times.reverse();
        }
        for e in data.edges.iter_mut() {
            *e = (perm[e.0 as usize], perm[e.1 as usize]);
        }
        data.into_instance().unwrap()
    }

    /// Disjoint cycles of the given lengths.
    fn cycles(lengths: &[usize]) -> Graph {
        let mut b = GraphBuilder::new(0);
        for &len in lengths {
            let first = b.add_vertices(len);
            for k in 0..len as u32 {
                b.add_edge(first + k, first + (k + 1) % len as u32);
            }
        }
        b.build()
    }

    #[test]
    fn relabeled_path_shares_fingerprint() {
        // 0-1-2-3 with distinct sizes, vs. the reversed labeling.
        let a = Instance::identical(2, vec![5, 3, 8, 2], Graph::path(4)).unwrap();
        let b = Instance::identical(
            2,
            vec![2, 8, 3, 5],
            Graph::from_edges(4, &[(3, 2), (2, 1), (1, 0)]),
        )
        .unwrap();
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn different_instances_differ() {
        let a = Instance::identical(2, vec![5, 3, 8, 2], Graph::path(4)).unwrap();
        let b = Instance::identical(2, vec![5, 3, 8, 2], Graph::empty(4)).unwrap();
        let c = Instance::identical(3, vec![5, 3, 8, 2], Graph::path(4)).unwrap();
        assert_ne!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&c));
    }

    #[test]
    fn matching_inside_tied_class_is_resolved_by_search() {
        // Four unit jobs, edges forming a perfect matching 0-1, 2-3 vs the
        // crossed matching 0-2, 1-3: isomorphic, and WL alone cannot pick
        // an invariant order inside the single color class.
        let a =
            Instance::identical(2, vec![1; 4], Graph::from_edges(4, &[(0, 1), (2, 3)])).unwrap();
        let b =
            Instance::identical(2, vec![1; 4], Graph::from_edges(4, &[(0, 2), (1, 3)])).unwrap();
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn unrelated_machine_rows_are_interchangeable() {
        let a = Instance::unrelated(vec![vec![1, 2, 3], vec![4, 5, 6]], Graph::path(3)).unwrap();
        let b = Instance::unrelated(vec![vec![4, 5, 6], vec![1, 2, 3]], Graph::path(3)).unwrap();
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn unrelated_job_and_machine_relabeling() {
        // Swap jobs 0 and 2 (columns) and the two machines (rows).
        let a = Instance::unrelated(
            vec![vec![3, 5, 2], vec![7, 1, 9]],
            Graph::from_edges(3, &[(0, 1)]),
        )
        .unwrap();
        let b = Instance::unrelated(
            vec![vec![9, 1, 7], vec![2, 5, 3]],
            Graph::from_edges(3, &[(2, 1)]),
        )
        .unwrap();
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn schedule_maps_back_to_original_labels() {
        let orig = Instance::uniform(
            vec![3, 1],
            vec![4, 9, 2, 7, 5],
            Graph::from_edges(5, &[(0, 3), (1, 4), (2, 3)]),
        )
        .unwrap();
        let canon = canonicalize(&orig);
        // A feasible canonical schedule: put each edge endpoint apart by
        // 2-coloring the canonical graph greedily.
        let cg = canon.instance.graph();
        let mut assign = vec![0u32; canon.instance.num_jobs()];
        for (u, v) in cg.edges() {
            if assign[u as usize] == assign[v as usize] {
                assign[v as usize] = 1 - assign[v as usize];
            }
        }
        let cs = Schedule::new(assign);
        if cs.validate(&canon.instance).is_ok() {
            let os = canon.schedule_to_original(&cs);
            assert!(os.validate(&orig).is_ok());
            assert_eq!(os.makespan(&orig), cs.makespan(&canon.instance));
        }
    }

    #[test]
    fn empty_graph_symmetric_classes_fast_path() {
        // Fully symmetric tie classes: must resolve via the
        // interchangeable-cell shortcut, not the branching search.
        let mut sizes = vec![7u64; 20];
        sizes.extend(vec![3u64; 20]);
        let a = Instance::identical(4, sizes, Graph::empty(40)).unwrap();
        let interleaved: Vec<u64> = (0..40).map(|j| if j % 2 == 0 { 7 } else { 3 }).collect();
        let b = Instance::identical(4, interleaved, Graph::empty(40)).unwrap();
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn idempotent() {
        let inst = Instance::unrelated(
            vec![vec![3, 5, 2, 8], vec![7, 1, 9, 2], vec![4, 4, 4, 4]],
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]),
        )
        .unwrap();
        let once = canonicalize(&inst);
        let twice = canonicalize(&once.instance);
        assert_eq!(once.certificate, twice.certificate);
        assert_eq!(once.fingerprint, twice.fingerprint);
        assert_eq!(
            InstanceData::from_instance(&once.instance),
            InstanceData::from_instance(&twice.instance)
        );
    }

    #[test]
    fn budget_exhausting_cycle_unions_share_one_certificate() {
        // Unit jobs on unions of even cycles have automorphism groups far
        // larger than the search budget. The unpruned search ran out of
        // budget on these and gave different relabelings different
        // certificates (false cache misses, split shard routing).
        for lengths in [&[6, 4, 4, 8][..], &[4, 8, 8, 4], &[6, 6, 6, 4, 4, 4]] {
            let g = cycles(lengths);
            let n = g.num_vertices();
            let inst = Instance::identical(2, vec![1; n], g).unwrap();
            assert!(
                !reference_canonicalize(&inst).1,
                "{lengths:?} fits the budget"
            );
            let mut rng = StdRng::seed_from_u64(0x5eed);
            let certificates: HashSet<Vec<u8>> = (0..24)
                .map(|_| canonicalize(&relabeled(&inst, &shuffled(n, &mut rng))).certificate)
                .collect();
            assert_eq!(certificates.len(), 1, "{lengths:?} split its relabelings");
        }
    }

    #[test]
    fn automorphisms_prune_symmetric_searches() {
        // Leaves reached on graphs whose unpruned trees have one leaf per
        // automorphism: crowns (2·k! leaves), K_{k,k} (2k) and cycles.
        for (graph, max_leaves) in [
            (Graph::crown(8), 12),
            (Graph::crown(16), 24),
            (Graph::complete_bipartite(16, 16), 2),
            (cycles(&[8, 8, 8, 8]), 16),
        ] {
            let n = graph.num_vertices();
            let inst = Instance::identical(3, vec![1; n], graph).unwrap();
            let mut search = OrderSearch::new(&inst);
            search.job_order(&processing_colors(&inst));
            assert!(
                search.leaves <= max_leaves,
                "{n} jobs: {} leaves",
                search.leaves
            );
        }
    }

    #[test]
    fn refinement_below_the_root_reads_only_what_splits() {
        // Whole-graph rounds read all 2|E| adjacency entries per round.
        // On these two graphs the round-based search read 31,488 and
        // 22,272 entries for the same 6 and 4 leaves; splitter
        // refinement reads 908 and 1,113.
        let mut rng = StdRng::seed_from_u64(0xc0b1c);
        for (graph, max_reads) in [
            (cycles(&[32, 32]), 1_500),
            (regular_bipartite(32, 3, &mut rng), 2_000),
        ] {
            let n = graph.num_vertices();
            let inst = Instance::identical(3, vec![1; n], graph).unwrap();
            let mut search = OrderSearch::new(&inst);
            search.job_order(&processing_colors(&inst));
            assert!(
                search.refine_reads <= max_reads,
                "{n} jobs: {} adjacency entries read",
                search.refine_reads
            );
        }
    }

    /// `colors` as a set partition: each job mapped to the first job of
    /// its color.
    fn set_partition(colors: &[u64]) -> Vec<usize> {
        (0..colors.len())
            .map(|j| colors.iter().position(|&c| c == colors[j]).unwrap())
            .collect()
    }

    /// Whether jobs of one color all see the same multiset of neighbor
    /// colors.
    fn is_equitable(graph: &Graph, colors: &[u64]) -> bool {
        let profile = |j: usize| {
            let mut seen: Vec<u64> = graph
                .neighbors(j as u32)
                .iter()
                .map(|&v| colors[v as usize])
                .collect();
            seen.sort_unstable();
            seen
        };
        (0..colors.len()).all(|j| {
            let first = colors.iter().position(|&c| c == colors[j]).unwrap();
            profile(j) == profile(first)
        })
    }

    /// A copy of `inst` under a random job relabeling, with the `Q`
    /// speeds and the `R` rows shuffled as well.
    fn resubmitted(inst: &Instance, rng: &mut StdRng) -> Instance {
        let perm = shuffled(inst.num_jobs(), rng);
        let mut data = InstanceData::from_instance(&relabeled(inst, &perm));
        if let Some(speeds) = data.speeds.as_mut() {
            let order = shuffled(speeds.len(), rng);
            *speeds = order.iter().map(|&i| speeds[i as usize]).collect();
        }
        if let Some(times) = data.times.as_mut() {
            let order = shuffled(times.len(), rng);
            *times = order.iter().map(|&i| times[i as usize].clone()).collect();
        }
        data.into_instance().unwrap()
    }

    /// A tie-heavy random instance of at most 24 jobs, relabeled at
    /// random: unit or two-valued sizes on unions of even cycles, crowns,
    /// unions of perfect matchings or complete bipartite blocks, under
    /// `P`, `Q` or `R`.
    fn tie_heavy_instance(family: u8, env: u8, two_valued: bool, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = match family {
            0 => {
                let mut lengths = Vec::new();
                let mut total = 0;
                loop {
                    let len = 2 * rng.gen_range(2..=5usize);
                    if total + len > 24 {
                        break;
                    }
                    lengths.push(len);
                    total += len;
                    if rng.gen_range(0..3u32) == 0 {
                        break;
                    }
                }
                cycles(&lengths)
            }
            1 => Graph::crown(rng.gen_range(2..=6usize)),
            2 => {
                let k = rng.gen_range(2..=12usize);
                let mut b = GraphBuilder::new(2 * k);
                for _ in 0..rng.gen_range(1..=3u32) {
                    for (left, &right) in shuffled(k, &mut rng).iter().enumerate() {
                        b.add_edge(left as u32, k as u32 + right);
                    }
                }
                b.build()
            }
            _ => {
                let mut b = GraphBuilder::new(0);
                while b.num_vertices() < 18 {
                    let (x, y) = (rng.gen_range(1..=3usize), rng.gen_range(1..=3usize));
                    let first = b.add_vertices(x + y);
                    for u in 0..x as u32 {
                        for v in 0..y as u32 {
                            b.add_edge(first + u, first + x as u32 + v);
                        }
                    }
                    if rng.gen_range(0..3u32) == 0 {
                        break;
                    }
                }
                b.build()
            }
        };
        let inst = tied_sizes(graph, env, two_valued, &mut rng);
        relabeled(&inst, &shuffled(inst.num_jobs(), &mut rng))
    }

    /// A hit-unit-shaped instance: unit or two-valued sizes on a union of
    /// even cycles (up to 48 jobs), a cubic bipartite graph, `K_{a,b}` or
    /// a crown, under `P`, `Q` or `R`.
    fn unit_family_instance(family: u8, env: u8, two_valued: bool, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = match family {
            0 => {
                let mut lengths = Vec::new();
                let mut total = 0;
                loop {
                    let len = 2 * rng.gen_range(2..=8usize);
                    if total + len > 48 {
                        break;
                    }
                    lengths.push(len);
                    total += len;
                }
                cycles(&lengths)
            }
            1 => regular_bipartite(rng.gen_range(3..=16usize), 3, &mut rng),
            2 => Graph::complete_bipartite(rng.gen_range(1..=12usize), rng.gen_range(1..=12usize)),
            _ => Graph::crown(rng.gen_range(3..=10usize)),
        };
        tied_sizes(graph, env, two_valued, &mut rng)
    }

    /// Unit or two-valued job sizes on `graph` under `P`, `Q` or `R`
    /// (`env` 0, 1 or 2), on two or three machines.
    fn tied_sizes(graph: Graph, env: u8, two_valued: bool, rng: &mut StdRng) -> Instance {
        let n = graph.num_vertices();
        let class: Vec<usize> = (0..n)
            .map(|_| usize::from(two_valued && rng.gen_range(0..2u32) == 0))
            .collect();
        let m = rng.gen_range(2..=3usize);
        match env {
            0 => Instance::identical(m, class.iter().map(|&c| 1 + c as u64).collect(), graph),
            1 => Instance::uniform(
                (0..m).map(|_| rng.gen_range(1..=2u64)).collect(),
                class.iter().map(|&c| 1 + 2 * c as u64).collect(),
                graph,
            ),
            _ => {
                let columns: Vec<Vec<u64>> = (0..2)
                    .map(|_| (0..m).map(|_| rng.gen_range(1..=2u64)).collect())
                    .collect();
                let times = (0..m)
                    .map(|i| class.iter().map(|&c| columns[c][i]).collect())
                    .collect();
                Instance::unrelated(times, graph)
            }
        }
        .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Automorphism pruning never changes the canonical form while
        /// the unpruned search stays within its budget.
        #[test]
        fn pruned_search_matches_the_reference(
            family in 0u8..4,
            env in 0u8..3,
            two_valued in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let inst = tie_heavy_instance(family, env, two_valued, seed);
            let (want, within_budget) = reference_canonicalize(&inst);
            prop_assume!(within_budget);
            let got = canonicalize(&inst);
            prop_assert_eq!(&got.certificate, &want.certificate);
            prop_assert_eq!(got.fingerprint, want.fingerprint);
            prop_assert_eq!(&got.job_perm, &want.job_perm);
            prop_assert_eq!(&got.machine_perm, &want.machine_perm);
        }

        /// Seeded refinement of an equitable coloring with one job
        /// individualized yields the set partition that round-based
        /// refinement of the same coloring yields, and that partition is
        /// equitable. Each step starts from the previous step's seeded
        /// result, as the search does below the root.
        #[test]
        fn seeded_refinement_matches_round_refinement(
            family in 0u8..8,
            two_valued in any::<bool>(),
            seed in any::<u64>(),
            pick in any::<usize>(),
        ) {
            let inst = if family < 4 {
                tie_heavy_instance(family, 0, two_valued, seed)
            } else {
                unit_family_instance(family - 4, 0, two_valued, seed)
            };
            let graph = inst.graph();
            let n = inst.num_jobs();
            let mut colors = processing_colors(&inst);
            reference::refine(graph, &mut colors);
            let mut cells = Cells::new(n);
            loop {
                let tied: Vec<u32> = (0..n as u32)
                    .filter(|&j| colors.iter().filter(|&&c| c == colors[j as usize]).count() > 1)
                    .collect();
                if tied.is_empty() {
                    break;
                }
                let c = tied[pick % tied.len()];
                let mut parent: Vec<(u64, u32)> =
                    colors.iter().enumerate().map(|(j, &c)| (c, j as u32)).collect();
                parent.sort_unstable();
                let mut seeded = colors.clone();
                cells.refine_from(graph, &parent, c, &mut seeded);
                let mut rounds = colors.clone();
                rounds[c as usize] = mix(rounds[c as usize], 0x1d1f);
                reference::refine(graph, &mut rounds);
                prop_assert_eq!(set_partition(&seeded), set_partition(&rounds));
                prop_assert!(is_equitable(graph, &seeded));
                colors = seeded;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Resubmissions of the unit-job families a warm cache serves
        /// (relabeled jobs, shuffled `Q` speeds, shuffled `R` rows) all
        /// get one certificate.
        #[test]
        fn relabelings_of_unit_families_share_one_certificate(
            family in 0u8..4,
            env in 0u8..3,
            two_valued in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let inst = unit_family_instance(family, env, two_valued, seed);
            let want = canonicalize(&inst).certificate;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7e1a_be15);
            for _ in 0..4 {
                let again = canonicalize(&resubmitted(&inst, &mut rng));
                prop_assert_eq!(&again.certificate, &want);
            }
        }
    }
}
