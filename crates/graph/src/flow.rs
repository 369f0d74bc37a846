//! Dinic's maximum-flow algorithm.
//!
//! The paper's Algorithm 1 needs a *maximum-weight independent set* in a
//! bipartite graph (step 2), which classically reduces to a minimum `s`–`t`
//! cut in a flow network (the paper cites Orlin \[22\] for the flow step; we
//! implement Dinic, whose `O(E √V)`-on-unit-ish-networks behaviour is more
//! than adequate at our scales and is ~150 lines instead of a research
//! codebase).

/// Sentinel "infinite" capacity. Large enough that sums never overflow `u64`
/// in our networks (weights are `u64` job sizes; networks have < 2^20 arcs).
pub const INF_CAP: u64 = u64::MAX / 4;

#[derive(Clone, Debug)]
struct Arc {
    to: u32,
    /// Residual capacity.
    cap: u64,
    /// Index of the reverse arc in `to`'s list.
    rev: u32,
}

/// A flow network on dense node ids with Dinic's algorithm.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    adj: Vec<Vec<Arc>>,
}

impl FlowNetwork {
    /// A network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Adds a directed arc `from -> to` with capacity `cap` (and its zero-
    /// capacity reverse).
    pub fn add_arc(&mut self, from: usize, to: usize, cap: u64) {
        assert!(from != to, "self-arcs carry no flow");
        let rev_from = self.adj[to].len() as u32;
        let rev_to = self.adj[from].len() as u32;
        self.adj[from].push(Arc {
            to: to as u32,
            cap,
            rev: rev_from,
        });
        self.adj[to].push(Arc {
            to: from as u32,
            cap: 0,
            rev: rev_to,
        });
    }

    /// Computes the maximum `s`–`t` flow; mutates residual capacities.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        assert_ne!(s, t);
        let n = self.num_nodes();
        let mut flow = 0u64;
        let mut level = vec![u32::MAX; n];
        let mut iter = vec![0u32; n];
        loop {
            // BFS: build level graph.
            level.iter_mut().for_each(|l| *l = u32::MAX);
            level[s] = 0;
            let mut queue = std::collections::VecDeque::from([s as u32]);
            while let Some(u) = queue.pop_front() {
                for arc in &self.adj[u as usize] {
                    if arc.cap > 0 && level[arc.to as usize] == u32::MAX {
                        level[arc.to as usize] = level[u as usize] + 1;
                        queue.push_back(arc.to);
                    }
                }
            }
            if level[t] == u32::MAX {
                return flow;
            }
            // DFS: blocking flow.
            iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let pushed = self.dfs(s, t, INF_CAP, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                flow += pushed;
            }
        }
    }

    fn dfs(&mut self, u: usize, t: usize, limit: u64, level: &[u32], iter: &mut [u32]) -> u64 {
        if u == t {
            return limit;
        }
        while (iter[u] as usize) < self.adj[u].len() {
            let i = iter[u] as usize;
            let (to, cap, rev) = {
                let a = &self.adj[u][i];
                (a.to as usize, a.cap, a.rev as usize)
            };
            if cap > 0 && level[to] == level[u] + 1 {
                let pushed = self.dfs(to, t, limit.min(cap), level, iter);
                if pushed > 0 {
                    self.adj[u][i].cap -= pushed;
                    self.adj[to][rev].cap += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0
    }

    /// After [`max_flow`], the source side of a minimum cut: nodes reachable
    /// from `s` in the residual network.
    ///
    /// [`max_flow`]: FlowNetwork::max_flow
    pub fn min_cut_source_side(&self, s: usize) -> Vec<bool> {
        let n = self.num_nodes();
        let mut reach = vec![false; n];
        reach[s] = true;
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for arc in &self.adj[u] {
                if arc.cap > 0 && !reach[arc.to as usize] {
                    reach[arc.to as usize] = true;
                    stack.push(arc.to as usize);
                }
            }
        }
        reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_arc() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 7);
        assert_eq!(net.max_flow(0, 1), 7);
    }

    #[test]
    fn series_takes_minimum() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 10);
        net.add_arc(1, 2, 4);
        assert_eq!(net.max_flow(0, 2), 4);
    }

    #[test]
    fn parallel_paths_add() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3);
        net.add_arc(1, 3, 3);
        net.add_arc(0, 2, 5);
        net.add_arc(2, 3, 2);
        assert_eq!(net.max_flow(0, 3), 5);
    }

    #[test]
    fn classic_clrs_network() {
        // CLRS Figure 26.6 instance; max flow 23.
        let mut net = FlowNetwork::new(6);
        net.add_arc(0, 1, 16);
        net.add_arc(0, 2, 13);
        net.add_arc(1, 3, 12);
        net.add_arc(2, 1, 4);
        net.add_arc(2, 4, 14);
        net.add_arc(3, 2, 9);
        net.add_arc(3, 5, 20);
        net.add_arc(4, 3, 7);
        net.add_arc(4, 5, 4);
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn min_cut_separates_s_from_t() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1);
        net.add_arc(1, 2, 100);
        net.add_arc(2, 3, 100);
        let f = net.max_flow(0, 3);
        assert_eq!(f, 1);
        let side = net.min_cut_source_side(0);
        assert!(side[0]);
        assert!(!side[3]);
        // The bottleneck arc 0->1 crosses the cut.
        assert!(!side[1]);
    }

    #[test]
    fn disconnected_zero_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 5);
        net.add_arc(2, 3, 5);
        assert_eq!(net.max_flow(0, 3), 0);
        let side = net.min_cut_source_side(0);
        assert!(side[1]);
        assert!(!side[2]);
    }

    #[test]
    fn flow_respects_infinite_caps() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, INF_CAP);
        net.add_arc(1, 2, 9);
        net.add_arc(2, 3, INF_CAP);
        assert_eq!(net.max_flow(0, 3), 9);
    }

    #[test]
    fn bipartite_matching_as_unit_flow() {
        // Matching via flow must agree with Hopcroft-Karp on K_{3,5}.
        let mut net = FlowNetwork::new(10); // s=0, left 1..=3, right 4..=8, t=9
        for l in 1..=3 {
            net.add_arc(0, l, 1);
            for r in 4..=8 {
                net.add_arc(l, r, 1);
            }
        }
        for r in 4..=8 {
            net.add_arc(r, 9, 1);
        }
        assert_eq!(net.max_flow(0, 9), 3);
    }
}
