//! Scheduling instances: jobs, machine environments, incompatibility graph.
//!
//! An [`Instance`] bundles the three ingredients of the paper's model —
//! a machine environment (`P`, `Q`, or `R` in three-field notation), the
//! processing requirements, and the incompatibility graph over jobs — and
//! is the single input type of every algorithm in the workspace.

use bisched_graph::Graph;

/// Index of a job (also its vertex id in the incompatibility graph).
pub type JobId = u32;

/// Index of a machine, `0 .. m`.
pub type MachineId = u32;

/// The machine environment (`α` field of the `α|β|γ` notation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineEnvironment {
    /// `P`: identical machines; job `j` takes `p_j` everywhere.
    Identical {
        /// Number of machines.
        m: usize,
    },
    /// `Q`: uniform machines; machine `i` has speed `s_i ≥ 1` and job `j`
    /// takes `p_j / s_i`. The paper assumes `s_1 ≥ … ≥ s_m`; the
    /// constructor enforces it.
    Uniform {
        /// Speeds, non-increasing.
        speeds: Vec<u64>,
    },
    /// `R`: unrelated machines; `times[i][j]` is the processing time of job
    /// `j` on machine `i`, arbitrary.
    Unrelated {
        /// `m × n` processing-time matrix.
        times: Vec<Vec<u64>>,
    },
}

impl MachineEnvironment {
    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        match self {
            MachineEnvironment::Identical { m } => *m,
            MachineEnvironment::Uniform { speeds } => speeds.len(),
            MachineEnvironment::Unrelated { times } => times.len(),
        }
    }

    /// The `α` field of the three-field notation.
    pub fn alpha(&self) -> &'static str {
        match self {
            MachineEnvironment::Identical { .. } => "P",
            MachineEnvironment::Uniform { .. } => "Q",
            MachineEnvironment::Unrelated { .. } => "R",
        }
    }
}

/// Errors raised when assembling an [`Instance`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// Some processing requirement is zero (the paper requires naturals).
    ZeroProcessing {
        /// Offending job.
        job: JobId,
    },
    /// Some speed is zero.
    ZeroSpeed {
        /// Offending machine.
        machine: MachineId,
    },
    /// No machines.
    NoMachines,
    /// The unrelated-times matrix has a row of the wrong length.
    BadMatrixShape {
        /// Offending row (machine).
        machine: MachineId,
        /// Its length.
        got: usize,
        /// Expected length (`n`).
        expected: usize,
    },
    /// Processing vector length differs from the graph's vertex count.
    JobCountMismatch {
        /// Jobs implied by processing data.
        jobs: usize,
        /// Vertices in the incompatibility graph.
        vertices: usize,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::ZeroProcessing { job } => {
                write!(f, "job {job} has zero processing requirement")
            }
            InstanceError::ZeroSpeed { machine } => write!(f, "machine {machine} has zero speed"),
            InstanceError::NoMachines => write!(f, "instance has no machines"),
            InstanceError::BadMatrixShape {
                machine,
                got,
                expected,
            } => write!(
                f,
                "machine {machine} has {got} processing times, expected {expected}"
            ),
            InstanceError::JobCountMismatch { jobs, vertices } => write!(
                f,
                "{jobs} jobs but {vertices} vertices in the incompatibility graph"
            ),
        }
    }
}

impl std::error::Error for InstanceError {}

/// A scheduling instance `α | G | C_max`.
#[derive(Clone, Debug)]
pub struct Instance {
    graph: Graph,
    /// `p_j` for `P`/`Q`; for `R` this holds `min_i p_{i,j}` (a convenient
    /// lower-bound weight) and the matrix is authoritative.
    processing: Vec<u64>,
    env: MachineEnvironment,
}

impl Instance {
    /// Identical machines: `P m | G | C_max`.
    pub fn identical(m: usize, processing: Vec<u64>, graph: Graph) -> Result<Self, InstanceError> {
        if m == 0 {
            return Err(InstanceError::NoMachines);
        }
        Self::validated(processing, graph, MachineEnvironment::Identical { m })
    }

    /// Uniform machines: `Q | G | C_max`. Speeds are sorted non-increasing
    /// (the paper's convention `s_1 ≥ … ≥ s_m`).
    pub fn uniform(
        mut speeds: Vec<u64>,
        processing: Vec<u64>,
        graph: Graph,
    ) -> Result<Self, InstanceError> {
        if speeds.is_empty() {
            return Err(InstanceError::NoMachines);
        }
        if let Some(i) = speeds.iter().position(|&s| s == 0) {
            return Err(InstanceError::ZeroSpeed {
                machine: i as MachineId,
            });
        }
        speeds.sort_unstable_by(|a, b| b.cmp(a));
        Self::validated(processing, graph, MachineEnvironment::Uniform { speeds })
    }

    /// Unrelated machines: `R | G | C_max` from an `m × n` matrix.
    pub fn unrelated(times: Vec<Vec<u64>>, graph: Graph) -> Result<Self, InstanceError> {
        if times.is_empty() {
            return Err(InstanceError::NoMachines);
        }
        let n = graph.num_vertices();
        for (i, row) in times.iter().enumerate() {
            if row.len() != n {
                return Err(InstanceError::BadMatrixShape {
                    machine: i as MachineId,
                    got: row.len(),
                    expected: n,
                });
            }
            if let Some(j) = row.iter().position(|&p| p == 0) {
                return Err(InstanceError::ZeroProcessing { job: j as JobId });
            }
        }
        let processing = (0..n)
            .map(|j| times.iter().map(|row| row[j]).min().expect("m >= 1"))
            .collect();
        Ok(Instance {
            graph,
            processing,
            env: MachineEnvironment::Unrelated { times },
        })
    }

    fn validated(
        processing: Vec<u64>,
        graph: Graph,
        env: MachineEnvironment,
    ) -> Result<Self, InstanceError> {
        if processing.len() != graph.num_vertices() {
            return Err(InstanceError::JobCountMismatch {
                jobs: processing.len(),
                vertices: graph.num_vertices(),
            });
        }
        if let Some(j) = processing.iter().position(|&p| p == 0) {
            return Err(InstanceError::ZeroProcessing { job: j as JobId });
        }
        Ok(Instance {
            graph,
            processing,
            env,
        })
    }

    /// Number of jobs `n`.
    pub fn num_jobs(&self) -> usize {
        self.processing.len()
    }

    /// Number of machines `m`.
    pub fn num_machines(&self) -> usize {
        self.env.num_machines()
    }

    /// The incompatibility graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The machine environment.
    pub fn env(&self) -> &MachineEnvironment {
        &self.env
    }

    /// Processing requirement `p_j` (for `R`: `min_i p_{i,j}`).
    pub fn processing(&self, j: JobId) -> u64 {
        self.processing[j as usize]
    }

    /// The processing requirement vector.
    pub fn processing_all(&self) -> &[u64] {
        &self.processing
    }

    /// `Σ p_j` (for `R`: sum of per-job minima).
    pub fn total_processing(&self) -> u64 {
        self.processing.iter().sum()
    }

    /// `p_max` (for `R`: max over jobs of the per-job minimum).
    pub fn max_processing(&self) -> u64 {
        self.processing.iter().copied().max().unwrap_or(0)
    }

    /// Whether all jobs are unit (`p_j = 1`, the `β` restriction of
    /// Theorems 4, 8, and 19).
    pub fn is_unit(&self) -> bool {
        self.processing.iter().all(|&p| p == 1)
    }

    /// Speed of machine `i` (1 for identical; panics for unrelated, where
    /// speeds are meaningless).
    pub fn speed(&self, i: MachineId) -> u64 {
        match &self.env {
            MachineEnvironment::Identical { .. } => 1,
            MachineEnvironment::Uniform { speeds } => speeds[i as usize],
            MachineEnvironment::Unrelated { .. } => {
                panic!("unrelated machines have no speeds")
            }
        }
    }

    /// Speeds vector for `P`/`Q` environments (all ones for `P`).
    pub fn speeds(&self) -> Vec<u64> {
        match &self.env {
            MachineEnvironment::Identical { m } => vec![1; *m],
            MachineEnvironment::Uniform { speeds } => speeds.clone(),
            MachineEnvironment::Unrelated { .. } => {
                panic!("unrelated machines have no speeds")
            }
        }
    }

    /// Raw unrelated time `p_{i,j}`; panics unless the environment is `R`.
    pub fn unrelated_time(&self, i: MachineId, j: JobId) -> u64 {
        match &self.env {
            MachineEnvironment::Unrelated { times } => times[i as usize][j as usize],
            _ => panic!("unrelated_time on a {} environment", self.env.alpha()),
        }
    }

    /// Three-field descriptor, e.g. `Q3 | G=bipartite, p_j=1 | C_max`.
    pub fn describe(&self) -> String {
        let beta = if self.is_unit() { ", p_j=1" } else { "" };
        format!(
            "{}{} | G{} | C_max",
            self.env.alpha(),
            self.num_machines(),
            beta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bisched_graph::Graph;

    #[test]
    fn uniform_sorts_speeds() {
        let inst = Instance::uniform(vec![1, 5, 3], vec![1, 1], Graph::empty(2)).unwrap();
        assert_eq!(inst.speeds(), vec![5, 3, 1]);
        assert_eq!(inst.speed(0), 5);
    }

    #[test]
    fn unrelated_min_projection() {
        let times = vec![vec![4, 9], vec![6, 2]];
        let inst = Instance::unrelated(times, Graph::empty(2)).unwrap();
        assert_eq!(inst.processing(0), 4);
        assert_eq!(inst.processing(1), 2);
        assert_eq!(inst.unrelated_time(1, 0), 6);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            Instance::identical(0, vec![1], Graph::empty(1)),
            Err(InstanceError::NoMachines)
        ));
        assert!(matches!(
            Instance::identical(2, vec![1, 0], Graph::empty(2)),
            Err(InstanceError::ZeroProcessing { job: 1 })
        ));
        assert!(matches!(
            Instance::uniform(vec![2, 0], vec![1], Graph::empty(1)),
            Err(InstanceError::ZeroSpeed { machine: 1 })
        ));
        assert!(matches!(
            Instance::identical(2, vec![1, 1, 1], Graph::empty(2)),
            Err(InstanceError::JobCountMismatch { .. })
        ));
        assert!(matches!(
            Instance::unrelated(vec![vec![1, 2], vec![3]], Graph::empty(2)),
            Err(InstanceError::BadMatrixShape { machine: 1, .. })
        ));
    }

    #[test]
    fn describe_three_field() {
        let inst = Instance::uniform(vec![2, 1, 1], vec![1, 1], Graph::empty(2)).unwrap();
        assert_eq!(inst.describe(), "Q3 | G, p_j=1 | C_max");
        let inst2 = Instance::identical(2, vec![3, 4], Graph::empty(2)).unwrap();
        assert_eq!(inst2.describe(), "P2 | G | C_max");
    }

    #[test]
    fn unit_detection_and_totals() {
        let inst = Instance::identical(1, vec![1, 1, 1], Graph::empty(3)).unwrap();
        assert!(inst.is_unit());
        assert_eq!(inst.total_processing(), 3);
        let inst2 = Instance::identical(1, vec![2, 1], Graph::empty(2)).unwrap();
        assert!(!inst2.is_unit());
        assert_eq!(inst2.max_processing(), 2);
    }
}
