//! # bisched-model
//!
//! Scheduling-model substrate for the `bisched` workspace: instances
//! (`P`/`Q`/`R` environments + incompatibility graph), schedules with exact
//! rational makespans, the paper's `C**_max` lower bound machinery
//! (Lemma 10), list scheduling onto machine groups, and workload generators
//! for the experiment harness.

#![warn(missing_docs)]
pub mod bounds;
pub mod canonical;
pub mod generators;
pub mod instance;
pub mod io;
pub mod listsched;
pub mod rational;
pub mod schedule;

pub use bounds::{
    capacity_lower_bound, cstar_double_max, floor_capacities, floor_capacity, min_time_to_cover,
    unrelated_lower_bound,
};
pub use canonical::{canonicalize, Canonical};
pub use generators::{JobSizes, SpeedProfile, UnrelatedFamily};
pub use instance::{Instance, InstanceError, JobId, MachineEnvironment, MachineId};
pub use io::{from_text, to_text, InstanceData, IoError};
pub use listsched::{assign_min_completion_uniform, assign_min_completion_unrelated, lpt_order};
pub use rational::{gcd, Rat};
pub use schedule::{Schedule, ScheduleError};
