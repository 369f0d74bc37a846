//! Benchmark of the bisched solve daemon: four named workloads driven
//! from outside over TCP, every answer checked, plus a traced replay
//! that breaks a request down by layer. See `README.md`.

pub mod check;
pub mod daemon;
pub mod load;
pub mod metrics;
pub mod trace;
pub mod workload;
