//! # bisched-lab
//!
//! The scenario corpus and benchmark harness of the workspace: a registry
//! of named, seeded workload families spanning `{P, Q, R} ×` graph
//! families ([`scenarios`]), a sequential experiment runner with
//! warmup, repetitions, wall-time percentiles, and quality ratios
//! ([`runner`], [`quality`]), machine-readable `BENCH_<suite>.json`
//! reports with Markdown summaries ([`report`]), and the lab gate CI runs
//! on every push ([`compare`](mod@compare)): exact on the deterministic
//! fields, thresholded on wall time.
//!
//! Driven from the command line:
//!
//! ```text
//! bisched_cli lab list
//! bisched_cli lab run --suite quick --out BENCH_quick.json
//! bisched_cli lab compare BENCH_baseline.json BENCH_quick.json --fail-threshold 300
//! ```
//!
//! Programmatic use:
//!
//! ```
//! use bisched_lab::{compare, run_suite, suite, CompareOptions, QualityOptions, RunOptions};
//!
//! let mut quick = suite("quick").unwrap();
//! quick.scenarios.truncate(1); // one scenario under every config keeps the demo short
//! let opts = RunOptions {
//!     warmup: 0,
//!     reps: 1,
//!     quality: QualityOptions {
//!         exact_cap_jobs: 0, // skip the exact side channel for this demo
//!         ..QualityOptions::default()
//!     },
//!     ..RunOptions::default()
//! };
//! let report = run_suite(&quick, &opts);
//! assert_eq!(report.cells.len(), quick.scenarios.len() * quick.configs.len());
//! // A report never regresses against itself.
//! assert!(compare(&report, &report, &CompareOptions::default()).passed());
//! ```

#![warn(missing_docs)]
pub mod compare;
pub mod quality;
pub mod report;
pub mod runner;
pub mod scenarios;

pub use compare::{compare, drift, CompareOptions, CompareOutcome, Drift, Finding};
pub use quality::{assess, exact_optimum, Quality, QualityOptions};
pub use report::{CellReport, LabReport, SCHEMA_VERSION};
pub use runner::{percentile, run_suite, RunOptions};
pub use scenarios::{
    suite, suite_names, GraphFamily, ModelSpec, NamedConfig, Scenario, Sec4Params, Suite,
};
