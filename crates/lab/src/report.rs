//! Machine-readable benchmark reports (`BENCH_<suite>.json`) and their
//! Markdown rendering.
//!
//! The JSON schema (version 2) is a single object:
//!
//! ```json
//! {
//!   "schema": 2,
//!   "suite": "quick",
//!   "warmup": 1, "reps": 5,
//!   "total_wall_s": 2.31,
//!   "cells": [ { "scenario": "...", "config": "auto",
//!                "counters": [["nodes", 46213], ["prunes_incumbent", 33107]],
//!                "engine_attempts": [["branch-and-bound", 1], ["alg1", 1]],
//!                ... } ],
//!   "sec4_graph": [ ... ],   // paper-sec4 / full suites only
//!   "sec4_alg2":  [ ... ]
//! }
//! ```
//!
//! Cells key on `scenario/config`; the lab gate
//! ([`crate::compare`](mod@crate::compare)) matches old and new reports cell-by-cell.
//!
//! **v1 → v2**: version 2 adds two per-cell fields — `counters` (the
//! winning engine's `EngineStats`, last rep) and `engine_attempts`
//! (per-engine attempt counts). Both deserialize to empty from a v1
//! file, but `lab compare` no longer accepts a v1 baseline against a v2
//! run: its exact half fails two reports whose `schema` differs, so a
//! v1 baseline is re-seeded rather than compared.

use bisched_random::{Alg2Row, RandomGraphRow};
use serde::{Deserialize, Serialize};

/// Current JSON schema version. Version 2 added per-cell `counters` and
/// `engine_attempts` (absent ⇒ empty when reading v1 files).
pub const SCHEMA_VERSION: u64 = 2;

/// One (scenario × config) measurement row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellReport {
    /// Scenario name from the registry.
    pub scenario: String,
    /// Config name from the suite.
    pub config: String,
    /// Machine model (`P`/`Q`/`R`).
    pub model: String,
    /// Graph-family label.
    pub family: String,
    /// Job count.
    pub jobs: usize,
    /// Machine count.
    pub machines: usize,
    /// Timed repetitions folded into the percentiles.
    pub reps: usize,
    /// Mean wall time per solve, milliseconds.
    pub mean_ms: f64,
    /// Median wall time, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile wall time, milliseconds.
    pub p90_ms: f64,
    /// Worst observed wall time, milliseconds.
    pub max_ms: f64,
    /// Achieved makespan (as f64).
    pub makespan: f64,
    /// Graph-blind lower bound (as f64).
    pub lower_bound: f64,
    /// `makespan / lower_bound` (≥ 1).
    pub ratio_lb: f64,
    /// `makespan / C*_max` against a proven optimum, when the exact
    /// search completed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ratio_opt: Option<f64>,
    /// Winning engine.
    pub method: String,
    /// Guarantee attached to the returned schedule.
    pub guarantee: String,
    /// The winning engine's runtime counters from the last timed rep
    /// (`EngineStats` pairs — B&B `nodes`/prunes, CP `propagations`/
    /// `restarts`, FPTAS `expanded`/`peak_states`, ...). Empty for
    /// engines that report none, and for v1 files. Schema v2.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub counters: Vec<(String, u64)>,
    /// Per-engine attempt counts of the last timed rep, first-attempt
    /// order — which engines ran (portfolio members, fallbacks), not
    /// just which won. Empty for v1 files. Schema v2.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub engine_attempts: Vec<(String, u64)>,
    /// Whether the last timed rep was a portfolio race. A race's winner
    /// and counters vary between runs of one binary, so `lab compare`
    /// neither holds a raced cell's `method`, `counters` and
    /// `engine_attempts` exact nor attributes its change to them. Absent
    /// (false) in older files.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub raced: bool,
    /// Solve error, when the cell failed (timings are zero then).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
}

impl CellReport {
    /// The stable key the regression gate matches cells on.
    pub fn key(&self) -> String {
        format!("{}/{}", self.scenario, self.config)
    }
}

/// A whole suite run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LabReport {
    /// JSON schema version ([`SCHEMA_VERSION`]).
    pub schema: u64,
    /// Suite name.
    pub suite: String,
    /// Warmup solves per cell (not measured).
    pub warmup: usize,
    /// Timed solves per cell.
    pub reps: usize,
    /// Wall time of the whole run, seconds.
    pub total_wall_s: f64,
    /// The measurement rows.
    pub cells: Vec<CellReport>,
    /// Section 4.1 statistics table (paper-sec4 / full suites).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sec4_graph: Option<Vec<RandomGraphRow>>,
    /// Section 4.1 Algorithm 2 ratio table.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sec4_alg2: Option<Vec<Alg2Row>>,
}

impl LabReport {
    /// Renders the report as a Markdown summary.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# bisched lab — suite `{}`\n\n{} cells, {} timed reps each (+{} warmup), \
             total wall time {:.2} s.\n\n",
            self.suite,
            self.cells.len(),
            self.reps,
            self.warmup,
            self.total_wall_s
        ));
        if !self.cells.is_empty() {
            out.push_str(
                "| scenario | config | model | family | jobs | m | p50 ms | p90 ms | \
                 C/LB | C/OPT | method | guarantee |\n\
                 |---|---|---|---|---:|---:|---:|---:|---:|---:|---|---|\n",
            );
            for c in &self.cells {
                if let Some(err) = &c.error {
                    out.push_str(&format!(
                        "| {} | {} | {} | {} | {} | {} | — | — | — | — | error | {} |\n",
                        c.scenario, c.config, c.model, c.family, c.jobs, c.machines, err
                    ));
                    continue;
                }
                let opt = c
                    .ratio_opt
                    .map(|r| format!("{r:.3}"))
                    .unwrap_or_else(|| "—".into());
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {:.3} | {:.3} | {:.3} | {} | {} | {} |\n",
                    c.scenario,
                    c.config,
                    c.model,
                    c.family,
                    c.jobs,
                    c.machines,
                    c.p50_ms,
                    c.p90_ms,
                    c.ratio_lb,
                    opt,
                    c.method,
                    c.guarantee
                ));
            }
        }
        if let Some(rows) = &self.sec4_graph {
            out.push_str(
                "\n## Section 4.1 — random-graph statistics\n\n\
                 | n | regime | p | seeds | \\|V'2\\|/n | Lem.12 bound | mu/n | Lem.13 bound | \
                 \\|V'2\\|/mu | max |\n|---:|---|---:|---:|---:|---:|---:|---:|---:|---:|\n",
            );
            for r in rows {
                out.push_str(&format!(
                    "| {} | {} | {:.5} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} | {:.4} |\n",
                    r.n,
                    r.regime,
                    r.p,
                    r.seeds,
                    r.minor_fraction_mean,
                    r.lemma12_bound,
                    r.matching_fraction_mean,
                    r.lemma13_bound,
                    r.ratio_mean,
                    r.ratio_max
                ));
            }
        }
        if let Some(rows) = &self.sec4_alg2 {
            out.push_str(
                "\n## Section 4.1 — Algorithm 2 vs graph-aware lower bound\n\n\
                 | n | regime | speeds | m | seeds | ratio mean | ratio max | k mean |\n\
                 |---:|---|---|---:|---:|---:|---:|---:|\n",
            );
            for r in rows {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {:.4} | {:.4} | {:.1} |\n",
                    r.n, r.regime, r.speeds, r.m, r.seeds, r.ratio_mean, r.ratio_max, r.k_mean
                ));
            }
        }
        out
    }

    /// Writes the JSON report to `json_path` and the Markdown rendering
    /// next to it (same stem, `.md`). Returns the Markdown path.
    pub fn write_files(&self, json_path: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let json = serde_json::to_string(self).expect("report serializes");
        std::fs::write(json_path, json + "\n")?;
        let md_path = json_path.with_extension("md");
        std::fs::write(&md_path, self.to_markdown())?;
        Ok(md_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scenario: &str, config: &str) -> CellReport {
        CellReport {
            scenario: scenario.into(),
            config: config.into(),
            model: "P".into(),
            family: "K{2,2}".into(),
            jobs: 4,
            machines: 2,
            reps: 3,
            mean_ms: 0.5,
            p50_ms: 0.4,
            p90_ms: 0.7,
            max_ms: 0.8,
            makespan: 6.0,
            lower_bound: 5.0,
            ratio_lb: 1.2,
            ratio_opt: Some(1.0),
            method: "alg1".into(),
            guarantee: "optimal".into(),
            counters: vec![("nodes".into(), 42)],
            engine_attempts: vec![("alg1".into(), 1)],
            raced: false,
            error: None,
        }
    }

    #[test]
    fn v1_files_deserialize_with_empty_counters() {
        // A schema-1 cell (no counters/engine_attempts on disk) must
        // still load — the upgrade path for committed baselines.
        let v1 = r#"{"schema":1,"suite":"quick","warmup":0,"reps":1,
            "total_wall_s":0.1,"cells":[{"scenario":"a","config":"auto",
            "model":"P","family":"K{2,2}","jobs":4,"machines":2,"reps":1,
            "mean_ms":0.5,"p50_ms":0.4,"p90_ms":0.7,"max_ms":0.8,
            "makespan":6.0,"lower_bound":5.0,"ratio_lb":1.2,
            "method":"alg1","guarantee":"optimal"}]}"#;
        let back: LabReport = serde_json::from_str(v1).unwrap();
        assert_eq!(back.schema, 1);
        assert!(back.cells[0].counters.is_empty());
        assert!(back.cells[0].engine_attempts.is_empty());
    }

    #[test]
    fn json_roundtrip_preserves_cells() {
        let report = LabReport {
            schema: SCHEMA_VERSION,
            suite: "quick".into(),
            warmup: 1,
            reps: 3,
            total_wall_s: 1.5,
            cells: vec![cell("a", "auto"), cell("b", "greedy")],
            sec4_graph: None,
            sec4_alg2: None,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: LabReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.suite, "quick");
        assert_eq!(back.cells.len(), 2);
        assert_eq!(back.cells[0].key(), "a/auto");
        assert_eq!(back.cells[1].ratio_opt, Some(1.0));
        assert_eq!(back.cells[0].counters, vec![("nodes".to_string(), 42)]);
        assert_eq!(back.cells[0].engine_attempts, vec![("alg1".to_string(), 1)]);
        assert!(back.sec4_graph.is_none());
    }

    #[test]
    fn markdown_contains_every_cell_key() {
        let report = LabReport {
            schema: SCHEMA_VERSION,
            suite: "quick".into(),
            warmup: 0,
            reps: 1,
            total_wall_s: 0.1,
            cells: vec![cell("p3-k8x12", "auto")],
            sec4_graph: None,
            sec4_alg2: None,
        };
        let md = report.to_markdown();
        assert!(md.contains("p3-k8x12"));
        assert!(md.contains("| scenario |"));
    }
}
