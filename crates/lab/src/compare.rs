//! The perf-regression gate: `old.json` vs `new.json`, cell by cell.
//!
//! A cell regresses when its median wall time grows by more than the
//! failure threshold (and by more than an absolute noise floor), when its
//! solution quality (`C/LB`) degrades past the quality threshold, when it
//! starts erroring, or when it disappears from the new report. Faster
//! cells are reported as improvements and never fail the gate.

use crate::report::{CellReport, LabReport};
use std::collections::BTreeMap;

/// Gate thresholds.
#[derive(Clone, Copy, Debug)]
pub struct CompareOptions {
    /// Fail when `p50_ms` grows by more than this percentage.
    pub fail_threshold_pct: f64,
    /// Fail when `ratio_lb` grows by more than this percentage.
    pub quality_threshold_pct: f64,
    /// Absolute wall-time growth (ms) below which a cell never fails —
    /// keeps micro-cells from tripping the gate on scheduler jitter.
    pub min_abs_ms: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            fail_threshold_pct: 75.0,
            quality_threshold_pct: 10.0,
            min_abs_ms: 0.02,
        }
    }
}

/// One per-cell finding (regression or improvement).
#[derive(Clone, Debug)]
pub struct Finding {
    /// Cell key (`scenario/config`).
    pub cell: String,
    /// `"p50_ms"`, `"ratio_lb"`, or `"error"`.
    pub metric: String,
    /// Old value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Relative change in percent (`(new - old) / old * 100`).
    pub delta_pct: f64,
    /// Counter attribution: what the winning engine did differently
    /// (`bnb_nodes 46k→412k, prunes/node 0.71→0.22`), built from the
    /// cells' schema-v2 `counters`. Empty when neither side carries
    /// counters (v1 vs v1).
    pub attribution: String,
}

impl Finding {
    fn describe(&self) -> String {
        let mut line = format!(
            "{:<40} {:>9}  {:>10.4} -> {:>10.4}  ({:+.1}%)",
            self.cell, self.metric, self.old, self.new, self.delta_pct
        );
        if !self.attribution.is_empty() {
            line.push_str(" · ");
            line.push_str(&self.attribution);
        }
        line
    }
}

/// Humane counter formatting: `46213` → `46k`, `1234567` → `1.2M`.
fn fmt_count(v: u64) -> String {
    if v >= 10_000_000 {
        format!("{}M", v / 1_000_000)
    } else if v >= 1_000_000 {
        format!("{:.1}M", v as f64 / 1e6)
    } else if v >= 10_000 {
        format!("{}k", v / 1_000)
    } else if v >= 1_000 {
        format!("{:.1}k", v as f64 / 1e3)
    } else {
        v.to_string()
    }
}

/// Explains a cell's change through its engine-counter deltas: method
/// switch, the largest counter moves (≥ 20% and non-trivial absolute
/// change, worst first, capped at four), and the derived prunes/node
/// ratio for tree-search engines — "what did the engine do differently",
/// next to "how much slower" in the finding line. When either side
/// raced, the winner and its counters differ between runs of one binary,
/// so the deltas are marked `race-dependent` instead of offered as the
/// cause.
fn attribute(o: &CellReport, n: &CellReport) -> String {
    let deltas = counter_deltas(o, n);
    if (o.raced || n.raced) && !deltas.is_empty() {
        format!("race-dependent ({deltas})")
    } else {
        deltas
    }
}

fn counter_deltas(o: &CellReport, n: &CellReport) -> String {
    let mut parts: Vec<String> = Vec::new();
    if o.method != n.method && !o.method.is_empty() && !n.method.is_empty() {
        parts.push(format!("method {}→{}", o.method, n.method));
    }
    let old_counters: BTreeMap<&str, u64> =
        o.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let new_counters: BTreeMap<&str, u64> =
        n.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    // Largest relative movers first; a counter missing on one side (an
    // engine change, or a v1 baseline) is shown as `—`.
    let mut moves: Vec<(f64, String)> = Vec::new();
    for (name, &nv) in &new_counters {
        match old_counters.get(name) {
            Some(&ov) => {
                let ratio = nv.max(1) as f64 / ov.max(1) as f64;
                let magnitude = ratio.max(1.0 / ratio);
                if magnitude >= 1.2 && nv.abs_diff(ov) >= 8 {
                    parts_push_move(&mut moves, magnitude, name, fmt_count(ov), fmt_count(nv));
                }
            }
            None if nv > 0 => {
                parts_push_move(&mut moves, 1.0, name, "—".into(), fmt_count(nv));
            }
            None => {}
        }
    }
    for (name, &ov) in &old_counters {
        if !new_counters.contains_key(name) && ov > 0 {
            parts_push_move(&mut moves, 1.0, name, fmt_count(ov), "—".into());
        }
    }
    moves.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    moves.truncate(4);
    parts.extend(moves.into_iter().map(|(_, s)| s));
    // Derived pruning efficiency: total prunes per explored node. A
    // regression that explores 9x the nodes at a third of the prune
    // rate is a search-ordering problem, not a slow evaluator.
    if let (Some(old_ppn), Some(new_ppn)) = (prunes_per_node(o), prunes_per_node(n)) {
        if old_ppn > 0.0 && (new_ppn / old_ppn).max(old_ppn / new_ppn.max(1e-12)) >= 1.2 {
            parts.push(format!("prunes/node {old_ppn:.2}→{new_ppn:.2}"));
        }
    }
    parts.join(", ")
}

fn parts_push_move(
    moves: &mut Vec<(f64, String)>,
    magnitude: f64,
    name: &str,
    o: String,
    n: String,
) {
    moves.push((magnitude, format!("{name} {o}→{n}")));
}

/// `(sum of prunes_* counters) / nodes`, when the cell's winner
/// reported a node count.
fn prunes_per_node(c: &CellReport) -> Option<f64> {
    let nodes = c
        .counters
        .iter()
        .find(|(k, _)| k == "nodes")
        .map(|&(_, v)| v)?;
    if nodes == 0 {
        return None;
    }
    let prunes: u64 = c
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("prunes"))
        .map(|&(_, v)| v)
        .sum();
    Some(prunes as f64 / nodes as f64)
}

/// The gate's verdict.
#[derive(Clone, Debug, Default)]
pub struct CompareOutcome {
    /// Cells that regressed (time, quality, or new errors).
    pub regressions: Vec<Finding>,
    /// Cells that improved past the same thresholds.
    pub improvements: Vec<Finding>,
    /// Cell keys present in the old report but missing from the new one
    /// (lost coverage — fails the gate).
    pub missing: Vec<String>,
    /// Cell keys new in the new report (fine; noted for the log).
    pub added: Vec<String>,
}

impl CompareOutcome {
    /// `true` when the gate passes (no regressions, no lost coverage).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// The regressions ranked worst-first (by relative change; new
    /// errors, with their infinite delta, sort to the front).
    pub fn worst_regressions(&self, k: usize) -> Vec<&Finding> {
        let mut ranked: Vec<&Finding> = self.regressions.iter().collect();
        ranked.sort_by(|a, b| {
            b.delta_pct
                .partial_cmp(&a.delta_pct)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cell.cmp(&b.cell))
        });
        ranked.truncate(k);
        ranked
    }

    /// Human-readable verdict for CI logs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.regressions.is_empty() {
            // Lead CI readers straight to the worst offenders before the
            // full (unranked) list.
            out.push_str("worst 3:\n");
            for f in self.worst_regressions(3) {
                out.push_str(&format!("  {}\n", f.describe()));
            }
            out.push_str(&format!("REGRESSIONS ({}):\n", self.regressions.len()));
            for f in &self.regressions {
                out.push_str(&format!("  {}\n", f.describe()));
            }
        }
        if !self.missing.is_empty() {
            out.push_str(&format!(
                "MISSING CELLS ({}): {}\n",
                self.missing.len(),
                self.missing.join(", ")
            ));
        }
        if !self.improvements.is_empty() {
            out.push_str(&format!("improvements ({}):\n", self.improvements.len()));
            for f in &self.improvements {
                out.push_str(&format!("  {}\n", f.describe()));
            }
        }
        if !self.added.is_empty() {
            out.push_str(&format!(
                "new cells ({}): {}\n",
                self.added.len(),
                self.added.join(", ")
            ));
        }
        out.push_str(if self.passed() {
            "gate: PASS\n"
        } else {
            "gate: FAIL\n"
        });
        out
    }
}

fn pct(old: f64, new: f64) -> f64 {
    if old <= 0.0 {
        if new <= 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - old) / old * 100.0
    }
}

/// Compares two reports under the gate thresholds.
pub fn compare(old: &LabReport, new: &LabReport, opts: &CompareOptions) -> CompareOutcome {
    let index = |r: &LabReport| -> BTreeMap<String, CellReport> {
        r.cells.iter().map(|c| (c.key(), c.clone())).collect()
    };
    let old_cells = index(old);
    let new_cells = index(new);
    let mut outcome = CompareOutcome::default();
    for key in new_cells.keys() {
        if !old_cells.contains_key(key) {
            outcome.added.push(key.clone());
        }
    }
    for (key, o) in &old_cells {
        let Some(n) = new_cells.get(key) else {
            outcome.missing.push(key.clone());
            continue;
        };
        // One attribution per cell pair; every finding for the cell
        // carries it, so even the ranked worst-3 excerpt explains itself.
        let attribution = attribute(o, n);
        match (&o.error, &n.error) {
            (None, Some(_)) => {
                // A cell that used to solve and now errors is the worst
                // regression there is.
                outcome.regressions.push(Finding {
                    cell: key.clone(),
                    metric: "error".into(),
                    old: 0.0,
                    new: 1.0,
                    delta_pct: f64::INFINITY,
                    attribution,
                });
                continue;
            }
            (Some(_), _) => continue, // was already broken; nothing to gate
            (None, None) => {}
        }
        let time_delta = pct(o.p50_ms, n.p50_ms);
        let time_finding = Finding {
            cell: key.clone(),
            metric: "p50_ms".into(),
            old: o.p50_ms,
            new: n.p50_ms,
            delta_pct: time_delta,
            attribution: attribution.clone(),
        };
        // A shrink can never pass -100%, so a generous fail threshold
        // (CI uses several hundred percent) must not silence the
        // improvement log; cap the improvement side at -50%.
        let improve_threshold_pct = opts.fail_threshold_pct.min(50.0);
        if time_delta > opts.fail_threshold_pct && n.p50_ms - o.p50_ms > opts.min_abs_ms {
            outcome.regressions.push(time_finding);
        } else if time_delta < -improve_threshold_pct && o.p50_ms - n.p50_ms > opts.min_abs_ms {
            outcome.improvements.push(time_finding);
        }
        let q_delta = pct(o.ratio_lb, n.ratio_lb);
        if q_delta > opts.quality_threshold_pct {
            outcome.regressions.push(Finding {
                cell: key.clone(),
                metric: "ratio_lb".into(),
                old: o.ratio_lb,
                new: n.ratio_lb,
                delta_pct: q_delta,
                attribution,
            });
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SCHEMA_VERSION;

    fn cell(key: &str, p50: f64, ratio: f64) -> CellReport {
        CellReport {
            scenario: key.into(),
            config: "auto".into(),
            model: "P".into(),
            family: "K{2,2}".into(),
            jobs: 4,
            machines: 2,
            reps: 3,
            mean_ms: p50,
            p50_ms: p50,
            p90_ms: p50 * 1.2,
            max_ms: p50 * 1.5,
            makespan: 10.0 * ratio,
            lower_bound: 10.0,
            ratio_lb: ratio,
            ratio_opt: None,
            method: "alg1".into(),
            guarantee: "heuristic".into(),
            counters: Vec::new(),
            engine_attempts: Vec::new(),
            raced: false,
            error: None,
        }
    }

    fn counters(c: &mut CellReport, method: &str, pairs: &[(&str, u64)]) {
        c.method = method.into();
        c.counters = pairs.iter().map(|&(k, v)| (k.into(), v)).collect();
        c.engine_attempts = vec![(method.into(), 1)];
    }

    fn report(cells: Vec<CellReport>) -> LabReport {
        LabReport {
            schema: SCHEMA_VERSION,
            suite: "quick".into(),
            warmup: 1,
            reps: 3,
            total_wall_s: 1.0,
            cells,
            sec4_graph: None,
            sec4_alg2: None,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(vec![cell("a", 1.0, 1.1), cell("b", 0.2, 1.0)]);
        let out = compare(&r, &r, &CompareOptions::default());
        assert!(out.passed(), "{}", out.render());
        assert!(out.regressions.is_empty() && out.missing.is_empty());
    }

    #[test]
    fn doubled_times_fail_the_default_gate() {
        let old = report(vec![cell("a", 1.0, 1.1), cell("b", 0.2, 1.0)]);
        let mut degraded = old.clone();
        for c in &mut degraded.cells {
            c.p50_ms *= 2.0; // the synthetic 2x-slower copy
            c.mean_ms *= 2.0;
        }
        let out = compare(&old, &degraded, &CompareOptions::default());
        assert!(!out.passed());
        assert_eq!(out.regressions.len(), 2);
        assert!(out.render().contains("FAIL"));
    }

    #[test]
    fn small_jitter_under_the_noise_floor_passes() {
        let old = report(vec![cell("a", 0.001, 1.0)]);
        let new = report(vec![cell("a", 0.0025, 1.0)]); // +150% but 1.5 us
        let out = compare(&old, &new, &CompareOptions::default());
        assert!(out.passed(), "{}", out.render());
    }

    #[test]
    fn quality_degradation_fails_independently_of_time() {
        let old = report(vec![cell("a", 1.0, 1.1)]);
        let new = report(vec![cell("a", 1.0, 1.5)]);
        let out = compare(&old, &new, &CompareOptions::default());
        assert!(!out.passed());
        assert_eq!(out.regressions[0].metric, "ratio_lb");
    }

    #[test]
    fn missing_and_errored_cells_fail_added_cells_pass() {
        let old = report(vec![cell("a", 1.0, 1.0), cell("b", 1.0, 1.0)]);
        let mut new = report(vec![cell("a", 1.0, 1.0), cell("c", 1.0, 1.0)]);
        let out = compare(&old, &new, &CompareOptions::default());
        assert!(!out.passed());
        assert_eq!(out.missing, vec!["b/auto".to_string()]);
        assert_eq!(out.added, vec!["c/auto".to_string()]);

        new = report(vec![cell("a", 1.0, 1.0), cell("b", 1.0, 1.0)]);
        new.cells[1].error = Some("boom".into());
        let out = compare(&old, &new, &CompareOptions::default());
        assert!(!out.passed());
        assert_eq!(out.regressions[0].metric, "error");
    }

    #[test]
    fn worst_regressions_rank_errors_first_and_cap_at_three() {
        let old = report(vec![
            cell("a", 1.0, 1.0),
            cell("b", 1.0, 1.0),
            cell("c", 1.0, 1.0),
            cell("d", 1.0, 1.0),
        ]);
        let mut new = report(vec![
            cell("a", 3.0, 1.0),  // +200%
            cell("b", 10.0, 1.0), // +900%
            cell("c", 2.5, 1.0),  // +150%
            cell("d", 1.0, 1.0),
        ]);
        new.cells[3].error = Some("boom".into());
        let out = compare(&old, &new, &CompareOptions::default());
        assert!(!out.passed());
        assert_eq!(out.regressions.len(), 4);
        let worst = out.worst_regressions(3);
        assert_eq!(worst.len(), 3);
        assert_eq!(worst[0].cell, "d/auto"); // infinite delta first
        assert_eq!(worst[1].cell, "b/auto");
        assert_eq!(worst[2].cell, "a/auto");
        let rendered = out.render();
        assert!(rendered.contains("worst 3:"), "{rendered}");
    }

    #[test]
    fn improvements_are_reported_not_failed() {
        let old = report(vec![cell("a", 2.0, 1.0)]);
        let new = report(vec![cell("a", 0.4, 1.0)]);
        let out = compare(&old, &new, &CompareOptions::default());
        assert!(out.passed());
        assert_eq!(out.improvements.len(), 1);
    }

    #[test]
    fn regressions_name_their_counter_deltas() {
        let mut old = report(vec![cell("a", 1.0, 1.0)]);
        counters(
            &mut old.cells[0],
            "branch-and-bound",
            &[("nodes", 46_213), ("prunes_incumbent", 33_107)],
        );
        let mut new = report(vec![cell("a", 3.0, 1.0)]); // +200%
        counters(
            &mut new.cells[0],
            "branch-and-bound",
            &[("nodes", 412_345), ("prunes_incumbent", 91_000)],
        );
        let out = compare(&old, &new, &CompareOptions::default());
        assert!(!out.passed());
        let f = &out.regressions[0];
        assert!(
            f.attribution.contains("nodes 46k→412k"),
            "{}",
            f.attribution
        );
        // 33107/46213 = 0.72 vs 91000/412345 = 0.22: pruning collapsed.
        assert!(
            f.attribution.contains("prunes/node 0.72→0.22"),
            "{}",
            f.attribution
        );
        let line = out.render();
        assert!(line.contains(" · nodes 46k→412k"), "{line}");
    }

    #[test]
    fn method_switch_is_attributed_and_orphan_counters_marked() {
        let mut old = report(vec![cell("a", 1.0, 1.0)]);
        counters(&mut old.cells[0], "alg1", &[]);
        let mut new = report(vec![cell("a", 5.0, 1.0)]);
        counters(&mut new.cells[0], "cp", &[("propagations", 120_000)]);
        let out = compare(&old, &new, &CompareOptions::default());
        let f = &out.regressions[0];
        assert!(
            f.attribution.contains("method alg1→cp"),
            "{}",
            f.attribution
        );
        assert!(
            f.attribution.contains("propagations —→120k"),
            "{}",
            f.attribution
        );
    }

    #[test]
    fn v1_baselines_without_counters_do_not_break_attribution() {
        // v1 vs v1: no counters anywhere — the finding renders without a
        // dangling separator.
        let old = report(vec![cell("a", 1.0, 1.0)]);
        let mut new = report(vec![cell("a", 3.0, 1.0)]);
        new.cells[0].method = "alg1".into();
        let out = compare(&old, &new, &CompareOptions::default());
        assert_eq!(out.regressions[0].attribution, "");
        assert!(!out.regressions[0].describe().contains(" · "));

        // v1 baseline vs v2 candidate: new-side counters still show up.
        let mut new2 = report(vec![cell("a", 3.0, 1.0)]);
        counters(&mut new2.cells[0], "alg1", &[("nodes", 500)]);
        let out = compare(&old, &new2, &CompareOptions::default());
        assert!(
            out.regressions[0].attribution.contains("nodes —→500"),
            "{}",
            out.regressions[0].attribution
        );
    }

    #[test]
    fn raced_cells_mark_their_counter_deltas_race_dependent() {
        let mut old = report(vec![cell("a", 1.0, 1.0)]);
        counters(&mut old.cells[0], "cp", &[("nodes", 1_000)]);
        let mut new = report(vec![cell("a", 3.0, 1.0)]);
        counters(&mut new.cells[0], "branch-and-bound", &[("nodes", 9_000)]);
        new.cells[0].raced = true;
        let out = compare(&old, &new, &CompareOptions::default());
        assert_eq!(
            out.regressions[0].attribution,
            "race-dependent (method cp→branch-and-bound, nodes 1.0k→9.0k)"
        );
        // The same deltas on sequential cells are the attributed cause.
        new.cells[0].raced = false;
        let out = compare(&old, &new, &CompareOptions::default());
        assert_eq!(
            out.regressions[0].attribution,
            "method cp→branch-and-bound, nodes 1.0k→9.0k"
        );
    }

    #[test]
    fn v2_cells_without_the_raced_field_load_as_sequential() {
        let mut json = serde_json::to_string(&report(vec![cell("a", 1.0, 1.0)])).unwrap();
        assert!(!json.contains("raced"), "{json}");
        let loaded: LabReport = serde_json::from_str(&json).unwrap();
        assert!(!loaded.cells[0].raced);
        let mut raced = report(vec![cell("a", 1.0, 1.0)]);
        raced.cells[0].raced = true;
        json = serde_json::to_string(&raced).unwrap();
        let loaded: LabReport = serde_json::from_str(&json).unwrap();
        assert!(loaded.cells[0].raced);
    }

    #[test]
    fn attribution_ignores_noise_and_caps_the_mover_list() {
        let mut old = report(vec![cell("a", 1.0, 1.0)]);
        counters(
            &mut old.cells[0],
            "branch-and-bound",
            &[
                ("a1", 100),
                ("a2", 100),
                ("a3", 100),
                ("a4", 100),
                ("a5", 100),
                ("steady", 1_000),
                ("tiny", 2),
            ],
        );
        let mut new = report(vec![cell("a", 3.0, 1.0)]);
        counters(
            &mut new.cells[0],
            "branch-and-bound",
            &[
                ("a1", 200),
                ("a2", 300),
                ("a3", 400),
                ("a4", 500),
                ("a5", 600),
                ("steady", 1_050), // +5%: below the 20% bar
                ("tiny", 4),       // 2x but abs delta 2: noise
            ],
        );
        let out = compare(&old, &new, &CompareOptions::default());
        let attr = &out.regressions[0].attribution;
        // Worst four movers only, largest first.
        assert!(attr.starts_with("a5 100→600"), "{attr}");
        assert!(attr.contains("a2 100→300"), "{attr}");
        assert!(!attr.contains("a1"), "{attr}");
        assert!(!attr.contains("steady"), "{attr}");
        assert!(!attr.contains("tiny"), "{attr}");
    }
}
