//! `compare parent.json change.json`: every workload × end-to-end metric in a
//! row of its own, judged against the bound the benchmark fixed for it.

use crate::json::{parse, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::Summary;
use crate::workloads::NAMES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The windows of at least one side spread wider than the bound (quartile
    /// to quartile) and the two sides overlap: these two runs cannot tell a
    /// change from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric of one workload.
pub fn verdict(metric: &EndToEnd, parent: &Summary, change: &Summary) -> Verdict {
    let ([p1, p2, p3], [c1, c2, c3]) = (parent.quartiles(), change.quartiles());
    let noisy = (p3 - p1) / p2 > metric.bound || (c3 - c1) / c2 > metric.bound;
    let overlap = p1 <= c3 && c1 <= p3;
    let worse_by = match metric.better {
        Better::Lower => change.value / parent.value - 1.0,
        Better::Higher => 1.0 - change.value / parent.value,
    };
    if noisy && overlap {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else if worse_by < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// One side's sample of one metric of one workload. With several runs it is
/// the runs' reported values, and the side's value is their median. With one
/// run it is that run's windows — which say nothing of how the host drifts
/// from one run to the next, so a verdict from one run a side is provisional.
fn summary(runs: &[Value], workload: &str, metric: &str) -> Option<Summary> {
    let of = |run: &Value| -> Option<Summary> {
        let m = run
            .get("end_to_end")
            .get(workload)
            .get("metrics")
            .get(metric);
        let s = Summary {
            value: m.get("value").as_f64(),
            windows: m
                .get("windows")
                .as_array()
                .iter()
                .map(Value::as_f64)
                .collect(),
        };
        (s.value.is_finite() && !s.windows.is_empty() && s.windows.iter().all(|v| v.is_finite()))
            .then_some(s)
    };
    match runs {
        [one] => of(one),
        _ => {
            let values: Option<Vec<f64>> = runs.iter().map(|r| of(r).map(|s| s.value)).collect();
            values.map(Summary::median_of)
        }
    }
}

fn failed_share(runs: &[Value], workload: &str) -> f64 {
    let sum = |key: &str| -> f64 {
        runs.iter()
            .map(|r| r.get("end_to_end").get(workload).get(key).as_f64())
            .sum()
    };
    sum("failed") / sum("attempted")
}

/// Prints the table for the runs of a parent and of a change and returns
/// whether the change holds: no metric regressed, no workload failed more
/// often, and nothing the parent measured is missing.
pub fn compare(parent: &[Value], change: &[Value]) -> bool {
    let commit = |runs: &[Value]| runs[0].get("stamp").get("commit").as_str().to_string();
    println!(
        "parent {} ({} run(s)) | change {} ({} run(s))",
        commit(parent),
        parent.len(),
        commit(change),
        change.len()
    );
    if parent.len() == 1 || change.len() == 1 {
        println!(
            "one run a side: spreads are between the windows of a run, and the host \
             drifts more than that from run to run; give several runs a side to settle a row"
        );
    }
    println!(
        "{:<22} {:<12} {:>12} {:>12} {:>16}  verdict",
        "workload", "metric", "parent", "change", "change / parent"
    );
    let mut holds = true;
    for name in NAMES {
        for metric in &END_TO_END {
            let (Some(ps), Some(cs)) = (
                summary(parent, name, metric.name),
                summary(change, name, metric.name),
            ) else {
                println!(
                    "{name:<22} {:<12} missing from one of the files",
                    metric.name
                );
                holds = false;
                continue;
            };
            let v = verdict(metric, &ps, &cs);
            holds &= v != Verdict::Regressed;
            println!(
                "{name:<22} {:<12} {:>12.4} {:>12.4} {:>9.3} of {:<4}  {}",
                metric.name,
                ps.value,
                cs.value,
                cs.value / ps.value,
                metric.unit,
                v.as_str()
            );
        }
        let (pf, cf) = (failed_share(parent, name), failed_share(change, name));
        // NaN (a workload missing from a file) compares false: caught above.
        let more_failures = cf > pf;
        holds &= !more_failures;
        println!(
            "{name:<22} {:<12} {pf:>12.4} {cf:>12.4} {:>16}  {}",
            "failed/tried",
            "",
            if more_failures {
                "MORE FAILURES"
            } else {
                "no more failures"
            }
        );
    }
    holds
}

/// Reads and compares result files: each side is one `results.json`, or
/// several separated by commas.
///
/// # Errors
///
/// Returns why a file could not be read or parsed.
pub fn compare_files(parent: &str, change: &str) -> Result<bool, String> {
    let load = |paths: &str| -> Result<Vec<Value>, String> {
        paths
            .split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                parse(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect()
    };
    Ok(compare(&load(parent)?, &load(change)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.10,
    };

    fn around(median: f64, by: f64) -> Summary {
        Summary::median_of(vec![
            median * (1.0 - by),
            median * (1.0 - by),
            median,
            median * (1.0 + by),
            median * (1.0 + by),
        ])
    }

    fn tight(median: f64) -> Summary {
        around(median, 0.01)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        assert_eq!(
            verdict(&LOWER, &tight(10.0), &tight(10.5)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&LOWER, &tight(10.0), &tight(11.5)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&LOWER, &tight(10.0), &tight(8.0)),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&HIGHER, &tight(100.0), &tight(95.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&HIGHER, &tight(100.0), &tight(85.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&HIGHER, &tight(100.0), &tight(120.0)),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_overlapping_windows_are_unresolved_not_unchanged() {
        let wide = |median: f64| around(median, 0.2);
        assert_eq!(
            verdict(&LOWER, &wide(10.0), &wide(10.2)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&LOWER, &wide(10.0), &wide(12.0)),
            Verdict::Unresolved
        );
        // Wide but disjoint: every window of the change is worse than every
        // window of the parent.
        assert_eq!(
            verdict(&LOWER, &wide(10.0), &wide(20.0)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&LOWER, &wide(20.0), &wide(10.0)), Verdict::Improved);
    }

    fn results(op_ms: f64, failed: u64) -> Value {
        let mut workloads = Vec::new();
        for name in NAMES {
            let metrics: Vec<String> = END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "op_ms_p50" { op_ms } else { 5.0 };
                    format!(
                        "\"{}\": {{\"unit\": \"{}\", \"value\": {v}, \"windows\": [{v}]}}",
                        m.name, m.unit
                    )
                })
                .collect();
            workloads.push(format!(
                "\"{name}\": {{\"attempted\": 100, \"failed\": {failed}, \"metrics\": {{{}}}}}",
                metrics.join(", ")
            ));
        }
        parse(&format!(
            "{{\"stamp\": {{\"commit\": \"c\"}}, \"end_to_end\": {{{}}}}}",
            workloads.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn a_regressed_row_more_failures_or_a_missing_row_fail_the_comparison() {
        let one = |op_ms, failed| vec![results(op_ms, failed)];
        assert!(compare(&one(10.0, 0), &one(10.5, 0)));
        assert!(!compare(&one(10.0, 0), &one(13.0, 0)));
        assert!(!compare(&one(10.0, 0), &one(10.0, 1)));
        assert!(compare(&one(10.0, 1), &one(10.0, 0)));
        let empty = vec![parse("{\"end_to_end\": {}}").unwrap()];
        assert!(!compare(&one(10.0, 0), &empty));
    }

    #[test]
    fn several_runs_a_side_are_judged_on_the_spread_between_runs() {
        let runs =
            |values: &[f64]| -> Vec<Value> { values.iter().map(|&v| results(v, 0)).collect() };
        // Each run is steady within itself (one window), but the runs of
        // either side lie 40 % apart and overlap: nothing can be concluded.
        let s = summary(&runs(&[10.0, 12.0, 14.0]), NAMES[0], "op_ms_p50").unwrap();
        assert_eq!((s.value, s.windows.len()), (12.0, 3));
        let parent = summary(&runs(&[10.0, 12.0, 14.0]), NAMES[0], "op_ms_p50").unwrap();
        let change = summary(&runs(&[11.0, 16.0, 13.0]), NAMES[0], "op_ms_p50").unwrap();
        assert_eq!(verdict(&LOWER, &parent, &change), Verdict::Unresolved);
        assert!(compare(
            &runs(&[10.0, 12.0, 14.0]),
            &runs(&[11.0, 16.0, 13.0])
        ));
        // Tight runs, clearly apart.
        assert!(!compare(
            &runs(&[10.0, 10.1, 10.2]),
            &runs(&[14.0, 14.1, 14.2])
        ));
    }
}
