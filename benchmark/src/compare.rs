//! `compare A.json B.json`: one row per (end-to-end metric, workload)
//! with medians, quartiles, delta and bound, and a verdict.
//!
//! * `worse` — B's median is worse than A's by more than the bound.
//! * `unresolved` — the run-to-run spread of either side is wider than
//!   the bound, so "no change" cannot be told from a change (unless every
//!   run of B reads better than every run of A, which is `ok`).
//! * `ok` — otherwise.
//!
//! Exits non-zero on any `worse` row or any increase in failed
//! operations. The acceptance check of the benchmark's own PR and every
//! later performance PR use it.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Samples of `metric` on `workload` in a result set.
fn samples(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn failed_ratio(set: &Json, workload: &str) -> Option<f64> {
    let w = set.get("workloads")?.get(workload)?;
    let failed = w.get("failed")?.as_f64()?;
    let attempted = w.get("attempted")?.as_f64()?;
    (attempted > 0.0).then(|| failed / attempted)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if worsening(better, median(a), median(b)) > bound {
        return Verdict::Worse;
    }
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if wide(a) || wide(b) {
        let b_always_better = match better {
            Better::Lower => {
                b.iter().copied().fold(f64::MIN, f64::max)
                    < a.iter().copied().fold(f64::MAX, f64::min)
            }
            Better::Higher => {
                b.iter().copied().fold(f64::MAX, f64::min)
                    > a.iter().copied().fold(f64::MIN, f64::max)
            }
        };
        if !b_always_better {
            return Verdict::Unresolved;
        }
    }
    Verdict::Ok
}

fn describe(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!("{:.6} [{:.6}, {:.6}] n={}", median(v), q1, q3, v.len()),
        None => format!("{:.6} n={}", median(v), v.len()),
    }
}

/// Prints the table; returns whether B passes (no `worse` row and no
/// increase in failed operations).
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut pass = true;
    println!("workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tdelta\tbound\tverdict");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (sa, sb) = (samples(a, w.name, m.name), samples(b, w.name, m.name));
            if sa.is_empty() || sb.is_empty() {
                println!(
                    "{}\t{}\t{}\t-\t-\t-\t{}\tmissing",
                    w.name, m.name, m.unit, m.bound
                );
                pass = false;
                continue;
            }
            let v = verdict(m.better, m.bound, &sa, &sb);
            pass &= v != Verdict::Worse;
            println!(
                "{}\t{}\t{}\t{}\t{}\t{:+.2}%\t{:.0}%\t{}",
                w.name,
                m.name,
                m.unit,
                describe(&sa),
                describe(&sb),
                worsening(m.better, median(&sa), median(&sb)) * 100.0,
                m.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        if let (Some(fa), Some(fb)) = (failed_ratio(a, w.name), failed_ratio(b, w.name)) {
            let grew = fb > fa;
            pass &= !grew;
            println!(
                "{}\tfail_ratio\tratio\t{fa}\t{fb}\t-\tany increase\t{}",
                w.name,
                if grew { "worse" } else { "ok" }
            );
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        // 3 % slower under a 10 % bound with tight runs: ok
        let b = [10.3, 10.4, 10.2, 10.35, 10.25];
        assert_eq!(verdict(Better::Lower, 0.10, &a, &b), Verdict::Ok);
        // 20 % slower: worse — and, read as a throughput, better
        let c = [12.0, 12.1, 11.9, 12.05, 11.95];
        assert_eq!(verdict(Better::Lower, 0.10, &a, &c), Verdict::Worse);
        assert_eq!(verdict(Better::Higher, 0.10, &a, &c), Verdict::Ok);
        assert_eq!(verdict(Better::Higher, 0.10, &c, &a), Verdict::Worse);
        // spread wider than the bound: unresolved, not "unchanged" …
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(
            verdict(Better::Lower, 0.10, &a, &noisy),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A
        let clear = [4.0, 6.0, 4.5, 5.5, 5.0];
        assert_eq!(verdict(Better::Lower, 0.10, &a, &clear), Verdict::Ok);
    }

    #[test]
    fn sets_are_read_by_workload_and_metric() {
        let set = Json::parse(
            r#"{"workloads":{"crossbar":{"attempted":980,"failed":2,
                "end_to_end":{"wall_s":[3.5,3.6,3.4]}}}}"#,
        )
        .unwrap();
        assert_eq!(samples(&set, "crossbar", "wall_s"), vec![3.5, 3.6, 3.4]);
        assert!(samples(&set, "crossbar", "cpu_s").is_empty());
        assert!(samples(&set, "kernels", "wall_s").is_empty());
        assert_eq!(failed_ratio(&set, "crossbar"), Some(2.0 / 980.0));
    }
}
