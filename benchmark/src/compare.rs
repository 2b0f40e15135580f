//! `benchmark compare BASE.jsonl CHANGE.jsonl …`: apply each end-to-end
//! metric's bound per (metric, workload) to two sets of runs.
//!
//! A run set is a file of `--append` lines. Verdicts follow the repo's
//! metrics guide: `worse` when the change's median is worse than the base's
//! by more than the bound; `unresolved` when the run-to-run spread (distance
//! between the quartiles as a share of the median, on either side) is wider
//! than the bound — unless every run of the change reads better than every
//! run of the base; `ok` otherwise.

use crate::json::{self, Json};
use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// Untraced values per (workload, metric), and failed ops seen.
#[derive(Default)]
pub struct RunSet {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub failed_ops: u64,
    pub runs: usize,
}

pub fn parse_run_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |name: &str| doc.get(name).ok_or(format!("line {}: no {name:?}", n + 1));
        set.failed_ops += field("failed")?.as_f64().unwrap_or(0.0) as u64;
        if field("traced")? == &Json::Bool(true) {
            continue; // per-layer numbers carry no bound
        }
        set.runs += 1;
        let workload = field("workload")?
            .as_str()
            .ok_or("workload is not a string")?
            .to_string();
        for (metric, value) in field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
        {
            if let Some(v) = value.as_f64() {
                set.values
                    .entry((workload.clone(), metric.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Distance between the quartiles as a share of the median (0 for one run).
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        if q3 > q1 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Share of the base median by which the change's median is worse.
fn worse_by(metric: &EndToEnd, base: f64, change: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => change - base,
        Better::Higher => base - change,
    };
    if delta <= 0.0 {
        0.0
    } else if base == 0.0 {
        f64::INFINITY
    } else {
        delta / base.abs()
    }
}

pub fn judge(metric: &EndToEnd, base: &[f64], change: &[f64]) -> Verdict {
    let better = |c: f64, b: f64| match metric.better {
        Better::Lower => c < b,
        Better::Higher => c > b,
    };
    if spread(base).max(spread(change)) > metric.bound {
        let all_better = change.iter().all(|&c| base.iter().all(|&b| better(c, b)));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by(metric, median(base), median(change)) > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn describe(values: &[f64]) -> String {
    if values.len() < 2 {
        return format!("{:.6}", values[0]);
    }
    let (q1, med, q3) = quartiles(values);
    format!("{med:.6} [{q1:.6}, {q3:.6}]")
}

/// Compare `change` against `base`; returns the report and whether every
/// pair is `ok` with no failed ops on either side.
pub fn compare(base: &RunSet, change: &RunSet) -> (String, bool) {
    let mut out = format!(
        "{:<13} {:<20} {:<8} {:<11} {:>7} {:>6}  base median [q1, q3] -> change median [q1, q3]\n",
        "workload", "metric", "unit", "verdict", "worse%", "bound%"
    );
    let mut all_ok = base.failed_ops == 0 && change.failed_ops == 0;
    if !all_ok {
        out.push_str(&format!(
            "failed ops: base {} change {}\n",
            base.failed_ops, change.failed_ops
        ));
    }
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let key = (workload.name.to_string(), metric.name.to_string());
            let (Some(b), Some(c)) = (base.values.get(&key), change.values.get(&key)) else {
                continue;
            };
            let verdict = judge(metric, b, c);
            all_ok &= verdict == Verdict::Ok;
            out.push_str(&format!(
                "{:<13} {:<20} {:<8} {:<11} {:>7.2} {:>6.0}  {} -> {}\n",
                workload.name,
                metric.name,
                metric.unit,
                format!("{verdict:?}").to_lowercase(),
                worse_by(metric, median(b), median(c)) * 100.0,
                metric.bound * 100.0,
                describe(b),
                describe(c)
            ));
        }
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "ns",
            better,
            bound,
            gated: true,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let p50 = &metric(Better::Lower, 0.10);
        let steady = [100.0, 101.0, 100.5, 99.5, 100.2];
        assert_eq!(
            judge(p50, &steady, &[105.0, 106.0, 105.5, 104.0, 105.2]),
            Verdict::Ok
        );
        assert_eq!(
            judge(p50, &steady, &[115.0, 116.0, 115.5, 114.0, 115.2]),
            Verdict::Worse
        );
        assert_eq!(
            judge(p50, &steady, &[80.0, 81.0, 80.5, 79.0, 80.2]),
            Verdict::Ok
        );
        let noisy = [80.0, 130.0, 100.0, 90.0, 120.0];
        assert_eq!(judge(p50, &steady, &noisy), Verdict::Unresolved);
        // Wide spread, but every run of the change beats every run of the base.
        assert_eq!(
            judge(p50, &noisy, &[40.0, 70.0, 50.0, 45.0, 60.0]),
            Verdict::Ok
        );
        let tput = &metric(Better::Higher, 0.10);
        assert_eq!(judge(tput, &steady, &[85.0, 86.0, 85.5]), Verdict::Worse);
        assert_eq!(judge(tput, &steady, &[120.0, 121.0, 120.5]), Verdict::Ok);
        let exact = &metric(Better::Lower, 0.01);
        assert_eq!(judge(exact, &[3.0, 3.0], &[3.0, 3.0]), Verdict::Ok);
        assert_eq!(judge(exact, &[3.0, 3.0], &[3.1, 3.1]), Verdict::Worse);
    }

    #[test]
    fn run_sets_parse_and_compare() {
        let line = |w: &str, v: f64, traced: bool| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": 1, \"traced\": {traced}, \"attempted\": 5, \
                 \"failed\": 0, \"metrics\": {{\"point_p50_ns\": {v}, \"setup_s\": 1.5}}}}\n"
            )
        };
        let base =
            parse_run_set(&(line("store_read", 100.0, false) + &line("store_read", 102.0, false)))
                .unwrap();
        let text = line("store_read", 130.0, false)
            + &line("store_read", 131.0, false)
            + &line("store_read", 1.0, true);
        let change = parse_run_set(&text).unwrap();
        assert_eq!((base.runs, change.runs), (2, 2), "traced lines are skipped");
        let (report, ok) = compare(&base, &change);
        assert!(!ok);
        assert!(report.contains("worse"), "{report}");
        assert!(compare(&base, &base).1);
        assert!(parse_run_set("{\"workload\": 3}").is_err());
    }
}
