//! All four workloads at toy sizes, through the library API: every metric
//! named in the tables appears exactly once, finite, with its unit; no op
//! fails; equal seeds give equal inputs.

use benchmark::json::{self, Json};
use benchmark::metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use benchmark::{Ctx, Sizes};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    benchmark::default_dir().join(format!("smoke-{}-{tag}", std::process::id()))
}

/// `/proc/self/io` is per process, so a `store_mixed` run counts the bytes
/// of every test thread writing at the same time: one workload at a time.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn run(workload: &str, seed: u64, trace: bool) -> Report {
    run_sized(workload, seed, trace, &Sizes::tiny())
}

fn run_sized(workload: &str, seed: u64, trace: bool, sizes: &Sizes) -> Report {
    let _alone = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let dir = scratch(&format!("{workload}-{seed}-{}", trace as u8));
    let ctx = Ctx {
        seed,
        seconds: 0.0, // the minimum number of rounds
        trace,
        dir: &dir,
        sizes,
    };
    let report = benchmark::run(workload, &ctx).expect("workload runs");
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// End-to-end metrics each workload must measure (the README's table).
fn expected_end_to_end(workload: &str) -> Vec<&'static str> {
    let mut names = vec![
        "setup_s",
        "ops_per_s",
        "point_p50_ns",
        "point_p99_ns", // measured everywhere, though not gated
        "miss_p50_ns",
        "range_p50_ns",
        "batch_point_p50_ns",
        "write_p50_ns",
    ];
    names.extend(match workload {
        "filter_small" | "filter_large" => vec!["fpr", "bits_per_key"],
        "store_read" => vec!["scan_p50_ns", "flush_p50_ns"],
        "store_mixed" => {
            let mut v = vec!["flush_p50_ns", "space_amp", "open_s", "lost_acked_frac"];
            if cfg!(target_os = "linux") {
                v.push("write_amp");
            }
            v
        }
        other => panic!("{other}"),
    });
    names
}

/// Parse a result line and check its shape against the contract.
fn check_line(report: &Report, expected: &[(&str, &str)]) {
    let line = report.result_line();
    assert!(!line.contains('\n'));
    let doc = json::parse(&line).expect("result line is JSON");
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
    assert_eq!(metrics.len(), expected.len(), "{}", report.workload);
    for (name, unit) in expected {
        // A name appears exactly once: the object has as many keys as the
        // table has names, and the line spells each key once.
        assert_eq!(line.matches(&format!("\"{name}\":")).count(), 1, "{name}");
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        let metric = &metrics[*name];
        assert_eq!(metric.as_obj().unwrap().len(), 2);
        assert!(
            metric.get("value").unwrap().as_f64().unwrap().is_finite(),
            "{name}"
        );
        assert_eq!(metric.get("unit").unwrap().as_str(), Some(*unit), "{name}");
    }
}

#[test]
fn every_workload_reports_every_metric_and_fails_no_op() {
    let mut layer_seen: BTreeSet<&str> = BTreeSet::new();
    let mut e2e_seen: BTreeSet<&str> = BTreeSet::new();
    for workload in &WORKLOADS {
        let plain = run(workload.name, 7, false);
        assert_eq!(plain.failed, 0, "{}: {:?}", workload.name, plain.notes);
        let gated: Vec<(&str, &str)> = END_TO_END
            .iter()
            .filter(|m| m.gated)
            .map(|m| (m.name, m.unit))
            .collect();
        check_line(&plain, &gated);
        let mut measured: Vec<&str> = plain.e2e.keys().copied().collect();
        let mut expected = expected_end_to_end(workload.name);
        measured.sort_unstable();
        expected.sort_unstable();
        assert_eq!(measured, expected, "{}", workload.name);
        assert!(
            plain.e2e.values().all(|v| v.is_finite() && *v > 0.0),
            "end-to-end metrics are never 0"
        );
        e2e_seen.extend(plain.e2e.keys());
        for m in &END_TO_END {
            assert_eq!(
                plain.table().matches(&format!("\n{} ", m.name)).count(),
                1,
                "{}",
                m.name
            );
        }

        let traced = run(workload.name, 7, true);
        assert_eq!(traced.failed, 0, "{}: {:?}", workload.name, traced.notes);
        let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        check_line(&traced, &layers);
        assert_eq!(
            traced.stream_hash, plain.stream_hash,
            "tracing does not change the inputs"
        );
        assert_eq!(traced.layer["bench.ops_failed"], 0.0);
        assert!(traced.layer["bench.ops_attempted"] > 0.0);
        assert!(traced.layer["bench.timer_ns"] > 0.0);
        assert!(traced.layer.contains_key("bench.trace_overhead_frac"));
        layer_seen.extend(traced.layer.keys());
        // The run-set line carries everything measured, for `compare`.
        let set = benchmark::compare::parse_run_set(&plain.run_set_line()).unwrap();
        assert_eq!(set.values.len(), plain.e2e.len());
    }
    // A p99.99 with ten samples beyond it needs 100k puts in a round; the
    // toy stream has 13k, so that one metric stays unset here by the rule.
    layer_seen.insert("lsm.db.put_p9999_ns");
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|n| !layer_seen.contains(n))
        .collect();
    // Off Linux `/proc/self/io` is absent and the counters it feeds stay unset.
    if cfg!(target_os = "linux") {
        assert!(missing.is_empty(), "no workload measures {missing:?}");
    }
    let unmeasured: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .filter(|n| !e2e_seen.contains(n))
        .collect();
    assert!(
        unmeasured.is_empty() || !cfg!(target_os = "linux"),
        "no workload measures {unmeasured:?}"
    );
}

#[test]
fn the_seed_decides_the_inputs() {
    // Rounds too short for a p99, which this test does not read.
    let sizes = Sizes {
        filter_groups: 8,
        read_calls: 16,
        mixed_ops: 6_000,
        ..Sizes::tiny()
    };
    for workload in &WORKLOADS {
        let a = run_sized(workload.name, 21, false, &sizes);
        let b = run_sized(workload.name, 21, false, &sizes);
        let c = run_sized(workload.name, 22, false, &sizes);
        assert_eq!(a.stream_hash, b.stream_hash, "{}", workload.name);
        assert_ne!(a.stream_hash, c.stream_hash, "{}", workload.name);
        // Counts are exact per seed.
        for exact in [
            "fpr",
            "bits_per_key",
            "write_amp",
            "space_amp",
            "lost_acked_frac",
        ] {
            assert_eq!(
                a.e2e.get(exact),
                b.e2e.get(exact),
                "{} {exact}",
                workload.name
            );
        }
    }
}

#[test]
fn store_layers_replay_what_the_db_returns() {
    // On `store_read` the replayed child spans plus the self time reproduce
    // the `Db` span by construction: self = parent - children, per op.
    let traced = run("store_read", 3, true);
    let (hit, own, share) = (
        traced.layer["lsm.db.get_hit_ns"],
        traced.layer["lsm.db.get_self_ns"],
        traced.layer["lsm.db.get_children_share"],
    );
    assert!(hit > 0.0 && share > 0.0 && own < hit);
    assert!(traced.layer["lsm.tree.probes_per_hit"] >= 1.0);
    assert_eq!(traced.layer["lsm.sst.blocks_read_per_hit"], 1.0);
    // `store_mixed`: what the kill loses is exactly the memtable residue.
    let mixed = run("store_mixed", 3, false);
    let note = |key: &str| {
        mixed
            .notes
            .iter()
            .find(|(k, _)| k == key)
            .unwrap()
            .1
            .clone()
    };
    assert_eq!(note("lost_keys"), note("memtable_residue"));
    assert!(
        mixed.e2e["lost_acked_frac"] > 0.0,
        "the unlogged memtable loses acknowledged writes"
    );
}
