//! The metric and workload tables — the single source of truth that
//! `BENCHMARK.json`, the result line, `compare` and the tests all read.

use crate::json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "filter_small",
        why: "200k-key bloomRF (400 KB, inside L2): core does all the work with no memory stalls and lsm does none; the regime of every SST and tree-leaf filter",
    },
    Workload {
        name: "filter_large",
        why: "same filter and op classes at 16M keys (32 MB, 8x L2): every probe misses cache per layer, so memory-level parallelism (prefetch, batch phases) decides",
    },
    Workload {
        name: "store_read",
        why: "read-only Db over 2048 in-memory SSTs of 512 uniform keys: lsm.tree descent, lsm.sst decode and lsm.db glue do the work, core is ~6% of a hit (fan-in regime)",
    },
    Workload {
        name: "store_mixed",
        why: "200k-op put/overwrite/delete/get stream on a real directory with flush, compaction, kill and reopen: the write path; reads see <= 8 SSTs, so the tree is nearly bypassed",
    },
];

/// An end-to-end metric. `gated` metrics are defined on all four workloads
/// and listed in `BENCHMARK.json`, whose contract makes every run report
/// every listed metric; the others exist on some workloads only, keep their
/// bound for `compare`, and reach the traced run under their layer's name.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub gated: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    gated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        gated,
    }
}

/// Bounds follow the A/A spread measured on this shared 2-vCPU host (see the
/// README): 0.25 for every timing — within one quiet stretch p50s spread
/// 1-6 %, but the host's memory subsystem changes pace by 20-35 % between
/// stretches of tens of minutes — and 0.01 for the counts that are exact per
/// seed.
pub const END_TO_END: [EndToEnd; 16] = [
    e2e("setup_s", "s", Better::Lower, 0.25, true),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25, true),
    e2e("point_p50_ns", "ns", Better::Lower, 0.25, true),
    e2e("miss_p50_ns", "ns", Better::Lower, 0.25, true),
    e2e("range_p50_ns", "ns", Better::Lower, 0.25, true),
    e2e("batch_point_p50_ns", "ns/key", Better::Lower, 0.25, true),
    e2e("write_p50_ns", "ns", Better::Lower, 0.25, true),
    // Not gated although every workload measures it: on the filter workloads
    // the p99 of a 256-call group mean is the host's scheduling jitter (a
    // 3-13 us gap every ~130 us), and its A/A spread there is 29 %.
    e2e("point_p99_ns", "ns", Better::Lower, 0.25, false),
    e2e("scan_p50_ns", "ns/call", Better::Lower, 0.25, false),
    e2e("flush_p50_ns", "ns", Better::Lower, 0.25, false),
    e2e("fpr", "ratio", Better::Lower, 0.01, false),
    e2e("bits_per_key", "bits", Better::Lower, 0.01, false),
    e2e("write_amp", "ratio", Better::Lower, 0.01, false),
    e2e("space_amp", "ratio", Better::Lower, 0.01, false),
    e2e("open_s", "s", Better::Lower, 0.25, false),
    e2e("lost_acked_frac", "ratio", Better::Lower, 0.01, false),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric of the traced run; no bound. A workload that does not
/// exercise the layer reports 0 (no work done, no time busy).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // core — measured on `filter_*`.
    lo("core.point_hit_ns", "ns"),
    lo("core.point_hit_p99_ns", "ns"),
    lo("core.point_miss_ns", "ns"),
    lo("core.range_empty_w4_ns", "ns"),
    lo("core.range_empty_w10_ns", "ns"),
    lo("core.range_empty_w16_ns", "ns"),
    lo("core.range_nonempty_ns", "ns"),
    lo("core.range_nearmiss_ns", "ns"),
    lo("core.batch_point_hit_ns", "ns/key"),
    lo("core.batch_point_miss_ns", "ns/key"),
    lo("core.batch_point_b16_ns", "ns/key"),
    lo("core.batch_point_b256_ns", "ns/key"),
    lo("core.batch_range_ns", "ns/range"),
    lo("core.insert_ns", "ns"),
    lo("core.insert_batch_ns", "ns/key"),
    lo("core.to_bytes_ns_per_kib", "ns/KiB"),
    lo("core.from_bytes_ns_per_kib", "ns/KiB"),
    lo("core.range_word_accesses", "count"),
    lo("core.range_layers_visited", "count"),
    lo("core.fpr", "ratio"),
    lo("core.fpr_point", "ratio"),
    lo("core.fpr_range_w4", "ratio"),
    lo("core.fpr_range_w10", "ratio"),
    lo("core.fpr_range_w16", "ratio"),
    lo("core.fpr_range_nearmiss", "ratio"),
    lo("core.load_factor_max", "ratio"),
    lo("core.bits_per_key", "bits"),
    // lsm.memtable
    lo("lsm.memtable.put_ns", "ns"),
    lo("lsm.memtable.get_ns", "ns"),
    lo("lsm.memtable.first_in_range_ns", "ns"),
    lo("lsm.memtable.snapshot_sorted_ns_per_entry", "ns/entry"),
    // lsm.tree
    lo("lsm.tree.candidates_point_hit_ns", "ns"),
    lo("lsm.tree.candidates_point_miss_ns", "ns"),
    lo("lsm.tree.candidates_range_empty_ns", "ns"),
    lo("lsm.tree.candidates_points_b64_ns", "ns/key"),
    lo("lsm.tree.push_leaf_ns", "ns"),
    lo("lsm.tree.to_bytes_ns_per_kib", "ns/KiB"),
    lo("lsm.tree.bytes", "bytes"),
    lo("lsm.tree.probes_per_hit", "count"),
    lo("lsm.tree.candidates_per_hit", "count"),
    lo("lsm.tree.candidates_per_miss", "count"),
    lo("lsm.tree.bits_per_key", "bits"),
    // lsm.sst
    lo("lsm.sst.get_hit_ns", "ns"),
    lo("lsm.sst.get_filtered_ns", "ns"),
    lo("lsm.sst.get_many_b64_ns", "ns/key"),
    lo("lsm.sst.scan_ns_per_row", "ns/row"),
    lo("lsm.sst.range_non_empty_ns", "ns"),
    lo("lsm.sst.build_ns_per_entry", "ns/entry"),
    lo("lsm.sst.to_bytes_ns_per_entry", "ns/entry"),
    lo("lsm.sst.from_bytes_ns_per_entry", "ns/entry"),
    lo("lsm.sst.blocks_read_per_hit", "count"),
    lo("lsm.sst.filter_fpr", "ratio"),
    // lsm.db
    lo("lsm.db.get_hit_ns", "ns"),
    lo("lsm.db.get_hit_p99_ns", "ns"),
    lo("lsm.db.get_miss_ns", "ns"),
    lo("lsm.db.get_self_ns", "ns"),
    lo("lsm.db.get_children_share", "ratio"),
    lo("lsm.db.get_batch_b64_ns", "ns/key"),
    lo("lsm.db.get_batch_self_ns", "ns/key"),
    lo("lsm.db.range_empty_ns", "ns"),
    lo("lsm.db.range_nonempty_ns", "ns"),
    lo("lsm.db.range_batch_b64_ns", "ns/range"),
    lo("lsm.db.scan_p50_ns", "ns/call"),
    lo("lsm.db.scan_ns_per_row", "ns/row"),
    lo("lsm.db.put_ns", "ns"),
    lo("lsm.db.put_p9999_ns", "ns"),
    lo("lsm.db.put_max_ms", "ms"),
    lo("lsm.db.delete_ns", "ns"),
    lo("lsm.db.flush_ms", "ms"),
    lo("lsm.db.flush_self_ms", "ms"),
    lo("lsm.db.flushes", "count"),
    lo("lsm.db.compactions", "count"),
    lo("lsm.db.compact_busy_s", "s"),
    lo("lsm.db.compact_max_s", "s"),
    lo("lsm.db.compact_ns_per_entry", "ns/entry"),
    lo("lsm.db.full_compact_s", "s"),
    lo("lsm.db.open_first_s", "s"),
    lo("lsm.db.open_s", "s"),
    lo("lsm.db.ssts_final", "count"),
    lo("lsm.db.lost_acked_frac", "ratio"),
    lo("lsm.db.filter_probes_per_lookup", "count"),
    lo("lsm.db.ssts_probed_per_lookup", "count"),
    lo("lsm.db.blocks_read_per_lookup", "count"),
    lo("lsm.db.false_positives_per_miss", "count"),
    // lsm.io / lsm.persist — `store_mixed` only.
    lo("lsm.io.bytes_written", "bytes"),
    lo("lsm.io.write_syscalls", "count"),
    lo("lsm.io.bytes_read_open", "bytes"),
    lo("lsm.io.write_ns_per_mib", "ns/MiB"),
    lo("lsm.io.dir_files", "count"),
    lo("lsm.io.dir_bytes", "bytes"),
    lo("lsm.io.tree_file_bytes", "bytes"),
    lo("lsm.io.write_amp", "ratio"),
    lo("lsm.io.write_amp_q1", "ratio"),
    lo("lsm.io.write_amp_q2", "ratio"),
    lo("lsm.io.write_amp_q3", "ratio"),
    lo("lsm.io.write_amp_q4", "ratio"),
    lo("lsm.io.space_amp", "ratio"),
    // harness — these qualify the other numbers.
    lo("bench.trace_overhead_frac", "ratio"),
    lo("bench.timer_ns", "ns"),
    hi("bench.ops_attempted", "count"),
    lo("bench.ops_failed", "count"),
];

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// The text of `BENCHMARK.json`, generated so the file cannot drift from the
/// tables above (a test compares them byte for byte).
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str("    {\"name\": ");
        json::write_str(&mut out, w.name);
        out.push_str(", \"why\": ");
        json::write_str(&mut out, w.why);
        out.push_str(if i + 1 < WORKLOADS.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let gated: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.gated).collect();
    for (i, m) in gated.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            if i + 1 < gated.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// What one run measured.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted and failed (wrong value, false negative,
    /// scan/batch differing from the oracle, replay differing from the `Db`).
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics defined on this workload, by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics this workload exercises (traced run), by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Fingerprint of the generated inputs: equal seeds give equal hashes.
    pub stream_hash: u64,
    /// Sample counts and other facts that qualify the numbers.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Self {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            stream_hash: 0,
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            end_to_end(name).is_some(),
            "unknown end-to-end metric {name}"
        );
        assert!(value.is_finite(), "{name} is not finite");
        self.e2e.insert(name, value);
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        assert!(per_layer(name).is_some(), "unknown per-layer metric {name}");
        assert!(value.is_finite(), "{name} is not finite");
        self.layer.insert(name, value);
    }

    pub fn set_layer_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set_layer(name, v);
        }
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics of the result line: every gated end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one.
    pub fn line_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        if self.traced {
            PER_LAYER
                .iter()
                .map(|m| {
                    (
                        m.name,
                        self.layer.get(m.name).copied().unwrap_or(0.0),
                        m.unit,
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.gated)
                .map(|m| {
                    let value = *self
                        .e2e
                        .get(m.name)
                        .unwrap_or_else(|| panic!("{} did not measure {}", self.workload, m.name));
                    (m.name, value, m.unit)
                })
                .collect()
        }
    }

    /// The one-line JSON object the driver reads from the last line of stdout.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.line_metrics().into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, name);
            out.push_str(": {\"value\": ");
            json::write_num(&mut out, value);
            out.push_str(", \"unit\": ");
            json::write_str(&mut out, unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// One line for a run-set file read by `compare`: the workload, seed and
    /// *every* metric this run measured (ungated end-to-end ones included).
    pub fn run_set_line(&self) -> String {
        let mut out = String::from("{\"workload\": ");
        json::write_str(&mut out, self.workload);
        out.push_str(&format!(
            ", \"seed\": {}, \"traced\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.seed, self.traced, self.attempted, self.failed
        ));
        let all = self.e2e.iter().chain(self.layer.iter());
        for (i, (name, value)) in all.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, name);
            out.push_str(": ");
            json::write_num(&mut out, *value);
        }
        out.push_str("}}");
        out
    }

    /// Human-readable table: every metric by name with its unit; `-` marks
    /// an end-to-end metric that is not defined on this workload.
    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  trace {}\n",
            self.workload, self.seed, self.traced as u8
        );
        out.push_str("-- end to end --\n");
        for m in &END_TO_END {
            match self.e2e.get(m.name) {
                Some(v) => out.push_str(&format!("{:<28} {:>18.6} {}\n", m.name, v, m.unit)),
                None => out.push_str(&format!("{:<28} {:>18} {}\n", m.name, "-", m.unit)),
            }
        }
        if self.traced {
            out.push_str("-- per layer (0 = layer not exercised by this workload) --\n");
            for m in PER_LAYER {
                let v = self.layer.get(m.name).copied().unwrap_or(0.0);
                out.push_str(&format!("{:<44} {:>18.6} {}\n", m.name, v, m.unit));
            }
        }
        out.push_str("-- notes --\n");
        out.push_str(&format!("{:<28} {}\n", "ops_attempted", self.attempted));
        out.push_str(&format!("{:<28} {}\n", "ops_failed", self.failed));
        out.push_str(&format!(
            "{:<28} {:016x}\n",
            "stream_hash", self.stream_hash
        ));
        for (k, v) in &self.notes {
            out.push_str(&format!("{k:<28} {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.name.contains('.'), "per-layer names are <module>.<what>");
        }
        assert!(PER_LAYER.len() <= 128);
        let gated: Vec<_> = END_TO_END.iter().filter(|m| m.gated).collect();
        assert!((1..=16).contains(&gated.len()));
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.gated && setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            gated.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `benchmark manifest`"
        );
        let doc = json::parse(&on_disk).unwrap();
        assert_eq!(doc.as_obj().unwrap().len(), 6);
        assert!(on_disk.len() <= 64 * 1024);
    }
}
