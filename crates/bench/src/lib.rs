//! Shared infrastructure for the experiment binaries that regenerate every
//! table and figure of the bloomRF evaluation (the index is the README's
//! "Benchmarks and figure reproduction" section).
//!
//! Every binary in `src/bin/` follows the same conventions:
//!
//! * deterministic workloads (fixed seeds) at a laptop-friendly default scale;
//! * `SCALE=<float>` environment variable multiplies the key/query counts
//!   (e.g. `SCALE=10 cargo run --release --bin fig10_space_budgets`);
//! * `QUICK=1` shrinks the run further for smoke testing;
//! * results are printed as aligned tables on stdout *and* written as CSV into
//!   `results/<experiment>.csv`;
//! * experiments that feed a committed perf-trajectory snapshot (currently
//!   `fig_probe_kernel` → `BENCH_probe_kernel.json`) additionally emit a versioned
//!   JSON document; the schema lives in the emitting binary's module docs.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use bloomrf::traits::PointRangeFilter;
use bloomrf_workloads::RangeQuery;
pub use criterion::SampleStats;

/// Scaling knobs shared by every experiment binary.
#[derive(Clone, Copy, Debug)]
pub struct ExpScale {
    /// Multiplier applied to the default key and query counts.
    pub scale: f64,
    /// Smoke-test mode: a small fraction of the default scale.
    pub quick: bool,
}

impl ExpScale {
    /// Read `SCALE` and `QUICK` from the environment.
    pub fn from_env() -> Self {
        let scale = std::env::var("SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        let quick = std::env::var("QUICK").map(|v| v != "0").unwrap_or(false)
            || std::env::args().any(|a| a == "--quick");
        Self { scale, quick }
    }

    /// Scale a default count.
    pub fn keys(&self, default: usize) -> usize {
        let factor = if self.quick { 0.05 } else { self.scale };
        ((default as f64 * factor) as usize).max(1_000)
    }

    /// Scale a default query count.
    pub fn queries(&self, default: usize) -> usize {
        let factor = if self.quick { 0.05 } else { self.scale };
        ((default as f64 * factor) as usize).max(200)
    }
}

/// Accumulates rows and writes them to stdout and `results/<name>.csv`.
pub struct Report {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Start a report with the given experiment name and column names.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Convenience for building a row from display values.
    pub fn push<D: std::fmt::Display>(&mut self, cells: &[D]) {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// Render the table, print it and persist the CSV. Returns the CSV path.
    pub fn finish(&self) -> PathBuf {
        // Pretty-print.
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.name);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        println!("{out}");

        // CSV.
        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{}.csv", self.name));
        let mut csv = self.header.join(",") + "\n";
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let _ = fs::write(&path, csv);
        println!("[written] {}", path.display());
        path
    }
}

/// Directory where experiment CSVs are collected.
pub fn results_dir() -> PathBuf {
    std::env::var("RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Measure the false-positive rate of a filter over a set of *empty* range
/// queries (every positive answer is false by construction).
pub fn range_fpr(filter: &dyn PointRangeFilter, queries: &[RangeQuery]) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    let fp = queries
        .iter()
        .filter(|q| filter.may_contain_range(q.lo, q.hi))
        .count();
    fp as f64 / queries.len() as f64
}

/// Measure the false-positive rate over empty point queries.
pub fn point_fpr(filter: &dyn PointRangeFilter, probes: &[u64]) -> f64 {
    if probes.is_empty() {
        return 0.0;
    }
    let fp = probes.iter().filter(|&&p| filter.may_contain(p)).count();
    fp as f64 / probes.len() as f64
}

/// Time a closure and return (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Millions of operations per second for `ops` operations taking `seconds`.
pub fn mops(ops: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        ops as f64 / seconds / 1.0e6
    }
}

/// Format a float with a sensible number of significant digits for tables.
pub fn sig(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else if value.abs() >= 0.01 {
        format!("{value:.4}")
    } else {
        format!("{value:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Always(bool);
    impl PointRangeFilter for Always {
        fn name(&self) -> &'static str {
            "always"
        }
        fn may_contain(&self, _key: u64) -> bool {
            self.0
        }
        fn may_contain_range(&self, _lo: u64, _hi: u64) -> bool {
            self.0
        }
        fn memory_bits(&self) -> usize {
            0
        }
    }

    #[test]
    fn fpr_helpers() {
        let queries = vec![RangeQuery { lo: 0, hi: 1 }, RangeQuery { lo: 5, hi: 9 }];
        assert_eq!(range_fpr(&Always(true), &queries), 1.0);
        assert_eq!(range_fpr(&Always(false), &queries), 0.0);
        assert_eq!(range_fpr(&Always(true), &[]), 0.0);
        assert_eq!(point_fpr(&Always(true), &[1, 2, 3]), 1.0);
        assert_eq!(point_fpr(&Always(false), &[1, 2, 3]), 0.0);
        assert_eq!(point_fpr(&Always(false), &[]), 0.0);
    }

    #[test]
    fn scale_parsing_and_report() {
        let scale = ExpScale {
            scale: 1.0,
            quick: false,
        };
        assert_eq!(scale.keys(100_000), 100_000);
        let quick = ExpScale {
            scale: 1.0,
            quick: true,
        };
        assert!(quick.keys(100_000) < 100_000);
        assert!(quick.queries(10_000) >= 200);

        std::env::set_var(
            "RESULTS_DIR",
            std::env::temp_dir().join("bloomrf_test_results"),
        );
        let mut report = Report::new("unit_test_report", &["a", "b"]);
        report.push(&[1, 2]);
        report.row(&["x".into(), "y".into()]);
        let path = report.finish();
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("1,2"));
        assert!(content.contains("x,y"));
        std::env::remove_var("RESULTS_DIR");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(sig(0.0), "0");
        assert_eq!(sig(123.456), "123.5");
        assert_eq!(sig(0.0456), "0.0456");
        assert!(sig(0.00001).contains('e'));
        assert!(mops(1_000_000, 1.0) - 1.0 < 1e-9);
        assert_eq!(mops(10, 0.0), 0.0);
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
