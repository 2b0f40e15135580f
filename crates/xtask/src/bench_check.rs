//! `bench-check`: schema validation and regression gating for the committed
//! perf-trajectory snapshot (`BENCH_probe_kernel.json`).
//!
//! Two modes:
//!
//! * `cargo run -p xtask -- bench-check` — validate the schema of every
//!   committed snapshot at the repo root, and hold its probe sweep to the
//!   rule the probe paths are chosen by: no `path=batch` cell slower than
//!   its `path=loop` cell by more than [`BATCH_OVER_LOOP_LIMIT`].
//!   Deterministic; runs in CI next to the static-analysis lint.
//! * `cargo run -p xtask -- bench-check --new PATH` — additionally compare a
//!   freshly generated snapshot against the committed baseline of the same
//!   schema and fail if any point/range ns-per-lookup cell regressed by more
//!   than [`REGRESSION_LIMIT`] (rows skipped on either side are ignored, so
//!   QUICK snapshots compare cleanly against full baselines). Timing-
//!   dependent; CI runs it as an advisory job.
//!
//! The parser below is a minimal recursive-descent JSON reader covering the
//! subset the harness emits; xtask stays dependency-free by design.

use std::fmt;
use std::path::Path;

/// Maximum tolerated slowdown of a timing cell: new ≤ baseline × 1.25.
pub const REGRESSION_LIMIT: f64 = 1.25;

/// Maximum tolerated cost of the batch path over the per-query loop in one
/// committed `probe_rows` cell: batch ≤ loop × 1.10. A batch path that
/// loses by more is a dominated variant, not a measurement to keep.
pub const BATCH_OVER_LOOP_LIMIT: f64 = 1.10;

/// The schema bench-check understands, by its `"snapshot"` tag.
const SCHEMA: &str = "probe_kernel_v2";
/// The committed snapshot of that schema, at the repo root.
const COMMITTED: &str = "BENCH_probe_kernel.json";

/// One array of timing rows in a snapshot: its name, the tags identifying a
/// row (the row key), and the gated timing metrics.
type Section = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
);

/// The timing sections of [`SCHEMA`].
const SECTIONS: &[Section] = &[
    (
        "probe_rows",
        &["keys", "bits_per_key", "batch", "path", "mode"],
        &["ns_per_op"],
    ),
    ("layout_rows", &["layout", "path"], &["ns_per_op"]),
];

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse error with byte offset.
#[derive(Debug)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", expected as char))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            self.err(format!("expected '{literal}'"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        _ => return self.err("unsupported escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(
                        |_| ParseError {
                            offset: start,
                            message: "invalid utf-8 in string".into(),
                        },
                    )?);
                }
                None => return self.err("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or(ParseError {
                offset: start,
                message: "invalid number".into(),
            })
    }
}

/// Parse a complete JSON document (trailing whitespace allowed).
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing garbage after document");
    }
    Ok(value)
}

/// One problem found by bench-check.
#[derive(Debug)]
pub struct BenchIssue {
    pub file: String,
    pub message: String,
}

impl fmt::Display for BenchIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.file, self.message)
    }
}

fn issue(file: &str, message: impl Into<String>) -> BenchIssue {
    BenchIssue {
        file: file.to_string(),
        message: message.into(),
    }
}

/// A row's timing metric: `Some(ns)` when measured, `None` when skipped.
fn row_metric(row: &Json, key: &str) -> Option<f64> {
    if row.get("skipped").and_then(Json::as_bool) == Some(true) {
        return None;
    }
    row.get(key).and_then(Json::as_num)
}

/// Validate one row: `skipped` must be a bool; each metric in `metrics` must
/// be a number when not skipped and null when skipped; each field in `tags`
/// must be present.
fn check_row(
    file: &str,
    context: &str,
    row: &Json,
    tags: &[&str],
    metrics: &[&str],
    issues: &mut Vec<BenchIssue>,
) {
    let Some(skipped) = row.get("skipped").and_then(Json::as_bool) else {
        issues.push(issue(
            file,
            format!("{context}: missing boolean \"skipped\""),
        ));
        return;
    };
    for tag in tags {
        if row.get(tag).is_none() {
            issues.push(issue(file, format!("{context}: missing \"{tag}\"")));
        }
    }
    for metric in metrics {
        match (skipped, row.get(metric)) {
            (false, Some(Json::Num(_))) | (true, Some(Json::Null)) => {}
            (_, found) => issues.push(issue(
                file,
                format!(
                    "{context}: \"{metric}\" must be {} (found {found:?})",
                    if skipped {
                        "null in a skipped row"
                    } else {
                        "a number"
                    }
                ),
            )),
        }
    }
}

/// Schema tag of a parsed snapshot.
pub fn schema_of(doc: &Json) -> Option<&str> {
    doc.get("snapshot").and_then(Json::as_str)
}

/// Validate the structure of a snapshot document. Returns all problems.
pub fn validate(file: &str, doc: &Json) -> Vec<BenchIssue> {
    let mut issues = Vec::new();
    let Some(schema) = schema_of(doc) else {
        issues.push(issue(file, "missing string field \"snapshot\""));
        return issues;
    };
    if schema != SCHEMA {
        issues.push(issue(
            file,
            format!("unknown snapshot schema \"{schema}\" (known: \"{SCHEMA}\")"),
        ));
        return issues;
    }
    for (section, tags, metrics) in SECTIONS {
        match doc.get(section).and_then(Json::as_arr) {
            Some(rows) if !rows.is_empty() => {
                for (i, row) in rows.iter().enumerate() {
                    let context = format!("{section}[{i}]");
                    check_row(file, &context, row, tags, metrics, &mut issues);
                }
            }
            _ => issues.push(issue(file, format!("missing or empty array \"{section}\""))),
        }
    }
    if doc.get("headline").is_none() {
        issues.push(issue(file, "missing \"headline\""));
    }
    issues
}

/// Identity of a timing cell within a snapshot, e.g.
/// `probe_rows[keys=1000000,bits_per_key=16,batch=64,path=batch,mode=point]`.
fn row_key(section: &str, row: &Json, tags: &[&str]) -> String {
    let parts: Vec<String> = tags
        .iter()
        .map(|t| {
            let v = match row.get(t) {
                Some(Json::Str(s)) => s.clone(),
                Some(Json::Num(n)) => format!("{n}"),
                other => format!("{other:?}"),
            };
            format!("{t}={v}")
        })
        .collect();
    format!("{section}[{}]", parts.join(","))
}

/// Compare every timing cell present (and not skipped) in both snapshots;
/// report cells where `new > baseline * REGRESSION_LIMIT`.
pub fn compare(file: &str, baseline: &Json, new: &Json) -> Vec<BenchIssue> {
    let mut issues = Vec::new();
    if schema_of(baseline) != Some(SCHEMA) {
        return vec![issue(file, "cannot compare: unknown baseline schema")];
    }
    if schema_of(baseline) != schema_of(new) {
        return vec![issue(file, "cannot compare: schema mismatch")];
    }
    // Snapshots taken under different measurement protocols are not
    // comparable: the probe harness's QUICK mode (3 samples × 5k queries vs
    // 10 × 100k) reads systematically slower than the full protocol — by far
    // more than the regression limit — so gating across protocols would
    // produce permanent false alarms. Refuse instead of pretending.
    let quick_of = |doc: &Json| {
        doc.get("config")
            .and_then(|c| c.get("quick"))
            .and_then(Json::as_bool)
    };
    if let (Some(base_quick), Some(new_quick)) = (quick_of(baseline), quick_of(new)) {
        if base_quick != new_quick {
            return vec![issue(
                file,
                format!(
                    "cannot compare: measurement protocols differ \
                     (baseline quick={base_quick}, new quick={new_quick}); \
                     regenerate the new snapshot with the baseline's protocol"
                ),
            )];
        }
    }
    for (section, tags, metrics) in SECTIONS {
        let base_rows = baseline.get(section).and_then(Json::as_arr).unwrap_or(&[]);
        let new_rows = new.get(section).and_then(Json::as_arr).unwrap_or(&[]);
        for new_row in new_rows {
            let key = row_key(section, new_row, tags);
            let Some(base_row) = base_rows.iter().find(|r| row_key(section, r, tags) == key) else {
                issues.push(issue(file, format!("{key}: not present in baseline")));
                continue;
            };
            for metric in *metrics {
                let (Some(base), Some(new)) =
                    (row_metric(base_row, metric), row_metric(new_row, metric))
                else {
                    continue; // skipped on either side: nothing to gate
                };
                if new > base * REGRESSION_LIMIT && new - base > 1.0 {
                    issues.push(issue(
                        file,
                        format!(
                            "{key}: {metric} regressed {base:.1} -> {new:.1} ns \
                             ({:.0}% > {:.0}% limit)",
                            (new / base - 1.0) * 100.0,
                            (REGRESSION_LIMIT - 1.0) * 100.0,
                        ),
                    ));
                }
            }
        }
    }
    issues
}

/// For every `(keys, bits_per_key, batch, mode)` of `probe_rows` measured on
/// both paths, report the cells where `path=batch` is slower than
/// `path=loop` by more than [`BATCH_OVER_LOOP_LIMIT`].
pub fn check_batch_over_loop(file: &str, doc: &Json) -> Vec<BenchIssue> {
    let cell = ["keys", "bits_per_key", "batch", "mode"];
    let rows = doc.get("probe_rows").and_then(Json::as_arr).unwrap_or(&[]);
    let on = |row: &Json, path: &str| row.get("path").and_then(Json::as_str) == Some(path);
    let mut issues = Vec::new();
    for batch_row in rows.iter().filter(|row| on(row, "batch")) {
        let key = row_key("probe_rows", batch_row, &cell);
        let loop_row =
            (rows.iter()).find(|row| on(row, "loop") && row_key("probe_rows", row, &cell) == key);
        let (Some(batch), Some(looped)) = (
            row_metric(batch_row, "ns_per_op"),
            loop_row.and_then(|row| row_metric(row, "ns_per_op")),
        ) else {
            continue; // skipped or unpaired: nothing to hold
        };
        if batch > looped * BATCH_OVER_LOOP_LIMIT {
            issues.push(issue(
                file,
                format!(
                    "{key}: path=batch {batch:.1} ns is {:.2}x path=loop {looped:.1} ns \
                     (limit {BATCH_OVER_LOOP_LIMIT:.2}x)",
                    batch / looped,
                ),
            ));
        }
    }
    issues
}

/// Entry point for the `bench-check` subcommand.
pub fn run(root: &Path, new_snapshot: Option<&Path>) -> Result<(), Vec<BenchIssue>> {
    let mut issues = Vec::new();
    let mut baseline = None;
    match std::fs::read_to_string(root.join(COMMITTED)) {
        Ok(text) => match parse(&text) {
            Ok(doc) => {
                issues.extend(validate(COMMITTED, &doc));
                issues.extend(check_batch_over_loop(COMMITTED, &doc));
                baseline = Some(doc);
            }
            Err(e) => issues.push(issue(COMMITTED, e.to_string())),
        },
        Err(e) => issues.push(issue(
            COMMITTED,
            format!("committed snapshot unreadable at the repo root: {e}"),
        )),
    }
    if let Some(new_path) = new_snapshot {
        let display = new_path.display().to_string();
        match std::fs::read_to_string(new_path) {
            Ok(text) => match parse(&text) {
                Ok(doc) => {
                    issues.extend(validate(&display, &doc));
                    match &baseline {
                        Some(baseline) => issues.extend(compare(&display, baseline, &doc)),
                        None => issues.push(issue(&display, "no committed baseline to compare to")),
                    }
                }
                Err(e) => issues.push(issue(&display, e.to_string())),
            },
            Err(e) => issues.push(issue(&display, format!("read failed: {e}"))),
        }
    }
    if issues.is_empty() {
        Ok(())
    } else {
        Err(issues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_doc(ns: f64, skipped: bool) -> String {
        let (flag, metric) = if skipped {
            ("true", "null".to_string())
        } else {
            ("false", format!("{ns}"))
        };
        format!(
            r#"{{ "snapshot": "probe_kernel_v2",
                 "config": {{ "samples": 3 }},
                 "probe_rows": [ {{ "keys": 1000, "bits_per_key": 16, "batch": 64,
                                    "path": "batch", "mode": "point",
                                    "skipped": {flag}, "ns_per_op": {metric} }} ],
                 "layout_rows": [ {{ "layout": "forward", "path": "batch",
                                     "skipped": {flag}, "ns_per_op": {metric} }} ],
                 "headline": null }}"#
        )
    }

    #[test]
    fn parser_round_trips_the_emitted_subset() {
        let doc = parse(&probe_doc(42.5, false)).unwrap();
        assert_eq!(schema_of(&doc), Some("probe_kernel_v2"));
        let rows = doc.get("probe_rows").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("ns_per_op").unwrap().as_num(), Some(42.5));
        assert!(parse("{ \"a\": [1, 2.5e3, -4], \"b\": \"x\\ny\" }").is_ok());
        assert!(parse("{ unquoted }").is_err());
        assert!(parse("[1, 2] trailing").is_err());
    }

    #[test]
    fn validate_accepts_measured_and_skipped_rows() {
        for skipped in [false, true] {
            let doc = parse(&probe_doc(10.0, skipped)).unwrap();
            let issues = validate("t", &doc);
            assert!(issues.is_empty(), "{issues:?}");
        }
    }

    #[test]
    fn validate_rejects_wrong_shape() {
        let doc = parse(r#"{ "snapshot": "probe_kernel_v2" }"#).unwrap();
        assert!(!validate("t", &doc).is_empty());
        // The retired tier-keyed schema is no longer understood.
        let doc = parse(&probe_doc(1.0, false).replace("kernel_v2", "kernel_v1")).unwrap();
        assert!(validate("t", &doc)[0].message.contains("unknown"));
        let doc = parse(r#"{ "snapshot": "who_knows_v9", "rows": [] }"#).unwrap();
        assert!(validate("t", &doc)[0].message.contains("unknown"));
        // A measured row whose metric is null is malformed.
        let text = probe_doc(1.0, false).replace("\"ns_per_op\": 1", "\"ns_per_op\": null");
        let doc = parse(&text).unwrap();
        assert!(!validate("t", &doc).is_empty());
    }

    #[test]
    fn compare_gates_regressions_but_not_noise_or_skips() {
        let base = parse(&probe_doc(100.0, false)).unwrap();
        // 20% slower: inside the 25% limit.
        let ok = parse(&probe_doc(120.0, false)).unwrap();
        assert!(compare("t", &base, &ok).is_empty());
        // 30% slower: gated.
        let bad = parse(&probe_doc(130.0, false)).unwrap();
        let issues = compare("t", &base, &bad);
        assert_eq!(issues.len(), 2, "{issues:?}"); // probe + layout rows
        assert!(issues[0].message.contains("regressed"));
        // Skipped rows are never gated (QUICK vs full snapshots).
        let quick = parse(&probe_doc(0.0, true)).unwrap();
        assert!(compare("t", &base, &quick).is_empty());
    }

    #[test]
    fn cross_protocol_snapshots_are_refused() {
        let base = parse(
            &probe_doc(100.0, false).replace(r#""samples": 3"#, r#""samples": 10, "quick": false"#),
        )
        .unwrap();
        let quick = parse(
            &probe_doc(500.0, false).replace(r#""samples": 3"#, r#""samples": 3, "quick": true"#),
        )
        .unwrap();
        let issues = compare("t", &base, &quick);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].message.contains("protocols differ"));
    }

    /// A snapshot with one `(keys, bits_per_key, batch, mode)` cell on both
    /// paths, measured at `loop_ns` and `batch_ns`.
    fn paired_doc(loop_ns: f64, batch_ns: &str) -> String {
        let row = |path: &str, ns: &str| {
            format!(
                r#"{{ "keys": 4000000, "bits_per_key": 10, "batch": 64, "path": "{path}",
                     "mode": "range", "skipped": {}, "ns_per_op": {ns} }}"#,
                ns == "null"
            )
        };
        probe_doc(1.0, false).replace(
            r#""probe_rows": ["#,
            &format!(
                r#""probe_rows": [ {}, {},"#,
                row("loop", &loop_ns.to_string()),
                row("batch", batch_ns)
            ),
        )
    }

    #[test]
    fn a_batch_cell_may_not_lose_to_its_loop_cell() {
        // 104.0 against 78.0 ns: 1.33x, over the limit.
        let doc = parse(&paired_doc(78.0, "104.0")).unwrap();
        assert!(validate("t", &doc).is_empty());
        let issues = check_batch_over_loop("t", &doc);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].message.contains("mode=range"), "{issues:?}");
        // Within 10 %, faster, or skipped: nothing to report.
        for batch in ["85.0", "42.0", "null"] {
            let doc = parse(&paired_doc(78.0, batch)).unwrap();
            assert!(check_batch_over_loop("t", &doc).is_empty(), "{batch}");
        }
        // A batch row without its loop row is not paired.
        assert!(check_batch_over_loop("t", &parse(&probe_doc(9.0, false)).unwrap()).is_empty());
    }

    #[test]
    fn tiny_absolute_deltas_are_not_regressions() {
        // 0.5 ns -> 1.2 ns is a 140% relative change but within measurement
        // noise; the absolute floor (1 ns) keeps it out of the gate.
        let base = parse(&probe_doc(0.5, false)).unwrap();
        let new = parse(&probe_doc(1.2, false)).unwrap();
        assert!(compare("t", &base, &new).is_empty());
    }
}
