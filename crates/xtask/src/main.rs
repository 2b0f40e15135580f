//! Repo automation tasks:
//!
//! ```text
//! cargo run -p xtask -- lint        [--root PATH]
//! cargo run -p xtask -- bench-check [--root PATH] [--new SNAPSHOT.json]
//! ```
//!
//! `bench-check` (see `bench_check` module docs) validates the committed
//! `BENCH_*.json` perf snapshots against their schemas and, given `--new`,
//! gates a freshly generated snapshot against the committed baseline.
//!
//! `lint` is an offline, line-based source lint enforcing the concurrency
//! conventions documented in `docs/concurrency.md`:
//!
//! - **raw-lock** — all lock construction goes through the `bloomrf::sync`
//!   facade; `std::sync::{Mutex, RwLock}` and `parking_lot` may not appear in
//!   library sources outside `crates/core/src/sync.rs`. This is what keeps
//!   the loom-model cfg (`--cfg bloomrf_loom`) able to instrument every lock
//!   and the lock-rank checker able to see every acquisition.
//! - **unjustified-relaxed** — every `Ordering::Relaxed` site carries an
//!   `// ordering:` justification comment (same line or within the five
//!   preceding lines).
//! - **recovery-unwrap** — no `.unwrap()` / `.expect(` in the crash-recovery
//!   paths (`crates/lsm/src/persist.rs`, `crates/lsm/src/io.rs`,
//!   `crates/lsm/src/tree.rs`, which builds the router from recovered
//!   tables at open, `crates/lsm/src/sst.rs`, whose block parser reads
//!   blocks that came from file bytes, and `crates/core/src/filter.rs`,
//!   whose `BLRF` decoder reads every SST filter block): corrupted input
//!   must surface as typed errors, never panics.
//!
//! Code after a `#[cfg(test)]` marker is exempt (repo convention keeps unit
//! tests at the bottom of each file). The lint is intentionally regex-free
//! and dependency-free so it runs in the offline build environment.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod bench_check;

/// Relative paths (forward-slash) exempt from the raw-lock rule: the facade
/// itself is where the raw primitives are allowed to live.
const RAW_LOCK_ALLOWLIST: &[&str] = &["crates/core/src/sync.rs"];

/// Files where `.unwrap()` / `.expect(` are forbidden outside tests.
const RECOVERY_PATHS: &[&str] = &[
    "crates/lsm/src/persist.rs",
    "crates/lsm/src/io.rs",
    "crates/lsm/src/tree.rs",
    "crates/lsm/src/sst.rs",
    "crates/core/src/filter.rs",
];

/// How many preceding lines may carry the `// ordering:` justification.
const ORDERING_COMMENT_WINDOW: usize = 5;

#[derive(Debug, PartialEq, Eq)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The part of a line the compiler sees (strip a trailing `//` comment).
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

fn lint_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    let raw_lock_applies = !RAW_LOCK_ALLOWLIST.contains(&rel_path);
    let recovery_applies = RECOVERY_PATHS.contains(&rel_path);
    let lines: Vec<&str> = source.lines().collect();

    for (idx, raw_line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if raw_line.trim_start().starts_with("#[cfg(test)]") {
            // Unit tests (bottom-of-file by convention) are exempt from all
            // rules: they may use raw locks and ad-hoc unwraps freely.
            break;
        }
        let code = code_part(raw_line);

        if raw_lock_applies {
            let raw_std_lock =
                code.contains("std::sync::") && (code.contains("Mutex") || code.contains("RwLock"));
            if code.contains("parking_lot::") || raw_std_lock {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: lineno,
                    rule: "raw-lock",
                    message: "lock primitives must come from the `bloomrf::sync` facade \
                              (std::sync/parking_lot locks are invisible to the model \
                              checker and the lock-rank checker)"
                        .to_string(),
                });
            }
        }

        if code.contains("Ordering::Relaxed") {
            let window_start = idx.saturating_sub(ORDERING_COMMENT_WINDOW);
            let justified = lines[window_start..=idx]
                .iter()
                .any(|l| l.contains("ordering:"));
            if !justified {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: lineno,
                    rule: "unjustified-relaxed",
                    message: "Ordering::Relaxed needs an `// ordering:` justification \
                              comment on the same line or within the 5 lines above"
                        .to_string(),
                });
            }
        }

        if recovery_applies && (code.contains(".unwrap()") || code.contains(".expect(")) {
            violations.push(Violation {
                file: rel_path.to_string(),
                line: lineno,
                rule: "recovery-unwrap",
                message: "recovery paths must return typed errors, not panic \
                          (corrupted on-disk state reaches this code)"
                    .to_string(),
            });
        }
    }
    violations
}

/// All `.rs` files the lint covers: library/binary sources and examples, but
/// not integration tests, vendor shims, or xtask itself.
fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut roots: Vec<PathBuf> = vec![root.join("src"), root.join("examples")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() && path.file_name().is_some_and(|n| n != "xtask") {
                roots.push(path.join("src"));
            }
        }
    }
    let mut files = Vec::new();
    for dir in roots {
        walk(&dir, &mut files);
    }
    files.sort();
    files
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn run_lint(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for file in collect_files(root) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(&file) {
            Ok(source) => violations.extend(lint_source(&rel, &source)),
            Err(err) => violations.push(Violation {
                file: rel,
                line: 0,
                rule: "io",
                message: format!("failed to read file: {err}"),
            }),
        }
    }
    violations
}

fn repo_root() -> PathBuf {
    // crates/xtask -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels below the repo root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = repo_root();
    let mut command = None;
    let mut new_snapshot: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => match iter.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--new" => match iter.next() {
                Some(p) => new_snapshot = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--new requires a snapshot path");
                    return ExitCode::FAILURE;
                }
            },
            other if command.is_none() => command = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    match command.as_deref() {
        Some("lint") => {
            let violations = run_lint(&root);
            if violations.is_empty() {
                println!("xtask lint: clean ({} rules)", 3);
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    eprintln!("{v}");
                }
                eprintln!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        Some("bench-check") => match bench_check::run(&root, new_snapshot.as_deref()) {
            Ok(()) => {
                println!(
                    "xtask bench-check: ok{}",
                    if new_snapshot.is_some() {
                        " (schemas valid, no timing cell regressed > 25%)"
                    } else {
                        " (committed snapshot schemas valid)"
                    }
                );
                ExitCode::SUCCESS
            }
            Err(issues) => {
                for issue in &issues {
                    eprintln!("{issue}");
                }
                eprintln!("xtask bench-check: {} issue(s)", issues.len());
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <lint | bench-check> \
                 [--root PATH] [--new SNAPSHOT.json]"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_raw_std_lock_construction() {
        let src = "use std::sync::RwLock;\nstruct S { inner: RwLock<u32> }\n";
        let v = lint_source("crates/lsm/src/db.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "raw-lock");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn flags_parking_lot_usage() {
        let src = "fn f() { let m = parking_lot::Mutex::new(0); }\n";
        let v = lint_source("crates/lsm/src/io.rs", src);
        assert!(v.iter().any(|v| v.rule == "raw-lock"), "{v:?}");
    }

    #[test]
    fn facade_is_allowed_to_use_raw_locks() {
        let src = "pub use std::sync::Mutex;\n";
        let v = lint_source("crates/core/src/sync.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn flags_unjustified_relaxed() {
        let src = "fn f(x: &AtomicU64) { x.load(Ordering::Relaxed); }\n";
        let v = lint_source("crates/core/src/bitarray.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "unjustified-relaxed");
    }

    #[test]
    fn accepts_justified_relaxed_same_line_and_window() {
        let src = "\
fn f(x: &AtomicU64) {
    x.load(Ordering::Relaxed); // ordering: monotonic counter, no ordering needed
    // ordering: plain gauge read
    let _ = x.load(Ordering::Relaxed);
}
";
        let v = lint_source("crates/core/src/bitarray.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn justification_window_is_bounded() {
        let mut src = String::from("// ordering: too far away\n");
        for _ in 0..ORDERING_COMMENT_WINDOW + 1 {
            src.push_str("fn padding() {}\n");
        }
        src.push_str("fn f(x: &AtomicU64) { x.load(Ordering::Relaxed); }\n");
        let v = lint_source("crates/core/src/bitarray.rs", &src);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn flags_unwrap_in_recovery_paths_only() {
        let src = "fn f() { foo().unwrap(); bar().expect(\"x\"); }\n";
        let v = lint_source("crates/lsm/src/persist.rs", src);
        assert_eq!(v.len(), 1, "one violation per line: {v:?}");
        assert_eq!(v[0].rule, "recovery-unwrap");
        assert!(lint_source("crates/lsm/src/db.rs", src).is_empty());
    }

    #[test]
    fn flags_unwrap_in_the_tree_decoder() {
        let src = "fn make_leaf(b: &[u8]) { BloomRf::from_bytes(b).unwrap(); }\n";
        let v = lint_source("crates/lsm/src/tree.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "recovery-unwrap");
    }

    #[test]
    fn flags_unwrap_in_the_sst_block_parser() {
        let src = "fn next(b: &[u8]) -> u64 { u64::from_le_bytes(b[0..8].try_into().unwrap()) }\n\
                   fn count(b: &[u8]) -> u32 { u32::from_le_bytes(b[..4].try_into().expect(\"4\")) }\n";
        let v = lint_source("crates/lsm/src/sst.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "recovery-unwrap"), "{v:?}");
    }

    #[test]
    fn flags_unwrap_in_the_filter_decoder() {
        let src =
            "fn take_u32(b: &[u8]) -> u32 { u32::from_le_bytes(b[..4].try_into().unwrap()) }\n";
        let v = lint_source("crates/core/src/filter.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "recovery-unwrap");
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
fn good() {}
#[cfg(test)]
mod tests {
    use std::sync::Mutex;
    fn t(x: &AtomicU64) { x.load(Ordering::Relaxed); foo().unwrap(); }
}
";
        assert!(lint_source("crates/lsm/src/persist.rs", src).is_empty());
    }

    #[test]
    fn comments_do_not_trigger_rules() {
        let src = "// std::sync::Mutex is forbidden here, parking_lot:: too\n// and .unwrap() in prose is fine\n";
        assert!(lint_source("crates/lsm/src/persist.rs", src).is_empty());
    }

    #[test]
    fn repo_tree_is_clean() {
        let violations = run_lint(&repo_root());
        assert!(
            violations.is_empty(),
            "repo lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
