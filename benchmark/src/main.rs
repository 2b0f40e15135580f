//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints every metric by name with its unit; the last
//! line of stdout is the result object. `benchmark compare BASE CHANGE…`
//! judges run sets; `benchmark manifest` prints `BENCHMARK.json`.

use benchmark::{compare, default_dir, metrics, Ctx, Sizes};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <filter_small|filter_large|store_read|store_mixed> --seed <n>
            --seconds <s> --trace <0|1> [--dir <scratch dir>] [--append <run-set file>]
  benchmark compare <base run set> <change run set>...
  benchmark manifest";

fn run_workload(args: &[String]) -> Result<bool, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, 1u64, f64::from(metrics::RUN_SECONDS), false);
    let (mut dir, mut append): (PathBuf, Option<PathBuf>) = (default_dir(), None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--dir" => dir = PathBuf::from(value),
            "--append" => append = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    let sizes = Sizes::full();
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        dir: &dir,
        sizes: &sizes,
    };
    let report = benchmark::run(&workload, &ctx)?;
    if let Some(path) = append {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(file, "{}", report.run_set_line())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn run_compare(files: &[String]) -> Result<bool, String> {
    if files.len() < 2 {
        return Err(format!(
            "compare needs a base and at least one change\n{USAGE}"
        ));
    }
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        compare::parse_run_set(&text).map_err(|e| format!("{path}: {e}"))
    };
    let base = load(&files[0])?;
    let mut all_ok = true;
    for path in &files[1..] {
        let change = load(path)?;
        println!(
            "== {} ({} runs) vs {} ({} runs)",
            files[0], base.runs, path, change.runs
        );
        let (text, ok) = compare::compare(&base, &change);
        print!("{text}");
        all_ok &= ok;
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        _ => run_workload(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A wrong answer (or a comparison that is not all `ok`) fails the command.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
