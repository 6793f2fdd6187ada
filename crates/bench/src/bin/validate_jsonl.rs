//! Validates emitted bench JSONL files against the schema of
//! [`bench::jsonl`].
//!
//! ```text
//! cargo run -p bench --bin validate_jsonl [FILE...]
//! ```
//!
//! With no arguments, validates every `BENCH_*.jsonl` under the output
//! directory (`target/bench-json`, or `KCM_BENCH_JSON` when set). Exits
//! non-zero if any line fails, if a named file is unreadable, or if there
//! is nothing to validate at all — so CI catches a driver that silently
//! stopped emitting.

use bench::jsonl::{validate_line, Json};
use std::path::PathBuf;

/// Bench-specific shape checks on top of the generic record schema, so a
/// driver that stops emitting a number an acceptance claim is made of
/// fails here instead of validating while quietly losing it:
///
/// * `factscale` rows carry the cold-start comparison, the hot and
///   end-to-end lookup percentiles per tier, the write times per size,
///   and both O(1) scaling ratios;
/// * `hostperf` rows of a tier (per program, and the serial totals)
///   carry the run-only `host_ms` next to the end-to-end `e2e_ms`.
fn check_shape(v: &Json) -> Result<(), String> {
    let bench = v.get("bench").and_then(Json::as_str).unwrap_or("");
    let label = v.get("label").and_then(Json::as_str).unwrap_or("");
    let summary = v.get("kind").and_then(Json::as_str) == Some("summary");
    let tier = v.get("tier").is_some();
    let required: &[&str] = match (bench, label, summary) {
        ("factscale", "coldstart", true) => &["facts_max", "load_host_ms_at_max"],
        ("factscale", l, false) if l.starts_with("coldstart") => &[
            "facts",
            "consult_host_ms",
            "snapshot_save_host_ms",
            "snapshot_bytes",
            "snapshot_load_host_ms",
            "load_speedup",
            "first_query_host_ms",
            "chunks_decoded",
            "chunks_total",
        ],
        ("factscale", "native-p50-scaling", true) => {
            &["p50_ratio_max_vs_min", "e2e_p50_ratio_max_vs_min"]
        }
        ("factscale", _, false) if tier => &[
            "lookup_p50_us",
            "lookup_p99_us",
            "e2e_p50_us",
            "e2e_p99_us",
            "e2e_first_ms",
        ],
        ("factscale", l, false) if l.starts_with("n=") => {
            &["facts", "consult_host_ms", "assert_us", "retract_us"]
        }
        ("hostperf", _, _) if tier => &["host_ms", "e2e_ms"],
        _ => &[],
    };
    for key in required {
        match v.get(key) {
            Some(Json::Num(_)) => {}
            Some(_) => return Err(format!("{bench} {label}: `{key}` is not a number")),
            None => return Err(format!("{bench} {label}: record missing `{key}`")),
        }
    }
    Ok(())
}

fn default_files() -> Vec<PathBuf> {
    let Some(dir) = bench::jsonl::output_dir() else {
        return Vec::new();
    };
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".jsonl"))
        })
        .collect();
    files.sort();
    files
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let files: Vec<PathBuf> = if args.is_empty() {
        default_files()
    } else {
        args.into_iter().map(PathBuf::from).collect()
    };
    if files.is_empty() {
        eprintln!("validate_jsonl: no BENCH_*.jsonl files found");
        std::process::exit(1);
    }
    let mut failures = 0usize;
    let mut records = 0usize;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: unreadable: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        let mut file_records = 0usize;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match validate_line(line).and_then(|v| check_shape(&v).map(|()| v)) {
                Ok(_) => file_records += 1,
                Err(e) => {
                    eprintln!("{}:{}: {e}", path.display(), lineno + 1);
                    failures += 1;
                }
            }
        }
        if file_records == 0 {
            eprintln!("{}: no records", path.display());
            failures += 1;
        }
        records += file_records;
        println!("{}: {file_records} records ok", path.display());
    }
    println!("validated {records} records in {} files", files.len());
    if failures > 0 {
        eprintln!("validate_jsonl: {failures} failures");
        std::process::exit(1);
    }
}
