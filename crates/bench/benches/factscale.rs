//! `factscale` — wide fact-base scaling study (10³ → 10⁶ facts).
//!
//! The paper's suite tops out at a few dozen clauses per predicate; this
//! driver measures the regime the link-time hash switch index and the
//! compiler's depth-2 fact indexing were built for: one flat predicate
//! `fact(Key, Value)` with `n` integer-keyed clauses, at `n` = 10³, 10⁴,
//! 10⁵ and 10⁶. Three metrics per size, the middle one per execution
//! tier:
//!
//! * **consult** — host ms to parse + compile + link the whole fact base
//!   (the switch tables and their hash side tables are built here);
//! * **point lookup** — host-time p50/p99 of `fact(k, V)` over a spread
//!   of existing keys. Query compilation happens outside the timed
//!   window ([`Kcm::prepare`] on the tier, once per key),
//!   and the machine runs one untimed warm-up before the timed reps so
//!   first-touch population of its memory zones — a host allocator
//!   artifact proportional to nothing we measure — stays out of the
//!   percentiles. With the hash index the lookup is O(1) in `n` on the
//!   native tier — the acceptance gate is p50 at 10⁶ within 2× of p50
//!   at 10³. Next to these hot-machine rows, the **end-to-end** rows
//!   time the whole `Kcm::query("fact(k, V)")` call over the same keys
//!   — parse, query compile and link, machine build, run and decode,
//!   everything a caller waits for — plus the very first such call on
//!   the tier on its own, so work deferred into a first query still
//!   shows. A query is linked as an overlay on the shared program image
//!   and the native tier dispatches through the image's shared table, so
//!   the end-to-end lookup is O(1) in `n` too (same 2× gate). The cycle
//!   tier stays O(n) in *host* time even with the
//!   hash index: a switch instruction's key table is part of the
//!   instruction's code words, and the timed tier's instruction fetch
//!   walks every word through the simulated code cache (a fidelity
//!   cost of the timing model, deliberately untouched — the simulated
//!   counters it produces are the byte-identity contract);
//! * **enumeration** — host throughput of the failure-driven loop
//!   `fact(K, V), fail`, which visits every clause once.
//!
//! Knobs:
//!
//! * `KCM_FACTSCALE_SIZES=1000,10000` — comma-separated fact counts (CI
//!   smoke runs 10³/10⁴; default is the full 10³..10⁶ sweep).
//! * `KCM_FACTSCALE_REPS=5` — repetitions per measurement; the minimum
//!   is reported (default 3).
//!
//! A fourth **cold start** section measures the snapshot path: for each
//! size, the consulted image is saved with [`Kcm::snapshot`] and
//! restored into a fresh [`Kcm`] from the bytes — the programmatic
//! stand-in for a fresh process mapping a snapshot file instead of
//! re-consulting source. The restored machine answers a point lookup on
//! both tiers and its solutions are checked against the consulted
//! original, so the speedup number is only reported for a load that is
//! provably equivalent. Acceptance: at 10⁶ facts the snapshot load
//! stays under 100 ms where the consult takes seconds.
//!
//! The restored image also answers one end-to-end native lookup before
//! anything else touches it: its time and how many of the image's lazy
//! decode chunks it decoded are reported, because a first query must not
//! undo the lazy restore.
//!
//! JSONL schema (`BENCH_factscale.jsonl`): one `row` per size with
//! `facts` and `consult_host_ms`, then one `row` per (size, tier) with
//! `tier` (`"cycle"` / `"native"`), `facts`, `lookup_p50_us`,
//! `lookup_p99_us`, `e2e_p50_us`, `e2e_p99_us`, `e2e_first_ms`,
//! `enum_host_ms` and `enum_kfacts_per_s`; one `coldstart/n=<n>` row per
//! size with `facts`, `consult_host_ms`, `snapshot_save_host_ms`,
//! `snapshot_bytes`, `snapshot_load_host_ms`, `load_speedup`,
//! `first_query_host_ms`, `chunks_decoded` and `chunks_total`; one final
//! `summary` with the native p50 ratios between the largest and smallest
//! sizes (`p50_ratio_max_vs_min` for the hot machine and
//! `e2e_p50_ratio_max_vs_min` end to end, the O(1) acceptance numbers)
//! and one `coldstart` summary with the largest-size load time
//! (`load_host_ms_at_max`).

use bench::{JsonlWriter, Record};
use kcm_suite::table::{f2, f3, ratio, Table};
use kcm_system::{Kcm, ProgramSource, QueryOpts, Tier};
use std::time::Instant;

/// How many distinct keys the point-lookup percentiles are taken over.
const LOOKUP_KEYS: usize = 64;

fn sizes() -> Vec<usize> {
    match std::env::var("KCM_FACTSCALE_SIZES") {
        Ok(list) if !list.trim().is_empty() => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("KCM_FACTSCALE_SIZES: bad size {s:?}"))
            })
            .collect(),
        _ => vec![1_000, 10_000, 100_000, 1_000_000],
    }
}

fn reps() -> u32 {
    std::env::var("KCM_FACTSCALE_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(3)
}

/// The synthetic fact base: `fact(i, 3i + 1).` for `i` in `0..n` —
/// unique integer first keys, so the consult builds one `n`-entry
/// constant switch table (hash-indexed at link time).
fn fact_base(n: usize) -> String {
    use std::fmt::Write;
    let mut src = String::with_capacity(n * 24);
    for i in 0..n {
        let _ = writeln!(src, "fact({i}, {}).", 3 * i + 1);
    }
    src
}

/// The keys the lookup percentiles sample: `LOOKUP_KEYS` existing keys
/// spread evenly over `0..n`.
fn lookup_keys(n: usize) -> Vec<usize> {
    (0..LOOKUP_KEYS).map(|j| (j * n) / LOOKUP_KEYS).collect()
}

/// Times one query run on `tier`, compile excluded: the machine is
/// prepared once, runs one untimed warm-up (populating its memory zones
/// — first-touch page faults are a property of the host allocator, not
/// of dispatch), then `reps` timed runs on the same machine. Returns the
/// minimum host seconds and whether the query succeeded.
fn time_query(kcm: &Kcm, query: &str, tier: Tier, reps: u32) -> (f64, bool) {
    let mut prepared = kcm
        .prepare(query, &QueryOpts::first().with_tier(tier))
        .expect("query compiles");
    let mut success = prepared.run(false).expect("query runs").success;
    let mut best_s = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        success = prepared.run(false).expect("query runs").success;
        best_s = best_s.min(t0.elapsed().as_secs_f64());
    }
    (best_s, success)
}

fn tier_name(tier: Tier) -> &'static str {
    match tier {
        Tier::Cycle => "cycle",
        Tier::Native => "native",
    }
}

/// p50 and p99 of per-key samples.
fn percentiles(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let p50 = samples[samples.len() / 2];
    let p99 = samples[(samples.len() - 1) * 99 / 100];
    (p50, p99)
}

/// Point-lookup percentiles on one tier: per key, the min over `reps`
/// timed runs; p50/p99 across the key samples, in microseconds.
fn lookup_percentiles(kcm: &Kcm, n: usize, tier: Tier, reps: u32) -> (f64, f64) {
    percentiles(
        lookup_keys(n)
            .iter()
            .map(|k| {
                let query = format!("fact({k}, V)");
                let (s, ok) = time_query(kcm, &query, tier, reps);
                assert!(ok, "fact({k}, V) must succeed at n={n}");
                s * 1e6
            })
            .collect(),
    )
}

/// One end-to-end point lookup: host seconds from the `Kcm::query` call
/// to its answer (parse, query compile and link, machine build, run).
fn time_e2e(kcm: &Kcm, key: usize, tier: Tier) -> f64 {
    let query = format!("fact({key}, V)");
    let t0 = Instant::now();
    let outcome = kcm
        .query(&query, &QueryOpts::first().with_tier(tier))
        .expect("lookup runs");
    let s = t0.elapsed().as_secs_f64();
    assert!(outcome.success, "{query} must succeed");
    s
}

/// End-to-end point-lookup figures on one tier, over the same keys as
/// the hot rows: the very first call on the tier (ms, before any other
/// lookup on it), then per key the min over `reps` calls, p50/p99 across
/// keys (µs).
fn e2e_percentiles(kcm: &Kcm, n: usize, tier: Tier, reps: u32) -> (f64, f64, f64) {
    let keys = lookup_keys(n);
    let first_ms = time_e2e(kcm, keys[0], tier) * 1e3;
    let (p50, p99) = percentiles(
        keys.iter()
            .map(|&k| {
                let best = (0..reps)
                    .map(|_| time_e2e(kcm, k, tier))
                    .fold(f64::INFINITY, f64::min);
                best * 1e6
            })
            .collect(),
    );
    (p50, p99, first_ms)
}

fn main() {
    bench::banner(
        "factscale: wide fact-base scaling (consult, point lookup, enumeration)",
        "host wall-clock, not simulated time",
    );
    let reps = reps();
    let mut t = Table::new(vec![
        "Facts",
        "Tier",
        "Consult ms",
        "Lookup p50 us",
        "Lookup p99 us",
        "E2E p50 us",
        "E2E p99 us",
        "E2E first ms",
        "Enum ms",
        "Enum Kfacts/s",
    ]);
    let mut cold = Table::new(vec![
        "Facts",
        "Consult ms",
        "Save ms",
        "Load ms",
        "Snapshot MB",
        "Speedup",
        "1st query ms",
        "Chunks decoded",
    ]);
    let mut jsonl = JsonlWriter::for_bench("factscale");
    // (n, native hot p50, native end-to-end p50) per size, for the O(1)
    // acceptance summary.
    let mut native_p50s: Vec<(usize, f64, f64)> = Vec::new();
    // (n, snapshot load ms) per size, for the cold-start summary.
    let mut cold_loads: Vec<(usize, f64)> = Vec::new();
    for n in sizes() {
        let src = fact_base(n);
        let mut kcm = Kcm::new();
        let t0 = Instant::now();
        kcm.load(&src).expect("fact base consults");
        let consult_ms = t0.elapsed().as_secs_f64() * 1e3;
        jsonl.record(
            &Record::row("factscale", &format!("n={n}"))
                .u64("facts", n as u64)
                .f64("consult_host_ms", consult_ms),
        );
        for tier in [Tier::Cycle, Tier::Native] {
            let (e2e_p50, e2e_p99, e2e_first_ms) = e2e_percentiles(&kcm, n, tier, reps);
            let (p50, p99) = lookup_percentiles(&kcm, n, tier, reps);
            let (enum_s, enum_ok) = time_query(&kcm, "fact(K, V), fail", tier, reps);
            assert!(!enum_ok, "the failure-driven loop must exhaust the facts");
            let kfacts_per_s = ratio(n as f64 / 1e3, enum_s);
            if matches!(tier, Tier::Native) {
                native_p50s.push((n, p50, e2e_p50));
            }
            t.row(vec![
                n.to_string(),
                tier_name(tier).to_owned(),
                f2(consult_ms),
                f2(p50),
                f2(p99),
                f2(e2e_p50),
                f2(e2e_p99),
                f3(e2e_first_ms),
                f3(enum_s * 1e3),
                f2(kfacts_per_s),
            ]);
            jsonl.record(
                &Record::row("factscale", &format!("n={n}/{}", tier_name(tier)))
                    .str("tier", tier_name(tier))
                    .u64("facts", n as u64)
                    .f64("lookup_p50_us", p50)
                    .f64("lookup_p99_us", p99)
                    .f64("e2e_p50_us", e2e_p50)
                    .f64("e2e_p99_us", e2e_p99)
                    .f64("e2e_first_ms", e2e_first_ms)
                    .f64("enum_host_ms", enum_s * 1e3)
                    .f64("enum_kfacts_per_s", kfacts_per_s),
            );
        }
        // Cold start: save the consulted image, restore it into a fresh
        // Kcm from the bytes (the stand-in for a fresh process reading a
        // snapshot file instead of re-consulting source), and prove the
        // restored machine equivalent before reporting the speedup.
        let mut save_s = f64::INFINITY;
        let mut bytes = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            bytes = kcm.snapshot().expect("snapshot saves");
            save_s = save_s.min(t0.elapsed().as_secs_f64());
        }
        let mut load_s = f64::INFINITY;
        let mut restored = Kcm::new();
        for _ in 0..reps {
            let mut fresh = Kcm::new();
            let t0 = Instant::now();
            fresh
                .load(ProgramSource::Snapshot(&bytes))
                .expect("snapshot loads");
            load_s = load_s.min(t0.elapsed().as_secs_f64());
            restored = fresh;
        }
        // The restored image's first query, before anything else touches
        // it: lazy restore must survive it.
        let first_query_ms = time_e2e(&restored, n / 3, Tier::Native) * 1e3;
        let (chunks_decoded, chunks_total) =
            restored.image().expect("restored image").decoded_chunks();
        for probe in [0, n / 2, n - 1] {
            let query = format!("fact({probe}, V)");
            for tier in [Tier::Cycle, Tier::Native] {
                let (_, ok) = time_query(&restored, &query, tier, 1);
                assert!(
                    ok,
                    "restored lookup fact({probe}, V) on {}",
                    tier_name(tier)
                );
            }
            assert_eq!(
                restored.solve_all(&query).expect("restored query"),
                kcm.solve_all(&query).expect("consulted query"),
                "snapshot-restored solutions diverged at n={n}"
            );
        }
        let load_ms = load_s * 1e3;
        let speedup = ratio(consult_ms, load_ms);
        cold_loads.push((n, load_ms));
        cold.row(vec![
            n.to_string(),
            f2(consult_ms),
            f3(save_s * 1e3),
            f3(load_ms),
            f2(bytes.len() as f64 / 1e6),
            f2(speedup),
            f3(first_query_ms),
            format!("{chunks_decoded}/{chunks_total}"),
        ]);
        jsonl.record(
            &Record::row("factscale", &format!("coldstart/n={n}"))
                .u64("facts", n as u64)
                .f64("consult_host_ms", consult_ms)
                .f64("snapshot_save_host_ms", save_s * 1e3)
                .u64("snapshot_bytes", bytes.len() as u64)
                .f64("snapshot_load_host_ms", load_ms)
                .f64("load_speedup", speedup)
                .f64("first_query_host_ms", first_query_ms)
                .u64("chunks_decoded", chunks_decoded as u64)
                .u64("chunks_total", chunks_total as u64),
        );
    }
    println!("{}", t.render());
    println!("cold start: consult source vs load snapshot (equivalence-checked)");
    println!("{}", cold.render());
    if let (Some(&(n_min, p50_min, e2e_min)), Some(&(n_max, p50_max, e2e_max))) =
        (native_p50s.first(), native_p50s.last())
    {
        let r = ratio(p50_max, p50_min);
        let e2e_r = ratio(e2e_max, e2e_min);
        println!(
            "native point-lookup p50: {} us at n={n_min} vs {} us at n={n_max}  ({}x)",
            f2(p50_min),
            f2(p50_max),
            f2(r)
        );
        println!(
            "native end-to-end lookup p50: {} us at n={n_min} vs {} us at n={n_max}  ({}x)",
            f2(e2e_min),
            f2(e2e_max),
            f2(e2e_r)
        );
        println!("O(1) dispatch holds when both ratios stay within 2x.");
        jsonl.record(
            &Record::summary("factscale", "native-p50-scaling")
                .u64("facts_min", n_min as u64)
                .u64("facts_max", n_max as u64)
                .f64("p50_min_us", p50_min)
                .f64("p50_max_us", p50_max)
                .f64("p50_ratio_max_vs_min", r)
                .f64("e2e_p50_min_us", e2e_min)
                .f64("e2e_p50_max_us", e2e_max)
                .f64("e2e_p50_ratio_max_vs_min", e2e_r),
        );
    }
    if let Some(&(n_max, load_ms)) = cold_loads.last() {
        println!(
            "cold start at n={n_max}: snapshot load {} ms (acceptance: < 100 ms at 10^6)",
            f3(load_ms)
        );
        jsonl.record(
            &Record::summary("factscale", "coldstart")
                .u64("facts_max", n_max as u64)
                .f64("load_host_ms_at_max", load_ms),
        );
    }
    jsonl.announce();
}
