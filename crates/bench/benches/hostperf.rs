//! `hostperf` — host-throughput benchmark of the execution tiers.
//!
//! Unlike the table drivers (which report *simulated* milliseconds at the
//! KCM's 80 ns clock), this driver measures how fast each tier chews
//! through the suite in **host wall-clock** time: host ms per program,
//! simulated cycles per host second and simulated inferences per host
//! second (host Klips), serially and fanned out across the session pool
//! (`KCM_WORKERS`). The simulated numbers themselves are byte-identical
//! whatever the host speed — this table tracks the ROADMAP north star
//! ("runs as fast as the hardware allows"), not the paper.
//!
//! Each program is timed on **both tiers** under identical conditions:
//! the cycle-accurate simulator and the native execution tier (no cost
//! model), both built by [`Kcm::prepare`] with the tier option. Same decoded
//! image, same answers, same inference counts — the `Nat x` column is
//! therefore a pure measure of what the cycle/cache/MMU model costs per
//! retired instruction. JSONL rows carry a `tier` field (`"cycle"` /
//! `"native"`) so downstream tooling can separate the series.
//!
//! Each per-program row carries two host times, each the minimum over
//! the reps:
//!
//! * `host_ms` times the **query run only**: the program is consulted and
//!   the machine built outside the timed window (a fresh machine per
//!   rep, so the simulated numbers are those of a cold run). This tracks
//!   the hot loop.
//! * `e2e_ms` times [`Kcm::query`] **end to end**, from query text to
//!   answer: parse, compile and link the query, build the machine, run
//!   and decode. This is what a caller pays.
//!
//! The serial totals sum both. The pooled row times the whole suite end
//! to end (consult + prepare + run) across the session pool, on the
//! cycle tier.
//!
//! Knobs:
//!
//! * `KCM_HOSTPERF_PROGRAMS=nrev1,qs4` — run a comma-separated subset of
//!   the suite (CI smoke uses this; default is all 14 programs).
//! * `KCM_HOSTPERF_REPS=5` — repetitions per program; the *minimum* host
//!   time is reported (default 3 — the min of a deterministic workload is
//!   the least noisy robust estimator).

use bench::{JsonlWriter, Record};
use kcm_suite::programs::{self, BenchProgram};
use kcm_suite::runner::{run_suite_pooled, Variant};
use kcm_suite::table::{f2, f3, ratio, Table};
use kcm_system::{Kcm, MachineConfig, Outcome, QueryOpts, Tier};
use std::time::Instant;

fn selected_programs() -> Vec<BenchProgram> {
    match std::env::var("KCM_HOSTPERF_PROGRAMS") {
        Ok(list) if !list.trim().is_empty() => list
            .split(',')
            .map(|name| {
                let name = name.trim();
                programs::program(name)
                    .unwrap_or_else(|| panic!("KCM_HOSTPERF_PROGRAMS: unknown program {name:?}"))
            })
            .collect(),
        _ => programs::suite(),
    }
}

fn reps() -> u32 {
    std::env::var("KCM_HOSTPERF_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r > 0)
        .unwrap_or(3)
}

fn main() {
    let config = MachineConfig::default();
    bench::banner(
        "hostperf: simulator host throughput (full timed suite)",
        "host wall-clock, not simulated time",
    );
    let suite = selected_programs();
    let reps = reps();
    let mut t = Table::new(vec![
        "Program",
        "Inferences",
        "Sim ms",
        "Host ms",
        "E2E ms",
        "Sim/host",
        "Mcyc/host-s",
        "Host Klips",
        "Nat ms",
        "Nat E2E",
        "Nat x",
    ]);
    let mut jsonl = JsonlWriter::for_bench("hostperf");
    let mut serial_host_s = 0.0;
    let mut native_host_s = 0.0;
    let mut serial_e2e_s = 0.0;
    let mut native_e2e_s = 0.0;
    let mut total_cycles: u64 = 0;
    let mut total_inferences: u64 = 0;
    for p in &suite {
        let mut kcm = Kcm::with_config(config.clone());
        kcm.load(p.source).expect("suite program consults");
        // Per rep: a fresh machine with only the run timed, then the
        // whole `Kcm::query` timed (identical simulated numbers every
        // time). Returns the best run-only and end-to-end seconds.
        let best_run = |tier: Tier| {
            let opts = QueryOpts {
                enumerate_all: p.enumerate,
                ..QueryOpts::first()
            }
            .with_tier(tier);
            let (mut best_s, mut best_e2e_s) = (f64::INFINITY, f64::INFINITY);
            let mut outcome: Option<Outcome> = None;
            for _ in 0..reps {
                let mut prepared = kcm.prepare(p.query, &opts).expect("suite query compiles");
                let t0 = Instant::now();
                let o = prepared.run(p.enumerate).expect("suite program runs");
                best_s = best_s.min(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                let e2e = kcm.query(p.query, &opts).expect("suite program runs");
                best_e2e_s = best_e2e_s.min(t0.elapsed().as_secs_f64());
                assert_eq!(e2e.solutions, o.solutions, "{}: e2e run differs", p.name);
                outcome = Some(o);
            }
            (best_s, best_e2e_s, outcome.expect("at least one rep"))
        };
        let (best_s, e2e_s, outcome) = best_run(Tier::Cycle);
        let (best_native_s, native_e2e, native) = best_run(Tier::Native);
        // Not a difftest, but a broken tier must not publish numbers.
        assert_eq!(
            outcome.solutions, native.solutions,
            "{}: tiers disagree on solutions",
            p.name
        );
        assert_eq!(
            outcome.stats.inferences, native.stats.inferences,
            "{}: tiers disagree on inferences",
            p.name
        );
        let stats = &outcome.stats;
        serial_host_s += best_s;
        native_host_s += best_native_s;
        serial_e2e_s += e2e_s;
        native_e2e_s += native_e2e;
        total_cycles += stats.cycles;
        total_inferences += stats.inferences;
        let host_ms = best_s * 1e3;
        let native_ms = best_native_s * 1e3;
        let mcyc_per_s = ratio(stats.cycles as f64 / 1e6, best_s);
        let host_klips = ratio(stats.inferences as f64 / 1e3, best_s);
        let native_klips = ratio(stats.inferences as f64 / 1e3, best_native_s);
        let speedup = ratio(best_s, best_native_s);
        t.row(vec![
            p.name.to_owned(),
            stats.inferences.to_string(),
            f3(stats.ms()),
            f3(host_ms),
            f3(e2e_s * 1e3),
            f2(ratio(stats.ms(), host_ms)),
            f2(mcyc_per_s),
            f2(host_klips),
            f3(native_ms),
            f3(native_e2e * 1e3),
            f2(speedup),
        ]);
        jsonl.record(
            &Record::row("hostperf", p.name)
                .str("tier", "cycle")
                .u64("inferences", stats.inferences)
                .u64("sim_cycles", stats.cycles)
                .f64("sim_ms", stats.ms())
                .f64("host_ms", host_ms)
                .f64("e2e_ms", e2e_s * 1e3)
                .f64("sim_mcycles_per_host_s", mcyc_per_s)
                .f64("host_klips", host_klips),
        );
        jsonl.record(
            &Record::row("hostperf", p.name)
                .str("tier", "native")
                .u64("inferences", stats.inferences)
                .f64("host_ms", native_ms)
                .f64("e2e_ms", native_e2e * 1e3)
                .f64("host_klips", native_klips)
                .f64("speedup_vs_cycle", speedup),
        );
    }
    println!("{}", t.render());

    // The same suite, one session per program, fanned out on the pool.
    let pool = bench::pool();
    let t0 = Instant::now();
    let pooled = run_suite_pooled(&suite, Variant::Timed, &config, &pool);
    let pooled_s = t0.elapsed().as_secs_f64();
    for r in &pooled {
        r.as_ref().expect("suite program runs pooled");
    }
    let serial_mcyc_s = ratio(total_cycles as f64 / 1e6, serial_host_s);
    let pooled_mcyc_s = ratio(total_cycles as f64 / 1e6, pooled_s);
    println!(
        "serial: {} programs in {} host ms, {} ms end to end  ({} Msim-cycles/host-s, {} host Klips)",
        suite.len(),
        f2(serial_host_s * 1e3),
        f2(serial_e2e_s * 1e3),
        f2(serial_mcyc_s),
        f2(ratio(total_inferences as f64 / 1e3, serial_host_s)),
    );
    println!(
        "native: {} programs in {} host ms, {} ms end to end  ({} host Klips, {}x the cycle tier)",
        suite.len(),
        f2(native_host_s * 1e3),
        f2(native_e2e_s * 1e3),
        f2(ratio(total_inferences as f64 / 1e3, native_host_s)),
        f2(ratio(serial_host_s, native_host_s)),
    );
    println!(
        "pooled: {} workers in {} host ms  ({} Msim-cycles/host-s, {} host Klips)",
        pool.workers(),
        f2(pooled_s * 1e3),
        f2(pooled_mcyc_s),
        f2(ratio(total_inferences as f64 / 1e3, pooled_s)),
    );
    jsonl.record(
        &Record::summary("hostperf", "serial-total")
            .str("tier", "cycle")
            .u64("programs", suite.len() as u64)
            .u64("sim_cycles", total_cycles)
            .u64("inferences", total_inferences)
            .f64("host_ms", serial_host_s * 1e3)
            .f64("e2e_ms", serial_e2e_s * 1e3)
            .f64("sim_mcycles_per_host_s", serial_mcyc_s)
            .f64(
                "host_klips",
                ratio(total_inferences as f64 / 1e3, serial_host_s),
            ),
    );
    jsonl.record(
        &Record::summary("hostperf", "serial-total-native")
            .str("tier", "native")
            .u64("programs", suite.len() as u64)
            .u64("inferences", total_inferences)
            .f64("host_ms", native_host_s * 1e3)
            .f64("e2e_ms", native_e2e_s * 1e3)
            .f64(
                "host_klips",
                ratio(total_inferences as f64 / 1e3, native_host_s),
            )
            .f64("speedup_vs_cycle", ratio(serial_host_s, native_host_s)),
    );
    jsonl.record(
        &Record::summary("hostperf", "pooled")
            .u64("programs", suite.len() as u64)
            .u64("workers", pool.workers() as u64)
            .u64("sim_cycles", total_cycles)
            .u64("inferences", total_inferences)
            .f64("host_ms", pooled_s * 1e3)
            .f64("sim_mcycles_per_host_s", pooled_mcyc_s)
            .f64("host_klips", ratio(total_inferences as f64 / 1e3, pooled_s)),
    );
    jsonl.announce();
}
