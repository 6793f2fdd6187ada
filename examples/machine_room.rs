//! A tour of the machine room: compile a benchmark, disassemble its KCM
//! code, run it on KCM and on both baseline machine models, and compare
//! the architecture-level counters — the experiment workflow the paper's
//! evaluation section is made of.
//!
//! ```text
//! cargo run --example machine_room [program]
//! ```
//!
//! `program` is a PLM-suite name (default: `nrev1`).

use kcm_repro::kcm_suite::runner::{run_program, Variant};
use kcm_repro::kcm_suite::{program, programs};
use kcm_repro::kcm_system::{Kcm, KcmEngine, MachineConfig, QueryOpts};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "nrev1".to_owned());
    let Some(bench) = program(&name) else {
        eprintln!(
            "unknown program {name}; pick one of: {}",
            programs::suite()
                .iter()
                .map(|p| p.name)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(1);
    };

    // --- the compiled artifact -------------------------------------
    let mut kcm = Kcm::new();
    kcm.load(bench.source)?;
    let image = kcm.image().expect("consulted");
    let (static_base, static_words) = image.static_data();
    println!("=== {} ===", bench.name);
    println!(
        "code: {} words; static data: {} words at {static_base}",
        image.len_words(),
        static_words.len()
    );
    println!("\n--- disassembly (first 40 lines) ---");
    for line in kcm.disassemble()?.lines().take(40) {
        println!("{line}");
    }

    // --- run on all three machines ----------------------------------
    let opts = QueryOpts {
        enumerate_all: bench.enumerate,
        ..QueryOpts::default()
    };
    let k = run_program(&KcmEngine::new(), &bench, Variant::Starred)?;
    let p = plm::model().run(bench.source, bench.starred_query, &opts)?;
    let s = swam::model().run(bench.source, bench.starred_query, &opts)?;

    println!("\n--- three machines, one program ---");
    println!(
        "{:<28} {:>12} {:>10} {:>8} {:>8}",
        "machine", "cycles", "ms", "Klips", "CPs"
    );
    for (label, stats) in [
        ("KCM (80 ns, shallow bt)", k.outcome.stats),
        ("PLM model (100 ns, eager)", p.stats),
        ("Quintus-class (68020)", s.stats),
    ] {
        println!(
            "{label:<28} {:>12} {:>10.3} {:>8.0} {:>8}",
            stats.cycles,
            stats.ms(),
            stats.klips(),
            stats.choice_points
        );
    }
    println!(
        "\nKCM avoided {} of the choice points the standard WAM created\n\
         (shallow entries: {}, shallow fails resolved without a choice point: {})",
        p.stats
            .choice_points
            .saturating_sub(k.outcome.stats.choice_points),
        k.outcome.stats.shallow_entries,
        k.outcome.stats.shallow_fails,
    );

    // --- the Prolog-level monitor: where do the cycles go? ----------
    let mut kcm2 = Kcm::with_config(MachineConfig {
        profile: true,
        ..Default::default()
    });
    kcm2.load(bench.source)?;
    let mut prepared = kcm2.prepare(bench.starred_query, &QueryOpts::first())?;
    let outcome = prepared.run(bench.enumerate)?;
    println!("\n--- cycle profile (Prolog-level monitor) ---");
    for (pred, cycles) in prepared.profile().into_iter().take(8) {
        println!(
            "{pred:<24} {cycles:>10} cycles  ({:.1} %)",
            100.0 * cycles as f64 / outcome.stats.cycles as f64
        );
    }
    Ok(())
}
