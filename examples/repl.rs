//! An interactive top level — the "user-friendly Prolog environment" the
//! KCM/host pairing provides (§1), in miniature.
//!
//! ```text
//! cargo run --example repl
//! ?- consult user clauses with [clause. clause. …], query with goals.
//! ```
//!
//! Commands:
//!
//! * `[ <clauses> ]` — consult clauses, e.g. `[p(1). p(2).]`
//! * `<goal>.` — solve; `;`-style enumeration prints every solution
//! * `statistics.` — machine statistics of the last query (SICStus-style)
//! * `profile.` — execution profile of the last query (instruction
//!   classes, MWAC dispatch, backtracks, trail, deref chains)
//! * `:stats` — toggle per-query machine statistics
//! * `:listing` — disassemble the loaded image
//! * `:halt` — leave
//!
//! A goal that runs longer than [`STEP_BUDGET`] instructions is stopped
//! with a step-budget error, so a looping goal returns to the prompt.

use kcm_repro::kcm_system::{report, Kcm, Outcome, QueryOpts};
use std::io::{BufRead, Write as _};

/// Instructions one goal may retire before it is stopped.
const STEP_BUDGET: u64 = 100_000_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut kcm = Kcm::new();
    kcm.consult_prelude()?;
    let mut show_stats = false;
    let mut last: Option<Outcome> = None;
    println!("KCM reproduction top level (prelude loaded). :halt to quit.");
    let stdin = std::io::stdin();
    loop {
        print!("?- ");
        std::io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim();
        match line {
            "" => continue,
            ":halt" | "halt." => break,
            ":stats" => {
                show_stats = !show_stats;
                println!("statistics {}", if show_stats { "on" } else { "off" });
                continue;
            }
            "statistics." => {
                match &last {
                    Some(o) => println!("{}", report::summary(&o.stats)),
                    None => println!("no query has run yet."),
                }
                continue;
            }
            "profile." => {
                match &last {
                    Some(o) => println!("{}", report::profile_summary(&o.profile)),
                    None => println!("no query has run yet."),
                }
                continue;
            }
            ":listing" => {
                match kcm.disassemble() {
                    Ok(text) => println!("{text}"),
                    Err(e) => println!("error: {e}"),
                }
                continue;
            }
            _ => {}
        }
        if line.starts_with('[') && line.ends_with(']') {
            let src = &line[1..line.len() - 1];
            match kcm.load(src) {
                Ok(()) => {
                    for w in kcm.warnings() {
                        println!("warning: {w}");
                    }
                    println!("consulted.");
                }
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        let goal = line.strip_suffix('.').unwrap_or(line);
        match kcm.query(goal, &QueryOpts::all().with_step_budget(STEP_BUDGET)) {
            Ok(outcome) => {
                if !outcome.output.is_empty() {
                    print!("{}", outcome.output);
                }
                if outcome.solutions.is_empty() {
                    println!("{}", if outcome.success { "true." } else { "false." });
                } else {
                    for s in &outcome.solutions {
                        let line = s
                            .iter()
                            .map(|(n, t)| format!("{n} = {t}"))
                            .collect::<Vec<_>>()
                            .join(", ");
                        println!(
                            "{};",
                            if line.is_empty() {
                                "true".to_owned()
                            } else {
                                line
                            }
                        );
                    }
                    println!("false.");
                }
                if show_stats {
                    println!("{}", report::summary(&outcome.stats));
                }
                last = Some(outcome);
            }
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}
