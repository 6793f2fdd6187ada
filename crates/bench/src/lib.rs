//! The benchmark harness that regenerates every table of the paper.
//!
//! Each `cargo bench` target prints one table of §4 (or one of the
//! paper-described internal experiments), with the model's measurements
//! next to the paper's published values:
//!
//! | bench target | regenerates |
//! |---|---|
//! | `table1` | Table 1 — static code sizes (PLM vs SPUR vs KCM) |
//! | `table2` | Table 2 — execution time vs the PLM |
//! | `table3` | Table 3 — execution time vs Quintus 2.0 / SUN3-280 |
//! | `table4` | Table 4 — peak Klips of dedicated Prolog machines |
//! | `cache_collision` | §3.2.4's direct-mapped stack-collision experiment |
//! | `ablations` | §5's "influence of each specialized unit" study |
//! | `scaling` | working-set scaling beyond the paper's fixed-size suite |
//! | `factscale` | wide fact-base scaling, 10³–10⁶ facts (hash switch dispatch) |
//! | `micro` | micro-benchmarks of the simulator itself |
//!
//! Every table driver additionally appends machine-readable JSONL to
//! `target/bench-json/BENCH_<name>.jsonl` (see [`jsonl`] for the schema
//! and the `KCM_BENCH_JSON` switch); `cargo run -p bench --bin
//! validate_jsonl` checks the emitted files.

#![warn(missing_docs)]

pub mod jsonl;

pub use jsonl::{JsonlWriter, Record};

use kcm_suite::programs::BenchProgram;
use kcm_suite::runner::{run_program, Measurement, Variant};
use kcm_system::{KcmEngine, QueryOpts, SessionPool};

/// All measurements needed for the time tables, for one program.
#[derive(Debug, Clone)]
pub struct ProgramTimes {
    /// The program.
    pub program: BenchProgram,
    /// KCM, Table 2 driver.
    pub kcm_timed: Measurement,
    /// KCM, Table 3 (I/O-free) driver.
    pub kcm_starred: Measurement,
    /// PLM model, Table 2 driver.
    pub plm_ms: f64,
    /// PLM model inference count.
    pub plm_inferences: u64,
    /// Software-WAM (Quintus-class) model, Table 3 driver.
    pub swam_ms: f64,
}

/// Runs one suite program on every machine model.
///
/// # Panics
///
/// Panics if any model fails to run the program — the suite is expected
/// to be runnable everywhere (that is the point of the comparison).
pub fn measure_program(p: &BenchProgram) -> ProgramTimes {
    let engine = KcmEngine::new();
    let kcm_timed = run_program(&engine, p, Variant::Timed).expect("kcm timed run");
    let kcm_starred = run_program(&engine, p, Variant::Starred).expect("kcm starred run");
    let opts = QueryOpts {
        enumerate_all: p.enumerate,
        ..QueryOpts::default()
    };
    let plm = plm::model().run(p.source, p.query, &opts).expect("plm run");
    let swam = swam::model()
        .run(p.source, p.starred_query, &opts)
        .expect("swam run");
    ProgramTimes {
        program: *p,
        kcm_timed,
        kcm_starred,
        plm_ms: plm.stats.ms(),
        plm_inferences: plm.stats.inferences,
        swam_ms: swam.stats.ms(),
    }
}

/// The session pool every table driver fans out on. Worker count comes
/// from `KCM_WORKERS` when set (pin to `1` for a serial reference run),
/// otherwise the host's available parallelism. Table output is identical
/// either way: the pool returns results in program order.
pub fn pool() -> SessionPool {
    SessionPool::from_env()
}

/// Runs the whole suite through [`measure_program`] on a session pool,
/// one worker session per program, preserving program order.
///
/// # Panics
///
/// Same conditions as [`measure_program`].
pub fn measure_suite(programs: &[BenchProgram], pool: &SessionPool) -> Vec<ProgramTimes> {
    pool.map(programs, measure_program)
}

/// Prints a paper-style header for a regenerated table.
pub fn banner(title: &str, note: &str) {
    println!("==========================================================================");
    println!("{title}");
    println!("{note}");
    println!("==========================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_one_program() {
        let p = kcm_suite::programs::program("con1").unwrap();
        let t = measure_program(&p);
        assert!(t.kcm_timed.outcome.success);
        assert!(t.plm_ms > t.kcm_timed.ms(), "PLM must be slower");
        assert!(
            t.swam_ms > t.kcm_starred.ms(),
            "software WAM must be slower"
        );
    }
}
