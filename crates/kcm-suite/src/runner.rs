//! Compiling and running suite programs on any [`Engine`], serially or
//! fanned out across a [`SessionPool`].

use crate::programs::BenchProgram;
use kcm_system::{Engine, KcmEngine, KcmError, MachineConfig, Outcome, QueryOpts, SessionPool};

/// Which driver of a program to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The Table 2 driver (`main`, I/O as unit clauses).
    Timed,
    /// The Table 3 driver (`main_star`, I/O removed).
    Starred,
}

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Program name.
    pub name: &'static str,
    /// Which driver ran.
    pub variant: Variant,
    /// The run outcome with cycle-accurate statistics.
    pub outcome: Outcome,
}

impl Measurement {
    /// Milliseconds at the KCM clock.
    pub fn ms(&self) -> f64 {
        self.outcome.stats.ms()
    }

    /// Klips (§4.2 definition).
    pub fn klips(&self) -> f64 {
        self.outcome.stats.klips()
    }
}

/// Compiles and runs one suite program on any [`Engine`].
///
/// # Errors
///
/// Propagates parse/compile/machine errors. A program whose driver merely
/// fails (the failure-driven `query` loop ends in a final `main.` fact, so
/// none of the suite programs does) is not an error.
pub fn run_program(
    engine: &dyn Engine,
    program: &BenchProgram,
    variant: Variant,
) -> Result<Measurement, KcmError> {
    let goal = match variant {
        Variant::Timed => program.query,
        Variant::Starred => program.starred_query,
    };
    let opts = QueryOpts {
        enumerate_all: program.enumerate,
        ..QueryOpts::default()
    };
    let outcome = engine.run_case(program.source.into(), goal, &opts)?;
    Ok(Measurement {
        name: program.name,
        variant,
        outcome,
    })
}

/// Runs a list of suite programs across a [`SessionPool`], one session
/// per program. Results come back **in program order** whatever the
/// worker count, so table drivers produce byte-identical output whether
/// they run serially (1 worker) or on every core.
///
/// Each element is that program's result; a failing program does not
/// poison the others.
pub fn run_suite_pooled(
    programs: &[BenchProgram],
    variant: Variant,
    config: &MachineConfig,
    pool: &SessionPool,
) -> Vec<Result<Measurement, KcmError>> {
    let engine = KcmEngine::with_config(config.clone());
    pool.map(programs, |p| run_program(&engine, p, variant))
}

/// Static code size of one compiled suite program, excluding the runtime
/// library and compiler-generated auxiliaries (the accounting of Table 1:
/// "the values indicated do not include the code of the runtime library").
///
/// Returns `(instructions, words)`.
///
/// # Errors
///
/// Propagates parse/compile errors.
pub fn kcm_static_size(program: &BenchProgram) -> Result<(usize, usize), KcmError> {
    let clauses = kcm_prolog::read_program(program.source).map_err(KcmError::Parse)?;
    let mut symbols = kcm_arch::SymbolTable::new();
    let image = kcm_compiler::compile_program(&clauses, &mut symbols)?;
    let mut instrs = 0;
    let mut words = 0;
    for s in image.sizes() {
        if s.auxiliary || s.id.name == "main_star" {
            continue;
        }
        instrs += s.instrs;
        words += s.words;
    }
    Ok((instrs, words))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    #[test]
    fn every_program_compiles() {
        for p in programs::suite() {
            kcm_static_size(&p).unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn starred_nrev_runs() {
        let p = programs::program("nrev1").unwrap();
        let m = run_program(&KcmEngine::new(), &p, Variant::Starred).unwrap();
        assert!(m.outcome.success);
        // nrev1 is about 500 inferences.
        assert!((400..700).contains(&(m.outcome.stats.inferences as i64)));
    }

    #[test]
    fn timed_variant_produces_output() {
        let p = programs::program("con1").unwrap();
        let m = run_program(&KcmEngine::new(), &p, Variant::Timed).unwrap();
        assert!(m.outcome.success);
        assert!(
            m.outcome.output.contains("[a,b,c,d,e,f]"),
            "{}",
            m.outcome.output
        );
        let s = run_program(&KcmEngine::new(), &p, Variant::Starred).unwrap();
        assert!(s.outcome.output.is_empty());
    }

    #[test]
    fn suite_runs_on_baseline_engines_too() {
        let p = programs::program("nrev1").unwrap();
        let kcm = run_program(&KcmEngine::new(), &p, Variant::Starred).unwrap();
        let plm = run_program(&plm::model(), &p, Variant::Starred).unwrap();
        assert_eq!(kcm.outcome.solutions, plm.outcome.solutions);
        assert!(plm.ms() > kcm.ms());
    }
}
