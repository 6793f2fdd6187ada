//! The unified engine abstraction: one trait over every Prolog engine in
//! the workspace.
//!
//! Each engine — the KCM simulator, the generic software WAM, the
//! Quintus-class `swam`, the PLM byte-code machine — is a (compiler
//! options, machine configuration) pair over the same abstract
//! instruction set. Until PR 5 every crate exposed its own `run_*` free
//! function with its own signature; [`Engine`] replaces them with one
//! shape: consume a program and a query under [`QueryOpts`], produce an
//! [`EngineOutcome`]. The differential oracle (kcm-difftest), the
//! benchmark runner (kcm-suite) and the query service (kcm-serve) all
//! drive engines through this trait.

use crate::{Kcm, KcmError, MachineConfig, Outcome, ProgramSource, QueryOpts};

/// A Prolog engine: consumes a program artifact + query, produces an
/// [`EngineOutcome`].
pub trait Engine: Send + Sync {
    /// Display name, used in divergence reports and benchmark labels.
    fn name(&self) -> String;

    /// Loads the program artifact (source text or, for engines that
    /// support it, a binary snapshot), runs `query` under `opts` on a
    /// fresh machine. Never panics; all failures come back inside the
    /// outcome's `result`. Engines without a snapshot loader answer a
    /// [`ProgramSource::Snapshot`] with a classed `"update"` error.
    fn run_case(&self, source: ProgramSource<'_>, query: &str, opts: &QueryOpts) -> EngineOutcome;
}

/// The classed refusal an [`Engine`] without a snapshot loader returns
/// for a [`ProgramSource::Snapshot`] artifact.
pub fn snapshot_unsupported(engine: &str) -> KcmError {
    KcmError::Update(format!("{engine} cannot load binary snapshot artifacts"))
}

/// What one engine computed for one case: the engine's display name plus
/// the raw run result. Consumers that need normalized views (the
/// differential oracle's alpha-renamed solutions, the benchmark tables'
/// Klips) derive them from here.
#[derive(Debug)]
pub struct EngineOutcome {
    /// The engine's display name ([`Engine::name`]).
    pub engine: String,
    /// The raw result: a full [`Outcome`] (solutions, stats, profile,
    /// output, trace) or the error.
    pub result: Result<Outcome, KcmError>,
}

impl EngineOutcome {
    /// Wraps a run result under an engine name.
    pub fn new(engine: impl Into<String>, result: Result<Outcome, KcmError>) -> EngineOutcome {
        EngineOutcome {
            engine: engine.into(),
            result,
        }
    }

    /// The stable class of this outcome: `"ok"` for a completed run,
    /// otherwise the [`error_class`] of the error.
    pub fn class(&self) -> &'static str {
        match &self.result {
            Ok(_) => "ok",
            Err(e) => error_class(e),
        }
    }

    /// Whether the run was cut off by a step deadline
    /// ([`crate::MachineError::BudgetExhausted`]) — a scheduling event,
    /// not a verdict about the program.
    pub fn is_budget(&self) -> bool {
        self.class() == "budget"
    }

    /// Unwraps into the raw run result.
    pub fn into_result(self) -> Result<Outcome, KcmError> {
        self.result
    }
}

/// The stable class name of an error — comparable across engines, which
/// must agree on the class but never necessarily on the message.
pub fn error_class(e: &KcmError) -> &'static str {
    use crate::MachineError as M;
    match e {
        KcmError::Parse(_) => "parse",
        KcmError::Compile(_) => "compile",
        KcmError::NoProgram => "no_program",
        KcmError::UnknownProgram(_) => "unknown_program",
        KcmError::Snapshot(_) => "snapshot",
        KcmError::Update(_) => "update",
        KcmError::Harness(_) => "harness",
        KcmError::Machine(m) => match m {
            M::Mem(_) => "mem",
            M::BadCodeAddress(_) => "bad_code",
            M::BudgetExhausted { .. } => "budget",
            M::TypeFault(_) => "type",
            M::UnimplementedInstr(_) => "unimplemented",
            M::Instantiation(_) => "instantiation",
            M::TermDepth => "term_depth",
            M::ZeroDivisor => "zero_divisor",
        },
    }
}

/// The KCM simulator as an [`Engine`]: consults the source into a fresh
/// [`Kcm`] per case and runs the query.
#[derive(Debug, Clone)]
pub struct KcmEngine {
    label: String,
    config: MachineConfig,
}

impl KcmEngine {
    /// The paper-calibrated configuration, labelled `"kcm"`.
    pub fn new() -> KcmEngine {
        KcmEngine::with_config(MachineConfig::default())
    }

    /// A custom machine configuration (ablations, cost models), labelled
    /// `"kcm"`.
    pub fn with_config(config: MachineConfig) -> KcmEngine {
        KcmEngine::labelled("kcm", config)
    }

    /// A custom configuration under an explicit display label.
    pub fn labelled(label: impl Into<String>, config: MachineConfig) -> KcmEngine {
        KcmEngine {
            label: label.into(),
            config,
        }
    }

    /// The machine configuration this engine runs with.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }
}

impl Default for KcmEngine {
    fn default() -> KcmEngine {
        KcmEngine::new()
    }
}

impl Engine for KcmEngine {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn run_case(&self, source: ProgramSource<'_>, query: &str, opts: &QueryOpts) -> EngineOutcome {
        let mut kcm = Kcm::with_config(self.config.clone());
        let result = kcm.load(source).and_then(|()| kcm.query(query, opts));
        EngineOutcome::new(self.label.clone(), result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_objects_are_thread_safe() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<Box<dyn Engine>>();
        assert_bounds::<KcmEngine>();
    }

    #[test]
    fn kcm_engine_runs_a_case() {
        let e = KcmEngine::new();
        let out = e.run_case("p(1). p(2).".into(), "p(X)", &QueryOpts::all());
        assert_eq!(out.class(), "ok");
        assert_eq!(out.result.unwrap().solutions.len(), 2);
    }

    #[test]
    fn outcome_classes_are_stable() {
        let e = KcmEngine::new();
        let parse = e.run_case("p(".into(), "p(X)", &QueryOpts::first());
        assert_eq!(parse.class(), "parse");
        let budget = e.run_case(
            "loop :- loop.".into(),
            "loop",
            &QueryOpts::first().with_step_budget(10_000),
        );
        assert_eq!(budget.class(), "budget");
        assert!(budget.is_budget());
        let zero = e.run_case("d(X) :- X is 1 // 0.".into(), "d(X)", &QueryOpts::first());
        assert_eq!(zero.class(), "zero_divisor");
        assert!(!zero.is_budget());
    }

    #[test]
    fn harness_error_has_its_own_class() {
        assert_eq!(
            error_class(&KcmError::Harness("lost worker".into())),
            "harness"
        );
    }
}
