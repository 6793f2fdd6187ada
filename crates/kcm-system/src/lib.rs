//! The KCM runtime system: the user-facing Prolog environment.
//!
//! KCM is "a high-performance back-end processor which, coupled to a UNIX
//! desk-top workstation, provides a powerful and user-friendly Prolog
//! environment" (§1). This crate is the workstation side of that pairing:
//! it owns the source program, drives the compiler tool chain (reader →
//! compiler → assembler → linker → loader, §4) and downloads queries into
//! a fresh [`Machine`] — while the machine plays the back-end role and the
//! host services its I/O escapes.
//!
//! # Quickstart
//!
//! ```
//! use kcm_system::Kcm;
//!
//! # fn main() -> Result<(), kcm_system::KcmError> {
//! let mut kcm = Kcm::new();
//! kcm.load("
//!     parent(tom, bob).
//!     parent(bob, ann).
//!     grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
//! ")?;
//! let answers = kcm.solve_all("grandparent(G, ann)")?;
//! assert_eq!(answers.len(), 1);
//! assert_eq!(answers[0].binding_text("G").as_deref(), Some("tom"));
//! # Ok(())
//! # }
//! ```
//!
//! # Program artifacts
//!
//! [`Kcm::load`] accepts any [`ProgramSource`]: Prolog source text
//! (compiled through the full tool chain) or a binary image snapshot
//! previously exported with [`Kcm::snapshot`] (restored without
//! recompilation — the fast cold-start path):
//!
//! ```
//! use kcm_system::{Kcm, ProgramSource};
//!
//! # fn main() -> Result<(), kcm_system::KcmError> {
//! let mut kcm = Kcm::new();
//! kcm.load(ProgramSource::Source("p(1). p(2)."))?;
//! let bytes = kcm.snapshot()?;
//!
//! let mut restored = Kcm::new();
//! restored.load(ProgramSource::Snapshot(&bytes))?;
//! assert_eq!(restored.solve_all("p(X)")?.len(), 2);
//! # Ok(())
//! # }
//! ```
//!
//! # Measuring
//!
//! Every query returns an [`Outcome`] with the cycle-accurate [`RunStats`]
//! the evaluation tables are built from:
//!
//! ```
//! use kcm_system::Kcm;
//!
//! # fn main() -> Result<(), kcm_system::KcmError> {
//! let mut kcm = Kcm::new();
//! kcm.load("nrev([],[]). nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).
//!           app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).")?;
//! let outcome = kcm.query("nrev([1,2,3,4,5], R)", &Default::default())?;
//! assert!(outcome.success);
//! let ms = outcome.stats.ms();
//! let klips = outcome.stats.klips();
//! assert!(ms > 0.0 && klips > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod answer;
pub mod engine;
pub mod pool;
pub mod prelude;
mod program;
pub mod registry;
pub mod report;
pub mod session;

pub use answer::Answer;
pub use engine::{error_class, snapshot_unsupported, Engine, EngineOutcome, KcmEngine};
pub use kcm_cpu::{
    InstrClass, Machine, MachineConfig, MachineError, Outcome, Profile, RunStats, Solution,
    TraceEvent, Tracer,
};
pub use pool::{QueryJob, SessionPool, SessionResult};
pub use registry::{ProgramRegistry, PublishReceipt, Published, TenantSnapshot, TenantStats};
pub use session::{open_session, prepare_query, PreparedQuery, SolutionStep, Solutions};

use kcm_arch::snapshot::SnapshotError;
use kcm_arch::SymbolTable;
use kcm_compiler::{CodeImage, CompileError};
use kcm_prolog::ParseError;
use program::{Edit, Program};
use std::sync::{Arc, OnceLock};

/// An error from the KCM system: reader, compiler or machine.
#[derive(Debug)]
pub enum KcmError {
    /// Syntax error in consulted source or a query.
    Parse(ParseError),
    /// Compilation/linking error.
    Compile(CompileError),
    /// A machine fault during execution.
    Machine(MachineError),
    /// No program has been consulted yet.
    NoProgram,
    /// No program is published under this name in a
    /// [`ProgramRegistry`] (never published, or evicted).
    UnknownProgram(String),
    /// A binary snapshot artifact failed to restore: truncated,
    /// corrupted, bad magic or an unsupported format version.
    Snapshot(SnapshotError),
    /// An incremental update ([`Kcm::assertz`] / [`Kcm::retract`]) could
    /// not be applied — for example a fallback recompile was needed but
    /// the program was restored from a snapshot, so no source is held.
    Update(String),
    /// A fault in the harness around the machine, not in the machine or
    /// the program: replica disagreement in a differential oracle, a
    /// worker lost mid-request in a service, and the like.
    Harness(String),
}

impl std::fmt::Display for KcmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KcmError::Parse(e) => write!(f, "{e}"),
            KcmError::Compile(e) => write!(f, "{e}"),
            KcmError::Machine(e) => write!(f, "{e}"),
            KcmError::NoProgram => write!(f, "no program consulted"),
            KcmError::UnknownProgram(name) => write!(f, "no program published as {name:?}"),
            KcmError::Snapshot(e) => write!(f, "{e}"),
            KcmError::Update(why) => write!(f, "update rejected: {why}"),
            KcmError::Harness(why) => write!(f, "harness fault: {why}"),
        }
    }
}

impl std::error::Error for KcmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KcmError::Parse(e) => Some(e),
            KcmError::Compile(e) => Some(e),
            KcmError::Machine(e) => Some(e),
            KcmError::Snapshot(e) => Some(e),
            KcmError::NoProgram => None,
            KcmError::UnknownProgram(_) => None,
            KcmError::Update(_) => None,
            KcmError::Harness(_) => None,
        }
    }
}

/// A loadable program artifact: the one currency accepted by every
/// program-loading path in the workspace — [`Kcm::load`],
/// [`ProgramRegistry::publish`] and [`Engine::run_case`].
///
/// Construct it explicitly, or lean on the `From` impls: `&str` becomes
/// [`ProgramSource::Source`], `&[u8]` / `&Vec<u8>` become
/// [`ProgramSource::Snapshot`].
#[derive(Debug, Clone, Copy)]
pub enum ProgramSource<'a> {
    /// Prolog source text: parsed, compiled and statically linked on
    /// load (the paper's batch tool chain, §4).
    Source(&'a str),
    /// A binary image snapshot saved by [`Kcm::snapshot`] (format
    /// [`kcm_arch::snapshot`]): restored without recompilation.
    Snapshot(&'a [u8]),
}

impl<'a> From<&'a str> for ProgramSource<'a> {
    fn from(src: &'a str) -> ProgramSource<'a> {
        ProgramSource::Source(src)
    }
}

impl<'a> From<&'a String> for ProgramSource<'a> {
    fn from(src: &'a String) -> ProgramSource<'a> {
        ProgramSource::Source(src)
    }
}

impl<'a> From<&'a [u8]> for ProgramSource<'a> {
    fn from(bytes: &'a [u8]) -> ProgramSource<'a> {
        ProgramSource::Snapshot(bytes)
    }
}

impl<'a> From<&'a Vec<u8>> for ProgramSource<'a> {
    fn from(bytes: &'a Vec<u8>) -> ProgramSource<'a> {
        ProgramSource::Snapshot(bytes)
    }
}

/// Which execution tier runs a query.
///
/// Both tiers execute the same compiled [`CodeImage`] through the same
/// interpreter core and produce byte-identical solutions, printed output
/// and error classes (proven continuously by the differential oracle in
/// `kcm-difftest`); they differ only in what they *account*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Tier {
    /// The cycle-accurate simulator: logical caches, MMU, paging, the
    /// paper's cost model. The fidelity reference — every timing table
    /// and `STATS`-level figure comes from this tier.
    #[default]
    Cycle,
    /// The native tier (`kcm-native`): no cycle model, no memory
    /// hierarchy — the serving tier, roughly an order of magnitude more
    /// host throughput. Reported `cycles` and cache statistics are 0.
    Native,
}

/// Per-query options for [`Kcm::query`] (and, via [`QueryJob`], for every
/// pooled session).
///
/// The [`Default`] is a plain first-solution query on the cycle-accurate
/// tier with no deadline and no tracing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryOpts {
    /// Backtrack through every solution instead of stopping at the first.
    pub enumerate_all: bool,
    /// Which execution tier runs the query ([`Tier::Cycle`] by default).
    pub tier: Tier,
    /// Per-query step deadline: the run is cut off with
    /// [`MachineError::BudgetExhausted`] after this many instructions.
    /// `None` inherits the session configuration's
    /// [`MachineConfig::step_budget`] (unlimited by default).
    pub step_budget: Option<u64>,
    /// Macrocode trace window: keep the last `trace` executed instructions
    /// and return them on [`Outcome::trace`]. 0 (the default) leaves the
    /// session configuration's [`MachineConfig::trace_depth`] in force.
    pub trace: usize,
}

impl QueryOpts {
    /// First-solution options (the default).
    pub fn first() -> QueryOpts {
        QueryOpts::default()
    }

    /// All-solutions options.
    pub fn all() -> QueryOpts {
        QueryOpts {
            enumerate_all: true,
            ..QueryOpts::default()
        }
    }

    /// Sets the per-query step deadline.
    #[must_use]
    pub fn with_step_budget(mut self, steps: u64) -> QueryOpts {
        self.step_budget = Some(steps);
        self
    }

    /// Sets the macrocode trace window.
    #[must_use]
    pub fn with_trace(mut self, depth: usize) -> QueryOpts {
        self.trace = depth;
        self
    }

    /// Selects the execution tier.
    #[must_use]
    pub fn with_tier(mut self, tier: Tier) -> QueryOpts {
        self.tier = tier;
        self
    }

    /// Overlays these options on a session machine configuration.
    pub fn apply(&self, config: &mut MachineConfig) {
        if let Some(steps) = self.step_budget {
            config.step_budget = steps;
        }
        if self.trace > 0 {
            config.trace_depth = self.trace;
        }
    }
}

impl From<ParseError> for KcmError {
    fn from(e: ParseError) -> KcmError {
        KcmError::Parse(e)
    }
}

impl From<CompileError> for KcmError {
    fn from(e: CompileError) -> KcmError {
        KcmError::Compile(e)
    }
}

impl From<MachineError> for KcmError {
    fn from(e: MachineError) -> KcmError {
        KcmError::Machine(e)
    }
}

impl From<SnapshotError> for KcmError {
    fn from(e: SnapshotError) -> KcmError {
        KcmError::Snapshot(e)
    }
}

/// The KCM Prolog system: workstation-side tool chain plus the back-end
/// machine.
///
/// `Kcm` accumulates consulted clauses, recompiles and statically links
/// them (the paper's benchmark configuration, §4), and runs queries on a
/// fresh machine each time, so successive measurements are independent —
/// the benchmarking discipline of §4.2.
#[derive(Debug)]
pub struct Kcm {
    /// The loaded program, once there is one. Its image sits behind an
    /// `Arc` so parallel sessions ([`SessionPool`]) share one compiled
    /// program across threads.
    program: Option<Program>,
    config: MachineConfig,
}

impl Default for Kcm {
    fn default() -> Kcm {
        Kcm::new()
    }
}

impl Kcm {
    /// A system with the paper-calibrated machine configuration.
    pub fn new() -> Kcm {
        Kcm::with_config(MachineConfig::default())
    }

    /// A system with a custom machine configuration (ablations, cache
    /// experiments).
    pub fn with_config(config: MachineConfig) -> Kcm {
        Kcm {
            program: None,
            config,
        }
    }

    /// The machine configuration in use.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Consults the library prelude: `member/2`, `append/3`, `between/3`,
    /// `maplist/N`, `msort/2` and friends, written in Prolog and compiled
    /// onto the machine like user code. Opt-in, because the PLM benchmark
    /// programs are self-contained (the paper's statically linked
    /// configuration).
    ///
    /// # Errors
    ///
    /// Propagates compile errors (a bug in the prelude itself).
    pub fn consult_prelude(&mut self) -> Result<(), KcmError> {
        self.load(prelude::PRELUDE)
    }

    /// Loads a program artifact.
    ///
    /// * [`ProgramSource::Source`] — parses, appends to the held program
    ///   and recompiles (batch compilation into the data space followed
    ///   by the page hand-over of §3.2.1 on the real machine).
    /// * [`ProgramSource::Snapshot`] — restores a compiled image saved
    ///   by [`Kcm::snapshot`] without recompilation: the fast cold-start
    ///   path. The snapshot *replaces* any held program, and no clause
    ///   source is retained, so a later `load` of source text is refused
    ///   (nothing to append to) — updates are limited to the in-place
    ///   fast paths of [`Kcm::assertz`] / [`Kcm::retract`].
    ///
    /// # Errors
    ///
    /// Parse or compile errors for source, [`KcmError::Snapshot`] for a
    /// damaged or version-skewed snapshot; the previous program is kept
    /// intact on error.
    pub fn load<'a>(&mut self, source: impl Into<ProgramSource<'a>>) -> Result<(), KcmError> {
        self.program = Some(Program::load(self.program.as_ref(), source.into())?);
        Ok(())
    }

    /// Serializes the compiled program — code words, symbol table, hash
    /// side tables, format metadata — into the versioned, checksummed
    /// binary snapshot format of [`kcm_arch::snapshot`]. Feed the bytes
    /// back through [`Kcm::load`] (or ship them to a registry /
    /// `PUBLISH … SNAPSHOT`) to restore the program without recompiling.
    ///
    /// # Errors
    ///
    /// Returns [`KcmError::NoProgram`] before the first load.
    pub fn snapshot(&self) -> Result<Vec<u8>, KcmError> {
        let program = self.program.as_ref().ok_or(KcmError::NoProgram)?;
        Ok(kcm_arch::snapshot::save(&program.image, &program.symbols))
    }

    /// Adds one clause at the end of its predicate, visible to the next
    /// query without a re-consult.
    ///
    /// Ground facts over atomic arguments (arity ≥ 1) on an existing
    /// fact predicate take the incremental fast path: the clause code is
    /// appended to the image and the predicate's try/retry/trust chain,
    /// first-level constant switch and depth-2 switch tables are patched
    /// in place — no recompilation, no downtime for the rest of the
    /// program. Anything else (rules, compound arguments, brand-new
    /// predicates, shapes the patcher declines) falls back to
    /// recompiling just that predicate from the held clause source and
    /// relinking it into the image.
    ///
    /// # Errors
    ///
    /// Parse/compile errors for the clause; [`KcmError::Update`] when
    /// the fast path does not apply and the program was restored from a
    /// snapshot (no clause source to recompile from).
    pub fn assertz(&mut self, clause: &str) -> Result<(), KcmError> {
        match &mut self.program {
            Some(program) => program.edit(clause, Edit::Assert).map(drop),
            // Nothing loaded yet: identical to consulting the one clause.
            None => {
                let term = kcm_prolog::read_term(clause)?;
                self.program = Some(Program::compile(vec![term], SymbolTable::new())?);
                Ok(())
            }
        }
    }

    /// Removes the first clause identical to `clause`, visible to the
    /// next query without a re-consult. Returns whether a clause was
    /// removed. Identity is structural equality, variable names included,
    /// with floats compared bit for bit: `p(-0.0)` and `p(0.0)` are two
    /// clauses, as their compiled code and switch keys are.
    ///
    /// Ground atomic-argument facts take the incremental fast path: the
    /// matching clause's code is tombstoned in place (its chain slot
    /// fails over to the next clause). Anything else falls back to
    /// recompiling the predicate from the held clause source.
    ///
    /// # Errors
    ///
    /// Parse errors for the clause; [`KcmError::NoProgram`] before the
    /// first load; [`KcmError::Update`] when the fast path does not apply
    /// and the program was restored from a snapshot.
    pub fn retract(&mut self, clause: &str) -> Result<bool, KcmError> {
        let program = self.program.as_mut().ok_or(KcmError::NoProgram)?;
        program.edit(clause, Edit::Retract)
    }

    /// The linked code image behind its sharing handle, if a program has
    /// been consulted: what [`prepare_query`], [`open_session`] and
    /// [`pool::run_session`] take, so one compiled program serves query
    /// overlays and sessions on many threads.
    pub fn image(&self) -> Option<&Arc<CodeImage>> {
        self.program.as_ref().map(|p| &p.image)
    }

    /// The symbol table (empty before the first load).
    pub fn symbols(&self) -> &SymbolTable {
        static EMPTY: OnceLock<SymbolTable> = OnceLock::new();
        match &self.program {
            Some(program) => &program.symbols,
            None => EMPTY.get_or_init(SymbolTable::new),
        }
    }

    /// Link warnings from the last compilation (calls to undefined
    /// predicates).
    pub fn warnings(&self) -> Vec<String> {
        self.image()
            .map(|i| i.warnings().map(str::to_owned).collect())
            .unwrap_or_default()
    }

    /// Disassembles the current image.
    ///
    /// # Errors
    ///
    /// Returns [`KcmError::NoProgram`] before the first consult.
    pub fn disassemble(&self) -> Result<String, KcmError> {
        let program = self.program.as_ref().ok_or(KcmError::NoProgram)?;
        Ok(program.image.disassemble(&program.symbols))
    }

    /// Runs a query on a fresh machine, with [`QueryOpts`] controlling
    /// the tier, enumeration, the per-query step deadline and tracing.
    ///
    /// # Errors
    ///
    /// Parse/compile errors for the query, or a machine fault — including
    /// [`MachineError::BudgetExhausted`] when `opts.step_budget` ran out.
    /// A query that simply fails is a successful `Ok` with
    /// `success == false`.
    pub fn query(&self, query: &str, opts: &QueryOpts) -> Result<Outcome, KcmError> {
        self.prepare(query, opts)?.run(opts.enumerate_all)
    }

    /// Opens a suspendable session for `query`: a pull-based iterator
    /// that runs the machine to each solution on demand and suspends in
    /// between (the paper's §2.1 host interface, where requesting the
    /// next answer is a command to fail and resume). Each pull is one
    /// budget slice — `opts.step_budget` bounds the work of a single
    /// [`Solutions::next_step`], not of the whole enumeration — and
    /// reports its own delta [`RunStats`]. `opts.enumerate_all` is
    /// ignored: a session enumerates by construction, the caller decides
    /// when to stop pulling.
    ///
    /// # Errors
    ///
    /// Returns [`KcmError::NoProgram`] before the first consult, or query
    /// parse/compile errors.
    pub fn solutions(&self, query: &str, opts: &QueryOpts) -> Result<Solutions, KcmError> {
        self.prepare(query, opts)?.into_session()
    }

    /// Builds the machine of `opts.tier` for a query without running it
    /// (benchmark harnesses use this to exclude compile time from
    /// measurement): [`prepare_query`] against this system's program.
    ///
    /// # Errors
    ///
    /// Returns [`KcmError::NoProgram`] before the first consult, or query
    /// parse/compile errors.
    pub fn prepare(&self, query: &str, opts: &QueryOpts) -> Result<PreparedQuery, KcmError> {
        let program = self.program.as_ref().ok_or(KcmError::NoProgram)?;
        prepare_query(&program.image, &program.symbols, &self.config, query, opts)
    }

    /// First solution of a query, if any.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Kcm::query`].
    pub fn solve_first(&self, query: &str) -> Result<Option<Answer>, KcmError> {
        let outcome = self.query(query, &QueryOpts::first())?;
        Ok(outcome.solutions.into_iter().next().map(Answer::new))
    }

    /// All solutions of a query, in discovery order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Kcm::query`].
    pub fn solve_all(&self, query: &str) -> Result<Vec<Answer>, KcmError> {
        let outcome = self.query(query, &QueryOpts::all())?;
        Ok(outcome.solutions.into_iter().map(Answer::new).collect())
    }

    /// Whether a query has at least one solution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Kcm::query`].
    pub fn holds(&self, query: &str) -> Result<bool, KcmError> {
        Ok(self.query(query, &QueryOpts::first())?.success)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consult_then_query() {
        let mut kcm = Kcm::new();
        kcm.load("p(1). p(2). p(3).").unwrap();
        let all = kcm.solve_all("p(X)").unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].binding_text("X").as_deref(), Some("1"));
        assert_eq!(all[2].binding_text("X").as_deref(), Some("3"));
    }

    #[test]
    fn query_before_consult_errors() {
        let kcm = Kcm::new();
        assert!(matches!(
            kcm.query("p(X)", &QueryOpts::first()),
            Err(KcmError::NoProgram)
        ));
    }

    #[test]
    fn failed_query_is_not_an_error() {
        let mut kcm = Kcm::new();
        kcm.load("p(1).").unwrap();
        let outcome = kcm.query("p(2)", &QueryOpts::first()).unwrap();
        assert!(!outcome.success);
        assert!(outcome.solutions.is_empty());
    }

    #[test]
    fn budget_stop_is_distinguishable_from_faults_in_kcm() {
        let mut kcm = Kcm::new();
        kcm.load("loop :- loop.\nboom(X) :- X is 1 // 0.\nok(1).")
            .unwrap();
        let opts = QueryOpts::first().with_step_budget(10_000);
        // A runaway query stops with BudgetExhausted...
        match kcm.query("loop", &opts) {
            Err(KcmError::Machine(MachineError::BudgetExhausted { steps })) => {
                assert!(steps > 10_000);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // ...while a genuine fault under the same deadline keeps its own
        // error class.
        match kcm.query("boom(X)", &opts) {
            Err(KcmError::Machine(MachineError::ZeroDivisor)) => {}
            other => panic!("expected ZeroDivisor, got {other:?}"),
        }
        // The deadline is per-query: the session serves the next query
        // untouched.
        assert!(kcm.holds("ok(1)").unwrap());
    }

    #[test]
    fn budget_stop_is_distinguishable_in_pool_results() {
        let mut kcm = Kcm::new();
        kcm.load("loop :- loop.\np(1).").unwrap();
        let pool = SessionPool::new(2);
        let jobs = vec![
            QueryJob::with_opts("loop", QueryOpts::first().with_step_budget(10_000)),
            QueryJob::first_solution("p(X)"),
        ];
        let results = pool.run_queries(&kcm, &jobs).unwrap();
        assert!(matches!(
            results[0].outcome,
            Err(KcmError::Machine(MachineError::BudgetExhausted { .. }))
        ));
        assert!(results[1].outcome.as_ref().unwrap().success);
    }

    #[test]
    fn query_opts_trace_window_surfaces_on_outcome() {
        let mut kcm = Kcm::new();
        kcm.load("p(1). p(2).").unwrap();
        let plain = kcm.query("p(X)", &QueryOpts::all()).unwrap();
        assert!(plain.trace.is_empty());
        let traced = kcm.query("p(X)", &QueryOpts::all().with_trace(16)).unwrap();
        assert!(!traced.trace.is_empty());
        assert!(traced.trace.len() <= 16);
        // Tracing is observational only.
        assert_eq!(plain.solutions, traced.solutions);
    }

    #[test]
    fn consult_error_keeps_previous_program() {
        let mut kcm = Kcm::new();
        kcm.load("p(1).").unwrap();
        assert!(kcm.load("q(").is_err());
        assert!(kcm.holds("p(1)").unwrap());
    }

    #[test]
    fn snapshot_round_trip_matches_fresh_consult_exactly() {
        let src = "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).
                   p(1). p(2). p(a). path(X,Y) :- app([X],[Y],Z), p(X), Z = [X,Y].";
        let mut fresh = Kcm::new();
        fresh.load(src).unwrap();
        let bytes = fresh.snapshot().unwrap();

        let mut restored = Kcm::new();
        restored.load(ProgramSource::Snapshot(&bytes)).unwrap();
        for query in ["p(X)", "app(X, Y, [1,2,3])", "path(X, Y)"] {
            for tier in [Tier::Cycle, Tier::Native] {
                let opts = QueryOpts::all().with_tier(tier);
                let a = fresh.query(query, &opts).unwrap();
                let b = restored.query(query, &opts).unwrap();
                assert_eq!(a.solutions, b.solutions, "{query}");
                assert_eq!(a.output, b.output, "{query}");
                // Same image word-for-word ⇒ same cost model accounting.
                assert_eq!(a.stats, b.stats, "{query}");
            }
        }
    }

    #[test]
    fn damaged_snapshot_is_a_classed_error_and_keeps_the_program() {
        let mut kcm = Kcm::new();
        kcm.load("p(1).").unwrap();
        let mut bytes = kcm.snapshot().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        let mut other = Kcm::new();
        other.load("q(2).").unwrap();
        match other.load(ProgramSource::Snapshot(&bytes)) {
            Err(KcmError::Snapshot(_)) => {}
            other => panic!("expected a snapshot error, got {other:?}"),
        }
        assert!(other.holds("q(2)").unwrap(), "previous program kept");
        assert_eq!(
            error_class(&KcmError::Snapshot(SnapshotError::Truncated)),
            "snapshot"
        );
    }

    #[test]
    fn snapshot_before_load_is_no_program() {
        assert!(matches!(Kcm::new().snapshot(), Err(KcmError::NoProgram)));
    }

    #[test]
    fn assertz_fact_is_visible_without_reconsult() {
        let mut kcm = Kcm::new();
        let src: String = (0..32).map(|i| format!("f(k{i}, v{}).\n", i % 5)).collect();
        kcm.load(&src).unwrap();
        // New first-argument key through the in-place fast path.
        kcm.assertz("f(k_new, v_new)").unwrap();
        assert!(kcm.holds("f(k_new, v_new)").unwrap());
        // Existing key extends that key's chain, last position.
        kcm.assertz("f(k3, extra)").unwrap();
        let all = kcm.solve_all("f(k3, V)").unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].binding_text("V").as_deref(), Some("extra"));
        assert_eq!(kcm.solve_all("f(K, V)").unwrap().len(), 34);
    }

    #[test]
    fn assertz_rule_falls_back_to_predicate_recompile() {
        let mut kcm = Kcm::new();
        kcm.load("p(1). p(2). q(X) :- p(X).").unwrap();
        kcm.assertz("q(X) :- p(X), p(X)").unwrap();
        assert_eq!(kcm.solve_all("q(X)").unwrap().len(), 4);
        // The untouched predicate still serves.
        assert_eq!(kcm.solve_all("p(X)").unwrap().len(), 2);
    }

    #[test]
    fn assertz_into_empty_system_consults_the_clause() {
        let mut kcm = Kcm::new();
        kcm.assertz("p(1)").unwrap();
        assert!(kcm.holds("p(1)").unwrap());
    }

    #[test]
    fn retract_removes_first_match_and_reports() {
        let mut kcm = Kcm::new();
        let src: String = (0..32).map(|i| format!("f(k{i}, v{}).\n", i % 5)).collect();
        kcm.load(&src).unwrap();
        assert!(kcm.retract("f(k7, v2)").unwrap());
        assert!(!kcm.holds("f(k7, v2)").unwrap());
        assert_eq!(kcm.solve_all("f(K, V)").unwrap().len(), 31);
        // Retracting it again finds nothing.
        assert!(!kcm.retract("f(k7, v2)").unwrap());
        // Unknown predicate: no match, not an error.
        assert!(!kcm.retract("ghost(1)").unwrap());
    }

    #[test]
    fn incremental_updates_match_a_full_reconsult() {
        // (program, updates — `true` asserts, `false` retracts a clause
        // that must be found —, the program they leave, queries)
        type Case = (String, Vec<(bool, &'static str)>, String, Vec<&'static str>);
        let base: String = (0..64).map(|i| format!("f(k{i}, v{}).\n", i % 7)).collect();
        let edited =
            (base.clone() + "f(k_extra, v0).\nf(k5, v_extra).\n").replace("f(k9, v2).\n", "");
        let rule = "p(X) :- X = 2.0";
        let cases: Vec<Case> = vec![
            (
                base,
                vec![
                    (true, "f(k_extra, v0)"),
                    (true, "f(k5, v_extra)"),
                    (false, "f(k9, v2)"),
                ],
                edited,
                vec!["f(K, V)", "f(k5, V)", "f(K, v2)", "f(k_extra, V)"],
            ),
            // Clauses that differ only in the sign of a zero: the held
            // source must drop the clause the image dropped, or the rule's
            // assert relinks `p/1` from the wrong clauses.
            (
                "p(0.0). p(-0.0). p(1.0).".into(),
                vec![(false, "p(-0.0)"), (true, rule)],
                format!("p(0.0). p(1.0). {rule}."),
                vec!["p(X)"],
            ),
            (
                "p(-0.0). p(0.0). p(1.0).".into(),
                vec![(false, "p(0.0)"), (true, rule)],
                format!("p(-0.0). p(1.0). {rule}."),
                vec!["p(X)"],
            ),
            // The same rule on the relink path itself.
            (
                "q(X) :- X = 0.0. q(X) :- X = -0.0.".into(),
                vec![(false, "q(X) :- X = -0.0")],
                "q(X) :- X = 0.0.".into(),
                vec!["q(Y)"],
            ),
        ];
        for (program, updates, edited, queries) in cases {
            let mut incremental = Kcm::new();
            incremental.load(&program).unwrap();
            for (assert, clause) in updates {
                if assert {
                    incremental.assertz(clause).unwrap();
                } else {
                    assert!(incremental.retract(clause).unwrap(), "{clause}");
                }
            }
            let mut reference = Kcm::new();
            reference.load(&edited).unwrap();
            for query in queries {
                let a = incremental.solve_all(query).unwrap();
                let b = reference.solve_all(query).unwrap();
                // Debug renders the sign of a zero; `==` on floats would not.
                let bind = |answers: &[Answer]| -> Vec<String> {
                    answers.iter().map(|s| format!("{s:?}")).collect::<Vec<_>>()
                };
                assert_eq!(bind(&a), bind(&b), "{program} ?- {query}");
            }
        }
    }

    #[test]
    fn snapshot_restored_program_takes_fact_updates_in_place() {
        let mut origin = Kcm::new();
        let src: String = (0..32).map(|i| format!("f(k{i}, v{}).\n", i % 5)).collect();
        origin.load(&src).unwrap();
        let bytes = origin.snapshot().unwrap();

        let mut kcm = Kcm::new();
        kcm.load(ProgramSource::Snapshot(&bytes)).unwrap();
        kcm.assertz("f(k_new, v_new)").unwrap();
        assert!(kcm.holds("f(k_new, v_new)").unwrap());
        assert!(kcm.retract("f(k3, v3)").unwrap());
        assert!(!kcm.holds("f(k3, v3)").unwrap());

        // Updates that need the clause source are refused with a classed
        // error, and the program survives untouched.
        let err = kcm.assertz("g(X) :- f(X, _)").unwrap_err();
        assert_eq!(error_class(&err), "update");
        let err = kcm.load("h(1).").unwrap_err();
        assert_eq!(error_class(&err), "update");
        assert!(kcm.holds("f(k_new, v_new)").unwrap());
    }

    #[test]
    fn incremental_consult_extends_program() {
        let mut kcm = Kcm::new();
        kcm.load("p(1).").unwrap();
        kcm.load("q(X) :- p(X).").unwrap();
        assert!(kcm.holds("q(1)").unwrap());
    }

    #[test]
    fn reused_session_answers_identically_on_both_tiers() {
        // One Kcm, several queries, tiers interleaved: the second and
        // later queries must see the same image the first one compiled,
        // and the native tier must keep matching the simulator on every
        // reuse (no per-tier state leaking between queries).
        let mut kcm = Kcm::new();
        kcm.load("app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R). p(1). p(2).")
            .unwrap();
        for query in ["p(X)", "app(X, Y, [1,2,3])", "p(X)"] {
            let cyc = kcm.query(query, &QueryOpts::all()).unwrap();
            let nat = kcm
                .query(query, &QueryOpts::all().with_tier(Tier::Native))
                .unwrap();
            assert_eq!(cyc.solutions, nat.solutions, "{query}");
            assert_eq!(cyc.output, nat.output, "{query}");
            assert_eq!(cyc.stats.inferences, nat.stats.inferences, "{query}");
            assert!(cyc.stats.cycles > 0, "{query}");
            assert_eq!(nat.stats.cycles, 0, "{query}");
        }
    }

    #[test]
    fn native_budget_stop_matches_the_simulator_and_spares_the_session() {
        let mut kcm = Kcm::new();
        kcm.load("loop :- loop.\nok(1).").unwrap();
        let opts = QueryOpts::first().with_step_budget(10_000);
        // Identical error at the identical step count: the budget counts
        // retired instructions, which the tiers execute in lockstep.
        let cyc = kcm.query("loop", &opts).unwrap_err();
        let nat = kcm
            .query("loop", &opts.clone().with_tier(Tier::Native))
            .unwrap_err();
        match (&cyc, &nat) {
            (
                KcmError::Machine(MachineError::BudgetExhausted { steps: a }),
                KcmError::Machine(MachineError::BudgetExhausted { steps: b }),
            ) => assert_eq!(a, b),
            other => panic!("expected two budget stops, got {other:?}"),
        }
        // The session keeps serving on either tier after the stop.
        assert!(kcm.holds("ok(1)").unwrap());
        let after = kcm
            .query("ok(X)", &QueryOpts::first().with_tier(Tier::Native))
            .unwrap();
        assert!(after.success);
    }
}
