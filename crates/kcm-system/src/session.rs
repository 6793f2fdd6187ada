//! Prepared queries and suspendable sessions: the one path from query
//! text to a machine on a tier to answers.
//!
//! [`prepare_query`] is the only place query text becomes a machine: it
//! parses the goal, compiles and links it against the program image
//! (§2.1: the host compiles and links the query, then downloads it),
//! overlays the [`QueryOpts`] on the machine configuration and builds the
//! machine of the chosen [`Tier`]. Every front end — [`crate::Kcm::query`],
//! [`crate::Kcm::prepare`], [`crate::Kcm::solutions`], [`open_session`],
//! [`crate::pool::run_session`] and the baseline engines — goes through
//! it, and the resulting [`PreparedQuery`] either runs to completion or
//! becomes a session.
//!
//! The paper's host-interface model (§2.1) has the workstation *pull*
//! solutions from the KCM one backtrack at a time — the machine reports a
//! solution, the host reads it, and requesting the next answer is exactly
//! a command to fail and resume the search. [`Solutions`] is that model as
//! a Rust iterator: each [`Solutions::next_step`] drives the machine to
//! its next `ReportSolution`, suspends there, and hands back the decoded
//! solution plus that slice's [`RunStats`] delta. Nothing is materialized:
//! a session streaming 10⁶ answers holds one machine and one in-flight
//! solution.
//!
//! Both tiers are supported through the same `DataMem`-generic
//! interpreter, so a cursor on the native tier takes the identical
//! instruction sequence an uninterrupted enumerate-all run would — the
//! property the difftest enumeration oracle checks byte-for-byte.
//!
//! A one-shot run and a pull can also go a quantum at a time
//! ([`PreparedQuery::run_quantum`], [`Solutions::next_step_quantum`]): the
//! machine pauses at an instruction boundary when the quantum runs out
//! and resumes there on the next call, so a host can time-slice long
//! queries. Pausing changes nothing the machine reports.

use crate::{
    KcmError, Machine, MachineConfig, Outcome, Quantum, QueryOpts, RunStats, Solution, Tier,
};
use kcm_arch::SymbolTable;
use kcm_compiler::CodeImage;
use std::sync::Arc;

/// The machine behind a prepared query or session, one variant per tier.
enum SessionMachine {
    Cycle(Machine),
    Native(kcm_native::NativeMachine),
}

/// Evaluates `$body` with `$m` bound to the machine of either tier: the
/// two machine types share every method but no trait.
macro_rules! on_tier {
    ($machine:expr, $m:ident => $body:expr) => {
        match $machine {
            SessionMachine::Cycle($m) => $body,
            SessionMachine::Native($m) => $body,
        }
    };
}

/// Compiles `query` against `image` and loads it onto a fresh machine of
/// `opts.tier`, configured by `config` with `opts` overlaid. The machine
/// is built but not run.
///
/// Every step is O(query), not O(program): the query is linked as an
/// overlay sharing `image` ([`kcm_compiler::compile_query`]); the symbol
/// table clone copies only its unfrozen delta (query compilation may
/// intern new symbols into its own copy); and both tiers dispatch
/// through the image's shared resolved-dispatch table.
///
/// # Errors
///
/// Query parse or compile errors.
pub fn prepare_query(
    image: &Arc<CodeImage>,
    symbols: &SymbolTable,
    config: &MachineConfig,
    query: &str,
    opts: &QueryOpts,
) -> Result<PreparedQuery, KcmError> {
    let goal = kcm_prolog::read_term(query)?;
    let mut symbols = symbols.clone();
    let (qimage, vars) = kcm_compiler::compile_query(image, &goal, &mut symbols)?;
    let mut config = config.clone();
    opts.apply(&mut config);
    let machine = match opts.tier {
        Tier::Cycle => SessionMachine::Cycle(Machine::new(qimage, symbols, config)),
        Tier::Native => SessionMachine::Native(kcm_native::native_machine(qimage, symbols, config)),
    };
    Ok(PreparedQuery { machine, vars })
}

/// A query compiled, linked and loaded onto a machine of its tier, not
/// yet run — what [`prepare_query`] and [`crate::Kcm::prepare`] return.
///
/// [`PreparedQuery::run`] may be called repeatedly on the same machine
/// (benchmark harnesses time only the run that way);
/// [`PreparedQuery::begin_run`] and [`PreparedQuery::run_quantum`] run it
/// a quantum at a time; [`PreparedQuery::into_session`] turns it into a
/// pull-based stream.
pub struct PreparedQuery {
    machine: SessionMachine,
    vars: Vec<String>,
}

impl PreparedQuery {
    /// Runs the query to completion: to the first solution, or with
    /// `enumerate_all` through every solution. The step budget bounds
    /// the whole run.
    ///
    /// # Errors
    ///
    /// A [`KcmError::Machine`] fault, including
    /// [`crate::MachineError::BudgetExhausted`] when the step budget ran
    /// out. A query that simply fails is an `Ok` with `success == false`.
    pub fn run(&mut self, enumerate_all: bool) -> Result<Outcome, KcmError> {
        let vars = &self.vars;
        Ok(on_tier!(&mut self.machine, m => m.run_query(vars, enumerate_all))?)
    }

    /// Arms a one-shot run, to the first solution or with `enumerate_all`
    /// through every solution, without running anything; drive it with
    /// [`PreparedQuery::run_quantum`].
    ///
    /// # Errors
    ///
    /// A fault arming the run.
    pub fn begin_run(&mut self, enumerate_all: bool) -> Result<(), KcmError> {
        let vars = &self.vars;
        Ok(on_tier!(&mut self.machine, m => m.begin_query_run(vars, enumerate_all))?)
    }

    /// Runs the armed one-shot run for at most `quantum` instructions:
    /// [`Quantum::Done`] with the [`Outcome`] [`PreparedQuery::run`]
    /// would have returned, or [`Quantum::Paused`] when the quantum ran
    /// out first (call again to continue). The step budget bounds the
    /// whole run across its quanta.
    ///
    /// # Errors
    ///
    /// As [`PreparedQuery::run`]; after an error the run is dead.
    pub fn run_quantum(&mut self, quantum: u64) -> Result<Quantum<Outcome>, KcmError> {
        Ok(on_tier!(&mut self.machine, m => m.run_quantum(quantum))?)
    }

    /// Arms the machine as a suspendable session (see [`Solutions`]).
    ///
    /// # Errors
    ///
    /// A fault arming the session.
    pub fn into_session(mut self) -> Result<Solutions, KcmError> {
        let vars = &self.vars;
        on_tier!(&mut self.machine, m => m.begin_query_session(vars))?;
        Ok(Solutions {
            machine: self.machine,
            dead: false,
            pulled: 0,
            totals: RunStats::default(),
            output: String::new(),
        })
    }

    /// The Prolog-level monitor over every run so far: cycles attributed
    /// to each predicate, costliest first. Empty unless
    /// [`MachineConfig::profile`] was set on the cycle tier (the native
    /// tier has no clock to attribute).
    pub fn profile(&self) -> Vec<(String, u64)> {
        on_tier!(&self.machine, m => m.profile())
    }
}

/// One pulled solution with its slice accounting.
#[derive(Debug, Clone)]
pub struct SolutionStep {
    /// The solution, in the same shape [`crate::Outcome::solutions`] uses.
    pub solution: Solution,
    /// This pull's execution deltas (one budget slice).
    pub stats: RunStats,
    /// Host output produced during this slice.
    pub output: String,
}

/// A suspended query session: a pull-based stream of solutions.
///
/// Obtained from [`crate::Kcm::solutions`], [`open_session`] or
/// [`PreparedQuery::into_session`]. Pull with [`Solutions::next_step`]
/// for per-slice accounting, or use the [`Iterator`] impl for the
/// solutions alone. Dropping the session at any point releases the
/// machine — there is nothing else to clean up.
pub struct Solutions {
    machine: SessionMachine,
    dead: bool,
    pulled: u64,
    totals: RunStats,
    output: String,
}

impl Solutions {
    /// Runs the machine to its next solution and suspends there.
    ///
    /// Returns `Ok(None)` when the enumeration is exhausted (the final
    /// failing search's stats still accumulate into
    /// [`Solutions::totals`]). After an `Err` — a machine fault, or the
    /// per-slice budget running out mid-search — the session is dead:
    /// further calls return `Ok(None)`.
    ///
    /// # Errors
    ///
    /// A [`KcmError::Machine`] fault, including
    /// [`crate::MachineError::BudgetExhausted`] when one pull's budget
    /// slice is exhausted.
    pub fn next_step(&mut self) -> Result<Option<SolutionStep>, KcmError> {
        Ok(self
            .next_step_quantum(u64::MAX)?
            .done()
            .expect("an unbounded quantum runs to the end"))
    }

    /// Runs the current pull for at most `quantum` instructions:
    /// [`Quantum::Done`] with what [`Solutions::next_step`] would have
    /// returned, or [`Quantum::Paused`] when the quantum ran out first
    /// (call again to continue the same pull). The step budget bounds
    /// each pull across its quanta.
    ///
    /// # Errors
    ///
    /// As [`Solutions::next_step`].
    pub fn next_step_quantum(
        &mut self,
        quantum: u64,
    ) -> Result<Quantum<Option<SolutionStep>>, KcmError> {
        if self.exhausted() {
            return Ok(Quantum::Done(None));
        }
        let step = match on_tier!(&mut self.machine, m => m.pull_quantum(quantum)) {
            Ok(Quantum::Done(step)) => step,
            Ok(Quantum::Paused) => return Ok(Quantum::Paused),
            Err(e) => {
                self.dead = true;
                return Err(e.into());
            }
        };
        self.totals.cycle_ns = step.stats.cycle_ns;
        self.totals.merge(&step.stats);
        self.output.push_str(&step.output);
        Ok(Quantum::Done(step.solution.map(|solution| {
            self.pulled += 1;
            SolutionStep {
                solution,
                stats: step.stats,
                output: step.output,
            }
        })))
    }

    /// Whether the session has ended (exhausted, or dead after an error).
    pub fn exhausted(&self) -> bool {
        self.dead || on_tier!(&self.machine, m => m.session_exhausted())
    }

    /// Solutions pulled so far.
    pub fn pulled(&self) -> u64 {
        self.pulled
    }

    /// Accumulated stats over every slice pulled so far (including the
    /// final failing slice once the session is exhausted). Over a fully
    /// drained session these equal a one-shot enumerate-all run's stats.
    pub fn totals(&self) -> &RunStats {
        &self.totals
    }

    /// Accumulated host output over every slice pulled so far, or since
    /// the last [`Solutions::take_output`].
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Takes the accumulated output, leaving the session none: a host
    /// that streams a long enumeration's output holds only what it has
    /// not yet taken.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output)
    }
}

impl Iterator for Solutions {
    type Item = Result<Solution, KcmError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_step() {
            Ok(Some(step)) => Some(Ok(step.solution)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Opens a suspendable session for `query` against an already-linked
/// `image`: the standalone form of [`crate::Kcm::solutions`], taking the
/// image behind its sharing handle so servers can open cursors without a
/// `Kcm` front end (and keep streaming from a pinned image after a
/// republish). `opts.enumerate_all` is ignored — a session enumerates by
/// construction, the *caller* decides when to stop pulling.
///
/// # Errors
///
/// Query parse/compile errors, or a fault arming the session.
pub fn open_session(
    image: &Arc<CodeImage>,
    symbols: &SymbolTable,
    config: &MachineConfig,
    query: &str,
    opts: &QueryOpts,
) -> Result<Solutions, KcmError> {
    prepare_query(image, symbols, config, query, opts)?.into_session()
}
