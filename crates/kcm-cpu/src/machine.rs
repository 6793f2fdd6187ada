//! The KCM machine simulator.
//!
//! Executes linked KCM code at the instruction level while charging cycles
//! according to the documented micro-step model ([`kcm_arch::timing`]),
//! with the full memory system (logical caches, MMU, zone check) in the
//! loop. The distinctive KCM mechanisms are all here:
//!
//! * **Shallow backtracking** (§3.1.5): `try` saves three shadow registers
//!   instead of pushing a choice point; the choice point materialises only
//!   at `neck`, and a failure in the head or guard restores the shadows
//!   and jumps to the alternative with the argument registers untouched.
//! * **Trail hardware** (§3.1.5): the trail condition is evaluated in
//!   parallel with dereferencing — zero cycles on the default model.
//! * **Dereference assist** (§3.1.4): reference chains are followed at one
//!   data-cache access per link; non-pointer words abort the read.
//! * **MWAC dispatch** (§3.1.4): unification instructions branch 16 ways
//!   on the pair of operand types in one µcode step.

use crate::builtins::{self, BuiltinOutcome};
use crate::frames;
use crate::mwac::{Mwac, UnifyCase};
use crate::prefetch::{Prefetch, PrefetchStats};
use crate::profile::{InstrClass, Profile};
use crate::regfile::RegisterFile;
use kcm_arch::isa::{AluOp, Cond, Instr, Reg};
use kcm_arch::timing::Cycles;
use kcm_arch::{CodeAddr, CostModel, SymbolTable, Tag, VAddr, Word, Zone, ZoneLimits};
use kcm_compiler::CodeImage;
use kcm_mem::{DataMem, MemConfig, MemFault, MemStats, MemorySystem, ZoneFault};
use kcm_prolog::Term;
use std::sync::Arc;

/// Read/write mode of the unification instructions (§3.1.4: the mode flag
/// is "directly used for the decoding of the unification instructions").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    Write,
}

/// Configuration of a machine instance.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The cycle model.
    pub cost: CostModel,
    /// The memory system configuration.
    pub mem: MemConfig,
    /// Shallow backtracking enabled (§3.1.5). Disabling reproduces the
    /// eager choice points of the standard WAM (ablation). Only valid for
    /// code compiled with `deferred_choice_points` (the `neck` boundary):
    /// without necks the armed alternative is never converted into a
    /// choice point and backtracking past the clause loses it.
    pub shallow_backtracking: bool,
    /// Spread the initial stack tops across cache sections (§3.2.4
    /// experiment). Irrelevant when the cache is sectioned.
    pub spread_stack_bases: bool,
    /// Step budget for one `run`: the maximum number of *instructions*
    /// retired before the machine traps with
    /// [`MachineError::BudgetExhausted`]. The machine's only deadline, on
    /// both tiers. It is cost-model-independent — the same program
    /// exhausts the same step budget under every clock — which makes it
    /// the right per-request deadline for services and differential
    /// oracles. `u64::MAX` (the default) disables the cap.
    pub step_budget: u64,
    /// Macrocode monitor: keep the last `trace_depth` executed
    /// instructions (0 = off). One of the paper's monitor levels — "code
    /// generation tools […] monitors (at microcode, macrocode, and Prolog
    /// levels)" (§4).
    pub trace_depth: usize,
    /// Prolog-level monitor: attribute cycles to code addresses so
    /// [`Machine::profile`] can report per-predicate costs.
    pub profile: bool,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            cost: CostModel::default(),
            mem: MemConfig::default(),
            shallow_backtracking: true,
            spread_stack_bases: true,
            step_budget: u64::MAX,
            trace_depth: 0,
            profile: false,
        }
    }
}

/// Counters gathered during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Nanoseconds per cycle of the model that produced these counters.
    pub cycle_ns: f64,
    /// Total machine cycles (the paper's timings are cycles × 80 ns).
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Logical inferences (§4.2 definition: every source-level goal
    /// invocation including built-ins; cut not counted).
    pub inferences: u64,
    /// Choice points actually pushed.
    pub choice_points: u64,
    /// Shallow (try) entries that saved only shadow registers.
    pub shallow_entries: u64,
    /// Failures resolved shallowly (shadow restore, no choice point).
    pub shallow_fails: u64,
    /// Failures resolved from a choice point.
    pub deep_fails: u64,
    /// Trail entries pushed.
    pub trail_pushes: u64,
    /// Dereference chain links followed.
    pub deref_links: u64,
    /// Zone-limit traps serviced by growing the zone (stack growth).
    pub zone_growths: u64,
    /// Memory system counters.
    pub mem: MemStats,
    /// Prefetch pipeline counters.
    pub prefetch: PrefetchStats,
}

impl Default for RunStats {
    fn default() -> RunStats {
        RunStats {
            cycle_ns: kcm_arch::timing::CYCLE_NS,
            cycles: 0,
            instructions: 0,
            inferences: 0,
            choice_points: 0,
            shallow_entries: 0,
            shallow_fails: 0,
            deep_fails: 0,
            trail_pushes: 0,
            deref_links: 0,
            zone_growths: 0,
            mem: MemStats::default(),
            prefetch: PrefetchStats::default(),
        }
    }
}

impl RunStats {
    /// Milliseconds at the producing model's clock.
    pub fn ms(&self) -> f64 {
        self.cycles as f64 * self.cycle_ns / 1.0e6
    }

    /// Klips for this run (§4.2 definition of inference).
    pub fn klips(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.inferences as f64 / (self.cycles as f64 * self.cycle_ns * 1.0e-9) / 1000.0
    }

    /// Adds another session's counters into this aggregate: every counter
    /// (including `cycles`) sums; `cycle_ns` is kept from `self` (merging
    /// runs from different cost models has no single clock). Per-session
    /// stats stay meaningful on their own — merging is for pool-level
    /// throughput accounting, not for the per-program Klips tables.
    pub fn merge(&mut self, other: &RunStats) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.inferences += other.inferences;
        self.choice_points += other.choice_points;
        self.shallow_entries += other.shallow_entries;
        self.shallow_fails += other.shallow_fails;
        self.deep_fails += other.deep_fails;
        self.trail_pushes += other.trail_pushes;
        self.deref_links += other.deref_links;
        self.zone_growths += other.zone_growths;
        self.mem.merge(&other.mem);
        self.prefetch.merge(&other.prefetch);
    }

    /// Deterministic aggregate of per-session stats: the sessions' counters
    /// summed in iteration order. An empty iterator yields the zero stats.
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a RunStats>) -> RunStats {
        let mut iter = stats.into_iter();
        let mut out = match iter.next() {
            Some(first) => *first,
            None => return RunStats::default(),
        };
        for s in iter {
            out.merge(s);
        }
        out
    }

    /// The per-run delta between this cumulative snapshot and an earlier
    /// snapshot of the same counters: every counter subtracts;
    /// `cycle_ns` is kept from `self`. This is how [`Machine::run`]
    /// turns its lifetime accumulators into per-run statistics, so a
    /// reused session never double-counts earlier runs.
    pub fn delta_since(&self, earlier: &RunStats) -> RunStats {
        RunStats {
            cycle_ns: self.cycle_ns,
            cycles: self.cycles - earlier.cycles,
            instructions: self.instructions - earlier.instructions,
            inferences: self.inferences - earlier.inferences,
            choice_points: self.choice_points - earlier.choice_points,
            shallow_entries: self.shallow_entries - earlier.shallow_entries,
            shallow_fails: self.shallow_fails - earlier.shallow_fails,
            deep_fails: self.deep_fails - earlier.deep_fails,
            trail_pushes: self.trail_pushes - earlier.trail_pushes,
            deref_links: self.deref_links - earlier.deref_links,
            zone_growths: self.zone_growths - earlier.zone_growths,
            mem: self.mem.delta_since(&earlier.mem),
            prefetch: self.prefetch.delta_since(&earlier.prefetch),
        }
    }
}

/// One solution: the query variables with their binding terms.
pub type Solution = Vec<(String, Term)>;

/// The result of running a query.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether at least one solution was found.
    pub success: bool,
    /// The collected solutions (one for a first-solution run; all of them
    /// for an enumerating run).
    pub solutions: Vec<Solution>,
    /// Execution counters.
    pub stats: RunStats,
    /// Per-run execution profile (instruction classes, MWAC and switch
    /// outcomes, trail checks, deref histogram).
    pub profile: Profile,
    /// Host output captured from `write/1`, `nl/0`, `tab/1`.
    pub output: String,
    /// The macrocode monitor's trace window at halt: the last
    /// [`MachineConfig::trace_depth`] executed instructions. Empty when
    /// tracing is off.
    pub trace: Vec<String>,
}

/// One pulled slice of a suspendable query session (see
/// [`Machine::begin_query_session`]): the solution the machine suspended
/// at, plus that slice's execution deltas.
#[derive(Debug, Clone)]
pub struct SessionStep {
    /// The reported solution, or `None` when the session ran to final
    /// failure (the enumeration is exhausted) instead of suspending.
    pub solution: Option<Solution>,
    /// Per-slice counters: this `next_solution` call only. Summed over
    /// every slice of a session they equal the stats of a one-shot
    /// enumerate-all [`Machine::run_query`] of the same query.
    pub stats: RunStats,
    /// Host output (`write/1`, `nl/0`, `tab/1`) produced during this
    /// slice.
    pub output: String,
}

/// How one quantum of a run or pull ended (see [`Machine::run_quantum`]
/// and [`Machine::pull_quantum`]).
#[derive(Debug, Clone)]
pub enum Quantum<T> {
    /// The quantum ran out at an instruction boundary before the run or
    /// pull ended. P holds the next instruction, and the next quantum
    /// resumes there.
    Paused,
    /// The run or pull ended with this result.
    Done(T),
}

impl<T> Quantum<T> {
    /// The result of an ended run or pull; `None` while paused.
    pub fn done(self) -> Option<T> {
        match self {
            Quantum::Paused => None,
            Quantum::Done(t) => Some(t),
        }
    }
}

/// A machine-level error (on the real machine: a trap to the monitor).
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// Memory system fault (zone trap that could not be serviced, etc.).
    Mem(MemFault),
    /// P left the loaded code (or landed mid-instruction).
    BadCodeAddress(CodeAddr),
    /// The step budget ([`MachineConfig::step_budget`]) was exhausted: the
    /// run was stopped by a deadline, not by a fault in the program or the
    /// machine. Callers use this to tell a cancelled runaway query apart
    /// from a genuine error.
    BudgetExhausted {
        /// Instructions retired when the budget ran out.
        steps: u64,
    },
    /// Arithmetic on a non-number or similar type fault.
    TypeFault(String),
    /// The decoded instruction is not implemented by this machine model
    /// (a gap in the simulator, not a Prolog-level fault — callers can
    /// tell the two apart). Carries the decoded instruction.
    UnimplementedInstr(Box<Instr>),
    /// Arithmetic on an unbound variable.
    Instantiation(String),
    /// A term too deep to decode (likely a cyclic term).
    TermDepth,
    /// Division by zero.
    ZeroDivisor,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Mem(e) => write!(f, "memory fault: {e}"),
            MachineError::BadCodeAddress(a) => write!(f, "bad code address {a}"),
            MachineError::BudgetExhausted { steps } => {
                write!(f, "step budget exhausted after {steps} steps")
            }
            MachineError::TypeFault(m) => write!(f, "type fault: {m}"),
            MachineError::UnimplementedInstr(i) => {
                write!(f, "unimplemented instruction: {i}")
            }
            MachineError::Instantiation(m) => {
                write!(f, "arguments insufficiently instantiated: {m}")
            }
            MachineError::TermDepth => write!(f, "term too deep to decode"),
            MachineError::ZeroDivisor => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<MemFault> for MachineError {
    fn from(e: MemFault) -> MachineError {
        MachineError::Mem(e)
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Psw {
    lt: bool,
    eq: bool,
    gt: bool,
}

impl Psw {
    fn holds(self, c: Cond) -> bool {
        match c {
            Cond::Eq => self.eq,
            Cond::Ne => !self.eq,
            Cond::Lt => self.lt,
            Cond::Le => self.lt || self.eq,
            Cond::Gt => self.gt,
            Cond::Ge => self.gt || self.eq,
        }
    }
}

/// The KCM processor plus its private memory, loaded with a code image.
///
/// Generic over the data-memory backend `M`: the default
/// [`MemorySystem`] is the cycle-accurate hierarchy (caches, MMU,
/// paging); the native tier instantiates the same interpreter over
/// `kcm-native`'s flat uncosted store. `M::SIMULATED` is a
/// monomorphization-time switch — the native copy of this code carries
/// no cycle accounting, prefetch modelling or per-instruction profile
/// attribution at all, while the architectural semantics (and therefore
/// solutions, output and error classes) are shared down to the line.
#[derive(Debug)]
pub struct Machine<M: DataMem = MemorySystem> {
    pub(crate) regs: RegisterFile,
    pub(crate) mem: M,
    image: Arc<CodeImage>,
    pub(crate) symbols: SymbolTable,
    cfg: MachineConfig,
    mwac: Mwac,
    prefetch: Prefetch,

    // --- state registers (held in the register file on real KCM) ---
    p: CodeAddr,
    cp: CodeAddr,
    e: Option<VAddr>,
    b: Option<VAddr>,
    b0: Option<VAddr>,
    pub(crate) h: VAddr,
    hb: VAddr,
    s: VAddr,
    tr: VAddr,
    mode: Mode,
    shallow: bool,
    cpflag: bool,
    fa: Option<CodeAddr>,
    shadow_h: VAddr,
    shadow_tr: VAddr,
    arity: u8,
    psw: Psw,

    // caches of fields of the current B frame (valid while b.is_some())
    b_arity: u8,
    b_lt: VAddr,

    // --- bookkeeping ---
    /// Host/monitor access mode: reads bypass the cache and cost nothing
    /// (the paper's benchmarks cost `write/1` as a flat 5-cycle escape —
    /// the host walks the term over the interface, off the machine clock).
    untimed: bool,
    /// Lifetime counters of the machine's own events, cycles included;
    /// the memory and prefetch counters live in their subsystems.
    stats: RunStats,
    prof: Profile,
    pub(crate) output: String,
    solutions: Vec<Solution>,
    trace: std::collections::VecDeque<String>,
    /// Per-address cycle attribution, indexed by code word address (flat
    /// — the machine touches it on every retired instruction when
    /// [`MachineConfig::profile`] is set). Grown on demand, so it stays
    /// empty when profiling is off and survives image reloads.
    profile: Vec<u64>,
    /// Scratch stack reused across unifications (unification is the
    /// single most frequent operation; a fresh allocation per call would
    /// dominate its host cost). Taken while a unification runs, so a
    /// re-entrant call just falls back to a fresh vector.
    unify_stack: Vec<(Word, Word)>,
    /// Scratch stack reused across occur-checks, same discipline.
    occurs_stack: Vec<Word>,
    query_vars: Vec<String>,
    enumerate_all: bool,
    /// Suspendable-session mode: the solution reporter yields control to
    /// the host instead of failing through to the next answer. See
    /// [`Machine::begin_query_session`].
    yield_solutions: bool,
    /// Set when the machine suspended at a reported solution and the
    /// pending backtrack (the reporter's `Fail`) has not run yet.
    yielded: bool,
    /// Set when a quantum ran out before the run or pull ended: P holds
    /// the next instruction and the next slice resumes there.
    paused: bool,
    halted: Option<bool>,
    /// Where the current run or pull began, held across its quanta: the
    /// instruction count its step budget is metered from, and the
    /// counters (and, for a one-shot run, the profile) its deltas are
    /// reported against.
    budget_from: u64,
    span_stats: RunStats,
    span_profile: Profile,

    heap_base: VAddr,
    local_base: VAddr,
    control_base: VAddr,
}

/// The result of a run or pull given one unbounded quantum, which no
/// machine can pause: it would have to retire 2⁶⁴ instructions first.
fn to_end<T>(quantum: Quantum<T>) -> T {
    quantum
        .done()
        .expect("an unbounded quantum runs to the end")
}

impl Machine {
    /// Creates a machine loaded with `image`: the loader installs the
    /// static data area (ground literals) and write-protects the static
    /// zone before execution. The backend is the cycle-accurate
    /// [`MemorySystem`]; [`Machine::with_backend`] selects another.
    pub fn new(image: CodeImage, symbols: SymbolTable, cfg: MachineConfig) -> Machine {
        Machine::with_backend(Arc::new(image), symbols, cfg)
    }
}

impl<M: DataMem> Machine<M> {
    /// Creates a machine over an explicit data-memory backend `M`, for
    /// an image behind an [`Arc`]: the compiled code (and, for a query
    /// overlay, the program below it) is shared immutably between
    /// machines — and across threads, `Machine` is `Send` — while this
    /// machine owns its registers, caches, heap zones and trail. The
    /// loader installs the static data area (ground literals) and
    /// write-protects the static zone before execution, whatever the
    /// backend.
    pub fn with_backend(
        image: Arc<CodeImage>,
        symbols: SymbolTable,
        cfg: MachineConfig,
    ) -> Machine<M> {
        let spread = cfg.spread_stack_bases;
        let mem = M::with_config(cfg.mem.clone());
        let heap_base = MemorySystem::stack_base(Zone::Global, spread);
        let local_base = MemorySystem::stack_base(Zone::Local, spread);
        let control_base = MemorySystem::stack_base(Zone::Control, spread);
        let trail_base = MemorySystem::stack_base(Zone::Trail, spread);
        let mut m = Machine {
            regs: RegisterFile::new(),
            mem,
            image,
            symbols,
            cfg,
            mwac: Mwac::new(),
            prefetch: Prefetch::new(),
            p: CodeAddr::new(0),
            cp: kcm_compiler::link::HALT_STUB,
            e: None,
            b: None,
            b0: None,
            h: heap_base,
            hb: heap_base,
            s: heap_base,
            tr: trail_base,
            mode: Mode::Read,
            shallow: false,
            cpflag: false,
            fa: None,
            shadow_h: heap_base,
            shadow_tr: trail_base,
            arity: 0,
            psw: Psw::default(),
            b_arity: 0,
            b_lt: local_base,
            untimed: false,
            stats: RunStats::default(),
            prof: Profile::default(),
            output: String::new(),
            solutions: Vec::new(),
            trace: std::collections::VecDeque::new(),
            profile: Vec::new(),
            unify_stack: Vec::new(),
            occurs_stack: Vec::new(),
            query_vars: Vec::new(),
            enumerate_all: false,
            yield_solutions: false,
            yielded: false,
            paused: false,
            halted: None,
            budget_from: 0,
            span_stats: RunStats::default(),
            span_profile: Profile::default(),
            heap_base,
            local_base,
            control_base,
        };
        m.install_static_data();
        m
    }

    /// Loader step: copies the image's static data area into machine
    /// memory and write-protects the static zone (§3.2.3: "each zone may
    /// be write-protected").
    fn install_static_data(&mut self) {
        let image = Arc::clone(&self.image);
        let (base, words) = image.static_data();
        for (i, w) in words.iter().enumerate() {
            self.mem
                .poke(base.offset(i as i64), *w)
                .expect("static area fits in the zone");
        }
        let limits = self.mem.zones().limits(Zone::Static).write_protected();
        self.mem.zones_mut().set_limits(Zone::Static, limits);
    }

    /// The symbol table the image was compiled with.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// The loaded code image.
    pub fn image(&self) -> &CodeImage {
        &self.image
    }

    /// Runs the image's `$query/0` entry. `enumerate_all` makes the
    /// solution reporter fail so the machine backtracks through every
    /// solution.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] on machine faults; plain failure of the
    /// query is *not* an error (it is an [`Outcome`] with
    /// `success == false`).
    pub fn run_query(
        &mut self,
        query_vars: &[String],
        enumerate_all: bool,
    ) -> Result<Outcome, MachineError> {
        self.begin_query_run(query_vars, enumerate_all)?;
        Ok(to_end(self.run_quantum(u64::MAX)?))
    }

    /// Arms a one-shot run of the image's `$query/0` entry without
    /// running anything: [`Machine::run_quantum`] then runs it a quantum
    /// at a time. Run to its end, it is [`Machine::run_query`].
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::BadCodeAddress`] if the image has no query
    /// entry.
    pub fn begin_query_run(
        &mut self,
        query_vars: &[String],
        enumerate_all: bool,
    ) -> Result<(), MachineError> {
        self.arm_query(query_vars, enumerate_all, false)
    }

    /// Arms a suspendable query session on the image's `$query/0` entry:
    /// the machine will run to the next solution each time
    /// [`Machine::next_solution`] is called, suspend there, and resume
    /// through the ordinary failure/backtrack path on the next call.
    ///
    /// Because suspension happens *inside* the solution reporter — before
    /// the `Fail` an enumerate-all run would take — the sequence of
    /// executed instructions over a fully drained session is identical to
    /// an uninterrupted `run_query(vars, true)`, so solution set, order,
    /// output and inference counts all match by construction.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::BadCodeAddress`] if the image has no query
    /// entry.
    pub fn begin_query_session(&mut self, query_vars: &[String]) -> Result<(), MachineError> {
        self.arm_query(query_vars, true, true)
    }

    /// Arms a run on the image's `$query/0` entry (see [`Machine::arm`]).
    fn arm_query(
        &mut self,
        query_vars: &[String],
        enumerate_all: bool,
        yield_solutions: bool,
    ) -> Result<(), MachineError> {
        let entry = self
            .image
            .query_entry()
            .ok_or(MachineError::BadCodeAddress(CodeAddr::new(0)))?;
        if self.query_vars != query_vars {
            self.query_vars = query_vars.to_vec();
        }
        self.enumerate_all = enumerate_all;
        self.arm(entry, yield_solutions);
        Ok(())
    }

    /// The one arm step under both drivers: clears the previous run's
    /// solutions, output and halt state and points P at `entry`. With
    /// `yield_solutions` the solution reporter suspends the machine
    /// (a session); without it the run goes to halt (a one-shot run).
    fn arm(&mut self, entry: CodeAddr, yield_solutions: bool) {
        self.halted = None;
        self.yield_solutions = yield_solutions;
        self.yielded = false;
        self.paused = false;
        self.span_profile = self.prof;
        self.solutions.clear();
        self.output.clear();
        self.p = entry;
        self.cp = kcm_compiler::link::HALT_STUB;
    }

    /// The one slice step under both drivers, for at most `quantum`
    /// instructions. It starts a run or pull (resuming a suspended
    /// session through the failure path the reporter's `Fail` would have
    /// taken) or resumes a paused one, then drives to the next yield,
    /// halt or pause. Once the run or pull has ended it returns the
    /// counter deltas since its start; `None` means the quantum ran out
    /// first. The step budget is metered from the start of the run or
    /// pull across all its quanta, so a one-shot run is bounded as a
    /// whole and a session per pull, whatever the quantum.
    fn slice(&mut self, quantum: u64) -> Result<Option<RunStats>, MachineError> {
        if self.paused {
            self.paused = false;
        } else {
            self.span_stats = self.lifetime_stats();
            if self.halted.is_none() && self.yielded {
                self.yielded = false;
                self.fail()?;
            }
            self.budget_from = self.stats.instructions;
        }
        if self.halted.is_none() {
            self.drive(quantum)?;
            if self.paused {
                return Ok(None);
            }
        }
        Ok(Some(self.lifetime_stats().delta_since(&self.span_stats)))
    }

    /// Whether the armed session has run to completion (no further
    /// solutions will be produced).
    pub fn session_exhausted(&self) -> bool {
        self.halted.is_some()
    }

    /// Runs the armed session to its next solution and suspends there,
    /// or to final failure: one pull, in one unbounded quantum. The step
    /// budget restarts from zero on every pull, so it bounds the work of
    /// one pull, not of the whole enumeration.
    ///
    /// The decoded solution is handed out (not retained), and host output
    /// is drained per slice, so a session streaming millions of answers
    /// holds only the machine state — never the materialized answer set.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] on machine faults, including
    /// [`MachineError::BudgetExhausted`] when the slice's budget runs out
    /// mid-search. After an error the session is dead: the machine is
    /// mid-backtrack and must not be resumed.
    pub fn next_solution(&mut self) -> Result<SessionStep, MachineError> {
        Ok(to_end(self.pull_quantum(u64::MAX)?))
    }

    /// Runs the armed session's current pull for at most `quantum`
    /// instructions (at least one): a pull that ends within it returns
    /// its [`SessionStep`], as [`Machine::next_solution`] would; one that
    /// does not pauses, and the next call continues it. Pausing is
    /// invisible to the machine: the pull retires the same instructions,
    /// trips its budget at the same step and reports the same counters,
    /// whatever the quantum.
    ///
    /// # Errors
    ///
    /// As [`Machine::next_solution`].
    pub fn pull_quantum(&mut self, quantum: u64) -> Result<Quantum<SessionStep>, MachineError> {
        let Some(stats) = self.slice(quantum)? else {
            return Ok(Quantum::Paused);
        };
        let solution = if self.halted.is_some() {
            self.solutions.clear();
            None
        } else {
            self.solutions.pop()
        };
        Ok(Quantum::Done(SessionStep {
            solution,
            stats,
            output: std::mem::take(&mut self.output),
        }))
    }

    /// Runs from an arbitrary entry address until halt or final failure.
    ///
    /// All reported statistics are **per-run deltas**: every counter —
    /// including the memory-system and prefetch counters, which are
    /// accumulated inside their subsystems over the machine's lifetime —
    /// is snapshotted at entry and reported relative to that snapshot.
    /// A machine reused for a second run therefore never double-counts
    /// the first run's cache hits, misses or page faults.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] on machine faults.
    pub fn run(&mut self, entry: CodeAddr) -> Result<Outcome, MachineError> {
        self.arm(entry, false);
        Ok(to_end(self.run_quantum(u64::MAX)?))
    }

    /// Runs the armed one-shot run (see [`Machine::begin_query_run`]) for
    /// at most `quantum` instructions (at least one). A run that ends
    /// within it returns its [`Outcome`], with the per-run [`Profile`]
    /// delta and trace window; one that does not pauses, and the next
    /// call continues it. Pausing is host-only: the run retires the same
    /// instructions, trips its budget at the same step and reports the
    /// same solutions, output, counters, profile and trace window as an
    /// uninterrupted run, and no simulated counter moves.
    ///
    /// # Errors
    ///
    /// As [`Machine::run_query`]; after an error the run is dead.
    pub fn run_quantum(&mut self, quantum: u64) -> Result<Quantum<Outcome>, MachineError> {
        let Some(stats) = self.slice(quantum)? else {
            return Ok(Quantum::Paused);
        };
        let profile = self.prof.delta_since(&self.span_profile);
        let success = self.halted == Some(true) || !self.solutions.is_empty();
        Ok(Quantum::Done(Outcome {
            success,
            solutions: std::mem::take(&mut self.solutions),
            stats,
            profile,
            output: std::mem::take(&mut self.output),
            trace: self.trace(),
        }))
    }

    /// Drives the machine until it halts, yields at a reported solution
    /// (in a suspendable session), or has retired `quantum` instructions
    /// and pauses. The instruction loop makes one step-limit compare per
    /// step: the limit is the budget's trip point or the quantum's last
    /// instruction, whichever comes first.
    ///
    /// The decoded stream is run one [`kcm_arch::image::Span`] at a
    /// time — one code chunk of the program or of a query overlay — so
    /// leaving a span costs one predictable range check per step.
    fn drive(&mut self, quantum: u64) -> Result<(), MachineError> {
        let limit = self
            .budget_from
            .saturating_add(self.cfg.step_budget)
            .min(self.stats.instructions.saturating_add(quantum.max(1) - 1));
        // One refcount bump per quantum: the image is never replaced
        // while the machine is stepping (consulting happens between runs),
        // so the hot loop can borrow it without per-step `Arc` traffic.
        let image = Arc::clone(&self.image);
        if self.cfg.trace_depth > 0 {
            return self.drive_traced(&image, limit);
        }
        let mut idx = image
            .index_of(self.p)
            .ok_or(MachineError::BadCodeAddress(self.p))?;
        while let Some(next) = self.run_span(&image, image.span(idx), idx, limit)? {
            idx = next;
        }
        Ok(())
    }

    /// [`Machine::drive`] for a run that fills the macrocode monitor's
    /// window: one instruction per [`Machine::run_span`] call, its step
    /// limit set to pause after that instruction, and each window entry
    /// pushed before its step. Pausing moves no counter, so the run
    /// retires the same instructions, trips its budget at the same step
    /// and counts the same as an untraced one, and the instruction loop
    /// itself carries no trace test.
    #[cold]
    #[inline(never)]
    fn drive_traced(&mut self, image: &CodeImage, limit: u64) -> Result<(), MachineError> {
        loop {
            let idx = image
                .index_of(self.p)
                .ok_or(MachineError::BadCodeAddress(self.p))?;
            let span = image.span(idx);
            let instr = &span.instrs[(idx - span.start) as usize];
            if self.trace.len() == self.cfg.trace_depth {
                self.trace.pop_front();
            }
            self.trace
                .push_back(format!("{:6}  {}", self.p.value(), instr));
            self.run_span(image, span, idx, self.stats.instructions)?;
            // Not paused: the step halted or yielded.
            if !self.paused || self.stats.instructions > limit {
                return Ok(());
            }
            self.paused = false;
        }
    }

    /// The step limit was passed. The budget is checked first: past its
    /// trip point the run fails with [`MachineError::BudgetExhausted`],
    /// even on an instruction that halted or yielded. Otherwise the
    /// quantum ended, and a run that has not halted or yielded pauses.
    #[cold]
    fn limit_reached(&mut self) -> Result<(), MachineError> {
        let steps = self.stats.instructions - self.budget_from;
        if steps > self.cfg.step_budget {
            return Err(MachineError::BudgetExhausted { steps });
        }
        self.paused = self.halted.is_none() && !self.yielded;
        Ok(())
    }

    /// The instruction loop of both tiers, within one span from stream
    /// index `idx`: enum dispatch over the decoded stream with the
    /// image's pre-resolved fall-through addresses and indices (its
    /// dispatch table, built once per image and shared by every
    /// machine). Returns the index control left the span for, or `None`
    /// once the run halted, yielded or paused. The cycle model's work
    /// per step sits in two `M::SIMULATED` blocks, which the native
    /// tier's copy compiles out.
    fn run_span(
        &mut self,
        image: &CodeImage,
        span: kcm_arch::image::Span<'_>,
        mut idx: u32,
        limit: u64,
    ) -> Result<Option<u32>, MachineError> {
        let (start, instrs, resolved) = (span.start, span.instrs, span.next);
        loop {
            let Some(instr) = instrs.get(idx.wrapping_sub(start) as usize) else {
                return Ok(Some(idx));
            };
            let addr = self.p;
            let before = self.stats.cycles;
            // Instruction fetch through the code cache (prefetch streams
            // sequential words; misses charge their penalty).
            if M::SIMULATED {
                let words = instr.size_words();
                let extra = self.mem.fetch_code_seq(addr, words);
                self.charge(extra);
                self.prefetch.issue(addr, words);
                self.charge(self.cfg.cost.instr_overhead);
            }
            self.stats.instructions += 1;
            let packed = resolved[(idx - start) as usize];
            let np = packed as u32;
            self.p = CodeAddr::new(np);
            let r = self.exec_body(instr, image, idx);
            // Every cycle of the step — fetch, overhead and execution —
            // is attributed to the opcode's class (and, when profiling,
            // to its address), even if the instruction faulted.
            if M::SIMULATED {
                let delta = self.stats.cycles - before;
                self.prof.retire(InstrClass::of(instr), delta);
                if self.cfg.profile {
                    let slot = addr.value() as usize;
                    if slot >= self.profile.len() {
                        self.profile.resize(slot + 1, 0);
                    }
                    self.profile[slot] += delta;
                }
            }
            r?;
            if self.stats.instructions > limit {
                return self.limit_reached().map(|()| None);
            }
            if self.halted.is_some() || self.yielded {
                return Ok(None);
            }
            // Fall-through takes the resolved index; a transfer, or a
            // fall-through the table leaves unresolved (a program's last
            // word running into a query overlay), looks the address up.
            let ni = (packed >> 32) as u32;
            idx = if self.p.value() == np && ni != u32::MAX {
                ni
            } else {
                match image.index_of(self.p) {
                    Some(i) => i,
                    None => return Err(MachineError::BadCodeAddress(self.p)),
                }
            };
        }
    }

    /// The macrocode monitor's window: the last `trace_depth` executed
    /// instructions (empty when tracing is off).
    pub fn trace(&self) -> Vec<String> {
        self.trace.iter().cloned().collect()
    }

    /// The Prolog-level monitor: cycles attributed to each predicate,
    /// sorted by cost (descending). Cycles spent in the linker stubs and
    /// the query wrapper report as `$system`. Empty unless
    /// [`MachineConfig::profile`] was set.
    pub fn profile(&self) -> Vec<(String, u64)> {
        let mut per_pred: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        'addrs: for (addr, &cycles) in self.profile.iter().enumerate() {
            if cycles == 0 {
                continue;
            }
            let addr = addr as u32;
            for size in self.image.sizes() {
                if addr >= size.start && addr < size.end {
                    *per_pred.entry(size.id.to_string()).or_insert(0) += cycles;
                    continue 'addrs;
                }
            }
            *per_pred.entry("$system".to_owned()).or_insert(0) += cycles;
        }
        let mut out: Vec<(String, u64)> = per_pred.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Cumulative statistics over the machine's lifetime.
    pub fn lifetime_stats(&self) -> RunStats {
        let mut s = self.stats;
        s.cycle_ns = self.cfg.cost.cycle_ns;
        s.mem = self.mem.stats();
        s.prefetch = self.prefetch.stats();
        s
    }

    // ------------------------------------------------------------ plumbing

    #[inline]
    fn charge(&mut self, c: Cycles) {
        // Resolved at monomorphization time: the native tier's copy of
        // every charge site compiles to nothing.
        if M::SIMULATED {
            self.stats.cycles += c;
        }
    }

    fn dptr(addr: VAddr) -> Word {
        Word::ptr(Tag::DataPtr, addr)
    }

    /// One data read: one cache cycle plus miss extras. In untimed
    /// (host/monitor) mode the read bypasses the cache and is free.
    #[inline]
    fn read_data(&mut self, addr: VAddr) -> Result<Word, MachineError> {
        if self.untimed {
            return Ok(self.mem.peek(addr)?);
        }
        let (w, extra) = self.mem.read_data_addr(addr)?;
        self.charge(self.cfg.cost.heap_read + extra);
        Ok(w)
    }

    /// Runs `f` with host/monitor memory access (untimed, cache-bypassing).
    pub(crate) fn with_host_access<T>(
        &mut self,
        f: impl FnOnce(&mut Machine<M>) -> Result<T, MachineError>,
    ) -> Result<T, MachineError> {
        let prev = self.untimed;
        self.untimed = true;
        let r = f(self);
        self.untimed = prev;
        r
    }

    /// One data write: one cache cycle plus miss extras. Zone-limit traps
    /// are serviced by growing the zone (the stack-growth trap handler of
    /// §3.2.3) and retrying once.
    #[inline(always)]
    fn write_data(&mut self, addr: VAddr, w: Word) -> Result<(), MachineError> {
        match self.mem.write_data_addr(addr, w) {
            Ok(extra) => {
                self.charge(self.cfg.cost.heap_write + extra);
                Ok(())
            }
            Err(MemFault::Zone(ZoneFault::OutOfZone { zone, .. })) => {
                self.grow_zone(zone, addr)?;
                let extra = self.mem.write_data_addr(addr, w)?;
                self.charge(self.cfg.cost.heap_write + extra);
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    fn grow_zone(&mut self, zone: Zone, need: VAddr) -> Result<(), MachineError> {
        let limits = self.mem.zones().limits(zone);
        let new_end = need
            .value()
            .saturating_add(1 << 20)
            .min(zone.region_end().value());
        if new_end <= limits.end().value() || need.value() >= zone.region_end().value() {
            // Cannot grow further: surface the trap.
            return Err(MemFault::Zone(ZoneFault::OutOfZone { zone, addr: need }).into());
        }
        self.mem
            .zones_mut()
            .set_limits(zone, ZoneLimits::new(limits.start(), VAddr::new(new_end)));
        self.stats.zone_growths += 1;
        // Trap service cost: monitor entry, limit RAM update, return.
        self.charge(20);
        Ok(())
    }

    /// Dereference: follow the reference chain at one data access per link
    /// (§3.1.4). Returns either a non-reference word or the self-reference
    /// of an unbound cell.
    pub(crate) fn deref(&mut self, mut w: Word) -> Result<Word, MachineError> {
        let mut links: usize = 0;
        loop {
            if w.tag_checked() != Some(Tag::Ref) {
                // Chain-length attribution is profile bookkeeping: the
                // native tier does not keep it (monomorphized away).
                if M::SIMULATED {
                    self.prof.record_deref_chain(links);
                }
                return Ok(w);
            }
            let addr = w.as_addr().expect("ref carries an address");
            let cell = self.read_data(addr)?;
            self.stats.deref_links += 1;
            links += 1;
            self.charge(self.cfg.cost.deref_link);
            if cell.is_unbound_at(addr) {
                if M::SIMULATED {
                    self.prof.record_deref_chain(links);
                }
                return Ok(cell);
            }
            w = cell;
        }
    }

    /// Whether binding the cell at `addr` must be trailed. Evaluated by
    /// the trail hardware in parallel with dereferencing — no cycles on
    /// the default model.
    fn must_trail(&self, addr: VAddr) -> bool {
        match Zone::of_addr(addr) {
            Some(Zone::Global) => addr.value() < self.hb.value(),
            Some(Zone::Local) => {
                let shallow_active = self.shallow && !self.cpflag && self.fa.is_some();
                shallow_active || (self.b.is_some() && addr.value() < self.b_lt.value())
            }
            _ => false,
        }
    }

    /// Binds the unbound cell at `addr` to `value`, trailing if required.
    pub(crate) fn bind(&mut self, addr: VAddr, value: Word) -> Result<(), MachineError> {
        self.write_data(addr, value)?;
        self.charge(self.cfg.cost.bind + self.cfg.cost.trail_check_sw);
        if M::SIMULATED {
            self.prof.trail_checks += 1;
        }
        if self.must_trail(addr) {
            let tr = self.tr;
            self.write_data(tr, Self::dptr(addr))?;
            self.tr = self.tr.offset(1);
            self.charge(self.cfg.cost.trail_push);
            self.stats.trail_pushes += 1;
        }
        Ok(())
    }

    /// Binds one of two dereferenced words to the other, preferring to
    /// bind local to global and younger to older (standard WAM rules that
    /// minimise trailing and dangling references).
    fn bind_pair(&mut self, a: Word, b: Word) -> Result<(), MachineError> {
        let aa = a.as_addr().expect("unbound ref");
        match b.tag_checked() {
            Some(Tag::Ref) => {
                let ba = b.as_addr().expect("unbound ref");
                if aa == ba {
                    return Ok(()); // same variable
                }
                let a_local = Zone::of_addr(aa) == Some(Zone::Local);
                let b_local = Zone::of_addr(ba) == Some(Zone::Local);
                let bind_a = match (a_local, b_local) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => aa.value() > ba.value(), // younger to older
                };
                if bind_a {
                    self.bind(aa, Word::reference(ba))
                } else {
                    self.bind(ba, Word::reference(aa))
                }
            }
            _ => self.bind(aa, b),
        }
    }

    /// General unification with MWAC dispatch per node pair.
    pub(crate) fn unify(&mut self, a: Word, b: Word) -> Result<bool, MachineError> {
        self.unify_impl(a, b, false)
    }

    /// Sound unification: fails where binding would create a cyclic term.
    pub(crate) fn unify_occurs(&mut self, a: Word, b: Word) -> Result<bool, MachineError> {
        self.unify_impl(a, b, true)
    }

    /// Whether the variable cell at `var` occurs in (the dereferenced)
    /// term `w`.
    fn occurs_in(&mut self, var: VAddr, w: Word) -> Result<bool, MachineError> {
        let mut stack = std::mem::take(&mut self.occurs_stack);
        stack.clear();
        stack.push(w);
        let r = self.occurs_in_loop(var, &mut stack);
        self.occurs_stack = stack;
        r
    }

    fn occurs_in_loop(&mut self, var: VAddr, stack: &mut Vec<Word>) -> Result<bool, MachineError> {
        while let Some(w) = stack.pop() {
            let w = self.deref(w)?;
            match w.tag() {
                Tag::Ref if w.as_addr() == Some(var) => return Ok(true),
                Tag::Ref => {}
                Tag::List => {
                    let p = w.as_addr().expect("list");
                    stack.push(self.read_data(p)?);
                    stack.push(self.read_data(p.offset(1))?);
                }
                Tag::Struct => {
                    let p = w.as_addr().expect("struct");
                    let f = self
                        .read_data(p)?
                        .as_functor()
                        .ok_or_else(|| MachineError::TypeFault("corrupt structure".into()))?;
                    let arity = self.symbols.functor_arity(f);
                    for i in 1..=arity as i64 {
                        let cell = self.read_data(p.offset(i))?;
                        stack.push(cell);
                    }
                }
                _ => {}
            }
        }
        Ok(false)
    }

    fn unify_impl(&mut self, a: Word, b: Word, occurs: bool) -> Result<bool, MachineError> {
        let mut stack = std::mem::take(&mut self.unify_stack);
        stack.clear();
        stack.push((a, b));
        let r = self.unify_loop(&mut stack, occurs);
        self.unify_stack = stack;
        r
    }

    fn unify_loop(
        &mut self,
        stack: &mut Vec<(Word, Word)>,
        occurs: bool,
    ) -> Result<bool, MachineError> {
        while let Some((a, b)) = stack.pop() {
            let a = self.deref(a)?;
            let b = self.deref(b)?;
            self.charge(self.cfg.cost.unify_dispatch);
            let case = self.mwac.dispatch(a.tag(), b.tag());
            if M::SIMULATED {
                self.prof.record_dispatch(case);
            }
            match case {
                UnifyCase::BindLeft => {
                    if occurs
                        && b.tag() != Tag::Ref
                        && self.occurs_in(a.as_addr().expect("unbound"), b)?
                    {
                        return Ok(false);
                    }
                    self.bind_pair(a, b)?
                }
                UnifyCase::BindRight => {
                    if occurs
                        && a.tag() != Tag::Ref
                        && self.occurs_in(b.as_addr().expect("unbound"), a)?
                    {
                        return Ok(false);
                    }
                    self.bind_pair(b, a)?
                }
                UnifyCase::CompareConstants => {
                    if !a.same_constant(b) {
                        return Ok(false);
                    }
                }
                UnifyCase::DescendList => {
                    let pa = a.as_addr().expect("list pointer");
                    let pb = b.as_addr().expect("list pointer");
                    if pa != pb {
                        let ha = self.read_data(pa)?;
                        let hb = self.read_data(pb)?;
                        let ta = self.read_data(pa.offset(1))?;
                        let tb = self.read_data(pb.offset(1))?;
                        stack.push((ta, tb));
                        stack.push((ha, hb));
                    }
                }
                UnifyCase::DescendStruct => {
                    let pa = a.as_addr().expect("struct pointer");
                    let pb = b.as_addr().expect("struct pointer");
                    if pa != pb {
                        let fa = self.read_data(pa)?;
                        let fb = self.read_data(pb)?;
                        let (Some(fa), Some(fb)) = (fa.as_functor(), fb.as_functor()) else {
                            return Ok(false);
                        };
                        if fa != fb {
                            return Ok(false);
                        }
                        let arity = self.symbols.functor_arity(fa);
                        for i in (1..=arity as i64).rev() {
                            let wa = self.read_data(pa.offset(i))?;
                            let wb = self.read_data(pb.offset(i))?;
                            stack.push((wa, wb));
                        }
                    }
                }
                UnifyCase::Clash => return Ok(false),
            }
        }
        Ok(true)
    }

    fn unwind_trail(&mut self, to: VAddr) -> Result<(), MachineError> {
        while self.tr.value() > to.value() {
            self.tr = self.tr.offset(-1);
            let tr = self.tr;
            let entry = self.read_data(tr)?;
            let addr = entry.as_addr().expect("trail entries are data pointers");
            self.write_data(addr, Word::unbound(addr))?;
        }
        Ok(())
    }

    fn env_addr(&self) -> VAddr {
        self.e.expect("environment instruction without environment")
    }

    fn y_slot(&self, y: u8) -> VAddr {
        self.env_addr().offset(frames::env_y(y) as i64)
    }

    /// The local-stack allocation point: above the current environment and
    /// above everything protected by the current choice point.
    fn local_top(&mut self) -> Result<VAddr, MachineError> {
        let etop = match self.e {
            None => self.local_base,
            Some(e) => {
                let n = self
                    .read_data(e.offset(frames::ENV_N as i64))?
                    .as_int()
                    .unwrap_or(0);
                e.offset(frames::env_size(n as u8) as i64)
            }
        };
        let blt = if self.b.is_some() {
            self.b_lt
        } else {
            self.local_base
        };
        Ok(if etop.value() >= blt.value() {
            etop
        } else {
            blt
        })
    }

    fn opt_ptr(v: Option<VAddr>) -> Word {
        match v {
            Some(a) => Self::dptr(a),
            None => Word::int(-1),
        }
    }

    fn ptr_opt(w: Word) -> Option<VAddr> {
        w.as_addr()
    }

    /// Pushes the deferred choice point (at `neck`, or eagerly when
    /// shallow backtracking is disabled).
    fn push_choice_point(&mut self, fa: CodeAddr) -> Result<(), MachineError> {
        let n = self.arity;
        let base = match self.b {
            None => self.control_base,
            Some(b) => b.offset(frames::cp_size(self.b_arity) as i64),
        };
        let lt = self.local_top()?;
        self.write_data(base, Word::int(n as i32))?;
        for i in 0..n {
            let w = self.regs.arg(i as usize);
            self.write_data(base.offset(frames::cp_arg(i) as i64), w)?;
            self.charge(self.cfg.cost.choice_point_per_reg);
        }
        self.write_data(base.offset(frames::cp_ce(n) as i64), Self::opt_ptr(self.e))?;
        self.write_data(
            base.offset(frames::cp_cp(n) as i64),
            Word::code_ptr(self.cp),
        )?;
        self.write_data(
            base.offset(frames::cp_prev_b(n) as i64),
            Self::opt_ptr(self.b),
        )?;
        self.write_data(base.offset(frames::cp_fa(n) as i64), Word::code_ptr(fa))?;
        self.write_data(
            base.offset(frames::cp_tr(n) as i64),
            Self::dptr(self.shadow_tr),
        )?;
        self.write_data(
            base.offset(frames::cp_h(n) as i64),
            Self::dptr(self.shadow_h),
        )?;
        self.write_data(base.offset(frames::cp_lt(n) as i64), Self::dptr(lt))?;
        self.write_data(base.offset(frames::cp_b0(n) as i64), Self::opt_ptr(self.b0))?;
        self.b = Some(base);
        self.b_arity = n;
        self.b_lt = lt;
        self.hb = self.shadow_h;
        self.charge(self.cfg.cost.choice_point_fixed);
        self.stats.choice_points += 1;
        Ok(())
    }

    /// The failure routine: shallow restore when possible, otherwise
    /// restore from the newest choice point, otherwise final failure.
    fn fail(&mut self) -> Result<(), MachineError> {
        if self.shallow && !self.cpflag && self.fa.is_some() {
            // Shallow backtracking: shadow restore, A registers untouched.
            let fa = self.fa.expect("checked");
            self.unwind_trail(self.shadow_tr)?;
            self.h = self.shadow_h;
            self.mode = Mode::Read;
            self.p = fa;
            self.charge(self.cfg.cost.shallow_restore);
            self.stats.shallow_fails += 1;
            return Ok(());
        }
        let Some(b) = self.b else {
            self.halted = Some(false);
            return Ok(());
        };
        // Deep backtracking: restore machine state from the choice point.
        let n = self.b_arity;
        for i in 0..n {
            let w = self.read_data(b.offset(frames::cp_arg(i) as i64))?;
            self.regs.set_arg(i as usize, w);
            self.charge(self.cfg.cost.choice_point_per_reg);
        }
        self.arity = n;
        self.e = Self::ptr_opt(self.read_data(b.offset(frames::cp_ce(n) as i64))?);
        self.cp = self
            .read_data(b.offset(frames::cp_cp(n) as i64))?
            .as_code_addr()
            .expect("choice point CP");
        let fa = self
            .read_data(b.offset(frames::cp_fa(n) as i64))?
            .as_code_addr()
            .expect("choice point FA");
        let tr = self
            .read_data(b.offset(frames::cp_tr(n) as i64))?
            .as_addr()
            .expect("choice point TR");
        let h = self
            .read_data(b.offset(frames::cp_h(n) as i64))?
            .as_addr()
            .expect("choice point H");
        self.b_lt = self
            .read_data(b.offset(frames::cp_lt(n) as i64))?
            .as_addr()
            .expect("choice point LT");
        self.b0 = Self::ptr_opt(self.read_data(b.offset(frames::cp_b0(n) as i64))?);
        self.unwind_trail(tr)?;
        self.tr = tr;
        self.h = h;
        self.hb = h;
        self.shadow_h = h;
        self.shadow_tr = tr;
        self.mode = Mode::Read;
        self.cpflag = true;
        self.shallow = true;
        self.fa = None;
        self.p = fa;
        self.charge(self.cfg.cost.choice_point_fixed);
        self.stats.deep_fails += 1;
        Ok(())
    }

    /// Discards choice points down to `target` (cut).
    fn cut_to(&mut self, target: Option<VAddr>) -> Result<(), MachineError> {
        self.fa = None;
        self.cpflag = false;
        if self.b == target {
            return Ok(());
        }
        self.b = target;
        match target {
            Some(b) => {
                self.b_arity = self
                    .read_data(b.offset(frames::CP_ARITY as i64))?
                    .as_int()
                    .unwrap_or(0) as u8;
                self.b_lt = self
                    .read_data(b.offset(frames::cp_lt(self.b_arity) as i64))?
                    .as_addr()
                    .expect("choice point LT");
                self.hb = self
                    .read_data(b.offset(frames::cp_h(self.b_arity) as i64))?
                    .as_addr()
                    .expect("choice point H");
            }
            None => {
                self.b_arity = 0;
                self.b_lt = self.local_base;
                self.hb = self.heap_base;
            }
        }
        self.charge(1);
        Ok(())
    }

    /// A `try`-type entry: save the shadow registers, arm the alternative
    /// (§3.1.5). Eagerly pushes the choice point when shallow backtracking
    /// is disabled.
    fn try_entry(&mut self, alt: CodeAddr) -> Result<(), MachineError> {
        self.shadow_h = self.h;
        self.shadow_tr = self.tr;
        self.hb = self.h;
        self.shallow = true;
        self.cpflag = false;
        self.fa = Some(alt);
        self.charge(self.cfg.cost.shallow_save);
        self.stats.shallow_entries += 1;
        if !self.cfg.shallow_backtracking {
            self.push_choice_point(alt)?;
            self.cpflag = true;
        }
        Ok(())
    }

    fn retry_entry(&mut self, alt: CodeAddr) -> Result<(), MachineError> {
        if self.cpflag {
            let b = self.b.expect("cpflag implies a choice point");
            let n = self.b_arity;
            self.write_data(b.offset(frames::cp_fa(n) as i64), Word::code_ptr(alt))?;
        } else {
            self.fa = Some(alt);
        }
        self.shallow = true;
        self.charge(1);
        Ok(())
    }

    fn trust_entry(&mut self) -> Result<(), MachineError> {
        if self.cpflag {
            // Pop the choice point: the last alternative runs against the
            // outer backtracking state.
            let b = self.b.expect("cpflag implies a choice point");
            let n = self.b_arity;
            let prev = Self::ptr_opt(self.read_data(b.offset(frames::cp_prev_b(n) as i64))?);
            self.b = prev;
            match prev {
                Some(pb) => {
                    self.b_arity = self
                        .read_data(pb.offset(frames::CP_ARITY as i64))?
                        .as_int()
                        .unwrap_or(0) as u8;
                    self.b_lt = self
                        .read_data(pb.offset(frames::cp_lt(self.b_arity) as i64))?
                        .as_addr()
                        .expect("choice point LT");
                    self.hb = self
                        .read_data(pb.offset(frames::cp_h(self.b_arity) as i64))?
                        .as_addr()
                        .expect("choice point H");
                }
                None => {
                    self.b_arity = 0;
                    self.b_lt = self.local_base;
                    self.hb = self.heap_base;
                }
            }
            self.cpflag = false;
        }
        self.fa = None;
        self.shallow = true;
        self.charge(1);
        Ok(())
    }

    fn enter_predicate(&mut self, addr: CodeAddr, arity: u8) {
        self.b0 = self.b;
        self.arity = arity;
        self.shallow = false;
        self.cpflag = false;
        self.fa = None;
        self.p = addr;
        self.stats.inferences += 1;
    }

    // -------------------------------------------------------------- escape
    // (support for builtins.rs)

    pub(crate) fn arg_word(&self, i: usize) -> Word {
        self.regs.arg(i)
    }

    pub(crate) fn set_arg(&mut self, i: usize, w: Word) {
        self.regs.set_arg(i, w);
    }

    pub(crate) fn heap_words_used(&self) -> u32 {
        self.h.value() - self.heap_base.value()
    }

    pub(crate) fn trail_words_used(&self) -> u32 {
        self.tr.value().saturating_sub(
            MemorySystem::stack_base(Zone::Trail, self.cfg.spread_stack_bases).value(),
        )
    }

    pub(crate) fn current_arity(&self) -> u8 {
        self.arity
    }

    pub(crate) fn count_inference(&mut self) {
        self.stats.inferences += 1;
    }

    pub(crate) fn image_entry(&self, name: &str, arity: u8) -> Option<CodeAddr> {
        self.image.entry(name, arity)
    }

    pub(crate) fn query_var_count(&self) -> usize {
        self.query_vars.len()
    }

    pub(crate) fn query_var_name(&self, i: usize) -> &str {
        &self.query_vars[i]
    }

    pub(crate) fn push_solution(&mut self, s: Solution) {
        self.solutions.push(s);
    }

    pub(crate) fn enumerating(&self) -> bool {
        self.enumerate_all
    }
    pub(crate) fn yielding(&self) -> bool {
        self.yield_solutions
    }

    pub(crate) fn cost(&self) -> &CostModel {
        &self.cfg.cost
    }

    pub(crate) fn cycles_now(&self) -> u64 {
        self.stats.cycles
    }

    pub(crate) fn inferences_now(&self) -> u64 {
        self.stats.inferences
    }

    pub(crate) fn charge_cycles(&mut self, c: Cycles) {
        self.charge(c);
    }

    /// Allocates a fresh unbound heap cell and returns a reference to it
    /// (used by builtins constructing terms).
    pub(crate) fn new_heap_var(&mut self) -> Result<Word, MachineError> {
        let h = self.h;
        self.write_data(h, Word::unbound(h))?;
        self.h = self.h.offset(1);
        Ok(Word::reference(h))
    }

    /// Writes `w` to the heap top and advances H.
    pub(crate) fn heap_push(&mut self, w: Word) -> Result<VAddr, MachineError> {
        let h = self.h;
        self.write_data(h, w)?;
        self.h = self.h.offset(1);
        Ok(h)
    }

    /// Reads a data word (for builtins walking structures).
    pub(crate) fn read_cell(&mut self, addr: VAddr) -> Result<Word, MachineError> {
        self.read_data(addr)
    }

    /// One table-switch lookup (`switch_on_constant` and
    /// `switch_on_structure`) of `key` in the switch at stream index
    /// `idx`: through the image's hash side table when the switch has
    /// one, else by a linear scan with `matches`. Either way it charges
    /// and counts what the hardware's sequential probe does: a hit at
    /// table ordinal k probes k + 1 entries, a miss probes them all.
    #[inline]
    fn table_switch<K>(
        &mut self,
        image: &CodeImage,
        idx: u32,
        table: &[(K, CodeAddr)],
        key: u64,
        matches: impl Fn(&K) -> bool,
    ) -> Option<CodeAddr> {
        let found = match image.switch_index(idx) {
            Some(side) => side.lookup(key).map(|(t, ord)| (t, ord as usize)),
            None => table
                .iter()
                .position(|(k, _)| matches(k))
                .map(|ord| (table[ord].1, ord)),
        };
        let probes = found.map_or(table.len(), |(_, ord)| ord + 1) as u64;
        self.charge(probes * self.cfg.cost.switch_table_probe);
        self.prof.switches.probes += probes;
        if found.is_some() {
            self.prof.switches.hits += 1;
        } else {
            self.prof.switches.misses += 1;
        }
        found.map(|(t, _)| t)
    }

    // ---------------------------------------------------------------- step

    /// The instruction dispatch itself. `#[inline(always)]` so the
    /// instruction loop ([`Machine::run_span`]) absorbs it — one fused
    /// fetch/dispatch/execute body with no call per step. `image`/`idx`
    /// identify the executing instruction so the switch arms can reach
    /// its link-time hash index.
    #[allow(clippy::too_many_lines)]
    #[inline(always)]
    fn exec_body(
        &mut self,
        instr: &Instr,
        image: &CodeImage,
        idx: u32,
    ) -> Result<(), MachineError> {
        let cost = self.cfg.cost;
        match instr {
            // ------------------------------------------------- control
            Instr::Call { addr, arity } => {
                self.cp = self.p;
                self.enter_predicate(*addr, *arity);
                self.charge(cost.jump);
            }
            Instr::Execute { addr, arity } => {
                self.enter_predicate(*addr, *arity);
                self.charge(cost.jump);
            }
            Instr::Proceed => {
                self.p = self.cp;
                self.charge(cost.proceed);
            }
            Instr::Allocate { n } => {
                let base = self.local_top()?;
                self.write_data(base.offset(frames::ENV_CE as i64), Self::opt_ptr(self.e))?;
                self.write_data(base.offset(frames::ENV_CP as i64), Word::code_ptr(self.cp))?;
                self.write_data(base.offset(frames::ENV_B0 as i64), Self::opt_ptr(self.b0))?;
                self.write_data(base.offset(frames::ENV_N as i64), Word::int(*n as i32))?;
                self.e = Some(base);
                self.charge(cost.allocate);
            }
            Instr::Deallocate => {
                let e = self.env_addr();
                self.cp = self
                    .read_data(e.offset(frames::ENV_CP as i64))?
                    .as_code_addr()
                    .expect("environment CP");
                self.e = Self::ptr_opt(self.read_data(e.offset(frames::ENV_CE as i64))?);
                self.charge(cost.deallocate);
            }
            Instr::TryMeElse { alt } => self.try_entry(*alt)?,
            Instr::RetryMeElse { alt } => self.retry_entry(*alt)?,
            Instr::TrustMe => self.trust_entry()?,
            Instr::Try { clause } => {
                let alt = self.p; // the following retry/trust instruction
                self.try_entry(alt)?;
                self.p = *clause;
                self.charge(cost.jump);
            }
            Instr::Retry { clause } => {
                let alt = self.p;
                self.retry_entry(alt)?;
                self.p = *clause;
                self.charge(cost.jump);
            }
            Instr::Trust { clause } => {
                self.trust_entry()?;
                self.p = *clause;
                self.charge(cost.jump);
            }
            Instr::Neck => {
                if self.shallow {
                    self.shallow = false;
                    if !self.cpflag {
                        if let Some(fa) = self.fa {
                            self.push_choice_point(fa)?;
                            self.cpflag = true;
                        }
                    }
                }
                self.charge(1);
            }
            Instr::Cut => {
                let target = self.b0;
                self.cut_to(target)?;
            }
            Instr::CutEnv => {
                let e = self.env_addr();
                let target = Self::ptr_opt(self.read_data(e.offset(frames::ENV_B0 as i64))?);
                self.cut_to(target)?;
            }
            Instr::Fail => {
                self.charge(1);
                self.fail()?;
            }
            Instr::Jump { to } => {
                self.p = *to;
                self.charge(cost.jump);
            }
            Instr::SwitchOnTerm {
                arg,
                on_var,
                on_const,
                on_list,
                on_struct,
            } => {
                let a = self.deref(self.regs.arg(arg.index()))?;
                self.regs.set_arg(arg.index(), a);
                self.charge(cost.switch_on_term);
                if arg.index() > 0 {
                    // A dispatch on A2+ is an entry into a second-level
                    // table of depth-2 fact indexing.
                    self.prof.switches.depth2 += 1;
                }
                let target = match a.tag() {
                    Tag::Ref => *on_var,
                    Tag::List => *on_list,
                    Tag::Struct => *on_struct,
                    t if t.is_constant() => *on_const,
                    _ => None,
                };
                match target {
                    Some(t) => self.p = t,
                    None => self.fail()?,
                }
            }
            Instr::SwitchOnConstant {
                arg,
                default,
                table,
            } => {
                let a = self.deref(self.regs.arg(arg.index()))?;
                self.regs.set_arg(arg.index(), a);
                self.charge(cost.switch_on_term);
                let target =
                    self.table_switch(image, idx, table, a.switch_key(), |k| k.same_constant(a));
                match target.or(*default) {
                    Some(t) => self.p = t,
                    None => self.fail()?,
                }
            }
            Instr::SwitchOnStructure {
                arg,
                default,
                table,
            } => {
                let a = self.deref(self.regs.arg(arg.index()))?;
                self.regs.set_arg(arg.index(), a);
                self.charge(cost.switch_on_term);
                let functor = match a.as_addr() {
                    Some(p) if a.tag() == Tag::Struct => self.read_data(p)?.as_functor(),
                    _ => None,
                };
                // A non-structure argument never consults the table:
                // zero probes, straight to the default.
                let target = functor.and_then(|f| {
                    self.table_switch(image, idx, table, f.index() as u64, |k| *k == f)
                });
                match target.or(*default) {
                    Some(t) => self.p = t,
                    None => self.fail()?,
                }
            }
            Instr::Escape { builtin } => {
                self.charge(cost.escape_base);
                if !matches!(
                    builtin,
                    kcm_arch::isa::Builtin::ReportSolution | kcm_arch::isa::Builtin::CallGoal
                ) {
                    // Built-in calls count as one inference (§4.2).
                    self.stats.inferences += 1;
                }
                match builtins::execute(self, *builtin)? {
                    BuiltinOutcome::Succeed => {}
                    BuiltinOutcome::Fail => self.fail()?,
                    BuiltinOutcome::Yield => self.yielded = true,
                    BuiltinOutcome::Halt(success) => self.halted = Some(success),
                    BuiltinOutcome::Execute { addr, arity } => {
                        // Meta-call dispatch: enter the predicate
                        // execute-style (CP untouched — the callee returns
                        // to the meta-caller's continuation).
                        self.enter_predicate(addr, arity);
                        self.charge(cost.jump);
                    }
                }
            }
            Instr::Halt { success } => {
                self.halted = Some(*success);
                self.charge(1);
            }
            Instr::Mark => {
                // Zero-cycle accounting pseudo-instruction: one inlined
                // built-in goal (§4.2 inference definition).
                self.stats.inferences += 1;
            }

            // ----------------------------------------------------- get
            Instr::GetVariable { x, a } => {
                let w = self.regs.get(*a);
                self.regs.set(*x, w);
                self.charge(cost.reg_op);
            }
            Instr::GetVariableY { y, a } => {
                let w = self.regs.get(*a);
                let slot = self.y_slot(*y);
                self.write_data(slot, w)?;
            }
            Instr::GetValue { x, a } => {
                let (wx, wa) = (self.regs.get(*x), self.regs.get(*a));
                if !self.unify(wx, wa)? {
                    self.fail()?;
                }
            }
            Instr::GetValueY { y, a } => {
                let slot = self.y_slot(*y);
                let wy = self.read_data(slot)?;
                // An unbound Y slot must be unified *as a cell*, not as a
                // copied self-reference.
                let lhs = if wy.is_unbound_at(slot) {
                    Word::reference(slot)
                } else {
                    wy
                };
                let wa = self.regs.get(*a);
                if !self.unify(lhs, wa)? {
                    self.fail()?;
                }
            }
            Instr::GetConstant { c, a } => {
                let w = self.deref(self.regs.get(*a))?;
                self.charge(cost.unify_dispatch);
                match w.tag() {
                    Tag::Ref => self.bind(w.as_addr().expect("unbound"), *c)?,
                    _ if c.tag_checked().is_some_and(Tag::is_pointer) => {
                        // A static-data literal: full structural unify.
                        if !self.unify(w, *c)? {
                            self.fail()?;
                        }
                    }
                    _ if w.same_constant(*c) => {}
                    _ => self.fail()?,
                }
            }
            Instr::GetNil { a } => {
                let w = self.deref(self.regs.get(*a))?;
                self.charge(cost.unify_dispatch);
                match w.tag() {
                    Tag::Ref => self.bind(w.as_addr().expect("unbound"), Word::nil())?,
                    Tag::Nil => {}
                    _ => self.fail()?,
                }
            }
            Instr::GetList { a } => {
                let w = self.deref(self.regs.get(*a))?;
                self.charge(cost.unify_dispatch);
                match w.tag() {
                    Tag::Ref => {
                        let h = self.h;
                        self.bind(w.as_addr().expect("unbound"), Word::ptr(Tag::List, h))?;
                        self.mode = Mode::Write;
                    }
                    Tag::List => {
                        self.s = w.as_addr().expect("list pointer");
                        self.mode = Mode::Read;
                    }
                    _ => self.fail()?,
                }
            }
            Instr::GetStructure { f, a } => {
                let w = self.deref(self.regs.get(*a))?;
                self.charge(cost.unify_dispatch);
                match w.tag() {
                    Tag::Ref => {
                        let h = self.h;
                        self.bind(w.as_addr().expect("unbound"), Word::ptr(Tag::Struct, h))?;
                        self.heap_push(Word::functor(*f))?;
                        self.mode = Mode::Write;
                    }
                    Tag::Struct => {
                        let p = w.as_addr().expect("struct pointer");
                        let fw = self.read_data(p)?;
                        if fw.as_functor() == Some(*f) {
                            self.s = p.offset(1);
                            self.mode = Mode::Read;
                        } else {
                            self.fail()?;
                        }
                    }
                    _ => self.fail()?,
                }
            }

            // ----------------------------------------------------- put
            Instr::PutVariable { x, a } => {
                let v = self.new_heap_var()?;
                self.regs.set(*x, v);
                self.regs.set(*a, v);
            }
            Instr::PutVariableY { y, a } => {
                let slot = self.y_slot(*y);
                self.write_data(slot, Word::unbound(slot))?;
                self.regs.set(*a, Word::reference(slot));
            }
            Instr::PutValue { x, a } => {
                let w = self.regs.get(*x);
                self.regs.set(*a, w);
                self.charge(cost.reg_op);
            }
            Instr::PutValueY { y, a } => {
                let slot = self.y_slot(*y);
                let wy = self.read_data(slot)?;
                let w = if wy.is_unbound_at(slot) {
                    Word::reference(slot)
                } else {
                    wy
                };
                self.regs.set(*a, w);
            }
            Instr::PutUnsafeValue { y, a } => {
                let slot = self.y_slot(*y);
                let wy = self.read_data(slot)?;
                let v = self.deref(if wy.is_unbound_at(slot) {
                    Word::reference(slot)
                } else {
                    wy
                })?;
                match (v.tag(), v.as_addr()) {
                    (Tag::Ref, Some(addr))
                        if Zone::of_addr(addr) == Some(Zone::Local)
                            && addr.value() >= self.env_addr().value() =>
                    {
                        // Globalise: the value would dangle after
                        // deallocate.
                        let nv = self.new_heap_var()?;
                        self.bind(addr, nv)?;
                        self.regs.set(*a, nv);
                    }
                    _ => self.regs.set(*a, v),
                }
            }
            Instr::PutConstant { c, a } => {
                self.regs.set(*a, *c);
                self.charge(cost.reg_op);
            }
            Instr::PutNil { a } => {
                self.regs.set(*a, Word::nil());
                self.charge(cost.reg_op);
            }
            Instr::PutList { a } => {
                let h = self.h;
                self.regs.set(*a, Word::ptr(Tag::List, h));
                self.mode = Mode::Write;
                self.charge(cost.reg_op);
            }
            Instr::PutStructure { f, a } => {
                let h = self.h;
                self.heap_push(Word::functor(*f))?;
                self.regs.set(*a, Word::ptr(Tag::Struct, h));
                self.mode = Mode::Write;
            }

            // --------------------------------------------------- unify
            Instr::UnifyVariable { x } => match self.mode {
                Mode::Read => {
                    let s = self.s;
                    let w = self.read_data(s)?;
                    let w = if w.is_unbound_at(s) {
                        Word::reference(s)
                    } else {
                        w
                    };
                    self.regs.set(*x, w);
                    self.s = self.s.offset(1);
                }
                Mode::Write => {
                    let v = self.new_heap_var()?;
                    self.regs.set(*x, v);
                }
            },
            Instr::UnifyVariableY { y } => {
                let slot = self.y_slot(*y);
                match self.mode {
                    Mode::Read => {
                        let s = self.s;
                        let w = self.read_data(s)?;
                        let w = if w.is_unbound_at(s) {
                            Word::reference(s)
                        } else {
                            w
                        };
                        self.write_data(slot, w)?;
                        self.s = self.s.offset(1);
                    }
                    Mode::Write => {
                        let v = self.new_heap_var()?;
                        self.write_data(slot, v)?;
                    }
                }
            }
            Instr::UnifyValue { x } => match self.mode {
                Mode::Read => {
                    let s = self.s;
                    let w = self.read_data(s)?;
                    let w = if w.is_unbound_at(s) {
                        Word::reference(s)
                    } else {
                        w
                    };
                    self.s = self.s.offset(1);
                    let wx = self.regs.get(*x);
                    if !self.unify(wx, w)? {
                        self.fail()?;
                    }
                }
                Mode::Write => {
                    let w = self.regs.get(*x);
                    self.heap_push(w)?;
                }
            },
            Instr::UnifyValueY { y } => {
                let slot = self.y_slot(*y);
                let wy = self.read_data(slot)?;
                let wy = if wy.is_unbound_at(slot) {
                    Word::reference(slot)
                } else {
                    wy
                };
                match self.mode {
                    Mode::Read => {
                        let s = self.s;
                        let w = self.read_data(s)?;
                        let w = if w.is_unbound_at(s) {
                            Word::reference(s)
                        } else {
                            w
                        };
                        self.s = self.s.offset(1);
                        if !self.unify(wy, w)? {
                            self.fail()?;
                        }
                    }
                    Mode::Write => {
                        self.heap_push(wy)?;
                    }
                }
            }
            Instr::UnifyLocalValue { x } => {
                let w = self.regs.get(*x);
                self.unify_local(w, Some(*x))?;
            }
            Instr::UnifyLocalValueY { y } => {
                let slot = self.y_slot(*y);
                let wy = self.read_data(slot)?;
                let wy = if wy.is_unbound_at(slot) {
                    Word::reference(slot)
                } else {
                    wy
                };
                self.unify_local(wy, None)?;
            }
            Instr::UnifyConstant { c } => match self.mode {
                Mode::Read => {
                    let s = self.s;
                    let w = self.read_data(s)?;
                    self.s = self.s.offset(1);
                    let w = self.deref(if w.is_unbound_at(s) {
                        Word::reference(s)
                    } else {
                        w
                    })?;
                    self.charge(cost.unify_dispatch);
                    match w.tag() {
                        Tag::Ref => self.bind(w.as_addr().expect("unbound"), *c)?,
                        _ if c.tag_checked().is_some_and(Tag::is_pointer) => {
                            if !self.unify(w, *c)? {
                                self.fail()?;
                            }
                        }
                        _ if w.same_constant(*c) => {}
                        _ => self.fail()?,
                    }
                }
                Mode::Write => {
                    self.heap_push(*c)?;
                }
            },
            Instr::UnifyNil => match self.mode {
                Mode::Read => {
                    let s = self.s;
                    let w = self.read_data(s)?;
                    self.s = self.s.offset(1);
                    let w = self.deref(if w.is_unbound_at(s) {
                        Word::reference(s)
                    } else {
                        w
                    })?;
                    self.charge(cost.unify_dispatch);
                    match w.tag() {
                        Tag::Ref => self.bind(w.as_addr().expect("unbound"), Word::nil())?,
                        Tag::Nil => {}
                        _ => self.fail()?,
                    }
                }
                Mode::Write => {
                    self.heap_push(Word::nil())?;
                }
            },
            Instr::UnifyVoid { n } => match self.mode {
                Mode::Read => {
                    self.s = self.s.offset(*n as i64);
                    self.charge(cost.reg_op);
                }
                Mode::Write => {
                    for _ in 0..*n {
                        self.new_heap_var()?;
                    }
                }
            },
            Instr::UnifyTailList => match self.mode {
                Mode::Write => {
                    // The tail is the next heap cell: the spine is laid
                    // out contiguously.
                    let h = self.h;
                    self.write_data(h, Word::ptr(Tag::List, h.offset(1)))?;
                    self.h = h.offset(1);
                }
                Mode::Read => {
                    let s = self.s;
                    let w = self.read_data(s)?;
                    let w = self.deref(if w.is_unbound_at(s) {
                        Word::reference(s)
                    } else {
                        w
                    })?;
                    self.charge(cost.unify_dispatch);
                    match w.tag() {
                        Tag::Ref => {
                            let h = self.h;
                            self.bind(w.as_addr().expect("unbound"), Word::ptr(Tag::List, h))?;
                            self.mode = Mode::Write;
                        }
                        Tag::List => {
                            self.s = w.as_addr().expect("list pointer");
                        }
                        _ => self.fail()?,
                    }
                }
            },

            // ------------------------------------------ general purpose
            Instr::Move2 { s1, d1, s2, d2 } => {
                self.regs.move2(*s1, *d1, *s2, *d2);
                self.charge(cost.reg_op);
            }
            Instr::LoadConst { d, c } => {
                self.regs.set(*d, *c);
                self.charge(cost.reg_op);
            }
            Instr::Alu { op, d, s1, s2 } => {
                let a = self.regs.get(*s1);
                let b = self.regs.get(*s2);
                let r = self.alu(*op, a, b)?;
                self.regs.set(*d, r);
            }
            Instr::CmpRegs { s1, s2 } => {
                let a = self.regs.get(*s1);
                let b = self.regs.get(*s2);
                self.psw = self.compare_numeric(a, b)?;
                self.charge(cost.reg_op);
            }
            Instr::Branch { cond, to } => {
                if self.psw.holds(*cond) {
                    self.p = *to;
                    self.charge(cost.branch_taken);
                } else {
                    self.charge(cost.branch_not_taken);
                }
            }
            Instr::Deref { d, s } => {
                let w = self.regs.get(*s);
                let w = self.deref(w)?;
                self.regs.set(*d, w);
                self.charge(cost.reg_op);
            }
            Instr::TvmSwap { d, s } => {
                let w = self.regs.get(*s);
                self.regs.set(*d, w.swapped());
                self.charge(cost.reg_op);
            }
            Instr::TvmGc { d, s, bits } => {
                let w = self.regs.get(*s);
                self.regs.set(*d, w.with_gc_bits(*bits));
                self.charge(cost.reg_op);
            }
            Instr::Load {
                dd,
                ras,
                rad,
                off,
                pre,
            } => {
                let base = self.regs.get(*ras);
                let addr = base
                    .as_addr()
                    .ok_or(MachineError::Mem(MemFault::NotAnAddress(base)))?;
                let moved = addr.offset(*off as i64);
                let ea = if *pre { moved } else { addr };
                let w = self.read_data(ea)?;
                self.regs.set(*dd, w);
                self.regs.set(*rad, Self::dptr(moved));
            }
            Instr::Store {
                ds,
                ras,
                rad,
                off,
                pre,
            } => {
                let base = self.regs.get(*ras);
                let addr = base
                    .as_addr()
                    .ok_or(MachineError::Mem(MemFault::NotAnAddress(base)))?;
                let moved = addr.offset(*off as i64);
                let ea = if *pre { moved } else { addr };
                let w = self.regs.get(*ds);
                self.write_data(ea, w)?;
                self.regs.set(*rad, Self::dptr(moved));
            }
            Instr::LoadDirect { d, addr } => {
                let w = self.read_data(*addr)?;
                self.regs.set(*d, w);
            }
            Instr::StoreDirect { s, addr } => {
                let w = self.regs.get(*s);
                self.write_data(*addr, w)?;
            }
            // `Instr` is non_exhaustive towards future extensions: report
            // the gap as a machine gap, not a Prolog-level type fault.
            other => return Err(MachineError::UnimplementedInstr(Box::new(other.clone()))),
        }
        Ok(())
    }

    /// `unify_local_value`: like `unify_value`, but in write mode a local
    /// unbound variable is globalised first (§ WAM; needed because the
    /// heap must never reference the local stack).
    fn unify_local(&mut self, w: Word, update: Option<Reg>) -> Result<(), MachineError> {
        match self.mode {
            Mode::Read => {
                let s = self.s;
                let cell = self.read_data(s)?;
                let cell = if cell.is_unbound_at(s) {
                    Word::reference(s)
                } else {
                    cell
                };
                self.s = self.s.offset(1);
                if !self.unify(w, cell)? {
                    self.fail()?;
                }
            }
            Mode::Write => {
                let v = self.deref(w)?;
                match (v.tag(), v.as_addr()) {
                    (Tag::Ref, Some(addr)) if Zone::of_addr(addr) == Some(Zone::Local) => {
                        let nv = self.new_heap_var()?;
                        self.bind(addr, nv)?;
                        // Registers must stay pristine while a shallow
                        // alternative is armed: the deferred choice point
                        // snapshots them at `neck`, after head unification,
                        // and a shallow restore leaves them untouched — both
                        // would see this globalized address dangle into heap
                        // that backtracking truncates (§3.1.5). The binding
                        // above is trailed, so re-derefs stay correct.
                        let pristine = self.fa.is_some() && !self.cpflag;
                        if let Some(r) = update {
                            if !pristine {
                                self.regs.set(r, nv);
                            }
                        }
                        // The new heap cell *is* the argument cell — it was
                        // pushed by new_heap_var at the current H position.
                    }
                    _ => {
                        self.heap_push(v)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The generic ALU/FPU (§3.1.1, §4.2 "multi-way branching for generic
    /// arithmetic"): Int×Int on the integer ALU, any Float on the FPU.
    pub(crate) fn alu(&mut self, op: AluOp, a: Word, b: Word) -> Result<Word, MachineError> {
        let cost = match op {
            AluOp::Mul => self.cfg.cost.int_mul,
            AluOp::Div | AluOp::Mod => self.cfg.cost.int_div,
            _ => self.cfg.cost.reg_op,
        };
        match (a.tag_checked(), b.tag_checked()) {
            (Some(Tag::Int), Some(Tag::Int)) => {
                self.charge(cost);
                let x = a.value() as i32;
                let y = b.value() as i32;
                let r = match op {
                    AluOp::Add => x.wrapping_add(y),
                    AluOp::Sub => x.wrapping_sub(y),
                    AluOp::Mul => x.wrapping_mul(y),
                    AluOp::Div => {
                        if y == 0 {
                            return Err(MachineError::ZeroDivisor);
                        }
                        x.wrapping_div(y)
                    }
                    AluOp::Mod => {
                        if y == 0 {
                            return Err(MachineError::ZeroDivisor);
                        }
                        x.rem_euclid(y)
                    }
                    AluOp::And => x & y,
                    AluOp::Or => x | y,
                    AluOp::Xor => x ^ y,
                    AluOp::Shl => x.wrapping_shl(y as u32 & 31),
                    AluOp::Shr => x.wrapping_shr(y as u32 & 31),
                    AluOp::Neg => x.wrapping_neg(),
                    AluOp::Min => x.min(y),
                    AluOp::Max => x.max(y),
                };
                Ok(Word::int(r))
            }
            (Some(ta), Some(tb))
                if (ta == Tag::Float || ta == Tag::Int) && (tb == Tag::Float || tb == Tag::Int) =>
            {
                self.charge(self.cfg.cost.fp_op);
                let x = Self::as_f32(a);
                let y = Self::as_f32(b);
                let r = match op {
                    AluOp::Add => x + y,
                    AluOp::Sub => x - y,
                    AluOp::Mul => x * y,
                    AluOp::Div => x / y,
                    AluOp::Neg => -x,
                    AluOp::Min => x.min(y),
                    AluOp::Max => x.max(y),
                    other => {
                        return Err(MachineError::TypeFault(format!(
                            "{other:?} is not defined on floats"
                        )))
                    }
                };
                Ok(Word::float(r))
            }
            // Fault on the left operand before looking at the right, so a
            // natively compiled expression reports the same error class as
            // the escape evaluator, which evaluates operands left to right.
            _ => Err(Self::numeric_operand_fault("arithmetic", a, b)),
        }
    }

    /// The fault for a non-numeric operand pair, checked left-first:
    /// an unbound left operand is an instantiation error even if the right
    /// one is a worse-typed term, exactly as left-to-right evaluation in
    /// the `is/2` escape would report it.
    fn numeric_operand_fault(what: &str, a: Word, b: Word) -> MachineError {
        for w in [a, b] {
            match w.tag_checked() {
                Some(Tag::Int) | Some(Tag::Float) => continue,
                Some(Tag::Ref) => {
                    return MachineError::Instantiation(format!("{what} on an unbound variable"))
                }
                _ => return MachineError::TypeFault(format!("{what} on non-numbers ({a}, {b})")),
            }
        }
        unreachable!("both operands numeric")
    }

    fn as_f32(w: Word) -> f32 {
        match w.tag() {
            Tag::Float => f32::from_bits(w.value()),
            Tag::Int => w.value() as i32 as f32,
            _ => unreachable!("checked numeric"),
        }
    }

    pub(crate) fn compare_numeric(&mut self, a: Word, b: Word) -> Result<Psw, MachineError> {
        match (a.tag_checked(), b.tag_checked()) {
            (Some(Tag::Int), Some(Tag::Int)) => {
                let x = a.value() as i32;
                let y = b.value() as i32;
                Ok(Psw {
                    lt: x < y,
                    eq: x == y,
                    gt: x > y,
                })
            }
            (Some(ta), Some(tb))
                if (ta == Tag::Float || ta == Tag::Int) && (tb == Tag::Float || tb == Tag::Int) =>
            {
                let x = Self::as_f32(a);
                let y = Self::as_f32(b);
                Ok(Psw {
                    lt: x < y,
                    eq: x == y,
                    gt: x > y,
                })
            }
            _ => Err(Self::numeric_operand_fault("comparison", a, b)),
        }
    }

    /// Whether `a cond b` holds numerically (generic arithmetic compare
    /// used by the comparison escapes).
    pub(crate) fn numeric_holds(
        &mut self,
        cond: Cond,
        a: Word,
        b: Word,
    ) -> Result<bool, MachineError> {
        let psw = self.compare_numeric(a, b)?;
        Ok(psw.holds(cond))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_is_send() {
        // Compile-time guarantee behind SessionPool: a loaded machine can
        // move to a worker thread. The image is an `Arc<CodeImage>`; every
        // other piece of state is owned.
        fn assert_send<T: Send>() {}
        assert_send::<Machine>();
        assert_send::<Outcome>();
        assert_send::<RunStats>();
    }

    #[test]
    fn psw_condition_decoding() {
        let lt = Psw {
            lt: true,
            eq: false,
            gt: false,
        };
        assert!(lt.holds(Cond::Lt) && lt.holds(Cond::Le) && lt.holds(Cond::Ne));
        assert!(!lt.holds(Cond::Eq) && !lt.holds(Cond::Gt) && !lt.holds(Cond::Ge));
        let eq = Psw {
            lt: false,
            eq: true,
            gt: false,
        };
        assert!(eq.holds(Cond::Eq) && eq.holds(Cond::Le) && eq.holds(Cond::Ge));
        assert!(!eq.holds(Cond::Ne) && !eq.holds(Cond::Lt) && !eq.holds(Cond::Gt));
    }

    #[test]
    fn machine_config_defaults_match_paper_model() {
        let cfg = MachineConfig::default();
        assert!(cfg.shallow_backtracking);
        assert!((cfg.cost.cycle_ns - 80.0).abs() < f64::EPSILON);
        assert_eq!(cfg.cost.instr_overhead, 0);
    }

    #[test]
    fn fresh_machine_state_is_clean() {
        let clauses = kcm_prolog::read_program("t.").expect("parse");
        let mut symbols = SymbolTable::new();
        let image = kcm_compiler::compile_program(&clauses, &mut symbols).expect("compile");
        let m = Machine::new(image, symbols, MachineConfig::default());
        let s = m.lifetime_stats();
        assert_eq!(s.instructions, 0);
        assert_eq!(s.choice_points, 0);
        assert!(m.trace().is_empty());
        assert!(m.profile().is_empty());
    }

    #[test]
    fn step_budget_stops_runaway_queries() {
        let clauses = kcm_prolog::read_program("loop :- loop.\n").expect("parse");
        let mut symbols = SymbolTable::new();
        let image = kcm_compiler::compile_program(&clauses, &mut symbols).expect("compile");
        let goal = kcm_prolog::read_term("loop").expect("parse");
        let (qimage, vars) =
            kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols)
                .expect("compile query");
        let cfg = MachineConfig {
            step_budget: 10_000,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(qimage, symbols, cfg);
        match m.run_query(&vars, false) {
            Err(MachineError::BudgetExhausted { steps }) => assert!(steps > 10_000),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn step_budget_does_not_trip_ordinary_runs() {
        let clauses = kcm_prolog::read_program("p(1). p(2).\n").expect("parse");
        let mut symbols = SymbolTable::new();
        let image = kcm_compiler::compile_program(&clauses, &mut symbols).expect("compile");
        let goal = kcm_prolog::read_term("p(X)").expect("parse");
        let (qimage, vars) =
            kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols)
                .expect("compile query");
        let cfg = MachineConfig {
            step_budget: 1_000_000,
            ..MachineConfig::default()
        };
        let mut m = Machine::new(qimage, symbols, cfg);
        let outcome = m.run_query(&vars, true).expect("run");
        assert!(outcome.success);
        assert_eq!(outcome.solutions.len(), 2);
    }

    #[test]
    fn outcome_and_errors_render() {
        // Display coverage for every machine error variant.
        let errors: Vec<MachineError> = vec![
            MachineError::Mem(MemFault::OutOfPhysicalMemory),
            MachineError::BadCodeAddress(CodeAddr::new(7)),
            MachineError::BudgetExhausted { steps: 9 },
            MachineError::TypeFault("x".into()),
            MachineError::Instantiation("y".into()),
            MachineError::TermDepth,
            MachineError::ZeroDivisor,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
