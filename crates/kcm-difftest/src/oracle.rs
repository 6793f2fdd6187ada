//! The multi-engine differential oracle.
//!
//! Every engine we own is a (compiler options, machine configuration)
//! pair over the same abstract instruction set; divergent architectures
//! make generated-program differential testing the highest-yield oracle
//! (BinProlog's experience report). The oracle drives the engines through
//! the workspace-wide [`Engine`] trait (`kcm_system::engine`), reduces
//! each raw result to a normalized [`CaseOutcome`] — either the full
//! ordered solution list (with `write/1` output and the inference count)
//! or an error *class* — and demands exact agreement.
//!
//! Solution terms and output are alpha-normalized first: the machine
//! prints unbound variables as `_G<heap address>` and heap layouts differ
//! legitimately across compile options, so variables are renamed to
//! `_A, _B, …` in order of first appearance before comparison.

use kcm_prolog::Term;
use kcm_system::{
    error_class, Kcm, KcmError, ProgramSource, QueryOpts, SessionPool, Solutions, Tier,
};

pub use kcm_system::{Engine, EngineOutcome, KcmEngine};

/// Step budget applied to every engine per case. Generated programs
/// terminate by construction; the budget only catches generator bugs.
/// The step budget is cost-model-independent — every engine cuts off at
/// the same point of the same abstract execution — but the *observable
/// effects* of a cutoff (how much output was written first) still differ
/// with engine timing, so the oracle *skips* budget-stopped cases instead
/// of comparing them.
pub const STEP_BUDGET: u64 = 2_000_000;

/// What one engine computed for a case, normalized for comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The engine ran to completion.
    Answers {
        /// Each solution rendered `Var=term,...` with variables
        /// alpha-normalized; in enumeration order.
        solutions: Vec<String>,
        /// `write/1` output, alpha-normalized.
        output: String,
        /// Logical inference count — identical abstract execution means
        /// identical inferences, whatever the cost model says.
        inferences: u64,
    },
    /// The engine failed with an error of this class.
    Error {
        /// A stable class name (`"instantiation"`, `"zero_divisor"`, …).
        class: String,
    },
}

impl CaseOutcome {
    /// Whether this outcome is a step-budget cutoff (a scheduling event,
    /// not a semantic one, so the oracle skips such cases instead of
    /// comparing them).
    pub fn is_budget(&self) -> bool {
        matches!(self, CaseOutcome::Error { class } if class == "budget")
    }

    /// Normalizes a raw engine result.
    pub fn from_result(result: Result<kcm_cpu::Outcome, KcmError>) -> CaseOutcome {
        match result {
            Ok(outcome) => CaseOutcome::Answers {
                solutions: outcome
                    .solutions
                    .iter()
                    .map(|s| render_solution(s))
                    .collect(),
                output: normalize_output(&outcome.output),
                inferences: outcome.stats.inferences,
            },
            Err(e) => CaseOutcome::Error {
                class: error_class(&e).to_owned(),
            },
        }
    }
}

/// Renders one solution with alpha-normalized variable names.
pub fn render_solution(solution: &[(String, Term)]) -> String {
    let mut names = Vec::new();
    solution
        .iter()
        .map(|(n, t)| format!("{n}={}", normalize_term(t, &mut names)))
        .collect::<Vec<_>>()
        .join(",")
}

/// Rewrites `_G<addr>` machine variables to `_A, _B, …` in first-appearance
/// order. Shared variables keep their sharing: the same machine variable
/// maps to the same canonical name throughout one solution.
fn normalize_term(t: &Term, names: &mut Vec<String>) -> Term {
    match t {
        Term::Var(v) => {
            let ix = match names.iter().position(|n| n == v) {
                Some(ix) => ix,
                None => {
                    names.push(v.clone());
                    names.len() - 1
                }
            };
            Term::Var(canonical_var(ix))
        }
        Term::Struct(f, args) => Term::Struct(
            f.clone(),
            args.iter().map(|a| normalize_term(a, names)).collect(),
        ),
        other => other.clone(),
    }
}

fn canonical_var(ix: usize) -> String {
    // _A.._Z then _V26, _V27, …
    if ix < 26 {
        format!("_{}", (b'A' + ix as u8) as char)
    } else {
        format!("_V{ix}")
    }
}

/// Normalizes `_G<digits>` sequences in flat output text to a bare `_`.
///
/// Output is one flat stream for the whole run, so there is no sound way
/// to segment it into write calls: a heap address printed by one `write`
/// can be legitimately *reused* for a fresh variable after backtracking
/// (and whether it is depends on choice-point layout, which differs
/// across compile options). Variable identity in output is therefore not
/// an observable — only the positions of unbound variables are. Identity
/// *within* one solution is still compared exactly, term-level, by
/// [`render_solution`].
pub fn normalize_output(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'_' && bytes[i + 1..].starts_with(b"G") {
            let mut j = i + 2;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 2 {
                out.push('_');
                i = j;
                continue;
            }
        }
        let ch = s[i..].chars().next().expect("in bounds");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

/// A KCM session variant as an oracle engine: a fresh [`Kcm`] per case,
/// with three choices on top of the reference [`KcmEngine`] — the tier,
/// materializing or draining a cursor, and one run or replicas on a
/// [`SessionPool`]. Every variant must agree with every other engine.
pub struct SessionEngine {
    /// Which execution tier runs the case, whatever the caller's options
    /// say — which lets one shared [`QueryOpts`] drive a roster that
    /// mixes tiers.
    pub tier: Tier,
    /// Pull every enumerating case through a suspendable session
    /// ([`Kcm::solutions`]) one answer at a time instead of
    /// materializing: solution set, *order*, output and inference totals
    /// must survive. First-solution cases run the plain query path:
    /// pulling one answer stops before the query wrapper's final `halt`
    /// escape, so its inference count is not the same observable (cursor
    /// semantics are enumeration semantics).
    pub cursor: bool,
    /// Run several identical replicas of the case concurrently on a pool
    /// of this many workers (the serve front end's shape: many
    /// independent sessions over one shared image). Replicas disagreeing
    /// with each other is a `harness` error, which no healthy engine can
    /// match. `None` runs the case once.
    pub workers: Option<usize>,
}

/// Identical runs submitted per case by a pooled [`SessionEngine`], so a
/// multi-worker pool genuinely runs sessions concurrently.
const POOL_REPLICAS: usize = 3;

/// A comparable summary of one replica's raw result: the observables plus
/// the error class, nothing cost-model-relative beyond inferences (which
/// identical sessions must reproduce exactly).
fn replica_fingerprint(r: &Result<kcm_cpu::Outcome, KcmError>) -> String {
    match r {
        Ok(o) => format!("ok:{:?}|{:?}|{}", o.solutions, o.output, o.stats.inferences),
        Err(e) => format!("err:{}", error_class(e)),
    }
}

/// Drains a suspendable session to completion and reassembles an
/// [`kcm_cpu::Outcome`] from the per-slice deltas, so the cursor path can
/// be compared against materializing engines through the same
/// [`CaseOutcome`] normalization. The accumulated totals include the
/// final failing slice, which is exactly what a one-shot enumerate-all
/// run counts.
fn drain_session(mut session: Solutions) -> Result<kcm_cpu::Outcome, KcmError> {
    let mut solutions = Vec::new();
    while let Some(step) = session.next_step()? {
        solutions.push(step.solution);
    }
    Ok(kcm_cpu::Outcome {
        success: !solutions.is_empty(),
        solutions,
        stats: *session.totals(),
        profile: kcm_cpu::Profile::default(),
        output: session.output().to_owned(),
        trace: Vec::new(),
    })
}

impl SessionEngine {
    /// Runs the case on the loaded `kcm`: once, or as agreeing replicas.
    fn run(&self, kcm: &Kcm, query: &str, opts: &QueryOpts) -> Result<kcm_cpu::Outcome, KcmError> {
        let once = || {
            if self.cursor && opts.enumerate_all {
                kcm.solutions(query, opts).and_then(drain_session)
            } else {
                kcm.query(query, opts)
            }
        };
        let Some(workers) = self.workers else {
            return once();
        };
        let results = SessionPool::new(workers).map(&[(); POOL_REPLICAS], |_| once());
        let prints: Vec<String> = results.iter().map(replica_fingerprint).collect();
        if prints.iter().any(|p| p != &prints[0]) {
            return Err(KcmError::Harness("session replicas disagreed".to_owned()));
        }
        results.into_iter().next().expect("POOL_REPLICAS > 0")
    }
}

impl Engine for SessionEngine {
    fn name(&self) -> String {
        let tier = match self.tier {
            Tier::Cycle => "cycle",
            Tier::Native => "native",
        };
        match (self.cursor, self.workers) {
            (false, None) => format!("kcm-{tier}"),
            (false, Some(n)) => format!("kcm-pool(workers={n})"),
            (true, None) => format!("kcm-cursor({tier})"),
            (true, Some(n)) => format!("kcm-cursor-pool(workers={n})"),
        }
    }

    fn run_case(&self, source: ProgramSource<'_>, query: &str, opts: &QueryOpts) -> EngineOutcome {
        let opts = QueryOpts {
            tier: self.tier,
            ..opts.clone()
        };
        let mut kcm = Kcm::new();
        let result = kcm.load(source).and_then(|()| self.run(&kcm, query, &opts));
        EngineOutcome::new(self.name(), result)
    }
}

/// The full engine roster: the KCM simulator (the reference), the native
/// execution tier (no cycle model — its equivalence proof *is* this
/// roster), pooled KCM with 1 and N workers, the suspendable-session
/// cursor path (both tiers, plus pooled at 1 and 4 workers — the
/// enumeration-fidelity oracle for `kcm-serve` cursors), the generic
/// standard WAM, the Quintus-class software WAM and the PLM byte-code
/// machine.
pub fn standard_engines() -> Vec<Box<dyn Engine>> {
    let session = |tier, cursor, workers| -> Box<dyn Engine> {
        Box::new(SessionEngine {
            tier,
            cursor,
            workers,
        })
    };
    vec![
        Box::new(KcmEngine::new()),
        session(Tier::Native, false, None),
        session(Tier::Cycle, false, Some(1)),
        session(Tier::Cycle, false, Some(4)),
        session(Tier::Cycle, true, None),
        session(Tier::Native, true, None),
        session(Tier::Cycle, true, Some(1)),
        session(Tier::Cycle, true, Some(4)),
        Box::new(wam_baseline::BaselineModel::standard_wam(
            "wam-baseline",
            100.0,
        )),
        Box::new(swam::model()),
        Box::new(plm::model()),
    ]
}

/// One engine's report inside a divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Engine display name.
    pub engine: String,
    /// What it computed, normalized.
    pub outcome: CaseOutcome,
}

/// A confirmed cross-engine disagreement on one case.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Program source.
    pub source: String,
    /// Query text.
    pub query: String,
    /// Whether the case enumerated all solutions.
    pub enumerate: bool,
    /// Every engine's outcome, reference first.
    pub reports: Vec<EngineReport>,
}

impl Divergence {
    /// The engines that disagree with the reference (first) engine.
    pub fn disagreeing(&self) -> Vec<&EngineReport> {
        let reference = &self.reports[0].outcome;
        self.reports
            .iter()
            .skip(1)
            .filter(|r| &r.outcome != reference)
            .collect()
    }

    /// A human-readable report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("=== cross-engine divergence ===\n");
        s.push_str("--- program ---\n");
        s.push_str(&self.source);
        s.push_str(&format!("--- query ---\n?- {}.\n", self.query));
        s.push_str("--- engines ---\n");
        for r in &self.reports {
            match &r.outcome {
                CaseOutcome::Answers {
                    solutions,
                    output,
                    inferences,
                } => {
                    s.push_str(&format!(
                        "{:24} {} solutions, {} inferences",
                        r.engine,
                        solutions.len(),
                        inferences
                    ));
                    if !output.is_empty() {
                        s.push_str(&format!(", output {output:?}"));
                    }
                    s.push('\n');
                    for sol in solutions {
                        s.push_str(&format!("{:24}   {}\n", "", sol));
                    }
                }
                CaseOutcome::Error { class } => {
                    s.push_str(&format!("{:24} error: {class}\n", r.engine));
                }
            }
        }
        s
    }
}

/// The oracle's verdict on one case.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// All engines agreed.
    Agree,
    /// The case was not comparable (some engine hit the step budget).
    Skip(&'static str),
    /// Engines disagreed.
    Diverge(Box<Divergence>),
}

/// Runs one case through every engine under the oracle's step budget and
/// compares the normalized outcomes. The first engine is the reference.
pub fn compare(
    engines: &[Box<dyn Engine>],
    source: &str,
    query: &str,
    enumerate_all: bool,
) -> Verdict {
    // Tier stays the default (cycle); a [`SessionEngine`] pins its own
    // tier over these opts.
    let opts = QueryOpts {
        enumerate_all,
        step_budget: Some(STEP_BUDGET),
        ..QueryOpts::default()
    };
    let reports: Vec<EngineReport> = engines
        .iter()
        .map(|e| EngineReport {
            engine: e.name(),
            outcome: CaseOutcome::from_result(
                e.run_case(source.into(), query, &opts).into_result(),
            ),
        })
        .collect();
    if reports.iter().any(|r| r.outcome.is_budget()) {
        return Verdict::Skip("budget");
    }
    let reference = &reports[0].outcome;
    if reports.iter().all(|r| &r.outcome == reference) {
        Verdict::Agree
    } else {
        Verdict::Diverge(Box::new(Divergence {
            source: source.to_owned(),
            query: query.to_owned(),
            enumerate: enumerate_all,
            reports,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_on_a_simple_program() {
        let engines = standard_engines();
        let v = compare(&engines, "p(1). p(2). p(3).", "p(X)", true);
        assert!(matches!(v, Verdict::Agree), "{v:?}");
    }

    #[test]
    fn error_classes_compare_equal_across_arith_modes() {
        // Division by zero must be the same class through the native ALU
        // (KCM) and the escape evaluator (baselines).
        let engines = standard_engines();
        let v = compare(&engines, "d(X) :- X is 1 // 0.", "d(X)", true);
        assert!(matches!(v, Verdict::Agree), "{v:?}");
    }

    #[test]
    fn unbound_solutions_normalize_across_heap_layouts() {
        // The answer contains unbound variables; raw rendering would show
        // engine-specific heap addresses.
        let engines = standard_engines();
        let v = compare(&engines, "p(f(X, Y, X)).", "p(Z)", true);
        assert!(matches!(v, Verdict::Agree), "{v:?}");
    }

    #[test]
    fn runaway_cases_budget_skip_on_every_engine() {
        // The step budget is cost-model-independent, so a non-terminating
        // case skips uniformly rather than failing on whichever engine's
        // clock runs out first.
        let engines = standard_engines();
        let v = compare(&engines, "loop :- loop.", "loop", false);
        assert!(matches!(v, Verdict::Skip("budget")), "{v:?}");
    }

    #[test]
    fn normalize_output_erases_variable_identity() {
        // Heap addresses can be reused across backtracking, so identity in
        // the flat output stream is not comparable — every machine
        // variable collapses to `_`.
        assert_eq!(normalize_output("_G123 _G456 _G123"), "_ _ _");
        assert_eq!(normalize_output("x_Gy"), "x_Gy");
        assert_eq!(normalize_output(""), "");
    }

    #[test]
    fn render_solution_normalizes_shared_vars() {
        let sol = vec![
            ("X".to_owned(), Term::Var("_G77".to_owned())),
            (
                "Y".to_owned(),
                Term::Struct("f".to_owned(), vec![Term::Var("_G77".to_owned())]),
            ),
        ];
        assert_eq!(render_solution(&sol), "X=_A,Y=f(_A)");
    }

    #[test]
    fn a_wrong_engine_is_flagged() {
        struct Stub;
        impl Engine for Stub {
            fn name(&self) -> String {
                "stub".to_owned()
            }
            fn run_case(&self, _: ProgramSource<'_>, _: &str, _: &QueryOpts) -> EngineOutcome {
                // A fabricated single wrong answer.
                let mut kcm = Kcm::new();
                kcm.load("p(999).").expect("consult");
                EngineOutcome::new("stub", kcm.query("p(X)", &QueryOpts::all()))
            }
        }
        let engines: Vec<Box<dyn Engine>> = vec![Box::new(KcmEngine::new()), Box::new(Stub)];
        let v = compare(&engines, "p(1).", "p(X)", true);
        match v {
            Verdict::Diverge(d) => {
                assert_eq!(d.disagreeing().len(), 1);
                assert_eq!(d.disagreeing()[0].engine, "stub");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }
}
