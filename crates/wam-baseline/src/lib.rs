//! Shared software-WAM baseline machinery.
//!
//! The paper's comparison systems — Berkeley's PLM (Tables 1 and 2) and
//! Quintus 2.0 on a SUN3/280 (Table 3) — are, like KCM, implementations of
//! Warren's abstract machine. What separates them from KCM is not the
//! abstract instruction set but the *engine parameters*: eager choice
//! points instead of KCM's deferred shallow-backtracking discipline
//! (§3.1.5), escape/evaluator arithmetic instead of native ALU code (§4),
//! byte-coded or software dispatch instead of fixed 64-bit predecoded
//! words (§2.3), no parallel trail check or MWAC, and a different clock.
//!
//! This crate therefore models a baseline as a [`BaselineModel`]: a
//! compiler configuration plus a cost model run on the same WAM executor,
//! which both keeps the comparison apples-to-apples (identical program
//! semantics, differential-testable answers) and makes every architectural
//! delta an explicit, documented parameter. The concrete PLM and
//! Quintus-class models live in the `plm` and `swam` crates.
//!
//! # Examples
//!
//! ```
//! use wam_baseline::BaselineModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = BaselineModel::standard_wam("demo", 100.0);
//! let outcome = model.run(
//!     "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).",
//!     "app([1,2],[3],X)",
//!     &Default::default(),
//! )?;
//! assert!(outcome.success);
//! assert_eq!(outcome.solutions[0][0].1.to_string(), "[1,2,3]");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use kcm_arch::CostModel;
use kcm_compiler::CompileOptions;
use kcm_cpu::{MachineConfig, Outcome};
use kcm_mem::MemConfig;
use kcm_system::{
    prepare_query, snapshot_unsupported, Engine, KcmError, ProgramSource, QueryOpts, Tier,
};
use std::sync::Arc;

/// A baseline machine model: how to compile and how to cost each
/// micro-operation.
#[derive(Debug, Clone)]
pub struct BaselineModel {
    /// Model name ("plm", "swam", …).
    pub name: &'static str,
    /// Compiler configuration for this target.
    pub compile: CompileOptions,
    /// Cycle cost model, including the clock (`cost.cycle_ns`).
    pub cost: CostModel,
    /// Whether the engine performs KCM-style shallow backtracking; all
    /// standard-WAM baselines create choice points eagerly at `try`.
    pub shallow_backtracking: bool,
    /// Memory system configuration (miss penalties, sectioned cache).
    pub mem: MemConfig,
}

impl BaselineModel {
    /// A generic standard-WAM machine at the given clock with otherwise
    /// KCM-like costs — the starting point the concrete models adjust.
    pub fn standard_wam(name: &'static str, cycle_ns: f64) -> BaselineModel {
        let cost = CostModel {
            cycle_ns,
            ..CostModel::default()
        };
        BaselineModel {
            name,
            compile: CompileOptions::standard_wam(),
            cost,
            shallow_backtracking: false,
            mem: MemConfig::default(),
        }
    }

    /// The machine configuration realizing this model.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            cost: self.cost,
            mem: self.mem.clone(),
            shallow_backtracking: self.shallow_backtracking,
            ..MachineConfig::default()
        }
    }

    /// Compiles `source` for this baseline and runs `query` under `opts`
    /// on a fresh machine. A baseline is a cost model, so it always runs
    /// on the cycle tier whatever `opts.tier` says.
    ///
    /// # Errors
    ///
    /// Propagates parse, compile and machine errors.
    pub fn run(&self, source: &str, query: &str, opts: &QueryOpts) -> Result<Outcome, KcmError> {
        let clauses = kcm_prolog::read_program(source)?;
        let mut symbols = kcm_arch::SymbolTable::new();
        let image = Arc::new(kcm_compiler::compile_program_with(
            &clauses,
            &mut symbols,
            &self.compile,
        )?);
        let opts = QueryOpts {
            tier: Tier::Cycle,
            ..opts.clone()
        };
        prepare_query(&image, &symbols, &self.machine_config(), query, &opts)?
            .run(opts.enumerate_all)
    }
}

impl Engine for BaselineModel {
    fn name(&self) -> String {
        self.name.to_owned()
    }

    fn run_case(
        &self,
        source: ProgramSource<'_>,
        query: &str,
        opts: &QueryOpts,
    ) -> Result<Outcome, KcmError> {
        // Baseline models recompile per case by design; a binary KCM
        // snapshot has no source to recompile from, so it is refused
        // with the classed error every snapshotless engine shares.
        match source {
            ProgramSource::Source(source) => self.run(source, query, opts),
            ProgramSource::Snapshot(_) => Err(snapshot_unsupported(self.name)),
        }
    }
}

/// Compiles `source` for the baseline and returns the per-predicate sizes
/// of the non-auxiliary predicates (instructions, 64-bit words) — the raw
/// material the concrete models turn into their own encodings.
///
/// # Errors
///
/// Propagates parse and compile errors.
pub fn compiled_sizes(model: &BaselineModel, source: &str) -> Result<(usize, usize), KcmError> {
    let clauses = kcm_prolog::read_program(source)?;
    let mut symbols = kcm_arch::SymbolTable::new();
    let image = kcm_compiler::compile_program_with(&clauses, &mut symbols, &model.compile)?;
    let mut instrs = 0;
    let mut words = 0;
    for s in image.sizes() {
        if !s.auxiliary {
            instrs += s.instrs;
            words += s.words;
        }
    }
    Ok((instrs, words))
}

/// Compiles `source` for the baseline and returns the decoded instruction
/// stream of non-auxiliary predicates, for size-model walks.
///
/// # Errors
///
/// Propagates parse and compile errors.
pub fn compiled_instructions(
    model: &BaselineModel,
    source: &str,
    exclude: &[&str],
) -> Result<Vec<kcm_arch::Instr>, KcmError> {
    let clauses = kcm_prolog::read_program(source)?;
    let mut symbols = kcm_arch::SymbolTable::new();
    let image = kcm_compiler::compile_program_with(&clauses, &mut symbols, &model.compile)?;
    // Collect the instruction stream across the predicate spans, skipping
    // compiler auxiliaries (the paper excludes the runtime library) and
    // any caller-excluded drivers.
    let mut out = Vec::new();
    for size in image.sizes() {
        if size.auxiliary || exclude.contains(&size.id.name.as_str()) {
            continue;
        }
        out.extend(image.instructions_of(size));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_wam_answers_match_kcm() {
        let src = "
            p(1). p(2). p(3).
            s(X) :- p(X), X > 1.
        ";
        let model = BaselineModel::standard_wam("test", 100.0);
        let base = model.run(src, "s(X)", &QueryOpts::all()).unwrap();
        let mut kcm = kcm_system::Kcm::new();
        kcm.load(src).unwrap();
        let kcm_out = kcm.query("s(X)", &QueryOpts::all()).unwrap();
        let b: Vec<String> = base.solutions.iter().map(|s| s[0].1.to_string()).collect();
        let k: Vec<String> = kcm_out
            .solutions
            .iter()
            .map(|s| s[0].1.to_string())
            .collect();
        assert_eq!(b, k);
        assert_eq!(b, vec!["2", "3"]);
    }

    #[test]
    fn eager_choice_points_show_in_stats() {
        let src = "p(1). p(2). q(X) :- p(X).";
        let model = BaselineModel::standard_wam("test", 100.0);
        // An unbound call goes through the try chain: standard WAM pushes
        // the choice point eagerly at `try` (no shallow backtracking).
        let out = model.run(src, "q(X)", &QueryOpts::first()).unwrap();
        assert!(out.stats.choice_points > 0);
        assert_eq!(out.stats.shallow_fails, 0);
    }

    #[test]
    fn clock_scales_reported_time() {
        let src = "p(1).";
        let fast = BaselineModel::standard_wam("fast", 50.0);
        let slow = BaselineModel::standard_wam("slow", 200.0);
        let f = fast.run(src, "p(X)", &QueryOpts::first()).unwrap();
        let s = slow.run(src, "p(X)", &QueryOpts::first()).unwrap();
        assert_eq!(f.stats.cycles, s.stats.cycles);
        assert!((s.stats.ms() / f.stats.ms() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn escape_arithmetic_is_used() {
        // With inline_arith off, `is/2` must still work (through the
        // generic evaluator).
        let model = BaselineModel::standard_wam("test", 100.0);
        let out = model
            .run(
                "double(X, Y) :- Y is X * 2.",
                "double(21, Z)",
                &QueryOpts::first(),
            )
            .unwrap();
        assert_eq!(out.solutions[0][0].1.to_string(), "42");
    }
}
