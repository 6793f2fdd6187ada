//! The PLM baseline machine model (paper Tables 1 and 2).
//!
//! The PLM (Dobry, Despain, Patt — Berkeley, ISCA 1985) is the microcoded
//! WAM processor the paper compares against: byte-coded instructions
//! (averaging ≈3.3 bytes), cdr-coded lists, eager choice points, built-ins
//! through a 3-cycle escape, a 100 ns cycle. "The PLM timings result from
//! a simulation of the benchmark programs" — so does this model.
//!
//! Two exports:
//!
//! * [`model`] — the execution model (a [`BaselineModel`]): standard-WAM
//!   compilation (no shallow backtracking, no native arithmetic) with
//!   PLM-calibrated micro-costs at 100 ns.
//! * [`static_size`] — the Table 1 code-size model: byte-encoded
//!   instructions with cdr-coding of statically known list cells.

#![warn(missing_docs)]

use kcm_arch::{CostModel, Instr};
use kcm_system::KcmError;
use wam_baseline::BaselineModel;

/// PLM cycle time: 100 ns (10 MHz).
pub const PLM_CYCLE_NS: f64 = 100.0;

/// The PLM execution model.
///
/// Cost deltas against KCM, each an architectural difference the paper
/// names:
///
/// * eager choice points (no §3.1.5 shallow backtracking) — configured at
///   the engine level;
/// * `instr_overhead` 1: byte-stream decoding against KCM's fixed-width
///   predecoded words (§2.3);
/// * `unify_dispatch` 2 and slower memory ops: no MWAC one-cycle 16-way
///   type dispatch (§3.1.4), narrower datapaths;
/// * software trail check (`trail_check_sw` 1) instead of KCM's parallel
///   comparators (§3.1.5);
/// * `escape_base` 3: the paper's "standard 3 cycles" escape assumption;
/// * arithmetic through the escape evaluator (compiler option).
pub fn model() -> BaselineModel {
    let mut m = BaselineModel::standard_wam("plm", PLM_CYCLE_NS);
    m.cost = CostModel {
        cycle_ns: PLM_CYCLE_NS,
        instr_overhead: 1,
        unify_dispatch: 2,
        heap_read: 2,
        heap_write: 2,
        trail_check_sw: 1,
        escape_base: 3,
        jump: 3,
        proceed: 3,
        switch_on_term: 3,
        ..CostModel::default()
    };
    m
}

/// Static code size of a program under the PLM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlmSize {
    /// PLM instruction count.
    pub instrs: usize,
    /// PLM code bytes.
    pub bytes: usize,
}

/// Byte cost of one WAM-level instruction under the PLM's byte encoding:
/// one opcode byte, one byte per register/slot operand, four bytes per
/// constant, functor or code address, four bytes per table entry.
fn byte_size(i: &Instr) -> usize {
    match i {
        // Artifacts of the KCM compilation absent from PLM code; the
        // tail-chaining instruction is PLM's cdr *bit* inside the
        // preceding instruction (the cdr-coding advantage of §4.1).
        Instr::Neck | Instr::Mark | Instr::UnifyTailList => 0,
        Instr::Proceed
        | Instr::Deallocate
        | Instr::TrustMe
        | Instr::Cut
        | Instr::CutEnv
        | Instr::Fail
        | Instr::UnifyNil => 1,
        Instr::Allocate { .. }
        | Instr::UnifyVariable { .. }
        | Instr::UnifyVariableY { .. }
        | Instr::UnifyValue { .. }
        | Instr::UnifyValueY { .. }
        | Instr::UnifyLocalValue { .. }
        | Instr::UnifyLocalValueY { .. }
        | Instr::UnifyVoid { .. }
        | Instr::GetNil { .. }
        | Instr::GetList { .. }
        | Instr::PutNil { .. }
        | Instr::PutList { .. }
        | Instr::Escape { .. } => 2,
        Instr::GetVariable { .. }
        | Instr::GetVariableY { .. }
        | Instr::GetValue { .. }
        | Instr::GetValueY { .. }
        | Instr::PutVariable { .. }
        | Instr::PutVariableY { .. }
        | Instr::PutValue { .. }
        | Instr::PutValueY { .. }
        | Instr::PutUnsafeValue { .. } => 3,
        Instr::GetConstant { .. }
        | Instr::PutConstant { .. }
        | Instr::GetStructure { .. }
        | Instr::PutStructure { .. } => 6,
        Instr::UnifyConstant { .. } => 5,
        Instr::Call { .. } | Instr::Execute { .. } => 5,
        Instr::TryMeElse { .. }
        | Instr::RetryMeElse { .. }
        | Instr::Try { .. }
        | Instr::Retry { .. }
        | Instr::Trust { .. }
        | Instr::Jump { .. } => 5,
        Instr::SwitchOnTerm { .. } => 1 + 4 * 4,
        Instr::SwitchOnConstant { table, .. } => 1 + 4 + 8 * table.len(),
        Instr::SwitchOnStructure { table, .. } => 1 + 4 + 8 * table.len(),
        // Native KCM instructions never appear in PLM-compiled code
        // (inline_arith is off), but cost them plausibly anyway.
        _ => 3,
    }
}

/// Computes the PLM static size of `source`: the standard-WAM compilation
/// re-encoded in bytes, with cdr-coding credit.
///
/// cdr-coding lets the PLM "compile a statically known list cell in one
/// instruction rather than two in KCM" (§4.1): every chained static list
/// cell saves the `unify_variable Xn` / `get_list Xn` (or the spine-
/// threading `put_list` / `unify_value`) pair.
///
/// # Errors
///
/// Propagates parse and compile errors.
pub fn static_size(source: &str) -> Result<PlmSize, KcmError> {
    let m = model();
    let instrs = wam_baseline::compiled_instructions(&m, source, &["main_star"])?;
    let mut count = 0usize;
    let mut bytes = 0usize;
    for i in &instrs {
        if matches!(i, Instr::Neck | Instr::Mark | Instr::UnifyTailList) {
            continue;
        }
        count += 1;
        bytes += byte_size(i);
    }
    Ok(PlmSize {
        instrs: count,
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_system::QueryOpts;

    #[test]
    fn plm_runs_and_answers_correctly() {
        let out = model()
            .run(
                "nrev([],[]). nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).
                 app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).",
                "nrev([1,2,3], R)",
                &QueryOpts::first(),
            )
            .unwrap();
        assert!(out.success);
        assert_eq!(out.solutions[0][0].1.to_string(), "[3,2,1]");
        // 100 ns clock reported.
        assert!((out.stats.cycle_ns - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn plm_is_slower_than_kcm() {
        let src = "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).";
        let q = "app([1,2,3,4,5,6,7,8,9,10],[0],X)";
        let plm = model().run(src, q, &QueryOpts::first()).unwrap();
        let mut kcm = kcm_system::Kcm::new();
        kcm.load(src).unwrap();
        let k = kcm.query(q, &QueryOpts::first()).unwrap();
        let ratio = plm.stats.ms() / k.stats.ms();
        assert!(ratio > 1.5, "PLM/KCM ratio {ratio}");
    }

    #[test]
    fn byte_model_averages_near_published_density() {
        // PLM instructions average about 3.3 bytes (§4.1).
        let src = "
            app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).
            member(X,[X|_]). member(X,[_|T]) :- member(X,T).
            main :- app([a,b,c],[d],X), member(d,X).
        ";
        let s = static_size(src).unwrap();
        let avg = s.bytes as f64 / s.instrs as f64;
        assert!((2.0..5.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn cdr_coding_credits_static_lists() {
        // PLM spends one instruction per static list cell (cdr bit); KCM
        // spends two (item + tail chain).
        let with_list = static_size("p([a,b,c,d,e,f]).").unwrap();
        let without = static_size("p(x).").unwrap();
        let delta = with_list.instrs - without.instrs;
        assert!(delta <= 7, "delta {delta}");
    }
}
