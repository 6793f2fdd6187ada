//! The software-WAM emulator model standing in for Quintus 2.0 on a
//! SUN3/280 (paper Table 3).
//!
//! The paper measured "one of the best commercial systems, QUINTUS 2.0,
//! running on a SUN3/280 workstation (M68020 25MHz, FPU 20MHz, 16Mbytes of
//! main memory)". Quintus is a byte-code WAM emulated in software: every
//! abstract-machine step pays host instructions for fetch/decode/dispatch,
//! software tag manipulation, software trail checks and a memory system
//! without any Prolog assists. The model expresses exactly those taxes as
//! host-cycle costs at the 68020's 40 ns clock.
//!
//! Table 3's footnote also applies: "Quintus does not allow the integer
//! arithmetic and static linking optimisations" — the model compiles with
//! escape-based arithmetic, and the call costs include the indirect
//! dispatch of dynamic linking.

#![warn(missing_docs)]

use kcm_arch::CostModel;
use wam_baseline::BaselineModel;

/// Host cycle time: 40 ns (25 MHz M68020).
pub const SUN3_CYCLE_NS: f64 = 40.0;

/// The Quintus-class software-WAM model.
///
/// Cost rationale (all in 68020 cycles):
///
/// * `instr_overhead` 10: byte fetch + dispatch through a jump table —
///   the core tax of software emulation;
/// * `heap_read`/`heap_write` 4: memory access plus software tag
///   masking/insertion;
/// * `unify_dispatch` 6: a conditional tree instead of KCM's MWAC;
/// * `trail_check_sw` 4: three compares and a branch, §3.1.5's point;
/// * `deref_link` 3: pointer chase with tag test per link;
/// * `jump`/`proceed` 12: procedure-call sequences through memory,
///   including the indirect calls of dynamic linking (§4.2 notes fast
///   indirect calls cost KCM only 4 cycles — the 68020 pays far more);
/// * `choice_point_fixed` 48 / `choice_point_per_reg` 6 / `trail_push` 8:
///   choice points are full C structure writes with software state
///   save/restore — the dominant cost of backtracking-heavy programs
///   (the paper: "as soon as the execution backtracks, higher ratios are
///   observed");
/// * `int_mul` 350 / `int_div` 650: generic (boxed, overflow-checked)
///   arithmetic around the 68020's already slow MULS/DIVS;
/// * `escape_base` 50: C-level built-in entry/exit.
pub fn model() -> BaselineModel {
    let mut m = BaselineModel::standard_wam("swam", SUN3_CYCLE_NS);
    m.cost = CostModel {
        cycle_ns: SUN3_CYCLE_NS,
        instr_overhead: 10,
        reg_op: 2,
        heap_read: 4,
        heap_write: 4,
        unify_dispatch: 6,
        trail_check_sw: 4,
        deref_link: 3,
        jump: 12,
        proceed: 12,
        branch_not_taken: 3,
        branch_taken: 6,
        switch_on_term: 10,
        switch_table_probe: 4,
        allocate: 10,
        deallocate: 8,
        choice_point_fixed: 48,
        choice_point_per_reg: 6,
        shallow_save: 2,
        shallow_restore: 6,
        escape_base: 50,
        int_mul: 350,
        int_div: 650,
        fp_op: 50,
        bind: 2,
        trail_push: 8,
    };
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_system::QueryOpts;

    #[test]
    fn swam_runs_and_answers_correctly() {
        let out = model()
            .run("p(1). p(2).", "p(X)", &QueryOpts::all())
            .unwrap();
        assert_eq!(out.solutions.len(), 2);
        assert!((out.stats.cycle_ns - 40.0).abs() < f64::EPSILON);
    }

    #[test]
    fn swam_is_much_slower_than_kcm() {
        let src = "
            nrev([],[]). nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).
            app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).
        ";
        let q = "nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20], R)";
        let s = model().run(src, q, &QueryOpts::first()).unwrap();
        let mut kcm = kcm_system::Kcm::new();
        kcm.load(src).unwrap();
        let k = kcm.query(q, &QueryOpts::first()).unwrap();
        let ratio = s.stats.ms() / k.stats.ms();
        assert!(ratio > 3.0, "Quintus-class/KCM ratio {ratio}");
        assert!(ratio < 30.0, "Quintus-class/KCM ratio {ratio}");
    }
}
