//! The KCM cycle model (paper §2.5, §3.1, §3.2.4–§3.2.6, §4).
//!
//! KCM is "an entirely synchronous machine, controlled by a single central
//! microsequencer" with a 4-phase clock at 80 ns. The reproduction executes
//! macro-instructions and charges cycles according to the micro-step costs
//! documented here; every constant cites its source in the paper.
//!
//! Calibration anchors from the paper:
//!
//! * "Most data manipulation instructions execute in one cycle" (§3.1.1).
//! * Immediate jump and call instructions take two cycles; conditional
//!   branches one cycle untaken, four taken (§3.1.3).
//! * A minimal call/return sequence costs 5 cycles — "two prefetch pipeline
//!   breaks" (§4.2).
//! * Reference chains are followed at one reference per cycle (§3.1.4).
//! * Choice-point save/restore moves one register per cycle through the RAC
//!   (§3.1.5).
//! * Cache access (hit) is 80 ns = 1 cycle for both caches (§3.2.4); main
//!   memory is accessed in 32-bit halves with a fast page mode (§3.2.6).
//! * One `concat` inference step is 15 cycles → 833 Klips peak (§4.3).

/// Nanoseconds per KCM cycle (80 ns, 12.5 MHz — §3).
pub const CYCLE_NS: f64 = 80.0;

/// A cycle count.
pub type Cycles = u64;

/// The per-micro-operation cost table of the KCM simulator.
///
/// The [`Default`] instance is the paper-calibrated model. Ablation benches
/// construct variants (e.g. no shallow backtracking, no trail hardware) by
/// adjusting fields. Cache miss and write-back penalties are not here:
/// the memory system charges them from its own configuration
/// (`kcm_mem::MemConfig`).
///
/// # Examples
///
/// ```
/// use kcm_arch::CostModel;
/// let m = CostModel::default();
/// assert_eq!(m.reg_op, 1);
/// assert_eq!(m.branch_taken, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Nanoseconds per machine cycle. KCM runs at 80 ns (§3); the PLM
    /// model at 100 ns; the software-WAM model at the 40 ns of a 25 MHz
    /// 68020 host.
    pub cycle_ns: f64,
    /// Fixed decode/dispatch overhead charged on *every* instruction —
    /// zero on KCM (fixed-width words, predecoding prefetch hardware,
    /// §2.3/§3.1.3); positive on byte-coded (PLM) and software-emulated
    /// (Quintus-class) machines.
    pub instr_overhead: Cycles,
    /// Register-to-register data manipulation (move2, ALU add/sub/logic):
    /// 1 cycle (§3.1.1).
    pub reg_op: Cycles,
    /// Integer multiplication (multi-cycle exception, §3.1.1; §4.2 notes
    /// that *floating* multiplication is "significantly faster" than
    /// integer, so the integer unit iterates).
    pub int_mul: Cycles,
    /// Integer division / remainder (multi-cycle, slower than the FPU).
    pub int_div: Cycles,
    /// FPU operation (32-bit IEEE, multi-cycle exception).
    pub fp_op: Cycles,
    /// Immediate jump or call: "immediate jump and call instructions take
    /// two cycles" (§3.1.3).
    pub jump: Cycles,
    /// Return (`proceed`) — a prefetch pipeline break; together with call
    /// this yields the 5-cycle minimal call/return sequence of §4.2.
    pub proceed: Cycles,
    /// Conditional branch, not taken (§3.1.3).
    pub branch_not_taken: Cycles,
    /// Conditional branch, taken (§3.1.3).
    pub branch_taken: Cycles,
    /// Extra cycles per reference-chain link *beyond* the one-cycle data
    /// cache read — the hardware follows "one reference per cycle"
    /// (§3.1.4), so the default extra is zero.
    pub deref_link: Cycles,
    /// Base cost of a unification instruction's MWAC dispatch. The MWAC
    /// maps the two input types to a microcode offset within the same
    /// cycle, so dispatch itself costs one cycle of µcode entry.
    pub unify_dispatch: Cycles,
    /// Writing one heap cell in write-mode unification.
    pub heap_write: Cycles,
    /// Reading one heap cell in read-mode unification.
    pub heap_read: Cycles,
    /// Extra cycles per variable binding beyond the store itself. The
    /// trail check is free: "the Trail hardware [...] performs these
    /// comparisons in parallel with dereferencing" (§3.1.5).
    pub bind: Cycles,
    /// Extra cycles per trail push beyond the trail-stack write itself.
    pub trail_push: Cycles,
    /// Extra cycles per trail check when the trail *hardware is disabled*
    /// (ablation: up to three sequential comparisons, §3.1.5).
    pub trail_check_sw: Cycles,
    /// Fixed µcode overhead of pushing a choice point beyond the frame
    /// writes themselves (each frame word costs one memory cycle).
    pub choice_point_fixed: Cycles,
    /// Extra per-register cost of saving/restoring arguments beyond the
    /// memory cycle: the RAC loop moves "one register per cycle" (§3.1.5),
    /// i.e. the memory access is the whole cost and the default extra is
    /// zero.
    pub choice_point_per_reg: Cycles,
    /// Saving the shadow registers on a shallow `try` (three state
    /// registers, §3.1.5).
    pub shallow_save: Cycles,
    /// Restoring after a shallow failure (shadows + mode).
    pub shallow_restore: Cycles,
    /// switch_on_term: deref of A1 is charged separately; the dispatch is a
    /// microcode 16-way branch plus a pipeline redirect.
    pub switch_on_term: Cycles,
    /// switch_on_constant / switch_on_structure probe cost per table entry
    /// (the real machine hashes; small tables probe linearly in µcode).
    pub switch_table_probe: Cycles,
    /// Extra µcode for environment allocate beyond the frame writes
    /// (pointer computation).
    pub allocate: Cycles,
    /// Extra µcode for environment deallocate beyond the frame reads.
    pub deallocate: Cycles,
    /// Escape to a built-in: the paper's benchmark assumption charges a
    /// call/return-equivalent 5 cycles for `write/1` and `nl/0` (§4.2).
    pub escape_base: Cycles,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            cycle_ns: CYCLE_NS,
            instr_overhead: 0,
            reg_op: 1,
            int_mul: 45,
            int_div: 60,
            fp_op: 4,
            jump: 2,
            proceed: 2,
            branch_not_taken: 1,
            branch_taken: 4,
            deref_link: 0,
            unify_dispatch: 1,
            heap_write: 1,
            heap_read: 1,
            bind: 0,
            trail_push: 0,
            trail_check_sw: 0,
            choice_point_fixed: 1,
            choice_point_per_reg: 0,
            shallow_save: 1,
            shallow_restore: 2,
            switch_on_term: 2,
            switch_table_probe: 1,
            allocate: 1,
            deallocate: 1,
            escape_base: 5,
        }
    }
}

impl CostModel {
    /// The paper-calibrated KCM model (same as [`Default`]).
    pub fn kcm() -> CostModel {
        CostModel::default()
    }

    /// Ablation variant: trail hardware disabled — each binding pays the
    /// three sequential limit comparisons in microcode (§3.1.5 explains the
    /// hardware exists to hide exactly this).
    pub fn without_trail_hardware(mut self) -> CostModel {
        self.trail_check_sw = 3;
        self
    }

    /// Ablation variant: no MWAC — unification instructions pay a serial
    /// type-test tree (two tests on average) instead of the one-cycle
    /// 16-way dispatch (§3.1.4).
    pub fn without_mwac(mut self) -> CostModel {
        self.unify_dispatch = 3;
        self.switch_on_term = 5;
        self
    }

    /// Converts cycles to milliseconds at this model's clock.
    pub fn cycles_to_ms(&self, cycles: Cycles) -> f64 {
        cycles as f64 * self.cycle_ns / 1.0e6
    }

    /// Kilo logical inferences per second for a measured run.
    ///
    /// Returns 0.0 for an empty run.
    pub fn klips(&self, inferences: u64, cycles: Cycles) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let seconds = cycles as f64 * self.cycle_ns * 1.0e-9;
        inferences as f64 / seconds / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_return_minimum_is_five_cycles() {
        // §4.2: "a call to these predicates costs only 5 cycles (the
        // minimum for a call/return sequence which creates two prefetch
        // pipeline breaks)". Our model: call (2) + proceed (2) + the unit
        // clause body fetch (1).
        let m = CostModel::default();
        assert_eq!(m.jump + m.proceed + 1, 5);
        assert_eq!(m.escape_base, 5);
    }

    #[test]
    fn klips_of_the_peak_concat_step() {
        // §4.3: one concatenation step is 15 cycles → 833 Klips.
        let m = CostModel::default();
        let klips = m.klips(1, 15);
        assert!((klips - 833.3).abs() < 1.0, "klips = {klips}");
    }

    #[test]
    fn ms_conversion() {
        let m = CostModel::default();
        // 12 500 cycles at 80 ns = 1 ms.
        assert!((m.cycles_to_ms(12_500) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cycles_yield_zero_klips() {
        assert_eq!(CostModel::default().klips(10, 0), 0.0);
    }

    #[test]
    fn ablations_only_increase_costs() {
        let base = CostModel::default();
        let no_trail = base.without_trail_hardware();
        assert!(no_trail.trail_check_sw > base.trail_check_sw);
        let no_mwac = base.without_mwac();
        assert!(no_mwac.unify_dispatch > base.unify_dispatch);
        assert!(no_mwac.switch_on_term > base.switch_on_term);
    }
}
