//! The execution profile — the observability layer of the simulator.
//!
//! The paper's tool set includes "monitors (at microcode, macrocode, and
//! Prolog levels)" (§4); mature Prolog systems grew the same facilities
//! into first-class subsystems (SICStus `statistics/2` and its profiler,
//! B-Prolog's event-driven instrumentation). This module is that layer
//! for the KCM model: [`Profile`] holds the per-run breakdown that the
//! run totals of [`RunStats`](crate::RunStats) do not — retired count and
//! cycles per instruction class, MWAC dispatch outcomes (§3.1.4), table
//! switch outcomes, trail-condition checks (§3.1.5) and a
//! dereference-chain length histogram (§3.1.4). Every machine event is
//! counted once: backtracks, trail pushes and zone growths are
//! [`RunStats`](crate::RunStats) counters. Like those, profiles of
//! independent sessions merge deterministically in session order.

use crate::mwac::UnifyCase;
use kcm_arch::isa::Instr;

/// Instruction classes of the per-opcode execution profile. Every ISA
/// opcode maps to exactly one class ([`InstrClass::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstrClass {
    /// Procedural control: call/execute/proceed, environments, jumps,
    /// halt and the inference-accounting `mark`.
    Control,
    /// Choice-point machinery: try/retry/trust chains, neck, cut, fail.
    Choice,
    /// Clause indexing: the three `switch_on_*` instructions.
    Index,
    /// Head unification: the `get_*` family.
    Get,
    /// Argument construction: the `put_*` family.
    Put,
    /// Structure-argument unification: the `unify_*` family.
    Unify,
    /// Built-in escapes to the host monitor.
    Escape,
    /// Generic ALU/FPU work: arithmetic, compares, branches, register
    /// moves and tag manipulation.
    Arith,
    /// Explicit loads and stores of the general-purpose subset.
    Mem,
}

impl InstrClass {
    /// Number of classes (array dimension of [`Profile::classes`]).
    pub const COUNT: usize = 9;

    /// All classes, in display order.
    pub const ALL: [InstrClass; InstrClass::COUNT] = [
        InstrClass::Control,
        InstrClass::Choice,
        InstrClass::Index,
        InstrClass::Get,
        InstrClass::Put,
        InstrClass::Unify,
        InstrClass::Escape,
        InstrClass::Arith,
        InstrClass::Mem,
    ];

    /// Stable lower-case name (used by reports and the JSONL schema).
    pub fn name(self) -> &'static str {
        match self {
            InstrClass::Control => "control",
            InstrClass::Choice => "choice",
            InstrClass::Index => "index",
            InstrClass::Get => "get",
            InstrClass::Put => "put",
            InstrClass::Unify => "unify",
            InstrClass::Escape => "escape",
            InstrClass::Arith => "arith",
            InstrClass::Mem => "mem",
        }
    }

    /// The class of a decoded instruction.
    pub fn of(instr: &Instr) -> InstrClass {
        match instr {
            Instr::Call { .. }
            | Instr::Execute { .. }
            | Instr::Proceed
            | Instr::Allocate { .. }
            | Instr::Deallocate
            | Instr::Jump { .. }
            | Instr::Halt { .. }
            | Instr::Mark => InstrClass::Control,
            Instr::TryMeElse { .. }
            | Instr::RetryMeElse { .. }
            | Instr::TrustMe
            | Instr::Try { .. }
            | Instr::Retry { .. }
            | Instr::Trust { .. }
            | Instr::Neck
            | Instr::Cut
            | Instr::CutEnv
            | Instr::Fail => InstrClass::Choice,
            Instr::SwitchOnTerm { .. }
            | Instr::SwitchOnConstant { .. }
            | Instr::SwitchOnStructure { .. } => InstrClass::Index,
            Instr::GetVariable { .. }
            | Instr::GetVariableY { .. }
            | Instr::GetValue { .. }
            | Instr::GetValueY { .. }
            | Instr::GetConstant { .. }
            | Instr::GetNil { .. }
            | Instr::GetList { .. }
            | Instr::GetStructure { .. } => InstrClass::Get,
            Instr::PutVariable { .. }
            | Instr::PutVariableY { .. }
            | Instr::PutValue { .. }
            | Instr::PutValueY { .. }
            | Instr::PutUnsafeValue { .. }
            | Instr::PutConstant { .. }
            | Instr::PutNil { .. }
            | Instr::PutList { .. }
            | Instr::PutStructure { .. } => InstrClass::Put,
            Instr::UnifyVariable { .. }
            | Instr::UnifyVariableY { .. }
            | Instr::UnifyValue { .. }
            | Instr::UnifyValueY { .. }
            | Instr::UnifyLocalValue { .. }
            | Instr::UnifyLocalValueY { .. }
            | Instr::UnifyConstant { .. }
            | Instr::UnifyNil
            | Instr::UnifyVoid { .. }
            | Instr::UnifyTailList => InstrClass::Unify,
            Instr::Escape { .. } => InstrClass::Escape,
            Instr::Move2 { .. }
            | Instr::LoadConst { .. }
            | Instr::Alu { .. }
            | Instr::CmpRegs { .. }
            | Instr::Branch { .. }
            | Instr::Deref { .. }
            | Instr::TvmSwap { .. }
            | Instr::TvmGc { .. } => InstrClass::Arith,
            Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::LoadDirect { .. }
            | Instr::StoreDirect { .. } => InstrClass::Mem,
            // Future `non_exhaustive` opcodes fault before retiring, but
            // classify conservatively if they ever reach the profile.
            _ => InstrClass::Control,
        }
    }
}

/// Retired count and consumed cycles of one instruction class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Instructions of this class retired.
    pub retired: u64,
    /// Cycles consumed executing them (including memory-miss extras
    /// charged during the instruction).
    pub cycles: u64,
}

/// MWAC dispatch outcome counters (§3.1.4): how often the 16-way type
/// branch of general unification selected each microcode case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MwacCounters {
    /// Left operand unbound: bind left to right.
    pub bind_left: u64,
    /// Right operand unbound: bind right to left.
    pub bind_right: u64,
    /// Both constants: compare tag and value.
    pub compare_constants: u64,
    /// Both lists: descend.
    pub descend_list: u64,
    /// Both structures: compare functors, descend.
    pub descend_struct: u64,
    /// Type clash: fail.
    pub clash: u64,
}

impl MwacCounters {
    /// Total dispatches.
    pub fn total(&self) -> u64 {
        self.bind_left
            + self.bind_right
            + self.compare_constants
            + self.descend_list
            + self.descend_struct
            + self.clash
    }
}

/// Clause-indexing switch dispatch counters: how the table switches
/// (`switch_on_constant` / `switch_on_structure`) resolved their lookups.
///
/// Probes count the *charged* table probes of the simulated machine — a
/// hit at table ordinal `k` charges `k + 1` probes, a miss charges the
/// full table length. These are dispatch outcomes, determined by program
/// semantics alone, so the numbers are identical whether the host
/// resolved the lookup through the link-time hash side table or the
/// linear reference scan (and identical across execution tiers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Table probes charged across all table-switch dispatches.
    pub probes: u64,
    /// Dispatches that found their key in the table.
    pub hits: u64,
    /// Dispatches that missed the table (took the default or failed).
    pub misses: u64,
    /// Second-level (depth-2) dispatches: `switch_on_term` on an
    /// argument register other than A1, i.e. entries into the
    /// second-level tables of depth-2 fact indexing.
    pub depth2: u64,
}

/// Dereference-chain histogram buckets: chains of length 0..=7 links,
/// plus one overflow bucket for 8 links and longer.
pub const DEREF_HIST_BUCKETS: usize = 9;

/// Per-run execution profile: the per-opcode-class breakdown and the
/// outcomes of the paper's hardware mechanisms that no
/// [`RunStats`](crate::RunStats) counter holds. All counters are plain
/// sums, so profiles merge exactly like [`RunStats`](crate::RunStats) —
/// counter-by-counter, in session order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Profile {
    /// Retired count + cycles per instruction class, indexed in
    /// [`InstrClass::ALL`] order.
    pub classes: [ClassCounters; InstrClass::COUNT],
    /// MWAC dispatch outcomes of general unification (§3.1.4).
    pub mwac: MwacCounters,
    /// Clause-indexing switch dispatch outcomes.
    pub switches: SwitchCounters,
    /// Trail-condition evaluations (every binding checks it; the
    /// hardware runs the check in parallel with dereferencing, §3.1.5).
    pub trail_checks: u64,
    /// Dereference chains by length: `deref_hist[n]` counts chains that
    /// followed exactly `n` links; the last bucket collects 8+.
    pub deref_hist: [u64; DEREF_HIST_BUCKETS],
}

impl Profile {
    /// Records one retired instruction of class `class` that consumed
    /// `cycles`.
    #[inline]
    pub(crate) fn retire(&mut self, class: InstrClass, cycles: u64) {
        let c = &mut self.classes[class as usize];
        c.retired += 1;
        c.cycles += cycles;
    }

    /// Records one MWAC dispatch outcome.
    #[inline]
    pub(crate) fn record_dispatch(&mut self, case: UnifyCase) {
        match case {
            UnifyCase::BindLeft => self.mwac.bind_left += 1,
            UnifyCase::BindRight => self.mwac.bind_right += 1,
            UnifyCase::CompareConstants => self.mwac.compare_constants += 1,
            UnifyCase::DescendList => self.mwac.descend_list += 1,
            UnifyCase::DescendStruct => self.mwac.descend_struct += 1,
            UnifyCase::Clash => self.mwac.clash += 1,
        }
    }

    /// Records one completed dereference chain of `links` links.
    #[inline]
    pub(crate) fn record_deref_chain(&mut self, links: usize) {
        let bucket = links.min(DEREF_HIST_BUCKETS - 1);
        self.deref_hist[bucket] += 1;
    }

    /// Total instructions retired across every class.
    pub fn retired_total(&self) -> u64 {
        self.classes.iter().map(|c| c.retired).sum()
    }

    /// Total cycles attributed across every class.
    pub fn cycles_total(&self) -> u64 {
        self.classes.iter().map(|c| c.cycles).sum()
    }

    /// The counters of one class.
    pub fn class(&self, class: InstrClass) -> ClassCounters {
        self.classes[class as usize]
    }

    /// Total dereference chains observed (all histogram buckets).
    pub fn deref_chains_total(&self) -> u64 {
        self.deref_hist.iter().sum()
    }

    /// Adds another session's profile into this aggregate. Every counter
    /// sums, the same discipline as
    /// [`RunStats::merge`](crate::RunStats::merge).
    pub fn merge(&mut self, other: &Profile) {
        for (mine, theirs) in self.classes.iter_mut().zip(&other.classes) {
            mine.retired += theirs.retired;
            mine.cycles += theirs.cycles;
        }
        self.mwac.bind_left += other.mwac.bind_left;
        self.mwac.bind_right += other.mwac.bind_right;
        self.mwac.compare_constants += other.mwac.compare_constants;
        self.mwac.descend_list += other.mwac.descend_list;
        self.mwac.descend_struct += other.mwac.descend_struct;
        self.mwac.clash += other.mwac.clash;
        self.switches.probes += other.switches.probes;
        self.switches.hits += other.switches.hits;
        self.switches.misses += other.switches.misses;
        self.switches.depth2 += other.switches.depth2;
        self.trail_checks += other.trail_checks;
        for (mine, theirs) in self.deref_hist.iter_mut().zip(&other.deref_hist) {
            *mine += theirs;
        }
    }

    /// Deterministic aggregate of per-session profiles: counters summed
    /// in iteration order (the [`RunStats::merged`](crate::RunStats::merged)
    /// discipline). An empty iterator yields the zero profile.
    pub fn merged<'a>(profiles: impl IntoIterator<Item = &'a Profile>) -> Profile {
        let mut out = Profile::default();
        for p in profiles {
            out.merge(p);
        }
        out
    }

    /// The per-run delta between this (cumulative) profile and an
    /// earlier snapshot of it. Every counter subtracts; `earlier` must
    /// be a genuine earlier snapshot of `self`.
    pub fn delta_since(&self, earlier: &Profile) -> Profile {
        let mut out = *self;
        for (mine, theirs) in out.classes.iter_mut().zip(&earlier.classes) {
            mine.retired -= theirs.retired;
            mine.cycles -= theirs.cycles;
        }
        out.mwac.bind_left -= earlier.mwac.bind_left;
        out.mwac.bind_right -= earlier.mwac.bind_right;
        out.mwac.compare_constants -= earlier.mwac.compare_constants;
        out.mwac.descend_list -= earlier.mwac.descend_list;
        out.mwac.descend_struct -= earlier.mwac.descend_struct;
        out.mwac.clash -= earlier.mwac.clash;
        out.switches.probes -= earlier.switches.probes;
        out.switches.hits -= earlier.switches.hits;
        out.switches.misses -= earlier.switches.misses;
        out.switches.depth2 -= earlier.switches.depth2;
        out.trail_checks -= earlier.trail_checks;
        for (mine, theirs) in out.deref_hist.iter_mut().zip(&earlier.deref_hist) {
            *mine -= theirs;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_has_a_distinct_name() {
        let mut names: Vec<&str> = InstrClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), InstrClass::COUNT);
    }

    #[test]
    fn classifier_covers_representative_opcodes() {
        use kcm_arch::isa::Reg;
        assert_eq!(InstrClass::of(&Instr::Proceed), InstrClass::Control);
        assert_eq!(InstrClass::of(&Instr::TrustMe), InstrClass::Choice);
        assert_eq!(InstrClass::of(&Instr::UnifyNil), InstrClass::Unify);
        assert_eq!(
            InstrClass::of(&Instr::GetNil { a: Reg::new(0) }),
            InstrClass::Get
        );
        assert_eq!(
            InstrClass::of(&Instr::PutNil { a: Reg::new(0) }),
            InstrClass::Put
        );
    }

    #[test]
    fn merge_and_delta_are_inverse() {
        let mut a = Profile::default();
        a.retire(InstrClass::Get, 7);
        a.record_dispatch(UnifyCase::DescendList);
        a.record_deref_chain(3);
        a.trail_checks = 5;
        a.switches.probes = 9;
        a.switches.hits = 2;
        let snapshot = a;
        let mut b = a;
        b.retire(InstrClass::Unify, 11);
        b.record_dispatch(UnifyCase::Clash);
        b.record_deref_chain(20); // overflow bucket
        b.trail_checks += 2;
        b.switches.probes += 4;
        b.switches.misses += 1;
        b.switches.depth2 += 1;
        let delta = b.delta_since(&snapshot);
        assert_eq!(delta.class(InstrClass::Unify).retired, 1);
        assert_eq!(delta.class(InstrClass::Unify).cycles, 11);
        assert_eq!(delta.class(InstrClass::Get).retired, 0);
        assert_eq!(delta.mwac.clash, 1);
        assert_eq!(delta.mwac.descend_list, 0);
        assert_eq!(delta.deref_hist[DEREF_HIST_BUCKETS - 1], 1);
        assert_eq!(delta.trail_checks, 2);
        assert_eq!(delta.switches.probes, 4);
        assert_eq!(delta.switches.hits, 0);
        assert_eq!(delta.switches.misses, 1);
        assert_eq!(delta.switches.depth2, 1);
        let mut rebuilt = snapshot;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, b);
    }

    #[test]
    fn merged_is_order_summed() {
        let mut a = Profile::default();
        a.retire(InstrClass::Control, 1);
        let mut b = Profile::default();
        b.retire(InstrClass::Control, 2);
        b.record_dispatch(UnifyCase::BindLeft);
        let m = Profile::merged([&a, &b]);
        assert_eq!(m.class(InstrClass::Control).retired, 2);
        assert_eq!(m.class(InstrClass::Control).cycles, 3);
        assert_eq!(m.mwac.bind_left, 1);
        assert_eq!(Profile::merged([]), Profile::default());
    }
}
