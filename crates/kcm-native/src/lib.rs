//! The KCM native execution tier: same machine, no cycle model.
//!
//! The cycle-accurate simulator answers "how fast was the 1989 hardware";
//! a *service* only asks "what is the answer". This crate instantiates
//! the interpreter core of `kcm-cpu` — the exact same decoded instruction
//! stream, dispatch loop, shallow backtracking, MWAC unification and
//! builtin set — over [`FlatMem`], a flat uncosted store. Because
//! [`kcm_mem::DataMem::SIMULATED`] is `false` here, monomorphization
//! strips every cycle charge, the cache/MMU/page-table model, the
//! prefetch pipeline and the per-instruction profile attribution out of
//! the compiled hot loop; what remains is a plain enum-dispatch
//! interpreter with pre-resolved fall-through indices.
//!
//! What carries over unchanged — and is proven equivalent by the
//! differential oracle in `kcm-difftest`:
//!
//! * solutions (values and order), printed output, inference counts;
//! * error classes, including [`kcm_cpu::MachineError::BudgetExhausted`]
//!   at the same step count (the step budget counts retired
//!   instructions, not cycles, precisely so it is tier-independent);
//! * zone checking: [`FlatMem`] runs the same [`ZoneTable`] as the
//!   simulator, so zone faults, write protection of the static area and
//!   on-demand zone growth behave identically.
//!
//! What is deliberately *not* modelled: cycles (always 0), cache and
//! MMU statistics (always 0), the 32 MByte physical-memory board (a
//! [`FlatMem`] zone holds up to its full 16M-word region). The cycle
//! simulator remains the fidelity reference; see DESIGN.md §6f.
//!
//! # Examples
//!
//! ```
//! use kcm_arch::SymbolTable;
//! use kcm_cpu::MachineConfig;
//! use kcm_native::NativeMachine;
//! use std::sync::Arc;
//!
//! let mut symbols = SymbolTable::new();
//! let program = kcm_prolog::read_program("p(1). p(2).").unwrap();
//! let image = Arc::new(kcm_compiler::compile_program(&program, &mut symbols).unwrap());
//! let goal = kcm_prolog::read_term("p(X)").unwrap();
//! let (qimage, vars) = kcm_compiler::compile_query(&image, &goal, &mut symbols).unwrap();
//! let mut m = kcm_native::native_machine(qimage, symbols, MachineConfig::default());
//! let outcome = m.run_query(&vars, true).unwrap();
//! assert_eq!(outcome.solutions.len(), 2);
//! assert_eq!(outcome.stats.cycles, 0); // no clock on this tier
//! ```

#![warn(missing_docs)]

use kcm_arch::timing::Cycles;
use kcm_arch::{Tag, VAddr, Word};
use kcm_mem::main_memory::BLOCK_WORDS;
use kcm_mem::{recycle, DataMem, MemConfig, MemFault, ZoneTable};
use std::cell::RefCell;

/// The native machine: the `kcm-cpu` interpreter core over [`FlatMem`].
pub type NativeMachine = kcm_cpu::Machine<FlatMem>;

/// Creates a native machine loaded with `image` — the native tier's
/// spelling of `Machine::new`.
pub fn native_machine(
    image: kcm_compiler::CodeImage,
    symbols: kcm_arch::SymbolTable,
    cfg: kcm_cpu::MachineConfig,
) -> NativeMachine {
    NativeMachine::with_backend(std::sync::Arc::new(image), symbols, cfg)
}

/// A store whose vectors' capacities total more than this many words is
/// freed rather than pooled (a query that built a giant heap must not
/// pin it forever).
const POOL_MAX_TOTAL_WORDS: usize = 16 << 20;

thread_local! {
    /// Retired backing stores, reused by the next [`FlatMem`] built on
    /// this thread ([`kcm_mem::recycle`], which also caps how many a
    /// thread keeps). A retired zone vector keeps its *capacity* (memory
    /// the allocator already owns and the kernel has already faulted in)
    /// but drops its length, so it holds no word of the run that retired
    /// it. The next owner zero-fills only the extent its own run grows
    /// into, one [`BLOCK_WORDS`] block at a time, as the cycle tier's
    /// board scrubs only the blocks a write landed in: a query pays for
    /// what it touches, not for what earlier queries on the thread
    /// touched. This is the native tier's analogue of a runtime
    /// pre-allocating its stacks.
    static STORE_POOL: RefCell<Vec<[Vec<Word>; 16]>> = const { RefCell::new(Vec::new()) };
}

/// A flat, uncosted data memory: one growable `Vec<Word>` per zone
/// nibble, holding the zone's 16M-word region from the [`BLOCK_WORDS`]
/// block of the run's first write to the zone (its *origin*) up to the
/// extent the run has written, rounded up to a block. A cell outside it
/// reads as zero without being stored, so the blocks below a stack's
/// spread base are never filled; a write below the origin moves it down.
///
/// Fresh cells read as [`Word::ZERO`] — the integer-zero bit pattern —
/// exactly like the simulator's zero-filled memory board, so a program
/// that (illegally but observably) reads never-written memory sees the
/// same words on both tiers. Zone checking reuses the simulator's
/// [`ZoneTable`] verbatim: same limits, same growth protocol, same
/// faults. The machine's own data accesses take a fast path (see
/// [`DataMem::read_data_addr`]): an access inside the table's admitted
/// window ([`ZoneTable::admits_read`]) costs one compare instead of the
/// full check chain, and any other goes through the checked path.
#[derive(Debug)]
pub struct FlatMem {
    zones: ZoneTable,
    /// One store per 4-bit zone field of the virtual address. Only the
    /// five data zones are ever touched by checked accesses; the host
    /// back-door (`peek`/`poke`) is as permissive as the simulator's.
    store: [Vec<Word>; 16],
    /// Per zone nibble, the zone offset of `store[z][0]` while the
    /// vector is not empty.
    origin: [usize; 16],
}

impl FlatMem {
    #[inline]
    fn split(addr: VAddr) -> (usize, usize) {
        let v = addr.value();
        (((v >> 24) & 0xF) as usize, (v & 0x00FF_FFFF) as usize)
    }

    /// The word at `addr`.
    #[inline]
    fn load(&self, addr: VAddr) -> Word {
        let (z, off) = Self::split(addr);
        let at = off.wrapping_sub(self.origin[z]);
        self.store[z].get(at).copied().unwrap_or(Word::ZERO)
    }

    #[inline]
    fn store_word(&mut self, addr: VAddr, w: Word) {
        let (z, off) = Self::split(addr);
        let v = &mut self.store[z];
        let block = off - off % BLOCK_WORDS;
        if v.is_empty() {
            self.origin[z] = block;
        } else if block < self.origin[z] {
            let below = self.origin[z] - block;
            v.splice(0..0, std::iter::repeat_n(Word::ZERO, below));
            self.origin[z] = block;
        }
        let at = off - self.origin[z];
        if at >= v.len() {
            // Zero-fills only the blocks the run grows into; a recycled
            // vector's capacity makes this a fill, not an allocation.
            v.resize((at + 1).next_multiple_of(BLOCK_WORDS), Word::ZERO);
        }
        v[at] = w;
    }

    /// The checked path of a machine read outside its window. Kept out
    /// of line so [`DataMem::read_data_addr`]'s body stays small enough
    /// to inline into the interpreter.
    #[inline(never)]
    fn read_slow(&mut self, addr: VAddr) -> Result<(Word, Cycles), MemFault> {
        self.read_ptr(Word::ptr(Tag::DataPtr, addr))
    }

    /// The checked path of a machine write outside its window or past
    /// the stored extent (which `store_word` grows). Out of line for
    /// the same reason as [`FlatMem::read_slow`].
    #[inline(never)]
    fn write_slow(&mut self, addr: VAddr, value: Word) -> Result<Cycles, MemFault> {
        self.write_ptr(Word::ptr(Tag::DataPtr, addr), value)
    }
}

impl Drop for FlatMem {
    /// Retires the store to this thread's pool with every vector emptied
    /// and its capacity kept, unless the thread is unwinding from a panic
    /// that may have left it mid-update: then it is freed. So is a store
    /// that owns no memory, or too much.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let mut store = std::mem::take(&mut self.store);
        let total: usize = store.iter().map(Vec::capacity).sum();
        if total == 0 || total > POOL_MAX_TOTAL_WORDS {
            return;
        }
        store.iter_mut().for_each(Vec::clear);
        recycle::retire(&STORE_POOL, store);
    }
}

impl DataMem for FlatMem {
    const SIMULATED: bool = false;

    fn with_config(_config: MemConfig) -> FlatMem {
        FlatMem {
            zones: ZoneTable::new(),
            store: recycle::take(&STORE_POOL)
                .unwrap_or_else(|| std::array::from_fn(|_| Vec::new())),
            origin: [0; 16],
        }
    }

    fn zones(&self) -> &ZoneTable {
        &self.zones
    }

    fn zones_mut(&mut self) -> &mut ZoneTable {
        &mut self.zones
    }

    #[inline]
    fn read_ptr(&mut self, ptr: Word) -> Result<(Word, Cycles), MemFault> {
        let addr = ptr.as_addr().ok_or(MemFault::NotAnAddress(ptr))?;
        self.zones.check_read(ptr)?;
        Ok((self.load(addr), 0))
    }

    #[inline]
    fn write_ptr(&mut self, ptr: Word, value: Word) -> Result<Cycles, MemFault> {
        let addr = ptr.as_addr().ok_or(MemFault::NotAnAddress(ptr))?;
        self.zones.check_write(ptr)?;
        self.store_word(addr, value);
        Ok(0)
    }

    #[inline]
    fn read_data_addr(&mut self, addr: VAddr) -> Result<(Word, Cycles), MemFault> {
        if self.zones.admits_read(addr) {
            return Ok((self.load(addr), 0));
        }
        self.read_slow(addr)
    }

    #[inline]
    fn write_data_addr(&mut self, addr: VAddr, value: Word) -> Result<Cycles, MemFault> {
        if self.zones.admits_write(addr) {
            let (z, off) = Self::split(addr);
            if let Some(slot) = self.store[z].get_mut(off.wrapping_sub(self.origin[z])) {
                *slot = value;
                return Ok(0);
            }
        }
        self.write_slow(addr, value)
    }

    #[inline]
    fn peek(&mut self, addr: VAddr) -> Result<Word, MemFault> {
        Ok(self.load(addr))
    }

    #[inline]
    fn poke(&mut self, addr: VAddr, value: Word) -> Result<(), MemFault> {
        self.store_word(addr, value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_arch::{SymbolTable, Tag, Zone};
    use kcm_cpu::{Machine, MachineConfig};

    fn machines(program: &str, query: &str) -> (Machine, NativeMachine) {
        let clauses = kcm_prolog::read_program(program).unwrap();
        let mut symbols = SymbolTable::new();
        let image = kcm_compiler::compile_program(&clauses, &mut symbols).unwrap();
        let goal = kcm_prolog::read_term(query).unwrap();
        let (qimage, vars) =
            kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols).unwrap();
        let cfg = MachineConfig::default();
        let sim = Machine::new(qimage.clone(), symbols.clone(), cfg.clone());
        let native = native_machine(qimage, symbols, cfg);
        let _ = vars;
        (sim, native)
    }

    fn run_both(program: &str, query: &str) -> (kcm_cpu::Outcome, kcm_cpu::Outcome) {
        let clauses = kcm_prolog::read_program(program).unwrap();
        let mut symbols = SymbolTable::new();
        let image = kcm_compiler::compile_program(&clauses, &mut symbols).unwrap();
        let goal = kcm_prolog::read_term(query).unwrap();
        let (qimage, vars) =
            kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols).unwrap();
        let cfg = MachineConfig::default();
        let mut sim = Machine::new(qimage.clone(), symbols.clone(), cfg.clone());
        let mut native = native_machine(qimage, symbols, cfg);
        let a = sim.run_query(&vars, true).unwrap();
        let b = native.run_query(&vars, true).unwrap();
        (a, b)
    }

    #[test]
    fn flat_mem_roundtrips_and_zero_fills() {
        let mut m = FlatMem::with_config(MemConfig::default());
        let a = VAddr::new(Zone::Global.base().value() + 100);
        assert_eq!(m.peek(a).unwrap(), Word::ZERO);
        let ptr = Word::ptr(Tag::Ref, a);
        m.write_ptr(ptr, Word::int(7)).unwrap();
        assert_eq!(m.read_ptr(ptr).unwrap().0.as_int(), Some(7));
        // Neighbouring never-written cell still reads as integer zero.
        assert_eq!(m.peek(a.offset(1)).unwrap(), Word::ZERO);
    }

    #[test]
    fn flat_mem_enforces_the_same_zone_rules() {
        let mut m = FlatMem::with_config(MemConfig::default());
        let bad = Word::pack(Tag::List, Zone::Local, Zone::Local.base().value());
        assert!(matches!(m.read_ptr(bad), Err(MemFault::Zone(_))));
        assert!(matches!(
            m.read_ptr(Word::int(3)),
            Err(MemFault::NotAnAddress(_))
        ));
    }

    #[test]
    fn native_solutions_match_the_simulator() {
        let (a, b) = run_both(
            "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).",
            "app(X, Y, [1,2,3])",
        );
        assert_eq!(a.success, b.success);
        assert_eq!(a.solutions, b.solutions);
        assert_eq!(a.output, b.output);
        assert_eq!(a.stats.inferences, b.stats.inferences);
        assert_eq!(a.stats.instructions, b.stats.instructions);
        assert!(a.stats.cycles > 0);
        assert_eq!(b.stats.cycles, 0);
    }

    #[test]
    fn native_output_matches_the_simulator() {
        let (a, b) = run_both("greet :- write(hello), nl, write([a,b|c]), nl.", "greet");
        assert_eq!(a.output, b.output);
        assert!(!b.output.is_empty());
    }

    #[test]
    fn native_static_zone_is_write_protected_too() {
        // The loader write-protects the static area on both tiers; a
        // machine is still constructible and runnable afterwards.
        let (mut sim, mut native) = machines("p(f(1)). p(f(2)).", "p(f(X))");
        let a = sim.run_query(&["X".to_owned()], true).unwrap();
        let b = native.run_query(&["X".to_owned()], true).unwrap();
        assert_eq!(a.solutions, b.solutions);
    }

    #[test]
    fn native_budget_trips_at_the_same_step_count() {
        let clauses = kcm_prolog::read_program("loop :- loop.").unwrap();
        let mut symbols = SymbolTable::new();
        let image = kcm_compiler::compile_program(&clauses, &mut symbols).unwrap();
        let goal = kcm_prolog::read_term("loop").unwrap();
        let (qimage, vars) =
            kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols).unwrap();
        let cfg = MachineConfig {
            step_budget: 5_000,
            ..Default::default()
        };
        let mut sim = Machine::new(qimage.clone(), symbols.clone(), cfg.clone());
        let mut native = native_machine(qimage, symbols, cfg);
        let a = sim.run_query(&vars, false).unwrap_err();
        let b = native.run_query(&vars, false).unwrap_err();
        assert_eq!(a, b);
    }

    #[test]
    fn machines_parked_in_a_thread_local_drop_cleanly_at_thread_exit() {
        // The thread-local below is registered before either tier's pool,
        // so at thread exit the pools are destroyed first and the parked
        // machines retire their memory into pools that are gone. That
        // must not panic: a panic in a thread-local destructor aborts the
        // process.
        thread_local! {
            static PARKED: RefCell<Vec<(Machine, NativeMachine)>> =
                const { RefCell::new(Vec::new()) };
        }
        std::thread::spawn(|| {
            PARKED.with(|_| {});
            let (mut sim, mut native) = machines("p(f(1)). p(f(2)).", "p(f(X))");
            let vars = ["X".to_owned()];
            sim.run_query(&vars, true).unwrap();
            native.run_query(&vars, true).unwrap();
            // A second pair, dropped here, leaves both pools non-empty.
            drop(machines("p(1).", "p(X)"));
            PARKED.with(|p| p.borrow_mut().push((sim, native)));
        })
        .join()
        .expect("the thread exits cleanly");
    }

    #[test]
    fn a_store_dropped_while_unwinding_is_freed_not_retired() {
        let pooled = || STORE_POOL.with(|pool| pool.borrow().len());
        let before = pooled();
        let unwound = std::panic::catch_unwind(|| {
            let mut m = FlatMem::with_config(MemConfig::default());
            let a = VAddr::new(Zone::Global.base().value() + 100);
            m.write_ptr(Word::ptr(Tag::Ref, a), Word::int(7)).unwrap();
            panic!("mid-run");
        });
        assert!(unwound.is_err());
        assert_eq!(pooled(), before.saturating_sub(1));
    }

    #[test]
    fn a_recycled_store_reads_as_fresh_memory() {
        let pooled = || STORE_POOL.with(|pool| pool.borrow().len());
        let at = |z: Zone, off: u32| VAddr::new(z.base().value() + off);
        let written: Vec<VAddr> = Zone::DATA_ZONES
            .into_iter()
            .flat_map(|z| [0, 1, 1500, 40_000].map(|off| at(z, off)))
            .collect();
        let mut m = FlatMem::with_config(MemConfig::default());
        for (i, &a) in written.iter().enumerate() {
            m.poke(a, Word::int(i as i32 + 1)).unwrap();
        }
        drop(m);
        assert_eq!(pooled(), 1);

        let mut m = FlatMem::with_config(MemConfig::default());
        assert_eq!(pooled(), 0, "the next store is the retired one");
        // Past the recycled store's extent: nothing is stored there yet.
        for &a in &written {
            assert_eq!(m.peek(a).unwrap(), Word::ZERO, "{a:?} before growth");
        }
        // Growing each zone past every address written before must
        // zero all of them, not expose the earlier run's words.
        for z in Zone::DATA_ZONES {
            m.poke(at(z, 50_000), Word::int(-1)).unwrap();
        }
        for &a in &written {
            assert_eq!(m.peek(a).unwrap(), Word::ZERO, "{a:?} after growth");
        }
        drop(m);
        assert_eq!(pooled(), 1);

        // A run that writes nothing still hands the memory back.
        drop(FlatMem::with_config(MemConfig::default()));
        assert_eq!(pooled(), 1, "an unwritten store is retired, not freed");
        let mut m = FlatMem::with_config(MemConfig::default());
        for z in Zone::DATA_ZONES {
            assert_eq!(m.peek(at(z, 50_000)).unwrap(), Word::ZERO);
            m.poke(at(z, 60_000), Word::ZERO).unwrap();
            assert_eq!(m.peek(at(z, 50_000)).unwrap(), Word::ZERO);
        }
    }

    #[test]
    fn a_zone_vector_starts_at_the_block_of_its_first_write() {
        // A recycled store, as every native run after a thread's first
        // gets: the stack base's write fills its own block, not the
        // blocks below the base.
        drop(FlatMem::with_config(MemConfig::default()));
        let mut m = FlatMem::with_config(MemConfig::default());
        let base = kcm_mem::MemorySystem::stack_base(Zone::Local, true);
        assert!(base.value() - Zone::Local.base().value() >= 2 * BLOCK_WORDS as u32);
        m.write_data_addr(base, Word::int(7)).unwrap();
        let (z, _) = FlatMem::split(base);
        assert_eq!(m.store[z].len(), BLOCK_WORDS, "one block");
        assert_eq!(m.peek(base).unwrap(), Word::int(7));
        assert_eq!(m.peek(base.offset(-1)).unwrap(), Word::ZERO);
    }

    #[test]
    fn a_write_below_a_zones_first_block_moves_its_origin_down() {
        let mut m = FlatMem::with_config(MemConfig::default());
        let at = |off: u32| VAddr::new(Zone::Global.base().value() + off);
        let (high, low) = (at(5 * BLOCK_WORDS as u32 + 3), at(BLOCK_WORDS as u32 + 1));
        m.poke(high, Word::int(1)).unwrap();
        m.poke(low, Word::int(2)).unwrap();
        assert_eq!(m.peek(high).unwrap(), Word::int(1));
        assert_eq!(m.peek(low).unwrap(), Word::int(2));
        for off in [
            0,
            BLOCK_WORDS as u32,
            3 * BLOCK_WORDS as u32,
            6 * BLOCK_WORDS as u32,
        ] {
            assert_eq!(m.peek(at(off)).unwrap(), Word::ZERO, "offset {off}");
        }
        let between = (low.value() + 1..high.value()).map(VAddr::new);
        assert!(between
            .into_iter()
            .all(|a| m.peek(a).unwrap() == Word::ZERO));
    }

    #[test]
    fn native_zone_growth_matches() {
        // Build a structure big enough to outgrow the default 1M-word
        // global zone? Too slow for a unit test — instead check the
        // growth counter parity on a heap-allocating run.
        let (a, b) = run_both(
            "len([],0). len([_|T],N) :- len(T,M), N is M + 1.",
            "len([1,2,3,4,5,6,7,8], N)",
        );
        assert_eq!(a.stats.zone_growths, b.stats.zone_growths);
        assert_eq!(a.solutions, b.solutions);
    }
}
