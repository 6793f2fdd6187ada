//! The KCM memory system (paper §2.4 and §3.2).
//!
//! KCM has "two separate access paths to memory, one for code and one for
//! data. There are two independent caches, but the physical memory is
//! shared." Both caches are *logical* (virtually addressed) — affordable
//! because KCM is a single-task back-end processor that never context
//! switches. Address translation uses a RAM-resident page table instead of
//! a TLB for the same reason.
//!
//! The pieces, each in its own module:
//!
//! * [`main_memory`] — the 32 MByte memory board (§3.2.6) with page-mode
//!   access pairing 32-bit halves into 64-bit words.
//! * [`page_table`] — the address translation RAM: 16K entries per address
//!   space, 16K-word pages, 11-bit physical page numbers (§3.2.5), with
//!   allocate-on-fault backed by the host "paging server".
//! * [`zone_check`] — access-right verification on *virtual* addresses
//!   (§3.2.3): per-zone limit registers, admitted-type masks, write
//!   protection.
//! * [`data_cache`] — the direct-mapped store-in data cache, split into
//!   eight 1K-word sections selected by the zone field (§3.2.4).
//! * [`code_cache`] — the 8K-word write-through code cache with page-mode
//!   prefetch (§3.2.4).
//!
//! [`MemorySystem`] wires them together behind the interface the execution
//! unit uses: tagged-pointer reads and writes that return the *extra* cycle
//! penalty beyond the 1-cycle (80 ns) cache access.
//!
//! On the real machine the board, the translation RAM and both caches
//! exist once and are brought to a known state at power-on. The simulator
//! matches that per host thread: a dropped [`MemorySystem`] resets its
//! board — the frames, the MMU and both caches — to power-on and retires
//! it to a pool owned by the thread ([`recycle`]); the next
//! [`MemorySystem::new`] on that thread takes it back. The reset clears
//! only what the run touched, so a short query pays for a short reset,
//! and a recycled board is indistinguishable from a new one.
//!
//! # Examples
//!
//! ```
//! use kcm_mem::{MemorySystem, MemConfig};
//! use kcm_arch::{Word, Tag, VAddr, Zone};
//!
//! let mut mem = MemorySystem::new(MemConfig::default());
//! let cell = VAddr::new(Zone::Global.base().value() + 5);
//! let ptr = Word::ptr(Tag::Ref, cell);
//! mem.write_ptr(ptr, Word::int(11)).unwrap();
//! let (w, _extra) = mem.read_ptr(ptr).unwrap();
//! assert_eq!(w.as_int(), Some(11));
//! ```

#![warn(missing_docs)]

pub mod code_cache;
pub mod data_cache;
pub mod main_memory;
pub mod page_table;
pub mod recycle;
pub mod zone_check;

pub use code_cache::CodeCache;
pub use data_cache::DataCache;
pub use main_memory::MainMemory;
pub use page_table::{Mmu, Space};
pub use zone_check::{ZoneFault, ZoneTable};

use kcm_arch::timing::Cycles;
use kcm_arch::{CodeAddr, Tag, VAddr, Word, Zone};
use std::cell::RefCell;

/// Configuration of the memory system.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// Whether the data cache is split into eight zone-selected sections
    /// (§3.2.4). Disabling reproduces the plain direct-mapped cache of the
    /// paper's internal collision experiment.
    pub sectioned_data_cache: bool,
    /// Whether the zone check is active. Disabling it models running with
    /// protection off (used by ablation benches; real code keeps it on).
    pub zone_check: bool,
    /// Data cache miss penalty in cycles: page-mode fill of one 64-bit
    /// word as two 32-bit accesses (§3.2.4, §3.2.6). A dirty victim adds
    /// [`MemConfig::dcache_writeback`].
    pub dcache_miss: Cycles,
    /// Additional penalty when the evicted line is dirty (store-in
    /// cache).
    pub dcache_writeback: Cycles,
    /// Code cache miss penalty in cycles (write-through cache; page-mode
    /// prefetch hides part of the latency, §3.2.4).
    pub icache_miss: Cycles,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            sectioned_data_cache: true,
            zone_check: true,
            dcache_miss: 4,
            dcache_writeback: 2,
            icache_miss: 4,
        }
    }
}

/// A fault raised by the memory system. On the real machine these trap to
/// the monitor; the simulator surfaces them as errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemFault {
    /// The zone check rejected the access (§3.2.3).
    Zone(ZoneFault),
    /// The operand used as an address is not a pointer type — the data
    /// cache's dereference hardware aborts such reads (§3.1.4), but an
    /// explicit load/store through a non-pointer is a programming error.
    NotAnAddress(Word),
    /// Physical memory exhausted (the 32 MByte board is full).
    OutOfPhysicalMemory,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemFault::Zone(z) => write!(f, "zone check fault: {z}"),
            MemFault::NotAnAddress(w) => write!(f, "word used as address is not a pointer: {w}"),
            MemFault::OutOfPhysicalMemory => write!(f, "out of physical memory"),
        }
    }
}

impl std::error::Error for MemFault {}

impl From<ZoneFault> for MemFault {
    fn from(z: ZoneFault) -> MemFault {
        MemFault::Zone(z)
    }
}

/// Aggregate statistics of the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Data cache hits.
    pub dcache_hits: u64,
    /// Data cache misses.
    pub dcache_misses: u64,
    /// Dirty lines written back on eviction.
    pub dcache_writebacks: u64,
    /// Code cache hits.
    pub icache_hits: u64,
    /// Code cache misses.
    pub icache_misses: u64,
    /// Data-space page faults serviced (physical page allocated).
    pub data_page_faults: u64,
    /// Code-space page faults serviced.
    pub code_page_faults: u64,
}

impl MemStats {
    /// Data cache hit ratio in [0, 1]; 1.0 for an untouched cache.
    pub fn dcache_hit_ratio(&self) -> f64 {
        let total = self.dcache_hits + self.dcache_misses;
        if total == 0 {
            1.0
        } else {
            self.dcache_hits as f64 / total as f64
        }
    }

    /// Code cache hit ratio in [0, 1]; 1.0 for an untouched cache.
    pub fn icache_hit_ratio(&self) -> f64 {
        let total = self.icache_hits + self.icache_misses;
        if total == 0 {
            1.0
        } else {
            self.icache_hits as f64 / total as f64
        }
    }

    /// Adds another memory system's counters into this aggregate
    /// (multi-session totals).
    pub fn merge(&mut self, other: &MemStats) {
        self.dcache_hits += other.dcache_hits;
        self.dcache_misses += other.dcache_misses;
        self.dcache_writebacks += other.dcache_writebacks;
        self.icache_hits += other.icache_hits;
        self.icache_misses += other.icache_misses;
        self.data_page_faults += other.data_page_faults;
        self.code_page_faults += other.code_page_faults;
    }

    /// The counters accumulated since `earlier` was captured — the inverse
    /// of [`MemStats::merge`]. `earlier` must be a previous snapshot of the
    /// same memory system (counters only grow), so plain subtraction is
    /// exact.
    #[must_use]
    pub fn delta_since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            dcache_hits: self.dcache_hits - earlier.dcache_hits,
            dcache_misses: self.dcache_misses - earlier.dcache_misses,
            dcache_writebacks: self.dcache_writebacks - earlier.dcache_writebacks,
            icache_hits: self.icache_hits - earlier.icache_hits,
            icache_misses: self.icache_misses - earlier.icache_misses,
            data_page_faults: self.data_page_faults - earlier.data_page_faults,
            code_page_faults: self.code_page_faults - earlier.code_page_faults,
        }
    }
}

/// A data-memory backend the execution unit can run against.
///
/// The KCM interpreter core is generic over this trait so that the same
/// instruction semantics drive two tiers: the cycle-accurate
/// [`MemorySystem`] (caches, MMU, paging, per-access penalties) and the
/// native tier's flat uncosted store (`kcm-native`). Everything the
/// machine observes architecturally — word values, zone faults, zone
/// limits, write protection — must behave identically across backends;
/// only the *timing* (the returned extra-cycle penalties, the cache/MMU
/// statistics) may differ.
pub trait DataMem: std::fmt::Debug + Send {
    /// Whether this backend models the memory hierarchy. When `false` the
    /// machine statically skips all cycle accounting, prefetch modelling
    /// and per-instruction profile bookkeeping — the branch is resolved at
    /// monomorphization time, so the native tier pays nothing for it.
    const SIMULATED: bool;

    /// Creates a backend from the memory configuration. Backends that do
    /// not model the hierarchy may ignore most fields but must honor
    /// `zone_check`. Both backends reuse host memory retired on the same
    /// thread ([`recycle`]); what they return is indistinguishable from
    /// a backend built from scratch.
    fn with_config(config: MemConfig) -> Self;

    /// The zone table (limits may be changed dynamically, §3.2.3).
    fn zones(&self) -> &ZoneTable;

    /// Mutable access to the zone table.
    fn zones_mut(&mut self) -> &mut ZoneTable;

    /// Reads the data word addressed by the tagged pointer `ptr`,
    /// returning the word and the extra cycle penalty.
    ///
    /// # Errors
    ///
    /// [`MemFault::NotAnAddress`] for a non-pointer, zone faults per the
    /// zone rules.
    fn read_ptr(&mut self, ptr: Word) -> Result<(Word, Cycles), MemFault>;

    /// Writes `value` through the tagged pointer `ptr`, returning the
    /// extra cycle penalty.
    ///
    /// # Errors
    ///
    /// [`MemFault::NotAnAddress`] or a zone fault, including write
    /// protection.
    fn write_ptr(&mut self, ptr: Word, value: Word) -> Result<Cycles, MemFault>;

    /// Reads the data word at `addr` as the machine's data path does: a
    /// [`Tag::DataPtr`]-tagged access subject to the zone rules. The
    /// default forwards to [`DataMem::read_ptr`] with the packed pointer
    /// the machine would have built; backends with a cheaper way to reach
    /// the same observable behaviour (same words, same faults) may
    /// override it.
    ///
    /// # Errors
    ///
    /// Exactly those of `read_ptr` on the packed pointer.
    #[inline]
    fn read_data_addr(&mut self, addr: VAddr) -> Result<(Word, Cycles), MemFault> {
        self.read_ptr(Word::ptr(Tag::DataPtr, addr))
    }

    /// Writes `value` at `addr` as the machine's data path does (a
    /// [`Tag::DataPtr`]-tagged access). Same contract as
    /// [`DataMem::read_data_addr`].
    ///
    /// # Errors
    ///
    /// Exactly those of `write_ptr` on the packed pointer.
    #[inline]
    fn write_data_addr(&mut self, addr: VAddr, value: Word) -> Result<Cycles, MemFault> {
        self.write_ptr(Word::ptr(Tag::DataPtr, addr), value)
    }

    /// Host back-door read bypassing timing and zone checks.
    ///
    /// # Errors
    ///
    /// Backend-specific allocation failure.
    fn peek(&mut self, addr: VAddr) -> Result<Word, MemFault>;

    /// Host back-door write bypassing timing and zone checks.
    ///
    /// # Errors
    ///
    /// Backend-specific allocation failure.
    fn poke(&mut self, addr: VAddr, value: Word) -> Result<(), MemFault>;

    /// Times a sequential multi-word instruction fetch; untimed backends
    /// return 0.
    fn fetch_code_seq(&mut self, addr: CodeAddr, words: usize) -> Cycles {
        let _ = (addr, words);
        0
    }

    /// Cache/MMU statistics; untimed backends report all-zero counters.
    fn stats(&self) -> MemStats {
        MemStats::default()
    }
}

impl DataMem for MemorySystem {
    const SIMULATED: bool = true;

    fn with_config(config: MemConfig) -> MemorySystem {
        MemorySystem::new(config)
    }

    fn zones(&self) -> &ZoneTable {
        MemorySystem::zones(self)
    }

    fn zones_mut(&mut self) -> &mut ZoneTable {
        MemorySystem::zones_mut(self)
    }

    #[inline]
    fn read_ptr(&mut self, ptr: Word) -> Result<(Word, Cycles), MemFault> {
        MemorySystem::read_ptr(self, ptr)
    }

    #[inline]
    fn write_ptr(&mut self, ptr: Word, value: Word) -> Result<Cycles, MemFault> {
        MemorySystem::write_ptr(self, ptr, value)
    }

    fn peek(&mut self, addr: VAddr) -> Result<Word, MemFault> {
        MemorySystem::peek(self, addr)
    }

    fn poke(&mut self, addr: VAddr, value: Word) -> Result<(), MemFault> {
        MemorySystem::poke(self, addr, value)
    }

    #[inline]
    fn fetch_code_seq(&mut self, addr: CodeAddr, words: usize) -> Cycles {
        MemorySystem::fetch_code_seq(self, addr, words)
    }

    fn stats(&self) -> MemStats {
        MemorySystem::stats(self)
    }
}

/// The simulated hardware that holds state between accesses: the memory
/// board's frames, the translation RAM and both caches.
#[derive(Debug)]
struct Board {
    memory: MainMemory,
    mmu: Mmu,
    dcache: DataCache,
    icache: CodeCache,
}

impl Board {
    /// What a dropped [`MemorySystem`] leaves in place of its board.
    const VACANT: Board = Board {
        memory: MainMemory::vacant(),
        mmu: Mmu::vacant(),
        dcache: DataCache::vacant(),
        icache: CodeCache::vacant(),
    };

    fn new() -> Board {
        Board {
            memory: MainMemory::new(),
            mmu: Mmu::new(),
            dcache: DataCache::new(true),
            icache: CodeCache::new(),
        }
    }

    /// Back to power-on: no frame allocated, no page mapped, both caches
    /// and the host TLB empty. Each part clears only what was touched.
    fn reset(&mut self) {
        self.memory.reset();
        self.mmu.reset();
        self.dcache.reset();
        self.icache.invalidate();
    }
}

thread_local! {
    /// Boards retired on this thread, at power-on, for the next
    /// [`MemorySystem::new`] here.
    static BOARDS: RefCell<Vec<Board>> = const { RefCell::new(Vec::new()) };
}

/// The complete KCM memory system: caches in front of the MMU in front of
/// the memory board, with the zone checker alongside (figure 4: "the memory
/// management is in between the caches and the main memory, not in between
/// the CPU and the caches, i.e. logical caches are used").
///
/// The board is recycled per thread (see the crate docs): dropping a
/// memory system resets its board and retires it, whether its run
/// finished, failed or was abandoned.
#[derive(Debug)]
pub struct MemorySystem {
    config: MemConfig,
    board: Board,
    zones: ZoneTable,
    stats: MemStats,
}

impl Drop for MemorySystem {
    fn drop(&mut self) {
        let mut board = std::mem::replace(&mut self.board, Board::VACANT);
        board.reset();
        recycle::retire(&BOARDS, board);
    }
}

impl MemorySystem {
    /// Creates a memory system at power-on: empty caches, an unmapped
    /// page table, no frame allocated, zero counters and default zone
    /// limits. The board is this thread's most recently retired one if
    /// there is one, set to the modes `config` selects.
    pub fn new(config: MemConfig) -> MemorySystem {
        let mut board = recycle::take(&BOARDS).unwrap_or_else(Board::new);
        board.dcache.set_sectioned(config.sectioned_data_cache);
        MemorySystem {
            config,
            board,
            zones: ZoneTable::new(),
            stats: MemStats::default(),
        }
    }

    /// The zone table (limits may be changed dynamically, §3.2.3).
    pub fn zones(&self) -> &ZoneTable {
        &self.zones
    }

    /// Mutable access to the zone table.
    pub fn zones_mut(&mut self) -> &mut ZoneTable {
        &mut self.zones
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Reads the data word addressed by the tagged pointer `ptr`,
    /// returning the word and the extra cycle penalty (0 on a cache hit).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::NotAnAddress`] if `ptr` is not a pointer type
    /// and a zone fault if the access violates the zone rules.
    #[inline]
    pub fn read_ptr(&mut self, ptr: Word) -> Result<(Word, Cycles), MemFault> {
        let addr = ptr.as_addr().ok_or(MemFault::NotAnAddress(ptr))?;
        if self.config.zone_check {
            self.zones.check_read(ptr)?;
        }
        self.read_checked(addr)
    }

    /// Writes `value` through the tagged pointer `ptr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::NotAnAddress`] or a zone fault — in particular
    /// a write-protection fault on a protected zone: "Without protection on
    /// the level of the logical caches the data will simply be stored in
    /// the cache" (§3.2.3) — KCM checks before the cache absorbs the write.
    #[inline]
    pub fn write_ptr(&mut self, ptr: Word, value: Word) -> Result<Cycles, MemFault> {
        let addr = ptr.as_addr().ok_or(MemFault::NotAnAddress(ptr))?;
        if self.config.zone_check {
            self.zones.check_write(ptr)?;
        }
        self.write_checked(addr, value)
    }

    /// The dereference assist of the data cache (§3.1.4): if `w` is a
    /// pointer the cache performs the read; if not, it aborts and returns
    /// `None` — "random data used as an address may cause a cache-miss and
    /// even a page fault which certainly is not tolerable".
    pub fn deref_assist(&mut self, w: Word) -> Option<Result<(Word, Cycles), MemFault>> {
        if w.tag_checked().is_some_and(Tag::is_pointer) {
            Some(self.read_ptr(w))
        } else {
            None
        }
    }

    #[inline]
    fn read_checked(&mut self, addr: VAddr) -> Result<(Word, Cycles), MemFault> {
        let b = &mut self.board;
        b.dcache.read(
            addr,
            &mut b.memory,
            &mut b.mmu,
            &self.config,
            &mut self.stats,
        )
    }

    #[inline]
    fn write_checked(&mut self, addr: VAddr, value: Word) -> Result<Cycles, MemFault> {
        let b = &mut self.board;
        b.dcache.write(
            addr,
            value,
            &mut b.memory,
            &mut b.mmu,
            &self.config,
            &mut self.stats,
        )
    }

    /// Times an instruction fetch from `addr` in the code space, returning
    /// the extra penalty (0 on a code cache hit). The paper's write-through
    /// code cache prefetches "a few words ahead when a miss occurs"; the
    /// model fills the missed word plus the next.
    #[inline]
    pub fn fetch_code(&mut self, addr: CodeAddr) -> Cycles {
        let b = &mut self.board;
        b.icache
            .fetch(addr, &mut b.mmu, &self.config, &mut self.stats)
    }

    /// Times the fetch of `words` sequential code words starting at
    /// `addr` — one instruction's worth — in a single call. Counter-exact
    /// equivalent of `words` individual [`MemorySystem::fetch_code`]
    /// calls; the returned penalty is their sum.
    #[inline]
    pub fn fetch_code_seq(&mut self, addr: CodeAddr, words: usize) -> Cycles {
        let b = &mut self.board;
        b.icache
            .fetch_seq(addr, words, &mut b.mmu, &self.config, &mut self.stats)
    }

    /// Invalidates the code cache — used when compiled code is moved from
    /// the data space into the code space (§3.2.1: the memory management
    /// "can invalidate the virtual data page and attach the physical page
    /// to the code space").
    pub fn invalidate_code_cache(&mut self) {
        self.board.icache.invalidate();
    }

    /// Writes back all dirty data cache lines (used before the host reads
    /// simulated memory directly).
    ///
    /// # Errors
    ///
    /// Propagates page-allocation failure.
    pub fn flush_data_cache(&mut self) -> Result<(), MemFault> {
        let b = &mut self.board;
        b.dcache.flush(&mut b.memory, &mut b.mmu, &mut self.stats)
    }

    /// Host back-door read bypassing timing and checks. Reads through the
    /// cache's current contents, so no flush is needed.
    ///
    /// # Errors
    ///
    /// Propagates page-allocation failure.
    pub fn peek(&mut self, addr: VAddr) -> Result<Word, MemFault> {
        let b = &mut self.board;
        if let Some(w) = b.dcache.peek(addr) {
            return Ok(w);
        }
        let phys = b.mmu.translate_data(addr, &mut b.memory, &mut self.stats)?;
        Ok(b.memory.read(phys))
    }

    /// Host back-door write bypassing timing (still keeps the cache
    /// coherent by updating a present line in place).
    ///
    /// # Errors
    ///
    /// Propagates page-allocation failure.
    pub fn poke(&mut self, addr: VAddr, value: Word) -> Result<(), MemFault> {
        let b = &mut self.board;
        let phys = b.mmu.translate_data(addr, &mut b.memory, &mut self.stats)?;
        b.memory.write(phys, value);
        b.dcache.update_if_present(addr, value);
        Ok(())
    }

    /// Initial stack base for a zone: when `spread` is set the bases are
    /// offset by distinct multiples of 1K words so they map to different
    /// cells even in an unsectioned direct-mapped cache — the two
    /// initialisations of the paper's §3.2.4 experiment.
    pub fn stack_base(zone: Zone, spread: bool) -> VAddr {
        let offset = if spread {
            (zone.bits() as u32) * 1024
        } else {
            0
        };
        VAddr::new(zone.base().value() + offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone_check::DEFAULT_ZONE_WORDS;

    fn gaddr(off: u32) -> VAddr {
        VAddr::new(Zone::Global.base().value() + off)
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let ptr = Word::ptr(Tag::Ref, gaddr(100));
        mem.write_ptr(ptr, Word::int(7)).unwrap();
        let (w, _) = mem.read_ptr(ptr).unwrap();
        assert_eq!(w.as_int(), Some(7));
    }

    #[test]
    fn non_pointer_address_faults() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let err = mem.read_ptr(Word::int(123)).unwrap_err();
        assert!(matches!(err, MemFault::NotAnAddress(_)));
    }

    #[test]
    fn deref_assist_aborts_on_non_pointers() {
        // §3.1.4: a float used as an address must not cause a cache miss.
        let mut mem = MemorySystem::new(MemConfig::default());
        assert!(mem.deref_assist(Word::float(3.25)).is_none());
        let before = mem.stats();
        assert_eq!(before.dcache_misses, 0);
        let ptr = Word::ptr(Tag::Ref, gaddr(0));
        mem.write_ptr(ptr, Word::int(1)).unwrap();
        assert!(mem.deref_assist(ptr).is_some());
    }

    #[test]
    fn first_touch_allocates_a_page() {
        let mut mem = MemorySystem::new(MemConfig::default());
        assert_eq!(mem.stats().data_page_faults, 0);
        mem.write_ptr(Word::ptr(Tag::Ref, gaddr(0)), Word::int(1))
            .unwrap();
        assert_eq!(mem.stats().data_page_faults, 1);
        // Same page: no new fault.
        mem.write_ptr(Word::ptr(Tag::Ref, gaddr(1)), Word::int(2))
            .unwrap();
        assert_eq!(mem.stats().data_page_faults, 1);
    }

    #[test]
    fn peek_sees_unflushed_writes() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let a = gaddr(4);
        mem.write_ptr(Word::ptr(Tag::Ref, a), Word::int(99))
            .unwrap();
        // Store-in cache: main memory may be stale, but peek must see the
        // cached value.
        assert_eq!(mem.peek(a).unwrap().as_int(), Some(99));
    }

    #[test]
    fn stack_bases_spread_or_collide() {
        let aligned_g = MemorySystem::stack_base(Zone::Global, false);
        let aligned_l = MemorySystem::stack_base(Zone::Local, false);
        // Aligned bases collide modulo the 8K cache size.
        assert_eq!(aligned_g.value() % 8192, aligned_l.value() % 8192);
        let spread_g = MemorySystem::stack_base(Zone::Global, true);
        let spread_l = MemorySystem::stack_base(Zone::Local, true);
        assert_ne!(spread_g.value() % 8192, spread_l.value() % 8192);
    }

    #[test]
    fn code_fetch_misses_then_hits() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let a = CodeAddr::new(0x40);
        let miss = mem.fetch_code(a);
        assert!(miss > 0);
        let hit = mem.fetch_code(a);
        assert_eq!(hit, 0);
        assert_eq!(mem.stats().icache_misses, 1);
        assert_eq!(mem.stats().icache_hits, 1);
    }

    #[test]
    fn code_prefetch_covers_next_word() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let a = CodeAddr::new(0x80);
        mem.fetch_code(a);
        // Page-mode prefetch fetched a few words ahead: the sequentially
        // next word hits.
        assert_eq!(mem.fetch_code(a.offset(1)), 0);
    }

    fn pooled_boards() -> usize {
        BOARDS.with(|pool| pool.borrow().len())
    }

    #[test]
    fn a_retired_board_comes_back_at_power_on() {
        let config = MemConfig::default();
        let g = gaddr(40);
        let g2 = gaddr(40 + data_cache::SECTION_WORDS as u32);
        let trail = VAddr::new(Zone::Trail.base().value() + 3);
        let stat = VAddr::new(Zone::Static.base().value() + 9);
        let code = CodeAddr::new(7 * kcm_arch::PAGE_SIZE_WORDS);

        let mut mem = MemorySystem::new(config.clone());
        mem.write_ptr(Word::ptr(Tag::Ref, g), Word::int(11))
            .unwrap();
        // Evicts the dirty line for `g` into its frame; the lines for `g2`
        // and `trail` stay dirty.
        mem.write_ptr(Word::ptr(Tag::Ref, g2), Word::int(22))
            .unwrap();
        mem.poke(stat, Word::int(33)).unwrap();
        mem.write_ptr(Word::ptr(Tag::DataPtr, trail), Word::int(44))
            .unwrap();
        assert!(mem.board.mmu.move_data_page_to_code(trail, code));
        mem.fetch_code(code);
        let grown = kcm_arch::ZoneLimits::new(Zone::Global.base(), gaddr(4 * DEFAULT_ZONE_WORDS));
        mem.zones_mut().set_limits(Zone::Global, grown);
        assert_ne!(mem.stats(), MemStats::default());

        let pooled = pooled_boards();
        drop(mem);
        assert_eq!(pooled_boards(), pooled + 1, "the board was retired");
        let mut mem = MemorySystem::new(config.clone());
        assert_eq!(pooled_boards(), pooled, "the board was taken back");

        assert_eq!(mem.stats(), MemStats::default());
        assert_eq!(mem.board.memory.allocated_pages(), 0);
        assert_eq!(mem.board.mmu.mapped_data_pages(), 0);
        for z in Zone::DATA_ZONES {
            assert_eq!(mem.zones().limits(z), ZoneTable::new().limits(z));
        }
        // The first access misses, faults in physical page 0 (the TLB
        // forgot every page) and reads zero.
        let (w, extra) = mem.read_ptr(Word::ptr(Tag::Ref, g)).unwrap();
        assert_eq!((w, extra), (Word::ZERO, config.dcache_miss));
        assert_eq!(mem.stats().dcache_misses, 1);
        assert_eq!(mem.stats().data_page_faults, 1);
        assert!(mem.board.mmu.data_page_mapped(g));
        assert_eq!(mem.board.memory.allocated_pages(), 1);
        assert!(mem.fetch_code(code) > 0);
        assert_eq!(mem.stats().code_page_faults, 1);
        for a in [g, g2, trail, stat] {
            assert_eq!(mem.peek(a).unwrap(), Word::ZERO, "{a}");
        }
    }

    #[test]
    fn a_recycled_board_takes_the_new_configuration() {
        let plain = MemConfig {
            sectioned_data_cache: false,
            zone_check: false,
            ..MemConfig::default()
        };
        let mut mem = MemorySystem::new(plain);
        assert!(!mem.board.dcache.is_sectioned());
        mem.write_ptr(Word::ptr(Tag::Ref, gaddr(1)), Word::int(1))
            .unwrap();
        drop(mem);
        let mem = MemorySystem::new(MemConfig::default());
        assert!(mem.board.dcache.is_sectioned());
    }

    #[test]
    fn retiring_on_an_exiting_thread_frees_the_board() {
        // A memory system parked in a thread-local registered before the
        // pool is dropped after the pool's slot is destroyed; retiring
        // must not panic (a panic there aborts the process).
        thread_local! {
            static PARKED: RefCell<Option<MemorySystem>> = const { RefCell::new(None) };
        }
        std::thread::spawn(|| {
            PARKED.with(|_| {});
            let mut mem = MemorySystem::new(MemConfig::default());
            mem.write_ptr(Word::ptr(Tag::Ref, gaddr(1)), Word::int(1))
                .unwrap();
            drop(MemorySystem::new(MemConfig::default()));
            PARKED.with(|p| *p.borrow_mut() = Some(mem));
        })
        .join()
        .expect("the thread exits cleanly");
    }

    #[test]
    fn invalidate_code_cache_forces_miss() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let a = CodeAddr::new(0x10);
        mem.fetch_code(a);
        assert_eq!(mem.fetch_code(a), 0);
        mem.invalidate_code_cache();
        assert!(mem.fetch_code(a) > 0);
    }
}
