//! Address translation (paper §3.2.5).
//!
//! "The address translation hardware is designed for speed and simplicity,
//! i.e. a simple RAM is used to hold the entire page table rather than
//! storing the page table in main memory and use an associative cache. [...]
//! The address translation is done using a RAM organised as 32K x 16 bit.
//! It contains one entry for each virtual page (16K virtual pages for code
//! and data each). Each entry consists of 5 status bits plus 11 bits
//! physical page number."

use crate::main_memory::{MainMemory, PhysAddr};
use crate::{MemFault, MemStats};
use kcm_arch::{CodeAddr, VAddr, PAGE_SIZE_WORDS};

/// Which of the two virtual address spaces an access targets (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// The data space.
    Data,
    /// The code space.
    Code,
}

/// One 16-bit page table entry: 11-bit physical page number + status bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Entry(u16);

const ST_VALID: u16 = 1 << 11;
const ST_DIRTY: u16 = 1 << 12;
const ST_REFERENCED: u16 = 1 << 13;

impl Entry {
    fn valid(self) -> bool {
        self.0 & ST_VALID != 0
    }

    fn phys_page(self) -> u16 {
        self.0 & 0x7FF
    }

    fn map(page: u16) -> Entry {
        Entry((page & 0x7FF) | ST_VALID)
    }
}

/// One host-side TLB slot: a virtual data page whose table entry is known
/// valid and referenced, with its physical page. `vp == u16::MAX` marks an
/// empty slot (no virtual page has that index: there are 16K).
#[derive(Debug, Clone, Copy)]
struct TlbSlot {
    vp: u16,
    page: u16,
}

const TLB_EMPTY: TlbSlot = TlbSlot {
    vp: u16::MAX,
    page: 0,
};

/// Direct-mapped host TLB size (power of two).
const TLB_SLOTS: usize = 64;

/// The translation RAM: the full page table for both spaces, held in the
/// machine (no TLB — "this design works because KCM is a single-task
/// machine that does not need to do context switches").
///
/// The *simulated* machine has no TLB, but the simulator keeps a small
/// host-side one (enabled by default, see [`Mmu::set_fast_paths`]): a
/// direct-mapped `vp → physical page` cache consulted before the table
/// walk. It is filled only after an entry is valid and referenced, so a
/// hit skips nothing but idempotent work — simulated state and fault
/// counters are byte-identical with it on or off.
///
/// The MMU also lists the entries it has mapped, so a reset clears those
/// and nothing else.
///
/// # Examples
///
/// ```
/// use kcm_mem::{Mmu, MemStats};
/// use kcm_mem::main_memory::MainMemory;
/// use kcm_arch::VAddr;
///
/// let mut mmu = Mmu::new();
/// let mut mem = MainMemory::new();
/// let mut stats = MemStats::default();
/// let p1 = mmu.translate_data(VAddr::new(5), &mut mem, &mut stats).unwrap();
/// let p2 = mmu.translate_data(VAddr::new(6), &mut mem, &mut stats).unwrap();
/// assert_eq!(p2.value(), p1.value() + 1); // same page, adjacent offsets
/// assert_eq!(stats.data_page_faults, 1);
/// ```
#[derive(Debug)]
pub struct Mmu {
    data_table: Vec<Entry>,
    code_table: Vec<Entry>,
    /// Virtual pages of `data_table` mapped since the last reset (a page
    /// moved to the code space and faulted in again appears twice).
    mapped_data: Vec<u16>,
    /// Virtual pages of `code_table` mapped since the last reset.
    mapped_code: Vec<u16>,
    tlb: [TlbSlot; TLB_SLOTS],
    tlb_enabled: bool,
}

impl Default for Mmu {
    fn default() -> Mmu {
        Mmu::new()
    }
}

impl Mmu {
    /// A fresh MMU with no page mapped.
    pub fn new() -> Mmu {
        Mmu {
            data_table: vec![Entry::default(); kcm_arch::addr::PAGES_PER_SPACE as usize],
            code_table: vec![Entry::default(); kcm_arch::addr::PAGES_PER_SPACE as usize],
            mapped_data: Vec::new(),
            mapped_code: Vec::new(),
            tlb: [TLB_EMPTY; TLB_SLOTS],
            tlb_enabled: true,
        }
    }

    /// An MMU with no tables, left behind in a structure whose board was
    /// moved out; never accessed.
    pub(crate) const fn vacant() -> Mmu {
        Mmu {
            data_table: Vec::new(),
            code_table: Vec::new(),
            mapped_data: Vec::new(),
            mapped_code: Vec::new(),
            tlb: [TLB_EMPTY; TLB_SLOTS],
            tlb_enabled: true,
        }
    }

    /// Returns the MMU to power-on: no page mapped in either space and an
    /// empty host TLB. Clears only the entries mapped since the last
    /// reset.
    pub(crate) fn reset(&mut self) {
        for vp in self.mapped_data.drain(..) {
            self.data_table[usize::from(vp)] = Entry::default();
        }
        for vp in self.mapped_code.drain(..) {
            self.code_table[usize::from(vp)] = Entry::default();
        }
        self.tlb = [TLB_EMPTY; TLB_SLOTS];
    }

    /// Enables or disables the host-side TLB (on by default). Purely a
    /// host speed switch; translation results and fault counters are
    /// identical either way.
    pub fn set_fast_paths(&mut self, enabled: bool) {
        self.tlb_enabled = enabled;
        self.tlb = [TLB_EMPTY; TLB_SLOTS];
    }

    /// Translates a data-space address, allocating a physical page on
    /// first touch (the host services the page fault, §2.1).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::OutOfPhysicalMemory`] if the board is full.
    #[inline]
    pub fn translate_data(
        &mut self,
        addr: VAddr,
        memory: &mut MainMemory,
        stats: &mut MemStats,
    ) -> Result<PhysAddr, MemFault> {
        let vp = addr.page().index();
        if self.tlb_enabled {
            let slot = self.tlb[vp % TLB_SLOTS];
            if usize::from(slot.vp) == vp {
                // The slot was filled after the entry became valid and
                // referenced, so the table walk below would only redo
                // idempotent work.
                return Ok(PhysAddr::new(slot.page, addr.page_offset()));
            }
        }
        let entry = &mut self.data_table[vp];
        if !entry.valid() {
            let page = memory
                .allocate_page()
                .ok_or(MemFault::OutOfPhysicalMemory)?;
            *entry = Entry::map(page);
            self.mapped_data.push(vp as u16);
            stats.data_page_faults += 1;
        }
        entry.0 |= ST_REFERENCED;
        let phys_page = entry.phys_page();
        if self.tlb_enabled {
            self.tlb[vp % TLB_SLOTS] = TlbSlot {
                vp: vp as u16,
                page: phys_page,
            };
        }
        Ok(PhysAddr::new(phys_page, addr.page_offset()))
    }

    /// Marks a data page dirty (the cache does this when writing back).
    pub fn mark_data_dirty(&mut self, addr: VAddr) {
        let vp = addr.page().index();
        self.data_table[vp].0 |= ST_DIRTY;
    }

    /// Translates a code-space address, counting a fault on first touch.
    /// The simulator stores code host-side, so translation here only
    /// models the fault/NRU bookkeeping.
    #[inline]
    pub fn translate_code(&mut self, addr: CodeAddr, stats: &mut MemStats) {
        let vp = addr.page().index();
        let entry = &mut self.code_table[vp];
        if !entry.valid() {
            *entry = Entry::map(0);
            self.mapped_code.push(vp as u16);
            stats.code_page_faults += 1;
        }
        entry.0 |= ST_REFERENCED;
    }

    /// Whether a data page is currently mapped.
    pub fn data_page_mapped(&self, addr: VAddr) -> bool {
        self.data_table[addr.page().index()].valid()
    }

    /// Number of mapped data pages.
    pub fn mapped_data_pages(&self) -> usize {
        self.data_table.iter().filter(|e| e.valid()).count()
    }

    /// Detaches a data page and re-attaches its physical frame to the code
    /// space (batch-compiled code hand-over, §3.2.1). Returns whether the
    /// page was mapped.
    pub fn move_data_page_to_code(&mut self, data_addr: VAddr, code_addr: CodeAddr) -> bool {
        let vp = data_addr.page().index();
        let entry = self.data_table[vp];
        if !entry.valid() {
            return false;
        }
        self.data_table[vp] = Entry::default();
        let code_vp = code_addr.page().index();
        if !self.code_table[code_vp].valid() {
            self.mapped_code.push(code_vp as u16);
        }
        self.code_table[code_vp] = entry;
        // The data mapping is gone: drop any host TLB entry for it.
        self.tlb[vp % TLB_SLOTS] = TLB_EMPTY;
        true
    }
}

/// Sanity check: page size constants agree between crates.
const _: () = assert!(PAGE_SIZE_WORDS == 1 << 14);

/// Virtual page numbers fit the `u16` lists and TLB slots, with
/// `u16::MAX` to spare as the empty-slot marker.
const _: () = assert!(kcm_arch::addr::PAGES_PER_SPACE <= u16::MAX as u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_translates_once() {
        let mut mmu = Mmu::new();
        let mut mem = MainMemory::new();
        let mut stats = MemStats::default();
        mmu.translate_data(VAddr::new(0), &mut mem, &mut stats)
            .unwrap();
        mmu.translate_data(VAddr::new(100), &mut mem, &mut stats)
            .unwrap();
        assert_eq!(stats.data_page_faults, 1);
        assert_eq!(mem.allocated_pages(), 1);
    }

    #[test]
    fn different_pages_allocate_separately() {
        let mut mmu = Mmu::new();
        let mut mem = MainMemory::new();
        let mut stats = MemStats::default();
        let a = mmu
            .translate_data(VAddr::new(0), &mut mem, &mut stats)
            .unwrap();
        let b = mmu
            .translate_data(VAddr::new(PAGE_SIZE_WORDS), &mut mem, &mut stats)
            .unwrap();
        assert_ne!(a.value() / PAGE_SIZE_WORDS, b.value() / PAGE_SIZE_WORDS);
        assert_eq!(stats.data_page_faults, 2);
    }

    #[test]
    fn translation_preserves_offset() {
        let mut mmu = Mmu::new();
        let mut mem = MainMemory::new();
        let mut stats = MemStats::default();
        let p = mmu
            .translate_data(VAddr::new(1234), &mut mem, &mut stats)
            .unwrap();
        assert_eq!(p.value() % PAGE_SIZE_WORDS, 1234);
    }

    #[test]
    fn code_faults_counted() {
        let mut mmu = Mmu::new();
        let mut stats = MemStats::default();
        mmu.translate_code(CodeAddr::new(0), &mut stats);
        mmu.translate_code(CodeAddr::new(1), &mut stats);
        assert_eq!(stats.code_page_faults, 1);
    }

    #[test]
    fn reset_unmaps_both_spaces_and_empties_the_tlb() {
        let mut mmu = Mmu::new();
        let mut mem = MainMemory::new();
        let mut stats = MemStats::default();
        let (moved, kept) = (VAddr::new(0), VAddr::new(3 * PAGE_SIZE_WORDS));
        mmu.translate_data(moved, &mut mem, &mut stats).unwrap();
        mmu.translate_data(kept, &mut mem, &mut stats).unwrap();
        mmu.move_data_page_to_code(moved, CodeAddr::new(5 * PAGE_SIZE_WORDS));
        mmu.translate_code(CodeAddr::new(0), &mut stats);
        mmu.reset();
        mem.reset();
        assert_eq!(mmu.mapped_data_pages(), 0);
        assert!(mmu
            .data_table
            .iter()
            .chain(&mmu.code_table)
            .all(|e| *e == Entry::default()));
        // The TLB forgot `kept`: touching it again faults in page 0.
        let before = stats.data_page_faults;
        let p = mmu.translate_data(kept, &mut mem, &mut stats).unwrap();
        assert_eq!(stats.data_page_faults, before + 1);
        assert_eq!(p.value() / PAGE_SIZE_WORDS, 0);
    }

    #[test]
    fn page_handover_unmaps_data_side() {
        let mut mmu = Mmu::new();
        let mut mem = MainMemory::new();
        let mut stats = MemStats::default();
        let va = VAddr::new(0);
        mmu.translate_data(va, &mut mem, &mut stats).unwrap();
        assert!(mmu.data_page_mapped(va));
        assert!(mmu.move_data_page_to_code(va, CodeAddr::new(0)));
        assert!(!mmu.data_page_mapped(va));
        // Moving an unmapped page reports false.
        assert!(!mmu.move_data_page_to_code(va, CodeAddr::new(0)));
    }
}
