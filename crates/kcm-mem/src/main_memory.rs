//! The KCM main memory board (paper §3.2.6).
//!
//! "Using SMD technology with components mounted on both sides one such
//! board holds 32 MBytes. [...] The memory is implemented with a 32 bit
//! wide data bus. A fast page mode is used to access two 32 bit words in
//! order to form a 64 bit KCM word."
//!
//! The simulator models the board as 16K-word physical pages allocated on
//! demand (the host workstation acts as paging server, §2.1, so physical
//! pages materialise when the MMU first maps them).

use kcm_arch::{Word, PAGE_SIZE_WORDS};

/// Words on one 32 MByte board: 4M 64-bit words.
pub const BOARD_WORDS: u32 = 32 * 1024 * 1024 / 8;

/// Physical pages on one board.
pub const BOARD_PAGES: u32 = BOARD_WORDS / PAGE_SIZE_WORDS;

/// A physical word address on the memory board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(u32);

impl PhysAddr {
    /// Builds a physical address from page number and in-page offset.
    ///
    /// # Panics
    ///
    /// Panics if the page lies beyond the board.
    pub fn new(page: u16, offset: u32) -> PhysAddr {
        assert!((page as u32) < BOARD_PAGES, "physical page beyond board");
        assert!(offset < PAGE_SIZE_WORDS, "offset beyond page");
        PhysAddr((page as u32) * PAGE_SIZE_WORDS + offset)
    }

    /// The raw word address.
    pub fn value(self) -> u32 {
        self.0
    }
}

/// Words per block of a frame's written-block mask: 16 blocks of 1K words.
/// Also the step in which the native tier's zone stores grow, so both
/// tiers zero a recycled store at the same granularity.
pub const BLOCK_WORDS: usize = PAGE_SIZE_WORDS as usize / 16;

/// Frames a board keeps across a reset for later allocations (2 MiB).
/// Frames beyond this are freed, so one giant run does not pin its
/// memory in a pooled board.
pub(crate) const FRAMES_KEPT: usize = 16;

/// The host storage of one physical page.
#[derive(Debug)]
struct Frame {
    words: Box<[u64]>,
    /// Bit `b` set: block `b` may hold a word other than [`Word::ZERO`].
    written: u16,
}

impl Frame {
    fn zeroed() -> Frame {
        Frame {
            words: vec![Word::ZERO.bits(); PAGE_SIZE_WORDS as usize].into_boxed_slice(),
            written: 0,
        }
    }

    /// Zeroes the blocks a write touched.
    fn scrub(&mut self) {
        while self.written != 0 {
            let block = self.written.trailing_zeros() as usize;
            self.written &= self.written - 1;
            self.words[block * BLOCK_WORDS..][..BLOCK_WORDS].fill(Word::ZERO.bits());
        }
    }
}

/// The physical memory board: demand-allocated 16K-word pages.
///
/// A reset returns the board to its power-on state at a cost that
/// follows what the run touched: the frames of the allocated pages are
/// zeroed block by block, only where a write landed, and kept for the
/// next allocations.
///
/// # Examples
///
/// ```
/// use kcm_mem::main_memory::{MainMemory, PhysAddr};
/// use kcm_arch::Word;
///
/// let mut m = MainMemory::new();
/// let page = m.allocate_page().unwrap();
/// let a = PhysAddr::new(page, 7);
/// m.write(a, Word::int(3));
/// assert_eq!(m.read(a).as_int(), Some(3));
/// ```
#[derive(Debug)]
pub struct MainMemory {
    pages: Vec<Option<Frame>>,
    next_free: u16,
    /// Zeroed frames kept by [`MainMemory::reset`], handed out before
    /// new ones.
    spare: Vec<Frame>,
}

impl Default for MainMemory {
    fn default() -> MainMemory {
        MainMemory::new()
    }
}

impl MainMemory {
    /// An empty board: no physical page allocated yet.
    pub fn new() -> MainMemory {
        MainMemory {
            pages: (0..BOARD_PAGES).map(|_| None).collect(),
            next_free: 0,
            spare: Vec::new(),
        }
    }

    /// A board with no storage, left behind in a structure whose board
    /// was moved out; never accessed.
    pub(crate) const fn vacant() -> MainMemory {
        MainMemory {
            pages: Vec::new(),
            next_free: 0,
            spare: Vec::new(),
        }
    }

    /// Allocates the next free physical page, zero-filled. Returns `None`
    /// when the board is full.
    pub fn allocate_page(&mut self) -> Option<u16> {
        if (self.next_free as u32) >= BOARD_PAGES {
            return None;
        }
        let page = self.next_free;
        self.pages[page as usize] = Some(self.spare.pop().unwrap_or_else(Frame::zeroed));
        self.next_free += 1;
        Some(page)
    }

    /// Number of physical pages currently allocated.
    pub fn allocated_pages(&self) -> u32 {
        u32::from(self.next_free)
    }

    /// Returns the board to power-on: no page allocated, the next
    /// allocation is page 0 again, and every word reads [`Word::ZERO`].
    /// Up to [`FRAMES_KEPT`] frames of the allocated pages are zeroed
    /// where they were written and kept for reuse, so that a run which
    /// allocates in the same order gets the same frames back; the rest
    /// are freed.
    pub(crate) fn reset(&mut self) {
        for slot in self.pages[..usize::from(self.next_free)].iter_mut().rev() {
            if let Some(mut frame) = slot.take() {
                if self.spare.len() < FRAMES_KEPT {
                    frame.scrub();
                    self.spare.push(frame);
                }
            }
        }
        self.next_free = 0;
    }

    /// Reads a word. Unallocated memory reads as the zero pattern — on the
    /// real board this is whatever the DRAM held; the simulator defines it
    /// for reproducibility.
    #[inline]
    pub fn read(&self, addr: PhysAddr) -> Word {
        let page = (addr.value() / PAGE_SIZE_WORDS) as usize;
        let offset = (addr.value() % PAGE_SIZE_WORDS) as usize;
        match &self.pages[page] {
            Some(frame) => Word::from_bits(frame.words[offset]),
            None => Word::ZERO,
        }
    }

    /// Writes a word.
    ///
    /// # Panics
    ///
    /// Panics when writing to a page the MMU never allocated — the MMU is
    /// the only component that hands out physical addresses, so this
    /// indicates a simulator bug, not a guest error.
    #[inline]
    pub fn write(&mut self, addr: PhysAddr, value: Word) {
        let page = (addr.value() / PAGE_SIZE_WORDS) as usize;
        let offset = (addr.value() % PAGE_SIZE_WORDS) as usize;
        let frame = self.pages[page]
            .as_mut()
            .expect("write to unallocated physical page");
        frame.words[offset] = value.bits();
        frame.written |= 1 << (offset / BLOCK_WORDS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_geometry_matches_paper() {
        // 32 MBytes of 64-bit words, 16K-word pages.
        assert_eq!(BOARD_WORDS, 4 * 1024 * 1024);
        assert_eq!(BOARD_PAGES, 256);
    }

    #[test]
    fn pages_allocate_sequentially() {
        let mut m = MainMemory::new();
        assert_eq!(m.allocate_page(), Some(0));
        assert_eq!(m.allocate_page(), Some(1));
        assert_eq!(m.allocated_pages(), 2);
    }

    #[test]
    fn board_exhausts() {
        let mut m = MainMemory::new();
        for _ in 0..BOARD_PAGES {
            assert!(m.allocate_page().is_some());
        }
        assert_eq!(m.allocate_page(), None);
    }

    #[test]
    fn fresh_pages_read_zero() {
        let mut m = MainMemory::new();
        let page = m.allocate_page().unwrap();
        assert_eq!(m.read(PhysAddr::new(page, 0)), Word::ZERO);
    }

    #[test]
    fn unallocated_reads_zero_pattern() {
        let m = MainMemory::new();
        assert_eq!(m.read(PhysAddr::new(10, 5)), Word::ZERO);
    }

    #[test]
    #[should_panic(expected = "unallocated physical page")]
    fn write_to_unallocated_page_panics() {
        let mut m = MainMemory::new();
        m.write(PhysAddr::new(3, 0), Word::int(1));
    }

    #[test]
    fn reset_reallocates_from_page_zero_reading_zero() {
        let mut m = MainMemory::new();
        for _ in 0..3 {
            m.allocate_page().unwrap();
        }
        m.write(PhysAddr::new(1, 5), Word::int(7));
        m.write(PhysAddr::new(2, PAGE_SIZE_WORDS - 1), Word::int(8));
        m.reset();
        assert_eq!(m.allocated_pages(), 0);
        assert_eq!(m.read(PhysAddr::new(1, 5)), Word::ZERO);
        for page in 0..3 {
            assert_eq!(m.allocate_page(), Some(page));
        }
        for page in 0..3 {
            assert!(m.pages[page as usize]
                .as_ref()
                .unwrap()
                .words
                .iter()
                .all(|&w| w == Word::ZERO.bits()));
        }
    }

    #[test]
    fn reset_keeps_at_most_the_frame_cap() {
        let mut m = MainMemory::new();
        for _ in 0..FRAMES_KEPT + 5 {
            m.allocate_page().unwrap();
        }
        m.reset();
        assert_eq!(m.spare.len(), FRAMES_KEPT);
    }

    #[test]
    fn writes_are_page_local() {
        let mut m = MainMemory::new();
        let p0 = m.allocate_page().unwrap();
        let p1 = m.allocate_page().unwrap();
        m.write(PhysAddr::new(p0, 9), Word::int(1));
        m.write(PhysAddr::new(p1, 9), Word::int(2));
        assert_eq!(m.read(PhysAddr::new(p0, 9)).as_int(), Some(1));
        assert_eq!(m.read(PhysAddr::new(p1, 9)).as_int(), Some(2));
    }
}
