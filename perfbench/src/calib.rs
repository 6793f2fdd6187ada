//! The host-speed reference: a fixed unit of work, independent of the
//! KCM code, timed by the measuring thread between requests. A shared
//! virtual machine changes speed by up to 2× from one second to the
//! next; a request's time scaled by the reference unit's, taken within
//! milliseconds of it, cancels most of that, while a change to the
//! program moves the request and leaves the reference alone.
//!
//! The unit maps 64 fresh pages, writes one word to each (each write
//! faults a zeroed page in) and unmaps them. On the host the benchmark
//! was tuned on, the swings sit in memory and the kernel's page
//! handling: across 3-second windows this unit followed every
//! workload's request times better than branchy integer work, copies
//! within the caches or a pointer chase through 8 MiB did (see
//! `NOTES.md`). The pages come from `mmap`, not the allocator, so the
//! reference leaves the allocator's state, which the workload's own
//! costs depend on, untouched.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Bytes mapped per unit: 64 pages.
const UNIT_BYTES: usize = 256 << 10;
const PAGE_BYTES: usize = 4096;
/// Minor page faults per unit: one per page, none of them huge (the
/// mapping is smaller than a huge page).
pub const FAULTS_PER_UNIT: u64 = (UNIT_BYTES / PAGE_BYTES) as u64;

/// How often a measuring thread runs a unit: often enough to follow the
/// host's swings, which last about a second, at ≈1–2% of the window.
pub const PERIOD: Duration = Duration::from_millis(10);

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// CPU time of the calling thread, in nanoseconds: time the thread ran,
/// not time other threads of the process held the CPU.
fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// One unit: map fresh pages, fault each in with a write, unmap.
fn touch_fresh_pages() {
    const PROT_READ_WRITE: i32 = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
    // SAFETY: a fresh private anonymous mapping at an address the kernel
    // chooses aliases nothing; it is written only within its length and
    // unmapped once, after its last use.
    unsafe {
        let pages = mmap(
            std::ptr::null_mut(),
            UNIT_BYTES,
            PROT_READ_WRITE,
            MAP_PRIVATE_ANONYMOUS,
            -1,
            0,
        );
        assert!(pages as isize != -1, "mmap failed");
        for offset in (0..UNIT_BYTES).step_by(PAGE_BYTES) {
            pages.add(offset).write_volatile(1);
        }
        black_box(pages);
        munmap(pages, UNIT_BYTES);
    }
}

/// The unit times measured so far in one window.
#[derive(Default)]
pub struct Reference {
    /// Per unit: when it started (ns since the window's epoch) and its
    /// CPU time (ns).
    pub at_ns: Vec<u64>,
    pub unit_ns: Vec<u64>,
    /// CPU and wall time spent in units, to take out of the window's.
    pub cpu_ns: u64,
    pub wall_ns: u64,
    last: Option<Instant>,
}

impl Reference {
    /// Runs a unit if [`PERIOD`] has passed since the last one.
    pub fn tick(&mut self, epoch: Instant) {
        if self.last.is_none_or(|t| t.elapsed() >= PERIOD) {
            self.sample(epoch);
        }
    }

    /// Runs one unit and records it.
    pub fn sample(&mut self, epoch: Instant) {
        let start = Instant::now();
        let t0 = thread_cpu_ns();
        touch_fresh_pages();
        let unit = thread_cpu_ns() - t0;
        self.at_ns
            .push(start.saturating_duration_since(epoch).as_nanos() as u64);
        self.unit_ns.push(unit);
        self.cpu_ns += unit;
        self.wall_ns += start.elapsed().as_nanos() as u64;
        self.last = Some(start);
    }
}
