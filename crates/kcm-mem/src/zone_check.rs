//! Check of access rights at the logical level (paper §3.2.3).
//!
//! The zone check works on *virtual* addresses, in front of the logical
//! data cache, for three reasons the paper spells out: monitoring stack
//! sizes (overflow detection, GC triggering), security/debugging support
//! (type-restricted addresses), and catching bad writes before the
//! store-in cache absorbs them.

use kcm_arch::zone::ZONE_GRANULARITY_WORDS;
use kcm_arch::{Tag, VAddr, Word, Zone, ZoneLimits};

/// A fault detected by the zone checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneFault {
    /// The four most significant (unimplemented) address bits were not
    /// zero.
    HighBitsSet(Word),
    /// The address lies outside the zone's current limits — a stack
    /// overflow/underflow or collision (the trap that lets the system
    /// trigger garbage collection or grow a zone).
    OutOfZone {
        /// The zone named by the address word.
        zone: Zone,
        /// The offending address.
        addr: VAddr,
    },
    /// The word's type may not be used as an address into that zone (e.g.
    /// "the result of a floating point operation to address a memory
    /// cell").
    TypeNotAdmitted {
        /// The zone named by the address word.
        zone: Zone,
        /// The offending type.
        tag: Tag,
    },
    /// Write to a write-protected zone.
    WriteProtected(Zone),
    /// The address word carries a zone number with no configured zone.
    UnknownZone(Word),
}

impl std::fmt::Display for ZoneFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZoneFault::HighBitsSet(w) => write!(f, "unimplemented address bits set in {w}"),
            ZoneFault::OutOfZone { zone, addr } => {
                write!(f, "address {addr} outside limits of zone {zone}")
            }
            ZoneFault::TypeNotAdmitted { zone, tag } => {
                write!(f, "type {tag} not admitted as address into zone {zone}")
            }
            ZoneFault::WriteProtected(z) => write!(f, "write to protected zone {z}"),
            ZoneFault::UnknownZone(w) => write!(f, "no zone configured for {w}"),
        }
    }
}

impl std::error::Error for ZoneFault {}

/// The per-zone limit RAM plus admitted-type logic.
///
/// Beside the limits the table keeps, per address nibble, the windows
/// its limits admit a [`Tag::DataPtr`] read or write into: the machine's
/// own data accesses test one window instead of the whole check chain
/// ([`ZoneTable::admits_read`]). [`ZoneTable::set_limits`] recomputes
/// the windows of the zone it changes, so they never go stale.
///
/// # Examples
///
/// ```
/// use kcm_mem::ZoneTable;
/// use kcm_arch::{Word, Tag, VAddr, Zone};
///
/// let zones = ZoneTable::new();
/// let ok = Word::ptr(Tag::Ref, Zone::Global.base());
/// assert!(zones.check_read(ok).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ZoneTable {
    limits: [ZoneLimits; 5],
    /// Per address nibble, the window `[lo, lo + span)` of addresses a
    /// `DataPtr` read is admitted into; empty (`span == 0`) where the
    /// checked path must decide.
    read_win: [(u32, u32); 16],
    /// The same for writes: empty for a write-protected zone.
    write_win: [(u32, u32); 16],
}

impl Default for ZoneTable {
    fn default() -> ZoneTable {
        ZoneTable::new()
    }
}

/// Whether `addr` lies in the window its nibble has in `windows`.
#[inline]
fn in_window(windows: &[(u32, u32); 16], addr: VAddr) -> bool {
    let v = addr.value();
    let (lo, span) = windows[(v >> 24) as usize & 0xF];
    v.wrapping_sub(lo) < span
}

/// Default size of each zone at reset: 1M words (grown on demand by the
/// trap handler, exactly how the paper's adaptive paging strategy works).
pub const DEFAULT_ZONE_WORDS: u32 = 1 << 20;

impl ZoneTable {
    /// Creates a table with every data zone spanning its default extent.
    pub fn new() -> ZoneTable {
        let mut table = ZoneTable {
            limits: [ZoneLimits::new(VAddr::new(0), VAddr::new(0)); 5],
            read_win: [(0, 0); 16],
            write_win: [(0, 0); 16],
        };
        for z in Zone::DATA_ZONES {
            let end = VAddr::new(z.base().value() + DEFAULT_ZONE_WORDS);
            table.set_limits(z, ZoneLimits::new(z.base(), end));
        }
        table
    }

    /// Current limits of a data zone.
    ///
    /// # Panics
    ///
    /// Panics if `zone` is [`Zone::Code`] (code is not a data zone).
    pub fn limits(&self, zone: Zone) -> ZoneLimits {
        assert!(zone != Zone::Code, "code space has no data zone limits");
        self.limits[zone.bits() as usize]
    }

    /// Replaces a zone's limits ("the limits of the zones may be changed
    /// dynamically").
    ///
    /// # Panics
    ///
    /// Panics if `zone` is [`Zone::Code`].
    pub fn set_limits(&mut self, zone: Zone, limits: ZoneLimits) {
        assert!(zone != Zone::Code, "code space has no data zone limits");
        self.limits[zone.bits() as usize] = limits;
        // The window is the block-granular range `contains` admits, kept
        // only when it lies inside the zone's own region: the limits of
        // a zone apply only to addresses whose nibble names it.
        const G: u32 = ZONE_GRANULARITY_WORDS;
        let lo = (limits.start().value() / G) * G;
        let hi = limits.end().value().div_ceil(G) * G;
        let nib = zone.bits() as usize;
        let span = if lo >= zone.base().value() && hi <= zone.region_end().value() {
            hi - lo
        } else {
            0
        };
        self.read_win[nib] = (lo, span);
        self.write_win[nib] = (lo, if limits.is_write_protected() { 0 } else { span });
    }

    /// Whether a [`Tag::DataPtr`] read of `addr` lies in its nibble's
    /// read window. `true` means [`ZoneTable::check_read`] admits it;
    /// `false` leaves the decision to that check.
    #[inline]
    pub fn admits_read(&self, addr: VAddr) -> bool {
        in_window(&self.read_win, addr)
    }

    /// Whether a [`Tag::DataPtr`] write to `addr` lies in its nibble's
    /// write window; the same contract as [`ZoneTable::admits_read`]
    /// with [`ZoneTable::check_write`].
    #[inline]
    pub fn admits_write(&self, addr: VAddr) -> bool {
        in_window(&self.write_win, addr)
    }

    fn check_common(&self, ptr: Word) -> Result<(Zone, VAddr), ZoneFault> {
        // "It verifies that the most significant 4 address bits not used in
        // the current implementation are zero."
        if ptr.value() & 0xF000_0000 != 0 {
            return Err(ZoneFault::HighBitsSet(ptr));
        }
        let addr = VAddr::new(ptr.value());
        let zone = match ptr.zone() {
            Zone::Code => return Err(ZoneFault::UnknownZone(ptr)),
            z => z,
        };
        let tag = ptr.tag();
        if !zone.admits(tag) {
            return Err(ZoneFault::TypeNotAdmitted { zone, tag });
        }
        let limits = self.limits[zone.bits() as usize];
        if !limits.contains(addr) {
            return Err(ZoneFault::OutOfZone { zone, addr });
        }
        Ok((zone, addr))
    }

    /// Checks a read access through the tagged pointer `ptr`.
    ///
    /// # Errors
    ///
    /// Any [`ZoneFault`] other than [`ZoneFault::WriteProtected`].
    pub fn check_read(&self, ptr: Word) -> Result<(), ZoneFault> {
        self.check_common(ptr).map(|_| ())
    }

    /// Checks a write access through the tagged pointer `ptr`.
    ///
    /// # Errors
    ///
    /// Any [`ZoneFault`], including write protection.
    pub fn check_write(&self, ptr: Word) -> Result<(), ZoneFault> {
        let (zone, _) = self.check_common(ptr)?;
        if self.limits[zone.bits() as usize].is_write_protected() {
            return Err(ZoneFault::WriteProtected(zone));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcm_arch::zone::ZONE_GRANULARITY_WORDS;

    fn gptr(off: u32) -> Word {
        Word::ptr(Tag::Ref, VAddr::new(Zone::Global.base().value() + off))
    }

    #[test]
    fn in_zone_reference_passes() {
        let t = ZoneTable::new();
        assert!(t.check_read(gptr(0)).is_ok());
        assert!(t.check_write(gptr(100)).is_ok());
    }

    #[test]
    fn out_of_zone_traps() {
        let t = ZoneTable::new();
        let beyond = gptr(DEFAULT_ZONE_WORDS + ZONE_GRANULARITY_WORDS);
        assert!(matches!(
            t.check_read(beyond),
            Err(ZoneFault::OutOfZone {
                zone: Zone::Global,
                ..
            })
        ));
    }

    #[test]
    fn list_pointer_into_local_stack_traps() {
        // "On the local stack, however, only reference and data pointer are
        // allowed, since lists and structures are not constructed there."
        let t = ZoneTable::new();
        let w = Word::pack(Tag::List, Zone::Local, Zone::Local.base().value());
        assert!(matches!(
            t.check_read(w),
            Err(ZoneFault::TypeNotAdmitted {
                zone: Zone::Local,
                tag: Tag::List
            })
        ));
    }

    #[test]
    fn reference_into_control_stack_traps() {
        let t = ZoneTable::new();
        let w = Word::pack(Tag::Ref, Zone::Control, Zone::Control.base().value());
        assert!(t.check_read(w).is_err());
        let ok = Word::pack(Tag::DataPtr, Zone::Control, Zone::Control.base().value());
        assert!(t.check_read(ok).is_ok());
    }

    #[test]
    fn write_protection_blocks_writes_only() {
        let mut t = ZoneTable::new();
        let lim = t.limits(Zone::Static).write_protected();
        t.set_limits(Zone::Static, lim);
        let w = Word::pack(Tag::DataPtr, Zone::Static, Zone::Static.base().value());
        assert!(t.check_read(w).is_ok());
        assert!(matches!(
            t.check_write(w),
            Err(ZoneFault::WriteProtected(Zone::Static))
        ));
    }

    #[test]
    fn high_bits_detected() {
        let t = ZoneTable::new();
        let bad = Word::pack(
            Tag::Ref,
            Zone::Global,
            0x1000_0000 | Zone::Global.base().value(),
        );
        assert!(matches!(t.check_read(bad), Err(ZoneFault::HighBitsSet(_))));
    }

    #[test]
    fn growing_a_zone_clears_the_trap() {
        let mut t = ZoneTable::new();
        let addr = VAddr::new(Zone::Trail.base().value() + DEFAULT_ZONE_WORDS + 8192);
        let w = Word::pack(Tag::DataPtr, Zone::Trail, addr.value());
        assert!(t.check_write(w).is_err());
        t.set_limits(
            Zone::Trail,
            ZoneLimits::new(
                Zone::Trail.base(),
                addr.offset(ZONE_GRANULARITY_WORDS as i64),
            ),
        );
        assert!(t.check_write(w).is_ok());
    }

    #[test]
    fn the_windows_admit_exactly_what_the_checks_admit() {
        const G: u32 = ZONE_GRANULARITY_WORDS;
        for z in Zone::DATA_ZONES {
            let base = z.base().value();
            let end = |off: u32| ZoneLimits::new(z.base(), VAddr::new(base + off));
            let cases = [
                ("default", ZoneTable::new().limits(z)),
                ("grown", end(4 * DEFAULT_ZONE_WORDS)),
                ("unaligned end", end(3 * G + 100)),
                (
                    "write-protected",
                    ZoneTable::new().limits(z).write_protected(),
                ),
                ("region end", ZoneLimits::new(z.base(), z.region_end())),
            ];
            for (case, limits) in cases {
                let mut t = ZoneTable::new();
                t.set_limits(z, limits);
                // Every block boundary ±1 across the zone's region and the
                // neighbouring nibbles that hold a zone.
                let first = base.saturating_sub(1 << 24);
                let last =
                    (z.region_end().value() + (1 << 24)).min(Zone::Code.region_end().value());
                for block in (first..last).step_by(G as usize) {
                    for v in [block.wrapping_sub(1), block, block + 1] {
                        if v < first || v >= last {
                            continue;
                        }
                        let addr = VAddr::new(v);
                        let ptr = Word::ptr(Tag::DataPtr, addr);
                        assert_eq!(
                            t.admits_read(addr),
                            t.check_read(ptr).is_ok(),
                            "{z} {case}: read of {addr}"
                        );
                        assert_eq!(
                            t.admits_write(addr),
                            t.check_write(ptr).is_ok(),
                            "{z} {case}: write to {addr}"
                        );
                    }
                }
            }
        }
    }
}
