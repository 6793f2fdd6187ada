//! Check of access rights at the logical level (paper §3.2.3).
//!
//! The zone check works on *virtual* addresses, in front of the logical
//! data cache, for three reasons the paper spells out: monitoring stack
//! sizes (overflow detection, GC triggering), security/debugging support
//! (type-restricted addresses), and catching bad writes before the
//! store-in cache absorbs them.

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
}

impl Default for ZoneTable {
    fn default() -> ZoneTable {
        ZoneTable::new()
    }
}

/// Default size of each zone at reset: 1M words (grown on demand by the
/// trap handler, exactly how the paper's adaptive paging strategy works).
pub const DEFAULT_ZONE_WORDS: u32 = 1 << 20;

impl ZoneTable {
    /// Creates a table with every data zone spanning its default extent.
    pub fn new() -> ZoneTable {
        let lim =
            |z: Zone| ZoneLimits::new(z.base(), VAddr::new(z.base().value() + DEFAULT_ZONE_WORDS));
        ZoneTable {
            limits: [
                lim(Zone::Static),
                lim(Zone::Global),
                lim(Zone::Local),
                lim(Zone::Control),
                lim(Zone::Trail),
            ],
        }
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
}
