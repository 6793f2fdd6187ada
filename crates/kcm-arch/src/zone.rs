//! Virtual-memory zones (paper §3.2.2–§3.2.3).
//!
//! "Stacks, heaps, and other data areas are mapped to zones. Thus the zone
//! bits encode information like e.g. local stack, global stack, heap, and
//! static data area." Each zone is defined by a start and an end address
//! whose limits may be changed dynamically; the zone number also selects one
//! of the eight 1K-word sections of the direct-mapped data cache (§3.2.4).

use crate::addr::VAddr;
use crate::tag::Tag;

/// The 4-bit zone field of a data word.
///
/// The reproduction populates six zones: the static data area, the three
/// WAM stacks of the split-stack model (global stack, local stack for
/// environments, control stack for choice points — §2.4), the trail, and a
/// code zone used only for tagging code pointers.
///
/// # Examples
///
/// ```
/// use kcm_arch::Zone;
/// assert_eq!(Zone::Global.cache_section(), 1);
/// assert!(Zone::Global.base().value() < Zone::Local.base().value());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Zone {
    /// Static data area (compiled ground terms, system tables).
    Static = 0,
    /// Global stack (heap): lists and structures are constructed here.
    Global = 1,
    /// Local stack: environments. The split-stack model keeps environments
    /// and choice points on separate stacks to improve locality (§2.4).
    Local = 2,
    /// Control stack: choice points (the other half of the split stack).
    Control = 3,
    /// Trail stack: addresses of bindings to undo on backtracking.
    Trail = 4,
    /// Code space marker used in `CodePtr` words. Code lives in its own
    /// address space (§3.2.1) and is not checked against data zones.
    Code = 5,
}

impl Zone {
    /// All data-space zones (excludes [`Zone::Code`]).
    pub const DATA_ZONES: [Zone; 5] = [
        Zone::Static,
        Zone::Global,
        Zone::Local,
        Zone::Control,
        Zone::Trail,
    ];

    /// Returns the 4-bit encoding.
    #[inline]
    pub const fn bits(self) -> u8 {
        self as u8
    }

    /// Decodes a 4-bit zone field.
    ///
    /// ```
    /// # use kcm_arch::Zone;
    /// assert_eq!(Zone::from_bits(3), Some(Zone::Control));
    /// assert_eq!(Zone::from_bits(9), None);
    /// ```
    #[inline]
    pub const fn from_bits(bits: u8) -> Option<Zone> {
        match bits {
            0 => Some(Zone::Static),
            1 => Some(Zone::Global),
            2 => Some(Zone::Local),
            3 => Some(Zone::Control),
            4 => Some(Zone::Trail),
            5 => Some(Zone::Code),
            _ => None,
        }
    }

    /// Base word address of the zone in the 28-bit data space. Each zone is
    /// carved out of its own 16M-word region so that zone bits are also
    /// recoverable from address bits 27..=24.
    #[inline]
    pub const fn base(self) -> VAddr {
        VAddr::new((self as u32) << 24)
    }

    /// One-past-the-maximum word address of the zone's region.
    #[inline]
    pub const fn region_end(self) -> VAddr {
        VAddr::new(((self as u32) + 1) << 24)
    }

    /// Which of the eight 1K-word data cache sections this zone selects
    /// (§3.2.4: "the sections are selected by the zone field of the address
    /// word").
    #[inline]
    pub const fn cache_section(self) -> usize {
        (self as u8 & 0x7) as usize
    }

    /// The zone implied by a data-space address' high bits, if populated.
    ///
    /// ```
    /// # use kcm_arch::{Zone, VAddr};
    /// let a = VAddr::new(Zone::Trail.base().value() + 100);
    /// assert_eq!(Zone::of_addr(a), Some(Zone::Trail));
    /// ```
    #[inline]
    pub const fn of_addr(addr: VAddr) -> Option<Zone> {
        Zone::from_bits((addr.value() >> 24) as u8)
    }

    /// Whether a word of type `tag` may legally be used as an address into
    /// this zone (§3.2.3). Numbers are allowed nowhere; lists and structures
    /// only point into the global stack; the control stack admits only data
    /// pointers ("no reference may ever point into that stack").
    pub const fn admits(self, tag: Tag) -> bool {
        match self {
            Zone::Static => matches!(tag, Tag::Ref | Tag::DataPtr | Tag::List | Tag::Struct),
            Zone::Global => matches!(tag, Tag::Ref | Tag::DataPtr | Tag::List | Tag::Struct),
            Zone::Local => matches!(tag, Tag::Ref | Tag::DataPtr),
            Zone::Control => matches!(tag, Tag::DataPtr),
            Zone::Trail => matches!(tag, Tag::DataPtr),
            Zone::Code => false,
        }
    }
}

impl std::fmt::Display for Zone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Zone::Static => "static",
            Zone::Global => "global",
            Zone::Local => "local",
            Zone::Control => "control",
            Zone::Trail => "trail",
            Zone::Code => "code",
        };
        f.write_str(s)
    }
}

/// Dynamic limits of one zone: a start and an end address (§3.2.3).
///
/// "Each stack and memory area in KCM is mapped to a zone which is defined
/// by a start and an end address. [...] The limits of the zones may be
/// changed dynamically." The hardware checks limits at a granularity of 4K
/// words; [`ZoneLimits::contains`] models the same 4K-rounded comparison.
///
/// # Examples
///
/// ```
/// use kcm_arch::{Zone, ZoneLimits, VAddr};
/// let lim = ZoneLimits::new(Zone::Global.base(), VAddr::new(Zone::Global.base().value() + 0x4000));
/// assert!(lim.contains(VAddr::new(Zone::Global.base().value() + 10)));
/// assert!(!lim.contains(VAddr::new(Zone::Global.base().value() + 0x8000)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneLimits {
    start: VAddr,
    end: VAddr,
    write_protected: bool,
}

/// Granularity of the hardware zone check: 16 bits of the address (bits
/// 27..=12) are compared against the RAM-held limits, i.e. 4K words.
pub const ZONE_GRANULARITY_WORDS: u32 = 4096;

impl ZoneLimits {
    /// Creates limits spanning `start..end` (end exclusive).
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: VAddr, end: VAddr) -> ZoneLimits {
        assert!(start.value() <= end.value(), "zone start above zone end");
        ZoneLimits {
            start,
            end,
            write_protected: false,
        }
    }

    /// Marks the zone write-protected ("each zone may be write-protected",
    /// §3.2.3).
    pub fn write_protected(mut self) -> ZoneLimits {
        self.write_protected = true;
        self
    }

    /// The configured start address.
    pub fn start(&self) -> VAddr {
        self.start
    }

    /// The configured end address (exclusive).
    pub fn end(&self) -> VAddr {
        self.end
    }

    /// Whether writes to this zone trap.
    pub fn is_write_protected(&self) -> bool {
        self.write_protected
    }

    /// The hardware check: the address' 4K-word block must lie inside the
    /// configured block range.
    #[inline]
    pub fn contains(&self, addr: VAddr) -> bool {
        let block = addr.value() / ZONE_GRANULARITY_WORDS;
        let lo = self.start.value() / ZONE_GRANULARITY_WORDS;
        // `end` is exclusive: round up to the next block boundary.
        let hi = self.end.value().div_ceil(ZONE_GRANULARITY_WORDS);
        block >= lo && block < hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_bits_roundtrip() {
        for z in Zone::DATA_ZONES {
            assert_eq!(Zone::from_bits(z.bits()), Some(z));
        }
        assert_eq!(Zone::from_bits(Zone::Code.bits()), Some(Zone::Code));
    }

    #[test]
    fn zone_regions_are_disjoint_and_ordered() {
        let mut prev_end = 0u32;
        for z in Zone::DATA_ZONES {
            assert!(z.base().value() >= prev_end);
            prev_end = z.region_end().value();
        }
    }

    #[test]
    fn zone_of_addr_recovers_zone() {
        for z in Zone::DATA_ZONES {
            let a = VAddr::new(z.base().value() + 12345);
            assert_eq!(Zone::of_addr(a), Some(z));
        }
    }

    #[test]
    fn sections_cover_all_zones_uniquely() {
        let mut seen = [false; 8];
        for z in Zone::DATA_ZONES {
            let s = z.cache_section();
            assert!(!seen[s], "two zones share cache section {s}");
            seen[s] = true;
        }
    }

    #[test]
    fn number_types_admitted_nowhere() {
        for z in Zone::DATA_ZONES {
            assert!(!z.admits(Tag::Int));
            assert!(!z.admits(Tag::Float));
        }
    }

    #[test]
    fn control_stack_admits_only_data_pointers() {
        assert!(Zone::Control.admits(Tag::DataPtr));
        assert!(!Zone::Control.admits(Tag::Ref));
        assert!(!Zone::Control.admits(Tag::List));
    }

    #[test]
    fn limits_are_checked_at_4k_granularity() {
        let base = Zone::Global.base().value();
        // End inside a block: the whole 4K block remains accessible.
        let lim = ZoneLimits::new(VAddr::new(base), VAddr::new(base + 100));
        assert!(lim.contains(VAddr::new(base + 4095)));
        assert!(!lim.contains(VAddr::new(base + 4096)));
    }

    #[test]
    #[should_panic(expected = "zone start above zone end")]
    fn inverted_limits_panic() {
        let base = Zone::Local.base().value();
        let _ = ZoneLimits::new(VAddr::new(base + 10), VAddr::new(base));
    }
}
