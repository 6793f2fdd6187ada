//! Hash side tables for O(1) switch dispatch.
//!
//! KCM's `switch_on_constant` / `switch_on_structure` instructions carry a
//! linear key/target table in the code image (§3.1.4); executing one by
//! scanning is O(n) per call, which degrades a million-fact predicate to
//! O(n²) enumeration. A [`SwitchIndex`] is built once per switch
//! instruction at image-link time (the same moment the native tier's
//! resolved-address side table is built) and maps a normalised 64-bit key
//! ([`Word::switch_key`](crate::Word::switch_key) for constants, the raw
//! functor index for structures) to the branch target **and the key's
//! ordinal position in the original table**.
//!
//! Keeping the ordinal is what lets the cycle-accurate tier stay
//! byte-identical to the linear reference: a hit at ordinal `k` charges
//! exactly `(k + 1) × switch_table_probe` — the cycles the hardware's
//! sequential probe would have burnt — and a miss charges
//! `len × switch_table_probe`, all without touching the table.
//!
//! The map is zero-dependency open addressing with linear probing over a
//! power-of-two slot array at ≤ 50% load, keys mixed through SplitMix64.
//! Duplicate keys keep the *first* occurrence, matching the linear scan's
//! first-match-wins semantics.

use crate::addr::CodeAddr;
use crate::symbol::FunctorId;
use crate::word::Word;

/// Sentinel target meaning "slot empty" (`CodeAddr` is 28-bit, so
/// `u32::MAX` can never be a real target).
const EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    target: u32,
    ordinal: u32,
}

/// An open-addressing hash map from switch key to `(target, ordinal)`,
/// shared by both execution tiers. Built immutably at link time; the
/// incremental assert path ([`crate::CodeImage::assert_fact_clause`])
/// clones-and-mutates it through [`SwitchIndex::set_target`] and
/// [`SwitchIndex::push_key`].
#[derive(Debug, Clone)]
pub struct SwitchIndex {
    slots: Box<[Slot]>,
    mask: usize,
    len: usize,
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer, so the low bits
/// used for slot selection depend on every key bit.
#[inline]
const fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SwitchIndex {
    fn with_capacity(n: usize) -> SwitchIndex {
        let cap = (2 * n.max(1)).next_power_of_two();
        SwitchIndex {
            slots: vec![
                Slot {
                    key: 0,
                    target: EMPTY,
                    ordinal: 0,
                };
                cap
            ]
            .into_boxed_slice(),
            mask: cap - 1,
            len: n,
        }
    }

    fn insert_first(&mut self, key: u64, target: CodeAddr, ordinal: usize) {
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.target == EMPTY {
                *slot = Slot {
                    key,
                    target: target.value(),
                    ordinal: ordinal as u32,
                };
                return;
            }
            if slot.key == key {
                // Duplicate key: the linear scan would have stopped at the
                // earlier entry, so keep it.
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Builds the index for a `switch_on_constant` table, in table order.
    pub fn for_constants(table: &[(Word, CodeAddr)]) -> SwitchIndex {
        let mut idx = SwitchIndex::with_capacity(table.len());
        for (ordinal, (key, target)) in table.iter().enumerate() {
            idx.insert_first(key.switch_key(), *target, ordinal);
        }
        idx
    }

    /// Builds the index for a `switch_on_structure` table, in table order.
    pub fn for_structures(table: &[(FunctorId, CodeAddr)]) -> SwitchIndex {
        let mut idx = SwitchIndex::with_capacity(table.len());
        for (ordinal, (f, target)) in table.iter().enumerate() {
            idx.insert_first(f.index() as u64, *target, ordinal);
        }
        idx
    }

    /// Number of distinct keys the original table contributed.
    pub fn table_len(&self) -> usize {
        self.len
    }

    /// Redirects an existing key to a new target, keeping its ordinal
    /// (probe accounting) untouched. No-op if the key is absent.
    pub fn set_target(&mut self, key: u64, target: CodeAddr) {
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.target == EMPTY {
                return;
            }
            if slot.key == key {
                slot.target = target.value();
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Appends a key that is new to the underlying linear table (its
    /// ordinal is the table's previous length), growing and rehashing —
    /// ordinals preserved — when the ≤ 50% load bound would be exceeded.
    pub fn push_key(&mut self, key: u64, target: CodeAddr) {
        let ordinal = self.len;
        if 2 * (self.len + 1) > self.slots.len() {
            let mut grown = SwitchIndex::with_capacity(self.len + 1);
            grown.len = self.len;
            for slot in self.slots.iter() {
                if slot.target != EMPTY {
                    grown.insert_at_ordinal(slot.key, slot.target, slot.ordinal);
                }
            }
            *self = grown;
        }
        self.insert_at_ordinal(key, target.value(), ordinal as u32);
        self.len = ordinal + 1;
    }

    fn insert_at_ordinal(&mut self, key: u64, target: u32, ordinal: u32) {
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let slot = &mut self.slots[i];
            if slot.target == EMPTY {
                *slot = Slot {
                    key,
                    target,
                    ordinal,
                };
                return;
            }
            if slot.key == key {
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Every slot — occupied or empty — as `(key, target, ordinal)`
    /// triples, in slot order. `target == u32::MAX` marks an empty slot.
    /// Raw access for the snapshot writer, so loading can skip rehashing.
    pub(crate) fn raw_slots(&self) -> impl Iterator<Item = (u64, u32, u32)> + '_ {
        self.slots.iter().map(|s| (s.key, s.target, s.ordinal))
    }

    /// Rebuilds an index of a `len`-entry table from raw slots as
    /// [`SwitchIndex::raw_slots`] lists them, checking what every index
    /// this module builds keeps true: a power-of-two slot count at least
    /// twice `len`, at most `len` occupied slots, so at least half the
    /// slots are empty and every probe sequence of
    /// [`SwitchIndex::lookup`] ends, and every occupied slot's ordinal
    /// inside the table and its target inside the `code_len` words of
    /// its image. The checks ride the one pass that builds the slots,
    /// with no branch per slot.
    ///
    /// # Errors
    ///
    /// Names the first rule the slots break.
    pub(crate) fn from_raw(
        len: usize,
        code_len: usize,
        raw: impl ExactSizeIterator<Item = (u64, u32, u32)>,
    ) -> Result<SwitchIndex, &'static str> {
        let cap = raw.len();
        if !cap.is_power_of_two() {
            return Err("side-table capacity is not a power of two");
        }
        if len > cap / 2 {
            return Err("side table is more than half full");
        }
        let mut occupied = 0usize;
        let mut ordinal_past_table = false;
        let mut target_outside = false;
        let slots = raw
            .map(|(key, target, ordinal)| {
                let used = target != EMPTY;
                occupied += used as usize;
                ordinal_past_table |= used & (ordinal as usize >= len);
                target_outside |= used & (target as usize >= code_len);
                Slot {
                    key,
                    target,
                    ordinal,
                }
            })
            .collect();
        if occupied > len {
            return Err("side table holds more keys than its table");
        }
        if ordinal_past_table {
            return Err("side-table ordinal past the end of its table");
        }
        if target_outside {
            return Err("side-table target outside the code");
        }
        Ok(SwitchIndex {
            slots,
            mask: cap - 1,
            len,
        })
    }

    /// Looks up a key, returning the branch target and the key's ordinal in
    /// the original linear table (for probe-cost accounting).
    #[inline]
    pub fn lookup(&self, key: u64) -> Option<(CodeAddr, u32)> {
        let mut i = (mix(key) as usize) & self.mask;
        loop {
            let slot = self.slots[i];
            if slot.target == EMPTY {
                return None;
            }
            if slot.key == key {
                return Some((CodeAddr::new(slot.target), slot.ordinal));
            }
            i = (i + 1) & self.mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::AtomId;

    #[test]
    fn constant_lookup_matches_linear_scan() {
        let table: Vec<(Word, CodeAddr)> = vec![
            (Word::int(1), CodeAddr::new(10)),
            (Word::atom(AtomId::new(2)), CodeAddr::new(20)),
            (Word::nil(), CodeAddr::new(30)),
            (Word::float(-0.0), CodeAddr::new(40)),
            (Word::float(0.0), CodeAddr::new(50)),
        ];
        let idx = SwitchIndex::for_constants(&table);
        for (probe, _) in &table {
            let linear = table
                .iter()
                .position(|(k, _)| k.same_constant(*probe))
                .unwrap();
            let (target, ordinal) = idx.lookup(probe.switch_key()).expect("present key");
            assert_eq!(target, table[linear].1);
            assert_eq!(ordinal as usize, linear);
        }
        assert!(idx.lookup(Word::int(999).switch_key()).is_none());
        // -0.0 and 0.0 are distinct switch keys (bitwise float identity).
        assert_ne!(
            idx.lookup(Word::float(-0.0).switch_key()),
            idx.lookup(Word::float(0.0).switch_key()),
        );
    }

    #[test]
    fn duplicate_keys_keep_first_occurrence() {
        let table = vec![
            (Word::int(7), CodeAddr::new(1)),
            (Word::int(8), CodeAddr::new(2)),
            (Word::int(7), CodeAddr::new(3)),
        ];
        let idx = SwitchIndex::for_constants(&table);
        assert_eq!(
            idx.lookup(Word::int(7).switch_key()),
            Some((CodeAddr::new(1), 0))
        );
    }

    #[test]
    fn wide_structure_table_finds_every_key() {
        let n = 4_096usize;
        let table: Vec<(FunctorId, CodeAddr)> = (0..n)
            .map(|i| (FunctorId::new(i), CodeAddr::new(i as u32 + 1)))
            .collect();
        let idx = SwitchIndex::for_structures(&table);
        assert_eq!(idx.table_len(), n);
        for (i, (f, target)) in table.iter().enumerate() {
            assert_eq!(idx.lookup(f.index() as u64), Some((*target, i as u32)));
        }
        assert!(idx.lookup(n as u64).is_none());
    }

    #[test]
    fn push_key_grows_and_preserves_ordinals() {
        let table: Vec<(Word, CodeAddr)> = (0..8)
            .map(|i| (Word::int(i), CodeAddr::new(100 + i as u32)))
            .collect();
        let mut idx = SwitchIndex::for_constants(&table);
        for i in 8..200i32 {
            idx.push_key(Word::int(i).switch_key(), CodeAddr::new(100 + i as u32));
        }
        assert_eq!(idx.table_len(), 200);
        for i in 0..200i32 {
            assert_eq!(
                idx.lookup(Word::int(i).switch_key()),
                Some((CodeAddr::new(100 + i as u32), i as u32)),
            );
        }
        idx.set_target(Word::int(7).switch_key(), CodeAddr::new(999));
        assert_eq!(
            idx.lookup(Word::int(7).switch_key()),
            Some((CodeAddr::new(999), 7)),
        );
    }

    #[test]
    fn raw_slot_round_trip_matches() {
        let table: Vec<(Word, CodeAddr)> = (0..50)
            .map(|i| (Word::int(i), CodeAddr::new(i as u32 + 1)))
            .collect();
        let idx = SwitchIndex::for_constants(&table);
        let raw: Vec<(u64, u32, u32)> = idx.raw_slots().collect();
        let back =
            SwitchIndex::from_raw(idx.table_len(), 51, raw.into_iter()).expect("valid slots");
        for (k, t) in &table {
            assert_eq!(back.lookup(k.switch_key()), idx.lookup(k.switch_key()));
            assert!(back.lookup(k.switch_key()).is_some_and(|(bt, _)| bt == *t));
        }
    }

    #[test]
    fn empty_table_rejects_everything() {
        let idx = SwitchIndex::for_constants(&[]);
        assert!(idx.lookup(Word::int(0).switch_key()).is_none());
        assert_eq!(idx.table_len(), 0);
    }
}
