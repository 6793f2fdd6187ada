//! Randomized property tests of the memory system: whatever the caches
//! and the MMU do for timing, the *values* must match a flat-memory
//! oracle. (Deterministic `kcm-testkit` generators.)

use kcm_arch::{Tag, VAddr, Word, Zone};
use kcm_mem::{DataMem, MemConfig, MemorySystem};
use kcm_testkit::{cases, TestRng};
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    Write(u8, u16, i32),
    Read(u8, u16),
}

fn arb_op(rng: &mut TestRng) -> Op {
    let zone = rng.int_in(0, 5) as u8;
    let off = rng.next_u32() as u16;
    if rng.chance(1, 2) {
        Op::Write(zone, off, rng.next_u32() as i32)
    } else {
        Op::Read(zone, off)
    }
}

fn arb_ops(rng: &mut TestRng, min: usize, max: usize) -> Vec<Op> {
    rng.vec_of(min, max, arb_op)
}

fn addr_of(zone_idx: u8, off: u16) -> VAddr {
    let zone = Zone::DATA_ZONES[zone_idx as usize];
    // Stay inside the default zone limits (1M words).
    VAddr::new(zone.base().value() + (off as u32 % 0xF000))
}

fn run_ops(sectioned: bool, ops: &[Op]) -> Vec<Option<i32>> {
    let mut mem = MemorySystem::with_config(MemConfig {
        sectioned_data_cache: sectioned,
    });
    let mut oracle: HashMap<u32, i32> = HashMap::new();
    let mut reads = Vec::new();
    for op in ops {
        match op {
            Op::Write(z, o, v) => {
                let a = addr_of(*z, *o);
                mem.write_ptr(Word::ptr(Tag::DataPtr, a), Word::int(*v))
                    .expect("write");
                oracle.insert(a.value(), *v);
            }
            Op::Read(z, o) => {
                let a = addr_of(*z, *o);
                let (w, _) = mem.read_ptr(Word::ptr(Tag::DataPtr, a)).expect("read");
                let got = w.as_int();
                assert_eq!(
                    got,
                    Some(oracle.get(&a.value()).copied().unwrap_or(0)),
                    "cache/oracle divergence at {a} (sectioned={sectioned})"
                );
                reads.push(got);
            }
        }
    }
    reads
}

#[test]
fn sectioned_cache_matches_flat_oracle() {
    cases(64, |rng| {
        run_ops(true, &arb_ops(rng, 1, 300));
    });
}

#[test]
fn unsectioned_cache_matches_flat_oracle() {
    cases(64, |rng| {
        run_ops(false, &arb_ops(rng, 1, 300));
    });
}

#[test]
fn both_geometries_read_identically() {
    cases(64, |rng| {
        let ops = arb_ops(rng, 1, 200);
        let a = run_ops(true, &ops);
        let b = run_ops(false, &ops);
        assert_eq!(a, b);
    });
}

#[test]
fn peek_agrees_with_unflushed_writes() {
    cases(64, |rng| {
        let ops = arb_ops(rng, 1, 150);
        let mut mem = MemorySystem::with_config(MemConfig::default());
        let mut oracle: HashMap<u32, i32> = HashMap::new();
        for op in &ops {
            if let Op::Write(z, o, v) = op {
                let a = addr_of(*z, *o);
                mem.write_ptr(Word::ptr(Tag::DataPtr, a), Word::int(*v))
                    .expect("write");
                oracle.insert(a.value(), *v);
            }
        }
        for (raw, v) in oracle {
            let got = mem.peek(VAddr::new(raw)).expect("peek");
            assert_eq!(got.as_int(), Some(v));
        }
    });
}
