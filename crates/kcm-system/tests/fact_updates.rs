//! Repeated writes to one key of a fact base. An `assertz` to a key
//! that already has clauses relocates the key's dispatch block (at the
//! first-level constant table, or at a depth-2 bucket's fallback), and a
//! `retract` tombstones the clause in place and unlinks it from the
//! predicate's variable chain, which a call with an unbound first
//! argument walks. The relocated block must carry only live clauses and
//! the chain must not keep the dead ones: then an assert/retract pair
//! costs the same image words however many pairs came before it, and a
//! lookup, keyed or not, retires the same instructions. Both hold on a
//! program consulted from source and on one restored from a snapshot
//! (no source to recompile from, so every write must stay on the
//! in-place path).

use kcm_system::{Kcm, ProgramSource, QueryOpts, Tier};

/// Assert/retract pairs per program.
const PAIRS: usize = 1_100;

/// `f(kI, vI)`: one clause per first key, so `f(k5, _)` dispatches
/// through the first-level constant table.
fn first_level_source() -> String {
    (0..1_000).map(|i| format!("f(k{i}, v{i}).\n")).collect()
}

/// `g(kJ, vI)` with `J = I mod 10`: a hundred clauses per first key with
/// distinct second keys, so each first key's bucket dispatches depth-2 on
/// A2, with a fallback block over the whole bucket for an unbound A2.
fn bucket_source() -> String {
    (0..1_000)
        .map(|i| format!("g(k{}, v{i}).\n", i % 10))
        .collect()
}

/// The program consulted from source, and the same program restored from
/// its snapshot.
fn programs(source: &str) -> Vec<(&'static str, Kcm)> {
    let mut held = Kcm::new();
    held.load(source).expect("consult");
    let bytes = held.snapshot().expect("snapshot");
    let mut restored = Kcm::new();
    restored
        .load(ProgramSource::Snapshot(&bytes))
        .expect("restore");
    vec![("source-held", held), ("snapshot-restored", restored)]
}

fn words(kcm: &Kcm) -> usize {
    kcm.image().expect("loaded").len_words()
}

/// Instructions a native enumerate-all run of `query` retires.
fn steps(kcm: &Kcm, query: &str) -> u64 {
    let opts = QueryOpts::all().with_tier(Tier::Native);
    kcm.query(query, &opts).expect("query").stats.instructions
}

/// Every answer of `query`, rendered, in order.
fn answers(kcm: &Kcm, query: &str) -> Vec<String> {
    let outcome = kcm.query(query, &QueryOpts::all()).expect("query");
    outcome.solutions.iter().map(|s| format!("{s:?}")).collect()
}

fn fresh(source: &str) -> Kcm {
    let mut kcm = Kcm::new();
    kcm.load(source).expect("consult");
    kcm
}

/// Runs [`PAIRS`] assert/retract pairs of `clause` on both forms of
/// `source`, checking the per-pair growth, the lookups' instruction
/// counts and the answers against a fresh consult.
fn check(source: &str, clause: &str, lookups: &[&str]) {
    let with_clause = format!("{source}{clause}.\n");
    for (form, mut kcm) in programs(source) {
        let mut growth = None;
        let mut first_steps = Vec::new();
        for pair in 0..PAIRS {
            let before = words(&kcm);
            kcm.assertz(clause).expect("assertz");
            if pair + 1 == PAIRS {
                for q in lookups {
                    assert_eq!(
                        answers(&kcm, q),
                        answers(&fresh(&with_clause), q),
                        "{form}: {q}"
                    );
                }
            }
            assert!(kcm.retract(clause).expect("retract"), "{form}");
            let added = words(&kcm) - before;
            assert_eq!(
                *growth.get_or_insert(added),
                added,
                "{form}: pair {pair} grew the image by a different amount"
            );
            if pair == 0 {
                first_steps = lookups.iter().map(|q| steps(&kcm, q)).collect();
            }
        }
        let last_steps: Vec<u64> = lookups.iter().map(|q| steps(&kcm, q)).collect();
        assert_eq!(last_steps, first_steps, "{form}: {lookups:?}");
        for q in lookups {
            assert_eq!(answers(&kcm, q), answers(&fresh(source), q), "{form}: {q}");
        }
    }
}

#[test]
fn repeated_writes_to_a_first_level_key_relocate_only_live_clauses() {
    check(
        &first_level_source(),
        "f(k5, w)",
        &["f(k5, V)", "f(k6, V)", "f(X, w)"],
    );
}

#[test]
fn repeated_writes_to_a_depth2_bucket_relocate_only_live_clauses() {
    check(
        &bucket_source(),
        "g(k5, w)",
        &["g(k5, V)", "g(k5, w)", "g(k5, v15)", "g(k6, V)", "g(X, w)"],
    );
}
