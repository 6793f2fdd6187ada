//! The two invariants of the shared program image: every query is linked
//! as an overlay on the one resident image, and both tiers dispatch
//! through a resolved-dispatch table built once per image and shared
//! through its `Arc`.
//!
//! * Laziness — a snapshot-restored image decodes (and resolves) only
//!   the chunks a query runs, so its first query does not undo the lazy
//!   restore.
//! * Freshness — an in-place `assertz`/`retract` patch keeps the shared
//!   table in step, so the native tier answers exactly like the cycle
//!   tier and a fresh consult after every update.
//! * Chunks — a KB whose code spans many chunks answers alike linked
//!   and restored, across every chunk edge; a write copies its version
//!   for the readers that hold it; and a restored image saves back the
//!   bytes it was loaded from without decoding a chunk.

use kcm_arch::{Instr, Reg};
use kcm_system::{Kcm, Outcome, ProgramSource, QueryOpts, Tier};
use std::sync::Arc;

fn render(outcome: &Outcome) -> Vec<String> {
    outcome
        .solutions
        .iter()
        .map(|s| {
            s.iter()
                .map(|(n, t)| format!("{n}={t}"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect()
}

fn consulted(src: &str) -> Kcm {
    let mut kcm = Kcm::new();
    kcm.load(src).expect("consult");
    kcm
}

#[test]
fn restored_snapshot_answers_a_point_lookup_without_decoding_every_chunk() {
    let src: String = (0..50_000)
        .map(|i| format!("fact(k{i}, v{i}).\n"))
        .collect();
    let bytes = consulted(&src).snapshot().expect("snapshot");
    let mut kcm = Kcm::new();
    kcm.load(ProgramSource::Snapshot(&bytes)).expect("restore");
    let (decoded, chunks) = kcm.image().expect("restored").decoded_chunks();
    assert!(
        chunks >= 4,
        "the KB must span several decode chunks, got {chunks}"
    );
    assert_eq!(decoded, 0, "restoring decodes nothing");

    let opts = QueryOpts::first().with_tier(Tier::Native);
    let outcome = kcm.query("fact(k31337, V)", &opts).expect("lookup");
    assert_eq!(render(&outcome), ["V=v31337"]);
    let (decoded, _) = kcm.image().expect("restored").decoded_chunks();
    assert!(
        decoded < chunks,
        "a point lookup decoded {decoded} of {chunks} chunks"
    );
}

#[test]
fn query_overlays_share_the_program_image() {
    let kcm = consulted("p(1). p(2).");
    let image = kcm.image().expect("consulted");
    let before = Arc::strong_count(image);
    let held = kcm
        .prepare("p(X)", &QueryOpts::all().with_tier(Tier::Native))
        .expect("prepare");
    assert_eq!(
        Arc::strong_count(image),
        before + 1,
        "the prepared query holds the program, not a copy of it"
    );
    drop(held);
    assert_eq!(Arc::strong_count(image), before);
}

/// The native answer after each in-place update must equal the cycle
/// tier's on the same program (same instruction stream, so the same
/// retired-instruction count too) and a fresh consult's solutions.
fn assert_native_matches(kcm: &Kcm, source: &str, queries: &[&str]) {
    let fresh = consulted(source);
    for query in queries {
        let native = kcm
            .query(query, &QueryOpts::all().with_tier(Tier::Native))
            .expect("native");
        let cycle = kcm.query(query, &QueryOpts::all()).expect("cycle");
        let reference = fresh.query(query, &QueryOpts::all()).expect("fresh");
        assert_eq!(render(&native), render(&cycle), "{query}: native vs cycle");
        assert_eq!(
            native.stats.instructions, cycle.stats.instructions,
            "{query}: native and cycle tiers retired different streams"
        );
        assert_eq!(
            render(&native),
            render(&reference),
            "{query}: incremental vs fresh consult"
        );
    }
}

#[test]
fn native_dispatch_follows_in_place_updates() {
    let base: String = (0..64).map(|i| format!("f(k{i}, v{}).\n", i % 5)).collect();
    let queries = ["f(k_new, V)", "f(K, v_new)", "f(k7, V)", "f(K, V)"];
    let mut kcm = consulted(&base);
    // Answer natively first, so the shared table is in use before the
    // patch lands on it in place.
    assert_native_matches(&kcm, &base, &queries);

    kcm.assertz("f(k_new, v_new)").expect("assert a new key");
    kcm.assertz("f(k7, v_extra)")
        .expect("assert an existing key");
    let asserted = format!("{base}f(k_new, v_new).\nf(k7, v_extra).\n");
    assert_native_matches(&kcm, &asserted, &queries);

    assert!(kcm.retract("f(k_new, v_new)").expect("retract"));
    let retracted = format!("{base}f(k7, v_extra).\n");
    assert_native_matches(&kcm, &retracted, &queries);

    // A prepared query holds the image across an update: the update
    // copies on write, the held query keeps answering on the program it
    // was linked against, and the live image serves the new one.
    let mut held = kcm
        .prepare("f(k7, V)", &QueryOpts::all().with_tier(Tier::Native))
        .expect("prepare");
    kcm.assertz("f(k7, v_later)").expect("assert while held");
    let later = format!("{retracted}f(k7, v_later).\n");
    assert_eq!(
        render(&held.run(true).expect("held run")),
        ["V=v2", "V=v_extra"]
    );
    assert_native_matches(&kcm, &later, &queries);
}

#[test]
fn native_dispatch_follows_updates_to_a_restored_snapshot() {
    let base: String = (0..64).map(|i| format!("f(k{i}, v{}).\n", i % 5)).collect();
    let bytes = consulted(&base).snapshot().expect("snapshot");
    let mut kcm = Kcm::new();
    kcm.load(ProgramSource::Snapshot(&bytes)).expect("restore");
    let queries = ["f(k_new, V)", "f(k7, V)", "f(K, V)"];
    assert_native_matches(&kcm, &base, &queries);
    kcm.assertz("f(k_new, v_new)").expect("assert");
    assert!(kcm.retract("f(k7, v2)").expect("retract"));
    let updated = format!("{base}f(k_new, v_new).\n").replace("f(k7, v2).\n", "");
    assert_native_matches(&kcm, &updated, &queries);
}

/// Facts in the multi-chunk KB: five instructions each, so its code
/// spans 16 chunks of 2^15 instructions.
const KB_FACTS: usize = 100_000;
const CHUNK: u32 = 1 << 15;

fn kb_source() -> String {
    (0..KB_FACTS)
        .map(|i| format!("{}.\n", kb_fact(i)))
        .collect()
}

/// Fact `i` of the multi-chunk KB.
fn kb_fact(i: usize) -> String {
    format!("kv(k{i}, v{})", i % 97)
}

/// The number of the KB fact whose key is `key`.
fn kb_index(key: &str) -> usize {
    key[1..].parse().expect("a KB key")
}

fn restored(bytes: &[u8]) -> Kcm {
    let mut kcm = Kcm::new();
    kcm.load(ProgramSource::Snapshot(bytes)).expect("restore");
    kcm
}

/// The keys of the facts whose clause code lies within a few
/// instructions of a chunk edge of `kcm`'s image, edge by edge: a lookup
/// of one runs its clause across the edge or up to it.
fn keys_at_chunk_edges(kcm: &Kcm) -> Vec<String> {
    let image = kcm.image().expect("loaded");
    let n = image.num_instrs() as u32;
    let mut keys = Vec::new();
    for edge in (CHUNK..n).step_by(CHUNK as usize) {
        for idx in edge - 4..(edge + 4).min(n) {
            if let Instr::GetConstant { c, a } = image.instr_at_index(idx) {
                if *a == Reg::new(0) {
                    let atom = c.as_atom().expect("an atom key");
                    keys.push(kcm.symbols().atom_name(atom).to_owned());
                }
            }
        }
    }
    keys
}

/// `query` on both tiers of both copies: the same answers and the same
/// counters on each tier.
fn assert_copies_agree(linked: &Kcm, restored: &Kcm, query: &str) {
    for tier in [Tier::Cycle, Tier::Native] {
        let opts = QueryOpts::all().with_tier(tier);
        let a = linked.query(query, &opts).expect("linked");
        let b = restored.query(query, &opts).expect("restored");
        assert_eq!(render(&a), render(&b), "{query} on {tier:?}: answers");
        assert_eq!(a.stats, b.stats, "{query} on {tier:?}: counters");
    }
}

#[test]
fn lookups_across_chunk_edges_agree_between_linked_and_restored_copies() {
    let linked = consulted(&kb_source());
    let bytes = linked.snapshot().expect("snapshot");
    let restored = restored(&bytes);
    let (_, chunks) = restored.image().expect("restored").decoded_chunks();
    assert_eq!(chunks, 16, "the KB spans 16 chunks");
    let keys = keys_at_chunk_edges(&linked);
    assert!(keys.len() >= chunks - 1, "every edge has facts: {keys:?}");
    for key in &keys {
        let query = format!("kv({key}, V)");
        assert_copies_agree(&linked, &restored, &query);
        let answer = render(&linked.query(&query, &QueryOpts::first()).expect("lookup"));
        assert_eq!(answer, [format!("V=v{}", kb_index(key) % 97)]);
    }
    // An enumeration walks the whole variable chain, every edge included.
    assert_copies_agree(&linked, &restored, "kv(K, v13)");
}

#[test]
fn held_queries_answer_as_before_across_writes_to_a_multi_chunk_kb() {
    let source = kb_source();
    let linked = consulted(&source);
    let bytes = linked.snapshot().expect("snapshot");
    let keys = keys_at_chunk_edges(&linked);
    let (kept, dropped) = (&keys[0], &keys[keys.len() - 1]);
    let dropped_fact = kb_fact(kb_index(dropped));
    let edited = format!("{source}kv({kept}, v_new).\nkv(k_new, v_new).\n")
        .replace(&format!("{dropped_fact}.\n"), "");
    let fresh = consulted(&edited);
    let queries = [
        format!("kv({kept}, V)"),
        format!("kv({dropped}, V)"),
        "kv(k_new, V)".to_owned(),
        "kv(K, v_new)".to_owned(),
    ];
    for mut kcm in [linked, restored(&bytes)] {
        let opts = QueryOpts::all().with_tier(Tier::Native);
        let mut held: Vec<_> = (queries.iter())
            .map(|q| kcm.prepare(q, &opts).expect("prepare"))
            .collect();
        let before: Vec<_> = (queries.iter())
            .map(|q| render(&kcm.query(q, &opts).expect("before")))
            .collect();
        kcm.assertz(&format!("kv({kept}, v_new)")).expect("assert");
        kcm.assertz("kv(k_new, v_new)").expect("assert a new key");
        assert!(kcm.retract(&dropped_fact).expect("retract"));
        for (held, before) in held.iter_mut().zip(&before) {
            assert_eq!(&render(&held.run(true).expect("held run")), before);
        }
        for query in &queries {
            for tier in [Tier::Cycle, Tier::Native] {
                let opts = QueryOpts::all().with_tier(tier);
                assert_eq!(
                    render(&kcm.query(query, &opts).expect("edited")),
                    render(&fresh.query(query, &opts).expect("fresh")),
                    "{query} on {tier:?}: incremental vs fresh consult"
                );
            }
        }
    }
}

#[test]
fn saving_a_restored_snapshot_writes_it_back_without_decoding() {
    let bytes = consulted(&kb_source()).snapshot().expect("snapshot");
    let kcm = restored(&bytes);
    let (decoded, chunks) = kcm.image().expect("restored").decoded_chunks();
    assert_eq!((decoded, chunks), (0, 16));
    assert!(kcm.snapshot().expect("save") == bytes, "saved as loaded");
    assert_eq!(
        kcm.image().expect("restored").decoded_chunks(),
        (0, chunks),
        "saving decoded a chunk"
    );
}

#[test]
fn a_patched_restored_snapshot_saves_and_loads_like_the_patched_original() {
    let bytes = consulted(&kb_source()).snapshot().expect("snapshot");
    let mut patched = restored(&bytes);
    patched.assertz("kv(k7, v_new)").expect("assert");
    patched
        .assertz("kv(k_new, v_new)")
        .expect("assert a new key");
    assert!(patched.retract(&kb_fact(99_999)).expect("retract"));
    let saved = patched.snapshot().expect("save");
    let reloaded = restored(&saved);
    assert!(
        reloaded.snapshot().expect("resave") == saved,
        "save(load(x)) == x"
    );
    for query in ["kv(k7, V)", "kv(k_new, V)", "kv(k99999, V)", "kv(K, v_new)"] {
        assert_copies_agree(&patched, &reloaded, query);
    }
}
