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
