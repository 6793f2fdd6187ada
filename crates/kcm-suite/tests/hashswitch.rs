//! Hash switch dispatch, checked against the linear scan's cost. The
//! linker builds a hash side table for every `switch_on_constant` /
//! `switch_on_structure` table of at least 8 entries; the machine
//! resolves such a lookup in O(1) but charges exactly what scanning the
//! table would have: a hit at table ordinal `k` probes `k + 1` entries,
//! a miss probes them all. Smaller tables are scanned.
//!
//! The 14-program suite never builds a hash index, so the queries below
//! are the only check of that invariant: wide fact bases, depth-2
//! second-level dispatch and bitwise float keys (`-0.0` ≠ `0.0`;
//! dispatch must agree with unification). Each query's [`RunStats`]
//! and switch counters are pinned to `hashswitch_linear.txt` next to
//! this test: the numbers the same query produced when the machine
//! scanned every table linearly.
//!
//! [`RunStats`]: kcm_system::RunStats

use kcm_suite::golden;
use kcm_system::{Kcm, Outcome, QueryOpts, Tier};

const LINEAR_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/hashswitch_linear.txt");

/// Runs `query` for all solutions on a fresh session, asserts its
/// counters equal the linear scan's numbers pinned under `label`, and
/// returns the outcome for content checks.
fn pinned(label: &str, src: &str, query: &str) -> Outcome {
    let mut kcm = Kcm::new();
    kcm.load(src).unwrap_or_else(|e| panic!("consult: {e}"));
    let h = kcm
        .query(query, &QueryOpts::all())
        .unwrap_or_else(|e| panic!("run: {e}"));
    let now = format!("{label}.success {}\n", h.success)
        + &golden::runstats(label, &h.stats)
        + &golden::switches(label, &h.profile);
    golden::assert_matches_subject(LINEAR_PATH, label, &now);
    h
}

/// A flat fact base wide enough for a hash index: `f(kI, vI)` for
/// `I` in `0..n` (unique constant first keys).
fn wide_facts(n: usize) -> String {
    (0..n).map(|i| format!("f(k{i}, v{i}). ")).collect()
}

/// A fact base shaped for depth-2 indexing: three first-key groups of
/// three constant second keys each.
const PAIRS: &str = "
    pair(g0, a, 1). pair(g0, b, 2). pair(g0, c, 3).
    pair(g1, a, 4). pair(g1, b, 5). pair(g1, c, 6).
    pair(g2, a, 7). pair(g2, b, 8). pair(g2, c, 9).
";

#[test]
fn wide_fact_lookup_hits_the_hash_index() {
    let src = wide_facts(200);
    let h = pinned("wide_hit", &src, "f(k137, V)");
    assert!(h.success);
    assert_eq!(h.solutions.len(), 1);
    assert_eq!(h.solutions[0][0].1.to_string(), "v137");
    assert!(
        h.profile.switches.hits >= 1,
        "the constant switch must have dispatched through the table"
    );
    // A hit at table ordinal k charges k + 1 probes — the linear-scan
    // cost, preserved exactly by the hash path.
    assert!(h.profile.switches.probes >= 138 - 1);
}

#[test]
fn wide_fact_miss_charges_the_full_table() {
    let h = pinned("wide_miss", &wide_facts(50), "f(zzz, V)");
    assert!(!h.success);
    assert_eq!(h.profile.switches.misses, 1);
    assert_eq!(h.profile.switches.hits, 0);
    assert_eq!(h.profile.switches.probes, 50, "a miss probes every entry");
}

#[test]
fn depth2_point_lookup_takes_the_second_level_switch() {
    let h = pinned("depth2_point", PAIRS, "pair(g1, b, X)");
    assert!(h.success);
    assert_eq!(h.solutions.len(), 1);
    assert_eq!(h.solutions[0][0].1.to_string(), "5");
    assert!(
        h.profile.switches.depth2 >= 1,
        "the A2 switch of depth-2 indexing must have executed"
    );
}

#[test]
fn depth2_with_unbound_second_arg_enumerates_the_bucket_in_order() {
    let h = pinned("depth2_bucket", PAIRS, "pair(g1, M, X)");
    assert!(h.success);
    let got: Vec<String> = h
        .solutions
        .iter()
        .map(|s| format!("{}-{}", s[0].1, s[1].1))
        .collect();
    assert_eq!(got, ["a-4", "b-5", "c-6"], "clause order must survive");
}

#[test]
fn depth2_with_everything_unbound_enumerates_all_facts() {
    let h = pinned("depth2_all", PAIRS, "pair(G, M, X)");
    assert!(h.success);
    assert_eq!(h.solutions.len(), 9);
}

#[test]
fn depth2_rejects_missing_and_mistyped_second_keys() {
    // A second key absent from every clause is a genuine failure...
    let missing = pinned("depth2_missing", PAIRS, "pair(g1, z, X)");
    assert!(!missing.success);
    // ...and so is a compound second argument: a constant head arg can
    // never unify with a structure or a list.
    let structure = pinned("depth2_structure", PAIRS, "pair(g1, f(a), X)");
    assert!(!structure.success);
    let list = pinned("depth2_list", PAIRS, "pair(g1, [a], X)");
    assert!(!list.success);
}

/// Nine float-keyed facts — wide enough for a hash index — including the
/// `0.0` / `-0.0` pair whose keys must stay distinct.
const FLOATS: &str = "
    fk(0.0, pos). fk(-0.0, neg). fk(1.0, one). fk(2.0, two). fk(3.0, three).
    fk(4.0, four). fk(5.0, five). fk(6.0, six). fk(7.0, seven).
";

#[test]
fn float_keys_dispatch_bitwise() {
    let pos = pinned("float_pos", FLOATS, "fk(0.0, V)");
    assert_eq!(pos.solutions.len(), 1);
    assert_eq!(pos.solutions[0][0].1.to_string(), "pos");
    let neg = pinned("float_neg", FLOATS, "fk(-0.0, V)");
    assert_eq!(neg.solutions.len(), 1);
    assert_eq!(
        neg.solutions[0][0].1.to_string(),
        "neg",
        "-0.0 must select its own table entry, not 0.0's"
    );
}

#[test]
fn switch_counters_are_tier_independent() {
    // The probe/hit/miss/depth-2 counters are dispatch outcomes,
    // determined by program semantics alone — the clockless native tier
    // must report exactly the numbers the cycle tier does.
    let wide = wide_facts(100);
    for (src, query) in [
        (wide.as_str(), "f(k42, V)"),
        (PAIRS, "pair(g2, c, X)"),
        (PAIRS, "pair(g9, c, X)"),
    ] {
        let run_tier = |tier: Tier| {
            let mut kcm = Kcm::new();
            kcm.load(src).unwrap_or_else(|e| panic!("consult: {e}"));
            let opts = QueryOpts {
                enumerate_all: true,
                tier,
                ..QueryOpts::default()
            };
            kcm.query(query, &opts)
                .unwrap_or_else(|e| panic!("run: {e}"))
        };
        let c = run_tier(Tier::Cycle);
        let n = run_tier(Tier::Native);
        assert_eq!(c.solutions, n.solutions, "{query}: solutions diverged");
        assert_eq!(
            c.profile.switches, n.profile.switches,
            "{query}: switch counters diverged across tiers"
        );
    }
}

#[test]
fn float_dispatch_agrees_with_unification() {
    // The invariant behind the bitwise keys: table dispatch may only
    // prune clauses head unification would reject. Unification compares
    // float constants bitwise (same_constant), so a single-clause
    // predicate — no switch at all — must make the same distinction the
    // indexed one does.
    let single = pinned("float_single", "p0(0.0).", "p0(-0.0)");
    assert!(!single.success, "-0.0 must not unify with 0.0");
    let indexed = pinned("float_absent", FLOATS, "fk(0.5, V)");
    assert!(!indexed.success, "an absent float key must fail");
}
