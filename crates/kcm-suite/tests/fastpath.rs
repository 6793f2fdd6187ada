//! The fast-path invariant, proved over the whole suite: the host-side
//! fast paths (fall-through dispatch, host TLB, last-line data-cache hit,
//! batched code fetch, reused unify stacks) are *speed-only*. Running
//! every benchmark with `MachineConfig::fast_paths` on and off must
//! produce the same bytes everywhere the simulation is observable:
//! solutions, output, [`RunStats`] (including the memory-system and
//! prefetch counters), the hardware-mechanism [`Profile`], and the
//! per-predicate cycle attribution — serially and across the session
//! pool.

use kcm_suite::programs;
use kcm_suite::runner::{run_suite_pooled, Variant};
use kcm_system::{Kcm, MachineConfig, QueryOpts, SessionPool};

/// The two configurations under comparison: identical except for the
/// host-speed switch. Profiling is on so the per-address profile (the
/// flat-vector path) is exercised too.
fn configs() -> (MachineConfig, MachineConfig) {
    let fast = MachineConfig {
        profile: true,
        ..MachineConfig::default()
    };
    assert!(fast.fast_paths, "fast paths must default on");
    assert!(fast.mem.fast_paths, "memory fast paths must default on");
    let mut naive = fast.clone();
    naive.fast_paths = false;
    naive.mem.fast_paths = false;
    (fast, naive)
}

#[test]
fn fast_paths_are_byte_identical_over_the_full_suite() {
    let suite = programs::suite();
    let (fast_cfg, naive_cfg) = configs();
    for workers in [1usize, 4] {
        let pool = SessionPool::new(workers);
        let fast = run_suite_pooled(&suite, Variant::Timed, &fast_cfg, &pool);
        let naive = run_suite_pooled(&suite, Variant::Timed, &naive_cfg, &pool);
        for ((p, f), n) in suite.iter().zip(&fast).zip(&naive) {
            let f = f
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: fast run failed: {e}", p.name));
            let n = n
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: naive run failed: {e}", p.name));
            let (f, n) = (&f.outcome, &n.outcome);
            assert_eq!(f.success, n.success, "{}: success diverged", p.name);
            assert_eq!(f.solutions, n.solutions, "{}: solutions diverged", p.name);
            assert_eq!(f.output, n.output, "{}: output diverged", p.name);
            assert_eq!(
                f.stats, n.stats,
                "{} ({workers} workers): RunStats diverged",
                p.name
            );
            assert_eq!(
                f.stats.mem, n.stats.mem,
                "{} ({workers} workers): MemStats diverged",
                p.name
            );
            assert_eq!(
                f.profile, n.profile,
                "{} ({workers} workers): hardware profile diverged",
                p.name
            );
        }
    }
}

#[test]
fn fast_paths_preserve_the_predicate_profile() {
    // The per-predicate cycle attribution walks the flat per-address
    // profile vector (a fast-path refactor of its own); it must agree
    // with the naive interpreter for every program.
    let (fast_cfg, naive_cfg) = configs();
    for p in programs::suite() {
        let run = |cfg: &MachineConfig| {
            let mut kcm = Kcm::with_config(cfg.clone());
            kcm.load(p.source)
                .unwrap_or_else(|e| panic!("{}: consult: {e}", p.name));
            let mut prepared = kcm
                .prepare(p.query, &QueryOpts::first())
                .unwrap_or_else(|e| panic!("{}: prepare: {e}", p.name));
            prepared
                .run(p.enumerate)
                .unwrap_or_else(|e| panic!("{}: run: {e}", p.name));
            prepared.profile()
        };
        assert_eq!(
            run(&fast_cfg),
            run(&naive_cfg),
            "{}: per-predicate profile diverged",
            p.name
        );
    }
}

#[test]
fn reused_machines_stay_identical_across_runs() {
    // Fall-through hints, the host TLB and the last-line hint all carry
    // state from run to run; a second run on the same machine must still
    // match the naive interpreter exactly.
    let (fast_cfg, naive_cfg) = configs();
    let p = programs::program("nrev1").expect("nrev1 is in the suite");
    let run_twice = |cfg: &MachineConfig| {
        let mut kcm = Kcm::with_config(cfg.clone());
        kcm.load(p.source)
            .unwrap_or_else(|e| panic!("consult: {e}"));
        let mut prepared = kcm
            .prepare(p.query, &QueryOpts::first())
            .unwrap_or_else(|e| panic!("{e}"));
        let first = prepared.run(p.enumerate).expect("first run");
        let second = prepared.run(p.enumerate).expect("second run");
        (first, second)
    };
    let (f1, f2) = run_twice(&fast_cfg);
    let (n1, n2) = run_twice(&naive_cfg);
    assert_eq!(f1.stats, n1.stats, "first run diverged");
    assert_eq!(f2.stats, n2.stats, "second run diverged");
    assert_eq!(f1.solutions, n1.solutions);
    assert_eq!(f2.solutions, n2.solutions);
    assert_eq!(f1.profile, n1.profile);
    assert_eq!(f2.profile, n2.profile);
}
