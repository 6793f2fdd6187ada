//! Regression guards on the reproduced evaluation results: the headline
//! numbers of the paper must keep holding as the code evolves. These are
//! *shape* assertions (who wins, by roughly what factor), with generous
//! bands around the calibration points.

use kcm_repro::kcm_mem::MemConfig;
use kcm_repro::kcm_suite::programs;
use kcm_repro::kcm_suite::runner::{kcm_static_size, run_program, Variant};
use kcm_repro::kcm_system::{Kcm, KcmEngine, MachineConfig, QueryOpts};

/// §4.3 / Table 4: "one concatenation step is 15 cycles" → 833 Klips peak.
#[test]
fn concat_peak_is_fifteen_cycles_per_step() {
    let mut kcm = Kcm::new();
    kcm.load(
        "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).
         mk(0, []). mk(N, [N|T]) :- N > 0, M is N - 1, mk(M, T).
         run(N) :- mk(N, L), app(L, [x], _).",
    )
    .expect("consult");
    let short = kcm
        .query("run(8)", &QueryOpts::first())
        .expect("run")
        .stats
        .cycles;
    let long = kcm
        .query("run(40)", &QueryOpts::first())
        .expect("run")
        .stats
        .cycles;
    let mk_short = kcm
        .query("mk(8, _)", &QueryOpts::first())
        .expect("run")
        .stats
        .cycles;
    let mk_long = kcm
        .query("mk(40, _)", &QueryOpts::first())
        .expect("run")
        .stats
        .cycles;
    let step = ((long - short) - (mk_long - mk_short)) as f64 / 32.0;
    assert!(
        (13.0..=17.0).contains(&step),
        "concat step = {step} cycles; the paper's peak is 15"
    );
}

/// Table 2 row / Table 4: nrev1 at ≈ 760 Klips, ≈ 0.65 ms.
#[test]
fn nrev1_matches_the_paper() {
    let p = programs::program("nrev1").expect("nrev1");
    let m = run_program(&KcmEngine::new(), &p, Variant::Timed).expect("run");
    let stats = m.outcome.stats;
    assert_eq!(stats.inferences, 499, "the paper counts 499 inferences");
    let ms = stats.ms();
    assert!((0.55..=0.80).contains(&ms), "nrev1 = {ms} ms; paper: 0.650");
    let klips = stats.klips();
    assert!(
        (620.0..=900.0).contains(&klips),
        "nrev1 = {klips} Klips; paper: 768"
    );
    // Fully deterministic under indexing + shallow backtracking.
    assert_eq!(stats.choice_points, 0);
}

/// Table 2: the PLM model is 2–4.5× slower than KCM, averaging ≈ 3.
#[test]
fn plm_ratio_band() {
    let mut ratios = Vec::new();
    for p in programs::suite() {
        let k = run_program(&KcmEngine::new(), &p, Variant::Timed).expect("kcm");
        let opts = QueryOpts {
            enumerate_all: p.enumerate,
            ..QueryOpts::default()
        };
        let pl = plm::model().run(p.source, p.query, &opts).expect("plm");
        let r = pl.stats.ms() / k.outcome.stats.ms();
        assert!(
            (1.3..=5.5).contains(&r),
            "{}: PLM/KCM = {r}; the paper's band is 1.38..4.18",
            p.name
        );
        ratios.push(r);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!((2.5..=3.7).contains(&avg), "average {avg}; paper: 3.05");
}

/// Table 3: the Quintus-class software WAM is 3.5–11× slower, averaging
/// toward the paper's 7.85, with backtracking programs at the high end.
#[test]
fn quintus_class_ratio_band() {
    let mut ratios = Vec::new();
    let mut by_name = std::collections::HashMap::new();
    for p in programs::suite() {
        let k = run_program(&KcmEngine::new(), &p, Variant::Starred).expect("kcm");
        let opts = QueryOpts {
            enumerate_all: p.enumerate,
            ..QueryOpts::default()
        };
        let s = swam::model()
            .run(p.source, p.starred_query, &opts)
            .expect("swam");
        let r = s.stats.ms() / k.outcome.stats.ms();
        assert!((3.0..=13.0).contains(&r), "{}: SWAM/KCM = {r}", p.name);
        by_name.insert(p.name, r);
        ratios.push(r);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!((5.0..=9.0).contains(&avg), "average {avg}; paper: 7.85");
    // §4.2's observation: backtracking raises the ratio.
    assert!(
        by_name["hanoi"] > by_name["nrev1"],
        "deep recursion must cost the emulator more than deterministic nrev"
    );
}

/// Table 1: KCM/PLM instruction ratio near 1, byte ratio near 3, SPUR
/// expansion around an order of magnitude.
#[test]
fn static_size_ratios() {
    let mut kp_i = Vec::new();
    let mut sk_i = Vec::new();
    for p in programs::suite() {
        let (ki, kw) = kcm_static_size(&p).expect("kcm size");
        let ps = plm::static_size(p.source).expect("plm size");
        let ss = spur::static_size(p.source).expect("spur size");
        kp_i.push(ki as f64 / ps.instrs as f64);
        sk_i.push(ss.instrs as f64 / ki as f64);
        let kb = (kw * 8) as f64 / ps.bytes as f64;
        assert!((1.2..=4.8).contains(&kb), "{}: KCM/PLM bytes {kb}", p.name);
    }
    let kp = kp_i.iter().sum::<f64>() / kp_i.len() as f64;
    let sk = sk_i.iter().sum::<f64>() / sk_i.len() as f64;
    assert!(
        (0.75..=1.35).contains(&kp),
        "KCM/PLM instr avg {kp}; paper 1.10"
    );
    assert!(
        (9.0..=18.0).contains(&sk),
        "SPUR/KCM instr avg {sk}; paper 13.61"
    );
}

/// §3.2.4: aligned top-of-stack pointers collapse the plain direct-mapped
/// cache's hit ratio; KCM's sectioned cache is immune.
#[test]
fn cache_collision_experiment_shape() {
    let p = programs::program("queens").expect("queens");
    let sectioned = run_program(&KcmEngine::new(), &p, Variant::Starred)
        .expect("run")
        .outcome
        .stats;
    let aligned_engine = KcmEngine::with_config(MachineConfig {
        mem: MemConfig {
            sectioned_data_cache: false,
        },
        spread_stack_bases: false,
        ..MachineConfig::default()
    });
    let aligned = run_program(&aligned_engine, &p, Variant::Starred)
        .expect("run")
        .outcome
        .stats;
    let good = sectioned.mem.dcache_hit_ratio();
    let bad = aligned.mem.dcache_hit_ratio();
    assert!(
        good - bad > 0.1,
        "hit ratio must drop dramatically: sectioned {good} vs aligned {bad}"
    );
    assert!(aligned.cycles > sectioned.cycles);
}

/// §5 ablations: each specialised unit buys measurable cycles.
#[test]
fn every_specialised_unit_buys_cycles() {
    use kcm_repro::kcm_arch::CostModel;
    let p = programs::program("qs4").expect("qs4");
    let full = run_program(&KcmEngine::new(), &p, Variant::Starred)
        .expect("run")
        .outcome
        .stats
        .cycles;
    for (label, cfg) in [
        (
            "shallow backtracking",
            MachineConfig {
                shallow_backtracking: false,
                ..Default::default()
            },
        ),
        (
            "trail hardware",
            MachineConfig {
                cost: CostModel::default().without_trail_hardware(),
                ..Default::default()
            },
        ),
        (
            "MWAC",
            MachineConfig {
                cost: CostModel::default().without_mwac(),
                ..Default::default()
            },
        ),
    ] {
        let cycles = run_program(&KcmEngine::with_config(cfg), &p, Variant::Starred)
            .expect("run")
            .outcome
            .stats
            .cycles;
        assert!(cycles > full, "{label}: {cycles} vs full {full}");
    }
}
