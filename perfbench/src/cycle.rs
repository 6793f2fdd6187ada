//! `inproc_cycle`: the 14-program PLM suite (paper §4) run round-robin
//! through `Kcm::query` on the cycle-accurate tier, one thread, no
//! server. The only workload on the simulator's cost model and memory
//! hierarchy (kcm-cpu, kcm-mem), which serving never touches.

use crate::trace::{self, Tracer};
use crate::{alloc, calib, procfs, Report, Rng};
use kcm_suite::programs::{self, BenchProgram};
use kcm_system::{Kcm, Machine, Outcome, QueryOpts, Tier};
use std::time::{Duration, Instant};

fn opts(p: &BenchProgram) -> QueryOpts {
    QueryOpts {
        enumerate_all: p.enumerate,
        tier: Tier::Cycle,
        ..QueryOpts::default()
    }
}

/// Loads every suite program into its own `Kcm` and runs one pass: the
/// cold start this workload's users pay.
fn load_and_first_pass(suite: &[BenchProgram]) -> Result<(Vec<Kcm>, Vec<Outcome>), String> {
    let mut systems = Vec::with_capacity(suite.len());
    let mut first = Vec::with_capacity(suite.len());
    for p in suite {
        let mut kcm = Kcm::new();
        kcm.load(p.source)
            .map_err(|e| format!("{}: load: {e}", p.name))?;
        first.push(
            kcm.query(p.query, &opts(p))
                .map_err(|e| format!("{}: query: {e}", p.name))?,
        );
        systems.push(kcm);
    }
    Ok((systems, first))
}

/// Checks the first pass: each program succeeds, and the native tier
/// (an independent path through the same image) gives the same
/// solutions, output and inference count. A broken tier publishes no
/// numbers.
fn check_first_pass(
    suite: &[BenchProgram],
    systems: &mut [Kcm],
    first: &[Outcome],
) -> Result<(), String> {
    for ((p, kcm), o) in suite.iter().zip(systems).zip(first) {
        let native = kcm
            .query(p.query, &opts(p).with_tier(Tier::Native))
            .map_err(|e| format!("{}: native query: {e}", p.name))?;
        if !o.success
            || o.stats.cycles == 0
            || o.solutions != native.solutions
            || o.output != native.output
            || o.stats.inferences != native.stats.inferences
        {
            return Err(format!(
                "{}: cycle-tier answer disagrees with the native tier",
                p.name
            ));
        }
    }
    Ok(())
}

/// Whether a later run of a suite query reproduced the reference one:
/// same answers, output and every simulated counter.
fn same(o: &Outcome, reference: &Outcome) -> bool {
    o.success == reference.success
        && o.solutions == reference.solutions
        && o.output == reference.output
        && o.stats == reference.stats
}

/// One cold set-up, timed from before the first `Kcm::load` to the end
/// of the first correct pass.
pub fn setup(_seed: u64) -> Result<f64, String> {
    let suite = programs::suite();
    let t0 = Instant::now();
    let (mut systems, first) = load_and_first_pass(&suite)?;
    let setup_s = t0.elapsed().as_secs_f64();
    check_first_pass(&suite, &mut systems, &first)?;
    Ok(setup_s)
}

/// One measured window of `seconds`, starting at a seeded program offset
/// and cycling the suite in whole passes.
pub fn measure(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let suite = programs::suite();
    let n = suite.len();
    let (mut systems, reference) = load_and_first_pass(&suite)?;
    check_first_pass(&suite, &mut systems, &reference)?;
    let mut layers = fidelity_pins(&reference);
    if traced {
        layers.extend(mirror_load(&suite)?);
    }
    let mut i = Rng::new(seed).below(n as u64) as usize;
    // One untimed pass settles lazy state (allocator pools, page cache).
    for _ in 0..n {
        let p = &suite[i % n];
        systems[i % n]
            .query(p.query, &opts(p))
            .map_err(|e| format!("{}: warm-up: {e}", p.name))?;
        i += 1;
    }

    let mut host = calib::Reference::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 1);
    let mut report = Report::default();
    let usage0 = procfs::usage();
    let alloc0 = alloc::total();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    // Whole passes only, so every window runs the same program mix.
    while Instant::now() < deadline || !i.is_multiple_of(n) {
        host.tick(epoch);
        let k = i % n;
        i += 1;
        let p = &suite[k];
        report.lat_at_ns.push(epoch.elapsed().as_nanos() as u64);
        let (outcome, lat_ns) = if traced {
            traced_query(&mut tracer, &mut systems[k], p)
        } else {
            let t0 = Instant::now();
            let outcome = systems[k].query(p.query, &opts(p));
            (outcome, t0.elapsed().as_nanos() as u64)
        };
        report.lat_ns.push(lat_ns);
        report.lat_kind.push(k as u64);
        report.reads += 1;
        match outcome {
            Ok(o) if same(&o, &reference[k]) => report.instr += o.stats.instructions,
            _ => report.failed += 1,
        }
    }
    report.window_s = epoch.elapsed().as_secs_f64();
    report.usage = procfs::usage().since(&usage0);
    report.alloc_bytes = alloc::total() - alloc0;
    report.ref_at_ns = host.at_ns;
    report.ref_unit_ns = host.unit_ns;
    report.ref_cpu_ns = host.cpu_ns;
    report.ref_wall_ns = host.wall_ns;
    if traced {
        layers.extend(traced_layers(&tracer.spans));
        trace::write_spans(
            &crate::spans_path(crate::Workload::InprocCycle, seed),
            &tracer.spans,
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    }
    report.layers = layers;
    Ok(report)
}

/// The simulator's exact counters for one pass of the suite: a host-speed
/// change must leave every one of them identical.
fn fidelity_pins(pass: &[Outcome]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&Outcome) -> u64| pass.iter().map(f).sum::<u64>() as f64;
    let dhits = sum(&|o| o.stats.mem.dcache_hits);
    let dmiss = sum(&|o| o.stats.mem.dcache_misses);
    let ihits = sum(&|o| o.stats.mem.icache_hits);
    let imiss = sum(&|o| o.stats.mem.icache_misses);
    vec![
        ("kcm_cpu.instr_per_pass", sum(&|o| o.stats.instructions)),
        ("kcm_cpu.sim_cycles_per_pass", sum(&|o| o.stats.cycles)),
        ("kcm_mem.dcache_hit_ratio", dhits / (dhits + dmiss)),
        ("kcm_mem.icache_hit_ratio", ihits / (ihits + imiss)),
        (
            "kcm_mem.page_faults_per_pass",
            sum(&|o| o.stats.mem.data_page_faults + o.stats.mem.code_page_faults),
        ),
    ]
}

/// Times the set-up's compile step on its own: parse and compile every
/// suite program (what `Kcm::load` does for source).
fn mirror_load(suite: &[BenchProgram]) -> Result<Vec<(&'static str, f64)>, String> {
    let t0 = Instant::now();
    for p in suite {
        let clauses = kcm_prolog::read_program(p.source).map_err(|e| e.to_string())?;
        let mut symbols = kcm_arch::SymbolTable::new();
        kcm_compiler::compile_program(&clauses, &mut symbols).map_err(|e| e.to_string())?;
    }
    Ok(vec![(
        "kcm_compiler.compile_program_ms",
        t0.elapsed().as_secs_f64() * 1e3,
    )])
}

/// One suite query with spans: the real `Kcm::query`, then its parts
/// replayed in-process (parse, symbol-table clone, query compile, machine
/// build, run), each replaying the opaque call. Returns the outcome and
/// the latency of the real call alone.
fn traced_query(
    tracer: &mut Tracer,
    kcm: &mut Kcm,
    p: &BenchProgram,
) -> (Result<Outcome, kcm_system::KcmError>, u64) {
    let root = tracer.request("perfbench.request");
    let opts = opts(p);
    let t0 = Instant::now();
    let (outcome, query_id) =
        tracer.span(&root, "kcm_system.query", 0, || kcm.query(p.query, &opts));
    let lat_ns = t0.elapsed().as_nanos() as u64;
    let checked = replay_query(tracer, &root, query_id, kcm, p, outcome);
    tracer.end(root);
    (checked, lat_ns)
}

/// Replays `Kcm::query`'s parts under `root`; the outcome stands only if
/// the replay reproduced it.
fn replay_query(
    tracer: &mut Tracer,
    root: &trace::Root,
    query_id: u64,
    kcm: &Kcm,
    p: &BenchProgram,
    outcome: Result<Outcome, kcm_system::KcmError>,
) -> Result<Outcome, kcm_system::KcmError> {
    let opts = opts(p);
    let image = kcm.image().expect("a loaded suite program");
    let (goal, _) = tracer.span(root, "kcm_prolog.read_term", query_id, || {
        kcm_prolog::read_term(p.query)
    });
    let goal = goal?;
    let (mut symbols, _) = tracer.span(root, "kcm_arch.symbols_clone", query_id, || {
        kcm.symbols().clone()
    });
    let (compiled, _) = tracer.span(root, "kcm_compiler.compile_query", query_id, || {
        kcm_compiler::compile_query(image, &goal, &mut symbols)
    });
    let (qimage, vars) = compiled?;
    let mut config = kcm.config().clone();
    opts.apply(&mut config);
    let (mut machine, _) = tracer.span(root, "kcm_cpu.build", query_id, || {
        Machine::new(qimage, symbols, config)
    });
    let (replayed, _) = tracer.span(root, "kcm_cpu.run", query_id, || {
        machine.run_query(&vars, opts.enumerate_all)
    });
    let outcome = outcome?;
    match replayed {
        Ok(r) if same(&r, &outcome) => Ok(outcome),
        _ => Err(kcm_system::KcmError::Harness(format!(
            "{}: replayed pipeline disagrees with Kcm::query",
            p.name
        ))),
    }
}

/// Per-layer figures from the traced window's spans.
fn traced_layers(spans: &[trace::Span]) -> Vec<(&'static str, f64)> {
    let d = trace::derive(spans, "perfbench.request");
    let mut out = vec![
        ("kcm_system.query_us", d.mean("kcm_system.query")),
        ("kcm_prolog.read_term_us", d.mean("kcm_prolog.read_term")),
        (
            "kcm_arch.symbols_clone_us",
            d.mean("kcm_arch.symbols_clone"),
        ),
        (
            "kcm_compiler.compile_query_us",
            d.mean("kcm_compiler.compile_query"),
        ),
        (
            "kcm_compiler.compile_query_alloc_kb",
            d.alloc_kb("kcm_compiler.compile_query"),
        ),
        ("kcm_cpu.build_us", d.mean("kcm_cpu.build")),
        ("kcm_cpu.run_us", d.mean("kcm_cpu.run")),
        (
            "kcm_system.unattributed_us",
            d.mean_self("kcm_system.query"),
        ),
    ];
    out.extend(d.self_us);
    out
}
