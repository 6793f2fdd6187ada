//! Machine-level behavioural tests: error paths, the shallow-backtracking
//! state machine, zone growth, and the general-purpose instructions.

use kcm_arch::{CostModel, SymbolTable};
use kcm_cpu::{Machine, MachineConfig, MachineError, Outcome};

fn run(src: &str, query: &str, cfg: MachineConfig) -> Result<Outcome, MachineError> {
    let clauses = kcm_prolog::read_program(src).expect("parse");
    let mut symbols = SymbolTable::new();
    let image = kcm_compiler::compile_program(&clauses, &mut symbols).expect("compile");
    let goal = kcm_prolog::read_term(query).expect("parse query");
    let (qimage, vars) =
        kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols)
            .expect("link");
    let mut m = Machine::new(qimage, symbols, cfg);
    m.run_query(&vars, false)
}

fn run_default(src: &str, query: &str) -> Result<Outcome, MachineError> {
    run(src, query, MachineConfig::default())
}

#[test]
fn division_by_zero_is_a_fault() {
    let r = run_default("t.", "X is 1 // 0");
    assert!(matches!(r, Err(MachineError::ZeroDivisor)));
}

#[test]
fn arithmetic_on_unbound_is_instantiation_fault() {
    let r = run_default("t.", "X is Y + 1");
    assert!(matches!(r, Err(MachineError::Instantiation(_))));
}

#[test]
fn arithmetic_on_atoms_is_a_type_fault() {
    let r = run_default("p(X) :- X is foo + 1.", "p(X)");
    assert!(matches!(
        r,
        Err(MachineError::TypeFault(_)) | Err(MachineError::Instantiation(_))
    ));
}

#[test]
fn shallow_fail_leaves_no_choice_point() {
    // Head failure on the first clause resolves shallowly; the second
    // clause is the last, so no choice point is ever created.
    let src = "p(a, one). p(b, two).";
    let o = run_default(src, "p(b, X)").expect("run");
    assert!(o.success);
    // Indexed dispatch on the atom key goes straight to clause 2.
    assert_eq!(o.stats.choice_points, 0);
}

#[test]
fn var_call_uses_shallow_entries() {
    let src = "q(1). q(2). q(3). first(X) :- q(X).";
    let o = run_default(src, "first(V)").expect("run");
    assert!(o.success);
    // The var call enters the try chain; the first clause succeeds at its
    // neck with alternatives remaining → exactly one choice point.
    assert_eq!(o.stats.shallow_entries, 1);
    assert_eq!(o.stats.choice_points, 1);
}

#[test]
fn guard_failure_is_shallow_not_deep() {
    let src = "
        sign(X, neg) :- X < 0.
        sign(X, zero) :- X =:= 0.
        sign(X, pos) :- X > 0.
    ";
    let o = run_default(src, "sign(5, S)").expect("run");
    assert!(o.success);
    // Two guard failures resolved shallowly, zero choice points pushed
    // (the last alternative runs deterministically).
    assert_eq!(o.stats.shallow_fails, 2);
    assert_eq!(o.stats.choice_points, 0);
    assert_eq!(o.stats.deep_fails, 0);
}

#[test]
fn eager_mode_pushes_what_shallow_avoids() {
    let src = "
        sign(X, neg) :- X < 0.
        sign(X, zero) :- X =:= 0.
        sign(X, pos) :- X > 0.
        run([]).
        run([X|T]) :- sign(X, _), run(T).
    ";
    let q = "run([5, -3, 0, 2, 9, -1])";
    let shallow = run_default(src, q).expect("run");
    let eager = run(
        src,
        q,
        MachineConfig {
            shallow_backtracking: false,
            ..Default::default()
        },
    )
    .expect("run");
    // Shallow mode only materialises a choice point when a clause passes
    // its neck with alternatives remaining (the -3, 0 and -1 elements
    // here); eager mode pushes one at every try.
    assert!(
        shallow.stats.choice_points <= 3,
        "{}",
        shallow.stats.choice_points
    );
    assert!(
        eager.stats.choice_points >= 6,
        "{}",
        eager.stats.choice_points
    );
    assert!(eager.stats.cycles > shallow.stats.cycles);
}

#[test]
fn trail_entries_unwind_on_backtracking() {
    let src = "
        p(1). p(2).
        bind_then_fail(X) :- p(X), X =:= 2.
    ";
    let o = run_default(src, "bind_then_fail(X)").expect("run");
    assert!(o.success);
    assert_eq!(o.solutions[0][0].1.to_string(), "2");
    assert!(o.stats.trail_pushes >= 1);
}

#[test]
fn zone_growth_services_deep_heaps() {
    // Build a two-million-word structure: the global zone must grow past
    // its initial 1M-word limit via the §3.2.3 trap.
    // The anonymous variable sits inside the program so the 600k-cell
    // list is never decoded host-side.
    let src = "
        mk(0, []) :- !.
        mk(N, [N|T]) :- M is N - 1, mk(M, T).
        big :- mk(600000, _).
    ";
    let o = run_default(src, "big").expect("run");
    assert!(o.success);
    assert!(o.stats.zone_growths > 0, "heap must have grown");
}

#[test]
fn cycle_accounting_is_deterministic() {
    let src = "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).";
    let a = run_default(src, "app([1,2,3],[4],X)").expect("run");
    let b = run_default(src, "app([1,2,3],[4],X)").expect("run");
    assert_eq!(a.stats.cycles, b.stats.cycles);
    assert_eq!(a.stats.instructions, b.stats.instructions);
}

#[test]
fn cost_model_scales_cycles() {
    let src = "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).";
    let q = "app([1,2,3,4,5,6,7,8],[9],X)";
    let normal = run_default(src, q).expect("run");
    let taxed = run(
        src,
        q,
        MachineConfig {
            cost: CostModel {
                instr_overhead: 3,
                ..CostModel::default()
            },
            ..Default::default()
        },
    )
    .expect("run");
    assert_eq!(normal.stats.instructions, taxed.stats.instructions);
    assert_eq!(
        taxed.stats.cycles - normal.stats.cycles,
        3 * normal.stats.instructions
    );
}

#[test]
fn deep_backtracking_restores_argument_registers() {
    // After a deep fail the A registers must be restored from the choice
    // point: clause 2 of q must see the original argument.
    let src = "
        p(X, R) :- q(X, R).
        q(X, a) :- X =:= 1, fail_hard.
        q(X, b) :- X =:= 1.
        fail_hard :- 1 =:= 2.
    ";
    let o = run_default(src, "p(1, R)").expect("run");
    assert!(o.success);
    assert_eq!(o.solutions[0][0].1.to_string(), "b");
}

#[test]
fn cut_inside_chain_entered_clause() {
    // Cut in a clause reached through an indexed chain must discard the
    // chain's choice point.
    let src = "
        v(a, 1). v(a, 2). v(b, 3).
        pick(K, X) :- v(K, X), !.
    ";
    let o = run_default(src, "pick(a, X)").expect("run");
    assert_eq!(o.solutions.len(), 1);
    assert_eq!(o.solutions[0][0].1.to_string(), "1");
}

#[test]
fn unbound_query_variables_report_as_fresh() {
    let o = run_default("pair(_, _).", "pair(X, Y)").expect("run");
    assert!(o.success);
    let x = o.solutions[0][0].1.to_string();
    let y = o.solutions[0][1].1.to_string();
    assert!(x.starts_with("_G"), "{x}");
    assert!(y.starts_with("_G"), "{y}");
    assert_ne!(x, y, "distinct fresh variables");
}

#[test]
fn lifetime_stats_accumulate_across_runs() {
    let clauses = kcm_prolog::read_program("p(1).").expect("parse");
    let mut symbols = SymbolTable::new();
    let image = kcm_compiler::compile_program(&clauses, &mut symbols).expect("compile");
    let goal = kcm_prolog::read_term("p(X)").expect("parse");
    let (qimage, vars) =
        kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols)
            .expect("link");
    let mut m = Machine::new(qimage, symbols, MachineConfig::default());
    let first = m.run_query(&vars, false).expect("run");
    let second = m.run_query(&vars, false).expect("run");
    assert!(first.success && second.success);
    let life = m.lifetime_stats();
    assert!(life.cycles >= first.stats.cycles + second.stats.cycles);
}

#[test]
fn output_resets_between_runs() {
    let clauses = kcm_prolog::read_program("say :- write(hi), nl.").expect("parse");
    let mut symbols = SymbolTable::new();
    let image = kcm_compiler::compile_program(&clauses, &mut symbols).expect("compile");
    let goal = kcm_prolog::read_term("say").expect("parse");
    let (qimage, vars) =
        kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols)
            .expect("link");
    let mut m = Machine::new(qimage, symbols, MachineConfig::default());
    let a = m.run_query(&vars, false).expect("run");
    let b = m.run_query(&vars, false).expect("run");
    assert_eq!(a.output, "hi\n");
    assert_eq!(b.output, "hi\n");
}

#[test]
fn macrocode_monitor_keeps_a_window() {
    let clauses = kcm_prolog::read_program("p(1). p(2).").expect("parse");
    let mut symbols = SymbolTable::new();
    let image = kcm_compiler::compile_program(&clauses, &mut symbols).expect("compile");
    let goal = kcm_prolog::read_term("p(X)").expect("parse");
    let (qimage, vars) =
        kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols)
            .expect("link");
    let mut m = Machine::new(
        qimage,
        symbols,
        MachineConfig {
            trace_depth: 8,
            ..Default::default()
        },
    );
    m.run_query(&vars, false).expect("run");
    let trace = m.trace();
    assert!(trace.len() <= 8);
    assert!(!trace.is_empty());
    // The window ends with the query's success path.
    assert!(
        trace.last().expect("nonempty").contains("halt"),
        "{trace:?}"
    );
}

#[test]
fn tracing_off_keeps_no_window() {
    let clauses = kcm_prolog::read_program("p(1).").expect("parse");
    let mut symbols = SymbolTable::new();
    let image = kcm_compiler::compile_program(&clauses, &mut symbols).expect("compile");
    let goal = kcm_prolog::read_term("p(X)").expect("parse");
    let (qimage, vars) =
        kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols)
            .expect("link");
    let mut m = Machine::new(qimage, symbols, MachineConfig::default());
    m.run_query(&vars, false).expect("run");
    assert!(m.trace().is_empty());
}

#[test]
fn generic_float_arithmetic_beats_integer_multiply() {
    // §4.2: "floating arithmetic is significantly faster than integer
    // arithmetic on multiplications and divisions" — the FPU does 4-cycle
    // single-precision ops while the integer unit iterates.
    let src_int = "m(X, Y) :- Y is X * 7 * 3 * 2.";
    let src_float = "m(X, Y) :- Y is X * 7.0 * 3.0 * 2.0.";
    let int = run_default(src_int, "m(5, Y)").expect("run");
    let float = run_default(src_float, "m(5.0, Y)").expect("run");
    assert_eq!(int.solutions[0][0].1.to_string(), "210");
    assert_eq!(float.solutions[0][0].1.to_string(), "210.0");
    assert!(
        float.stats.cycles < int.stats.cycles,
        "float {} vs int {}",
        float.stats.cycles,
        int.stats.cycles
    );
}

#[test]
fn term_io_roundtrips_mixed_terms() {
    let o = run_default("eq(X, X).", "eq(T, f([a, 1, 2.5, g(h)], [x|y], -3))").expect("run");
    assert_eq!(
        o.solutions[0][0].1.to_string(),
        "f([a,1,2.5,g(h)],[x|y],-3)"
    );
}

#[test]
fn prefetch_statistics_accumulate() {
    let o = run_default(
        "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).",
        "app([1,2,3,4],[5],X)",
    )
    .expect("run");
    let pf = o.stats.prefetch;
    assert_eq!(pf.issued, o.stats.instructions);
    assert!(pf.sequential > 0, "straight-line stretches stream");
    assert!(pf.breaks > 0, "calls break the pipeline");
    assert_eq!(pf.sequential + pf.breaks + 1, pf.issued);
}

#[test]
fn arg_out_of_range_fails_not_faults() {
    let o = run_default("t.", "arg(5, f(a, b), X)").expect("run");
    assert!(!o.success);
    let o = run_default("t.", "arg(0, f(a, b), X)").expect("run");
    assert!(!o.success);
}

#[test]
fn functor_constructs_fresh_cells() {
    let o = run_default("t.", "functor(T, f, 3), arg(1, T, A), arg(3, T, C)").expect("run");
    assert!(o.success);
    let t = o.solutions[0]
        .iter()
        .find(|(n, _)| n == "T")
        .expect("T")
        .1
        .to_string();
    assert!(t.starts_with("f(_G"), "{t}");
}

#[test]
fn univ_list_direction_and_back() {
    let o = run_default("t.", "f(1, g(2)) =.. L, T =.. L").expect("run");
    assert!(o.success);
    let l = o.solutions[0]
        .iter()
        .find(|(n, _)| n == "L")
        .expect("L")
        .1
        .to_string();
    let t = o.solutions[0]
        .iter()
        .find(|(n, _)| n == "T")
        .expect("T")
        .1
        .to_string();
    assert_eq!(l, "[f,1,g(2)]");
    assert_eq!(t, "f(1,g(2))");
}

#[test]
fn compare_orders_are_consistent_with_sort() {
    // msort-style pairwise checks through compare/3.
    let o = run_default(
        "t.",
        "compare(A, 1, 2), compare(B, b, a), compare(C, f(1), f(1)), compare(D, g(x), f(x, y))",
    )
    .expect("run");
    let get = |n: &str| {
        o.solutions[0]
            .iter()
            .find(|(m, _)| m == n)
            .expect("var")
            .1
            .to_string()
    };
    assert_eq!(get("A"), "<");
    assert_eq!(get("B"), ">");
    assert_eq!(get("C"), "=");
    // Arity dominates name in the standard order: g/1 < f/2.
    assert_eq!(get("D"), "<");
}

#[test]
fn native_load_store_with_post_addressing() {
    // A native program that stores 3 tagged integers to the global zone
    // with post-increment addressing, then reads them back pre-indexed —
    // the §3.1.2 address modes.
    let src = "
        main:
            load_const r1, ptr(global, 64)   % base pointer
            load_const r2, 11
            store r2, r1, r1, 1, post        % mem[base] := 11; base += 1
            load_const r2, 22
            store r2, r1, r1, 1, post
            load_const r2, 33
            store r2, r1, r1, 1, post
            load_const r1, ptr(global, 64)
            load  r3, r1, r4, 1, post        % r3 := mem[base]
            load  r5, r4, r4, 1, post        % r5 := mem[base+1]
            load  r6, r4, r4, 1, post        % r6 := mem[base+2]
            alu add r3, r3, r5
            alu add r3, r3, r6
            put_value r3, r0
            escape write
            halt true
    ";
    let mut symbols = SymbolTable::new();
    let items = kcm_compiler::parse_kasm(src, &mut symbols).expect("kasm");
    let image = kcm_compiler::Linker::link_items(&items, &mut symbols).expect("link");
    let entry = image.entry("main", 0).expect("entry");
    let mut m = Machine::new(image, symbols, MachineConfig::default());
    let o = m.run(entry).expect("run");
    assert!(o.success);
    assert_eq!(o.output, "66");
}

#[test]
fn zone_check_rejects_native_store_to_protected_static() {
    // The static zone is write-protected by the loader: a native store
    // into it must trap (§3.2.3's write protection at the logical level).
    let src = "
        main:
            load_const r1, ptr(static, 300)
            load_const r2, 1
            store r2, r1, r1, 0, post
            halt true
    ";
    let mut symbols = SymbolTable::new();
    let items = kcm_compiler::parse_kasm(src, &mut symbols).expect("kasm");
    let image = kcm_compiler::Linker::link_items(&items, &mut symbols).expect("link");
    let entry = image.entry("main", 0).expect("entry");
    let mut m = Machine::new(image, symbols, MachineConfig::default());
    let r = m.run(entry);
    assert!(
        matches!(r, Err(MachineError::Mem(_))),
        "expected a zone trap, got {r:?}"
    );
}

#[test]
fn native_tvm_and_move2() {
    // TVM swap twice is the identity; move2 exchanges two registers in
    // one instruction (figure 5's four-address datapath).
    let src = "
        main:
            load_const r1, 41
            load_const r2, 1
            tvm_swap   r3, r1          % tag/value swapped
            tvm_swap   r3, r3          % and back
            move2      r3, r4, r2, r5  % r4 := r3, r5 := r2
            alu add    r6, r4, r5
            put_value  r6, r0
            escape write
            halt true
    ";
    let mut symbols = SymbolTable::new();
    let items = kcm_compiler::parse_kasm(src, &mut symbols).expect("kasm");
    let image = kcm_compiler::Linker::link_items(&items, &mut symbols).expect("link");
    let entry = image.entry("main", 0).expect("entry");
    let mut m = Machine::new(image, symbols, MachineConfig::default());
    let o = m.run(entry).expect("run");
    assert_eq!(o.output, "42");
}

#[test]
fn native_integer_division_and_modulo() {
    let src = "
        main:
            load_const r1, 17
            load_const r2, 5
            alu div    r3, r1, r2
            alu mod    r4, r1, r2
            alu mul    r5, r3, r2
            alu add    r5, r5, r4      % (17//5)*5 + 17 mod 5 = 17
            put_value  r5, r0
            escape write
            halt true
    ";
    let mut symbols = SymbolTable::new();
    let items = kcm_compiler::parse_kasm(src, &mut symbols).expect("kasm");
    let image = kcm_compiler::Linker::link_items(&items, &mut symbols).expect("link");
    let entry = image.entry("main", 0).expect("entry");
    let mut m = Machine::new(image, symbols, MachineConfig::default());
    let o = m.run(entry).expect("run");
    assert_eq!(o.output, "17");
}

#[test]
fn prolog_level_profile_attributes_cycles() {
    let clauses = kcm_prolog::read_program(
        "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).
         nrev([],[]). nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).",
    )
    .expect("parse");
    let mut symbols = SymbolTable::new();
    let image = kcm_compiler::compile_program(&clauses, &mut symbols).expect("compile");
    let goal =
        kcm_prolog::read_term("nrev([1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20], R)")
            .expect("parse");
    let (qimage, vars) =
        kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols)
            .expect("link");
    let mut m = Machine::new(
        qimage,
        symbols,
        MachineConfig {
            profile: true,
            ..Default::default()
        },
    );
    let o = m.run_query(&vars, false).expect("run");
    let profile = m.profile();
    let total: u64 = profile.iter().map(|(_, c)| c).sum();
    assert_eq!(total, o.stats.cycles, "attribution must be complete");
    // append dominates naive reverse (quadratic vs linear call counts).
    let app = profile
        .iter()
        .find(|(n, _)| n == "app/3")
        .expect("app profiled")
        .1;
    let nrev = profile
        .iter()
        .find(|(n, _)| n == "nrev/2")
        .expect("nrev profiled")
        .1;
    assert!(app > nrev, "app {app} vs nrev {nrev}");
    assert_eq!(profile[0].0, "app/3", "sorted by cost");
}

#[test]
fn native_direct_addressing() {
    // §3.1.2's direct address mode: absolute-address store and load.
    let src = "
        main:
            load_const   r1, 123
            store_direct r1, ptr(global, 80)
            load_direct  r2, ptr(global, 80)
            put_value    r2, r0
            escape write
            halt true
    ";
    let mut symbols = SymbolTable::new();
    let items = kcm_compiler::parse_kasm(src, &mut symbols).expect("kasm");
    let image = kcm_compiler::Linker::link_items(&items, &mut symbols).expect("link");
    let entry = image.entry("main", 0).expect("entry");
    let mut m = Machine::new(image, symbols, MachineConfig::default());
    let o = m.run(entry).expect("run");
    assert_eq!(o.output, "123");
}

// ---------------------------------------------------------- observability

/// Builds a machine for `query` against `src` without running it.
fn build(src: &str, query: &str, cfg: MachineConfig) -> (Machine, Vec<String>) {
    let clauses = kcm_prolog::read_program(src).expect("parse");
    let mut symbols = SymbolTable::new();
    let image = kcm_compiler::compile_program(&clauses, &mut symbols).expect("compile");
    let goal = kcm_prolog::read_term(query).expect("parse query");
    let (qimage, vars) =
        kcm_compiler::compile_query(&std::sync::Arc::new(image), &goal, &mut symbols)
            .expect("link");
    (Machine::new(qimage, symbols, cfg), vars)
}

const NREV: &str = "app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).
                    nrev([],[]). nrev([H|T],R) :- nrev(T,RT), app(RT,[H],R).";
const NREV_Q: &str = "nrev([1,2,3,4,5,6,7,8], R)";

#[test]
fn reused_machine_reports_per_run_deltas_not_cumulative_stats() {
    // Regression: `Machine::run` used to copy the cumulative mem/prefetch
    // counters into every run's stats, so a second run on the same
    // machine double-counted the first run's cache traffic.
    let (mut m, vars) = build(NREV, NREV_Q, MachineConfig::default());
    let first = m.run_query(&vars, false).expect("first run");
    let second = m.run_query(&vars, false).expect("second run");
    assert!(first.success && second.success);
    // The second run executes the identical instruction stream, so the
    // execution-side counters must match exactly — not double.
    assert_eq!(second.stats.instructions, first.stats.instructions);
    assert_eq!(second.stats.inferences, first.stats.inferences);
    assert_eq!(second.stats.choice_points, first.stats.choice_points);
    assert_eq!(second.stats.trail_pushes, first.stats.trail_pushes);
    assert_eq!(second.stats.deref_links, first.stats.deref_links);
    assert_eq!(second.stats.prefetch.issued, first.stats.prefetch.issued);
    // Cache *accesses* are per-run too; only the hit/miss split may shift
    // because the second run starts with warm caches.
    let accesses = |o: &Outcome| o.stats.mem.dcache_hits + o.stats.mem.dcache_misses;
    assert_eq!(accesses(&second), accesses(&first));
    // Lifetime view still accumulates across both runs.
    let life = m.lifetime_stats();
    assert_eq!(
        life.instructions,
        first.stats.instructions + second.stats.instructions
    );
    assert_eq!(
        life.mem.dcache_hits + life.mem.dcache_misses,
        accesses(&first) + accesses(&second)
    );
}

#[test]
fn reused_machine_reports_per_run_profile_deltas() {
    let (mut m, vars) = build(NREV, NREV_Q, MachineConfig::default());
    let first = m.run_query(&vars, false).expect("first run");
    let second = m.run_query(&vars, false).expect("second run");
    assert_eq!(
        second.profile.retired_total(),
        first.profile.retired_total()
    );
    assert_eq!(second.profile.mwac, first.profile.mwac);
    assert_eq!(second.profile.deref_hist, first.profile.deref_hist);
    assert_eq!(
        m.lifetime_profile().retired_total(),
        first.profile.retired_total() + second.profile.retired_total()
    );
}

#[test]
fn profile_accounts_every_retired_instruction() {
    let (mut m, vars) = build(NREV, NREV_Q, MachineConfig::default());
    let o = m.run_query(&vars, false).expect("run");
    assert_eq!(o.profile.retired_total(), o.stats.instructions);
    assert_eq!(o.profile.cycles_total(), o.stats.cycles);
    // nrev is all list traffic: the MWAC must have dispatched, deref
    // chains must have been observed, bindings must have been checked.
    assert!(o.profile.trail_checks > 0);
    assert!(o.profile.deref_chains_total() > 0);
    use kcm_cpu::InstrClass;
    assert!(o.profile.class(InstrClass::Get).retired > 0);
    assert!(o.profile.class(InstrClass::Control).retired > 0);
}

#[test]
fn profile_counts_backtrack_kinds() {
    // A var call over a 3-clause predicate with failures forces both a
    // materialised choice point and deep backtracks.
    let src = "q(1). q(2). q(3). pick(X) :- q(X), X > 2.";
    let o = run_default(src, "pick(V)").expect("run");
    assert!(o.success);
    assert!(
        o.profile.deep_backtracks > 0,
        "deep {}",
        o.profile.deep_backtracks
    );
    assert_eq!(
        o.profile.shallow_backtracks + o.profile.deep_backtracks,
        o.stats.shallow_fails + o.stats.deep_fails
    );
    assert_eq!(o.profile.trail_pushes, o.stats.trail_pushes);
}

#[test]
fn event_tracer_records_when_enabled_and_stays_empty_when_off() {
    let src = "q(1). q(2). q(3). pick(X) :- q(X), X > 2.";
    let (mut m, vars) = build(
        src,
        "pick(V)",
        MachineConfig {
            event_trace_depth: 64,
            ..Default::default()
        },
    );
    let o = m.run_query(&vars, false).expect("run");
    assert!(o.success);
    let events = m.trace_events();
    assert!(!events.is_empty());
    assert!(events.len() <= 64);
    use kcm_cpu::TraceEvent;
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::DeepBacktrack { .. })));
    // Same run with the tracer off: no events, same outcome.
    let (mut m2, vars2) = build(src, "pick(V)", MachineConfig::default());
    let o2 = m2.run_query(&vars2, false).expect("run");
    assert!(m2.trace_events().is_empty());
    assert_eq!(o2.solutions, o.solutions);
}

#[test]
fn unimplemented_instr_is_not_a_type_fault() {
    // All current opcodes are implemented, so the variant is only
    // constructible directly — pin down its shape and rendering so
    // callers can rely on distinguishing machine gaps from type faults.
    let e = MachineError::UnimplementedInstr(Box::new(kcm_arch::isa::Instr::Proceed));
    let text = e.to_string();
    assert!(text.contains("unimplemented instruction"), "{text}");
    assert!(text.contains("proceed"), "{text}");
    assert!(!matches!(e, MachineError::TypeFault(_)));
}
