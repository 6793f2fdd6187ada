//! Snapshot round-trip tests at the compiler boundary: a linked image
//! must survive save/load bit-for-bit, re-save byte-identically, and
//! classify damaged artifacts.

use kcm_arch::snapshot::{self, SnapshotError};
use kcm_arch::{CodeAddr, Instr, SymbolTable};
use kcm_compiler::{compile_program, compile_query, CodeImage};
use std::sync::Arc;

fn build(src: &str) -> (CodeImage, SymbolTable) {
    let clauses = kcm_prolog::read_program(src).unwrap();
    let mut symbols = SymbolTable::new();
    let image = compile_program(&clauses, &mut symbols).unwrap();
    (image, symbols)
}

fn assert_images_equal(a: &CodeImage, b: &CodeImage, syms_a: &SymbolTable, syms_b: &SymbolTable) {
    assert_eq!(a.words(), b.words(), "encoded words differ");
    assert_eq!(a.num_instrs(), b.num_instrs());
    for idx in 0..a.num_instrs() as u32 {
        assert_eq!(a.instr_at_index(idx), b.instr_at_index(idx), "instr {idx}");
        assert_eq!(a.addr_at_index(idx), b.addr_at_index(idx));
        assert_eq!(
            next_of(a, idx) as u32,
            next_of(b, idx) as u32,
            "fall-through {idx}"
        );
        match (a.switch_index(idx), b.switch_index(idx)) {
            (None, None) => {}
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.table_len(), sb.table_len());
                if let Instr::SwitchOnConstant { table, .. } = a.instr_at_index(idx) {
                    for (k, _) in table {
                        assert_eq!(sa.lookup(k.switch_key()), sb.lookup(k.switch_key()));
                    }
                }
            }
            other => panic!("side-table presence differs at {idx}: {other:?}"),
        }
    }
    assert_dispatch_sound(a);
    assert_dispatch_sound(b);
    assert!(a.sizes().eq(b.sizes()));
    assert!(a.warnings().eq(b.warnings()));
    assert_eq!(a.query_vars(), b.query_vars());
    assert_eq!(a.options(), b.options());
    let (base_a, static_a) = a.static_data();
    let (base_b, static_b) = b.static_data();
    assert_eq!(base_a, base_b);
    assert_eq!(static_a, static_b);
    // Disassembly is compared only for symbol-name fidelity: when several
    // entries share an address ($call/N), the label choice is arbitrary.
    assert_eq!(
        a.disassemble(syms_a).lines().count(),
        b.disassemble(syms_b).lines().count()
    );
    let mut ea: Vec<_> = a
        .entries()
        .map(|(n, ar, ad)| (n.to_owned(), ar, ad))
        .collect();
    let mut eb: Vec<_> = b
        .entries()
        .map(|(n, ar, ad)| (n.to_owned(), ar, ad))
        .collect();
    ea.sort();
    eb.sort();
    assert_eq!(ea, eb);
}

/// The packed resolved-dispatch entry of stream index `idx`.
fn next_of(image: &CodeImage, idx: u32) -> u64 {
    let span = image.span(idx);
    span.next[(idx - span.start) as usize]
}

/// Every resolved dispatch entry names the instruction at its
/// fall-through address (an unresolved one is looked up at run time).
fn assert_dispatch_sound(image: &CodeImage) {
    for idx in 0..image.num_instrs() as u32 {
        let instr = image.instr_at_index(idx);
        let packed = next_of(image, idx);
        let next = packed as u32;
        let at = image.addr_at_index(idx).unwrap();
        assert_eq!(
            next,
            at + instr.size_words() as u32,
            "fall-through of {idx}"
        );
        let resolved = (packed >> 32) as u32;
        if resolved != u32::MAX {
            assert_eq!(
                image.index_of(CodeAddr::new(next)),
                Some(resolved),
                "index of {next}"
            );
        }
    }
}

const PROGRAM: &str = "
    app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).
    p(1). p(2). p(a). p(b). p(c). p(d). p(e). p(f). p(g). p(h).
    edge(a, b). edge(a, c). edge(b, d). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    lit(f(g(1), [x, y, z])).
    q(X) :- p(X), \\+ X = 1.
";

#[test]
fn round_trip_restores_the_image() {
    let (image, symbols) = build(PROGRAM);
    let bytes = snapshot::save(&image, &symbols);
    let (loaded, loaded_syms) = snapshot::load(&bytes).expect("round trip");
    assert_images_equal(&image, &loaded, &symbols, &loaded_syms);
    assert_eq!(symbols.atom_count(), loaded_syms.atom_count());
    assert_eq!(symbols.functor_count(), loaded_syms.functor_count());
    for name in ["app", "edge", "path", "lit"] {
        assert_eq!(symbols.find_atom(name), loaded_syms.find_atom(name));
    }
}

#[test]
fn query_overlay_on_a_restored_program_reads_like_one_on_the_compiled_program() {
    let (image, symbols) = build(PROGRAM);
    let bytes = snapshot::save(&image, &symbols);
    let (loaded, loaded_syms) = snapshot::load(&bytes).expect("round trip");
    let goal = kcm_prolog::read_term("lit(T), app([1, 2], [3], L), path(a, Y)").unwrap();
    let (compiled, _) = compile_query(&Arc::new(image), &goal, &mut symbols.clone()).unwrap();
    let (restored, _) = compile_query(&loaded, &goal, &mut loaded_syms.clone()).unwrap();
    // Every read falls through to the base below the boundary: an
    // eagerly linked one on one side, a lazily decoded one on the other.
    assert!(compiled.base().is_some() && restored.base().is_some());
    assert_images_equal(&compiled, &restored, &symbols, &loaded_syms);
}

#[test]
fn resave_is_byte_identical() {
    let (image, symbols) = build(PROGRAM);
    let bytes = snapshot::save(&image, &symbols);
    let (loaded, loaded_syms) = snapshot::load(&bytes).unwrap();
    let again = snapshot::save(&loaded, &loaded_syms);
    assert_eq!(bytes, again, "save(load(save(x))) must be byte-identical");
}

#[test]
fn wide_fact_base_round_trips_with_side_tables() {
    let src: String = (0..64).map(|i| format!("f(k{i}, v{}).\n", i % 7)).collect();
    let (image, symbols) = build(&src);
    let bytes = snapshot::save(&image, &symbols);
    let (loaded, loaded_syms) = snapshot::load(&bytes).unwrap();
    assert_images_equal(&image, &loaded, &symbols, &loaded_syms);
    // The wide switch's hash index must be live after the restore.
    let mut indexed = 0;
    for idx in 0..loaded.num_instrs() as u32 {
        if loaded.switch_index(idx).is_some() {
            indexed += 1;
        }
    }
    assert!(indexed > 0, "expected a restored hash side table");
}

#[test]
fn truncation_is_classed() {
    let (image, symbols) = build("a. b :- a.");
    let bytes = snapshot::save(&image, &symbols);
    for cut in [3, 9, 20, bytes.len() / 2, bytes.len() - 1] {
        let err = snapshot::load(&bytes[..cut]).unwrap_err();
        assert_eq!(err, SnapshotError::Truncated, "cut at {cut}");
    }
}

#[test]
fn corruption_is_classed() {
    let (image, symbols) = build(PROGRAM);
    let bytes = snapshot::save(&image, &symbols);
    for at in [24, bytes.len() / 3, bytes.len() - 9] {
        let mut bad = bytes.clone();
        bad[at] ^= 0x40;
        match snapshot::load(&bad).unwrap_err() {
            SnapshotError::Corrupted(_) => {}
            other => panic!("flip at {at} classified as {other:?}"),
        }
    }
    // Flipping the stored checksum itself is also corruption.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 1;
    assert!(matches!(
        snapshot::load(&bad).unwrap_err(),
        SnapshotError::Corrupted(_)
    ));
}

#[test]
fn bad_magic_and_version_are_classed() {
    let (image, symbols) = build("a.");
    let bytes = snapshot::save(&image, &symbols);
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert_eq!(
        snapshot::load(&wrong_magic).unwrap_err(),
        SnapshotError::BadMagic
    );
    assert_eq!(
        snapshot::load(b"ELF\x7f").unwrap_err(),
        SnapshotError::BadMagic
    );
    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert_eq!(
        snapshot::load(&future).unwrap_err(),
        SnapshotError::VersionMismatch {
            found: 99,
            supported: snapshot::VERSION
        }
    );
}

#[test]
fn patched_image_round_trips() {
    // Assert a fact in place, snapshot the patched image, and check the
    // grown dispatch state survives (decoded table authoritative even
    // where the encoded site is stale).
    let src: String = (0..20)
        .map(|i| format!("p(k{i}, v{i}).\n", i = i))
        .collect();
    let clauses = kcm_prolog::read_program(&src).unwrap();
    let mut symbols = SymbolTable::new();
    let mut image = compile_program(&clauses, &mut symbols).unwrap();
    let pred = kcm_arch::PredId {
        name: "p".into(),
        arity: 2,
    };
    let fact = kcm_prolog::read_term("p(k_new, v_new)").unwrap();
    let fact = kcm_compiler::compile_fact(
        &pred,
        &fact,
        &mut symbols,
        &kcm_arch::CompileOptions::default(),
    )
    .unwrap()
    .expect("atomic fact qualifies");
    let entry = image.entry("p", 2).unwrap();
    assert_eq!(fact.key1, kcm_arch::Word::atom(symbols.atom("k_new")));
    assert_eq!(fact.key2, Some(kcm_arch::Word::atom(symbols.atom("v_new"))));
    image
        .assert_fact_clause(entry, fact.key1, fact.key2, &fact.code)
        .expect("in-place assert");

    let bytes = snapshot::save(&image, &symbols);
    let (loaded, loaded_syms) = snapshot::load(&bytes).unwrap();
    assert_images_equal(&image, &loaded, &symbols, &loaded_syms);
    let again = snapshot::save(&loaded, &loaded_syms);
    assert_eq!(bytes, again);
}

#[test]
fn empty_slice_is_truncated_not_magic() {
    assert_eq!(snapshot::load(b"").unwrap_err(), SnapshotError::Truncated);
    assert_eq!(
        snapshot::load(b"KCM").unwrap_err(),
        SnapshotError::Truncated
    );
}

#[test]
fn entries_expose_stub_trampolines() {
    let (image, _) = build("a.");
    // $call/1..8 share the trampoline stub; snapshot must preserve them.
    for n in 1..=8u8 {
        assert_eq!(image.entry("$call", n), Some(CodeAddr::new(4)));
    }
}
