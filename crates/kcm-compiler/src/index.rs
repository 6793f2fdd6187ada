//! First-argument indexing.
//!
//! KCM dispatches on the dereferenced type of A1 through the MWAC
//! (`switch_on_term`) and on constants/functors through table switches —
//! the multi-word instructions of §4.1. Indexing both avoids choice points
//! entirely when a single clause can match (the deterministic case §3.1.5
//! aims at) and narrows try/retry/trust chains otherwise. The paper
//! attributes `query`'s best-in-table 10.17× ratio over Quintus to "the
//! efficiency of KCM indexing" (§4.2).
//!
//! Wide all-fact predicates additionally get *depth-2* indexing
//! (B-Prolog's matching-tree shape): under each first-argument constant
//! bucket, a second `switch_on_term`/`switch_on_constant` pair dispatches
//! on A2, so a fully keyed `fact(K1, K2)` point lookup reaches its clause
//! without any try/retry/trust chain.

use crate::asm::AsmItem;
use crate::clause::compile_clause;
use crate::ir::Predicate;
use crate::CompileError;
use kcm_arch::{FunctorId, Reg, SymbolTable, Word};
use kcm_prolog::Term;
use std::collections::HashMap;

/// The register the first-level switch dispatches on (A1).
const A1: Reg = Reg::new(0);
/// The register depth-2 fact indexing dispatches on (A2).
const A2: Reg = Reg::new(1);

/// Minimum clause count before a fact predicate gets depth-2 indexing.
/// Small predicates gain nothing from the extra switch; wide flat fact
/// bases (the `fact(K1, K2)` point-lookup shape) are the target.
const DEPTH2_MIN_CLAUSES: usize = 8;

/// The indexing key of a clause: the shape of its first head argument.
#[derive(Debug, Clone, PartialEq)]
enum Key {
    Var,
    Const(Word),
    List,
    Struct(FunctorId),
}

fn key_of(first_arg: Option<&Term>, symbols: &mut SymbolTable) -> Key {
    match first_arg {
        None | Some(Term::Var(_)) => Key::Var,
        Some(Term::Struct(n, args)) if n == "." && args.len() == 2 => Key::List,
        Some(Term::Struct(n, args)) => Key::Struct(symbols.functor(n, args.len() as u8)),
        Some(atomic) => constant_key(atomic, symbols).map_or(Key::Var, Key::Const),
    }
}

/// The switch key of an atomic argument (`None` for a variable or a
/// compound): the one rule every constant switch table, and the in-place
/// fact patch, keys clauses by.
pub(crate) fn constant_key(t: &Term, symbols: &mut SymbolTable) -> Option<Word> {
    match t {
        Term::Int(v) => Some(Word::int(*v)),
        Term::Float(v) => Some(Word::float(*v)),
        Term::Atom(n) if n == "[]" => Some(Word::nil()),
        Term::Atom(n) => Some(Word::atom(symbols.atom(n))),
        Term::Var(_) | Term::Struct(..) => None,
    }
}

/// Merges two disjoint ascending index lists, preserving clause order.
fn merge_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Label allocator shared across one predicate's code.
struct Labels {
    next: usize,
}

impl Labels {
    fn fresh(&mut self) -> usize {
        let l = self.next;
        self.next += 1;
        l
    }
}

/// Compiles a whole predicate: indexing prelude plus clause code.
///
/// Layout for a multi-clause predicate with useful first-argument keys:
///
/// ```text
/// entry:  switch_on_term Lvar, Lconst, Llist, Lstruct
///         <chain blocks: try/retry/trust over clause labels>
/// Lvar:   try_me_else La2
/// Lc1:    <clause 1>
/// La2:    retry_me_else La3
/// Lc2:    <clause 2>
/// La3:    trust_me
/// Lc3:    <clause 3>
/// ```
///
/// A bucket with a single candidate jumps straight to the clause code —
/// the deterministic entry that never creates a choice point.
///
/// # Errors
///
/// Propagates clause-compilation errors.
pub fn compile_predicate(
    pred: &Predicate,
    symbols: &mut SymbolTable,
    statics: &mut crate::link::StaticImage,
    options: &crate::CompileOptions,
) -> Result<Vec<AsmItem>, CompileError> {
    let n = pred.clauses.len();
    if n == 1 {
        return compile_clause(&pred.id, &pred.clauses[0], false, symbols, statics, options);
    }
    let mut labels = Labels { next: 0 };
    let clause_label: Vec<usize> = (0..n).map(|_| labels.fresh()).collect();
    let var_chain_label = labels.fresh();

    let keys: Vec<Key> = pred
        .clauses
        .iter()
        .map(|c| key_of(c.head_args().first(), symbols))
        .collect();
    let indexable = pred.id.arity >= 1 && keys.iter().any(|k| *k != Key::Var);

    let mut items: Vec<AsmItem> = Vec::new();
    // Chain cache: candidate list → label (deduplicates identical chains).
    let mut chain_blocks: Vec<AsmItem> = Vec::new();
    let mut chain_cache: HashMap<Vec<usize>, usize> = HashMap::new();
    let all: Vec<usize> = (0..n).collect();

    let chain_target = |cands: &[usize],
                        labels: &mut Labels,
                        chain_blocks: &mut Vec<AsmItem>,
                        chain_cache: &mut HashMap<Vec<usize>, usize>|
     -> Option<usize> {
        if cands.is_empty() {
            return None;
        }
        if cands.len() == 1 {
            return Some(clause_label[cands[0]]);
        }
        if cands == all.as_slice() {
            return Some(var_chain_label);
        }
        if let Some(&l) = chain_cache.get(cands) {
            return Some(l);
        }
        let l = labels.fresh();
        chain_cache.insert(cands.to_vec(), l);
        chain_blocks.push(AsmItem::Label(l));
        for (pos, &ci) in cands.iter().enumerate() {
            let target = clause_label[ci];
            chain_blocks.push(if pos == 0 {
                AsmItem::TryL(target)
            } else if pos + 1 == cands.len() {
                AsmItem::TrustL(target)
            } else {
                AsmItem::RetryL(target)
            });
        }
        Some(l)
    };

    if indexable {
        let bucket = |pred_match: &dyn Fn(&Key) -> bool| -> Vec<usize> {
            (0..n)
                .filter(|&i| matches!(keys[i], Key::Var) || pred_match(&keys[i]))
                .collect()
        };
        let const_bucket = bucket(&|k| matches!(k, Key::Const(_)));
        let list_bucket = bucket(&|k| matches!(k, Key::List));
        let struct_bucket = bucket(&|k| matches!(k, Key::Struct(_)));
        let var_only: Vec<usize> = (0..n).filter(|&i| keys[i] == Key::Var).collect();

        // Depth-2 eligibility: a wide all-fact predicate of arity ≥ 2.
        // `keys2[i]` is clause i's second-argument constant, when it has
        // one — the matching-tree dimension the second-level switch uses.
        let keys2: Option<Vec<Option<Word>>> = if options.depth2_facts
            && pred.id.arity >= 2
            && n >= DEPTH2_MIN_CLAUSES
            && pred.clauses.iter().all(|c| c.goals.is_empty())
        {
            Some(
                pred.clauses
                    .iter()
                    .map(|c| match key_of(c.head_args().get(1), symbols) {
                        Key::Const(w) => Some(w),
                        _ => None,
                    })
                    .collect(),
            )
        } else {
            None
        };

        // Constant bucket: a key table when several distinct constants
        // exist, a plain chain otherwise. One pass groups clauses by key
        // (first-seen order) so million-fact predicates index in O(n).
        let const_groups: Vec<(Word, Vec<usize>)> = {
            let mut groups: Vec<(Word, Vec<usize>)> = Vec::new();
            let mut group_of: HashMap<u64, usize> = HashMap::new();
            for (i, k) in keys.iter().enumerate() {
                if let Key::Const(w) = k {
                    let gi = *group_of.entry(w.switch_key()).or_insert_with(|| {
                        groups.push((*w, Vec::new()));
                        groups.len() - 1
                    });
                    groups[gi].1.push(i);
                }
            }
            groups
        };
        let on_const = if const_groups.len() >= 2 {
            let table_label = labels.fresh();
            let mut table = Vec::new();
            for (w, group) in &const_groups {
                let cands = merge_sorted(group, &var_only);
                // Depth-2: when every candidate is a fact with a constant
                // second argument and at least two distinct second keys
                // exist, dispatch on A2 under this bucket instead of
                // walking a try/retry/trust chain.
                let mut target = None;
                if let Some(keys2) = &keys2 {
                    if cands.len() >= 2 && cands.iter().all(|&ci| keys2[ci].is_some()) {
                        let mut groups2: Vec<(Word, Vec<usize>)> = Vec::new();
                        let mut group2_of: HashMap<u64, usize> = HashMap::new();
                        for &ci in &cands {
                            let k2 = keys2[ci].expect("checked above");
                            let gi = *group2_of.entry(k2.switch_key()).or_insert_with(|| {
                                groups2.push((k2, Vec::new()));
                                groups2.len() - 1
                            });
                            groups2[gi].1.push(ci);
                        }
                        if groups2.len() >= 2 {
                            let mut table2 = Vec::new();
                            for (k2, g2) in &groups2 {
                                let t2 = chain_target(
                                    g2,
                                    &mut labels,
                                    &mut chain_blocks,
                                    &mut chain_cache,
                                )
                                .expect("non-empty depth-2 bucket");
                                table2.push((*k2, t2));
                            }
                            // Unbound A2 falls back to the whole bucket in
                            // clause order; a constant A2 missing from the
                            // table can unify with nothing (every second
                            // argument is a constant), so default fails.
                            // Lists/structures in A2 likewise fail.
                            let on_var2 = chain_target(
                                &cands,
                                &mut labels,
                                &mut chain_blocks,
                                &mut chain_cache,
                            )
                            .expect("non-empty const bucket");
                            let table2_label = labels.fresh();
                            chain_blocks.push(AsmItem::Label(table2_label));
                            chain_blocks.push(AsmItem::SwitchOnConstantL {
                                arg: A2,
                                default: None,
                                table: table2,
                            });
                            let entry = labels.fresh();
                            chain_blocks.push(AsmItem::Label(entry));
                            chain_blocks.push(AsmItem::SwitchOnTermL {
                                arg: A2,
                                on_var: Some(on_var2),
                                on_const: Some(table2_label),
                                on_list: None,
                                on_struct: None,
                            });
                            target = Some(entry);
                        }
                    }
                }
                let t = match target {
                    Some(t) => t,
                    None => chain_target(&cands, &mut labels, &mut chain_blocks, &mut chain_cache)
                        .expect("non-empty const bucket"),
                };
                table.push((*w, t));
            }
            let default = chain_target(&var_only, &mut labels, &mut chain_blocks, &mut chain_cache);
            chain_blocks.push(AsmItem::Label(table_label));
            chain_blocks.push(AsmItem::SwitchOnConstantL {
                arg: A1,
                default,
                table,
            });
            Some(table_label)
        } else {
            chain_target(
                &const_bucket,
                &mut labels,
                &mut chain_blocks,
                &mut chain_cache,
            )
        };

        // Structure bucket: same treatment by functor.
        let struct_groups: Vec<(FunctorId, Vec<usize>)> = {
            let mut groups: Vec<(FunctorId, Vec<usize>)> = Vec::new();
            let mut group_of: HashMap<usize, usize> = HashMap::new();
            for (i, k) in keys.iter().enumerate() {
                if let Key::Struct(f) = k {
                    let gi = *group_of.entry(f.index()).or_insert_with(|| {
                        groups.push((*f, Vec::new()));
                        groups.len() - 1
                    });
                    groups[gi].1.push(i);
                }
            }
            groups
        };
        let on_struct = if struct_groups.len() >= 2 {
            let table_label = labels.fresh();
            let mut table = Vec::new();
            for (f, group) in &struct_groups {
                let cands = merge_sorted(group, &var_only);
                let t = chain_target(&cands, &mut labels, &mut chain_blocks, &mut chain_cache)
                    .expect("non-empty struct bucket");
                table.push((*f, t));
            }
            let default = chain_target(&var_only, &mut labels, &mut chain_blocks, &mut chain_cache);
            chain_blocks.push(AsmItem::Label(table_label));
            chain_blocks.push(AsmItem::SwitchOnStructureL {
                arg: A1,
                default,
                table,
            });
            Some(table_label)
        } else {
            chain_target(
                &struct_bucket,
                &mut labels,
                &mut chain_blocks,
                &mut chain_cache,
            )
        };

        let on_list = chain_target(
            &list_bucket,
            &mut labels,
            &mut chain_blocks,
            &mut chain_cache,
        );

        items.push(AsmItem::SwitchOnTermL {
            arg: A1,
            on_var: Some(var_chain_label),
            on_const,
            on_list,
            on_struct,
        });
        items.append(&mut chain_blocks);
    }

    // The var chain: try_me_else-threaded clause code.
    let alt_labels: Vec<usize> = (0..n).map(|_| labels.fresh()).collect();
    items.push(AsmItem::Label(var_chain_label));
    for (i, clause) in pred.clauses.iter().enumerate() {
        if i == 0 {
            items.push(AsmItem::TryMeElse(alt_labels[1]));
        } else {
            items.push(AsmItem::Label(alt_labels[i]));
            if i + 1 == n {
                items.push(AsmItem::Plain(kcm_arch::Instr::TrustMe));
            } else {
                items.push(AsmItem::RetryMeElse(alt_labels[i + 1]));
            }
        }
        items.push(AsmItem::Label(clause_label[i]));
        let mut code = compile_clause(&pred.id, clause, true, symbols, statics, options)?;
        items.append(&mut code);
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Program;
    use kcm_prolog::read_program;

    fn compile(src: &str) -> (Vec<AsmItem>, SymbolTable) {
        let prog = Program::from_clauses(&read_program(src).unwrap()).unwrap();
        let mut symbols = SymbolTable::new();
        let mut statics = crate::link::StaticImage::new(crate::link::STATIC_DATA_BASE);
        let items = compile_predicate(
            &prog.predicates[0],
            &mut symbols,
            &mut statics,
            &Default::default(),
        )
        .unwrap();
        (items, symbols)
    }

    fn count_matching(items: &[AsmItem], f: impl Fn(&AsmItem) -> bool) -> usize {
        items.iter().filter(|i| f(i)).count()
    }

    #[test]
    fn single_clause_has_no_prelude() {
        let (items, _) = compile("p(X) :- q(X).");
        assert_eq!(
            count_matching(&items, |i| matches!(i, AsmItem::SwitchOnTermL { .. })),
            0
        );
        assert_eq!(
            count_matching(&items, |i| matches!(i, AsmItem::TryMeElse(_))),
            0
        );
    }

    #[test]
    fn append_like_predicate_switches() {
        let (items, _) = compile("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).");
        let sw = items
            .iter()
            .find_map(|i| match i {
                AsmItem::SwitchOnTermL {
                    on_var,
                    on_const,
                    on_list,
                    on_struct,
                    ..
                } => Some((*on_var, *on_const, *on_list, *on_struct)),
                _ => None,
            })
            .expect("switch_on_term emitted");
        // const bucket: only clause 1; list bucket: only clause 2; both
        // deterministic (direct clause labels, no chain).
        assert!(sw.1.is_some());
        assert!(sw.2.is_some());
        assert!(sw.3.is_none(), "no structure clauses → fail");
        assert_eq!(count_matching(&items, |i| matches!(i, AsmItem::TryL(_))), 0);
    }

    #[test]
    fn all_var_heads_skip_the_switch() {
        let (items, _) = compile("p(X) :- q(X). p(X) :- r(X).");
        assert_eq!(
            count_matching(&items, |i| matches!(i, AsmItem::SwitchOnTermL { .. })),
            0
        );
        assert_eq!(
            count_matching(&items, |i| matches!(i, AsmItem::TryMeElse(_))),
            1
        );
        assert_eq!(
            count_matching(&items, |i| matches!(
                i,
                AsmItem::Plain(kcm_arch::Instr::TrustMe)
            )),
            1
        );
    }

    #[test]
    fn constant_table_for_multiple_keys() {
        let (items, _) = compile("c(red, 1). c(green, 2). c(blue, 3).");
        let table = items
            .iter()
            .find_map(|i| match i {
                AsmItem::SwitchOnConstantL { table, default, .. } => {
                    Some((table.clone(), *default))
                }
                _ => None,
            })
            .expect("constant table emitted");
        assert_eq!(table.0.len(), 3);
        assert_eq!(table.1, None, "no var clauses → default fails");
    }

    #[test]
    fn structure_table_with_var_default() {
        let (items, _) = compile("d(x+y, a). d(x*y, b). d(x-y, c). d(V, V).");
        let (table, default) = items
            .iter()
            .find_map(|i| match i {
                AsmItem::SwitchOnStructureL { table, default, .. } => {
                    Some((table.clone(), *default))
                }
                _ => None,
            })
            .expect("structure table emitted");
        assert_eq!(table.len(), 3);
        assert!(default.is_some(), "var clause is the default");
    }

    #[test]
    fn shared_key_clauses_form_a_chain() {
        let (items, _) = compile("p(a, 1). p(a, 2). p(b, 3).");
        // Two clauses for key 'a' → one try/trust chain.
        assert_eq!(count_matching(&items, |i| matches!(i, AsmItem::TryL(_))), 1);
        assert_eq!(
            count_matching(&items, |i| matches!(i, AsmItem::TrustL(_))),
            1
        );
    }

    #[test]
    fn every_clause_gets_neck() {
        let (items, _) = compile("p(a). p(b).");
        assert_eq!(
            count_matching(&items, |i| matches!(
                i,
                AsmItem::Plain(kcm_arch::Instr::Neck)
            )),
            2
        );
    }

    #[test]
    fn wide_fact_base_gets_depth2_switch() {
        // 8 facts, 2 distinct first keys × distinct second keys: each
        // first-key bucket dispatches again on A2.
        let src = "f(a,1,x). f(a,2,y). f(a,3,z). f(a,4,w).\n\
                   f(b,1,x). f(b,2,y). f(b,3,z). f(b,4,w).";
        let (items, _) = compile(src);
        let a2_switches: Vec<_> = items
            .iter()
            .filter(|i| matches!(i, AsmItem::SwitchOnConstantL { arg, .. } if arg.index() == 1))
            .collect();
        assert_eq!(a2_switches.len(), 2, "one A2 table per first-key bucket");
        let a2_terms = count_matching(
            &items,
            |i| matches!(i, AsmItem::SwitchOnTermL { arg, .. } if arg.index() == 1),
        );
        assert_eq!(a2_terms, 2, "each A2 table sits behind an A2 type switch");
        // Fully keyed lookups are deterministic: no try chains at all.
        assert_eq!(count_matching(&items, |i| matches!(i, AsmItem::TryL(_))), 2);
        // ^ the two on_var2 fallback chains (one per bucket) still exist.
    }

    #[test]
    fn depth2_skipped_below_threshold() {
        let (items, _) = compile("g(a,1). g(a,2). g(b,1).");
        assert_eq!(
            count_matching(
                &items,
                |i| matches!(i, AsmItem::SwitchOnConstantL { arg, .. } if arg.index() == 1)
            ),
            0
        );
    }

    #[test]
    fn depth2_skipped_when_second_arg_not_constant() {
        // Second args include a variable → bucket must stay a chain.
        let src = "h(a,1). h(a,X) :- q(X).\n\
                   h(a,3). h(a,4). h(b,1). h(b,2). h(b,3). h(b,4).";
        let (items, _) = compile(src);
        assert_eq!(
            count_matching(
                &items,
                |i| matches!(i, AsmItem::SwitchOnConstantL { arg, .. } if arg.index() == 1)
            ),
            0,
            "a rule clause disables depth-2 for the whole predicate"
        );
    }

    #[test]
    fn depth2_disabled_by_option() {
        let src = "f(a,1). f(a,2). f(a,3). f(a,4).\n\
                   f(b,1). f(b,2). f(b,3). f(b,4).";
        let prog = Program::from_clauses(&read_program(src).unwrap()).unwrap();
        let mut symbols = SymbolTable::new();
        let mut statics = crate::link::StaticImage::new(crate::link::STATIC_DATA_BASE);
        let options = crate::CompileOptions {
            depth2_facts: false,
            ..Default::default()
        };
        let items =
            compile_predicate(&prog.predicates[0], &mut symbols, &mut statics, &options).unwrap();
        assert_eq!(
            count_matching(
                &items,
                |i| matches!(i, AsmItem::SwitchOnConstantL { arg, .. } if arg.index() == 1)
            ),
            0
        );
    }

    #[test]
    fn var_clauses_participate_in_typed_buckets() {
        let (items, _) = compile("p([]). p(V) :- q(V).");
        let sw = items
            .iter()
            .find_map(|i| match i {
                AsmItem::SwitchOnTermL {
                    on_const, on_list, ..
                } => Some((*on_const, *on_list)),
                _ => None,
            })
            .unwrap();
        // const bucket: both clauses — identical to the full set, so it
        // reuses the try_me_else chain; list bucket: just the var clause.
        assert!(sw.0.is_some());
        assert!(sw.1.is_some());
        assert_eq!(count_matching(&items, |i| matches!(i, AsmItem::TryL(_))), 0);
    }
}
