//! The macro assembler.
//!
//! The clause compiler and the indexer emit *symbolic* code: instructions
//! whose branch targets are local labels or predicate names. The assembler
//! resolves these to the absolute addresses the hardware requires ("all
//! branches in KCM have absolute addresses as branch targets", §3.1.3).

use crate::ir::PredId;
use kcm_arch::isa::{Cond, Instr};
use kcm_arch::{CodeAddr, FunctorId, Reg, Word};
use std::collections::HashMap;

/// One item of symbolic code.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmItem {
    /// A label definition (occupies no code words).
    Label(usize),
    /// An instruction with no code-address operand.
    Plain(Instr),
    /// `call` to a predicate, resolved by the linker.
    CallPred(PredId),
    /// `execute` (last-call) to a predicate.
    ExecutePred(PredId),
    /// `try_me_else` with a label alternative.
    TryMeElse(usize),
    /// `retry_me_else` with a label alternative.
    RetryMeElse(usize),
    /// Indexed `try` of a clause label.
    TryL(usize),
    /// Indexed `retry` of a clause label.
    RetryL(usize),
    /// Indexed `trust` of a clause label.
    TrustL(usize),
    /// Unconditional jump to a label.
    JumpL(usize),
    /// Conditional branch to a label.
    BranchCond(Cond, usize),
    /// Conditional branch to the global fail stub (inline comparisons
    /// branch there when the test fails).
    BranchFail(Cond),
    /// `switch_on_term` with label targets (`None` = fail).
    SwitchOnTermL {
        /// Argument register the dispatch dereferences.
        arg: Reg,
        /// Target when the argument dereferences to a variable.
        on_var: Option<usize>,
        /// Target for constants.
        on_const: Option<usize>,
        /// Target for lists.
        on_list: Option<usize>,
        /// Target for structures.
        on_struct: Option<usize>,
    },
    /// `switch_on_constant` with label targets.
    SwitchOnConstantL {
        /// Argument register the dispatch dereferences.
        arg: Reg,
        /// Fall-through target (`None` = fail).
        default: Option<usize>,
        /// Key → label table.
        table: Vec<(Word, usize)>,
    },
    /// `switch_on_structure` with label targets.
    SwitchOnStructureL {
        /// Argument register the dispatch dereferences.
        arg: Reg,
        /// Fall-through target (`None` = fail).
        default: Option<usize>,
        /// Functor → label table.
        table: Vec<(FunctorId, usize)>,
    },
}

impl AsmItem {
    /// Code words this item will occupy once assembled.
    pub fn size_words(&self) -> usize {
        match self {
            AsmItem::Label(_) => 0,
            AsmItem::Plain(i) => i.size_words(),
            AsmItem::SwitchOnTermL { .. } => 3,
            AsmItem::SwitchOnConstantL { table, .. } => 1 + 2 * table.len(),
            AsmItem::SwitchOnStructureL { table, .. } => 1 + 2 * table.len(),
            _ => 1,
        }
    }
}

/// An assembly-time error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(usize),
    /// A label was defined twice.
    DuplicateLabel(usize),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label L{l}"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label L{l}"),
        }
    }
}

impl std::error::Error for AsmError {}

/// Assembles symbolic items into absolute instructions.
///
/// `start` is the code address of the first word; `resolve_pred` maps a
/// predicate to its entry point (the linker's symbol table — unknown
/// predicates are the *linker's* problem, so the closure must always
/// return an address, e.g. of an "unknown predicate" stub); `fail_stub`
/// is the address of the global `fail` instruction.
///
/// Returns the resolved instructions paired with their word addresses.
///
/// # Errors
///
/// Returns [`AsmError`] for undefined or duplicate labels.
pub fn assemble(
    items: &[AsmItem],
    start: CodeAddr,
    resolve_pred: &mut dyn FnMut(&PredId) -> CodeAddr,
    fail_stub: CodeAddr,
) -> Result<Vec<(CodeAddr, Instr)>, AsmError> {
    // Pass 1: label → absolute address.
    let mut labels: HashMap<usize, CodeAddr> = HashMap::new();
    let mut offset = 0u32;
    for item in items {
        if let AsmItem::Label(l) = item {
            if labels.insert(*l, start.offset(offset as i64)).is_some() {
                return Err(AsmError::DuplicateLabel(*l));
            }
        }
        offset += item.size_words() as u32;
    }
    let resolve = |l: &usize| labels.get(l).copied().ok_or(AsmError::UndefinedLabel(*l));
    let resolve_opt = |l: &Option<usize>| -> Result<Option<CodeAddr>, AsmError> {
        match l {
            Some(l) => Ok(Some(resolve(l)?)),
            None => Ok(None),
        }
    };

    // Pass 2: emit.
    let mut out = Vec::with_capacity(items.len());
    let mut offset = 0u32;
    for item in items {
        let addr = start.offset(offset as i64);
        offset += item.size_words() as u32;
        let instr = match item {
            AsmItem::Label(_) => continue,
            AsmItem::Plain(i) => i.clone(),
            AsmItem::CallPred(p) => Instr::Call {
                addr: resolve_pred(p),
                arity: p.arity,
            },
            AsmItem::ExecutePred(p) => Instr::Execute {
                addr: resolve_pred(p),
                arity: p.arity,
            },
            AsmItem::TryMeElse(l) => Instr::TryMeElse { alt: resolve(l)? },
            AsmItem::RetryMeElse(l) => Instr::RetryMeElse { alt: resolve(l)? },
            AsmItem::TryL(l) => Instr::Try {
                clause: resolve(l)?,
            },
            AsmItem::RetryL(l) => Instr::Retry {
                clause: resolve(l)?,
            },
            AsmItem::TrustL(l) => Instr::Trust {
                clause: resolve(l)?,
            },
            AsmItem::JumpL(l) => Instr::Jump { to: resolve(l)? },
            AsmItem::BranchCond(c, l) => Instr::Branch {
                cond: *c,
                to: resolve(l)?,
            },
            AsmItem::BranchFail(c) => Instr::Branch {
                cond: *c,
                to: fail_stub,
            },
            AsmItem::SwitchOnTermL {
                arg,
                on_var,
                on_const,
                on_list,
                on_struct,
            } => Instr::SwitchOnTerm {
                arg: *arg,
                on_var: resolve_opt(on_var)?,
                on_const: resolve_opt(on_const)?,
                on_list: resolve_opt(on_list)?,
                on_struct: resolve_opt(on_struct)?,
            },
            AsmItem::SwitchOnConstantL {
                arg,
                default,
                table,
            } => Instr::SwitchOnConstant {
                arg: *arg,
                default: resolve_opt(default)?,
                table: table
                    .iter()
                    .map(|(w, l)| Ok((*w, resolve(l)?)))
                    .collect::<Result<_, AsmError>>()?,
            },
            AsmItem::SwitchOnStructureL {
                arg,
                default,
                table,
            } => Instr::SwitchOnStructure {
                arg: *arg,
                default: resolve_opt(default)?,
                table: table
                    .iter()
                    .map(|(f, l)| Ok((*f, resolve(l)?)))
                    .collect::<Result<_, AsmError>>()?,
            },
        };
        out.push((addr, instr));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_preds(_: &PredId) -> CodeAddr {
        CodeAddr::new(0)
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let items = vec![
            AsmItem::Label(0),
            AsmItem::Plain(Instr::Proceed),
            AsmItem::JumpL(1),
            AsmItem::Label(1),
            AsmItem::JumpL(0),
        ];
        let out = assemble(&items, CodeAddr::new(100), &mut no_preds, CodeAddr::new(0)).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(
            out[1].1,
            Instr::Jump {
                to: CodeAddr::new(102)
            }
        );
        assert_eq!(
            out[2].1,
            Instr::Jump {
                to: CodeAddr::new(100)
            }
        );
    }

    #[test]
    fn multiword_switch_shifts_addresses() {
        let items = vec![
            AsmItem::SwitchOnTermL {
                arg: Reg::new(0),
                on_var: Some(0),
                on_const: None,
                on_list: None,
                on_struct: None,
            },
            AsmItem::Label(0),
            AsmItem::Plain(Instr::Proceed),
        ];
        let out = assemble(&items, CodeAddr::new(0), &mut no_preds, CodeAddr::new(9)).unwrap();
        // switch occupies words 0..3; the label lands at 3.
        assert_eq!(out[0].0, CodeAddr::new(0));
        assert_eq!(out[1].0, CodeAddr::new(3));
        match &out[0].1 {
            Instr::SwitchOnTerm { on_var, .. } => assert_eq!(*on_var, Some(CodeAddr::new(3))),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn undefined_label_errors() {
        let items = vec![AsmItem::JumpL(7)];
        assert_eq!(
            assemble(&items, CodeAddr::new(0), &mut no_preds, CodeAddr::new(0)),
            Err(AsmError::UndefinedLabel(7))
        );
    }

    #[test]
    fn duplicate_label_errors() {
        let items = vec![AsmItem::Label(1), AsmItem::Label(1)];
        assert_eq!(
            assemble(&items, CodeAddr::new(0), &mut no_preds, CodeAddr::new(0)),
            Err(AsmError::DuplicateLabel(1))
        );
    }

    #[test]
    fn branch_fail_uses_stub() {
        let items = vec![AsmItem::BranchFail(Cond::Ge)];
        let out = assemble(&items, CodeAddr::new(4), &mut no_preds, CodeAddr::new(77)).unwrap();
        assert_eq!(
            out[0].1,
            Instr::Branch {
                cond: Cond::Ge,
                to: CodeAddr::new(77)
            }
        );
    }

    #[test]
    fn predicate_resolution_goes_through_closure() {
        let items = vec![AsmItem::CallPred(PredId {
            name: "p".into(),
            arity: 2,
        })];
        let mut seen = Vec::new();
        let out = assemble(
            &items,
            CodeAddr::new(0),
            &mut |p| {
                seen.push(p.clone());
                CodeAddr::new(42)
            },
            CodeAddr::new(0),
        )
        .unwrap();
        assert_eq!(
            out[0].1,
            Instr::Call {
                addr: CodeAddr::new(42),
                arity: 2
            }
        );
        assert_eq!(seen.len(), 1);
    }
}
