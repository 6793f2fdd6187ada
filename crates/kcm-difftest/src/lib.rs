//! Cross-engine differential testing for the KCM reproduction.
//!
//! All engines in this workspace — the KCM simulator (cycle or native
//! tier, serial or pooled, one-shot or cursor), the generic software WAM
//! baseline, the Quintus-class `swam` and the PLM byte-code machine —
//! realize the same Prolog semantics over different compiler options and
//! cost models. That
//! makes generated-program differential testing the highest-yield oracle
//! we have: any observable disagreement (solution sets, solution order,
//! `write/1` output, inference counts, or error class) is a bug in at
//! least one engine.
//!
//! The crate has four parts:
//!
//! - [`gen`] — a seeded, grammar-driven generator of well-formed,
//!   terminating Prolog programs with queries;
//! - [`oracle`] — the engine roster and the comparison verdict;
//! - [`shrink`] — a greedy shrinker that reduces a diverging case to a
//!   minimal reproducing program;
//! - [`corpus`] — the checked-in regression corpus, replayed by `cargo
//!   test` and the `difftest` binary.
//!
//! The `difftest` binary drives the fuzz loop; see `TESTING.md` at the
//! repository root for the seed/replay protocol and corpus promotion
//! workflow.

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;
