//! The KCM CPU: execution unit, control and the machine simulator.
//!
//! This crate implements the processor of §3.1 of the paper:
//!
//! * [`regfile`] — the 64 × 64-bit register file with the four-address
//!   port structure (figure 5) and the RAC's sequential-addressing loops.
//! * [`mwac`] — the Multi-Way Address Calculator: the PROM that maps the
//!   two operand type fields of a unification instruction to one of 16
//!   microcode entry offsets (§3.1.4).
//! * [`prefetch`] — the three-stage instruction prefetch pipeline model
//!   (figure 6): streams one instruction per cycle, charges pipeline
//!   breaks for branches (§3.1.3).
//! * [`frames`] — the environment and choice-point frame layouts on the
//!   split local/control stacks (§2.4, §3.1.5).
//! * [`machine`] — the full machine: WAM-level instruction execution with
//!   cycle accounting, shallow backtracking with shadow registers and the
//!   deferred choice point (§3.1.5), the trail hardware condition, and
//!   dereferencing at one link per cycle through the data cache (§3.1.4).
//! * [`profile`] — the observability layer: per-instruction-class retired
//!   counts and cycles, and the outcomes of the paper's hardware
//!   mechanisms (MWAC dispatch, table switches, trail checks, deref-chain
//!   lengths). Every machine event is counted once: backtracks, trail
//!   pushes and zone growths are [`RunStats`] counters.
//! * [`termio`] — host-side decoding/building of Prolog terms in machine
//!   memory (the monitor's view of the heap).
//! * [`builtins`] — the escape mechanism: built-in predicates serviced
//!   with host help (§2.1), with `write/1`/`nl/0` costed as 5-cycle unit
//!   clauses exactly as the paper's benchmarks assume (§4.2).
//!
//! # Examples
//!
//! ```
//! use kcm_cpu::{Machine, MachineConfig};
//! use kcm_arch::SymbolTable;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let clauses = kcm_prolog::read_program("app([],L,L). app([H|T],L,[H|R]) :- app(T,L,R).")?;
//! let mut symbols = SymbolTable::new();
//! let image = Arc::new(kcm_compiler::compile_program(&clauses, &mut symbols)?);
//! let goal = kcm_prolog::read_term("app([1,2],[3],X)")?;
//! let (qimage, vars) = kcm_compiler::compile_query(&image, &goal, &mut symbols)?;
//! let mut m = Machine::new(qimage, symbols, MachineConfig::default());
//! let outcome = m.run_query(&vars, false)?;
//! assert!(outcome.success);
//! assert_eq!(outcome.solutions[0][0].1.to_string(), "[1,2,3]");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod builtins;
pub mod frames;
pub mod machine;
pub mod mwac;
pub mod prefetch;
pub mod profile;
pub mod regfile;
pub mod termio;

pub use machine::{
    Machine, MachineConfig, MachineError, Outcome, Quantum, RunStats, SessionStep, Solution,
};
pub use profile::{
    ClassCounters, InstrClass, MwacCounters, Profile, SwitchCounters, DEREF_HIST_BUCKETS,
};
pub use regfile::RegisterFile;
