//! The PLM benchmark suite and evaluation harness of the KCM reproduction.
//!
//! * [`programs`] — the fourteen PLM-suite programs (§4) with both the
//!   Table 2 (I/O as 5-cycle unit clauses) and Table 3 (I/O removed)
//!   drivers.
//! * [`paper`] — the published comparison columns the regenerated tables
//!   print alongside the model's measurements.
//! * [`runner`] — helpers that compile and execute a suite program on the
//!   KCM simulator and on the baselines, returning cycle-accurate
//!   measurements.
//! * [`table`] — plain-text table rendering shared by the bench targets.
//! * [`golden`] — the line-per-counter rendering and comparison behind
//!   the committed cycle-tier pins.
//!
//! # Examples
//!
//! ```
//! use kcm_suite::{programs, runner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nrev = programs::program("nrev1").expect("in suite");
//! let kcm = kcm_system::KcmEngine::new();
//! let m = runner::run_program(&kcm, &nrev, runner::Variant::Starred)?;
//! assert!(m.outcome.success);
//! assert!(m.outcome.stats.klips() > 100.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod golden;
pub mod paper;
pub mod programs;
pub mod runner;
pub mod table;
pub mod workloads;

pub use programs::{program, suite, BenchProgram};
pub use runner::{run_program, Measurement, Variant};
