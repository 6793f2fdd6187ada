//! `kcm-serve` — a concurrent Prolog query service on the KCM simulator.
//!
//! The paper's KCM is a single back-end processor coupled to one
//! workstation through a host interface (§1): the host ships compiled
//! code and queries down, the KCM streams answers back. This crate is
//! that host interface generalized to many concurrent callers: a TCP
//! front end speaking a simple length-delimited text protocol
//! ([`protocol`]), short requests answered on the event loop in their
//! first quantum of machine steps, worker threads time-slicing the long
//! ones quantum by quantum, bounded admission with explicit backpressure
//! (`BUSY` instead of unbounded queueing), and per-request step
//! deadlines (`MachineConfig::step_budget`).
//!
//! Since the registry PR the service is multi-tenant: `PUBLISH <name>`
//! installs a compiled program into a shared [`kcm_system::registry`]
//! slot, and `QUERY @<name> ...` serves it to any connection — many
//! knowledge bases on one machine, each an `Arc`'d image with its own
//! stats and optional step budget. The front end is a single
//! nonblocking readiness loop ([`poll`] + [`server`]): connections cost
//! a buffer, not a thread, so the server's thread count is independent
//! of its connection count.
//!
//! Pieces:
//!
//! * [`protocol`] — framing (incl. the incremental [`protocol::FrameBuf`]
//!   decoder), request/reply grammar, outcome rendering;
//! * [`poll`] — a zero-dependency readiness API (epoll on Linux, poll(2)
//!   elsewhere on unix);
//! * [`server`] — the event loop, program registry wiring, worker pool
//!   and metrics;
//! * [`client`] — a blocking client for the protocol;
//! * [`workload`] — the deterministic query mix `loadgen` and the tests
//!   drive.
//!
//! Binaries: `kcm-serve` (the server) and `loadgen` (a load generator
//! that reports a latency histogram and writes `BENCH_serve.jsonl`).
//!
//! # Examples
//!
//! ```
//! use kcm_serve::{Client, Reply, ServeConfig, Server};
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default())?;
//! let addr = server.local_addr()?;
//! let handle = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! client.consult("p(1). p(2).")?;
//! let reply = client.query_all("p(X)")?;
//! assert!(matches!(&reply, Reply::Ok { body } if body.contains("solutions=2")));
//! client.shutdown()?;
//! handle.join().expect("server thread")?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod poll;
pub mod protocol;
pub mod server;
pub mod workload;

pub use client::Client;
pub use protocol::{render_outcome, FrameBuf, Reply, Request};
pub use server::{ServeConfig, ServeMetrics, Server};
