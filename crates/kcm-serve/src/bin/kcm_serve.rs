//! The `kcm-serve` binary: bind, announce the address, serve until a
//! client sends SHUTDOWN, then print the final metrics
//! ([`kcm_serve::ServeMetrics`], one field per line).
//!
//! ```text
//! kcm-serve [addr]      default 127.0.0.1:7878; use port 0 for ephemeral
//! ```
//!
//! Environment:
//!
//! * `KCM_SERVE_WORKERS` — worker threads for requests that outlast
//!   their first quantum on the event loop (default: host parallelism);
//! * `KCM_SERVE_QUEUE` — paused requests admitted beyond one per worker
//!   before the server answers `BUSY` (default 64);
//! * `KCM_SERVE_BUDGET` — default step budget per query (default
//!   50000000; `0` disables the deadline);
//! * `KCM_SERVE_PROGRAMS` — program-registry capacity (default 64);
//!   publishing a new name into a full registry evicts the
//!   least-recently-used tenant.

use kcm_serve::{ServeConfig, Server};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> std::io::Result<()> {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let mut cfg = ServeConfig {
        queue_depth: env_usize("KCM_SERVE_QUEUE", 64),
        ..ServeConfig::default()
    };
    cfg.workers = env_usize("KCM_SERVE_WORKERS", cfg.workers);
    cfg.max_programs = env_usize("KCM_SERVE_PROGRAMS", cfg.max_programs);
    cfg.default_step_budget = match env_usize("KCM_SERVE_BUDGET", 50_000_000) {
        0 => None,
        steps => Some(steps as u64),
    };
    let server = Server::bind(&addr, cfg.clone())?;
    // The exact line CI scrapes the ephemeral port from — keep it first
    // and flushed.
    println!("kcm-serve: listening on {}", server.local_addr()?);
    println!(
        "kcm-serve: {} workers, queue depth {}, step budget {}, registry capacity {}",
        cfg.workers,
        cfg.queue_depth,
        cfg.default_step_budget
            .map_or_else(|| "off".to_owned(), |b| b.to_string()),
        cfg.max_programs
    );
    use std::io::Write as _;
    std::io::stdout().flush()?;
    let metrics = server.run()?;
    println!("kcm-serve: drained\n{metrics:#?}");
    Ok(())
}
