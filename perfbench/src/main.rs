//! `perfbench` — the measuring process of the repository benchmark.
//!
//! `run.py` beside this package builds this binary and drives it. Each
//! invocation does one job in a fresh process and prints one JSON line
//! on stdout:
//!
//! ```text
//! perfbench setup   <workload> <seed>                        one cold set-up
//! perfbench measure <workload> <seed> <seconds> <plain|traced> one window
//! ```
//!
//! Workloads (see `BENCHMARK.json` and `NOTES.md` for why each exists):
//! `serve_mix` and `serve_kb_rw` drive an in-process
//! `kcm_serve::Server` over loopback; `inproc_cycle` runs the PLM suite
//! through `Kcm::query` on the cycle-accurate tier. Every answer is
//! checked; a wrong or failed answer is counted in `failed`.

mod alloc;
mod calib;
mod cycle;
mod json;
mod procfs;
mod serve;
mod trace;

use json::Obj;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Completed reads (queries, cursor drains, suite queries).
    pub reads: u64,
    /// Completed writes (`ASSERT`/`RETRACT`).
    pub writes: u64,
    /// Operations that failed: an error, `BUSY` after retries, or a wrong
    /// answer.
    pub failed: u64,
    pub window_s: f64,
    /// Read latencies, one per read.
    pub lat_ns: Vec<u64>,
    /// The kind of each read (mix case, suite program; 0 for KB lookups),
    /// so a latency quantile is taken per kind, not across a mix of
    /// requests with different costs.
    pub lat_kind: Vec<u64>,
    /// Write latencies, timed from each write's due time.
    pub write_lat_ns: Vec<u64>,
    /// How late the writer sent each write.
    pub write_late_ns: Vec<u64>,
    /// Process counters over the window.
    pub usage: procfs::Usage,
    pub alloc_bytes: u64,
    /// KCM instructions retired in the window.
    pub instr: u64,
    /// Per-layer figures, by metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// When each read started, in ns since the window's start, to match
    /// it with the host-speed reference next to it.
    pub lat_at_ns: Vec<u64>,
    /// The host-speed reference units run in the window.
    pub ref_at_ns: Vec<u64>,
    pub ref_unit_ns: Vec<u64>,
    /// CPU and wall time the reference took, out of the window's.
    pub ref_cpu_ns: u64,
    pub ref_wall_ns: u64,
}

/// SplitMix64: the workload generators' only source of randomness, so a
/// seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below what matters here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeMix,
    ServeKbRw,
    InprocCycle,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_mix" => Some(Workload::ServeMix),
            "serve_kb_rw" => Some(Workload::ServeKbRw),
            "inproc_cycle" => Some(Workload::InprocCycle),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve_mix",
            Workload::ServeKbRw => "serve_kb_rw",
            Workload::InprocCycle => "inproc_cycle",
        }
    }
}

const USAGE: &str = "usage: perfbench setup <workload> <seed>\n       \
                     perfbench measure <workload> <seed> <seconds> <plain|traced>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let arg = |i: usize| args.get(i).map(String::as_str).ok_or(USAGE);
    let workload = Workload::parse(arg(1)?).ok_or_else(|| format!("unknown workload; {USAGE}"))?;
    let seed: u64 = arg(2)?.parse().map_err(|_| "seed must be a whole number")?;
    match arg(0)? {
        "setup" => {
            let setup_s = match workload {
                Workload::InprocCycle => cycle::setup(seed)?,
                _ => serve::setup(workload, seed)?,
            };
            // The host's speed right after the set-up (never before it:
            // the set-up must start cold).
            let mut reference = calib::Reference::default();
            let epoch = std::time::Instant::now();
            while epoch.elapsed() < SETUP_REFERENCE {
                reference.sample(epoch);
            }
            let mut o = Obj::new();
            o.num("setup_s", setup_s)
                .ints("ref_unit_ns", &reference.unit_ns);
            Ok(o.finish())
        }
        "measure" => {
            let seconds: f64 = arg(3)?.parse().map_err(|_| "seconds must be a number")?;
            let traced = match arg(4)? {
                "plain" => false,
                "traced" => true,
                _ => return Err(USAGE.to_owned()),
            };
            let report = match workload {
                Workload::InprocCycle => cycle::measure(seed, seconds, traced)?,
                _ => serve::measure(workload, seed, seconds, traced)?,
            };
            Ok(render(&report))
        }
        _ => Err(USAGE.to_owned()),
    }
}

/// How long a set-up job samples the host's speed after its set-up.
const SETUP_REFERENCE: std::time::Duration = std::time::Duration::from_millis(50);

fn render(r: &Report) -> String {
    let mut layers = Obj::new();
    for (name, value) in &r.layers {
        layers.num(name, *value);
    }
    let mut o = Obj::new();
    o.int("reads", r.reads)
        .int("writes", r.writes)
        .int("failed", r.failed)
        .num("window_s", r.window_s)
        .num("user_s", r.usage.user_s)
        .num("sys_s", r.usage.sys_s)
        .num("steal_frac", r.usage.steal_frac())
        // The workload's faults: the reference's own are known exactly.
        .int(
            "minflt",
            r.usage.minflt - calib::FAULTS_PER_UNIT * r.ref_unit_ns.len() as u64,
        )
        .int("alloc_bytes", r.alloc_bytes)
        .int("instr", r.instr)
        .int("hwm_kb", procfs::hwm_kb())
        .raw("layers", &layers.finish())
        .ints("lat_ns", &r.lat_ns)
        .ints("lat_kind", &r.lat_kind)
        .ints("write_lat_ns", &r.write_lat_ns)
        .ints("write_late_ns", &r.write_late_ns)
        .ints("lat_at_ns", &r.lat_at_ns)
        .ints("ref_at_ns", &r.ref_at_ns)
        .ints("ref_unit_ns", &r.ref_unit_ns)
        .int("ref_cpu_ns", r.ref_cpu_ns)
        .int("ref_wall_ns", r.ref_wall_ns);
    o.finish()
}

/// Where a traced window writes its spans: inside the working directory
/// (the checkout the benchmark runs from), one file per workload.
pub fn spans_path(workload: Workload, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(".perfbench_out").join(format!("spans-{}-{seed}.jsonl", workload.name()))
}
