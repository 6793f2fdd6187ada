//! The serving workloads: an in-process `kcm_serve::Server` with the
//! default `ServeConfig` (native tier), driven over loopback.
//!
//! * `serve_mix` — the 8 `workload::standard()` cases published as
//!   tenants; two connections in a closed loop, round-robin from seeded
//!   offsets; the enumerate-all `queens` case alternates between
//!   `QUERYALL` and a cursor drained with `NEXT`.
//! * `serve_kb_rw` — tenant `kb` holds 10⁴ facts `kv(k<i>, v<i mod 97>)`,
//!   published as a snapshot prepared before timing; one connection in a
//!   closed loop of point lookups on seeded uniform keys, plus a writer
//!   connection in an open loop at 50 updates/s alternating
//!   `ASSERT`/`RETRACT` of `kv(w<j>, v<j mod 97>)`.
//!
//! Every reply is checked against the answer the generator implies; the
//! expected bodies come from the in-process `render_outcome` oracle.

use crate::trace::{self, Root, Tracer};
use crate::{alloc, calib, procfs, Report, Rng, Workload};
use kcm_serve::protocol::{render_batch, solution_line};
use kcm_serve::workload::{direct_body, standard, ServeCase};
use kcm_serve::{render_outcome, Client, Reply, Request, ServeConfig, ServeMetrics, Server};
use kcm_system::pool::run_session;
use kcm_system::{
    open_session, Kcm, MachineConfig, ProgramRegistry, ProgramSource, QueryJob, QueryOpts, Tier,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const KB_FACTS: u64 = 10_000;
const KB_VALUES: u64 = 97;
/// The writer's open-loop rate on `serve_kb_rw`.
const WRITES_PER_S: f64 = 50.0;
/// A `BUSY` reply is retried this many times, 1 ms apart, before the
/// operation counts as failed.
const BUSY_RETRIES: u32 = 100;
/// Seeded keys checked byte-for-byte against the in-process oracle.
const ORACLE_SAMPLE: usize = 16;

/// One published program: its source, and the snapshot bytes it is
/// published as when the workload publishes a snapshot.
struct Tenant {
    name: String,
    source: String,
    snapshot: Option<Vec<u8>>,
}

impl Tenant {
    fn artifact(&self) -> ProgramSource<'_> {
        match &self.snapshot {
            Some(bytes) => ProgramSource::Snapshot(bytes),
            None => ProgramSource::Source(&self.source),
        }
    }
}

/// A `serve_mix` case with the answers the oracle expects.
struct MixCase {
    case: ServeCase,
    /// The `QUERY`/`QUERYALL` reply body.
    body: String,
    /// The solution lines, in enumeration order, a drained cursor yields.
    answers: Vec<String>,
}

/// A workload's inputs and expected answers.
struct Plan {
    workload: Workload,
    tenants: Vec<Tenant>,
    /// `serve_mix` only; bodies are filled in by [`Plan::oracle`].
    cases: Vec<MixCase>,
    /// KB workloads only: the inference count of one lookup, learned from
    /// the oracle.
    kb_inferences: u64,
}

fn kb_source() -> String {
    (0..KB_FACTS)
        .map(|i| format!("kv(k{i}, v{}).\n", i % KB_VALUES))
        .collect()
}

fn kb_query(key: u64) -> String {
    format!("kv(k{key}, V)")
}

fn kb_body(key: u64, inferences: u64) -> String {
    format!(
        "success=true solutions=1 inferences={inferences} cycles=0\nV=v{}\noutput=\"\"\n",
        key % KB_VALUES
    )
}

/// The options the server applies to a tenant query: its default step
/// budget on the native tier.
fn served_opts(enumerate_all: bool) -> QueryOpts {
    QueryOpts {
        enumerate_all,
        step_budget: ServeConfig::default().default_step_budget,
        trace: 0,
        tier: Tier::Native,
    }
}

impl Plan {
    /// The workload's programs, generated; nothing is compiled except the
    /// snapshot `serve_kb_rw` publishes, which is prepared here, before
    /// any timing.
    fn new(workload: Workload) -> Result<Plan, String> {
        let mut plan = Plan {
            workload,
            tenants: Vec::new(),
            cases: Vec::new(),
            kb_inferences: 0,
        };
        match workload {
            Workload::ServeMix => {
                for case in standard() {
                    plan.tenants.push(Tenant {
                        name: case.name.to_owned(),
                        source: case.source.to_owned(),
                        snapshot: None,
                    });
                    plan.cases.push(MixCase {
                        case,
                        body: String::new(),
                        answers: Vec::new(),
                    });
                }
            }
            Workload::ServeKbRw => {
                let source = kb_source();
                let mut kcm = Kcm::new();
                kcm.load(source.as_str()).map_err(|e| format!("kb: {e}"))?;
                let snapshot = kcm.snapshot().map_err(|e| format!("kb: {e}"))?;
                plan.tenants.push(Tenant {
                    name: "kb".to_owned(),
                    source,
                    snapshot: Some(snapshot),
                });
            }
            Workload::InprocCycle => unreachable!("not a serving workload"),
        }
        Ok(plan)
    }

    /// Computes the expected answers in-process: `workload::direct_body`
    /// for the mix, and for the KB a seeded sample of lookups rendered by
    /// `render_outcome`, which must match the generator's answer
    /// byte-for-byte.
    fn oracle(&mut self, seed: u64) -> Result<(), String> {
        if self.workload == Workload::ServeMix {
            for c in &mut self.cases {
                c.body = direct_body(&c.case, Tier::Native);
                c.answers = answer_lines(&c.body);
            }
            return Ok(());
        }
        let mut kcm = Kcm::new();
        kcm.load(self.tenants[0].artifact())
            .map_err(|e| format!("kb oracle: {e}"))?;
        let mut rng = Rng::new(seed ^ 0x6f72_6163_6c65);
        for i in 0..ORACLE_SAMPLE {
            let key = rng.below(KB_FACTS);
            let outcome = kcm
                .query(&kb_query(key), &served_opts(false))
                .map_err(|e| format!("kb oracle: {e}"))?;
            let body = render_outcome(&outcome);
            if i == 0 {
                self.kb_inferences = outcome.stats.inferences;
            }
            if body != kb_body(key, self.kb_inferences) {
                return Err(format!(
                    "kb oracle: unexpected answer {body:?} for key {key}"
                ));
            }
        }
        Ok(())
    }

    /// The reply body a plain (non-cursor) request must get.
    fn expected(&self, op: Op) -> String {
        match op {
            Op::Case { index, .. } => self.cases[index].body.clone(),
            Op::Lookup { key } => kb_body(key, self.kb_inferences),
        }
    }

    /// The tenant, query text and enumeration flag of a request.
    fn query(&self, op: Op) -> (&str, String, bool) {
        match op {
            Op::Case { index, .. } => {
                let c = &self.cases[index].case;
                (c.name, c.query.to_owned(), c.enumerate_all)
            }
            Op::Lookup { key } => ("kb", kb_query(key), false),
        }
    }
}

/// The solution lines of a rendered outcome: everything between the
/// header line and the trailing `output=` line.
fn answer_lines(body: &str) -> Vec<String> {
    let lines: Vec<&str> = body.lines().collect();
    lines[1..lines.len() - 1]
        .iter()
        .map(|l| (*l).to_owned())
        .collect()
}

/// One read request.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A `serve_mix` case; `cursor` drains it through `NEXT` instead of
    /// `QUERYALL`.
    Case { index: usize, cursor: bool },
    /// A KB point lookup.
    Lookup { key: u64 },
}

impl Op {
    /// The request's kind: its mix case, with the cursor drain of the
    /// enumerating case as a kind of its own; 0 for every KB lookup.
    fn kind(self, plan: &Plan) -> u64 {
        match self {
            Op::Case { index, cursor } => {
                if cursor {
                    plan.cases.len() as u64
                } else {
                    index as u64
                }
            }
            Op::Lookup { .. } => 0,
        }
    }
}

/// A connection's seeded request sequence.
struct Gen {
    rng: Rng,
    pos: usize,
    cursor_next: bool,
}

impl Gen {
    fn new(seed: u64, conn: u64) -> Gen {
        let mut rng = Rng::new(seed ^ conn.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let pos = rng.below(64) as usize;
        Gen {
            rng,
            pos,
            cursor_next: false,
        }
    }

    fn next(&mut self, plan: &Plan) -> Op {
        if plan.workload != Workload::ServeMix {
            return Op::Lookup {
                key: self.rng.below(KB_FACTS),
            };
        }
        let index = self.pos % plan.cases.len();
        self.pos += 1;
        let mut cursor = false;
        if plan.cases[index].case.enumerate_all {
            cursor = self.cursor_next;
            self.cursor_next = !self.cursor_next;
        }
        Op::Case { index, cursor }
    }
}

/// Sends `request`, retrying `BUSY`. `None` for a transport failure or a
/// `BUSY` that outlasted the retries.
fn call(client: &mut Client, request: &Request) -> Option<Reply> {
    for _ in 0..BUSY_RETRIES {
        match client.request(request) {
            Ok(Reply::Busy) => std::thread::sleep(Duration::from_millis(1)),
            Ok(reply) => return Some(reply),
            Err(_) => return None,
        }
    }
    None
}

fn query_request(tenant: &str, query: String, enumerate_all: bool, cursor: bool) -> Request {
    Request::Query {
        tenant: Some(tenant.to_owned()),
        query,
        enumerate_all,
        step_budget: None,
        cursor,
    }
}

/// The result of one request as the client saw it.
#[derive(Debug, Default, Clone, Copy)]
struct Done {
    ok: bool,
    /// `OK` replies the server counts under `served` (one-shot queries).
    served: u64,
}

fn body_of(reply: &Option<Reply>) -> Option<&str> {
    match reply {
        Some(Reply::Ok { body }) => Some(body),
        _ => None,
    }
}

/// Runs one plain request and checks its reply.
fn execute_plain(client: &mut Client, plan: &Plan, op: Op) -> Done {
    let (tenant, query, all) = plan.query(op);
    let reply = call(client, &query_request(tenant, query, all, false));
    let body = body_of(&reply);
    Done {
        ok: body == Some(plan.expected(op).as_str()),
        served: u64::from(body.is_some()),
    }
}

/// Opens a cursor and drains it one answer per `NEXT`, checking the
/// streamed answers against the oracle's.
fn drain_cursor(client: &mut Client, plan: &Plan, index: usize) -> bool {
    let case = &plan.cases[index].case;
    // `CURSOR` is a `QUERY` option: a cursor enumerates by construction.
    let open = call(
        client,
        &query_request(case.name, case.query.to_owned(), false, true),
    );
    let Some(id) = body_of(&open)
        .and_then(|b| b.strip_prefix("cursor="))
        .and_then(|rest| rest.trim_end().parse::<u64>().ok())
    else {
        return false;
    };
    let mut answers = Vec::new();
    // A bound well above any case's answer count: a cursor that never
    // finishes is a failure, not a hang.
    for _ in 0..64 {
        let reply = call(client, &Request::Next { id, count: None });
        let Some(body) = body_of(&reply) else {
            return false;
        };
        let Some((n, done)) = batch_header(body) else {
            return false;
        };
        answers.extend(body.lines().skip(1).take(n).map(str::to_owned));
        if done {
            return answers == plan.cases[index].answers;
        }
    }
    false
}

/// `answers=` and `done=` from a `NEXT` reply's header line.
fn batch_header(body: &str) -> Option<(usize, bool)> {
    let header = body.lines().next()?;
    let field = |key: &str| header.split_whitespace().find_map(|f| f.strip_prefix(key));
    Some((field("answers=")?.parse().ok()?, field("done=")? == "true"))
}

fn execute(client: &mut Client, plan: &Plan, op: Op) -> Done {
    match op {
        Op::Case {
            index,
            cursor: true,
        } => Done {
            ok: drain_cursor(client, plan, index),
            served: 0,
        },
        _ => execute_plain(client, plan, op),
    }
}

/// The benchmark's in-process copy of the server's registry, used by the
/// traced run to replay each served request's parts.
struct Mirror {
    registry: ProgramRegistry,
    config: MachineConfig,
    /// Set-up phase timings and exact counts for the per-layer report.
    layers: Vec<(&'static str, f64)>,
}

impl Mirror {
    /// Publishes the plan's tenants in-process, timing each set-up phase
    /// on its own: compile from source, snapshot restore, registry
    /// publish; and counts the instructions one request retires.
    fn new(plan: &Plan, seed: u64) -> Result<Mirror, String> {
        let config = MachineConfig::default();
        let registry = ProgramRegistry::new(ServeConfig::default().max_programs);
        let mut compile_s = 0.0;
        let mut load_s = 0.0;
        let mut publish_s = 0.0;
        let mut snapshot_bytes = 0;
        for t in &plan.tenants {
            let t0 = Instant::now();
            let clauses = kcm_prolog::read_program(&t.source).map_err(|e| e.to_string())?;
            let mut symbols = kcm_arch::SymbolTable::new();
            kcm_compiler::compile_program(&clauses, &mut symbols).map_err(|e| e.to_string())?;
            compile_s += t0.elapsed().as_secs_f64();
            if let Some(bytes) = &t.snapshot {
                let t0 = Instant::now();
                kcm_arch::snapshot::load(bytes).map_err(|e| e.to_string())?;
                load_s += t0.elapsed().as_secs_f64();
                snapshot_bytes += bytes.len();
            }
            let t0 = Instant::now();
            registry
                .publish(&t.name, t.artifact(), &config, None)
                .map_err(|e| format!("{}: {e}", t.name))?;
            publish_s += t0.elapsed().as_secs_f64();
        }
        let mut mirror = Mirror {
            registry,
            config,
            layers: vec![
                ("kcm_compiler.compile_program_ms", compile_s * 1e3),
                ("kcm_system.registry_publish_ms", publish_s * 1e3),
            ],
        };
        if snapshot_bytes > 0 {
            mirror
                .layers
                .push(("kcm_arch.snapshot_load_ms", load_s * 1e3));
            mirror
                .layers
                .push(("kcm_arch.snapshot_bytes", snapshot_bytes as f64));
        }
        // Exact: the mean over the workload's distinct plain requests
        // (every mix case; the oracle's sample of KB keys).
        let ops: Vec<Op> = match plan.workload {
            Workload::ServeMix => (0..plan.cases.len())
                .map(|index| Op::Case {
                    index,
                    cursor: false,
                })
                .collect(),
            _ => {
                let mut rng = Rng::new(seed);
                (0..ORACLE_SAMPLE)
                    .map(|_| Op::Lookup {
                        key: rng.below(KB_FACTS),
                    })
                    .collect()
            }
        };
        let mut steps = 0;
        for &op in &ops {
            let (tenant, query, all) = plan.query(op);
            let published = mirror.registry.lookup(tenant).map_err(|e| e.to_string())?;
            let outcome = run_session(
                &published.image,
                &published.symbols,
                &mirror.config,
                &QueryJob::with_opts(query, served_opts(all)),
            )
            .map_err(|e| e.to_string())?;
            steps += outcome.stats.instructions;
        }
        mirror
            .layers
            .push(("kcm_native.steps_per_req", steps as f64 / ops.len() as f64));
        Ok(mirror)
    }

    /// Replays a plain request in-process under `rtt`: registry lookup,
    /// `run_session`, then `run_session`'s parts one by one (each
    /// replaying it), then `render_outcome`. Returns whether both the
    /// whole call and the replayed parts rendered the expected body.
    fn replay_query(
        &self,
        tracer: &mut Tracer,
        root: &Root,
        rtt: u64,
        plan: &Plan,
        op: Op,
    ) -> bool {
        let (tenant, query, all) = plan.query(op);
        let (published, _) = tracer.span(root, "kcm_system.registry_lookup", rtt, || {
            self.registry.lookup(tenant)
        });
        let Ok(published) = published else {
            return false;
        };
        let opts = served_opts(all);
        let job = QueryJob::with_opts(query.as_str(), opts.clone());
        let (outcome, session) = tracer.span(root, "kcm_system.run_session", rtt, || {
            run_session(&published.image, &published.symbols, &self.config, &job)
        });
        let (goal, _) = tracer.span(root, "kcm_prolog.read_term", session, || {
            kcm_prolog::read_term(&query)
        });
        let Ok(goal) = goal else { return false };
        let (mut symbols, _) = tracer.span(root, "kcm_arch.symbols_clone", session, || {
            published.symbols.clone()
        });
        let (compiled, _) = tracer.span(root, "kcm_compiler.compile_query", session, || {
            kcm_compiler::compile_query(&published.image, &goal, &mut symbols)
        });
        let Ok((qimage, vars)) = compiled else {
            return false;
        };
        let mut config = self.config.clone();
        opts.apply(&mut config);
        let (mut machine, _) = tracer.span(root, "kcm_native.build", session, || {
            kcm_native::native_machine(qimage, symbols, config)
        });
        let (replayed, _) = tracer.span(root, "kcm_native.run", session, || {
            machine.run_query(&vars, all)
        });
        let Ok(outcome) = outcome else { return false };
        let (body, _) = tracer.span(root, "kcm_serve.render", rtt, || render_outcome(&outcome));
        let expected = plan.expected(op);
        body == expected && replayed.is_ok_and(|r| render_outcome(&r) == expected)
    }

    /// Replays a cursor drain in-process under `rtt`: lookup,
    /// `open_session` (with its parse/clone/compile/build parts replayed),
    /// then one `next_step` and one `render_batch` per answer.
    fn replay_cursor(
        &self,
        tracer: &mut Tracer,
        root: &Root,
        rtt: u64,
        plan: &Plan,
        index: usize,
    ) -> bool {
        let case = &plan.cases[index].case;
        let (published, _) = tracer.span(root, "kcm_system.registry_lookup", rtt, || {
            self.registry.lookup(case.name)
        });
        let Ok(published) = published else {
            return false;
        };
        let opts = served_opts(true);
        let (session, open) = tracer.span(root, "kcm_system.open_session", rtt, || {
            open_session(
                &published.image,
                &published.symbols,
                &self.config,
                case.query,
                &opts,
            )
        });
        let (goal, _) = tracer.span(root, "kcm_prolog.read_term", open, || {
            kcm_prolog::read_term(case.query)
        });
        let Ok(goal) = goal else { return false };
        let (mut symbols, _) = tracer.span(root, "kcm_arch.symbols_clone", open, || {
            published.symbols.clone()
        });
        let (compiled, _) = tracer.span(root, "kcm_compiler.compile_query", open, || {
            kcm_compiler::compile_query(&published.image, &goal, &mut symbols)
        });
        let Ok((qimage, _vars)) = compiled else {
            return false;
        };
        let mut config = self.config.clone();
        opts.apply(&mut config);
        tracer.span(root, "kcm_native.build", open, || {
            kcm_native::native_machine(qimage, symbols, config)
        });
        let Ok(mut session) = session else {
            return false;
        };
        let mut answers = Vec::new();
        loop {
            let (step, _) = tracer.span(root, "kcm_system.next_step", rtt, || session.next_step());
            match step {
                Ok(Some(step)) => {
                    tracer.span(root, "kcm_serve.render", rtt, || {
                        render_batch(
                            0,
                            std::slice::from_ref(&step.solution),
                            false,
                            &step.stats,
                            &step.output,
                        )
                    });
                    answers.push(solution_line(&step.solution));
                }
                Ok(None) => return answers == plan.cases[index].answers,
                Err(_) => return false,
            }
        }
    }
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<ServeMetrics>>,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Cold start: bind, publish every tenant, send the first request. Returns
/// the server, the admin connection, the set-up time to the first reply,
/// the first request and its reply (checked by the caller once the oracle
/// has run, so the oracle's work does not warm the timed start).
fn boot(plan: &Plan, seed: u64) -> Result<(Running, Client, f64, Op, Option<Reply>), String> {
    let first = match plan.workload {
        // A fixed first case, so set-up time does not depend on the seed.
        Workload::ServeMix => Op::Case {
            index: 0,
            cursor: false,
        },
        _ => Gen::new(seed, 0).next(plan),
    };
    let t0 = Instant::now();
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).map_err(io("bind"))?;
    let addr = server.local_addr().map_err(io("local_addr"))?;
    let thread = std::thread::spawn(move || server.run());
    let running = Running { addr, thread };
    let mut admin = Client::connect(addr).map_err(io("connect"))?;
    for t in &plan.tenants {
        let reply = match &t.snapshot {
            Some(bytes) => admin.publish_snapshot(&t.name, bytes, None),
            None => admin.publish(&t.name, &t.source, None),
        }
        .map_err(io("publish"))?;
        if !reply.is_ok() {
            return Err(format!("publish {}: {reply:?}", t.name));
        }
    }
    let (tenant, query, all) = plan.query(first);
    let reply = call(&mut admin, &query_request(tenant, query, all, false));
    let setup_s = t0.elapsed().as_secs_f64();
    Ok((running, admin, setup_s, first, reply))
}

fn stop(running: Running, mut admin: Client) -> Result<(), String> {
    admin.shutdown().map_err(io("shutdown"))?;
    running
        .thread
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(io("server"))?;
    Ok(())
}

/// One cold set-up, timed from before `Server::bind` to the first correct
/// reply.
pub fn setup(workload: Workload, seed: u64) -> Result<f64, String> {
    let mut plan = Plan::new(workload)?;
    let (running, admin, setup_s, first, reply) = boot(&plan, seed)?;
    plan.oracle(seed)?;
    if body_of(&reply) != Some(plan.expected(first).as_str()) {
        return Err(format!("first reply is wrong: {reply:?}"));
    }
    stop(running, admin)?;
    Ok(setup_s)
}

/// The `STATS` counters, by name.
fn stats(admin: &mut Client) -> Result<HashMap<String, u64>, String> {
    let body = admin.stats().map_err(io("STATS"))?;
    Ok(body
        .lines()
        .filter_map(|l| l.split_once('='))
        .filter_map(|(k, v)| Some((k.to_owned(), v.parse().ok()?)))
        .collect())
}

/// What one client thread saw.
#[derive(Default)]
struct ThreadReport {
    reads: u64,
    writes: u64,
    failed: u64,
    served: u64,
    lat_ns: Vec<u64>,
    lat_kind: Vec<u64>,
    write_lat_ns: Vec<u64>,
    write_late_ns: Vec<u64>,
    lat_at_ns: Vec<u64>,
    spans: Vec<trace::Span>,
    /// The host-speed reference, run by the first reader only.
    host: Option<calib::Reference>,
}

impl ThreadReport {
    /// Records a read of `kind` that started at `t0` and has just
    /// completed.
    fn sample(&mut self, epoch: Instant, t0: Instant, kind: u64) {
        self.lat_ns.push(t0.elapsed().as_nanos() as u64);
        self.lat_kind.push(kind);
        self.lat_at_ns
            .push(t0.saturating_duration_since(epoch).as_nanos() as u64);
    }
}

/// A reader connection: a closed loop until `deadline`.
fn reader(
    addr: SocketAddr,
    plan: &Plan,
    mirror: Option<&Mirror>,
    mut gen: Gen,
    epoch: Instant,
    deadline: Instant,
    thread: u64,
) -> ThreadReport {
    let mut out = ThreadReport::default();
    let mut tracer = Tracer::new(epoch, thread);
    let Ok(mut client) = Client::connect(addr) else {
        out.failed += 1;
        return out;
    };
    let mut host = (thread == 1).then(calib::Reference::default);
    while Instant::now() < deadline {
        if let Some(host) = &mut host {
            host.tick(epoch);
        }
        let op = gen.next(plan);
        let t0 = Instant::now();
        let done = match mirror {
            None => {
                let done = execute(&mut client, plan, op);
                out.sample(epoch, t0, op.kind(plan));
                done
            }
            Some(mirror) => {
                let root = tracer.request("perfbench.request");
                let (done, rtt) =
                    tracer.span(&root, "kcm_serve.rtt", 0, || execute(&mut client, plan, op));
                // The round trip only: the replay below is the tracer's
                // own work.
                out.sample(epoch, t0, op.kind(plan));
                let replayed = match op {
                    Op::Case {
                        index,
                        cursor: true,
                    } => mirror.replay_cursor(&mut tracer, &root, rtt, plan, index),
                    _ => mirror.replay_query(&mut tracer, &root, rtt, plan, op),
                };
                tracer.end(root);
                Done {
                    ok: done.ok && replayed,
                    ..done
                }
            }
        };
        out.reads += 1;
        out.served += done.served;
        out.failed += u64::from(!done.ok);
    }
    out.spans = tracer.spans;
    out.host = host;
    out
}

/// The `serve_kb_rw` writer: an open loop at [`WRITES_PER_S`], each
/// update timed from its due time, alternating `ASSERT` and `RETRACT` of
/// the same fact so the KB size stays constant.
fn writer(
    addr: SocketAddr,
    mirror: Option<&Mirror>,
    epoch: Instant,
    deadline: Instant,
    thread: u64,
) -> ThreadReport {
    let mut out = ThreadReport::default();
    let mut tracer = Tracer::new(epoch, thread);
    let Ok(mut client) = Client::connect(addr) else {
        out.failed += 1;
        return out;
    };
    let period = Duration::from_secs_f64(1.0 / WRITES_PER_S);
    for j in 0u32.. {
        let due = epoch + period * j;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.write_late_ns
            .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        let key = u64::from(j / 2);
        let clause = format!("kv(w{key}, v{})", key % KB_VALUES);
        let assert = j % 2 == 0;
        let request = if assert {
            Request::Assert {
                name: "kb".to_owned(),
                clause: clause.clone(),
            }
        } else {
            Request::Retract {
                name: "kb".to_owned(),
                clause: clause.clone(),
            }
        };
        let send = |client: &mut Client| {
            let reply = call(client, &request);
            match body_of(&reply) {
                Some(body) if assert => body.contains("version="),
                Some(body) => body.contains("removed=true"),
                None => false,
            }
        };
        let ok = match mirror {
            None => send(&mut client),
            Some(mirror) => {
                let root = tracer.request("perfbench.write");
                let (ok, rtt) = tracer.span(&root, "kcm_serve.write_rtt", 0, || send(&mut client));
                let replayed = if assert {
                    tracer
                        .span(&root, "kcm_system.registry_assert", rtt, || {
                            mirror.registry.assertz("kb", &clause)
                        })
                        .0
                        .is_ok()
                } else {
                    tracer
                        .span(&root, "kcm_system.registry_retract", rtt, || {
                            mirror.registry.retract("kb", &clause)
                        })
                        .0
                        .is_ok_and(|(_, removed)| removed)
                };
                tracer.end(root);
                ok && replayed
            }
        };
        out.write_lat_ns
            .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        out.writes += 1;
        out.failed += u64::from(!ok);
    }
    out.spans = tracer.spans;
    out
}

/// Untimed warm-up: every kind of request a few times, each checked.
fn warm_up(admin: &mut Client, plan: &Plan, seed: u64) -> Result<(), String> {
    let mut gen = Gen::new(seed, 99);
    let rounds = if plan.workload == Workload::ServeMix {
        3 * (plan.cases.len() + 1)
    } else {
        50
    };
    for _ in 0..rounds {
        let op = gen.next(plan);
        if !execute(admin, plan, op).ok {
            return Err(format!("warm-up request {op:?} answered wrongly"));
        }
    }
    Ok(())
}

/// One measured window of `seconds`.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Report, String> {
    let mut plan = Plan::new(workload)?;
    plan.oracle(seed)?;
    let mirror = if traced {
        Some(Mirror::new(&plan, seed)?)
    } else {
        None
    };
    let (running, mut admin, _, first, reply) = boot(&plan, seed)?;
    if body_of(&reply) != Some(plan.expected(first).as_str()) {
        return Err(format!("first reply is wrong: {reply:?}"));
    }
    warm_up(&mut admin, &plan, seed)?;

    let before = stats(&mut admin)?;
    let usage0 = procfs::usage();
    let alloc0 = alloc::total();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    let readers = if workload == Workload::ServeMix { 2 } else { 1 };
    let addr = running.addr;
    let reports: Vec<ThreadReport> = std::thread::scope(|s| {
        let plan = &plan;
        let mirror = mirror.as_ref();
        let mut handles: Vec<_> = (0..readers)
            .map(|conn| {
                let gen = Gen::new(seed, conn + 1);
                s.spawn(move || reader(addr, plan, mirror, gen, epoch, deadline, conn + 1))
            })
            .collect();
        if workload == Workload::ServeKbRw {
            handles.push(s.spawn(move || writer(addr, mirror, epoch, deadline, readers + 1)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let window_s = epoch.elapsed().as_secs_f64();
    let usage = procfs::usage().since(&usage0);
    let alloc_bytes = alloc::total() - alloc0;
    let after = stats(&mut admin)?;
    stop(running, admin)?;

    let delta =
        |key: &str| after.get(key).copied().unwrap_or(0) - before.get(key).copied().unwrap_or(0);
    let mut report = Report {
        window_s,
        usage,
        alloc_bytes,
        instr: delta("steps"),
        ..Report::default()
    };
    let mut served = 0;
    let mut spans = Vec::new();
    for r in reports {
        report.reads += r.reads;
        report.writes += r.writes;
        report.failed += r.failed;
        report.lat_ns.extend(r.lat_ns);
        report.lat_kind.extend(r.lat_kind);
        report.write_lat_ns.extend(r.write_lat_ns);
        report.write_late_ns.extend(r.write_late_ns);
        report.lat_at_ns.extend(r.lat_at_ns);
        if let Some(host) = r.host {
            report.ref_at_ns = host.at_ns;
            report.ref_unit_ns = host.unit_ns;
            report.ref_cpu_ns = host.cpu_ns;
            report.ref_wall_ns = host.wall_ns;
        }
        served += r.served;
        spans.extend(r.spans);
    }
    // The server must have counted exactly the one-shot answers the
    // clients received; any difference is an accounting failure.
    report.failed += delta("served").abs_diff(served);
    let hits = delta("switch_hits") as f64;
    let misses = delta("switch_misses") as f64;
    report.layers = vec![
        ("kcm_serve.busy", delta("busy") as f64),
        ("kcm_serve.errors", delta("errors") as f64),
        (
            "kcm_serve.switch_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
    ];
    if let Some(mirror) = &mirror {
        report.layers.extend(mirror.layers.iter().copied());
        report.layers.extend(traced_layers(&spans));
        trace::write_spans(&crate::spans_path(workload, seed), &spans)
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(report)
}

/// Per-layer figures from the traced window's spans.
fn traced_layers(spans: &[trace::Span]) -> Vec<(&'static str, f64)> {
    let d = trace::derive(spans, "perfbench.request");
    let mut out = vec![
        ("kcm_serve.rtt_us", d.mean("kcm_serve.rtt")),
        (
            "kcm_system.registry_lookup_us",
            d.mean("kcm_system.registry_lookup"),
        ),
        (
            "kcm_system.run_session_us",
            d.mean("kcm_system.run_session"),
        ),
        ("kcm_prolog.read_term_us", d.mean("kcm_prolog.read_term")),
        (
            "kcm_arch.symbols_clone_us",
            d.mean("kcm_arch.symbols_clone"),
        ),
        (
            "kcm_compiler.compile_query_us",
            d.mean("kcm_compiler.compile_query"),
        ),
        (
            "kcm_compiler.compile_query_alloc_kb",
            d.alloc_kb("kcm_compiler.compile_query"),
        ),
        ("kcm_native.build_us", d.mean("kcm_native.build")),
        ("kcm_native.run_us", d.mean("kcm_native.run")),
        ("kcm_serve.render_us", d.mean("kcm_serve.render")),
        (
            "kcm_system.open_session_us",
            d.mean("kcm_system.open_session"),
        ),
        ("kcm_system.next_step_us", d.mean("kcm_system.next_step")),
        (
            "kcm_system.registry_assert_ms",
            d.mean("kcm_system.registry_assert") / 1e3,
        ),
        (
            "kcm_system.registry_retract_ms",
            d.mean("kcm_system.registry_retract") / 1e3,
        ),
        (
            "kcm_system.unattributed_us",
            d.mean_self("kcm_system.run_session"),
        ),
        // A read's round trip minus its in-process replay (lookup,
        // execution, render): framing, queueing and the event loop.
        ("kcm_serve.overhead_us", d.mean_self("kcm_serve.rtt")),
    ];
    out.extend(d.self_us);
    out
}
