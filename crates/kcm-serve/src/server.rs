//! The query server: one nonblocking readiness loop owning every
//! connection and answering short requests itself, with worker threads
//! time-slicing the long ones.
//!
//! Concurrency layout:
//!
//! * one **event-loop thread** (the caller of [`Server::run`]) owns the
//!   listener and *all* connection sockets, nonblocking, multiplexed
//!   through [`crate::poll::Poller`] (epoll on Linux). Each connection
//!   carries its own [`FrameBuf`] decode state and write buffer, so a
//!   client dribbling a frame one byte per 100 ms costs a buffer slot,
//!   not a thread — 10k idle connections cost ~0 threads;
//! * every `QUERY`, `QUERYALL` and `NEXT` runs its **first quantum on the
//!   loop**: the loop resolves the program, claims its in-flight slot,
//!   runs [`kcm_system::prepare_query`] (or takes the cursor's session)
//!   and then at most [`QUANTUM`] machine steps. A request that finishes
//!   inside them is answered straight from the loop with no thread hop;
//!   that is every KB point lookup (15 steps) and every case of the
//!   standard workload (70 to 2,618 steps). `QUERY … CURSOR` prepares
//!   and arms its session on the loop and runs nothing;
//! * a request still running after its first quantum moves to a fixed
//!   set of **worker threads** as a paused session, with its reply kind
//!   (a one-shot outcome or a cursor batch), its connection token and its
//!   program handle — one `Arc<Published>`, whether a registry tenant or
//!   the connection's `CONSULT`ed program. A worker runs one quantum per
//!   turn and requeues the session, so long queries share a worker
//!   quantum by quantum instead of owning it until their budget trips.
//!   Completions come back over a channel plus a wake pipe byte; the loop
//!   also drains completions on every tick, so a lost wake delays a reply
//!   by at most one tick;
//! * admission is explicit: at most `workers + queue_depth` paused
//!   sessions are in flight. A request that has not finished after its
//!   first quantum past that point answers `BUSY` (a cursor batch that
//!   already holds answers replies with those instead) — backpressure is
//!   visible to clients, never server memory. A request that finishes in
//!   its first quantum never gets a queue `BUSY`, and a worker's requeue
//!   never blocks. While a connection's request is with the workers its
//!   read interest is paused, so a pipelining client is flow-controlled
//!   by TCP. If the connection closes meanwhile (a reset or a socket
//!   error), the request is marked cancelled, and the worker that next
//!   takes it drops it without running it further;
//! * failures stay inside one request: every loop handler and every
//!   worker turn runs under `catch_unwind`. A panic answers the classed
//!   error `internal`, drops the request's session (and its cursor),
//!   releases the busy gate and the in-flight claim, keeps the thread
//!   alive and counts under `panics=` in `STATS`;
//! * published programs live in a shared [`ProgramRegistry`]; `PUBLISH`
//!   and `CONSULT` compile on the loop thread (compilation is brief and
//!   amortized over every query that follows);
//! * **cursors** are suspended [`kcm_system::Solutions`] sessions owned
//!   by the event loop, keyed by a server-global id that is never
//!   reused. A `NEXT` pulls its batch on the loop for one quantum; a
//!   batch that needs more ships the boxed session to the workers and the
//!   completion carries it back. While it is out the cursor table holds
//!   `None`, and the owning connection is `busy`, so no second operation
//!   can touch the session concurrently. A cursor pins its program's
//!   `Arc<Published>`: a
//!   republish under an open cursor compiles a new image while the
//!   cursor keeps streaming the one it opened against. Cursors die four
//!   ways — `CLOSE`, exhaustion (`done=true` auto-releases), a slice
//!   error (budget exhaustion kills the session cleanly), and the idle
//!   reaper that runs on the loop's timed tick; closing a connection
//!   reaps its cursors by construction, so an abandoned cursor can
//!   outlive its client by at most `cursor_idle`.
//!
//! Shutdown is graceful and self-contained: `SHUTDOWN` is handled on the
//! loop itself, which stops accepting, closes idle connections, lets
//! in-flight requests finish and flush, waits for the workers to drop
//! the cancelled requests of connections that went away, then tells
//! each worker to exit. The previous thread-per-connection design had
//! to wake its blocking accept loop by self-connecting to
//! `listener.local_addr()` — the *unspecified* address
//! (`0.0.0.0:<port>`) for typical binds, so the wake could fail and hang
//! the drain. The readiness loop's timed wait is the flag-check tick
//! that replaces it; no self-connect exists to go wrong.

use crate::poll::{Event, Interest, Poller};
use crate::protocol::{encode_frame, render_batch, render_outcome, FrameBuf, Reply, Request};
use kcm_system::registry::{ProgramRegistry, Published, TenantStats};
use kcm_system::{
    error_class, prepare_query, KcmError, MachineConfig, MachineError, PreparedQuery,
    ProgramSource, Quantum, QueryOpts, RunStats, Solution, Solutions, Tier,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The event loop's wait tick: bounds how long a missed wake byte can
/// delay a completion and how stale the drain check can be.
const READ_TICK: Duration = Duration::from_millis(100);

/// Machine steps a served request runs per turn: its first quantum on
/// the event loop, each later one on a worker. Large enough that every
/// short request finishes on the loop (a KB lookup retires 15 steps, the
/// standard workload's longest case 2,618); small enough that a long one
/// holds the loop, or a worker's turn, for a fraction of a millisecond on
/// the native tier.
pub const QUANTUM: u64 = 10_000;

/// Largest batch one `NEXT` may pull; bigger requests are clamped
/// (visible to the client through the reply's `answers=` count).
pub const CURSOR_BATCH_CAP: u64 = 256;

/// Name of the worker threads (visible in `/proc/<pid>/task/*/comm`).
const WORKER_NAME: &str = "kcm-worker";

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the worker wake pipe.
const TOKEN_WAKE: u64 = 1;
/// Connection tokens start here (low 32 bits; generation above).
const FIRST_CONN: u64 = 2;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads time-slicing the requests that outlast their first
    /// quantum on the event loop.
    pub workers: usize,
    /// Paused sessions admitted beyond one per worker: past `workers +
    /// queue_depth` in flight, a request that did not finish in its first
    /// quantum answers `BUSY`.
    pub queue_depth: usize,
    /// Step budget applied to requests that don't carry their own
    /// `BUDGET` (for tenant queries, after the tenant's own publish-time
    /// budget). It is the only deadline a query has: `None` leaves such
    /// requests unbounded.
    pub default_step_budget: Option<u64>,
    /// Capacity of the shared program registry; publishing a new name
    /// into a full registry evicts the least-recently-used tenant.
    pub max_programs: usize,
    /// Execution tier for every served query. Defaults to
    /// [`Tier::Native`]: a service asks "what is the answer", not "how
    /// fast was the 1989 hardware", and the native tier returns identical
    /// solutions, output and error classes several times faster. Set
    /// [`Tier::Cycle`] for fidelity runs where the `STATS` cycle counter
    /// must reflect the simulated machine (it reads 0 under the native
    /// tier; the `steps` counter is the tier-independent work measure).
    pub tier: Tier,
    /// Open cursors allowed per connection; the next `QUERY … CURSOR`
    /// past the cap answers `BUSY` until one is released.
    pub cursors_per_conn: usize,
    /// How long a cursor may sit idle (no `NEXT`/`CLOSE`) before the
    /// loop's tick reaps it. Bounds the suspended-machine memory an
    /// abandoned-but-connected client can pin.
    pub cursor_idle: Duration,
    /// Requests (queries, cursor opens, cursor pulls) running at once per
    /// program — a registry tenant or a connection's `CONSULT`ed program
    /// — whether on the event loop or with the workers; past the cap the
    /// program's requests answer `BUSY` while other programs keep being
    /// served. `None` leaves programs to contend for the shared workers.
    pub tenant_inflight_cap: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            queue_depth: 64,
            default_step_budget: Some(50_000_000),
            max_programs: 64,
            tier: Tier::Native,
            cursors_per_conn: 16,
            cursor_idle: Duration::from_secs(30),
            tenant_inflight_cap: None,
        }
    }
}

/// The server-wide counters [`Server::run`] returns: the aggregate block
/// of `STATS`, read once after the drain. The request counters are the
/// server's total [`TenantStats`], whose fields say what counts; the
/// others belong to no program. `STATS` also prints each tenant's own
/// [`TenantStats`] (`tenant.<name>.<counter>=` lines).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Connections accepted.
    pub connections: u64,
    /// Programs consulted (per-connection session mode).
    pub consults: u64,
    /// Programs published into the shared registry.
    pub publishes: u64,
    /// Queries accepted (a `BUSY` is not counted).
    pub queries: u64,
    /// Queries answered with a completed outcome.
    pub served: u64,
    /// Requests rejected with `BUSY`.
    pub busy: u64,
    /// Requests stopped by the step budget.
    pub budget_stops: u64,
    /// Requests failed with any other error, panics included.
    pub errors: u64,
    /// Requests that panicked, answered with the error class `internal`.
    pub panics: u64,
    /// Queries dropped unrun: their connection closed.
    pub cancelled: u64,
    /// Solutions across served queries and cursor batches.
    pub solutions: u64,
    /// Logical inferences, likewise.
    pub inferences: u64,
    /// Simulated KCM cycles, likewise (0 on the default native tier).
    pub cycles: u64,
    /// Retired machine instructions, likewise (on both tiers), plus those
    /// of the runs the step budget stopped.
    pub steps: u64,
    /// Switch dispatches that found their key, across served queries.
    pub switch_hits: u64,
    /// Switch dispatches that missed their table.
    pub switch_misses: u64,
    /// Switch table probes charged.
    pub switch_probes: u64,
    /// Second-level (depth-2) switch dispatches taken.
    pub switch_depth2: u64,
    /// Cursors opened.
    pub cursors_opened: u64,
    /// `NEXT` batches served from cursors.
    pub cursor_batches: u64,
    /// Answers streamed across all cursor batches.
    pub cursor_answers: u64,
    /// Cursors released by the server rather than the client: idle
    /// reaping plus connection-close cleanup.
    pub cursors_reaped: u64,
}

/// A claimed in-flight slot on a program ([`TenantStats::try_start_inflight`]).
/// Dropping the claim releases the slot, so a request gives its slot back
/// however it ends: answered, rejected, or dropped by a panic. Holding
/// the `Arc` also keeps the program alive across re-publish, eviction and
/// re-consult, and names the program the request's events count against.
struct Claim {
    program: Arc<Published>,
}

impl Drop for Claim {
    fn drop(&mut self) {
        self.program.stats.finish_inflight();
    }
}

/// A served request the machine has not finished, with its reply kind.
enum Task {
    /// A one-shot `QUERY`/`QUERYALL`: an armed run, replied to with its
    /// outcome.
    Query(Box<PreparedQuery>),
    /// A cursor's `NEXT` batch, replied to with the answers pulled.
    Batch(Box<Batch>),
}

/// One `NEXT` batch in progress. The session travels with it: while it
/// is out of the cursor table the entry holds `None`, so nothing else
/// can touch it.
struct Batch {
    cursor_id: u64,
    session: Box<Solutions>,
    /// Answers wanted (already clamped to the batch cap).
    count: u64,
    answers: Vec<Solution>,
    /// The session's totals when the batch began, so the batch reports
    /// its own deltas. Its output needs no such mark: every batch that
    /// replies takes the session's output.
    before_stats: RunStats,
}

/// What one quantum of a task came to.
enum Turn {
    /// The quantum ran out first: the task waits for its next quantum.
    Paused(Task),
    /// The request is finished: its reply, and for a cursor batch the
    /// cursor-table update.
    Done(Reply, Option<CursorReturn>),
}

/// A paused request on the workers' run queue: the task, the connection
/// token (index + generation) its reply belongs to, its program's
/// in-flight claim, and the flag the loop sets when the connection
/// closes (it publishes no other data, so it is stored and loaded
/// `Relaxed`).
struct Paused {
    token: u64,
    task: Task,
    claim: Claim,
    cancelled: Arc<AtomicBool>,
}

/// A finished request on its way back from a worker to the event loop.
struct Completion {
    token: u64,
    /// The encoded reply payload (rendered on the worker; the loop only
    /// frames and writes it).
    payload: Vec<u8>,
    /// Present when the request was a cursor batch.
    cursor: Option<CursorReturn>,
}

/// The cursor-table update a finished batch carries: `Some` session means
/// "park it back under `id`"; `None` means the cursor is finished
/// (enumeration exhausted, or a slice error or a panic killed it) and the
/// entry should be removed.
struct CursorReturn {
    id: u64,
    session: Option<Box<Solutions>>,
}

struct Shared {
    cfg: ServeConfig,
    /// The request counters summed over every program, plus the
    /// requests that never resolved one.
    total: TenantStats,
    /// Connections accepted.
    connections: AtomicU64,
    /// Programs consulted.
    consults: AtomicU64,
    /// Programs published.
    publishes: AtomicU64,
    /// Cursors released by the server: idle, or their connection closed.
    cursors_reaped: AtomicU64,
    registry: ProgramRegistry,
    /// Armed fault injections (unit tests only).
    #[cfg(test)]
    faults: tests::Faults,
}

impl Shared {
    /// Counts one request event in the server total and, when the
    /// request's program is known, in the program's counters. Every
    /// count lands before the request's reply is queued.
    fn count(&self, program: Option<&TenantStats>, event: impl Fn(&TenantStats)) {
        event(&self.total);
        if let Some(program) = program {
            event(program);
        }
    }
}

/// A bound, not-yet-running query server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    jobs: Sender<Option<Paused>>,
    done_rx: Receiver<Completion>,
    wake_rx: UnixStream,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` and spawns the worker threads. `addr` may name port 0
    /// for an ephemeral port; read it back with [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        // The run queue: paused sessions, plus one `None` per worker at
        // shutdown. It needs no bound of its own, because admission caps
        // the paused sessions in flight; so a worker's requeue never
        // blocks.
        let (job_tx, job_rx) = mpsc::channel::<Option<Paused>>();
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        // Both ends nonblocking: the loop drains without blocking, and a
        // worker whose wake byte won't fit (pipe already full of wakes)
        // just drops it — the pending byte or the tick wakes the loop.
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            registry: ProgramRegistry::new(cfg.max_programs),
            total: TenantStats::default(),
            connections: AtomicU64::new(0),
            consults: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            cursors_reaped: AtomicU64::new(0),
            cfg,
            #[cfg(test)]
            faults: tests::Faults::default(),
        });
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let requeue = job_tx.clone();
                let shared = Arc::clone(&shared);
                let done_tx = done_tx.clone();
                let wake_tx = wake_tx.try_clone()?;
                std::thread::Builder::new()
                    .name(WORKER_NAME.to_owned())
                    .spawn(move || worker_loop(&job_rx, &requeue, &shared, &done_tx, &wake_tx))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Server {
            listener,
            shared,
            jobs: job_tx,
            done_rx,
            wake_rx,
            workers,
        })
    }

    /// The bound address (the actual port when bound ephemeral).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a client sends SHUTDOWN, then drains and returns the
    /// final metrics. The calling thread *is* the event loop; no threads
    /// are spawned per connection.
    ///
    /// # Errors
    ///
    /// Propagates listener/poller socket errors; per-connection errors
    /// only end that connection.
    pub fn run(self) -> std::io::Result<ServeMetrics> {
        let Server {
            listener,
            shared,
            jobs,
            done_rx,
            wake_rx,
            workers,
        } = self;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        let mut el = EventLoop {
            listener,
            poller,
            shared: Arc::clone(&shared),
            jobs,
            done_rx,
            wake_rx,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            cursors: HashMap::new(),
            next_cursor_id: 1,
            in_flight: 0,
            shutting_down: false,
            accepting: true,
            rbuf: vec![0; READ_CHUNK].into_boxed_slice(),
        };
        el.run_loop()?;
        // Every connection is gone, but requests of connections that
        // closed mid-request may still be on the workers' queue, marked
        // cancelled: let the workers drop them (their completions have no
        // one to go to), then tell each worker to exit.
        while el.in_flight > 0 && el.done_rx.recv().is_ok() {
            el.in_flight -= 1;
        }
        for _ in &workers {
            let _ = el.jobs.send(None);
        }
        for w in workers {
            let _ = w.join();
        }
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let t = &shared.total;
        Ok(ServeMetrics {
            connections: get(&shared.connections),
            consults: get(&shared.consults),
            publishes: get(&shared.publishes),
            queries: get(&t.queries),
            served: get(&t.served),
            busy: get(&t.busy),
            budget_stops: get(&t.budget_stops),
            errors: get(&t.errors),
            panics: get(&t.panics),
            cancelled: get(&t.cancelled),
            solutions: get(&t.solutions),
            inferences: get(&t.inferences),
            cycles: get(&t.cycles),
            steps: get(&t.steps),
            switch_hits: get(&t.switch_hits),
            switch_misses: get(&t.switch_misses),
            switch_probes: get(&t.switch_probes),
            switch_depth2: get(&t.switch_depth2),
            cursors_opened: get(&t.cursors_opened),
            cursor_batches: get(&t.cursor_batches),
            cursor_answers: get(&t.cursor_answers),
            cursors_reaped: get(&shared.cursors_reaped),
        })
    }
}

/// One connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Incremental frame decoder: partial length lines and payloads
    /// survive across readiness events by construction.
    frames: FrameBuf,
    /// Pending reply bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    /// This connection's `CONSULT`ed program: loaded like a registry
    /// tenant but never inserted into the registry, so it is private to
    /// the connection and can be neither evicted nor named.
    program: Option<Arc<Published>>,
    /// The cancel flag of this connection's request with the workers,
    /// while it has one (the request outlasted its first quantum): reads
    /// are paused and no further frame is processed until its
    /// completion, preserving per-connection FIFO order. Closing the
    /// connection sets the flag.
    busy: Option<Arc<AtomicBool>>,
    /// The peer sent EOF (or SHUTDOWN ended the session): no more input
    /// will be processed; close once in-flight work has flushed.
    read_closed: bool,
    /// The interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    fn desired_interest(&self) -> Interest {
        Interest {
            readable: self.busy.is_none() && !self.read_closed,
            writable: self.pending_write(),
        }
    }
}

/// A connection slot with a generation counter, so a completion for a
/// closed connection can never be delivered to the slot's next tenant.
struct Entry {
    conn: Option<Conn>,
    gen: u32,
}

fn token_of(index: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | (index as u64 + FIRST_CONN)
}

/// One suspended enumeration owned by the event loop.
struct Cursor {
    /// Connection token of the opener; `NEXT`/`CLOSE` from anyone else
    /// answer "unknown cursor" (ids are unguessable only by volume, but
    /// the owner check makes cross-connection probing inert).
    owner: u64,
    /// The suspended session; `None` while a worker holds it. Because
    /// the owning connection is `busy` whenever that is the case, and
    /// only the owner can address the cursor, `None` is never observable
    /// by a request that passes the owner check — except through a
    /// closed-then-reused id, which the never-reused id space rules out.
    session: Option<Box<Solutions>>,
    /// Pinned program handle (keeps the image alive across republish, and
    /// names the program its batches count against).
    program: Arc<Published>,
    /// Last open/pull touch, for the idle reaper. A session paused
    /// mid-pull (its batch replied early under a full queue) idles and is
    /// reaped like any other.
    last_used: Instant,
}

struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    shared: Arc<Shared>,
    /// The workers' run queue.
    jobs: Sender<Option<Paused>>,
    done_rx: Receiver<Completion>,
    wake_rx: UnixStream,
    slots: Vec<Entry>,
    free: Vec<usize>,
    live: usize,
    /// Open cursors by id. Entries whose `session` is `None` have their
    /// batch with the workers.
    cursors: HashMap<u64, Cursor>,
    /// Next cursor id; monotonically increasing, never reused, so a
    /// stale `NEXT` can never address a newer cursor.
    next_cursor_id: u64,
    /// Paused sessions handed to the workers whose completion the loop
    /// has not drained yet: the admission count.
    in_flight: usize,
    shutting_down: bool,
    accepting: bool,
    /// The socket read buffer, one for the loop's life.
    rbuf: Box<[u8]>,
}

/// Bytes one socket read takes at most.
const READ_CHUNK: usize = 16 * 1024;

impl EventLoop {
    fn run_loop(&mut self) -> std::io::Result<()> {
        // One event list for the loop's life: each pass drains it and
        // the next wait refills it.
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.poller.wait(&mut events, READ_TICK)?;
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready()?,
                    TOKEN_WAKE => self.drain_wake(),
                    token => self.conn_ready(token, ev),
                }
            }
            // Completions are drained every pass regardless of wake
            // bytes: the timed wait above is the fallback that makes a
            // lost wake a latency blip, not a hang.
            self.drain_completions();
            self.reap_idle_cursors();
            if self.shutting_down {
                self.sweep_for_drain();
                if self.live == 0 {
                    return Ok(());
                }
            }
        }
    }

    fn accept_ready(&mut self) -> std::io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shutting_down {
                        continue; // drop it: no new sessions during drain
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.shared.connections.fetch_add(1, Ordering::Relaxed);
                    let conn = Conn {
                        stream,
                        frames: FrameBuf::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        program: None,
                        busy: None,
                        read_closed: false,
                        interest: Interest::READ,
                    };
                    let index = match self.free.pop() {
                        Some(i) => i,
                        None => {
                            self.slots.push(Entry { conn: None, gen: 0 });
                            self.slots.len() - 1
                        }
                    };
                    let token = token_of(index, self.slots[index].gen);
                    if self
                        .poller
                        .add(conn.stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        self.free.push(index);
                        continue;
                    }
                    self.slots[index].conn = Some(conn);
                    self.live += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Per-connection accept failures (e.g. the peer reset
                // before we got to it) are not server errors.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::ConnectionReset
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 4096];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return, // all wake writers gone
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    /// Decodes a connection token; `None` for a stale generation (the
    /// connection closed and the slot moved on).
    fn take_conn(&mut self, token: u64) -> Option<(usize, Conn)> {
        let index = usize::try_from(token & 0xffff_ffff).ok()?.checked_sub(2)?;
        let gen = (token >> 32) as u32;
        let entry = self.slots.get_mut(index)?;
        if entry.gen != gen {
            return None;
        }
        entry.conn.take().map(|c| (index, c))
    }

    /// Returns a connection to its slot, refreshing its poller interest,
    /// or closes it if `keep` is false.
    fn park_conn(&mut self, index: usize, mut conn: Conn, keep: bool) {
        if !keep {
            self.close_slot(index, &conn);
            return;
        }
        let desired = conn.desired_interest();
        if desired != conn.interest {
            let token = token_of(index, self.slots[index].gen);
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_err()
            {
                // Can't watch it any more: drop the connection.
                self.close_slot(index, &conn);
                return;
            }
            conn.interest = desired;
        }
        self.slots[index].conn = Some(conn);
    }

    /// Closes a connection's slot: unregisters the socket, cancels the
    /// request it has with the workers, reaps every cursor it owned (an
    /// in-flight pull's session comes back to a missing entry and is
    /// dropped there), and retires the slot's generation so stale events
    /// and completions miss.
    fn close_slot(&mut self, index: usize, conn: &Conn) {
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        if let Some(cancelled) = &conn.busy {
            cancelled.store(true, Ordering::Relaxed);
        }
        // The owner token must be computed before the generation bump.
        let token = token_of(index, self.slots[index].gen);
        let before = self.cursors.len();
        self.cursors.retain(|_, c| c.owner != token);
        let reaped = (before - self.cursors.len()) as u64;
        self.shared
            .cursors_reaped
            .fetch_add(reaped, Ordering::Relaxed);
        self.slots[index].gen = self.slots[index].gen.wrapping_add(1);
        self.free.push(index);
        self.live -= 1;
    }

    /// Reaps cursors idle past the configured deadline. Entries with a
    /// pull in flight (`session: None`) are skipped — their `last_used`
    /// refreshes when the session parks back.
    fn reap_idle_cursors(&mut self) {
        let idle = self.shared.cfg.cursor_idle;
        let before = self.cursors.len();
        self.cursors
            .retain(|_, c| c.session.is_none() || c.last_used.elapsed() <= idle);
        let reaped = (before - self.cursors.len()) as u64;
        self.shared
            .cursors_reaped
            .fetch_add(reaped, Ordering::Relaxed);
    }

    fn conn_ready(&mut self, token: u64, ev: Event) {
        let Some((index, mut conn)) = self.take_conn(token) else {
            return; // stale event for a closed connection
        };
        let mut keep = true;
        if ev.readable || ev.hangup {
            keep = self.do_read(&mut conn, token);
        }
        if keep && ev.writable && conn.pending_write() {
            keep = flush(&mut conn).is_ok();
        }
        if keep && conn.read_closed && conn.busy.is_none() && !conn.pending_write() {
            keep = false;
        }
        self.park_conn(index, conn, keep);
    }

    /// Reads whatever the socket has, feeds the decoder, and processes
    /// complete frames. Returns whether the connection stays open.
    fn do_read(&mut self, conn: &mut Conn, token: u64) -> bool {
        let buf = &mut self.rbuf;
        loop {
            match conn.stream.read(buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.frames.feed(&buf[..n]);
                    if n < buf.len() {
                        break; // likely drained; level-trigger re-reports
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        self.pump(conn, token)
    }

    /// Processes buffered complete frames while the connection has no
    /// request in flight. Returns whether the connection stays open.
    fn pump(&mut self, conn: &mut Conn, token: u64) -> bool {
        while conn.busy.is_none() {
            match conn.frames.next_frame() {
                Ok(Some(payload)) => {
                    let handled = panic::catch_unwind(AssertUnwindSafe(|| {
                        self.handle_frame(conn, token, &payload)
                    }));
                    let keep = match handled {
                        Ok(keep) => keep,
                        Err(cause) => self.contain_panic(conn, token, cause.as_ref()),
                    };
                    if !keep {
                        return false;
                    }
                }
                Ok(None) => break,
                // Framing errors have no resynchronization point; the
                // connection is the unit of failure.
                Err(_) => return false,
            }
        }
        true
    }

    /// Answers a request whose handler panicked. The unwind already
    /// dropped what the handler owned: the request's session and its
    /// in-flight claim. A `NEXT` had taken its session out of the cursor
    /// table, so the connection's sessionless cursors are removed (the
    /// connection is not busy, so none of them has a batch with the
    /// workers). The connection stays open for its next request.
    fn contain_panic(
        &mut self,
        conn: &mut Conn,
        token: u64,
        cause: &(dyn std::any::Any + Send),
    ) -> bool {
        self.cursors
            .retain(|_, c| c.owner != token || c.session.is_some());
        queue_reply(conn, &panic_reply(&self.shared, None, cause).encode()).is_ok()
    }

    /// Handles one request frame. Returns whether the connection stays
    /// open.
    fn handle_frame(&mut self, conn: &mut Conn, token: u64, payload: &[u8]) -> bool {
        let request = match Request::parse(payload) {
            Ok(request) => request,
            Err(why) => {
                let reply = Reply::Err {
                    class: "protocol".to_owned(),
                    message: why,
                };
                return queue_reply(conn, &reply.encode()).is_ok();
            }
        };
        let reply = match request {
            Request::Consult { source } => {
                // CONSULT replaces the connection's program (Kcm::load
                // *adds* clauses; a service client re-sending its program
                // wants idempotence, not accumulation). The program is
                // unnamed: only this connection can reach it.
                match Published::load("", source.as_str(), None) {
                    Ok(program) => {
                        conn.program = Some(Arc::new(program));
                        self.shared.consults.fetch_add(1, Ordering::Relaxed);
                        Reply::Ok {
                            body: String::new(),
                        }
                    }
                    Err(e) => error_reply(&e, 0, &self.shared, None),
                }
            }
            Request::Publish {
                name,
                source,
                step_budget,
            } => self.do_publish(&name, ProgramSource::Source(&source), step_budget),
            Request::PublishSnapshot {
                name,
                snapshot,
                step_budget,
            } => self.do_publish(&name, ProgramSource::Snapshot(&snapshot), step_budget),
            // Artifact export and incremental updates run on the loop
            // thread like PUBLISH/CONSULT do: serialization and
            // patch-or-relink are brief next to query execution, and the
            // registry's copy-on-write update means in-flight queries
            // never see a half-updated image.
            Request::Snapshot { name } => match self.shared.registry.snapshot(&name) {
                Ok(bytes) => Reply::Snapshot { bytes },
                Err(e) => error_reply(&e, 0, &self.shared, None),
            },
            Request::Assert { name, clause } => {
                match self.shared.registry.assertz(&name, &clause) {
                    Ok(receipt) => Reply::Ok {
                        body: format!("name={name}\nversion={}\n", receipt.version),
                    },
                    Err(e) => error_reply(&e, 0, &self.shared, None),
                }
            }
            Request::Retract { name, clause } => {
                match self.shared.registry.retract(&name, &clause) {
                    Ok((receipt, removed)) => Reply::Ok {
                        body: format!(
                            "name={name}\nversion={}\nremoved={removed}\n",
                            receipt.version
                        ),
                    },
                    Err(e) => error_reply(&e, 0, &self.shared, None),
                }
            }
            Request::Stats => Reply::Ok {
                body: stats_body(&self.shared, self.cursors.len()),
            },
            Request::Shutdown => {
                self.shutting_down = true;
                if self.accepting {
                    let _ = self.poller.remove(self.listener.as_raw_fd());
                    self.accepting = false;
                }
                // The session ends with the acknowledgement: close once
                // the OK has flushed.
                conn.read_closed = true;
                Reply::Ok {
                    body: String::new(),
                }
            }
            Request::Query {
                tenant,
                query,
                enumerate_all,
                step_budget,
                cursor,
            } => {
                let outcome = if cursor {
                    Some(self.open_cursor(conn, token, tenant, &query, step_budget))
                } else {
                    self.dispatch_query(conn, token, tenant, &query, enumerate_all, step_budget)
                };
                match outcome {
                    None => return true, // with the workers: the reply comes from there
                    Some(reply) => reply,
                }
            }
            Request::Next { id, count } => match self.dispatch_next(conn, token, id, count) {
                None => return true,
                Some(reply) => reply,
            },
            Request::Close { id } => match self.cursors.get(&id) {
                // The owner gate means the in-flight case is unreachable
                // here (the owner is busy while its pull is out), so a
                // matching entry always holds its session and can be
                // dropped outright.
                Some(c) if c.owner == token => {
                    self.cursors.remove(&id);
                    Reply::Ok {
                        body: format!("closed={id}\n"),
                    }
                }
                _ => unknown_cursor(id),
            },
        };
        queue_reply(conn, &reply.encode()).is_ok()
    }

    /// Publishes one program artifact — source text or binary snapshot —
    /// into the shared registry and renders the receipt.
    fn do_publish(&self, name: &str, source: ProgramSource<'_>, step_budget: Option<u64>) -> Reply {
        match self
            .shared
            .registry
            .publish(name, source, &MachineConfig::default(), step_budget)
        {
            Ok(receipt) => {
                self.shared.publishes.fetch_add(1, Ordering::Relaxed);
                let mut body = format!("name={name}\nversion={}\n", receipt.version);
                if let Some(evicted) = receipt.evicted {
                    body.push_str(&format!("evicted={evicted}\n"));
                }
                Reply::Ok { body }
            }
            Err(e) => error_reply(&e, 0, &self.shared, None),
        }
    }

    /// Resolves the program a query addresses — the registry entry when a
    /// tenant is named, the connection's consulted program otherwise —
    /// and its step budget, with the priority request > program >
    /// server default (a consulted program carries no budget of its own).
    fn resolve_program(
        &self,
        conn: &Conn,
        tenant: Option<&str>,
        step_budget: Option<u64>,
    ) -> Result<(Arc<Published>, Option<u64>), Reply> {
        let program = match tenant {
            Some(name) => self
                .shared
                .registry
                .lookup(name)
                .map_err(|e| error_reply(&e, 0, &self.shared, None))?,
            None => conn
                .program
                .clone()
                .ok_or_else(|| error_reply(&KcmError::NoProgram, 0, &self.shared, None))?,
        };
        let budget = step_budget
            .or(program.step_budget)
            .or(self.shared.cfg.default_step_budget);
        Ok((program, budget))
    }

    /// Claims an in-flight slot on a resolved program. `None` has
    /// already been counted as a BUSY.
    fn claim_inflight(&self, program: &Arc<Published>) -> Option<Claim> {
        if program
            .stats
            .try_start_inflight(self.shared.cfg.tenant_inflight_cap)
        {
            return Some(Claim {
                program: Arc::clone(program),
            });
        }
        self.shared
            .count(Some(&program.stats), TenantStats::on_busy);
        None
    }

    /// Runs a task's first quantum on the loop. A finished request
    /// returns its reply; one that needs more quanta goes to the workers
    /// if a paused session can be admitted (`None`: the reply comes from
    /// there), and otherwise answers `BUSY` — or, for a cursor batch
    /// that already holds answers, replies with those and parks the
    /// session, paused mid-pull, back in its cursor.
    fn first_quantum(
        &mut self,
        conn: &mut Conn,
        token: u64,
        task: Task,
        claim: Claim,
    ) -> Option<Reply> {
        #[cfg(test)]
        tests::inject(&self.shared.faults.loop_quanta);
        let task = match run_turn(task, &self.shared, &claim.program.stats) {
            Turn::Done(reply, cursor) => {
                drop(claim);
                if let Some(ret) = cursor {
                    self.settle_cursor(ret);
                }
                return Some(reply);
            }
            Turn::Paused(task) => task,
        };
        let cfg = &self.shared.cfg;
        if self.in_flight < cfg.workers.max(1) + cfg.queue_depth {
            // The receiver lives as long as the workers, which outlive
            // the loop, so the send cannot fail.
            let cancelled = Arc::new(AtomicBool::new(false));
            conn.busy = Some(Arc::clone(&cancelled));
            let _ = self.jobs.send(Some(Paused {
                token,
                task,
                claim,
                cancelled,
            }));
            self.in_flight += 1;
            return None;
        }
        match task {
            Task::Batch(batch) if !batch.answers.is_empty() => {
                let (reply, ret) = batch.finish(false, None, &self.shared, &claim.program.stats);
                drop(claim);
                self.settle_cursor(ret);
                Some(reply)
            }
            task => {
                if let Task::Batch(batch) = task {
                    self.settle_cursor(CursorReturn {
                        id: batch.cursor_id,
                        session: Some(batch.session),
                    });
                }
                self.shared
                    .count(Some(&claim.program.stats), TenantStats::on_busy);
                Some(Reply::Busy)
            }
        }
    }

    /// Runs a query: resolves its program, claims the program's in-flight
    /// slot, prepares it and runs its first quantum (see
    /// [`EventLoop::first_quantum`]). `None` means it went to the workers.
    fn dispatch_query(
        &mut self,
        conn: &mut Conn,
        token: u64,
        tenant: Option<String>,
        query: &str,
        enumerate_all: bool,
        step_budget: Option<u64>,
    ) -> Option<Reply> {
        let (program, budget) = match self.resolve_program(conn, tenant.as_deref(), step_budget) {
            Ok(r) => r,
            Err(reply) => return Some(reply),
        };
        let Some(claim) = self.claim_inflight(&program) else {
            return Some(Reply::Busy);
        };
        let reply = match self.prepare(&program, query, enumerate_all, budget) {
            Ok(mut prepared) => match prepared.begin_run(enumerate_all) {
                Ok(()) => self.first_quantum(conn, token, Task::Query(Box::new(prepared)), claim),
                Err(e) => Some(error_reply(&e, 0, &self.shared, Some(&program.stats))),
            },
            Err(e) => Some(error_reply(&e, 0, &self.shared, Some(&program.stats))),
        };
        if !matches!(reply, Some(Reply::Busy)) {
            self.shared
                .count(Some(&program.stats), TenantStats::on_query);
        }
        reply
    }

    /// [`prepare_query`] against a resolved program, under the default
    /// machine configuration, the server's tier and the request's budget.
    fn prepare(
        &self,
        program: &Published,
        query: &str,
        enumerate_all: bool,
        step_budget: Option<u64>,
    ) -> Result<PreparedQuery, KcmError> {
        let opts = QueryOpts {
            enumerate_all,
            step_budget,
            trace: 0,
            tier: self.shared.cfg.tier,
        };
        prepare_query(
            &program.image,
            &program.symbols,
            &MachineConfig::default(),
            query,
            &opts,
        )
    }

    /// Opens a cursor on the loop: prepares the query and arms its
    /// session, running nothing, and parks it under a fresh id.
    fn open_cursor(
        &mut self,
        conn: &Conn,
        token: u64,
        tenant: Option<String>,
        query: &str,
        step_budget: Option<u64>,
    ) -> Reply {
        let open_here = self.cursors.values().filter(|c| c.owner == token).count();
        if open_here >= self.shared.cfg.cursors_per_conn {
            self.shared.count(None, TenantStats::on_busy);
            return Reply::Busy;
        }
        let (program, budget) = match self.resolve_program(conn, tenant.as_deref(), step_budget) {
            Ok(r) => r,
            Err(reply) => return reply,
        };
        let Some(claim) = self.claim_inflight(&program) else {
            return Reply::Busy;
        };
        // A session enumerates by construction.
        let session = self
            .prepare(&program, query, true, budget)
            .and_then(PreparedQuery::into_session);
        drop(claim);
        self.shared
            .count(Some(&program.stats), TenantStats::on_query);
        match session {
            Ok(session) => {
                self.shared
                    .count(Some(&program.stats), TenantStats::on_cursor);
                let cursor_id = self.next_cursor_id;
                self.next_cursor_id += 1;
                self.cursors.insert(
                    cursor_id,
                    Cursor {
                        owner: token,
                        session: Some(Box::new(session)),
                        program,
                        last_used: Instant::now(),
                    },
                );
                Reply::Ok {
                    body: format!("cursor={cursor_id}\n"),
                }
            }
            Err(e) => error_reply(&e, 0, &self.shared, Some(&program.stats)),
        }
    }

    /// Pulls a cursor batch: takes the session out of the cursor table
    /// and runs the batch's first quantum (see
    /// [`EventLoop::first_quantum`]). `None` means it went to the workers.
    fn dispatch_next(
        &mut self,
        conn: &mut Conn,
        token: u64,
        id: u64,
        count: Option<u64>,
    ) -> Option<Reply> {
        let Some(cursor) = self.cursors.get_mut(&id) else {
            return Some(unknown_cursor(id));
        };
        if cursor.owner != token {
            return Some(unknown_cursor(id));
        }
        let Some(session) = cursor.session.take() else {
            // Unreachable through the protocol (the owner is busy while
            // its batch is out); answer BUSY rather than corrupt state.
            return Some(Reply::Busy);
        };
        cursor.last_used = Instant::now();
        let program = Arc::clone(&cursor.program);
        let Some(claim) = self.claim_inflight(&program) else {
            // Re-borrow: claim_inflight released the map borrow.
            if let Some(c) = self.cursors.get_mut(&id) {
                c.session = Some(session);
            }
            return Some(Reply::Busy);
        };
        let count = count.unwrap_or(1).min(CURSOR_BATCH_CAP);
        let batch = Batch {
            cursor_id: id,
            before_stats: *session.totals(),
            session,
            count,
            answers: Vec::new(),
        };
        self.first_quantum(conn, token, Task::Batch(Box::new(batch)), claim)
    }

    /// Applies a finished batch's cursor-table update. A session coming
    /// back to a missing entry (its owner closed, and `close_slot` reaped
    /// the entry) is dropped here.
    fn settle_cursor(&mut self, ret: CursorReturn) {
        match ret.session {
            Some(session) => {
                if let Some(cursor) = self.cursors.get_mut(&ret.id) {
                    cursor.session = Some(session);
                    cursor.last_used = Instant::now();
                }
            }
            None => {
                self.cursors.remove(&ret.id);
            }
        }
    }

    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.in_flight -= 1;
            // Settle the cursor table before the connection: even if the
            // connection is gone, a returning session must be parked or
            // dropped, never leaked in the channel.
            if let Some(ret) = done.cursor {
                self.settle_cursor(ret);
            }
            let Some((index, mut conn)) = self.take_conn(done.token) else {
                continue; // the connection went away; the work still counted
            };
            conn.busy = None;
            let mut keep = queue_reply(&mut conn, &done.payload).is_ok();
            if keep {
                keep = self.pump(&mut conn, done.token);
            }
            if keep && conn.read_closed && conn.busy.is_none() && !conn.pending_write() {
                keep = false;
            }
            self.park_conn(index, conn, keep);
        }
    }

    /// During shutdown: close every connection that has nothing left to
    /// deliver. Busy connections finish their in-flight request first.
    fn sweep_for_drain(&mut self) {
        for index in 0..self.slots.len() {
            let Some(conn) = self.slots[index].conn.take() else {
                continue;
            };
            if conn.busy.is_none() && !conn.pending_write() {
                self.park_conn(index, conn, false);
            } else {
                self.slots[index].conn = Some(conn);
            }
        }
    }
}

/// Appends a framed reply to the connection's write buffer and pushes
/// as much as the socket will take.
fn queue_reply(conn: &mut Conn, payload: &[u8]) -> std::io::Result<()> {
    conn.wbuf.extend_from_slice(&encode_frame(payload));
    flush(conn)
}

/// Writes pending bytes until the socket would block.
fn flush(conn: &mut Conn) -> std::io::Result<()> {
    while conn.pending_write() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted no bytes",
                ))
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if !conn.pending_write() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    Ok(())
}

/// The reply for a `NEXT`/`CLOSE` that doesn't address a live cursor the
/// requester owns — one message for missing, closed, expired, and
/// someone-else's ids alike.
fn unknown_cursor(id: u64) -> Reply {
    Reply::Err {
        class: "protocol".to_owned(),
        message: format!("unknown cursor {id}"),
    }
}

/// One worker: takes paused sessions off the run queue, runs one
/// quantum per turn, and requeues the session or sends its completion.
/// Each turn runs under `catch_unwind`: a panic drops the session (the
/// unwind frees its machine), answers `internal`, releases the in-flight
/// claim and keeps the worker alive. A session whose connection closed
/// is dropped without a turn, and its completion, which no connection
/// will read, still goes back so the loop's in-flight count drains. A
/// `None` on the queue means exit.
fn worker_loop(
    rx: &Mutex<Receiver<Option<Paused>>>,
    requeue: &Sender<Option<Paused>>,
    shared: &Shared,
    done_tx: &mpsc::Sender<Completion>,
    wake_tx: &UnixStream,
) {
    loop {
        // Hold the lock only to pop; run the quantum outside it.
        let received = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(Some(Paused {
            token,
            task,
            claim,
            cancelled,
        })) = received
        else {
            return;
        };
        // The cursor-table update of a batch that ends without its
        // session: cancelled, or killed by a panic.
        let dead_cursor = match &task {
            Task::Batch(batch) => Some(CursorReturn {
                id: batch.cursor_id,
                session: None,
            }),
            Task::Query(_) => None,
        };
        let (payload, cursor) = if cancelled.load(Ordering::Relaxed) {
            // No one will read a reply: drop the session unrun. A batch's
            // cursor was counted when its connection's close reaped it.
            if let Task::Query(_) = task {
                shared.count(Some(&claim.program.stats), TenantStats::on_cancelled);
            }
            drop(task);
            (Vec::new(), dead_cursor)
        } else {
            let turn = panic::catch_unwind(AssertUnwindSafe(|| {
                #[cfg(test)]
                tests::inject(&shared.faults.worker_turns);
                run_turn(task, shared, &claim.program.stats)
            }));
            let (reply, cursor) = match turn {
                Ok(Turn::Paused(task)) => {
                    // The loop keeps its own sender, so the queue is open.
                    let _ = requeue.send(Some(Paused {
                        token,
                        task,
                        claim,
                        cancelled,
                    }));
                    continue;
                }
                Ok(Turn::Done(reply, cursor)) => (reply, cursor),
                Err(cause) => {
                    let reply = panic_reply(shared, Some(&claim.program.stats), cause.as_ref());
                    (reply, dead_cursor)
                }
            };
            (reply.encode(), cursor)
        };
        // Release the in-flight slot before the reply can reach the
        // client, so a client that reads it sees the slot free.
        drop(claim);
        let done = Completion {
            token,
            payload,
            cursor,
        };
        // A gone connection is fine: the loop drops completions with
        // stale tokens.
        let _ = done_tx.send(done);
        // Best-effort wake: if the pipe is full a wake is already
        // pending, and the loop's tick catches anything else.
        let _ = (&*wake_tx).write(&[1]);
    }
}

/// Runs one quantum of a task, on the loop or a worker, and renders the
/// reply of a finished request, counting it in the server total and the
/// program's counters.
fn run_turn(task: Task, shared: &Shared, stats: &TenantStats) -> Turn {
    match task {
        Task::Query(mut query) => match query.run_quantum(QUANTUM) {
            Ok(Quantum::Paused) => Turn::Paused(Task::Query(query)),
            Ok(Quantum::Done(outcome)) => {
                shared.count(Some(stats), |s| s.on_served(&outcome));
                let body = render_outcome(&outcome);
                Turn::Done(Reply::Ok { body }, None)
            }
            Err(e) => Turn::Done(error_reply(&e, 0, shared, Some(stats)), None),
        },
        Task::Batch(mut batch) => {
            // One quantum spans the batch's pulls: each pull gets what the
            // earlier ones left. A pull that began in an earlier turn
            // reports its whole length, so this undercounts what is left,
            // never over.
            let mut left = QUANTUM;
            let mut exhausted = false;
            let mut failure = None;
            while (batch.answers.len() as u64) < batch.count {
                if left == 0 {
                    return Turn::Paused(Task::Batch(batch));
                }
                match batch.session.next_step_quantum(left) {
                    Ok(Quantum::Paused) => return Turn::Paused(Task::Batch(batch)),
                    Ok(Quantum::Done(Some(step))) => {
                        left = left.saturating_sub(step.stats.instructions);
                        batch.answers.push(step.solution);
                    }
                    Ok(Quantum::Done(None)) => {
                        exhausted = true;
                        break;
                    }
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            let (reply, ret) = batch.finish(exhausted, failure, shared, stats);
            Turn::Done(reply, Some(ret))
        }
    }
}

impl Batch {
    /// Ends the batch: its reply and the cursor-table update. The
    /// session is parked back unless the enumeration is exhausted or a
    /// slice error killed it.
    fn finish(
        mut self,
        exhausted: bool,
        failure: Option<KcmError>,
        shared: &Shared,
        stats: &TenantStats,
    ) -> (Reply, CursorReturn) {
        let reply = match &failure {
            // A slice error kills the cursor; answers pulled earlier in
            // this batch die with it (the client never saw them, and the
            // dead session cannot be resumed to re-derive them).
            // A budget stop counts the steps of the batch's earlier pulls
            // beside those of the failing one.
            Some(e) => {
                let earlier = self.session.totals().delta_since(&self.before_stats);
                error_reply(e, earlier.instructions, shared, Some(stats))
            }
            None => {
                // Deltas come off the session's running totals so the
                // slice that discovers exhaustion is still charged.
                let batch_stats = self.session.totals().delta_since(&self.before_stats);
                let answers = self.answers.len() as u64;
                shared.count(Some(stats), |s| s.on_batch(answers, &batch_stats));
                Reply::Ok {
                    body: render_batch(
                        self.cursor_id,
                        &self.answers,
                        exhausted,
                        &batch_stats,
                        &self.session.take_output(),
                    ),
                }
            }
        };
        let keep = failure.is_none() && !exhausted;
        let ret = CursorReturn {
            id: self.cursor_id,
            session: keep.then_some(self.session),
        };
        (reply, ret)
    }
}

/// The reply to a request whose handler or worker turn panicked: the
/// classed error `internal`, counted under `panics` and `errors` in the
/// total and, on a worker, in the request's program. A panic on the loop
/// counts in the total only: the unwind took the handler's program
/// handle with it.
fn panic_reply(
    shared: &Shared,
    program: Option<&TenantStats>,
    cause: &(dyn std::any::Any + Send),
) -> Reply {
    let class = "internal";
    shared.count(program, |s| s.on_error(class, 0));
    let why = cause
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| cause.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic");
    Reply::Err {
        class: class.to_owned(),
        message: format!("internal error: {why}"),
    }
}

/// The reply to a failed request, counted by its class in the total and,
/// when the request resolved one, in its program. A budget stop also
/// counts the steps its run retired, plus `earlier`: those of a cursor
/// batch's earlier pulls. Other failures count no steps, because their
/// error does not say how many ran.
fn error_reply(
    e: &KcmError,
    earlier: u64,
    shared: &Shared,
    program: Option<&TenantStats>,
) -> Reply {
    let class = error_class(e);
    let steps = match e {
        KcmError::Machine(MachineError::BudgetExhausted { steps }) => earlier + steps,
        _ => 0,
    };
    shared.count(program, |s| s.on_error(class, steps));
    Reply::Err {
        class: class.to_owned(),
        message: e.to_string(),
    }
}

/// The full `STATS` body: the aggregate counters, the registry size,
/// per-tenant counters sorted by name, and the open cursors.
fn stats_body(shared: &Shared, cursors_open: usize) -> String {
    let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let mut body = format!(
        "connections={}\nconsults={}\npublishes={}\n",
        get(&shared.connections),
        get(&shared.consults),
        get(&shared.publishes)
    );
    shared.total.render("", &mut body);
    let tenants = shared.registry.tenants();
    body.push_str(&format!(
        "cursors_reaped={}\nprograms={}\n",
        get(&shared.cursors_reaped),
        tenants.len()
    ));
    for t in tenants {
        let n = &t.name;
        body.push_str(&format!("tenant.{n}.version={}\n", t.version));
        t.stats.render(&format!("tenant.{n}."), &mut body);
        let shapes = t.image.shape_stats();
        body.push_str(&format!(
            "tenant.{n}.inflight={}\ntenant.{n}.shape_hits={}\ntenant.{n}.shape_misses={}\ntenant.{n}.shapes={}\n",
            get(&t.stats.inflight),
            shapes.hits,
            shapes.misses,
            shapes.shapes
        ));
    }
    body.push_str(&format!("cursors_open={cursors_open}\n"));
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::sync::atomic::AtomicU32;
    use std::sync::MutexGuard;

    /// Armed fault injections: each count makes that many of the next
    /// first quanta on the loop, or worker turns, panic.
    #[derive(Default)]
    pub(super) struct Faults {
        pub(super) loop_quanta: AtomicU32,
        pub(super) worker_turns: AtomicU32,
    }

    /// Panics if `armed` is nonzero, consuming one arming.
    pub(super) fn inject(armed: &AtomicU32) {
        if armed
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("injected fault");
        }
    }

    /// Serializes the tests that start a server: one counts the process's
    /// worker threads.
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Live worker threads in this process, by thread name.
    fn worker_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter_map(Result::ok)
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|comm| comm.trim_end() == WORKER_NAME)
            })
            .count()
    }

    fn query(tenant: &str, text: &str, step_budget: u64) -> Request {
        Request::Query {
            tenant: Some(tenant.to_owned()),
            query: text.to_owned(),
            enumerate_all: false,
            step_budget: Some(step_budget),
            cursor: false,
        }
    }

    fn class_of(reply: &Reply) -> &str {
        match reply {
            Reply::Err { class, .. } => class,
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn panics_on_the_loop_and_in_a_worker_are_contained_to_their_request() {
        let _serial = serial();
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let shared = Arc::clone(&server.shared);
        let handle = std::thread::spawn(move || server.run());
        let faults = &shared.faults;
        let mut client = Client::connect(addr).expect("connect");
        // `slow` spends about 4 quanta before each of its two answers, so
        // every pull of it goes to the worker.
        let program = "loop :- loop. ok(42).
            spin(0) :- !. spin(N) :- M is N - 1, spin(M).
            slow(X) :- spin(10000), (X = a ; X = b).";
        assert!(client.publish("t", program, None).expect("publish").is_ok());
        let answer = client.query_tenant("t", "ok(X)").expect("ok");
        assert!(matches!(&answer, Reply::Ok { body } if body.contains("X=42")));
        let threads = worker_threads();
        assert!(threads >= 1);

        // A one-shot query panicking on the loop, then in a worker turn.
        faults.loop_quanta.store(1, Ordering::Relaxed);
        let reply = client.query_tenant("t", "ok(X)").expect("loop panic");
        assert_eq!(class_of(&reply), "internal");
        assert_eq!(client.query_tenant("t", "ok(X)").expect("after"), answer);
        faults.worker_turns.store(1, Ordering::Relaxed);
        let reply = client
            .request(&query("t", "loop", 1_000_000))
            .expect("worker panic");
        assert_eq!(class_of(&reply), "internal");
        assert_eq!(client.query_tenant("t", "ok(X)").expect("after"), answer);
        // The worker survived: it still runs a query that needs it.
        let reply = client.request(&query("t", "loop", 50_000)).expect("worker");
        assert_eq!(class_of(&reply), "budget");

        // A cursor batch panicking on the loop, then in a worker turn:
        // the cursor goes with its session.
        for armed in [&faults.loop_quanta, &faults.worker_turns] {
            let id = client
                .open_cursor(Some("t"), "slow(X)", None)
                .expect("open");
            armed.store(1, Ordering::Relaxed);
            let reply = client.next(id, Some(2)).expect("next");
            assert_eq!(class_of(&reply), "internal");
            let reply = client.next(id, Some(2)).expect("next again");
            assert!(
                matches!(&reply, Reply::Err { message, .. } if message.contains("unknown cursor")),
                "{reply:?}"
            );
            assert_eq!(client.query_tenant("t", "ok(X)").expect("after"), answer);
        }
        // An unbroken cursor still streams through the worker.
        let id = client
            .open_cursor(Some("t"), "slow(X)", None)
            .expect("open");
        match client.next(id, Some(2)).expect("next") {
            Reply::Ok { body } => assert!(body.contains("answers=2") && body.contains("X=b")),
            other => panic!("next answered {other:?}"),
        }

        assert_eq!(worker_threads(), threads);
        let stats = client.stats().expect("stats");
        assert!(stats.contains("\npanics=4\n"), "{stats}");
        // The two worker turns resolved the program; the loop panics
        // count in the total only.
        assert!(stats.contains("tenant.t.panics=2\n"), "{stats}");
        assert!(stats.contains("tenant.t.inflight=0\n"), "{stats}");
        client.shutdown().expect("shutdown");
        let metrics = handle.join().expect("server thread").expect("server run");
        assert_eq!(metrics.panics, 4);
    }

    /// Polls `STATS` until `ready` holds for its body, which it returns.
    fn await_stats(client: &mut Client, ready: impl Fn(&str) -> bool) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let stats = client.stats().expect("stats");
            if ready(&stats) {
                return stats;
            }
            assert!(Instant::now() < deadline, "never ready:\n{stats}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn every_event_counts_in_the_total_and_in_its_program() {
        let _serial = serial();
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .expect("bind");
        let addr = server.local_addr().expect("addr");
        let shared = Arc::clone(&server.shared);
        let handle = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).expect("connect");
        let program = "loop :- loop. two(1). two(2).";
        assert!(client.publish("t", program, None).expect("publish").is_ok());

        // Two queries served, a budget stop, a parse error and a panic
        // in a worker turn.
        let reply = client.query_tenant("t", "two(X)").expect("query");
        assert!(matches!(&reply, Reply::Ok { body } if body.contains("X=1")));
        let reply = client.query_tenant_all("t", "two(X)").expect("queryall");
        assert!(matches!(&reply, Reply::Ok { body } if body.contains("X=2")));
        let reply = client.request(&query("t", "loop", 50_000)).expect("budget");
        assert_eq!(class_of(&reply), "budget");
        let reply = client.query_tenant("t", "two(").expect("parse");
        assert_eq!(class_of(&reply), "parse");
        shared.faults.worker_turns.store(1, Ordering::Relaxed);
        let reply = client
            .request(&query("t", "loop", 1_000_000))
            .expect("panic");
        assert_eq!(class_of(&reply), "internal");
        // A cursor drained to its end.
        let id = client.open_cursor(Some("t"), "two(X)", None).expect("open");
        match client.next(id, Some(5)).expect("next") {
            Reply::Ok { body } => assert!(body.contains("answers=2 done=true"), "{body}"),
            other => panic!("next answered {other:?}"),
        }
        // A query cancelled by its connection's reset: the client closes
        // with a reply unread while the query is with the only worker.
        let mut doomed = TcpStream::connect(addr).expect("connect");
        let mut frames = encode_frame(Request::Stats.encode());
        frames.extend(encode_frame(query("t", "loop", 10_000_000_000).encode()));
        doomed.write_all(&frames).expect("send");
        await_stats(&mut client, |s| s.contains("tenant.t.inflight=1\n"));
        doomed.peek(&mut [0]).expect("the statistics reply arrives");
        drop(doomed);

        // Quiet: the worker counts the cancel, in the total and then in
        // the program, before it releases the in-flight slot.
        let stats = await_stats(&mut client, |s| {
            [
                "\ncancelled=1\n",
                "tenant.t.cancelled=1\n",
                "tenant.t.inflight=0\n",
            ]
            .iter()
            .all(|line| s.contains(line))
        });
        let counts: HashMap<&str, u64> = stats
            .lines()
            .filter_map(|l| l.split_once('='))
            .map(|(key, value)| (key, value.parse().expect("a count")))
            .collect();
        let tenant = |key: &str| counts[format!("tenant.t.{key}").as_str()];
        for (key, _) in TenantStats::default().counters() {
            assert_eq!(counts[key], tenant(key), "{key}:\n{stats}");
        }
        let outcomes = [
            "served",
            "cursors_opened",
            "budget_stops",
            "errors",
            "cancelled",
        ];
        assert_eq!(
            tenant("queries"),
            outcomes.iter().map(|key| tenant(key)).sum::<u64>(),
            "{stats}"
        );
        let events = [
            "queries",
            "served",
            "budget_stops",
            "errors",
            "panics",
            "cancelled",
            "cursors_opened",
            "cursor_batches",
            "cursor_answers",
        ];
        assert_eq!(events.map(tenant), [7, 2, 1, 2, 1, 1, 1, 1, 2], "{stats}");
        client.shutdown().expect("shutdown");
        let metrics = handle.join().expect("server thread").expect("server run");
        assert_eq!((metrics.queries, metrics.cancelled), (7, 1));
    }

    #[test]
    fn a_cursor_batch_reports_the_output_of_its_own_answers() {
        let _serial = serial();
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).expect("connect");
        let program = "d(0). d(1). d(2). d(3). d(4). d(5). w(X) :- d(X), write(X).";
        assert!(client.publish("t", program, None).expect("publish").is_ok());
        let id = client.open_cursor(Some("t"), "w(X)", None).expect("open");
        for output in ["012", "345"] {
            match client.next(id, Some(3)).expect("next") {
                Reply::Ok { body } => {
                    assert!(body.ends_with(&format!("output=\"{output}\"\n")), "{body}");
                }
                other => panic!("next answered {other:?}"),
            }
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("server run");
    }

    /// A counter's value in a `STATS` body.
    fn counter(stats: &str, key: &str) -> u64 {
        stats
            .lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("no {key} in:\n{stats}"))
            .parse()
            .expect("a count")
    }

    #[test]
    fn budget_stops_count_the_steps_they_ran() {
        let _serial = serial();
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).expect("connect");
        let program = "loop :- loop. kv(k1, v1). d(1). d(2) :- loop.";
        assert!(client
            .publish("kb", program, None)
            .expect("publish")
            .is_ok());

        // A one-shot query stopped by its budget, then four short ones.
        let reply = client
            .request(&query("kb", "loop", 20_000))
            .expect("budget");
        assert_eq!(class_of(&reply), "budget");
        for _ in 0..4 {
            assert!(client
                .query_tenant("kb", "kv(k1, V)")
                .expect("query")
                .is_ok());
        }
        let stats = client.stats().expect("stats");
        for key in ["steps", "tenant.kb.steps"] {
            assert!(counter(&stats, key) >= 20_001, "{key}:\n{stats}");
        }
        // A cursor batch whose second pull runs into its budget counts
        // the first pull's steps too.
        let id = client
            .open_cursor(Some("kb"), "d(X)", Some(20_000))
            .expect("open");
        let reply = client.next(id, Some(2)).expect("next");
        assert_eq!(class_of(&reply), "budget");
        let after = client.stats().expect("stats");
        for key in ["steps", "tenant.kb.steps"] {
            assert!(
                counter(&after, key) > counter(&stats, key) + 20_001,
                "{key}:\n{after}"
            );
        }
        // Inferences count completed work only.
        assert_eq!(
            counter(&after, "inferences"),
            counter(&stats, "inferences"),
            "{after}"
        );
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("server run");
    }

    #[test]
    fn a_term_too_deep_to_read_is_a_parse_error() {
        use kcm_prolog::MAX_DEPTH;
        let _serial = serial();
        let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        // Queries are read and compiled on the loop's thread: give it the
        // smallest stack a thread gets.
        let handle = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || server.run())
            .expect("spawn");
        let mut client = Client::connect(addr).expect("connect");
        assert!(client
            .publish("kb", "p(_). kv(k1, v1).", None)
            .expect("publish")
            .is_ok());
        let ints = |n: usize| (1..=n).map(|i| i.to_string()).collect::<Vec<_>>();

        let long = format!("p([{}])", ints(100_000).join(", "));
        let reply = client.query_tenant("kb", &long).expect("long list");
        assert_eq!(class_of(&reply), "parse");
        let reply = client.query_tenant("kb", "kv(k1, V)").expect("after");
        assert!(matches!(&reply, Reply::Ok { body } if body.contains("V=v1")));

        // `X` is one level below the query's root, so its last list
        // element or innermost argument sits `levels + 1` deep.
        for levels in [MAX_DEPTH - 1, MAX_DEPTH] {
            let list = format!("X = [{}]", ints(levels).join(", "));
            let nested = format!("X = {}a{}", "f(".repeat(levels), ")".repeat(levels));
            for query in [list, nested] {
                let reply = client.query_tenant("kb", &query).expect("deep");
                if levels < MAX_DEPTH {
                    assert!(
                        matches!(&reply, Reply::Ok { body } if body.contains("X=")),
                        "{reply:?}"
                    );
                } else {
                    assert_eq!(class_of(&reply), "parse");
                }
            }
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("server thread").expect("server run");
    }
}
