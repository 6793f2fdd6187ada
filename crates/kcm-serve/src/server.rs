//! The query server: one nonblocking readiness loop owning every
//! connection, feeding a bounded job queue fanned across session-pool
//! worker threads.
//!
//! Concurrency layout:
//!
//! * one **event-loop thread** (the caller of [`Server::run`]) owns the
//!   listener and *all* connection sockets, nonblocking, multiplexed
//!   through [`crate::poll::Poller`] (epoll on Linux). Each connection
//!   carries its own [`FrameBuf`] decode state and write buffer, so a
//!   client dribbling a frame one byte per 100 ms costs a buffer slot,
//!   not a thread — 10k idle connections cost ~0 threads;
//! * a fixed set of **worker threads** executes queries as isolated pool
//!   sessions ([`kcm_system::pool::run_session`]) pulled from one bounded
//!   queue; the program travels to the worker as one `Arc<Published>`
//!   handle, whether it is a registry tenant or the connection's
//!   `CONSULT`ed program, and the worker takes the machine configuration
//!   from [`ServeConfig`]. Completions come back over a channel plus a
//!   wake pipe byte; the loop also drains completions on every tick, so
//!   a lost wake delays a reply by at most one tick;
//! * the queue is a `sync_channel(queue_depth)`: when it is full the
//!   loop answers `BUSY` immediately instead of queueing without bound —
//!   backpressure is explicit and visible to clients. While a
//!   connection's request is in flight its read interest is paused, so a
//!   pipelining client is flow-controlled by TCP, not by server memory;
//! * published programs live in a shared [`ProgramRegistry`]; `PUBLISH`
//!   and `CONSULT` compile on the loop thread (compilation is brief and
//!   amortized over every query that follows), queries run on workers;
//! * **cursors** are suspended [`kcm_system::Solutions`] sessions owned
//!   by the event loop, keyed by a server-global id that is never
//!   reused. A `NEXT` ships the boxed session to a worker for one
//!   bounded batch and the completion carries it back; while the pull is
//!   in flight the cursor table holds `None`, and the owning connection
//!   is `busy`, so no second operation can touch the session
//!   concurrently. A cursor pins its program's `Arc<Published>`: a
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
//! in-flight requests finish and flush, then closes the queue so workers
//! drain and exit. The previous thread-per-connection design had to wake
//! its blocking accept loop by self-connecting to
//! `listener.local_addr()` — the *unspecified* address
//! (`0.0.0.0:<port>`) for typical binds, so the wake could fail and hang
//! the drain. The readiness loop's timed wait is the flag-check tick
//! that replaces it; no self-connect exists to go wrong.

use crate::poll::{Event, Interest, Poller};
use crate::protocol::{encode_frame, render_batch, render_outcome, FrameBuf, Reply, Request};
use kcm_system::pool::run_session;
use kcm_system::registry::{ProgramRegistry, Published, TenantStats};
use kcm_system::{
    error_class, open_session, KcmError, MachineConfig, Outcome, ProgramSource, QueryJob,
    QueryOpts, RunStats, Solutions, Tier,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The event loop's wait tick: bounds how long a missed wake byte can
/// delay a completion and how stale the drain check can be.
const READ_TICK: Duration = Duration::from_millis(100);

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the worker wake pipe.
const TOKEN_WAKE: u64 = 1;
/// Connection tokens start here (low 32 bits; generation above).
const FIRST_CONN: u64 = 2;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded request-queue depth; a full queue answers `BUSY`.
    pub queue_depth: usize,
    /// Step budget applied to requests that don't carry their own
    /// `BUDGET` (for tenant queries, after the tenant's own publish-time
    /// budget); `None` leaves runaway queries to the machine's fuel cap.
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
    /// Machine configuration for every session.
    pub machine: MachineConfig,
    /// Open cursors allowed per connection; the next `QUERY … CURSOR`
    /// past the cap answers `BUSY` until one is released.
    pub cursors_per_conn: usize,
    /// How long a cursor may sit idle (no `NEXT`/`CLOSE`) before the
    /// loop's tick reaps it. Bounds the suspended-machine memory an
    /// abandoned-but-connected client can pin.
    pub cursor_idle: Duration,
    /// Largest batch one `NEXT` may pull; bigger requests are clamped
    /// (visible to the client through the reply's `answers=` count).
    pub cursor_batch_cap: u64,
    /// In-flight work items (queries, cursor opens, cursor pulls)
    /// allowed per program — a registry tenant or a connection's
    /// `CONSULT`ed program; past the cap the program's requests answer
    /// `BUSY` while other programs keep being served. `None` leaves
    /// programs to contend for the shared queue.
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
            machine: MachineConfig::default(),
            cursors_per_conn: 16,
            cursor_idle: Duration::from_secs(30),
            cursor_batch_cap: 256,
            tenant_inflight_cap: None,
        }
    }
}

/// Server-wide aggregate metrics, reported by `STATS` and returned by
/// [`Server::run`]. `STATS` additionally renders per-tenant counters
/// from the registry (`tenant.<name>.<counter>=` lines).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Connections accepted.
    pub connections: u64,
    /// Programs consulted (per-connection session mode).
    pub consults: u64,
    /// Programs published into the shared registry.
    pub publishes: u64,
    /// Queries accepted onto the queue.
    pub queries: u64,
    /// Queries answered with a completed outcome.
    pub served: u64,
    /// Queries rejected with `BUSY` (queue full).
    pub busy: u64,
    /// Queries stopped by the step budget.
    pub budget_stops: u64,
    /// Queries failed with any other error.
    pub errors: u64,
    /// Solutions across served queries.
    pub solutions: u64,
    /// Logical inferences across served queries.
    pub inferences: u64,
    /// Simulated KCM cycles across served queries; stays 0 when serving
    /// on the (default) native tier, which has no clock.
    pub cycles: u64,
    /// Retired machine instructions across served queries — the
    /// tier-independent work counter (nonzero on both tiers).
    pub steps: u64,
    /// Clause-indexing switch dispatches that found their key, across
    /// served queries (tier-independent, like `steps`).
    pub switch_hits: u64,
    /// Switch dispatches that missed their table.
    pub switch_misses: u64,
    /// Switch table probes charged (the simulated linear-scan cost the
    /// hash side table avoids paying on the host).
    pub switch_probes: u64,
    /// Second-level (depth-2) switch dispatches taken.
    pub switch_depth2: u64,
    /// Cursors opened (`QUERY … CURSOR` that compiled and suspended).
    pub cursors_opened: u64,
    /// `NEXT` batches served from cursors.
    pub cursor_batches: u64,
    /// Answers streamed across all cursor batches.
    pub cursor_answers: u64,
    /// Cursors released by the server rather than the client: idle
    /// reaping plus connection-close cleanup.
    pub cursors_reaped: u64,
}

impl ServeMetrics {
    /// The `STATS` reply's aggregate section: one `key=value` line per
    /// counter.
    pub fn render(&self) -> String {
        format!(
            "connections={}\nconsults={}\npublishes={}\nqueries={}\nserved={}\nbusy={}\nbudget_stops={}\nerrors={}\nsolutions={}\ninferences={}\ncycles={}\nsteps={}\nswitch_hits={}\nswitch_misses={}\nswitch_probes={}\nswitch_depth2={}\ncursors_opened={}\ncursor_batches={}\ncursor_answers={}\ncursors_reaped={}\n",
            self.connections,
            self.consults,
            self.publishes,
            self.queries,
            self.served,
            self.busy,
            self.budget_stops,
            self.errors,
            self.solutions,
            self.inferences,
            self.cycles,
            self.steps,
            self.switch_hits,
            self.switch_misses,
            self.switch_probes,
            self.switch_depth2,
            self.cursors_opened,
            self.cursor_batches,
            self.cursor_answers,
            self.cursors_reaped
        )
    }
}

/// One queued unit of work: everything a worker needs, plus the routing
/// information for the reply. The `program` on each variant is the
/// resolved program handle — a registry tenant or the connection's
/// `CONSULT`ed program: holding the `Arc` keeps the program alive across
/// re-publish/eviction/re-consult, the worker mirrors its accounting
/// into the handle's stats, and the in-flight slot claimed at dispatch
/// is released against it.
enum WorkItem {
    /// A one-shot query (first solution or enumerate-all).
    Query {
        /// Connection token (index + generation) the reply belongs to.
        token: u64,
        job: QueryJob,
        program: Arc<Published>,
    },
    /// Compile a query and suspend it as cursor `cursor_id`.
    CursorOpen {
        token: u64,
        cursor_id: u64,
        query: String,
        opts: QueryOpts,
        program: Arc<Published>,
    },
    /// Pull up to `count` answers from a suspended session. The session
    /// travels by value: while it is here the loop's cursor entry holds
    /// `None`, so nothing else can touch it.
    CursorNext {
        token: u64,
        cursor_id: u64,
        session: Box<Solutions>,
        count: u64,
        program: Arc<Published>,
    },
}

/// A finished work item on its way back to the event loop.
struct Completion {
    token: u64,
    /// The encoded reply payload (rendered on the worker; the loop only
    /// frames and writes it).
    payload: Vec<u8>,
    /// Present when the item was a cursor operation.
    cursor: Option<CursorReturn>,
}

/// The cursor-table update a completion carries: `Some` session means
/// "park it back under `id`"; `None` means the cursor is finished
/// (open failed, enumeration exhausted, or a slice error killed it) and
/// the entry should be removed.
struct CursorReturn {
    id: u64,
    session: Option<Box<Solutions>>,
}

struct Shared {
    cfg: ServeConfig,
    metrics: Mutex<ServeMetrics>,
    registry: ProgramRegistry,
}

/// A bound, not-yet-running query server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    jobs: SyncSender<WorkItem>,
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
        let (job_tx, job_rx) = mpsc::sync_channel::<WorkItem>(cfg.queue_depth.max(1));
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        // Both ends nonblocking: the loop drains without blocking, and a
        // worker whose wake byte won't fit (pipe already full of wakes)
        // just drops it — the pending byte or the tick wakes the loop.
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            registry: ProgramRegistry::new(cfg.max_programs),
            metrics: Mutex::new(ServeMetrics::default()),
            cfg,
        });
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let shared = Arc::clone(&shared);
                let done_tx = done_tx.clone();
                let wake_tx = wake_tx.try_clone()?;
                Ok(std::thread::spawn(move || {
                    worker_loop(&job_rx, &shared, &done_tx, &wake_tx);
                }))
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
            jobs: Some(jobs),
            done_rx,
            wake_rx,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            cursors: HashMap::new(),
            next_cursor_id: 1,
            shutting_down: false,
            accepting: true,
        };
        el.run_loop()?;
        // Close the queue: workers finish what was accepted and exit.
        el.jobs = None;
        for w in workers {
            let _ = w.join();
        }
        let metrics = shared.metrics.lock().expect("metrics").clone();
        Ok(metrics)
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
    /// A request is with the workers; reads are paused and no further
    /// frame is processed until its completion, preserving per-connection
    /// FIFO order.
    busy: bool,
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
            readable: !self.busy && !self.read_closed,
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
    /// Pinned program handle (keeps the image alive across republish and
    /// routes per-program accounting).
    program: Arc<Published>,
    /// Last open/pull touch, for the idle reaper.
    last_used: Instant,
}

struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    shared: Arc<Shared>,
    /// `Some` while accepting queries; dropped after the loop exits so
    /// the workers drain.
    jobs: Option<SyncSender<WorkItem>>,
    done_rx: Receiver<Completion>,
    wake_rx: UnixStream,
    slots: Vec<Entry>,
    free: Vec<usize>,
    live: usize,
    /// Open cursors by id. Entries whose `session` is `None` have their
    /// pull in flight with a worker.
    cursors: HashMap<u64, Cursor>,
    /// Next cursor id; monotonically increasing, never reused, so a
    /// stale `NEXT` can never address a newer cursor.
    next_cursor_id: u64,
    shutting_down: bool,
    accepting: bool,
}

impl EventLoop {
    fn run_loop(&mut self) -> std::io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.poller.wait(&mut events, READ_TICK)?;
            for ev in std::mem::take(&mut events) {
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
                    self.shared.metrics.lock().expect("metrics").connections += 1;
                    let conn = Conn {
                        stream,
                        frames: FrameBuf::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        program: None,
                        busy: false,
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

    /// Closes a connection's slot: unregisters the socket, reaps every
    /// cursor the connection owned (an in-flight pull's session comes
    /// back to a missing entry and is dropped there), and retires the
    /// slot's generation so stale events and completions miss.
    fn close_slot(&mut self, index: usize, conn: &Conn) {
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        // The owner token must be computed before the generation bump.
        let token = token_of(index, self.slots[index].gen);
        let before = self.cursors.len();
        self.cursors.retain(|_, c| c.owner != token);
        let reaped = (before - self.cursors.len()) as u64;
        if reaped > 0 {
            self.shared.metrics.lock().expect("metrics").cursors_reaped += reaped;
        }
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
        if reaped > 0 {
            self.shared.metrics.lock().expect("metrics").cursors_reaped += reaped;
        }
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
        if keep && conn.read_closed && !conn.busy && !conn.pending_write() {
            keep = false;
        }
        self.park_conn(index, conn, keep);
    }

    /// Reads whatever the socket has, feeds the decoder, and processes
    /// complete frames. Returns whether the connection stays open.
    fn do_read(&mut self, conn: &mut Conn, token: u64) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut buf) {
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
        while !conn.busy {
            match conn.frames.next_frame() {
                Ok(Some(payload)) => {
                    if !self.handle_frame(conn, token, &payload) {
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
                match Published::load("", source.as_str(), &self.shared.cfg.machine, None) {
                    Ok(program) => {
                        conn.program = Some(Arc::new(program));
                        self.shared.metrics.lock().expect("metrics").consults += 1;
                        Reply::Ok {
                            body: String::new(),
                        }
                    }
                    Err(e) => error_reply(&e, &self.shared, None),
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
                Err(e) => error_reply(&e, &self.shared, None),
            },
            Request::Assert { name, clause } => {
                match self.shared.registry.assertz(&name, &clause) {
                    Ok(receipt) => Reply::Ok {
                        body: format!("name={name}\nversion={}\n", receipt.version),
                    },
                    Err(e) => error_reply(&e, &self.shared, None),
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
                    Err(e) => error_reply(&e, &self.shared, None),
                }
            }
            Request::Stats => {
                let mut body = stats_body(&self.shared);
                body.push_str(&format!("cursors_open={}\n", self.cursors.len()));
                Reply::Ok { body }
            }
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
                    self.dispatch_cursor_open(conn, token, tenant, query, step_budget)
                } else {
                    self.dispatch_query(conn, token, tenant, query, enumerate_all, step_budget)
                };
                match outcome {
                    None => return true, // accepted: the reply comes from a worker
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
            .publish(name, source, &self.shared.cfg.machine, step_budget)
        {
            Ok(receipt) => {
                self.shared.metrics.lock().expect("metrics").publishes += 1;
                let mut body = format!("name={name}\nversion={}\n", receipt.version);
                if let Some(evicted) = receipt.evicted {
                    body.push_str(&format!("evicted={evicted}\n"));
                }
                Reply::Ok { body }
            }
            Err(e) => error_reply(&e, &self.shared, None),
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
                .map_err(|e| error_reply(&e, &self.shared, None))?,
            None => conn
                .program
                .clone()
                .ok_or_else(|| error_reply(&KcmError::NoProgram, &self.shared, None))?,
        };
        let budget = step_budget
            .or(program.step_budget)
            .or(self.shared.cfg.default_step_budget);
        Ok((program, budget))
    }

    /// Claims an in-flight slot on a resolved program's stats. A `false`
    /// return has already been accounted as a BUSY.
    fn claim_inflight(&self, program: &Published) -> bool {
        if program
            .stats
            .try_start_inflight(self.shared.cfg.tenant_inflight_cap)
        {
            return true;
        }
        self.shared.metrics.lock().expect("metrics").busy += 1;
        program.stats.busy.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// Enqueues an item whose tenant slot (if any) is already claimed.
    /// `None` means in flight; `Some` is an immediate reply, with the
    /// claim released and (for a pull) the session restored.
    fn enqueue(&mut self, conn: &mut Conn, item: WorkItem) -> Option<Reply> {
        // try_send is the backpressure point: a full queue is the
        // client's problem (retry), never the server's memory.
        let jobs = self.jobs.as_ref().expect("queue open while looping");
        match jobs.try_send(item) {
            Ok(()) => {
                conn.busy = true;
                None
            }
            Err(e) => {
                let (full, item) = match e {
                    TrySendError::Full(item) => (true, item),
                    TrySendError::Disconnected(item) => (false, item),
                };
                let program = match item {
                    WorkItem::Query { program, .. } | WorkItem::CursorOpen { program, .. } => {
                        program
                    }
                    WorkItem::CursorNext {
                        cursor_id,
                        session,
                        program,
                        ..
                    } => {
                        // Put the session back so the cursor survives
                        // the rejected pull.
                        if let Some(c) = self.cursors.get_mut(&cursor_id) {
                            c.session = Some(session);
                        }
                        program
                    }
                };
                program.stats.finish_inflight();
                if full {
                    self.shared.metrics.lock().expect("metrics").busy += 1;
                    program.stats.busy.fetch_add(1, Ordering::Relaxed);
                    Some(Reply::Busy)
                } else {
                    Some(error_reply(
                        &KcmError::Harness("server is shutting down".to_owned()),
                        &self.shared,
                        None,
                    ))
                }
            }
        }
    }

    /// Resolves and enqueues a query. `None` means the request is in
    /// flight (the worker's completion will carry the reply); `Some` is
    /// an immediate reply (BUSY or an error).
    fn dispatch_query(
        &mut self,
        conn: &mut Conn,
        token: u64,
        tenant: Option<String>,
        query: String,
        enumerate_all: bool,
        step_budget: Option<u64>,
    ) -> Option<Reply> {
        let (program, budget) = match self.resolve_program(conn, tenant.as_deref(), step_budget) {
            Ok(r) => r,
            Err(reply) => return Some(reply),
        };
        if !self.claim_inflight(&program) {
            return Some(Reply::Busy);
        }
        let opts = QueryOpts {
            enumerate_all,
            step_budget: budget,
            trace: 0,
            tier: self.shared.cfg.tier,
        };
        let item = WorkItem::Query {
            token,
            job: QueryJob::with_opts(query, opts),
            program: Arc::clone(&program),
        };
        let reply = self.enqueue(conn, item);
        if reply.is_none() {
            self.shared.metrics.lock().expect("metrics").queries += 1;
            program.stats.queries.fetch_add(1, Ordering::Relaxed);
        }
        reply
    }

    /// Opens a cursor: allocates an id, parks a sessionless entry, and
    /// ships the compilation to a worker. `None` means in flight.
    fn dispatch_cursor_open(
        &mut self,
        conn: &mut Conn,
        token: u64,
        tenant: Option<String>,
        query: String,
        step_budget: Option<u64>,
    ) -> Option<Reply> {
        let open_here = self.cursors.values().filter(|c| c.owner == token).count();
        if open_here >= self.shared.cfg.cursors_per_conn {
            self.shared.metrics.lock().expect("metrics").busy += 1;
            return Some(Reply::Busy);
        }
        let (program, budget) = match self.resolve_program(conn, tenant.as_deref(), step_budget) {
            Ok(r) => r,
            Err(reply) => return Some(reply),
        };
        if !self.claim_inflight(&program) {
            return Some(Reply::Busy);
        }
        let opts = QueryOpts {
            // A cursor session enumerates by construction; the flag only
            // matters if the session layer ever consults it.
            enumerate_all: true,
            step_budget: budget,
            trace: 0,
            tier: self.shared.cfg.tier,
        };
        let cursor_id = self.next_cursor_id;
        self.next_cursor_id += 1;
        let item = WorkItem::CursorOpen {
            token,
            cursor_id,
            query,
            opts,
            program: Arc::clone(&program),
        };
        let reply = self.enqueue(conn, item);
        if reply.is_none() {
            program.stats.queries.fetch_add(1, Ordering::Relaxed);
            self.cursors.insert(
                cursor_id,
                Cursor {
                    owner: token,
                    session: None,
                    program,
                    last_used: Instant::now(),
                },
            );
            self.shared.metrics.lock().expect("metrics").queries += 1;
        }
        reply
    }

    /// Ships a cursor's session to a worker for one batch. `None` means
    /// in flight.
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
            // its pull is out); answer BUSY rather than corrupt state.
            return Some(Reply::Busy);
        };
        cursor.last_used = Instant::now();
        let program = Arc::clone(&cursor.program);
        if !self.claim_inflight(&program) {
            // Re-borrow: claim_inflight released the map borrow.
            if let Some(c) = self.cursors.get_mut(&id) {
                c.session = Some(session);
            }
            return Some(Reply::Busy);
        }
        let count = count
            .unwrap_or(1)
            .min(self.shared.cfg.cursor_batch_cap.max(1));
        let item = WorkItem::CursorNext {
            token,
            cursor_id: id,
            session,
            count,
            program,
        };
        self.enqueue(conn, item)
    }

    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            // Settle the cursor table before the connection: even if the
            // connection is gone, a returning session must be parked or
            // dropped, never leaked in the channel.
            if let Some(ret) = done.cursor {
                match ret.session {
                    Some(session) => {
                        if let Some(cursor) = self.cursors.get_mut(&ret.id) {
                            cursor.session = Some(session);
                            cursor.last_used = Instant::now();
                        }
                        // else: the owner closed; close_slot already
                        // reaped the entry and the session drops here.
                    }
                    None => {
                        // Open failed, enumeration exhausted, or a slice
                        // error: the cursor is finished.
                        self.cursors.remove(&ret.id);
                    }
                }
            }
            let Some((index, mut conn)) = self.take_conn(done.token) else {
                continue; // the connection went away; the work still counted
            };
            conn.busy = false;
            let mut keep = queue_reply(&mut conn, &done.payload).is_ok();
            if keep {
                keep = self.pump(&mut conn, done.token);
            }
            if keep && conn.read_closed && !conn.busy && !conn.pending_write() {
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
            if !conn.busy && !conn.pending_write() {
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

fn worker_loop(
    rx: &Mutex<Receiver<WorkItem>>,
    shared: &Shared,
    done_tx: &mpsc::Sender<Completion>,
    wake_tx: &UnixStream,
) {
    loop {
        // Hold the lock only to pop; run the session outside it.
        let item = match rx.lock().expect("worker queue").recv() {
            Ok(item) => item,
            Err(_) => return, // queue closed: drained
        };
        let done = match item {
            WorkItem::Query {
                token,
                job,
                program,
            } => {
                let outcome =
                    run_session(&program.image, &program.symbols, &shared.cfg.machine, &job);
                let reply = match outcome {
                    Ok(outcome) => {
                        account_served(shared, &program.stats, &outcome);
                        Reply::Ok {
                            body: render_outcome(&outcome),
                        }
                    }
                    Err(e) => error_reply(&e, shared, Some(&program.stats)),
                };
                program.stats.finish_inflight();
                Completion {
                    token,
                    payload: reply.encode(),
                    cursor: None,
                }
            }
            WorkItem::CursorOpen {
                token,
                cursor_id,
                query,
                opts,
                program,
            } => {
                let (reply, session) = match open_session(
                    &program.image,
                    &program.symbols,
                    &shared.cfg.machine,
                    &query,
                    &opts,
                ) {
                    Ok(session) => {
                        shared.metrics.lock().expect("metrics").cursors_opened += 1;
                        (
                            Reply::Ok {
                                body: format!("cursor={cursor_id}\n"),
                            },
                            Some(Box::new(session)),
                        )
                    }
                    Err(e) => (error_reply(&e, shared, Some(&program.stats)), None),
                };
                program.stats.finish_inflight();
                Completion {
                    token,
                    payload: reply.encode(),
                    cursor: Some(CursorReturn {
                        id: cursor_id,
                        session,
                    }),
                }
            }
            WorkItem::CursorNext {
                token,
                cursor_id,
                mut session,
                count,
                program,
            } => {
                let before_stats = *session.totals();
                let before_output = session.output().len();
                let mut answers = Vec::new();
                let mut exhausted = false;
                let mut failure = None;
                while (answers.len() as u64) < count {
                    match session.next_step() {
                        Ok(Some(step)) => answers.push(step.solution),
                        Ok(None) => {
                            exhausted = true;
                            break;
                        }
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
                // Deltas come off the session's running totals so the
                // slice that discovers exhaustion is still charged.
                let batch_stats = session.totals().delta_since(&before_stats);
                let batch_output = session.output()[before_output..].to_owned();
                let reply = match &failure {
                    // A slice error kills the cursor; answers pulled
                    // earlier in this batch die with it (the client
                    // never saw them, and the dead session cannot be
                    // resumed to re-derive them).
                    Some(e) => error_reply(e, shared, Some(&program.stats)),
                    None => {
                        account_batch(shared, &program.stats, answers.len() as u64, &batch_stats);
                        Reply::Ok {
                            body: render_batch(
                                cursor_id,
                                &answers,
                                exhausted,
                                &batch_stats,
                                &batch_output,
                            ),
                        }
                    }
                };
                let keep = failure.is_none() && !exhausted;
                program.stats.finish_inflight();
                Completion {
                    token,
                    payload: reply.encode(),
                    cursor: Some(CursorReturn {
                        id: cursor_id,
                        session: keep.then_some(session),
                    }),
                }
            }
        };
        // A gone connection is fine — the work was still done and
        // counted; the loop drops completions with stale tokens.
        let _ = done_tx.send(done);
        // Best-effort wake: if the pipe is full a wake is already
        // pending, and the loop's tick catches anything else.
        let _ = (&*wake_tx).write(&[1]);
    }
}

/// Accounts one served cursor batch into the aggregate and per-program
/// counters. Cursor batches count work (`solutions`, `inferences`,
/// `cycles`, `steps`) like queries do, but under the `cursor_*` serving
/// counters instead of `served`.
fn account_batch(shared: &Shared, program: &TenantStats, answers: u64, stats: &RunStats) {
    {
        let mut m = shared.metrics.lock().expect("metrics");
        m.cursor_batches += 1;
        m.cursor_answers += answers;
        m.solutions += answers;
        m.inferences += stats.inferences;
        m.cycles += stats.cycles;
        m.steps += stats.instructions;
    }
    program.solutions.fetch_add(answers, Ordering::Relaxed);
    program
        .inferences
        .fetch_add(stats.inferences, Ordering::Relaxed);
    program.cycles.fetch_add(stats.cycles, Ordering::Relaxed);
    program
        .steps
        .fetch_add(stats.instructions, Ordering::Relaxed);
}

fn account_served(shared: &Shared, program: &TenantStats, outcome: &Outcome) {
    let solutions = outcome.solutions.len() as u64;
    {
        let mut m = shared.metrics.lock().expect("metrics");
        m.served += 1;
        m.solutions += solutions;
        m.inferences += outcome.stats.inferences;
        m.cycles += outcome.stats.cycles;
        m.steps += outcome.stats.instructions;
        m.switch_hits += outcome.profile.switches.hits;
        m.switch_misses += outcome.profile.switches.misses;
        m.switch_probes += outcome.profile.switches.probes;
        m.switch_depth2 += outcome.profile.switches.depth2;
    }
    program.served.fetch_add(1, Ordering::Relaxed);
    program.solutions.fetch_add(solutions, Ordering::Relaxed);
    program
        .inferences
        .fetch_add(outcome.stats.inferences, Ordering::Relaxed);
    program
        .cycles
        .fetch_add(outcome.stats.cycles, Ordering::Relaxed);
    program
        .steps
        .fetch_add(outcome.stats.instructions, Ordering::Relaxed);
}

fn error_reply(e: &KcmError, shared: &Shared, tenant: Option<&TenantStats>) -> Reply {
    let class = error_class(e);
    {
        let mut m = shared.metrics.lock().expect("metrics");
        if class == "budget" {
            m.budget_stops += 1;
        } else {
            m.errors += 1;
        }
    }
    if let Some(t) = tenant {
        if class == "budget" {
            t.budget_stops.fetch_add(1, Ordering::Relaxed);
        } else {
            t.errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    Reply::Err {
        class: class.to_owned(),
        message: e.to_string(),
    }
}

/// The full `STATS` body: the aggregate counters, the registry size, and
/// per-tenant counters sorted by name.
fn stats_body(shared: &Shared) -> String {
    let mut body = shared.metrics.lock().expect("metrics").render();
    let tenants = shared.registry.tenants();
    body.push_str(&format!("programs={}\n", tenants.len()));
    for t in tenants {
        let s = t.stats.snapshot();
        let n = &t.name;
        body.push_str(&format!("tenant.{n}.version={}\n", t.version));
        body.push_str(&format!("tenant.{n}.queries={}\n", s.queries));
        body.push_str(&format!("tenant.{n}.served={}\n", s.served));
        body.push_str(&format!("tenant.{n}.busy={}\n", s.busy));
        body.push_str(&format!("tenant.{n}.budget_stops={}\n", s.budget_stops));
        body.push_str(&format!("tenant.{n}.errors={}\n", s.errors));
        body.push_str(&format!("tenant.{n}.solutions={}\n", s.solutions));
        body.push_str(&format!("tenant.{n}.inferences={}\n", s.inferences));
        body.push_str(&format!("tenant.{n}.cycles={}\n", s.cycles));
        body.push_str(&format!("tenant.{n}.steps={}\n", s.steps));
        body.push_str(&format!(
            "tenant.{n}.inflight={}\n",
            t.stats.inflight.load(Ordering::Relaxed)
        ));
    }
    body
}
