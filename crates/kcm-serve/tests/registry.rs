//! Multi-tenant registry tests over the wire: publish/re-publish
//! semantics, query-by-name byte-identity from concurrent connections,
//! LRU eviction, per-tenant budgets and stats — and the structural
//! claim of the nonblocking front end, that idle connections do not
//! cost threads.

use kcm_serve::workload::{direct_body, standard};
use kcm_serve::{Client, Reply, ServeConfig, Server};
use kcm_system::Tier;
use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Every test here boots a server inside this one process, and
/// `idle_connections_cost_buffers_not_threads` counts the process's
/// threads: the tests take this lock so they run one at a time, and no
/// sibling's server threads are counted.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spawn_server(
    cfg: ServeConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<kcm_serve::ServeMetrics>>,
) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn body_of(reply: Reply) -> String {
    match reply {
        Reply::Ok { body } => body,
        other => panic!("expected OK, got {other:?}"),
    }
}

#[test]
fn published_programs_serve_every_connection_byte_identically() {
    let _serial = serial();
    // One connection publishes the suite workload; N other connections
    // query by name concurrently. Every body must match the direct
    // in-process rendering — the same oracle as session mode.
    let (addr, server) = spawn_server(ServeConfig::default());
    let mut cases = standard();
    cases.truncate(4);
    let direct: Vec<String> = cases.iter().map(|c| direct_body(c, Tier::Native)).collect();

    let mut publisher = Client::connect(addr).expect("connect");
    for case in &cases {
        let body = body_of(
            publisher
                .publish(case.name, case.source, None)
                .expect("publish"),
        );
        assert!(body.contains(&format!("name={}", case.name)), "{body}");
        assert!(body.contains("version=1"), "{body}");
    }

    std::thread::scope(|scope| {
        for conn in 0..6 {
            let (cases, direct) = (&cases, &direct);
            scope.spawn(move || {
                // No consult: tenant queries need no per-connection state.
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..12 {
                    let ix = (conn + i) % cases.len();
                    let case = &cases[ix];
                    let reply = if case.enumerate_all {
                        client.query_tenant_all(case.name, case.query)
                    } else {
                        client.query_tenant(case.name, case.query)
                    };
                    assert_eq!(
                        body_of(reply.expect("query")),
                        direct[ix],
                        "{}: served tenant answer differs from direct run",
                        case.name
                    );
                }
            });
        }
    });

    let stats = publisher.stats().expect("stats");
    assert!(stats.contains("programs=4"), "{stats}");
    for case in &cases {
        assert!(
            stats.contains(&format!("tenant.{}.served=", case.name)),
            "{stats}"
        );
        // Native-tier serving: cycles stay 0, steps count the work.
        assert!(
            stats.contains(&format!("tenant.{}.cycles=0", case.name)),
            "{stats}"
        );
        let steps_line = stats
            .lines()
            .find(|l| l.starts_with(&format!("tenant.{}.steps=", case.name)))
            .unwrap_or_else(|| panic!("no steps line for {}: {stats}", case.name));
        let steps: u64 = steps_line.split('=').next_back().unwrap().parse().unwrap();
        assert!(steps > 0, "{steps_line}");
    }
    publisher.shutdown().expect("shutdown");
    let metrics = server.join().expect("server thread").expect("run");
    assert_eq!(metrics.served, 72, "6 connections x 12 tenant queries");
    assert_eq!(metrics.publishes, 4);
    assert_eq!(metrics.errors, 0);
    assert!(metrics.steps > 0, "steps must count native-tier work");
    assert_eq!(metrics.cycles, 0, "native tier has no clock");
}

#[test]
fn republish_swaps_the_program_without_disturbing_other_tenants() {
    let _serial = serial();
    let (addr, server) = spawn_server(ServeConfig::default());
    let mut a = Client::connect(addr).expect("connect");
    let mut b = Client::connect(addr).expect("connect");

    assert!(a.publish("kb", "p(old).", None).expect("publish").is_ok());
    assert!(a.publish("other", "q(1).", None).expect("publish").is_ok());
    let before = body_of(b.query_tenant("kb", "p(X)").expect("query"));
    assert!(before.contains("X=old"), "{before}");

    // Re-publish under the same name: version bumps, new queries see the
    // new program, the sibling tenant is untouched.
    let receipt = body_of(a.publish("kb", "p(new).", None).expect("republish"));
    assert!(receipt.contains("version=2"), "{receipt}");
    assert!(!receipt.contains("evicted="), "{receipt}");
    let after = body_of(b.query_tenant("kb", "p(X)").expect("query"));
    assert!(after.contains("X=new"), "{after}");
    let sibling = body_of(b.query_tenant("other", "q(X)").expect("query"));
    assert!(sibling.contains("X=1"), "{sibling}");

    // Per-tenant stats survive the re-publish: the name, not the
    // version, is the accounting unit.
    let stats = a.stats().expect("stats");
    assert!(stats.contains("tenant.kb.version=2"), "{stats}");
    assert!(stats.contains("tenant.kb.served=2"), "{stats}");
    a.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("run");
}

#[test]
fn stats_count_each_versions_compiled_query_shapes() {
    let _serial = serial();
    let (addr, server) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(addr).expect("connect");
    let facts = "kv(k1, v1). kv(k2, v2).";
    assert!(c.publish("kb", facts, None).expect("publish").is_ok());
    // Two lookups of one shape: the first compiles it, the second
    // copies it.
    for key in ["k1", "k2"] {
        let body = body_of(
            c.query_tenant("kb", &format!("kv({key}, V)"))
                .expect("query"),
        );
        assert!(body.contains("V=v"), "{body}");
    }
    let stats = c.stats().expect("stats");
    for line in ["shape_hits=1\n", "shape_misses=1\n", "shapes=1\n"] {
        assert!(stats.contains(&format!("tenant.kb.{line}")), "{stats}");
    }
    // An edit of the version forgets its shapes.
    assert!(c.assertz("kb", "kv(k3, v3)").expect("assert").is_ok());
    let stats = c.stats().expect("stats");
    assert!(stats.contains("tenant.kb.version=2\n"), "{stats}");
    assert!(stats.contains("tenant.kb.shapes=0\n"), "{stats}");
    c.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("run");
}

#[test]
fn full_registry_evicts_the_least_recently_used_tenant() {
    let _serial = serial();
    let (addr, server) = spawn_server(ServeConfig {
        max_programs: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    assert!(client.publish("a", "f(a).", None).expect("publish").is_ok());
    assert!(client.publish("b", "f(b).", None).expect("publish").is_ok());
    // Touch `a` so `b` is the least recently used.
    assert!(client.query_tenant("a", "f(X)").expect("query").is_ok());

    let receipt = body_of(client.publish("c", "f(c).", None).expect("publish"));
    assert!(receipt.contains("evicted=b"), "{receipt}");
    match client.query_tenant("b", "f(X)").expect("query") {
        Reply::Err { class, message } => {
            assert_eq!(class, "unknown_program", "{message}");
            assert!(message.contains('b'), "{message}");
        }
        other => panic!("evicted tenant answered {other:?}"),
    }
    // The survivors still serve.
    assert!(client.query_tenant("a", "f(X)").expect("query").is_ok());
    assert!(client.query_tenant("c", "f(X)").expect("query").is_ok());
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("run");
}

#[test]
fn tenant_step_budget_caps_queries_and_request_budget_overrides() {
    let _serial = serial();
    let (addr, server) = spawn_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    assert!(client
        .publish("capped", "loop :- loop. ok(1).", Some(10_000))
        .expect("publish")
        .is_ok());

    // The tenant budget stops the runaway query.
    match client.query_tenant("capped", "loop").expect("query") {
        Reply::Err { class, .. } => assert_eq!(class, "budget"),
        other => panic!("runaway answered {other:?}"),
    }
    // A per-request BUDGET overrides the tenant's (still a stop here —
    // the point is that the request-level knob reaches the machine).
    match client
        .request_raw("QUERY @capped BUDGET 1 ok(X)")
        .expect("raw")
    {
        Reply::Err { class, .. } => assert_eq!(class, "budget"),
        other => panic!("BUDGET 1 answered {other:?}"),
    }
    // Within budget, the tenant serves normally.
    let body = body_of(client.query_tenant("capped", "ok(X)").expect("query"));
    assert!(body.contains("X=1"), "{body}");

    let stats = client.stats().expect("stats");
    assert!(stats.contains("tenant.capped.budget_stops=2"), "{stats}");
    assert!(stats.contains("tenant.capped.served=1"), "{stats}");
    client.shutdown().expect("shutdown");
    let metrics = server.join().expect("server thread").expect("run");
    assert_eq!(metrics.budget_stops, 2);
    assert_eq!(metrics.served, 1);
}

#[test]
fn tenant_and_session_modes_coexist_on_one_connection() {
    let _serial = serial();
    // A connection can consult its own program and also query tenants;
    // neither mode disturbs the other's state.
    let (addr, server) = spawn_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    assert!(client
        .publish("kb", "t(shared).", None)
        .expect("publish")
        .is_ok());
    assert!(client.consult("s(private).").expect("consult").is_ok());

    let session = body_of(client.query("s(X)").expect("query"));
    assert!(session.contains("X=private"), "{session}");
    let tenant = body_of(client.query_tenant("kb", "t(X)").expect("query"));
    assert!(tenant.contains("X=shared"), "{tenant}");
    // Session mode again: the tenant query didn't replace the
    // connection's program.
    let again = body_of(client.query("s(X)").expect("query"));
    assert!(again.contains("X=private"), "{again}");
    // And the tenant program does not know the session's predicate.
    match client.query_tenant("kb", "s(X)").expect("query") {
        Reply::Ok { body } => assert!(body.starts_with("success=false"), "{body}"),
        other => panic!("cross-mode query answered {other:?}"),
    }
    // The consulted program is the connection's alone: it is not a
    // registry entry, so STATS counts and lists only the tenant.
    let stats = client.stats().expect("stats");
    assert!(stats.contains("programs=1\n"), "{stats}");
    assert!(
        stats
            .lines()
            .filter(|l| l.starts_with("tenant."))
            .all(|l| l.starts_with("tenant.kb.")),
        "{stats}"
    );
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("run");
}

#[test]
fn unknown_tenant_is_a_classed_error_not_a_dropped_connection() {
    let _serial = serial();
    let (addr, server) = spawn_server(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    match client.query_tenant("ghost", "p(X)").expect("query") {
        Reply::Err { class, message } => {
            assert_eq!(class, "unknown_program");
            assert!(message.contains("ghost"), "{message}");
        }
        other => panic!("unknown tenant answered {other:?}"),
    }
    // The connection survives.
    assert!(client
        .publish("ghost", "p(9).", None)
        .expect("publish")
        .is_ok());
    let body = body_of(client.query_tenant("ghost", "p(X)").expect("query"));
    assert!(body.contains("X=9"), "{body}");
    client.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("run");
}

/// Reads this process's live thread count from /proc (Linux only; other
/// platforms skip the assertion).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[test]
fn idle_connections_cost_buffers_not_threads() {
    let _serial = serial();
    // The structural claim of the readiness-loop front end: the server's
    // thread count is set by its worker pool, not its connection count.
    // Server and clients share this process, so /proc/self/status counts
    // both sides — client connections add zero threads too.
    let (addr, server) = spawn_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut control = Client::connect(addr).expect("connect");
    assert!(control
        .publish("kb", "p(1).", None)
        .expect("publish")
        .is_ok());

    let Some(before) = thread_count() else {
        // Not a /proc platform: the byte-identity tests still cover the
        // functional side; skip the thread-count assertion.
        control.shutdown().expect("shutdown");
        server.join().expect("server thread").expect("run");
        return;
    };

    let mut herd = Vec::new();
    for _ in 0..300 {
        herd.push(Client::connect(addr).expect("idle connect"));
    }
    // The server still answers promptly while carrying the herd.
    let body = body_of(control.query_tenant("kb", "p(X)").expect("query"));
    assert!(body.contains("X=1"), "{body}");
    let during = thread_count().expect("/proc/self/status");
    assert!(
        during <= before + 2,
        "300 idle connections grew the thread count {before} -> {during}"
    );
    drop(herd);
    control.shutdown().expect("shutdown");
    server.join().expect("server thread").expect("run");
}
