//! Time slicing with one worker. Every request runs its first quantum on
//! the event loop, and one that outlasts it shares the worker quantum by
//! quantum with the other long requests. So while a 10⁸-step query holds
//! the only worker, a 15-step lookup from another connection is answered
//! from the loop, and a 10⁶-step query from a third connection finishes
//! long before the 10⁸-step one does. A long request whose connection
//! resets stops at the worker's next turn, instead of running to its
//! budget.

use kcm_serve::protocol::encode_frame;
use kcm_serve::server::QUANTUM;
use kcm_serve::{Client, Reply, Request, ServeConfig, Server};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Facts `kv(k<i>, v<i mod 97>)`, the benchmark's key-value shape.
fn kb_source() -> String {
    (0..1_000)
        .map(|i| format!("kv(k{i}, v{}).\n", i % 97))
        .collect()
}

fn looping(steps: u64) -> Request {
    Request::Query {
        tenant: Some("kb".to_owned()),
        query: "loop".to_owned(),
        enumerate_all: false,
        step_budget: Some(steps),
        cursor: false,
    }
}

/// A `key=value` counter from a `STATS` body.
fn counter(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= line in {stats}"))
}

/// The `steps=` counter from a `STATS` body.
fn steps(stats: &str) -> u64 {
    counter(stats, "steps")
}

/// Polls `STATS` until `ready` holds for its body, which it returns.
fn await_stats(client: &mut Client, what: &str, ready: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats");
        if ready(&stats) {
            return stats;
        }
        assert!(Instant::now() < deadline, "{what}:\n{stats}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn expect_budget(reply: &Reply, steps: u64) {
    match reply {
        Reply::Err { class, message } => {
            assert_eq!(class, "budget", "{message}");
            assert!(
                message.contains(&format!("after {} steps", steps + 1)),
                "{message}"
            );
        }
        other => panic!("expected a budget stop, got {other:?}"),
    }
}

#[test]
fn short_and_medium_queries_finish_while_a_long_query_holds_the_only_worker() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());
    let mut reader = Client::connect(addr).expect("connect reader");
    let source = format!("loop :- loop.\n{}", kb_source());
    assert!(reader
        .publish("kb", &source, None)
        .expect("publish")
        .is_ok());

    // The lookup's cost, measured while nothing else runs.
    let lookup = |client: &mut Client| match client.query_tenant("kb", "kv(k123, V)") {
        Ok(Reply::Ok { body }) => assert!(body.contains("V=v26"), "{body}"),
        other => panic!("lookup answered {other:?}"),
    };
    let before = steps(&reader.stats().expect("stats"));
    lookup(&mut reader);
    let lookup_steps = steps(&reader.stats().expect("stats")) - before;
    assert_eq!(lookup_steps, 15);

    const LONG: u64 = 100_000_000;
    const MEDIUM: u64 = 1_000_000;
    const { assert!(MEDIUM > 10 * QUANTUM) };
    let long_done = Arc::new(AtomicBool::new(false));
    let long = {
        let long_done = Arc::clone(&long_done);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect long");
            let reply = client.request(&looping(LONG)).expect("long query");
            long_done.store(true, Ordering::SeqCst);
            reply
        })
    };
    // Wait until the long query is with the worker.
    await_stats(&mut reader, "the long query never started", |s| {
        s.contains("tenant.kb.inflight=1\n")
    });

    lookup(&mut reader);
    assert!(
        !long_done.load(Ordering::SeqCst),
        "the lookup waited for the long query"
    );
    let mut medium = Client::connect(addr).expect("connect medium");
    expect_budget(&medium.request(&looping(MEDIUM)).expect("medium"), MEDIUM);
    assert!(
        !long_done.load(Ordering::SeqCst),
        "the medium query waited for the long query"
    );

    expect_budget(&long.join().expect("long thread"), LONG);
    reader.shutdown().expect("shutdown");
    let metrics = handle.join().expect("server thread").expect("server run");
    assert_eq!(metrics.busy, 0);
}

#[test]
fn a_long_request_ends_with_its_connection() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());
    let mut admin = Client::connect(addr).expect("connect admin");
    assert!(admin
        .publish("kb", "loop :- loop.", None)
        .expect("publish")
        .is_ok());

    // A client asks for its statistics and then for a query of 10¹⁰
    // steps, and closes with the first reply unread, which resets the
    // connection while the query is with the only worker.
    let mut client = TcpStream::connect(addr).expect("connect client");
    let mut frames = encode_frame(Request::Stats.encode());
    frames.extend(encode_frame(looping(10_000_000_000).encode()));
    client.write_all(&frames).expect("send");
    await_stats(&mut admin, "the long query never started", |s| {
        s.contains("tenant.kb.inflight=1\n")
    });
    client.peek(&mut [0]).expect("the statistics reply arrives");
    drop(client);

    // The worker drops the query at its next turn; it never trips its
    // budget.
    let stats = await_stats(&mut admin, "the closed request kept running", |s| {
        s.contains("tenant.kb.inflight=0\n")
    });
    assert_eq!(counter(&stats, "budget_stops"), 0, "{stats}");

    // The worker still serves long queries.
    const MEDIUM: u64 = 1_000_000;
    const { assert!(MEDIUM > 10 * QUANTUM) };
    expect_budget(&admin.request(&looping(MEDIUM)).expect("medium"), MEDIUM);
    // The dropped query counts as cancelled, in the total and for its
    // program.
    let stats = admin.stats().expect("stats");
    assert_eq!(counter(&stats, "cancelled"), 1, "{stats}");
    assert_eq!(counter(&stats, "tenant.kb.cancelled"), 1, "{stats}");
    admin.shutdown().expect("shutdown");
    let metrics = handle.join().expect("server thread").expect("server run");
    assert_eq!(metrics.budget_stops, 1);
    assert_eq!(metrics.cancelled, 1);
}
