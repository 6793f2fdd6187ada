//! The slow-client framing tests: a peer that dribbles bytes with long
//! pauses must decode identically to one that writes whole frames.
//!
//! The previous thread-per-connection server polled with a 100ms read
//! timeout and retried `read_frame` from scratch on timeout, discarding
//! whatever prefix of the frame had already been consumed — a client
//! straddling a tick boundary desynced the stream and got garbage (or
//! hung). The readiness-loop server keeps all partial state in the
//! connection's `FrameBuf`, so these tests dribble bytes with gaps well
//! over the server's tick and assert both the answer *and* that the
//! stream stays in sync for the next request.
//!
//! The opposite kind of slow client stops sending early: one that shuts
//! down its sending side while its request runs must still get the
//! reply, without the event loop spinning on the peer's FIN meanwhile.

use kcm_serve::protocol::{encode_frame, read_frame, render_outcome};
use kcm_serve::{Client, Reply, Request, ServeConfig, Server};
use kcm_system::{Kcm, QueryOpts, Tier};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Comfortably longer than the server's 100ms wait tick, so every gap
/// guarantees at least one tick fires mid-frame.
const GAP: Duration = Duration::from_millis(150);

fn spawn_server() -> (
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<kcm_serve::ServeMetrics>>,
) {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.run()))
}

fn frame(payload: &str) -> Vec<u8> {
    format!("{}\n{payload}", payload.len()).into_bytes()
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Reply {
    let payload = read_frame(reader)
        .expect("read reply frame")
        .expect("server kept the connection");
    Reply::parse(&payload).expect("parse reply")
}

fn direct_body(source: &str, query: &str, enumerate_all: bool) -> String {
    let mut kcm = Kcm::new();
    kcm.load(source).expect("consult");
    let opts = QueryOpts {
        enumerate_all,
        tier: Tier::Native,
        ..QueryOpts::default()
    };
    render_outcome(&kcm.query(query, &opts).expect("query"))
}

#[test]
fn frame_dribbled_across_tick_boundaries_parses_and_stays_in_sync() {
    let (addr, server) = spawn_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // A whole consult frame at once: the fast path still works.
    stream
        .write_all(&frame("CONSULT\nok(42). loop :- loop."))
        .expect("consult");
    assert!(read_reply(&mut reader).is_ok(), "consult");

    // Now the query frame, cut so that the server sees (a) half a length
    // line, (b) a complete length line with no payload, and (c) half a
    // payload — each straddling at least one 100ms tick.
    let query = frame("QUERY ok(X)");
    let cuts = [1, 3, 8]; // "1" | "1\nQUERY" ... within b"11\nQUERY ok(X)"
    let mut at = 0;
    for cut in cuts {
        stream.write_all(&query[at..cut]).expect("dribble");
        std::thread::sleep(GAP);
        at = cut;
    }
    stream.write_all(&query[at..]).expect("dribble tail");
    match read_reply(&mut reader) {
        Reply::Ok { body } => {
            assert_eq!(body, direct_body("ok(42). loop :- loop.", "ok(X)", false));
            assert!(body.contains("X=42"), "{body}");
        }
        other => panic!("dribbled query answered {other:?}"),
    }

    // The stream must still be perfectly framed: an immediate follow-up
    // (whole frame, no pauses) gets a clean answer, not desync garbage.
    stream.write_all(&frame("QUERY ok(Y)")).expect("follow-up");
    match read_reply(&mut reader) {
        Reply::Ok { body } => assert!(body.contains("Y=42"), "{body}"),
        other => panic!("follow-up answered {other:?}"),
    }

    stream.write_all(&frame("SHUTDOWN")).expect("shutdown");
    assert!(read_reply(&mut reader).is_ok(), "shutdown");
    let metrics = server.join().expect("server thread").expect("run");
    assert_eq!(metrics.served, 2);
    assert_eq!(metrics.errors, 0, "{metrics:?}");
}

#[test]
fn byte_by_byte_client_decodes_identically_to_whole_frames() {
    // The degenerate slow client: every single byte its own write. Short
    // inter-byte delays keep the test fast; two long gaps land mid-length
    // and mid-payload to cross tick boundaries as well.
    let (addr, server) = spawn_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    stream
        .write_all(&frame("CONSULT\np(1). p(2). p(3)."))
        .expect("consult");
    assert!(read_reply(&mut reader).is_ok(), "consult");

    let query = frame("QUERYALL p(X)");
    for (i, byte) in query.iter().enumerate() {
        stream.write_all(std::slice::from_ref(byte)).expect("byte");
        match i {
            1 | 9 => std::thread::sleep(GAP), // mid-length-line, mid-payload
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    match read_reply(&mut reader) {
        Reply::Ok { body } => {
            assert_eq!(body, direct_body("p(1). p(2). p(3).", "p(X)", true));
        }
        other => panic!("byte-by-byte query answered {other:?}"),
    }

    stream.write_all(&frame("SHUTDOWN")).expect("shutdown");
    assert!(read_reply(&mut reader).is_ok(), "shutdown");
    server.join().expect("server thread").expect("run");
}

#[test]
fn byte_by_byte_cursor_pull_decodes_and_keeps_the_session_suspended() {
    // A cursor's NEXT dribbled one byte at a time, with gaps straddling
    // the server's tick: the suspended session must sit untouched until
    // the frame completes, then serve exactly the requested batch, and
    // the idle reaper must not confuse a slow *frame* with an idle
    // *cursor* (last_used refreshes when the pull lands).
    let (addr, server) = spawn_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    stream
        .write_all(&frame("CONSULT\nd(1). d(2). d(3). d(4)."))
        .expect("consult");
    assert!(read_reply(&mut reader).is_ok(), "consult");
    stream
        .write_all(&frame("QUERY CURSOR d(X)"))
        .expect("open cursor");
    let id: u64 = match read_reply(&mut reader) {
        Reply::Ok { body } => body
            .strip_prefix("cursor=")
            .and_then(|rest| rest.trim_end().parse().ok())
            .unwrap_or_else(|| panic!("bad open body {body:?}")),
        other => panic!("cursor open answered {other:?}"),
    };

    // Every byte of `NEXT <id> 2` its own write; two long gaps land
    // mid-length-line and mid-payload to cross tick boundaries.
    let next = frame(&format!("NEXT {id} 2"));
    for (i, byte) in next.iter().enumerate() {
        stream.write_all(std::slice::from_ref(byte)).expect("byte");
        match i {
            1 | 5 => std::thread::sleep(GAP),
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    match read_reply(&mut reader) {
        Reply::Ok { body } => {
            assert!(
                body.starts_with(&format!("cursor={id} answers=2 done=false")),
                "{body:?}"
            );
            assert!(body.contains("X=1\n") && body.contains("X=2\n"), "{body:?}");
        }
        other => panic!("dribbled NEXT answered {other:?}"),
    }

    // The stream is still perfectly framed and the cursor still live: a
    // whole-frame follow-up drains the rest.
    stream
        .write_all(&frame(&format!("NEXT {id} 10")))
        .expect("follow-up NEXT");
    match read_reply(&mut reader) {
        Reply::Ok { body } => {
            assert!(
                body.starts_with(&format!("cursor={id} answers=2 done=true")),
                "{body:?}"
            );
            assert!(body.contains("X=3\n") && body.contains("X=4\n"), "{body:?}");
        }
        other => panic!("follow-up NEXT answered {other:?}"),
    }

    stream.write_all(&frame("SHUTDOWN")).expect("shutdown");
    assert!(read_reply(&mut reader).is_ok(), "shutdown");
    let metrics = server.join().expect("server thread").expect("run");
    assert_eq!(metrics.cursors_opened, 1);
    assert_eq!(metrics.cursor_batches, 2);
    assert_eq!(metrics.cursor_answers, 4);
    assert_eq!(metrics.errors, 0, "{metrics:?}");
}

#[test]
fn pipelined_frames_in_one_write_are_all_answered_in_order() {
    // The inverse of dribbling: many frames in a single write. The
    // decoder must pop them one at a time and the per-connection FIFO
    // gate must answer them in order.
    let (addr, server) = spawn_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let mut batch = Vec::new();
    batch.extend_from_slice(&frame("CONSULT\nn(1). n(2)."));
    batch.extend_from_slice(&frame("QUERY n(A)"));
    batch.extend_from_slice(&frame("QUERYALL n(B)"));
    batch.extend_from_slice(&frame("STATS"));
    stream.write_all(&batch).expect("batch");

    assert!(read_reply(&mut reader).is_ok(), "consult");
    match read_reply(&mut reader) {
        Reply::Ok { body } => assert!(body.contains("A=1"), "{body}"),
        other => panic!("first query answered {other:?}"),
    }
    match read_reply(&mut reader) {
        Reply::Ok { body } => assert!(body.contains("solutions=2"), "{body}"),
        other => panic!("second query answered {other:?}"),
    }
    match read_reply(&mut reader) {
        Reply::Ok { body } => assert!(body.contains("served=2"), "{body}"),
        other => panic!("stats answered {other:?}"),
    }

    stream.write_all(&frame("SHUTDOWN")).expect("shutdown");
    assert!(read_reply(&mut reader).is_ok(), "shutdown");
    server.join().expect("server thread").expect("run");
}

/// The CPU time the thread whose `/proc` task directory is `task` has
/// used so far: user plus system time from its `stat` file.
#[cfg(target_os = "linux")]
fn cpu_time(task: &std::path::Path) -> Duration {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    let stat = std::fs::read_to_string(task.join("stat")).expect("stat");
    // utime and stime are fields 14 and 15, the 12th and 13th after the
    // parenthesised command name (which may hold spaces).
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm") + 2..]
        .split_whitespace()
        .collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    // SAFETY: `sysconf` only reads a configuration value; it takes no
    // pointer and has no precondition.
    let per_second = unsafe { sysconf(SC_CLK_TCK) };
    Duration::from_secs_f64(ticks as f64 / per_second as f64)
}

#[cfg(target_os = "linux")]
#[test]
fn a_half_closed_client_gets_its_reply_without_the_loop_spinning() {
    // About 10⁷ steps: long enough to hand the query to the only worker
    // for many quanta, and to see a spinning loop thread.
    const STEPS: u64 = 10_000_000;
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let (task_tx, task_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        // `/proc/thread-self` names the loop thread's own task directory.
        let task = std::fs::read_link("/proc/thread-self").expect("own task");
        task_tx
            .send(std::path::Path::new("/proc").join(task))
            .expect("send");
        server.run()
    });
    let task = task_rx.recv().expect("the loop's task directory");
    let mut admin = Client::connect(addr).expect("connect");
    assert!(admin
        .publish("t", "loop :- loop.", None)
        .expect("publish")
        .is_ok());

    let mut stream = TcpStream::connect(addr).expect("connect");
    let query = Request::Query {
        tenant: Some("t".to_owned()),
        query: "loop".to_owned(),
        enumerate_all: false,
        step_budget: Some(STEPS),
        cursor: false,
    };
    let (cpu_before, start) = (cpu_time(&task), Instant::now());
    stream
        .write_all(&encode_frame(query.encode()))
        .expect("send the query");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let payload = read_frame(&mut BufReader::new(&stream))
        .expect("read the reply")
        .expect("a reply before the close");
    let (cpu, wall) = (cpu_time(&task) - cpu_before, start.elapsed());

    match Reply::parse(&payload).expect("parse reply") {
        Reply::Err { class, message } => assert_eq!(class, "budget", "{message}"),
        other => panic!("the looping query answered {other:?}"),
    }
    assert!(
        cpu < wall / 4,
        "the loop thread used {cpu:?} of CPU time in {wall:?} waiting for a worker"
    );

    assert!(admin.shutdown().expect("shutdown").is_ok());
    handle.join().expect("server thread").expect("run");
}
