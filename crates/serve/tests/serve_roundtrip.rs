//! End-to-end serving tests over a real TCP socket: the daemon must be
//! a transparent wrapper around the offline [`RunRequest`] path — same
//! identity hash, same digest — and the load generator's closed loop
//! must observe rising cache hit rates on repeated queries.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;

use graphmaze_core::flatjson::parse_flat_json;
use graphmaze_core::prelude::*;
use graphmaze_serve::loadgen::{self, LoadgenConfig};
use graphmaze_serve::protocol::{encode_run_request, is_cache_hit};
use graphmaze_serve::{grid, ServeConfig, Server};

/// Binds a daemon on an ephemeral port and runs it on a background
/// thread; returns its address. The accept thread exits when a
/// `shutdown` request arrives.
fn spawn_daemon(cfg: ServeConfig) -> (String, thread::JoinHandle<()>) {
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle)
}

fn send_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").expect("send");
    stream.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    reply.trim_end().to_string()
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

#[test]
fn daemon_answers_match_offline_execution_bit_exactly() {
    let (addr, daemon) = spawn_daemon(ServeConfig::default());
    let (mut stream, mut reader) = connect(&addr);

    // the exact cell `repro`'s sweeps would build, executed offline
    let req = RunRequest::new(
        "serve",
        SweepCell {
            label: "parity".to_string(),
            algorithm: Algorithm::Bfs,
            framework: Framework::GraphLab,
            spec: WorkloadSpec::Rmat {
                scale: 7,
                edge_factor: 4,
                seed: 3,
            },
            nodes: 2,
            factor: 1.0,
            params: graphmaze_bench::standard_params(),
            faults: FaultPlan::none(),
        },
    );
    let offline = req.execute(&WorkloadCache::new());
    let offline_digest = offline.outcome.as_ref().expect("runs").digest;

    // same cell over the wire — first answer computes, second hits
    let line = encode_run_request("parity", &req);
    let first = parse_flat_json(&send_line(&mut stream, &mut reader, &line)).expect("json");
    let second = parse_flat_json(&send_line(&mut stream, &mut reader, &line)).expect("json");
    assert_eq!(first["status"], "done");
    assert_eq!(
        first["key"],
        format!("{:016x}", offline.key),
        "identity hash parity"
    );
    assert_eq!(
        first["digest"].parse::<f64>().expect("digest"),
        offline_digest,
        "digest parity between daemon and offline path"
    );
    assert!(!is_cache_hit(&first));
    assert!(is_cache_hit(&second));
    assert_eq!(
        first["digest"], second["digest"],
        "cache returns the same answer"
    );

    // stats reflect the two runs and the single admission
    let stats =
        parse_flat_json(&send_line(&mut stream, &mut reader, r#"{"op":"stats"}"#)).expect("json");
    assert_eq!(stats["requests"], "2");
    assert_eq!(stats["cache_hits"], "1");
    assert_eq!(stats["cache_misses"], "1");
    assert_eq!(stats["cache_admissions"], "1");

    let bye = send_line(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    assert!(bye.contains(r#""status":"bye""#));
    daemon.join().expect("daemon exits cleanly");
}

#[test]
fn malformed_lines_get_errors_without_killing_the_connection() {
    let (addr, daemon) = spawn_daemon(ServeConfig::default());
    let (mut stream, mut reader) = connect(&addr);
    let err = send_line(&mut stream, &mut reader, "garbage");
    assert!(err.contains(r#""status":"error""#));
    let err = send_line(
        &mut stream,
        &mut reader,
        r#"{"op":"run","id":"x","algorithm":"pagerank","spec":"rmat/s2x/e4/x1"}"#,
    );
    assert!(err.contains("invalid integer `2x`"), "{err}");
    assert!(err.contains(r#""id":"x""#));
    // connection still serves good requests afterwards
    let pong = send_line(&mut stream, &mut reader, r#"{"op":"ping"}"#);
    assert!(pong.contains(r#""status":"pong""#));
    send_line(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon exits cleanly");
}

#[test]
fn short_connections_are_joined_as_they_close() {
    let server = Server::bind(&ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let state = server.state();
    let daemon = thread::spawn(move || server.run().expect("serve loop"));
    for _ in 0..200 {
        let (mut stream, mut reader) = connect(&addr);
        let pong = send_line(&mut stream, &mut reader, r#"{"op":"ping"}"#);
        assert!(pong.contains(r#""status":"pong""#));
    }
    // each accept joins the threads whose clients have gone, so only the
    // connections whose threads had not yet seen their client leave can
    // still be held: how many depends on scheduling, but far fewer than 200
    let held = state.connection_threads();
    assert!((1..=32).contains(&held), "{held} connection threads held");
    let (mut stream, mut reader) = connect(&addr);
    send_line(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon exits cleanly");
    assert_eq!(state.connection_threads(), 0, "the drain joins the rest");
}

#[test]
fn oversized_lines_get_one_error_and_the_connection_is_closed() {
    let (addr, daemon) = spawn_daemon(ServeConfig::default());
    let (mut stream, mut reader) = connect(&addr);
    // 1 MiB and never a newline; the daemon hangs up part-way through,
    // so the tail of the write may fail
    let _ = stream.write_all(&vec![b'x'; 1 << 20]);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("error reply");
    assert!(reply.contains(r#""status":"error""#), "{reply}");
    assert!(reply.contains("exceeds 65536 bytes"), "{reply}");
    let mut rest = String::new();
    assert!(
        matches!(reader.read_line(&mut rest), Ok(0) | Err(_)),
        "connection must be closed, got {rest:?}"
    );
    // the daemon itself is unharmed
    let (mut stream, mut reader) = connect(&addr);
    let pong = send_line(&mut stream, &mut reader, r#"{"op":"ping"}"#);
    assert!(pong.contains(r#""status":"pong""#));
    send_line(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon exits cleanly");
}

#[test]
fn loadgen_closed_loop_reports_rising_hit_rate() {
    let (addr, daemon) = spawn_daemon(ServeConfig {
        jobs: 4,
        ..ServeConfig::default()
    });
    // tiny population at tiny scale: 60 requests over 24 distinct
    // queries guarantees repeats, hence cache hits
    let population = grid::default_grid(6, 1, 2);
    let cfg = LoadgenConfig {
        addr: addr.clone(),
        requests: 60,
        concurrency: 3,
        zipf_s: 1.0,
        rate: None,
        seed: 9,
    };
    let report = loadgen::run(&cfg, &population).expect("loadgen runs");
    assert_eq!(report.completed, 60, "failures: {}", report.failures);
    assert_eq!(report.failures, 0);
    assert!(
        report.hits > 0 && report.hit_rate() > 0.5,
        "repeated Zipf queries must hit the cache: {} hits / {} misses",
        report.hits,
        report.misses
    );
    assert!(
        report.misses <= population.len(),
        "at most one miss per distinct query"
    );
    assert_eq!(report.latencies_ms.len(), 60);
    assert!(report.percentile_ms(50.0) <= report.percentile_ms(99.0));
    assert!(report.throughput_rps() > 0.0);
    // the CSV the CI smoke job parses is well-formed
    let csv = report.to_csv(&cfg);
    let lines: Vec<&str> = csv.trim_end().lines().collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());

    // a second identical burst is all hits: the hit rate rises
    let second = loadgen::run(&cfg, &population).expect("second burst");
    assert!(
        second.hit_rate() > report.hit_rate(),
        "warm cache must raise the hit rate: {} -> {}",
        report.hit_rate(),
        second.hit_rate()
    );
    let (mut stream, mut reader) = connect(&addr);
    send_line(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon exits cleanly");
}

#[test]
fn cell_failures_are_answers_and_cached() {
    let (addr, daemon) = spawn_daemon(ServeConfig::default());
    let (mut stream, mut reader) = connect(&addr);
    // Galois is single-node only — a deterministic InvalidConfig failure
    let req = RunRequest::new(
        "serve",
        SweepCell {
            label: "invalid".to_string(),
            algorithm: Algorithm::PageRank,
            framework: Framework::Galois,
            spec: WorkloadSpec::Rmat {
                scale: 6,
                edge_factor: 4,
                seed: 1,
            },
            nodes: 4,
            factor: 1.0,
            params: graphmaze_bench::standard_params(),
            faults: FaultPlan::none(),
        },
    );
    let line = encode_run_request("f", &req);
    let first = parse_flat_json(&send_line(&mut stream, &mut reader, &line)).expect("json");
    assert_eq!(first["status"], "failed");
    assert!(!is_cache_hit(&first));
    let second = parse_flat_json(&send_line(&mut stream, &mut reader, &line)).expect("json");
    assert_eq!(second["status"], "failed");
    assert!(
        is_cache_hit(&second),
        "deterministic failures are cached answers"
    );
    assert_eq!(first["error_kind"], second["error_kind"]);
    send_line(&mut stream, &mut reader, r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon exits cleanly");
}
