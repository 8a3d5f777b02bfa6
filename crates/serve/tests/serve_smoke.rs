//! The serve binary end to end: a daemon on an ephemeral port with an
//! access log and a trace, a 200-request Zipf burst from the binary's own
//! load generator, a live `metrics` scrape over the line protocol, and a
//! graceful drain. Every file the daemon and the load generator write is
//! then checked: the summary CSV, the access log (the stages of every
//! line sum to its total, hits execute nothing) and the four trace lanes.
//! The access log and the trace are read as strict JSON, so a line or a
//! trace that a JSON reader would refuse fails the test.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};

#[path = "support/strict_json.rs"]
mod strict_json;
use strict_json::Json;

const SERVE: &str = env!("CARGO_BIN_EXE_serve");

#[test]
fn the_json_reader_refuses_what_json_refuses() {
    let ok = r#" {"a":[1,-0.5e+3,"\u00e9\ud83d\ude00\n",{}],"b":null,"c":true,"a":[]} "#;
    let value = Json::parse(ok).expect("valid JSON");
    assert_eq!(
        value.get("a"),
        Some(&Json::Arr(vec![])),
        "the last `a` wins"
    );
    let Json::Obj(fields) = &value else {
        panic!("{value:?}")
    };
    let Json::Arr(items) = &fields[0].1 else {
        panic!("{fields:?}")
    };
    assert_eq!(items[2], Json::Str("\u{e9}\u{1f600}\n".into()));
    for bad in [
        r#"{"a":1,}"#,
        r#"{"a":1}x"#,
        r#"{"a":[1,2}"#,
        r#"{"a":[1,2]"#,
        r#"{"a":"\q"}"#,
        r#"{"a":"\u12"}"#,
        "{\"a\":\"tab\there\"}",
        r#"{"a":01}"#,
        r#"{"a":1.}"#,
        r#"{"a":-}"#,
        r#"{a:1}"#,
        r#"{"a" 1}"#,
        r#"[1 2]"#,
        r#"nul"#,
        "",
    ] {
        assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
    }
}

/// Kills the daemon if the test fails before it drains.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Scrapes the live exposition and returns each sample's value by its
/// full name (labels included). Every sample line must parse.
fn scrape(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> HashMap<String, f64> {
    writeln!(stream, r#"{{"op":"metrics"}}"#).expect("send metrics");
    let mut samples = HashMap::new();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("exposition line") > 0,
            "connection closed before # EOF"
        );
        let line = line.trim_end();
        if line == "# EOF" {
            return samples;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("name and value");
        let value: f64 = value.parse().unwrap_or_else(|_| panic!("sample {line:?}"));
        samples.insert(name.to_string(), value);
    }
}

#[test]
fn zipf_burst_live_scrape_and_graceful_drain() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (access_log, trace, csv) = (
        dir.join("access.jsonl"),
        dir.join("serve.trace.json"),
        dir.join("loadgen.csv"),
    );

    let mut daemon = Daemon(
        Command::new(SERVE)
            .args(["--listen", "127.0.0.1:0", "--jobs", "4", "--access-log"])
            .arg(&access_log)
            .arg("--trace")
            .arg(&trace)
            .stdout(Stdio::piped())
            .spawn()
            .expect("start the daemon"),
    );
    // kept open until the daemon exits: it reports its drain on stdout
    let mut daemon_out = BufReader::new(daemon.0.stdout.take().expect("daemon stdout"));
    let mut banner = String::new();
    daemon_out.read_line(&mut banner).expect("banner");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap_or_else(|| panic!("no listening address in {banner:?}"))
        .to_string();

    let loadgen = Command::new(SERVE)
        .args(["--loadgen", "--connect", &addr])
        .args(["--requests", "200", "--concurrency", "4", "--zipf", "1.0"])
        .args(["--scale", "7", "--nodes", "2", "--csv"])
        .arg(&csv)
        .output()
        .expect("run the load generator");
    assert!(
        loadgen.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&loadgen.stderr)
    );

    // scrape the live exposition over the line protocol, then drain
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let samples = scrape(&mut stream, &mut reader);
    assert!(!samples.is_empty(), "exposition must not be empty");
    assert_eq!(samples["graphmaze_serve_requests_total"], 200.0);
    // the burst is drained: nothing in flight, not yet draining
    assert_eq!(samples["graphmaze_serve_in_flight"], 0.0);
    assert_eq!(samples["graphmaze_serve_draining"], 0.0);
    assert!(samples["graphmaze_cache_hits_total"] > 0.0);
    writeln!(stream, r#"{{"op":"shutdown"}}"#).expect("send shutdown");
    let mut bye = String::new();
    reader.read_line(&mut bye).expect("bye");
    assert!(bye.contains("bye"), "{bye}");
    let mut report = String::new();
    daemon_out
        .read_to_string(&mut report)
        .expect("drain report");
    let status = daemon.0.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit {status}");

    let text = std::fs::read_to_string(&csv).expect("loadgen CSV");
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("CSV header").split(',').collect();
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), 1, "{rows:?}");
    let row: HashMap<&str, &str> = header.into_iter().zip(rows[0].split(',')).collect();
    let num = |column: &str| -> f64 {
        row[column]
            .parse()
            .unwrap_or_else(|_| panic!("{column} = {:?}", row[column]))
    };
    let (p50, p99) = (num("p50_ms"), num("p99_ms"));
    assert!(0.0 < p50 && p50 <= p99, "{p50} {p99}");
    assert!(num("throughput_rps") > 0.0, "{row:?}");
    assert_eq!(num("failures"), 0.0, "{row:?}");
    // 200 Zipf-skewed requests over the 29-cell grid must repeat: the
    // result cache has to see hits
    assert!(num("cache_hits") > 0.0 && num("hit_rate") > 0.0, "{row:?}");
    // the daemon's own span percentiles rode along in the CSV
    assert!(
        num("srv_total_p50_ms") <= num("srv_total_p99_ms"),
        "{row:?}"
    );
    assert!((0.0..=1.0).contains(&num("srv_hit_rate")), "{row:?}");

    // the drain flushed the access log: one line per request, stage
    // nanoseconds reconciling with the total exactly
    let log = std::fs::read_to_string(&access_log).expect("access log");
    let entries: Vec<Json> = log
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("access-log line {l:?}: {e}")))
        .collect();
    assert_eq!(entries.len(), 200);
    let ns = |e: &Json, field: &str| -> u64 {
        e.get(field)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("integer nanoseconds `{field}` in {e:?}"))
    };
    for e in &entries {
        let stages = ns(e, "queue_ns")
            + ns(e, "cache_lookup_ns")
            + ns(e, "execute_ns")
            + ns(e, "respond_ns");
        assert_eq!(stages, ns(e, "total_ns"), "{e:?}");
    }
    let hits: Vec<_> = entries
        .iter()
        .filter(|e| e.get("outcome").and_then(Json::as_str) == Some("hit"))
        .collect();
    assert!(!hits.is_empty(), "the burst must hit the cache");
    assert!(hits.iter().all(|e| ns(e, "execute_ns") == 0));

    // request spans landed on the serve trace lanes; the whole file is
    // one JSON document
    let trace = std::fs::read_to_string(&trace).expect("trace");
    let trace = Json::parse(&trace).unwrap_or_else(|e| panic!("the trace is not JSON: {e}"));
    let Some(Json::Arr(events)) = trace.get("traceEvents") else {
        panic!("no traceEvents array in the trace")
    };
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).map(str::to_string);
    let lanes: Vec<String> = events
        .iter()
        .filter(|e| field(e, "name").as_deref() == Some("thread_name"))
        .map(|e| {
            e.get("args")
                .and_then(|args| field(args, "name"))
                .unwrap_or_else(|| panic!("thread_name without args.name: {e:?}"))
        })
        .collect();
    for lane in ["queue_wait", "cache_lookup", "execute", "respond"] {
        assert!(
            lanes.iter().any(|l| l == lane),
            "{lane} missing from {lanes:?}"
        );
    }
    let complete = events
        .iter()
        .filter(|e| field(e, "ph").as_deref() == Some("X"))
        .count();
    assert!(complete >= 200, "{complete} complete events");
}
