//! Byte pins on what the daemon says, so a faster request path can be
//! checked against the one it replaces:
//!
//! * over `default_grid(7, 42, 2)`, every cache-hit reply equals its
//!   miss reply except for the `cache` tag and the host-clock
//!   `wall_secs`, and the miss replies themselves are pinned in
//!   `tests/golden/grid_replies.txt`;
//! * after a fixed request sequence, the `stats` reply (its timing
//!   fields left out) and the `metrics` exposition (the two timing
//!   histograms left out) are pinned in `tests/golden/exposition.txt` —
//!   which series exist, and every counter, gauge and simulated-seconds
//!   bucket.
//!
//! On a mismatch a test writes the actual text next to its temporary
//! directory and fails naming the first differing line. Re-bless by
//! copying that file over the golden, only in a change that says why
//! the wire bytes moved.

use std::path::Path;

use graphmaze_serve::grid::default_grid;
use graphmaze_serve::protocol::encode_run_request;
use graphmaze_serve::{ServeConfig, ServeState, Server};

fn daemon() -> std::sync::Arc<ServeState> {
    Server::bind(&ServeConfig {
        jobs: 1,
        cache_capacity: 64,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
    .state()
}

/// A `run` reply with its `,"wall_secs":<number>` member cut out.
fn without_wall_secs(reply: &str) -> String {
    let start = reply.find(",\"wall_secs\":").expect("wall_secs field");
    let rest = &reply[start + 1..];
    let end = rest.find([',', '}']).expect("end of wall_secs");
    format!("{}{}", &reply[..start], &rest[end..])
}

fn check_golden(name: &str, actual: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if golden == actual {
        return;
    }
    let actual_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&actual_path, actual).expect("write actual text");
    let (expected, actual): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), actual.lines().collect());
    let first = (0..expected.len().max(actual.len()))
        .find(|&i| expected.get(i) != actual.get(i))
        .unwrap_or(0);
    panic!(
        "{} differs at line {}:\n  expected: {}\n  actual:   {}\n\
         actual text written to {}; copy it over the golden to re-bless",
        golden_path.display(),
        first + 1,
        expected.get(first).unwrap_or(&"<none>"),
        actual.get(first).unwrap_or(&"<none>"),
        actual_path.display(),
    );
}

#[test]
fn every_hit_reply_equals_its_miss_reply_over_the_default_grid() {
    let state = daemon();
    let mut misses = String::new();
    for (i, req) in default_grid(7, 42, 2).iter().enumerate() {
        let line = encode_run_request(&format!("q{i}"), req);
        let (miss, _) = state.handle_line(&line);
        let (hit, _) = state.handle_line(&line);
        let miss = without_wall_secs(&miss);
        let hit = without_wall_secs(&hit);
        assert!(miss.contains(",\"cache\":\"miss\","), "{miss}");
        assert_eq!(
            hit,
            miss.replacen(",\"cache\":\"miss\",", ",\"cache\":\"hit\",", 1),
            "cell {i}: a hit answers with the miss's bytes"
        );
        misses.push_str(&miss);
        misses.push('\n');
    }
    assert_eq!(state.results.stats().hits, 29);
    check_golden("grid_replies.txt", &misses);
}

/// Stats fields that read the host clock.
fn is_timing_stat(key: &str) -> bool {
    key.ends_with("_ms") || key == "uptime_secs" || key == "permit_wait_total_s"
}

/// Exposition families whose samples are host-clock durations.
const TIMING_HISTOGRAMS: [&str; 2] = [
    "graphmaze_serve_stage_seconds",
    "graphmaze_serve_request_seconds",
];

#[test]
fn stats_and_exposition_after_a_fixed_sequence() {
    let state = daemon();
    let grid = default_grid(7, 42, 2);
    let mut lines: Vec<String> = [0usize, 7, 13, 19, 25]
        .iter()
        .map(|&i| encode_run_request(&format!("g{i}"), &grid[i]))
        .collect();
    lines.extend(
        [
            // a deterministic cell failure, then its cached answer
            r#"{"op":"run","id":"f","algorithm":"bfs","spec":"rmat/s7/e4/x1","bfs_source":1000000}"#,
            // an elastic run: the cluster-width gauge and rebalance counter
            r#"{"op":"run","id":"el","algorithm":"pagerank","spec":"rmat/s7/e4/x1","nodes":2,"faults":"seed=1,join=2@1,leave=1@3"}"#,
            // protocol errors
            r#"{"op":"run","id":"e","spec":"rmat/s7/e4/x1"}"#,
            r#"{"op":"teleport","id":"t"}"#,
            "not json",
            r#"{"op":"ping","id":"p"}"#,
        ]
        .map(String::from),
    );
    for _pass in 0..2 {
        for line in &lines {
            state.handle_line(line);
        }
    }

    let (stats, _) = state.handle_line(r#"{"op":"stats","id":"s"}"#);
    let inner = stats
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .expect("one object");
    let kept: Vec<&str> = inner
        .split(',')
        .filter(|member| {
            let key = member.split(':').next().unwrap_or("").trim_matches('"');
            !is_timing_stat(key)
        })
        .collect();
    let mut text = format!("{{{}}}\n", kept.join(","));

    let (exposition, _) = state.handle_line(r#"{"op":"metrics","id":"m"}"#);
    for line in exposition.lines() {
        let timing = !line.starts_with('#')
            && TIMING_HISTOGRAMS
                .iter()
                .any(|family| line.starts_with(family));
        if !timing {
            text.push_str(line);
            text.push('\n');
        }
    }
    check_golden("exposition.txt", &text);
}
