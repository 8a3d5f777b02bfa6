//! Properties of `repro` experiments that the golden
//! (`repro_goldens.rs`) pins only as bytes: what must hold whatever the
//! numbers are, so a re-bless cannot bless a broken curve. Each runs one
//! experiment at a small scale and is cheap enough for debug builds.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use graphmaze_bench::experiments::{extras, figures, tables, EXPERIMENTS};
use graphmaze_bench::ReproConfig;
use graphmaze_core::flatjson::parse_flat_json;

#[path = "../../serve/tests/support/strict_json.rs"]
mod strict_json;
use strict_json::Json;

/// Runs `experiment` into a fresh `<tmp>/<sub>/out` and returns that
/// directory.
fn run(
    experiment: fn(&ReproConfig) -> String,
    sub: &str,
    scale: u32,
    jobs: usize,
    trace: bool,
) -> PathBuf {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("repro_properties")
        .join(sub);
    let _ = std::fs::remove_dir_all(&base);
    let cfg = ReproConfig {
        target_scale: scale,
        jobs,
        out_dir: Some(base.join("out")),
        trace_dir: trace.then(|| base.join("trace")),
        ..ReproConfig::default()
    };
    experiment(&cfg);
    base.join("out")
}

/// The cells of one CSV line (quoted cells hold commas and doubled
/// quotes, never newlines).
fn csv_cells(line: &str) -> Vec<String> {
    let mut cells = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                cells.last_mut().unwrap().push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => cells.push(String::new()),
            c => cells.last_mut().unwrap().push(c),
        }
    }
    cells
}

/// The rows of a CSV artifact as header → value maps.
fn csv(path: &Path) -> Vec<BTreeMap<String, String>> {
    let text = std::fs::read_to_string(path).expect("csv artifact");
    let mut lines = text.lines();
    let headers = csv_cells(lines.next().expect("header"));
    lines
        .map(|l| headers.iter().cloned().zip(csv_cells(l)).collect())
        .collect()
}

/// `(label, framework) → digest` of every journal line of `experiment`.
fn digests(out: &Path, experiment: &str) -> BTreeMap<(String, String), String> {
    let journal = std::fs::read_to_string(out.join("journal.jsonl")).expect("journal");
    journal
        .lines()
        .map(|l| parse_flat_json(l).expect("journal line"))
        .filter(|d| d["experiment"] == experiment && d.contains_key("digest"))
        .map(|d| {
            (
                (d["label"].clone(), d["framework"].clone()),
                d["digest"].clone(),
            )
        })
        .collect()
}

/// The events of the trace a traced [`run`] wrote for `experiment`,
/// which must be one strict JSON document.
fn trace_events(out: &Path, experiment: &str) -> Vec<Json> {
    let path = out
        .with_file_name("trace")
        .join(format!("{experiment}.trace.json"));
    let text = std::fs::read_to_string(path).expect("trace");
    let trace = Json::parse(&text).unwrap_or_else(|e| panic!("{experiment}: not JSON: {e}"));
    let Json::Obj(fields) = trace else {
        panic!("{experiment}: the trace is not an object")
    };
    match fields.into_iter().rev().find(|(k, _)| k == "traceEvents") {
        Some((_, Json::Arr(events))) => events,
        _ => panic!("{experiment}: no traceEvents array"),
    }
}

fn is_complete(event: &Json) -> bool {
    event.get("ph").and_then(Json::as_str) == Some("X")
}

#[test]
fn fig6_trace_is_one_json_document_with_complete_events() {
    let out = run(figures::fig6, "fig6", 10, 2, true);
    assert!(trace_events(&out, "fig6").iter().any(is_complete));
}

#[test]
fn tabler_trace_has_spans_on_the_recovery_lane() {
    let out = run(tables::table_r, "tabler", 10, 2, true);
    let events = trace_events(&out, "tabler");
    let lanes: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .map(|e| {
            e.get("args")
                .and_then(|args| args.get("name"))
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("thread_name without args.name: {e:?}"))
        })
        .collect();
    assert!(lanes.contains(&"recovery"), "{lanes:?}");
    // the nodefail variant's Giraph cell puts real spans on the recovery
    // lane (tid 4)
    assert!(events
        .iter()
        .any(|e| is_complete(e) && e.get("tid").and_then(Json::as_u64) == Some(4)));
}

#[test]
fn resilience_is_jobs_invariant_and_monotone_in_drop_rate() {
    let par = run(extras::resilience, "resilience-par", 10, 2, true);
    let ser = run(extras::resilience, "resilience-ser", 10, 1, false);
    let csv_bytes = |dir: &Path| std::fs::read(dir.join("resilience.csv")).unwrap();
    assert_eq!(
        csv_bytes(&par),
        csv_bytes(&ser),
        "resilience.csv depends on --jobs"
    );

    let rows: Vec<_> = csv(&par.join("resilience.csv"))
        .into_iter()
        .filter(|r| !r["framework"].ends_with("+spec"))
        .collect();
    assert_eq!(rows.len(), 20);
    let mut per_fw: BTreeMap<String, Vec<(f64, u64)>> = BTreeMap::new();
    for r in &rows {
        per_fw.entry(r["framework"].clone()).or_default().push((
            r["drop_prob"].parse().unwrap(),
            r["retransmits"].parse().unwrap(),
        ));
    }
    for (fw, mut points) in per_fw {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let counts: Vec<u64> = points.iter().map(|p| p.1).collect();
        // raising the drop rate never removes a retransmission event, and
        // the top rate always retransmits
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{fw}: {counts:?}");
        assert!(counts[counts.len() - 1] > 0, "{fw}: {counts:?}");
    }

    // faults cost time, not answers: one digest per framework
    let mut per_fw: BTreeMap<String, String> = BTreeMap::new();
    for ((label, fw), digest) in digests(&par, "resilience") {
        let first = per_fw.entry(fw).or_insert_with(|| digest.clone());
        assert_eq!(*first, digest, "{label}");
    }

    // backoff stalls ride the fifth trace lane
    let trace = par.with_file_name("trace").join("resilience.trace.json");
    let trace = std::fs::read_to_string(trace).expect("resilience trace");
    assert!(trace.contains(r#""tid":5,"args":{"name":"resilience"}"#));
    assert!(trace
        .lines()
        .any(|e| e.contains(r#""ph":"X""#) && e.contains(r#""tid":5,"#)));
}

#[test]
fn msbfs_is_jobs_invariant_and_every_engine_agrees() {
    let par = run(extras::msbfs, "msbfs-par", 9, 4, false);
    let ser = run(extras::msbfs, "msbfs-ser", 9, 1, false);
    let csv_bytes = |dir: &Path| std::fs::read(dir.join("msbfs.csv")).unwrap();
    assert_eq!(
        csv_bytes(&par),
        csv_bytes(&ser),
        "msbfs.csv depends on --jobs"
    );
    let (par, ser) = (digests(&par, "msbfs"), digests(&ser, "msbfs"));
    assert_eq!(par.len(), 8);
    assert_eq!(par, ser, "msbfs digests depend on --jobs");
    // the four ported engines agree bit-exactly per scale
    for ((label, fw), digest) in &par {
        assert_eq!(
            *digest,
            par[&(label.clone(), "native".into())],
            "{fw} at {label}"
        );
    }
}

#[test]
fn commmatrix_has_off_diagonal_bytes_for_every_framework() {
    let out = run(extras::comm_matrix, "commmatrix", 10, 1, false);
    let mut off_diagonal: BTreeMap<String, u64> = BTreeMap::new();
    for r in csv(&out.join("comm_matrix.csv")) {
        let bytes = off_diagonal.entry(r["framework"].clone()).or_default();
        if r["src"] != r["dst"] {
            *bytes += r["bytes"].parse::<u64>().unwrap();
        }
    }
    assert_eq!(off_diagonal.len(), 5);
    assert!(off_diagonal.values().all(|&b| b > 0), "{off_diagonal:?}");
}

/// `--list`'s cell counts are the journal lines each experiment writes
/// in the committed golden (a sweep may also journal as
/// `<name>-<variant>`, like `resilience-spec`; a direct experiment
/// journals nothing).
#[test]
fn listing_cell_counts_match_the_golden_journal() {
    let golden = include_str!("golden/repro_scale10.tsv");
    let journaled: Vec<&str> = golden
        .lines()
        .filter_map(|l| l.strip_prefix("journal\t"))
        .map(|l| &l[..l.find('/').expect("experiment/key")])
        .collect();
    let mut counted = 0;
    for e in EXPERIMENTS {
        let rows = journaled
            .iter()
            .filter(|j| j.split('-').next() == Some(e.names[0]))
            .count();
        assert_eq!(rows, e.cells.unwrap_or(0), "{}", e.names[0]);
        counted += rows;
    }
    assert_eq!(
        counted,
        journaled.len(),
        "journal rows of no listed experiment"
    );
}

#[test]
fn out_of_range_scale_is_a_usage_error_before_any_work() {
    let repro = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro")
    };
    for scale in ["5", "30"] {
        let run = repro(&["fig3", "--scale", scale, "--no-csv"]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "--scale {scale}: {stderr}");
        assert!(stderr.starts_with("error: --scale"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(run.stdout.is_empty(), "--scale {scale} did work");
    }
    assert!(repro(&["table2", "--scale", "6", "--no-csv"])
        .status
        .success());
}

#[test]
fn no_experiment_is_a_usage_error_that_keeps_the_journal() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_properties/no-experiment");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.jsonl");
    std::fs::write(&journal, "{}\n").unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "10", "--out"])
        .arg(&dir)
        .output()
        .expect("run repro");
    assert_eq!(run.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&run.stderr).starts_with("error: no experiment"));
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), "{}\n");
}

#[test]
fn serve_trace_labels_read_back_unchanged_through_a_strict_json_reader() {
    use graphmaze_core::metrics::SpanRecord;
    let label = "q\"uote \\ back\nline \u{1} ctl";
    let span = SpanRecord {
        id: "id\n1".into(),
        label: label.into(),
        outcome: "miss",
        start_s: 0.0,
        queue_ns: 0,
        lookup_ns: 0,
        execute_ns: 5_000,
        respond_ns: 0,
        total_ns: 5_000,
    };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_properties/serve-trace");
    let path = dir.join("serve.trace.json");
    graphmaze_bench::trace::write_serve_trace(&path, &[span]).expect("trace written");
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("one JSON document");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    let execute = events
        .iter()
        .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .expect("the execute stage is an X event");
    assert_eq!(execute.get("name").and_then(Json::as_str), Some(label));
    let args = execute.get("args").expect("args");
    assert_eq!(args.get("id").and_then(Json::as_str), Some("id\n1"));
}

/// The lanes named by the trace's `thread_name` metadata events.
fn trace_lanes(events: &[Json]) -> Vec<&str> {
    events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .map(|e| {
            e.get("args")
                .and_then(|args| args.get("name"))
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("thread_name without args.name: {e:?}"))
        })
        .collect()
}

#[test]
fn every_trajectory_row_has_the_end_to_end_keys() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_trajectory.json");
    let text = std::fs::read_to_string(path).expect("BENCH_trajectory.json");
    let doc = Json::parse(&text).expect("one JSON document");
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        panic!("no rows array");
    };
    assert!(!rows.is_empty());
    for (i, row) in rows.iter().enumerate() {
        for key in [
            "setup_s",
            "wall_s",
            "cpu_s",
            "peak_rss_mb",
            "ops_per_s",
            "op_p50_us",
            "attempted",
            "failed",
        ] {
            assert!(row.get(key).is_some(), "row {i} lacks {key}: {row:?}");
        }
    }
}

#[test]
fn ninjagap_at_scale_18_lowers_exactly_and_beats_giraph() {
    let out = run(extras::ninja_gap, "ninjagap", 18, 2, false);
    let rows = csv(&out.join("ninjagap.csv"));
    let cell = |alg: &str, fw: &str| {
        rows.iter()
            .find(|r| r["algorithm"] == alg && r["framework"] == fw)
            .unwrap_or_else(|| panic!("no {alg}/{fw} row"))
    };
    // scale-18 PageRank through the lowering reproduces native's digest
    // bit for bit
    let pr = cell("pagerank", "graphmat");
    assert_eq!(pr["scale"], "18", "{pr:?}");
    assert_eq!(pr["digest_match"], "1", "{pr:?}");
    assert_eq!(pr["digest"], cell("pagerank", "native")["digest"], "{pr:?}");
    // every lowered cell meets its digest criterion and is never slower
    // than Giraph
    let graphmat: Vec<_> = rows
        .iter()
        .filter(|r| r["framework"] == "graphmat")
        .collect();
    assert_eq!(graphmat.len(), 5);
    for gm in graphmat {
        let giraph = cell(&gm["algorithm"], "giraph");
        assert_eq!(gm["digest_match"], "1", "{gm:?}");
        let gap = |r: &BTreeMap<String, String>| r["gap_vs_native"].parse::<f64>().unwrap();
        assert!(gap(gm) <= gap(giraph), "{gm:?} vs {giraph:?}");
    }
}

#[test]
fn elastic_at_scale_18_is_jobs_invariant_with_pinned_rebalance_stats() {
    let par = run(extras::elastic, "elastic-par", 18, 4, true);
    let ser = run(extras::elastic, "elastic-ser", 18, 1, false);
    let csv_bytes = |dir: &Path| std::fs::read(dir.join("elastic.csv")).unwrap();
    assert_eq!(
        csv_bytes(&par),
        csv_bytes(&ser),
        "elastic.csv depends on --jobs"
    );

    // membership events are a pure function of (scale, seed, plan), so
    // these totals never drift
    let journal = std::fs::read_to_string(par.join("journal.jsonl")).expect("journal");
    let line = journal
        .lines()
        .map(|l| parse_flat_json(l).expect("journal line"))
        .find(|d| d["experiment"] == "elastic" && d["label"] == "native@grow-shrink")
        .expect("native@grow-shrink cell in the journal");
    assert_eq!(line["digest"].parse::<f64>().unwrap(), 181407.54029890287);
    for (key, want) in [
        ("reb_joins", "1"),
        ("reb_leaves", "2"),
        ("reb_rebalances", "3"),
        ("reb_migrated_bytes", "1222065152"),
        ("reb_migrated_vertices", "397730"),
        ("reb_peak_nodes", "5"),
        ("reb_final_nodes", "3"),
        // the matrix grew to cover the joined node
        ("mtx_nodes", "5"),
    ] {
        assert_eq!(line[key], want, "{key}");
    }

    let rows = csv(&par.join("elastic.csv"));
    assert_eq!(rows.len(), 9);
    for r in &rows {
        // elasticity moves where partitions live, never the answer
        assert_eq!(r["digest_match"], "1", "{r:?}");
        if r["plan"] == "grow-shrink" {
            assert!(r["migrated_bytes"].parse::<u64>().unwrap() > 0, "{r:?}");
            assert_eq!((&*r["joins"], &*r["leaves"]), ("1", "2"), "{r:?}");
        }
    }

    // migration stalls ride the sixth trace lane
    let events = trace_events(&par, "elastic");
    assert!(trace_lanes(&events).contains(&"membership"));
    assert!(events
        .iter()
        .any(|e| is_complete(e) && e.get("tid").and_then(Json::as_u64) == Some(6)));
}

/// A node-kill plan fails most cells; every sweep experiment renders the
/// failures as annotations instead of panicking on a missing baseline.
#[test]
fn every_sweep_experiment_renders_killed_cells_without_panicking() {
    for e in EXPERIMENTS.iter().filter(|e| e.cells.is_some()) {
        let name = e.names[0];
        let run = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                name,
                "--scale",
                "8",
                "--no-csv",
                "--faults",
                "seed=1,kill=0@1",
            ])
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        if ["fig3", "fig4", "table7", "netestimate"].contains(&name) {
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(stdout.contains("failed"), "{name}: {stdout}");
        }
    }
}
