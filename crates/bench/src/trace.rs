//! Step-trace export: Chrome trace-event JSON + per-step CSVs.
//!
//! With `repro --trace DIR`, every sweep writes two artifact kinds under
//! `DIR`:
//!
//! * `{experiment}.trace.json` — one Chrome trace-event file for the
//!   whole sweep, loadable in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`. Each successful cell is a *process* (named
//!   `alg×fw @ label, N nodes`) with six *thread* lanes — `compute`,
//!   `comm`, `barrier`, `recovery`, `resilience`, `membership` — and one
//!   complete ("X") event per step per non-empty lane, laid out on the
//!   simulated clock. Phases labelled via `Sim::phase` become the event
//!   names, so BFS direction switches or Giraph superstep splits are
//!   visible as lane colour changes; checkpoint writes and
//!   rollback/replay show up on the `recovery` lane, retransmission
//!   timeout/backoff stalls under a lossy-link fault plan on the
//!   `resilience` lane, and elastic join/leave rebalances (warm-start
//!   restores plus partition migration) on the `membership` lane.
//! * `{experiment}/{NNN}_{alg}_{fw}_{label}_{N}n.csv` — the raw
//!   [`StepRecord`] series for each successful cell, for ad-hoc
//!   analysis.
//!
//! Both artifacts are rendered from the ordered [`SweepReport`] after
//! the sweep completes, and contain only simulated quantities (no
//! wall-clock), so their bytes are identical whatever `--jobs` was.

use std::io::Write as _;
use std::path::Path;

use graphmaze_core::flatjson::JsonStr;
use graphmaze_core::metrics::{SpanRecord, StepRecord, Timeline, SPAN_STAGES};
use graphmaze_core::prelude::*;
use graphmaze_core::report::push_csv_cell;

/// Lane names, in tid order (tid = index + 1).
const LANES: [&str; 6] = [
    "compute",
    "comm",
    "barrier",
    "recovery",
    "resilience",
    "membership",
];

/// Writes the sweep's trace artifacts under `dir` (see module docs).
/// Failed cells have no timeline and are skipped. Returns the number of
/// cells that produced trace data.
pub fn write_sweep_trace(
    dir: &Path,
    sweep: &Sweep,
    report: &SweepReport,
) -> std::io::Result<usize> {
    let cell_dir = dir.join(&sweep.experiment);
    std::fs::create_dir_all(&cell_dir)?;

    let mut events = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut traced = 0usize;
    for (i, (cell, result)) in sweep.cells.iter().zip(&report.results).enumerate() {
        let Ok(outcome) = &result.outcome else {
            continue;
        };
        let tl = &outcome.report.timeline;
        if tl.is_empty() {
            continue;
        }
        traced += 1;
        let pid = i + 1;
        let process = format!(
            "{}\u{d7}{} @ {}, {} node{}",
            cell.algorithm.name(),
            cell.framework.name(),
            cell.label,
            cell.nodes,
            if cell.nodes == 1 { "" } else { "s" },
        );
        push_event(
            &mut events,
            &mut first,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
                JsonStr(&process)
            ),
        );
        for (t, lane) in LANES.iter().enumerate() {
            push_event(
                &mut events,
                &mut first,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"{lane}\"}}}}",
                    t + 1
                ),
            );
        }
        // lay the steps out on the simulated clock, in microseconds
        let mut cursor = 0.0f64;
        for rec in &tl.steps {
            let spans = [
                (rec.compute_s, String::new()),
                (rec.comm_s, format!(",\"bytes_sent\":{}", rec.bytes_sent)),
                (rec.barrier_s, String::new()),
                (rec.recovery_s, String::new()),
                (rec.resilience_s, String::new()),
                (rec.rebalance_s, String::new()),
            ];
            for (tid0, (dur_s, extra)) in spans.iter().enumerate() {
                if *dur_s > 0.0 {
                    push_event(
                        &mut events,
                        &mut first,
                        &format!(
                            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"step\":{}{extra}}}}}",
                            JsonStr(&rec.phase),
                            tid0 + 1,
                            us(cursor),
                            us(*dur_s),
                            rec.step,
                        ),
                    );
                }
                cursor += dur_s;
            }
        }
        write_cell_csv(&cell_dir, i, cell, tl)?;
    }
    events.push_str("\n]}\n");
    let path = dir.join(format!("{}.trace.json", sweep.experiment));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(events.as_bytes())?;
    Ok(traced)
}

/// Writes the serving daemon's request spans as a Chrome trace-event
/// file (`serve --trace FILE`). One *process* named `serve` carries four
/// *thread* lanes — the [`SPAN_STAGES`] in order — and each completed
/// request contributes one complete ("X") event per non-zero stage, laid
/// end to end on the daemon's wall clock starting at the span's
/// `start_s`. Event names are the request's cell label; `args` carry the
/// request id and outcome so cache hits (zero-width `execute` events are
/// simply absent) are distinguishable at a glance. Returns the number of
/// spans rendered.
pub fn write_serve_trace(path: &Path, spans: &[SpanRecord]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut events = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    push_event(
        &mut events,
        &mut first,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"serve\"}}",
    );
    for (t, lane) in SPAN_STAGES.iter().enumerate() {
        push_event(
            &mut events,
            &mut first,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{lane}\"}}}}",
                t + 1
            ),
        );
    }
    for span in spans {
        let mut cursor = span.start_s;
        for (tid0, dur_ns) in span.stages_ns().iter().enumerate() {
            let dur_s = *dur_ns as f64 * 1e-9;
            if *dur_ns > 0 {
                push_event(
                    &mut events,
                    &mut first,
                    &format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":\"{}\",\"outcome\":\"{}\"}}}}",
                        JsonStr(&span.label),
                        tid0 + 1,
                        us(cursor),
                        us(dur_s),
                        JsonStr(&span.id),
                        JsonStr(span.outcome),
                    ),
                );
            }
            cursor += dur_s;
        }
    }
    events.push_str("\n]}\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(events.as_bytes())?;
    Ok(spans.len())
}

fn push_event(out: &mut String, first: &mut bool, ev: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(ev);
}

/// Microseconds with shortest-round-trip formatting (Perfetto accepts
/// fractional timestamps). Purely a function of simulated values, so the
/// output is scheduling-independent.
fn us(seconds: f64) -> String {
    format!("{:?}", seconds * 1e6)
}

/// `a/b c` → `a-b-c`: keep filenames portable.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

fn write_cell_csv(
    cell_dir: &Path,
    index: usize,
    cell: &SweepCell,
    tl: &Timeline,
) -> std::io::Result<()> {
    let name = format!(
        "{index:03}_{}_{}_{}_{}n.csv",
        sanitize(cell.algorithm.name()),
        sanitize(cell.framework.name()),
        sanitize(&cell.label),
        cell.nodes,
    );
    let mut body = StepRecord::COLUMNS.join(",");
    body.push('\n');
    for r in &tl.steps {
        r.write_cells(&mut body, ',', push_csv_cell);
        body.push('\n');
    }
    std::fs::write(cell_dir.join(name), body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_step_csv_bytes_are_pinned() {
        let cell = SweepCell {
            label: "a/b c".into(),
            algorithm: Algorithm::Bfs,
            framework: Framework::Giraph,
            spec: WorkloadSpec::Rmat {
                scale: 7,
                edge_factor: 4,
                seed: 11,
            },
            nodes: 4,
            factor: 1.0,
            params: BenchParams::default(),
            faults: FaultPlan::none(),
        };
        let tl = Timeline {
            nodes: 4,
            steps: vec![
                StepRecord {
                    step: 0,
                    phase: "bfs:top-down".into(),
                    compute_s: 0.5,
                    comm_s: 0.25,
                    barrier_s: 0.125,
                    recovery_s: 0.0625,
                    resilience_s: 0.03125,
                    rebalance_s: 0.015625,
                    bytes_sent: 1,
                    messages: 2,
                    max_node_bytes: 3,
                    mem_peak_bytes: 4,
                },
                StepRecord {
                    step: 1,
                    phase: "a|b;c,\"d\"".into(),
                    compute_s: 1e-7,
                    comm_s: 0.1,
                    barrier_s: 2.5e20,
                    recovery_s: 0.0,
                    resilience_s: f64::INFINITY,
                    rebalance_s: 3.0,
                    bytes_sent: 5,
                    messages: 6,
                    max_node_bytes: 7,
                    mem_peak_bytes: u64::MAX,
                },
            ],
        };
        let dir = std::env::temp_dir().join(format!("gm-step-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write_cell_csv(&dir, 7, &cell, &tl).expect("csv written");
        let body = std::fs::read_to_string(dir.join("007_bfs_giraph_a-b-c_4n.csv"));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            body.expect("named by index, algorithm, framework, label, nodes"),
            concat!(
                "step,phase,compute_s,comm_s,barrier_s,recovery_s,resilience_s,rebalance_s,",
                "bytes_sent,messages,max_node_bytes,mem_peak_bytes\n",
                "0,bfs:top-down,0.5,0.25,0.125,0.0625,0.03125,0.015625,1,2,3,4\n",
                r#"1,"a|b;c,""d""",1e-7,0.1,2.5e20,0.0,inf,3.0,5,6,7,18446744073709551615"#,
                "\n",
            )
        );
    }

    #[test]
    fn serve_trace_renders_one_event_per_nonzero_stage() {
        let spans = vec![
            SpanRecord {
                id: "q1".into(),
                label: "bfs/native".into(),
                outcome: "miss",
                start_s: 0.5,
                queue_ns: 1_000,
                lookup_ns: 2_000,
                execute_ns: 3_000,
                respond_ns: 4_000,
                total_ns: 10_000,
            },
            SpanRecord {
                id: "q2".into(),
                label: "bfs/native".into(),
                outcome: "hit",
                start_s: 0.6,
                queue_ns: 1_000,
                lookup_ns: 2_000,
                execute_ns: 0, // cache hit: no execute event at all
                respond_ns: 4_000,
                total_ns: 7_000,
            },
        ];
        let dir = std::env::temp_dir().join(format!("gm-serve-trace-{}", std::process::id()));
        let path = dir.join("serve.trace.json");
        let n = write_serve_trace(&path, &spans).expect("trace written");
        assert_eq!(n, 2);
        let body = std::fs::read_to_string(&path).expect("readable");
        std::fs::remove_dir_all(&dir).ok();
        // 1 process_name + 4 thread_name + 4 + 3 X events
        assert_eq!(body.matches("\"ph\":\"X\"").count(), 7);
        assert_eq!(body.matches("\"outcome\":\"hit\"").count(), 3);
        for lane in SPAN_STAGES {
            assert!(
                body.contains(&format!("\"name\":\"{lane}\"")),
                "{lane} lane"
            );
        }
        // stages telescope on the wall clock: q2's queue starts at 0.6 s
        assert!(body.contains("\"ts\":600000.0"), "start_s laid out in us");
        // hit's respond starts after queue+lookup (0.6s + 3 us)
        assert!(body.contains("\"ts\":600003.0"), "stage telescoping");
    }
}
