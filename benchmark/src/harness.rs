//! The run loop every workload shares: set-up (timed apart), a
//! verification pass, then timed passes over the workload's fixed
//! operation list until `--seconds` is used up.
//!
//! The contract fixes how long a run measures, so the issue's `wall_s` of
//! one fixed-size run is reported as the median wall-clock of one *pass*:
//! the same operation list every time, so passes are comparable samples
//! and a run contributes their median.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use crate::golden::Obs;
use crate::host;
use crate::json::Json;
use crate::sizes::Sizes;
use crate::spans::{self, Recorder, NO_OP};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile_nearest_rank};

/// What a workload needs to know about the run it is part of.
pub struct Cx {
    pub seed: u64,
    /// The pinned goldens apply: the default seed, and not `bless`, which
    /// is about to rewrite them.
    pub use_golden: bool,
    /// `FULL` or `SMOKE`; each has goldens of its own.
    pub sizes: &'static Sizes,
    /// Where the run may write: a directory under the build directory,
    /// inside the checkout.
    pub scratch: PathBuf,
    pub rec: Recorder,
}

impl Cx {
    /// Runs `f` under a span named `name`; returns its result and the
    /// wall-clock it took, seconds.
    pub fn timed_span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = self.rec.span(name, NO_OP, f);
        (out, t.elapsed().as_secs_f64())
    }

    /// Times `iters` calls of `f` under one span; nanoseconds per call.
    /// Enough iterations that the two clock reads do not matter.
    pub fn per_call_ns(&self, name: &'static str, iters: usize, mut f: impl FnMut(usize)) -> f64 {
        let ((), secs) = self.timed_span(name, || (0..iters).for_each(&mut f));
        secs * 1e9 / iters as f64
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tag {
    Plain,
    Hit,
    Miss,
}

#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    /// Index into the workload's operation table.
    pub op: u32,
    pub ns: u64,
    pub tag: Tag,
    /// Returned exactly what the verification pass pinned.
    pub ok: bool,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    pub wall_ns: u64,
    /// User+system CPU of the whole process (the daemon's threads and
    /// the kernels' workers included).
    pub cpu_ns: u64,
}

/// Runs `f`, returning its wall-clock and the process CPU time it used.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let cpu0 = host::cpu_time_ns();
    let t = Instant::now();
    let out = f();
    let wall_ns = t.elapsed().as_nanos() as u64;
    (
        out,
        Timing {
            wall_ns,
            cpu_ns: host::cpu_time_ns() - cpu0,
        },
    )
}

pub struct PassOut {
    /// The timed part of the pass (checks and file parsing excluded).
    pub timing: Timing,
    pub ops: Vec<OpSample>,
}

/// Outcome of the verification pass: every operation run once and
/// checked in full (goldens at the default seed, agreement with native
/// elsewhere). What it observed is what timed passes must reproduce.
pub struct Verify {
    pub attempted: usize,
    pub failures: Vec<String>,
}

pub type Ledger = BTreeMap<&'static str, f64>;

pub trait Workload: Sized {
    /// One full set-up from scratch: generators, view build, daemon bind,
    /// cache pre-fill.
    fn setup(cx: &Cx) -> Self;

    /// Runs every operation once, checks it in full and pins what it
    /// returned. Doubles as the discarded warm-up pass.
    fn verify(&mut self, cx: &Cx) -> Verify;

    /// One pass over the operation list. A traced pass opens a span
    /// around each call into a layer.
    fn pass(&mut self, cx: &Cx, traced: bool) -> PassOut;

    /// Per-layer metrics only this workload can measure (traced run).
    fn layers(&mut self, cx: &Cx, untraced: &[PassOut], ledger: &mut Ledger);

    /// The rows `bless` pins, after [`Workload::verify`].
    fn golden_rows(&self) -> Vec<(String, Obs)>;

    /// Stops whatever set-up started (the daemon and its threads).
    fn teardown(self) {}
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    /// The one JSON object the contract wants on the last line of stdout.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, unit, value)| {
                            (
                                name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::str(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Median latency of operation `op` over the passes, seconds.
pub fn median_op_s(passes: &[PassOut], op: u32) -> f64 {
    let v: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            p.ops
                .iter()
                .filter(|o| o.op == op)
                .map(|o| o.ns as f64 / 1e9)
        })
        .collect();
    median(&v)
}

pub fn run<W: Workload>(name: &str, cx: &Cx, seconds: f64, trace: bool) -> RunResult {
    cx.rec.set_enabled(trace);
    let mut setup_s = Vec::new();
    let mut ledger = Ledger::new();
    let mut untraced: Vec<PassOut> = Vec::new();
    let mut traced: Vec<PassOut> = Vec::new();
    // user and system ticks over the timed passes
    let mut ticks = (0, 0);

    let verify = cx.rec.span("bench.run", NO_OP, || {
        // a traced run reports no set-up time, so it sets up once
        let mut workload: Option<W> = None;
        for _ in 0..if trace { 1 } else { SETUP_REPEATS } {
            if let Some(old) = workload.take() {
                old.teardown();
            }
            let (w, t) = timed(|| cx.rec.span("bench.setup", NO_OP, || W::setup(cx)));
            setup_s.push(t.wall_ns as f64 / 1e9);
            workload = Some(w);
        }
        let mut w = workload.expect("at least one set-up");
        let verify = cx.rec.span("bench.verify", NO_OP, || w.verify(cx));
        if trace {
            cx.rec.span("bench.probes", NO_OP, || {
                crate::probes::run(cx, &mut ledger)
            });
        }
        let start = Instant::now();
        ticks = host::cpu_ticks();
        loop {
            // untraced passes of a traced run show in its table as one
            // span each, with no spans inside
            untraced.push(cx.rec.span("untraced.pass", NO_OP, || {
                cx.rec.set_enabled(false);
                let out = w.pass(cx, false);
                cx.rec.set_enabled(trace);
                out
            }));
            if trace {
                traced.push(cx.rec.span("bench.pass", NO_OP, || w.pass(cx, true)));
            }
            // stop at the pass boundary nearest to `seconds`
            let elapsed = start.elapsed().as_secs_f64();
            let per_round = elapsed / untraced.len() as f64;
            if elapsed + per_round / 2.0 > seconds {
                break;
            }
        }
        let after = host::cpu_ticks();
        ticks = (after.0 - ticks.0, after.1 - ticks.1);
        if trace {
            cx.rec.span("bench.layers", NO_OP, || {
                w.layers(cx, &untraced, &mut ledger)
            });
        }
        w.teardown();
        verify
    });

    eprintln!(
        "[{name}] {} set-ups: {setup_s:?} s; {} untraced passes",
        setup_s.len(),
        untraced.len()
    );
    let timed_failures: usize = untraced
        .iter()
        .chain(&traced)
        .map(|p| p.ops.iter().filter(|o| !o.ok).count())
        .sum();
    let attempted = verify.attempted
        + untraced
            .iter()
            .chain(&traced)
            .map(|p| p.ops.len())
            .sum::<usize>();
    let failed = verify.failures.len() + timed_failures;
    let mut failures = verify.failures;
    if timed_failures > 0 {
        failures.push(format!(
            "{timed_failures} timed operations returned something other than the verified outcome"
        ));
    }

    let per_pass = |of: &dyn Fn(&PassOut) -> f64| -> f64 {
        median(&untraced.iter().map(of).collect::<Vec<f64>>())
    };
    let wall_s = per_pass(&|p| p.timing.wall_ns as f64 / 1e9);
    // a pass's percentile is nearest-rank over its own operations; the run
    // reports the median pass, so one disturbed pass does not move it
    let percentile_us = |q: f64| {
        per_pass(&|p| {
            let mut ns: Vec<u64> = p.ops.iter().map(|o| o.ns).collect();
            ns.sort_unstable();
            percentile_nearest_rank(&ns, q).map_or(0.0, |v| v as f64 / 1e3)
        })
    };
    let metrics: Vec<(&'static str, &'static str, f64)> = if !trace {
        let value = |name: &str| match name {
            "setup_s" => median(&setup_s),
            "wall_s" => wall_s,
            "cpu_s" => per_pass(&|p| p.timing.cpu_ns as f64 / 1e9),
            "peak_rss_mb" => host::peak_rss_mib(),
            "ops_per_s" => per_pass(&|p| p.ops.len() as f64) / wall_s,
            "op_p50_us" => percentile_us(50.0),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect()
    } else {
        let traced_walls: Vec<f64> = traced
            .iter()
            .map(|p| p.timing.wall_ns as f64 / 1e9)
            .collect();
        ledger.insert(
            "proc.sys_frac",
            ticks.1 as f64 / ((ticks.0 + ticks.1) as f64).max(1.0),
        );
        ledger.insert(
            "proc.trace_overhead_frac",
            (median(&traced_walls) - wall_s) / wall_s,
        );
        write_trace(name, cx);
        // every run reports every per-layer metric; one this workload does
        // not exercise reads 0 (README lists each metric's source)
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, ledger.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    };
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        failures,
        metrics,
    }
}

/// Writes the Chrome trace and the per-layer self-time table of a traced
/// run under the scratch directory, and prints the table.
fn write_trace(name: &str, cx: &Cx) {
    let spans = cx.rec.spans();
    let table = spans::render_layer_table(&spans);
    eprintln!("[{name}] per-layer self time of the traced run:\n{table}");
    let dir = cx.scratch.join("trace");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{name}.trace.json")),
                spans::render_chrome_trace(&spans),
            )
        })
        .and_then(|()| std::fs::write(dir.join(format!("{name}.layers.tsv")), table));
    match written {
        Ok(()) => eprintln!("[{name}] trace written under {}", dir.display()),
        Err(e) => eprintln!("[{name}] warning: could not write the trace: {e}"),
    }
}

/// A `&'static str` for a span name built at run time. Span names are
/// static so that recording a span never allocates; the few dozen names a
/// run derives from framework and algorithm names are leaked once each.
pub fn static_name(name: String) -> &'static str {
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().expect("no panic while the set is locked");
    match names.get(name.as_str()) {
        Some(known) => known,
        None => {
            let leaked: &'static str = Box::leak(name.into_boxed_str());
            names.insert(leaked);
            leaked
        }
    }
}
