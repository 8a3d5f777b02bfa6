//! graphmaze host-clock benchmark. See `README.md` beside this package.
//!
//! ```text
//! graphmaze-benchmark run --workload W --seed N --seconds S --trace 0|1
//! graphmaze-benchmark run --all [--seed N] [--repeats R] [--out FILE]
//! graphmaze-benchmark run --smoke
//! graphmaze-benchmark bless [--smoke]
//! graphmaze-benchmark compare A.json B.json
//! graphmaze-benchmark spec | tables
//! ```
//!
//! Every layer is measured **from outside**, by timing calls into the
//! crates' public functions; nothing under `crates/` is instrumented.

mod compare;
mod golden;
mod harness;
mod host;
mod json;
mod probes;
mod sizes;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use graphmaze_bench::cli::{Opt, OptionTable, ParsedArgs};

use harness::{run, Cx, RunResult, Workload};
use json::Json;
use spec::{DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::{median, quartiles};
use workloads::cluster::Cluster;
use workloads::crossbar::Crossbar;
use workloads::kernels::Kernels;
use workloads::serve::Serve;

const OPTIONS: OptionTable = OptionTable {
    opts: &[
        Opt::value("--workload", "NAME", "run one workload in this process"),
        Opt::value("--seed", "N", "seed of every generator and request stream\n(default 20140622, the seed the goldens are pinned for)"),
        Opt::value("--seconds", "S", "how long the timed section measures (default 15)"),
        Opt::value("--trace", "0|1", "1 records spans and reports the per-layer metrics"),
        Opt::flag("--all", "run every workload, each in its own child process"),
        Opt::value("--repeats", "R", "untraced runs per workload under --all (default 5)"),
        Opt::value("--out", "FILE", "where --all writes its result set"),
        Opt::flag("--smoke", "toy sizes; with no --workload, check every workload"),
    ],
};

fn usage() -> String {
    format!(
        "usage: graphmaze-benchmark <run|bless|compare|spec|tables> [options]\n\n\
         run --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is its JSON\n\
         run --all [--seed N] [--repeats R] [--out FILE]     a result set: R untraced runs + 1 traced per workload\n\
         run --smoke                                         every workload at toy sizes, every metric checked\n\
         bless [--smoke]                                     re-pin benchmark/golden/ from the current build\n\
         compare A.json B.json                               verdict per (end-to-end metric, workload)\n\
         spec                                                print BENCHMARK.json\n\
         tables                                              print the metric tables of README.md\n\noptions:\n{}",
        OPTIONS.render_options()
    )
}

/// A directory under the build directory (inside the checkout, ignored by
/// git) for everything a run writes.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("."));
    // <target>/release/graphmaze-benchmark -> <target>/graphmaze-benchmark-out
    let target = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."));
    target.join("graphmaze-benchmark-out")
}

fn context(workload: &str, seed: u64, smoke: bool, blessing: bool) -> Cx {
    let scratch = scratch_dir().join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create the scratch directory");
    Cx {
        seed,
        use_golden: seed == DEFAULT_SEED && !blessing,
        sizes: if smoke { &sizes::SMOKE } else { &sizes::FULL },
        scratch,
        rec: spans::Recorder::new(),
    }
}

/// Calls the generic function `$f::<W>($args)` for the workload type `W`
/// that `$name` names.
macro_rules! for_workload {
    ($name:expr, $f:ident, $($args:expr),*) => {
        match $name {
            "crossbar" => Ok($f::<Crossbar>($($args),*)),
            "kernels" => Ok($f::<Kernels>($($args),*)),
            "cluster" => Ok($f::<Cluster>($($args),*)),
            "serve_hot" => Ok($f::<Serve<false>>($($args),*)),
            "serve_churn" => Ok($f::<Serve<true>>($($args),*)),
            other => Err(format!("unknown workload `{other}`")),
        }
    };
}

/// `run --workload`: the contract's invocation.
fn run_one(args: &ParsedArgs) -> Result<ExitCode, String> {
    let name = args.raw("--workload").expect("checked by the caller");
    let seed = args.int::<u64>("--seed")?.unwrap_or(DEFAULT_SEED);
    let smoke = args.flag("--smoke");
    let seconds =
        args.num("--seconds")?
            .unwrap_or(if smoke { 0.3 } else { f64::from(RUN_SECONDS) });
    let trace = match args.raw("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let cx = context(name, seed, smoke, false);
    eprintln!("[{name}] host: {}", host::descriptor(seed).render());
    let result: RunResult = for_workload!(name, run, name, &cx, seconds, trace)?;
    for (metric, unit, value) in &result.metrics {
        eprintln!("[{name}] {metric} = {value} {unit}");
    }
    for failure in result.failures.iter().take(20) {
        eprintln!("[{name}] FAILED {failure}");
    }
    // a traced run leaves its trace behind for inspection; nothing else stays
    let _ = std::fs::remove_dir_all(if trace {
        cx.scratch.join("crossbar")
    } else {
        cx.scratch.clone()
    });
    println!("{}", result.to_json().render());
    Ok(ExitCode::SUCCESS)
}

/// Runs this binary again for one workload, returning its last stdout
/// line parsed. The child is waited for, so nothing outlives the call.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: child run exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| format!("{workload}: unreadable result line: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_correct(result: &Json) -> bool {
    result.get("correct").and_then(Json::as_bool) == Some(true)
}

/// `attempted` or `failed` of a run's result line.
fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// `run --smoke`: every workload at toy sizes, untraced and traced;
/// checks the smoke goldens and that every named metric is emitted and
/// finite.
fn run_smoke() -> Result<ExitCode, String> {
    let mut problems = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let result = child_run(w.name, DEFAULT_SEED, 0.3, trace, true)?;
            if !is_correct(&result) {
                problems.push(format!(
                    "{} (trace {trace}): outputs are not correct",
                    w.name
                ));
            }
            let names: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            for name in names {
                match metric_value(&result, name) {
                    Some(v) if v.is_finite() => {}
                    _ => problems.push(format!("{}: {name} is missing or not finite", w.name)),
                }
            }
            println!(
                "smoke {:<12} trace {} attempted {:>6} failed {}",
                w.name,
                u8::from(trace),
                count(&result, "attempted"),
                count(&result, "failed"),
            );
        }
    }
    for p in &problems {
        eprintln!("smoke: {p}");
    }
    Ok(if problems.is_empty() {
        println!("smoke: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `run --all`: the one command that prints every metric by name with
/// its unit, checks outputs against the goldens and writes one result
/// JSON for the set. Each run is its own child process, so
/// `peak_rss_mb` and `cpu_s` are per workload.
fn run_all(args: &ParsedArgs) -> Result<ExitCode, String> {
    let seed = args.int::<u64>("--seed")?.unwrap_or(DEFAULT_SEED);
    let repeats = args.int::<usize>("--repeats")?.unwrap_or(5).max(1);
    let seconds = args.num("--seconds")?.unwrap_or(f64::from(RUN_SECONDS));
    let out_path = args.raw("--out").map(PathBuf::from).unwrap_or_else(|| {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        scratch_dir().join(format!("set-{stamp}.json"))
    });
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let mut e2e: Vec<(&str, Vec<f64>)> =
            END_TO_END.iter().map(|m| (m.name, Vec::new())).collect();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for r in 0..repeats {
            eprintln!("[{}] untraced run {}/{repeats}", w.name, r + 1);
            let result = child_run(w.name, seed, seconds, false, false)?;
            all_correct &= is_correct(&result);
            attempted += count(&result, "attempted");
            failed += count(&result, "failed");
            for (name, samples) in &mut e2e {
                samples.extend(metric_value(&result, name));
            }
        }
        eprintln!("[{}] traced run", w.name);
        let traced = child_run(w.name, seed, seconds, true, false)?;
        all_correct &= is_correct(&traced);

        println!("\n== {} — {}", w.name, w.why);
        println!(
            "{:<42} {:>8} {:>16} {:>16} {:>16} {:>3}",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        for (m, (_, samples)) in END_TO_END.iter().zip(&e2e) {
            let (q1, q3) = quartiles(samples).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{:<42} {:>8} {:>16.6} {:>16.6} {:>16.6} {:>3}",
                m.name,
                m.unit,
                median(samples),
                q1,
                q3,
                samples.len()
            );
        }
        println!(
            "{:<42} {:>8} {:>16}",
            "fail_ratio",
            "ratio",
            failed / attempted.max(1.0)
        );
        let mut per_layer = Vec::new();
        for m in &PER_LAYER {
            let v = metric_value(&traced, m.name).unwrap_or(f64::NAN);
            // a metric this workload does not exercise reads 0: skip the row
            if v != 0.0 {
                println!("{:<42} {:>8} {:>16.6}", m.name, m.unit, v);
            }
            per_layer.push((m.name, Json::Num(v)));
        }
        workloads.push((
            w.name,
            Json::obj(vec![
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "end_to_end",
                    Json::obj(
                        e2e.into_iter()
                            .map(|(n, s)| (n, Json::Arr(s.into_iter().map(Json::Num).collect())))
                            .collect(),
                    ),
                ),
                ("per_layer", Json::obj(per_layer)),
            ]),
        ));
    }
    let set = Json::obj(vec![
        ("host", host::descriptor(seed)),
        ("run_seconds", Json::Num(seconds)),
        ("repeats", Json::Num(repeats as f64)),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out_path, set.render_pretty()).map_err(|e| e.to_string())?;
    println!("\nresult set written to {}", out_path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("some operations failed their checks");
        ExitCode::FAILURE
    })
}

/// `bless`: runs every workload's verification pass twice from scratch
/// and, if the two agree bit-exactly, rewrites the golden files.
fn bless(smoke: bool) -> Result<ExitCode, String> {
    fn rows<W: Workload>(cx: &Cx) -> (Vec<(String, golden::Obs)>, Vec<String>) {
        let mut w = W::setup(cx);
        let verify = w.verify(cx);
        let rows = w.golden_rows();
        w.teardown();
        (rows, verify.failures)
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(if smoke { "smoke" } else { "" });
    for w in &WORKLOADS {
        let cx = context(w.name, DEFAULT_SEED, smoke, true);
        let (first, disagreements) = for_workload!(w.name, rows, &cx)?;
        let (second, _) = for_workload!(w.name, rows, &cx)?;
        let _ = std::fs::remove_dir_all(&cx.scratch);
        if !disagreements.is_empty() {
            return Err(format!(
                "{}: engines disagree with native, nothing pinned: {disagreements:?}",
                w.name
            ));
        }
        if first != second {
            return Err(format!(
                "{}: two runs of the same build differ; nothing pinned",
                w.name
            ));
        }
        let path = dir.join(format!("{}.tsv", w.name));
        std::fs::write(&path, golden::render_golden(&first)).map_err(|e| e.to_string())?;
        println!(
            "{}: {} rows pinned in {}",
            w.name,
            first.len(),
            path.display()
        );
    }
    println!("rebuild to embed the new goldens");
    Ok(ExitCode::SUCCESS)
}

fn read_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &ParsedArgs) -> Result<ExitCode, String> {
    match args.positional.first().map(String::as_str) {
        Some("run") if args.raw("--workload").is_some() => run_one(args),
        Some("run") if args.flag("--all") => run_all(args),
        Some("run") if args.flag("--smoke") => run_smoke(),
        Some("run") => Err("run needs --workload NAME, --all or --smoke".to_string()),
        Some("bless") => bless(args.flag("--smoke")),
        Some("compare") => match &args.positional[1..] {
            [a, b] => Ok(if compare::compare(&read_set(a)?, &read_set(b)?) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }),
            _ => Err("compare takes two result sets".to_string()),
        },
        Some("spec") => {
            print!("{}", spec::benchmark_json().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("tables") => {
            print!("{}", spec::readme_tables());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("expected a command".to_string()),
    }
}

fn main() -> ExitCode {
    let parsed = OPTIONS.parse(std::env::args().skip(1));
    match parsed.and_then(|args| dispatch(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}
