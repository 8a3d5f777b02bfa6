//! `repro` — regenerates every table and figure of Satish et al.
//! (SIGMOD 2014) on the simulated cluster.
//!
//! ```sh
//! cargo run --release -p graphmaze-bench --bin repro -- all
//! cargo run --release -p graphmaze-bench --bin repro -- all --jobs 8
//! cargo run --release -p graphmaze-bench --bin repro -- fig4 --scale 15
//! cargo run --release -p graphmaze-bench --bin repro -- all --resume   # after a kill
//! ```
//!
//! Artifacts (CSV per experiment) land in `results/` unless `--no-csv`,
//! next to the sweep journal (`results/journal.jsonl`) that `--resume`
//! reads to skip already-measured cells.

use std::sync::atomic::Ordering;

use graphmaze_bench::cli::{Opt, OptionTable};
use graphmaze_bench::experiments::{Experiment, EXPERIMENTS};
use graphmaze_bench::ReproConfig;

/// The option table: drives both parsing and the rendered `usage:`
/// block, so help and parser can never drift (see
/// `graphmaze_bench::cli`).
const OPTIONS: OptionTable = OptionTable {
    opts: &[
        Opt::value(
            "--scale",
            "N",
            "target log2 vertex count for generated graphs, 6-29\n(default 13)",
        ),
        Opt::value("--seed", "N", "generator seed (default 20140622)"),
        Opt::value(
            "--jobs",
            "N",
            "sweep worker threads (default 1; results are\nbyte-identical to a serial run)",
        ),
        Opt::flag(
            "--resume",
            "skip cells already recorded in the sweep journal\n\
             (results/journal.jsonl) from an interrupted run",
        ),
        Opt::flag(
            "--progress",
            "print live per-cell progress events (started/finished/\n\
             failed, cells remaining, elapsed) to stderr",
        )
        .with_alias("-v"),
        Opt::value(
            "--trace",
            "DIR",
            "write a Chrome trace-event JSON (Perfetto-loadable) and\n\
             per-step CSVs for every sweep under DIR",
        ),
        Opt::value(
            "--faults",
            "SPEC",
            "run every sweep cell under a fault-injection plan, e.g.\n\
             seed=1,straggler=0.05x4,drop=0.001,linkdrop=0.01,\n\
             dup=0.001,slowlink=0-1:4,mempress=0.01:64M,kill=0@3,\n\
             ckpt=2 (see DESIGN.md \"Resilience\")",
        ),
        Opt::value(
            "--cell-timeout",
            "SECS",
            "abandon any sweep cell that exceeds SECS wall-clock\n\
             seconds, recording a `timeout` outcome in the journal\n\
             (quarantined by --resume, not retried)",
        ),
        Opt::flag(
            "--telemetry",
            "record sweep counters and simulated-time histograms into\n\
             a metrics registry, rendered to results/metrics.prom\n\
             (Prometheus text) at exit",
        ),
        Opt::flag(
            "--list",
            "list every experiment with its sweep-cell count and exit",
        ),
        Opt::flag(
            "--no-extrapolate",
            "report raw scaled-down seconds instead of paper-scale",
        ),
        Opt::flag(
            "--no-csv",
            "do not write results/*.csv (also disables the journal)",
        ),
        Opt::value("--out", "DIR", "CSV output directory (default results/)"),
        Opt::flag("--help", "print this help and exit").with_alias("-h"),
    ],
};

fn usage() -> String {
    let mut experiments = String::new();
    for e in EXPERIMENTS {
        experiments += &format!("  {:<14} {}\n", e.names.join(" "), e.description);
    }
    format!(
        "\
usage: repro <experiment>... [options]

experiments (run once each, in the order given):
{experiments}  all            every experiment above

options:
{}",
        OPTIONS.render_options()
    )
}

fn print_listing() {
    println!("{:<14} {:>9}  description", "experiment", "cells");
    for e in EXPERIMENTS {
        let cells = e.cells.map_or("direct".to_string(), |n| n.to_string());
        println!("{:<14} {cells:>9}  {}", e.names.join(" "), e.description);
    }
    println!("\n`direct` experiments run engines without the sweep executor and journal nothing.");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprint!("{}", usage());
        std::process::exit(2);
    }
    let parsed = OPTIONS.parse(args).unwrap_or_else(|e| die(&e));
    if parsed.flag("--help") {
        print!("{}", usage());
        return;
    }
    let mut cfg = ReproConfig::default();
    fn or_die<T>(r: Result<T, String>) -> T {
        r.unwrap_or_else(|e| die(&e))
    }
    if let Some(v) = or_die(parsed.int("--scale")) {
        // below 6 fig3's native cells run out of memory (and at 2 or less
        // the RMAT generator rejects table4's `scale - 1`); fig4 generates
        // up to `scale + 3`, which the generator caps at 32
        if !(6..=29).contains(&v) {
            die("--scale needs an integer from 6 to 29");
        }
        cfg.target_scale = v;
    }
    if let Some(v) = or_die(parsed.int("--seed")) {
        cfg.seed = v;
    }
    if let Some(n) = or_die(parsed.int::<usize>("--jobs")) {
        if n < 1 {
            die("--jobs needs a positive integer");
        }
        cfg.jobs = n;
    }
    cfg.resume = parsed.flag("--resume");
    cfg.progress = parsed.flag("--progress");
    cfg.trace_dir = parsed.raw("--trace").map(Into::into);
    if let Some(spec) = parsed.raw("--faults") {
        cfg.faults = graphmaze_core::cluster::FaultPlan::parse(spec)
            .unwrap_or_else(|e| die(&format!("bad --faults spec: {e}")));
    }
    if let Some(secs) = or_die(parsed.num("--cell-timeout")) {
        if !secs.is_finite() || secs < 0.0 {
            die("--cell-timeout needs a non-negative number of seconds");
        }
        cfg.cell_timeout = Some(std::time::Duration::from_secs_f64(secs));
    }
    if parsed.flag("--no-extrapolate") {
        cfg.extrapolate = false;
    }
    if parsed.flag("--no-csv") {
        cfg.out_dir = None;
    }
    if let Some(dir) = parsed.raw("--out") {
        cfg.out_dir = Some(dir.into());
    }
    if parsed.flag("--telemetry") {
        cfg.telemetry = Some(std::sync::Arc::new(graphmaze_core::metrics::Registry::new()));
    }
    if parsed.flag("--list") {
        print_listing();
        return;
    }
    // resolve every name up front: a typo must fail the whole invocation
    // immediately, not hours into `repro all`
    let mut chosen: Vec<&Experiment> = Vec::new();
    for name in &parsed.positional {
        let named: Vec<&Experiment> = if name == "all" {
            EXPERIMENTS.iter().collect()
        } else {
            let e = EXPERIMENTS
                .iter()
                .find(|e| e.names.contains(&name.as_str()));
            vec![e.unwrap_or_else(|| die(&format!("unknown experiment `{name}`")))]
        };
        for e in named {
            if !chosen.iter().any(|c| c.names == e.names) {
                chosen.push(e);
            }
        }
    }
    if chosen.is_empty() {
        // nothing to run must not truncate the journal below
        die("no experiment named");
    }
    // a fresh (non-resume) run must not inherit stale journal entries
    if !cfg.resume {
        if let Some(journal) = cfg.journal_path() {
            let _ = std::fs::remove_file(journal);
        }
    }
    println!(
        "graphmaze repro — scale 2^{}, seed {}, extrapolation {}, {} job{}{}\n",
        cfg.target_scale,
        cfg.seed,
        if cfg.extrapolate {
            "on (paper-scale seconds)"
        } else {
            "off (raw sim seconds)"
        },
        cfg.jobs,
        if cfg.jobs == 1 { "" } else { "s" },
        if cfg.resume {
            ", resuming from journal"
        } else {
            ""
        },
    );
    if cfg.faults.is_active() {
        println!("fault injection: {}\n", cfg.faults.key());
    }
    for e in chosen {
        println!("{}", (e.run)(&cfg));
        println!("{}", "=".repeat(72));
    }
    let cells = cfg.stats.cells.load(Ordering::Relaxed);
    if cells > 0 {
        println!(
            "sweep summary: {cells} cells — {} run, {} resumed, {} failed; \
             workload cache: {} built, {} reused",
            cfg.stats.ran.load(Ordering::Relaxed),
            cfg.stats.resumed.load(Ordering::Relaxed),
            cfg.stats.failed.load(Ordering::Relaxed),
            cfg.cache.misses(),
            cfg.cache.hits(),
        );
    }
    if let Some(registry) = &cfg.telemetry {
        let text = graphmaze_core::metrics::render_exposition(registry);
        match &cfg.out_dir {
            Some(dir) => {
                let _ = std::fs::create_dir_all(dir);
                let path = dir.join("metrics.prom");
                match std::fs::write(&path, &text) {
                    Ok(()) => println!("telemetry exposition written to {}", path.display()),
                    Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
                }
            }
            // --no-csv: nowhere to put the artifact, print it instead
            None => print!("{text}"),
        }
    }
    if let Some(dir) = &cfg.out_dir {
        println!("CSV artifacts written to {}/", dir.display());
        if cells > 0 {
            println!(
                "sweep journal at {}/journal.jsonl (re-run with --resume to skip completed cells)",
                dir.display()
            );
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{}", usage());
    std::process::exit(2)
}
