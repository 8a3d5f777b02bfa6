//! Sweep executor semantics: parallel runs must match serial runs
//! exactly, the workload cache must build each spec once, a journaled
//! run must resume without re-executing, and a panicking cell must fail
//! alone instead of aborting the sweep.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use graphmaze_core::prelude::*;
use graphmaze_core::sweep::CellError;

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphmaze-sweep-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.jsonl"))
}

/// A small crossbar: 2 workloads × 3 algorithms × 3 frameworks.
fn small_sweep() -> Sweep {
    let params = BenchParams::default();
    let graph = WorkloadSpec::Rmat {
        scale: 8,
        edge_factor: 8,
        seed: 31,
    };
    let tc = WorkloadSpec::RmatTriangle {
        scale: 8,
        edge_factor: 8,
        seed: 32,
    };
    let mut sweep = Sweep::new("test");
    for fw in [Framework::Native, Framework::CombBlas, Framework::Giraph] {
        for (alg, spec) in [
            (Algorithm::PageRank, &graph),
            (Algorithm::Bfs, &graph),
            (Algorithm::TriangleCount, &tc),
        ] {
            sweep.push(SweepCell {
                label: format!("{}-{}", alg.name(), fw.name()),
                algorithm: alg,
                framework: fw,
                spec: spec.clone(),
                nodes: 2,
                factor: 1.5,
                params,
                faults: FaultPlan::none(),
            });
        }
    }
    sweep
}

fn digests(report: &SweepReport) -> Vec<Option<f64>> {
    report
        .results
        .iter()
        .map(|r| r.outcome.as_ref().ok().map(|o| o.digest))
        .collect()
}

#[test]
fn parallel_run_matches_serial_run_exactly() {
    let sweep = small_sweep();
    let serial = sweep.execute(
        &SweepOptions {
            jobs: 1,
            journal: None,
            resume: false,
            cell_timeout: None,
            telemetry: None,
        },
        &WorkloadCache::new(),
        &SilentObserver,
    );
    let parallel = sweep.execute(
        &SweepOptions {
            jobs: 4,
            journal: None,
            resume: false,
            cell_timeout: None,
            telemetry: None,
        },
        &WorkloadCache::new(),
        &SilentObserver,
    );
    assert_eq!(serial.results.len(), parallel.results.len());
    assert_eq!(
        digests(&serial),
        digests(&parallel),
        "digests must not depend on --jobs"
    );
    for (s, p) in serial.results.iter().zip(&parallel.results) {
        let (s, p) = (s.outcome.as_ref().unwrap(), p.outcome.as_ref().unwrap());
        assert_eq!(s.report, p.report, "full reports must not depend on --jobs");
    }
}

#[test]
fn cache_is_shared_across_cells() {
    let sweep = small_sweep();
    let cache = WorkloadCache::new();
    sweep.execute(
        &SweepOptions {
            jobs: 4,
            journal: None,
            resume: false,
            cell_timeout: None,
            telemetry: None,
        },
        &cache,
        &SilentObserver,
    );
    // 9 cells over 2 distinct specs
    assert_eq!(cache.misses(), 2, "each workload built exactly once");
    assert_eq!(cache.hits(), 7, "remaining cells reuse the cache");
}

#[test]
fn resume_skips_journaled_cells_and_reproduces_results() {
    let journal = temp_journal("resume");
    let _ = std::fs::remove_file(&journal);
    let sweep = small_sweep();
    let opts = SweepOptions {
        jobs: 2,
        journal: Some(journal.clone()),
        resume: false,
        cell_timeout: None,
        telemetry: None,
    };
    let first = sweep.execute(&opts, &WorkloadCache::new(), &SilentObserver);
    assert_eq!(first.ran, sweep.len());
    assert_eq!(first.resumed, 0);

    // second run with resume: nothing re-executes, results identical
    let opts = SweepOptions {
        jobs: 2,
        journal: Some(journal.clone()),
        resume: true,
        cell_timeout: None,
        telemetry: None,
    };
    let second = sweep.execute(&opts, &WorkloadCache::new(), &SilentObserver);
    assert_eq!(second.ran, 0, "every cell must come from the journal");
    assert_eq!(second.resumed, sweep.len());
    assert_eq!(digests(&first), digests(&second));
    for (a, b) in first.results.iter().zip(&second.results) {
        assert_eq!(
            a.outcome.as_ref().unwrap().report,
            b.outcome.as_ref().unwrap().report,
            "journal round-trip must be bit-exact"
        );
    }
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn resume_runs_only_the_missing_cells() {
    let journal = temp_journal("partial");
    let _ = std::fs::remove_file(&journal);
    let sweep = small_sweep();
    // simulate a killed run: journal only a prefix of the cells
    let mut prefix = Sweep::new(sweep.experiment.clone());
    for cell in &sweep.cells[..4] {
        prefix.push(cell.clone());
    }
    let opts = SweepOptions {
        jobs: 1,
        journal: Some(journal.clone()),
        resume: false,
        cell_timeout: None,
        telemetry: None,
    };
    prefix.execute(&opts, &WorkloadCache::new(), &SilentObserver);

    let opts = SweepOptions {
        jobs: 2,
        journal: Some(journal.clone()),
        resume: true,
        cell_timeout: None,
        telemetry: None,
    };
    let resumed = sweep.execute(&opts, &WorkloadCache::new(), &SilentObserver);
    assert_eq!(resumed.resumed, 4);
    assert_eq!(resumed.ran, sweep.len() - 4);
    assert!(resumed.results.iter().all(|r| r.outcome.is_ok()));
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn resume_after_a_torn_last_line_reruns_that_cell_once() {
    let journal = temp_journal("torn");
    let _ = std::fs::remove_file(&journal);
    let sweep = small_sweep();
    let opts = |resume| SweepOptions {
        jobs: 1,
        journal: Some(journal.clone()),
        resume,
        cell_timeout: None,
        telemetry: None,
    };
    sweep.execute(&opts(false), &WorkloadCache::new(), &SilentObserver);
    // a run killed mid-write: the last line loses its tail and its `\n`
    let body = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &body[..body.len() - 20]).unwrap();

    let first = sweep.execute(&opts(true), &WorkloadCache::new(), &SilentObserver);
    assert_eq!((first.ran, first.resumed), (1, sweep.len() - 1));
    let second = sweep.execute(&opts(true), &WorkloadCache::new(), &SilentObserver);
    assert_eq!(
        (second.ran, second.resumed),
        (0, sweep.len()),
        "the re-run cell's line must survive the torn fragment"
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn panicking_cell_fails_alone() {
    let params = BenchParams::default();
    let spec = WorkloadSpec::Rmat {
        scale: 8,
        edge_factor: 8,
        seed: 33,
    };
    let cell = |fw: Framework, alg: Algorithm, params: BenchParams| SweepCell {
        label: "isolation".into(),
        algorithm: alg,
        framework: fw,
        spec: spec.clone(),
        nodes: 2,
        factor: 1.0,
        params,
        faults: FaultPlan::none(),
    };
    let mut sweep = Sweep::new("isolation");
    sweep.push(cell(Framework::Native, Algorithm::PageRank, params));
    // zero-item ratings: the generator's precondition assert panics
    // while this cell's workload is built (an out-of-range BFS source,
    // the old trigger, is now a typed InvalidConfig)
    sweep.push(SweepCell {
        spec: WorkloadSpec::RmatRatings {
            scale: 8,
            num_items: 0,
            seed: 33,
        },
        ..cell(Framework::Native, Algorithm::CollaborativeFiltering, params)
    });
    // Galois is single-node: InvalidConfig, not a panic
    sweep.push(cell(Framework::Galois, Algorithm::PageRank, params));
    sweep.push(cell(Framework::Giraph, Algorithm::PageRank, params));

    let report = sweep.execute(
        &SweepOptions {
            jobs: 2,
            journal: None,
            resume: false,
            cell_timeout: None,
            telemetry: None,
        },
        &WorkloadCache::new(),
        &SilentObserver,
    );
    assert!(
        report.results[0].outcome.is_ok(),
        "healthy cell before the panic"
    );
    assert!(
        matches!(report.results[1].outcome, Err(CellError::Panicked(_))),
        "panic must be caught and recorded, got {:?}",
        report.results[1].outcome
    );
    assert!(
        matches!(report.results[2].outcome, Err(CellError::InvalidConfig(_))),
        "impossible configs keep their own failure kind"
    );
    assert!(
        report.results[3].outcome.is_ok(),
        "healthy cell after the panic"
    );
    assert_eq!(report.failed, 2);
    assert_eq!(report.ran, 4);
}

#[test]
fn failed_cells_resume_from_the_journal_too() {
    let journal = temp_journal("failed");
    let _ = std::fs::remove_file(&journal);
    let params = BenchParams::default();
    let mut sweep = Sweep::new("failed");
    sweep.push(SweepCell {
        label: "galois-multinode".into(),
        algorithm: Algorithm::PageRank,
        framework: Framework::Galois,
        spec: WorkloadSpec::Rmat {
            scale: 7,
            edge_factor: 4,
            seed: 34,
        },
        nodes: 2,
        factor: 1.0,
        params,
        faults: FaultPlan::none(),
    });
    let opts = SweepOptions {
        jobs: 1,
        journal: Some(journal.clone()),
        resume: false,
        cell_timeout: None,
        telemetry: None,
    };
    let first = sweep.execute(&opts, &WorkloadCache::new(), &SilentObserver);
    assert!(matches!(
        first.results[0].outcome,
        Err(CellError::InvalidConfig(_))
    ));

    let opts = SweepOptions {
        jobs: 1,
        journal: Some(journal.clone()),
        resume: true,
        cell_timeout: None,
        telemetry: None,
    };
    let second = sweep.execute(&opts, &WorkloadCache::new(), &SilentObserver);
    assert_eq!(second.resumed, 1, "deterministic failures are not retried");
    assert_eq!(first.results[0].outcome, second.results[0].outcome);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn observer_sees_every_terminal_event() {
    let sweep = small_sweep();
    let calls = AtomicUsize::new(0);
    sweep.execute(
        &SweepOptions {
            jobs: 3,
            journal: None,
            resume: false,
            cell_timeout: None,
            telemetry: None,
        },
        &WorkloadCache::new(),
        &|ev: &SweepEvent<'_>| {
            if let SweepEvent::Finished {
                index,
                cell,
                result,
                ..
            }
            | SweepEvent::Failed {
                index,
                cell,
                result,
                ..
            } = ev
            {
                calls.fetch_add(1, Ordering::Relaxed);
                assert!(*index < sweep.len());
                assert!(!cell.label.is_empty());
                assert!(result.wall_secs >= 0.0);
            }
        },
    );
    assert_eq!(calls.load(Ordering::Relaxed), sweep.len());
}
