//! The five workloads. Each stresses different layers; for an
//! optimisation in one layer some workload exercises it and another
//! bypasses it (README: "How the metrics interact").

pub mod cluster;
pub mod crossbar;
pub mod kernels;
pub mod serve;

use std::time::Instant;

use graphmaze_core::{Framework, RunRequest, RunResponse, SweepCell, WorkloadCache};

use crate::golden::{self, Obs, OpCheck};
use crate::harness::{static_name, Cx, Verify};

/// The operation table of a workload: how each operation is verified,
/// and what the verification pass pinned for the timed passes.
pub struct Pinned {
    workload: &'static str,
    pub checks: Vec<OpCheck>,
    expected: Vec<Obs>,
}

impl Pinned {
    pub fn new(workload: &'static str, checks: Vec<OpCheck>) -> Pinned {
        Pinned {
            workload,
            checks,
            expected: Vec::new(),
        }
    }

    /// Checks one full pass of observations (goldens at the default seed,
    /// agreement with native elsewhere) and pins them.
    pub fn verify(&mut self, cx: &Cx, observed: Vec<Obs>) -> Verify {
        let golden = golden::pinned(self.workload, cx.sizes.smoke);
        let failures = golden::verify(&self.checks, &observed, &golden, cx.use_golden);
        self.expected = observed;
        Verify {
            attempted: self.expected.len(),
            failures,
        }
    }

    /// Whether operation `op` returned exactly what verification pinned.
    pub fn ok(&self, op: usize, got: &Obs) -> bool {
        self.expected
            .get(op)
            .is_some_and(|e| golden::matches(e, got).is_ok())
    }

    pub fn expected(&self, op: usize) -> &Obs {
        &self.expected[op]
    }

    /// One row per golden id among the pinned operations.
    pub fn golden_rows(&self) -> Vec<(String, Obs)> {
        let mut rows: Vec<(String, Obs)> = Vec::new();
        for (c, o) in self.checks.iter().zip(&self.expected) {
            if c.pinned && !rows.iter().any(|(id, _)| id == &c.id) {
                rows.push((c.id.clone(), o.clone()));
            }
        }
        rows
    }
}

/// Span name of one cell: the layer that does the work is the engine the
/// cell runs under (`native` for the hand-written reference).
pub fn cell_span_name(cell: &SweepCell) -> &'static str {
    let alg = cell.algorithm.name();
    static_name(match cell.framework {
        Framework::Native => format!("native.cell.{alg}"),
        fw => format!("engines.{}.{alg}", fw.name()),
    })
}

/// Executes one cell through `RunRequest::execute` — the path `repro` and
/// the daemon share — timed from outside. A traced call opens a span
/// around the workload-cache lookup and one around the run.
pub fn execute_cell(
    cx: &Cx,
    experiment: &str,
    cell: &SweepCell,
    span: &'static str,
    op: u32,
    cache: &WorkloadCache,
) -> (RunResponse, u64) {
    let t = Instant::now();
    cx.rec.span("core.workload_cache_get", op, || {
        drop(cache.get(&cell.spec))
    });
    let resp = cx.rec.span(span, op, || {
        RunRequest::new(experiment, cell.clone()).execute(cache)
    });
    (resp, t.elapsed().as_nanos() as u64)
}
