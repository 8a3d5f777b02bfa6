//! `crossbar`: `experiments::figures::fig3_and_table5` — the thing users
//! actually run. 98 single-node cells (7 frameworks x 4 algorithms over
//! the Table-3 stand-ins), `jobs=1`, journal and CSVs written to a
//! scratch directory. The engines do >90 % of the work; the cluster
//! layer's multi-node paths, the daemon and the raw kernels almost none.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

use graphmaze_bench::experiments::figures::fig3_and_table5;
use graphmaze_bench::experiments::{fig3_graph_specs, fig3_ratings_specs};
use graphmaze_bench::trace::write_sweep_trace;
use graphmaze_bench::{standard_params, ReproConfig};
use graphmaze_core::flatjson::parse_flat_json;
use graphmaze_core::{
    Algorithm, Framework, SilentObserver, Sweep, SweepCell, SweepOptions, WorkloadCache,
};

use super::{cell_span_name, execute_cell, Pinned};
use crate::golden::{Obs, OpCheck};
use crate::harness::{median_op_s, timed, Cx, Ledger, OpSample, PassOut, Tag, Verify, Workload};
use crate::spans::NO_OP;
use crate::stats::median;
use graphmaze_core::report::geomean;

const EXPERIMENT: &str = "fig3";

pub struct Crossbar {
    cfg: ReproConfig,
    cells: Vec<SweepCell>,
    spans: Vec<&'static str>,
    pinned: Pinned,
    dir: PathBuf,
    /// `fig3_and_table5` wall minus the journal's per-cell walls, per
    /// untraced pass, seconds.
    render_s: Vec<f64>,
}

impl Crossbar {
    fn journal(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    /// One pass the way users run it: the whole experiment in one call.
    /// Per-cell outcomes and walls come from the journal it writes.
    fn pass_whole(&mut self) -> (crate::harness::Timing, Vec<(Obs, u64)>) {
        // `repro` truncates the journal of a fresh run; the executor appends
        let _ = std::fs::remove_file(self.journal());
        let (_, timing) = timed(|| black_box(fig3_and_table5(&self.cfg)));
        let body = std::fs::read_to_string(self.journal()).unwrap_or_default();
        let mut by_key: HashMap<String, (Obs, u64)> = HashMap::new();
        for line in body.lines() {
            if let Some(m) = parse_flat_json(line) {
                let ns = m
                    .get("wall_secs")
                    .and_then(|v| v.parse::<f64>().ok())
                    .map_or(0, |s| (s * 1e9) as u64);
                if let Some(key) = m.get("key") {
                    by_key.insert(key.clone(), (Obs::of_journal_line(&m), ns));
                }
            }
        }
        // a cell the journal does not hold under its identity hash failed
        let cells: Vec<(Obs, u64)> = self
            .cells
            .iter()
            .map(|c| {
                by_key
                    .remove(&format!("{:016x}", c.key(EXPERIMENT)))
                    .unwrap_or((Obs::failure("panic"), 0))
            })
            .collect();
        let cell_s: f64 = cells.iter().map(|(_, ns)| *ns as f64 / 1e9).sum();
        self.render_s.push(timing.wall_ns as f64 / 1e9 - cell_s);
        (timing, cells)
    }
}

impl Workload for Crossbar {
    fn setup(cx: &Cx) -> Self {
        let dir = cx.scratch.join("crossbar");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ReproConfig {
            target_scale: cx.sizes.crossbar_scale,
            seed: cx.seed,
            out_dir: Some(dir.clone()),
            jobs: 1,
            cache: Arc::new(WorkloadCache::new()),
            ..ReproConfig::default()
        };
        // the spec builders resolve every dataset through the cache: this
        // is the generators and the view build of the six inputs
        let graphs = cx
            .rec
            .span("core.workload_build", NO_OP, || fig3_graph_specs(&cfg));
        let ratings = cx
            .rec
            .span("core.workload_build", NO_OP, || fig3_ratings_specs(&cfg));
        // the cell list `fig3_and_table5` declares, rebuilt here so that
        // the traced run can execute it cell by cell; the identity hashes
        // in the journal prove the two lists are the same
        let params = standard_params();
        let mut cells = Vec::new();
        let mut checks = Vec::new();
        for alg in Algorithm::ALL {
            let datasets = if alg == Algorithm::CollaborativeFiltering {
                &ratings
            } else {
                &graphs
            };
            for (name, spec, factor) in datasets {
                for fw in Framework::EXTENDED {
                    checks.push(OpCheck {
                        id: format!("{}/{name}/{}", alg.name(), fw.name()),
                        alg,
                        group: format!("{}/{name}", alg.name()),
                        is_native: fw == Framework::Native,
                        pinned: true,
                    });
                    cells.push(SweepCell {
                        label: name.clone(),
                        algorithm: alg,
                        framework: fw,
                        spec: spec.clone(),
                        nodes: 1,
                        factor: *factor,
                        params,
                        faults: cfg.faults,
                    });
                }
            }
        }
        Crossbar {
            spans: cells.iter().map(cell_span_name).collect(),
            cells,
            cfg,
            pinned: Pinned::new("crossbar", checks),
            dir,
            render_s: Vec::new(),
        }
    }

    fn verify(&mut self, cx: &Cx) -> Verify {
        let (_, cells) = self.pass_whole();
        self.render_s.clear();
        self.pinned
            .verify(cx, cells.into_iter().map(|(obs, _)| obs).collect())
    }

    fn pass(&mut self, cx: &Cx, traced: bool) -> PassOut {
        let (timing, cells) = if traced {
            // the traced run executes the same cells one by one, so that
            // each call into a layer has its own span
            let (cells, timing) = timed(|| {
                self.cells
                    .iter()
                    .zip(&self.spans)
                    .enumerate()
                    .map(|(i, (cell, span))| {
                        let (resp, ns) =
                            execute_cell(cx, EXPERIMENT, cell, span, i as u32, &self.cfg.cache);
                        (Obs::of_response(&resp), ns)
                    })
                    .collect::<Vec<_>>()
            });
            (timing, cells)
        } else {
            self.pass_whole()
        };
        let ops = cells
            .iter()
            .enumerate()
            .map(|(i, (obs, ns))| OpSample {
                op: i as u32,
                ns: *ns,
                tag: Tag::Plain,
                ok: self.pinned.ok(i, obs),
            })
            .collect();
        PassOut { timing, ops }
    }

    fn layers(&mut self, cx: &Cx, untraced: &[PassOut], ledger: &mut Ledger) {
        let wall: Vec<f64> = (0..self.cells.len())
            .map(|i| median_op_s(untraced, i as u32))
            .collect();
        let ok = |i: usize| self.pinned.expected(i).kind == "ok";
        let sum_where = |keep: &dyn Fn(&SweepCell) -> bool| -> f64 {
            self.cells
                .iter()
                .zip(&wall)
                .filter(|(c, _)| keep(c))
                .map(|(_, w)| w)
                .sum()
        };

        for (fw, busy, gap) in [
            (Framework::Native, "engines.native.busy_s", ""),
            (
                Framework::CombBlas,
                "engines.combblas.busy_s",
                "engines.combblas.host_gap",
            ),
            (
                Framework::GraphLab,
                "engines.graphlab.busy_s",
                "engines.graphlab.host_gap",
            ),
            (
                Framework::SociaLite,
                "engines.socialite.busy_s",
                "engines.socialite.host_gap",
            ),
            (
                Framework::Giraph,
                "engines.giraph.busy_s",
                "engines.giraph.host_gap",
            ),
            (
                Framework::Galois,
                "engines.galois.busy_s",
                "engines.galois.host_gap",
            ),
            (
                Framework::GraphMat,
                "engines.graphmat.busy_s",
                "engines.graphmat.host_gap",
            ),
        ] {
            ledger.insert(busy, sum_where(&|c| c.framework == fw));
            if gap.is_empty() {
                continue;
            }
            // geomean of wall / native wall over the cells both completed;
            // rows are contiguous with native first
            let ratios: Vec<f64> = (0..self.cells.len())
                .filter(|&i| self.cells[i].framework == fw && ok(i))
                .filter_map(|i| {
                    let native = i - Framework::EXTENDED.iter().position(|f| *f == fw)?;
                    (ok(native) && wall[native] > 0.0).then(|| wall[i] / wall[native])
                })
                .collect();
            ledger.insert(gap, geomean(&ratios));
        }
        for (alg, name) in [
            (Algorithm::PageRank, "engines.pagerank_s"),
            (Algorithm::Bfs, "engines.bfs_s"),
            (Algorithm::TriangleCount, "engines.triangle_s"),
            (Algorithm::CollaborativeFiltering, "engines.cf_s"),
        ] {
            ledger.insert(name, sum_where(&|c| c.algorithm == alg));
        }
        // the three NetflixLike CF cells under the vertex-program engines
        // (GraphLab, Giraph) and GraphMat, which lowers the same programs
        ledger.insert(
            "engines.vertex_cf_s",
            sum_where(&|c| {
                c.algorithm == Algorithm::CollaborativeFiltering
                    && c.label == "netflix"
                    && matches!(
                        c.framework,
                        Framework::GraphLab | Framework::Giraph | Framework::GraphMat
                    )
            }),
        );
        let failed: f64 = (0..self.cells.len())
            .filter(|&i| !ok(i))
            .map(|i| wall[i])
            .sum();
        ledger.insert("engines.failed_cell_s", failed);
        ledger.insert("engines.wasted_frac", failed / wall.iter().sum::<f64>());
        ledger.insert("bench.fig3_render_ms", median(&self.render_s) * 1e3);

        // the journal of the last untraced pass: its deterministic size,
        // and the read path (`--resume`) beside the write path
        let body = std::fs::read_to_string(self.journal()).unwrap_or_default();
        let stable_bytes: usize = body
            .lines()
            .map(|l| match l.rfind(",\"wall_secs\":") {
                // the digits of the host-clock field vary from run to run
                Some(at) => at + ",\"wall_secs\":}".len(),
                None => l.len(),
            } + 1)
            .sum();
        ledger.insert(
            "core.journal_bytes_per_cell",
            stable_bytes as f64 / self.cells.len() as f64,
        );
        let sweep = Sweep {
            experiment: EXPERIMENT.to_string(),
            cells: self.cells.clone(),
        };
        let opts = SweepOptions {
            jobs: 1,
            journal: Some(self.journal()),
            resume: true,
            ..SweepOptions::default()
        };
        let (report, resume_s) = cx.timed_span("core.journal_resume", || {
            sweep.execute(&opts, &self.cfg.cache, &SilentObserver)
        });
        assert_eq!(report.resumed, self.cells.len(), "every cell resumes");
        ledger.insert(
            "core.journal_resume_us_per_cell",
            resume_s * 1e6 / self.cells.len() as f64,
        );

        let trace_dir = self.dir.join("sweep-trace");
        let _ = std::fs::remove_dir_all(&trace_dir);
        let (written, write_s) = cx.timed_span("bench.trace_write", || {
            write_sweep_trace(&trace_dir, &sweep, &report)
        });
        if let Err(e) = written {
            eprintln!("[crossbar] warning: write_sweep_trace failed: {e}");
        }
        ledger.insert("bench.trace_write_ms", write_s * 1e3);
        ledger.insert("bench.trace_bytes", dir_bytes(&trace_dir) as f64);
    }

    fn golden_rows(&self) -> Vec<(String, Obs)> {
        self.pinned.golden_rows()
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
