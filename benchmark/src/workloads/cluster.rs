//! `cluster`: 192 multi-node cells on fixed inputs — the same engines as
//! `crossbar`, but cheap algorithms on many simulated nodes, so the
//! bookkeeping of `cluster::{sim,router,compress,partition,faults}` is
//! the largest share. The four fault plans use the same `Sim` barrier
//! differently (fault-free / retransmit / repartition / rollback), so a
//! gain for one path that costs another shows.

use graphmaze_core::cluster::FaultPlan;
use graphmaze_core::{
    Algorithm, Framework, RunResponse, SilentObserver, Sweep, SweepCell, SweepOptions,
    WorkloadCache, WorkloadSpec,
};
use graphmaze_serve::grid::SERVING_FRAMEWORKS;

use super::{cell_span_name, execute_cell, Pinned};
use crate::golden::{Obs, OpCheck};
use crate::harness::{median_op_s, timed, Cx, Ledger, OpSample, PassOut, Tag, Verify, Workload};
use crate::spans::NO_OP;
use graphmaze_core::report::geomean;

const EXPERIMENT: &str = "bench-cluster";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Plan {
    None,
    Lossy,
    Elastic,
    Recover,
}

impl Plan {
    fn name(self) -> &'static str {
        match self {
            Plan::None => "none",
            Plan::Lossy => "lossy",
            Plan::Elastic => "elastic",
            Plan::Recover => "recover",
        }
    }

    /// The `--faults` spec of the plan on a `nodes`-node cluster.
    fn spec(self, nodes: usize) -> String {
        match self {
            Plan::None => "none".to_string(),
            Plan::Lossy => "seed=1,linkdrop=0.02,dup=0.005".to_string(),
            // one node joins after step 1, node 1 leaves after step 3
            Plan::Elastic => format!("seed=1,join={nodes}@1,leave=1@3"),
            // node 1 dies in step 2; checkpoints every 2 steps (only
            // Giraph restarts — the other engines fail-stop, as pinned)
            Plan::Recover => "seed=1,kill=1@2,ckpt=2".to_string(),
        }
    }
}

struct Cell {
    cell: SweepCell,
    plan: Plan,
    span: &'static str,
}

pub struct Cluster {
    cache: WorkloadCache,
    cells: Vec<Cell>,
    pinned: Pinned,
}

impl Cluster {
    /// Every cell once, each timed from outside.
    fn run_cells(&self, cx: &Cx) -> Vec<(RunResponse, u64)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| execute_cell(cx, EXPERIMENT, &c.cell, c.span, i as u32, &self.cache))
            .collect()
    }
}

impl Workload for Cluster {
    fn setup(cx: &Cx) -> Self {
        let s = cx.sizes;
        let rmat = |scale| WorkloadSpec::Rmat {
            scale,
            edge_factor: 16,
            seed: cx.seed,
        };
        let mid = [s.cluster_mid_nodes];
        // elastic and recover plans ride on the iterative/traversal
        // algorithms only: TC and CF finish in too few barriers
        let all_plans = [Plan::None, Plan::Lossy, Plan::Elastic, Plan::Recover];
        let inputs: [(Algorithm, WorkloadSpec, &[usize], &[Plan]); 5] = [
            (
                Algorithm::PageRank,
                rmat(s.cluster_graph_scale),
                &s.cluster_nodes,
                &all_plans,
            ),
            (
                Algorithm::Bfs,
                rmat(s.cluster_graph_scale),
                &s.cluster_nodes,
                &all_plans,
            ),
            (
                Algorithm::MsBfs,
                rmat(s.cluster_small_scale),
                &mid,
                &all_plans,
            ),
            (
                Algorithm::TriangleCount,
                WorkloadSpec::RmatTriangle {
                    scale: s.cluster_small_scale,
                    edge_factor: 8,
                    seed: cx.seed,
                },
                &mid,
                &all_plans[..2],
            ),
            (
                Algorithm::CollaborativeFiltering,
                WorkloadSpec::RmatRatings {
                    scale: s.cluster_small_scale,
                    num_items: 64,
                    seed: cx.seed,
                },
                &mid,
                &all_plans[..2],
            ),
        ];
        let cache = WorkloadCache::new();
        let params = graphmaze_bench::standard_params();
        let mut cells = Vec::new();
        let mut checks = Vec::new();
        for (alg, spec, node_counts, plans) in inputs {
            cx.rec
                .span("core.workload_build", NO_OP, || drop(cache.get(&spec)));
            for &nodes in node_counts {
                for &plan in plans {
                    let faults = match plan {
                        Plan::None => FaultPlan::none(),
                        _ => FaultPlan::parse(&plan.spec(nodes)).expect("the plans parse"),
                    };
                    for fw in SERVING_FRAMEWORKS {
                        let cell = SweepCell {
                            label: plan.name().to_string(),
                            algorithm: alg,
                            framework: fw,
                            spec: spec.clone(),
                            nodes,
                            factor: 1.0,
                            params,
                            faults,
                        };
                        checks.push(OpCheck {
                            id: format!("{}/n{nodes}/{}/{}", alg.name(), plan.name(), fw.name()),
                            alg,
                            // every plan must reproduce the fault-free
                            // native digest on the same input
                            group: format!("{}/n{nodes}", alg.name()),
                            is_native: fw == Framework::Native && plan == Plan::None,
                            pinned: true,
                        });
                        cells.push(Cell {
                            span: cell_span_name(&cell),
                            cell,
                            plan,
                        });
                    }
                }
            }
        }
        Cluster {
            cache,
            cells,
            pinned: Pinned::new("cluster", checks),
        }
    }

    fn verify(&mut self, cx: &Cx) -> Verify {
        let observed = self
            .run_cells(cx)
            .iter()
            .map(|(resp, _)| Obs::of_response(resp))
            .collect();
        self.pinned.verify(cx, observed)
    }

    fn pass(&mut self, cx: &Cx, _traced: bool) -> PassOut {
        let (ran, timing) = timed(|| self.run_cells(cx));
        let ops = ran
            .iter()
            .enumerate()
            .map(|(i, (resp, ns))| OpSample {
                op: i as u32,
                ns: *ns,
                tag: Tag::Plain,
                ok: self.pinned.ok(i, &Obs::of_response(resp)),
            })
            .collect();
        PassOut { timing, ops }
    }

    fn layers(&mut self, cx: &Cx, untraced: &[PassOut], ledger: &mut Ledger) {
        let wall: Vec<f64> = (0..self.cells.len())
            .map(|i| median_op_s(untraced, i as u32))
            .collect();
        let ok = |i: usize| self.pinned.expected(i).kind == "ok";
        // the cell with the same coordinates except plan/node count
        let find = |of: &Cell, plan: Plan, nodes: usize| {
            self.cells.iter().position(|c| {
                c.plan == plan
                    && c.cell.nodes == nodes
                    && c.cell.algorithm == of.cell.algorithm
                    && c.cell.framework == of.cell.framework
            })
        };
        // geomean of wall(i) / wall(pair(i)) over cells both completed
        let ratio = |keep: &dyn Fn(&Cell) -> bool, pair: &dyn Fn(&Cell) -> Option<usize>| {
            let ratios: Vec<f64> = self
                .cells
                .iter()
                .enumerate()
                .filter(|(i, c)| keep(c) && ok(*i))
                .filter_map(|(i, c)| {
                    let j = pair(c)?;
                    (ok(j) && wall[j] > 0.0).then(|| wall[i] / wall[j])
                })
                .collect();
            geomean(&ratios)
        };
        let [few, _, many] = cx.sizes.cluster_nodes;
        ledger.insert(
            "cluster.nodes64_over_nodes4_ratio",
            ratio(&|c| c.plan == Plan::None && c.cell.nodes == many, &|c| {
                find(c, Plan::None, few)
            }),
        );
        for (plan, name) in [
            (Plan::Lossy, "cluster.lossy_over_none_ratio"),
            (Plan::Elastic, "cluster.elastic_over_none_ratio"),
            (Plan::Recover, "cluster.recover_over_none_ratio"),
        ] {
            ledger.insert(
                name,
                ratio(&|c| c.plan == plan, &|c| find(c, Plan::None, c.cell.nodes)),
            );
        }

        let sum = |keep: &dyn Fn(&Cell) -> bool, of: &dyn Fn(usize) -> f64| -> f64 {
            self.cells
                .iter()
                .enumerate()
                .filter(|(i, c)| ok(*i) && keep(c))
                .map(|(i, _)| of(i))
                .sum()
        };
        let messages = |i: usize| self.pinned.expected(i).messages.unwrap_or(0) as f64;
        ledger.insert(
            "cluster.host_us_per_sim_msg",
            sum(&|_| true, &|i| wall[i]) * 1e6 / sum(&|_| true, &messages),
        );
        let vertex = |c: &Cell| {
            c.plan == Plan::None
                && matches!(c.cell.framework, Framework::GraphLab | Framework::Giraph)
        };
        ledger.insert(
            "engines.vertex_host_ns_per_msg",
            sum(&vertex, &|i| wall[i]) * 1e9 / sum(&vertex, &messages),
        );
        ledger.insert(
            "cluster.retransmits",
            sum(&|_| true, &|i| {
                self.pinned.expected(i).retransmits.unwrap_or(0) as f64
            }),
        );
        ledger.insert(
            "cluster.rebalance_bytes",
            sum(&|_| true, &|i| {
                self.pinned.expected(i).rebalance_bytes.unwrap_or(0) as f64
            }),
        );

        // the fault-free cells as one sweep, at --jobs 1 and --jobs 2
        let sweep = Sweep {
            experiment: EXPERIMENT.to_string(),
            cells: self
                .cells
                .iter()
                .filter(|c| c.plan == Plan::None)
                .map(|c| c.cell.clone())
                .collect(),
        };
        let wall_at = |jobs: usize| {
            let opts = SweepOptions {
                jobs,
                ..SweepOptions::default()
            };
            cx.timed_span("core.sweep", || {
                sweep.execute(&opts, &self.cache, &SilentObserver)
            })
            .1
        };
        let (one, two) = (wall_at(1), wall_at(2));
        ledger.insert("core.sweep_jobs2_speedup", one / two);
    }

    fn golden_rows(&self) -> Vec<(String, Obs)> {
        self.pinned.golden_rows()
    }
}
