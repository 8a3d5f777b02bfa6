//! The step-level trace timeline — the *temporal* record behind the
//! paper's §5.4/Figure 6 system metrics.
//!
//! Aggregate totals (a [`crate::RunReport`]) can answer "how much", but
//! not "when": peak network bandwidth, the memory watermark's growth and
//! per-phase time breakdowns are all properties of the step *series*.
//! The simulator appends one [`StepRecord`] per BSP barrier; the
//! [`Timeline`] collector derives the series metrics and feeds the
//! Chrome-trace/CSV exporters in the bench harness.
//!
//! Reconciliation is exact by construction: the simulator's clock is
//! advanced by `compute_s + comm_s + barrier_s + recovery_s +
//! resilience_s + rebalance_s` of the record it pushes (same additions,
//! same association), so
//! `timeline.total_seconds() == report.sim_seconds` holds bit-for-bit,
//! and `timeline.total_bytes() == report.traffic.bytes_sent` likewise.

use std::fmt::Write as _;

/// One BSP step as folded by the simulator's barrier.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepRecord {
    /// Zero-based step index.
    pub step: u32,
    /// Engine-assigned phase label active when the step ended (e.g.
    /// `bfs:top-down`, `gd:q-side`, `superstep:3/split:7`).
    pub phase: String,
    /// Critical-path compute seconds (max over nodes).
    pub compute_s: f64,
    /// *Exposed* communication seconds — what overlap failed to hide.
    pub comm_s: f64,
    /// Barrier/coordination seconds (the profile's per-step overhead).
    pub barrier_s: f64,
    /// Recovery seconds folded into the step: checkpoint writes plus
    /// any failure-detection latency and restore/replay after a node
    /// failure (zero without faults).
    pub recovery_s: f64,
    /// Resilience-protocol seconds folded into the step: retransmission
    /// timeouts with exponential backoff plus slow-link excess wire time
    /// (zero unless the fault plan has link-level terms).
    pub resilience_s: f64,
    /// Membership seconds folded into the step: state-migration
    /// transfers and joiner warm-start restores when the cluster
    /// rebalanced at this barrier (zero unless the fault plan has
    /// membership events).
    pub rebalance_s: f64,
    /// Wire bytes sent by all nodes during the step.
    pub bytes_sent: u64,
    /// Messages sent by all nodes during the step.
    pub messages: u64,
    /// Wire bytes sent by the busiest node during the step.
    pub max_node_bytes: u64,
    /// Cumulative memory watermark at step end: max over nodes of each
    /// node's peak bytes so far (monotone across the run).
    pub mem_peak_bytes: u64,
}

impl StepRecord {
    /// The step's duration on the simulated clock. Summing durations in
    /// step order reproduces `sim_seconds` exactly (identical float
    /// operations in identical order).
    #[inline]
    pub fn duration_s(&self) -> f64 {
        self.compute_s
            + self.comm_s
            + self.barrier_s
            + self.recovery_s
            + self.resilience_s
            + self.rebalance_s
    }
}

/// How one column's value is spelled in a cell: integers in decimal,
/// f64s shortest-round-trip (`{:?}`, so non-finite values read
/// "inf"/"NaN", which `f64::from_str` parses back) and text through the
/// writer's escaper.
trait Cell {
    fn write_cell(&self, out: &mut String, text: &impl Fn(&mut String, &str));
}

impl Cell for u32 {
    fn write_cell(&self, out: &mut String, _: &impl Fn(&mut String, &str)) {
        let _ = write!(out, "{self}");
    }
}

impl Cell for u64 {
    fn write_cell(&self, out: &mut String, _: &impl Fn(&mut String, &str)) {
        let _ = write!(out, "{self}");
    }
}

impl Cell for f64 {
    fn write_cell(&self, out: &mut String, _: &impl Fn(&mut String, &str)) {
        let _ = write!(out, "{self:?}");
    }
}

impl Cell for String {
    fn write_cell(&self, out: &mut String, text: &impl Fn(&mut String, &str)) {
        text(out, self);
    }
}

/// Declares [`StepRecord`]'s columns once, in order — each one's name
/// and field — and generates `COLUMNS`, `write_cells`, `cells` and
/// `from_cells` from that one list.
macro_rules! step_columns {
    ($($name:literal => $field:ident,)*) => {
        impl StepRecord {
            /// The column names, in order: the per-step trace CSV's header.
            pub const COLUMNS: [&'static str; 12] = [$($name),*];

            /// Appends the record to `out` as one cell per column with
            /// `sep` between cells (see [`StepRecord::cells`] for the
            /// spelling). The phase goes through `text`, which escapes
            /// whatever `sep` and the caller's format reserve. The
            /// journal's timeline string and the per-step trace CSV are
            /// both written this way, straight into their buffers.
            pub fn write_cells(&self, out: &mut String, sep: char, text: impl Fn(&mut String, &str)) {
                $(
                    self.$field.write_cell(out, &text);
                    out.push(sep);
                )*
                out.pop();
            }

            /// The record as one text cell per column: integers in
            /// decimal, f64s shortest-round-trip (`{:?}`, so non-finite
            /// values read "inf"/"NaN", which `f64::from_str` parses back)
            /// and the phase verbatim.
            pub fn cells(&self) -> [String; 12] {
                [$({
                    let mut cell = String::new();
                    self.$field.write_cell(&mut cell, &|out: &mut String, s: &str| out.push_str(s));
                    cell
                }),*]
            }

            /// The inverse of [`StepRecord::cells`]: `None` unless there
            /// are exactly 12 cells and each parses as its column's type.
            pub fn from_cells<'a>(
                cells: impl IntoIterator<Item = &'a str>,
            ) -> Option<StepRecord> {
                let mut it = cells.into_iter();
                // struct fields are evaluated as written: in column order
                let rec = StepRecord { $($field: it.next()?.parse().ok()?),* };
                it.next().is_none().then_some(rec)
            }
        }
    };
}

step_columns! {
    "step" => step,
    "phase" => phase,
    "compute_s" => compute_s,
    "comm_s" => comm_s,
    "barrier_s" => barrier_s,
    "recovery_s" => recovery_s,
    "resilience_s" => resilience_s,
    "rebalance_s" => rebalance_s,
    "bytes_sent" => bytes_sent,
    "messages" => messages,
    "max_node_bytes" => max_node_bytes,
    "mem_peak_bytes" => mem_peak_bytes,
}

/// Time/bytes aggregated over all steps sharing one phase label.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseStat {
    /// The phase label.
    pub phase: String,
    /// Steps carrying this label.
    pub steps: u32,
    /// Total duration of those steps, seconds.
    pub seconds: f64,
    /// Total wire bytes those steps sent.
    pub bytes_sent: u64,
}

/// The per-step series of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Node count of the run (denominator for per-node bandwidths).
    pub nodes: usize,
    /// One record per BSP step, in execution order.
    pub steps: Vec<StepRecord>,
}

impl Timeline {
    /// An empty timeline for a `nodes`-node run.
    pub fn new(nodes: usize) -> Self {
        Timeline {
            nodes,
            steps: Vec::new(),
        }
    }

    /// Number of recorded steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total simulated seconds — bit-identical to the run's
    /// `sim_seconds` (see module docs).
    pub fn total_seconds(&self) -> f64 {
        self.steps.iter().map(StepRecord::duration_s).sum()
    }

    /// Total wire bytes — equals `traffic.bytes_sent` exactly.
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().map(|s| s.bytes_sent).sum()
    }

    /// **Peak** network bandwidth per node, bytes/sec: the maximum over
    /// steps of `(bytes_sent / nodes) / duration`. This is what Fig 6(d)
    /// reports; it is ≥ the run-average by the weighted-mean inequality
    /// (the average weights each step's rate by its duration).
    pub fn peak_net_bw_per_node(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        self.steps
            .iter()
            .filter(|s| s.duration_s() > 0.0)
            .map(|s| s.bytes_sent as f64 / self.nodes as f64 / s.duration_s())
            .fold(0.0, f64::max)
    }

    /// Mean network bandwidth per node over the whole run, bytes/sec.
    pub fn mean_net_bw_per_node(&self) -> f64 {
        let t = self.total_seconds();
        if self.nodes == 0 || t <= 0.0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.nodes as f64 / t
        }
    }

    /// The memory watermark over time: `(step end time, mem_peak_bytes)`
    /// per step. The watermark is monotone, so the last entry equals the
    /// run's `peak_mem_bytes`.
    pub fn mem_series(&self) -> Vec<(f64, u64)> {
        let mut t = 0.0;
        self.steps
            .iter()
            .map(|s| {
                t += s.duration_s();
                (t, s.mem_peak_bytes)
            })
            .collect()
    }

    /// Peak memory over the run (max of the watermark series).
    pub fn peak_mem_bytes(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.mem_peak_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Per-phase time/traffic breakdown, in first-appearance order.
    pub fn phase_breakdown(&self) -> Vec<PhaseStat> {
        let mut out: Vec<PhaseStat> = Vec::new();
        for s in &self.steps {
            match out.iter_mut().find(|p| p.phase == s.phase) {
                Some(p) => {
                    p.steps += 1;
                    p.seconds += s.duration_s();
                    p.bytes_sent += s.bytes_sent;
                }
                None => out.push(PhaseStat {
                    phase: s.phase.clone(),
                    steps: 1,
                    seconds: s.duration_s(),
                    bytes_sent: s.bytes_sent,
                }),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(step: u32, phase: &str, c: f64, m: f64, b: f64, bytes: u64) -> StepRecord {
        StepRecord {
            step,
            phase: phase.into(),
            compute_s: c,
            comm_s: m,
            barrier_s: b,
            recovery_s: 0.0,
            resilience_s: 0.0,
            rebalance_s: 0.0,
            bytes_sent: bytes,
            messages: bytes / 100,
            max_node_bytes: bytes / 2,
            mem_peak_bytes: u64::from(step) * 10,
        }
    }

    fn sample() -> Timeline {
        Timeline {
            nodes: 2,
            steps: vec![
                rec(0, "load", 0.1, 0.0, 0.01, 0),
                rec(1, "iterate", 0.2, 0.3, 0.01, 600),
                rec(2, "iterate", 0.2, 0.1, 0.01, 1000),
            ],
        }
    }

    #[test]
    fn cells_round_trip_and_a_wrong_count_or_type_is_refused() {
        let mut r = rec(3, "a|b", 0.1, f64::INFINITY, 1e-300, u64::MAX / 3);
        r.mem_peak_bytes = u64::MAX;
        let cells = r.cells();
        assert_eq!(cells.len(), StepRecord::COLUMNS.len());
        let back = StepRecord::from_cells(cells.iter().map(String::as_str));
        assert_eq!(back, Some(r));
        assert_eq!(
            StepRecord::from_cells(cells[..11].iter().map(String::as_str)),
            None
        );
        let thirteen = cells.iter().map(String::as_str).chain(["0"]);
        assert_eq!(StepRecord::from_cells(thirteen), None);
        let mut wide = cells.clone();
        wide[0] = "4294967296".into(); // step is a u32
        assert_eq!(
            StepRecord::from_cells(wide.iter().map(String::as_str)),
            None
        );
    }

    #[test]
    fn totals_sum_over_steps() {
        let tl = sample();
        assert!((tl.total_seconds() - 0.93).abs() < 1e-12);
        assert_eq!(tl.total_bytes(), 1600);
        assert_eq!(tl.len(), 3);
        assert!(!tl.is_empty());
    }

    #[test]
    fn peak_bw_exceeds_mean() {
        let tl = sample();
        let peak = tl.peak_net_bw_per_node();
        let mean = tl.mean_net_bw_per_node();
        // step 2: 1000 B / 2 nodes / 0.31 s ≈ 1613 B/s is the peak
        assert!((peak - 1000.0 / 2.0 / 0.31).abs() < 1e-9, "peak {peak}");
        assert!(peak >= mean, "peak {peak} < mean {mean}");
    }

    #[test]
    fn empty_timeline_is_zero() {
        let tl = Timeline::new(4);
        assert_eq!(tl.total_seconds(), 0.0);
        assert_eq!(tl.peak_net_bw_per_node(), 0.0);
        assert_eq!(tl.mean_net_bw_per_node(), 0.0);
        assert_eq!(tl.peak_mem_bytes(), 0);
        assert!(tl.mem_series().is_empty());
    }

    #[test]
    fn mem_series_is_watermark() {
        let tl = sample();
        let series = tl.mem_series();
        assert_eq!(series.len(), 3);
        assert_eq!(series[2].1, 20);
        assert!((series[2].0 - tl.total_seconds()).abs() < 1e-12);
        assert_eq!(tl.peak_mem_bytes(), 20);
    }

    #[test]
    fn phase_breakdown_aggregates_in_order() {
        let tl = sample();
        let phases = tl.phase_breakdown();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].phase, "load");
        assert_eq!(phases[0].steps, 1);
        assert_eq!(phases[1].phase, "iterate");
        assert_eq!(phases[1].steps, 2);
        assert_eq!(phases[1].bytes_sent, 1600);
        assert!((phases[1].seconds - 0.82).abs() < 1e-12);
    }
}
