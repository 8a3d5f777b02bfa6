//! Process-wide telemetry registry: counters, gauges, and fixed-bucket
//! log-scale histograms.
//!
//! The design goal is the same one [`crate::timeline`] states for the
//! offline simulator: observability that reconciles *exactly*, so tests
//! and CI smokes can assert on it instead of eyeballing dashboards.
//! Three properties make that possible:
//!
//! * **Bucket bounds are code constants.** [`TIME_BUCKETS_S`] is a
//!   compile-time table of exact powers of two, so two histograms fed
//!   the same sample multiset — in any thread interleaving — report
//!   bit-identical bucket counts and render byte-identical exposition
//!   text.
//! * **Sums are integers.** Histogram sums accumulate saturating
//!   nanoseconds in an `AtomicU64`, never floats, because float
//!   addition is not associative and would make the rendered `_sum`
//!   depend on arrival order.
//! * **Handles are cheap.** [`Counter`], [`Gauge`], and [`Histogram`]
//!   are `Arc`-backed atomics: recording on the hot path is a couple of
//!   relaxed atomic ops, no locks. The registry lock is only taken at
//!   registration and scrape time.
//!
//! The registry is instance-based, not a global static: every daemon,
//! sweep, or test owns its own [`Registry`] so concurrent tests in one
//! process cannot pollute each other's series.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Histogram bucket upper bounds for durations, in seconds: exact
/// powers of two from 2^-20 s (≈ 0.95 µs) to 2^14 s (≈ 4.5 h), plus an
/// implicit `+Inf` overflow bucket. Powers of two are exactly
/// representable in an `f64`, so the rendered `le="..."` labels are
/// stable across platforms and the "percentile within one bucket bound"
/// guarantee is a factor-of-two error bound.
pub const TIME_BUCKETS_S: [f64; 35] = {
    let mut bounds = [0.0f64; 35];
    let mut i = 0;
    let mut v = 1.0f64 / (1u64 << 20) as f64; // 2^-20
    while i < 35 {
        bounds[i] = v;
        v *= 2.0;
        i += 1;
    }
    bounds
};

/// The four stages of a serving-request span, in wire/stat order.
pub const SPAN_STAGES: [&str; 4] = ["queue_wait", "cache_lookup", "execute", "respond"];

/// Monotonically increasing `u64` metric. `store` exists for
/// collect-on-scrape mirrors (e.g. [`ResultCache`] exporting its own
/// atomics into a registry); live instruments use `inc`/`add`.
///
/// [`ResultCache`]: ../../graphmaze_core/struct.ResultCache.html
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Overwrites the value — only for mirroring an external counter
    /// at scrape time, never for hot-path increments.
    pub fn store(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (in-flight requests, draining flag, ...).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn dec(&self) {
        self.add(-1);
    }

    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    bounds: &'static [f64],
    /// One slot per bound plus the trailing `+Inf` overflow bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Saturating nanoseconds: integer addition commutes, so the sum is
    /// identical under any recording interleaving.
    sum_nanos: AtomicU64,
}

/// Fixed-bucket histogram over seconds. Buckets hold cumulative-free
/// per-bucket counts internally; [`Histogram::cumulative`] produces the
/// Prometheus-style cumulative view at read time.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        let buckets = (0..=bounds.len())
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Histogram(Arc::new(HistogramCore {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }))
    }

    pub fn bounds(&self) -> &'static [f64] {
        self.0.bounds
    }

    /// Records a sample in seconds. Negative and NaN samples clamp to
    /// zero — telemetry must never panic the serving path.
    pub fn observe(&self, seconds: f64) {
        let s = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        let nanos = (s * 1e9).round();
        let nanos = if nanos >= u64::MAX as f64 {
            u64::MAX
        } else {
            nanos as u64
        };
        self.observe_nanos_in(s, nanos);
    }

    /// Records a duration with its exact integer nanosecond value, so
    /// repeated identical durations sum without float error.
    pub fn observe_duration(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.observe_nanos_in(d.as_secs_f64(), nanos);
    }

    fn observe_nanos_in(&self, seconds: f64, nanos: u64) {
        let idx = self.0.bounds.partition_point(|b| *b < seconds);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // saturating add: fetch_update never fails with this closure
        let _ = self
            .0
            .sum_nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(nanos))
            });
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum_seconds(&self) -> f64 {
        self.0.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Cumulative bucket counts, one per bound plus the final `+Inf`
    /// entry (== total count once recording has quiesced).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut total = 0u64;
        self.0
            .buckets
            .iter()
            .map(|b| {
                total += b.load(Ordering::Relaxed);
                total
            })
            .collect()
    }

    /// Nearest-rank quantile estimate, `q` in `[0, 1]`: returns the
    /// upper bound of the bucket holding the rank-`⌈q·count⌉` sample,
    /// so the estimate is never below the true quantile and at most one
    /// bucket bound above it. Returns `0.0` for an empty histogram and
    /// the last finite bound for samples past it.
    pub fn quantile(&self, q: f64) -> f64 {
        let cumulative = self.cumulative();
        let count = *cumulative.last().unwrap_or(&0);
        if count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        for (i, c) in cumulative.iter().enumerate() {
            if *c >= rank {
                return if i < self.0.bounds.len() {
                    self.0.bounds[i]
                } else {
                    self.0.bounds[self.0.bounds.len() - 1]
                };
            }
        }
        self.0.bounds[self.0.bounds.len() - 1]
    }
}

/// Metric family kind, used for `# TYPE` lines and misuse checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
pub(crate) enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
pub(crate) struct Family {
    pub(crate) help: &'static str,
    pub(crate) kind: MetricKind,
    /// Keyed by the canonical rendered label string (`{a="b",c="d"}` or
    /// empty), so iteration — and therefore exposition — is sorted and
    /// deterministic.
    pub(crate) series: BTreeMap<String, Series>,
}

/// What [`Registry::snapshot`] hands the exposition renderer: family
/// name → (help, kind, canonical-label-string → series handle).
pub(crate) type FamilySnapshot =
    BTreeMap<String, (&'static str, MetricKind, Vec<(String, Series)>)>;

/// A set of named metric families. Get-or-create accessors hand out
/// cloneable atomic handles; the internal lock is only held during
/// registration and scraping, never while recording.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Canonical label-set rendering: sorted by key, values escaped,
    /// empty string for no labels.
    pub fn label_string(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let mut pairs: Vec<(&str, &str)> = labels.to_vec();
        pairs.sort_unstable();
        let body: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    pub fn counter(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, MetricKind::Counter, labels) {
            Series::Counter(c) => c,
            _ => unreachable!("kind checked in series()"),
        }
    }

    pub fn gauge(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, MetricKind::Gauge, labels) {
            Series::Gauge(g) => g,
            _ => unreachable!("kind checked in series()"),
        }
    }

    /// Histogram over [`TIME_BUCKETS_S`] — the only bucket table in the
    /// tree, by design: every duration histogram is comparable.
    pub fn histogram(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, MetricKind::Histogram, labels) {
            Series::Histogram(h) => h,
            _ => unreachable!("kind checked in series()"),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &'static str,
        kind: MetricKind,
        labels: &[(&str, &str)],
    ) -> Series {
        let key = Self::label_string(labels);
        let mut families = self.families.lock().expect("registry lock");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric `{name}` registered as {} and re-requested as {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
            .series
            .entry(key)
            .or_insert_with(|| match kind {
                MetricKind::Counter => Series::Counter(Counter::default()),
                MetricKind::Gauge => Series::Gauge(Gauge::default()),
                MetricKind::Histogram => Series::Histogram(Histogram::new(&TIME_BUCKETS_S)),
            })
            .clone()
    }

    /// Snapshot for the exposition renderer: family name → (help, kind,
    /// label-string → series handle).
    pub(crate) fn snapshot(&self) -> FamilySnapshot {
        let families = self.families.lock().expect("registry lock");
        families
            .iter()
            .map(|(name, fam)| {
                let series = fam
                    .series
                    .iter()
                    .map(|(k, s)| (k.clone(), s.clone()))
                    .collect();
                (name.clone(), (fam.help, fam.kind, series))
            })
            .collect()
    }
}

pub(crate) fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// One completed serving-request span: five timestamps collapsed into
/// four integer-nanosecond stage durations plus the measured total.
/// Stage durations are consecutive `Instant` differences, so
/// `queue_ns + lookup_ns + execute_ns + respond_ns == total_ns` holds
/// *exactly* (the sum telescopes) — the span-accounting test asserts
/// equality, not tolerance.
///
/// Lives in `metrics` (not `serve`) so `bench::trace` can render spans
/// into a Chrome-trace lane without a dependency cycle.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Client-supplied request id (or a synthesized one).
    pub id: String,
    /// Human cell label, e.g. `pagerank/giraph`, shared by every span of
    /// the cell.
    pub label: Arc<str>,
    /// `hit` | `miss` | `failed` | `error` | `timeout`.
    pub outcome: &'static str,
    /// Span start as seconds since daemon start (one clock, one origin).
    pub start_s: f64,
    /// enqueue → permit acquired.
    pub queue_ns: u64,
    /// permit acquired → cache lookup resolved.
    pub lookup_ns: u64,
    /// cache lookup → engine result (0 for cache hits by definition).
    pub execute_ns: u64,
    /// engine result → response flushed to the socket.
    pub respond_ns: u64,
    /// enqueue → response flushed; equals the stage sum exactly.
    pub total_ns: u64,
}

impl SpanRecord {
    /// The telescoped stage sum; equals [`SpanRecord::total_ns`] by
    /// construction.
    pub fn stage_sum_ns(&self) -> u64 {
        self.queue_ns + self.lookup_ns + self.execute_ns + self.respond_ns
    }

    /// Stage durations in [`SPAN_STAGES`] order.
    pub fn stages_ns(&self) -> [u64; 4] {
        [
            self.queue_ns,
            self.lookup_ns,
            self.execute_ns,
            self.respond_ns,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_bounds_are_doubling_powers_of_two() {
        assert_eq!(TIME_BUCKETS_S.len(), 35);
        assert_eq!(TIME_BUCKETS_S[0], 1.0 / 1048576.0);
        assert_eq!(TIME_BUCKETS_S[20], 1.0);
        assert_eq!(TIME_BUCKETS_S[34], 16384.0);
        for w in TIME_BUCKETS_S.windows(2) {
            assert_eq!(w[1], w[0] * 2.0, "exact doubling");
        }
    }

    #[test]
    fn histogram_counts_are_interleaving_invariant() {
        // the same 4000-sample multiset recorded serially and from four
        // racing threads must produce identical buckets and sums
        let samples: Vec<f64> = (0..4000)
            .map(|i| ((i * 2654435761u64 as usize) % 100_000) as f64 * 1e-5)
            .collect();
        let serial = Histogram::new(&TIME_BUCKETS_S);
        for s in &samples {
            serial.observe(*s);
        }
        let racy = Histogram::new(&TIME_BUCKETS_S);
        thread::scope(|scope| {
            for chunk in samples.chunks(1000) {
                let h = racy.clone();
                scope.spawn(move || {
                    for s in chunk {
                        h.observe(*s);
                    }
                });
            }
        });
        assert_eq!(serial.cumulative(), racy.cumulative());
        assert_eq!(serial.count(), racy.count());
        assert_eq!(serial.sum_seconds(), racy.sum_seconds(), "integer sums");
    }

    #[test]
    fn quantiles_are_within_one_bucket_bound_of_exact() {
        let h = Histogram::new(&TIME_BUCKETS_S);
        let mut samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        for s in &samples {
            h.observe(*s);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.99] {
            let exact = samples[(q * samples.len() as f64).ceil() as usize - 1];
            let est = h.quantile(q);
            assert!(est >= exact, "estimate never below exact: {est} < {exact}");
            assert!(
                est <= exact * 2.0,
                "p{q}: {est} beyond one power-of-two bucket above {exact}"
            );
        }
        assert_eq!(Histogram::new(&TIME_BUCKETS_S).quantile(0.5), 0.0);
    }

    #[test]
    fn observe_duration_sums_exactly() {
        let h = Histogram::new(&TIME_BUCKETS_S);
        for _ in 0..1000 {
            h.observe_duration(Duration::from_nanos(333_333_333));
        }
        // 1000 × 333_333_333 ns = 333.333333 s with zero float error
        assert_eq!(h.sum_seconds(), 333.333333, "integer nanosecond sum");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("reqs", "requests", &[("fw", "giraph")]);
        let b = reg.counter("reqs", "requests", &[("fw", "giraph")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same underlying series");
        let other = reg.counter("reqs", "requests", &[("fw", "galois")]);
        assert_eq!(other.get(), 0, "distinct labels, distinct series");
        let g = reg.gauge("in_flight", "in flight", &[]);
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_mismatch_is_a_programmer_error() {
        let reg = Registry::new();
        reg.counter("x", "x", &[]);
        reg.gauge("x", "x", &[]);
    }

    #[test]
    fn label_strings_are_canonical() {
        assert_eq!(Registry::label_string(&[]), "");
        assert_eq!(
            Registry::label_string(&[("b", "2"), ("a", "1")]),
            r#"{a="1",b="2"}"#,
            "sorted by key"
        );
        assert_eq!(
            Registry::label_string(&[("a", "x\"y\\z\n")]),
            "{a=\"x\\\"y\\\\z\\n\"}",
        );
    }

    #[test]
    fn span_records_telescope() {
        let span = SpanRecord {
            id: "r1".into(),
            label: "bfs/native".into(),
            outcome: "hit",
            start_s: 0.5,
            queue_ns: 10,
            lookup_ns: 20,
            execute_ns: 0,
            respond_ns: 30,
            total_ns: 60,
        };
        assert_eq!(span.stage_sum_ns(), span.total_ns);
        assert_eq!(span.stages_ns(), [10, 20, 0, 30]);
    }
}
