//! # graphmaze-serve
//!
//! The online serving layer (DESIGN.md "Serving layer"): a long-lived
//! daemon that loads workloads **once** into the shared
//! [`WorkloadCache`], accepts concurrent analytics queries — algorithm ×
//! framework × scale × faults — over a line-delimited-JSON TCP protocol
//! ([`protocol`]), executes them through the same [`RunRequest`] API the
//! offline `repro` harness uses, and answers repeats straight from a
//! bounded [`ResultCache`].
//!
//! Because both entry points share one code path
//! (`RunRequest::execute*` → `run_benchmark` with thread-local fault
//! plan and work scale), a query answered online is **bit-identical** —
//! same digest, same 64-bit identity hash — to the same cell measured
//! by `repro`; the round-trip test in `tests/serve_roundtrip.rs` pins
//! this.
//!
//! ## Observability (DESIGN.md "Serving observability")
//!
//! Every `run` request is traced as a **span** of four consecutive
//! stages — `queue_wait` (enqueue → permit), `cache_lookup`, `execute`
//! (zero for cache hits), `respond` (result → flushed to the socket) —
//! whose integer-nanosecond durations telescope to the span total
//! *exactly*. Spans feed per-stage histograms in a process-wide
//! [`Registry`], an optional JSONL access log, and the Chrome-trace
//! exporter. Two protocol verbs expose the state live: `metrics`
//! (Prometheus text exposition over the same line protocol, terminated
//! by `# EOF`) and an enriched `stats` (per-stage percentiles, in-flight
//! and draining gauges, per-cell request counts).
//!
//! The closed-loop load generator lives in [`loadgen`]; [`grid`] builds
//! the default query population it samples from.
#![forbid(unsafe_code)]

pub mod grid;
pub mod loadgen;
pub mod protocol;

use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use graphmaze_core::flatjson::{FlatJsonBuilder, FlatObject};
use graphmaze_core::metrics::{
    expose, Counter, Gauge, Histogram, RebalanceStats, Registry, SpanRecord, SPAN_STAGES,
};
use graphmaze_core::{
    Algorithm, Framework, Provenance, ResultCache, RunRequest, SharedResponse, WorkloadCache,
};

use protocol::{
    decode_run_request, encode_error, encode_run_reply, PROTOCOL_VERSION, SERVABLE_FRAMEWORKS,
};

/// Spans retained in memory for trace export. Beyond this the daemon
/// keeps counting (histograms and the access log never drop) but stops
/// accumulating per-request records, so a long-lived daemon is bounded.
const SPAN_CAPACITY: usize = 65_536;

/// How often a connection thread wakes from a blocking read to check
/// whether the daemon is draining.
const DRAIN_POLL: Duration = Duration::from_millis(100);

/// Longest request line a connection may send. A client that exceeds it
/// (or never sends a newline) gets one error reply and is disconnected,
/// so the per-connection buffer stays bounded.
const MAX_LINE_BYTES: usize = 64 << 10;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Maximum queries *executing* concurrently. Connections beyond this
    /// queue on an internal semaphore — cache hits still have to take a
    /// permit, keeping admission order fair.
    pub jobs: usize,
    /// Result-cache capacity in entries (0 disables caching: every
    /// query recomputes).
    pub cache_capacity: usize,
    /// Optionally pre-populate the result cache from an offline sweep
    /// journal (`results/journal.jsonl`) so the daemon starts warm.
    pub warm_journal: Option<PathBuf>,
    /// Per-request JSONL access log (`--access-log PATH`; `None`
    /// disables). One line per completed `run` span, flushed on drain.
    pub access_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            cache_capacity: 1024,
            warm_journal: None,
            access_log: None,
        }
    }
}

/// A counting semaphore bounding concurrently-executing queries.
/// `std::sync` has no semaphore; a `Mutex<usize>` + `Condvar` pair is
/// the canonical construction.
struct Semaphore {
    free: Mutex<usize>,
    available: Condvar,
}

struct Permit<'a>(&'a Semaphore);

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            free: Mutex::new(permits),
            available: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut free = self.free.lock().unwrap();
        while *free == 0 {
            free = self.available.wait(free).unwrap();
        }
        *free -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.free.lock().unwrap() += 1;
        self.0.available.notify_one();
    }
}

/// The fixed instrument handles of the serving path, registered once at
/// startup so the hot path records through pre-resolved atomics instead
/// of taking the registry lock per request.
struct ServeMetrics {
    requests: Counter,
    in_flight: Gauge,
    draining: Gauge,
    /// One histogram per [`SPAN_STAGES`] entry, same order.
    stages: [Histogram; 4],
    total: Histogram,
}

impl ServeMetrics {
    fn new(registry: &Registry) -> Self {
        let stage = |name: &'static str| {
            registry.histogram(
                "graphmaze_serve_stage_seconds",
                "request span stage durations",
                &[("stage", name)],
            )
        };
        ServeMetrics {
            requests: registry.counter(
                "graphmaze_serve_requests_total",
                "run requests accepted",
                &[],
            ),
            in_flight: registry.gauge(
                "graphmaze_serve_in_flight",
                "run requests currently between enqueue and response",
                &[],
            ),
            draining: registry.gauge(
                "graphmaze_serve_draining",
                "1 while the daemon is refusing new connections and finishing in-flight work",
                &[],
            ),
            stages: [
                stage(SPAN_STAGES[0]),
                stage(SPAN_STAGES[1]),
                stage(SPAN_STAGES[2]),
                stage(SPAN_STAGES[3]),
            ],
            total: registry.histogram(
                "graphmaze_serve_request_seconds",
                "end-to-end request span durations",
                &[],
            ),
        }
    }
}

/// How a request ended, as the outcome counter and the span name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Hit,
    Miss,
    Failed,
    Timeout,
    Error,
}

impl Outcome {
    const COUNT: usize = 5;

    fn name(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Failed => "failed",
            Outcome::Timeout => "timeout",
            Outcome::Error => "error",
        }
    }
}

/// The telemetry of one (algorithm, framework) cell. Its series are
/// resolved from the registry the first time the cell is requested, not
/// up front: creating them early would add zero-valued series to the
/// exposition.
struct CellTelemetry {
    algorithm: &'static str,
    framework: &'static str,
    /// The span label, `algorithm/framework`.
    label: Arc<str>,
    requests: OnceLock<Counter>,
    sim_seconds: OnceLock<Histogram>,
}

impl CellTelemetry {
    /// One entry per servable (algorithm, framework) pair, indexed by
    /// [`CellTelemetry::index`].
    fn table() -> Vec<CellTelemetry> {
        Algorithm::EXTENDED
            .iter()
            .flat_map(|a| {
                SERVABLE_FRAMEWORKS.iter().map(|f| CellTelemetry {
                    algorithm: a.name(),
                    framework: f.name(),
                    label: format!("{}/{}", a.name(), f.name()).into(),
                    requests: OnceLock::new(),
                    sim_seconds: OnceLock::new(),
                })
            })
            .collect()
    }

    /// The table slot of a decoded request's cell (the protocol only
    /// decodes servable algorithms and frameworks).
    fn index(algorithm: Algorithm, framework: Framework) -> usize {
        let a = Algorithm::EXTENDED.iter().position(|&x| x == algorithm);
        let f = SERVABLE_FRAMEWORKS.iter().position(|&x| x == framework);
        match (a, f) {
            (Some(a), Some(f)) => a * SERVABLE_FRAMEWORKS.len() + f,
            _ => unreachable!("the protocol decodes servable cells only"),
        }
    }

    fn labels(&self) -> [(&'static str, &'static str); 2] {
        [("algorithm", self.algorithm), ("framework", self.framework)]
    }

    fn requests(&self, registry: &Registry) -> &Counter {
        self.requests.get_or_init(|| {
            registry.counter(
                "graphmaze_serve_cell_requests_total",
                "run requests by cell coordinates",
                &self.labels(),
            )
        })
    }

    fn sim_seconds(&self, registry: &Registry) -> &Histogram {
        self.sim_seconds.get_or_init(|| {
            registry.histogram(
                "graphmaze_serve_sim_seconds",
                "simulated seconds per successful request (jobs-invariant)",
                &self.labels(),
            )
        })
    }
}

/// A span whose first three stages are measured but whose `respond`
/// stage is still open: the response line exists but has not been
/// written to the socket yet. [`ServeState::finish_span`] closes it
/// after the flush, so socket time lands in the `respond` histogram.
pub struct PendingSpan {
    id: String,
    /// Slot of the request's cell in the daemon's telemetry table.
    cell: usize,
    outcome: Outcome,
    sim_seconds: Option<f64>,
    /// Elasticity stats of the run, when its fault plan had membership
    /// or hardware events (`None` for static runs and failures).
    rebalance: Option<RebalanceStats>,
    start_s: f64,
    queue_ns: u64,
    lookup_ns: u64,
    execute_ns: u64,
    /// When the execute stage closed; `respond` runs from here.
    executed_at: Instant,
}

/// Shared daemon state: the two caches, the execution semaphore, the
/// telemetry registry and the request counters. Lives behind an `Arc`
/// so connection threads and embedding tests share one instance.
pub struct ServeState {
    /// Workloads, built once per daemon lifetime and shared by every
    /// query (the whole point of serving vs. one-shot CLI runs).
    pub workloads: WorkloadCache,
    /// Completed results keyed by [`RunRequest::key`].
    pub results: ResultCache,
    permits: Semaphore,
    jobs: usize,
    requests: AtomicU64,
    shutdown: AtomicBool,
    addr: Mutex<Option<SocketAddr>>,
    started: Instant,
    telemetry: Arc<Registry>,
    metrics: ServeMetrics,
    /// Per-cell series, see [`CellTelemetry`].
    cells: Vec<CellTelemetry>,
    /// The outcome counters, indexed by [`Outcome`] and resolved on
    /// first use like the per-cell series.
    outcomes: [OnceLock<Counter>; Outcome::COUNT],
    spans: Mutex<Vec<SpanRecord>>,
    spans_dropped: AtomicU64,
    /// Connection threads the accept loop has spawned but not joined.
    connection_threads: AtomicUsize,
    access_log: Mutex<Option<BufWriter<std::fs::File>>>,
}

impl ServeState {
    fn new(cfg: &ServeConfig) -> Self {
        let results = ResultCache::new(cfg.cache_capacity);
        if let Some(journal) = &cfg.warm_journal {
            results.warm_from_journal(journal);
        }
        let access_log = cfg.access_log.as_ref().and_then(|path| {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::File::create(path) {
                Ok(f) => Some(BufWriter::new(f)),
                Err(e) => {
                    eprintln!("warning: cannot open access log {}: {e}", path.display());
                    None
                }
            }
        });
        let telemetry = Arc::new(Registry::new());
        let metrics = ServeMetrics::new(&telemetry);
        ServeState {
            workloads: WorkloadCache::new(),
            results,
            permits: Semaphore::new(cfg.jobs.max(1)),
            jobs: cfg.jobs.max(1),
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            addr: Mutex::new(None),
            started: Instant::now(),
            telemetry,
            metrics,
            cells: CellTelemetry::table(),
            outcomes: Default::default(),
            spans: Mutex::new(Vec::new()),
            spans_dropped: AtomicU64::new(0),
            connection_threads: AtomicUsize::new(0),
            access_log: Mutex::new(access_log),
        }
    }

    /// Total `run` requests accepted so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Whether a `shutdown` request has been processed.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Connection threads the accept loop holds: live ones, plus any that
    /// finished since the last accept (each accept joins those).
    pub fn connection_threads(&self) -> usize {
        self.connection_threads.load(Ordering::Relaxed)
    }

    /// The daemon's telemetry registry, for embedding and scraping.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Snapshot of the retained request spans (bounded by an internal
    /// capacity; histograms and the access log are never bounded).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap().clone()
    }

    /// Executes one [`RunRequest`] under the daemon's caches and
    /// concurrency limit — the programmatic equivalent of sending a
    /// `run` line over the wire.
    pub fn execute(&self, req: &RunRequest) -> graphmaze_core::RunResponse {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.inc();
        let _permit = self.permits.acquire();
        req.execute_cached(&self.workloads, &self.results)
    }

    /// Handles one request line, returning `(response_line, stop)`;
    /// `stop` is set by a `shutdown` request after its `bye` goes out.
    /// Exposed so tests can drive the protocol without a socket. The
    /// span closes before the line is returned, so its `respond` stage
    /// only covers response encoding — the socket loop uses
    /// [`ServeState::handle_line_spanned`] to charge the actual write.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let (reply, stop, pending) = self.handle_line_spanned(line);
        if let Some(span) = pending {
            self.finish_span(span);
        }
        (reply, stop)
    }

    /// [`ServeState::handle_line`] with the span left open: the caller
    /// must pass the returned [`PendingSpan`] to
    /// [`ServeState::finish_span`] *after* flushing the reply, so the
    /// `respond` stage includes the socket write.
    pub fn handle_line_spanned(&self, line: &str) -> (String, bool, Option<PendingSpan>) {
        let Some(m) = FlatObject::parse(line) else {
            return (
                encode_error(
                    "",
                    "malformed request (expected one flat JSON object per line)",
                ),
                false,
                None,
            );
        };
        let id = m.get("id").unwrap_or_default();
        match m.get("op") {
            Some("run") => match decode_run_request(&m) {
                Ok(req) => {
                    let (resp, span) = self.execute_spanned(id, &req);
                    let reply = encode_run_reply(
                        id,
                        resp.key,
                        resp.provenance,
                        &resp.outcome,
                        resp.wall_secs,
                    );
                    (reply, false, Some(span))
                }
                Err(e) => {
                    self.count_outcome(Outcome::Error);
                    (encode_error(id, &e), false, None)
                }
            },
            Some("stats") => (self.encode_stats(id), false, None),
            Some("metrics") => (self.render_metrics(), false, None),
            Some("ping") => (
                FlatJsonBuilder::new()
                    .u64("proto", u64::from(PROTOCOL_VERSION))
                    .str("id", id)
                    .str("status", "pong")
                    .finish(),
                false,
                None,
            ),
            Some("shutdown") => (
                FlatJsonBuilder::new()
                    .u64("proto", u64::from(PROTOCOL_VERSION))
                    .str("id", id)
                    .str("status", "bye")
                    .finish(),
                true,
                None,
            ),
            Some(other) => (
                encode_error(id, &format!("unknown op `{other}`")),
                false,
                None,
            ),
            None => (encode_error(id, "missing required field `op`"), false, None),
        }
    }

    /// Runs one request with its span's first three stages measured.
    ///
    /// Stage accounting is exact by construction: `queue_wait` is the
    /// permit wait, and the permit→result interval is split so the
    /// stages telescope — on a hit the whole interval *is* the cache
    /// lookup (`execute == 0` by definition); on a miss the lookup
    /// duration comes from the core measurement and `execute` absorbs
    /// the remainder (engine time plus admission).
    fn execute_spanned(&self, id: &str, req: &RunRequest) -> (SharedResponse, PendingSpan) {
        let t0 = Instant::now();
        let start_s = t0.duration_since(self.started).as_secs_f64();
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.inc();
        self.metrics.in_flight.inc();
        let cell = CellTelemetry::index(req.cell.algorithm, req.cell.framework);
        self.cells[cell].requests(&self.telemetry).inc();
        let permit = self.permits.acquire();
        let t1 = Instant::now();
        let resp = req.execute_shared(&self.workloads, &self.results);
        drop(permit);
        let executed_at = Instant::now();
        let permit_to_result = executed_at.duration_since(t1).as_nanos() as u64;
        let (lookup_ns, execute_ns) = if resp.provenance == Provenance::Cached {
            (permit_to_result, 0)
        } else {
            let lookup = (resp.cache_lookup.as_nanos() as u64).min(permit_to_result);
            (lookup, permit_to_result - lookup)
        };
        let ran = resp.outcome.as_ref().as_ref();
        let outcome = match (&resp.provenance, ran) {
            (Provenance::Cached, _) => Outcome::Hit,
            (Provenance::Computed, Ok(_)) => Outcome::Miss,
            (Provenance::Computed, Err(e)) if e.kind() == "timeout" => Outcome::Timeout,
            (Provenance::Computed, Err(_)) => Outcome::Failed,
        };
        let sim_seconds = ran.ok().map(|o| o.report.sim_seconds);
        let rebalance = ran
            .ok()
            .map(|o| o.report.rebalance)
            .filter(|reb| !reb.is_zero());
        let span = PendingSpan {
            id: id.to_string(),
            cell,
            outcome,
            sim_seconds,
            rebalance,
            start_s,
            queue_ns: t1.duration_since(t0).as_nanos() as u64,
            lookup_ns,
            execute_ns,
            executed_at,
        };
        (resp, span)
    }

    /// Closes a span: measures the `respond` stage, records every stage
    /// histogram, the outcome counter and the jobs-invariant simulated
    /// seconds, appends the access-log line, and retains the record for
    /// trace export.
    pub fn finish_span(&self, span: PendingSpan) {
        let respond_ns = span.executed_at.elapsed().as_nanos() as u64;
        let cell = &self.cells[span.cell];
        let record = SpanRecord {
            id: span.id,
            label: Arc::clone(&cell.label),
            outcome: span.outcome.name(),
            start_s: span.start_s,
            queue_ns: span.queue_ns,
            lookup_ns: span.lookup_ns,
            execute_ns: span.execute_ns,
            respond_ns,
            total_ns: span.queue_ns + span.lookup_ns + span.execute_ns + respond_ns,
        };
        for (hist, ns) in self.metrics.stages.iter().zip(record.stages_ns()) {
            hist.observe_duration(Duration::from_nanos(ns));
        }
        self.metrics
            .total
            .observe_duration(Duration::from_nanos(record.total_ns));
        self.count_outcome(span.outcome);
        if let Some(sim) = span.sim_seconds {
            // simulated time is a pure function of the request (hits
            // return the bit-exact cached outcome), so this histogram is
            // identical across daemon --jobs settings — the determinism
            // anchor the CI smoke compares
            cell.sim_seconds(&self.telemetry).observe(sim);
        }
        if let Some(reb) = &span.rebalance {
            // elasticity, live: the latest elastic run's final cluster
            // width and the cumulative bytes its rebalances migrated
            self.telemetry
                .gauge(
                    "graphmaze_cluster_nodes",
                    "physical nodes active at the end of the latest elastic run",
                    &[],
                )
                .set(i64::from(reb.final_nodes));
            self.telemetry
                .counter(
                    "graphmaze_rebalance_bytes_total",
                    "partition state migrated by elastic rebalances, bytes",
                    &[],
                )
                .add(reb.migrated_bytes);
        }
        self.metrics.in_flight.dec();
        if let Some(log) = self.access_log.lock().unwrap().as_mut() {
            let _ = writeln!(log, "{}", access_log_line(&record));
        }
        let mut spans = self.spans.lock().unwrap();
        if spans.len() < SPAN_CAPACITY {
            spans.push(record);
        } else {
            self.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn count_outcome(&self, outcome: Outcome) {
        self.outcomes[outcome as usize]
            .get_or_init(|| {
                self.telemetry.counter(
                    "graphmaze_serve_outcomes_total",
                    "completed requests by outcome",
                    &[("outcome", outcome.name())],
                )
            })
            .inc();
    }

    /// Renders the live Prometheus exposition, mirroring the cache and
    /// workload counters in first (collect-on-scrape). The payload is
    /// multi-line; the final line is `# EOF` so line-oriented clients
    /// know where it ends.
    pub fn render_metrics(&self) -> String {
        self.results.export_into(&self.telemetry);
        self.telemetry
            .counter(
                "graphmaze_workloads_built_total",
                "workloads constructed by the shared cache",
                &[],
            )
            .store(self.workloads.misses());
        self.telemetry
            .counter(
                "graphmaze_workloads_reused_total",
                "workload cache hits",
                &[],
            )
            .store(self.workloads.hits());
        self.telemetry
            .counter(
                "graphmaze_serve_spans_dropped_total",
                "span records dropped after the retention cap",
                &[],
            )
            .store(self.spans_dropped.load(Ordering::Relaxed));
        let text = expose::render(&self.telemetry);
        text.trim_end().to_string()
    }

    fn encode_stats(&self, id: &str) -> String {
        let cache = self.results.stats();
        let mut b = FlatJsonBuilder::new();
        b.u64("proto", u64::from(PROTOCOL_VERSION))
            .str("id", id)
            .str("status", "stats")
            .u64("requests", self.requests())
            .u64("jobs", self.jobs as u64)
            .u64("in_flight", self.metrics.in_flight.get().max(0) as u64)
            .u64("draining", self.metrics.draining.get().max(0) as u64)
            .u64("cache_hits", cache.hits)
            .u64("cache_misses", cache.misses)
            .u64("cache_admissions", cache.admissions)
            .u64("cache_rejections", cache.rejections)
            .u64("cache_evictions", cache.evictions)
            .u64("cache_len", cache.len)
            .u64("cache_capacity", self.results.capacity() as u64)
            .f64("cache_hit_rate", cache.hit_rate())
            .u64("workloads_built", self.workloads.misses())
            .u64("workloads_reused", self.workloads.hits())
            .f64("uptime_secs", self.started.elapsed().as_secs_f64());
        // per-stage and end-to-end latency percentiles (histogram
        // bucket upper bounds — within one power-of-two of exact)
        for (name, hist) in SPAN_STAGES
            .iter()
            .zip(&self.metrics.stages)
            .chain(std::iter::once((&"total", &self.metrics.total)))
        {
            for (tag, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                b.f64(&format!("{name}_{tag}_ms"), hist.quantile(q) * 1e3);
            }
        }
        b.f64("permit_wait_total_s", self.metrics.stages[0].sum_seconds());
        // per-(algorithm, framework) request counts — and the elasticity
        // series, once an elastic run has been served — read back from
        // the registry's own exposition so stats and metrics cannot
        // diverge
        if let Ok(samples) = expose::parse(&expose::render(&self.telemetry)) {
            for s in &samples {
                match s.name.as_str() {
                    "graphmaze_serve_cell_requests_total" => {
                        if let (Some(alg), Some(fw)) = (s.label("algorithm"), s.label("framework"))
                        {
                            b.u64(&format!("count_{alg}_{fw}"), s.value as u64);
                        }
                    }
                    "graphmaze_cluster_nodes" => {
                        b.u64("cluster_nodes", s.value as u64);
                    }
                    "graphmaze_rebalance_bytes_total" => {
                        b.u64("rebalance_bytes", s.value as u64);
                    }
                    _ => {}
                }
            }
        }
        b.finish()
    }

    /// Flags shutdown (and the `draining` gauge) and pokes the accept
    /// loop awake with a throwaway connection so [`Server::run`] returns
    /// promptly. Connection threads notice the flag within one
    /// [`DRAIN_POLL`] and close once their buffered requests are served.
    fn begin_shutdown(&self) {
        self.metrics.draining.set(1);
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(addr) = *self.addr.lock().unwrap() {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Flushes the access log (drain step; also safe to call anytime).
    pub fn flush_access_log(&self) {
        if let Some(log) = self.access_log.lock().unwrap().as_mut() {
            let _ = log.flush();
        }
    }
}

/// One access-log JSONL line for a completed span.
fn access_log_line(r: &SpanRecord) -> String {
    FlatJsonBuilder::new()
        .f64("ts_s", r.start_s)
        .str("id", &r.id)
        .str("cell", &r.label)
        .str("outcome", r.outcome)
        .u64("queue_ns", r.queue_ns)
        .u64("cache_lookup_ns", r.lookup_ns)
        .u64("execute_ns", r.execute_ns)
        .u64("respond_ns", r.respond_ns)
        .u64("total_ns", r.total_ns)
        .finish()
}

/// The serving daemon: a bound listener plus its [`ServeState`].
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds the listen socket and builds the daemon state (including
    /// journal warm-up). Does not accept yet — call [`Server::run`].
    pub fn bind(cfg: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let state = Arc::new(ServeState::new(cfg));
        *state.addr.lock().unwrap() = Some(listener.local_addr()?);
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared daemon state, for embedding (tests, in-process use).
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Accepts connections until a `shutdown` request arrives, one
    /// thread per connection (execution parallelism is bounded by the
    /// permit semaphore, not the connection count). Shutdown is a
    /// graceful drain: the accept loop stops, every connection thread
    /// finishes the requests it has already read and then closes, and
    /// the access log is flushed before this returns.
    pub fn run(&self) -> io::Result<()> {
        let mut handles = Vec::new();
        for conn in self.listener.incoming() {
            if self.state.shutting_down() {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                // transient accept errors (e.g. ECONNABORTED) are not fatal
                Err(_) => continue,
            };
            // an unjoined thread keeps its stack: join the finished ones
            // so a daemon taking many short connections stays bounded
            for done in handles.extract_if(.., |h: &mut thread::JoinHandle<()>| h.is_finished()) {
                let _ = done.join();
            }
            let state = Arc::clone(&self.state);
            handles.push(thread::spawn(move || handle_connection(stream, &state)));
            self.state
                .connection_threads
                .store(handles.len(), Ordering::Relaxed);
        }
        for h in handles {
            let _ = h.join();
        }
        self.state.connection_threads.store(0, Ordering::Relaxed);
        self.state.flush_access_log();
        Ok(())
    }
}

/// Serves one connection. Reads are chunked with a short timeout
/// instead of blocking forever so an idle keep-alive connection cannot
/// stall a drain: once the daemon is draining, a connection with no
/// buffered input closes, while buffered requests are still answered.
fn handle_connection(stream: TcpStream, state: &ServeState) {
    let _ = stream.set_read_timeout(Some(DRAIN_POLL));
    let Ok(mut read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = BufWriter::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        loop {
            let newline = buf.iter().position(|&b| b == b'\n');
            if newline.unwrap_or(buf.len()) > MAX_LINE_BYTES {
                let reply =
                    encode_error("", &format!("request line exceeds {MAX_LINE_BYTES} bytes"));
                let _ = writeln!(writer, "{reply}").and_then(|()| writer.flush());
                return;
            }
            let Some(pos) = newline else { break };
            let raw: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&raw[..raw.len() - 1]);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (reply, stop, pending) = state.handle_line_spanned(line);
            let sent = writeln!(writer, "{reply}").and_then(|()| writer.flush());
            // the span closes after the flush so the respond stage
            // charges the real socket write
            if let Some(span) = pending {
                state.finish_span(span);
            }
            if sent.is_err() {
                return;
            }
            if stop {
                state.begin_shutdown();
                return;
            }
        }
        match read_half.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if state.shutting_down() {
                    return; // draining and nothing buffered: close
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmaze_core::flatjson::parse_flat_json;

    fn quiet_state() -> ServeState {
        ServeState::new(&ServeConfig {
            cache_capacity: 8,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn ping_stats_and_errors_over_handle_line() {
        let state = quiet_state();
        let (pong, stop) = state.handle_line(r#"{"op":"ping","id":"a"}"#);
        assert!(pong.contains(r#""status":"pong""#) && pong.contains(r#""id":"a""#));
        assert!(!stop);
        let (stats, _) = state.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains(r#""status":"stats""#));
        assert!(stats.contains(r#""cache_capacity":8"#));
        assert!(stats.contains(r#""in_flight":0"#));
        assert!(stats.contains(r#""draining":0"#));
        assert!(stats.contains("queue_wait_p50_ms"));
        let (err, _) = state.handle_line("not json");
        assert!(err.contains(r#""status":"error""#));
        let (err, _) = state.handle_line(r#"{"op":"teleport"}"#);
        assert!(err.contains("unknown op `teleport`"));
        let (bye, stop) = state.handle_line(r#"{"op":"shutdown"}"#);
        assert!(bye.contains(r#""status":"bye""#));
        assert!(stop);
    }

    #[test]
    fn run_line_executes_and_second_query_hits_cache() {
        let state = quiet_state();
        let line = r#"{"op":"run","id":"q","algorithm":"pagerank","spec":"rmat/s7/e4/x1"}"#;
        let (first, _) = state.handle_line(line);
        assert!(first.contains(r#""status":"done""#), "{first}");
        assert!(first.contains(r#""cache":"miss""#), "{first}");
        let (second, _) = state.handle_line(line);
        assert!(second.contains(r#""cache":"hit""#), "{second}");
        assert_eq!(state.requests(), 2);
        assert_eq!(state.results.stats().hits, 1);
        // identical identity hash and digest on both paths
        let key = |s: &str| {
            let m = parse_flat_json(s).unwrap();
            (m["key"].clone(), m["digest"].clone())
        };
        assert_eq!(key(&first), key(&second));
    }

    #[test]
    fn bfs_source_outside_the_graph_is_an_invalid_cell_not_a_panic() {
        let state = quiet_state();
        // rmat/s7 has 128 vertices
        let line =
            r#"{"op":"run","id":"b","algorithm":"bfs","spec":"rmat/s7/e4/x1","bfs_source":128}"#;
        let (first, _) = state.handle_line(line);
        let m = parse_flat_json(&first).unwrap();
        assert_eq!(m["status"], "failed", "{first}");
        assert_eq!(m["error_kind"], "invalid", "{first}");
        assert!(m["error"].contains("bfs_source 128"), "{first}");
        // deterministic, so the failure is a cacheable answer
        let (second, _) = state.handle_line(line);
        assert!(second.contains(r#""cache":"hit""#), "{second}");
    }

    #[test]
    fn elastic_runs_surface_cluster_metrics_live() {
        let state = quiet_state();
        // grow to 3 nodes, then node 1 departs: its partition must
        // migrate onto the joiner, so the byte counter moves too
        let line = r#"{"op":"run","id":"e1","algorithm":"pagerank","spec":"rmat/s7/e4/x1","nodes":2,"faults":"seed=1,join=2@1,leave=1@3"}"#;
        let (resp, _) = state.handle_line(line);
        assert!(resp.contains(r#""status":"done""#), "{resp}");
        let (text, _) = state.handle_line(r#"{"op":"metrics"}"#);
        let samples = expose::parse(&text).expect("exposition parses");
        assert_eq!(
            expose::sample_value(&samples, "graphmaze_cluster_nodes", &[]),
            Some(2.0),
            "grew to 3, shrank back to 2 physical nodes"
        );
        let migrated =
            expose::sample_value(&samples, "graphmaze_rebalance_bytes_total", &[]).unwrap();
        assert!(migrated > 0.0, "rebalance moved state: {migrated}");
        let (stats, _) = state.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains(r#""cluster_nodes":2"#), "{stats}");
        assert!(stats.contains(r#""rebalance_bytes":"#), "{stats}");
        // a static run leaves the elasticity series untouched
        let (stats_before, _) = {
            let fresh = quiet_state();
            fresh.handle_line(
                r#"{"op":"run","id":"s1","algorithm":"pagerank","spec":"rmat/s7/e4/x1"}"#,
            );
            fresh.handle_line(r#"{"op":"stats"}"#)
        };
        assert!(!stats_before.contains("cluster_nodes"), "{stats_before}");
    }

    #[test]
    fn semaphore_bounds_and_releases() {
        let sem = Semaphore::new(2);
        let a = sem.acquire();
        let _b = sem.acquire();
        assert_eq!(*sem.free.lock().unwrap(), 0);
        drop(a);
        assert_eq!(*sem.free.lock().unwrap(), 1);
        let _c = sem.acquire();
        assert_eq!(*sem.free.lock().unwrap(), 0);
    }

    #[test]
    fn spans_reconcile_and_feed_the_registry() {
        let state = quiet_state();
        let line = r#"{"op":"run","id":"s1","algorithm":"bfs","spec":"rmat/s7/e4/x2"}"#;
        state.handle_line(line);
        state.handle_line(line);
        let spans = state.spans();
        assert_eq!(spans.len(), 2);
        for span in &spans {
            assert_eq!(span.stage_sum_ns(), span.total_ns, "exact telescoping");
        }
        assert_eq!(spans[0].outcome, "miss");
        assert_eq!(spans[1].outcome, "hit");
        assert_eq!(spans[1].execute_ns, 0, "nothing runs on a hit");
        // the metrics verb exposes matching counters, EOF-terminated
        let (text, stop) = state.handle_line(r#"{"op":"metrics"}"#);
        assert!(!stop);
        assert!(text.ends_with(expose::EXPOSITION_EOF));
        let samples = expose::parse(&text).expect("exposition parses");
        let value =
            |name: &str, labels: &[(&str, &str)]| expose::sample_value(&samples, name, labels);
        assert_eq!(value("graphmaze_serve_requests_total", &[]), Some(2.0));
        assert_eq!(
            value(
                "graphmaze_serve_cell_requests_total",
                &[("algorithm", "bfs"), ("framework", "native")]
            ),
            Some(2.0)
        );
        assert_eq!(
            value("graphmaze_serve_outcomes_total", &[("outcome", "hit")]),
            Some(1.0)
        );
        assert_eq!(
            value("graphmaze_serve_outcomes_total", &[("outcome", "miss")]),
            Some(1.0)
        );
        assert_eq!(value("graphmaze_serve_in_flight", &[]), Some(0.0));
        assert_eq!(
            value(
                "graphmaze_serve_stage_seconds_count",
                &[("stage", "execute")]
            ),
            Some(2.0)
        );
        assert_eq!(
            value("graphmaze_serve_request_seconds_count", &[]),
            Some(2.0)
        );
        assert_eq!(
            value(
                "graphmaze_serve_sim_seconds_count",
                &[("algorithm", "bfs"), ("framework", "native")]
            ),
            Some(2.0),
            "hits observe the same simulated time as the miss"
        );
        assert_eq!(value("graphmaze_cache_hits_total", &[]), Some(1.0));
        // stats mirrors the same per-cell count
        let (stats, _) = state.handle_line(r#"{"op":"stats"}"#);
        assert!(stats.contains(r#""count_bfs_native":2"#), "{stats}");
    }
}
