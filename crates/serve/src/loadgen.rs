//! Closed-loop load generator for the serving daemon.
//!
//! `concurrency` workers each hold one TCP connection and issue
//! requests back-to-back (closed loop), sampling queries from a fixed
//! population under a Zipf(s) distribution — rank 0 is hottest — so
//! repeated queries exercise the daemon's result cache the way a real
//! skewed workload would. Sampling is keyed by the *global request
//! index*, so the query multiset of a fixed-seed burst is identical
//! whatever the concurrency or daemon scheduling. An optional open-loop
//! pacing cap (`rate` requests/second across all workers) throttles
//! issue times to a deterministic schedule.
//!
//! The report carries every per-request latency (sorted, milliseconds)
//! plus hit/miss counts parsed from the response lines, and renders the
//! summary CSV the CI smoke job asserts on: p50/p99 latency,
//! throughput, cache hit rate.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use graphmaze_core::flatjson::parse_flat_json;
use graphmaze_core::graph::rng;
use graphmaze_core::RunRequest;

use crate::protocol::{encode_run_request, is_cache_hit};

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Daemon address to connect to.
    pub addr: String,
    /// Total requests to issue across all workers.
    pub requests: usize,
    /// Concurrent closed-loop workers (one connection each).
    pub concurrency: usize,
    /// Zipf skew exponent `s` (weight of rank `r` ∝ 1/(r+1)^s). 0 is
    /// uniform; 1 is the classic web-workload skew.
    pub zipf_s: f64,
    /// Optional aggregate arrival-rate cap, requests/second (`None`
    /// issues as fast as the closed loop allows).
    pub rate: Option<f64>,
    /// RNG seed for query sampling.
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:4891".to_string(),
            requests: 100,
            concurrency: 4,
            zipf_s: 1.0,
            rate: None,
            seed: 1,
        }
    }
}

/// A SplitMix64 stream — seedable, and good enough for query sampling.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        let z = rng::splitmix64(self.0);
        self.0 = self.0.wrapping_add(rng::GOLDEN);
        z
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Precomputed Zipf(s) sampler over ranks `0..n`: inverse-CDF lookup on
/// the cumulative weights (O(log n) per sample).
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over `n` ranks with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs a non-empty population");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cumulative.push(total);
        }
        // normalise so binary search on a [0,1) draw lands in range
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Samples a rank in `0..n`.
    pub fn sample(&self, rng: &mut impl FnMut() -> f64) -> usize {
        let u = rng();
        self.cumulative.partition_point(|&c| c <= u)
    }
}

/// Daemon-side latency summary scraped from the enriched `stats` verb
/// after the burst, so client-vs-server skew is visible in one file.
/// All latencies are histogram-bucket upper bounds in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    pub queue_p50_ms: f64,
    pub queue_p99_ms: f64,
    pub lookup_p50_ms: f64,
    pub lookup_p99_ms: f64,
    pub execute_p50_ms: f64,
    pub execute_p99_ms: f64,
    pub respond_p50_ms: f64,
    pub respond_p99_ms: f64,
    pub total_p50_ms: f64,
    pub total_p99_ms: f64,
    /// The daemon's own cache hit rate over its whole lifetime (may
    /// exceed the client-observed rate if the cache started warm).
    pub hit_rate: f64,
}

/// What one loadgen run observed.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Requests answered with `done`/`failed` (a cell-level failure is
    /// still a served answer).
    pub completed: usize,
    /// Requests that got a protocol error or lost their connection.
    pub failures: usize,
    /// Responses marked `"cache":"hit"`.
    pub hits: usize,
    /// Responses marked `"cache":"miss"`.
    pub misses: usize,
    /// Wall-clock of the whole run, seconds.
    pub wall_secs: f64,
    /// Per-request latencies, milliseconds, sorted ascending.
    pub latencies_ms: Vec<f64>,
    /// Daemon-reported latency summary (`None` if the post-burst
    /// `stats` scrape failed).
    pub server: Option<ServerStats>,
}

impl LoadgenReport {
    /// Nearest-rank percentile latency, `p` in `[0, 100]`; 0 when no
    /// request completed.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.latencies_ms.len() as f64).ceil() as usize;
        self.latencies_ms[rank.clamp(1, self.latencies_ms.len()) - 1]
    }

    /// Completed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.completed as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Fraction of served answers that came from the result cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total > 0 {
            self.hits as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Renders the summary CSV (header + one data row) the CI smoke job
    /// parses. Client-side columns come first; the `srv_*` columns are
    /// the daemon's own numbers for the same burst (`nan` if the
    /// post-burst `stats` scrape failed), so client-vs-server latency
    /// skew is visible in one file.
    pub fn to_csv(&self, cfg: &LoadgenConfig) -> String {
        let s = self.server.unwrap_or(ServerStats {
            queue_p50_ms: f64::NAN,
            queue_p99_ms: f64::NAN,
            lookup_p50_ms: f64::NAN,
            lookup_p99_ms: f64::NAN,
            execute_p50_ms: f64::NAN,
            execute_p99_ms: f64::NAN,
            respond_p50_ms: f64::NAN,
            respond_p99_ms: f64::NAN,
            total_p50_ms: f64::NAN,
            total_p99_ms: f64::NAN,
            hit_rate: f64::NAN,
        });
        format!(
            "requests,concurrency,zipf_s,rate_rps,wall_secs,throughput_rps,\
             p50_ms,p99_ms,cache_hits,cache_misses,hit_rate,failures,\
             srv_queue_p50_ms,srv_queue_p99_ms,srv_lookup_p50_ms,srv_lookup_p99_ms,\
             srv_execute_p50_ms,srv_execute_p99_ms,srv_respond_p50_ms,srv_respond_p99_ms,\
             srv_total_p50_ms,srv_total_p99_ms,srv_hit_rate\n\
             {},{},{},{},{:.6},{:.3},{:.3},{:.3},{},{},{:.4},{},\
             {:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.4}\n",
            self.completed + self.failures,
            cfg.concurrency,
            cfg.zipf_s,
            cfg.rate
                .map_or_else(|| "unlimited".into(), |r| r.to_string()),
            self.wall_secs,
            self.throughput_rps(),
            self.percentile_ms(50.0),
            self.percentile_ms(99.0),
            self.hits,
            self.misses,
            self.hit_rate(),
            self.failures,
            s.queue_p50_ms,
            s.queue_p99_ms,
            s.lookup_p50_ms,
            s.lookup_p99_ms,
            s.execute_p50_ms,
            s.execute_p99_ms,
            s.respond_p50_ms,
            s.respond_p99_ms,
            s.total_p50_ms,
            s.total_p99_ms,
            s.hit_rate,
        )
    }
}

/// Scrapes the daemon's enriched `stats` into a [`ServerStats`].
/// Returns `None` on any connection or parse failure — the loadgen
/// report is still useful without the server side.
pub fn scrape_server_stats(addr: &str) -> Option<ServerStats> {
    let stream = TcpStream::connect(addr).ok()?;
    let read_half = stream.try_clone().ok()?;
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    writeln!(writer, r#"{{"op":"stats","id":"loadgen"}}"#).ok()?;
    writer.flush().ok()?;
    let mut reply = String::new();
    reader.read_line(&mut reply).ok()?;
    let m = parse_flat_json(reply.trim_end())?;
    let num = |key: &str| m.get(key).and_then(|v| v.parse::<f64>().ok());
    Some(ServerStats {
        queue_p50_ms: num("queue_wait_p50_ms")?,
        queue_p99_ms: num("queue_wait_p99_ms")?,
        lookup_p50_ms: num("cache_lookup_p50_ms")?,
        lookup_p99_ms: num("cache_lookup_p99_ms")?,
        execute_p50_ms: num("execute_p50_ms")?,
        execute_p99_ms: num("execute_p99_ms")?,
        respond_p50_ms: num("respond_p50_ms")?,
        respond_p99_ms: num("respond_p99_ms")?,
        total_p50_ms: num("total_p50_ms")?,
        total_p99_ms: num("total_p99_ms")?,
        hit_rate: num("cache_hit_rate")?,
    })
}

/// Runs the closed loop: samples `cfg.requests` queries from
/// `population` under Zipf(`cfg.zipf_s`) and issues them from
/// `cfg.concurrency` workers against the daemon at `cfg.addr`.
pub fn run(cfg: &LoadgenConfig, population: &[RunRequest]) -> std::io::Result<LoadgenReport> {
    assert!(
        !population.is_empty(),
        "loadgen needs a non-empty query population"
    );
    let zipf = Zipf::new(population.len(), cfg.zipf_s);
    // pre-encode every population member once; workers only index
    let encoded: Vec<String> = population
        .iter()
        .enumerate()
        .map(|(i, req)| encode_run_request(&format!("q{i}"), req))
        .collect();
    let issued = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let failures = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    let misses = AtomicUsize::new(0);
    let latencies_us: Vec<AtomicU64> = (0..cfg.requests).map(|_| AtomicU64::new(0)).collect();
    let start = Instant::now();
    thread::scope(|scope| {
        for _worker in 0..cfg.concurrency.max(1) {
            let (zipf, encoded) = (&zipf, &encoded);
            let (issued, completed, failures) = (&issued, &completed, &failures);
            let (hits, misses, latencies_us) = (&hits, &misses, &latencies_us);
            let addr = cfg.addr.clone();
            let rate = cfg.rate;
            scope.spawn(move || {
                let Ok(stream) = TcpStream::connect(&addr) else {
                    // count every request this worker would have issued
                    loop {
                        if issued.fetch_add(1, Ordering::Relaxed) >= cfg.requests {
                            return;
                        }
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                };
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let mut reader = BufReader::new(read_half);
                let mut writer = BufWriter::new(stream);
                loop {
                    let idx = issued.fetch_add(1, Ordering::Relaxed);
                    if idx >= cfg.requests {
                        return;
                    }
                    if let Some(rate) = rate {
                        // deterministic open-loop schedule: request idx
                        // is due at start + idx/rate
                        let due = start + Duration::from_secs_f64(idx as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            thread::sleep(due - now);
                        }
                    }
                    // sample by global request index, not by a per-worker
                    // RNG stream: the query multiset is then a pure
                    // function of (seed, requests, population), identical
                    // whatever the worker scheduling or daemon --jobs —
                    // the invariant the telemetry determinism tests pin
                    let mut rng = SplitMix64(
                        cfg.seed
                            .wrapping_add((idx as u64).wrapping_mul(rng::GOLDEN)),
                    );
                    let mut draw = || rng.next_f64();
                    let line = &encoded[zipf.sample(&mut draw)];
                    let sent = Instant::now();
                    let ok = writeln!(writer, "{line}")
                        .and_then(|()| writer.flush())
                        .is_ok();
                    let mut reply = String::new();
                    if !ok || !matches!(reader.read_line(&mut reply), Ok(n) if n > 0) {
                        failures.fetch_add(1, Ordering::Relaxed);
                        return; // connection is gone; stop this worker
                    }
                    let latency = sent.elapsed();
                    match parse_flat_json(reply.trim_end()) {
                        Some(m)
                            if matches!(
                                m.get("status").map(String::as_str),
                                Some("done") | Some("failed")
                            ) =>
                        {
                            // store at least 1µs so a sub-microsecond
                            // cache hit is not confused with "no sample"
                            let us = latency.as_micros().clamp(1, u64::MAX as u128) as u64;
                            latencies_us[idx].store(us, Ordering::Relaxed);
                            completed.fetch_add(1, Ordering::Relaxed);
                            if is_cache_hit(&m) {
                                hits.fetch_add(1, Ordering::Relaxed);
                            } else {
                                misses.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let mut latencies_ms: Vec<f64> = latencies_us
        .iter()
        .map(|us| us.load(Ordering::Relaxed))
        .filter(|&us| us > 0)
        .map(|us| us as f64 / 1000.0)
        .collect();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let wall_secs = start.elapsed().as_secs_f64();
    // the burst is over; ask the daemon for its side of the story
    let server = scrape_server_stats(&cfg.addr);
    Ok(LoadgenReport {
        completed: completed.load(Ordering::Relaxed),
        failures: failures.load(Ordering::Relaxed),
        hits: hits.load(Ordering::Relaxed),
        misses: misses.load(Ordering::Relaxed),
        wall_secs,
        latencies_ms,
        server,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_toward_low_ranks_and_uniform_at_zero() {
        let mut rng = SplitMix64(7);
        let mut draw = || rng.next_f64();
        let zipf = Zipf::new(10, 1.0);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut draw)] += 1;
        }
        assert!(counts[0] > counts[4] && counts[4] > counts[9], "{counts:?}");
        // s = 0 degenerates to uniform: no rank should dominate
        let uniform = Zipf::new(10, 0.0);
        let mut flat = [0usize; 10];
        for _ in 0..20_000 {
            flat[uniform.sample(&mut draw)] += 1;
        }
        let (min, max) = (flat.iter().min().unwrap(), flat.iter().max().unwrap());
        assert!(*max < min * 2, "{flat:?}");
    }

    #[test]
    fn zipf_samples_stay_in_range() {
        let zipf = Zipf::new(3, 2.0);
        let mut rng = SplitMix64(1);
        let mut draw = || rng.next_f64();
        for _ in 0..1000 {
            assert!(zipf.sample(&mut draw) < 3);
        }
        // even a draw of exactly ~1.0 - eps must not index out of bounds
        let mut top = || 0.999_999_999_999;
        assert!(zipf.sample(&mut top) < 3);
    }

    #[test]
    fn percentiles_and_csv_shape() {
        let report = LoadgenReport {
            completed: 4,
            failures: 1,
            hits: 3,
            misses: 1,
            wall_secs: 2.0,
            latencies_ms: vec![1.0, 2.0, 3.0, 100.0],
            server: None,
        };
        assert_eq!(report.percentile_ms(50.0), 2.0);
        assert_eq!(report.percentile_ms(99.0), 100.0);
        assert!(report.percentile_ms(50.0) <= report.percentile_ms(99.0));
        assert_eq!(report.throughput_rps(), 2.0);
        assert_eq!(report.hit_rate(), 0.75);
        let csv = report.to_csv(&LoadgenConfig::default());
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "header and row have the same arity"
        );
        assert!(lines[0].contains("p50_ms") && lines[0].contains("hit_rate"));
        // a missing server scrape shows up as NaN, not a ragged row
        assert!(lines[0].contains("srv_total_p99_ms"));
        assert!(lines[1].contains("NaN"));
        // with a scrape, the server columns carry its numbers
        let with_server = LoadgenReport {
            server: Some(ServerStats {
                total_p99_ms: 128.0,
                hit_rate: 0.5,
                ..ServerStats::default()
            }),
            ..report
        };
        let row = with_server.to_csv(&LoadgenConfig::default());
        assert!(row.lines().nth(1).unwrap().contains("128.000000"));
    }

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let seq = |seed| {
            let mut rng = SplitMix64(seed);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43));
    }
}
