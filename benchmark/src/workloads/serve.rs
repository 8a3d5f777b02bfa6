//! `serve_hot` and `serve_churn`: the daemon, bound in-process on an
//! ephemeral port, driven by the benchmark's own closed-loop client over
//! one TCP connection.
//!
//! Load is closed-loop because the daemon's callers are tools that wait
//! for their reply. There is one client thread and the daemon's one
//! connection thread — `nproc` threads in total on the 2-core reference
//! host, never more connections than that — and the process is pinned to
//! one CPU, so the hand-off between the two never crosses CPUs
//! (`host::pin_to_current_cpu` says why).
//!
//! * `serve_hot` (cache capacity 1024): every request is a `ResultCache`
//!   read; `serve::protocol`, `core::flatjson`, `SweepCell::key`, the
//!   telemetry spans and the socket do all the work, the engines none.
//! * `serve_churn` (cache capacity 16 under a 29-cell population): the
//!   working set is larger than the cache, so lookups, admissions and LRU
//!   evictions interleave, and misses pay `core::request`'s per-cell
//!   fixed cost on small cells, which `crossbar` hides.
//!
//! The request sequence is a pure function of the seed and the same in
//! every pass. An LRU's content after a sequence depends only on that
//! sequence once it has touched more keys than the cache holds, so after
//! the discarded warm-up pass every pass starts from the same cache state
//! and the hit/miss sequence repeats exactly.

use std::hint::black_box;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use graphmaze_core::flatjson::parse_flat_json;
use graphmaze_core::metrics::{parse_exposition, render_exposition, EXPOSITION_EOF};
use graphmaze_core::RunRequest;
use graphmaze_serve::grid::default_grid;
use graphmaze_serve::protocol::{decode_run_request, encode_run_request, encode_run_response};
use graphmaze_serve::{ServeConfig, ServeState, Server};

use super::Pinned;
use crate::golden::{Obs, OpCheck};
use crate::harness::{timed, Cx, Ledger, OpSample, PassOut, Tag, Verify, Workload};
use crate::spans::NO_OP;
use crate::stats::{fnv1a64, percentile_of_ns, Zipf};

/// One TCP connection speaking the line protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    reply: String,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            reply: String::new(),
        })
    }

    /// Sends one request line and waits for its one reply line.
    fn round_trip(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end())
    }

    /// The `metrics` verb answers with many lines, the last `# EOF`.
    fn scrape_metrics(&mut self) -> std::io::Result<String> {
        self.writer
            .write_all(b"{\"op\":\"metrics\",\"id\":\"bench\"}\n")?;
        self.writer.flush()?;
        let mut text = String::new();
        loop {
            self.reply.clear();
            if self.reader.read_line(&mut self.reply)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            text.push_str(&self.reply);
            if self.reply.trim_end() == EXPOSITION_EOF {
                return Ok(text);
            }
        }
    }

    fn stats(&mut self) -> std::collections::HashMap<String, String> {
        self.round_trip("{\"op\":\"stats\",\"id\":\"bench\"}")
            .ok()
            .and_then(parse_flat_json)
            .unwrap_or_default()
    }
}

/// The part of a `run` reply that is a function of the request alone:
/// from `"status"` up to the host-clock `wall_secs`. The cache tag, which
/// precedes it, is read separately.
fn fingerprint(reply: &str) -> Option<&str> {
    let from = reply.find("\"status\"")?;
    let to = reply.rfind(",\"wall_secs\"")?;
    reply.get(from..to)
}

pub struct Serve<const CHURN: bool> {
    state: Arc<ServeState>,
    daemon: Option<JoinHandle<()>>,
    client: Client,
    population: Vec<RunRequest>,
    encoded: Vec<String>,
    /// Replies of the pre-fill pass, one per population member.
    prefill: Vec<String>,
    fingerprints: Vec<String>,
    sequence: Vec<u16>,
    pinned: Pinned,
}

impl<const CHURN: bool> Serve<CHURN> {
    const NAME: &'static str = if CHURN { "serve_churn" } else { "serve_hot" };

    /// Replays the request sequence once, timing each round trip.
    fn replay(&mut self, cx: &Cx) -> Vec<OpSample> {
        let mut ops = Vec::with_capacity(self.sequence.len());
        for &rank in &self.sequence {
            let rank = rank as usize;
            let line = &self.encoded[rank];
            let client = &mut self.client;
            let t = Instant::now();
            let reply = cx
                .rec
                .span("serve.request", rank as u32, || client.round_trip(line));
            let ns = t.elapsed().as_nanos() as u64;
            let (tag, ok) = match reply {
                Ok(reply) => (
                    if reply.contains("\"cache\":\"hit\"") {
                        Tag::Hit
                    } else {
                        Tag::Miss
                    },
                    fingerprint(reply) == Some(self.fingerprints[rank].as_str()),
                ),
                Err(_) => (Tag::Miss, false),
            };
            ops.push(OpSample {
                op: rank as u32,
                ns,
                tag,
                ok,
            });
        }
        ops
    }
}

impl<const CHURN: bool> Workload for Serve<CHURN> {
    fn setup(cx: &Cx) -> Self {
        let s = cx.sizes;
        let (scale, capacity, requests) = if CHURN {
            (s.churn_scale, s.churn_capacity, s.churn_requests)
        } else {
            (s.hot_scale, 1024, s.hot_requests)
        };
        // one CPU for the client and the daemon's threads (see the function)
        if crate::host::pin_to_current_cpu().is_none() {
            eprintln!("[{}] warning: could not pin to one CPU", Self::NAME);
        }
        let (server, state) = cx.rec.span("serve.bind", NO_OP, || {
            let server = Server::bind(&ServeConfig {
                jobs: 2,
                cache_capacity: capacity,
                ..ServeConfig::default()
            })
            .expect("bind an ephemeral loopback port");
            let state = server.state();
            (server, state)
        });
        let addr = server.local_addr().expect("bound address");
        let daemon = std::thread::spawn(move || {
            if let Err(e) = server.run() {
                eprintln!("daemon stopped: {e}");
            }
        });
        let mut client = Client::connect(addr).expect("connect to the daemon");

        let population = default_grid(scale, cx.seed, s.serve_nodes);
        let encoded: Vec<String> = population
            .iter()
            .enumerate()
            .map(|(i, req)| encode_run_request(&format!("q{i}"), req))
            .collect();
        // the pre-fill pass: every cell once, which also builds the five
        // workloads the grid runs on
        let prefill = cx.rec.span("serve.prefill", NO_OP, || {
            encoded
                .iter()
                .enumerate()
                .map(|(i, line)| {
                    cx.rec
                        .span("serve.request", i as u32, || client.round_trip(line))
                        .map(str::to_string)
                        .unwrap_or_default()
                })
                .collect::<Vec<String>>()
        });
        let sequence = Zipf::new(population.len(), 1.0).sequence(cx.seed, requests);
        let checks = population
            .iter()
            .map(|req| {
                let c = &req.cell;
                OpCheck {
                    id: format!("{}/{}", c.algorithm.name(), c.framework.name()),
                    alg: c.algorithm,
                    group: c.algorithm.name().to_string(),
                    is_native: c.framework == graphmaze_core::Framework::Native,
                    pinned: true,
                }
            })
            .collect();
        Serve {
            state,
            daemon: Some(daemon),
            client,
            population,
            encoded,
            prefill,
            fingerprints: Vec::new(),
            sequence,
            pinned: Pinned::new(Self::NAME, checks),
        }
    }

    fn verify(&mut self, cx: &Cx) -> Verify {
        // the pre-fill replies are checked in full; timed replies must then
        // carry the same fingerprint
        self.fingerprints = self
            .prefill
            .iter()
            .map(|r| fingerprint(r).unwrap_or("<no reply>").to_string())
            .collect();
        let observed = self.prefill.iter().map(|r| Obs::of_wire_reply(r)).collect();
        let mut verify = self.pinned.verify(cx, observed);
        // the discarded warm-up pass: brings the LRU to its steady state
        let warm = self.replay(cx);
        verify.attempted += warm.len();
        let bad = warm.iter().filter(|o| !o.ok).count();
        if bad > 0 {
            verify.failures.push(format!(
                "{bad} warm-up replies differ from the pre-fill reply"
            ));
        }
        verify
    }

    fn pass(&mut self, cx: &Cx, _traced: bool) -> PassOut {
        let (ops, timing) = timed(|| self.replay(cx));
        PassOut { timing, ops }
    }

    fn layers(&mut self, cx: &Cx, untraced: &[PassOut], ledger: &mut Ledger) {
        let ops: usize = untraced.iter().map(|p| p.ops.len()).sum();
        let wall: f64 = untraced.iter().map(|p| p.timing.wall_ns as f64 / 1e9).sum();
        ledger.insert("serve.rps", ops as f64 / wall);
        // latencies by the reply's cache tag, pooled over the passes
        let tagged = |tag: Tag| -> Vec<u64> {
            untraced
                .iter()
                .flat_map(|p| p.ops.iter().filter(|o| o.tag == tag).map(|o| o.ns))
                .collect()
        };
        let (mut hits, mut misses) = (tagged(Tag::Hit), tagged(Tag::Miss));
        ledger.insert("serve.hit_p50_us", percentile_of_ns(&mut hits, 50.0, 1e3));
        ledger.insert("serve.hit_p99_us", percentile_of_ns(&mut hits, 99.0, 1e3));
        ledger.insert(
            "serve.miss_p50_ms",
            percentile_of_ns(&mut misses, 50.0, 1e6),
        );
        ledger.insert(
            "serve.miss_p99_ms",
            percentile_of_ns(&mut misses, 99.0, 1e6),
        );

        // exact-repeat counts over one more pass: client-side hit rate and
        // the daemon's own eviction counter, before and after
        let evictions = |m: &std::collections::HashMap<String, String>| {
            m.get("cache_evictions")
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let before = evictions(&self.client.stats());
        cx.rec.set_enabled(false);
        let counted = self.replay(cx);
        cx.rec.set_enabled(true);
        let stats = self.client.stats();
        ledger.insert("serve.evictions", evictions(&stats) - before);
        ledger.insert(
            "serve.hit_rate",
            counted.iter().filter(|o| o.tag == Tag::Hit).count() as f64 / counted.len() as f64,
        );
        // the daemon's own span stages (bucketed, so stable), scraped
        // through the `stats` verb after the run
        let ms = |key: &str| {
            stats
                .get(key)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        ledger.insert(
            "serve.stage_queue_wait_p50_us",
            ms("queue_wait_p50_ms") * 1e3,
        );
        ledger.insert(
            "serve.stage_cache_lookup_p50_us",
            ms("cache_lookup_p50_ms") * 1e3,
        );
        ledger.insert("serve.stage_respond_p50_us", ms("respond_p50_ms") * 1e3);
        ledger.insert("serve.stage_execute_p50_ms", ms("execute_p50_ms"));

        let client = &mut self.client;
        ledger.insert(
            "serve.metrics_scrape_ms",
            cx.per_call_ns("serve.metrics_scrape", 20, |_| {
                let _ = client.scrape_metrics();
            }) / 1e6,
        );

        // the same registry rendered and parsed in-process
        let n = |full: usize| (full / cx.sizes.probe_shrink).max(1);
        let registry = self.state.telemetry();
        let mut text = String::new();
        ledger.insert(
            "metrics.expose_render_us",
            cx.per_call_ns("metrics.expose_render", n(200), |_| {
                text = render_exposition(registry);
            }) / 1e3,
        );
        ledger.insert(
            "metrics.expose_parse_us",
            cx.per_call_ns("metrics.expose_parse", n(200), |_| {
                let _ = black_box(parse_exposition(&text));
            }) / 1e3,
        );

        // the request path without the socket: `hit_p50_us` minus
        // `handle_line_hit_us` is socket plus wake-up. Rank 0 was just
        // requested, so it is resident under either capacity.
        let line = &self.encoded[0];
        let _ = self.state.handle_line(line);
        ledger.insert(
            "serve.handle_line_hit_us",
            cx.per_call_ns("serve.handle_line", n(20_000), |_| {
                black_box(self.state.handle_line(line));
            }) / 1e3,
        );
        ledger.insert(
            "serve.decode_request_us",
            cx.per_call_ns("serve.decode_request", n(20_000), |_| {
                let m = parse_flat_json(line).expect("own request line parses");
                black_box(decode_run_request(&m).expect("and decodes"));
            }) / 1e3,
        );
        let resp = self.state.execute(&self.population[0]);
        ledger.insert(
            "serve.encode_response_us",
            cx.per_call_ns("serve.encode_response", n(20_000), |_| {
                black_box(encode_run_response("q0", &resp));
            }) / 1e3,
        );
        eprintln!(
            "[{}] request sequence checksum {:016x} ({} requests per pass)",
            Self::NAME,
            fnv1a64(self.sequence.iter().flat_map(|r| r.to_le_bytes())),
            self.sequence.len()
        );
    }

    fn golden_rows(&self) -> Vec<(String, Obs)> {
        self.pinned.golden_rows()
    }

    fn teardown(mut self) {
        // graceful drain: the daemon answers `bye`, stops accepting and
        // joins its connection threads; then its accept thread is joined
        let _ = self
            .client
            .round_trip("{\"op\":\"shutdown\",\"id\":\"bench\"}");
        if let Some(daemon) = self.daemon.take() {
            if daemon.join().is_err() {
                eprintln!("[{}] warning: the daemon thread panicked", Self::NAME);
            }
        }
    }
}
