//! The serving wire protocol: line-delimited flat JSON over TCP.
//!
//! One request per line, one response line per request, in order. The
//! codec round-trips a full [`RunRequest`] — every field of the cell
//! identity (experiment, label, algorithm, framework, workload spec,
//! nodes, factor, params, fault plan) plus the optional wall-clock
//! budget — so a query submitted over the wire is *the same run* the
//! offline `repro` harness would execute: same [`RunRequest::key`]
//! identity hash, same digest.
//!
//! Workload specs travel as their canonical journal string
//! (`rmat/s13/e16/x42`, parsed by `WorkloadSpec::parse_key`), and fault
//! plans as their canonical `FaultPlan` spec — the same spellings every
//! other artifact of the repo uses.
//!
//! Request ops:
//!
//! | op         | effect                                                |
//! |------------|-------------------------------------------------------|
//! | `run`      | execute (or answer from cache) a benchmark cell       |
//! | `stats`    | report counters, gauges and per-stage percentiles     |
//! | `metrics`  | Prometheus text exposition, terminated by `# EOF`     |
//! | `ping`     | liveness probe, answers `pong`                        |
//! | `shutdown` | acknowledge with `bye`, then drain and stop           |
//!
//! Every response carries `"status"`: `done` / `failed` (a cell-level
//! failure such as OOM — still an *answer*, and cached as one) /
//! `stats` / `pong` / `bye` / `error` (malformed request; nothing ran).
//!
//! `metrics` is the one deliberate exception to "one response line per
//! request": its payload is the multi-line Prometheus text-exposition
//! format (rendered by `graphmaze_metrics::expose`), so clients read
//! until the literal `# EOF` line instead of stopping at the first
//! newline. Every other op stays strictly line-delimited.

use std::collections::HashMap;
use std::time::Duration;

use graphmaze_core::cluster::FaultPlan;
use graphmaze_core::flatjson::{FlatFields, FlatJsonBuilder};
use graphmaze_core::{
    Algorithm, BenchParams, CachedOutcome, Framework, Provenance, RunRequest, RunResponse,
    SweepCell, WorkloadSpec,
};

/// Current protocol version, carried in every response as `"proto"`.
/// Bump on incompatible changes; clients should reject mismatches.
pub const PROTOCOL_VERSION: u32 = 1;

/// Parses an algorithm by its stable short name (`Algorithm::name`),
/// including the `msbfs` extension (the full servable set is
/// `Algorithm::EXTENDED`). Unknown names fail with a caret pointing at
/// the offending span of `spec` (the whole line the name came from) and
/// the list of valid spellings, in the [`FaultPlan`] parser's style.
pub fn parse_algorithm_at(spec: &str, at: usize, name: &str) -> Result<Algorithm, String> {
    Algorithm::EXTENDED
        .into_iter()
        .find(|a| a.name() == name)
        .ok_or_else(|| {
            graphmaze_core::cluster::span_err(
                spec,
                at,
                name.len(),
                format!(
                    "unknown algorithm `{name}` (expected one of: {})",
                    Algorithm::EXTENDED.map(|a| a.name()).join(", ")
                ),
            )
        })
}

/// [`parse_algorithm_at`] with the name itself as the spec — the whole
/// name is underlined.
pub fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    parse_algorithm_at(name, 0, name)
}

/// Every framework the serving layer can name: the paper's six plus the
/// Table 7-only `socialite-unopt` variant and the GraphMat
/// auto-lowering engine.
pub const SERVABLE_FRAMEWORKS: [Framework; 8] = [
    Framework::Native,
    Framework::CombBlas,
    Framework::GraphLab,
    Framework::SociaLite,
    Framework::SociaLiteUnopt,
    Framework::Giraph,
    Framework::Galois,
    Framework::GraphMat,
];

/// Parses a framework by its stable short name (`Framework::name`),
/// including the Table 7-only `socialite-unopt`. Unknown names fail
/// with a caret pointing at the offending span of `spec` and the list
/// of valid spellings, in the [`FaultPlan`] parser's style.
pub fn parse_framework_at(spec: &str, at: usize, name: &str) -> Result<Framework, String> {
    SERVABLE_FRAMEWORKS
        .into_iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| {
            graphmaze_core::cluster::span_err(
                spec,
                at,
                name.len(),
                format!(
                    "unknown framework `{name}` (expected one of: {})",
                    SERVABLE_FRAMEWORKS.map(|f| f.name()).join(", ")
                ),
            )
        })
}

/// [`parse_framework_at`] with the name itself as the spec — the whole
/// name is underlined.
pub fn parse_framework(name: &str) -> Result<Framework, String> {
    parse_framework_at(name, 0, name)
}

/// Encodes a `run` request as one wire line (no trailing newline).
/// Every identity field is written explicitly — the decoder's defaults
/// never participate, so an encoded request round-trips bit-exactly.
pub fn encode_run_request(id: &str, req: &RunRequest) -> String {
    let c = &req.cell;
    let p = &c.params;
    let mut b = FlatJsonBuilder::new();
    b.str("op", "run")
        .str("id", id)
        .str("experiment", &req.experiment)
        .str("label", &c.label)
        .str("algorithm", c.algorithm.name())
        .str("framework", c.framework.name())
        .str("spec", &c.spec.key())
        .u64("nodes", c.nodes as u64)
        .f64("factor", c.factor)
        .str("faults", &c.faults.key())
        .u64("pr_iterations", u64::from(p.pr_iterations))
        .u64("bfs_source", u64::from(p.bfs_source))
        .u64("cf_k", p.cf.k as u64)
        .f64("cf_lambda", p.cf.lambda)
        .f64("cf_gamma0", p.cf.gamma0)
        .f64("cf_step_decay", p.cf.step_decay)
        .u64("cf_seed", p.cf.seed)
        .u64("cf_iterations", u64::from(p.cf_iterations))
        .u64("giraph_splits", u64::from(p.giraph_splits))
        .u64("msbfs_sources", u64::from(p.msbfs_sources))
        .u64("msbfs_seed", p.msbfs_seed);
    if let Some(t) = req.timeout {
        b.f64("timeout_s", t.as_secs_f64());
    }
    b.finish()
}

/// Decodes a parsed `run` request line into a [`RunRequest`]. Only
/// `algorithm` and `spec` are required; everything else falls back to
/// the documented defaults (experiment `serve`, framework `native`,
/// 1 node, factor 1, no faults, `BenchParams::default()`). Reads the
/// borrowed [`FlatObject`] or the map `parse_flat_json` returns.
///
/// [`FlatObject`]: graphmaze_core::flatjson::FlatObject
pub fn decode_run_request<F: FlatFields + ?Sized>(m: &F) -> Result<RunRequest, String> {
    fn get_num<T: std::str::FromStr>(
        m: &(impl FlatFields + ?Sized),
        key: &str,
        default: T,
    ) -> Result<T, String> {
        match m.field(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid number `{raw}` for `{key}`")),
        }
    }
    let algorithm = parse_algorithm(
        m.field("algorithm")
            .ok_or("missing required field `algorithm`")?,
    )?;
    let spec = WorkloadSpec::parse_key(m.field("spec").ok_or("missing required field `spec`")?)?;
    let framework = match m.field("framework") {
        Some(name) => parse_framework(name)?,
        None => Framework::Native,
    };
    let faults = match m.field("faults") {
        Some(spec) if spec != "none" => FaultPlan::parse(spec)?,
        _ => FaultPlan::none(),
    };
    let defaults = BenchParams::default();
    let params = BenchParams {
        pr_iterations: get_num(m, "pr_iterations", defaults.pr_iterations)?,
        bfs_source: get_num(m, "bfs_source", defaults.bfs_source)?,
        cf: graphmaze_core::native::cf::CfConfig {
            k: get_num(m, "cf_k", defaults.cf.k)?,
            lambda: get_num(m, "cf_lambda", defaults.cf.lambda)?,
            gamma0: get_num(m, "cf_gamma0", defaults.cf.gamma0)?,
            step_decay: get_num(m, "cf_step_decay", defaults.cf.step_decay)?,
            seed: get_num(m, "cf_seed", defaults.cf.seed)?,
        },
        cf_iterations: get_num(m, "cf_iterations", defaults.cf_iterations)?,
        giraph_splits: get_num(m, "giraph_splits", defaults.giraph_splits)?,
        msbfs_sources: get_num(m, "msbfs_sources", defaults.msbfs_sources)?,
        msbfs_seed: get_num(m, "msbfs_seed", defaults.msbfs_seed)?,
    };
    let timeout = match m.field("timeout_s") {
        None => None,
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| format!("invalid number `{raw}` for `timeout_s`"))?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(format!("`timeout_s` must be non-negative, got `{raw}`"));
            }
            Some(Duration::from_secs_f64(secs))
        }
    };
    let cell = SweepCell {
        label: m.field("label").unwrap_or_default().to_string(),
        algorithm,
        framework,
        spec,
        nodes: get_num(m, "nodes", 1usize)?,
        factor: get_num(m, "factor", 1.0f64)?,
        params,
        faults,
    };
    Ok(RunRequest {
        experiment: m.field("experiment").unwrap_or("serve").to_string(),
        cell,
        timeout,
    })
}

/// Encodes the response to a `run` request (no trailing newline). Both
/// success and cell-level failure lines carry the identity hash
/// (`key`, 16 hex digits) and the cache provenance (`cache`:
/// `hit`/`miss`).
pub fn encode_run_response(id: &str, resp: &RunResponse) -> String {
    encode_run_reply(id, resp.key, resp.provenance, &resp.outcome, resp.wall_secs)
}

/// [`encode_run_response`] from the response's parts, so an outcome
/// shared with the result cache is encoded where it lies.
pub(crate) fn encode_run_reply(
    id: &str,
    key: u64,
    provenance: Provenance,
    outcome: &CachedOutcome,
    wall_secs: f64,
) -> String {
    let mut b = FlatJsonBuilder::new();
    b.u64("proto", u64::from(PROTOCOL_VERSION)).str("id", id);
    b.hex64("key", key);
    b.str("cache", provenance.wire_tag());
    match outcome {
        Ok(out) => {
            b.str("status", "done")
                .f64("digest", out.digest)
                .f64("sim_seconds", out.report.sim_seconds)
                .u64("steps", u64::from(out.report.steps))
                .u64("iterations", u64::from(out.report.iterations))
                .u64("run_nodes", out.report.nodes as u64)
                .u64("bytes_sent", out.report.traffic.bytes_sent);
        }
        Err(e) => {
            b.str("status", "failed")
                .str("error_kind", e.kind())
                .str("error", e.message())
                .str("annotation", e.annotation());
        }
    }
    b.f64("wall_secs", wall_secs);
    b.finish()
}

/// Encodes a protocol-level error (nothing ran).
pub fn encode_error(id: &str, error: &str) -> String {
    FlatJsonBuilder::new()
        .u64("proto", u64::from(PROTOCOL_VERSION))
        .str("id", id)
        .str("status", "error")
        .str("error", error)
        .finish()
}

/// Whether a response line says the run was served from cache
/// (`"cache":"hit"`).
pub fn is_cache_hit(m: &HashMap<String, String>) -> bool {
    m.get("cache").map(String::as_str) == Some(Provenance::Cached.wire_tag())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmaze_core::flatjson::parse_flat_json;

    fn sample_request() -> RunRequest {
        RunRequest::new(
            "serve",
            SweepCell {
                label: "pagerank@rmat".into(),
                algorithm: Algorithm::PageRank,
                framework: Framework::Giraph,
                spec: WorkloadSpec::Rmat {
                    scale: 10,
                    edge_factor: 16,
                    seed: 42,
                },
                nodes: 4,
                factor: 2.5,
                params: BenchParams::default(),
                faults: FaultPlan::parse("seed=7,linkdrop=0.01").unwrap(),
            },
        )
        .with_timeout(Some(Duration::from_secs_f64(1.5)))
    }

    #[test]
    fn run_request_round_trips_with_identical_identity_hash() {
        let req = sample_request();
        let line = encode_run_request("q1", &req);
        let m = parse_flat_json(&line).expect("parses");
        assert_eq!(m["op"], "run");
        assert_eq!(m["id"], "q1");
        let back = decode_run_request(&m).expect("decodes");
        assert_eq!(back.key(), req.key(), "identity hash survives the wire");
        assert_eq!(back.timeout, req.timeout);
        assert_eq!(back.cell.faults.key(), req.cell.faults.key());
    }

    #[test]
    fn msbfs_request_round_trips_params_and_identity_hash() {
        let req = RunRequest::new(
            "serve",
            SweepCell {
                label: "msbfs@rmat".into(),
                algorithm: Algorithm::MsBfs,
                framework: Framework::CombBlas,
                spec: WorkloadSpec::Rmat {
                    scale: 9,
                    edge_factor: 16,
                    seed: 42,
                },
                nodes: 4,
                factor: 1.0,
                params: BenchParams {
                    msbfs_sources: 128,
                    msbfs_seed: 0xfeed,
                    ..BenchParams::default()
                },
                faults: FaultPlan::none(),
            },
        );
        let m = parse_flat_json(&encode_run_request("q2", &req)).expect("parses");
        assert_eq!(m["algorithm"], "msbfs");
        let back = decode_run_request(&m).expect("decodes");
        assert_eq!(back.cell.params.msbfs_sources, 128);
        assert_eq!(back.cell.params.msbfs_seed, 0xfeed);
        assert_eq!(back.key(), req.key(), "identity hash survives the wire");
    }

    #[test]
    fn minimal_request_uses_documented_defaults() {
        let m =
            parse_flat_json(r#"{"op":"run","algorithm":"bfs","spec":"rmat/s8/e4/x1"}"#).unwrap();
        let req = decode_run_request(&m).unwrap();
        assert_eq!(req.experiment, "serve");
        assert_eq!(req.cell.framework, Framework::Native);
        assert_eq!(req.cell.nodes, 1);
        assert_eq!(req.cell.factor, 1.0);
        assert!(!req.cell.faults.is_active());
        assert_eq!(req.timeout, None);
    }

    #[test]
    fn bad_requests_name_the_offending_field() {
        let cases = [
            (r#"{"op":"run","spec":"rmat/s8/e4/x1"}"#, "algorithm"),
            (r#"{"op":"run","algorithm":"pagerank"}"#, "spec"),
            (
                r#"{"op":"run","algorithm":"pagerank","spec":"rmat/s8/e4/x1","nodes":"two"}"#,
                "`two`",
            ),
            (
                r#"{"op":"run","algorithm":"dijkstra","spec":"rmat/s8/e4/x1"}"#,
                "dijkstra",
            ),
            (
                r#"{"op":"run","algorithm":"bfs","spec":"rmat/s8/e4/x1","timeout_s":"-1"}"#,
                "timeout_s",
            ),
        ];
        for (line, needle) in cases {
            let err = decode_run_request(&parse_flat_json(line).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{line} → {err}");
        }
    }

    #[test]
    fn unknown_names_point_at_the_offending_span() {
        let err = parse_framework("grahpmat").unwrap_err();
        assert!(err.contains("unknown framework `grahpmat`"), "{err}");
        assert!(err.contains("graphmat"), "lists valid names: {err}");
        assert!(err.ends_with("\n  grahpmat\n  ^^^^^^^^"), "{err}");
        let err = parse_algorithm_at("algos=pr,dijkstra", 9, "dijkstra").unwrap_err();
        assert!(err.contains("unknown algorithm `dijkstra`"), "{err}");
        assert!(
            err.ends_with("\n  algos=pr,dijkstra\n           ^^^^^^^^"),
            "caret sits under the bad segment: {err}"
        );
        assert!(parse_framework("graphmat").is_ok());
    }

    #[test]
    fn responses_encode_provenance_and_outcome() {
        let resp = RunResponse {
            key: 0xdead_beef,
            outcome: Err(graphmaze_core::CellError::OutOfMemory(
                "node 2: 5 GB".into(),
            )),
            provenance: Provenance::Cached,
            wall_secs: 0.001,
            cache_lookup: Duration::ZERO,
            execute: Duration::ZERO,
        };
        let m = parse_flat_json(&encode_run_response("x", &resp)).unwrap();
        assert_eq!(m["status"], "failed");
        assert_eq!(m["key"], "00000000deadbeef");
        assert_eq!(m["error_kind"], "oom");
        assert_eq!(m["annotation"], "OOM");
        assert!(is_cache_hit(&m));
        let err = parse_flat_json(&encode_error("x", "nope")).unwrap();
        assert_eq!(err["status"], "error");
        assert!(!is_cache_hit(&err));
    }
}
