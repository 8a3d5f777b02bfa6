//! What an operation returned, the pinned goldens, and the checks.
//!
//! An operation fails if it returns an outcome other than the pinned one
//! or if any simulated statistic differs from the golden: digest bits,
//! `sim_seconds` bits, steps, messages, bytes, retransmit / rebalance /
//! recovery counts. That is the ROADMAP invariant made executable — a
//! host-clock change must leave every simulated statistic bit-identical.
//! Expected typed outcomes (the fig3 OOM cell, SociaLite msbfs `n/a`,
//! fail-stop `NodeFailed` under `kill=`) are pinned like any other and
//! count as success.
//!
//! Goldens exist for the default seed. On any other seed an operation is
//! checked by agreement with the native result on the same input, under
//! the conformance suite's criterion (`tests/digest_agreement.rs`).

use std::collections::HashMap;

use graphmaze_core::flatjson::parse_flat_json;
use graphmaze_core::{Algorithm, RunResponse};

/// What one operation returned. Fields the operation's interface does
/// not expose (a wire reply carries no message count; a raw kernel has
/// only its digest) are `None` and are pinned as absent.
#[derive(Clone, Debug, PartialEq)]
pub struct Obs {
    /// `ok`, or the typed failure: `oom`, `invalid`, `failed`, `panic`,
    /// `timeout`.
    pub kind: String,
    pub digest: Option<f64>,
    pub sim_seconds: Option<f64>,
    pub steps: Option<u64>,
    pub messages: Option<u64>,
    pub bytes: Option<u64>,
    pub retransmits: Option<u64>,
    pub rebalance_bytes: Option<u64>,
    pub recoveries: Option<u64>,
}

impl Obs {
    pub fn failure(kind: &str) -> Obs {
        Obs {
            kind: kind.to_string(),
            digest: None,
            sim_seconds: None,
            steps: None,
            messages: None,
            bytes: None,
            retransmits: None,
            rebalance_bytes: None,
            recoveries: None,
        }
    }

    /// A raw kernel invocation: only a digest.
    pub fn digest_only(digest: f64) -> Obs {
        Obs {
            digest: Some(digest),
            ..Obs::failure("ok")
        }
    }

    pub fn of_response(resp: &RunResponse) -> Obs {
        match &resp.outcome {
            Err(e) => Obs::failure(e.kind()),
            Ok(out) => {
                let r = &out.report;
                Obs {
                    kind: "ok".to_string(),
                    digest: Some(out.digest),
                    sim_seconds: Some(r.sim_seconds),
                    steps: Some(u64::from(r.steps)),
                    messages: Some(r.traffic.messages),
                    bytes: Some(r.traffic.bytes_sent),
                    retransmits: Some(r.retransmit.retransmits),
                    rebalance_bytes: Some(r.rebalance.migrated_bytes),
                    recoveries: Some(u64::from(r.recovery.failures)),
                }
            }
        }
    }

    /// One line of the sweep journal (`journal.jsonl`).
    pub fn of_journal_line(m: &HashMap<String, String>) -> Obs {
        if m.get("status").map(String::as_str) != Some("done") {
            return Obs::failure(m.get("error_kind").map_or("panic", String::as_str));
        }
        let num = |k: &str| m.get(k).and_then(|v| v.parse::<u64>().ok());
        let real = |k: &str| m.get(k).and_then(|v| v.parse::<f64>().ok());
        Obs {
            kind: "ok".to_string(),
            digest: real("digest"),
            sim_seconds: real("sim_seconds"),
            steps: num("steps"),
            messages: num("messages"),
            bytes: num("bytes_sent"),
            retransmits: num("ret_retransmits"),
            rebalance_bytes: num("reb_migrated_bytes"),
            recoveries: num("rec_failures"),
        }
    }

    /// A `run` reply of the serve wire protocol.
    pub fn of_wire_reply(line: &str) -> Obs {
        let Some(m) = parse_flat_json(line) else {
            return Obs::failure("panic");
        };
        match m.get("status").map(String::as_str) {
            Some("done") => Obs {
                kind: "ok".to_string(),
                digest: m.get("digest").and_then(|v| v.parse().ok()),
                sim_seconds: m.get("sim_seconds").and_then(|v| v.parse().ok()),
                steps: m.get("steps").and_then(|v| v.parse().ok()),
                bytes: m.get("bytes_sent").and_then(|v| v.parse().ok()),
                ..Obs::failure("ok")
            },
            Some("failed") => Obs::failure(m.get("error_kind").map_or("panic", String::as_str)),
            _ => Obs::failure("panic"),
        }
    }

    /// Outcomes an engine returns by design; a panic or a timeout is never
    /// one.
    fn is_typed_failure(&self) -> bool {
        matches!(self.kind.as_str(), "oom" | "invalid" | "failed")
    }
}

pub const GOLDEN_HEADER: &str =
    "# id\tkind\tdigest_bits\tsim_seconds_bits\tsteps\tmessages\tbytes\tretransmits\trebalance_bytes\trecoveries\treadable";

fn bits(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |v| format!("{:016x}", v.to_bits()))
}

fn count(v: Option<u64>) -> String {
    v.map_or("-".to_string(), |v| v.to_string())
}

pub fn render_golden(rows: &[(String, Obs)]) -> String {
    let mut out = String::from(GOLDEN_HEADER);
    out.push('\n');
    for (id, o) in rows {
        let readable = match (o.digest, o.sim_seconds) {
            (Some(d), Some(s)) => format!("digest={d} sim_seconds={s}"),
            (Some(d), None) => format!("digest={d}"),
            _ => String::new(),
        };
        out.push_str(&format!(
            "{id}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{readable}\n",
            o.kind,
            bits(o.digest),
            bits(o.sim_seconds),
            count(o.steps),
            count(o.messages),
            count(o.bytes),
            count(o.retransmits),
            count(o.rebalance_bytes),
            count(o.recoveries),
        ));
    }
    out
}

pub fn parse_golden(text: &str) -> Result<HashMap<String, Obs>, String> {
    let mut rows = HashMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() < 10 {
            return Err(format!("golden line {}: expected 10 fields", n + 1));
        }
        let bad = |what: &str| format!("golden line {}: bad {what}", n + 1);
        let real = |s: &str, what: &str| match s {
            "-" => Ok(None),
            s => u64::from_str_radix(s, 16)
                .map(|b| Some(f64::from_bits(b)))
                .map_err(|_| bad(what)),
        };
        let num = |s: &str, what: &str| match s {
            "-" => Ok(None),
            s => s.parse::<u64>().map(Some).map_err(|_| bad(what)),
        };
        let row = Obs {
            kind: f[1].to_string(),
            digest: real(f[2], "digest")?,
            sim_seconds: real(f[3], "sim_seconds")?,
            steps: num(f[4], "steps")?,
            messages: num(f[5], "messages")?,
            bytes: num(f[6], "bytes")?,
            retransmits: num(f[7], "retransmits")?,
            rebalance_bytes: num(f[8], "rebalance_bytes")?,
            recoveries: num(f[9], "recoveries")?,
        };
        if rows.insert(f[0].to_string(), row).is_some() {
            return Err(format!("golden line {}: duplicate id {}", n + 1, f[0]));
        }
    }
    Ok(rows)
}

/// The pinned file of `workload` at the full or smoke sizes, embedded at
/// build time (`bless` rewrites the files; the next build picks them up).
pub fn pinned(workload: &str, smoke: bool) -> HashMap<String, Obs> {
    let text = match (workload, smoke) {
        ("crossbar", false) => include_str!("../golden/crossbar.tsv"),
        ("kernels", false) => include_str!("../golden/kernels.tsv"),
        ("cluster", false) => include_str!("../golden/cluster.tsv"),
        ("serve_hot", false) => include_str!("../golden/serve_hot.tsv"),
        ("serve_churn", false) => include_str!("../golden/serve_churn.tsv"),
        ("crossbar", true) => include_str!("../golden/smoke/crossbar.tsv"),
        ("kernels", true) => include_str!("../golden/smoke/kernels.tsv"),
        ("cluster", true) => include_str!("../golden/smoke/cluster.tsv"),
        ("serve_hot", true) => include_str!("../golden/smoke/serve_hot.tsv"),
        ("serve_churn", true) => include_str!("../golden/smoke/serve_churn.tsv"),
        _ => "",
    };
    parse_golden(text).unwrap_or_else(|e| panic!("golden file of {workload} is malformed: {e}"))
}

/// Bit-exact comparison against an expectation. Every digest this
/// benchmark observes — the raw parallel kernels included — repeats
/// bit-exactly on a given thread count, so nothing is held to a tolerance.
pub fn matches(e: &Obs, got: &Obs) -> Result<(), String> {
    let same_bits = |a: Option<f64>, b: Option<f64>| a.map(f64::to_bits) == b.map(f64::to_bits);
    if e.kind != got.kind {
        return Err(format!("outcome {} (expected {})", got.kind, e.kind));
    }
    if !same_bits(e.digest, got.digest) {
        return Err(format!("digest {:?} (expected {:?})", got.digest, e.digest));
    }
    if !same_bits(e.sim_seconds, got.sim_seconds) {
        return Err(format!(
            "sim_seconds {:?} (expected {:?})",
            got.sim_seconds, e.sim_seconds
        ));
    }
    for (what, a, b) in [
        ("steps", e.steps, got.steps),
        ("messages", e.messages, got.messages),
        ("bytes", e.bytes, got.bytes),
        ("retransmits", e.retransmits, got.retransmits),
        ("rebalance_bytes", e.rebalance_bytes, got.rebalance_bytes),
        ("recoveries", e.recoveries, got.recoveries),
    ] {
        if a != b {
            return Err(format!("{what} {b:?} (expected {a:?})"));
        }
    }
    Ok(())
}

/// The conformance suite's cross-engine criterion: triangle counts and
/// BFS distance sums exactly, PageRank rank sums within 1e-6. A CF digest
/// (training RMSE) must be finite and positive: the suite also holds it
/// within 3x of the others on its own input, but the engines run
/// different optimisers (SGD native, gradient descent elsewhere) and at
/// the harness's step size GD diverges on the NetflixLike stand-in, so no
/// ratio holds across inputs.
pub fn agrees_with_native(alg: Algorithm, native: f64, got: f64) -> bool {
    match alg {
        Algorithm::PageRank => (got - native).abs() < 1e-6,
        Algorithm::Bfs | Algorithm::MsBfs | Algorithm::TriangleCount => got == native,
        Algorithm::CollaborativeFiltering => got.is_finite() && got > 0.0,
    }
}

/// How an operation of the verification pass is checked.
#[derive(Clone, Debug)]
pub struct OpCheck {
    /// Golden row id (repeats of one invocation share it).
    pub id: String,
    pub alg: Algorithm,
    /// Operations on the same input and algorithm share a group; its
    /// `is_native` member is their reference.
    pub group: String,
    pub is_native: bool,
    /// Checked against its golden row at the default seed. `false` for
    /// results that legitimately depend on the host (thread count): those
    /// must agree with the group's native reference instead.
    pub pinned: bool,
}

/// Checks the observations of a verification pass; returns one message
/// per failed operation. `golden` is the pinned file of the workload and
/// `use_golden` says whether it applies (default seed, default sizes).
pub fn verify(
    checks: &[OpCheck],
    observed: &[Obs],
    golden: &HashMap<String, Obs>,
    use_golden: bool,
) -> Vec<String> {
    assert_eq!(checks.len(), observed.len());
    let reference: HashMap<&str, f64> = checks
        .iter()
        .zip(observed)
        .filter(|(c, _)| c.is_native)
        .filter_map(|(c, o)| o.digest.map(|d| (c.group.as_str(), d)))
        .collect();
    let mut failures = Vec::new();
    for (c, o) in checks.iter().zip(observed) {
        let row = golden.get(&c.id);
        let result = if use_golden && c.pinned {
            match row {
                Some(row) => matches(row, o),
                None => Err("no golden row (run `bless`)".to_string()),
            }
        } else if let Some(d) = o.digest {
            match reference.get(c.group.as_str()) {
                Some(&native) if agrees_with_native(c.alg, native, d) => Ok(()),
                Some(&native) => Err(format!("digest {d} disagrees with native {native}")),
                None => Err("its native reference did not run".to_string()),
            }
        } else if o.is_typed_failure() && row.is_none_or(|r| r.kind == o.kind) {
            // a typed outcome the engine returns by design on this cell
            // (OOM, n/a, fail-stop); the pinned file names which cells
            Ok(())
        } else {
            Err(format!("outcome {}", o.kind))
        };
        if let Err(why) = result {
            failures.push(format!("{}: {why}", c.id));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(digest: f64) -> Obs {
        Obs {
            kind: "ok".into(),
            digest: Some(digest),
            sim_seconds: Some(0.1234567890123),
            steps: Some(5),
            messages: Some(120),
            bytes: Some(4096),
            retransmits: Some(0),
            rebalance_bytes: Some(0),
            recoveries: Some(0),
        }
    }

    fn check(id: &str, group: &str, is_native: bool, pinned: bool) -> OpCheck {
        OpCheck {
            id: id.into(),
            alg: Algorithm::Bfs,
            group: group.into(),
            is_native,
            pinned,
        }
    }

    #[test]
    fn golden_files_round_trip_bit_exactly() {
        let rows = vec![
            ("a".to_string(), full(1_702.632_231_924_876_8)),
            ("b".to_string(), Obs::failure("oom")),
            ("c".to_string(), Obs::digest_only(0.1 + 0.2)),
        ];
        let parsed = parse_golden(&render_golden(&rows)).unwrap();
        assert_eq!(parsed.len(), 3);
        for (id, row) in &rows {
            assert_eq!(&parsed[id], row);
        }
        assert!(parse_golden("x\tok\n").is_err());
        assert!(parse_golden("x\tok\tzz\t-\t-\t-\t-\t-\t-\t-\t\n").is_err());
    }

    #[test]
    fn any_differing_statistic_fails_the_operation() {
        let row = full(10.0);
        assert!(matches(&row, &full(10.0)).is_ok());
        let next_up = f64::from_bits(10.0f64.to_bits() + 1);
        assert!(
            matches(&row, &full(next_up)).is_err(),
            "one ulp is a failure"
        );
        let mut moved = full(10.0);
        moved.messages = Some(121);
        assert!(matches(&row, &moved).unwrap_err().contains("messages"));
        let mut sim = full(10.0);
        sim.sim_seconds = Some(0.1234567890124);
        assert!(matches(&row, &sim).is_err());
        assert!(matches(&row, &Obs::failure("oom")).is_err());
    }

    #[test]
    fn verification_uses_goldens_at_the_default_seed_and_native_elsewhere() {
        let checks = [
            check("native", "g", true, true),
            check("giraph", "g", false, true),
            check("socialite", "g", false, true),
            check("threads", "g", false, false),
        ];
        let golden: HashMap<String, Obs> = [
            ("native", full(42.0)),
            ("giraph", full(42.0)),
            ("socialite", Obs::failure("invalid")),
        ]
        .into_iter()
        .map(|(id, obs)| (id.to_string(), obs))
        .collect();
        let good = [full(42.0), full(42.0), Obs::failure("invalid"), full(42.0)];
        assert!(verify(&checks, &good, &golden, true).is_empty());
        assert!(verify(&checks, &good, &golden, false).is_empty());

        // a wrong digest is caught both ways; the unpinned op by agreement
        let bad = [full(42.0), full(43.0), Obs::failure("invalid"), full(41.0)];
        assert_eq!(verify(&checks, &bad, &golden, true).len(), 2);
        assert_eq!(verify(&checks, &bad, &golden, false).len(), 2);

        // an untyped failure, or a typed one where success is pinned, fails
        let broken = [
            full(42.0),
            Obs::failure("oom"),
            Obs::failure("panic"),
            full(42.0),
        ];
        assert_eq!(verify(&checks, &broken, &golden, false).len(), 2);

        // another seed changes every statistic: only agreement is checked
        let other_seed = [full(7.0), full(7.0), Obs::failure("invalid"), full(7.0)];
        assert!(verify(&checks, &other_seed, &golden, false).is_empty());
        assert_eq!(verify(&checks, &other_seed, &golden, true).len(), 2);
    }

    #[test]
    fn criterion_matches_the_conformance_suite() {
        assert!(agrees_with_native(
            Algorithm::PageRank,
            100.0,
            100.000_000_5
        ));
        assert!(!agrees_with_native(Algorithm::PageRank, 100.0, 100.000_01));
        assert!(!agrees_with_native(Algorithm::TriangleCount, 100.0, 101.0));
        assert!(agrees_with_native(
            Algorithm::CollaborativeFiltering,
            1.0,
            6.3e6
        ));
        assert!(!agrees_with_native(
            Algorithm::CollaborativeFiltering,
            1.0,
            f64::NAN
        ));
    }

    #[test]
    fn wire_replies_and_journal_lines_parse_to_the_same_observation() {
        let reply = r#"{"proto":1,"id":"q0","key":"00000000000000aa","cache":"hit","status":"done","digest":42.5,"sim_seconds":0.25,"steps":5,"iterations":5,"run_nodes":4,"bytes_sent":4096,"wall_secs":1e-5}"#;
        let o = Obs::of_wire_reply(reply);
        assert_eq!(
            (o.kind.as_str(), o.digest, o.bytes),
            ("ok", Some(42.5), Some(4096))
        );
        assert_eq!(o.messages, None, "the wire carries no message count");
        let failed =
            r#"{"proto":1,"id":"q1","status":"failed","error_kind":"invalid","error":"x"}"#;
        assert_eq!(Obs::of_wire_reply(failed), Obs::failure("invalid"));
        assert_eq!(Obs::of_wire_reply("not json").kind, "panic");
    }
}
