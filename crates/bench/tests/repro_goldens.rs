//! The whole reproduction as one golden: `repro all --scale 10 --jobs 2`
//! is a pure function of (experiments, scale, seed), so every byte it
//! writes is pinned in `tests/golden/repro_scale10.tsv`, one row each
//! for
//!
//! * every output file except the journal: name, byte length, FNV-1a;
//! * every journal line with its host-clock `wall_secs` field removed,
//!   keyed `experiment/key` and sorted (workers append in finish order):
//!   label, framework and digest for the reader, then byte length and
//!   FNV-1a of the whole line;
//! * every stdout section between the `====` separators, leaving out
//!   the header and the footer (they name the jobs count and the
//!   output path): index and title, byte length, FNV-1a.
//!
//! On a mismatch the test writes the actual rows next to its output
//! directory and fails naming the first differing row. Re-bless by
//! copying that file over the golden, only in a change that says why
//! the paper's numbers moved.
//!
//! Seconds in release and under the workspace's dev profile
//! (`opt-level = 1`); an unoptimized build would take minutes.

use std::path::Path;
use std::process::Command;

const SEPARATOR: &str =
    "========================================================================\n";

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The raw value of member `name` in a flat journal line, unquoted
/// when it is a string.
fn field<'a>(line: &'a str, name: &str) -> &'a str {
    let tag = format!("\"{name}\":");
    let Some(at) = line.find(&tag) else {
        return "-";
    };
    let value = &line[at + tag.len()..];
    match value.strip_prefix('"') {
        Some(s) => &s[..s.find('"').expect("closing quote")],
        None => &value[..value.find([',', '}']).expect("end of number")],
    }
}

/// The line with its `,"wall_secs":<number>` member cut out.
fn without_wall_secs(line: &str) -> String {
    let start = line.find(",\"wall_secs\":").expect("wall_secs field");
    let rest = &line[start + 1..];
    let end = rest.find([',', '}']).expect("end of wall_secs");
    format!("{}{}", &line[..start], &rest[end..])
}

fn golden_rows(out: &Path, stdout: &str) -> Vec<String> {
    let mut rows = Vec::new();
    let mut names: Vec<String> = std::fs::read_dir(out)
        .expect("output dir")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    names.sort();
    for name in names.iter().filter(|n| *n != "journal.jsonl") {
        let bytes = std::fs::read(out.join(name)).expect("output file");
        rows.push(format!(
            "file\t{name}\t{}\t{:016x}",
            bytes.len(),
            fnv1a(&bytes)
        ));
    }
    let journal = std::fs::read_to_string(out.join("journal.jsonl")).expect("journal");
    let mut lines: Vec<String> = journal
        .lines()
        .map(|l| {
            let pinned = without_wall_secs(l);
            format!(
                "journal\t{}/{}\t{}\t{}\t{}\t{}\t{:016x}",
                field(l, "experiment"),
                field(l, "key"),
                field(l, "label"),
                field(l, "framework"),
                field(l, "digest"),
                pinned.len(),
                fnv1a(pinned.as_bytes())
            )
        })
        .collect();
    lines.sort();
    rows.extend(lines);
    let (_header, body) = stdout.split_once("\n\n").expect("stdout header");
    let mut sections: Vec<&str> = body.split(SEPARATOR).collect();
    sections.pop(); // the footer after the last separator
    for (i, section) in sections.iter().enumerate() {
        let title = section.lines().find(|l| !l.is_empty()).unwrap_or("");
        rows.push(format!(
            "stdout\t{i:02} {}\t{}\t{:016x}",
            title.replace('\t', " "),
            section.len(),
            fnv1a(section.as_bytes())
        ));
    }
    rows
}

#[test]
fn repro_all_at_scale_10_matches_the_golden() {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_goldens");
    let out = work.join("out");
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("temp dir");
    let run = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "10", "--jobs", "2", "--out"])
        .arg(&out)
        .output()
        .expect("run repro");
    assert!(
        run.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout).expect("utf-8 stdout");
    let actual = golden_rows(&out, &stdout);

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/repro_scale10.tsv");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let expected: Vec<&str> = golden.lines().collect();
    if expected == actual {
        return;
    }
    let actual_path = work.join("repro_scale10.tsv");
    std::fs::write(&actual_path, actual.join("\n") + "\n").expect("write actual rows");
    let first = (0..expected.len().max(actual.len()))
        .find(|&i| expected.get(i).copied() != actual.get(i).map(String::as_str))
        .expect("some row differs");
    panic!(
        "repro output differs from {} at row {}:\n  expected: {}\n  actual:   {}\n\
         actual rows written to {}; copy them over the golden to re-bless",
        golden_path.display(),
        first + 1,
        expected.get(first).unwrap_or(&"<none>"),
        actual.get(first).map_or("<none>", String::as_str),
        actual_path.display(),
    );
}
