//! Reduced-size runs of every workload, in both trace modes, checking the
//! result line and that the metric names printed match `BENCHMARK.json`.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_scflow-perfbench");

/// The `name` values listed under `section` in `BENCHMARK.json`. The
/// file is scanned rather than parsed: the workspace's JSON parser takes
/// integers only, and `BENCHMARK.json` holds fractional bounds.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let rest = &text[start..];
    let end = rest.find(']').expect("section is a list");
    names_after(&rest[..end], "\"name\": \"")
}

/// Every string value following `key` in `text`.
fn names_after(text: &str, key: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find(key) {
        rest = &rest[i + key.len()..];
        let end = rest.find('"').expect("closed string");
        out.push(rest[..end].to_owned());
        rest = &rest[end..];
    }
    out
}

/// Runs one smoke run; returns the result line.
fn run(workload: &str, trace: u8) -> String {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--smoke",
    ])
    .args(["--trace", &trace.to_string()]);
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("SCFLOW_")) {
        cmd.env_remove(k);
    }
    let out = cmd.output().expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_owned()
}

fn check(workload: &str, trace: u8, section: &str) {
    let line = run(workload, trace);
    assert!(
        line.starts_with(r#"{"correct":true,"attempted":"#),
        "{line}"
    );
    assert!(line.contains(r#","failed":0,"#), "{line}");
    let metrics = &line[line.find(r#""metrics":"#).expect("metrics")..];
    // Each name ends right before `":{"value":`; the text after the last
    // value holds no name.
    let chunks: Vec<&str> = metrics.split(r#"":{"value":"#).collect();
    let printed: Vec<String> = chunks[..chunks.len() - 1]
        .iter()
        .map(|before| before[before.rfind('"').expect("quoted name") + 1..].to_owned())
        .collect();
    assert_eq!(printed, declared(section), "{workload} trace {trace}");
}

#[test]
fn refine_src_smoke() {
    check("refine_src", 0, "end_to_end");
}

#[test]
fn atpg_src_smoke() {
    check("atpg_src", 0, "end_to_end");
}

#[test]
fn serve_mix_smoke() {
    check("serve_mix", 0, "end_to_end");
}

#[test]
fn traced_smoke() {
    check("refine_src", 1, "per_layer");
}

#[test]
fn refuses_scflow_knobs() {
    let out = Command::new(BIN)
        .args([
            "--workload",
            "refine_src",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("SCFLOW_OPT", "2")
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
