//! ATPG bench: staged random + PODEM pattern generation on the
//! synthesized RTL SRC and on a generator-family netlist, reporting
//! coverage, pattern count, and per-stage yield. Emits `BENCH_atpg.json`.
//!
//! The SRC run is the paper-facing number (collapsed stuck-at coverage
//! with scan DFT inserted); the AdderTree run probes scaling at 10^4
//! gates. Set `SCFLOW_ATPG_BENCH_LARGE=1` to add a 10^5-gate run.

use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::SrcConfig;
use scflow_gate::fault::{all_fault_sites, collapse_faults};
use scflow_gate::gen::{generate, GenKind, GenParams, Redundancy};
use scflow_gate::{generate_tests, insert_scan_chain, AtpgOptions, CellLibrary, GateNetlist};
use scflow_synth::rtl::{synthesize, SynthOptions};
use scflow_testkit::Harness;

struct RunStats {
    faults: usize,
    detected: usize,
    untestable: usize,
    aborted: usize,
    coverage_pct: f64,
    patterns: usize,
}

fn run_atpg(nl: &GateNetlist, lib: &CellLibrary, opts: &AtpgOptions) -> RunStats {
    let faults = all_fault_sites(nl);
    let collapsed = collapse_faults(nl, &faults);
    let r = generate_tests(nl, lib, &collapsed.faults, opts);
    RunStats {
        faults: collapsed.faults.len(),
        detected: r.detected(),
        untestable: r.untestable(),
        aborted: r.aborted(),
        coverage_pct: r.coverage_pct(),
        patterns: r.patterns.len(),
    }
}

fn record(h: &mut Harness, s: &RunStats) {
    h.metric("faults", s.faults as f64);
    h.metric("detected", s.detected as f64);
    h.metric("untestable", s.untestable as f64);
    h.metric("aborted", s.aborted as f64);
    h.metric("coverage_pct", s.coverage_pct);
    h.metric("patterns", s.patterns as f64);
}

fn gen_netlist(gates: usize) -> GateNetlist {
    let mut p = GenParams::sized(GenKind::AdderTree, gates, 7);
    p.redundancy = Redundancy::none();
    insert_scan_chain(&generate(&p))
}

fn main() {
    let lib = CellLibrary::generic_025u();
    // The documented baseline, on `SCFLOW_FAULT_THREADS` workers.
    let opts = AtpgOptions {
        threads: scflow::flow::FlowOptions::from_env()
            .unwrap_or_else(|e| panic!("{e}"))
            .atpg
            .threads,
        ..AtpgOptions::default()
    };

    let cfg = SrcConfig::cd_to_dvd();
    let rtl_module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    // synthesize() stitches the scan chain in by default.
    let src = synthesize(&rtl_module, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;

    let mut h = Harness::new("atpg_coverage").with_iters(1).with_warmup(0);

    let mut src_stats = None;
    h.bench("atpg_src", || {
        let s = run_atpg(&src, &lib, &opts);
        let pct = s.coverage_pct;
        src_stats = Some(s);
        pct
    });
    let src_stats = src_stats.expect("src bench ran");
    record(&mut h, &src_stats);
    assert!(
        src_stats.coverage_pct >= 95.0,
        "SRC stuck-at coverage regressed below 95% ({:.1}%)",
        src_stats.coverage_pct
    );

    let mut gen_stats = None;
    let gen10k = gen_netlist(10_000);
    h.bench("atpg_gen_adder_10k", || {
        let s = run_atpg(&gen10k, &lib, &opts);
        let pct = s.coverage_pct;
        gen_stats = Some(s);
        pct
    });
    record(&mut h, &gen_stats.expect("gen bench ran"));

    let large = std::env::var("SCFLOW_ATPG_BENCH_LARGE").is_ok_and(|v| v == "1");
    if large {
        let mut stats = None;
        let gen100k = gen_netlist(100_000);
        h.bench("atpg_gen_adder_100k", || {
            let s = run_atpg(&gen100k, &lib, &opts);
            let pct = s.coverage_pct;
            stats = Some(s);
            pct
        });
        record(&mut h, &stats.expect("large gen bench ran"));
    }

    print!("{}", h.table());
    println!(
        "\nSRC: {} collapsed faults, {:.1}% coverage, {} compacted patterns ({} aborted)",
        src_stats.faults, src_stats.coverage_pct, src_stats.patterns, src_stats.aborted
    );
    if !large {
        println!("set SCFLOW_ATPG_BENCH_LARGE=1 for the 10^5-gate run");
    }

    let path = scflow_bench::bench_output_path("BENCH_atpg.json");
    h.write_json(&path).expect("write BENCH_atpg.json");
    println!("\nwrote {}", path.display());
}
