//! What the scan chain's silicon pays for: manufacturing test.
//!
//! The paper includes the scan chain in every reported area ("a scan
//! chain, however, is included in all designs"). This example runs a
//! scan-based stuck-at test campaign on the synthesised SRC: random
//! patterns are shifted through the chain, one functional cycle is
//! captured, and the response signature is compared against the fault-free
//! circuit for a sample of injected faults.
//!
//! ```text
//! cargo run --release -p scflow --example scan_test
//! ```

use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::SrcConfig;
use scflow_gate::fault::{
    all_fault_sites, fault_coverage_with_threads, fault_threads, random_patterns,
};
use scflow_gate::CellLibrary;
use scflow_synth::rtl::{synthesize, SynthOptions};

fn main() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let netlist = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synthesis")
        .netlist;
    println!(
        "DUT: {} — {} cells, {} scan flops",
        netlist.name(),
        netlist.instances().len(),
        netlist.flop_count()
    );

    // Sample the fault list (a full campaign runs the same loop over all
    // faults; the sample keeps the example fast).
    let all = all_fault_sites(&netlist);
    let sampled: Vec<_> = all.iter().step_by(97).copied().collect();
    let patterns = random_patterns(&netlist, 24, 0xC0FFEE);
    println!(
        "injecting {} of {} single-stuck-at faults, {} random scan patterns",
        sampled.len(),
        all.len(),
        patterns.len()
    );

    let result = fault_coverage_with_threads(&netlist, &lib, &sampled, &patterns, fault_threads());
    println!(
        "detected {}/{} -> {:.1}% sampled fault coverage",
        result.detected,
        result.total,
        result.coverage_pct()
    );
    assert!(
        result.coverage_pct() > 50.0,
        "random patterns should catch most sampled faults"
    );
    println!("scan-test campaign complete.");
}
