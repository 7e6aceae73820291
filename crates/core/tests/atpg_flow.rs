//! Flow-level ATPG regressions on the synthesized SRC: fault collapsing
//! must not change the detected set, and `run_atpg_flow` must be
//! bit-identical regardless of PPSFP thread count.

use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::SrcConfig;
use scflow_gate::fault::{
    all_fault_sites, collapse_faults, fault_coverage_with_threads, fault_threads,
};
use scflow_gate::{generate_tests, AtpgOptions, CellLibrary};
use scflow_synth::rtl::{synthesize, SynthOptions};

/// A reduced budget keeps the runs to a couple of seconds each; the
/// properties under test do not depend on closing full coverage.
fn quick_opts() -> AtpgOptions {
    AtpgOptions {
        random_max: 8,
        budget: 16,
        ..AtpgOptions::default()
    }
}

/// Equivalence-class collapsing is an optimisation, not an
/// approximation: simulating the emitted patterns against the collapsed
/// representatives and expanding via the class map must give exactly
/// the detected set of simulating the full uncollapsed fault list.
#[test]
fn collapsed_and_uncollapsed_detected_sets_agree_on_src() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("rtl");
    let nl = synthesize(&module, &lib, &SynthOptions::default())
        .expect("synth")
        .netlist;

    let all = all_fault_sites(&nl);
    let collapsed = collapse_faults(&nl, &all);
    assert!(collapsed.faults.len() < all.len(), "collapsing had no effect");

    let r = generate_tests(&nl, &lib, &collapsed.faults, &quick_opts());
    assert!(!r.patterns.is_empty());

    let threads = fault_threads();
    let rep = fault_coverage_with_threads(&nl, &lib, &collapsed.faults, &r.patterns, threads);
    let expanded = collapsed.expand_mask(&rep.detected_mask);
    let full = fault_coverage_with_threads(&nl, &lib, &all, &r.patterns, threads);
    assert_eq!(
        expanded, full.detected_mask,
        "collapsed-then-expanded detected set diverges from the uncollapsed run"
    );
}

/// `run_atpg_flow` output — patterns, per-fault classes, and the
/// coverage curve — must not depend on how the PPSFP stages are
/// scheduled. The thread count is an option value, so the ladder needs no
/// process environment and runs beside the other test.
#[test]
fn atpg_flow_deterministic_across_thread_counts() {
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();

    let mut reference = None;
    for threads in [1, 2, 4, 8] {
        let opts = AtpgOptions {
            threads,
            ..quick_opts()
        };
        let (report, result) = scflow::flow::run_atpg_flow(&cfg, &lib, &opts).expect("flow");
        assert_eq!(report.threads, threads);
        let key = (result.patterns, result.classes, result.stats.curve);
        match &reference {
            None => reference = Some((key, report.coverage_pct)),
            Some(((pats, classes, curve), ref_cov)) => {
                let div = scflow_testkit::first_divergence("patterns", pats, &key.0)
                    .or_else(|| scflow_testkit::first_divergence("classes", classes, &key.1))
                    .or_else(|| scflow_testkit::first_divergence("curve", curve, &key.2));
                assert!(
                    div.is_none(),
                    "ATPG output diverged at {threads} threads: {}",
                    div.unwrap()
                );
                assert_eq!(ref_cov, &report.coverage_pct);
            }
        }
    }
}
