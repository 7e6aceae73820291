//! `atpg_src`: `generate_tests` with the default options on the
//! scan-inserted SRC netlist's collapsed stuck-at fault list. Every run's
//! result must repeat exactly, and the final pattern set is replayed
//! through PPSFP fault simulation, which must re-detect every class the
//! generator classified as detected.

use crate::report::{median, Figures, Tally};
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::SrcConfig;
use scflow_gate::fault::{self, FaultSite};
use scflow_gate::{generate_tests, AtpgOptions, AtpgResult, CellLibrary, FaultClass, GateNetlist};
use scflow_synth::rtl::{synthesize, SynthOptions};
use std::time::{Duration, Instant};

/// Rounds of the three generator configurations the traced run times.
const STAGE_ROUNDS: usize = 2;

/// The netlist and its collapsed fault list.
pub struct Setup {
    lib: CellLibrary,
    netlist: GateNetlist,
    faults: Vec<FaultSite>,
}

/// Host seconds of each set-up phase.
#[derive(Clone, Copy)]
pub struct SetupTimes {
    /// Enumerating and collapsing the fault list.
    pub collapse: f64,
    /// The whole set-up.
    pub total: f64,
}

/// The smoke run keeps every `SMOKE_STRIDE`-th collapsed class.
const SMOKE_STRIDE: usize = 16;

/// Builds the netlist and collapses its fault list.
pub fn setup(smoke: bool) -> (Setup, SetupTimes) {
    let t_all = Instant::now();
    let lib = CellLibrary::generic_025u();
    let module =
        build_rtl_src(&SrcConfig::cd_to_dvd(), RtlVariant::Optimised).expect("SRC RTL builds");
    let netlist = synthesize(&module, &lib, &SynthOptions::default())
        .expect("SRC synthesizes")
        .netlist;
    let t = Instant::now();
    let all = fault::all_fault_sites(&netlist);
    let mut faults = fault::collapse_faults(&netlist, &all).faults;
    let collapse = t.elapsed().as_secs_f64();
    if smoke {
        faults = faults.into_iter().step_by(SMOKE_STRIDE).collect();
    }
    let times = SetupTimes {
        collapse,
        total: t_all.elapsed().as_secs_f64(),
    };
    (
        Setup {
            lib,
            netlist,
            faults,
        },
        times,
    )
}

/// The generator options the workload runs: the library defaults, with a
/// short random stage in the smoke run.
pub fn options(smoke: bool) -> AtpgOptions {
    let mut o = AtpgOptions::default();
    if smoke {
        o.random_max = 4;
        o.budget = 20;
    }
    o
}

/// Replays the final patterns with PPSFP on `threads` workers; true when
/// every class classified as detected is detected again. Returns the
/// check and the replay's host seconds.
fn replay(s: &Setup, r: &AtpgResult, threads: usize) -> (bool, f64) {
    let t = Instant::now();
    let cov =
        fault::fault_coverage_with_threads(&s.netlist, &s.lib, &s.faults, &r.patterns, threads);
    let secs = t.elapsed().as_secs_f64();
    let ok = r
        .classes
        .iter()
        .zip(&cov.detected_mask)
        .all(|(c, &hit)| !matches!(c, FaultClass::Detected { .. }) || hit);
    (ok && cov.total == s.faults.len(), secs)
}

/// The result fields that must repeat exactly between runs.
fn same_result(a: &AtpgResult, b: &AtpgResult) -> bool {
    a.classes == b.classes
        && a.patterns.len() == b.patterns.len()
        && a.stats.random_rounds == b.stats.random_rounds
        && a.stats.decisions == b.stats.decisions
}

fn timed(s: &Setup, opts: &AtpgOptions) -> (AtpgResult, f64) {
    let t = Instant::now();
    let r = generate_tests(&s.netlist, &s.lib, &s.faults, opts);
    (r, t.elapsed().as_secs_f64())
}

/// Set-up samples taken after each generator run, to sample the set-up
/// time across the whole run.
const SETUPS_PER_RUN: usize = 2;

/// The untraced workload: set up, then run the generator until `budget`
/// has passed (at least once), checking every run.
pub fn run(smoke: bool, budget: Duration, threads: usize) -> (Figures, Tally) {
    let mut tally = Tally::default();
    let sample = || crate::setup_sample(|| setup(smoke), |t| t.total);
    let (s, first) = sample();
    let mut setup_s = vec![first];
    let opts = options(smoke);
    let start = Instant::now();
    let mut secs: Vec<f64> = Vec::new();
    let mut first: Option<AtpgResult> = None;
    // Start another run only if the fastest so far would still end
    // within the budget, so a run never overshoots by a whole run.
    let fastest = |secs: &[f64]| secs.iter().copied().fold(f64::INFINITY, f64::min);
    while secs.is_empty() || start.elapsed().as_secs_f64() + fastest(&secs) <= budget.as_secs_f64()
    {
        let (r, t) = timed(&s, &opts);
        secs.push(t);
        let ok = match &first {
            None => replay(&s, &r, threads).0,
            Some(f) => same_result(f, &r),
        };
        tally.record(ok);
        first.get_or_insert(r);
        setup_s.extend((0..SETUPS_PER_RUN).map(|_| sample().1));
    }
    let r = first.expect("at least one run");
    // The fastest run: interference from the rest of the host only ever
    // adds time.
    let atpg_s = fastest(&secs);
    let mut f = Figures::default();
    f.set("setup_s", median(&setup_s), "s");
    f.set("pass_s", atpg_s, "s");
    f.set("throughput_per_s", s.faults.len() as f64 / atpg_s, "1/s");
    f.set("atpg_s", atpg_s, "s");
    f.set("atpg_coverage_pct", r.coverage_pct(), "%");
    f.set("atpg_patterns", r.patterns.len() as f64, "count");
    f.set("atpg.runs", secs.len() as f64, "count");
    f.set("atpg.fault_classes", s.faults.len() as f64, "count");
    (f, tally)
}

/// The traced section: one reference run, then the generator three ways
/// (random stage only, both stages, default with compaction) in
/// interleaved rounds so the differences attribute its time to the
/// stages; plus the replay timing and the generator's exact counts.
pub fn traced(smoke: bool, setup_reps: usize, threads: usize, tol: f64) -> (Figures, Tally) {
    let mut tally = Tally::default();
    let mut f = Figures::default();
    let (s, times) = crate::repeat_setup(setup_reps, || setup(smoke));
    f.set(
        "fault.collapse_s",
        median(&times.iter().map(|t| t.collapse).collect::<Vec<_>>()),
        "s",
    );
    let base = options(smoke);

    let (reference, atpg_s) = timed(&s, &base);
    let (replay_ok, replay_s) = replay(&s, &reference, threads);
    tally.record(replay_ok);
    let random_only = AtpgOptions {
        directed: false,
        compact: false,
        ..base.clone()
    };
    let no_compact = AtpgOptions {
        compact: false,
        ..base.clone()
    };
    // Two rounds of the three ways, interleaved; each stage time is the
    // difference of the per-way medians.
    let ways = [random_only, no_compact, base];
    let mut secs: [Vec<f64>; 3] = Default::default();
    for _ in 0..STAGE_ROUNDS {
        for (i, opts) in ways.iter().enumerate() {
            let (r, t) = timed(&s, opts);
            secs[i].push(t);
            // The random stage must match the reference in every run, and
            // the default run must repeat it exactly.
            tally.record(
                r.stats.random_rounds == reference.stats.random_rounds
                    && r.stats.random_detected == reference.stats.random_detected
                    && (i < 2 || same_result(&reference, &r)),
            );
        }
    }
    let [t1, t2, t3] = secs.map(|v| median(&v));
    let (random_s, directed_s, compact_s) = (t1, t2 - t1, t3 - t2);
    f.set("atpg_s", atpg_s, "s");
    f.set("atpg_coverage_pct", reference.coverage_pct(), "%");
    f.set("atpg_patterns", reference.patterns.len() as f64, "count");
    f.set("atpg.random_s", random_s, "s");
    f.set("atpg.directed_s", directed_s, "s");
    f.set("atpg.compact_s", compact_s, "s");
    let split_ratio = (random_s + directed_s + compact_s) / atpg_s;
    f.set("atpg.split_sum_ratio", split_ratio, "ratio");
    if (split_ratio - 1.0).abs() > tol || directed_s < 0.0 || compact_s < 0.0 {
        eprintln!(
            "note: ATPG stage split is unreliable: stages {random_s:.3}+{directed_s:.3}+\
             {compact_s:.3} s against {atpg_s:.3} s (tolerance {tol})"
        );
    }
    f.set("fault.replay_s", replay_s, "s");
    f.set(
        "fault.replay_fault_patterns_per_s",
        (s.faults.len() * reference.patterns.len()) as f64 / replay_s,
        "1/s",
    );
    let st = &reference.stats;
    let decisions = st.decisions.max(1) as f64;
    f.set(
        "atpg.directed.detected_per_decision",
        st.directed_detected as f64 / decisions,
        "ratio",
    );
    f.set(
        "atpg.directed.backtracks_per_decision",
        st.backtracks as f64 / decisions,
        "ratio",
    );
    f.set(
        "atpg.compact.kept_ratio",
        reference.patterns.len() as f64 / st.patterns_before_compaction.max(1) as f64,
        "ratio",
    );
    f.set("atpg.random_rounds", st.random_rounds as f64, "count");
    f.set("atpg.random_detected", st.random_detected as f64, "count");
    f.set(
        "atpg.directed_detected",
        st.directed_detected as f64,
        "count",
    );
    f.set("atpg.decisions", st.decisions as f64, "count");
    f.set("atpg.backtracks", st.backtracks as f64, "count");
    f.set("atpg.aborted", reference.aborted() as f64, "count");
    f.set(
        "atpg.patterns_before_compaction",
        st.patterns_before_compaction as f64,
        "count",
    );
    (f, tally)
}
