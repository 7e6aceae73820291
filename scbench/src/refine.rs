//! `refine_src`: the paper's refinement loop on the SRC over one long
//! seeded stimulus — the refined-channel model, the clocked behavioural
//! kernel model, the compiled-RTL DUT in the SystemC-style testbench and
//! the RTL-flow gate netlist on the bit-parallel engine (single-pattern
//! mode) in the same testbench. Every level's output stream is compared
//! bit-exactly against the golden vectors.

use crate::probe::{ProbeCost, TimedSim};
use crate::report::{median, Figures, Tally};
use scflow::models::beh::{run_beh_model, CLOCK_PERIOD};
use scflow::models::refined::run_refined_model;
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::verify::GoldenVectors;
use scflow::{stimulus, SrcConfig};
use scflow_cosim::{run_kernel_cosim, run_native_hdl_compiled};
use scflow_gate::{CellLibrary, GateNetlist, GateProgram};
use scflow_rtl::CompiledProgram;
use scflow_sim_api::Simulation;
use scflow_synth::rtl::{synthesize, SynthOptions};
use std::time::{Duration, Instant};

/// Generous cycle cap for the co-simulation harnesses (the SRC needs
/// about 20 cycles per input sample).
const CYCLE_CAP: u64 = 1 << 32;

/// Host seconds each level accumulates per round before the next level
/// runs; short levels repeat within their slice.
const SLICE_S: f64 = 0.15;

/// The four levels, in refinement order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Level {
    /// Refined hierarchical channel (three submodules, events).
    Channel,
    /// Clocked behavioural kernel model.
    Beh,
    /// Compiled RTL DUT in the kernel testbench.
    CosimRtl,
    /// RTL-flow gate netlist on `gate.bitpar` in the kernel testbench.
    CosimGate,
}

/// All levels, in the order each round runs them.
pub const LEVELS: [Level; 4] = [
    Level::Channel,
    Level::Beh,
    Level::CosimRtl,
    Level::CosimGate,
];

impl Level {
    /// The end-to-end figure name of the level's throughput.
    pub fn metric(self) -> &'static str {
        match self {
            Level::Channel => "channel_cycles_per_s",
            Level::Beh => "beh_cycles_per_s",
            Level::CosimRtl => "cosim_rtl_cycles_per_s",
            Level::CosimGate => "cosim_gate_cycles_per_s",
        }
    }

    /// Runs of the level in one weighted pass. The counts make each level
    /// about a quarter of `pass_s` on the baseline host (see README.md),
    /// so a k-times slowdown of any one level moves `pass_s` by about
    /// (k - 1) / 4 rather than by that level's small share of the time.
    pub fn repeats(self) -> u32 {
        match self {
            Level::Channel => 800,
            Level::Beh => 3,
            Level::CosimRtl => 36,
            Level::CosimGate => 2,
        }
    }

    /// The level's tag in report-line figure names.
    pub fn tag(self) -> &'static str {
        match self {
            Level::Channel => "channel",
            Level::Beh => "beh",
            Level::CosimRtl => "cosim_rtl",
            Level::CosimGate => "cosim_gate",
        }
    }
}

/// Host seconds of one weighted pass made of the given per-run seconds.
pub fn weighted_pass(run_s: &[f64; 4]) -> f64 {
    LEVELS
        .iter()
        .zip(run_s)
        .map(|(level, s)| f64::from(level.repeats()) * s)
        .sum()
}

/// Everything the loop runs on, built from the seed.
pub struct Setup {
    cfg: SrcConfig,
    input: Vec<i16>,
    golden: GoldenVectors,
    rtl: CompiledProgram,
    gate: GateProgram,
}

/// Host seconds of each set-up phase.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    /// Golden vectors from the algorithmic model.
    pub golden: f64,
    /// Building the RTL module and synthesizing it to gates.
    pub synth: f64,
    /// Compiling the RTL module to levelized bytecode.
    pub rtl_compile: f64,
    /// Compiling the gate netlist to the bit-parallel program.
    pub gate_compile: f64,
    /// The whole set-up.
    pub total: f64,
}

/// The seeded stimulus: a tone whose frequency and amplitude derive from
/// the seed, plus seeded noise.
pub fn stimulus_for(seed: u64, n: usize, cfg: &SrcConfig) -> Vec<i16> {
    let mix = crate::splitmix(seed);
    let freq = 200.0 + (mix % 3000) as f64;
    let amp = 4000.0 + ((mix >> 16) % 5000) as f64;
    let tone = stimulus::sine(n, freq, f64::from(cfg.in_rate), amp);
    let noise = stimulus::noise(n, 6000, crate::splitmix(mix));
    tone.iter()
        .zip(&noise)
        .map(|(&t, &z)| t.saturating_add(z))
        .collect()
}

/// Builds the stimulus, golden vectors, RTL program and gate program,
/// timing each phase.
pub fn setup(seed: u64, n: usize) -> (Setup, SetupTimes) {
    let t_all = Instant::now();
    let cfg = SrcConfig::cd_to_dvd();
    let lib = CellLibrary::generic_025u();
    let input = stimulus_for(seed, n, &cfg);

    let t = Instant::now();
    let golden = GoldenVectors::generate(&cfg, input.clone());
    let golden_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let module = build_rtl_src(&cfg, RtlVariant::Optimised).expect("SRC RTL module builds");
    let netlist: GateNetlist = synthesize(&module, &lib, &SynthOptions::default())
        .expect("SRC synthesizes")
        .netlist;
    let synth_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let rtl = CompiledProgram::compile(&module).expect("SRC RTL compiles");
    let rtl_compile_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let gate = GateProgram::compile(&netlist).expect("SRC netlist levelizes");
    let gate_compile_s = t.elapsed().as_secs_f64();

    let times = SetupTimes {
        golden: golden_s,
        synth: synth_s,
        rtl_compile: rtl_compile_s,
        gate_compile: gate_compile_s,
        total: t_all.elapsed().as_secs_f64(),
    };
    (
        Setup {
            cfg,
            input,
            golden,
            rtl,
            gate,
        },
        times,
    )
}

/// Runs `level` once over the stimulus; returns the simulated 40 ns
/// cycles it covered and whether its outputs matched the golden vectors.
fn run_level(s: &Setup, level: Level) -> (f64, bool) {
    let period = CLOCK_PERIOD.as_ps() as f64;
    match level {
        Level::Channel => {
            let run = run_refined_model(&s.cfg, &s.input);
            (
                run.sim_time.as_ps() as f64 / period,
                run.outputs == s.golden.output,
            )
        }
        Level::Beh => {
            let run = run_beh_model(&s.cfg, &s.input);
            let cycles = run
                .clock_cycles
                .map_or(run.sim_time.as_ps() as f64 / period, |c| c as f64);
            (cycles, run.outputs == s.golden.output)
        }
        Level::CosimRtl => {
            let run = run_kernel_cosim(&mut s.rtl.simulator(), &s.golden, CYCLE_CAP);
            (run.cycles as f64, run.outputs == s.golden.output)
        }
        Level::CosimGate => {
            let run = run_kernel_cosim(&mut s.gate.simulator(), &s.golden, CYCLE_CAP);
            (run.cycles as f64, run.outputs == s.golden.output)
        }
    }
}

/// Per-level results of the untraced loop. Each round yields one sample
/// per level; the best sample is reported, because interference from
/// the rest of the host only ever adds time.
pub struct LoopResult {
    /// Best simulated cycles per host second, per level (LEVELS order).
    pub rate: [f64; 4],
    /// Fastest host seconds of one run over the stimulus, per level.
    pub run_s: [f64; 4],
    /// Mean host seconds of one run over the stimulus, per level.
    pub mean_run_s: [f64; 4],
    /// Rounds completed.
    pub rounds: usize,
    /// Peak resident set after the first round, MiB.
    pub first_round_rss_mb: f64,
}

/// The untraced loop: rounds of every level, each level repeating within
/// its slice, until `budget` has passed (at least `min_rounds` rounds).
/// `after_round` runs between rounds.
pub fn measure(
    s: &Setup,
    budget: Duration,
    min_rounds: usize,
    tally: &mut Tally,
    after_round: &mut dyn FnMut(),
) -> LoopResult {
    let start = Instant::now();
    let mut rates: [Vec<f64>; 4] = Default::default();
    let mut runs: [Vec<f64>; 4] = Default::default();
    let mut rounds = 0;
    let mut first_round_rss_mb = f64::NAN;
    while rounds < min_rounds || start.elapsed() < budget {
        for (i, &level) in LEVELS.iter().enumerate() {
            let (mut cycles, mut secs, mut n) = (0.0, 0.0, 0u32);
            while n == 0 || secs < SLICE_S {
                let t = Instant::now();
                let (c, ok) = run_level(s, level);
                secs += t.elapsed().as_secs_f64();
                cycles += c;
                n += 1;
                tally.record(ok);
            }
            rates[i].push(cycles / secs);
            runs[i].push(secs / f64::from(n));
        }
        rounds += 1;
        if rounds == 1 {
            first_round_rss_mb = crate::report::peak_rss_mb().unwrap_or(f64::NAN);
        }
        after_round();
    }
    LoopResult {
        rate: std::array::from_fn(|i| rates[i].iter().copied().fold(0.0, f64::max)),
        run_s: std::array::from_fn(|i| runs[i].iter().copied().fold(f64::INFINITY, f64::min)),
        mean_run_s: std::array::from_fn(|i| runs[i].iter().sum::<f64>() / runs[i].len() as f64),
        rounds,
        first_round_rss_mb,
    }
}

/// The untraced workload: set up, then run the loop for `budget`,
/// setting up again after every round so the set-up time is sampled
/// across the whole run.
pub fn run(seed: u64, n: usize, budget: Duration) -> (Figures, Tally) {
    let mut tally = Tally::default();
    let sample = || crate::setup_sample(|| setup(seed, n), |t| t.total);
    let (s, first) = sample();
    let mut setup_s = vec![first];
    let r = measure(&s, budget, 1, &mut tally, &mut || setup_s.push(sample().1));
    let mut f = Figures::default();
    f.set("setup_s", median(&setup_s), "s");
    // Sampled after one round: the kernel models grow the heap by a few
    // KiB per run, so a later sample would scale with the rounds run.
    f.set("peak_rss_mb", r.first_round_rss_mb, "MiB");
    let pass_s = weighted_pass(&r.run_s);
    let samples: u32 = LEVELS.iter().map(|l| l.repeats()).sum();
    f.set("pass_s", pass_s, "s");
    // Input samples the weighted pass processes per host second (every
    // run of every level processes the whole stimulus).
    f.set(
        "throughput_per_s",
        f64::from(samples) * s.input.len() as f64 / pass_s,
        "1/s",
    );
    for (i, level) in LEVELS.iter().enumerate() {
        f.set(level.metric(), r.rate[i], "cycles/s");
        f.set(
            format!("refine.{}.pass_share", level.tag()),
            f64::from(level.repeats()) * r.run_s[i] / pass_s,
            "ratio",
        );
    }
    f.set("refine.rounds", r.rounds as f64, "count");
    f.set("refine.stimulus_samples", s.input.len() as f64, "count");
    f.set("refine.golden_outputs", s.golden.len() as f64, "count");
    (f, tally)
}

/// Median of the whole-set-up times.
pub fn median_total(times: &[SetupTimes]) -> f64 {
    median(&times.iter().map(|t| t.total).collect::<Vec<_>>())
}

/// Accumulated co-simulation runs of one DUT, untraced and traced in
/// alternation so both see the same cache and frequency conditions.
#[derive(Default)]
struct TracedCosim {
    runs: u32,
    cycles: f64,
    untraced: f64,
    wall: f64,
    eval: f64,
    bridge: f64,
    eval_calls: f64,
    bridge_calls: f64,
    steps: f64,
    evals: f64,
    skipped: f64,
}

impl TracedCosim {
    fn add<S: Simulation>(&mut self, dut: &TimedSim<S>, cycles: u64, wall: f64) {
        let stats = dut.inner.stats();
        self.runs += 1;
        self.cycles += cycles as f64;
        self.wall += wall;
        self.eval += dut.eval.secs();
        self.bridge += dut.bridge.secs();
        self.eval_calls += dut.eval.calls() as f64;
        self.bridge_calls += dut.bridge.calls() as f64;
        self.steps += stats.cycles as f64;
        self.evals += stats.evals as f64;
        self.skipped += stats.skipped as f64;
    }

    /// Per-run layer split, net of the probe cost: (dut, bridge, kernel)
    /// seconds.
    fn split(&self, cost: ProbeCost) -> (f64, f64, f64) {
        let runs = f64::from(self.runs);
        let dut = (self.eval - self.eval_calls * cost.inside_ns * 1e-9) / runs;
        let bridge = (self.bridge - self.bridge_calls * cost.inside_ns * 1e-9) / runs;
        let calls = self.eval_calls + self.bridge_calls;
        let wall = (self.wall - calls * cost.total_ns * 1e-9) / runs;
        (dut, bridge, wall - dut - bridge)
    }
}

/// One untraced and one traced co-simulation run, engine construction
/// included in both wall times as in the untraced loop.
fn paired_runs<S: Simulation>(s: &Setup, make: impl Fn() -> S, acc: &mut TracedCosim) -> bool {
    let t = Instant::now();
    let plain = run_kernel_cosim(&mut make(), &s.golden, CYCLE_CAP);
    acc.untraced += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut dut = TimedSim::new(make());
    let run = run_kernel_cosim(&mut dut, &s.golden, CYCLE_CAP);
    acc.add(&dut, run.cycles, t.elapsed().as_secs_f64());
    plain.outputs == s.golden.output && run.outputs == s.golden.output
}

/// Alternates untraced and traced co-simulation runs of `level` until
/// `budget` has passed (at least three pairs).
fn traced_cosim(s: &Setup, level: Level, budget: Duration, tally: &mut Tally) -> TracedCosim {
    let mut acc = TracedCosim::default();
    let start = Instant::now();
    while acc.runs < 3 || start.elapsed() < budget {
        let ok = match level {
            Level::CosimRtl => paired_runs(s, || s.rtl.simulator(), &mut acc),
            Level::CosimGate => paired_runs(s, || s.gate.simulator(), &mut acc),
            _ => unreachable!("only the co-simulation levels are traced"),
        };
        tally.record(ok);
    }
    acc
}

/// The traced section: untraced reference rounds, then the co-simulation
/// levels through the timing adapter, the native all-compiled RTL run and
/// the kernel models' activity counters.
pub fn traced(
    seed: u64,
    n: usize,
    setup_reps: usize,
    budget: Duration,
    cost: ProbeCost,
    tol: f64,
) -> (Figures, Tally) {
    let mut tally = Tally::default();
    let mut f = Figures::default();
    let (s, times) = crate::repeat_setup(setup_reps, || setup(seed, n));
    let med = |pick: fn(&SetupTimes) -> f64| median(&times.iter().map(pick).collect::<Vec<_>>());
    f.set("synth.rtl_s", med(|t| t.synth), "s");
    f.set("rtlir.compile_s", med(|t| t.rtl_compile), "s");
    f.set("gate.compile_s", med(|t| t.gate_compile), "s");
    f.set("core.golden_s", med(|t| t.golden), "s");
    f.set("refine.setup_s", median_total(&times), "s");

    // Untraced reference figures, measured in this process.
    let reference = measure(&s, budget / 2, 2, &mut tally, &mut || {});
    for (i, level) in LEVELS.iter().enumerate() {
        f.set(level.metric(), reference.rate[i], "cycles/s");
    }

    // One weighted pass split by layer (kernel, bridge, RTL DUT, gate
    // DUT), against the untraced time of the same pass from the same
    // runs' means. The channel and behavioural levels are one layer each,
    // the kernel, so their layer time is their untraced run time.
    const PASS_LAYERS: [&str; 4] = ["kernel", "bridge", "rtl_dut", "gate_dut"];
    let mut pass = [0.0; 4];
    let mut untraced_pass = 0.0;
    for (i, level) in LEVELS.iter().enumerate().take(2) {
        let secs = f64::from(level.repeats()) * reference.mean_run_s[i];
        pass[0] += secs;
        untraced_pass += secs;
    }
    for (level, tag) in [(Level::CosimRtl, "rtl"), (Level::CosimGate, "gate")] {
        let t = traced_cosim(&s, level, budget / 4, &mut tally);
        let (dut, bridge, kernel) = t.split(cost);
        let untraced_run_s = t.untraced / f64::from(t.runs);
        let reps = f64::from(level.repeats());
        untraced_pass += reps * untraced_run_s;
        pass[0] += reps * kernel;
        pass[1] += reps * bridge;
        pass[if level == Level::CosimRtl { 2 } else { 3 }] += reps * dut;
        f.set(format!("cosim.{tag}.dut_s"), dut, "s");
        f.set(format!("cosim.{tag}.bridge_s"), bridge, "s");
        f.set(format!("cosim.{tag}.kernel_s"), kernel, "s");
        f.set(
            format!("cosim.{tag}.calls_per_cycle"),
            (t.eval_calls + t.bridge_calls) / t.cycles,
            "1/cycle",
        );
        // Traced over untraced throughput: below 1 by the adapter's cost.
        f.set(
            format!("cosim.{tag}.trace_overhead"),
            t.untraced / t.wall,
            "ratio",
        );
        let layer_sum_ratio = (dut + bridge + kernel) / untraced_run_s;
        f.set(
            format!("cosim.{tag}.layer_sum_ratio"),
            layer_sum_ratio,
            "ratio",
        );
        if (layer_sum_ratio - 1.0).abs() > tol {
            eprintln!(
                "note: cosim.{tag} layer times sum to {layer_sum_ratio:.3}x the untraced run \
                 time (tolerance {tol})"
            );
        }
        match level {
            Level::CosimRtl => {
                f.set("rtlir.evals_per_cycle", t.evals / t.steps, "1/cycle");
                f.set(
                    "rtlir.skipped_cones_per_cycle",
                    t.skipped / t.steps,
                    "1/cycle",
                );
            }
            _ => {
                f.set("gate.bitpar.evals_per_cycle", t.evals / t.steps, "1/cycle");
                // Sweep opportunities: every explicit settle plus the
                // gated leading settle and the ungated trailing sweep of
                // each step.
                let settles = t.eval_calls - t.steps;
                let sweeps = t.evals / s.gate.instr_count() as f64;
                f.set(
                    "gate.bitpar.skipped_ratio",
                    1.0 - sweeps / (settles + 2.0 * t.steps),
                    "ratio",
                );
            }
        }
    }

    for (layer, secs) in PASS_LAYERS.iter().zip(pass) {
        f.set(format!("refine.pass.{layer}_s"), secs, "s");
    }
    f.set("refine.pass.untraced_s", untraced_pass, "s");
    let layer_sum_ratio = pass.iter().sum::<f64>() / untraced_pass;
    f.set("refine.layer_sum_ratio", layer_sum_ratio, "ratio");
    if (layer_sum_ratio - 1.0).abs() > tol {
        eprintln!(
            "note: refine pass layer times sum to {layer_sum_ratio:.3}x the untraced pass time \
             (tolerance {tol})"
        );
    }

    // The same RTL DUT in the all-compiled native testbench, alternated
    // with the kernel co-simulation so the ratio compares like moments;
    // best run of each, as for the reference figures.
    let (mut native, mut cosim): (f64, f64) = (0.0, 0.0);
    let (start, mut runs) = (Instant::now(), 0);
    while runs < 3 || start.elapsed() < budget / 8 {
        let t = Instant::now();
        let run = run_native_hdl_compiled(&mut s.rtl.simulator(), &s.golden, CYCLE_CAP);
        native = native.max(run.cycles as f64 / t.elapsed().as_secs_f64());
        tally.record(run.outputs == s.golden.output && run.testbench_errors == 0);
        let t = Instant::now();
        let run = run_kernel_cosim(&mut s.rtl.simulator(), &s.golden, CYCLE_CAP);
        cosim = cosim.max(run.cycles as f64 / t.elapsed().as_secs_f64());
        tally.record(run.outputs == s.golden.output);
        runs += 1;
    }
    f.set("rtlir.native_cycles_per_s", native, "cycles/s");
    f.set("cosim.rtl.cosim_over_native", cosim / native, "ratio");

    // Kernel activity of the two kernel models (deterministic counts).
    let beh = run_beh_model(&s.cfg, &s.input);
    tally.record(beh.outputs == s.golden.output);
    let st = beh.stats.expect("kernel model reports stats");
    let cycles = beh.clock_cycles.expect("clocked model counts cycles") as f64;
    f.set(
        "kernel.beh.deltas_per_cycle",
        st.delta_cycles as f64 / cycles,
        "1/cycle",
    );
    f.set(
        "kernel.beh.polls_per_cycle",
        st.processes_polled as f64 / cycles,
        "1/cycle",
    );
    f.set(
        "kernel.beh.events_per_cycle",
        st.events_fired as f64 / cycles,
        "1/cycle",
    );
    let ch = run_refined_model(&s.cfg, &s.input);
    tally.record(ch.outputs == s.golden.output);
    let st = ch.stats.expect("kernel model reports stats");
    f.set(
        "kernel.channel.polls_per_sample",
        st.processes_polled as f64 / s.golden.len() as f64,
        "1/sample",
    );
    (f, tally)
}
