//! The scflow benchmark: one command runs a named workload with a seed
//! for a time budget, checks every output, and prints every metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path scbench/Cargo.toml -- \
//!     --workload refine_src --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end
//! metrics `BENCHMARK.json` declares; `--trace 1` runs the traced
//! profile of every layer and reports the per-layer metrics. `--smoke`
//! shrinks every size so a run takes seconds (the package's tests use
//! it). See `README.md` in this directory for what each figure means.

mod atpg;
mod probe;
mod refine;
mod report;
mod serve;

use report::{Figures, Tally};
use scflow_serve::json::{obj, Json};
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "pass_s", "throughput_per_s"];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[&str] = &[
    // synth / compile (set-up layers)
    "synth.rtl_s",
    "rtlir.compile_s",
    "gate.compile_s",
    "fault.collapse_s",
    "core.golden_s",
    "serve.open_miss_ms",
    // refine_src: untraced level throughput measured beside the trace
    "channel_cycles_per_s",
    "beh_cycles_per_s",
    "cosim_rtl_cycles_per_s",
    "cosim_gate_cycles_per_s",
    // cosim / rtlir
    "cosim.rtl.dut_s",
    "cosim.rtl.bridge_s",
    "cosim.rtl.kernel_s",
    "cosim.rtl.calls_per_cycle",
    "cosim.rtl.trace_overhead",
    "cosim.rtl.cosim_over_native",
    "rtlir.native_cycles_per_s",
    "rtlir.evals_per_cycle",
    "rtlir.skipped_cones_per_cycle",
    // cosim / gate.bitpar
    "cosim.gate.dut_s",
    "cosim.gate.bridge_s",
    "cosim.gate.kernel_s",
    "cosim.gate.calls_per_cycle",
    "cosim.gate.trace_overhead",
    "gate.bitpar.evals_per_cycle",
    "gate.bitpar.skipped_ratio",
    // kernel
    "kernel.beh.deltas_per_cycle",
    "kernel.beh.polls_per_cycle",
    "kernel.beh.events_per_cycle",
    "kernel.channel.polls_per_sample",
    // atpg / fault
    "atpg_s",
    "atpg_coverage_pct",
    "atpg_patterns",
    "atpg.random_s",
    "atpg.directed_s",
    "atpg.compact_s",
    "fault.replay_s",
    "fault.replay_fault_patterns_per_s",
    "atpg.directed.detected_per_decision",
    "atpg.directed.backtracks_per_decision",
    "atpg.compact.kept_ratio",
    "atpg.random_rounds",
    "atpg.random_detected",
    "atpg.directed_detected",
    "atpg.decisions",
    "atpg.backtracks",
    "atpg.aborted",
    "atpg.patterns_before_compaction",
    // serve
    "serve_requests_per_s",
    "serve_peek_p50_us",
    "serve_peek_p99_us",
    "serve_batch_p50_us",
    "serve_batch_p99_us",
    "serve.ping.rtl.p50_us",
    "serve.ping.rtl.p99_us",
    "serve.ping.gate.p50_us",
    "serve.ping.gate.p99_us",
    "serve.poke.rtl.p50_us",
    "serve.poke.rtl.p99_us",
    "serve.poke.gate.p50_us",
    "serve.poke.gate.p99_us",
    "serve.peek.rtl.p50_us",
    "serve.peek.rtl.p99_us",
    "serve.peek.gate.p50_us",
    "serve.peek.gate.p99_us",
    "serve.step.rtl.p50_us",
    "serve.step.rtl.p99_us",
    "serve.step.gate.p50_us",
    "serve.step.gate.p99_us",
    "serve.step_batch.rtl.p50_us",
    "serve.step_batch.rtl.p99_us",
    "serve.step_batch.gate.p50_us",
    "serve.step_batch.gate.p99_us",
    "serve.step_batch_lanes.gate.p50_us",
    "serve.step_batch_lanes.gate.p99_us",
    "serve.snapshot.rtl.p50_us",
    "serve.snapshot.rtl.p90_us",
    "serve.snapshot.gate.p50_us",
    "serve.snapshot.gate.p90_us",
    "serve.restore.rtl.p50_us",
    "serve.restore.rtl.p90_us",
    "serve.restore.gate.p50_us",
    "serve.restore.gate.p90_us",
    "serve.open_hit.rtl.p50_us",
    "serve.open_hit.rtl.p90_us",
    "serve.open_hit.gate.p50_us",
    "serve.open_hit.gate.p90_us",
    "serve.engine.rtl.batch_us",
    "serve.engine.gate.batch_us",
    "serve.batch.rtl.overhead_us",
    "serve.batch.gate.overhead_us",
    "serve.json.parse_us_per_kb",
    "serve.json.render_us_per_kb",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.compiles",
    "serve.sessions.busy_rejections",
];

/// The workloads.
pub const WORKLOADS: [&str; 3] = ["refine_src", "atpg_src", "serve_mix"];

/// Relative tolerance within which layer times must sum to the untraced
/// end-to-end time (and the ATPG stage split to the untraced run).
const LAYER_SUM_TOLERANCE: f64 = 0.15;

/// Runs a set-up `reps` times (at least once); returns the last result
/// and every run's timings, so the set-up time can be reported as a median.
pub fn repeat_setup<T, U>(reps: usize, mut set_up: impl FnMut() -> (T, U)) -> (T, Vec<U>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (value, t) = set_up();
        times.push(t);
        last = Some(value);
    }
    (last.expect("at least one set-up"), times)
}

/// Back-to-back set-ups in one set-up sample.
const SETUP_BURST: usize = 3;

/// One set-up sample of the untraced runs: the fastest of `SETUP_BURST`
/// back-to-back set-ups (`secs` reads a set-up's seconds), so that a
/// sample does not follow a single stall of the host or the cold caches
/// the measured loop leaves behind. Returns the last set-up's result.
pub fn setup_sample<T, U>(set_up: impl FnMut() -> (T, U), secs: impl Fn(&U) -> f64) -> (T, f64) {
    let (value, times) = repeat_setup(SETUP_BURST, set_up);
    (value, times.iter().map(secs).fold(f64::INFINITY, f64::min))
}

/// SplitMix64: derives every seeded input from `--seed`.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                });
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// The effective configuration, recorded with the results.
struct Config {
    host_cpus: usize,
    clients: usize,
    replay_threads: usize,
    atpg_threads: usize,
    traced_setup_reps: usize,
    stimulus_samples: usize,
    serve: serve::Script,
    serve_pairs: usize,
    smoke: bool,
}

impl Config {
    fn new(smoke: bool) -> Self {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        Config {
            host_cpus,
            clients: 2.min(host_cpus),
            replay_threads: host_cpus,
            // `generate_tests` takes no thread count: with no `SCFLOW_*`
            // variable set it shards over every available CPU.
            atpg_threads: scflow_gate::fault::fault_threads(),
            traced_setup_reps: if smoke { 1 } else { 11 },
            stimulus_samples: if smoke { 300 } else { 1000 },
            serve: serve::Script {
                iterations: if smoke { 2 } else { 20 },
            },
            serve_pairs: if smoke { 2 } else { 50 },
            smoke,
        }
    }

    fn to_json(&self, args: &Args) -> Json {
        let count = |n: usize| Json::Num(n as i64);
        obj([
            ("workload", Json::Str(args.workload.clone())),
            ("seed", Json::Raw(args.seed.to_string())),
            ("seconds", Json::Raw(args.seconds.to_string())),
            ("trace", Json::Bool(args.trace)),
            ("smoke", Json::Bool(args.smoke)),
            ("host_cpus", count(self.host_cpus)),
            ("serve_clients", count(self.clients)),
            ("serve_session_pool", count(self.clients)),
            ("serve_iterations_per_session", count(self.serve.iterations)),
            ("serve_traced_pairs_per_client", count(self.serve_pairs)),
            ("atpg_threads", count(self.atpg_threads)),
            (
                "atpg_options",
                Json::Str(format!("{:?}", atpg::options(self.smoke))),
            ),
            ("replay_threads", count(self.replay_threads)),
            ("setup_burst", count(SETUP_BURST)),
            ("traced_setup_reps", count(self.traced_setup_reps)),
            ("stimulus_samples", count(self.stimulus_samples)),
            ("layer_sum_tolerance", report::num(LAYER_SUM_TOLERANCE)),
        ])
    }
}

fn run(args: &Args, cfg: &Config) -> (Figures, Tally) {
    let budget = Duration::from_secs(args.seconds);
    if !args.trace {
        let (mut f, tally) = match args.workload.as_str() {
            "refine_src" => refine::run(args.seed, cfg.stimulus_samples, budget),
            "atpg_src" => atpg::run(cfg.smoke, budget, cfg.replay_threads),
            _ => serve::run(args.seed, cfg.serve, cfg.clients, budget),
        };
        if f.get("peak_rss_mb").is_none() {
            f.set(
                "peak_rss_mb",
                report::peak_rss_mb().unwrap_or(f64::NAN),
                "MiB",
            );
        }
        return (f, tally);
    }
    // The traced run profiles every layer, whichever workload is named,
    // so each traced run reports the full per-layer set.
    let cost = probe::ProbeCost::calibrate();
    let mut f = Figures::default();
    f.set("probe.inside_ns", cost.inside_ns, "ns");
    f.set("probe.total_ns", cost.total_ns, "ns");
    let mut tally = Tally::default();
    let (r, t) = refine::traced(
        args.seed,
        cfg.stimulus_samples,
        cfg.traced_setup_reps,
        budget / 3,
        cost,
        LAYER_SUM_TOLERANCE,
    );
    f.extend(r);
    tally.add(t);
    let (a, t) = atpg::traced(
        cfg.smoke,
        cfg.traced_setup_reps,
        cfg.replay_threads,
        LAYER_SUM_TOLERANCE,
    );
    f.extend(a);
    tally.add(t);
    let (s, t) = serve::traced(
        args.seed,
        cfg.serve,
        cfg.clients,
        cfg.traced_setup_reps,
        cfg.serve_pairs,
        LAYER_SUM_TOLERANCE,
    );
    f.extend(s);
    tally.add(t);
    (f, tally)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("scflow-perfbench: {e}");
            eprintln!(
                "usage: scflow-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> \
                 [--smoke]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Library crates still read `SCFLOW_*` knobs; any of them set would
    // silently change what is measured.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SCFLOW_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "scflow-perfbench: refusing to run with {} set; unset every SCFLOW_* variable",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }

    let cfg = Config::new(args.smoke);
    let (figures, tally) = run(&args, &cfg);
    let declared: &[&str] = if args.trace { PER_LAYER } else { &END_TO_END };
    let mut result = Figures::default();
    let mut missing = Vec::new();
    for &name in declared {
        match figures.get(name) {
            Some((v, unit)) => result.set(name, v, unit),
            None => missing.push(name),
        }
    }
    let bad = result.non_finite();
    if !missing.is_empty() || !bad.is_empty() {
        eprintln!("scflow-perfbench: metrics missing {missing:?}, not finite {bad:?}");
        return ExitCode::FAILURE;
    }
    let report = obj([
        ("config", cfg.to_json(&args)),
        ("figures", figures.to_json()),
    ]);
    println!("{}", obj([("report", report)]).render());
    let outcome = obj([
        (
            "correct",
            Json::Bool(tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted", Json::Raw(tally.attempted.to_string())),
        ("failed", Json::Raw(tally.failed.to_string())),
        ("metrics", result.to_json()),
    ]);
    println!("{}", outcome.render());
    ExitCode::SUCCESS
}
