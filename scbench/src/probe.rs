//! The benchmark-side timing adapter: a [`Simulation`] wrapper that
//! forwards every call to the wrapped engine and accumulates host time
//! and call counts per method group. Only the traced run uses it.
//!
//! * `eval` — `settle`, `step`, `run_cycles`, the batch entry points and
//!   `reset`: the engine computing.
//! * `bridge` — `poke`, `peek` and their fallible and handle forms: port
//!   values crossing into and out of the engine.
//!
//! Each timed call reads the clock twice, which costs host time of its
//! own. [`ProbeCost::calibrate`] measures that cost on an engine that
//! does nothing, so the traced figures can be reported net of it.

use scflow_hwtypes::Bv;
use scflow_sim_api::{
    BatchError, BatchReply, EngineStats, MetricsRegistry, PortHandle, SimError, Simulation,
    Snapshot, StimulusBatch,
};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Calls and host nanoseconds spent in one method group.
#[derive(Default)]
pub struct Group {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl Group {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Host seconds measured inside the calls.
    pub fn secs(&self) -> f64 {
        self.ns.get() as f64 * 1e-9
    }
}

/// A [`Simulation`] that times every call into `inner`.
pub struct TimedSim<S> {
    /// The wrapped engine.
    pub inner: S,
    /// `settle` / `step` / batch calls.
    pub eval: Group,
    /// `poke` / `peek` calls.
    pub bridge: Group,
}

impl<S: Simulation> TimedSim<S> {
    /// Wraps `inner` with zeroed counters.
    pub fn new(inner: S) -> Self {
        TimedSim {
            inner,
            eval: Group::default(),
            bridge: Group::default(),
        }
    }

    /// Calls of both groups.
    pub fn calls(&self) -> u64 {
        self.eval.calls() + self.bridge.calls()
    }
}

impl<S: Simulation> Simulation for TimedSim<S> {
    fn step(&mut self) {
        let inner = &mut self.inner;
        self.eval.time(|| inner.step());
    }
    fn settle(&mut self) {
        let inner = &mut self.inner;
        self.eval.time(|| inner.settle());
    }
    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }
    fn try_poke(&mut self, port: &str, value: Bv) -> Result<(), SimError> {
        let inner = &mut self.inner;
        self.bridge.time(|| inner.try_poke(port, value))
    }
    fn try_peek(&self, port: &str) -> Result<Bv, SimError> {
        self.bridge.time(|| self.inner.try_peek(port))
    }
    fn has_input(&self, port: &str) -> bool {
        self.inner.has_input(port)
    }
    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }
    fn set_coverage(&mut self, enabled: bool) -> bool {
        self.inner.set_coverage(enabled)
    }
    fn coverage(&self) -> Option<&scflow_sim_api::ToggleCoverage> {
        self.inner.coverage()
    }
    fn metrics(&self) -> Option<MetricsRegistry> {
        self.inner.metrics()
    }
    fn watch(&mut self, port: &str) {
        self.inner.watch(port);
    }
    fn trace(&self, clock_period_ps: u64) -> Option<String> {
        self.inner.trace(clock_period_ps)
    }
    fn input_handle(&self, port: &str) -> Option<PortHandle> {
        self.inner.input_handle(port)
    }
    fn output_handle(&self, port: &str) -> Option<PortHandle> {
        self.inner.output_handle(port)
    }
    fn poke_handle(&mut self, handle: PortHandle, value: Bv) {
        let inner = &mut self.inner;
        self.bridge.time(|| inner.poke_handle(handle, value));
    }
    fn peek_handle(&self, handle: PortHandle) -> Bv {
        self.bridge.time(|| self.inner.peek_handle(handle))
    }
    fn run_cycles(&mut self, n: u64) {
        let inner = &mut self.inner;
        self.eval.time(|| inner.run_cycles(n));
    }
    fn poke(&mut self, port: &str, value: Bv) {
        let inner = &mut self.inner;
        self.bridge.time(|| inner.poke(port, value));
    }
    fn peek(&self, port: &str) -> Bv {
        self.bridge.time(|| self.inner.peek(port))
    }
    fn reset(&mut self) -> bool {
        let inner = &mut self.inner;
        self.eval.time(|| inner.reset())
    }
    fn snapshot(&self) -> Option<Snapshot> {
        self.inner.snapshot()
    }
    fn restore(&mut self, snapshot: &Snapshot) -> bool {
        self.inner.restore(snapshot)
    }
    fn step_batch(&mut self, batch: &StimulusBatch) -> Result<BatchReply, BatchError> {
        let inner = &mut self.inner;
        self.eval.time(|| inner.step_batch(batch))
    }
    fn step_batch_lanes(&mut self, batch: &StimulusBatch) -> Result<BatchReply, BatchError> {
        let inner = &mut self.inner;
        self.eval.time(|| inner.step_batch_lanes(batch))
    }
}

/// An engine that does nothing, used to measure what the adapter itself
/// costs per call.
struct NullSim {
    cycle: u64,
    last: Bv,
}

impl Simulation for NullSim {
    fn step(&mut self) {
        self.cycle = black_box(self.cycle + 1);
    }
    fn settle(&mut self) {
        black_box(&mut self.cycle);
    }
    fn cycle(&self) -> u64 {
        self.cycle
    }
    fn try_poke(&mut self, _port: &str, value: Bv) -> Result<(), SimError> {
        self.last = black_box(value);
        Ok(())
    }
    fn try_peek(&self, _port: &str) -> Result<Bv, SimError> {
        Ok(black_box(self.last))
    }
    fn has_input(&self, _port: &str) -> bool {
        false
    }
}

/// The adapter's own cost per timed call.
#[derive(Clone, Copy, Debug)]
pub struct ProbeCost {
    /// Nanoseconds a timed call books inside its group when the wrapped
    /// call itself takes no time.
    pub inside_ns: f64,
    /// Nanoseconds a timed call adds to the caller's wall time.
    pub total_ns: f64,
}

impl ProbeCost {
    /// Measures both costs with the per-cycle call pattern of the
    /// co-simulation bridge (three pokes, a settle, three peeks and a
    /// step), taking the median of several trials.
    pub fn calibrate() -> ProbeCost {
        const CYCLES: u64 = 200_000;
        fn pattern(sim: &mut (impl Simulation + ?Sized), cycles: u64) {
            for i in 0..cycles {
                sim.poke("in_sample", Bv::new(i & 0xffff, 16));
                sim.poke("in_sample_valid", Bv::bit(true));
                sim.poke("out_sample_ready", Bv::bit(true));
                sim.settle();
                black_box(sim.peek("in_sample_ready"));
                black_box(sim.peek("out_sample_valid"));
                black_box(sim.peek("out_sample"));
                sim.step();
            }
        }
        let fresh = || NullSim {
            cycle: 0,
            last: Bv::zero(1),
        };
        let mut inside = Vec::new();
        let mut total = Vec::new();
        for _ in 0..5 {
            let mut bare = fresh();
            let t0 = Instant::now();
            pattern(&mut bare, CYCLES);
            let bare_s = t0.elapsed().as_secs_f64();

            let mut timed = TimedSim::new(fresh());
            let t0 = Instant::now();
            pattern(&mut timed, CYCLES);
            let timed_s = t0.elapsed().as_secs_f64();
            let calls = timed.calls() as f64;
            inside.push((timed.eval.secs() + timed.bridge.secs()) * 1e9 / calls);
            total.push((timed_s - bare_s).max(0.0) * 1e9 / calls);
        }
        ProbeCost {
            inside_ns: crate::report::median(&inside),
            total_ns: crate::report::median(&total),
        }
    }
}
