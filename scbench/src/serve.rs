//! `serve_mix`: a closed loop of client threads over
//! `Server::handle_line`. Each client alternates between an
//! `rtl.compiled` and a `gate.bitpar` session on the `rtl_opt` design;
//! every session opens through the compile cache (a hit), checks one
//! sequential `step_batch` against the same stimulus driven straight on
//! the engine, runs a fixed number of mix iterations (ping, pokes, peeks,
//! a step, a 16-item sequential `step_batch` and, on `gate.bitpar`, a
//! lanes-mode `step_batch`), takes a snapshot, restores it and closes.
//! Every reply must carry `"ok":true`.

use crate::report::{median, quantile, Figures, Tally};
use scflow::flow::ServeOptions;
use scflow::models::rtl::{build_rtl_src, RtlVariant};
use scflow::SrcConfig;
use scflow_gate::{CellLibrary, GateProgram};
use scflow_hwtypes::Bv;
use scflow_rtl::CompiledProgram;
use scflow_serve::json::{self, Json};
use scflow_serve::Server;
use scflow_sim_api::{Simulation, StimulusBatch, StimulusItem};
use scflow_synth::rtl::{synthesize, SynthOptions};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The two session engines, in the order a client pair opens them.
pub const ENGINES: [(&str, &str); 2] = [("rtl.compiled", "rtl"), ("gate.bitpar", "gate")];

/// Items per sequential `step_batch` (and per check batch).
const BATCH_ITEMS: usize = 16;
/// Items per lanes-mode `step_batch`, and the cycles each runs.
const LANES_ITEMS: usize = 16;
const LANES_CYCLES: u64 = 4;
/// Outputs every batch reads back.
const READ: [&str; 3] = ["in_sample_ready", "out_sample_valid", "out_sample"];

/// The request kinds whose latency is recorded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// `ping`: parse, dispatch and encode only.
    Ping,
    /// `poke`.
    Poke,
    /// `peek`.
    Peek,
    /// `step` of one cycle.
    Step,
    /// Sequential `step_batch`.
    StepBatch,
    /// Lanes-mode `step_batch` (`gate.bitpar` only).
    StepBatchLanes,
    /// `snapshot`.
    Snapshot,
    /// `restore`.
    Restore,
    /// `open_session` served from the compile cache.
    OpenHit,
    /// `close`.
    Close,
}

/// Every recorded op, in report order.
pub const OPS: [Op; 10] = [
    Op::Ping,
    Op::Poke,
    Op::Peek,
    Op::Step,
    Op::StepBatch,
    Op::StepBatchLanes,
    Op::Snapshot,
    Op::Restore,
    Op::OpenHit,
    Op::Close,
];

impl Op {
    /// The op's name in figure names.
    pub fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Poke => "poke",
            Op::Peek => "peek",
            Op::Step => "step",
            Op::StepBatch => "step_batch",
            Op::StepBatchLanes => "step_batch_lanes",
            Op::Snapshot => "snapshot",
            Op::Restore => "restore",
            Op::OpenHit => "open_hit",
            Op::Close => "close",
        }
    }

    /// Ops issued once per session get a p90 (a run sees hundreds of
    /// them); the rest get a p99 (thousands).
    pub fn tail(self) -> (f64, &'static str) {
        match self {
            Op::Snapshot | Op::Restore | Op::OpenHit | Op::Close => (0.90, "p90"),
            _ => (0.99, "p99"),
        }
    }
}

/// Host microseconds per request, by op and engine.
#[derive(Default)]
struct Latencies {
    us: Vec<Vec<Vec<f64>>>,
}

impl Latencies {
    fn new() -> Self {
        Latencies {
            us: vec![vec![Vec::new(); ENGINES.len()]; OPS.len()],
        }
    }

    fn push(&mut self, op: Op, engine: usize, us: f64) {
        let i = OPS.iter().position(|&o| o == op).expect("op listed");
        self.us[i][engine].push(us);
    }

    fn merge(&mut self, other: Latencies) {
        for (a, b) in self.us.iter_mut().zip(other.us) {
            for (x, y) in a.iter_mut().zip(b) {
                x.extend(y);
            }
        }
    }

    fn get(&self, op: Op, engine: usize) -> &[f64] {
        let i = OPS.iter().position(|&o| o == op).expect("op listed");
        &self.us[i][engine]
    }

    fn all(&self, op: Op) -> Vec<f64> {
        (0..ENGINES.len())
            .flat_map(|e| self.get(op, e).to_vec())
            .collect()
    }
}

/// How long the clients run.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Each client starts session pairs until the deadline.
    Deadline(Instant),
    /// Each client runs exactly this many session pairs.
    Pairs(usize),
}

/// The fixed shape of one session.
#[derive(Clone, Copy)]
pub struct Script {
    /// Mix iterations per session.
    pub iterations: usize,
}

/// One session pair as a client saw it.
#[derive(Clone, Copy)]
struct Pair {
    end: Instant,
    secs: f64,
    /// Host seconds spent inside `handle_line` during the pair.
    busy: f64,
}

/// What one client saw.
struct ClientResult {
    lat: Latencies,
    pairs: Vec<Pair>,
    /// Requests completed before any client had finished.
    window_requests: usize,
    tally: Tally,
}

/// A small seeded generator for poke values.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = crate::splitmix(self.0);
        self.0
    }
}

fn sample_hex(v: u64) -> String {
    format!("\"0x{:x}\"", v & 0xffff)
}

fn batch_line(id: u64, session: &str, rng: &mut Rng) -> String {
    let mut s = format!(r#"{{"id":{id},"op":"step_batch","session":"{session}","items":["#);
    for i in 0..BATCH_ITEMS {
        if i > 0 {
            s.push(',');
        }
        write!(
            s,
            r#"{{"pokes":[{{"port":"in_sample","value":{},"width":16}},{{"port":"in_sample_valid","value":1,"width":1}},{{"port":"out_sample_ready","value":1,"width":1}}],"cycles":1}}"#,
            sample_hex(rng.next())
        )
        .expect("write to string");
    }
    s.push_str(r#"],"read":["in_sample_ready","out_sample_valid","out_sample"]}"#);
    s
}

fn lanes_line(id: u64, session: &str, rng: &mut Rng) -> String {
    let mut s =
        format!(r#"{{"id":{id},"op":"step_batch","session":"{session}","mode":"lanes","items":["#);
    for i in 0..LANES_ITEMS {
        if i > 0 {
            s.push(',');
        }
        write!(
            s,
            r#"{{"pokes":[{{"port":"in_sample","value":{},"width":16}},{{"port":"in_sample_valid","value":1,"width":1}},{{"port":"out_sample_ready","value":1,"width":1}}],"cycles":{LANES_CYCLES}}}"#,
            sample_hex(rng.next())
        )
        .expect("write to string");
    }
    s.push_str(r#"],"read":["out_sample_valid","out_sample"]}"#);
    s
}

/// The check batch: the same seeded items as a wire request and as a
/// [`StimulusBatch`] for the engine.
pub struct Check {
    seed: u64,
    batch: StimulusBatch,
    /// Expected reads per engine, per item, in `READ` order.
    expected: Vec<Vec<Vec<u64>>>,
}

impl Check {
    fn line(&self, id: u64, session: &str) -> String {
        batch_line(id, session, &mut Rng(self.seed))
    }

    /// True when `reply` is an ok batch reply whose reads equal the
    /// engine's.
    fn matches(&self, engine: usize, reply: &str) -> bool {
        let Ok(v) = json::parse(reply) else {
            return false;
        };
        let Some(items) = v.get("items").and_then(Json::as_arr) else {
            return false;
        };
        let got: Vec<Vec<u64>> = items
            .iter()
            .map(|it| {
                it.get("outputs")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|o| o.get("value").and_then(Json::as_str))
                    .filter_map(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok())
                    .collect()
            })
            .collect();
        got == self.expected[engine]
    }
}

/// The `rtl_opt` design compiled the way the server compiles it (passes
/// off): the RTL program and the synthesized gate program.
fn programs() -> (CompiledProgram, GateProgram) {
    let module =
        build_rtl_src(&SrcConfig::cd_to_dvd(), RtlVariant::Optimised).expect("SRC RTL builds");
    let rtl = CompiledProgram::compile(&module).expect("SRC RTL compiles");
    let netlist = synthesize(
        &module,
        &CellLibrary::generic_025u(),
        &SynthOptions::default(),
    )
    .expect("SRC synthesizes")
    .netlist;
    let gate = GateProgram::compile(&netlist).expect("SRC netlist levelizes");
    (rtl, gate)
}

/// Builds the check batch from `seed` and runs it on fresh engines
/// compiled the way the server compiles them (passes off, scan tied
/// off), recording the expected reads.
pub fn check_for(seed: u64) -> Check {
    let mut rng = Rng(seed);
    let items = (0..BATCH_ITEMS)
        .map(|_| StimulusItem {
            pokes: vec![
                ("in_sample".to_owned(), Bv::new(rng.next() & 0xffff, 16)),
                ("in_sample_valid".to_owned(), Bv::bit(true)),
                ("out_sample_ready".to_owned(), Bv::bit(true)),
            ],
            cycles: 1,
        })
        .collect();
    let batch = StimulusBatch {
        items,
        read: READ.iter().map(|&s| s.to_owned()).collect(),
    };
    let (rtl, gate) = programs();
    let reads = |sim: &mut dyn Simulation| -> Vec<Vec<u64>> {
        tie_off(sim);
        sim.step_batch(&batch)
            .expect("check batch runs on the engine")
            .outputs
            .iter()
            .map(|item| item.iter().map(|(_, v)| v.as_u64()).collect())
            .collect()
    };
    let expected = vec![
        reads(&mut rtl.simulator()),
        reads(&mut gate.simulator_lanes(64)),
    ];
    Check {
        seed,
        batch,
        expected,
    }
}

/// Holds the scan interface inactive, as the server's session workers do.
fn tie_off(sim: &mut dyn Simulation) {
    for port in ["scan_en", "scan_in", "test_mode"] {
        if sim.has_input(port) {
            sim.poke(port, Bv::zero(1));
        }
    }
}

fn ok(reply: &str) -> bool {
    reply.contains(r#""ok":true"#)
}

/// The string field `key` of a flat reply, without parsing the rest.
fn field<'r>(reply: &'r str, key: &str) -> Option<&'r str> {
    let pat = format!("\"{key}\":\"");
    let start = reply.find(&pat)? + pat.len();
    let len = reply[start..].find('"')?;
    Some(&reply[start..start + len])
}

struct Client<'a> {
    server: &'a Server,
    check: &'a Check,
    script: Script,
    /// Set by the first client to finish: the end of the window in which
    /// every client was running.
    first_done: &'a OnceLock<Instant>,
    rng: Rng,
    id: u64,
    lat: Latencies,
    busy: f64,
    requests: usize,
    window_requests: Option<usize>,
    tally: Tally,
}

impl Client<'_> {
    fn call(&mut self, op: Op, engine: usize, line: &str) -> String {
        if self.window_requests.is_none() && self.first_done.get().is_some() {
            self.window_requests = Some(self.requests);
        }
        let t = Instant::now();
        let reply = self.server.handle_line(line);
        let secs = t.elapsed().as_secs_f64();
        self.lat.push(op, engine, secs * 1e6);
        self.busy += secs;
        self.requests += 1;
        reply
    }

    fn next_id(&mut self) -> u64 {
        self.id += 1;
        self.id
    }

    /// One session lifetime on `engine`.
    fn session(&mut self, engine: usize) {
        let (name, _) = ENGINES[engine];
        let id = self.next_id();
        let reply = self.call(
            Op::OpenHit,
            engine,
            &format!(
                r#"{{"id":{id},"op":"open_session","design":"rtl_opt","engine":"{name}","opt":0}}"#
            ),
        );
        let Some(sid) = field(&reply, "session").map(str::to_owned) else {
            self.tally.record(false);
            return;
        };
        self.tally
            .record(ok(&reply) && field(&reply, "cache") == Some("hit"));

        let id = self.next_id();
        let line = self.check.line(id, &sid);
        let reply = self.call(Op::StepBatch, engine, &line);
        self.tally.record(self.check.matches(engine, &reply));

        for _ in 0..self.script.iterations {
            let mut lines: Vec<(Op, String)> = Vec::with_capacity(10);
            let id = self.next_id();
            lines.push((Op::Ping, format!(r#"{{"id":{id},"op":"ping"}}"#)));
            let v = self.rng.next();
            for (port, value, width) in [
                ("in_sample", sample_hex(v), 16),
                ("in_sample_valid", "1".to_owned(), 1),
                ("out_sample_ready", "1".to_owned(), 1),
            ] {
                let id = self.next_id();
                lines.push((
                    Op::Poke,
                    format!(
                        r#"{{"id":{id},"op":"poke","session":"{sid}","port":"{port}","value":{value},"width":{width}}}"#
                    ),
                ));
            }
            for port in ["out_sample_valid", "out_sample"] {
                let id = self.next_id();
                lines.push((
                    Op::Peek,
                    format!(r#"{{"id":{id},"op":"peek","session":"{sid}","port":"{port}"}}"#),
                ));
            }
            let id = self.next_id();
            lines.push((
                Op::Step,
                format!(r#"{{"id":{id},"op":"step","session":"{sid}","cycles":1}}"#),
            ));
            let id = self.next_id();
            lines.push((Op::StepBatch, batch_line(id, &sid, &mut self.rng)));
            if name == "gate.bitpar" {
                let id = self.next_id();
                lines.push((Op::StepBatchLanes, lanes_line(id, &sid, &mut self.rng)));
            }
            for (op, line) in lines {
                let reply = self.call(op, engine, &line);
                self.tally.record(ok(&reply));
            }
        }

        let id = self.next_id();
        let reply = self.call(
            Op::Snapshot,
            engine,
            &format!(r#"{{"id":{id},"op":"snapshot","session":"{sid}"}}"#),
        );
        self.tally.record(ok(&reply));
        if let Some(blob) = field(&reply, "snapshot") {
            let id = self.next_id();
            let line =
                format!(r#"{{"id":{id},"op":"restore","session":"{sid}","snapshot":"{blob}"}}"#);
            let reply = self.call(Op::Restore, engine, &line);
            self.tally.record(ok(&reply));
        }
        let id = self.next_id();
        let reply = self.call(
            Op::Close,
            engine,
            &format!(r#"{{"id":{id},"op":"close","session":"{sid}"}}"#),
        );
        self.tally.record(ok(&reply));
    }

    /// Session pairs (one per engine, starting with `first`) until `stop`.
    fn run(mut self, first: usize, stop: Stop) -> ClientResult {
        let mut pairs: Vec<Pair> = Vec::new();
        loop {
            let done = match stop {
                Stop::Deadline(d) => Instant::now() >= d && !pairs.is_empty(),
                Stop::Pairs(n) => pairs.len() >= n,
            };
            if done {
                break;
            }
            let (t, busy) = (Instant::now(), self.busy);
            self.session(first);
            self.session(1 - first);
            pairs.push(Pair {
                end: Instant::now(),
                secs: t.elapsed().as_secs_f64(),
                busy: self.busy - busy,
            });
        }
        self.first_done.get_or_init(Instant::now);
        ClientResult {
            lat: self.lat,
            pairs,
            window_requests: self.window_requests.unwrap_or(self.requests),
            tally: self.tally,
        }
    }
}

/// A server with both engines' artefacts compiled, the host milliseconds
/// its two cold opens (cache misses) took, and the whole set-up's seconds.
fn cold_server(clients: usize) -> (Server, (f64, f64)) {
    let t_all = Instant::now();
    let server = Server::new(&ServeOptions {
        addr: None,
        threads: clients,
        cache_cap: 8,
    });
    let mut miss_ms = 0.0;
    for (i, (name, _)) in ENGINES.iter().enumerate() {
        let t = Instant::now();
        let reply = server.handle_line(&format!(
            r#"{{"id":{i},"op":"open_session","design":"rtl_opt","engine":"{name}","opt":0}}"#
        ));
        miss_ms += t.elapsed().as_secs_f64() * 1e3;
        assert!(
            ok(&reply) && field(&reply, "cache") == Some("miss"),
            "cold open of {name} failed: {reply}"
        );
        let sid = field(&reply, "session").expect("open reply names the session");
        let reply = server.handle_line(&format!(r#"{{"id":0,"op":"close","session":"{sid}"}}"#));
        assert!(ok(&reply), "close failed: {reply}");
    }
    (server, (miss_ms, t_all.elapsed().as_secs_f64()))
}

/// Everything a measured phase produced. The window runs from the start
/// until the first client finishes: while it lasts every client is
/// running, so its figures measure the closed loop under full load.
struct Phase {
    lat: Latencies,
    /// Session pairs that ended within the window.
    pairs: Vec<Pair>,
    window_s: f64,
    window_requests: usize,
    tally: Tally,
}

impl Phase {
    /// Requests per second of all clients within the window.
    fn rate(&self) -> f64 {
        self.window_requests as f64 / self.window_s
    }

    /// Mean host seconds of a session pair within the window.
    fn mean_pair_s(&self) -> f64 {
        self.pairs.iter().map(|p| p.secs).sum::<f64>() / self.pairs.len() as f64
    }

    /// Host seconds of the fastest session pair within the window.
    fn fastest_pair_s(&self) -> f64 {
        self.pairs
            .iter()
            .map(|p| p.secs)
            .fold(f64::INFINITY, f64::min)
    }
}

fn run_clients(
    server: &Server,
    check: &Check,
    script: Script,
    clients: usize,
    seed: u64,
    stop: Stop,
) -> Phase {
    let first_done = OnceLock::new();
    let start = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = Client {
                    server,
                    check,
                    script,
                    first_done: &first_done,
                    rng: Rng(crate::splitmix(seed ^ (c as u64 + 1))),
                    id: 0,
                    lat: Latencies::new(),
                    busy: 0.0,
                    requests: 0,
                    window_requests: None,
                    tally: Tally::default(),
                };
                scope.spawn(move || client.run(c % ENGINES.len(), stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let end = *first_done.get().expect("a client finished");
    let mut phase = Phase {
        lat: Latencies::new(),
        pairs: Vec::new(),
        window_s: (end - start).as_secs_f64(),
        window_requests: 0,
        tally: Tally::default(),
    };
    for r in results {
        phase.lat.merge(r.lat);
        phase
            .pairs
            .extend(r.pairs.into_iter().filter(|p| p.end <= end));
        phase.window_requests += r.window_requests;
        phase.tally.add(r.tally);
    }
    phase
}

/// Segments of the untraced run, each on a freshly set-up server.
const SEGMENTS: u32 = 10;

/// The untraced workload: `SEGMENTS` rounds of a fresh server (its set-up
/// timed, so the set-up time is sampled across the whole run) and the
/// clients running on it for an equal share of `budget`.
pub fn run(seed: u64, script: Script, clients: usize, budget: Duration) -> (Figures, Tally) {
    let check = check_for(seed);
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut segments = Vec::new();
    for i in 1..=SEGMENTS {
        let (server, secs) = crate::setup_sample(|| cold_server(clients), |t| t.1);
        setup_s.push(secs);
        let stop = Stop::Deadline(start + budget * i / SEGMENTS);
        segments.push(run_clients(
            &server,
            &check,
            script,
            clients,
            seed ^ u64::from(i),
            stop,
        ));
    }
    let mut f = Figures::default();
    f.set("setup_s", median(&setup_s), "s");
    // Both figures count only the windows in which both clients ran, and
    // take the fastest: interference from the rest of the host only ever
    // adds time. `pass_s` is the fastest session pair that ran while the
    // other client was issuing requests; `throughput_per_s` is the
    // requests both clients completed per second in the fastest segment.
    let pass_s = segments
        .iter()
        .map(Phase::fastest_pair_s)
        .fold(f64::INFINITY, f64::min);
    let rate = segments.iter().map(Phase::rate).fold(0.0, f64::max);
    f.set("pass_s", pass_s, "s");
    f.set("throughput_per_s", rate, "1/s");
    let mut p = segments.pop().expect("at least one segment");
    for seg in segments {
        p.lat.merge(seg.lat);
        p.pairs.extend(seg.pairs);
        p.window_s += seg.window_s;
        p.window_requests += seg.window_requests;
        p.tally.add(seg.tally);
    }
    headline(&mut f, &p);
    f.set("serve.window_pairs", p.pairs.len() as f64, "count");
    (f, p.tally)
}

/// The headline serve figures: request rate, peek latency over both
/// engines and sequential-batch latency on `gate.bitpar`.
fn headline(f: &mut Figures, p: &Phase) {
    f.set("serve_requests_per_s", p.rate(), "1/s");
    let mut peek = p.lat.all(Op::Peek);
    f.set("serve_peek_p50_us", quantile(&mut peek, 0.50), "us");
    f.set("serve_peek_p99_us", quantile(&mut peek, 0.99), "us");
    let mut batch = p.lat.get(Op::StepBatch, 1).to_vec();
    f.set("serve_batch_p50_us", quantile(&mut batch, 0.50), "us");
    f.set("serve_batch_p99_us", quantile(&mut batch, 0.99), "us");
}

/// The traced section: a fixed number of session pairs per client (so
/// the cache counters repeat exactly), per-op latency by engine, the
/// batch straight on the engine, the JSON layer's cost and the server's
/// deterministic counters.
pub fn traced(
    seed: u64,
    script: Script,
    clients: usize,
    setup_reps: usize,
    pairs: usize,
    tol: f64,
) -> (Figures, Tally) {
    let check = check_for(seed);
    let (server, times) = crate::repeat_setup(setup_reps, || cold_server(clients));
    let miss_ms: Vec<f64> = times.iter().map(|t| t.0).collect();
    let p = run_clients(&server, &check, script, clients, seed, Stop::Pairs(pairs));
    let mut tally = p.tally;
    let mut f = Figures::default();
    f.set("serve.open_miss_ms", median(&miss_ms), "ms");
    headline(&mut f, &p);
    for op in OPS {
        let (tail, tail_name) = op.tail();
        for (e, (_, tag)) in ENGINES.iter().enumerate() {
            let mut xs = p.lat.get(op, e).to_vec();
            if xs.is_empty() {
                continue;
            }
            let name = op.name();
            f.set(
                format!("serve.{name}.{tag}.p50_us"),
                quantile(&mut xs, 0.5),
                "us",
            );
            f.set(
                format!("serve.{name}.{tag}.{tail_name}_us"),
                quantile(&mut xs, tail),
                "us",
            );
        }
    }
    // The request latencies of a session pair summed, against the pair's
    // wall time; the rest is the client formatting requests and reading
    // replies.
    let busy = p.pairs.iter().map(|x| x.busy).sum::<f64>() / p.pairs.len() as f64;
    let layer_sum_ratio = busy / p.mean_pair_s();
    f.set("serve.layer_sum_ratio", layer_sum_ratio, "ratio");
    if (layer_sum_ratio - 1.0).abs() > tol {
        eprintln!(
            "note: serve request latencies sum to {layer_sum_ratio:.3}x the session pair time \
             (tolerance {tol})"
        );
    }

    // The mix's sequential batch straight on each engine. The overhead
    // compares the fastest batch each way, since the two are measured at
    // different moments and the host's speed moves between them.
    let (rtl, gate) = programs();
    let direct = |sim: &mut dyn Simulation, reps: usize| -> f64 {
        tie_off(sim);
        let mut fastest = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            let r = sim.step_batch(&check.batch);
            fastest = fastest.min(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(r.expect("batch runs on the engine"));
        }
        fastest
    };
    let engine_us = [
        direct(&mut rtl.simulator(), 2000),
        direct(&mut gate.simulator_lanes(64), 400),
    ];
    for (e, (_, tag)) in ENGINES.iter().enumerate() {
        f.set(format!("serve.engine.{tag}.batch_us"), engine_us[e], "us");
        let through = p.lat.get(Op::StepBatch, e).iter().copied();
        f.set(
            format!("serve.batch.{tag}.overhead_us"),
            through.fold(f64::INFINITY, f64::min) - engine_us[e],
            "us",
        );
    }

    // The JSON layer on a batch request and its reply.
    let reply = server.handle_line(
        r#"{"id":1,"op":"open_session","design":"rtl_opt","engine":"rtl.compiled","opt":0}"#,
    );
    tally.record(ok(&reply));
    let sid = field(&reply, "session").unwrap_or("s0").to_owned();
    let line = batch_line(2, &sid, &mut Rng(seed));
    let reply = server.handle_line(&line);
    tally.record(ok(&reply));
    let parsed = json::parse(&reply).expect("reply parses");
    let kb = |s: &str| s.len() as f64 / 1024.0;
    let reps = 2000;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(json::parse(std::hint::black_box(&line)).expect("request parses"));
    }
    f.set(
        "serve.json.parse_us_per_kb",
        t.elapsed().as_secs_f64() * 1e6 / (reps as f64 * kb(&line)),
        "us/KiB",
    );
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(std::hint::black_box(&parsed).render());
    }
    f.set(
        "serve.json.render_us_per_kb",
        t.elapsed().as_secs_f64() * 1e6 / (reps as f64 * kb(&reply)),
        "us/KiB",
    );
    let reply = server.handle_line(&format!(r#"{{"id":3,"op":"close","session":"{sid}"}}"#));
    tally.record(ok(&reply));

    // The server's deterministic counters, against the values the fixed
    // script implies: two cold compiles in set-up, every later open a hit.
    let reply = server.handle_line(r#"{"id":4,"op":"server_metrics","deterministic":true}"#);
    tally.record(ok(&reply));
    let metrics = json::parse(&reply).expect("server_metrics parses");
    let opens = (clients * pairs * ENGINES.len() + 1) as i64;
    for (name, expected) in [
        ("serve.cache.hits", opens),
        ("serve.cache.misses", 2),
        ("serve.cache.compiles", 2),
        ("serve.sessions.busy_rejections", 0),
    ] {
        let v = metrics
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(Json::as_i64);
        tally.record(v == Some(expected));
        f.set(name, v.unwrap_or(-1) as f64, "count");
    }
    (f, tally)
}
