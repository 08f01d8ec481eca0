//! In-process probes of the traced run. They run on the engine thread
//! after the wire phase stops, against the same warmed server and
//! sessions, and time the benchmark's own calls into each layer's public
//! functions (every call is also recorded as a span).
//!
//! The standalone probes (`ir`, `seccomm`, `profile`, `core`, `passes`)
//! do not touch the served sessions, so they read the same on every
//! workload; the server and events probes use the workload's own
//! sessions and session kind.

use crate::engine::Expect;
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{churn_module, plain_module, Workload};
use pdo::{optimize, AdaptConfig};
use pdo_events::{Runtime, RuntimeConfig, TraceConfig};
use pdo_ir::interp::{self, BasicEnv};
use pdo_ir::{EventId, FuncId, Module, RaiseMode, Value};
use pdo_obs::Histogram;
use pdo_passes::{fuse_module, PassManager};
use pdo_profile::Profile;
use pdo_seccomm::{seccomm_protocol, Endpoint, Keys, CONFIG_FULL};
use pdo_server::{Server, SessionId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Per-layer readings by metric name.
pub type ProbeReport = BTreeMap<String, f64>;

/// `Server::raise` calls timed on the workload's sessions.
const SERVER_RAISES: usize = 2_000;
/// `Runtime::raise` calls timed inside `Server::with_runtime`.
const RUNTIME_RAISES: usize = 2_000;
/// Sessions opened and closed by the open/close probe.
const OPEN_CLOSE: usize = 32;
/// Repetitions of each optimizer-pipeline probe.
const PIPELINE_REPS: usize = 21;
/// `interp::call` batches (and calls per batch).
const CALL_BATCHES: usize = 21;
const CALLS_PER_BATCH: usize = 1_000;
/// `Endpoint::push` calls per Fig 12 size.
const PUSHES: usize = 101;

/// The Fig 12 payload sizes, bytes.
pub use pdo_bench::secc::SIZES;

/// The payload a SecComm probe raise carries.
const PROBE_PAYLOAD: usize = 512;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn elapsed_ns(t0: Instant, t1: Instant) -> f64 {
    t1.duration_since(t0).as_nanos() as f64
}

/// The event and arguments a probe raise sends on this workload's
/// sessions.
fn raise_target(workload: Workload) -> (EventId, Vec<Value>) {
    match workload {
        Workload::PlainRpc => (plain_module().1, Vec::new()),
        Workload::SeccommRpc => {
            let program = seccomm_protocol()
                .instantiate(CONFIG_FULL)
                .expect("CONFIG_FULL is a valid SecComm configuration");
            let msg = program
                .module
                .event_by_name("msgFromUser")
                .expect("SecComm declares msgFromUser");
            (msg, vec![Value::bytes(vec![0x5Au8; PROBE_PAYLOAD])])
        }
        Workload::SessionChurn => (churn_module().1, Vec::new()),
    }
}

/// Opens one session of the workload's kind in-process.
fn open_one(workload: Workload, server: &mut Server) -> SessionId {
    let plain = |(module, _, binds): (Module, EventId, Vec<(u32, u32, i32)>)| {
        let typed: Vec<(EventId, FuncId, i32)> = binds
            .iter()
            .map(|&(e, f, o)| (EventId(e), FuncId(f), o))
            .collect();
        (module, typed)
    };
    match workload {
        Workload::PlainRpc => {
            let (m, b) = plain(plain_module());
            server.open_session(m, RuntimeConfig::default(), &b)
        }
        Workload::SessionChurn => {
            let (m, b) = plain(churn_module());
            server.open_session(m, RuntimeConfig::default(), &b)
        }
        Workload::SeccommRpc => {
            let program = seccomm_protocol()
                .instantiate(CONFIG_FULL)
                .expect("CONFIG_FULL is a valid SecComm configuration");
            server.open_seccomm_session(&program, &Keys::default())
        }
    }
    .expect("in-process open succeeds")
}

/// The sessions the raise probes use: the workload's own (churn closes
/// its own, so it gets freshly opened sessions raised until specialized).
fn probe_sessions(workload: Workload, server: &mut Server, expect: &Expect) -> Vec<SessionId> {
    let ids: Vec<u64> = match workload {
        Workload::PlainRpc => expect.plain_acc.iter().map(|p| p.0).collect(),
        Workload::SeccommRpc => expect.seccomm_frames.iter().map(|p| p.0).collect(),
        Workload::SessionChurn => Vec::new(),
    };
    if !ids.is_empty() {
        return ids.into_iter().take(32).map(SessionId).collect();
    }
    let (event, args) = raise_target(workload);
    let sessions: Vec<SessionId> = (0..4).map(|_| open_one(workload, server)).collect();
    let epoch = AdaptConfig::default().epoch_ns;
    for _ in 0..64 {
        let now = server
            .shard_loads()
            .iter()
            .map(|l| l.max_clock_ns)
            .max()
            .unwrap_or(0);
        for &s in &sessions {
            for _ in 0..16 {
                server
                    .raise(s, event, RaiseMode::Sync, &args)
                    .expect("probe warm-up raise");
            }
        }
        server.run_until(now + epoch).expect("probe warm-up epoch");
        let live: usize = sessions
            .iter()
            .map(|&s| server.with_runtime(s, |rt| rt.spec().len()).unwrap_or(0))
            .sum();
        if live >= sessions.len() {
            break;
        }
    }
    sessions
}

pub fn run(
    workload: Workload,
    server: &mut Server,
    expect: &Expect,
    spans: &mut Spans,
) -> ProbeReport {
    let mut r = ProbeReport::new();
    let sessions = probe_sessions(workload, server, expect);
    let (event, args) = raise_target(workload);

    // server: Server::raise on the workload's own server and sessions.
    for i in 0..SERVER_RAISES {
        let s = sessions[i % sessions.len()];
        let t0 = Instant::now();
        server
            .raise(s, event, RaiseMode::Sync, &args)
            .expect("probe raise");
        spans.record("server.raise", None, i as u64, t0, Instant::now());
    }

    // events + ir: Runtime::raise timed inside Server::with_runtime, with
    // the runtime's cost counters and fused-superinstruction count.
    let per_session = RUNTIME_RAISES.div_ceil(sessions.len().min(8));
    let mut cost = [0u64; 6];
    let (mut fused, mut raises) = (0u64, 0u64);
    for (k, &s) in sessions.iter().take(8).enumerate() {
        let args = args.clone();
        let parent = spans.reserve();
        let t0 = Instant::now();
        let (times, dc, df) = server
            .with_runtime(s, move |rt| {
                let was_profiling = rt.opcode_profiling();
                rt.set_opcode_profiling(true);
                let fused0 = rt.opcode_profile_data().map_or(0, |p| p.fused_total());
                let c0 = costs(&rt.cost);
                let mut times = Vec::with_capacity(per_session);
                for _ in 0..per_session {
                    let a = Instant::now();
                    rt.raise(event, RaiseMode::Sync, &args)
                        .expect("probe runtime raise");
                    times.push((a, Instant::now()));
                }
                let c1 = costs(&rt.cost);
                let fused1 = rt.opcode_profile_data().map_or(0, |p| p.fused_total());
                rt.set_opcode_profiling(was_profiling);
                let dc: Vec<u64> = c1.iter().zip(c0).map(|(b, a)| b - a).collect();
                (times, dc, fused1.saturating_sub(fused0))
            })
            .expect("probe session is live");
        let t1 = Instant::now();
        for (j, &(a, b)) in times.iter().enumerate() {
            spans.record(
                "events.raise",
                Some(parent),
                (k * per_session + j) as u64,
                a,
                b,
            );
        }
        spans.record_as(parent, "server.with_runtime", None, k as u64, t0, t1);
        for (acc, d) in cost.iter_mut().zip(dc) {
            *acc += d;
        }
        fused += df;
        raises += times.len() as u64;
    }
    let per = |v: u64| v as f64 / raises.max(1) as f64;
    for (name, v) in COST_METRICS.iter().zip(cost) {
        r.insert((*name).into(), per(v));
    }
    r.insert("ir.fused_per_req".into(), per(fused));

    // server: open and close of the workload's session kind.
    let mut opened = Vec::with_capacity(OPEN_CLOSE);
    for i in 0..OPEN_CLOSE {
        let t0 = Instant::now();
        opened.push(open_one(workload, server));
        spans.record("server.open_session", None, i as u64, t0, Instant::now());
    }
    for (i, s) in opened.into_iter().enumerate() {
        let t0 = Instant::now();
        let existed = server.close_session(s);
        spans.record("server.close_session", None, i as u64, t0, Instant::now());
        assert!(existed, "probe session {s} closes");
    }

    // core: the adaptive engines' own re-profile wall times.
    let mut reprofile = Histogram::new();
    for &s in &sessions {
        if let Ok(h) = server.with_engine(s, |e| e.reprofile_wall_ns().clone()) {
            reprofile.merge(&h);
        }
    }
    r.insert(
        "core.reprofile_us_p50".into(),
        us(reprofile.quantile(0.5) as f64),
    );

    standalone(&mut r, spans);
    r
}

/// Probes that build their own inputs: the interpreter on the churn
/// module, SecComm pushes by Fig 12 size, and the optimizer pipeline on a
/// profile captured from a churn session.
fn standalone(r: &mut ProbeReport, spans: &mut Spans) {
    let (module, e0, binds) = churn_module();

    // ir: interp::call with BasicEnv on the churn module's first handler.
    let mut env = BasicEnv::new(&module);
    let first = FuncId(binds[0].1);
    let mut batch_ns = Vec::with_capacity(CALL_BATCHES);
    for b in 0..CALL_BATCHES {
        let t0 = Instant::now();
        for _ in 0..CALLS_PER_BATCH {
            black_box(
                interp::call(&module, &mut env, black_box(first), &[]).expect("handler runs"),
            );
        }
        let t1 = Instant::now();
        spans.record("ir.call_batch", None, b as u64, t0, t1);
        batch_ns.push(elapsed_ns(t0, t1) / CALLS_PER_BATCH as f64);
    }
    r.insert("ir.call_ns".into(), median(&batch_ns));

    // seccomm: Endpoint::push per Fig 12 size.
    let program = seccomm_protocol()
        .instantiate(CONFIG_FULL)
        .expect("CONFIG_FULL is a valid SecComm configuration");
    let mut ep = Endpoint::new(&program, &Keys::default()).expect("SecComm endpoint");
    ep.push(b"warm").expect("warm push");
    for size in SIZES {
        let msg = vec![0xA5u8; size];
        let mut times = Vec::with_capacity(PUSHES);
        for i in 0..PUSHES {
            let t0 = Instant::now();
            black_box(ep.push(&msg).expect("push"));
            let t1 = Instant::now();
            spans.record("seccomm.push", None, i as u64, t0, t1);
            times.push(elapsed_ns(t0, t1));
        }
        r.insert(format!("seccomm.push_us.{size}"), us(median(&times)));
    }

    // profile / core / passes: one trace captured from a churn session.
    let mut rt = Runtime::new(module.clone());
    for &(e, f, o) in &binds {
        rt.bind(EventId(e), FuncId(f), o).expect("churn binding");
    }
    rt.set_trace_config(TraceConfig::full());
    for _ in 0..64 {
        rt.raise(e0, RaiseMode::Sync, &[]).expect("churn raise");
    }
    let trace = rt.take_trace();
    let opts = AdaptConfig::default().opts;
    let mut time = |name: &'static str, f: &mut dyn FnMut()| {
        let mut ts = Vec::with_capacity(PIPELINE_REPS);
        for i in 0..PIPELINE_REPS {
            let t0 = Instant::now();
            f();
            let t1 = Instant::now();
            spans.record(name, None, i as u64, t0, t1);
            ts.push(elapsed_ns(t0, t1));
        }
        us(median(&ts))
    };
    let from_trace = time("profile.from_trace", &mut || {
        black_box(Profile::from_trace(&trace, opts.threshold));
    });
    let profile = Profile::from_trace(&trace, opts.threshold);
    let optimize_us = time("core.optimize", &mut || {
        black_box(optimize(&module, rt.registry(), &profile, &opts));
    });
    let optimized = optimize(&module, rt.registry(), &profile, &opts).module;
    let pipeline = time("passes.pipeline", &mut || {
        let mut m = optimized.clone();
        black_box(PassManager::standard().run(&mut m));
    });
    let fuse = time("passes.fuse", &mut || {
        let mut m = optimized.clone();
        black_box(fuse_module(&mut m, None, 0));
    });
    r.insert("profile.from_trace_us".into(), from_trace);
    r.insert("core.optimize_us".into(), optimize_us);
    r.insert("passes.pipeline_us".into(), pipeline);
    r.insert("passes.fuse_us".into(), fuse);
}

/// The cost counters the per-request metrics read, in [`COST_METRICS`]
/// order.
fn costs(c: &pdo_ir::CostCounter) -> [u64; 6] {
    [
        c.registry_lookups + c.fastpath_hits,
        c.registry_lookups,
        c.marshaled_values,
        c.indirect_calls,
        c.instrs,
        c.lock_ops,
    ]
}

const COST_METRICS: [&str; 6] = [
    "events.dispatches_per_req",
    "events.registry_lookups_per_req",
    "events.marshaled_values_per_req",
    "events.indirect_calls_per_req",
    "ir.instrs_per_req",
    "ir.lock_ops_per_req",
];
