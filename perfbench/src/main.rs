//! The end-to-end wire benchmark of the `pdo-ingress` → `pdo-server`
//! stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plain_rpc --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: half the time untraced, half
//! with a span around every codec call, then in-process probes of each
//! layer; it reports the per-layer metrics and writes its spans to
//! `perfbench/out/`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! nonzero when an output check fails. `--smoke` runs every workload
//! briefly in both modes and checks that every metric is reported with a
//! finite value.

mod engine;
mod gen;
mod probes;
mod spans;
mod stats;
mod sys;
mod workload;

use engine::{EngineSnap, Expect, Instance};
use gen::{Driver, Tally, Traffic};
use pdo_ingress::proto::Request;
use pdo_ingress::OpenKind;
use pdo_ir::Value;
use spans::Spans;
use stats::{median, quantile, Rng};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use sys::ThreadCpu;
use workload::{ChurnTraffic, OpenTraffic, QueryTraffic, RaiseTraffic, Workload, CONNS};

/// End-to-end metrics (`--trace 0`), with units.
const E2E_METRICS: [(&str, &str); 5] = [
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const LAYER_METRICS: [(&str, &str); 48] = [
    ("error_rate", "ratio"),
    ("ingress.encode_ns", "ns"),
    ("ingress.decode_ns", "ns"),
    ("ingress.engine_p50_us", "us"),
    ("ingress.engine_p99_us", "us"),
    ("ingress.outside_engine_us", "us"),
    ("ingress.engine_cpu_us_per_req", "us"),
    ("ingress.acceptor_cpu_us_per_req", "us"),
    ("ingress.shed_total", "count"),
    ("ingress.bytes_per_req", "bytes"),
    ("server.raise_us", "us"),
    ("server.self_us", "us"),
    ("server.open_us", "us"),
    ("server.close_us", "us"),
    ("server.shard_skew", "ratio"),
    ("server.busy_ms", "ms"),
    ("events.raise_us", "us"),
    ("events.fastpath_ratio", "ratio"),
    ("events.guard_misses", "count"),
    ("events.dispatches_per_req", "count"),
    ("events.registry_lookups_per_req", "count"),
    ("events.marshaled_values_per_req", "count"),
    ("events.indirect_calls_per_req", "count"),
    ("ir.instrs_per_req", "count"),
    ("ir.fused_per_req", "count"),
    ("ir.lock_ops_per_req", "count"),
    ("ir.call_ns", "ns"),
    ("seccomm.push_us.64", "us"),
    ("seccomm.push_us.128", "us"),
    ("seccomm.push_us.256", "us"),
    ("seccomm.push_us.512", "us"),
    ("seccomm.push_us.1024", "us"),
    ("seccomm.push_us.2048", "us"),
    ("core.reprofiles", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.chains_installed", "count"),
    ("core.chains_dropped", "count"),
    ("core.reprofile_us_p50", "us"),
    ("core.optimize_us", "us"),
    ("profile.from_trace_us", "us"),
    ("passes.pipeline_us", "us"),
    ("passes.fuse_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.p50_self_share", "ratio"),
    ("trace.spans", "count"),
    ("bench.client_cpu_us_per_req", "us"),
    ("bench.samples", "count"),
    ("bench.throughput_traced_rps", "req/s"),
];

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Raises per session per warm-up round, and the most rounds a session
/// may take to specialize where the workload expects it.
const WARM_RAISES: usize = 64;
const WARM_ROUNDS: usize = 8;
/// Latency samples the generator can hold per measured second.
const SAMPLES_PER_SEC: usize = 600_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--smoke") {
        return Ok(None);
    }
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = get("--workload")?;
    Ok(Some(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    }))
}

/// The outcome of one run.
struct Outcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    fn json(&self, units: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = units
            .iter()
            .filter_map(|(name, unit)| {
                self.metrics
                    .get(*name)
                    .map(|v| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The workload's traffic once set-up is done.
enum Load {
    Raise(RaiseTraffic),
    Churn(ChurnTraffic),
}

impl Load {
    fn traffic(&mut self) -> &mut dyn Traffic {
        match self {
            Load::Raise(t) => t,
            Load::Churn(t) => t,
        }
    }

    fn expect(&self, workload: Workload) -> Expect {
        let mut e = Expect::default();
        if let Load::Raise(t) = self {
            let pairs = t.ids.iter().copied().zip(t.done.iter().copied()).collect();
            match workload {
                Workload::PlainRpc => e.plain_acc = pairs,
                Workload::SeccommRpc => e.seccomm_frames = pairs,
                Workload::SessionChurn => {}
            }
        }
        e
    }
}

/// A served instance with its sessions open and warmed.
struct Ready {
    inst: Instance,
    driver: Driver,
    load: Load,
    setup_s: f64,
}

/// Binds a fresh server + ingress and brings the workload to steady
/// state: sessions open and warmed, specialized where the workload
/// expects it. Set-up time runs from the ingress bind to here.
fn bring_up(w: Workload, seed: u64) -> Result<Ready, String> {
    let inst = Instance::start(w)?;
    let mut driver =
        Driver::connect(inst.addr, CONNS, w.idle()).map_err(|e| format!("connect: {e}"))?;
    let mut tally = Tally::default();
    let window = w.window();
    let load = match w {
        Workload::SessionChurn => {
            let mut t = ChurnTraffic::new(window);
            t.one_cycle = true;
            driver
                .run(&mut t, window, None, &mut tally, None)
                .map_err(|e| format!("churn warm-up: {e}"))?;
            t.one_cycle = false;
            t.resume();
            Load::Churn(t)
        }
        Workload::PlainRpc | Workload::SeccommRpc => {
            let (open, event, payloads) = if w == Workload::PlainRpc {
                let (module, e, bindings) = workload::plain_module();
                (OpenKind::Plain { module, bindings }, e.0, Vec::new())
            } else {
                (OpenKind::SecComm, seccomm_event(), seccomm_payloads(seed))
            };
            let mut opens = OpenTraffic::new(Request::Open(open), w.sessions() / CONNS);
            driver
                .run(&mut opens, window, None, &mut tally, None)
                .map_err(|e| format!("open sessions: {e}"))?;
            let mut t = RaiseTraffic::new(event, &opens.opened, window, payloads, seed);
            let mut pending = opens.opened;
            for _ in 0..WARM_ROUNDS {
                t.allow(WARM_RAISES);
                driver
                    .run(&mut t, window, None, &mut tally, None)
                    .map_err(|e| format!("warm-up: {e}"))?;
                if !w.specializes_at_setup() {
                    pending.clear();
                    break;
                }
                let mut q = QueryTraffic::new(pending);
                driver
                    .run(&mut q, window, None, &mut tally, None)
                    .map_err(|e| format!("warm-up query: {e}"))?;
                pending = q.unspecialized;
                if pending.iter().all(Vec::is_empty) {
                    break;
                }
            }
            let left: usize = pending.iter().map(Vec::len).sum();
            if left > 0 {
                return Err(format!("{left} sessions not specialized after warm-up"));
            }
            t.unlimited();
            Load::Raise(t)
        }
    };
    if tally.wrong > 0 || tally.failed > 0 || tally.missing > 0 {
        return Err(format!(
            "set-up failed: {} wrong, {} failed, {} missing: {:?}",
            tally.wrong, tally.failed, tally.missing, tally.wrong_examples
        ));
    }
    Ok(Ready {
        setup_s: inst.bind_at.elapsed().as_secs_f64(),
        inst,
        driver,
        load,
    })
}

fn seccomm_event() -> u32 {
    pdo_seccomm::seccomm_protocol()
        .instantiate(pdo_seccomm::CONFIG_FULL)
        .expect("CONFIG_FULL is a valid SecComm configuration")
        .module
        .event_by_name("msgFromUser")
        .expect("SecComm declares msgFromUser")
        .0
}

/// One seeded payload per Fig 12 size.
fn seccomm_payloads(seed: u64) -> Vec<Value> {
    let mut rng = Rng::new(seed, 0xB7E5);
    probes::SIZES
        .iter()
        .map(|&n| Value::bytes((0..n).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()))
        .collect()
}

/// Output-check failures of a finished wire phase.
fn wire_errors(tally: &Tally) -> Vec<String> {
    let mut errors = tally.wrong_examples.clone();
    if tally.wrong > tally.wrong_examples.len() as u64 {
        errors.push(format!("{} wrong replies in total", tally.wrong));
    }
    if tally.missing > 0 {
        errors.push(format!("{} requests left without a reply", tally.missing));
    }
    errors
}

/// Replies per second: the median over the window's whole seconds, so a
/// burst of host contention in a few of them does not move it (the mean
/// rate when the window is shorter than a second).
fn throughput(tally: &Tally, secs: f64) -> f64 {
    if tally.per_second.is_empty() {
        return tally.replies_in_window as f64 / secs;
    }
    let per_second: Vec<f64> = tally.per_second.iter().map(|&n| n as f64).collect();
    median(&per_second)
}

/// One closed-loop window of `secs`.
fn measure(
    r: &mut Ready,
    w: Workload,
    secs: f64,
    spans: Option<&mut Spans>,
) -> Result<Tally, String> {
    let cap = (secs.ceil() as usize).max(1) * SAMPLES_PER_SEC;
    let mut tally = Tally::with_capacity(cap);
    tally.per_second = vec![0; secs.floor() as usize];
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    r.driver
        .run(r.load.traffic(), w.window(), Some(end), &mut tally, spans)
        .map_err(|e| format!("wire phase: {e}"))?;
    Ok(tally)
}

fn run_e2e(a: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        setups.push(bring_up(a.workload, a.seed)?.setup_s);
    }
    let mut r = bring_up(a.workload, a.seed)?;
    setups.push(r.setup_s);
    let mut tally = measure(&mut r, a.workload, a.seconds, None)?;
    let expect = r.load.expect(a.workload);
    drop(r.driver);
    let fin = r.inst.finish(expect, None)?;
    let mut errors = wire_errors(&tally);
    errors.extend(fin.errors);

    println!(
        "samples={} dropped={} replies_in_window={} sent={} failed={} missing={} per_second={:?}",
        tally.samples.len(),
        tally.samples_dropped,
        tally.replies_in_window,
        tally.sent,
        tally.failed,
        tally.missing,
        tally.per_second
    );
    let mut m = BTreeMap::new();
    m.insert("throughput_rps".into(), throughput(&tally, a.seconds));
    m.insert(
        "latency_p50_us".into(),
        quantile(&mut tally.samples, 0.50) / 1e3,
    );
    m.insert(
        "latency_p99_us".into(),
        quantile(&mut tally.samples, 0.99) / 1e3,
    );
    m.insert("setup_s".into(), median(&setups));
    m.insert("peak_rss_mb".into(), sys::peak_rss_mib());
    Ok(Outcome {
        errors,
        attempted: tally.sent.max(1),
        failed: tally.failed + tally.missing,
        metrics: m,
    })
}

/// Engine-side differences across the untraced half of a traced run.
fn engine_metrics(m: &mut BTreeMap<String, f64>, a: &EngineSnap, b: &EngineSnap) {
    // The ingress latency histogram over the window: bucket counts of `b`
    // minus those of `a`, each bucket read at its lower bound.
    let before: BTreeMap<u64, u64> = a.latency.nonzero_buckets().collect();
    let window: Vec<(u64, u64)> = b
        .latency
        .nonzero_buckets()
        .map(|(lo, n)| (lo, n - before.get(&lo).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    let total: u64 = window.iter().map(|b| b.1).sum();
    let q = |q: f64| -> f64 {
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        window
            .iter()
            .find(|&&(_, n)| {
                seen += n;
                seen >= rank
            })
            .map_or(0.0, |&(lo, _)| lo as f64)
    };
    m.insert("ingress.engine_p50_us".into(), q(0.50) / 1e3);
    m.insert("ingress.engine_p99_us".into(), q(0.99) / 1e3);
    m.insert("ingress.shed_total".into(), b.shed as f64);
    let replied = (b.replied - a.replied).max(1) as f64;
    m.insert(
        "ingress.bytes_per_req".into(),
        (b.bytes - a.bytes) as f64 / replied,
    );

    let dispatched: Vec<f64> = b
        .loads
        .iter()
        .zip(&a.loads)
        .map(|(y, x)| (y.dispatched - x.dispatched) as f64)
        .collect();
    let mean = dispatched.iter().sum::<f64>() / dispatched.len().max(1) as f64;
    let max = dispatched.iter().copied().fold(0.0, f64::max);
    m.insert(
        "server.shard_skew".into(),
        if mean > 0.0 { max / mean } else { 1.0 },
    );
    let busy: u64 = b
        .loads
        .iter()
        .zip(&a.loads)
        .map(|(y, x)| y.busy_ns - x.busy_ns)
        .sum();
    m.insert("server.busy_ms".into(), busy as f64 / 1e6);

    let (ra, rb) = (&a.report, &b.report);
    let dispatches = rb.dispatched().saturating_sub(ra.dispatched()).max(1) as f64;
    let hits = rb.fastpath_hits().saturating_sub(ra.fastpath_hits()) as f64;
    m.insert("events.fastpath_ratio".into(), hits / dispatches);
    let misses =
        |r: &pdo_server::ServerReport| r.shards.iter().map(|s| s.guard_misses).sum::<u64>();
    m.insert(
        "events.guard_misses".into(),
        misses(rb).saturating_sub(misses(ra)) as f64,
    );
    let adapt = |r: &pdo_server::ServerReport| {
        let mut s = pdo::AdaptStats::default();
        for sh in &r.shards {
            s.absorb(&sh.adapt);
        }
        s
    };
    let (sa, sb) = (adapt(ra), adapt(rb));
    m.insert(
        "core.reprofiles".into(),
        sb.reprofiles.saturating_sub(sa.reprofiles) as f64,
    );
    m.insert(
        "core.chains_installed".into(),
        sb.chains_installed.saturating_sub(sa.chains_installed) as f64,
    );
    m.insert(
        "core.chains_dropped".into(),
        sb.chains_dropped.saturating_sub(sa.chains_dropped) as f64,
    );
    let hits = sb.cache_hits.saturating_sub(sa.cache_hits) as f64;
    let lookups = hits + sb.cache_misses.saturating_sub(sa.cache_misses) as f64;
    m.insert(
        "core.cache_hit_ratio".into(),
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
}

fn run_traced(a: &Args) -> Result<Outcome, String> {
    let w = a.workload;
    let half = a.seconds / 2.0;
    let mut r = bring_up(w, a.seed)?;
    let origin = Instant::now();

    // Untraced half: latency, engine counters and per-thread CPU.
    let snap_a = r.inst.snapshot()?;
    let cpu_a = ThreadCpu::read();
    let mut plain = measure(&mut r, w, half, None)?;
    let cpu_b = ThreadCpu::read();
    let snap_b = r.inst.snapshot()?;
    let replies = plain.replies_in_window.max(1) as f64;
    let rps = throughput(&plain, half);
    let p50_us = quantile(&mut plain.samples, 0.50) / 1e3;

    // Traced half: a span around every codec call.
    let mut spans = Spans::new(origin);
    let traced = measure(&mut r, w, half, Some(&mut spans))?;
    let rps_traced = throughput(&traced, half);

    let expect = r.load.expect(w);
    drop(r.driver);
    let fin = r.inst.finish(expect, Some(spans))?;
    let (probe, spans) = fin.probes.ok_or("traced run returned no probes")?;
    let mut errors = wire_errors(&plain);
    errors.extend(wire_errors(&traced));
    errors.extend(fin.errors);

    let mut m: BTreeMap<String, f64> = probe;
    engine_metrics(&mut m, &snap_a, &snap_b);
    let cpu_us = |prefix: &str| cpu_b.since(&cpu_a, prefix) as f64 / 1e3 / replies;
    m.insert("ingress.engine_cpu_us_per_req".into(), cpu_us(sys::ENGINE));
    m.insert(
        "ingress.acceptor_cpu_us_per_req".into(),
        cpu_us(sys::ACCEPTOR),
    );
    m.insert("bench.client_cpu_us_per_req".into(), cpu_us(sys::GENERATOR));
    m.insert(
        "ingress.outside_engine_us".into(),
        p50_us - m["ingress.engine_p50_us"],
    );

    let mut spans = spans;
    let encode = quantile(spans.durations("ingress.encode"), 0.5);
    let decode = quantile(spans.durations("ingress.decode"), 0.5);
    let server_raise = median_of(spans.durations("server.raise")) / 1e3;
    let events_raise = median_of(spans.durations("events.raise")) / 1e3;
    m.insert("ingress.encode_ns".into(), encode);
    m.insert("ingress.decode_ns".into(), decode);
    m.insert("server.raise_us".into(), server_raise);
    m.insert("events.raise_us".into(), events_raise);
    m.insert("server.self_us".into(), server_raise - events_raise);
    m.insert(
        "server.open_us".into(),
        median_of(spans.durations("server.open_session")) / 1e3,
    );
    m.insert(
        "server.close_us".into(),
        median_of(spans.durations("server.close_session")) / 1e3,
    );
    // The measured self times on one request's path: client codec, the
    // server's routing, and the runtime's dispatch.
    let accounted = (encode + decode) / 1e3 + server_raise;
    m.insert(
        "trace.p50_self_share".into(),
        accounted / p50_us.max(f64::MIN_POSITIVE),
    );
    m.insert("trace.spans".into(), spans.total() as f64);
    m.insert(
        "trace.overhead_ratio".into(),
        rps / rps_traced.max(f64::MIN_POSITIVE),
    );
    m.insert("bench.throughput_traced_rps".into(), rps_traced);
    m.insert("bench.samples".into(), plain.samples.len() as f64);
    let attempted = plain.sent + traced.sent;
    let failed = plain.failed + plain.missing + traced.failed + traced.missing;
    m.insert("error_rate".into(), failed as f64 / attempted.max(1) as f64);

    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", w.name(), a.seed));
    spans
        .write(&out)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!(
        "spans: {} recorded, written to {}",
        spans.total(),
        out.display()
    );
    Ok(Outcome {
        errors,
        attempted: attempted.max(1),
        failed,
        metrics: m,
    })
}

fn median_of(ns: &mut [u64]) -> f64 {
    quantile(ns, 0.5)
}

fn run(a: &Args) -> Result<Outcome, String> {
    println!(
        "config: host_cores={} seed={} seconds={} trace={} {}",
        sys::host_cores(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.workload.describe()
    );
    if a.trace {
        run_traced(a)
    } else {
        run_e2e(a)
    }
}

/// Runs `a` on the generator thread (named, so its CPU is attributable).
fn run_on_generator(a: Args) -> Result<Outcome, String> {
    std::thread::Builder::new()
        .name(sys::GENERATOR.to_string())
        .spawn(move || run(&a))
        .map_err(|e| format!("spawn generator: {e}"))?
        .join()
        .map_err(|_| "generator panicked".to_string())?
}

/// Every workload briefly in both modes: each metric must be reported
/// with a finite value, and be declared in `BENCHMARK.json`.
fn smoke() -> Result<(), String> {
    let declared = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let mut problems = Vec::new();
    for w in Workload::ALL {
        for (trace, units) in [(false, &E2E_METRICS[..]), (true, &LAYER_METRICS[..])] {
            let out = run_on_generator(Args {
                workload: w,
                seed: 1,
                seconds: if trace { 2.0 } else { 1.0 },
                trace,
            })?;
            println!(
                "{} trace={}: {}",
                w.name(),
                u8::from(trace),
                out.json(units)
            );
            problems.extend(out.errors.iter().map(|e| format!("{}: {e}", w.name())));
            for (name, _) in units {
                match out.metrics.get(*name) {
                    Some(v) if v.is_finite() => {}
                    other => {
                        problems.push(format!("{} trace={trace}: {name} = {other:?}", w.name()))
                    }
                }
                if !declared.contains(&format!("\"name\": \"{name}\"")) {
                    problems.push(format!("{name} is not declared in BENCHMARK.json"));
                }
            }
        }
    }
    if problems.is_empty() {
        println!("smoke: every metric reported, finite and declared");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => match smoke() {
            Ok(()) => return,
            Err(e) => {
                eprintln!("smoke failed:\n{e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --smoke\n{e}");
            std::process::exit(2);
        }
    };
    let units = if args.trace {
        &LAYER_METRICS[..]
    } else {
        &E2E_METRICS[..]
    };
    match run_on_generator(args) {
        Ok(out) => {
            for e in &out.errors {
                eprintln!("output check failed: {e}");
            }
            println!("{}", out.json(units));
            if !out.errors.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}
