//! The three workloads: their fixed server/ingress configuration, their
//! event programs, and the closed-loop traffic each one sends.
//!
//! Every setting here is a property of the workload, identical on every
//! commit; nothing is calibrated per run. The seed only picks the order
//! sessions are visited in and the SecComm payload sizes and bytes.

use crate::gen::{Idle, Traffic, Verdict};
use crate::stats::Rng;
use pdo_ingress::proto::{Reply, Request, WireMode};
use pdo_ingress::{IngressConfig, OpenKind};
use pdo_ir::{BinOp, EventId, FunctionBuilder, Module, RaiseMode, Value};
use pdo_server::ServerConfig;
use std::time::Duration;

/// TCP connections the generator drives (one per core of the 2-core
/// reference host; the generator multiplexes them from one thread).
pub const CONNS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlainRpc,
    SeccommRpc,
    SessionChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PlainRpc,
        Workload::SeccommRpc,
        Workload::SessionChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlainRpc => "plain_rpc",
            Workload::SeccommRpc => "seccomm_rpc",
            Workload::SessionChurn => "session_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Requests each connection keeps outstanding (churn: session slots,
    /// each with one request in flight).
    pub fn window(self) -> usize {
        match self {
            Workload::PlainRpc => 32,
            Workload::SeccommRpc => 16,
            Workload::SessionChurn => 4,
        }
    }

    /// How the generator idles when no byte moved. The plain client
    /// polls every 50 µs: with 64 requests in flight a yield-spinning
    /// generator competes with the acceptor and engine threads for the
    /// two cores, and its share of them decided the throughput (run to
    /// run spread 15–22%, against 5–8% polling). The SecComm client
    /// blocks in `poll(2)`: its engine is CPU-bound at ~120 µs a request,
    /// and a spinning client (50 µs of CPU per request) took a varying
    /// share of the engine's core. The churn client spins, because its
    /// replies come back within a few tens of µs of one another and a
    /// sleep would set its pace.
    pub fn idle(self) -> Idle {
        match self {
            Workload::PlainRpc => Idle::Sleep(Duration::from_micros(50)),
            Workload::SeccommRpc => Idle::Block,
            Workload::SessionChurn => Idle::Yield,
        }
    }

    /// Whether set-up waits for every session to report a live chain.
    /// Plain sessions get 4 raises per 1024-command epoch, so their
    /// decayed event weight hovers near the optimizer threshold and they
    /// specialize at no predictable point; set-up gives them a fixed
    /// warm-up instead. SecComm sessions specialize in the first epochs.
    pub fn specializes_at_setup(self) -> bool {
        self == Workload::SeccommRpc
    }

    /// Sessions opened at set-up (churn opens its own as it cycles).
    pub fn sessions(self) -> usize {
        match self {
            Workload::PlainRpc => 256,
            Workload::SeccommRpc => 32,
            Workload::SessionChurn => 0,
        }
    }

    /// Two shards, served inline (`threads: 1`) on every workload.
    /// `Ingress::drive` blocks on each `Server::raise`, so worker threads
    /// run no shard in parallel; they only add two cross-thread wake-ups
    /// per request. On the 2-core host those made SecComm throughput
    /// spread 18% between runs, against 7.5% inline, with interleaved
    /// runs inline faster in every pair.
    pub fn server_config(self) -> ServerConfig {
        ServerConfig {
            shards: 2,
            threads: 1,
            ..ServerConfig::default()
        }
    }

    pub fn ingress_config(self) -> IngressConfig {
        IngressConfig {
            // Churn advances an epoch every 128 admitted commands: each of
            // the 8 live sessions then gets ~16 raises per epoch, enough
            // for its decayed profile to cross the optimizer threshold, and
            // crosses dozens of epochs in its lifetime, so it is
            // specialized long before it closes. (At 64, with 8 raises per
            // session per epoch, no session specialized.)
            epoch_every: match self {
                Workload::SessionChurn => 128,
                Workload::PlainRpc | Workload::SeccommRpc => 1024,
            },
            ..IngressConfig::default()
        }
    }

    /// The run's configuration record, as one JSON object.
    pub fn describe(self) -> String {
        let s = self.server_config();
        let i = self.ingress_config();
        format!(
            "{{\"workload\":\"{}\",\"conns\":{CONNS},\"window_per_conn\":{},\"sessions\":{},\
             \"churn_raises\":{CHURN_RAISES},\"server\":{{\"shards\":{},\"threads\":{},\
             \"adapt\":\"default\"}},\"ingress\":{{\"max_inflight\":{},\"shard_queue\":{},\
             \"epoch_every\":{},\"epoch_step_ns\":{}}}}}",
            self.name(),
            self.window(),
            self.sessions(),
            s.shards,
            s.threads,
            i.max_inflight,
            i.shard_queue,
            i.epoch_every,
            i.epoch_step_ns,
        )
    }
}

/// The plain sessions' program: one event, two handlers that load, add
/// and store one global, so each raise adds 1 + 2 = 3 to `acc`.
pub fn plain_module() -> (Module, EventId, Vec<(u32, u32, i32)>) {
    let mut m = Module::new();
    let e = m.add_event("req");
    let g = m.add_global("acc", Value::Int(0));
    let mut binds = Vec::new();
    for k in 0..2i64 {
        let mut fb = FunctionBuilder::new(format!("h{k}"), 0);
        let v = fb.load_global(g);
        let d = fb.const_int(k + 1);
        let o = fb.bin(BinOp::Add, v, d);
        fb.store_global(g, o);
        fb.ret(None);
        let f = m.add_function(fb.finish());
        binds.push((e.0, f.0, k as i32));
    }
    (m, e, binds)
}

/// Events in the churn chain, and handlers bound to each.
pub const CHURN_EVENTS: usize = 4;
pub const CHURN_HANDLERS: usize = 3;
/// Sync raises each churn session receives between `Open` and `Close`.
/// At 128 or 256 the multi-session re-profile stalls made up about 1% of
/// requests, so p99 sat on the knee of the tail and moved 13% between
/// runs; at 512 they stay beyond p99.5 while open, re-profile and close
/// remain a large share of throughput.
pub const CHURN_RAISES: usize = 512;

/// The churn sessions' program: 4 events × 3 handlers, each handler a
/// locked read-modify-write of its event's global, and each event's last
/// handler sync-raising the next event — a chain the optimizer merges,
/// subsumes and fuses.
pub fn churn_module() -> (Module, EventId, Vec<(u32, u32, i32)>) {
    let mut m = Module::new();
    let events: Vec<EventId> = (0..CHURN_EVENTS)
        .map(|i| m.add_event(format!("stage{i}")))
        .collect();
    let mut binds = Vec::new();
    for (i, &e) in events.iter().enumerate() {
        let g = m.add_global(format!("count{i}"), Value::Int(0));
        for k in 0..CHURN_HANDLERS {
            let mut fb = FunctionBuilder::new(format!("s{i}h{k}"), 0);
            fb.lock(g);
            let v = fb.load_global(g);
            let d = fb.const_int(k as i64 + 1);
            let o = fb.bin(BinOp::Add, v, d);
            fb.store_global(g, o);
            fb.unlock(g);
            if k + 1 == CHURN_HANDLERS && i + 1 < CHURN_EVENTS {
                fb.raise(events[i + 1], RaiseMode::Sync, &[]);
            }
            fb.ret(None);
            let f = m.add_function(fb.finish());
            binds.push((e.0, f.0, k as i32));
        }
    }
    (m, events[0], binds)
}

/// Opens `quota` sessions per connection and collects their ids.
pub struct OpenTraffic {
    request: Request,
    quota: usize,
    issued: Vec<usize>,
    pub opened: Vec<Vec<u64>>,
}

impl OpenTraffic {
    pub fn new(request: Request, quota: usize) -> OpenTraffic {
        OpenTraffic {
            request,
            quota,
            issued: vec![0; CONNS],
            opened: vec![Vec::new(); CONNS],
        }
    }
}

impl Traffic for OpenTraffic {
    fn next(&mut self, conn: usize, _slot: usize) -> Option<Request> {
        (self.issued[conn] < self.quota).then(|| {
            self.issued[conn] += 1;
            self.request.clone()
        })
    }

    fn reply(&mut self, conn: usize, _slot: usize, reply: Reply) -> Verdict {
        match reply {
            Reply::Opened { session } => {
                self.opened[conn].push(session);
                Verdict::Ok
            }
            other => Verdict::Wrong(format!("open failed: {other:?}")),
        }
    }
}

/// Queries every listed session; collects `chains_live` per session.
pub struct QueryTraffic {
    sessions: Vec<Vec<u64>>,
    cursor: Vec<usize>,
    pub unspecialized: Vec<Vec<u64>>,
}

impl QueryTraffic {
    pub fn new(sessions: Vec<Vec<u64>>) -> QueryTraffic {
        QueryTraffic {
            sessions,
            cursor: vec![0; CONNS],
            unspecialized: vec![Vec::new(); CONNS],
        }
    }
}

impl Traffic for QueryTraffic {
    fn next(&mut self, conn: usize, _slot: usize) -> Option<Request> {
        let session = *self.sessions[conn].get(self.cursor[conn])?;
        self.cursor[conn] += 1;
        Some(Request::Query { session })
    }

    fn reply(&mut self, conn: usize, _slot: usize, reply: Reply) -> Verdict {
        match reply {
            Reply::Stats(s) => {
                if s.chains_live == 0 {
                    self.unspecialized[conn].push(s.session);
                }
                Verdict::Ok
            }
            other => Verdict::Wrong(format!("query failed: {other:?}")),
        }
    }
}

/// Sync raises over a fixed session set, visited per connection in a
/// seeded order; SecComm raises carry a payload whose size is drawn by
/// the seed from the paper's Fig 12 sizes.
pub struct RaiseTraffic {
    event: u32,
    /// Per connection: (session id, index into `done`) in visiting order.
    order: Vec<Vec<(u64, usize)>>,
    cursor: Vec<usize>,
    /// Per connection and slot: the session index of the raise in flight.
    in_flight: Vec<Vec<usize>>,
    /// Raises per session each connection issues before `next` stops
    /// (`None`: never).
    limit: Option<usize>,
    issued: Vec<usize>,
    /// Payloads by Fig 12 size (empty: raises carry no arguments).
    payloads: Vec<Value>,
    rng: Rng,
    /// Raises answered `Done`, per session index.
    pub done: Vec<u64>,
    /// Session ids, by session index.
    pub ids: Vec<u64>,
}

impl RaiseTraffic {
    pub fn new(
        event: u32,
        sessions: &[Vec<u64>],
        window: usize,
        payloads: Vec<Value>,
        seed: u64,
    ) -> RaiseTraffic {
        let mut rng = Rng::new(seed, 0x5E55);
        let mut ids = Vec::new();
        let order = sessions
            .iter()
            .map(|conn_sessions| {
                let mut o: Vec<(u64, usize)> = conn_sessions
                    .iter()
                    .map(|&s| {
                        ids.push(s);
                        (s, ids.len() - 1)
                    })
                    .collect();
                rng.shuffle(&mut o);
                o
            })
            .collect();
        RaiseTraffic {
            event,
            order,
            cursor: vec![0; CONNS],
            in_flight: vec![vec![0; window]; CONNS],
            limit: None,
            issued: vec![0; CONNS],
            payloads,
            rng: Rng::new(seed, 0xB17E),
            done: vec![0; ids.len()],
            ids,
        }
    }

    /// Lets every connection issue `per_session` more raises to each of
    /// its sessions, then stop.
    pub fn allow(&mut self, per_session: usize) {
        self.issued = vec![0; CONNS];
        self.limit = Some(per_session);
    }

    /// Lifts the per-session limit (the measured window).
    pub fn unlimited(&mut self) {
        self.limit = None;
    }
}

impl Traffic for RaiseTraffic {
    fn next(&mut self, conn: usize, slot: usize) -> Option<Request> {
        let order = &self.order[conn];
        if order.is_empty()
            || self
                .limit
                .is_some_and(|l| self.issued[conn] >= l * order.len())
        {
            return None;
        }
        self.issued[conn] += 1;
        let (session, idx) = order[self.cursor[conn] % order.len()];
        self.cursor[conn] += 1;
        self.in_flight[conn][slot] = idx;
        let args = if self.payloads.is_empty() {
            Vec::new()
        } else {
            vec![self.payloads[self.rng.below(self.payloads.len())].clone()]
        };
        Some(Request::Raise {
            session,
            event: self.event,
            mode: WireMode::Sync,
            args,
        })
    }

    fn reply(&mut self, conn: usize, slot: usize, reply: Reply) -> Verdict {
        match reply {
            Reply::Done => {
                self.done[self.in_flight[conn][slot]] += 1;
                Verdict::Ok
            }
            Reply::Shed { .. } | Reply::Error { .. } => Verdict::Failed,
            other => Verdict::Wrong(format!("raise answered {other:?}")),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    Open,
    Raise { session: u64, left: usize },
    Query { session: u64 },
    Close { session: u64 },
    Idle,
}

/// Session churn: each slot cycles `Open{Plain}` → `CHURN_RAISES` sync
/// raises → `Query` (must show a live chain) → `Close`.
pub struct ChurnTraffic {
    open: Request,
    event: u32,
    phase: Vec<Vec<Phase>>,
    /// Park each slot after it completes a cycle (set-up warm-up).
    pub one_cycle: bool,
    pub cycles: u64,
}

impl ChurnTraffic {
    pub fn new(window: usize) -> ChurnTraffic {
        let (module, event, bindings) = churn_module();
        ChurnTraffic {
            open: Request::Open(OpenKind::Plain { module, bindings }),
            event: event.0,
            phase: vec![vec![Phase::Open; window]; CONNS],
            one_cycle: false,
            cycles: 0,
        }
    }

    /// Re-arms parked slots.
    pub fn resume(&mut self) {
        for p in self.phase.iter_mut().flatten() {
            if matches!(p, Phase::Idle) {
                *p = Phase::Open;
            }
        }
    }
}

impl Traffic for ChurnTraffic {
    fn next(&mut self, conn: usize, slot: usize) -> Option<Request> {
        Some(match self.phase[conn][slot] {
            Phase::Open => self.open.clone(),
            Phase::Raise { session, .. } => Request::Raise {
                session,
                event: self.event,
                mode: WireMode::Sync,
                args: Vec::new(),
            },
            Phase::Query { session } => Request::Query { session },
            Phase::Close { session } => Request::Close { session },
            Phase::Idle => return None,
        })
    }

    fn reply(&mut self, conn: usize, slot: usize, reply: Reply) -> Verdict {
        let phase = &mut self.phase[conn][slot];
        match (*phase, reply) {
            (Phase::Open, Reply::Opened { session }) => {
                *phase = Phase::Raise {
                    session,
                    left: CHURN_RAISES,
                };
                Verdict::Ok
            }
            (Phase::Raise { session, left }, Reply::Done) => {
                *phase = if left > 1 {
                    Phase::Raise {
                        session,
                        left: left - 1,
                    }
                } else {
                    Phase::Query { session }
                };
                Verdict::Ok
            }
            (Phase::Query { session }, Reply::Stats(s)) => {
                *phase = Phase::Close { session };
                if s.chains_live >= 1 {
                    Verdict::Ok
                } else {
                    Verdict::Wrong(format!("session {session} not specialized before close"))
                }
            }
            (Phase::Close { .. }, Reply::Closed { existed: true }) => {
                self.cycles += 1;
                *phase = if self.one_cycle {
                    Phase::Idle
                } else {
                    Phase::Open
                };
                Verdict::Ok
            }
            (_, Reply::Shed { .. } | Reply::Error { .. }) => Verdict::Failed,
            (p, r) => Verdict::Wrong(format!("{p:?} answered {r:?}")),
        }
    }
}
