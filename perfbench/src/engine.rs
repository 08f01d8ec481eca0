//! The served side of one run: a `pdo-server` behind a `pdo-ingress`,
//! owned by the engine thread (`Server` is `!Send`). The generator talks
//! to it over a command channel: the engine serves until paused, answers
//! the command, and resumes.

use crate::probes::{self, ProbeReport};
use crate::spans::Spans;
use crate::sys;
use crate::workload::Workload;
use pdo_ingress::{Ingress, IngressError};
use pdo_obs::Histogram;
use pdo_server::{Server, ServerReport, SessionId, ShardLoad};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Engine-side counters at one instant, for windowed differences.
#[derive(Debug, Clone)]
pub struct EngineSnap {
    /// Ingress admission→reply latency histogram.
    pub latency: Histogram,
    pub bytes: u64,
    pub replied: u64,
    pub shed: u64,
    pub loads: Vec<ShardLoad>,
    pub report: ServerReport,
}

/// What the engine checks after the wire phase.
#[derive(Debug, Default)]
pub struct Expect {
    /// Plain sessions and the raises each answered `Done`: `acc` must be
    /// 3 × that.
    pub plain_acc: Vec<(u64, u64)>,
    /// SecComm sessions and their `Done` raises: `frames_sent` must equal
    /// it, with no MAC failure.
    pub seccomm_frames: Vec<(u64, u64)>,
}

#[derive(Debug)]
pub struct Final {
    /// Output check failures.
    pub errors: Vec<String>,
    pub probes: Option<(ProbeReport, Spans)>,
}

enum Cmd {
    Snapshot(Sender<EngineSnap>),
    Finish(Expect, Option<Spans>),
}

/// A running server + ingress on its own engine thread.
pub struct Instance {
    pub addr: SocketAddr,
    /// Just before the ingress bound its listener.
    pub bind_at: Instant,
    pause: Arc<AtomicBool>,
    tx: Option<Sender<Cmd>>,
    handle: Option<JoinHandle<Result<Final, String>>>,
}

impl Instance {
    pub fn start(workload: Workload) -> Result<Instance, String> {
        let pause = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let (ready_tx, ready_rx) = mpsc::channel();
        let engine_pause = Arc::clone(&pause);
        let handle = std::thread::Builder::new()
            .name(sys::ENGINE.to_string())
            .spawn(move || engine_main(workload, ready_tx, rx, engine_pause))
            .map_err(|e| format!("spawn engine: {e}"))?;
        let mut inst = Instance {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            bind_at: Instant::now(),
            pause,
            tx: Some(tx),
            handle: Some(handle),
        };
        match ready_rx.recv() {
            Ok((addr, bind_at)) => {
                inst.addr = addr;
                inst.bind_at = bind_at;
                Ok(inst)
            }
            Err(_) => Err(inst
                .join()
                .err()
                .unwrap_or_else(|| "engine did not start".into())),
        }
    }

    fn send(&self, cmd: Cmd) -> Result<(), String> {
        self.pause.store(true, Ordering::SeqCst);
        self.tx
            .as_ref()
            .expect("live instance has a command channel")
            .send(cmd)
            .map_err(|_| "engine thread ended early".to_string())
    }

    /// Engine counters now (pauses serving for the duration).
    pub fn snapshot(&self) -> Result<EngineSnap, String> {
        let (reply, rx) = mpsc::channel();
        self.send(Cmd::Snapshot(reply))?;
        rx.recv()
            .map_err(|_| "engine thread ended early".to_string())
    }

    /// Stops serving, runs the output checks and (with `spans`) the
    /// in-process probes, and joins the engine thread.
    pub fn finish(mut self, expect: Expect, spans: Option<Spans>) -> Result<Final, String> {
        self.send(Cmd::Finish(expect, spans))?;
        self.join()
    }

    fn join(&mut self) -> Result<Final, String> {
        self.pause.store(true, Ordering::SeqCst);
        self.tx = None;
        match self.handle.take() {
            Some(h) => h.join().map_err(|_| "engine thread panicked".to_string())?,
            None => Err("engine already joined".into()),
        }
    }
}

impl Drop for Instance {
    fn drop(&mut self) {
        if self.handle.is_some() {
            let _ = self.join();
        }
    }
}

fn engine_main(
    workload: Workload,
    ready: Sender<(SocketAddr, Instant)>,
    rx: Receiver<Cmd>,
    pause: Arc<AtomicBool>,
) -> Result<Final, String> {
    let mut server = Server::new(workload.server_config());
    let bind_at = Instant::now();
    let mut ingress = Ingress::bind(workload.ingress_config(), server.shards())
        .map_err(|e: IngressError| format!("bind ingress: {e}"))?;
    let addr = ingress.tcp_addr().ok_or("ingress has no TCP listener")?;
    ready
        .send((addr, bind_at))
        .map_err(|_| "generator gone before start")?;
    loop {
        ingress
            .serve(&mut server, &pause)
            .map_err(|e| format!("serve: {e}"))?;
        match rx.recv() {
            Ok(Cmd::Snapshot(reply)) => {
                let snap = snapshot(&ingress, &mut server);
                pause.store(false, Ordering::SeqCst);
                let _ = reply.send(snap);
            }
            Ok(Cmd::Finish(expect, spans)) => {
                // The acceptor stops first, so the probes below run
                // without a spinning network thread beside them.
                ingress.shutdown();
                let errors = check(&mut server, &expect);
                let probes = spans.map(|mut s| {
                    let report = probes::run(workload, &mut server, &expect, &mut s);
                    (report, s)
                });
                return Ok(Final { errors, probes });
            }
            // The generator is gone (it failed); stop serving.
            Err(_) => return Err("generator ended without finishing".into()),
        }
    }
}

fn snapshot(ingress: &Ingress, server: &mut Server) -> EngineSnap {
    let m = ingress.metrics();
    EngineSnap {
        latency: m
            .histogram_value("pdo_ingress_request_latency_ns", &[])
            .cloned()
            .unwrap_or_default(),
        bytes: m
            .counter_value("pdo_ingress_bytes_read_total", &[])
            .unwrap_or(0)
            + m.counter_value("pdo_ingress_bytes_written_total", &[])
                .unwrap_or(0),
        replied: ingress.replied_total(),
        shed: ingress.shed_total(),
        loads: server.shard_loads(),
        report: server.report(),
    }
}

/// The per-session output checks of the plain and SecComm workloads.
fn check(server: &mut Server, expect: &Expect) -> Vec<String> {
    let mut errors = Vec::new();
    for &(id, done) in &expect.plain_acc {
        match server.with_runtime(SessionId(id), |rt| rt.global(pdo_ir::GlobalId(0)).as_int()) {
            Ok(Some(acc)) if acc == 3 * done as i64 => {}
            other => errors.push(format!(
                "plain session {id}: acc {other:?}, expected {}",
                3 * done
            )),
        }
    }
    for &(id, done) in &expect.seccomm_frames {
        match server.with_seccomm(SessionId(id), |ep| (ep.frames_sent(), ep.mac_failures())) {
            Ok((frames, 0)) if frames == done => {}
            other => errors.push(format!(
                "seccomm session {id}: (frames_sent, mac_failures) {other:?}, expected ({done}, 0)"
            )),
        }
    }
    errors
}
