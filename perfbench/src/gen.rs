//! The closed-loop load generator: one thread multiplexing non-blocking
//! loopback TCP connections, each keeping a fixed window of requests
//! outstanding. A slot sends its next request only when the previous
//! reply has been decoded.

use crate::spans::Spans;
use pdo_ingress::proto::{self, FrameBuffer, Reply, Request};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long the generator waits for outstanding replies, with no byte
/// moving, before it declares them lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// What the generator does when a sweep of its sockets moved no byte.
#[derive(Debug, Clone, Copy)]
pub enum Idle {
    /// Yield and sweep again at once.
    Yield,
    /// Sleep this long.
    Sleep(Duration),
    /// Block in `poll(2)` until a socket has bytes to read (or room for
    /// queued bytes).
    Block,
}

/// The outcome of one reply.
#[derive(Debug)]
pub enum Verdict {
    /// The reply the request called for.
    Ok,
    /// Shed or `Error`: counted against the error rate.
    Failed,
    /// A reply the program must never give: an output check failure.
    Wrong(String),
}

/// What a workload sends and how it checks what comes back.
pub trait Traffic {
    /// The next request of `slot` on connection `conn`; `None` parks it.
    fn next(&mut self, conn: usize, slot: usize) -> Option<Request>;
    /// Checks the reply to the request `slot` sent last.
    fn reply(&mut self, conn: usize, slot: usize, reply: Reply) -> Verdict;
}

/// Everything counted while traffic runs.
#[derive(Debug, Default)]
pub struct Tally {
    pub sent: u64,
    /// Replies received before the window closed.
    pub replies_in_window: u64,
    pub failed: u64,
    /// Requests that never got a reply.
    pub missing: u64,
    /// Output check failures (first few kept verbatim).
    pub wrong: u64,
    pub wrong_examples: Vec<String>,
    /// Request→reply latency of every reply received in the window, ns.
    /// Failed requests record `u32::MAX` (they miss every limit).
    pub samples: Vec<u32>,
    /// Samples beyond the preallocated buffer (not recorded).
    pub samples_dropped: u64,
    /// Replies received in each whole second of the window.
    pub per_second: Vec<u64>,
}

impl Tally {
    /// A tally whose sample buffer holds `cap` samples, allocated and
    /// touched up front so its memory does not depend on throughput.
    pub fn with_capacity(cap: usize) -> Tally {
        let mut samples = vec![u32::MAX; cap];
        samples.clear();
        Tally {
            samples,
            ..Tally::default()
        }
    }

    fn record(&mut self, ns: u32) {
        if self.samples.len() < self.samples.capacity() {
            self.samples.push(ns);
        } else {
            self.samples_dropped += 1;
        }
    }

    fn wrong(&mut self, why: String) {
        self.wrong += 1;
        if self.wrong_examples.len() < 8 {
            self.wrong_examples.push(why);
        }
    }
}

struct Conn {
    stream: TcpStream,
    inbuf: FrameBuffer,
    out: Vec<u8>,
    out_pos: usize,
    /// req_id → (slot, sent at).
    pending: HashMap<u64, (usize, Instant)>,
    next_req: u64,
}

/// The generator's connections to one ingress.
pub struct Driver {
    conns: Vec<Conn>,
    /// What the generator does when no byte moved.
    idle: Idle,
}

impl Driver {
    /// Connects `n` non-blocking TCP connections.
    pub fn connect(
        addr: SocketAddr,
        n: usize,
        idle: Idle,
    ) -> std::io::Result<Driver> {
        let conns = (0..n)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream.set_nonblocking(true)?;
                Ok(Conn {
                    stream,
                    inbuf: FrameBuffer::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    pending: HashMap::new(),
                    next_req: 1,
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Driver { conns, idle })
    }

    /// Runs `traffic` closed-loop with `window` slots per connection until
    /// every slot is parked, or — with `window_end` — until that instant,
    /// after which no request is sent and the outstanding ones drain.
    /// Latencies of replies received before `window_end` (all of them
    /// without one) go to `tally.samples`. With `spans`, every call into
    /// the ingress codec is recorded as a span.
    pub fn run(
        &mut self,
        traffic: &mut dyn Traffic,
        window: usize,
        window_end: Option<Instant>,
        tally: &mut Tally,
        mut spans: Option<&mut Spans>,
    ) -> std::io::Result<()> {
        for ci in 0..self.conns.len() {
            for slot in 0..window {
                self.issue(ci, slot, traffic, tally, spans.as_deref_mut());
            }
        }
        let mut sending = true;
        let mut last_progress = Instant::now();
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            let outstanding: usize = self.conns.iter().map(|c| c.pending.len()).sum();
            if outstanding == 0 {
                return Ok(());
            }
            let mut progress = false;
            for ci in 0..self.conns.len() {
                progress |= self.conns[ci].fill(&mut chunk)?;
                loop {
                    let c = &mut self.conns[ci];
                    let t0 = Instant::now();
                    let Some(frame) = c.inbuf.next_frame(proto::MAX_FRAME_LEN).map_err(bad_data)?
                    else {
                        break;
                    };
                    let (rid, reply) = proto::decode_reply(&frame).map_err(bad_data)?;
                    let now = Instant::now();
                    if let Some(s) = spans.as_deref_mut() {
                        s.record("ingress.decode", None, rid, t0, now);
                    }
                    let (slot, sent_at) = c
                        .pending
                        .remove(&rid)
                        .ok_or_else(|| bad_data(format!("reply to unknown request {rid}")))?;
                    let in_window = window_end.is_none_or(|end| now <= end);
                    match traffic.reply(ci, slot, reply) {
                        Verdict::Ok => {
                            if in_window {
                                let ns = now.duration_since(sent_at).as_nanos();
                                tally.record(u32::try_from(ns).unwrap_or(u32::MAX - 1));
                            }
                        }
                        Verdict::Failed => {
                            tally.failed += 1;
                            if in_window {
                                tally.record(u32::MAX);
                            }
                        }
                        Verdict::Wrong(why) => tally.wrong(why),
                    }
                    if in_window {
                        tally.replies_in_window += 1;
                        if let Some(end) = window_end {
                            let left = end.duration_since(now).as_secs() as usize;
                            let secs = tally.per_second.len();
                            if left < secs {
                                tally.per_second[secs - 1 - left] += 1;
                            }
                        }
                    }
                    sending &= in_window;
                    if sending {
                        self.issue(ci, slot, traffic, tally, spans.as_deref_mut());
                    }
                    progress = true;
                }
                progress |= self.conns[ci].flush()?;
            }
            if progress {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > DRAIN_LIMIT {
                tally.missing += outstanding as u64;
                for c in &mut self.conns {
                    c.pending.clear();
                }
                return Ok(());
            } else {
                match self.idle {
                    Idle::Yield => std::thread::yield_now(),
                    Idle::Sleep(d) => std::thread::sleep(d),
                    Idle::Block => {
                        let fds: Vec<_> = self
                            .conns
                            .iter()
                            .map(|c| (c.stream.as_raw_fd(), c.out_pos < c.out.len()))
                            .collect();
                        // Bounded, so the drain limit above is still checked.
                        crate::sys::wait_readable(&fds, 100);
                    }
                }
            }
        }
    }

    fn issue(
        &mut self,
        ci: usize,
        slot: usize,
        traffic: &mut dyn Traffic,
        tally: &mut Tally,
        spans: Option<&mut Spans>,
    ) {
        let Some(req) = traffic.next(ci, slot) else {
            return;
        };
        let c = &mut self.conns[ci];
        let id = c.next_req;
        c.next_req += 1;
        let t0 = Instant::now();
        let bytes = proto::encode_request(id, &req);
        if let Some(s) = spans {
            s.record("ingress.encode", None, id, t0, Instant::now());
        }
        c.out.extend_from_slice(&bytes);
        c.pending.insert(id, (slot, Instant::now()));
        tally.sent += 1;
    }
}

impl Conn {
    /// Reads every available byte; true if any arrived.
    fn fill(&mut self, chunk: &mut [u8]) -> std::io::Result<bool> {
        let mut progress = false;
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.inbuf.extend(&chunk[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(progress),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes queued bytes until the socket would block; true if any left.
    fn flush(&mut self) -> std::io::Result<bool> {
        let mut progress = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(progress)
    }
}

fn bad_data(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, e.to_string())
}
