//! Process and per-thread readings from `/proc/self`: CPU time by thread
//! name (from `schedstat`, nanosecond resolution) and peak resident set
//! size (`VmHWM`); and the `poll(2)` wait of a blocking generator.

use std::collections::BTreeMap;
use std::fs;
use std::os::fd::RawFd;

/// Thread-name prefixes the benchmark attributes CPU to.
pub const ENGINE: &str = "pdo-engine";
pub const ACCEPTOR: &str = "pdo-ingress-net";
pub const GENERATOR: &str = "bench-gen";

/// CPU nanoseconds consumed so far by every live thread, keyed by thread
/// id and carrying the thread's name.
#[derive(Debug, Clone, Default)]
pub struct ThreadCpu(BTreeMap<u64, (String, u64)>);

impl ThreadCpu {
    /// Reads `/proc/self/task/*/{comm,schedstat}`.
    pub fn read() -> ThreadCpu {
        let mut out = BTreeMap::new();
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return ThreadCpu(out);
        };
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let path = entry.path();
            let (Ok(comm), Ok(stat)) = (
                fs::read_to_string(path.join("comm")),
                fs::read_to_string(path.join("schedstat")),
            ) else {
                continue;
            };
            let Some(ns) = stat.split_whitespace().next().and_then(|s| s.parse().ok()) else {
                continue;
            };
            out.insert(tid, (comm.trim().to_string(), ns));
        }
        ThreadCpu(out)
    }

    /// CPU nanoseconds spent between `before` and `self` by threads whose
    /// name starts with `prefix`. Threads born inside the interval count
    /// from zero.
    pub fn since(&self, before: &ThreadCpu, prefix: &str) -> u64 {
        self.0
            .iter()
            .filter(|(_, (name, _))| name.starts_with(prefix))
            .map(|(tid, (_, ns))| ns - before.0.get(tid).map_or(0, |(_, b)| (*b).min(*ns)))
            .sum()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`, kB precision).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

/// Blocks until one of `fds` is readable (or, where its flag is set,
/// writable), or `timeout_ms` passes. Errors (an interrupted wait
/// included) return at once; the caller polls its sockets either way.
pub fn wait_readable(fds: &[(RawFd, bool)], timeout_ms: i32) {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, write)| PollFd {
            fd,
            events: if write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    // SAFETY: `set` is a live, exclusively borrowed array of `set.len()`
    // `struct pollfd`s for the duration of the call.
    unsafe {
        poll(set.as_mut_ptr(), set.len() as std::ffi::c_ulong, timeout_ms);
    }
}
