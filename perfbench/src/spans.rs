//! The traced run's span recorder: one span (name, start, end, parent,
//! request id) around every call the benchmark makes into a layer's
//! public function. Spans stay in memory and are written out as JSON
//! lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans of one name kept verbatim for the span file. Every span is still
/// timed and counted; past this many of a name only its duration is kept
/// (the wire phase alone makes millions of codec spans).
const KEEP_PER_NAME: usize = 8192;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub req: u64,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    next_id: u64,
    kept: Vec<Span>,
    /// Duration of every span recorded, by name.
    durations: BTreeMap<&'static str, Vec<u64>>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            next_id: 1,
            kept: Vec::new(),
            durations: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.reserve();
        self.record_as(id, name, parent, req, start, end);
    }

    /// A fresh span id, for a parent whose children finish before it.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let durations = self.durations.entry(name).or_default();
        durations.push(end_ns.saturating_sub(start_ns));
        if durations.len() <= KEEP_PER_NAME {
            self.kept.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                req,
            });
        }
    }

    /// Every duration recorded under `name`, in ns.
    pub fn durations(&mut self, name: &str) -> &mut [u64] {
        self.durations
            .get_mut(name)
            .map_or(&mut [], Vec::as_mut_slice)
    }

    /// Spans recorded in total.
    pub fn total(&self) -> usize {
        self.durations.values().map(Vec::len).sum()
    }

    /// Writes the kept spans as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}
