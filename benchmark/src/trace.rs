//! Spans recorded from the benchmark's side of every call into the
//! system: name, start, end, the span that caused it, and the subframe
//! they belong to. They stay in memory and are written out once, when the
//! run ends. A span's self time is its duration minus what its children
//! cover; per-layer numbers are medians over subframes of self time.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub subframe: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`; stamps taken before it
    /// clamp to 0.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Tracer {
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span from two stamps taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        subframe: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent,
            subframe,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Opens a span now; [`Self::close`] ends it. For parents whose
    /// children are recorded while they run.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        subframe: Option<u32>,
    ) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, subframe, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0 as usize].end_ns = self.ns(Instant::now());
    }

    /// Times one call as a leaf span.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        subframe: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, subframe, start, Instant::now());
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time of every span, ns: duration minus the part its children
    /// cover (children lie inside their parent and do not overlap).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                let covered = (s.end_ns - s.start_ns).min(own[p as usize]);
                own[p as usize] -= covered;
            }
        }
        own
    }

    /// Median over subframes of the self time, µs, that spans with one of
    /// `names` spent on that subframe; 0 when no such span was recorded.
    pub fn layer_us(&self, names: &[&str]) -> f64 {
        let own = self.self_ns();
        let mut per_sf: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            if let (Some(sf), true) = (s.subframe, names.contains(&s.name)) {
                *per_sf.entry(sf).or_default() += ns;
            }
        }
        if per_sf.is_empty() {
            return 0.0;
        }
        let us: Vec<f64> = per_sf.values().map(|&ns| ns as f64 / 1e3).collect();
        median(&us)
    }

    /// One JSON object per line: id, name, parent, subframe, start, end, self.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"subframe\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.name,
                opt(s.parent.map(|p| p.0)),
                opt(s.subframe),
                s.start_ns,
                s.end_ns,
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Tracer::new(t0, 8);
        let parent = tr.record("phy.decode", None, Some(0), at(0), at(100));
        tr.record("phy.decode.block", Some(parent), Some(0), at(10), at(40));
        tr.record("phy.decode.block", Some(parent), Some(0), at(40), at(90));
        tr.record("phy.decode", None, Some(1), at(200), at(260));
        assert_eq!(tr.self_ns(), [20_000, 30_000, 50_000, 60_000]);
        // Subframe 0 spent 100 µs in the stage, subframe 1 spent 60 µs.
        assert_eq!(tr.layer_us(&["phy.decode", "phy.decode.block"]), 80.0);
        assert_eq!(tr.layer_us(&["phy.decode.block"]), 80.0);
        assert_eq!(tr.layer_us(&["phy.fft"]), 0.0);
    }

    #[test]
    fn open_close_and_file_round_trip() {
        let mut tr = Tracer::new(Instant::now(), 4);
        let p = tr.open("node.run_fed", None, None);
        let v = tr.call("tx.send", Some(p), Some(3), || 7);
        tr.close(p);
        assert_eq!((v, tr.len()), (7, 2));
        let path = crate::out_dir().join(format!("test-trace-{}.jsonl", std::process::id()));
        tr.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\": 0, \"name\": \"node.run_fed\", \"parent\": null"));
        assert!(lines[1].contains("\"parent\": 0, \"subframe\": 3"));
    }
}
