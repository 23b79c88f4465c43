//! Span recorder for the traced run.
//!
//! Spans are taken by the benchmark around its calls into each layer (spans
//! inside the program are ROADMAP item 4, a later change). They stay in
//! memory until the run ends and are then written as Chrome trace-event
//! JSON, which `chrome://tracing` and Perfetto open directly.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

/// Spans written to a Chrome trace file; all of them stay in memory and
/// count towards the metrics.
const FILE_SPANS: usize = 20_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Shared by every span of one request (job or DES cell).
    pub job: u32,
    /// Trace-viewer lane: spans on one lane never overlap unless nested.
    pub lane: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name roll-up of a finished recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part covered by child spans.
    pub self_ns: u64,
}

impl NameTotal {
    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64 / 1e3
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn add(
        &mut self,
        name: &'static str,
        job: u32,
        lane: u32,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            job,
            lane,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Time `f` as a span on lane 0.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        job: u32,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.add(name, job, 0, parent, start, end);
        out
    }

    /// Open a parent span whose children are recorded while it is open;
    /// close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, job: u32) -> SpanId {
        let now = self.now_ns();
        self.add(name, job, 0, None, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part of that interval
    /// its child spans cover (overlapping children are not double-counted).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(cursor, s.end_ns);
                    covered += b - a;
                    cursor = b;
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self.self_times_ns();
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// One line per span name: count, total and self time.
    pub fn table(&self) -> Vec<String> {
        self.totals_by_name()
            .iter()
            .map(|(name, t)| {
                format!(
                    "span {name}: count {}, total {:.3} ms, self {:.3} ms",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                )
            })
            .collect()
    }

    /// Host nanoseconds one empty span costs, so the trace's own weight is
    /// on record beside the numbers it produced.
    pub fn span_cost_ns() -> f64 {
        const N: u32 = 100_000;
        let mut probe = Recorder::new();
        let t0 = Instant::now();
        for _ in 0..N {
            probe.time("probe", 0, None, || {});
        }
        std::hint::black_box(probe.spans.len());
        t0.elapsed().as_nanos() as f64 / N as f64
    }

    /// Write `benchmark/out/<workload>.trace.json`.
    pub fn save(&self, workload: &str) -> Result<(), String> {
        let path = crate::reference::bench_dir()
            .join("out")
            .join(format!("{workload}.trace.json"));
        std::fs::create_dir_all(path.parent().expect("trace file has a parent"))
            .and_then(|()| self.write_chrome(&path, FILE_SPANS))
            .map(drop)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write the first `cap` spans as Chrome trace-event JSON (complete
    /// "X" events, microsecond timestamps). Returns how many were written.
    pub fn write_chrome(&self, path: &Path, cap: usize) -> std::io::Result<usize> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let n = self.spans.len().min(cap);
        writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (i, s) in self.spans[..n].iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"job\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                parent,
                s.job
            )?;
            writeln!(w, "{}", if i + 1 < n { "," } else { "" })?;
        }
        writeln!(w, "]}}")?;
        w.flush()?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let mut r = Recorder::new();
        let parent = r.add("compile", 1, 0, None, 100, 1100);
        r.add("build", 1, 0, Some(parent), 100, 400);
        // Overlapping children: [300,600) overlaps [100,400) by 100 ns.
        r.add("validate", 1, 0, Some(parent), 300, 600);
        r.add("prove", 1, 0, Some(parent), 700, 1000);
        let selfs = r.self_times_ns();
        // Covered: [100,600) + [700,1000) = 800 of 1000.
        assert_eq!(selfs[parent as usize], 200);
        assert_eq!(selfs[1], 300);
        let totals = r.totals_by_name();
        assert_eq!(totals["compile"].self_ns, 200);
        assert_eq!(totals["compile"].total_ns, 1000);
        assert_eq!(totals["prove"].count, 1);
    }

    #[test]
    fn chrome_trace_is_valid_json_and_capped() {
        let mut r = Recorder::new();
        let p = r.add("job", 7, 2, None, 1_000, 9_000);
        r.add("service.submit", 7, 2, Some(p), 1_000, 2_500);
        r.add("job", 8, 3, None, 2_000, 3_000);
        let dir = crate::reference::bench_dir().join("out/selftest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        assert_eq!(r.write_chrome(&path, 2).unwrap(), 2);
        let v = serde_json::parse_value(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let fields = v.as_object().unwrap();
        let events = serde::get_field(fields, "traceEvents").unwrap();
        let events = events.as_array().unwrap();
        assert_eq!(events.len(), 2);
        let first = events[0].as_object().unwrap();
        assert_eq!(
            serde::get_field(first, "name").unwrap().as_str(),
            Some("job")
        );
        assert_eq!(serde::get_field(first, "dur").unwrap().as_f64(), Some(8.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
