//! In-memory spans around the public calls the benchmark makes.
//!
//! Spans are recorded from outside the program: each one brackets a
//! call into a module's public API (or a benchmark operation grouping
//! several calls), so a layer's time here is the time spent in calls
//! the benchmark made into it. Spans stay in memory and are written
//! out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// No parent.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer the call entered, e.g. `core.read`.
    pub layer: &'static str,
    /// The call, e.g. `implementations_of`.
    pub name: &'static str,
    /// Benchmark operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, or none.
    pub parent: u32,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// A span recorder for one thread. When off, [`Spans::span`] only
/// calls its closure.
pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    /// A recorder; spans are timed from `epoch`.
    #[must_use]
    pub fn new(on: bool, epoch: Instant) -> Self {
        Spans {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread sharing this one's epoch and mode.
    #[must_use]
    pub fn fork(&self) -> Self {
        Spans::new(self.on, self.epoch)
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            op,
            parent: self.open.last().copied().unwrap_or(ROOT),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let offset = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += offset;
            }
            s
        }));
    }

    /// Summed duration of spans in `layer`, µs.
    #[must_use]
    pub fn busy_us(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Per-layer count, busy time and self time (busy minus the time
    /// covered by direct children).
    #[must_use]
    pub fn layer_table(&self) -> Vec<LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let row = rows.entry(s.layer).or_insert(LayerRow {
                layer: s.layer,
                count: 0,
                busy_ns: 0,
                self_ns: 0,
            });
            let dur = s.end_ns - s.start_ns;
            row.count += 1;
            row.busy_ns += dur;
            row.self_ns += dur.saturating_sub(child);
        }
        rows.into_values().collect()
    }

    /// Write every span as one tab-separated line:
    /// `index layer name op parent start_ns end_ns`.
    ///
    /// # Errors
    /// On any I/O failure.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tlayer\tname\top\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.layer, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// One line of the per-layer table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerRow {
    /// Layer name.
    pub layer: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Summed span duration, ns.
    pub busy_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Spans::new(true, epoch);
        a.span("bench", "op", 1, |s| {
            s.span("core.read", "script", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let mut b = a.fork();
        b.span("bench", "op", 2, |s| {
            s.span("core.read", "script", 2, |_| ())
        });
        a.absorb(b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.spans[3].parent, 2);
        let table = a.layer_table();
        let bench = table.iter().find(|r| r.layer == "bench").unwrap();
        let core = table.iter().find(|r| r.layer == "core.read").unwrap();
        assert_eq!((bench.count, core.count), (2, 2));
        assert!(core.busy_ns >= 2_000_000);
        assert_eq!(core.self_ns, core.busy_ns, "leaf spans are all self time");
        assert_eq!(bench.self_ns, bench.busy_ns - core.busy_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false, Instant::now());
        assert_eq!(s.span("core.read", "script", 0, |_| 5), 5);
        assert!(s.spans.is_empty());
    }
}
