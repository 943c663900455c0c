//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions. Nothing inside the program is instrumented,
//! and no `zkperf-trace` session is opened (a live session switches
//! kernels to their traced algorithms).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::median;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Proof, repetition or job id the span belongs to.
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span recorder. When off, [`Tracer::span`] only runs its body.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already timed interval as a closed span under the
    /// current parent (used where the id is only known afterwards).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let start_ns = start.saturating_duration_since(self.t0).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Median duration (ms) of the spans named `name`; 0 when none ran.
    pub fn median_ms(&self, name: &str) -> f64 {
        let d = self.durations(name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// Total duration (ms) of the spans named `name` carrying `id`.
    pub fn total_ms(&self, name: &str, id: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.id == id)
            .map(Span::ms)
            .sum()
    }

    /// Per-repetition totals of `name` (ids in ascending order), so a
    /// rung called several times per proof reads as one per-proof cost.
    pub fn per_id_totals(&self, name: &str) -> Vec<f64> {
        let mut by_id: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_id.entry(s.id).or_default() += s.ms();
        }
        by_id.into_values().collect()
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children never overlap, as they run on this thread).
    fn self_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        self.spans
            .iter()
            .zip(child_ms)
            .map(|(s, c)| s.ms() - c)
            .collect()
    }

    /// Per-name aggregate: count, total, median and total self time.
    pub fn summary_text(&self) -> String {
        let self_ms = self.self_ms();
        let mut agg: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ms) {
            let e = agg.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += own;
        }
        let mut out = format!(
            "{:<34} {:>6} {:>12} {:>12} {:>12}\n",
            "span", "count", "total_ms", "median_ms", "self_ms"
        );
        for (name, (count, total, own)) in agg {
            let _ = writeln!(
                out,
                "{name:<34} {count:>6} {total:>12.3} {:>12.3} {own:>12.3}",
                self.median_ms(name)
            );
        }
        out
    }

    /// Every span as a JSON array (name, id, parent, start, end, self).
    pub fn spans_json(&self) -> String {
        let self_ms = self.self_ms();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(&self_ms)
            .map(|(s, own)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ms\":{own:.6}}}",
                    s.name, s.id, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}
