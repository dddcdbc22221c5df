//! In-memory span recorder for the traced run.
//!
//! Spans are placed by the benchmark around calls into each layer's public
//! functions; nothing inside the program is instrumented. A span is named
//! `<layer>.<call>`; the layer is the part before the first dot (`bench`
//! for the benchmark's own glue). Every span records its parent, so a
//! layer's self time is its spans' durations minus the part covered by
//! their child spans. Spans stay in memory (the raw list is capped) and are
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the written-out trace; aggregates cover every span.
const RAW_SPAN_CAP: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    id: u32,
    parent: u32,
    name: u16,
    start_ns: u64,
    dur_ns: u64,
}

/// Aggregates of every span sharing a name.
#[derive(Debug, Default)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    durations_ns: Vec<u64>,
}

impl SpanStats {
    /// Mean span duration, ns (0 when the span never ran).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile of the span durations, ns (0 when none).
    pub fn percentile_ns(&self, q: f64) -> f64 {
        let mut d = self.durations_ns.clone();
        d.sort_unstable();
        let rank = ((q * d.len() as f64).ceil() as usize).clamp(1, d.len().max(1));
        d.get(rank - 1).map_or(0.0, |&ns| ns as f64)
    }
}

struct Open {
    name: u16,
    id: u32,
    start: Instant,
    child_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    /// A disabled tracer runs every span's body and records nothing.
    enabled: bool,
    origin: Instant,
    names: Vec<&'static str>,
    stats: Vec<SpanStats>,
    stack: Vec<Open>,
    raw: Vec<SpanRecord>,
    next_id: u32,
}

impl Tracer {
    /// A recording tracer when `enabled`, else one that records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            names: Vec::new(),
            stats: Vec::new(),
            stack: Vec::new(),
            raw: Vec::with_capacity(RAW_SPAN_CAP),
            next_id: 1,
        }
    }

    fn intern(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self
            .names
            .iter()
            .position(|n| std::ptr::eq(*n, name) || *n == name)
        {
            return i as u16;
        }
        self.names.push(name);
        self.stats.push(SpanStats::default());
        (self.names.len() - 1) as u16
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let name = self.intern(name);
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stack.push(Open {
            name,
            id,
            start: Instant::now(),
            child_ns: 0,
        });
        let out = f(self);
        let end = Instant::now();
        let open = self
            .stack
            .pop()
            .expect("span stack is balanced by construction");
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur_ns;
                p.id
            }
            None => 0,
        };
        let s = &mut self.stats[open.name as usize];
        s.count += 1;
        s.total_ns += dur_ns;
        s.self_ns += dur_ns.saturating_sub(open.child_ns);
        s.durations_ns.push(dur_ns);
        if self.raw.len() < RAW_SPAN_CAP {
            self.raw.push(SpanRecord {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                dur_ns,
            });
        }
        out
    }

    /// Aggregates of the spans called `name` (empty when it never ran).
    pub fn stats(&self, name: &str) -> Option<&SpanStats> {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| &self.stats[i])
    }

    /// Mean duration of the spans called `name`, ns (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.stats(name).map_or(0.0, SpanStats::mean_ns)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.stats(name).map_or(0, |s| s.count)
    }

    /// Total duration of the spans called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.stats(name).map_or(0, |s| s.total_ns)
    }

    /// Self time and span count per layer.
    pub fn layers(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (name, s) in self.names.iter().zip(&self.stats) {
            let layer = name.split('.').next().unwrap_or(name);
            let e = out.entry(layer).or_default();
            e.0 += s.self_ns;
            e.1 += s.count;
        }
        out
    }

    /// The trace as JSON lines: one summary line per span name, then the
    /// raw spans (capped) in closing order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, s) in self.names.iter().zip(&self.stats) {
            let _ = writeln!(
                out,
                "{{\"kind\":\"summary\",\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                s.count,
                s.total_ns,
                s.self_ns,
                s.percentile_ns(0.50),
                s.percentile_ns(0.99)
            );
        }
        for r in &self.raw {
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                r.id, r.parent, self.names[r.name as usize], r.start_ns, r.dur_ns
            );
        }
        out
    }
}
