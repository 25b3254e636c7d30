//! Spans recorded from the benchmark's own code around each call into a
//! layer: name, start, end and the span that caused it.
//!
//! Coarse spans (an engine run, one layer's measurement) are always
//! kept. Leaf spans (one `TrafficSource::fill`) are kept up to a cap,
//! so a long traced run stays small in memory and on disk; every leaf
//! still counts toward its name's totals and its parent's child time,
//! which is what self time is computed from.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;
use unroller_engine::{EnginePacket, EpochRouteTable, RouteSet, TrafficSource};

/// Leaf spans kept for the span file; the rest are only counted.
const LEAF_CAP: usize = 50_000;

/// One recorded span; its id is its index in [`Tracer::spans`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call the span covers (`layer.call`).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
}

/// Per-name totals: how often, how long, and how much of that time
/// child spans covered.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStat {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their children's durations.
    pub child_ns: u64,
}

impl SpanStat {
    /// Duration not covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// In-memory span store, written out when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    leaves_kept: usize,
    leaves_dropped: u64,
    stats: BTreeMap<&'static str, SpanStat>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            leaves_kept: 0,
            leaves_dropped: 0,
            stats: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a coarse span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        let (name, dur, parent) = (span.name, end_ns - span.start_ns, span.parent);
        self.account(name, dur, parent);
    }

    /// Records a finished leaf span.
    pub fn leaf(&mut self, name: &'static str, parent: usize, start_ns: u64, end_ns: u64) {
        if self.leaves_kept < LEAF_CAP {
            self.leaves_kept += 1;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
            });
        } else {
            self.leaves_dropped += 1;
        }
        self.account(name, end_ns - start_ns, Some(parent));
    }

    fn account(&mut self, name: &'static str, dur: u64, parent: Option<usize>) {
        let stat = self.stats.entry(name).or_default();
        stat.count += 1;
        stat.total_ns += dur;
        if let Some(p) = parent {
            self.stats.entry(self.spans[p].name).or_default().child_ns += dur;
        }
    }

    /// Totals per span name.
    pub fn stats(&self) -> &BTreeMap<&'static str, SpanStat> {
        &self.stats
    }

    /// Writes every kept span as one JSON object per line, then one
    /// summary line per name with its count, total and self time.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, st) in &self.stats {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                st.count,
                st.total_ns,
                st.self_ns()
            )?;
        }
        writeln!(out, "{{\"leaf_spans_dropped\":{}}}", self.leaves_dropped)?;
        out.flush()
    }
}

/// A [`TrafficSource`] wrapper that records a `source.fill` span around
/// every `fill` the engine makes, and notes the fills during which the
/// source's control plane published a route generation.
pub struct TracedSource<'a, S> {
    inner: &'a mut S,
    tracer: &'a mut Tracer,
    parent: usize,
    generations: fn(&S) -> u64,
    /// Time spent inside `fill`, ns.
    pub fill_ns: u64,
    /// Durations (ns) of the fills that published a generation.
    pub event_fills_ns: Vec<u64>,
}

impl<'a, S: TrafficSource> TracedSource<'a, S> {
    /// Wraps `inner`; `generations` reads its published-generation
    /// count (constant for sources that never republish).
    pub fn new(
        inner: &'a mut S,
        tracer: &'a mut Tracer,
        parent: usize,
        generations: fn(&S) -> u64,
    ) -> Self {
        TracedSource {
            inner,
            tracer,
            parent,
            generations,
            fill_ns: 0,
            event_fills_ns: Vec::new(),
        }
    }
}

impl<S: TrafficSource> TrafficSource for TracedSource<'_, S> {
    fn fill(&mut self, max: usize, out: &mut Vec<EnginePacket>) -> usize {
        let gen_before = (self.generations)(self.inner);
        let start = self.tracer.now();
        let n = self.inner.fill(max, out);
        let end = self.tracer.now();
        self.tracer.leaf("source.fill", self.parent, start, end);
        if (self.generations)(self.inner) > gen_before {
            self.event_fills_ns.push(end - start);
        }
        self.fill_ns += end - start;
        n
    }

    fn routes(&self) -> Arc<RouteSet> {
        self.inner.routes()
    }

    fn route_table(&self) -> Option<Arc<EpochRouteTable>> {
        self.inner.route_table()
    }
}
