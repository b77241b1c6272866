//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer of perfbase-rs; nothing inside the program is instrumented.
//! Each span has a name, start, end, parent and the request id shared by
//! every span of one operation. One `Tracer` per thread; spans are written
//! out as TSV when the run ends.

use crate::util::{ratio, Gates, Metrics};
use crate::Args;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub rid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `rid`; the span's
    /// parent is the innermost span open on this tracer.
    pub fn span<T>(&mut self, name: &'static str, rid: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            rid,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Like [`Tracer::span`], for an interval already measured: `f`
    /// records the children.
    pub fn span_at(
        &mut self,
        name: &'static str,
        rid: u64,
        start: Instant,
        end: Instant,
        f: impl FnOnce(&mut Tracer),
    ) {
        let idx = self.spans.len() as u32;
        self.record(name, rid, start, end);
        self.stack.push(idx);
        f(self);
        self.stack.pop();
    }

    /// Record a span whose interval is already known (e.g. a request's
    /// wait from its due time to its send time).
    pub fn record(&mut self, name: &'static str, rid: u64, start: Instant, end: Instant) {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            rid,
            start_ns: at(start),
            end_ns: at(end),
            parent,
        });
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time of every span: its duration minus the time its children
    /// cover (children of one thread's span never overlap each other).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }
}

/// Self time per layer (span name up to the first '.') of the operations
/// rooted at spans named `root` across `tracers`: sets
/// `self.<layer>_ms_per_op` (the root's own layer as `harness`) and
/// `trace.attributed_share`, and returns each root's duration in ms.
pub fn self_times(m: &mut Metrics, tracers: &[&Tracer], root: &str) -> Vec<f64> {
    let root_layer = root.split('.').next().unwrap_or(root);
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    let mut roots = Vec::new();
    for tr in tracers {
        let self_ns = tr.self_ns();
        let mut root_of = vec![NO_PARENT; tr.spans.len()];
        for (i, s) in tr.spans.iter().enumerate() {
            root_of[i] = if s.parent == NO_PARENT {
                i as u32
            } else {
                root_of[s.parent as usize]
            };
            if tr.spans[root_of[i] as usize].name != root {
                continue;
            }
            if s.parent == NO_PARENT {
                roots.push(s.dur_ns() as f64 / 1e6);
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *layers.entry(layer).or_default() += self_ns[i];
        }
    }
    let n = roots.len().max(1) as f64;
    let total_ns: u64 = layers.values().sum();
    for (&layer, &ns) in &layers {
        let name = if layer == root_layer {
            "harness"
        } else {
            layer
        };
        m.set(&format!("self.{name}_ms_per_op"), ns as f64 / 1e6 / n, "ms");
    }
    let harness = layers.get(root_layer).copied().unwrap_or(0);
    m.set(
        "trace.attributed_share",
        ratio((total_ns - harness) as f64, total_ns as f64),
        "ratio",
    );
    roots
}

/// `trace.overhead_ratio` = traced ÷ untraced p50 of operations of the
/// same run; they must agree within 10% (the per-layer self times then
/// reconcile with the untraced end-to-end p50).
pub fn reconcile(m: &mut Metrics, gates: &mut Gates, traced_p50: f64, untraced_p50: f64) {
    let overhead = ratio(traced_p50, untraced_p50);
    m.set("trace.overhead_ratio", overhead, "ratio");
    gates.check((overhead - 1.0).abs() <= 0.10, || {
        format!("trace: traced p50 is {overhead:.3}x the untraced p50 (limit 10%)")
    });
}

/// Write every span of `tracers` to `<trace_dir>/<workload>-seed<n>.tsv`
/// (`id parent rid name start_ns end_ns`), ids numbered across tracers.
pub fn write_spans(args: &Args, tracers: &[&Tracer]) -> Result<(), String> {
    let err = |e: std::io::Error| e.to_string();
    std::fs::create_dir_all(&args.trace_dir).map_err(err)?;
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path).map_err(err)?);
    writeln!(f, "id\tparent\trid\tname\tstart_ns\tend_ns").map_err(err)?;
    let mut base = 0u64;
    for tr in tracers {
        for (i, s) in tr.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                (base + u64::from(s.parent)).to_string()
            };
            writeln!(
                f,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                base + i as u64,
                s.rid,
                s.name,
                s.start_ns,
                s.end_ns
            )
            .map_err(err)?;
        }
        base += tr.spans.len() as u64;
    }
    f.flush().map_err(err)
}
