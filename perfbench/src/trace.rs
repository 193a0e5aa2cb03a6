//! In-memory span recording around the benchmark's calls into each layer.
//!
//! Spans are recorded from outside the program: one around every public
//! call the benchmark makes into a crate (`core`, `rtl`, `synth`,
//! `netlist`, `sim`, `pctrl`), plus one child per pass record that
//! `synth::compile` already returns. Nothing is written until the run
//! ends; with tracing off a span costs one branch.

use std::time::{Duration, Instant};
use synthir_synth::CompileResult;

/// One closed span. Times are offsets from the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, `crate.call` (e.g. `synth.resynthesize`).
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span within the same operation.
    pub parent: Option<usize>,
}

/// Span recorder for one operation (a design or a verdict).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that records only when `on`; offsets count from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_named(|_| name, f)
    }

    /// Runs `f` inside a span whose name is chosen from its result (a
    /// verdict is a proof or a counterexample only once it is known).
    pub fn span_named<T>(
        &mut self,
        name: impl FnOnce(&T) -> &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open();
        let out = f();
        self.close(idx, name(&out));
        out
    }

    /// Opens a span; spans opened before [`Tracer::close`] nest inside it.
    pub fn open(&mut self) -> usize {
        let idx = self.spans.len();
        if self.on {
            self.spans.push(Span {
                name: "",
                start: self.epoch.elapsed(),
                end: Duration::ZERO,
                parent: self.stack.last().copied(),
            });
            self.stack.push(idx);
        }
        idx
    }

    /// Closes the innermost open span, `idx` from [`Tracer::open`].
    pub fn close(&mut self, idx: usize, name: &'static str) {
        if self.on {
            debug_assert_eq!(self.stack.last(), Some(&idx));
            self.stack.pop();
            let span = &mut self.spans[idx];
            span.end = self.epoch.elapsed();
            span.name = name;
        }
    }

    /// Runs a synthesis call inside a span called `name` and adds each pass
    /// it reports as a child, laid end to end from the span's start (the
    /// flow runs them in that order; their exact offsets are not
    /// reported).
    pub fn compile<E>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<CompileResult, E>,
    ) -> Result<CompileResult, E> {
        let parent = self.spans.len();
        let out = self.span(name, f);
        if let (true, Ok(r)) = (self.on, &out) {
            let mut t = self.spans[parent].start;
            for p in &r.stats {
                self.spans.push(Span {
                    name: pass_layer(p.name),
                    start: t,
                    end: t + p.elapsed,
                    parent: Some(parent),
                });
                t += p.elapsed;
            }
        }
        out
    }

    /// The recorded spans, in opening order.
    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// The layer a synthesis pass is accounted to.
fn pass_layer(pass: &str) -> &'static str {
    match pass {
        "aig_opt" => "synth.aig_opt",
        "fsm_reencode" | "fsm_reencode_skipped" => "synth.fsm_reencode",
        "resynthesize" => "synth.resynthesize",
        "techmap" | "cutmap" => "synth.map",
        "const_fold" | "strash" | "strash_mapped" => "synth.cleanup",
        _ => "synth.other_passes",
    }
}

/// Self time of every span: its duration minus the time its children
/// cover.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut own: Vec<Duration> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end - s.start);
        }
    }
    own
}

/// Renders spans as a Chrome trace-event file (opens offline in Perfetto
/// or `chrome://tracing`). `ops` pairs each operation's id with its spans.
pub fn chrome_json(ops: &[(String, Vec<Span>)]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (op, spans) in ops {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":\"{}\",\"span\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                op,
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}
