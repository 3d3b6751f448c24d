//! In-memory spans around the benchmark's calls into the workspace
//! crates, and the per-layer self-time table built from them.
//!
//! A span attributes its time to a layer (the crate whose public function
//! it wraps) and may add its duration to a per-layer metric key. A
//! layer's self time is its spans' durations minus the part their child
//! spans cover; the root span of each op belongs to `bench`, so the
//! `bench` row is time inside an op that no span around a crate call
//! covers. Spans are folded into per-layer and per-key totals when they
//! close. When the tracer is disabled, `start` and `end` cost one branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// Layers in table order; `bench` is the op's own uncovered time.
pub const LAYERS: [&str; 9] = [
    "core", "cell", "cif", "extract", "drc", "sim", "pla", "verify", "bench",
];

struct Open {
    layer: &'static str,
    key: &'static str,
    start: Instant,
    child_ms: f64,
}

/// Collects spans and counters of traced ops.
pub struct Tracer {
    enabled: bool,
    open: Vec<Open>,
    self_ms: BTreeMap<&'static str, f64>,
    key_samples: BTreeMap<&'static str, Vec<f64>>,
    counters: BTreeMap<&'static str, f64>,
    total_ms: f64,
    ops: usize,
}

/// Handle returned by [`Tracer::start`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct SpanId(bool);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            open: Vec::new(),
            self_ms: LAYERS.iter().map(|&l| (l, 0.0)).collect(),
            key_samples: BTreeMap::new(),
            counters: BTreeMap::new(),
            total_ms: 0.0,
            ops: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span attributed to `layer`; its duration is also recorded
    /// under the per-layer metric `key` (empty for none).
    pub fn start(&mut self, layer: &'static str, key: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(false);
        }
        self.open.push(Open {
            layer,
            key,
            start: Instant::now(),
            child_ms: 0.0,
        });
        SpanId(true)
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !id.0 {
            return;
        }
        let s = self.open.pop().expect("end without an open span");
        let ms = s.start.elapsed().as_secs_f64() * 1e3;
        *self.self_ms.entry(s.layer).or_insert(0.0) += ms - s.child_ms;
        if !s.key.is_empty() {
            self.key_samples.entry(s.key).or_default().push(ms);
        }
        match self.open.last_mut() {
            Some(parent) => parent.child_ms += ms,
            None => self.total_ms += ms,
        }
    }

    /// Closes every open span, as after an op that failed inside one.
    pub fn unwind(&mut self) {
        while !self.open.is_empty() {
            self.end(SpanId(true));
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, key: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.start(layer, key);
        let r = f();
        self.end(id);
        r
    }

    /// Opens the root span of one traced op.
    pub fn start_op(&mut self) -> SpanId {
        if self.enabled {
            self.ops += 1;
        }
        self.start("bench", "")
    }

    /// Adds `v` to a per-layer counter (no-op when disabled).
    pub fn add(&mut self, key: &'static str, v: f64) {
        if self.enabled {
            *self.counters.entry(key).or_insert(0.0) += v;
        }
    }

    /// Traced ops recorded so far.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// Total time of all traced ops, in ms.
    pub fn total_ms(&self) -> f64 {
        self.total_ms
    }

    /// Self time per layer, in ms summed over all traced ops.
    pub fn self_ms(&self) -> &BTreeMap<&'static str, f64> {
        &self.self_ms
    }

    /// Durations of the spans recorded under `key`, in ms.
    pub fn samples_ms(&self, key: &str) -> &[f64] {
        self.key_samples.get(key).map_or(&[], Vec::as_slice)
    }

    pub fn counter(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }

    /// The share-of-total table: one row per layer, largest first, with
    /// its share of all traced op time and its self time per op.
    pub fn table(&self, title: &str) -> String {
        let ops = self.ops.max(1) as f64;
        let mut out = format!(
            "{title}: self time per layer over {} traced ops ({:.3} ms/op)\n",
            self.ops,
            self.total_ms / ops
        );
        let mut rows: Vec<(&str, f64)> = self.self_ms.iter().map(|(&l, &ms)| (l, ms)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (layer, ms) in rows {
            let pct = if self.total_ms > 0.0 {
                100.0 * ms / self.total_ms
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {layer:<8} {pct:>6.2}%  {:>10.3} ms/op\n",
                ms / ops
            ));
        }
        out
    }
}
