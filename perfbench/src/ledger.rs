//! The traced run's per-layer ledger: spans recorded around calls into
//! each layer's public functions, kept in memory until the run ends, then
//! folded into self time per layer and the remainder that no span covers.
//!
//! A *unit* is one piece of on-the-clock work with an external stopwatch
//! (an interval, a socket request, a recovery). Spans belong to the unit
//! open when they are recorded; a span's self time is its duration minus
//! that of its child spans. `unattributed = Σ stopwatch − Σ self time`.

use std::collections::BTreeMap;
use std::time::Instant;

struct SpanRec {
    unit: usize,
    name: &'static str,
    ns: u64,
    parent: Option<usize>,
}

#[derive(Default)]
pub struct Ledger {
    on: bool,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    /// Stopwatch nanoseconds per unit, in unit order.
    units: Vec<u64>,
    open: Option<(usize, Instant)>,
}

/// A handle to the unit being timed.
pub struct Unit(usize);

impl Ledger {
    pub fn new(on: bool) -> Ledger {
        Ledger { on, ..Ledger::default() }
    }

    /// Turn span recording on or off (the traced run alternates to
    /// measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn unit_id(&self) -> usize {
        self.open.map(|(u, _)| u).unwrap_or(self.units.len())
    }

    /// Time `f` as a span named `name` (a plain call when tracing is off).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            unit: self.unit_id(),
            name,
            ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        let t = Instant::now();
        let out = f();
        self.spans[idx].ns = t.elapsed().as_nanos() as u64;
        self.stack.pop();
        out
    }

    /// Record an already-measured span; returns its index for children.
    pub fn record(&mut self, name: &'static str, secs: f64, parent: Option<usize>) -> usize {
        let idx = self.spans.len();
        if self.on {
            self.spans.push(SpanRec {
                unit: self.unit_id(),
                name,
                ns: (secs * 1e9) as u64,
                parent,
            });
        }
        idx
    }

    /// Open a unit whose stopwatch is this call's clock.
    pub fn begin_unit(&mut self) -> Option<Unit> {
        if !self.on {
            return None;
        }
        self.open = Some((self.units.len(), Instant::now()));
        Some(Unit(self.units.len()))
    }

    pub fn end_unit(&mut self, unit: Option<Unit>) {
        if let (Some(Unit(id)), Some((open, t))) = (unit, self.open.take()) {
            debug_assert_eq!(id, open);
            self.units.push(t.elapsed().as_nanos() as u64);
        }
    }

    /// Open a unit whose stopwatch was taken elsewhere (a socket request's
    /// latency); spans recorded until [`Ledger::close_unit`] belong to it.
    pub fn external_unit(&mut self, secs: f64) {
        if self.on {
            self.open = Some((self.units.len(), Instant::now()));
            self.units.push((secs * 1e9) as u64);
        }
    }

    pub fn close_unit(&mut self) {
        self.open = None;
    }

    /// Self milliseconds per layer over every unit, plus the stopwatch
    /// total and the unattributed remainder.
    pub fn fold(&self) -> Folded {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns;
            }
        }
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut attributed = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.unit >= self.units.len() {
                continue; // recorded outside any unit
            }
            let self_ms = (s.ns as f64 - child_ns[i] as f64) / 1e6;
            *layers.entry(s.name).or_default() += self_ms;
            attributed += self_ms;
        }
        let stopwatch_ms = self.units.iter().map(|&ns| ns as f64 / 1e6).sum::<f64>();
        Folded { layers, stopwatch_ms, unattributed_ms: stopwatch_ms - attributed }
    }
}

pub struct Folded {
    pub layers: BTreeMap<&'static str, f64>,
    pub stopwatch_ms: f64,
    pub unattributed_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_remainder_is_unattributed() {
        let mut l = Ledger::new(true);
        l.external_unit(0.010);
        let parent = l.record("dispatch", 0.006, None);
        l.record("execute", 0.004, Some(parent));
        l.record("read", 0.003, None);
        l.close_unit();
        let f = l.fold();
        assert!((f.layers["dispatch"] - 2.0).abs() < 1e-6);
        assert!((f.layers["execute"] - 4.0).abs() < 1e-6);
        assert!((f.stopwatch_ms - 10.0).abs() < 1e-6);
        assert!((f.unattributed_ms - 1.0).abs() < 1e-6);
    }

    #[test]
    fn off_records_nothing() {
        let mut l = Ledger::new(false);
        let u = l.begin_unit();
        assert_eq!(l.span("x", || 3), 3);
        l.end_unit(u);
        let f = l.fold();
        assert!(f.layers.is_empty() && f.stopwatch_ms == 0.0);
    }
}
