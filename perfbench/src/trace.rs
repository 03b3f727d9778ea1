//! The traced run's span recorder. Spans live in memory and are written
//! out once, when the run ends; each has an operation id, a name, a start,
//! an end and the calibration window it ran in. The spans of one logical
//! operation share its id: every span about one Add or read of the
//! traffic script — its end-to-end round trip and each layer pass's replay
//! of it — carries that operation's id, so the dump joins per operation.
//!
//! The tracer calibrates as it goes: before a span opens, if no burst has
//! been taken for [`CALIB_EVERY`], it runs one (between spans, so never
//! while program work is in flight). Every span can therefore be read raw
//! or normalized by the bursts on either side of it.

use crate::calib::{Calib, Timeline, REF_ITERS_PER_S};
use crate::report::Form;
use crate::stats::median;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The longest stretch of spans between two calibration bursts.
const CALIB_EVERY: Duration = Duration::from_millis(10);

pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index into the tracer's timeline of the burst before the span.
    pub window: u32,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    next_op: u64,
    calib: Calib,
    pub tl: Timeline,
    last_burst: Instant,
}

impl Tracer {
    pub fn new() -> Tracer {
        let mut calib = Calib::new();
        let mut tl = Timeline::default();
        tl.push(calib.burst_both());
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 1,
            calib,
            tl,
            last_burst: Instant::now(),
        }
    }

    /// Reserves `n` consecutive operation ids and returns the first.
    pub fn ops(&mut self, n: usize) -> u64 {
        let first = self.next_op;
        self.next_op += n as u64;
        first
    }

    /// Records a burst the caller took between its own operations, so
    /// the tracer need not take another.
    pub fn calibrated(&mut self, rate: f64) {
        self.tl.push(rate);
        self.last_burst = Instant::now();
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of operation `op`.
    pub fn time_op<R>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.last_burst.elapsed() >= CALIB_EVERY {
            let rate = self.calib.burst_both();
            self.calibrated(rate);
        }
        let window = self.tl.window();
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.spans.push(Span {
            op,
            name,
            start_ns,
            end_ns,
            window,
        });
        r
    }

    /// Runs `f` inside a span of an operation of its own.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let op = self.ops(1);
        self.time_op(op, name, f)
    }

    /// A span's duration in ns, raw or normalized to the reference rate.
    fn ns(&self, s: &Span, form: Form) -> f64 {
        let raw = (s.end_ns - s.start_ns) as f64;
        match form {
            Form::Raw => raw,
            Form::Norm => raw * self.tl.rate_around(s.window) / REF_ITERS_PER_S,
        }
    }

    /// Median duration of the spans named `name`, in ns (0 if none).
    pub fn median_ns(&self, name: &str, form: Form) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.ns(s, form))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// A self time joined per operation: for every operation with a span
    /// of each name in `terms` (the first, if it has several), the signed
    /// sum `coef * duration`, then the median over those operations (0 if
    /// none). The program has no spans of its own, so the calls a layer
    /// makes inside it are replayed in passes of their own under the same
    /// operation id; a layer's self time is its span minus those callee
    /// spans.
    pub fn per_op_ns(&self, terms: &[(f64, &str)], form: Form) -> f64 {
        let mut by_op: HashMap<u64, (f64, usize)> = HashMap::new();
        for (k, &(coef, name)) in terms.iter().enumerate() {
            for s in self.spans.iter().filter(|s| s.name == name) {
                let e = by_op.entry(s.op).or_insert((0.0, 0));
                // Only an operation seen once under every earlier term
                // stays complete.
                if e.1 == k {
                    e.0 += coef * self.ns(s, form);
                    e.1 += 1;
                }
            }
        }
        let v: Vec<f64> = by_op
            .into_values()
            .filter(|&(_, n)| n == terms.len())
            .map(|(x, _)| x)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    }

    /// Writes every span as one JSON line, with the calibration rate of
    /// its window.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"calib_iters_per_s\": {:.0}}}",
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                self.tl.rate_around(s.window)
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_same_operations_callees() {
        let _serial = crate::calib::TIMING_TESTS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut tr = Tracer::new();
        let sleep = |us| std::thread::sleep(Duration::from_micros(us));
        for _ in 0..5 {
            let op = tr.ops(1);
            tr.time_op(op, "outer", || sleep(3000));
            tr.time_op(op, "inner", || sleep(1000));
        }
        // An inner span of an operation with no outer span is not joined.
        tr.time("inner", || sleep(20_000));
        let self_ns = tr.per_op_ns(&[(1.0, "outer"), (-1.0, "inner")], Form::Raw);
        assert!(
            (1.5e6..2.9e6).contains(&self_ns),
            "self time {self_ns} ns, want about 2 ms"
        );
        assert_eq!(tr.per_op_ns(&[(1.0, "missing")], Form::Raw), 0.0);
    }
}
