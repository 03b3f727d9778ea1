//! What a run prints: one line per metric (raw and normalized forms,
//! the gated one marked), then the result object as the last line.

use crate::calib::{Series, Timeline};
use crate::stats::{median, pct, sorted};

/// The two forms of a timing: as measured, or normalized by the
/// calibration loop to the reference rate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Form {
    Raw,
    Norm,
}

/// One metric. A timing gates its normalized form, the narrower of the
/// two in every steadiness set (STEADINESS.md); a count or size has only
/// the raw one.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub raw: f64,
    /// `None` for counts and sizes, which no clock touches.
    pub norm: Option<f64>,
    pub note: String,
}

impl Metric {
    pub fn value(&self) -> f64 {
        self.norm.unwrap_or(self.raw)
    }
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Report {
    /// Records one bitwise check; a mismatch is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("MISMATCH: {}", what());
        }
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    pub fn count(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            raw: value,
            norm: None,
            note: note.into(),
        });
    }

    /// A percentile (`p == 50` for the median) of a timed series, in
    /// both forms. A grouped series reports the median over its groups
    /// of each group's percentile, so one slow epoch or pass cannot
    /// drag a tail metric.
    pub fn percentile(
        &mut self,
        name: &'static str,
        unit: &'static str,
        scale: f64,
        s: &Series,
        tl: &Timeline,
        p: f64,
    ) {
        let (raw, norm) = (s.raw(), s.normalized(tl));
        let groups = s.groups();
        let of = |xs: &[f64]| {
            median(
                &groups
                    .iter()
                    .map(|r| pct(&xs[r.clone()], p))
                    .collect::<Vec<_>>(),
            ) * scale
        };
        let per_group = groups.iter().map(|r| r.len()).min().unwrap_or(0);
        let beyond = per_group - (((p / 100.0) * per_group as f64).ceil() as usize).min(per_group);
        let note = if groups.len() > 1 {
            format!(
                "median over {} groups of each group's p{p}; {} samples, >= {per_group} per group, {beyond} beyond",
                groups.len(),
                s.len()
            )
        } else {
            format!("p{p} of {} samples, {beyond} beyond", s.len())
        };
        self.metrics.push(Metric {
            name,
            unit,
            raw: of(&raw),
            norm: Some(of(&norm)),
            note,
        });
    }

    /// Prints every metric and, as the last line, the result object,
    /// whose `metrics` hold exactly `gated` (by name, in that order).
    /// Returns whether the run was correct.
    pub fn print(&self, workload: &str, tl_summary: &[(&str, &Timeline)], gated: &[&str]) -> bool {
        println!("workload {workload}");
        for (label, tl) in tl_summary {
            if tl.rates.is_empty() {
                continue;
            }
            let v = sorted(&tl.rates);
            println!(
                "calibration {label}: median {:.4e} iter/s (p10 {:.4e}, p90 {:.4e}, {} bursts; reference {:.4e})",
                median(&v),
                crate::stats::pct_sorted(&v, 10.0),
                crate::stats::pct_sorted(&v, 90.0),
                v.len(),
                crate::calib::REF_ITERS_PER_S
            );
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        let mut ok = self.failed == 0 && self.attempted > 0;
        for m in &self.metrics {
            let v = m.value();
            let norm = m.norm.map_or("-".to_owned(), |n| format!("{n}"));
            let form = if m.norm.is_some() {
                "normalized"
            } else {
                "raw"
            };
            println!(
                "metric {} = {v} {} [gated: {form}] raw={} normalized={norm} ({})",
                m.name, m.unit, m.raw, m.note
            );
        }
        let mut fields = Vec::new();
        for name in gated {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) => {
                    ok &= m.value().is_finite();
                    fields.push(format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        json_num(m.value()),
                        m.unit
                    ));
                }
                None => {
                    ok = false;
                    eprintln!("FAILED: metric {name} was not measured");
                }
            }
        }
        println!("attempted {} failed {}", self.attempted, self.failed);
        println!(
            "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        ok
    }
}

/// JSON has no NaN or infinity; a broken value prints as null (and the
/// run is already marked incorrect).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}
