//! Sample statistics, the operation ledger, and the result printer.

use std::fmt::Write as _;
use std::time::Duration;

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`: with 110 samples, p90 is
/// the 99th smallest and 11 samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median over `windows` consecutive, near-equal windows of `samples`,
/// taken in the order they were measured, of each window's
/// nearest-rank percentile `p`. Load from outside the process that
/// covers fewer than half the windows leaves it in place; the same load
/// lifts the percentile of the whole run.
pub fn windowed_percentile(samples: &[f64], p: f64, windows: usize) -> f64 {
    let (n, w) = (samples.len(), windows.clamp(1, samples.len().max(1)));
    let per: Vec<f64> = (0..w)
        .map(|i| percentile(&samples[i * n / w..(i + 1) * n / w], p))
        .collect();
    median(&per)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub const MB: f64 = 1e6;

/// Every operation the run attempted and the ones that failed — an
/// error from the library or any failed output check. A failure is
/// counted, never fatal.
#[derive(Default)]
pub struct Ledger {
    pub attempted: usize,
    pub failed: usize,
}

impl Ledger {
    /// Records one operation with the list of checks it failed.
    pub fn record(&mut self, op: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: {op} failed: {}", problems.join("; "));
            }
        }
    }

    /// Records an operation that returned an error.
    pub fn error(&mut self, op: &str, err: impl std::fmt::Display) {
        self.record(op, &[err.to_string()]);
    }
}

/// A metric of `BENCHMARK.json`: name, unit, which way is better.
pub type Def = (&'static str, &'static str, &'static str);

/// Metric values by name.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64)>,
}

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64) {
        self.entries.push((name.to_string(), value));
    }

    /// Prints one human-readable line per metric of `defs`, then the
    /// result line (the last line of standard output) with exactly
    /// those metrics. A metric the run could not measure, or one that is
    /// not finite, is printed as `null` and makes the run incorrect; so
    /// does a measured name missing from `defs`.
    pub fn print(&self, defs: &[Def], ledger: &Ledger) {
        let mut correct = ledger.failed == 0 && ledger.attempted > 0;
        for (name, _) in &self.entries {
            if !defs.iter().any(|d| d.0 == name) {
                eprintln!("perfbench: metric {name} is not declared");
                correct = false;
            }
        }
        let mut json = String::new();
        for (i, (name, unit, _)) in defs.iter().enumerate() {
            let value = self.entries.iter().find(|e| e.0 == *name).map(|e| e.1);
            println!(
                "{name:<32} {:>18} {unit}",
                value.map_or("-".to_string(), |v| format!("{v:.6}"))
            );
            let v = match value {
                Some(v) if v.is_finite() => format!("{v:?}"),
                _ => {
                    correct = false;
                    "null".to_string()
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            ledger.attempted.max(1),
            ledger.failed,
        );
    }
}
