//! Small shared pieces: the seeded generator, order statistics, the
//! metric list a run reports, correctness gates and process memory.

use std::collections::BTreeMap;
use std::time::Duration;

/// splitmix64: a tiny deterministic generator, so a seed fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_BE4C_u64)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Quantile `q` of `values` by linear interpolation between closest ranks
/// (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of the per-class medians: the typical latency of a mix
/// of request classes whose times differ by several-fold. A median of the
/// pooled samples lands on whichever class sits at the 50% rank, and jumps
/// when two classes overlap there; this moves with every class in
/// proportion to its change.
pub fn class_p50<'a>(classes: impl IntoIterator<Item = &'a Vec<f64>>) -> f64 {
    let (log_sum, n) = classes
        .into_iter()
        .filter(|v| !v.is_empty())
        .fold((0.0, 0), |(s, n), v| (s + median(v).ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Named metrics with units, as one run reports them.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|e| e.0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// Correctness gates: every violation is kept and fails the run.
#[derive(Default)]
pub struct Gates {
    pub checked: u64,
    pub violations: Vec<String>,
}

impl Gates {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            let msg = what();
            eprintln!("GATE FAILED: {msg}");
            self.violations.push(msg);
        }
    }
}

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed (refused, conflicted, errored).
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    pub gates: Gates,
}

impl Report {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A phase's counter deltas over `obs` (always-on engine counters).
pub struct Counters(Vec<u64>);

impl Counters {
    pub fn now() -> Counters {
        Counters(obs::Counter::ALL.iter().map(|&c| obs::get(c)).collect())
    }

    /// Increase of `c` since this snapshot.
    pub fn delta(&self, c: obs::Counter) -> u64 {
        obs::get(c).saturating_sub(self.0[c as usize])
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean bytes per stored row over every table of `engine`, in the layout
/// each table actually uses (`Engine::memory_report`).
pub fn bytes_per_row(engine: &sqldb::Engine) -> f64 {
    let (rows, bytes) = engine
        .memory_report()
        .iter()
        .fold((0, 0), |(rows, bytes), (_, m)| {
            let layout = if m.columnar {
                m.columnar_layout_bytes
            } else {
                m.row_layout_bytes
            };
            (rows + m.rows, bytes + layout)
        });
    ratio(bytes as f64, rows as f64)
}
