//! Shared pieces: run options, the result record, digests and statistics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Each workload repeats its set-up at least this many times, and until
/// [`SETUP_MIN_S`] have passed (at most [`SETUP_MAX_REPS`] times);
/// `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
pub const SETUP_MIN_S: f64 = 1.0;
pub const SETUP_MAX_REPS: usize = 1000;

/// Fewest measured iterations per run after the warm-up, however long
/// they take.
pub const MIN_ITERS: usize = 3;

/// Options of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every workload to a few functions and seconds (self-test).
    pub tiny: bool,
}

impl Opts {
    /// `full` normally, `tiny` in self-test mode.
    pub fn pick<T>(&self, full: T, tiny: T) -> T {
        if self.tiny {
            tiny
        } else {
            full
        }
    }

    /// Worker threads for fan-out checks: the machine's parallelism.
    pub fn nproc(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// What one run reports: the checks it made and the metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Counts one correctness check, reporting it on stderr if it failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] CHECK FAILED: {what}");
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }
}

/// FNV-1a of a value's JSON form: equal values give equal digests, and the
/// vendored serializer prints floats exactly.
pub fn digest<T: serde::Serialize>(value: &T) -> u64 {
    let json = serde_json::to_string(value).expect("benchmark values serialize");
    sizeless_engine::fnv1a(&json)
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a set of samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Times `f` once.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Runs `iteration` until `seconds` of measured time have passed; each
/// call gets its index and returns the time it measured. Call 0 is a
/// warm-up: its time counts toward `seconds` but is not returned, and at
/// least [`MIN_ITERS`] calls follow it. Returns the times of calls 1.. and
/// the peak RSS after the warm-up, MB — set-up plus one pass of the
/// workload, whatever the number of passes.
pub fn measure_for(seconds: f64, mut iteration: impl FnMut(usize) -> Duration) -> (Vec<f64>, f64) {
    let mut spent = iteration(0).as_secs_f64();
    let rss = peak_rss_mb();
    let mut walls = Vec::new();
    while walls.len() < MIN_ITERS || spent < seconds {
        let w = iteration(walls.len() + 1).as_secs_f64();
        spent += w;
        walls.push(w);
    }
    (walls, rss)
}

/// Repeats `set_up` (see [`SETUP_REPS`]); returns the last result and the
/// median set-up time, s.
pub fn repeat_setup<R>(mut set_up: impl FnMut() -> R) -> (R, f64) {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let (r, d) = timed(&mut set_up);
        times.push(d.as_secs_f64());
        let spent: f64 = times.iter().sum();
        if times.len() >= SETUP_MAX_REPS || (times.len() >= SETUP_REPS && spent >= SETUP_MIN_S) {
            return (r, median(&times));
        }
    }
}

/// The JSON result line: every metric in `names`, in order, with its unit
/// (0 for a metric this workload does not exercise).
pub fn result_line(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}
