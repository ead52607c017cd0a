//! Order statistics, set-up timing, memory readings, the environment
//! fingerprint and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// How long set-up is repeated in every run; the median is `setup_s`.
/// Set-up takes 15–50 ms, so this is 40–130 samples. Over 1 s, ten runs'
/// medians spread 31–40% on a shared host whose speed shifts for seconds
/// at a time; a longer stretch averages over more of those shifts.
const SETUP_SECONDS: f64 = 2.0;
/// Fewest set-ups per run, however slow one is.
const SETUP_MIN: usize = 5;

/// Repeats `f` for `SETUP_SECONDS` (at least `SETUP_MIN` times) and
/// returns the median time of one call with the value of the last. Each
/// earlier value is dropped before the next call starts.
pub fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = f()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= SETUP_MIN && start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            eprintln!("perfbench: {}", spread_line("setup s", &times));
            return Ok((median(&times), value));
        }
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The least of a non-empty sample: the statistic of a job a run
/// repeats. On a shared host some stretches of a run, a second or more
/// each, run the same work up to 45% slower; how many a run catches
/// differs from run to run and moves its median, and even its first
/// quartile, with it. Interference only adds time, so the fastest job is
/// the program's own cost most steadily.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One stderr line describing a sample: its size and quartiles, so a run
/// shows how much its own repetitions spread.
pub fn spread_line(what: &str, values: &[f64]) -> String {
    let q = |p| percentile(values, p);
    format!(
        "{what}: n={} min={:.4} p25={:.4} p50={:.4} p75={:.4} max={:.4}",
        values.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    )
}

/// Peak resident set (`VmHWM`) of a process, in MB (10^6 bytes).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line '{line}'"))?;
    Ok(kb * 1024.0 / 1e6)
}

/// Metrics in the order they were added.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A finite `f64` as a JSON number with all its digits; non-finite
/// values (which no metric should produce) become `null` so the line
/// stays valid JSON and the reader rejects it.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// What one run did: its metrics plus operation counts and every
/// correctness failure seen.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            self.metrics.to_json()
        )
    }
}

/// The environment a run measured on, printed as one JSON line.
pub fn fingerprint(workload: &str, seed: u64, workload_seed: u64, threads: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let git_sha = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    format!(
        "{{\"fingerprint\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"workload_seed\": {workload_seed}, \
         \"git_sha\": \"{git_sha}\", \"nproc\": {}, \"cpu\": \"{}\", \"simd_isa\": \"{}\", \
         \"obs\": {}, \"threads\": \"{threads}\"}}}}",
        lof_cli::default_threads(),
        cpu.replace('"', "'"),
        lof_core::simd::active().key(),
        lof_obs::enabled(),
    )
}
