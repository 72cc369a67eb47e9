//! Report output: the metric list, host metadata, the closing JSON line, and
//! the report files written when the run ends.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        // A non-finite value would make the JSON line unparsable.
        let value = if value.is_finite() { value } else { 0.0 };
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Where and on what the benchmark ran.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: &'static str,
    pub commit: &'static str,
}

impl Host {
    pub fn detect() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
            commit: env!("PERFBENCH_COMMIT"),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The line the benchmark ends its standard output with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

/// Directory for report files: `$CARGO_TARGET_DIR/perfbench` when the
/// build directory is set, else `perfbench/target/perfbench`.
pub fn default_out_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(d) => Path::new(&d).join("perfbench"),
        None => Path::new("perfbench").join("target").join("perfbench"),
    }
}

/// Write `contents` to `dir/name`, warning (not failing) on error: the
/// report files are a by-product, the standard output is the result.
pub fn write_file(dir: &Path, name: &str, contents: &str) {
    let path = dir.join(name);
    let res = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, contents));
    match res {
        Ok(()) => println!("report: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// The host's CPU time counters: all ticks, and ticks stolen by the
/// hypervisor (the first line of `/proc/stat`).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    pub fn read() -> HostCpu {
        let ticks: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_string))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        HostCpu {
            total: ticks.iter().take(8).sum(),
            steal: ticks.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of the host's CPU time stolen since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        let steal = self.steal.saturating_sub(earlier.steal);
        if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        }
    }
}
