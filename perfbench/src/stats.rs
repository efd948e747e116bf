//! Sample summaries and the process-level readings (memory, provenance).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Nanoseconds as stored in sample vectors: durations saturate at ~4.29 s,
/// far beyond any ticket deadline the runs can reach without failing.
pub fn ns32(nanos: u128) -> u32 {
    u32::try_from(nanos).unwrap_or(u32::MAX)
}

/// The `q`-quantile (nearest rank) of nanosecond samples, in microseconds;
/// 0 without samples.  Reorders `samples`.
pub fn quantile_us(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((samples.len() - 1) as f64 * q).round() as usize;
    let (_, v, _) = samples.select_nth_unstable(rank);
    f64::from(*v) / 1e3
}

/// Mean of signed nanosecond values, in microseconds; 0 without samples.
pub fn mean_us(sum_ns: i128, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum_ns as f64 / count as f64 / 1e3
    }
}

/// Median of floating-point readings (e.g. repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of all regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// One reported metric: value, unit and the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Unit as written in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single reading).
    pub samples: u64,
}

/// Metrics by name, in name order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.0.insert(name.to_string(), Metric { value, unit, samples });
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where a result came from: host, code and inputs.
pub fn provenance(fields: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none (not a git checkout)".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let mut parts = vec![
        format!("\"nproc\": {nproc}"),
        format!("\"commit\": {}", json_str(&commit)),
        format!("\"source_digest\": {}", json_str(&source_digest())),
        format!("\"rustc\": {}", json_str(&rustc)),
    ];
    parts.extend(fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))));
    format!("{{{}}}", parts.join(", "))
}

/// FNV-1a over the paths and bytes of the repository's crate sources and
/// lock file, relative to the working directory: identifies the measured
/// code where no git metadata is present.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let path = e.path();
            match e.file_type() {
                Ok(t) if t.is_dir() => walk(&path, files),
                Ok(t) if t.is_file() => files.push(path),
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.push("Cargo.lock".into());
    files.sort();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f.to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    format!("fnv1a64:{hash:016x}")
}
