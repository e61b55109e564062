//! Host facts stamped on every result, peak memory, and the STREAM ceiling.

use std::path::Path;
use std::process::Command;

/// Facts that make numbers from different hosts incomparable when they
/// differ.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    /// Largest cache size sysfs reports for cpu0 (the last-level cache).
    pub llc_bytes: u64,
    /// Bytes of each of STREAM's three arrays.
    pub stream_array_bytes: u64,
    pub simd: &'static str,
}

/// Used when sysfs reports no cache sizes.
const FALLBACK_LLC_BYTES: u64 = 32 << 20;

/// Upper bound on one STREAM array, so a host reporting a huge shared cache
/// cannot make the ceiling measurement exhaust memory.
const MAX_STREAM_ARRAY_BYTES: u64 = 1 << 30;

pub fn host() -> Host {
    let llc_bytes = llc_bytes().unwrap_or(FALLBACK_LLC_BYTES);
    // The three arrays together span four times the LLC, so every kernel
    // streams from memory rather than cache.
    let stream_array_bytes = (4 * llc_bytes).div_ceil(3).min(MAX_STREAM_ARRAY_BYTES);
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        llc_bytes,
        stream_array_bytes,
        simd: pb_spgemm::simd::active().name(),
    }
}

impl Host {
    pub fn line(&self, seed: u64) -> String {
        format!(
            "host nproc={} llc_bytes={} stream_array_bytes={} simd={} seed={seed}",
            self.nproc, self.llc_bytes, self.stream_array_bytes, self.simd
        )
    }
}

fn llc_bytes() -> Option<u64> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("size")).ok())
        .filter_map(|s| parse_size(s.trim()))
        .max()
}

/// Parses sysfs cache sizes such as `48K`, `2048K` or `32M`.
fn parse_size(s: &str) -> Option<u64> {
    let (digits, unit) = match s.char_indices().find(|(_, c)| !c.is_ascii_digit()) {
        Some((i, _)) => s.split_at(i),
        None => (s, ""),
    };
    let n: u64 = digits.parse().ok()?;
    match unit {
        "" => Some(n),
        "K" => Some(n << 10),
        "M" => Some(n << 20),
        "G" => Some(n << 30),
        _ => None,
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// STREAM copy and triad bandwidth in GB/s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stream {
    pub copy_gbps: f64,
    pub triad_gbps: f64,
}

/// Runs STREAM over `array_bytes`-sized arrays.  `in_child` runs it in a
/// child process of this executable, so its arrays never count towards the
/// workload's own peak memory.
pub fn stream(array_bytes: u64, in_child: bool) -> Result<Stream, String> {
    let elements = (array_bytes / 8) as usize;
    if !in_child {
        return Ok(stream_here(elements));
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--stream-child", &elements.to_string()])
        .output()
        .map_err(|e| format!("starting the STREAM child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut words = text.split_whitespace().map(str::parse::<f64>);
    match (out.status.success(), words.next(), words.next()) {
        (true, Some(Ok(copy_gbps)), Some(Ok(triad_gbps))) => Ok(Stream {
            copy_gbps,
            triad_gbps,
        }),
        _ => Err(format!(
            "STREAM child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Body of `--stream-child`: prints `copy triad` in GB/s.
pub fn stream_child(elements: usize) {
    let s = stream_here(elements);
    println!("{} {}", s.copy_gbps, s.triad_gbps);
}

fn stream_here(elements: usize) -> Stream {
    let r = pb_model::stream::run(&pb_model::stream::StreamConfig {
        elements,
        ntimes: 5,
        threads: None,
    });
    Stream {
        copy_gbps: r.copy,
        triad_gbps: r.triad,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("307200K"), Some(307200 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("12Q"), None);
    }
}
