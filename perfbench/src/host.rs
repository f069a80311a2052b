//! The host block: core count, pool workers, last-level cache, peak memory,
//! a first-party streaming-copy bandwidth ceiling, and pool busy time.

use std::hint::black_box;
use std::time::Instant;

use crate::report::Report;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size in bytes of the largest (highest-level) CPU cache sysfs reports for
/// cpu0; 32 MiB when sysfs has no cache entries.
pub fn llc_bytes() -> usize {
    let mut best = (0u32, 0usize);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let level = std::fs::read_to_string(format!("{dir}/level"))
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok());
        let size = std::fs::read_to_string(format!("{dir}/size"))
            .ok()
            .and_then(|s| parse_size(s.trim()));
        if let (Some(level), Some(size)) = (level, size) {
            if (level, size) > best {
                best = (level, size);
            }
        }
    }
    if best.1 == 0 {
        32 << 20
    } else {
        best.1
    }
}

/// Parses sysfs cache sizes such as `307200K` or `32M`.
fn parse_size(s: &str) -> Option<usize> {
    let (digits, scale) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1usize << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * scale)
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Streaming-copy bandwidth in GiB/s (bytes read plus bytes written per
/// second), best of three timed passes after one warm-up pass, copying
/// `bytes` between two arrays with `threads` threads on disjoint halves.
pub fn copy_gib_s(bytes: usize, threads: usize) -> f64 {
    let words = bytes / 8;
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    let threads = threads.max(1);
    let mut best = f64::INFINITY;
    for pass in 0..4 {
        let start = Instant::now();
        if threads == 1 {
            dst.copy_from_slice(&src);
        } else {
            let chunk = words.div_ceil(threads);
            std::thread::scope(|s| {
                for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                    s.spawn(move || d.copy_from_slice(c));
                }
            });
        }
        black_box(&mut dst);
        let secs = start.elapsed().as_secs_f64();
        if pass > 0 {
            best = best.min(secs);
        }
    }
    (2 * words * 8) as f64 / best / f64::from(1u32 << 30)
}

/// Reports the host block (core count, pool workers and LLC size as
/// details, the streaming-copy ceiling as a metric). Returns the copy
/// bandwidth in bytes/s.
pub fn block(report: &mut Report) -> f64 {
    let llc = llc_bytes();
    let nproc = nproc();
    report.detail("host.nproc", "count", nproc as f64, 1);
    report.detail(
        "host.pool_workers",
        "count",
        sr_par::num_threads() as f64,
        1,
    );
    report.detail("host.llc_mib", "MiB", llc as f64 / f64::from(1u32 << 20), 1);
    // Two arrays of 2 × LLC each: the copy streams 4 × LLC through memory.
    let t1 = copy_gib_s(2 * llc, 1);
    let best = if nproc >= 2 {
        t1.max(copy_gib_s(2 * llc, 2))
    } else {
        t1
    };
    report.detail("host.copy_gib_s.t1", "GiB/s", t1, 3);
    report.metric("host.copy_gib_s", "GiB/s", best, 3);
    best * f64::from(1u32 << 30)
}

/// Measures the fraction of busy pool-worker time from `start` to `finish`.
pub struct BusyMeter(Instant);

impl BusyMeter {
    /// Resets and enables the pool counters.
    pub fn start() -> Self {
        sr_par::counters::reset();
        sr_par::counters::enable();
        BusyMeter(Instant::now())
    }

    /// Busy nanos ÷ (wall nanos × pool workers) since `start`.
    pub fn finish(self) -> f64 {
        let wall = self.0.elapsed().as_nanos() as f64;
        sr_par::counters::disable();
        let busy = sr_par::counters::snapshot().busy_nanos as f64;
        busy / (wall * sr_par::num_threads() as f64)
    }
}

/// Fraction of busy pool-worker time over one call of `f`.
pub fn busy_frac<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let meter = BusyMeter::start();
    let out = f();
    (out, meter.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("307200K"), Some(307_200 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn copy_bandwidth_is_positive() {
        assert!(copy_gib_s(1 << 20, 1) > 0.0);
        assert!(copy_gib_s(1 << 20, 2) > 0.0);
    }
}
