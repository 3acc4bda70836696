//! Percentiles under the "ten samples beyond" rule, run-to-run summary
//! statistics, and parsers for the `/proc` files the benchmark reads.

/// A percentile is only reported when at least this many samples lie
/// beyond it; fewer means the tail is a handful of outliers, not a rate.
const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile with its support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked after it.
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `values`. Failed operations
/// enter as `f64::INFINITY`, so they miss every latency limit; a
/// percentile that lands on one is an error, as is one with fewer than
/// [`MIN_BEYOND`] samples beyond it.
pub fn quantile(values: &[f64], q: f64) -> Result<Quantile, String> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    let value = sorted[rank - 1];
    if !value.is_finite() {
        return Err(format!("p{} over {n} samples falls on a failed operation", q * 100.0));
    }
    Ok(Quantile { value, samples: n, beyond })
}

/// Arithmetic mean, 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median, averaging the middle pair (Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so run-to-run spreads printed
/// here match the ones computed from the same values in Python.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux fixes
/// USER_HZ at 100 on every architecture the benchmark targets.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process from a
/// `/proc/self/stat` line. The command name may hold spaces and parens,
/// so fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 3 (state) is fields[0]; utime and stime are fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The number on a `key: value` line, such as `VmHWM:   13264 kB` from
/// `/proc/self/status` or `wchar: 1234` from `/proc/thread-self/io`.
pub fn parse_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// The filesystem type of the mount holding `path` (the longest
/// mount-point prefix in `/proc/mounts`).
pub fn parse_mount_fstype(mounts: &str, path: &str) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_device, point, fstype) = (f.next()?, f.next()?, f.next()?);
            let inside = path == point
                || point == "/"
                || path.strip_prefix(point).is_some_and(|rest| rest.starts_with('/'));
            inside.then(|| (point.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

/// User + system CPU seconds of the whole process so far (0 where
/// `/proc` is missing).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_cpu_s(&stat).unwrap_or(0.0)
}

/// Write counters of the calling thread, from `/proc/thread-self/io`, so
/// that writes made by other threads (socket replies, other servers) are
/// left out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadIo {
    /// Bytes passed to write-family syscalls.
    pub wchar: u64,
    /// Write-family syscalls made.
    pub syscw: u64,
}

impl ThreadIo {
    /// Reads the counters now (0 where `/proc` is missing).
    pub fn now() -> Self {
        Self::parse(&std::fs::read_to_string("/proc/thread-self/io").unwrap_or_default())
    }

    /// The counters in an `io` file's text.
    pub fn parse(io: &str) -> Self {
        Self {
            wchar: parse_field(io, "wchar").unwrap_or(0),
            syscw: parse_field(io, "syscw").unwrap_or(0),
        }
    }
}

impl std::ops::Sub for ThreadIo {
    type Output = Self;

    fn sub(self, earlier: Self) -> Self {
        Self {
            wchar: self.wchar.saturating_sub(earlier.wchar),
            syscw: self.syscw.saturating_sub(earlier.syscw),
        }
    }
}

impl std::ops::AddAssign for ThreadIo {
    fn add_assign(&mut self, other: Self) {
        self.wchar += other.wchar;
        self.syscw += other.syscw;
    }
}

/// Peak resident set size so far, MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = quantile(&values, 0.90).unwrap();
        assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, 10));
        // 99 samples leave only 9 beyond the p90 rank.
        assert!(quantile(&values[..99], 0.90).is_err());
        // p99 needs 1000 samples.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&many, 0.99).unwrap().beyond, 10);
        assert!(quantile(&many[..999], 0.99).is_err());
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn percentile_on_a_failed_operation_is_an_error() {
        let mut values: Vec<f64> = (1..=100).map(f64::from).collect();
        for v in values.iter_mut().skip(85) {
            *v = f64::INFINITY;
        }
        assert!(quantile(&values, 0.5).is_ok());
        assert!(quantile(&values, 0.90).unwrap_err().contains("failed"));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 4.5));
    }

    #[test]
    fn proc_parsers_read_fixture_strings() {
        let stat = "4242 (bench mark) S 1 4242 4242 0 -1 4194304 1032 0 0 0 \
                    250 37 0 0 20 0 5 0 123 456789 3300 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat), Some(2.87));

        let status =
            "Name:\tbenchmark\nVmPeak:\t  40000 kB\nVmHWM:\t   13264 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_field(status, "VmHWM"), Some(13264));
        assert_eq!(parse_field(status, "VmSwap"), None);

        let io = "rchar: 10\nwchar: 5120\nsyscr: 3\nsyscw: 16\nread_bytes: 0\n";
        let later = ThreadIo::parse("rchar: 10\nwchar: 9000\nsyscr: 3\nsyscw: 20\n");
        assert_eq!(ThreadIo::parse(io), ThreadIo { wchar: 5120, syscw: 16 });
        assert_eq!(later - ThreadIo::parse(io), ThreadIo { wchar: 3880, syscw: 4 });

        let mounts = "/dev/vda / ext4 rw,relatime 0 0\n\
                      tmpfs /dev/shm tmpfs rw 0 0\n\
                      tmpfs /dev/shmx tmpfs rw 0 0\n";
        assert_eq!(parse_mount_fstype(mounts, "/dev/shm/w/store").as_deref(), Some("tmpfs"));
        assert_eq!(parse_mount_fstype(mounts, "/dev/shm").as_deref(), Some("tmpfs"));
        assert_eq!(parse_mount_fstype(mounts, "/dev/shmall").as_deref(), Some("ext4"));
        assert_eq!(parse_mount_fstype(mounts, "/home/w").as_deref(), Some("ext4"));
    }
}
