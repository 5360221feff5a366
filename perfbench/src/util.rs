//! Small shared pieces: a seeded PRNG, process CPU/RSS accounting, order
//! statistics, line counting, and the result line.

use std::collections::BTreeMap;
use std::path::Path;

/// SplitMix64: a tiny, fully specified generator, so a `--seed` draws the
/// same jobs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` for the call.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage
}

fn cpu_of(u: &RUsage) -> f64 {
    let tv = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    tv(&u.utime) + tv(&u.stime)
}

/// User + system CPU seconds of this process and its reaped children.
pub fn cpu_seconds() -> f64 {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage(RUSAGE_SELF).maxrss as f64 / 1024.0
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `values` that still has at least `beyond`
/// samples above it: the `(beyond + 1)`-th largest value, with its
/// percentile rank. Samples too small to have `beyond` values above any
/// point fall back to the median (rank 50).
pub fn tail(values: &[f64], beyond: usize) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= beyond {
        return (median(values), 50.0);
    }
    let idx = n - 1 - beyond;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// Non-blank, non-test lines of Rust under `src`: files named `tests.rs`
/// are skipped whole, and every `#[cfg(test)]` item is cut from the line
/// it starts on to its closing brace.
pub fn count_loc(src: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    let mut stack = vec![src.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs")
                && path.file_name().is_some_and(|n| n != "tests.rs")
            {
                total += loc_of(&std::fs::read_to_string(&path)?);
            }
        }
    }
    Ok(total)
}

fn loc_of(text: &str) -> u64 {
    let mut count = 0;
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            // Skip the attributed item: up to its first `{` (or a `;` for
            // a `mod tests;` declaration), then to the matching `}`.
            let mut depth = 0i64;
            let mut opened = false;
            let mut rest = Some(line);
            while let Some(l) = rest {
                let l = l.split("//").next().unwrap_or("");
                for c in l.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if (opened && depth <= 0) || (!opened && l.trim_end().ends_with(';')) {
                    break;
                }
                rest = lines.next();
            }
        } else if !trimmed.is_empty() {
            count += 1;
        }
    }
    count
}

/// One metric of the result line.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

pub type Metrics = BTreeMap<String, Metric>;

pub fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    metrics.insert(name.to_string(), Metric { value, unit });
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Numbers print with Rust's shortest round-trip formatting, so every
/// measured digit survives.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.value.is_finite(), "metric {name} is not finite");
            format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 10), (90.0, 90.0));
        assert_eq!(tail(&v[..5], 10).1, 50.0);
    }

    #[test]
    fn loc_skips_test_modules() {
        let text = "fn a() {}\n\n#[cfg(test)]\nmod tests {\n    fn b() { }\n}\nfn c() {}\n";
        assert_eq!(loc_of(text), 2);
        assert_eq!(loc_of("#[cfg(test)]\nmod tests;\nfn d() {}\n"), 1);
    }
}
