//! Small shared pieces: the output digest, percentiles, `/proc` readers
//! for memory and CPU time, and the reference kernel that measures the
//! host's speed.

use std::time::{Duration, Instant};

/// 64-bit FNV-1a over everything a workload's simulated outputs hold.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nanoseconds a task has run, the first field of a `schedstat` file.
pub fn run_ns(schedstat_path: &str) -> Option<u64> {
    std::fs::read_to_string(schedstat_path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds the calling thread has used, to the nanosecond.
pub fn thread_cpu_s() -> f64 {
    run_ns("/proc/thread-self/schedstat").unwrap_or(0) as f64 / 1e9
}

/// The reference kernel's time on the host the figures are scaled to.
const KERNEL_REF_NS: f64 = 1e6;
/// A thread that runs timed work runs the reference kernel between two
/// pieces of it when this long has passed since its last kernel run.
const KERNEL_EVERY: Duration = Duration::from_millis(100);

/// A fixed amount of work of the benchmark's own, which no change to the
/// simulator touches: integer hashing and sorting over 32 KiB, about a
/// millisecond.
fn reference_kernel() -> u64 {
    let mut v: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % 1_000_003)
        .collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for r in 0..std::hint::black_box(10u64) {
        for x in v.iter_mut() {
            *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(r);
            h ^= *x >> 17;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        v.sort_unstable();
    }
    h
}

/// Time one run of the reference kernel, in ns.
pub fn kernel_ns() -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(reference_kernel());
    t0.elapsed().as_nanos() as f64
}

/// Runs the reference kernel at most every [`KERNEL_EVERY`].
pub struct KernelSampler {
    last: Instant,
    pub samples: Vec<f64>,
}

impl KernelSampler {
    pub fn new() -> KernelSampler {
        KernelSampler {
            last: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Run the kernel if it is due; call between two pieces of timed work.
    pub fn between(&mut self) {
        if self.last.elapsed() >= KERNEL_EVERY {
            self.samples.push(kernel_ns());
            self.last = Instant::now();
        }
    }
}

/// The reference kernel's fastest of three runs, in ns: the host's speed
/// at one moment, for work timed right after it.
pub fn kernel_now_ns() -> f64 {
    (0..3).map(|_| kernel_ns()).fold(f64::INFINITY, f64::min)
}

/// A duration timed while the kernel took `kernel_ns`, scaled to the
/// reference host.
pub fn on_reference_host(seconds: f64, kernel_ns: f64) -> f64 {
    seconds * KERNEL_REF_NS / kernel_ns
}

/// How slow the host was at its fastest moment of a phase: the reference
/// kernel's fastest time there, over [`KERNEL_REF_NS`]. Figures built from
/// a phase's fastest work are multiplied by this (see [`crate::Timings`]).
pub fn host_speed(kernel_ns: &[f64]) -> f64 {
    if kernel_ns.is_empty() {
        1.0
    } else {
        fastest(kernel_ns) / KERNEL_REF_NS
    }
}

/// Peak resident set (VmHWM) of `pid` ("self" for this process), MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPUs this process may run on (the `nproc` count), from its affinity
/// mask.
pub fn nproc() -> usize {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let count = text
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|list| {
            list.trim()
                .split(',')
                .filter_map(|r| {
                    let mut ends = r.split('-').map(|x| x.trim().parse::<usize>());
                    match (ends.next(), ends.next()) {
                        (Some(Ok(a)), Some(Ok(b))) if b >= a => Some(b - a + 1),
                        (Some(Ok(_)), None) => Some(1),
                        _ => None,
                    }
                })
                .sum::<usize>()
        })
        .unwrap_or(0);
    if count > 0 {
        count
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
