//! Clocks and statistics.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the run's epoch (the first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Process CPU time (user + system, every thread) in ms, from
/// `/proc/self/stat` (clock ticks of 10 ms).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// `(on-CPU ns, run-queue wait ns)` of every live thread of this
/// process, by thread id, from `/proc/self/task/<tid>/schedstat`.
pub fn thread_times() -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        // A thread may exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let mut f = stat.split_whitespace().map(|x| x.parse().unwrap_or(0));
        out.insert(tid, (f.next().unwrap_or(0), f.next().unwrap_or(0)));
    }
    out
}

/// The calling thread's id (the target of `/proc/thread-self`).
pub fn thread_id() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// The `q`-quantile (0..=1) of `v` by linear interpolation; `None` when
/// empty.
pub fn quantile(v: &mut [f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    quantile(&mut v, 0.5).unwrap_or(0.0)
}

/// splitmix64: the benchmark's input generator.
pub struct Rng(pub u64);

impl Rng {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}
