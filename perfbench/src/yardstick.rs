//! A fixed reference computation that tracks how fast the host runs
//! code like the program's at the moment, so op times can be scaled to
//! one host speed.
//!
//! On a shared host the same op's CPU time moves by up to 1.7× within
//! seconds as other tenants load the shared core and caches, while pure
//! ALU loops keep their speed. The yardstick allocates, hashes, sorts
//! and walks a tree over a couple of MB, as the compiler and simulator
//! do, and its CPU time moves with the op times: in a 60 s `soak` series
//! on a 2-vCPU Xeon VM, where the 5 s medians of one chip's op time
//! moved between 70 and 109 ms, the ratio of op to yardstick time stayed
//! within 6.1–6.5 in 11 of 12 windows. It is the benchmark's own code,
//! so a change to the program cannot move it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

use crate::cpu_s;

/// CPU ms the yardstick takes on a quiet core of the host the benchmark
/// was built on (a 2-vCPU Intel Xeon VM, 2 MiB L2 per core); scaled op
/// times read as CPU ms on that host when it is quiet.
pub const REF_MS: f64 = 12.0;

/// Wall seconds between yardstick samples; an op that takes longer gets
/// one before and one after it.
const PERIOD_S: f64 = 0.25;

/// One run of the yardstick; returns a value that depends on all of it.
fn yardstick() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..40_000).map(|_| next()).collect();
    let mut map: HashMap<u64, usize> = HashMap::new();
    for (i, &k) in keys.iter().enumerate() {
        map.insert(k % 50_000, i);
    }
    keys.sort_unstable();
    let mut tree = BTreeMap::new();
    for &k in keys.iter().step_by(4) {
        tree.insert(k >> 20, k);
    }
    let mut acc = 0u64;
    for _ in 0..60_000 {
        let k = next();
        acc = acc.wrapping_add(map.get(&(k % 50_000)).copied().unwrap_or(0) as u64);
        if let Some((_, v)) = tree.range(k >> 20..).next() {
            acc ^= v;
        }
    }
    let names: Vec<String> = (0..5_000).map(|i| format!("n{i}_{}", acc & 7)).collect();
    acc.wrapping_add(names.iter().map(|s| s.len() as u64).sum::<u64>())
}

/// Yardstick samples taken through a run.
pub struct Speed {
    start: std::time::Instant,
    /// (wall seconds since start, yardstick CPU ms).
    samples: Vec<(f64, f64)>,
}

impl Speed {
    pub fn new() -> Speed {
        Speed {
            start: std::time::Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Runs the yardstick once and records its CPU time.
    pub fn sample(&mut self) {
        let t = cpu_s();
        black_box(yardstick());
        let ms = (cpu_s() - t) * 1e3;
        self.samples.push((self.start.elapsed().as_secs_f64(), ms));
    }

    /// Samples if the last sample is older than the period, and returns
    /// the index of the latest sample: pass it to [`Speed::scale`] for
    /// the op about to start.
    pub fn before_op(&mut self) -> usize {
        let last = self.samples.last().map_or(f64::NEG_INFINITY, |s| s.0);
        if self.start.elapsed().as_secs_f64() - last >= PERIOD_S {
            self.sample();
        }
        self.samples.len() - 1
    }

    /// The factor that scales the CPU time of an op that started after
    /// sample `before` to [`REF_MS`] speed: the mean of that sample and
    /// the next one (taken after the op), or `before` alone at the end.
    /// Call after the run's last [`Speed::sample`].
    pub fn scale(&self, before: usize) -> f64 {
        let a = self.samples[before].1;
        let b = self.samples.get(before + 1).map_or(a, |s| s.1);
        REF_MS / (0.5 * (a + b))
    }

    /// Median yardstick CPU ms over the run.
    pub fn median_ms(&self) -> f64 {
        crate::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
}
