//! Order statistics, the reference kernel that takes the host's state out of
//! a time, the seeded generator that makes the inputs, and the process's
//! peak memory.

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in 0..=100.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The reference kernel: a fixed piece of work the benchmark owns, three
/// rounds of building 40 000 short strings and a map from them, on `threads`
/// threads at once. It allocates, hashes and walks memory as the program
/// under test does, so a neighbour that contends for the cache slows both
/// alike (README, "Reading the times"), and a time divided by the reference
/// run next to it says how the program changed, not the hour. It runs on as
/// many threads as the workload's passes keep busy: a second busy core slows
/// the first, and only a reference that does the same follows such a pass.
#[derive(Clone, Copy)]
pub struct Reference {
    pub threads: usize,
}

impl Reference {
    /// Wall seconds of one run of the kernel, until every thread is done.
    pub fn run(self) -> f64 {
        let begun = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 1..self.threads {
                scope.spawn(kernel);
            }
            kernel();
        });
        begun.elapsed().as_secs_f64()
    }

    /// Seconds `run` takes in a quiet hour on the host this benchmark was
    /// sized on: the scale that turns a ratio back into seconds.
    pub fn quiet_s(self) -> f64 {
        if self.threads == 1 {
            0.027
        } else {
            0.031
        }
    }

    /// `wall` seconds as a quiet host would have taken them, going by the
    /// reference's time just before and just after.
    pub fn quiet_host_s(self, wall: f64, before: f64, after: f64) -> f64 {
        wall / ((before + after) / 2.0) * self.quiet_s()
    }
}

fn kernel() {
    for _ in 0..3 {
        let mut names = Vec::new();
        let mut index = std::collections::HashMap::new();
        for i in 0..40_000 {
            names.push(format!("node{i}"));
        }
        for (i, name) in names.iter().enumerate() {
            index.insert(name.clone(), i);
        }
        std::hint::black_box(index.len());
    }
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// splitmix64: the same seed gives the same inputs on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(min(&[2.0, 1.0, 3.0]), 1.0);
    }

    #[test]
    fn quiet_host_seconds_scale_with_the_reference() {
        for threads in [1, 2] {
            let r = Reference { threads };
            let q = r.quiet_s();
            assert!((r.quiet_host_s(2.0, q, q) - 2.0).abs() < 1e-12);
            assert!((r.quiet_host_s(3.0, 1.4 * q, 1.6 * q) - 2.0).abs() < 1e-12);
            assert!(r.run() > 0.0);
        }
    }

    #[test]
    fn same_seed_same_shuffle() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..32).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(1), shuffled(1));
        assert_ne!(shuffled(1), shuffled(2));
    }
}
