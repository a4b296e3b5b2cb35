//! Workload generation calibrated to the literature the paper cites.
//!
//! * File sizes: "the median file size in a UNIX system is 1 Kbyte and
//!   99 % of all files are less than 64 Kbytes" (Mullender & Tanenbaum,
//!   *Immediate Files*, 1984 — the paper's \[1\]).  A log-normal with
//!   median 1 KB whose 99th percentile is 64 KB matches both quantiles
//!   exactly: μ = ln 1024, σ = (ln 65536 − ln 1024) / z₀.₉₉.
//! * Access mix: "most files (about 75 %) are accessed in entirety"
//!   (Ousterhout et al. 1985 — the paper's \[4\]); we generate 75 %
//!   whole-file reads against creates and deletes.

use amoeba_sim::DetRng;

/// The calibrated log-normal file-size distribution.
#[derive(Debug, Clone)]
pub struct SizeDistribution {
    rng: DetRng,
    mu: f64,
    sigma: f64,
    max: u64,
}

impl SizeDistribution {
    /// The distribution from the paper's citations: median 1 KB, 99 %
    /// below 64 KB, truncated at `max` bytes (files must fit the cache).
    pub fn unix_1984(seed: u64, max: u64) -> SizeDistribution {
        let z99 = 2.326_347_874_040_841; // Φ⁻¹(0.99)
        SizeDistribution {
            rng: DetRng::new(seed),
            mu: (1024f64).ln(),
            sigma: ((65536f64).ln() - (1024f64).ln()) / z99,
            max,
        }
    }

    /// Draws one file size in bytes (at least 1).
    pub fn sample(&mut self) -> u64 {
        let z = self.rng.next_gaussian();
        let size = (self.mu + self.sigma * z).exp();
        (size as u64).clamp(1, self.max)
    }
}

/// One step of a mixed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Create a file of this size.
    Create(u64),
    /// Read the nth live file (mod the live count).
    Read(u64),
    /// Delete the nth live file (mod the live count).
    Delete(u64),
}

/// A generator of create/read/delete mixes around a target population.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    sizes: SizeDistribution,
    rng: DetRng,
    /// Probability of a read among all operations (the cited 75 %).
    read_fraction: f64,
    /// Target number of live files; creates and deletes balance around it.
    target_population: u64,
    live: u64,
}

impl WorkloadMix {
    /// The paper-cited mix: 75 % whole-file reads, the 1984 size
    /// distribution, balancing around `target_population` live files.
    pub fn unix_mix(seed: u64, max_size: u64, target_population: u64) -> WorkloadMix {
        let mut rng = DetRng::new(seed ^ 0x3177);
        WorkloadMix {
            sizes: SizeDistribution::unix_1984(rng.next_u64(), max_size),
            rng,
            read_fraction: 0.75,
            target_population,
            live: 0,
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> WorkloadOp {
        if self.live == 0 {
            self.live += 1;
            return WorkloadOp::Create(self.sizes.sample());
        }
        if self.rng.next_f64() < self.read_fraction {
            return WorkloadOp::Read(self.rng.next_u64());
        }
        // Mutations: drift toward the target population.
        let p_create = if self.live >= self.target_population {
            0.45
        } else {
            0.55
        };
        if self.rng.next_f64() < p_create {
            self.live += 1;
            WorkloadOp::Create(self.sizes.sample())
        } else {
            self.live -= 1;
            WorkloadOp::Delete(self.rng.next_u64())
        }
    }

    /// Draws `ops` operations and applies them to `files`, the handles of
    /// the files that exist: a create's handle joins the set (`None`: the
    /// server refused it), a read sees the set and its draw (the plain
    /// choice is [`nth`]), a delete is handed its victim, already taken
    /// out.  Reads and deletes are skipped while nothing exists.
    pub fn drive<H>(
        &mut self,
        ops: usize,
        files: &mut Vec<H>,
        mut create: impl FnMut(u64) -> Option<H>,
        mut read: impl FnMut(&[H], u64),
        mut delete: impl FnMut(H),
    ) {
        for _ in 0..ops {
            match self.next_op() {
                WorkloadOp::Create(size) => files.extend(create(size)),
                WorkloadOp::Read(n) if !files.is_empty() => read(files, n),
                WorkloadOp::Delete(n) if !files.is_empty() => {
                    delete(files.swap_remove((n % files.len() as u64) as usize));
                }
                WorkloadOp::Read(_) | WorkloadOp::Delete(_) => {}
            }
        }
    }
}

/// The `n`th (mod the count) of the files that exist.
pub fn nth<H: Copy>(files: &[H], n: u64) -> H {
    files[(n % files.len() as u64) as usize]
}

/// A Zipf (power-law) rank sampler: rank `k` (0-based) is drawn with
/// probability ∝ 1/(k+1)^θ.  θ ≈ 1 is the classic popularity skew
/// observed in file accesses — a few files take most of the traffic.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    rng: DetRng,
    /// Cumulative distribution over ranks, monotone to 1.0.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `n` ranks with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(seed: u64, n: usize, theta: f64) -> ZipfSampler {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfSampler {
            rng: DetRng::new(seed),
            cdf,
        }
    }

    /// Draws one 0-based rank (0 is the most popular).
    pub fn sample(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Sizes for a small-file create storm with popularity-skewed size
/// classes: power-of-two classes spanning `[min, max]` bytes, class
/// popularity Zipf-distributed (θ = 1.1, small files most common —
/// matching the observation behind the paper's \[1\] that small files
/// dominate), with ±12 % deterministic jitter inside the class so
/// payloads are not all block-aligned.
///
/// This is the workload of the group-commit ablation (ABL15): `n`
/// concurrent small creates that the log should collapse into a couple
/// of sequential appends.
pub fn small_file_storm(seed: u64, n: usize, min: u64, max: u64) -> Vec<u64> {
    assert!(min >= 1 && min <= max, "need 1 <= min <= max");
    let classes: Vec<u64> = std::iter::successors(Some(min), |&s| Some(s * 2))
        .take_while(|&s| s <= max)
        .collect();
    let mut zipf = ZipfSampler::new(seed ^ 0x5102f, classes.len(), 1.1);
    let mut jitter = DetRng::new(seed ^ 0x7e44);
    (0..n)
        .map(|_| {
            let base = classes[zipf.sample()];
            let spread = (base / 8).max(1);
            let off = jitter.next_u64() % (2 * spread);
            (base + off).saturating_sub(spread).clamp(min, max)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_distribution_matches_cited_quantiles() {
        let mut dist = SizeDistribution::unix_1984(7, 1 << 30);
        let mut sizes: Vec<u64> = (0..50_000).map(|_| dist.sample()).collect();
        sizes.sort_unstable();
        let median = amoeba_sim::exact_quantile(&sizes, 50).unwrap();
        let p99 = amoeba_sim::exact_quantile(&sizes, 99).unwrap();
        assert!(
            (700..1500).contains(&median),
            "median {median} should be ≈ 1 KB"
        );
        assert!(
            (45_000..95_000).contains(&p99),
            "p99 {p99} should be ≈ 64 KB"
        );
    }

    #[test]
    fn sizes_respect_truncation() {
        let mut dist = SizeDistribution::unix_1984(3, 8192);
        for _ in 0..10_000 {
            let s = dist.sample();
            assert!((1..=8192).contains(&s));
        }
    }

    #[test]
    fn mix_is_three_quarters_reads() {
        let mut mix = WorkloadMix::unix_mix(11, 1 << 20, 100);
        let mut reads = 0;
        let n = 50_000;
        for _ in 0..n {
            if matches!(mix.next_op(), WorkloadOp::Read(_)) {
                reads += 1;
            }
        }
        let frac = reads as f64 / n as f64;
        assert!((0.70..0.80).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn mix_population_stays_near_target() {
        let mut mix = WorkloadMix::unix_mix(5, 1 << 20, 50);
        for _ in 0..20_000 {
            mix.next_op();
        }
        assert!(
            (10..200).contains(&mix.live),
            "population drifted to {}",
            mix.live
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = WorkloadMix::unix_mix(9, 1 << 20, 10);
        let mut b = WorkloadMix::unix_mix(9, 1 << 20, 10);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn zipf_rank_zero_dominates() {
        let mut z = ZipfSampler::new(17, 16, 1.1);
        let mut counts = [0u64; 16];
        for _ in 0..20_000 {
            counts[z.sample()] += 1;
        }
        assert!(
            counts[0] > counts[1] && counts[1] > counts[4] && counts[4] > counts[15],
            "popularity must fall with rank: {counts:?}"
        );
        assert!(
            counts[0] as f64 / 20_000.0 > 0.25,
            "the head rank takes a large share"
        );
    }

    #[test]
    fn storm_sizes_stay_in_range_and_skew_small() {
        let sizes = small_file_storm(3, 5_000, 1024, 65_536);
        assert_eq!(sizes.len(), 5_000);
        assert!(sizes.iter().all(|&s| (1024..=65_536).contains(&s)));
        let small = sizes.iter().filter(|&&s| s <= 4096).count();
        assert!(
            small * 2 > sizes.len(),
            "small files dominate the storm ({small}/5000 ≤ 4 KB)"
        );
    }

    #[test]
    fn storm_is_deterministic() {
        assert_eq!(
            small_file_storm(42, 256, 1024, 32_768),
            small_file_storm(42, 256, 1024, 32_768)
        );
    }
}
