//! The five workloads and their seeded op generator.
//!
//! Everything the program under test receives is derived from `--seed`:
//! the 1 MB source buffer, each file's slice of it, the order files are
//! created in, and the op sequence.  What the seed does *not* vary is
//! the shape of the load: file sizes are the quantiles of the size
//! distribution (not draws from it), and on the Zipf workloads the
//! pairing of popularity rank to size is fixed.  With sizes this heavy
//! tailed (p99 = 64 × median) a drawn size set moves the bytes moved per
//! op, and with it `sim_ms_per_op`, by tens of percent from seed to seed;
//! quantiles keep seeds comparable without making them identical.

use amoeba_bullet::cap::Capability;
use amoeba_bullet::sim::DetRng;

/// Length of the seeded buffer every file's bytes are a slice of.
pub const SOURCE_LEN: usize = 1 << 20;
/// Every create is written through to both disks, as in the paper's §4.
pub const P_FACTOR: u32 = 2;
/// Entries in the table new-file sizes cycle through (a power of two).
const MIX_TABLE: usize = 4096;
/// Odd, so `k * MIX_STRIDE mod MIX_TABLE` visits every entry once per
/// 4096 creates; near 4096/φ, so consecutive creates differ in size.
const MIX_STRIDE: u64 = 2531;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Zipf(0.9) reads of files that all fit the cache.
    HotRead,
    /// Uniform reads of files that do not fit the cache.
    ColdScan,
    /// Create a file, delete a random live one; 1 create in 16 read back.
    Churn,
    /// 75 % Zipf(0.9) reads, 25 % replace, per-client partitions.
    Office,
}

pub struct Spec {
    pub name: &'static str,
    /// One line for BENCHMARK.json and the README.
    pub why: &'static str,
    pub kind: Kind,
    pub clients: usize,
    /// Live files per client (`HotRead` clients share one set).
    pub files: usize,
    pub cache_bytes: u64,
    /// Reads are timed and byte-compared once per this many; every read
    /// is length-checked.
    pub stride: u32,
    /// Generator steps per client per round.  Sized so a round lasts a
    /// few tenths of a second on the 2-core host this was written on.
    pub round_steps: u32,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "hot_read_1c",
        why: "one client, 100 % cache hits: the per-request CPU floor of cap, sim, rpc, table and cache lookups",
        kind: Kind::HotRead,
        clients: 1,
        files: 4096,
        cache_bytes: 48 << 20,
        stride: 16,
        round_steps: 1 << 17,
    },
    Spec {
        name: "hot_read_2c",
        why: "the same reads from two clients: isolates shared-state cost (Stats mutex, SimClock, lock wrappers)",
        kind: Kind::HotRead,
        clients: 2,
        files: 4096,
        cache_bytes: 48 << 20,
        stride: 16,
        round_steps: 1 << 15,
    },
    Spec {
        name: "cold_scan",
        why: "40 MB of 256 KB-1 MB files through an 8 MB cache: disk, eviction and memcpy dominate, per-request overhead must not show",
        kind: Kind::ColdScan,
        clients: 1,
        files: 64,
        cache_bytes: 8 << 20,
        stride: 1,
        round_steps: 1024,
    },
    Spec {
        name: "create_churn",
        why: "create+delete over 1024 live files: allocator, table write-through, 2-replica writes; shows a read gain that costs writes",
        kind: Kind::Churn,
        clients: 1,
        files: 1024,
        cache_bytes: 8 << 20,
        stride: 1,
        round_steps: 1 << 14,
    },
    Spec {
        name: "office_mix",
        why: "two clients, 75 % Zipf reads beside 25 % replaces, live set 2.4x the cache: contention on cache, table, allocator and disks",
        kind: Kind::Office,
        clients: 2,
        files: 2048,
        cache_bytes: 8 << 20,
        stride: 1,
        round_steps: 1 << 12,
    },
];

impl Spec {
    /// File sets preloaded: one per client, except that `HotRead` clients
    /// all read the same set.
    pub fn file_sets(&self) -> usize {
        if self.kind == Kind::HotRead {
            1
        } else {
            self.clients
        }
    }
}

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A live file as its owner knows it: the capability plus where its
/// bytes sit in the source buffer, for the byte comparison.
#[derive(Clone, Copy)]
pub struct Slot {
    pub cap: Capability,
    pub off: u32,
    pub len: u32,
}

pub enum Op {
    Read {
        slot: u32,
    },
    /// Create `source[off..off+len]`, then delete the file in `slot`,
    /// whose place the new file takes.
    Replace {
        slot: u32,
        off: u32,
        len: u32,
        readback: bool,
    },
    /// Create a file and delete that same file: the paper's Fig. 2 unit,
    /// leaving the live set as it was.
    Pair {
        off: u32,
        len: u32,
    },
}

/// The `n` standard-normal quantiles at `(i + 0.5) / n`, by walking the
/// density on a fine grid.
fn normal_quantiles(n: usize) -> Vec<f64> {
    const STEP: f64 = 1e-4;
    let norm = 1.0 / std::f64::consts::TAU.sqrt();
    let (mut z, mut cdf) = (-8.0f64, 0.0f64);
    (0..n)
        .map(|i| {
            let target = (i as f64 + 0.5) / n as f64;
            while cdf < target {
                cdf += norm * (-0.5 * z * z).exp() * STEP;
                z += STEP;
            }
            z
        })
        .collect()
}

/// The paper's [1] file-size mix as `n` ascending quantiles: log-normal,
/// median 1 KB, p99 64 KB, truncated at 256 KB.
pub fn mix_sizes(n: usize) -> Vec<u32> {
    let sigma = 64f64.ln() / 2.326_347_9;
    normal_quantiles(n)
        .into_iter()
        .map(|z| ((1024.0 * (sigma * z).exp()).round() as u32).clamp(1, 256 << 10))
        .collect()
}

/// `n` sizes evenly spaced over 256 KB ..= 1 MB.
pub fn big_sizes(n: usize) -> Vec<u32> {
    let (lo, hi) = (256u64 << 10, 1u64 << 20);
    (0..n as u64)
        .map(|i| (lo + (hi - lo) * i / (n as u64 - 1)) as u32)
        .collect()
}

/// The size of each slot of a client's file set.  On the Zipf workloads
/// slot = popularity rank, and rank `r` gets the quantile at the
/// bit-reversal of `r`, so every prefix of the ranking covers the size
/// distribution evenly and the bytes moved per read do not depend on the
/// seed.
pub fn slot_sizes(spec: &Spec) -> Vec<u32> {
    let n = spec.files;
    match spec.kind {
        Kind::ColdScan => big_sizes(n),
        Kind::Churn => mix_sizes(n),
        Kind::HotRead | Kind::Office => {
            assert!(n.is_power_of_two());
            let sorted = mix_sizes(n);
            let bits = n.trailing_zeros();
            (0..n)
                .map(|r| sorted[r.reverse_bits() >> (usize::BITS - bits)])
                .collect()
        }
    }
}

/// Zipf(s) over `0..n` (n a power of two) by Vose's alias method: one
/// RNG draw and two table reads per sample.
pub struct Zipf {
    /// Acceptance threshold of each column, scaled to 2^32.
    keep: Vec<u32>,
    alias: Vec<u32>,
    shift: u32,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n.is_power_of_two() && n > 1);
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| scaled[i] < 1.0);
        let mut keep = vec![u32::MAX; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        while let (Some(&s_i), Some(&l_i)) = (small.last(), large.last()) {
            small.pop();
            keep[s_i] = (scaled[s_i] * 4_294_967_296.0).min(4_294_967_295.0) as u32;
            alias[s_i] = l_i as u32;
            scaled[l_i] -= 1.0 - scaled[s_i];
            if scaled[l_i] < 1.0 {
                large.pop();
                small.push(l_i);
            }
        }
        Zipf {
            keep,
            alias,
            shift: 64 - n.trailing_zeros(),
        }
    }

    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> u32 {
        let x = rng.next_u64();
        let col = (x >> self.shift) as usize;
        if (x as u32) <= self.keep[col] {
            col as u32
        } else {
            self.alias[col]
        }
    }
}

/// One client's op stream.
pub struct Gen {
    kind: Kind,
    rng: DetRng,
    files: u64,
    zipf: Option<Zipf>,
    mix: Vec<u32>,
    /// Creates issued so far, offset by a seeded phase.
    creates: u64,
}

impl Gen {
    pub fn new(spec: &Spec, seed: u64, client: usize) -> Gen {
        let mut rng = DetRng::new(seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        Gen {
            kind: spec.kind,
            files: spec.files as u64,
            zipf: matches!(spec.kind, Kind::HotRead | Kind::Office)
                .then(|| Zipf::new(spec.files, 0.9)),
            mix: mix_sizes(MIX_TABLE),
            creates: rng.next_below(MIX_TABLE as u64),
            rng,
        }
    }

    /// The next new file: sizes cycle through the quantile table, the
    /// slice of the source buffer is drawn.
    fn new_file(&mut self) -> (u32, u32) {
        let len = self.mix[(self.creates.wrapping_mul(MIX_STRIDE) % MIX_TABLE as u64) as usize];
        self.creates += 1;
        let off = self.rng.next_below((SOURCE_LEN - len as usize + 1) as u64) as u32;
        (off, len)
    }

    #[inline]
    pub fn next_op(&mut self) -> Op {
        match self.kind {
            Kind::HotRead => Op::Read {
                slot: self
                    .zipf
                    .as_ref()
                    .expect("zipf workload")
                    .sample(&mut self.rng),
            },
            Kind::ColdScan => Op::Read {
                slot: self.rng.next_below(self.files) as u32,
            },
            Kind::Churn => {
                let readback = self.creates.is_multiple_of(16);
                let slot = self.rng.next_below(self.files) as u32;
                let (off, len) = self.new_file();
                Op::Replace {
                    slot,
                    off,
                    len,
                    readback,
                }
            }
            Kind::Office => {
                if self.rng.next_u64() >> 62 != 0 {
                    Op::Read {
                        slot: self
                            .zipf
                            .as_ref()
                            .expect("zipf workload")
                            .sample(&mut self.rng),
                    }
                } else {
                    let slot = self.rng.next_below(self.files) as u32;
                    let (off, len) = self.new_file();
                    Op::Replace {
                        slot,
                        off,
                        len,
                        readback: false,
                    }
                }
            }
        }
    }

    /// The next create+delete pair of the tail the read-only workloads
    /// run after their main phase.
    pub fn next_pair(&mut self) -> Op {
        let (off, len) = self.new_file();
        Op::Pair { off, len }
    }
}

/// A seeded permutation of `0..n`: the order a file set is created in.
pub fn shuffled(n: usize, rng: &mut DetRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order
}
