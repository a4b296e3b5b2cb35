//! The closed-loop client driver and the end-to-end measurement.
//!
//! A run is a sequence of *rounds*: a fixed number of generator steps
//! per client, started together on a barrier.  Throughput and latency
//! percentiles are computed per round and reported as the median over
//! rounds, so a burst of host noise costs one round, not the run.

use std::sync::Barrier;
use std::time::Instant;

use amoeba_bullet::bullet::BulletClient;
use amoeba_bullet::cap::Capability;
use bytes::Bytes;

use crate::stack::Ready;
use crate::workload::{Gen, Kind, Op, Slot, Spec, P_FACTOR};

/// Where a client's calls enter the stack.  The untraced run enters at
/// the top ([`Direct`]); the traced run cycles through the layers.
pub trait Entry {
    fn read(&mut self, cap: &Capability) -> Option<Bytes>;
    fn create(&mut self, data: Bytes) -> Option<Capability>;
    fn delete(&mut self, cap: &Capability) -> bool;
}

pub struct Direct(pub BulletClient);

impl Entry for Direct {
    #[inline]
    fn read(&mut self, cap: &Capability) -> Option<Bytes> {
        self.0.read(cap).ok()
    }
    #[inline]
    fn create(&mut self, data: Bytes) -> Option<Capability> {
        self.0.create(data, P_FACTOR).ok()
    }
    #[inline]
    fn delete(&mut self, cap: &Capability) -> bool {
        self.0.delete(cap).is_ok()
    }
}

/// Op types, as indices into [`Tally`]'s arrays and [`OP_NAMES`].
pub const READ: usize = 0;
pub const CREATE: usize = 1;
pub const DELETE: usize = 2;
pub const OP_NAMES: [&str; 3] = ["read", "create", "delete"];

/// Ops attempted and failed, by type.  A read fails if it errors or
/// returns the wrong length or (when compared) the wrong bytes.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: [u64; 3],
    pub failed: [u64; 3],
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        for i in 0..3 {
            self.attempted[i] += other.attempted[i];
            self.failed[i] += other.failed[i];
        }
    }
    pub fn total_attempted(&self) -> u64 {
        self.attempted.iter().sum()
    }
    pub fn total_failed(&self) -> u64 {
        self.failed.iter().sum()
    }
}

/// One client's raw record of one round.
struct RoundBuf {
    ops: u64,
    read_ns: Vec<u32>,
    cd_ns: Vec<u32>,
}

fn elapsed_ns(t0: Instant) -> u32 {
    t0.elapsed().as_nanos().min(u32::MAX as u128) as u32
}

pub struct Driver<'a, E> {
    pub entry: E,
    gen: Gen,
    slots: Vec<Slot>,
    source: &'a Bytes,
    stride: u64,
    reads: u64,
    tally: Tally,
}

impl<'a, E: Entry> Driver<'a, E> {
    pub fn new(entry: E, spec: &Spec, seed: u64, client: usize, ready: &'a Ready) -> Self {
        Driver {
            entry,
            gen: Gen::new(spec, seed, client),
            slots: ready.slots[client].clone(),
            source: &ready.source,
            stride: spec.stride as u64,
            reads: 0,
            tally: Tally::default(),
        }
    }

    fn read(&mut self, slot: Slot, force_sample: bool, buf: &mut RoundBuf) {
        let sampled = force_sample || self.reads.is_multiple_of(self.stride);
        self.reads += 1;
        let t0 = sampled.then(Instant::now);
        let got = self.entry.read(&slot.cap);
        if let Some(t0) = t0 {
            buf.read_ns.push(elapsed_ns(t0));
        }
        let (off, len) = (slot.off as usize, slot.len as usize);
        let ok = got
            .is_some_and(|d| d.len() == len && (!sampled || d[..] == self.source[off..off + len]));
        self.tally.attempted[READ] += 1;
        self.tally.failed[READ] += !ok as u64;
        buf.ops += 1;
    }

    /// Creates `source[off..off+len]` and deletes `victim` (the new file
    /// itself when `None`), timed together as one create+delete pair.
    fn pair(
        &mut self,
        off: u32,
        len: u32,
        victim: Option<Slot>,
        buf: &mut RoundBuf,
    ) -> Option<Slot> {
        let data = self.source.slice(off as usize..(off + len) as usize);
        let t0 = Instant::now();
        self.tally.attempted[CREATE] += 1;
        let Some(cap) = self.entry.create(data) else {
            self.tally.failed[CREATE] += 1;
            return None;
        };
        let new = Slot { cap, off, len };
        self.tally.attempted[DELETE] += 1;
        let deleted = self.entry.delete(&victim.unwrap_or(new).cap);
        buf.cd_ns.push(elapsed_ns(t0));
        self.tally.failed[DELETE] += !deleted as u64;
        buf.ops += 2;
        Some(new)
    }

    #[inline]
    fn step(&mut self, op: Op, buf: &mut RoundBuf) {
        match op {
            Op::Read { slot } => self.read(self.slots[slot as usize], false, buf),
            Op::Replace {
                slot,
                off,
                len,
                readback,
            } => {
                let old = self.slots[slot as usize];
                if let Some(new) = self.pair(off, len, Some(old), buf) {
                    self.slots[slot as usize] = new;
                    if readback {
                        self.read(new, true, buf);
                    }
                }
            }
            Op::Pair { off, len } => {
                self.pair(off, len, None, buf);
            }
        }
    }
}

#[derive(Clone, Copy)]
pub enum Until {
    Rounds(u32),
    Seconds(f64),
}

/// p50 and p99 of one round's samples, with the sample count.
#[derive(Clone, Copy, Debug)]
pub struct Pcts {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub n: usize,
}

/// A round needs this many samples of a kind to report its percentiles:
/// p99 then has at least ten samples beyond it.
const MIN_ROUND_SAMPLES: usize = 1000;

fn pcts(samples: &mut [u32]) -> Option<Pcts> {
    if samples.len() < MIN_ROUND_SAMPLES {
        return None;
    }
    samples.sort_unstable();
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize] as f64;
    Some(Pcts {
        p50_ns: at(0.50),
        p99_ns: at(0.99),
        n: samples.len(),
    })
}

pub struct Round {
    pub wall_s: f64,
    pub ops: u64,
    pub read: Option<Pcts>,
    pub cd: Option<Pcts>,
}

/// Runs rounds of `steps` generator steps per client until `until`.
///
/// Each round runs on freshly spawned client threads released together
/// by a barrier.  Two threads contending for the server's mutexes settle
/// into a pattern that holds for as long as they live and differs by
/// ±10 % from one pair of threads to the next; respawning makes every
/// round an independent draw of that pattern, so the median over rounds
/// converges instead of inheriting one draw for the whole run.
pub fn run_rounds<E: Entry + Send>(
    drivers: &mut [Driver<'_, E>],
    steps: u32,
    until: Until,
    tail: bool,
) -> Vec<Round> {
    let began = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let barrier = Barrier::new(drivers.len());
        // Per client: when its round started and ended, and what it saw.
        let bufs: Vec<(Instant, Instant, RoundBuf)> = std::thread::scope(|s| {
            let handles: Vec<_> = drivers
                .iter_mut()
                .map(|d| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut buf = RoundBuf {
                            ops: 0,
                            read_ns: Vec::with_capacity(steps as usize + 1),
                            cd_ns: Vec::with_capacity(steps as usize + 1),
                        };
                        barrier.wait();
                        let start = Instant::now();
                        for _ in 0..steps {
                            let op = if tail {
                                d.gen.next_pair()
                            } else {
                                d.gen.next_op()
                            };
                            d.step(op, &mut buf);
                        }
                        (start, Instant::now(), buf)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread ran to completion"))
                .collect()
        });
        let start = bufs.iter().map(|b| b.0).min().expect("a client");
        let end = bufs.iter().map(|b| b.1).max().expect("a client");
        let pool = |pick: fn(&RoundBuf) -> &Vec<u32>| -> Vec<u32> {
            bufs.iter()
                .flat_map(|b| pick(&b.2).iter().copied())
                .collect()
        };
        rounds.push(Round {
            wall_s: (end - start).as_secs_f64(),
            ops: bufs.iter().map(|b| b.2.ops).sum(),
            read: pcts(&mut pool(|b| &b.read_ns)),
            cd: pcts(&mut pool(|b| &b.cd_ns)),
        });
        let done = match until {
            Until::Rounds(n) => rounds.len() as u32 >= n,
            Until::Seconds(s) => began.elapsed().as_secs_f64() >= s,
        };
        if done {
            return rounds;
        }
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// What one segment of a run measured: one set-up, one main phase, one
/// tail.
pub struct Segment {
    pub setup_s: f64,
    pub main: Vec<Round>,
    /// Create+delete rounds run after the main phase on the workloads
    /// whose main phase is reads only; empty elsewhere.
    pub tail: Vec<Round>,
    /// Virtual time the main phase advanced the clock by, in ns.
    pub sim_ns: u64,
    pub tally: Tally,
}

/// Steps per client in one round of the create+delete tail.
fn tail_steps(spec: &Spec) -> u32 {
    2048 / spec.clients as u32
}

/// Share of a segment's measured time the main phase gets on the
/// workloads that need a create+delete tail.
const MAIN_SHARE: f64 = 0.85;

/// Runs the workload's main phase, then — on the workloads whose main
/// phase is reads only — a tail of create+delete pairs against the state
/// the reads left, so the paper's two Fig. 2 units are measured on every
/// workload.  Throughput and virtual time are the main phase's alone;
/// `after_main` runs between the two, for callers that count what the
/// main phase did.  The traced segments run without a tail: their
/// create and delete times come from a probe.
pub fn segment<E: Entry + Send>(
    ready: &Ready,
    drivers: &mut [Driver<'_, E>],
    spec: &Spec,
    until: Until,
    with_tail: bool,
    after_main: impl FnOnce(),
) -> Segment {
    let needs_tail = with_tail && matches!(spec.kind, Kind::HotRead | Kind::ColdScan);
    let (main_until, tail_until) = match until {
        Until::Seconds(s) if needs_tail => (
            Until::Seconds(s * MAIN_SHARE),
            Until::Seconds(s * (1.0 - MAIN_SHARE)),
        ),
        other => (other, other),
    };
    let clock = &ready.stack.clock;
    let sim0 = clock.now();
    let main = run_rounds(drivers, spec.round_steps, main_until, false);
    let sim_ns = (clock.now() - sim0).as_ns();
    after_main();
    let tail = if needs_tail {
        run_rounds(drivers, tail_steps(spec), tail_until, true)
    } else {
        Vec::new()
    };
    let mut tally = Tally::default();
    for d in drivers.iter() {
        tally.add(&d.tally);
    }
    Segment {
        setup_s: ready.setup_s,
        main,
        tail,
        sim_ns,
        tally,
    }
}

/// The median over rounds of a per-round percentile, in µs, and the
/// samples behind it.
fn over_rounds<'a>(
    rounds: impl Iterator<Item = &'a Round>,
    pick: impl Fn(&Round) -> Option<Pcts>,
) -> (f64, f64, usize) {
    let got: Vec<Pcts> = rounds.filter_map(pick).collect();
    let mut p50: Vec<f64> = got.iter().map(|p| p.p50_ns / 1e3).collect();
    let mut p99: Vec<f64> = got.iter().map(|p| p.p99_ns / 1e3).collect();
    (
        median(&mut p50),
        median(&mut p99),
        got.iter().map(|p| p.n).sum(),
    )
}

/// A run's end-to-end numbers: medians over the rounds of all segments.
pub struct EndToEnd {
    pub ops_per_s: f64,
    pub read_p50_us: f64,
    pub read_p99_us: f64,
    pub cd_p50_us: f64,
    pub cd_p99_us: f64,
    pub sim_ms_per_op: f64,
    pub sim_ns: u64,
    pub setup_s: f64,
    pub rounds: usize,
    pub ops: u64,
    pub wall_s: f64,
    pub read_samples: usize,
    pub cd_samples: usize,
    pub tally: Tally,
}

pub fn summarise(segments: &[Segment]) -> EndToEnd {
    let main = || segments.iter().flat_map(|s| s.main.iter());
    let ops: u64 = main().map(|r| r.ops).sum();
    let sim_ns: u64 = segments.iter().map(|s| s.sim_ns).sum();
    let mut rates: Vec<f64> = main().map(|r| r.ops as f64 / r.wall_s).collect();
    let (read_p50_us, read_p99_us, read_samples) = over_rounds(main(), |r| r.read);
    // Pairs are timed in the main phase where it has them, in the tail
    // where it does not; never both.
    let all = segments.iter().flat_map(|s| s.main.iter().chain(&s.tail));
    let (cd_p50_us, cd_p99_us, cd_samples) = over_rounds(all, |r| r.cd);
    let mut setups: Vec<f64> = segments.iter().map(|s| s.setup_s).collect();
    let mut tally = Tally::default();
    for s in segments {
        tally.add(&s.tally);
    }
    EndToEnd {
        ops_per_s: median(&mut rates),
        read_p50_us,
        read_p99_us,
        cd_p50_us,
        cd_p99_us,
        sim_ms_per_op: sim_ns as f64 / 1e6 / ops as f64,
        sim_ns,
        setup_s: median(&mut setups),
        rounds: rates.len(),
        ops,
        wall_s: main().map(|r| r.wall_s).sum(),
        read_samples,
        cd_samples,
        tally,
    }
}
