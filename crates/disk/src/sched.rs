//! Seek-aware per-disk I/O scheduling.
//!
//! The Bullet paper's bet is that contiguity turns disk time into transfer
//! time instead of seek time (§3).  [`crate::SimDisk`] already charges
//! position-dependent seeks, but a server that issues every I/O FIFO, one
//! at a time, still lets the simulated arm ping-pong between extents under
//! multi-client load.  This module adds the classic remedy: a per-disk
//! request queue ordered by an arm-scheduling policy, with adjacent
//! requests coalesced into single larger transfers.
//!
//! Two consumers share one deterministic decision core (the private
//! `choose` function):
//!
//! * [`SchedDisk`] — a [`BlockDevice`] wrapper for the real server stack.
//!   Callers block until the scheduler grants them the arm; the grant
//!   order under concurrency follows the configured policy, and a request
//!   that continues exactly where the previous one ended (and was already
//!   queued when it ended) is charged *transfer time only* — one merged
//!   physical I/O split across callers.  With a single outstanding
//!   request it charges exactly what [`crate::SimDisk`] would, so
//!   single-client benchmarks are bit-identical under either wrapper.
//! * [`ArmSim`] — a single-threaded virtual-time queueing simulation for
//!   the ABL14 ablation: requests carry explicit arrival times, services
//!   are picked by the same policy code, and the whole run is a pure
//!   function of the submission sequence — byte-identical on replay.
//!
//! # Policies
//!
//! * [`SchedPolicy::Fifo`] — arrival order (the pre-scheduler behaviour).
//! * [`SchedPolicy::Scan`] — the elevator: serve requests in block order
//!   along the current sweep direction, reversing at the last request.
//! * [`SchedPolicy::Sptf`] — shortest positioning time first: always the
//!   request nearest the head.  Starvation-prone, hence the deadline.
//!
//! Every policy is bounded by *deadline aging*: a request queued longer
//! than [`SchedConfig::deadline`] preempts the policy's pick (oldest
//! expired first), so SPTF's tail latency stays within sight of FIFO's.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard, PoisonError};

use parking_lot::RwLock;

use amoeba_sim::{AttrValue, DiskProfile, Nanos, SimClock, Stats, Telemetry, Tracer};

use crate::{BlockDevice, DiskError};

/// Queue ordering policy for the disk arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Arrival order — no reordering (the baseline the ablation beats).
    Fifo,
    /// The elevator: sweep the arm across the disk, serving requests in
    /// block order, reversing direction at the end of each sweep.
    Scan,
    /// Shortest positioning time first: the request nearest the current
    /// head position, whatever its age (bounded by the deadline).
    Sptf,
}

impl SchedPolicy {
    /// Stable lowercase label for tables and trace attributes.
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::Scan => "scan",
            SchedPolicy::Sptf => "sptf",
        }
    }
}

/// Scheduler configuration shared by [`SchedDisk`] and [`ArmSim`].
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// The arm-ordering policy.
    pub policy: SchedPolicy,
    /// Merge a queued request that starts exactly where the chosen one
    /// ends into the same physical I/O (charged transfer time only).
    pub coalesce: bool,
    /// Deadline-aging bound: a request queued this long preempts the
    /// policy pick.  [`Nanos::ZERO`] disables aging.
    pub deadline: Nanos,
}

impl Default for SchedConfig {
    /// SCAN with coalescing and a 200 ms aging bound — the configuration
    /// the benchmark rigs run.
    fn default() -> SchedConfig {
        SchedConfig {
            policy: SchedPolicy::Scan,
            coalesce: true,
            deadline: Nanos::from_ms(200),
        }
    }
}

impl SchedConfig {
    /// FIFO with no coalescing and no aging: byte-identical to running
    /// without a scheduler at any queue depth.
    pub fn fifo() -> SchedConfig {
        SchedConfig {
            policy: SchedPolicy::Fifo,
            coalesce: false,
            deadline: Nanos::ZERO,
        }
    }
}

/// Whether a queued request reads or writes (coalescing never merges
/// across kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A block read.
    Read,
    /// A block write.
    Write,
}

impl ReqKind {
    fn label(self) -> &'static str {
        match self {
            ReqKind::Read => "read",
            ReqKind::Write => "write",
        }
    }
}

/// One queued request, as the chooser sees it.
#[derive(Debug, Clone, Copy)]
pub struct QueuedReq {
    /// Submission-order id (the FIFO key and every tie-break).
    pub id: u64,
    /// Read or write.
    pub kind: ReqKind,
    /// First block of the transfer.
    pub first_block: u64,
    /// Transfer length in blocks.
    pub blocks: u64,
    /// Simulated time the request entered the queue.
    pub arrival: Nanos,
}

/// The chooser's verdict: which pending request the arm serves next.
#[derive(Debug, Clone, Copy)]
struct Choice {
    /// Index into the pending slice.
    index: usize,
    /// True when deadline aging overrode the policy's pick.
    promoted: bool,
    /// The sweep direction after this pick (SCAN state).
    sweep_up: bool,
}

/// The policy pick alone, ignoring deadlines.  Ties break on the lowest
/// id, so the result is a pure function of the queue contents.
fn policy_pick(
    pending: &[QueuedReq],
    head: u64,
    sweep_up: bool,
    policy: SchedPolicy,
) -> (usize, bool) {
    debug_assert!(!pending.is_empty());
    let nearest = |dir_ok: &dyn Fn(&QueuedReq) -> bool| {
        pending
            .iter()
            .enumerate()
            .filter(|(_, r)| dir_ok(r))
            .min_by_key(|(_, r)| (r.first_block.abs_diff(head), r.id))
            .map(|(i, _)| i)
    };
    match policy {
        SchedPolicy::Fifo => {
            let i = pending
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.id)
                .map(|(i, _)| i)
                .expect("pending is non-empty");
            (i, sweep_up)
        }
        SchedPolicy::Sptf => (nearest(&|_| true).expect("pending is non-empty"), sweep_up),
        SchedPolicy::Scan => {
            let ahead = if sweep_up {
                nearest(&|r: &QueuedReq| r.first_block >= head)
            } else {
                nearest(&|r: &QueuedReq| r.first_block <= head)
            };
            match ahead {
                Some(i) => (i, sweep_up),
                // Nothing left along this sweep: reverse.
                None => (nearest(&|_| true).expect("pending is non-empty"), !sweep_up),
            }
        }
    }
}

/// Picks the next request to serve: the policy's choice, unless some
/// request's deadline has expired — then the oldest expired request wins
/// (promoted), bounding starvation under SPTF and SCAN.
fn choose(
    pending: &[QueuedReq],
    head: u64,
    sweep_up: bool,
    now: Nanos,
    cfg: &SchedConfig,
) -> Choice {
    let (pick, sweep) = policy_pick(pending, head, sweep_up, cfg.policy);
    if cfg.deadline > Nanos::ZERO {
        let expired = pending
            .iter()
            .enumerate()
            .filter(|(_, r)| r.arrival + cfg.deadline <= now)
            .min_by_key(|(_, r)| (r.arrival, r.id))
            .map(|(i, _)| i);
        if let Some(i) = expired {
            if i != pick {
                // The arm detours for the aged request; the sweep
                // direction resumes unchanged afterwards.
                return Choice {
                    index: i,
                    promoted: true,
                    sweep_up,
                };
            }
        }
    }
    Choice {
        index: pick,
        promoted: false,
        sweep_up: sweep,
    }
}

// ---------------------------------------------------------------------
// Virtual-time queueing simulation (the ABL14 engine).
// ---------------------------------------------------------------------

/// One physical I/O the virtual-time simulation performed: the chosen
/// request plus every queued request coalesced into the same transfer.
#[derive(Debug, Clone)]
pub struct Service {
    /// Ids served, primary first, coalesced followers after.
    pub ids: Vec<u64>,
    /// Read or write.
    pub kind: ReqKind,
    /// First block of the merged transfer.
    pub first_block: u64,
    /// Total merged length in blocks.
    pub blocks: u64,
    /// Service start (arm begins positioning).
    pub start: Nanos,
    /// Service completion.
    pub end: Nanos,
    /// Blocks the arm travelled to reach `first_block`.
    pub seek_blocks: u64,
    /// True when deadline aging picked this request over the policy.
    pub promoted: bool,
}

/// Aggregate counters of an [`ArmSim`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArmStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Physical I/Os issued (after coalescing).
    pub issued: u64,
    /// Requests absorbed into a neighbour's transfer.
    pub coalesced: u64,
    /// Total blocks of arm travel.
    pub seek_blocks: u64,
    /// Deadline promotions.
    pub promotions: u64,
    /// Highest queue depth observed at submission.
    pub depth_max: u64,
}

/// A deterministic virtual-time disk-arm simulation: submissions carry
/// explicit arrival times, [`service_one`](ArmSim::service_one) picks and
/// completes one physical I/O per call, and the entire trajectory is a
/// pure function of the submission sequence — replaying the same
/// submissions yields a byte-identical service log.
#[derive(Debug, Clone)]
pub struct ArmSim {
    cfg: SchedConfig,
    profile: DiskProfile,
    block_size: u32,
    total_blocks: u64,
    now: Nanos,
    head: u64,
    sweep_up: bool,
    next_id: u64,
    pending: Vec<QueuedReq>,
    stats: ArmStats,
}

impl ArmSim {
    /// A simulation over a disk of `total_blocks` sectors of `block_size`
    /// bytes, idle with the head parked at block 0.
    pub fn new(
        cfg: SchedConfig,
        profile: DiskProfile,
        block_size: u32,
        total_blocks: u64,
    ) -> ArmSim {
        ArmSim {
            cfg,
            profile,
            block_size,
            total_blocks,
            now: Nanos::ZERO,
            head: 0,
            sweep_up: true,
            next_id: 0,
            pending: Vec::new(),
            stats: ArmStats::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances virtual time while the device is idle (the driver jumps
    /// to the next client arrival).  Never moves time backwards.
    pub fn idle_until(&mut self, t: Nanos) {
        self.now = self.now.max(t);
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// Current head position in blocks.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Run counters so far.
    pub fn stats(&self) -> ArmStats {
        self.stats
    }

    /// Queues a request arriving at `arrival`; returns its id.
    pub fn submit(&mut self, kind: ReqKind, first_block: u64, blocks: u64, arrival: Nanos) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push(QueuedReq {
            id,
            kind,
            first_block,
            blocks,
            arrival,
        });
        self.stats.submitted += 1;
        self.stats.depth_max = self.stats.depth_max.max(self.pending.len() as u64);
        id
    }

    /// Serves one physical I/O: picks among the requests that have
    /// arrived by the service start, merges adjacent same-kind queued
    /// requests when coalescing is on, charges seek + rotation + transfer
    /// on the virtual clock, and advances the head.  Returns `None` when
    /// the queue is empty.
    pub fn service_one(&mut self) -> Option<Service> {
        let min_arrival = self.pending.iter().map(|r| r.arrival).min()?;
        let start = self.now.max(min_arrival);
        let eligible: Vec<QueuedReq> = self
            .pending
            .iter()
            .copied()
            .filter(|r| r.arrival <= start)
            .collect();
        let c = choose(&eligible, self.head, self.sweep_up, start, &self.cfg);
        self.sweep_up = c.sweep_up;
        let primary = eligible[c.index];
        let pos = self
            .pending
            .iter()
            .position(|r| r.id == primary.id)
            .expect("eligible requests are pending");
        self.pending.remove(pos);

        let mut ids = vec![primary.id];
        let mut first = primary.first_block;
        let mut blocks = primary.blocks;
        if self.cfg.coalesce {
            // Chain every eligible request touching either end of the
            // merged range (front and back merges, like a real elevator's
            // request merging): one arm positioning, one rotation, one
            // long transfer starting at the lowest block.
            loop {
                let neighbour = self.pending.iter().position(|r| {
                    r.arrival <= start
                        && r.kind == primary.kind
                        && (r.first_block == first + blocks || r.first_block + r.blocks == first)
                });
                match neighbour {
                    Some(i) => {
                        let r = self.pending.remove(i);
                        ids.push(r.id);
                        first = first.min(r.first_block);
                        blocks += r.blocks;
                    }
                    None => break,
                }
            }
        }

        let seek_blocks = self.head.abs_diff(first);
        let bytes = blocks * self.block_size as u64;
        let t = self
            .profile
            .io_time(self.head, first, self.total_blocks, bytes);
        let end = start + t;
        self.head = first + blocks;
        self.now = end;
        self.stats.issued += 1;
        self.stats.coalesced += ids.len() as u64 - 1;
        self.stats.seek_blocks += seek_blocks;
        self.stats.promotions += u64::from(c.promoted);
        Some(Service {
            ids,
            kind: primary.kind,
            first_block: first,
            blocks,
            start,
            end,
            seek_blocks,
            promoted: c.promoted,
        })
    }
}

// ---------------------------------------------------------------------
// The real-stack wrapper.
// ---------------------------------------------------------------------

/// The grant recorded for the current free-arm period: which pending
/// request owns the arm next, plus the choice metadata it needs when it
/// claims.  Computed once per period and held stable until claimed —
/// `choose` consults the shared clock for deadline aging, so
/// re-evaluating it on every wakeup could flip the pick between two
/// waiters (each seeing the other as chosen) and park them both with
/// the arm free and nobody left to notify.
#[derive(Debug, Clone, Copy)]
struct Grant {
    id: u64,
    promoted: bool,
    sweep_up: bool,
}

/// Scheduler state shared by every thread queued on one device.
struct SchedState {
    next_id: u64,
    pending: Vec<QueuedReq>,
    /// The background lane: requests here are only granted the arm when
    /// `pending` is empty, oldest first.  Maintenance streams (archive
    /// demotion, resync) queue here so they never starve foreground
    /// grants; a background request can still be *continued* by
    /// foreground traffic that lands adjacent to where it parked the arm.
    low_pending: Vec<QueuedReq>,
    /// True while some granted request is between grant and completion.
    busy: bool,
    /// The stable pick for the current free-arm period; `None` until the
    /// first waiter evaluates `choose` after the arm frees.
    grant: Option<Grant>,
    head: u64,
    sweep_up: bool,
    /// Kind and end block of the last completed service — the coalescing
    /// anchor.
    last_end: Option<(ReqKind, u64)>,
    /// Ids that were already queued when the last service completed:
    /// only those may continue it as a merged transfer (a request that
    /// arrives later missed the arm and pays the full positioning cost,
    /// exactly as [`crate::SimDisk`] charges it).
    continuations: HashSet<u64>,
}

/// A [`BlockDevice`] wrapper that queues concurrent requests and grants
/// the arm in policy order, charging seek/rotation/transfer time to the
/// simulated clock like [`crate::SimDisk`] — see the module docs.
///
/// With at most one request outstanding the charge sequence is
/// *identical* to `SimDisk`'s, so existing single-client benchmarks keep
/// their numbers bit-for-bit.  Reordering, deadline promotion, and
/// coalescing only engage when requests actually overlap.
///
/// # Example
///
/// ```
/// use amoeba_disk::{BlockDevice, RamDisk, SchedConfig, SchedDisk};
/// use amoeba_sim::{DiskProfile, SimClock};
///
/// let clock = SimClock::new();
/// let disk = SchedDisk::new(
///     RamDisk::new(512, 1000),
///     clock.clone(),
///     DiskProfile::scsi_1989(),
///     SchedConfig::default(),
/// );
/// disk.write_blocks(0, &[0u8; 512])?;
/// assert!(clock.now().as_ms_f64() > 1.0); // the write cost simulated time
/// # Ok::<(), amoeba_disk::DiskError>(())
/// ```
pub struct SchedDisk<D> {
    inner: D,
    clock: SimClock,
    profile: DiskProfile,
    cfg: SchedConfig,
    state: StdMutex<SchedState>,
    cv: Condvar,
    stats: Stats,
    tracer: RwLock<Tracer>,
    /// Flight-recorder handle plus this disk's series instance id.
    telemetry: RwLock<(Telemetry, u32)>,
    /// Next simulated nanosecond this disk samples its gauges (per-disk,
    /// so every disk keeps its own cadence off the shared recorder).
    telemetry_due: AtomicU64,
}

impl<D: BlockDevice> SchedDisk<D> {
    /// Wraps `inner`, charging time to `clock` per `profile`, granting
    /// the arm per `cfg`.
    pub fn new(inner: D, clock: SimClock, profile: DiskProfile, cfg: SchedConfig) -> SchedDisk<D> {
        SchedDisk {
            inner,
            clock,
            profile,
            cfg,
            state: StdMutex::new(SchedState {
                next_id: 0,
                pending: Vec::new(),
                low_pending: Vec::new(),
                busy: false,
                grant: None,
                head: 0,
                sweep_up: true,
                last_end: None,
                continuations: HashSet::new(),
            }),
            cv: Condvar::new(),
            stats: Stats::new(),
            tracer: RwLock::new(Tracer::off()),
            telemetry: RwLock::new((Telemetry::off(), 0)),
            telemetry_due: AtomicU64::new(0),
        }
    }

    /// Per-device statistics: the [`crate::SimDisk`] set (`disk_reads`,
    /// `disk_writes`, `disk_bytes_read`, `disk_bytes_written`,
    /// `disk_seek_blocks`) plus the scheduler's own
    /// (`disk_queue_depth_max`, `disk_coalesced_ios`,
    /// `sched_deadline_promotions`).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The scheduler configuration in force.
    pub fn config(&self) -> SchedConfig {
        self.cfg
    }

    /// Requests currently queued (granted-but-incomplete excluded).
    pub fn queue_len(&self) -> usize {
        self.lock_state().pending.len()
    }

    /// Background-lane requests currently queued.
    pub fn low_queue_len(&self) -> usize {
        self.lock_state().low_pending.len()
    }

    /// Installs the span tracer recording per-grant `disk.sched`
    /// instants (queue depth, wait, promotion, coalescing).
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.write() = tracer;
    }

    /// Installs the flight recorder: once per sampling period (checked at
    /// request submission) the disk records its queue depth and arm
    /// position as `disk_queue_depth[instance]` / `disk_arm_block[instance]`
    /// gauge series.  Sampling never advances the simulated clock, so the
    /// scheduled timeline is bit-identical with telemetry on or off.
    pub fn set_telemetry(&self, telemetry: Telemetry, instance: u32) {
        *self.telemetry.write() = (telemetry, instance);
        self.telemetry_due.store(0, AtomicOrdering::Relaxed);
    }

    /// Samples the queue-depth and arm-position gauges if this disk's
    /// sampling period has elapsed.  Called at submission with the state
    /// lock held (depth and head are consistent); the recorder lock nests
    /// strictly inside the scheduler lock and is a leaf.
    fn sample_gauges(&self, now: Nanos, depth: u64, head: u64) {
        let (telemetry, instance) = &*self.telemetry.read();
        if !telemetry.enabled() {
            return;
        }
        let due = self.telemetry_due.load(AtomicOrdering::Relaxed);
        if now.as_ns() < due {
            return;
        }
        self.telemetry_due.store(
            now.as_ns().saturating_add(telemetry.period().as_ns()),
            AtomicOrdering::Relaxed,
        );
        telemetry.gauge("disk_queue_depth", *instance, now, depth);
        telemetry.gauge("disk_arm_block", *instance, now, head);
    }

    fn lock_state(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues one request, waits for the grant, runs `io`, charges the
    /// simulated time, and completes — the whole scheduled life of one
    /// I/O.  `io` runs outside the scheduler lock but strictly serialized
    /// with every other granted request (the device has one arm).
    fn run_io(
        &self,
        kind: ReqKind,
        first_block: u64,
        len: u64,
        low: bool,
        io: impl FnOnce() -> Result<(), DiskError>,
    ) -> Result<(), DiskError> {
        let blocks = len.div_ceil(self.inner.block_size() as u64);
        let arrival = self.clock.now();
        // Submission and the claim are one critical section, so a thread
        // leaves the lock with its request queued only by parking on the
        // condvar: at an idle arm with nothing queued the grant step picks
        // the lone request at once, and only a request that loses waits.
        // The first thread to find the arm free with no grant on record
        // evaluates `choose` once and publishes the pick ([`Grant`]); every
        // later check in the same period reads that record instead of
        // re-choosing, so the clock-dependent deadline verdict cannot flip
        // the pick between waiters.  A grant recorded for another request
        // is followed by a notify_all, since that request's thread is
        // parked.
        let (head_at_grant, promoted, continuation, depth) = {
            let mut st = self.lock_state();
            let id = st.next_id;
            st.next_id += 1;
            let req = QueuedReq {
                id,
                kind,
                first_block,
                blocks,
                arrival,
            };
            if low {
                st.low_pending.push(req);
                self.stats.incr("sched_low_queued");
            } else {
                st.pending.push(req);
                self.stats
                    .set_max("disk_queue_depth_max", st.pending.len() as u64);
            }
            self.sample_gauges(
                arrival,
                (st.pending.len() + st.low_pending.len()) as u64,
                st.head,
            );
            loop {
                if !st.busy {
                    let g = match st.grant {
                        Some(g) => g,
                        None => {
                            let g = if st.pending.is_empty() {
                                // Foreground lane drained: the arm is
                                // free for background traffic, oldest
                                // request first (the evaluator's own
                                // request guarantees the lane is
                                // non-empty here).
                                let r = st
                                    .low_pending
                                    .iter()
                                    .min_by_key(|r| r.id)
                                    .expect("some waiter queued a request");
                                Grant {
                                    id: r.id,
                                    promoted: false,
                                    sweep_up: st.sweep_up,
                                }
                            } else {
                                let c = choose(
                                    &st.pending,
                                    st.head,
                                    st.sweep_up,
                                    self.clock.now(),
                                    &self.cfg,
                                );
                                Grant {
                                    id: st.pending[c.index].id,
                                    promoted: c.promoted,
                                    sweep_up: c.sweep_up,
                                }
                            };
                            st.grant = Some(g);
                            if g.id != id {
                                // The chosen thread is parked; wake it to
                                // claim the arm.
                                self.cv.notify_all();
                            }
                            g
                        }
                    };
                    if g.id == id {
                        st.grant = None;
                        st.sweep_up = g.sweep_up;
                        st.busy = true;
                        let depth = st.pending.len() + st.low_pending.len();
                        if let Some(index) = st.pending.iter().position(|r| r.id == id) {
                            st.pending.remove(index);
                        } else {
                            let index = st
                                .low_pending
                                .iter()
                                .position(|r| r.id == id)
                                .expect("a granted id is pending");
                            st.low_pending.remove(index);
                        }
                        let continuation = self.cfg.coalesce
                            && st.continuations.contains(&id)
                            && st.last_end == Some((kind, first_block));
                        break (st.head, g.promoted, continuation, depth);
                    }
                }
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        if promoted {
            self.stats.incr("sched_deadline_promotions");
        }
        let tracer = self.tracer.read();
        if tracer.enabled() {
            // Only a recorded instant pays for summing the clock's lanes.
            tracer.instant(
                "disk.sched",
                &[
                    ("kind", AttrValue::Str(kind.label())),
                    ("policy", AttrValue::Str(self.cfg.policy.label())),
                    ("queue", AttrValue::U64(depth as u64)),
                    (
                        "wait_us",
                        AttrValue::U64(self.clock.now().saturating_sub(arrival).as_us()),
                    ),
                    ("promoted", AttrValue::Bool(promoted)),
                    ("coalesced", AttrValue::Bool(continuation)),
                ],
            );
        }
        drop(tracer);

        let result = io();
        match result {
            Ok(()) => {
                // A continuation picks up exactly where the arm stopped,
                // inside the same physical I/O: no controller setup, no
                // seek, no rotation — transfer time only.
                let t = if continuation {
                    self.stats.incr("disk_coalesced_ios");
                    Nanos::from_us_f64(len as f64 * self.profile.transfer_us_per_byte)
                } else {
                    self.stats
                        .add("disk_seek_blocks", head_at_grant.abs_diff(first_block));
                    self.profile
                        .io_time(head_at_grant, first_block, self.inner.num_blocks(), len)
                };
                self.clock.advance(t);
                let mut st = self.lock_state();
                st.head = first_block + blocks;
                st.last_end = Some((kind, st.head));
                st.continuations = st.pending.iter().map(|r| r.id).collect();
                self.release_arm(st);
                Ok(())
            }
            Err(e) => {
                // Failed I/O charges nothing and moves nothing — SimDisk
                // parity — but must still release the arm.
                self.release_arm(self.lock_state());
                Err(e)
            }
        }
    }

    /// Frees the arm and wakes the parked threads, if there are any.  A
    /// thread leaves the scheduler lock with its request queued only by
    /// parking (see `run_io`), so the two queues are exactly the parked
    /// threads; with both empty the `notify_all`, which makes a futex
    /// syscall even when nobody waits, is skipped.
    fn release_arm(&self, mut st: MutexGuard<'_, SchedState>) {
        st.busy = false;
        let parked = !st.pending.is_empty() || !st.low_pending.is_empty();
        drop(st);
        if parked {
            self.cv.notify_all();
        }
    }
}

impl<D: BlockDevice> BlockDevice for SchedDisk<D> {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        let len = buf.len() as u64;
        self.run_io(ReqKind::Read, first_block, len, false, || {
            self.inner.read_blocks(first_block, buf)
        })?;
        self.stats.incr("disk_reads");
        self.stats.add("disk_bytes_read", len);
        Ok(())
    }

    fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
        let len = data.len() as u64;
        self.run_io(ReqKind::Write, first_block, len, false, || {
            self.inner.write_blocks(first_block, data)
        })?;
        self.stats.incr("disk_writes");
        self.stats.add("disk_bytes_written", len);
        Ok(())
    }

    fn read_blocks_low(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        let len = buf.len() as u64;
        self.run_io(ReqKind::Read, first_block, len, true, || {
            self.inner.read_blocks(first_block, buf)
        })?;
        self.stats.incr("disk_reads");
        self.stats.add("disk_bytes_read", len);
        Ok(())
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.inner.sync()
    }
}

impl<D: BlockDevice> std::fmt::Debug for SchedDisk<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedDisk")
            .field("policy", &self.cfg.policy)
            .field("queue_len", &self.queue_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RamDisk, SimDisk};
    use std::sync::Arc;

    fn sim(cfg: SchedConfig) -> ArmSim {
        ArmSim::new(cfg, DiskProfile::scsi_1989(), 1024, 65_536)
    }

    fn drain(sim: &mut ArmSim) -> Vec<Service> {
        std::iter::from_fn(|| sim.service_one()).collect()
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut s = sim(SchedConfig::fifo());
        for &b in &[50_000, 100, 40_000] {
            s.submit(ReqKind::Read, b, 8, Nanos::ZERO);
        }
        let order: Vec<u64> = drain(&mut s).iter().map(|v| v.first_block).collect();
        assert_eq!(order, vec![50_000, 100, 40_000]);
    }

    #[test]
    fn scan_sweeps_in_block_order_and_reverses() {
        let mut s = sim(SchedConfig {
            policy: SchedPolicy::Scan,
            coalesce: false,
            deadline: Nanos::ZERO,
        });
        for &b in &[50_000, 100, 40_000, 9_000] {
            s.submit(ReqKind::Read, b, 8, Nanos::ZERO);
        }
        // Head at 0, sweeping up: 100, 9 000, 40 000, 50 000.
        let order: Vec<u64> = drain(&mut s).iter().map(|v| v.first_block).collect();
        assert_eq!(order, vec![100, 9_000, 40_000, 50_000]);

        // With the head mid-disk the sweep finishes upward, then reverses.
        let mut s = sim(SchedConfig {
            policy: SchedPolicy::Scan,
            coalesce: false,
            deadline: Nanos::ZERO,
        });
        s.submit(ReqKind::Read, 30_000, 8, Nanos::ZERO);
        assert!(s.service_one().is_some()); // park the head at 30 008
        for &b in &[100, 40_000, 20_000, 50_000] {
            s.submit(ReqKind::Read, b, 8, Nanos::ZERO);
        }
        let order: Vec<u64> = drain(&mut s).iter().map(|v| v.first_block).collect();
        assert_eq!(order, vec![40_000, 50_000, 20_000, 100]);
    }

    #[test]
    fn sptf_picks_the_nearest_request() {
        let mut s = sim(SchedConfig {
            policy: SchedPolicy::Sptf,
            coalesce: false,
            deadline: Nanos::ZERO,
        });
        s.submit(ReqKind::Read, 30_000, 8, Nanos::ZERO);
        assert!(s.service_one().is_some()); // head at 30 008
        for &b in &[100, 29_000, 33_000, 64_000] {
            s.submit(ReqKind::Read, b, 8, Nanos::ZERO);
        }
        let order: Vec<u64> = drain(&mut s).iter().map(|v| v.first_block).collect();
        // 29 000 is 1 008 away, 33 000 is 2 992; after serving 33 000 the
        // head sits at 33 008, from where 64 000 (30 992 away) beats
        // 100 (32 908 away).
        assert_eq!(order, vec![29_000, 33_000, 64_000, 100]);
    }

    #[test]
    fn scan_beats_fifo_on_seek_blocks_for_a_scattered_queue() {
        let scattered = [50_000u64, 100, 40_000, 9_000, 60_000, 500, 33_000, 4_000];
        let run = |policy| {
            let mut s = sim(SchedConfig {
                policy,
                coalesce: false,
                deadline: Nanos::ZERO,
            });
            for &b in &scattered {
                s.submit(ReqKind::Read, b, 8, Nanos::ZERO);
            }
            drain(&mut s);
            s.stats()
        };
        let fifo = run(SchedPolicy::Fifo);
        let scan = run(SchedPolicy::Scan);
        let sptf = run(SchedPolicy::Sptf);
        assert!(
            scan.seek_blocks < fifo.seek_blocks / 2,
            "scan {} vs fifo {}",
            scan.seek_blocks,
            fifo.seek_blocks
        );
        assert!(
            sptf.seek_blocks < fifo.seek_blocks / 2,
            "sptf {} vs fifo {}",
            sptf.seek_blocks,
            fifo.seek_blocks
        );
    }

    #[test]
    fn deadline_aging_promotes_a_starving_request() {
        // SPTF with a stream of near-head requests starves the far one
        // until its deadline expires.
        let mut s = sim(SchedConfig {
            policy: SchedPolicy::Sptf,
            coalesce: false,
            deadline: Nanos::from_ms(40),
        });
        let far = s.submit(ReqKind::Read, 60_000, 8, Nanos::ZERO);
        for i in 0..6u64 {
            s.submit(ReqKind::Read, i * 200, 8, Nanos::ZERO);
        }
        let services = drain(&mut s);
        let far_pos = services
            .iter()
            .position(|v| v.ids.contains(&far))
            .expect("the far request is served");
        assert!(
            services[far_pos].promoted,
            "the far request should be served via promotion"
        );
        assert!(
            far_pos < services.len() - 1,
            "promotion must beat strict SPTF order (far served at {far_pos})"
        );
        // At least the far request was promoted; once the backlog ages
        // past the deadline the remaining requests promote too.
        assert!(s.stats().promotions >= 1);

        // Without aging, SPTF leaves it for last.
        let mut s = sim(SchedConfig {
            policy: SchedPolicy::Sptf,
            coalesce: false,
            deadline: Nanos::ZERO,
        });
        let far = s.submit(ReqKind::Read, 60_000, 8, Nanos::ZERO);
        for i in 0..6u64 {
            s.submit(ReqKind::Read, i * 200, 8, Nanos::ZERO);
        }
        let services = drain(&mut s);
        assert!(services.last().unwrap().ids.contains(&far));
        assert_eq!(s.stats().promotions, 0);
    }

    #[test]
    fn adjacent_requests_coalesce_into_one_transfer() {
        let mut coalesced = sim(SchedConfig {
            policy: SchedPolicy::Scan,
            coalesce: true,
            deadline: Nanos::ZERO,
        });
        let mut split = sim(SchedConfig {
            policy: SchedPolicy::Scan,
            coalesce: false,
            deadline: Nanos::ZERO,
        });
        for s in [&mut coalesced, &mut split] {
            for i in 0..4u64 {
                s.submit(ReqKind::Write, 1_000 + i * 16, 16, Nanos::ZERO);
            }
        }
        let services = drain(&mut coalesced);
        assert_eq!(services.len(), 1, "four adjacent writes merge into one I/O");
        assert_eq!(services[0].blocks, 64);
        assert_eq!(coalesced.stats().issued, 1);
        assert_eq!(coalesced.stats().coalesced, 3);
        drain(&mut split);
        assert_eq!(split.stats().issued, 4);
        // Merging saves three controller setups and three rotations.
        assert!(
            coalesced.now() < split.now(),
            "coalesced {} vs split {}",
            coalesced.now(),
            split.now()
        );
        // Reads never merge into a write run.
        let mut s = sim(SchedConfig {
            policy: SchedPolicy::Scan,
            coalesce: true,
            deadline: Nanos::ZERO,
        });
        s.submit(ReqKind::Write, 1_000, 16, Nanos::ZERO);
        s.submit(ReqKind::Read, 1_016, 16, Nanos::ZERO);
        assert_eq!(drain(&mut s).len(), 2);
    }

    #[test]
    fn armsim_replay_is_byte_identical() {
        let run = || {
            let mut s = sim(SchedConfig::default());
            for i in 0..32u64 {
                s.submit(
                    ReqKind::Read,
                    (i * 7_919) % 60_000,
                    8,
                    Nanos::from_ms(i / 4),
                );
            }
            format!("{:?} {:?}", drain(&mut s), s.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn late_arrivals_wait_for_the_service_in_progress() {
        let mut s = sim(SchedConfig::default());
        s.submit(ReqKind::Read, 100, 8, Nanos::ZERO);
        let first = s.service_one().unwrap();
        // Arrives mid-service of nothing — queue empty, device idle at
        // `first.end`; the service starts at its arrival, not earlier.
        let late = first.end + Nanos::from_ms(5);
        s.submit(ReqKind::Read, 200, 8, late);
        let second = s.service_one().unwrap();
        assert_eq!(second.start, late);
    }

    // ---------------- SchedDisk (real-stack wrapper) ----------------

    #[test]
    fn depth_one_charges_match_simdisk_exactly() {
        let pattern: &[(u64, usize)] = &[(500, 1024), (501, 2048), (9_000, 1024), (0, 4096)];
        let run_sim = || {
            let c = SimClock::new();
            let d = SimDisk::new(
                RamDisk::new(1024, 10_000),
                c.clone(),
                DiskProfile::scsi_1989(),
            );
            for &(b, len) in pattern {
                d.write_blocks(b, &vec![7u8; len]).unwrap();
            }
            let mut buf = vec![0u8; 2048];
            d.read_blocks(500, &mut buf).unwrap();
            (c.now(), d.stats().get("disk_seek_blocks"))
        };
        let run_sched = |cfg: SchedConfig| {
            let c = SimClock::new();
            let d = SchedDisk::new(
                RamDisk::new(1024, 10_000),
                c.clone(),
                DiskProfile::scsi_1989(),
                cfg,
            );
            for &(b, len) in pattern {
                d.write_blocks(b, &vec![7u8; len]).unwrap();
            }
            let mut buf = vec![0u8; 2048];
            d.read_blocks(500, &mut buf).unwrap();
            (c.now(), d.stats().get("disk_seek_blocks"))
        };
        // Identical under every policy: with one outstanding request the
        // chooser has exactly one candidate and coalescing never engages.
        let baseline = run_sim();
        assert_eq!(run_sched(SchedConfig::default()), baseline);
        assert_eq!(run_sched(SchedConfig::fifo()), baseline);
        assert_eq!(
            run_sched(SchedConfig {
                policy: SchedPolicy::Sptf,
                ..SchedConfig::default()
            }),
            baseline
        );
    }

    #[test]
    fn failed_io_charges_nothing_and_releases_the_arm() {
        let c = SimClock::new();
        let d = SchedDisk::new(
            RamDisk::new(512, 100),
            c.clone(),
            DiskProfile::scsi_1989(),
            SchedConfig::default(),
        );
        assert!(d.write_blocks(99_999, &[0u8; 512]).is_err());
        assert_eq!(c.now(), Nanos::ZERO);
        // The arm is free again.
        d.write_blocks(0, &[0u8; 512]).unwrap();
        assert!(c.now() > Nanos::ZERO);
    }

    #[test]
    fn telemetry_samples_queue_depth_and_arm_position() {
        let c = SimClock::new();
        let d = SchedDisk::new(
            RamDisk::new(512, 65_536),
            c.clone(),
            DiskProfile::scsi_1989(),
            SchedConfig::default(),
        );
        let t = Telemetry::on(Nanos::from_ms(1), 64);
        d.set_telemetry(t.clone(), 3);
        for i in 0..4u64 {
            d.write_blocks(i * 1000, &[0u8; 512]).unwrap();
        }
        let depth = t.series("disk_queue_depth", 3);
        let arm = t.series("disk_arm_block", 3);
        assert!(!depth.is_empty(), "submission samples the queue gauge");
        assert_eq!(depth.len(), arm.len());
        // Sequential I/Os on an idle arm: depth 1 at each sampled submit,
        // and the arm gauge tracks where the previous write parked it.
        assert!(depth.iter().all(|s| s.value >= 1));
        assert!(arm.last().unwrap().value > 0);
        // Sampling respects the per-disk period: samples are spaced by at
        // least the sampling period.
        for w in depth.windows(2) {
            assert!(w[1].at.as_ns() - w[0].at.as_ns() >= Nanos::from_ms(1).as_ns());
        }
    }

    #[test]
    fn telemetry_off_is_inert_and_timing_identical() {
        let run = |telemetry: Option<Telemetry>| {
            let c = SimClock::new();
            let d = SchedDisk::new(
                RamDisk::new(512, 65_536),
                c.clone(),
                DiskProfile::scsi_1989(),
                SchedConfig::default(),
            );
            if let Some(t) = telemetry {
                d.set_telemetry(t, 0);
            }
            for i in 0..8u64 {
                d.write_blocks(i * 777, &[0u8; 512]).unwrap();
            }
            c.now()
        };
        let off = run(None);
        let on = run(Some(Telemetry::on(Nanos::from_us(10), 64)));
        assert_eq!(off, on, "sampling must never advance the clock");
    }

    /// A device that records the order I/Os actually reach the media and
    /// can hold the first I/O open until released, so a test can build a
    /// real queue behind a busy arm.
    struct GateDisk {
        inner: RamDisk,
        order: StdMutex<Vec<u64>>,
        held: StdMutex<bool>,
        released: Condvar,
    }

    impl GateDisk {
        fn new(inner: RamDisk) -> GateDisk {
            GateDisk {
                inner,
                order: StdMutex::new(Vec::new()),
                held: StdMutex::new(true),
                released: Condvar::new(),
            }
        }

        fn release(&self) {
            *self.held.lock().unwrap() = false;
            self.released.notify_all();
        }

        fn gate(&self, first_block: u64) {
            let mut order = self.order.lock().unwrap();
            let first_io = order.is_empty();
            order.push(first_block);
            drop(order);
            if first_io {
                let mut held = self.held.lock().unwrap();
                while *held {
                    held = self.released.wait(held).unwrap();
                }
            }
        }
    }

    impl BlockDevice for GateDisk {
        fn block_size(&self) -> u32 {
            self.inner.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
            self.gate(first_block);
            self.inner.read_blocks(first_block, buf)
        }
        fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
            self.gate(first_block);
            self.inner.write_blocks(first_block, data)
        }
        fn sync(&self) -> Result<(), DiskError> {
            self.inner.sync()
        }
    }

    #[test]
    fn concurrent_requests_are_granted_in_policy_order_with_coalescing() {
        let clock = SimClock::new();
        let disk = Arc::new(SchedDisk::new(
            GateDisk::new(RamDisk::new(1024, 65_536)),
            clock.clone(),
            DiskProfile::scsi_1989(),
            SchedConfig::default(), // SCAN + coalesce
        ));

        // First writer seizes the arm at block 5 000 and blocks on the
        // gate inside the media I/O.
        let d0 = disk.clone();
        let t0 = std::thread::spawn(move || d0.write_blocks(5_000, &vec![1u8; 8 << 10]).unwrap());
        while disk.inner().order.lock().unwrap().is_empty() {
            std::thread::yield_now();
        }

        // Three more writers queue behind it: one adjacent to where the
        // arm will stop (5 008), one far up (40 000), one far down (100).
        let mut workers = Vec::new();
        for b in [40_000u64, 100, 5_008] {
            let d = disk.clone();
            workers.push(std::thread::spawn(move || {
                d.write_blocks(b, &vec![2u8; 8 << 10]).unwrap();
            }));
            // Submission order is made deterministic by waiting for each
            // request to be queued before spawning the next.
            while disk.queue_len() < workers.len() {
                std::thread::yield_now();
            }
        }

        disk.inner().release();
        t0.join().unwrap();
        for w in workers {
            w.join().unwrap();
        }

        // SCAN from 5 008 sweeping up: 5 008 (a zero-seek continuation of
        // the first write), 40 000, then reverse down to 100.
        let order = disk.inner().order.lock().unwrap().clone();
        assert_eq!(order, vec![5_000, 5_008, 40_000, 100]);
        assert_eq!(disk.stats().get("disk_coalesced_ios"), 1);
        assert_eq!(disk.stats().get("disk_queue_depth_max"), 3);
        assert_eq!(disk.stats().get("disk_writes"), 4);
        // The continuation charged no seek: total arm travel is the first
        // positioning (5 000) + up to 40 000 + back down to 100.
        assert_eq!(
            disk.stats().get("disk_seek_blocks"),
            5_000 + (40_000 - 5_016) + (40_008 - 100)
        );
    }

    #[test]
    fn background_lane_yields_to_foreground() {
        let clock = SimClock::new();
        let disk = Arc::new(SchedDisk::new(
            GateDisk::new(RamDisk::new(1024, 65_536)),
            clock.clone(),
            DiskProfile::scsi_1989(),
            SchedConfig::default(),
        ));

        // Seize the arm at block 5 000; the gate holds the I/O open.
        let d0 = disk.clone();
        let t0 = std::thread::spawn(move || d0.write_blocks(5_000, &vec![1u8; 1024]).unwrap());
        while disk.inner().order.lock().unwrap().is_empty() {
            std::thread::yield_now();
        }

        // A background read lands *adjacent to where the arm will stop*
        // (zero seek — SPTF/SCAN would love it), then two foreground
        // writes far away queue behind it.
        let d1 = disk.clone();
        let bg = std::thread::spawn(move || {
            let mut buf = vec![0u8; 1024];
            d1.read_blocks_low(5_001, &mut buf).unwrap();
        });
        while disk.low_queue_len() < 1 {
            std::thread::yield_now();
        }
        let mut workers = Vec::new();
        for b in [40_000u64, 100] {
            let d = disk.clone();
            workers.push(std::thread::spawn(move || {
                d.write_blocks(b, &vec![2u8; 1024]).unwrap();
            }));
            while disk.queue_len() < workers.len() {
                std::thread::yield_now();
            }
        }

        disk.inner().release();
        t0.join().unwrap();
        bg.join().unwrap();
        for w in workers {
            w.join().unwrap();
        }

        // Both foreground writes beat the background read even though the
        // read was queued first and sits nearest the head.
        let order = disk.inner().order.lock().unwrap().clone();
        assert_eq!(order, vec![5_000, 40_000, 100, 5_001]);
        assert_eq!(disk.stats().get("sched_low_queued"), 1);
        assert_eq!(disk.queue_len(), 0);
        assert_eq!(disk.low_queue_len(), 0);
    }

    #[test]
    fn low_priority_read_matches_plain_read_when_idle() {
        // With nothing else queued the background lane charges exactly
        // what a foreground read would: same arm, same profile.
        let run = |low: bool| {
            let c = SimClock::new();
            let d = SchedDisk::new(
                RamDisk::new(1024, 10_000),
                c.clone(),
                DiskProfile::scsi_1989(),
                SchedConfig::default(),
            );
            d.write_blocks(500, &[7u8; 2048]).unwrap();
            let mut buf = [0u8; 2048];
            if low {
                d.read_blocks_low(500, &mut buf).unwrap();
            } else {
                d.read_blocks(500, &mut buf).unwrap();
            }
            (c.now(), d.stats().get("disk_reads"))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn concurrent_waiters_never_deadlock_under_deadline_flips() {
        // Regression: with a time-dependent deadline verdict and a grant
        // decision re-evaluated on every wakeup, two waiters could each
        // see the other as the pick and both park with the arm free —
        // permanently wedging the disk.  The recorded per-period grant
        // makes the pick stable; this hammers the window with a deadline
        // so short every completion flips some request into promotion.
        let clock = SimClock::new();
        let disk = Arc::new(SchedDisk::new(
            RamDisk::new(512, 65_536),
            clock.clone(),
            DiskProfile::scsi_1989(),
            SchedConfig {
                policy: SchedPolicy::Sptf,
                coalesce: true,
                deadline: Nanos::from_us(1),
            },
        ));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let d = disk.clone();
                std::thread::spawn(move || {
                    for i in 0..64u64 {
                        let b = (t * 8_191 + i * 1_021) % 65_000;
                        d.write_blocks(b, &[t as u8; 512]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(disk.stats().get("disk_writes"), 8 * 64);
        assert_eq!(disk.queue_len(), 0);
    }

    #[test]
    fn serial_stream_matches_armsim_for_every_policy() {
        // One request at a time, the threaded scheduler's grant is the
        // virtual-time engine's: same clock, same arm travel, and every
        // I/O starting from the same head.  The stream jumps behind the
        // head, so SCAN reverses its sweep.
        let stream: &[(ReqKind, u64, u64)] = &[
            (ReqKind::Write, 30_000, 8),
            (ReqKind::Read, 100, 4),
            (ReqKind::Write, 104, 16),
            (ReqKind::Read, 50_000, 2),
            (ReqKind::Write, 20_000, 8),
            (ReqKind::Read, 20_008, 8),
            (ReqKind::Write, 0, 1),
            (ReqKind::Read, 65_000, 32),
        ];
        for policy in [SchedPolicy::Fifo, SchedPolicy::Scan, SchedPolicy::Sptf] {
            let cfg = SchedConfig {
                policy,
                ..SchedConfig::default()
            };
            let clock = SimClock::new();
            let disk = SchedDisk::new(
                RamDisk::new(1024, 65_536),
                clock.clone(),
                DiskProfile::scsi_1989(),
                cfg,
            );
            // A 1 ns sampling period records the head at every submission.
            let heads = Telemetry::on(Nanos::from_ns(1), 64);
            disk.set_telemetry(heads.clone(), 0);
            let mut sim = ArmSim::new(cfg, DiskProfile::scsi_1989(), 1024, 65_536);
            let mut sim_heads = Vec::new();
            for &(kind, first, blocks) in stream {
                let mut buf = vec![0u8; blocks as usize * 1024];
                match kind {
                    ReqKind::Read => disk.read_blocks(first, &mut buf).unwrap(),
                    ReqKind::Write => disk.write_blocks(first, &buf).unwrap(),
                }
                sim_heads.push(sim.head());
                sim.submit(kind, first, blocks, sim.now());
                sim.service_one().unwrap();
            }
            let disk_heads: Vec<u64> = heads
                .series("disk_arm_block", 0)
                .iter()
                .map(|s| s.value)
                .collect();
            assert_eq!(clock.now(), sim.now(), "{policy:?}");
            assert_eq!(
                disk.stats().get("disk_seek_blocks"),
                sim.stats().seek_blocks,
                "{policy:?}"
            );
            assert_eq!(disk_heads, sim_heads, "{policy:?}");
        }
    }

    #[test]
    fn idle_grants_and_parked_waiters_never_lose_a_wakeup() {
        // Seeded think times leave the arm idle often enough for grants on
        // submission and busy often enough for parking, on both lanes, and
        // the deadline is short enough to flip grants into promotions.  A
        // lost wake-up parks a thread forever, so the test thread watches
        // the workers against a timeout instead of joining them blind.
        const THREADS: u64 = 8;
        const IOS: u64 = 500;
        let disk = Arc::new(SchedDisk::new(
            RamDisk::new(512, 65_536),
            SimClock::new(),
            DiskProfile::scsi_1989(),
            SchedConfig {
                deadline: Nanos::from_us(1),
                ..SchedConfig::default()
            },
        ));
        let (done, finished) = std::sync::mpsc::channel();
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (d, done) = (disk.clone(), done.clone());
                std::thread::spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ (t + 1);
                    let mut buf = [t as u8; 512];
                    for _ in 0..IOS {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let block = rng % 65_000;
                        if rng & 1 == 0 {
                            d.write_blocks(block, &buf).unwrap();
                        } else {
                            d.read_blocks_low(block, &mut buf).unwrap();
                        }
                        for _ in 0..(rng >> 40) % 2_000 {
                            std::hint::spin_loop();
                        }
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        drop(done);
        for left in (1..=THREADS).rev() {
            match finished.recv_timeout(std::time::Duration::from_secs(30)) {
                Ok(()) => {}
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    panic!("lost wake-up: {left} of {THREADS} threads still wait after 30 s")
                }
                // A worker panicked; its join below reports why.
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(disk.queue_len(), 0);
        assert_eq!(disk.low_queue_len(), 0);
        assert_eq!(
            disk.stats().get("disk_reads") + disk.stats().get("disk_writes"),
            THREADS * IOS
        );
    }
}
