//! The disk arm: seek-aware per-disk I/O scheduling and the drive's cost.
//!
//! The Bullet paper's bet is that contiguity turns disk time into transfer
//! time instead of seek time (§3).  This module models the arm of one
//! late-80s SCSI drive exactly once, in the private `Arm`: the request
//! queue, the head position and sweep direction, the policy pick over the
//! requests that have arrived, and the one charge — controller overhead, a
//! distance-dependent seek from the head, average rotation and transfer,
//! or transfer alone for a continuation.  A request queue ordered by an
//! arm-scheduling policy, with adjacent requests coalesced into single
//! larger transfers, keeps the arm from ping-ponging between extents under
//! multi-client load.
//!
//! Two front ends run that one arm:
//!
//! * [`SchedDisk`] — a [`BlockDevice`] wrapper for the real server stack.
//!   Callers block until the scheduler grants them the arm; the grant
//!   order under concurrency follows the configured policy, and a request
//!   that continues exactly where the previous one ended (and was already
//!   queued when it ended) is charged *transfer time only* — one merged
//!   physical I/O split across callers.  With a single outstanding
//!   request every policy charges the same: the drive model's time for
//!   that one I/O from where the head stopped.
//! * [`ArmSim`] — a single-threaded virtual-time queueing simulation for
//!   the ABL14 ablation: requests carry explicit arrival times, services
//!   are picked by the same arm, and the whole run is a pure function of
//!   the submission sequence — byte-identical on replay.
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
    /// FIFO with no coalescing and no aging: requests are served in
    /// submission order, each charged its full positioning cost.
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

/// One queued request, as the arm sees it.
#[derive(Debug, Clone, Copy)]
struct QueuedReq {
    /// Submission-order id (the FIFO key and every tie-break).
    id: u64,
    kind: ReqKind,
    first_block: u64,
    /// Transfer length in blocks.
    blocks: u64,
    /// Simulated time the request entered the queue.
    arrival: Nanos,
}

/// The arm's verdict: which queued request it serves next.
#[derive(Debug, Clone, Copy)]
struct Choice {
    id: u64,
    /// True when deadline aging overrode the policy's pick.
    promoted: bool,
    /// The sweep direction after this pick (SCAN state).
    sweep_up: bool,
}

/// The policy pick alone, ignoring deadlines, and the sweep direction
/// after it.  Ties break on the lowest id, so the result is a pure
/// function of the queue contents.
fn policy_pick<'a>(
    arrived: impl Iterator<Item = &'a QueuedReq> + Clone,
    head: u64,
    sweep_up: bool,
    policy: SchedPolicy,
) -> Option<(&'a QueuedReq, bool)> {
    let nearest = |dir_ok: &dyn Fn(&QueuedReq) -> bool| {
        arrived
            .clone()
            .filter(|r| dir_ok(r))
            .min_by_key(|r| (r.first_block.abs_diff(head), r.id))
    };
    match policy {
        SchedPolicy::Fifo => arrived.clone().min_by_key(|r| r.id).map(|r| (r, sweep_up)),
        SchedPolicy::Sptf => nearest(&|_| true).map(|r| (r, sweep_up)),
        SchedPolicy::Scan => {
            let ahead = if sweep_up {
                nearest(&|r: &QueuedReq| r.first_block >= head)
            } else {
                nearest(&|r: &QueuedReq| r.first_block <= head)
            };
            match ahead {
                Some(r) => Some((r, sweep_up)),
                // Nothing left along this sweep: reverse.
                None => nearest(&|_| true).map(|r| (r, !sweep_up)),
            }
        }
    }
}

/// One disk arm: the foreground request queue, the head and SCAN's sweep
/// direction, the pick, and the charge.  It owns no clock and no thread;
/// each front end says when "now" is and which requests have arrived.
#[derive(Debug, Clone)]
struct Arm {
    cfg: SchedConfig,
    profile: DiskProfile,
    block_size: u32,
    total_blocks: u64,
    next_id: u64,
    pending: Vec<QueuedReq>,
    head: u64,
    sweep_up: bool,
}

impl Arm {
    /// An idle arm parked at block 0 of a disk of `total_blocks` sectors
    /// of `block_size` bytes.
    fn new(cfg: SchedConfig, profile: DiskProfile, block_size: u32, total_blocks: u64) -> Arm {
        Arm {
            cfg,
            profile,
            block_size,
            total_blocks,
            next_id: 0,
            pending: Vec::new(),
            head: 0,
            sweep_up: true,
        }
    }

    /// A request under the next submission-order id; the caller queues it.
    fn request(
        &mut self,
        kind: ReqKind,
        first_block: u64,
        blocks: u64,
        arrival: Nanos,
    ) -> QueuedReq {
        let id = self.next_id;
        self.next_id += 1;
        QueuedReq {
            id,
            kind,
            first_block,
            blocks,
            arrival,
        }
    }

    /// The queued requests that have arrived by `by`.
    fn arrived(&self, by: Nanos) -> impl Iterator<Item = &QueuedReq> + Clone {
        self.pending.iter().filter(move |r| r.arrival <= by)
    }

    /// The next request to serve among those arrived by `by`: the
    /// policy's pick, unless some request's deadline has expired at `now`
    /// — then the oldest expired request wins (promoted), bounding
    /// starvation under SPTF and SCAN.  `None` when none has arrived.
    fn pick(&self, by: Nanos, now: Nanos) -> Option<Choice> {
        let (pick, sweep_up) =
            policy_pick(self.arrived(by), self.head, self.sweep_up, self.cfg.policy)?;
        let deadline = self.cfg.deadline;
        if deadline > Nanos::ZERO {
            let expired = self
                .arrived(by)
                .filter(|r| r.arrival + deadline <= now)
                .min_by_key(|r| (r.arrival, r.id));
            if let Some(r) = expired.filter(|r| r.id != pick.id) {
                // The arm detours for the aged request; the sweep
                // direction resumes unchanged afterwards.
                return Some(Choice {
                    id: r.id,
                    promoted: true,
                    sweep_up: self.sweep_up,
                });
            }
        }
        Some(Choice {
            id: pick.id,
            promoted: false,
            sweep_up,
        })
    }

    /// Takes the sweep direction of a granted pick and removes request
    /// `id` from the queue; `None` when it is not queued here.
    fn take(&mut self, id: u64, sweep_up: bool) -> Option<QueuedReq> {
        self.sweep_up = sweep_up;
        let index = self.pending.iter().position(|r| r.id == id)?;
        Some(self.pending.remove(index))
    }

    /// The one charge of a transfer of `bytes` from `first_block`:
    /// positioning from the head plus transfer, or transfer alone for a
    /// continuation (the same physical I/O picking up exactly where the
    /// arm stopped: no controller setup, no seek, no rotation).  Leaves
    /// the head just past the range; returns the time and the blocks of
    /// arm travel.
    fn charge(&mut self, first_block: u64, bytes: u64, continuation: bool) -> (Nanos, u64) {
        let (t, seek_blocks) = if continuation {
            let t = Nanos::from_us_f64(bytes as f64 * self.profile.transfer_us_per_byte);
            (t, 0)
        } else {
            let t = self
                .profile
                .io_time(self.head, first_block, self.total_blocks, bytes);
            (t, self.head.abs_diff(first_block))
        };
        self.head = first_block + bytes.div_ceil(self.block_size as u64);
        (t, seek_blocks)
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
    /// Highest queue depth at a service start: the requests queued that
    /// had arrived by then, the one served included.
    pub depth_max: u64,
}

/// A deterministic virtual-time disk-arm simulation: submissions carry
/// explicit arrival times, [`service_one`](ArmSim::service_one) picks and
/// completes one physical I/O per call, and the entire trajectory is a
/// pure function of the submission sequence — replaying the same
/// submissions yields a byte-identical service log.
#[derive(Debug, Clone)]
pub struct ArmSim {
    arm: Arm,
    now: Nanos,
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
            arm: Arm::new(cfg, profile, block_size, total_blocks),
            now: Nanos::ZERO,
            stats: ArmStats::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.arm.pending.len()
    }

    /// Current head position in blocks.
    pub fn head(&self) -> u64 {
        self.arm.head
    }

    /// Run counters so far.
    pub fn stats(&self) -> ArmStats {
        self.stats
    }

    /// Queues a request arriving at `arrival`; returns its id.
    pub fn submit(&mut self, kind: ReqKind, first_block: u64, blocks: u64, arrival: Nanos) -> u64 {
        let req = self.arm.request(kind, first_block, blocks, arrival);
        self.arm.pending.push(req);
        self.stats.submitted += 1;
        req.id
    }

    /// Serves one physical I/O: picks among the requests that have
    /// arrived by the service start, merges adjacent same-kind queued
    /// requests when coalescing is on, charges seek + rotation + transfer
    /// on the virtual clock, and advances the head.  Returns `None` when
    /// the queue is empty.
    pub fn service_one(&mut self) -> Option<Service> {
        let min_arrival = self.arm.pending.iter().map(|r| r.arrival).min()?;
        let start = self.now.max(min_arrival);
        let depth = self.arm.arrived(start).count() as u64;
        let c = self
            .arm
            .pick(start, start)
            .expect("the earliest request has arrived by the start");
        let primary = self.arm.take(c.id, c.sweep_up).expect("the pick is queued");

        let mut ids = vec![primary.id];
        let mut first = primary.first_block;
        let mut blocks = primary.blocks;
        if self.arm.cfg.coalesce {
            // Chain every arrived request touching either end of the
            // merged range (front and back merges, like a real elevator's
            // request merging): one arm positioning, one rotation, one
            // long transfer starting at the lowest block.
            while let Some(i) = self.arm.pending.iter().position(|r| {
                r.arrival <= start
                    && r.kind == primary.kind
                    && (r.first_block == first + blocks || r.first_block + r.blocks == first)
            }) {
                let r = self.arm.pending.remove(i);
                ids.push(r.id);
                first = first.min(r.first_block);
                blocks += r.blocks;
            }
        }

        let bytes = blocks * self.arm.block_size as u64;
        let (t, seek_blocks) = self.arm.charge(first, bytes, false);
        let end = start + t;
        self.now = end;
        self.stats.issued += 1;
        self.stats.coalesced += ids.len() as u64 - 1;
        self.stats.seek_blocks += seek_blocks;
        self.stats.promotions += u64::from(c.promoted);
        self.stats.depth_max = self.stats.depth_max.max(depth);
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

/// Scheduler state shared by every thread queued on one device.
struct SchedState {
    /// The arm and its foreground queue.
    arm: Arm,
    /// The background lane: requests here are only granted the arm when
    /// the foreground queue is empty, oldest first.  Maintenance streams
    /// (archive demotion, resync) queue here so they never starve
    /// foreground grants; a background request can still be *continued*
    /// by foreground traffic that lands adjacent to where it parked the
    /// arm.
    low_pending: Vec<QueuedReq>,
    /// True while some granted request is between grant and completion.
    busy: bool,
    /// The pick for the current free-arm period, `None` until the first
    /// waiter evaluates it after the arm frees.  Computed once per period
    /// and held until claimed: the pick consults the shared clock for
    /// deadline aging, so re-evaluating it on every wakeup could flip it
    /// between two waiters (each seeing the other as chosen) and park them
    /// both with the arm free and nobody left to notify.
    grant: Option<Choice>,
    /// Kind and end block of the last completed service — the coalescing
    /// anchor.
    last_end: Option<(ReqKind, u64)>,
    /// The arm's next id when the last service completed.  Ids are handed
    /// out in order and no grant is outstanding at a completion, so a
    /// foreground request below this mark was already queued then: only
    /// such a request may continue that service as a merged transfer (one
    /// that arrives later missed the arm and pays the full positioning
    /// cost).
    continue_below: u64,
}

/// A [`BlockDevice`] wrapper that queues concurrent requests and grants
/// the arm in policy order, charging the drive model's
/// seek/rotation/transfer time to the simulated clock — see the module
/// docs.
///
/// With at most one request outstanding every policy charges the same
/// sequence: each I/O costs its full positioning from where the previous
/// one left the head.  Reordering, deadline promotion, and coalescing only
/// engage when requests actually overlap.
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
        let arm = Arm::new(cfg, profile, inner.block_size(), inner.num_blocks());
        SchedDisk {
            inner,
            clock,
            state: StdMutex::new(SchedState {
                arm,
                low_pending: Vec::new(),
                busy: false,
                grant: None,
                last_end: None,
                continue_below: 0,
            }),
            cv: Condvar::new(),
            stats: Stats::new(),
            tracer: RwLock::new(Tracer::off()),
            telemetry: RwLock::new((Telemetry::off(), 0)),
            telemetry_due: AtomicU64::new(0),
        }
    }

    /// Per-device statistics: `disk_reads`, `disk_writes`,
    /// `disk_bytes_read`, `disk_bytes_written`, `disk_seek_blocks`, plus
    /// the scheduler's own (`disk_queue_depth_max`, `disk_coalesced_ios`,
    /// `sched_deadline_promotions`, `sched_low_queued`).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Requests currently queued (granted-but-incomplete excluded).
    pub fn queue_len(&self) -> usize {
        self.lock_state().arm.pending.len()
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
        // picks once and publishes the pick (`SchedState::grant`); every
        // later check in the same period reads that record instead of
        // re-picking, so the clock-dependent deadline verdict cannot flip
        // the pick between waiters.  A grant recorded for another request
        // is followed by a notify_all, since that request's thread is
        // parked.
        let (policy, promoted, continuation, depth) = {
            let mut st = self.lock_state();
            let req = st.arm.request(kind, first_block, blocks, arrival);
            let id = req.id;
            if low {
                st.low_pending.push(req);
                self.stats.incr("sched_low_queued");
            } else {
                st.arm.pending.push(req);
                self.stats
                    .set_max("disk_queue_depth_max", st.arm.pending.len() as u64);
            }
            self.sample_gauges(
                arrival,
                (st.arm.pending.len() + st.low_pending.len()) as u64,
                st.arm.head,
            );
            loop {
                if !st.busy {
                    let g = match st.grant {
                        Some(g) => g,
                        None => {
                            let g = if st.arm.pending.is_empty() {
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
                                Choice {
                                    id: r.id,
                                    promoted: false,
                                    sweep_up: st.arm.sweep_up,
                                }
                            } else {
                                // Every queued request has arrived; the
                                // clock only judges deadlines.
                                st.arm
                                    .pick(Nanos(u64::MAX), self.clock.now())
                                    .expect("the foreground queue is non-empty")
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
                        st.busy = true;
                        let depth = st.arm.pending.len() + st.low_pending.len();
                        if st.arm.take(id, g.sweep_up).is_none() {
                            let index = st
                                .low_pending
                                .iter()
                                .position(|r| r.id == id)
                                .expect("a granted id is pending");
                            st.low_pending.remove(index);
                        }
                        let continuation = st.arm.cfg.coalesce
                            && !low
                            && id < st.continue_below
                            && st.last_end == Some((kind, first_block));
                        break (st.arm.cfg.policy, g.promoted, continuation, depth);
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
                    ("policy", AttrValue::Str(policy.label())),
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

        io().inspect_err(|_| {
            // A failed I/O charges nothing and moves nothing, but must
            // still release the arm.
            self.release_arm(self.lock_state());
        })?;
        let mut st = self.lock_state();
        let (t, seek_blocks) = st.arm.charge(first_block, len, continuation);
        st.last_end = Some((kind, st.arm.head));
        st.continue_below = st.arm.next_id;
        // Charged before the arm frees, so the next pick judges deadlines
        // after this service.
        self.clock.advance(t);
        self.release_arm(st);
        if continuation {
            self.stats.incr("disk_coalesced_ios");
        } else {
            self.stats.add("disk_seek_blocks", seek_blocks);
        }
        Ok(())
    }

    /// One scheduled read of `len` bytes (on the background lane when
    /// `low`), counted once it succeeds.
    fn read(
        &self,
        first_block: u64,
        len: u64,
        low: bool,
        io: impl FnOnce() -> Result<(), DiskError>,
    ) -> Result<(), DiskError> {
        self.run_io(ReqKind::Read, first_block, len, low, io)?;
        self.stats.incr("disk_reads");
        self.stats.add("disk_bytes_read", len);
        Ok(())
    }

    /// Frees the arm and wakes the parked threads, if there are any.  A
    /// thread leaves the scheduler lock with its request queued only by
    /// parking (see `run_io`), so the two queues are exactly the parked
    /// threads; with both empty the `notify_all`, which makes a futex
    /// syscall even when nobody waits, is skipped.
    fn release_arm(&self, mut st: MutexGuard<'_, SchedState>) {
        st.busy = false;
        let parked = !st.arm.pending.is_empty() || !st.low_pending.is_empty();
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
        self.read(first_block, len, false, || {
            self.inner.read_blocks(first_block, buf)
        })
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
        self.read(first_block, len, true, || {
            self.inner.read_blocks(first_block, buf)
        })
    }

    fn read_blocks_append(
        &self,
        first_block: u64,
        blocks: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), DiskError> {
        let len = blocks.saturating_mul(self.block_size() as u64);
        self.read(first_block, len, false, || {
            self.inner.read_blocks_append(first_block, blocks, out)
        })
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.inner.sync()
    }
}

impl<D: BlockDevice> std::fmt::Debug for SchedDisk<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock_state();
        f.debug_struct("SchedDisk")
            .field("policy", &st.arm.cfg.policy)
            .field("queue_len", &st.arm.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RamDisk;
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

    #[test]
    fn depth_counts_only_requests_that_have_arrived() {
        // A request queued for the far future is not in the queue yet when
        // the first one is served.
        let mut s = sim(SchedConfig::default());
        s.submit(ReqKind::Read, 100, 8, Nanos::ZERO);
        s.submit(ReqKind::Read, 200, 8, Nanos::from_secs(60));
        assert_eq!(drain(&mut s).len(), 2);
        assert_eq!(s.stats().depth_max, 1);
    }

    // ---------------- SchedDisk (real-stack wrapper) ----------------

    #[test]
    fn depth_one_charges_match_simdisk_exactly() {
        // One request at a time, every policy charges the drive model's
        // time for each I/O from where the previous one left the head.
        let pattern: &[(ReqKind, u64, usize)] = &[
            (ReqKind::Write, 500, 1024),
            (ReqKind::Write, 501, 2048),
            (ReqKind::Write, 9_000, 1024),
            (ReqKind::Write, 0, 4096),
            (ReqKind::Read, 500, 2048),
        ];
        let profile = DiskProfile::scsi_1989();
        let (mut head, mut expected, mut seeks) = (0u64, Nanos::ZERO, 0u64);
        for &(_, b, len) in pattern {
            expected += profile.io_time(head, b, 10_000, len as u64);
            seeks += head.abs_diff(b);
            head = b + len as u64 / 1024;
        }
        let run = |cfg: SchedConfig| {
            let c = SimClock::new();
            let d = SchedDisk::new(RamDisk::new(1024, 10_000), c.clone(), profile, cfg);
            for &(kind, b, len) in pattern {
                let mut buf = vec![7u8; len];
                match kind {
                    ReqKind::Read => d.read_blocks(b, &mut buf).unwrap(),
                    ReqKind::Write => d.write_blocks(b, &buf).unwrap(),
                }
            }
            (c.now(), d.stats().get("disk_seek_blocks"))
        };
        // With one outstanding request the chooser has exactly one
        // candidate and coalescing never engages.
        for cfg in [
            SchedConfig::default(),
            SchedConfig::fifo(),
            SchedConfig {
                policy: SchedPolicy::Sptf,
                ..SchedConfig::default()
            },
        ] {
            assert_eq!(run(cfg), (expected, seeks), "{cfg:?}");
        }
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

    /// Holds the arm at block 5 000 with an 8-block write, queues 8-block
    /// writes at 40 000, 100 and 5 008 behind it in that order, then lets
    /// them all run: the order the writes reached the media, the clock,
    /// and the disk.
    fn gated_queue(cfg: SchedConfig) -> (Vec<u64>, Nanos, Arc<SchedDisk<GateDisk>>) {
        let clock = SimClock::new();
        let disk = Arc::new(SchedDisk::new(
            GateDisk::new(RamDisk::new(1024, 65_536)),
            clock.clone(),
            DiskProfile::scsi_1989(),
            cfg,
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
        let order = disk.inner().order.lock().unwrap().clone();
        (order, clock.now(), disk)
    }

    #[test]
    fn concurrent_requests_are_granted_in_policy_order_with_coalescing() {
        let (order, _, disk) = gated_queue(SchedConfig::default()); // SCAN + coalesce

        // SCAN from 5 008 sweeping up: 5 008 (a zero-seek continuation of
        // the first write), 40 000, then reverse down to 100.
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

        // Without coalescing or aging, a real queue is served exactly as
        // the virtual-time engine serves the same requests: same media
        // order, same clock, same arm travel, under every policy.
        for (policy, served) in [
            (SchedPolicy::Fifo, [40_000, 100, 5_008]),
            (SchedPolicy::Scan, [5_008, 40_000, 100]),
            (SchedPolicy::Sptf, [5_008, 100, 40_000]),
        ] {
            let cfg = SchedConfig {
                policy,
                coalesce: false,
                deadline: Nanos::ZERO,
            };
            let (order, now, disk) = gated_queue(cfg);
            assert_eq!(order[1..], served, "{policy:?}");
            let mut sim = ArmSim::new(cfg, DiskProfile::scsi_1989(), 1024, 65_536);
            sim.submit(ReqKind::Write, 5_000, 8, Nanos::ZERO);
            // The held write is granted alone, before the others queue.
            let held = sim.service_one().unwrap();
            for b in [40_000, 100, 5_008] {
                sim.submit(ReqKind::Write, b, 8, Nanos::ZERO);
            }
            let sim_order: Vec<u64> = std::iter::once(held.first_block)
                .chain(drain(&mut sim).iter().map(|v| v.first_block))
                .collect();
            assert_eq!(order, sim_order, "{policy:?}");
            assert_eq!(now, sim.now(), "{policy:?}");
            assert_eq!(
                disk.stats().get("disk_seek_blocks"),
                sim.stats().seek_blocks,
                "{policy:?}"
            );
        }
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
