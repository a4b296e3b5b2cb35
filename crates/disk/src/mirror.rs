//! The replicated disk set: write to all, read from the primary, fail over.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use amoeba_sim::{Stats, Tracer};

use crate::{BlockDevice, DiskError};

/// A set of identical disk replicas, as in §3 of the paper: "we have two
/// disks that we use as identical replicas.  One of the disks is the main
/// disk on which the file server reads.  Disk writes are performed on both
/// disks."
///
/// Beyond plain mirrored [`BlockDevice`] behaviour the type supports the
/// P-FACTOR protocol of `BULLET.CREATE`:
///
/// * [`write_sync_k`](MirroredDisk::write_sync_k) writes synchronously to
///   the first `k` live replicas and queues the rest as *background* work
///   (the reply to the client does not wait for them);
/// * [`sync`](BlockDevice::sync) completes the queued writes;
/// * [`crash_volatile`](MirroredDisk::crash_volatile) discards the queue,
///   modelling a server crash before the background writes finished.
///
/// A replica that returns an error is marked dead and skipped from then
/// on; reads fail over to the next live replica.  A repaired replica
/// rejoins via [`resync_replica`](MirroredDisk::resync_replica), which
/// copies the complete disk from the current primary — the paper's
/// recovery procedure.
pub struct MirroredDisk {
    replicas: Vec<Arc<dyn BlockDevice>>,
    alive: Vec<AtomicBool>,
    primary: AtomicUsize,
    background: Mutex<VecDeque<(usize, u64, Vec<u8>)>>,
    /// `background.len()`, stored under the `background` lock after every
    /// change, so the clean path (nothing queued, which every write at
    /// P-FACTOR = replica count and every read after it takes) drains
    /// without locking the queue.  A drain keeps the lock, and stores the
    /// shorter length, only once its writes have landed: a read that
    /// finds nothing queued never overtakes a write still being drained.
    queued: AtomicUsize,
    stats: Stats,
    /// Span recorder (disabled by default; the server installs its tracer
    /// after assembly, hence the lock).
    tracer: RwLock<Tracer>,
}

impl std::fmt::Debug for MirroredDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MirroredDisk")
            .field("replicas", &self.replicas.len())
            .field("alive", &self.alive_count())
            .field("primary", &self.primary.load(Ordering::SeqCst))
            .finish()
    }
}

impl MirroredDisk {
    /// Builds a mirror over `replicas`.
    ///
    /// # Errors
    ///
    /// [`DiskError::AllReplicasFailed`] for an empty set, or
    /// [`DiskError::GeometryMismatch`] if the replicas differ in block size
    /// or block count.
    pub fn new(replicas: Vec<Arc<dyn BlockDevice>>) -> Result<MirroredDisk, DiskError> {
        let first = replicas.first().ok_or(DiskError::AllReplicasFailed)?;
        let (bs, nb) = (first.block_size(), first.num_blocks());
        if replicas
            .iter()
            .any(|r| r.block_size() != bs || r.num_blocks() != nb)
        {
            return Err(DiskError::GeometryMismatch);
        }
        let alive = replicas.iter().map(|_| AtomicBool::new(true)).collect();
        Ok(MirroredDisk {
            replicas,
            alive,
            primary: AtomicUsize::new(0),
            background: Mutex::new(VecDeque::new()),
            queued: AtomicUsize::new(0),
            stats: Stats::new(),
            tracer: RwLock::new(Tracer::off()),
        })
    }

    /// Installs the span tracer recording this mirror's disk spans
    /// (`disk.read`, `disk.write`, `disk.replica_write`, `disk.resync`).
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.write() = tracer;
    }

    fn tracer(&self) -> Tracer {
        self.tracer.read().clone()
    }

    /// Number of replicas (live or dead).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Number of currently live replicas.
    pub fn alive_count(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::SeqCst))
            .count()
    }

    /// True if replica `i` is live.
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i].load(Ordering::SeqCst)
    }

    /// Direct access to replica `i` (tests use this to reach the fault
    /// injectors wrapped inside).
    pub fn replica(&self, i: usize) -> &Arc<dyn BlockDevice> {
        &self.replicas[i]
    }

    /// Mirror statistics: `mirror_failovers`, `mirror_bg_queued`,
    /// `mirror_bg_flushed`, `mirror_bg_dropped`.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Writes to at most `k` live replicas synchronously; the remaining
    /// live replicas are queued for background completion.  Returns how
    /// many replicas were written synchronously.
    ///
    /// The synchronous writes run one after another on the calling
    /// thread, but simulated time is charged as if a controller drove the
    /// target replicas' independent spindles in parallel: the maximum
    /// across the replicas rather than the sum (each replica's clock
    /// charges are captured and settled with
    /// [`commit_max`](amoeba_sim::commit_max)).
    ///
    /// `k = 0` queues everything (P-FACTOR 0: reply before any disk I/O).
    ///
    /// # Errors
    ///
    /// [`DiskError::AllReplicasFailed`] if no replica is live, or the
    /// underlying device errors if every attempted replica fails.
    pub fn write_sync_k(
        &self,
        first_block: u64,
        data: &[u8],
        k: usize,
    ) -> Result<usize, DiskError> {
        if self.alive_count() == 0 {
            return Err(DiskError::AllReplicasFailed);
        }
        let tracer = self.tracer();
        let mut span = tracer.span("disk.write");
        span.attr("bytes", data.len());
        span.attr("sync_replicas", k);
        let mut synced = 0;
        let mut last_err = None;
        let mut cursor = 0;
        // Keep issuing parallel batches until k replicas have the data or
        // the replica list is exhausted; a lane that fails drops out (its
        // replica is marked dead) and a later replica takes its place in
        // the next batch, preserving the sequential retry semantics.
        while synced < k {
            let batch: Vec<usize> = (cursor..self.replicas.len())
                .filter(|&i| self.is_alive(i))
                .take(k - synced)
                .collect();
            let Some(&last) = batch.last() else { break };
            cursor = last + 1;
            for (i, result) in self.write_batch_parallel(&tracer, &batch, first_block, data) {
                match result {
                    Ok(()) => synced += 1,
                    Err(e) => {
                        self.mark_dead(i);
                        last_err = Some(e);
                    }
                }
            }
        }
        for i in cursor..self.replicas.len() {
            if self.is_alive(i) {
                let mut q = self.background.lock();
                q.push_back((i, first_block, data.to_vec()));
                self.queued.store(q.len(), Ordering::SeqCst);
                self.stats.incr("mirror_bg_queued");
            }
        }
        if synced == 0 && k > 0 {
            return Err(last_err.unwrap_or(DiskError::AllReplicasFailed));
        }
        Ok(synced)
    }

    /// Writes one block image to each replica in `batch`, charging the
    /// simulated clock max-of-lanes: the spindles run concurrently, so
    /// the batch costs what its slowest member costs.  The device work
    /// itself runs sequentially on the calling thread — the replicas are
    /// memory-backed simulations, so per-lane capture of the deferred
    /// charges models the parallelism exactly without paying host thread
    /// spawns on every write.  Returns per-replica results in batch order.
    fn write_batch_parallel(
        &self,
        tracer: &Tracer,
        batch: &[usize],
        first_block: u64,
        data: &[u8],
    ) -> Vec<(usize, Result<(), DiskError>)> {
        // Per-device FIFO: anything still queued for a replica must land
        // before the new write, or a stale queued image could later
        // clobber this one — hence drain inside each lane.
        if let [i] = *batch {
            let mut span = tracer.span("disk.replica_write");
            span.attr("replica", i);
            span.attr("bytes", data.len());
            self.drain_replica(i);
            return vec![(i, self.replicas[i].write_blocks(first_block, data))];
        }
        let base = tracer.now();
        let mut out = Vec::with_capacity(batch.len());
        let mut logs = Vec::with_capacity(batch.len());
        for &i in batch {
            let (result, log) = amoeba_sim::capture(|| {
                self.drain_replica(i);
                self.replicas[i].write_blocks(first_block, data)
            });
            // Every lane starts at the batch base — the spindles run
            // concurrently — and ends after its own captured cost, the
            // schedule commit_max charges below.
            tracer.record_at(
                "disk.replica_write",
                base,
                base + log.total(),
                &[("replica", i.into()), ("bytes", data.len().into())],
            );
            out.push((i, result));
            logs.push(log);
        }
        amoeba_sim::commit_max(logs);
        self.stats.incr("mirror_parallel_batches");
        out
    }

    /// Number of queued background writes.
    pub fn pending_background(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    /// Discards all queued background writes, as a server crash would.
    pub fn crash_volatile(&self) {
        // One section: a write queued between counting and clearing would
        // otherwise vanish uncounted.
        let mut q = self.background.lock();
        self.stats.add("mirror_bg_dropped", q.len() as u64);
        q.clear();
        self.queued.store(0, Ordering::SeqCst);
    }

    /// Copies the complete disk from the current primary onto replica `i`
    /// and marks it live — the paper's recovery-by-copy.  Copying proceeds
    /// in `chunk_blocks` units so the simulated cost is realistic.
    ///
    /// The copy is a two-lane [`Pipeline`](amoeba_sim::Pipeline): the
    /// source and the rejoining replica are independent spindles, so
    /// reading chunk `k` off the primary overlaps writing chunk `k-1` to
    /// the newcomer, and a full-disk resync costs about one pass of the
    /// slower spindle instead of read-plus-write serialized.
    ///
    /// # Errors
    ///
    /// Propagates read errors from the primary or write errors from the
    /// rejoining replica.
    pub fn resync_replica(&self, i: usize, chunk_blocks: u64) -> Result<(), DiskError> {
        let src = self.pick_live().ok_or(DiskError::AllReplicasFailed)?;
        if src == i {
            self.alive[i].store(true, Ordering::SeqCst);
            return Ok(());
        }
        let tracer = self.tracer();
        let mut span = tracer.span("disk.resync");
        span.attr("replica", i);
        span.attr("source", src);
        let bs = self.block_size() as usize;
        let total = self.num_blocks();
        let chunk = chunk_blocks.max(1);
        let mut buf = vec![0u8; bs * chunk as usize];
        let lanes = &["resync_read", "resync_write"];
        amoeba_sim::Pipeline::walk(&tracer, lanes, total, chunk, |pipe, at, end| {
            let slice = &mut buf[..bs * (end - at) as usize];
            pipe.stage(0, || self.replicas[src].read_blocks(at, slice))?;
            pipe.stage(1, || self.replicas[i].write_blocks(at, slice))
        })?;
        self.replicas[i].sync()?;
        self.alive[i].store(true, Ordering::SeqCst);
        self.stats.incr("mirror_resyncs");
        Ok(())
    }

    /// Applies all queued background writes destined for replica `i`, in
    /// FIFO order, leaving other replicas' items queued.  True if this
    /// call marked `i` dead.
    fn drain_replica(&self, i: usize) -> bool {
        if self.queued.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let mut killed = false;
        let mut q = self.background.lock();
        let mut mine = Vec::new();
        q.retain_mut(|(r, first, data)| {
            if *r == i {
                mine.push((*first, std::mem::take(data)));
                false
            } else {
                true
            }
        });
        for (first, data) in mine {
            if !self.is_alive(i) {
                self.stats.incr("mirror_bg_dropped");
                continue;
            }
            match self.replicas[i].write_blocks(first, &data) {
                Ok(()) => self.stats.incr("mirror_bg_flushed"),
                Err(_) => {
                    killed |= self.mark_dead(i);
                    self.stats.incr("mirror_bg_dropped");
                }
            }
        }
        self.queued.store(q.len(), Ordering::SeqCst);
        killed
    }

    /// Marks replica `i` dead; true for the one caller that found it live
    /// (and counted the failover).
    fn mark_dead(&self, i: usize) -> bool {
        let was_alive = self.alive[i].swap(false, Ordering::SeqCst);
        if was_alive {
            self.stats.incr("mirror_failovers");
        }
        was_alive
    }

    /// Reads from the first live replica, failing over past any that
    /// errors.  Returns the outcome and how many replicas *this call*
    /// marked dead: the failovers this read made, to which a concurrent
    /// write, flush or read adds nothing.
    fn read_counting_failovers(
        &self,
        first_block: u64,
        buf: &mut [u8],
    ) -> (Result<(), DiskError>, u64) {
        self.failover_read("disk.read", buf.len() as u64, |dev| {
            dev.read_blocks(first_block, buf)
        })
    }

    /// Appends `blocks` blocks to `out` through
    /// [`read_blocks_append`](BlockDevice::read_blocks_append) on the first
    /// live replica, failing over past any that errors; a replica that
    /// fails leaves `out` (or has it truncated back) at its entry length
    /// before the next one tries.  Returns the outcome and how many
    /// replicas this call marked dead.
    pub fn append_counting_failovers(
        &self,
        first_block: u64,
        blocks: u64,
        out: &mut Vec<u8>,
    ) -> (Result<(), DiskError>, u64) {
        let start = out.len();
        let len = blocks.saturating_mul(self.block_size() as u64);
        self.failover_read("disk.read", len, |dev| {
            dev.read_blocks_append(first_block, blocks, out)
                .inspect_err(|_| out.truncate(start))
        })
    }

    /// The one failover loop behind every mirror read: `read` runs on the
    /// first live replica, and a device fault marks that replica dead and
    /// moves on to the next.
    fn failover_read(
        &self,
        name: &'static str,
        bytes: u64,
        mut read: impl FnMut(&Arc<dyn BlockDevice>) -> Result<(), DiskError>,
    ) -> (Result<(), DiskError>, u64) {
        let tracer = self.tracer();
        let mut span = tracer.span(name);
        span.attr("bytes", bytes);
        let mut failovers = 0;
        loop {
            let Some(i) = self.pick_live() else {
                return (Err(DiskError::AllReplicasFailed), failovers);
            };
            // A read must see every write accepted so far, including those
            // still queued for this replica.
            failovers += u64::from(self.drain_replica(i));
            match read(&self.replicas[i]) {
                Ok(()) => {
                    span.attr("replica", i);
                    if self.primary.load(Ordering::SeqCst) != i {
                        self.primary.store(i, Ordering::SeqCst);
                    }
                    return (Ok(()), failovers);
                }
                // Caller error, not a device fault: do not fail over.
                Err(e @ (DiskError::OutOfRange { .. } | DiskError::UnalignedBuffer { .. })) => {
                    return (Err(e), failovers);
                }
                Err(_) => failovers += u64::from(self.mark_dead(i)),
            }
        }
    }

    fn pick_live(&self) -> Option<usize> {
        let start = self.primary.load(Ordering::SeqCst);
        let n = self.replicas.len();
        (0..n).map(|d| (start + d) % n).find(|&i| self.is_alive(i))
    }
}

impl BlockDevice for MirroredDisk {
    fn block_size(&self) -> u32 {
        self.replicas[0].block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.replicas[0].num_blocks()
    }

    fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.read_counting_failovers(first_block, buf).0
    }

    fn read_blocks_append(
        &self,
        first_block: u64,
        blocks: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), DiskError> {
        self.append_counting_failovers(first_block, blocks, out).0
    }

    fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
        // Plain writes are fully synchronous to every live replica.
        self.write_sync_k(first_block, data, self.replicas.len())
            .map(|_| ())
    }

    fn sync(&self) -> Result<(), DiskError> {
        let tracer = self.tracer();
        let _span = tracer.span("disk.sync");
        let mut any = false;
        for i in 0..self.replicas.len() {
            self.drain_replica(i);
            if self.is_alive(i) {
                match self.replicas[i].sync() {
                    Ok(()) => any = true,
                    Err(_) => {
                        self.mark_dead(i);
                    }
                }
            }
        }
        if any {
            Ok(())
        } else {
            Err(DiskError::AllReplicasFailed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultyDisk, RamDisk};

    fn mirror2() -> (
        MirroredDisk,
        Arc<FaultyDisk<RamDisk>>,
        Arc<FaultyDisk<RamDisk>>,
    ) {
        let a = Arc::new(FaultyDisk::new(RamDisk::new(512, 64)));
        let b = Arc::new(FaultyDisk::new(RamDisk::new(512, 64)));
        let m = MirroredDisk::new(vec![a.clone(), b.clone()]).unwrap();
        (m, a, b)
    }

    #[test]
    fn writes_reach_both_replicas() {
        let (m, a, b) = mirror2();
        m.write_blocks(3, &[7u8; 512]).unwrap();
        let mut buf = [0u8; 512];
        a.read_blocks(3, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 512]);
        b.read_blocks(3, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 512]);
    }

    #[test]
    fn read_fails_over_when_primary_dies() {
        let (m, a, _b) = mirror2();
        m.write_blocks(0, &[9u8; 512]).unwrap();
        a.fail_now();
        let mut buf = [0u8; 512];
        assert_eq!(m.read_counting_failovers(0, &mut buf), (Ok(()), 1));
        assert_eq!(buf, [9u8; 512]);
        assert_eq!(m.alive_count(), 1);
        assert_eq!(m.stats().get("mirror_failovers"), 1);
        // The next read finds replica 1 primary and makes no failover.
        assert_eq!(m.read_counting_failovers(0, &mut buf), (Ok(()), 0));
    }

    #[test]
    fn all_dead_reports_failure() {
        let (m, a, b) = mirror2();
        a.fail_now();
        b.fail_now();
        let mut buf = [0u8; 512];
        assert_eq!(
            m.read_blocks(0, &mut buf),
            Err(DiskError::AllReplicasFailed)
        );
        assert!(m.write_blocks(0, &[0u8; 512]).is_err());
    }

    #[test]
    fn out_of_range_is_not_a_failover() {
        let (m, _a, _b) = mirror2();
        let mut buf = [0u8; 512];
        assert!(matches!(
            m.read_blocks(64, &mut buf),
            Err(DiskError::OutOfRange { .. })
        ));
        assert_eq!(m.alive_count(), 2);
    }

    #[test]
    fn write_sync_k_queues_the_rest() {
        let (m, a, b) = mirror2();
        assert_eq!(m.write_sync_k(2, &[5u8; 512], 1).unwrap(), 1);
        assert_eq!(m.pending_background(), 1);
        // Replica a has the data, b does not yet.
        let mut buf = [0u8; 512];
        a.read_blocks(2, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 512]);
        b.read_blocks(2, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 512]);
        // Syncing completes the mirror.
        m.sync().unwrap();
        assert_eq!(m.stats().get("mirror_bg_flushed"), 1);
        b.read_blocks(2, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 512]);
    }

    #[test]
    fn pfactor_zero_queues_everything() {
        let (m, a, _b) = mirror2();
        assert_eq!(m.write_sync_k(0, &[5u8; 512], 0).unwrap(), 0);
        assert_eq!(m.pending_background(), 2);
        let mut buf = [0u8; 512];
        a.read_blocks(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 512]);
        // A crash before the flush loses the write everywhere.
        m.crash_volatile();
        assert_eq!(m.pending_background(), 0);
        m.sync().unwrap();
        assert_eq!(m.stats().get("mirror_bg_flushed"), 0);
    }

    /// A replica whose next write, once armed, waits inside the device
    /// until the test lets it go.
    struct GatedWrites {
        inner: RamDisk,
        armed: AtomicBool,
        entered: std::sync::Barrier,
        release: std::sync::Barrier,
    }

    impl BlockDevice for GatedWrites {
        fn block_size(&self) -> u32 {
            self.inner.block_size()
        }
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
            self.inner.read_blocks(first_block, buf)
        }
        fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.entered.wait();
                self.release.wait();
            }
            self.inner.write_blocks(first_block, data)
        }
        fn sync(&self) -> Result<(), DiskError> {
            self.inner.sync()
        }
    }

    #[test]
    fn a_read_waits_for_a_drain_another_thread_is_writing() {
        // One read drains a P-FACTOR 0 write onto the primary and stalls
        // inside the device; a second read of that block must not find
        // the queue empty and read the primary before the write lands.
        let gated = Arc::new(GatedWrites {
            inner: RamDisk::new(512, 64),
            armed: AtomicBool::new(false),
            entered: std::sync::Barrier::new(2),
            release: std::sync::Barrier::new(2),
        });
        let m = MirroredDisk::new(vec![gated.clone(), Arc::new(RamDisk::new(512, 64))]).unwrap();
        m.write_sync_k(3, &[7u8; 512], 0).unwrap();
        gated.armed.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            s.spawn(|| m.read_blocks(0, &mut [0u8; 512]).unwrap());
            gated.entered.wait();
            let second = s.spawn(|| {
                let mut buf = [0u8; 512];
                m.read_blocks(3, &mut buf).unwrap();
                buf
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            gated.release.wait();
            assert_eq!(second.join().unwrap(), [7u8; 512]);
        });
    }

    #[test]
    fn a_crash_counts_every_write_it_discards() {
        // One thread queues P-FACTOR 1 writes while another crashes the
        // queue in a loop: every queued write ends flushed, dropped or
        // still pending, including one queued while a crash is counting.
        const WRITES: u64 = 20_000;
        let (m, _a, _b) = mirror2();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    m.crash_volatile();
                }
            });
            for n in 0..WRITES {
                m.write_sync_k(n % 64, &[n as u8; 512], 1).unwrap();
            }
            stop.store(true, Ordering::SeqCst);
        });
        let s = m.stats();
        assert_eq!(s.get("mirror_bg_queued"), WRITES);
        assert_eq!(
            s.get("mirror_bg_flushed") + s.get("mirror_bg_dropped") + m.pending_background() as u64,
            WRITES
        );
    }

    #[test]
    fn a_failover_read_sees_the_newest_image_of_every_block() {
        // Overlapping P-FACTOR 1 writes queue images for replica 1, and
        // every ninth write (P-FACTOR 2) drains that queue early.  Once the
        // primary dies, replica 1 serves the read after draining the rest,
        // and every block must hold the last image written to it.
        let (m, a, _b) = mirror2();
        let mut model = vec![0u8; 512 * 64];
        for n in 0..48u64 {
            let first = (n * 3) % 60;
            let data = vec![n as u8 + 1; 512 * (1 + n as usize % 4)];
            let k = if n % 9 == 8 { 2 } else { 1 };
            m.write_sync_k(first, &data, k).unwrap();
            model[first as usize * 512..][..data.len()].copy_from_slice(&data);
        }
        assert!(m.pending_background() > 0);
        a.fail_now();
        let mut buf = vec![0u8; 512 * 64];
        assert_eq!(m.read_counting_failovers(0, &mut buf), (Ok(()), 1));
        assert!(buf == model, "replica 1 holds a stale image");
        assert_eq!(m.pending_background(), 0);
    }

    #[test]
    fn sync_write_fails_over_to_second_replica() {
        let (m, a, b) = mirror2();
        a.fail_now();
        assert_eq!(m.write_sync_k(1, &[3u8; 512], 1).unwrap(), 1);
        let mut buf = [0u8; 512];
        b.read_blocks(1, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 512]);
    }

    #[test]
    fn resync_copies_complete_disk() {
        let (m, _a, b) = mirror2();
        m.write_blocks(0, &[1u8; 512]).unwrap();
        b.fail_now();
        // Updates while b is down go only to a.
        m.write_blocks(1, &[2u8; 512]).unwrap();
        assert_eq!(m.alive_count(), 1);
        b.repair();
        m.resync_replica(1, 16).unwrap();
        assert_eq!(m.alive_count(), 2);
        let mut buf = [0u8; 512];
        b.read_blocks(1, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 512]);
    }

    #[test]
    fn parallel_sync_writes_charge_max_not_sum() {
        use crate::{SchedConfig, SchedDisk};
        use amoeba_sim::{DiskProfile, SimClock};

        // Two replicas behind latency models sharing one clock: a mirrored
        // write must cost what the slower replica costs, not the sum of
        // both, because the spindles run concurrently.
        let mirrored_cost = {
            let clock = SimClock::new();
            let mk = || -> Arc<dyn BlockDevice> {
                Arc::new(SchedDisk::new(
                    RamDisk::new(512, 1024),
                    clock.clone(),
                    DiskProfile::scsi_1989(),
                    SchedConfig::default(),
                ))
            };
            let m = MirroredDisk::new(vec![mk(), mk()]).unwrap();
            let ((), cost) =
                clock.time(|| m.write_sync_k(10, &[4u8; 4096], 2).map(|_| ()).unwrap());
            cost
        };
        let single_cost = {
            let clock = SimClock::new();
            let d: Arc<dyn BlockDevice> = Arc::new(SchedDisk::new(
                RamDisk::new(512, 1024),
                clock.clone(),
                DiskProfile::scsi_1989(),
                SchedConfig::default(),
            ));
            let m = MirroredDisk::new(vec![d]).unwrap();
            let ((), cost) =
                clock.time(|| m.write_sync_k(10, &[4u8; 4096], 1).map(|_| ()).unwrap());
            cost
        };
        assert!(single_cost.as_ns() > 0);
        // Identical replicas start from the same head position, so the
        // max across the two lanes equals the single-replica cost exactly.
        assert_eq!(mirrored_cost, single_cost);
    }

    #[test]
    fn resync_overlaps_read_and_write() {
        use crate::{SchedConfig, SchedDisk};
        use amoeba_sim::{DiskProfile, Nanos, SimClock};

        let clock = SimClock::new();
        let mk = || -> Arc<dyn BlockDevice> {
            Arc::new(SchedDisk::new(
                RamDisk::new(512, 1024),
                clock.clone(),
                DiskProfile::scsi_1989(),
                SchedConfig::default(),
            ))
        };
        let (a, b) = (mk(), mk());
        let m = MirroredDisk::new(vec![a.clone(), b.clone()]).unwrap();
        let ((), pipelined) = clock.time(|| m.resync_replica(1, 16).unwrap());
        assert_eq!(m.stats().get("mirror_resyncs"), 1);

        // Serial baseline: the same chunked copy without the overlap.
        let serial = {
            let clock = SimClock::new();
            let mk = || -> Arc<dyn BlockDevice> {
                Arc::new(SchedDisk::new(
                    RamDisk::new(512, 1024),
                    clock.clone(),
                    DiskProfile::scsi_1989(),
                    SchedConfig::default(),
                ))
            };
            let (src, dst) = (mk(), mk());
            let mut buf = vec![0u8; 512 * 16];
            let ((), dt) = clock.time(|| {
                let mut at = 0;
                while at < 1024 {
                    src.read_blocks(at, &mut buf).unwrap();
                    dst.write_blocks(at, &buf).unwrap();
                    at += 16;
                }
                dst.sync().unwrap();
            });
            dt
        };
        assert!(
            pipelined < serial,
            "resync {pipelined} should beat serial copy {serial}"
        );
        // The overlap cannot beat a single pass of one spindle: both lanes
        // move the whole disk, so at least half the serial time remains.
        assert!(pipelined >= Nanos::from_ns(serial.as_ns() / 2));
    }

    #[test]
    fn parallel_write_failure_still_fails_over() {
        // First two replicas both fail mid-batch; the third absorbs the
        // write, as the sequential retry loop used to guarantee.
        let a = Arc::new(FaultyDisk::new(RamDisk::new(512, 64)));
        let b = Arc::new(FaultyDisk::new(RamDisk::new(512, 64)));
        let c = Arc::new(FaultyDisk::new(RamDisk::new(512, 64)));
        let m = MirroredDisk::new(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        a.fail_now();
        b.fail_now();
        assert_eq!(m.write_sync_k(1, &[3u8; 512], 2).unwrap(), 1);
        let mut buf = [0u8; 512];
        c.read_blocks(1, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 512]);
        assert_eq!(m.alive_count(), 1);
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let a: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(512, 64));
        let b: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(512, 65));
        assert!(matches!(
            MirroredDisk::new(vec![a, b]),
            Err(DiskError::GeometryMismatch)
        ));
        assert!(matches!(
            MirroredDisk::new(vec![]),
            Err(DiskError::AllReplicasFailed)
        ));
    }
}
