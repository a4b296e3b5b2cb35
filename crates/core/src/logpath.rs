//! The server's half of the group-commit log: the log state, start-up
//! (geometry check, window restore, last-record replay), create routing,
//! the batched commit, the one seal writer and migration home.  The
//! record format, the chain scan and the window's bookkeeping are
//! [`crate::gclog`]'s; batching concurrent creates is
//! [`crate::groupcommit`]'s.  `server.rs` reaches this file from create
//! routing, `destroy`, `open`/`recover`, maintenance rank 0 and
//! `compact_disk`; see its module docs for the `log` lock's place in the
//! lock order.

use std::collections::BTreeSet;

use bytes::Bytes;
use parking_lot::Mutex;

use amoeba_cap::{Capability, CheckScheme, ObjNum, Rights};
use amoeba_disk::{BlockDevice, MirroredDisk};
use amoeba_rpc::StreamWire;
use amoeba_sim::Nanos;

use super::{BulletConfig, BulletServer};
use crate::counters;
use crate::gclog::{self, ChainScan, LogWindow};
use crate::groupcommit::BatchCaps;
use crate::layout::{DiskDescriptor, Residency};
use crate::table::InodeTable;
use crate::BulletError;

/// The group-commit log's state: its window, under the log mutex.
pub(super) type Log = Mutex<LogWindow>;

impl BulletServer {
    /// Simulated linger window (250 µs) charged once per group-commit
    /// flush by [`gc_commit`](Self::gc_commit): the time the flush leader
    /// waits for straggler creates to join the batch before issuing the
    /// append.  Not a knob — nothing ever ran with another value.
    const LOG_LINGER: Nanos = Nanos(250_000);

    /// Maximum files per group-commit record (additionally clamped to
    /// what one record header block can name).  Not a knob — nothing
    /// ever ran with another value.
    pub const LOG_BATCH_MAX_FILES: usize = 32;

    /// Maximum total payload bytes per group-commit record; also the
    /// largest single create eligible for the log path — bigger files go
    /// direct, where the pipelined path already amortizes their cost.
    pub const LOG_BATCH_MAX_BYTES: u64 = 256 * 1024;

    /// Validates `cfg.log_blocks` against the formatted geometry and
    /// returns the log window's first block (`None` when disabled).
    fn check_log_geometry(
        cfg: &BulletConfig,
        desc: &DiskDescriptor,
    ) -> Result<Option<u64>, BulletError> {
        if cfg.log_blocks == 0 {
            return Ok(None);
        }
        if gclog::max_entries(desc.block_size as usize) == 0 {
            return Err(BulletError::Corrupt(format!(
                "a {}-byte block cannot hold a log record naming one file",
                desc.block_size
            )));
        }
        let data = desc.data_end() - desc.data_start();
        if cfg.log_blocks >= data {
            return Err(BulletError::Corrupt(format!(
                "log region of {} blocks leaves no data area (data blocks: {data})",
                cfg.log_blocks
            )));
        }
        Ok(Some(desc.data_end() - cfg.log_blocks))
    }

    /// The log window [`open`](Self::open) starts with (`None` with the
    /// log off).  `replay` is recovery's scan of the chain, where the
    /// window resumes; without one the window starts empty, and any stale
    /// record chain a reused device holds is broken: a chain can only
    /// start at the window's first block.  Homes are re-allocated on
    /// demand by log migration; the pre-crash reservations evaporate with
    /// the allocator rebuild.
    pub(super) fn log_window(
        cfg: &BulletConfig,
        storage: &MirroredDisk,
        table: &InodeTable,
        replay: Option<ChainScan>,
    ) -> Result<Option<Log>, BulletError> {
        let desc = table.descriptor();
        let Some(ls) = Self::check_log_geometry(cfg, desc)? else {
            return Ok(None);
        };
        let mut window = LogWindow::new(ls, desc.data_end());
        match replay {
            Some(scan) => {
                let resident = table
                    .live()
                    .filter(|(_, ino)| Self::residency(cfg, desc, ino) == Some(Residency::Log))
                    .count();
                let unsealed = scan.records.last().into_iter().flat_map(|r| &r.entries);
                let unsealed = unsealed.map(|e| e.index);
                window.restore(scan.head, scan.last_seq, resident as u64, unsealed);
            }
            None => {
                let zero = vec![0u8; desc.block_size as usize];
                storage.write_sync_k(ls, &zero, storage.replica_count())?;
            }
        }
        Ok(Some(Mutex::new(window)))
    }

    /// Recovery's log replay, before the allocator rebuild: walks the
    /// checksummed record chain (a torn tail fails its checksum and is
    /// dropped whole, like ABL13's torn inodes).  Only the last valid
    /// record can name files whose inode write-through had not landed at
    /// the crash — the commit protocol holds the log mutex until a
    /// record's inodes are durable, so every earlier record's files are
    /// already in the loaded table.  Reinstalls exactly the last record's
    /// entries whose slot is still free; an occupied slot means the inode
    /// landed (or was since migrated / reused) and must not be clobbered.
    /// Returns the scan the window resumes from (`None` with the log off).
    pub(super) fn replay_log(
        cfg: &BulletConfig,
        storage: &MirroredDisk,
        table: &mut InodeTable,
    ) -> Result<Option<ChainScan>, BulletError> {
        let desc = *table.descriptor();
        let Some(ls) = Self::check_log_geometry(cfg, &desc)? else {
            return Ok(None);
        };
        let bs = desc.block_size as usize;
        let scan = gclog::scan_chain(bs, ls, desc.data_end(), &mut |b, buf| {
            storage.read_blocks(b, buf).is_ok()
        });
        if let Some(last) = scan.records.last() {
            let inodes = gclog::record_inodes(bs as u64, last.at, &last.entries);
            let mut touched = BTreeSet::new();
            for (e, inode) in last.entries.iter().zip(inodes) {
                if table.put(e.index, inode).is_ok() {
                    touched.insert(table.block_of(e.index));
                }
            }
            // Complete the interrupted write-through so the replayed
            // batch is durable in the table again.
            for b in touched {
                storage.write_sync_k(b, &table.block_image(b), storage.replica_count())?;
            }
        }
        Ok(Some(scan))
    }

    /// The one routing rule for a create: through the log when it is on,
    /// the file is at most [`LOG_BATCH_MAX_BYTES`](Self::LOG_BATCH_MAX_BYTES)
    /// and no wire feeds it (a wire-fed create's segment pipeline already
    /// overlaps its cost); direct otherwise.
    pub(super) fn logged(&self, len: usize, wire: Option<&StreamWire>) -> bool {
        self.log.is_some() && wire.is_none() && len as u64 <= Self::LOG_BATCH_MAX_BYTES
    }

    /// A create that bypasses the log — too big for it, or its window is
    /// full (`log_fallback`) — on the direct path, under its own
    /// `bullet.create` span.
    fn create_unlogged(
        &self,
        data: Bytes,
        p_factor: u32,
        log_fallback: bool,
    ) -> Result<Capability, BulletError> {
        let mut op = self.cfg.trace.span("bullet.create");
        op.attr("op", "create");
        op.attr("bytes", data.len());
        if log_fallback {
            op.attr("log_fallback", true);
        }
        let size = data.len() as u32;
        self.create_direct(&mut op, data, size, p_factor, None)
    }

    /// Deterministic batched create: stores `files` through the
    /// group-commit log in argument order, cutting batches from that order
    /// with the committer's own rule ([`BatchCaps::take`]) rather than by
    /// arrival timing.  Returns one capability per file, in input order.
    ///
    /// This is the benchmark and ablation entry point: unlike concurrent
    /// [`create`](Self::create) calls racing into the shared committer —
    /// whose batch composition depends on thread scheduling — the batches
    /// formed here are a pure function of the input, so two identical
    /// runs charge identical simulated time and write identical records.
    ///
    /// With the log disabled this degrades to sequential creates; files
    /// above [`LOG_BATCH_MAX_BYTES`](Self::LOG_BATCH_MAX_BYTES) take the
    /// direct path.
    /// Grouped files are durable on every replica when the call returns.
    ///
    /// # Errors
    ///
    /// As [`create`](Self::create).  On the first error the call aborts;
    /// files from batches already committed remain live (sweep them via
    /// [`list_live_caps`](Self::list_live_caps) if needed).
    pub fn create_batch(
        &self,
        files: Vec<Bytes>,
        p_factor: u32,
    ) -> Result<Vec<Capability>, BulletError> {
        self.check_p_factor(p_factor)?;
        if self.log.is_none() {
            return files
                .into_iter()
                .map(|d| self.create(d, p_factor))
                .collect();
        }
        let caps = self.batch_caps();
        let mut out = Vec::with_capacity(files.len());
        let mut pending: Vec<Bytes> = Vec::new();
        // Commits the queued files as one batch, in order.
        let flush = |pending: &mut Vec<Bytes>, out: &mut Vec<Capability>| {
            if pending.is_empty() {
                return Ok(());
            }
            let mut op = self.cfg.trace.span("bullet.create_batch");
            op.attr("op", "create_batch");
            op.attr("files", pending.len());
            self.gc_commit(std::mem::take(pending))
                .into_iter()
                .try_for_each(|r| r.map(|cap| out.push(cap)))
        };
        for data in files {
            self.file_size(&data)?;
            self.charge_request();
            let logged = self.logged(data.len(), None);
            // The file joins the queued batch if the committer's rule
            // would take it; otherwise the batch commits first (order!).
            let joins = logged
                && caps.take(pending.iter().chain([&data]).map(|d| d.len() as u64)) > pending.len();
            if !joins {
                flush(&mut pending, &mut out)?;
            }
            if logged {
                pending.push(data);
            } else {
                out.push(self.create_unlogged(data, p_factor, false)?);
            }
        }
        flush(&mut pending, &mut out)?;
        Ok(out)
    }

    /// Per-batch caps handed to the committer: the file cap clamped to
    /// what one record header block can name, the byte cap, and a short
    /// *host-time* linger for the threaded path (the simulated
    /// counterpart is [`LOG_LINGER`](Self::LOG_LINGER)).
    pub(super) fn batch_caps(&self) -> BatchCaps {
        BatchCaps {
            max_files: Self::LOG_BATCH_MAX_FILES
                .min(gclog::max_entries(self.desc.block_size as usize)),
            max_bytes: Self::LOG_BATCH_MAX_BYTES,
            linger: std::time::Duration::from_micros(300),
        }
    }

    /// Commits one batch as a single sequential, checksummed, fully
    /// mirrored log append — the create path's tentpole.  One record
    /// (header block + block-aligned payloads) replaces per-file data
    /// writes, and the batch's inode write-through collapses to one write
    /// per *distinct* control block; the whole batch takes the allocator
    /// lock once ([`ExtentAllocator::alloc_batch`] reserves every file's
    /// future contiguous home up front).
    ///
    /// The log mutex is held across the entire commit (see the module
    /// docs): the record append is the durability point, and the inodes
    /// are on disk before the next record can append, which is what lets
    /// crash replay reinstall only the chain's last record.  Returns one
    /// result per file, in order; on any failure the batch rolls back
    /// whole — no half-committed batch is ever visible or recoverable.
    pub(super) fn gc_commit(&self, batch: Vec<Bytes>) -> Vec<Result<Capability, BulletError>> {
        let n = batch.len();
        debug_assert!(n > 0, "committer never flushes an empty batch");
        let bs = self.desc.block_size;
        let k = self.storage.replica_count();
        let sizes: Vec<u32> = batch.iter().map(|d| d.len() as u32).collect();
        let lens: Vec<u64> = sizes
            .iter()
            .map(|&s| gclog::payload_blocks_for(bs as u64, s))
            .collect();
        let rec_blocks = 1 + lens.iter().sum::<u64>();
        let total_bytes: u64 = sizes.iter().map(|&s| s as u64).sum();

        let maint = self.maint_read();
        // Uncounted by design: commits are serialized on this mutex on
        // purpose, so its "contention" is the batching doing its job.
        let log = self.log.as_ref().expect("a logged create implies a log");
        let mut st = log.lock();

        // Reserve the record, keeping one spare block behind it so a seal
        // record can always append while this batch is the newest (see
        // `log_seal`).
        let reserved = if st.remaining() > rec_blocks {
            st.reserve(rec_blocks)
        } else {
            None
        };
        let Some((at, seq)) = reserved else {
            // Window full (migration has fallen behind) or the batch is
            // bigger than the window: fall back to the direct per-file
            // path.  Drop the guards first — create_direct retakes them.
            drop(st);
            drop(maint);
            return batch
                .into_iter()
                .map(|d| self.create_unlogged(d, k as u32, true))
                .collect();
        };

        // One allocator section for the whole batch: its slots, the
        // contiguous homes the files will migrate to, and their randoms.
        let reserved = {
            let mut al = self.alloc_lock();
            let top = al.slots.len().checked_sub(n).ok_or(BulletError::NoInodes);
            top.and_then(|top| {
                let homes = al.extents.alloc_batch(&lens).ok_or(BulletError::NoSpace)?;
                let randoms: Vec<u64> = (0..n).map(|_| al.draw_random()).collect();
                Ok((
                    homes,
                    randoms,
                    al.slots.drain(top..).rev().collect::<Vec<_>>(),
                ))
            })
        };
        let (homes, randoms, idxs) = match reserved {
            Ok(r) => r,
            Err(e) => {
                st.unreserve(at, seq);
                return vec![Err(e); n];
            }
        };
        // Every failure from here on hands the reservation back whole,
        // slots in reverse so the free list is as it was.
        let release = |st: &mut LogWindow| {
            let mut al = self.alloc_lock();
            for (&s, &l) in homes.iter().zip(&lens) {
                al.extents.free(s, l).expect("just allocated");
            }
            al.slots.extend(idxs.iter().rev());
            st.unreserve(at, seq);
        };

        // Assemble and append the record — the durability point.  One
        // sequential mirrored write: one seek, amortized over the batch.
        let entries: Vec<gclog::LogEntry> = (0..n)
            .map(|i| gclog::LogEntry {
                index: idxs[i],
                random: randoms[i],
                size_bytes: sizes[i],
            })
            .collect();
        let payloads: Vec<&[u8]> = batch.iter().map(|d| &d[..]).collect();
        let image = gclog::encode_record(bs as usize, seq, &entries, &payloads);
        {
            // The linger window the batch accumulated over, plus the
            // assembly copy into the record image.
            let mut s = self.cfg.trace.span("gc.flush");
            s.attr("files", n);
            s.attr("bytes", total_bytes);
            self.cfg.clock.advance(Self::LOG_LINGER);
            self.cfg.clock.advance(self.cfg.cpu.memcpy(total_bytes));
        }
        self.stats.add(counters::PAYLOAD_BYTES_COPIED, total_bytes);
        if let Err(e) = self.storage.write_sync_k(at, &image, k) {
            release(&mut st);
            return vec![Err(BulletError::from(e)); n];
        }
        self.stats.incr(counters::LOG_APPENDS);
        self.stats.incr(counters::GROUP_COMMIT_FLUSHES);
        self.stats.add(counters::LOG_BATCH_FILES, n as u64);

        // Commit the whole batch: each inode (pointing into the log window
        // until migration repoints it at its home), its cache entry and its
        // age in one table section, then each *distinct* control block once
        // — the batch's inodes cluster in few blocks, which keeps the whole
        // batch at ~2 physical I/Os.  A cache refusal is not fatal: the
        // file is already durable in the log, and merely starts cold.
        let inodes = gclog::record_inodes(bs as u64, at, &entries);
        let committed = self.commit(
            &idxs,
            k,
            |t| {
                for ((&idx, inode), data) in idxs.iter().zip(inodes).zip(&batch) {
                    t.inodes.put(idx, inode).expect("a reserved slot is free");
                    let _ = self.cache_insert(t, idx, data.clone());
                    t.inodes.arm(idx, self.cfg.max_age);
                }
                Ok(())
            },
            |t| idxs.iter().try_for_each(|&idx| t.clear(idx)),
        );
        if let Err(e) = committed {
            // The record is durable but the inodes never were: hand the
            // reservation back, then seal the chain (best effort, in
            // place) so a later crash cannot resurrect the batch.
            release(&mut st);
            let _ = self.log_seal(&mut st, true);
            return vec![Err(e); n];
        }

        // Committed: bookkeeping and capabilities.
        st.note_batch(&idxs, homes.into_iter().zip(lens));
        self.stats.add(counters::CREATES, n as u64);
        self.stats.add(counters::BYTES_CREATED, total_bytes);
        (0..n)
            .map(|i| {
                Ok(self.scheme.mint(
                    self.cfg.port,
                    ObjNum::new(idxs[i]).expect("inode index fits 24 bits"),
                    Rights::ALL,
                    randoms[i],
                ))
            })
            .collect()
    }

    /// The one seal writer: an empty record at the window head (the
    /// caller holds the log guard), after which crash replay reinstalls
    /// no earlier record.  Appended before destroying a file of the
    /// newest batch — once its inode is zeroed on disk, replay would
    /// otherwise see a free slot named by a valid record and resurrect
    /// the file.  `in_place` cancels a batch whose inodes never landed:
    /// the seal overwrites its record, best effort, and the head stays
    /// put so the next record overwrites the seal.
    pub(super) fn log_seal(&self, st: &mut LogWindow, in_place: bool) -> Result<(), BulletError> {
        let Some((at, seq)) = st.reserve(1) else {
            // Unreachable by the spare-block invariant: every commit
            // leaves one free block behind its record while it is newest.
            debug_assert!(false, "no room for a seal record");
            if !in_place {
                st.seal();
            }
            return Ok(());
        };
        let seal = gclog::encode_record(self.desc.block_size as usize, seq, &[], &[]);
        if in_place {
            // The failed inode write left no replica the mirror counts
            // live, but a restart revives them all and replays what they
            // hold: the seal goes to each one directly.
            for i in 0..self.storage.replica_count() {
                let _ = self.storage.replica(i).write_blocks(at, &seal);
            }
            st.unreserve(at, seq);
            return Ok(());
        }
        if let Err(e) = self
            .storage
            .write_sync_k(at, &seal, self.storage.replica_count())
        {
            // Abort the caller before it destroys anything.
            st.unreserve(at, seq);
            return Err(e.into());
        }
        st.seal();
        self.stats.incr(counters::LOG_APPENDS);
        Ok(())
    }

    /// Moves the lowest-addressed log-resident file to its contiguous
    /// data-area home — preallocated at commit, or allocated now if the
    /// reservation was lost to a crash (homes are RAM-only).  The caller
    /// holds the maintenance guard and the log guard.  Returns the moved
    /// inode index, or `None` when the window holds no live files.
    ///
    /// The index stays in the window's unsealed set — its slot remains
    /// live, so replay skips it, and a later delete still seals the chain.
    pub(super) fn migrate_one_log_file(
        &self,
        st: &mut LogWindow,
    ) -> Result<Option<u32>, BulletError> {
        let picked = {
            let t = self.table_read();
            t.inodes
                .live()
                .filter(|&(_, inode)| self.residency_of(inode) == Ok(Residency::Log))
                .min_by_key(|&(_, inode)| inode.start_block)
                .map(|(i, inode)| (i, *inode))
        };
        let Some((idx, inode)) = picked else {
            return Ok(None);
        };
        let _busy = self.inflight_lock(idx);
        let blocks = inode.blocks(self.desc.block_size);
        // A failed move keeps the reservation for the retry.
        let home = st.home(idx, || {
            let start = self.alloc_lock().extents.alloc(blocks);
            start.map(|s| (s, blocks)).ok_or(BulletError::NoSpace)
        })?;
        debug_assert_eq!(home.1, blocks, "home reservation matches the extent");
        self.move_extent(idx, &inode, home.0)?;
        st.forget(idx);
        self.stats.incr(counters::LOG_MIGRATIONS);
        Ok(Some(idx))
    }
}
