//! Group-commit log records: format, checksums, and the replay scan.
//!
//! A batch of concurrent CREATEs is committed as **one** sequential log
//! record in the log window at the tail of the data area (bookkeeping in
//! [`LogWindow`]).  A record is:
//!
//! ```text
//! block 0 (header block):
//!   0..4    magic  "BLG1"
//!   4..12   seq             u64  — strictly increasing along the chain
//!   12..16  payload_blocks  u32  — blocks following the header
//!   16..20  file_count      u32  — entries in this record
//!   20..24  crc             u32  — CRC-32 of the whole record, crc field
//!                                  zeroed (checksum-delimited, like the
//!                                  ABL13 torn-inode scan)
//!   24..    file_count × 16-byte entries:
//!             0..4   inode index   u32
//!             4..12  random        u64  (the capability's 48-bit check)
//!             12..16 size_bytes    u32
//! blocks 1..=payload_blocks:
//!   each file's payload, block-aligned, in entry order; a file of
//!   `size_bytes` occupies the same number of blocks its inode will claim
//!   (`ceil(size/bs)`, minimum 1), so the file table can point straight
//!   into the log region and reads work unchanged.
//! ```
//!
//! An **empty** record (`file_count == 0`, `payload_blocks == 0`) is a
//! *seal*: it advances the chain so that no earlier record will be
//! replayed — appended before deleting a file that the newest record
//! created (see *Sealing* below for why).
//!
//! Replay walks the chain from the window start, accepting records while
//! the magic and CRC check out, the record fits the window, and the
//! sequence number strictly increases (a post-reset chain overwrites the
//! window head, so stale old records past the new tail carry *lower*
//! sequence numbers and the walk stops).  Only the **last** record's
//! entries are candidates for reinstallation — the commit protocol keeps
//! the log mutex held until a record's inode blocks are durable, so every
//! earlier record's files are already in the on-disk table.
//!
//! # The window
//!
//! [`LogWindow`] is the bookkeeping half of the log: where the next
//! record lands (`head`), the monotone record sequence number that
//! delimits the replay chain, how many live files still reside in the
//! window, and which file ids belong to the newest — *unsealed* —
//! record.  The block I/O goes through
//! [`MirroredDisk::write_sync_k`](amoeba_disk::MirroredDisk::write_sync_k)
//! like every other write, so log appends inherit mirroring, failover,
//! and the seek-aware scheduler unchanged.
//!
//! # Sealing
//!
//! Replay reinstalls missing files from the **last** valid record of the
//! chain only (earlier records are known durable in the inode table — see
//! the commit protocol in DESIGN.md §12).  Deleting a file of that newest
//! record would therefore look, after a crash, exactly like a commit whose
//! inode write never landed — and replay would resurrect it.  The server
//! prevents this by appending an empty seal record before such a delete;
//! [`LogWindow`] tracks the membership set that decides when a seal is
//! required.

use std::collections::{HashMap, HashSet};

use crate::layout::Inode;

/// Magic bytes opening every log record header.
pub const LOG_MAGIC: [u8; 4] = *b"BLG1";

/// Fixed header bytes before the entry array.
pub const HEADER_BYTES: usize = 24;

/// Bytes per file entry in the header block.
pub const ENTRY_BYTES: usize = 16;

const OFF_SEQ: usize = 4;
const OFF_PAYLOAD_BLOCKS: usize = 12;
const OFF_FILE_COUNT: usize = 16;
const OFF_CRC: usize = 20;

/// One file of a committed batch, as named by the record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Inode table slot the file was published under.
    pub index: u32,
    /// The capability's random check field (48 significant bits).
    pub random: u64,
    /// File length in bytes.
    pub size_bytes: u32,
}

/// A record accepted by [`scan_chain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Absolute block of the header.
    pub at: u64,
    /// The record's sequence number.
    pub seq: u64,
    /// Files committed by this record (empty for a seal).
    pub entries: Vec<LogEntry>,
}

/// Result of walking the record chain in a log window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainScan {
    /// Every valid record, in chain order.
    pub records: Vec<LogRecord>,
    /// First block past the last valid record — where appends resume.
    pub head: u64,
    /// Sequence number of the last valid record (0 for an empty chain).
    pub last_seq: u64,
}

/// CRC-32 (IEEE, reflected polynomial `0xEDB88320`) — bit-serial, no
/// table, no dependency; the log writes are block-sized so this is not a
/// hot path.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// How many file entries fit in one header block.
pub fn max_entries(block_size: usize) -> usize {
    block_size.saturating_sub(HEADER_BYTES) / ENTRY_BYTES
}

/// Blocks a file's payload occupies inside a record — identical to the
/// blocks its inode claims, so a table entry can point into the log.
pub fn payload_blocks_for(block_size: u64, size_bytes: u32) -> u64 {
    Inode {
        random: 1,
        index: 0,
        start_block: 0,
        size_bytes,
    }
    .blocks(block_size as u32)
}

/// Assembles a complete, checksummed record image.
///
/// `entries[i]` describes `payloads[i]`; payloads are padded to block
/// boundaries.  An empty batch produces a one-block seal record.
///
/// # Panics
///
/// Panics if the entry and payload counts differ, a payload is longer
/// than its entry's `size_bytes` claims in blocks, or more entries are
/// given than [`max_entries`] allows — all caller bugs.
pub fn encode_record(
    block_size: usize,
    seq: u64,
    entries: &[LogEntry],
    payloads: &[&[u8]],
) -> Vec<u8> {
    assert_eq!(entries.len(), payloads.len(), "entry/payload mismatch");
    assert!(
        entries.len() <= max_entries(block_size),
        "batch exceeds header capacity"
    );
    let bs = block_size as u64;
    let payload_blocks: u64 = entries
        .iter()
        .map(|e| payload_blocks_for(bs, e.size_bytes))
        .sum();
    let total = (1 + payload_blocks) as usize * block_size;
    let mut buf = vec![0u8; total];

    buf[..4].copy_from_slice(&LOG_MAGIC);
    buf[OFF_SEQ..OFF_SEQ + 8].copy_from_slice(&seq.to_be_bytes());
    buf[OFF_PAYLOAD_BLOCKS..OFF_PAYLOAD_BLOCKS + 4]
        .copy_from_slice(&(payload_blocks as u32).to_be_bytes());
    buf[OFF_FILE_COUNT..OFF_FILE_COUNT + 4].copy_from_slice(&(entries.len() as u32).to_be_bytes());

    let mut off = HEADER_BYTES;
    for e in entries {
        buf[off..off + 4].copy_from_slice(&e.index.to_be_bytes());
        buf[off + 4..off + 12].copy_from_slice(&e.random.to_be_bytes());
        buf[off + 12..off + 16].copy_from_slice(&e.size_bytes.to_be_bytes());
        off += ENTRY_BYTES;
    }

    let mut cursor = block_size;
    for (e, p) in entries.iter().zip(payloads) {
        let span = payload_blocks_for(bs, e.size_bytes) as usize * block_size;
        assert!(p.len() <= span, "payload longer than its block span");
        buf[cursor..cursor + p.len()].copy_from_slice(p);
        cursor += span;
    }

    let crc = crc32(&buf);
    buf[OFF_CRC..OFF_CRC + 4].copy_from_slice(&crc.to_be_bytes());
    buf
}

/// A parsed (but not yet checksum-verified) record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// The record's sequence number.
    pub seq: u64,
    /// Blocks following the header block.
    pub payload_blocks: u32,
    /// File entries in the header block.
    pub file_count: u32,
    /// Stored CRC-32 of the whole record (crc field zeroed).
    pub crc: u32,
}

/// Parses a header block; `None` if the magic is absent or the entry
/// count cannot fit the block.
pub fn decode_header(block_size: usize, block: &[u8]) -> Option<RecordHeader> {
    if block.len() < HEADER_BYTES || block[..4] != LOG_MAGIC {
        return None;
    }
    let seq = u64::from_be_bytes(block[OFF_SEQ..OFF_SEQ + 8].try_into().ok()?);
    let payload_blocks = u32::from_be_bytes(
        block[OFF_PAYLOAD_BLOCKS..OFF_PAYLOAD_BLOCKS + 4]
            .try_into()
            .ok()?,
    );
    let file_count = u32::from_be_bytes(block[OFF_FILE_COUNT..OFF_FILE_COUNT + 4].try_into().ok()?);
    let crc = u32::from_be_bytes(block[OFF_CRC..OFF_CRC + 4].try_into().ok()?);
    if file_count as usize > max_entries(block_size) {
        return None;
    }
    Some(RecordHeader {
        seq,
        payload_blocks,
        file_count,
        crc,
    })
}

/// Extracts the entry array from a record image whose header was already
/// accepted.
pub fn decode_entries(image: &[u8], file_count: u32) -> Vec<LogEntry> {
    let mut entries = Vec::with_capacity(file_count as usize);
    let mut off = HEADER_BYTES;
    for _ in 0..file_count {
        entries.push(LogEntry {
            index: u32::from_be_bytes(image[off..off + 4].try_into().unwrap()),
            random: u64::from_be_bytes(image[off + 4..off + 12].try_into().unwrap()),
            size_bytes: u32::from_be_bytes(image[off + 12..off + 16].try_into().unwrap()),
        });
        off += ENTRY_BYTES;
    }
    entries
}

/// Verifies a full record image against its stored checksum.
pub fn verify_record(image: &[u8]) -> bool {
    if image.len() < HEADER_BYTES {
        return false;
    }
    let stored = u32::from_be_bytes(image[OFF_CRC..OFF_CRC + 4].try_into().unwrap());
    let mut scratch = image.to_vec();
    scratch[OFF_CRC..OFF_CRC + 4].fill(0);
    crc32(&scratch) == stored
}

/// The inode each entry of a record at block `at` names, over its
/// payload: what a group commit publishes and crash replay reinstalls.
pub fn record_inodes(block_size: u64, at: u64, entries: &[LogEntry]) -> Vec<Inode> {
    let mut start = at + 1;
    let inode = |e: &LogEntry| {
        let inode = Inode {
            random: e.random,
            index: 0,
            start_block: start as u32,
            size_bytes: e.size_bytes,
        };
        start += payload_blocks_for(block_size, e.size_bytes);
        inode
    };
    entries.iter().map(inode).collect()
}

/// Walks the record chain of the window `[start, end)`.
///
/// `read_block(abs_block, buf)` fills `buf` (one block) and returns
/// `false` on device error — which, like any malformed record, simply
/// ends the chain.  A torn tail (bad magic, short window, non-monotone
/// sequence, or checksum mismatch) is dropped whole: a committed batch is
/// never half-applied.
pub fn scan_chain(
    block_size: usize,
    start: u64,
    end: u64,
    read_block: &mut dyn FnMut(u64, &mut [u8]) -> bool,
) -> ChainScan {
    let mut records = Vec::new();
    let mut at = start;
    let mut last_seq = 0u64;
    let mut block = vec![0u8; block_size];
    loop {
        if at >= end {
            break;
        }
        if !read_block(at, &mut block) {
            break;
        }
        let Some(hdr) = decode_header(block_size, &block) else {
            break;
        };
        if hdr.seq <= last_seq {
            break;
        }
        let span = 1 + u64::from(hdr.payload_blocks);
        if at + span > end {
            break;
        }
        let mut image = vec![0u8; span as usize * block_size];
        image[..block_size].copy_from_slice(&block);
        let mut ok = true;
        for i in 1..span {
            let dst = i as usize * block_size;
            if !read_block(at + i, &mut image[dst..dst + block_size]) {
                ok = false;
                break;
            }
        }
        if !ok || !verify_record(&image) {
            break;
        }
        records.push(LogRecord {
            at,
            seq: hdr.seq,
            entries: decode_entries(&image, hdr.file_count),
        });
        last_seq = hdr.seq;
        at += span;
    }
    ChainScan {
        records,
        head: at,
        last_seq,
    }
}

/// Bookkeeping for one mirror pair's sequential log window, plus the
/// preallocated contiguous home of every log-resident file.
///
/// All methods are O(1) or O(batch); the caller (the Bullet server) holds
/// its log mutex around them and around the record I/O itself, so the
/// on-disk chain of records is strictly sequential.
///
/// Homes are reserved at commit time — one
/// [`ExtentAllocator::alloc_batch`](crate::ExtentAllocator::alloc_batch)
/// call per batch, so the whole batch takes the allocator lock once and
/// (when a contiguous run exists) its files land adjacent after
/// migration.  They are RAM-only: after a crash log migration
/// re-allocates homes on demand, and the allocator rebuild never sees
/// the forgotten reservations, so no free space leaks across recovery.
#[derive(Debug, Clone)]
pub struct LogWindow {
    start: u64,
    end: u64,
    head: u64,
    /// Sequence number the *next* record will carry.  Monotone across the
    /// window's whole lifetime — it never resets, which is what lets the
    /// replay scan tell a fresh record from a stale pre-reset one.
    seq: u64,
    /// Live files whose payload currently resides in the window.
    resident: u64,
    /// File ids of the newest (unsealed) record.
    unsealed: HashSet<u32>,
    /// Each resident file's reserved home `(start, blocks)`.
    homes: HashMap<u32, (u64, u64)>,
}

impl LogWindow {
    /// A window over `[start, end)` with an empty chain.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn new(start: u64, end: u64) -> LogWindow {
        assert!(end >= start, "inverted log window");
        LogWindow {
            start,
            end,
            head: start,
            seq: 1,
            resident: 0,
            unsealed: HashSet::new(),
            homes: HashMap::new(),
        }
    }

    /// Blocks still available for appends before the window is full.
    pub fn remaining(&self) -> u64 {
        self.end - self.head
    }

    /// Live files currently resident in the window.
    pub fn resident(&self) -> u64 {
        self.resident
    }

    /// Reserves `blocks` for the next record and returns `(at, seq)`, or
    /// `None` when the window cannot take the record (the caller then
    /// falls back to the per-file create path).
    pub fn reserve(&mut self, blocks: u64) -> Option<(u64, u64)> {
        if blocks == 0 || self.head + blocks > self.end {
            return None;
        }
        let at = self.head;
        let seq = self.seq;
        self.head += blocks;
        self.seq += 1;
        Some((at, seq))
    }

    /// Rolls a failed append back to the pre-[`reserve`](Self::reserve)
    /// position.  Only valid for the most recent reservation (appends are
    /// serialized by the caller).
    pub fn unreserve(&mut self, at: u64, seq: u64) {
        debug_assert_eq!(self.seq, seq + 1, "unreserve out of order");
        self.head = at;
        self.seq = seq;
    }

    /// Registers a committed batch: `ids` become the new unsealed set,
    /// the window's resident census grows by them, and `homes[i]` is the
    /// home reserved for `ids[i]`.
    pub fn note_batch(&mut self, ids: &[u32], homes: impl IntoIterator<Item = (u64, u64)>) {
        self.unsealed.clear();
        self.unsealed.extend(ids.iter().copied());
        self.resident += ids.len() as u64;
        self.homes.extend(ids.iter().copied().zip(homes));
    }

    /// The home reserved for resident file `id`; one lost to a crash is
    /// reserved now through `lost` and kept until the file is
    /// [`forget`](Self::forget)-ten.
    ///
    /// # Errors
    ///
    /// Whatever `lost` returns.
    pub fn home<E>(
        &mut self,
        id: u32,
        lost: impl FnOnce() -> Result<(u64, u64), E>,
    ) -> Result<(u64, u64), E> {
        if let Some(&home) = self.homes.get(&id) {
            return Ok(home);
        }
        let home = lost()?;
        self.homes.insert(id, home);
        Ok(home)
    }

    /// True when `id` belongs to the newest record — deleting it requires
    /// a seal record first (see the module docs).
    pub fn is_unsealed(&self, id: u32) -> bool {
        self.unsealed.contains(&id)
    }

    /// Marks the chain sealed (an empty seal record was appended): no
    /// file of any earlier record will be replayed.
    pub fn seal(&mut self) {
        self.unsealed.clear();
    }

    /// Resident file `id` left the window (deleted, expired, or migrated
    /// out): hands back its home reservation, if it still holds one, for
    /// the caller to free or, after a migration, to live in.
    pub fn forget(&mut self, id: u32) -> Option<(u64, u64)> {
        self.file_gone();
        self.homes.remove(&id)
    }

    /// One resident file fewer.  An emptied window rewinds its head to
    /// the start so the space is reused.  The sequence number keeps
    /// counting (never resets) and the unsealed set survives: a file of
    /// the pre-rewind newest record that was migrated out — slot still
    /// live — may be deleted later, and that delete must still seal.
    fn file_gone(&mut self) {
        debug_assert!(self.resident > 0, "file_gone on an empty window");
        self.resident = self.resident.saturating_sub(1);
        if self.resident == 0 {
            self.head = self.start;
        }
    }

    /// Restores the bookkeeping after a recovery scan: the chain ends at
    /// `head`, the last record carried `last_seq` (0 when the chain is
    /// empty), and `resident` files survive.
    pub fn restore(
        &mut self,
        head: u64,
        last_seq: u64,
        resident: u64,
        unsealed: impl IntoIterator<Item = u32>,
    ) {
        self.head = head.clamp(self.start, self.end);
        self.seq = last_seq + 1;
        self.resident = resident;
        self.unsealed = unsealed.into_iter().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LogWindow {
        /// Blocks held by home reservations (for tests that audit the
        /// allocator against the table).
        pub(crate) fn reserved_blocks(&self) -> u64 {
            self.homes.values().map(|&(_, blocks)| blocks).sum()
        }
    }

    const BS: usize = 512;

    fn reader(region: &[u8]) -> impl FnMut(u64, &mut [u8]) -> bool + '_ {
        move |blk, buf: &mut [u8]| {
            let off = blk as usize * BS;
            if off + BS > region.len() {
                return false;
            }
            buf.copy_from_slice(&region[off..off + BS]);
            true
        }
    }

    fn sample_entries() -> Vec<LogEntry> {
        vec![
            LogEntry {
                index: 3,
                random: 0xABCD_EF01_2345,
                size_bytes: 700,
            },
            LogEntry {
                index: 9,
                random: 0x1111_2222_3333,
                size_bytes: 10,
            },
        ]
    }

    #[test]
    fn record_round_trips() {
        let entries = sample_entries();
        let a = vec![7u8; 700];
        let b = vec![9u8; 10];
        let img = encode_record(BS, 5, &entries, &[&a, &b]);
        // 1 header + 2 blocks (700 B) + 1 block (10 B).
        assert_eq!(img.len(), 4 * BS);
        assert!(verify_record(&img));
        let hdr = decode_header(BS, &img[..BS]).unwrap();
        assert_eq!(hdr.seq, 5);
        assert_eq!(hdr.payload_blocks, 3);
        assert_eq!(hdr.file_count, 2);
        assert_eq!(decode_entries(&img, 2), entries);
        let inodes = record_inodes(BS as u64, 10, &entries);
        let starts: Vec<u32> = inodes.iter().map(|i| i.start_block).collect();
        assert_eq!(starts, [11, 13]);
        assert_eq!(inodes[1].random, entries[1].random);
        // Payloads land block-aligned in entry order.
        assert_eq!(&img[BS..BS + 700], &a[..]);
        assert_eq!(&img[3 * BS..3 * BS + 10], &b[..]);
    }

    #[test]
    fn a_flipped_byte_fails_verification() {
        let entries = sample_entries();
        let a = vec![7u8; 700];
        let b = vec![9u8; 10];
        let mut img = encode_record(BS, 5, &entries, &[&a, &b]);
        img[2 * BS + 100] ^= 0x40; // corrupt mid-payload
        assert!(!verify_record(&img));
    }

    #[test]
    fn seal_record_is_one_empty_block() {
        let img = encode_record(BS, 9, &[], &[]);
        assert_eq!(img.len(), BS);
        assert!(verify_record(&img));
        let hdr = decode_header(BS, &img).unwrap();
        assert_eq!((hdr.file_count, hdr.payload_blocks), (0, 0));
    }

    #[test]
    fn capacity_matches_the_layout() {
        assert_eq!(max_entries(512), (512 - 24) / 16); // 30
        assert_eq!(max_entries(1024), (1024 - 24) / 16); // 62
    }

    #[test]
    fn chain_scan_accepts_valid_prefix_and_drops_torn_tail() {
        let e1 = vec![LogEntry {
            index: 1,
            random: 42,
            size_bytes: 512,
        }];
        let p1 = vec![1u8; 512];
        let e2 = vec![LogEntry {
            index: 2,
            random: 43,
            size_bytes: 100,
        }];
        let p2 = vec![2u8; 100];
        let r1 = encode_record(BS, 1, &e1, &[&p1]);
        let r2 = encode_record(BS, 2, &e2, &[&p2]);
        let mut r3 = encode_record(
            BS,
            3,
            &[LogEntry {
                index: 4,
                random: 44,
                size_bytes: 50,
            }],
            &[&[5u8; 50]],
        );
        r3[BS + 7] ^= 0xFF; // torn: payload corrupted after the header landed

        let mut region = Vec::new();
        region.extend_from_slice(&r1);
        region.extend_from_slice(&r2);
        region.extend_from_slice(&r3);
        region.resize(16 * BS, 0);

        let scan = scan_chain(BS, 0, 16, &mut reader(&region));
        assert_eq!(scan.records.len(), 2, "torn third record dropped whole");
        assert_eq!(scan.last_seq, 2);
        // Head resumes right after the last *valid* record.
        assert_eq!(scan.head, (r1.len() + r2.len()) as u64 / BS as u64);
        assert_eq!(scan.records[1].entries, e2);
    }

    #[test]
    fn chain_scan_stops_at_stale_lower_seq_records() {
        // Simulate a reset: a fresh seq-10 record overwrote the window
        // head, but a stale seq-3 record survives right behind it.
        let fresh = encode_record(
            BS,
            10,
            &[LogEntry {
                index: 7,
                random: 1,
                size_bytes: 10,
            }],
            &[&[3u8; 10]],
        );
        let stale = encode_record(
            BS,
            3,
            &[LogEntry {
                index: 8,
                random: 2,
                size_bytes: 10,
            }],
            &[&[4u8; 10]],
        );
        let mut region = Vec::new();
        region.extend_from_slice(&fresh);
        region.extend_from_slice(&stale);
        region.resize(8 * BS, 0);

        let scan = scan_chain(BS, 0, 8, &mut reader(&region));
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.last_seq, 10);
        assert_eq!(scan.head, 2);
    }

    #[test]
    fn chain_scan_rejects_records_overflowing_the_window() {
        // A header claiming more payload than the window holds is torn.
        let good = encode_record(
            BS,
            1,
            &[LogEntry {
                index: 1,
                random: 5,
                size_bytes: 10,
            }],
            &[&[1u8; 10]],
        );
        let mut huge = encode_record(BS, 2, &[], &[]);
        huge[OFF_PAYLOAD_BLOCKS..OFF_PAYLOAD_BLOCKS + 4].copy_from_slice(&100u32.to_be_bytes());
        let crc_fix = {
            let mut s = huge.clone();
            s[OFF_CRC..OFF_CRC + 4].fill(0);
            crc32(&s)
        };
        huge[OFF_CRC..OFF_CRC + 4].copy_from_slice(&crc_fix.to_be_bytes());

        let mut region = Vec::new();
        region.extend_from_slice(&good);
        region.extend_from_slice(&huge);
        region.resize(4 * BS, 0);

        let scan = scan_chain(BS, 0, 4, &mut reader(&region));
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.head, 2, "oversized record ends the chain");
    }

    #[test]
    fn empty_window_scans_empty() {
        let region = vec![0u8; 4 * BS];
        let scan = scan_chain(BS, 0, 4, &mut reader(&region));
        assert!(scan.records.is_empty());
        assert_eq!((scan.head, scan.last_seq), (0, 0));
    }

    #[test]
    fn reserve_appends_sequentially_with_monotone_seq() {
        let mut w = LogWindow::new(100, 132);
        assert_eq!(w.reserve(8), Some((100, 1)));
        assert_eq!(w.reserve(8), Some((108, 2)));
        assert_eq!(w.remaining(), 16);
        // A record that does not fit is refused without moving the head.
        assert_eq!(w.reserve(17), None);
        assert_eq!(w.reserve(16), Some((116, 3)));
        assert_eq!(w.reserve(1), None);
    }

    #[test]
    fn unreserve_rolls_back_the_last_reservation() {
        let mut w = LogWindow::new(0, 64);
        let (at, seq) = w.reserve(10).unwrap();
        w.unreserve(at, seq);
        assert_eq!(w.reserve(10), Some((0, 1)), "rollback restores at and seq");
    }

    #[test]
    fn reset_rewinds_head_but_not_seq() {
        let mut w = LogWindow::new(0, 32);
        w.reserve(16).unwrap();
        w.note_batch(&[5, 6], [(40, 1), (41, 2)]);
        assert_eq!(w.forget(5), Some((40, 1)));
        assert_eq!(w.remaining(), 16, "one file still resident");
        assert_eq!(w.forget(6), Some((41, 2)));
        assert_eq!(w.remaining(), 32, "the second departure empties the window");
        // Seq keeps counting: a post-reset record outranks stale ones.
        assert_eq!(w.reserve(4), Some((0, 2)));
    }

    #[test]
    fn sealing_rules() {
        let mut w = LogWindow::new(0, 64);
        w.reserve(8).unwrap();
        w.note_batch(&[1, 2], []);
        assert!(w.is_unsealed(1));
        assert!(!w.is_unsealed(9));
        // A newer batch replaces the unsealed set.
        w.reserve(8).unwrap();
        w.note_batch(&[3], []);
        assert!(!w.is_unsealed(1));
        assert!(w.is_unsealed(3));
        w.seal();
        assert!(!w.is_unsealed(3));
    }

    #[test]
    fn unsealed_set_survives_reset() {
        let mut w = LogWindow::new(0, 64);
        w.reserve(8).unwrap();
        w.note_batch(&[7], []);
        // The file migrates out (slot stays live) and the window rewinds.
        w.forget(7);
        assert_eq!(w.remaining(), 64);
        // Its later delete must still seal: the stale record would
        // otherwise be replayed after a crash.
        assert!(w.is_unsealed(7));
    }

    #[test]
    fn restore_after_recovery() {
        let mut w = LogWindow::new(10, 90);
        w.restore(50, 12, 3, [4, 5]);
        assert_eq!(w.remaining(), 40);
        assert_eq!(w.resident(), 3);
        assert!(w.is_unsealed(4));
        assert_eq!(w.reserve(10), Some((50, 13)));
        assert_eq!(w.remaining(), 30);
    }
}
