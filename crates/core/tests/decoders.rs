//! Decoders of on-disk bytes never panic.  Recovery is "scan the inode
//! table and trust it", so whatever a device holds — a foreign disk, a
//! torn table, a log window of garbage — the start-up scan
//! (`InodeTable::load`) must answer `Ok` or `Err`, and the
//! log replay walk (`gclog::scan_chain`) must return a chain, however
//! short.  A panic here would turn a damaged disk into a server that
//! cannot even say what is wrong with it.

use amoeba_disk::{BlockDevice, RamDisk};
use bullet_core::gclog::{self, LogEntry};
use bullet_core::table::{InodeTable, RepairPolicy};
use bullet_core::{BulletConfig, BulletServer, DiskDescriptor};
use bytes::Bytes;
use proptest::prelude::*;

/// A device of `blocks` blocks holding `image` from block 0 on, zero
/// padded and cut to the device's size.
fn device(block_size: u32, blocks: u64, image: &[u8]) -> RamDisk {
    let dev = RamDisk::new(block_size, blocks);
    let mut raw = vec![0u8; (block_size as u64 * blocks) as usize];
    let n = image.len().min(raw.len());
    raw[..n].copy_from_slice(&image[..n]);
    dev.write_blocks(0, &raw).unwrap();
    dev
}

/// The start-up scan under both repair policies, without and with an
/// archive tier; a table it accepts must also be walkable and writable.
fn load_every_way(dev: &RamDisk, archive_blocks: u64) {
    for policy in [RepairPolicy::Fail, RepairPolicy::ZeroBad] {
        for archive in [0, archive_blocks] {
            if let Ok(report) = InodeTable::load(dev, policy, archive) {
                let table = report.table;
                assert_eq!(table.live().count(), table.live_count());
                for b in 0..table.descriptor().control_blocks as u64 {
                    table.block_image(b);
                }
            }
        }
    }
}

/// Device block sizes: the smallest legal one (a lone inode per block),
/// an odd multiple of the inode, and the usual sector.
fn arb_block_size() -> impl Strategy<Value = u32> {
    prop_oneof![Just(16u32), Just(48u32), Just(512u32)]
}

/// A descriptor field: usually near the device's size, where the bounds
/// checks sit, otherwise anywhere in 32 bits.
fn field(raw: u32, blocks: u64) -> u32 {
    if raw & 1 == 0 {
        raw % (blocks as u32 + 3)
    } else {
        raw
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Block 0 is arbitrary bytes — half the time under a descriptor slot
    /// that carries the magic and an arbitrary geometry.
    #[test]
    fn the_start_up_scan_never_panics_on_a_random_block_zero(
        block_size in arb_block_size(),
        blocks in 2u64..64,
        mut image in prop::collection::vec(any::<u8>(), 16..2048),
        magic in any::<bool>(),
        raw in (any::<u32>(), any::<u32>(), any::<u32>()),
        archive in any::<u64>(),
    ) {
        if magic {
            let slot = DiskDescriptor {
                block_size: if raw.0 & 1 == 0 { block_size } else { raw.0 },
                control_blocks: field(raw.1, blocks),
                data_blocks: field(raw.2, blocks),
            };
            image[..16].copy_from_slice(&slot.encode());
        }
        load_every_way(&device(block_size, blocks, &image), archive);
    }

    /// A valid descriptor followed by arbitrary inode blocks: extents land
    /// inside, across and outside every region, and overlap each other.
    #[test]
    fn the_start_up_scan_never_panics_on_random_inode_blocks(
        block_size in arb_block_size(),
        blocks in 4u64..64,
        min_inodes in 1u32..64,
        inodes in prop::collection::vec(any::<u8>(), 0..4096),
        archive in prop_oneof![0u64..16, any::<u64>()],
    ) {
        let Ok(desc) = DiskDescriptor::plan(block_size, blocks, min_inodes) else {
            return Ok(()); // the table does not fit the device
        };
        let mut image = desc.encode().to_vec();
        image.extend_from_slice(&inodes);
        load_every_way(&device(block_size, blocks, &image), archive);
    }

    /// A log window of arbitrary bytes, half the time opening on a chain
    /// of genuine records with bytes flipped afterwards, walked over any
    /// window that starts and ends near the region read back.
    #[test]
    fn the_log_scan_never_panics_on_a_random_window(
        block_size in prop_oneof![Just(16usize), Just(24usize), Just(64usize), Just(512usize)],
        mut region in prop::collection::vec(any::<u8>(), 0..8192),
        records in prop::collection::vec(
            prop::collection::vec((any::<u32>(), any::<u64>(), 0u32..2000), 0..4),
            0..4,
        ),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..4),
        bounds in (0u64..8, 0u64..40),
    ) {
        let mut at = 0;
        let planted = if block_size < gclog::HEADER_BYTES { &[][..] } else { &records[..] };
        for (seq, files) in planted.iter().enumerate() {
            let entries: Vec<LogEntry> = files
                .iter()
                .take(gclog::max_entries(block_size))
                .map(|&(index, random, size_bytes)| LogEntry { index, random, size_bytes })
                .collect();
            let payloads: Vec<Vec<u8>> =
                entries.iter().map(|e| vec![0x5a; e.size_bytes as usize]).collect();
            let payloads: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            let record = gclog::encode_record(block_size, seq as u64 + 1, &entries, &payloads);
            if at + record.len() > region.len() {
                break;
            }
            region[at..at + record.len()].copy_from_slice(&record);
            at += record.len();
        }
        if !region.is_empty() {
            for (i, b) in &flips {
                let i = i.index(region.len());
                region[i] ^= b;
            }
        }
        // The region is blocks [BASE, BASE + n); reads outside it fail.
        // Half the windows open where the records were planted.
        const BASE: u64 = 100;
        let n = (region.len() / block_size) as u64;
        let start = if bounds.0 < 4 { BASE } else { BASE + bounds.0 - 6 };
        let end = BASE + bounds.1;
        let scan = gclog::scan_chain(block_size, start, end, &mut |b, buf| {
            let Some(i) = b.checked_sub(BASE).filter(|&i| i < n) else {
                return false;
            };
            let off = i as usize * block_size;
            buf.copy_from_slice(&region[off..off + block_size]);
            true
        });
        prop_assert!(scan.head >= start);
        prop_assert!(scan.records.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}

/// Found by the log-window walk above, whose planted records need a
/// header block: the inode table accepts 16- and 32-byte blocks, but
/// neither holds a log record naming one file, so a server with a log on
/// such a disk started and then panicked on its first grouped create.
/// The log geometry check now refuses it; 48 bytes is the smallest block
/// with a log.
#[test]
fn a_log_on_blocks_too_small_for_a_record_is_refused() {
    let with_log = |block_size| {
        let mut cfg = BulletConfig::small_test();
        cfg.block_size = block_size;
        cfg.disk_blocks = 4096;
        cfg.log_blocks = 64;
        BulletServer::format(cfg, 2)
    };
    for block_size in [16, 32] {
        let err = with_log(block_size).unwrap_err().to_string();
        assert!(err.contains("cannot hold a log record"), "{err}");
    }
    let s = with_log(48).unwrap();
    let cap = s
        .create(Bytes::from_static(b"one file per record"), 1)
        .unwrap();
    assert_eq!(&s.read(&cap).unwrap()[..], b"one file per record");
}
