//! Conformance of `BlockDevice::read_blocks_append` across every device:
//! it appends exactly the bytes `read_blocks` returns, leaves what `out`
//! held untouched, and leaves `out` at its entry length on any error.

use std::sync::Arc;

use amoeba_disk::{
    BlockDevice, CrashDisk, DiskError, FaultyDisk, FileDisk, MirroredDisk, RamDisk, SchedConfig,
    SchedDisk, WormDisk,
};
use amoeba_sim::{DiskProfile, SimClock};

const BS: u32 = 128;
const BLOCKS: u64 = 16;
const PREFIX: &[u8] = b"bytes already in the buffer";

fn sched(inner: RamDisk, clock: &SimClock) -> SchedDisk<RamDisk> {
    SchedDisk::new(
        inner,
        clock.clone(),
        DiskProfile::scsi_1989(),
        SchedConfig::default(),
    )
}

/// Two faultable replicas and the mirror over them.
fn mirror() -> (
    MirroredDisk,
    Arc<FaultyDisk<RamDisk>>,
    Arc<FaultyDisk<RamDisk>>,
) {
    let a = Arc::new(FaultyDisk::new(RamDisk::new(BS, BLOCKS)));
    let b = Arc::new(FaultyDisk::new(RamDisk::new(BS, BLOCKS)));
    let m = MirroredDisk::new(vec![a.clone(), b.clone()]).unwrap();
    (m, a, b)
}

/// A device under test, and how to make its next read fail, if it has a
/// fault to inject.
struct Case {
    name: &'static str,
    dev: Box<dyn BlockDevice>,
    fail: Option<Box<dyn Fn()>>,
}

/// Appends `blocks` at `first` onto a copy of [`PREFIX`].
fn append(dev: &dyn BlockDevice, first: u64, blocks: u64) -> (Result<(), DiskError>, Vec<u8>) {
    let mut out = PREFIX.to_vec();
    let result = dev.read_blocks_append(first, blocks, &mut out);
    (result, out)
}

#[test]
fn every_device_appends_what_it_reads_and_nothing_on_error() {
    let path = std::env::temp_dir().join(format!("amoeba-read-append-{}.img", std::process::id()));
    let clock = SimClock::new();
    let faulty = Arc::new(FaultyDisk::new(RamDisk::new(BS, BLOCKS)));
    let (m, a, b) = mirror();
    let cases = [
        Case {
            name: "RamDisk",
            dev: Box::new(RamDisk::new(BS, BLOCKS)),
            fail: None,
        },
        Case {
            name: "SchedDisk<RamDisk>",
            dev: Box::new(sched(RamDisk::new(BS, BLOCKS), &clock)),
            fail: None,
        },
        Case {
            name: "FaultyDisk<RamDisk>",
            dev: Box::new(faulty.clone()),
            fail: Some(Box::new(move || faulty.fail_now())),
        },
        Case {
            name: "CrashDisk",
            dev: Box::new(CrashDisk::new(RamDisk::new(BS, BLOCKS))),
            fail: None,
        },
        Case {
            name: "WormDisk",
            dev: Box::new(WormDisk::new(RamDisk::new(BS, BLOCKS), 0)),
            fail: None,
        },
        Case {
            name: "FileDisk",
            dev: Box::new(FileDisk::create(&path, BS, BLOCKS).unwrap()),
            fail: None,
        },
        Case {
            name: "MirroredDisk",
            dev: Box::new(m),
            fail: Some(Box::new(move || {
                a.fail_now();
                b.fail_now();
            })),
        },
    ];
    let image: Vec<u8> = (0..BS as u64 * BLOCKS)
        .map(|i| (i * 7 % 251) as u8)
        .collect();
    for case in cases {
        let (name, dev) = (case.name, &*case.dev);
        dev.write_blocks(0, &image).unwrap();
        for (first, blocks) in [(0, 1), (3, 5), (0, BLOCKS), (BLOCKS - 1, 1)] {
            let mut read = vec![0u8; (blocks * BS as u64) as usize];
            dev.read_blocks(first, &mut read).unwrap();
            let (result, out) = append(dev, first, blocks);
            assert_eq!(result, Ok(()), "{name}: append {blocks} at {first}");
            assert_eq!(&out[..PREFIX.len()], PREFIX, "{name}: prefix moved");
            assert_eq!(
                &out[PREFIX.len()..],
                &read[..],
                "{name}: {blocks} at {first}"
            );
        }
        for (first, blocks) in [
            (BLOCKS, 1),
            (BLOCKS - 2, 3),
            (0, 0),
            (u64::MAX, 2),
            (1, u64::MAX),
        ] {
            let (result, out) = append(dev, first, blocks);
            assert!(
                matches!(
                    result,
                    Err(DiskError::OutOfRange { .. } | DiskError::UnalignedBuffer { .. })
                ),
                "{name}: {blocks} at {first} gave {result:?}"
            );
            assert_eq!(out, PREFIX, "{name}: a refused append left bytes");
        }
        if let Some(fail) = case.fail {
            fail();
            let (result, out) = append(dev, 2, 4);
            assert!(result.is_err(), "{name}: a failed device read");
            assert_eq!(out, PREFIX, "{name}: a failed append left bytes");
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_mirror_read_fails_over_with_no_stray_bytes() {
    let (m, a, _b) = mirror();
    let image: Vec<u8> = (0..BS as u64 * BLOCKS).map(|i| (i % 253) as u8).collect();
    m.write_blocks(0, &image).unwrap();
    a.fail_now();
    let mut out = PREFIX.to_vec();
    assert_eq!(m.append_counting_failovers(4, 3, &mut out), (Ok(()), 1));
    let off = 4 * BS as usize;
    assert_eq!(&out[..PREFIX.len()], PREFIX);
    assert_eq!(&out[PREFIX.len()..], &image[off..off + 3 * BS as usize]);
    assert_eq!(m.stats().get("mirror_failovers"), 1);
}

/// A replica that breaks the contract: its failing append leaves junk.
struct Spilling(RamDisk);

impl BlockDevice for Spilling {
    fn block_size(&self) -> u32 {
        self.0.block_size()
    }
    fn num_blocks(&self) -> u64 {
        self.0.num_blocks()
    }
    fn read_blocks(&self, _first_block: u64, _buf: &mut [u8]) -> Result<(), DiskError> {
        Err(DiskError::AllReplicasFailed)
    }
    fn read_blocks_append(&self, _: u64, _: u64, out: &mut Vec<u8>) -> Result<(), DiskError> {
        out.extend_from_slice(b"junk");
        Err(DiskError::AllReplicasFailed)
    }
    fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.0.write_blocks(first_block, data)
    }
    fn sync(&self) -> Result<(), DiskError> {
        Ok(())
    }
}

#[test]
fn the_mirror_truncates_what_a_failed_replica_appended() {
    let good = Arc::new(RamDisk::new(BS, BLOCKS));
    let m = MirroredDisk::new(vec![
        Arc::new(Spilling(RamDisk::new(BS, BLOCKS))),
        good.clone(),
    ])
    .unwrap();
    good.write_blocks(0, &[9u8; BS as usize]).unwrap();
    let mut out = PREFIX.to_vec();
    assert_eq!(m.append_counting_failovers(0, 1, &mut out), (Ok(()), 1));
    assert_eq!(&out[..PREFIX.len()], PREFIX);
    assert_eq!(&out[PREFIX.len()..], &[9u8; BS as usize][..]);
}

#[test]
fn a_scheduled_append_charges_what_a_read_charges() {
    // Same request, same grant: the appending read moves no virtual time
    // and no I/O count against the plain read.
    let run = |append: bool| {
        let clock = SimClock::new();
        let d = sched(RamDisk::new(BS, BLOCKS), &clock);
        for (first, blocks) in [(9, 3), (0, 2), (12, 4)] {
            if append {
                d.read_blocks_append(first, blocks, &mut Vec::new())
                    .unwrap();
            } else {
                d.read_blocks(first, &mut vec![0u8; (blocks * BS as u64) as usize])
                    .unwrap();
            }
        }
        let stats = d.stats();
        (
            clock.now(),
            stats.get("disk_reads"),
            stats.get("disk_bytes_read"),
        )
    };
    assert_eq!(run(true), run(false));
}
