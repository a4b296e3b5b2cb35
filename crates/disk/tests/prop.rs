//! Property tests for the disk substrate: every wrapper stack must behave
//! like a flat array of bytes.

use std::sync::Arc;

use amoeba_disk::{
    BlockDevice, CrashDisk, MirroredDisk, RamDisk, SchedConfig, SchedDisk, WormDisk,
};
use amoeba_sim::{DiskProfile, SimClock};
use proptest::prelude::*;

const BLOCKS: u64 = 64;
const BS: usize = 128;

#[derive(Debug, Clone)]
struct WriteOp {
    first_block: u64,
    data: Vec<u8>,
}

fn arb_write() -> impl Strategy<Value = WriteOp> {
    (0u64..BLOCKS, 1usize..5, any::<u8>()).prop_map(|(first, nblocks, fill)| {
        let nblocks = nblocks.min((BLOCKS - first) as usize).max(1);
        WriteOp {
            first_block: first,
            data: vec![fill; nblocks * BS],
        }
    })
}

/// Applies writes to a device and to a plain in-memory model, then checks
/// the full device contents match the model.
fn check_device_matches_model<D: BlockDevice>(dev: &D, ops: &[WriteOp]) {
    let mut model = vec![0u8; (BLOCKS as usize) * BS];
    for op in ops {
        dev.write_blocks(op.first_block, &op.data).unwrap();
        let off = op.first_block as usize * BS;
        model[off..off + op.data.len()].copy_from_slice(&op.data);
    }
    let mut actual = vec![0u8; model.len()];
    dev.read_blocks(0, &mut actual).unwrap();
    assert_eq!(actual, model);
}

proptest! {
    #[test]
    fn ramdisk_behaves_like_byte_array(ops in proptest::collection::vec(arb_write(), 0..40)) {
        let d = RamDisk::new(BS as u32, BLOCKS);
        check_device_matches_model(&d, &ops);
    }

    #[test]
    fn simdisk_preserves_contents_and_charges_time(
        ops in proptest::collection::vec(arb_write(), 1..40),
    ) {
        let clock = SimClock::new();
        let d = SchedDisk::new(
            RamDisk::new(BS as u32, BLOCKS),
            clock.clone(),
            DiskProfile::scsi_1989(),
            SchedConfig::default(),
        );
        check_device_matches_model(&d, &ops);
        prop_assert!(clock.now().as_ns() > 0);
    }

    #[test]
    fn crashdisk_after_sync_equals_model(ops in proptest::collection::vec(arb_write(), 0..40)) {
        let d = CrashDisk::new(RamDisk::new(BS as u32, BLOCKS));
        check_device_matches_model(&d, &ops);
        // After sync + crash, contents still match (durable).
        let mut before = vec![0u8; (BLOCKS as usize) * BS];
        d.read_blocks(0, &mut before).unwrap();
        d.sync().unwrap();
        d.crash();
        let mut after = vec![0u8; before.len()];
        d.read_blocks(0, &mut after).unwrap();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn crash_without_sync_reverts_to_last_synced_state(
        synced in proptest::collection::vec(arb_write(), 0..20),
        unsynced in proptest::collection::vec(arb_write(), 0..20),
    ) {
        let d = CrashDisk::new(RamDisk::new(BS as u32, BLOCKS));
        for op in &synced {
            d.write_blocks(op.first_block, &op.data).unwrap();
        }
        d.sync().unwrap();
        let mut durable = vec![0u8; (BLOCKS as usize) * BS];
        d.read_blocks(0, &mut durable).unwrap();

        for op in &unsynced {
            d.write_blocks(op.first_block, &op.data).unwrap();
        }
        d.crash();
        let mut after = vec![0u8; durable.len()];
        d.read_blocks(0, &mut after).unwrap();
        prop_assert_eq!(durable, after);
    }

    #[test]
    fn mirror_replicas_stay_identical(ops in proptest::collection::vec(arb_write(), 0..40)) {
        let a = Arc::new(RamDisk::new(BS as u32, BLOCKS));
        let b = Arc::new(RamDisk::new(BS as u32, BLOCKS));
        let m = MirroredDisk::new(vec![a.clone(), b.clone()]).unwrap();
        check_device_matches_model(&m, &ops);
        prop_assert_eq!(a.clone_contents(), b.clone_contents());
    }

    #[test]
    fn wormdisk_fully_exempt_behaves_like_byte_array(
        ops in proptest::collection::vec(arb_write(), 0..40),
    ) {
        // With the whole device exempt the WORM wrapper is transparent:
        // overwrites pass straight through to the inner disk.
        let d = WormDisk::new(RamDisk::new(BS as u32, BLOCKS), BLOCKS);
        check_device_matches_model(&d, &ops);
        prop_assert_eq!(d.burned_blocks(), 0);
    }

    #[test]
    fn wormdisk_first_write_wins_and_reads_stay_stable(
        ops in proptest::collection::vec(arb_write(), 1..40),
    ) {
        // Write-once region: a write is either accepted whole or rejected
        // whole.  The device must match a model that applies only the
        // accepted writes, forever — the append-only invariant.
        let d = WormDisk::new(RamDisk::new(BS as u32, BLOCKS), 0);
        let mut model = vec![0u8; (BLOCKS as usize) * BS];
        let mut accepted = 0u64;
        for op in &ops {
            if d.write_blocks(op.first_block, &op.data).is_ok() {
                let off = op.first_block as usize * BS;
                model[off..off + op.data.len()].copy_from_slice(&op.data);
                accepted += op.data.len() as u64 / BS as u64;
            }
        }
        let mut actual = vec![0u8; model.len()];
        d.read_blocks(0, &mut actual).unwrap();
        prop_assert_eq!(&actual, &model);
        prop_assert_eq!(d.burned_blocks(), accepted);
        // Every later overwrite of a burned block is rejected and the
        // contents do not move.
        for op in &ops {
            let _ = d.write_blocks(op.first_block, &op.data);
        }
        d.read_blocks(0, &mut actual).unwrap();
        prop_assert_eq!(actual, model);
    }

    #[test]
    fn mirror_background_flush_converges_replicas(
        ops in proptest::collection::vec(arb_write(), 0..40),
        k in 0usize..3,
    ) {
        let a = Arc::new(RamDisk::new(BS as u32, BLOCKS));
        let b = Arc::new(RamDisk::new(BS as u32, BLOCKS));
        let m = MirroredDisk::new(vec![a.clone(), b.clone()]).unwrap();
        for op in &ops {
            m.write_sync_k(op.first_block, &op.data, k).unwrap();
        }
        m.sync().unwrap();
        prop_assert_eq!(a.clone_contents(), b.clone_contents());
    }
}
