//! Block-device substrate for the Bullet file server reproduction.
//!
//! The paper's server owns two 800 MB SCSI drives used as identical
//! replicas: writes go to both, reads come from the main disk, and if the
//! main disk fails the server "can proceed uninterruptedly by using the
//! other disk", recovering later "by copying the complete disk" (§3).
//!
//! This crate provides that storage layer, built from composable pieces:
//!
//! * [`BlockDevice`] — the sector-addressed device trait everything speaks;
//! * [`RamDisk`] — a memory-backed device (the default substrate);
//! * [`FileDisk`] — a host-file-backed device for persistence tests;
//! * [`FaultyDisk`] — fault injection: fail a device after N operations or
//!   on demand, to exercise failover;
//! * [`CrashDisk`] — a volatile write-back buffer with an explicit
//!   `sync`/`crash`, to exercise durability (P-FACTOR semantics);
//! * [`MirroredDisk`] — the replica set, including partial-sync writes
//!   (`write_sync_k`) and a background queue that models completing the
//!   remaining replica writes after the client reply was already sent;
//! * [`SchedDisk`] — the latency model of a late-80s drive: every request
//!   is charged seek, rotation and transfer time on the shared
//!   [`amoeba_sim::SimClock`] from where the head stopped, and queued
//!   requests are granted in SCAN/SPTF order with deadline aging, adjacent
//!   ones coalescing into single larger transfers ([`ArmSim`] drives the
//!   same arm as a deterministic virtual-time simulation for ablations).
//!
//! # Example
//!
//! ```
//! use amoeba_disk::{BlockDevice, RamDisk};
//!
//! let disk = RamDisk::new(512, 128); // 128 sectors of 512 bytes
//! disk.write_blocks(3, &[7u8; 1024])?; // sectors 3 and 4
//! let mut buf = [0u8; 512];
//! disk.read_blocks(4, &mut buf)?;
//! assert_eq!(buf, [7u8; 512]);
//! # Ok::<(), amoeba_disk::DiskError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
pub mod device;
pub mod error;
pub mod faulty;
pub mod filedisk;
pub mod mirror;
pub mod ramdisk;
pub mod sched;
pub mod worm;

pub use crash::CrashDisk;
pub use device::BlockDevice;
pub use error::DiskError;
pub use faulty::FaultyDisk;
pub use filedisk::FileDisk;
pub use mirror::MirroredDisk;
pub use ramdisk::RamDisk;
pub use sched::{ArmSim, ArmStats, ReqKind, SchedConfig, SchedDisk, SchedPolicy, Service};
pub use worm::WormDisk;

/// Single-request charges of the simulated disk: [`SchedDisk`] with one
/// request in flight, on a fresh disk of 10 000 512-byte sectors.
#[cfg(test)]
mod simdisk {
    mod tests {
        use crate::{BlockDevice, RamDisk, SchedConfig, SchedDisk};
        use amoeba_sim::{DiskProfile, Nanos, SimClock};

        fn disk_with(clock: &SimClock, profile: DiskProfile) -> SchedDisk<RamDisk> {
            SchedDisk::new(
                RamDisk::new(512, 10_000),
                clock.clone(),
                profile,
                SchedConfig::default(),
            )
        }

        fn disk(clock: &SimClock) -> SchedDisk<RamDisk> {
            disk_with(clock, DiskProfile::scsi_1989())
        }

        #[test]
        fn sequential_cheaper_than_scattered() {
            let c1 = SimClock::new();
            let d1 = disk(&c1);
            // 8 sequential blocks, one access.
            d1.write_blocks(0, &[0u8; 512 * 8]).unwrap();
            let seq = c1.now();

            let c2 = SimClock::new();
            let d2 = disk(&c2);
            // 8 scattered single-block accesses.
            for i in 0..8 {
                d2.write_blocks(i * 1000, &[0u8; 512]).unwrap();
            }
            let scattered = c2.now();
            assert!(
                scattered.as_ns() > 3 * seq.as_ns(),
                "scattered {scattered} vs sequential {seq}"
            );
        }

        #[test]
        fn contiguous_follow_up_has_no_seek() {
            let c = SimClock::new();
            let d = disk(&c);
            // Head starts at 0, so writing block 500 costs a seek.
            d.write_blocks(500, &[0u8; 512]).unwrap();
            let first = c.now();
            // Head now at block 501; writing block 501 needs no seek.
            d.write_blocks(501, &[0u8; 512]).unwrap();
            let second = c.now() - first;
            assert!(second < first, "second {second} >= first {first}");
            assert_eq!(d.stats().get("disk_seek_blocks"), 500);
        }

        #[test]
        fn stats_track_io() {
            let c = SimClock::new();
            let d = disk(&c);
            d.write_blocks(0, &[0u8; 1024]).unwrap();
            let mut buf = [0u8; 512];
            d.read_blocks(0, &mut buf).unwrap();
            assert_eq!(d.stats().get("disk_writes"), 1);
            assert_eq!(d.stats().get("disk_reads"), 1);
            assert_eq!(d.stats().get("disk_bytes_written"), 1024);
            assert_eq!(d.stats().get("disk_bytes_read"), 512);
        }

        #[test]
        fn failed_io_charges_nothing() {
            let c = SimClock::new();
            let d = disk(&c);
            assert!(d.write_blocks(99_999, &[0u8; 512]).is_err());
            assert_eq!(c.now(), Nanos::ZERO);
        }

        #[test]
        fn instant_profile_charges_nothing() {
            let c = SimClock::new();
            let d = disk_with(&c, DiskProfile::instant());
            d.write_blocks(0, &[0u8; 512]).unwrap();
            assert_eq!(c.now(), Nanos::ZERO);
        }
    }
}
