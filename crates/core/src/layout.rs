//! The on-disk format (Fig. 1 of the paper).
//!
//! ```text
//! +--------------------+
//! | inode 0: disk      |   the disk descriptor: block size, inode-table
//! |          descriptor|   blocks ("control size"), data blocks
//! | inode 1            |
//! | inode 2            |   16 bytes each: 6-byte random number, 2-byte
//! |  ...               |   cache index, 4-byte start block, 4-byte size
//! | inode N            |
//! +--------------------+
//! | file 2             |
//! | (free)             |   contiguous files and holes
//! | file 1             |
//! | (free)             |
//! +--------------------+
//! ```

use crate::BulletError;

/// Size of one on-disk inode in bytes (6 + 2 + 4 + 4, §3).
pub const INODE_SIZE: usize = 16;

/// The disk descriptor stored in inode slot 0: "three 4 byte integers"
/// (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskDescriptor {
    /// The physical sector size used by the disk hardware.
    pub block_size: u32,
    /// The number of blocks in the inode table ("control size").
    pub control_blocks: u32,
    /// The number of blocks in the data area ("data size").
    pub data_blocks: u32,
}

impl DiskDescriptor {
    /// The geometry a device of `total_blocks` blocks of `block_size`
    /// bytes is formatted with so that its inode table holds at least
    /// `min_inodes` slots: every check `InodeTable::format` makes, callable
    /// before any device exists.
    ///
    /// # Errors
    ///
    /// [`BulletError::Corrupt`] if the block size is not a positive
    /// multiple of [`INODE_SIZE`] (the table is read back as a flat array
    /// of inodes, so a block may carry no slack), or the device cannot
    /// hold the table plus at least one data block.
    pub fn plan(
        block_size: u32,
        total_blocks: u64,
        min_inodes: u32,
    ) -> Result<DiskDescriptor, BulletError> {
        if block_size == 0 || !(block_size as usize).is_multiple_of(INODE_SIZE) {
            return Err(BulletError::Corrupt(format!(
                "block size {block_size} is not a positive multiple of the {INODE_SIZE}-byte inode"
            )));
        }
        let per_block = (block_size as usize / INODE_SIZE) as u64;
        // +1 for the descriptor in slot 0 (in 64 bits: `min_inodes` may
        // be `u32::MAX`).
        let control = (min_inodes as u64 + 1).div_ceil(per_block);
        let control_blocks = u32::try_from(control)
            .ok()
            .filter(|_| total_blocks > control)
            .ok_or_else(|| {
                BulletError::Corrupt(format!(
                    "device of {total_blocks} blocks cannot hold {control} control blocks plus data"
                ))
            })?;
        Ok(DiskDescriptor {
            block_size,
            control_blocks,
            data_blocks: (total_blocks - control)
                .try_into()
                .map_err(|_| BulletError::Corrupt("data area exceeds 32-bit blocks".into()))?,
        })
    }

    /// Serializes into an inode slot (the remaining 4 bytes hold a magic
    /// number so start-up can reject a foreign disk).
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut out = [0u8; INODE_SIZE];
        out[0..4].copy_from_slice(&self.block_size.to_be_bytes());
        out[4..8].copy_from_slice(&self.control_blocks.to_be_bytes());
        out[8..12].copy_from_slice(&self.data_blocks.to_be_bytes());
        out[12..16].copy_from_slice(Self::MAGIC);
        out
    }

    /// Parses inode slot 0.
    ///
    /// # Errors
    ///
    /// [`BulletError::Corrupt`] if the magic number is absent or the
    /// geometry is nonsensical.
    pub fn decode(buf: &[u8; INODE_SIZE]) -> Result<DiskDescriptor, BulletError> {
        if &buf[12..16] != Self::MAGIC {
            return Err(BulletError::Corrupt(
                "disk descriptor magic mismatch".into(),
            ));
        }
        let d = DiskDescriptor {
            block_size: u32::from_be_bytes(buf[0..4].try_into().expect("4 bytes")),
            control_blocks: u32::from_be_bytes(buf[4..8].try_into().expect("4 bytes")),
            data_blocks: u32::from_be_bytes(buf[8..12].try_into().expect("4 bytes")),
        };
        if d.block_size == 0 || d.control_blocks == 0 {
            return Err(BulletError::Corrupt(
                "disk descriptor geometry is zero".into(),
            ));
        }
        Ok(d)
    }

    const MAGIC: &'static [u8; 4] = b"BLT1";

    /// Number of inode slots the inode table holds (including slot 0).
    pub fn inode_slots(&self) -> u32 {
        self.control_blocks * (self.block_size / INODE_SIZE as u32)
    }

    /// First block of the data area.
    pub fn data_start(&self) -> u64 {
        self.control_blocks as u64
    }

    /// One-past-last block of the data area.
    pub fn data_end(&self) -> u64 {
        self.control_blocks as u64 + self.data_blocks as u64
    }

    /// Classifies the extent `[start, start + blocks)` — the one place
    /// that knows how an inode's 32-bit `start_block` encodes its tier.
    ///
    /// The fast device's data area is `[data_start, data_end)`; its last
    /// `log_blocks` blocks are the group-commit window.  Starts at or past
    /// `data_end` are not fast-device blocks at all: they name block
    /// `start - data_end` of an archive device of `archive_blocks` blocks.
    /// So the archive test must come first — an archived start is also
    /// `>=` the log window's first block and would otherwise read as
    /// log-resident.
    ///
    /// `None` means the extent lies outside every region (or straddles the
    /// end of its device); the start-up scan rejects such inodes, so every
    /// inode in a loaded table classifies.  A [`Residency::Home`] extent is
    /// only bounded by `data_end` here: keeping it clear of the log window
    /// is the allocator rebuild's overlap check.
    pub fn residency(
        &self,
        start: u64,
        blocks: u64,
        log_blocks: u64,
        archive_blocks: u64,
    ) -> Option<Residency> {
        let end = start.checked_add(blocks)?;
        let data_end = self.data_end();
        if start >= data_end {
            let block = start - data_end;
            (end - data_end <= archive_blocks).then_some(Residency::Archive { block })
        } else if start < self.data_start() || end > data_end {
            None
        } else if start >= data_end.saturating_sub(log_blocks) {
            Some(Residency::Log)
        } else {
            Some(Residency::Home)
        }
    }

    /// The `start_block` value that encodes archive-device block `block`
    /// — the inverse of [`residency`](Self::residency)'s archive arm.
    pub fn archive_start(&self, block: u64) -> u64 {
        self.data_end() + block
    }
}

/// Which region holds a live file's extent (see
/// [`DiskDescriptor::residency`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// The allocator-managed data area of the mirrored fast tier.
    Home,
    /// The group-commit log window at the tail of the data area: the
    /// extent is a record payload awaiting migration to its home.
    Log,
    /// The write-once archive device, at this device block.
    Archive {
        /// First block of the extent on the archive device.
        block: u64,
    },
}

/// One on-disk inode (§3): "An inode consists of four fields."
///
/// A zero-filled inode is *unused* — deletion zeroes the inode and writes
/// it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Inode {
    /// "A 6-byte random number that is used for access protection.  It is
    /// essentially the key used to decrypt capabilities."  Only the low 48
    /// bits are stored.
    pub random: u64,
    /// "A 2-byte integer that is called the index.  The index has no
    /// significance on disk, but is used for cache management."  Kept for
    /// the paper's layout only: the server finds cache entries by inode
    /// number under the lock that guards the table, so it always stores
    /// and writes 0 here (and [`InodeTable::load`](crate::table::InodeTable::load)
    /// zeroes whatever an older image holds).
    pub index: u16,
    /// "A 4-byte integer specifying the first block of the file on disk.
    /// Files are aligned on blocks."  Absolute device block number.
    pub start_block: u32,
    /// "A 4-byte integer giving the size of the file in bytes."
    pub size_bytes: u32,
}

impl Inode {
    /// True for a zero-filled (unused) slot.
    pub fn is_free(&self) -> bool {
        *self == Inode::default()
    }

    /// Number of whole blocks the file occupies for the given block size
    /// (zero-length files occupy one block so that every live file has a
    /// distinct extent).
    pub fn blocks(&self, block_size: u32) -> u64 {
        (self.size_bytes as u64).div_ceil(block_size as u64).max(1)
    }

    /// Serializes to the 16-byte on-disk form.
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut out = [0u8; INODE_SIZE];
        let r = self.random.to_be_bytes();
        out[0..6].copy_from_slice(&r[2..8]);
        out[6..8].copy_from_slice(&self.index.to_be_bytes());
        out[8..12].copy_from_slice(&self.start_block.to_be_bytes());
        out[12..16].copy_from_slice(&self.size_bytes.to_be_bytes());
        out
    }

    /// Parses the 16-byte on-disk form.
    pub fn decode(buf: &[u8; INODE_SIZE]) -> Inode {
        Inode {
            random: u64::from_be_bytes([0, 0, buf[0], buf[1], buf[2], buf[3], buf[4], buf[5]]),
            index: u16::from_be_bytes([buf[6], buf[7]]),
            start_block: u32::from_be_bytes(buf[8..12].try_into().expect("4 bytes")),
            size_bytes: u32::from_be_bytes(buf[12..16].try_into().expect("4 bytes")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_roundtrip() {
        let d = DiskDescriptor {
            block_size: 512,
            control_blocks: 8,
            data_blocks: 1000,
        };
        assert_eq!(DiskDescriptor::decode(&d.encode()).unwrap(), d);
        assert_eq!(d.inode_slots(), 8 * 32);
        assert_eq!(d.data_start(), 8);
        assert_eq!(d.data_end(), 1008);
    }

    #[test]
    fn descriptor_rejects_bad_magic() {
        let mut buf = DiskDescriptor {
            block_size: 512,
            control_blocks: 8,
            data_blocks: 1000,
        }
        .encode();
        buf[13] = b'X';
        assert!(matches!(
            DiskDescriptor::decode(&buf),
            Err(BulletError::Corrupt(_))
        ));
    }

    #[test]
    fn descriptor_rejects_zero_geometry() {
        let buf = DiskDescriptor {
            block_size: 0,
            control_blocks: 8,
            data_blocks: 10,
        }
        .encode();
        assert!(DiskDescriptor::decode(&buf).is_err());
    }

    #[test]
    fn inode_roundtrip() {
        let i = Inode {
            random: 0x0000_a1b2_c3d4_e5f6,
            index: 7,
            start_block: 1234,
            size_bytes: 98765,
        };
        assert_eq!(Inode::decode(&i.encode()), i);
    }

    #[test]
    fn inode_random_masked_to_48_bits() {
        let i = Inode {
            random: 0xffff_a1b2_c3d4_e5f6,
            ..Inode::default()
        };
        // The encode/decode cycle keeps only 48 bits.
        assert_eq!(Inode::decode(&i.encode()).random, 0x0000_a1b2_c3d4_e5f6);
    }

    #[test]
    fn zero_inode_is_free() {
        assert!(Inode::default().is_free());
        assert!(Inode::decode(&[0u8; INODE_SIZE]).is_free());
        let live = Inode {
            random: 1,
            ..Inode::default()
        };
        assert!(!live.is_free());
    }

    #[test]
    fn block_count_rounds_up_and_floors_at_one() {
        let mk = |size| Inode {
            size_bytes: size,
            ..Inode::default()
        };
        assert_eq!(mk(0).blocks(512), 1);
        assert_eq!(mk(1).blocks(512), 1);
        assert_eq!(mk(512).blocks(512), 1);
        assert_eq!(mk(513).blocks(512), 2);
        assert_eq!(mk(u32::MAX).blocks(512), (u32::MAX as u64).div_ceil(512));
    }
}
