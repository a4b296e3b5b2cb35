//! Write-once (WORM) storage: the optical disk of §2.
//!
//! "It also presents the possibility of keeping versions on write-once
//! storage such as optical disks."  Immutable files never rewrite their
//! data blocks, so a Bullet data area maps perfectly onto write-once
//! media.  Metadata (the inode table) still needs rewriting, so a real
//! archive pairs a small magnetic region with the optical platter — the
//! [`WormDisk`] models exactly that: an *exempt* prefix of rewritable
//! blocks, and write-once everything after it.

use parking_lot::Mutex;

use crate::{BlockDevice, DiskError};

/// Append-position bookkeeping: the bump cursor for
/// [`WormDisk::append_reserve`] plus the sealed prefix boundary.
#[derive(Debug)]
struct WormPos {
    /// Next unreserved write-once block (starts at `exempt_blocks`).
    cursor: u64,
    /// Blocks `[exempt_blocks, sealed)` are sealed: no write lands there
    /// ever again, burned or not (padding holes included).
    sealed: u64,
}

/// A write-once wrapper: blocks below `exempt_blocks` behave normally
/// (the magnetic index region); every other block accepts exactly one
/// write and then becomes read-only forever.
///
/// Beyond the per-block burn map the type keeps *append-position
/// accounting*: [`append_reserve`](WormDisk::append_reserve) hands out
/// consecutive block runs from a bump cursor — the natural allocation
/// discipline for media that can never reclaim space — and a
/// *sealed-segment layout*: with a nonzero segment size, fully consumed
/// segments can be [sealed](WormDisk::seal_full_segments), after which no
/// write lands anywhere inside them, including unburned padding holes.
#[derive(Debug)]
pub struct WormDisk<D> {
    inner: D,
    exempt_blocks: u64,
    segment_blocks: u64,
    written: Mutex<Vec<bool>>,
    pos: Mutex<WormPos>,
}

impl<D: BlockDevice> WormDisk<D> {
    /// Wraps `inner`; blocks `[0, exempt_blocks)` stay rewritable.
    /// No segment layout: [`seal_full_segments`](Self::seal_full_segments)
    /// is a no-op.
    pub fn new(inner: D, exempt_blocks: u64) -> WormDisk<D> {
        WormDisk::with_segments(inner, exempt_blocks, 0)
    }

    /// Wraps `inner` with a sealed-segment layout of `segment_blocks`
    /// blocks per segment (0 disables segmentation).  Segments tile the
    /// write-once region starting at `exempt_blocks`.
    pub fn with_segments(inner: D, exempt_blocks: u64, segment_blocks: u64) -> WormDisk<D> {
        let blocks = inner.num_blocks() as usize;
        WormDisk {
            inner,
            exempt_blocks,
            segment_blocks,
            written: Mutex::new(vec![false; blocks]),
            pos: Mutex::new(WormPos {
                cursor: exempt_blocks,
                sealed: exempt_blocks,
            }),
        }
    }

    /// Number of write-once blocks already burned.
    pub fn burned_blocks(&self) -> u64 {
        self.written.lock().iter().filter(|&&w| w).count() as u64
    }

    /// The append cursor: the next block
    /// [`append_reserve`](Self::append_reserve) will hand out.
    pub fn append_pos(&self) -> u64 {
        self.pos.lock().cursor
    }

    /// Reserves `blocks` consecutive write-once blocks at the append
    /// cursor and returns the first block of the run.  The reservation is
    /// permanent — WORM media never reclaims — so a caller that fails
    /// mid-write simply wastes the run, exactly like a real burner.
    ///
    /// # Errors
    ///
    /// [`DiskError::OutOfRange`] when the run would pass the end of the
    /// device.
    pub fn append_reserve(&self, blocks: u64) -> Result<u64, DiskError> {
        let mut pos = self.pos.lock();
        let first = pos.cursor;
        let end = first.saturating_add(blocks);
        if end > self.inner.num_blocks() {
            return Err(DiskError::OutOfRange {
                first_block: first,
                blocks,
                device_blocks: self.inner.num_blocks(),
            });
        }
        pos.cursor = end;
        Ok(first)
    }

    /// Reserves and writes `data` at the append cursor in one call;
    /// returns the first block written.
    ///
    /// # Errors
    ///
    /// As [`append_reserve`](Self::append_reserve) and
    /// [`write_blocks`](BlockDevice::write_blocks).
    pub fn append_blocks(&self, data: &[u8]) -> Result<u64, DiskError> {
        let blocks = (data.len() / self.block_size().max(1) as usize) as u64;
        let first = self.append_reserve(blocks)?;
        self.write_blocks(first, data)?;
        Ok(first)
    }

    /// Seals every segment the append cursor has fully passed: all blocks
    /// below the cursor's segment boundary reject writes from now on,
    /// burned or not.  A no-op without a segment layout.  Returns the new
    /// sealed boundary.
    pub fn seal_full_segments(&self) -> u64 {
        let mut pos = self.pos.lock();
        if self.segment_blocks > 0 && pos.cursor > self.exempt_blocks {
            let consumed = pos.cursor - self.exempt_blocks;
            let whole = (consumed / self.segment_blocks) * self.segment_blocks;
            pos.sealed = pos.sealed.max(self.exempt_blocks + whole);
        }
        pos.sealed
    }

    /// Pads the append cursor to the next segment boundary and seals
    /// everything below it — the explicit "finalize the platter region"
    /// operation.  A no-op without a segment layout.
    pub fn seal_active_segment(&self) -> u64 {
        let mut pos = self.pos.lock();
        if self.segment_blocks > 0 {
            let consumed = pos.cursor - self.exempt_blocks;
            let padded = consumed.div_ceil(self.segment_blocks) * self.segment_blocks;
            let boundary = (self.exempt_blocks + padded).min(self.inner.num_blocks());
            pos.cursor = pos.cursor.max(boundary);
            pos.sealed = pos.sealed.max(boundary);
        }
        pos.sealed
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: BlockDevice> BlockDevice for WormDisk<D> {
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
        let blocks = (data.len() / self.block_size().max(1) as usize) as u64;
        {
            let sealed = self.pos.lock().sealed;
            let written = self.written.lock();
            for b in first_block..first_block.saturating_add(blocks) {
                if b >= self.exempt_blocks
                    && (b < sealed || written.get(b as usize).copied().unwrap_or(false))
                {
                    return Err(DiskError::WriteOnceViolation { block: b });
                }
            }
        }
        self.inner.write_blocks(first_block, data)?;
        let mut written = self.written.lock();
        for b in first_block..first_block + blocks {
            if b >= self.exempt_blocks {
                if let Some(slot) = written.get_mut(b as usize) {
                    *slot = true;
                }
            }
        }
        Ok(())
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RamDisk;

    fn worm() -> WormDisk<RamDisk> {
        WormDisk::new(RamDisk::new(512, 16), 4)
    }

    #[test]
    fn data_blocks_burn_once() {
        let d = worm();
        d.write_blocks(8, &[1u8; 512]).unwrap();
        assert_eq!(
            d.write_blocks(8, &[2u8; 512]),
            Err(DiskError::WriteOnceViolation { block: 8 })
        );
        // The original bytes survive.
        let mut buf = [0u8; 512];
        d.read_blocks(8, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 512]);
        assert_eq!(d.burned_blocks(), 1);
    }

    #[test]
    fn exempt_region_is_rewritable() {
        let d = worm();
        for _ in 0..5 {
            d.write_blocks(0, &[7u8; 512]).unwrap();
            d.write_blocks(3, &[8u8; 512]).unwrap();
        }
        assert_eq!(d.burned_blocks(), 0, "exempt writes are not burns");
    }

    #[test]
    fn multi_block_write_rejected_if_any_block_burned() {
        let d = worm();
        d.write_blocks(9, &[1u8; 512]).unwrap();
        // [8,10) overlaps the burned block 9: the whole write must fail
        // without burning block 8.
        assert!(matches!(
            d.write_blocks(8, &[2u8; 1024]),
            Err(DiskError::WriteOnceViolation { block: 9 })
        ));
        d.write_blocks(8, &[3u8; 512]).unwrap();
    }

    #[test]
    fn reads_always_work() {
        let d = worm();
        d.write_blocks(8, &[1u8; 512]).unwrap();
        let mut buf = [0u8; 512 * 2];
        d.read_blocks(8, &mut buf).unwrap();
        d.read_blocks(8, &mut buf).unwrap();
    }

    #[test]
    fn append_hands_out_consecutive_runs() {
        let d = worm();
        assert_eq!(d.append_pos(), 4);
        let a = d.append_blocks(&[1u8; 512 * 2]).unwrap();
        let b = d.append_blocks(&[2u8; 512]).unwrap();
        assert_eq!((a, b), (4, 6));
        assert_eq!(d.append_pos(), 7);
        assert_eq!(d.burned_blocks(), 3);
        // Reservation survives a failed write: the run is wasted, not reused.
        let r = d.append_reserve(3).unwrap();
        assert_eq!(r, 7);
        assert_eq!(d.append_reserve(2).unwrap(), 10);
        // Past-the-end reservations fail without moving the cursor.
        assert!(d.append_reserve(100).is_err());
        assert_eq!(d.append_pos(), 12);
    }

    #[test]
    fn sealed_segment_rejects_writes_even_in_padding_holes() {
        // 16 blocks, 4 exempt, 4-block segments: segments at [4,8), [8,12)...
        let d = WormDisk::with_segments(RamDisk::new(512, 16), 4, 4);
        d.append_blocks(&[1u8; 512 * 2]).unwrap(); // blocks 4..6 burned
        assert_eq!(d.seal_full_segments(), 4, "partial segment never seals");
        assert_eq!(d.seal_active_segment(), 8);
        assert_eq!(d.append_pos(), 8, "seal pads the cursor to the boundary");
        // Blocks 6 and 7 were never burned, but the seal covers them.
        assert_eq!(
            d.write_blocks(6, &[9u8; 512]),
            Err(DiskError::WriteOnceViolation { block: 6 })
        );
        // Sealed reads stay stable.
        let mut buf = [0u8; 512];
        d.read_blocks(4, &mut buf).unwrap();
        assert_eq!(buf, [1u8; 512]);
        // The next segment still burns normally.
        assert_eq!(d.append_blocks(&[3u8; 512 * 4]).unwrap(), 8);
        assert_eq!(d.seal_full_segments(), 12, "full segment seals");
        // The exempt region is never sealed.
        d.write_blocks(0, &[5u8; 512]).unwrap();
    }
}
