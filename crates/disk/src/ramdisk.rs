//! A memory-backed block device.

use parking_lot::RwLock;

use crate::device::{append_len, check_access};
use crate::{BlockDevice, DiskError};

/// A block device stored entirely in host RAM.
///
/// The default substrate for simulations and tests: fast, deterministic,
/// and infallible.  Durability semantics are trivially "durable" (data
/// survives as long as the object does); combine with
/// [`crate::CrashDisk`] to model volatility.
#[derive(Debug)]
pub struct RamDisk {
    block_size: u32,
    num_blocks: u64,
    data: RwLock<Vec<u8>>,
}

impl RamDisk {
    /// Creates a zero-filled RAM disk of `num_blocks` sectors of
    /// `block_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or the total size exceeds `usize`.
    pub fn new(block_size: u32, num_blocks: u64) -> RamDisk {
        assert!(block_size > 0, "block size must be positive");
        let total = usize::try_from(num_blocks * block_size as u64)
            .expect("RAM disk size must fit in memory");
        RamDisk {
            block_size,
            num_blocks,
            data: RwLock::new(vec![0; total]),
        }
    }

    /// Makes an exact copy of this disk's current contents — the paper's
    /// recovery procedure ("recovery is simply done by copying the
    /// complete disk").
    pub fn clone_contents(&self) -> Vec<u8> {
        self.data.read().clone()
    }

    /// Overwrites the whole disk from `image` (must match capacity).
    ///
    /// # Panics
    ///
    /// Panics if `image` length differs from the disk capacity.
    pub fn restore_contents(&self, image: &[u8]) {
        let mut d = self.data.write();
        assert_eq!(image.len(), d.len(), "image must match disk capacity");
        d.copy_from_slice(image);
    }
}

impl BlockDevice for RamDisk {
    fn block_size(&self) -> u32 {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        check_access(self.block_size, self.num_blocks, first_block, buf.len())?;
        let off = (first_block * self.block_size as u64) as usize;
        buf.copy_from_slice(&self.data.read()[off..off + buf.len()]);
        Ok(())
    }

    fn read_blocks_append(
        &self,
        first_block: u64,
        blocks: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), DiskError> {
        let len = append_len(self.block_size, self.num_blocks, first_block, blocks)?;
        let off = (first_block * self.block_size as u64) as usize;
        out.extend_from_slice(&self.data.read()[off..off + len]);
        Ok(())
    }

    fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
        check_access(self.block_size, self.num_blocks, first_block, data.len())?;
        let off = (first_block * self.block_size as u64) as usize;
        self.data.write()[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn sync(&self) -> Result<(), DiskError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_back() {
        let d = RamDisk::new(512, 8);
        let data = [0xabu8; 1024];
        d.write_blocks(2, &data).unwrap();
        let mut buf = [0u8; 1024];
        d.read_blocks(2, &mut buf).unwrap();
        assert_eq!(buf, data);
        // Neighbouring blocks untouched.
        let mut b = [1u8; 512];
        d.read_blocks(1, &mut b).unwrap();
        assert_eq!(b, [0u8; 512]);
    }

    #[test]
    fn rejects_bad_access() {
        let d = RamDisk::new(512, 8);
        assert!(d.write_blocks(8, &[0u8; 512]).is_err());
        assert!(d.write_blocks(0, &[0u8; 100]).is_err());
        let mut buf = [0u8; 512];
        assert!(d.read_blocks(8, &mut buf).is_err());
    }

    #[test]
    fn capacity() {
        let d = RamDisk::new(256, 100);
        assert_eq!(d.capacity_bytes(), 25_600);
        assert_eq!(d.block_size(), 256);
        assert_eq!(d.num_blocks(), 100);
    }

    #[test]
    fn clone_and_restore_contents() {
        let a = RamDisk::new(512, 4);
        a.write_blocks(1, &[9u8; 512]).unwrap();
        let image = a.clone_contents();

        let b = RamDisk::new(512, 4);
        b.restore_contents(&image);
        let mut buf = [0u8; 512];
        b.read_blocks(1, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 512]);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        RamDisk::new(0, 1);
    }
}
