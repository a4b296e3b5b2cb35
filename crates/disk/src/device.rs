//! The block-device trait.

use crate::DiskError;

/// A sector-addressed storage device.
///
/// All I/O is in whole blocks: buffer lengths must be a multiple of
/// [`block_size`](BlockDevice::block_size).  Implementations are
/// thread-safe (`&self` methods, `Send + Sync`) because the Bullet server
/// may serve many clients over one device.
///
/// Writes may be volatile until [`sync`](BlockDevice::sync) returns (see
/// [`crate::CrashDisk`]); plain devices are durable immediately and their
/// `sync` is a no-op.
pub trait BlockDevice: Send + Sync {
    /// The device's sector size in bytes.
    fn block_size(&self) -> u32;

    /// Total number of sectors on the device.
    fn num_blocks(&self) -> u64;

    /// Reads `buf.len() / block_size` blocks starting at `first_block`.
    ///
    /// # Errors
    ///
    /// [`DiskError::UnalignedBuffer`] for a non-block-multiple buffer,
    /// [`DiskError::OutOfRange`] for an access past the end, or a device
    /// failure error.
    fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError>;

    /// Writes `data.len() / block_size` blocks starting at `first_block`.
    ///
    /// # Errors
    ///
    /// As for [`read_blocks`](BlockDevice::read_blocks).
    fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError>;

    /// Forces any volatile writes to stable storage.
    ///
    /// # Errors
    ///
    /// Device failure errors.
    fn sync(&self) -> Result<(), DiskError>;

    /// Reads blocks at *background* priority: scheduling wrappers
    /// ([`crate::SchedDisk`]) park the request in a low-priority lane
    /// that only gets the arm when no foreground request is queued, so
    /// bulk maintenance streams (archive demotion, resync) never starve
    /// interactive grants.  Devices without a scheduler treat it as an
    /// ordinary read — the default simply delegates.
    ///
    /// # Errors
    ///
    /// As for [`read_blocks`](BlockDevice::read_blocks).
    fn read_blocks_low(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        self.read_blocks(first_block, buf)
    }

    /// Reads `blocks` blocks starting at `first_block` and appends them to
    /// `out`, so a caller that reserved the capacity gets each byte
    /// written once, straight from the device.  The default resizes `out`
    /// (zero-filling the new tail) and calls
    /// [`read_blocks`](BlockDevice::read_blocks); devices that hold their
    /// bytes in memory override it to append them directly.
    ///
    /// # Errors
    ///
    /// As for [`read_blocks`](BlockDevice::read_blocks) (zero `blocks` is
    /// [`DiskError::UnalignedBuffer`]).  On any error `out` is left at its
    /// entry length.
    fn read_blocks_append(
        &self,
        first_block: u64,
        blocks: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), DiskError> {
        let len = append_len(self.block_size(), self.num_blocks(), first_block, blocks)?;
        let start = out.len();
        out.resize(start + len, 0);
        self.read_blocks(first_block, &mut out[start..])
            .inspect_err(|_| out.truncate(start))
    }

    /// Total capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.num_blocks() * self.block_size() as u64
    }
}

/// Validates an access of `len` bytes at `first_block` against a device
/// geometry; shared by all implementations.
pub(crate) fn check_access(
    block_size: u32,
    num_blocks: u64,
    first_block: u64,
    len: usize,
) -> Result<u64, DiskError> {
    if len == 0 || !len.is_multiple_of(block_size as usize) {
        return Err(DiskError::UnalignedBuffer { len, block_size });
    }
    let blocks = (len / block_size as usize) as u64;
    if first_block
        .checked_add(blocks)
        .is_none_or(|end| end > num_blocks)
    {
        return Err(DiskError::OutOfRange {
            first_block,
            blocks,
            device_blocks: num_blocks,
        });
    }
    Ok(blocks)
}

/// Validates an append of `blocks` blocks at `first_block` against a
/// device geometry, returning its length in bytes.
pub(crate) fn append_len(
    block_size: u32,
    num_blocks: u64,
    first_block: u64,
    blocks: u64,
) -> Result<usize, DiskError> {
    let len = blocks
        .checked_mul(block_size as u64)
        .and_then(|len| usize::try_from(len).ok())
        .ok_or(DiskError::OutOfRange {
            first_block,
            blocks,
            device_blocks: num_blocks,
        })?;
    check_access(block_size, num_blocks, first_block, len)?;
    Ok(len)
}

impl<T: BlockDevice + ?Sized> BlockDevice for std::sync::Arc<T> {
    fn block_size(&self) -> u32 {
        (**self).block_size()
    }

    fn num_blocks(&self) -> u64 {
        (**self).num_blocks()
    }

    fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        (**self).read_blocks(first_block, buf)
    }

    fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
        (**self).write_blocks(first_block, data)
    }

    fn sync(&self) -> Result<(), DiskError> {
        (**self).sync()
    }

    // Forwarded explicitly: the provided default would route through
    // `Arc`'s `read_blocks` and silently drop the inner device's
    // low-priority override.
    fn read_blocks_low(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        (**self).read_blocks_low(first_block, buf)
    }

    // Forwarded explicitly for the same reason: the default would
    // zero-fill and skip the inner device's appending read.
    fn read_blocks_append(
        &self,
        first_block: u64,
        blocks: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), DiskError> {
        (**self).read_blocks_append(first_block, blocks, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_access_accepts_exact_fit() {
        assert_eq!(check_access(512, 10, 0, 512 * 10).unwrap(), 10);
        assert_eq!(check_access(512, 10, 9, 512).unwrap(), 1);
    }

    #[test]
    fn check_access_rejects_unaligned() {
        assert!(matches!(
            check_access(512, 10, 0, 100),
            Err(DiskError::UnalignedBuffer { len: 100, .. })
        ));
        assert!(matches!(
            check_access(512, 10, 0, 0),
            Err(DiskError::UnalignedBuffer { len: 0, .. })
        ));
    }

    #[test]
    fn check_access_rejects_overflow() {
        assert!(matches!(
            check_access(512, 10, 10, 512),
            Err(DiskError::OutOfRange { .. })
        ));
        assert!(matches!(
            check_access(512, 10, u64::MAX, 512),
            Err(DiskError::OutOfRange { .. })
        ));
    }
}
