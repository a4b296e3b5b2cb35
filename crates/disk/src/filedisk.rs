//! A host-file-backed block device.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use parking_lot::Mutex;

use crate::device::check_access;
use crate::{BlockDevice, DiskError};

/// A block device backed by a file on the host file system.
///
/// Used by persistence tests (a Bullet server restarted on the same
/// `FileDisk` must recover all files from its inode table) and by the
/// examples that want state to survive the process.
#[derive(Debug)]
pub struct FileDisk {
    block_size: u32,
    num_blocks: u64,
    file: Mutex<File>,
}

impl FileDisk {
    /// Creates (or truncates) a file-backed disk at `path`.
    ///
    /// # Errors
    ///
    /// Any host I/O error creating or sizing the file.
    pub fn create(
        path: impl AsRef<Path>,
        block_size: u32,
        num_blocks: u64,
    ) -> Result<FileDisk, DiskError> {
        assert!(block_size > 0, "block size must be positive");
        let len = num_blocks
            .checked_mul(block_size as u64)
            .ok_or_else(|| DiskError::Io("disk size overflows 64 bits".into()))?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(len)?;
        Ok(FileDisk {
            block_size,
            num_blocks,
            file: Mutex::new(file),
        })
    }

    /// Opens an existing file-backed disk; geometry must be supplied by the
    /// caller (the Bullet disk descriptor in block 0 records it).
    ///
    /// # Errors
    ///
    /// Any host I/O error, or [`DiskError::GeometryMismatch`] if the file
    /// size does not match the given geometry.
    pub fn open(
        path: impl AsRef<Path>,
        block_size: u32,
        num_blocks: u64,
    ) -> Result<FileDisk, DiskError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        if file.metadata()?.len() != num_blocks * block_size as u64 {
            return Err(DiskError::GeometryMismatch);
        }
        Ok(FileDisk {
            block_size,
            num_blocks,
            file: Mutex::new(file),
        })
    }
}

impl BlockDevice for FileDisk {
    fn block_size(&self) -> u32 {
        self.block_size
    }

    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        check_access(self.block_size, self.num_blocks, first_block, buf.len())?;
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(first_block * self.block_size as u64))?;
        f.read_exact(buf)?;
        Ok(())
    }

    fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
        check_access(self.block_size, self.num_blocks, first_block, data.len())?;
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(first_block * self.block_size as u64))?;
        f.write_all(data)?;
        Ok(())
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.file.lock().sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("amoeba-filedisk-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn create_write_reopen_read() {
        let path = tmp("roundtrip");
        {
            let d = FileDisk::create(&path, 512, 16).unwrap();
            d.write_blocks(5, &[0x5au8; 1024]).unwrap();
            d.sync().unwrap();
        }
        {
            let d = FileDisk::open(&path, 512, 16).unwrap();
            let mut buf = [0u8; 1024];
            d.read_blocks(5, &mut buf).unwrap();
            assert_eq!(buf, [0x5au8; 1024]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_wrong_geometry() {
        let path = tmp("geometry");
        FileDisk::create(&path, 512, 16).unwrap();
        assert!(matches!(
            FileDisk::open(&path, 512, 17),
            Err(DiskError::GeometryMismatch)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bounds_checked() {
        let path = tmp("bounds");
        let d = FileDisk::create(&path, 512, 4).unwrap();
        assert!(d.write_blocks(4, &[0u8; 512]).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
