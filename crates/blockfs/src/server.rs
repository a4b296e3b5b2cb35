//! The NFS-like RPC server over the block file system.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

use amoeba_cap::Port;
use amoeba_disk::{BlockDevice, RamDisk};
use amoeba_rpc::{Reply, Request, RpcServer, Status};
use amoeba_sim::{Nanos, SimClock, Stats};

use crate::fs::BlockFs;
use crate::BlockFsError;

/// Command codes of the NFS-like protocol (one RPC per block, the
/// traditional model).
pub mod nfs_commands {
    /// Create an empty file → file handle.
    pub const CREATE: u32 = 1;
    /// Write one transfer unit: `(fh, offset)` + data.
    pub const WRITE: u32 = 2;
    /// Read one transfer unit: `(fh, offset, len)` → data.
    pub const READ: u32 = 3;
    /// File size: `(fh)` → u32.
    pub const GETATTR: u32 = 4;
    /// Remove the file: `(fh)`.
    pub const REMOVE: u32 = 5;
}

/// An NFS file handle: inode number + generation (stale handles are
/// detected by generation mismatch, like real NFS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileHandle {
    /// Inode number.
    pub ino: u32,
    /// Inode generation.
    pub generation: u32,
}

impl FileHandle {
    /// Wire length in bytes.
    pub const WIRE_LEN: usize = 8;

    /// Serializes the handle.
    pub fn to_wire(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[0..4].copy_from_slice(&self.ino.to_be_bytes());
        out[4..8].copy_from_slice(&self.generation.to_be_bytes());
        out
    }

    /// Parses a handle from `buf` at `at`.
    ///
    /// # Errors
    ///
    /// [`Status::BadParam`] if truncated.
    pub fn from_wire(buf: &Bytes, at: usize) -> Result<FileHandle, Status> {
        let raw = buf.get(at..at + 8).ok_or(Status::BadParam)?;
        Ok(FileHandle {
            ino: u32::from_be_bytes(raw[0..4].try_into().expect("4")),
            generation: u32::from_be_bytes(raw[4..8].try_into().expect("4")),
        })
    }
}

/// Cost model of the SunOS 3.5 NFS software path, calibrated against
/// documented era behaviour (see EXPERIMENTS.md for the discussion):
///
/// * NFS servers of the day serviced on the order of 100–200 ops/s —
///   several milliseconds of kernel CPU per operation (UDP/IP, XDR, VFS);
/// * every data byte crossed several extra copies (mbuf chains, UDP
///   checksum, buffer cache, user space) on a 4 MB/s-memcpy machine;
/// * large transfers fragmented 8 KB UDP datagrams onto a loaded
///   Ethernet; fragment loss cost a full `timeo` retransmission timeout,
///   the classic NFS large-file pathology.
#[derive(Debug, Clone, Copy)]
pub struct NfsProfile {
    /// Fixed server CPU per NFS operation (µs).
    pub op_overhead_us: f64,
    /// Extra per-byte software cost on the data path (µs).
    pub per_byte_us: f64,
    /// A retransmission timeout fires after this many back-to-back
    /// packets of one transfer (0 disables the model).
    pub retrans_every_packets: u64,
    /// The retransmission timeout penalty.
    pub retrans_penalty: Nanos,
    /// Ethernet payload per packet, for the fragment count.
    pub packet_payload: u32,
}

impl NfsProfile {
    /// The calibrated SunOS 3.5 profile.
    pub fn sunos_3_5() -> NfsProfile {
        NfsProfile {
            op_overhead_us: 2_000.0,
            per_byte_us: 6.0,
            retrans_every_packets: 220,
            retrans_penalty: Nanos::from_ms(700),
            packet_payload: 1480,
        }
    }
}

/// Configuration of the NFS-like server.
#[derive(Debug, Clone)]
pub struct NfsServerConfig {
    /// The service port.
    pub port: Port,
    /// Buffer-cache size in bytes (the measured server had 3 MB).
    pub cache_bytes: u64,
    /// Number of inodes to format.
    pub n_inodes: u32,
    /// File-system block size == NFS transfer size.
    pub block_size: u32,
    /// Device size in blocks (convenience constructor).
    pub disk_blocks: u64,
    /// Aged-file-system scatter seed (`None` = freshly formatted).
    pub scatter_seed: Option<u64>,
    /// The software cost model.
    pub profile: NfsProfile,
    /// The shared simulated clock.
    pub clock: SimClock,
}

impl NfsServerConfig {
    /// A small test configuration: 1 KB blocks, 4 MB disk, 64 KB cache.
    pub fn small_test() -> NfsServerConfig {
        NfsServerConfig {
            port: Port::from_u64(0x4e46),
            cache_bytes: 64 * 1024,
            n_inodes: 128,
            block_size: 1024,
            disk_blocks: 4096,
            scatter_seed: None,
            profile: NfsProfile::sunos_3_5(),
            clock: SimClock::new(),
        }
    }

    /// The paper's measured server: 8 KB transfers, 3 MB cache, aged disk.
    pub fn sun_3_180(clock: SimClock) -> NfsServerConfig {
        NfsServerConfig {
            port: Port::from_u64(0x4e46),
            cache_bytes: 3 << 20,
            n_inodes: 1024,
            block_size: 8192,
            disk_blocks: 8192, // 64 MB device (scaled; seek model uses fractions)
            scatter_seed: Some(0xa6ed),
            profile: NfsProfile::sunos_3_5(),
            clock,
        }
    }
}

/// The NFS-like file server.
pub struct NfsServer {
    cfg: NfsServerConfig,
    fs: Mutex<BlockFs<Arc<dyn BlockDevice>>>,
    stats: Stats,
}

impl std::fmt::Debug for NfsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NfsServer")
            .field("port", &self.cfg.port)
            .finish()
    }
}

impl NfsServer {
    /// Formats `dev` and serves it.
    ///
    /// # Errors
    ///
    /// Disk or format errors.
    pub fn format_on(
        cfg: NfsServerConfig,
        dev: Arc<dyn BlockDevice>,
    ) -> Result<NfsServer, BlockFsError> {
        let fs = BlockFs::format(dev, cfg.n_inodes, cfg.cache_bytes, cfg.scatter_seed)?;
        Ok(NfsServer {
            cfg,
            fs: Mutex::new(fs),
            stats: Stats::new(),
        })
    }

    /// Convenience: formats a fresh server on a plain RAM disk sized from
    /// the configuration.
    ///
    /// # Errors
    ///
    /// Disk or format errors.
    pub fn format(cfg: NfsServerConfig) -> Result<NfsServer, BlockFsError> {
        let dev: Arc<dyn BlockDevice> = Arc::new(RamDisk::new(cfg.block_size, cfg.disk_blocks));
        NfsServer::format_on(cfg, dev)
    }

    /// The service port.
    pub fn port(&self) -> Port {
        self.cfg.port
    }

    /// The configured transfer size (== block size).
    pub fn transfer_size(&self) -> u32 {
        self.cfg.block_size
    }

    /// The cost profile.
    pub fn profile(&self) -> NfsProfile {
        self.cfg.profile
    }

    /// Server statistics: `nfs_ops`, `nfs_bytes_in`, `nfs_bytes_out`.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Buffer-cache statistics snapshot.
    pub fn cache_stats(&self) -> Vec<(&'static str, u64)> {
        self.fs.lock().cache().stats().snapshot()
    }

    /// Drops the buffer cache (benchmarks use this for cold-read runs).
    pub fn drop_caches(&self) {
        self.fs.lock().drop_caches();
    }

    fn charge(&self, data_bytes: u64) {
        let p = &self.cfg.profile;
        self.cfg.clock.advance(Nanos::from_us_f64(
            p.op_overhead_us + data_bytes as f64 * p.per_byte_us,
        ));
    }
}

impl RpcServer for NfsServer {
    fn port(&self) -> Port {
        self.cfg.port
    }

    fn handle(&self, req: Request) -> Reply {
        use nfs_commands as c;
        self.stats.incr("nfs_ops");
        let result: Result<Reply, Status> = (|| match req.command {
            amoeba_rpc::std_commands::INFO => Ok(Reply::ok(
                Bytes::new(),
                Bytes::from(format!(
                    "nfs-like block server at {}: {}-byte transfers",
                    self.cfg.port, self.cfg.block_size
                )),
            )),
            amoeba_rpc::std_commands::STATUS => {
                let mut out = String::new();
                for (k, v) in self.stats.snapshot() {
                    out.push_str(&format!("{k}={v}\n"));
                }
                for (k, v) in self.cache_stats() {
                    out.push_str(&format!("{k}={v}\n"));
                }
                Ok(Reply::ok(Bytes::new(), Bytes::from(out)))
            }
            c::CREATE => {
                self.charge(0);
                let (ino, generation) = self.fs.lock().create_inode().map_err(Status::from)?;
                Ok(Reply::ok(
                    Bytes::copy_from_slice(&FileHandle { ino, generation }.to_wire()),
                    Bytes::new(),
                ))
            }
            c::WRITE => {
                let fh = FileHandle::from_wire(&req.params, 0)?;
                let offset = read_u32(&req.params, 8)?;
                self.charge(req.data.len() as u64);
                self.stats.add("nfs_bytes_in", req.data.len() as u64);
                self.fs
                    .lock()
                    .write(fh.ino, fh.generation, offset, &req.data)
                    .map_err(Status::from)?;
                Ok(Reply::ok(Bytes::new(), Bytes::new()))
            }
            c::READ => {
                let fh = FileHandle::from_wire(&req.params, 0)?;
                let offset = read_u32(&req.params, 8)?;
                let len = read_u32(&req.params, 12)?.min(self.cfg.block_size);
                let data = self
                    .fs
                    .lock()
                    .read(fh.ino, fh.generation, offset, len)
                    .map_err(Status::from)?;
                self.charge(data.len() as u64);
                self.stats.add("nfs_bytes_out", data.len() as u64);
                Ok(Reply::ok(Bytes::new(), Bytes::from(data)))
            }
            c::GETATTR => {
                self.charge(0);
                let fh = FileHandle::from_wire(&req.params, 0)?;
                let size = self
                    .fs
                    .lock()
                    .getattr(fh.ino, fh.generation)
                    .map_err(Status::from)?;
                let mut params = BytesMut::with_capacity(4);
                params.put_u32(size);
                Ok(Reply::ok(params.freeze(), Bytes::new()))
            }
            c::REMOVE => {
                self.charge(0);
                let fh = FileHandle::from_wire(&req.params, 0)?;
                self.fs
                    .lock()
                    .remove(fh.ino, fh.generation)
                    .map_err(Status::from)?;
                Ok(Reply::ok(Bytes::new(), Bytes::new()))
            }
            _ => Err(Status::ComBad),
        })();
        result.unwrap_or_else(Reply::error)
    }
}

fn read_u32(buf: &Bytes, at: usize) -> Result<u32, Status> {
    buf.get(at..at + 4)
        .map(|mut s| s.get_u32())
        .ok_or(Status::BadParam)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_wire_roundtrip() {
        let fh = FileHandle {
            ino: 77,
            generation: 3,
        };
        let wire = Bytes::copy_from_slice(&fh.to_wire());
        assert_eq!(FileHandle::from_wire(&wire, 0).unwrap(), fh);
        assert_eq!(
            FileHandle::from_wire(&wire.slice(..7), 0).unwrap_err(),
            Status::BadParam
        );
    }

    #[test]
    fn server_ops_charge_fixed_and_per_byte_cost() {
        let cfg = NfsServerConfig::small_test();
        let clock = cfg.clock.clone();
        let server = NfsServer::format(cfg).unwrap();

        let reply = server.handle(Request {
            cap: amoeba_cap::Capability::null(),
            command: nfs_commands::CREATE,
            params: Bytes::new(),
            data: Bytes::new(),
        });
        assert_eq!(reply.status, Status::Ok);
        let after_create = clock.now();
        assert!(
            after_create.as_ms_f64() >= 2.0,
            "create charged {after_create}"
        );

        let fh = FileHandle::from_wire(&reply.params, 0).unwrap();
        let mut params = BytesMut::new();
        params.put_slice(&fh.to_wire());
        params.put_u32(0);
        let reply = server.handle(Request {
            cap: amoeba_cap::Capability::null(),
            command: nfs_commands::WRITE,
            params: params.freeze(),
            data: Bytes::from(vec![1u8; 1024]),
        });
        assert_eq!(reply.status, Status::Ok);
        let write_cost = clock.now() - after_create;
        // 2.5 ms fixed + 1024 * 6.0 µs ≈ 8.6 ms.
        assert!(
            (7.5..10.0).contains(&write_cost.as_ms_f64()),
            "write charged {write_cost}"
        );
    }

    #[test]
    fn unknown_command_and_stale_handle() {
        let server = NfsServer::format(NfsServerConfig::small_test()).unwrap();
        let reply = server.handle(Request {
            cap: amoeba_cap::Capability::null(),
            command: 99,
            params: Bytes::new(),
            data: Bytes::new(),
        });
        assert_eq!(reply.status, Status::ComBad);

        let mut params = BytesMut::new();
        params.put_slice(
            &FileHandle {
                ino: 1,
                generation: 42,
            }
            .to_wire(),
        );
        let reply = server.handle(Request {
            cap: amoeba_cap::Capability::null(),
            command: nfs_commands::GETATTR,
            params: params.freeze(),
            data: Bytes::new(),
        });
        assert_eq!(reply.status, Status::NotFound);
    }
}
