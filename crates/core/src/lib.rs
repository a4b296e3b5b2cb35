//! The Bullet file server — the paper's primary contribution.
//!
//! The Bullet server stores **immutable** files **contiguously** — on disk,
//! in its RAM cache, and on the wire.  There are no update-in-place
//! operations: the interface is `CREATE`, `SIZE`, `READ`, `DELETE`
//! (§2.2), plus the §5 extensions (`MODIFY`/`APPEND`, which derive a *new*
//! file from an existing one server-side, and partial reads for small
//! clients).
//!
//! # Architecture (matching §3 of the paper)
//!
//! * [`layout`] — the on-disk format: block 0 region holds the inode
//!   table; inode 0 is the *disk descriptor* (block size, inode-table
//!   size, data-area size); every other inode is 16 bytes — a 6-byte
//!   random number, a 2-byte cache index, a 4-byte start block, and a
//!   4-byte byte count.  The rest of the disk is contiguous files and
//!   holes.
//! * [`table`] — the in-RAM inode table, read in full at start-up and kept
//!   permanently; performs the start-up consistency scan (overlap and
//!   bounds checks) and write-through inode updates (whole containing
//!   block).
//! * [`freelist`] — the extent allocator over the data area: first-fit,
//!   coalescing frees, fragmentation reporting, and compaction planning
//!   (the paper's "3 a.m." defragmentation).
//! * [`cache`] — the RAM file cache: *rnodes* referencing contiguous
//!   cache extents, LRU eviction by age field, and memory compaction.
//! * [`server`] — [`BulletServer`]: the operations, P-FACTOR durability
//!   over a mirrored disk pair, crash/recovery, and administration.
//! * [`rpc_iface`] — the RPC facade and the [`BulletClient`] stubs
//!   (`BULLET.CREATE` and friends as seen by remote clients).
//!
//! # Example
//!
//! ```
//! use bullet_core::{BulletConfig, BulletServer};
//! use bytes::Bytes;
//!
//! let server = BulletServer::format(BulletConfig::small_test(), 2)?;
//! let cap = server.create(Bytes::from_static(b"an immutable file"), 1)?;
//! assert_eq!(server.size(&cap)?, 17);
//! assert_eq!(server.read(&cap)?, Bytes::from_static(b"an immutable file"));
//! server.delete(&cap)?;
//! assert!(server.read(&cap).is_err());
//! # Ok::<(), bullet_core::BulletError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod cache;
pub mod counters;
pub mod error;
pub mod freelist;
pub mod gclog;
pub mod groupcommit;
pub mod layout;
pub mod maintenance;
pub mod rpc_iface;
pub mod server;
pub mod shard;
pub mod table;

pub use accounting::{ClientAccounting, ClientScope, ClientUsage};
pub use cache::{EvictionPolicy, FileCache};
pub use error::BulletError;
pub use freelist::{ExtentAllocator, FragReport, Move};
pub use gclog::{ChainScan, LogEntry, LogRecord};
pub use groupcommit::{BatchCaps, GroupCommitter};
pub use layout::{DiskDescriptor, Inode, Residency};
pub use rpc_iface::{commands, BulletClient, BulletRpcServer};
pub use server::{ArchiveDevice, BulletConfig, BulletServer, CompactTick, LayoutEntry};
pub use shard::{BulletShards, ShardSlot};
