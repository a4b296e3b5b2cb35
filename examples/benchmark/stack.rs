//! Builds the stack under test and brings it to its measured state.
//!
//! `BulletClient → Dispatcher → BulletRpcServer → BulletServer →
//! MirroredDisk → SchedDisk<RamDisk>` under `HwProfile::amoeba_1989()`:
//! the default configuration of the repo's own measurement rig, with two
//! mirrored 64 MB RAM disks of 1 KB blocks.

use std::sync::Arc;
use std::time::Instant;

use amoeba_bullet::bullet::{BulletClient, BulletConfig, BulletRpcServer, BulletServer};
use amoeba_bullet::disk::{BlockDevice, MirroredDisk, RamDisk, SchedConfig, SchedDisk};
use amoeba_bullet::net::SimEthernet;
use amoeba_bullet::rpc::{Dispatcher, RpcClient};
use amoeba_bullet::sim::{DetRng, HwProfile, SimClock};
use bytes::Bytes;

use crate::workload::{shuffled, slot_sizes, Slot, Spec, P_FACTOR, SOURCE_LEN};

pub const BLOCK_SIZE: u32 = 1024;
pub const DISK_BLOCKS: u64 = 65_536;
/// Inode and rnode slots: twice the largest live set (4096 files).
pub const SLOTS: usize = 8192;

pub struct Stack {
    pub clock: SimClock,
    pub net: SimEthernet,
    pub disks: Vec<Arc<SchedDisk<RamDisk>>>,
    pub server: Arc<BulletServer>,
    pub rpc_server: Arc<BulletRpcServer>,
    pub dispatcher: Arc<Dispatcher>,
    pub client: BulletClient,
}

pub fn sched_disk(clock: &SimClock) -> Arc<SchedDisk<RamDisk>> {
    Arc::new(SchedDisk::new(
        RamDisk::new(BLOCK_SIZE, DISK_BLOCKS),
        clock.clone(),
        HwProfile::amoeba_1989().disk,
        SchedConfig::default(),
    ))
}

pub fn mirror(disks: &[Arc<SchedDisk<RamDisk>>]) -> MirroredDisk {
    let replicas = disks
        .iter()
        .map(|d| d.clone() as Arc<dyn BlockDevice>)
        .collect();
    MirroredDisk::new(replicas).expect("two replicas of one geometry")
}

impl Stack {
    pub fn new(cache_bytes: u64) -> Stack {
        let hw = HwProfile::amoeba_1989();
        let clock = SimClock::new();
        let disks = vec![sched_disk(&clock), sched_disk(&clock)];
        // `small_test()` plus assignments, so a field this benchmark does
        // not care about can come or go without breaking it.
        let mut cfg = BulletConfig::small_test();
        cfg.min_inodes = SLOTS as u32;
        cfg.rnode_slots = SLOTS;
        cfg.cache_capacity = cache_bytes;
        cfg.block_size = BLOCK_SIZE;
        cfg.disk_blocks = DISK_BLOCKS;
        cfg.clock = clock.clone();
        cfg.cpu = hw.cpu;
        let server =
            Arc::new(BulletServer::format_on(cfg, mirror(&disks)).expect("a 64 MB disk formats"));
        let net = SimEthernet::new(clock.clone(), hw.net);
        let dispatcher = Dispatcher::new(net.clone());
        let rpc_server = BulletRpcServer::new(server.clone());
        dispatcher.register(rpc_server.clone());
        let client = BulletClient::new(RpcClient::new(dispatcher.clone()), server.port());
        Stack {
            clock,
            net,
            disks,
            server,
            rpc_server,
            dispatcher,
            client,
        }
    }
}

/// A stack in its measured state, and what the clients need to drive it.
pub struct Ready {
    pub stack: Stack,
    pub source: Bytes,
    /// One file set per client.
    pub slots: Vec<Vec<Slot>>,
    pub setup_s: f64,
}

/// Format, preload, warm up.  The first transaction also pays the
/// one-time locate broadcast, so no measured op does.
pub fn setup(spec: &Spec, seed: u64) -> Ready {
    let t0 = Instant::now();
    let mut rng = DetRng::new(seed);
    let mut buf = vec![0u8; SOURCE_LEN];
    rng.fill_bytes(&mut buf);
    let source = Bytes::from(buf);
    let stack = Stack::new(spec.cache_bytes);
    let sizes = slot_sizes(spec);

    let sets = spec.file_sets();
    let mut slots: Vec<Vec<Slot>> = Vec::with_capacity(spec.clients);
    for _ in 0..sets {
        let mut set = vec![None; spec.files];
        for i in shuffled(spec.files, &mut rng) {
            let len = sizes[i];
            let off = rng.next_below((SOURCE_LEN - len as usize + 1) as u64) as u32;
            let data = source.slice(off as usize..(off + len) as usize);
            let cap = stack
                .client
                .create(data, P_FACTOR)
                .expect("the preload fits the disk");
            set[i] = Some(Slot { cap, off, len });
        }
        slots.push(
            set.into_iter()
                .map(|s| s.expect("every slot filled"))
                .collect(),
        );
    }
    while slots.len() < spec.clients {
        slots.push(slots[0].clone());
    }

    // Warm-up: one read of every file in creation-independent order, so
    // the cache holds what the workload's own reads would have left
    // there (everything on the hot workloads, the tail of a scan on the
    // cold ones).
    for set in &slots[..sets] {
        for i in shuffled(spec.files, &mut rng) {
            let data = stack
                .client
                .read(&set[i].cap)
                .expect("preloaded file reads");
            assert_eq!(data.len(), set[i].len as usize);
        }
    }
    Ready {
        stack,
        source,
        slots,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}
