//! Assembled measurement stacks reproducing the paper's testbed.

use std::sync::Arc;

use bytes::Bytes;

use amoeba_disk::{BlockDevice, MirroredDisk, RamDisk, SchedConfig, SchedDisk};
use amoeba_net::SimEthernet;
use amoeba_rpc::{Dispatcher, RpcClient};
use amoeba_sim::{ChargeLog, CpuProfile, DiskProfile, HwProfile, Nanos, SimClock, Tracer};
use bullet_core::{BulletClient, BulletConfig, BulletRpcServer, BulletServer};
use nfs_blockfs::{NfsClient, NfsServer, NfsServerConfig};

/// The server configuration every measurement rig formats with: 1 KB
/// blocks on 64 MB drives and 2,048 inodes; every other knob is
/// [`BulletConfig::small_test`]'s, the paper's defaults with every
/// optional subsystem (log, archive, tracing, telemetry, accounting) off.
/// Rigs differ only in the clock their CPU costs charge, the CPU profile,
/// and the cache size; anything else is a per-experiment tweak on the
/// result.
pub fn paper_config(clock: SimClock, cpu: CpuProfile, cache_capacity: u64) -> BulletConfig {
    BulletConfig {
        min_inodes: 2048,
        cache_capacity,
        rnode_slots: 2048,
        block_size: 1024,
        disk_blocks: 65_536,
        clock,
        cpu,
        rng_seed: 0xfee1,
        ..BulletConfig::small_test()
    }
}

/// `replicas` fresh RAM disks of `blocks` × `block_size` bytes behind one
/// mirror, each charging `profile`'s seek and transfer costs to `clock`
/// behind the default scheduler (the single-client experiments never
/// queue, so the policy never matters).
pub fn sim_mirror(
    replicas: usize,
    block_size: u32,
    blocks: u64,
    clock: &SimClock,
    profile: DiskProfile,
) -> MirroredDisk {
    let replicas = (0..replicas)
        .map(|_| {
            let disk = SchedDisk::new(
                RamDisk::new(block_size, blocks),
                clock.clone(),
                profile,
                SchedConfig::default(),
            );
            Arc::new(disk) as Arc<dyn BlockDevice>
        })
        .collect();
    MirroredDisk::new(replicas).expect("replica set is valid")
}

/// Client lanes settled against spindles in virtual time, for the
/// multi-client experiments that run their clients on one thread (ABL10,
/// ABL18).  Each operation runs inside [`amoeba_sim::capture`]; its whole
/// cost, plus the client's copy of the reply, goes to its lane, and the
/// part charged to a spindle's disk clock goes to that spindle too.
/// Lanes run in parallel and a spindle serves one request at a time, so
/// the makespan is the slowest lane or the busiest spindle, whichever is
/// longer.
pub struct Makespan {
    cpu: CpuProfile,
    disk_clocks: Vec<SimClock>,
    lanes: Vec<Nanos>,
    spindles: Vec<Nanos>,
}

impl Makespan {
    /// `lanes` idle client lanes and one idle spindle per disk clock.
    pub fn new(lanes: usize, cpu: CpuProfile, disk_clocks: &[SimClock]) -> Makespan {
        Makespan {
            cpu,
            disk_clocks: disk_clocks.to_vec(),
            lanes: vec![Nanos::ZERO; lanes],
            spindles: vec![Nanos::ZERO; disk_clocks.len()],
        }
    }

    /// Charges one captured operation whose client copied `copied`
    /// bytes out of the reply, and returns what its lane paid.
    pub fn charge(&mut self, lane: usize, spindle: usize, log: &ChargeLog, copied: usize) -> Nanos {
        let cost = log.total() + self.cpu.memcpy(copied as u64);
        self.lanes[lane] += cost;
        self.spindles[spindle] += log.charged_to(&self.disk_clocks[spindle]);
        cost
    }

    /// The longest lane: the CPU side's makespan.
    pub fn slowest_lane(&self) -> Nanos {
        self.lanes.iter().copied().max().unwrap_or(Nanos::ZERO)
    }

    /// The most loaded spindle: the disk side's makespan.
    pub fn busiest_spindle(&self) -> Nanos {
        self.spindles.iter().copied().max().unwrap_or(Nanos::ZERO)
    }

    /// `max(slowest lane, busiest spindle)`.
    pub fn settle(&self) -> Nanos {
        self.slowest_lane().max(self.busiest_spindle())
    }
}

/// The Bullet measurement stack of §4: a dedicated server with two
/// mirrored, latency-modelled disks, talking to one client over the
/// simulated Ethernet.
///
/// Scale note: the original machine had two 800 MB drives and 16 MB RAM;
/// we run 64 MB drives and a 12 MB cache.  The seek model works on
/// *fractions* of the disk, and no test file exceeds 1 MB, so the scaling
/// does not change any per-operation cost.
pub struct BulletRig {
    /// The shared simulated clock.
    pub clock: SimClock,
    /// The hardware cost profile in force.
    pub hw: HwProfile,
    /// The server under test.
    pub server: Arc<BulletServer>,
    /// The client issuing operations.
    pub client: BulletClient,
    /// The RPC fabric.
    pub dispatcher: Arc<Dispatcher>,
    /// The span tracer every layer shares — disabled unless the rig was
    /// built with `cfg.trace = Tracer::on(..)` in its tweak.
    pub tracer: Tracer,
    /// Concrete handles on the scheduled replica disks, for scheduler
    /// counter aggregation (the mirror only sees `dyn BlockDevice`).
    pub disks: Vec<Arc<SchedDisk<RamDisk>>>,
}

impl BulletRig {
    /// The paper's configuration: two mirrored SCSI disks, write-through.
    pub fn paper_1989() -> BulletRig {
        BulletRig::with_options(2, HwProfile::amoeba_1989(), 12 << 20)
    }

    /// A rig with an explicit disk count, hardware profile, and cache
    /// capacity (ablations use this).
    ///
    /// # Panics
    ///
    /// Panics if the stack cannot be assembled (a bug, not an input
    /// condition).
    pub fn with_options(disks: usize, hw: HwProfile, cache_capacity: u64) -> BulletRig {
        BulletRig::with_config(disks, hw, cache_capacity, |_| {})
    }

    /// A rig whose [`BulletConfig`] is adjusted by `tweak` before the
    /// server is formatted — the streaming ablations sweep
    /// `cfg.segment_size` through this.
    ///
    /// # Panics
    ///
    /// Panics if the stack cannot be assembled (a bug, not an input
    /// condition).
    pub fn with_config(
        disks: usize,
        hw: HwProfile,
        cache_capacity: u64,
        tweak: impl FnOnce(&mut BulletConfig),
    ) -> BulletRig {
        let clock = SimClock::new();
        // Each replica sits behind its own seek-aware scheduler.  At
        // queue depth 1 every policy charges the same drive-model time,
        // so single-client numbers do not depend on the policy; under
        // concurrency the arm serves requests in SCAN order and coalesces
        // neighbours.
        let sched_disks: Vec<Arc<SchedDisk<RamDisk>>> = (0..disks.max(1))
            .map(|_| {
                Arc::new(SchedDisk::new(
                    RamDisk::new(1024, 65_536), // 64 MB per drive
                    clock.clone(),
                    hw.disk,
                    SchedConfig::default(),
                ))
            })
            .collect();
        let replicas: Vec<Arc<dyn BlockDevice>> = sched_disks
            .iter()
            .map(|d| d.clone() as Arc<dyn BlockDevice>)
            .collect();
        let storage = MirroredDisk::new(replicas).expect("replica set is valid");
        let mut cfg = paper_config(clock.clone(), hw.cpu, cache_capacity);
        tweak(&mut cfg);
        let tracer = cfg.trace.clone();
        for d in &sched_disks {
            d.set_tracer(tracer.clone());
        }
        let server = Arc::new(BulletServer::format_on(cfg, storage).expect("formatting succeeds"));
        let net = SimEthernet::with_load(clock.clone(), hw.net, 1.0);
        let dispatcher = Dispatcher::new(net);
        dispatcher.set_tracer(tracer.clone());
        dispatcher.register(BulletRpcServer::new(server.clone()));
        let client = BulletClient::new(RpcClient::new(dispatcher.clone()), server.port());
        BulletRig {
            clock,
            hw,
            server,
            client,
            dispatcher,
            tracer,
            disks: sched_disks,
        }
    }

    /// Scheduler counters summed across the replica disks.
    pub fn sched_stats(&self) -> SchedSummary {
        let mut s = SchedSummary::default();
        for d in &self.disks {
            let st = d.stats();
            s.seek_blocks += st.get("disk_seek_blocks");
            s.disk_reads += st.get("disk_reads");
            s.disk_writes += st.get("disk_writes");
        }
        s
    }

    /// Measures the delay of one warm `BULLET.READ` of a `size`-byte file
    /// — "in all cases the test file will be completely in memory, and no
    /// disk accesses are necessary" (§4).  Includes the client's copy of
    /// the received file into its own memory.
    ///
    /// # Panics
    ///
    /// Panics if the operations fail (the rig is sized so they cannot).
    pub fn measure_read(&self, size: usize) -> Nanos {
        let cap = self
            .client
            .create(Bytes::from(vec![0xa5; size]), 2)
            .expect("create fits the rig");
        self.client.read(&cap).expect("warm-up read"); // absorbs locate cost
        let t0 = self.clock.now();
        let data = self.client.read(&cap).expect("measured read");
        self.clock.advance(self.hw.cpu.memcpy(data.len() as u64));
        let dt = self.clock.now() - t0;
        self.client.delete(&cap).expect("cleanup");
        dt
    }

    /// Measures "a create and a delete operation together … the file is
    /// written to both disks" (§4) — to every disk of the rig.
    ///
    /// # Panics
    ///
    /// Panics if the operations fail.
    pub fn measure_create_delete(&self, size: usize) -> Nanos {
        let p_factor = self.disks.len() as u32;
        // Warm the locate cache.
        let warm = self.client.create(Bytes::new(), p_factor).expect("warm-up");
        self.client.delete(&warm).expect("warm-up delete");
        let data = Bytes::from(vec![0x5a; size]);
        let t0 = self.clock.now();
        let cap = self.client.create(data, p_factor).expect("measured create");
        self.client.delete(&cap).expect("measured delete");
        self.clock.now() - t0
    }

    /// Measures a create alone at the given P-FACTOR (ablation).
    ///
    /// # Panics
    ///
    /// Panics if the operations fail.
    pub fn measure_create(&self, size: usize, p_factor: u32) -> Nanos {
        let warm = self.client.create(Bytes::new(), 2).expect("warm-up");
        self.client.delete(&warm).expect("warm-up delete");
        let data = Bytes::from(vec![0x77; size]);
        let t0 = self.clock.now();
        let cap = self.client.create(data, p_factor).expect("measured create");
        let dt = self.clock.now() - t0;
        self.server.sync().expect("background flush");
        self.client.delete(&cap).expect("cleanup");
        dt
    }

    /// Measures one *cold* read: the cache is flushed first, so the whole
    /// contiguous extent comes off the disk (ablation).
    ///
    /// # Panics
    ///
    /// Panics if the operations fail.
    pub fn measure_cold_read(&self, size: usize) -> Nanos {
        let cap = self
            .client
            .create(Bytes::from(vec![0x11; size]), 2)
            .expect("create fits the rig");
        self.client.read(&cap).expect("locate warm-up");
        self.server.clear_cache();
        let t0 = self.clock.now();
        self.client.read(&cap).expect("measured cold read");
        self.clock.advance(self.hw.cpu.memcpy(size as u64));
        let dt = self.clock.now() - t0;
        self.client.delete(&cap).expect("cleanup");
        dt
    }
}

/// Aggregated per-rig disk-scheduler counters (see
/// [`BulletRig::sched_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedSummary {
    /// Total blocks of arm travel across all replicas.
    pub seek_blocks: u64,
    /// Physical block reads across all replicas.
    pub disk_reads: u64,
    /// Physical block writes across all replicas.
    pub disk_writes: u64,
}

/// The SUN NFS measurement stack of §4: a SUN 3/180-like server with one
/// latency-modelled disk and a 3 MB write-through buffer cache, and a
/// client whose local caching is disabled (the paper's `lockf` trick).
pub struct NfsRig {
    /// The shared simulated clock.
    pub clock: SimClock,
    /// The server under test.
    pub server: Arc<NfsServer>,
    /// The block-at-a-time client.
    pub client: NfsClient,
    /// The RPC fabric.
    pub dispatcher: Arc<Dispatcher>,
}

impl NfsRig {
    /// The paper's configuration.
    pub fn paper_1989() -> NfsRig {
        NfsRig::with_config(|_| {})
    }

    /// A rig with the configuration adjusted by `tweak` (ablations).
    ///
    /// # Panics
    ///
    /// Panics if the stack cannot be assembled.
    pub fn with_config(tweak: impl FnOnce(&mut NfsServerConfig)) -> NfsRig {
        let clock = SimClock::new();
        let hw = HwProfile::amoeba_1989();
        let mut cfg = NfsServerConfig::sun_3_180(clock.clone());
        tweak(&mut cfg);
        let dev: Arc<dyn BlockDevice> = Arc::new(SchedDisk::new(
            RamDisk::new(cfg.block_size, cfg.disk_blocks),
            clock.clone(),
            hw.disk,
            SchedConfig::default(),
        ));
        let server = Arc::new(NfsServer::format_on(cfg, dev).expect("formatting succeeds"));
        let net = SimEthernet::with_load(clock.clone(), hw.net, 1.0);
        let dispatcher = Dispatcher::new(net);
        dispatcher.register(server.clone());
        let client = NfsClient::new(
            RpcClient::new(dispatcher.clone()),
            server.port(),
            server.transfer_size(),
            server.profile(),
            clock.clone(),
        );
        NfsRig {
            clock,
            server,
            client,
            dispatcher,
        }
    }

    /// Measures a warm whole-file read (the server's buffer cache holds
    /// the file after the preceding create; the client has no cache).
    ///
    /// # Panics
    ///
    /// Panics if the operations fail.
    pub fn measure_read(&self, size: usize) -> Nanos {
        let fh = self.client.create_file(&vec![0xa5; size]).expect("create");
        self.client.read_file(fh).expect("warm-up read");
        let t0 = self.clock.now();
        self.client.read_file(fh).expect("measured read");
        let dt = self.clock.now() - t0;
        self.client.remove(fh).expect("cleanup");
        dt
    }

    /// Measures a create (`creat` + per-block `write` + `close`,
    /// write-through to the single disk).
    ///
    /// # Panics
    ///
    /// Panics if the operations fail.
    pub fn measure_create(&self, size: usize) -> Nanos {
        let warm = self.client.create_file(&[]).expect("warm-up");
        self.client.remove(warm).expect("warm-up remove");
        let data = vec![0x5a; size];
        let t0 = self.clock.now();
        let fh = self.client.create_file(&data).expect("measured create");
        let dt = self.clock.now() - t0;
        self.client.remove(fh).expect("cleanup");
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bullet_rig_read_is_milliseconds_warm() {
        let rig = BulletRig::paper_1989();
        let dt = rig.measure_read(1);
        assert!(
            (0.5..10.0).contains(&dt.as_ms_f64()),
            "1-byte read took {dt}"
        );
        // Deterministic: measuring again gives the same number.
        assert_eq!(rig.measure_read(1), dt);
    }

    #[test]
    fn bullet_create_hits_both_disks() {
        let rig = BulletRig::paper_1989();
        rig.measure_create_delete(4096);
        let mirror = rig.server.storage();
        assert_eq!(mirror.replica_count(), 2);
        assert_eq!(mirror.pending_background(), 0, "p=2 writes synchronously");
    }

    #[test]
    fn nfs_rig_read_is_per_block() {
        let rig = NfsRig::paper_1989();
        let msgs0 = rig.dispatcher.net().stats().get("net_messages");
        rig.measure_read(64 * 1024);
        let msgs = rig.dispatcher.net().stats().get("net_messages") - msgs0;
        // 2 ops warm-up/cleanup aside, a 64 KB read is 8 READ RPCs + 1
        // GETATTR, twice (warm-up + measured), plus create/remove traffic:
        // the point is it is *far* more than the Bullet client's 2.
        assert!(msgs > 20, "messages {msgs}");
    }

    #[test]
    fn rigs_are_deterministic() {
        let a = NfsRig::paper_1989().measure_create(8192);
        let b = NfsRig::paper_1989().measure_create(8192);
        assert_eq!(a, b);
    }
}
