//! End-to-end tests of the pipelined streaming transfer path: timing
//! bounds, zero-copy guarantees, section reads, and bit-identity of streamed
//! replies (including real frame reassembly over the channel transport).

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use proptest::prelude::*;

use amoeba_disk::{BlockDevice, DiskError, MirroredDisk, RamDisk, SchedConfig, SchedDisk};
use amoeba_net::{duplex, SimEthernet};
use amoeba_rpc::client::{serve_chan, RemoteClient};
use amoeba_rpc::{Dispatcher, RpcClient, RpcServer, DEFAULT_SEGMENT};
use amoeba_sim::{DiskProfile, HwProfile, Nanos, NetProfile, SimClock};
use bullet_core::{commands, BulletClient, BulletConfig, BulletRpcServer, BulletServer};

/// A full measurement stack on latency-modelled mirrored disks.
fn stack(
    disk: DiskProfile,
    net: NetProfile,
    tweak: impl FnOnce(&mut BulletConfig),
) -> (SimClock, BulletClient, Arc<BulletServer>) {
    let clock = SimClock::new();
    let replicas: Vec<Arc<dyn BlockDevice>> = (0..2)
        .map(|_| {
            Arc::new(SchedDisk::new(
                RamDisk::new(1024, 65_536),
                clock.clone(),
                disk,
                SchedConfig::default(),
            )) as Arc<dyn BlockDevice>
        })
        .collect();
    let storage = MirroredDisk::new(replicas).unwrap();
    let mut cfg = BulletConfig::small_test();
    cfg.clock = clock.clone();
    cfg.block_size = 1024;
    cfg.disk_blocks = 65_536;
    cfg.cache_capacity = 12 << 20;
    cfg.min_inodes = 2048;
    cfg.rnode_slots = 2048;
    tweak(&mut cfg);
    let server = Arc::new(BulletServer::format_on(cfg, storage).unwrap());
    let fabric = SimEthernet::new(clock.clone(), net);
    let dispatcher = Dispatcher::new(fabric);
    dispatcher.register(BulletRpcServer::new(server.clone()));
    let client = BulletClient::new(RpcClient::new(dispatcher), server.port());
    (clock, client, server)
}

fn paper_stack(
    tweak: impl FnOnce(&mut BulletConfig),
) -> (SimClock, BulletClient, Arc<BulletServer>) {
    let hw = HwProfile::amoeba_1989();
    stack(hw.disk, hw.net, tweak)
}

/// The stack's segment in bytes (`small_test`'s, a whole number of its
/// 1 KB blocks) and one block.
const SEG: usize = DEFAULT_SEGMENT as usize;
const BLOCK: usize = 1024;

/// A segment no file reaches: every transfer is staged whole.
fn one_segment(cfg: &mut BulletConfig) {
    cfg.segment_size = u32::MAX;
}

/// A zero-cost network, to isolate the disk lane.
fn free_net() -> NetProfile {
    NetProfile {
        per_message_us: 0.0,
        per_packet_us: 0.0,
        per_byte_us: 0.0,
        mtu_payload: 1480,
    }
}

/// Cold-read time of a fresh `size`-byte file over the given stack.
fn cold_read_time(
    clock: &SimClock,
    client: &BulletClient,
    server: &BulletServer,
    size: usize,
) -> Nanos {
    let cap = client.create(Bytes::from(vec![0x42; size]), 2).unwrap();
    client.read(&cap).unwrap(); // locate warm-up
    server.clear_cache();
    let (data, dt) = clock.time(|| client.read(&cap).unwrap());
    assert_eq!(data.len(), size);
    client.delete(&cap).unwrap();
    dt
}

fn create_time(clock: &SimClock, client: &BulletClient, size: usize) -> Nanos {
    let warm = client.create(Bytes::new(), 2).unwrap();
    client.delete(&warm).unwrap();
    let data = Bytes::from(vec![0x27; size]);
    let (cap, dt) = clock.time(|| client.create(data, 2).unwrap());
    client.delete(&cap).unwrap();
    dt
}

#[test]
fn pipelined_cold_read_beats_sequential_and_respects_lane_bounds() {
    const MB: usize = 1 << 20;
    let (clock, client, server) = paper_stack(|_| {});
    let pipelined = cold_read_time(&clock, &client, &server, MB);
    assert!(server.stats().get("pipelined_reads") >= 1);

    let (clock, client, server) = paper_stack(one_segment);
    let sequential = cold_read_time(&clock, &client, &server, MB);
    assert_eq!(server.stats().get("pipelined_reads"), 0);

    // The acceptance bar: overlapping disk with wire buys at least 1.4x
    // on a cold 1 MB read.
    let speedup = sequential.as_secs_f64() / pipelined.as_secs_f64();
    assert!(
        speedup >= 1.4,
        "cold 1 MB read: pipelined {pipelined} vs sequential {sequential} ({speedup:.2}x)"
    );

    // Lower bounds: the pipeline cannot beat either lane alone.
    let hw = HwProfile::amoeba_1989();
    let (clock, client, server) = stack(DiskProfile::instant(), hw.net, one_segment);
    let wire_only = cold_read_time(&clock, &client, &server, MB);
    let (clock, client, server) = stack(hw.disk, free_net(), one_segment);
    let disk_only = cold_read_time(&clock, &client, &server, MB);
    assert!(
        pipelined >= wire_only && pipelined >= disk_only,
        "pipelined {pipelined} vs wire {wire_only} / disk {disk_only}"
    );
}

#[test]
fn pipelined_create_beats_sequential() {
    const MB: usize = 1 << 20;
    let (clock, client, server) = paper_stack(|_| {});
    let pipelined = create_time(&clock, &client, MB);
    assert!(server.stats().get("pipelined_creates") >= 1);

    let (clock, client, _server) = paper_stack(one_segment);
    let sequential = create_time(&clock, &client, MB);
    let speedup = sequential.as_secs_f64() / pipelined.as_secs_f64();
    assert!(
        speedup >= 1.4,
        "1 MB create: pipelined {pipelined} vs sequential {sequential} ({speedup:.2}x)"
    );
}

#[test]
fn pipelined_never_exceeds_sequential_at_any_size() {
    for size in [1024, 64 * 1024, 100_000, 256 * 1024, 1 << 20] {
        let (clock, client, server) = paper_stack(|_| {});
        let pipelined = cold_read_time(&clock, &client, &server, size);
        let (clock, client, server) = paper_stack(one_segment);
        let sequential = cold_read_time(&clock, &client, &server, size);
        assert!(
            pipelined <= sequential,
            "{size} bytes: pipelined {pipelined} > sequential {sequential}"
        );
    }
}

/// The `pipelined_*` counters of `server`.
fn pipelined(server: &BulletServer) -> (u64, u64) {
    let stats = server.stats();
    (stats.get("pipelined_reads"), stats.get("pipelined_creates"))
}

#[test]
fn a_cold_read_streams_only_past_one_segment() {
    let (clock, client, server) = paper_stack(|_| {});
    let staged = cold_read_time(&clock, &client, &server, SEG);
    assert_eq!(pipelined(&server), (0, 0), "one segment is staged whole");
    let (clock, client, server) = paper_stack(one_segment);
    assert_eq!(staged, cold_read_time(&clock, &client, &server, SEG));

    let (clock, client, server) = paper_stack(|_| {});
    cold_read_time(&clock, &client, &server, SEG + BLOCK);
    assert_eq!(pipelined(&server), (1, 1), "one block more streams");
}

#[test]
fn a_create_streams_only_past_one_segment() {
    let (clock, client, server) = paper_stack(|_| {});
    let staged = create_time(&clock, &client, SEG);
    assert_eq!(pipelined(&server), (0, 0), "one segment is staged whole");
    let (clock, client, _server) = paper_stack(one_segment);
    assert_eq!(staged, create_time(&clock, &client, SEG));

    let (clock, client, server) = paper_stack(|_| {});
    create_time(&clock, &client, SEG + BLOCK);
    assert_eq!(pipelined(&server), (0, 1), "one block more streams");
}

#[test]
fn warm_reads_never_stream_and_share_the_cache_buffer() {
    let (_clock, client, server) = paper_stack(|_| {});
    let cap = client.create(Bytes::from(vec![9u8; 300_000]), 2).unwrap();
    let first = client.read(&cap).unwrap();
    let segments = server.stats().get("stream_segments");
    let copied = server.stats().get("payload_bytes_copied");
    let second = client.read(&cap).unwrap();
    // Zero-copy: both warm reads hand out the same cached buffer, and no
    // payload byte was copied server-side between cache and wire.
    assert_eq!(first.as_ptr(), second.as_ptr());
    assert_eq!(server.stats().get("payload_bytes_copied"), copied);
    assert_eq!(server.stats().get("stream_segments"), segments);
}

/// One device read as [`RecordingDisk`] saw it on entry: the buffer's
/// address, length and capacity.  A plain `read_blocks` logs
/// `usize::MAX` as its length, so it never matches an append.
type Append = (usize, usize, usize);

/// A [`RamDisk`] that records every buffer a read fills or appends into,
/// into a log its mirror twin shares.
struct RecordingDisk {
    inner: RamDisk,
    appends: Arc<Mutex<Vec<Append>>>,
}

impl BlockDevice for RecordingDisk {
    fn block_size(&self) -> u32 {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_blocks(&self, first_block: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        let entry = (buf.as_ptr() as usize, usize::MAX, buf.len());
        self.appends.lock().unwrap().push(entry);
        self.inner.read_blocks(first_block, buf)
    }

    fn read_blocks_append(
        &self,
        first_block: u64,
        blocks: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), DiskError> {
        let entry = (out.as_ptr() as usize, out.len(), out.capacity());
        self.appends.lock().unwrap().push(entry);
        self.inner.read_blocks_append(first_block, blocks, out)
    }

    fn write_blocks(&self, first_block: u64, data: &[u8]) -> Result<(), DiskError> {
        self.inner.write_blocks(first_block, data)
    }

    fn sync(&self) -> Result<(), DiskError> {
        self.inner.sync()
    }
}

/// A `small_test` server with the given segment size on two mirrored
/// [`RecordingDisk`]s, a client for it, and their shared append log.
fn recorded_stack(segment_size: u32) -> (BulletClient, Arc<BulletServer>, Arc<Mutex<Vec<Append>>>) {
    let mut cfg = BulletConfig::small_test();
    cfg.segment_size = segment_size;
    let reads = Arc::new(Mutex::new(Vec::new()));
    let replicas: Vec<Arc<dyn BlockDevice>> = (0..2)
        .map(|_| {
            Arc::new(RecordingDisk {
                inner: RamDisk::new(cfg.block_size, cfg.disk_blocks),
                appends: reads.clone(),
            }) as Arc<dyn BlockDevice>
        })
        .collect();
    let fabric = SimEthernet::new(cfg.clock.clone(), NetProfile::ethernet_10mbit());
    let server =
        Arc::new(BulletServer::format_on(cfg, MirroredDisk::new(replicas).unwrap()).unwrap());
    let dispatcher = Dispatcher::new(fabric);
    dispatcher.register(BulletRpcServer::new(server.clone()));
    let client = BulletClient::new(RpcClient::new(dispatcher), server.port());
    (client, server, reads)
}

#[test]
fn cache_insert_shares_the_payload_buffer() {
    // The create path's cache insert is a reference-count bump: the bytes
    // the client sent, the cached copy, and a subsequent read are all the
    // same allocation.
    let (client, s, reads) = recorded_stack(4 * BLOCK as u32);
    let sent = Bytes::from(vec![5u8; 4000]);
    let cap = s.create(sent.clone(), 2).unwrap();
    let read = s.read(&cap).unwrap();
    assert_eq!(sent.as_ptr(), read.as_ptr());

    // The miss path too: the buffer the disk appended into is the buffer
    // the cache holds and every read returns.  One I/O for one segment,
    // into an empty buffer that already holds the padded extent...
    s.clear_cache();
    reads.lock().unwrap().clear();
    let cold = s.read(&cap).unwrap();
    assert_eq!(
        *reads.lock().unwrap(),
        [(cold.as_ptr() as usize, 0, 4096)],
        "one I/O into the reply"
    );
    let warm = s.read(&cap).unwrap();
    assert_eq!(cold.as_ptr(), warm.as_ptr());

    // ...and, streamed to a client, one append per segment onto the end
    // of the last, into one buffer reserved for the whole padded extent
    // before the first: every byte is written once, by the device.
    let body: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
    let cap = client.create(Bytes::from(body.clone()), 2).unwrap();
    client.read(&cap).unwrap(); // locate warm-up
    s.clear_cache();
    reads.lock().unwrap().clear();
    let cold = client.read(&cap).unwrap();
    assert_eq!(&cold[..], &body[..]);
    assert!(s.stats().get("pipelined_reads") >= 1, "the read streamed");
    let appends = reads.lock().unwrap();
    let block = BulletConfig::small_test().block_size as usize;
    let (seg, padded) = (4 * BLOCK, 50_000usize.next_multiple_of(block));
    let lens: Vec<usize> = appends.iter().map(|&(_, len, _)| len).collect();
    let want: Vec<usize> = (0..padded).step_by(seg).collect();
    assert_eq!(lens, want, "one append per segment, each onto the last");
    let ptr = cold.as_ptr() as usize;
    assert!(
        appends.iter().all(|&(at, _, _)| at == ptr),
        "the reply is not the one buffer every segment was appended into"
    );
    assert!(
        appends[0].2 >= padded,
        "the extent was not reserved up front"
    );
}

#[test]
fn cold_section_read_returns_exact_bytes_and_caches_the_file() {
    let (_clock, client, server) = paper_stack(|cfg| cfg.segment_size = 4096);
    let body: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let cap = client.create(Bytes::from(body.clone()), 2).unwrap();
    client.read(&cap).unwrap(); // locate warm-up
    server.clear_cache();
    // A cold section read deep inside the file returns exactly the
    // requested bytes and loads — and caches — the whole file.
    let section = client.read_section(&cap, 50_000, 1000).unwrap();
    assert_eq!(&section[..], &body[50_000..51_000]);
    let misses = || {
        let m: std::collections::HashMap<_, _> = server.cache_stats().into_iter().collect();
        m["cache_misses"]
    };
    let misses_before = misses();
    let whole = client.read(&cap).unwrap();
    assert_eq!(&whole[..], &body[..]);
    assert_eq!(misses(), misses_before, "whole read was a hit");
}

/// Streams a cold read over the *threaded channel* transport, where the
/// payload really travels as frames, and checks bit-identity.
#[test]
fn chan_streamed_cold_read_is_bit_identical() {
    let (_clock, _client, server) = paper_stack(|cfg| cfg.segment_size = 16 * 1024);
    let body: Vec<u8> = (0..500_000u32).map(|i| (i % 253) as u8).collect();
    let cap = server.create(Bytes::from(body.clone()), 2).unwrap();
    server.clear_cache();

    let net = SimEthernet::new(SimClock::new(), NetProfile::ethernet_10mbit());
    let (client_end, server_end) = duplex(&net);
    let rpc: Arc<dyn RpcServer> = BulletRpcServer::new(server.clone());
    let t = std::thread::spawn(move || serve_chan(server_end, rpc));
    let remote = RemoteClient::new(client_end);
    let reply = remote
        .trans(cap, commands::READ, Bytes::new(), Bytes::new())
        .unwrap();
    assert_eq!(&reply.data[..], &body[..], "reassembled payload differs");
    assert!(
        net.stats().get("net_stream_frames") >= 31,
        "500 KB / 16 KB segments should stream dozens of frames, got {}",
        net.stats().get("net_stream_frames")
    );
    // Warm read over the same channel: served whole, no frames.
    let frames = net.stats().get("net_stream_frames");
    let reply = remote
        .trans(cap, commands::READ, Bytes::new(), Bytes::new())
        .unwrap();
    assert_eq!(&reply.data[..], &body[..]);
    assert_eq!(net.stats().get("net_stream_frames"), frames);
    drop(remote);
    t.join().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pipelined (streamed) reads are bit-identical to sequential ones
    /// for arbitrary sizes, offsets, and segment sizes — whole files and
    /// sections, cold and warm.
    #[test]
    fn pipelined_reads_bit_identical(
        size in 1usize..150_000,
        seg_kb in prop_oneof![Just(1u32), Just(4u32), Just(16u32), Just(64u32)],
        window in (any::<u32>(), any::<u32>()),
    ) {
        let (_clock, client, server) = paper_stack(|cfg| {
            cfg.segment_size = seg_kb * 1024;
        });
        let body: Vec<u8> = (0..size as u32).map(|i| (i % 249) as u8).collect();
        let cap = client.create(Bytes::from(body.clone()), 2).unwrap();

        // Cold whole-file read (streamed when multi-segment).
        client.read(&cap).unwrap();
        server.clear_cache();
        let cold = client.read(&cap).unwrap();
        prop_assert_eq!(&cold[..], &body[..]);
        // Warm again.
        let warm = client.read(&cap).unwrap();
        prop_assert_eq!(&warm[..], &body[..]);

        // Cold section read with an arbitrary in-range window.
        let offset = (window.0 as usize) % size;
        let len = ((window.1 as usize) % (size - offset)).min(size - offset);
        server.clear_cache();
        let section = client.read_section(&cap, offset as u32, len as u32).unwrap();
        prop_assert_eq!(&section[..], &body[offset..offset + len]);
    }
}
