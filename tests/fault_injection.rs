//! Fault-injection integration tests: the at-most-once dedup layer and
//! mid-stream disk failover on the pipelined read path.

use std::sync::Arc;

use amoeba_bullet::bullet::counters::{DEDUP_HITS, FAILOVER_READS};
use amoeba_bullet::bullet::{commands, BulletClient, BulletConfig, BulletRpcServer, BulletServer};
use amoeba_bullet::cap::Capability;
use amoeba_bullet::disk::{BlockDevice, FaultyDisk, MirroredDisk, RamDisk, SchedConfig, SchedDisk};
use amoeba_bullet::net::SimEthernet;
use amoeba_bullet::rpc::fault::{tag_request, TxnId};
use amoeba_bullet::rpc::{Dispatcher, Request, RpcClient, RpcServer, Status};
use amoeba_bullet::sim::{HwProfile, SimClock};
use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;

proptest! {
    /// A duplicated CREATE must never allocate two extents: however many
    /// times the identical tagged request arrives, exactly one file
    /// exists afterwards and every arrival past the first is a replay
    /// from the dedup cache.
    #[test]
    fn duplicated_creates_allocate_exactly_once(
        dups in 2usize..10,
        p_factor in 0u32..3,
        len in 1usize..4096,
    ) {
        let server = Arc::new(
            BulletServer::format(BulletConfig::small_test(), 2).expect("format"),
        );
        let rpc = BulletRpcServer::new(server.clone());

        let mut service_cap = Capability::null();
        service_cap.port = server.port();
        let mut params = BytesMut::with_capacity(4);
        params.put_u32(p_factor);
        let req = Request {
            cap: service_cap,
            command: commands::CREATE,
            params: params.freeze(),
            data: Bytes::from(vec![0xab; len]),
        };
        let tagged = tag_request(req, TxnId { client: 9, seq: 1 });

        let first = rpc.handle(tagged.clone());
        prop_assert_eq!(first.status, Status::Ok);
        for _ in 1..dups {
            // Bit-identical retransmissions of the same transaction.
            let replay = rpc.handle(tagged.clone());
            prop_assert_eq!(&replay, &first);
        }

        prop_assert_eq!(server.live_files(), 1, "one CREATE, one extent");
        prop_assert_eq!(
            rpc.dedup_stats().get(DEDUP_HITS),
            (dups - 1) as u64,
            "every duplicate replays from the cache"
        );
    }
}

/// A replica dies *mid-extent* during a pipelined cold read: after two
/// segments have already come off the primary, it fails, and the
/// remaining segments must come from the mirror — the client still
/// receives the file bit-identical, and the failover is visible in the
/// server counters.
#[test]
fn mid_stream_disk_failure_completes_from_the_mirror() {
    let clock = SimClock::new();
    let hw = HwProfile::amoeba_1989();
    let mut cfg = BulletConfig::small_test();
    cfg.clock = clock.clone();
    let disks: Vec<Arc<FaultyDisk<SchedDisk<RamDisk>>>> = (0..2)
        .map(|_| {
            Arc::new(FaultyDisk::new(SchedDisk::new(
                RamDisk::new(cfg.block_size, cfg.disk_blocks),
                clock.clone(),
                hw.disk,
                SchedConfig::default(),
            )))
        })
        .collect();
    let storage = MirroredDisk::new(
        disks
            .iter()
            .map(|d| d.clone() as Arc<dyn BlockDevice>)
            .collect(),
    )
    .expect("mirror");
    let server = Arc::new(BulletServer::format_on(cfg, storage).expect("format"));
    let dispatcher = Dispatcher::new(SimEthernet::with_load(clock, hw.net, 1.0));
    dispatcher.register(BulletRpcServer::new(server.clone()));
    let client = BulletClient::new(RpcClient::new(dispatcher), server.port());

    // Four 64 KB segments: the failure lands after segment two.
    let data = Bytes::from(
        (0..256 * 1024)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<u8>>(),
    );
    let cap = client.create(data.clone(), 2).expect("create");
    client.read(&cap).expect("warm-up locates the file");
    server.clear_cache();

    disks[0].fail_after(2);
    let got = client.read(&cap).expect("cold read survives the failure");
    assert_eq!(got, data, "failover read is bit-identical");
    assert!(
        server.storage().stats().get("mirror_failovers") >= 1,
        "the mirror recorded the failover"
    );
    assert!(
        server.stats().get(FAILOVER_READS) >= 1,
        "the server surfaced the read failover"
    );
}
