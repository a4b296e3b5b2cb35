//! End-to-end sharded stack: N Bullet servers behind a `ShardRouter` on
//! one dispatcher port, driven through the ordinary `BulletClient` —
//! the client cannot tell a shard set from a single server until a
//! shard goes down.

use std::sync::Arc;

use amoeba_net::SimEthernet;
use amoeba_rpc::{Dispatcher, RpcClient, RpcServer, ShardRouter, Status};
use amoeba_sim::{NetProfile, SimClock};
use bullet_core::{BulletClient, BulletConfig, BulletRpcServer, BulletShards};
use bytes::Bytes;

fn stack(count: u32) -> (BulletShards, Arc<ShardRouter>, BulletClient) {
    let mut cfg = BulletConfig::small_test();
    let clock = SimClock::new();
    cfg.clock = clock.clone();
    let shards = BulletShards::format(&cfg, count, 2).unwrap();
    let router = Arc::new(ShardRouter::new(
        shards
            .iter()
            .map(|s| BulletRpcServer::new(s.clone()) as Arc<dyn RpcServer>)
            .collect(),
    ));
    let net = SimEthernet::new(clock, NetProfile::ethernet_10mbit());
    let dispatcher = Dispatcher::new(net);
    dispatcher.register(router.clone());
    let port = shards.shard(0).port();
    let client = BulletClient::new(RpcClient::new(dispatcher), port);
    (shards, router, client)
}

#[test]
fn the_client_cannot_tell_a_shard_set_from_one_server() {
    let (shards, router, client) = stack(4);
    let mut caps = Vec::new();
    for n in 0..12u32 {
        let cap = client.create(Bytes::from(format!("file {n}")), 1).unwrap();
        caps.push(cap);
    }
    // Round-robin creates spread the files over the set…
    let landed = (0..4).filter(|&i| shards.shard(i).live_files() > 0).count();
    assert!(landed >= 2, "creates landed on only {landed} shard(s)");
    // …and each capability reads back through the hash route.
    for (n, cap) in caps.iter().enumerate() {
        assert_eq!(client.read(cap).unwrap(), Bytes::from(format!("file {n}")));
        assert_eq!(
            router.route_of(cap.object.value()),
            amoeba_cap::shard_of(cap.object.value(), 4)
        );
    }
    client.delete(&caps[0]).unwrap();
    assert_eq!(client.read(&caps[0]).unwrap_err(), Status::NotFound);
}

#[test]
fn a_capability_minted_before_a_rebalance_still_routes() {
    let (shards, router, client) = stack(2);
    let cap = client
        .create(Bytes::from_static(b"minted before the move"), 1)
        .unwrap();
    let idx = cap.object.value();
    let home = amoeba_cap::shard_of(idx, 2) as usize;
    let dest = 1 - home;

    // Move the extent, then pin routing at the gateway — the order the
    // rebalancer uses, so the object is served from exactly one shard at
    // every instant.
    shards.rebalance(home, dest, idx).unwrap();
    router.reroute(idx, dest as u32);

    assert_eq!(
        client.read(&cap).unwrap(),
        Bytes::from_static(b"minted before the move"),
        "the pre-move capability must keep working unchanged"
    );
    assert_eq!(router.route_of(idx), dest as u32);

    // The override is load-bearing: without it the hash sends the
    // capability back to the old home, which only has a tombstone.
    router.clear_reroute(idx);
    assert_eq!(client.read(&cap).unwrap_err(), Status::NotFound);
}

#[test]
fn a_down_shard_degrades_only_its_own_objects() {
    let (_shards, router, client) = stack(2);
    let mut caps = Vec::new();
    while caps.len() < 2 {
        let cap = client
            .create(Bytes::from(format!("f{}", caps.len())), 1)
            .unwrap();
        caps.push(cap);
    }
    // Find one object on each shard (striped minting guarantees the
    // shard a create lands on owns the number).
    fn on(caps: &[amoeba_cap::Capability], s: u32) -> Option<amoeba_cap::Capability> {
        caps.iter()
            .find(|c| amoeba_cap::shard_of(c.object.value(), 2) == s)
            .cloned()
    }
    let mut tries = 0;
    while (on(&caps, 0).is_none() || on(&caps, 1).is_none()) && tries < 32 {
        caps.push(client.create(Bytes::from_static(b"more"), 1).unwrap());
        tries += 1;
    }
    let (a, b) = (on(&caps, 0).unwrap(), on(&caps, 1).unwrap());

    router.set_down(0, true);
    assert_eq!(
        client.read(&a).unwrap_err(),
        Status::ShardDown,
        "the dead shard's objects fail with the distinct status"
    );
    assert!(client.read(&b).is_ok(), "the live shard keeps serving");
    assert!(router.degraded(0) >= 1);

    router.set_down(0, false);
    assert!(client.read(&a).is_ok(), "recovery restores service");
}

#[test]
fn monitor_aggregates_per_shard_snapshots() {
    let (_shards, router, client) = stack(3);
    client.create(Bytes::from_static(b"watched"), 1).unwrap();
    router.set_down(2, true);
    let snap = client.monitor().unwrap();
    // Routed and refused totals, then each up shard's own schema-2
    // snapshot verbatim and `{"down":true}` for the dead one.
    let golden = include_str!("golden/monitor_aggregate.json");
    assert_eq!(snap, golden.trim_end());
    assert_eq!(amoeba_sim::json::valid(&snap), Ok(()));
}
