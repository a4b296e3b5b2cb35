//! End-to-end integration: workstation clients driving the Bullet and
//! directory servers over the RPC fabric, on latency-modelled mirrored
//! disks — the whole system of the paper assembled.

use std::sync::Arc;

use amoeba_bullet::bullet::{BulletClient, BulletConfig, BulletRpcServer, BulletServer};
use amoeba_bullet::cap::Rights;
use amoeba_bullet::dir::{DirClient, DirRpcServer, DirServer};
use amoeba_bullet::disk::{BlockDevice, MirroredDisk, RamDisk, SchedConfig, SchedDisk};
use amoeba_bullet::net::SimEthernet;
use amoeba_bullet::rpc::{Dispatcher, RpcClient, Status};
use amoeba_bullet::sim::{HwProfile, SimClock};
use bytes::Bytes;

struct Stack {
    clock: SimClock,
    bullet: Arc<BulletServer>,
    dirs: Arc<DirServer>,
    files: BulletClient,
    names: DirClient,
    dispatcher: Arc<Dispatcher>,
}

fn stack() -> Stack {
    let clock = SimClock::new();
    let hw = HwProfile::amoeba_1989();
    let replicas: Vec<Arc<dyn BlockDevice>> = (0..2)
        .map(|_| {
            Arc::new(SchedDisk::new(
                RamDisk::new(1024, 16_384),
                clock.clone(),
                hw.disk,
                SchedConfig::default(),
            )) as Arc<dyn BlockDevice>
        })
        .collect();
    let mut cfg = BulletConfig::small_test();
    cfg.block_size = 1024;
    cfg.disk_blocks = 16_384;
    cfg.clock = clock.clone();
    cfg.cache_capacity = 4 << 20;
    let bullet = Arc::new(
        BulletServer::format_on(cfg, MirroredDisk::new(replicas).expect("mirror")).expect("format"),
    );
    let dirs = Arc::new(DirServer::bootstrap(bullet.clone()).expect("bootstrap"));
    let net = SimEthernet::new(clock.clone(), hw.net);
    let dispatcher = Dispatcher::new(net);
    dispatcher.register(BulletRpcServer::new(bullet.clone()));
    dispatcher.register(DirRpcServer::new(dirs.clone()));
    let rpc = RpcClient::new(dispatcher.clone());
    Stack {
        clock,
        files: BulletClient::new(rpc.clone(), bullet.port()),
        names: DirClient::new(rpc, dirs.port()),
        bullet,
        dirs,
        dispatcher,
    }
}

#[test]
fn remote_publish_lookup_read_cycle() {
    let s = stack();
    let root = s.dirs.root();

    let cap = s.files.create(Bytes::from(vec![9u8; 30_000]), 2).unwrap();
    s.names.enter(&root, "dataset", cap).unwrap();

    let found = s.names.lookup(&root, "dataset").unwrap();
    assert_eq!(found, cap);
    assert_eq!(s.files.size(&found).unwrap(), 30_000);
    assert_eq!(
        s.files.read(&found).unwrap(),
        Bytes::from(vec![9u8; 30_000])
    );

    // Update through the version mechanism, entirely remotely.
    let v2 = s
        .files
        .modify(&cap, 0, Bytes::from_static(b"\xff\xff"), 2)
        .unwrap();
    s.names.replace(&root, "dataset", &cap, v2).unwrap();
    let current = s.names.lookup(&root, "dataset").unwrap();
    assert_eq!(current, v2);
    assert_eq!(&s.files.read(&current).unwrap()[..2], &[0xff, 0xff]);
    assert_eq!(s.names.history(&root, "dataset").unwrap(), vec![v2, cap]);
}

#[test]
fn rights_restriction_travels_the_wire() {
    let s = stack();
    let owner = s.files.create(Bytes::from_static(b"secret"), 2).unwrap();
    let reader = s.files.restrict(&owner, Rights::READ).unwrap();
    assert_eq!(
        s.files.read(&reader).unwrap(),
        Bytes::from_static(b"secret")
    );
    assert_eq!(s.files.delete(&reader).unwrap_err(), Status::Denied);
    s.files.delete(&owner).unwrap();
    assert_eq!(s.files.read(&reader).unwrap_err(), Status::NotFound);
}

#[test]
fn whole_file_transfer_uses_constant_rpc_count() {
    let s = stack();
    let small = s.files.create(Bytes::from(vec![1u8; 100]), 2).unwrap();
    let large = s
        .files
        .create(Bytes::from(vec![2u8; 1_000_000]), 2)
        .unwrap();
    let msgs0 = s.dispatcher.net().stats().get("net_messages");
    s.files.read(&small).unwrap();
    let small_msgs = s.dispatcher.net().stats().get("net_messages") - msgs0;
    s.files.read(&large).unwrap();
    let large_msgs = s.dispatcher.net().stats().get("net_messages") - msgs0 - small_msgs;
    assert_eq!(small_msgs, 2, "request + reply");
    assert_eq!(large_msgs, 2, "same for a 1 MB file: whole-file transfer");
}

#[test]
fn concurrent_clients_share_one_server() {
    let s = stack();
    let root = s.dirs.root();
    // Several client threads create, publish, and read back files
    // against the same (thread-safe) servers.
    std::thread::scope(|scope| {
        for t in 0..4u8 {
            let files = s.files.clone();
            let names = s.names.clone();
            scope.spawn(move || {
                for i in 0..10u8 {
                    let payload = Bytes::from(vec![t ^ i; 1000 + i as usize]);
                    let cap = files.create(payload.clone(), 1).unwrap();
                    names.enter(&root, &format!("t{t}-f{i}"), cap).unwrap();
                    let found = names.lookup(&root, &format!("t{t}-f{i}")).unwrap();
                    assert_eq!(files.read(&found).unwrap(), payload);
                }
            });
        }
    });
    assert_eq!(s.names.list(&root).unwrap().rows.len(), 40);
    // The simulated clock advanced for all that traffic.
    assert!(s.clock.now().as_ms_f64() > 100.0);
}

#[test]
fn server_state_survives_full_stack_restart() {
    let s = stack();
    let root = s.dirs.root();
    let cap = s
        .files
        .create(Bytes::from_static(b"durable data"), 2)
        .unwrap();
    s.names.enter(&root, "keep", cap).unwrap();
    let cell = s.dirs.cell();

    // Tear the servers down (clean shutdown) and rebuild on the disks.
    // The dispatcher holds the RPC wrappers (and through them the server
    // Arcs), so deregister the services first — the fabric's view of a
    // server process exiting.
    let dirs_port = s.dirs.port();
    s.dispatcher.unregister(s.bullet.port());
    s.dispatcher.unregister(dirs_port);
    drop(s.dirs);
    drop(s.names);
    let storage = match Arc::try_unwrap(s.bullet) {
        Ok(server) => server.shutdown().unwrap(),
        Err(_) => panic!("no other bullet references may remain"),
    };
    let mut cfg = BulletConfig::small_test();
    cfg.block_size = 1024;
    cfg.disk_blocks = 16_384;
    let bullet = Arc::new(BulletServer::recover(cfg, storage).unwrap());
    let dirs = DirServer::recover(bullet.clone(), dirs_port, 0xd1ce, cell).unwrap();

    let found = dirs.lookup(&root, "keep").unwrap();
    assert_eq!(found, cap);
    assert_eq!(
        bullet.read(&found).unwrap(),
        Bytes::from_static(b"durable data")
    );
}
