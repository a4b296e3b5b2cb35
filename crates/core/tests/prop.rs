//! Model-based property tests: the Bullet server must behave like a map
//! from capabilities to immutable byte strings, under any operation
//! sequence, across compactions and restarts.

use std::collections::HashMap;

use amoeba_cap::{Capability, CheckScheme, MacScheme, Port, Rights};
use bullet_core::table::{InodeTable, RepairPolicy};
use bullet_core::{BulletConfig, BulletError, BulletServer};
use bytes::Bytes;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Create a file of this size filled with this byte, at this p-factor.
    Create { size: usize, fill: u8, p: u32 },
    /// Read back the nth live file (mod live count).
    Read(usize),
    /// Delete the nth live file.
    Delete(usize),
    /// Derive a new version of the nth live file.
    Modify { nth: usize, offset: u16, fill: u8 },
    /// Read a random slice of the nth live file and compare to the model.
    ReadSection { nth: usize, offset: u16, len: u16 },
    /// Round-trip a restricted (read-only) capability of the nth file.
    Restrict(usize),
    /// Compact the disk.
    CompactDisk,
    /// Compact the cache arena.
    CompactMemory,
    /// Flush background writes.
    Sync,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..6000, any::<u8>(), 0u32..=2).prop_map(|(size, fill, p)| Op::Create { size, fill, p }),
        4 => any::<prop::sample::Index>().prop_map(|i| Op::Read(i.index(1 << 16))),
        2 => any::<prop::sample::Index>().prop_map(|i| Op::Delete(i.index(1 << 16))),
        2 => (any::<prop::sample::Index>(), any::<u16>(), any::<u8>())
            .prop_map(|(i, offset, fill)| Op::Modify { nth: i.index(1 << 16), offset, fill }),
        2 => (any::<prop::sample::Index>(), any::<u16>(), any::<u16>())
            .prop_map(|(i, offset, len)| Op::ReadSection { nth: i.index(1 << 16), offset, len }),
        1 => any::<prop::sample::Index>().prop_map(|i| Op::Restrict(i.index(1 << 16))),
        1 => Just(Op::CompactDisk),
        1 => Just(Op::CompactMemory),
        1 => Just(Op::Sync),
    ]
}

fn cfg() -> BulletConfig {
    let mut cfg = BulletConfig::small_test();
    // Small enough that eviction, NoSpace and fragmentation all actually
    // happen during the walk.
    cfg.cache_capacity = 64 * 1024;
    cfg.rnode_slots = 64;
    cfg.disk_blocks = 1024; // 512 KB per disk
    cfg
}

fn run_model(ops: &[Op], server: &BulletServer) -> HashMap<u32, (Capability, Vec<u8>)> {
    let mut model: HashMap<u32, (Capability, Vec<u8>)> = HashMap::new();
    for op in ops {
        let live: Vec<u32> = {
            let mut v: Vec<u32> = model.keys().copied().collect();
            v.sort_unstable();
            v
        };
        match op {
            Op::Create { size, fill, p } => {
                let data = vec![*fill; *size];
                match server.create(Bytes::from(data.clone()), *p) {
                    Ok(cap) => {
                        model.insert(cap.object.value(), (cap, data));
                    }
                    Err(BulletError::NoSpace | BulletError::NoInodes) => {
                        // Legitimate: the tiny disk filled up.
                    }
                    Err(e) => panic!("unexpected create failure: {e}"),
                }
            }
            Op::Read(nth) => {
                if live.is_empty() {
                    continue;
                }
                let key = live[nth % live.len()];
                let (cap, expect) = &model[&key];
                let got = server.read(cap).expect("live file must read");
                assert_eq!(&got[..], &expect[..], "read mismatch on object {key}");
            }
            Op::Delete(nth) => {
                if live.is_empty() {
                    continue;
                }
                let key = live[nth % live.len()];
                let (cap, _) = model.remove(&key).expect("chosen from model");
                server.delete(&cap).expect("live file must delete");
            }
            Op::Modify { nth, offset, fill } => {
                if live.is_empty() {
                    continue;
                }
                let key = live[nth % live.len()];
                let (cap, base) = model[&key].clone();
                let offset = (*offset as usize) % (base.len() + 1);
                let patch = vec![*fill; 16];
                match server.modify(&cap, offset as u32, &patch, 1) {
                    Ok(new_cap) => {
                        let mut expect = base;
                        if expect.len() < offset + 16 {
                            expect.resize(offset + 16, 0);
                        }
                        expect[offset..offset + 16].copy_from_slice(&patch);
                        model.insert(new_cap.object.value(), (new_cap, expect));
                    }
                    Err(BulletError::NoSpace | BulletError::NoInodes) => {}
                    Err(e) => panic!("unexpected modify failure: {e}"),
                }
            }
            Op::ReadSection { nth, offset, len } => {
                if live.is_empty() {
                    continue;
                }
                let key = live[nth % live.len()];
                let (cap, expect) = &model[&key];
                let offset = (*offset as usize) % (expect.len() + 1);
                let len = (*len as usize) % 64;
                let end = (offset + len).min(expect.len());
                let got = server
                    .read_section(cap, offset as u32, (end - offset) as u32)
                    .expect("in-range section");
                assert_eq!(&got[..], &expect[offset..end], "section mismatch on {key}");
                // Out-of-range sections must be rejected, never truncated.
                assert_eq!(
                    server
                        .read_section(cap, expect.len() as u32, 1)
                        .unwrap_err(),
                    BulletError::BadRange
                );
            }
            Op::Restrict(nth) => {
                if live.is_empty() {
                    continue;
                }
                let key = live[nth % live.len()];
                let (cap, expect) = &model[&key];
                let reader = server
                    .restrict(cap, amoeba_cap::Rights::READ)
                    .expect("restrict");
                assert_eq!(&server.read(&reader).unwrap()[..], &expect[..]);
                assert_eq!(
                    server.delete(&reader).unwrap_err(),
                    BulletError::Denied,
                    "read-only cap must not delete"
                );
            }
            Op::CompactDisk => {
                server.compact_disk().expect("compaction must succeed");
            }
            Op::CompactMemory => {
                server.compact_memory();
            }
            Op::Sync => server.sync().expect("sync must succeed"),
        }
    }
    model
}

/// One step of the capability walk.  `cap` picks among every capability
/// the walk has seen so far, dead files' included, and `forge` among the
/// ways of presenting it ([`presentations`]).
#[derive(Debug, Clone)]
enum CapOp {
    Create { size: usize },
    Delete { cap: usize, forge: usize },
    Restrict { cap: usize, mask: u8 },
    CompactDisk,
    Restart,
}

fn arb_cap_op() -> impl Strategy<Value = CapOp> {
    prop_oneof![
        4 => (0usize..2000).prop_map(|size| CapOp::Create { size }),
        3 => (0usize..64, 0usize..8).prop_map(|(cap, forge)| CapOp::Delete { cap, forge }),
        3 => (0usize..64, any::<u8>()).prop_map(|(cap, mask)| CapOp::Restrict { cap, mask }),
        1 => Just(CapOp::CompactDisk),
        1 => Just(CapOp::Restart),
    ]
}

/// `cap` as a client might present it: genuine, with the rights raised
/// beside an unchanged check field, with the check field off by a bit,
/// with a bit above the 48 the wire carries, and at another server's port.
fn presentations(cap: Capability) -> [Capability; 5] {
    [
        cap,
        Capability {
            rights: Rights::ALL,
            ..cap
        },
        Capability {
            check: cap.check ^ 1,
            ..cap
        },
        Capability {
            check: cap.check | 1 << 50,
            ..cap
        },
        Capability {
            port: Port::from_u64(0xdead),
            ..cap
        },
    ]
}

/// What a server at `port` holding `table` must answer, worked out with
/// no memo anywhere: the port, then the slot, then the scheme's own
/// `check_rights`.
fn oracle(
    (port, table, scheme): (Port, &InodeTable, &dyn CheckScheme),
    cap: &Capability,
    needed: Rights,
) -> Result<(), BulletError> {
    if cap.port != port {
        return Err(BulletError::CapBad);
    }
    let inode = table.get(cap.object.value())?;
    Ok(scheme.check_rights(cap, inode.random, needed)?)
}

/// The server's inode table as a fresh load off its disk sees it.
fn table_on_disk(server: &BulletServer) -> InodeTable {
    server.sync().unwrap();
    InodeTable::load(server.storage(), RepairPolicy::Fail, 0)
        .unwrap()
        .table
}

/// Walks `ops` against a server, and after every step
/// presents every capability seen so far in every [`presentations`] form,
/// forwards and then backwards so that each is tried both before and
/// after its neighbours were verified.  Reused slots, deleted files and a
/// restricted capability beside its owner's all arise from the walk.
fn capability_walk(ops: &[CapOp]) {
    let mut configuration = cfg();
    // One control block of slots keeps the oracle's table load short;
    // the slot a delete frees is the next one a create fills.
    configuration.min_inodes = 4;
    let scheme = MacScheme::from_seed(configuration.scheme_seed);
    let mut server = BulletServer::format(configuration.clone(), 2).unwrap();
    let mut seen: Vec<Capability> = Vec::new();
    let mut table = table_on_disk(&server);
    for op in ops {
        match *op {
            CapOp::Create { size } => match server.create(Bytes::from(vec![7; size]), 2) {
                Ok(cap) => seen.push(cap),
                Err(BulletError::NoSpace | BulletError::NoInodes) => {}
                Err(e) => panic!("unexpected create failure: {e}"),
            },
            CapOp::Delete { cap, forge } if !seen.is_empty() => {
                let forms = presentations(seen[cap % seen.len()]);
                let cap = forms[forge % forms.len()];
                let expected = oracle((configuration.port, &table, &scheme), &cap, Rights::DESTROY);
                assert_eq!(server.delete(&cap), expected, "delete {cap:?}");
            }
            CapOp::Restrict { cap, mask } if !seen.is_empty() => {
                let cap = seen[cap % seen.len()];
                let expected = oracle((configuration.port, &table, &scheme), &cap, Rights::NONE);
                let restricted = server.restrict(&cap, Rights::from_bits(mask));
                assert_eq!(restricted.as_ref().map(drop), expected.as_ref().map(drop));
                seen.extend(restricted);
            }
            CapOp::Delete { .. } | CapOp::Restrict { .. } => {}
            CapOp::CompactDisk => drop(server.compact_disk().unwrap()),
            CapOp::Restart => {
                let storage = server.shutdown().unwrap();
                server = BulletServer::recover(configuration.clone(), storage).unwrap();
            }
        }
        table = table_on_disk(&server);
        for cap in seen.iter().chain(seen.iter().rev()) {
            for cap in presentations(*cap) {
                let expected = oracle((configuration.port, &table, &scheme), &cap, Rights::READ);
                assert_eq!(server.read(&cap).map(drop), expected, "read {cap:?}");
                assert_eq!(server.size(&cap).map(drop), expected, "size {cap:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn server_behaves_like_a_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let server = BulletServer::format(cfg(), 2).unwrap();
        let model = run_model(&ops, &server);
        // Final sweep: every surviving file reads back exactly.
        prop_assert_eq!(server.live_files(), model.len());
        for (cap, expect) in model.values() {
            prop_assert_eq!(&server.read(cap).unwrap()[..], &expect[..]);
        }
        // Free-space accounting is consistent: allocator-free plus live
        // blocks equals the whole data area.
        let report = server.disk_frag_report();
        prop_assert!(report.free <= report.total);
    }

    #[test]
    fn a_remembered_capability_check_never_changes_an_answer(
        ops in proptest::collection::vec(arb_cap_op(), 1..40),
    ) {
        capability_walk(&ops);
    }

    #[test]
    fn synced_files_survive_crash_and_restart(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let configuration = cfg();
        let server = BulletServer::format(configuration.clone(), 2).unwrap();
        let model = run_model(&ops, &server);
        server.sync().unwrap();
        let storage = server.crash();
        let server2 = BulletServer::recover(configuration, storage).unwrap();
        prop_assert_eq!(server2.live_files(), model.len());
        for (cap, expect) in model.values() {
            prop_assert_eq!(&server2.read(cap).unwrap()[..], &expect[..]);
        }
    }

    #[test]
    fn rebalance_preserves_every_live_byte(
        files in proptest::collection::vec((1usize..4000, any::<u8>()), 1..24),
        moves in proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            1..16,
        ),
    ) {
        use bullet_core::BulletShards;

        let shards = BulletShards::format(&cfg(), 4, 2).unwrap();
        let mut model: Vec<(Capability, Vec<u8>)> = Vec::new();
        for (i, (size, fill)) in files.iter().enumerate() {
            let data = vec![*fill; *size];
            let home = i % shards.count();
            match shards.shard(home).create(Bytes::from(data.clone()), 1) {
                Ok(cap) => model.push((cap, data)),
                Err(BulletError::NoSpace | BulletError::NoInodes) => {}
                Err(e) => panic!("unexpected create failure: {e}"),
            }
        }
        prop_assume!(!model.is_empty());
        let digest = shards.live_digest().unwrap();
        let bytes = shards.total_live_bytes().unwrap();
        let mut at: Vec<usize> = model
            .iter()
            .map(|(c, _)| amoeba_cap::shard_of(c.object.value(), 4) as usize)
            .collect();

        for (which, dest) in &moves {
            let n = which.index(model.len());
            let to = dest.index(shards.count());
            let from = at[n];
            if from != to {
                shards
                    .rebalance(from, to, model[n].0.object.value())
                    .unwrap();
                at[n] = to;
            }
        }

        // Counter accounting: every cross-shard move is counted, on the
        // destination, exactly once.
        let moved: u64 = (0..shards.count())
            .map(|i| {
                shards
                    .shard(i)
                    .stats()
                    .get(bullet_core::counters::SHARD_REBALANCE_EXTENTS)
            })
            .sum();
        let expected: u64 = moves
            .iter()
            .scan(
                model
                    .iter()
                    .map(|(c, _)| amoeba_cap::shard_of(c.object.value(), 4) as usize)
                    .collect::<Vec<_>>(),
                |pos, (which, dest)| {
                    let n = which.index(model.len());
                    let to = dest.index(shards.count());
                    let hop = (pos[n] != to) as u64;
                    pos[n] = to;
                    Some(hop)
                },
            )
            .sum();
        prop_assert_eq!(moved, expected);

        // Every live byte survives, placement-independently, and every
        // pre-move capability still reads back on its current shard.
        prop_assert_eq!(shards.live_digest().unwrap(), digest);
        prop_assert_eq!(shards.total_live_bytes().unwrap(), bytes);
        prop_assert_eq!(shards.total_live_files(), model.len());
        for (n, (cap, expect)) in model.iter().enumerate() {
            prop_assert_eq!(&shards.shard(at[n]).read(cap).unwrap()[..], &expect[..]);
        }
    }

    #[test]
    fn compaction_then_restart_preserves_everything(
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let configuration = cfg();
        let server = BulletServer::format(configuration.clone(), 2).unwrap();
        let model = run_model(&ops, &server);
        server.compact_disk().unwrap();
        let report = server.disk_frag_report();
        prop_assert!(report.hole_count <= 1, "compaction must leave one hole: {report:?}");
        let storage = server.shutdown().unwrap();
        let server2 = BulletServer::recover(configuration, storage).unwrap();
        for (cap, expect) in model.values() {
            prop_assert_eq!(&server2.read(cap).unwrap()[..], &expect[..]);
        }
    }
}
