//! Per-layer numbers, all taken from outside the program under test.
//!
//! Three sources, reported together by a `--trace 1` run:
//!
//! * **Entry-depth spans.**  The traced run drives the same op stream as
//!   the untraced one, but each call enters the stack one layer lower
//!   than the last (`BulletClient` → `Dispatcher::trans` →
//!   `BulletRpcServer::handle_streamed` → `BulletServer`), so every depth
//!   sees the same stream and the server's state evolves as it does
//!   untraced.  The difference between two adjacent depths is the upper
//!   one's self time.
//! * **Leaf probes.**  Calls into each layer's public functions on
//!   standalone instances sized like the workload, timed in batches.
//! * **Counts.**  Deltas of the stack's own public counters over an
//!   untraced segment, per op.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amoeba_bullet::bullet::table::InodeTable;
use amoeba_bullet::bullet::{
    commands, BulletClient, BulletRpcServer, BulletServer, EvictionPolicy, ExtentAllocator,
    FileCache, Inode,
};
use amoeba_bullet::cap::{Capability, CheckScheme, MacScheme, ObjNum, Port, Rights, CAP_WIRE_LEN};
use amoeba_bullet::disk::{BlockDevice, RamDisk};
use amoeba_bullet::net::SimEthernet;
use amoeba_bullet::rpc::{Dispatcher, Reply, Request, RpcServer, StreamWire};
use amoeba_bullet::sim::{DetRng, HwProfile, Nanos, SimClock, Stats, Tracer};
use bytes::Bytes;

use crate::measure::{median, Entry, CREATE, DELETE, OP_NAMES, READ};
use crate::stack::{mirror, sched_disk, Ready, Stack, BLOCK_SIZE, DISK_BLOCKS, SLOTS};
use crate::workload::{mix_sizes, slot_sizes, Gen, Spec, P_FACTOR};

/// The layer a call enters at, outermost first.
pub const DEPTH_NAMES: [&str; 4] = ["client", "rpc.dispatch", "core.rpc_iface", "core.server"];
const DEPTHS: u64 = DEPTH_NAMES.len() as u64;

/// One timed interval.  `parent` is the id of the span that caused this
/// one (0 for a root); spans of one request share `req`.
#[derive(Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub op: u8,
    /// `None` for the root span the harness opens around each call.
    pub depth: Option<u8>,
    pub probe: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An [`Entry`] that cycles through the four entry depths and records a
/// root span and a layer span for one call in `stride`.
pub struct Traced {
    client: BulletClient,
    dispatcher: Arc<Dispatcher>,
    rpc_server: Arc<BulletRpcServer>,
    server: Arc<BulletServer>,
    net: SimEthernet,
    service: Capability,
    base: Instant,
    client_id: u64,
    stride: u64,
    /// Off for the overhead segment, whose every call enters at the top
    /// so its throughput compares with the untraced run's.
    cycle: bool,
    calls: u64,
    probe: bool,
    pub spans: Vec<Span>,
}

/// What a call hands back at any depth, before it is narrowed to what
/// the op returns.
enum Answer {
    Reply(Reply),
    Data(Bytes),
    Cap(Capability),
    Done,
}

impl Traced {
    pub fn new(stack: &Stack, base: Instant, client_id: usize, stride: u32, cycle: bool) -> Traced {
        let mut service = Capability::null();
        service.port = stack.server.port();
        Traced {
            client: stack.client.clone(),
            dispatcher: stack.dispatcher.clone(),
            rpc_server: stack.rpc_server.clone(),
            server: stack.server.clone(),
            net: stack.net.clone(),
            service,
            base,
            client_id: client_id as u64,
            stride: stride as u64,
            cycle,
            calls: 0,
            probe: false,
            // Room for a segment's spans without regrowing mid-round.
            spans: Vec::with_capacity(1 << 20),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Runs `f`, bracketing it with two clock reads when `record` is set.
    fn timed<T>(&self, record: bool, f: impl FnOnce() -> T) -> (T, u64, u64) {
        if !record {
            return (f(), 0, 0);
        }
        let t0 = self.now_ns();
        let out = f();
        (out, t0, self.now_ns())
    }

    /// Issues one op at this call's depth.  Request and wire are built
    /// before the layer span opens: building them is the work of the
    /// layer above.
    fn call(&mut self, op: usize, cap: &Capability, data: Bytes) -> Option<Answer> {
        let k = self.calls;
        self.calls += 1;
        let depth = if self.cycle {
            (k / self.stride) % DEPTHS
        } else {
            0
        };
        let record = k.is_multiple_of(self.stride);
        let root_start = if record { self.now_ns() } else { 0 };

        let command = [commands::READ, commands::CREATE, commands::DELETE][op];
        let request = |data: Bytes| Request {
            cap: *cap,
            command,
            params: if op == CREATE {
                Bytes::copy_from_slice(&P_FACTOR.to_be_bytes())
            } else {
                Bytes::new()
            },
            data,
        };
        let (answer, t0, t1) = match depth {
            0 => self.timed(record, || match op {
                READ => self.client.read(cap).ok().map(Answer::Data),
                CREATE => self.client.create(data, P_FACTOR).ok().map(Answer::Cap),
                _ => self.client.delete(cap).ok().map(|()| Answer::Done),
            }),
            1 => {
                let req = request(data);
                self.timed(record, || {
                    self.dispatcher.trans(req).ok().map(Answer::Reply)
                })
            }
            2 => {
                let req = request(data);
                let wire = StreamWire::for_dispatch(self.net.clone());
                self.timed(record, || {
                    Some(Answer::Reply(self.rpc_server.handle_streamed(req, &wire)))
                })
            }
            _ => {
                let wire = StreamWire::for_dispatch(self.net.clone());
                self.timed(record, || match op {
                    READ => self
                        .server
                        .read_streamed(cap, Some(&wire))
                        .ok()
                        .map(Answer::Data),
                    CREATE => self
                        .server
                        .create_streamed(data, P_FACTOR, Some(&wire))
                        .ok()
                        .map(Answer::Cap),
                    _ => self.server.delete(cap).ok().map(|()| Answer::Done),
                })
            }
        };
        // Narrow a raw reply to what the client stub would have returned.
        let answer = match answer {
            Some(Answer::Reply(reply)) => reply.into_result().ok().and_then(|r| match op {
                READ => Some(Answer::Data(r.data)),
                CREATE => r
                    .params
                    .get(..CAP_WIRE_LEN)
                    .and_then(|b| Capability::from_wire(b).ok())
                    .map(Answer::Cap),
                _ => Some(Answer::Done),
            }),
            other => other,
        };
        if record {
            let root_end = self.now_ns();
            let id = self.spans.len() as u32 + 1;
            let req = self.client_id << 48 | k;
            let span = Span {
                id,
                parent: 0,
                req,
                op: op as u8,
                depth: None,
                probe: self.probe,
                start_ns: root_start,
                end_ns: root_end,
            };
            self.spans.push(span);
            self.spans.push(Span {
                id: id + 1,
                parent: id,
                depth: Some(depth as u8),
                start_ns: t0,
                end_ns: t1,
                ..span
            });
        }
        answer
    }

    /// The probe tail: `cycles` × (read one hot 1 KB file, create a 1 KB
    /// file, delete it), every call recorded, so each op type has the
    /// same operand at every depth and adjacent depths can be subtracted.
    pub fn probe(&mut self, source: &Bytes, cycles: u32) {
        self.probe = true;
        self.stride = 1;
        self.cycle = true;
        let data = source.slice(..1024);
        let hot = self.create(data.clone()).expect("the probe file fits");
        for _ in 0..cycles {
            // Four of each in a row: the depth advances with every call.
            for _ in 0..DEPTHS {
                black_box(self.read(&hot));
            }
            let made: Vec<Capability> = (0..DEPTHS)
                .filter_map(|_| self.create(data.clone()))
                .collect();
            for cap in &made {
                self.delete(cap);
            }
        }
        self.delete(&hot);
    }
}

impl Entry for Traced {
    fn read(&mut self, cap: &Capability) -> Option<Bytes> {
        match self.call(READ, cap, Bytes::new()) {
            Some(Answer::Data(d)) => Some(d),
            _ => None,
        }
    }
    fn create(&mut self, data: Bytes) -> Option<Capability> {
        let service = self.service;
        match self.call(CREATE, &service, data) {
            Some(Answer::Cap(c)) => Some(c),
            _ => None,
        }
    }
    fn delete(&mut self, cap: &Capability) -> bool {
        matches!(self.call(DELETE, cap, Bytes::new()), Some(Answer::Done))
    }
}

/// Writes spans as JSONL: name, start, end, id, parent, request id.
pub fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let op = OP_NAMES[s.op as usize];
        let name = match s.depth {
            None => format!("bench.{op}"),
            Some(d) => format!("{}.{op}", DEPTH_NAMES[d as usize]),
        };
        writeln!(
            out,
            "{{\"name\":\"{name}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"req\":{},\"client\":{},\"phase\":\"{}\"}}",
            s.start_ns,
            s.end_ns,
            s.id,
            s.parent,
            s.req & ((1 << 48) - 1),
            s.req >> 48,
            if s.probe { "probe" } else { "stream" },
        )?;
    }
    out.flush()
}

pub type Metrics = BTreeMap<String, f64>;

/// Median duration, in ns, of the layer spans of one op at one depth.
fn depth_median(spans: &[Span], op: usize, depth: usize, probe: bool) -> Option<f64> {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| s.op as usize == op && s.depth == Some(depth as u8) && s.probe == probe)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    (d.len() >= 1000).then(|| median(&mut d))
}

/// Self times of the three upper layers from the probe tail (same
/// operand at every depth), and the server's total from the op stream
/// itself where the stream has the op, from the probe where it does not.
///
/// Returns a warm 1 KB read's total at the client and the part of it the
/// three upper layers keep, for [`layer_sum_share`].
pub fn depth_metrics(spans: &[Span], out: &mut Metrics) -> (f64, f64) {
    for (op, name) in OP_NAMES.iter().enumerate() {
        let at = |d| depth_median(spans, op, d, true).expect("the probe tail covers every depth");
        out.insert(format!("client.self_ns.{name}"), at(0) - at(1));
        out.insert(format!("rpc.dispatch.self_ns.{name}"), at(1) - at(2));
        out.insert(format!("core.rpc_iface.self_ns.{name}"), at(2) - at(3));
        out.insert(
            format!("core.server.total_ns.{name}"),
            depth_median(spans, op, 3, false).unwrap_or_else(|| at(3)),
        );
    }
    let at = |d| depth_median(spans, READ, d, true).expect("checked above");
    (at(0), at(0) - at(3))
}

/// Every public counter of the stack by name.  Per-disk counters are
/// summed over the two replicas, except the queue-depth high-water mark.
pub fn counters(stack: &Stack) -> BTreeMap<&'static str, u64> {
    let mut all = BTreeMap::new();
    let mut take = |snap: Vec<(&'static str, u64)>| {
        for (k, v) in snap {
            let slot = all.entry(k).or_insert(0u64);
            if k == "disk_queue_depth_max" {
                *slot = (*slot).max(v);
            } else {
                *slot += v;
            }
        }
    };
    take(stack.server.stats().snapshot());
    take(stack.server.cache_stats());
    take(stack.server.lock_stats());
    take(stack.server.storage().stats().snapshot());
    take(stack.net.stats().snapshot());
    for d in &stack.disks {
        take(d.stats().snapshot());
    }
    all
}

/// The count metrics: counter deltas over one untraced segment of `ops`
/// ops, plus the allocator's end state.  A counter the stack no longer
/// has reads as 0.
pub fn count_metrics(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
    ops: u64,
    stack: &Stack,
    out: &mut Metrics,
) {
    let value = |m: &BTreeMap<&'static str, u64>, k: &str| m.get(k).copied().unwrap_or(0);
    let delta = |k: &str| value(after, k).saturating_sub(value(before, k)) as f64;
    let sum = |pick: &dyn Fn(&str) -> bool| -> f64 {
        after
            .keys()
            .filter(|k| pick(k))
            .fold(0.0, |acc, k| acc + delta(k))
    };
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let per_op = |v: f64| v / ops as f64;
    let contended = sum(&|k| k.starts_with("lock_contended_"));
    let acquired = sum(&|k| k.starts_with("lock_")) - contended;
    let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));

    let mut put = |k: &str, v: f64| out.insert(k.to_string(), v);
    put("core.cache.hit_share", share(hits, hits + misses));
    put(
        "core.cache.evictions_per_op",
        per_op(delta("cache_evictions")),
    );
    put(
        "core.cache.compactions_per_op",
        per_op(delta("cache_compactions")),
    );
    put(
        "core.server.bytes_copied_per_op",
        per_op(delta("payload_bytes_copied")),
    );
    put("core.locks.acquisitions_per_op", per_op(acquired));
    put("core.locks.contended_share", share(contended, acquired));
    put("disk.reads_per_op", per_op(delta("disk_reads")));
    put("disk.writes_per_op", per_op(delta("disk_writes")));
    put("disk.bytes_read_per_op", per_op(delta("disk_bytes_read")));
    put(
        "disk.write_amp",
        share(delta("disk_bytes_written"), delta("bytes_created")),
    );
    put(
        "disk.sched.seek_blocks_per_op",
        per_op(delta("disk_seek_blocks")),
    );
    put(
        "disk.sched.queue_depth_max",
        value(after, "disk_queue_depth_max") as f64,
    );
    put("net.messages_per_op", per_op(delta("net_messages")));
    put("net.bytes_per_op", per_op(delta("net_bytes")));

    let (desc, rows) = stack.server.describe_layout();
    let used: u64 = rows.iter().map(|r| r.blocks).sum::<u64>() * desc.block_size as u64;
    let live: u64 = rows.iter().map(|r| r.size_bytes as u64).sum();
    put("core.freelist.space_amp", share(used as f64, live as f64));
    put(
        "core.freelist.ext_frag",
        stack.server.disk_frag_report().external_fragmentation,
    );
}

/// Median ns per call of `f`, timed in batches of `batch` calls for
/// about `budget_s` seconds (at least 5 batches).
fn per_call_ns(batch: u32, budget_s: f64, mut f: impl FnMut()) -> f64 {
    batched_ns(batch, budget_s, &mut (), |_| {}, |_, _| f())
}

/// As [`per_call_ns`], with an untimed `prepare` before each batch; both
/// closures work on `state`, and `f` gets the call's index in its batch.
fn batched_ns<S>(
    batch: u32,
    budget_s: f64,
    state: &mut S,
    mut prepare: impl FnMut(&mut S),
    mut f: impl FnMut(&mut S, u32),
) -> f64 {
    let began = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || began.elapsed().as_secs_f64() < budget_s {
        prepare(state);
        let t0 = Instant::now();
        for i in 0..batch {
            f(state, i);
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&mut per_call)
}

/// Calls `BulletServer::read` makes on a cache hit at this commit, by
/// reading its code: one capability check, one table lookup, one cache
/// lookup, the request charge (one clock advance), four counter updates
/// (`reads`, `cache_hits`, two lock wrappers) and two disabled spans
/// (`bullet.read`, `cache.lookup`).  The wire sends are the dispatcher's
/// and sit inside `rpc.dispatch.self_ns`.  Used only for
/// `bench.layer_sum_share`.
const WARM_READ_CALLS: [(&str, f64); 6] = [
    ("cap.verify_ns", 1.0),
    ("core.table.get_ns", 1.0),
    ("core.cache.get_hit_ns", 1.0),
    ("sim.clock.advance_ns", 1.0),
    ("sim.stats.incr_ns", 4.0),
    ("sim.trace.off_span_ns", 2.0),
];

/// The leaf probes.  `budget_s` is the time each probe may take.
pub fn leaf_metrics(spec: &Spec, ready: &Ready, budget_s: f64, out: &mut Metrics) {
    let hw = HwProfile::amoeba_1989();
    let mut rng = DetRng::new(0x1eaf);
    let sizes = slot_sizes(spec);
    let n = sizes.len();
    let mut put = |k: &str, v: f64| out.insert(k.to_string(), v);
    const BATCH: u32 = 1000;

    // cap: the scheme the server runs by default, over the workload's
    // object-number range.
    let scheme = MacScheme::from_seed(0x5eed);
    let port = Port::from_u64(0xb1e7);
    let randoms: Vec<u64> = (0..n).map(|_| rng.next_u64() >> 16 | 1).collect();
    let object = |i: usize| ObjNum::new(i as u32 + 1).expect("object number fits 24 bits");
    let caps: Vec<Capability> = (0..n)
        .map(|i| scheme.mint(port, object(i), Rights::ALL, randoms[i]))
        .collect();
    let mut i = 0;
    put(
        "cap.verify_ns",
        per_call_ns(BATCH, budget_s, || {
            i = (i + 1) % n;
            black_box(scheme.verify(&caps[i], randoms[i])).expect("genuine capability");
        }),
    );
    put(
        "cap.mint_ns",
        per_call_ns(BATCH, budget_s, || {
            i = (i + 1) % n;
            black_box(scheme.mint(port, object(i), Rights::ALL, randoms[i]));
        }),
    );

    // sim: a registry as populated as the server's own after a run.
    let stats = Stats::new();
    for (k, _) in ready.stack.server.stats().snapshot() {
        stats.add(k, 1);
    }
    for (k, _) in ready.stack.server.lock_stats() {
        stats.add(k, 1);
    }
    put(
        "sim.stats.incr_ns",
        per_call_ns(BATCH, budget_s, || stats.incr("reads")),
    );
    let stop = AtomicBool::new(false);
    let contended = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                stats.incr("lock_table_read");
            }
        });
        let ns = per_call_ns(BATCH, budget_s, || stats.incr("reads"));
        stop.store(true, Ordering::Relaxed);
        ns
    });
    put("sim.stats.incr_2c_ns", contended);
    let clock = SimClock::new();
    put(
        "sim.clock.advance_ns",
        per_call_ns(BATCH, budget_s, || {
            black_box(clock.advance(Nanos::from_ns(1)));
        }),
    );
    let tracer = Tracer::off();
    put(
        "sim.trace.off_span_ns",
        per_call_ns(BATCH, budget_s, || {
            let mut span = tracer.span("bullet.read");
            span.attr("op", "read");
            black_box(&span);
        }),
    );

    // net, rpc
    let net = SimEthernet::new(clock.clone(), hw.net);
    put(
        "net.send_ns",
        per_call_ns(BATCH, budget_s, || {
            black_box(net.send(1024 + 32));
        }),
    );
    let kb = ready.source.slice(..1024);
    let request = Request {
        cap: caps[0],
        command: commands::CREATE,
        params: Bytes::copy_from_slice(&P_FACTOR.to_be_bytes()),
        data: kb.clone(),
    };
    let reply = Reply::ok(Bytes::new(), kb.clone());
    put(
        "rpc.wire.codec_ns",
        per_call_ns(BATCH, budget_s, || {
            black_box(Request::decode(request.encode())).expect("round trip");
            black_box(Reply::decode(reply.encode())).expect("round trip");
        }),
    );

    // core.table: the workload's live set in a table of the stack's size.
    let table_dev = RamDisk::new(BLOCK_SIZE, DISK_BLOCKS);
    let (desc, rows) = ready.stack.server.describe_layout();
    let mut table = InodeTable::format(&table_dev, SLOTS as u32).expect("table formats");
    let idxs: Vec<u32> = (0..n)
        .map(|i| {
            let inode = Inode {
                random: randoms[i],
                index: 0,
                start_block: i as u32,
                size_bytes: sizes[i],
            };
            table.alloc(inode).expect("slots for the live set")
        })
        .collect();
    put(
        "core.table.get_ns",
        per_call_ns(BATCH, budget_s, || {
            i = (i + 1) % n;
            black_box(table.get(idxs[i])).expect("live inode");
        }),
    );

    // core.cache: the workload's capacity, filled with its own files (as
    // many as fit), then churned with files of the size mix.
    let file = |len: u32| ready.source.slice(..len as usize);
    let mut cache = FileCache::with_policy_seeded(spec.cache_bytes, 8192, EvictionPolicy::Lru, 0);
    let mut cached = Vec::new();
    for (i, &len) in sizes.iter().enumerate() {
        let room = cache.capacity() - cache.used_bytes();
        if len as u64 <= room && cache.insert(i as u32 + 1, file(len)).is_ok() {
            cached.push(i as u32 + 1);
        }
    }
    put(
        "core.cache.get_hit_ns",
        per_call_ns(BATCH, budget_s, || {
            i = (i + 1) % cached.len();
            black_box(cache.get(cached[i])).expect("cached file");
        }),
    );
    // Inserts of the workload's own sizes with its own number of live
    // files: they evict where the workload's inserts evict (live set
    // larger than the cache) and find room where its inserts do.
    let live = (n * spec.file_sets()) as u32;
    let mut next = n as u32;
    put(
        "core.cache.insert_evict_ns",
        per_call_ns(BATCH, budget_s, || {
            next += 1;
            black_box(cache.insert(next, file(sizes[next as usize % n]))).expect("fits the cache");
            cache.remove(next - live);
        }),
    );
    let mix = mix_sizes(4096);
    let base = next + 1;
    put(
        "core.cache.remove_ns",
        batched_ns(
            BATCH,
            budget_s,
            &mut cache,
            |cache| {
                for j in 0..BATCH {
                    let _ = cache.insert(base + j, file(mix[j as usize * 4]));
                }
            },
            |cache, j| {
                black_box(cache.remove(base + j));
            },
        ),
    );

    // core.freelist: the data area with the workload's live extents in
    // place, then batches of allocations of the size mix and their frees.
    let mut extents = ExtentAllocator::new(desc.data_start(), desc.data_end());
    for r in &rows {
        extents
            .reserve(r.start_block as u64, r.blocks)
            .expect("live extents do not overlap");
    }
    let blocks = |len: u32| (len as u64).div_ceil(BLOCK_SIZE as u64).max(1);
    let mut state = (extents, Vec::<(u64, u64)>::with_capacity(BATCH as usize));
    let free_all = |(extents, held): &mut (ExtentAllocator, Vec<(u64, u64)>)| {
        for (start, len) in held.drain(..) {
            extents.free(start, len).expect("allocated by the probe");
        }
    };
    let alloc_one = |(extents, held): &mut (ExtentAllocator, Vec<(u64, u64)>), j: u32| {
        let len = blocks(mix[(j as usize * 37) % mix.len()]);
        held.push((extents.alloc(len).expect("room in the data area"), len));
    };
    let alloc_ns = batched_ns(BATCH, budget_s, &mut state, free_all, alloc_one);
    put("core.freelist.alloc_ns", alloc_ns);
    free_all(&mut state);
    let free_ns = batched_ns(
        BATCH,
        budget_s,
        &mut state,
        |state| {
            // The timed frees of the batch before emptied the allocator's
            // side of this list already.
            state.1.clear();
            for j in 0..BATCH {
                alloc_one(state, j);
            }
        },
        |(extents, held), j| {
            let (start, len) = held[j as usize];
            extents.free(start, len).expect("allocated in prepare");
        },
    );
    put("core.freelist.free_ns", free_ns);

    // disk: the op stream's own extents, through each level of the
    // replica stack, and 2-replica writes of the same extents on a
    // mirror of the same build.
    let reads: Vec<(u64, usize)> = rows
        .iter()
        .step_by((rows.len() / 256).max(1))
        .map(|r| {
            (
                r.start_block as u64,
                (r.blocks * desc.block_size as u64) as usize,
            )
        })
        .collect();
    let mut buf = vec![0u8; reads.iter().map(|e| e.1).max().unwrap_or(0)];
    let each = reads.len() as u32;
    let mut read_through = |dev: &dyn BlockDevice| {
        batched_ns(
            each,
            budget_s,
            &mut buf,
            |_| {},
            |buf, j| {
                let (start, len) = reads[j as usize];
                dev.read_blocks(start, &mut buf[..len])
                    .expect("extent in range");
            },
        )
    };
    let disk0 = &ready.stack.disks[0];
    put(
        "disk.mirror.read_ns",
        read_through(ready.stack.server.storage()),
    );
    let sched_ns = read_through(disk0.as_ref());
    let ram_ns = read_through(disk0.inner());
    put("disk.ramdisk.read_ns", ram_ns);
    put("disk.sched.self_ns", sched_ns - ram_ns);
    let clock = SimClock::new();
    let pair = mirror(&[sched_disk(&clock), sched_disk(&clock)]);
    put(
        "disk.mirror.write2_ns",
        batched_ns(
            each,
            budget_s,
            &mut (),
            |_| {},
            |_, j| {
                let (start, len) = reads[j as usize];
                pair.write_sync_k(start, &ready.source[..len], 2)
                    .expect("both replicas live");
            },
        ),
    );
}

/// `bench.generator_ns`: the op stream into a sink that does nothing.
pub fn generator_ns(spec: &Spec, seed: u64, budget_s: f64) -> f64 {
    let mut gen = Gen::new(spec, seed, 0);
    per_call_ns(1000, budget_s, || {
        black_box(gen.next_op());
    })
}

/// `bench.layer_sum_share`: how much of a warm read, timed at the client,
/// the upper layers' self times plus the server's leaf probes account
/// for.
pub fn layer_sum_share(m: &Metrics, warm_read_ns: f64, upper_ns: f64) -> f64 {
    let leaves: f64 = WARM_READ_CALLS
        .iter()
        .map(|(k, calls)| m.get(*k).copied().unwrap_or(0.0) * calls)
        .sum();
    (upper_ns + leaves) / warm_read_ns
}
