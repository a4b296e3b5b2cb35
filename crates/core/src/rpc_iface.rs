//! The Bullet server's RPC facade and client stubs.
//!
//! "The Bullet interface consists of four functions" (§2.2) —
//! `BULLET.CREATE`, `BULLET.SIZE`, `BULLET.READ`, `BULLET.DELETE` — plus
//! the §5 extensions.  Whole files travel as the bulk-data part of a
//! single request or reply.

use std::cell::Cell;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use amoeba_cap::{Capability, Port, Rights, CAP_WIRE_LEN};
use amoeba_rpc::fault::untag_request;
use amoeba_rpc::{DedupCache, Reply, Request, RpcClient, RpcServer, Status, StreamWire};

use crate::accounting::ClientScope;
use crate::server::BulletServer;

/// Command codes of the Bullet protocol.
pub mod commands {
    /// `BULLET.CREATE(DATA, P-FACTOR) → CAPABILITY`.
    pub const CREATE: u32 = 1;
    /// `BULLET.SIZE(CAP) → SIZE`.
    pub const SIZE: u32 = 2;
    /// `BULLET.READ(CAP) → DATA`.
    pub const READ: u32 = 3;
    /// `BULLET.DELETE(CAP)`.
    pub const DELETE: u32 = 4;
    /// Partial read: `(CAP, OFFSET, LEN) → DATA` (§5 extension).
    pub const READ_SECTION: u32 = 5;
    /// Derive a new file: `(CAP, OFFSET, P) + patch → CAPABILITY` (§5).
    pub const MODIFY: u32 = 6;
    /// Derive by appending: `(CAP, P) + data → CAPABILITY` (§5).
    pub const APPEND: u32 = 7;
    /// Restrict rights server-side: `(CAP, MASK) → CAPABILITY`.
    pub const RESTRICT: u32 = 8;
    /// Flush background replica writes.
    pub const SYNC: u32 = 9;
}

/// Replies the at-most-once cache remembers per server (the paper-era
/// reply cache was similarly small: enough to cover every client's
/// outstanding transaction, not a history).
const DEDUP_CAPACITY: usize = 1024;

/// The RPC wrapper: exposes a [`BulletServer`] on its port.
///
/// Requests tagged with a transaction id (see
/// [`amoeba_rpc::fault::tag_request`]) get at-most-once semantics: a
/// retransmitted `CREATE` replays the original reply instead of
/// allocating a second extent.  Untagged requests — everything the
/// plain [`BulletClient`] sends — skip the cache entirely.
pub struct BulletRpcServer {
    server: Arc<BulletServer>,
    dedup: DedupCache,
}

impl BulletRpcServer {
    /// Wraps a server for registration with a dispatcher.
    pub fn new(server: Arc<BulletServer>) -> Arc<BulletRpcServer> {
        Arc::new(BulletRpcServer {
            server,
            dedup: DedupCache::new(DEDUP_CAPACITY),
        })
    }

    /// The wrapped server.
    pub fn server(&self) -> &Arc<BulletServer> {
        &self.server
    }

    /// The at-most-once reply cache counters: `dedup_hits`,
    /// `dedup_evictions`.
    pub fn dedup_stats(&self) -> &amoeba_sim::Stats {
        self.dedup.stats()
    }
}

impl BulletRpcServer {
    fn std_info(&self, req: &Request) -> Reply {
        if req.cap.object.value() == 0 {
            let frag = self.server.disk_frag_report();
            return Reply::ok(
                Bytes::new(),
                Bytes::from(format!(
                    "bullet file server at {}: {} files, {}/{} data blocks free",
                    self.server.port(),
                    self.server.live_files(),
                    frag.free,
                    frag.total
                )),
            );
        }
        match self.server.size(&req.cap) {
            Ok(size) => Reply::ok(
                Bytes::new(),
                Bytes::from(format!("bullet file #{}: {} bytes", req.cap.object, size)),
            ),
            Err(e) => Reply::error(e.into()),
        }
    }

    fn std_status(&self) -> Reply {
        let mut out = String::new();
        for (k, v) in self.server.stats().snapshot() {
            out.push_str(&format!("{k}={v}\n"));
        }
        for (k, v) in self.server.cache_stats() {
            out.push_str(&format!("{k}={v}\n"));
        }
        for (k, v) in self.server.lock_stats() {
            out.push_str(&format!("{k}={v}\n"));
        }
        for (k, v) in self.dedup.stats().snapshot() {
            out.push_str(&format!("{k}={v}\n"));
        }
        let frag = self.server.disk_frag_report();
        out.push_str(&format!(
            "disk_free_blocks={} disk_holes={} disk_frag={:.3}\n",
            frag.free, frag.hole_count, frag.external_fragmentation
        ));
        Reply::ok(Bytes::new(), Bytes::from(out))
    }
}

impl RpcServer for BulletRpcServer {
    fn port(&self) -> Port {
        self.server.port()
    }

    fn handle(&self, req: Request) -> Reply {
        self.serve(req, None)
    }

    fn handle_streamed(&self, req: Request, wire: &StreamWire) -> Reply {
        self.serve(req, Some(wire))
    }
}

impl BulletRpcServer {
    /// Both [`RpcServer`] entry points: `wire` is the transport's stream
    /// wire when it offers one.
    fn serve(&self, req: Request, wire: Option<&StreamWire>) -> Reply {
        let (req, txn) = untag_request(req);
        let Some(txn) = txn else {
            return self.dispatch(req, wire);
        };
        // All server-side work for this request — including the
        // data-path charges deep in `BulletServer` — bills to the
        // transaction tag's client while the scope is open.
        let _scope = ClientScope::enter(txn.client);
        let executed = Cell::new(false);
        let reply = self.dedup.execute(txn, || {
            executed.set(true);
            self.dispatch(req, wire)
        });
        if !executed.get() {
            // Replayed from the at-most-once cache: the client's RPC
            // layer retransmitted.
            self.server
                .accounting()
                .charge(txn.client, |u| u.retries += 1);
        }
        reply
    }

    fn dispatch(&self, req: Request, wire: Option<&StreamWire>) -> Reply {
        use amoeba_rpc::std_commands;
        let result = match req.command {
            std_commands::INFO => return self.std_info(&req),
            std_commands::STATUS => return self.std_status(),
            std_commands::MONITOR => {
                return Reply::ok(Bytes::new(), Bytes::from(self.server.monitor_snapshot()))
            }
            commands::CREATE => {
                let Some(p) = read_u32(&req.params, 0) else {
                    return Reply::error(Status::BadParam);
                };
                self.server
                    .create_streamed(req.data, p, wire)
                    .map(|cap| Reply::ok(cap_bytes(&cap), Bytes::new()))
            }
            commands::SIZE => self.server.size(&req.cap).map(|size| {
                let mut params = BytesMut::with_capacity(4);
                params.put_u32(size);
                Reply::ok(params.freeze(), Bytes::new())
            }),
            commands::READ => self
                .server
                .read_streamed(&req.cap, wire)
                .map(|data| streamed_reply(wire, data)),
            commands::DELETE => self
                .server
                .delete(&req.cap)
                .map(|()| Reply::ok(Bytes::new(), Bytes::new())),
            commands::READ_SECTION => {
                let (Some(offset), Some(len)) =
                    (read_u32(&req.params, 0), read_u32(&req.params, 4))
                else {
                    return Reply::error(Status::BadParam);
                };
                self.server
                    .read_section_streamed(&req.cap, offset, len, wire)
                    .map(|data| streamed_reply(wire, data))
            }
            commands::MODIFY => {
                let (Some(offset), Some(p)) = (read_u32(&req.params, 0), read_u32(&req.params, 4))
                else {
                    return Reply::error(Status::BadParam);
                };
                self.server
                    .modify(&req.cap, offset, &req.data, p)
                    .map(|cap| Reply::ok(cap_bytes(&cap), Bytes::new()))
            }
            commands::APPEND => {
                let Some(p) = read_u32(&req.params, 0) else {
                    return Reply::error(Status::BadParam);
                };
                self.server
                    .append(&req.cap, &req.data, p)
                    .map(|cap| Reply::ok(cap_bytes(&cap), Bytes::new()))
            }
            commands::RESTRICT => {
                let Some(&mask) = req.params.first() else {
                    return Reply::error(Status::BadParam);
                };
                self.server
                    .restrict(&req.cap, Rights::from_bits(mask))
                    .map(|cap| Reply::ok(cap_bytes(&cap), Bytes::new()))
            }
            commands::SYNC => self
                .server
                .sync()
                .map(|()| Reply::ok(Bytes::new(), Bytes::new())),
            _ => return Reply::error(Status::ComBad),
        };
        result.unwrap_or_else(|e| Reply::error(e.into()))
    }
}

/// Closes out a read reply whose payload may have been streamed: frames
/// owed to a channel peer are delivered (zero-copy slices of `data`), and
/// if they carry the payload the closing reply travels empty — the client
/// reassembles.  Without a wire the payload is the reply.
fn streamed_reply(wire: Option<&StreamWire>, data: Bytes) -> Reply {
    if let Some(wire) = wire {
        wire.finish_reply(&data);
        if wire.delivers_frames() && wire.reply_streamed() > 0 {
            return Reply::ok(Bytes::new(), Bytes::new());
        }
    }
    Reply::ok(Bytes::new(), data)
}

fn read_u32(buf: &Bytes, at: usize) -> Option<u32> {
    buf.get(at..at + 4).map(|mut s| s.get_u32())
}

fn cap_bytes(cap: &Capability) -> Bytes {
    Bytes::copy_from_slice(&cap.to_wire())
}

fn cap_from_params(params: &Bytes) -> Result<Capability, Status> {
    if params.len() < CAP_WIRE_LEN {
        return Err(Status::BadParam);
    }
    Capability::from_wire(&params[..CAP_WIRE_LEN]).map_err(|_| Status::BadParam)
}

/// Client stubs for the Bullet protocol: what a workstation links against.
#[derive(Debug, Clone)]
pub struct BulletClient {
    rpc: RpcClient,
    server: Port,
}

impl BulletClient {
    /// A client of the Bullet service at `server`.
    pub fn new(rpc: RpcClient, server: Port) -> BulletClient {
        BulletClient { rpc, server }
    }

    fn service_cap(&self) -> Capability {
        let mut cap = Capability::null();
        cap.port = self.server;
        cap
    }

    /// `BULLET.CREATE`: stores `data` as a new immutable file.
    ///
    /// # Errors
    ///
    /// The server's status on failure.
    pub fn create(&self, data: Bytes, p_factor: u32) -> Result<Capability, Status> {
        let mut params = BytesMut::with_capacity(4);
        params.put_u32(p_factor);
        let reply = self
            .rpc
            .trans(self.service_cap(), commands::CREATE, params.freeze(), data)?;
        cap_from_params(&reply.params)
    }

    /// `BULLET.SIZE`.
    ///
    /// # Errors
    ///
    /// The server's status on failure.
    pub fn size(&self, cap: &Capability) -> Result<u32, Status> {
        let reply = self
            .rpc
            .trans(*cap, commands::SIZE, Bytes::new(), Bytes::new())?;
        read_u32(&reply.params, 0).ok_or(Status::BadParam)
    }

    /// `BULLET.READ`: fetches the whole file.
    ///
    /// # Errors
    ///
    /// The server's status on failure.
    pub fn read(&self, cap: &Capability) -> Result<Bytes, Status> {
        let reply = self
            .rpc
            .trans(*cap, commands::READ, Bytes::new(), Bytes::new())?;
        Ok(reply.data)
    }

    /// `BULLET.DELETE`.
    ///
    /// # Errors
    ///
    /// The server's status on failure.
    pub fn delete(&self, cap: &Capability) -> Result<(), Status> {
        self.rpc
            .trans(*cap, commands::DELETE, Bytes::new(), Bytes::new())?;
        Ok(())
    }

    /// Partial read (§5 extension).
    ///
    /// # Errors
    ///
    /// The server's status on failure.
    pub fn read_section(&self, cap: &Capability, offset: u32, len: u32) -> Result<Bytes, Status> {
        let mut params = BytesMut::with_capacity(8);
        params.put_u32(offset);
        params.put_u32(len);
        let reply = self
            .rpc
            .trans(*cap, commands::READ_SECTION, params.freeze(), Bytes::new())?;
        Ok(reply.data)
    }

    /// Derives a new file with `patch` overlaid at `offset` (§5).
    ///
    /// # Errors
    ///
    /// The server's status on failure.
    pub fn modify(
        &self,
        cap: &Capability,
        offset: u32,
        patch: Bytes,
        p_factor: u32,
    ) -> Result<Capability, Status> {
        let mut params = BytesMut::with_capacity(8);
        params.put_u32(offset);
        params.put_u32(p_factor);
        let reply = self
            .rpc
            .trans(*cap, commands::MODIFY, params.freeze(), patch)?;
        cap_from_params(&reply.params)
    }

    /// Derives a new file by appending (§5).
    ///
    /// # Errors
    ///
    /// The server's status on failure.
    pub fn append(
        &self,
        cap: &Capability,
        data: Bytes,
        p_factor: u32,
    ) -> Result<Capability, Status> {
        let mut params = BytesMut::with_capacity(4);
        params.put_u32(p_factor);
        let reply = self
            .rpc
            .trans(*cap, commands::APPEND, params.freeze(), data)?;
        cap_from_params(&reply.params)
    }

    /// Asks the server for a capability with `cap.rights ∩ mask`.
    ///
    /// # Errors
    ///
    /// The server's status on failure.
    pub fn restrict(&self, cap: &Capability, mask: Rights) -> Result<Capability, Status> {
        let reply = self.rpc.trans(
            *cap,
            commands::RESTRICT,
            Bytes::copy_from_slice(&[mask.bits()]),
            Bytes::new(),
        )?;
        cap_from_params(&reply.params)
    }

    /// `STD_MONITOR`: fetches the server's live telemetry snapshot — a
    /// versioned JSON object (top-level `"monitor_schema"` key) carrying
    /// every counter, the tail of each time-series ring, the SLO
    /// watchdog's event log, and the top per-client resource consumers.
    /// See [`BulletServer::monitor_snapshot`].
    ///
    /// # Errors
    ///
    /// The server's status on failure.
    pub fn monitor(&self) -> Result<String, Status> {
        let reply = self.rpc.trans(
            self.service_cap(),
            amoeba_rpc::std_commands::MONITOR,
            Bytes::new(),
            Bytes::new(),
        )?;
        String::from_utf8(reply.data.to_vec()).map_err(|_| Status::BadParam)
    }

    /// Flushes the server's background replica writes.
    ///
    /// # Errors
    ///
    /// The server's status on failure.
    pub fn sync(&self) -> Result<(), Status> {
        self.rpc.trans(
            self.service_cap(),
            commands::SYNC,
            Bytes::new(),
            Bytes::new(),
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::BulletConfig;
    use amoeba_net::SimEthernet;
    use amoeba_rpc::Dispatcher;
    use amoeba_sim::{NetProfile, SimClock};

    fn stack() -> (SimClock, BulletClient, Arc<BulletServer>) {
        let mut cfg = BulletConfig::small_test();
        let clock = SimClock::new();
        cfg.clock = clock.clone();
        let server = Arc::new(BulletServer::format(cfg, 2).unwrap());
        let net = SimEthernet::new(clock.clone(), NetProfile::ethernet_10mbit());
        let dispatcher = Dispatcher::new(net);
        dispatcher.register(BulletRpcServer::new(server.clone()));
        let client = BulletClient::new(RpcClient::new(dispatcher), server.port());
        (clock, client, server)
    }

    #[test]
    fn full_protocol_round_trip() {
        let (_clock, client, _server) = stack();
        let cap = client
            .create(Bytes::from_static(b"remote file"), 1)
            .unwrap();
        assert_eq!(client.size(&cap).unwrap(), 11);
        assert_eq!(
            client.read(&cap).unwrap(),
            Bytes::from_static(b"remote file")
        );
        assert_eq!(
            client.read_section(&cap, 7, 4).unwrap(),
            Bytes::from_static(b"file")
        );
        let v2 = client
            .modify(&cap, 0, Bytes::from_static(b"REMOTE"), 1)
            .unwrap();
        assert_eq!(
            client.read(&v2).unwrap(),
            Bytes::from_static(b"REMOTE file")
        );
        let v3 = client.append(&cap, Bytes::from_static(b"!"), 1).unwrap();
        assert_eq!(
            client.read(&v3).unwrap(),
            Bytes::from_static(b"remote file!")
        );
        client.delete(&cap).unwrap();
        assert_eq!(client.read(&cap).unwrap_err(), Status::NotFound);
        client.sync().unwrap();
    }

    #[test]
    fn monitor_rpc_returns_versioned_snapshot() {
        use amoeba_rpc::fault::{tag_request, TxnId};
        let mut cfg = BulletConfig::small_test();
        let clock = SimClock::new();
        cfg.clock = clock.clone();
        cfg.telemetry = amoeba_sim::Telemetry::on(amoeba_sim::Nanos::from_us(1), 64);
        cfg.telemetry
            .watch("cache stays empty", "cache_used_bytes", 0);
        cfg.accounting = crate::ClientAccounting::on();
        let server = Arc::new(BulletServer::format(cfg, 2).unwrap());
        let net = SimEthernet::new(clock.clone(), NetProfile::ethernet_10mbit());
        let dispatcher = Dispatcher::new(net);
        let rpc = BulletRpcServer::new(server.clone());
        dispatcher.register(rpc.clone());
        let client = BulletClient::new(RpcClient::new(dispatcher), server.port());
        let cap = client.create(Bytes::from_static(b"monitored"), 1).unwrap();
        client.read(&cap).unwrap();
        // One tagged read, so the accounting table has a client to rank.
        let read = Request {
            cap,
            command: commands::READ,
            params: Bytes::new(),
            data: Bytes::new(),
        };
        rpc.handle(tag_request(read, TxnId { client: 42, seq: 1 }));
        // With a 1 µs period the per-request tick sampled the layer
        // gauges into the rings and the watchdog saw the cache fill: every
        // part of the document is populated, and it is PR 23's bytes.
        let snap = client.monitor().unwrap();
        let golden = include_str!("../tests/golden/monitor_snapshot.json");
        assert_eq!(snap, golden.trim_end());
        assert_eq!(amoeba_sim::json::valid(&snap), Ok(()));
    }

    #[test]
    fn tagged_requests_charge_client_accounting() {
        use amoeba_rpc::fault::{tag_request, TxnId};
        let mut cfg = BulletConfig::small_test();
        cfg.accounting = crate::ClientAccounting::on();
        let server = Arc::new(BulletServer::format(cfg, 2).unwrap());
        let rpc = BulletRpcServer::new(server.clone());
        let cap = server.create(Bytes::from_static(b"abcde"), 1).unwrap();
        let make = || Request {
            cap,
            command: commands::READ,
            params: Bytes::new(),
            data: Bytes::new(),
        };
        let txn = TxnId { client: 42, seq: 1 };
        let first = rpc.handle(tag_request(make(), txn));
        assert_eq!(first.status, Status::Ok);
        let usage = server.accounting().usage(42).unwrap();
        assert_eq!(usage.requests, 1);
        assert_eq!(usage.bytes_read, 5);
        // A retransmission of the same transaction replays from the
        // dedup cache: no new work charged, one retry recorded.
        let replay = rpc.handle(tag_request(make(), txn));
        assert_eq!(replay.status, Status::Ok);
        let usage = server.accounting().usage(42).unwrap();
        assert_eq!(usage.requests, 1);
        assert_eq!(usage.retries, 1);
        // Untagged traffic is charged to nobody.
        rpc.handle(make());
        assert_eq!(server.accounting().len(), 1);
        let snap = server.monitor_snapshot();
        assert!(snap.contains("\"client\":42"), "{snap}");
    }

    #[test]
    fn restricted_cap_via_rpc() {
        let (_clock, client, _server) = stack();
        let owner = client.create(Bytes::from_static(b"data"), 1).unwrap();
        let reader = client.restrict(&owner, Rights::READ).unwrap();
        assert_eq!(client.read(&reader).unwrap(), Bytes::from_static(b"data"));
        assert_eq!(client.delete(&reader).unwrap_err(), Status::Denied);
    }

    #[test]
    fn malformed_params_rejected() {
        let (_clock, client, server) = stack();
        // Hand-roll a CREATE with truncated params.
        let reply = client
            .rpc
            .trans(
                {
                    let mut c = Capability::null();
                    c.port = server.port();
                    c
                },
                commands::CREATE,
                Bytes::from_static(&[1, 2]),
                Bytes::new(),
            )
            .unwrap_err();
        assert_eq!(reply, Status::BadParam);
        // Unknown command.
        let err = client
            .rpc
            .trans(client.service_cap(), 999, Bytes::new(), Bytes::new())
            .unwrap_err();
        assert_eq!(err, Status::ComBad);
    }

    #[test]
    fn whole_file_transfer_is_one_rpc() {
        let (_clock, client, _server) = stack();
        let net_msgs_before = client.rpc.dispatcher().net().stats().get("net_messages");
        let cap = client.create(Bytes::from(vec![7u8; 100_000]), 2).unwrap();
        client.read(&cap).unwrap();
        let net_msgs = client.rpc.dispatcher().net().stats().get("net_messages") - net_msgs_before;
        // One request + one reply per operation — never per block.
        assert_eq!(net_msgs, 4);
    }

    #[test]
    fn simulated_delay_structure_matches_paper() {
        // A cached 1-byte read must be around a millisecond; a cached
        // large read is dominated by wire time.
        let (clock, client, _server) = stack();
        let tiny = client.create(Bytes::from_static(b"x"), 1).unwrap();
        let big = client.create(Bytes::from(vec![1u8; 1 << 20]), 1).unwrap();
        client.read(&tiny).unwrap();
        client.read(&big).unwrap(); // both now cached

        let (_, t_tiny) = clock.time(|| client.read(&tiny).unwrap());
        let (_, t_big) = clock.time(|| client.read(&big).unwrap());
        assert!(
            (0.5..8.0).contains(&t_tiny.as_ms_f64()),
            "1-byte read {t_tiny}"
        );
        // Server-side only (the client's reception copy is charged by the
        // benchmark harness, not the RPC layer), so this sits near the
        // raw-wire ~1.1 MB/s rather than the user-to-user ~800 KB/s.
        let bw = (1 << 20) as f64 / 1024.0 / t_big.as_secs_f64();
        assert!(
            (500.0..1300.0).contains(&bw),
            "1 MB read bandwidth {bw} KB/s"
        );
    }
}
