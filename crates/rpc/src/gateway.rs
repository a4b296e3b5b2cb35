//! Wide-area gateways: linking Amoeba sites into one service space.
//!
//! "Gateways provide transparent communication among Amoeba sites
//! currently operating in four different countries" (§2.1), and "this
//! has allowed us to link multiple Bullet file servers together providing
//! one single large file service that crosses international borders."
//!
//! A [`Gateway`] joins two RPC fabrics ([`Dispatcher`]s) over a wide-area
//! link.  Exporting a remote port installs a transparent proxy on the
//! local fabric: local clients transact with the remote server using the
//! very same capabilities, paying the WAN's (much larger) simulated
//! costs.  Ports remain location-independent — exactly the Amoeba model.

use std::sync::Arc;

use amoeba_cap::Port;
use amoeba_net::SimEthernet;
use amoeba_sim::{NetProfile, Pipeline, Tracer};

use crate::stream::DEFAULT_SEGMENT;
use crate::{Dispatcher, Reply, Request, RpcError, RpcServer, Status, StreamWire};

/// A 1989-era international leased line (64 kbit/s, continental latency).
///
/// Used as the default WAN profile for gateway links; MANDIS/Amoeba ran
/// over lines of this class.
pub fn wan_64kbit() -> NetProfile {
    NetProfile {
        per_message_us: 150_000.0, // one-way propagation + switching
        per_packet_us: 20_000.0,
        per_byte_us: 125.0, // 64 kbit/s == 8 KB/s
        mtu_payload: 512,
    }
}

/// A one-way proxy for a single remote port.
struct WanProxy {
    port: Port,
    remote: Arc<Dispatcher>,
    wan: SimEthernet,
}

impl WanProxy {
    /// Both [`RpcServer`] entry points.  The request crosses the WAN,
    /// transacts on the remote fabric (which charges its own
    /// local-Ethernet costs), and the reply crosses back — whole, unless
    /// the transport offers a stream `wire` and the reply spans segments.
    fn relay(&self, req: Request, wire: Option<&StreamWire>) -> Reply {
        self.wan.send(req.wire_size());
        let reply = match self.remote.trans(req) {
            Ok(reply) => reply,
            Err(RpcError::UnknownPort(_)) => Reply::error(Status::NotFound),
        };
        let seg = DEFAULT_SEGMENT as u64;
        let total = reply.data.len() as u64;
        let wire = match wire {
            Some(wire) if reply.status.is_ok() && total > seg => wire,
            _ => {
                self.wan.send(reply.wire_size());
                return reply;
            }
        };
        // A large reply streams across the WAN segment by segment, each
        // one forwarded onto the local wire while the next is still on the
        // slow link — the gateway relays instead of store-and-forwarding
        // the whole file.  The WAN header (status + params) keeps the
        // per-message charge.
        self.wan.send(reply.wire_size() - reply.data.len() as u64);
        let Ok(_) = Pipeline::walk(&Tracer::off(), &[], total, seg, |pipe, off, end| {
            let chunk = reply.data.slice(off as usize..end as usize);
            pipe.stage(0, || self.wan.send_stream(end - off));
            pipe.stage(1, || wire.send_reply_segment(off, chunk, end == total));
            Ok::<(), std::convert::Infallible>(())
        });
        if wire.delivers_frames() {
            return Reply {
                status: reply.status,
                params: reply.params,
                data: bytes::Bytes::new(),
            };
        }
        reply
    }
}

impl RpcServer for WanProxy {
    fn port(&self) -> Port {
        self.port
    }

    fn handle(&self, req: Request) -> Reply {
        self.relay(req, None)
    }

    fn handle_streamed(&self, req: Request, wire: &StreamWire) -> Reply {
        self.relay(req, Some(wire))
    }
}

/// A bidirectional gateway between two sites.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use amoeba_cap::{Capability, Port};
/// use amoeba_net::SimEthernet;
/// use amoeba_rpc::{gateway::{wan_64kbit, Gateway}, Dispatcher, Reply, Request, RpcServer};
/// use amoeba_sim::{NetProfile, SimClock};
/// use bytes::Bytes;
///
/// struct Echo(Port);
/// impl RpcServer for Echo {
///     fn port(&self) -> Port { self.0 }
///     fn handle(&self, req: Request) -> Reply { Reply::ok(Bytes::new(), req.data) }
/// }
///
/// let clock = SimClock::new();
/// let amsterdam = Dispatcher::new(SimEthernet::new(clock.clone(), NetProfile::ethernet_10mbit()));
/// let london = Dispatcher::new(SimEthernet::new(clock.clone(), NetProfile::ethernet_10mbit()));
/// let port = Port::from_u64(7);
/// london.register(Arc::new(Echo(port)));
///
/// let wan = SimEthernet::new(clock, wan_64kbit());
/// let gw = Gateway::new(amsterdam.clone(), london, wan);
/// gw.export_to_local(port);
///
/// // An Amsterdam client now reaches the London server transparently.
/// let mut cap = Capability::null();
/// cap.port = port;
/// let reply = amsterdam.trans(Request { cap, command: 0, params: Bytes::new(), data: Bytes::from_static(b"hi") })?;
/// assert_eq!(reply.data, Bytes::from_static(b"hi"));
/// # Ok::<(), amoeba_rpc::RpcError>(())
/// ```
pub struct Gateway {
    local: Arc<Dispatcher>,
    remote: Arc<Dispatcher>,
    wan: SimEthernet,
}

impl Gateway {
    /// Builds a gateway joining `local` and `remote` over `wan`.
    pub fn new(local: Arc<Dispatcher>, remote: Arc<Dispatcher>, wan: SimEthernet) -> Gateway {
        Gateway { local, remote, wan }
    }

    /// Makes a *remote* service reachable from the local fabric.
    pub fn export_to_local(&self, port: Port) {
        self.local.register(Arc::new(WanProxy {
            port,
            remote: self.remote.clone(),
            wan: self.wan.clone(),
        }));
    }

    /// Makes a *local* service reachable from the remote fabric.
    pub fn export_to_remote(&self, port: Port) {
        self.remote.register(Arc::new(WanProxy {
            port,
            remote: self.local.clone(),
            wan: self.wan.clone(),
        }));
    }

    /// The wide-area link (for statistics).
    pub fn wan(&self) -> &SimEthernet {
        &self.wan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::Capability;
    use amoeba_sim::SimClock;
    use bytes::Bytes;

    struct Upper(Port);

    impl RpcServer for Upper {
        fn port(&self) -> Port {
            self.0
        }

        fn handle(&self, req: Request) -> Reply {
            let up: Vec<u8> = req.data.iter().map(|b| b.to_ascii_uppercase()).collect();
            Reply::ok(Bytes::new(), Bytes::from(up))
        }
    }

    fn sites() -> (SimClock, Arc<Dispatcher>, Arc<Dispatcher>, Gateway) {
        let clock = SimClock::new();
        let a = Dispatcher::new(SimEthernet::new(
            clock.clone(),
            NetProfile::ethernet_10mbit(),
        ));
        let b = Dispatcher::new(SimEthernet::new(
            clock.clone(),
            NetProfile::ethernet_10mbit(),
        ));
        let wan = SimEthernet::new(clock.clone(), wan_64kbit());
        let gw = Gateway::new(a.clone(), b.clone(), wan);
        (clock, a, b, gw)
    }

    fn cap_on(port: Port) -> Capability {
        let mut cap = Capability::null();
        cap.port = port;
        cap
    }

    #[test]
    fn remote_service_reachable_after_export() {
        let (_clock, a, b, gw) = sites();
        let port = Port::from_u64(9);
        b.register(Arc::new(Upper(port)));
        assert!(
            a.trans(Request::simple(cap_on(port), 0)).is_err(),
            "not exported yet"
        );
        gw.export_to_local(port);
        let reply = a
            .trans(Request {
                cap: cap_on(port),
                command: 0,
                params: Bytes::new(),
                data: Bytes::from_static(b"abc"),
            })
            .unwrap();
        assert_eq!(reply.data, Bytes::from_static(b"ABC"));
    }

    #[test]
    fn wan_costs_dominate_remote_transactions() {
        let (clock, a, b, gw) = sites();
        let port = Port::from_u64(9);
        b.register(Arc::new(Upper(port)));
        gw.export_to_local(port);

        // Warm both locate caches.
        a.trans(Request::simple(cap_on(port), 0)).unwrap();
        let t0 = clock.now();
        a.trans(Request::simple(cap_on(port), 0)).unwrap();
        let remote_cost = clock.now() - t0;
        // Two WAN crossings at 150 ms each, plus the local hops.
        assert!(
            remote_cost.as_ms_f64() > 300.0,
            "remote transaction cost {remote_cost}"
        );
        assert_eq!(gw.wan().stats().get("net_messages"), 4);
    }

    /// Replies with a fixed large payload (several WAN segments).
    struct BigReply(Port);

    impl RpcServer for BigReply {
        fn port(&self) -> Port {
            self.0
        }

        fn handle(&self, _req: Request) -> Reply {
            Reply::ok(Bytes::new(), Bytes::from(vec![0x42; 200_000]))
        }
    }

    #[test]
    fn large_replies_stream_across_the_wan() {
        let (clock, a, b, gw) = sites();
        let port = Port::from_u64(12);
        b.register(Arc::new(BigReply(port)));
        gw.export_to_local(port);
        a.trans(Request::simple(cap_on(port), 0)).unwrap(); // warm both locates

        let t0 = clock.now();
        let reply = a.trans(Request::simple(cap_on(port), 0)).unwrap();
        let streamed_cost = clock.now() - t0;
        assert_eq!(reply.data.len(), 200_000);
        // The payload crossed the WAN as continuation frames…
        assert_eq!(gw.wan().stats().get("net_stream_frames"), 8);

        // …and the relay beats store-and-forward.  Baseline: the remote
        // leg measured directly, plus monolithic WAN crossings, plus the
        // full local delivery that a store-and-forward gateway would pay
        // after the last WAN byte arrived.
        let t1 = clock.now();
        b.trans(Request::simple(cap_on(port), 0)).unwrap();
        let remote_leg = clock.now() - t1;
        let req_wire = Request::simple(cap_on(port), 0).wire_size();
        let reply_wire = reply.wire_size();
        let wan_p = wan_64kbit();
        let eth = NetProfile::ethernet_10mbit();
        let store_and_forward = eth.one_way(req_wire)
            + wan_p.one_way(req_wire)
            + remote_leg
            + wan_p.one_way(reply_wire)
            + eth.one_way(reply_wire);
        assert!(
            streamed_cost < store_and_forward,
            "streamed {streamed_cost} vs store-and-forward {store_and_forward}"
        );
    }

    #[test]
    fn export_is_bidirectional() {
        let (_clock, a, b, gw) = sites();
        let pa = Port::from_u64(1);
        let pb = Port::from_u64(2);
        a.register(Arc::new(Upper(pa)));
        b.register(Arc::new(Upper(pb)));
        gw.export_to_local(pb);
        gw.export_to_remote(pa);
        assert!(a.trans(Request::simple(cap_on(pb), 0)).is_ok());
        assert!(b.trans(Request::simple(cap_on(pa), 0)).is_ok());
    }

    #[test]
    fn gateways_chain_across_three_sites() {
        // A — B — C: C's server is exported to B, and B's *proxy* is
        // exported onward to A, so an A client transacts through two
        // hops — the paper's "four different countries" topology.
        let clock = SimClock::new();
        let a = Dispatcher::new(SimEthernet::new(
            clock.clone(),
            NetProfile::ethernet_10mbit(),
        ));
        let b = Dispatcher::new(SimEthernet::new(
            clock.clone(),
            NetProfile::ethernet_10mbit(),
        ));
        let c = Dispatcher::new(SimEthernet::new(
            clock.clone(),
            NetProfile::ethernet_10mbit(),
        ));
        let port = Port::from_u64(3);
        c.register(Arc::new(Upper(port)));

        let gw_bc = Gateway::new(
            b.clone(),
            c.clone(),
            SimEthernet::new(clock.clone(), wan_64kbit()),
        );
        gw_bc.export_to_local(port);
        let gw_ab = Gateway::new(
            a.clone(),
            b.clone(),
            SimEthernet::new(clock.clone(), wan_64kbit()),
        );
        gw_ab.export_to_local(port);

        let reply = a
            .trans(Request {
                cap: cap_on(port),
                command: 0,
                params: Bytes::new(),
                data: Bytes::from_static(b"far"),
            })
            .unwrap();
        assert_eq!(reply.data, Bytes::from_static(b"FAR"));
        // Two WAN crossings each way.
        let t0 = clock.now();
        a.trans(Request::simple(cap_on(port), 0)).unwrap();
        assert!((clock.now() - t0).as_ms_f64() > 600.0);
    }

    #[test]
    fn dead_remote_server_reports_not_found() {
        let (_clock, a, b, gw) = sites();
        let port = Port::from_u64(9);
        b.register(Arc::new(Upper(port)));
        gw.export_to_local(port);
        b.unregister(port); // the remote server crashes
        let reply = a.trans(Request::simple(cap_on(port), 0)).unwrap();
        assert_eq!(reply.status, Status::NotFound);
    }
}
