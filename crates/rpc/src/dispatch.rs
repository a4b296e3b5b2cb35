//! The server trait and the locate-and-transact dispatcher.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::RwLock;

use amoeba_cap::Port;
use amoeba_net::SimEthernet;
use amoeba_sim::{Nanos, Tracer};

use crate::{Reply, Request, StreamWire};

/// An Amoeba object server: owns a port and handles requests addressed to
/// it.
pub trait RpcServer: Send + Sync {
    /// The port this server listens on.
    fn port(&self) -> Port;

    /// Services one request.  Implementations charge their own CPU and
    /// disk time to the shared simulated clock.
    fn handle(&self, req: Request) -> Reply;

    /// Services one request with access to the wire for streamed
    /// (segmented) bulk transfers; see [`StreamWire`].  The default
    /// simply ignores the wire, so non-streaming servers behave exactly
    /// as before.
    fn handle_streamed(&self, req: Request, _wire: &StreamWire) -> Reply {
        self.handle(req)
    }
}

/// Errors at the RPC transport layer (server-side failures travel inside
/// [`Reply::status`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RpcError {
    /// No server is registered on the addressed port.
    UnknownPort(Port),
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::UnknownPort(p) => write!(f, "no server located at port {p}"),
        }
    }
}

impl std::error::Error for RpcError {}

/// The RPC fabric: servers register their ports; clients transact.
///
/// `trans` models one Amoeba transaction: the request travels one way over
/// the simulated Ethernet, the server computes, and the reply travels
/// back.  The first transaction to a port additionally pays a *locate*
/// broadcast (ports are location-independent, so they must be found once);
/// later transactions hit the locate cache, as in Amoeba.
pub struct Dispatcher {
    net: SimEthernet,
    servers: RwLock<HashMap<Port, Arc<dyn RpcServer>>>,
    located: RwLock<HashSet<Port>>,
    /// Span recorder for the transaction roots (disabled by default).
    tracer: RwLock<Tracer>,
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("servers", &self.servers.read().len())
            .finish()
    }
}

impl Dispatcher {
    /// The locate broadcast a port's first transaction pays: 4 ms.
    const LOCATE_COST: Nanos = Nanos(4_000_000);

    /// Creates a dispatcher over the given wire.
    pub fn new(net: SimEthernet) -> Arc<Dispatcher> {
        Arc::new(Dispatcher {
            net,
            servers: RwLock::new(HashMap::new()),
            located: RwLock::new(HashSet::new()),
            tracer: RwLock::new(Tracer::off()),
        })
    }

    /// Installs the span tracer.  Each transaction then records an
    /// `rpc.trans` root span covering locate, server handling, and the
    /// residual wire charges — the top of every request's span tree.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.write() = tracer;
    }

    /// Registers a server under its own port, replacing any previous
    /// holder of that port.
    pub fn register(&self, server: Arc<dyn RpcServer>) {
        self.servers.write().insert(server.port(), server);
    }

    /// Removes the server at `port` (it "crashes"); subsequent transactions
    /// fail to locate it.
    pub fn unregister(&self, port: Port) {
        self.servers.write().remove(&port);
        self.located.write().remove(&port);
    }

    /// The shared wire (to reach its statistics and clock).
    pub fn net(&self) -> &SimEthernet {
        &self.net
    }

    /// Performs one transaction.
    ///
    /// `trans` may be called from any number of client threads at once:
    /// the server handle is cloned out of the registry lock *before*
    /// [`RpcServer::handle`] runs, so no dispatcher lock is held while the
    /// server computes and overlapping requests proceed in parallel.  Any
    /// serialization that remains is the server's own (e.g. the Bullet
    /// server's per-component locks).
    ///
    /// The server is given a [`StreamWire`] (see
    /// [`RpcServer::handle_streamed`]); payload bytes it moves as streamed
    /// segments are deducted from the monolithic request/reply message
    /// charges, so a streaming server pays continuation rates for the bulk
    /// data and message rates only for the headers.  Because the server
    /// decides *during* `handle_streamed` whether to stream the request
    /// data, the request message is charged after the handler returns —
    /// only charge ordering changes, never the total.
    ///
    /// # Errors
    ///
    /// [`RpcError::UnknownPort`] if no server is registered on the
    /// request's port.  Server-side failures come back as an error
    /// [`crate::Status`] inside the reply.
    pub fn trans(&self, req: Request) -> Result<Reply, RpcError> {
        let port = req.cap.port;
        let server = self
            .servers
            .read()
            .get(&port)
            .cloned()
            .ok_or(RpcError::UnknownPort(port))?;
        let tracer = self.tracer.read().clone();
        let mut span = tracer.span("rpc.trans");
        span.attr("command", req.command as u64);
        if self.located.read().contains(&port) {
            // cached locate: free
        } else {
            let _locate = tracer.span("rpc.locate");
            self.net.clock().advance(Self::LOCATE_COST);
            self.located.write().insert(port);
        }
        let req_size = req.wire_size();
        let wire = StreamWire::for_dispatch(self.net.clone());
        let reply = server.handle_streamed(req, &wire);
        {
            let mut w = tracer.span("rpc.request_wire");
            let residual = req_size.saturating_sub(wire.request_claimed());
            w.attr("bytes", residual);
            self.net.send(residual);
        }
        {
            let mut w = tracer.span("rpc.reply_wire");
            let residual = reply.wire_size().saturating_sub(wire.reply_streamed());
            w.attr("bytes", residual);
            self.net.send(residual);
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Status;
    use amoeba_cap::Capability;
    use amoeba_sim::{NetProfile, SimClock};
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

    fn setup() -> (SimClock, Arc<Dispatcher>, Capability) {
        let clock = SimClock::new();
        let net = SimEthernet::new(clock.clone(), NetProfile::ethernet_10mbit());
        let d = Dispatcher::new(net);
        let port = Port::from_u64(7);
        d.register(Arc::new(Upper(port)));
        let mut cap = Capability::null();
        cap.port = port;
        (clock, d, cap)
    }

    #[test]
    fn transact_round_trip() {
        let (_clock, d, cap) = setup();
        let reply = d
            .trans(Request {
                cap,
                command: 0,
                params: Bytes::new(),
                data: Bytes::from_static(b"bullet"),
            })
            .unwrap();
        assert_eq!(reply.status, Status::Ok);
        assert_eq!(reply.data, Bytes::from_static(b"BULLET"));
    }

    #[test]
    fn unknown_port_fails() {
        let (_clock, d, _cap) = setup();
        let mut cap = Capability::null();
        cap.port = Port::from_u64(999);
        assert_eq!(
            d.trans(Request::simple(cap, 0)).unwrap_err(),
            RpcError::UnknownPort(Port::from_u64(999))
        );
    }

    #[test]
    fn locate_charged_once() {
        let (clock, d, cap) = setup();
        d.trans(Request::simple(cap, 0)).unwrap();
        let first = clock.now();
        d.trans(Request::simple(cap, 0)).unwrap();
        let second = clock.now() - first;
        assert!(
            second < first,
            "locate should be cached: {second} vs {first}"
        );
        // The difference is exactly the locate cost.
        assert_eq!(first - second, Nanos::from_ms(4));
    }

    #[test]
    fn unregister_breaks_service() {
        let (_clock, d, cap) = setup();
        d.trans(Request::simple(cap, 0)).unwrap();
        d.unregister(cap.port);
        assert!(d.trans(Request::simple(cap, 0)).is_err());
    }

    /// A server that refuses to answer until `n` requests are inside
    /// `handle` at the same instant.  If the dispatcher held any lock
    /// across the server call, the barrier could never fill and the test
    /// would deadlock instead of passing.
    struct Rendezvous(Port, std::sync::Barrier);

    impl RpcServer for Rendezvous {
        fn port(&self) -> Port {
            self.0
        }

        fn handle(&self, _req: Request) -> Reply {
            self.1.wait();
            Reply::ok(Bytes::new(), Bytes::new())
        }
    }

    #[test]
    fn overlapping_transactions_run_concurrently() {
        const CLIENTS: usize = 4;
        let clock = SimClock::new();
        let net = SimEthernet::new(clock, NetProfile::ethernet_10mbit());
        let d = Dispatcher::new(net);
        let port = Port::from_u64(9);
        d.register(Arc::new(Rendezvous(port, std::sync::Barrier::new(CLIENTS))));
        let mut cap = Capability::null();
        cap.port = port;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| s.spawn(|| d.trans(Request::simple(cap, 0)).unwrap()))
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap().status, Status::Ok);
            }
        });
    }

    /// Serves a 200 KB payload in 64 KB streamed segments.
    struct Streamer(Port);

    const STREAM_LEN: usize = 200_000;

    impl RpcServer for Streamer {
        fn port(&self) -> Port {
            self.0
        }

        fn handle(&self, _req: Request) -> Reply {
            Reply::ok(Bytes::new(), Bytes::from(vec![7u8; STREAM_LEN]))
        }

        fn handle_streamed(&self, _req: Request, wire: &StreamWire) -> Reply {
            let data = Bytes::from(vec![7u8; STREAM_LEN]);
            let seg = 64 * 1024;
            let mut off = 0;
            while off < data.len() {
                let end = (off + seg).min(data.len());
                wire.send_reply_segment(off as u64, data.slice(off..end), end == data.len());
                off = end;
            }
            Reply::ok(Bytes::new(), data)
        }
    }

    #[test]
    fn streamed_reply_stays_one_message() {
        let clock = SimClock::new();
        let net = SimEthernet::new(clock.clone(), NetProfile::ethernet_10mbit());
        let d = Dispatcher::new(net);
        let port = Port::from_u64(11);
        d.register(Arc::new(Streamer(port)));
        let mut cap = Capability::null();
        cap.port = port;
        let reply = d.trans(Request::simple(cap, 0)).unwrap();
        assert_eq!(reply.data.len(), STREAM_LEN);
        // Still one request + one reply message; the payload travelled as
        // continuation frames and is not double-charged.
        assert_eq!(d.net().stats().get("net_messages"), 2);
        assert_eq!(d.net().stats().get("net_stream_frames"), 4);
        let payload_and_headers = STREAM_LEN as u64
            + Request::simple(cap, 0).wire_size()
            + Reply::ok(Bytes::new(), Bytes::new()).wire_size();
        assert_eq!(d.net().stats().get("net_bytes"), payload_and_headers);
    }

    #[test]
    fn wire_charged_both_ways() {
        let (_clock, d, cap) = setup();
        d.trans(Request {
            cap,
            command: 0,
            params: Bytes::new(),
            data: Bytes::from_static(b"x"),
        })
        .unwrap();
        assert_eq!(d.net().stats().get("net_messages"), 2);
    }
}
