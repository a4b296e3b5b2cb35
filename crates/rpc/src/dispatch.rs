//! The server trait and the locate-and-transact dispatcher.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use amoeba_cap::Port;
use amoeba_net::SimEthernet;
use amoeba_sim::{Lanes, Nanos, Tracer};

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
    /// Everything a transaction needs to find its server, one replica per
    /// [`Lanes`] lane: `trans` reads its own lane's replica once, so two
    /// clients on different lanes write no line in common.  Every update
    /// goes through [`update`](Self::update), which rewrites all replicas
    /// under all their write guards at once.
    routes: Lanes<RwLock<Routes>>,
}

#[derive(Default)]
struct Routes {
    servers: HashMap<Port, Route>,
    /// Span recorder for the transaction roots (disabled by default).
    tracer: Tracer,
}

struct Route {
    /// This replica's own handle on the shared server: a transaction
    /// clones the outer `Arc`, whose count no other lane touches.
    server: Arc<Arc<dyn RpcServer>>,
    /// Whether a transaction has paid this port's locate broadcast.
    located: bool,
}

impl std::fmt::Debug for Dispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dispatcher")
            .field("servers", &self.routes.first().read().servers.len())
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
            routes: Lanes::default(),
        })
    }

    /// Applies `f` to every lane's replica while holding every replica's
    /// write guard, so no `trans` on any lane sees some replicas updated
    /// and others not.  Guards are taken in lane order, the one order
    /// every writer uses.  Returns lane 0's answer: the replicas are equal
    /// before and after, so every lane answers the same.
    fn update<T>(&self, mut f: impl FnMut(&mut Routes) -> T) -> T {
        let mut guards: Vec<_> = self.routes.iter().map(|r| r.write()).collect();
        let (first, rest) = guards.split_first_mut().expect("at least one lane");
        let answer = f(first);
        for routes in rest {
            f(routes);
        }
        answer
    }

    /// Installs the span tracer.  Each transaction then records an
    /// `rpc.trans` root span covering locate, server handling, and the
    /// residual wire charges — the top of every request's span tree.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.update(|routes| routes.tracer = tracer.clone());
    }

    /// Registers a server under its own port, replacing any previous
    /// holder of that port (clients that had located the port still have).
    pub fn register(&self, server: Arc<dyn RpcServer>) {
        let port = server.port();
        self.update(|routes| {
            let located = routes.servers.get(&port).is_some_and(|r| r.located);
            let server = Arc::new(server.clone());
            routes.servers.insert(port, Route { server, located });
        });
    }

    /// Removes the server at `port` (it "crashes"); subsequent transactions
    /// fail to locate it, and a server registered there later is located
    /// afresh.
    pub fn unregister(&self, port: Port) {
        self.update(|routes| routes.servers.remove(&port));
    }

    /// The shared wire (to reach its statistics and clock).
    pub fn net(&self) -> &SimEthernet {
        &self.net
    }

    /// Marks `port` located; true for the one caller that found it not.
    fn claim_locate(&self, port: Port) -> bool {
        self.update(|routes| {
            let route = routes.servers.get_mut(&port);
            route.is_some_and(|r| !std::mem::replace(&mut r.located, true))
        })
    }

    /// Performs one transaction.
    ///
    /// `trans` may be called from any number of client threads at once:
    /// the server handle is cloned out of the caller's lane of the
    /// registry *before* [`RpcServer::handle`] runs, so no dispatcher lock
    /// is held while the server computes and overlapping requests proceed
    /// in parallel.  Any serialization that remains is the server's own
    /// (e.g. the Bullet server's per-component locks).
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
        let (server, located, tracer) = {
            let routes = self.routes.mine().read();
            let route = routes
                .servers
                .get(&port)
                .ok_or(RpcError::UnknownPort(port))?;
            (route.server.clone(), route.located, routes.tracer.clone())
        };
        let mut span = tracer.span("rpc.trans");
        span.attr("command", req.command as u64);
        // Of the transactions that find a port unlocated, the one that
        // flips the flag pays the broadcast; the decision is made under
        // every lane's write guard so that racing first transactions pay
        // it once.
        if !located && self.claim_locate(port) {
            let _locate = tracer.span("rpc.locate");
            self.net.clock().advance(Self::LOCATE_COST);
        }
        let req_size = req.wire_size();
        let wire = StreamWire::lent(&self.net);
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
    fn racing_first_transactions_pay_the_locate_once() {
        const CLIENTS: usize = 4;
        const TRIALS: usize = 2000;
        // What four located transactions cost on the wire.
        let (clock, warm, cap) = setup();
        warm.trans(Request::simple(cap, 0)).unwrap();
        let located = clock.now();
        for _ in 0..CLIENTS {
            warm.trans(Request::simple(cap, 0)).unwrap();
        }
        let expected = Dispatcher::LOCATE_COST + (clock.now() - located);

        let fresh: Vec<_> = (0..TRIALS).map(|_| setup()).collect();
        let start = std::sync::Barrier::new(CLIENTS);
        std::thread::scope(|s| {
            for _ in 0..CLIENTS {
                s.spawn(|| {
                    for (_, d, cap) in &fresh {
                        start.wait();
                        d.trans(Request::simple(*cap, 0)).unwrap();
                    }
                });
            }
        });
        for (trial, (clock, ..)) in fresh.iter().enumerate() {
            assert_eq!(clock.now(), expected, "trial {trial}");
        }
    }

    #[test]
    fn a_port_is_located_again_after_unregister_but_not_after_replacement() {
        let (clock, d, cap) = setup();
        let trans = || {
            let before = clock.now();
            d.trans(Request::simple(cap, 0)).unwrap();
            clock.now() - before
        };
        let first = trans();
        let located = trans();
        assert_eq!(first - located, Dispatcher::LOCATE_COST);
        d.register(Arc::new(Upper(cap.port)));
        assert_eq!(trans(), located, "a replacing register keeps the locate");
        d.unregister(cap.port);
        d.register(Arc::new(Upper(cap.port)));
        assert_eq!(trans(), first, "a re-registered port is located afresh");
        assert_eq!(trans(), located);
    }

    /// Answers every request with its tag.
    struct Tagged(Port, &'static [u8]);

    impl RpcServer for Tagged {
        fn port(&self) -> Port {
            self.0
        }

        fn handle(&self, _req: Request) -> Reply {
            Reply::ok(Bytes::new(), Bytes::from_static(self.1))
        }
    }

    #[test]
    fn updates_are_seen_on_every_lane_when_the_call_returns() {
        let (clock, d, cap) = setup();
        d.register(Arc::new(Tagged(cap.port, b"old")));
        let threads = d.routes.iter().len() + 1;
        let phase = std::sync::Barrier::new(threads + 1);
        let tracer = Tracer::on(clock);
        let answer = || d.trans(Request::simple(cap, 0)).map(|r| r.data);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    assert_eq!(answer().unwrap(), &b"old"[..]);
                    phase.wait(); // main: replace the server
                    phase.wait();
                    assert_eq!(answer().unwrap(), &b"new"[..]);
                    phase.wait(); // main: install the tracer
                    phase.wait();
                    answer().unwrap();
                    phase.wait(); // main: unregister
                    phase.wait();
                    assert_eq!(answer(), Err(RpcError::UnknownPort(cap.port)));
                });
            }
            // Each step is checked on every replica as soon as the call
            // returns, and then by a transaction on every client's lane.
            let every_lane = |check: &dyn Fn(&Routes) -> bool| {
                assert!(d.routes.iter().all(|r| check(&r.read())));
            };
            phase.wait();
            d.register(Arc::new(Tagged(cap.port, b"new")));
            every_lane(&|r| {
                r.servers[&cap.port]
                    .server
                    .handle(Request::simple(cap, 0))
                    .data
                    == b"new"[..]
            });
            every_lane(&|r| r.servers[&cap.port].located);
            phase.wait();
            phase.wait();
            d.set_tracer(tracer.clone());
            every_lane(&|r| r.tracer.enabled());
            phase.wait();
            phase.wait();
            d.unregister(cap.port);
            every_lane(&|r| r.servers.is_empty());
            phase.wait();
        });
        let traced = tracer.snapshot();
        assert_eq!(
            traced.iter().filter(|s| s.name == "rpc.trans").count(),
            threads,
            "every lane's transactions carried the new tracer"
        );
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
