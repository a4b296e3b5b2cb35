//! Sharded routing: one service port, N independent server instances.
//!
//! Amoeba ports are location-independent, so nothing stops several Bullet
//! servers from answering the *same* service port — what distinguishes
//! them is which object numbers each owns.  A [`ShardRouter`] sits where
//! a single server used to be registered on the [`Dispatcher`](crate::Dispatcher)
//! and fans requests out:
//!
//! * object capabilities route by [`amoeba_cap::shard_of`] — a pure hash
//!   of the 24-bit object number, so routing needs no per-object state
//!   and any capability holder can compute where its file lives;
//! * service capabilities (object number 0: `CREATE`, `STD_STATUS`, …)
//!   round-robin across the shards that are up, spreading new files;
//! * objects moved by a rebalance are pinned to their new shard through
//!   a small override map consulted before the hash;
//! * a shard marked down fails its operations with the distinct
//!   [`Status::ShardDown`] while the other N−1 keep serving, and a
//!   `MONITOR` request on the service capability aggregates every
//!   shard's counter snapshot into one per-shard document.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use amoeba_cap::{shard_of, Port};
use amoeba_sim::json::Json;
use amoeba_sim::Stats;
use bytes::Bytes;
use parking_lot::RwLock;

use crate::wire::std_commands;
use crate::{Reply, Request, RpcServer, Status, StreamWire};

/// Counter: requests the router delivered to a shard.
pub const SHARD_ROUTED_OPS: &str = "shard_routed_ops";
/// Counter: requests refused because the owning shard was down.
pub const SHARD_DEGRADED_OPS: &str = "shard_degraded_ops";

/// A routing front for N same-port shard servers (see the module docs).
pub struct ShardRouter {
    port: Port,
    shards: Vec<Arc<dyn RpcServer>>,
    down: Vec<AtomicBool>,
    routed: Vec<AtomicU64>,
    degraded: Vec<AtomicU64>,
    overrides: RwLock<HashMap<u32, u32>>,
    next: AtomicUsize,
    stats: Stats,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("port", &self.port)
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardRouter {
    /// Builds a router over `shards`.  Every shard must answer the same
    /// service port (that shared port is what the router registers under).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the ports disagree — both are
    /// assembly-time configuration errors, not runtime conditions.
    pub fn new(shards: Vec<Arc<dyn RpcServer>>) -> ShardRouter {
        assert!(!shards.is_empty(), "a router needs at least one shard");
        let port = shards[0].port();
        for s in &shards {
            assert_eq!(s.port(), port, "all shards must share the service port");
        }
        let n = shards.len();
        ShardRouter {
            port,
            shards,
            down: (0..n).map(|_| AtomicBool::new(false)).collect(),
            routed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            degraded: (0..n).map(|_| AtomicU64::new(0)).collect(),
            overrides: RwLock::new(HashMap::new()),
            next: AtomicUsize::new(0),
            stats: Stats::new(),
        }
    }

    /// Number of shards behind the router.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Marks shard `i` down (true) or back up (false).  Down shards fail
    /// their operations with [`Status::ShardDown`]; the rest keep serving.
    pub fn set_down(&self, i: usize, down: bool) {
        self.down[i].store(down, Ordering::Release);
    }

    /// Whether shard `i` is currently marked down.
    pub fn is_down(&self, i: usize) -> bool {
        self.down[i].load(Ordering::Acquire)
    }

    /// Pins `object` to `shard`, overriding the hash — the rebalancer's
    /// hook after moving an extent.  The map is routing state in RAM: a
    /// router restart reverts to pure hash routing (see DESIGN.md §15.3).
    pub fn reroute(&self, object: u32, shard: u32) {
        assert!((shard as usize) < self.shards.len(), "no such shard");
        self.overrides.write().insert(object, shard);
    }

    /// Drops the pin for `object`, reverting it to hash routing.
    pub fn clear_reroute(&self, object: u32) {
        self.overrides.write().remove(&object);
    }

    /// Where `object` routes today: the override if pinned, else the hash.
    pub fn route_of(&self, object: u32) -> u32 {
        if let Some(&s) = self.overrides.read().get(&object) {
            return s;
        }
        shard_of(object, self.shards.len() as u32)
    }

    /// Aggregate router counters ([`SHARD_ROUTED_OPS`] / [`SHARD_DEGRADED_OPS`]).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Requests delivered to shard `i`.
    pub fn routed(&self, i: usize) -> u64 {
        self.routed[i].load(Ordering::Relaxed)
    }

    /// Requests refused because shard `i` was down.
    pub fn degraded(&self, i: usize) -> u64 {
        self.degraded[i].load(Ordering::Relaxed)
    }

    fn record(&self, shard: usize, delivered: bool) {
        if delivered {
            self.stats.incr(SHARD_ROUTED_OPS);
            self.routed[shard].fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.incr(SHARD_DEGRADED_OPS);
            self.degraded[shard].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Picks the shard for `req`: the object hash (or pin) for object
    /// capabilities, the round-robin choice among up shards for service
    /// capabilities.  `None` when a service request finds every shard down.
    fn pick(&self, req: &Request) -> Option<usize> {
        let obj = req.cap.object.value();
        if obj != 0 {
            return Some(self.route_of(obj) as usize);
        }
        let n = self.shards.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        (0..n).map(|k| (start + k) % n).find(|&i| !self.is_down(i))
    }

    /// Aggregates every shard's `MONITOR` snapshot into one document:
    /// `{"shard_monitor_schema":1,"shards":[…]}` where each element is the
    /// shard's own snapshot, or `{"down":true}` for a dead shard, plus the
    /// router's per-shard routed/refused totals.
    fn monitor_aggregate(&self, req: &Request) -> Reply {
        let shards = 0..self.shards.len();
        // The totals as they stood before this request's own fan-out.
        let routed = Json::array(shards.clone().map(|i| Json::num(self.routed(i))));
        let degraded = Json::array(shards.clone().map(|i| Json::num(self.degraded(i))));
        let snapshots = shards.map(|i| {
            if self.is_down(i) {
                return Json::object([("down", Json::num(true))]);
            }
            self.record(i, true);
            let reply = self.shards[i].handle(req.clone());
            if reply.status.is_ok() && !reply.data.is_empty() {
                // The shard's snapshot is already JSON; embed it verbatim.
                Json::Raw(String::from_utf8_lossy(&reply.data).into_owned())
            } else {
                Json::object([("down", Json::num(false))])
            }
        });
        let doc = Json::object([
            ("shard_monitor_schema", Json::num(1)),
            ("shard_count", Json::num(self.shards.len())),
            ("routed", routed),
            ("degraded", degraded),
            ("shards", Json::array(snapshots)),
        ]);
        Reply::ok(Bytes::new(), Bytes::from(doc.compact()))
    }

    /// Both [`RpcServer`] entry points: `wire` is the transport's stream
    /// wire when it offers one.
    fn route(&self, req: Request, wire: Option<&StreamWire>) -> Reply {
        if req.cap.object.value() == 0 && req.command == std_commands::MONITOR {
            return self.monitor_aggregate(&req);
        }
        // `None` is every shard down: shard 0 takes the refusal, so the
        // accounting still names a shard.
        let shard = self.pick(&req).unwrap_or(0);
        if self.is_down(shard) {
            self.record(shard, false);
            return Reply::error(Status::ShardDown);
        }
        self.record(shard, true);
        match wire {
            Some(wire) => self.shards[shard].handle_streamed(req, wire),
            None => self.shards[shard].handle(req),
        }
    }
}

impl RpcServer for ShardRouter {
    fn port(&self) -> Port {
        self.port
    }

    fn handle(&self, req: Request) -> Reply {
        self.route(req, None)
    }

    fn handle_streamed(&self, req: Request, wire: &StreamWire) -> Reply {
        self.route(req, Some(wire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::{Capability, ObjNum};

    /// Replies with its shard id so tests can observe routing.
    struct Tagged(Port, u8);

    impl RpcServer for Tagged {
        fn port(&self) -> Port {
            self.0
        }

        fn handle(&self, _req: Request) -> Reply {
            Reply::ok(Bytes::new(), Bytes::from(vec![self.1]))
        }
    }

    fn router(n: u8) -> ShardRouter {
        let port = Port::from_u64(0xb1e7);
        ShardRouter::new(
            (0..n)
                .map(|i| Arc::new(Tagged(port, i)) as Arc<dyn RpcServer>)
                .collect(),
        )
    }

    fn req_for(obj: u32) -> Request {
        let mut cap = Capability::null();
        cap.port = Port::from_u64(0xb1e7);
        cap.object = ObjNum::new(obj).expect("fits");
        Request::simple(cap, 2)
    }

    #[test]
    fn object_requests_follow_the_hash() {
        let r = router(4);
        for obj in 1..64 {
            let reply = r.handle(req_for(obj));
            assert_eq!(reply.data[0] as u32, shard_of(obj, 4), "object {obj}");
        }
        assert_eq!(r.stats().get(SHARD_ROUTED_OPS), 63);
    }

    #[test]
    fn service_requests_round_robin_over_up_shards() {
        let r = router(3);
        r.set_down(1, true);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..6 {
            seen.insert(r.handle(req_for(0)).data[0]);
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn down_shard_fails_distinctly_while_others_serve() {
        let r = router(4);
        let victim = shard_of(7, 4) as usize;
        r.set_down(victim, true);
        assert_eq!(r.handle(req_for(7)).status, Status::ShardDown);
        // An object on any other shard still serves.
        let other = (1..64)
            .find(|&o| shard_of(o, 4) as usize != victim)
            .expect("some object maps elsewhere");
        assert!(r.handle(req_for(other)).status.is_ok());
        assert_eq!(r.degraded(victim), 1);
        assert_eq!(r.stats().get(SHARD_DEGRADED_OPS), 1);
    }

    #[test]
    fn reroute_overrides_the_hash_until_cleared() {
        let r = router(4);
        let obj = 9;
        let home = shard_of(obj, 4);
        let target = (home + 1) % 4;
        r.reroute(obj, target);
        assert_eq!(r.handle(req_for(obj)).data[0] as u32, target);
        r.clear_reroute(obj);
        assert_eq!(r.handle(req_for(obj)).data[0] as u32, home);
    }

    #[test]
    fn all_shards_down_refuses_service_requests() {
        let r = router(2);
        r.set_down(0, true);
        r.set_down(1, true);
        assert_eq!(r.handle(req_for(0)).status, Status::ShardDown);
    }
}
