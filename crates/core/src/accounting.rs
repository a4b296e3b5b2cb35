//! Per-client resource accounting keyed by the RPC transaction tag.
//!
//! The at-most-once layer stamps every request with a `(client, seq)`
//! transaction id.  A [`ClientAccounting`] table charges resource use —
//! bytes read, physical I/Os, cache hits/misses, retries — to the
//! *client* half of that tag and ranks the heaviest clients.  The
//! event-driven rig (`bullet_bench::evsim`) bills its simulated clients
//! through it for the ABL17 flight-recorder experiment.
//!
//! Like [`amoeba_sim::Telemetry`], accounting follows the zero-cost-
//! when-disabled contract: the handle is an `Option<Arc<..>>`, and a
//! disabled handle never allocates, locks, or touches shared state.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// Resource totals charged to one client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientUsage {
    /// Requests dispatched for this client (all op classes).
    pub requests: u64,
    /// Payload bytes returned by reads and section reads.
    pub bytes_read: u64,
    /// Physical disk I/Os this client's requests triggered (cold loads,
    /// create write-throughs counted once per replica set).
    pub disk_ios: u64,
    /// Whole-file cache lookups that hit.
    pub cache_hits: u64,
    /// Whole-file cache lookups that missed.
    pub cache_misses: u64,
    /// Duplicate transactions absorbed by the at-most-once dedup window
    /// (a high count means the client's RPC layer is retrying hard).
    pub retries: u64,
}

impl ClientUsage {
    /// A single scalar for ranking offenders: the bytes read plus a
    /// fixed charge per request and a heavy charge per physical I/O
    /// (disk time is the scarce resource in the Bullet design).
    pub fn cost(&self) -> u64 {
        self.bytes_read + self.requests * 512 + self.disk_ios * 65_536
    }
}

/// A shared per-client usage table (cheap to clone, `off()` by default).
#[derive(Debug, Clone, Default)]
pub struct ClientAccounting {
    inner: Option<Arc<Mutex<HashMap<u64, ClientUsage>>>>,
}

impl ClientAccounting {
    /// A disabled handle: every charge is a no-op.
    pub fn off() -> ClientAccounting {
        ClientAccounting { inner: None }
    }

    /// An enabled, empty table.
    pub fn on() -> ClientAccounting {
        ClientAccounting {
            inner: Some(Arc::new(Mutex::new(HashMap::new()))),
        }
    }

    /// Applies `f` to the usage row of an explicit client.
    pub fn charge(&self, client: u64, f: impl FnOnce(&mut ClientUsage)) {
        if let Some(inner) = &self.inner {
            f(inner.lock().entry(client).or_default());
        }
    }

    /// Number of distinct clients with charges.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.lock().len())
    }

    /// True if no charges have been recorded (or accounting is off).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` clients with the highest [`ClientUsage::cost`], ties
    /// broken by client id (deterministic for byte-compared reports).
    pub fn top_k(&self, k: usize) -> Vec<(u64, ClientUsage)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut rows: Vec<(u64, ClientUsage)> =
            inner.lock().iter().map(|(c, u)| (*c, *u)).collect();
        rows.sort_by(|a, b| b.1.cost().cmp(&a.1.cost()).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_charges_nothing() {
        let acct = ClientAccounting::off();
        acct.charge(7, |u| u.requests += 1);
        assert!(acct.is_empty());
        assert!(acct.top_k(10).is_empty());
    }

    #[test]
    fn top_k_ranks_by_cost_with_stable_ties() {
        let acct = ClientAccounting::on();
        acct.charge(10, |u| u.disk_ios += 4); // heavy: 4 * 65536
        acct.charge(11, |u| u.bytes_read += 1_000);
        acct.charge(12, |u| u.bytes_read += 1_000); // tie with 11 → id order
        acct.charge(13, |u| u.requests += 1);
        let top = acct.top_k(3);
        assert_eq!(
            top.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
            vec![10, 11, 12]
        );
        assert_eq!(acct.top_k(0), Vec::new());
    }
}
