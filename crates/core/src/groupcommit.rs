//! The group committer: batches concurrent CREATE payloads for one
//! sequential log append.
//!
//! Concurrent creates submit their payloads here; the first submitter of
//! a quiet period becomes the *leader*, lingers briefly so stragglers can
//! join, then drains the queue in cap-bounded batches and commits each
//! batch through the server's log-append path (one seek amortized over
//! the whole batch).  Followers block on a per-entry slot until the
//! leader distributes their result.  While a leader is committing, new
//! submitters keep enqueueing — the leader loops until the queue is dry,
//! so a create storm naturally coalesces into a few large records even
//! without the linger.
//!
//! This module is pure coordination: the actual commit — allocation,
//! table publish, checksummed record append, cache insert — is the
//! closure the server passes to [`GroupCommitter::submit`], which also
//! charges the simulated linger window.  Batch *composition* under real
//! threads depends on scheduling; the deterministic ablation path
//! (`BulletServer::create_batch`) bypasses this queue and cuts its
//! argument list with the same rule, [`BatchCaps::take`].

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use bytes::Bytes;

use amoeba_cap::Capability;

use crate::BulletError;

/// Byte/count caps bounding one committed batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchCaps {
    /// Maximum files per record.
    pub max_files: usize,
    /// Maximum total payload bytes per record.
    pub max_bytes: u64,
    /// How long a lone leader waits (host time) for stragglers before
    /// flushing.  The *simulated* linger is charged by the commit closure.
    pub linger: Duration,
}

impl BatchCaps {
    /// The one batch rule: how many of the queued payload `sizes`, in
    /// order, the next batch takes — at most `max_files` files and
    /// `max_bytes` bytes, but always the first file, however big.
    pub fn take(&self, sizes: impl IntoIterator<Item = u64>) -> usize {
        let (mut take, mut bytes) = (0, 0u64);
        for size in sizes {
            if take == self.max_files.max(1) || (take > 0 && bytes + size > self.max_bytes) {
                break;
            }
            bytes += size;
            take += 1;
        }
        take
    }
}

/// One waiter's result slot.
struct Slot {
    result: Mutex<Option<Result<Capability, BulletError>>>,
    cv: Condvar,
}

impl Slot {
    fn deliver(&self, r: Result<Capability, BulletError>) {
        *self
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
        self.cv.notify_one();
    }

    fn wait(&self) -> Result<Capability, BulletError> {
        let mut guard = self
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = self
                .cv
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

struct Pending {
    data: Bytes,
    slot: Arc<Slot>,
}

#[derive(Default)]
struct Queue {
    pending: Vec<Pending>,
    leader_active: bool,
}

/// The shared submit queue (see the module docs).
#[derive(Default)]
pub struct GroupCommitter {
    queue: Mutex<Queue>,
}

impl GroupCommitter {
    /// A fresh, empty committer.
    pub fn new() -> GroupCommitter {
        GroupCommitter::default()
    }

    /// Submits one payload and blocks until a leader commits it.
    ///
    /// `commit` receives a cap-bounded batch (this payload is in exactly
    /// one of the batches committed during the call) and returns one
    /// result per file, in order.
    ///
    /// # Errors
    ///
    /// Whatever the commit closure reports for this payload.
    pub fn submit(
        &self,
        data: Bytes,
        caps: BatchCaps,
        commit: impl Fn(Vec<Bytes>) -> Vec<Result<Capability, BulletError>>,
    ) -> Result<Capability, BulletError> {
        let slot = Arc::new(Slot {
            result: Mutex::new(None),
            cv: Condvar::new(),
        });
        let (lead, lone) = {
            let mut q = self
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            q.pending.push(Pending {
                data,
                slot: Arc::clone(&slot),
            });
            let lone = q.pending.len() == 1;
            if q.leader_active {
                (false, lone)
            } else {
                q.leader_active = true;
                (true, lone)
            }
        };
        if lead {
            // Only a lone leader lingers (outside the queue lock, so
            // stragglers can join): with company already queued the batch
            // exists, flush immediately.
            if lone && !caps.linger.is_zero() {
                std::thread::sleep(caps.linger);
            }
            self.drain(caps, &commit);
        }
        slot.wait()
    }

    /// Leader duty: commit cap-bounded batches until the queue is dry.
    fn drain(
        &self,
        caps: BatchCaps,
        commit: &impl Fn(Vec<Bytes>) -> Vec<Result<Capability, BulletError>>,
    ) {
        loop {
            let batch: Vec<Pending> = {
                let mut q = self
                    .queue
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if q.pending.is_empty() {
                    q.leader_active = false;
                    return;
                }
                let take = caps.take(q.pending.iter().map(|p| p.data.len() as u64));
                q.pending.drain(..take).collect()
            };
            let results = commit(batch.iter().map(|p| p.data.clone()).collect());
            debug_assert_eq!(results.len(), batch.len(), "one result per file");
            for (p, r) in batch.into_iter().zip(results) {
                p.slot.deliver(r);
            }
        }
    }
}

impl std::fmt::Debug for GroupCommitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitter").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gclog, BulletServer};
    use amoeba_cap::{ObjNum, Port, Rights};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn caps(max_files: usize, max_bytes: u64) -> BatchCaps {
        BatchCaps {
            max_files,
            max_bytes,
            linger: Duration::from_micros(300),
        }
    }

    fn fake_cap(n: u32) -> Capability {
        Capability {
            port: Port::from_u64(1),
            object: ObjNum::new(n).unwrap(),
            rights: Rights::ALL,
            check: 0,
        }
    }

    #[test]
    fn single_submit_commits_a_batch_of_one() {
        let gc = GroupCommitter::new();
        let flushes = AtomicUsize::new(0);
        let got = gc
            .submit(Bytes::from_static(b"hello"), caps(8, 1 << 20), |batch| {
                flushes.fetch_add(1, Ordering::SeqCst);
                assert_eq!(batch.len(), 1);
                vec![Ok(fake_cap(7))]
            })
            .unwrap();
        assert_eq!(got.object.value(), 7);
        assert_eq!(flushes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_submits_coalesce_into_few_flushes() {
        let gc = Arc::new(GroupCommitter::new());
        let flushes = Arc::new(AtomicUsize::new(0));
        let next = Arc::new(AtomicUsize::new(0));
        let n = 16;
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let gc = Arc::clone(&gc);
                let flushes = Arc::clone(&flushes);
                let next = Arc::clone(&next);
                std::thread::spawn(move || {
                    gc.submit(Bytes::from_static(b"x"), caps(32, 1 << 20), |batch| {
                        flushes.fetch_add(1, Ordering::SeqCst);
                        batch
                            .iter()
                            .map(|_| Ok(fake_cap(next.fetch_add(1, Ordering::SeqCst) as u32 + 1)))
                            .collect()
                    })
                    .unwrap()
                })
            })
            .collect();
        let mut objs: Vec<u32> = handles
            .into_iter()
            .map(|h| h.join().unwrap().object.value())
            .collect();
        objs.sort_unstable();
        objs.dedup();
        assert_eq!(objs.len(), n, "every waiter got a distinct result");
        // Scheduling-dependent, but never worse than one flush per file.
        assert!(flushes.load(Ordering::SeqCst) <= n);
    }

    #[test]
    fn caps_split_oversized_queues() {
        // The rule itself, on the edge cases: `(caps, queued sizes, taken)`.
        let clamped = BulletServer::LOG_BATCH_MAX_FILES.min(gclog::max_entries(64));
        for (caps, sizes, taken) in [
            // A first file over the byte cap goes alone, never not at all.
            (caps(4, 100), vec![150, 10], 1),
            (caps(4, 100), vec![60, 40, 1], 2),
            // Exactly `max_files`, and one more.
            (caps(4, 1 << 20), vec![1; 4], 4),
            (caps(4, 1 << 20), vec![1; 5], 4),
            // A 64-byte header block names two files.
            (caps(clamped, 1 << 20), vec![1; 3], 2),
            // Zero-length files cost no bytes, only their file slot.
            (caps(4, 0), vec![0; 6], 4),
            (caps(4, 100), vec![0, 100, 0, 1], 3),
        ] {
            assert_eq!(caps.take(sizes.iter().copied()), taken, "{sizes:?}");
        }
        assert_eq!(clamped, 2);

        // The committer applies it to a queue racing in from threads.
        let gc = Arc::new(GroupCommitter::new());
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let n = 9;
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let gc = Arc::clone(&gc);
                let sizes = Arc::clone(&sizes);
                std::thread::spawn(move || {
                    gc.submit(Bytes::from(vec![0u8; 100]), caps(4, 1 << 20), |batch| {
                        sizes.lock().unwrap().push(batch.len());
                        batch.iter().map(|_| Ok(fake_cap(1))).collect()
                    })
                    .unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(sizes.lock().unwrap().iter().all(|&s| s <= 4));
    }

    #[test]
    fn errors_reach_their_submitters() {
        let gc = GroupCommitter::new();
        let err = gc.submit(Bytes::from_static(b"x"), caps(8, 1 << 20), |batch| {
            batch.iter().map(|_| Err(BulletError::NoSpace)).collect()
        });
        assert_eq!(err.unwrap_err(), BulletError::NoSpace);
    }
}
