//! The benchmark harness: everything needed to regenerate the paper's
//! tables and figures.
//!
//! * [`rig`] — assembled simulation stacks: a Bullet server on two
//!   latency-modelled mirrored disks behind the simulated Ethernet, and
//!   the NFS-like baseline on one disk behind the same Ethernet; and
//!   [`rig::Makespan`], which settles client lanes against spindles
//!   (ABL10, ABL18).
//! * [`workload`] — the file-size distribution from the literature the
//!   paper cites (median 1 KB, 99 % under 64 KB), an operation-mix
//!   generator (75 % whole-file reads), and the Zipf popularity-skew
//!   small-file storm behind the group-commit ablation (ABL15).
//! * [`ablation`] — the one harness behind every deterministic
//!   experiment: the outcome shape each experiment's function returns,
//!   the replay-twice runner, and the registry `report` runs by name or
//!   whole to regenerate `results/`.
//! * [`table`] — measurement loops and the delay/bandwidth table
//!   formatting behind Figs. 2–3, plus the §4 claims (C1–C4) as criteria.
//! * [`paper`] — the paper's own evaluation: Figs. 1–3, the comparison
//!   (CMP), and the mixed-workload macro-benchmark (MIX).
//! * [`sweeps`] — the single-table ablations ABL1–11.
//! * [`tracebench`] — the span-tracing decomposition (ABL12).
//! * [`faults`] — the seeded fault-injection campaigns (ABL13):
//!   mirrored-disk failure, crash-recovery, and lossy-wire soak, each a
//!   deterministic function of its seed with an invariant checklist.
//! * [`schedbench`] — the seek-aware disk-scheduler ablation (ABL14):
//!   an 8-client closed-loop mixed workload over the deterministic
//!   virtual-time arm simulation, comparing FIFO/SCAN/SPTF, plus the
//!   coalescing on/off knee on sequential creates.
//! * [`groupcommit`] — the group-commit create storms (ABL15): 32
//!   concurrent creates on an aged mirrored pair, per-file vs batched
//!   through the log.
//! * [`evsim`] — the virtual-time event-engine cache ablation (ABL16):
//!   10k+ simulated clients over ~1M files on one [`amoeba_sim::EventQueue`],
//!   squeezing the real `FileCache` through LRU/FIFO/SegmentedLRU/2Q
//!   under Zipf and scan-injection workloads.
//! * [`shardbench`] — the sharded-service ablation (ABL18): aggregate
//!   read bandwidth scaling across 1–8 shards behind the
//!   [`amoeba_rpc::ShardRouter`], live-byte preservation under
//!   rebalancing, and the kill-one-shard degraded-service cell.
//! * [`tierbench`] — the tiered-storage ablation (ABL19): an aged Zipf
//!   population demoted to the WORM archive by the ranked maintenance
//!   scheduler, byte-identical demotion/recall, and the hot-set p99
//!   interference gate against an archive-less baseline.
//!
//! The one binary is `report`, which runs any entry of
//! [`ablation::REGISTRY`] by name (see DESIGN.md's experiment index).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod evsim;
pub mod faults;
pub mod groupcommit;
pub mod monitor;
pub mod paper;
pub mod rig;
pub mod schedbench;
pub mod shardbench;
pub mod sweeps;
pub mod table;
pub mod tierbench;
pub mod tracebench;
pub mod workload;

pub use ablation::{Invariant, Outcome, Scale};
pub use evsim::{EvsimConfig, EvsimOutcome, EvsimRun};
pub use faults::{CampaignOutcome, FaultClass};
pub use rig::{BulletRig, NfsRig, SchedSummary};
pub use schedbench::{KneeRow, MixedRun, PolicyOutcome};
pub use shardbench::ShardOutcome;
pub use table::{bandwidth_kb_s, Claims, Row, SIZES};
pub use tierbench::{TierConfig, TierOutcome};
pub use workload::{small_file_storm, SizeDistribution, WorkloadMix, WorkloadOp, ZipfSampler};
