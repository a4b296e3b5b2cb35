//! Deterministic simulation substrate for the Bullet reproduction.
//!
//! The paper measured a 16.7 MHz MC68020 file server on a 10 Mbit/s
//! Ethernet with two 800 MB SCSI drives — hardware we cannot run.  Instead,
//! every substrate in this workspace (disk, network, RPC, servers) charges
//! the *work it would have done on that hardware* to a shared
//! [`SimClock`], using the cost constants in an [`HwProfile`].  Benchmarks
//! then read delays and bandwidths off the clock in deterministic simulated
//! milliseconds, reproducing the *structure* of the paper's tables (fixed
//! overhead vs per-byte terms, who wins, where crossovers fall) without
//! pretending to reproduce 1989 absolute numbers on 2026 silicon.
//!
//! The crate also provides:
//!
//! * [`DetRng`] — a tiny deterministic xorshift RNG so simulations are
//!   reproducible independent of external crate versions,
//! * [`EventQueue`] — a deterministic virtual-time discrete-event queue
//!   (binary heap, FIFO among equal timestamps) that lets one real thread
//!   drive tens of thousands of simulated clients (see [`event`]),
//! * [`Stats`] — cheap named counters every component exports,
//! * [`Lanes`] and [`LaneCounter`] — per-thread lanes under `Stats` and
//!   [`SimClock`], so threads on different lanes share no written word,
//! * [`json::Json`] — the workspace's one JSON writer, and [`json::valid`],
//! * [`Histogram`] — a power-of-two latency histogram for the harness,
//! * [`Tracer`] — simulated-clock span tracing over the whole data path,
//!   with JSONL and Chrome-trace exporters (see [`trace`]),
//! * [`Telemetry`] — fixed-capacity ring-buffer time series (gauges and
//!   counter deltas) on the simulated clock, with an SLO watchdog and
//!   flight-recorder exporters (see [`timeseries`]).
//!
//! # Example
//!
//! ```
//! use amoeba_sim::{Nanos, SimClock};
//!
//! let clock = SimClock::new();
//! clock.advance(Nanos::from_ms(3));
//! clock.advance(Nanos::from_us(500));
//! assert_eq!(clock.now().as_us(), 3_500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod hw;
pub mod json;
pub mod lane;
pub mod pipeline;
pub mod rng;
pub mod stats;
pub mod timeseries;
pub mod trace;

pub use clock::{capture, commit_max, ChargeLog, Nanos, SimClock};
pub use event::EventQueue;
pub use hw::{CpuProfile, DiskProfile, HwProfile, NetProfile};
pub use lane::{LaneCounter, Lanes};
pub use pipeline::Pipeline;
pub use rng::DetRng;
pub use stats::{exact_quantile, Histogram, Stats};
pub use timeseries::{Sample, SeriesKind, SloEvent, SloKind, Telemetry};
pub use trace::{AttrValue, SpanGuard, SpanRecord, Tracer};
