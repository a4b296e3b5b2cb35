//! ABL17 rig — the flight recorder and SLO watchdog at event-engine
//! scale.
//!
//! Three runs of one evsim cell, identical but for the instrumentation:
//!
//! 1. **bare** — telemetry off, the reference timeline;
//! 2. **clean** — flight recorder on.  Sampling never advances virtual
//!    time, so this run's FNV-1a timeline digest must equal the bare
//!    run's — the recorder is provably free in virtual time (0 % ≤ the
//!    committed 2 % throughput budget), and the rings fill with the
//!    healthy baseline the SLO ceilings are derived from;
//! 3. **burst** — recorder on, watchdog armed, and a mid-run
//!    [`FaultBurst`]: a lossy wire (one request in
//!    [`BURST_DROP_DENOM`] loses its packet) plus one failed mirror
//!    replica whose reads pile onto its neighbour.  Per-client
//!    accounting is on, so the top-K offender table names who paid.
//!
//! The watchdog watches two committed SLOs:
//!
//! * `lossy_wire` — the [`GAUGE_EVSIM_RETRIES`] delta series with a
//!   ceiling of 0: any retransmission inside a sampling period is a
//!   degradation;
//! * `disk_backlog` — [`GAUGE_EVSIM_DISK_BACKLOG_US`] with the ceiling
//!   set to the worst per-disk backlog the clean run ever sampled, so
//!   the failover pile-up is judged against measured healthy behaviour,
//!   not a guessed constant.
//!
//! [`outcome_table`] renders everything deterministic about the triple —
//! digests, reads, hit rates, retries, failovers, ring population, SLO
//! event counts, detection lag, and the top-K offenders — so
//! [`ablation`] can be run twice and the bytes demanded back identical.

use amoeba_sim::json::Json;
use amoeba_sim::{Nanos, SloKind, Telemetry};
use bullet_core::accounting::ClientAccounting;
use bullet_core::counters::{GAUGE_EVSIM_DISK_BACKLOG_US, GAUGE_EVSIM_RETRIES};

use crate::ablation::{Invariant, Outcome, Scale, Trailer};
use crate::evsim::{self, EvsimConfig, EvsimOutcome, FaultBurst};

/// One lost packet per this many requests inside the burst window.
pub const BURST_DROP_DENOM: u64 = 3;
/// Retransmission penalty per lost packet.
pub const BURST_RETRY_DELAY_MS: u64 = 5;
/// The disk whose mirror replica fails inside the window.
pub const BURST_FAILED_DISK: usize = 3;
/// Offenders listed in the accounting table.
pub const TOP_K: usize = 5;

/// One ABL17 cell: the evsim base configuration plus the recorder
/// cadence and the fault window.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// The cell all three runs share (telemetry/fault/accounting fields
    /// are overridden per run).
    pub base: EvsimConfig,
    /// Flight-recorder sampling period (virtual time).
    pub period: Nanos,
    /// Ring capacity per series.
    pub capacity: usize,
    /// Virtual time the fault burst opens.
    pub burst_start: Nanos,
    /// Virtual time the fault burst closes.
    pub burst_end: Nanos,
}

impl MonitorConfig {
    /// The PR-gate cell: the full 10k-client Zipf population, a 1 s
    /// sampling period, and a two-minute fault burst opening at t=60 s
    /// (the Zipf cell drains in ≈ 7 virtual minutes).
    pub fn gate(seed: u64) -> MonitorConfig {
        MonitorConfig {
            base: EvsimConfig::gate(evsim::POLICIES[0], "zipf", seed),
            period: Nanos::from_ms(1_000),
            capacity: 512,
            burst_start: Nanos::from_ms(60_000),
            burst_end: Nanos::from_ms(180_000),
        }
    }

    /// A small cell for unit tests: hundreds of clients, a 50 ms period,
    /// a burst over [300 ms, 900 ms).
    pub fn small(seed: u64) -> MonitorConfig {
        MonitorConfig {
            base: EvsimConfig::small(evsim::POLICIES[0], "zipf", seed),
            period: Nanos::from_ms(50),
            capacity: 512,
            burst_start: Nanos::from_ms(300),
            burst_end: Nanos::from_ms(900),
        }
    }

    fn burst(&self) -> FaultBurst {
        FaultBurst {
            start: self.burst_start,
            end: self.burst_end,
            drop_denom: BURST_DROP_DENOM,
            retry_delay: Nanos::from_ms(BURST_RETRY_DELAY_MS),
            failed_disk: BURST_FAILED_DISK,
            seed: self.base.seed,
        }
    }
}

/// Everything deterministic the triple produced (the byte-compared
/// facts; wall-clock timings live outside this struct).
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorOutcome {
    /// The bare run's aggregate.
    pub bare: EvsimOutcome,
    /// The instrumented clean run's aggregate.
    pub clean: EvsimOutcome,
    /// The fault-burst run's aggregate.
    pub burst: EvsimOutcome,
    /// The measured `disk_backlog` ceiling (µs): the clean run's worst
    /// per-disk backlog sample.
    pub backlog_ceiling_us: u64,
    /// Series the burst-run recorder holds.
    pub series_count: usize,
    /// Live samples across all burst-run rings.
    pub samples_total: usize,
    /// Samples overwritten by ring wrap-around in the burst run.
    pub samples_dropped: u64,
    /// Degraded events the watchdog emitted.
    pub slo_degraded: u64,
    /// Recovered events the watchdog emitted.
    pub slo_recovered: u64,
    /// First Degraded event at/after the burst opened, µs past the open
    /// (`u64::MAX` if the watchdog never fired).
    pub detection_lag_us: u64,
    /// Top offenders of the burst run: `(client, cost, requests,
    /// disk_ios, retries)` by descending [`cost`](bullet_core::accounting::ClientUsage::cost).
    pub top_clients: Vec<(u64, u64, u64, u64, u64)>,
}

/// One full ABL17 measurement: the outcome plus the burst run's live
/// recorder (for the flight-recorder dumps).
#[derive(Debug, Clone)]
pub struct MonitorRun {
    /// The byte-comparable facts.
    pub outcome: MonitorOutcome,
    /// The burst run's recorder — export with
    /// [`Telemetry::export_jsonl`] / [`Telemetry::export_chrome`].
    pub telemetry: Telemetry,
}

/// Runs the bare/clean/burst triple.  Pure function of the config.
pub fn run_monitor(cfg: &MonitorConfig) -> MonitorRun {
    let bare = evsim::run(&cfg.base);

    let mut clean_cfg = cfg.base.clone();
    let clean_tel = Telemetry::on(cfg.period, cfg.capacity);
    clean_cfg.telemetry = clean_tel.clone();
    let clean = evsim::run(&clean_cfg);
    // The committed backlog SLO: no disk may fall further behind than
    // the worst the healthy run ever measured.
    let backlog_ceiling_us = (0..evsim::DISKS as u32)
        .flat_map(|d| clean_tel.series(GAUGE_EVSIM_DISK_BACKLOG_US, d))
        .map(|s| s.value)
        .max()
        .unwrap_or(0);

    let mut burst_cfg = cfg.base.clone();
    let tel = Telemetry::on(cfg.period, cfg.capacity);
    tel.watch("lossy_wire", GAUGE_EVSIM_RETRIES, 0);
    tel.watch(
        "disk_backlog",
        GAUGE_EVSIM_DISK_BACKLOG_US,
        backlog_ceiling_us,
    );
    burst_cfg.telemetry = tel.clone();
    burst_cfg.fault = Some(cfg.burst());
    burst_cfg.accounting = ClientAccounting::on();
    let burst = evsim::run(&burst_cfg);

    let index = tel.series_index();
    let series_count = index.len();
    let samples_total = index.iter().map(|&(_, _, _, len, _)| len).sum();
    let samples_dropped = index.iter().map(|&(_, _, _, _, d)| d).sum();
    let events = tel.slo_events();
    let slo_degraded = events
        .iter()
        .filter(|e| e.kind == SloKind::Degraded)
        .count() as u64;
    let slo_recovered = events
        .iter()
        .filter(|e| e.kind == SloKind::Recovered)
        .count() as u64;
    let detection_lag_us = events
        .iter()
        .find(|e| e.kind == SloKind::Degraded && e.at >= cfg.burst_start)
        .map_or(u64::MAX, |e| e.at.saturating_sub(cfg.burst_start).as_us());
    let top_clients = burst_cfg
        .accounting
        .top_k(TOP_K)
        .into_iter()
        .map(|(c, u)| (c, u.cost(), u.requests, u.disk_ios, u.retries))
        .collect();

    MonitorRun {
        outcome: MonitorOutcome {
            bare: bare.outcome,
            clean: clean.outcome,
            burst: burst.outcome,
            backlog_ceiling_us,
            series_count,
            samples_total,
            samples_dropped,
            slo_degraded,
            slo_recovered,
            detection_lag_us,
            top_clients,
        },
        telemetry: tel,
    }
}

/// ABL17 — the bare/clean/burst triple: the 10k-client gate cell, or at
/// [`Scale::Reduced`] the small one.
///
/// Criteria:
///
/// * overhead: the instrumented clean run's timeline digest equals the
///   bare run's — sampling is free in virtual time, 0 % against the
///   committed 2 % throughput budget;
/// * injection: the burst actually perturbs the timeline (digest
///   differs, retries and failovers both non-zero);
/// * detection: the watchdog's first Degraded event lands within one
///   sampling period of the burst opening — the recorder cannot see
///   faster than it samples, and may not be slower;
/// * recovery: the watchdog closes the window (≥ 1 Recovered event)
///   after the burst ends.
///
/// Extra artifacts: every ring of the burst run as JSONL, and the same
/// rings as Chrome `"ph": "C"` counter events (load in Perfetto).
pub fn ablation(scale: Scale) -> Outcome {
    let cfg = match scale {
        Scale::Reduced => MonitorConfig::small(evsim::REDUCED_SEED),
        Scale::Full | Scale::Soak => MonitorConfig::gate(evsim::PR_SEED),
    };
    let period_us = cfg.period.as_us();
    let run = run_monitor(&cfg);
    let o = &run.outcome;
    let criteria = vec![
        Invariant::new(
            "the recorder is free in virtual time",
            o.bare.digest == o.clean.digest,
            format!(
                "instrumented digest {:016x}, bare {:016x}",
                o.clean.digest, o.bare.digest
            ),
        ),
        Invariant::new(
            "the fault burst perturbs the timeline",
            o.burst.digest != o.bare.digest && o.burst.retries > 0 && o.burst.failovers > 0,
            format!(
                "{} retries, {} failovers",
                o.burst.retries, o.burst.failovers
            ),
        ),
        Invariant::new(
            "the watchdog flags the burst within one sampling period",
            o.slo_degraded >= 1 && o.detection_lag_us <= period_us,
            format!(
                "{} degraded events, lag {} us, period {period_us} us",
                o.slo_degraded, o.detection_lag_us
            ),
        ),
        Invariant::new(
            "the watchdog closes the degradation window",
            o.slo_recovered >= 1,
            format!("{} recovered events", o.slo_recovered),
        ),
    ];
    Outcome {
        title: format!(
            "ABL17 flight recorder & SLO watchdog (seed {}, {} clients, period {} ms)",
            cfg.base.seed,
            cfg.base.clients,
            period_us / 1_000
        ),
        table: outcome_table(o),
        criteria,
        json: vec![(
            "telemetry",
            Json::object([
                ("sampling_period_us", Json::num(period_us)),
                ("series_count", Json::num(o.series_count)),
                ("samples_total", Json::num(o.samples_total)),
                ("digest_delta", Json::num(o.bare.digest ^ o.clean.digest)),
                ("slo_degraded_events", Json::num(o.slo_degraded)),
                ("detection_lag_us", Json::num(o.detection_lag_us)),
            ]),
        )],
        report_md: String::new(),
        artifact: "ablation_monitor.txt",
        trailer: Trailer::RedCriteria,
        extras: vec![
            ("flight_recorder.jsonl", run.telemetry.export_jsonl()),
            ("flight_recorder_trace.json", run.telemetry.export_chrome()),
        ],
    }
}

/// Renders the deterministic outcome as the byte-compared artifact
/// table: one row per run, the watchdog facts, and the top-K offenders.
pub fn outcome_table(o: &MonitorOutcome) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>7} {:>8} {:>9} {:>18}",
        "run", "reads", "hit%", "retries", "failovers", "digest"
    );
    for (label, e) in [("bare", &o.bare), ("clean", &o.clean), ("burst", &o.burst)] {
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>6.2}% {:>8} {:>9} {:>18}",
            label,
            e.reads,
            e.hit_rate * 100.0,
            e.retries,
            e.failovers,
            format!("{:016x}", e.digest)
        );
    }
    let _ = writeln!(
        out,
        "recorder: {} series, {} samples ({} overwritten), backlog ceiling {} us",
        o.series_count, o.samples_total, o.samples_dropped, o.backlog_ceiling_us
    );
    let _ = writeln!(
        out,
        "watchdog: {} degraded, {} recovered, detection lag {} us",
        o.slo_degraded, o.slo_recovered, o.detection_lag_us
    );
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>8} {:>8} {:>8}",
        "client", "cost", "reqs", "ios", "retries"
    );
    for &(c, cost, reqs, ios, retries) in &o.top_clients {
        let _ = writeln!(out, "{c:>8} {cost:>12} {reqs:>8} {ios:>8} {retries:>8}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_is_free_in_virtual_time() {
        let run = run_monitor(&MonitorConfig::small(11));
        let o = &run.outcome;
        assert_eq!(
            o.bare.digest, o.clean.digest,
            "instrumented run must replay the bare timeline"
        );
        assert_ne!(
            o.bare.digest, o.burst.digest,
            "the fault burst must actually perturb the timeline"
        );
        assert!(o.burst.retries > 0 && o.burst.failovers > 0);
    }

    #[test]
    fn watchdog_flags_burst_within_one_period() {
        let cfg = MonitorConfig::small(11);
        let o = run_monitor(&cfg).outcome;
        assert!(o.slo_degraded >= 1, "burst must trip the watchdog");
        assert!(
            o.detection_lag_us <= cfg.period.as_us(),
            "detection lag {} us exceeds one period ({} us)",
            o.detection_lag_us,
            cfg.period.as_us()
        );
        assert!(
            o.slo_recovered >= 1,
            "watchdog must close the window after the burst"
        );
    }

    #[test]
    fn triple_replays_byte_identically() {
        let a = outcome_table(&run_monitor(&MonitorConfig::small(7)).outcome);
        let b = outcome_table(&run_monitor(&MonitorConfig::small(7)).outcome);
        assert_eq!(a, b);
    }

    #[test]
    fn flight_recorder_dump_has_every_series() {
        let run = run_monitor(&MonitorConfig::small(5));
        let jsonl = run.telemetry.export_jsonl();
        for name in [GAUGE_EVSIM_DISK_BACKLOG_US, GAUGE_EVSIM_RETRIES] {
            assert!(jsonl.contains(name), "dump misses {name}");
        }
        let trace = run.telemetry.export_chrome();
        assert!(trace.contains("\"ph\":\"C\""), "counter events missing");
    }
}
