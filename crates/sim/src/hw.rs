//! Calibrated 1989 hardware cost profiles.
//!
//! Every constant here models the testbed of §4 of the paper: 16.7 MHz
//! MC68020 processors, a "normally loaded" 10 Mbit/s Ethernet, and late-80s
//! SCSI winchester drives (two 800 MB units on the Bullet server).
//!
//! # Calibration
//!
//! We cannot reproduce 1989 absolute numbers, so constants are calibrated
//! against figures *published for this hardware*:
//!
//! * Amoeba's null RPC took ≈ 1.2–1.4 ms between two 68020s
//!   (van Renesse et al., *The Performance of the World's Fastest
//!   Distributed Operating System*, OSR 1988).
//! * Amoeba's user-to-user bulk throughput was ≈ 680 KB/s on a 10 Mbit/s
//!   Ethernet (≈ 55 % of the raw wire rate; the rest is per-packet CPU and
//!   copying on the slow processors).
//! * Era SCSI drives: ≈ 1.2 MB/s media transfer, ≈ 15 ms average seek,
//!   3600 rpm spindle (8.33 ms per rotation).
//!
//! What matters for reproducing the paper's tables is the *structure* —
//! a fixed per-operation term plus a per-byte term for each resource — not
//! the third significant digit of any constant.

use crate::clock::Nanos;

/// Network cost model: a 10 Mbit/s Ethernet driven by slow host CPUs.
#[derive(Debug, Clone, Copy)]
pub struct NetProfile {
    /// Fixed one-way cost of any message: driver, interrupt, protocol
    /// processing on a 16.7 MHz CPU (µs).
    pub per_message_us: f64,
    /// Extra cost per Ethernet packet beyond the first (µs) — interrupt and
    /// header processing for each fragment of a large message.
    pub per_packet_us: f64,
    /// Wire time per byte at 10 Mbit/s, including framing and checksum overhead (µs).
    pub per_byte_us: f64,
    /// Usable payload bytes per Ethernet packet.
    pub mtu_payload: u32,
}

impl NetProfile {
    /// The paper's "normally loaded Ethernet" between 68020s.
    pub fn ethernet_10mbit() -> Self {
        NetProfile {
            per_message_us: 550.0,
            per_packet_us: 100.0,
            per_byte_us: 0.85,
            mtu_payload: 1480,
        }
    }

    /// Number of packets a message of `bytes` payload occupies.
    pub fn packets(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(self.mtu_payload as u64)
        }
    }

    /// Simulated one-way transmission time for a message of `bytes`.
    pub fn one_way(&self, bytes: u64) -> Nanos {
        let packets = self.packets(bytes);
        Nanos::from_us_f64(
            self.per_message_us
                + (packets.saturating_sub(1)) as f64 * self.per_packet_us
                + bytes as f64 * self.per_byte_us,
        )
    }

    /// Simulated transmission time for `bytes` sent as a *continuation* of
    /// a message already in flight: no per-message setup — the driver and
    /// protocol state are already primed — only per-packet and per-byte
    /// wire costs.  Streaming transfers use this for every segment after
    /// the header, so a file split into N segments costs the same fixed
    /// overhead as one whole-file message.
    pub fn continuation(&self, bytes: u64) -> Nanos {
        let packets = self.packets(bytes);
        Nanos::from_us_f64(packets as f64 * self.per_packet_us + bytes as f64 * self.per_byte_us)
    }
}

/// CPU cost model for the 16.7 MHz MC68020.
#[derive(Debug, Clone, Copy)]
pub struct CpuProfile {
    /// Cost of copying one byte in RAM (µs); ≈ 4 MB/s on a 68020.
    pub memcpy_us_per_byte: f64,
    /// Fixed cost of servicing one request at the Bullet server: capability
    /// decryption, inode lookup, rnode management (µs).
    pub request_us: f64,
}

impl CpuProfile {
    /// The 16.7 MHz MC68020 of the paper's server.
    pub fn mc68020() -> Self {
        CpuProfile {
            memcpy_us_per_byte: 0.25,
            request_us: 250.0,
        }
    }

    /// Simulated time to copy `bytes` in RAM.
    pub fn memcpy(&self, bytes: u64) -> Nanos {
        Nanos::from_us_f64(bytes as f64 * self.memcpy_us_per_byte)
    }

    /// Simulated fixed request-service time.
    pub fn request(&self) -> Nanos {
        Nanos::from_us_f64(self.request_us)
    }
}

/// Disk cost model for a late-80s 800 MB SCSI winchester.
#[derive(Debug, Clone, Copy)]
pub struct DiskProfile {
    /// Controller + command overhead per operation (µs).
    pub per_op_us: f64,
    /// Minimum (track-to-track) seek (µs).
    pub seek_min_us: f64,
    /// Full-stroke seek (µs); actual seeks interpolate linearly with the
    /// fraction of the disk travelled.
    pub seek_full_us: f64,
    /// Average rotational latency: half a rotation at 3600 rpm (µs).
    pub rotation_avg_us: f64,
    /// Media transfer time per byte (µs); ≈ 1.2 MB/s.
    pub transfer_us_per_byte: f64,
}

impl DiskProfile {
    /// An 800 MB SCSI drive of the paper's era.
    pub fn scsi_1989() -> Self {
        DiskProfile {
            per_op_us: 1_000.0,
            seek_min_us: 3_000.0,
            seek_full_us: 24_000.0,
            rotation_avg_us: 8_333.0 / 2.0,
            transfer_us_per_byte: 0.833,
        }
    }

    /// An infinitely fast disk (all costs zero) — used to isolate other
    /// resources in ablation benchmarks.
    pub fn instant() -> Self {
        DiskProfile {
            per_op_us: 0.0,
            seek_min_us: 0.0,
            seek_full_us: 0.0,
            rotation_avg_us: 0.0,
            transfer_us_per_byte: 0.0,
        }
    }

    /// Simulated time for one I/O: a seek from `head_block` to
    /// `target_block` (of `total_blocks`), rotational latency, and the
    /// transfer of `bytes`.
    pub fn io_time(
        &self,
        head_block: u64,
        target_block: u64,
        total_blocks: u64,
        bytes: u64,
    ) -> Nanos {
        let seek = if head_block == target_block {
            0.0
        } else {
            let dist = head_block.abs_diff(target_block) as f64 / total_blocks.max(1) as f64;
            self.seek_min_us + dist * (self.seek_full_us - self.seek_min_us)
        };
        Nanos::from_us_f64(
            self.per_op_us + seek + self.rotation_avg_us + bytes as f64 * self.transfer_us_per_byte,
        )
    }
}

/// The complete cost profile of the paper's testbed.
#[derive(Debug, Clone, Copy)]
pub struct HwProfile {
    /// Network costs.
    pub net: NetProfile,
    /// CPU costs.
    pub cpu: CpuProfile,
    /// Disk costs (applied to every drive).
    pub disk: DiskProfile,
}

impl HwProfile {
    /// The full 1989 Amoeba testbed profile.
    pub fn amoeba_1989() -> Self {
        HwProfile {
            net: NetProfile::ethernet_10mbit(),
            cpu: CpuProfile::mc68020(),
            disk: DiskProfile::scsi_1989(),
        }
    }
}

impl Default for HwProfile {
    fn default() -> Self {
        HwProfile::amoeba_1989()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_rpc_round_trip_near_published_number() {
        // Request + reply of ~32-byte headers should land near the
        // published 1.2-1.4 ms null RPC.
        let net = NetProfile::ethernet_10mbit();
        let rtt = net.one_way(32) + net.one_way(32);
        let ms = rtt.as_ms_f64();
        assert!((1.0..1.6).contains(&ms), "null RPC rtt = {ms} ms");
    }

    #[test]
    fn bulk_throughput_near_published_number() {
        // 1 MB one way plus the receiver's copy should land near the
        // published ~680-800 KB/s user-to-user figure.
        let net = NetProfile::ethernet_10mbit();
        let cpu = CpuProfile::mc68020();
        let t = net.one_way(1 << 20) + cpu.memcpy(1 << 20);
        let kbs = (1 << 20) as f64 / 1024.0 / t.as_secs_f64();
        assert!((600.0..900.0).contains(&kbs), "bulk = {kbs} KB/s");
    }

    #[test]
    fn packet_count() {
        let net = NetProfile::ethernet_10mbit();
        assert_eq!(net.packets(0), 1);
        assert_eq!(net.packets(1), 1);
        assert_eq!(net.packets(1480), 1);
        assert_eq!(net.packets(1481), 2);
        assert_eq!(net.packets(1 << 20), 709);
    }

    #[test]
    fn continuation_skips_message_setup() {
        let net = NetProfile::ethernet_10mbit();
        // A continuation never pays the per-message term…
        assert!(net.continuation(1480) < net.one_way(1480));
        // …and a header plus 16 streamed 64 KB segments costs within a few
        // per-packet charges of the equivalent whole-file message (the
        // segmentation rounds up to a packet boundary per segment).
        let whole = net.one_way(1 << 20);
        let streamed: Nanos = (0..16).map(|_| net.continuation(64 << 10)).sum();
        let slack = Nanos::from_us_f64(net.per_message_us + 16.0 * net.per_packet_us);
        assert!(
            streamed >= whole.saturating_sub(slack),
            "streamed {streamed} vs whole {whole}"
        );
        assert!(
            streamed <= whole + slack,
            "streamed {streamed} vs whole {whole}"
        );
    }

    #[test]
    fn disk_io_time_components() {
        let d = DiskProfile::scsi_1989();
        // No seek when the head is already there.
        let same = d.io_time(10, 10, 1000, 0);
        let far = d.io_time(0, 1000, 1000, 0);
        assert!(far > same);
        // Full-stroke seek costs the configured maximum.
        let expect_far = Nanos::from_us_f64(d.per_op_us + d.seek_full_us + d.rotation_avg_us);
        assert_eq!(far, expect_far);
        // Transfer scales with bytes.
        let with_data = d.io_time(10, 10, 1000, 1_000_000);
        assert!(with_data.as_ms_f64() > 800.0); // ~833 ms at 1.2 MB/s
    }

    #[test]
    fn zero_distance_io_charges_rotation_and_transfer_only() {
        // head == target skips the seek term entirely — the model the
        // scheduler's coalescing and the Bullet contiguity bet rely on.
        let d = DiskProfile::scsi_1989();
        let t = d.io_time(42, 42, 1000, 4096);
        let expect =
            Nanos::from_us_f64(d.per_op_us + d.rotation_avg_us + 4096.0 * d.transfer_us_per_byte);
        assert_eq!(t, expect);
    }

    #[test]
    fn seek_cost_is_monotone_in_block_distance() {
        let d = DiskProfile::scsi_1989();
        let mut last = d.io_time(0, 0, 10_000, 0);
        for target in [1, 10, 100, 1_000, 5_000, 9_999] {
            let t = d.io_time(0, target, 10_000, 0);
            assert!(
                t > last,
                "io_time(0→{target}) = {t} not above the previous distance's {last}"
            );
            last = t;
        }
        // Symmetric: seeking down the same distance costs the same.
        assert_eq!(
            d.io_time(9_999, 0, 10_000, 0),
            d.io_time(0, 9_999, 10_000, 0)
        );
    }

    #[test]
    fn full_stroke_seek_matches_seek_full_us() {
        let d = DiskProfile::scsi_1989();
        // A seek across the whole disk interpolates to exactly the
        // full-stroke constant; one track interpolates to (almost) the
        // minimum.
        let full = d.io_time(0, 10_000, 10_000, 0);
        assert_eq!(
            full,
            Nanos::from_us_f64(d.per_op_us + d.seek_full_us + d.rotation_avg_us)
        );
        let track = d.io_time(0, 1, 10_000, 0);
        let track_seek_us = d.seek_min_us + (1.0 / 10_000.0) * (d.seek_full_us - d.seek_min_us);
        assert_eq!(
            track,
            Nanos::from_us_f64(d.per_op_us + track_seek_us + d.rotation_avg_us)
        );
    }

    #[test]
    fn instant_disk_is_free() {
        let d = DiskProfile::instant();
        assert_eq!(d.io_time(0, 999, 1000, 1 << 20), Nanos::ZERO);
    }

    #[test]
    fn large_read_delay_is_seconds_not_minutes() {
        // Sanity: a full 1 MB whole-file read (net + nothing else) is on
        // the order of 1-2 simulated seconds.
        let hw = HwProfile::amoeba_1989();
        let t = hw.net.one_way(1 << 20) + hw.cpu.memcpy(1 << 20);
        assert!((0.8..3.0).contains(&t.as_secs_f64()), "t = {t}");
    }
}
