//! Validation of the measurement machinery itself: measured simulated
//! costs must equal the analytic sum of their parts, and the claim
//! evaluator must be correct on synthetic tables.

use amoeba_sim::{HwProfile, Nanos};
use bullet_bench::rig::BulletRig;
use bullet_bench::table::{Claims, Row, SIZES};

/// Analytic cost of one warm Bullet read of `size` bytes, derived by hand
/// from the cost model: request (header ≈ 32 B) one way, fixed server CPU,
/// reply (header ≈ 12 B + file) back, client copy.
fn analytic_warm_read(hw: &HwProfile, size: usize) -> Nanos {
    let request = hw.net.one_way(32 + 4); // cap+command+lengths ≈ 36 B
    let server = hw.cpu.request();
    let reply = hw.net.one_way(12 + size as u64);
    let client_copy = hw.cpu.memcpy(size as u64);
    request + server + reply + client_copy
}

#[test]
fn measured_read_matches_the_analytic_model() {
    let rig = BulletRig::paper_1989();
    for &size in &SIZES {
        let measured = rig.measure_read(size);
        let analytic = analytic_warm_read(&rig.hw, size);
        // Within 2% + a small constant (header sizes are approximated).
        let tolerance = analytic.as_ns() / 50 + 200_000;
        let diff = measured.as_ns().abs_diff(analytic.as_ns());
        assert!(
            diff <= tolerance,
            "size {size}: measured {measured}, analytic {analytic}"
        );
    }
}

#[test]
fn create_delete_cost_decomposes_into_disk_and_wire() {
    // A small create+delete is dominated by four synchronous disk writes
    // (file + inode, on each of two disks) plus two RPCs; verify the
    // floor is where the disk model puts it.
    let rig = BulletRig::paper_1989();
    let measured = rig.measure_create_delete(1);
    // Each inode/file write: op overhead + seek + rotation + 1 KB.
    let per_write = Nanos::from_us_f64(
        rig.hw.disk.per_op_us
            + rig.hw.disk.rotation_avg_us
            + 1024.0 * rig.hw.disk.transfer_us_per_byte,
    );
    // 4 writes on create (2 disks × file+inode) + 2 on delete (inode both
    // disks), but each replica pair runs in parallel and settles at the
    // slower disk, so the serialized demand is one disk's worth: 2 writes
    // on create + 1 on delete.  Seeks vary, so assert a generous band
    // around 3 writes.
    let floor = Nanos(per_write.as_ns() * 3);
    let ceiling = Nanos(per_write.as_ns() * 3 + Nanos::from_ms(40).as_ns());
    assert!(
        measured >= floor && measured <= ceiling,
        "measured {measured}, floor {floor}, ceiling {ceiling}"
    );
}

fn synthetic_row(size: usize, read_ms: u64, write_ms: u64) -> Row {
    Row {
        size,
        read: Nanos::from_ms(read_ms),
        write: Nanos::from_ms(write_ms),
    }
}

#[test]
fn claims_evaluator_on_synthetic_tables() {
    // Build tables where the truth is known by construction: bullet is
    // exactly 4x faster on reads; NFS dips at 1 MB; writes cross at 64 KB.
    let bullet: Vec<Row> = SIZES
        .iter()
        .map(|&s| synthetic_row(s, (s as u64 / 1024).max(1), (s as u64 / 512).max(10)))
        .collect();
    let nfs: Vec<Row> = SIZES
        .iter()
        .map(|&s| {
            let read = 4 * (s as u64 / 1024).max(1) * if s == 1 << 20 { 3 } else { 1 };
            synthetic_row(s, read, 8 * (s as u64 / 512).max(10))
        })
        .collect();
    let claims = Claims::evaluate(&bullet, &nfs);
    for &(size, ratio) in &claims.read_speedups {
        let expected = if size == 1 << 20 { 12.0 } else { 4.0 };
        assert!((ratio - expected).abs() < 0.01, "at {size}: {ratio}");
    }
    assert!((claims.large_read_bw_ratio - 12.0).abs() < 0.01);
    let (read_dip, _) = claims.nfs_dips_at_1mb;
    assert!(read_dip);
    // Bullet write bandwidth = size/(2*size/512 ms) = 256 KB/s-ish for
    // big files; NFS read bandwidth at 64 KB = 64/(256 ms) = 250 KB/s →
    // the crossover set is computed, not asserted here beyond sanity.
    assert!(claims.write_beats_read_at.iter().all(|s| SIZES.contains(s)));
    // As criteria: C1 and C2 hold by construction, and C4 is red — the
    // synthetic NFS create column does not dip at 1 MB.
    let criteria = claims.criteria();
    assert!(criteria[0].pass && criteria[1].pass, "{criteria:?}");
    assert!(criteria[3].name.starts_with("C4") && !criteria[3].pass);
}

#[test]
fn determinism_across_fresh_rigs() {
    // Two completely independent rigs produce identical simulated
    // numbers — the property that makes the figures reproducible.
    let a: Vec<Nanos> = SIZES
        .iter()
        .map(|&s| BulletRig::paper_1989().measure_read(s))
        .collect();
    let b: Vec<Nanos> = SIZES
        .iter()
        .map(|&s| BulletRig::paper_1989().measure_read(s))
        .collect();
    assert_eq!(a, b);
}
