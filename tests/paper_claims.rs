//! The headline reproduction, as a test: regenerate Fig. 2 and Fig. 3 on
//! the simulated 1989 testbed and assert the paper's §4 comparison
//! claims hold in *shape* (who wins, by roughly what factor, where the
//! crossovers fall).  EXPERIMENTS.md records the measured values.

use bullet_bench::rig::{BulletRig, NfsRig};
use bullet_bench::table::{measure_bullet, measure_nfs, Claims, SIZES};

fn tables() -> (Vec<bullet_bench::Row>, Vec<bullet_bench::Row>) {
    (
        measure_bullet(&BulletRig::paper_1989()),
        measure_nfs(&NfsRig::paper_1989()),
    )
}

/// Holds one of C1–C4 as `Claims::criteria` states it — the band or
/// crossover each claim accepts lives there, once, and `report` judges
/// the same criteria when it writes `results/comparison.txt`.
fn assert_claim(id: &str) {
    let (bullet, nfs) = tables();
    let criteria = Claims::evaluate(&bullet, &nfs).criteria();
    let claim = criteria
        .iter()
        .find(|c| c.name.starts_with(id))
        .expect("C1–C4 are the four criteria");
    assert!(claim.pass, "{}: measured {}", claim.name, claim.detail);
}

#[test]
fn c1_bullet_reads_are_three_to_six_times_faster() {
    assert_claim("C1");
}

#[test]
fn c2_large_file_bandwidth_ratio_approaches_ten() {
    assert_claim("C2");
}

#[test]
fn c3_bullet_writes_beat_nfs_reads_for_large_files() {
    assert_claim("C3");
}

#[test]
fn c4_nfs_bandwidth_dips_at_one_megabyte() {
    assert_claim("C4");
}

#[test]
fn bullet_bandwidth_rises_monotonically_with_size() {
    let rows = measure_bullet(&BulletRig::paper_1989());
    for pair in rows.windows(2) {
        assert!(
            pair[1].read_bw() > pair[0].read_bw(),
            "bullet read bandwidth must grow with file size"
        );
        assert!(
            pair[1].write_bw() > pair[0].write_bw(),
            "bullet create bandwidth must grow with file size"
        );
    }
    // And the top end rides the wire: several hundred KB/s.
    assert!(rows.last().unwrap().read_bw() > 500.0);
}

#[test]
fn tables_cover_the_papers_size_column_deterministically() {
    let (bullet, nfs) = tables();
    assert_eq!(bullet.len(), SIZES.len());
    assert_eq!(nfs.len(), SIZES.len());
    // Rerunning reproduces the numbers exactly (simulated time).
    let (bullet2, nfs2) = tables();
    for (a, b) in bullet.iter().zip(&bullet2) {
        assert_eq!(a.read, b.read);
        assert_eq!(a.write, b.write);
    }
    for (a, b) in nfs.iter().zip(&nfs2) {
        assert_eq!(a.read, b.read);
        assert_eq!(a.write, b.write);
    }
}
