//! The paper's own evaluation: Figs. 1–3, the §4 comparison claims
//! (CMP), and the mixed-workload macro-benchmark the paper implies but
//! never prints (MIX).

use amoeba_sim::{Histogram, Nanos, SimClock};
use bullet_core::{BulletConfig, BulletServer};
use bytes::Bytes;

use crate::ablation::Outcome;
use crate::rig::{BulletRig, NfsRig};
use crate::table::{measure_bullet, measure_nfs, render_tables, render_tables_md, Claims, Text};
use crate::workload::{nth, WorkloadMix};

/// FIG1 — Fig. 1 of the paper, the Bullet disk layout, rendered from a
/// *live* server: the disk descriptor, the inode table, and the
/// contiguous files-and-holes map of the data area, after some
/// create/delete churn.
pub fn fig1_layout() -> Outcome {
    let server = BulletServer::format(BulletConfig::small_test(), 2).expect("format");
    // Create a handful of files and delete a couple to open holes.
    let caps: Vec<_> = [1500usize, 4000, 700, 9000, 2300]
        .iter()
        .map(|&n| {
            server
                .create(Bytes::from(vec![0xaa; n]), 2)
                .expect("create")
        })
        .collect();
    server.delete(&caps[1]).expect("delete");
    server.delete(&caps[3]).expect("delete");

    let (desc, rows) = server.describe_layout();
    let mut t = Text::titled("Fig. 1 — The Bullet disk layout (live server dump)");
    writeln!(t);
    writeln!(t, "Disk descriptor (inode 0):");
    writeln!(t, "  block size   : {} bytes", desc.block_size);
    writeln!(
        t,
        "  control size : {} blocks (inode table)",
        desc.control_blocks
    );
    writeln!(t, "  data size    : {} blocks", desc.data_blocks);
    writeln!(t);
    writeln!(t, "Inode table:");
    for row in &rows {
        writeln!(
            t,
            "  inode {:>4} -> blocks [{}, {}) = {} bytes{}",
            row.inode,
            row.start_block,
            row.start_block as u64 + row.blocks,
            row.size_bytes,
            if row.cached { "  [in RAM cache]" } else { "" }
        );
    }
    writeln!(t);
    writeln!(t, "Contiguous files and holes:");
    let mut cursor = desc.data_start();
    for row in &rows {
        if (row.start_block as u64) > cursor {
            writeln!(
                t,
                "  [{:>6}, {:>6})  free ({} blocks)",
                cursor,
                row.start_block,
                row.start_block as u64 - cursor
            );
        }
        writeln!(
            t,
            "  [{:>6}, {:>6})  file (inode {})",
            row.start_block,
            row.start_block as u64 + row.blocks,
            row.inode
        );
        cursor = row.start_block as u64 + row.blocks;
    }
    if cursor < desc.data_end() {
        writeln!(
            t,
            "  [{:>6}, {:>6})  free ({} blocks)",
            cursor,
            desc.data_end(),
            desc.data_end() - cursor
        );
    }
    let frag = server.disk_frag_report();
    writeln!(t);
    writeln!(
        t,
        "Free space: {} of {} blocks in {} hole(s); largest hole {} blocks; external fragmentation {:.2}",
        frag.free, frag.total, frag.hole_count, frag.largest_hole, frag.external_fragmentation
    );
    Outcome::plain("fig1_layout.txt", &t, Vec::new())
}

/// FIG2 — Fig. 2 of the paper: delay and bandwidth of the Bullet file
/// server for READ and CREATE+DELETE, on the simulated 1989 testbed.
pub fn fig2_bullet() -> Outcome {
    let rows = measure_bullet(&BulletRig::paper_1989());
    let mut t =
        Text::titled("Fig. 2 — Performance of the Bullet file server (simulated 1989 testbed)");
    render_tables(&mut t, "CREATE+DEL", &rows);
    t.0 += "Protocol: READ is warm (file completely in the server's RAM cache);
CREATE+DEL writes the file and its inode to BOTH mirrored disks (P-FACTOR 2).
";
    Outcome {
        report_md: render_tables_md("Fig. 2 — Bullet file server", "CREATE+DEL", &rows),
        ..Outcome::plain("fig2_bullet.txt", &t, Vec::new())
    }
}

/// FIG3 — Fig. 3 of the paper: delay and bandwidth of the SUN NFS-like
/// baseline for READ and CREATE, on the same simulated testbed.
pub fn fig3_nfs() -> Outcome {
    let rows = measure_nfs(&NfsRig::paper_1989());
    let mut t =
        Text::titled("Fig. 3 — Performance of the SUN NFS baseline (simulated 1989 testbed)");
    render_tables(&mut t, "CREATE", &rows);
    t.0 += "Protocol: client caching disabled (the paper's lockf trick); one RPC per
8 KB block; server has a 3 MB write-through buffer cache and ONE disk.
";
    Outcome {
        report_md: render_tables_md("Fig. 3 — SUN NFS baseline", "CREATE", &rows),
        ..Outcome::plain("fig3_nfs.txt", &t, Vec::new())
    }
}

/// CMP — the §4 comparison claims (C1–C4), evaluated from freshly
/// measured Fig. 2 and Fig. 3 tables; the criteria are
/// [`Claims::criteria`].
pub fn comparison() -> Outcome {
    let bullet = measure_bullet(&BulletRig::paper_1989());
    let nfs = measure_nfs(&NfsRig::paper_1989());
    let claims = Claims::evaluate(&bullet, &nfs);
    let mut t = Text::titled("Bullet (Fig. 2)");
    render_tables(&mut t, "CREATE+DEL", &bullet);
    writeln!(t, "NFS baseline (Fig. 3)");
    render_tables(&mut t, "CREATE", &nfs);
    claims.render(&mut t);
    let criteria = claims.criteria();
    let mut md = Text("### §4 claims\n\n| Claim | Paper | Measured |\n|---|---|---|\n".to_string());
    for c in &criteria {
        writeln!(md, "| {} | {} |", c.name, c.detail);
    }
    writeln!(md);
    Outcome {
        report_md: md.0,
        ..Outcome::plain("comparison.txt", &t, criteria)
    }
}

const OPS: usize = 6000;
const MAX_SIZE: u64 = 256 * 1024;
const POPULATION: u64 = 150;

#[derive(Default)]
struct Lat {
    create: Histogram,
    read: Histogram,
    delete: Histogram,
}

impl Lat {
    fn render(&self, t: &mut Text, label: &str, wall: Nanos) {
        writeln!(t, "  {label}:");
        t.0 += "          op     count     mean (ms)    p90 (ms)    max (ms)\n";
        for (name, h) in [
            ("create", &self.create),
            ("read", &self.read),
            ("delete", &self.delete),
        ] {
            writeln!(
                t,
                "    {:>8}  {:>8}  {:>12.1}  {:>10.1}  {:>10.1}",
                name,
                h.count(),
                h.mean().as_ms_f64(),
                h.quantile(0.9).as_ms_f64(),
                h.max().as_ms_f64()
            );
        }
        writeln!(t, "    total simulated time: {wall}");
    }
}

/// Runs the mix against one server, reached through three closures,
/// timing every operation on `clock`.
fn run_mix<H: Copy>(
    clock: &SimClock,
    create: impl Fn(Vec<u8>) -> Option<H>,
    read: impl Fn(H),
    delete: impl Fn(H),
) -> (Lat, Nanos) {
    let lat = Lat::default();
    let timed = |hist: &Histogram, op: &mut dyn FnMut()| {
        let t = clock.now();
        op();
        hist.record(clock.now() - t);
    };
    let t0 = clock.now();
    WorkloadMix::unix_mix(0x31337, MAX_SIZE, POPULATION).drive(
        OPS,
        &mut Vec::new(),
        |size| {
            let mut made = None;
            timed(&lat.create, &mut || made = create(vec![1u8; size as usize]));
            made
        },
        |files, n| timed(&lat.read, &mut || read(nth(files, n))),
        |file| timed(&lat.delete, &mut || delete(file)),
    );
    (lat, clock.now() - t0)
}

/// MIX — the *cited* workload mix (75 % whole-file reads; median 1 KB /
/// 99 % < 64 KB sizes) run through the full RPC stack, Bullet vs the
/// block baseline, with per-operation latency distributions.
pub fn mixed_workload() -> Outcome {
    let mut t = Text::default();
    writeln!(
        t,
        "Mixed workload — {OPS} ops of the cited mix (75% reads, 1984 sizes, ~{POPULATION} live files)"
    );
    let rig = BulletRig::paper_1989();
    let (bullet, bullet_wall) = run_mix(
        &rig.clock,
        |data| rig.client.create(Bytes::from(data), 2).ok(),
        |cap| _ = rig.client.read(&cap).expect("live file"),
        |cap| rig.client.delete(&cap).expect("live file"),
    );
    bullet.render(
        &mut t,
        "Bullet (two mirrored disks, P-FACTOR 2)",
        bullet_wall,
    );
    let rig = NfsRig::paper_1989();
    let (nfs, nfs_wall) = run_mix(
        &rig.clock,
        |data| rig.client.create_file(&data).ok(),
        |fh| _ = rig.client.read_file(fh).expect("live file"),
        |fh| rig.client.remove(fh).expect("live file"),
    );
    nfs.render(&mut t, "NFS baseline (one disk, 8 KB blocks)", nfs_wall);
    writeln!(t);
    writeln!(
        t,
        "Whole-workload speedup: {:.1}x ({} vs {})",
        nfs_wall.as_ns() as f64 / bullet_wall.as_ns() as f64,
        bullet_wall,
        nfs_wall
    );
    t.0 += "The small-file-dominated mix is where the fixed per-RPC gap compounds.\n";
    Outcome::plain("mixed_workload.txt", &t, Vec::new())
}
