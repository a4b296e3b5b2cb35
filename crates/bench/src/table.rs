//! Table generation and the §4 claim checks.

use amoeba_sim::Nanos;

use crate::ablation::Invariant;
use crate::rig::{BulletRig, NfsRig};

/// The file-size column of Figs. 2 and 3.
///
/// The scraped paper text preserves six rows ("1 byte … 1 Mbyte") but
/// lost the middle values; we use the canonical spread {1 B, 64 B,
/// 512 B, 4 KB, 64 KB, 1 MB} (documented inference — see DESIGN.md §4).
pub const SIZES: [usize; 6] = [1, 64, 512, 4096, 65_536, 1 << 20];

/// Human label for a size row.
pub fn size_label(size: usize) -> String {
    match size {
        s if s < 1024 => format!("{s} byte{}", if s == 1 { "" } else { "s" }),
        s if s < (1 << 20) => format!("{} Kbytes", s / 1024),
        s => format!("{} Mbyte", s / (1 << 20)),
    }
}

/// Bandwidth in KB/s for `size` bytes moved in `dt`.
pub fn bandwidth_kb_s(size: usize, dt: Nanos) -> f64 {
    if dt == Nanos::ZERO {
        return f64::INFINITY;
    }
    size as f64 / 1024.0 / dt.as_secs_f64()
}

/// One measured table row.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// File size in bytes.
    pub size: usize,
    /// Delay of the first operation column (READ).
    pub read: Nanos,
    /// Delay of the second column (CREATE+DELETE for Bullet, CREATE for
    /// NFS).
    pub write: Nanos,
}

impl Row {
    /// READ bandwidth in KB/s.
    pub fn read_bw(&self) -> f64 {
        bandwidth_kb_s(self.size, self.read)
    }

    /// Write-column bandwidth in KB/s.
    pub fn write_bw(&self) -> f64 {
        bandwidth_kb_s(self.size, self.write)
    }
}

/// Measures Fig. 2: the Bullet table over all sizes.
pub fn measure_bullet(rig: &BulletRig) -> Vec<Row> {
    SIZES
        .iter()
        .map(|&size| Row {
            size,
            read: rig.measure_read(size),
            write: rig.measure_create_delete(size),
        })
        .collect()
}

/// Measures Fig. 3: the NFS table over all sizes.
pub fn measure_nfs(rig: &NfsRig) -> Vec<Row> {
    SIZES
        .iter()
        .map(|&size| Row {
            size,
            read: rig.measure_read(size),
            write: rig.measure_create(size),
        })
        .collect()
}

/// An artifact's text under construction.  `writeln!(t, …)` appends a
/// line; writing to a `String` cannot fail, so this `write_fmt` returns
/// `()` and no call site has a `Result` to discard.
#[derive(Debug, Default)]
pub struct Text(pub String);

impl Text {
    /// A text whose first line is `title`.
    pub fn titled(title: &str) -> Text {
        Text(format!("{title}\n"))
    }

    /// What `write!`/`writeln!` expand to.
    pub fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        std::fmt::Write::write_fmt(&mut self.0, args).expect("writing to a String cannot fail");
    }
}

/// Renders a Fig. 2/3-style pair of tables (delay then bandwidth).
pub fn render_tables(t: &mut Text, col2: &str, rows: &[Row]) {
    type Column = fn(&Row) -> f64;
    let blocks: [(&str, Column, Column); 2] = [
        (
            "Delay (msec)",
            |r| r.read.as_ms_f64(),
            |r| r.write.as_ms_f64(),
        ),
        ("Bandwidth (Kbytes/sec)", Row::read_bw, Row::write_bw),
    ];
    for (heading, read, write) in blocks {
        writeln!(t, "  {heading}");
        writeln!(t, "  {:>12}  {:>12}  {:>12}", "File Size", "READ", col2);
        for r in rows {
            let label = size_label(r.size);
            writeln!(t, "  {label:>12}  {:>12.1}  {:>12.1}", read(r), write(r));
        }
    }
    writeln!(t);
}

/// The same table as one `REPORT.md` section.
pub fn render_tables_md(title: &str, col2: &str, rows: &[Row]) -> String {
    let mut t = Text(format!("### {title}\n\n"));
    writeln!(
        t,
        "| File size | READ delay (ms) | {col2} delay (ms) | READ bw (KB/s) | {col2} bw (KB/s) |"
    );
    writeln!(t, "|---|---|---|---|---|");
    for r in rows {
        writeln!(
            t,
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} |",
            size_label(r.size),
            r.read.as_ms_f64(),
            r.write.as_ms_f64(),
            r.read_bw(),
            r.write_bw()
        );
    }
    writeln!(t);
    t.0
}

/// The §4 comparison claims, evaluated from the two measured tables.
#[derive(Debug, Clone)]
pub struct Claims {
    /// C1: per-size READ speedup Bullet over NFS (paper: 3–6× for all
    /// sizes).
    pub read_speedups: Vec<(usize, f64)>,
    /// C2: the 1 MB READ bandwidth ratio (paper: ≈ 10×).
    pub large_read_bw_ratio: f64,
    /// C3: sizes (> 64 KB per the paper) where Bullet CREATE bandwidth
    /// exceeds NFS READ bandwidth.
    pub write_beats_read_at: Vec<usize>,
    /// C4: NFS bandwidth at 1 MB is lower than at 64 KB (read, create).
    pub nfs_dips_at_1mb: (bool, bool),
}

impl Claims {
    /// Evaluates the claims from measured tables (same size column).
    ///
    /// # Panics
    ///
    /// Panics if the tables do not cover [`SIZES`].
    pub fn evaluate(bullet: &[Row], nfs: &[Row]) -> Claims {
        assert_eq!(bullet.len(), SIZES.len());
        assert_eq!(nfs.len(), SIZES.len());
        let read_speedups = bullet
            .iter()
            .zip(nfs)
            .map(|(b, n)| (b.size, n.read.as_ns() as f64 / b.read.as_ns() as f64))
            .collect();
        let last = SIZES.len() - 1;
        let k64 = SIZES.iter().position(|&s| s == 65_536).expect("64 KB row");
        Claims {
            read_speedups,
            large_read_bw_ratio: bullet[last].read_bw() / nfs[last].read_bw(),
            write_beats_read_at: bullet
                .iter()
                .zip(nfs)
                .filter(|(b, n)| b.write_bw() > n.read_bw())
                .map(|(b, _)| b.size)
                .collect(),
            nfs_dips_at_1mb: (
                nfs[last].read_bw() < nfs[k64].read_bw(),
                nfs[last].write_bw() < nfs[k64].write_bw(),
            ),
        }
    }

    /// C3's sizes, spelled out.
    fn write_beats_read_labels(&self) -> String {
        let labels: Vec<String> = self
            .write_beats_read_at
            .iter()
            .map(|&s| size_label(s))
            .collect();
        labels.join(", ")
    }

    /// Renders the claim scorecard.
    pub fn render(&self, t: &mut Text) {
        writeln!(
            t,
            "Claim C1 — Bullet READ speedup over NFS (paper: 3-6x at all sizes):"
        );
        for (size, ratio) in &self.read_speedups {
            writeln!(t, "  {:>12}: {ratio:.1}x", size_label(*size));
        }
        writeln!(
            t,
            "Claim C2 — 1 MB READ bandwidth ratio (paper: ~10x): {:.1}x",
            self.large_read_bw_ratio
        );
        writeln!(
            t,
            "Claim C3 — Bullet CREATE bandwidth beats NFS READ bandwidth at: {}",
            if self.write_beats_read_at.is_empty() {
                "never".to_string()
            } else {
                self.write_beats_read_labels()
            }
        );
        let (read_dip, write_dip) = self.nfs_dips_at_1mb;
        writeln!(
            t,
            "Claim C4 — NFS 1 MB bandwidth below 64 KB bandwidth: read {read_dip}, create {write_dip}"
        );
    }

    /// C1–C4 as criteria, judged in *shape* (who wins, by roughly what
    /// factor, where the crossovers fall).  Each name is the claim and
    /// what the paper says, `|`-separated, and each detail the measured
    /// value: together one row of `REPORT.md`'s §4 table.
    pub fn criteria(&self) -> Vec<Invariant> {
        let speedups: Vec<String> = self
            .read_speedups
            .iter()
            .map(|(s, r)| format!("{} {:.1}×", size_label(*s), r))
            .collect();
        let (read_dip, write_dip) = self.nfs_dips_at_1mb;
        vec![
            // "three to six times better … for all file sizes"; the 1 MB
            // row runs ahead of that band (the paper itself reports ~10x
            // there, see C2).
            Invariant::new(
                "C1 READ speedup | 3–6× all sizes",
                self.read_speedups.iter().all(|&(size, ratio)| {
                    if size < 1 << 20 {
                        (3.0..=6.5).contains(&ratio)
                    } else {
                        ratio > 6.0
                    }
                }),
                speedups.join(", "),
            ),
            Invariant::new(
                "C2 1 MB read bandwidth ratio | ~10×",
                self.large_read_bw_ratio >= 6.0,
                format!("{:.1}×", self.large_read_bw_ratio),
            ),
            // Writes beat NFS reads for very large files, and never for
            // tiny ones (they hit two disks).
            Invariant::new(
                "C3 Bullet create bw > NFS read bw | > 64 KB",
                self.write_beats_read_at.contains(&(1 << 20))
                    && !self.write_beats_read_at.contains(&1),
                format!("at {}", self.write_beats_read_labels()),
            ),
            Invariant::new(
                "C4 NFS dips at 1 MB | both columns",
                read_dip && write_dip,
                format!("read {read_dip}, create {write_dip}"),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_labels() {
        assert_eq!(size_label(1), "1 byte");
        assert_eq!(size_label(64), "64 bytes");
        assert_eq!(size_label(4096), "4 Kbytes");
        assert_eq!(size_label(1 << 20), "1 Mbyte");
    }

    #[test]
    fn bandwidth_math() {
        assert!((bandwidth_kb_s(1024, Nanos::from_secs(1)) - 1.0).abs() < 1e-9);
        assert!(bandwidth_kb_s(1, Nanos::ZERO).is_infinite());
    }
}
