//! `bullet-admin` — an operator's tool for Bullet disk images.
//!
//! Works on host files holding Bullet disks (optionally a mirrored
//! pair), the way an Amoeba administrator would poke at a server's
//! drives:
//!
//! ```text
//! bullet-admin format a.img b.img --blocks 4096 --block-size 512
//! bullet-admin store  a.img b.img ./notes.txt     # prints a capability
//! bullet-admin ls     a.img b.img
//! bullet-admin cat    a.img b.img <capability-hex> > notes.txt
//! bullet-admin rm     a.img b.img <capability-hex>
//! bullet-admin info   a.img b.img                 # layout + fragmentation
//! bullet-admin compact a.img b.img                # the 3 a.m. pass
//! ```
//!
//! Capabilities print as 32 hex digits (their 16-byte wire form); they
//! are the only handle to a stored file — keep them somewhere safe.

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

use amoeba_bullet::bullet::{BulletConfig, BulletError, BulletServer, DiskDescriptor};
use amoeba_bullet::cap::Capability;
use amoeba_bullet::disk::{BlockDevice, FileDisk, MirroredDisk};
use bytes::Bytes;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bullet-admin <command> <image>... [args]\n\
         commands:\n\
           format <img>... [--blocks N] [--block-size N] [--inodes N]\n\
           info   <img>...\n\
           ls     <img>...\n\
           store  <img>... <host-file>\n\
           cat    <img>... <capability-hex>\n\
           rm     <img>... <capability-hex>\n\
           compact <img>...\n\
         images ending in .img are mirrored replicas of one server"
    );
    ExitCode::from(2)
}

fn is_image(arg: &str) -> bool {
    arg.ends_with(".img")
}

/// Reads the disk descriptor straight off a raw image to learn its
/// geometry (block 0 starts with the 16-byte descriptor).
fn probe_geometry(path: &str) -> Result<(u32, u64), String> {
    let mut file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut head = [0u8; 16];
    file.read_exact(&mut head)
        .map_err(|e| format!("{path}: {e}"))?;
    let desc =
        DiskDescriptor::decode(&head).map_err(|e| format!("{path}: not a bullet image: {e}"))?;
    Ok((desc.block_size, desc.data_end()))
}

fn open_mirror(images: &[String]) -> Result<MirroredDisk, String> {
    let mut replicas: Vec<Arc<dyn BlockDevice>> = Vec::new();
    for path in images {
        let (bs, blocks) = probe_geometry(path)?;
        replicas.push(Arc::new(
            FileDisk::open(path, bs, blocks).map_err(|e| format!("{path}: {e}"))?,
        ));
    }
    MirroredDisk::new(replicas).map_err(|e| e.to_string())
}

fn server_on(images: &[String]) -> Result<BulletServer, String> {
    let storage = open_mirror(images)?;
    let mut cfg = BulletConfig::small_test();
    cfg.block_size = storage.block_size();
    cfg.disk_blocks = storage.num_blocks();
    BulletServer::recover(cfg, storage).map_err(|e| e.to_string())
}

/// Creates the image files and formats them as one mirrored server;
/// returns the inode slots the table actually holds.
fn format_images(
    images: &[String],
    block_size: u32,
    blocks: u64,
    inodes: u32,
) -> Result<u32, String> {
    let replicas: Vec<Arc<dyn BlockDevice>> = images
        .iter()
        .map(|path| {
            FileDisk::create(path, block_size, blocks)
                .map(|d| Arc::new(d) as Arc<dyn BlockDevice>)
                .map_err(|e| format!("{path}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let mut cfg = BulletConfig::small_test();
    cfg.block_size = block_size;
    cfg.disk_blocks = blocks;
    cfg.min_inodes = inodes;
    let server =
        BulletServer::format_on(cfg, MirroredDisk::new(replicas).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
    server.sync().map_err(|e| e.to_string())?;
    Ok(server.describe_layout().0.inode_slots())
}

fn parse_cap(hex: &str) -> Result<Capability, String> {
    let hex = hex.trim();
    if hex.len() != 32 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err("capability must be 32 hex digits".into());
    }
    let mut wire = [0u8; 16];
    for (i, byte) in wire.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("validated hex");
    }
    Capability::from_wire(&wire).map_err(|e| e.to_string())
}

fn cap_hex(cap: &Capability) -> String {
    cap.to_wire().iter().map(|b| format!("{b:02x}")).collect()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    let images: Vec<String> = rest.iter().take_while(|a| is_image(a)).cloned().collect();
    let extra: Vec<String> = rest.iter().skip(images.len()).cloned().collect();
    if images.is_empty() {
        return Err("at least one .img path is required".into());
    }

    match command.as_str() {
        "format" => {
            let mut blocks = 4096u64;
            let mut block_size = 512u32;
            let mut inodes = 256u32;
            let mut it = extra.iter();
            while let Some(flag) = it.next() {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--blocks" => blocks = value.parse().map_err(|e| format!("--blocks: {e}"))?,
                    "--block-size" => {
                        block_size = value.parse().map_err(|e| format!("--block-size: {e}"))?;
                    }
                    "--inodes" => inodes = value.parse().map_err(|e| format!("--inodes: {e}"))?,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            // The geometry is judged before any file exists (an operator's
            // typo must reach neither `FileDisk::create`'s assertion nor a
            // terabyte `set_len`), and whatever still fails afterwards
            // leaves behind no image this invocation created.
            DiskDescriptor::plan(block_size, blocks, inodes).map_err(|e| {
                let why = match e {
                    BulletError::Corrupt(why) => why,
                    other => other.to_string(),
                };
                format!("--block-size {block_size} --blocks {blocks} --inodes {inodes}: {why}")
            })?;
            let created: Vec<&String> = images
                .iter()
                .filter(|path| !std::path::Path::new(path).exists())
                .collect();
            let slots = format_images(&images, block_size, blocks, inodes).inspect_err(|_| {
                for path in created {
                    let _ = std::fs::remove_file(path);
                }
            })?;
            println!(
                "formatted {} replica(s): {} blocks of {} bytes, {} inodes",
                images.len(),
                blocks,
                block_size,
                slots
            );
            Ok(())
        }
        "info" => {
            let server = server_on(&images)?;
            let (desc, rows) = server.describe_layout();
            println!("block size   : {} bytes", desc.block_size);
            println!(
                "inode table  : {} blocks ({} slots)",
                desc.control_blocks,
                desc.inode_slots()
            );
            println!("data area    : {} blocks", desc.data_blocks);
            println!("live files   : {}", rows.len());
            let frag = server.disk_frag_report();
            println!(
                "free space   : {} / {} blocks in {} hole(s), largest {}, fragmentation {:.3}",
                frag.free,
                frag.total,
                frag.hole_count,
                frag.largest_hole,
                frag.external_fragmentation
            );
            Ok(())
        }
        "ls" => {
            let server = server_on(&images)?;
            println!("{:<34}  {:>10}  {:>10}", "capability", "bytes", "blocks");
            for cap in server.list_live_caps() {
                let size = server.size(&cap).map_err(|e| e.to_string())?;
                let (_, rows) = server.describe_layout();
                let blocks = rows
                    .iter()
                    .find(|r| r.inode == cap.object.value())
                    .map(|r| r.blocks)
                    .unwrap_or(0);
                println!("{:<34}  {:>10}  {:>10}", cap_hex(&cap), size, blocks);
            }
            Ok(())
        }
        "store" => {
            let [host_file] = &extra[..] else {
                return Err("store needs exactly one host file".into());
            };
            let data = std::fs::read(host_file).map_err(|e| format!("{host_file}: {e}"))?;
            let server = server_on(&images)?;
            let cap = server
                .create(Bytes::from(data), images.len() as u32)
                .map_err(|e| e.to_string())?;
            server.sync().map_err(|e| e.to_string())?;
            println!("{}", cap_hex(&cap));
            Ok(())
        }
        "cat" => {
            let [hex] = &extra[..] else {
                return Err("cat needs exactly one capability".into());
            };
            let server = server_on(&images)?;
            let data = server.read(&parse_cap(hex)?).map_err(|e| e.to_string())?;
            use std::io::Write;
            std::io::stdout()
                .write_all(&data)
                .map_err(|e| e.to_string())?;
            Ok(())
        }
        "rm" => {
            let [hex] = &extra[..] else {
                return Err("rm needs exactly one capability".into());
            };
            let server = server_on(&images)?;
            server.delete(&parse_cap(hex)?).map_err(|e| e.to_string())?;
            server.sync().map_err(|e| e.to_string())?;
            println!("deleted");
            Ok(())
        }
        "compact" => {
            let server = server_on(&images)?;
            let before = server.disk_frag_report();
            let moved = server.compact_disk().map_err(|e| e.to_string())?;
            server.sync().map_err(|e| e.to_string())?;
            let after = server.disk_frag_report();
            println!(
                "moved {} file(s); holes {} -> {}, largest {} -> {}",
                moved, before.hole_count, after.hole_count, before.largest_hole, after.largest_hole
            );
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            if msg == "missing command" {
                return usage();
            }
            eprintln!("bullet-admin: {msg}");
            ExitCode::FAILURE
        }
    }
}
