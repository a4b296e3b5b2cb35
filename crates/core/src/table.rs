//! The in-RAM inode table.
//!
//! "When the file server starts up, it reads the complete inode table into
//! the RAM inode table and keeps it there permanently." (§3)  Updates are
//! written through by rewriting the whole disk block containing the inode
//! — exactly what the server does on create and delete.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

use amoeba_cap::{Capability, CheckScheme, Rights};
use amoeba_disk::BlockDevice;

use crate::layout::{DiskDescriptor, Inode, INODE_SIZE};
use crate::BulletError;

/// How [`InodeTable::load`] reacts to inodes that fail the start-up
/// consistency scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Refuse to start: return [`BulletError::Corrupt`].
    Fail,
    /// Zero the offending inodes (losing those files) and continue; the
    /// count is reported in [`LoadReport::repaired`].
    ZeroBad,
}

/// Result of loading the table at start-up.
#[derive(Debug)]
pub struct LoadReport {
    /// The loaded table.
    pub table: InodeTable,
    /// Number of inodes zeroed by [`RepairPolicy::ZeroBad`].
    pub repaired: u32,
}

/// The complete inode table, resident in RAM.
#[derive(Debug)]
pub struct InodeTable {
    desc: DiskDescriptor,
    inodes: Vec<Inode>,
    /// One word per slot: the `(rights, check)` pair that
    /// [`CheckScheme::verify`] last accepted against the inode now in that
    /// slot, or zero.  See [`get_verified`](Self::get_verified).
    memo: Vec<AtomicU64>,
    /// One word per slot: the touch/age rounds the file in that slot has
    /// left, or zero while its countdown is unarmed.  See
    /// [`arm`](Self::arm).
    ages: Vec<AtomicU32>,
}

/// A clone remembers no verified capability and has no age armed.
impl Clone for InodeTable {
    fn clone(&self) -> InodeTable {
        InodeTable::assemble(self.desc, self.inodes.clone())
    }
}

/// Set in every non-empty memo word, so that a genuine capability with
/// no rights and a zero check field still differs from "nothing verified".
const MEMO_VALID: u64 = 1 << 56;

/// The memo word for `cap`: valid bit, 8 rights bits, 48 check bits.  A
/// check field wider than 48 bits has no word — it can never verify, and
/// packing it would alias a genuine capability's word.
fn memo_word(cap: &Capability) -> Option<u64> {
    (cap.check >> 48 == 0).then(|| MEMO_VALID | (cap.rights.bits() as u64) << 48 | cap.check)
}

/// [`CheckScheme::check_rights`] of `cap` against the check random
/// `random` for `needed`, skipping the cipher when `memo` holds `cap`'s
/// word (see [`memo_word`]), and leaving it there after a cipher pass.
/// `memo` must be zeroed whenever `random` changes, and is `Relaxed`
/// because it publishes nothing else.  The rule behind both
/// [`InodeTable::get_verified`] and the cache's published entries.
///
/// # Errors
///
/// [`BulletError::CapBad`] for a check field the scheme rejects, then
/// [`BulletError::Denied`] for a genuine capability without `needed`.
pub(crate) fn verify_memo(
    memo: &AtomicU64,
    cap: &Capability,
    needed: Rights,
    random: u64,
    scheme: &dyn CheckScheme,
) -> Result<(), BulletError> {
    let word = memo_word(cap);
    if word != Some(memo.load(Relaxed)) {
        scheme.verify(cap, random)?;
        if let Some(word) = word {
            memo.store(word, Relaxed);
        }
    }
    if cap.rights.contains(needed) {
        Ok(())
    } else {
        Err(BulletError::Denied)
    }
}

impl InodeTable {
    /// A table over `inodes` with nothing verified and no age armed yet.
    fn assemble(desc: DiskDescriptor, inodes: Vec<Inode>) -> InodeTable {
        InodeTable {
            desc,
            memo: inodes.iter().map(|_| AtomicU64::new(0)).collect(),
            ages: inodes.iter().map(|_| AtomicU32::new(0)).collect(),
            inodes,
        }
    }

    /// Formats `dev` with an empty Bullet layout: a disk descriptor sized
    /// so the inode table holds at least `min_inodes` slots, zeroed
    /// inodes, and all remaining blocks as the data area.
    ///
    /// # Errors
    ///
    /// Disk errors, or [`BulletError::Corrupt`] if
    /// [`DiskDescriptor::plan`] rejects the geometry.
    pub fn format(dev: &dyn BlockDevice, min_inodes: u32) -> Result<InodeTable, BulletError> {
        let desc = DiskDescriptor::plan(dev.block_size(), dev.num_blocks(), min_inodes)?;
        let table = InodeTable::assemble(desc, vec![Inode::default(); desc.inode_slots() as usize]);
        for b in 0..desc.control_blocks as u64 {
            dev.write_blocks(b, &table.block_image(b))?;
        }
        dev.sync()?;
        Ok(table)
    }

    /// Reads the complete inode table from a formatted device, performing
    /// the start-up consistency scan (bounds; overlap detection is the
    /// allocator rebuild's job, over the [`live`](Self::live) extents).
    /// With a WORM archive tier of `archive_blocks` blocks, an inode whose
    /// extent lies wholly within `[data_end, data_end + archive_blocks)`
    /// encodes an archive-resident file (the archive device block is
    /// `start_block - data_end`) and passes the scan.
    ///
    /// # Errors
    ///
    /// Disk errors, a corrupt descriptor, or — under
    /// [`RepairPolicy::Fail`] — any inode pointing outside both the data
    /// area and the archive tier.
    pub fn load(
        dev: &dyn BlockDevice,
        policy: RepairPolicy,
        archive_blocks: u64,
    ) -> Result<LoadReport, BulletError> {
        let bs = dev.block_size() as usize;
        // Inode `i` is read at flat offset `i * INODE_SIZE` below, which
        // is where `block_image` put it only if no block has slack.
        if bs == 0 || !bs.is_multiple_of(INODE_SIZE) {
            return Err(BulletError::Corrupt(format!(
                "device block size {bs} is not a positive multiple of the {INODE_SIZE}-byte inode"
            )));
        }
        let mut block0 = vec![0u8; bs];
        dev.read_blocks(0, &mut block0)?;
        let desc = DiskDescriptor::decode(
            block0[..INODE_SIZE]
                .try_into()
                .expect("block holds an inode"),
        )?;
        if desc.block_size != dev.block_size() {
            return Err(BulletError::Corrupt(format!(
                "descriptor block size {} does not match device block size {}",
                desc.block_size,
                dev.block_size()
            )));
        }
        if desc.data_end() > dev.num_blocks() {
            return Err(BulletError::Corrupt(
                "descriptor claims more blocks than the device has".into(),
            ));
        }

        let mut raw = vec![0u8; desc.control_blocks as usize * bs];
        dev.read_blocks(0, &mut raw)?;

        let slots = desc.inode_slots() as usize;
        let mut inodes = vec![Inode::default(); slots];
        let mut repaired = 0;
        for (i, inode) in inodes.iter_mut().enumerate().skip(1) {
            let off = i * INODE_SIZE;
            let mut parsed =
                Inode::decode(raw[off..off + INODE_SIZE].try_into().expect("within table"));
            // "The index has no significance on disk."
            parsed.index = 0;
            if !parsed.is_free() {
                let start = parsed.start_block as u64;
                let blocks = parsed.blocks(desc.block_size);
                // The log window is part of the data area, so the scan
                // needs no log geometry to bound an extent.
                if desc.residency(start, blocks, 0, archive_blocks).is_none() {
                    match policy {
                        RepairPolicy::Fail => {
                            return Err(BulletError::Corrupt(format!(
                                "inode {i} extent [{start}, {}) outside data area",
                                start + blocks
                            )))
                        }
                        RepairPolicy::ZeroBad => {
                            repaired += 1;
                            continue; // leave zeroed
                        }
                    }
                }
            }
            *inode = parsed;
        }

        Ok(LoadReport {
            table: InodeTable::assemble(desc, inodes),
            repaired,
        })
    }

    /// The disk descriptor.
    pub fn descriptor(&self) -> &DiskDescriptor {
        &self.desc
    }

    /// Number of live files.
    pub fn live_count(&self) -> usize {
        self.inodes.iter().skip(1).filter(|i| !i.is_free()).count()
    }

    /// Whether slot `idx` exists and holds no file (slot 0, the
    /// descriptor, never does).
    pub fn is_free(&self, idx: u32) -> bool {
        idx != 0 && self.inodes.get(idx as usize).is_some_and(Inode::is_free)
    }

    /// Puts `inode` into the free slot `idx`.  The table keeps no free
    /// list: which slot a new file gets is its owner's choice (the
    /// server's allocator, or a log record being replayed).
    ///
    /// # Errors
    ///
    /// [`BulletError::Corrupt`] if `idx` is slot 0, out of range, or
    /// currently live.
    pub fn put(&mut self, idx: u32, inode: Inode) -> Result<(), BulletError> {
        debug_assert!(!inode.is_free(), "putting a zero inode");
        if !self.is_free(idx) {
            return Err(BulletError::Corrupt(format!(
                "cannot put into slot {idx}: missing or live"
            )));
        }
        self.rebind(idx, inode);
        Ok(())
    }

    /// [`put`](Self::put) into the lowest free slot, returning its index:
    /// for a table used on its own, with no allocator choosing slots.
    ///
    /// # Errors
    ///
    /// [`BulletError::NoInodes`] when the table is full.
    pub fn alloc(&mut self, inode: Inode) -> Result<u32, BulletError> {
        let idx = (1..self.inodes.len() as u32)
            .find(|&i| self.is_free(i))
            .ok_or(BulletError::NoInodes)?;
        self.put(idx, inode)?;
        Ok(idx)
    }

    /// Looks up a live inode.
    ///
    /// # Errors
    ///
    /// [`BulletError::NotFound`] for slot 0, out-of-range, or free slots.
    pub fn get(&self, idx: u32) -> Result<&Inode, BulletError> {
        match self.inodes.get(idx as usize) {
            Some(inode) if idx != 0 && !inode.is_free() => Ok(inode),
            _ => Err(BulletError::NotFound),
        }
    }

    /// Mutable access to a live inode (extent moves).
    ///
    /// # Errors
    ///
    /// [`BulletError::NotFound`] as for [`get`](Self::get).
    pub fn get_mut(&mut self, idx: u32) -> Result<&mut Inode, BulletError> {
        self.get(idx)?;
        Ok(self.slot_mut(idx))
    }

    /// The one way to write slot `idx`: whatever capability was verified
    /// against the old contents is forgotten first.
    fn slot_mut(&mut self, idx: u32) -> &mut Inode {
        *self.memo[idx as usize].get_mut() = 0;
        &mut self.inodes[idx as usize]
    }

    /// Gives slot `idx` a new identity (a new file, or none) whose age is
    /// unarmed.  [`get_mut`](Self::get_mut)'s edits (an extent move) keep
    /// the file, and so keep its age.
    fn rebind(&mut self, idx: u32, inode: Inode) {
        *self.ages[idx as usize].get_mut() = 0;
        *self.slot_mut(idx) = inode;
    }

    /// Looks up the live inode `cap` names and checks the capability
    /// against it: exactly [`get`](Self::get) followed by
    /// [`CheckScheme::check_rights`], except that a `(rights, check)` pair
    /// `scheme.verify` has already accepted for this slot's current inode
    /// is not put through the cipher again.
    ///
    /// A file's random number cannot change between create and delete, so
    /// neither can `verify`'s answer for a given pair.  The slot's memo
    /// word holds the one pair last accepted; every `&mut self` write to
    /// the slot zeroes it (`slot_mut`), and readers fill it only while
    /// they hold the table shared, when no such write can run.  A hit is
    /// therefore the answer the full check would give at that instant.
    /// The pair is one word so that concurrent readers filling it with
    /// different capabilities can never leave the rights of one beside
    /// the check field of another; it publishes nothing else, so the
    /// accesses are `Relaxed`.
    ///
    /// Every call against one table must pass the same `scheme`.
    ///
    /// # Errors
    ///
    /// [`BulletError::NotFound`] as for [`get`](Self::get), then
    /// [`BulletError::CapBad`] for a check field the scheme rejects, then
    /// [`BulletError::Denied`] for a genuine capability without `needed`.
    pub fn get_verified(
        &self,
        cap: &Capability,
        needed: Rights,
        scheme: &dyn CheckScheme,
    ) -> Result<&Inode, BulletError> {
        let idx = cap.object.value();
        let inode = self.get(idx)?;
        verify_memo(&self.memo[idx as usize], cap, needed, inode.random, scheme)?;
        Ok(inode)
    }

    /// Starts slot `idx`'s touch/age countdown over at `rounds`: the file
    /// survives `rounds - 1` [`age_round`](Self::age_round)s untouched and
    /// expires in the next.  Zero is the unarmed word, so a countdown of
    /// zero is stored as one, which expires at the same round.
    ///
    /// A shared guard suffices, as for the memo: only the `&mut self`
    /// writes that rebind the slot (`put`, `clear`) unarm it, and the word publishes nothing else, so the accesses are
    /// `Relaxed`.
    pub(crate) fn arm(&self, idx: u32, rounds: u32) {
        self.ages[idx as usize].store(rounds.max(1), Relaxed);
    }

    /// Rounds left on slot `idx`'s countdown, or zero while it is unarmed.
    pub(crate) fn age(&self, idx: u32) -> u32 {
        self.ages[idx as usize].load(Relaxed)
    }

    /// One aging round: each live slot with an armed age, in index order,
    /// loses one round, and the `(index, random)` of every file whose
    /// countdown ends is returned, its word unarmed.  Each decrement is
    /// one atomic step, so a concurrent [`arm`](Self::arm) lands wholly
    /// before or after it.
    pub(crate) fn age_round(&self) -> Vec<(u32, u64)> {
        self.live()
            .filter(|&(idx, _)| {
                let word = &self.ages[idx as usize];
                word.fetch_update(Relaxed, Relaxed, |w| w.checked_sub(1)) == Ok(1)
            })
            .map(|(idx, inode)| (idx, inode.random))
            .collect()
    }

    /// Zeroes a live inode (file deletion).  Whether the slot may take a
    /// new file again is the allocator's business, not the table's.
    ///
    /// # Errors
    ///
    /// [`BulletError::NotFound`] if the slot is not live.
    pub fn clear(&mut self, idx: u32) -> Result<(), BulletError> {
        self.get(idx)?;
        self.rebind(idx, Inode::default());
        Ok(())
    }

    /// The control block containing inode `idx` (for write-through).
    pub fn block_of(&self, idx: u32) -> u64 {
        (idx / (self.desc.block_size / INODE_SIZE as u32)) as u64
    }

    /// Serializes control block `block` from the RAM table — "the whole
    /// disk block containing the inode has to be written".
    ///
    /// # Panics
    ///
    /// Panics if `block` is not a control block.
    pub fn block_image(&self, block: u64) -> Vec<u8> {
        assert!(
            block < self.desc.control_blocks as u64,
            "not a control block"
        );
        let per_block = (self.desc.block_size / INODE_SIZE as u32) as usize;
        let mut out = vec![0u8; self.desc.block_size as usize];
        for i in 0..per_block {
            let idx = block as usize * per_block + i;
            let enc = if idx == 0 {
                self.desc.encode()
            } else if idx < self.inodes.len() {
                self.inodes[idx].encode()
            } else {
                [0u8; INODE_SIZE]
            };
            out[i * INODE_SIZE..(i + 1) * INODE_SIZE].copy_from_slice(&enc);
        }
        out
    }

    /// Iterates over `(index, inode)` for all live files.
    pub fn live(&self) -> impl Iterator<Item = (u32, &Inode)> {
        self.inodes
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, inode)| !inode.is_free())
            .map(|(i, inode)| (i as u32, inode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::{CapError, MacScheme, ObjNum, Port};
    use amoeba_disk::RamDisk;

    fn dev() -> RamDisk {
        RamDisk::new(512, 256)
    }

    #[test]
    fn format_and_reload_empty() {
        let d = dev();
        let t = InodeTable::format(&d, 100).unwrap();
        assert!(t.descriptor().inode_slots() >= 101);
        let r = InodeTable::load(&d, RepairPolicy::Fail, 0).unwrap();
        assert_eq!(r.repaired, 0);
        assert_eq!(r.table.live_count(), 0);
        assert_eq!(r.table.descriptor(), t.descriptor());
    }

    #[test]
    fn format_rejects_tiny_device() {
        let d = RamDisk::new(512, 1);
        assert!(InodeTable::format(&d, 100).is_err());
        let d2 = RamDisk::new(8, 16); // block too small for an inode
        assert!(InodeTable::format(&d2, 4).is_err());
    }

    #[test]
    fn a_block_size_with_slack_after_its_inodes_is_rejected_both_ways() {
        // 24-byte blocks pack one inode plus 8 bytes of slack, but the
        // table is read back flat: inode 1 would land across the slack.
        let d = RamDisk::new(24, 64);
        for result in [
            InodeTable::format(&d, 4).map(drop),
            InodeTable::load(&d, RepairPolicy::Fail, 0).map(drop),
        ] {
            let err = result.unwrap_err().to_string();
            assert!(err.contains("block size 24"), "{err}");
        }
        // Every accepted size round-trips an inode through the image.
        for block_size in [16, 32, 48, 512] {
            let d = RamDisk::new(block_size, 64);
            let mut t = InodeTable::format(&d, 4).unwrap();
            let inode = Inode {
                random: 0xabcdef,
                index: 0,
                start_block: t.descriptor().data_start() as u32,
                size_bytes: 100,
            };
            let idx = t.alloc(inode).unwrap();
            d.write_blocks(t.block_of(idx), &t.block_image(t.block_of(idx)))
                .unwrap();
            let back = InodeTable::load(&d, RepairPolicy::Fail, 0).unwrap().table;
            assert_eq!(back.get(idx).unwrap(), t.get(idx).unwrap());
        }
    }

    #[test]
    fn an_inode_count_that_overflows_32_bits_is_a_clean_error() {
        let err = InodeTable::format(&dev(), u32::MAX)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("cannot hold 134217728 control blocks"),
            "{err}"
        );
    }

    #[test]
    fn alloc_get_clear() {
        let mut t = InodeTable::format(&dev(), 10).unwrap();
        let idx = t.alloc(file(&t)).unwrap();
        assert_eq!(idx, 1, "low slots first");
        assert_eq!(t.get(idx).unwrap().random, RANDOM);
        assert_eq!(t.live_count(), 1);
        t.clear(idx).unwrap();
        assert!(t.get(idx).is_err());
        assert_eq!(t.live_count(), 0);
        // Freed slot is reused.
        assert_eq!(t.alloc(file(&t)).unwrap(), idx);
    }

    #[test]
    fn put_takes_only_a_free_slot() {
        let mut t = InodeTable::format(&dev(), 10).unwrap();
        let live = t.alloc(file(&t)).unwrap();
        let past = t.descriptor().inode_slots();
        for idx in [0, live, past] {
            let err = t.put(idx, file(&t)).unwrap_err();
            assert!(
                matches!(err, BulletError::Corrupt(_)),
                "slot {idx}: {err:?}"
            );
        }
        t.put(past - 1, file(&t)).unwrap();
        assert_eq!(
            t.live().map(|(i, _)| i).collect::<Vec<_>>(),
            [live, past - 1]
        );
    }

    /// `MacScheme` counting its `verify` calls, to tell a memo hit (no
    /// call) from a miss.
    struct Counting(MacScheme, AtomicU64);

    impl CheckScheme for Counting {
        fn mint(&self, port: Port, object: ObjNum, rights: Rights, random: u64) -> Capability {
            self.0.mint(port, object, rights, random)
        }
        fn verify(&self, cap: &Capability, random: u64) -> Result<(), CapError> {
            self.1.fetch_add(1, Relaxed);
            self.0.verify(cap, random)
        }
        fn restrict(&self, cap: &Capability, mask: Rights) -> Option<Capability> {
            self.0.restrict(cap, mask)
        }
    }

    const RANDOM: u64 = 0xfeed_beef;

    fn file(t: &InodeTable) -> Inode {
        Inode {
            random: RANDOM,
            start_block: t.descriptor().data_start() as u32,
            ..Inode::default()
        }
    }

    /// A table with one file, its scheme, and the file's owner capability.
    fn one_file() -> (InodeTable, Counting, Capability) {
        let mut t = InodeTable::format(&dev(), 10).unwrap();
        let scheme = Counting(MacScheme::from_seed(7), AtomicU64::new(0));
        let idx = t.alloc(file(&t)).unwrap();
        let object = ObjNum::new(idx).unwrap();
        let owner = scheme.mint(Port::from_u64(1), object, Rights::ALL, RANDOM);
        (t, scheme, owner)
    }

    #[test]
    fn a_verified_capability_skips_the_cipher_until_the_slot_is_written() {
        let (mut t, scheme, owner) = one_file();
        let idx = owner.object.value();
        let calls = || scheme.1.load(Relaxed);
        for expected_calls in [1, 1, 1] {
            assert!(t.get_verified(&owner, Rights::READ, &scheme).is_ok());
            assert_eq!(calls(), expected_calls);
        }
        // Each way of writing the slot forgets the capability.
        t.get_mut(idx).unwrap().start_block += 1;
        assert_eq!(t.memo[idx as usize].load(Relaxed), 0, "get_mut");
        assert!(t.get_verified(&owner, Rights::READ, &scheme).is_ok());
        assert_eq!(calls(), 2);
        t.clear(idx).unwrap();
        assert_eq!(t.memo[idx as usize].load(Relaxed), 0, "clear");
        assert_eq!(
            t.get_verified(&owner, Rights::READ, &scheme).unwrap_err(),
            BulletError::NotFound
        );
        // A slot is free when put reaches it, so its word is zero
        // already; plant one to see that put does not rely on that.
        t.memo[idx as usize].store(memo_word(&owner).unwrap(), Relaxed);
        t.put(idx, file(&t)).unwrap();
        assert_eq!(t.memo[idx as usize].load(Relaxed), 0, "put");
    }

    #[test]
    fn a_cloned_or_loaded_table_has_verified_nothing() {
        let (t, scheme, owner) = one_file();
        let idx = owner.object.value();
        assert!(t.get_verified(&owner, Rights::READ, &scheme).is_ok());
        assert_ne!(t.memo[idx as usize].load(Relaxed), 0);
        assert_eq!(t.clone().memo[idx as usize].load(Relaxed), 0);

        let d = dev();
        d.write_blocks(0, &t.block_image(0)).unwrap();
        let loaded = InodeTable::load(&d, RepairPolicy::Fail, 0).unwrap().table;
        assert_eq!(loaded.get(idx).unwrap().random, RANDOM);
        assert!(loaded.memo.iter().all(|w| w.load(Relaxed) == 0));
    }

    #[test]
    fn an_age_is_the_files_and_ends_only_with_its_slot() {
        let (mut t, scheme, owner) = one_file();
        let idx = owner.object.value();
        // Edits that keep the file keep its age.
        t.arm(idx, 5);
        assert!(t.get_verified(&owner, Rights::READ, &scheme).is_ok());
        assert_eq!(t.age(idx), 5, "memo fill");
        t.get_mut(idx).unwrap().start_block += 1;
        assert_eq!(t.age(idx), 5, "start-block move");
        // Each write that gives the slot a new identity unarms it; arm it
        // first each time to see that none relies on finding it unarmed.
        t.clear(idx).unwrap();
        assert_eq!(t.age(idx), 0, "clear");
        t.arm(idx, 5);
        t.put(idx, file(&t)).unwrap();
        assert_eq!(t.age(idx), 0, "put");
        // A clone or a loaded table starts with nothing armed.
        t.arm(idx, 5);
        assert_eq!(t.clone().age(idx), 0, "clone");
        let d = dev();
        d.write_blocks(0, &t.block_image(0)).unwrap();
        let loaded = InodeTable::load(&d, RepairPolicy::Fail, 0).unwrap().table;
        assert_eq!(loaded.get(idx).unwrap().random, RANDOM);
        assert_eq!(loaded.age(idx), 0, "load");
    }

    #[test]
    fn an_aging_round_counts_down_armed_live_slots_in_index_order() {
        let mut t = InodeTable::format(&dev(), 10).unwrap();
        let idxs: Vec<u32> = (0..5).map(|_| t.alloc(file(&t)).unwrap()).collect();
        // idxs[0] stays unarmed, idxs[4] is armed and then freed, and a
        // countdown of zero expires in the first round, like one.
        t.arm(idxs[3], 1);
        t.arm(idxs[2], 0);
        t.arm(idxs[1], 2);
        t.arm(idxs[4], 1);
        t.clear(idxs[4]).unwrap();
        assert_eq!(t.age_round(), [(idxs[2], RANDOM), (idxs[3], RANDOM)]);
        let ages: Vec<u32> = idxs.iter().map(|&i| t.age(i)).collect();
        assert_eq!(ages, [0, 1, 0, 0, 0]);
        assert_eq!(t.age_round(), [(idxs[1], RANDOM)]);
        assert!(t.age_round().is_empty());
    }

    #[test]
    fn the_memo_admits_only_the_pair_it_holds() {
        let (t, scheme, owner) = one_file();
        let reader = scheme.mint(owner.port, owner.object, Rights::READ, RANDOM);
        let verdict = |cap: &Capability, needed| t.get_verified(cap, needed, &scheme).map(drop);
        for (first, second) in [(owner, reader), (reader, owner)] {
            assert_eq!(verdict(&first, Rights::READ), Ok(()));
            // The memoised check field under other rights, and the
            // memoised rights under another check field, both miss.
            for forged in [
                Capability {
                    rights: second.rights,
                    ..first
                },
                Capability {
                    check: second.check,
                    ..first
                },
                Capability {
                    check: first.check | 1 << 50,
                    ..first
                },
            ] {
                assert_eq!(verdict(&forged, Rights::READ), Err(BulletError::CapBad));
            }
            // A rejected capability does not evict the accepted one.
            let before = scheme.1.load(Relaxed);
            assert_eq!(verdict(&first, Rights::READ), Ok(()));
            assert_eq!(scheme.1.load(Relaxed), before);
            assert_eq!(verdict(&second, Rights::READ), Ok(()));
        }
        // A hit still answers the rights question per request.
        assert_eq!(verdict(&reader, Rights::READ), Ok(()));
        assert_eq!(verdict(&reader, Rights::DESTROY), Err(BulletError::Denied));
    }

    #[test]
    fn slot_zero_and_free_slots_not_gettable() {
        let d = dev();
        let t = InodeTable::format(&d, 10).unwrap();
        assert!(t.get(0).is_err());
        assert!(t.get(1).is_err());
        assert!(t.get(9999).is_err());
    }

    #[test]
    fn exhaustion_reports_noinodes() {
        // One control block of 512/16 = 32 slots, 31 usable.
        let mut t = InodeTable::format(&dev(), 1).unwrap();
        for _ in 1..t.descriptor().inode_slots() {
            t.alloc(file(&t)).unwrap();
        }
        assert_eq!(t.alloc(file(&t)).unwrap_err(), BulletError::NoInodes);
    }

    #[test]
    fn write_back_and_reload_preserves_inodes() {
        let d = dev();
        let mut t = InodeTable::format(&d, 10).unwrap();
        let data_start = t.descriptor().data_start() as u32;
        let idx = t
            .alloc(Inode {
                random: 0xbeef,
                index: 3, // as older builds wrote it; must NOT survive reload
                start_block: data_start,
                size_bytes: 512,
            })
            .unwrap();
        d.write_blocks(t.block_of(idx), &t.block_image(t.block_of(idx)))
            .unwrap();

        let r = InodeTable::load(&d, RepairPolicy::Fail, 0).unwrap();
        let got = r.table.get(idx).unwrap();
        assert_eq!(got.random, 0xbeef);
        assert_eq!(got.index, 0, "cache index has no significance on disk");
        assert_eq!(got.start_block, data_start);
        assert_eq!(r.table.live().count(), 1);
        assert_eq!(got.blocks(r.table.descriptor().block_size), 1);
    }

    #[test]
    fn load_detects_out_of_area_extent() {
        let d = dev();
        let mut t = InodeTable::format(&d, 10).unwrap();
        let idx = t
            .alloc(Inode {
                random: 7,
                index: 0,
                start_block: 0, // inside the control area: invalid
                size_bytes: 512,
            })
            .unwrap();
        d.write_blocks(t.block_of(idx), &t.block_image(t.block_of(idx)))
            .unwrap();

        assert!(matches!(
            InodeTable::load(&d, RepairPolicy::Fail, 0),
            Err(BulletError::Corrupt(_))
        ));
        let r = InodeTable::load(&d, RepairPolicy::ZeroBad, 0).unwrap();
        assert_eq!(r.repaired, 1);
        assert_eq!(r.table.live_count(), 0);
    }

    #[test]
    fn load_accepts_archive_range_extents() {
        let d = dev();
        let mut t = InodeTable::format(&d, 10).unwrap();
        let data_end = t.descriptor().data_end() as u32;
        let idx = t
            .alloc(Inode {
                random: 9,
                index: 0,
                start_block: data_end + 2, // archive block 2
                size_bytes: 512,
            })
            .unwrap();
        d.write_blocks(t.block_of(idx), &t.block_image(t.block_of(idx)))
            .unwrap();

        // Without archive geometry the extent is out of area.
        assert!(InodeTable::load(&d, RepairPolicy::Fail, 0).is_err());
        let r = InodeTable::load(&d, RepairPolicy::Fail, 8).unwrap();
        assert_eq!(r.table.get(idx).unwrap().start_block, data_end + 2);
        // An archive too small for the extent still rejects it.
        assert!(InodeTable::load(&d, RepairPolicy::Fail, 2).is_err());
    }

    #[test]
    fn residency_and_the_load_scan_agree_at_every_region_boundary() {
        use crate::layout::Residency::{self, Archive, Home, Log};
        const LOG: u64 = 16;
        const ARCHIVE: u64 = 8;
        let desc = *InodeTable::format(&dev(), 10).unwrap().descriptor();
        let (ds, de) = (desc.data_start(), desc.data_end());
        let ls = de - LOG;
        // (start, blocks, expected): one-block extents on each side of
        // every boundary, then extents that straddle a device's end.
        let cases: [(u64, u64, Option<Residency>); 10] = [
            (ds - 1, 1, None),
            (ds, 1, Some(Home)),
            (ls - 1, 1, Some(Home)),
            (ls, 1, Some(Log)),
            (de - 1, 1, Some(Log)),
            (de, 1, Some(Archive { block: 0 })),
            (de + ARCHIVE - 1, 1, Some(Archive { block: ARCHIVE - 1 })),
            (de + ARCHIVE, 1, None),
            (de - 1, 2, None),
            (de + ARCHIVE - 1, 2, None),
        ];
        for (start, blocks, expected) in cases {
            assert_eq!(
                desc.residency(start, blocks, LOG, ARCHIVE),
                expected,
                "classifying [{start}, +{blocks})"
            );
            // The start-up scan accepts exactly the classifiable extents.
            let d = dev();
            let mut t = InodeTable::format(&d, 10).unwrap();
            let idx = t
                .alloc(Inode {
                    random: 9,
                    index: 0,
                    start_block: start as u32,
                    size_bytes: (blocks * 512) as u32,
                })
                .unwrap();
            d.write_blocks(t.block_of(idx), &t.block_image(t.block_of(idx)))
                .unwrap();
            let loaded = InodeTable::load(&d, RepairPolicy::Fail, ARCHIVE);
            assert_eq!(
                loaded.is_ok(),
                expected.is_some(),
                "loading [{start}, +{blocks})"
            );
            // The inverse mapping names the same archive block.
            if let Some(Archive { block }) = expected {
                assert_eq!(desc.archive_start(block), start);
            }
        }
    }

    #[test]
    fn load_rejects_foreign_disk() {
        let d = dev();
        assert!(matches!(
            InodeTable::load(&d, RepairPolicy::Fail, 0),
            Err(BulletError::Corrupt(_))
        ));
    }

    #[test]
    fn block_of_maps_indices_to_blocks() {
        let d = dev();
        let t = InodeTable::format(&d, 100).unwrap();
        let per_block = 512 / 16;
        assert_eq!(t.block_of(0), 0);
        assert_eq!(t.block_of(per_block - 1), 0);
        assert_eq!(t.block_of(per_block), 1);
    }

    #[test]
    fn live_iterates_only_live() {
        let mut t = InodeTable::format(&dev(), 10).unwrap();
        let a = t.alloc(file(&t)).unwrap();
        let b = t.alloc(file(&t)).unwrap();
        t.clear(a).unwrap();
        let live: Vec<u32> = t.live().map(|(i, _)| i).collect();
        assert_eq!(live, vec![b]);
    }
}
