//! Amoeba-style capabilities for the Bullet file server reproduction.
//!
//! Every object in Amoeba — a Bullet file, a directory, a log — is addressed
//! and protected by a 16-byte *capability* ([`Capability`]) consisting of:
//!
//! 1. a [`Port`]: a 48-bit location-independent server identifier,
//! 2. an [`ObjNum`]: a 24-bit object number interpreted by the server
//!    (e.g. an index into the Bullet inode table),
//! 3. a [`Rights`] byte: which operations the holder may invoke,
//! 4. a [`Check`] field: 48 bits protecting the capability against forging
//!    and tampering.
//!
//! The check field is produced by encrypting the rights together with a large
//! random number stored in the object's inode, exactly as §2.1 of the paper
//! describes.  Two interchangeable protection schemes are provided (see
//! [`check`]):
//!
//! * [`check::MacScheme`] — the scheme the paper sketches: the server keeps a
//!   secret key and computes `check = E_k(object, rights, random)`; every
//!   presented capability is re-derived and compared.
//! * [`check::AmoebaScheme`] — the published Amoeba scheme (Tanenbaum,
//!   Mullender, van Renesse, *Using Sparse Capabilities*, ICDCS 1986): the
//!   owner capability carries the raw random number and anyone can *restrict*
//!   it client-side through a public one-way function, without a server
//!   round-trip.
//!
//! The underlying 64-bit block cipher is a from-scratch [XTEA]
//! implementation ([`xtea`]); no external cryptography crate is used, which
//! is faithful to the original system (the authors rolled their own, too).
//!
//! [XTEA]: https://en.wikipedia.org/wiki/XTEA
//!
//! # Example
//!
//! ```
//! use amoeba_cap::{check::{CheckScheme, MacScheme}, ObjNum, Port, Rights};
//!
//! let scheme = MacScheme::from_seed(42);
//! let port = Port::from_bytes([1, 2, 3, 4, 5, 6]);
//! let random = 0x1234_5678_9abc; // stored in the object's inode
//!
//! let cap = scheme.mint(port, ObjNum::new(7).unwrap(), Rights::ALL, random);
//! assert!(scheme.verify(&cap, random).is_ok());
//!
//! // Tampering with the rights byte is detected.
//! let mut forged = cap;
//! forged.rights = Rights::READ;
//! assert!(scheme.verify(&forged, random).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capability;
pub mod check;
pub mod error;
pub mod port;
pub mod rights;
pub mod xtea;

pub use capability::{Capability, CAP_WIRE_LEN};
pub use check::{AmoebaScheme, CheckScheme, MacScheme, ServerKey};
pub use error::CapError;
pub use port::Port;
pub use rights::Rights;

/// A 24-bit object number: the per-server index of an object (for the Bullet
/// server, the index of the file's inode).
///
/// Object number 0 is reserved (inode 0 is the disk descriptor), but the type
/// itself permits it so that servers can use it for administrative objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjNum(u32);

impl ObjNum {
    /// Largest representable object number (24 bits).
    pub const MAX: u32 = 0x00ff_ffff;

    /// Creates an object number, returning `None` if `n` exceeds 24 bits.
    pub fn new(n: u32) -> Option<Self> {
        (n <= Self::MAX).then_some(ObjNum(n))
    }

    /// Returns the numeric value.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for ObjNum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<u32> for ObjNum {
    type Error = CapError;

    fn try_from(n: u32) -> Result<Self, CapError> {
        ObjNum::new(n).ok_or(CapError::ObjectNumberTooLarge(n))
    }
}

impl From<ObjNum> for u32 {
    fn from(n: ObjNum) -> u32 {
        n.0
    }
}

/// A 48-bit check field protecting a capability against forging.
pub type Check = u64; // only the low 48 bits are meaningful

/// Masks a value down to the low 48 bits used by check fields and ports.
#[inline]
pub fn mask48(v: u64) -> u64 {
    v & 0x0000_ffff_ffff_ffff
}

/// Maps an object number onto one of `shards` Bullet server instances.
///
/// Ports are location-independent, so several server instances can share
/// one service port; what distinguishes them is which object numbers they
/// own.  This is the routing function: an FNV-1a hash over the object
/// number's little-endian bytes, reduced modulo the shard count.  It is a
/// pure function of the capability's [`ObjNum`] — no table lookup, so a
/// gateway can route without holding any per-object state, and any party
/// holding a capability can compute where it lives.
///
/// `shards == 0` is treated as 1 (everything routes to shard 0), so a
/// degenerate configuration can never panic on the routing path.
#[inline]
pub fn shard_of(object: u32, shards: u32) -> u32 {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in object.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objnum_rejects_out_of_range() {
        assert!(ObjNum::new(ObjNum::MAX).is_some());
        assert!(ObjNum::new(ObjNum::MAX + 1).is_none());
        assert_eq!(
            ObjNum::try_from(0x0100_0000).unwrap_err(),
            CapError::ObjectNumberTooLarge(0x0100_0000)
        );
    }

    #[test]
    fn objnum_roundtrip_display() {
        let n = ObjNum::new(12345).unwrap();
        assert_eq!(n.to_string(), "12345");
        assert_eq!(u32::from(n), 12345);
    }

    #[test]
    fn mask48_truncates() {
        assert_eq!(mask48(u64::MAX), 0x0000_ffff_ffff_ffff);
        assert_eq!(mask48(7), 7);
    }

    #[test]
    fn shard_of_stays_in_range_and_is_stable() {
        for shards in 1..=8u32 {
            for obj in [0u32, 1, 2, 1000, ObjNum::MAX] {
                let s = shard_of(obj, shards);
                assert!(s < shards, "shard_of({obj}, {shards}) = {s}");
                assert_eq!(s, shard_of(obj, shards), "routing must be stable");
            }
        }
    }

    #[test]
    fn shard_of_degenerate_counts_route_to_zero() {
        assert_eq!(shard_of(123, 0), 0);
        assert_eq!(shard_of(123, 1), 0);
    }

    #[test]
    fn shard_of_spreads_consecutive_objects() {
        // Inode slots are handed out low-first, so consecutive object
        // numbers are the common case; they must not all pile onto one
        // shard.
        let shards = 4;
        let mut counts = vec![0u32; shards as usize];
        for obj in 1..=1000 {
            counts[shard_of(obj, shards) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {i} received no objects");
        }
    }
}
