//! 48-bit Amoeba server ports.

use rand::Rng;

/// A 48-bit location-independent server identifier.
///
/// A port names a *service*, not a machine: it is chosen by the server itself
/// (typically at random, so that it is unguessable) and published to clients.
/// The RPC layer locates whichever machine currently listens on the port.
///
/// # Example
///
/// ```
/// use amoeba_cap::Port;
///
/// let p = Port::from_bytes([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
/// assert_eq!(p.to_string(), "de:ad:be:ef:00:01");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Port([u8; 6]);

impl Port {
    /// The null port: never a valid service address.
    pub const NULL: Port = Port([0; 6]);

    /// Creates a port from its 6 raw bytes.
    pub fn from_bytes(bytes: [u8; 6]) -> Self {
        Port(bytes)
    }

    /// Creates a port from the low 48 bits of `v`.
    pub fn from_u64(v: u64) -> Self {
        let b = v.to_be_bytes();
        Port([b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Draws a fresh random port, the way an Amoeba server picks its own
    /// service address at startup.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 6];
        rng.fill(&mut bytes[..]);
        // Avoid the null port, which is reserved.
        if bytes == [0; 6] {
            bytes[5] = 1;
        }
        Port(bytes)
    }

    /// Returns the raw bytes of the port.
    pub fn as_bytes(&self) -> &[u8; 6] {
        &self.0
    }

    /// Returns the port as the low 48 bits of a `u64`.
    pub fn to_u64(self) -> u64 {
        let b = self.0;
        u64::from_be_bytes([0, 0, b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// True if this is the reserved null port.
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }
}

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl From<[u8; 6]> for Port {
    fn from(bytes: [u8; 6]) -> Self {
        Port(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn u64_roundtrip() {
        let p = Port::from_u64(0x0000_1234_5678_9abc);
        assert_eq!(p.to_u64(), 0x0000_1234_5678_9abc);
        // High bits beyond 48 are discarded.
        let q = Port::from_u64(0xffff_1234_5678_9abc);
        assert_eq!(q.to_u64(), 0x0000_1234_5678_9abc);
    }

    #[test]
    fn random_ports_differ_and_are_not_null() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Port::random(&mut rng);
        let b = Port::random(&mut rng);
        assert_ne!(a, b);
        assert!(!a.is_null());
        assert!(!b.is_null());
    }

    #[test]
    fn null_port_is_null() {
        assert!(Port::NULL.is_null());
        assert!(!Port::from_u64(1).is_null());
    }

    #[test]
    fn display_format() {
        let p = Port::from_bytes([1, 2, 3, 4, 5, 0xff]);
        assert_eq!(p.to_string(), "01:02:03:04:05:ff");
    }
}
