//! The 16-byte capability and its wire encoding.

use crate::{mask48, CapError, Check, ObjNum, Port, Rights};

/// Length of a capability on the wire, in bytes.
pub const CAP_WIRE_LEN: usize = 16;

/// A 16-byte Amoeba capability: the universal object handle.
///
/// Layout on the wire (matching the original Amoeba layout):
///
/// ```text
/// +--------+--------+--------+--------+
/// |          port (6 bytes)           |
/// +--------+--------+--------+--------+
/// | object (3 bytes)         | rights |
/// +--------+--------+--------+--------+
/// |          check (6 bytes)          |
/// +--------+--------+--------+--------+
/// ```
///
/// The fields are public in the C-struct spirit: a capability is passive
/// data whose integrity is protected cryptographically (by the check field),
/// not by Rust visibility.
///
/// # Example
///
/// ```
/// use amoeba_cap::{Capability, ObjNum, Port, Rights};
///
/// let cap = Capability::new(Port::from_u64(77), ObjNum::new(3).unwrap(), Rights::READ, 0xabc);
/// let wire = cap.to_wire();
/// assert_eq!(Capability::from_wire(&wire)?, cap);
/// # Ok::<(), amoeba_cap::CapError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capability {
    /// The service that manages the object.
    pub port: Port,
    /// The object number within the service.
    pub object: ObjNum,
    /// The rights this capability grants.
    pub rights: Rights,
    /// The 48-bit protection field.
    pub check: Check,
}

impl Capability {
    /// Assembles a capability from its parts. The check field is masked to
    /// 48 bits.
    pub fn new(port: Port, object: ObjNum, rights: Rights, check: Check) -> Self {
        Capability {
            port,
            object,
            rights,
            check: mask48(check),
        }
    }

    /// A capability that addresses nothing; used as a table filler.
    pub fn null() -> Self {
        Capability::new(Port::NULL, ObjNum::new(0).expect("0 fits"), Rights::NONE, 0)
    }

    /// True if this is the null capability.
    pub fn is_null(&self) -> bool {
        self.port.is_null() && self.object.value() == 0 && self.check == 0
    }

    /// Serializes to the fixed 16-byte wire form.
    pub fn to_wire(&self) -> [u8; CAP_WIRE_LEN] {
        let mut out = [0u8; CAP_WIRE_LEN];
        out[0..6].copy_from_slice(self.port.as_bytes());
        let obj = self.object.value();
        out[6] = (obj >> 16) as u8;
        out[7] = (obj >> 8) as u8;
        out[8] = obj as u8;
        out[9] = self.rights.bits();
        let chk = self.check.to_be_bytes();
        out[10..16].copy_from_slice(&chk[2..8]);
        out
    }

    /// Parses a capability from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`CapError::BadWireLength`] if `buf` is not exactly 16 bytes.
    pub fn from_wire(buf: &[u8]) -> Result<Self, CapError> {
        if buf.len() != CAP_WIRE_LEN {
            return Err(CapError::BadWireLength(buf.len()));
        }
        let mut port = [0u8; 6];
        port.copy_from_slice(&buf[0..6]);
        let object = ((buf[6] as u32) << 16) | ((buf[7] as u32) << 8) | buf[8] as u32;
        let rights = Rights::from_bits(buf[9]);
        let check =
            u64::from_be_bytes([0, 0, buf[10], buf[11], buf[12], buf[13], buf[14], buf[15]]);
        Ok(Capability {
            port: Port::from_bytes(port),
            object: ObjNum::new(object).expect("24-bit value always fits"),
            rights,
            check,
        })
    }
}

impl std::fmt::Display for Capability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cap[{} obj={} rights={} chk={:012x}]",
            self.port, self.object, self.rights, self.check
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Capability {
        Capability::new(
            Port::from_bytes([1, 2, 3, 4, 5, 6]),
            ObjNum::new(0x00ab_cdef & ObjNum::MAX).unwrap(),
            Rights::READ | Rights::DESTROY,
            0x0000_1122_3344_5566,
        )
    }

    #[test]
    fn wire_roundtrip() {
        let cap = sample();
        assert_eq!(Capability::from_wire(&cap.to_wire()).unwrap(), cap);
    }

    #[test]
    fn wire_layout_is_fixed() {
        let cap = sample();
        let w = cap.to_wire();
        assert_eq!(&w[0..6], &[1, 2, 3, 4, 5, 6]);
        assert_eq!(w[9], (Rights::READ | Rights::DESTROY).bits());
        assert_eq!(&w[10..16], &[0x11, 0x22, 0x33, 0x44, 0x55, 0x66]);
    }

    #[test]
    fn from_wire_rejects_bad_length() {
        assert_eq!(
            Capability::from_wire(&[0u8; 15]).unwrap_err(),
            CapError::BadWireLength(15)
        );
        assert_eq!(
            Capability::from_wire(&[0u8; 17]).unwrap_err(),
            CapError::BadWireLength(17)
        );
    }

    #[test]
    fn check_is_masked_to_48_bits() {
        let cap = Capability::new(Port::NULL, ObjNum::new(1).unwrap(), Rights::NONE, u64::MAX);
        assert_eq!(cap.check, 0x0000_ffff_ffff_ffff);
    }

    #[test]
    fn null_capability() {
        assert!(Capability::null().is_null());
        assert!(!sample().is_null());
        // Round-trips like any other capability.
        let w = Capability::null().to_wire();
        assert!(Capability::from_wire(&w).unwrap().is_null());
    }

    #[test]
    fn display_mentions_fields() {
        let s = sample().to_string();
        assert!(s.contains("obj="));
        assert!(s.contains("READ"));
    }
}
