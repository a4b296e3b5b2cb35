//! Rights bits carried in a capability.

/// The rights byte of a capability: which operations the holder may invoke.
///
/// The Bullet server understands [`Rights::READ`], [`Rights::CREATE`],
/// [`Rights::MODIFY`] and [`Rights::DESTROY`]; the directory server reuses
/// the same bit positions for lookup/enter/delete.  The type is a small
/// hand-rolled flag set (the crate avoids external dependencies for it).
///
/// # Example
///
/// ```
/// use amoeba_cap::Rights;
///
/// let r = Rights::READ | Rights::DESTROY;
/// assert!(r.contains(Rights::READ));
/// assert!(!r.contains(Rights::MODIFY));
/// assert!(Rights::ALL.contains(r));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rights(u8);

impl Rights {
    /// No rights at all.
    pub const NONE: Rights = Rights(0);
    /// Right to read the object (BULLET.READ, BULLET.SIZE, directory lookup).
    pub const READ: Rights = Rights(0x01);
    /// Right to create new objects under this capability (directory enter,
    /// log append).
    pub const CREATE: Rights = Rights(0x02);
    /// Right to derive modified objects (BULLET.MODIFY / append extensions,
    /// directory replace).
    pub const MODIFY: Rights = Rights(0x04);
    /// Right to delete the object (BULLET.DELETE, directory delete).
    pub const DESTROY: Rights = Rights(0x08);
    /// All rights; the owner capability returned by BULLET.CREATE carries
    /// this.
    pub const ALL: Rights = Rights(0xff);

    /// Creates a rights set from a raw byte.
    pub fn from_bits(bits: u8) -> Rights {
        Rights(bits)
    }

    /// Returns the raw byte.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// True if every bit of `other` is present in `self`.
    pub fn contains(self, other: Rights) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no bits are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Intersection of two rights sets.
    pub fn intersection(self, other: Rights) -> Rights {
        Rights(self.0 & other.0)
    }
}

impl std::ops::BitOr for Rights {
    type Output = Rights;

    fn bitor(self, rhs: Rights) -> Rights {
        Rights(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for Rights {
    fn bitor_assign(&mut self, rhs: Rights) {
        self.0 |= rhs.0;
    }
}

impl std::ops::BitAnd for Rights {
    type Output = Rights;

    fn bitand(self, rhs: Rights) -> Rights {
        Rights(self.0 & rhs.0)
    }
}

impl std::fmt::Display for Rights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0xff {
            return write!(f, "ALL");
        }
        if self.is_empty() {
            return write!(f, "NONE");
        }
        let mut first = true;
        let mut put = |f: &mut std::fmt::Formatter<'_>, s: &str| -> std::fmt::Result {
            if !first {
                write!(f, "|")?;
            }
            first = false;
            write!(f, "{s}")
        };
        if self.contains(Rights::READ) {
            put(f, "READ")?;
        }
        if self.contains(Rights::CREATE) {
            put(f, "CREATE")?;
        }
        if self.contains(Rights::MODIFY) {
            put(f, "MODIFY")?;
        }
        if self.contains(Rights::DESTROY) {
            put(f, "DESTROY")?;
        }
        let named = Rights::READ | Rights::CREATE | Rights::MODIFY | Rights::DESTROY;
        let rest = self.0 & !named.0;
        if rest != 0 {
            put(f, &format!("{rest:#04x}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_ops() {
        let r = Rights::READ | Rights::MODIFY;
        assert!(r.contains(Rights::READ));
        assert!(r.contains(Rights::MODIFY));
        assert!(!r.contains(Rights::DESTROY));
        assert!(!r.contains(Rights::READ | Rights::DESTROY));
        assert_eq!(r & Rights::READ, Rights::READ);
        assert_eq!(r.intersection(Rights::DESTROY), Rights::NONE);
    }

    #[test]
    fn all_contains_everything() {
        assert!(
            Rights::ALL.contains(Rights::READ | Rights::CREATE | Rights::MODIFY | Rights::DESTROY)
        );
        assert!(Rights::ALL.contains(Rights::from_bits(0x80)));
    }

    #[test]
    fn none_is_empty() {
        assert!(Rights::NONE.is_empty());
        assert!(!Rights::READ.is_empty());
        assert_eq!(Rights::default(), Rights::NONE);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Rights::ALL.to_string(), "ALL");
        assert_eq!(Rights::NONE.to_string(), "NONE");
        assert_eq!((Rights::READ | Rights::DESTROY).to_string(), "READ|DESTROY");
        assert_eq!(Rights::from_bits(0x10).to_string(), "0x10");
    }

    #[test]
    fn bits_roundtrip() {
        for bits in 0..=255u8 {
            assert_eq!(Rights::from_bits(bits).bits(), bits);
        }
    }
}
