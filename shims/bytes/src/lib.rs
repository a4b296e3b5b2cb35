//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no crates.io access, so this vendors the
//! subset the workspace uses.  [`Bytes`] is a ref-counted view of one
//! `Vec<u8>` (`Option<Arc<Vec<u8>>>` + range), which gives it the
//! properties the Bullet server's zero-copy create/read paths rely on:
//!
//! - `From<Vec<u8>>` moves the buffer, it does not copy it, and so do
//!   `From<String>`, [`BytesMut::freeze`] and `FromIterator<u8>`, which go
//!   through it.  A converted `Vec`'s spare capacity stays with it until the
//!   last view is dropped.
//! - `clone()`, `slice()`, `split_to()` and `split_off()` are O(1) and share
//!   the allocation.
//! - An empty buffer holds nothing (`None`): [`Bytes::new`], `default()` and
//!   `Bytes::from(Vec::new())` neither allocate nor touch a shared count.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    /// The buffer the view reads; `None` for an empty `new()`, `default()`
    /// or `Vec`, which holds no allocation.
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer; allocates nothing and shares no count.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wraps a static slice.  (The shim copies it once into the shared
    /// allocation; all clones and slices remain O(1).)
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::from(bytes.to_vec())
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view; O(1), shares the allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `at` bytes, advancing `self` past
    /// them; both halves share the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Splits off and returns the tail starting at `at`, truncating `self`
    /// to the first `at` bytes; both halves share the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }

    /// Shortens the view to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    /// Copies the view into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start..self.end],
            None => &[],
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Moves `v` into the view without copying; an empty `v` is dropped.
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: (end > 0).then(|| Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable byte buffer that freezes into [`Bytes`] without copying.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes pre-reserved.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a slice.
    pub fn extend_from_slice(&mut self, other: &[u8]) {
        self.buf.extend_from_slice(other);
    }

    /// Converts into an immutable [`Bytes`] that keeps this buffer, spare
    /// capacity included: no byte is copied.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> BytesMut {
        BytesMut { buf: s.to_vec() }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

/// Read cursor over a byte source (implemented for `&[u8]`).
pub trait Buf {
    /// Bytes remaining.
    fn remaining(&self) -> usize;

    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Copies `dst.len()` bytes out, advancing.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a big-endian u16.
    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    /// Reads a big-endian u32.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian i32.
    fn get_i32(&mut self) -> i32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        i32::from_be_bytes(b)
    }

    /// Reads a big-endian u64.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.as_slice()[..dst.len()]);
        self.advance(dst.len());
    }
}

/// Write cursor over a growable byte sink.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian u16.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian i32.
    fn put_i32(&mut self, v: i32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_storage() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let c = b.clone();
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(c, b);
        let (b_data, s_data) = (b.data.as_ref().unwrap(), s.data.as_ref().unwrap());
        assert!(Arc::ptr_eq(b_data, s_data), "slice must not copy");
    }

    #[test]
    fn conversions_keep_the_source_buffer() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), ptr, "From<Vec<u8>> copied");

        let s = String::from("a file's worth of text");
        let ptr = s.as_ptr();
        assert_eq!(Bytes::from(s).as_ptr(), ptr, "From<String> copied");

        let mut m = BytesMut::with_capacity(64);
        m.put_u64(9);
        let ptr = m.as_ptr();
        assert_eq!(m.freeze().as_ptr(), ptr, "freeze copied");
    }

    #[test]
    fn empty_buffers_hold_no_storage() {
        let empties = [Bytes::new(), Bytes::default(), Bytes::from(Vec::new())];
        for e in &empties {
            assert!(e.data.is_none(), "an empty buffer holds an allocation");
            assert_eq!(&e[..], &[] as &[u8]);
            assert_eq!(e, &empties[0]);
        }
    }

    #[test]
    fn split_to_and_off() {
        let mut b = Bytes::from(vec![1, 2, 3, 4]);
        let head = b.split_to(1);
        assert_eq!(&head[..], &[1]);
        assert_eq!(&b[..], &[2, 3, 4]);
        let tail = b.split_off(2);
        assert_eq!(&b[..], &[2, 3]);
        assert_eq!(&tail[..], &[4]);
    }

    #[test]
    fn buf_cursors_read_big_endian() {
        let raw = [0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 9, 1];
        let mut cur: &[u8] = &raw;
        assert_eq!(cur.get_u32(), 7);
        assert_eq!(cur.get_u64(), 9);
        assert_eq!(cur.get_u8(), 1);
        assert_eq!(cur.remaining(), 0);
    }

    #[test]
    fn bufmut_then_freeze() {
        let mut b = BytesMut::with_capacity(8);
        b.put_u32(7);
        b.put_slice(&[1, 2]);
        let frozen = b.freeze();
        assert_eq!(&frozen[..], &[0, 0, 0, 7, 1, 2]);
    }

    #[test]
    fn truncate_and_eq() {
        let mut b = Bytes::from(vec![5; 10]);
        b.truncate(3);
        assert_eq!(b, vec![5u8; 3]);
        assert_eq!(b.to_vec(), vec![5; 3]);
        assert!(Bytes::new().is_empty());
    }
}
