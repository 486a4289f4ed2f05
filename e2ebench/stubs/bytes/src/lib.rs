//! Offline stand-in for the `bytes` crate: refcounted immutable
//! [`Bytes`], growable [`BytesMut`], and the [`Buf`] / [`BufMut`]
//! cursor traits, covering the API surface the NetAlytics crates use.
//!
//! `Bytes` is an `Arc<Vec<u8>>` plus a window, so `clone`, `slice` and
//! `split_to` are O(1) and copy nothing — the property the packet and
//! queue layers rely on.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// A cheaply cloneable, sliceable chunk of contiguous memory.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer.
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(bytes),
            off: 0,
            len: bytes.len(),
        }
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Bytes in view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        let whole: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        };
        &whole[self.off..self.off + self.len]
    }

    /// A sub-view sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(start <= end && end <= self.len, "slice out of bounds");
        Bytes {
            repr: self.repr.clone(),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len, "split_to out of bounds");
        let head = Bytes {
            repr: self.repr.clone(),
            off: self.off,
            len: at,
        };
        self.off += at;
        self.len -= at;
        head
    }

    /// Splits off and returns the bytes from `at`; `self` keeps the head.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len, "split_off out of bounds");
        let tail = Bytes {
            repr: self.repr.clone(),
            off: self.off + at,
            len: self.len - at,
        };
        self.len = at;
        tail
    }

    /// Shortens the view to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Empties the view.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
            off: 0,
            len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes::from(b.into_vec())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Self {
        b.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.as_slice().to_vec()
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

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
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

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
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

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        Vec::from(self).into_iter()
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
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

/// A growable byte buffer that freezes into [`Bytes`] without copying.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut { buf: Vec::new() }
    }

    /// An empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing is written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Allocated capacity.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Ensures room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a slice.
    #[inline]
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Shortens to `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Empties the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Resizes, filling new space with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value);
    }

    /// Converts into immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Takes everything written so far, leaving `self` empty.
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            buf: std::mem::take(&mut self.buf),
        }
    }

    /// Splits off and returns the first `at` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let tail = self.buf.split_off(at);
        BytesMut {
            buf: std::mem::replace(&mut self.buf, tail),
        }
    }

    /// Splits off and returns the bytes from `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> BytesMut {
        BytesMut {
            buf: self.buf.split_off(at),
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { buf: s.to_vec() }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> Self {
        BytesMut { buf }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl<'a> Extend<&'a u8> for BytesMut {
    fn extend<I: IntoIterator<Item = &'a u8>>(&mut self, iter: I) {
        self.buf.extend(iter);
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} bytes)", self.buf.len())
    }
}

impl std::fmt::Write for BytesMut {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

macro_rules! buf_get {
    ($($name:ident, $name_le:ident, $ty:ty);* $(;)?) => {$(
        /// Reads a big-endian value, advancing the cursor.
        ///
        /// # Panics
        ///
        /// Panics if too few bytes remain.
        #[inline]
        fn $name(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_be_bytes(raw)
        }

        /// Reads a little-endian value, advancing the cursor.
        ///
        /// # Panics
        ///
        /// Panics if too few bytes remain.
        #[inline]
        fn $name_le(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_le_bytes(raw)
        }
    )*};
}

/// Read cursor over a contiguous byte source.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// True if any bytes remain.
    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Fills `dst` from the cursor.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain.
    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Takes the next `len` bytes as [`Bytes`].
    ///
    /// # Panics
    ///
    /// Panics if fewer than `len` bytes remain.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    /// Reads one byte.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Reads one signed byte.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    #[inline]
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    buf_get! {
        get_u16, get_u16_le, u16;
        get_u32, get_u32_le, u32;
        get_u64, get_u64_le, u64;
        get_i16, get_i16_le, i16;
        get_i32, get_i32_le, i32;
        get_i64, get_i64_le, i64;
        get_f32, get_f32_le, f32;
        get_f64, get_f64_le, f64;
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len, "advance past end");
        self.off += cnt;
        self.len -= cnt;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

macro_rules! buf_put {
    ($($name:ident, $name_le:ident, $ty:ty);* $(;)?) => {$(
        /// Appends a big-endian value.
        #[inline]
        fn $name(&mut self, v: $ty) {
            self.put_slice(&v.to_be_bytes());
        }

        /// Appends a little-endian value.
        #[inline]
        fn $name_le(&mut self, v: $ty) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Append cursor over a growable byte sink.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends everything left in `src`.
    fn put<B: Buf>(&mut self, mut src: B)
    where
        Self: Sized,
    {
        while src.has_remaining() {
            let n = {
                let c = src.chunk();
                self.put_slice(c);
                c.len()
            };
            src.advance(n);
        }
    }

    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends one signed byte.
    #[inline]
    fn put_i8(&mut self, v: i8) {
        self.put_slice(&[v as u8]);
    }

    buf_put! {
        put_u16, put_u16_le, u16;
        put_u32, put_u32_le, u32;
        put_u64, put_u64_le, u64;
        put_i16, put_i16_le, i16;
        put_i32, put_i32_le, i32;
        put_i64, put_i64_le, i64;
        put_f32, put_f32_le, f32;
        put_f64, put_f64_le, f64;
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_and_split() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let mid = b.slice(1..4);
        assert_eq!(&mid[..], &[2, 3, 4]);
        let head = b.split_to(2);
        assert_eq!((&head[..], &b[..]), (&[1u8, 2][..], &[3u8, 4, 5][..]));
        let tail = b.split_off(1);
        assert_eq!((&b[..], &tail[..]), (&[3u8][..], &[4u8, 5][..]));
    }

    #[test]
    fn cursors_round_trip_both_endiannesses() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u16(0x0102);
        w.put_u16_le(0x0102);
        w.put_u64_le(u64::MAX - 1);
        w.put_f64_le(1.5);
        w.put_slice(b"xy");
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 0x0102);
        assert_eq!(r.get_u16_le(), 0x0102);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.get_f64_le(), 1.5);
        assert_eq!(r.remaining(), 2);
        assert_eq!(&r.copy_to_bytes(2)[..], b"xy");
        assert!(!r.has_remaining());
    }
}
