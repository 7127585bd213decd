//! Snapshot codec: a compact, versioned byte format for deep-cloning
//! and persisting simulator state.
//!
//! The sweep runner prepares each (scenario, benchmark) pair once and
//! hands cells cheap deep clones; a disk cache under `results/snapshots/`
//! lets a second `repro` invocation skip preparation entirely. Both rest
//! on this module: every substrate type implements [`Snapshot`], a
//! field-by-field byte codec with no reflection, no external crates and
//! no `unsafe`.
//!
//! Design rules:
//!
//! * **Little-endian, length-prefixed, self-delimiting.** Integers are
//!   fixed-width little-endian; strings, byte blobs and containers carry
//!   a `u64` length prefix. Decoding never reads past the buffer — every
//!   getter bounds-checks and returns [`SnapshotError`] on truncation.
//! * **Structural fidelity over reconstruction.** Types are serialized
//!   field-by-field (the page table's node graph, the buddy free lists,
//!   the PRNG state) rather than rebuilt from higher-level operations,
//!   so a decoded kernel is bit-for-bit equivalent: the same node ids,
//!   the same walk addresses, the same future random stream.
//! * **Impls live with their fields.** Most substrate structs keep
//!   their fields module-private, so each module implements `Snapshot`
//!   for its own types; this file holds the codec, the trait, and impls
//!   for primitives, containers and the address newtypes.
//! * **Lean decoding.** Every warm path loads snapshots, so a decoder
//!   allocates nothing beyond the value it returns (no transient `Vec`
//!   or map), the large containers (frame table, VMA maps, page-table
//!   nodes, buddy free lists) decode in loops of their own, and error
//!   messages are formatted only on `#[cold]` paths.
//!
//! Integrity (CRC, versioning, quarantine) is layered on top by the
//! disk cache in `colt-core`; this module only guarantees that a decode
//! either reproduces the encoded value exactly or fails loudly.

use crate::addr::{Asid, PhysAddr, Pfn, VirtAddr, Vpn};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A decode failure: truncated input, an impossible discriminant, or a
/// sanity-check violation. The message names the failing field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode failed: {}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

/// Shorthand for decode results.
pub type SnapResult<T> = Result<T, SnapshotError>;

/// Byte-stream encoder. Append-only; [`Enc::finish`] yields the buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a usize as a u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an f64 as its IEEE-754 bit pattern (exact round trip,
    /// NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed byte blob.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Byte-stream decoder over a borrowed buffer. Every getter
/// bounds-checks; [`Dec::finish`] asserts the buffer was fully consumed.
///
/// The getters are `#[inline]` and keep their error formatting on
/// `#[cold]` paths, so a decode loop over a large container compiles to
/// a length check and a load per field.
#[derive(Debug)]
pub struct Dec<'a> {
    /// The bytes not yet consumed.
    rest: &'a [u8],
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { rest: buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    #[inline]
    fn take(&mut self, n: usize, what: &str) -> SnapResult<&'a [u8]> {
        let Some((head, tail)) = self.rest.split_at_checked(n) else {
            return Err(self.truncated(n, what));
        };
        self.rest = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &str) -> SnapResult<[u8; N]> {
        let Some((head, tail)) = self.rest.split_first_chunk::<N>() else {
            return Err(self.truncated(N, what));
        };
        self.rest = tail;
        Ok(*head)
    }

    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize, what: &str) -> SnapshotError {
        SnapshotError(format!(
            "truncated reading {what}: need {n} bytes, have {}",
            self.remaining()
        ))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> SnapResult<u8> {
        Ok(self.array::<1>("u8")?[0])
    }

    /// Reads a little-endian u16.
    #[inline]
    pub fn u16(&mut self) -> SnapResult<u16> {
        Ok(u16::from_le_bytes(self.array("u16")?))
    }

    /// Reads a little-endian u32.
    #[inline]
    pub fn u32(&mut self) -> SnapResult<u32> {
        Ok(u32::from_le_bytes(self.array("u32")?))
    }

    /// Reads a little-endian u64.
    #[inline]
    pub fn u64(&mut self) -> SnapResult<u64> {
        Ok(u64::from_le_bytes(self.array("u64")?))
    }

    /// Reads a usize (stored as u64; rejects values over usize::MAX).
    #[inline]
    pub fn usize(&mut self) -> SnapResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| cold_err(format_args!("usize overflow: {v}")))
    }

    /// Reads an f64 from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> SnapResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool; rejects bytes other than 0 and 1.
    #[inline]
    pub fn bool(&mut self) -> SnapResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(cold_err(format_args!("invalid bool byte {b:#x}"))),
        }
    }

    /// Reads a length-prefixed byte blob.
    pub fn bytes(&mut self) -> SnapResult<&'a [u8]> {
        let n = self.usize()?;
        self.take(n, "bytes")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> SnapResult<String> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| cold_err(format_args!("invalid UTF-8 in string")))
    }

    /// A length prefix for a container about to be decoded element by
    /// element. Sanity-capped: each element must occupy at least one
    /// byte, so a prefix larger than the remaining buffer is corrupt
    /// (and would otherwise trigger a huge up-front allocation).
    #[inline]
    pub fn len(&mut self, what: &str) -> SnapResult<usize> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(cold_err(format_args!(
                "implausible {what} length {n} with {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// The next `n` records of `size` bytes each, as one slice, for a
    /// decoder that visits fixed-size records out of order.
    pub(crate) fn records(&mut self, n: usize, size: usize, what: &str) -> SnapResult<&'a [u8]> {
        self.take(n.saturating_mul(size), what)
    }

    /// Asserts the whole buffer was consumed.
    pub fn finish(self) -> SnapResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(cold_err(format_args!("{} trailing bytes after decode", self.remaining())))
        }
    }
}

/// Builds a [`SnapshotError`] off the hot path: decoders call this (or
/// [`bad_tag`]) only once a check has failed, so the formatting code
/// stays out of their loops.
#[cold]
#[inline(never)]
pub(crate) fn cold_err(msg: std::fmt::Arguments<'_>) -> SnapshotError {
    SnapshotError(msg.to_string())
}

/// The error for an impossible discriminant byte of `what`.
#[cold]
#[inline(never)]
pub(crate) fn bad_tag(what: &str, tag: u8) -> SnapshotError {
    SnapshotError(format!("invalid {what} tag {tag:#x}"))
}

/// Field-by-field byte serialization. `decode(encode(x)) == x` for every
/// reachable value; decode fails loudly on anything else.
pub trait Snapshot: Sized {
    /// Appends this value to `enc`.
    fn encode(&self, enc: &mut Enc);
    /// Reads one value from `dec`.
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self>;
}

macro_rules! impl_snapshot_prim {
    ($($t:ident),* $(,)?) => {$(
        impl Snapshot for $t {
            fn encode(&self, enc: &mut Enc) {
                enc.$t(*self);
            }
            #[inline]
            fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
                dec.$t()
            }
        }
    )*};
}

impl_snapshot_prim!(u8, u16, u32, u64, usize, f64, bool);

impl Snapshot for String {
    fn encode(&self, enc: &mut Enc) {
        enc.str(self);
    }
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        dec.str()
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.len());
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        let n = dec.len("Vec")?;
        let mut out = Self::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.len());
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        let n = dec.len("VecDeque")?;
        let mut out = Self::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot + Ord> Snapshot for BTreeSet<T> {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.len());
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        let n = dec.len("BTreeSet")?;
        let mut out = Self::new();
        for _ in 0..n {
            let v = T::decode(dec)?;
            if out.last().is_some_and(|last| *last >= v) {
                return Err(cold_err(format_args!("BTreeSet elements out of order")));
            }
            out.insert(v);
        }
        Ok(out)
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn encode(&self, enc: &mut Enc) {
        enc.usize(self.len());
        for (k, v) in self {
            k.encode(enc);
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        let n = dec.len("BTreeMap")?;
        let mut out = Self::new();
        for _ in 0..n {
            let k = K::decode(dec)?;
            if out.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(cold_err(format_args!("BTreeMap keys out of order")));
            }
            let v = V::decode(dec)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, enc: &mut Enc) {
        match self {
            None => enc.u8(0),
            Some(v) => {
                enc.u8(1);
                v.encode(enc);
            }
        }
    }
    #[inline]
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        match dec.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            b => Err(bad_tag("Option", b)),
        }
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn encode(&self, enc: &mut Enc) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

impl Snapshot for [u64; 4] {
    fn encode(&self, enc: &mut Enc) {
        for v in self {
            enc.u64(*v);
        }
    }
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok([dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?])
    }
}

macro_rules! impl_snapshot_newtype_u64 {
    ($($t:ident),* $(,)?) => {$(
        impl Snapshot for $t {
            fn encode(&self, enc: &mut Enc) {
                enc.u64(self.raw());
            }
            #[inline]
            fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
                Ok($t::new(dec.u64()?))
            }
        }
    )*};
}

impl_snapshot_newtype_u64!(Vpn, Pfn, VirtAddr, PhysAddr);

impl Snapshot for Asid {
    fn encode(&self, enc: &mut Enc) {
        enc.u32(self.0);
    }
    #[inline]
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self(dec.u32()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snapshot + PartialEq + std::fmt::Debug>(v: &T) {
        let mut enc = Enc::new();
        v.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        let back = T::decode(&mut dec).expect("decode");
        dec.finish().expect("fully consumed");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&0xFFu8);
        round_trip(&0xBEEFu16);
        round_trip(&0xDEAD_BEEFu32);
        round_trip(&u64::MAX);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&std::f64::consts::PI);
        round_trip(&f64::NEG_INFINITY);
        round_trip(&String::from("höhle|;\\ and \0 nul"));
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut enc = Enc::new();
        weird.encode(&mut enc);
        let bytes = enc.finish();
        let back = f64::decode(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Vec::<u64>::new());
        round_trip(&VecDeque::from(vec![9u32, 8, 7]));
        round_trip(&BTreeSet::from([5u64, 1, 3]));
        round_trip(&BTreeMap::from([(1u64, String::from("a")), (2, String::from("b"))]));
        round_trip(&Some(42u64));
        round_trip(&Option::<u64>::None);
        round_trip(&(1u64, false, 2.5f64));
        round_trip(&[1u64, 2, 3, 4]);
    }

    #[test]
    fn addr_newtypes_round_trip() {
        round_trip(&Vpn::new(0x1234));
        round_trip(&Pfn::new(0xABCD));
        round_trip(&VirtAddr::new(0xFFFF_0000));
        round_trip(&PhysAddr::new(1 << 40));
        round_trip(&Asid(7));
    }

    #[test]
    fn truncation_fails_loudly() {
        let mut enc = Enc::new();
        0xDEAD_BEEF_DEAD_BEEFu64.encode(&mut enc);
        let bytes = enc.finish();
        assert!(u64::decode(&mut Dec::new(&bytes[..5])).is_err());
    }

    #[test]
    fn implausible_container_length_is_rejected() {
        let mut enc = Enc::new();
        enc.u64(u64::MAX);
        let bytes = enc.finish();
        assert!(Vec::<u64>::decode(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn unordered_set_and_map_keys_are_rejected() {
        let mut enc = Enc::new();
        enc.usize(2);
        enc.u64(5);
        enc.u64(3);
        assert!(BTreeSet::<u64>::decode(&mut Dec::new(&enc.finish())).is_err());
        let mut enc = Enc::new();
        enc.usize(2);
        for _ in 0..2 {
            enc.u64(7);
            enc.u8(1);
        }
        assert!(
            BTreeMap::<u64, u8>::decode(&mut Dec::new(&enc.finish())).is_err(),
            "a repeated key would drop an entry"
        );
    }

    #[test]
    fn bad_discriminants_are_rejected() {
        assert!(bool::decode(&mut Dec::new(&[2])).is_err());
        assert!(Option::<u64>::decode(&mut Dec::new(&[9])).is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut enc = Enc::new();
        7u64.encode(&mut enc);
        enc.u8(0);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        u64::decode(&mut dec).unwrap();
        assert!(dec.finish().is_err());
    }
}
