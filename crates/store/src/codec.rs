//! Minimal deterministic binary codec for durable records.
//!
//! Fixed-width little-endian integers, length-prefixed containers, no
//! self-description: the format only needs to be deterministic and
//! checkable, not evolvable. It is not free to drift either: the records
//! on a head's disk were written by an earlier build, so every product
//! layout is pinned against the committed `proto.lock` (the root
//! `schema_lock` test compares it with what the declarations emit).
//!
//! Two layers. The primitives and generic containers in this file are
//! the hand-written foundation, each `encode`/`decode` pair kept aligned
//! by the unit tests below; every length they decode passes
//! `decode_len`, and the root `decode_bounds` test holds a decode's peak
//! allocation to a multiple of its input. Everything above it (the PBS
//! and JOSHUA types whose bytes land in the WAL, in snapshots and in
//! state transfers) is declared once with [`codec!`](crate::codec!),
//! which emits both directions from a single field list, so the two
//! cannot disagree. [`Codec`] is sealed: only this file and `codec!`
//! implement its hidden supertrait, so no third, hand-written layer can
//! compile. The construct bans of the crate's deny block (`lib.rs`)
//! apply to all such types.

use std::collections::{BTreeMap, BTreeSet};

/// Why a decode failed. Recovery treats any decode error inside a
/// CRC-valid record as a hard bug, not disk damage (the CRC already
/// vouched for the bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes.
    Eof,
    /// A tag or invariant didn't match (e.g. unknown enum discriminant).
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Eof => write!(f, "unexpected end of record"),
            DecodeError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over an encoded record.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Container items the rest of this record may still preallocate.
    prealloc: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            prealloc: buf.len(),
        }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Capacity to reserve for a container of `len` items. Every item has
    /// at least one encoded byte that none of its own items share, so a
    /// valid record holds no more items, at every depth together, than it
    /// has bytes: `len` while that budget lasts, else 0, and the container
    /// grows only as its items actually decode. Sized by `len` alone, a
    /// corrupt record nesting containers could claim its remaining bytes
    /// again at every level (`tests/decode_bounds.rs`).
    fn capacity(&mut self, len: usize) -> usize {
        match self.prealloc.checked_sub(len) {
            Some(left) => {
                self.prealloc = left;
                len
            }
            None => 0,
        }
    }

    /// Take `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Eof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// Read a little-endian `u32` starting at `pos`, tolerating short input
/// (missing bytes read as zero). Callers bound-check `pos + 4 <= len`
/// before trusting the value; the read itself cannot panic, keeping the
/// recovery path free of panic constructs (the no-panic lints).
pub(crate) fn le_u32_at(data: &[u8], pos: usize) -> u32 {
    let mut b = [0u8; 4];
    for (slot, &v) in b.iter_mut().zip(data.get(pos..).unwrap_or(&[])) {
        *slot = v;
    }
    u32::from_le_bytes(b)
}

/// Read a little-endian `u64` starting at `pos`; same contract as
/// [`le_u32_at`].
pub(crate) fn le_u64_at(data: &[u8], pos: usize) -> u64 {
    let mut b = [0u8; 8];
    for (slot, &v) in b.iter_mut().zip(data.get(pos..).unwrap_or(&[])) {
        *slot = v;
    }
    u64::from_le_bytes(b)
}

/// Seals [`Codec`]: implemented by [`codec!`](crate::codec!) and by the
/// foundation impls in this file, and nowhere else. A hand-written
/// `impl Codec` without it does not compile (E0277); writing this impl by
/// hand as well is a deliberate, visible opt-out.
#[doc(hidden)]
pub trait Sealed {}

/// Deterministic binary encoding/decoding of one type.
///
/// Implemented by the foundation in this file and by
/// [`codec!`](crate::codec!), and only by them: a hand-written impl
/// elsewhere does not compile.
///
/// ```compile_fail,E0277
/// use jrs_store::{Codec, DecodeError, Reader};
/// struct Grant { mom: u32 }
/// impl Codec for Grant {
///     fn encode(&self, out: &mut Vec<u8>) { self.mom.encode(out) }
///     fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
///         Ok(Grant { mom: u32::decode(r)? })
///     }
/// }
/// ```
pub trait Codec: Sized + Sealed {
    /// This type's lines of `proto.lock`, as its [`codec!`](crate::codec!)
    /// declaration states them; empty for the foundation types, whose
    /// layout has no per-type field list.
    const SCHEMA: &'static str = "";

    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode from a complete buffer, requiring every byte to be consumed.
    fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(DecodeError::Invalid("trailing bytes"));
        }
        Ok(v)
    }
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Sealed for $t {}
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Sealed for bool {}
impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid("bool")),
        }
    }
}

impl Sealed for char {}
impl Codec for char {
    fn encode(&self, out: &mut Vec<u8>) {
        u32::from(*self).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        char::from_u32(u32::decode(r)?).ok_or(DecodeError::Invalid("char"))
    }
}

/// Hard ceiling on any length prefix in a durable record. No legitimate
/// container in a WAL record or snapshot approaches this; it bounds the
/// allocation a corrupt (but CRC-colliding) length can request even when
/// the record buffer itself is large.
pub const MAX_LEN: usize = 1 << 24;

#[expect(
    clippy::expect_used,
    reason = "cannot fire: the assert bounds len by MAX_LEN = 1 << 24"
)]
fn encode_len(len: usize, out: &mut Vec<u8>) {
    assert!(len <= MAX_LEN, "container too large for WAL record");
    u32::try_from(len)
        .expect("container too large for WAL record")
        .encode(out);
}

/// Encode a sequence as a `Vec` of its items is encoded: a `u32` count,
/// then each item as `item` writes it. The one statement of that layout:
/// the containers below use it, and so does a writer that encodes a
/// `Vec` field from borrowed state without building the `Vec`.
pub fn encode_seq<I: ExactSizeIterator>(
    items: I,
    out: &mut Vec<u8>,
    mut item: impl FnMut(I::Item, &mut Vec<u8>),
) {
    encode_len(items.len(), out);
    for x in items {
        item(x, out);
    }
}

fn decode_len(r: &mut Reader<'_>) -> Result<usize, DecodeError> {
    let len = u32::decode(r)?;
    let len = usize::try_from(len).map_err(|_| DecodeError::Invalid("length"))?;
    if len > MAX_LEN {
        return Err(DecodeError::Invalid("length exceeds MAX_LEN"));
    }
    // A length can never exceed the bytes left (items are ≥1 byte each);
    // reject early so corrupt lengths can't trigger huge allocations.
    if len > r.remaining() {
        return Err(DecodeError::Eof);
    }
    Ok(len)
}

/// `String` and the shared `Rc<str>` (job names and users): the same
/// bytes, a `u32` length then UTF-8.
macro_rules! str_codec {
    ($($t:ty),*) => {$(
        impl Sealed for $t {}
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                encode_len(self.len(), out);
                out.extend_from_slice(self.as_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let len = decode_len(r)?;
                std::str::from_utf8(r.take(len)?).map(<$t>::from).map_err(|_| DecodeError::Invalid("utf-8"))
            }
        }
    )*};
}

str_codec!(String, std::rc::Rc<str>);

impl<T> Sealed for Option<T> {}
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(DecodeError::Invalid("option tag")),
        }
    }
}

impl<T> Sealed for Box<T> {}
impl<T: Codec> Codec for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(T::decode(r)?))
    }
}

impl<T> Sealed for Vec<T> {}
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.iter(), out, T::encode);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = decode_len(r)?;
        let mut out = Vec::with_capacity(r.capacity(len));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// A shared slice (a status listing) encodes exactly as the `Vec` it
/// could have been.
impl<T> Sealed for std::rc::Rc<[T]> {}
impl<T: Codec> Codec for std::rc::Rc<[T]> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.iter(), out, T::encode);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Vec::decode(r).map(Self::from)
    }
}

impl<K, V> Sealed for BTreeMap<K, V> {}
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.iter(), out, |(k, v), out| {
            k.encode(out);
            v.encode(out);
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = decode_len(r)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T> Sealed for BTreeSet<T> {}
impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.iter(), out, T::encode);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = decode_len(r)?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A, B> Sealed for (A, B) {}
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl Sealed for jrs_sim::ProcId {}
impl Codec for jrs_sim::ProcId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(jrs_sim::ProcId(u32::decode(r)?))
    }
}

impl Sealed for jrs_sim::NodeId {}
impl Codec for jrs_sim::NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(jrs_sim::NodeId(u32::decode(r)?))
    }
}

impl Sealed for jrs_sim::SimDuration {}
impl Codec for jrs_sim::SimDuration {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_nanos().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(jrs_sim::SimDuration::from_nanos(u64::decode(r)?))
    }
}

impl Sealed for jrs_sim::SimTime {}
impl Codec for jrs_sim::SimTime {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_nanos().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(jrs_sim::SimTime::from_nanos(u64::decode(r)?))
    }
}

impl<A, B, C> Sealed for (A, B, C) {}
impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// Implement [`Codec`] for a product type from **one** declaration, so
/// that `encode` and `decode` cannot disagree. Three forms and nothing
/// else: no tag width, no field attributes, no skip or default. Each
/// form also sets [`Codec::SCHEMA`] to the type's `proto.lock` lines.
///
/// A named struct lists its fields in wire order; the field types are
/// inferred from the struct definition:
///
/// ```
/// use jrs_store::{codec, Codec};
/// #[derive(Debug, PartialEq)]
/// struct Grant { mom: u32, session: u64 }
/// codec!(struct Grant { mom, session });
/// let bytes = Grant { mom: 50, session: 4 }.to_bytes();
/// assert_eq!(bytes, [50, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0]);
/// assert_eq!(Grant::from_bytes(&bytes), Ok(Grant { mom: 50, session: 4 }));
/// assert_eq!(Grant::SCHEMA, "struct Grant { mom, session }\n");
/// ```
///
/// A newtype encodes as its only field:
///
/// ```
/// use jrs_store::{codec, Codec};
/// #[derive(Debug, PartialEq)]
/// struct JobId(u64);
/// codec!(struct JobId(0));
/// assert_eq!(JobId(7).to_bytes(), 7u64.to_bytes());
/// assert_eq!(JobId::from_bytes(&7u64.to_bytes()), Ok(JobId(7)));
/// assert_eq!(JobId::SCHEMA, "tuple JobId(1)\n");
/// ```
///
/// An enum gives every variant its `u8` tag, written first, and the
/// tags are `0, 1, 2, ..` in declaration order; unit, tuple and struct
/// variants name their fields in wire order (a tuple variant's names
/// are only bindings). An unknown tag decodes to
/// `DecodeError::Invalid("<Type> tag")`:
///
/// ```
/// use jrs_store::{codec, Codec, DecodeError};
/// #[derive(Debug, PartialEq)]
/// enum Msg { Bye, Pong(u16), Ping { seq: u32, hops: u8 } }
/// codec!(enum Msg { 0 => Bye, 1 => Pong(id), 2 => Ping { seq, hops } });
/// assert_eq!(Msg::Bye.to_bytes(), [0]);
/// assert_eq!(Msg::Pong(9).to_bytes(), [1, 9, 0]);
/// let ping = Msg::Ping { seq: 3, hops: 1 };
/// assert_eq!(ping.to_bytes(), [2, 3, 0, 0, 0, 1]);
/// assert_eq!(Msg::from_bytes(&ping.to_bytes()), Ok(ping));
/// assert_eq!(Msg::from_bytes(&[3]), Err(DecodeError::Invalid("Msg tag")));
/// assert_eq!(Msg::SCHEMA, "enum Msg {\n  Bye = 0\n  Pong = 1\n  Ping = 2\n}\n");
/// ```
///
/// A declaration that does not match the type is a compile error. A
/// field missing from the declaration (E0063):
///
/// ```compile_fail,E0063
/// use jrs_store::codec;
/// struct Grant { mom: u32, session: u64 }
/// codec!(struct Grant { mom });
/// ```
///
/// A field the type does not have (E0609, E0560):
///
/// ```compile_fail,E0609
/// use jrs_store::codec;
/// struct Grant { mom: u32 }
/// codec!(struct Grant { mom, session });
/// ```
///
/// A variant missing from the declaration (E0004, `match self` is not
/// exhaustive):
///
/// ```compile_fail,E0004
/// use jrs_store::codec;
/// enum Msg { Bye, Pong(u16) }
/// codec!(enum Msg { 0 => Bye });
/// ```
///
/// A tag used twice (the second `decode` arm is unreachable, which the
/// generated impl denies):
///
/// ```compile_fail
/// use jrs_store::codec;
/// enum Msg { Bye, Pong(u16) }
/// codec!(enum Msg { 0 => Bye, 0 => Pong(id) });
/// ```
///
/// A tag out of sequence (E0080, the generated constant's assertion):
///
/// ```compile_fail,E0080
/// use jrs_store::codec;
/// enum Msg { Bye, Pong(u16) }
/// codec!(enum Msg { 0 => Bye, 9 => Pong(id) });
/// ```
///
/// A reordered field list still compiles; it changes `SCHEMA`, which
/// the root `schema_lock` test compares with the committed `proto.lock`.
#[macro_export]
macro_rules! codec {
    (struct $T:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::codec::Sealed for $T {}
        impl $crate::Codec for $T {
            const SCHEMA: &'static str =
                concat!("struct ", stringify!($T), " { ", stringify!($($f),+), " }\n");
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::Codec::encode(&self.$f, out);)+
            }
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::DecodeError> {
                Ok($T { $($f: $crate::Codec::decode(r)?),+ })
            }
        }
    };
    (struct $T:ident(0)) => {
        impl $crate::codec::Sealed for $T {}
        impl $crate::Codec for $T {
            const SCHEMA: &'static str = concat!("tuple ", stringify!($T), "(1)\n");
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::Codec::encode(&self.0, out);
            }
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::DecodeError> {
                Ok($T($crate::Codec::decode(r)?))
            }
        }
    };
    (enum $T:ident {
        $($tag:literal => $V:ident $(($($p:ident),+))? $({ $($f:ident),+ })?),+ $(,)?
    }) => {
        const _: () = {
            let tags: &[usize] = &[$($tag),+];
            let mut i = 0;
            while i < tags.len() {
                assert!(tags[i] == i, concat!(stringify!($T), " tags must run 0, 1, 2, .."));
                i += 1;
            }
        };
        impl $crate::codec::Sealed for $T {}
        #[deny(unreachable_patterns)]
        impl $crate::Codec for $T {
            const SCHEMA: &'static str = concat!(
                "enum ", stringify!($T), " {\n",
                $("  ", stringify!($V), " = ", stringify!($tag), "\n",)+
                "}\n",
            );
            fn encode(&self, out: &mut Vec<u8>) {
                // The tag from a match of its own: a table lookup and one
                // write. Written inside each arm below, a 1000-job
                // `ReplicaState` encodes 20 % slower.
                let tag: u8 = match self {
                    $($T::$V { .. } => $tag,)+
                };
                $crate::Codec::encode(&tag, out);
                match self {
                    $($T::$V $(($($p),+))? $({ $($f),+ })? => {
                        $($($crate::Codec::encode($p, out);)+)?
                        $($($crate::Codec::encode($f, out);)+)?
                    })+
                }
            }
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::DecodeError> {
                match <u8 as $crate::Codec>::decode(r)? {
                    $($tag => {
                        $($(let $p = $crate::Codec::decode(r)?;)+)?
                        $($(let $f = $crate::Codec::decode(r)?;)+)?
                        Ok($T::$V $(($($p),+))? $({ $($f),+ })?)
                    })+
                    _ => Err($crate::DecodeError::Invalid(concat!(stringify!($T), " tag"))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-7i64);
        round_trip(true);
        round_trip('λ');
        round_trip(String::from("job-0"));
        round_trip(String::new());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(9u16));
        round_trip(Option::<u16>::None);
        round_trip(Box::new(9u16));
        round_trip(BTreeMap::from([
            (1u32, String::from("a")),
            (2, String::from("b")),
        ]));
        round_trip(BTreeSet::from([5u64, 7]));
        round_trip((1u8, String::from("x"), vec![2u64]));
        round_trip(Rc::<str>::from("job-0"));
        round_trip(Rc::<str>::from(""));
        round_trip(Rc::<str>::from("λ-ジョブ-🚀"));
        round_trip(vec![Rc::<str>::from("a"), Rc::from("")]);
        round_trip(Rc::<[u32]>::from([1, 2, 3]));
        round_trip(Rc::<[u64]>::from([]));
    }

    #[test]
    fn shared_slice_encodes_like_vec() {
        let items = vec![Rc::<str>::from("a"), Rc::from(""), Rc::from("job-7")];
        let shared: Rc<[Rc<str>]> = items.iter().cloned().collect();
        assert_eq!(shared.to_bytes(), items.to_bytes());
        assert_eq!(Rc::<[u8]>::from([]).to_bytes(), Vec::<u8>::new().to_bytes());
        let bytes = 1024u32.to_bytes();
        assert_eq!(Rc::<[u64]>::from_bytes(&bytes), Err(DecodeError::Eof));
    }

    #[test]
    fn shared_str_encodes_like_string() {
        for text in ["", "job-0", "λ-ジョブ-🚀"] {
            assert_eq!(
                Rc::<str>::from(text).to_bytes(),
                String::from(text).to_bytes()
            );
        }
        let mut bad = 2u32.to_bytes();
        bad.extend_from_slice(&[0xC3, 0x28]);
        assert_eq!(
            Rc::<str>::from_bytes(&bad),
            Err(DecodeError::Invalid("utf-8"))
        );
        assert_eq!(String::from_bytes(&bad), Err(DecodeError::Invalid("utf-8")));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert_eq!(
            u32::from_bytes(&bytes),
            Err(DecodeError::Invalid("trailing bytes"))
        );
    }

    #[test]
    fn truncation_is_eof() {
        let bytes = 5u64.to_bytes();
        assert_eq!(u64::from_bytes(&bytes[..4]), Err(DecodeError::Eof));
    }

    #[test]
    fn corrupt_length_cannot_allocate() {
        // A vector claiming u32::MAX items dies on the explicit ceiling
        // before any allocation, regardless of how many bytes follow.
        let bytes = u32::MAX.to_bytes();
        assert_eq!(
            Vec::<u64>::from_bytes(&bytes),
            Err(DecodeError::Invalid("length exceeds MAX_LEN"))
        );
        // A length under the ceiling but past the record end is Eof.
        let bytes = 1024u32.to_bytes();
        assert_eq!(Vec::<u64>::from_bytes(&bytes), Err(DecodeError::Eof));
    }

    #[test]
    fn invalid_tags_rejected() {
        assert_eq!(bool::from_bytes(&[2]), Err(DecodeError::Invalid("bool")));
        assert_eq!(
            Option::<u8>::from_bytes(&[9]),
            Err(DecodeError::Invalid("option tag"))
        );
    }
}
