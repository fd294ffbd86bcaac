//! Hand-rolled versioned binary codec for checkpoint/restore (DESIGN.md
//! §12).
//!
//! The serve loop (`ecds_sim::serve`) snapshots complete simulation state —
//! clock, event queue, per-core state, RNG positions, energy logs,
//! discipline internals — and must restore it **bit-identically**: a trial
//! checkpointed at any event boundary and resumed produces byte-identical
//! outcomes and telemetry versus an uninterrupted run. This workspace
//! builds hermetically with no registry access, so instead of serde the
//! codec is written by hand against three rules:
//!
//! 1. **Fixed-width little-endian only.** Every integer on the wire is
//!    `u8`/`u16`/`u32`/`u64`; floats travel as `f64::to_bits`. Pointer-width
//!    types never appear in the format (enforced by ecds-lint R2's
//!    persist-crate ban table), so a checkpoint written on one platform
//!    restores on any other.
//! 2. **Typed failures, never panics.** Decoding attacker- or
//!    disk-corrupted bytes returns [`DecodeError`]; no code path in this
//!    crate unwraps, panics, or silently misreads.
//! 3. **Versioned, checksummed envelope.** [`seal`] frames a payload with a
//!    magic number, a format version, and an FNV-1a-64 checksum; [`open`]
//!    rejects foreign bytes ([`DecodeError::BadMagic`]), future formats
//!    ([`DecodeError::UnsupportedVersion`]), and bit rot
//!    ([`DecodeError::ChecksumMismatch`]) before any field is interpreted.
//!
//! Domain crates implement [`Persist`] for their own types (the pmf
//! impulses, tasks, core states, transition logs, event queues, the
//! evaluator's cached prefixes) next to the private fields they must
//! restore exactly; this crate defines the wire primitives and the
//! container impls (`Option`, `Vec`, `VecDeque`, tuples, arrays — an RNG
//! stream is its `[u64; 4]` state). A checkpoint is then an ordered list
//! of `encode` calls, and its restore the same list of `decode` calls.
//!
//! Every impl declares [`Persist::MIN_ENCODED_LEN`], the fewest bytes any
//! value of the type occupies on the wire. The sequence impls read their
//! length field through [`Decoder::len_prefix`] with the element's
//! minimum, so a corrupted count that could not fit the remaining bytes
//! fails as [`DecodeError::Truncated`] before anything is allocated.

#![warn(missing_docs)]

use std::collections::VecDeque;

/// Magic number opening every sealed envelope (`b"ECDSCKPT"` read as a
/// little-endian `u64`).
pub const MAGIC: u64 = u64::from_le_bytes(*b"ECDSCKPT");

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` — deterministic, platform-independent,
/// no per-process entropy.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A typed decoding failure. Every constructor of this enum is a *refusal*:
/// the decoder never guesses, truncates silently, or panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the field (or envelope frame) it should
    /// contain.
    Truncated,
    /// The envelope does not start with [`MAGIC`] — these are not
    /// checkpoint bytes.
    BadMagic,
    /// The envelope's format version is not the one the reader supports.
    UnsupportedVersion {
        /// The version number found in the envelope header.
        found: u32,
    },
    /// The envelope checksum does not match its payload.
    ChecksumMismatch,
    /// A field decoded to a value that violates a documented invariant of
    /// the persisted type (the message names the invariant).
    Corrupt(&'static str),
    /// Decoding finished but unread bytes remain — the buffer does not
    /// match the schema that is being read.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "buffer truncated"),
            Self::BadMagic => write!(f, "bad magic: not a checkpoint envelope"),
            Self::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint format version {found}")
            }
            Self::ChecksumMismatch => write!(f, "envelope checksum mismatch"),
            Self::Corrupt(what) => write!(f, "corrupt field: {what}"),
            Self::TrailingBytes => write!(f, "trailing bytes after decoded payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only little-endian byte sink. Encoding is infallible; the
/// companion [`Decoder`] re-reads the exact sequence of fields.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern ([`f64::to_bits`],
    /// little-endian) — the representation round-trips NaN payloads and the
    /// sign of zero.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (`0` or `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends raw bytes verbatim (callers frame them with an explicit
    /// length field when the boundary is not implied by the schema).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn written(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Consumes the encoder and returns the byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a byte buffer that reads back the sequence an [`Encoder`]
/// wrote. Every read is bounds-checked and returns
/// [`DecodeError::Truncated`] past the end; nothing here panics.
#[derive(Debug, Clone, Copy)]
pub struct Decoder<'b> {
    rest: &'b [u8],
}

impl<'b> Decoder<'b> {
    /// A decoder over `bytes`.
    pub fn new(bytes: &'b [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> u64 {
        self.rest.len() as u64
    }

    /// Returns [`DecodeError::TrailingBytes`] unless the buffer has been
    /// consumed exactly.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let (first, rest) = self.rest.split_first().ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(*first)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let (chunk, rest) = self
            .rest
            .split_first_chunk::<2>()
            .ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(u16::from_le_bytes(*chunk))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let (chunk, rest) = self
            .rest
            .split_first_chunk::<4>()
            .ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(u32::from_le_bytes(*chunk))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let (chunk, rest) = self
            .rest
            .split_first_chunk::<8>()
            .ok_or(DecodeError::Truncated)?;
        self.rest = rest;
        Ok(u64::from_le_bytes(*chunk))
    }

    /// Reads an `f64` from its exact bit pattern ([`f64::from_bits`]).
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `f64` that must be finite (a clock reading, an arrival or
    /// a deadline); NaN and the infinities are [`DecodeError::Corrupt`].
    pub fn finite_f64(&mut self) -> Result<f64, DecodeError> {
        let v = self.f64()?;
        if !v.is_finite() {
            return Err(DecodeError::Corrupt("expected a finite f64"));
        }
        Ok(v)
    }

    /// Reads a sequence length whose elements each occupy at least
    /// `min_elem` bytes. A count that cannot fit the remaining buffer is
    /// [`DecodeError::Truncated`], so a corrupted length never drives a
    /// huge reservation. A `min_elem` of 0 is treated as 1.
    pub fn len_prefix(&mut self, min_elem: u64) -> Result<u64, DecodeError> {
        let n = self.u64()?;
        if n > self.remaining() / min_elem.max(1) {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    /// Reads a `bool`; any byte other than `0` or `1` is
    /// [`DecodeError::Corrupt`].
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Corrupt("bool byte must be 0 or 1")),
        }
    }

    /// Reads exactly `n` raw bytes.
    pub fn bytes(&mut self, n: u64) -> Result<&'b [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n as _);
        self.rest = rest;
        Ok(head)
    }
}

/// A type that round-trips through the codec bit-identically:
/// `decode(encode(x)) == x` down to the exact bit pattern of every float.
pub trait Persist: Sized {
    /// The fewest bytes any value of this type encodes to. Sequences of
    /// the type guard their length field with it
    /// ([`Decoder::len_prefix`]).
    const MIN_ENCODED_LEN: u64;
    /// Appends this value's wire representation.
    fn encode(&self, enc: &mut Encoder);
    /// Reads one value back, validating every documented invariant.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

impl Persist for u8 {
    const MIN_ENCODED_LEN: u64 = 1;
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.u8()
    }
}

impl Persist for u16 {
    const MIN_ENCODED_LEN: u64 = 2;
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u16(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.u16()
    }
}

impl Persist for u32 {
    const MIN_ENCODED_LEN: u64 = 4;
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.u32()
    }
}

impl Persist for u64 {
    const MIN_ENCODED_LEN: u64 = 8;
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.u64()
    }
}

impl Persist for f64 {
    const MIN_ENCODED_LEN: u64 = 8;
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.f64()
    }
}

impl Persist for bool {
    const MIN_ENCODED_LEN: u64 = 1;
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.bool()
    }
}

impl<T: Persist> Persist for Option<T> {
    const MIN_ENCODED_LEN: u64 = 1;
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_bool(false),
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        if dec.bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    const MIN_ENCODED_LEN: u64 = 8;
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.len_prefix(T::MIN_ENCODED_LEN)?;
        let mut out = Vec::with_capacity(n as _);
        for _ in 0..n {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

/// Same wire layout as [`Vec`]: a `u64` length, then the elements front
/// to back.
impl<T: Persist> Persist for VecDeque<T> {
    const MIN_ENCODED_LEN: u64 = 8;
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        // `VecDeque::from(Vec)` reuses the buffer without copying.
        Vec::decode(dec).map(Self::from)
    }
}

/// A fixed-size array: its `N` elements in order, no length field (an
/// RNG stream's `[u64; 4]` state, for one).
impl<T: Persist + Default, const N: usize> Persist for [T; N] {
    const MIN_ENCODED_LEN: u64 = T::MIN_ENCODED_LEN * N as u64;
    fn encode(&self, enc: &mut Encoder) {
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mut out: [T; N] = std::array::from_fn(|_| T::default());
        for slot in &mut out {
            *slot = T::decode(dec)?;
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    const MIN_ENCODED_LEN: u64 = A::MIN_ENCODED_LEN + B::MIN_ENCODED_LEN;
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    const MIN_ENCODED_LEN: u64 = A::MIN_ENCODED_LEN + B::MIN_ENCODED_LEN + C::MIN_ENCODED_LEN;
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

/// Byte length of the envelope header ([`MAGIC`] + version).
const HEADER_LEN: u64 = 12;
/// Byte length of the trailing checksum.
const CHECKSUM_LEN: u64 = 8;

/// Frames `body` in the versioned envelope:
/// `MAGIC (u64) ‖ version (u32) ‖ body ‖ FNV-1a-64(prefix) (u64)`,
/// everything little-endian.
pub fn seal(version: u32, body: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(MAGIC);
    enc.put_u32(version);
    enc.put_bytes(body);
    let checksum = fnv1a_64(enc.as_slice());
    enc.put_u64(checksum);
    enc.into_bytes()
}

/// Validates an envelope produced by [`seal`] and returns its body.
///
/// Checks, in order: the buffer frames a complete envelope
/// ([`DecodeError::Truncated`]), it opens with [`MAGIC`]
/// ([`DecodeError::BadMagic`]), its version equals `expect_version`
/// ([`DecodeError::UnsupportedVersion`]), and the trailing checksum matches
/// the prefix ([`DecodeError::ChecksumMismatch`]). Only then may callers
/// interpret body fields.
pub fn open(bytes: &[u8], expect_version: u32) -> Result<&[u8], DecodeError> {
    if (bytes.len() as u64) < HEADER_LEN + CHECKSUM_LEN {
        return Err(DecodeError::Truncated);
    }
    let Some((payload, check)) = bytes.split_last_chunk::<8>() else {
        return Err(DecodeError::Truncated);
    };
    let mut dec = Decoder::new(payload);
    if dec.u64()? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = dec.u32()?;
    if version != expect_version {
        return Err(DecodeError::UnsupportedVersion { found: version });
    }
    if fnv1a_64(payload) != u64::from_le_bytes(*check) {
        return Err(DecodeError::ChecksumMismatch);
    }
    // The decoder has consumed exactly the header; what remains is the body.
    Ok(dec.rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(0xAB);
        enc.put_u16(0xBEEF);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(0x0123_4567_89AB_CDEF);
        enc.put_f64(-0.0);
        enc.put_bool(true);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 0xAB);
        assert_eq!(dec.u16().unwrap(), 0xBEEF);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.bool().unwrap());
        dec.finish().unwrap();
    }

    #[test]
    fn nan_payload_and_zero_sign_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut enc = Encoder::new();
        enc.put_f64(weird);
        enc.put_f64(-0.0);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.f64().unwrap().to_bits(), weird.to_bits());
        assert_eq!(dec.f64().unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn reads_past_end_are_truncated() {
        let mut dec = Decoder::new(&[1, 2, 3]);
        assert_eq!(dec.u64(), Err(DecodeError::Truncated));
        assert_eq!(dec.u32(), Err(DecodeError::Truncated));
        // The failed reads consumed nothing.
        assert_eq!(dec.remaining(), 3);
        assert_eq!(dec.u16().unwrap(), 0x0201);
        assert_eq!(dec.u8().unwrap(), 3);
        assert_eq!(dec.u8(), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut dec = Decoder::new(&[2]);
        assert!(matches!(dec.bool(), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let dec = Decoder::new(&[0]);
        assert_eq!(dec.finish(), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn vec_round_trips_and_rejects_oversized_length() {
        let v: Vec<u64> = vec![1, u64::MAX, 42];
        let mut enc = Encoder::new();
        v.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Vec::<u64>::decode(&mut dec).unwrap(), v);
        dec.finish().unwrap();

        // A length field claiming more elements than bytes remain must be
        // refused before any allocation is attempted.
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Vec::<u8>::decode(&mut dec), Err(DecodeError::Truncated));
    }

    #[test]
    fn len_prefix_guards_at_the_element_minimum() {
        // Two u64 elements claimed, 16 bytes present: fits at 8 bytes per
        // element, not at 9.
        let mut enc = Encoder::new();
        enc.put_u64(2);
        enc.put_bytes(&[0; 16]);
        let bytes = enc.into_bytes();
        assert_eq!(Decoder::new(&bytes).len_prefix(8), Ok(2));
        assert_eq!(
            Decoder::new(&bytes).len_prefix(9),
            Err(DecodeError::Truncated)
        );
        // A zero minimum still bounds the count by the remaining bytes.
        assert_eq!(Decoder::new(&bytes).len_prefix(0), Ok(2));
    }

    #[test]
    fn finite_f64_rejects_nan_and_infinities() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bytes = bad.to_bits().to_le_bytes();
            assert_eq!(
                Decoder::new(&bytes).finite_f64(),
                Err(DecodeError::Corrupt("expected a finite f64"))
            );
        }
        let bytes = (-0.0f64).to_bits().to_le_bytes();
        let v = Decoder::new(&bytes).finite_f64().unwrap();
        assert_eq!(v.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn option_round_trips() {
        for v in [None, Some(7.5f64)] {
            let mut enc = Encoder::new();
            v.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(Option::<f64>::decode(&mut dec).unwrap(), v);
        }
    }

    #[test]
    fn seal_open_round_trips() {
        let body = b"checkpoint payload";
        let sealed = seal(3, body);
        assert_eq!(open(&sealed, 3).unwrap(), body);
    }

    #[test]
    fn open_rejects_truncation_magic_version_and_corruption() {
        let sealed = seal(1, b"payload");
        assert_eq!(open(&sealed[..10], 1), Err(DecodeError::Truncated));
        assert_eq!(open(&[], 1), Err(DecodeError::Truncated));

        let mut bad_magic = sealed.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(open(&bad_magic, 1), Err(DecodeError::BadMagic));

        assert_eq!(
            open(&sealed, 2),
            Err(DecodeError::UnsupportedVersion { found: 1 })
        );

        let mut flipped = sealed.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert_eq!(open(&flipped, 1), Err(DecodeError::ChecksumMismatch));
    }

    #[test]
    fn checksum_covers_header_and_body() {
        // Flipping a bit in the version field must fail the checksum even
        // when the flipped version happens to be the expected one.
        let sealed_v3 = seal(3, b"x");
        let mut forged = seal(1, b"x");
        forged[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(open(&forged, 3), Err(DecodeError::ChecksumMismatch));
        assert!(open(&sealed_v3, 3).is_ok());
    }

    #[test]
    fn display_messages_are_stable() {
        assert_eq!(DecodeError::Truncated.to_string(), "buffer truncated");
        assert_eq!(
            DecodeError::UnsupportedVersion { found: 9 }.to_string(),
            "unsupported checkpoint format version 9"
        );
    }
}
