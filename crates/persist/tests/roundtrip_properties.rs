//! Property tests of the checkpoint codec (DESIGN.md §12).
//!
//! Two families of properties:
//!
//! 1. **Round-trip bit-identity** — `decode(encode(x))` reproduces `x`
//!    exactly, down to the bit pattern of every float (NaN payloads and the
//!    sign of zero included), for every `Persist` type in the workspace:
//!    the wire primitives, `Option`/`Vec`/`VecDeque`/tuples/arrays, the
//!    pmf types, the prefix-cache fingerprint, and the RNG state words.
//! 2. **Hostile bytes never panic** — corrupted, truncated, bit-flipped,
//!    or wrong-version buffers produce a typed [`DecodeError`]; no input
//!    reaches an unwrap, an overflow, or an oversized allocation.

use ecds_persist::{open, seal, DecodeError, Decoder, Encoder, Persist};
use ecds_pmf::{Impulse, Pmf};
use proptest::prelude::*;
use proptest::strategy::Map;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::ops::RangeInclusive;

fn encoded<T: Persist>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

fn roundtrip<T: Persist>(value: &T) -> T {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    let bytes = enc.into_bytes();
    let mut dec = Decoder::new(&bytes);
    let out = T::decode(&mut dec).expect("encoded value must decode");
    dec.finish()
        .expect("decode must consume exactly what encode wrote");
    out
}

/// Full-range `u64` (the vendored proptest has no `any::<T>()`).
fn arb_u64() -> RangeInclusive<u64> {
    0..=u64::MAX
}

/// `f64` from raw bits: covers NaN payloads, infinities, subnormals, and
/// both zeros — everything `==` would mishandle and `to_bits` must not.
fn arb_f64_bits() -> Map<RangeInclusive<u64>, fn(u64) -> f64> {
    arb_u64().prop_map(f64::from_bits)
}

/// `Option<T>` strategy built from a presence flag (no `option::of` in the
/// vendored stand-in).
fn arb_option<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (prop::bool::ANY, inner).prop_map(|(some, v)| some.then_some(v))
}

/// A structurally valid pmf: strictly increasing values, positive mass
/// normalised to 1 (within the codec's documented 1e-6 tolerance).
fn arb_pmf() -> impl Strategy<Value = Pmf> {
    prop::collection::vec(1u32..1000, 1..8).prop_map(|weights| {
        let total: f64 = weights.iter().map(|&w| f64::from(w)).sum();
        let pairs: Vec<(f64, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (10.0 + 5.0 * i as f64, f64::from(w) / total))
            .collect();
        Pmf::from_pairs(&pairs).expect("strategy builds a valid pmf")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // -- round-trip bit-identity ------------------------------------------

    #[test]
    fn primitives_round_trip(a in 0u8..=u8::MAX, b in 0u16..=u16::MAX,
                             c in 0u32..=u32::MAX, d in arb_u64(),
                             e in arb_f64_bits(), f in prop::bool::ANY) {
        prop_assert_eq!(roundtrip(&a), a);
        prop_assert_eq!(roundtrip(&b), b);
        prop_assert_eq!(roundtrip(&c), c);
        prop_assert_eq!(roundtrip(&d), d);
        prop_assert_eq!(roundtrip(&e).to_bits(), e.to_bits());
        prop_assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn containers_round_trip(opt in arb_option(arb_f64_bits()),
                             vec in prop::collection::vec(arb_u64(), 0..32),
                             pair in (arb_u64(), arb_f64_bits()),
                             triple in (arb_f64_bits(), arb_f64_bits(), 0u32..=u32::MAX)) {
        prop_assert_eq!(roundtrip(&opt).map(f64::to_bits), opt.map(f64::to_bits));
        prop_assert_eq!(roundtrip(&vec), vec);
        let back = roundtrip(&pair);
        prop_assert_eq!(back.0, pair.0);
        prop_assert_eq!(back.1.to_bits(), pair.1.to_bits());
        let back = roundtrip(&triple);
        prop_assert_eq!(back.0.to_bits(), triple.0.to_bits());
        prop_assert_eq!(back.1.to_bits(), triple.1.to_bits());
        prop_assert_eq!(back.2, triple.2);
    }

    #[test]
    fn float_vectors_round_trip_bitwise(vec in prop::collection::vec(arb_f64_bits(), 0..32)) {
        let back = roundtrip(&vec);
        prop_assert_eq!(back.len(), vec.len());
        for (x, y) in back.iter().zip(&vec) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn impulse_round_trips_bitwise(value in arb_f64_bits(), prob in arb_f64_bits()) {
        let imp = Impulse { value, prob };
        let back = roundtrip(&imp);
        prop_assert_eq!(back.value.to_bits(), imp.value.to_bits());
        prop_assert_eq!(back.prob.to_bits(), imp.prob.to_bits());
    }

    #[test]
    fn pmf_round_trips_bitwise(pmf in arb_pmf()) {
        prop_assert!(roundtrip(&pmf).bit_eq(&pmf));
    }

    #[test]
    fn prefix_fingerprint_round_trips(fp in arb_option(arb_u64())) {
        // A prefix-cache entry's fingerprint: `None` for an idle core.
        prop_assert_eq!(roundtrip(&fp), fp);
    }

    #[test]
    fn rng_state_round_trip_continues_the_stream(seed in arb_u64(), burn in 0usize..64) {
        // The serve checkpoint stores RNG positions as their four state
        // words; a restored stream must continue exactly where the
        // original left off.
        let mut original = StdRng::seed_from_u64(seed);
        for _ in 0..burn {
            let _ = original.gen_range(0..u64::MAX);
        }
        let mut restored = StdRng::from_state(roundtrip(&original.state()));
        for _ in 0..16 {
            prop_assert_eq!(
                original.gen_range(0..u64::MAX),
                restored.gen_range(0..u64::MAX)
            );
        }
    }

    #[test]
    fn deques_and_arrays_round_trip(deque in prop::collection::vec(arb_f64_bits(), 0..32),
                                    words in (arb_u64(), arb_u64(), arb_u64(), arb_u64()),
                                    rows in prop::collection::vec(arb_u64(), 6)) {
        // A deque has the same layout as a vector of its elements.
        let deque: VecDeque<f64> = deque.into_iter().collect();
        let back = roundtrip(&deque);
        prop_assert_eq!(encoded(&back), encoded(&deque));
        prop_assert_eq!(
            encoded(&deque),
            encoded(&deque.iter().copied().collect::<Vec<f64>>())
        );
        let state = [words.0, words.1, words.2, words.3];
        prop_assert_eq!(roundtrip(&state), state);
        let nested = [[rows[0], rows[1]], [rows[2], rows[3]], [rows[4], rows[5]]];
        prop_assert_eq!(roundtrip(&nested), nested);
    }

    #[test]
    fn encodings_never_undercut_the_declared_minimum(
        vec in prop::collection::vec(arb_u64(), 0..8),
        opt in arb_option(arb_f64_bits()),
        pmf in arb_pmf(),
        flag in prop::bool::ANY,
    ) {
        prop_assert!(encoded(&vec).len() as u64 >= Vec::<u64>::MIN_ENCODED_LEN);
        prop_assert!(encoded(&opt).len() as u64 >= Option::<f64>::MIN_ENCODED_LEN);
        prop_assert!(encoded(&pmf).len() as u64 >= Pmf::MIN_ENCODED_LEN);
        prop_assert!(encoded(&flag).len() as u64 >= bool::MIN_ENCODED_LEN);
        let deque: VecDeque<u64> = vec.into_iter().collect();
        prop_assert!(encoded(&deque).len() as u64 >= VecDeque::<u64>::MIN_ENCODED_LEN);
        prop_assert_eq!(encoded(&[0u64; 4]).len() as u64, <[u64; 4]>::MIN_ENCODED_LEN);
    }

    // -- the envelope ------------------------------------------------------

    #[test]
    fn seal_open_round_trips(body in prop::collection::vec(0u8..=u8::MAX, 0..256),
                             version in 0u32..=u32::MAX) {
        let sealed = seal(version, &body);
        prop_assert_eq!(open(&sealed, version).expect("fresh envelope opens"), &body[..]);
    }

    #[test]
    fn any_single_bit_flip_is_rejected(body in prop::collection::vec(0u8..=u8::MAX, 0..64),
                                       byte_sel in 0usize..4096,
                                       bit in 0u8..8) {
        // The checksum covers the full prefix (magic and version included),
        // so no single-bit corruption anywhere in the envelope can open.
        let sealed = seal(1, &body);
        let mut bent = sealed.clone();
        let idx = byte_sel % bent.len();
        bent[idx] ^= 1 << bit;
        prop_assert!(open(&bent, 1).is_err(), "flip at byte {idx} bit {bit} opened");
    }

    #[test]
    fn every_strict_prefix_is_rejected(body in prop::collection::vec(0u8..=u8::MAX, 0..48)) {
        let sealed = seal(1, &body);
        for len in 0..sealed.len() {
            prop_assert!(open(&sealed[..len], 1).is_err(), "prefix of {len} bytes opened");
        }
    }

    #[test]
    fn foreign_versions_are_typed(body in prop::collection::vec(0u8..=u8::MAX, 0..32),
                                  wrote in 0u32..=u32::MAX, bump in 1u32..=u32::MAX) {
        let expect = wrote.wrapping_add(bump); // always != wrote
        let sealed = seal(wrote, &body);
        prop_assert_eq!(
            open(&sealed, expect),
            Err(DecodeError::UnsupportedVersion { found: wrote })
        );
    }

    // -- hostile bytes never panic ----------------------------------------

    #[test]
    fn decoders_never_panic_on_random_bytes(bytes in prop::collection::vec(0u8..=u8::MAX, 0..128)) {
        // Every decode either succeeds or returns a typed error; reaching
        // the end of this body at all is the property.
        let _ = open(&bytes, 1);
        let _ = Pmf::decode(&mut Decoder::new(&bytes));
        let _ = Impulse::decode(&mut Decoder::new(&bytes));
        let _ = Option::<u64>::decode(&mut Decoder::new(&bytes));
        let _ = Vec::<f64>::decode(&mut Decoder::new(&bytes));
        let _ = Vec::<(u64, f64)>::decode(&mut Decoder::new(&bytes));
        let _ = Option::<Pmf>::decode(&mut Decoder::new(&bytes));
        let _ = bool::decode(&mut Decoder::new(&bytes));
        let _ = VecDeque::<Pmf>::decode(&mut Decoder::new(&bytes));
        let _ = <[[u64; 4]; 3]>::decode(&mut Decoder::new(&bytes));
        let _ = <[Option<Pmf>; 2]>::decode(&mut Decoder::new(&bytes));
    }

    #[test]
    fn truncated_values_report_truncated(vec in prop::collection::vec(arb_u64(), 1..16),
                                         cut_sel in 0usize..4096) {
        let mut enc = Encoder::new();
        vec.encode(&mut enc);
        let bytes = enc.into_bytes();
        // Cut strictly inside the payload: some suffix is missing.
        let len = 8 + cut_sel % (bytes.len() - 8);
        let mut dec = Decoder::new(&bytes[..len]);
        prop_assert_eq!(Vec::<u64>::decode(&mut dec), Err(DecodeError::Truncated));
    }

    #[test]
    fn oversized_length_fields_never_allocate(claim in (1u64 << 32)..u64::MAX) {
        // A corrupted length field far beyond the buffer must be refused
        // before any reservation is attempted.
        let mut enc = Encoder::new();
        enc.put_u64(claim);
        let bytes = enc.into_bytes();
        prop_assert_eq!(
            Vec::<u8>::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::Truncated)
        );
        prop_assert_eq!(
            Pmf::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::Truncated)
        );
    }
}
