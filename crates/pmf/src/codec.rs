//! Checkpoint codecs for the pmf types ([`ecds_persist::Persist`] impls).
//!
//! Lives here rather than in `ecds-persist` because decoding a [`Pmf`]
//! must re-establish the type's invariants through the crate-private
//! invariant constructor: a checkpoint is untrusted input, so the decoder
//! validates every invariant explicitly and reports
//! [`DecodeError::Corrupt`] instead of panicking.

use ecds_persist::{DecodeError, Decoder, Encoder, Persist};

use crate::impulse::Impulse;
use crate::pmf::Pmf;

impl Persist for Impulse {
    const MIN_ENCODED_LEN: u64 = 16;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.value);
        enc.put_f64(self.prob);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let value = dec.f64()?;
        let prob = dec.f64()?;
        Ok(Self { value, prob })
    }
}

impl Persist for Pmf {
    /// A length field and at least one impulse.
    const MIN_ENCODED_LEN: u64 = 8 + Impulse::MIN_ENCODED_LEN;

    fn encode(&self, enc: &mut Encoder) {
        let imps = self.impulses();
        enc.put_u64(imps.len() as u64);
        for imp in imps {
            imp.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let impulses = Vec::<Impulse>::decode(dec)?;
        if impulses.is_empty() {
            return Err(DecodeError::Corrupt("pmf needs at least one impulse"));
        }
        // Re-establish every invariant of `from_invariant_impulses` on the
        // untrusted bytes (same bounds as its debug assertions).
        if !impulses.iter().all(Impulse::is_valid) {
            return Err(DecodeError::Corrupt("pmf impulse not valid"));
        }
        if !impulses.windows(2).all(|w| w[0].value < w[1].value) {
            return Err(DecodeError::Corrupt("pmf impulses not strictly sorted"));
        }
        if (impulses.iter().map(|i| i.prob).sum::<f64>() - 1.0).abs() >= 1e-6 {
            return Err(DecodeError::Corrupt("pmf mass not 1"));
        }
        Ok(Pmf::from_invariant_impulses(impulses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist>(value: &T) -> T {
        let mut enc = Encoder::new();
        value.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let out = T::decode(&mut dec).expect("decodes");
        dec.finish().expect("no trailing bytes");
        out
    }

    #[test]
    fn impulse_roundtrips_bit_identically() {
        let imp = Impulse::new(1353.25, 0.125);
        let back = roundtrip(&imp);
        assert_eq!(back.value.to_bits(), imp.value.to_bits());
        assert_eq!(back.prob.to_bits(), imp.prob.to_bits());
    }

    #[test]
    fn pmf_roundtrips_bit_identically() {
        let pmf = Pmf::from_pairs(&[(10.0, 0.5), (20.0, 0.25), (45.5, 0.25)]).unwrap();
        assert!(roundtrip(&pmf).bit_eq(&pmf));
    }

    #[test]
    fn empty_pmf_rejected() {
        let mut enc = Encoder::new();
        enc.put_u64(0);
        let bytes = enc.into_bytes();
        assert_eq!(
            Pmf::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::Corrupt("pmf needs at least one impulse"))
        );
    }

    #[test]
    fn unsorted_pmf_rejected() {
        let mut enc = Encoder::new();
        enc.put_u64(2);
        Impulse::new(20.0, 0.5).encode(&mut enc);
        Impulse::new(10.0, 0.5).encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(
            Pmf::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::Corrupt("pmf impulses not strictly sorted"))
        );
    }

    #[test]
    fn unnormalized_pmf_rejected() {
        let mut enc = Encoder::new();
        enc.put_u64(1);
        Impulse::new(10.0, 0.25).encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(
            Pmf::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::Corrupt("pmf mass not 1"))
        );
    }

    #[test]
    fn oversized_impulse_count_rejected_before_allocation() {
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        let bytes = enc.into_bytes();
        assert_eq!(
            Pmf::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn invalid_probability_rejected() {
        let mut enc = Encoder::new();
        enc.put_u64(2);
        Impulse {
            value: 10.0,
            prob: 1.5,
        }
        .encode(&mut enc);
        Impulse {
            value: 20.0,
            prob: -0.5,
        }
        .encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(
            Pmf::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::Corrupt("pmf impulse not valid"))
        );
    }

    #[test]
    fn truncated_pmf_reports_truncated() {
        let pmf = Pmf::from_pairs(&[(10.0, 0.5), (20.0, 0.5)]).unwrap();
        let mut enc = Encoder::new();
        pmf.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(
            Pmf::decode(&mut Decoder::new(&bytes[..bytes.len() - 1])),
            Err(DecodeError::Truncated)
        );
    }
}
