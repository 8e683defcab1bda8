//! Canonical state fingerprinting for model checking and replica
//! comparison.
//!
//! [`Fnv64`] is a 64-bit FNV-1a [`std::hash::Hasher`]. Unlike the std
//! `DefaultHasher` (SipHash with per-process random keys), FNV-1a is
//! fully deterministic: the same byte stream produces the same digest in
//! every process, on every run. That property is what makes it usable
//! for
//!
//! * visited-set deduplication in the `jrs-mc` bounded model checker
//!   (two worlds with equal fingerprints are treated as the same state),
//! * replica state-hash convergence checks (all head nodes must agree).
//!
//! The replicated-state crates derive [`std::hash::Hash`] on their state
//! types and feed them through [`fingerprint`]; because every such type
//! stores its collections in ordered containers (`BTreeMap`/`BTreeSet`,
//! `clippy::disallowed_types`), the byte stream — and hence the digest — is identical
//! across replicas.

use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Deterministic 64-bit FNV-1a hasher.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// Deterministic fingerprint of any `Hash` value.
///
/// Stable across processes and runs (FNV-1a, no random keys); **not**
/// stable across compiler versions or type-layout changes — use for
/// in-run deduplication and cross-replica comparison, not for on-disk
/// formats.
#[must_use]
pub fn fingerprint<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hashers() {
        let a = fingerprint(&(1u64, "abc", vec![3u32, 4, 5]));
        let b = fingerprint(&(1u64, "abc", vec![3u32, 4, 5]));
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(fingerprint(&1u64), fingerprint(&2u64));
        assert_ne!(fingerprint("a"), fingerprint("b"));
    }

    #[test]
    fn known_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        // Classic test vector: "a" → 0xaf63dc4c8601ec8c.
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
