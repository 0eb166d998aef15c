//! Deterministic random-stream derivation.
//!
//! Every experiment takes a single `u64` seed. Each simulated component
//! (a pod manager, a workload generator, the DNS resolver, …) derives its
//! own independent stream by hashing the experiment seed together with a
//! stable component label. This makes simulations reproducible bit-for-bit
//! and independent of the order in which components happen to draw
//! random numbers.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step: the standard seed-expansion finalizer (Steele et al.).
/// Used both to expand seeds and as a cheap, high-quality integer mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes, used to fold component labels into seed material.
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Derive a child seed from `(seed, label, index)`.
///
/// The same triple always yields the same child seed; distinct triples
/// yield (with overwhelming probability) unrelated streams.
pub fn derive_seed(seed: u64, label: &str, index: u64) -> u64 {
    let mut s =
        seed ^ fnv1a(label.as_bytes()).rotate_left(17) ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    // A couple of splitmix rounds to decorrelate nearby indices.
    splitmix64(&mut s);
    splitmix64(&mut s)
}

/// Construct the deterministic RNG for component `(label, index)` under
/// `seed`. [`SmallRng`] (xoshiro-family) is fast and adequate for
/// simulation workloads; it is *not* cryptographic.
pub fn component_rng(seed: u64, label: &str, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(seed, label, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::collections::HashSet;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(42, "pod", 7), derive_seed(42, "pod", 7));
        let mut a = component_rng(42, "pod", 7);
        let mut b = component_rng(42, "pod", 7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn distinct_labels_give_distinct_streams() {
        let a = derive_seed(42, "pod", 0);
        let b = derive_seed(42, "switch", 0);
        let c = derive_seed(42, "pod", 1);
        let d = derive_seed(43, "pod", 0);
        let set: HashSet<u64> = [a, b, c, d].into_iter().collect();
        assert_eq!(set.len(), 4, "seed collisions across labels/indices/seeds");
    }

    #[test]
    fn nearby_indices_are_decorrelated() {
        // Crude avalanche check: consecutive indices should differ in many bits.
        for i in 0..64u64 {
            let x = derive_seed(1, "w", i);
            let y = derive_seed(1, "w", i + 1);
            let diff = (x ^ y).count_ones();
            assert!(
                diff > 10,
                "only {diff} differing bits between indices {i} and {}",
                i + 1
            );
        }
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference values from the public SplitMix64 test vectors (seed 0).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220A8397B1DCDAF);
        assert_eq!(splitmix64(&mut s), 0x6E789E6AA1B965F4);
        assert_eq!(splitmix64(&mut s), 0x06C45D188009454F);
    }
}
