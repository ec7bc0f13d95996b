//! A cheap hasher for the integer ids (`JobId`, `NodeId`) that key the
//! observers' per-event tables.
//!
//! std's default SipHash guards against adversarial keys at a cost paid
//! on every lookup. The observers look up one or two ids per event, so
//! they use a multiplicative hash instead: one multiply per id, and a
//! final rotation that moves the well-mixed high bits down to where the
//! table picks its bucket. Both steps are bijections, so distinct ids
//! never share a hash; ids that differ only in their high bits (as a
//! decoded trace may carry) still spread across buckets.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by small integer ids, hashed with [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Odd multiplier with well-spread bits (2^64 / φ).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplicative hashing of the integers a key writes.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use std::hash::BuildHasher;

    fn hash_of(job: JobId) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(job)
    }

    #[test]
    fn ids_spaced_by_large_powers_of_two_spread_their_low_bits() {
        // Ids 0, 2^20, 2·2^20, …: a bare multiply would leave the low 20
        // bits zero for all of them, piling every key into one bucket.
        let buckets: std::collections::HashSet<u64> =
            (0..64u64).map(|k| hash_of(JobId(k << 20)) & 63).collect();
        assert!(buckets.len() > 32, "only {} of 64 buckets used", buckets.len());
    }

    #[test]
    fn id_map_round_trips() {
        let mut m: IdMap<JobId, u64> = IdMap::default();
        for i in 0..1000u64 {
            m.insert(JobId(i * 7919), i);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m[&JobId(i * 7919)] == i));
    }
}
