//! One hasher for maps and sets keyed by the integer id newtypes.
//!
//! The k-SIR hot paths — the active window, the per-element topic vectors,
//! the ranked lists' point index and a query's candidate state — look up
//! [`ElementId`](crate::ElementId)s and [`WordId`](crate::WordId)s millions
//! of times per second.  `std`'s SipHash spends more time hashing such a key
//! than the lookup spends on everything else, so these maps use [`IdMap`] /
//! [`IdSet`] with [`IdHasher`] instead: one folded 64×64→128-bit multiply per
//! key.
//!
//! Two properties matter, and a plain multiplicative (`x·K`) hash has
//! neither:
//!
//! * **High bits reach the low bits.**  Element ids are assigned by the
//!   stream's producer and often carry structure in their high bits (a shard
//!   or source tag in the upper half, say).  `x·K` leaves the low bits of the
//!   product depending only on the low bits of `x`, so ids of the form
//!   `i << 32` all land in one bucket group and every insert degrades into a
//!   probe of the whole cluster.  Folding the high half of the 128-bit
//!   product into the low half spreads every input bit over every output bit.
//! * **A per-process seed.**  The seed is drawn once per process from
//!   [`RandomState`], so no fixed set of ids collides on every run.  The ids
//!   come from outside the program; one multiply is not a keyed PRF like
//!   SipHash, but without the process's seed a colliding id set cannot be
//!   prepared in advance.
//!
//! Iteration order of these maps is therefore unspecified and differs
//! between processes, exactly as with `std`'s default hasher; nothing may
//! depend on it.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by an integer id, hashed with [`IdHasher`].
///
/// Construct with `IdMap::default()` (`HashMap::new` is only defined for
/// `std`'s default hasher).
pub type IdMap<K, V> = HashMap<K, V, IdState>;

/// A `HashSet` of integer ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, IdState>;

/// Odd multiplier of the folded multiply (the 64-bit golden ratio).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// `a·b` as a 128-bit product, with its high half folded onto its low half.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Hasher for integer keys: each written word is mixed into the state with
/// one folded multiply.  See the [module docs](self) for why it folds.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = folded_multiply(self.state ^ x, MULTIPLIER);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    /// Byte strings are not what this hasher is for, but stay correct: they
    /// are mixed in eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// [`BuildHasher`] for [`IdHasher`], carrying the per-process seed.
#[derive(Debug, Clone, Copy)]
pub struct IdState {
    seed: u64,
}

impl Default for IdState {
    #[inline]
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        IdState {
            seed: *SEED.get_or_init(|| RandomState::new().hash_one(MULTIPLIER)),
        }
    }
}

impl BuildHasher for IdState {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { state: self.seed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ElementId, WordId};

    impl IdState {
        /// A fixed seed, so the tests see the same hash values on every run.
        fn with_seed(seed: u64) -> Self {
            IdState { seed }
        }
    }

    /// Distinct values of the low 12 bits over 4096 ids — the bucket index of
    /// a 4096-slot table.  A uniform hash gives about 4096·(1 − 1/e) ≈ 2589.
    fn low_bits_spread(state: &IdState, ids: impl Iterator<Item = ElementId>) -> usize {
        let low: HashSet<u64> = ids.map(|id| state.hash_one(id) & 0xfff).collect();
        low.len()
    }

    #[test]
    fn high_bit_ids_spread_over_the_low_bits() {
        let state = IdState::with_seed(0x5eed);
        for shift in [0u32, 32, 48] {
            let spread = low_bits_spread(&state, (0..4096u64).map(|i| ElementId(i << shift)));
            assert!(
                spread >= 2000,
                "ids i << {shift}: {spread} distinct low-bit values"
            );
        }
    }

    #[test]
    fn word_ids_spread_too() {
        let state = IdState::with_seed(0x5eed);
        let low: HashSet<u64> = (0..4096u32)
            .map(|i| state.hash_one(WordId(i << 20)) & 0xfff)
            .collect();
        assert!(low.len() >= 2000, "{} distinct low-bit values", low.len());
    }

    #[test]
    fn seeds_change_hashes_and_default_is_stable_within_a_process() {
        let a = IdState::with_seed(1).hash_one(ElementId(7));
        let b = IdState::with_seed(2).hash_one(ElementId(7));
        assert_ne!(a, b);
        assert_eq!(
            IdState::default().hash_one(ElementId(7)),
            IdState::default().hash_one(ElementId(7))
        );
    }

    #[test]
    fn maps_behave_like_maps() {
        let mut map: IdMap<ElementId, u32> = IdMap::default();
        for i in 0..1000u64 {
            map.insert(ElementId(i << 32), i as u32);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&ElementId(5 << 32)), Some(&5));
        assert!(!map.contains_key(&ElementId(5)));
        let set: IdSet<WordId> = (0..10u32).map(WordId).collect();
        assert!(set.contains(&WordId(9)));
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let state = IdState::with_seed(3);
        assert_ne!(state.hash_one("abc"), state.hash_one("abd"));
        assert_ne!(state.hash_one("abcdefghi"), state.hash_one("abcdefghj"));
    }
}
