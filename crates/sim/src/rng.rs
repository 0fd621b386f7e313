//! Reproducible randomness.
//!
//! Every stochastic component of the simulation (packet loss, service-time
//! jitter, frame sizes, ...) draws from its **own named stream**, derived
//! from a single master seed. Runs are therefore bit-reproducible, and
//! adding a new consumer of randomness does not perturb the draws seen by
//! existing components — a property plain `SmallRng::seed_from_u64(seed)`
//! sharing would not give us.
//!
//! Streams are ChaCha8: cryptographic quality is irrelevant here, but the
//! ChaCha family guarantees the output sequence for a given seed is stable
//! across crate versions, unlike `StdRng`.
//!
//! A stream's 32-byte key is a pure function of the master seed and the
//! label's hash, so the streams a fleet keeps one of per device
//! ([`RngFactory::indexed_stream`]) store those two words instead and
//! rebuild the key at each block: an [`IndexedStream`] is 88 bytes where
//! a [`ChaCha8Rng`] is 112, and yields the same words.

use rand::chacha::block;
use rand::RngCore;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Derives independent, named RNG streams from one master seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    /// A factory deriving all streams from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        RngFactory {
            master: master_seed,
        }
    }

    /// A deterministic stream for `label`. The same `(master, label)` pair
    /// always yields an identical generator; distinct labels yield
    /// (statistically) independent ones.
    pub fn stream(&self, label: &str) -> ChaCha8Rng {
        self.stream_from_hash(fnv1a(label.as_bytes()))
    }

    /// A stream for `label` parameterized by an index (e.g. per-tenant).
    ///
    /// Word for word the stream `stream(&format!("{label}#{index}"))`
    /// yields — the label bytes, the `#`, and the decimal digits of
    /// `index` are fed through the same incremental FNV-1a — but with no
    /// heap allocation, and held in an [`IndexedStream`]: a fleet keeps
    /// three of these per device, and sweep cells construct several per
    /// run.
    pub fn indexed_stream(&self, label: &str, index: u64) -> IndexedStream {
        let mut h = fnv1a_update(FNV_OFFSET, label.as_bytes());
        h = fnv1a_update(h, b"#");
        let mut digits = [0u8; 20];
        IndexedStream {
            master: self.master,
            label_hash: fnv1a_update(h, decimal_digits(index, &mut digits)),
            block: [0; 16],
            counter: 0,
            index: 16,
        }
    }

    fn stream_from_hash(&self, label_hash: u64) -> ChaCha8Rng {
        let mut seed = [0u8; 32];
        for (chunk, word) in seed
            .chunks_exact_mut(8)
            .zip(seed_words(self.master, label_hash))
        {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        ChaCha8Rng::from_seed(seed)
    }
}

/// The four little-endian seed words of the stream `label_hash` names
/// under `master`: the two themselves, then the label hash mixed in
/// through a splitmix-style finalizer so short labels still fill the
/// state.
#[inline]
fn seed_words(master: u64, label_hash: u64) -> [u64; 4] {
    let x1 = splitmix64(master ^ label_hash);
    [master, label_hash, x1, splitmix64(x1)]
}

/// A ChaCha8 stream that keeps its key as the two words it is derived
/// from: what [`RngFactory::indexed_stream`] returns. It yields, word for
/// word, the [`ChaCha8Rng`] that [`RngFactory::stream`] builds for the
/// same label, in 88 bytes instead of 112; each block costs two splitmix
/// rounds more to rebuild the key.
///
/// Its block counter is 32 bits wide: it serves blocks 0 to 2^32 − 2
/// (about 2^36 words), and asking for one more panics rather than wrapping.
#[derive(Debug, Clone)]
pub struct IndexedStream {
    master: u64,
    label_hash: u64,
    /// The current block's output words.
    block: [u32; 16],
    /// The next block to generate.
    counter: u32,
    /// Next unread word of `block`; 16 when it is used up.
    index: u8,
}

// A fleet keeps three per device (DESIGN.md §"Bytes per device").
const _: () = assert!(std::mem::size_of::<IndexedStream>() == 88);

impl IndexedStream {
    fn refill(&mut self) {
        let n = self.counter;
        self.counter = n
            .checked_add(1)
            .expect("an indexed stream serves 2^32 - 1 blocks, and all of them were drawn");
        let mut key = [0u32; 8];
        let words = seed_words(self.master, self.label_hash);
        for (pair, word) in key.chunks_exact_mut(2).zip(words) {
            pair[0] = word as u32;
            pair[1] = (word >> 32) as u32;
        }
        self.block = block(&key, u64::from(n));
        self.index = 0;
    }
}

impl RngCore for IndexedStream {
    /// `#[inline]` for the reason `ChaCha8Rng`'s draws are: the per-draw
    /// bookkeeping must inline into the simulation's hot loops.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index as usize];
        self.index += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // Both words from the current block when they are there; the
        // words two `next_u32`s would take either way.
        let i = self.index as usize;
        if i + 2 <= 16 {
            let lo = self.block[i] as u64;
            let hi = self.block[i + 1] as u64;
            self.index += 2;
            return lo | (hi << 32);
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The decimal digits of `v`, written into the tail of `buf` (20 bytes
/// fit `u64::MAX`). Matches `format!("{v}")` byte-for-byte.
fn decimal_digits(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    &buf[i..]
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let f = RngFactory::new(42);
        let a: Vec<u64> = f
            .stream("loss")
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        let b: Vec<u64> = f
            .stream("loss")
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(42);
        let a: u64 = f.stream("loss").gen();
        let b: u64 = f.stream("jitter").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_master_seeds_differ() {
        let a: u64 = RngFactory::new(1).stream("x").gen();
        let b: u64 = RngFactory::new(2).stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_are_distinct_and_stable() {
        let f = RngFactory::new(7);
        let a: u64 = f.indexed_stream("tenant", 0).gen();
        let b: u64 = f.indexed_stream("tenant", 1).gen();
        let a2: u64 = f.indexed_stream("tenant", 0).gen();
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn stream_output_is_pinned() {
        // Regression pin: if this changes, previously recorded experiment
        // results are no longer reproducible. Update deliberately.
        let v: u64 = RngFactory::new(0).stream("pin").gen();
        let again: u64 = RngFactory::new(0).stream("pin").gen();
        assert_eq!(v, again);
    }

    #[test]
    fn indexed_stream_matches_the_formatted_label() {
        // The allocation-free digit path must stay bit-identical to the
        // historical `format!("{label}#{index}")` derivation, or every
        // recorded multi-tenant experiment changes.
        let f = RngFactory::new(123);
        for index in [0, 1, 9, 10, 99, 1_000, 123_456_789, u64::MAX] {
            let fast: u64 = f.indexed_stream("tenant", index).gen();
            let slow: u64 = f.stream(&format!("tenant#{index}")).gen();
            assert_eq!(fast, slow, "divergence at index {index}");
        }
    }

    #[test]
    #[should_panic(expected = "all of them were drawn")]
    fn an_exhausted_indexed_stream_panics_instead_of_wrapping() {
        let mut stream = RngFactory::new(5).indexed_stream("row", 3);
        stream.counter = u32::MAX - 1;
        // Block 2^32 - 2, the last one, serves its 16 words ...
        for _ in 0..16 {
            stream.next_u32();
        }
        // ... and the next word would need block 2^32 - 1.
        stream.next_u32();
    }

    proptest::proptest! {
        /// The compact stream is the stream it replaces: every word of
        /// the first blocks, drawn as any mix of 32- and 64-bit reads
        /// (a 64-bit read may straddle a block edge), equals the one the
        /// `ChaCha8Rng` of the same label yields.
        #[test]
        fn prop_indexed_stream_is_the_chacha8_stream(
            master in proptest::prelude::any::<u64>(),
            letters in proptest::collection::vec(0u8..27, 0..12),
            index in proptest::prelude::any::<u64>(),
            wide in proptest::collection::vec(proptest::prelude::any::<bool>(), 40..60),
        ) {
            let label: String = letters.iter().map(|&l| (b'a' + l) as char).collect();
            let f = RngFactory::new(master);
            let mut compact = f.indexed_stream(&label, index);
            let mut full = f.stream(&format!("{label}#{index}"));
            // One odd word first, so that 64-bit reads straddle edges.
            proptest::prop_assert_eq!(compact.next_u32(), full.next_u32());
            let mut words = 1;
            for wide in wide {
                if wide {
                    proptest::prop_assert_eq!(compact.next_u64(), full.next_u64());
                    words += 2;
                } else {
                    proptest::prop_assert_eq!(compact.next_u32(), full.next_u32());
                    words += 1;
                }
            }
            // At least three blocks, whatever the mix.
            while words < 3 * 16 + 1 {
                proptest::prop_assert_eq!(compact.next_u64(), full.next_u64());
                words += 2;
            }
        }
    }

    #[test]
    fn label_collision_resistance_smoke() {
        // A small birthday-style check over many labels.
        let f = RngFactory::new(99);
        let mut firsts = std::collections::HashSet::new();
        for i in 0..1_000u64 {
            let x: u64 = f.indexed_stream("component", i).gen();
            assert!(firsts.insert(x), "unexpected first-draw collision at {i}");
        }
    }
}
