//! SplitMix64, the repository's one small seeded generator: corpora,
//! fault sites, chaos decisions and retry jitter all draw from it, so a
//! seed replays the same stream everywhere.

/// A SplitMix64 stream (Steele, Lea and Flood). Not for cryptography.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The golden-ratio increment added to the state before every draw.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// A stream seeded with `seed`; identical seeds replay identically.
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The output finalizer: mixes one 64-bit word into 64 uniform bits.
    pub const fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(Self::GAMMA);
        Self::mix(self.0)
    }

    /// A uniform draw in `[0, 1)` with 53 significant bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_stream_is_pinned() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn identical_seeds_replay() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }
}
