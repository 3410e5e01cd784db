//! A small deterministic pseudo-random number generator, plus the
//! workspace's one copy of the two hash helpers every seeded component
//! derives its decisions from ([`splitmix64`], [`fnv1a`]) and of the
//! plain SplitMix64 stream ([`SplitMix64`]) that seeded tests draw from.
//!
//! The synthetic workload generator needs fast, seed-reproducible draws,
//! not cryptographic quality. This is xoshiro256++ (Blackman & Vigna)
//! seeded through SplitMix64, self-contained so the workspace builds with
//! no external crates (the reference environment is offline).
//!
//! Determinism is part of the trace format contract: a profile's `seed`
//! fully determines its instruction stream, so changing this algorithm
//! changes every synthetic trace. Do not swap it casually.

/// The SplitMix64 finalizer (Steele, Lea & Flood): one well-mixed value
/// per input. `splitmix64(x)` is the generator's output after its state
/// was `x`, so `splitmix64(seed + k·γ)` is the k-th output of a SplitMix64
/// stream seeded with `seed`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 stream: the k-th draw is `splitmix64(seed + k·γ)`,
/// with γ = `0x9E37_79B9_7F4A_7C15`. A stream that steps its state before
/// mixing is this one seeded with `seed + γ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// The next draw reduced modulo `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// 64-bit FNV-1a over the bytes of `s`, for hashing names and sites.
pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// xoshiro256++ generator state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Build a generator whose full 256-bit state is derived from `seed`
    /// with SplitMix64 (the initialisation the xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut k = SplitMix64::new(seed);
        Prng { s: [k.next_u64(), k.next_u64(), k.next_u64(), k.next_u64()] }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        // Multiply-shift rejection-free bounding (Lemire); the tiny bias
        // (< 2^-64 per draw) is irrelevant for workload synthesis.
        let hi = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64;
        range.start + hi
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn gen_range_inclusive(&mut self, range: std::ops::RangeInclusive<u64>) -> u64 {
        let (lo, hi) = (*range.start(), *range.end());
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        self.gen_range(lo..hi + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hash helpers are part of every seeded artifact (traces, fault
    /// sites, checker scenarios, chaos schedules): pin their outputs.
    #[test]
    fn hash_helpers_are_pinned() {
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(splitmix64(42), 0xbdd7_3226_2feb_6e95);
        assert_eq!(splitmix64(u64::MAX), 0xe4d9_7177_1b65_2c20);
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("flip-seed"), 0xc9e5_74fc_d293_17d0);
        let mut r = Prng::seed_from_u64(42);
        assert_eq!([r.next_u64(), r.next_u64()], [0xd076_4d4f_4476_689f, 0x519e_4174_576f_3791]);
    }

    /// The k-th draw of the stream is `splitmix64(seed + k·γ)`.
    #[test]
    fn splitmix_stream_is_pinned() {
        let mut s = SplitMix64::new(0);
        assert_eq!([s.next_u64(), s.next_u64()], [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4]);
        let mut s = SplitMix64::new(42);
        for k in 0..100u64 {
            let x = 42u64.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            assert_eq!(s.next_u64(), splitmix64(x), "draw {k}");
        }
        assert_eq!(SplitMix64::new(7).below(10), splitmix64(7) % 10);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed_from_u64(99);
        let mut b = Prng::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = Prng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_draws_stay_in_bounds_and_cover() {
        let mut r = Prng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(5..15);
            assert!((5..15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range appear");
    }

    #[test]
    fn bool_frequency_tracks_p() {
        let mut r = Prng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn inclusive_range_reaches_endpoints() {
        let mut r = Prng::seed_from_u64(5);
        let draws: Vec<u64> = (0..200).map(|_| r.gen_range_inclusive(0..=3)).collect();
        assert!(draws.contains(&0) && draws.contains(&3));
    }
}
