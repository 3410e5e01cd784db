//! The per-structure miss-filter abstraction.

use cache_sim::BlockRun;

/// Point-in-time occupancy of a filter's dynamic state, for telemetry
/// (`jsn serve` exports it per session as a scrapeable gauge).
///
/// `tracked` counts the state units currently armed — set presence
/// flip-flops (SMNM), nonzero counters (TMNM / Bloom), live tracked
/// blocks (CMNM), valid entries (RMNM) — and `capacity` the total state
/// units of the same kind, so `tracked / capacity` is a load factor in
/// `[0, 1]`. Filters with no dynamic surface report zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterOccupancy {
    /// State units currently armed.
    pub tracked: u64,
    /// Total state units.
    pub capacity: u64,
}

impl FilterOccupancy {
    /// Load factor in `[0, 1]`; zero for an empty surface.
    pub fn ratio(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.tracked as f64 / self.capacity as f64
        }
    }

    /// Fold another component's occupancy into this one.
    pub fn merge(&mut self, other: FilterOccupancy) {
        self.tracked += other.tracked;
        self.capacity += other.capacity;
    }
}

/// A sound miss filter whose state guards `lanes()` cache structures at
/// once, one lane per structure.
///
/// The machine builds one filter per technique of an
/// [`Assignment`](crate::Assignment), with one lane per structure the
/// assignment guards, so one probe answers every guarded level: the
/// block's hash or slice index is computed once, and the lanes' state
/// for that index is read together (for SMNM, TMNM and Bloom, from one
/// word). A filter guarding a single structure is the 1-lane case.
///
/// All addresses are **MNM block addresses** — byte addresses already
/// shifted by the MNM granularity (the L2 line size, paper §3.1). Updates
/// arrive as [`BlockRun`]s: the aligned run of MNM blocks one cache line
/// holds ([`CacheEvent::run`](cache_sim::CacheEvent::run)), so an event
/// from a cache with lines longer than the grain is one update, not one
/// per sub-block. Applying a run must equal applying its blocks one by
/// one, in order, each as a run of one; a family may only skip work that
/// provably repeats within the run (a table slice or hash that ignores the
/// run's low [`BlockRun::shift`] bits sees one index `count` times).
/// Updates name their lane and touch only it: a lane's verdicts, fault
/// surface and occupancy are exactly those of an independent 1-lane
/// filter fed the same updates.
///
/// # Soundness contract
///
/// If [`LaneFilter::miss_lanes`] reports lane `l` for a block, that block
/// **must not** be resident in lane `l`'s structure. Implementations
/// uphold this given a faithful event feed: every block installed into
/// the structure is reported via [`LaneFilter::place`] and every removal
/// via [`LaneFilter::replace`], in order. The reverse is not required — a
/// "maybe" answer for an absent block merely costs a redundant probe
/// (paper §3.6).
///
/// An invalidation — an inclusive back-invalidation from an outer level,
/// or external coherence traffic (a remote core's store, a shared level's
/// replacement) — retires a block exactly as a replacement does, so it is
/// fed to [`LaneFilter::replace`] too. The caller guarantees the block
/// was **actually resident and was removed**: feeding removals for blocks
/// the structure never held breaks count-based filters (a blind decrement
/// can zero a counter that still guards a live block, turning "definite
/// miss" into a lie). Families whose replacement handling is asymmetric
/// (the set-only SMNM, whose `replace` is a deliberate no-op) inherit the
/// same argument: the filter may only get more conservative.
///
/// # Frame contract
///
/// Each update also names the **frame slot** of every block of its run in
/// its lane's structure: block `first + i` sits in slot `first_slot + i`,
/// where `first_slot` is the line's cache frame (`set × assoc + way`)
/// times `max(1, line / grain)`. Every live block of a lane holds a
/// distinct slot below the count passed to [`LaneFilter::reserve_lane`],
/// and the removal of a block reports the slot its placement did. Filters
/// that keep per-line state (CMNM's register tag) index it by slot; the
/// hash- and counter-shaped filters ignore it.
pub trait LaneFilter: std::fmt::Debug + Send {
    /// Number of guarded structures.
    fn lanes(&self) -> usize;

    /// The lanes among `want` (bit `l` = lane `l`) whose structure
    /// definitely misses `block`; never a lane outside `want`.
    fn miss_lanes(&self, block: u64, want: u64) -> u64;

    /// The blocks of `run` were installed into lane `lane`'s structure,
    /// each in its frame slot.
    fn place(&mut self, lane: usize, run: BlockRun);

    /// The blocks of `run` were removed from lane `lane`'s structure, by
    /// its replacement policy or by an invalidation, each leaving its
    /// frame slot.
    fn replace(&mut self, lane: usize, run: BlockRun);

    /// Reset every lane (cache flush; paper §3.3: "The counter values are
    /// reset when the caches are flushed").
    fn flush_lanes(&mut self);

    /// Hardware storage cost of one lane in bits (flip-flops / SRAM
    /// bits), used by the power model.
    fn lane_storage_bits(&self) -> u64;

    /// Short configuration label, e.g. `"TMNM_12x3"`, the same for every
    /// lane. Borrowed from the filter (memoized at construction): stats
    /// and telemetry emission can read it mid-run without allocating.
    fn technique_label(&self) -> &str;

    /// Lane `lane`'s structure has `frame_slots` frame slots
    /// ([`CacheConfig::frame_slots`](cache_sim::CacheConfig::frame_slots)),
    /// an upper bound on both its live blocks and every slot an update
    /// names. Filters with per-slot bookkeeping size it here so the
    /// per-access hot path never allocates; the hardware-shaped tables
    /// ignore this.
    fn reserve_lane(&mut self, _lane: usize, _frame_slots: usize) {}

    /// Number of state bits of one lane addressable by
    /// [`LaneFilter::flip_lane_bit`]. Zero means the filter exposes no
    /// fault surface.
    fn lane_state_bits(&self) -> u64;

    /// Fault-injection hook: XOR one bit of lane `lane`'s state, emulating
    /// a soft error in the hardware tables. This is **only** for the
    /// soundness checker (`crates/check`), which proves that injected
    /// corruption is caught as a contract violation; nothing on the
    /// simulation path calls it. Returns `false` when `bit` is out of
    /// range or the filter exposes no fault surface.
    fn flip_lane_bit(&mut self, lane: usize, bit: u64) -> bool;

    /// The state-bit index of lane `lane` (as addressed by
    /// [`LaneFilter::flip_lane_bit`]) whose corruption most directly
    /// affects `block` — e.g. the low bit of the counter the block maps
    /// to. Used by the checker to aim an injected fault at a resident
    /// block. `None` when no state guards this block.
    fn lane_bit_of(&self, lane: usize, block: u64) -> Option<u64>;

    /// Lane `lane`'s current dynamic-state occupancy, for telemetry.
    fn lane_occupancy(&self, lane: usize) -> FilterOccupancy;
}

/// The lane-interleaved layout of the hashed filters' state: their flag
/// bitsets (SMNM present bits, TMNM and Bloom zero bits) and counters.
///
/// Lane `l` of index `i` is bit `i × stride + l`, where `stride` is
/// `lanes` rounded up to a power of two, so the lanes of one index sit in
/// one word and a probe reads them with one load and one shift. Padding
/// lanes (`lanes..stride`) are kept clear. Counters are dense: lane `l`
/// of index `i` is entry `i × lanes + l`. With one lane both are the
/// plain one-entry-per-index arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneBits {
    lanes: usize,
    /// log2 of the stride.
    shift: u32,
    /// The low `lanes` bits.
    mask: u64,
}

impl LaneBits {
    /// The layout for `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics unless `lanes` is 1..=64.
    pub(crate) fn new(lanes: usize) -> Self {
        assert!((1..=64).contains(&lanes), "a filter has 1..=64 lanes, got {lanes}");
        LaneBits {
            lanes,
            shift: lanes.next_power_of_two().trailing_zeros(),
            mask: u64::MAX >> (64 - lanes),
        }
    }

    /// Number of lanes.
    pub(crate) fn lanes(self) -> usize {
        self.lanes
    }

    /// Bit `l` set for every lane `l`.
    pub(crate) fn mask(self) -> u64 {
        self.mask
    }

    /// A bitset over `indices` indices with every lane's flag clear.
    pub(crate) fn cleared(self, indices: usize) -> Vec<u64> {
        vec![0; (indices << self.shift).div_ceil(64)]
    }

    /// Position of lane `lane`'s counter for index `index` in a counter
    /// array interleaved by lane (dense: no padding lanes).
    #[inline(always)]
    pub(crate) fn counter(self, index: usize, lane: usize) -> usize {
        debug_assert!(lane < self.lanes);
        index * self.lanes + lane
    }

    /// A bitset over `indices` indices with every lane's flag set.
    pub(crate) fn filled(self, indices: usize) -> Vec<u64> {
        let mut bits = self.cleared(indices);
        self.fill(&mut bits, indices);
        bits
    }

    /// Set every lane's flag of the first `indices` indices, in place.
    pub(crate) fn fill(self, bits: &mut [u64], indices: usize) {
        let per_word = 64 >> self.shift;
        let pattern = (0..per_word).fold(0u64, |w, j| w | self.mask << (j << self.shift));
        bits.fill(pattern);
        let used = (indices << self.shift) % 64;
        if used != 0 {
            *bits.last_mut().expect("a partial word exists") &= (1u64 << used) - 1;
        }
    }

    /// The flags of every lane of index `index`, lane `l` at bit `l`.
    #[inline(always)]
    pub(crate) fn get(self, bits: &[u64], index: usize) -> u64 {
        let p = index << self.shift;
        bits[p >> 6] >> (p & 63) & self.mask
    }

    #[inline(always)]
    fn at(self, index: usize, lane: usize) -> (usize, u64) {
        debug_assert!(lane < self.lanes);
        let p = (index << self.shift) | lane;
        (p >> 6, 1u64 << (p & 63))
    }

    /// Set lane `lane`'s flag of index `index`.
    #[inline]
    pub(crate) fn set(self, bits: &mut [u64], index: usize, lane: usize) {
        let (w, b) = self.at(index, lane);
        bits[w] |= b;
    }

    /// Clear lane `lane`'s flag of index `index`.
    #[inline]
    pub(crate) fn clear(self, bits: &mut [u64], index: usize, lane: usize) {
        let (w, b) = self.at(index, lane);
        bits[w] &= !b;
    }

    /// Set or clear lane `lane`'s flag of index `index`.
    pub(crate) fn assign(self, bits: &mut [u64], index: usize, lane: usize, on: bool) {
        if on {
            self.set(bits, index, lane);
        } else {
            self.clear(bits, index, lane);
        }
    }

    /// Toggle lane `lane`'s flag of index `index`.
    pub(crate) fn toggle(self, bits: &mut [u64], index: usize, lane: usize) {
        let (w, b) = self.at(index, lane);
        bits[w] ^= b;
    }

    /// Number of lane `lane`'s flags that are set.
    pub(crate) fn count(self, bits: &[u64], lane: usize) -> u64 {
        let per_word = 64 >> self.shift;
        let pattern = (0..per_word).fold(0u64, |w, j| w | 1 << ((j << self.shift) | lane));
        bits.iter().map(|w| u64::from((w & pattern).count_ones())).sum()
    }
}
