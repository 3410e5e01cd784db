//! The per-structure miss-filter abstraction.

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

/// A sound, per-cache-structure miss filter.
///
/// One instance guards one cache structure (e.g. `dl2` or `ul4`). All
/// addresses are **MNM block addresses** — byte addresses already shifted by
/// the MNM granularity (the L2 line size, paper §3.1); events from caches
/// with larger lines have already been expanded into multiple block
/// addresses by the machine.
///
/// # Soundness contract
///
/// If [`MissFilter::is_definite_miss`] returns `true` for a block, that
/// block **must not** be resident in the guarded structure. Implementations
/// uphold this given a faithful event feed: every block installed into the
/// structure is reported via [`MissFilter::on_place`] and every eviction via
/// [`MissFilter::on_replace`], in order. The reverse is not required — a
/// `false` ("maybe") answer for an absent block merely costs a redundant
/// probe (paper §3.6).
pub trait MissFilter: std::fmt::Debug + Send {
    /// A block was installed into the guarded structure.
    fn on_place(&mut self, block: u64);

    /// A block was evicted from the guarded structure.
    fn on_replace(&mut self, block: u64);

    /// A block was removed from the guarded structure by an invalidation —
    /// an inclusive back-invalidation from an outer level, or external
    /// coherence traffic (a remote core's store, a shared level's
    /// replacement) — rather than by the replacement policy.
    ///
    /// The caller guarantees the block was **actually resident and was
    /// removed**; feeding invalidations for blocks the structure never
    /// held breaks count-based filters (a blind decrement can zero a
    /// counter that still guards a live block, turning "definite miss"
    /// into a lie). Given that guarantee, retiring the block is exactly
    /// what `on_replace` does, so that is the default. Families whose
    /// replacement handling is asymmetric (e.g. the set-only SMNM, whose
    /// `on_replace` is a deliberate no-op) inherit the same soundness
    /// argument: the filter may only get more conservative.
    fn on_invalidate(&mut self, block: u64) {
        self.on_replace(block);
    }

    /// `true` iff an access to `block` is guaranteed to miss.
    fn is_definite_miss(&self, block: u64) -> bool;

    /// Reset all state (cache flush; paper §3.3: "The counter values are
    /// reset when the caches are flushed").
    fn flush(&mut self);

    /// Hardware storage cost in bits (flip-flops / SRAM bits), used by the
    /// power model.
    fn storage_bits(&self) -> u64;

    /// Short configuration label, e.g. `"TMNM_12x3"`. Borrowed from the
    /// filter (memoized at construction): stats and telemetry emission can
    /// read it mid-run without allocating.
    fn label(&self) -> &str;

    /// Upper bound on simultaneously-live blocks in the guarded structure
    /// (its capacity in MNM blocks). Filters with dynamically-sized
    /// bookkeeping pre-size it here so the per-access hot path never
    /// allocates; the hardware-shaped tables ignore this.
    fn reserve(&mut self, _max_live_blocks: usize) {}

    /// Number of state bits addressable by [`MissFilter::flip_state_bit`].
    /// Zero (the default) means the filter exposes no fault surface.
    fn state_bits(&self) -> u64 {
        0
    }

    /// Fault-injection hook: XOR one bit of the filter's internal state,
    /// emulating a soft error in the hardware tables. This is **only** for
    /// the soundness checker (`crates/check`), which proves that injected
    /// corruption is caught as a contract violation; nothing on the
    /// simulation path calls it. Returns `false` when `bit` is out of
    /// range or the filter exposes no fault surface.
    fn flip_state_bit(&mut self, _bit: u64) -> bool {
        false
    }

    /// The state-bit index (as addressed by [`MissFilter::flip_state_bit`])
    /// whose corruption most directly affects `block` — e.g. the low bit
    /// of the counter the block maps to. Used by the checker to aim an
    /// injected fault at a resident block. `None` when the filter exposes
    /// no fault surface or no state guards this block.
    fn state_bit_of(&self, _block: u64) -> Option<u64> {
        None
    }

    /// Current dynamic-state occupancy, for telemetry. The default (all
    /// zeros) means the filter exposes no occupancy surface.
    fn occupancy(&self) -> FilterOccupancy {
        FilterOccupancy::default()
    }
}
