//! From instructions to memory references: [`RefStream`] turns any
//! `Iterator<Item = Instr>` into the fetches, loads and stores a cache
//! hierarchy sees, by one of three named [`FetchRule`]s.

use crate::record::{Instr, InstrKind};

/// What a [`MemRef`] asks the hierarchy for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefKind {
    /// An instruction fetch.
    Fetch,
    /// A data read.
    Load,
    /// A data write.
    Store,
}

/// One memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Fetch, load or store.
    pub kind: RefKind,
    /// Byte address.
    pub addr: u64,
}

/// How an instruction becomes references. Under every rule an
/// instruction's fetch, if it makes one, comes before its load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchRule {
    /// A fetch when the pc enters a new fetch block, or follows a
    /// mispredicted branch: the figures' rule, fetch blocks being L1-I
    /// lines.
    Blocks {
        /// Fetch-block size in bytes, a power of two.
        block_bytes: u64,
    },
    /// A fetch for every instruction: the checker's rule.
    EveryInstr,
    /// No fetches: the rule of served sessions, whose clients send records.
    DataOnly,
}

/// The references of an instruction stream under one [`FetchRule`],
/// within an instruction budget. [`RefStream::phase`] starts a budget in
/// a fresh fetch block, so a warm-up and a measured phase run back to
/// back over one program.
#[derive(Debug)]
pub struct RefStream<I> {
    instrs: I,
    rule: FetchRule,
    /// The block of the last fetch; `u64::MAX` makes the next one fetch.
    cur_block: u64,
    /// The load or store of the instruction whose fetch was just yielded.
    pending: Option<MemRef>,
    /// Instructions left in the phase.
    left: u64,
}

impl<I: Iterator<Item = Instr>> RefStream<I> {
    /// The references of `instrs` under `rule`, with no budget.
    ///
    /// # Panics
    ///
    /// Panics if a [`FetchRule::Blocks`] size is not a power of two.
    pub fn new(instrs: I, rule: FetchRule) -> Self {
        if let FetchRule::Blocks { block_bytes } = rule {
            assert!(block_bytes.is_power_of_two(), "fetch block size must be a power of two");
        }
        RefStream { instrs, rule, cur_block: u64::MAX, pending: None, left: u64::MAX }
    }

    /// Start a phase of `instructions` instructions in a fresh fetch block.
    pub fn phase(&mut self, instructions: u64) -> &mut Self {
        self.cur_block = u64::MAX;
        self.left = instructions;
        self
    }
}

impl<I: Iterator<Item = Instr>> Iterator for RefStream<I> {
    type Item = MemRef;

    #[inline]
    fn next(&mut self) -> Option<MemRef> {
        if let Some(data) = self.pending.take() {
            return Some(data);
        }
        while self.left > 0 {
            let instr = self.instrs.next()?;
            self.left -= 1;
            let fetch = match self.rule {
                FetchRule::Blocks { block_bytes } => {
                    let block = instr.pc >> block_bytes.trailing_zeros();
                    std::mem::replace(&mut self.cur_block, block) != block
                }
                FetchRule::EveryInstr => true,
                FetchRule::DataOnly => false,
            };
            let data = match instr.kind {
                InstrKind::Load { addr } => Some(MemRef { kind: RefKind::Load, addr }),
                InstrKind::Store { addr } => Some(MemRef { kind: RefKind::Store, addr }),
                InstrKind::Branch { mispredicted } => {
                    if mispredicted {
                        self.cur_block = u64::MAX;
                    }
                    None
                }
                InstrKind::Op { .. } => None,
            };
            if fetch {
                self.pending = data;
                return Some(MemRef { kind: RefKind::Fetch, addr: instr.pc });
            }
            if data.is_some() {
                return data;
            }
        }
        None
    }
}
