//! Per-thread dynamic instruction state: the active list (reorder window),
//! the refetch buffer that recycles squashed instructions, and fetch-side
//! bookkeeping.

use crate::branch::ReturnAddressStack;
use smtp_isa::{Inst, RegClass};
use smtp_types::{Ctx, Cycle};
use std::collections::VecDeque;

/// Sequence-number bits carried by a memory wake-up tag (the rest of the
/// 32-bit tag names the context).
pub(crate) const SEQ_MASK: u64 = 0x0FFF_FFFF;

/// One in-flight dynamic instruction.
#[derive(Clone, Debug)]
pub struct DynInst {
    /// The static instruction.
    pub inst: Inst,
    /// Per-thread program-order sequence number.
    pub seq: u64,
    /// Direction predicted at fetch (branches only).
    pub predicted_taken: bool,
    /// Renamed sources: `(class, physical register)`.
    pub src_phys: [Option<(RegClass, u16)>; 2],
    /// Renamed destination: `(class, physical, previous physical)`.
    pub dst_phys: Option<(RegClass, u16, u16)>,
    /// Logical destination index (for rollback).
    pub dst_logical: u8,
    /// Holds a branch-stack checkpoint until resolution.
    pub holds_ckpt: bool,
    /// Occupies a load/store queue slot.
    pub in_lsq: bool,
    /// Occupies a store-buffer slot (executed store awaiting drain).
    pub in_sb: bool,
    /// Occupies an issue-queue slot of the given class until issue.
    pub in_iq: Option<RegClass>,
    /// Has been issued to a functional unit / the cache.
    pub issued: bool,
    /// Memory access has been started (may still be waiting on a fill).
    pub mem_started: bool,
    /// Result availability time (`Cycle::MAX` until known).
    pub ready_at: Cycle,
    /// Branch has been resolved (trained, possibly squashed younger).
    pub resolved: bool,
}

impl DynInst {
    /// Wrap a fetched instruction.
    pub fn new(inst: Inst, seq: u64, predicted_taken: bool) -> DynInst {
        DynInst {
            inst,
            seq,
            predicted_taken,
            src_phys: [None, None],
            dst_phys: None,
            dst_logical: 0,
            holds_ckpt: false,
            in_lsq: false,
            in_sb: false,
            in_iq: None,
            issued: false,
            mem_started: false,
            ready_at: Cycle::MAX,
            resolved: false,
        }
    }

    /// Whether the result is available (retireable) at `now`.
    #[inline]
    pub fn completed(&self, now: Cycle) -> bool {
        self.issued && self.ready_at <= now
    }
}

/// Fetch/commit-side state of one hardware thread context.
#[derive(Clone, Debug)]
pub struct ThreadState {
    /// This context's identity.
    pub ctx: Ctx,
    /// The active list: renamed, uncommitted instructions in program order.
    pub window: VecDeque<DynInst>,
    /// Squashed instructions awaiting refetch, in program order. Drained
    /// before the instruction source is consulted, which also implements
    /// the paper's look-ahead-handler squash recovery for the protocol
    /// thread.
    pub refetch: VecDeque<(u64, Inst)>,
    /// One-instruction peek slot (an instruction pulled from the source but
    /// not yet accepted into the decode queue).
    pub peeked: Option<(u64, Inst)>,
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// The thread's program has ended.
    pub halted: bool,
    /// Sequence of an in-flight serializing instruction blocking fetch.
    pub block_seq: Option<u64>,
    /// Fetch suppressed until this cycle (redirect/BTB penalties).
    pub fetch_stall_until: Cycle,
    /// An instruction-cache miss is outstanding.
    pub awaiting_ifetch: bool,
    /// Sequence numbers of not-yet-started memory operations, in order.
    pub mem_order: VecDeque<u64>,
    /// Return address stack.
    pub ras: ReturnAddressStack,
    /// Instructions currently in the decode/rename queues (ICOUNT input).
    pub frontend_count: usize,
    /// A `SyncStore` at the window head is mid-retirement.
    pub sync_store_started: bool,
}

impl ThreadState {
    /// Fresh state for a context.
    pub fn new(ctx: Ctx, ras_entries: usize) -> ThreadState {
        ThreadState {
            ctx,
            window: VecDeque::with_capacity(128),
            refetch: VecDeque::new(),
            peeked: None,
            next_seq: 0,
            halted: false,
            block_seq: None,
            fetch_stall_until: 0,
            awaiting_ifetch: false,
            mem_order: VecDeque::new(),
            ras: ReturnAddressStack::new(ras_entries),
            frontend_count: 0,
            sync_store_started: false,
        }
    }

    /// ICOUNT metric: instructions in flight from fetch to commit.
    #[inline]
    pub fn inflight(&self) -> usize {
        self.frontend_count + self.window.len()
    }

    /// Find a window instruction by sequence number (the window holds a
    /// contiguous sequence range).
    pub fn find(&self, seq: u64) -> Option<&DynInst> {
        let head = self.window.front()?.seq;
        let idx = seq.checked_sub(head)? as usize;
        self.window.get(idx)
    }

    /// Mutable [`ThreadState::find`].
    pub fn find_mut(&mut self, seq: u64) -> Option<&mut DynInst> {
        let head = self.window.front()?.seq;
        let idx = seq.checked_sub(head)? as usize;
        self.window.get_mut(idx)
    }

    /// Find a window instruction by the low [`SEQ_MASK`] bits of its
    /// sequence number, as carried by a memory wake-up tag. The window is
    /// seq-contiguous and far shorter than the mask, so the distance from
    /// the head's masked sequence (modulo the mask) is the index.
    pub fn find_masked(&mut self, mseq: u64) -> Option<&mut DynInst> {
        let head = self.window.front()?.seq;
        let idx = (mseq.wrapping_sub(head) & SEQ_MASK) as usize;
        self.window.get_mut(idx)
    }

    /// Whether this thread has completely finished (program ended and every
    /// instruction committed).
    pub fn finished(&self) -> bool {
        self.halted
            && self.window.is_empty()
            && self.refetch.is_empty()
            && self.peeked.is_none()
            && self.frontend_count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtp_isa::Op;

    #[test]
    fn window_find_by_seq() {
        let mut t = ThreadState::new(Ctx(0), 32);
        for s in 10..15 {
            t.window
                .push_back(DynInst::new(Inst::new(Op::IntAlu, 0), s, false));
        }
        assert_eq!(t.find(12).unwrap().seq, 12);
        assert!(t.find(9).is_none());
        assert!(t.find(15).is_none());
        t.find_mut(14).unwrap().issued = true;
        assert!(t.window.back().unwrap().issued);
    }

    #[test]
    fn find_masked_wraps_at_the_mask_boundary() {
        let mut t = ThreadState::new(Ctx(0), 32);
        let first = SEQ_MASK - 1; // window spans ..FFFE, ..FFFF, 1_0000_0000, ...
        for s in first..first + 5 {
            t.window
                .push_back(DynInst::new(Inst::new(Op::IntAlu, 0), s, false));
        }
        for s in first..first + 5 {
            assert_eq!(t.find_masked(s & SEQ_MASK).unwrap().seq, s);
        }
        // Tags outside the window (older than the head, younger than the
        // tail) name no instruction.
        assert!(t.find_masked((first - 1) & SEQ_MASK).is_none());
        assert!(t.find_masked((first + 5) & SEQ_MASK).is_none());
        t.window.clear();
        assert!(t.find_masked(0).is_none());
    }

    #[test]
    fn completion_requires_issue_and_time() {
        let mut d = DynInst::new(Inst::new(Op::IntAlu, 0), 0, false);
        assert!(!d.completed(100));
        d.issued = true;
        assert!(!d.completed(100));
        d.ready_at = 50;
        assert!(d.completed(100));
        assert!(!d.completed(49));
    }

    #[test]
    fn finished_requires_everything_drained() {
        let mut t = ThreadState::new(Ctx(1), 32);
        assert!(!t.finished());
        t.halted = true;
        assert!(t.finished());
        t.refetch.push_back((0, Inst::new(Op::IntAlu, 0)));
        assert!(!t.finished());
    }
}
