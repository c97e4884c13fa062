//! Wake-time issue queue: the bounded, age-ordered structure behind both
//! the integer and the floating-point queue.
//!
//! Each entry caches `wake`, the cycle at which its last source operand
//! becomes available. A physical register's ready time is written exactly
//! once per allocation (by its producer's issue, load completion or
//! non-speculative execution), and every consumer commits or is squashed
//! before the register is re-allocated — so a finite `wake` is final and a
//! waiting entry costs one compare per cycle. Only entries whose `wake` is
//! still `Cycle::MAX` (a producer has not issued yet) look at the register
//! file again, and only when some register was written since the queue's
//! last complete pass.
//!
//! Squashed instructions are removed eagerly ([`IssueQueue::purge_after`]),
//! so the queue holds exactly the renamed, un-issued instructions of its
//! class and its length is the queue occupancy.

use crate::regs::RegFiles;
use smtp_isa::RegClass;
use smtp_types::{Ctx, Cycle};

/// Renamed source operands of one instruction.
pub(crate) type Srcs = [Option<(RegClass, u16)>; 2];

/// Cycle at which every operand in `srcs` is available (`Cycle::MAX` while
/// a producer has not issued).
#[inline]
pub(crate) fn srcs_ready_at(regs: &RegFiles, srcs: &Srcs) -> Cycle {
    srcs.iter()
        .flatten()
        .fold(0, |acc, &(class, phys)| acc.max(regs.ready_at(class, phys)))
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    ctx: Ctx,
    seq: u64,
    srcs: Srcs,
    wake: Cycle,
}

/// One cycle's issue pass over an [`IssueQueue`], from
/// [`IssueQueue::begin`] to [`IssueQueue::finish`].
#[derive(Debug)]
pub(crate) struct Scan {
    /// Next entry to examine.
    read: usize,
    /// Examined entries that stay queued (compacted to the front).
    kept: usize,
    /// [`RegFiles::writes`] when the pass began.
    writes: u64,
    /// Registers were written since the last complete pass, so entries at
    /// `Cycle::MAX` must look again.
    stale: bool,
}

/// One issue queue, oldest entry first.
#[derive(Debug, Default)]
pub(crate) struct IssueQueue {
    entries: Vec<Entry>,
    /// [`RegFiles::writes`] at the start of the last pass that examined
    /// every entry: entries at `Cycle::MAX` have seen all earlier writes.
    seen_writes: u64,
}

impl IssueQueue {
    /// Occupied slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Queue a freshly renamed instruction (youngest).
    pub(crate) fn push(&mut self, ctx: Ctx, seq: u64, srcs: Srcs, regs: &RegFiles) {
        self.entries.push(Entry {
            ctx,
            seq,
            srcs,
            wake: srcs_ready_at(regs, &srcs),
        });
    }

    /// Drop every entry of `ctx` younger than `bseq` (branch squash).
    pub(crate) fn purge_after(&mut self, ctx: Ctx, bseq: u64) {
        self.entries.retain(|e| e.ctx != ctx || e.seq <= bseq);
    }

    /// Start this cycle's issue pass.
    #[inline]
    pub(crate) fn begin(&self, regs: &RegFiles) -> Scan {
        Scan {
            read: 0,
            kept: 0,
            writes: regs.writes(),
            stale: self.seen_writes != regs.writes(),
        }
    }

    /// Remove and return the oldest not-yet-examined entry whose operands
    /// are available at `now`, or `None` when the pass reached the end.
    /// Entries still at `Cycle::MAX` re-read their sources on the way if a
    /// register was written since they last looked. Call repeatedly
    /// while issue bandwidth remains, then hand the cursor to
    /// [`IssueQueue::finish`]; the queue is only consistent again after
    /// that.
    #[inline]
    pub(crate) fn next_ready(
        &mut self,
        scan: &mut Scan,
        now: Cycle,
        regs: &RegFiles,
    ) -> Option<(Ctx, u64)> {
        while let Some(e) = self.entries.get_mut(scan.read) {
            scan.read += 1;
            if e.wake == Cycle::MAX && scan.stale {
                e.wake = srcs_ready_at(regs, &e.srcs);
            }
            let e = *e;
            if e.wake <= now {
                return Some((e.ctx, e.seq));
            }
            if scan.kept + 1 != scan.read {
                self.entries[scan.kept] = e;
            }
            scan.kept += 1;
        }
        None
    }

    /// Close the gap left by the entries [`IssueQueue::next_ready`] removed.
    #[inline]
    pub(crate) fn finish(&mut self, scan: Scan) {
        if scan.read == self.entries.len() {
            self.seen_writes = scan.writes;
        }
        let removed = scan.read - scan.kept;
        if removed > 0 {
            self.entries.copy_within(scan.read.., scan.kept);
            self.entries.truncate(self.entries.len() - removed);
        }
    }

    /// Earliest cycle at which some entry can issue (`Cycle::MAX` when the
    /// queue is empty or every entry waits on an un-issued producer).
    pub(crate) fn next_wake(&self, regs: &RegFiles) -> Cycle {
        let stale = self.seen_writes != regs.writes();
        self.entries.iter().fold(Cycle::MAX, |bound, e| {
            bound.min(if e.wake == Cycle::MAX && stale {
                srcs_ready_at(regs, &e.srcs)
            } else {
                e.wake
            })
        })
    }
}

/// The algorithm [`IssueQueue`] replaced, kept as the reference for the
/// differential tests in `smt.rs`: a bare `(ctx, seq)` queue that, every
/// cycle, pops each entry, looks its instruction up in the window, drops it
/// if the instruction is gone (squashed entries are filtered here, lazily),
/// probes the register file for its operands, and pushes back what stays.
#[cfg(test)]
pub(crate) mod oracle {
    use super::srcs_ready_at;
    use crate::regs::RegFiles;
    use crate::window::ThreadState;
    use smtp_isa::RegClass;
    use smtp_types::{Ctx, Cycle};
    use std::collections::VecDeque;

    #[derive(Debug, Default)]
    pub(crate) struct RescanQueues {
        int: VecDeque<(Ctx, u64)>,
        fp: VecDeque<(Ctx, u64)>,
    }

    impl RescanQueues {
        pub(crate) fn push(&mut self, class: RegClass, ctx: Ctx, seq: u64) {
            match class {
                RegClass::Int => self.int.push_back((ctx, seq)),
                RegClass::Fp => self.fp.push_back((ctx, seq)),
            }
        }

        /// One cycle's pass over the `class` queue: the instructions to
        /// issue, oldest first.
        pub(crate) fn scan(
            &mut self,
            class: RegClass,
            mut budget: usize,
            now: Cycle,
            threads: &[ThreadState],
            regs: &RegFiles,
        ) -> Vec<(Ctx, u64)> {
            let q = match class {
                RegClass::Int => &mut self.int,
                RegClass::Fp => &mut self.fp,
            };
            let mut issued = Vec::new();
            let mut kept = VecDeque::with_capacity(q.len());
            while let Some((ctx, seq)) = q.pop_front() {
                match threads[ctx.idx()].find(seq) {
                    Some(d) if d.in_iq == Some(class) && !d.issued => {
                        if budget > 0 && srcs_ready_at(regs, &d.src_phys) <= now {
                            budget -= 1;
                            issued.push((ctx, seq));
                        } else {
                            kept.push_back((ctx, seq));
                        }
                    }
                    _ => {} // squashed or stale: drop the entry
                }
            }
            *q = kept;
            issued
        }
    }
}

#[cfg(test)]
impl IssueQueue {
    /// Remove one entry by identity (the oracle decides what issues).
    pub(crate) fn remove(&mut self, ctx: Ctx, seq: u64) {
        let at = self
            .entries
            .iter()
            .position(|e| e.ctx == ctx && e.seq == seq)
            .expect("oracle issued an instruction the queue does not hold");
        self.entries.remove(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::RenameOutcome;
    use smtp_isa::Reg;

    fn regs() -> RegFiles {
        RegFiles::new(160, 160, 1, 1)
    }

    /// A freshly allocated (not yet produced) integer register.
    fn pending_reg(regs: &mut RegFiles, logical: u8) -> u16 {
        let RenameOutcome::Ok { phys, .. } = regs.rename(Ctx(0), Reg::int(logical)) else {
            panic!("rename stalled");
        };
        phys
    }

    fn on(phys: u16) -> Srcs {
        [Some((RegClass::Int, phys)), None]
    }

    /// One cycle's issue pass, as the pipeline drives it.
    fn pass(q: &mut IssueQueue, regs: &RegFiles, mut budget: usize, now: Cycle) -> Vec<u64> {
        let mut scan = q.begin(regs);
        let mut out = Vec::new();
        while budget > 0 {
            let Some((_, seq)) = q.next_ready(&mut scan, now, regs) else {
                break;
            };
            out.push(seq);
            budget -= 1;
        }
        q.finish(scan);
        out
    }

    fn seqs(q: &IssueQueue) -> Vec<(Ctx, u64)> {
        q.entries.iter().map(|e| (e.ctx, e.seq)).collect()
    }

    #[test]
    fn oldest_ready_first_under_a_small_budget() {
        let mut r = regs();
        let blocked = pending_reg(&mut r, 1);
        let mut q = IssueQueue::default();
        q.push(Ctx(0), 10, [None, None], &r);
        q.push(Ctx(0), 11, on(blocked), &r);
        for seq in 12..16 {
            q.push(Ctx(0), seq, [None, None], &r);
        }
        // Five entries are ready, two may issue: the two oldest, skipping
        // the blocked one between them; the rest keep their order.
        assert_eq!(pass(&mut q, &r, 2, 0), vec![10, 12]);
        assert_eq!(q.len(), 4);
        assert_eq!(pass(&mut q, &r, 2, 1), vec![13, 14]);
        assert_eq!(pass(&mut q, &r, 2, 2), vec![15]);
        assert_eq!(seqs(&q), vec![(Ctx(0), 11)]);
        assert_eq!(pass(&mut q, &r, 2, 3), Vec::<u64>::new());
    }

    #[test]
    fn a_wake_learned_late_issues_on_the_right_cycle() {
        let mut r = regs();
        let p = pending_reg(&mut r, 1);
        let mut q = IssueQueue::default();
        // The consumer is queued while its producer has not issued.
        q.push(Ctx(0), 7, on(p), &r);
        assert_eq!(q.next_wake(&r), Cycle::MAX);
        assert_eq!(pass(&mut q, &r, 4, 5), Vec::<u64>::new());
        // The producer issues at cycle 6; its result is ready at 9.
        r.set_ready(RegClass::Int, p, 9);
        assert_eq!(q.next_wake(&r), 9, "certificate sees the write at once");
        assert_eq!(pass(&mut q, &r, 4, 6), Vec::<u64>::new());
        assert_eq!(q.next_wake(&r), 9);
        assert_eq!(pass(&mut q, &r, 4, 8), Vec::<u64>::new());
        assert_eq!(pass(&mut q, &r, 4, 9), vec![7]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn wake_is_the_latest_source() {
        let mut r = regs();
        let (a, b) = (pending_reg(&mut r, 1), pending_reg(&mut r, 2));
        let mut q = IssueQueue::default();
        q.push(
            Ctx(0),
            1,
            [Some((RegClass::Int, a)), Some((RegClass::Int, b))],
            &r,
        );
        r.set_ready(RegClass::Int, a, 4);
        assert_eq!(pass(&mut q, &r, 1, 4), Vec::<u64>::new(), "b still unknown");
        r.set_ready(RegClass::Int, b, 6);
        assert_eq!(pass(&mut q, &r, 1, 5), Vec::<u64>::new());
        assert_eq!(pass(&mut q, &r, 1, 6), vec![1]);
    }

    #[test]
    fn purge_removes_exactly_the_squashed_and_refetch_reenters_at_the_tail() {
        let r = regs();
        let mut q = IssueQueue::default();
        let pt = Ctx::protocol();
        for (ctx, seq) in [(Ctx(0), 5), (pt, 5), (Ctx(0), 6), (pt, 9), (Ctx(0), 7)] {
            q.push(ctx, seq, [None, None], &r);
        }
        q.purge_after(Ctx(0), 5);
        assert_eq!(seqs(&q), vec![(Ctx(0), 5), (pt, 5), (pt, 9)]);
        // The refetched instruction reuses sequence number 6 and is now the
        // youngest entry.
        q.push(Ctx(0), 6, [None, None], &r);
        assert_eq!(seqs(&q), vec![(Ctx(0), 5), (pt, 5), (pt, 9), (Ctx(0), 6)]);
        assert_eq!(pass(&mut q, &r, 8, 0), vec![5, 5, 9, 6]);
    }
}
