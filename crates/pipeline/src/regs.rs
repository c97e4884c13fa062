//! Physical register files, rename map tables and free lists, with the
//! SMTp integer-register reservation.
//!
//! Sizing follows paper §3: `32 × (app_threads + 1) + 96` physical
//! registers per class. The protocol boot sequence initializes all 32
//! protocol logical registers so they stay mapped forever; together with a
//! single reserved free register this guarantees handler forward progress
//! (§2.2): the protocol instruction taking the reserved register always
//! frees its previous mapping at graduation.

use smtp_isa::{Reg, RegClass};
use smtp_types::{Ctx, Cycle, MAX_CTX};

/// Outcome of a rename attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RenameOutcome {
    /// Renamed; destination physical register and the previous mapping.
    Ok {
        /// Newly allocated physical register.
        phys: u16,
        /// Previous mapping of the logical destination (freed at commit).
        prev: u16,
    },
    /// No physical register available to this requester class.
    Stall,
}

/// One register class's physical file: map tables, free list, ready times.
#[derive(Clone, Debug)]
struct ClassFile {
    map: Vec<[u16; 32]>,
    free: Vec<u16>,
    ready_at: Vec<Cycle>,
    reserve: usize,
    in_use_by_protocol: u64,
    peak_protocol: u64,
}

impl ClassFile {
    fn new(total: usize, app_threads: usize, reserve: usize) -> ClassFile {
        assert!(
            total >= 32 * (app_threads + 1),
            "not enough registers for map tables"
        );
        let mut free: Vec<u16> = (0..total as u16).collect();
        // Map 32 logical registers per active context: application threads
        // at indices 0..app_threads, plus the protocol context (whose boot
        // sequence initializes all its logical registers, §2.2) at the last
        // index. Inactive contexts keep poisoned maps.
        let mut map = vec![[u16::MAX; 32]; MAX_CTX];
        for idx in (0..app_threads).chain([Ctx::PROTOCOL.idx()]) {
            for slot in map[idx].iter_mut() {
                *slot = free.pop().expect("sizing checked");
            }
        }
        ClassFile {
            map,
            free,
            ready_at: vec![0; total],
            reserve,
            in_use_by_protocol: 0,
            peak_protocol: 0,
        }
    }

    fn can_alloc(&self, is_protocol: bool) -> bool {
        if is_protocol {
            !self.free.is_empty()
        } else {
            self.free.len() > self.reserve
        }
    }

    fn alloc(&mut self, ctx: Ctx, logical: u8) -> RenameOutcome {
        let is_protocol = ctx.is_protocol();
        if !self.can_alloc(is_protocol) {
            return RenameOutcome::Stall;
        }
        let phys = self.free.pop().expect("can_alloc checked");
        let prev = self.map[ctx.idx()][logical as usize];
        self.map[ctx.idx()][logical as usize] = phys;
        self.ready_at[phys as usize] = Cycle::MAX;
        if is_protocol {
            self.in_use_by_protocol += 1;
            self.peak_protocol = self.peak_protocol.max(self.protocol_regs());
        }
        RenameOutcome::Ok { phys, prev }
    }

    fn protocol_regs(&self) -> u64 {
        32 + self.in_use_by_protocol
    }
}

/// Both register classes for one pipeline.
#[derive(Clone, Debug)]
pub struct RegFiles {
    int: ClassFile,
    fp: ClassFile,
    /// [`RegFiles::set_ready`] calls so far (either class).
    writes: u64,
}

impl RegFiles {
    /// Build files for `app_threads` application contexts plus the protocol
    /// context; `reserve_int` is 1 under SMTp (0 otherwise).
    pub fn new(total_int: usize, total_fp: usize, app_threads: usize, reserve_int: usize) -> Self {
        RegFiles {
            int: ClassFile::new(total_int, app_threads, reserve_int),
            fp: ClassFile::new(total_fp, app_threads, 0),
            writes: 0,
        }
    }

    fn class(&self, c: RegClass) -> &ClassFile {
        match c {
            RegClass::Int => &self.int,
            RegClass::Fp => &self.fp,
        }
    }

    fn class_mut(&mut self, c: RegClass) -> &mut ClassFile {
        match c {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        }
    }

    /// Current physical mapping of a logical source register.
    pub fn lookup(&self, ctx: Ctx, r: Reg) -> u16 {
        self.class(r.class).map[ctx.idx()][r.idx as usize]
    }

    /// Whether a destination of class `c` could be renamed right now.
    pub fn can_alloc(&self, ctx: Ctx, c: RegClass) -> bool {
        self.class(c).can_alloc(ctx.is_protocol())
    }

    /// Rename a destination register.
    pub fn rename(&mut self, ctx: Ctx, r: Reg) -> RenameOutcome {
        self.class_mut(r.class).alloc(ctx, r.idx)
    }

    /// Mark a physical register's value available at `at`.
    pub fn set_ready(&mut self, c: RegClass, phys: u16, at: Cycle) {
        self.class_mut(c).ready_at[phys as usize] = at;
        self.writes += 1;
    }

    /// Number of ready-time writes so far. A waiter that found a register
    /// not yet ready need not look again until this moves.
    #[inline]
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// When a physical register's value becomes available.
    pub fn ready_at(&self, c: RegClass, phys: u16) -> Cycle {
        self.class(c).ready_at[phys as usize]
    }

    /// Commit-time free of the previous mapping.
    pub fn free_prev(&mut self, ctx: Ctx, c: RegClass, prev: u16) {
        let f = self.class_mut(c);
        f.free.push(prev);
        if ctx.is_protocol() {
            debug_assert!(f.in_use_by_protocol > 0);
            f.in_use_by_protocol -= 1;
        }
    }

    /// Squash-time rollback: restore `prev` as the mapping of `r` and
    /// return the speculative physical register to the free list.
    pub fn rollback(&mut self, ctx: Ctx, r: Reg, phys: u16, prev: u16) {
        let f = self.class_mut(r.class);
        debug_assert_eq!(
            f.map[ctx.idx()][r.idx as usize],
            phys,
            "rollback order violated"
        );
        f.map[ctx.idx()][r.idx as usize] = prev;
        f.free.push(phys);
        if ctx.is_protocol() {
            debug_assert!(f.in_use_by_protocol > 0);
            f.in_use_by_protocol -= 1;
        }
    }

    /// Free integer registers right now (diagnostics).
    pub fn free_int(&self) -> usize {
        self.int.free.len()
    }

    /// Integer registers currently held by the protocol thread, counting
    /// its 32 permanently mapped logical registers (paper Table 9).
    pub fn protocol_int_regs(&self) -> u64 {
        self.int.protocol_regs()
    }

    /// Peak integer registers held by the protocol thread.
    pub fn protocol_int_regs_peak(&self) -> u64 {
        self.int.peak_protocol.max(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> RegFiles {
        // 1 app thread + protocol: 32*2 mapped, 96 free.
        RegFiles::new(160, 160, 1, 1)
    }

    #[test]
    fn initial_mappings_and_free_pool() {
        let f = files();
        assert_eq!(f.free_int(), 96);
        assert_eq!(f.protocol_int_regs(), 32);
        // All logical regs of ctx0 and protocol are mapped and distinct.
        let a = f.lookup(Ctx(0), Reg::int(0));
        let b = f.lookup(Ctx::protocol(), Reg::int(0));
        assert_ne!(a, b);
    }

    #[test]
    fn rename_free_cycle() {
        let mut f = files();
        let before = f.lookup(Ctx(0), Reg::int(5));
        let RenameOutcome::Ok { phys, prev } = f.rename(Ctx(0), Reg::int(5)) else {
            panic!("rename stalled");
        };
        assert_eq!(prev, before);
        assert_eq!(f.lookup(Ctx(0), Reg::int(5)), phys);
        assert_eq!(f.free_int(), 95);
        f.free_prev(Ctx(0), RegClass::Int, prev);
        assert_eq!(f.free_int(), 96);
    }

    #[test]
    fn rollback_restores_mapping() {
        let mut f = files();
        let before = f.lookup(Ctx(0), Reg::int(9));
        let RenameOutcome::Ok { phys, prev } = f.rename(Ctx(0), Reg::int(9)) else {
            panic!();
        };
        f.rollback(Ctx(0), Reg::int(9), phys, prev);
        assert_eq!(f.lookup(Ctx(0), Reg::int(9)), before);
        assert_eq!(f.free_int(), 96);
    }

    #[test]
    fn reserved_register_only_for_protocol() {
        let mut f = files();
        // Drain the free list down to the reserved register.
        let mut n = 0;
        while f.can_alloc(Ctx(0), RegClass::Int) {
            assert!(matches!(
                f.rename(Ctx(0), Reg::int(1)),
                RenameOutcome::Ok { .. }
            ));
            n += 1;
        }
        assert_eq!(n, 95, "application stops one short of empty");
        assert_eq!(f.free_int(), 1);
        assert_eq!(f.rename(Ctx(0), Reg::int(2)), RenameOutcome::Stall);
        // The protocol thread can take the last one.
        assert!(matches!(
            f.rename(Ctx::protocol(), Reg::int(3)),
            RenameOutcome::Ok { .. }
        ));
        assert_eq!(f.free_int(), 0);
        assert_eq!(f.rename(Ctx::protocol(), Reg::int(4)), RenameOutcome::Stall);
    }

    #[test]
    fn ready_times_round_trip() {
        let mut f = files();
        let RenameOutcome::Ok { phys, .. } = f.rename(Ctx(0), Reg::fp(3)) else {
            panic!();
        };
        assert_eq!(f.ready_at(RegClass::Fp, phys), Cycle::MAX);
        f.set_ready(RegClass::Fp, phys, 42);
        assert_eq!(f.ready_at(RegClass::Fp, phys), 42);
    }

    #[test]
    fn protocol_peak_occupancy_tracked() {
        let mut f = files();
        for i in 0..5 {
            f.rename(Ctx::protocol(), Reg::int(i));
        }
        assert_eq!(f.protocol_int_regs(), 37);
        assert_eq!(f.protocol_int_regs_peak(), 37);
    }
}
