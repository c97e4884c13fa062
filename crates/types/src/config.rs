//! Machine configuration: every knob from paper Tables 2 (processor),
//! 3 (memory system) and 4 (machine models).

use crate::ids::MAX_APP_THREADS;

/// Largest machine [`SystemConfig::validate`] accepts, in nodes.
pub const MAX_NODES: usize = 128;

/// The five machine models compared in the paper (Table 4).
///
/// All directory-protocol execution happens either on an embedded
/// programmable dual-issue protocol processor (`Base`, `IntPerfect`,
/// `Int512KB`, `Int64KB`) or — in `SMTp` — on a protocol thread context of
/// the main SMT pipeline together with a *standard* integrated memory
/// controller.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MachineModel {
    /// Non-integrated protocol processor / memory controller at a fixed
    /// 400 MHz with a 512 KB direct-mapped directory data cache
    /// (an SGI-Origin-2000-like design).
    Base,
    /// Integrated PP/MC running at full processor frequency with a perfect
    /// (always hitting) directory data cache: the aggressive upper bound.
    IntPerfect,
    /// Integrated PP/MC at half processor frequency, 512 KB DM directory
    /// data cache.
    Int512KB,
    /// Integrated PP/MC at half processor frequency, 64 KB DM directory
    /// data cache: the realistic single-cycle-access design point.
    Int64KB,
    /// The paper's proposal: standard integrated MC (no protocol processor)
    /// at half processor frequency; coherence handlers run on the SMT
    /// protocol thread.
    SMTp,
}

impl MachineModel {
    /// All models, in the order the paper's figures present them.
    pub const ALL: [MachineModel; 5] = [
        MachineModel::Base,
        MachineModel::IntPerfect,
        MachineModel::Int512KB,
        MachineModel::Int64KB,
        MachineModel::SMTp,
    ];

    /// Whether the coherence protocol runs on the SMT protocol thread.
    pub fn uses_protocol_thread(self) -> bool {
        matches!(self, MachineModel::SMTp)
    }

    /// Whether the node has an embedded protocol processor.
    pub fn has_protocol_engine(self) -> bool {
        !self.uses_protocol_thread()
    }

    /// Directory data cache capacity in KB; `None` means a perfect cache.
    /// `SMTp` has no directory cache at all (directory accesses go through
    /// the shared L1D/L2), which is also reported as `None` here — check
    /// [`MachineModel::uses_protocol_thread`] first.
    pub fn dir_cache_kb(self) -> Option<u32> {
        match self {
            MachineModel::Base | MachineModel::Int512KB => Some(512),
            MachineModel::Int64KB => Some(64),
            MachineModel::IntPerfect | MachineModel::SMTp => None,
        }
    }

    /// Memory-controller clock divisor relative to the CPU clock.
    ///
    /// `Base` keeps its off-chip controller at 400 MHz regardless of CPU
    /// frequency (paper §4.2); the integrated models run at half CPU speed
    /// except `IntPerfect` which runs at full speed.
    pub fn mc_divisor(self, cpu_ghz: f64) -> u64 {
        match self {
            MachineModel::Base => ((cpu_ghz * 1000.0) / 400.0).round() as u64,
            MachineModel::IntPerfect => 1,
            _ => 2,
        }
    }

    /// Short label used in table/figure output.
    pub fn label(self) -> &'static str {
        match self {
            MachineModel::Base => "Base",
            MachineModel::IntPerfect => "IntPerfect",
            MachineModel::Int512KB => "Int512KB",
            MachineModel::Int64KB => "Int64KB",
            MachineModel::SMTp => "SMTp",
        }
    }
}

impl std::fmt::Display for MachineModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Geometry and latency of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (ways).
    pub ways: u32,
    /// Access (hit) latency in CPU cycles.
    pub hit_cycles: u64,
}

impl CacheParams {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.line * self.ways as u64)
    }
}

/// Out-of-order SMT pipeline parameters (paper Table 2).
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineParams {
    /// Instructions fetched per cycle (from up to [`Self::fetch_threads`]).
    pub fetch_width: usize,
    /// Threads fetched from per cycle (ICOUNT.2.8).
    pub fetch_threads: usize,
    /// Decode queue slots (shared; one reserved for the protocol thread).
    pub decode_queue: usize,
    /// Rename queue slots (shared; one reserved for the protocol thread).
    pub rename_queue: usize,
    /// Branch target buffer sets.
    pub btb_sets: usize,
    /// Branch target buffer ways.
    pub btb_ways: usize,
    /// Return address stack entries (per thread).
    pub ras_entries: usize,
    /// Active list (per-thread reorder buffer) entries.
    pub active_list: usize,
    /// Branch stack entries: maximum in-flight branches (shared; one
    /// reserved for the protocol thread).
    pub branch_stack: usize,
    /// Extra integer rename registers beyond the architected
    /// `32 × (threads + 1)`.
    pub extra_int_regs: usize,
    /// Extra floating-point rename registers, same rule.
    pub extra_fp_regs: usize,
    /// Integer issue queue entries (one reserved for the protocol thread).
    pub int_queue: usize,
    /// Floating-point issue queue entries.
    pub fp_queue: usize,
    /// Unified load/store queue entries (one reserved for protocol).
    pub lsq: usize,
    /// Integer ALUs (one dedicated to address calculation).
    pub alus: usize,
    /// Floating-point units.
    pub fpus: usize,
    /// Integer multiply latency (cycles).
    pub int_mul_latency: u64,
    /// Integer divide latency (cycles).
    pub int_div_latency: u64,
    /// Floating-point multiply latency (fully pipelined).
    pub fp_mul_latency: u64,
    /// Floating-point divide latency (double precision).
    pub fp_div_latency: u64,
    /// Instructions committed per cycle (round robin across threads).
    pub commit_width: usize,
    /// L1 instruction cache.
    pub l1i: CacheParams,
    /// L1 data cache.
    pub l1d: CacheParams,
    /// Unified L2 cache.
    pub l2: CacheParams,
    /// Miss status holding registers (application; +1 retiring-store MSHR,
    /// +1 reserved protocol MSHR in SMTp).
    pub mshrs: usize,
    /// Speculative store buffer entries (one reserved for protocol).
    pub store_buffer: usize,
    /// Fully-associative bypass buffer lines for each of L1I/L1D/L2 (SMTp
    /// deadlock avoidance, paper §2.2).
    pub bypass_lines: usize,
    /// Whether Look-Ahead Scheduling of protocol handlers is enabled
    /// (paper §2.3; on by default, ablatable).
    pub look_ahead_scheduling: bool,
    /// Give the protocol thread separate, perfect instruction and data
    /// caches — the paper's §2.3 experiment isolating the cost of cache
    /// sharing (0.9–5.1% there). Off by default: SMTp shares the caches.
    pub perfect_protocol_caches: bool,
    /// ITLB/DTLB entries (fully associative, LRU; paper Table 2: 128).
    pub tlb_entries: usize,
    /// Page size in bytes (Table 2: 4 KB).
    pub page_bytes: u64,
    /// TLB miss penalty in cycles (software-managed refill, MIPS-style).
    pub tlb_miss_cycles: u64,
    /// Extra front-end redirect penalty cycles on a branch misprediction,
    /// on top of the natural drain of the 9-stage pipe.
    pub redirect_penalty: u64,
}

impl PipelineParams {
    /// Total integer physical registers for `app_threads` application
    /// contexts plus the protocol context: `32 × (t + 1) + extra`
    /// (160/192/256 for 1/2/4 application threads).
    pub fn int_regs(&self, app_threads: usize) -> usize {
        32 * (app_threads + 1) + self.extra_int_regs
    }

    /// Total floating-point physical registers (same sizing rule).
    pub fn fp_regs(&self, app_threads: usize) -> usize {
        32 * (app_threads + 1) + self.extra_fp_regs
    }
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            fetch_width: 8,
            fetch_threads: 2,
            decode_queue: 8,
            rename_queue: 8,
            btb_sets: 256,
            btb_ways: 4,
            ras_entries: 32,
            active_list: 128,
            branch_stack: 32,
            extra_int_regs: 96,
            extra_fp_regs: 96,
            int_queue: 32,
            fp_queue: 32,
            lsq: 64,
            alus: 7,
            fpus: 3,
            int_mul_latency: 6,
            int_div_latency: 35,
            fp_mul_latency: 1,
            fp_div_latency: 19,
            commit_width: 8,
            l1i: CacheParams {
                capacity: 32 * 1024,
                line: 64,
                ways: 2,
                hit_cycles: 1,
            },
            l1d: CacheParams {
                capacity: 32 * 1024,
                line: 32,
                ways: 2,
                hit_cycles: 1,
            },
            l2: CacheParams {
                capacity: 2 * 1024 * 1024,
                line: 128,
                ways: 8,
                hit_cycles: 9,
            },
            mshrs: 16,
            store_buffer: 32,
            bypass_lines: 16,
            look_ahead_scheduling: true,
            perfect_protocol_caches: false,
            tlb_entries: 128,
            page_bytes: 4096,
            tlb_miss_cycles: 30,
            redirect_penalty: 2,
        }
    }
}

/// Memory-system parameters (paper Table 3).
#[derive(Clone, Debug, PartialEq)]
pub struct MemParams {
    /// SDRAM access time in nanoseconds.
    pub sdram_access_ns: f64,
    /// SDRAM bandwidth in GB/s.
    pub sdram_bw_gbps: f64,
    /// SDRAM request queue entries.
    pub sdram_queue: usize,
    /// Local miss queue entries.
    pub local_miss_queue: usize,
    /// Network-interface input queue entries (each of 4 virtual networks).
    pub ni_in_queue: usize,
    /// Network-interface output queue entries (each of 4 virtual networks).
    pub ni_out_queue: usize,
    /// Directory data cache line size in bytes (direct mapped).
    pub dir_cache_line: u64,
    /// Divisor applied to the paper's directory-cache capacities (Table 4).
    /// Problem sizes are scaled ~16× down from the paper (DESIGN.md §7);
    /// scaling the directory caches by the same factor preserves the
    /// capacity *ratios* that drive the Int64KB results. Set to 1 for the
    /// paper's absolute capacities.
    pub dir_cache_scale_div: u32,
    /// System bus width in bytes (64 bits, Table 3): every L2↔MC transfer
    /// crosses it at the memory-controller clock.
    pub bus_bytes: u64,
    /// Embedded protocol processor instruction cache capacity (bytes,
    /// direct mapped; fixed 32 KB in all non-SMTp models).
    pub pp_icache_bytes: u64,
}

impl Default for MemParams {
    fn default() -> Self {
        MemParams {
            sdram_access_ns: 80.0,
            sdram_bw_gbps: 3.2,
            sdram_queue: 16,
            local_miss_queue: 16,
            ni_in_queue: 2,
            ni_out_queue: 16,
            dir_cache_line: 64,
            dir_cache_scale_div: 16,
            bus_bytes: 8,
            pp_icache_bytes: 32 * 1024,
        }
    }
}

/// Interconnect parameters (paper Table 3; SGI-Spider-like router).
#[derive(Clone, Debug, PartialEq)]
pub struct NetParams {
    /// Per-hop latency in nanoseconds.
    pub hop_ns: f64,
    /// Link bandwidth in GB/s.
    pub link_gbps: f64,
    /// Message header size in bytes (address + header registers).
    pub header_bytes: u64,
    /// Number of virtual networks (the protocol uses three: request,
    /// intervention, reply).
    pub virtual_networks: usize,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            hop_ns: 25.0,
            link_gbps: 1.0,
            header_bytes: 16,
            virtual_networks: 4,
        }
    }
}

/// Full configuration of a simulated machine.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of DSM nodes (1..=128; the paper evaluates 1–32, the larger
    /// bristled-hypercube configurations probe scaling past it).
    pub nodes: usize,
    /// Application thread contexts per node (1, 2 or 4).
    pub app_threads: usize,
    /// Processor clock in GHz (paper: 2 or 4).
    pub cpu_ghz: f64,
    /// Which of the five machine models to assemble.
    pub model: MachineModel,
    /// Pipeline parameters.
    pub pipeline: PipelineParams,
    /// Memory-system parameters.
    pub mem: MemParams,
    /// Interconnect parameters.
    pub net: NetParams,
    /// Seed for all deterministic pseudo-randomness.
    pub seed: u64,
    /// Fault-injection configuration (disabled by default).
    pub faults: crate::faults::FaultConfig,
    /// Pin the parallel engine's worker-thread count (`None` = use the
    /// host's available parallelism). A host-side knob: the simulated
    /// machine, and therefore every guest-visible result, is identical for
    /// any worker count. A count larger than the node count is clamped to
    /// one worker per node (never an empty partition); `Some(0)` is
    /// rejected by [`SystemConfig::validate`].
    pub workers: Option<usize>,
}

impl SystemConfig {
    /// A machine of `nodes` nodes with `app_threads` application threads per
    /// node, in the given machine model, at 2 GHz with default parameters.
    pub fn new(model: MachineModel, nodes: usize, app_threads: usize) -> SystemConfig {
        let c = SystemConfig {
            nodes,
            app_threads,
            cpu_ghz: 2.0,
            model,
            pipeline: PipelineParams::default(),
            mem: MemParams::default(),
            net: NetParams::default(),
            seed: 0x5317_9a7e,
            faults: crate::faults::FaultConfig::default(),
            workers: None,
        };
        c.validate();
        c
    }

    /// Validate structural invariants.
    ///
    /// # Panics
    ///
    /// Panics on an unbuildable configuration (zero nodes, too many threads,
    /// non-power-of-two node count above 1, …).
    pub fn validate(&self) {
        assert!(
            (1..=MAX_NODES).contains(&self.nodes),
            "1..={MAX_NODES} nodes supported"
        );
        assert!(
            self.nodes == 1 || self.nodes.is_power_of_two(),
            "multi-node machines must have a power-of-two node count"
        );
        assert!(
            (1..=MAX_APP_THREADS).contains(&self.app_threads),
            "1..={MAX_APP_THREADS} application threads per node"
        );
        assert!(self.cpu_ghz > 0.0);
        assert!(self.pipeline.fetch_width >= 1);
        assert!(self.pipeline.commit_width >= 1);
        assert!(
            self.workers != Some(0),
            "worker count, when pinned, must be >= 1"
        );
    }

    /// Convert nanoseconds to CPU cycles (rounding up).
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.cpu_ghz).ceil() as u64
    }

    /// CPU cycles to transfer `bytes` at `gbps` GB/s (rounding up).
    pub fn transfer_cycles(&self, bytes: u64, gbps: f64) -> u64 {
        self.ns_to_cycles(bytes as f64 / gbps)
    }

    /// Memory-controller clock divisor for this model/frequency.
    pub fn mc_divisor(&self) -> u64 {
        self.model.mc_divisor(self.cpu_ghz)
    }

    /// Total number of application threads in the machine.
    pub fn total_app_threads(&self) -> usize {
        self.nodes * self.app_threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_file_sizing_matches_table2() {
        let p = PipelineParams::default();
        assert_eq!(p.int_regs(1), 160);
        assert_eq!(p.int_regs(2), 192);
        assert_eq!(p.int_regs(4), 256);
        assert_eq!(p.fp_regs(4), 256);
    }

    #[test]
    fn mc_divisors_match_table4() {
        assert_eq!(MachineModel::Base.mc_divisor(2.0), 5); // 400 MHz at 2 GHz
        assert_eq!(MachineModel::Base.mc_divisor(4.0), 10); // still 400 MHz
        assert_eq!(MachineModel::IntPerfect.mc_divisor(2.0), 1);
        assert_eq!(MachineModel::Int512KB.mc_divisor(2.0), 2);
        assert_eq!(MachineModel::SMTp.mc_divisor(4.0), 2);
    }

    #[test]
    fn dir_cache_sizes_match_table4() {
        assert_eq!(MachineModel::Base.dir_cache_kb(), Some(512));
        assert_eq!(MachineModel::Int512KB.dir_cache_kb(), Some(512));
        assert_eq!(MachineModel::Int64KB.dir_cache_kb(), Some(64));
        assert_eq!(MachineModel::IntPerfect.dir_cache_kb(), None);
        assert!(MachineModel::SMTp.uses_protocol_thread());
        assert!(!MachineModel::Int64KB.uses_protocol_thread());
    }

    #[test]
    fn ns_conversion() {
        let c = SystemConfig::new(MachineModel::SMTp, 4, 2);
        assert_eq!(c.ns_to_cycles(80.0), 160); // 80 ns SDRAM at 2 GHz
        assert_eq!(c.ns_to_cycles(25.0), 50); // hop time
        assert_eq!(c.transfer_cycles(128, 1.0), 256); // 128 B over 1 GB/s link
    }

    #[test]
    fn cache_geometry() {
        let p = PipelineParams::default();
        assert_eq!(p.l1d.sets(), 512);
        assert_eq!(p.l2.sets(), 2048);
        assert_eq!(p.l1i.sets(), 256);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_pow2_nodes() {
        SystemConfig::new(MachineModel::Base, 6, 1);
    }

    #[test]
    #[should_panic(expected = "application threads")]
    fn rejects_too_many_threads() {
        SystemConfig::new(MachineModel::Base, 4, 5);
    }
}
