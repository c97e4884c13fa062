//! Outside-in layer timers: ns/op of calls into each simulator crate's
//! public functions, with inputs drawn from the run's seed. A layer is a
//! crate; the metric prefix is its name. Best of seven samples, each span
//! recorded. These say what one call costs in isolation; a workload's
//! `*.est_wall_share` multiplies that by the workload's exact call count.

use crate::run::Opts;
use crate::spans::Spans;
use smtp::cache::mshr::MshrClass;
use smtp::cache::{
    AccessOutcome, Cache, Grant, LineState, MemEvent, MemHierarchy, MissKind, MshrFile,
};
use smtp::isa::{InstSource, Op, SyncEnv, SyncOutcome};
use smtp::mem::{DirCache, ProtocolEngine, Sdram, TimedQueue};
use smtp::noc::{Msg, MsgKind, Network};
use smtp::pipeline::BranchPredictor;
use smtp::protocol::{handler_program, must_apply, DirState, Directory};
use smtp::trace::{Category, Event, Tracer};
use smtp::types::{
    Addr, CacheParams, Ctx, LineAddr, NetParams, NodeId, PipelineParams, Region, SharerSet, SpanId,
    SplitMix64, SystemConfig,
};
use smtp::workloads::{make_thread, SyncManager, WorkloadCfg};
use smtp::{build_system, AppKind, ExperimentConfig, FaultConfig, MachineModel, System};
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 7;
/// Calls between clock reads inside a sample.
const BATCH: u64 = 256;

/// The layer timers of one run, in report order.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes(Vec<(&'static str, f64)>);

impl LayerTimes {
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }

    /// ns/op of the timer called `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such timer ran (a typo in this crate).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no layer timer {name}"))
            .1
    }
}

struct Timers<'a> {
    opts: &'a Opts,
    spans: &'a mut Spans,
    out: LayerTimes,
}

impl Timers<'_> {
    /// Time `f`: one warm-up sample, then the best of `SAMPLES` samples of
    /// at least `opts.timer_sample` each, as ns per call.
    fn time<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) {
        let layer: &'static str = name.split('.').next().expect("split yields one item");
        let budget = self.opts.timer_sample;
        let best = self.spans.scope(name, layer, |_| {
            let mut best = f64::INFINITY;
            for sample in 0..=SAMPLES {
                let t = Instant::now();
                let mut calls = 0u64;
                while t.elapsed() < budget {
                    for _ in 0..BATCH {
                        black_box(f());
                    }
                    calls += BATCH;
                }
                let ns = t.elapsed().as_nanos() as f64 / calls as f64;
                if sample > 0 {
                    best = best.min(ns);
                }
            }
            best
        });
        println!("timer {name} {best:.2} ns/op (best of {SAMPLES})");
        self.out.0.push((name, best));
    }
}

fn app_addr(home: u16, line_no: u64) -> Addr {
    Addr::new(NodeId(home), Region::AppData, line_no * 128)
}

/// A one-node machine mid-run, for the whole-node tick timers.
fn one_node(app: AppKind, ways: usize) -> System {
    let mut e = ExperimentConfig::new(MachineModel::SMTp, app, 1, ways);
    e.cpu_ghz = 2.0;
    e.scale = 1.0;
    let mut sys = build_system(&e);
    // Past the cold start, into the steady loop body.
    for _ in 0..20_000 {
        sys.tick();
    }
    sys
}

/// Run every layer timer. `seed` drives the address, node and branch
/// streams.
pub fn time_all(seed: u64, opts: &Opts, spans: &mut Spans) -> LayerTimes {
    spans.scope("layer_timers", "perflab", |spans| {
        let mut t = Timers {
            opts,
            spans,
            out: LayerTimes::default(),
        };
        let mut rng = SplitMix64::new(seed);
        pipeline(&mut t, &mut rng);
        cache(&mut t, &mut rng);
        protocol(&mut t, &mut rng);
        noc(&mut t, &mut rng, seed);
        mem(&mut t, &mut rng);
        workloads(&mut t);
        trace(&mut t);
        core(&mut t);
        t.out
    })
}

fn pipeline(t: &mut Timers, rng: &mut SplitMix64) {
    let mut p = BranchPredictor::new();
    // 64 static branches, each with a seeded bias.
    let bias: Vec<u64> = (0..64).map(|_| rng.below(100)).collect();
    let mut r = SplitMix64::new(rng.next_u64());
    t.time("pipeline.predict_train_ns", || {
        let pc = r.below(64) as u32;
        let taken = r.below(100) < bias[pc as usize];
        let pred = p.predict(Ctx(0), pc);
        p.train(Ctx(0), pc, taken);
        pred
    });
}

fn cache(t: &mut Timers, rng: &mut SplitMix64) {
    let l2 = CacheParams {
        capacity: 2 * 1024 * 1024,
        line: 128,
        ways: 8,
        hit_cycles: 9,
    };
    let mut c = Cache::new(&l2);
    for i in 0..1024 {
        c.insert(app_addr(0, i), LineState::Shared);
    }
    let mut r = SplitMix64::new(rng.next_u64());
    t.time("cache.l2_lookup_hit_ns", || {
        c.lookup(app_addr(0, r.below(1024)))
    });

    let mut c = Cache::new(&l2);
    let mut next = rng.below(1 << 20);
    t.time("cache.l2_insert_evict_ns", || {
        next += 1;
        c.insert(app_addr(0, next), LineState::Modified)
    });

    // Hit path: 64 resident lines, re-read in seeded order.
    let mut h = MemHierarchy::new(NodeId(0), &PipelineParams::default(), true);
    let mut now = 0u64;
    for i in 0..64 {
        now += 1_000;
        if h.load(0, app_addr(0, i), now, false) == AccessOutcome::Pending {
            while h.pop_event().is_some() {}
            h.fill(app_addr(0, i).line(), Grant::Shared, now + 100);
            while h.pop_event().is_some() {}
        }
    }
    let mut r = SplitMix64::new(rng.next_u64());
    t.time("cache.hier_load_hit_ns", || {
        now += 4;
        h.load(1, app_addr(0, r.below(64)), now, false)
    });

    // Miss path: a stream of never-seen lines, each missing, requesting,
    // filling and waking its load.
    let mut h = MemHierarchy::new(NodeId(0), &PipelineParams::default(), true);
    let mut now = 0u64;
    let mut next = rng.below(1 << 20);
    t.time("cache.hier_load_miss_fill_ns", || {
        next += 1;
        now += 400;
        let a = app_addr(1, next);
        let outcome = h.load(2, a, now, false);
        while let Some(ev) = h.pop_event() {
            if let MemEvent::Writeback { line, .. } = ev {
                h.wb_acked(line);
            }
        }
        if outcome == AccessOutcome::Pending {
            h.fill(a.line(), Grant::Shared, now + 200);
            while h.pop_event().is_some() {}
        }
        outcome
    });

    let mut m = MshrFile::new(PipelineParams::default().mshrs, true);
    let mut next = rng.below(1 << 20);
    t.time("cache.mshr_alloc_free_ns", || {
        next += 1;
        let line = app_addr(1, next).line();
        let idx = m
            .alloc(
                line,
                MissKind::Read,
                MshrClass::AppLoad,
                false,
                next,
                SpanId::NONE,
            )
            .expect("an empty MSHR file has room");
        m.free(idx).line
    });
}

fn protocol(t: &mut Timers, rng: &mut SplitMix64) {
    let home = NodeId(0);
    let lines: Vec<LineAddr> = (0..1024)
        .map(|_| app_addr(0, rng.below(1 << 20)).line())
        .collect();
    let mut r = SplitMix64::new(rng.next_u64());

    let unowned = DirState::Unowned;
    t.time("protocol.transition_gets_unowned_ns", || {
        let line = lines[r.below(1024) as usize];
        let from = NodeId(1 + r.below(15) as u16);
        must_apply(home, &unowned, &Msg::new(MsgKind::GetS, line, from, home))
    });

    let sharers: SharerSet = (1..=8).map(NodeId).collect();
    let shared8 = DirState::Shared(sharers);
    t.time("protocol.transition_getx_shared8_ns", || {
        let line = lines[r.below(1024) as usize];
        must_apply(
            home,
            &shared8,
            &Msg::new(MsgKind::GetX, line, NodeId(9), home),
        )
    });

    let tr = must_apply(
        home,
        &shared8,
        &Msg::new(MsgKind::GetX, lines[0], NodeId(9), home),
    );
    t.time("protocol.handler_program_ns", || {
        handler_program(home, lines[r.below(1024) as usize], &tr)
    });

    // A closed loop over the directory map: take a line exclusive, then
    // write it back, so the map neither grows nor goes busy.
    let mut dir = Directory::new(home);
    let mut now = 0u64;
    let mut pending: Option<Msg> = None;
    t.time("protocol.directory_process_ns", || {
        now += 10;
        let msg = pending.take().unwrap_or_else(|| {
            let line = lines[r.below(1024) as usize];
            let from = NodeId(1 + r.below(15) as u16);
            pending = Some(Msg::new(MsgKind::Put { dirty: true }, line, from, home));
            Msg::new(MsgKind::GetX, line, from, home)
        });
        dir.process(&msg, now)
    });
}

/// Inject one message between two seeded nodes and drain what arrives.
/// Time steps by more than the drain look-ahead so the link-level retry
/// timers only ever see the clock move forward.
fn inject_deliver(net: &mut Network, r: &mut SplitMix64, now: &mut u64) -> u64 {
    *now += 200_000;
    let src = r.below(32) as u16;
    let dst = (src + 1 + r.below(31) as u16) % 32;
    let line = app_addr(dst, r.below(1 << 16)).line();
    net.inject(
        *now,
        Msg::new(MsgKind::GetS, line, NodeId(src), NodeId(dst)),
    );
    let mut delivered = 0;
    while let Some(m) = net.pop_arrived(*now + 100_000) {
        black_box(m);
        delivered += 1;
    }
    delivered
}

fn noc(t: &mut Timers, rng: &mut SplitMix64, seed: u64) {
    let mut r = SplitMix64::new(rng.next_u64());
    let mut net = Network::new(32, 2.0, &NetParams::default());
    let mut now = 0u64;
    t.time("noc.inject_deliver_32n_ns", || {
        inject_deliver(&mut net, &mut r, &mut now)
    });

    // The same traffic through the link-level retry layer.
    let mut net = Network::new(32, 2.0, &NetParams::default());
    net.set_faults(&FaultConfig::chaos(seed));
    let mut now = 0u64;
    t.time("noc.inject_deliver_chaos_ns", || {
        inject_deliver(&mut net, &mut r, &mut now)
    });
}

fn mem(t: &mut Timers, rng: &mut SplitMix64) {
    let cfg = SystemConfig::new(MachineModel::Base, 8, 2);
    let mut sdram = Sdram::from_ns(cfg.cpu_ghz, cfg.mem.sdram_access_ns, cfg.mem.sdram_bw_gbps);
    let mut now = 0u64;
    let mut r = SplitMix64::new(rng.next_u64());
    t.time("mem.sdram_read_ns", || {
        // Seeded arrival gaps: some reads queue behind the channel, some not.
        now += r.below(200);
        sdram.read(now, SpanId::NONE)
    });

    // The Base model's directory cache, over four times its reach.
    let kb = (MachineModel::Base
        .dir_cache_kb()
        .expect("Base has a finite directory cache")
        / cfg.mem.dir_cache_scale_div)
        .max(1);
    let dircache = || DirCache::direct_mapped(kb, cfg.mem.dir_cache_line);
    let entries = u64::from(kb) * 1024 / cfg.mem.dir_cache_line * 4;
    let mut dc = dircache();
    t.time("mem.dircache_access_ns", || {
        dc.access(app_addr(0, r.below(entries)).line().directory_entry())
    });

    let home = NodeId(0);
    let line = app_addr(0, 0x20).line();
    let sharers: SharerSet = (1..=8).map(NodeId).collect();
    let tr = must_apply(
        home,
        &DirState::Shared(sharers),
        &Msg::new(MsgKind::GetX, line, NodeId(9), home),
    );
    let prog = handler_program(home, line, &tr);
    let mut engine = ProtocolEngine::new(
        cfg.mc_divisor(),
        sdram.access_cycles(),
        dircache(),
        cfg.mem.pp_icache_bytes,
    );
    t.time("mem.engine_run_handler_ns", || {
        let now = engine.busy_until();
        engine.run_handler(home, &prog, now).finish
    });

    let mut q: TimedQueue<u64> = TimedQueue::new();
    let mut now = 0u64;
    t.time("mem.timed_queue_push_pop_ns", || {
        now += 1;
        q.push(now + r.below(4), now);
        q.pop_due(now)
    });
}

fn workloads(t: &mut Timers) {
    // One generator per kernel, restarted when its program ends; sync
    // outcomes come from a one-thread SyncManager, as in the machine.
    let wl = WorkloadCfg::new(1, 1);
    let (node, ctx) = (NodeId(0), Ctx(0));
    let fresh = |app| (make_thread(app, &wl, node, ctx), SyncManager::new(1));
    let mut gens = [AppKind::Lu, AppKind::Radix].map(|app| (app, fresh(app)));
    let mut turn = 0usize;
    t.time("workloads.next_inst_ns", || {
        turn ^= 1;
        let (app, (gen, mgr)) = &mut gens[turn];
        let inst = gen.next_inst();
        match inst.op {
            Op::Halt => (*gen, *mgr) = fresh(*app),
            Op::SyncBranch { cond } => {
                let sat = mgr.poll(node, ctx, cond);
                gen.sync_result(SyncOutcome::Cond(sat));
            }
            Op::SyncStore { op, .. } => {
                let out = mgr.sync_store(node, ctx, op);
                gen.sync_result(out);
            }
            _ => {}
        }
        inst.pc
    });
}

fn trace(t: &mut Timers) {
    let site = |tracer: &Tracer, now: u64| {
        tracer.emit(Category::Cache, now, || Event::MshrFree {
            node: NodeId(0),
            line: LineAddr(0x80),
            span: SpanId::new(NodeId(0), 1),
        });
    };
    let off = Tracer::new(); // attached, mask 0: the real disabled path
    let mut now = 0u64;
    t.time("trace.emit_disabled_ns", || {
        now += 1;
        site(&off, now);
        now
    });
    let on = Tracer::new();
    on.enable_all();
    on.enable_ring(256);
    t.time("trace.emit_ring_ns", || {
        now += 1;
        site(&on, now);
        now
    });
}

fn core(t: &mut Timers) {
    let mut busy = one_node(AppKind::Lu, 4);
    t.time("core.tick_busy_ns", || {
        busy.tick();
        busy.now()
    });
    let mut stalled = one_node(AppKind::Fftw, 1);
    t.time("core.tick_stalled_ns", || {
        stalled.tick();
        stalled.now()
    });
}
