//! The network timing model: eager link reservation over the topology.

use crate::llp::{ChanKey, Llp, PhysBody};
use crate::msg::{Msg, MsgKind};
use crate::topology::Topology;
use smtp_trace::{Category, Event, LinkFaultClass, LinkHeat, Tracer};
use smtp_types::{
    Cycle, Distribution, FaultConfig, FaultSummary, NetParams, PhaseBoundary, PhaseProfiler,
    L2_LINE,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Aggregate network statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetStats {
    /// Messages delivered.
    pub messages: u64,
    /// Wire bytes transferred (headers + payloads).
    pub bytes: u64,
    /// Sum of end-to-end message latencies in cycles.
    pub total_latency: u64,
    /// Messages per virtual network.
    pub per_vnet: [u64; 4],
}

impl NetStats {
    /// Mean end-to-end latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.messages as f64
        }
    }
}

#[derive(Clone, PartialEq, Eq, Debug)]
struct InFlight {
    at: Cycle,
    seq: u64,
    msg: Msg,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The interconnect: computes each injected message's arrival time by
/// reserving every link on its dimension-order route in sequence.
///
/// Delivery preserves point-to-point FIFO order (messages sharing a route
/// reserve its links in injection order) and global bandwidth limits (a
/// link serializes one message at a time at the configured GB/s).
#[derive(Clone, Debug)]
pub struct Network {
    topo: Topology,
    link_free: Vec<Cycle>,
    in_flight: BinaryHeap<Reverse<InFlight>>,
    seq: u64,
    hop_cycles: u64,
    header_bytes: u64,
    cycles_per_byte: f64,
    route_buf: Vec<usize>,
    stats: NetStats,
    /// Per-directed-link accounting, indexed by `LinkId`: cycles the link
    /// spent serializing, physical traversals, wire bytes, and LLP
    /// retransmissions routed over it. Mutated only on injection (which is
    /// coordinator-owned serial-order in both engines), so the matrices are
    /// bit-identical across serial and parallel runs.
    link_busy: Vec<u64>,
    link_msgs: Vec<u64>,
    link_bytes: Vec<u64>,
    link_retx: Vec<u64>,
    tracer: Tracer,
    profiler: PhaseProfiler,
    vnet_latency: [Distribution; 4],
    /// Link-level retry layer; present only when link fault injection is
    /// armed, so the fault-free path costs exactly one branch per call.
    llp: Option<Box<Llp>>,
}

impl Network {
    /// Build the network for `nodes` nodes at `cpu_ghz` with the given
    /// interconnect parameters.
    pub fn new(nodes: usize, cpu_ghz: f64, p: &NetParams) -> Network {
        let topo = Topology::new(nodes);
        let links = topo.link_count();
        Network {
            topo,
            link_free: vec![0; links],
            in_flight: BinaryHeap::new(),
            seq: 0,
            hop_cycles: (p.hop_ns * cpu_ghz).ceil() as u64,
            header_bytes: p.header_bytes,
            cycles_per_byte: cpu_ghz / p.link_gbps,
            route_buf: Vec::with_capacity(8),
            stats: NetStats::default(),
            link_busy: vec![0; links],
            link_msgs: vec![0; links],
            link_bytes: vec![0; links],
            link_retx: vec![0; links],
            tracer: Tracer::disabled(),
            profiler: PhaseProfiler::disabled(),
            vnet_latency: std::array::from_fn(|_| Distribution::new()),
            llp: None,
        }
    }

    /// Arm link fault injection and the Spider-style link-level retry layer
    /// that recovers from it. A no-op (and zero overhead) unless `faults`
    /// is enabled with at least one non-zero link rate.
    pub fn set_faults(&mut self, faults: &FaultConfig) {
        if !faults.enabled || !faults.link.any() {
            return;
        }
        // Base retransmit timeout: several worst-case data-packet flight
        // times through the hypercube, so healthy traffic never times out.
        let data_ser = ((self.header_bytes + L2_LINE) as f64 * self.cycles_per_byte).ceil() as u64;
        let max_links = self.topo.dims() as u64 + 2;
        let timeout0 = (4 * max_links * (self.hop_cycles + data_ser)).max(64);
        let stream = faults.stream(smtp_types::faults::SITE_LINK);
        let retry_stream = faults.stream(smtp_types::faults::SITE_LINK_RETRY);
        self.llp = Some(Box::new(Llp::new(
            stream,
            retry_stream,
            faults.link,
            timeout0,
        )));
    }

    /// Injected-fault and recovery counters (all zero when the retry layer
    /// is not armed).
    pub fn fault_counters(&self) -> FaultSummary {
        self.llp.as_ref().map(|l| l.counters).unwrap_or_default()
    }

    /// Attach the system tracer (events: `net_inject`, `net_deliver`).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attach the latency-phase profiler: home requests stamp
    /// `ReqDelivered` and data replies `ReplyDelivered` at their computed
    /// arrival cycle.
    pub fn set_profiler(&mut self, profiler: PhaseProfiler) {
        self.profiler = profiler;
    }

    /// Per-virtual-network end-to-end message latency distributions
    /// (indexed by `VNet::idx()`: request, intervention, reply, I/O).
    pub fn vnet_latency(&self) -> &[Distribution; 4] {
        &self.vnet_latency
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The minimum cross-node message latency: the zero-load flight time of
    /// a header-only packet between adjacent nodes (two links — inject and
    /// eject — each paying serialization plus a hop). Every path through
    /// the network is at least this long, and faults (delay, drop, corrupt,
    /// duplicate) only ever delay delivery, so a message injected at cycle
    /// `T` is never observable by another node before `T + min_latency()`.
    /// This is the conservative lookahead of the parallel epoch engine.
    pub fn min_latency(&self) -> Cycle {
        let header_ser = (self.header_bytes as f64 * self.cycles_per_byte).ceil() as u64;
        2 * (header_ser + self.hop_cycles)
    }

    /// Inject a message at cycle `now`; it will be delivered to `msg.dst`
    /// when [`Network::pop_arrived`] is polled at or after its computed
    /// arrival cycle.
    ///
    /// # Panics
    ///
    /// Panics if `msg.src == msg.dst` (local traffic never enters the
    /// network) — see [`Topology::route`].
    pub fn inject(&mut self, now: Cycle, msg: Msg) {
        if self.llp.is_some() {
            self.inject_llp(now, msg);
            return;
        }
        let bytes = msg.wire_bytes(self.header_bytes);
        let ser = (bytes as f64 * self.cycles_per_byte).ceil() as u64;
        let mut route = std::mem::take(&mut self.route_buf);
        self.topo.route(msg.src, msg.dst, &mut route);
        let mut cur = now;
        for &l in &route {
            let start = cur.max(self.link_free[l]);
            self.link_free[l] = start + ser;
            cur = start + ser + self.hop_cycles;
            self.link_busy[l] += ser;
            self.link_msgs[l] += 1;
            self.link_bytes[l] += bytes;
        }
        self.route_buf = route;
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        self.stats.total_latency += cur - now;
        self.stats.per_vnet[msg.vnet().idx()] += 1;
        self.vnet_latency[msg.vnet().idx()].record(cur - now);
        if self.profiler.is_enabled() {
            // Phase stamps: home requests end the request-network phase at
            // the requester's transaction (keyed by src); data replies end
            // the reply-network phase at the destination's transaction.
            match msg.kind {
                MsgKind::GetS | MsgKind::GetX | MsgKind::Upgrade => {
                    self.profiler
                        .stamp(msg.src, msg.addr, PhaseBoundary::ReqDelivered, cur);
                }
                MsgKind::DataShared | MsgKind::DataExcl { .. } | MsgKind::UpgradeAck { .. } => {
                    self.profiler
                        .stamp(msg.dst, msg.addr, PhaseBoundary::ReplyDelivered, cur);
                }
                _ => {}
            }
        }
        self.tracer
            .emit(Category::Network, now, || Event::NetInject {
                src: msg.src,
                dst: msg.dst,
                line: msg.addr,
                msg: msg.kind.trace_label(),
                vnet: msg.vnet().idx() as u8,
                deliver_at: cur,
                span: msg.span,
            });
        self.in_flight.push(Reverse(InFlight {
            at: cur,
            seq: self.seq,
            msg,
        }));
        self.seq += 1;
    }

    /// Pop the next message whose arrival time is ≤ `now`, if any.
    ///
    /// With the retry layer armed this also services physical arrivals,
    /// acks and retransmit timers, so it must be polled as the clock
    /// advances even when no delivery is expected.
    pub fn pop_arrived(&mut self, now: Cycle) -> Option<Msg> {
        if self.llp.is_some() {
            return self.pop_arrived_llp(now);
        }
        if self.in_flight.peek().is_some_and(|Reverse(f)| f.at <= now) {
            let Reverse(f) = self.in_flight.pop()?;
            self.tracer
                .emit(Category::Network, f.at, || Event::NetDeliver {
                    src: f.msg.src,
                    dst: f.msg.dst,
                    line: f.msg.addr,
                    msg: f.msg.kind.trace_label(),
                    vnet: f.msg.vnet().idx() as u8,
                    span: f.msg.span,
                });
            Some(f.msg)
        } else {
            None
        }
    }

    /// Cycle at which the next in-flight message arrives (for idle skip).
    /// With the retry layer armed this also covers physical packets and
    /// retransmit timers (0 = a delivery is already queued).
    pub fn next_arrival(&self) -> Option<Cycle> {
        if let Some(llp) = &self.llp {
            return llp.next_event();
        }
        self.in_flight.peek().map(|Reverse(f)| f.at)
    }

    /// Number of logical messages injected but not yet delivered.
    pub fn in_flight_count(&self) -> usize {
        if let Some(llp) = &self.llp {
            return llp.logical_in_flight;
        }
        self.in_flight.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Cumulative serialization-busy cycles per directed link, indexed by
    /// `LinkId` (the interval sampler reads this for its hot-link column).
    pub fn link_busy(&self) -> &[u64] {
        &self.link_busy
    }

    /// The per-directed-link utilization matrix: one row per link in
    /// link-id order with topology-derived labels, links that saw no
    /// traffic omitted.
    pub fn link_heat(&self) -> Vec<LinkHeat> {
        (0..self.link_busy.len())
            .filter(|&l| self.link_msgs[l] != 0 || self.link_retx[l] != 0)
            .map(|l| LinkHeat {
                link: l,
                label: self.topo.link_label(l),
                busy: self.link_busy[l],
                msgs: self.link_msgs[l],
                bytes: self.link_bytes[l],
                retx: self.link_retx[l],
            })
            .collect()
    }

    // --- link-level retry path (armed by `set_faults`) ------------------

    /// Inject through the retry layer: assign the channel sequence number,
    /// buffer for retransmission, and launch the first physical copy.
    fn inject_llp(&mut self, now: Cycle, msg: Msg) {
        let mut llp = self.llp.take().expect("llp armed");
        let vnet = msg.vnet().idx();
        let key: ChanKey = (msg.src.0, msg.dst.0, vnet as u8);
        let chan = llp.channels.entry(key).or_default();
        if chan.next_send_seq == 0 && chan.next_deliver == 0 {
            // Fresh channel: fix its ack return latency (acks are small
            // control packets riding Spider's reliable sideband, so they
            // pay hop and header-serialization time but never fault and
            // never contend for data bandwidth).
            let links = u64::from(self.topo.hops(msg.src, msg.dst)) + 1;
            let header_ser = (self.header_bytes as f64 * self.cycles_per_byte).ceil() as u64;
            chan.ack_lat = links * self.hop_cycles + header_ser;
        }
        let seq = chan.next_send_seq;
        chan.next_send_seq += 1;
        let arrival = self.phys_transmit(&mut llp, now, key, seq, msg, now, false);
        llp.track_unacked(key, seq, msg, now, arrival.max(now));
        llp.logical_in_flight += 1;
        self.llp = Some(llp);
        self.stats.messages += 1;
        self.stats.per_vnet[vnet] += 1;
        self.tracer
            .emit(Category::Network, now, || Event::NetInject {
                src: msg.src,
                dst: msg.dst,
                line: msg.addr,
                msg: msg.kind.trace_label(),
                vnet: vnet as u8,
                deliver_at: arrival,
                span: msg.span,
            });
    }

    /// One physical transmission of `(key, seq)`: reserve route links for
    /// bandwidth, then roll the fault dice in a fixed order (delay, drop,
    /// corrupt, duplicate). Returns the (post-delay) nominal arrival cycle.
    ///
    /// Retransmissions (`retransmit == true`) use zero-load timing (no
    /// link reservation) and roll an independent fault stream: a retry is
    /// already a rare, timeout-delayed recovery, and keeping it off the
    /// shared link calendar and the first-transmission dice means the
    /// delivery-servicing path and the injection path never race for
    /// shared network state within a lookahead window.
    #[allow(clippy::too_many_arguments)]
    fn phys_transmit(
        &mut self,
        llp: &mut Llp,
        now: Cycle,
        key: ChanKey,
        seq: u64,
        msg: Msg,
        sent_at: Cycle,
        retransmit: bool,
    ) -> Cycle {
        let bytes = msg.wire_bytes(self.header_bytes);
        let ser = (bytes as f64 * self.cycles_per_byte).ceil() as u64;
        let mut cur = now;
        if retransmit {
            let links = u64::from(self.topo.hops(msg.src, msg.dst)) + 1;
            cur += links * (ser + self.hop_cycles);
            // Zero-load timing skips the link calendar, but the packet still
            // crosses every link on the dimension-order route: attribute the
            // traversal so the utilization matrix shows where retries burn
            // bandwidth.
            let mut route = std::mem::take(&mut self.route_buf);
            self.topo.route(msg.src, msg.dst, &mut route);
            for &l in &route {
                self.link_busy[l] += ser;
                self.link_msgs[l] += 1;
                self.link_bytes[l] += bytes;
                self.link_retx[l] += 1;
            }
            self.route_buf = route;
        } else {
            let mut route = std::mem::take(&mut self.route_buf);
            self.topo.route(msg.src, msg.dst, &mut route);
            for &l in &route {
                let start = cur.max(self.link_free[l]);
                self.link_free[l] = start + ser;
                cur = start + ser + self.hop_cycles;
                self.link_busy[l] += ser;
                self.link_msgs[l] += 1;
                self.link_bytes[l] += bytes;
            }
            self.route_buf = route;
        }
        self.stats.bytes += bytes;
        let f = llp.faults;
        let vnet = key.2;
        let fault_ev = |fault: LinkFaultClass| Event::LinkFault {
            src: msg.src,
            dst: msg.dst,
            line: msg.addr,
            msg: msg.kind.trace_label(),
            vnet,
            fault,
        };
        if llp.roll(retransmit, f.delay_per_million) {
            cur += llp.roll_magnitude(retransmit, f.max_delay_cycles);
            llp.counters.link_delays += 1;
            self.tracer
                .emit(Category::Fault, now, || fault_ev(LinkFaultClass::Delay));
        }
        if llp.roll(retransmit, f.drop_per_million) {
            llp.counters.link_drops += 1;
            self.tracer
                .emit(Category::Fault, now, || fault_ev(LinkFaultClass::Drop));
        } else {
            let corrupt = llp.roll(retransmit, f.corrupt_per_million);
            if corrupt {
                llp.counters.link_crc_errors += 1;
                self.tracer
                    .emit(Category::Fault, now, || fault_ev(LinkFaultClass::Corrupt));
            }
            llp.push_phys(
                (now, !retransmit),
                cur,
                key,
                PhysBody::Data {
                    seq,
                    msg,
                    sent_at,
                    corrupt,
                },
            );
        }
        if llp.roll(retransmit, f.duplicate_per_million) {
            llp.counters.link_duplicates += 1;
            self.tracer
                .emit(Category::Fault, now, || fault_ev(LinkFaultClass::Duplicate));
            llp.push_phys(
                (now, !retransmit),
                cur + self.hop_cycles,
                key,
                PhysBody::Data {
                    seq,
                    msg,
                    sent_at,
                    corrupt: false,
                },
            );
        }
        cur
    }

    /// Service physical arrivals, acks and retransmit timers up to `now`,
    /// then pop the next in-order delivery if one is queued.
    fn pop_arrived_llp(&mut self, now: Cycle) -> Option<Msg> {
        let mut llp = self.llp.take().expect("llp armed");
        while llp.phys.peek().is_some_and(|Reverse(p)| p.at <= now) {
            let Reverse(p) = llp.phys.pop().expect("peeked");
            match p.body {
                PhysBody::Ack { cum } => llp.receive_ack(p.key, cum),
                PhysBody::Data {
                    seq,
                    msg,
                    sent_at,
                    corrupt,
                } => {
                    if corrupt {
                        // CRC check fails at the receiving port; the
                        // sender's retransmit timer recovers the packet.
                        continue;
                    }
                    let (cum, ack_lat) = llp.receive_data(p.at, p.key, seq, msg, sent_at);
                    llp.push_phys((now, false), p.at + ack_lat, p.key, PhysBody::Ack { cum });
                }
            }
        }
        for (key, seq, msg, sent_at, attempts) in llp.take_expired(now) {
            llp.counters.link_retransmits += 1;
            self.tracer
                .emit(Category::Fault, now, || Event::LinkRetransmit {
                    src: msg.src,
                    dst: msg.dst,
                    vnet: key.2,
                    seq,
                    attempt: attempts,
                    span: msg.span,
                });
            self.phys_transmit(&mut llp, now, key, seq, msg, sent_at, true);
        }
        let out = llp.ready.pop_front();
        if out.is_some() {
            llp.logical_in_flight -= 1;
        }
        self.llp = Some(llp);
        let r = out?;
        let lat = r.delivered_at.saturating_sub(r.sent_at);
        self.stats.total_latency += lat;
        self.vnet_latency[r.msg.vnet().idx()].record(lat);
        if self.profiler.is_enabled() {
            match r.msg.kind {
                MsgKind::GetS | MsgKind::GetX | MsgKind::Upgrade => {
                    self.profiler.stamp(
                        r.msg.src,
                        r.msg.addr,
                        PhaseBoundary::ReqDelivered,
                        r.delivered_at,
                    );
                }
                MsgKind::DataShared | MsgKind::DataExcl { .. } | MsgKind::UpgradeAck { .. } => {
                    self.profiler.stamp(
                        r.msg.dst,
                        r.msg.addr,
                        PhaseBoundary::ReplyDelivered,
                        r.delivered_at,
                    );
                }
                _ => {}
            }
        }
        self.tracer
            .emit(Category::Network, r.delivered_at, || Event::NetDeliver {
                src: r.msg.src,
                dst: r.msg.dst,
                line: r.msg.addr,
                msg: r.msg.kind.trace_label(),
                vnet: r.msg.vnet().idx() as u8,
                span: r.msg.span,
            });
        Some(r.msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;
    use smtp_types::{Addr, NodeId, Region};

    fn net(nodes: usize) -> Network {
        Network::new(nodes, 2.0, &NetParams::default())
    }

    fn m(kind: MsgKind, src: u16, dst: u16) -> Msg {
        Msg::new(
            kind,
            Addr::new(NodeId(dst), Region::AppData, 0x100).line(),
            NodeId(src),
            NodeId(dst),
        )
    }

    #[test]
    fn zero_load_latency_matches_envelope() {
        let mut n = net(2);
        // 16B header over 1 GB/s at 2 GHz = 32 cycles serialization per
        // link; 25 ns hop = 50 cycles. Two links (inject+eject, 1 router).
        n.inject(0, m(MsgKind::GetS, 0, 1));
        assert_eq!(n.next_arrival(), Some(2 * (32 + 50)));
        assert!(n.pop_arrived(100).is_none());
        assert!(n.pop_arrived(164).is_some());
        assert!(n.pop_arrived(10_000).is_none());
    }

    #[test]
    fn data_messages_pay_serialization() {
        let mut a = net(2);
        let mut b = net(2);
        a.inject(0, m(MsgKind::GetS, 0, 1));
        b.inject(0, m(MsgKind::DataShared, 0, 1));
        // 128-byte payload must arrive strictly later than a header-only
        // message injected at the same time.
        assert!(b.next_arrival().unwrap() > a.next_arrival().unwrap());
    }

    #[test]
    fn contention_serializes_shared_links() {
        let mut n = net(2);
        n.inject(0, m(MsgKind::DataShared, 0, 1));
        n.inject(0, m(MsgKind::DataShared, 0, 1));
        let t1 = {
            let msg1 = loop {
                if let Some(x) = n.pop_arrived(u64::MAX) {
                    break x;
                }
            };
            let _ = msg1;
            n.next_arrival().unwrap()
        };
        // Second message starts serializing only after the first clears the
        // injection link: strictly more than one serialization apart is not
        // required, but it must be later than the zero-load arrival.
        let zero_load = 2 * ((16 + 128) * 2 / 2 + 50); // loose lower bound
        assert!(t1 > zero_load as u64 / 2);
    }

    #[test]
    fn fifo_per_route() {
        let mut n = net(8);
        for _ in 0..10 {
            n.inject(0, m(MsgKind::GetS, 0, 7));
        }
        let mut last = 0;
        let mut count = 0;
        while let Some(_msg) = n.pop_arrived(u64::MAX) {
            count += 1;
            let _ = last;
            last += 1;
        }
        assert_eq!(count, 10);
        assert_eq!(n.in_flight_count(), 0);
    }

    #[test]
    fn farther_nodes_take_longer() {
        let mut n = net(16);
        n.inject(0, m(MsgKind::GetS, 0, 2)); // 1 dim away
        let near = n.next_arrival().unwrap();
        let mut n2 = net(16);
        n2.inject(0, m(MsgKind::GetS, 0, 15)); // 3 dims away
        let far = n2.next_arrival().unwrap();
        assert!(far > near);
    }

    #[test]
    fn llp_recovers_from_heavy_faults() {
        let mut n = net(4);
        let mut cfg = FaultConfig::chaos(0xBEEF);
        cfg.link.drop_per_million = 300_000;
        n.set_faults(&cfg);
        for i in 0..20u64 {
            n.inject(i * 10, m(MsgKind::GetS, 0, 1));
        }
        assert_eq!(n.in_flight_count(), 20);
        let (mut got, mut now) = (0, 0);
        while got < 20 && now < 1_000_000 {
            while n.pop_arrived(now).is_some() {
                got += 1;
            }
            now += 32;
        }
        assert_eq!(got, 20, "retry layer must deliver every message");
        assert_eq!(n.in_flight_count(), 0);
        assert_eq!(n.stats().messages, 20);
        let c = n.fault_counters();
        assert!(c.link_drops > 0, "30% drop rate must have fired");
        assert!(c.link_retransmits > 0, "drops must have forced retransmits");
    }

    #[test]
    fn faults_disabled_is_a_noop() {
        let mut a = net(2);
        let mut b = net(2);
        b.set_faults(&FaultConfig::default()); // disabled: must not arm LLP
        a.inject(0, m(MsgKind::GetS, 0, 1));
        b.inject(0, m(MsgKind::GetS, 0, 1));
        assert_eq!(a.next_arrival(), b.next_arrival());
        assert!(!b.fault_counters().any());
    }

    #[test]
    fn link_matrix_attributes_traffic() {
        let mut n = net(4);
        n.inject(0, m(MsgKind::GetS, 0, 1));
        let heat = n.link_heat();
        // Nodes 0 and 1 share router 0: inject link 0 and eject link 4+1,
        // nothing else.
        assert_eq!(heat.len(), 2);
        assert_eq!((heat[0].link, heat[0].label.as_str()), (0, "n0->r0"));
        assert_eq!((heat[1].link, heat[1].label.as_str()), (5, "r0->n1"));
        for h in &heat {
            assert_eq!(h.msgs, 1);
            assert_eq!(h.bytes, 16);
            assert_eq!(h.busy, 32); // 16B header at 1 GB/s, 2 GHz
            assert_eq!(h.retx, 0);
        }
        assert_eq!(n.link_busy().len(), n.topology().link_count());
    }

    #[test]
    fn link_matrix_attributes_retransmits() {
        let mut n = net(4);
        let mut cfg = FaultConfig::chaos(0xBEEF);
        cfg.link.drop_per_million = 300_000;
        n.set_faults(&cfg);
        for i in 0..20u64 {
            n.inject(i * 10, m(MsgKind::GetS, 0, 1));
        }
        let (mut got, mut now) = (0, 0);
        while got < 20 && now < 1_000_000 {
            while n.pop_arrived(now).is_some() {
                got += 1;
            }
            now += 32;
        }
        assert_eq!(got, 20);
        let retx_total: u64 = n.link_heat().iter().map(|h| h.retx).sum();
        // Every retransmission crosses the 2-link route exactly once.
        assert_eq!(retx_total, 2 * n.fault_counters().link_retransmits);
        assert!(retx_total > 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(4);
        n.inject(0, m(MsgKind::GetS, 0, 1));
        n.inject(0, m(MsgKind::DataExcl { acks: 0 }, 1, 0));
        assert_eq!(n.stats().messages, 2);
        assert_eq!(n.stats().per_vnet[0], 1);
        assert_eq!(n.stats().per_vnet[2], 1);
        assert_eq!(n.stats().bytes, 16 + 16 + 128);
        assert!(n.stats().mean_latency() > 0.0);
    }
}
