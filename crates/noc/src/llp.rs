//! Spider-style link-level retry: CRC-checked, sequence-numbered channels
//! with cumulative acks, timeout retransmission and exactly-once in-order
//! delivery per `(src, dst, virtual network)` channel.
//!
//! The real SGI Spider router protects every link with a CRC and a
//! sliding-window retransmission protocol; the simulator's equivalent sits
//! between [`Network::inject`](crate::Network::inject) and the virtual
//! networks. It is only constructed when link fault injection is armed —
//! with faults disabled the network's original zero-copy path runs and the
//! simulation is cycle-for-cycle identical to a build without this module.
//!
//! Mechanics:
//! * every logical message gets the next **sequence number** of its channel
//!   and is kept in the sender's retransmit buffer until cumulatively acked;
//! * each **physical transmission** (first send and every retransmit)
//!   reserves route links for bandwidth like a normal message and then rolls
//!   the seeded fault dice: delay, drop, CRC corruption, duplication;
//! * the receiver discards corrupt and duplicate copies, holds early
//!   arrivals in a reorder buffer, delivers strictly in sequence order, and
//!   returns a cumulative ack (a small control packet, modeled as reliable
//!   like Spider's sideband control symbols);
//! * unacked packets retransmit on timeout with doubling, capped backoff.

use crate::msg::Msg;
use smtp_types::{Cycle, FaultStream, FaultSummary, LinkFaults};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// A retry channel key: `(src, dst, virtual network)`.
pub(crate) type ChanKey = (u16, u16, u8);

/// A sender-side retransmit-buffer entry.
#[derive(Clone, Debug)]
pub(crate) struct Unacked {
    pub seq: u64,
    pub msg: Msg,
    /// Logical injection cycle (for end-to-end latency accounting).
    pub sent_at: Cycle,
    /// Cycle at which the retransmit timer fires next.
    pub next_retry: Cycle,
    /// Current backoff timeout.
    pub timeout: Cycle,
    /// Retransmissions so far.
    pub attempts: u32,
}

/// Payload of a physical packet.
#[derive(Clone, Debug)]
pub(crate) enum PhysBody {
    /// A (possibly corrupted) copy of a sequenced data packet.
    Data {
        seq: u64,
        msg: Msg,
        sent_at: Cycle,
        corrupt: bool,
    },
    /// A cumulative acknowledgement: every `seq < cum` is received.
    Ack { cum: u64 },
}

/// One physical packet in flight (heap-ordered by arrival cycle).
///
/// Packets arriving in the same cycle are ordered by when they were sent:
/// the sending cycle, deliveries' sends (acks, retransmissions) before
/// injections', then send order. That is the order a cycle-by-cycle loop
/// sends them in, and unlike a bare counter it does not change when a run
/// loop services an epoch's deliveries before replaying its injections.
#[derive(Clone, Debug)]
pub(crate) struct PhysPacket {
    pub at: Cycle,
    /// `(cycle sent, sent by an injection)`.
    pub sent: (Cycle, bool),
    pub pseq: u64,
    pub key: ChanKey,
    pub body: PhysBody,
}

impl PartialEq for PhysPacket {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.sent, self.pseq) == (other.at, other.sent, other.pseq)
    }
}

impl Eq for PhysPacket {}

impl Ord for PhysPacket {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.sent, self.pseq).cmp(&(other.at, other.sent, other.pseq))
    }
}

impl PartialOrd for PhysPacket {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-channel sender and receiver state.
#[derive(Clone, Debug, Default)]
pub(crate) struct Channel {
    /// Next sequence number the sender will assign.
    pub next_send_seq: u64,
    /// Sent but not yet cumulatively acked, in sequence order.
    pub unacked: VecDeque<Unacked>,
    /// Next sequence number the receiver will deliver.
    pub next_deliver: u64,
    /// Early arrivals waiting for the sequence gap to fill.
    pub reorder: BTreeMap<u64, (Msg, Cycle)>,
    /// Fixed ack return latency for this channel.
    pub ack_lat: Cycle,
}

/// A message delivered by the retry layer, waiting to be popped.
#[derive(Clone, Debug)]
pub(crate) struct Ready {
    pub msg: Msg,
    pub sent_at: Cycle,
    pub delivered_at: Cycle,
}

/// The link-level retry layer state.
#[derive(Clone, Debug)]
pub(crate) struct Llp {
    /// Seeded fault stream for first-transmission link-fault rolls.
    pub stream: FaultStream,
    /// Independent fault stream for retransmission rolls. Keeping the two
    /// paths on separate streams means the dice consumed by an injection
    /// never depend on how many retransmit timers fired before it in the
    /// same cycle window — a precondition for replaying injections and
    /// deliveries in separate batches (parallel epoch engine) while staying
    /// bit-identical to the serial interleaving.
    pub retry_stream: FaultStream,
    /// Armed fault rates.
    pub faults: LinkFaults,
    /// Channel table (BTreeMap for deterministic iteration order).
    pub channels: BTreeMap<ChanKey, Channel>,
    /// Physical packets in flight.
    pub phys: BinaryHeap<Reverse<PhysPacket>>,
    /// Physical packet tie-break counter.
    pub pseq: u64,
    /// In-order deliveries waiting for `pop_arrived`.
    pub ready: VecDeque<Ready>,
    /// Initial retransmit timeout.
    pub timeout0: Cycle,
    /// Backoff cap.
    pub timeout_cap: Cycle,
    /// Earliest pending retransmit timer (conservative; `u64::MAX` = none).
    pub next_timer_at: Cycle,
    /// Logical messages injected but not yet popped.
    pub logical_in_flight: usize,
    /// Injection and recovery counters (link_* fields only).
    pub counters: FaultSummary,
}

impl Llp {
    /// A fresh retry layer with the given fault streams and base timeout.
    pub fn new(
        stream: FaultStream,
        retry_stream: FaultStream,
        faults: LinkFaults,
        timeout0: Cycle,
    ) -> Llp {
        Llp {
            stream,
            retry_stream,
            faults,
            channels: BTreeMap::new(),
            phys: BinaryHeap::new(),
            pseq: 0,
            ready: VecDeque::new(),
            timeout0,
            timeout_cap: timeout0.saturating_mul(16),
            next_timer_at: Cycle::MAX,
            logical_in_flight: 0,
            counters: FaultSummary::default(),
        }
    }

    /// Roll a fault from the path-appropriate stream.
    pub fn roll(&mut self, retransmit: bool, per_million: u32) -> bool {
        if retransmit {
            self.retry_stream.fires(per_million)
        } else {
            self.stream.fires(per_million)
        }
    }

    /// Draw a fault magnitude from the path-appropriate stream.
    pub fn roll_magnitude(&mut self, retransmit: bool, max: Cycle) -> Cycle {
        if retransmit {
            self.retry_stream.magnitude(max)
        } else {
            self.stream.magnitude(max)
        }
    }

    /// Queue a physical packet sent at `sent.0` (by an injection if
    /// `sent.1`, else while servicing deliveries) and arriving at `at`.
    pub fn push_phys(&mut self, sent: (Cycle, bool), at: Cycle, key: ChanKey, body: PhysBody) {
        self.phys.push(Reverse(PhysPacket {
            at,
            sent,
            pseq: self.pseq,
            key,
            body,
        }));
        self.pseq += 1;
    }

    /// Process an arriving data copy: discard duplicates, buffer early
    /// arrivals, drain in-sequence messages into `ready`. Returns the
    /// cumulative ack to send back and the channel's ack latency.
    pub fn receive_data(
        &mut self,
        at: Cycle,
        key: ChanKey,
        seq: u64,
        msg: Msg,
        sent_at: Cycle,
    ) -> (u64, Cycle) {
        let chan = self.channels.entry(key).or_default();
        if seq >= chan.next_deliver {
            chan.reorder.entry(seq).or_insert((msg, sent_at));
            while let Some((m, s)) = chan.reorder.remove(&chan.next_deliver) {
                self.ready.push_back(Ready {
                    msg: m,
                    sent_at: s,
                    delivered_at: at,
                });
                chan.next_deliver += 1;
            }
        }
        (chan.next_deliver, chan.ack_lat)
    }

    /// Process a cumulative ack: drop every retransmit-buffer entry below
    /// `cum`.
    pub fn receive_ack(&mut self, key: ChanKey, cum: u64) {
        if let Some(chan) = self.channels.get_mut(&key) {
            while chan.unacked.front().is_some_and(|u| u.seq < cum) {
                chan.unacked.pop_front();
            }
        }
    }

    /// Collect every retransmit-buffer entry whose timer expired, advancing
    /// its backoff, and refresh the earliest-timer cache. Returns an empty
    /// vector (no allocation) when no timer was due.
    pub fn take_expired(&mut self, now: Cycle) -> Vec<(ChanKey, u64, Msg, Cycle, u32)> {
        let mut expired = Vec::new();
        if now < self.next_timer_at {
            return expired;
        }
        let mut min_next = Cycle::MAX;
        for (key, chan) in self.channels.iter_mut() {
            for u in chan.unacked.iter_mut() {
                if u.next_retry <= now {
                    u.attempts += 1;
                    u.timeout = (u.timeout * 2).min(self.timeout_cap);
                    u.next_retry = now + u.timeout;
                    expired.push((*key, u.seq, u.msg, u.sent_at, u.attempts));
                }
                min_next = min_next.min(u.next_retry);
            }
        }
        self.next_timer_at = min_next;
        expired
    }

    /// Register a fresh retransmit-buffer entry.
    pub fn track_unacked(
        &mut self,
        key: ChanKey,
        seq: u64,
        msg: Msg,
        sent_at: Cycle,
        after: Cycle,
    ) {
        let timeout = self.timeout0;
        let next_retry = after + timeout;
        self.next_timer_at = self.next_timer_at.min(next_retry);
        self.channels
            .entry(key)
            .or_default()
            .unacked
            .push_back(Unacked {
                seq,
                msg,
                sent_at,
                next_retry,
                timeout,
                attempts: 0,
            });
    }

    /// Earliest cycle at which anything can happen: a queued delivery (0 =
    /// already due), a physical arrival, or a retransmit timer.
    pub fn next_event(&self) -> Option<Cycle> {
        if !self.ready.is_empty() {
            return Some(0);
        }
        let phys = self.phys.peek().map(|Reverse(p)| p.at);
        let timer = (self.next_timer_at != Cycle::MAX).then_some(self.next_timer_at);
        match (phys, timer) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;
    use smtp_types::{Addr, FaultConfig, NodeId, Region};

    fn llp() -> Llp {
        let cfg = FaultConfig::chaos(1);
        Llp::new(
            cfg.stream(smtp_types::faults::SITE_LINK),
            cfg.stream(smtp_types::faults::SITE_LINK_RETRY),
            LinkFaults::default(),
            100,
        )
    }

    fn msg() -> Msg {
        Msg::new(
            MsgKind::GetS,
            Addr::new(NodeId(1), Region::AppData, 0x100).line(),
            NodeId(0),
            NodeId(1),
        )
    }

    const KEY: ChanKey = (0, 1, 0);

    #[test]
    fn in_order_arrivals_deliver_immediately() {
        let mut l = llp();
        let (cum, _) = l.receive_data(10, KEY, 0, msg(), 0);
        assert_eq!(cum, 1);
        assert_eq!(l.ready.len(), 1);
        let (cum, _) = l.receive_data(20, KEY, 1, msg(), 5);
        assert_eq!(cum, 2);
        assert_eq!(l.ready.len(), 2);
        assert_eq!(l.ready[1].delivered_at, 20);
        assert_eq!(l.ready[1].sent_at, 5);
    }

    #[test]
    fn out_of_order_arrivals_are_reordered() {
        let mut l = llp();
        let (cum, _) = l.receive_data(10, KEY, 1, msg(), 0);
        assert_eq!(cum, 0); // gap at seq 0
        assert!(l.ready.is_empty());
        let (cum, _) = l.receive_data(30, KEY, 0, msg(), 0);
        assert_eq!(cum, 2); // gap filled; both drain
        assert_eq!(l.ready.len(), 2);
        // Both delivered at the gap-filling arrival.
        assert_eq!(l.ready[0].delivered_at, 30);
        assert_eq!(l.ready[1].delivered_at, 30);
    }

    #[test]
    fn duplicates_are_discarded_but_reacked() {
        let mut l = llp();
        l.receive_data(10, KEY, 0, msg(), 0);
        let (cum, _) = l.receive_data(15, KEY, 0, msg(), 0);
        assert_eq!(cum, 1); // re-ack, no second delivery
        assert_eq!(l.ready.len(), 1);
        // Duplicate of a still-buffered early arrival is also dropped.
        l.receive_data(20, KEY, 2, msg(), 0);
        l.receive_data(21, KEY, 2, msg(), 0);
        assert_eq!(l.channels[&KEY].reorder.len(), 1);
    }

    #[test]
    fn cumulative_ack_clears_retransmit_buffer() {
        let mut l = llp();
        for seq in 0..4 {
            l.track_unacked(KEY, seq, msg(), 0, 0);
        }
        l.receive_ack(KEY, 3);
        assert_eq!(l.channels[&KEY].unacked.len(), 1);
        assert_eq!(l.channels[&KEY].unacked[0].seq, 3);
        l.receive_ack(KEY, 4);
        assert!(l.channels[&KEY].unacked.is_empty());
    }

    #[test]
    fn timers_expire_with_doubling_backoff() {
        let mut l = llp();
        l.track_unacked(KEY, 0, msg(), 0, 0); // timer at 100
        assert!(l.take_expired(50).is_empty());
        let e = l.take_expired(100);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].4, 1); // first retransmit attempt
        let chan = &l.channels[&KEY];
        assert_eq!(chan.unacked[0].timeout, 200); // doubled
        assert_eq!(chan.unacked[0].next_retry, 300);
        assert_eq!(l.next_timer_at, 300);
        // Backoff caps at 16x.
        let mut t = 300;
        for _ in 0..10 {
            let e = l.take_expired(t);
            assert_eq!(e.len(), 1);
            t = l.channels[&KEY].unacked[0].next_retry;
        }
        assert_eq!(l.channels[&KEY].unacked[0].timeout, 1600);
    }

    #[test]
    fn next_event_tracks_phys_and_timers() {
        let mut l = llp();
        assert_eq!(l.next_event(), None);
        l.track_unacked(KEY, 0, msg(), 0, 0);
        assert_eq!(l.next_event(), Some(100));
        l.push_phys(
            (0, true),
            40,
            KEY,
            PhysBody::Data {
                seq: 0,
                msg: msg(),
                sent_at: 0,
                corrupt: false,
            },
        );
        assert_eq!(l.next_event(), Some(40));
        l.ready.push_back(Ready {
            msg: msg(),
            sent_at: 0,
            delivered_at: 0,
        });
        assert_eq!(l.next_event(), Some(0));
    }
}
