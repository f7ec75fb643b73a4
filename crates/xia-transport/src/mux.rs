//! Connection multiplexer: demultiplexes segments, routes timers back to
//! the connection that armed them, and provides the host-facing transport
//! API.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

use simnet::SimDuration;
use util::bytes::Bytes;
use xia_addr::{Dag, ProbeTable, Xid};
use xia_wire::{ConnId, SegFlags, Segment, XiaPacket, L4};

use crate::config::TransportConfig;
use crate::conn::{ConnState, ConnStats, Connection, TransportEnv, RECEIVE_WINDOW};

/// Errors returned by the mux's host-facing API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The connection id is unknown (never existed or already reaped).
    UnknownConnection,
    /// The operation is invalid in the connection's current state.
    InvalidState,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            TransportError::UnknownConnection => "unknown connection",
            TransportError::InvalidState => "operation invalid in current connection state",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TransportError {}

/// A live connection of a [`TransportMux`], as [`TransportMux::owner`]
/// found it: the connection's uid. Uids are never reused, so an `Owner`
/// kept past the reaping of its connection delivers nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Owner(u64);

/// The host-side transport endpoint: a set of connections sharing one
/// local identity.
///
/// All methods take a [`TransportEnv`] through which the mux reads the
/// clock, emits packets, arms timers and delivers [`crate::TransportEvent`]s.
pub struct TransportMux {
    config: TransportConfig,
    local_hid: Xid,
    next_port: u64,
    next_uid: u64,
    /// Live connections by uid; `migrate_all` walks them in uid order.
    conns: BTreeMap<u64, Connection>,
    /// The uid of each live connection, one probe from its [`ConnId`].
    by_id: ProbeTable<ConnId, u64>,
    /// TIME_WAIT-style memory of recently closed connections so a lost
    /// final ACK does not strand the peer: maps the connection to the final
    /// ack value and the local source address for the replayed ACK.
    time_wait: VecDeque<(ConnId, u64, Dag)>,
}

impl TransportMux {
    /// Maximum remembered recently-closed connections.
    const TIME_WAIT_CAP: usize = 256;

    /// Creates a mux for a host identified by `local_hid`.
    pub fn new(config: TransportConfig, local_hid: Xid) -> Self {
        TransportMux {
            config,
            local_hid,
            next_port: 1,
            next_uid: 1,
            conns: BTreeMap::new(),
            by_id: ProbeTable::new(),
            time_wait: VecDeque::new(),
        }
    }

    /// Drops every connection and all transient transport state without
    /// notifying peers — the fault-injection "crash". Peers discover the
    /// loss through retransmission timeouts, exactly as after a real
    /// process crash.
    pub fn reset(&mut self) {
        self.conns.clear();
        self.by_id.clear();
        self.time_wait.clear();
    }

    /// Number of live connections.
    pub fn active_connections(&self) -> usize {
        self.conns.len()
    }

    /// Opens a connection to `dst`, sourcing packets from `src`.
    /// Completion is signalled by [`crate::TransportEvent::Connected`].
    pub fn connect(&mut self, env: &mut dyn TransportEnv, dst: Dag, src: Dag) -> ConnId {
        let id = ConnId {
            initiator: self.local_hid,
            port: self.next_port,
        };
        self.next_port += 1;
        let uid = self.next_uid;
        self.next_uid += 1;
        let mut conn = Connection::new(uid, id, dst, src, self.config.clone(), true);
        conn.start(env);
        self.conns.insert(uid, conn);
        self.by_id.insert(id, uid);
        id
    }

    /// Queues `data` on `conn`.
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown or already closing.
    pub fn send(
        &mut self,
        env: &mut dyn TransportEnv,
        conn: ConnId,
        data: Bytes,
    ) -> Result<(), TransportError> {
        let uid = *self
            .by_id
            .get(&conn)
            .ok_or(TransportError::UnknownConnection)?;
        let c = self
            .conns
            .get_mut(&uid)
            .ok_or(TransportError::UnknownConnection)?;
        if c.finished() {
            return Err(TransportError::InvalidState);
        }
        c.send(env, data);
        Ok(())
    }

    /// Closes the send direction of `conn` after queued data drains.
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown.
    pub fn close(
        &mut self,
        env: &mut dyn TransportEnv,
        conn: ConnId,
    ) -> Result<(), TransportError> {
        let uid = *self
            .by_id
            .get(&conn)
            .ok_or(TransportError::UnknownConnection)?;
        let c = self
            .conns
            .get_mut(&uid)
            .ok_or(TransportError::UnknownConnection)?;
        c.close(env);
        self.reap(uid);
        Ok(())
    }

    /// Aborts `conn` with a RST. Unknown connections are ignored.
    pub fn abort(&mut self, env: &mut dyn TransportEnv, conn: ConnId) {
        if let Some(&uid) = self.by_id.get(&conn) {
            if let Some(c) = self.conns.get_mut(&uid) {
                c.abort(env);
            }
            self.reap(uid);
        }
    }

    /// Migrates every live connection to a new local source address after
    /// an `pause`-long active-session-migration outage (layer-3 handoff).
    pub fn migrate_all(&mut self, env: &mut dyn TransportEnv, new_src: Dag, pause: SimDuration) {
        for c in self.conns.values_mut() {
            c.migrate(env, new_src.clone(), pause);
        }
    }

    /// Live connection count in migrating state (for tests/diagnostics).
    pub fn migrating_connections(&self) -> usize {
        self.conns
            .values()
            .filter(|c| c.state == ConnState::Migrating)
            .count()
    }

    /// Per-connection statistics, if the connection is still live.
    pub fn stats(&self, conn: ConnId) -> Option<ConnStats> {
        let uid = self.by_id.get(&conn)?;
        Some(self.conns.get(uid)?.stats())
    }

    /// The live connection `pkt` is a segment of, if any: one probe of
    /// `by_id`, judged by reference, so a packet this mux does not own is
    /// never moved.
    pub fn owner(&self, pkt: &XiaPacket) -> Option<Owner> {
        match &pkt.l4 {
            L4::Segment(seg) => self.by_id.get(&seg.conn).copied().map(Owner),
            _ => None,
        }
    }

    /// Feeds `pkt` to `owner`, the connection [`TransportMux::owner`]
    /// found it is a segment of, and reaps that connection if the segment
    /// finished it.
    pub fn deliver_known(&mut self, env: &mut dyn TransportEnv, owner: Owner, pkt: XiaPacket) {
        let XiaPacket {
            src,
            l4: L4::Segment(seg),
            ..
        } = pkt
        else {
            return;
        };
        if let Entry::Occupied(mut c) = self.conns.entry(owner.0) {
            c.get_mut().on_segment(env, seg, &src);
            if c.get().finished() {
                let c = c.remove();
                self.retire(c);
            }
        }
    }

    /// Handles a transport packet addressed to this host.
    ///
    /// SYNs for unknown connections create responder connections and raise
    /// [`crate::TransportEvent::Incoming`]; `local_src` is the address the
    /// new connection answers from (e.g. this host's `NID : HID`, or a
    /// router cache's own address when intercepting a CID request).
    pub fn on_packet(&mut self, env: &mut dyn TransportEnv, pkt: XiaPacket, local_src: Dag) {
        if let Some(owner) = self.owner(&pkt) {
            return self.deliver_known(env, owner, pkt);
        }
        let L4::Segment(seg) = pkt.l4 else {
            return;
        };
        // TIME_WAIT replay: a retransmitted FIN for a reaped connection
        // means our final ACK was lost; replay it.
        if seg.flags.fin {
            if let Some((_, final_ack, src)) =
                self.time_wait.iter().find(|(id, _, _)| *id == seg.conn)
            {
                let ack = Segment {
                    conn: seg.conn,
                    seq: 0,
                    ack: *final_ack,
                    flags: SegFlags::ACK,
                    window: RECEIVE_WINDOW,
                    payload: Bytes::new(),
                };
                env.emit(XiaPacket::new(pkt.src, src.clone(), L4::Segment(ack)));
                return;
            }
        }
        if seg.flags.syn && !seg.flags.ack {
            // New inbound connection.
            let uid = self.next_uid;
            self.next_uid += 1;
            let mut conn = Connection::new(
                uid,
                seg.conn,
                pkt.src.clone(),
                local_src,
                self.config.clone(),
                false,
            );
            conn.on_syn(env);
            self.by_id.insert(seg.conn, uid);
            self.conns.insert(uid, conn);
            env.deliver(crate::TransportEvent::Incoming {
                conn: seg.conn,
                requested: pkt.dst,
                peer: pkt.src,
            });
            return;
        }
        if !seg.flags.rst {
            // Unknown connection: reset the peer so it fails fast instead
            // of retransmitting into the void.
            let rst = Segment {
                conn: seg.conn,
                seq: seg.ack,
                ack: 0,
                flags: SegFlags::RST,
                window: 0,
                payload: Bytes::new(),
            };
            env.emit(XiaPacket::new(pkt.src, local_src, L4::Segment(rst)));
        }
    }

    /// Routes a timer this mux armed back to the owning connection, if it
    /// is still live. The key is the connection's slot (its uid), so bit
    /// 63 of every key the mux arms is clear.
    pub fn on_timer(&mut self, env: &mut dyn TransportEnv, timer_key: u64) {
        if let Entry::Occupied(mut c) = self.conns.entry(timer_key) {
            c.get_mut().on_timer(env);
            if c.get().finished() {
                let c = c.remove();
                self.retire(c);
            }
        }
    }

    /// Removes `uid` if its connection has finished.
    fn reap(&mut self, uid: u64) {
        if let Entry::Occupied(c) = self.conns.entry(uid) {
            if c.get().finished() {
                let c = c.remove();
                self.retire(c);
            }
        }
    }

    /// Forgets a finished connection, keeping a closed one's final ACK
    /// for TIME_WAIT replay.
    fn retire(&mut self, c: Connection) {
        self.by_id.remove(&c.id);
        if c.state == ConnState::Closed {
            if self.time_wait.len() >= Self::TIME_WAIT_CAP {
                self.time_wait.pop_front();
            }
            self.time_wait
                .push_back((c.id, c.final_ack(), c.src_dag.clone()));
        }
    }
}

impl std::fmt::Debug for TransportMux {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportMux")
            .field("local_hid", &self.local_hid)
            .field("connections", &self.conns.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;
    use util::check::{check, Gen};
    use xia_addr::Principal;

    const A: usize = 0;
    const B: usize = 1;

    /// Collects what one mux emits, arms and delivers.
    #[derive(Default)]
    struct Env {
        now: SimTime,
        out: Vec<XiaPacket>,
        timers: Vec<(SimTime, u64)>,
        events: Vec<crate::TransportEvent>,
    }

    impl TransportEnv for Env {
        fn now(&self) -> SimTime {
            self.now
        }
        fn emit(&mut self, pkt: XiaPacket) {
            self.out.push(pkt);
        }
        fn set_timer(&mut self, delay: SimDuration, key: u64) {
            self.timers.push((self.now + delay, key));
        }
        fn deliver(&mut self, event: crate::TransportEvent) {
            self.events.push(event);
        }
    }

    /// Two muxes and the packets in flight between them.
    struct Pair {
        mux: [TransportMux; 2],
        env: [Env; 2],
        addr: [Dag; 2],
        /// The latest clock reading a segment was delivered at.
        last_delivery: SimTime,
    }

    impl Pair {
        /// Two muxes on `preset`, which give up after two RTOs, so random
        /// timer firings reach time-outs.
        fn new(preset: TransportConfig) -> Self {
            let nid = Xid::new_random(Principal::Nid, 1);
            let hids = [100, 200].map(|s| Xid::new_random(Principal::Hid, s));
            let config = TransportConfig {
                max_consecutive_rtos: 2,
                ..preset
            };
            Pair {
                mux: hids.map(|hid| TransportMux::new(config.clone(), hid)),
                env: [Env::default(), Env::default()],
                addr: hids.map(|hid| Dag::host(nid, hid)),
                last_delivery: SimTime::ZERO,
            }
        }

        fn connect(&mut self, from: usize) -> ConnId {
            let (dst, src) = (self.addr[1 - from].clone(), self.addr[from].clone());
            let id = self.mux[from].connect(&mut self.env[from], dst, src);
            self.assert_reaped(from);
            id
        }

        fn deliver(&mut self, to: usize, pkt: XiaPacket) {
            let local = self.addr[to].clone();
            self.last_delivery = self.last_delivery.max(self.env[to].now);
            self.mux[to].on_packet(&mut self.env[to], pkt, local);
            self.assert_reaped(to);
        }

        /// Delivers everything in flight, both ways, until nothing moves.
        fn settle(&mut self) {
            while self.env.iter().any(|e| !e.out.is_empty()) {
                for from in [A, B] {
                    for pkt in std::mem::take(&mut self.env[from].out) {
                        self.deliver(1 - from, pkt);
                    }
                }
            }
        }

        /// The invariant that replaced the per-packet scan: whatever a
        /// public call finished, it also reaped.
        fn assert_reaped(&self, side: usize) {
            let mux = &self.mux[side];
            assert!(
                mux.conns.values().all(|c| !c.finished()),
                "a finished connection outlived the call that finished it"
            );
            // Each connection is found under its own id, and the tables
            // hold equally many, so `by_id` names no other connection.
            assert_eq!(mux.by_id.len(), mux.conns.len());
            for (uid, c) in &mux.conns {
                assert_eq!(mux.by_id.get(&c.id), Some(uid), "{:?} is lost", c.id);
            }
        }
    }

    fn segment(pkt: &XiaPacket) -> &Segment {
        match &pkt.l4 {
            L4::Segment(seg) => seg,
            other => panic!("not a segment: {other:?}"),
        }
    }

    #[test]
    fn completing_segment_reaps_exactly_its_connection() {
        let mut p = Pair::new(TransportConfig::linux_tcp());
        let idle: Vec<ConnId> = (0..64).map(|_| p.connect(A)).collect();
        let conn = p.connect(A);
        p.settle();
        assert_eq!(p.mux[A].active_connections(), 65);
        assert_eq!(p.mux[B].active_connections(), 65);

        // A sends its request and closes; B answers by closing too.
        p.mux[A]
            .send(&mut p.env[A], conn, Bytes::from_static(b"GET"))
            .expect("send queues");
        p.mux[A].close(&mut p.env[A], conn).expect("close queues");
        p.settle();
        p.mux[B].close(&mut p.env[B], conn).expect("close queues");
        let fin = p.env[B].out.pop().expect("B's FIN");
        assert!(segment(&fin).flags.fin && p.env[B].out.is_empty());

        // B's FIN completes the connection at A: exactly that one goes.
        p.deliver(A, fin.clone());
        assert_eq!(p.mux[A].active_connections(), 64);
        assert!(p.mux[A].by_id.get(&conn).is_none());
        assert!(idle.iter().all(|id| p.mux[A].by_id.get(id).is_some()));
        assert!(p.env[A]
            .events
            .iter()
            .any(|e| matches!(e, crate::TransportEvent::Closed { conn: c } if *c == conn)));

        // A's final ACK is lost and B retransmits its FIN: A no longer
        // knows the connection and answers from TIME_WAIT, not with a RST.
        let final_ack = segment(&p.env[A].out.pop().expect("A's final ACK")).ack;
        p.deliver(A, fin);
        let replay = p.env[A].out.pop().expect("TIME_WAIT replay");
        let seg = segment(&replay);
        assert!(seg.flags.ack && !seg.flags.rst);
        assert_eq!((seg.conn, seg.ack), (conn, final_ack));
        assert_eq!(replay.src, p.addr[A]);

        // The replayed ACK completes B's side: again exactly one goes.
        p.deliver(B, replay);
        assert_eq!(p.mux[B].active_connections(), 64);
        assert!(idle.iter().all(|id| p.mux[B].by_id.get(id).is_some()));
    }

    /// A connection in slot 2²⁴ hears its own timers, not slot 0's: its
    /// lost SYN goes out again when the RTO fires.
    #[test]
    fn a_lost_syn_is_resent_from_a_slot_past_two_to_the_24() {
        let mut p = Pair::new(TransportConfig::linux_tcp());
        p.mux[A].next_uid = 1 << 24;
        let conn = p.connect(A);
        p.env[A].out.clear();
        let mut timers = std::mem::take(&mut p.env[A].timers);
        timers.sort();
        for (at, key) in timers {
            p.env[A].now = at;
            p.mux[A].on_timer(&mut p.env[A], key);
        }
        let syn = segment(p.env[A].out.first().expect("the SYN is resent"));
        assert!(syn.flags.syn && syn.conn == conn);
    }

    /// Random API calls, deliveries (in any order, with loss and
    /// duplication), timer firings and migrations on two muxes, then the
    /// liveness oracle.
    fn random_walk(g: &mut Gen) {
        // The XIA preset paces its segments, so it also sends from wakes.
        let mut p = Pair::new(if g.bool() {
            TransportConfig::xia()
        } else {
            TransportConfig::linux_tcp()
        });
        let mut conns: Vec<ConnId> = Vec::new();
        // Sending after closing is the caller's bug, so the walk does not.
        let mut closed: Vec<(usize, ConnId)> = Vec::new();
        for _ in 0..g.usize_in(1, 120) {
            let side = g.usize_in(A, B);
            let pick = |g: &mut Gen, conns: &[ConnId]| {
                (!conns.is_empty()).then(|| conns[g.usize_in(0, conns.len() - 1)])
            };
            match g.usize_in(0, 10) {
                0 => conns.push(p.connect(side)),
                1 => {
                    if let Some(conn) = pick(g, &conns).filter(|c| !closed.contains(&(side, *c))) {
                        let data = Bytes::from(vec![7u8; g.usize_in(1, 4000)]);
                        let _ = p.mux[side].send(&mut p.env[side], conn, data);
                    }
                }
                2 => {
                    if let Some(conn) = pick(g, &conns) {
                        let _ = p.mux[side].close(&mut p.env[side], conn);
                        closed.push((side, conn));
                    }
                }
                3 => {
                    if let Some(conn) = pick(g, &conns) {
                        p.mux[side].abort(&mut p.env[side], conn);
                    }
                }
                4 => {
                    // Fire this side's earliest timer, if it has one.
                    let timers = &mut p.env[side].timers;
                    if let Some(i) = (0..timers.len()).min_by_key(|&i| timers[i]) {
                        let (at, key) = timers.swap_remove(i);
                        p.env[side].now = p.env[side].now.max(at);
                        p.mux[side].on_timer(&mut p.env[side], key);
                    }
                }
                10 => {
                    let pause = SimDuration::from_micros(g.u64_in(0, 2_000_000));
                    let src = p.addr[side].clone();
                    p.mux[side].migrate_all(&mut p.env[side], src, pause);
                }
                // Deliver, duplicate or lose a packet this side emitted.
                roll => {
                    let out = &mut p.env[side].out;
                    if !out.is_empty() {
                        let pkt = out.remove(g.usize_in(0, out.len() - 1));
                        if roll == 5 {
                            p.deliver(1 - side, pkt.clone());
                        }
                        if roll != 6 {
                            p.deliver(1 - side, pkt);
                        }
                    }
                }
            }
            p.assert_reaped(side);
        }
        // Whatever state the walk left, quiescing it keeps the invariant.
        p.settle();
        assert_live(p);
    }

    /// The liveness oracle: on one clock, a quiet network and the timers
    /// end every connection within the idle limit of the last segment
    /// delivered (or of the walk's end), and then no timer is left.
    fn assert_live(mut p: Pair) {
        // 3 × `MAX_RTO` at the walk's `max_consecutive_rtos: 2`.
        let idle_limit = SimDuration::from_secs(30);
        let mut now = p.env[A].now.max(p.env[B].now);
        p.last_delivery = now;
        let mut last_firing = now;
        for _ in 0..100_000 {
            let earliest = [A, B]
                .into_iter()
                .filter_map(|side| {
                    let timers = &p.env[side].timers;
                    let i = (0..timers.len()).min_by_key(|&i| timers[i])?;
                    Some((timers[i].0, side, i))
                })
                .min();
            let Some((at, side, i)) = earliest else {
                break;
            };
            let (_, key) = p.env[side].timers.swap_remove(i);
            now = now.max(at);
            last_firing = now;
            for env in &mut p.env {
                env.now = now;
            }
            p.mux[side].on_timer(&mut p.env[side], key);
            p.assert_reaped(side);
            p.settle();
        }
        for side in [A, B] {
            assert_eq!(
                p.mux[side].active_connections(),
                0,
                "a connection outlived its timers"
            );
            assert!(p.env[side].timers.is_empty(), "the timers never ran out");
            assert_one_end_per_incarnation(&p.env[side].events);
        }
        assert!(
            last_firing <= p.last_delivery + idle_limit,
            "a timer fired at {last_firing}, past the idle limit after {}",
            p.last_delivery,
        );
    }

    /// A side reports at most one `Closed` or `Failed` per incarnation of a
    /// connection, and nothing after it. An `Incoming` opens a new
    /// incarnation: the peer may resend its SYN after this side gave up.
    fn assert_one_end_per_incarnation(events: &[crate::TransportEvent]) {
        use crate::TransportEvent::*;
        let mut ended = std::collections::BTreeSet::new();
        for event in events {
            match event {
                Incoming { conn, .. } => {
                    ended.remove(conn);
                }
                Connected { conn, .. } | Data { conn, .. } | PeerClosed { conn } => {
                    assert!(!ended.contains(conn), "{event:?} after the end");
                }
                Closed { conn } | Failed { conn, .. } => {
                    assert!(ended.insert(*conn), "{event:?} ends {conn:?} again");
                }
            }
        }
    }

    #[test]
    fn no_finished_connection_survives_a_public_call() {
        check("mux_reaps_what_it_finishes", 256, random_walk);
    }
}
