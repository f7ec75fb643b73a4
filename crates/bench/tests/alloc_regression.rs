//! Allocation regression guard for the simulator hot path.
//!
//! The simulator's pooling claim is that a steady-state link
//! transmit/deliver cycle performs **zero** heap operations per event:
//! the wheel parks its drained buckets for the next slot that fills, and
//! the simulator's payload slab reuses freed cells. The
//! claim covers the per-event paths the bare ping-pong does not drive
//! too — the flight recorder with its streaming audit and a consumer
//! that writes each record's JSON line as it comes, and timer filing —
//! and two host stacks above the simulator: the receive path (two
//! `EndHost`s moving a chunk) and an edge beaconing on its radio links.
//! These tests install the counting global allocator from
//! [`softstage_bench::alloc_counter`] and assert that claim exactly, so
//! any future change that sneaks an allocation back into the inner loop
//! fails loudly instead of showing up as a quiet throughput regression.

use std::cell::Cell;
use std::io::{self, Write as _};
use std::rc::Rc;

use simnet::{
    Context, LinkConfig, LinkId, Message, Node, SimDuration, SimTime, Simulator, TimerKey,
    WheelQueue,
};
use softstage_apps::{build_origin, SeqFetcher};
use softstage_bench::alloc_counter::{snapshot, CountingAlloc};
use vehicular::BeaconApp;
use xia_addr::{Principal, Xid};
use xia_host::{EndHost, Host, HostConfig};
use xia_wire::{XiaPacket, MSS};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Clone, Debug)]
struct Ball;
impl Message for Ball {
    fn wire_size(&self) -> usize {
        1200
    }
}

/// Returns the ball on every receipt — one dispatch per hop, forever.
struct Paddle {
    kick: bool,
    link: Option<LinkId>,
}
impl Node<Ball> for Paddle {
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        if self.kick {
            if let Some(l) = self.link {
                ctx.send(l, Ball);
            }
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, Ball>, link: LinkId, msg: Ball) {
        ctx.send(link, msg);
    }
}

/// Re-arms one periodic timer forever — one timer filing per tick.
struct Ticker;
impl Ticker {
    const PERIOD: SimDuration = SimDuration::from_micros(100);
}
impl Node<Ball> for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        ctx.set_timer(Self::PERIOD, 0);
    }
    fn on_packet(&mut self, _ctx: &mut Context<'_, Ball>, _link: LinkId, _msg: Ball) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, Ball>, key: TimerKey) {
        ctx.set_timer(Self::PERIOD, key);
    }
}

fn pingpong() -> Simulator<Ball> {
    let mut sim = Simulator::new(7);
    let a = sim.add_node(Box::new(Paddle {
        kick: true,
        link: None,
    }));
    let b = sim.add_node(Box::new(Paddle {
        kick: false,
        link: None,
    }));
    let l = sim.add_link(
        a,
        b,
        LinkConfig::wired(100_000_000, SimDuration::from_micros(50)),
    );
    if let Some(p) = sim.node_mut::<Paddle>(a) {
        p.link = Some(l);
    }
    if let Some(p) = sim.node_mut::<Paddle>(b) {
        p.link = Some(l);
    }
    sim
}

/// Warms `sim` up for 10k events, then asserts the next 50k perform no
/// heap operation at all.
fn assert_steady_state_allocates_nothing(sim: &mut Simulator<Ball>, what: &str) {
    sim.run_while(SimTime::MAX, |s| s.stats().events >= 10_000);
    let before = snapshot();
    let target = sim.stats().events + 50_000;
    sim.run_while(SimTime::MAX, |s| s.stats().events >= target);
    let delta = snapshot().since(before);
    assert_eq!(
        delta.heap_ops(),
        0,
        "steady-state {what} touched the heap \
         ({} allocs, {} reallocs over 50k events)",
        delta.allocs,
        delta.reallocs,
    );
}

/// The headline guarantee: after warmup, the transmit/deliver cycle runs
/// allocation-free (the wheel reuses the buckets it parks).
#[test]
fn steady_state_transmit_cycle_allocates_nothing() {
    assert_steady_state_allocates_nothing(&mut pingpong(), "transmit cycle");
}

/// The same guarantee with the flight recorder attached and a periodic
/// timer re-arming: every event passes through `TraceAudit::observe` and
/// on to the recorder's consumer, which writes the record's JSON line
/// into one reused buffer and then into `io::sink()` (the dump path,
/// during the run), and every tick files a timer through
/// `WheelQueue::push`.
#[test]
fn steady_state_traced_cycle_with_timers_allocates_nothing() {
    let mut sim = pingpong();
    sim.add_node(Box::new(Ticker));
    let written = Rc::new(Cell::new(0u64));
    let count = Rc::clone(&written);
    let (mut line, mut out) = (String::new(), io::sink());
    sim.enable_trace(move |r| {
        line.clear();
        r.write_line(&mut line);
        out.write_all(line.as_bytes())
            .expect("io::sink takes every byte");
        count.set(count.get() + 1);
    });
    sim.run_while(SimTime::MAX, |s| s.stats().events >= 10_000);
    assert!(sim.stats().timers > 1_000, "the ticker must be ticking");
    let before = written.get();
    assert_steady_state_allocates_nothing(&mut sim, "traced transmit/timer cycle");
    assert!(
        written.get() - before > 50_000,
        "every record must reach the consumer"
    );
}

/// A warm wheel hands a drained bucket to the next slot that fills: one
/// event at a time, 1,000 times over, touches the heap not once.
#[test]
fn a_warm_wheel_serves_buckets_without_fresh_allocations() {
    let mut q: WheelQueue<u64> = WheelQueue::new();
    q.push(SimTime::ZERO, 0);
    q.pop();
    let before = snapshot();
    for round in 1..=1_000u64 {
        q.push(SimTime::from_micros(round), round);
        assert_eq!(q.pop(), Some((SimTime::from_micros(round), round)));
    }
    let delta = snapshot().since(before);
    assert_eq!(delta.heap_ops(), 0, "a warm wheel must not allocate");
}

/// Timer churn — 4,096 timers pending, each pop followed by a push up to
/// 10 ms out, 65,536 times — reuses parked buckets: at most one heap
/// operation per 64 pushes, where a wheel that dropped each drained
/// bucket makes about 50 k.
#[test]
fn wheel_buckets_recycle_instead_of_allocating() {
    const PUSHES: u64 = 65_536;
    let mut q: WheelQueue<u64> = WheelQueue::new();
    let mut now = 0u64;
    let mut lcg = 1u64;
    let mut push = |q: &mut WheelQueue<u64>, now: u64, seq: u64| {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        q.push(SimTime::from_micros(now + (lcg >> 33) % 10_000), seq);
    };
    for seq in 0..4_096 {
        push(&mut q, now, seq);
    }
    let before = snapshot();
    for seq in 4_096..4_096 + PUSHES {
        if let Some((at, _)) = q.pop() {
            now = at.as_micros();
        }
        push(&mut q, now, seq);
    }
    let delta = snapshot().since(before);
    assert!(
        delta.heap_ops() * 64 <= PUSHES,
        "{PUSHES} pushes of timer churn touched the heap {} times ({} allocs, {} reallocs)",
        delta.heap_ops(),
        delta.allocs,
        delta.reallocs,
    );
}

/// The host stack's receive path: a client `EndHost` fetching one 4 MB
/// chunk from an origin `EndHost` over one link. Per data segment the
/// origin's mux dispatches an ACK and pumps the next segment; the client's
/// mux delivers the payload to its fetcher and emits the ACK. None of that
/// may allocate: the host's locator `Dag` is kept, not rebuilt per segment
/// (5 allocations each on both hosts); the outbox swaps against the node's
/// spare instead of being given away (1 per emitting dispatch); a pure
/// ACK's empty payload is unallocated (1 per ACK).
///
/// What the window does see is the scheduler: wheel buckets that outgrow
/// the wheel's parking limit are re-grown. That is measured at 0.03 heap
/// ops per segment here and budgeted at 1/8 — under any per-segment
/// allocation in the stack, the cheapest of which costs 1/2.
///
/// Nor does the whole transfer copy the chunk: the fetcher's body is a
/// view of the origin's stored chunk, so the bytes allocated from
/// connecting to the end of the run are budgeted at a twelfth of the
/// chunk's size, which any copy of the body would overrun alone.
/// Measured: 0.27 MB, two thirds of it re-grown wheel buckets (24-byte
/// entries, up to 256 a bucket here). A connection that pushed a timer
/// on every ACK, its stale ones piling into far-future buckets, made it
/// 0.47 MB; filing whole 168-byte events in the buckets, 2.6 MB; a body
/// buffer that grows by doubling, 14 MB.
#[test]
fn steady_state_chunk_receive_path_allocates_nothing_per_segment() {
    const CHUNK: usize = 4 << 20;
    const WINDOW: u64 = 800;
    let nid = Xid::new_random(Principal::Nid, 1);
    let content = util::bytes::Bytes::from(vec![7u8; CHUNK]);
    let (origin, _, dags) = build_origin(
        Xid::new_random(Principal::Hid, 1),
        nid,
        &content,
        CHUNK,
        Default::default(),
    );
    let mut fetcher = Host::new(HostConfig::new(Xid::new_random(Principal::Hid, 2)));
    fetcher.add_app(Box::new(SeqFetcher::new(
        dags.into_iter().map(|(_, dag)| dag).collect(),
    )));
    let mut sim: Simulator<XiaPacket> = Simulator::new(7);
    let origin = sim.add_node(Box::new(EndHost::new(origin)));
    let client = sim.add_node(Box::new(EndHost::new(fetcher)));
    let link = sim.add_link(
        client,
        origin,
        LinkConfig::wired(10_000_000, SimDuration::from_micros(500)),
    );
    for node in [origin, client] {
        sim.node_mut::<EndHost>(node)
            .expect("end host")
            .host_mut()
            .set_attachment(Some(nid), Some(link));
    }
    // One ACK per data segment, so two packet arrivals per segment.
    let segments = |sim: &Simulator<XiaPacket>| sim.stats().packets / 2;
    let transfer = snapshot();
    sim.run_while(SimTime::MAX, |s| segments(s) >= 1_150);
    let before = snapshot();
    sim.run_while(SimTime::MAX, |s| segments(s) >= 1_150 + WINDOW);
    let delta = snapshot().since(before);
    assert!(
        (segments(&sim) as usize) < CHUNK / MSS,
        "the window must end inside the transfer"
    );
    assert!(
        delta.heap_ops() * 8 <= WINDOW,
        "receiving {WINDOW} segments touched the heap {} times ({} allocs, {} reallocs)",
        delta.heap_ops(),
        delta.allocs,
        delta.reallocs,
    );
    sim.run();
    let transfer = snapshot().since(transfer);
    assert!(
        transfer.bytes < (CHUNK / 12) as u64,
        "moving a {CHUNK}-byte chunk allocated {} bytes",
        transfer.bytes,
    );
    let done = sim
        .node::<EndHost>(client)
        .and_then(|n| n.host().app::<SeqFetcher>(0))
        .is_some_and(|f| f.is_done() && f.bytes == CHUNK as u64);
    assert!(done, "the chunk must arrive whole");
}

/// Drops every packet it hears: the far end of a beacon's radio link.
struct Deaf;
impl Node<XiaPacket> for Deaf {
    fn on_packet(&mut self, _ctx: &mut Context<'_, XiaPacket>, _link: LinkId, _msg: XiaPacket) {}
}

/// An edge advertising itself: an `EndHost` running a [`BeaconApp`] on 4
/// radio links. Every beacon names the edge twice (source and
/// destination); building that address per packet cost 8 heap operations
/// per event, so the address is built once and cloned. Budgeted at one
/// heap operation per thousand events.
#[test]
fn steady_state_beaconing_allocates_nothing_per_packet() {
    const EVENTS: u64 = 10_000;
    let mut host = Host::new(HostConfig::new(Xid::new_random(Principal::Hid, 1)));
    let beacon = host.add_app(Box::new(BeaconApp::new(
        Xid::new_random(Principal::Nid, 1),
        Xid::new_random(Principal::Hid, 1),
        SimDuration::from_micros(200),
    )));
    let mut sim: Simulator<XiaPacket> = Simulator::new(7);
    let edge = sim.add_node(Box::new(EndHost::new(host)));
    let links: Vec<LinkId> = (0..4)
        .map(|_| {
            let car = sim.add_node(Box::new(Deaf));
            sim.add_link(
                edge,
                car,
                LinkConfig::wired(100_000_000, SimDuration::from_micros(50)),
            )
        })
        .collect();
    sim.node_mut::<EndHost>(edge)
        .and_then(|n| n.host_mut().app_mut::<BeaconApp>(beacon))
        .expect("beacon app")
        .radio_links = links;
    sim.run_while(SimTime::MAX, |s| s.stats().events >= EVENTS);
    let before = snapshot();
    sim.run_while(SimTime::MAX, |s| s.stats().events >= 2 * EVENTS);
    let delta = snapshot().since(before);
    assert!(
        sim.stats().packets >= EVENTS * 3 / 2,
        "the beacons must reach the cars"
    );
    assert!(
        delta.heap_ops() * 1_000 <= EVENTS,
        "beaconing for {EVENTS} events touched the heap {} times ({} allocs, {} reallocs)",
        delta.heap_ops(),
        delta.allocs,
        delta.reallocs,
    );
}
