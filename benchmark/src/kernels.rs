//! Per-layer kernels: one small timed loop per layer operation, sized
//! from the traced pass's own counts, each under a `kernel.<layer>.<op>`
//! span. A kernel's ns × the run's count of that operation ÷ `wall_s` is
//! the layer's estimated share of the run; what the kernels leave over is
//! `unattributed_share`, the gap in-program tracing must later explain.
//!
//! Everything is driven through public items of the layer crates, from
//! outside; a kernel is a measurement of the layer, not a copy of it.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use simnet::{
    Context, LinkConfig, LinkId, Message, Node, SimDuration, SimTime, Simulator, TimerKey,
};
use util::bytes::Bytes;
use xcache::{chunk_content, ChunkStore, EvictionPolicy};
use xia_addr::{sha1, Dag, Principal, Xid};
use xia_host::{Host, HostConfig};
use xia_router::RoutingTables;
use xia_transport::{TransportConfig, TransportEnv, TransportEvent, TransportMux};
use xia_wire::{XiaPacket, L4, MSS};

use crate::spans::Tracer;

/// What the traced pass's counts say the kernels should look like.
#[derive(Debug, Clone, Copy)]
pub struct KernelParams {
    /// Chunk size of the workload's content.
    pub chunk_size: usize,
    /// Standing timer population for the scheduler kernel.
    pub timer_population: u32,
    /// Mean wire size of the packets the run delivered.
    pub packet_bytes: usize,
    /// Share of offered packets the links lost after ARQ or tail-dropped at
    /// a full queue — the loss the transport actually had to recover from.
    pub residual_loss: f64,
    /// Routes in an edge router's tables.
    pub routes: usize,
}

/// Timed samples per kernel; the median is reported.
const SAMPLES: usize = 5;

/// Median nanoseconds per operation over [`SAMPLES`] batches; `batch`
/// does the work and returns how many operations it did.
fn median_ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    batch(); // warm-up: first-touch page faults and cold caches
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let ops = batch();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[SAMPLES / 2]
}

const MIB: usize = 1024 * 1024;

fn content(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i * 31 % 251) as u8).collect::<Vec<u8>>())
}

fn sha1_ns_per_mb() -> f64 {
    let data = content(4 * MIB);
    median_ns_per_op(|| {
        black_box(sha1::sha1(black_box(&data)));
        4
    })
}

fn chunker_ns_per_mb(chunk_size: usize) -> f64 {
    let data = content(8 * MIB);
    median_ns_per_op(|| {
        black_box(chunk_content(black_box(&data), chunk_size));
        8
    })
}

fn publish_ns_per_mb(chunk_size: usize) -> f64 {
    let data = content(8 * MIB);
    let hid = Xid::new_random(Principal::Hid, 1);
    median_ns_per_op(|| {
        let mut cfg = HostConfig::new(hid);
        cfg.cache_capacity = usize::MAX;
        let mut host = Host::new(cfg);
        black_box(host.publish_content(black_box(&data), chunk_size));
        8
    })
}

/// Distinct small chunks; the store's costs are per entry, not per byte.
fn store_chunks() -> Vec<(Xid, Bytes)> {
    (0..256u32)
        .map(|i| {
            let data = Bytes::from(i.to_be_bytes().repeat(256));
            (Xid::for_content(&data), data)
        })
        .collect()
}

fn store_ns_per_get_hit() -> f64 {
    let chunks = store_chunks();
    let mut store = ChunkStore::new(usize::MAX, EvictionPolicy::Lru);
    for (cid, data) in &chunks {
        store.insert(*cid, data.clone());
    }
    median_ns_per_op(|| {
        for i in 0..100_000usize {
            black_box(store.get(&chunks[i % chunks.len()].0));
        }
        100_000
    })
}

/// A store that holds 8 of the 256 chunks, so every insert evicts — the
/// thrashing edge cache of `fleet_uniform`.
fn store_ns_per_insert_evict() -> f64 {
    let chunks = store_chunks();
    let mut store = ChunkStore::new(8 * chunks[0].1.len(), EvictionPolicy::Lru);
    median_ns_per_op(|| {
        for i in 0..50_000usize {
            let (cid, data) = &chunks[i % chunks.len()];
            black_box(store.insert(*cid, data.clone()));
        }
        // Drain the evicted-CID log as a host would, or it saturates.
        black_box(store.take_evicted());
        50_000
    })
}

fn router_ns_per_lookup(routes: usize) -> f64 {
    let mut tables = RoutingTables::new();
    let xids: Vec<Xid> = (0..routes.max(1) as u64)
        .map(|i| {
            let principal = if i % 2 == 0 {
                Principal::Nid
            } else {
                Principal::Hid
            };
            Xid::new_random(principal, i)
        })
        .collect();
    for (i, xid) in xids.iter().enumerate() {
        tables.add_route(*xid, LinkId::from_index(i));
    }
    tables.set_default(LinkId::from_index(routes));
    // Every other lookup misses the tables and takes the default route,
    // like an edge forwarding a CID request towards the core.
    let unknown = Xid::new_random(Principal::Cid, 99);
    median_ns_per_op(|| {
        for i in 0..200_000usize {
            let xid = if i % 2 == 0 {
                &xids[i / 2 % xids.len()]
            } else {
                &unknown
            };
            black_box(tables.lookup(black_box(xid)));
        }
        200_000
    })
}

// --- bare-simulator kernels (shapes follow crates/bench's sched_bench) ---

#[derive(Clone, Debug)]
struct Ball(usize);
impl Message for Ball {
    fn wire_size(&self) -> usize {
        self.0
    }
}

/// Returns the ball on every receipt: one packet dispatch per hop.
struct Paddle {
    kick: Option<usize>,
    link: Option<LinkId>,
}
impl Node<Ball> for Paddle {
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        if let (Some(size), Some(link)) = (self.kick, self.link) {
            ctx.send(link, Ball(size));
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, Ball>, link: LinkId, msg: Ball) {
        ctx.send(link, msg);
    }
}

/// Keeps `outstanding` timers armed, re-arming each as it fires.
struct TimerFarm {
    outstanding: u32,
    lcg: u64,
}
impl TimerFarm {
    fn next_delay(&mut self) -> SimDuration {
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        SimDuration::from_micros((self.lcg >> 33) % 1_000_000 + 1)
    }
}
impl Node<Ball> for TimerFarm {
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        for key in 0..self.outstanding {
            let d = self.next_delay();
            ctx.set_timer(d, u64::from(key));
        }
    }
    fn on_packet(&mut self, _: &mut Context<'_, Ball>, _: LinkId, _: Ball) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, Ball>, key: TimerKey) {
        let d = self.next_delay();
        ctx.set_timer(d, key);
    }
}

const SCHED_EVENTS: u64 = 200_000;

/// ns per dispatched event of `sim`, after a warm-up tenth.
fn sched_ns_per_event(mut sim: Simulator<Ball>) -> f64 {
    median_ns_per_op(|| {
        let target = sim.stats().events + SCHED_EVENTS;
        sim.run_while(SimTime::MAX, |s| s.stats().events >= target);
        SCHED_EVENTS
    })
}

fn sched_timers(population: u32) -> f64 {
    let mut sim = Simulator::new(7);
    sim.add_node(Box::new(TimerFarm {
        outstanding: population,
        lcg: 0x9e37_79b9_7f4a_7c15,
    }));
    sched_ns_per_event(sim)
}

fn sched_pingpong(packet_bytes: usize) -> f64 {
    let mut sim = Simulator::new(7);
    let a = sim.add_node(Box::new(Paddle {
        kick: Some(packet_bytes),
        link: None,
    }));
    let b = sim.add_node(Box::new(Paddle {
        kick: None,
        link: None,
    }));
    let l = sim.add_link(
        a,
        b,
        LinkConfig::wired(100_000_000, SimDuration::from_micros(50)),
    );
    sim.node_mut::<Paddle>(a).expect("paddle a").link = Some(l);
    sim.node_mut::<Paddle>(b).expect("paddle b").link = Some(l);
    sched_ns_per_event(sim)
}

// --- transport kernel: two muxes joined by a benchmark-side env ---

enum Item {
    Packet { to: usize, pkt: XiaPacket },
    Timer { on: usize, key: u64 },
}

/// The wire and clock both muxes share: a time-ordered queue, a fixed
/// one-way latency, and Bernoulli loss on every packet.
struct Wire {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    items: Vec<Option<Item>>,
    loss: f64,
    rng: simnet::Rng,
    data_packets: u64,
    incoming: Option<xia_wire::ConnId>,
    peer_closed: bool,
}

impl Wire {
    fn push(&mut self, at: SimTime, item: Item) {
        let slot = self.items.len();
        self.items.push(Some(item));
        self.queue.push(Reverse((at, self.seq, slot)));
        self.seq += 1;
    }
}

struct SideEnv {
    side: usize,
    wire: Rc<RefCell<Wire>>,
}

impl TransportEnv for SideEnv {
    fn now(&self) -> SimTime {
        self.wire.borrow().now
    }
    fn emit(&mut self, pkt: XiaPacket) {
        let mut w = self.wire.borrow_mut();
        if matches!(&pkt.l4, L4::Segment(s) if !s.payload.is_empty()) {
            w.data_packets += 1;
        }
        if w.rng.gen_range_f64(0.0, 1.0) < w.loss {
            return;
        }
        let at = w.now + SimDuration::from_millis(2);
        let to = 1 - self.side;
        w.push(at, Item::Packet { to, pkt });
    }
    fn set_timer(&mut self, delay: SimDuration, key: u64) {
        let mut w = self.wire.borrow_mut();
        let at = w.now + delay;
        let on = self.side;
        w.push(at, Item::Timer { on, key });
    }
    fn deliver(&mut self, event: TransportEvent) {
        let mut w = self.wire.borrow_mut();
        match event {
            TransportEvent::Incoming { conn, .. } => w.incoming = Some(conn),
            TransportEvent::PeerClosed { .. } if self.side == 1 => w.peer_closed = true,
            _ => {}
        }
    }
}

/// Moves one chunk from mux 0 to mux 1 over a wire losing `loss` of its
/// packets; returns `(segments, data packets emitted)`.
fn transfer_chunk(chunk: &Bytes, loss: f64, seed: u64) -> (u64, u64) {
    let hids = [
        Xid::new_random(Principal::Hid, 100),
        Xid::new_random(Principal::Hid, 200),
    ];
    let nid = Xid::new_random(Principal::Nid, 1);
    let addrs = [Dag::host(nid, hids[0]), Dag::host(nid, hids[1])];
    let mut muxes = [
        TransportMux::new(TransportConfig::xia(), hids[0]),
        TransportMux::new(TransportConfig::xia(), hids[1]),
    ];
    let wire = Rc::new(RefCell::new(Wire {
        now: SimTime::ZERO,
        seq: 0,
        queue: BinaryHeap::new(),
        items: Vec::new(),
        loss,
        rng: simnet::Rng::seed_from_u64(seed),
        data_packets: 0,
        incoming: None,
        peer_closed: false,
    }));
    let env = |side| SideEnv {
        side,
        wire: Rc::clone(&wire),
    };
    let conn = muxes[0].connect(&mut env(0), addrs[1].clone(), addrs[0].clone());
    muxes[0]
        .send(&mut env(0), conn, chunk.clone())
        .expect("fresh connection accepts data");
    muxes[0]
        .close(&mut env(0), conn)
        .expect("fresh connection closes");
    loop {
        let next = {
            let mut w = wire.borrow_mut();
            let Some(Reverse((at, _, slot))) = w.queue.pop() else {
                break;
            };
            w.now = at;
            w.items[slot].take()
        };
        match next {
            Some(Item::Packet { to, pkt }) => {
                muxes[to].on_packet(&mut env(to), pkt, addrs[to].clone());
            }
            Some(Item::Timer { on, key }) => {
                muxes[on].on_timer(&mut env(on), key);
            }
            None => {}
        }
        // The receiver closes its side once the sender's FIN arrived, so
        // teardown completes and the queue drains.
        let closing = {
            let mut w = wire.borrow_mut();
            std::mem::take(&mut w.peer_closed)
                .then_some(w.incoming)
                .flatten()
        };
        if let Some(c) = closing {
            let _ = muxes[1].close(&mut env(1), c);
        }
    }
    let sent = wire.borrow().data_packets;
    (chunk.len().div_ceil(MSS) as u64, sent)
}

/// `(ns per segment, retransmit ratio)` of moving chunks of `chunk_size`
/// at `loss`, enough chunks per batch to cover at least 1500 segments.
fn transport_segment(chunk_size: usize, loss: f64) -> (f64, f64) {
    let chunk = content(chunk_size);
    let chunks_per_batch = 1500usize.div_ceil(chunk_size.div_ceil(MSS)).max(1);
    let (mut segments, mut sent) = (0u64, 0u64);
    let mut round = 0u64;
    let ns = median_ns_per_op(|| {
        let mut batch_segments = 0;
        for _ in 0..chunks_per_batch {
            round += 1;
            let (s, d) = transfer_chunk(&chunk, loss, round);
            batch_segments += s;
            segments += s;
            sent += d;
        }
        batch_segments
    });
    (
        ns,
        sent.saturating_sub(segments) as f64 / segments.max(1) as f64,
    )
}

/// Runs every kernel under its own span and returns `(metric, value)`s.
pub fn run_all(tracer: &mut Tracer, p: KernelParams) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut kernel = |span: &str, metric: &str, f: &mut dyn FnMut() -> f64| {
        let v = tracer.span(span, |_| f());
        out.push((metric.to_owned(), v));
    };
    kernel(
        "kernel.simnet.sched_timers",
        "simnet.sched.ns_per_event_timers",
        &mut || sched_timers(p.timer_population),
    );
    kernel(
        "kernel.simnet.sched_pingpong",
        "simnet.sched.ns_per_event_pingpong",
        &mut || sched_pingpong(p.packet_bytes),
    );
    kernel(
        "kernel.xia-addr.sha1",
        "xia-addr.sha1.ns_per_mb",
        &mut sha1_ns_per_mb,
    );
    kernel(
        "kernel.xcache.chunker",
        "xcache.chunker.ns_per_mb",
        &mut || chunker_ns_per_mb(p.chunk_size),
    );
    kernel(
        "kernel.xia-host.publish",
        "xia-host.publish.ns_per_mb",
        &mut || publish_ns_per_mb(p.chunk_size),
    );
    kernel(
        "kernel.xcache.store_get_hit",
        "xcache.store.ns_per_get_hit",
        &mut store_ns_per_get_hit,
    );
    kernel(
        "kernel.xcache.store_insert_evict",
        "xcache.store.ns_per_insert_evict",
        &mut store_ns_per_insert_evict,
    );
    kernel(
        "kernel.xia-router.lookup",
        "xia-router.lookup.ns_per_op",
        &mut || router_ns_per_lookup(p.routes),
    );
    let (ns_per_segment, retransmit_ratio) = tracer.span("kernel.xia-transport.segment", |_| {
        transport_segment(p.chunk_size, p.residual_loss)
    });
    out.push(("xia-transport.ns_per_segment".into(), ns_per_segment));
    out.push(("xia-transport.retransmit_ratio".into(), retransmit_ratio));
    out
}
