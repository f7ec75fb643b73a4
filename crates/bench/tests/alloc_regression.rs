//! Allocation regression guard for the simulator hot path.
//!
//! The simulator's pooling claim is that a steady-state link
//! transmit/deliver cycle performs **zero** heap operations per event:
//! wheel buckets recycle through a [`simnet::BufPool`] free list and the
//! action scratch vector is handed from one dispatch to the next. The
//! claim covers the per-event paths the bare ping-pong does not drive
//! too — the flight recorder with its streaming audit, and timer filing.
//! These tests install the counting global allocator from
//! [`softstage_bench::alloc_counter`] and assert that claim exactly, so
//! any future change that sneaks an allocation back into the inner loop
//! fails loudly instead of showing up as a quiet throughput regression.

use simnet::{
    BufPool, Context, LinkConfig, LinkId, Message, Node, SimDuration, SimTime, Simulator, TimerKey,
    WheelQueue,
};
use softstage_bench::alloc_counter::{snapshot, CountingAlloc};

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
fn assert_steady_state_allocates_nothing(mut sim: Simulator<Ball>, what: &str) {
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
/// allocation-free (the wheel recycles buckets through its pool).
#[test]
fn steady_state_transmit_cycle_allocates_nothing() {
    assert_steady_state_allocates_nothing(pingpong(), "transmit cycle");
}

/// The same guarantee with the flight recorder attached and a periodic
/// timer re-arming: every event passes through `TraceSink::record` →
/// `TraceAudit::observe` (the ring is small enough to wrap during
/// warm-up, so eviction is on the measured path) and every tick files a
/// timer through `WheelQueue::push`.
#[test]
fn steady_state_traced_cycle_with_timers_allocates_nothing() {
    let mut sim = pingpong();
    sim.add_node(Box::new(Ticker));
    sim.enable_trace(1_024);
    sim.run_while(SimTime::MAX, |s| s.stats().events >= 10_000);
    assert!(
        sim.trace().is_some_and(|t| t.dropped() > 0),
        "the ring must wrap during warm-up"
    );
    assert!(sim.stats().timers > 1_000, "the ticker must be ticking");
    assert_steady_state_allocates_nothing(sim, "traced transmit/timer cycle");
}

/// The pool itself: capacity survives round trips, fresh allocations stop
/// once the working set is warm, and parking is bounded by
/// [`BufPool::MAX_PARKED`].
#[test]
fn pool_serves_warm_buffers_without_fresh_allocations() {
    let mut pool: BufPool<u64> = BufPool::new();
    let mut first = pool.get();
    first.reserve(64);
    pool.put(first);
    let before = snapshot();
    for round in 0..1_000u64 {
        let mut buf = pool.get();
        buf.push(round);
        pool.put(buf);
    }
    assert_eq!(
        snapshot().since(before).allocs,
        0,
        "a warm pool must not allocate"
    );
    assert_eq!(pool.recycled(), 1_000);
    assert_eq!(pool.fresh(), 1);
    assert!(pool.parked() <= BufPool::<u64>::MAX_PARKED);
}

/// Wheel slot buckets cycle through the wheel's internal pool: after the
/// first rotation, pops are served by recycled buckets, not fresh ones.
#[test]
fn wheel_buckets_recycle_instead_of_allocating() {
    let mut q: WheelQueue<u64> = WheelQueue::new();
    let mut now = 0u64;
    let mut lcg = 1u64;
    for seq in 0..4_096u64 {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        q.push(SimTime::from_micros(now + (lcg >> 33) % 10_000), seq, seq);
    }
    for seq in 4_096..65_536u64 {
        if let Some((at, _, _)) = q.pop() {
            now = at.as_micros();
        }
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        q.push(SimTime::from_micros(now + (lcg >> 33) % 10_000), seq, seq);
    }
    let (recycled, fresh) = q.pool_stats();
    assert!(
        recycled > fresh,
        "steady-state buckets should be recycled (recycled {recycled}, fresh {fresh})"
    );
}
