//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a declarative schedule of failures — link flaps,
//! burst loss, bit corruption, node crashes/restarts, cache wipes, cache
//! squeezes (capacity shrinks) and slow-edge service windows — laid onto
//! a simulation before it runs. Because every fault fires at a
//! scheduled [`SimTime`] (or at times drawn from a seeded [`Rng`]), a run
//! with faults is exactly as reproducible as one without: same plan, same
//! seed, same outcome.
//!
//! ```
//! use simnet::fault::FaultPlan;
//! use simnet::{SimDuration, SimTime};
//!
//! # let (link, node) = {
//! #     let mut sim: simnet::Simulator<Probe> = simnet::Simulator::new(1);
//! #     #[derive(Clone, Debug)]
//! #     struct Probe;
//! #     impl simnet::Message for Probe { fn wire_size(&self) -> usize { 1 } }
//! #     struct Nop;
//! #     impl simnet::Node<Probe> for Nop {
//! #         fn on_packet(&mut self, _: &mut simnet::Context<'_, Probe>, _: simnet::LinkId, _: Probe) {}
//! #     }
//! #     let a = sim.add_node(Box::new(Nop));
//! #     let b = sim.add_node(Box::new(Nop));
//! #     let l = sim.add_link(a, b, simnet::LinkConfig::wired(1_000_000, SimDuration::ZERO));
//! #     (l, a)
//! # };
//! let mut plan = FaultPlan::new();
//! plan.flap(link, SimTime::from_micros(5_000_000), SimDuration::from_millis(800))
//!     .burst_loss(link, SimTime::from_micros(9_000_000), SimDuration::from_millis(500), 0.9)
//!     .crash(node, SimTime::from_micros(12_000_000), Some(SimDuration::from_millis(2_000)));
//! ```
//!
//! The plan is applied with [`FaultPlan::apply`], which expands each fault
//! into scheduler events (including the restoring half of every window).

use crate::link::LinkId;
use crate::node::{Message, NodeFault, NodeId};
use crate::rng::Rng;
use crate::sim::Simulator;
use crate::time::{SimDuration, SimTime};

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// The link goes administratively down at `at` and comes back after
    /// `down_for`. In-flight packets are lost, endpoints see link events.
    LinkFlap {
        /// Affected link.
        link: LinkId,
        /// When the link drops.
        at: SimTime,
        /// How long it stays down.
        down_for: SimDuration,
    },
    /// The link's per-attempt loss probability is raised to `loss` for the
    /// window, then restored to its configured value.
    BurstLoss {
        /// Affected link.
        link: LinkId,
        /// Window start.
        at: SimTime,
        /// Window length.
        lasting: SimDuration,
        /// Loss probability during the window.
        loss: f64,
    },
    /// Delivered frames are bit-corrupted with probability `prob` for the
    /// window; the simulator drops them before delivery.
    Corruption {
        /// Affected link.
        link: LinkId,
        /// Window start.
        at: SimTime,
        /// Window length.
        lasting: SimDuration,
        /// Corruption probability during the window.
        prob: f64,
    },
    /// The node crashes at `at`, losing volatile state; if `restart_after`
    /// is set, a restart fault follows that much later.
    Crash {
        /// Affected node.
        node: NodeId,
        /// Crash time.
        at: SimTime,
        /// Delay until the matching restart (`None`: stays down forever).
        restart_after: Option<SimDuration>,
    },
    /// The node's content cache is wiped at `at`; the node keeps running.
    CacheWipe {
        /// Affected node.
        node: NodeId,
        /// Wipe time.
        at: SimTime,
    },
    /// The node's content cache shrinks to `capacity` bytes at `at`,
    /// forcing eviction churn; the node keeps running.
    CacheSqueeze {
        /// Affected node.
        node: NodeId,
        /// Squeeze time.
        at: SimTime,
        /// New cache capacity in bytes.
        capacity: usize,
    },
    /// The node's service rate degrades for the window: replies are
    /// delayed by `delay` until `at + lasting` restores full speed.
    SlowEdge {
        /// Affected node.
        node: NodeId,
        /// Window start.
        at: SimTime,
        /// Window length.
        lasting: SimDuration,
        /// Added per-reply service delay during the window.
        delay: SimDuration,
    },
}

/// A deterministic, declarative schedule of faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an arbitrary fault.
    pub fn push(&mut self, fault: Fault) -> &mut Self {
        self.faults.push(fault);
        self
    }

    /// Adds a [`Fault::LinkFlap`].
    pub fn flap(&mut self, link: LinkId, at: SimTime, down_for: SimDuration) -> &mut Self {
        self.push(Fault::LinkFlap { link, at, down_for })
    }

    /// Adds a [`Fault::BurstLoss`].
    pub fn burst_loss(
        &mut self,
        link: LinkId,
        at: SimTime,
        lasting: SimDuration,
        loss: f64,
    ) -> &mut Self {
        self.push(Fault::BurstLoss {
            link,
            at,
            lasting,
            loss,
        })
    }

    /// Adds a [`Fault::Corruption`].
    pub fn corruption(
        &mut self,
        link: LinkId,
        at: SimTime,
        lasting: SimDuration,
        prob: f64,
    ) -> &mut Self {
        self.push(Fault::Corruption {
            link,
            at,
            lasting,
            prob,
        })
    }

    /// Adds a [`Fault::Crash`] (with optional restart).
    pub fn crash(
        &mut self,
        node: NodeId,
        at: SimTime,
        restart_after: Option<SimDuration>,
    ) -> &mut Self {
        self.push(Fault::Crash {
            node,
            at,
            restart_after,
        })
    }

    /// Adds a [`Fault::CacheWipe`].
    pub fn cache_wipe(&mut self, node: NodeId, at: SimTime) -> &mut Self {
        self.push(Fault::CacheWipe { node, at })
    }

    /// Adds a [`Fault::CacheSqueeze`].
    pub fn cache_squeeze(&mut self, node: NodeId, at: SimTime, capacity: usize) -> &mut Self {
        self.push(Fault::CacheSqueeze { node, at, capacity })
    }

    /// Adds a [`Fault::SlowEdge`].
    pub fn slow_edge(
        &mut self,
        node: NodeId,
        at: SimTime,
        lasting: SimDuration,
        delay: SimDuration,
    ) -> &mut Self {
        self.push(Fault::SlowEdge {
            node,
            at,
            lasting,
            delay,
        })
    }

    /// Adds `count` link flaps at times drawn deterministically from
    /// `seed`, uniformly over `[window_start, window_end)`, each lasting
    /// `down_for`. Useful for chaos tests that want "some" churn without
    /// hand-placing every event.
    pub fn random_flaps(
        &mut self,
        link: LinkId,
        count: usize,
        window_start: SimTime,
        window_end: SimTime,
        down_for: SimDuration,
        seed: u64,
    ) -> &mut Self {
        let mut rng = Rng::seed_from_u64(seed).split(0xF1A9);
        let lo = window_start.as_micros();
        let hi = window_end.as_micros().max(lo + 1);
        for _ in 0..count {
            let at = SimTime::from_micros(rng.gen_range_u64(lo, hi));
            self.flap(link, at, down_for);
        }
        self
    }

    /// The faults added so far.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Expands the plan into scheduler events on `sim`.
    ///
    /// Window faults (burst loss, corruption) schedule both the onset and
    /// the restoration; restoration returns the link to its *configured*
    /// values (`config.loss`, zero corruption), so overlapping windows
    /// close cleanly as long as they restore after the last onset.
    pub fn apply<M: Message>(&self, sim: &mut Simulator<M>) {
        for fault in &self.faults {
            match *fault {
                Fault::LinkFlap { link, at, down_for } => {
                    sim.schedule_link_state(at, link, false);
                    sim.schedule_link_state(at + down_for, link, true);
                }
                Fault::BurstLoss {
                    link,
                    at,
                    lasting,
                    loss,
                } => {
                    let base = sim.link(link).config().loss;
                    sim.schedule_link_quality(at, link, Some(loss), None);
                    sim.schedule_link_quality(at + lasting, link, Some(base), None);
                }
                Fault::Corruption {
                    link,
                    at,
                    lasting,
                    prob,
                } => {
                    sim.schedule_link_quality(at, link, None, Some(prob));
                    sim.schedule_link_quality(at + lasting, link, None, Some(0.0));
                }
                Fault::Crash {
                    node,
                    at,
                    restart_after,
                } => {
                    sim.schedule_node_fault(at, node, NodeFault::Crash);
                    if let Some(delay) = restart_after {
                        sim.schedule_node_fault(at + delay, node, NodeFault::Restart);
                    }
                }
                Fault::CacheWipe { node, at } => {
                    sim.schedule_node_fault(at, node, NodeFault::CacheWipe);
                }
                Fault::CacheSqueeze { node, at, capacity } => {
                    sim.schedule_node_fault(at, node, NodeFault::CacheResize { capacity });
                }
                Fault::SlowEdge {
                    node,
                    at,
                    lasting,
                    delay,
                } => {
                    sim.schedule_node_fault(
                        at,
                        node,
                        NodeFault::SlowService {
                            delay_us: delay.as_micros(),
                        },
                    );
                    sim.schedule_node_fault(
                        at + lasting,
                        node,
                        NodeFault::SlowService { delay_us: 0 },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::node::{Context, Node};

    #[derive(Clone, Debug)]
    struct Probe;
    impl Message for Probe {
        fn wire_size(&self) -> usize {
            100
        }
    }

    /// Sends one probe per tick and records deliveries and faults.
    struct Chatter {
        link: Option<LinkId>,
        got: u64,
        faults: Vec<(SimTime, NodeFault)>,
        until: SimTime,
    }

    impl Node<Probe> for Chatter {
        fn on_start(&mut self, ctx: &mut Context<'_, Probe>) {
            if self.link.is_some() {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        fn on_packet(&mut self, _: &mut Context<'_, Probe>, _: LinkId, _: Probe) {
            self.got += 1;
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Probe>, _: u64) {
            if let Some(l) = self.link {
                ctx.send(l, Probe);
                if ctx.now() < self.until {
                    ctx.set_timer(SimDuration::from_millis(10), 0);
                }
            }
        }
        fn on_fault(&mut self, ctx: &mut Context<'_, Probe>, fault: NodeFault) {
            self.faults.push((ctx.now(), fault));
        }
    }

    fn chatter() -> Chatter {
        Chatter {
            link: None,
            got: 0,
            faults: vec![],
            until: SimTime::from_micros(1_000_000),
        }
    }

    fn build() -> (Simulator<Probe>, NodeId, NodeId, LinkId) {
        let mut sim = Simulator::new(9);
        let a = sim.add_node(Box::new(chatter()));
        let b = sim.add_node(Box::new(chatter()));
        let l = sim.add_link(
            a,
            b,
            LinkConfig::wired(8_000_000, SimDuration::from_millis(1)),
        );
        sim.node_mut::<Chatter>(a).unwrap().link = Some(l);
        (sim, a, b, l)
    }

    #[test]
    fn flap_loses_only_the_window() {
        let (mut sim, _, b, l) = build();
        let mut plan = FaultPlan::new();
        // Down from 250 ms to 450 ms: ticks at 250..=440 ms are dropped
        // (the sender transmits into a dead link).
        plan.flap(
            l,
            SimTime::from_micros(245_000),
            SimDuration::from_millis(200),
        );
        plan.apply(&mut sim);
        sim.run();
        let got = sim.node::<Chatter>(b).unwrap().got;
        // 100 ticks total, ~20 fall inside the window.
        assert!(got >= 75 && got <= 85, "got {got}");
        assert!(sim.stats().links[l.index()].dropped_down >= 15);
    }

    #[test]
    fn burst_loss_window_restores_configured_loss() {
        let (mut sim, _, b, l) = build();
        let mut plan = FaultPlan::new();
        plan.burst_loss(
            l,
            SimTime::from_micros(200_000),
            SimDuration::from_millis(300),
            1.0,
        );
        plan.apply(&mut sim);
        sim.run();
        let got = sim.node::<Chatter>(b).unwrap().got;
        let lost = sim.stats().links[l.index()].lost;
        // ~30 of 100 ticks fall in the total-loss window; the rest arrive
        // because the wired link's configured loss (0.0) is restored.
        assert!((25..=35).contains(&lost), "lost {lost}");
        assert_eq!(got + lost, 100);
    }

    #[test]
    fn corruption_window_counts_checksum_drops() {
        let (mut sim, _, b, l) = build();
        let mut plan = FaultPlan::new();
        plan.corruption(
            l,
            SimTime::from_micros(0),
            SimDuration::from_millis(2_000),
            1.0,
        );
        plan.apply(&mut sim);
        sim.run();
        assert_eq!(sim.node::<Chatter>(b).unwrap().got, 0);
        assert_eq!(sim.stats().links[l.index()].corrupted, 100);
    }

    #[test]
    fn crash_restart_and_wipe_reach_the_node() {
        let (mut sim, _, b, _) = build();
        let mut plan = FaultPlan::new();
        plan.crash(
            b,
            SimTime::from_micros(100_000),
            Some(SimDuration::from_millis(50)),
        )
        .cache_wipe(b, SimTime::from_micros(300_000));
        plan.apply(&mut sim);
        sim.run();
        assert_eq!(
            sim.node::<Chatter>(b).unwrap().faults,
            vec![
                (SimTime::from_micros(100_000), NodeFault::Crash),
                (SimTime::from_micros(150_000), NodeFault::Restart),
                (SimTime::from_micros(300_000), NodeFault::CacheWipe),
            ]
        );
        assert_eq!(sim.stats().faults, 3);
    }

    #[test]
    fn squeeze_and_slow_edge_reach_the_node() {
        let (mut sim, _, b, _) = build();
        let mut plan = FaultPlan::new();
        plan.cache_squeeze(b, SimTime::from_micros(100_000), 4096)
            .slow_edge(
                b,
                SimTime::from_micros(200_000),
                SimDuration::from_millis(150),
                SimDuration::from_millis(40),
            );
        plan.apply(&mut sim);
        sim.run();
        assert_eq!(
            sim.node::<Chatter>(b).unwrap().faults,
            vec![
                (
                    SimTime::from_micros(100_000),
                    NodeFault::CacheResize { capacity: 4096 },
                ),
                (
                    SimTime::from_micros(200_000),
                    NodeFault::SlowService { delay_us: 40_000 },
                ),
                // The window's restoring half clears the delay.
                (
                    SimTime::from_micros(350_000),
                    NodeFault::SlowService { delay_us: 0 },
                ),
            ]
        );
        assert_eq!(sim.stats().faults, 3);
    }

    #[test]
    fn random_flaps_are_deterministic_per_seed() {
        let plan_for = |seed| {
            let mut p = FaultPlan::new();
            p.random_flaps(
                LinkId(0),
                5,
                SimTime::ZERO,
                SimTime::from_micros(1_000_000),
                SimDuration::from_millis(10),
                seed,
            );
            p.faults().to_vec()
        };
        assert_eq!(plan_for(1), plan_for(1));
        assert_ne!(plan_for(1), plan_for(2));
        assert_eq!(plan_for(1).len(), 5);
    }
}
