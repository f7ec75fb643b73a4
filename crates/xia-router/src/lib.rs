//! The XIA forwarding engine.
//!
//! A [`RouterNode`] combines per-principal forwarding tables with a full
//! local [`Host`] stack (transport + XCache + apps), because in XIA "XCache
//! is a network layer module that is tightly coupled to the XIA forwarding
//! engine": a router that holds a requested CID intercepts the request and
//! serves it itself — the mechanism SoftStage's staging exploits.
//!
//! Forwarding follows the DAG-address semantics (§II-C of the paper): the
//! packet carries a pointer to the last reached DAG node; at each router
//! the pointer greedily advances over locally-satisfied nodes (our NID, our
//! HID, a CID in our cache, a SID we host) and the packet is then forwarded
//! along the highest-priority out-edge for which a route exists. Reaching
//! the intent (or our HID as the intent's fallback) delivers the packet to
//! the local host stack.
//!
//! Routes are a mix of static entries (infrastructure: NIDs, server HIDs)
//! and **source learning**: every packet refreshes the route back to its
//! source HID, which is how client mobility (new NID, new edge network)
//! propagates without a routing protocol — adequate for the tree-shaped
//! edge topologies of the paper's testbed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use simnet::{Context as SimContext, LinkId, Node, NodeFault, TimerKey};
use xia_addr::{dag::SOURCE, Principal, ProbeTable, Xid};
use xia_host::Host;
use xia_wire::{XiaPacket, L4};

/// The routing tables of one router. An [`Xid`] carries its principal,
/// so one table keyed by XID holds XIA's per-principal tables as
/// independent key sets; adding, refreshing or finding a route is one
/// probe.
#[derive(Debug, Default)]
pub struct RoutingTables {
    routes: ProbeTable<Xid, LinkId>,
    /// Where to send packets with no matching route (towards the core).
    default: Option<LinkId>,
}

impl RoutingTables {
    /// Creates empty tables.
    pub fn new() -> Self {
        RoutingTables::default()
    }

    /// Adds a static route for `xid` out of `link`.
    pub fn add_route(&mut self, xid: Xid, link: LinkId) {
        self.routes.insert(xid, link);
    }

    /// Removes a route.
    #[cfg(test)]
    pub(crate) fn remove_route(&mut self, xid: &Xid) {
        self.routes.remove(xid);
    }

    /// Sets the default (upstream) route.
    pub fn set_default(&mut self, link: LinkId) {
        self.default = Some(link);
    }

    /// Looks up the egress link for `xid`, falling back to the default
    /// route for NIDs and HIDs (never for CIDs/SIDs, which are
    /// opportunistic).
    pub fn lookup(&self, xid: &Xid) -> Option<LinkId> {
        self.routes.get(xid).copied().or(match xid.principal() {
            Principal::Nid | Principal::Hid => self.default,
            Principal::Cid | Principal::Sid => None,
        })
    }
}

/// Forwarding counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Packets forwarded to another node.
    pub forwarded: u64,
    /// Packets delivered to the local host stack.
    pub delivered_local: u64,
    /// CID requests intercepted because the local cache holds the chunk.
    pub cid_intercepts: u64,
    /// Packets dropped: no route for any viable DAG edge.
    pub dropped_no_route: u64,
    /// Packets dropped: hop limit exhausted.
    pub dropped_ttl: u64,
    /// Packets dropped because the node was crashed (fault injection).
    pub dropped_down: u64,
}

/// An XIA router: forwarding engine plus an embedded host stack whose
/// XCache can intercept and serve CID requests (the edge cache SoftStage
/// stages into).
pub struct RouterNode {
    nid: Xid,
    host: Host,
    routes: RoutingTables,
    stats: RouterStats,
    /// Drained outbox buffer, swapped back into the stack at each flush.
    spare_outbox: Vec<XiaPacket>,
}

impl RouterNode {
    /// Creates a router for network `nid` around an existing host stack.
    pub fn new(nid: Xid, mut host: Host) -> Self {
        // The router's own stack sits inside its own network; its primary
        // link is set later, once links exist.
        host.set_attachment(Some(nid), None);
        RouterNode {
            nid,
            host,
            routes: RoutingTables::new(),
            stats: RouterStats::default(),
            spare_outbox: Vec::new(),
        }
    }

    /// The network this router belongs to.
    pub fn nid(&self) -> Xid {
        self.nid
    }

    /// The embedded host stack (cache, apps, transport).
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// Mutable access to the embedded host stack.
    pub fn host_mut(&mut self) -> &mut Host {
        &mut self.host
    }

    /// Mutable access to the routing tables.
    pub fn routes_mut(&mut self) -> &mut RoutingTables {
        &mut self.routes
    }

    /// Forwarding counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Whether `xid` is satisfied at this router.
    fn is_local(&self, xid: &Xid) -> bool {
        match xid.principal() {
            Principal::Nid => *xid == self.nid,
            Principal::Hid => *xid == self.host.hid(),
            Principal::Cid => self.host.store().contains(xid),
            Principal::Sid => false, // Services are delivered via wants_packet.
        }
    }

    /// Runs the DAG forwarding algorithm on one packet. `ingress` is the
    /// arrival link, or `None` for packets originated by the local stack.
    fn process(
        &mut self,
        ctx: &mut SimContext<'_, XiaPacket>,
        ingress: Option<LinkId>,
        mut pkt: XiaPacket,
    ) {
        if self.host.is_down() {
            // A crashed router neither forwards nor delivers.
            self.stats.dropped_down += 1;
            return;
        }
        if pkt.hop_limit == 0 {
            self.stats.dropped_ttl += 1;
            return;
        }
        pkt.hop_limit -= 1;

        if let Some(link) = ingress {
            // Segments of connections this router's stack already owns (an
            // in-progress staging transfer, or a chunk it is serving) are
            // local regardless of the DAG pointer. Fresh SYNs go through
            // the DAG algorithm below so CID interception follows address
            // semantics.
            // The test is by reference, so a packet to forward stays here.
            if let Some(owner) = self.host.owner(&pkt) {
                self.host.deliver_known(ctx, owner, pkt);
                self.stats.delivered_local += 1;
                return self.flush(ctx);
            }
            // Beacons and control datagrams for locally hosted services
            // are delivered straight to the stack.
            match &pkt.l4 {
                L4::Beacon(_) => {
                    if self.host.wants_packet(&pkt) {
                        self.deliver_local(ctx, link, pkt);
                    }
                    return;
                }
                L4::Control { .. } => {
                    if self.host.wants_packet(&pkt) {
                        self.stats.delivered_local += 1;
                        self.deliver_local(ctx, link, pkt);
                        return;
                    }
                }
                L4::Segment(_) => {}
            }
        }

        // Greedily advance the DAG pointer over locally satisfied nodes.
        let mut ptr = pkt.dst_ptr();
        'advance: loop {
            for &e in pkt.dst.out_edges(ptr) {
                if self.is_local(&pkt.dst.xid(e)) {
                    ptr = e;
                    continue 'advance;
                }
            }
            break;
        }
        pkt.set_dst_ptr(ptr);

        let at_intent = ptr == pkt.dst.intent_index();
        let at_own_hid = ptr != SOURCE && pkt.dst.xid(ptr) == self.host.hid();
        if at_intent || at_own_hid {
            if let Some(link) = ingress {
                // Reached the intent here, or we are the addressed
                // fallback host for it: local delivery (serve the chunk,
                // answer not-found, or feed an existing connection).
                if at_intent && pkt.dst.intent().principal() == Principal::Cid {
                    self.stats.cid_intercepts += 1;
                }
                self.stats.delivered_local += 1;
                self.deliver_local(ctx, link, pkt);
            }
            // Locally originated packets that resolve locally are dropped:
            // a stack never talks to itself over the network.
            return;
        }

        // Forward along the first routable out-edge.
        for &e in pkt.dst.out_edges(ptr) {
            if let Some(out) = self.routes.lookup(&pkt.dst.xid(e)) {
                if Some(out) == ingress {
                    // Don't bounce the packet back where it came from.
                    continue;
                }
                self.stats.forwarded += 1;
                ctx.send(out, pkt);
                return;
            }
        }
        self.stats.dropped_no_route += 1;
    }

    /// Hands a packet to the local stack, then routes whatever the stack
    /// emitted in response.
    fn deliver_local(&mut self, ctx: &mut SimContext<'_, XiaPacket>, link: LinkId, pkt: XiaPacket) {
        self.host.handle_packet(ctx, link, pkt);
        self.flush(ctx);
    }

    /// Routes packets originated by the local stack. One swap drains it:
    /// `process(ctx, None, _)` never enters the stack, so routing them
    /// adds nothing to the outbox.
    fn flush(&mut self, ctx: &mut SimContext<'_, XiaPacket>) {
        let mut out = std::mem::take(&mut self.spare_outbox);
        self.host.swap_outbox(&mut out);
        for pkt in out.drain(..) {
            self.process(ctx, None, pkt);
        }
        self.spare_outbox = out;
    }

    /// Learns the reverse route to the packet's source HID.
    fn learn(&mut self, link: LinkId, pkt: &XiaPacket) {
        // The source address of a host is `NID : HID` (intent = HID).
        let src_intent = pkt.src.intent();
        if src_intent.principal() == Principal::Hid && src_intent != self.host.hid() {
            self.routes.add_route(src_intent, link);
        }
    }
}

impl Node<XiaPacket> for RouterNode {
    fn on_start(&mut self, ctx: &mut SimContext<'_, XiaPacket>) {
        self.host.start(ctx);
        self.flush(ctx);
    }

    fn on_packet(&mut self, ctx: &mut SimContext<'_, XiaPacket>, link: LinkId, pkt: XiaPacket) {
        self.learn(link, &pkt);
        self.process(ctx, Some(link), pkt);
    }

    fn on_timer(&mut self, ctx: &mut SimContext<'_, XiaPacket>, key: TimerKey) {
        self.host.handle_timer(ctx, key);
        self.flush(ctx);
    }

    fn on_link_event(&mut self, ctx: &mut SimContext<'_, XiaPacket>, link: LinkId, up: bool) {
        self.host.handle_link_event(ctx, link, up);
        self.flush(ctx);
    }

    fn on_fault(&mut self, ctx: &mut SimContext<'_, XiaPacket>, fault: NodeFault) {
        self.host.handle_fault(ctx, fault);
        self.flush(ctx);
    }
}

impl std::fmt::Debug for RouterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterNode")
            .field("nid", &self.nid)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{LinkConfig, SimDuration, Simulator};

    struct Sink;
    impl Node<XiaPacket> for Sink {
        fn on_packet(&mut self, _: &mut SimContext<'_, XiaPacket>, _: LinkId, _: XiaPacket) {}
    }

    /// Mints dense `LinkId`s 0..=n via a throwaway simulation.
    fn links(n: usize) -> Vec<LinkId> {
        let mut sim: Simulator<XiaPacket> = Simulator::new(0);
        let nodes: Vec<_> = (0..n + 1).map(|_| sim.add_node(Box::new(Sink))).collect();
        (0..n)
            .map(|i| {
                sim.add_link(
                    nodes[i],
                    nodes[i + 1],
                    LinkConfig::wired(1_000, SimDuration::ZERO),
                )
            })
            .collect()
    }

    #[test]
    fn routing_table_lookup_and_default() {
        let ls = links(3);
        let mut t = RoutingTables::new();
        let nid = Xid::new_random(Principal::Nid, 1);
        let hid = Xid::new_random(Principal::Hid, 2);
        let cid = Xid::for_content(b"c");
        t.add_route(nid, ls[0]);
        assert_eq!(t.lookup(&nid), Some(ls[0]));
        assert_eq!(t.lookup(&hid), None, "no default set yet");
        t.set_default(ls[2]);
        assert_eq!(t.lookup(&hid), Some(ls[2]), "HID falls back to default");
        assert_eq!(t.lookup(&cid), None, "CIDs never use the default route");
        t.remove_route(&nid);
        assert_eq!(t.lookup(&nid), Some(ls[2]));
    }

    #[test]
    fn per_principal_tables_are_independent() {
        let ls = links(2);
        let mut t = RoutingTables::new();
        let seed_id = *Xid::new_random(Principal::Nid, 7).id();
        let as_nid = Xid::new(Principal::Nid, seed_id);
        let as_hid = Xid::new(Principal::Hid, seed_id);
        t.add_route(as_nid, ls[0]);
        t.add_route(as_hid, ls[1]);
        assert_eq!(t.lookup(&as_nid), Some(ls[0]));
        assert_eq!(t.lookup(&as_hid), Some(ls[1]));
    }
}
