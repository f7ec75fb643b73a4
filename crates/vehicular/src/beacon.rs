//! Beacon transmission by edge networks (the Network Joining Protocol).
//!
//! Access networks "advertise their presence with any usable VNF
//! information in their beacon message" (paper, footnote 2). The
//! [`BeaconApp`] runs on the edge router's host stack and periodically
//! broadcasts a [`Beacon`] on each configured radio link; transmissions
//! into a coverage gap die on the downed link, so coverage emerges from
//! the link schedule.

use simnet::{LinkId, SimDuration};
use xia_addr::{Dag, Xid};
use xia_host::{App, HostCtx};
use xia_wire::{Beacon, XiaPacket, L4};

use crate::schedule::CoverageSchedule;

/// Periodically advertises an edge network on its radio links.
#[derive(Debug)]
pub struct BeaconApp {
    nid: Xid,
    hid: Xid,
    /// `nid:hid`, built once: every beacon carries it as both source and
    /// destination, and cloning it allocates nothing.
    addr: Dag,
    /// Radio links to advertise on (set after links are created).
    pub radio_links: Vec<LinkId>,
    /// Advertised staging VNF address, if this network deploys one.
    pub staging_vnf: Option<Dag>,
    interval: SimDuration,
    /// RSS model: the client-perceived signal strength over time for this
    /// network (`(schedule, network index)`), or a flat default.
    pub rss_model: Option<(CoverageSchedule, usize)>,
    /// Beacons transmitted (including those lost to downed links).
    pub sent: u64,
}

impl BeaconApp {
    /// Creates a beacon app for network `nid` / access router `hid`,
    /// advertising every `interval`.
    pub fn new(nid: Xid, hid: Xid, interval: SimDuration) -> Self {
        BeaconApp {
            nid,
            hid,
            addr: Dag::host(nid, hid),
            radio_links: Vec::new(),
            staging_vnf: None,
            interval,
            rss_model: None,
            sent: 0,
        }
    }

    fn rss_now(&self, ctx: &HostCtx<'_>) -> f64 {
        match &self.rss_model {
            Some((schedule, net)) => schedule.rss(*net, ctx.now()).unwrap_or(-90.0),
            None => -60.0,
        }
    }
}

impl App for BeaconApp {
    fn on_start(&mut self, ctx: &mut HostCtx<'_>) {
        ctx.set_app_timer(SimDuration::ZERO, 0);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_>, _key: u8) {
        let rss = self.rss_now(ctx);
        for &link in &self.radio_links {
            let beacon = Beacon {
                nid: self.nid,
                hid: self.hid,
                rss_dbm: rss,
                staging_vnf: self.staging_vnf.clone(),
            };
            // Beacons are link-local broadcasts: destination is the
            // advertising network itself; receivers never route them.
            let pkt = XiaPacket::new(self.addr.clone(), self.addr.clone(), L4::Beacon(beacon));
            ctx.send_on_link(link, pkt);
            self.sent += 1;
        }
        ctx.set_app_timer(self.interval, 0);
    }
}
