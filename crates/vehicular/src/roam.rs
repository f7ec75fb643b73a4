//! Client-side roaming mechanics: association, layer-3 handoff and active
//! session migration.
//!
//! [`Roamer`] is embedded by client applications (the Xftp baseline and
//! SoftStage's Staging Manager alike). It owns the [`NetworkSensor`] and
//! the attachment state machine; the *policy* — when to switch — stays
//! with the embedding app, which is exactly the split the paper's
//! chunk-aware handoff needs (defer the switch to a chunk boundary).

use simnet::{LinkId, SimDuration, SimTime};
use xia_addr::Xid;
use xia_host::HostCtx;
use xia_wire::Beacon;

use crate::sensor::{NetworkKnowledge, NetworkSensor};

/// App-timer key used by the roamer for association completion. Owning
/// apps must forward this key from their `on_timer` to
/// [`Roamer::on_timer`] and avoid using it themselves.
pub const ROAM_ASSOC_TIMER: u8 = 0xF0;

/// RSS advantage (dB) a candidate needs over the current network before
/// a handoff is suggested.
const HYSTERESIS_DB: f64 = 3.0;
/// Layer-2 (re)association + authentication delay. The paper assumes this
/// is optimized to near zero by the mobility controller.
const ASSOC_DELAY: SimDuration = SimDuration::from_millis(50);
/// Active session migration cost paid by live transport connections after
/// a layer-3 handoff (the paper's "fixed overhead of 1 or 2 s").
const MIGRATION_DELAY: SimDuration = SimDuration::from_millis(2000);

/// Attachment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoamState {
    /// No usable network.
    #[default]
    Detached,
    /// Association with `target` in progress.
    Associating {
        /// The network being joined.
        target: Xid,
    },
    /// Attached to `nid`.
    Associated {
        /// The current network.
        nid: Xid,
    },
}

/// What the roamer just did (observed by the embedding app).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoamEvent {
    /// Nothing of note.
    None,
    /// Association with the contained network has begun.
    Associating(Xid),
    /// The client is now attached to the contained network.
    Associated(Xid),
    /// The client lost its network.
    Detached,
}

/// The roaming state machine; it starts detached.
#[derive(Debug, Default)]
pub struct Roamer {
    /// Discovered networks (the paper's Network Sensor).
    pub sensor: NetworkSensor,
    state: RoamState,
    /// Counts completed associations (for experiments).
    pub handoffs: u64,
    /// Counts active session migrations performed.
    pub migrations: u64,
}

impl Roamer {
    /// Current attachment state.
    pub fn state(&self) -> RoamState {
        self.state
    }

    /// Absorbs a beacon. If the client is detached, association with the
    /// strongest network begins automatically (both the baseline and
    /// SoftStage join whatever they can when uncovered).
    pub fn on_beacon(&mut self, ctx: &mut HostCtx<'_>, link: LinkId, beacon: &Beacon) -> RoamEvent {
        self.sensor.on_beacon(ctx.now(), link, beacon);
        if self.state == RoamState::Detached {
            if let Some(best) = self.sensor.best(ctx.now()) {
                let target = best.nid;
                return self.begin_handoff(ctx, target);
            }
        }
        RoamEvent::None
    }

    /// A stronger network than the current one (by the hysteresis margin),
    /// if any — the paper's default handoff trigger. Returns `None` while
    /// detached or associating.
    pub fn candidate(&self, now: SimTime) -> Option<&NetworkKnowledge> {
        let RoamState::Associated { nid } = self.state else {
            return None;
        };
        let current_rss = self.sensor.get(&nid, now).map_or(-95.0, |n| n.rss_dbm);
        self.sensor
            .best(now)
            .filter(|b| b.nid != nid && b.rss_dbm > current_rss + HYSTERESIS_DB)
    }

    /// Starts (re)association with `target`. The data plane keeps its old
    /// attachment until association completes.
    pub fn begin_handoff(&mut self, ctx: &mut HostCtx<'_>, target: Xid) -> RoamEvent {
        if matches!(self.state, RoamState::Associating { .. }) {
            return RoamEvent::None;
        }
        if self.sensor.get(&target, ctx.now()).is_none() {
            return RoamEvent::None;
        }
        self.state = RoamState::Associating { target };
        ctx.set_app_timer(ASSOC_DELAY, ROAM_ASSOC_TIMER);
        RoamEvent::Associating(target)
    }

    /// Forwards an app timer; returns the resulting event. Keys other than
    /// [`ROAM_ASSOC_TIMER`] are ignored.
    pub fn on_timer(&mut self, ctx: &mut HostCtx<'_>, key: u8) -> RoamEvent {
        if key != ROAM_ASSOC_TIMER {
            return RoamEvent::None;
        }
        let RoamState::Associating { target } = self.state else {
            return RoamEvent::None;
        };
        let Some(net) = self.sensor.get(&target, ctx.now()).cloned() else {
            // The target vanished while associating.
            self.state = RoamState::Detached;
            return RoamEvent::Detached;
        };
        self.state = RoamState::Associated { nid: target };
        self.handoffs += 1;
        ctx.set_attachment(Some(net.nid), Some(net.link));
        // Live transport sessions must migrate to the new locator.
        if ctx.active_connection_count() > 0 {
            self.migrations += 1;
            ctx.migrate_connections(MIGRATION_DELAY);
        }
        RoamEvent::Associated(target)
    }

    /// Handles a link state change: losing the current data link detaches.
    pub fn on_link_event(&mut self, ctx: &mut HostCtx<'_>, link: LinkId, up: bool) -> RoamEvent {
        if up {
            return RoamEvent::None;
        }
        self.sensor.on_link_down(link);
        let lost = match self.state {
            RoamState::Associated { .. } => ctx.primary_link() == Some(link),
            RoamState::Associating { .. } => false,
            RoamState::Detached => false,
        };
        if lost {
            ctx.set_attachment(None, None);
            self.state = RoamState::Detached;
            return RoamEvent::Detached;
        }
        RoamEvent::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_addr::Principal;
    use xia_host::{Effect, Host, HostConfig, HostView};

    /// Hears one beacon (which starts association), lets `elapsed` pass
    /// and delivers the association timer on a host with `connections`
    /// live connections. Returns the event and what the timer asked for.
    fn associate(connections: usize, elapsed: SimDuration) -> (RoamEvent, Vec<Effect>, Beacon) {
        let beacon = Beacon {
            nid: Xid::new_random(Principal::Nid, 1),
            hid: Xid::new_random(Principal::Hid, 1),
            rss_dbm: -60.0,
            staging_vnf: None,
        };
        // Only for its chunk store: this crate does not name `xcache`.
        let hid = Xid::new_random(Principal::Hid, 2);
        let mut stack = Host::new(HostConfig::new(hid));
        let store = stack.store_mut();
        let mut view = HostView::new(hid);
        view.connections = connections;
        let mut roamer = Roamer::default();

        let mut ctx = HostCtx::new(view, store, Vec::new());
        let heard = roamer.on_beacon(&mut ctx, LinkId::from_index(3), &beacon);
        assert_eq!(heard, RoamEvent::Associating(beacon.nid));
        let (mut view, armed) = ctx.finish();
        let delay = ASSOC_DELAY;
        let key = ROAM_ASSOC_TIMER;
        assert_eq!(armed, [Effect::Timer { delay, key }]);

        view.now += elapsed;
        let mut ctx = HostCtx::new(view, store, Vec::new());
        let event = roamer.on_timer(&mut ctx, ROAM_ASSOC_TIMER);
        (event, ctx.finish().1, beacon)
    }

    #[test]
    fn association_migrates_exactly_when_a_connection_is_live() {
        for connections in [0, 1] {
            let (event, effects, beacon) = associate(connections, ASSOC_DELAY);
            assert_eq!(event, RoamEvent::Associated(beacon.nid));
            let mut want = vec![Effect::Attach {
                nid: Some(beacon.nid),
                link: Some(LinkId::from_index(3)),
            }];
            if connections > 0 {
                want.push(Effect::Migrate {
                    pause: MIGRATION_DELAY,
                });
            }
            assert_eq!(effects, want);
        }
    }

    #[test]
    fn a_target_that_vanishes_while_associating_detaches() {
        // The beacon has gone stale by the time the timer is delivered.
        let (event, effects, _) = associate(1, SimDuration::from_secs(1));
        assert_eq!(event, RoamEvent::Detached);
        assert_eq!(effects, []);
    }
}
