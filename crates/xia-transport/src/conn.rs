//! A single reliable-transport connection (Reno congestion control).
//!
//! Sequence-number conventions follow TCP: the SYN occupies sequence 0,
//! data bytes occupy `[1, 1 + len)`, and the FIN occupies one number after
//! the last data byte. Both directions are symmetric; the initiator is the
//! side that sent the SYN.

use std::collections::BTreeMap;

use simnet::{SimDuration, SimTime};
use util::bytes::Bytes;
use xia_addr::Dag;
use xia_wire::{ConnId, SegFlags, Segment, XiaPacket, L4, MSS};

use crate::buffer::SendBuffer;
use crate::config::TransportConfig;
use crate::rtt::RttEstimator;

/// Where a connection is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Initiator: SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Responder: SYN received, SYN-ACK sent.
    SynReceived,
    /// Handshake complete; data flows.
    Established,
    /// Paused for active session migration (handoff).
    Migrating,
    /// Both directions closed cleanly.
    Closed,
    /// Aborted (RST, retransmission exhaustion).
    Failed,
}

/// Why a connection failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Peer sent a reset.
    Reset,
    /// Too many consecutive retransmission timeouts, or nothing heard
    /// from the peer for as long as those could take.
    TimedOut,
    /// Locally aborted.
    Aborted,
}

/// Upcalls from the transport to the application layer.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportEvent {
    /// A SYN arrived and a new responder connection was created.
    /// `requested` is the destination DAG the initiator addressed (for a
    /// chunk fetch this carries the CID being requested).
    Incoming {
        /// The new connection.
        conn: ConnId,
        /// Destination DAG of the SYN as received here.
        requested: Dag,
        /// The initiator's source address.
        peer: Dag,
    },
    /// Initiator side: handshake completed; `peer` is the responder's
    /// source address (the node that intercepted/accepted the SYN).
    Connected {
        /// The connection.
        conn: ConnId,
        /// Responder's address, e.g. the edge cache that owns the chunk.
        peer: Dag,
    },
    /// In-order payload bytes arrived.
    Data {
        /// The connection.
        conn: ConnId,
        /// The delivered bytes.
        data: Bytes,
    },
    /// The peer finished sending (FIN received and all data delivered).
    PeerClosed {
        /// The connection.
        conn: ConnId,
    },
    /// Both directions are done; the connection is gone.
    Closed {
        /// The connection.
        conn: ConnId,
    },
    /// The connection failed.
    Failed {
        /// The connection.
        conn: ConnId,
        /// Why it failed.
        reason: CloseReason,
    },
}

/// The world a connection interacts with: time, timers, the network, and
/// the application. Implemented by the host stack (and by test harnesses).
pub trait TransportEnv {
    /// Current time.
    fn now(&self) -> SimTime;
    /// Sends a packet towards the network layer.
    fn emit(&mut self, pkt: XiaPacket);
    /// Arms a timer that must be routed back to the mux (see
    /// [`crate::mux::TransportMux::on_timer`]).
    fn set_timer(&mut self, delay: SimDuration, key: u64);
    /// Delivers an event to the application layer.
    fn deliver(&mut self, event: TransportEvent);
}

/// Per-connection counters, exposed to experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Payload bytes acknowledged by the peer.
    pub bytes_acked: u64,
    /// Payload bytes delivered to the local application.
    pub bytes_received: u64,
    /// Segments retransmitted (RTO, fast retransmit, or migration resume).
    pub retransmits: u64,
    /// Segments retransmitted by fast retransmit.
    pub fast_retransmits: u64,
    /// RTO expirations.
    pub rtos: u64,
}

/// Initial congestion window, in segments.
const INITIAL_CWND_SEGMENTS: u32 = 4;
/// Initial slow-start threshold in bytes.
const INITIAL_SSTHRESH: u64 = 256 * 1024;
/// Lower bound on the retransmission timeout.
const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// Upper bound on the retransmission timeout (backoff cap).
const MAX_RTO: SimDuration = SimDuration::from_secs(10);
/// RTO before any RTT sample exists.
const INITIAL_RTO: SimDuration = SimDuration::from_millis(1000);
/// Receive window advertised to the peer, in bytes.
pub(crate) const RECEIVE_WINDOW: u64 = 2 * 1024 * 1024;

pub(crate) struct Connection {
    /// The mux slot this connection lives in, and the key of its wakes.
    uid: u64,
    pub(crate) id: ConnId,
    pub(crate) state: ConnState,
    config: TransportConfig,
    is_initiator: bool,
    /// Current address of the peer (updated from arriving packets).
    pub(crate) peer_dag: Dag,
    /// Our source address on outgoing packets.
    pub(crate) src_dag: Dag,

    // --- send side ---
    send_buf: SendBuffer,
    snd_una: u64,
    snd_nxt: u64,
    /// Sequence of the FIN, once `close` is called.
    fin_seq: Option<u64>,
    cwnd: u64,
    ssthresh: u64,
    peer_window: u64,
    dup_acks: u32,
    /// NewReno fast recovery: `Some(recover)` until `snd_una` passes the
    /// highest sequence outstanding when loss was detected.
    fast_recovery: Option<u64>,
    rtt: RttEstimator,
    rto_backoff: u32,
    consecutive_rtos: u32,
    /// One timed segment for RTT sampling: (seq_end, sent_at).
    timed: Option<(u64, SimTime)>,
    /// Sequences below this were sent before a go-back-N pull-back and
    /// must not produce RTT samples (Karn's rule).
    karn_until: u64,
    pace_until: SimTime,

    // --- receive side ---
    rcv_nxt: u64,
    out_of_order: BTreeMap<u64, Bytes>,
    peer_fin_seq: Option<u64>,
    peer_closed_delivered: bool,
    /// When the last segment arrived (or the connection started).
    last_heard: SimTime,

    // --- deadlines (the idle one is `last_heard` + the idle limit) ---
    rto_at: Option<SimTime>,
    migrate_at: Option<SimTime>,
    /// When pacing lets a blocked [`Connection::pump`] send again.
    pace_at: Option<SimTime>,
    /// The one wake armed at or before every deadline, until it fires.
    wake: Option<SimTime>,

    pub(crate) stats: ConnStats,
}

impl Connection {
    /// A connection in mux slot `uid`: the initiator is about to
    /// [`Connection::start`], the responder to answer in
    /// [`Connection::on_syn`].
    pub(crate) fn new(
        uid: u64,
        id: ConnId,
        peer_dag: Dag,
        src_dag: Dag,
        config: TransportConfig,
        is_initiator: bool,
    ) -> Self {
        Connection {
            uid,
            id,
            state: if is_initiator {
                ConnState::SynSent
            } else {
                ConnState::SynReceived
            },
            config,
            is_initiator,
            peer_dag,
            src_dag,
            send_buf: SendBuffer::new(1),
            snd_una: 0,
            snd_nxt: 0,
            fin_seq: None,
            cwnd: u64::from(INITIAL_CWND_SEGMENTS) * MSS as u64,
            ssthresh: INITIAL_SSTHRESH,
            peer_window: u64::MAX,
            dup_acks: 0,
            fast_recovery: None,
            rtt: RttEstimator::new(),
            rto_backoff: 0,
            consecutive_rtos: 0,
            timed: None,
            karn_until: 0,
            pace_until: SimTime::ZERO,
            rcv_nxt: 0,
            out_of_order: BTreeMap::new(),
            peer_fin_seq: None,
            peer_closed_delivered: false,
            last_heard: SimTime::ZERO,
            rto_at: None,
            migrate_at: None,
            pace_at: None,
            wake: None,
            stats: ConnStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Whether Closed or Failed has been delivered; the mux reaps the slot.
    pub(crate) fn finished(&self) -> bool {
        matches!(self.state, ConnState::Closed | ConnState::Failed)
    }

    /// The cumulative ack this side would send now (for TIME_WAIT replay).
    pub(crate) fn final_ack(&self) -> u64 {
        self.rcv_nxt
    }

    /// Initiator: transmit the SYN.
    pub(crate) fn start(&mut self, env: &mut dyn TransportEnv) {
        debug_assert_eq!(self.state, ConnState::SynSent);
        self.snd_nxt = 1;
        self.last_heard = env.now();
        self.emit_segment(env, 0, Bytes::new(), SegFlags::SYN);
        // No RTO outlasts the idle limit, so this first wake precedes the
        // idle deadline too.
        self.arm_rto(env);
    }

    /// Responder: answer the SYN (rcv_nxt becomes 1). The configured
    /// accept delay (per-connection session setup in the user-level
    /// daemon) is charged by pushing back the pacing horizon, delaying the
    /// first response data.
    pub(crate) fn on_syn(&mut self, env: &mut dyn TransportEnv) {
        debug_assert_eq!(self.state, ConnState::SynReceived);
        self.rcv_nxt = 1;
        self.snd_nxt = 1;
        self.pace_until = env.now() + self.config.accept_delay;
        self.last_heard = env.now();
        self.emit_segment(env, 0, Bytes::new(), SegFlags::SYN_ACK);
        self.arm_rto(env);
    }

    /// Queues application data for transmission.
    pub(crate) fn send(&mut self, env: &mut dyn TransportEnv, data: Bytes) {
        debug_assert!(self.fin_seq.is_none(), "send after close");
        self.send_buf.append(data);
        self.pump(env);
    }

    /// Closes the send direction after queued data.
    pub(crate) fn close(&mut self, env: &mut dyn TransportEnv) {
        if self.fin_seq.is_none() {
            self.fin_seq = Some(self.send_buf.end());
            self.pump(env);
        }
    }

    /// Aborts the connection: RST to the peer, Failed locally.
    pub(crate) fn abort(&mut self, env: &mut dyn TransportEnv) {
        self.emit_segment(env, self.snd_nxt, Bytes::new(), SegFlags::RST);
        self.fail(env, CloseReason::Aborted);
    }

    /// Pauses for active session migration; after `pause`, resumes from a
    /// new source address with a fresh congestion window.
    pub(crate) fn migrate(&mut self, env: &mut dyn TransportEnv, new_src: Dag, pause: SimDuration) {
        if self.finished() {
            return;
        }
        self.src_dag = new_src;
        self.state = ConnState::Migrating;
        let at = env.now() + pause;
        self.migrate_at = Some(at);
        self.wake_by(env, at);
    }

    /// Handles this connection's wake: acts on every deadline that has
    /// passed (migration end, idle, RTO, pacing, in that order), then
    /// sleeps until the next one.
    pub(crate) fn on_timer(&mut self, env: &mut dyn TransportEnv) {
        let now = env.now();
        let due = |at: Option<SimTime>| at.is_some_and(|at| at <= now);
        if due(self.migrate_at) {
            self.migrate_at = None;
            self.end_migration(env);
        }
        if self.last_heard + self.idle_limit() <= now {
            // E.g. a fetch whose request was acknowledged before the
            // server died: nothing in flight, so no RTO.
            self.fail(env, CloseReason::TimedOut);
        }
        if due(self.rto_at) {
            self.rto_at = None;
            self.on_rto(env);
        }
        if due(self.pace_at) {
            self.pace_at = None;
            self.pump(env);
        }
        // Clearing the record last leaves every push to the sleep below.
        // A late wake clears it too: a record left in the past would keep
        // every later deadline from arming a wake.
        if due(self.wake) {
            self.wake = None;
        }
        self.sleep(env);
    }

    /// How long a connection may hear nothing before it fails: the
    /// longest a live peer keeps retransmitting before it gives up itself.
    fn idle_limit(&self) -> SimDuration {
        MAX_RTO * (u64::from(self.config.max_consecutive_rtos) + 1)
    }

    /// Arms a wake for the earliest deadline. The idle deadline always
    /// exists, so a live connection always has a wake.
    fn sleep(&mut self, env: &mut dyn TransportEnv) {
        if self.finished() {
            return;
        }
        let next = [self.migrate_at, self.rto_at, self.pace_at]
            .into_iter()
            .flatten()
            .fold(self.last_heard + self.idle_limit(), SimTime::min);
        self.wake_by(env, next);
    }

    /// Arms a wake at `at` unless one is already armed at or before it: a
    /// deadline that moves later costs no timer.
    fn wake_by(&mut self, env: &mut dyn TransportEnv, at: SimTime) {
        if self.wake.is_none_or(|wake| at < wake) {
            self.wake = Some(at);
            env.set_timer(at - env.now(), self.uid);
        }
    }

    fn end_migration(&mut self, env: &mut dyn TransportEnv) {
        self.state = if self.snd_una == 0 {
            // Handshake never completed; re-fire the SYN.
            if self.is_initiator {
                ConnState::SynSent
            } else {
                ConnState::SynReceived
            }
        } else {
            ConnState::Established
        };
        // Fresh path: restart congestion state and probe immediately.
        self.cwnd = u64::from(INITIAL_CWND_SEGMENTS) * MSS as u64;
        self.rto_backoff = 0;
        self.consecutive_rtos = 0;
        self.dup_acks = 0;
        self.fast_recovery = None;
        self.timed = None;
        self.go_back_n(env);
        // Probe the peer even if we have nothing in flight: the probe
        // carries our new source address (Snoeren-style migration), so a
        // sender stuck in RTO backoff towards our old locator resumes
        // immediately.
        if self.snd_una > 0 {
            self.emit_segment(env, self.snd_nxt, Bytes::new(), SegFlags::ACK);
        }
        self.pump(env);
        self.arm_rto(env);
    }

    /// Handles an arriving segment addressed to this connection.
    pub(crate) fn on_segment(
        &mut self,
        env: &mut dyn TransportEnv,
        seg: Segment,
        packet_src: &Dag,
    ) {
        if self.finished() {
            return;
        }
        self.last_heard = env.now();
        if self.state == ConnState::Migrating {
            // Active session migration re-establishes the session binding;
            // until it completes nothing can be verified or processed
            // (paper §II-C: AIP-style accountability + session migration).
            return;
        }
        if seg.flags.rst {
            self.fail(env, CloseReason::Reset);
            return;
        }
        // Track the peer's current location (client mobility: the peer's
        // NID changes across handoffs). A moved peer means the old path —
        // and any backed-off RTO pointed at it — is obsolete: retransmit
        // towards the new locator immediately.
        if *packet_src != self.peer_dag {
            self.peer_dag = packet_src.clone();
            if self.flight() > 0 && !matches!(self.state, ConnState::Migrating) {
                // The whole old-path flight is gone with the old locator.
                self.rto_backoff = 0;
                self.cwnd = u64::from(INITIAL_CWND_SEGMENTS) * MSS as u64;
                self.fast_recovery = None;
                self.go_back_n(env);
                self.arm_rto(env);
            }
        }
        self.peer_window = seg.window;

        let mut should_ack = false;

        // --- handshake progression on the receive path ---
        if seg.flags.syn {
            if self.is_initiator {
                // SYN-ACK.
                if self.rcv_nxt == 0 {
                    self.rcv_nxt = 1;
                }
                should_ack = true;
            } else {
                // Duplicate SYN: re-answer.
                self.emit_segment(env, 0, Bytes::new(), SegFlags::SYN_ACK);
            }
        }

        // --- ACK processing ---
        if seg.flags.ack {
            self.process_ack(
                env,
                seg.ack,
                seg.payload.is_empty() && !seg.flags.syn && !seg.flags.fin,
            );
        }

        // --- payload ---
        if !seg.payload.is_empty() {
            self.process_payload(env, seg.seq, seg.payload);
            should_ack = true;
        }

        // --- FIN ---
        if seg.flags.fin {
            let fin_at = seg.seq + if seg.flags.syn { 1 } else { 0 };
            self.peer_fin_seq = Some(fin_at.max(seg.seq));
            should_ack = true;
        }
        self.try_consume_fin(env);

        if should_ack {
            self.emit_segment(env, self.snd_nxt, Bytes::new(), SegFlags::ACK);
        }

        self.maybe_finish(env);
        if !self.finished() {
            self.pump(env);
        }
    }

    fn process_ack(&mut self, env: &mut dyn TransportEnv, ack: u64, pure_ack: bool) {
        if ack > self.snd_nxt {
            if ack <= self.karn_until {
                // Data from a pre-pull-back flight was delivered after all.
                self.snd_nxt = ack;
            } else {
                return; // Acks data we never sent; ignore.
            }
        }
        if ack > self.snd_una {
            let prev_una = self.snd_una;
            self.snd_una = ack;
            self.dup_acks = 0;
            self.consecutive_rtos = 0;
            self.rto_backoff = 0;
            // Release acknowledged payload bytes.
            let data_acked_to = ack.min(self.send_buf.end()).max(self.send_buf.start());
            let released = data_acked_to - self.send_buf.start();
            self.send_buf.release(data_acked_to);
            self.stats.bytes_acked += released;
            // RTT sample (Karn: `timed` is cleared on retransmission).
            if let Some((seq_end, sent_at)) = self.timed {
                if ack >= seq_end {
                    self.rtt.sample(env.now() - sent_at);
                    self.timed = None;
                }
            }
            // Handshake completion.
            if self.state == ConnState::SynSent && ack >= 1 {
                self.state = ConnState::Established;
                // If the SYN-ACK itself was lost and we learn of the
                // handshake from a data segment, account for the peer's SYN.
                if self.rcv_nxt == 0 {
                    self.rcv_nxt = 1;
                }
                env.deliver(TransportEvent::Connected {
                    conn: self.id,
                    peer: self.peer_dag.clone(),
                });
            } else if self.state == ConnState::SynReceived && ack >= 1 {
                self.state = ConnState::Established;
            }
            let newly = ack - prev_una;
            match self.fast_recovery {
                Some(recover) if ack < recover => {
                    // NewReno partial ack: the next hole is at the new
                    // snd_una; retransmit it immediately and deflate.
                    self.stats.fast_retransmits += 1;
                    self.retransmit_head(env);
                    self.cwnd = self.cwnd.saturating_sub(newly).max(MSS as u64) + MSS as u64;
                }
                Some(_) => {
                    // Full ack: leave fast recovery.
                    self.fast_recovery = None;
                    self.cwnd = self.ssthresh;
                }
                None => {
                    // Reno window growth, driven by newly acked bytes.
                    if self.cwnd < self.ssthresh {
                        self.cwnd += newly.min(MSS as u64);
                    } else {
                        let mss = MSS as u64;
                        self.cwnd += (mss * mss / self.cwnd).max(1);
                    }
                }
            }
            if self.flight() > 0 {
                self.arm_rto(env);
            } else {
                self.rto_at = None;
            }
        } else if ack == self.snd_una && pure_ack && self.flight() > 0 {
            if self.consecutive_rtos > 0 {
                // Any feedback during timeout recovery proves the path is
                // alive (e.g. the peer's post-handoff probe): stop waiting
                // out the backed-off timer.
                self.rto_backoff = 0;
                self.go_back_n(env);
                self.arm_rto(env);
                return;
            }
            self.dup_acks += 1;
            if self.fast_recovery.is_some() {
                // Window inflation: each dup ack means a segment left the
                // network.
                self.cwnd += MSS as u64;
            } else if self.dup_acks == 3 {
                self.stats.fast_retransmits += 1;
                let flight = self.flight();
                self.ssthresh = (flight / 2).max(2 * MSS as u64);
                self.cwnd = self.ssthresh + 3 * MSS as u64;
                self.fast_recovery = Some(self.snd_nxt);
                self.retransmit_head(env);
                self.arm_rto(env);
            }
        }
    }

    fn process_payload(&mut self, env: &mut dyn TransportEnv, seq: u64, payload: Bytes) {
        let end = seq + payload.len() as u64;
        if end <= self.rcv_nxt {
            return; // Entirely old.
        }
        if seq <= self.rcv_nxt {
            let skip = (self.rcv_nxt - seq) as usize;
            let fresh = payload.slice(skip..);
            self.rcv_nxt = end;
            self.stats.bytes_received += fresh.len() as u64;
            env.deliver(TransportEvent::Data {
                conn: self.id,
                data: fresh,
            });
            // Drain contiguous out-of-order segments.
            while let Some((&s, _)) = self.out_of_order.first_key_value() {
                if s > self.rcv_nxt {
                    break;
                }
                let Some((_, buf)) = self.out_of_order.pop_first() else {
                    break;
                };
                let buf_end = s + buf.len() as u64;
                if buf_end <= self.rcv_nxt {
                    continue;
                }
                let skip = (self.rcv_nxt - s) as usize;
                let fresh = buf.slice(skip..);
                self.rcv_nxt = buf_end;
                self.stats.bytes_received += fresh.len() as u64;
                env.deliver(TransportEvent::Data {
                    conn: self.id,
                    data: fresh,
                });
            }
        } else {
            self.out_of_order.entry(seq).or_insert(payload);
        }
    }

    fn try_consume_fin(&mut self, env: &mut dyn TransportEnv) {
        if self.peer_closed_delivered {
            return;
        }
        if let Some(fs) = self.peer_fin_seq {
            if fs <= self.rcv_nxt {
                self.rcv_nxt = fs + 1;
                self.peer_closed_delivered = true;
                env.deliver(TransportEvent::PeerClosed { conn: self.id });
            }
        }
    }

    /// Sends as much as windows, pacing and state allow.
    fn pump(&mut self, env: &mut dyn TransportEnv) {
        if !matches!(self.state, ConnState::Established | ConnState::SynReceived) {
            return;
        }
        let had_flight = self.flight() > 0;
        loop {
            let data_end = self.send_buf.end();
            let fin_pending = self
                .fin_seq
                .is_some_and(|f| self.snd_nxt == f && self.snd_nxt == data_end);
            let has_data = self.snd_nxt < data_end && self.snd_nxt >= 1;
            if !has_data && !fin_pending {
                break;
            }
            let window = self.cwnd.min(self.peer_window);
            if !fin_pending && self.flight() >= window {
                break;
            }
            // Pacing: model the user-level stack's per-packet cost.
            let overhead = self.config.per_packet_overhead;
            if overhead > SimDuration::ZERO {
                let now = env.now();
                if now < self.pace_until {
                    self.pace_at = Some(self.pace_until);
                    self.wake_by(env, self.pace_until);
                    break;
                }
                self.pace_until = self.pace_until.max(now) + overhead;
            }
            if fin_pending {
                let fin_at = self.snd_nxt;
                self.snd_nxt += 1;
                self.emit_segment(
                    env,
                    fin_at,
                    Bytes::new(),
                    SegFlags {
                        fin: true,
                        ack: true,
                        ..SegFlags::default()
                    },
                );
            } else {
                let take = MSS.min((data_end - self.snd_nxt) as usize);
                let payload = self.send_buf.slice(self.snd_nxt, take);
                let seq = self.snd_nxt;
                self.snd_nxt += payload.len() as u64;
                if self.timed.is_none() && seq >= self.karn_until {
                    self.timed = Some((self.snd_nxt, env.now()));
                }
                self.emit_segment(env, seq, payload, SegFlags::ACK);
            }
        }
        if !had_flight && self.flight() > 0 {
            self.arm_rto(env);
        }
    }

    fn on_rto(&mut self, env: &mut dyn TransportEnv) {
        if self.finished() || self.state == ConnState::Migrating || self.flight() == 0 {
            return;
        }
        self.stats.rtos += 1;
        self.consecutive_rtos += 1;
        self.fast_recovery = None;
        if self.consecutive_rtos > self.config.max_consecutive_rtos {
            self.fail(env, CloseReason::TimedOut);
            return;
        }
        let flight = self.flight();
        self.ssthresh = (flight / 2).max(2 * MSS as u64);
        self.cwnd = MSS as u64;
        self.rto_backoff = (self.rto_backoff + 1).min(16);
        self.dup_acks = 0;
        self.timed = None; // Karn's rule.
        self.go_back_n(env);
        self.arm_rto(env);
    }

    /// Timeout-class recovery (RFC 5681 go-back-N): everything beyond
    /// `snd_una` is presumed lost — pull `snd_nxt` back so the window
    /// refills from the hole as the congestion window reopens.
    fn go_back_n(&mut self, env: &mut dyn TransportEnv) {
        if self.snd_una == self.snd_nxt {
            return;
        }
        // The SYN/SYN-ACK and FIN retransmit as dedicated frames.
        if self.snd_una == 0 || self.fin_seq == Some(self.snd_una) {
            self.retransmit_head(env);
            return;
        }
        self.karn_until = self.karn_until.max(self.snd_nxt);
        self.snd_nxt = self.snd_una;
        self.stats.retransmits += 1;
        self.timed = None;
        self.pump(env);
    }

    /// Retransmits the segment at `snd_una` (SYN, data, or FIN).
    fn retransmit_head(&mut self, env: &mut dyn TransportEnv) {
        let una = self.snd_una;
        if una == self.snd_nxt {
            return;
        }
        self.stats.retransmits += 1;
        if una == 0 {
            let flags = if self.is_initiator {
                SegFlags::SYN
            } else {
                SegFlags::SYN_ACK
            };
            self.emit_segment(env, 0, Bytes::new(), flags);
        } else if self.fin_seq == Some(una) {
            self.emit_segment(
                env,
                una,
                Bytes::new(),
                SegFlags {
                    fin: true,
                    ack: true,
                    ..SegFlags::default()
                },
            );
        } else {
            let take = MSS.min((self.send_buf.end().saturating_sub(una)) as usize);
            if take == 0 {
                return;
            }
            let payload = self.send_buf.slice(una, take);
            self.emit_segment(env, una, payload, SegFlags::ACK);
        }
    }

    fn arm_rto(&mut self, env: &mut dyn TransportEnv) {
        let base = self
            .rtt
            .rto(INITIAL_RTO)
            .as_micros()
            .clamp(MIN_RTO.as_micros(), MAX_RTO.as_micros());
        let backed_off = (base << self.rto_backoff.min(16)).min(MAX_RTO.as_micros());
        let at = env.now() + SimDuration::from_micros(backed_off);
        self.rto_at = Some(at);
        self.wake_by(env, at);
    }

    fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn expected_send_end(&self) -> Option<u64> {
        self.fin_seq.map(|f| f + 1)
    }

    fn maybe_finish(&mut self, env: &mut dyn TransportEnv) {
        if self.finished() {
            return;
        }
        let send_done = self.expected_send_end().is_some_and(|e| self.snd_una >= e);
        if send_done && self.peer_closed_delivered {
            self.state = ConnState::Closed;
            env.deliver(TransportEvent::Closed { conn: self.id });
        }
    }

    fn fail(&mut self, env: &mut dyn TransportEnv, reason: CloseReason) {
        if self.finished() {
            return;
        }
        self.state = ConnState::Failed;
        env.deliver(TransportEvent::Failed {
            conn: self.id,
            reason,
        });
    }

    fn emit_segment(&self, env: &mut dyn TransportEnv, seq: u64, payload: Bytes, flags: SegFlags) {
        let seg = Segment {
            conn: self.id,
            seq,
            ack: if flags.ack { self.rcv_nxt } else { 0 },
            flags,
            window: RECEIVE_WINDOW,
            payload,
        };
        env.emit(XiaPacket::new(
            self.peer_dag.clone(),
            self.src_dag.clone(),
            L4::Segment(seg),
        ));
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("rcv_nxt", &self.rcv_nxt)
            .field("cwnd", &self.cwnd)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_addr::{Principal, Xid};

    /// Records the packets a connection emits and the wakes it arms.
    #[derive(Default)]
    struct Env {
        now: SimTime,
        out: Vec<XiaPacket>,
        timers: Vec<(SimTime, u64)>,
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
        fn deliver(&mut self, _event: TransportEvent) {}
    }

    #[test]
    fn an_ack_that_only_moves_the_rto_later_arms_no_timer() {
        let hid = Xid::new_random(Principal::Hid, 1);
        let peer = Dag::direct(Xid::new_random(Principal::Hid, 2));
        let id = ConnId {
            initiator: hid,
            port: 1,
        };
        let config = TransportConfig::linux_tcp();
        let mut conn = Connection::new(7, id, peer.clone(), Dag::direct(hid), config, true);
        let mut env = Env::default();
        let segment = |seq, ack, flags| Segment {
            conn: id,
            seq,
            ack,
            flags,
            window: RECEIVE_WINDOW,
            payload: Bytes::new(),
        };
        conn.start(&mut env);
        env.now += SimDuration::from_millis(100);
        conn.on_segment(&mut env, segment(0, 1, SegFlags::SYN_ACK), &peer);
        conn.send(&mut env, Bytes::from(vec![7u8; 3 * MSS]));
        let first = conn.rto_at.expect("data in flight arms the RTO");
        let armed = env.timers.len();

        // The first segment's ACK restarts the RTO from a later instant
        // (with a 500 ms sample, 1.5 s on).
        env.now += SimDuration::from_millis(500);
        let ack = 1 + MSS as u64;
        conn.on_segment(&mut env, segment(1, ack, SegFlags::ACK), &peer);
        let moved = conn.rto_at.expect("two segments are still in flight");
        assert!(moved > first);
        assert_eq!(env.timers.len(), armed, "a later deadline pushed a timer");

        // Firing the wakes in order, the RTO is taken exactly at `moved`.
        env.out.clear();
        while conn.stats.rtos == 0 {
            let next = (0..env.timers.len()).min_by_key(|&i| env.timers[i]);
            let (at, key) = env
                .timers
                .swap_remove(next.expect("a live connection has a wake"));
            assert_eq!(key, 7, "a wake is keyed by the mux slot");
            env.now = at;
            conn.on_timer(&mut env);
        }
        assert_eq!(env.now, moved);
        assert_eq!(env.out.len(), 1, "the head segment is retransmitted");
    }
}
