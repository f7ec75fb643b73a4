//! XIA wire formats shared by the whole stack.
//!
//! An [`XiaPacket`] carries a destination [`Dag`] plus a *DAG pointer*
//! recording how far along the address the packet has progressed, a source
//! DAG for replies, and one of three payloads:
//!
//! - [`Segment`]: a segment of the TCP-like reliable transport used for
//!   chunk and stream transfers (`xia-transport`),
//! - [`Control`](L4::Control): a connectionless datagram addressed to a
//!   service, used by SoftStage's staging signaling (Staging Manager ↔
//!   Staging VNF),
//! - [`Beacon`]: the access-network advertisement of the Network Joining
//!   Protocol, carrying RSS and the staging VNF address, heard on the
//!   client's *sensor* interface.
//!
//! Sizes reported to the simulator include realistic header overheads so
//! serialization delays match the prototype's on-air behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use util::bytes::Bytes;
use xia_addr::{dag::SOURCE, Dag, ProbeKey, Xid};

/// Conventional maximum transport payload per packet (bytes), chosen so a
/// full segment plus XIA headers fits a 1500-byte Ethernet frame budget
/// with room for the larger XIA addresses.
pub const MSS: usize = 1400;

/// Bytes of header overhead per DAG node (XID + edge table entry).
const DAG_NODE_WIRE: usize = 24;
/// Fixed network-header overhead besides the DAGs.
const NET_HDR_WIRE: usize = 8;
/// Transport header overhead.
const SEG_HDR_WIRE: usize = 32;
/// Control/beacon framing overhead.
const CTRL_HDR_WIRE: usize = 16;

/// Identifier of one transport connection: the initiating host plus an
/// initiator-chosen port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId {
    /// HID of the connection initiator.
    pub initiator: Xid,
    /// Initiator-local port, unique per connection.
    pub port: u64,
}

impl ProbeKey for ConnId {
    /// The initiator's bits with the port spread over them by an odd
    /// multiplier, so one initiator's consecutive ports take distinct
    /// slots.
    #[inline]
    fn probe_hash(&self) -> u64 {
        self.initiator.probe_hash() ^ self.port.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Transport segment flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegFlags {
    /// Connection open request (carries no payload).
    pub syn: bool,
    /// Acknowledgment field is valid.
    pub ack: bool,
    /// Sender has no more data after this segment.
    pub fin: bool,
    /// Abort: peer state is gone.
    pub rst: bool,
}

impl SegFlags {
    /// Flags for a bare SYN.
    pub const SYN: SegFlags = SegFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
    };
    /// Flags for a SYN-ACK.
    pub const SYN_ACK: SegFlags = SegFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    /// Flags for a pure ACK.
    pub const ACK: SegFlags = SegFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    /// Flags for a RST.
    pub const RST: SegFlags = SegFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
    };
}

/// A reliable-transport segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The connection this segment belongs to.
    pub conn: ConnId,
    /// First byte offset carried by `payload` (SYN/FIN occupy one sequence
    /// number each, as in TCP).
    pub seq: u64,
    /// Cumulative acknowledgment (next expected byte), valid when
    /// `flags.ack`.
    pub ack: u64,
    /// Segment flags.
    pub flags: SegFlags,
    /// Receiver window in bytes.
    pub window: u64,
    /// Payload bytes (zero-copy slice of the chunk being transferred).
    pub payload: Bytes,
}

impl Segment {
    /// Wire size of this segment including its header.
    pub fn wire_size(&self) -> usize {
        SEG_HDR_WIRE + self.payload.len()
    }
}

/// Access-network advertisement (Network Joining Protocol beacon).
///
/// Broadcast periodically by edge networks; the client's sensor interface
/// uses it for RSS-based network selection and staging-VNF discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct Beacon {
    /// Network identifier of the advertising edge network.
    pub nid: Xid,
    /// HID of the advertising access router.
    pub hid: Xid,
    /// Received signal strength the client would see, in dBm.
    pub rss_dbm: f64,
    /// Address of the staging VNF in this network, if deployed.
    pub staging_vnf: Option<Dag>,
}

/// Transport-layer payload of an [`XiaPacket`].
#[derive(Debug, Clone, PartialEq)]
pub enum L4 {
    /// Reliable-transport segment.
    Segment(Segment),
    /// Connectionless service datagram: `(service, correlation id, body)`.
    /// Delivery is best-effort; applications retry.
    Control {
        /// The service (SID) this datagram addresses.
        service: Xid,
        /// Correlation id echoed in replies.
        token: u64,
        /// Serialized application message.
        body: Bytes,
    },
    /// Network advertisement heard on the sensor interface.
    Beacon(Beacon),
}

/// [`XiaPacket::dst_ptr`]'s byte for [`SOURCE`]. As in XIA's header the
/// pointer is one byte, and no [`Dag`] has a node with this index.
const PTR_SOURCE: u8 = u8::MAX;

const _: () = assert!(Dag::MAX_NODES <= PTR_SOURCE as usize);

/// An XIA network-layer packet.
#[derive(Debug, Clone, PartialEq)]
pub struct XiaPacket {
    /// Destination address.
    pub dst: Dag,
    /// Source address for replies.
    pub src: Dag,
    /// The last reached node of `dst`, [`PTR_SOURCE`] if none yet.
    dst_ptr: u8,
    /// Remaining hops before the packet is discarded.
    pub hop_limit: u8,
    /// Transport payload.
    pub l4: L4,
}

// A packet in flight is the bulk of a simulator event, which must fit in
// the 128 bytes a move is inlined at (`Simulator::EVENT_BYTES`).
const _: () = assert!(std::mem::size_of::<XiaPacket>() <= 104);
const _: () = assert!(simnet::Simulator::<XiaPacket>::EVENT_BYTES <= 128);

impl XiaPacket {
    /// Default hop limit for new packets.
    pub(crate) const DEFAULT_HOP_LIMIT: u8 = 32;

    /// Creates a packet at the conceptual source of its destination DAG.
    pub fn new(dst: Dag, src: Dag, l4: L4) -> Self {
        XiaPacket {
            dst,
            src,
            dst_ptr: PTR_SOURCE,
            hop_limit: Self::DEFAULT_HOP_LIMIT,
            l4,
        }
    }

    /// Index of the last reached node of `dst` ([`SOURCE`] if none yet).
    /// Routers advance it as the packet makes progress.
    pub fn dst_ptr(&self) -> usize {
        match self.dst_ptr {
            PTR_SOURCE => SOURCE,
            ptr => usize::from(ptr),
        }
    }

    /// Records `ptr`, a node index of `dst` or [`SOURCE`], as the last
    /// reached node.
    ///
    /// # Panics
    ///
    /// Panics if `ptr` is any other index at or past [`Dag::MAX_NODES`],
    /// which no node of a [`Dag`] has.
    pub fn set_dst_ptr(&mut self, ptr: usize) {
        let byte = u8::try_from(ptr).unwrap_or(PTR_SOURCE);
        assert!(
            byte != PTR_SOURCE || ptr == SOURCE,
            "DAG pointer {ptr} is past the last node any address has"
        );
        self.dst_ptr = byte;
    }

    /// The final intent of the destination address.
    pub fn intent(&self) -> Xid {
        self.dst.intent()
    }
}

impl simnet::Message for XiaPacket {
    fn wire_size(&self) -> usize {
        let dags = (self.dst.nodes().len() + self.src.nodes().len()) * DAG_NODE_WIRE;
        let l4 = match &self.l4 {
            L4::Segment(seg) => seg.wire_size(),
            L4::Control { body, .. } => CTRL_HDR_WIRE + body.len(),
            L4::Beacon(b) => {
                CTRL_HDR_WIRE
                    + 48
                    + b.staging_vnf
                        .as_ref()
                        .map_or(0, |d| d.nodes().len() * DAG_NODE_WIRE)
            }
        };
        NET_HDR_WIRE + dags + l4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Message;
    use xia_addr::Principal;

    fn addrs() -> (Dag, Dag) {
        let cid = Xid::for_content(b"c");
        let nid = Xid::new_random(Principal::Nid, 1);
        let hid = Xid::new_random(Principal::Hid, 2);
        let chid = Xid::new_random(Principal::Hid, 3);
        (Dag::cid_with_fallback(cid, nid, hid), Dag::host(nid, chid))
    }

    fn conn() -> ConnId {
        ConnId {
            initiator: Xid::new_random(Principal::Hid, 3),
            port: 7,
        }
    }

    #[test]
    fn data_segment_wire_size_includes_payload_and_headers() {
        let (dst, src) = addrs();
        let seg = Segment {
            conn: conn(),
            seq: 0,
            ack: 0,
            flags: SegFlags::default(),
            window: 65535,
            payload: Bytes::from(vec![0u8; MSS]),
        };
        let pkt = XiaPacket::new(dst, src, L4::Segment(seg));
        // 3 + 2 DAG nodes * 24 + 8 net hdr + 32 seg hdr + payload.
        assert_eq!(pkt.wire_size(), 8 + 5 * 24 + 32 + MSS);
        // Stays within a jumbo-free budget of 1600 bytes.
        assert!(pkt.wire_size() <= 1600);
    }

    #[test]
    fn pure_ack_is_small() {
        let (dst, src) = addrs();
        let seg = Segment {
            conn: conn(),
            seq: 0,
            ack: 1400,
            flags: SegFlags::ACK,
            window: 65535,
            payload: Bytes::new(),
        };
        let pkt = XiaPacket::new(dst, src, L4::Segment(seg));
        assert!(pkt.wire_size() < 200);
    }

    #[test]
    fn new_packet_starts_at_source_with_default_ttl() {
        let (dst, src) = addrs();
        let pkt = XiaPacket::new(
            dst.clone(),
            src,
            L4::Control {
                service: Xid::new_random(Principal::Sid, 9),
                token: 1,
                body: Bytes::from_static(b"{}"),
            },
        );
        assert_eq!(pkt.dst_ptr(), SOURCE);
        assert_eq!(pkt.hop_limit, XiaPacket::DEFAULT_HOP_LIMIT);
        assert_eq!(pkt.intent(), dst.intent());
    }

    #[test]
    fn dst_ptr_holds_every_node_index_and_the_source() {
        let (dst, src) = addrs();
        let mut pkt = XiaPacket::new(dst, src, L4::Beacon(beacon()));
        for ptr in [0, 1, Dag::MAX_NODES - 1, SOURCE] {
            pkt.set_dst_ptr(ptr);
            assert_eq!(pkt.dst_ptr(), ptr);
        }
    }

    #[test]
    #[should_panic(expected = "DAG pointer 255")]
    fn dst_ptr_past_the_last_node_panics_rather_than_reads_as_the_source() {
        let (dst, src) = addrs();
        XiaPacket::new(dst, src, L4::Beacon(beacon())).set_dst_ptr(Dag::MAX_NODES);
    }

    fn beacon() -> Beacon {
        Beacon {
            nid: Xid::new_random(Principal::Nid, 1),
            hid: Xid::new_random(Principal::Hid, 2),
            rss_dbm: -60.0,
            staging_vnf: None,
        }
    }

    #[test]
    fn beacon_size_grows_with_vnf_dag() {
        let (dst, src) = addrs();
        let nid = Xid::new_random(Principal::Nid, 1);
        let hid = Xid::new_random(Principal::Hid, 2);
        let bare = XiaPacket::new(
            dst.clone(),
            src.clone(),
            L4::Beacon(Beacon {
                nid,
                hid,
                rss_dbm: -60.0,
                staging_vnf: None,
            }),
        );
        let with_vnf = XiaPacket::new(
            dst,
            src,
            L4::Beacon(Beacon {
                nid,
                hid,
                rss_dbm: -60.0,
                staging_vnf: Some(Dag::service_with_fallback(
                    Xid::new_random(Principal::Sid, 4),
                    nid,
                    hid,
                )),
            }),
        );
        assert!(with_vnf.wire_size() > bare.wire_size());
    }

    #[test]
    fn flag_constants() {
        assert!(SegFlags::SYN.syn && !SegFlags::SYN.ack);
        assert!(SegFlags::SYN_ACK.syn && SegFlags::SYN_ACK.ack);
        assert!(SegFlags::ACK.ack && !SegFlags::ACK.syn);
        assert!(SegFlags::RST.rst);
    }
}
