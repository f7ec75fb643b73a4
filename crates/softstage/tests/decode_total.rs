//! Decoders of bytes that arrive off the wire are total: on any input
//! they answer `Ok`, `Err` or `None`, and never panic.

use simnet::RejectReason;
use softstage::StagingMsg;
use util::check::{check, Gen};
use util::json::Json;
use xcache::{ChunkRequest, ChunkResponseHeader};
use xia_addr::{Principal, Xid};

/// Bytes the decoders branch on: frame tags, principal codes, and the
/// JSON grammar's punctuation, digits, escapes and keyword letters.
const INTERESTING: &[u8] = b"\x00\x01\x02\x03\x04\xff{}[]\":,-+.eE019\\u truefalsn";

/// A byte string of length 0–64: either random bytes drawn half from
/// [`INTERESTING`], or a valid frame cut short and with one byte changed,
/// which reaches the decoders' deeper branches.
fn wire(g: &mut Gen) -> Vec<u8> {
    let mut bytes: Vec<u8> = if g.bool() {
        let len = g.usize_in(0, 64);
        (0..len)
            .map(|_| {
                if g.bool() {
                    *g.choose(INTERESTING)
                } else {
                    g.u64_in(0, 255) as u8
                }
            })
            .collect()
    } else {
        let cid = Xid::new_random(*g.choose(&Principal::ALL), g.u64());
        let valid = match g.usize_in(0, 2) {
            0 => ChunkRequest { cid }.encode(),
            1 => ChunkResponseHeader {
                cid,
                found: g.bool(),
                len: g.u64(),
            }
            .encode(),
            _ => StagingMsg::Reject {
                cid,
                reason: RejectReason::Deadline,
                retry_after_us: g.u64(),
            }
            .encode(),
        };
        valid.to_vec()
    };
    bytes.truncate(g.usize_in(0, 64));
    if !bytes.is_empty() {
        let at = g.usize_in(0, bytes.len() - 1);
        bytes[at] = g.u64_in(0, 255) as u8;
    }
    bytes
}

#[test]
fn wire_decoders_never_panic() {
    check("wire_decoders_never_panic", 4096, |g| {
        let bytes = wire(g);
        let _ = ChunkRequest::decode(&bytes);
        let _ = ChunkResponseHeader::decode(&bytes);
        let _ = StagingMsg::decode(&bytes);
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    });
}
