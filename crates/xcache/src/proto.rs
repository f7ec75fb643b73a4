//! The chunk-fetch wire protocol spoken over a transport connection.
//!
//! A fetch is one short-lived reliable connection (the paper's *XChunkP*
//! pattern): the client connects to the chunk's DAG (`CID | NID : HID`),
//! sends a [`ChunkRequest`] frame, and the serving XCache answers with a
//! response header followed by the raw chunk bytes, then closes.

use util::bytes::{Bytes, BytesMut};
use xia_addr::{Principal, Xid};

/// Frame tag of a chunk request.
const TAG_REQUEST: u8 = 0x01;
/// Frame tag of a chunk response header.
const TAG_RESPONSE: u8 = 0x02;

/// Wire length of a request frame.
pub(crate) const REQUEST_LEN: usize = 1 + 1 + 20;
/// Wire length of a response header frame.
pub(crate) const RESPONSE_HDR_LEN: usize = 1 + 1 + 1 + 20 + 8;

/// A request for one chunk by CID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRequest {
    /// The requested content identifier.
    pub cid: Xid,
}

impl ChunkRequest {
    /// Encodes the request frame.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(REQUEST_LEN);
        b.put_u8(TAG_REQUEST);
        b.put_u8(principal_code(self.cid.principal()));
        b.put_slice(self.cid.id());
        b.freeze()
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] on a bad tag, unknown principal, or short
    /// frame.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let [tag, code, id @ ..] = *buf
            .first_chunk::<REQUEST_LEN>()
            .ok_or(ProtoError::Truncated)?;
        if tag != TAG_REQUEST {
            return Err(ProtoError::BadTag);
        }
        let principal = principal_from_code(code).ok_or(ProtoError::BadPrincipal)?;
        Ok(ChunkRequest {
            cid: Xid::new(principal, id),
        })
    }
}

/// The header preceding chunk bytes in a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkResponseHeader {
    /// The CID being answered.
    pub cid: Xid,
    /// Whether the chunk was found; if false, `len` is zero and no body
    /// follows.
    pub found: bool,
    /// Body length in bytes.
    pub len: u64,
}

impl ChunkResponseHeader {
    /// Encodes the response header frame.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(RESPONSE_HDR_LEN);
        b.put_u8(TAG_RESPONSE);
        b.put_u8(u8::from(self.found));
        b.put_u8(principal_code(self.cid.principal()));
        b.put_slice(self.cid.id());
        b.put_u64(self.len);
        b.freeze()
    }

    /// Decodes a response header frame.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] on a bad tag, unknown principal, or short
    /// frame.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let (&[tag, found, code], rest) =
            buf.split_first_chunk::<3>().ok_or(ProtoError::Truncated)?;
        let (&id, rest) = rest
            .split_first_chunk::<20>()
            .ok_or(ProtoError::Truncated)?;
        let &len = rest.first_chunk::<8>().ok_or(ProtoError::Truncated)?;
        if tag != TAG_RESPONSE {
            return Err(ProtoError::BadTag);
        }
        let principal = principal_from_code(code).ok_or(ProtoError::BadPrincipal)?;
        Ok(ChunkResponseHeader {
            cid: Xid::new(principal, id),
            found: found != 0,
            len: u64::from_be_bytes(len),
        })
    }
}

fn principal_code(p: Principal) -> u8 {
    match p {
        Principal::Cid => 0,
        Principal::Hid => 1,
        Principal::Nid => 2,
        Principal::Sid => 3,
    }
}

fn principal_from_code(c: u8) -> Option<Principal> {
    match c {
        0 => Some(Principal::Cid),
        1 => Some(Principal::Hid),
        2 => Some(Principal::Nid),
        3 => Some(Principal::Sid),
        _ => None,
    }
}

/// Errors decoding protocol frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Not enough bytes for the frame.
    Truncated,
    /// Unexpected frame tag.
    BadTag,
    /// Unknown principal code.
    BadPrincipal,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ProtoError::Truncated => "truncated protocol frame",
            ProtoError::BadTag => "unexpected frame tag",
            ProtoError::BadPrincipal => "unknown principal code",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ProtoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = ChunkRequest {
            cid: Xid::for_content(b"payload"),
        };
        let wire = req.encode();
        assert_eq!(wire.len(), REQUEST_LEN);
        assert_eq!(ChunkRequest::decode(&wire).unwrap(), req);
    }

    #[test]
    fn response_roundtrip_found_and_missing() {
        for (found, len) in [(true, 2_000_000u64), (false, 0)] {
            let hdr = ChunkResponseHeader {
                cid: Xid::for_content(b"x"),
                found,
                len,
            };
            let wire = hdr.encode();
            assert_eq!(wire.len(), RESPONSE_HDR_LEN);
            assert_eq!(ChunkResponseHeader::decode(&wire).unwrap(), hdr);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(ChunkRequest::decode(&[]), Err(ProtoError::Truncated));
        assert_eq!(
            ChunkRequest::decode(&[0xFF; REQUEST_LEN]),
            Err(ProtoError::BadTag)
        );
        let mut bad = ChunkRequest {
            cid: Xid::for_content(b"x"),
        }
        .encode()
        .to_vec();
        bad[1] = 200;
        assert_eq!(ChunkRequest::decode(&bad), Err(ProtoError::BadPrincipal));
        assert_eq!(
            ChunkResponseHeader::decode(&[TAG_RESPONSE; 4]),
            Err(ProtoError::Truncated)
        );
    }

    #[test]
    fn all_principals_roundtrip() {
        for p in Principal::ALL {
            let req = ChunkRequest {
                cid: Xid::new_random(p, 5),
            };
            assert_eq!(ChunkRequest::decode(&req.encode()).unwrap(), req);
            let hdr = ChunkResponseHeader {
                cid: req.cid,
                found: true,
                len: 0x0102_0304_0506_0708,
            };
            assert_eq!(ChunkResponseHeader::decode(&hdr.encode()).unwrap(), hdr);
        }
    }
}
