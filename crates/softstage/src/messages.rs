//! The staging signaling protocol (Staging Manager ↔ Staging VNF).
//!
//! Messages ride in best-effort control datagrams; the Staging Manager
//! retries stale requests, and the VNF answers idempotently (a chunk
//! already staged is re-acknowledged immediately). Under overload the
//! VNF answers with an explicit [`StagingMsg::Reject`] instead of
//! silently queueing, carrying the shed reason and an advisory
//! `retry_after_us` back-off the client folds into its retry schedule.

use simnet::RejectReason;
use util::bytes::Bytes;
use util::json::{FromJson, Json, JsonError, ToJson};
use xia_addr::{Dag, Xid};

/// A staging message body.
#[derive(Debug, Clone, PartialEq)]
pub enum StagingMsg {
    /// Manager → VNF: stage these chunks from their origin addresses
    /// (step ④ in the paper's Fig. 2).
    Request {
        /// `(cid, origin DAG)` pairs to stage.
        chunks: Vec<(Xid, Dag)>,
        /// Client's RICH-style usefulness deadline, µs of sim time: the
        /// predicted instant the download will need these chunks.
        deadline_us: u64,
        /// Bytes one of these chunks can take in the edge cache (the
        /// manifest's nominal chunk size): the VNF cannot learn a chunk's
        /// size before it lands, and admits only what its cache can hold.
        chunk_bytes: u64,
    },
    /// VNF → Manager: one chunk's staging outcome (step ⑥).
    Staged {
        /// The chunk.
        cid: Xid,
        /// Whether staging succeeded.
        ok: bool,
        /// Time the VNF took to fetch the chunk from the origin, µs
        /// (`L_S→EdgeNet`); zero if it was already cached.
        staging_latency_us: u64,
        /// NID of the edge network now holding the chunk.
        nid: Xid,
        /// HID of the cache (access router) holding the chunk.
        hid: Xid,
    },
    /// VNF → Manager: the request for one chunk was shed by admission
    /// control or queue backpressure — nothing was queued.
    Reject {
        /// The chunk that was not admitted.
        cid: Xid,
        /// Why it was shed.
        reason: RejectReason,
        /// Advisory back-off before retrying, µs.
        retry_after_us: u64,
    },
}

impl ToJson for StagingMsg {
    fn to_json(&self) -> Json {
        match self {
            StagingMsg::Request {
                chunks,
                deadline_us,
                chunk_bytes,
            } => {
                let chunks = chunks
                    .iter()
                    .map(|(cid, dag)| Json::Arr(vec![cid.to_json(), dag.to_json()]))
                    .collect();
                Json::Obj(vec![
                    ("request".into(), Json::Arr(chunks)),
                    ("deadline_us".into(), deadline_us.to_json()),
                    ("chunk_bytes".into(), chunk_bytes.to_json()),
                ])
            }
            StagingMsg::Staged {
                cid,
                ok,
                staging_latency_us,
                nid,
                hid,
            } => Json::Obj(vec![(
                "staged".into(),
                Json::Obj(vec![
                    ("cid".into(), cid.to_json()),
                    ("ok".into(), ok.to_json()),
                    ("staging_latency_us".into(), staging_latency_us.to_json()),
                    ("nid".into(), nid.to_json()),
                    ("hid".into(), hid.to_json()),
                ]),
            )]),
            StagingMsg::Reject {
                cid,
                reason,
                retry_after_us,
            } => Json::Obj(vec![(
                "reject".into(),
                Json::Obj(vec![
                    ("cid".into(), cid.to_json()),
                    ("reason".into(), Json::Str(reason.name().to_string())),
                    ("retry_after_us".into(), retry_after_us.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for StagingMsg {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Ok(chunks) = v.field("request") {
            let chunks = chunks
                .as_arr()
                .ok_or_else(|| JsonError::new("request must be an array"))?
                .iter()
                .map(|pair| match pair.as_arr() {
                    Some([cid, dag]) => Ok((Xid::from_json(cid)?, Dag::from_json(dag)?)),
                    _ => Err(JsonError::new("chunk entry must be a [cid, dag] pair")),
                })
                .collect::<Result<Vec<_>, JsonError>>()?;
            return Ok(StagingMsg::Request {
                chunks,
                deadline_us: u64::from_json(v.field("deadline_us")?)?,
                chunk_bytes: u64::from_json(v.field("chunk_bytes")?)?,
            });
        }
        if let Ok(r) = v.field("reject") {
            return Ok(StagingMsg::Reject {
                cid: Xid::from_json(r.field("cid")?)?,
                reason: RejectReason::parse(
                    r.field("reason")?
                        .as_str()
                        .ok_or_else(|| JsonError::new("reason must be a string"))?,
                )?,
                retry_after_us: u64::from_json(r.field("retry_after_us")?)?,
            });
        }
        let s = v.field("staged")?;
        Ok(StagingMsg::Staged {
            cid: Xid::from_json(s.field("cid")?)?,
            ok: bool::from_json(s.field("ok")?)?,
            staging_latency_us: u64::from_json(s.field("staging_latency_us")?)?,
            nid: Xid::from_json(s.field("nid")?)?,
            hid: Xid::from_json(s.field("hid")?)?,
        })
    }
}

impl StagingMsg {
    /// Serializes the message for a control datagram body.
    pub fn encode(&self) -> Bytes {
        Bytes::from(self.to_json().to_string_compact().into_bytes())
    }

    /// Parses a control datagram body.
    pub fn decode(body: &[u8]) -> Option<StagingMsg> {
        let text = std::str::from_utf8(body).ok()?;
        StagingMsg::from_json(&Json::parse(text).ok()?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_addr::Principal;

    #[test]
    fn request_roundtrip() {
        let cid = Xid::for_content(b"x");
        let dag = Dag::cid_with_fallback(
            cid,
            Xid::new_random(Principal::Nid, 1),
            Xid::new_random(Principal::Hid, 2),
        );
        let msg = StagingMsg::Request {
            chunks: vec![(cid, dag)],
            deadline_us: 9_500_000,
            chunk_bytes: 262_144,
        };
        assert_eq!(StagingMsg::decode(&msg.encode()), Some(msg));
        for (body, missing) in [
            (&br#"{"request":[],"chunk_bytes":1}"#[..], "a deadline"),
            (br#"{"request":[],"deadline_us":1}"#, "a chunk size"),
        ] {
            assert_eq!(
                StagingMsg::decode(body),
                None,
                "a request without {missing} is dropped"
            );
        }
    }

    #[test]
    fn staged_roundtrip_and_garbage() {
        let msg = StagingMsg::Staged {
            cid: Xid::for_content(b"y"),
            ok: true,
            staging_latency_us: 123_456,
            nid: Xid::new_random(Principal::Nid, 3),
            hid: Xid::new_random(Principal::Hid, 4),
        };
        assert_eq!(StagingMsg::decode(&msg.encode()), Some(msg));
        assert_eq!(StagingMsg::decode(b"not json"), None);
    }

    #[test]
    fn reject_roundtrip() {
        for reason in [RejectReason::QueueDepth, RejectReason::Deadline] {
            let msg = StagingMsg::Reject {
                cid: Xid::for_content(b"z"),
                reason,
                retry_after_us: 2_000_000,
            };
            assert_eq!(StagingMsg::decode(&msg.encode()), Some(msg));
        }
        assert_eq!(
            StagingMsg::decode(br#"{"reject":{"cid":"bogus"}}"#),
            None,
            "malformed rejects are dropped, not panicked on"
        );
    }
}
