//! Typed 160-bit XIA identifiers.

use std::cmp::Ordering;
use std::fmt;

use util::bytes::Bytes;
use util::json::{FromJson, Json, JsonError, ToJson};

use crate::sha1;

/// The principal type of an [`Xid`].
///
/// XIA routers keep one forwarding table per principal type and may support
/// only a subset of types; unsupported intents are skipped via DAG fallback
/// edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Principal {
    /// Content identifier — hash of the chunk payload.
    Cid,
    /// Host identifier — hash of the host public key.
    Hid,
    /// Network identifier — analogous to an IP prefix / AS.
    Nid,
    /// Service identifier — hash of the service public key.
    Sid,
}

impl Principal {
    /// Short uppercase tag used in textual addresses (`CID`, `HID`, ...).
    pub fn tag(self) -> &'static str {
        match self {
            Principal::Cid => "CID",
            Principal::Hid => "HID",
            Principal::Nid => "NID",
            Principal::Sid => "SID",
        }
    }

    /// Parses a tag produced by [`Principal::tag`].
    pub(crate) fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "CID" => Some(Principal::Cid),
            "HID" => Some(Principal::Hid),
            "NID" => Some(Principal::Nid),
            "SID" => Some(Principal::Sid),
            _ => None,
        }
    }

    /// All principal types, in tag order.
    pub const ALL: [Principal; 4] = [
        Principal::Cid,
        Principal::Hid,
        Principal::Nid,
        Principal::Sid,
    ];
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A typed 160-bit XIA identifier.
///
/// # Examples
///
/// ```
/// use xia_addr::{Principal, Xid};
/// let cid = Xid::for_content(b"chunk bytes");
/// assert_eq!(cid.principal(), Principal::Cid);
/// assert_eq!(cid, Xid::for_content(b"chunk bytes"));
/// assert_ne!(cid, Xid::for_content(b"other bytes"));
/// ```
///
/// XIDs order by principal, then by the id's bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Xid {
    principal: Principal,
    id: [u8; 20],
}

impl Xid {
    /// Creates an XID from an explicit 20-byte identifier.
    pub fn new(principal: Principal, id: [u8; 20]) -> Self {
        Xid { principal, id }
    }

    /// Derives a CID from chunk content, exactly as XCache does.
    pub fn for_content(content: &[u8]) -> Self {
        Xid::new(Principal::Cid, sha1::sha1(content))
    }

    /// [`Xid::for_content`] of a shared buffer, hashing each range of its
    /// allocation at most once ([`Bytes::memo_digest`]). Every digest the
    /// memo stores is SHA-1 of its range, so the CID returned is always
    /// that of exactly these bytes.
    pub fn for_bytes(content: &Bytes) -> Self {
        Xid::new(Principal::Cid, content.memo_digest(sha1::sha1))
    }

    /// Derives a deterministic pseudo-random XID from a seed.
    ///
    /// Used for HIDs/NIDs/SIDs in simulations, standing in for the hash of a
    /// public key; two equal seeds yield equal XIDs.
    pub fn new_random(principal: Principal, seed: u64) -> Self {
        let mut material = [0u8; 12];
        material[..8].copy_from_slice(&seed.to_be_bytes());
        material[8..].copy_from_slice(&[principal as u8, 0xd1, 0x5c, 0x0d]);
        Xid::new(principal, sha1::sha1(&material))
    }

    /// The principal type of this XID.
    pub fn principal(&self) -> Principal {
        self.principal
    }

    /// The raw 20-byte identifier.
    pub fn id(&self) -> &[u8; 20] {
        &self.id
    }

    /// The id as big-endian words, which compare as the bytes do.
    #[inline]
    fn words(&self) -> (u64, u64, u32) {
        let mut hi = [0u8; 8];
        let mut mid = [0u8; 8];
        let mut lo = [0u8; 4];
        hi.copy_from_slice(&self.id[..8]);
        mid.copy_from_slice(&self.id[8..16]);
        lo.copy_from_slice(&self.id[16..]);
        (
            u64::from_be_bytes(hi),
            u64::from_be_bytes(mid),
            u32::from_be_bytes(lo),
        )
    }

    /// A short human-readable form: `CID:1a2b3c4d`.
    pub fn short(&self) -> String {
        format!(
            "{}:{:02x}{:02x}{:02x}{:02x}",
            self.principal.tag(),
            self.id[0],
            self.id[1],
            self.id[2],
            self.id[3]
        )
    }

    /// Full textual form: `CID:<40 hex digits>`.
    pub fn to_text(&self) -> String {
        format!("{}:{}", self.principal.tag(), sha1::to_hex(&self.id))
    }

    /// Parses the form produced by [`Xid::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseXidError`] if the tag is unknown or the hex part is not
    /// exactly 40 hex digits.
    pub fn from_text(text: &str) -> Result<Self, ParseXidError> {
        let (tag, hex) = text.split_once(':').ok_or(ParseXidError)?;
        let principal = Principal::from_tag(tag).ok_or(ParseXidError)?;
        if hex.len() != 40 {
            return Err(ParseXidError);
        }
        let mut id = [0u8; 20];
        for (i, byte) in id.iter_mut().enumerate() {
            let pair = &hex[i * 2..i * 2 + 2];
            *byte = u8::from_str_radix(pair, 16).map_err(|_| ParseXidError)?;
        }
        Ok(Xid::new(principal, id))
    }
}

// Every map keyed by XIDs searches with this, so it compares three
// integers rather than 20 bytes one `memcmp` at a time.
impl Ord for Xid {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.principal
            .cmp(&other.principal)
            .then_with(|| self.words().cmp(&other.words()))
    }
}

impl PartialOrd for Xid {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Xid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.short())
    }
}

impl fmt::Display for Xid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl std::str::FromStr for Xid {
    type Err = ParseXidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Xid::from_text(s)
    }
}

impl ToJson for Xid {
    /// XIDs serialize as their textual form, e.g. `"CID:<40 hex digits>"`.
    fn to_json(&self) -> Json {
        Json::Str(self.to_text())
    }
}

impl FromJson for Xid {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let text = v
            .as_str()
            .ok_or_else(|| JsonError::new("expected XID string"))?;
        Xid::from_text(text).map_err(|_| JsonError::new(format!("invalid XID `{text}`")))
    }
}

/// Error returned when parsing an [`Xid`] from text fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseXidError;

impl fmt::Display for ParseXidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid XID syntax")
    }
}

impl std::error::Error for ParseXidError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_cid_is_deterministic() {
        assert_eq!(Xid::for_content(b"abc"), Xid::for_content(b"abc"));
        assert_ne!(Xid::for_content(b"abc"), Xid::for_content(b"abd"));
    }

    #[test]
    fn random_xids_differ_by_seed_and_principal() {
        let a = Xid::new_random(Principal::Hid, 1);
        let b = Xid::new_random(Principal::Hid, 2);
        let c = Xid::new_random(Principal::Nid, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, Xid::new_random(Principal::Hid, 1));
    }

    #[test]
    fn text_roundtrip() {
        for p in Principal::ALL {
            let xid = Xid::new_random(p, 42);
            let text = xid.to_text();
            assert_eq!(Xid::from_text(&text).unwrap(), xid);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Xid::from_text("").is_err());
        assert!(Xid::from_text("CID").is_err());
        assert!(Xid::from_text("XXX:0000").is_err());
        assert!(Xid::from_text("CID:zz").is_err());
        let short = format!("CID:{}", "a".repeat(39));
        assert!(Xid::from_text(&short).is_err());
        let bad_hex = format!("CID:{}", "g".repeat(40));
        assert!(Xid::from_text(&bad_hex).is_err());
    }

    #[test]
    fn short_form_shape() {
        let xid = Xid::new_random(Principal::Sid, 9);
        let s = xid.short();
        assert!(s.starts_with("SID:"));
        assert_eq!(s.len(), 4 + 8);
    }

    #[test]
    fn principal_tag_roundtrip() {
        for p in Principal::ALL {
            assert_eq!(Principal::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Principal::from_tag("cid"), None);
    }

    #[test]
    fn json_roundtrip() {
        let xid = Xid::new_random(Principal::Cid, 3);
        let json = xid.to_json().to_string_compact();
        let back = Xid::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, xid);
        assert!(Xid::from_json(&Json::Str("CID:nothex".into())).is_err());
        assert!(Xid::from_json(&Json::Int(5)).is_err());
    }
}
