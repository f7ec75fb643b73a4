//! XIA DAG addresses.
//!
//! An XIA destination address is a directed acyclic graph of XIDs. A
//! conceptual *source* node has priority-ordered out-edges; routers follow
//! the highest-priority edge they can make progress on and fall back to
//! later edges otherwise. The final *intent* node is what the sender
//! ultimately wants (for SoftStage: a CID).
//!
//! The SoftStage paper only needs the simplified form `CID | NID : HID`
//! ("forward on CID if you can, otherwise route to network NID, then host
//! HID, which can serve the CID"), but this module implements a faithful
//! little DAG so richer addresses (service DAGs, 4-node fallbacks) also
//! work.

use std::fmt;
use std::sync::Arc;

use util::json::{FromJson, Json, JsonError, ToJson};

use crate::xid::{Principal, Xid};

/// Sentinel index representing the conceptual source node of a DAG.
pub const SOURCE: usize = usize::MAX;

/// A node in a [`Dag`]: an XID plus its priority-ordered out-edges
/// (indices into the DAG's node list).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DagNode {
    /// The identifier at this node.
    pub xid: Xid,
    /// Out-edges in fallback priority order (earlier = preferred).
    pub edges: Vec<usize>,
}

/// Error produced when assembling an invalid [`Dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagError {
    /// An edge referenced a node index that does not exist.
    EdgeOutOfRange,
    /// The graph contains a cycle.
    Cyclic,
    /// The graph has no nodes.
    Empty,
    /// No intent node (a node with no out-edges) exists.
    NoIntent,
    /// More than [`Dag::MAX_NODES`] nodes.
    TooLarge,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            DagError::EdgeOutOfRange => "edge references nonexistent node",
            DagError::Cyclic => "address graph contains a cycle",
            DagError::Empty => "address graph has no nodes",
            DagError::NoIntent => "address graph has no sink (intent) node",
            DagError::TooLarge => "address graph has more nodes than a packet can point to",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for DagError {}

/// An XIA DAG address.
///
/// # Examples
///
/// ```
/// use xia_addr::{Dag, Principal, Xid};
/// let cid = Xid::for_content(b"payload");
/// let nid = Xid::new_random(Principal::Nid, 1);
/// let hid = Xid::new_random(Principal::Hid, 2);
/// let dag = Dag::cid_with_fallback(cid, nid, hid);
/// assert_eq!(dag.to_string(), format!("{} | {} : {}", cid, nid, hid));
/// ```
/// A DAG is immutable once assembled, so the representation lives behind
/// an [`Arc`]: cloning an address — which happens for every packet's
/// `(dst, src)` pair on the simulator hot path — is a reference-count
/// bump instead of three `Vec` deep-copies. Equality and hashing remain
/// structural (with a pointer-identity fast path), so two independently
/// built equal addresses still compare and hash equal.
#[derive(Clone)]
pub struct Dag {
    repr: Arc<DagRepr>,
}

struct DagRepr {
    nodes: Vec<DagNode>,
    /// Source out-edges in priority order.
    entry: Vec<usize>,
    /// Index of the intent node.
    intent: usize,
}

impl PartialEq for Dag {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.repr, &other.repr)
            || (self.repr.nodes == other.repr.nodes && self.repr.entry == other.repr.entry)
    }
}
impl Eq for Dag {}
impl std::hash::Hash for Dag {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.repr.nodes.hash(state);
        self.repr.entry.hash(state);
    }
}

impl Dag {
    /// Most nodes a DAG may have. A packet's pointer into its destination
    /// is one byte, as in XIA's header, with one value kept for the
    /// source.
    pub const MAX_NODES: usize = 255;

    /// Wraps validated parts in the shared representation.
    fn assemble(nodes: Vec<DagNode>, entry: Vec<usize>, intent: usize) -> Self {
        Dag {
            repr: Arc::new(DagRepr {
                nodes,
                entry,
                intent,
            }),
        }
    }
    /// Assembles a DAG from parts, validating structure.
    ///
    /// `entry` lists the source node's out-edges in priority order. The
    /// intent is the unique sink reachable from the entry edges; if several
    /// sinks exist the first entry-reachable one (in node order) is chosen.
    ///
    /// # Errors
    ///
    /// Returns a [`DagError`] if the graph is empty, has more than
    /// [`Dag::MAX_NODES`] nodes or dangling edges, contains a cycle, or has
    /// no sink node.
    #[expect(
        clippy::indexing_slicing,
        reason = "the DFS runs after every entry and edge index is checked below nodes.len(), and colors has one slot per node"
    )]
    pub fn from_parts(nodes: Vec<DagNode>, entry: Vec<usize>) -> Result<Self, DagError> {
        if nodes.is_empty() {
            return Err(DagError::Empty);
        }
        if nodes.len() > Dag::MAX_NODES {
            return Err(DagError::TooLarge);
        }
        for e in entry
            .iter()
            .chain(nodes.iter().flat_map(|n| n.edges.iter()))
        {
            if *e >= nodes.len() {
                return Err(DagError::EdgeOutOfRange);
            }
        }
        // Cycle check via DFS coloring.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        fn dfs(nodes: &[DagNode], colors: &mut [Color], v: usize) -> Result<(), DagError> {
            colors[v] = Color::Gray;
            for &w in &nodes[v].edges {
                match colors[w] {
                    Color::Gray => return Err(DagError::Cyclic),
                    Color::White => dfs(nodes, colors, w)?,
                    Color::Black => {}
                }
            }
            colors[v] = Color::Black;
            Ok(())
        }
        let mut colors = vec![Color::White; nodes.len()];
        for &e in &entry {
            if colors[e] == Color::White {
                dfs(&nodes, &mut colors, e)?;
            }
        }
        let intent = nodes
            .iter()
            .zip(colors.iter())
            .position(|(n, c)| *c == Color::Black && n.edges.is_empty())
            .ok_or(DagError::NoIntent)?;
        Ok(Dag::assemble(nodes, entry, intent))
    }

    /// Assembles one of the fixed-shape addresses below. The literal
    /// shapes cannot trip the validator; if a future edit breaks one, the
    /// address degrades to a direct intent-only DAG instead of panicking.
    fn from_static(intent_xid: Xid, nodes: Vec<DagNode>, entry: Vec<usize>) -> Self {
        Dag::from_parts(nodes, entry).unwrap_or_else(|_| {
            Dag::assemble(
                vec![DagNode {
                    xid: intent_xid,
                    edges: vec![],
                }],
                vec![0],
                0,
            )
        })
    }

    /// The paper's `CID | NID : HID` address: fetch content `cid` from
    /// anywhere, falling back to routing into network `nid`, host `hid`,
    /// which can serve the content.
    pub fn cid_with_fallback(cid: Xid, nid: Xid, hid: Xid) -> Self {
        // Node layout: 0 = CID (intent), 1 = NID, 2 = HID.
        let nodes = vec![
            DagNode {
                xid: cid,
                edges: vec![],
            },
            DagNode {
                xid: nid,
                edges: vec![2],
            },
            DagNode {
                xid: hid,
                edges: vec![0],
            },
        ];
        Dag::from_static(cid, nodes, vec![0, 1])
    }

    /// A plain host address `NID : HID` (intent = HID).
    pub fn host(nid: Xid, hid: Xid) -> Self {
        let nodes = vec![
            DagNode {
                xid: hid,
                edges: vec![],
            },
            DagNode {
                xid: nid,
                edges: vec![0],
            },
        ];
        Dag::from_static(hid, nodes, vec![1])
    }

    /// A service address `SID | NID : HID` (intent = SID).
    pub fn service_with_fallback(sid: Xid, nid: Xid, hid: Xid) -> Self {
        let nodes = vec![
            DagNode {
                xid: sid,
                edges: vec![],
            },
            DagNode {
                xid: nid,
                edges: vec![2],
            },
            DagNode {
                xid: hid,
                edges: vec![0],
            },
        ];
        Dag::from_static(sid, nodes, vec![0, 1])
    }

    /// A bare single-XID address (intent only, no fallback).
    pub fn direct(xid: Xid) -> Self {
        Dag::from_static(xid, vec![DagNode { xid, edges: vec![] }], vec![0])
    }

    /// The intent (final destination) node.
    #[expect(
        clippy::indexing_slicing,
        reason = "from_parts sets intent to one of its nodes; indexing keeps the per-hop lookup one load"
    )]
    pub fn intent(&self) -> Xid {
        let intent = self.repr.intent;
        self.repr.nodes[intent].xid
    }

    /// Index of the intent node.
    pub fn intent_index(&self) -> usize {
        self.repr.intent
    }

    /// All nodes of the DAG.
    pub fn nodes(&self) -> &[DagNode] {
        &self.repr.nodes
    }

    /// The XID at node `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (and not [`SOURCE`]).
    #[expect(
        clippy::indexing_slicing,
        reason = "documented contract: node indices come from this DAG's own edges; indexing keeps the per-hop lookup one load"
    )]
    pub fn xid(&self, idx: usize) -> Xid {
        self.repr.nodes[idx].xid
    }

    /// Priority-ordered out-edges of node `idx`, where [`SOURCE`] denotes
    /// the conceptual source node.
    #[expect(
        clippy::indexing_slicing,
        reason = "node indices come from this DAG's own edges; indexing keeps the per-hop lookup one load"
    )]
    pub fn out_edges(&self, idx: usize) -> &[usize] {
        if idx == SOURCE {
            &self.repr.entry
        } else {
            &self.repr.nodes[idx].edges
        }
    }

    /// First NID appearing in the DAG, if any — the "network locator".
    pub fn network(&self) -> Option<Xid> {
        self.repr
            .nodes
            .iter()
            .map(|n| n.xid)
            .find(|x| x.principal() == Principal::Nid)
    }

    /// First HID appearing in the DAG, if any — the fallback host that can
    /// serve the intent.
    pub fn fallback_host(&self) -> Option<Xid> {
        self.repr
            .nodes
            .iter()
            .map(|n| n.xid)
            .find(|x| x.principal() == Principal::Hid)
    }

    /// Rewrites the `NID : HID` fallback of a `CID | NID : HID` address.
    ///
    /// This is the operation the Staging VNF's "chunk staged" reply enables:
    /// the Chunk Profile's *New DAG* points the fallback at the edge network
    /// holding the staged chunk instead of the origin server.
    pub fn with_fallback(&self, nid: Xid, hid: Xid) -> Dag {
        Dag::cid_with_fallback(self.intent(), nid, hid)
    }
}

impl ToJson for DagNode {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("xid".into(), self.xid.to_json()),
            ("edges".into(), self.edges.to_json()),
        ])
    }
}

impl FromJson for DagNode {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(DagNode {
            xid: Xid::from_json(v.field("xid")?)?,
            edges: Vec::from_json(v.field("edges")?)?,
        })
    }
}

impl ToJson for Dag {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nodes".into(), self.repr.nodes.to_json()),
            ("entry".into(), self.repr.entry.to_json()),
        ])
    }
}

impl FromJson for Dag {
    /// Deserialization re-validates through [`Dag::from_parts`], so a
    /// hand-edited or corrupted document cannot produce a cyclic address.
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let nodes = Vec::from_json(v.field("nodes")?)?;
        let entry = Vec::from_json(v.field("entry")?)?;
        Dag::from_parts(nodes, entry).map_err(|e| JsonError::new(format!("invalid DAG: {e}")))
    }
}

impl fmt::Display for Dag {
    /// Formats common shapes in the paper's notation (`CID | NID : HID`),
    /// falling back to an explicit node list for exotic DAGs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Recognize the 3-node fallback shape.
        let nodes = &self.repr.nodes;
        let entry = &self.repr.entry;
        match (nodes.as_slice(), entry.as_slice()) {
            ([cid, nid, hid], [0, 1]) => {
                return write!(f, "{} | {} : {}", cid.xid, nid.xid, hid.xid)
            }
            ([intent, net], [1]) => return write!(f, "{} : {}", net.xid, intent.xid),
            ([only], _) => return write!(f, "{}", only.xid),
            _ => {}
        }
        write!(f, "DAG{{entry={entry:?}")?;
        for (i, n) in nodes.iter().enumerate() {
            write!(f, ", {}={} -> {:?}", i, n.xid, n.edges)?;
        }
        f.write_str("}")
    }
}

impl fmt::Debug for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Compact: reuse Display but with short XIDs.
        let nodes = &self.repr.nodes;
        if let ([cid, nid, hid], [0, 1]) = (nodes.as_slice(), self.repr.entry.as_slice()) {
            return write!(
                f,
                "{} | {} : {}",
                cid.xid.short(),
                nid.xid.short(),
                hid.xid.short()
            );
        }
        write!(
            f,
            "Dag({} nodes, intent {})",
            nodes.len(),
            self.intent().short()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xids() -> (Xid, Xid, Xid) {
        (
            Xid::for_content(b"chunk"),
            Xid::new_random(Principal::Nid, 1),
            Xid::new_random(Principal::Hid, 2),
        )
    }

    #[test]
    fn cid_fallback_shape() {
        let (cid, nid, hid) = xids();
        let dag = Dag::cid_with_fallback(cid, nid, hid);
        assert_eq!(dag.intent(), cid);
        assert_eq!(dag.network(), Some(nid));
        assert_eq!(dag.fallback_host(), Some(hid));
        // Source tries CID first, then NID.
        assert_eq!(dag.out_edges(SOURCE), &[0, 1]);
        // NID leads to HID, HID leads to CID.
        assert_eq!(dag.out_edges(1), &[2]);
        assert_eq!(dag.out_edges(2), &[0]);
        assert_eq!(dag.out_edges(0), &[] as &[usize]);
    }

    #[test]
    fn host_dag() {
        let (_, nid, hid) = xids();
        let dag = Dag::host(nid, hid);
        assert_eq!(dag.intent(), hid);
        assert_eq!(dag.network(), Some(nid));
        assert_eq!(dag.out_edges(SOURCE), &[1]);
    }

    #[test]
    fn direct_dag() {
        let (cid, _, _) = xids();
        let dag = Dag::direct(cid);
        assert_eq!(dag.intent(), cid);
        assert_eq!(dag.network(), None);
        assert_eq!(dag.fallback_host(), None);
    }

    #[test]
    fn with_fallback_rewrites_locator_keeps_intent() {
        let (cid, nid, hid) = xids();
        let dag = Dag::cid_with_fallback(cid, nid, hid);
        let edge_nid = Xid::new_random(Principal::Nid, 10);
        let edge_hid = Xid::new_random(Principal::Hid, 11);
        let new = dag.with_fallback(edge_nid, edge_hid);
        assert_eq!(new.intent(), cid);
        assert_eq!(new.network(), Some(edge_nid));
        assert_eq!(new.fallback_host(), Some(edge_hid));
    }

    #[test]
    fn rejects_cycles() {
        let (cid, nid, _) = xids();
        let nodes = vec![
            DagNode {
                xid: cid,
                edges: vec![1],
            },
            DagNode {
                xid: nid,
                edges: vec![0],
            },
        ];
        assert_eq!(Dag::from_parts(nodes, vec![0]), Err(DagError::Cyclic));
    }

    #[test]
    fn rejects_dangling_edges_and_empty() {
        let (cid, _, _) = xids();
        assert_eq!(Dag::from_parts(vec![], vec![]), Err(DagError::Empty));
        let nodes = vec![DagNode {
            xid: cid,
            edges: vec![5],
        }];
        assert_eq!(
            Dag::from_parts(nodes, vec![0]),
            Err(DagError::EdgeOutOfRange)
        );
    }

    /// A chain of `n` nodes, entered at its head: node `i` leads to `i + 1`.
    fn chain(n: usize) -> Result<Dag, DagError> {
        let (cid, _, _) = xids();
        let nodes = (0..n)
            .map(|i| DagNode {
                xid: cid,
                edges: if i + 1 < n { vec![i + 1] } else { vec![] },
            })
            .collect();
        Dag::from_parts(nodes, vec![0])
    }

    #[test]
    fn node_count_stops_where_a_one_byte_pointer_does() {
        let longest = chain(Dag::MAX_NODES).expect("MAX_NODES nodes assemble");
        assert_eq!(longest.intent_index(), Dag::MAX_NODES - 1);
        assert_eq!(chain(Dag::MAX_NODES + 1), Err(DagError::TooLarge));
    }

    #[test]
    fn rejects_entry_out_of_range() {
        let (cid, _, _) = xids();
        let nodes = vec![DagNode {
            xid: cid,
            edges: vec![],
        }];
        assert_eq!(
            Dag::from_parts(nodes, vec![3]),
            Err(DagError::EdgeOutOfRange)
        );
    }

    #[test]
    fn display_matches_paper_notation() {
        let (cid, nid, hid) = xids();
        let dag = Dag::cid_with_fallback(cid, nid, hid);
        assert_eq!(dag.to_string(), format!("{cid} | {nid} : {hid}"));
        let host = Dag::host(nid, hid);
        assert_eq!(host.to_string(), format!("{nid} : {hid}"));
    }

    #[test]
    fn service_dag_intent_is_sid() {
        let sid = Xid::new_random(Principal::Sid, 5);
        let (_, nid, hid) = xids();
        let dag = Dag::service_with_fallback(sid, nid, hid);
        assert_eq!(dag.intent(), sid);
        assert_eq!(dag.fallback_host(), Some(hid));
    }

    #[test]
    fn json_roundtrip_and_validation() {
        let (cid, nid, hid) = xids();
        let dag = Dag::cid_with_fallback(cid, nid, hid);
        let json = dag.to_json().to_string_compact();
        let back = Dag::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, dag);
        // A document describing a cyclic graph is rejected at parse time.
        let cyclic = Json::parse(&format!(
            "{{\"nodes\":[{{\"xid\":\"{cid}\",\"edges\":[1]}},{{\"xid\":\"{nid}\",\"edges\":[0]}}],\"entry\":[0]}}"
        ))
        .unwrap();
        assert!(Dag::from_json(&cyclic).is_err());
    }
}
