//! Property-based tests for addressing invariants.

use util::check::{check, Gen};
use xia_addr::{dag, sha1, Dag, DagNode, Principal, Xid};

fn gen_principal(g: &mut Gen) -> Principal {
    *g.choose(&Principal::ALL)
}

fn gen_xid(g: &mut Gen) -> Xid {
    let p = gen_principal(g);
    let bytes = g.bytes(20);
    let mut id = [0u8; 20];
    id.copy_from_slice(&bytes);
    Xid::new(p, id)
}

/// Text form always parses back to the identical XID.
#[test]
fn xid_text_roundtrip() {
    check("xid_text_roundtrip", 256, |g| {
        let xid = gen_xid(g);
        let text = xid.to_text();
        assert_eq!(Xid::from_text(&text).unwrap(), xid);
    });
}

/// XIDs order by principal, then by the id's bytes, whatever the
/// hand-written `Ord` compares. Half the pairs are adversarial: the same
/// id under another principal, or two ids whose first difference is at
/// byte 7, 8, 15, 16 (either side of a word boundary) or 19 (the last),
/// with the bytes after it drawn apart, so a word read in the wrong byte
/// order mis-orders them.
#[test]
fn xid_order_is_byte_order() {
    check("xid_order_is_byte_order", 1024, |g| {
        let a = gen_xid(g);
        let b = if g.bool() {
            gen_xid(g)
        } else {
            let mut id = *a.id();
            match g.usize_in(0, 5) {
                5 => Xid::new(gen_principal(g), id),
                k => {
                    let first = [7, 8, 15, 16, 19][k];
                    id[first] ^= g.u64_in(1, 255) as u8;
                    let rest = g.bytes(19 - first);
                    id[first + 1..].copy_from_slice(&rest);
                    Xid::new(a.principal(), id)
                }
            }
        };
        for (x, y) in [(a, b), (b, a)] {
            let bytes = (x.principal(), *x.id()).cmp(&(y.principal(), *y.id()));
            assert_eq!(x.cmp(&y), bytes, "{x} vs {y}");
            assert_eq!(x.partial_cmp(&y), Some(bytes), "{x} vs {y}");
        }
    });
}

/// CIDs are a pure function of content: equal content, equal CID;
/// hashing is consistent with the one-shot SHA-1.
#[test]
fn cid_matches_sha1() {
    check("cid_matches_sha1", 64, |g| {
        let len = g.usize_in(0, 2047);
        let content = g.bytes(len);
        let cid = Xid::for_content(&content);
        assert_eq!(*cid.id(), sha1::sha1(&content));
        assert_eq!(cid, Xid::for_content(&content));
    });
}

/// Incremental hashing equals one-shot hashing for any split.
#[test]
fn sha1_incremental_equals_oneshot() {
    check("sha1_incremental_equals_oneshot", 64, |g| {
        let len = g.usize_in(0, 4095);
        let content = g.bytes(len);
        let split = if content.is_empty() {
            0
        } else {
            g.usize_in(0, content.len())
        };
        let mut h = sha1::Sha1::new();
        h.update(&content[..split]);
        h.update(&content[split..]);
        assert_eq!(h.finalize(), sha1::sha1(&content));
    });
}

/// The standard fallback DAG always preserves its intent under
/// fallback rewriting, and accessors agree with construction.
#[test]
fn fallback_rewrite_preserves_intent() {
    check("fallback_rewrite_preserves_intent", 256, |g| {
        let cid = Xid::new_random(Principal::Cid, g.u64());
        let nid = Xid::new_random(Principal::Nid, g.u64());
        let hid = Xid::new_random(Principal::Hid, g.u64());
        let dag = Dag::cid_with_fallback(cid, nid, hid);
        assert_eq!(dag.intent(), cid);
        assert_eq!(dag.network(), Some(nid));
        assert_eq!(dag.fallback_host(), Some(hid));
        let new_nid = Xid::new_random(Principal::Nid, g.u64());
        let new_hid = Xid::new_random(Principal::Hid, g.u64());
        let moved = dag.with_fallback(new_nid, new_hid);
        assert_eq!(moved.intent(), cid);
        assert_eq!(moved.network(), Some(new_nid));
    });
}

/// `Dag::from_parts` never panics on arbitrary small graphs: it either
/// builds a DAG whose intent is a sink, or reports a structured error.
#[test]
fn from_parts_total() {
    check("from_parts_total", 512, |g| {
        let n = g.usize_in(1, 5);
        let nodes: Vec<DagNode> = (0..n)
            .map(|_| {
                let xid = Xid::new_random(Principal::Cid, g.u64());
                let edges = g.vec_of(0, 2, |g| g.usize_in(0, 7));
                DagNode { xid, edges }
            })
            .collect();
        let entry = g.vec_of(0, 3, |g| g.usize_in(0, 7));
        if let Ok(dag) = Dag::from_parts(nodes, entry) {
            let intent_idx = dag.intent_index();
            assert!(dag.out_edges(intent_idx).is_empty());
            // Walking any edge chain from SOURCE terminates (acyclic).
            let mut ptr = dag::SOURCE;
            let mut steps = 0;
            while let Some(&e) = dag.out_edges(ptr).first() {
                ptr = e;
                steps += 1;
                assert!(steps <= n, "walk exceeded node count");
            }
        }
    });
}

/// JSON serialization round-trips and re-validates on parse.
#[test]
fn dag_json_roundtrip() {
    use util::json::{FromJson, Json, ToJson};
    check("dag_json_roundtrip", 128, |g| {
        let cid = Xid::new_random(Principal::Cid, g.u64());
        let nid = Xid::new_random(Principal::Nid, g.u64());
        let hid = Xid::new_random(Principal::Hid, g.u64());
        let dag = Dag::cid_with_fallback(cid, nid, hid);
        let text = dag.to_json().to_string_compact();
        let back = Dag::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, dag);
    });
}
