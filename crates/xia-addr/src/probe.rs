//! A table keyed by identifiers that are already hashes.
//!
//! Every key on the forwarding path — an [`Xid`], or a connection named by
//! its initiator's HID — carries SHA-1 output, so its own bits are a
//! uniform hash. [`ProbeTable`] indexes with them directly: open
//! addressing with linear probing, at most half full, and backward-shift
//! deletion (no tombstones), so a lookup is one hash-free probe that
//! usually ends at the key's home slot.
//!
//! The table has no iteration API. Its slot order depends on the keys'
//! bits and on the insertion history, and nothing can read that order, so
//! no output can depend on it; the workspace's ordered maps
//! (`BTreeMap`) stay where something iterates.

use crate::xid::Xid;

/// A key whose own bits serve as its hash.
pub trait ProbeKey: Copy + Eq {
    /// 64 uniformly distributed bits of the key. Equal keys give equal
    /// values; the table reads the low bits.
    fn probe_hash(&self) -> u64;
}

impl ProbeKey for Xid {
    /// The first 8 id bytes, with the principal folded into the low bits:
    /// the same id under two principals lands on neighbouring slots.
    #[inline]
    fn probe_hash(&self) -> u64 {
        let mut head = [0u8; 8];
        head.copy_from_slice(&self.id()[..8]);
        u64::from_le_bytes(head) ^ self.principal() as u64
    }
}

/// An open-addressed map from [`ProbeKey`]s to values; see the
/// [module docs](self).
///
/// # Examples
///
/// ```
/// use xia_addr::{Principal, ProbeTable, Xid};
/// let hid = Xid::new_random(Principal::Hid, 1);
/// let mut t = ProbeTable::new();
/// assert_eq!(t.insert(hid, 7), None);
/// assert_eq!(t.insert(hid, 8), Some(7));
/// assert_eq!(t.get(&hid), Some(&8));
/// assert_eq!(t.remove(&hid), Some(8));
/// assert!(t.is_empty());
/// ```
pub struct ProbeTable<K, V> {
    /// A power of two long (or empty), and at least twice `len`, so a
    /// probe always meets an empty slot.
    slots: Vec<Option<(K, V)>>,
    len: usize,
}

impl<K: ProbeKey, V> ProbeTable<K, V> {
    /// Slots allocated by the first insertion.
    const MIN_SLOTS: usize = 8;

    /// An empty table; it allocates at the first insertion.
    pub fn new() -> Self {
        ProbeTable {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no key.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        let (_, v) = self.slots.get(self.position(key)?)?.as_ref()?;
        Some(v)
    }

    /// The slot holding `key`.
    #[inline]
    fn position(&self, key: &K) -> Option<usize> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = key.probe_hash() as usize & mask;
        // Keys sharing a chain sit contiguously from their home slot up
        // to the next empty slot; a different key only means "go on".
        while let Some(Some((k, _))) = self.slots.get(i) {
            if k == key {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Stores `value` under `key`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = key.probe_hash() as usize & mask;
        loop {
            match self.slots.get_mut(i) {
                Some(Some((k, v))) if *k == key => return Some(std::mem::replace(v, value)),
                Some(Some(_)) => i = (i + 1) & mask,
                Some(slot) => {
                    *slot = Some((key, value));
                    self.len += 1;
                    return None;
                }
                // `i` is masked into range, so this arm is never taken.
                None => return None,
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let mut hole = self.position(key)?;
        let (_, value) = self.slots.get_mut(hole)?.take()?;
        self.len -= 1;
        let mask = self.slots.len() - 1;
        // Backward shift: walk the rest of the chain and pull back each
        // key whose home is not cyclically inside `(hole, j]`, so every
        // key stays reachable from its home through occupied slots.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some(Some((k, _))) = self.slots.get(j) else {
                break;
            };
            let home = k.probe_hash() as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots.swap(hole, j);
                hole = j;
            }
        }
        Some(value)
    }

    /// Removes every key, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|slot| *slot = None);
        self.len = 0;
    }

    /// Doubles the slot count and re-files every key.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, (0..slots).map(|_| None).collect());
        self.len = 0;
        for (k, v) in old.into_iter().flatten() {
            self.insert(k, v);
        }
    }
}

impl<K: ProbeKey, V> Default for ProbeTable<K, V> {
    fn default() -> Self {
        ProbeTable::new()
    }
}

impl<K, V> std::fmt::Debug for ProbeTable<K, V> {
    /// Prints the size only: slot order is not part of the table's meaning.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeTable")
            .field("len", &self.len)
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use util::check::{check, Gen};

    use super::*;
    use crate::xid::Principal;

    /// The first 8 id bytes, which alone pick a key's home slot: all-ones
    /// homes at the last slot and all-`0xFE` one before it, whatever the
    /// table's size, so their chains wrap round to slot 0, where zero
    /// homes.
    const HEADS: [[u8; 8]; 3] = [[0xFF; 8], [0xFE; 8], [0; 8]];

    /// A key from a small pool built to collide: a forced or random head,
    /// a tail of few values (equal heads, different keys), and any
    /// principal (equal ids, neighbouring homes).
    fn key(g: &mut Gen) -> Xid {
        let mut id = [0u8; 20];
        match g.usize_in(0, 3) {
            3 => id[..8].copy_from_slice(&g.bytes(8)),
            head => id[..8].copy_from_slice(&HEADS[head]),
        }
        id[8..].fill(g.u64_in(0, 3) as u8);
        Xid::new(*g.choose(&Principal::ALL), id)
    }

    /// Every key sits at or after its home, with no empty slot between:
    /// the condition that lets `get` stop at the first empty slot.
    fn assert_chains_unbroken(t: &ProbeTable<Xid, u64>) {
        let mask = t.slots.len().wrapping_sub(1);
        for (i, slot) in t.slots.iter().enumerate() {
            if let Some((k, _)) = slot {
                let mut at = k.probe_hash() as usize & mask;
                while at != i {
                    assert!(t.slots[at].is_some(), "{k:?} at {i} is cut off from {at}");
                    at = (at + 1) & mask;
                }
            }
        }
    }

    #[test]
    fn agrees_with_an_ordered_map_under_colliding_keys() {
        check("probe_table_vs_btreemap", 256, |g| {
            let mut table = ProbeTable::new();
            let mut reference = BTreeMap::new();
            for step in 0..g.usize_in(1, 300) {
                let k = key(g);
                match g.usize_in(0, 5) {
                    0..=2 => {
                        let v = step as u64;
                        assert_eq!(table.insert(k, v), reference.insert(k, v), "insert {k:?}");
                    }
                    3 | 4 => assert_eq!(table.remove(&k), reference.remove(&k), "remove {k:?}"),
                    _ => assert_eq!(table.get(&k), reference.get(&k), "get {k:?}"),
                }
                assert_eq!(table.len(), reference.len());
                assert!(table.len() * 2 <= table.slots.len());
                assert_chains_unbroken(&table);
                // Every key of the reference, and (the counts being
                // equal) nothing else, is in the table.
                for (k, v) in &reference {
                    assert_eq!(table.get(k), Some(v), "lost {k:?}");
                }
            }
            table.clear();
            assert!(table.is_empty() && reference.keys().all(|k| table.get(k).is_none()));
        });
    }

    #[test]
    fn a_removal_at_the_last_slot_pulls_back_the_chain_that_wrapped() {
        let id = |head: [u8; 8], tail: u8| {
            let mut id = [tail; 20];
            id[..8].copy_from_slice(&head);
            Xid::new(Principal::Hid, id)
        };
        // Three keys homed at the last of 8 slots fill 7, 0 and 1.
        let (a, b, c) = (id(HEADS[0], 1), id(HEADS[0], 2), id(HEADS[0], 3));
        let mut t = ProbeTable::new();
        for (v, k) in [a, b, c].into_iter().enumerate() {
            t.insert(k, v);
        }
        assert_eq!(t.slots.len(), 8);
        assert_eq!(t.remove(&a), Some(0));
        assert_eq!((t.get(&b), t.get(&c)), (Some(&1), Some(&2)));
        assert!(t.slots[1].is_none(), "the chain closed up behind the hole");
    }

    #[test]
    fn equal_ids_under_different_principals_are_different_keys() {
        let id = *Xid::new_random(Principal::Nid, 7).id();
        let mut t = ProbeTable::new();
        for (v, p) in Principal::ALL.into_iter().enumerate() {
            t.insert(Xid::new(p, id), v);
        }
        for (v, p) in Principal::ALL.into_iter().enumerate() {
            assert_eq!(t.get(&Xid::new(p, id)), Some(&v));
        }
        assert_eq!(t.len(), 4);
    }
}
