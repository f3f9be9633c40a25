//! B+-tree access method.
//!
//! The storage manager's ordered access method, used for every primary and
//! secondary index. Entries map a composite key to a [`RecordId`] in the
//! table's heap file. Duplicate keys are allowed (for non-unique secondary
//! indexes); uniqueness is enforced one level up by the database facade.
//!
//! # Node layout
//!
//! Callers speak [`Key`] (`Vec<Value>`); nodes do not. A node stores each
//! key **normalized** — the order-preserving byte string defined in
//! `normkey.rs` — *inline* in its entry array:
//!
//! ```text
//! Internal { keys:     [ NormKey | NormKey | .. ]      32 B each, contiguous
//!            children: [ Node | Node | Node | .. ] }
//! Leaf     { entries:  [ NormKey, RecordId | NormKey, RecordId | .. ] }
//!
//! NormKey  = Inline { bytes: [u8; 30], len }    the key bytes, in the node
//!          | Spilled(Box<[u8]>)                 longer keys: one heap block
//! ```
//!
//! A probe encodes its key once, on the stack, and every step of every
//! binary search then compares byte strings — for inline keys a few
//! big-endian words, `memcmp`-style — that sit in the node's own array: no
//! pointer to follow per key, no `Value` enum to match per column. A point
//! probe ([`BPlusTree::get_first`],
//! [`BPlusTree::contains_key`]) stops at the first hit and allocates
//! nothing; a prefix scan is `starts_with` on the bytes. Keys are decoded
//! back to `Key` only by the walks whose callers read them
//! ([`BPlusTree::range`], [`BPlusTree::scan_prefix`],
//! [`BPlusTree::scan_all`]).
//!
//! # What "equal" means
//!
//! The bytes order exactly as `Value` slices do for **schema-typed** keys:
//! every column holds NULL or values of its one declared type (`Int` and
//! `BigInt` are one family and encode identically, so an `Int(5)` probe
//! finds a `BigInt(5)` entry). That is what
//! [`crate::schema::TableSchema::validate`] admits into a tree. The one
//! narrowing against comparing `Value`s directly: a probe whose column is
//! of a **different numeric family** than the indexed column — `Double(5.0)`
//! against a `BigInt` column — finds nothing, where `Value`'s cross-family
//! numeric comparison used to call the two equal.
//!
//! # Concurrency
//!
//! The tree is guarded by a single reader-writer latch, held for the
//! length of one call: a probe or scan holds it shared from the root to
//! the last entry it visits (decoding included, heap access never — the
//! walks return record ids, not records); insert and remove hold it
//! exclusive. The paper's scalability argument concerns the *lock
//! manager*, not index latching (Shore-MT already fixed index latching),
//! so a coarse latch keeps this substrate simple while preserving the
//! contention profile that matters: reads (the vast majority of index
//! traffic in TATP/TPC-C probes) proceed in parallel.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::RwLock;

use crate::normkey::{self, NormKey};
use crate::types::{Key, RecordId, Value};

/// Maximum number of entries/keys per node before it splits.
const DEFAULT_ORDER: usize = 64;

enum Node {
    Leaf {
        entries: Vec<(NormKey, RecordId)>,
    },
    Internal {
        keys: Vec<NormKey>,
        children: Vec<Node>,
    },
}

/// An entry as the key-reading walks return it.
fn decoded(key: &NormKey, rid: RecordId) -> (Key, RecordId) {
    (normkey::decode(key.as_bytes()), rid)
}

impl Node {
    fn new_leaf() -> Node {
        Node::Leaf {
            entries: Vec::new(),
        }
    }
}

/// A B+-tree index over composite keys.
pub struct BPlusTree {
    root: RwLock<Node>,
    order: usize,
    len: AtomicUsize,
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BPlusTree {
    /// Creates an empty tree with the default node order.
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// Creates an empty tree with a custom node order (minimum 4); small
    /// orders are useful in tests to force deep trees.
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 4, "order must be at least 4");
        BPlusTree {
            root: RwLock::new(Node::new_leaf()),
            order,
            len: AtomicUsize::new(0),
        }
    }

    /// Number of entries in the tree.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an entry. Duplicate keys are allowed.
    pub fn insert(&self, key: Key, rid: RecordId) {
        let key = NormKey::encode(&key);
        let mut root = self.root.write();
        if let Some((sep, right)) = Self::insert_rec(&mut root, key, rid, self.order) {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(&mut *root, Node::new_leaf());
            *root = Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            };
        }
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes one entry matching `(key, rid)`. Returns true if found.
    ///
    /// Underflowing nodes are not rebalanced (lazy deletion, as in many
    /// production trees); the tree stays correct, only possibly less dense.
    pub fn remove(&self, key: &[Value], rid: RecordId) -> bool {
        let key = NormKey::encode(key);
        let mut root = self.root.write();
        let removed = Self::remove_rec(&mut root, &key, rid);
        if removed {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Returns every record id stored under `key`.
    pub fn get(&self, key: &[Value]) -> Vec<RecordId> {
        let key = NormKey::encode(key);
        self.collect_while(&key, |k| *k == key, |_, rid| rid)
    }

    /// Returns the first record id stored under `key` (useful for unique
    /// indexes).
    pub fn get_first(&self, key: &[Value]) -> Option<RecordId> {
        let key = NormKey::encode(key);
        let mut hit = None;
        // The walk starts at the first entry >= key: that entry decides.
        self.walk_from(Some(&key), |k, rid| {
            if *k == key {
                hit = Some(rid);
            }
            false
        });
        hit
    }

    /// True when at least one entry exists under `key`.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        self.get_first(key).is_some()
    }

    /// Returns all entries with `lo <= key <= hi`, in key order.
    pub fn range(&self, lo: &[Value], hi: &[Value]) -> Vec<(Key, RecordId)> {
        let (lo, hi) = (NormKey::encode(lo), NormKey::encode(hi));
        self.collect_while(&lo, |k| *k <= hi, decoded)
    }

    /// The record ids of [`BPlusTree::range`], for callers that go on to
    /// the heap and never look at the key: nothing is decoded.
    pub(crate) fn rids_in_range(&self, lo: &[Value], hi: &[Value]) -> Vec<RecordId> {
        let (lo, hi) = (NormKey::encode(lo), NormKey::encode(hi));
        self.collect_while(&lo, |k| *k <= hi, |_, rid| rid)
    }

    /// Returns all entries whose key starts with `prefix`, in key order.
    /// Used for composite-key probes such as "all call-forwarding rows of a
    /// subscriber".
    pub fn scan_prefix(&self, prefix: &[Value]) -> Vec<(Key, RecordId)> {
        let prefix = NormKey::encode(prefix);
        self.collect_while(&prefix, |k| k.starts_with(&prefix), decoded)
    }

    /// The record ids of [`BPlusTree::scan_prefix`]; nothing is decoded.
    pub(crate) fn rids_with_prefix(&self, prefix: &[Value]) -> Vec<RecordId> {
        let prefix = NormKey::encode(prefix);
        self.collect_while(&prefix, |k| k.starts_with(&prefix), |_, rid| rid)
    }

    /// Returns every entry in key order (used by loaders/verification).
    pub fn scan_all(&self) -> Vec<(Key, RecordId)> {
        let mut out = Vec::with_capacity(self.len());
        self.walk_from(None, |k, rid| {
            out.push(decoded(k, rid));
            true
        });
        out
    }

    /// Height of the tree (1 for a lone leaf). Exposed for tests and the
    /// physical-design advisor's cost model.
    pub fn height(&self) -> usize {
        let root = self.root.read();
        let mut h = 1;
        let mut node = &*root;
        loop {
            match node {
                Node::Leaf { .. } => return h,
                Node::Internal { children, .. } => {
                    h += 1;
                    node = &children[0];
                }
            }
        }
    }

    // --- internal recursion ---------------------------------------------

    /// Collects `entry` of every entry from the first with key >= `lo`
    /// for as long as `within` holds. Keys are sorted, so a run of equal
    /// keys, a range and the keys sharing a prefix are each one such run.
    fn collect_while<T>(
        &self,
        lo: &NormKey,
        within: impl Fn(&NormKey) -> bool,
        entry: impl Fn(&NormKey, RecordId) -> T,
    ) -> Vec<T> {
        let mut out = Vec::new();
        self.walk_from(Some(lo), |k, rid| {
            let within = within(k);
            if within {
                out.push(entry(k, rid));
            }
            within
        });
        out
    }

    /// Visits, under the shared latch and in key order, the encoded key and
    /// record id of every entry with key >= `lo` (every entry when `lo` is
    /// `None`) until `f` returns `false`.
    fn walk_from(&self, lo: Option<&NormKey>, mut f: impl FnMut(&NormKey, RecordId) -> bool) {
        let root = self.root.read();
        Self::visit_from(&root, lo, &mut f);
    }

    fn child_index(keys: &[NormKey], key: &NormKey) -> usize {
        // Entries equal to a separator live in the right child.
        keys.partition_point(|k| k <= key)
    }

    fn insert_rec(
        node: &mut Node,
        key: NormKey,
        rid: RecordId,
        order: usize,
    ) -> Option<(NormKey, Node)> {
        match node {
            Node::Leaf { entries } => {
                let pos = entries.partition_point(|(k, _)| *k <= key);
                entries.insert(pos, (key, rid));
                if entries.len() > order {
                    let mid = entries.len() / 2;
                    let right_entries = entries.split_off(mid);
                    let sep = right_entries[0].0.clone();
                    Some((
                        sep,
                        Node::Leaf {
                            entries: right_entries,
                        },
                    ))
                } else {
                    None
                }
            }
            Node::Internal { keys, children } => {
                let idx = Self::child_index(keys, &key);
                let split = Self::insert_rec(&mut children[idx], key, rid, order);
                if let Some((sep, right)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if keys.len() > order {
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid + 1);
                        let promoted = keys.pop().expect("mid < len: the left node keeps a key");
                        let right_children = children.split_off(mid + 1);
                        return Some((
                            promoted,
                            Node::Internal {
                                keys: right_keys,
                                children: right_children,
                            },
                        ));
                    }
                }
                None
            }
        }
    }

    fn remove_rec(node: &mut Node, key: &NormKey, rid: RecordId) -> bool {
        match node {
            Node::Leaf { entries } => {
                // Binary-search to the key's run, then match the rid in it.
                let start = entries.partition_point(|(k, _)| k < key);
                let hit = entries[start..]
                    .iter()
                    .take_while(|(k, _)| k == key)
                    .position(|(_, r)| *r == rid);
                match hit {
                    Some(offset) => {
                        entries.remove(start + offset);
                        true
                    }
                    None => false,
                }
            }
            Node::Internal { keys, children } => {
                // Duplicates of `key` may straddle one or more separators
                // equal to `key`, so every child whose key range can contain
                // `key` must be searched: from the first separator >= key
                // (strict lower bound) through the canonical child.
                let first = keys.partition_point(|k| k < key);
                let last = Self::child_index(keys, key);
                for child in &mut children[first..=last] {
                    if Self::remove_rec(child, key, rid) {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// In-order visit of entries with key >= `lo` (or all when `lo` is
    /// `None`). The visitor returns `false` to stop the traversal; the
    /// function returns `false` when the traversal was stopped.
    fn visit_from(
        node: &Node,
        lo: Option<&NormKey>,
        f: &mut impl FnMut(&NormKey, RecordId) -> bool,
    ) -> bool {
        match node {
            Node::Leaf { entries } => {
                let start = match lo {
                    Some(lo) => entries.partition_point(|(k, _)| k < lo),
                    None => 0,
                };
                for (k, rid) in &entries[start..] {
                    if !f(k, *rid) {
                        return false;
                    }
                }
                true
            }
            Node::Internal { keys, children } => {
                // Use a strict bound so that duplicates equal to a separator
                // that were left in the separator's left child (possible
                // after a split in the middle of a duplicate run) are still
                // visited.
                let start = match lo {
                    Some(lo) => keys.partition_point(|k| k < lo),
                    None => 0,
                };
                for child in &children[start.min(children.len() - 1)..] {
                    if !Self::visit_from(child, lo, f) {
                        return false;
                    }
                }
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: i64) -> Key {
        vec![Value::BigInt(v)]
    }

    fn rid(n: u64) -> RecordId {
        RecordId::new(n, 0)
    }

    #[test]
    fn insert_and_get_single_level() {
        let t = BPlusTree::new();
        t.insert(k(5), rid(5));
        t.insert(k(1), rid(1));
        t.insert(k(9), rid(9));
        assert_eq!(t.get(&k(5)), vec![rid(5)]);
        assert_eq!(t.get(&k(2)), Vec::<RecordId>::new());
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!(t.contains_key(&k(1)));
        assert!(!t.contains_key(&k(2)));
    }

    #[test]
    fn splits_produce_correct_lookups() {
        let t = BPlusTree::with_order(4);
        for i in 0..1000i64 {
            t.insert(k(i), rid(i as u64));
        }
        assert!(t.height() > 2, "tree should have split multiple levels");
        for i in 0..1000i64 {
            assert_eq!(t.get(&k(i)), vec![rid(i as u64)], "key {i}");
        }
        assert_eq!(t.len(), 1000);
    }

    #[test]
    fn reverse_and_random_insert_order() {
        let t = BPlusTree::with_order(4);
        let mut keys: Vec<i64> = (0..500).collect();
        // Deterministic shuffle.
        keys.sort_by_key(|v| (v * 2654435761i64) % 500);
        for &i in &keys {
            t.insert(k(i), rid(i as u64));
        }
        let all = t.scan_all();
        assert_eq!(all.len(), 500);
        // scan_all returns sorted order
        for w in all.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn duplicate_keys_supported() {
        let t = BPlusTree::with_order(4);
        for i in 0..50u64 {
            t.insert(k(7), rid(i));
        }
        t.insert(k(6), rid(100));
        t.insert(k(8), rid(101));
        let got = t.get(&k(7));
        assert_eq!(got.len(), 50);
        assert_eq!(t.get(&k(6)), vec![rid(100)]);
    }

    #[test]
    fn remove_specific_duplicate() {
        let t = BPlusTree::with_order(4);
        for i in 0..20u64 {
            t.insert(k(3), rid(i));
        }
        assert!(t.remove(&k(3), rid(10)));
        assert!(!t.remove(&k(3), rid(10)));
        assert_eq!(t.get(&k(3)).len(), 19);
        assert!(!t.get(&k(3)).contains(&rid(10)));
        assert_eq!(t.len(), 19);
    }

    #[test]
    fn remove_across_deep_tree() {
        let t = BPlusTree::with_order(4);
        for i in 0..300i64 {
            t.insert(k(i), rid(i as u64));
        }
        for i in (0..300i64).step_by(3) {
            assert!(t.remove(&k(i), rid(i as u64)), "remove {i}");
        }
        for i in 0..300i64 {
            let expect = if i % 3 == 0 { 0 } else { 1 };
            assert_eq!(t.get(&k(i)).len(), expect, "key {i}");
        }
    }

    #[test]
    fn range_scan_inclusive() {
        let t = BPlusTree::with_order(4);
        for i in 0..100i64 {
            t.insert(k(i), rid(i as u64));
        }
        let r = t.range(&k(10), &k(20));
        assert_eq!(r.len(), 11);
        assert_eq!(r.first().unwrap().0, k(10));
        assert_eq!(r.last().unwrap().0, k(20));
        // Empty range
        assert!(t.range(&k(200), &k(300)).is_empty());
        // Single point
        assert_eq!(t.range(&k(5), &k(5)).len(), 1);
    }

    #[test]
    fn composite_key_prefix_scan() {
        let t = BPlusTree::with_order(4);
        // (s_id, sf_type, start_time) like TATP call_forwarding.
        for s_id in 0..20i64 {
            for sf in 1..=4i32 {
                for st in [0i32, 8, 16] {
                    t.insert(
                        vec![Value::BigInt(s_id), Value::Int(sf), Value::Int(st)],
                        rid((s_id * 100 + sf as i64 * 10 + st as i64) as u64),
                    );
                }
            }
        }
        let p = t.scan_prefix(&[Value::BigInt(7)]);
        assert_eq!(p.len(), 12);
        assert!(p.iter().all(|(key, _)| key[0] == Value::BigInt(7)));
        let p2 = t.scan_prefix(&[Value::BigInt(7), Value::Int(2)]);
        assert_eq!(p2.len(), 3);
        let p3 = t.scan_prefix(&[Value::BigInt(999)]);
        assert!(p3.is_empty());
    }

    #[test]
    fn point_probes_find_a_duplicate_wherever_splits_left_it() {
        let t = BPlusTree::with_order(4);
        for i in 0..50u64 {
            t.insert(k(7), rid(i));
            t.insert(k(i as i64 + 100), rid(1000 + i));
        }
        assert!(t.height() > 2);
        assert!(t.contains_key(&k(7)));
        assert!(!t.contains_key(&k(8)));
        // Whichever duplicate is left, in whichever leaf, is the first hit.
        for survivor in [0u64, 17, 49] {
            let t = BPlusTree::with_order(4);
            for i in 0..50u64 {
                t.insert(k(7), rid(i));
            }
            for i in (0..50u64).filter(|&i| i != survivor) {
                assert!(t.remove(&k(7), rid(i)), "remove duplicate {i}");
            }
            assert_eq!(t.get_first(&k(7)), Some(rid(survivor)));
            assert_eq!(t.get(&k(7)), vec![rid(survivor)]);
        }
    }

    #[test]
    fn rid_only_walks_agree_with_the_decoding_walks() {
        let t = BPlusTree::with_order(4);
        for s_id in 0..30i64 {
            for sf in 1..=3i32 {
                t.insert(
                    vec![Value::BigInt(s_id), Value::Int(sf)],
                    rid((s_id * 10 + sf as i64) as u64),
                );
            }
        }
        let rids = |entries: Vec<(Key, RecordId)>| -> Vec<RecordId> {
            entries.into_iter().map(|(_, rid)| rid).collect()
        };
        let (lo, hi) = ([Value::BigInt(3), Value::Int(2)], [Value::BigInt(9)]);
        assert_eq!(t.rids_in_range(&lo, &hi), rids(t.range(&lo, &hi)));
        assert_eq!(t.rids_in_range(&lo, &hi).len(), 2 + 5 * 3);
        let prefix = [Value::BigInt(12)];
        assert_eq!(t.rids_with_prefix(&prefix), rids(t.scan_prefix(&prefix)));
        assert_eq!(t.rids_with_prefix(&prefix).len(), 3);
        assert!(t.rids_with_prefix(&[Value::BigInt(99)]).is_empty());
    }

    #[test]
    fn keys_too_long_for_the_node_work_the_same() {
        let name = |i: i64| Value::Varchar(format!("{}-{i:04}", "subscriber".repeat(4)));
        let t = BPlusTree::with_order(4);
        for i in 0..200i64 {
            t.insert(vec![name(i), Value::BigInt(i)], rid(i as u64));
        }
        assert_eq!(t.get_first(&[name(42), Value::BigInt(42)]), Some(rid(42)));
        assert_eq!(t.scan_prefix(&[name(42)]).len(), 1);
        let r = t.range(&[name(10)], &[name(19), Value::BigInt(i64::MAX)]);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].0, vec![name(10), Value::BigInt(10)]);
        assert!(t.remove(&[name(42), Value::BigInt(42)], rid(42)));
        assert!(!t.contains_key(&[name(42), Value::BigInt(42)]));
    }

    /// The one narrowing against comparing `Value`s (see the module docs):
    /// equality across numeric *families* is gone, within the integer
    /// family it stays.
    #[test]
    fn a_probe_of_another_numeric_family_does_not_match() {
        let t = BPlusTree::new();
        t.insert(k(5), rid(5));
        assert_eq!(Value::Double(5.0), Value::BigInt(5));
        assert!(t.get(&[Value::Double(5.0)]).is_empty());
        assert!(!t.contains_key(&[Value::Double(5.0)]));
        assert!(t.scan_prefix(&[Value::Double(5.0)]).is_empty());
        assert_eq!(t.get_first(&[Value::Int(5)]), Some(rid(5)));
        assert_eq!(t.scan_all()[0].0, k(5));
    }

    #[test]
    fn concurrent_readers_and_writer() {
        use std::sync::Arc;
        let t = Arc::new(BPlusTree::new());
        for i in 0..1000i64 {
            t.insert(k(i), rid(i as u64));
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = t.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000i64 {
                    assert!(!t.get(&k(i % 1000)).is_empty());
                }
            }));
        }
        let tw = t.clone();
        handles.push(std::thread::spawn(move || {
            for i in 1000..2000i64 {
                tw.insert(k(i), rid(i as u64));
            }
        }));
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 2000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// The B+-tree agrees with a reference BTreeMap<i64, Vec<u64>> under
        /// random insert/remove/lookup sequences.
        #[test]
        fn agrees_with_reference_map(ops in proptest::collection::vec(
            (0u8..3, 0i64..200, 0u64..50), 1..300)) {
            let tree = BPlusTree::with_order(4);
            let mut model: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
            for (op, key, rid_n) in ops {
                let key_v = vec![Value::BigInt(key)];
                let rid = RecordId::new(rid_n, 0);
                match op {
                    0 => {
                        tree.insert(key_v.clone(), rid);
                        model.entry(key).or_default().push(rid_n);
                    }
                    1 => {
                        let removed = tree.remove(&key_v, rid);
                        let model_removed = if let Some(v) = model.get_mut(&key) {
                            if let Some(p) = v.iter().position(|&x| x == rid_n) {
                                v.remove(p);
                                if v.is_empty() { model.remove(&key); }
                                true
                            } else { false }
                        } else { false };
                        prop_assert_eq!(removed, model_removed);
                    }
                    _ => {
                        let mut got: Vec<u64> = tree.get(&key_v).into_iter().map(|r| r.page).collect();
                        got.sort_unstable();
                        let mut want = model.get(&key).cloned().unwrap_or_default();
                        want.sort_unstable();
                        prop_assert_eq!(got, want);
                    }
                }
            }
            let total: usize = model.values().map(|v| v.len()).sum();
            prop_assert_eq!(tree.len(), total);
        }

        /// Range scans return exactly the keys in [lo, hi], sorted.
        #[test]
        fn range_scan_matches_reference(keys in proptest::collection::btree_set(0i64..500, 0..200),
                                        lo in 0i64..500, hi in 0i64..500) {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let tree = BPlusTree::with_order(4);
            for &kk in &keys {
                tree.insert(vec![Value::BigInt(kk)], RecordId::new(kk as u64, 0));
            }
            let got: Vec<i64> = tree
                .range(&[Value::BigInt(lo)], &[Value::BigInt(hi)])
                .into_iter()
                .map(|(k, _)| k[0].as_i64().unwrap())
                .collect();
            let want: Vec<i64> = keys.iter().copied().filter(|&x| x >= lo && x <= hi).collect();
            prop_assert_eq!(got, want);
        }
    }
}
