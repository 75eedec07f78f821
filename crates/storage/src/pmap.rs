//! A persistent (immutable, structurally shared) hash map.
//!
//! [`PMap`] is a hash-array-mapped trie with 16-way branching: `insert`
//! returns a **new** map that shares every untouched subtree with its
//! predecessor, so cloning is `O(1)` (two `Arc` bumps) and inserting is
//! `O(log₁₆ n)` path copying. This is the structure behind snapshot
//! isolation in [`crate::commit::CommitGraph`]: writers build the next
//! generation off the current one and publish it atomically, while readers
//! keep traversing the generation they grabbed — no locks held, no torn
//! views, and no O(n) copy per commit.
//!
//! Keys are routed by their `std::hash::Hash` value, 4 bits per trie level;
//! full 64-bit collisions (vanishingly rare, but possible) fall back to a
//! small bucket scanned linearly.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Trie fan-out: 4 bits of the key hash per level.
const BITS: u32 = 4;
const FAN: usize = 1 << BITS;
/// Levels before the 64-bit hash is exhausted (collision bucket territory).
const MAX_DEPTH: u32 = 64 / BITS;

fn hash_of<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

fn nibble(hash: u64, depth: u32) -> usize {
    ((hash >> (depth * BITS)) & (FAN as u64 - 1)) as usize
}

/// One interior node's child slots, routed by the next hash nibble.
type Children<K, V> = Box<[Option<Arc<Node<K, V>>>; FAN]>;

enum Node<K, V> {
    /// Interior node: children routed by the next hash nibble.
    Branch(Children<K, V>),
    /// One full 64-bit hash value; multiple entries only on collision.
    Leaf(u64, Vec<(K, V)>),
}

impl<K: Clone, V: Clone> Node<K, V> {
    fn empty_branch() -> Children<K, V> {
        Box::new(std::array::from_fn(|_| None))
    }
}

/// An immutable hash map with `O(1)` clone and structurally shared inserts.
/// See the module docs.
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None, len: 0 }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> PMap<K, V> {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Reference to the value for `key`, if present. Like `HashMap::get`,
    /// the key may be any borrowed form of `K` that hashes and compares the
    /// same (`&str` for `Arc<str>` keys), so a lookup never builds a `K`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = hash_of(key);
        let mut node = self.root.as_deref()?;
        let mut depth = 0;
        loop {
            match node {
                Node::Leaf(h, entries) => {
                    return (*h == hash)
                        .then(|| {
                            entries
                                .iter()
                                .find(|(k, _)| k.borrow() == key)
                                .map(|(_, v)| v)
                        })
                        .flatten();
                }
                Node::Branch(children) => {
                    node = children[nibble(hash, depth)].as_deref()?;
                    depth += 1;
                }
            }
        }
    }

    /// True if `key` (in any borrowed form, see [`PMap::get`]) has an entry.
    pub(crate) fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }

    /// A new map with `key → value` added (or replaced), sharing every
    /// untouched subtree with `self`.
    pub fn insert(&self, key: K, value: V) -> PMap<K, V> {
        let hash = hash_of(&key);
        let (root, added) = Self::node_insert(self.root.as_ref(), hash, 0, key, value);
        PMap {
            root: Some(root),
            len: self.len + usize::from(added),
        }
    }

    /// Returns the updated node and whether the entry count grew.
    fn node_insert(
        node: Option<&Arc<Node<K, V>>>,
        hash: u64,
        depth: u32,
        key: K,
        value: V,
    ) -> (Arc<Node<K, V>>, bool) {
        let Some(node) = node else {
            return (Arc::new(Node::Leaf(hash, vec![(key, value)])), true);
        };
        match node.as_ref() {
            Node::Leaf(h, entries) if *h == hash => {
                let mut entries = entries.clone();
                let added = match entries.iter_mut().find(|(k, _)| *k == key) {
                    Some(slot) => {
                        slot.1 = value;
                        false
                    }
                    None => {
                        entries.push((key, value));
                        true
                    }
                };
                (Arc::new(Node::Leaf(hash, entries)), added)
            }
            Node::Leaf(h, _) => {
                debug_assert!(depth < MAX_DEPTH, "equal prefixes imply equal hashes");
                // Split: push the existing leaf one level down, then insert
                // the new entry into the fresh branch.
                let mut children = Node::empty_branch();
                children[nibble(*h, depth)] = Some(Arc::clone(node));
                let branch = Arc::new(Node::Branch(children));
                Self::node_insert(Some(&branch), hash, depth, key, value)
            }
            Node::Branch(children) => {
                let idx = nibble(hash, depth);
                let (child, added) =
                    Self::node_insert(children[idx].as_ref(), hash, depth + 1, key, value);
                let mut children = children.clone();
                children[idx] = Some(child);
                (Arc::new(Node::Branch(children)), added)
            }
        }
    }

    /// Visits every entry (unspecified order).
    pub(crate) fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        fn walk<K, V>(node: &Node<K, V>, f: &mut impl FnMut(&K, &V)) {
            match node {
                Node::Leaf(_, entries) => {
                    for (k, v) in entries {
                        f(k, v);
                    }
                }
                Node::Branch(children) => {
                    for child in children.iter().flatten() {
                        walk(child, f);
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            walk(root, &mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_replace() {
        let m0: PMap<String, u32> = PMap::new();
        assert_eq!(m0.len(), 0);
        assert_eq!(m0.get("a"), None);
        let m1 = m0.insert("a".into(), 1);
        let m2 = m1.insert("b".into(), 2);
        let m3 = m2.insert("a".into(), 10);
        assert_eq!(m0.len(), 0);
        assert_eq!(m1.len(), 1);
        assert_eq!(m2.len(), 2);
        assert_eq!(m3.len(), 2, "replacement does not grow");
        // Old generations are untouched by newer inserts.
        assert_eq!(m1.get("a"), Some(&1));
        assert_eq!(m1.get("b"), None);
        assert_eq!(m3.get("a"), Some(&10));
        assert_eq!(m3.get(&"b".to_string()), Some(&2), "owned and borrowed");
        assert!(m3.contains_key("b") && !m3.contains_key("c"));
    }

    #[test]
    fn matches_hashmap_model() {
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut m: PMap<u64, u64> = PMap::new();
        // Keys chosen to collide in low nibbles (multiples of a power of
        // two) plus a dense range, driving deep splits.
        let keys: Vec<u64> = (0..500)
            .map(|i| if i % 2 == 0 { i * 4096 } else { i })
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            model.insert(k, k + i as u64);
            m = m.insert(k, k + i as u64);
            assert_eq!(m.len(), model.len());
        }
        for (k, v) in &model {
            assert_eq!(m.get(k), Some(v), "key {k}");
        }
        let mut seen = 0usize;
        m.for_each(|k, v| {
            assert_eq!(model.get(k), Some(v));
            seen += 1;
        });
        assert_eq!(seen, model.len());
    }

    #[test]
    fn snapshots_are_frozen_under_concurrent_inserts() {
        let mut m: PMap<u32, u32> = PMap::new();
        for i in 0..100 {
            m = m.insert(i, i);
        }
        let frozen = m.clone();
        std::thread::scope(|s| {
            let reader = s.spawn(move || {
                for _ in 0..50 {
                    for i in 0..100u32 {
                        assert_eq!(frozen.get(&i), Some(&i));
                    }
                    assert_eq!(frozen.len(), 100);
                }
            });
            // "Writer": keeps deriving new generations on its own handle.
            for i in 100..1000u32 {
                m = m.insert(i, i);
            }
            reader.join().unwrap();
        });
        assert_eq!(m.len(), 1000);
    }
}
