//! A tiny string-keyed LRU map for the resident-process caches.
//!
//! A one-shot `repro` invocation can afford caches that only grow — the
//! process dies minutes later. `repro serve` cannot: the in-memory
//! preparation cache and the sweep-result cache both live for the
//! lifetime of the server, so each is bounded by one of these maps and
//! evicts least-recently-used entries past its capacity (evictions are
//! counted and reported, never silent).
//!
//! The implementation is a `VecDeque` scanned linearly: capacities are
//! tens-to-hundreds of entries whose values are multi-megabyte
//! `Arc<PreparedWorkload>`s or whole result artifacts, so the O(n) scan
//! is noise next to what the entries themselves cost to make. `const`
//! constructors keep it usable in `static Mutex<LruMap<_>>` cells.

use std::collections::VecDeque;

/// String-keyed LRU map. Front of the deque is least-recently-used,
/// back is most-recently-used.
pub struct LruMap<V> {
    cap: Option<usize>,
    entries: VecDeque<(String, V)>,
}

impl<V> LruMap<V> {
    /// An unbounded map (capacity resolved later via [`set_cap`]).
    ///
    /// [`set_cap`]: LruMap::set_cap
    pub const fn unbounded() -> Self {
        LruMap { cap: None, entries: VecDeque::new() }
    }

    /// A map that holds at most `cap` entries.
    pub const fn bounded(cap: usize) -> Self {
        LruMap { cap: Some(cap), entries: VecDeque::new() }
    }

    /// Sets (or clears) the capacity, evicting LRU-first down to the new
    /// bound. Returns how many entries were evicted.
    pub fn set_cap(&mut self, cap: Option<usize>) -> u64 {
        self.cap = cap;
        self.trim()
    }

    /// The current capacity (`None` = unbounded).
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `key` up and, on a hit, marks it most-recently-used.
    pub fn get(&mut self, key: &str) -> Option<&V> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos).expect("position came from iter");
        self.entries.push_back(entry);
        self.entries.back().map(|(_, v)| v)
    }

    /// Looks `key` up without touching the recency order (for stats and
    /// tests).
    pub fn peek(&self, key: &str) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Inserts (or replaces) `key`, marking it most-recently-used, then
    /// evicts LRU-first past the capacity. Returns how many entries were
    /// evicted.
    pub fn insert(&mut self, key: String, value: V) -> u64 {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        }
        self.entries.push_back((key, value));
        self.trim()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates entries from least- to most-recently-used without
    /// touching the recency order (for persistence at graceful drain).
    pub fn iter(&self) -> impl Iterator<Item = (&String, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    fn trim(&mut self) -> u64 {
        let Some(cap) = self.cap else { return 0 };
        let mut evicted = 0;
        while self.entries.len() > cap {
            self.entries.pop_front();
            evicted += 1;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_peek_round_trip() {
        let mut m: LruMap<u32> = LruMap::unbounded();
        assert!(m.is_empty());
        assert_eq!(m.insert("a".into(), 1), 0);
        assert_eq!(m.insert("b".into(), 2), 0);
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.peek("b"), Some(&2));
        assert_eq!(m.get("missing"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn capacity_evicts_least_recently_used_first() {
        let mut m: LruMap<u32> = LruMap::bounded(2);
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        // Touch "a": it becomes MRU, so the next insert evicts "b".
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.insert("c".into(), 3), 1);
        assert!(m.peek("a").is_some());
        assert!(m.peek("b").is_none(), "the LRU entry is the one evicted");
        assert!(m.peek("c").is_some());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn replacing_a_key_does_not_evict_and_refreshes_recency() {
        let mut m: LruMap<u32> = LruMap::bounded(2);
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.insert("a".into(), 10), 0, "replacement is not an eviction");
        assert_eq!(m.len(), 2);
        assert_eq!(m.peek("a"), Some(&10));
        // "a" was refreshed, so "b" is now the LRU victim.
        m.insert("c".into(), 3);
        assert!(m.peek("b").is_none());
        assert!(m.peek("a").is_some());
    }

    #[test]
    fn shrinking_the_capacity_trims_and_counts() {
        let mut m: LruMap<u32> = LruMap::unbounded();
        for i in 0..5 {
            m.insert(format!("k{i}"), i);
        }
        assert_eq!(m.set_cap(Some(2)), 3);
        assert_eq!(m.len(), 2);
        assert!(m.peek("k3").is_some() && m.peek("k4").is_some());
        assert_eq!(m.set_cap(None), 0);
    }
}
