//! Process-wide registries of read-only tables: FFT plans, per-block-size
//! turbo codecs and rate matchers, scrambling masks and DMRS sequences.
//!
//! A transmitter and a receiver for one configuration, or two cells with
//! the same block sizes, then share one `Arc` of each table instead of
//! each building its own. Every table is a pure function of its key, so
//! which caller builds it first changes no output.
//!
//! Each registry holds at most [`CAPACITY`] entries. Past that, a new
//! key's table is built for its caller and not kept. The keys that
//! matter stay well inside the cap: a turbo block size `K` has 188
//! values, an FFT plan one per bandwidth and DFT-precoder width, and a
//! scrambler or DMRS one per cell identity and allocation in use.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Entries a registry keeps before it stops registering new keys.
pub(crate) const CAPACITY: usize = 256;

/// One process-wide table cache keyed by `K`.
pub(crate) struct Registry<K, V> {
    map: OnceLock<Mutex<HashMap<K, Arc<V>>>>,
}

impl<K: Eq + Hash, V> Registry<K, V> {
    /// An empty registry, usable as a `static`.
    pub(crate) const fn new() -> Self {
        Registry {
            map: OnceLock::new(),
        }
    }

    /// The table for `key`: the registered one, or `build()`'s, which is
    /// registered while there is room. The build runs outside the lock,
    /// so builds of different keys proceed in parallel; when two threads
    /// build one key at once, the first to register wins and both return
    /// equal tables.
    pub(crate) fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let map = self.map.get_or_init(|| Mutex::new(HashMap::new()));
        // A holder cannot leave the map half-updated, so a poisoned lock
        // is taken as it stands.
        let lock = || map.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = lock().get(&key) {
            return Arc::clone(v);
        }
        let built = Arc::new(build());
        let mut map = lock();
        if map.len() >= CAPACITY && !map.contains_key(&key) {
            return built;
        }
        Arc::clone(map.entry(key).or_insert(built))
    }

    /// Entries registered so far.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.get().map_or(0, |m| m.lock().unwrap().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_table_per_key() {
        static R: Registry<u32, Vec<u32>> = Registry::new();
        let mut builds = 0;
        let a = R.get_or_build(7, || {
            builds += 1;
            vec![7]
        });
        let b = R.get_or_build(7, || {
            builds += 1;
            vec![7]
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds, 1);
        assert_eq!(R.len(), 1);
    }

    #[test]
    fn a_full_registry_builds_without_keeping() {
        static R: Registry<usize, usize> = Registry::new();
        for k in 0..CAPACITY {
            R.get_or_build(k, || k);
        }
        let first = R.get_or_build(CAPACITY, || 1);
        let again = R.get_or_build(CAPACITY, || 2);
        assert_eq!((*first, *again), (1, 2), "built afresh each time");
        assert_eq!(R.len(), CAPACITY);
        // Registered keys still resolve to their shared table.
        assert!(Arc::ptr_eq(
            &R.get_or_build(3, || 0),
            &R.get_or_build(3, || 0)
        ));
    }
}
