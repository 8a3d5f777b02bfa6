//! The result cache: the sweep journal promoted to a bounded in-memory
//! cache with LRU eviction and hit/miss/admission accounting.
//!
//! The JSONL journal (see [`crate::sweep`]) is already a
//! content-addressed result store — every line is keyed by the cell's
//! 64-bit identity hash ([`crate::SweepCell::key`]), and `--resume`
//! proves a journaled outcome substitutes bit-exactly for a re-run.
//! [`ResultCache`] takes that contract online: the serving daemon
//! answers repeated queries from memory instead of re-simulating, under
//! a bounded footprint. Because the key covers *every* input (workload
//! spec, node count, params, fault plan, experiment namespace), a hit
//! can never alias a different run — the same guarantee `--resume`
//! relies on, now load-bearing for serving correctness.
//!
//! Deterministic failures (OOM, invalid configs, fail-stop node kills)
//! are cached exactly like successes — they are just as much a function
//! of the request, and the paper's "OOM"/"n/a" cells are answers, not
//! transients. The two *non*-deterministic outcomes — panics and
//! wall-clock timeouts — are refused admission so a lucky retry is
//! never shadowed by an unlucky first attempt.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::runner::RunOutcome;
use crate::sweep::{load_journal, CellError};

/// A cached outcome: exactly what the journal stores per cell.
pub type CachedOutcome = Result<RunOutcome, CellError>;

/// Point-in-time counters for a [`ResultCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Outcomes stored (including journal warm-loads).
    pub admissions: u64,
    /// Outcomes refused admission (non-deterministic: panic/timeout).
    pub rejections: u64,
    /// Entries displaced by LRU eviction.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: u64,
}

impl CacheStats {
    /// Hit rate over all lookups (0.0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    outcome: Arc<CachedOutcome>,
    /// Logical clock of the last touch; the smallest value is the LRU
    /// victim.
    last_used: u64,
}

/// Bounded LRU cache of run outcomes keyed by the cell identity hash.
///
/// All methods take `&self`; the cache is shared across daemon
/// connection handlers behind an `Arc`.
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    admissions: AtomicU64,
    rejections: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Default)]
struct Lru {
    map: HashMap<u64, Entry>,
    tick: u64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResultCache {
    /// An empty cache holding at most `capacity` outcomes. A capacity of
    /// zero disables storage entirely (every lookup misses, every
    /// admission is rejected) — useful for measuring the uncached
    /// baseline with the same daemon.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            inner: Mutex::new(Lru::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            admissions: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Maximum resident entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The outcome cached under `key`, bumping its recency. Counts a hit
    /// or a miss. The outcome is shared with the cache, not copied.
    pub fn get(&self, key: u64) -> Option<Arc<CachedOutcome>> {
        let mut lru = self.inner.lock().unwrap();
        lru.tick += 1;
        let tick = lru.tick;
        match lru.map.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.outcome))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether `outcome` is deterministic enough to cache. Panics and
    /// timeouts depend on the host (a stack-smashed run or a slow
    /// machine), so serving them from cache would pin one bad attempt
    /// forever.
    pub fn admissible(outcome: &CachedOutcome) -> bool {
        !matches!(
            outcome,
            Err(CellError::Panicked(_)) | Err(CellError::TimedOut(_))
        )
    }

    /// Stores `outcome` under `key`, evicting the least-recently-used
    /// entry if the cache is full. Returns whether the outcome was
    /// admitted (non-deterministic outcomes and zero-capacity caches
    /// reject; re-admitting an existing key refreshes it in place).
    pub fn admit(&self, key: u64, outcome: &CachedOutcome) -> bool {
        self.accepts(outcome) && self.store(key, Arc::new(outcome.clone()))
    }

    /// [`ResultCache::admit`] for an outcome the caller already holds in
    /// an `Arc`: the cache shares it instead of copying it.
    pub(crate) fn admit_arc(&self, key: u64, outcome: Arc<CachedOutcome>) -> bool {
        self.accepts(&outcome) && self.store(key, outcome)
    }

    /// Whether this cache stores `outcome` at all; counts a rejection
    /// when it does not.
    fn accepts(&self, outcome: &CachedOutcome) -> bool {
        let accepted = self.capacity > 0 && Self::admissible(outcome);
        if !accepted {
            self.rejections.fetch_add(1, Ordering::Relaxed);
        }
        accepted
    }

    fn store(&self, key: u64, outcome: Arc<CachedOutcome>) -> bool {
        let mut lru = self.inner.lock().unwrap();
        lru.tick += 1;
        let tick = lru.tick;
        if let Some(entry) = lru.map.get_mut(&key) {
            entry.outcome = outcome;
            entry.last_used = tick;
            self.admissions.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if lru.map.len() >= self.capacity {
            // O(n) victim scan: capacities are small (thousands) and
            // admissions are rare next to simulated-run costs
            if let Some(&victim) = lru
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                lru.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        lru.map.insert(
            key,
            Entry {
                outcome,
                last_used: tick,
            },
        );
        self.admissions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Pre-populates the cache from a sweep journal, newest lines last
    /// (so on overflow the journal's most recent outcomes survive).
    /// Returns how many entries were admitted. Malformed or
    /// wrong-version lines are skipped exactly as `--resume` skips them.
    pub fn warm_from_journal(&self, path: &Path) -> usize {
        let mut admitted = 0usize;
        for (key, outcome) in load_journal(path) {
            if self.admit_arc(key, Arc::new(outcome)) {
                admitted += 1;
            }
        }
        admitted
    }

    /// Mirrors the cache counters into `registry` as
    /// `graphmaze_cache_*` metrics. The cache keeps its own atomics —
    /// one `ResultCache` can be scraped by many registries without any
    /// shared mutable state — so this is collect-on-scrape: call it
    /// right before rendering the exposition.
    pub fn export_into(&self, registry: &graphmaze_metrics::Registry) {
        let s = self.stats();
        for (name, help, value) in [
            (
                "graphmaze_cache_hits_total",
                "result-cache lookup hits",
                s.hits,
            ),
            (
                "graphmaze_cache_misses_total",
                "result-cache lookup misses",
                s.misses,
            ),
            (
                "graphmaze_cache_admissions_total",
                "outcomes admitted to the result cache",
                s.admissions,
            ),
            (
                "graphmaze_cache_rejections_total",
                "outcomes refused admission (non-deterministic)",
                s.rejections,
            ),
            (
                "graphmaze_cache_evictions_total",
                "entries displaced by LRU eviction",
                s.evictions,
            ),
        ] {
            registry.counter(name, help, &[]).store(value);
        }
        registry
            .gauge(
                "graphmaze_cache_resident_entries",
                "entries currently resident",
                &[],
            )
            .set(s.len as i64);
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            admissions: self.admissions.load(Ordering::Relaxed),
            rejections: self.rejections.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.inner.lock().unwrap().map.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(digest: f64) -> CachedOutcome {
        Ok(RunOutcome {
            digest,
            report: Default::default(),
        })
    }

    #[test]
    fn hit_miss_and_admission_accounting() {
        let cache = ResultCache::new(4);
        assert!(cache.get(1).is_none());
        assert!(cache.admit(1, &ok(1.0)));
        assert_eq!(cache.get(1).unwrap().as_ref().as_ref().unwrap().digest, 1.0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.admissions, s.len), (1, 1, 1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn evicts_least_recently_used_in_order() {
        let cache = ResultCache::new(3);
        for k in 1..=3u64 {
            cache.admit(k, &ok(k as f64));
        }
        // touch 1 so 2 becomes the LRU victim
        assert!(cache.get(1).is_some());
        cache.admit(4, &ok(4.0));
        assert!(cache.get(2).is_none(), "2 was evicted");
        assert!(cache.get(1).is_some() && cache.get(3).is_some() && cache.get(4).is_some());
        // now the recency order is 1, 3, 4 → admitting two more evicts 1 then 3
        cache.admit(5, &ok(5.0));
        assert!(cache.get(1).is_none(), "1 was evicted second");
        cache.admit(6, &ok(6.0));
        assert!(cache.get(3).is_none(), "3 was evicted third");
        assert_eq!(cache.stats().evictions, 3);
        assert_eq!(cache.stats().len, 3);
    }

    #[test]
    fn deterministic_failures_are_cached_but_panics_and_timeouts_are_not() {
        let cache = ResultCache::new(8);
        let oom: CachedOutcome = Err(CellError::OutOfMemory("node 1: 5 GB".into()));
        assert!(cache.admit(1, &oom));
        assert_eq!(
            cache.get(1).unwrap().as_ref().as_ref().unwrap_err().kind(),
            "oom"
        );
        for (k, bad) in [
            (2u64, Err(CellError::Panicked("boom".into()))),
            (3u64, Err(CellError::TimedOut("budget".into()))),
        ] {
            assert!(!cache.admit(k, &bad));
            assert!(cache.get(k).is_none());
        }
        assert_eq!(cache.stats().rejections, 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ResultCache::new(0);
        assert!(!cache.admit(1, &ok(1.0)));
        assert!(cache.get(1).is_none());
        let s = cache.stats();
        assert_eq!((s.admissions, s.rejections, s.len), (0, 1, 0));
    }

    #[test]
    fn export_mirrors_stats_into_a_registry() {
        let cache = ResultCache::new(2);
        cache.admit(1, &ok(1.0));
        assert!(cache.get(1).is_some());
        assert!(cache.get(9).is_none());
        let registry = graphmaze_metrics::Registry::new();
        cache.export_into(&registry);
        let text = graphmaze_metrics::render_exposition(&registry);
        let samples = graphmaze_metrics::parse_exposition(&text).expect("parses");
        let value = |name: &str| graphmaze_metrics::expose::sample_value(&samples, name, &[]);
        assert_eq!(value("graphmaze_cache_hits_total"), Some(1.0));
        assert_eq!(value("graphmaze_cache_misses_total"), Some(1.0));
        assert_eq!(value("graphmaze_cache_admissions_total"), Some(1.0));
        assert_eq!(value("graphmaze_cache_resident_entries"), Some(1.0));
        // a later scrape re-mirrors the counters instead of double-counting
        assert!(cache.get(1).is_some());
        cache.export_into(&registry);
        let samples =
            graphmaze_metrics::parse_exposition(&graphmaze_metrics::render_exposition(&registry))
                .expect("parses");
        assert_eq!(
            graphmaze_metrics::expose::sample_value(&samples, "graphmaze_cache_hits_total", &[]),
            Some(2.0)
        );
    }

    #[test]
    fn readmission_refreshes_in_place() {
        let cache = ResultCache::new(2);
        cache.admit(1, &ok(1.0));
        cache.admit(2, &ok(2.0));
        assert!(cache.admit(1, &ok(1.5)), "same key re-admits");
        assert_eq!(cache.stats().len, 2, "no duplicate entry");
        assert_eq!(cache.get(1).unwrap().as_ref().as_ref().unwrap().digest, 1.5);
        // 2 is now LRU; a third key evicts it, not 1
        cache.admit(3, &ok(3.0));
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
    }
}
