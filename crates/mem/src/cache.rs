//! A set-associative cache model with LRU replacement.

use sb_sigs::{Signature, SignatureConfig};

use crate::addr::{LineAddr, LINE_BYTES};
use crate::sigindex::SigIndex;

/// Geometry of one cache level.
///
/// # Examples
///
/// ```
/// use sb_mem::CacheConfig;
///
/// let l1 = CacheConfig::paper_l1();
/// assert_eq!(l1.sets(), 32 * 1024 / 32 / 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
}

impl CacheConfig {
    /// Paper L1: 32 KB, 4-way, 32 B lines (Table 2).
    pub fn paper_l1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 4,
        }
    }

    /// Paper L2: 512 KB, 8-way, 32 B lines (Table 2).
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            assoc: 8,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(self) -> u64 {
        let lines = self.size_bytes / LINE_BYTES;
        assert!(
            lines.is_multiple_of(self.assoc as u64),
            "capacity must divide into whole sets"
        );
        lines / self.assoc as u64
    }

    /// Total number of lines the cache can hold.
    pub fn capacity_lines(self) -> u64 {
        self.size_bytes / LINE_BYTES
    }
}

/// One resident line's metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Way {
    line: LineAddr,
    /// Monotonic timestamp of last access (for LRU).
    lru: u64,
}

/// A set-associative, LRU, allocate-on-fill cache.
///
/// The model tracks tags only — there is no data array, since the protocol
/// layer never needs values, only presence. The per-set way lists are the
/// one tag store: lookups scan the line's set (at most `assoc` ways), and
/// each set is allocated on its first fill.
///
/// For bulk invalidation the cache also keeps an inverted bank-0 signature
/// index over its resident tags, so expanding a W signature visits only
/// the buckets of the signature's set bits instead of the full tag array.
/// See [`SetAssocCache::push_matching`].
///
/// # Examples
///
/// ```
/// use sb_mem::{CacheConfig, SetAssocCache, LineAddr};
///
/// let mut c = SetAssocCache::new(CacheConfig { size_bytes: 1024, assoc: 2 });
/// assert!(!c.access(LineAddr(1)));
/// c.fill(LineAddr(1));
/// assert!(c.access(LineAddr(1)));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: Vec<Vec<Way>>,
    /// Inverted bank-0 index over exactly the resident lines.
    sig_index: SigIndex,
    resident: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SetAssocCache {
    /// Creates an empty cache indexed for the paper's signature geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        Self::with_signature_config(cfg, SignatureConfig::paper_default())
    }

    /// Creates an empty cache whose inverted signature index matches
    /// `sig` — the geometry of the W signatures it will be asked to expand.
    pub fn with_signature_config(cfg: CacheConfig, sig: SignatureConfig) -> Self {
        let nsets = cfg.sets() as usize;
        SetAssocCache {
            cfg,
            sets: vec![Vec::with_capacity(cfg.assoc as usize); nsets],
            sig_index: SigIndex::new(sig),
            resident: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.as_u64() % self.sets.len() as u64) as usize
    }

    /// Looks a line up, updating LRU on a hit. Returns `true` on hit. Does
    /// **not** allocate on miss; call [`SetAssocCache::fill`] when the fill
    /// response arrives.
    pub fn access(&mut self, line: LineAddr) -> bool {
        self.tick += 1;
        let set = self.set_of(line);
        let tick = self.tick;
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.line == line) {
            way.lru = tick;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Peeks without perturbing LRU or counters.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.sets[self.set_of(line)].iter().any(|w| w.line == line)
    }

    /// Installs a line, evicting the LRU way if the set is full. Returns
    /// the evicted line, if any. Filling a resident line only refreshes
    /// its LRU stamp.
    pub fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.tick += 1;
        let set = self.set_of(line);
        if let Some(way) = self.sets[set].iter_mut().find(|w| w.line == line) {
            way.lru = self.tick;
            return None;
        }
        let mut victim = None;
        if self.sets[set].len() == self.cfg.assoc as usize {
            let (vi, _) = self.sets[set]
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .expect("full set has ways");
            let v = self.sets[set].swap_remove(vi);
            self.sig_index.remove(v.line);
            self.evictions += 1;
            self.resident -= 1;
            victim = Some(v.line);
        }
        self.sets[set].push(Way {
            line,
            lru: self.tick,
        });
        self.sig_index.insert(line);
        self.resident += 1;
        victim
    }

    /// Removes a line (coherence invalidation). Returns whether it was
    /// present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        let Some(pos) = self.sets[set].iter().position(|w| w.line == line) else {
            return false;
        };
        self.sets[set].swap_remove(pos);
        self.sig_index.remove(line);
        self.resident -= 1;
        true
    }

    /// Iterates over all resident line addresses (the tag array).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.sets.iter().flatten().map(|w| w.line)
    }

    /// Appends every resident line matching `wsig` to `out` (signature
    /// expansion against the tag array, through the inverted bank-0
    /// index).
    ///
    /// # Panics
    ///
    /// Panics if `wsig`'s geometry differs from the one this cache was
    /// built for.
    pub fn push_matching(&self, wsig: &Signature, out: &mut Vec<LineAddr>) {
        out.extend(self.sig_index.matching(wsig));
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// (hits, misses, evictions) since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheConfig {
            size_bytes: 4 * LINE_BYTES,
            assoc: 2,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(LineAddr(0)));
        assert_eq!(c.fill(LineAddr(0)), None);
        assert!(c.access(LineAddr(0)));
        let (h, m, _) = c.counters();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.fill(LineAddr(0));
        c.fill(LineAddr(2));
        c.access(LineAddr(0)); // 0 is now MRU
        let victim = c.fill(LineAddr(4));
        assert_eq!(victim, Some(LineAddr(2)));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
        assert!(!c.contains(LineAddr(2)));
    }

    #[test]
    fn refill_of_resident_line_updates_not_evicts() {
        let mut c = tiny();
        c.fill(LineAddr(0));
        c.fill(LineAddr(2));
        assert_eq!(c.fill(LineAddr(0)), None);
        assert_eq!(c.len(), 2);
        // The refill made 0 the MRU way, so 2 is the victim.
        assert_eq!(c.fill(LineAddr(4)), Some(LineAddr(2)));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(LineAddr(3));
        assert!(c.invalidate(LineAddr(3)));
        assert!(!c.invalidate(LineAddr(3)));
        assert!(!c.contains(LineAddr(3)));
        assert!(c.is_empty());
    }

    #[test]
    fn resident_lines_matches_contents() {
        let mut c = tiny();
        c.fill(LineAddr(1));
        c.fill(LineAddr(3));
        let mut lines: Vec<_> = c.resident_lines().collect();
        lines.sort();
        assert_eq!(lines, vec![LineAddr(1), LineAddr(3)]);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for i in 0..100 {
            c.fill(LineAddr(i));
        }
        assert!(c.len() <= c.config().capacity_lines() as usize);
        let (_, _, ev) = c.counters();
        assert!(ev >= 96);
    }

    #[test]
    fn push_matching_agrees_with_full_scan() {
        let mut c = SetAssocCache::new(CacheConfig::paper_l2());
        for i in 0..500u64 {
            c.fill(LineAddr(i * 5 + 2));
        }
        let wsig = Signature::from_lines(SignatureConfig::paper_default(), [7u64, 252, 1_000_003]);
        let mut indexed = Vec::new();
        c.push_matching(&wsig, &mut indexed);
        indexed.sort_unstable();
        let mut brute: Vec<LineAddr> = c
            .resident_lines()
            .filter(|l| wsig.test(l.as_u64()))
            .collect();
        brute.sort_unstable();
        assert_eq!(indexed, brute);
    }

    #[test]
    #[should_panic(expected = "geometry differs")]
    fn push_matching_rejects_mismatched_geometry() {
        let mut c = SetAssocCache::new(CacheConfig::paper_l2());
        c.fill(LineAddr(7));
        let other = Signature::from_lines(SignatureConfig::new(1024, 4), [7u64]);
        c.push_matching(&other, &mut Vec::new());
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::paper_l1().sets(), 256);
        assert_eq!(CacheConfig::paper_l2().sets(), 2048);
        assert_eq!(CacheConfig::paper_l2().capacity_lines(), 16384);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Brute-force LRU reference: per set, an explicit list of resident
    /// `(line, stamp)` pairs, where the stamp is the operation count at
    /// the line's last touch.
    struct RefLru {
        assoc: usize,
        sets: Vec<Vec<(LineAddr, u64)>>,
        now: u64,
    }

    impl RefLru {
        fn new(nsets: usize, assoc: usize) -> Self {
            RefLru {
                assoc,
                sets: vec![Vec::new(); nsets],
                now: 0,
            }
        }

        fn set(&mut self, line: LineAddr) -> &mut Vec<(LineAddr, u64)> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line.0 % n) as usize]
        }

        fn access(&mut self, line: LineAddr) -> bool {
            self.now += 1;
            let now = self.now;
            match self.set(line).iter_mut().find(|(l, _)| *l == line) {
                Some(entry) => {
                    entry.1 = now;
                    true
                }
                None => false,
            }
        }

        fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
            if self.access(line) {
                return None;
            }
            let (now, assoc) = (self.now, self.assoc);
            let set = self.set(line);
            let mut victim = None;
            if set.len() == assoc {
                let oldest = (0..set.len()).min_by_key(|&i| set[i].1).unwrap();
                victim = Some(set.remove(oldest).0);
            }
            set.push((line, now));
            victim
        }

        fn invalidate(&mut self, line: LineAddr) -> bool {
            let set = self.set(line);
            let before = set.len();
            set.retain(|(l, _)| *l != line);
            set.len() != before
        }

        fn contains(&self, line: LineAddr) -> bool {
            self.sets.iter().flatten().any(|(l, _)| *l == line)
        }

        fn len(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    proptest! {
        /// The cache agrees with the reference LRU on every hit, victim,
        /// presence and occupancy, on small geometries (1–4 sets × 1–4
        /// ways), and its signature index tracks exactly the resident
        /// lines.
        #[test]
        fn prop_cache_matches_reference_lru(
            nsets in 1u64..5,
            assoc in 1u32..5,
            ops in proptest::collection::vec((0u8..3, 0u64..20), 1..400),
        ) {
            let mut c = SetAssocCache::new(CacheConfig {
                size_bytes: nsets * assoc as u64 * LINE_BYTES,
                assoc,
            });
            let mut r = RefLru::new(nsets as usize, assoc as usize);
            for (op, line) in ops {
                let line = LineAddr(line);
                match op {
                    0 => prop_assert_eq!(c.access(line), r.access(line)),
                    1 => prop_assert_eq!(c.fill(line), r.fill(line)),
                    _ => prop_assert_eq!(c.invalidate(line), r.invalidate(line)),
                }
                prop_assert_eq!(c.len(), r.len());
                for l in 0..20 {
                    prop_assert_eq!(c.contains(LineAddr(l)), r.contains(LineAddr(l)));
                }
                prop_assert_eq!(c.sig_index.check_bucket_placement(), c.len());
            }
        }
    }
}
