//! The per-tile two-level private cache hierarchy.

use sb_sigs::{Signature, SignatureConfig};

use crate::addr::LineAddr;
use crate::cache::{CacheConfig, SetAssocCache};

/// Where an access hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitLevel {
    /// Hit in the private L1 (2-cycle round trip in Table 2).
    L1,
    /// Missed L1, hit the private L2 (8-cycle round trip).
    L2,
    /// Missed both private levels; the request must go on the network.
    Miss,
}

/// Configuration for a [`CacheHierarchy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheHierarchyConfig {
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// L1 hit round trip, cycles.
    pub l1_round_trip: u64,
    /// L2 hit round trip, cycles.
    pub l2_round_trip: u64,
}

impl CacheHierarchyConfig {
    /// Table 2 of the paper: 32KB/4-way write-through L1 (2 cycles) and
    /// 512KB/8-way write-back L2 (8 cycles), 32 B lines.
    pub fn paper_default() -> Self {
        CacheHierarchyConfig {
            l1: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            l1_round_trip: 2,
            l2_round_trip: 8,
        }
    }
}

impl Default for CacheHierarchyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A private write-through L1 backed by a private write-back L2, as in
/// Table 2. Both levels model presence only; inclusive fills install the
/// line in both levels.
///
/// # Examples
///
/// ```
/// use sb_mem::{Addr, CacheHierarchy, CacheHierarchyConfig, HitLevel};
///
/// let mut h = CacheHierarchy::new(CacheHierarchyConfig::paper_default());
/// let line = Addr(0x40).line();
/// assert_eq!(h.access(line), HitLevel::Miss);
/// h.fill(line);
/// assert_eq!(h.access(line), HitLevel::L1);
/// ```
#[derive(Clone, Debug)]
pub struct CacheHierarchy {
    cfg: CacheHierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    /// Reusable match buffer for [`CacheHierarchy::bulk_invalidate`]; kept
    /// across calls so the steady state allocates nothing.
    inv_scratch: Vec<LineAddr>,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy indexed for the paper's signature
    /// geometry.
    pub fn new(cfg: CacheHierarchyConfig) -> Self {
        Self::with_signature_config(cfg, SignatureConfig::paper_default())
    }

    /// Creates an empty hierarchy whose inverted signature indices match
    /// `sig` — the geometry of the W signatures arriving in bulk
    /// invalidations.
    pub fn with_signature_config(cfg: CacheHierarchyConfig, sig: SignatureConfig) -> Self {
        CacheHierarchy {
            cfg,
            l1: SetAssocCache::with_signature_config(cfg.l1, sig),
            l2: SetAssocCache::with_signature_config(cfg.l2, sig),
            inv_scratch: Vec::new(),
        }
    }

    /// Probes the hierarchy for a read-style lookup (writes in a lazy chunk
    /// machine are locally buffered and do not change coherence state, so
    /// presence is what matters). L2 hits refill L1.
    pub fn access(&mut self, line: LineAddr) -> HitLevel {
        if self.l1.access(line) {
            return HitLevel::L1;
        }
        if self.l2.access(line) {
            // Inclusive refill of the L1.
            self.l1.fill(line);
            return HitLevel::L2;
        }
        HitLevel::Miss
    }

    /// Records a local write to `line`: touches it in the L2 (allocating
    /// it there if absent) and makes sure the L1 holds it too.
    pub fn mark_written(&mut self, line: LineAddr) {
        if self.l2.contains(line) {
            self.l2.access(line);
        } else {
            self.l2.fill(line);
        }
        if !self.l1.contains(line) {
            self.l1.fill(line);
        }
    }

    /// Installs a line fetched from the network/memory into both levels.
    pub fn fill(&mut self, line: LineAddr) {
        self.l2.fill(line);
        self.l1.fill(line);
    }

    /// Invalidates one line from both levels; returns whether it was
    /// present in either.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let in_l1 = self.l1.invalidate(line);
        let in_l2 = self.l2.invalidate(line);
        in_l1 || in_l2
    }

    /// Bulk invalidation: expands `wsig` against the resident tags of both
    /// levels and invalidates every match. Returns the number of lines
    /// invalidated. This is what a sharer processor does on receiving a
    /// `bulk inv` message.
    pub fn bulk_invalidate(&mut self, wsig: &Signature) -> u32 {
        // Expand the signature through each level's inverted index (a line
        // resident in both levels appears twice; the second invalidate is a
        // no-op and is not counted).
        let mut matches = std::mem::take(&mut self.inv_scratch);
        matches.clear();
        self.l2.push_matching(wsig, &mut matches);
        self.l1.push_matching(wsig, &mut matches);
        let mut n = 0;
        for &line in &matches {
            if self.invalidate(line) {
                n += 1;
            }
        }
        self.inv_scratch = matches;
        n
    }

    /// Whether the line is resident at any level.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.l1.contains(line) || self.l2.contains(line)
    }

    /// The L1 model (read-only view).
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// The L2 model (read-only view).
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// The configuration.
    pub fn config(&self) -> CacheHierarchyConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LINE_BYTES;
    use sb_sigs::{Signature, SignatureConfig};

    fn small() -> CacheHierarchy {
        CacheHierarchy::new(CacheHierarchyConfig {
            l1: CacheConfig {
                size_bytes: 4 * LINE_BYTES,
                assoc: 2,
            },
            l2: CacheConfig {
                size_bytes: 16 * LINE_BYTES,
                assoc: 4,
            },
            l1_round_trip: 2,
            l2_round_trip: 8,
        })
    }

    #[test]
    fn miss_fill_l1_hit() {
        let mut h = small();
        assert_eq!(h.access(LineAddr(1)), HitLevel::Miss);
        h.fill(LineAddr(1));
        assert_eq!(h.access(LineAddr(1)), HitLevel::L1);
    }

    #[test]
    fn l2_hit_refills_l1() {
        let mut h = small();
        h.fill(LineAddr(0));
        // Push line 0 out of the tiny L1 (set-conflicting lines 2 and 4;
        // L1 has 2 sets x 2 ways).
        h.fill(LineAddr(2));
        h.fill(LineAddr(4));
        assert!(!h.l1().contains(LineAddr(0)));
        assert!(h.l2().contains(LineAddr(0)));
        assert_eq!(h.access(LineAddr(0)), HitLevel::L2);
        // Now refilled into L1.
        assert_eq!(h.access(LineAddr(0)), HitLevel::L1);
    }

    #[test]
    fn mark_written_touches_or_allocates() {
        let mut h = small();
        // Lines 7, 11, 15, 19 and 23 share one 4-way L2 set.
        for l in [7, 11, 15, 19] {
            h.fill(LineAddr(l));
        }
        // The write touches 7 in L2, so 11 becomes the LRU way.
        h.mark_written(LineAddr(7));
        h.fill(LineAddr(23));
        assert!(h.l2().contains(LineAddr(7)));
        assert!(!h.l2().contains(LineAddr(11)));
        // A write to a non-resident line allocates it in both levels.
        h.mark_written(LineAddr(9));
        assert!(h.l2().contains(LineAddr(9)));
        assert!(h.l1().contains(LineAddr(9)));
    }

    #[test]
    fn invalidate_clears_both_levels() {
        let mut h = small();
        h.fill(LineAddr(5));
        assert!(h.invalidate(LineAddr(5)));
        assert!(!h.contains(LineAddr(5)));
        assert!(!h.invalidate(LineAddr(5)));
    }

    #[test]
    fn bulk_invalidate_expands_signature() {
        let mut h = small();
        for i in 0..8 {
            h.fill(LineAddr(i));
        }
        let wsig = Signature::from_lines(
            SignatureConfig::paper_default(),
            [3u64, 5, 100], // 100 not resident
        );
        let n = h.bulk_invalidate(&wsig);
        assert!(n >= 2, "at least the two resident matches: {n}");
        assert!(!h.contains(LineAddr(3)));
        assert!(!h.contains(LineAddr(5)));
        assert!(h.contains(LineAddr(0)));
    }
}
