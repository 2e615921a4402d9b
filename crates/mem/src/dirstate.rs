//! Conventional directory sharer state.
//!
//! Each directory module keeps, for every line homed at it that some cache
//! holds, the set of sharer cores and (for dirty lines) the owner. The chunk
//! protocols consult this state when they expand a committing chunk's W
//! signature into the set of processors to invalidate, and update it when a
//! commit succeeds ("the directories in the group start updating their state
//! based on the W signature", §3.2).
//!
//! Signature expansion is the simulator's hottest directory operation: every
//! commit makes each participating directory match a W signature against its
//! tracked lines. A naive scan touches every tracked line (tens of thousands
//! at steady state) to find the handful that match, so the directory also
//! keeps the tracked lines in an inverted bank-0 signature index, the same
//! one the caches use for `bulk inv`: expansion visits just the buckets of
//! the signature's set bank-0 bits and full-tests each candidate.

use std::collections::hash_map::Entry;

use sb_engine::FxHashMap;
use sb_sigs::{Signature, SignatureConfig};

use crate::addr::LineAddr;
use crate::ids::{CoreId, CoreSet};
use crate::sigindex::SigIndex;

/// Per-line directory information.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LineDirInfo {
    /// Cores whose caches may hold the line.
    pub sharers: CoreSet,
    /// The core that owns the line dirty, if any.
    pub owner: Option<CoreId>,
    /// The line is resident somewhere in the machine's aggregate cache
    /// capacity (steady-state modelling): reads are served cache-to-cache
    /// even when the precise sharer set is empty. Resident-only lines are
    /// never invalidation targets.
    pub resident: bool,
}

/// Sharer/owner bookkeeping for the lines homed at one directory module.
///
/// The W-signature expansions ([`DirectoryState::sharers_matching`],
/// [`DirectoryState::lines_matching`], [`DirectoryState::apply_commit`])
/// panic if the signature's geometry differs from the one the directory
/// was built for.
///
/// # Examples
///
/// ```
/// use sb_mem::{CoreId, DirectoryState, LineAddr};
///
/// let mut d = DirectoryState::new();
/// d.record_read(LineAddr(8), CoreId(1));
/// d.record_read(LineAddr(8), CoreId(2));
/// assert_eq!(d.sharers_of(LineAddr(8)).len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct DirectoryState {
    /// Tracked lines, split over [`LINE_SHARDS`] hash-sharded maps. A
    /// 1024-tile run holds thousands of directory modules; sharding caps
    /// each map's rehash spike at a fraction of the module's table, which
    /// keeps peak RSS flat where one monolithic map per module doubles
    /// its footprint on every growth step. Lookups hash the line once to
    /// pick the shard; iteration-order-sensitive callers sort (or fold
    /// into order-insensitive sets), so results are shard-invariant.
    lines: [FxHashMap<LineAddr, LineDirInfo>; LINE_SHARDS],
    /// Inverted bank-0 index over exactly the tracked lines.
    sig_index: SigIndex,
}

/// Number of hash shards the per-module line map is split over.
const LINE_SHARDS: usize = 16;

/// Which shard a line's record lives in (multiplicative hash over the
/// high bits, uncorrelated with the signature's bank hashing).
#[inline]
fn shard_of(line: LineAddr) -> usize {
    (line.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize
}

impl DirectoryState {
    /// Creates an empty directory indexed for the paper's signature
    /// geometry.
    pub fn new() -> Self {
        Self::with_signature_config(SignatureConfig::paper_default())
    }

    /// Creates an empty directory whose inverted index matches `cfg` — the
    /// geometry of the W signatures this directory will expand.
    pub fn with_signature_config(cfg: SignatureConfig) -> Self {
        DirectoryState {
            lines: std::array::from_fn(|_| FxHashMap::default()),
            sig_index: SigIndex::new(cfg),
        }
    }

    /// The tracked entry for `line`, registering it in the inverted index
    /// when first seen.
    fn tracked_entry(&mut self, line: LineAddr) -> &mut LineDirInfo {
        match self.lines[shard_of(line)].entry(line) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.sig_index.insert(line);
                e.insert(LineDirInfo::default())
            }
        }
    }

    /// Records that `core` fetched `line` (it becomes a sharer).
    pub fn record_read(&mut self, line: LineAddr, core: CoreId) {
        self.tracked_entry(line).sharers.insert(core);
    }

    /// Marks `line` as resident in the aggregate cache capacity without
    /// naming a sharer (steady-state warm-up; affects read classification
    /// only).
    pub fn mark_resident(&mut self, line: LineAddr) {
        self.tracked_entry(line).resident = true;
    }

    /// The tracked record for `line`, if any.
    #[inline]
    fn lookup(&self, line: LineAddr) -> Option<&LineDirInfo> {
        self.lines[shard_of(line)].get(&line)
    }

    /// Whether `line` is marked resident (or actually shared/owned).
    pub fn is_resident(&self, line: LineAddr) -> bool {
        self.lookup(line)
            .is_some_and(|i| i.resident || !i.sharers.is_empty() || i.owner.is_some())
    }

    /// The sharers of `line` (empty if untracked).
    pub fn sharers_of(&self, line: LineAddr) -> CoreSet {
        self.lookup(line)
            .map_or(CoreSet::empty(), |i| i.sharers.clone())
    }

    /// The dirty owner of `line`, if any.
    pub fn owner_of(&self, line: LineAddr) -> Option<CoreId> {
        self.lookup(line).and_then(|i| i.owner)
    }

    /// Expands `wsig` against the tracked lines and returns the union of
    /// sharers of every matching line, excluding `committer`. This is the
    /// directory-local `inval_vec` computation of §3.2.1 — performed by all
    /// participating directories in parallel when the signature pair
    /// arrives, before the `g` message shows up.
    pub fn sharers_matching(&self, wsig: &Signature, committer: CoreId) -> CoreSet {
        let mut set = CoreSet::empty();
        for line in self.sig_index.matching(wsig) {
            let info = &self.lines[shard_of(line)][&line];
            set.union_with(&info.sharers);
            if let Some(o) = info.owner {
                set.insert(o);
            }
        }
        set.remove(committer);
        set
    }

    /// The tracked lines matching `wsig` (signature expansion against the
    /// directory's tag array), sorted.
    pub fn lines_matching(&self, wsig: &Signature) -> Vec<LineAddr> {
        let mut v: Vec<LineAddr> = self.sig_index.matching(wsig).collect();
        v.sort_unstable();
        v
    }

    /// Applies a committed chunk's writes: every tracked line matching
    /// `wsig` becomes dirty-owned by `committer` with no other sharers.
    /// Returns the number of lines updated.
    pub fn apply_commit(&mut self, wsig: &Signature, committer: CoreId) -> u32 {
        let mut n = 0;
        for line in self.sig_index.matching(wsig) {
            let info = self.lines[shard_of(line)]
                .get_mut(&line)
                .expect("index tracks line");
            info.sharers = CoreSet::single(committer);
            info.owner = Some(committer);
            n += 1;
        }
        n
    }

    /// Records that a committed write created a line not previously tracked
    /// (e.g. first write to a page homed here).
    pub fn record_commit_write(&mut self, line: LineAddr, committer: CoreId) {
        let info = self.tracked_entry(line);
        info.sharers = CoreSet::single(committer);
        info.owner = Some(committer);
    }

    /// Removes `core` from the sharers of `line` (cache eviction /
    /// invalidation acknowledgement).
    pub fn drop_sharer(&mut self, line: LineAddr, core: CoreId) {
        let shard = &mut self.lines[shard_of(line)];
        if let Some(info) = shard.get_mut(&line) {
            info.sharers.remove(core);
            if info.owner == Some(core) {
                info.owner = None;
            }
            if info.sharers.is_empty() && info.owner.is_none() && !info.resident {
                shard.remove(&line);
                self.sig_index.remove(line);
            }
        }
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.lines.iter().map(|s| s.len()).sum()
    }

    /// Whether nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.lines.iter().all(|s| s.is_empty())
    }

    /// Iterates over all tracked lines.
    pub fn tracked_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines.iter().flat_map(|s| s.keys().copied())
    }
}

impl Default for DirectoryState {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_sigs::SignatureConfig;

    fn sig_of(lines: &[u64]) -> Signature {
        Signature::from_lines(SignatureConfig::paper_default(), lines.iter().copied())
    }

    #[test]
    fn read_tracking_accumulates_sharers() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(1), CoreId(0));
        d.record_read(LineAddr(1), CoreId(3));
        let s = d.sharers_of(LineAddr(1));
        assert!(s.contains(CoreId(0)) && s.contains(CoreId(3)));
        assert_eq!(d.sharers_of(LineAddr(2)), CoreSet::empty());
    }

    #[test]
    fn sharers_matching_excludes_committer() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(10), CoreId(1));
        d.record_read(LineAddr(10), CoreId(2));
        d.record_read(LineAddr(11), CoreId(4));
        let w = sig_of(&[10]);
        let s = d.sharers_matching(&w, CoreId(2));
        assert!(s.contains(CoreId(1)));
        assert!(!s.contains(CoreId(2)), "committer must be excluded");
        assert!(!s.contains(CoreId(4)), "line 11 does not match");
    }

    #[test]
    fn sharers_matching_includes_dirty_owner() {
        let mut d = DirectoryState::new();
        d.record_commit_write(LineAddr(5), CoreId(7));
        let s = d.sharers_matching(&sig_of(&[5]), CoreId(0));
        assert!(s.contains(CoreId(7)));
    }

    #[test]
    fn apply_commit_transfers_ownership() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(20), CoreId(1));
        d.record_read(LineAddr(20), CoreId(2));
        let n = d.apply_commit(&sig_of(&[20]), CoreId(9));
        assert_eq!(n, 1);
        assert_eq!(d.owner_of(LineAddr(20)), Some(CoreId(9)));
        assert_eq!(d.sharers_of(LineAddr(20)), CoreSet::single(CoreId(9)));
    }

    #[test]
    fn lines_matching_expansion() {
        let mut d = DirectoryState::new();
        for l in [1u64, 2, 3, 50] {
            d.record_read(LineAddr(l), CoreId(0));
        }
        let matches = d.lines_matching(&sig_of(&[2, 50]));
        assert!(matches.contains(&LineAddr(2)));
        assert!(matches.contains(&LineAddr(50)));
        // Signature expansion is conservative: it may include aliases, but
        // must include all true members.
        assert!(matches.len() >= 2);
    }

    #[test]
    fn drop_sharer_garbage_collects() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(1), CoreId(0));
        d.drop_sharer(LineAddr(1), CoreId(0));
        assert!(d.is_empty());
        // The inverted index is garbage-collected with the line.
        assert_eq!(d.sig_index.check_bucket_placement(), 0);
        // Dropping an untracked line is a no-op.
        d.drop_sharer(LineAddr(2), CoreId(0));
    }

    #[test]
    fn drop_owner_clears_ownership() {
        let mut d = DirectoryState::new();
        d.record_commit_write(LineAddr(8), CoreId(3));
        d.record_read(LineAddr(8), CoreId(4));
        d.drop_sharer(LineAddr(8), CoreId(3));
        assert_eq!(d.owner_of(LineAddr(8)), None);
        assert!(d.sharers_of(LineAddr(8)).contains(CoreId(4)));
    }

    #[test]
    fn tracked_lines_iterates_all() {
        let mut d = DirectoryState::new();
        d.record_read(LineAddr(1), CoreId(0));
        d.record_read(LineAddr(9), CoreId(0));
        let mut v: Vec<_> = d.tracked_lines().collect();
        v.sort();
        assert_eq!(v, vec![LineAddr(1), LineAddr(9)]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn indexed_expansion_matches_full_scan() {
        // The inverted bank-0 index must produce exactly the same
        // expansion as a brute-force scan over every tracked line.
        let mut d = DirectoryState::new();
        for l in 0..2000u64 {
            d.record_read(LineAddr(l * 3 + 1), CoreId((l % 7) as u16));
        }
        let w = sig_of(&[4, 301, 1501, 99_999]);
        let brute: Vec<LineAddr> = {
            let mut v: Vec<LineAddr> = d.tracked_lines().filter(|l| w.test(l.as_u64())).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(d.lines_matching(&w), brute);
        let mut brute_sharers = CoreSet::empty();
        for l in &brute {
            brute_sharers = brute_sharers.union(&d.sharers_of(*l));
        }
        assert_eq!(
            d.sharers_matching(&w, CoreId(63)),
            brute_sharers.without(CoreId(63))
        );
    }

    #[test]
    #[should_panic(expected = "geometry differs")]
    fn mismatched_geometry_panics() {
        let mut d = DirectoryState::new(); // indexed for paper_default
        d.record_read(LineAddr(42), CoreId(2));
        let other = Signature::from_lines(SignatureConfig::new(1024, 4), [42u64]);
        d.sharers_matching(&other, CoreId(0));
    }
}
