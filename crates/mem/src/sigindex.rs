//! The inverted bank-0 signature index shared by caches and directories.
//!
//! Expanding a W signature against a tag array is the operation both a
//! directory (building `inval_vec`, §3.2.1) and a sharer cache (on
//! `bulk inv`) perform on every commit. A line can only pass
//! [`Signature::test`] if its bank-0 bit is set, so keying the resident
//! lines by their bank-0 bit position lets an expansion visit only the
//! buckets of the signature's set bank-0 bits and full-test each
//! candidate: the same matches as a full tag scan, orders of magnitude
//! fewer probes.

use sb_sigs::{bank_hash, Signature, SignatureConfig};

use crate::addr::LineAddr;

/// Bank-0 bit position → the indexed lines hashing to it.
///
/// Every indexed line appears in exactly one bucket. The index serves W
/// signatures of one geometry only, fixed at construction.
#[derive(Clone, Debug)]
pub(crate) struct SigIndex {
    cfg: SignatureConfig,
    buckets: Vec<Vec<LineAddr>>,
}

impl SigIndex {
    /// An empty index for W signatures of geometry `cfg`.
    pub(crate) fn new(cfg: SignatureConfig) -> Self {
        SigIndex {
            cfg,
            buckets: vec![Vec::new(); cfg.bits_per_bank() as usize],
        }
    }

    #[inline]
    fn bucket_of(&self, line: LineAddr) -> usize {
        bank_hash(line.as_u64(), 0, self.cfg.bits_per_bank()) as usize
    }

    /// Adds `line`, which must not already be indexed.
    pub(crate) fn insert(&mut self, line: LineAddr) {
        let bucket = self.bucket_of(line);
        self.buckets[bucket].push(line);
    }

    /// Removes `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is not indexed.
    pub(crate) fn remove(&mut self, line: LineAddr) {
        let bucket = self.bucket_of(line);
        let b = &mut self.buckets[bucket];
        let pos = b.iter().position(|&l| l == line).expect("indexed line");
        b.swap_remove(pos);
    }

    /// The indexed lines matching `wsig`, in set-bank-0-bit order and
    /// bucket order within a bit.
    ///
    /// # Panics
    ///
    /// Panics if `wsig` has a different geometry than the index: its
    /// bank-0 bits would name the wrong buckets and silently miss matches.
    pub(crate) fn matching<'a>(
        &'a self,
        wsig: &'a Signature,
    ) -> impl Iterator<Item = LineAddr> + 'a {
        assert_eq!(
            wsig.config(),
            self.cfg,
            "W signature geometry differs from the index's"
        );
        wsig.bank_set_bits(0)
            .flat_map(move |bit| self.buckets[bit as usize].iter().copied())
            .filter(move |l| wsig.test(l.as_u64()))
    }

    /// Asserts every indexed line sits in its own bank-0 bucket and
    /// returns how many lines are indexed.
    #[cfg(test)]
    pub(crate) fn check_bucket_placement(&self) -> usize {
        for (bit, b) in self.buckets.iter().enumerate() {
            for &l in b {
                assert_eq!(self.bucket_of(l), bit, "{l:?} in the wrong bucket");
            }
        }
        self.buckets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "geometry differs")]
    fn mismatched_geometry_panics() {
        let mut idx = SigIndex::new(SignatureConfig::paper_default());
        idx.insert(LineAddr(42));
        let other = Signature::from_lines(SignatureConfig::new(1024, 4), [42u64]);
        let _ = idx.matching(&other);
    }

    proptest! {
        /// Indexed expansion equals a brute-force `wsig.test` filter over
        /// the live lines, whatever was inserted and removed before.
        #[test]
        fn prop_matching_equals_brute_force(
            ops in proptest::collection::vec((any::<bool>(), 0u64..4096), 1..300),
            wlines in proptest::collection::vec(0u64..4096, 0..24),
        ) {
            let cfg = SignatureConfig::paper_default();
            let mut idx = SigIndex::new(cfg);
            let mut live: Vec<LineAddr> = Vec::new();
            for (insert, l) in ops {
                let line = LineAddr(l);
                let pos = live.iter().position(|&x| x == line);
                match (insert, pos) {
                    (true, None) => {
                        idx.insert(line);
                        live.push(line);
                    }
                    (false, Some(p)) => {
                        idx.remove(line);
                        live.swap_remove(p);
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(idx.check_bucket_placement(), live.len());
            let wsig = Signature::from_lines(cfg, wlines.iter().copied());
            let mut got: Vec<LineAddr> = idx.matching(&wsig).collect();
            got.sort_unstable();
            let mut want: Vec<LineAddr> =
                live.into_iter().filter(|l| wsig.test(l.as_u64())).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
