//! The per-core stream split is invisible in the chunks.
//!
//! The simulator builds one [`WorkloadGen`] for setup, then splits it so
//! that each core owns only the streams it runs. Every simulated result
//! depends on that split yielding exactly the chunk sequences the
//! unsplit generator would: same thread, same RNG draws, same page
//! cursors, whatever order the cores happen to pull in.

use proptest::prelude::*;
use proptest::sample::Index;
use sb_workloads::{AppProfile, WorkloadGen};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any app, 1..=130 threads, any seed, and an interleaved pull order
    /// over the cores: each pull from core `c`'s set equals
    /// `next_chunk(t)` on an unsplit generator, where `t` walks the
    /// threads `c` owns (`t % cores == c`) round-robin. The core count is
    /// one per thread (the parallel runs), 1 (the round-robin
    /// normalization run), or anything in between.
    #[test]
    fn split_streams_match_the_unsplit_generator(
        app in any::<Index>(),
        threads in 1usize..131,
        seed in any::<u64>(),
        shape in (0u8..3, any::<Index>()),
        pulls in proptest::collection::vec(any::<Index>(), 1..80),
    ) {
        let apps = AppProfile::all();
        let profile = apps[app.index(apps.len())];
        let cores = match shape.0 {
            0 => threads,
            1 => 1,
            _ => shape.1.index(threads) + 1,
        };
        let mut whole = WorkloadGen::new(profile, threads, seed);
        let mut sets = WorkloadGen::new(profile, threads, seed).split(cores);
        prop_assert_eq!(sets.len(), cores);
        let owned: Vec<Vec<usize>> = (0..cores)
            .map(|c| (c..threads).step_by(cores).collect())
            .collect();
        for (c, set) in sets.iter().enumerate() {
            prop_assert_eq!(set.threads(), owned[c].len());
        }
        let mut pulled = vec![0usize; cores];
        for pick in pulls {
            let c = pick.index(cores);
            let t = owned[c][pulled[c] % owned[c].len()];
            pulled[c] += 1;
            prop_assert_eq!(
                sets[c].next_chunk(),
                whole.next_chunk(t),
                "{} threads on {} cores: core {} pull {} (thread {})",
                threads, cores, c, pulled[c], t
            );
        }
    }
}
