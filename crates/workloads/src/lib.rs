//! Synthetic SPLASH-2 and PARSEC application models.
//!
//! The paper evaluates 11 SPLASH-2 and 7 PARSEC applications, executed
//! unmodified and automatically chopped into ~2000-instruction chunks
//! (§2.2). This reproduction cannot run the real binaries (no SESC, no
//! reference inputs — see DESIGN.md §1), so this crate provides
//! *calibrated synthetic generators*: per application, a [`AppProfile`]
//! captures the footprint statistics the protocols are sensitive to —
//!
//! * memory intensity and write fraction,
//! * the number of distinct pages written/read per chunk (which, through
//!   first-touch page mapping, becomes Figures 9–12's "directories per
//!   chunk commit"),
//! * whether writes scatter across the whole shared heap (Radix's bucket
//!   permutation — "the writes to these buckets are random ... and have no
//!   spatial locality", §6.1),
//! * spatial (sequential-run) and temporal (page-reuse) locality, which
//!   drive the cache-miss component of execution time, and
//! * inter-thread conflict probability on a small set of hot lines, which
//!   drives the squash rate (the paper reports 1.5% data-conflict
//!   squashes at 64 processors).
//!
//! [`WorkloadGen`] turns a profile into deterministic per-thread chunk
//! streams ([`sb_chunks::ChunkSpec`]). [`WorkloadGen::split`] hands each
//! core the [`CoreStreams`] it runs: its own thread, or — in the
//! 1-processor normalization runs of Figures 7–8 — every thread,
//! round-robin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod profiles;

pub use gen::{CoreStreams, WorkloadGen};
pub use profiles::{AppProfile, Suite};
