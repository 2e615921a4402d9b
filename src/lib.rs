//! # ScalableBulk — a full reproduction of the MICRO 2010 paper
//!
//! This crate is the facade of a Rust workspace that reimplements, from
//! scratch, the system described in *Qian, Ahn, Torrellas: "ScalableBulk:
//! Scalable Cache Coherence for Atomic Blocks in a Lazy Environment"*
//! (MICRO 2010): a directory-based cache-coherence protocol that commits
//! *chunks* (atomic blocks of ~2000 instructions) in a lazy
//! conflict-detection environment with highly-overlapped, scalable
//! commits.
//!
//! The workspace contains every substrate the paper depends on:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`engine`] | `sb-engine` | deterministic discrete-event kernel |
//! | [`sigs`] | `sb-sigs` | Bulk-style hardware address signatures |
//! | [`mem`] | `sb-mem` | caches, page mapping, directory state |
//! | [`net`] | `sb-net` | 2D-torus interconnect and traffic classes |
//! | [`chunks`] | `sb-chunks` | chunk model and per-core chunk window |
//! | [`proto`] | `sb-proto` | the protocol seam + deterministic test fabric |
//! | [`core`] | `sb-core` | **the ScalableBulk protocol** (the paper's contribution) |
//! | [`baselines`] | `sb-baselines` | Scalable TCC, SEQ-PRO, BulkSC |
//! | [`workloads`] | `sb-workloads` | synthetic SPLASH-2 / PARSEC models |
//! | [`stats`] | `sb-stats` | per-figure metric collectors |
//! | [`sim`] | `sb-sim` | the full-system simulator + figure harness |
//!
//! # Quickstart
//!
//! ```
//! use scalablebulk::prelude::*;
//!
//! // Run Barnes on a 16-core machine under ScalableBulk.
//! let mut cfg = SimConfig::paper_default(16, AppProfile::barnes(), ProtocolKind::ScalableBulk);
//! cfg.insns_per_thread = 6_000;
//! let result = run_simulation(&cfg);
//! assert!(result.commits > 0);
//! println!(
//!     "wall={}cy commits={} mean commit latency={:.0}cy",
//!     result.wall_cycles,
//!     result.commits,
//!     result.latency.mean()
//! );
//! ```
//!
//! To regenerate the paper's figures:
//!
//! ```text
//! cargo run --release -p sb-sim --bin figures -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sb_baselines as baselines;
pub use sb_chunks as chunks;
pub use sb_core as core;
pub use sb_engine as engine;
pub use sb_mem as mem;
pub use sb_net as net;
pub use sb_proto as proto;
pub use sb_sigs as sigs;
pub use sb_sim as sim;
pub use sb_stats as stats;
pub use sb_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use sb_baselines::{BulkSc, BulkScConfig, Seq, Tcc, TccConfig};
    pub use sb_chunks::{ActiveChunk, ChunkSpec, ChunkTag, ChunkWindow, CommitRequest};
    pub use sb_core::{SbConfig, ScalableBulk};
    pub use sb_engine::Cycle;
    pub use sb_mem::{Addr, CoreId, DirId, LineAddr};
    pub use sb_proto::{CommitProtocol, Fabric, FabricConfig, ProtocolKind};
    pub use sb_sigs::{Signature, SignatureConfig};
    pub use sb_sim::{run_app, run_simulation, RunResult, SimConfig};
    pub use sb_stats::TextTable;
    pub use sb_workloads::{AppProfile, Suite, WorkloadGen};
}
