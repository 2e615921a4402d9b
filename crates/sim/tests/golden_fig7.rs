//! Golden snapshot of a small fig-7-style app × protocol grid.
//!
//! The zero-copy commit path (shared signature handles, reused command
//! buffers, Fx-hashed simulator maps) must never change *simulated*
//! results — only host-side speed. This test freezes `wall_cycles`,
//! `commits` and `traffic.total_messages()` for a representative grid;
//! any drift means an "optimization" changed machine behavior.
//!
//! To regenerate after an *intentional* model change, run
//!
//! ```text
//! SB_GOLDEN_PRINT=1 cargo test -p sb-sim --test golden_fig7 -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

use sb_net::Topology;
use sb_proto::ProtocolKind;
use sb_sim::{run_simulation, SimConfig};
use sb_workloads::AppProfile;

const CORES: u16 = 16;
const INSNS: u64 = 6_000;

/// Table 3's four protocols plus the SEQ-TS extension.
const PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::ScalableBulk,
    ProtocolKind::Tcc,
    ProtocolKind::Seq,
    ProtocolKind::SeqTs,
    ProtocolKind::BulkSc,
];

fn apps() -> [(&'static str, AppProfile); 3] {
    [
        ("fft", AppProfile::fft()),
        ("radix", AppProfile::radix()),
        // One PARSEC app so the snapshot also covers the wide-group,
        // mostly-private footprint shape (SPLASH-2's two are
        // conflict-heavier).
        ("canneal", AppProfile::canneal()),
    ]
}

/// (app, protocol, wall_cycles, commits, total_messages)
const GOLDEN: &[(&str, ProtocolKind, u64, u64, u64)] = &[
    ("fft", ProtocolKind::ScalableBulk, 11621, 73, 4835),
    ("fft", ProtocolKind::Tcc, 11883, 73, 7496),
    ("fft", ProtocolKind::Seq, 11666, 73, 5116),
    ("fft", ProtocolKind::SeqTs, 31703, 73, 8580),
    ("fft", ProtocolKind::BulkSc, 11626, 73, 6171),
    ("radix", ProtocolKind::ScalableBulk, 11651, 71, 5008),
    ("radix", ProtocolKind::Tcc, 14097, 71, 5430),
    ("radix", ProtocolKind::Seq, 23714, 71, 5597),
    ("radix", ProtocolKind::SeqTs, 141766, 71, 35178),
    ("radix", ProtocolKind::BulkSc, 11500, 71, 4677),
    ("canneal", ProtocolKind::ScalableBulk, 16318, 74, 15070),
    ("canneal", ProtocolKind::Tcc, 16896, 74, 20191),
    ("canneal", ProtocolKind::Seq, 20995, 74, 15166),
    ("canneal", ProtocolKind::SeqTs, 118151, 74, 37109),
    ("canneal", ProtocolKind::BulkSc, 16237, 74, 15190),
];

fn run(app: AppProfile, protocol: ProtocolKind) -> (u64, u64, u64) {
    let mut cfg = SimConfig::paper_default(CORES, app, protocol);
    cfg.insns_per_thread = INSNS;
    let r = run_simulation(&cfg);
    (r.wall_cycles, r.commits, r.traffic.total_messages())
}

#[test]
fn fig7_grid_matches_golden_snapshot() {
    if std::env::var_os("SB_GOLDEN_PRINT").is_some() {
        for (name, app) in apps() {
            for protocol in PROTOCOLS {
                let (w, c, m) = run(app, protocol);
                println!("    (\"{name}\", ProtocolKind::{protocol:?}, {w}, {c}, {m}),");
            }
        }
        return;
    }
    let mut checked = 0;
    for (name, app) in apps() {
        for protocol in PROTOCOLS {
            let got = run(app, protocol);
            let want = GOLDEN
                .iter()
                .find(|(n, p, ..)| *n == name && *p == protocol)
                .unwrap_or_else(|| panic!("no golden entry for {name}/{protocol}"));
            assert_eq!(
                got,
                (want.2, want.3, want.4),
                "{name}/{protocol}: (wall_cycles, commits, total_messages) drifted from golden"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, GOLDEN.len(), "grid and golden table out of sync");
}

/// Past 64 cores: ScalableBulk FFT on 128 cores, one row per fabric.
/// These runs exercise what the 16-core grid cannot reach — heap-spilled
/// core sets (sharers numbered >= 64), sharded directory state and the
/// active-unit index over a wide machine — at a budget small enough for a
/// debug build.
const WIDE_CORES: u16 = 128;
const WIDE_INSNS: u64 = 1_500;

/// (fabric, wall_cycles, commits, total_messages)
const WIDE_GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("torus", 11903, 261, 12979),
    ("cmesh", 9885, 261, 13077),
    ("xtorus", 9632, 261, 13064),
];

fn run_wide(fabric: &str) -> (u64, u64, u64) {
    let mut cfg =
        SimConfig::paper_default(WIDE_CORES, AppProfile::fft(), ProtocolKind::ScalableBulk);
    cfg.insns_per_thread = WIDE_INSNS;
    cfg.set_topology(Topology::by_name(fabric, WIDE_CORES).expect("known fabric"));
    let r = run_simulation(&cfg);
    (r.wall_cycles, r.commits, r.traffic.total_messages())
}

#[test]
fn wide_fft_matches_golden_snapshot() {
    if std::env::var_os("SB_GOLDEN_PRINT").is_some() {
        for &(fabric, ..) in WIDE_GOLDEN {
            let (w, c, m) = run_wide(fabric);
            println!("    (\"{fabric}\", {w}, {c}, {m}),");
        }
        return;
    }
    for &(fabric, w, c, m) in WIDE_GOLDEN {
        assert_eq!(
            run_wide(fabric),
            (w, c, m),
            "{fabric}@{WIDE_CORES}: (wall_cycles, commits, total_messages) drifted from golden"
        );
    }
    assert_eq!(WIDE_GOLDEN.len(), 3, "one row per fabric");
}

#[test]
fn same_config_twice_is_bit_identical() {
    // The golden table above catches drift *between* builds; this pins
    // determinism *within* one process — two runs of the same config must
    // agree exactly, or replaying an `sb-check` fuzz triple would not
    // reproduce the failure it names.
    let a = run(AppProfile::canneal(), ProtocolKind::ScalableBulk);
    let b = run(AppProfile::canneal(), ProtocolKind::ScalableBulk);
    assert_eq!(a, b, "(wall_cycles, commits, total_messages) diverged");
}
