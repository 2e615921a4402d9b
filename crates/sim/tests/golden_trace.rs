//! Golden snapshot of the Perfetto export for one small deterministic
//! run, plus the observational-purity guard.
//!
//! The exporter's JSON must be a pure function of the run (itself a pure
//! function of config + seed): this pins the byte fingerprint of the
//! serialized document the way `golden_fig7` pins simulated results.
//! Any drift means either the simulation changed (regenerate
//! `golden_fig7` first) or the export schema changed (regenerate here).
//!
//! To regenerate after an *intentional* change, run
//!
//! ```text
//! SB_GOLDEN_PRINT=1 cargo test -p sb-sim --test golden_trace -- --nocapture
//! ```
//!
//! and paste the printed constants over `GOLDEN_*`.

use sb_proto::ProtocolKind;
use sb_sim::{perfetto_trace, run_simulation, verify_observability, SimConfig};
use sb_workloads::AppProfile;

const CORES: u16 = 4;
const INSNS: u64 = 4_000;

/// FNV-1a fingerprint of the serialized Perfetto document.
const GOLDEN_FINGERPRINT: u64 = 0x28a0a9ee6a3cb1fd;
/// Number of entries in `traceEvents` (metadata + timed).
const GOLDEN_EVENTS: usize = 397;

fn observed_cfg() -> SimConfig {
    let mut cfg = SimConfig::paper_default(CORES, AppProfile::fft(), ProtocolKind::ScalableBulk);
    cfg.insns_per_thread = INSNS;
    cfg.trace = true;
    cfg.obs = sb_sim::ObsConfig::on();
    cfg
}

#[test]
fn perfetto_export_matches_golden_snapshot() {
    let r = run_simulation(&observed_cfg());
    let json = perfetto_trace(&r);
    let text = json.to_string();
    let events = json.get("traceEvents").unwrap().as_array().unwrap().len();
    if std::env::var_os("SB_GOLDEN_PRINT").is_some() {
        println!(
            "const GOLDEN_FINGERPRINT: u64 = {:#x};",
            sb_obs::fingerprint(text.as_bytes())
        );
        println!("const GOLDEN_EVENTS: usize = {events};");
        return;
    }
    assert_eq!(events, GOLDEN_EVENTS, "export event count drifted");
    assert_eq!(
        sb_obs::fingerprint(text.as_bytes()),
        GOLDEN_FINGERPRINT,
        "perfetto export drifted from golden snapshot"
    );
    // The pinned document is well-formed and reconciles with the run.
    let violations = verify_observability(&r);
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn double_export_is_byte_identical() {
    let r = run_simulation(&observed_cfg());
    let a = perfetto_trace(&r).to_string();
    let b = perfetto_trace(&r).to_string();
    assert_eq!(a, b, "export of the same result diverged");
    // And two runs of the same config export identically too.
    let r2 = run_simulation(&observed_cfg());
    let c = perfetto_trace(&r2).to_string();
    assert_eq!(a, c, "export across identical runs diverged");
}

#[test]
fn export_has_at_least_two_track_types() {
    let r = run_simulation(&observed_cfg());
    let json = perfetto_trace(&r);
    let events = json.get("traceEvents").unwrap().as_array().unwrap();
    let cats: std::collections::BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("cat").and_then(|c| c.as_str()))
        .collect();
    assert!(
        cats.contains("chunk") && cats.contains("grab"),
        "need core-lifecycle and directory-occupancy tracks, got {cats:?}"
    );
    assert!(
        cats.contains("flow"),
        "causal flow arrows missing: {cats:?}"
    );
}

#[test]
fn observability_never_changes_simulated_results() {
    // The golden-guard for "zero-cost when disabled" and "purely
    // observational when enabled": the same config with trace/obs on and
    // off must produce bit-identical simulated metrics.
    let mut plain = observed_cfg();
    plain.trace = false;
    plain.obs = sb_sim::ObsConfig::default();
    let observed = run_simulation(&observed_cfg());
    let bare = run_simulation(&plain);
    assert_eq!(observed.wall_cycles, bare.wall_cycles);
    assert_eq!(observed.commits, bare.commits);
    assert_eq!(observed.squashes(), bare.squashes());
    assert_eq!(
        observed.traffic.total_messages(),
        bare.traffic.total_messages()
    );
    assert_eq!(observed.read_nacks, bare.read_nacks);
    // Flow stamping rides the same scheduled events: the full latency
    // distribution and cycle breakdown must not move either.
    assert_eq!(observed.latency.count(), bare.latency.count());
    assert_eq!(observed.latency.sum(), bare.latency.sum());
    assert_eq!(observed.latency.max(), bare.latency.max());
    assert_eq!(observed.breakdown, bare.breakdown);
    assert_eq!(observed.commit_retries, bare.commit_retries);
}
