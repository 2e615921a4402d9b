//! The `prof.*` key set of a profiled run.
//!
//! External harnesses (the `perfbench` benchmark among them) read the
//! executor self-profile from `RunResult::metrics` by name and fall back
//! to zero for a missing key, so a renamed or dropped key would silently
//! zero their per-layer numbers. This test pins the exact set, and which
//! keys are counters and which are gauges.

use sb_proto::ProtocolKind;
use sb_sim::{run_simulation, RunResult, SimConfig};
use sb_workloads::AppProfile;

/// Counters a profiled run emits.
const COUNTERS: [&str; 8] = [
    "prof.superphases",
    "prof.drain_superphases",
    "prof.unit_visits",
    "prof.hub_phases",
    "prof.hub_busy_phases",
    "prof.queue.ring_pushes",
    "prof.queue.far_pushes",
    "prof.queue.past_pushes",
];

/// Gauges a profiled run emits. `prof.domain_busy_secs.d0` is the
/// plane-A busy time.
const GAUGES: [&str; 6] = [
    "prof.hub_utilization",
    "prof.hub_busy_secs",
    "prof.domain_busy_secs.d0",
    "prof.queue.ring_hwm",
    "prof.queue.far_hwm",
    "prof.queue.past_hwm",
];

/// Emitted only where procfs exposes the process's memory status.
const PEAK_RSS: &str = "prof.peak_rss_bytes";

fn run(profile: bool) -> RunResult {
    let mut cfg = SimConfig::paper_default(8, AppProfile::fft(), ProtocolKind::ScalableBulk);
    cfg.insns_per_thread = 2_000;
    cfg.trace = true;
    cfg.obs.profile = profile;
    run_simulation(&cfg)
}

fn prof_keys(r: &RunResult) -> Vec<String> {
    let mut keys: Vec<String> = r
        .metrics
        .names()
        .filter(|n| n.starts_with("prof.") && *n != PEAK_RSS)
        .map(str::to_string)
        .collect();
    keys.sort();
    keys
}

#[test]
fn profiled_run_emits_exactly_the_pinned_prof_keys() {
    let r = run(true);
    let mut want: Vec<String> = COUNTERS
        .iter()
        .chain(&GAUGES)
        .map(|k| k.to_string())
        .collect();
    want.sort();
    assert_eq!(prof_keys(&r), want);

    let m = &r.metrics;
    for k in COUNTERS {
        assert!(m.counter(k).is_some(), "{k} is not a counter");
    }
    for k in GAUGES {
        assert!(m.gauge(k).is_some(), "{k} is not a gauge");
    }
    if cfg!(target_os = "linux") {
        assert!(m.gauge(PEAK_RSS).unwrap_or(0.0) > 0.0, "{PEAK_RSS} missing");
    }
    // Keys nothing emits any more: a harness reading them gets zero.
    for gone in [
        "prof.barrier_stall_secs",
        "prof.domains",
        "prof.domain_busy_secs.d1",
    ] {
        assert!(
            m.counter(gone).is_none() && m.gauge(gone).is_none(),
            "{gone}"
        );
    }

    // The keys carry real measurements, not placeholders.
    assert!(m.counter("prof.superphases").unwrap() > 0);
    assert!(
        m.counter("prof.drain_superphases").unwrap() > 0,
        "traced run drains"
    );
    assert!(m.counter("prof.unit_visits").unwrap() > 0);
    assert!(m.counter("prof.hub_phases").unwrap() > 0);
    assert!(m.counter("prof.hub_busy_phases").unwrap() <= m.counter("prof.hub_phases").unwrap());
    assert!(m.counter("prof.queue.ring_pushes").unwrap() > 0);
    assert!(m.gauge("prof.domain_busy_secs.d0").unwrap() > 0.0);
    assert!(m.gauge("prof.hub_busy_secs").unwrap() > 0.0);
}

/// The superphase loop visits only units with an event below the
/// horizon, so visits are bounded by the work done, not by superphases ×
/// cores. Counts work, never times it.
#[test]
fn unit_visits_never_exceed_dispatched_events_on_a_wide_machine() {
    let mut cfg = SimConfig::paper_default(256, AppProfile::fft(), ProtocolKind::ScalableBulk);
    cfg.insns_per_thread = 500;
    cfg.obs.profile = true;
    let r = run_simulation(&cfg);
    let m = &r.metrics;
    let visits = m.counter("prof.unit_visits").unwrap();
    let dispatched = m.counter("events.dispatched").unwrap();
    assert!(visits > 0);
    assert!(
        visits <= dispatched,
        "{visits} unit visits for {dispatched} dispatched events"
    );
}

#[test]
fn unprofiled_run_emits_no_prof_keys() {
    let r = run(false);
    assert!(
        r.metrics.names().all(|n| !n.starts_with("prof.")),
        "profiling is opt-in"
    );
}
