//! Drives one machine through the simulator's public entry points and
//! times each call from outside.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use sb_baselines::{BulkSc, Seq, SeqTs, Tcc};
use sb_core::ScalableBulk;
use sb_proto::{CommitProtocol, ProtocolKind};
use sb_sim::{Machine, RunResult, SimConfig};

use crate::digest::Digest;
use crate::rss::Mem;
use crate::spans::Tracer;
use crate::workload::MachineSpec;

/// Per-layer counts and executor self-profile of one or more runs, read
/// from `RunResult::metrics` (the `prof.*` entries need
/// `cfg.obs.profile`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layers {
    /// Superphases, measured run plus post-run drain.
    pub superphases: u64,
    /// Superphases × cores: core units the superphase loop walks.
    pub unit_visits: u64,
    /// Events dispatched.
    pub events: u64,
    /// Protocol handler steps.
    pub steps: u64,
    /// Chunks committed.
    pub commits: u64,
    /// Chunks squashed (conflict plus alias).
    pub squashes: u64,
    /// Chunks squashed by signature aliasing alone.
    pub alias_squashes: u64,
    /// Failed group formations retried.
    pub commit_retries: u64,
    /// Reads nacked by a committing write signature.
    pub read_nacks: u64,
    /// Remote read transactions.
    pub remote_reads: u64,
    /// Network messages, all classes.
    pub msgs: u64,
    /// Network bytes, all classes.
    pub bytes: u64,
    /// Calendar-queue pushes landing in the ring tier.
    pub ring_pushes: u64,
    /// Calendar-queue pushes landing in the far heap.
    pub far_pushes: u64,
    /// Largest ring occupancy of any queue.
    pub ring_hwm: u64,
    /// Largest far-heap occupancy of any queue.
    pub far_hwm: u64,
    /// Hub (plane B) phases.
    pub hub_phases: u64,
    /// Hub phases that dispatched at least one event.
    pub hub_busy_phases: u64,
    /// Host seconds in the plane-A core-unit walk.
    pub plane_a_s: f64,
    /// Host seconds in the plane-B hub.
    pub hub_busy_s: f64,
}

impl Layers {
    /// The layers of one profiled run on `cores` cores.
    pub fn of(r: &RunResult, cores: u16) -> Layers {
        let m = &r.metrics;
        let c = |n: &str| m.counter(n).unwrap_or(0);
        let g = |n: &str| m.gauge(n).unwrap_or(0.0);
        let superphases = c("prof.superphases") + c("prof.drain_superphases");
        Layers {
            superphases,
            unit_visits: superphases * u64::from(cores),
            events: c("events.dispatched"),
            steps: c("protocol.steps"),
            commits: r.commits,
            squashes: r.squashes(),
            alias_squashes: r.squashes_alias,
            commit_retries: r.commit_retries,
            read_nacks: r.read_nacks,
            remote_reads: r.remote_reads,
            msgs: r.traffic.total_messages(),
            bytes: r.traffic.total_bytes(),
            ring_pushes: c("prof.queue.ring_pushes"),
            far_pushes: c("prof.queue.far_pushes"),
            ring_hwm: g("prof.queue.ring_hwm") as u64,
            far_hwm: g("prof.queue.far_hwm") as u64,
            hub_phases: c("prof.hub_phases"),
            hub_busy_phases: c("prof.hub_busy_phases"),
            plane_a_s: g("prof.domain_busy_secs.d0"),
            hub_busy_s: g("prof.hub_busy_secs"),
        }
    }

    /// Accumulates another run: counts and times add, high-water marks
    /// take the maximum.
    pub fn add(&mut self, o: &Layers) {
        self.superphases += o.superphases;
        self.unit_visits += o.unit_visits;
        self.events += o.events;
        self.steps += o.steps;
        self.commits += o.commits;
        self.squashes += o.squashes;
        self.alias_squashes += o.alias_squashes;
        self.commit_retries += o.commit_retries;
        self.read_nacks += o.read_nacks;
        self.remote_reads += o.remote_reads;
        self.msgs += o.msgs;
        self.bytes += o.bytes;
        self.ring_pushes += o.ring_pushes;
        self.far_pushes += o.far_pushes;
        self.ring_hwm = self.ring_hwm.max(o.ring_hwm);
        self.far_hwm = self.far_hwm.max(o.far_hwm);
        self.hub_phases += o.hub_phases;
        self.hub_busy_phases += o.hub_busy_phases;
        self.plane_a_s += o.plane_a_s;
        self.hub_busy_s += o.hub_busy_s;
    }
}

/// What driving one machine produced.
#[derive(Clone, Debug, Default)]
pub struct MachineRun {
    /// Seconds building the protocol instance and in `Machine::new`.
    pub setup_s: f64,
    /// Seconds in `Machine::run`.
    pub run_s: f64,
    /// Seconds in `sb_check::verify_result` (0 when not checked).
    pub oracle_s: f64,
    /// Seconds in `sb_sim::verify_observability`, timed on its own on
    /// the same result (profiled oracle runs only).
    pub verify_obs_s: f64,
    /// Seconds for the whole machine, oracle included.
    pub total_s: f64,
    /// The simulated digest; `None` when the machine panicked.
    pub digest: Option<Digest>,
    /// Panic message and oracle violations; empty for a clean run.
    pub problems: Vec<String>,
    /// Per-layer counts (profiled runs only).
    pub layers: Option<Layers>,
    /// Process memory right after `Machine::new` (profiled runs only).
    pub after_new: Mem,
    /// Process memory right after `Machine::run` (profiled runs only).
    pub after_run: Mem,
}

/// Builds and runs `spec`'s machine. With `oracle` the result goes
/// through `verify_result`; with `profile` the executor's self-profile is
/// on, memory is read after `Machine::new` and after `Machine::run`, and
/// an oracle run also times `verify_observability` on its own. A panic
/// anywhere is caught and reported in `problems`.
pub fn run_machine(spec: &MachineSpec, oracle: bool, profile: bool, tr: &mut Tracer) -> MachineRun {
    let mut cfg = spec.cfg.clone();
    cfg.obs.profile = profile;
    let depth = tr.depth();
    let start = Instant::now();
    tr.enter("machine");
    let mut out = MachineRun::default();
    let body = panic::catch_unwind(AssertUnwindSafe(|| {
        let r = dispatch(cfg, profile, tr, &mut out);
        out.digest = Some(Digest::of(&r));
        if profile {
            out.layers = Some(Layers::of(&r, spec.cfg.cores));
        }
        if oracle {
            tr.enter("verify_result");
            let t = Instant::now();
            out.problems = sb_check::verify_result(&r);
            out.oracle_s = t.elapsed().as_secs_f64();
            tr.exit();
            if profile {
                tr.enter("verify_observability");
                let t = Instant::now();
                out.problems.extend(sb_sim::verify_observability(&r));
                out.verify_obs_s = t.elapsed().as_secs_f64();
                tr.exit();
            }
        }
        drop(r);
    }));
    if let Err(payload) = body {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic payload");
        out.digest = None;
        out.problems.push(format!("machine panicked: {msg}"));
    }
    tr.unwind_to(depth);
    out.total_s = start.elapsed().as_secs_f64();
    out
}

fn dispatch(cfg: SimConfig, profile: bool, tr: &mut Tracer, out: &mut MachineRun) -> RunResult {
    match cfg.protocol {
        ProtocolKind::ScalableBulk => {
            new_and_run(cfg, |c| ScalableBulk::new(c.sb, c.cores), profile, tr, out)
        }
        ProtocolKind::Tcc => new_and_run(cfg, |c| Tcc::new(c.tcc, c.cores), profile, tr, out),
        ProtocolKind::Seq => new_and_run(cfg, |c| Seq::new(c.cores), profile, tr, out),
        ProtocolKind::SeqTs => new_and_run(cfg, |c| SeqTs::new(c.cores), profile, tr, out),
        ProtocolKind::BulkSc => new_and_run(
            cfg,
            |c| BulkSc::new(c.bulksc, c.cores, c.cores),
            profile,
            tr,
            out,
        ),
    }
}

fn new_and_run<P: CommitProtocol>(
    cfg: SimConfig,
    make: impl FnOnce(&SimConfig) -> P,
    profile: bool,
    tr: &mut Tracer,
    out: &mut MachineRun,
) -> RunResult {
    tr.enter("Machine::new");
    let t = Instant::now();
    let proto = make(&cfg);
    let m = Machine::new(cfg, proto);
    out.setup_s = t.elapsed().as_secs_f64();
    tr.exit();
    if profile {
        out.after_new = Mem::now();
    }
    tr.enter("Machine::run");
    let t = Instant::now();
    let r = m.run();
    out.run_s = t.elapsed().as_secs_f64();
    tr.exit();
    if profile {
        out.after_run = Mem::now();
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, FUZZ_SEED};

    #[test]
    fn profiling_and_spans_leave_the_digest_unchanged() {
        let spec = &Workload::FuzzOracle.machines(FUZZ_SEED)[1];
        let plain = run_machine(spec, true, false, &mut Tracer::new(false));
        let mut tr = Tracer::new(true);
        let traced = run_machine(spec, true, true, &mut tr);
        assert!(plain.problems.is_empty(), "{:?}", plain.problems);
        assert_eq!(plain.digest, traced.digest);
        assert!(plain.digest.unwrap().fingerprint.is_some());
        let l = traced.layers.expect("profiled");
        assert!(l.superphases > 0 && l.events > 0 && l.commits > 0);
        assert_eq!(l.unit_visits, l.superphases * u64::from(spec.cfg.cores));
        let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "machine",
                "Machine::new",
                "Machine::run",
                "verify_result",
                "verify_observability"
            ]
        );
        assert_eq!(tr.depth(), 0);
    }
}
