//! One benchmark run: repeated passes over a workload, the correctness
//! checks, and the metrics they yield.

use std::time::{Duration, Instant};

use sb_sim::ObsConfig;

use crate::digest::{self, Digest, Pinned, Verdict};
use crate::machine::{run_machine, Layers, MachineRun};
use crate::probes;
use crate::rss::{mib, Mem};
use crate::spans::{self_time_by_name, Tracer};
use crate::stats::{median, percentile};
use crate::workload::{MachineSpec, Workload};

/// Instructions per thread of the oracle probe that `paper-64` and
/// `wide-1024` (whose own machines run with the trace off) use to time
/// the oracle, export and obs layers.
pub const ORACLE_PROBE_INSNS: u64 = 200;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Machine runs made.
    pub attempted: u64,
    /// Machine runs that panicked, mismatched a digest or broke the oracle.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// The traced run's spans as JSON (traced runs only).
    pub spans_json: Option<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counts machine runs and judges each one: a panic, an oracle
/// violation, a digest that differs from the pinned table, or one that
/// differs from the same machine's earlier run in this process fails it.
struct Checker {
    workload: Workload,
    seed: u64,
    pinned: Pinned,
    reference: Vec<Option<Digest>>,
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
}

impl Checker {
    fn new(workload: Workload, seed: u64, machines: usize) -> Checker {
        let pinned = Pinned::checked_in();
        let mut lines = Vec::new();
        if !pinned.has(workload.name(), seed) {
            lines.push(format!(
                "seed {seed:#x} is not pinned for {}: digests printed below",
                workload.name()
            ));
        }
        Checker {
            workload,
            seed,
            pinned,
            reference: vec![None; machines],
            attempted: 0,
            failed: 0,
            lines,
        }
    }

    /// Judges machine `i`'s run. With `no_trace` the run had the chunk
    /// trace off, so only the untraced fields must match.
    fn record(&mut self, i: usize, spec: &MachineSpec, m: &MachineRun, no_trace: bool) {
        let mut bad = m.problems.clone();
        if let Some(got) = m.digest {
            let reference = self.reference[i];
            if no_trace {
                if let Some(r) = reference.filter(|r| r.untraced() != got) {
                    bad.push(format!("trace-off digest {got} differs from {r}"));
                }
            } else {
                let name = self.workload.name();
                match self.pinned.check(name, self.seed, i, &got) {
                    Verdict::Mismatch(want) => bad.push(format!("digest {got}, pinned {want}")),
                    Verdict::Unpinned if reference.is_none() => self.lines.push(format!(
                        "digest {}",
                        digest::line(name, self.seed, i, &spec.label, &got)
                    )),
                    _ => {}
                }
                match reference {
                    None => self.reference[i] = Some(got),
                    Some(r) if r != got => bad.push(format!("digest {got} differs from {r}")),
                    Some(_) => {}
                }
            }
        }
        self.judge(&format!("machine {i} ({})", spec.label), bad);
    }

    /// Counts one run, failed when `bad` lists any problem.
    fn judge(&mut self, what: &str, bad: Vec<String>) {
        self.attempted += 1;
        if !bad.is_empty() {
            self.failed += 1;
            for b in bad {
                self.lines.push(format!("FAILED {what}: {b}"));
            }
        }
    }
}

/// Aggregates of one pass over the workload's machines.
#[derive(Clone, Debug, Default)]
struct Pass {
    wall_s: f64,
    setup_s: f64,
    run_s: f64,
    oracle_s: f64,
    verify_obs_s: f64,
    events: u64,
    machine_ms: Vec<f64>,
    layers: Layers,
    setup_rss_mib: f64,
    run_growth_mib: f64,
}

impl Pass {
    fn events_per_s(&self) -> f64 {
        self.events as f64 / self.run_s
    }
}

fn run_pass(
    specs: &[MachineSpec],
    oracle: bool,
    profile: bool,
    no_trace: bool,
    chk: &mut Checker,
    tr: &mut Tracer,
) -> Pass {
    let mut p = Pass::default();
    tr.enter("workload");
    let start = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        let m = run_machine(spec, oracle, profile, tr);
        chk.record(i, spec, &m, no_trace);
        p.setup_s += m.setup_s;
        p.run_s += m.run_s;
        p.oracle_s += m.oracle_s;
        p.verify_obs_s += m.verify_obs_s;
        p.events += m.digest.map_or(0, |d| d.events);
        p.machine_ms.push(m.total_s * 1e3);
        if let Some(l) = &m.layers {
            p.layers.add(l);
        }
        if profile {
            // A machine that runs below an earlier machine's high-water
            // mark shows no growth; the first (fresh-process) one is exact.
            let (new, run) = (m.after_new, m.after_run);
            p.setup_rss_mib = p.setup_rss_mib.max(mib(new.rss_kib));
            p.run_growth_mib = p
                .run_growth_mib
                .max(mib(run.hwm_kib.saturating_sub(new.rss_kib)));
        }
    }
    p.wall_s = start.elapsed().as_secs_f64();
    tr.exit();
    p
}

/// Runs untraced passes until `budget` would be exceeded by another
/// (at least one pass).
fn untraced_passes(
    specs: &[MachineSpec],
    w: Workload,
    chk: &mut Checker,
    start: Instant,
    budget: Duration,
) -> Vec<Pass> {
    let mut off = Tracer::new(false);
    let mut passes = Vec::new();
    loop {
        passes.push(run_pass(
            specs,
            w.checks_oracle(),
            false,
            false,
            chk,
            &mut off,
        ));
        let per = Duration::from_secs_f64(med(&passes, |p| p.wall_s));
        if start.elapsed() + per > budget {
            return passes;
        }
    }
}

fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end run: untraced passes for `seconds`, medians reported.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Report {
    let start = Instant::now();
    let specs = w.machines(seed);
    let mut chk = Checker::new(w, seed, specs.len());
    let passes = untraced_passes(&specs, w, &mut chk, start, Duration::from_secs_f64(seconds));
    let peak = Mem::now().hwm_kib;

    let mut rep = Report::default();
    let n = passes.len();
    rep.metric("setup_s", med(&passes, |p| p.setup_s), "s");
    rep.metric("run_s", med(&passes, |p| p.run_s), "s");
    rep.metric("wall_s", med(&passes, |p| p.wall_s), "s");
    rep.metric("sim_events_per_s", med(&passes, Pass::events_per_s), "1/s");
    rep.metric("peak_rss_mb", mib(peak), "MiB");
    let ms: Vec<f64> = passes.iter().flat_map(|p| p.machine_ms.clone()).collect();

    rep.lines.push(format!(
        "{} seed {seed:#x}: {n} pass(es) of {} machine(s); pass metrics are medians over the {n} passes",
        w.name(),
        specs.len()
    ));
    rep.lines.extend(percentile_lines(&ms));
    finish(rep, chk)
}

/// The per-machine percentile lines: each states its sample count, and
/// a percentile with fewer than ten samples beyond it is not reported.
pub fn percentile_lines(machine_ms: &[f64]) -> Vec<String> {
    [("p50", 0.5), ("p90", 0.9)]
        .into_iter()
        .map(|(name, q)| match percentile(machine_ms, q) {
            Some(p) => format!(
                "machine_ms_{name} = {} ms over n={} machine runs ({} beyond it)",
                p.value, p.samples, p.beyond
            ),
            None => format!(
                "machine_ms_{name} not reported: n={} machine runs leave fewer than 10 beyond it",
                machine_ms.len()
            ),
        })
        .collect()
}

fn finish(mut rep: Report, chk: Checker) -> Report {
    rep.attempted = chk.attempted;
    rep.failed = chk.failed;
    let mut lines = chk.lines;
    lines.append(&mut rep.lines);
    lines.extend(
        rep.metrics
            .iter()
            .map(|m| format!("  {} = {} {}", m.name, m.value, m.unit)),
    );
    rep.lines = lines;
    rep
}

/// The traced run: one profiled, span-recorded pass (first, in the fresh
/// process, so its memory split is exact), untraced passes for the rest
/// of `seconds` as the overhead baseline, then the layer probes and the
/// oracle/obs measurements.
pub fn traced(w: Workload, seed: u64, seconds: f64) -> Report {
    let start = Instant::now();
    let specs = w.machines(seed);
    let mut chk = Checker::new(w, seed, specs.len());
    let mut tr = Tracer::new(true);
    let t = run_pass(&specs, w.checks_oracle(), true, false, &mut chk, &mut tr);
    let plain = untraced_passes(&specs, w, &mut chk, start, Duration::from_secs_f64(seconds));

    // Oracle, export and obs-recording layers.
    let (oracle_s, verify_obs_s, obs_record_s) = if w.checks_oracle() {
        // Same configs with chunk trace and obs log both off.
        let bare: Vec<MachineSpec> = specs.iter().map(without_obs).collect();
        let off = run_pass(&bare, false, false, true, &mut chk, &mut Tracer::new(false));
        (
            t.oracle_s,
            t.verify_obs_s,
            med(&plain, |p| p.run_s) - off.run_s,
        )
    } else {
        oracle_probe(&specs[0], &mut chk, &mut tr)
    };

    tr.enter("probes");
    let probe_ns = probes::run(&specs);
    tr.exit();

    let l = &t.layers;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let mut rep = Report::default();
    rep.metric("machine.superphases", l.superphases as f64, "count");
    rep.metric("machine.unit_visits", l.unit_visits as f64, "count");
    rep.metric(
        "machine.visit_yield",
        ratio(l.events as f64, l.unit_visits as f64),
        "ratio",
    );
    rep.metric("machine.plane_a_busy_s", l.plane_a_s, "s");
    rep.metric("machine.setup_rss_mb", t.setup_rss_mib, "MiB");
    rep.metric("machine.run_rss_growth_mb", t.run_growth_mib, "MiB");
    rep.metric("machine.hub_busy_s", l.hub_busy_s, "s");
    rep.metric(
        "machine.hub_utilization",
        ratio(l.hub_busy_phases as f64, l.hub_phases as f64),
        "ratio",
    );
    rep.metric(
        "machine.planes_share_of_run",
        ratio(l.plane_a_s + l.hub_busy_s, t.run_s),
        "ratio",
    );
    rep.metric("proto.steps", l.steps as f64, "count");
    rep.metric(
        "proto.steps_per_commit",
        ratio(l.steps as f64, l.commits as f64),
        "ratio",
    );
    rep.metric(
        "proto.hub_ns_per_step",
        ratio(l.hub_busy_s * 1e9, l.steps as f64),
        "ns",
    );
    rep.metric("proto.commit_retries", l.commit_retries as f64, "count");
    rep.metric("proto.read_nacks", l.read_nacks as f64, "count");
    rep.metric("engine.ring_pushes", l.ring_pushes as f64, "count");
    rep.metric("engine.far_pushes", l.far_pushes as f64, "count");
    rep.metric("engine.ring_hwm", l.ring_hwm as f64, "count");
    rep.metric("engine.far_hwm", l.far_hwm as f64, "count");
    rep.metric("chunks.commits", l.commits as f64, "count");
    rep.metric(
        "chunks.commit_yield",
        ratio(l.commits as f64, (l.commits + l.squashes) as f64),
        "ratio",
    );
    rep.metric("sigs.alias_squashes", l.alias_squashes as f64, "count");
    rep.metric("mem.remote_reads", l.remote_reads as f64, "count");
    rep.metric("net.msgs", l.msgs as f64, "count");
    rep.metric("net.bytes", l.bytes as f64, "bytes");
    for (name, ns) in probe_ns {
        rep.metric(name, ns, "ns");
    }
    rep.metric("check.oracle_s", oracle_s, "s");
    rep.metric("export.verify_obs_s", verify_obs_s, "s");
    rep.metric("obs.record_s", obs_record_s, "s");

    // Self time per span layer over the whole traced run.
    let by = self_time_by_name(tr.spans());
    let s = |names: &[&str]| names.iter().filter_map(|n| by.get(n)).sum::<u64>() as f64 * 1e-9;
    rep.metric("self.bench_s", s(&["workload", "oracle-probe"]), "s");
    rep.metric("self.machine_glue_s", s(&["machine"]), "s");
    rep.metric("self.setup_s", s(&["Machine::new"]), "s");
    rep.metric("self.run_s", s(&["Machine::run"]), "s");
    rep.metric("self.check_s", s(&["verify_result"]), "s");
    rep.metric("self.export_s", s(&["verify_observability"]), "s");
    rep.metric("self.probes_s", s(&["probes"]), "s");

    // Tracing overhead: the traced pass against the untraced ones, less
    // the separate verify_observability call only the traced pass makes.
    let base = med(&plain, |p| p.wall_s);
    rep.metric("trace.wall_s", t.wall_s, "s");
    rep.metric("trace.run_s", t.run_s, "s");
    rep.metric("trace.overhead_s", t.wall_s - t.verify_obs_s - base, "s");

    rep.lines.push(format!(
        "{} seed {seed:#x}: 1 traced pass + {} untraced pass(es) of {} machine(s), {} spans",
        w.name(),
        plain.len(),
        specs.len(),
        tr.spans().len()
    ));
    rep.lines.push(format!(
        "plane A + hub busy = {:.3} s + {:.3} s = {:.1}% of the traced run_s base of {:.3} s",
        l.plane_a_s,
        l.hub_busy_s,
        100.0 * ratio(l.plane_a_s + l.hub_busy_s, t.run_s),
        t.run_s
    ));
    rep.spans_json = Some(tr.to_json());
    finish(rep, chk)
}

fn without_obs(spec: &MachineSpec) -> MachineSpec {
    let mut s = spec.clone();
    s.cfg.trace = false;
    s.cfg.obs = ObsConfig::default();
    s
}

/// Times the oracle, export and obs layers on a workload whose own
/// machines run untraced: its first machine at [`ORACLE_PROBE_INSNS`]
/// instructions per thread, once with the chunk trace and obs log on
/// (then through `verify_result` and `verify_observability`) and once
/// with both off. Returns `(oracle_s, verify_obs_s, obs_record_s)`.
fn oracle_probe(first: &MachineSpec, chk: &mut Checker, tr: &mut Tracer) -> (f64, f64, f64) {
    let mut on = first.clone();
    on.label = format!("{} (oracle probe)", first.label);
    on.cfg.insns_per_thread = ORACLE_PROBE_INSNS;
    on.cfg.trace = true;
    on.cfg.obs = ObsConfig::on();
    let off = without_obs(&on);
    tr.enter("oracle-probe");
    let m_on = run_machine(&on, true, true, tr);
    let m_off = run_machine(&off, false, false, tr);
    tr.exit();
    chk.judge(&on.label, m_on.problems.clone());
    let mut bad = m_off.problems.clone();
    if m_on.digest.map(Digest::untraced) != m_off.digest {
        bad.push(format!(
            "trace and obs changed the digest: {:?} vs {:?}",
            m_on.digest, m_off.digest
        ));
    }
    chk.judge(&format!("{} with trace and obs off", first.label), bad);
    (m_on.oracle_s, m_on.verify_obs_s, m_on.run_s - m_off.run_s)
}

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans_out: Option<String>,
}

/// Usage text.
pub const USAGE: &str = "usage: perfbench --workload <paper-64|wide-1024|fuzz-oracle|all> \
[--seed <n|0xhex>] [--seconds <s>] [--trace <0|1>] [--spans-out <file>]";

/// Parses `argv` (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(h) => u64::from_str_radix(h, 16),
                    None => v.parse(),
                };
                seed = Some(parsed.map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}")),
                }
            }
            "--spans-out" => spans_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
        spans_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_with_defaults_and_reject_garbage() {
        let a = parse_args(&argv("--workload fuzz-oracle")).unwrap();
        assert_eq!(a.seed, 0xf0f0_2026);
        assert!(!a.trace);
        let a = parse_args(&argv(
            "--workload paper-64 --seed 0x10 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (16, 3.0, true));
        for bad in [
            "",
            "--workload x",
            "--workload paper-64 --trace 2",
            "--seed 1",
            "--bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn percentiles_are_reported_only_with_ten_samples_beyond() {
        // paper-64: 12 machines a pass, five passes.
        let paper = percentile_lines(&[400.0; 60]);
        assert!(paper[0].starts_with("machine_ms_p50 = 400 ms over n=60"));
        assert!(
            paper[1].starts_with("machine_ms_p90 not reported: n=60"),
            "{}",
            paper[1]
        );
        // wide-1024: one machine a pass.
        let wide = percentile_lines(&[13_000.0; 2]);
        assert!(wide.iter().all(|l| l.contains("not reported")), "{wide:?}");
        // fuzz-oracle: 450 cases, 45 beyond p90.
        let ms: Vec<f64> = (1..=450).map(f64::from).collect();
        let fuzz = percentile_lines(&ms);
        assert_eq!(
            fuzz[1],
            "machine_ms_p90 = 405 ms over n=450 machine runs (45 beyond it)"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.5, "s");
        r.metric("bad", f64::NAN, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"bad\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
