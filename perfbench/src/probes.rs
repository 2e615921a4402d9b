//! Layer probes: time one substrate function at a time, fed with inputs
//! generated from the workload's own configurations (application
//! profile, seed, core count, signature geometry and topology).
//!
//! Each probe reports the median, over [`REPS`] batches, of nanoseconds
//! per call. Probes reuse only the substrates' public functions.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use sb_chunks::MemAccess;
use sb_engine::{Cycle, EventQueue};
use sb_mem::{CacheHierarchy, CoreId, CoreSet, DirectoryState, HitLevel, LineAddr};
use sb_net::{MsgSize, Network, NodeId, TrafficClass};
use sb_sigs::Signature;
use sb_sim::SimConfig;
use sb_workloads::WorkloadGen;

use crate::stats::median;
use crate::workload::MachineSpec;

/// Timed batches per probe.
pub const REPS: usize = 9;
/// Chunks generated per configuration, spread evenly over its threads.
const CHUNKS: usize = 256;
/// Distinct configurations a probe draws inputs from.
const MAX_CONFIGS: usize = 3;

/// Inputs derived from one machine configuration.
struct Input {
    cfg: SimConfig,
    /// `(core, accesses)` of each generated chunk.
    chunks: Vec<(u16, Vec<MemAccess>)>,
    /// Core 0's own chunk stream (the lines one private hierarchy sees).
    core0: Vec<LineAddr>,
}

impl Input {
    fn new(cfg: &SimConfig) -> Input {
        let threads = cfg.threads.max(1);
        let mut g = WorkloadGen::new(cfg.app, threads, cfg.seed);
        let chunks = (0..CHUNKS)
            .map(|i| {
                let t = i * threads / CHUNKS;
                let core = (t % usize::from(cfg.cores)) as u16;
                (core, g.next_chunk(t).accesses().to_vec())
            })
            .collect();
        let core0 = (0..CHUNKS / 4)
            .flat_map(|_| g.next_chunk(0).accesses().to_vec())
            .map(|a| a.line)
            .collect();
        Input {
            cfg: cfg.clone(),
            chunks,
            core0,
        }
    }

    fn accesses(&self) -> impl Iterator<Item = (u16, MemAccess)> + '_ {
        self.chunks
            .iter()
            .flat_map(|(c, acc)| acc.iter().map(move |a| (*c, *a)))
    }

    /// Home tile of a line: pages hashed across the tiles, as the
    /// machine places its shared pool.
    fn home(&self, line: LineAddr) -> u16 {
        let h = line.page().as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h % u64::from(self.cfg.cores)) as u16
    }

    fn network(&self) -> Network {
        match self.cfg.perturb {
            None => Network::new(self.cfg.net),
            Some(p) => Network::with_perturbation(self.cfg.net, p),
        }
    }
}

/// Median ns per call over [`REPS`] batches; each batch call returns its
/// own elapsed time and call count.
fn ns_per_call(inputs: &[Input], mut batch: impl FnMut(&Input) -> (Duration, u64)) -> f64 {
    let per_rep: Vec<f64> = (0..REPS)
        .map(|_| {
            let (mut t, mut n) = (Duration::ZERO, 0u64);
            for input in inputs {
                let (dt, dn) = batch(input);
                t += dt;
                n += dn;
            }
            t.as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    median(&per_rep)
}

fn timed(f: impl FnOnce() -> u64) -> (Duration, u64) {
    let t = Instant::now();
    let n = f();
    (t.elapsed(), n)
}

/// Runs every probe over the workload's distinct configurations and
/// returns `(metric name, ns per call)` pairs.
pub fn run(specs: &[MachineSpec]) -> Vec<(&'static str, f64)> {
    let mut inputs: Vec<Input> = Vec::new();
    for s in specs {
        let seen = inputs
            .iter()
            .any(|i| i.cfg.app == s.cfg.app && i.cfg.cores == s.cfg.cores);
        if !seen && inputs.len() < MAX_CONFIGS {
            inputs.push(Input::new(&s.cfg));
        }
    }
    let mut gens: Vec<WorkloadGen> = inputs
        .iter()
        .map(|i| WorkloadGen::new(i.cfg.app, i.cfg.threads.max(1), i.cfg.seed ^ 1))
        .collect();
    let mut gen_at = 0;
    vec![
        ("engine.push_pop_ns", ns_per_call(&inputs, push_pop)),
        ("sigs.insert_ns", ns_per_call(&inputs, sig_insert)),
        ("sigs.intersect_ns", ns_per_call(&inputs, sig_intersect)),
        ("mem.cache_access_ns", ns_per_call(&inputs, cache_access)),
        ("mem.dir_record_ns", ns_per_call(&inputs, dir_record)),
        ("mem.coreset_clone_ns", ns_per_call(&inputs, coreset_clone)),
        ("net.send_ns", ns_per_call(&inputs, net_send)),
        (
            "workloads.next_chunk_ns",
            ns_per_call(&inputs, |input| {
                // `ns_per_call` visits the inputs in order, so this is
                // `input`'s own generator (a stream apart from its chunks).
                let at = gen_at % gens.len();
                let g = &mut gens[at];
                gen_at += 1;
                let threads = input.cfg.threads.max(1);
                timed(|| {
                    for t in 0..CHUNKS {
                        black_box(g.next_chunk(t * threads / CHUNKS));
                    }
                    CHUNKS as u64
                })
            }),
        ),
    ]
}

/// `EventQueue::push` + `drain_cycle` at the hub's queue size, delays
/// taken from the workload's core→home network latencies.
fn push_pop(input: &Input) -> (Duration, u64) {
    let net = input.network();
    let delays: Vec<u64> = input
        .accesses()
        .map(|(c, a)| {
            let size = if a.is_write {
                MsgSize::Small
            } else {
                MsgSize::Line
            };
            1 + 2 * net.pure_latency(NodeId(c), NodeId(input.home(a.line)), size)
        })
        .collect();
    if delays.is_empty() {
        return (Duration::ZERO, 0);
    }
    let cores = usize::from(input.cfg.cores);
    let mut q: EventQueue<u32> = EventQueue::with_capacity((cores * 64).max(4096));
    for (i, d) in delays.iter().take(cores.max(8)).enumerate() {
        q.push(Cycle(*d), i as u32);
    }
    let mut out = VecDeque::new();
    let target = 8 * delays.len() as u64;
    timed(|| {
        let mut pushes = 0u64;
        while pushes < target {
            q.drain_cycle(&mut out);
            for (c, e) in out.drain(..) {
                let d = delays[pushes as usize % delays.len()];
                q.push(Cycle(c.as_u64() + d), black_box(e));
                pushes += 1;
            }
        }
        pushes
    })
}

/// `Signature::insert` of every line of each chunk into a fresh
/// signature, as a core builds its R/W signatures.
fn sig_insert(input: &Input) -> (Duration, u64) {
    timed(|| {
        let mut n = 0u64;
        for (_, acc) in &input.chunks {
            let mut s = Signature::new(input.cfg.sig);
            for a in acc {
                s.insert(a.line.as_u64());
            }
            n += acc.len() as u64;
            black_box(&s);
        }
        n
    })
}

/// `Signature::intersects` of each chunk's W signature against the R∪W
/// signatures of the next eight chunks.
fn sig_intersect(input: &Input) -> (Duration, u64) {
    let sig = |writes_only: bool| -> Vec<Signature> {
        input
            .chunks
            .iter()
            .map(|(_, acc)| {
                let lines = acc.iter().filter(|a| a.is_write || !writes_only);
                Signature::from_lines(input.cfg.sig, lines.map(|a| a.line.as_u64()))
            })
            .collect()
    };
    let (w, rw) = (sig(true), sig(false));
    timed(|| {
        let mut n = 0u64;
        for (i, wi) in w.iter().enumerate() {
            for k in 1..=8 {
                black_box(wi.intersects(&rw[(i + k) % rw.len()]));
                n += 1;
            }
        }
        n
    })
}

/// `CacheHierarchy::access` over core 0's stream, filling on a miss.
fn cache_access(input: &Input) -> (Duration, u64) {
    let mut h = CacheHierarchy::with_signature_config(input.cfg.hier, input.cfg.sig);
    timed(|| {
        for &line in &input.core0 {
            if h.access(line) == HitLevel::Miss {
                h.fill(line);
            }
        }
        input.core0.len() as u64
    })
}

fn recorded_directory(input: &Input) -> (DirectoryState, u64) {
    let mut d = DirectoryState::with_signature_config(input.cfg.sig);
    let mut n = 0;
    for (c, a) in input.accesses() {
        d.record_read(a.line, CoreId(c));
        n += 1;
    }
    (d, n)
}

/// `DirectoryState::record_read` of every access by its chunk's core
/// into one directory (sharer sets spill past 64 cores).
fn dir_record(input: &Input) -> (Duration, u64) {
    let t = Instant::now();
    let (d, n) = recorded_directory(input);
    let dt = t.elapsed();
    drop(black_box(d));
    (dt, n)
}

/// `CoreSet` clone (and drop) of the sharer sets the directory probe
/// builds: the inline word at ≤64 cores, the spilled box above.
fn coreset_clone(input: &Input) -> (Duration, u64) {
    let (d, _) = recorded_directory(input);
    let sets: Vec<CoreSet> = d.tracked_lines().map(|l| d.sharers_of(l)).collect();
    timed(|| {
        for _ in 0..4 {
            for s in &sets {
                drop(black_box(s.clone()));
            }
        }
        4 * sets.len() as u64
    })
}

/// `Network::send` from each access's core to the line's home tile on
/// the workload's fabric (with its perturbation, if any).
fn net_send(input: &Input) -> (Duration, u64) {
    let mut net = input.network();
    timed(|| {
        let mut n = 0u64;
        for (c, a) in input.accesses() {
            let (size, class) = if a.is_write {
                (MsgSize::Small, TrafficClass::SmallCMessage)
            } else {
                (MsgSize::Line, TrafficClass::RemoteShRd)
            };
            black_box(net.send(
                Cycle(4 * n),
                NodeId(c),
                NodeId(input.home(a.line)),
                size,
                class,
            ));
            n += 1;
        }
        n
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, FUZZ_SEED};

    #[test]
    fn every_probe_reports_a_positive_time() {
        let specs = Workload::FuzzOracle.machines(FUZZ_SEED);
        let out = run(&specs[..2]);
        assert_eq!(out.len(), 8);
        for (name, ns) in out {
            assert!(ns > 0.0 && ns.is_finite(), "{name}: {ns}");
        }
    }
}
