//! The benchmark's workloads: which machines one pass builds and runs.

use sb_check::FuzzCase;
use sb_proto::ProtocolKind;
use sb_sim::SimConfig;
use sb_workloads::AppProfile;

/// Default seed of `paper-64` and `wide-1024`: the paper configuration's
/// own seed (`SimConfig::paper_default`).
pub const PAPER_SEED: u64 = 0x5ca1_ab1e;
/// Default seed of `fuzz-oracle`: the `check` binary's default schedule.
pub const FUZZ_SEED: u64 = 0xf0f0_2026;
/// Committed instructions per thread on `paper-64`'s machines.
pub const PAPER_INSNS: u64 = 4_000;
/// Committed instructions per thread on `wide-1024` (the 1024-core
/// baseline row of the roadmap).
pub const WIDE_INSNS: u64 = 2_000;
/// Fuzz cases per `fuzz-oracle` pass.
pub const FUZZ_CASES: u64 = 450;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Radix, Canneal and FFT under Table 3's four protocols, 64 cores.
    Paper64,
    /// ScalableBulk FFT on the 32×32 torus.
    Wide1024,
    /// The `sb-check` fuzz schedule, every case through the oracle.
    FuzzOracle,
}

/// One machine of a workload pass.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Stable label (`app/protocol` or the fuzz replay triple).
    pub label: String,
    /// The configuration handed to `Machine::new`.
    pub cfg: SimConfig,
}

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 3] = [Workload::Paper64, Workload::Wide1024, Workload::FuzzOracle];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper64 => "paper-64",
            Workload::Wide1024 => "wide-1024",
            Workload::FuzzOracle => "fuzz-oracle",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The seed whose digests are pinned.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::FuzzOracle => FUZZ_SEED,
            _ => PAPER_SEED,
        }
    }

    /// Whether every machine's result goes through `verify_result`.
    pub fn checks_oracle(self) -> bool {
        self == Workload::FuzzOracle
    }

    /// The machines one pass runs, in order, for workload seed `seed`.
    pub fn machines(self, seed: u64) -> Vec<MachineSpec> {
        let mut specs = match self {
            Workload::Paper64 => sb_bench::bench_apps()
                .into_iter()
                .flat_map(|app| {
                    ProtocolKind::ALL
                        .into_iter()
                        .map(move |p| paper(app, 64, p, PAPER_INSNS, seed))
                })
                .collect(),
            Workload::Wide1024 => vec![paper(
                AppProfile::fft(),
                1024,
                ProtocolKind::ScalableBulk,
                WIDE_INSNS,
                seed,
            )],
            Workload::FuzzOracle => (0..FUZZ_CASES)
                .map(|i| {
                    let case = FuzzCase::nth(seed, i);
                    MachineSpec {
                        label: case.to_string(),
                        cfg: case.config(),
                    }
                })
                .collect::<Vec<_>>(),
        };
        for s in &mut specs {
            s.cfg.domains = 1;
        }
        specs
    }
}

fn paper(app: AppProfile, cores: u16, p: ProtocolKind, insns: u64, seed: u64) -> MachineSpec {
    let mut cfg = SimConfig::paper_default(cores, app, p);
    cfg.insns_per_thread = insns;
    cfg.seed = seed;
    MachineSpec {
        label: format!("{}/{}", cfg.app.name, sb_check::protocol_name(p)),
        cfg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_shapes_match_the_notes() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        let p = Workload::Paper64.machines(PAPER_SEED);
        assert_eq!(p.len(), 12);
        assert!(p
            .iter()
            .all(|s| s.cfg.cores == 64 && !s.cfg.trace && !s.cfg.obs.enabled));
        let w = Workload::Wide1024.machines(PAPER_SEED);
        assert_eq!(w[0].cfg.net.topology.describe(), "2D torus 32x32");
        let f = Workload::FuzzOracle.machines(FUZZ_SEED);
        assert_eq!(f.len() as u64, FUZZ_CASES);
        assert!(f
            .iter()
            .all(|s| s.cfg.trace && s.cfg.obs.enabled && s.cfg.cores <= 8));
        assert!(f.iter().chain(&p).all(|s| s.cfg.domains == 1));
    }
}
