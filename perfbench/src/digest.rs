//! Simulated-result digests and the pinned reference table.
//!
//! A digest is the part of a run that is a pure function of its
//! configuration: wall cycles, commits, events dispatched, protocol
//! steps and, when the chunk trace was on, the trace fingerprint. These
//! are correctness digests (the same code on the same inputs must give
//! the same numbers), not accuracy claims about the modelled hardware.
//!
//! `digests.txt` pins one line per machine for each workload's default
//! seed:
//!
//! ```text
//! <workload> <seed> <index> <label> wall=<n> commits=<n> events=<n> steps=<n> fp=<hex|->
//! ```

use std::fmt;

use sb_sim::RunResult;

/// Digest of one machine run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// `RunResult::wall_cycles`.
    pub wall_cycles: u64,
    /// `RunResult::commits`.
    pub commits: u64,
    /// The `events.dispatched` counter.
    pub events: u64,
    /// The `protocol.steps` counter.
    pub steps: u64,
    /// Chunk-trace fingerprint, when the run recorded the trace.
    pub fingerprint: Option<u64>,
}

impl Digest {
    /// The digest of a finished run.
    pub fn of(r: &RunResult) -> Digest {
        Digest {
            wall_cycles: r.wall_cycles,
            commits: r.commits,
            events: r.metrics.counter("events.dispatched").unwrap_or(0),
            steps: r.metrics.counter("protocol.steps").unwrap_or(0),
            fingerprint: r.trace.as_ref().map(|t| t.fingerprint()),
        }
    }

    /// The digest the same run gives with the chunk trace off.
    pub fn untraced(self) -> Digest {
        Digest {
            fingerprint: None,
            ..self
        }
    }

    /// Parses the `wall=… commits=… events=… steps=… fp=…` fields.
    pub fn parse(fields: &[&str]) -> Option<Digest> {
        let [wall, commits, events, steps, fp] = fields else {
            return None;
        };
        let num = |f: &str, key: &str| f.strip_prefix(key)?.parse().ok();
        Some(Digest {
            wall_cycles: num(wall, "wall=")?,
            commits: num(commits, "commits=")?,
            events: num(events, "events=")?,
            steps: num(steps, "steps=")?,
            fingerprint: match fp.strip_prefix("fp=")? {
                "-" => None,
                hex => Some(u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok()?),
            },
        })
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wall={} commits={} events={} steps={} fp=",
            self.wall_cycles, self.commits, self.events, self.steps
        )?;
        match self.fingerprint {
            Some(fp) => write!(f, "{fp:#018x}"),
            None => f.write_str("-"),
        }
    }
}

/// One line of the pinned table (and of the digests printed for an
/// unpinned seed).
pub fn line(workload: &str, seed: u64, index: usize, label: &str, d: &Digest) -> String {
    format!("{workload} {seed:#x} {index} {label} {d}")
}

/// The outcome of comparing a run's digest with the pinned table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Equal to the pinned digest.
    Match,
    /// Differs from the pinned digest.
    Mismatch(Digest),
    /// No digest is pinned for this workload, seed and index.
    Unpinned,
}

/// The pinned digests, keyed by workload, seed and machine index.
#[derive(Clone, Debug, Default)]
pub struct Pinned {
    rows: Vec<(String, u64, usize, Digest)>,
}

/// The table checked into the benchmark's directory.
const PINNED: &str = include_str!("../digests.txt");

impl Pinned {
    /// The checked-in table.
    pub fn checked_in() -> Pinned {
        Pinned::parse(PINNED).expect("digests.txt is well formed")
    }

    /// Parses table text; `#` lines and blank lines are skipped.
    pub fn parse(text: &str) -> Result<Pinned, String> {
        let mut rows = Vec::new();
        for (n, l) in text.lines().enumerate() {
            let l = l.trim();
            if l.is_empty() || l.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = l.split_whitespace().collect();
            let bad = || format!("digests line {}: {l:?}", n + 1);
            if f.len() != 9 {
                return Err(bad());
            }
            let seed = f[1]
                .strip_prefix("0x")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(bad)?;
            let index = f[2].parse().map_err(|_| bad())?;
            let d = Digest::parse(&f[4..]).ok_or_else(bad)?;
            rows.push((f[0].to_string(), seed, index, d));
        }
        Ok(Pinned { rows })
    }

    /// Whether any digest is pinned for `workload` at `seed`.
    pub fn has(&self, workload: &str, seed: u64) -> bool {
        self.rows.iter().any(|r| r.0 == workload && r.1 == seed)
    }

    /// Checks machine `index`'s digest against the table.
    pub fn check(&self, workload: &str, seed: u64, index: usize, got: &Digest) -> Verdict {
        match self
            .rows
            .iter()
            .find(|r| r.0 == workload && r.1 == seed && r.2 == index)
        {
            None => Verdict::Unpinned,
            Some(r) if r.3 == *got => Verdict::Match,
            Some(r) => Verdict::Mismatch(r.3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_machine;
    use crate::spans::Tracer;
    use crate::workload::{Workload, FUZZ_SEED, PAPER_SEED};

    #[test]
    fn lines_round_trip_through_the_parser() {
        let d = Digest {
            wall_cycles: 1,
            commits: 2,
            events: 3,
            steps: 4,
            fingerprint: Some(0xabc),
        };
        let text = line("fuzz-oracle", FUZZ_SEED, 7, "1:0:sb", &d);
        let t = Pinned::parse(&text).unwrap();
        assert_eq!(t.check("fuzz-oracle", FUZZ_SEED, 7, &d), Verdict::Match);
        assert_eq!(t.check("fuzz-oracle", FUZZ_SEED, 8, &d), Verdict::Unpinned);
        let untraced = Digest {
            fingerprint: None,
            ..d
        };
        let t = Pinned::parse(&line("paper-64", PAPER_SEED, 0, "Radix/sb", &untraced)).unwrap();
        assert_eq!(
            t.check("paper-64", PAPER_SEED, 0, &d),
            Verdict::Mismatch(untraced)
        );
        assert!(Pinned::parse("paper-64 0x1 0 x wall=1").is_err());
    }

    #[test]
    fn every_workload_has_its_default_seed_pinned() {
        let t = Pinned::checked_in();
        for w in Workload::ALL {
            let n = w.machines(w.default_seed()).len();
            for i in 0..n {
                assert!(
                    t.rows
                        .iter()
                        .any(|r| r.0 == w.name() && r.1 == w.default_seed() && r.2 == i),
                    "{} machine {i} unpinned",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn the_digest_check_flags_a_config_whose_seed_was_altered() {
        let w = Workload::FuzzOracle;
        let pinned = Pinned::checked_in();
        let spec = &w.machines(FUZZ_SEED)[0];
        let mut tr = Tracer::new(false);
        let ok = run_machine(spec, false, false, &mut tr);
        let d = ok.digest.expect("case 0 runs");
        assert_eq!(pinned.check(w.name(), FUZZ_SEED, 0, &d), Verdict::Match);

        let mut altered = spec.clone();
        altered.cfg.seed ^= 1;
        let bad = run_machine(&altered, false, false, &mut tr);
        let d = bad.digest.expect("altered case still runs");
        assert!(matches!(
            pinned.check(w.name(), FUZZ_SEED, 0, &d),
            Verdict::Mismatch(_)
        ));
    }
}
