//! Process memory read from `/proc/self/status`.

/// Resident set now and its high-water mark, in KiB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mem {
    /// `VmRSS`.
    pub rss_kib: u64,
    /// `VmHWM` (peak resident set since the process started).
    pub hwm_kib: u64,
}

impl Mem {
    /// Reads the current process's figures; zeros where unavailable.
    pub fn now() -> Mem {
        std::fs::read_to_string("/proc/self/status")
            .map(|s| Mem::parse(&s))
            .unwrap_or_default()
    }

    /// Parses the `VmRSS:` and `VmHWM:` lines of a status file.
    pub fn parse(status: &str) -> Mem {
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
                .unwrap_or(0)
        };
        Mem {
            rss_kib: field("VmRSS:"),
            hwm_kib: field("VmHWM:"),
        }
    }
}

/// KiB to MiB.
pub fn mib(kib: u64) -> f64 {
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_lines() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(
            Mem::parse(s),
            Mem {
                rss_kib: 1024,
                hwm_kib: 2048
            }
        );
        assert_eq!(mib(2048), 2.0);
        assert_eq!(Mem::parse(""), Mem::default());
    }
}
