//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <paper-64|wide-1024|fuzz-oracle|all> [--seed <n>]
//!           [--seconds <s>] [--trace <0|1>] [--spans-out <file>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`. `--workload all`
//! runs each workload in a fresh child process, one after another, and
//! prints each one's output.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use sb_perfbench::bench::{end_to_end, parse_args, traced, USAGE};
use sb_perfbench::workload::Workload;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = argv.windows(2).position(|a| a == ["--workload", "all"]) {
        return run_all(argv, i + 1);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    if let Some(spans) = &report.spans_json {
        let path = args.spans_out.map(PathBuf::from).unwrap_or_else(|| {
            let dir = std::env::var_os("CARGO_TARGET_DIR")
                .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
            dir.join(format!("perfbench-spans-{}.json", args.workload.name()))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    for l in &report.lines {
        println!("{l}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// Runs every workload in its own child process (so each one's peak RSS
/// is its own), with `argv[at]` replaced by the workload's name. Fails if
/// a child fails or reports an incorrect run.
fn run_all(mut argv: Vec<String>, at: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        argv[at] = w.name().to_string();
        println!("== {}", w.name());
        match Command::new(&exe).args(&argv).output() {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                let correct = stdout
                    .lines()
                    .last()
                    .is_some_and(|l| l.starts_with("{\"correct\": true"));
                ok &= out.status.success() && correct;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
