//! Every sb-sim binary rejects bad flags and values with its usage and
//! exit code 2, never with a panic.

use std::process::Command;

/// Per binary: its name, its path, and argument lists it must reject.
const CASES: &[(&str, &str, &[&[&str]])] = &[
    (
        "bench_json",
        env!("CARGO_BIN_EXE_bench_json"),
        &[
            &["--insns", "x"],
            &["--fabrics", "bogus"],
            &["--insns"],
            &["--cores", "0"],
            &["--protocols", "nope"],
            &["--no-such-flag"],
        ],
    ),
    (
        "figures",
        env!("CARGO_BIN_EXE_figures"),
        &[
            &[],
            &["no_such_figure"],
            &["scaling", "--fabrics", "nosuch"],
            &["scaling", "--cores", "0"],
            &["table1", "--insns", "x"],
        ],
    ),
    (
        "profile",
        env!("CARGO_BIN_EXE_profile"),
        &[
            &["--cores", "0"],
            &["--proto", "nope"],
            &["--app", "nope"],
            &["--insns"],
        ],
    ),
    (
        "trace",
        env!("CARGO_BIN_EXE_trace"),
        &[&["--cores", "0"], &["--proto", "nope"], &["--seed", "x"]],
    ),
    (
        "analyze",
        env!("CARGO_BIN_EXE_analyze"),
        &[&["--cores", "0"], &["--proto", "nope"], &["--top", "x"]],
    ),
];

#[test]
fn bad_flags_print_usage_and_exit_2() {
    for &(name, exe, bad) in CASES {
        for args in bad {
            let out = Command::new(exe).args(*args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let ctx = format!("{name} {args:?}: {stderr}");
            assert_eq!(out.status.code(), Some(2), "{ctx}");
            assert!(stderr.contains(&format!("usage: {name}")), "{ctx}");
            assert!(!stderr.contains("panicked"), "{ctx}");
        }
    }
}
