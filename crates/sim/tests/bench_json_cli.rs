//! `bench_json` rejects bad flags with its usage and exit code 2, never
//! with a panic.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_json"))
        .args(args)
        .output()
        .expect("bench_json runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn malformed_flags_print_usage_and_exit_2() {
    for args in [
        &["--insns", "x"][..],
        &["--fabrics", "bogus"],
        &["--insns"],
        &["--cores", "0"],
        &["--protocols", "nope"],
        &["--no-such-flag"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: bench_json"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
