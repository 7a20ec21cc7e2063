//! `bench_engine` rejects a command line it does not understand before it
//! runs anything. Each case runs the binary from a fresh temporary
//! directory, so a binary that ignored the bad flag and ran a cell could
//! only write its report there, never into the source tree.

use std::process::Command;

/// Run `bench_engine` with `args` in an empty temporary directory; return
/// the exit status and standard error.
fn run(tag: &str, args: &[&str]) -> (std::process::ExitStatus, String) {
    let dir = std::env::temp_dir().join(format!("wlan_bench_flags_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_engine"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run bench_engine");
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn an_unknown_flag_is_an_error() {
    // A typo in CI's `--check` must fail loudly instead of skipping the gate.
    let (status, stderr) = run(
        "unknown",
        &[
            "--only",
            "Standard 802.11:fully_connected:5",
            "--chek",
            "BENCH_engine.json",
            "--bogus",
        ],
    );
    assert!(!status.success(), "exited {status}; stderr: {stderr}");
    assert!(stderr.contains("--chek"), "stderr names the flag: {stderr}");
}

#[test]
fn a_value_flag_without_its_value_is_an_error() {
    for flag in ["--out", "--history", "--check", "--only", "--profile-out"] {
        let (status, stderr) = run(
            "novalue",
            &["--only", "Standard 802.11:fully_connected:5", flag],
        );
        assert!(
            !status.success(),
            "{flag}: exited {status}; stderr: {stderr}"
        );
        assert!(stderr.contains(flag), "{flag}: stderr names it: {stderr}");
    }
}

#[test]
fn overhead_check_rejects_the_grid_flags_it_would_ignore() {
    // The gate runs no grid, so a flag that configures one would be
    // silently ignored; the gate must not start.
    let cases: [&[&str]; 9] = [
        &["--check", "BENCH_engine.json"],
        &["--out", "report.json"],
        &["--history", "history.jsonl"],
        &["--profile"],
        &["--profile-out", "profile.json"],
        &["--only", "Standard 802.11:fully_connected:5"],
        &["--quick"],
        &["--extended"],
        &["--full"],
    ];
    for (k, case) in cases.into_iter().enumerate() {
        let mut args = case.to_vec();
        // Either side of the gate flag.
        if k % 2 == 0 {
            args.insert(0, "--overhead-check");
        } else {
            args.push("--overhead-check");
        }
        let (status, stderr) = run("overhead", &args);
        assert_eq!(status.code(), Some(1), "{args:?}: stderr: {stderr}");
        assert!(
            stderr.contains(case[0]),
            "{args:?}: stderr names it: {stderr}"
        );
    }
}
