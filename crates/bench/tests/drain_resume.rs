//! End-to-end supervision tests of the `campaign_server` binary: graceful
//! SIGTERM drain → `--resume` completion with byte-identical results, a
//! corrupt snapshot discarded on resume, wall-clock timeout requeue, per-job
//! error lines for invalid specs, and compute-only degradation when the
//! cache directory is unusable.

use serde::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, Stdio};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// The server, with its results directory (metrics dump, default cache and
/// checkpoint directories) in this test process's temp dir, so a test run
/// never writes into the source tree.
fn server() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign_server"));
    let out = std::env::temp_dir().join(format!("wlan_drain_out_{}", std::process::id()));
    cmd.env("WLAN_REPRO_OUT", out);
    cmd
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wlan_drain_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three moderately long jobs, checkpointing every 0.2 sim-s so drains and
/// timeouts always have a recent snapshot to requeue from.
fn spec(cache_dir: &std::path::Path, ckpt_dir: &std::path::Path, extra: &str) -> String {
    format!(
        concat!(
            "{{\"threads\":1,\"checkpoint_sim_secs\":0.2,",
            "\"cache_dir\":{cache:?},\"checkpoint_dir\":{ckpt:?}{extra},\"jobs\":[",
            "{{\"protocol\":\"Standard80211\",\"topology\":\"FullyConnected\",\"n\":48,",
            "\"seed\":1,\"warmup\":100000000,\"measure\":2000000000}},",
            "{{\"protocol\":{{\"StaticPPersistent\":{{\"p\":0.03}}}},",
            "\"topology\":\"FullyConnected\",\"n\":32,",
            "\"seed\":2,\"warmup\":100000000,\"measure\":2000000000}},",
            "{{\"protocol\":\"Standard80211\",\"topology\":\"FullyConnected\",\"n\":24,",
            "\"seed\":3,\"warmup\":100000000,\"measure\":2000000000}}",
            "]}}"
        ),
        cache = cache_dir.display().to_string(),
        ckpt = ckpt_dir.display().to_string(),
        extra = extra,
    )
}

struct Run {
    lines: Vec<Value>,
    summary: Value,
    status: std::process::ExitStatus,
    stderr: String,
}

/// Spawn the server on `input`, optionally SIGTERM it after `term_after_ms`,
/// and parse every stdout line as JSON (last line = summary).
fn run_server(
    input: &str,
    args: &[&str],
    envs: &[(&str, &str)],
    term_after_ms: Option<u64>,
) -> Run {
    let mut cmd = server();
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn campaign_server");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write job spec");
    if let Some(ms) = term_after_ms {
        std::thread::sleep(std::time::Duration::from_millis(ms));
        let rc = unsafe { kill(child.id() as i32, SIGTERM) };
        assert_eq!(rc, 0, "SIGTERM delivery failed");
    }
    let output = child.wait_with_output().expect("collect server output");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let mut lines: Vec<Value> = stdout
        .lines()
        .map(|l| serde_json::from_str(l).expect("every stdout line is JSON"))
        .collect();
    let summary = lines.pop().expect("summary line present");
    Run {
        lines,
        summary,
        status: output.status,
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

fn get<'a>(value: &'a Value, key: &str) -> &'a Value {
    let Value::Map(entries) = value else {
        panic!("expected a JSON object")
    };
    serde::map_get(entries, key).unwrap_or_else(|_| panic!("missing key `{key}`"))
}

fn get_u64(value: &Value, key: &str) -> u64 {
    match get(value, key) {
        Value::U64(v) => *v,
        other => panic!("key `{key}` is not an integer: {other:?}"),
    }
}

/// Map of job index → serialised `result` payload (provenance flags like
/// `cached`/`resumed` excluded — the *bytes of the result* are the contract).
fn results_by_job(lines: &[Value]) -> BTreeMap<u64, String> {
    lines
        .iter()
        .filter(|l| matches!(l, Value::Map(m) if serde::map_get(m, "result").is_ok()))
        .map(|l| {
            let job = get_u64(l, "job");
            let result = serde_json::to_string(get(l, "result")).expect("serialise result");
            (job, result)
        })
        .collect()
}

/// SIGTERM mid-campaign: exit 0, a resumable summary, no corrupt output —
/// then `--resume` finishes the remaining jobs and the union of both passes
/// is byte-identical to an uninterrupted reference run.
#[test]
fn sigterm_drain_then_resume_is_byte_identical() {
    let cache = temp_dir("drain_cache");
    let ckpt = temp_dir("drain_ckpt");
    let input = spec(&cache, &ckpt, "");

    // An injected 400 ms stall before every claim guarantees the SIGTERM (at
    // 150 ms) lands while jobs are still pending, whatever the machine speed.
    let pass1 = run_server(
        &input,
        &[],
        &[("WLAN_FAULT_PLAN", "seed=1;worker_stall=1;stall_ms=400")],
        Some(150),
    );
    assert!(pass1.status.success(), "drain must exit 0");
    let drained = get_u64(&pass1.summary, "drained");
    assert!(
        drained >= 1,
        "the stalled pool cannot have finished everything"
    );
    assert_eq!(get_u64(&pass1.summary, "errors"), 0);
    assert_eq!(
        get_u64(&pass1.summary, "jobs"),
        get_u64(&pass1.summary, "completed") + drained
    );

    // Resume (fault-free): everything completes.
    let pass2 = run_server(&input, &["--resume"], &[], None);
    assert!(pass2.status.success());
    assert_eq!(get_u64(&pass2.summary, "completed"), 3);
    assert_eq!(get_u64(&pass2.summary, "drained"), 0);

    // Reference: one uninterrupted run with fresh directories.
    let ref_cache = temp_dir("drain_ref_cache");
    let ref_ckpt = temp_dir("drain_ref_ckpt");
    let reference = run_server(&spec(&ref_cache, &ref_ckpt, ""), &[], &[], None);
    assert!(reference.status.success());
    let want = results_by_job(&reference.lines);
    assert_eq!(want.len(), 3);

    // Union of pass 1 + pass 2 must agree with the reference byte for byte
    // (a job seen in both passes must also agree with itself).
    let mut got = results_by_job(&pass1.lines);
    for (job, result) in results_by_job(&pass2.lines) {
        if let Some(prev) = got.get(&job) {
            assert_eq!(prev, &result, "job {job} changed bytes across the resume");
        }
        got.insert(job, result);
    }
    assert_eq!(
        got, want,
        "drain + resume must be byte-identical to straight-through"
    );

    for d in [cache, ckpt, ref_cache, ref_ckpt] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// A snapshot corrupted between the interrupted run and `--resume` is
/// discarded, never resumed: the server says so, exits 0, and recomputes the
/// job byte-identically to a clean run.
#[test]
fn corrupt_snapshot_is_discarded_on_resume() {
    let cache = temp_dir("corrupt_cache");
    let ckpt = temp_dir("corrupt_ckpt");
    let input = spec(&cache, &ckpt, "");

    // The first claim stalls past the SIGTERM, then runs one slice and
    // snapshots it as the drain stops the job.
    let pass1 = run_server(
        &input,
        &[],
        &[("WLAN_FAULT_PLAN", "seed=1;worker_stall=1;stall_ms=1000")],
        Some(300),
    );
    assert!(pass1.status.success(), "drain must exit 0");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&ckpt).expect("checkpoint dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "ckpt") {
            let mut bytes = std::fs::read(&path).expect("read snapshot");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 1;
            std::fs::write(&path, bytes).expect("corrupt snapshot");
            corrupted += 1;
        }
    }
    assert!(corrupted >= 1, "the drained job left no snapshot");

    let pass2 = run_server(&input, &["--resume"], &[], None);
    assert!(
        pass2.status.success(),
        "a corrupt snapshot must not fail the run"
    );
    assert_eq!(
        pass2.stderr.matches("discarding unusable snapshot").count(),
        corrupted,
        "stderr: {}",
        pass2.stderr
    );
    assert_eq!(get_u64(&pass2.summary, "completed"), 3);

    let ref_cache = temp_dir("corrupt_ref_cache");
    let ref_ckpt = temp_dir("corrupt_ref_ckpt");
    let reference = run_server(&spec(&ref_cache, &ref_ckpt, ""), &[], &[], None);
    assert_eq!(
        results_by_job(&pass2.lines),
        results_by_job(&reference.lines),
        "a discarded snapshot must leave the result byte-identical"
    );
    for d in [cache, ckpt, ref_cache, ref_ckpt] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// A tiny wall-clock timeout forces snapshot-and-requeue cycles; the job
/// still terminates (every claim advances simulated time) and the result is
/// byte-identical to an untimed run.
#[test]
fn job_timeout_requeues_until_completion() {
    let cache = temp_dir("timeout_cache");
    let ckpt = temp_dir("timeout_ckpt");
    let timed = run_server(
        &spec(&cache, &ckpt, ",\"job_timeout_secs\":0.02"),
        &["--no-cache"],
        &[],
        None,
    );
    assert!(timed.status.success());
    assert_eq!(get_u64(&timed.summary, "completed"), 3);
    assert_eq!(get_u64(&timed.summary, "errors"), 0);

    let ref_cache = temp_dir("timeout_ref_cache");
    let ref_ckpt = temp_dir("timeout_ref_ckpt");
    let reference = run_server(&spec(&ref_cache, &ref_ckpt, ""), &["--no-cache"], &[], None);
    assert_eq!(
        results_by_job(&timed.lines),
        results_by_job(&reference.lines),
        "requeued jobs must produce identical bytes"
    );
    for d in [cache, ckpt, ref_cache, ref_ckpt] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Invalid jobs yield `{"job":i,"error":...}` lines in input order; healthy
/// jobs in the same spec run to completion.
#[test]
fn invalid_jobs_emit_error_lines_not_panics() {
    let cache = temp_dir("errors_cache");
    let ckpt = temp_dir("errors_ckpt");
    let input = format!(
        concat!(
            "{{\"cache_dir\":{cache:?},\"checkpoint_dir\":{ckpt:?},\"jobs\":[",
            "{{\"protocol\":\"Standard80211\",\"topology\":\"FullyConnected\",\"n\":0}},",
            "{{\"protocol\":\"Standard80211\",\"topology\":\"FullyConnected\",\"n\":4,",
            "\"warp_drive\":1}},",
            "{{\"protocol\":\"Standard80211\",\"topology\":\"FullyConnected\",\"n\":4,",
            "\"seed\":9,\"warmup\":50000000,\"measure\":100000000}}",
            "]}}"
        ),
        cache = cache.display().to_string(),
        ckpt = ckpt.display().to_string(),
    );
    let run = run_server(&input, &[], &[], None);
    assert!(run.status.success(), "job errors are lines, not a crash");
    assert_eq!(get_u64(&run.summary, "jobs"), 3);
    assert_eq!(get_u64(&run.summary, "errors"), 2);
    assert_eq!(get_u64(&run.summary, "completed"), 1);

    assert_eq!(get_u64(&run.lines[0], "job"), 0);
    let Value::Str(e0) = get(&run.lines[0], "error") else {
        panic!("job 0 must carry an error string")
    };
    assert!(e0.contains("zero stations"), "got: {e0}");
    let Value::Str(e1) = get(&run.lines[1], "error") else {
        panic!("job 1 must carry an error string")
    };
    assert!(e1.contains("warp_drive"), "got: {e1}");
    assert_eq!(get_u64(&run.lines[2], "job"), 2);
    assert!(matches!(get(&run.lines[2], "result"), Value::Map(_)));

    for d in [cache, ckpt] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// Out-of-range protocol, topology and PHY parameters are invalid job
/// lines, rejected before any worker starts (building them would panic on
/// every retry, or place stations silently at a negative radius).
#[test]
fn bad_protocol_topology_and_phy_parameters_are_invalid_jobs() {
    let cache = temp_dir("params_cache");
    let ckpt = temp_dir("params_ckpt");
    let jobs = [
        r#"{"protocol":{"StaticPPersistent":{"p":1.5}},"topology":"FullyConnected","n":4}"#,
        r#"{"protocol":{"StaticRandomReset":{"stage":9,"p0":2.0}},"topology":"FullyConnected","n":4}"#,
        r#"{"protocol":"Standard80211","topology":{"Clustered":{"clusters":0,"spread":10.0,"cluster_radius":2.0}},"n":4}"#,
        r#"{"protocol":"Standard80211","topology":{"Grid":{"side":-5.0}},"n":4}"#,
        r#"{"protocol":"Standard80211","topology":{"UniformDisc":{"radius":-20.0}},"n":4}"#,
        concat!(
            r#"{"protocol":"Standard80211","topology":"FullyConnected","n":4,"phy":{"slot":0,"#,
            r#""sifs":16000,"difs":34000,"bit_rate_bps":54000000,"ack_rate_bps":24000000,"#,
            r#""payload_bits":8000,"mac_header_bits":272,"ack_bits":112,"phy_preamble":20000,"#,
            r#""cw_min":8,"cw_max":1024}}"#
        ),
    ];
    let input = format!(
        "{{\"cache_dir\":{cache:?},\"checkpoint_dir\":{ckpt:?},\"jobs\":[{}]}}",
        jobs.join(","),
        cache = cache.display().to_string(),
        ckpt = ckpt.display().to_string(),
    );
    let run = run_server(&input, &[], &[], None);
    assert!(run.status.success(), "job errors are lines, not a crash");
    assert!(
        run.stderr.contains("6 jobs (6 invalid)"),
        "the jobs are invalid before any worker starts: {}",
        run.stderr
    );
    assert_eq!(get_u64(&run.summary, "errors"), 6);
    assert_eq!(get_u64(&run.summary, "completed"), 0);
    let expected = [
        "protocol", "protocol", "topology", "topology", "topology", "PHY",
    ];
    for (i, expected) in expected.iter().enumerate() {
        assert_eq!(get_u64(&run.lines[i], "job"), i as u64);
        let Value::Str(e) = get(&run.lines[i], "error") else {
            panic!("job {i} must carry an error string")
        };
        assert!(e.contains(&format!("invalid {expected}")), "job {i}: {e}");
    }
    for d in [cache, ckpt] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

/// An unusable cache directory (a regular file in its place) degrades the
/// server to compute-only — a warning, not an abort.
#[test]
fn unusable_cache_dir_degrades_to_compute_only() {
    let blocker = std::env::temp_dir().join(format!("wlan_drain_blocker_{}", std::process::id()));
    std::fs::write(&blocker, "not a directory").expect("create blocking file");
    let ckpt = temp_dir("degraded_ckpt");
    let input = format!(
        concat!(
            "{{\"cache_dir\":{cache:?},\"checkpoint_dir\":{ckpt:?},\"jobs\":[",
            "{{\"protocol\":\"Standard80211\",\"topology\":\"FullyConnected\",\"n\":4,",
            "\"seed\":9,\"warmup\":50000000,\"measure\":100000000}}",
            "]}}"
        ),
        cache = blocker.display().to_string(),
        ckpt = ckpt.display().to_string(),
    );
    let run = run_server(&input, &[], &[], None);
    assert!(run.status.success(), "cache failure must not abort the run");
    assert_eq!(get_u64(&run.summary, "completed"), 1);
    assert_eq!(get_u64(&run.summary, "cache_hits"), 0);
    assert_eq!(
        get_u64(&run.summary, "cache_misses"),
        0,
        "cache disabled entirely"
    );

    let _ = std::fs::remove_file(&blocker);
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// Run the server on `input` with `args`, expecting a configuration error:
/// exit status 1, no job line on stdout. Returns stderr.
fn rejected_run(args: &[&str], input: &str) -> String {
    let mut child = server()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn campaign_server");
    // The server may exit before it reads the spec, so the write may fail.
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes());
    let output = child.wait_with_output().expect("collect server output");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(1), "must fail the run: {input}");
    assert!(stdout.is_empty(), "no job may run: {stdout}");
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// An unknown flag is a configuration error: the server exits nonzero
/// before any job runs and prints no job line.
#[test]
fn unknown_flag_exits_nonzero_before_any_job() {
    let (cache, ckpt) = (temp_dir("bogus_cache"), temp_dir("bogus_ckpt"));
    let stderr = rejected_run(&["--bogus"], &spec(&cache, &ckpt, ""));
    assert!(stderr.contains("--bogus"));
    assert!(!cache.exists() && !ckpt.exists(), "nothing was set up");
}

/// A top-level spec value of the wrong type or range, or an unknown
/// top-level key, is a configuration error naming the key: the server
/// exits 1 before any job runs.
#[test]
fn bad_top_level_spec_values_exit_nonzero_before_any_job() {
    let (cache, ckpt) = (temp_dir("badspec_cache"), temp_dir("badspec_ckpt"));
    let cases = [
        ("threads", "0"),
        ("threads", "-2"),
        ("threads", "1.5"),
        ("threads", "\"4\""),
        ("checkpoint_sim_secs", "0"),
        ("checkpoint_sim_secs", "-0.5"),
        ("checkpoint_sim_secs", "1e999"),
        ("checkpoint_sim_secs", "\"30\""),
        ("job_timeout_secs", "-1"),
        ("job_timeout_secs", "1e999"),
        ("job_timeout_secs", "null"),
        ("cache_dir", "7"),
        ("checkpoint_dir", "[\"ckpt\"]"),
        ("chekpoint_sim_secs", "30"),
    ];
    for (key, value) in cases {
        let mut entries = vec![format!("{key:?}:{value}")];
        for (dir_key, dir) in [("cache_dir", &cache), ("checkpoint_dir", &ckpt)] {
            if dir_key != key {
                entries.push(format!("{dir_key:?}:{:?}", dir.display().to_string()));
            }
        }
        let input = format!(
            "{{{},\"jobs\":[{{\"protocol\":\"Standard80211\",\"topology\":\"FullyConnected\",\"n\":4}}]}}",
            entries.join(",")
        );
        let stderr = rejected_run(&[], &input);
        assert!(stderr.contains(&format!("`{key}`")), "{input}: {stderr}");
        assert!(!cache.exists() && !ckpt.exists(), "nothing was set up");
    }
}
