//! End-to-end supervision tests of the `campaign_server` binary: graceful
//! SIGTERM drain → `--resume` completion with byte-identical results, a
//! corrupt snapshot discarded on resume, wall-clock timeout requeue,
//! injected panics retried or quarantined (and counted in `metrics.json`),
//! per-job error lines for invalid specs, compute-only degradation when
//! the cache directory is unusable or `WLAN_NO_CACHE` is set, and a warm
//! pass emitting the cold pass's result bytes.

use serde::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, Stdio};
use wlan_core::ScenarioResult;

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
    stdout: String,
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
        stdout,
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

/// The exact bytes of a job line's `result`: the line's tail after
/// `,"result":`, without the closing brace. This is how the benchmark's
/// reader takes a result's bytes.
fn result_text(raw: &str) -> &str {
    let (_, tail) = raw.split_once(",\"result\":").expect("a result line");
    tail.strip_suffix('}')
        .expect("the line closes after `result`")
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

/// A checkpoint cadence past the end of every job ends each slice at the
/// job's end, also on a claim resumed from a snapshot taken past 0, where
/// the clock plus the cadence overflows: the job still completes.
#[test]
fn a_cadence_past_every_end_finishes_a_resumed_job() {
    let cache = temp_dir("far_cache");
    let ckpt = temp_dir("far_ckpt");
    let input = spec(&cache, &ckpt, "");
    // As in the corrupt-snapshot test, the drain leaves a snapshot past 0.
    let pass1 = run_server(
        &input,
        &[],
        &[("WLAN_FAULT_PLAN", "seed=1;worker_stall=1;stall_ms=1000")],
        Some(300),
    );
    assert!(pass1.status.success() && get_u64(&pass1.summary, "drained") >= 1);

    let far = input.replace(
        "\"checkpoint_sim_secs\":0.2",
        "\"checkpoint_sim_secs\":1e300",
    );
    let mut child = server()
        .arg("--resume")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn campaign_server");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(far.as_bytes())
        .expect("write job spec");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while child.try_wait().expect("poll campaign_server").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("the resumed job did not finish within 60 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect server output");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let summary: Value = serde_json::from_str(stdout.lines().last().expect("a summary line"))
        .expect("the summary is JSON");
    assert_eq!(get_u64(&summary, "completed"), 3, "{stdout}");
    for d in [cache, ckpt] {
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

/// Run the server uncached on the three-job spec under
/// `WLAN_FAULT_PLAN=plan` (three attempts per job), with a results
/// directory of its own; returns the run and its `metrics.json`.
fn faulted_run(plan: &str, tag: &str) -> (Run, Value) {
    let out = temp_dir(tag);
    let input = spec(&out.join("cache"), &out.join("ckpt"), "");
    let out_text = out.display().to_string();
    let envs = [
        ("WLAN_FAULT_PLAN", plan),
        ("WLAN_JOB_RETRIES", "2"),
        ("WLAN_REPRO_OUT", out_text.as_str()),
    ];
    let run = run_server(&input, &["--no-cache"], &envs, None);
    assert!(run.status.success(), "faults are lines, not a crash");
    let metrics = std::fs::read_to_string(out.join("metrics.json")).expect("metrics.json");
    let _ = std::fs::remove_dir_all(&out);
    (
        run,
        serde_json::from_str(&metrics).expect("metrics.json is JSON"),
    )
}

/// Injected panics through the server: a job that panics once is retried
/// to byte-identical results, a job that panics on every attempt is one
/// error line, and `metrics.json` counts both. Every result line ends with
/// its `result` object: the benchmark's reader splits a line on
/// `,"result":` and takes the rest as the result's bytes.
#[test]
fn injected_job_panics_are_retried_or_quarantined_and_counted() {
    let (retried, metrics) = faulted_run("seed=1;job_panic=1x1", "retry_out");
    assert_eq!(get_u64(&retried.summary, "completed"), 3);
    assert_eq!(get_u64(&metrics, "retries"), 3, "one retry per job");
    let reference = faulted_run("", "retry_ref_out").0;
    assert_eq!(
        results_by_job(&retried.lines),
        results_by_job(&reference.lines)
    );
    for (raw, line) in retried.stdout.lines().zip(&retried.lines) {
        let result: Value = serde_json::from_str(result_text(raw)).expect("the tail is the result");
        assert_eq!(&result, get(line, "result"));
    }

    let (quarantined, metrics) = faulted_run("seed=1;job_panic=1", "quarantine_out");
    assert_eq!(get_u64(&quarantined.summary, "errors"), 3);
    assert_eq!(quarantined.lines.len(), 3);
    for (i, line) in quarantined.lines.iter().enumerate() {
        let Value::Str(e) = get(line, "error") else {
            panic!("job {i} must carry an error string")
        };
        let expected = "job panicked on all 3 attempts: injected fault: job_panic";
        assert!(e.starts_with(expected), "job {i}: {e}");
    }
    assert_eq!(get_u64(&metrics, "quarantined"), 3);
    assert_eq!(get_u64(&metrics, "jobs_failed"), 3);
}

/// A warm resubmission is served from the cache and emits the cold pass's
/// result bytes: a hit's line carries the entry's stored text as it is,
/// which is what the result's own encoding writes.
#[test]
fn a_warm_pass_emits_the_cold_result_bytes() {
    let out = temp_dir("warm_out");
    let input = spec(&out.join("cache"), &out.join("ckpt"), "");
    let out_text = out.display().to_string();
    let envs = [("WLAN_REPRO_OUT", out_text.as_str())];
    let cold = run_server(&input, &[], &envs, None);
    let warm = run_server(&input, &[], &envs, None);
    let metrics = std::fs::read_to_string(out.join("metrics.json")).expect("metrics.json");
    let _ = std::fs::remove_dir_all(&out);
    assert!(cold.status.success() && warm.status.success());
    assert_eq!(get_u64(&cold.summary, "cache_misses"), 3);
    let metrics: Value = serde_json::from_str(&metrics).expect("metrics.json is JSON");
    assert_eq!(get_u64(&metrics, "cache_hits"), 3);
    assert_eq!(get_u64(&metrics, "cache_misses"), 0);

    assert_eq!(warm.lines.len(), 3);
    let pairs = cold.stdout.lines().zip(warm.stdout.lines());
    for (job, ((cold_raw, warm_raw), line)) in pairs.zip(&warm.lines).enumerate() {
        assert_eq!(get(line, "cached"), &Value::Bool(true), "job {job}");
        assert_eq!(get(line, "resumed"), &Value::Bool(false), "job {job}");
        let text = result_text(warm_raw);
        assert_eq!(text, result_text(cold_raw), "job {job}: warm bytes differ");
        let decoded: ScenarioResult = serde_json::from_str(text).expect("the tail is a result");
        assert_eq!(serde_json::to_string(&decoded).unwrap(), text, "job {job}");
    }
}

/// A hit is what the run would compute: a warm pass with telemetry on gets
/// the controller-telemetry section a run without the cache gets, and a
/// warm pass with it off gets none, whichever pass filled the cache.
#[test]
fn a_hit_is_what_the_run_computes_with_or_without_telemetry() {
    let result_of =
        |run: &Run| result_text(run.stdout.lines().next().expect("a job line")).to_owned();
    let input = |out: &std::path::Path| {
        format!(
            concat!(
                "{{\"threads\":1,\"cache_dir\":{:?},\"checkpoint_dir\":{:?},\"jobs\":[",
                "{{\"protocol\":\"WTopCsma\",\"topology\":\"FullyConnected\",\"n\":5,",
                "\"seed\":2,\"warmup\":50000000,\"measure\":200000000,",
                "\"update_period\":20000000}}]}}"
            ),
            out.join("cache").display().to_string(),
            out.join("ckpt").display().to_string(),
        )
    };
    let reference = |metrics: &str| {
        let out = temp_dir(&format!("telemetry_ref_{metrics}"));
        let out_text = out.display().to_string();
        let envs = [
            ("WLAN_REPRO_OUT", out_text.as_str()),
            ("WLAN_METRICS", metrics),
        ];
        let run = run_server(&input(&out), &["--no-cache"], &envs, None);
        let _ = std::fs::remove_dir_all(&out);
        result_of(&run)
    };
    let (plain, telemetered) = (reference("0"), reference("1"));
    assert!(!plain.contains("controller_telemetry"));
    assert!(telemetered.contains("\"controller_telemetry\""));

    for (first, second) in [("0", "1"), ("1", "0")] {
        let out = temp_dir(&format!("telemetry_{first}{second}"));
        let out_text = out.display().to_string();
        let run = |metrics: &str| {
            let envs = [
                ("WLAN_REPRO_OUT", out_text.as_str()),
                ("WLAN_METRICS", metrics),
            ];
            run_server(&input(&out), &[], &envs, None)
        };
        let expected = |metrics: &str| if metrics == "1" { &telemetered } else { &plain };
        let cold = run(first);
        let other = run(second);
        let warm = run(second);
        let _ = std::fs::remove_dir_all(&out);
        for (pass, metrics, misses) in [(&cold, first, 1), (&other, second, 1), (&warm, second, 0)]
        {
            assert_eq!(
                &result_of(pass),
                expected(metrics),
                "WLAN_METRICS={metrics}"
            );
            assert_eq!(
                get_u64(&pass.summary, "cache_misses"),
                misses,
                "WLAN_METRICS={metrics}"
            );
        }
    }
}

/// A job requeued by its wall-clock timeout reads the cache once, not once
/// per claim: five 0.2 sim-s slices under a 1 µs timeout are five claims.
/// `metrics.json` counts the events of every claim, so it reads what a
/// straight-through run of the same job reads.
#[test]
fn a_requeued_job_reads_the_cache_once() {
    let run_job = |tag: &str, timeout: &str| {
        let out = temp_dir(tag);
        let input = format!(
            concat!(
                "{{\"threads\":1,\"checkpoint_sim_secs\":0.2{},",
                "\"cache_dir\":{:?},\"checkpoint_dir\":{:?},\"jobs\":[{{\"protocol\":",
                "\"Standard80211\",\"topology\":\"FullyConnected\",\"n\":50,\"seed\":4,",
                "\"warmup\":200000000,\"measure\":800000000}}]}}"
            ),
            timeout,
            out.join("cache").display().to_string(),
            out.join("ckpt").display().to_string(),
        );
        let out_text = out.display().to_string();
        let run = run_server(&input, &[], &[("WLAN_REPRO_OUT", out_text.as_str())], None);
        let metrics = std::fs::read_to_string(out.join("metrics.json")).expect("metrics.json");
        let _ = std::fs::remove_dir_all(&out);
        let metrics: Value = serde_json::from_str(&metrics).expect("metrics.json is JSON");
        (run, metrics)
    };
    let (run, metrics) = run_job("requeue_out", ",\"job_timeout_secs\":1e-6");
    assert_eq!(get_u64(&run.summary, "completed"), 1);
    let requeues = run.stderr.matches("hit its wall-clock timeout").count();
    assert_eq!(requeues, 4, "{}", run.stderr);
    assert_eq!(get_u64(&run.summary, "cache_misses"), 1);

    let (straight, straight_metrics) = run_job("requeue_ref_out", "");
    assert_eq!(results_by_job(&run.lines), results_by_job(&straight.lines));
    assert_eq!(get_u64(&metrics, "jobs_completed"), 1);
    assert_eq!(
        get_u64(&metrics, "events_processed"),
        get_u64(&straight_metrics, "events_processed"),
        "every claim's events count"
    );
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

/// `WLAN_NO_CACHE=1` acts like `--no-cache`: the job runs, nothing is read
/// from or written to the cache, and the summary counts no hit and no miss.
#[test]
fn the_no_cache_knob_bypasses_the_cache() {
    let (cache, ckpt) = (temp_dir("knob_cache"), temp_dir("knob_ckpt"));
    let input = format!(
        concat!(
            "{{\"cache_dir\":{cache:?},\"checkpoint_dir\":{ckpt:?},\"jobs\":[",
            "{{\"protocol\":\"Standard80211\",\"topology\":\"FullyConnected\",\"n\":4,",
            "\"seed\":9,\"warmup\":50000000,\"measure\":100000000}}",
            "]}}"
        ),
        cache = cache.display().to_string(),
        ckpt = ckpt.display().to_string(),
    );
    let run = run_server(&input, &[], &[("WLAN_NO_CACHE", "1")], None);
    assert!(run.status.success(), "{}", run.stderr);
    assert_eq!(get_u64(&run.summary, "completed"), 1);
    assert_eq!(get_u64(&run.summary, "cache_hits"), 0);
    assert_eq!(get_u64(&run.summary, "cache_misses"), 0);
    assert!(!cache.exists(), "the cache was opened");
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// Run the server on `input` with `args` and `envs`, expecting a
/// configuration error: exit status 1, no job line on stdout. Returns
/// stderr.
fn rejected_run(args: &[&str], envs: &[(&str, &str)], input: &str) -> String {
    let mut child = server()
        .args(args)
        .envs(envs.iter().copied())
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
    let stderr = rejected_run(&["--bogus"], &[], &spec(&cache, &ckpt, ""));
    assert!(stderr.contains("--bogus"));
    assert!(!cache.exists() && !ckpt.exists(), "nothing was set up");
}

/// A malformed knob is a configuration error naming it: `WLAN_NO_CACHE` is
/// a switch, and `maybe` exits 1 before any job runs.
#[test]
fn a_malformed_no_cache_knob_exits_nonzero_before_any_job() {
    let (cache, ckpt) = (temp_dir("maybe_cache"), temp_dir("maybe_ckpt"));
    let input = spec(&cache, &ckpt, "");
    let stderr = rejected_run(&[], &[("WLAN_NO_CACHE", "maybe")], &input);
    assert!(stderr.contains("WLAN_NO_CACHE=\"maybe\""), "{stderr}");
    assert!(!cache.exists() && !ckpt.exists(), "nothing was set up");
}

/// A job spec nested far deeper than the JSON parser's depth limit is a
/// spec that is not valid JSON: exit 1, not a stack overflow.
#[test]
fn a_deeply_nested_spec_exits_nonzero_before_any_job() {
    let input = format!("{{\"jobs\":{}", "[".repeat(200_000));
    let stderr = rejected_run(&[], &[], &input);
    assert!(stderr.contains("job spec is not valid JSON"), "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
}

/// A top-level spec value of the wrong type or range, or an unknown
/// top-level key, is a configuration error naming the key: the server
/// exits 1 before any job runs. A checkpoint cadence that rounds to 0 ns is
/// out of range: its slices would never advance a job.
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
        ("checkpoint_sim_secs", "1e-12"),
        ("checkpoint_sim_secs", "4e-10"),
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
        let stderr = rejected_run(&[], &[], &input);
        assert!(stderr.contains(&format!("`{key}`")), "{input}: {stderr}");
        assert!(!cache.exists() && !ckpt.exists(), "nothing was set up");
    }
}
