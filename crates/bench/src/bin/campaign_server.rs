//! Campaign service mode: read a job-spec JSON document on stdin, schedule
//! the jobs over a **supervised** worker pool, and stream one JSON line per
//! job (in input order) on stdout.
//!
//! Long jobs are **checkpointed** at a configurable simulated-time cadence —
//! `Simulator::checkpoint` snapshots the full DES state to
//! `<checkpoint_dir>/<key>.ckpt`, and `--resume` continues an interrupted job
//! from its last snapshot, bit-identical to a straight-through run. Completed
//! jobs land in the content-addressed result cache (see `wlan_core::cache`),
//! so re-submitting a spec recomputes only the jobs whose inputs changed.
//!
//! ## Supervision
//!
//! The server is built to run unattended for days:
//!
//! * **Panic isolation** — every job runs under `catch_unwind`; a panicking
//!   job is retried (the campaign pool's deterministic backoff,
//!   `WLAN_JOB_RETRIES` budget) and, if it keeps panicking, emitted as an
//!   error line instead of tearing the pool down.
//! * **Wall-clock timeout** — `job_timeout_secs` (spec key, or the
//!   `WLAN_JOB_TIMEOUT_SECS` environment variable): a job exceeding it is
//!   snapshotted and **requeued**, so a pathological cell cannot pin a
//!   worker forever. Each claim makes simulated-time progress, so requeued
//!   jobs still terminate.
//! * **Graceful drain** — on SIGTERM/SIGINT the pool stops claiming,
//!   in-flight jobs snapshot and stop at the next slice boundary, the
//!   summary line reports the drained count, and the process exits 0. A
//!   rerun with `--resume` continues bit-identically.
//! * **Degraded cache** — an unopenable cache directory, or a failing store,
//!   logs one warning and the campaign continues compute-only.
//! * **Fault injection** — `WLAN_FAULT_PLAN` (see `wlan_core::fault`)
//!   deterministically trips cache/checkpoint/panic/stall sites for chaos
//!   testing.
//!
//! All of this runs on one `wlan_core::RunContext` built from the `WLAN_*`
//! knobs (`wlan_bench::harness::Knobs`, the parser the experiment binaries
//! share), the flags and the spec. A malformed knob value or flag exits
//! nonzero before any job runs.
//!
//! ## Job spec
//!
//! ```json
//! {
//!   "threads": 4,
//!   "checkpoint_sim_secs": 30.0,
//!   "job_timeout_secs": 900.0,
//!   "cache_dir": "results/.cache",
//!   "checkpoint_dir": "results/.checkpoints",
//!   "jobs": [
//!     {"protocol": "WTopCsma", "topology": "FullyConnected", "n": 10, "seed": 1},
//!     {"protocol": {"StaticPPersistent": {"p": 0.02}},
//!      "topology": {"UniformDisc": {"radius": 16.0}}, "n": 8,
//!      "warmup": 100000000, "measure": 300000000}
//!   ]
//! }
//! ```
//!
//! Each job needs `protocol`, `topology` and `n`; every other key overrides
//! the corresponding [`Scenario`] default (same names and encodings as the
//! scenario's own JSON serialisation — durations are nanosecond integers;
//! unknown keys are rejected). All top-level keys except `jobs` are
//! optional: `threads` is a positive integer, `checkpoint_sim_secs` a
//! positive number, `job_timeout_secs` a non-negative number (0: no
//! timeout), and the two directories are strings. A top-level value outside
//! that, or an unknown top-level key, exits 1 before any job runs. A job
//! that fails to parse or validate yields a per-job error line; it never
//! aborts the other jobs.
//!
//! ## Output protocol
//!
//! One line per job, in input order:
//!
//! ```json
//! {"job": 0, "key": "<32-hex>", "cached": false, "resumed": false, "result": {...}}
//! {"job": 1, "error": "invalid scenario: ..."}
//! ```
//!
//! followed by a summary line
//! `{"jobs": N, "completed": X, "errors": E, "drained": D, "cache_hits": H, "cache_misses": M}`.
//! Drained jobs (in-flight or never claimed when a signal arrived) emit no
//! per-job line — they are jobs a `--resume` rerun will finish. Diagnostics
//! go to stderr.
//!
//! ## Flags
//!
//! * `--resume` — load `<key>.ckpt` snapshots left by an interrupted run.
//! * `--no-cache` — bypass the result cache (jobs still checkpoint).
//! * `--threads N` — override the spec's worker count (a positive integer).
//!
//! Any other argument is an error.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, VecDeque};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use wlan_bench::harness::{open_cache, threads_flag, Knobs};
use wlan_core::campaign::{panic_message, retry_backoff};
use wlan_core::{job_key, FaultPlan, FaultSite, RunContext, Scenario, ScenarioResult};
use wlan_sim::{SimDuration, Simulator};

/// Set by the SIGTERM/SIGINT handler: workers stop claiming, in-flight jobs
/// snapshot at the next slice boundary and report [`Status::Drained`].
static DRAINING: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    DRAINING.store(true, Ordering::SeqCst);
}

/// Install the drain handler for SIGTERM and SIGINT. Raw `signal(2)` —
/// setting a sig-atomic flag is the only async-signal-safe thing we do.
fn install_signal_handlers() {
    #[allow(non_camel_case_types)]
    type sighandler_t = extern "C" fn(i32);
    extern "C" {
        fn signal(signum: i32, handler: sighandler_t) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// A parsed job plus its cache key.
struct Job {
    scenario: Scenario,
    key: String,
}

/// What happened to one job that produced a result.
struct Outcome {
    result: ScenarioResult,
    cached: bool,
    resumed: bool,
    /// Kernel events processed by the final claim (0 for a cache hit).
    events: u64,
    /// Wall-clock the final claim spent computing (zero for a cache hit).
    wall: Duration,
}

/// Terminal status of one job slot, sent to the in-order emitter.
enum Status {
    /// The job finished (fresh, cached, or resumed) — emits a result line.
    Done(Box<Outcome>),
    /// The job failed permanently — emits `{"job":i,"error":...}`.
    Failed(String),
    /// A drain interrupted the job after its snapshot was flushed — no line;
    /// a `--resume` rerun finishes it.
    Drained,
}

/// One entry of the work queue. `claims` counts timeout requeues (and keys
/// the `worker_stall` fault site), `panics` counts panicking attempts (and
/// keys `job_panic`), and `resume` says whether to look for a snapshot.
struct WorkItem {
    index: usize,
    claims: u32,
    panics: u32,
    resume: bool,
}

/// What a worker should do with a claimed item.
enum Disposition {
    Done(Box<Outcome>),
    /// Panicked with retry budget left: back off and requeue.
    Retry,
    /// Wall-clock timeout: snapshot written, requeue for another claim.
    Requeue,
    Drained,
    Failed(String),
}

/// Checkpointing configuration shared by all workers (whether to *resume*
/// from a snapshot is per-claim state, carried by [`WorkItem`]).
struct CheckpointPolicy {
    dir: PathBuf,
    every: Option<SimDuration>,
    /// Wall-clock budget of one claim: past it the job snapshots and requeues.
    timeout: Option<Duration>,
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("campaign_server: {msg}");
    std::process::exit(1);
}

fn opt<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

/// The top-level spec keys besides `jobs`. A value of the wrong type or
/// range is an error naming its key, and so is any other key.
#[derive(Default)]
struct SpecOptions {
    threads: Option<usize>,
    checkpoint_every: Option<SimDuration>,
    /// `Some(None)` when `job_timeout_secs` is 0: no timeout, whatever the
    /// environment says.
    job_timeout: Option<Option<Duration>>,
    cache_dir: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
}

impl SpecOptions {
    fn parse(spec: &[(String, Value)]) -> Result<Self, String> {
        let mut options = SpecOptions::default();
        for (key, value) in spec {
            let bad = |expected: &str| format!("`{key}` must be {expected}, got {value:?}");
            let secs = as_f64(value).filter(|s| s.is_finite());
            let path = || match value {
                Value::Str(s) => Ok(Some(PathBuf::from(s))),
                _ => Err(bad("a string")),
            };
            match key.as_str() {
                "jobs" => {}
                "threads" => match value {
                    Value::U64(t) if *t >= 1 => options.threads = Some(*t as usize),
                    _ => return Err(bad("a positive integer")),
                },
                "checkpoint_sim_secs" => match secs {
                    Some(s) if s > 0.0 => {
                        options.checkpoint_every = Some(SimDuration::from_secs_f64(s))
                    }
                    _ => return Err(bad("a positive number of seconds")),
                },
                "job_timeout_secs" => {
                    let s = secs.filter(|&s| s >= 0.0);
                    let d = s.and_then(|s| Duration::try_from_secs_f64(s).ok());
                    let (Some(s), Some(d)) = (s, d) else {
                        return Err(bad("a non-negative number of seconds (0: no timeout)"));
                    };
                    options.job_timeout = Some((s > 0.0).then_some(d));
                }
                "cache_dir" => options.cache_dir = path()?,
                "checkpoint_dir" => options.checkpoint_dir = path()?,
                other => return Err(format!("unknown top-level key `{other}`")),
            }
        }
        Ok(options)
    }
}

/// Build a [`Scenario`] from a job map: `protocol` / `topology` / `n` are
/// required, every other entry overrides the matching field of the default
/// scenario (validated by round-tripping the merged map through the
/// scenario's own deserialiser, so a typo'd key or a mistyped value is a
/// hard error, not a silently ignored one), and the merged scenario must
/// pass [`Scenario::validate`].
fn parse_job(value: &Value) -> Result<Scenario, String> {
    let Value::Map(entries) = value else {
        return Err("job must be a JSON object".to_string());
    };
    let protocol = wlan_core::Protocol::from_value(
        opt(entries, "protocol").ok_or("job is missing `protocol`")?,
    )
    .map_err(|e| format!("bad `protocol`: {e}"))?;
    let topology = wlan_core::TopologySpec::from_value(
        opt(entries, "topology").ok_or("job is missing `topology`")?,
    )
    .map_err(|e| format!("bad `topology`: {e}"))?;
    let n = match opt(entries, "n").ok_or("job is missing `n`")? {
        Value::U64(n) => *n as usize,
        other => return Err(format!("bad `n`: expected an integer, got {other:?}")),
    };
    let defaults = Scenario::new(protocol, topology, n).to_value();
    let Value::Map(mut merged) = defaults else {
        unreachable!("a scenario serialises to a map");
    };
    for (key, val) in entries {
        match merged.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = val.clone(),
            None => return Err(format!("unknown scenario field `{key}`")),
        }
    }
    let scenario = Scenario::from_value(&Value::Map(merged)).map_err(|e| e.to_string())?;
    scenario
        .validate()
        .map_err(|e| format!("invalid scenario: {e}"))?;
    Ok(scenario)
}

/// Write a snapshot of `sim` to `path` (temp file + rename). `ordinal`
/// counts this job's snapshot writes and keys the `checkpoint_write` fault
/// site; a failed write — real or injected — is a warning, never an abort:
/// the job keeps running and simply has a staler resume point.
fn write_snapshot(sim: &Simulator, path: &Path, key: &str, faults: &FaultPlan, ordinal: &mut u32) {
    let attempt = *ordinal;
    *ordinal += 1;
    if faults.should_fault(FaultSite::CheckpointWrite, key, attempt) {
        eprintln!(
            "campaign_server: cannot write snapshot {}: injected fault: checkpoint_write",
            path.display()
        );
        return;
    }
    let tmp = path.with_extension("ckpt.tmp");
    let write = std::fs::write(&tmp, sim.checkpoint()).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = write {
        eprintln!(
            "campaign_server: cannot write snapshot {}: {e}",
            path.display()
        );
    }
}

/// Advance one job in slices, supervising between slices: a drain request
/// snapshots and stops, a wall-clock timeout snapshots and requeues, and the
/// periodic checkpoint cadence (if any) snapshots and continues. The result
/// of a completed job is bit-identical however many slices, snapshots,
/// resumes or requeues it took (the `advance_until` contract).
fn advance_job(
    job: &Job,
    ctx: &RunContext,
    ckpt: &CheckpointPolicy,
    item: &WorkItem,
) -> Disposition {
    let scenario = &job.scenario;
    let mut sim = ctx.build(scenario);
    let mut resumed = false;
    let path = ckpt.dir.join(format!("{}.ckpt", job.key));
    if item.resume {
        if let Ok(bytes) = std::fs::read(&path) {
            if sim.resume(&bytes).is_ok() {
                resumed = true;
            } else {
                // A stale or corrupt snapshot leaves the simulator partially
                // overwritten; discard it and start the job from scratch.
                eprintln!(
                    "campaign_server: discarding unusable snapshot {}",
                    path.display()
                );
                sim = ctx.build(scenario);
            }
        }
    }
    let end = scenario.end_time();
    // Supervision needs slice boundaries even without periodic snapshots.
    let slice = ckpt.every.unwrap_or(SimDuration::from_secs(1));
    let claimed = Instant::now();
    let events_at_claim = sim.events_processed();
    let mut writes = 0u32;
    while sim.now() < end {
        let next = (sim.now() + slice).min(end);
        scenario.advance_until(&mut sim, next);
        if sim.now() >= end {
            break;
        }
        if DRAINING.load(Ordering::SeqCst) {
            write_snapshot(&sim, &path, &job.key, &ctx.faults, &mut writes);
            return Disposition::Drained;
        }
        if let Some(timeout) = ckpt.timeout {
            // The slice above made simulated-time progress, so requeueing
            // still terminates: every claim moves the job forward.
            if claimed.elapsed() >= timeout {
                write_snapshot(&sim, &path, &job.key, &ctx.faults, &mut writes);
                return Disposition::Requeue;
            }
        }
        if ckpt.every.is_some() {
            write_snapshot(&sim, &path, &job.key, &ctx.faults, &mut writes);
        }
    }
    let wall = claimed.elapsed();
    let events = sim.events_processed() - events_at_claim;
    ctx.metrics.record_job(events, wall);
    let result = ctx.collect(scenario, &sim);
    ctx.store(&job.key, &result);
    let _ = std::fs::remove_file(&path);
    Disposition::Done(Box::new(Outcome {
        result,
        cached: false,
        resumed,
        events,
        wall,
    }))
}

/// Run one claim of one job under supervision: cache short-circuit, injected
/// worker stall, and panic isolation with a bounded retry budget.
fn run_job(job: &Job, ctx: &RunContext, ckpt: &CheckpointPolicy, item: &WorkItem) -> Disposition {
    if ctx
        .faults
        .should_fault(FaultSite::WorkerStall, &job.key, item.claims)
    {
        std::thread::sleep(ctx.faults.stall());
    }
    if let Some(result) = ctx.lookup(&job.key) {
        return Disposition::Done(Box::new(Outcome {
            result,
            cached: true,
            resumed: false,
            events: 0,
            wall: Duration::ZERO,
        }));
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if ctx
            .faults
            .should_fault(FaultSite::JobPanic, &job.key, item.panics)
        {
            panic!(
                "injected fault: job_panic (job {}, attempt {})",
                item.index, item.panics
            );
        }
        advance_job(job, ctx, ckpt, item)
    }));
    match outcome {
        Ok(disposition) => disposition,
        Err(payload) => {
            let message = panic_message(payload);
            if item.panics + 1 < ctx.attempts {
                eprintln!(
                    "campaign_server: job {} panicked (attempt {}/{}): {message} — retrying",
                    item.index,
                    item.panics + 1,
                    ctx.attempts
                );
                Disposition::Retry
            } else {
                Disposition::Failed(format!(
                    "job panicked on all {} attempts: {message}",
                    ctx.attempts
                ))
            }
        }
    }
}

/// Emit `{"job":i,"error":...}` on stdout (stderr fallback if even that line
/// cannot be serialised).
fn emit_error_line(index: usize, error: &str) {
    let line = Value::Map(vec![
        ("job".to_string(), Value::U64(index as u64)),
        ("error".to_string(), Value::Str(error.to_string())),
    ]);
    match serde_json::to_string(&line) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("campaign_server: job {index}: {error} (error line unserialisable: {e})")
        }
    }
}

/// Emit the line (or no line, for a drained slot) for one finished job,
/// updating the summary counters.
fn emit_status(
    index: usize,
    status: Status,
    jobs: &[Result<Job, String>],
    completed: &mut u64,
    errors: &mut u64,
) {
    match status {
        Status::Done(outcome) => {
            let key = match &jobs[index] {
                Ok(job) => job.key.clone(),
                Err(_) => unreachable!("only parsed jobs produce results"),
            };
            let wall_secs = outcome.wall.as_secs_f64();
            let events_per_sec = if wall_secs > 0.0 {
                outcome.events as f64 / wall_secs
            } else {
                0.0
            };
            let line = Value::Map(vec![
                ("job".to_string(), Value::U64(index as u64)),
                ("key".to_string(), Value::Str(key)),
                ("cached".to_string(), Value::Bool(outcome.cached)),
                ("resumed".to_string(), Value::Bool(outcome.resumed)),
                ("wall_secs".to_string(), Value::F64(wall_secs)),
                ("events_per_sec".to_string(), Value::F64(events_per_sec)),
                ("result".to_string(), outcome.result.to_value()),
            ]);
            match serde_json::to_string(&line) {
                Ok(text) => {
                    println!("{text}");
                    *completed += 1;
                }
                Err(e) => {
                    emit_error_line(index, &format!("cannot serialise result: {e}"));
                    *errors += 1;
                }
            }
        }
        Status::Failed(error) => {
            emit_error_line(index, &error);
            *errors += 1;
        }
        Status::Drained => {}
    }
}

fn main() {
    install_signal_handlers();
    let knobs = Knobs::from_env().unwrap_or_else(|e| fail(e));
    let (mut resume, mut no_cache, mut threads_override) = (false, false, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--resume" => resume = true,
            "--no-cache" => no_cache = true,
            "--threads" => {
                threads_override =
                    Some(threads_flag(args.next().as_deref()).unwrap_or_else(|e| fail(e)))
            }
            other => fail(format!("unknown flag `{other}`")),
        }
    }
    if !knobs.faults.is_empty() {
        eprintln!("campaign_server: WLAN_FAULT_PLAN active — injecting deterministic faults");
    }

    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        fail(format!("cannot read job spec from stdin: {e}"));
    }
    let spec: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => fail(format!("job spec is not valid JSON: {e}")),
    };
    let Value::Map(spec) = &spec else {
        fail("job spec must be a JSON object");
    };
    let jobs_value = match opt(spec, "jobs") {
        Some(Value::Seq(jobs)) => jobs,
        Some(_) => fail("`jobs` must be an array"),
        None => fail("job spec is missing `jobs`"),
    };
    let options = SpecOptions::parse(spec).unwrap_or_else(|e| fail(e));
    let threads = threads_override
        .or(options.threads)
        .unwrap_or(knobs.threads);
    let results_dir = &knobs.out_dir;
    let cache_dir = options.cache_dir.unwrap_or_else(|| knobs.cache_dir.clone());
    let checkpoint_dir = options
        .checkpoint_dir
        .unwrap_or_else(|| results_dir.join(".checkpoints"));
    let every = options.checkpoint_every;
    let timeout = options.job_timeout.unwrap_or(knobs.job_timeout);

    // A job that fails to parse or validate occupies an error slot; the
    // healthy jobs run regardless.
    let jobs: Vec<Result<Job, String>> = jobs_value
        .iter()
        .map(|v| {
            parse_job(v).map(|scenario| {
                let key = job_key(&scenario);
                Job { scenario, key }
            })
        })
        .collect();

    // An unopenable cache directory degrades to compute-only; it must not
    // abort a campaign that would succeed without caching.
    let cache = if no_cache {
        None
    } else {
        open_cache(&cache_dir)
    };
    let ctx = knobs.context(threads, cache);
    if let Err(e) = std::fs::create_dir_all(&checkpoint_dir) {
        eprintln!(
            "campaign_server: warning: cannot create checkpoint directory {} ({e}) \
             — snapshots will fail",
            checkpoint_dir.display()
        );
    }
    let ckpt = CheckpointPolicy {
        dir: checkpoint_dir,
        every,
        timeout,
    };
    let parse_errors = jobs.iter().filter(|j| j.is_err()).count();
    eprintln!(
        "campaign_server: {} job{} ({} invalid) on {} thread{}, cache {}, checkpoints in {}{}{}",
        jobs.len(),
        if jobs.len() == 1 { "" } else { "s" },
        parse_errors,
        ctx.threads,
        if ctx.threads == 1 { "" } else { "s" },
        match &ctx.cache {
            Some(c) => format!("in {}", c.dir().display()),
            None => "disabled".to_string(),
        },
        ckpt.dir.display(),
        match every {
            Some(d) => format!(" every {} sim-s", d.as_secs_f64()),
            None => " (final state only; no periodic snapshots)".to_string(),
        },
        match timeout {
            Some(t) => format!(", job timeout {:.1}s", t.as_secs_f64()),
            None => String::new(),
        },
    );

    // Workers pop WorkItems from a requeue-capable deque; the main thread
    // re-serialises the completions into input order so the stream is
    // deterministic. Parse failures are injected as pre-finished slots.
    let queue: Mutex<VecDeque<WorkItem>> = Mutex::new(
        jobs.iter()
            .enumerate()
            .filter(|(_, j)| j.is_ok())
            .map(|(index, _)| WorkItem {
                index,
                claims: 0,
                panics: 0,
                resume,
            })
            .collect(),
    );
    let runnable = jobs.len() - parse_errors;
    let (tx, rx) = mpsc::channel::<(usize, Status)>();
    for (i, job) in jobs.iter().enumerate() {
        if let Err(e) = job {
            let _ = tx.send((i, Status::Failed(e.clone())));
        }
    }
    let mut completed = 0u64;
    let mut errors = 0u64;
    let campaign_started = Instant::now();
    let claimed_jobs = AtomicU64::new(0);
    let claimed = || claimed_jobs.load(Ordering::Relaxed);
    ctx.with_heartbeat(claimed, || {
        std::thread::scope(|scope| {
            for _ in 0..ctx.threads.min(runnable.max(1)) {
                let tx = tx.clone();
                let jobs = &jobs;
                let queue = &queue;
                let ckpt = &ckpt;
                let ctx = &ctx;
                let claimed_jobs = &claimed_jobs;
                scope.spawn(move || loop {
                    if DRAINING.load(Ordering::SeqCst) {
                        break; // stop claiming; unclaimed items count as drained
                    }
                    let item = queue
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .pop_front();
                    let Some(mut item) = item else { break };
                    claimed_jobs.fetch_add(1, Ordering::Relaxed);
                    let Ok(job) = &jobs[item.index] else {
                        unreachable!("only parsed jobs are queued");
                    };
                    match run_job(job, ctx, ckpt, &item) {
                        Disposition::Done(outcome) => {
                            let _ = tx.send((item.index, Status::Done(outcome)));
                        }
                        Disposition::Failed(error) => {
                            let _ = tx.send((item.index, Status::Failed(error)));
                        }
                        Disposition::Drained => {
                            let _ = tx.send((item.index, Status::Drained));
                        }
                        Disposition::Retry => {
                            // The pool's deterministic bounded backoff (wall-clock
                            // only; a retry is a pure re-execution of the job).
                            item.panics += 1;
                            std::thread::sleep(retry_backoff(item.panics));
                            item.resume = true;
                            queue
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push_back(item);
                        }
                        Disposition::Requeue => {
                            eprintln!(
                                "campaign_server: job {} hit its wall-clock timeout — snapshotted \
                             and requeued (claim {})",
                                item.index,
                                item.claims + 1
                            );
                            item.claims += 1;
                            item.resume = true;
                            queue
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .push_back(item);
                        }
                    }
                });
            }
            drop(tx);
            let mut pending: BTreeMap<usize, Status> = BTreeMap::new();
            let mut emit_next = 0usize;
            for (i, status) in rx {
                pending.insert(i, status);
                while let Some(status) = pending.remove(&emit_next) {
                    emit_status(emit_next, status, &jobs, &mut completed, &mut errors);
                    emit_next += 1;
                }
            }
            // A drain leaves gaps (unclaimed jobs send nothing): flush whatever
            // finished out of order, still ascending by index.
            for (i, status) in pending {
                emit_status(i, status, &jobs, &mut completed, &mut errors);
            }
        })
    });

    let drained = jobs.len() as u64 - completed - errors;
    let stats = ctx.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
    let summary = Value::Map(vec![
        ("jobs".to_string(), Value::U64(jobs.len() as u64)),
        ("completed".to_string(), Value::U64(completed)),
        ("errors".to_string(), Value::U64(errors)),
        ("drained".to_string(), Value::U64(drained)),
        ("cache_hits".to_string(), Value::U64(stats.hits)),
        ("cache_misses".to_string(), Value::U64(stats.misses)),
        (
            "wall_secs".to_string(),
            Value::F64(campaign_started.elapsed().as_secs_f64()),
        ),
    ]);
    match serde_json::to_string(&summary) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("campaign_server: cannot serialise summary line: {e}");
            std::process::exit(1);
        }
    }
    // Final metrics dump — one coherent JSON document a service supervisor
    // can scrape after the run (cache traffic, retries, per-kind event totals
    // when WLAN_METRICS=1).
    let metrics_path = results_dir.join("metrics.json");
    let dump = std::fs::create_dir_all(results_dir).and_then(|()| {
        let snapshot = ctx.metrics.snapshot(ctx.cache.as_ref());
        let text = serde_json::to_string_pretty(&snapshot)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(&metrics_path, text + "\n")
    });
    match dump {
        Ok(()) => eprintln!(
            "campaign_server: metrics written to {}",
            metrics_path.display()
        ),
        Err(e) => eprintln!(
            "campaign_server: warning: cannot write {}: {e}",
            metrics_path.display()
        ),
    }
    if drained > 0 {
        eprintln!(
            "campaign_server: drained with {drained} job(s) unfinished — rerun with --resume to \
             continue from the flushed snapshots"
        );
    }
}
