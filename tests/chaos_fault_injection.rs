//! Chaos tests: random deterministic [`FaultPlan`]s × a campaign grid.
//!
//! The determinism contract gives chaos testing something most services never
//! get: an injected fault schedule is a pure function of the plan seed, so
//! recovery can be asserted **byte for byte** —
//!
//! * transient faults (bounded `max_trips` below the retry budget, worker
//!   stalls) are absorbed completely: zero quarantined jobs and results
//!   byte-identical to the fault-free run;
//! * permanent faults quarantine *exactly* the jobs the plan predicts
//!   ([`FaultPlan::faults_every_attempt`]) with structured errors, and every
//!   other job's bytes are unaffected;
//! * cache I/O faults never quarantine anything — the cache degrades to
//!   compute-only and the results stay byte-identical to uncached runs.

use proptest::prelude::*;
use wlan_sa::core::{
    job_key, FaultPlan, FaultSite, JobError, Protocol, ResultCache, RunContext, Scenario,
    ScenarioResult, TopologySpec,
};
use wlan_sa::sim::SimDuration;

/// Silence the default panic hook for injected panics (the supervised pool
/// catches them, but the hook still runs and would spam the test log). Only
/// payloads that start with the injection sites' own tag are silenced: any
/// other panic — including a failing assertion that merely quotes an
/// injected error — keeps the full default report.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if !message.is_some_and(|m| m.starts_with("injected fault")) {
                default(info);
            }
        }));
    });
}

/// A small heterogeneous campaign grid (two protocols × two seeds), cheap
/// enough to run dozens of times per proptest case.
fn grid(case_seed: u64) -> Vec<Scenario> {
    let mut jobs = Vec::new();
    for proto in [
        Protocol::StaticPPersistent { p: 0.04 },
        Protocol::Standard80211,
    ] {
        for s in 0..2u64 {
            jobs.push(
                Scenario::new(proto, TopologySpec::FullyConnected, 4)
                    .durations(SimDuration::from_millis(50), SimDuration::from_millis(150))
                    .seed(1 + case_seed * 2 + s),
            );
        }
    }
    jobs
}

fn bytes(r: &ScenarioResult) -> String {
    serde_json::to_string(r).expect("serialise result")
}

/// A context of its own on `threads` workers, injecting `faults`.
fn context(threads: usize, faults: FaultPlan) -> RunContext {
    RunContext {
        faults,
        ..RunContext::new(threads)
    }
}

fn baseline(jobs: &[Scenario]) -> Vec<String> {
    RunContext::new(1)
        .run_checked(jobs)
        .into_iter()
        .map(|r| bytes(&r.expect("fault-free jobs succeed")))
        .collect()
}

/// Which jobs `ctx`'s plan faults on every attempt, i.e. quarantines.
fn predicted(ctx: &RunContext, jobs: &[Scenario]) -> Vec<bool> {
    jobs.iter()
        .map(|j| {
            ctx.faults
                .faults_every_attempt(FaultSite::JobPanic, &job_key(j), ctx.attempts)
        })
        .collect()
}

/// Run `jobs` under `ctx` and check the plan's own prediction: exactly the
/// predicted jobs are quarantined, with structured injected errors after the
/// full attempt budget, and every other job's bytes equal `clean`.
fn assert_predicted_quarantine(ctx: &RunContext, jobs: &[Scenario], clean: &[String]) {
    let faulted = ctx.run_checked(jobs);
    for ((r, fail), expect) in faulted.into_iter().zip(predicted(ctx, jobs)).zip(clean) {
        match r {
            Ok(result) => {
                assert!(!fail, "plan predicted quarantine but the job succeeded");
                assert_eq!(&bytes(&result), expect);
            }
            Err(e) => {
                assert!(fail, "plan predicted success but got: {e}");
                assert!(e.is_injected(), "unexpected real failure: {e}");
                assert!(
                    matches!(e, JobError::Panicked { attempts, .. } if attempts == ctx.attempts),
                    "quarantine must record the full attempt budget"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Transient faults — panics bounded below the retry budget plus worker
    /// stalls — are fully absorbed: no quarantine, bytes identical.
    #[test]
    fn transient_faults_recover_byte_identically(plan_seed in 0u64..10_000, case in 0u64..50) {
        quiet_injected_panics();
        let jobs = grid(case);
        let clean = baseline(&jobs);
        let mut ctx = RunContext::new(3);
        ctx.faults = FaultPlan::builder(plan_seed)
            .site(FaultSite::JobPanic, 1.0, Some(ctx.attempts - 1))
            .site(FaultSite::WorkerStall, 0.5, None)
            .stall_millis(1)
            .build();
        let faulted = ctx.run_checked(&jobs);
        for (r, expect) in faulted.into_iter().zip(&clean) {
            let r = r.expect("transient faults must be retried through");
            prop_assert_eq!(&bytes(&r), expect);
        }
    }

    /// Permanent faults (unbounded random panic rate) quarantine exactly the
    /// jobs the plan predicts; every surviving job is byte-identical.
    #[test]
    fn permanent_faults_quarantine_exactly_the_predicted_jobs(
        plan_seed in 0u64..10_000,
        rate in 0.2f64..0.9,
        case in 0u64..50,
    ) {
        quiet_injected_panics();
        let jobs = grid(case);
        let plan = FaultPlan::builder(plan_seed)
            .site(FaultSite::JobPanic, rate, None)
            .build();
        assert_predicted_quarantine(&context(3, plan), &jobs, &baseline(&jobs));
    }

    /// Cache read/write faults never fail a job: lookups degrade to misses,
    /// stores degrade to compute-only, and the results stay byte-identical
    /// to an uncached fault-free run.
    #[test]
    fn cache_faults_degrade_without_changing_results(plan_seed in 0u64..10_000) {
        quiet_injected_panics();
        let jobs = grid(plan_seed % 7);
        let clean = baseline(&jobs);
        let dir = std::env::temp_dir().join(format!(
            "wlan_chaos_cache_{}_{plan_seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::builder(plan_seed)
            .site(FaultSite::CacheRead, 0.5, None)
            .site(FaultSite::CacheWrite, 0.5, None)
            .build();
        let mut ctx = context(2, plan);
        ctx.cache = Some(ResultCache::open(&dir).expect("open temp cache"));
        // Two passes: the second mixes hits (stores that survived) with
        // recomputes (reads that fault); bytes must never change.
        for _ in 0..2 {
            let results = ctx.run_checked(&jobs);
            for (r, expect) in results.into_iter().zip(&clean) {
                let r = r.expect("cache faults must never quarantine a job");
                prop_assert_eq!(&bytes(&r), expect);
            }
        }
        // Fault-free warm pass over whatever the cache retained: still identical.
        ctx.faults = FaultPlan::default();
        let warm = ctx.run_checked(&jobs);
        for (r, expect) in warm.into_iter().zip(&clean) {
            prop_assert_eq!(&bytes(&r.expect("warm pass succeeds")), expect);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Contexts running at the same time never see each other's faults: the
/// grid runs on three threads at once, each under its own context — two
/// permanent `job_panic` plans with different seeds and one fault-free
/// context. Each faulted context quarantines exactly what its own plan
/// predicts, and the fault-free one returns the fault-free bytes.
#[test]
fn concurrent_contexts_stay_isolated() {
    quiet_injected_panics();
    let jobs = grid(3);
    let clean = baseline(&jobs);
    let plan = |seed| {
        FaultPlan::builder(seed)
            .site(FaultSite::JobPanic, 0.8, None)
            .build()
    };
    let contexts = [context(2, plan(1)), context(2, plan(2)), RunContext::new(2)];
    assert_ne!(
        predicted(&contexts[0], &jobs),
        predicted(&contexts[1], &jobs),
        "the two plans must quarantine different jobs"
    );
    // The barrier starts the three runs together, so their pools overlap.
    let start = std::sync::Barrier::new(contexts.len());
    std::thread::scope(|scope| {
        for ctx in &contexts {
            scope.spawn(|| {
                start.wait();
                assert_predicted_quarantine(ctx, &jobs, &clean);
            });
        }
    });
}
