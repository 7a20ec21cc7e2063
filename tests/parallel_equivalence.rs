//! Parallel-vs-serial equivalence: the campaign runner's contract is that the
//! worker-thread count influences only wall-clock time, never results. These
//! tests run the same campaign on 1 thread and on N threads and require the
//! serialised output to be **byte-identical**, which is the same property the
//! `repro_all` acceptance check (`WLAN_THREADS=1` vs `WLAN_THREADS=8`) relies
//! on, scaled down to test size.

use wlan_sa::core::{
    Campaign, Protocol, ResultCache, RunContext, Scenario, ScenarioResult, TopologySpec,
};
use wlan_sa::sim::SimDuration;

fn campaign() -> Campaign {
    Campaign::new()
        .protocols(&[
            Protocol::Standard80211,
            Protocol::WTopCsma,
            Protocol::StaticPPersistent { p: 0.02 },
        ])
        .topology("ring", TopologySpec::Ring { radius: 8.0 })
        .topology("disc 16 m", TopologySpec::UniformDisc { radius: 16.0 })
        .node_counts(&[4, 8])
        .seeds(&[1, 2, 3])
        .warmups(SimDuration::from_millis(200), SimDuration::from_millis(100))
        .measure(SimDuration::from_millis(300))
        .update_period(SimDuration::from_millis(50))
}

/// The full per-seed result set — every metric, series and trace — must agree
/// byte-for-byte between a 1-thread and an 8-thread run of the same campaign.
#[test]
fn campaign_results_are_identical_across_thread_counts() {
    let serial = campaign().run(&RunContext::new(1));
    let parallel = campaign().run(&RunContext::new(8));
    assert_eq!(serial.cells.len(), 12, "3 protocols × 2 topologies × 2 N");
    let raw_serial: Vec<&ScenarioResult> =
        serial.cells.iter().flat_map(|c| c.results.iter()).collect();
    let raw_parallel: Vec<&ScenarioResult> = parallel
        .cells
        .iter()
        .flat_map(|c| c.results.iter())
        .collect();
    let a = serde_json::to_string(&raw_serial).expect("serialise serial");
    let b = serde_json::to_string(&raw_parallel).expect("serialise parallel");
    assert_eq!(
        a, b,
        "campaign results changed with the thread count — determinism contract broken"
    );
}

/// The aggregated report (mean/stddev/CI per cell) must also be byte-identical.
#[test]
fn campaign_reports_are_identical_across_thread_counts() {
    let a = serde_json::to_string(&campaign().run(&RunContext::new(1)).report()).unwrap();
    let b = serde_json::to_string(&campaign().run(&RunContext::new(8)).report()).unwrap();
    assert_eq!(a, b);
}

/// Warm-cache equivalence, the property the incremental `repro_all` rerun
/// relies on: running the same job list through the content-addressed cache a
/// second time must execute **zero** engine jobs (every lookup hits) and
/// serialise byte-identically to the cold pass — even when the warm pass uses
/// a different thread count, since nothing about the execution environment
/// enters the cache key.
#[test]
fn warm_cache_second_pass_runs_zero_engine_jobs() {
    let dir = std::env::temp_dir().join(format!("wlan_warm_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = campaign().jobs();
    assert!(!jobs.is_empty());

    let mut ctx = RunContext::new(1);
    ctx.cache = Some(ResultCache::open(&dir).expect("open cache"));
    let stats = |ctx: &RunContext| ctx.cache.as_ref().expect("cache").stats();
    let cold = ctx.run(&jobs);
    assert_eq!(
        stats(&ctx).misses,
        jobs.len() as u64,
        "the cold pass computes every job"
    );
    assert_eq!(stats(&ctx).hits, 0);

    ctx.threads = 8;
    let warm = ctx.run(&jobs);
    assert_eq!(
        stats(&ctx).hits,
        jobs.len() as u64,
        "the warm pass must be served entirely from the cache"
    );
    assert_eq!(
        stats(&ctx).misses,
        jobs.len() as u64,
        "the warm pass must not re-execute any engine job"
    );
    let a = serde_json::to_string(&cold).expect("serialise cold");
    let b = serde_json::to_string(&warm).expect("serialise warm");
    assert_eq!(
        a, b,
        "cached results are not byte-identical to computed ones"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One cell replicated over seeds must match the 1-thread reference for any
/// worker count.
#[test]
fn run_seeds_is_thread_count_invariant() {
    let base = Scenario::new(Protocol::ToraCsma, TopologySpec::FullyConnected, 6)
        .durations(SimDuration::from_millis(200), SimDuration::from_millis(300))
        .update_period(SimDuration::from_millis(50));
    let jobs: Vec<Scenario> = (1..=6).map(|seed| base.clone().seed(seed)).collect();
    let reference = RunContext::new(1).run(&jobs);
    for threads in [2, 3, 8] {
        let parallel = RunContext::new(threads).run(&jobs);
        let a = serde_json::to_string(&reference).unwrap();
        let b = serde_json::to_string(&parallel).unwrap();
        assert_eq!(a, b, "{threads} threads diverged from the serial reference");
    }
}
