//! Cache degradation: a broken result cache must never abort a campaign or
//! change a single byte of its output — it degrades to compute-only with a
//! single warning (the first failed store; later failures are counted
//! silently via [`ResultCache::store_failures`]).

use std::path::PathBuf;
use wlan_sa::core::{
    FaultPlan, FaultSite, Protocol, ResultCache, RunContext, Scenario, ScenarioResult, TopologySpec,
};
use wlan_sa::sim::SimDuration;

fn jobs() -> Vec<Scenario> {
    (1..=3u64)
        .map(|seed| {
            Scenario::new(
                Protocol::StaticPPersistent { p: 0.04 },
                TopologySpec::FullyConnected,
                5,
            )
            .durations(SimDuration::from_millis(50), SimDuration::from_millis(200))
            .seed(seed)
        })
        .collect()
}

fn bytes(results: &[ScenarioResult]) -> String {
    serde_json::to_string(&results.to_vec()).expect("serialise results")
}

/// [`jobs`] run under `ctx`; every job must succeed whatever the cache does.
fn run(ctx: &RunContext) -> Vec<ScenarioResult> {
    ctx.run_checked(&jobs())
        .into_iter()
        .map(|r| r.expect("cache degradation must never fail a job"))
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wlan_degradation_{tag}_{}", std::process::id()))
}

/// A two-worker context of its own with a fresh cache under `temp_dir(tag)`.
fn cached(tag: &str) -> (RunContext, PathBuf) {
    let dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let mut ctx = RunContext::new(2);
    ctx.cache = Some(ResultCache::open(&dir).expect("open temp cache"));
    (ctx, dir)
}

fn cache(ctx: &RunContext) -> &ResultCache {
    ctx.cache.as_ref().expect("the context has a cache")
}

/// A cache directory that vanishes mid-campaign (the closest a root-run test
/// gets to a read-only directory — permission bits don't bind root): every
/// store fails, the campaign degrades to compute-only, bytes unchanged.
#[test]
fn vanished_cache_dir_degrades_to_compute_only() {
    let reference = run(&RunContext::new(1));
    let (ctx, dir) = cached("vanished");
    std::fs::remove_dir_all(&dir).expect("pull the directory out from under the cache");

    let results = run(&ctx);
    assert_eq!(
        bytes(&results),
        bytes(&reference),
        "results must not change"
    );
    assert!(
        cache(&ctx).degraded(),
        "failed stores must flip degraded mode"
    );
    assert_eq!(
        cache(&ctx).store_failures(),
        3,
        "every store failed (one warning, the rest counted silently)"
    );
    // The degraded cache keeps working compute-only on a second pass.
    let again = run(&ctx);
    assert_eq!(bytes(&again), bytes(&reference));
    assert_eq!(cache(&ctx).store_failures(), 6);
}

/// An unopenable cache path (a regular file where the directory should be —
/// `create_dir_all` fails even for root) is an error at `open`, which
/// callers turn into uncached execution.
#[test]
fn cache_open_on_file_path_fails_cleanly() {
    let path = temp_dir("filepath");
    let _ = std::fs::remove_dir_all(&path);
    std::fs::write(&path, "not a directory").expect("create blocking file");
    assert!(ResultCache::open(&path).is_err());
    let _ = std::fs::remove_file(&path);
}

/// An injected permanent write fault behaves exactly like the unwritable
/// directory: compute-only, single-warning degradation, identical bytes —
/// and clearing the fault on the context heals the cache in place.
#[test]
fn injected_write_fault_degrades_then_heals() {
    let reference = run(&RunContext::new(1));
    let (mut ctx, dir) = cached("writefault");
    ctx.faults = FaultPlan::builder(21)
        .site(FaultSite::CacheWrite, 1.0, None)
        .build();
    let results = run(&ctx);
    assert_eq!(bytes(&results), bytes(&reference));
    assert!(cache(&ctx).degraded());
    assert_eq!(cache(&ctx).store_failures(), 3);
    assert_eq!(cache(&ctx).stats().hits, 0, "nothing was ever stored");
    // Fault cleared: stores land again and the next pass is served from disk.
    ctx.faults = FaultPlan::default();
    let healed = run(&ctx);
    assert_eq!(bytes(&healed), bytes(&reference));
    let warm = run(&ctx);
    assert_eq!(bytes(&warm), bytes(&reference));
    assert_eq!(cache(&ctx).stats().hits, 3, "healed cache serves from disk");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected permanent read fault turns every lookup into a miss: jobs
/// recompute (bytes identical), the entries stay intact, and clearing the
/// fault restores hits.
#[test]
fn injected_read_fault_forces_recompute_not_corruption() {
    let reference = run(&RunContext::new(1));
    let (mut ctx, dir) = cached("readfault");
    let cold = run(&ctx);
    assert_eq!(bytes(&cold), bytes(&reference));
    ctx.faults = FaultPlan::builder(22)
        .site(FaultSite::CacheRead, 1.0, None)
        .build();
    let blinded = run(&ctx);
    assert_eq!(bytes(&blinded), bytes(&reference));
    assert_eq!(cache(&ctx).stats().hits, 0, "a read fault can never hit");
    ctx.faults = FaultPlan::default();
    let warm = run(&ctx);
    assert_eq!(bytes(&warm), bytes(&reference));
    assert_eq!(
        cache(&ctx).stats().hits,
        3,
        "entries survived the read faults"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
