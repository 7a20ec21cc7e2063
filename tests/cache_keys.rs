//! Cache-key sensitivity: the content-addressed result cache is only sound
//! if the job key moves whenever **any** input that can influence a result
//! moves — every `Scenario` field, the seed, and the engine fingerprint —
//! and stays put under everything that cannot (builder call order, thread
//! counts). A missed dimension here silently serves one configuration's
//! results for another, which is the worst failure mode a cache can have.

use wlan_sa::core::cache::job_key_with_fingerprint;
use wlan_sa::core::{job_key, Protocol, ResultCache, RunContext, Scenario, TopologySpec};
use wlan_sa::sim::{CaptureModel, SimDuration, TrafficSpec};

fn base() -> Scenario {
    Scenario::new(Protocol::WTopCsma, TopologySpec::FullyConnected, 8)
        .durations(SimDuration::from_millis(100), SimDuration::from_millis(400))
        .update_period(SimDuration::from_millis(50))
        .seed(42)
}

/// Every scenario field participates in the key: flipping any single field
/// (and nothing else) must change it, and all the mutated keys must be
/// mutually distinct.
#[test]
fn every_scenario_field_changes_the_key() {
    let reference = job_key(&base());
    let mutations: Vec<(&str, Scenario)> = vec![
        ("protocol", {
            let mut s = base();
            s.protocol = Protocol::ToraCsma;
            s
        }),
        ("protocol parameter", {
            let mut s = base();
            s.protocol = Protocol::StaticPPersistent { p: 0.02 };
            let mut t = base();
            t.protocol = Protocol::StaticPPersistent { p: 0.03 };
            assert_ne!(job_key(&s), job_key(&t), "p is inside the key");
            s
        }),
        ("topology", {
            let mut s = base();
            s.topology = TopologySpec::UniformDisc { radius: 16.0 };
            s
        }),
        ("n", {
            let mut s = base();
            s.n = 9;
            s
        }),
        ("weights", base().weights(vec![1.0; 8])),
        ("seed", base().seed(43)),
        (
            "warmup",
            base().durations(SimDuration::from_millis(101), SimDuration::from_millis(400)),
        ),
        (
            "measure",
            base().durations(SimDuration::from_millis(100), SimDuration::from_millis(401)),
        ),
        (
            "update_period",
            base().update_period(SimDuration::from_millis(51)),
        ),
        ("phy", {
            let mut s = base();
            s.phy.payload_bits += 8;
            s
        }),
        ("throughput_bin", {
            let mut s = base();
            s.throughput_bin += SimDuration::from_micros(1);
            s
        }),
        // The default is the indoor capture model, so the mutation disables it;
        // a parameter tweak inside the model must also move the key.
        ("capture", base().capture(None)),
        ("capture parameter", {
            let mut model = CaptureModel::default_indoor();
            model.sir_threshold += 1.0;
            base().capture(Some(model))
        }),
        (
            "traffic",
            base().traffic(TrafficSpec::poisson(100.0).with_queue_frames(32)),
        ),
    ];
    let mut keys = vec![("reference", reference)];
    for (field, scenario) in &mutations {
        let key = job_key(scenario);
        assert_ne!(
            key, keys[0].1,
            "mutating `{field}` did not change the cache key — the cache would serve stale results"
        );
        keys.push((field, key));
    }
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(
                keys[i].1, keys[j].1,
                "`{}` and `{}` collide on the same key",
                keys[i].0, keys[j].0
            );
        }
    }
}

/// The key is a function of the scenario's content, not of how the scenario
/// was built or which fingerprint-irrelevant environment it runs in.
#[test]
fn key_is_stable_across_builder_order_and_reruns() {
    let a = Scenario::new(Protocol::IdleSense, TopologySpec::Ring { radius: 8.0 }, 6)
        .seed(7)
        .durations(SimDuration::from_millis(50), SimDuration::from_millis(200))
        .update_period(SimDuration::from_millis(25));
    let b = Scenario::new(Protocol::IdleSense, TopologySpec::Ring { radius: 8.0 }, 6)
        .update_period(SimDuration::from_millis(25))
        .durations(SimDuration::from_millis(50), SimDuration::from_millis(200))
        .seed(7);
    assert_eq!(job_key(&a), job_key(&b));
    assert_eq!(job_key(&a), job_key(&a.clone()));
}

/// Bumping the engine fingerprint (the mandated step for any PR that changes
/// simulation behaviour) invalidates every key.
#[test]
fn engine_fingerprint_changes_the_key() {
    let s = base();
    let current = job_key_with_fingerprint(&s, wlan_sa::core::ENGINE_FINGERPRINT);
    assert_eq!(current, job_key(&s), "job_key uses the current fingerprint");
    assert_ne!(current, job_key_with_fingerprint(&s, "wlan-engine/next"));
}

/// A truncated (crash mid-write without the atomic rename) or hand-corrupted
/// entry must be detected, treated as a miss, recomputed and healed — never
/// deserialised into a wrong result.
#[test]
fn corrupted_and_truncated_entries_are_recomputed() {
    let dir = std::env::temp_dir().join(format!("wlan_cache_keys_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = [
        Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, 4)
            .durations(SimDuration::from_millis(20), SimDuration::from_millis(80))
            .seed(3),
    ];
    let key = job_key(&jobs[0]);

    let mut ctx = RunContext::new(1);
    ctx.cache = Some(ResultCache::open(&dir).expect("open cache"));
    let stats = || ctx.cache.as_ref().expect("cache").stats();
    let cold = ctx.run(&jobs);
    let reference = serde_json::to_string(&cold).unwrap();
    assert_eq!(stats().misses, 1);

    let entry = dir.join(format!("{key}.json"));
    for corruption in ["", "{\"key\": tru", "{}"] {
        std::fs::write(&entry, corruption).unwrap();
        let healed = ctx.run(&jobs);
        assert_eq!(
            serde_json::to_string(&healed).unwrap(),
            reference,
            "corrupt entry {corruption:?} was not recomputed to the reference result"
        );
    }
    // After the last heal the entry verifies again: a further pass is a hit.
    let before = stats().hits;
    ctx.run(&jobs);
    assert_eq!(stats().hits, before + 1);
    let _ = std::fs::remove_dir_all(&dir);
}
