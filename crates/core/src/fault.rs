//! Deterministic fault injection for the campaign service path.
//!
//! A [`FaultPlan`] decides — as a **pure function** of `(plan seed, site,
//! scope, attempt)` — whether a named fault site trips. The decision reuses
//! the engine's RNG stream machinery (a dedicated ChaCha8 stream per
//! `(site, scope)` pair, the attempt index selecting the draw, exactly like
//! `wlan_des::StreamMaster` identifies streams by derivation order), so an
//! injected fault schedule is perfectly reproducible: it does not depend on
//! thread scheduling, wall-clock time or how many other sites tripped, and
//! it never perturbs any simulation RNG stream, because the plan owns its
//! own derivation root.
//!
//! That purity is what makes chaos testing assert *byte-identical* recovery:
//! the same seed produces the same faults, the supervised pool retries
//! through the transient ones, and the surviving results must equal the
//! fault-free run bit for bit (see `tests/chaos_fault_injection.rs`).
//!
//! ## Sites
//!
//! | site | scope | effect when tripped |
//! |---|---|---|
//! | `cache_read` | cache key | [`crate::RunContext::lookup`] misses |
//! | `cache_write` | cache key | [`crate::RunContext::store`] fails and degrades the cache |
//! | `checkpoint_write` | job key | `campaign_server` snapshot write fails |
//! | `job_panic` | job key | the job panics before running the engine |
//! | `worker_stall` | job key | the claiming worker sleeps for [`FaultPlan::stall`] |
//!
//! ## Activation
//!
//! A plan is a plain value on the caller's [`crate::RunContext`]; nothing in
//! this module is process-wide. The empty plan ([`FaultPlan::default`])
//! injects nothing, and its check at every site is one array lookup. The
//! binaries parse a plan from the `WLAN_FAULT_PLAN` environment variable;
//! tests build one with [`FaultPlan::builder`] and give it to their own
//! context, so concurrently running tests never see each other's faults.
//!
//! ## `WLAN_FAULT_PLAN` grammar
//!
//! Semicolon-separated clauses: `seed=<u64>`, `stall_ms=<u64>`, and per-site
//! `<site>=<rate>[x<max_trips>]`:
//!
//! ```text
//! WLAN_FAULT_PLAN="seed=7;job_panic=1x2;cache_write=0.5;stall_ms=20;worker_stall=0.3x1"
//! ```
//!
//! `rate` is the per-attempt trip probability in `[0, 1]`; `x<max_trips>`
//! bounds how many attempts may trip per scope (a **transient** fault —
//! retries get through), while an unbounded site with rate 1 trips every
//! attempt forever (a **permanent** fault — the job is quarantined).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// A named point in the campaign stack where a [`FaultPlan`] may inject a
/// failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Reading a result-cache entry (`trip` ⇒ the lookup misses).
    CacheRead,
    /// Writing a result-cache entry (`trip` ⇒ the store fails with an I/O error).
    CacheWrite,
    /// Writing an engine checkpoint snapshot (`trip` ⇒ the write fails).
    CheckpointWrite,
    /// Executing a campaign job (`trip` ⇒ the job panics before running).
    JobPanic,
    /// Claiming a campaign job (`trip` ⇒ the worker sleeps for the plan's
    /// stall duration before running it).
    WorkerStall,
}

impl FaultSite {
    /// All sites, in declaration order.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::CacheRead,
        FaultSite::CacheWrite,
        FaultSite::CheckpointWrite,
        FaultSite::JobPanic,
        FaultSite::WorkerStall,
    ];

    /// The site's name in the `WLAN_FAULT_PLAN` grammar.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CacheRead => "cache_read",
            FaultSite::CacheWrite => "cache_write",
            FaultSite::CheckpointWrite => "checkpoint_write",
            FaultSite::JobPanic => "job_panic",
            FaultSite::WorkerStall => "worker_stall",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::CacheRead => 0,
            FaultSite::CacheWrite => 1,
            FaultSite::CheckpointWrite => 2,
            FaultSite::JobPanic => 3,
            FaultSite::WorkerStall => 4,
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Per-site fault configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    /// Per-attempt trip probability in `[0, 1]` (1 ⇒ every attempt trips).
    pub rate: f64,
    /// Upper bound on how many attempts may trip per scope; `None` means
    /// unbounded (with rate 1, a permanent fault).
    pub max_trips: Option<u32>,
}

/// A deterministic, seeded schedule of injected faults.
///
/// See the [module docs](self) for semantics. Plans are cheap to clone and
/// compare; the trip decision is a pure function, so two equal plans always
/// inject the same faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    stall: Duration,
    sites: [Option<SiteSpec>; 5],
}

impl FaultPlan {
    /// Start building a plan rooted at `seed` (same seed ⇒ same faults).
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan {
                seed,
                stall: Duration::from_millis(20),
                sites: [None; 5],
            },
        }
    }

    /// Parse the `WLAN_FAULT_PLAN` grammar (see the [module docs](self)).
    pub fn from_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut builder = FaultPlan::builder(0);
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault-plan clause `{clause}` is missing `=`"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    builder.plan.seed = value
                        .parse::<u64>()
                        .map_err(|_| format!("bad fault-plan seed `{value}`"))?;
                }
                "stall_ms" => {
                    let ms = value
                        .parse::<u64>()
                        .map_err(|_| format!("bad stall_ms `{value}`"))?;
                    builder = builder.stall_millis(ms);
                }
                site => {
                    let site = FaultSite::from_name(site)
                        .ok_or_else(|| format!("unknown fault site `{site}`"))?;
                    let (rate, max) = match value.split_once('x') {
                        Some((r, m)) => (
                            r,
                            Some(m.parse::<u32>().map_err(|_| {
                                format!("bad max_trips `{m}` for site {}", site.name())
                            })?),
                        ),
                        None => (value, None),
                    };
                    let rate = rate
                        .parse::<f64>()
                        .map_err(|_| format!("bad rate `{rate}` for site {}", site.name()))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!(
                            "rate {rate} for site {} is outside [0, 1]",
                            site.name()
                        ));
                    }
                    builder = builder.site(site, rate, max);
                }
            }
        }
        Ok(builder.build())
    }

    /// The seed the plan's fault streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// How long a tripped [`FaultSite::WorkerStall`] sleeps.
    pub fn stall(&self) -> Duration {
        self.stall
    }

    /// The configuration of `site`, if it is enabled in this plan.
    pub fn site(&self, site: FaultSite) -> Option<SiteSpec> {
        self.sites[site.index()]
    }

    /// Whether no site is enabled at all.
    pub fn is_empty(&self) -> bool {
        self.sites.iter().all(Option::is_none)
    }

    /// Decide whether `site` trips on the `attempt`-th try within `scope`
    /// (e.g. a job's cache key). Pure: the answer depends only on the plan
    /// and the arguments, never on call order or threads.
    pub fn should_fault(&self, site: FaultSite, scope: &str, attempt: u32) -> bool {
        let Some(spec) = self.sites[site.index()] else {
            return false;
        };
        if let Some(max) = spec.max_trips {
            if attempt >= max {
                return false;
            }
        }
        if spec.rate >= 1.0 {
            return true;
        }
        if spec.rate <= 0.0 {
            return false;
        }
        // One dedicated stream per (site, scope), the attempt index selecting
        // the draw — the StreamMaster rule (streams identified by derivation
        // order) applied to a random-access key space via an FNV-1a mix.
        let mut rng = ChaCha8Rng::seed_from_u64(self.scope_seed(site, scope));
        let mut draw = 0.0f64;
        for _ in 0..=attempt {
            draw = rng.gen::<f64>();
        }
        draw < spec.rate
    }

    /// Whether the site trips on **every** attempt up to `attempts` within
    /// `scope` — i.e. whether a job supervised with that many attempts is
    /// permanently faulted. This is what the chaos tests use to predict the
    /// exact quarantine set.
    pub fn faults_every_attempt(&self, site: FaultSite, scope: &str, attempts: u32) -> bool {
        (0..attempts).all(|a| self.should_fault(site, scope, a))
    }

    fn scope_seed(&self, site: FaultSite, scope: &str) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
        };
        eat(&self.seed.to_le_bytes());
        eat(site.name().as_bytes());
        eat(&[0]); // domain separator: site | scope
        eat(scope.as_bytes());
        h
    }
}

/// The empty plan: no site is enabled, so nothing ever trips.
impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::builder(0).build()
    }
}

/// Fluent builder for a [`FaultPlan`], the programmatic twin of the
/// `WLAN_FAULT_PLAN` grammar.
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Enable `site` with a per-attempt trip probability and an optional
    /// per-scope trip bound (see [`SiteSpec`]).
    pub fn site(mut self, site: FaultSite, rate: f64, max_trips: Option<u32>) -> Self {
        self.plan.sites[site.index()] = Some(SiteSpec {
            rate: rate.clamp(0.0, 1.0),
            max_trips,
        });
        self
    }

    /// Set the [`FaultSite::WorkerStall`] sleep duration (default 20 ms).
    pub fn stall_millis(mut self, ms: u64) -> Self {
        self.plan.stall = Duration::from_millis(ms);
        self
    }

    /// Finish the plan.
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_scope_separated() {
        let plan = FaultPlan::builder(7)
            .site(FaultSite::JobPanic, 0.5, None)
            .build();
        let a: Vec<bool> = (0..32)
            .map(|i| plan.should_fault(FaultSite::JobPanic, &format!("job{i}"), 0))
            .collect();
        let b: Vec<bool> = (0..32)
            .map(|i| plan.should_fault(FaultSite::JobPanic, &format!("job{i}"), 0))
            .collect();
        assert_eq!(a, b, "same plan, same answers");
        assert!(
            a.iter().any(|&x| x) && a.iter().any(|&x| !x),
            "rate 0.5 mixes"
        );
        // A different seed reshuffles the decisions.
        let other = FaultPlan::builder(8)
            .site(FaultSite::JobPanic, 0.5, None)
            .build();
        let c: Vec<bool> = (0..32)
            .map(|i| other.should_fault(FaultSite::JobPanic, &format!("job{i}"), 0))
            .collect();
        assert_ne!(a, c, "different seeds must differ somewhere");
    }

    #[test]
    fn max_trips_bounds_the_attempts_that_fault() {
        let plan = FaultPlan::builder(1)
            .site(FaultSite::JobPanic, 1.0, Some(2))
            .build();
        assert!(plan.should_fault(FaultSite::JobPanic, "k", 0));
        assert!(plan.should_fault(FaultSite::JobPanic, "k", 1));
        assert!(!plan.should_fault(FaultSite::JobPanic, "k", 2));
        assert!(!plan.faults_every_attempt(FaultSite::JobPanic, "k", 3));
        let permanent = FaultPlan::builder(1)
            .site(FaultSite::JobPanic, 1.0, None)
            .build();
        assert!(permanent.faults_every_attempt(FaultSite::JobPanic, "k", 10));
    }

    #[test]
    fn disabled_sites_and_zero_rates_never_trip() {
        let plan = FaultPlan::builder(3)
            .site(FaultSite::CacheWrite, 0.0, None)
            .build();
        for site in FaultSite::ALL {
            for attempt in 0..4 {
                assert!(!plan.should_fault(site, "scope", attempt));
            }
        }
        assert!(!plan.is_empty(), "a zero-rate site is still configured");
        assert!(FaultPlan::builder(3).build().is_empty());
    }

    #[test]
    fn spec_grammar_round_trips() {
        let plan =
            FaultPlan::from_spec("seed=9; job_panic=1x2; cache_write=0.25; stall_ms=5").unwrap();
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.stall(), Duration::from_millis(5));
        assert_eq!(
            plan.site(FaultSite::JobPanic),
            Some(SiteSpec {
                rate: 1.0,
                max_trips: Some(2)
            })
        );
        assert_eq!(
            plan.site(FaultSite::CacheWrite),
            Some(SiteSpec {
                rate: 0.25,
                max_trips: None
            })
        );
        assert_eq!(plan.site(FaultSite::CacheRead), None);
        assert!(FaultPlan::from_spec("").unwrap().is_empty());
    }

    #[test]
    fn spec_grammar_rejects_nonsense() {
        assert!(FaultPlan::from_spec("job_panic").is_err(), "missing =");
        assert!(FaultPlan::from_spec("teleport=1").is_err(), "unknown site");
        assert!(FaultPlan::from_spec("job_panic=2.0").is_err(), "rate > 1");
        assert!(FaultPlan::from_spec("job_panic=1xtwo").is_err());
        assert!(FaultPlan::from_spec("seed=minus").is_err());
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::from_name(site.name()), Some(site));
        }
        assert_eq!(FaultSite::from_name("nope"), None);
    }
}
