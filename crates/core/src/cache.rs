//! Content-addressed on-disk result cache for campaign jobs.
//!
//! A campaign job is fully determined by its [`Scenario`] (which includes the
//! seed) and the engine's code version: the engine is deterministic, so the
//! same `(scenario, seed, engine)` triple always produces the bit-identical
//! [`ScenarioResult`]. This module exploits that to make `repro_all` reruns
//! incremental — every job is keyed by a stable content hash and its result
//! stored as one JSON file under the cache directory, so a rerun recomputes
//! only the jobs whose inputs actually changed.
//!
//! ## Keying
//!
//! The key is a 128-bit FNV-1a hash over
//!
//! * [`ENGINE_FINGERPRINT`] — a manually bumped engine-version string; bump
//!   it in **every PR that changes simulation behaviour** (event order, RNG
//!   consumption, statistics) so stale results can never be served, and
//! * a **canonical encoding** of the scenario's serde [`Value`] tree: map
//!   keys sorted (hash stable under field reordering), floats encoded by
//!   their exact IEEE-754 bit pattern (no formatting round-trip), strings
//!   length-prefixed (no escaping ambiguity).
//!
//! Nothing about the execution environment (thread count, output paths)
//! enters the key — results are bit-identical for every `WLAN_THREADS`.
//!
//! ## Integrity
//!
//! Each entry file records the key, the fingerprint it was computed under and
//! a checksum of the canonical encoding of the result payload. A lookup
//! verifies all three; a corrupted, truncated or fingerprint-stale entry is
//! treated as a miss and silently recomputed (the store overwrites it).
//! Writes go through a temp file + atomic rename, so a crashed or concurrent
//! writer can never leave a half-written entry behind under the final name.
//!
//! ## Wiring
//!
//! A cache is a plain handle; nothing in this module is process-wide. A
//! [`crate::RunContext`] whose `cache` field holds one serves its jobs'
//! hits from disk and stores the misses it computes; a context without one
//! (the default) caches nothing. The binaries open the handle from
//! `WLAN_CACHE_DIR` or their output directory.
//!
//! ## Degradation
//!
//! The cache is an accelerator, never a dependency: any failed read is a
//! miss (the job recomputes), and the first failed store flips the handle
//! into *degraded* mode — one warning on stderr, then compute-only
//! operation from the caller's side. The deterministic fault injector
//! ([`crate::fault`]) trips the `cache_read` / `cache_write` sites in front
//! of [`crate::RunContext::lookup`] / [`crate::RunContext::store`] to
//! exercise exactly these paths.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::scenario::{Scenario, ScenarioResult};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Engine code-version fingerprint folded into every cache key.
///
/// Bump the trailing counter whenever a change alters what any scenario
/// computes (event ordering, RNG stream consumption, statistics definitions,
/// result serialisation). Purely additive changes (new binaries, docs,
/// faster-but-identical code) keep the fingerprint, preserving the cache.
pub const ENGINE_FINGERPRINT: &str = "wlan-engine/2";

/// Hit/miss counters of a [`ResultCache`], serialisable for run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups served from disk.
    pub hits: u64,
    /// Lookups that fell through to the engine (including corrupt entries).
    pub misses: u64,
}

/// A content-addressed on-disk cache of [`ScenarioResult`]s.
///
/// Thread-safe: lookups and stores only touch the filesystem and two atomic
/// counters, so one cache can serve every worker of a campaign pool.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    store_failures: AtomicU64,
}

impl ResultCache {
    /// Open (creating if necessary) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
        })
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Hit/miss counters accumulated by this handle since it was opened.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Fetch the cached result for `key`, verifying the entry's key echo,
    /// engine fingerprint and payload checksum. Any mismatch — including a
    /// truncated or hand-edited file — counts as a miss and leaves the entry
    /// to be overwritten by the recompute's [`store`](Self::store).
    pub fn lookup(&self, key: &str) -> Option<ScenarioResult> {
        let result = self.read_verified(key);
        let counter = if result.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Count a lookup that failed before reaching the disk (an injected
    /// `cache_read` fault): a miss like any other.
    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn read_verified(&self, key: &str) -> Option<ScenarioResult> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let value: Value = serde_json::from_str(&text).ok()?;
        let Value::Map(entries) = &value else {
            return None;
        };
        let fingerprint = serde::map_get(entries, "fingerprint").ok()?;
        if *fingerprint != Value::Str(ENGINE_FINGERPRINT.to_string()) {
            return None;
        }
        let stored_key = serde::map_get(entries, "key").ok()?;
        if *stored_key != Value::Str(key.to_string()) {
            return None;
        }
        let checksum = serde::map_get(entries, "checksum").ok()?;
        let result = serde::map_get(entries, "result").ok()?;
        if *checksum != Value::Str(payload_checksum(result)) {
            return None;
        }
        ScenarioResult::from_value(result).ok()
    }

    /// Store `result` under `key` (atomic temp-file + rename; an existing
    /// entry — e.g. a corrupt one that just missed — is replaced).
    pub fn store(&self, key: &str, result: &ScenarioResult) -> std::io::Result<()> {
        let result_value = result.to_value();
        let entry = Value::Map(vec![
            ("key".to_string(), Value::Str(key.to_string())),
            (
                "fingerprint".to_string(),
                Value::Str(ENGINE_FINGERPRINT.to_string()),
            ),
            (
                "checksum".to_string(),
                Value::Str(payload_checksum(&result_value)),
            ),
            ("result".to_string(), result_value),
        ]);
        let text = serde_json::to_string(&entry)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let tmp = self.dir.join(format!("{key}.json.tmp"));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.entry_path(key))
    }

    /// Record a failed [`store`](Self::store): the first failure per handle
    /// logs one warning on stderr (read-only directory, disk full, injected
    /// `cache_write` fault — all look the same here); later failures are
    /// counted silently. [`crate::RunContext::store`] calls this instead of
    /// aborting, so a broken cache degrades to compute-only.
    pub(crate) fn note_degraded(&self, key: &str, err: &std::io::Error) {
        if self.store_failures.fetch_add(1, Ordering::Relaxed) == 0 {
            crate::metrics::warn(&format!(
                "result cache at {} is unwritable ({err}) — \
                 continuing compute-only (first failed key: {key})",
                self.dir.display()
            ));
        }
    }

    /// Whether any store through this handle has failed (degraded mode).
    pub fn degraded(&self) -> bool {
        self.store_failures.load(Ordering::Relaxed) > 0
    }

    /// Number of failed stores recorded on this handle.
    pub fn store_failures(&self) -> u64 {
        self.store_failures.load(Ordering::Relaxed)
    }
}

/// The cache key of one campaign job under the current [`ENGINE_FINGERPRINT`]:
/// 32 lowercase hex characters, stable across field ordering, float
/// formatting and thread counts.
pub fn job_key(scenario: &Scenario) -> String {
    job_key_with_fingerprint(scenario, ENGINE_FINGERPRINT)
}

/// [`job_key`] under an explicit engine fingerprint (exposed so tests can
/// prove that bumping the fingerprint invalidates every key).
pub fn job_key_with_fingerprint(scenario: &Scenario, fingerprint: &str) -> String {
    let mut enc = String::new();
    canonical(&scenario.to_value(), &mut enc);
    let mut h = fnv1a128(FNV_OFFSET, fingerprint.as_bytes());
    h = fnv1a128(h, &[0]); // domain separator: fingerprint | scenario
    h = fnv1a128(h, enc.as_bytes());
    format!("{h:032x}")
}

/// Checksum recorded next to (and verified against) a stored result payload.
fn payload_checksum(value: &Value) -> String {
    let mut enc = String::new();
    canonical(value, &mut enc);
    format!("{:032x}", fnv1a128(FNV_OFFSET, enc.as_bytes()))
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

fn fnv1a128(mut hash: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Canonical encoding of a [`Value`] tree: a total, unambiguous function of
/// the value's *content* — map keys sorted, floats by exact bit pattern,
/// strings length-prefixed — so equal content always hashes equal and
/// unequal content never collides by formatting.
fn canonical(value: &Value, out: &mut String) {
    use std::fmt::Write as _;
    match value {
        Value::Null => out.push('n'),
        Value::Bool(true) => out.push('t'),
        Value::Bool(false) => out.push('f'),
        Value::U64(v) => {
            let _ = write!(out, "u{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "i{v}");
        }
        Value::F64(v) => {
            let _ = write!(out, "d{:016x}", v.to_bits());
        }
        Value::Str(s) => {
            let _ = write!(out, "s{}:{s}", s.len());
        }
        Value::Seq(items) => {
            out.push('[');
            for item in items {
                canonical(item, out);
                out.push(';');
            }
            out.push(']');
        }
        Value::Map(entries) => {
            let mut sorted: Vec<&(String, Value)> = entries.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            out.push('{');
            for (k, v) in sorted {
                let _ = write!(out, "s{}:{k}=", k.len());
                canonical(v, out);
                out.push(';');
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::fault::{FaultPlan, FaultSite};
    use crate::protocol::Protocol;
    use crate::scenario::TopologySpec;

    fn scenario() -> Scenario {
        Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, 6)
            .seed(7)
            .durations(
                wlan_sim::SimDuration::from_millis(50),
                wlan_sim::SimDuration::from_millis(200),
            )
    }

    #[test]
    fn canonical_encoding_sorts_map_keys() {
        let a = Value::Map(vec![
            ("b".into(), Value::U64(2)),
            ("a".into(), Value::U64(1)),
        ]);
        let b = Value::Map(vec![
            ("a".into(), Value::U64(1)),
            ("b".into(), Value::U64(2)),
        ]);
        let (mut ea, mut eb) = (String::new(), String::new());
        canonical(&a, &mut ea);
        canonical(&b, &mut eb);
        assert_eq!(ea, eb);
    }

    #[test]
    fn canonical_encoding_distinguishes_float_bit_patterns() {
        let (mut a, mut b) = (String::new(), String::new());
        canonical(&Value::F64(0.0), &mut a);
        canonical(&Value::F64(-0.0), &mut b);
        assert_ne!(a, b, "0.0 and -0.0 are different bit patterns");
    }

    #[test]
    fn key_is_stable_and_hex() {
        let k1 = job_key(&scenario());
        let k2 = job_key(&scenario());
        assert_eq!(k1, k2);
        assert_eq!(k1.len(), 32);
        assert!(k1.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn key_changes_with_the_fingerprint() {
        let s = scenario();
        assert_ne!(
            job_key_with_fingerprint(&s, "wlan-engine/1"),
            job_key_with_fingerprint(&s, "wlan-engine/2")
        );
    }

    #[test]
    fn open_on_a_regular_file_path_is_an_error() {
        let path = crate::scratch_path("wlan_cache_file");
        std::fs::write(&path, "not a directory").unwrap();
        assert!(ResultCache::open(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_write_fault_fails_store_and_read_fault_forces_miss() {
        let dir = crate::scratch_path("wlan_cache_fault");
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = crate::RunContext::new(1);
        ctx.cache = Some(ResultCache::open(&dir).unwrap());
        let s = scenario();
        let result = s.run();
        let key = job_key(&s);

        ctx.faults = FaultPlan::builder(3)
            .site(FaultSite::CacheWrite, 1.0, None)
            .build();
        ctx.store(&key, &result);
        ctx.store(&key, &result);
        let cache = ctx.cache.as_ref().unwrap();
        assert!(
            cache.degraded(),
            "an injected write fault degrades the handle"
        );
        assert_eq!(cache.store_failures(), 2, "counted, warned once");
        assert!(cache.lookup(&key).is_none(), "nothing was written");

        // Fault cleared: the store lands and a read fault then hides it.
        ctx.faults = FaultPlan::default();
        ctx.store(&key, &result);
        assert!(ctx.lookup(&key).is_some());
        ctx.faults = FaultPlan::builder(3)
            .site(FaultSite::CacheRead, 1.0, None)
            .build();
        let misses = ctx.cache.as_ref().unwrap().stats().misses;
        assert!(ctx.lookup(&key).is_none(), "read fault is a miss");
        assert_eq!(ctx.cache.as_ref().unwrap().stats().misses, misses + 1);
        ctx.faults = FaultPlan::default();
        assert!(ctx.lookup(&key).is_some(), "entry intact after the fault");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
