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
//! Telemetry is the one run setting that changes a result: it adds the
//! controller-telemetry section. So a [`crate::RunContext`] with telemetry
//! on names a job's entry by its key and a `.telemetry` suffix, and runs
//! with and without telemetry never serve each other; the key itself, which
//! names the job in `campaign_server`'s lines and scopes its fault sites,
//! and the entries of runs without telemetry are the same either way.
//!
//! ## Integrity
//!
//! Each entry file is one JSON object,
//! `{"key":…,"fingerprint":…,"checksum":…,"result":…}`, with `result` last:
//! the key echo (the entry's name), the fingerprint it was computed under,
//! and a 128-bit checksum of the exact bytes of the `result` text the store
//! wrote ([`ScenarioResult::to_json`]): FNV-1a over 16-byte little-endian
//! words, the last one zero-padded, with the text's length folded in last,
//! so any single changed byte changes it. A lookup is a hit only if
//!
//! * the file starts with exactly the header a store writes for this entry
//!   under the current [`ENGINE_FINGERPRINT`] (key echo and fingerprint),
//! * the checksum matches the result bytes, and
//! * those bytes decode to a [`ScenarioResult`].
//!
//! Anything else is a miss, and the recompute's store overwrites the entry:
//! a corrupted, truncated or fingerprint-stale entry, and also one rewritten
//! with the same values in other bytes (whitespace, `8e-2` for `0.08`),
//! since the checksum covers bytes, not values. An entry written under an
//! earlier checksum — over the result's canonical encoding, or byte by byte
//! over its text — fails it, so it misses once and is then rewritten. A hit
//! hands back the verified bytes beside the decoded result
//! ([`ResultCache::lookup_json`]), so a caller that emits the result writes
//! them as they are instead of encoding it again.
//!
//! The decode reads the result straight from the text (its typed
//! [`serde::Deserialize::read`]), with no [`Value`] tree of one node per
//! number in between, and the checksum takes 16 bytes a step. For an
//! N = 1000 result (22 KB of text) a hit costs about 0.1 ms of CPU, a
//! little over half of what the tree and a byte-wise checksum took; the
//! decode is most of it, and the checksum takes under 3 µs (byte by byte it
//! took about 34 µs).
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

    /// Fetch the cached result for `key`: [`lookup_json`](Self::lookup_json)
    /// without the stored text.
    pub fn lookup(&self, key: &str) -> Option<ScenarioResult> {
        self.lookup_json(key).map(|(result, _)| result)
    }

    /// Fetch the cached result for `key` and the exact JSON text it was
    /// stored as. The entry must pass every check of the module's
    /// *Integrity* section; anything else — a truncated or hand-edited file
    /// included — counts as a miss and leaves the entry to be overwritten by
    /// the recompute's [`store_json`](Self::store_json).
    pub fn lookup_json(&self, key: &str) -> Option<(ScenarioResult, String)> {
        let hit = self.read_verified(key);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Count a lookup that failed before reaching the disk (an injected
    /// `cache_read` fault): a miss like any other.
    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn read_verified(&self, key: &str) -> Option<(ScenarioResult, String)> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let (sum, tail) = text
            .strip_prefix(&entry_header(key))?
            .split_at_checked(32)?;
        let json = tail.strip_prefix(RESULT_FIELD)?.strip_suffix('}')?;
        if sum != format!("{:032x}", checksum(json.as_bytes())) {
            return None;
        }
        let result = serde_json::from_str(json).ok()?;
        Some((result, json.to_owned()))
    }

    /// Store `result` under `key`: [`store_json`](Self::store_json) of its
    /// [`ScenarioResult::to_json`] text.
    pub fn store(&self, key: &str, result: &ScenarioResult) -> std::io::Result<()> {
        self.store_json(key, &result.to_json())
    }

    /// Store `json`, a result's [`ScenarioResult::to_json`] text, under `key`
    /// (atomic temp-file + rename; an existing entry — e.g. a corrupt one
    /// that just missed — is replaced). The entry holds `json` byte for byte,
    /// so a hit hands back exactly these bytes.
    pub fn store_json(&self, key: &str, json: &str) -> std::io::Result<()> {
        let sum = checksum(json.as_bytes());
        let entry = format!("{}{sum:032x}{RESULT_FIELD}{json}}}", entry_header(key));
        let tmp = self.dir.join(format!("{key}.json.tmp"));
        std::fs::write(&tmp, entry)?;
        std::fs::rename(&tmp, self.entry_path(key))
    }

    /// Record a failed [`store_json`](Self::store_json): the first failure
    /// per handle logs one warning on stderr (read-only directory, disk
    /// full, injected `cache_write` fault — all look the same here); later
    /// failures are counted silently. [`crate::RunContext::store`] calls this
    /// instead of aborting, so a broken cache degrades to compute-only.
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

/// The bytes every entry for `key` starts with: the key echo, the
/// fingerprint and the opening quote of the checksum. `key` is a
/// [`job_key`], with [`TELEMETRY_SUFFIX`] for a telemetry run's entry;
/// neither needs escaping.
fn entry_header(key: &str) -> String {
    format!("{{\"key\":\"{key}\",\"fingerprint\":\"{ENGINE_FINGERPRINT}\",\"checksum\":\"")
}

/// What separates an entry's checksum from its result text.
const RESULT_FIELD: &str = "\",\"result\":";

/// What a context with telemetry on appends to a [`job_key`] to name the
/// job's entry ([`crate::RunContext::lookup`]): telemetry adds the
/// controller-telemetry section, so such a run stores another result of the
/// same job.
pub(crate) const TELEMETRY_SUFFIX: &str = ".telemetry";

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// Byte-wise FNV-1a-128, the job-key hash.
fn fnv1a128(mut hash: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An entry's checksum of its result text: FNV-1a-128 over 16-byte
/// little-endian words, the last one zero-padded, and then the length.
/// Each step maps the running hash one-to-one for a fixed word and each
/// word one-to-one for a fixed hash, so two texts of one length that differ
/// in any byte differ in the sum; the length tells apart texts that differ
/// only in trailing zero bytes.
fn checksum(bytes: &[u8]) -> u128 {
    let step = |hash: u128, word: u128| (hash ^ word).wrapping_mul(FNV_PRIME);
    let (words, rest) = bytes.as_chunks::<16>();
    let mut hash = words.iter().fold(FNV_OFFSET, |hash, word| {
        step(hash, u128::from_le_bytes(*word))
    });
    if !rest.is_empty() {
        let mut le = [0; 16];
        le[..rest.len()].copy_from_slice(rest);
        hash = step(hash, u128::from_le_bytes(le));
    }
    step(hash, bytes.len() as u128)
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

    /// Writes the entry a store made when the checksum was `old_checksum`
    /// of the result, then checks that it misses once and that the
    /// recompute's store heals it.
    fn a_stale_entry_misses_once(tag: &str, old_checksum: impl Fn(&ScenarioResult) -> u128) {
        let dir = crate::scratch_path(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let mut ctx = crate::RunContext::new(1);
        ctx.cache = Some(ResultCache::open(&dir).unwrap());
        let s = scenario();
        let key = job_key(&s);
        let result = s.run();
        let old_checksum = old_checksum(&result);
        let json = result.to_json();
        assert_ne!(old_checksum, checksum(json.as_bytes()));
        std::fs::write(
            dir.join(format!("{key}.json")),
            format!(
                "{}{old_checksum:032x}{RESULT_FIELD}{json}}}",
                entry_header(&key)
            ),
        )
        .unwrap();

        let stats = || ctx.cache.as_ref().unwrap().stats();
        let healed = ctx.run(std::slice::from_ref(&s));
        assert_eq!((stats().hits, stats().misses), (0, 1));
        assert_eq!(healed[0].to_json(), json);
        let (hit, text) = ctx.lookup(&key).expect("the store healed the entry");
        assert_eq!((hit.to_json(), text), (json.clone(), json));
        assert_eq!((stats().hits, stats().misses), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An entry written while the checksum covered the result's canonical
    /// encoding misses once, and the recompute's store heals it.
    #[test]
    fn an_entry_checksummed_over_the_canonical_encoding_misses_once() {
        a_stale_entry_misses_once("wlan_cache_canonical", |result| {
            let mut canonical_text = String::new();
            canonical(&result.to_value(), &mut canonical_text);
            fnv1a128(FNV_OFFSET, canonical_text.as_bytes())
        });
    }

    /// An entry written while the checksum went byte by byte over the
    /// result text misses once, and the recompute's store heals it.
    #[test]
    fn an_entry_checksummed_byte_by_byte_misses_once() {
        a_stale_entry_misses_once("wlan_cache_bytewise", |result| {
            fnv1a128(FNV_OFFSET, result.to_json().as_bytes())
        });
    }

    /// The checksum covers every byte and the length: a text and the same
    /// text with a zero byte appended, or any one byte changed, differ.
    #[test]
    fn the_checksum_covers_every_byte_and_the_length() {
        let text: Vec<u8> = (0..40u8).collect();
        let sum = checksum(&text);
        for len in 0..text.len() {
            assert_ne!(checksum(&text[..len]), sum, "prefix of {len} bytes");
            let mut padded = text[..len].to_vec();
            padded.push(0);
            assert_ne!(checksum(&padded), checksum(&text[..len]), "{len} bytes + 0");
        }
        for at in 0..text.len() {
            let mut changed = text.clone();
            changed[at] ^= 0x80;
            assert_ne!(checksum(&changed), sum, "byte {at}");
        }
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
        let json = result.to_json();
        ctx.store(&key, &json);
        ctx.store(&key, &json);
        let cache = ctx.cache.as_ref().unwrap();
        assert!(
            cache.degraded(),
            "an injected write fault degrades the handle"
        );
        assert_eq!(cache.store_failures(), 2, "counted, warned once");
        assert!(cache.lookup(&key).is_none(), "nothing was written");

        // Fault cleared: the store lands and a read fault then hides it.
        ctx.faults = FaultPlan::default();
        ctx.store(&key, &json);
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
