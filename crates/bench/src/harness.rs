//! Shared infrastructure for the experiment binaries: the one parser of the
//! `WLAN_*` environment knobs (shared with `campaign_server`), run
//! configuration, result output (`*.dat` gnuplot-style series and `*.json`
//! dumps), and the throughput-versus-N campaign that several figures share.

use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;
use wlan_core::campaign::DEFAULT_JOB_RETRIES;
use wlan_core::{
    Campaign, CampaignReport, FaultPlan, Protocol, ResultCache, RunContext, TopologySpec,
};
use wlan_sim::SimDuration;

/// Every `WLAN_*` environment knob, parsed once.
///
/// [`Knobs::parse`] is the only reader of these variables in the workspace;
/// it receives the variable lookup as a function (the binaries pass the
/// process environment, tests a map). A malformed value is an error that
/// names the variable.
#[derive(Debug, Clone)]
pub struct Knobs {
    /// `WLAN_THREADS`: worker threads, a positive integer (default: every
    /// available core).
    pub threads: usize,
    /// `WLAN_JOB_RETRIES`: attempts per job, 1 + the retries (default
    /// `1 + DEFAULT_JOB_RETRIES`).
    pub attempts: u32,
    /// `WLAN_HEARTBEAT_SECS`: heartbeat period in whole seconds; unset or
    /// `0` is off.
    pub heartbeat: Option<Duration>,
    /// `WLAN_JOB_TIMEOUT_SECS`: `campaign_server`'s per-job wall-clock
    /// timeout; unset or `0` is none.
    pub job_timeout: Option<Duration>,
    /// `WLAN_FAULT_PLAN`: injected faults (unset: none).
    pub faults: FaultPlan,
    /// `WLAN_METRICS`: `1` or `true` turns the telemetry layer on.
    pub telemetry: bool,
    /// `WLAN_CACHE_DIR`: the result-cache directory (default `.cache/` in
    /// the output directory).
    pub cache_dir: PathBuf,
    /// `WLAN_NO_CACHE`: any value but `0` disables the result cache.
    pub no_cache: bool,
    /// `WLAN_REPRO_QUICK`: any value but `0` means quick mode (the default).
    pub quick: bool,
    /// `WLAN_REPRO_OUT`: the output directory (default `results`).
    pub out_dir: PathBuf,
}

impl Knobs {
    /// Parse the knobs from the process environment.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(|name| std::env::var(name).ok())
    }

    /// Parse the knobs, looking each variable up through `var`.
    pub fn parse(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let retries = knob(&var, "WLAN_JOB_RETRIES", count::<u32>)?;
        let timeout = knob(&var, "WLAN_JOB_TIMEOUT_SECS", |v| {
            v.parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .ok_or_else(|| "expected a non-negative number of seconds".to_string())
        })?;
        let out_dir = PathBuf::from(var("WLAN_REPRO_OUT").unwrap_or_else(|| "results".to_string()));
        Ok(Knobs {
            threads: knob(&var, "WLAN_THREADS", positive)?.unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }),
            attempts: retries.unwrap_or(DEFAULT_JOB_RETRIES).saturating_add(1),
            heartbeat: knob(&var, "WLAN_HEARTBEAT_SECS", count::<u64>)?
                .filter(|&secs| secs > 0)
                .map(Duration::from_secs),
            job_timeout: timeout
                .filter(|&secs| secs > 0.0)
                .map(Duration::from_secs_f64),
            faults: knob(&var, "WLAN_FAULT_PLAN", FaultPlan::from_spec)?.unwrap_or_default(),
            telemetry: var("WLAN_METRICS")
                .is_some_and(|v| v == "1" || v.eq_ignore_ascii_case("true")),
            cache_dir: var("WLAN_CACHE_DIR").map_or_else(|| out_dir.join(".cache"), PathBuf::from),
            no_cache: var("WLAN_NO_CACHE").is_some_and(|v| v != "0"),
            quick: var("WLAN_REPRO_QUICK").is_none_or(|v| v != "0"),
            out_dir,
        })
    }

    /// A run context on `threads` workers with `cache`, carrying these
    /// knobs' attempt budget, fault plan, telemetry flag and heartbeat.
    pub fn context(&self, threads: usize, cache: Option<ResultCache>) -> RunContext {
        RunContext {
            attempts: self.attempts,
            cache,
            faults: self.faults.clone(),
            telemetry: self.telemetry,
            heartbeat: self.heartbeat,
            ..RunContext::new(threads)
        }
    }
}

/// Knob `name` parsed by `parse` (`None` when unset); a parse failure names
/// the variable and its value.
fn knob<T>(
    var: &impl Fn(&str) -> Option<String>,
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    var(name)
        .map(|v| parse(v.trim()).map_err(|e| format!("{name}={v:?}: {e}")))
        .transpose()
}

fn count<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| "expected a non-negative integer".to_string())
}

fn positive(value: &str) -> Result<usize, String> {
    count(value)
        .ok()
        .filter(|&t| t >= 1)
        .ok_or_else(|| "expected a positive integer".to_string())
}

/// The value of a `--threads` flag: a positive integer.
pub fn threads_flag(value: Option<&str>) -> Result<usize, String> {
    let value = value.ok_or("--threads needs a value")?;
    positive(value).map_err(|e| format!("--threads {value:?}: {e}"))
}

/// Open the result cache at `dir`. An unusable directory is an I/O failure,
/// not a configuration error: it warns and returns `None`, and the run
/// continues compute-only.
pub fn open_cache(dir: &Path) -> Option<ResultCache> {
    ResultCache::open(dir)
        .map_err(|e| {
            eprintln!(
                "warning: cannot open result cache {} ({e}) — running compute-only",
                dir.display()
            )
        })
        .ok()
}

/// Global run configuration for the experiment harness.
///
/// `from_env` / `from_args` are the **single source** of the `--quick` /
/// `--full` / `--threads N` / `--no-cache` command line and, through
/// [`Knobs`], of the `WLAN_*` environment variables; binaries must consume
/// this struct rather than re-parsing either.
#[derive(Debug)]
pub struct RunConfig {
    /// Quick mode: fewer seeds, fewer sweep points and shorter runs. Intended for
    /// CI and for smoke-testing the harness; the full mode reproduces the paper's
    /// averaging (20 iterations) more closely.
    pub quick: bool,
    /// The directory every output file goes to.
    pub out_dir: PathBuf,
    /// How campaign jobs run: worker threads, the result cache (absent with
    /// `--no-cache`), attempt budget, fault plan, telemetry and heartbeat.
    /// Results are bit-identical for every worker count.
    pub ctx: RunContext,
}

impl RunConfig {
    /// Read the configuration from the process command line and environment.
    /// Quick mode is the default so that `repro_all` finishes in minutes; pass
    /// `--full` for the heavyweight version. A bad flag or knob value is
    /// reported on stderr and exits with status 2 before anything runs.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let cfg = Knobs::from_env().and_then(|knobs| Self::from_args(&args, &knobs));
        let cfg = cfg.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        });
        if !cfg.ctx.faults.is_empty() {
            eprintln!(
                "harness: WLAN_FAULT_PLAN active (seed {}) — injecting deterministic faults",
                cfg.ctx.faults.seed()
            );
        }
        cfg
    }

    /// Parse an explicit argument list (`--quick`, `--full`, `--threads N`,
    /// `--no-cache`; anything else is an error) over `knobs`, and open the
    /// result cache unless it is disabled.
    pub fn from_args(args: &[String], knobs: &Knobs) -> Result<Self, String> {
        let (mut quick, mut full) = (knobs.quick, false);
        let mut threads = knobs.threads;
        let mut no_cache = knobs.no_cache;
        let mut rest = args.iter().skip(1);
        while let Some(arg) = rest.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--full" => full = true,
                "--no-cache" => no_cache = true,
                "--threads" => threads = threads_flag(rest.next().map(String::as_str))?,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let cache = if no_cache {
            None
        } else {
            open_cache(&knobs.cache_dir)
        };
        Ok(RunConfig {
            // --full wins over --quick, mirroring the historical behaviour.
            quick: quick && !full,
            out_dir: knobs.out_dir.clone(),
            ctx: knobs.context(threads, cache),
        })
    }

    /// Seeds to average over.
    pub fn seeds(&self) -> Vec<u64> {
        if self.quick {
            vec![1, 2]
        } else {
            (1..=10).collect()
        }
    }

    /// Station counts for throughput-vs-N sweeps (the paper uses 10..60).
    pub fn node_counts(&self) -> Vec<usize> {
        if self.quick {
            vec![10, 20, 40, 60]
        } else {
            vec![10, 20, 30, 40, 50, 60]
        }
    }

    /// Warm-up time granted to adaptive protocols before measuring.
    pub fn adaptive_warmup(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 60 } else { 90 })
    }

    /// Warm-up time for static protocols.
    pub fn static_warmup(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 2 } else { 5 })
    }

    /// Measurement time.
    pub fn measure(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 8 } else { 20 })
    }

    /// Total simulated time of the dynamic-membership runs (the paper uses 500 s).
    pub fn dynamic_total_secs(&self) -> u64 {
        if self.quick {
            200
        } else {
            500
        }
    }

    /// A [`Campaign`] pre-configured with this run's durations; callers add
    /// the protocol/topology/N/seed grid and run it on [`ctx`](Self::ctx).
    pub fn campaign(&self) -> Campaign {
        Campaign::new()
            .warmups(self.adaptive_warmup(), self.static_warmup())
            .measure(self.measure())
    }

    /// The path of output file `name`, creating the output directory.
    pub fn out_path(&self, name: &str) -> PathBuf {
        fs::create_dir_all(&self.out_dir).expect("cannot create results directory");
        self.out_dir.join(name)
    }

    /// Write a whitespace-separated data file (one comment header line, then rows).
    pub fn write_dat(&self, name: &str, header: &str, rows: &[Vec<f64>]) {
        let mut text = format!("# {header}\n");
        for row in rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
            text.push_str(&cells.join(" "));
            text.push('\n');
        }
        let path = self.out_path(name);
        fs::write(&path, text).expect("cannot write data file");
        println!("  wrote {}", path.display());
    }

    /// Write a JSON dump of any serialisable result.
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) {
        let path = self.out_path(name);
        fs::write(
            &path,
            serde_json::to_string_pretty(value).expect("serialise"),
        )
        .expect("cannot write json file");
        println!("  wrote {}", path.display());
    }

    /// Write a set of throughput curves as one .dat file per protocol plus a
    /// JSON dump.
    pub fn save_curves(&self, stem: &str, curves: &[ThroughputCurve]) {
        for curve in curves {
            let fname = format!(
                "{stem}_{}.dat",
                curve
                    .protocol
                    .to_lowercase()
                    .replace([' ', '.', '(', ')'], "_")
            );
            let rows: Vec<Vec<f64>> = curve
                .points
                .iter()
                .map(|(n, mean, min, max)| vec![*n as f64, *mean, *min, *max])
                .collect();
            self.write_dat(&fname, "n mean_mbps min_mbps max_mbps", &rows);
        }
        self.write_json(&format!("{stem}.json"), &curves);
    }

    /// Write a campaign's per-cell mean/stddev/CI95 statistics as
    /// `{stem}_cells.json` next to the curves.
    pub fn save_report(&self, stem: &str, report: &CampaignReport) {
        self.write_json(&format!("{stem}_cells.json"), report);
    }
}

/// One protocol's mean throughput as a function of the number of stations.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputCurve {
    /// Protocol label.
    pub protocol: String,
    /// `(n, mean Mbps, min Mbps, max Mbps)` per sweep point.
    pub points: Vec<(usize, f64, f64, f64)>,
}

/// Run a throughput-vs-N campaign for several protocols on one topology.
///
/// Returns the per-protocol curves (in `protocols` order) plus the campaign's
/// per-cell statistics report; both are deterministic regardless of
/// `cfg.ctx.threads`.
pub fn throughput_vs_n(
    cfg: &RunConfig,
    protocols: &[Protocol],
    topology: &TopologySpec,
    label: &str,
) -> (Vec<ThroughputCurve>, CampaignReport) {
    let campaign = cfg
        .campaign()
        .protocols(protocols)
        .topology(label, topology.clone())
        .node_counts(&cfg.node_counts())
        .seeds(&cfg.seeds());
    // Per-cell lines are printed after collection (workers must not write to
    // stdout in scheduling order); announce the workload up front so a long
    // sweep is distinguishable from a hang.
    println!(
        "  [{label}] running {} jobs on {} thread{}...",
        campaign.jobs().len(),
        cfg.ctx.threads,
        if cfg.ctx.threads == 1 { "" } else { "s" }
    );
    let outcome = campaign.run(&cfg.ctx);
    // Cells arrive in grid order: protocol-major, node counts within protocol.
    let per_proto = cfg.node_counts().len();
    let mut curves = Vec::new();
    for (proto, cells) in protocols.iter().zip(outcome.cells.chunks(per_proto)) {
        let mut points = Vec::new();
        for cell in cells {
            let s = cell.stats();
            println!(
                "  [{label}] {:<18} n={:<3} -> {:>6.2} Mbps (min {:.2}, max {:.2})",
                proto.label(),
                cell.n,
                s.mean_mbps,
                s.min_mbps,
                s.max_mbps
            );
            points.push((cell.n, s.mean_mbps, s.min_mbps, s.max_mbps));
        }
        curves.push(ThroughputCurve {
            protocol: proto.label().to_string(),
            points,
        });
    }
    (curves, outcome.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse the knobs from `vars`, a map of variable names to values.
    fn knobs(vars: &[(&str, &str)]) -> Result<Knobs, String> {
        Knobs::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    fn config(args: &[&str], vars: &[(&str, &str)]) -> Result<RunConfig, String> {
        let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
        RunConfig::from_args(&args, &knobs(vars)?)
    }

    #[test]
    fn quick_config_is_smaller_than_full() {
        let quick = config(&["bin", "--no-cache"], &[]).unwrap();
        let full = config(&["bin", "--full", "--no-cache"], &[]).unwrap();
        assert!(quick.seeds().len() < full.seeds().len());
        assert!(quick.node_counts().len() <= full.node_counts().len());
        assert!(quick.measure() < full.measure());
        assert!(quick.dynamic_total_secs() < full.dynamic_total_secs());
    }

    #[test]
    fn args_parsing_is_the_single_source() {
        let no_cache = [("WLAN_NO_CACHE", "1")];
        let cfg = config(&["bin", "--full", "--threads", "3"], &no_cache).unwrap();
        assert!(!cfg.quick);
        assert_eq!(cfg.ctx.threads, 3);
        let cfg = config(&["bin", "--quick"], &no_cache).unwrap();
        assert!(cfg.quick);
        assert!(cfg.ctx.threads >= 1);
        // --full wins over --quick, mirroring the historical behaviour.
        let cfg = config(&["bin", "--quick", "--full"], &no_cache).unwrap();
        assert!(!cfg.quick);
        // A malformed, zero or missing --threads and an unknown flag are errors.
        for bad in [
            &["bin", "--threads", "zero"][..],
            &["bin", "--threads", "0"],
            &["bin", "--threads"],
        ] {
            let err = config(bad, &no_cache).unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
        let err = config(&["bin", "--fast"], &no_cache).unwrap_err();
        assert!(err.contains("--fast"), "{err}");
        // The cache opens in the output directory unless --no-cache says no.
        let out = std::env::temp_dir().join(format!("wlan_args_test_{}", std::process::id()));
        let vars = [("WLAN_REPRO_OUT", out.to_str().unwrap())];
        let cached = config(&["bin"], &vars).unwrap();
        assert_eq!(cached.ctx.cache.as_ref().unwrap().dir(), out.join(".cache"));
        let uncached = config(&["bin", "--no-cache"], &vars).unwrap();
        assert!(uncached.ctx.cache.is_none());
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn thread_count_parsing_honours_env_value() {
        assert_eq!(knobs(&[("WLAN_THREADS", "3")]).unwrap().threads, 3);
        assert!(knobs(&[]).unwrap().threads >= 1, "default: every core");
        for bad in ["0", "not a number", ""] {
            let err = knobs(&[("WLAN_THREADS", bad)]).unwrap_err();
            assert!(err.starts_with("WLAN_THREADS="), "{err}");
        }
        let cfg = config(&["bin", "--no-cache"], &[("WLAN_THREADS", "5")]).unwrap();
        assert_eq!(cfg.ctx.threads, 5, "the knob reaches the context");
    }

    #[test]
    fn attempt_budget_parsing_honours_env_value() {
        assert_eq!(knobs(&[]).unwrap().attempts, 1 + DEFAULT_JOB_RETRIES);
        let attempts = |v| knobs(&[("WLAN_JOB_RETRIES", v)]).map(|k| k.attempts);
        assert_eq!(attempts("0"), Ok(1), "0 retries = 1 attempt");
        assert_eq!(attempts("5"), Ok(6));
        assert!(attempts("nope")
            .unwrap_err()
            .starts_with("WLAN_JOB_RETRIES="));
        assert!(attempts("-1").is_err());
    }

    #[test]
    fn every_malformed_knob_is_an_error_naming_it() {
        for (name, bad) in [
            ("WLAN_HEARTBEAT_SECS", "soon"),
            ("WLAN_JOB_TIMEOUT_SECS", "-3"),
            ("WLAN_JOB_TIMEOUT_SECS", "NaN"),
            ("WLAN_FAULT_PLAN", "teleport=1"),
        ] {
            let err = knobs(&[(name, bad)]).unwrap_err();
            assert!(err.starts_with(&format!("{name}=")), "{err}");
        }
        let k = knobs(&[
            ("WLAN_HEARTBEAT_SECS", "0"),
            ("WLAN_JOB_TIMEOUT_SECS", "1.5"),
            ("WLAN_FAULT_PLAN", "seed=7;job_panic=1x2"),
            ("WLAN_METRICS", "TRUE"),
        ])
        .unwrap();
        assert_eq!(k.heartbeat, None, "0 turns heartbeats off");
        assert_eq!(k.job_timeout, Some(Duration::from_millis(1500)));
        assert_eq!(k.faults.seed(), 7);
        assert!(k.telemetry);
        let ctx = k.context(2, None);
        assert!(ctx.telemetry && ctx.faults == k.faults && ctx.threads == 2);
    }

    #[test]
    fn dat_files_are_written() {
        let out = std::env::temp_dir().join("wlan_repro_test");
        let vars = [("WLAN_REPRO_OUT", out.to_str().unwrap())];
        let cfg = config(&["bin", "--no-cache"], &vars).unwrap();
        cfg.write_dat("unit_test.dat", "a b", &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let text = std::fs::read_to_string(out.join("unit_test.dat")).unwrap();
        assert!(text.starts_with("# a b\n"));
        assert!(text.contains("3.000000 4.000000"));
    }
}
