//! Wall-clock performance benchmark of the simulator engine.
//!
//! Runs a scenario grid — fully-connected and hidden-node topologies, all six
//! [`Protocol`]s — single-threaded, measuring for each cell the wall time,
//! the engine events processed per wall second, and the achieved simulation
//! rate (simulated seconds per wall second). Results are written to
//! `BENCH_engine.json` in the current directory (the repo root in CI),
//! establishing the repo's wall-clock perf trajectory; every run also
//! appends a dated one-line summary to `BENCH_history.jsonl` so the
//! trajectory across PRs is machine-readable.
//!
//! Grids:
//!
//! * `--quick` (default): N ∈ {5, 20, 50, 100} on both topologies, plus
//!   four large-N smoke cells (Standard 802.11 and wTOP-CSMA at N = 500,
//!   each fully connected and on the 20 m disc) — the CI perf gate.
//! * `--extended`: N ∈ {5, 20, 50, 100, 200, 500, 1000, 2000} — the scaling
//!   grid the committed `BENCH_engine.json` is generated from.
//! * `--full`: the extended grid with 10 sim-seconds per cell at N ≤ 100
//!   (large-N cells stay at 2 s; events/sec is a rate and converges quickly).
//!
//! Usage:
//!
//! ```text
//! bench_engine [--quick|--extended|--full] [--out PATH] [--check PATH]
//!              [--history PATH] [--only SUBSTR] [--profile]
//!              [--profile-out PATH]
//! bench_engine --overhead-check
//! ```
//!
//! An unknown flag, or a value flag without its value, is an error: the
//! binary exits with status 1 before any cell runs (a mistyped `--check`
//! must not silently skip the gate).
//!
//! `--check PATH` loads a previously committed `BENCH_engine.json` and exits
//! with status 2 if events/sec regressed by more than 30% on the cells the
//! two reports share (geometric mean of per-cell ratios). Because the
//! committed report may come from different hardware, both sides are
//! normalised by their own `calibration_mops` — a fixed deterministic integer
//! workload timed in the same process — so the gate compares engine
//! efficiency, not machine speed; comparing only shared cells keeps the gate
//! meaningful across grid changes.
//!
//! `--profile` runs the kernel's sampled self-profiler over each cell in a
//! **separate untimed pass** (the timed numbers above are never profiled) and
//! prints a wall-clock attribution table: per `component/event-kind` handler
//! and per scheduler operation, the sampled share of wall time with latency
//! quantiles from a [`wlan_sim::DelayHistogram`]. The table is also written
//! as JSON (`--profile-out`, default `BENCH_profile.json`).
//!
//! `--overhead-check` runs only the telemetry gate and writes no file: it
//! times a few representative cells with telemetry off and with the full
//! dispatch registry on, in adjacent off/on pairs, and exits with status 3
//! if the geomean over cells of each cell's median per-pair
//! enabled/disabled events-per-second ratio drops below 0.97 (the ~2%
//! contract plus ~1% timing-noise allowance) — the CI gate on the "zero-cost
//! when off, ~free when on" telemetry contract. The *off* path costs nothing
//! by construction (the kernel runs its plain dispatch loop when no registry
//! is installed), so bounding the *on* cost bounds both. It runs no grid, so
//! a grid flag beside it would be ignored; that is a usage error (status 1).

use serde::{Deserialize, Serialize};
use std::time::Instant;
use wlan_core::{Protocol, Scenario, TopologySpec};
use wlan_sim::{SimDuration, TrafficSpec};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Quick,
    Extended,
    Full,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Extended => "extended",
            Mode::Full => "full",
        }
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct Cell {
    protocol: String,
    topology: String,
    n: usize,
    sim_seconds: f64,
    wall_s: f64,
    events: u64,
    events_per_sec: f64,
    /// Simulated seconds per wall second.
    sim_rate: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    mode: String,
    /// Machine-speed calibration: millions of iterations/sec of a fixed
    /// xorshift64 loop, measured in-process. `--check` divides events/sec by
    /// this before comparing, cancelling raw machine speed to first order.
    calibration_mops: f64,
    cells: Vec<Cell>,
    geomean_events_per_sec: f64,
}

/// One dated line of `BENCH_history.jsonl`.
#[derive(Debug, Serialize)]
struct HistoryEntry {
    /// UTC calendar date (`YYYY-MM-DD`).
    date: String,
    /// Seconds since the Unix epoch.
    unix_time: u64,
    mode: String,
    calibration_mops: f64,
    geomean_events_per_sec: f64,
    /// Calibration-normalised geomean (events per second per Mops) — the
    /// machine-independent efficiency number to track across PRs.
    geomean_events_per_mop: f64,
    /// Events/sec of the headline cell (Standard 802.11, FC, N = 50).
    key_cell_events_per_sec: Option<f64>,
    /// Events/sec of the large-N cell (Standard 802.11, FC, N = 1000), when
    /// the grid includes it.
    n1000_cell_events_per_sec: Option<f64>,
    cell_count: usize,
    /// The cache-key engine fingerprint this build bakes in — ties every
    /// history line to the engine behaviour revision it measured.
    engine_fingerprint: String,
    /// `git rev-parse --short HEAD` at run time (`null` outside a work tree).
    git_commit: Option<String>,
}

/// One row of the `--profile` attribution table: a `component/kind` handler
/// label (or a `sched.*` kernel operation) with its sampled wall-clock cost.
#[derive(Debug, Serialize)]
struct ProfileRow {
    label: String,
    samples: u64,
    total_nanos: u64,
    /// Fraction of all sampled nanoseconds attributed to this label.
    share: f64,
    mean_nanos: f64,
    p50_nanos: u64,
    p99_nanos: u64,
}

/// The JSON document written by `--profile` (`--profile-out`).
#[derive(Debug, Serialize)]
struct ProfileReport {
    mode: String,
    sample_every: u32,
    /// Sim-seconds profiled per cell (the profile pass is shorter than the
    /// timed pass; shares converge long before rates do).
    profile_sim_seconds: f64,
    rows: Vec<ProfileRow>,
}

/// Per-label accumulator behind the profiler sink.
#[derive(Default)]
struct ProfAccum {
    samples: u64,
    total_nanos: u64,
    hist: wlan_sim::DelayHistogram,
}

/// Run the sampled self-profiler over `grid` (an untimed pass — one fresh
/// simulator per cell) and fold every sample into per-label accumulators.
#[allow(clippy::type_complexity)]
fn profile_grid(
    grid: &[(
        Protocol,
        &'static str,
        TopologySpec,
        usize,
        u64,
        TrafficSpec,
    )],
    sample_every: u32,
    sim_secs: f64,
) -> Vec<ProfileRow> {
    use std::sync::{Arc, Mutex};
    let accum: Arc<Mutex<std::collections::BTreeMap<String, ProfAccum>>> =
        Arc::new(Mutex::new(std::collections::BTreeMap::new()));
    for (proto, _, topo, n, _, traffic) in grid {
        let scenario = Scenario::new(*proto, topo.clone(), *n)
            .seed(1)
            .durations(SimDuration::ZERO, SimDuration::from_secs_f64(sim_secs))
            .traffic(*traffic);
        let mut sim = scenario.build_simulator();
        let sink_accum = Arc::clone(&accum);
        sim.set_profiler(
            sample_every,
            Box::new(move |s: wlan_sim::ProfileSample| {
                let label = match s.component {
                    Some(id) => format!(
                        "{}/{}",
                        wlan_sim::COMPONENT_NAMES.get(id).copied().unwrap_or("?"),
                        s.kind
                    ),
                    None => s.kind.to_string(),
                };
                let mut map = match sink_accum.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                let row = map.entry(label).or_default();
                row.samples += 1;
                row.total_nanos += s.nanos;
                row.hist.record(SimDuration::from_nanos(s.nanos));
            }),
        );
        sim.run_for(SimDuration::from_secs_f64(sim_secs));
    }
    let map = match accum.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    let grand_total: u64 = map.values().map(|a| a.total_nanos).sum();
    let mut rows: Vec<ProfileRow> = map
        .iter()
        .map(|(label, a)| ProfileRow {
            label: label.clone(),
            samples: a.samples,
            total_nanos: a.total_nanos,
            share: if grand_total > 0 {
                a.total_nanos as f64 / grand_total as f64
            } else {
                0.0
            },
            mean_nanos: if a.samples > 0 {
                a.total_nanos as f64 / a.samples as f64
            } else {
                0.0
            },
            p50_nanos: a.hist.quantile(0.50).as_nanos(),
            p99_nanos: a.hist.quantile(0.99).as_nanos(),
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.total_nanos));
    rows
}

/// `git rev-parse --short HEAD`, or `None` outside a git work tree.
fn git_short_sha() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let sha = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!sha.is_empty()).then_some(sha)
}

/// Off/on pairs the `--overhead-check` gate times per cell.
const OVERHEAD_PAIRS: usize = 9;

/// The `--overhead-check` gate: time representative cells with telemetry off
/// and with the dispatch registry enabled in [`OVERHEAD_PAIRS`] adjacent
/// pairs, alternating which side of a pair runs first, and return the
/// geomean over cells of each cell's median per-pair enabled/disabled
/// events-per-second ratio. The two runs of a pair see the machine in the
/// same state, so drift between pairs cancels, and the median discards the
/// pairs a burst of noise hit.
fn overhead_ratio() -> f64 {
    let cells = [
        (Protocol::Standard80211, 50usize),
        (Protocol::WTopCsma, 50),
        (Protocol::Standard80211, 500),
    ];
    let mut medians = Vec::new();
    for (proto, n) in cells {
        let scenario = Scenario::new(proto, TopologySpec::FullyConnected, n)
            .seed(1)
            .durations(SimDuration::ZERO, SimDuration::from_secs(2));
        let time_one = |enable: bool| -> f64 {
            let mut sim = scenario.build_simulator();
            if enable {
                sim.enable_metrics();
            }
            sim.run_for(SimDuration::from_millis(100));
            let events_before = sim.events_processed();
            let start = Instant::now();
            sim.run_for(SimDuration::from_secs(2));
            (sim.events_processed() - events_before) as f64 / start.elapsed().as_secs_f64()
        };
        let mut ratios: Vec<f64> = (0..OVERHEAD_PAIRS)
            .map(|pair| {
                let (off, on) = if pair % 2 == 0 {
                    let off = time_one(false);
                    (off, time_one(true))
                } else {
                    let on = time_one(true);
                    (time_one(false), on)
                };
                on / off
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[OVERHEAD_PAIRS / 2];
        medians.push(median);
        println!(
            "  overhead {:<22} n={:<4} pair ratios x{:.3}..x{:.3}  median x{median:.3}",
            proto.label(),
            n,
            ratios[0],
            ratios[OVERHEAD_PAIRS - 1],
        );
    }
    geomean(medians.into_iter())
}

/// The cell grid for a mode: `(protocol, topology label, topology, n,
/// sim-seconds, traffic)`, topology-major then N then protocol (the
/// historical order). Smoke cells are appended at the end: the four N = 500
/// large-N cells in Quick mode only (the extended grids already reach
/// N = 2000), the finite-load cell in every mode.
#[allow(clippy::type_complexity)]
fn cells_for(
    mode: Mode,
) -> Vec<(
    Protocol,
    &'static str,
    TopologySpec,
    usize,
    u64,
    TrafficSpec,
)> {
    let protocols = [
        Protocol::Standard80211,
        Protocol::IdleSense,
        Protocol::WTopCsma,
        Protocol::ToraCsma,
        Protocol::StaticPPersistent { p: 0.02 },
        Protocol::StaticRandomReset { stage: 1, p0: 0.6 },
    ];
    let topologies = [
        ("fully_connected", TopologySpec::FullyConnected),
        ("hidden_disc20", TopologySpec::UniformDisc { radius: 20.0 }),
    ];
    let ns: &[usize] = match mode {
        Mode::Quick => &[5, 20, 50, 100],
        Mode::Extended | Mode::Full => &[5, 20, 50, 100, 200, 500, 1000, 2000],
    };
    let mut cells = Vec::new();
    for (tname, topo) in &topologies {
        for &n in ns {
            for proto in &protocols {
                // Small cells need the longer full-mode run for stable
                // baselines; at large N two sim-seconds already process tens
                // of millions of events, so the rate has long converged.
                let sim_secs = if mode == Mode::Full && n <= 100 {
                    10
                } else {
                    2
                };
                cells.push((
                    *proto,
                    *tname,
                    topo.clone(),
                    n,
                    sim_secs,
                    TrafficSpec::saturated(),
                ));
            }
        }
    }
    if mode == Mode::Quick {
        // The CI perf gate's large-N smoke cells: plain 802.11 at N = 500 —
        // cheap enough for every PR, big enough that an O(N) regression in
        // the per-busy-period loops is unmissable. The fully connected cell
        // times the clique sensing path, the 20 m disc the per-station path.
        // wTOP-CSMA on the disc times its start-up collapse there: many
        // frames on the air at once keep the busy counts several bit planes
        // deep, and the station walks re-arm backoff timers by the dozen.
        // Fully connected, wTOP-CSMA times the clique path's redraw loop,
        // which draws every contending station's uniform at every resume.
        let smoke = [
            (Protocol::Standard80211, topologies[0].clone()),
            (Protocol::Standard80211, topologies[1].clone()),
            (Protocol::WTopCsma, topologies[0].clone()),
            (Protocol::WTopCsma, topologies[1].clone()),
        ];
        for (proto, (tname, topo)) in smoke {
            cells.push((proto, tname, topo, 500, 2, TrafficSpec::saturated()));
        }
    }
    // The finite-load smoke cell (every mode, so the committed extended
    // report gates it too): Poisson offered load at ~75% of capacity over
    // N = 200 stations exercises the arrival timers, the queue path and the
    // QueueEmpty transitions the saturated grid never touches. 15 fps ×
    // 200 stations × 8000 bits = 24 Mbps offered.
    cells.push((
        Protocol::Standard80211,
        "fc_poisson_load",
        TopologySpec::FullyConnected,
        200,
        2,
        TrafficSpec::poisson(15.0).with_queue_frames(64),
    ));
    cells
}

/// Time a fixed, deterministic integer workload as a machine-speed probe.
/// The engine's hot path is integer/branch bound and cache-light, so a
/// xorshift64 accumulation is a reasonable first-order proxy for how fast
/// this machine runs it.
fn calibration_mops() -> f64 {
    const ITERS: u64 = 200_000_000;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    let start = Instant::now();
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    ITERS as f64 / secs / 1e6
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut count) = (0.0, 0usize);
    for x in xs {
        if x > 0.0 {
            log_sum += x.ln();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        (log_sum / count as f64).exp()
    }
}

/// Proleptic-Gregorian date from a Unix timestamp (days-to-civil algorithm),
/// formatted `YYYY-MM-DD`. Avoids a chrono dependency for one timestamp.
fn utc_date(unix: u64) -> String {
    let days = (unix / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn cell_key(c: &Cell) -> String {
    format!("{}:{}:{}", c.protocol, c.topology, c.n)
}

const USAGE: &str = "usage: bench_engine [--quick|--extended|--full] [--out PATH] [--check PATH] \
                     [--history PATH] [--only SUBSTR] [--profile] [--profile-out PATH]\n       \
                     bench_engine --overhead-check";

/// Report a bad command line and exit 1, before anything has run.
fn usage_error(message: String) -> ! {
    eprintln!("bench_engine: {message}\n{USAGE}");
    std::process::exit(1)
}

fn main() {
    // Every flag must be known and every value flag must have a value (a
    // following flag does not count). --full wins over --extended, which
    // wins over --quick. Every flag but --overhead-check configures the grid
    // run, which --overhead-check skips.
    let mut mode = Mode::Quick;
    let (mut out, mut history, mut check_path, mut only, mut profile_out) =
        (None, None, None, None, None);
    let (mut profile, mut overhead_check) = (false, false);
    let mut grid_flag = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || match args.next() {
            Some(value) if !value.starts_with("--") => Some(value),
            _ => usage_error(format!("`{flag}` needs a value")),
        };
        match flag.as_str() {
            "--quick" => {}
            "--extended" => {
                if mode != Mode::Full {
                    mode = Mode::Extended;
                }
            }
            "--full" => mode = Mode::Full,
            "--out" => out = value(),
            "--history" => history = value(),
            "--check" => check_path = value(),
            "--only" => only = value(),
            "--profile" => profile = true,
            "--profile-out" => profile_out = value(),
            "--overhead-check" => overhead_check = true,
            other => usage_error(format!("unknown flag `{other}`")),
        }
        if flag != "--overhead-check" {
            grid_flag.get_or_insert(flag);
        }
    }
    if overhead_check {
        if let Some(flag) = grid_flag {
            usage_error(format!(
                "`--overhead-check` runs only its gate, so `{flag}` would be ignored"
            ));
        }
        println!("bench_engine: telemetry overhead check ({OVERHEAD_PAIRS} off/on pairs per cell)");
        let ratio = overhead_ratio();
        println!("  geomean enabled/disabled events-per-sec ratio x{ratio:.3} (floor x0.97)");
        if ratio < 0.97 {
            eprintln!(
                "TELEMETRY OVERHEAD: enabling the dispatch registry costs more than the \
                 ~2% contract (plus ~1% timing-noise allowance) permits"
            );
            std::process::exit(3);
        }
        println!("  overhead check passed");
        return;
    }
    let out_explicit = out.is_some();
    let out_path = out.unwrap_or_else(|| "BENCH_engine.json".to_string());
    let history_path = history.unwrap_or_else(|| "BENCH_history.jsonl".to_string());
    let profile_out = profile_out.unwrap_or_else(|| "BENCH_profile.json".to_string());
    // Development aid: `--only SUBSTR` restricts the grid to matching cells
    // (substring of "protocol:topology:n") — handy under a profiler. A
    // filtered run never represents the grid, so unless `--out` names a file
    // explicitly it writes no report and never appends to the history (a
    // stray profiling run must not clobber the committed baseline or pollute
    // the perf trajectory).
    let mut grid = cells_for(mode);
    if let Some(filter) = &only {
        grid.retain(|(proto, tname, _, n, _, _)| {
            format!("{}:{tname}:{n}", proto.label()).contains(filter.as_str())
        });
    }
    let grid_for_profile = profile.then(|| grid.clone());

    let calibration = calibration_mops();
    println!(
        "bench_engine: {} mode, {} cells, single-threaded, calibration {calibration:.0} Mops\n",
        mode.label(),
        grid.len(),
    );

    let mut cells = Vec::new();
    for (proto, tname, topo, n, sim_secs, traffic) in grid {
        let scenario = Scenario::new(proto, topo, n)
            .seed(1)
            .durations(SimDuration::ZERO, SimDuration::from_secs(sim_secs))
            .traffic(traffic);
        let mut sim = scenario.build_simulator();
        // Warm caches and branch predictors before the timed section.
        sim.run_for(SimDuration::from_millis(100));
        let events_before = sim.events_processed();
        let start = Instant::now();
        sim.run_for(SimDuration::from_secs(sim_secs));
        let wall = start.elapsed().as_secs_f64();
        let events = sim.events_processed() - events_before;

        let cell = Cell {
            protocol: proto.label().to_string(),
            topology: tname.to_string(),
            n,
            sim_seconds: sim_secs as f64,
            wall_s: wall,
            events,
            events_per_sec: events as f64 / wall,
            sim_rate: sim_secs as f64 / wall,
        };
        println!(
            "  {:<22} {:<16} n={:<5} {:>8.1} ms  {:>6.2} Mev/s  sim-rate {:>6.0}",
            cell.protocol,
            cell.topology,
            cell.n,
            cell.wall_s * 1e3,
            cell.events_per_sec / 1e6,
            cell.sim_rate
        );
        cells.push(cell);
    }

    let geomean_eps = geomean(cells.iter().map(|c| c.events_per_sec));
    let key_cell_eps = cells
        .iter()
        .find(|c| c.protocol == "Standard 802.11" && c.topology == "fully_connected" && c.n == 50)
        .map(|c| c.events_per_sec);
    let n1000_cell_eps = cells
        .iter()
        .find(|c| c.protocol == "Standard 802.11" && c.topology == "fully_connected" && c.n == 1000)
        .map(|c| c.events_per_sec);

    let report = Report {
        mode: mode.label().to_string(),
        calibration_mops: calibration,
        cells,
        geomean_events_per_sec: geomean_eps,
    };
    println!("\n  geomean events/sec: {:.2}M", geomean_eps / 1e6);
    if only.is_none() || out_explicit {
        std::fs::write(
            &out_path,
            serde_json::to_string_pretty(&report).expect("serialise report") + "\n",
        )
        .expect("write report");
        println!("  wrote {out_path}");
    } else {
        println!("  --only run: no report written (pass --out to force)");
    }

    // Dated history line: the machine-readable perf trajectory across PRs.
    // Filtered (`--only`) runs are excluded: their aggregates describe a
    // hand-picked cell subset, not the grid the trajectory tracks.
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = HistoryEntry {
        date: utc_date(unix_time),
        unix_time,
        mode: report.mode.clone(),
        calibration_mops: calibration,
        geomean_events_per_sec: geomean_eps,
        geomean_events_per_mop: geomean_eps / calibration,
        key_cell_events_per_sec: key_cell_eps,
        n1000_cell_events_per_sec: n1000_cell_eps,
        cell_count: report.cells.len(),
        engine_fingerprint: wlan_core::ENGINE_FINGERPRINT.to_string(),
        git_commit: git_short_sha(),
    };
    if only.is_none() {
        let line = serde_json::to_string(&entry).expect("serialise history entry") + "\n";
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history_path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .expect("append history entry");
        println!("  appended {history_path}");
    }

    if let Some(path) = check_path {
        let committed: Report = serde_json::from_str(
            &std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}")),
        )
        .expect("parse committed report");
        // Compare only the cells both reports contain, each side normalised
        // by its own machine's calibration, folded with a geometric mean.
        let committed_cells: std::collections::BTreeMap<String, f64> = committed
            .cells
            .iter()
            .map(|c| (cell_key(c), c.events_per_sec / committed.calibration_mops))
            .collect();
        let ratios: Vec<f64> = report
            .cells
            .iter()
            .filter_map(|c| {
                committed_cells
                    .get(&cell_key(c))
                    .map(|&base| (c.events_per_sec / calibration) / base)
            })
            .collect();
        assert!(
            !ratios.is_empty(),
            "no shared cells between this run and {path} — the gate would be vacuous"
        );
        let ratio = geomean(ratios.iter().copied());
        println!(
            "  check vs {path}: {} shared cells, calibration-normalised events/sec ratio x{ratio:.3} (floor x0.70)",
            ratios.len(),
        );
        if ratio < 0.7 {
            eprintln!(
                "PERF REGRESSION: calibration-normalised events/sec dropped more than 30% below the committed baseline"
            );
            std::process::exit(2);
        }
        println!("  perf check passed");
    }

    if let Some(cells) = grid_for_profile {
        const SAMPLE_EVERY: u32 = 32;
        let profile_secs = 1.0;
        println!(
            "\nbench_engine: profiling {} cells (every {SAMPLE_EVERY}th event, {profile_secs} sim-s per cell, untimed pass)",
            cells.len(),
        );
        let rows = profile_grid(&cells, SAMPLE_EVERY, profile_secs);
        println!(
            "  {:<24} {:>10} {:>7} {:>9} {:>8} {:>8}",
            "label", "samples", "share", "mean ns", "p50 ns", "p99 ns"
        );
        for row in &rows {
            println!(
                "  {:<24} {:>10} {:>6.1}% {:>9.0} {:>8} {:>8}",
                row.label,
                row.samples,
                row.share * 100.0,
                row.mean_nanos,
                row.p50_nanos,
                row.p99_nanos
            );
        }
        let doc = ProfileReport {
            mode: mode.label().to_string(),
            sample_every: SAMPLE_EVERY,
            profile_sim_seconds: profile_secs,
            rows,
        };
        std::fs::write(
            &profile_out,
            serde_json::to_string_pretty(&doc).expect("serialise profile") + "\n",
        )
        .expect("write profile");
        println!("  wrote {profile_out}");
    }
}
