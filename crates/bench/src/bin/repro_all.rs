//! Run every experiment of the paper's evaluation (Figs. 1-13, Tables I-III)
//! and collect a one-line summary per experiment into `results/summary.txt`.
//!
//! Quick mode (default) uses fewer seeds and shorter runs; pass `--full` for the
//! heavyweight version that averages over more seeds like the paper does.
//!
//! Reruns are incremental: campaign jobs are served from the content-addressed
//! result cache (`results/.cache/`, see `wlan_core::cache`), so a repeated
//! invocation recomputes only the jobs whose scenario, seed or engine
//! fingerprint actually changed — a fully warm rerun serves every campaign
//! job from disk and regenerates a byte-identical `results/` tree. The
//! dynamic-membership figures (8-11) are the exception: their membership
//! schedule is not part of a job key, so they run the engine on every rerun.
//! Pass `--no-cache` (or export `WLAN_NO_CACHE=1`) to force every job through
//! the engine.

use std::time::Instant;
use wlan_bench::experiments as ex;
use wlan_bench::harness::RunConfig;
use wlan_core::CacheStats;

fn main() {
    let cfg = RunConfig::from_env();
    let cache = cfg.ctx.cache.as_ref();
    println!(
        "Reproducing all experiments in {} mode on {} thread{} (results in {}, cache {})\n",
        if cfg.quick { "QUICK" } else { "FULL" },
        cfg.ctx.threads,
        if cfg.ctx.threads == 1 { "" } else { "s" },
        cfg.out_dir.display(),
        match cache {
            Some(c) => format!("in {}", c.dir().display()),
            None => "disabled".to_string(),
        },
    );
    if !cfg.ctx.faults.is_empty() {
        println!(
            "CHAOS MODE: fault plan seed {} active — results below are a robustness run\n",
            cfg.ctx.faults.seed()
        );
    }
    type Experiment = fn(&RunConfig) -> String;
    let experiments: Vec<(&str, Experiment)> = vec![
        ("table1", ex::table1),
        ("fig12", ex::fig12),
        ("fig02", ex::fig02),
        ("fig13", ex::fig13),
        ("fig04", ex::fig04),
        ("fig05", ex::fig05),
        ("table2", ex::table2),
        ("table3", ex::table3),
        ("fig01", ex::fig01),
        ("fig03", ex::fig03),
        ("fig06", ex::fig06),
        ("fig07", ex::fig07),
        ("fig08_09", ex::fig08_09),
        ("fig10_11", ex::fig10_11),
        ("finite_load", ex::fig_finite_load),
        ("scaling", ex::fig_scaling),
    ];
    let mut summaries = Vec::new();
    let mut timings: Vec<(&str, f64, CacheStats)> = Vec::new();
    let cache_stats = || cache.map(|c| c.stats()).unwrap_or_default();
    let total = Instant::now();
    for (name, f) in experiments {
        let before = cache_stats();
        let start = Instant::now();
        let summary = f(&cfg);
        let secs = start.elapsed().as_secs_f64();
        let after = cache_stats();
        println!("-> {summary}  [{secs:.1}s]\n");
        summaries.push(summary);
        timings.push((
            name,
            secs,
            CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
            },
        ));
    }
    let total_secs = total.elapsed().as_secs_f64();
    let text = summaries.join("\n") + "\n";
    std::fs::write(cfg.out_path("summary.txt"), &text).expect("write summary");

    // Per-figure wall-clock table (the source of the README runtime table),
    // with per-figure cache effectiveness. Not every experiment routes through
    // the campaign runner (the dynamic-membership figures drive simulators
    // directly), so hits+misses can undercount an experiment's engine work.
    let final_stats = cache_stats();
    let mut table = String::from("figure    wall_s  share  cache_hit  cache_miss\n");
    for (name, secs, stats) in &timings {
        table.push_str(&format!(
            "{name:<9} {secs:>6.1}  {:>4.0}%  {:>9}  {:>10}\n",
            100.0 * secs / total_secs,
            stats.hits,
            stats.misses
        ));
    }
    table.push_str(&format!(
        "total     {total_secs:>6.1}         {:>9}  {:>10}\n",
        final_stats.hits, final_stats.misses
    ));
    std::fs::write(cfg.out_path("timings.txt"), &table).expect("write timings");

    println!(
        "== All experiments done in {total_secs:.1}s ({} cache hit{}, {} miss{}) ==\n{text}\nPer-figure wall-clock ({} mode, {} thread{}):\n{table}",
        final_stats.hits,
        if final_stats.hits == 1 { "" } else { "s" },
        final_stats.misses,
        if final_stats.misses == 1 { "" } else { "es" },
        if cfg.quick { "quick" } else { "full" },
        cfg.ctx.threads,
        if cfg.ctx.threads == 1 { "" } else { "s" },
    );
}
