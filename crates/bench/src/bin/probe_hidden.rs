//! Calibration probe for the hidden-node comparison (the paper's headline
//! claim): with hidden terminals, IdleSense should collapse, wTOP-CSMA should
//! beat standard 802.11, and TORA-CSMA should beat wTOP-CSMA.
//!
//! Durations, threads and quick/full mode all come from
//! [`RunConfig::from_env`] — this binary does no option parsing of its own.

use std::time::Instant;
use wlan_bench::harness::RunConfig;
use wlan_core::{Protocol, Scenario, TopologySpec};

const PROTOS: [Protocol; 4] = [
    Protocol::Standard80211,
    Protocol::IdleSense,
    Protocol::WTopCsma,
    Protocol::ToraCsma,
];

fn main() {
    let cfg = RunConfig::from_env();
    let configs = [
        (16.0, 20, 11u64),
        (16.0, 40, 11),
        (20.0, 20, 11),
        (20.0, 40, 11),
    ];
    for &(radius, n, seed) in &configs {
        println!("== disc radius {radius} m, n={n}, seed={seed}");
        let scenarios: Vec<Scenario> = PROTOS
            .iter()
            .map(|proto| {
                let warm = if proto.is_adaptive() {
                    cfg.adaptive_warmup()
                } else {
                    cfg.static_warmup()
                };
                Scenario::new(*proto, TopologySpec::UniformDisc { radius }, n)
                    .durations(warm, cfg.measure())
                    .seed(seed)
            })
            .collect();
        let t = Instant::now();
        let results = cfg.ctx.run(&scenarios);
        let wall = t.elapsed().as_secs_f64();
        for r in &results {
            println!(
                "  {:<16} {:>6.2} Mbps  hidden_pairs={} idle/tx={:.2} coll={:.2}",
                r.protocol,
                r.throughput_mbps,
                r.hidden_pairs,
                r.avg_idle_slots,
                r.collision_fraction,
            );
        }
        println!("  ({wall:.1}s wall on {} threads)", cfg.ctx.threads);
    }
}
