//! Quickstart: run wTOP-CSMA on a fully connected WLAN and compare the
//! converged throughput with standard IEEE 802.11 and with the analytical
//! optimum.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wlan_sa::analytic;
use wlan_sa::core::{mean_throughput, Protocol, RunContext, Scenario, TopologySpec};
use wlan_sa::sim::SimDuration;

fn main() {
    let n = 20;

    // What the closed-form model says the best any p-persistent scheme can do.
    let model = analytic::SlotModel::table1();
    let weights = vec![1.0; n];
    let p_star = analytic::optimal_p(&model, &weights);
    let s_star = analytic::optimal_throughput(&model, &weights) / 1e6;
    println!("Analytic optimum for {n} stations: p* = {p_star:.4}, S* = {s_star:.2} Mbps");

    // Standard IEEE 802.11 DCF.
    let dcf = Scenario::new(Protocol::Standard80211, TopologySpec::FullyConnected, n)
        .durations(SimDuration::from_secs(3), SimDuration::from_secs(5))
        .seed(1)
        .run();
    println!(
        "Standard 802.11     : {:.2} Mbps (collision fraction {:.2})",
        dcf.throughput_mbps, dcf.collision_fraction
    );

    // wTOP-CSMA: the AP tunes the attempt probability from throughput
    // measurements only, with no knowledge of N.
    // Averaged over three seeds on the deterministic parallel campaign pool,
    // one worker per seed (the results are bit-identical for any count).
    let base = Scenario::new(Protocol::WTopCsma, TopologySpec::FullyConnected, n)
        .durations(SimDuration::from_secs(60), SimDuration::from_secs(10));
    let jobs: Vec<Scenario> = [1, 2, 3].map(|seed| base.clone().seed(seed)).to_vec();
    let results = RunContext::new(jobs.len()).run(&jobs);
    let wtop = &results[0];
    let mean = mean_throughput(&results);
    let p_end = wtop.control_trace.last().map(|x| x.1).unwrap_or(f64::NAN);
    println!(
        "wTOP-CSMA           : {mean:.2} Mbps over {} seeds (seed 1 converged to p = {p_end:.4})",
        results.len()
    );

    println!(
        "\nwTOP-CSMA reaches {:.0}% of the analytic optimum without knowing N or the PHY model.",
        100.0 * mean / s_star
    );
}
