//! Ablation benches (harness = false) for the controller tuning choices. They
//! do not measure wall-clock time; they measure *achieved throughput* as the
//! knob of interest is varied:
//!
//! * `UPDATE_PERIOD` of wTOP-CSMA (the paper recommends ≈500 successful
//!   transmissions per segment);
//! * the Kiefer–Wolfowitz step-size numerator a0 (our measurement-scale choice);
//! * the TORA-CSMA stage-switch thresholds δl/δh.
//!
//! Run with `cargo bench -p wlan-bench --bench ablations`.

use stochastic_approx::PowerLawGains;
use wlan_core::{ToraConfig, ToraController, WtopConfig, WtopController};
use wlan_sim::{PhyParams, SimDuration, SimulatorBuilder, Topology};

fn run_wtop(n: usize, cfg: WtopConfig, warm_secs: u64) -> f64 {
    let phy = PhyParams::table1();
    let controller = Box::new(WtopController::new(cfg));
    let mut sim = SimulatorBuilder::new(phy, Topology::fully_connected(n))
        .seed(7)
        .with_stations(|_, _| WtopController::station_policy(1.0))
        .ap_algorithm(controller)
        .build();
    sim.run_for(SimDuration::from_secs(warm_secs));
    sim.reset_measurements();
    sim.run_for(SimDuration::from_secs(8));
    sim.stats().system_throughput_mbps()
}

fn run_tora(n: usize, cfg: ToraConfig, warm_secs: u64) -> f64 {
    let phy = PhyParams::table1();
    let controller = Box::new(ToraController::new(cfg));
    let mut sim = SimulatorBuilder::new(phy.clone(), Topology::fully_connected(n))
        .seed(7)
        .with_stations(|_, phy| ToraController::station_policy(phy))
        .ap_algorithm(controller)
        .build();
    sim.run_for(SimDuration::from_secs(warm_secs));
    sim.reset_measurements();
    sim.run_for(SimDuration::from_secs(8));
    sim.stats().system_throughput_mbps()
}

fn main() {
    let n = 20;
    let phy = PhyParams::table1();
    let optimum =
        wlan_analytic::optimal_throughput(&wlan_analytic::SlotModel::table1(), &vec![1.0; n]) / 1e6;
    println!("Ablations on a fully connected network of {n} stations (analytic optimum {optimum:.1} Mbps)\n");

    println!(
        "-- wTOP-CSMA UPDATE_PERIOD (paper recommends a period covering ~500 successes ≈ 250 ms)"
    );
    for ms in [50u64, 100, 250, 500, 1000] {
        let mut cfg = WtopConfig::for_phy(&phy);
        cfg.update_period = SimDuration::from_millis(ms);
        let mbps = run_wtop(n, cfg, 50);
        println!(
            "  UPDATE_PERIOD = {ms:>5} ms -> {mbps:>6.2} Mbps ({:.0}% of optimum)",
            100.0 * mbps / optimum
        );
    }

    println!("\n-- wTOP-CSMA Kiefer-Wolfowitz step-size numerator a0 (a_k = a0/k)");
    for a0 in [1.0f64, 4.0, 8.0, 16.0, 32.0, 64.0] {
        let mut cfg = WtopConfig::for_phy(&phy);
        cfg.gains = PowerLawGains::new(a0, 1.0, 1.0, 1.0 / 3.0);
        let mbps = run_wtop(n, cfg, 50);
        println!(
            "  a0 = {a0:>5} -> {mbps:>6.2} Mbps ({:.0}% of optimum)",
            100.0 * mbps / optimum
        );
    }

    println!("\n-- wTOP-CSMA perturbation exponent gamma (b_k = 1/k^gamma; paper uses 1/3)");
    for gamma in [0.2f64, 1.0 / 3.0, 0.45] {
        let mut cfg = WtopConfig::for_phy(&phy);
        cfg.gains = PowerLawGains::new(16.0, 1.0, 1.0, gamma);
        let valid = cfg.gains.satisfies_kw_conditions();
        let mbps = run_wtop(n, cfg, 50);
        println!("  gamma = {gamma:>5.3} (KW conditions satisfied: {valid}) -> {mbps:>6.2} Mbps");
    }

    println!("\n-- TORA-CSMA stage-switch thresholds (delta_l, delta_h)");
    for (dl, dh) in [(0.01, 0.99), (0.05, 0.95), (0.2, 0.8)] {
        let mut cfg = ToraConfig::for_phy(&phy);
        cfg.delta_low = dl;
        cfg.delta_high = dh;
        let mbps = run_tora(n, cfg, 50);
        println!(
            "  (δl, δh) = ({dl:>4}, {dh:>4}) -> {mbps:>6.2} Mbps ({:.0}% of optimum)",
            100.0 * mbps / optimum
        );
    }

    println!("\nAblations complete.");
}
