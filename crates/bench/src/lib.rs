//! # wlan-bench
//!
//! The experiment harness that regenerates every figure and table of the
//! paper's evaluation, plus the engine benchmark and the controller
//! ablations.
//!
//! * [`harness`] — the `WLAN_*` knob parser, run configuration (quick vs
//!   full, the campaign run context), output files, shared throughput-vs-N
//!   sweeps.
//! * [`experiments`] — one function per figure/table (`fig01` … `fig13`,
//!   `table1` … `table3`).
//!
//! Each experiment also has a thin binary in `src/bin/` (e.g.
//! `cargo run --release -p wlan-bench --bin fig03_fully_connected_comparison`),
//! and `repro_all` runs the complete set, writing `results/*.dat`,
//! `results/*.json` and `results/summary.txt`.

pub mod experiments;
pub mod harness;
