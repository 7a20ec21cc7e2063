//! # stochastic-approx
//!
//! Stochastic-approximation algorithms for optimising a system from noisy
//! measurements only, as used by the wTOP-CSMA and TORA-CSMA controllers of
//! *"Stochastic Approximation Algorithm for Optimal Throughput Performance of
//! Wireless LANs"* (Krishnan & Chaporkar, 2010):
//!
//! * [`kiefer_wolfowitz`] — the two-sided finite-difference maximiser of eq. (5),
//!   the core of both of the paper's algorithms;
//! * [`gain`] — power-law gain sequences (`a_k = 1/k`, `b_k = 1/k^(1/3)` in the
//!   paper) with symbolic verification of the convergence conditions.
//!
//! The crate is deliberately independent of the WLAN domain: the optimisers know
//! nothing about throughput or attempt probabilities, only about probe points
//! and noisy measurements, which is exactly the model-independence the paper
//! argues is the key to surviving hidden-terminal topologies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod gain;
pub mod kiefer_wolfowitz;

pub use gain::PowerLawGains;
pub use kiefer_wolfowitz::{KieferWolfowitz, KwStep, ProbeSide};
