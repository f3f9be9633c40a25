//! # The gate benchmark
//!
//! Four TATP workloads × both engines, each measured at a saturated and
//! an idle load point, with per-layer counters, probes and a span-traced
//! pass. `README.md` beside this crate says what every number means and
//! which end-to-end metric each layer metric should move;
//! `../BENCHMARK.json` is the contract the `gate` binary prints to.
//!
//! The crate drives the engines through their public APIs only and
//! changes nothing under `crates/`.

#![warn(missing_docs)]

pub mod child;
pub mod engine;
pub mod hist;
pub mod json;
pub mod load;
pub mod probes;
pub mod proc;
pub mod report;
pub mod trace;
pub mod yardstick;
