//! Workload benchmark for the immersion-cloud simulator.
//!
//! `compose` builds each workload from the program's public APIs,
//! `timed` wraps the world and controllers to time every layer from
//! outside, and `run` drives one repetition in 30-simulated-second
//! windows with invariant checks and an output digest. The binary
//! (`src/main.rs`) repeats workloads for a fixed host-time budget and
//! prints the metrics.

pub mod compose;
pub mod run;
pub mod timed;
