//! Discrete-event simulation kernel and numeric toolbox for the
//! `immersion-cloud` workspace.
//!
//! The paper this workspace reproduces ("Cost-Efficient Overclocking in
//! Immersion-Cooled Datacenters", ISCA 2021) evaluates its control-plane
//! systems — oversubscribed VM packing and an overclocking-enhanced
//! auto-scaler — on physical 2PIC tank prototypes. This crate provides the
//! simulation substrate that replaces that hardware: a deterministic
//! discrete-event queue ([`queue::EventQueue`]), seeded random-number
//! generation ([`rng::SimRng`]), probability distributions implemented
//! in-crate ([`dist`]), and streaming statistics ([`stats`]) used to report
//! the P95/P99 metrics the paper's evaluation is built on. [`json`] is
//! the workspace's one JSON codec: scenario files, trace exports and
//! experiment records all read and write through it.
//!
//! # Example
//!
//! ```
//! use ic_sim::queue::EventQueue;
//! use ic_sim::time::SimTime;
//!
//! // Count events fired up to and including t = 5 s.
//! let mut queue = EventQueue::new();
//! for i in 0..10 {
//!     queue.schedule(SimTime::from_secs(i), ());
//! }
//! let mut count = 0;
//! while queue.pop_at_most(SimTime::from_secs(5)).is_some() {
//!     count += 1;
//! }
//! assert_eq!(count, 6); // t = 0..=5 inclusive
//! ```

#![forbid(unsafe_code)]

pub mod dist;
pub mod hist;
pub mod json;
pub mod observe;
pub mod queue;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub(crate) mod zig;

pub use queue::EventQueue;
pub use rng::{SimRng, StreamVersion};
pub use time::{SimDuration, SimTime};
