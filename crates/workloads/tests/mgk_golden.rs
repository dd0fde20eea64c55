//! Golden event-order pins for the M/G/k client-server simulation.
//!
//! Each case drives a `ClientServerSim` through a fixed script — load
//! steps, VM additions and removals, frequency and share changes — and
//! folds everything the run exposes into one FNV-1a hash:
//!
//! * the completion log (completion instant in ns, latency bits), taken
//!   at every script step;
//! * `events_processed`, completed and dropped request counts;
//! * the observer stream: one `(at, queue_depth)` pair per event.
//!
//! The observer stream pins the `(at, seq)` tie order of arrivals and
//! completions directly, not only through its effect on the records.
//! The `ties` cases run at nanosecond scale, where arrivals, dispatches
//! and completions land on the same instant all the time. The pinned
//! values were captured from the closure-engine implementation, so any
//! event-loop rewrite must reproduce its exact order.

use ic_sim::observe::{EngineObserver, EventRecord};
use ic_sim::rng::StreamVersion;
use ic_sim::time::SimTime;
use ic_workloads::mgk::ClientServerSim;
use std::cell::Cell;
use std::rc::Rc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// What the observer has seen: the stream hash, the last event time and
/// how many events fired at the same instant as their predecessor.
#[derive(Clone, Copy)]
struct Stream {
    hash: u64,
    last_at: u64,
    ties: u64,
}

/// Hashes `(at, queue_depth)` of every event into a shared cell.
struct StreamHash(Rc<Cell<Stream>>);

impl EngineObserver for StreamHash {
    fn on_event(&mut self, r: &EventRecord) {
        let mut s = self.0.get();
        fnv(&mut s.hash, r.at.as_nanos());
        fnv(&mut s.hash, r.queue_depth as u64);
        s.ties += (r.at.as_nanos() == s.last_at) as u64;
        s.last_at = r.at.as_nanos();
        self.0.set(s);
    }
}

struct Run {
    sim: ClientServerSim,
    log: u64,
    stream: Rc<Cell<Stream>>,
}

impl Run {
    fn new(mut sim: ClientServerSim) -> Self {
        let stream = Rc::new(Cell::new(Stream {
            hash: FNV_OFFSET,
            last_at: u64::MAX,
            ties: 0,
        }));
        sim.set_observer(Box::new(StreamHash(Rc::clone(&stream))));
        Run {
            sim,
            log: FNV_OFFSET,
            stream,
        }
    }

    fn advance_ns(&mut self, t: u64) {
        self.sim.advance_to(SimTime::from_nanos(t));
        for (at, latency) in self.sim.take_completions() {
            fnv(&mut self.log, at.as_nanos());
            fnv(&mut self.log, latency.to_bits());
        }
    }

    fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv(&mut h, self.log);
        fnv(&mut h, self.stream.get().hash);
        fnv(&mut h, self.sim.events_processed());
        fnv(&mut h, self.sim.completed_requests());
        fnv(&mut h, self.sim.dropped_requests());
        fnv(&mut h, self.sim.now().as_nanos());
        h
    }
}

const S: u64 = 1_000_000_000;

/// Control-plane scale: seconds of simulated time, a few thousand QPS.
fn control(seed: u64, version: StreamVersion) -> u64 {
    let sim = ClientServerSim::with_stream_version(seed, 0.0028, 1.5, 4, 0.1, version);
    let mut run = Run::new(sim);
    for _ in 0..3 {
        run.sim.add_vm();
    }
    run.sim.set_qps(800.0);
    run.advance_ns(5 * S);
    let v3 = run.sim.add_vm();
    run.sim.set_freq_ratio(0, 1.2);
    run.advance_ns(8 * S);
    run.sim.set_qps(2500.0);
    run.advance_ns(12 * S);
    run.sim.remove_vm(1);
    run.sim.set_share(2, 0.75);
    run.advance_ns(15 * S);
    run.sim.set_freq_ratio_all(4.1 / 3.4);
    run.sim.set_share_all(0.9);
    run.sim.set_qps(1800.0);
    run.advance_ns(15 * S); // same-instant advance is a no-op
    run.advance_ns(19 * S);
    // Stop, let the pending arrival retire the chain, restart.
    run.sim.set_qps(0.0);
    run.advance_ns(21 * S);
    run.sim.set_qps(1200.0);
    run.advance_ns(24 * S);
    // Every VM gone: arrivals drop, in-flight work drains.
    for id in run.sim.active_vms() {
        run.sim.remove_vm(id);
    }
    run.advance_ns(25 * S);
    run.sim.add_vm();
    run.sim.set_freq_ratio(v3, 0.8);
    run.advance_ns(28 * S);
    run.digest()
}

/// Nanosecond scale: service and inter-arrival times of a few ns, so
/// arrivals, dispatches and completions tie on the same instant.
fn ties(seed: u64, version: StreamVersion) -> u64 {
    let sim = ClientServerSim::with_stream_version(seed, 3e-9, 2.0, 1, 0.2, version);
    let mut run = Run::new(sim);
    run.sim.add_vm();
    run.sim.add_vm();
    run.sim.set_qps(2e8);
    run.advance_ns(200_000);
    run.sim.add_vm();
    run.sim.set_freq_ratio(1, 1.5);
    run.advance_ns(400_000);
    run.sim.remove_vm(0);
    run.sim.set_share(2, 0.5);
    run.sim.set_qps(3e8);
    run.advance_ns(600_000);
    assert!(
        run.stream.get().ties > 10_000,
        "the ties case must exercise same-instant events"
    );
    run.digest()
}

#[rustfmt::skip]
const GOLDEN: &[(&str, StreamVersion, u64, u64)] = &[
    ("control", StreamVersion::V1, 1, 0xbb244544b4c8e868),
    ("control", StreamVersion::V1, 9001, 0x5fd53658749ed43e),
    ("control", StreamVersion::V1, 42, 0x3873081ee13b24f3),
    ("control", StreamVersion::V2, 1, 0x9f277f9e08e37453),
    ("control", StreamVersion::V2, 9001, 0x252b500bf15b2580),
    ("control", StreamVersion::V2, 42, 0x235848d4598d0366),
    ("ties", StreamVersion::V1, 1, 0xfd1961f0dfc2e18a),
    ("ties", StreamVersion::V1, 9001, 0x23c0c209005fc775),
    ("ties", StreamVersion::V2, 1, 0x20e0e1a368950b49),
    ("ties", StreamVersion::V2, 9001, 0xe0cea5ed2e196988),
];

#[test]
fn event_order_matches_golden_digests() {
    let mut mismatches = Vec::new();
    for &(case, version, seed, want) in GOLDEN {
        let got = match case {
            "control" => control(seed, version),
            "ties" => ties(seed, version),
            _ => unreachable!("unknown case {case}"),
        };
        if got != want {
            mismatches.push(format!("{case} {version:?} seed {seed}: {got:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digest mismatches:\n{}",
        mismatches.join("\n")
    );
}
