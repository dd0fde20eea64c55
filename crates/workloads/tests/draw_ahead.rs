//! Draw-ahead helpers under the process-wide core budget.
//!
//! A helper starts only while the helpers and the draw-aheads alive
//! leave a core idle. One simulation past the start threshold takes a
//! helper. A second simulation and `available_parallelism() - 1` idle
//! draw-aheads, standing for simulations that have not drawn yet, make
//! one draw-ahead more than there are cores from their construction
//! on: no new helper starts, the first one is handed back, and the
//! second simulation draws inline from start to end.
//! Both must expose the same run — completion log, counters, event
//! count and observer stream. Back to one simulation, a helper starts
//! again, and dropping the simulation joins it at once. The test is
//! alone in its binary, so the process-wide counts are its own, and it
//! runs two simulations whatever the number of cores.

use ic_sim::dist::{draw_ahead_helpers, DistKind, DrawAhead, Lane, DRAW_AHEAD_START};
use ic_sim::observe::{EngineObserver, EventRecord};
use ic_sim::rng::{SimRng, StreamVersion};
use ic_sim::time::SimTime;
use ic_telemetry::counters::CounterSample;
use ic_workloads::mgk::ClientServerSim;
use std::cell::Cell;
use std::rc::Rc;

const VMS: usize = 8;
const QPS: f64 = 4000.0;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Folds every observed event's `(at, queue depth)` into a hash.
struct StreamHash(Rc<Cell<u64>>);

impl EngineObserver for StreamHash {
    fn on_event(&mut self, r: &EventRecord) {
        let mut h = self.0.get();
        fnv(&mut h, r.at.as_nanos());
        fnv(&mut h, r.queue_depth as u64);
        self.0.set(h);
    }
}

struct Run {
    sim: ClientServerSim,
    stream: Rc<Cell<u64>>,
    log: u64,
}

/// Everything a run exposes.
#[derive(Debug, PartialEq)]
struct Seen {
    log: u64,
    stream: u64,
    events: u64,
    completed: u64,
    counters: Vec<CounterSample>,
}

impl Run {
    fn new(version: StreamVersion) -> Self {
        let mut sim = ClientServerSim::with_stream_version(37, 0.0028, 1.5, 4, 0.1, version);
        let stream = Rc::new(Cell::new(0));
        sim.set_observer(Box::new(StreamHash(Rc::clone(&stream))));
        for _ in 0..VMS {
            sim.add_vm();
        }
        sim.set_qps(QPS);
        Run {
            sim,
            stream,
            log: 0,
        }
    }

    fn advance_s(&mut self, t: u64) {
        self.sim.advance_to(SimTime::from_secs(t));
        for (at, latency) in self.sim.take_completions() {
            fnv(&mut self.log, at.as_nanos());
            fnv(&mut self.log, latency.to_bits());
        }
    }

    fn seen(&self) -> Seen {
        Seen {
            log: self.log,
            stream: self.stream.get(),
            events: self.sim.events_processed(),
            completed: self.sim.completed_requests(),
            counters: (0..VMS).map(|vm| self.sim.sample(vm)).collect(),
        }
    }
}

#[test]
fn helpers_take_only_idle_cores_and_change_no_value() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let one_if_idle_core = usize::from(cores > 1);
    // Seconds at `QPS` that draw twice the start threshold (two values
    // per arrival).
    let past_start = (DRAW_AHEAD_START as f64 / QPS).ceil() as u64;
    for version in [StreamVersion::V1, StreamVersion::V2] {
        assert_eq!(draw_ahead_helpers(), 0);
        let mut first = Run::new(version);
        first.advance_s(past_start);
        assert_eq!(draw_ahead_helpers(), one_if_idle_core, "{version:?}");
        let mut second = Run::new(version);
        let idle: Vec<DrawAhead> = (1..cores as u64)
            .map(|k| {
                let unit_exp = Lane::Values(DistKind::Exponential { mean: 1.0 });
                DrawAhead::new(vec![(unit_exp, SimRng::seed_from_u64(k))])
            })
            .collect();
        // Stop and restart each arrival chain (on v1, a lone gap that
        // rebuilds the generator, with the first run's helper still
        // alive), then run on: the first run hands its helper back at
        // its next block, and the second stays inline throughout.
        second.advance_s(past_start);
        for run in [&mut first, &mut second] {
            run.sim.set_qps(0.0);
            run.advance_s(past_start + 1);
            run.sim.set_qps(QPS);
            run.advance_s(past_start + 15);
        }
        assert_eq!(draw_ahead_helpers(), 0, "{version:?}");
        let inline = second.seen();
        assert!(inline.events > 2 * DRAW_AHEAD_START, "{inline:?}");
        assert_eq!(first.seen(), inline, "{version:?}");
        drop(idle);
        drop(second);
        first.advance_s(2 * past_start + 16);
        assert_eq!(draw_ahead_helpers(), one_if_idle_core, "{version:?}");
        drop(first);
        assert_eq!(
            draw_ahead_helpers(),
            0,
            "a dropped sim left its helper running"
        );
    }
}
