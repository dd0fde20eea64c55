//! Differential test: [`EventQueue`] against an independent sorted-`Vec`
//! reference model, on randomized self-expanding event trees.
//!
//! Both sides execute the same deterministic program: every fired node
//! logs `(id, time)` and derives its children — count, time deltas
//! (including zero-delta same-instant ties), and ids — from a hash of its
//! own id, so scheduling while draining exercises the queue exactly where
//! pops and pushes interleave. Runs are chunked by random deadline
//! drains and single pops. The reference shares no code with the heap:
//! it inserts each event after every pending entry due at or before it,
//! so its order is time order with ties in scheduling order by
//! construction. The logs and clocks must match at every checkpoint.

use ic_sim::queue::EventQueue;
use ic_sim::rng::SimRng;
use ic_sim::time::SimTime;

/// splitmix64: the shared child-derivation hash.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn child(id: u64, c: u64) -> u64 {
    mix(id ^ (c + 1).wrapping_mul(0x0123_4567))
}

fn child_count(h: u64) -> u64 {
    (h >> 8) % 3
}

fn child_delta(h: u64, c: u64) -> u64 {
    (h >> (16 + 8 * c as u32)) & 0x3FF
}

/// One tree node: its id and how many generations may still follow.
#[derive(Debug, Clone, Copy)]
struct Node {
    id: u64,
    depth: u32,
}

/// The children `node` spawns when it fires at `now`, in scheduling
/// order.
fn children(node: Node, now: u64) -> impl Iterator<Item = (u64, Node)> {
    let h = mix(node.id);
    let count = if node.depth == 0 { 0 } else { child_count(h) };
    (0..count).map(move |c| {
        let at = now + child_delta(h, c);
        let id = child(node.id, c);
        (
            at,
            Node {
                id,
                depth: node.depth - 1,
            },
        )
    })
}

/// Fires one node popped from the queue under test.
fn fire(queue: &mut EventQueue<Node>, log: &mut Vec<(u64, u64)>, node: Node) {
    let now = queue.now().as_nanos();
    log.push((node.id, now));
    for (at, child) in children(node, now) {
        queue.schedule(SimTime::from_nanos(at), child);
    }
}

/// Drains `queue` up to `deadline` and moves its clock there.
fn drain(queue: &mut EventQueue<Node>, log: &mut Vec<(u64, u64)>, deadline: SimTime) {
    while let Some(node) = queue.pop_at_most(deadline) {
        fire(queue, log, node);
    }
    queue.advance_to(deadline);
}

/// The reference: pending `(at, node)` pairs in a `Vec` kept in firing
/// order by stable insertion.
#[derive(Default)]
struct RefSim {
    pending: Vec<(u64, Node)>,
    now: u64,
    log: Vec<(u64, u64)>,
}

impl RefSim {
    fn schedule(&mut self, at: u64, node: Node) {
        let pos = self.pending.partition_point(|&(t, _)| t <= at);
        self.pending.insert(pos, (at, node));
    }

    fn fire(&mut self, at: u64, node: Node) {
        self.now = at;
        self.log.push((node.id, at));
        for (at, child) in children(node, at) {
            self.schedule(at, child);
        }
    }

    fn run_until(&mut self, deadline: u64) {
        while self.pending.first().is_some_and(|&(at, _)| at <= deadline) {
            let (at, node) = self.pending.remove(0);
            self.fire(at, node);
        }
        if deadline != u64::MAX && deadline > self.now {
            self.now = deadline;
        }
    }

    fn step(&mut self) -> Option<u64> {
        if self.pending.is_empty() {
            return None;
        }
        let (at, node) = self.pending.remove(0);
        self.fire(at, node);
        Some(at)
    }
}

#[test]
fn queue_matches_sorted_reference_on_random_event_trees() {
    let mut ties = 0;
    for seed in 0..60u64 {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut queue = EventQueue::new();
        let mut log = Vec::new();
        let mut reference = RefSim::default();

        // Seed both models with identical root nodes; spreads run from
        // tens of nanoseconds (dense same-instant ties) to minutes.
        let spread = 1u64 << (4 + seed % 30);
        // Every third seed floods the queue with hundreds of roots.
        let roots = if seed.is_multiple_of(3) {
            150 + rng.next_u64() % 250
        } else {
            3 + rng.next_u64() % 12
        };
        for r in 0..roots {
            let at = rng.next_u64() % spread;
            let node = Node {
                id: mix((seed << 32) | r),
                depth: 2 + (rng.next_u64() % 4) as u32,
            };
            queue.schedule(SimTime::from_nanos(at), node);
            reference.schedule(at, node);
        }

        // Drive both through identical chunks of deadline drains and
        // single pops, checking clocks and logs at every stop.
        for _ in 0..40 {
            if rng.next_u64().is_multiple_of(4) {
                let steps = 1 + rng.next_u64() % 3;
                for _ in 0..steps {
                    let got = queue.pop_at_most(SimTime::MAX).map(|node| {
                        fire(&mut queue, &mut log, node);
                        queue.now()
                    });
                    let want = reference.step().map(SimTime::from_nanos);
                    assert_eq!(got, want, "seed {seed} step");
                }
            } else {
                let deadline = if rng.next_u64().is_multiple_of(4) {
                    u64::MAX
                } else {
                    reference.now + rng.next_u64() % spread
                };
                let sim_deadline = if deadline == u64::MAX {
                    SimTime::MAX
                } else {
                    SimTime::from_nanos(deadline)
                };
                drain(&mut queue, &mut log, sim_deadline);
                reference.run_until(deadline);
            }
            assert_eq!(
                queue.now(),
                SimTime::from_nanos(reference.now),
                "seed {seed} clock"
            );
            assert_eq!(log, reference.log, "seed {seed} execution order");
        }

        // Drain completely and compare the full execution order.
        drain(&mut queue, &mut log, SimTime::MAX);
        reference.run_until(u64::MAX);
        assert_eq!(log, reference.log, "seed {seed} execution order");
        assert_eq!(queue.now(), SimTime::from_nanos(reference.now));
        assert_eq!(queue.events_processed(), log.len() as u64);
        assert!(queue.pop_at_most(SimTime::MAX).is_none());
        ties += log.windows(2).filter(|w| w[0].1 == w[1].1).count();
    }
    assert!(
        ties > 0,
        "the trees should have exercised same-instant ties"
    );
}
