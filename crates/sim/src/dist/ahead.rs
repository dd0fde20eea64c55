//! Draw-ahead: a helper thread fills blocks of a sampler's values ahead
//! of the thread that consumes them, and the consumer never waits for
//! it. See [`DrawAhead`].

use super::{fill_values, DistKind, DRAW_BUFFER_LEN};
use crate::rng::{SimRng, StreamVersion};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Values a [`DrawAhead`] draws inline before it asks for a helper.
///
/// Spawning and joining a thread took ~16–20 µs on a 2-vCPU x86-64
/// host; a helper saves ~5 ns per v2 value and ~20 ns per v1 value, so
/// over this many values the spawn and join cost a few percent of what
/// the helper saves. Runs shorter than this never start one.
pub const DRAW_AHEAD_START: u64 = 1 << 17;

/// Blocks a helper fills ahead of the consumer, per lane.
const DEPTH: usize = 8;

/// How long a helper whose buffers are all full spins, waiting for the
/// consumer to take a block, before it sleeps.
///
/// A sleeping helper leaves its core idle, and waking an idle vCPU is
/// slow on a virtual machine: slow enough that the consumer often used
/// up the ready blocks and filled the next ones itself. On a shared
/// 2-vCPU x86-64 host, a helper that slept as soon as it was `DEPTH`
/// blocks ahead left `chaos` 220–1900 of a run's ~5700 blocks to fill
/// inline, by how busy the host was; one that first spins this long left
/// 110–270. The consumer takes a block every few tens of µs while it
/// draws and pauses for under a millisecond between `chaos`'s windows,
/// so a helper sleeps only once its consumer has stopped drawing.
const SPIN: Duration = Duration::from_millis(1);

/// Helper threads alive in the process.
static LIVE_HELPERS: AtomicUsize = AtomicUsize::new(0);

/// Draw-aheads alive in the process: each stands for a thread that
/// draws from it, whether or not it has started drawing.
static DRAWING: AtomicUsize = AtomicUsize::new(0);

/// The number of draw-ahead helper threads alive in this process: never
/// more than [`std::thread::available_parallelism`].
pub fn draw_ahead_helpers() -> usize {
    LIVE_HELPERS.load(Ordering::SeqCst)
}

fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether the helpers and the draw-aheads' threads outnumber the
/// cores, so that a helper only takes time from a simulation.
fn oversubscribed() -> bool {
    LIVE_HELPERS.load(Ordering::SeqCst) + DRAWING.load(Ordering::SeqCst) > cores()
}

/// What one lane of a [`DrawAhead`] draws.
#[derive(Debug, Clone)]
pub enum Lane {
    /// Variates of one law on a generator of its own: the sequence a
    /// [`DrawBuffer`](super::DrawBuffer) with that law and generator
    /// delivers.
    Values(DistKind),
    /// Pairs of one variate of the law and then one standard
    /// exponential, interleaved on one v1 generator. A *lone*
    /// exponential drawn between pairs (see [`DrawAhead::next_exp`])
    /// shifts every later pair by its draw.
    Pairs(DistKind),
}

impl Lane {
    /// Fills `buf` from `rng` (whole pairs, on a pairs lane).
    fn fill(&self, rng: &mut SimRng, buf: &mut [f64]) {
        match self {
            Lane::Values(dist) => fill_values(dist, rng, buf),
            Lane::Pairs(dist) => {
                for pair in buf.chunks_exact_mut(2) {
                    pair[0] = dist.sample(rng);
                    pair[1] = rng.standard_exp();
                }
            }
        }
    }
}

/// The consumer's side of one lane.
#[derive(Debug)]
struct Cursor {
    lane: Lane,
    /// The current block; `pos` is the index of its next value. Empty on
    /// a pairs lane until a helper first starts.
    buf: Vec<f64>,
    pos: usize,
    /// The generator at the start of `buf`.
    start: SimRng,
    /// The generator at the end of `buf`, which is where block `next`
    /// starts. On a pairs lane without a helper, `buf` is used up and
    /// this is the live generator.
    rng: SimRng,
    /// The index of the block after `buf`.
    next: u64,
    /// Whether the helper filled `buf`.
    from_helper: bool,
}

impl Cursor {
    /// Fills the next block on this thread.
    fn fill_inline(&mut self) {
        self.buf.resize(DRAW_BUFFER_LEN, 0.0);
        self.start = self.rng.clone();
        self.lane.fill(&mut self.rng, &mut self.buf);
        self.pos = 0;
        self.next += 1;
        self.from_helper = false;
    }

    /// Values of `buf` not yet delivered.
    fn left(&self) -> u64 {
        (self.buf.len() - self.pos) as u64
    }
}

/// Where the values a [`DrawAhead`] delivered came from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrawCounts {
    /// Values delivered from blocks a helper filled.
    pub helper: u64,
    /// Values drawn on the consuming thread: blocks it filled itself and
    /// one-at-a-time draws.
    pub inline: u64,
}

/// A sampler's value lanes, filled ahead on a helper thread once the
/// run is long enough.
///
/// A [`DrawAhead`] holds one or more *lanes*, each a value stream on a
/// generator of its own, cut into blocks of [`DRAW_BUFFER_LEN`] values.
/// Block `i + 1` starts where block `i` left its generator, so a block
/// is a pure function of its start state: the same values whichever
/// thread fills it. The consumer takes a block from the helper when it
/// is ready. When it is not, the consumer fills it itself with the same
/// fill function and moves the helper's frontier past it, and the
/// helper throws away whatever it was filling for a block the consumer
/// has moved past. Nothing the consumer reads depends on which thread
/// drew it, or on the helper existing at all.
///
/// A helper starts only once its `DrawAhead` has drawn
/// [`DRAW_AHEAD_START`] values inline, and only onto an idle core: the
/// helpers alive in the process plus the draw-aheads alive (one
/// consuming thread each, counted from construction, so a simulation
/// still drawing below its threshold holds its core too) may not
/// outnumber [`std::thread::available_parallelism`]. A draw-ahead whose
/// helper finds that count exceeded at a refill stops it, and tries
/// again [`DRAW_AHEAD_START`] values later. Without a helper,
/// draws take the inline path: [`DrawBuffer`](super::DrawBuffer)-style
/// refills for a value lane, one draw at a time for a pairs lane.
/// Dropping a `DrawAhead` stops and joins its helper.
///
/// Every lane delivers exactly the values the inline path would, so a
/// `DrawAhead` can replace a [`DrawBuffer`](super::DrawBuffer) or a bare
/// generator without changing a record.
pub struct DrawAhead {
    cursors: Vec<Cursor>,
    /// Values left to draw inline before the next try to start a helper.
    until_start: u64,
    /// Values taken in helper-filled blocks, counted a block at a time.
    from_helper: u64,
    /// Values drawn inline and not counted by `until_start`'s countdown:
    /// finished countdowns, draws past the countdown's end, and blocks
    /// filled inline beside a helper.
    inline: u64,
    helper: Option<Helper>,
    /// This draw-ahead's place in [`DRAWING`], from construction on.
    _drawing: Drawing,
    /// Test schedule: for each block index, `true` fills it inline and
    /// `false` waits for the helper's copy.
    #[cfg(test)]
    forced: Option<fn(u64) -> bool>,
    /// Test threshold in place of [`DRAW_AHEAD_START`].
    #[cfg(test)]
    start_after: u64,
}

impl fmt::Debug for DrawAhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DrawAhead")
            .field("cursors", &self.cursors)
            .field("until_start", &self.until_start)
            .field("counts", &self.counts())
            .field("helper", &self.helper.is_some())
            .finish()
    }
}

impl DrawAhead {
    /// Creates lanes drawing on their generators. A helper may start
    /// once [`DRAW_AHEAD_START`] values have been drawn inline.
    ///
    /// # Panics
    ///
    /// Panics if a [`Lane::Pairs`] generator is not v1: a lone draw
    /// rebuilds a pairs lane's position by skipping raw draws, which
    /// needs the fixed draw counts of the v1 transforms.
    pub fn new(lanes: Vec<(Lane, SimRng)>) -> Self {
        let cursors = lanes
            .into_iter()
            .map(|(lane, rng)| {
                assert!(
                    !matches!(lane, Lane::Pairs(_)) || rng.version() == StreamVersion::V1,
                    "a pairs lane needs a v1 generator"
                );
                Cursor {
                    lane,
                    buf: Vec::new(),
                    pos: 0,
                    start: rng.clone(),
                    rng,
                    next: 0,
                    from_helper: false,
                }
            })
            .collect();
        DrawAhead {
            cursors,
            until_start: DRAW_AHEAD_START,
            from_helper: 0,
            inline: 0,
            helper: None,
            _drawing: Drawing::enter(),
            #[cfg(test)]
            forced: None,
            #[cfg(test)]
            start_after: DRAW_AHEAD_START,
        }
    }

    /// The next value of `lane`; on a pairs lane, the variate that opens
    /// the next pair.
    #[inline]
    pub fn next(&mut self, lane: usize) -> f64 {
        let c = &mut self.cursors[lane];
        if let Some(&v) = c.buf.get(c.pos) {
            c.pos += 1;
            return v;
        }
        match (&c.lane, &self.helper) {
            // Without a helper a pairs lane draws one value at a time;
            // its block, if it has one, is used up, so `rng` is the live
            // generator.
            (Lane::Pairs(dist), None) => {
                let v = dist.sample(&mut c.rng);
                self.count_inline(1);
                v
            }
            _ => self.next_block(lane),
        }
    }

    /// The next standard exponential of a pairs lane: the second value
    /// of the pair [`next`](Self::next) opened or, when no pair is
    /// open, a lone draw on the lane's generator.
    #[inline]
    pub fn next_exp(&mut self, lane: usize) -> f64 {
        let c = &mut self.cursors[lane];
        debug_assert!(matches!(c.lane, Lane::Pairs(_)), "not a pairs lane");
        if c.pos % 2 == 1 {
            let v = c.buf[c.pos];
            c.pos += 1;
            return v;
        }
        if self.helper.is_some() {
            return self.lone_exp(lane);
        }
        let v = c.rng.standard_exp();
        // A pair has just closed, or none was open: the lane may move
        // onto blocks here.
        if self.count_inline(1) {
            self.try_start();
        }
        v
    }

    /// Where the values delivered so far came from. The counts move a
    /// block at a time (a one-at-a-time draw on a pairs lane moves the
    /// inline count by one) and leave out the rest of the current
    /// blocks, so they sum to the values delivered.
    pub fn counts(&self) -> DrawCounts {
        let mut counts = DrawCounts {
            helper: self.from_helper,
            inline: self.inline + (self.start_after() - self.until_start),
        };
        for c in &self.cursors {
            if c.from_helper {
                counts.helper -= c.left();
            } else {
                counts.inline -= c.left();
            }
        }
        counts
    }

    /// The first value of `lane`'s next block.
    fn next_block(&mut self, lane: usize) -> f64 {
        if self.helper.is_some() && oversubscribed() {
            // More threads want a core than there are: hand the
            // helper's back, and try again later.
            self.helper = None;
            self.restart_countdown();
            if let Lane::Pairs(_) = self.cursors[lane].lane {
                return self.next(lane);
            }
        }
        self.refill(lane);
        let c = &mut self.cursors[lane];
        c.pos = 1;
        c.buf[0]
    }

    /// Counts `values` drawn inline; `true` once it is time to try to
    /// start a helper.
    fn count_inline(&mut self, values: u64) -> bool {
        let counted = values.min(self.until_start);
        self.until_start -= counted;
        self.inline += values - counted;
        self.until_start == 0
    }

    /// Starts the countdown to the next try to start a helper, keeping
    /// the values the last one counted.
    fn restart_countdown(&mut self) {
        self.inline += self.start_after() - self.until_start;
        self.until_start = self.start_after();
    }

    /// Moves `lane` onto its next block: the helper's copy if it is
    /// ready, else one filled here.
    fn refill(&mut self, lane: usize) {
        let forced = self.forced(self.cursors[lane].next);
        let c = &mut self.cursors[lane];
        if let Some(helper) = &self.helper {
            let taken = match forced {
                None => helper.take(lane, c),
                Some(false) => {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !helper.take(lane, c) {
                        assert!(
                            Instant::now() < deadline,
                            "the helper never filled block {}",
                            c.next
                        );
                        std::thread::yield_now();
                    }
                    true
                }
                Some(true) => false,
            };
            if taken {
                self.from_helper += c.buf.len() as u64;
                return;
            }
        }
        c.fill_inline();
        let n = c.buf.len() as u64;
        match &self.helper {
            Some(helper) => {
                helper.skip(lane, c);
                self.inline += n;
            }
            None => {
                if self.count_inline(n) {
                    self.try_start();
                }
            }
        }
    }

    /// A lone exponential on a pairs lane whose blocks come from a
    /// helper: rebuilds the generator at the lane's position (the
    /// block's start plus the raw draws of the pairs consumed), draws
    /// there, and restarts the helper from the new position.
    #[cold]
    fn lone_exp(&mut self, lane: usize) -> f64 {
        let c = &mut self.cursors[lane];
        let Lane::Pairs(dist) = &c.lane else {
            unreachable!("checked by next_exp");
        };
        let mut live = if c.pos == c.buf.len() {
            c.rng.clone()
        } else {
            let mut rng = c.start.clone();
            for _ in 0..(c.pos / 2) as u64 * (dist.v1_raw_draws() + 1) {
                rng.next_u64();
            }
            rng
        };
        let v = live.standard_exp();
        // The rest of the block belongs to the old alignment; it is
        // never delivered.
        if c.from_helper {
            self.from_helper -= c.left();
        } else {
            self.inline -= c.left();
        }
        self.inline += 1;
        c.pos = c.buf.len();
        c.rng = live;
        if let Some(helper) = &self.helper {
            c.next = helper.restart(lane, c);
        }
        v
    }

    /// Starts a helper if a core is idle, else schedules another try.
    #[cold]
    fn try_start(&mut self) {
        self.restart_countdown();
        let Some(slot) = Slot::reserve() else {
            return;
        };
        for c in &mut self.cursors {
            if c.buf.is_empty() {
                // A pairs lane moves onto blocks: an empty block whose
                // end is the live generator.
                c.buf.resize(DRAW_BUFFER_LEN, 0.0);
                c.pos = c.buf.len();
                c.start = c.rng.clone();
            }
        }
        self.helper = Helper::spawn(&self.cursors, slot);
    }

    #[cfg(test)]
    fn forced(&self, index: u64) -> Option<bool> {
        self.forced.map(|f| f(index))
    }

    #[cfg(not(test))]
    #[inline]
    fn forced(&self, _index: u64) -> Option<bool> {
        None
    }

    #[cfg(test)]
    fn start_after(&self) -> u64 {
        self.start_after
    }

    #[cfg(not(test))]
    fn start_after(&self) -> u64 {
        DRAW_AHEAD_START
    }
}

/// A draw-ahead's place in [`DRAWING`], left on drop.
struct Drawing;

impl Drawing {
    fn enter() -> Drawing {
        DRAWING.fetch_add(1, Ordering::SeqCst);
        Drawing
    }
}

impl Drop for Drawing {
    fn drop(&mut self) {
        DRAWING.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A helper's place in [`LIVE_HELPERS`], left on drop: taken only while
/// one more helper leaves the process within its cores.
struct Slot;

impl Slot {
    fn reserve() -> Option<Slot> {
        LIVE_HELPERS
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n + 1 + DRAWING.load(Ordering::SeqCst) <= cores()).then_some(n + 1)
            })
            .ok()
            .map(|_| Slot)
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        LIVE_HELPERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A block the helper filled.
struct Block {
    index: u64,
    /// The generator at the block's start and end.
    start: SimRng,
    end: SimRng,
    values: Vec<f64>,
}

/// The helper's side of one lane, shared under [`Shared::state`].
struct SharedLane {
    /// The index of the next block to fill and the generator at its
    /// start: the helper's frontier.
    next: u64,
    rng: SimRng,
    /// Filled blocks in index order, oldest first.
    ready: VecDeque<Block>,
    /// Buffers free to fill. Their number bounds how far ahead the
    /// helper runs.
    spare: Vec<Vec<f64>>,
}

struct State {
    stop: bool,
    /// Whether the helper sleeps on [`Shared::wake`] for a free buffer.
    sleeping: bool,
    lanes: Vec<SharedLane>,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes a sleeping helper when a buffer frees up or it must stop.
    wake: Condvar,
    /// Bumped under the lock each time the consumer releases it, so a
    /// spinning helper sees a freed buffer or a stop without the lock.
    signals: AtomicU64,
}

impl Shared {
    /// The state, unless the helper holds the lock right now (the
    /// consumer never waits) or died holding it.
    fn try_state(&self) -> Option<MutexGuard<'_, State>> {
        self.state.try_lock().ok()
    }

    /// Releases the state after the consumer changed it, signalling a
    /// spinning helper and waking a sleeping one.
    fn release(&self, state: MutexGuard<'_, State>) {
        self.signals.fetch_add(1, Ordering::Release);
        let wake = state.sleeping;
        drop(state);
        if wake {
            self.wake.notify_one();
        }
    }

    /// Spins until the consumer signals or [`SPIN`] passes; `true` if it
    /// signalled.
    fn spin_for_signal(&self, seen: u64) -> bool {
        let start = Instant::now();
        loop {
            for _ in 0..64 {
                if self.signals.load(Ordering::Acquire) != seen {
                    return true;
                }
                std::hint::spin_loop();
            }
            if start.elapsed() >= SPIN {
                return false;
            }
        }
    }
}

/// A running helper thread, stopped and joined on drop.
struct Helper {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    _slot: Slot,
}

impl Helper {
    /// Spawns a helper whose frontier on each lane is the block after
    /// the consumer's; `None` if the thread cannot be spawned.
    fn spawn(cursors: &[Cursor], slot: Slot) -> Option<Helper> {
        let lanes = cursors
            .iter()
            .map(|c| SharedLane {
                next: c.next,
                rng: c.rng.clone(),
                ready: VecDeque::with_capacity(DEPTH),
                spare: vec![vec![0.0; DRAW_BUFFER_LEN]; DEPTH],
            })
            .collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                stop: false,
                sleeping: false,
                lanes,
            }),
            wake: Condvar::new(),
            signals: AtomicU64::new(0),
        });
        let fills: Vec<Lane> = cursors.iter().map(|c| c.lane.clone()).collect();
        let thread = std::thread::Builder::new()
            .name("draw-ahead".into())
            .stack_size(64 << 10)
            .spawn({
                let shared = Arc::clone(&shared);
                move || run_helper(&shared, &fills)
            })
            .ok()?;
        Some(Helper {
            shared,
            thread: Some(thread),
            _slot: slot,
        })
    }

    /// Swaps block `c.next` of `lane` into `c` if the helper has it
    /// ready, dropping any older blocks the consumer filled itself.
    fn take(&self, lane: usize, c: &mut Cursor) -> bool {
        let Some(mut state) = self.shared.try_state() else {
            return false;
        };
        let shared = &mut state.lanes[lane];
        while shared.ready.front().is_some_and(|b| b.index < c.next) {
            let stale = shared.ready.pop_front().expect("front exists");
            shared.spare.push(stale.values);
        }
        if shared.ready.front().is_none_or(|b| b.index != c.next) {
            self.shared.release(state);
            return false;
        }
        let block = shared.ready.pop_front().expect("front exists");
        shared
            .spare
            .push(std::mem::replace(&mut c.buf, block.values));
        self.shared.release(state);
        c.start = block.start;
        c.rng = block.end;
        c.pos = 0;
        c.next += 1;
        c.from_helper = true;
        true
    }

    /// Tells the helper the consumer filled every block before
    /// `c.next` itself: a helper behind that point skips to it.
    fn skip(&self, lane: usize, c: &Cursor) {
        let Some(mut state) = self.shared.try_state() else {
            // The next refill that gets the lock tells it.
            return;
        };
        let shared = &mut state.lanes[lane];
        if shared.next < c.next {
            shared.next = c.next;
            shared.rng = c.rng.clone();
            // Every ready block lies before the new frontier.
            for stale in shared.ready.drain(..) {
                shared.spare.push(stale.values);
            }
            self.shared.release(state);
        }
    }

    /// Moves the helper's frontier on `lane` to `c.rng`, under a block
    /// index past any it may be filling now, and returns that index.
    fn restart(&self, lane: usize, c: &Cursor) -> u64 {
        // A restart must reach the helper, so this one waits for the
        // lock; only a `set_qps` restart of a pairs lane gets here. A
        // poisoned lock means the helper died and fills nothing more.
        let Ok(mut state) = self.shared.state.lock() else {
            return c.next + 1;
        };
        let shared = &mut state.lanes[lane];
        let fresh = shared.next.max(c.next) + 1;
        shared.next = fresh;
        shared.rng = c.rng.clone();
        for stale in shared.ready.drain(..) {
            shared.spare.push(stale.values);
        }
        self.shared.release(state);
        fresh
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        // Setting the flag keeps the state valid whatever a panic left.
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.stop = true;
        self.shared.release(state);
        if let Some(thread) = self.thread.take() {
            // A helper that panicked filled nothing the consumer read
            // after the panic, so its result carries no error to report.
            let _ = thread.join();
        }
    }
}

/// The helper's loop: fill a block for the lane with the fewest ready,
/// publish it if the consumer has not moved past it meanwhile, and
/// while every lane is full, spin for [`SPIN`] and then sleep.
fn run_helper(shared: &Shared, fills: &[Lane]) {
    let Ok(mut state) = shared.state.lock() else {
        return;
    };
    let mut idle = false;
    loop {
        if state.stop {
            return;
        }
        let lane = (0..state.lanes.len())
            .filter(|&i| !state.lanes[i].spare.is_empty())
            .min_by_key(|&i| state.lanes[i].ready.len());
        let Some(lane) = lane else {
            if idle {
                // The consumer took nothing for a whole spin.
                state.sleeping = true;
                match shared.wake.wait(state) {
                    Ok(guard) => state = guard,
                    Err(_) => return,
                }
                state.sleeping = false;
                idle = false;
            } else {
                let seen = shared.signals.load(Ordering::Acquire);
                drop(state);
                idle = !shared.spin_for_signal(seen);
                state = match shared.state.lock() {
                    Ok(guard) => guard,
                    Err(_) => return,
                };
            }
            continue;
        };
        let claim = &mut state.lanes[lane];
        let mut values = claim.spare.pop().expect("picked a lane with a spare");
        let (index, start) = (claim.next, claim.rng.clone());
        drop(state);

        let mut end = start.clone();
        fills[lane].fill(&mut end, &mut values);

        state = match shared.state.lock() {
            Ok(guard) => guard,
            Err(_) => return,
        };
        let published = &mut state.lanes[lane];
        if published.next == index {
            published.next += 1;
            published.rng = end.clone();
            published.ready.push_back(Block {
                index,
                start,
                end,
                values,
            });
        } else {
            published.spare.push(values);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{DrawBuffer, LogNormal};
    use std::sync::Arc;

    /// Tests that build a draw-ahead run one at a time: each holds a
    /// core from construction, so a test running beside another could
    /// find no core free for its helper. With one core, no helper ever
    /// starts, and these tests check the inline path alone.
    static ONE_HELPER: Mutex<()> = Mutex::new(());

    fn one_helper() -> MutexGuard<'static, ()> {
        ONE_HELPER.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A draw-ahead that may start a helper after `start_after` values.
    fn starting_after(lanes: Vec<(Lane, SimRng)>, start_after: u64) -> DrawAhead {
        let mut ahead = DrawAhead::new(lanes);
        ahead.until_start = start_after;
        ahead.start_after = start_after;
        ahead
    }

    fn service() -> DistKind {
        DistKind::from(LogNormal::with_mean_scv(0.003, 1.5))
    }

    const UNIT_EXP: DistKind = DistKind::Exponential { mean: 1.0 };

    /// Every third block filled inline, the others waited for from the
    /// helper.
    fn every_third(index: u64) -> bool {
        index.is_multiple_of(3)
    }

    #[test]
    fn helper_and_inline_blocks_interleaved_equal_an_inline_run() {
        let _one = one_helper();
        for version in [StreamVersion::V1, StreamVersion::V2] {
            let gap_rng = SimRng::stream_versioned(5, 0, version);
            let demand_rng = SimRng::stream_versioned(5, 1, version);
            let mut ahead = starting_after(
                vec![
                    (Lane::Values(UNIT_EXP), gap_rng.clone()),
                    (Lane::Values(service()), demand_rng.clone()),
                ],
                4 * DRAW_BUFFER_LEN as u64,
            );
            ahead.forced = Some(every_third);
            let mut gap = DrawBuffer::new(UNIT_EXP, gap_rng);
            let mut demand = DrawBuffer::new(service(), demand_rng);
            for i in 0..40_000 {
                assert_eq!(
                    ahead.next(1).to_bits(),
                    demand.next().to_bits(),
                    "demand {i}"
                );
                assert_eq!(ahead.next(0).to_bits(), gap.next().to_bits(), "gap {i}");
                // The gap lane runs ahead of the demand lane, as lone
                // gaps make it in a run.
                if i % 7 == 0 {
                    assert_eq!(ahead.next(0).to_bits(), gap.next().to_bits());
                }
            }
            assert_eq!(ahead.helper.is_some(), cores() > 1, "{version:?}");
        }
    }

    #[test]
    fn lone_exponentials_anywhere_match_one_generator() {
        let _one = one_helper();
        let dist = service();
        let mut rng = SimRng::seed_from_u64(9);
        let mut ahead = starting_after(vec![(Lane::Pairs(dist.clone()), rng.clone())], 600);
        ahead.forced = Some(every_third);
        let mut check = |ahead: &mut DrawAhead, pairs: usize, lone: bool| {
            for _ in 0..pairs {
                assert_eq!(ahead.next(0).to_bits(), dist.sample(&mut rng).to_bits());
                assert_eq!(ahead.next_exp(0).to_bits(), rng.standard_exp().to_bits());
            }
            if lone {
                assert_eq!(ahead.next_exp(0).to_bits(), rng.standard_exp().to_bits());
            }
        };
        // Before the helper starts, then up to the 600th value.
        check(&mut ahead, 100, true);
        check(&mut ahead, 200, false);
        assert_eq!(ahead.helper.is_some(), cores() > 1);
        let pairs = DRAW_BUFFER_LEN / 2;
        // Right at the start, then mid-block, at a block's end, and
        // twice in a row.
        check(&mut ahead, 0, true);
        check(&mut ahead, 200, true);
        check(&mut ahead, pairs, true);
        check(&mut ahead, 0, true);
        // Across helper and inline blocks, then mid-block again.
        check(&mut ahead, 5 * pairs, false);
        check(&mut ahead, pairs + 91, true);
        check(&mut ahead, 3 * pairs, false);
    }

    #[test]
    fn handing_the_helper_back_mid_run_changes_no_value() {
        let _one = one_helper();
        let dist = service();
        let mut rng = SimRng::seed_from_u64(11);
        let mut ahead = starting_after(vec![(Lane::Pairs(dist.clone()), rng.clone())], 600);
        let mut check = |ahead: &mut DrawAhead, pairs: usize| {
            for _ in 0..pairs {
                assert_eq!(ahead.next(0).to_bits(), dist.sample(&mut rng).to_bits());
                assert_eq!(ahead.next_exp(0).to_bits(), rng.standard_exp().to_bits());
            }
            assert_eq!(ahead.next_exp(0).to_bits(), rng.standard_exp().to_bits());
        };
        let pairs = DRAW_BUFFER_LEN / 2;
        check(&mut ahead, 400);
        check(&mut ahead, pairs + 100);
        assert_eq!(ahead.helper.is_some(), cores() > 1);
        // Every core gets a drawing thread: the next refill hands the
        // helper back, mid-run, and the lane draws one value at a time.
        let busy: Vec<Drawing> = (0..cores()).map(|_| Drawing::enter()).collect();
        check(&mut ahead, 100);
        assert!(ahead.helper.is_none());
        check(&mut ahead, 50);
        drop(busy);
        check(&mut ahead, 4 * pairs);
        assert_eq!(ahead.helper.is_some(), cores() > 1);
        check(&mut ahead, 2 * pairs + 7);
    }

    #[test]
    fn a_helper_that_slept_wakes_for_the_next_block() {
        let _one = one_helper();
        let mut gap_rng = SimRng::seed_from_u64(6);
        let mut ahead = starting_after(vec![(Lane::Values(UNIT_EXP), gap_rng.clone())], 600);
        ahead.forced = Some(every_third);
        let mut check = |ahead: &mut DrawAhead, values: usize| {
            for _ in 0..values {
                assert_eq!(
                    ahead.next(0).to_bits(),
                    UNIT_EXP.sample(&mut gap_rng).to_bits()
                );
            }
        };
        check(&mut ahead, 3 * DRAW_BUFFER_LEN);
        if ahead.helper.is_none() {
            assert_eq!(cores(), 1, "no helper started on an idle core");
            return;
        }
        // Long enough for the helper to fill every buffer, spin out
        // and sleep; the forced schedule then waits for its blocks.
        std::thread::sleep(20 * SPIN);
        check(&mut ahead, 3 * DEPTH * DRAW_BUFFER_LEN);
    }

    #[test]
    fn dropping_joins_the_helper() {
        let _one = one_helper();
        let mut ahead = starting_after(vec![(Lane::Values(UNIT_EXP), SimRng::seed_from_u64(4))], 0);
        ahead.next(0);
        let Some(helper) = &ahead.helper else {
            assert_eq!(cores(), 1, "no helper started on an idle core");
            return;
        };
        let shared = Arc::downgrade(&helper.shared);
        drop(ahead);
        assert!(
            shared.upgrade().is_none(),
            "the helper thread outlived its draw-ahead"
        );
    }

    #[test]
    fn idle_draw_aheads_hold_their_cores() {
        let _one = one_helper();
        let lane = || vec![(Lane::Values(UNIT_EXP), SimRng::seed_from_u64(4))];
        let mut ahead = starting_after(lane(), 600);
        // The other cores go to draw-aheads that have drawn nothing yet.
        let idle: Vec<DrawAhead> = (1..cores()).map(|_| DrawAhead::new(lane())).collect();
        for _ in 0..10 * DRAW_BUFFER_LEN {
            ahead.next(0);
        }
        assert!(
            ahead.helper.is_none(),
            "a helper took a core held by an idle draw-ahead"
        );
        drop(idle);
        for _ in 0..2 * DRAW_BUFFER_LEN {
            ahead.next(0);
        }
        assert_eq!(ahead.helper.is_some(), cores() > 1);
    }

    /// Asserts the counts sum to `drawn` and returns them.
    fn counted(ahead: &DrawAhead, drawn: u64) -> DrawCounts {
        let counts = ahead.counts();
        assert_eq!(counts.helper + counts.inline, drawn, "{counts:?}");
        counts
    }

    #[test]
    fn fill_counts_sum_to_the_values_drawn() {
        let _one = one_helper();
        let pairs = DRAW_BUFFER_LEN as u64 / 2;
        // Value lanes, first without a helper, then with one whose
        // blocks alternate with inline ones.
        for start_after in [DRAW_AHEAD_START, 600] {
            let mut ahead = starting_after(
                vec![
                    (Lane::Values(UNIT_EXP), SimRng::seed_from_u64(1)),
                    (Lane::Values(service()), SimRng::seed_from_u64(2)),
                ],
                start_after,
            );
            ahead.forced = Some(every_third);
            let mut drawn = 0;
            for i in 0..30 * DRAW_BUFFER_LEN {
                ahead.next(i % 3 % 2);
                drawn += 1;
                if i % 997 == 0 {
                    counted(&ahead, drawn);
                }
            }
            let counts = counted(&ahead, drawn);
            let helped = start_after == 600 && cores() > 1;
            assert_eq!(counts.helper > 0, helped, "{counts:?}");
            assert!(counts.inline > 0);
        }
        // A pairs lane: one-at-a-time draws, then blocks, with lone
        // exponentials that drop the rest of a block.
        for start_after in [DRAW_AHEAD_START, 600] {
            let mut ahead = starting_after(
                vec![(Lane::Pairs(service()), SimRng::seed_from_u64(3))],
                start_after,
            );
            ahead.forced = Some(every_third);
            let mut drawn = 0;
            for i in 0..20 * pairs {
                ahead.next(0);
                ahead.next_exp(0);
                drawn += 2;
                if i % 301 == 0 {
                    ahead.next_exp(0);
                    drawn += 1;
                    counted(&ahead, drawn);
                }
            }
            let counts = counted(&ahead, drawn);
            let helped = start_after == 600 && cores() > 1;
            assert_eq!(counts.helper > 0, helped, "{counts:?}");
            // Every core taken: the helper is handed back mid-run.
            let busy: Vec<Drawing> = (0..cores()).map(|_| Drawing::enter()).collect();
            for _ in 0..3 * pairs {
                ahead.next(0);
                ahead.next_exp(0);
                drawn += 2;
            }
            assert!(ahead.helper.is_none());
            drop(busy);
            counted(&ahead, drawn);
        }
    }

    #[test]
    fn below_the_threshold_draws_inline() {
        let _one = one_helper();
        let mut ahead = DrawAhead::new(vec![(Lane::Values(UNIT_EXP), SimRng::seed_from_u64(4))]);
        for _ in 0..10 * DRAW_BUFFER_LEN {
            ahead.next(0);
        }
        assert!(ahead.helper.is_none());
    }
}
