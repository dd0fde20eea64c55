//! The flight recorder: deterministic hierarchical span profiling.
//!
//! The flight recorder is the crate's one recorder. It records extents
//! and points alike, keyed by the simulation clock plus a recorder-local
//! sequence number — never wall clock — so two same-seed runs export
//! byte-identical traces, for any `IC_PAR_WORKERS` setting
//! (parallel sweeps record into per-task recorders that are
//! [`absorb`](FlightRecorder::absorb)ed in submission order).
//!
//! Three kinds of record coexist:
//!
//! * **Stack spans** — opened and closed LIFO (usually via the
//!   [`SpanGuard`] RAII API). Each closed span's *self time* is its
//!   duration minus its stack children's durations; per-`(target, name)`
//!   self-time feeds a constant-memory [`LogHistogram`] for the
//!   [`summary`](FlightRecorder::summary) table.
//! * **Phase spans** — per-event-kind engine activity. Drivers feed
//!   [`phase_event`](FlightRecorder::phase_event) one call per executed
//!   event (see `EngineSpans`) and
//!   [`flush_phases`](FlightRecorder::flush_phases) at window
//!   boundaries; each `(target, kind)` gets its own display track, so a
//!   window of interleaved `arrival`/`complete` events coalesces into
//!   one span per kind instead of thousands of micro-spans.
//! * **Instants** — zero-duration marks (scale decisions, cache misses,
//!   placements).
//!
//! Completed records live in a bounded ring (oldest dropped first);
//! per-kind statistics are exact over the whole run regardless of
//! eviction. Exporters: Chrome Trace Event JSON (loadable in Perfetto
//! or `chrome://tracing`), JSONL, and a human self-time summary table.

use crate::json::{write_fields, Value};
use ic_sim::hist::LogHistogram;
use ic_sim::json::write_escaped;
use ic_sim::time::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::io;
use std::rc::Rc;

/// Event severity. `Debug` is for per-step records (high volume);
/// `Info` for state transitions; `Warn` for anomalies (rejections,
/// failovers, budget violations); `Error` for invariant breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLevel {
    /// High-volume per-step records.
    Debug,
    /// State transitions and decisions.
    Info,
    /// Anomalies: rejections, failures, budget violations.
    Warn,
    /// Invariant violations — a run that emits one is suspect.
    Error,
}

/// The environment variable read by [`TraceLevel::from_env`] and the
/// flight recorder's `from_env` constructors: set to `error`, `warn`,
/// `info`, or `debug` to choose the minimum recorded level.
pub const LEVEL_ENV: &str = "IC_OBS_LEVEL";

impl TraceLevel {
    /// The lowercase name used in serialized output.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Debug => "debug",
            TraceLevel::Info => "info",
            TraceLevel::Warn => "warn",
            TraceLevel::Error => "error",
        }
    }

    /// Parses a level name (case-insensitive): `error`, `warn`, `info`,
    /// or `debug`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(TraceLevel::Debug),
            "info" => Some(TraceLevel::Info),
            "warn" | "warning" => Some(TraceLevel::Warn),
            "error" => Some(TraceLevel::Error),
            _ => None,
        }
    }

    /// The level named by the `IC_OBS_LEVEL` environment variable, or
    /// `None` when the variable is unset or unparseable (callers keep
    /// their default).
    pub fn from_env() -> Option<Self> {
        std::env::var(LEVEL_ENV).ok().and_then(|s| Self::parse(&s))
    }
}

/// First bin edge for self-time histograms: 1 µs of simulation time.
const SELF_TIME_FIRST_EDGE: f64 = 1e-6;
/// Geometric growth per bin.
const SELF_TIME_GROWTH: f64 = 2.0;
/// 48 bins: 1 µs … ~3.3 days of simulation time.
const SELF_TIME_BINS: usize = 48;

/// How a completed record is rendered and accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A stack span (opened/closed LIFO); self time subtracts stack
    /// children.
    Span,
    /// A coalesced per-event-kind engine phase on its own track; runs in
    /// parallel with stack spans and is not subtracted from them.
    Phase,
    /// A zero-duration mark.
    Instant,
}

impl SpanKind {
    /// The lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Span => "span",
            SpanKind::Phase => "phase",
            SpanKind::Instant => "instant",
        }
    }
}

/// One completed record.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The subsystem that produced the span (e.g. `"runner"`, `"engine"`).
    pub target: &'static str,
    /// The span kind within the target (e.g. `"step"`, `"arrival"`).
    pub name: &'static str,
    /// Severity, filterable via [`FlightRecorder::set_min_level`].
    pub level: TraceLevel,
    /// Record kind (stack span, phase, instant).
    pub kind: SpanKind,
    /// Simulation time the span opened.
    pub start: SimTime,
    /// Simulation time the span closed (equals `start` for instants).
    pub end: SimTime,
    /// Stack depth at open time (0 for top-level and phase records).
    pub depth: u32,
    /// Recorder-assigned sequence number, renumbered on
    /// [`absorb`](FlightRecorder::absorb) so the merged stream is
    /// totally ordered.
    pub seq: u64,
    /// Display track (Chrome `tid`); see
    /// [`FlightRecorder::track_names`].
    pub track: u32,
    /// Structured payload, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Span {
    /// Span duration in seconds of simulation time.
    pub fn duration_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// A still-open stack span.
#[derive(Debug, Clone, PartialEq)]
struct OpenSpan {
    target: &'static str,
    name: &'static str,
    level: TraceLevel,
    start: SimTime,
    seq: u64,
    token: u64,
    fields: Vec<(&'static str, Value)>,
    /// Seconds of already-closed stack children, subtracted from this
    /// span's self time at close.
    child_s: f64,
}

/// A pending per-event-kind phase, coalescing every
/// [`phase_event`](FlightRecorder::phase_event) since the last flush.
#[derive(Debug, Clone, PartialEq)]
struct PendingPhase {
    start: SimTime,
    last: SimTime,
    count: u64,
}

/// Exact per-`(target, name)` accounting, immune to ring eviction.
#[derive(Debug, Clone, PartialEq)]
struct KindStat {
    count: u64,
    total_s: f64,
    self_s: f64,
    hist: LogHistogram,
}

impl KindStat {
    fn new() -> Self {
        KindStat {
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
            hist: LogHistogram::new(SELF_TIME_FIRST_EDGE, SELF_TIME_GROWTH, SELF_TIME_BINS),
        }
    }

    fn record(&mut self, total_s: f64, self_s: f64) {
        self.count += 1;
        self.total_s += total_s;
        self.self_s += self_s;
        self.hist.record(self_s);
    }

    fn merge(&mut self, other: &KindStat) {
        self.count += other.count;
        self.total_s += other.total_s;
        self.self_s += other.self_s;
        self.hist.merge(&other.hist);
    }
}

/// A claim ticket for one open stack span, consumed by
/// [`FlightRecorder::close`]/[`close_at`](FlightRecorder::close_at).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken(u64);

/// The bounded, deterministic span recorder.
///
/// Single-threaded like the simulator; parallel sweeps give each task
/// its own recorder and merge them in submission order with
/// [`absorb`](Self::absorb). The recorder's clock
/// ([`now`](Self::now)/[`set_now`](Self::set_now)) is *simulation* time,
/// advanced monotonically by the driver; wall clock never enters.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    spans: VecDeque<Span>,
    capacity: usize,
    open: Vec<OpenSpan>,
    phases: BTreeMap<(&'static str, &'static str), PendingPhase>,
    stats: BTreeMap<(&'static str, &'static str), KindStat>,
    /// Track id → display name; index 0 is the recorder's own track.
    tracks: Vec<String>,
    /// Track ids already allocated to `(target, kind)` phase lanes.
    phase_tracks: BTreeMap<(&'static str, &'static str), u32>,
    next_seq: u64,
    next_token: u64,
    dropped: u64,
    now: SimTime,
    max_end: SimTime,
    min_level: TraceLevel,
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `capacity` completed records
    /// (the oldest are dropped first once full).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight capacity must be positive");
        FlightRecorder {
            spans: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            open: Vec::new(),
            phases: BTreeMap::new(),
            stats: BTreeMap::new(),
            tracks: vec!["main".to_string()],
            phase_tracks: BTreeMap::new(),
            next_seq: 0,
            next_token: 0,
            dropped: 0,
            now: SimTime::ZERO,
            max_end: SimTime::ZERO,
            min_level: TraceLevel::Debug,
        }
    }

    /// Like [`new`](Self::new), but the minimum level comes from the
    /// `IC_OBS_LEVEL` environment variable (`error`/`warn`/`info`/
    /// `debug`; unset or unparseable keeps `debug`, i.e. record
    /// everything).
    pub fn from_env(capacity: usize) -> Self {
        let mut rec = Self::new(capacity);
        if let Some(level) = TraceLevel::from_env() {
            rec.set_min_level(level);
        }
        rec
    }

    /// Suppresses records below `level`. Suppressed records consume no
    /// sequence numbers, so a filtered run is still deterministic.
    pub fn set_min_level(&mut self, level: TraceLevel) {
        self.min_level = level;
    }

    /// `true` if a record at `level` would be kept.
    pub fn enabled(&self, level: TraceLevel) -> bool {
        level >= self.min_level
    }

    /// The recorder's current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the recorder clock (monotonic: earlier times are
    /// ignored).
    pub fn set_now(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    /// The latest end time of any record so far — the natural close time
    /// for a run-level wrapper span.
    pub fn max_end(&self) -> SimTime {
        self.max_end
    }

    /// Renames the recorder's own display track (track 0).
    pub fn set_track_name(&mut self, name: &str) {
        self.tracks[0] = name.to_string();
    }

    /// Track id → display name, in allocation order.
    pub fn track_names(&self) -> &[String] {
        &self.tracks
    }

    fn push(&mut self, span: Span) {
        self.max_end = self.max_end.max(span.end);
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }

    fn stat(&mut self, target: &'static str, name: &'static str) -> &mut KindStat {
        self.stats
            .entry((target, name))
            .or_insert_with(KindStat::new)
    }

    /// Opens a stack span at the recorder's current time. Returns `None`
    /// when suppressed by the level filter (children then attach to the
    /// nearest recorded ancestor).
    pub fn open(
        &mut self,
        target: &'static str,
        name: &'static str,
        level: TraceLevel,
        fields: Vec<(&'static str, Value)>,
    ) -> Option<SpanToken> {
        self.open_at(self.now, target, name, level, fields)
    }

    /// Opens a stack span at an explicit start time (also advances the
    /// recorder clock to it).
    pub fn open_at(
        &mut self,
        start: SimTime,
        target: &'static str,
        name: &'static str,
        level: TraceLevel,
        fields: Vec<(&'static str, Value)>,
    ) -> Option<SpanToken> {
        self.set_now(start);
        if !self.enabled(level) {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let token = self.next_token;
        self.next_token += 1;
        self.open.push(OpenSpan {
            target,
            name,
            level,
            start,
            seq,
            token,
            fields,
            child_s: 0.0,
        });
        Some(SpanToken(token))
    }

    /// Appends a field to the innermost open span matching `token`
    /// (results computed after open, recorded before close).
    pub fn add_field(&mut self, token: SpanToken, key: &'static str, value: Value) {
        if let Some(open) = self.open.iter_mut().rev().find(|o| o.token == token.0) {
            open.fields.push((key, value));
        }
    }

    /// Closes the top-of-stack span at the recorder's current time.
    pub fn close(&mut self, token: SpanToken) {
        self.close_at(token, self.now);
    }

    /// Closes the top-of-stack span at `end` (also advances the clock).
    ///
    /// # Panics
    ///
    /// Panics if `token` is not the innermost open span — stack spans
    /// are strictly LIFO.
    pub fn close_at(&mut self, token: SpanToken, end: SimTime) {
        self.set_now(end);
        let open = self.open.pop().expect("close without an open span");
        assert_eq!(
            open.token, token.0,
            "span close out of order: stack spans are LIFO"
        );
        let end = end.max(open.start);
        let total_s = (end - open.start).as_secs_f64();
        let self_s = (total_s - open.child_s).max(0.0);
        if let Some(parent) = self.open.last_mut() {
            parent.child_s += total_s;
        }
        self.stat(open.target, open.name).record(total_s, self_s);
        self.push(Span {
            target: open.target,
            name: open.name,
            level: open.level,
            kind: SpanKind::Span,
            start: open.start,
            end,
            depth: self.open.len() as u32,
            seq: open.seq,
            track: 0,
            fields: open.fields,
        });
    }

    /// Records a complete stack-level span in one call (a window that
    /// was measured externally, e.g. one decision period). It counts as
    /// a child of the innermost open span.
    pub fn record_complete(
        &mut self,
        start: SimTime,
        end: SimTime,
        target: &'static str,
        name: &'static str,
        level: TraceLevel,
        fields: Vec<(&'static str, Value)>,
    ) {
        self.set_now(end.max(start));
        if !self.enabled(level) {
            return;
        }
        let end = end.max(start);
        let total_s = (end - start).as_secs_f64();
        if let Some(parent) = self.open.last_mut() {
            parent.child_s += total_s;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stat(target, name).record(total_s, total_s);
        let depth = self.open.len() as u32;
        self.push(Span {
            target,
            name,
            level,
            kind: SpanKind::Span,
            start,
            end,
            depth,
            seq,
            track: 0,
            fields,
        });
    }

    /// Records a zero-duration mark at the recorder's current time.
    pub fn instant(
        &mut self,
        target: &'static str,
        name: &'static str,
        level: TraceLevel,
        fields: Vec<(&'static str, Value)>,
    ) {
        self.instant_at(self.now, target, name, level, fields);
    }

    /// Records a zero-duration mark at `at` (also advances the clock).
    pub fn instant_at(
        &mut self,
        at: SimTime,
        target: &'static str,
        name: &'static str,
        level: TraceLevel,
        fields: Vec<(&'static str, Value)>,
    ) {
        self.set_now(at);
        if !self.enabled(level) {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stat(target, name).record(0.0, 0.0);
        let depth = self.open.len() as u32;
        self.push(Span {
            target,
            name,
            level,
            kind: SpanKind::Instant,
            start: at,
            end: at,
            depth,
            seq,
            track: 0,
            fields,
        });
    }

    /// Accumulates one executed engine event into the pending
    /// `(target, kind)` phase. Call [`flush_phases`](Self::flush_phases)
    /// at window boundaries to turn the accumulation into spans.
    pub fn phase_event(&mut self, target: &'static str, kind: &'static str, at: SimTime) {
        self.set_now(at);
        let phase = self
            .phases
            .entry((target, kind))
            .or_insert_with(|| PendingPhase {
                start: at,
                last: at,
                count: 0,
            });
        phase.last = phase.last.max(at);
        phase.count += 1;
    }

    /// Flushes every pending phase as one span per `(target, kind)` on
    /// that kind's own display track, in deterministic key order. Phase
    /// spans are recorded at `Debug` level.
    pub fn flush_phases(&mut self) {
        if self.phases.is_empty() {
            return;
        }
        let phases = std::mem::take(&mut self.phases);
        if !self.enabled(TraceLevel::Debug) {
            return;
        }
        for ((target, kind), phase) in phases {
            let track = match self.phase_tracks.get(&(target, kind)) {
                Some(&t) => t,
                None => {
                    let t = self.tracks.len() as u32;
                    self.tracks.push(format!("{target}:{kind}"));
                    self.phase_tracks.insert((target, kind), t);
                    t
                }
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let total_s = (phase.last - phase.start).as_secs_f64();
            self.stat(target, kind).record(total_s, total_s);
            self.push(Span {
                target,
                name: kind,
                level: TraceLevel::Debug,
                kind: SpanKind::Phase,
                start: phase.start,
                end: phase.last,
                depth: 0,
                seq,
                track,
                fields: vec![("events", Value::U64(phase.count))],
            });
        }
    }

    /// Merges a finished child recorder (a parallel sweep task) into
    /// this one, renumbering its sequence numbers into this recorder's
    /// stream and remapping its tracks to fresh ids (the child's own
    /// track is renamed to `name`). Callers merge children **in
    /// submission order**, which is what makes the combined trace
    /// byte-identical for any worker count.
    ///
    /// # Panics
    ///
    /// Panics if the child still has open spans.
    pub fn absorb(&mut self, mut child: FlightRecorder, name: &str) {
        assert!(
            child.open.is_empty(),
            "absorb requires every child span closed"
        );
        child.flush_phases();
        let base = self.tracks.len() as u32;
        self.tracks.push(name.to_string());
        for track_name in child.tracks.iter().skip(1) {
            self.tracks.push(format!("{name}/{track_name}"));
        }
        for mut span in child.spans {
            span.seq = self.next_seq;
            self.next_seq += 1;
            span.track += base;
            self.max_end = self.max_end.max(span.end);
            if self.spans.len() == self.capacity {
                self.spans.pop_front();
                self.dropped += 1;
            }
            self.spans.push_back(span);
        }
        self.dropped += child.dropped;
        for (key, stat) in &child.stats {
            self.stats
                .entry(*key)
                .or_insert_with(KindStat::new)
                .merge(stat);
        }
        self.now = self.now.max(child.now);
    }

    /// The retained records, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Records evicted by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total records ever kept (retained + dropped).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Exact record counts by `(target, name)`, unaffected by ring
    /// eviction.
    pub fn counts_by_kind(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        self.stats
            .iter()
            .map(|(&key, stat)| (key, stat.count))
            .collect()
    }

    /// The whole recorder as Chrome Trace Event JSON — an object with a
    /// `traceEvents` array of `M` (track metadata), `X` (complete span),
    /// and `i` (instant) events, loadable in Perfetto or
    /// `chrome://tracing`. Timestamps are simulation microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.spans.len());
        out.push_str("{\"traceEvents\":[");
        out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,");
        out.push_str("\"args\":{\"name\":\"immersion-cloud\"}}");
        for (tid, name) in self.tracks.iter().enumerate() {
            out.push_str(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
            out.push_str(&tid.to_string());
            out.push_str(",\"args\":{\"name\":");
            write_escaped(&mut out, name);
            out.push_str("}}");
        }
        for span in &self.spans {
            out.push_str(",\n{\"name\":");
            write_escaped(&mut out, span.name);
            out.push_str(",\"cat\":");
            write_escaped(&mut out, span.target);
            if span.kind == SpanKind::Instant {
                out.push_str(",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
                write_us(span.start, &mut out);
            } else {
                out.push_str(",\"ph\":\"X\",\"ts\":");
                write_us(span.start, &mut out);
                out.push_str(",\"dur\":");
                write_us_delta(span.start, span.end, &mut out);
            }
            out.push_str(",\"pid\":0,\"tid\":");
            out.push_str(&span.track.to_string());
            out.push_str(",\"args\":{\"seq\":");
            out.push_str(&span.seq.to_string());
            out.push_str(",\"level\":\"");
            out.push_str(span.level.name());
            out.push('"');
            if !span.fields.is_empty() {
                out.push(',');
                write_fields(
                    &span
                        .fields
                        .iter()
                        .map(|(k, v)| (*k, v.clone()))
                        .collect::<Vec<_>>(),
                    &mut out,
                );
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// The whole recorder as JSONL: one header object naming the tracks,
    /// then one object per record in ring order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + 160 * self.spans.len());
        out.push_str("{\"schema\":\"ic-obs/flight/v1\",\"tracks\":[");
        for (i, name) in self.tracks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, name);
        }
        out.push_str("],\"dropped\":");
        out.push_str(&self.dropped.to_string());
        out.push_str("}\n");
        for span in &self.spans {
            out.push_str("{\"start_ns\":");
            out.push_str(&span.start.as_nanos().to_string());
            out.push_str(",\"end_ns\":");
            out.push_str(&span.end.as_nanos().to_string());
            out.push_str(",\"seq\":");
            out.push_str(&span.seq.to_string());
            out.push_str(",\"track\":");
            out.push_str(&span.track.to_string());
            out.push_str(",\"depth\":");
            out.push_str(&span.depth.to_string());
            out.push_str(",\"target\":");
            write_escaped(&mut out, span.target);
            out.push_str(",\"name\":");
            write_escaped(&mut out, span.name);
            out.push_str(",\"level\":\"");
            out.push_str(span.level.name());
            out.push_str("\",\"ph\":\"");
            out.push_str(span.kind.name());
            out.push_str("\",\"fields\":{");
            write_fields(
                &span
                    .fields
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect::<Vec<_>>(),
                &mut out,
            );
            out.push_str("}}\n");
        }
        out
    }

    /// Streams [`to_chrome_trace`](Self::to_chrome_trace) or
    /// [`to_jsonl`](Self::to_jsonl) into `w` depending on `chrome`.
    pub fn write_trace<W: io::Write>(&self, w: &mut W, chrome: bool) -> io::Result<()> {
        let text = if chrome {
            self.to_chrome_trace()
        } else {
            self.to_jsonl()
        };
        w.write_all(text.as_bytes())
    }

    /// The human summary: per-`(target, name)` record counts and
    /// simulation-time totals, self time (span duration minus stack
    /// children), and p50/p95 self time from the per-kind
    /// [`LogHistogram`] — sorted by self time, largest first. All
    /// figures are exact over the run, regardless of ring eviction.
    pub fn summary(&self) -> String {
        let mut rows: Vec<(&(&'static str, &'static str), &KindStat)> = self.stats.iter().collect();
        rows.sort_by(|a, b| {
            b.1.self_s
                .partial_cmp(&a.1.self_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        let mut out = String::from("== flight recorder: self-time by span kind ==\n");
        out.push_str(&format!(
            "{:<12} {:<20} {:>8} {:>12} {:>12} {:>6} {:>11} {:>11}\n",
            "target", "name", "count", "total_s", "self_s", "self%", "p50_self_s", "p95_self_s"
        ));
        let grand: f64 = rows.iter().map(|(_, s)| s.self_s).sum();
        for ((target, name), stat) in rows {
            let pct = if grand > 0.0 {
                stat.self_s / grand * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "{:<12} {:<20} {:>8} {:>12.3} {:>12.3} {:>5.1}% {:>11.6} {:>11.6}\n",
                target,
                name,
                stat.count,
                stat.total_s,
                stat.self_s,
                pct,
                stat.hist.quantile(0.50),
                stat.hist.quantile(0.95),
            ));
        }
        out.push_str(&format!(
            "records: {} kept, {} dropped; tracks: {}\n",
            self.spans.len(),
            self.dropped,
            self.tracks.len()
        ));
        out
    }
}

/// Appends a simulation time as Chrome-trace microseconds (integer µs
/// with an exact 3-digit fraction when the time is off the µs grid).
fn write_us(t: SimTime, out: &mut String) {
    write_us_parts(t.as_nanos(), out);
}

/// Appends `end - start` as Chrome-trace microseconds.
fn write_us_delta(start: SimTime, end: SimTime, out: &mut String) {
    write_us_parts((end - start).as_nanos(), out);
}

fn write_us_parts(ns: u64, out: &mut String) {
    let us = ns / 1000;
    let frac = ns % 1000;
    out.push_str(&us.to_string());
    if frac != 0 {
        out.push('.');
        out.push_str(&format!("{frac:03}"));
    }
}

/// A shareable recorder handle for single-threaded simulations: the
/// driver keeps one clone, instrumented components keep others.
pub type FlightHandle = Rc<RefCell<FlightRecorder>>;

/// Creates a [`FlightHandle`] with the given ring capacity.
pub fn shared_flight(capacity: usize) -> FlightHandle {
    Rc::new(RefCell::new(FlightRecorder::new(capacity)))
}

/// Creates a [`FlightHandle`] whose level filter comes from
/// `IC_OBS_LEVEL` (see [`FlightRecorder::from_env`]).
pub fn shared_flight_from_env(capacity: usize) -> FlightHandle {
    Rc::new(RefCell::new(FlightRecorder::from_env(capacity)))
}

/// An RAII guard over one stack span: open on construction, closed on
/// drop at the recorder's then-current simulation time, or explicitly
/// via [`close_at`](Self::close_at) with a known end time.
///
/// # Example
///
/// ```
/// use ic_obs::flight::{shared_flight, SpanGuard};
/// use ic_obs::flight::TraceLevel;
/// use ic_sim::time::SimTime;
///
/// let flight = shared_flight(1024);
/// {
///     let span = SpanGuard::enter(&flight, "demo", "work", TraceLevel::Info, vec![]);
///     flight.borrow_mut().set_now(SimTime::from_secs(5));
///     span.close_at(SimTime::from_secs(5));
/// }
/// assert_eq!(flight.borrow().len(), 1);
/// ```
#[derive(Debug)]
pub struct SpanGuard {
    flight: FlightHandle,
    token: Option<SpanToken>,
}

impl SpanGuard {
    /// Opens a span at the recorder's current time.
    pub fn enter(
        flight: &FlightHandle,
        target: &'static str,
        name: &'static str,
        level: TraceLevel,
        fields: Vec<(&'static str, Value)>,
    ) -> Self {
        let token = flight.borrow_mut().open(target, name, level, fields);
        SpanGuard {
            flight: flight.clone(),
            token,
        }
    }

    /// Opens a span at an explicit start time.
    pub fn enter_at(
        flight: &FlightHandle,
        start: SimTime,
        target: &'static str,
        name: &'static str,
        level: TraceLevel,
        fields: Vec<(&'static str, Value)>,
    ) -> Self {
        let token = flight
            .borrow_mut()
            .open_at(start, target, name, level, fields);
        SpanGuard {
            flight: flight.clone(),
            token,
        }
    }

    /// Appends a field to the span (a result computed mid-span).
    pub fn add_field(&self, key: &'static str, value: Value) {
        if let Some(token) = self.token {
            self.flight.borrow_mut().add_field(token, key, value);
        }
    }

    /// Closes the span at an explicit end time.
    pub fn close_at(mut self, end: SimTime) {
        if let Some(token) = self.token.take() {
            self.flight.borrow_mut().close_at(token, end);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            self.flight.borrow_mut().close(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn nested_spans_record_depth_and_self_time() {
        let mut rec = FlightRecorder::new(64);
        let outer = rec
            .open_at(t(0), "a", "outer", TraceLevel::Info, vec![])
            .unwrap();
        let inner = rec
            .open_at(t(2), "a", "inner", TraceLevel::Info, vec![])
            .unwrap();
        rec.close_at(inner, t(5));
        rec.close_at(outer, t(10));
        let spans: Vec<_> = rec.spans().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].depth), ("inner", 1));
        assert_eq!((spans[1].name, spans[1].depth), ("outer", 0));
        let stats = rec.counts_by_kind();
        assert_eq!(stats[&("a", "outer")], 1);
        // Outer self time = 10 - (inner 3s) = 7s.
        assert!(rec.summary().contains("outer"));
        let outer_stat = &rec.stats[&("a", "outer")];
        assert_eq!(outer_stat.total_s, 10.0);
        assert_eq!(outer_stat.self_s, 7.0);
    }

    #[test]
    #[should_panic(expected = "LIFO")]
    fn out_of_order_close_panics() {
        let mut rec = FlightRecorder::new(8);
        let a = rec.open("x", "a", TraceLevel::Info, vec![]).unwrap();
        let _b = rec.open("x", "b", TraceLevel::Info, vec![]).unwrap();
        rec.close(a);
    }

    #[test]
    fn ring_drops_oldest_but_stats_stay_exact() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..10u64 {
            rec.instant_at(t(i), "m", "tick", TraceLevel::Info, vec![]);
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 7);
        assert_eq!(rec.counts_by_kind()[&("m", "tick")], 10);
    }

    #[test]
    fn level_filter_suppresses_without_seq() {
        let mut rec = FlightRecorder::new(8);
        rec.set_min_level(TraceLevel::Info);
        assert!(rec.open("x", "noisy", TraceLevel::Debug, vec![]).is_none());
        rec.instant("x", "quiet", TraceLevel::Debug, vec![]);
        let tok = rec.open("x", "kept", TraceLevel::Info, vec![]).unwrap();
        rec.close(tok);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.spans().next().unwrap().seq, 0);
    }

    #[test]
    fn level_parse_and_order() {
        assert_eq!(TraceLevel::parse("DEBUG"), Some(TraceLevel::Debug));
        assert_eq!(TraceLevel::parse(" info "), Some(TraceLevel::Info));
        assert_eq!(TraceLevel::parse("warning"), Some(TraceLevel::Warn));
        assert_eq!(TraceLevel::parse("error"), Some(TraceLevel::Error));
        assert_eq!(TraceLevel::parse("loud"), None);
        assert!(TraceLevel::Error > TraceLevel::Warn);
        assert!(TraceLevel::Warn > TraceLevel::Info);
        assert!(TraceLevel::Info > TraceLevel::Debug);
        assert_eq!(TraceLevel::Error.name(), "error");
    }

    #[test]
    fn phases_coalesce_per_kind_on_own_tracks() {
        let mut rec = FlightRecorder::new(64);
        for i in 0..5u64 {
            rec.phase_event("engine", "arrival", t(i));
            rec.phase_event("engine", "complete", t(i));
        }
        rec.flush_phases();
        let spans: Vec<Span> = rec.spans().cloned().collect();
        assert_eq!(spans.len(), 2, "one span per kind");
        assert_eq!(spans[0].name, "arrival");
        assert_eq!(spans[0].fields, vec![("events", Value::U64(5))]);
        assert_ne!(spans[0].track, spans[1].track);
        assert_eq!(rec.track_names()[spans[0].track as usize], "engine:arrival");
        // A second window reuses the same tracks.
        rec.phase_event("engine", "arrival", t(9));
        rec.flush_phases();
        assert_eq!(rec.spans().last().unwrap().track, spans[0].track);
        assert_eq!(rec.track_names().len(), 3);
    }

    #[test]
    fn absorb_renumbers_and_remaps_tracks() {
        let mut main = FlightRecorder::new(64);
        main.instant_at(t(1), "m", "mark", TraceLevel::Info, vec![]);
        let mut child = FlightRecorder::new(64);
        let tok = child
            .open_at(t(0), "c", "run", TraceLevel::Info, vec![])
            .unwrap();
        child.phase_event("engine", "arrival", t(3));
        child.flush_phases();
        child.close_at(tok, t(4));
        main.absorb(child, "task0");
        let seqs: Vec<u64> = main.spans().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(
            main.track_names(),
            &["main", "task0", "task0/engine:arrival"]
        );
        assert_eq!(main.max_end(), t(4));
        assert_eq!(main.counts_by_kind()[&("engine", "arrival")], 1);
    }

    #[test]
    fn absorb_order_determines_bytes_not_worker_schedule() {
        let make_child = |secs: u64| {
            let mut c = FlightRecorder::new(16);
            let tok = c
                .open_at(t(0), "c", "run", TraceLevel::Info, vec![])
                .unwrap();
            c.close_at(tok, t(secs));
            c
        };
        let mut a = FlightRecorder::new(64);
        a.absorb(make_child(1), "x");
        a.absorb(make_child(2), "y");
        let mut b = FlightRecorder::new(64);
        b.absorb(make_child(1), "x");
        b.absorb(make_child(2), "y");
        assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
        assert_eq!(a.to_jsonl(), b.to_jsonl());
    }

    #[test]
    fn chrome_trace_shape() {
        let mut rec = FlightRecorder::new(16);
        let tok = rec
            .open_at(
                t(1),
                "runner",
                "step",
                TraceLevel::Info,
                vec![("q", Value::U64(3))],
            )
            .unwrap();
        rec.close_at(tok, t(2));
        rec.instant_at(t(2), "asc", "scale_out", TraceLevel::Warn, vec![]);
        let out = rec.to_chrome_trace();
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"ph\":\"M\""));
        assert!(out.contains(
            "{\"name\":\"step\",\"cat\":\"runner\",\"ph\":\"X\",\"ts\":1000000,\"dur\":1000000,\
             \"pid\":0,\"tid\":0,\"args\":{\"seq\":0,\"level\":\"info\",\"q\":3}}"
        ));
        assert!(out.contains("\"ph\":\"i\",\"s\":\"t\",\"ts\":2000000"));
        assert!(out.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
    }

    #[test]
    fn sub_microsecond_times_keep_an_exact_fraction() {
        let mut out = String::new();
        write_us_parts(1_234_567, &mut out);
        assert_eq!(out, "1234.567");
        out.clear();
        write_us_parts(2_000, &mut out);
        assert_eq!(out, "2");
    }

    #[test]
    fn jsonl_has_header_and_schema() {
        let mut rec = FlightRecorder::new(16);
        rec.instant_at(
            t(1),
            "m",
            "mark",
            TraceLevel::Info,
            vec![("k", Value::str("v"))],
        );
        let out = rec.to_jsonl();
        let mut lines = out.lines();
        assert!(lines
            .next()
            .unwrap()
            .contains("\"schema\":\"ic-obs/flight/v1\""));
        let line = lines.next().unwrap();
        assert!(line.contains("\"start_ns\":1000000000"));
        assert!(line.contains("\"ph\":\"instant\""));
        assert!(line.contains("\"fields\":{\"k\":\"v\"}"));
    }

    #[test]
    fn span_guard_closes_on_drop_at_recorder_now() {
        let flight = shared_flight(16);
        {
            let _g = SpanGuard::enter(&flight, "g", "scope", TraceLevel::Info, vec![]);
            flight.borrow_mut().set_now(t(7));
        }
        let rec = flight.borrow();
        let span = rec.spans().next().unwrap();
        assert_eq!((span.start, span.end), (SimTime::ZERO, t(7)));
    }

    #[test]
    fn span_guard_add_field_lands_in_span() {
        let flight = shared_flight(16);
        let g = SpanGuard::enter(&flight, "g", "scope", TraceLevel::Info, vec![]);
        g.add_field("result", Value::U64(42));
        g.close_at(t(1));
        let rec = flight.borrow();
        assert_eq!(
            rec.spans().next().unwrap().fields,
            vec![("result", Value::U64(42))]
        );
    }

    #[test]
    fn record_complete_counts_toward_parent_children() {
        let mut rec = FlightRecorder::new(16);
        let run = rec
            .open_at(t(0), "r", "run", TraceLevel::Info, vec![])
            .unwrap();
        rec.record_complete(t(0), t(3), "r", "step", TraceLevel::Debug, vec![]);
        rec.record_complete(t(3), t(6), "r", "step", TraceLevel::Debug, vec![]);
        rec.close_at(run, t(6));
        let run_stat = &rec.stats[&("r", "run")];
        assert_eq!(run_stat.self_s, 0.0);
        assert_eq!(rec.stats[&("r", "step")].total_s, 6.0);
    }

    #[test]
    fn summary_orders_by_self_time() {
        let mut rec = FlightRecorder::new(16);
        rec.record_complete(t(0), t(1), "a", "small", TraceLevel::Info, vec![]);
        rec.record_complete(t(0), t(9), "a", "big", TraceLevel::Info, vec![]);
        let summary = rec.summary();
        let big = summary.find("big").unwrap();
        let small = summary.find("small").unwrap();
        assert!(big < small, "{summary}");
        assert!(summary.contains("records: 2 kept"));
    }
}
