//! The discrete-event simulation engine.
//!
//! [`Sim`] is a cheaply cloneable handle to a single-threaded event queue.
//! Components capture a `Sim` clone (or receive `&Sim` in their event
//! callbacks) and schedule closures at future virtual instants. Events at
//! the same instant fire in scheduling order, which — together with the
//! seeded [`SimRng`] — makes every run bit-for-bit reproducible.
//!
//! # Cancellation
//!
//! Event and timer ids are generation-stamped slot references: the low
//! 32 bits index a slot, the high 32 bits carry the slot's generation at
//! scheduling time. Cancelling compares generations and flips a flag —
//! O(1), no tombstone set to grow without bound — and a slot is recycled
//! the moment its heap entry pops (whether it fired or was cancelled), so
//! memory stays proportional to the number of *outstanding* events, not
//! the number ever scheduled. A stale id (fired or cancelled) simply
//! mismatches its slot's generation and is ignored.

use std::cell::RefCell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use crate::intern::MetricKey;
use crate::obs::MetricsRegistry;
use crate::reqtrace::{ReqStamp, RequestTracer};
use crate::rng::SimRng;
use crate::span::{SpanId, SpanTracer};
use crate::time::SimTime;
use crate::trace::{Trace, TraceLevel};

/// Identifier of a scheduled (cancellable) event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// Identifier of a periodic timer created by [`Sim::every`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u64);

fn pack(slot: u32, gen: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(slot)
}

fn unpack(id: u64) -> (u32, u32) {
    (id as u32, (id >> 32) as u32)
}

/// One reusable id slot: the current generation plus whether the
/// generation's id is still live (scheduled and not cancelled).
#[derive(Debug, Clone, Copy)]
struct IdSlot {
    gen: u32,
    live: bool,
}

/// A generation-stamped slot arena. Allocation pops the free list (or
/// grows), cancellation flips `live`, and freeing bumps the generation so
/// every previously handed-out id for the slot goes stale.
#[derive(Debug, Default)]
struct SlotArena {
    slots: Vec<IdSlot>,
    free: Vec<u32>,
}

impl SlotArena {
    fn alloc(&mut self) -> (u32, u32) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(IdSlot {
                gen: 0,
                live: false,
            });
            (self.slots.len() - 1) as u32
        });
        let s = &mut self.slots[slot as usize];
        s.live = true;
        (slot, s.gen)
    }

    fn is_live(&self, id: u64) -> bool {
        let (slot, gen) = unpack(id);
        self.slots
            .get(slot as usize)
            .is_some_and(|s| s.gen == gen && s.live)
    }

    /// Marks a live id cancelled. Returns `true` only on the first
    /// cancellation of a still-pending id.
    fn cancel(&mut self, id: u64) -> bool {
        let (slot, gen) = unpack(id);
        match self.slots.get_mut(slot as usize) {
            Some(s) if s.gen == gen && s.live => {
                s.live = false;
                true
            }
            _ => false,
        }
    }

    /// Retires a slot once its owner is done with it: bumps the generation
    /// (staling every outstanding id) and returns it to the free list.
    /// Returns whether the retired generation was still live.
    fn free(&mut self, slot: u32) -> bool {
        let s = &mut self.slots[slot as usize];
        let was_live = s.live;
        s.live = false;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        was_live
    }
}

type Action = Box<dyn FnOnce(&Sim)>;

struct Scheduled {
    at: SimTime,
    seq: u64,
    id: EventId,
    action: Action,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Initial heap capacity: sized for a busy pod so steady-state stepping
/// never reallocates the queue's backing storage.
const QUEUE_PREALLOC: usize = 4096;

struct Inner {
    now: SimTime,
    next_seq: u64,
    events: SlotArena,
    timers: SlotArena,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Pending events that have not been cancelled — the true queue depth
    /// (the heap itself may briefly hold cancelled entries until they pop).
    live_pending: usize,
    rng: SimRng,
    trace: Trace,
    metrics: MetricsRegistry,
    spans: SpanTracer,
    processed: u64,
    queue_depth_max: usize,
    /// Cached `sim/*` gauge keys, interned on first publish.
    sim_gauge_keys: Option<[MetricKey; 3]>,
    /// Request-lifecycle tracer shared by every world of a run (inert by
    /// default).
    reqtracer: RequestTracer,
    /// Ambient trace stamp: set around synchronous call chains (client
    /// dispatch, server request handling) so downstream layers — rpc,
    /// disk — pick up the stamp without plumbing it through every
    /// signature.
    current_stamp: Option<ReqStamp>,
    /// Component teardown hooks, run once by [`Sim::teardown`]. Components
    /// whose closure tables form `Rc` cycles independent of the event
    /// queue (network handler maps, rpc handler maps, remount callbacks)
    /// register a breaker here at construction time.
    teardown_hooks: Vec<Box<dyn FnOnce()>>,
}

impl Inner {
    /// Pops heap entries until the head is live; returns the next live
    /// event's instant. Cancelled entries retire their slots here.
    fn drain_cancelled_head(&mut self) -> Option<SimTime> {
        loop {
            let ev = self.queue.peek()?;
            let Reverse(ev) = ev;
            if self.events.is_live(ev.id.0) {
                return Some(ev.at);
            }
            let Some(Reverse(ev)) = self.queue.pop() else {
                unreachable!("peeked entry vanished");
            };
            let (slot, _) = unpack(ev.id.0);
            self.events.free(slot);
        }
    }
}

/// Handle to the simulation engine.
///
/// # Examples
///
/// ```
/// use std::cell::Cell;
/// use std::rc::Rc;
/// use std::time::Duration;
/// use ustore_sim::{Sim, SimTime};
///
/// let sim = Sim::new(42);
/// let fired = Rc::new(Cell::new(false));
/// let f = fired.clone();
/// sim.schedule_in(Duration::from_millis(5), move |sim| {
///     assert_eq!(sim.now(), SimTime::from_millis(5));
///     f.set(true);
/// });
/// sim.run();
/// assert!(fired.get());
/// ```
#[derive(Clone)]
pub struct Sim {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Sim")
            .field("now", &inner.now)
            .field("pending", &inner.live_pending)
            .field("processed", &inner.processed)
            .finish()
    }
}

impl Sim {
    /// Creates a simulator whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            inner: Rc::new(RefCell::new(Inner {
                now: SimTime::ZERO,
                next_seq: 0,
                events: SlotArena::default(),
                timers: SlotArena::default(),
                queue: BinaryHeap::with_capacity(QUEUE_PREALLOC),
                live_pending: 0,
                rng: SimRng::seed_from(seed),
                trace: Trace::new(),
                metrics: MetricsRegistry::new(),
                spans: SpanTracer::new(),
                processed: 0,
                queue_depth_max: 0,
                sim_gauge_keys: None,
                reqtracer: RequestTracer::off(),
                current_stamp: None,
                teardown_hooks: Vec::new(),
            })),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.inner.borrow().processed
    }

    /// Number of live (not cancelled) events still pending.
    pub fn pending_events(&self) -> usize {
        self.inner.borrow().live_pending
    }

    /// Schedules `action` to fire at absolute instant `at`.
    ///
    /// Events scheduled in the past (relative to [`Sim::now`]) fire
    /// immediately on the next engine step, preserving scheduling order.
    pub fn schedule_at(&self, at: SimTime, action: impl FnOnce(&Sim) + 'static) -> EventId {
        let mut inner = self.inner.borrow_mut();
        let at = at.max(inner.now);
        let (slot, gen) = inner.events.alloc();
        let id = EventId(pack(slot, gen));
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queue.push(Reverse(Scheduled {
            at,
            seq,
            id,
            action: Box::new(action),
        }));
        inner.live_pending += 1;
        inner.queue_depth_max = inner.queue_depth_max.max(inner.live_pending);
        id
    }

    /// Schedules `action` to fire after `delay`.
    pub fn schedule_in(&self, delay: Duration, action: impl FnOnce(&Sim) + 'static) -> EventId {
        let at = self.now() + delay;
        self.schedule_at(at, action)
    }

    /// Schedules `action` at the current instant, after already-queued
    /// same-instant events.
    pub fn schedule_now(&self, action: impl FnOnce(&Sim) + 'static) -> EventId {
        let at = self.now();
        self.schedule_at(at, action)
    }

    /// Cancels a scheduled event. Returns `true` if the event had not yet
    /// fired or been cancelled. O(1): the event's slot generation is
    /// compared and its live flag cleared; no per-cancel allocation.
    pub fn cancel(&self, id: EventId) -> bool {
        let mut inner = self.inner.borrow_mut();
        if inner.events.cancel(id.0) {
            inner.live_pending -= 1;
            true
        } else {
            false
        }
    }

    /// Creates a periodic timer: `action` fires every `interval`, first
    /// after `first_in`, until [`Sim::cancel_timer`] is called.
    pub fn every(
        &self,
        first_in: Duration,
        interval: Duration,
        action: impl FnMut(&Sim) + 'static,
    ) -> TimerId {
        assert!(
            interval > Duration::ZERO,
            "every: interval must be positive"
        );
        let id = {
            let mut inner = self.inner.borrow_mut();
            let (slot, gen) = inner.timers.alloc();
            TimerId(pack(slot, gen))
        };
        let action = Rc::new(RefCell::new(action));
        fn arm(
            sim: &Sim,
            delay: Duration,
            interval: Duration,
            id: TimerId,
            action: Rc<RefCell<dyn FnMut(&Sim)>>,
        ) {
            sim.schedule_in(delay, move |sim| {
                if !sim.inner.borrow().timers.is_live(id.0) {
                    return;
                }
                (action.borrow_mut())(sim);
                // Re-check: the action itself may have cancelled the timer.
                if sim.inner.borrow().timers.is_live(id.0) {
                    arm(sim, interval, interval, id, action);
                }
            });
        }
        arm(self, first_in, interval, id, action);
        id
    }

    /// Stops a periodic timer. Returns `true` on first cancellation. O(1);
    /// the timer's slot is recycled immediately.
    pub fn cancel_timer(&self, id: TimerId) -> bool {
        let mut inner = self.inner.borrow_mut();
        if inner.timers.cancel(id.0) {
            let (slot, _) = unpack(id.0);
            inner.timers.free(slot);
            true
        } else {
            false
        }
    }

    /// Runs a single pending event. Returns `false` when the queue is empty.
    pub fn step(&self) -> bool {
        loop {
            let action = {
                let mut inner = self.inner.borrow_mut();
                let Some(Reverse(ev)) = inner.queue.pop() else {
                    return false;
                };
                let (slot, _) = unpack(ev.id.0);
                if !inner.events.free(slot) {
                    continue; // cancelled: slot retired, entry dropped
                }
                inner.live_pending -= 1;
                inner.now = ev.at;
                inner.processed += 1;
                ev.action
            };
            action(self);
            return true;
        }
    }

    /// Runs until the event queue is exhausted.
    pub fn run(&self) {
        while self.step() {}
    }

    /// Installs the request-lifecycle tracer for this world. Every world
    /// of a sharded run shares clones of one tracer; the default is the
    /// inert [`RequestTracer::off`].
    ///
    /// The tracer observes sim timestamps only — it never draws RNG,
    /// schedules events, or touches digested telemetry (see
    /// [`crate::reqtrace`]).
    pub fn set_reqtracer(&self, tracer: RequestTracer) {
        self.inner.borrow_mut().reqtracer = tracer;
    }

    /// A clone of this world's request tracer (inert unless installed).
    pub fn reqtracer(&self) -> RequestTracer {
        self.inner.borrow().reqtracer.clone()
    }

    /// Sets the ambient trace stamp for the current synchronous call
    /// chain (see the `current_stamp` field). Callers must clear it
    /// (`None`) when the scope ends.
    pub fn set_current_stamp(&self, stamp: Option<ReqStamp>) {
        self.inner.borrow_mut().current_stamp = stamp;
    }

    /// The ambient trace stamp, if a traced scope is active.
    pub fn current_stamp(&self) -> Option<ReqStamp> {
        self.inner.borrow().current_stamp
    }

    /// Runs all events scheduled at or before `deadline`, then advances the
    /// clock to `deadline` even if the queue still holds later events.
    /// Returns the number of events executed by this call.
    pub fn run_until(&self, deadline: SimTime) -> u64 {
        let before = self.inner.borrow().processed;
        loop {
            let next_at = self.inner.borrow_mut().drain_cancelled_head();
            match next_at {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        let mut inner = self.inner.borrow_mut();
        inner.now = inner.now.max(deadline);
        inner.processed - before
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&self, d: Duration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Drops every pending event and timer without running it.
    ///
    /// Scheduled closures capture `Sim` clones (and component handles
    /// that in turn capture `Sim`), so a finished run whose queue still
    /// holds recurring timers — heartbeats, scrub passes, scraper ticks —
    /// is an `Rc` cycle that outlives every external handle: a benchmark
    /// harness executing many runs in one process leaks each run's whole
    /// heap. Calling this after telemetry export breaks those cycles.
    /// The handle remains usable as a clock (`now()`), but nothing is
    /// left to run and nothing new should be scheduled.
    ///
    /// The queue, arenas and their closures are moved out and dropped
    /// *after* the engine borrow is released, so closure drops that
    /// release component `Rc`s can never observe a held borrow.
    ///
    /// Before the queue is dropped, every hook registered through
    /// [`Sim::on_teardown`] runs (in registration order). Components whose
    /// closure tables cycle independently of the queue — a network node's
    /// handler captures an rpc endpoint whose handler map captures the
    /// component that owns the endpoint — register breakers there, so one
    /// `teardown()` call releases the whole component graph.
    pub fn teardown(&self) {
        let hooks = std::mem::take(&mut self.inner.borrow_mut().teardown_hooks);
        for hook in hooks {
            hook();
        }
        let retained = {
            let mut inner = self.inner.borrow_mut();
            inner.live_pending = 0;
            (
                std::mem::take(&mut inner.queue),
                std::mem::take(&mut inner.events),
                std::mem::take(&mut inner.timers),
            )
        };
        drop(retained);
    }

    /// Registers a hook to run once at [`Sim::teardown`] time, before the
    /// event queue is dropped. Hooks must not schedule events or touch the
    /// engine; they exist purely to break component-level `Rc` cycles
    /// (clear handler maps, drop callback vectors). Hooks should capture
    /// components weakly where possible so the registry itself never keeps
    /// a component alive.
    pub fn on_teardown(&self, hook: impl FnOnce() + 'static) {
        self.inner.borrow_mut().teardown_hooks.push(Box::new(hook));
    }

    /// The instant of the earliest live pending event, if any.
    ///
    /// Used by the shard coordinator's merged clock: when every world is
    /// idle past the current epoch barrier, the coordinator jumps straight
    /// to the minimum `next_event_at` across worlds instead of stepping
    /// through empty epochs.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.inner.borrow_mut().drain_cancelled_head()
    }

    /// Applies `f` to the simulation's RNG.
    ///
    /// Taking a closure (rather than returning a guard) prevents accidental
    /// re-entrant borrows while the RNG is held.
    pub fn with_rng<R>(&self, f: impl FnOnce(&mut SimRng) -> R) -> R {
        f(&mut self.inner.borrow_mut().rng)
    }

    /// Derives an independent RNG stream for a component.
    pub fn fork_rng(&self, label: &str) -> SimRng {
        self.with_rng(|r| r.fork(label))
    }

    /// Records a trace event at the current virtual time.
    ///
    /// Skips all work (including the component copy) when `level` is below
    /// the recorder's minimum.
    pub fn trace(&self, level: TraceLevel, component: &str, message: impl Into<String>) {
        let mut inner = self.inner.borrow_mut();
        if !inner.trace.enabled(level) {
            return;
        }
        let now = inner.now;
        inner.trace.record(now, level, component, message.into());
    }

    /// Applies `f` to the trace recorder (to configure or inspect it).
    pub fn with_trace<R>(&self, f: impl FnOnce(&mut Trace) -> R) -> R {
        f(&mut self.inner.borrow_mut().trace)
    }

    // ---- Metrics ----------------------------------------------------------

    /// Adds `n` to the counter `component/name`.
    pub fn count(&self, component: &str, name: &str, n: u64) {
        self.inner
            .borrow_mut()
            .metrics
            .counter_add(component, name, n);
    }

    /// Sets the gauge `component/name` to `v`.
    pub fn gauge_set(&self, component: &str, name: &str, v: f64) {
        self.inner
            .borrow_mut()
            .metrics
            .gauge_set(component, name, v);
    }

    /// Adds `v` (may be negative) to the gauge `component/name`.
    pub fn gauge_add(&self, component: &str, name: &str, v: f64) {
        self.inner
            .borrow_mut()
            .metrics
            .gauge_add(component, name, v);
    }

    /// Records a histogram sample under `component/name`.
    pub fn observe(&self, component: &str, name: &str, v: u64) {
        self.inner.borrow_mut().metrics.observe(component, name, v);
    }

    /// Records a [`Duration`] histogram sample under `component/name`.
    pub fn observe_duration(&self, component: &str, name: &str, d: Duration) {
        self.inner
            .borrow_mut()
            .metrics
            .observe_duration(component, name, d);
    }

    /// Registers (or finds) the counter `component/name` and returns a
    /// cheap handle: string resolution happens once, here, and every
    /// [`CounterHandle::add`] afterwards is an array index.
    pub fn counter(&self, component: &str, name: &str) -> CounterHandle {
        let key = self.inner.borrow_mut().metrics.key(component, name);
        CounterHandle {
            sim: self.clone(),
            key,
        }
    }

    /// Registers (or finds) the gauge `component/name`; see [`Sim::counter`].
    pub fn gauge(&self, component: &str, name: &str) -> GaugeHandle {
        let key = self.inner.borrow_mut().metrics.key(component, name);
        GaugeHandle {
            sim: self.clone(),
            key,
        }
    }

    /// Registers (or finds) the histogram `component/name`; see
    /// [`Sim::counter`].
    pub fn histogram(&self, component: &str, name: &str) -> HistogramHandle {
        let key = self.inner.borrow_mut().metrics.key(component, name);
        HistogramHandle {
            sim: self.clone(),
            key,
        }
    }

    /// Applies `f` to the metrics registry (to query or mutate it).
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut self.inner.borrow_mut().metrics)
    }

    /// Refreshes the engine's own gauges in the registry:
    /// `sim/queue_depth` (live pending events — cancelled entries are not
    /// counted), `sim/queue_depth_max` (peak live depth) and
    /// `sim/events_executed`.
    pub fn publish_engine_gauges(&self) {
        let mut inner = self.inner.borrow_mut();
        let depth = inner.live_pending as f64;
        let depth_max = inner.queue_depth_max as f64;
        let processed = inner.processed as f64;
        let keys = match inner.sim_gauge_keys {
            Some(keys) => keys,
            None => {
                let keys = [
                    inner.metrics.key("sim", "queue_depth"),
                    inner.metrics.key("sim", "queue_depth_max"),
                    inner.metrics.key("sim", "events_executed"),
                ];
                inner.sim_gauge_keys = Some(keys);
                keys
            }
        };
        inner.metrics.gauge_set_key(keys[0], depth);
        inner.metrics.gauge_set_key(keys[1], depth_max);
        inner.metrics.gauge_set_key(keys[2], processed);
    }

    /// A point-in-time copy of the metrics registry, with the engine's own
    /// gauges (see [`Sim::publish_engine_gauges`]) refreshed first.
    /// Per-component event counts come from the components' own counters.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        self.publish_engine_gauges();
        self.inner.borrow().metrics.snapshot()
    }

    // ---- Spans ------------------------------------------------------------

    /// Starts a root span at the current instant; mirrored into the trace
    /// buffer at `Debug` level (skipped entirely — no formatting — when the
    /// trace recorder drops `Debug`).
    pub fn span_start(&self, component: &str, name: &str) -> SpanId {
        self.span_open(component, name, None)
    }

    /// Starts a span nested under `parent` at the current instant.
    pub fn span_child(&self, parent: SpanId, component: &str, name: &str) -> SpanId {
        self.span_open(component, name, Some(parent))
    }

    fn span_open(&self, component: &str, name: &str, parent: Option<SpanId>) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        let now = inner.now;
        let id = inner.spans.start(now, component, name, parent);
        if inner.trace.enabled(TraceLevel::Debug) {
            inner.trace.record(
                now,
                TraceLevel::Debug,
                component,
                format!("span start {name}"),
            );
        }
        id
    }

    /// Ends a span at the current instant (idempotent).
    pub fn span_end(&self, id: SpanId) {
        let mut inner = self.inner.borrow_mut();
        let now = inner.now;
        inner.spans.end(now, id);
        if inner.trace.enabled(TraceLevel::Debug) {
            if let Some(span) = inner.spans.get(id) {
                let (component, line) = (span.component.clone(), format!("span end {}", span.name));
                inner.trace.record(now, TraceLevel::Debug, &component, line);
            }
        }
    }

    /// Attaches (or overrides) a `key=value` attribute on a span.
    pub fn span_attr(&self, id: SpanId, key: &str, value: impl Into<String>) {
        self.inner
            .borrow_mut()
            .spans
            .set_attr(id, key, value.into());
    }

    /// The most recently started still-open span named `name`, if any.
    pub fn find_open_span(&self, name: &str) -> Option<SpanId> {
        self.inner.borrow().spans.find_open(name)
    }

    /// Applies `f` to the span tracer (to query or export it).
    pub fn with_spans<R>(&self, f: impl FnOnce(&mut SpanTracer) -> R) -> R {
        f(&mut self.inner.borrow_mut().spans)
    }
}

/// A pre-resolved counter: created once via [`Sim::counter`], incremented
/// on the hot path without hashing or allocating.
#[derive(Debug, Clone)]
pub struct CounterHandle {
    sim: Sim,
    key: MetricKey,
}

impl CounterHandle {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.sim
            .inner
            .borrow_mut()
            .metrics
            .counter_add_key(self.key, n);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The counter's current value.
    pub fn get(&self) -> u64 {
        self.sim.inner.borrow().metrics.counter_key(self.key)
    }

    /// The underlying registry key.
    pub fn key(&self) -> MetricKey {
        self.key
    }
}

/// A pre-resolved gauge: created once via [`Sim::gauge`].
#[derive(Debug, Clone)]
pub struct GaugeHandle {
    sim: Sim,
    key: MetricKey,
}

impl GaugeHandle {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: f64) {
        self.sim
            .inner
            .borrow_mut()
            .metrics
            .gauge_set_key(self.key, v);
    }

    /// Adds `v` (may be negative), creating the gauge at zero.
    pub fn add(&self, v: f64) {
        self.sim
            .inner
            .borrow_mut()
            .metrics
            .gauge_add_key(self.key, v);
    }

    /// The gauge's current value, if set.
    pub fn get(&self) -> Option<f64> {
        self.sim.inner.borrow().metrics.gauge_value(self.key)
    }

    /// The underlying registry key.
    pub fn key(&self) -> MetricKey {
        self.key
    }
}

/// A pre-resolved histogram: created once via [`Sim::histogram`].
#[derive(Debug, Clone)]
pub struct HistogramHandle {
    sim: Sim,
    key: MetricKey,
}

impl HistogramHandle {
    /// Records one sample (typically nanoseconds).
    pub fn observe(&self, v: u64) {
        self.sim.inner.borrow_mut().metrics.observe_key(self.key, v);
    }

    /// Records a [`Duration`] sample in nanoseconds.
    pub fn observe_duration(&self, d: Duration) {
        self.sim
            .inner
            .borrow_mut()
            .metrics
            .observe_duration_key(self.key, d);
    }

    /// The underlying registry key.
    pub fn key(&self) -> MetricKey {
        self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell as StdRefCell;

    fn log_handle() -> (Rc<StdRefCell<Vec<u32>>>, impl Fn(u32) -> Box<dyn Fn(&Sim)>) {
        let log = Rc::new(StdRefCell::new(Vec::new()));
        let l = log.clone();
        let push = move |v: u32| -> Box<dyn Fn(&Sim)> {
            let l = l.clone();
            Box::new(move |_s: &Sim| l.borrow_mut().push(v))
        };
        (log, push)
    }

    #[test]
    fn events_fire_in_time_order() {
        let sim = Sim::new(0);
        let (log, push) = log_handle();
        let p2 = push(2);
        let p1 = push(1);
        let p3 = push(3);
        sim.schedule_at(SimTime::from_millis(20), move |s| p2(s));
        sim.schedule_at(SimTime::from_millis(10), move |s| p1(s));
        sim.schedule_at(SimTime::from_millis(30), move |s| p3(s));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_millis(30));
    }

    #[test]
    fn same_instant_fifo() {
        let sim = Sim::new(0);
        let (log, push) = log_handle();
        for i in 0..5 {
            let p = push(i);
            sim.schedule_at(SimTime::from_millis(1), move |s| p(s));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cancel_prevents_firing() {
        let sim = Sim::new(0);
        let (log, push) = log_handle();
        let p = push(7);
        let id = sim.schedule_in(Duration::from_millis(1), move |s| p(s));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "second cancel reports false");
        sim.run();
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn cancel_after_fire_reports_false() {
        let sim = Sim::new(0);
        let id = sim.schedule_in(Duration::from_millis(1), |_| {});
        sim.run();
        assert!(!sim.cancel(id), "fired event is not cancellable");
    }

    #[test]
    fn slots_are_reused_and_stale_ids_stay_dead() {
        let sim = Sim::new(0);
        // Schedule + fire a batch; the slots all recycle.
        let mut old_ids = Vec::new();
        for i in 0..8u64 {
            old_ids.push(sim.schedule_at(SimTime::from_nanos(i), |_| {}));
        }
        sim.run();
        // New events reuse the retired slots with a bumped generation …
        let (log, push) = log_handle();
        let p = push(1);
        let fresh = sim.schedule_in(Duration::from_millis(1), move |s| p(s));
        // … so cancelling any stale id must not disturb the fresh event.
        for id in old_ids {
            assert!(!sim.cancel(id));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1]);
        assert!(!sim.cancel(fresh));
    }

    #[test]
    fn pending_events_excludes_cancelled() {
        let sim = Sim::new(0);
        let a = sim.schedule_in(Duration::from_millis(1), |_| {});
        let _b = sim.schedule_in(Duration::from_millis(2), |_| {});
        assert_eq!(sim.pending_events(), 2);
        sim.cancel(a);
        assert_eq!(sim.pending_events(), 1, "cancelled event is not pending");
        sim.run();
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn cancellation_does_not_accumulate_state() {
        // A schedule/cancel churn loop must not grow memory: every slot is
        // recycled once its heap entry pops. Verified via live_pending and
        // the engine's own gauges staying flat.
        let sim = Sim::new(0);
        for round in 0..1000u64 {
            let id = sim.schedule_in(Duration::from_millis(5), |_| {});
            sim.cancel(id);
            sim.run_until(SimTime::from_millis(round));
        }
        assert_eq!(sim.pending_events(), 0);
        let m = sim.metrics_snapshot();
        assert_eq!(m.gauge("sim", "queue_depth"), Some(0.0));
        assert_eq!(m.gauge("sim", "queue_depth_max"), Some(1.0));
    }

    #[test]
    fn events_can_schedule_events() {
        let sim = Sim::new(0);
        let (log, push) = log_handle();
        let p1 = push(1);
        let p2 = push(2);
        sim.schedule_in(Duration::from_millis(1), move |s| {
            p1(s);
            let p2 = p2;
            s.schedule_in(Duration::from_millis(1), move |s| p2(s));
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_millis(2));
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let sim = Sim::new(0);
        let (log, push) = log_handle();
        let p1 = push(1);
        let p2 = push(2);
        sim.schedule_at(SimTime::from_millis(5), move |s| p1(s));
        sim.schedule_at(SimTime::from_millis(50), move |s| p2(s));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(*log.borrow(), vec![1]);
        assert_eq!(sim.now(), SimTime::from_millis(10));
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2]);
    }

    #[test]
    fn periodic_timer_fires_until_cancelled() {
        let sim = Sim::new(0);
        let count = Rc::new(StdRefCell::new(0u32));
        let c = count.clone();
        let id = sim.every(
            Duration::from_millis(10),
            Duration::from_millis(10),
            move |_| {
                *c.borrow_mut() += 1;
            },
        );
        sim.run_until(SimTime::from_millis(35));
        assert_eq!(*count.borrow(), 3);
        sim.cancel_timer(id);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(*count.borrow(), 3);
    }

    #[test]
    fn timer_can_cancel_itself() {
        let sim = Sim::new(0);
        let count = Rc::new(StdRefCell::new(0u32));
        let c = count.clone();
        let cell: Rc<StdRefCell<Option<TimerId>>> = Rc::new(StdRefCell::new(None));
        let cell2 = cell.clone();
        let id = sim.every(
            Duration::from_millis(1),
            Duration::from_millis(1),
            move |s| {
                *c.borrow_mut() += 1;
                if *c.borrow() == 2 {
                    s.cancel_timer(cell2.borrow().expect("timer id set"));
                }
            },
        );
        *cell.borrow_mut() = Some(id);
        sim.run_until(SimTime::from_millis(20));
        assert_eq!(*count.borrow(), 2);
    }

    #[test]
    fn timer_slot_reuse_does_not_resurrect_cancelled_timers() {
        let sim = Sim::new(0);
        let count = Rc::new(StdRefCell::new(0u32));
        let c = count.clone();
        let old = sim.every(
            Duration::from_millis(10),
            Duration::from_millis(10),
            move |_| {
                *c.borrow_mut() += 1;
            },
        );
        assert!(sim.cancel_timer(old));
        assert!(!sim.cancel_timer(old), "second cancel reports false");
        // A new timer reuses the freed slot; the old timer's armed event
        // must not fire the new timer's (or its own) action.
        let c2 = count.clone();
        let fresh = sim.every(
            Duration::from_millis(100),
            Duration::from_millis(100),
            move |_| {
                *c2.borrow_mut() += 100;
            },
        );
        sim.run_until(SimTime::from_millis(250));
        assert_eq!(*count.borrow(), 200, "only the fresh timer fired");
        assert!(!sim.cancel_timer(old), "stale id stays dead");
        sim.cancel_timer(fresh);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let sim = Sim::new(0);
        sim.run_until(SimTime::from_millis(10));
        let (log, push) = log_handle();
        let p = push(1);
        sim.schedule_at(SimTime::from_millis(1), move |s| p(s));
        sim.run();
        assert_eq!(*log.borrow(), vec![1]);
        assert_eq!(sim.now(), SimTime::from_millis(10));
    }

    #[test]
    fn deterministic_rng_across_clones() {
        let sim = Sim::new(77);
        let a = sim.clone().with_rng(|r| r.next_u64());
        let sim2 = Sim::new(77);
        let b = sim2.with_rng(|r| r.next_u64());
        assert_eq!(a, b);
    }

    #[test]
    fn processed_counter() {
        let sim = Sim::new(0);
        for i in 0..4u64 {
            sim.schedule_at(SimTime::from_nanos(i), |_| {});
        }
        sim.run();
        assert_eq!(sim.events_processed(), 4);
    }

    #[test]
    fn run_until_skips_cancelled_head() {
        let sim = Sim::new(0);
        let (log, push) = log_handle();
        let p = push(1);
        let id = sim.schedule_at(SimTime::from_millis(1), move |s| p(s));
        sim.cancel(id);
        sim.run_until(SimTime::from_millis(5));
        assert!(log.borrow().is_empty());
        assert_eq!(sim.now(), SimTime::from_millis(5));
    }

    #[test]
    fn metric_handles_share_the_registry_with_string_calls() {
        let sim = Sim::new(0);
        let ops = sim.counter("c", "ops");
        let depth = sim.gauge("c", "depth");
        let lat = sim.histogram("c", "lat");
        ops.inc();
        ops.add(2);
        sim.count("c", "ops", 1);
        depth.set(4.0);
        depth.add(-1.5);
        lat.observe(100);
        lat.observe_duration(Duration::from_nanos(300));
        assert_eq!(ops.get(), 4);
        assert_eq!(depth.get(), Some(2.5));
        let m = sim.metrics_snapshot();
        assert_eq!(m.counter("c", "ops"), 4);
        assert_eq!(m.gauge("c", "depth"), Some(2.5));
        assert_eq!(m.histogram("c", "lat").unwrap().count(), 2);
    }
}
