//! Conservative parallel discrete-event simulation with adaptive epochs.
//!
//! A simulation is partitioned into a fixed set of *worlds*, each a
//! single-threaded [`Sim`] with its own event queue, RNG stream, and
//! telemetry registries. Worlds only interact through explicitly routed
//! messages whose delivery is at least one *lookahead* in the future.
//! Unlike the original lockstep design (one global lookahead, one barrier
//! per lookahead interval), synchronization is driven by three pieces:
//!
//! * a per-world-pair [`LookaheadMatrix`] — the minimum latency any
//!   message from world `i` to world `j` can have, with unreachable pairs
//!   at `+∞` — derived from the network topology rather than a single
//!   global `base_latency`;
//! * an LBTS-style *epoch coalescing* scheduler: every world publishes
//!   its earliest pending event and the earliest undelivered inbound
//!   message, the coordinator solves the conservative fixpoint
//!   `E_i = min(Q_i, min_k(E_k + L[k][i]))` and grants each world a run
//!   bound `B_j = min(target, min_k(E_k + L[k][j]))` — so the engine
//!   jumps over dead air instead of stepping one lookahead at a time.
//!   Outer *windows* (the `epochs` counter) advance the global floor by a
//!   coalescing quantum of `256 ×` the smallest finite lookahead; inner
//!   *sync rounds* (the `sync_rounds` counter) iterate the fixpoint until
//!   every world's next work lies at or beyond the window target. Only
//!   worlds with runnable work are dispatched in a round — idle workers
//!   stay parked;
//! * a spin-then-park gate rendezvous with zero-allocation message
//!   exchange: bounds and next-event times travel through atomics,
//!   batches through reusable per-world buffer slots that circulate by
//!   `mem::swap`, so the steady state allocates nothing per round.
//!
//! Determinism is independent of both the number of executor shards and
//! thread scheduling because:
//!
//! 1. the world decomposition is fixed by the scenario (shard count only
//!    chooses how many OS threads execute the fixed worlds),
//! 2. each world's RNG stream is seeded from `(root_seed, world_id)` and
//!    consumed only by that world's single-threaded engine,
//! 3. all scheduling decisions (fixpoint, bounds, active sets) are pure
//!    functions of deterministic simulation state — never of thread
//!    timing — and pending messages are injected into a world only in
//!    rounds where that world is active, regardless of which thread hosts
//!    it, and
//! 4. cross-world batches are sorted into the canonical total order
//!    `(deliver_at, src_world, seq)` — see [`canonical_sort`] — by the
//!    owning thread at injection time, which does not depend on gather
//!    order or thread finish order.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::Sim;
use crate::prof::{Phase, ProfTrack, Profiler};
use crate::time::SimTime;

/// Sentinel for "no event / unreachable" in nanosecond timelines.
const NEVER: u64 = u64::MAX;

fn ns_opt(t: Option<SimTime>) -> u64 {
    t.map_or(NEVER, |t| t.as_nanos())
}

/// A cross-world message captured at its source world, tagged with enough
/// metadata for the canonical merge at the epoch barrier.
#[derive(Debug, Clone)]
pub struct Routed<M> {
    /// Absolute delivery instant, computed at send time on the source
    /// world (includes serialization + propagation + jitter).
    pub deliver_at: SimTime,
    /// Source world id.
    pub src_world: usize,
    /// Destination world id.
    pub dst_world: usize,
    /// Per-source-world monotone sequence number (send order).
    pub seq: u64,
    /// The message itself.
    pub msg: M,
}

/// Per-world-pair minimum cross-world latency: `L[src][dst]` is a lower
/// bound on `deliver_at − send_at` for any message from `src` to `dst`,
/// and `+∞` (absent) for pairs that can never exchange messages.
///
/// The matrix is what makes adaptive epochs safe: the coordinator's LBTS
/// fixpoint relaxes only finite edges, so a pair that cannot talk never
/// constrains either side's run bound, and a sparse topology (e.g. the
/// star control-plane pattern of the sharded pod) yields far longer
/// epochs than one global lookahead.
///
/// Every finite entry must be strictly positive — a zero lookahead would
/// admit same-instant feedback loops and stall the fixpoint.
#[derive(Debug, Clone)]
pub struct LookaheadMatrix {
    worlds: usize,
    /// Row-major `worlds × worlds` nanosecond entries; `NEVER` encodes
    /// "unreachable". The diagonal is always `NEVER` (worlds do not route
    /// messages to themselves).
    ns: Vec<u64>,
}

impl LookaheadMatrix {
    /// A matrix with no reachable pairs (start here and [`Self::set`]
    /// the edges the topology allows).
    pub fn disconnected(worlds: usize) -> Self {
        LookaheadMatrix {
            worlds,
            ns: vec![NEVER; worlds * worlds],
        }
    }

    /// Every ordered pair of distinct worlds reachable with the same
    /// lookahead — the behaviour of the original single-lookahead engine.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero.
    pub fn uniform(worlds: usize, lookahead: Duration) -> Self {
        let mut m = Self::disconnected(worlds);
        for src in 0..worlds {
            for dst in 0..worlds {
                if src != dst {
                    m.set(src, dst, lookahead);
                }
            }
        }
        m
    }

    /// Builds the matrix from a reachability predicate: every ordered
    /// pair `(src, dst)` with `src != dst` and `reachable(src, dst)` gets
    /// `min_latency`; everything else stays unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `min_latency` is zero.
    pub fn from_reachability(
        worlds: usize,
        min_latency: Duration,
        reachable: impl Fn(usize, usize) -> bool,
    ) -> Self {
        let mut m = Self::disconnected(worlds);
        for src in 0..worlds {
            for dst in 0..worlds {
                if src != dst && reachable(src, dst) {
                    m.set(src, dst, min_latency);
                }
            }
        }
        m
    }

    /// Declares `src → dst` reachable with the given minimum latency.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`, either id is out of range, or `lookahead`
    /// is zero.
    pub fn set(&mut self, src: usize, dst: usize, lookahead: Duration) {
        assert!(src != dst, "worlds do not route to themselves");
        assert!(
            src < self.worlds && dst < self.worlds,
            "world id out of range"
        );
        assert!(
            lookahead > Duration::ZERO,
            "lookahead matrix entries must be positive"
        );
        self.ns[src * self.worlds + dst] = lookahead.as_nanos() as u64;
    }

    /// Number of worlds the matrix covers.
    pub fn worlds(&self) -> usize {
        self.worlds
    }

    /// The `src → dst` lookahead in nanoseconds, `u64::MAX` when
    /// unreachable.
    pub fn get_ns(&self, src: usize, dst: usize) -> u64 {
        self.ns[src * self.worlds + dst]
    }

    /// Whether `src` can ever deliver a message to `dst`.
    pub fn reachable(&self, src: usize, dst: usize) -> bool {
        self.get_ns(src, dst) != NEVER
    }

    /// The smallest finite lookahead across all reachable pairs, `None`
    /// for a fully disconnected matrix.
    pub fn min_finite(&self) -> Option<Duration> {
        self.ns
            .iter()
            .copied()
            .filter(|&v| v != NEVER)
            .min()
            .map(Duration::from_nanos)
    }
}

/// One world of a sharded simulation. Implementations own a [`Sim`] plus
/// whatever model state lives in it; they are *not* `Send` — each world is
/// constructed and driven on exactly one thread.
pub trait ShardWorld {
    /// The cross-world message type (must be sendable between threads).
    type Msg: Send + 'static;

    /// The world's engine.
    fn sim(&self) -> &Sim;

    /// Appends every cross-world message buffered since the previous
    /// drain to `out`, in send order, leaving the internal buffer empty
    /// (capacity preserved so the steady state allocates nothing).
    fn drain_outbox_into(&mut self, out: &mut Vec<Routed<Self::Msg>>);

    /// Injects messages destined for this world, draining `batch` (the
    /// caller recycles its capacity). The batch arrives in the canonical
    /// merge order and every `deliver_at` is at or after the world's
    /// current instant.
    fn deliver(&mut self, batch: &mut Vec<Routed<Self::Msg>>);

    /// Consumes the world at the end of the run, returning its telemetry
    /// (downcast by the driver).
    fn finalize(self: Box<Self>) -> Box<dyn Any + Send>;
}

/// Builder for a world that will live on a spawned worker thread. The
/// closure runs *on that thread* so the world never crosses threads.
pub type WorldBuilder<M> = Box<dyn FnOnce() -> Box<dyn ShardWorld<Msg = M>> + Send>;

/// Sorts cross-world messages into the canonical total order
/// `(deliver_at, src_world, seq)` in place.
///
/// `(src_world, seq)` is unique per message, so this is a total order:
/// an unstable sort is observationally stable and the result is
/// independent of the input permutation — in particular of the order
/// worker threads happened to finish a round.
pub fn canonical_sort<M>(msgs: &mut [Routed<M>]) {
    msgs.sort_unstable_by_key(|r| (r.deliver_at, r.src_world, r.seq));
}

/// Sorts cross-world messages into the canonical total order
/// `(deliver_at, src_world, seq)` (allocating convenience wrapper around
/// [`canonical_sort`]).
pub fn canonical_merge<M>(mut msgs: Vec<Routed<M>>) -> Vec<Routed<M>> {
    canonical_sort(&mut msgs);
    msgs
}

/// A reusable one-shot rendezvous: `open` publishes a new generation,
/// `wait` spins briefly (cheap when the other side is about to arrive)
/// and then parks on a condvar.
///
/// The generation counter makes the gate sense-reversing without a
/// separate phase flag: each waiter tracks the last generation it saw and
/// wakes when the counter moves past it. `open`/`wait` use `SeqCst` on
/// the counter and the sleeper count so the "check sleepers after
/// bumping seq" / "register sleeper then re-check seq under the lock"
/// pair can never miss a wakeup, and the `SeqCst` bump doubles as the
/// release/acquire edge ordering the relaxed payload atomics around it.
struct Gate {
    seq: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            seq: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Opens the gate for the next generation, waking any parked waiter.
    fn open(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    /// Waits until the generation moves past `seen`; returns the new
    /// generation for the next wait.
    fn wait(&self, seen: u64) -> u64 {
        for _ in 0..64 {
            let cur = self.seq.load(Ordering::Acquire);
            if cur != seen {
                return cur;
            }
            std::hint::spin_loop();
        }
        for _ in 0..32 {
            let cur = self.seq.load(Ordering::Acquire);
            if cur != seen {
                return cur;
            }
            std::thread::yield_now();
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut g = self.lock.lock().unwrap();
        while self.seq.load(Ordering::SeqCst) == seen {
            g = self.cv.wait(g).unwrap();
        }
        drop(g);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        self.seq.load(Ordering::Acquire)
    }
}

/// Coordinator↔worker rendezvous pair: the coordinator opens `go` after
/// publishing a round, the worker opens `done` after finishing it.
struct WorkerGates {
    go: Gate,
    done: Gate,
}

/// Lock-free-ish state shared between the coordinator and every worker.
/// Bounds and next-event times are relaxed atomics (ordered by the gate
/// generations); message batches travel through per-world mutex slots
/// whose buffers circulate by `mem::swap` so no round allocates.
struct Shared<M> {
    /// Per-world run bound (ns) for the current round; `NEVER` means the
    /// world is not active this round.
    bounds: Vec<AtomicU64>,
    /// Per-world earliest pending event (ns), republished by the owner
    /// after every round it runs.
    next_events: Vec<AtomicU64>,
    /// Coordinator → owner batch slot (canonically unsorted; the owner
    /// sorts at injection).
    inboxes: Vec<Mutex<Vec<Routed<M>>>>,
    /// Owner → coordinator batch slot (drained every round the world ran).
    outboxes: Vec<Mutex<Vec<Routed<M>>>>,
    /// Set once before the final `go` to make workers finalize.
    stop: AtomicBool,
}

enum Reply {
    /// Sent once after construction; the initial outbox and next-event
    /// publication goes through the shared slots/atomics.
    Ready,
    Finalized(Vec<(usize, Box<dyn Any + Send>)>),
}

struct Worker {
    gates: Arc<WorkerGates>,
    /// Last `done` generation observed (strict ping-pong with `go`).
    done_seen: u64,
    reply: Receiver<Reply>,
    /// World ids hosted by this worker, in its local order.
    world_ids: Vec<usize>,
    handle: Option<JoinHandle<()>>,
}

/// The worlds one engine thread executes — the coordinator's local worlds
/// or one worker's — together with that thread's profiler track.
///
/// Every round of every world goes through [`Host::step`], so the round
/// body (inject, execute, drain, republish) and its phase accounting
/// exist once for both kinds of thread.
struct Host<M> {
    worlds: Vec<(usize, Box<dyn ShardWorld<Msg = M>>)>,
    /// Per-world busy time (merge + execute + outbox drain) this round.
    busy: Vec<u64>,
    prof: Profiler,
    track: ProfTrack,
}

impl<M: Send + 'static> Host<M> {
    fn new(
        worlds: Vec<(usize, Box<dyn ShardWorld<Msg = M>>)>,
        prof: Profiler,
        label: &str,
    ) -> Self {
        Host {
            busy: vec![0; worlds.len()],
            track: prof.register_track(label),
            worlds,
            prof,
        }
    }

    /// Appends hosted world `i`'s buffered cross-world sends to `out` and
    /// returns its earliest pending event (ns, `NEVER` when idle).
    fn publish(&mut self, i: usize, out: &mut Vec<Routed<M>>) -> u64 {
        let w = &mut self.worlds[i].1;
        w.drain_outbox_into(out);
        ns_opt(w.sim().next_event_at())
    }

    /// Runs hosted world `i` for one sync round: injects `inbox` in the
    /// canonical order (draining it, capacity kept), runs the world to
    /// `bound_ns`, and publishes its sends into `out`. Returns the world's
    /// next event (ns). Merge, execute and outbox-drain time are charged
    /// to the world and kept as its busy time for [`Host::tile`].
    fn step(
        &mut self,
        i: usize,
        inbox: &mut Vec<Routed<M>>,
        bound_ns: u64,
        out: &mut Vec<Routed<M>>,
    ) -> u64 {
        let id = self.worlds[i].0;
        let prof = &self.prof;
        let mut busy = 0;
        if !inbox.is_empty() {
            let t = prof.tick();
            canonical_sort(inbox);
            self.worlds[i].1.deliver(inbox);
            debug_assert!(inbox.is_empty(), "deliver must drain the batch");
            let ns = prof.lap(t);
            prof.phase(id, Phase::Merge, ns);
            busy += ns;
        }
        let sim = self.worlds[i].1.sim();
        busy += prof.execute(&self.track, id, sim, || {
            sim.run_until(SimTime::from_nanos(bound_ns));
        });
        let t = prof.tick();
        let next = self.publish(i, out);
        let ns = self.prof.lap(t);
        self.prof.phase(id, Phase::OutboxDrain, ns);
        self.busy[i] = busy + ns;
        next
    }

    /// Charges `ns` of a thread-level interval (planning, collection) to
    /// every hosted world's `phase`.
    fn charge_all(&self, phase: Phase, ns: u64) {
        for (id, _) in &self.worlds {
            self.prof.phase(*id, phase, ns);
        }
    }

    /// Ends a wait on a gate begun at `t`: records a barrier-wait slice
    /// on this thread's track and returns the wait in nanoseconds.
    fn waited(&self, t: Option<Instant>) -> u64 {
        let ns = self.prof.lap(t);
        if let Some(t) = t {
            self.track
                .slice(Phase::BarrierWait, usize::MAX, self.prof.offset_ns(t), ns);
        }
        ns
    }

    /// Tiles a finished round: each hosted world charges `wait_ns` of
    /// thread-level waiting plus its siblings' busy time as barrier wait,
    /// so per-world phase sums approximate the thread's wall time.
    fn tile(&mut self, wait_ns: u64) {
        let total: u64 = self.busy.iter().sum();
        for ((id, _), busy) in self.worlds.iter().zip(&self.busy) {
            self.prof
                .phase(*id, Phase::BarrierWait, wait_ns + (total - busy));
        }
        self.busy.fill(0);
    }
}

/// Drives a fixed set of worlds — some on the calling thread, some on
/// worker threads — through adaptive conservative epochs.
///
/// The calling thread hosts the "local" worlds so the driver can keep
/// `Rc`-cloned handles into them (e.g. client libraries in a control
/// world) and interact with them between [`ShardCoordinator::run_until`]
/// calls.
pub struct ShardCoordinator<M: Send + 'static> {
    /// The calling thread's worlds and its `coordinator` profiler track.
    local: Host<M>,
    workers: Vec<Worker>,
    shared: Arc<Shared<M>>,
    /// `in_edges[dst] = (src, lookahead_ns)` for every finite matrix
    /// entry — the only edges the fixpoint ever relaxes.
    in_edges: Vec<Vec<(usize, u64)>>,
    /// Window length scale: `256 ×` the smallest finite lookahead
    /// (`NEVER` for a fully disconnected matrix — the whole run becomes
    /// one window).
    quantum_ns: u64,
    now: SimTime,
    /// Per-world bound granted so far (ns): the instant up to which the
    /// world is known complete. Run bounds are clamped to at least this.
    clocks: Vec<u64>,
    /// Undelivered messages per destination world, in arrival order
    /// (sorted canonically by the owner at injection time).
    pending: Vec<Vec<Routed<M>>>,
    /// Earliest `deliver_at` in `pending`, `NEVER` when empty.
    pending_min: Vec<u64>,
    /// Coordinator-side cache of each world's earliest pending event.
    next_events: Vec<u64>,
    /// Fixpoint scratch: `E_i`, per-round bounds, active set, and which
    /// workers were dispatched this round.
    est: Vec<u64>,
    round_bounds: Vec<u64>,
    active: Vec<bool>,
    dispatched: Vec<bool>,
    /// Reusable gather buffer for freshly drained cross-world messages.
    gather: Vec<Routed<M>>,
    world_count: usize,
    epochs: u64,
    sync_rounds: u64,
    cross_messages: u64,
}

impl<M: Send + 'static> ShardCoordinator<M> {
    /// Builds a coordinator over the worlds `local` (hosted on the
    /// calling thread) and `remote` (one inner vector per worker thread,
    /// each world built on its thread), synchronized by the per-pair
    /// lookahead `matrix`.
    ///
    /// World ids must be unique and dense in `0..world_count` where
    /// `world_count` is the total number of worlds across all shards.
    ///
    /// An active `prof` times every engine phase (execute, outbox drain,
    /// barrier wait, merge, idle-jump) per world, records window and
    /// sync-round statistics, and gives each engine thread a Perfetto
    /// track. Pass [`Profiler::off`] for zero overhead; profiling never
    /// touches simulation state, so results are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not cover exactly the coordinator's
    /// worlds or if world ids are duplicated or out of range.
    pub fn new(
        matrix: &LookaheadMatrix,
        local: Vec<(usize, Box<dyn ShardWorld<Msg = M>>)>,
        remote: Vec<Vec<(usize, WorldBuilder<M>)>>,
        prof: Profiler,
    ) -> Self {
        let world_count = local.len() + remote.iter().map(Vec::len).sum::<usize>();
        assert_eq!(
            matrix.worlds(),
            world_count,
            "lookahead matrix must cover exactly the coordinator's worlds"
        );
        if let Some(min) = matrix.min_finite() {
            prof.set_lookahead(min);
        }
        let mut seen = vec![false; world_count];
        for id in local
            .iter()
            .map(|(id, _)| *id)
            .chain(remote.iter().flatten().map(|(id, _)| *id))
        {
            assert!(id < world_count, "world id {id} out of range");
            assert!(!seen[id], "duplicate world id {id}");
            seen[id] = true;
        }

        let shared = Arc::new(Shared {
            bounds: (0..world_count).map(|_| AtomicU64::new(NEVER)).collect(),
            next_events: (0..world_count).map(|_| AtomicU64::new(NEVER)).collect(),
            inboxes: (0..world_count).map(|_| Mutex::new(Vec::new())).collect(),
            outboxes: (0..world_count).map(|_| Mutex::new(Vec::new())).collect(),
            stop: AtomicBool::new(false),
        });

        let mut workers = Vec::with_capacity(remote.len());
        for (widx, worlds) in remote.into_iter().enumerate() {
            let world_ids: Vec<usize> = worlds.iter().map(|(id, _)| *id).collect();
            let gates = Arc::new(WorkerGates {
                go: Gate::new(),
                done: Gate::new(),
            });
            let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
            let name = format!("sim-shard-{}", widx + 1);
            let worker_shared = shared.clone();
            let worker_gates = gates.clone();
            let worker_prof = prof.clone();
            let handle = std::thread::Builder::new()
                .name(name.clone())
                .spawn(move || {
                    worker_main(
                        worlds,
                        worker_shared,
                        worker_gates,
                        reply_tx,
                        worker_prof,
                        &name,
                    )
                })
                .expect("spawn shard worker");
            workers.push(Worker {
                gates,
                done_seen: 0,
                reply: reply_rx,
                world_ids,
                handle: Some(handle),
            });
        }

        let mut in_edges: Vec<Vec<(usize, u64)>> = vec![Vec::new(); world_count];
        for src in 0..world_count {
            for (dst, edges) in in_edges.iter_mut().enumerate() {
                let l = matrix.get_ns(src, dst);
                if l != NEVER {
                    edges.push((src, l));
                }
            }
        }
        let quantum_ns = matrix
            .min_finite()
            .map_or(NEVER, |d| (d.as_nanos() as u64).saturating_mul(256));

        let worker_count = workers.len();
        let mut this = ShardCoordinator {
            local: Host::new(local, prof, "coordinator"),
            workers,
            shared,
            in_edges,
            quantum_ns,
            now: SimTime::ZERO,
            clocks: vec![0; world_count],
            pending: (0..world_count).map(|_| Vec::new()).collect(),
            pending_min: vec![NEVER; world_count],
            next_events: vec![NEVER; world_count],
            est: vec![NEVER; world_count],
            round_bounds: vec![NEVER; world_count],
            active: vec![false; world_count],
            dispatched: vec![false; worker_count],
            gather: Vec::new(),
            world_count,
            epochs: 0,
            sync_rounds: 0,
            cross_messages: 0,
        };
        // Collect construction-time sends and initial schedules so the
        // first window computation sees them. Workers publish through the
        // shared slots/atomics before sending Ready (the channel provides
        // the happens-before edge).
        for w in &this.workers {
            match w.reply.recv().expect("shard worker died during build") {
                Reply::Ready => {}
                _ => unreachable!("worker sent non-Ready first reply"),
            }
        }
        for w in &this.workers {
            for &id in &w.world_ids {
                this.next_events[id] = this.shared.next_events[id].load(Ordering::Relaxed);
                let mut slot = this.shared.outboxes[id].lock().unwrap();
                this.gather.append(&mut slot);
            }
        }
        this.publish_local();
        this
    }

    /// Window floor reached so far (the merged clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of epoch windows executed (each window advances the global
    /// floor by up to one coalescing quantum, or jumps over dead air).
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Number of inner synchronization rounds executed across all
    /// windows (each round runs the currently-runnable worlds to their
    /// conservative bounds and exchanges messages once).
    pub fn sync_rounds(&self) -> u64 {
        self.sync_rounds
    }

    /// Total cross-world messages exchanged.
    pub fn cross_messages(&self) -> u64 {
        self.cross_messages
    }

    /// Publishes every local world's buffered sends and next event — the
    /// driver may have interacted with them (e.g. issued client calls)
    /// since the last window — and routes the sends.
    fn publish_local(&mut self) {
        for li in 0..self.local.worlds.len() {
            let id = self.local.worlds[li].0;
            self.next_events[id] = self.local.publish(li, &mut self.gather);
        }
        self.route();
    }

    /// Routes freshly gathered messages into the per-destination pending
    /// queues (unsorted — the owning thread sorts at injection time).
    fn route(&mut self) {
        self.cross_messages += self.gather.len() as u64;
        for r in self.gather.drain(..) {
            assert!(
                r.dst_world < self.world_count,
                "routed message to unknown world {}",
                r.dst_world
            );
            let d = r.deliver_at.as_nanos();
            if d < self.pending_min[r.dst_world] {
                self.pending_min[r.dst_world] = d;
            }
            self.pending[r.dst_world].push(r);
        }
    }

    /// Runs every world to `deadline` through adaptive epoch windows.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.publish_local();

        let deadline_ns = deadline.as_nanos();
        while self.now < deadline {
            let floor = self.now.as_nanos();
            let mut min_e = NEVER;
            for i in 0..self.world_count {
                let q = self.next_events[i].min(self.pending_min[i]);
                if q < min_e {
                    min_e = q;
                }
            }
            // Window target: jump straight to the first runnable instant
            // (skipping dead air), then cover one coalescing quantum.
            let target = if min_e >= deadline_ns {
                deadline_ns
            } else {
                min_e
                    .max(floor)
                    .saturating_add(self.quantum_ns)
                    .min(deadline_ns)
            };
            // An idle-jump window leapt more than one quantum past the
            // floor — the scheduler skipped dead air rather than rolling
            // through it.
            let idle_jump = min_e > floor.saturating_add(self.quantum_ns);

            let rounds = self.run_window(target);
            for c in &mut self.clocks {
                *c = (*c).max(target);
            }
            let prof = &self.local.prof;
            prof.epoch(Duration::from_nanos(target - floor), idle_jump);
            prof.add_sync_rounds(rounds);
            self.sync_rounds += rounds;
            self.epochs += 1;
            self.now = SimTime::from_nanos(target);
        }

        // Align the local engines' clocks with the merged clock so the
        // driver observes `sim().now() == deadline` between calls. No
        // events execute here (the window loop cleared everything at or
        // before the deadline).
        for (_, w) in &self.local.worlds {
            w.sim().run_until(deadline);
        }
    }

    /// Runs inner synchronization rounds until every world's next work
    /// lies at or beyond `target`. Returns the number of rounds.
    fn run_window(&mut self, target: u64) -> u64 {
        let mut rounds = 0u64;
        loop {
            // --- plan: LBTS fixpoint + per-world bounds + active set ---
            let tp = self.local.prof.tick();
            for i in 0..self.world_count {
                self.est[i] = self.next_events[i].min(self.pending_min[i]);
            }
            loop {
                let mut changed = false;
                for dst in 0..self.world_count {
                    let mut e = self.est[dst];
                    for &(src, l) in &self.in_edges[dst] {
                        let cand = self.est[src].saturating_add(l);
                        if cand < e {
                            e = cand;
                        }
                    }
                    if e < self.est[dst] {
                        self.est[dst] = e;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            let mut any_active = false;
            for j in 0..self.world_count {
                let mut r = NEVER;
                for &(src, l) in &self.in_edges[j] {
                    let cand = self.est[src].saturating_add(l);
                    if cand < r {
                        r = cand;
                    }
                }
                let b = target.min(r).max(self.clocks[j]);
                self.round_bounds[j] = b;
                let q = self.next_events[j].min(self.pending_min[j]);
                let a = q <= b;
                self.active[j] = a;
                any_active |= a;
            }
            let plan_ns = self.local.prof.lap(tp);
            if !any_active {
                if plan_ns > 0 {
                    self.local.charge_all(Phase::IdleJump, plan_ns);
                }
                return rounds;
            }
            rounds += 1;

            // --- dispatch: publish bounds, hand over batches, open go ---
            let td = self.local.prof.tick();
            for j in 0..self.world_count {
                let b = if self.active[j] {
                    self.round_bounds[j]
                } else {
                    NEVER
                };
                self.shared.bounds[j].store(b, Ordering::Relaxed);
            }
            for (wi, w) in self.workers.iter().enumerate() {
                let mut any = false;
                for &id in &w.world_ids {
                    any |= self.active[id];
                }
                self.dispatched[wi] = any;
                if !any {
                    continue;
                }
                for &id in &w.world_ids {
                    if self.active[id] && !self.pending[id].is_empty() {
                        let mut slot = self.shared.inboxes[id].lock().unwrap();
                        std::mem::swap(&mut *slot, &mut self.pending[id]);
                        self.pending_min[id] = NEVER;
                    }
                }
                w.gates.go.open();
            }
            let dispatch_ns = self.local.prof.lap(td);

            // --- run the active local worlds while workers execute ---
            for li in 0..self.local.worlds.len() {
                let id = self.local.worlds[li].0;
                if !self.active[id] {
                    continue;
                }
                self.pending_min[id] = NEVER;
                let bound = self.round_bounds[id];
                self.next_events[id] =
                    self.local
                        .step(li, &mut self.pending[id], bound, &mut self.gather);
                self.clocks[id] = bound;
            }

            // --- wait for the dispatched workers ---
            let tw = self.local.prof.tick();
            for wi in 0..self.workers.len() {
                if !self.dispatched[wi] {
                    continue;
                }
                let w = &mut self.workers[wi];
                w.done_seen = w.gates.done.wait(w.done_seen);
            }
            let wait_ns = self.local.waited(tw);

            // --- collect the workers' results ---
            let tc = self.local.prof.tick();
            for (wi, w) in self.workers.iter().enumerate() {
                if !self.dispatched[wi] {
                    continue;
                }
                for &id in &w.world_ids {
                    if !self.active[id] {
                        continue;
                    }
                    self.next_events[id] = self.shared.next_events[id].load(Ordering::Relaxed);
                    self.clocks[id] = self.round_bounds[id];
                    let mut slot = self.shared.outboxes[id].lock().unwrap();
                    self.gather.append(&mut slot);
                }
            }
            self.route();
            let collect_ns = self.local.prof.lap(tc);

            // Tile the coordinator's round into every local world's slab:
            // thread-level intervals (planning, dispatch, worker waits,
            // collection) apply to each hosted world, and time spent
            // running a sibling world counts as that world waiting.
            self.local.charge_all(Phase::IdleJump, plan_ns);
            self.local.charge_all(Phase::Merge, collect_ns);
            self.local.tile(dispatch_ns + wait_ns);
        }
    }

    /// Runs for `d` of virtual time past the current window floor.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Finalizes every world and returns `(world_id, telemetry)` sorted by
    /// world id. Consumes the coordinator; worker threads are joined.
    pub fn finalize(mut self) -> Vec<(usize, Box<dyn Any + Send>)> {
        let mut out: Vec<(usize, Box<dyn Any + Send>)> = Vec::new();
        self.shared.stop.store(true, Ordering::SeqCst);
        for w in &self.workers {
            w.gates.go.open();
        }
        for w in &mut self.workers {
            match w.reply.recv().expect("shard worker died in finalize") {
                Reply::Finalized(list) => out.extend(list),
                _ => unreachable!("worker sent unexpected reply"),
            }
            if let Some(h) = w.handle.take() {
                h.join().expect("shard worker panicked");
            }
        }
        for (id, w) in self.local.worlds.drain(..) {
            out.push((id, w.finalize()));
        }
        out.sort_by_key(|(id, _)| *id);
        out
    }
}

impl<M: Send + 'static> Drop for ShardCoordinator<M> {
    fn drop(&mut self) {
        // Waking every worker with the stop flag set ends its loop; join
        // so no detached thread outlives the coordinator (e.g. on panic
        // paths). `finalize` leaves `workers` with taken handles, so this
        // is a no-op after a clean shutdown.
        self.shared.stop.store(true, Ordering::SeqCst);
        let workers = std::mem::take(&mut self.workers);
        for mut w in workers {
            w.gates.go.open();
            drop(w.reply);
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Worker thread body: builds its worlds, publishes their initial state
/// through the shared slots, then serves rounds each time its `go` gate
/// opens until the stop flag is raised.
///
/// The coordinator touches a hosted world's inbox and outbox slots only
/// while this worker is parked on `go`, so holding them across a round
/// never contends.
fn worker_main<M: Send + 'static>(
    worlds: Vec<(usize, WorldBuilder<M>)>,
    shared: Arc<Shared<M>>,
    gates: Arc<WorkerGates>,
    reply: Sender<Reply>,
    prof: Profiler,
    label: &str,
) {
    let built = worlds.into_iter().map(|(id, b)| (id, b())).collect();
    let mut host = Host::new(built, prof, label);

    // Publish construction-time sends and initial schedules; the Ready
    // reply is the happens-before edge the coordinator reads them behind.
    for i in 0..host.worlds.len() {
        let id = host.worlds[i].0;
        let next = host.publish(i, &mut shared.outboxes[id].lock().unwrap());
        shared.next_events[id].store(next, Ordering::Relaxed);
    }
    if reply.send(Reply::Ready).is_err() {
        return;
    }

    let mut go_seen = 0u64;
    loop {
        let t = host.prof.tick();
        go_seen = gates.go.wait(go_seen);
        let wait_ns = host.waited(t);
        if shared.stop.load(Ordering::SeqCst) {
            let list = host
                .worlds
                .drain(..)
                .map(|(id, w)| (id, w.finalize()))
                .collect();
            let _ = reply.send(Reply::Finalized(list));
            return;
        }

        for i in 0..host.worlds.len() {
            let id = host.worlds[i].0;
            let bound_ns = shared.bounds[id].load(Ordering::Relaxed);
            if bound_ns == NEVER {
                continue;
            }
            let mut inbox = shared.inboxes[id].lock().unwrap();
            let mut outbox = shared.outboxes[id].lock().unwrap();
            let next = host.step(i, &mut inbox, bound_ns, &mut outbox);
            shared.next_events[id].store(next, Ordering::Relaxed);
        }
        host.tile(wait_ns);
        gates.done.open();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A toy world: every `tick` it sends a token to the next world in the
    /// ring with delivery exactly one lookahead out; received tokens are
    /// accumulated into a checksum that also folds in the receive instant.
    struct RingWorld {
        id: usize,
        worlds: usize,
        sim: Sim,
        state: Rc<RefCell<RingState>>,
    }

    struct RingState {
        outbox: Vec<Routed<u64>>,
        seq: u64,
        checksum: u64,
        received: u64,
    }

    const LOOKAHEAD: Duration = Duration::from_micros(100);

    impl RingWorld {
        fn new(id: usize, worlds: usize, ticks: u32) -> Self {
            let sim = Sim::new(1000 + id as u64);
            let state = Rc::new(RefCell::new(RingState {
                outbox: Vec::new(),
                seq: 0,
                checksum: 0,
                received: 0,
            }));
            for k in 0..ticks {
                let st = state.clone();
                let at = SimTime::from_micros(30 + 70 * k as u64);
                sim.schedule_at(at, move |sim| {
                    let mut s = st.borrow_mut();
                    let seq = s.seq;
                    s.seq += 1;
                    s.outbox.push(Routed {
                        deliver_at: sim.now() + LOOKAHEAD,
                        src_world: id,
                        dst_world: (id + 1) % worlds,
                        seq,
                        msg: (id as u64) << 32 | seq,
                    });
                });
            }
            RingWorld {
                id,
                worlds,
                sim,
                state,
            }
        }
    }

    impl ShardWorld for RingWorld {
        type Msg = u64;

        fn sim(&self) -> &Sim {
            &self.sim
        }

        fn drain_outbox_into(&mut self, out: &mut Vec<Routed<u64>>) {
            out.append(&mut self.state.borrow_mut().outbox);
        }

        fn deliver(&mut self, batch: &mut Vec<Routed<u64>>) {
            for r in batch.drain(..) {
                assert_eq!(r.dst_world, self.id);
                assert!(r.deliver_at >= self.sim.now(), "delivery in the past");
                let st = self.state.clone();
                self.sim.schedule_at(r.deliver_at, move |sim| {
                    let mut s = st.borrow_mut();
                    s.received += 1;
                    s.checksum = s
                        .checksum
                        .wrapping_mul(0x100000001b3)
                        .wrapping_add(r.msg ^ sim.now().as_nanos());
                });
            }
        }

        fn finalize(self: Box<Self>) -> Box<dyn Any + Send> {
            let _ = self.worlds;
            let s = self.state.borrow();
            Box::new((s.checksum, s.received))
        }
    }

    fn ring_shards(
        shards: usize,
        worlds: usize,
        ticks: u32,
    ) -> (
        Vec<(usize, Box<dyn ShardWorld<Msg = u64>>)>,
        Vec<Vec<(usize, WorldBuilder<u64>)>>,
    ) {
        let mut local: Vec<(usize, Box<dyn ShardWorld<Msg = u64>>)> = Vec::new();
        let mut remote: Vec<Vec<(usize, WorldBuilder<u64>)>> =
            (1..shards).map(|_| Vec::new()).collect();
        for id in 0..worlds {
            let shard = id % shards;
            if shard == 0 {
                local.push((id, Box::new(RingWorld::new(id, worlds, ticks))));
            } else {
                remote[shard - 1].push((
                    id,
                    Box::new(move || {
                        Box::new(RingWorld::new(id, worlds, ticks))
                            as Box<dyn ShardWorld<Msg = u64>>
                    }) as WorldBuilder<u64>,
                ));
            }
        }
        (local, remote)
    }

    fn run_ring(shards: usize) -> Vec<(u64, u64)> {
        const WORLDS: usize = 4;
        const TICKS: u32 = 25;
        let (local, remote) = ring_shards(shards, WORLDS, TICKS);
        let matrix = LookaheadMatrix::uniform(WORLDS, LOOKAHEAD);
        let mut coord = ShardCoordinator::new(&matrix, local, remote, Profiler::off());
        coord.run_until(SimTime::from_millis(10));
        assert!(coord.epochs() > 0);
        assert!(coord.sync_rounds() >= coord.epochs() - 1);
        assert_eq!(coord.cross_messages(), WORLDS as u64 * TICKS as u64);
        coord
            .finalize()
            .into_iter()
            .map(|(_, t)| *t.downcast::<(u64, u64)>().expect("ring telemetry"))
            .collect()
    }

    #[test]
    fn ring_results_identical_for_any_shard_count() {
        let one = run_ring(1);
        assert_eq!(one.iter().map(|(_, r)| r).sum::<u64>(), 100);
        for shards in [2, 3, 4] {
            assert_eq!(one, run_ring(shards), "shards={shards} diverged");
        }
    }

    /// Restricting the matrix to the edges the ring actually uses
    /// (`i → i+1`) must not change any world's observed messages, for
    /// any shard count.
    #[test]
    fn ring_with_exact_matrix_matches_uniform_for_any_shard_count() {
        const WORLDS: usize = 4;
        const TICKS: u32 = 25;
        let run = |shards: usize| -> Vec<(u64, u64)> {
            let (local, remote) = ring_shards(shards, WORLDS, TICKS);
            let mut m = LookaheadMatrix::disconnected(WORLDS);
            for id in 0..WORLDS {
                m.set(id, (id + 1) % WORLDS, LOOKAHEAD);
            }
            let mut coord = ShardCoordinator::new(&m, local, remote, Profiler::off());
            coord.run_until(SimTime::from_millis(10));
            coord
                .finalize()
                .into_iter()
                .map(|(_, t)| *t.downcast::<(u64, u64)>().expect("ring telemetry"))
                .collect()
        };
        let uniform = run_ring(1);
        for shards in [1, 2, 4] {
            assert_eq!(uniform, run(shards), "shards={shards} diverged");
        }
    }

    #[test]
    fn canonical_merge_is_permutation_invariant() {
        let msgs: Vec<Routed<u32>> = (0..64)
            .map(|i| Routed {
                deliver_at: SimTime::from_micros(100 + (i % 5) as u64),
                src_world: (i % 3) as usize,
                dst_world: ((i + 1) % 3) as usize,
                seq: (i / 3) as u64,
                msg: i,
            })
            .collect();
        let sorted = canonical_merge(msgs.clone());
        let mut reversed = msgs.clone();
        reversed.reverse();
        let resorted = canonical_merge(reversed);
        let key = |v: &[Routed<u32>]| -> Vec<(SimTime, usize, u64, u32)> {
            v.iter()
                .map(|r| (r.deliver_at, r.src_world, r.seq, r.msg))
                .collect()
        };
        assert_eq!(key(&sorted), key(&resorted));
        for w in sorted.windows(2) {
            assert!(
                (w[0].deliver_at, w[0].src_world, w[0].seq)
                    < (w[1].deliver_at, w[1].src_world, w[1].seq)
            );
        }
    }

    struct Sparse {
        sim: Sim,
    }
    impl ShardWorld for Sparse {
        type Msg = ();
        fn sim(&self) -> &Sim {
            &self.sim
        }
        fn drain_outbox_into(&mut self, _out: &mut Vec<Routed<()>>) {}
        fn deliver(&mut self, batch: &mut Vec<Routed<()>>) {
            batch.clear();
        }
        fn finalize(self: Box<Self>) -> Box<dyn Any + Send> {
            Box::new(self.sim.events_processed())
        }
    }

    fn sparse_locals() -> Vec<(usize, Box<dyn ShardWorld<Msg = ()>>)> {
        let mut local: Vec<(usize, Box<dyn ShardWorld<Msg = ()>>)> = Vec::new();
        for id in 0..2usize {
            let sim = Sim::new(id as u64);
            sim.schedule_at(SimTime::from_secs(5 + id as u64), |_| {});
            local.push((id, Box::new(Sparse { sim })));
        }
        local
    }

    #[test]
    fn merged_clock_jumps_idle_gaps() {
        // Two worlds, one event each, far apart: the run must not need
        // deadline/lookahead epochs.
        let matrix = LookaheadMatrix::uniform(2, LOOKAHEAD);
        let mut coord =
            ShardCoordinator::new(&matrix, sparse_locals(), Vec::new(), Profiler::off());
        coord.run_until(SimTime::from_secs(60));
        // One window per event neighbourhood plus the final jump — far
        // fewer than the 600k a fixed 100 us cadence would need.
        assert!(coord.epochs() < 10, "epochs = {}", coord.epochs());
        assert_eq!(coord.now(), SimTime::from_secs(60));
    }

    #[test]
    fn disconnected_worlds_run_in_one_window() {
        // With no reachable pairs there is no conservative constraint at
        // all: the whole run is a single window and each world runs
        // straight to the deadline.
        let m = LookaheadMatrix::disconnected(2);
        let mut coord = ShardCoordinator::new(&m, sparse_locals(), Vec::new(), Profiler::off());
        coord.run_until(SimTime::from_secs(60));
        assert_eq!(coord.epochs(), 1, "sync_rounds = {}", coord.sync_rounds());
        assert_eq!(coord.now(), SimTime::from_secs(60));
        let events: u64 = coord
            .finalize()
            .into_iter()
            .map(|(_, t)| *t.downcast::<u64>().expect("event count"))
            .sum();
        assert_eq!(events, 2);
    }

    #[test]
    fn lookahead_matrix_basics() {
        let mut m = LookaheadMatrix::disconnected(3);
        assert!(!m.reachable(0, 1));
        assert_eq!(m.min_finite(), None);
        m.set(0, 1, Duration::from_micros(100));
        m.set(1, 0, Duration::from_millis(1));
        assert!(m.reachable(0, 1));
        assert!(m.reachable(1, 0));
        assert!(!m.reachable(0, 2));
        assert!(!m.reachable(1, 1));
        assert_eq!(m.get_ns(0, 1), 100_000);
        assert_eq!(m.min_finite(), Some(Duration::from_micros(100)));

        let u = LookaheadMatrix::uniform(3, Duration::from_micros(50));
        for s in 0..3 {
            for d in 0..3 {
                assert_eq!(u.reachable(s, d), s != d);
            }
        }

        let star = LookaheadMatrix::from_reachability(4, Duration::from_micros(100), |s, d| {
            s == 0 || d == 0
        });
        assert!(star.reachable(0, 3) && star.reachable(3, 0));
        assert!(!star.reachable(1, 2));
        assert_eq!(star.min_finite(), Some(Duration::from_micros(100)));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn lookahead_matrix_rejects_zero_entries() {
        LookaheadMatrix::disconnected(2).set(0, 1, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "do not route to themselves")]
    fn lookahead_matrix_rejects_self_edges() {
        LookaheadMatrix::disconnected(2).set(1, 1, Duration::from_micros(1));
    }
}
