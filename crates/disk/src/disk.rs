//! The discrete-event disk component.
//!
//! [`Disk`] wraps the pure [`IoModel`] with everything a simulated system
//! needs from a drive: an internal command queue, a power-state machine
//! (with spin-up/spin-down timing), optional payload storage (so upper
//! layers like the mini-DFS can verify data integrity end-to-end), fault
//! injection, and per-disk statistics and energy accounting.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use ustore_sim::{
    CounterHandle, GaugeHandle, Histogram, HistogramHandle, ReqStamp, Sim, SimRng, SimTime, Stage,
    Throughput, TraceLevel,
};

use crate::model::IoModel;
use crate::power::EnergyMeter;
use crate::profile::{Direction, DiskProfile, PowerStateKind};

/// Page size of the sparse payload store.
const PAGE: u64 = 4096;

/// One stored page of the sparse payload store.
enum Page {
    /// A page a single write covered in full: a window `[at, at + PAGE)`
    /// into that write's buffer, shared with the other pages it covered.
    /// The buffer is freed once its last such page is overwritten.
    Shared { buf: Arc<Vec<u8>>, at: usize },
    /// A page assembled from partial writes: an owned copy.
    Owned(Box<[u8; PAGE as usize]>),
}

impl Page {
    fn bytes(&self) -> &[u8] {
        match self {
            Page::Shared { buf, at } => &buf[*at..*at + PAGE as usize],
            Page::Owned(b) => &b[..],
        }
    }

    /// The page as an owned copy, copying a shared page out of its buffer
    /// first (copy on write) so the buffer's other readers never see the
    /// change.
    fn owned(&mut self) -> &mut [u8; PAGE as usize] {
        if let Page::Shared { .. } = self {
            let mut copy = Box::new([0u8; PAGE as usize]);
            copy.copy_from_slice(self.bytes());
            *self = Page::Owned(copy);
        }
        match self {
            Page::Owned(b) => b,
            Page::Shared { .. } => unreachable!("shared page was just copied"),
        }
    }
}

/// Errors a disk command can complete with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The disk's 12 V rail is cut (relay off); no electronics listening.
    PoweredOff,
    /// The disk hardware failed (injected fault).
    Failed,
    /// Command exceeds the disk capacity.
    OutOfRange,
    /// A latent sector error inside the command's range.
    Medium {
        /// Byte offset of the first unreadable page.
        offset: u64,
    },
    /// The command was queued when the disk lost power.
    Aborted,
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::PoweredOff => write!(f, "disk is powered off"),
            DiskError::Failed => write!(f, "disk hardware failed"),
            DiskError::OutOfRange => write!(f, "command beyond disk capacity"),
            DiskError::Medium { offset } => write!(f, "medium error at offset {offset}"),
            DiskError::Aborted => write!(f, "command aborted by power loss"),
        }
    }
}

impl std::error::Error for DiskError {}

/// Result of a completed read.
pub type ReadResult = Result<Vec<u8>, DiskError>;
/// Result of a completed write.
pub type WriteResult = Result<(), DiskError>;

type ReadCb = Box<dyn FnOnce(&Sim, ReadResult)>;
type WriteCb = Box<dyn FnOnce(&Sim, WriteResult)>;

enum Pending {
    Read {
        offset: u64,
        len: u64,
        cb: ReadCb,
    },
    Write {
        offset: u64,
        data: Arc<Vec<u8>>,
        cb: WriteCb,
    },
}

impl Pending {
    fn dir(&self) -> Direction {
        match self {
            Pending::Read { .. } => Direction::Read,
            Pending::Write { .. } => Direction::Write,
        }
    }
    fn offset(&self) -> u64 {
        match self {
            Pending::Read { offset, .. } | Pending::Write { offset, .. } => *offset,
        }
    }
    fn len(&self) -> u64 {
        match self {
            Pending::Read { len, .. } => *len,
            Pending::Write { data, .. } => data.len() as u64,
        }
    }
    fn abort(self, sim: &Sim, err: DiskError) {
        match self {
            Pending::Read { cb, .. } => cb(sim, Err(err)),
            Pending::Write { cb, .. } => cb(sim, Err(err)),
        }
    }
}

/// Per-disk operation statistics.
#[derive(Debug, Default, Clone)]
pub struct DiskStats {
    /// Completed reads (ops and bytes).
    pub reads: Throughput,
    /// Completed writes (ops and bytes).
    pub writes: Throughput,
    /// Commands that completed with an error.
    pub errors: u64,
    /// End-to-end command latency (queue + service), nanoseconds.
    pub latency: Histogram,
}

/// Pre-registered metric handles for the per-IO hot path: resolved once at
/// disk construction so completing a command never hashes or allocates a
/// metric name.
#[derive(Debug, Clone)]
struct DiskMetrics {
    seeks: CounterHandle,
    cache_hits: CounterHandle,
    spin_ups: CounterHandle,
    latency: HistogramHandle,
    reads: CounterHandle,
    read_bytes: CounterHandle,
    writes: CounterHandle,
    write_bytes: CounterHandle,
    errors: CounterHandle,
    uncorrectable: CounterHandle,
    scrub_pages: CounterHandle,
    scrub_repairs: CounterHandle,
}

impl DiskMetrics {
    fn new(sim: &Sim, name: &str) -> Self {
        DiskMetrics {
            seeks: sim.counter(name, "disk.seeks"),
            cache_hits: sim.counter(name, "disk.cache_hits"),
            spin_ups: sim.counter(name, "disk.spin_ups"),
            latency: sim.histogram(name, "disk.latency_ns"),
            reads: sim.counter(name, "disk.reads"),
            read_bytes: sim.counter(name, "disk.read_bytes"),
            writes: sim.counter(name, "disk.writes"),
            write_bytes: sim.counter(name, "disk.write_bytes"),
            errors: sim.counter(name, "disk.errors"),
            uncorrectable: sim.counter(name, "disk.uncorrectable_reads"),
            scrub_pages: sim.counter(name, "disk.scrub_pages"),
            scrub_repairs: sim.counter(name, "disk.scrub_repairs"),
        }
    }
}

/// Outcome of one background scrub pass ([`Disk::scrub`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubReport {
    /// 4 KiB pages verify-read by the pass.
    pub scanned_pages: u64,
    /// Latent sector errors detected inside the scanned range.
    pub bad_found: u64,
    /// Pages repaired (rewritten/reallocated) by the pass.
    pub repaired: u64,
}

struct Inner {
    name: String,
    metrics: DiskMetrics,
    /// Residency gauges in [`RESIDENCY`] order, resolved on the first
    /// [`Disk::publish_residency`] (so the registry learns them then, as
    /// it always has) instead of by name on every publish.
    residency: Option<Box<[GaugeHandle; 7]>>,
    model: IoModel,
    state: PowerStateKind,
    meter: EnergyMeter,
    queue: VecDeque<(Pending, SimTime, Option<ReqStamp>)>,
    busy: bool,
    spinning_up: bool,
    /// When the in-progress spin-up started (attribution of spin-up wait).
    spin_started: Option<SimTime>,
    /// The most recent completed spin-up interval `[start, end]`: queued
    /// commands overlapping it charge that overlap to `SpinUpWait`.
    last_spin: Option<(SimTime, SimTime)>,
    failed: bool,
    bad_pages: HashSet<u64>,
    data: Option<HashMap<u64, Page>>,
    stats: DiskStats,
    epoch: u64, // bumped on power-off to invalidate in-flight completions
    // Gradual-degradation injection (Gray & van Ingen: drives drift before
    // they die): a positioning-time multiplier and an uncorrectable-read
    // probability. Both inert (1.0 / 0.0) unless a scenario dials them up.
    latency_factor: f64,
    read_error_rate: f64,
    degrade_rng: Option<SimRng>, // forked lazily so healthy runs draw nothing
}

impl Inner {
    fn set_state(&mut self, now: SimTime, s: PowerStateKind) {
        self.state = s;
        self.meter.transition(now, s);
    }
}

/// The power states whose residency [`Disk::publish_residency`] reports,
/// in the order of the first five [`RESIDENCY`] gauges.
const STATES: [PowerStateKind; 5] = [
    PowerStateKind::PoweredOff,
    PowerStateKind::Standby,
    PowerStateKind::Idle,
    PowerStateKind::Active,
    PowerStateKind::SpinningUp,
];

/// The gauges [`Disk::publish_residency`] sets, in registration order:
/// one residency per [`STATES`] entry, then energy and draw.
const RESIDENCY: [&str; 7] = [
    "power.residency.powered_off_s",
    "power.residency.standby_s",
    "power.residency.idle_s",
    "power.residency.active_s",
    "power.residency.spinning_up_s",
    "power.energy_j",
    "power.watts",
];

/// A simulated hard disk.
///
/// Cloning the handle shares the same underlying device.
///
/// # Examples
///
/// ```
/// use ustore_sim::Sim;
/// use ustore_disk::{Disk, DiskProfile};
///
/// let sim = Sim::new(1);
/// let disk = Disk::new(&sim, "d0", DiskProfile::usb_bridge(), true);
/// disk.write(&sim, 0, vec![7u8; 4096], |_, r| assert!(r.is_ok()));
/// let d = disk.clone();
/// disk.read(&sim, 0, 4096, move |_, r| {
///     assert_eq!(r.expect("read back")[0], 7);
///     let _ = &d;
/// });
/// sim.run();
/// ```
#[derive(Clone)]
pub struct Disk {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for Disk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let i = self.inner.borrow();
        f.debug_struct("Disk")
            .field("name", &i.name)
            .field("state", &i.state)
            .field("queued", &i.queue.len())
            .finish()
    }
}

impl Disk {
    /// Creates a spinning, idle disk.
    ///
    /// If `store_data` is true the disk retains written payloads (sparse,
    /// 4 KiB pages) so reads return real data; otherwise reads return
    /// zeroes, which the throughput experiments use to save memory. A
    /// page a write covers in full is kept as a reference into the
    /// write's buffer rather than a copy; see [`Disk::write`].
    pub fn new(sim: &Sim, name: impl Into<String>, profile: DiskProfile, store_data: bool) -> Self {
        let p = profile.clone();
        let name = name.into();
        let metrics = DiskMetrics::new(sim, &name);
        Disk {
            inner: Rc::new(RefCell::new(Inner {
                name,
                metrics,
                residency: None,
                model: IoModel::new(profile),
                state: PowerStateKind::Idle,
                meter: EnergyMeter::new(sim.now(), PowerStateKind::Idle, move |s| p.power_w(s)),
                queue: VecDeque::new(),
                busy: false,
                spinning_up: false,
                spin_started: None,
                last_spin: None,
                failed: false,
                bad_pages: HashSet::new(),
                data: store_data.then(HashMap::new),
                stats: DiskStats::default(),
                epoch: 0,
                latency_factor: 1.0,
                read_error_rate: 0.0,
                degrade_rng: None,
            })),
        }
    }

    /// The disk's name.
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Usable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.borrow().model.profile().mech.capacity_bytes
    }

    /// Current power state.
    pub fn power_state(&self) -> PowerStateKind {
        self.inner.borrow().state
    }

    /// Snapshot of operation statistics.
    pub fn stats(&self) -> DiskStats {
        self.inner.borrow().stats.clone()
    }

    /// Total energy consumed, joules (synced to `sim.now()`).
    pub fn energy_joules(&self, sim: &Sim) -> f64 {
        let mut i = self.inner.borrow_mut();
        i.meter.sync(sim.now());
        i.meter.total_joules()
    }

    /// Instantaneous power draw, watts.
    pub fn watts_now(&self) -> f64 {
        self.inner.borrow().meter.watts_now()
    }

    /// Cumulative time spent in a power state (synced to `sim.now()`).
    pub fn time_in_state(&self, sim: &Sim, state: PowerStateKind) -> std::time::Duration {
        let mut i = self.inner.borrow_mut();
        i.meter.sync(sim.now());
        i.meter.time_in(state)
    }

    /// Publishes this disk's per-power-state residency (seconds), total
    /// energy (joules) and instantaneous draw (watts) as gauges in the
    /// simulation's metrics registry, labelled with the disk's name.
    pub fn publish_residency(&self, sim: &Sim) {
        let mut guard = self.inner.borrow_mut();
        let i = &mut *guard;
        i.meter.sync(sim.now());
        let name = &i.name;
        let gauges = i
            .residency
            .get_or_insert_with(|| Box::new(RESIDENCY.map(|g| sim.gauge(name, g))));
        let (states, totals) = gauges.split_at(STATES.len());
        for (state, gauge) in STATES.iter().zip(states) {
            gauge.set(i.meter.time_in(*state).as_secs_f64());
        }
        totals[0].set(i.meter.total_joules());
        totals[1].set(i.meter.watts_now());
    }

    /// Submits a read of `len` bytes at `offset`; `cb` fires on completion.
    pub fn read(
        &self,
        sim: &Sim,
        offset: u64,
        len: u64,
        cb: impl FnOnce(&Sim, ReadResult) + 'static,
    ) {
        self.submit(
            sim,
            Pending::Read {
                offset,
                len,
                cb: Box::new(cb),
            },
        );
    }

    /// Submits a write of `data` at `offset`; `cb` fires on completion.
    ///
    /// The buffer is stored without a copy: every 4 KiB page the write
    /// covers in full keeps a reference into it, and the buffer lives
    /// until the last of those pages is overwritten. Partially covered
    /// pages are copied. A `Vec<u8>` converts into the shared buffer
    /// without copying.
    pub fn write(
        &self,
        sim: &Sim,
        offset: u64,
        data: impl Into<Arc<Vec<u8>>>,
        cb: impl FnOnce(&Sim, WriteResult) + 'static,
    ) {
        self.submit(
            sim,
            Pending::Write {
                offset,
                data: data.into(),
                cb: Box::new(cb),
            },
        );
    }

    fn submit(&self, sim: &Sim, op: Pending) {
        let reject = {
            let i = self.inner.borrow();
            if i.failed {
                Some(DiskError::Failed)
            } else if i.state == PowerStateKind::PoweredOff {
                Some(DiskError::PoweredOff)
            } else if op.len() == 0
                || op.offset().saturating_add(op.len()) > i.model.profile().mech.capacity_bytes
            {
                Some(DiskError::OutOfRange)
            } else {
                None
            }
        };
        if let Some(err) = reject {
            self.inner.borrow_mut().stats.errors += 1;
            let this = self.clone();
            sim.schedule_now(move |sim| {
                let _ = &this;
                op.abort(sim, err);
            });
            return;
        }
        // Capture the ambient trace stamp (set by the rpc layer around the
        // server handler chain) so device-level stages can be attributed.
        self.inner
            .borrow_mut()
            .queue
            .push_back((op, sim.now(), sim.current_stamp()));
        self.pump(sim);
    }

    /// Starts the next queued command if the disk is ready.
    fn pump(&self, sim: &Sim) {
        let (service, epoch, traced) = {
            let mut i = self.inner.borrow_mut();
            if i.busy || i.queue.is_empty() {
                return;
            }
            match i.state {
                PowerStateKind::PoweredOff => return,
                PowerStateKind::SpinningUp => return, // will pump on ready
                PowerStateKind::Standby => {
                    // Auto spin-up on IO.
                    if !i.spinning_up {
                        i.spinning_up = true;
                        let now = sim.now();
                        i.set_state(now, PowerStateKind::SpinningUp);
                        i.spin_started = Some(now);
                        let spin = i.model.profile().mech.spin_up;
                        let epoch = i.epoch;
                        drop(i);
                        let this = self.clone();
                        sim.schedule_in(spin, move |sim| this.finish_spin_up(sim, epoch));
                    }
                    return;
                }
                PowerStateKind::Idle | PowerStateKind::Active => {}
            }
            i.busy = true;
            let now = sim.now();
            i.set_state(now, PowerStateKind::Active);
            let (offset, len, dir, queued_at, stamp) = {
                let (op, queued_at, stamp) = i.queue.front().expect("queue nonempty");
                (op.offset(), op.len(), op.dir(), *queued_at, *stamp)
            };
            let svc = i.model.service(offset, len, dir);
            let seek = !svc.positioning.is_zero();
            if seek {
                i.metrics.seeks.inc();
            } else {
                i.metrics.cache_hits.inc();
            }
            let mut positioning = svc.positioning;
            if i.latency_factor > 1.0 && seek {
                positioning += svc.positioning.mul_f64(i.latency_factor - 1.0);
            }
            let service = svc.total() + (positioning - svc.positioning);
            let traced = stamp.map(|s| (s, queued_at, positioning, service, i.last_spin));
            (service, i.epoch, traced)
        };
        if let Some((stamp, queued_at, positioning, service, last_spin)) = traced {
            self.attribute_dispatch(sim, stamp, queued_at, positioning, service, last_spin);
        }
        let this = self.clone();
        sim.schedule_in(service, move |sim| this.complete(sim, epoch));
    }

    /// Splits one dispatched command's history into traced stages: the
    /// time since submission becomes spin-up wait (where it overlaps the
    /// last spin-up) plus endpoint queueing, and the service time ahead
    /// splits into seek (positioning, health-stretched) and transfer.
    fn attribute_dispatch(
        &self,
        sim: &Sim,
        stamp: ReqStamp,
        queued_at: SimTime,
        positioning: std::time::Duration,
        service: std::time::Duration,
        last_spin: Option<(SimTime, SimTime)>,
    ) {
        let tracer = sim.reqtracer();
        if !tracer.is_on() {
            return;
        }
        let stamp = Some(stamp);
        let now = sim.now();
        let mut spin_wait = std::time::Duration::ZERO;
        let mut spin_from = queued_at;
        if let Some((s, e)) = last_spin {
            let lo = s.max(queued_at);
            let hi = e.min(now);
            if hi > lo {
                spin_wait = hi.duration_since(lo);
                spin_from = lo;
            }
        }
        let wait = now.duration_since(queued_at);
        let queue_wait = wait.saturating_sub(spin_wait);
        tracer.absorb(stamp, Stage::EndpointQueue, queue_wait, queued_at);
        tracer.absorb(stamp, Stage::SpinUpWait, spin_wait, spin_from);
        tracer.absorb(stamp, Stage::Seek, positioning, now);
        tracer.absorb(
            stamp,
            Stage::Transfer,
            service.saturating_sub(positioning),
            now + positioning,
        );
    }

    fn finish_spin_up(&self, sim: &Sim, epoch: u64) {
        {
            let mut i = self.inner.borrow_mut();
            if i.epoch != epoch || i.state != PowerStateKind::SpinningUp {
                return;
            }
            i.spinning_up = false;
            let now = sim.now();
            i.set_state(now, PowerStateKind::Idle);
            if let Some(started) = i.spin_started.take() {
                i.last_spin = Some((started, now));
            }
            i.model.reset_stream();
            i.metrics.spin_ups.inc();
        }
        self.pump(sim);
    }

    fn complete(&self, sim: &Sim, epoch: u64) {
        let (op, queued_at, _stamp) = {
            let mut i = self.inner.borrow_mut();
            if i.epoch != epoch {
                return; // disk power-cycled while command in flight
            }
            i.busy = false;
            let entry = i.queue.pop_front().expect("in-flight command");
            if i.queue.is_empty() {
                let now = sim.now();
                i.set_state(now, PowerStateKind::Idle);
            }
            entry
        };
        let now = sim.now();
        {
            let mut i = self.inner.borrow_mut();
            let lat = now.duration_since(queued_at).as_nanos() as u64;
            i.stats.latency.record(lat);
            i.metrics.latency.observe(lat);
        }
        match op {
            Pending::Read { offset, len, cb } => {
                let res = if self.roll_uncorrectable() {
                    Err(DiskError::Medium { offset })
                } else {
                    self.do_read(offset, len)
                };
                {
                    let mut i = self.inner.borrow_mut();
                    match &res {
                        Ok(_) => {
                            i.stats.reads.complete(len);
                            i.metrics.reads.inc();
                            i.metrics.read_bytes.add(len);
                        }
                        Err(_) => {
                            i.stats.errors += 1;
                            i.metrics.errors.inc();
                        }
                    }
                }
                cb(sim, res);
            }
            Pending::Write { offset, data, cb } => {
                let len = data.len() as u64;
                self.do_write(offset, &data);
                {
                    let mut i = self.inner.borrow_mut();
                    i.stats.writes.complete(len);
                    i.metrics.writes.inc();
                    i.metrics.write_bytes.add(len);
                }
                cb(sim, Ok(()));
            }
        }
        self.pump(sim);
    }

    /// Rolls the degradation RNG for one read; counts a hit as an
    /// uncorrectable read (it surfaces as a [`DiskError::Medium`]).
    fn roll_uncorrectable(&self) -> bool {
        let mut i = self.inner.borrow_mut();
        let rate = i.read_error_rate;
        if rate <= 0.0 {
            return false;
        }
        let hit = i
            .degrade_rng
            .as_mut()
            .map(|rng| rng.chance(rate))
            .unwrap_or(false);
        if hit {
            i.metrics.uncorrectable.inc();
        }
        hit
    }

    fn do_read(&self, offset: u64, len: u64) -> ReadResult {
        let i = self.inner.borrow();
        let first_page = offset / PAGE;
        let last_page = (offset + len - 1) / PAGE;
        for p in first_page..=last_page {
            if i.bad_pages.contains(&p) {
                return Err(DiskError::Medium { offset: p * PAGE });
            }
        }
        let mut out = vec![0u8; len as usize];
        if let Some(data) = &i.data {
            for p in first_page..=last_page {
                if let Some(page) = data.get(&p) {
                    let page_start = p * PAGE;
                    let s = offset.max(page_start);
                    let e = (offset + len).min(page_start + PAGE);
                    out[(s - offset) as usize..(e - offset) as usize].copy_from_slice(
                        &page.bytes()[(s - page_start) as usize..(e - page_start) as usize],
                    );
                }
            }
        }
        Ok(out)
    }

    fn do_write(&self, offset: u64, data: &Arc<Vec<u8>>) {
        let mut i = self.inner.borrow_mut();
        let end = offset + data.len() as u64;
        let first_page = offset / PAGE;
        let last_page = (end - 1) / PAGE;
        for p in first_page..=last_page {
            let page_start = p * PAGE;
            let s = offset.max(page_start);
            let e = end.min(page_start + PAGE);
            let full = e - s == PAGE;
            // Only fully overwritten pages repair a latent sector error.
            if full {
                i.bad_pages.remove(&p);
            }
            let Some(store) = &mut i.data else {
                continue;
            };
            let src = (s - offset) as usize;
            if full {
                store.insert(
                    p,
                    Page::Shared {
                        buf: Arc::clone(data),
                        at: src,
                    },
                );
            } else {
                let page = store
                    .entry(p)
                    .or_insert_with(|| Page::Owned(Box::new([0u8; PAGE as usize])))
                    .owned();
                page[(s - page_start) as usize..(e - page_start) as usize]
                    .copy_from_slice(&data[src..(e - offset) as usize]);
            }
        }
    }

    /// Address of the bytes backing the stored page that contains
    /// `offset`, if the page holds data: lets callers check that a write
    /// was stored by reference (the address then lies inside the
    /// written buffer) rather than copied.
    pub fn page_addr(&self, offset: u64) -> Option<usize> {
        let i = self.inner.borrow();
        let page = i.data.as_ref()?.get(&(offset / PAGE))?;
        Some(page.bytes().as_ptr() as usize)
    }

    /// Cuts the 12 V rail: aborts all queued commands and forgets stream
    /// state. Payload data survives (it is on the platters).
    pub fn power_off(&self, sim: &Sim) {
        let aborted: Vec<Pending> = {
            let mut i = self.inner.borrow_mut();
            if i.state == PowerStateKind::PoweredOff {
                return;
            }
            i.epoch += 1;
            i.busy = false;
            i.spinning_up = false;
            i.spin_started = None;
            let now = sim.now();
            i.set_state(now, PowerStateKind::PoweredOff);
            i.model.reset_stream();
            i.queue.drain(..).map(|(op, ..)| op).collect()
        };
        let n = aborted.len();
        for op in aborted {
            op.abort(sim, DiskError::Aborted);
        }
        if n > 0 {
            sim.trace(
                TraceLevel::Warn,
                "disk",
                format!("{}: power off aborted {n} commands", self.name()),
            );
        }
    }

    /// Restores power; the disk spins up and then serves queued IO.
    pub fn power_on(&self, sim: &Sim) {
        let (spin, epoch) = {
            let mut i = self.inner.borrow_mut();
            if i.state != PowerStateKind::PoweredOff {
                return;
            }
            let now = sim.now();
            i.set_state(now, PowerStateKind::SpinningUp);
            i.spinning_up = true;
            i.spin_started = Some(now);
            (i.model.profile().mech.spin_up, i.epoch)
        };
        let this = self.clone();
        sim.schedule_in(spin, move |sim| this.finish_spin_up(sim, epoch));
    }

    /// Explicitly spins a standby disk back up (IO also does this
    /// implicitly). No-op in other states.
    pub fn spin_up(&self, sim: &Sim) {
        let (spin, epoch) = {
            let mut i = self.inner.borrow_mut();
            if i.state != PowerStateKind::Standby || i.spinning_up {
                return;
            }
            i.spinning_up = true;
            let now = sim.now();
            i.set_state(now, PowerStateKind::SpinningUp);
            i.spin_started = Some(now);
            (i.model.profile().mech.spin_up, i.epoch)
        };
        let this = self.clone();
        sim.schedule_in(spin, move |sim| this.finish_spin_up(sim, epoch));
    }

    /// Spins the platters down (electronics stay on). In-flight and queued
    /// commands complete first; the state change applies only if idle.
    pub fn spin_down(&self, sim: &Sim) {
        let mut i = self.inner.borrow_mut();
        if i.state == PowerStateKind::Idle && !i.busy && i.queue.is_empty() {
            let now = sim.now();
            i.set_state(now, PowerStateKind::Standby);
            i.model.reset_stream();
        }
    }

    /// Sets the positioning-time multiplier modelling mechanical wear
    /// (`1.0` = healthy). Only seek/rotation time stretches; transfer rate
    /// is unaffected, matching the seek-latency drift that precedes
    /// spindle failure in fleet studies.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    pub fn set_latency_factor(&self, factor: f64) {
        assert!(factor >= 1.0, "latency factor below healthy: {factor}");
        self.inner.borrow_mut().latency_factor = factor;
    }

    /// Current positioning-time multiplier.
    pub fn latency_factor(&self) -> f64 {
        self.inner.borrow().latency_factor
    }

    /// Sets the per-read probability of an uncorrectable (medium) error,
    /// modelling grown-defect drift. Draws come from a dedicated RNG
    /// forked on first use, so enabling degradation on one disk never
    /// shifts random sequences elsewhere in the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn set_read_error_rate(&self, sim: &Sim, rate: f64) {
        assert!((0.0..=1.0).contains(&rate), "error rate {rate}");
        let mut i = self.inner.borrow_mut();
        i.read_error_rate = rate;
        if rate > 0.0 && i.degrade_rng.is_none() {
            let label = format!("degrade-{}", i.name);
            drop(i);
            let rng = sim.fork_rng(&label);
            self.inner.borrow_mut().degrade_rng = Some(rng);
        }
    }

    /// Injects or clears a whole-disk hardware failure.
    pub fn set_failed(&self, sim: &Sim, failed: bool) {
        let aborted: Vec<Pending> = {
            let mut i = self.inner.borrow_mut();
            i.failed = failed;
            if failed {
                i.epoch += 1;
                i.busy = false;
                i.queue.drain(..).map(|(op, ..)| op).collect()
            } else {
                Vec::new()
            }
        };
        for op in aborted {
            op.abort(sim, DiskError::Failed);
        }
    }

    /// Marks the 4 KiB page containing `offset` as unreadable (latent
    /// sector error). A full overwrite of the page repairs it.
    pub fn inject_bad_page(&self, offset: u64) {
        self.inner.borrow_mut().bad_pages.insert(offset / PAGE);
    }

    /// Latent sector errors currently present on the platters.
    pub fn bad_page_count(&self) -> usize {
        self.inner.borrow().bad_pages.len()
    }

    /// Background media scrub over `[offset, offset + len)`: verify-reads
    /// every 4 KiB page in the range, detects latent sector errors and
    /// repairs them (sector reallocation — stored payload survives, the
    /// page reads normally again). The pass is costed at the sequential
    /// media rate stretched by the current latency factor, but runs as a
    /// firmware background task: it does not occupy the command queue, so
    /// foreground IO interleaves freely (TeraScale SneakerNet's "scrub in
    /// the idle gaps" discipline).
    ///
    /// Completes with an error if the disk is powered off, failed, or
    /// loses power mid-pass.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or the range exceeds the disk capacity.
    pub fn scrub(
        &self,
        sim: &Sim,
        offset: u64,
        len: u64,
        done: impl FnOnce(&Sim, Result<ScrubReport, DiskError>) + 'static,
    ) {
        assert!(len > 0, "scrub of empty range");
        let (duration, epoch) = {
            let i = self.inner.borrow();
            assert!(
                offset + len <= i.model.profile().mech.capacity_bytes,
                "scrub beyond disk capacity"
            );
            if i.failed {
                drop(i);
                done(sim, Err(DiskError::Failed));
                return;
            }
            if i.state == PowerStateKind::PoweredOff {
                drop(i);
                done(sim, Err(DiskError::PoweredOff));
                return;
            }
            let rate = i.model.media_rate(offset, Direction::Read);
            let secs = len as f64 / rate * i.latency_factor;
            (std::time::Duration::from_secs_f64(secs), i.epoch)
        };
        let this = self.clone();
        sim.schedule_in(duration, move |sim| {
            let report = {
                let mut i = this.inner.borrow_mut();
                if i.epoch != epoch || i.failed {
                    None
                } else {
                    let first_page = offset / PAGE;
                    let last_page = (offset + len - 1) / PAGE;
                    let bad: Vec<u64> = i
                        .bad_pages
                        .iter()
                        .copied()
                        .filter(|p| (first_page..=last_page).contains(p))
                        .collect();
                    for p in &bad {
                        i.bad_pages.remove(p);
                    }
                    let scanned = last_page - first_page + 1;
                    i.metrics.scrub_pages.add(scanned);
                    i.metrics.scrub_repairs.add(bad.len() as u64);
                    Some(ScrubReport {
                        scanned_pages: scanned,
                        bad_found: bad.len() as u64,
                        repaired: bad.len() as u64,
                    })
                }
            };
            match report {
                Some(r) => {
                    if r.repaired > 0 {
                        sim.trace(
                            TraceLevel::Info,
                            "disk",
                            format!(
                                "{}: scrub repaired {} latent sector error(s)",
                                this.name(),
                                r.repaired
                            ),
                        );
                    }
                    done(sim, Ok(r));
                }
                None => done(sim, Err(DiskError::Aborted)),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;

    fn setup() -> (Sim, Disk) {
        let sim = Sim::new(7);
        let disk = Disk::new(&sim, "d0", DiskProfile::usb_bridge(), true);
        (sim, disk)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (sim, disk) = setup();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        disk.write(&sim, 12_345, payload, |_, r| r.expect("write"));
        let ok = Rc::new(Cell::new(false));
        let okc = ok.clone();
        disk.read(&sim, 12_345, 10_000, move |_, r| {
            assert_eq!(r.expect("read"), expect);
            okc.set(true);
        });
        sim.run();
        assert!(ok.get());
    }

    #[test]
    fn unwritten_reads_zero() {
        let (sim, disk) = setup();
        disk.read(&sim, 1 << 30, 512, |_, r| {
            assert_eq!(r.expect("read"), vec![0u8; 512]);
        });
        sim.run();
    }

    #[test]
    fn out_of_range_rejected() {
        let (sim, disk) = setup();
        let cap = disk.capacity();
        disk.read(&sim, cap - 10, 100, |_, r| {
            assert_eq!(r.unwrap_err(), DiskError::OutOfRange);
        });
        disk.write(&sim, 0, Vec::new(), |_, r| {
            assert_eq!(r.unwrap_err(), DiskError::OutOfRange);
        });
        sim.run();
    }

    #[test]
    fn sequential_reads_are_fast_random_slow() {
        let (sim, disk) = setup();
        let t0 = sim.now();
        disk.read(&sim, 0, 4096, |_, _| {});
        sim.run();
        let first = sim.now() - t0;
        let t1 = sim.now();
        disk.read(&sim, 4096, 4096, |_, _| {});
        sim.run();
        let seq = sim.now() - t1;
        assert!(seq < Duration::from_micros(300), "seq {seq:?}");
        assert!(first > Duration::from_millis(1), "first (random) {first:?}");
    }

    #[test]
    fn commands_queue_fifo() {
        let (sim, disk) = setup();
        let order = Rc::new(RefCell::new(Vec::new()));
        for n in 0..3 {
            let o = order.clone();
            disk.read(&sim, n * 4096, 4096, move |_, _| o.borrow_mut().push(n));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn power_off_aborts_and_rejects() {
        let (sim, disk) = setup();
        let aborted = Rc::new(Cell::new(false));
        let a = aborted.clone();
        // Queue a slow random command then cut power before it completes.
        disk.read(&sim, 1 << 33, 4096, move |_, r| {
            assert_eq!(r.unwrap_err(), DiskError::Aborted);
            a.set(true);
        });
        let d = disk.clone();
        sim.schedule_in(Duration::from_micros(10), move |sim| d.power_off(sim));
        let d2 = disk.clone();
        sim.schedule_in(Duration::from_millis(1), move |sim| {
            d2.read(sim, 0, 512, |_, r| {
                assert_eq!(r.unwrap_err(), DiskError::PoweredOff);
            });
        });
        sim.run();
        assert!(aborted.get());
        assert_eq!(disk.power_state(), PowerStateKind::PoweredOff);
    }

    #[test]
    fn power_on_spins_up_then_serves() {
        let (sim, disk) = setup();
        disk.power_off(&sim);
        disk.power_on(&sim);
        assert_eq!(disk.power_state(), PowerStateKind::SpinningUp);
        let done_at = Rc::new(Cell::new(SimTime::ZERO));
        let d = done_at.clone();
        disk.read(&sim, 0, 512, move |sim, r| {
            r.expect("read after spin-up");
            d.set(sim.now());
        });
        sim.run();
        assert!(done_at.get() >= SimTime::ZERO + Duration::from_secs(7));
        assert_eq!(disk.power_state(), PowerStateKind::Idle);
    }

    #[test]
    fn standby_auto_spins_up_on_io() {
        let (sim, disk) = setup();
        disk.spin_down(&sim);
        assert_eq!(disk.power_state(), PowerStateKind::Standby);
        let done_at = Rc::new(Cell::new(SimTime::ZERO));
        let d = done_at.clone();
        disk.read(&sim, 0, 512, move |sim, r| {
            r.expect("read");
            d.set(sim.now());
        });
        sim.run();
        assert!(done_at.get() >= SimTime::ZERO + Duration::from_secs(7));
    }

    #[test]
    fn spin_down_ignored_while_busy() {
        let (sim, disk) = setup();
        disk.read(&sim, 1 << 33, 4096, |_, _| {});
        disk.spin_down(&sim);
        assert_eq!(disk.power_state(), PowerStateKind::Active);
        sim.run();
    }

    #[test]
    fn failed_disk_errors() {
        let (sim, disk) = setup();
        disk.set_failed(&sim, true);
        disk.read(&sim, 0, 512, |_, r| {
            assert_eq!(r.unwrap_err(), DiskError::Failed);
        });
        sim.run();
        assert_eq!(disk.stats().errors, 1);
    }

    #[test]
    fn bad_page_then_repair() {
        let (sim, disk) = setup();
        disk.inject_bad_page(8192);
        let d = disk.clone();
        disk.read(&sim, 8192, 4096, move |sim, r| {
            assert!(matches!(r.unwrap_err(), DiskError::Medium { offset: 8192 }));
            // Full overwrite repairs the page.
            let d2 = d.clone();
            d.write(sim, 8192, vec![1u8; 4096], move |sim, r| {
                r.expect("write repairs");
                d2.read(sim, 8192, 4096, |_, r| {
                    assert_eq!(r.expect("repaired read")[0], 1);
                });
            });
        });
        sim.run();
    }

    #[test]
    fn energy_accounting_idle_vs_active() {
        let (sim, disk) = setup();
        sim.run_until(SimTime::from_secs(10));
        let idle_j = disk.energy_joules(&sim);
        // Table III USB-bridge idle: 5.76 W.
        assert!((idle_j - 57.6).abs() < 0.5, "idle energy {idle_j}");
        assert_eq!(disk.watts_now(), 5.76);
    }

    #[test]
    fn metrics_and_residency_gauges() {
        let (sim, disk) = setup();
        disk.write(&sim, 0, vec![0u8; 4096], |_, _| {});
        disk.read(&sim, 0, 4096, |_, _| {});
        sim.run_until(SimTime::from_secs(5));
        disk.publish_residency(&sim);
        let m = sim.metrics_snapshot();
        assert_eq!(m.counter("d0", "disk.writes"), 1);
        assert_eq!(m.counter("d0", "disk.reads"), 1);
        assert_eq!(m.counter("d0", "disk.write_bytes"), 4096);
        assert!(
            m.histogram("d0", "disk.latency_ns")
                .expect("latency")
                .count()
                >= 2
        );
        assert!(m.counter("d0", "disk.seeks") + m.counter("d0", "disk.cache_hits") >= 2);
        let idle = m.gauge("d0", "power.residency.idle_s").expect("idle gauge");
        let active = m
            .gauge("d0", "power.residency.active_s")
            .expect("active gauge");
        assert!(idle > 0.0, "idle residency {idle}");
        assert!(active > 0.0, "active residency {active}");
        assert!(
            (idle + active - 5.0).abs() < 0.01,
            "residencies sum to the run window"
        );
        assert!(m.gauge("d0", "power.energy_j").expect("energy") > 0.0);
    }

    #[test]
    fn latency_factor_stretches_seeks_only() {
        // Same random read on a healthy and a degraded disk: the degraded
        // one takes ~factor x the positioning time longer.
        let (sim, disk) = setup();
        disk.read(&sim, 1 << 33, 4096, |_, _| {});
        sim.run();
        let healthy = sim.now() - SimTime::ZERO;

        let sim2 = Sim::new(7);
        let slow = Disk::new(&sim2, "d0", DiskProfile::usb_bridge(), true);
        slow.set_latency_factor(3.0);
        assert_eq!(slow.latency_factor(), 3.0);
        slow.read(&sim2, 1 << 33, 4096, |_, _| {});
        sim2.run();
        let degraded = sim2.now() - SimTime::ZERO;
        assert!(
            degraded > healthy + Duration::from_millis(10),
            "degraded {degraded:?} vs healthy {healthy:?}"
        );

        // Sequential follow-up IO (no positioning) is NOT stretched.
        let t = sim2.now();
        slow.read(&sim2, (1 << 33) + 4096, 4096, |_, _| {});
        sim2.run();
        assert!(sim2.now() - t < Duration::from_micros(300));
    }

    #[test]
    fn read_error_rate_injects_uncorrectable_reads() {
        let (sim, disk) = setup();
        disk.set_read_error_rate(&sim, 0.5);
        let errors = Rc::new(Cell::new(0u32));
        for n in 0..40u64 {
            let e = errors.clone();
            disk.read(&sim, n * 4096, 4096, move |_, r| {
                if matches!(r, Err(DiskError::Medium { .. })) {
                    e.set(e.get() + 1);
                }
            });
        }
        sim.run();
        let hits = errors.get();
        assert!(hits > 5 && hits < 35, "p=0.5 over 40 reads: {hits}");
        let m = sim.metrics_snapshot();
        assert_eq!(m.counter("d0", "disk.uncorrectable_reads"), u64::from(hits));
        assert_eq!(m.counter("d0", "disk.errors"), u64::from(hits));
        // Turning the rate back down restores healthy reads.
        disk.set_read_error_rate(&sim, 0.0);
        disk.read(&sim, 0, 512, |_, r| {
            r.expect("healthy again");
        });
        sim.run();
    }

    #[test]
    fn scrub_detects_and_repairs_latent_sector_errors() {
        let (sim, disk) = setup();
        disk.write(&sim, 0, vec![0x5A; 8192], |_, r| r.expect("write"));
        sim.run();
        disk.inject_bad_page(4096);
        disk.inject_bad_page(1 << 20);
        assert_eq!(disk.bad_page_count(), 2);

        let report = Rc::new(Cell::new(None));
        let r2 = report.clone();
        disk.scrub(&sim, 0, 2 << 20, move |_, r| {
            r2.set(Some(r.expect("scrub completes")));
        });
        sim.run();
        let rep = report.get().expect("scrub ran");
        assert_eq!(rep.scanned_pages, (2 << 20) / 4096);
        assert_eq!(rep.bad_found, 2);
        assert_eq!(rep.repaired, 2);
        assert_eq!(disk.bad_page_count(), 0);

        // The repaired page serves the payload written before the LSE.
        disk.read(&sim, 4096, 4096, |_, r| {
            assert_eq!(r.expect("repaired page readable")[0], 0x5A);
        });
        sim.run();
        let m = sim.metrics_snapshot();
        assert_eq!(m.counter("d0", "disk.scrub_pages"), (2 << 20) / 4096);
        assert_eq!(m.counter("d0", "disk.scrub_repairs"), 2);
    }

    #[test]
    fn scrub_fails_cleanly_on_dead_or_powered_off_disks() {
        let (sim, disk) = setup();
        disk.power_off(&sim);
        let saw = Rc::new(Cell::new(0u32));
        let s2 = saw.clone();
        disk.scrub(&sim, 0, 4096, move |_, r| {
            assert_eq!(r.unwrap_err(), DiskError::PoweredOff);
            s2.set(s2.get() + 1);
        });
        disk.power_on(&sim);
        sim.run();
        // A pass in flight when the disk fails aborts instead of lying.
        disk.inject_bad_page(0);
        let s3 = saw.clone();
        disk.scrub(&sim, 0, 1 << 20, move |_, r| {
            assert_eq!(r.unwrap_err(), DiskError::Aborted);
            s3.set(s3.get() + 1);
        });
        let d = disk.clone();
        sim.schedule_in(Duration::from_micros(10), move |sim| {
            d.power_off(sim);
        });
        sim.run();
        assert_eq!(saw.get(), 2);
        // Failed disks reject the pass synchronously.
        let sim2 = Sim::new(9);
        let dead = Disk::new(&sim2, "d1", DiskProfile::usb_bridge(), false);
        dead.set_failed(&sim2, true);
        let s4 = Rc::new(Cell::new(false));
        let s5 = s4.clone();
        dead.scrub(&sim2, 0, 4096, move |_, r| {
            assert_eq!(r.unwrap_err(), DiskError::Failed);
            s5.set(true);
        });
        assert!(s4.get(), "failed-disk scrub completes synchronously");
    }

    #[test]
    fn stats_track_ops() {
        let (sim, disk) = setup();
        disk.write(&sim, 0, vec![0u8; 4096], |_, _| {});
        disk.read(&sim, 0, 4096, |_, _| {});
        sim.run();
        let s = disk.stats();
        assert_eq!(s.reads.ops(), 1);
        assert_eq!(s.writes.ops(), 1);
        assert_eq!(s.latency.count(), 2);
    }

    /// Runs a write to completion.
    fn write_now(sim: &Sim, disk: &Disk, offset: u64, data: impl Into<Arc<Vec<u8>>>) {
        disk.write(sim, offset, data, |_, r| r.expect("write"));
        sim.run();
    }

    /// Runs a read to completion and returns its result.
    fn read_now(sim: &Sim, disk: &Disk, offset: u64, len: u64) -> ReadResult {
        let out = Rc::new(RefCell::new(None));
        let o = out.clone();
        disk.read(sim, offset, len, move |_, r| *o.borrow_mut() = Some(r));
        sim.run();
        let r = out.borrow_mut().take().expect("read completed");
        r
    }

    /// Whether the stored page holding `offset` lies inside `buf`.
    fn page_in(disk: &Disk, offset: u64, buf: &[u8]) -> bool {
        disk.page_addr(offset)
            .is_some_and(|a| buf.as_ptr_range().contains(&(a as *const u8)))
    }

    #[test]
    fn unaligned_write_shares_full_pages_and_copies_the_edges() {
        let (sim, disk) = setup();
        // [3000, 9000): page 0 and page 2 partial, page 1 covered in full.
        let buf = Arc::new((0..6000u32).map(|i| (i % 253) as u8).collect::<Vec<u8>>());
        write_now(&sim, &disk, 3000, Arc::clone(&buf));
        assert!(!page_in(&disk, 0, &buf), "partial head page is a copy");
        assert_eq!(
            disk.page_addr(4096),
            Some(buf.as_ptr() as usize + 1096),
            "full page points into the written buffer"
        );
        assert!(!page_in(&disk, 8192, &buf), "partial tail page is a copy");
        let got = read_now(&sim, &disk, 0, 3 * PAGE).expect("read");
        assert!(got[..3000].iter().all(|&b| b == 0));
        assert_eq!(&got[3000..9000], &buf[..]);
        assert!(got[9000..].iter().all(|&b| b == 0));
    }

    #[test]
    fn partial_write_into_a_shared_page_copies_it_first() {
        let (sim, disk) = setup();
        let buf = Arc::new(vec![0x11u8; 2 * PAGE as usize]);
        write_now(&sim, &disk, 0, Arc::clone(&buf));
        assert!(page_in(&disk, 0, &buf) && page_in(&disk, PAGE, &buf));
        write_now(&sim, &disk, 50, vec![0xEEu8; 100]);
        // The caller's buffer is untouched; page 0 became a private copy
        // carrying both writes, page 1 still shares the buffer.
        assert!(buf.iter().all(|&b| b == 0x11));
        assert!(!page_in(&disk, 0, &buf));
        assert!(page_in(&disk, PAGE, &buf));
        let got = read_now(&sim, &disk, 0, 2 * PAGE).expect("read");
        assert!(got[..50].iter().all(|&b| b == 0x11));
        assert!(got[50..150].iter().all(|&b| b == 0xEE));
        assert!(got[150..].iter().all(|&b| b == 0x11));
    }

    #[test]
    fn only_full_page_writes_repair_bad_pages() {
        let (sim, disk) = setup();
        disk.inject_bad_page(PAGE);
        // Everything of page 1 but its first byte: no repair.
        write_now(&sim, &disk, PAGE + 1, vec![1u8; PAGE as usize - 1]);
        assert_eq!(
            read_now(&sim, &disk, PAGE, PAGE),
            Err(DiskError::Medium { offset: PAGE })
        );
        assert_eq!(disk.bad_page_count(), 1);
        // An unaligned write covering page 1 in full repairs it.
        write_now(&sim, &disk, PAGE - 10, vec![2u8; PAGE as usize + 20]);
        assert_eq!(disk.bad_page_count(), 0);
        let got = read_now(&sim, &disk, PAGE, PAGE).expect("repaired");
        assert!(got.iter().all(|&b| b == 2));
    }

    #[test]
    fn overwritten_buffer_is_released() {
        let (sim, disk) = setup();
        let buf = Arc::new(vec![7u8; 2 * PAGE as usize]);
        let weak = Arc::downgrade(&buf);
        write_now(&sim, &disk, 0, buf);
        assert!(weak.upgrade().is_some(), "stored pages keep the buffer");
        // A partial overwrite copies page 0 out; page 1 still pins the
        // buffer until a full overwrite replaces it.
        write_now(&sim, &disk, 0, vec![8u8; 16]);
        assert!(weak.upgrade().is_some(), "page 1 still references it");
        write_now(&sim, &disk, PAGE, vec![9u8; PAGE as usize]);
        assert!(weak.upgrade().is_none(), "last page overwritten: freed");
        let got = read_now(&sim, &disk, 0, PAGE).expect("read");
        assert!(got[..16].iter().all(|&b| b == 8));
        assert!(got[16..].iter().all(|&b| b == 7));
    }
}
