//! The discrete-event disk component.
//!
//! [`Disk`] wraps the pure [`IoModel`] with everything a simulated system
//! needs from a drive: an internal command queue, a power-state machine
//! (with spin-up/spin-down timing), optional payload storage (so upper
//! layers like the mini-DFS can verify data integrity end-to-end), fault
//! injection, and per-disk statistics and energy accounting.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// Consecutive stored pages backed by one buffer: the run's `k`-th page
/// is the window `[at + k * PAGE, at + (k + 1) * PAGE)` of `buf`.
struct Run {
    buf: Arc<Vec<u8>>,
    at: usize,
    pages: u64,
}

impl Run {
    /// The run without its first `skip` pages, sharing the buffer.
    fn skip(&self, skip: u64) -> Run {
        Run {
            buf: Arc::clone(&self.buf),
            at: self.at + (skip * PAGE) as usize,
            pages: self.pages - skip,
        }
    }

    /// The run's bytes from byte `from` to byte `to` of the run.
    fn bytes(&self, from: u64, to: u64) -> &[u8] {
        &self.buf[self.at + from as usize..self.at + to as usize]
    }
}

/// The sparse payload store: non-overlapping page runs keyed by their
/// first page. A write's fully covered pages become one run sharing its
/// buffer, so storing an aligned write costs O(log runs) whatever its
/// length; partially covered pages are one-page copies.
#[derive(Default)]
struct PageRuns(BTreeMap<u64, Run>);

impl PageRuns {
    /// The run holding page `p`, with its first page.
    fn run_at(&self, p: u64) -> Option<(u64, &Run)> {
        let (&first, run) = self.0.range(..=p).next_back()?;
        (p < first + run.pages).then_some((first, run))
    }

    /// Forgets pages `[lo, hi)`: runs inside go, runs across either edge
    /// are trimmed to the part outside (the buffer stays shared).
    fn carve(&mut self, lo: u64, hi: u64) {
        let tail = self
            .0
            .range_mut(..lo)
            .next_back()
            .and_then(|(&first, run)| {
                let end = first + run.pages;
                if end <= lo {
                    return None;
                }
                let tail = (end > hi).then(|| run.skip(hi - first));
                run.pages = lo - first;
                tail
            });
        if let Some(tail) = tail {
            self.0.insert(hi, tail);
            return;
        }
        while let Some((&first, _)) = self.0.range(lo..hi).next() {
            let run = self.0.remove(&first).expect("run was just found");
            if first + run.pages > hi {
                self.0.insert(hi, run.skip(hi - first));
            }
        }
    }

    /// Stores `data` at byte `offset`. The pages it covers in full become
    /// one run that shares `data`; a page it covers in part is copied out
    /// of its old run (copy on write) and patched.
    fn write(&mut self, offset: u64, data: &Arc<Vec<u8>>) {
        let end = offset + data.len() as u64;
        let (lo, hi) = full_pages(offset, end);
        if lo < hi {
            self.carve(lo, hi);
            let run = Run {
                buf: Arc::clone(data),
                at: (lo * PAGE - offset) as usize,
                pages: hi - lo,
            };
            self.0.insert(lo, run);
        }
        let (first, last) = (offset / PAGE, (end - 1) / PAGE);
        if !(lo..hi).contains(&first) {
            self.patch(first, offset, data);
        }
        if last != first && !(lo..hi).contains(&last) {
            self.patch(last, offset, data);
        }
    }

    /// Writes the part of `data` (stored at byte `offset`) that falls in
    /// page `p`, which it covers in part.
    fn patch(&mut self, p: u64, offset: u64, data: &[u8]) {
        let start = p * PAGE;
        let s = offset.max(start);
        let e = (offset + data.len() as u64).min(start + PAGE);
        let src = &data[(s - offset) as usize..(e - offset) as usize];
        let dst = (s - start) as usize..(e - start) as usize;
        // A one-page copy nobody else holds is patched in place.
        if let Some(run) = self.0.get_mut(&p) {
            if run.pages == 1 && run.buf.len() == PAGE as usize {
                if let Some(page) = Arc::get_mut(&mut run.buf) {
                    page[dst].copy_from_slice(src);
                    return;
                }
            }
        }
        let mut page = match self.run_at(p) {
            Some((first, run)) => {
                let from = (p - first) * PAGE;
                run.bytes(from, from + PAGE).to_vec()
            }
            None => vec![0u8; PAGE as usize],
        };
        page[dst].copy_from_slice(src);
        self.carve(p, p + 1);
        let run = Run {
            buf: Arc::new(page),
            at: 0,
            pages: 1,
        };
        self.0.insert(p, run);
    }

    /// Copies the stored bytes of `[offset, offset + out.len())` into
    /// `out`, leaving unstored pages untouched.
    fn read(&self, offset: u64, out: &mut [u8]) {
        let end = offset + out.len() as u64;
        let (first, last) = (offset / PAGE, (end - 1) / PAGE);
        let from = self.run_at(first).map_or(first, |(f, _)| f);
        for (&f, run) in self.0.range(from..=last) {
            let start = f * PAGE;
            let s = offset.max(start);
            let e = end.min(start + run.pages * PAGE);
            out[(s - offset) as usize..(e - offset) as usize]
                .copy_from_slice(run.bytes(s - start, e - start));
        }
    }

    /// Address of the stored bytes of the page holding byte `offset`.
    fn page_addr(&self, offset: u64) -> Option<usize> {
        let p = offset / PAGE;
        let (first, run) = self.run_at(p)?;
        let from = (p - first) * PAGE;
        Some(run.bytes(from, from + PAGE).as_ptr() as usize)
    }
}

/// The pages `[lo, hi)` that the byte range `[offset, end)` covers in
/// full (empty when `lo >= hi`).
fn full_pages(offset: u64, end: u64) -> (u64, u64) {
    (offset.div_ceil(PAGE), end / PAGE)
}

/// Removes the latent sector errors among pages `[lo, hi)`; returns how
/// many there were.
fn repair_pages(bad: &mut BTreeSet<u64>, lo: u64, hi: u64) -> u64 {
    if lo >= hi {
        return 0;
    }
    let mut repaired = 0;
    while let Some(&p) = bad.range(lo..hi).next() {
        bad.remove(&p);
        repaired += 1;
    }
    repaired
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
    bad_pages: BTreeSet<u64>,
    data: Option<PageRuns>,
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
                bad_pages: BTreeSet::new(),
                data: store_data.then(PageRuns::default),
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
    /// The buffer is stored without a copy: the 4 KiB pages the write
    /// covers in full become one run referencing it, and the buffer lives
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
        let (first_page, last_page) = (offset / PAGE, (offset + len - 1) / PAGE);
        if let Some(&p) = i.bad_pages.range(first_page..=last_page).next() {
            return Err(DiskError::Medium { offset: p * PAGE });
        }
        let mut out = vec![0u8; len as usize];
        if let Some(data) = &i.data {
            data.read(offset, &mut out);
        }
        Ok(out)
    }

    fn do_write(&self, offset: u64, data: &Arc<Vec<u8>>) {
        let mut i = self.inner.borrow_mut();
        // Only fully overwritten pages repair a latent sector error.
        let (lo, hi) = full_pages(offset, offset + data.len() as u64);
        repair_pages(&mut i.bad_pages, lo, hi);
        if let Some(store) = &mut i.data {
            store.write(offset, data);
        }
    }

    /// Address of the bytes backing the stored page that contains
    /// `offset`, if the page holds data: lets callers check that a write
    /// was stored by reference (the address then lies inside the
    /// written buffer) rather than copied.
    pub fn page_addr(&self, offset: u64) -> Option<usize> {
        self.inner.borrow().data.as_ref()?.page_addr(offset)
    }

    /// Number of page runs in the payload store.
    #[cfg(test)]
    fn run_count(&self) -> usize {
        self.inner.borrow().data.as_ref().map_or(0, |d| d.0.len())
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
                    let bad = repair_pages(&mut i.bad_pages, first_page, last_page + 1);
                    let scanned = last_page - first_page + 1;
                    i.metrics.scrub_pages.add(scanned);
                    i.metrics.scrub_repairs.add(bad);
                    Some(ScrubReport {
                        scanned_pages: scanned,
                        bad_found: bad,
                        repaired: bad,
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

    #[test]
    fn aligned_write_over_existing_data_leaves_one_run() {
        let (sim, disk) = setup();
        const MIB: u64 = 1 << 20;
        // Scattered partial and one-page writes inside the first MiB.
        for k in 0..64u64 {
            write_now(&sim, &disk, k * 16_000 + 7, vec![k as u8; 3000]);
        }
        assert!(disk.run_count() > 64);
        let buf = Arc::new(vec![0xA5u8; MIB as usize]);
        write_now(&sim, &disk, 0, Arc::clone(&buf));
        assert_eq!(disk.run_count(), 1, "one run for the whole write");
        assert!(page_in(&disk, 0, &buf) && page_in(&disk, MIB - 1, &buf));
        // Inside a bigger run: the old run is split around the new one.
        let big = Arc::new(vec![0x3Cu8; 3 * MIB as usize]);
        write_now(&sim, &disk, 0, Arc::clone(&big));
        write_now(&sim, &disk, MIB, Arc::clone(&buf));
        assert_eq!(disk.run_count(), 3);
        assert!(page_in(&disk, MIB - PAGE, &big) && page_in(&disk, 2 * MIB, &big));
        let got = read_now(&sim, &disk, 0, 3 * MIB).expect("read");
        assert!(got[..MIB as usize].iter().all(|&b| b == 0x3C));
        assert!(got[MIB as usize..2 * MIB as usize]
            .iter()
            .all(|&b| b == 0xA5));
        assert!(got[2 * MIB as usize..].iter().all(|&b| b == 0x3C));
    }

    /// Log-uniform length in `[1, max]`.
    fn log_len(rng: &mut SimRng, max: u64) -> u64 {
        let bits = rng.range_u64(0, 64 - max.leading_zeros() as u64);
        rng.range_u64(1 << bits, (2u64 << bits).min(max + 1))
    }

    /// Random writes and reads against a flat reference disk: every read
    /// matches it, fully covered pages are stored by reference, a buffer
    /// is freed exactly when its last page is overwritten, and only
    /// full-page writes repair latent sector errors.
    #[test]
    fn page_runs_match_a_flat_reference_disk() {
        const SPAN: u64 = 6 << 20;
        const MAX_IO: u64 = 1 << 20;
        const PAGES: usize = (SPAN / PAGE) as usize;
        let (sim, disk) = setup();
        let mut rng = SimRng::seed_from(2024);
        let pool: Vec<u8> = (0..SPAN + MAX_IO).map(|_| rng.next_u64() as u8).collect();
        let mut flat = vec![0u8; SPAN as usize];
        let mut bad = BTreeSet::new();
        // The write whose buffer backs each page, if the page is shared.
        let mut owner: Vec<Option<usize>> = vec![None; PAGES];
        let mut live: Vec<u64> = Vec::new();
        let mut weak: Vec<std::sync::Weak<Vec<u8>>> = Vec::new();
        let mut repaired_by_full_write = 0;
        for _ in 0..10_000 {
            if rng.chance(0.02) {
                let p = rng.u64_below(SPAN / PAGE);
                disk.inject_bad_page(p * PAGE);
                bad.insert(p);
            }
            let (offset, len) = if rng.chance(0.3) {
                let pages = log_len(&mut rng, MAX_IO / PAGE);
                let first = rng.u64_below(SPAN / PAGE - pages + 1);
                (first * PAGE, pages * PAGE)
            } else {
                let len = log_len(&mut rng, MAX_IO);
                (rng.u64_below(SPAN - len + 1), len)
            };
            let src = rng.u64_below(MAX_IO) as usize;
            let buf = Arc::new(pool[src..src + len as usize].to_vec());
            let id = weak.len();
            weak.push(Arc::downgrade(&buf));
            live.push(0);
            let end = offset + len;
            let (lo, hi) = full_pages(offset, end);
            let before = bad.len();
            bad.retain(|p| !(lo..hi).contains(p));
            repaired_by_full_write += before - bad.len();
            let mut released = Vec::new();
            for p in offset / PAGE..=(end - 1) / PAGE {
                if let Some(old) = owner[p as usize].take() {
                    live[old] -= 1;
                    if live[old] == 0 {
                        released.push(old);
                    }
                }
                if (lo..hi).contains(&p) {
                    owner[p as usize] = Some(id);
                    live[id] += 1;
                }
            }
            flat[offset as usize..end as usize].copy_from_slice(&buf);
            write_now(&sim, &disk, offset, Arc::clone(&buf));
            for p in [offset / PAGE, lo, hi.saturating_sub(1), (end - 1) / PAGE] {
                let shared = (lo..hi).contains(&p);
                let want = buf.as_ptr() as usize + (p * PAGE) as usize - offset as usize;
                assert_eq!(shared, disk.page_addr(p * PAGE) == Some(want), "page {p}");
                assert!(shared || !page_in(&disk, p * PAGE, &buf), "page {p} copied");
            }
            drop(buf);
            for old in released {
                assert!(weak[old].upgrade().is_none(), "write {old} released");
            }
            assert_eq!(weak[id].upgrade().is_some(), live[id] > 0);
            assert_eq!(disk.bad_page_count(), bad.len());
            if rng.chance(0.5) {
                let len = log_len(&mut rng, MAX_IO);
                let offset = rng.u64_below(SPAN - len + 1);
                let got = read_now(&sim, &disk, offset, len);
                let (first, last) = (offset / PAGE, (offset + len - 1) / PAGE);
                match bad.range(first..=last).next() {
                    Some(&p) => assert_eq!(got, Err(DiskError::Medium { offset: p * PAGE })),
                    None => assert!(
                        got.expect("read") == flat[offset as usize..(offset + len) as usize],
                        "read {offset}+{len}"
                    ),
                }
            }
        }
        assert!(
            repaired_by_full_write > 0,
            "some latent errors were repaired"
        );
        for (id, w) in weak.iter().enumerate() {
            assert_eq!(w.upgrade().is_some(), live[id] > 0, "write {id}");
        }
    }
}
