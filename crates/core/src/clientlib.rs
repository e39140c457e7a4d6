//! The UStore ClientLib (§IV-D).
//!
//! The client library abstracts away disk–host connectivity and exposes
//! allocated spaces as block devices. It provides storage-management APIs
//! (allocate, release, directory lookup), mounts targets over the
//! iSCSI-style protocol, and — crucially for failover — **remounts
//! automatically**: when a mounted space becomes unreachable, pending IO
//! is queued, the Master is re-queried for the space's new host, the
//! session is re-established, and the queue drains. From the upper
//! layer's view there is only "a temporary high latency accessing local
//! disks".

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_fabric::DiskId;
use ustore_net::{
    Addr, BlockDevice, BlockError, IscsiSession, Network, ReadCb, Replicas, RetryPolicy, RpcNode,
    Verdict, WriteCb,
};
use ustore_sim::{FastMap, ReqKind, Sim, SimTime, SpanId, TraceId, TraceLevel};

use crate::ids::{SpaceName, UnitId};
use crate::messages::{AllocateReq, DiskPowerReq, LookupReq, MasterError, ReleaseReq, SpaceInfo};

/// ClientLib tunables.
#[derive(Debug, Clone)]
pub struct ClientLibConfig {
    /// IO timeout on a mounted session (detects dead hosts).
    pub io_timeout: Duration,
    /// Delay after an iSCSI login before the device is usable (device
    /// scan — Figure 6 part 3).
    pub mount_settle: Duration,
    /// Backoff between remount attempts.
    pub remount_backoff: Duration,
    /// Give up remounting after this long and fail queued IO.
    pub remount_deadline: Duration,
    /// Location-lease duration: when `Some`, resolved space locations are
    /// cached and served locally until the lease expires, keeping the
    /// Master off the lookup path. IO failures, releases and vanished
    /// spaces invalidate the cached entry immediately, so a stale lease
    /// never routes IO past the first error. `None` (the default)
    /// preserves the uncached, always-ask-the-Master behavior bit for bit.
    pub location_lease: Option<Duration>,
}

impl Default for ClientLibConfig {
    fn default() -> Self {
        ClientLibConfig {
            io_timeout: Duration::from_millis(800),
            mount_settle: Duration::from_millis(1000),
            remount_backoff: Duration::from_millis(300),
            remount_deadline: Duration::from_secs(60),
            location_lease: None,
        }
    }
}

/// How a call finds the active Master: per-attempt timeout, attempts
/// across master processes (timeouts and `NotActive` alike), and the delay
/// between them.
const MASTER: RetryPolicy = RetryPolicy {
    timeout: Duration::from_millis(600),
    attempts: 12,
    backoff: Duration::from_millis(250),
};

/// Client-visible errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientLibError {
    /// No master answered within the retry budget.
    MasterUnreachable,
    /// The master rejected the request.
    Master(MasterError),
    /// The space could not be (re)mounted before the deadline.
    MountFailed(String),
}

impl fmt::Display for ClientLibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientLibError::MasterUnreachable => write!(f, "no master reachable"),
            ClientLibError::Master(e) => write!(f, "master: {e}"),
            ClientLibError::MountFailed(w) => write!(f, "mount failed: {w}"),
        }
    }
}

impl std::error::Error for ClientLibError {}

/// The UStore client library, bound to one network address.
#[derive(Clone)]
pub struct UStoreClient {
    masters: Replicas,
    config: ClientLibConfig,
    /// Location-lease cache: resolved space → (info, lease expiry).
    /// Only populated when `config.location_lease` is set.
    leases: Rc<RefCell<FastMap<SpaceName, (SpaceInfo, SimTime)>>>,
}

impl fmt::Debug for UStoreClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UStoreClient")
            .field("addr", self.rpc().addr())
            .finish()
    }
}

impl UStoreClient {
    /// Creates a client at `addr` talking to the given master processes.
    ///
    /// # Panics
    ///
    /// Panics if `masters` is empty.
    pub fn new(net: &Network, addr: Addr, masters: Vec<Addr>, config: ClientLibConfig) -> Self {
        assert!(!masters.is_empty(), "need at least one master address");
        UStoreClient {
            masters: Replicas::new(RpcNode::new(net, addr), masters),
            config,
            leases: Rc::new(RefCell::new(FastMap::default())),
        }
    }

    /// The client's network address (useful as a locality hint).
    pub fn addr(&self) -> Addr {
        self.rpc().addr().clone()
    }

    fn rpc(&self) -> &RpcNode {
        self.masters.rpc()
    }

    /// Calls the active Master. A standby's `NotActive` and a transport
    /// failure both move on to the other master process, within one retry
    /// budget.
    fn master_call<T: Any + Send + Sync + Clone>(
        &self,
        sim: &Sim,
        method: &'static str,
        body: ustore_net::Payload,
        cb: impl FnOnce(&Sim, Result<T, ClientLibError>) + 'static,
    ) {
        self.masters.call::<Result<T, MasterError>, _>(
            sim,
            method,
            body,
            128,
            MASTER,
            |_, r| match r.map(Arc::unwrap_or_clone) {
                Ok(Err(MasterError::NotActive)) | Err(_) => Verdict::Next,
                Ok(r) => Verdict::Done(r.map_err(ClientLibError::Master)),
            },
            move |sim, r| cb(sim, r.unwrap_or(Err(ClientLibError::MasterUnreachable))),
        );
    }

    /// Requests `size` bytes for `service` (with this client as the
    /// locality hint).
    pub fn allocate(
        &self,
        sim: &Sim,
        service: impl Into<String>,
        size: u64,
        cb: impl FnOnce(&Sim, Result<SpaceInfo, ClientLibError>) + 'static,
    ) {
        let req = AllocateReq {
            service: service.into(),
            size,
            near: Some(self.addr()),
        };
        self.master_call::<SpaceInfo>(sim, "master.allocate", Arc::new(req), cb);
    }

    /// Directory lookup: where does this space live right now?
    ///
    /// With a location lease configured, a still-valid cached answer is
    /// served locally (synchronously — the Master never sees the
    /// request); otherwise the Master is asked and a resolved location
    /// (one with a live host) is cached under a fresh lease.
    pub fn lookup(
        &self,
        sim: &Sim,
        name: SpaceName,
        cb: impl FnOnce(&Sim, Result<SpaceInfo, ClientLibError>) + 'static,
    ) {
        let Some(lease) = self.config.location_lease else {
            self.master_call::<SpaceInfo>(sim, "master.lookup", Arc::new(LookupReq { name }), cb);
            return;
        };
        let cached = self
            .leases
            .borrow()
            .get(&name)
            .filter(|(_, expires)| sim.now() < *expires)
            .map(|(info, _)| info.clone());
        let tracer = sim.reqtracer();
        if let Some(info) = cached {
            tracer.note_lease(true);
            tracer.note_master_lookup(Duration::ZERO);
            cb(sim, Ok(info));
            return;
        }
        self.leases.borrow_mut().remove(&name);
        tracer.note_lease(false);
        let leases = self.leases.clone();
        let asked = sim.now();
        self.master_call::<SpaceInfo>(
            sim,
            "master.lookup",
            Arc::new(LookupReq { name }),
            move |sim, r| {
                sim.reqtracer()
                    .note_master_lookup(sim.now().duration_since(asked));
                if let Ok(info) = &r {
                    if info.host_addr.is_some() {
                        leases
                            .borrow_mut()
                            .insert(name, (info.clone(), sim.now() + lease));
                    }
                }
                cb(sim, r);
            },
        );
    }

    /// Drops the cached location of `name` (no-op without a lease
    /// configured). IO errors, releases and vanished spaces call this so
    /// no request is ever routed on a lease the system knows is stale.
    fn invalidate_lease(&self, name: SpaceName) {
        if self.config.location_lease.is_some() {
            self.leases.borrow_mut().remove(&name);
        }
    }

    /// The currently cached (unexpired) location of `name`, if any.
    pub fn cached_location(&self, sim: &Sim, name: SpaceName) -> Option<SpaceInfo> {
        self.leases
            .borrow()
            .get(&name)
            .filter(|(_, expires)| sim.now() < *expires)
            .map(|(info, _)| info.clone())
    }

    /// Releases an allocated space.
    pub fn release(
        &self,
        sim: &Sim,
        name: SpaceName,
        cb: impl FnOnce(&Sim, Result<(), ClientLibError>) + 'static,
    ) {
        self.invalidate_lease(name);
        self.master_call::<()>(sim, "master.release", Arc::new(ReleaseReq { name }), cb);
    }

    /// Spins disk `disk` of deploy unit `unit` up or down (§IV-F exposes
    /// disk management to upper-layer services).
    pub fn disk_power(
        &self,
        sim: &Sim,
        unit: UnitId,
        disk: DiskId,
        up: bool,
        cb: impl FnOnce(&Sim, Result<(), ClientLibError>) + 'static,
    ) {
        self.master_call::<()>(
            sim,
            "master.disk_power",
            Arc::new(DiskPowerReq { unit, disk, up }),
            cb,
        );
    }

    /// Mounts a space; `cb` fires once the device is usable. The returned
    /// handle keeps working across failovers (auto-remount).
    pub fn mount(
        &self,
        sim: &Sim,
        name: SpaceName,
        cb: impl FnOnce(&Sim, Result<Mounted, ClientLibError>) + 'static,
    ) {
        let mounted = Mounted {
            inner: Rc::new(RefCell::new(Mount {
                name,
                size: 0,
                session: None,
                remounting: false,
                queue: VecDeque::new(),
                remount_count: 0,
                on_remount: Vec::new(),
            })),
            client: self.clone(),
        };
        // Remount-notification callbacks and queued IO callbacks routinely
        // capture the mount (and through it this client and its RPC node),
        // forming Rc cycles; clear them when the simulator is torn down so
        // harnesses running many pods in-process release each world's heap.
        let weak = Rc::downgrade(&mounted.inner);
        sim.on_teardown(move || {
            if let Some(inner) = weak.upgrade() {
                let (queue, callbacks, session) = {
                    let mut m = inner.borrow_mut();
                    (
                        std::mem::take(&mut m.queue),
                        std::mem::take(&mut m.on_remount),
                        m.session.take(),
                    )
                };
                drop(queue);
                drop(callbacks);
                drop(session);
            }
        });
        let m2 = mounted.clone();
        let once = Rc::new(RefCell::new(Some(cb)));
        mounted.remount(sim, move |sim, r| {
            if let Some(cb) = once.borrow_mut().take() {
                match r {
                    Ok(()) => cb(sim, Ok(m2.clone())),
                    Err(e) => cb(sim, Err(e)),
                }
            }
        });
    }
}

enum QueuedOp {
    Read {
        offset: u64,
        len: u64,
        cb: ReadCb,
        attempts: u32,
        trace: Option<TraceId>,
    },
    Write {
        offset: u64,
        /// Shared with the request in flight: a retry resends the same
        /// buffer.
        data: Arc<Vec<u8>>,
        cb: WriteCb,
        attempts: u32,
        trace: Option<TraceId>,
    },
}

impl QueuedOp {
    fn trace(&self) -> Option<TraceId> {
        match self {
            QueuedOp::Read { trace, .. } | QueuedOp::Write { trace, .. } => *trace,
        }
    }
}

struct Mount {
    name: SpaceName,
    size: u64,
    session: Option<IscsiSession>,
    remounting: bool,
    queue: VecDeque<QueuedOp>,
    remount_count: u64,
    on_remount: Vec<Rc<dyn Fn(&Sim)>>,
}

/// A mounted UStore space: a [`BlockDevice`] that survives failovers.
#[derive(Clone)]
pub struct Mounted {
    inner: Rc<RefCell<Mount>>,
    client: UStoreClient,
}

impl fmt::Debug for Mounted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.inner.borrow();
        f.debug_struct("Mounted")
            .field("name", &m.name)
            .field("mounted", &m.session.is_some())
            .field("queued", &m.queue.len())
            .finish()
    }
}

impl Mounted {
    /// The mounted space's name.
    pub fn name(&self) -> SpaceName {
        self.inner.borrow().name
    }

    /// How many times this mount has recovered via remount.
    pub fn remount_count(&self) -> u64 {
        self.inner.borrow().remount_count
    }

    /// Registers a callback fired after every successful (re)mount —
    /// the paper's "notification call backs ... of disk status changes".
    pub fn on_remount(&self, cb: impl Fn(&Sim) + 'static) {
        self.inner.borrow_mut().on_remount.push(Rc::new(cb));
    }

    /// Writes `data` at `offset`, queueing across remounts like every IO
    /// on the mount. The buffer is never copied on its way down: the
    /// ClientLib keeps a handle for retries, the request carries it to the
    /// EndPoint, and the disk stores its fully covered pages by reference.
    /// A `Vec<u8>` converts without a copy.
    pub fn write(&self, sim: &Sim, offset: u64, data: impl Into<Arc<Vec<u8>>>, cb: WriteCb) {
        let trace = sim.reqtracer().begin(ReqKind::Write, sim.now());
        self.enqueue(
            sim,
            QueuedOp::Write {
                offset,
                data: data.into(),
                cb,
                attempts: 0,
                trace,
            },
        );
    }

    fn enqueue(&self, sim: &Sim, op: QueuedOp) {
        self.inner.borrow_mut().queue.push_back(op);
        self.pump(sim);
    }

    fn pump(&self, sim: &Sim) {
        let (session, op) = {
            let mut m = self.inner.borrow_mut();
            let Some(session) = m.session.clone() else {
                return; // remount in progress will re-pump
            };
            let Some(op) = m.queue.pop_front() else {
                return;
            };
            (session, op)
        };
        let this = self.clone();
        // Close the queued interval and expose the stamp to the
        // synchronous dispatch chain (iSCSI → rpc) so the outgoing
        // request carries it.
        let stamp = op
            .trace()
            .and_then(|id| sim.reqtracer().dispatch(id, sim.now()));
        if stamp.is_some() {
            sim.set_current_stamp(stamp);
        }
        match op {
            QueuedOp::Read {
                offset,
                len,
                cb,
                attempts,
                trace,
            } => {
                session.read(sim, offset, len, move |sim, r| match r {
                    Ok(data) => {
                        if let Some(id) = trace {
                            sim.reqtracer().complete(id, sim.now());
                        }
                        cb(sim, Ok(data));
                        this.pump(sim);
                    }
                    Err(e) => {
                        if let Some(id) = trace {
                            sim.reqtracer().io_failed(id, sim.now());
                        }
                        this.io_failed(
                            sim,
                            QueuedOp::Read {
                                offset,
                                len,
                                cb,
                                attempts: attempts + 1,
                                trace,
                            },
                            e.to_string(),
                        )
                    }
                });
            }
            QueuedOp::Write {
                offset,
                data,
                cb,
                attempts,
                trace,
            } => {
                let data2 = Arc::clone(&data);
                session.write(sim, offset, data, move |sim, r| match r {
                    Ok(()) => {
                        if let Some(id) = trace {
                            sim.reqtracer().complete(id, sim.now());
                        }
                        cb(sim, Ok(()));
                        this.pump(sim);
                    }
                    Err(e) => {
                        if let Some(id) = trace {
                            sim.reqtracer().io_failed(id, sim.now());
                        }
                        this.io_failed(
                            sim,
                            QueuedOp::Write {
                                offset,
                                data: data2,
                                cb,
                                attempts: attempts + 1,
                                trace,
                            },
                            e.to_string(),
                        )
                    }
                });
            }
        }
        if stamp.is_some() {
            sim.set_current_stamp(None);
        }
    }

    fn io_failed(&self, sim: &Sim, op: QueuedOp, why: String) {
        const MAX_ATTEMPTS: u32 = 60;
        let attempts = match &op {
            QueuedOp::Read { attempts, .. } | QueuedOp::Write { attempts, .. } => *attempts,
        };
        if attempts >= MAX_ATTEMPTS {
            if let Some(id) = op.trace() {
                sim.reqtracer().abandon(id);
            }
            match op {
                QueuedOp::Read { cb, .. } => cb(sim, Err(BlockError::Unavailable(why))),
                QueuedOp::Write { cb, .. } => cb(sim, Err(BlockError::Unavailable(why))),
            }
            return;
        }
        // Put the op at the front and (re)start the remount machinery.
        // The failed session's location lease is dead: the space may have
        // moved, so the remount must re-resolve through the Master.
        self.client.invalidate_lease(self.name());
        {
            let mut m = self.inner.borrow_mut();
            m.queue.push_front(op);
            m.session = None;
        }
        sim.count(
            &self.client.rpc().addr().to_string(),
            "client.io_retries",
            1,
        );
        sim.trace(
            TraceLevel::Warn,
            "clientlib",
            format!("{}: io failed ({why}); remounting", self.name()),
        );
        self.remount(sim, |_, _| {});
    }

    /// Looks the space up and re-establishes the session, then drains the
    /// queue. `done` fires once with the outcome of this remount round.
    fn remount(&self, sim: &Sim, done: impl FnOnce(&Sim, Result<(), ClientLibError>) + 'static) {
        {
            let mut m = self.inner.borrow_mut();
            if m.remounting {
                // Already working on it; piggyback silently.
                drop(m);
                done(sim, Ok(()));
                return;
            }
            m.remounting = true;
        }
        sim.count(&self.client.rpc().addr().to_string(), "client.remounts", 1);
        // A remount triggered by a failover joins that failover's remount
        // phase; the initial mount (or a standalone recovery) is a root.
        let span = match sim.find_open_span("failover.remount") {
            Some(p) => sim.span_child(p, "clientlib", "client.remount"),
            None => sim.span_start("clientlib", "client.remount"),
        };
        sim.span_attr(span, "space", self.name().to_string());
        let deadline = sim.now() + self.client.config.remount_deadline;
        self.remount_attempt(sim, deadline, span, Box::new(done));
    }

    fn remount_attempt(
        &self,
        sim: &Sim,
        deadline: ustore_sim::SimTime,
        span: SpanId,
        done: Box<dyn FnOnce(&Sim, Result<(), ClientLibError>)>,
    ) {
        if sim.now() >= deadline {
            let failed: Vec<QueuedOp> = {
                let mut m = self.inner.borrow_mut();
                m.remounting = false;
                m.queue.drain(..).collect()
            };
            for op in failed {
                if let Some(id) = op.trace() {
                    sim.reqtracer().abandon(id);
                }
                match op {
                    QueuedOp::Read { cb, .. } => {
                        cb(sim, Err(BlockError::Unavailable("remount deadline".into())))
                    }
                    QueuedOp::Write { cb, .. } => {
                        cb(sim, Err(BlockError::Unavailable("remount deadline".into())))
                    }
                }
            }
            sim.span_attr(span, "error", "deadline");
            sim.span_end(span);
            done(
                sim,
                Err(ClientLibError::MountFailed("deadline exceeded".into())),
            );
            return;
        }
        let name = self.name();
        let this = self.clone();
        let lookup_started = sim.now();
        self.client.lookup(sim, name, move |sim, r| {
            // Attribute the Master lookup to every IO stalled behind this
            // remount: it is metadata-path latency, not client queueing.
            let tracer = sim.reqtracer();
            if tracer.is_on() {
                let lookup_dur = sim.now().duration_since(lookup_started);
                // With a lease configured, `lookup` itself records the
                // distribution (hits as zero); don't double-count here.
                if this.client.config.location_lease.is_none() {
                    tracer.note_master_lookup(lookup_dur);
                }
                let ids: Vec<TraceId> = this
                    .inner
                    .borrow()
                    .queue
                    .iter()
                    .filter_map(QueuedOp::trace)
                    .collect();
                for id in ids {
                    tracer.absorb_lookup(id, lookup_dur, lookup_started);
                }
            }
            let retry =
                move |this: Mounted,
                      sim: &Sim,
                      done: Box<dyn FnOnce(&Sim, Result<(), ClientLibError>)>| {
                    sim.count(
                        &this.client.rpc().addr().to_string(),
                        "client.remount_retries",
                        1,
                    );
                    let backoff = this.client.config.remount_backoff;
                    let t2 = this.clone();
                    sim.schedule_in(backoff, move |sim| {
                        t2.remount_attempt(sim, deadline, span, done)
                    });
                };
            match r {
                Err(ClientLibError::Master(MasterError::NoSuchSpace)) => {
                    this.client.invalidate_lease(name);
                    this.inner.borrow_mut().remounting = false;
                    sim.span_attr(span, "error", "no_such_space");
                    sim.span_end(span);
                    done(sim, Err(ClientLibError::Master(MasterError::NoSuchSpace)));
                }
                Err(_) => retry(this, sim, done),
                Ok(info) => match info.host_addr {
                    None => retry(this, sim, done), // failover in progress
                    Some(host) => {
                        let this2 = this.clone();
                        IscsiSession::login(
                            sim,
                            this.client.rpc(),
                            &host,
                            &info.target,
                            this.client.config.io_timeout,
                            move |sim, sess| match sess {
                                Err(_) => {
                                    // The location we just resolved (and
                                    // possibly leased) does not answer:
                                    // drop it, or every retry would be
                                    // served the same dead endpoint from
                                    // cache for the rest of the lease.
                                    this2.client.invalidate_lease(this2.name());
                                    retry(this2, sim, done);
                                }
                                Ok(session) => {
                                    // Device settle (Figure 6 part 3).
                                    let settle = this2.client.config.mount_settle;
                                    let this3 = this2.clone();
                                    sim.schedule_in(settle, move |sim| {
                                        let callbacks = {
                                            let mut m = this3.inner.borrow_mut();
                                            m.size = session.capacity();
                                            m.session = Some(session);
                                            m.remounting = false;
                                            m.remount_count += 1;
                                            m.on_remount.clone()
                                        };
                                        for cb in callbacks {
                                            cb(sim);
                                        }
                                        sim.span_end(span);
                                        sim.trace(
                                            TraceLevel::Info,
                                            "clientlib",
                                            format!("{} mounted", this3.name()),
                                        );
                                        done(sim, Ok(()));
                                        this3.pump(sim);
                                    });
                                }
                            },
                        );
                    }
                },
            }
        });
    }
}

impl BlockDevice for Mounted {
    fn capacity(&self) -> u64 {
        self.inner.borrow().size
    }

    fn read(&self, sim: &Sim, offset: u64, len: u64, cb: ReadCb) {
        let trace = sim.reqtracer().begin(ReqKind::Read, sim.now());
        self.enqueue(
            sim,
            QueuedOp::Read {
                offset,
                len,
                cb,
                attempts: 0,
                trace,
            },
        );
    }

    fn write(&self, sim: &Sim, offset: u64, data: Arc<Vec<u8>>, cb: WriteCb) {
        Mounted::write(self, sim, offset, data, cb);
    }
}
