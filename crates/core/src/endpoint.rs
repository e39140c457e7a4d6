//! The UStore EndPoint (§IV-B).
//!
//! One EndPoint runs on every host connected to a deploy unit. It
//! monitors the host's local USB tree and reports health through periodic
//! heartbeats to the Master, and it exposes allocated spaces over the
//! network as iSCSI targets. It also implements the default power-saving
//! policy (§IV-F): spin idle disks down, and back off when a disk cycles
//! too often.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_disk::PowerStateKind;
use ustore_fabric::{DiskId, FabricIoError, FabricRuntime, HostId};
use ustore_net::{
    Addr, BlockDevice, BlockError, IscsiServer, ReadCb, Replicas, RpcNode, RuleChange, Sender,
    WriteCb,
};
use ustore_sim::{Sim, SimTime, TraceLevel};
use ustore_usb::{DeviceKind, DeviceState, UsbEvent};

use crate::ids::{SpaceName, UnitId};
use crate::messages::{ActiveMaster, DiskPowerReq, EndpointAck, ExposeReq, Heartbeat, UnexposeReq};

/// Body bytes of one heartbeat cast.
const HEARTBEAT_BYTES: u64 = 200;

/// EndPoint tunables.
#[derive(Debug, Clone)]
pub struct EndpointConfig {
    /// Heartbeat period to the Master.
    pub heartbeat_interval: Duration,
    /// Time from a disk becoming visible to its targets being exposed
    /// (partition scan + target configuration — Figure 6 part 2).
    pub export_delay: Duration,
    /// Idle time after which a disk spins down (§IV-F).
    pub idle_spin_down: Duration,
    /// How often the idle checker runs.
    pub idle_check: Duration,
    /// Window for counting spin-up events.
    pub spin_cycle_window: Duration,
    /// Spin-ups within the window that trigger threshold doubling.
    pub spin_cycle_limit: usize,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            heartbeat_interval: Duration::from_millis(300),
            export_delay: Duration::from_millis(900),
            idle_spin_down: Duration::from_secs(300),
            idle_check: Duration::from_secs(10),
            spin_cycle_window: Duration::from_secs(600),
            spin_cycle_limit: 3,
        }
    }
}

struct Exposure {
    offset: u64,
    len: u64,
    exported: bool,
}

struct Ep {
    unit: UnitId,
    host: HostId,
    config: EndpointConfig,
    exposures: BTreeMap<SpaceName, Exposure>,
    activity: HashMap<DiskId, Rc<Cell<SimTime>>>,
    spin_ups: HashMap<DiskId, Vec<SimTime>>,
    idle_threshold: HashMap<DiskId, Duration>,
    paused: bool,
    /// Bumped by `pause` and `resume`: a timer armed under an older
    /// generation stops its chain, so a quick kill/restore never leaves
    /// two chains running.
    gen: u64,
    /// The heartbeats to the hinted Master, computed while steady.
    beats: Sender<(UnitId, HostId), Heartbeat>,
    /// Ready-disk list for heartbeats, cached against the USB tree's
    /// topology generation — rebuilding it means snapshotting and sorting
    /// the whole tree, which the steady state never needs.
    ready_cache: (u64, Arc<[DiskId]>),
    /// Idle checks run so far.
    idle_checks: u64,
}

/// One EndPoint process. Shares its host's [`RpcNode`] (serving `ep.*`
/// and the iSCSI protocol).
#[derive(Clone)]
pub struct Endpoint {
    rpc: RpcNode,
    masters: Replicas,
    iscsi: Rc<IscsiServer>,
    runtime: FabricRuntime,
    inner: Rc<RefCell<Ep>>,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ep = self.inner.borrow();
        f.debug_struct("Endpoint")
            .field("host", &ep.host)
            .field("exposures", &ep.exposures.len())
            .finish()
    }
}

impl Endpoint {
    /// Starts an EndPoint for `host` of `unit` on the host's RPC node.
    pub fn new(
        sim: &Sim,
        unit: UnitId,
        host: HostId,
        rpc: RpcNode,
        runtime: FabricRuntime,
        masters: Vec<Addr>,
        config: EndpointConfig,
    ) -> Endpoint {
        let iscsi = Rc::new(IscsiServer::new(rpc.clone()));
        let sent = sim.counter(rpc.addr().as_str(), "endpoint.heartbeats_sent");
        let cast = ("master.heartbeat", HEARTBEAT_BYTES);
        let interval = config.heartbeat_interval;
        let beats = Sender::new(&rpc, (unit, host), cast, interval, Some(sent));
        let ep = Endpoint {
            masters: Replicas::new(rpc.clone(), masters),
            rpc,
            iscsi,
            runtime: runtime.clone(),
            inner: Rc::new(RefCell::new(Ep {
                unit,
                host,
                config,
                exposures: BTreeMap::new(),
                activity: HashMap::new(),
                spin_ups: HashMap::new(),
                idle_threshold: HashMap::new(),
                paused: false,
                gen: 0,
                beats,
                ready_cache: (u64::MAX, Arc::from([])),
                idle_checks: 0,
            })),
        };
        ep.install_handlers();
        // USB monitor: watch the local tree (the paper's `lsusb -t` watcher).
        let e2 = ep.clone();
        let usb = runtime.usb_host(host);
        usb.subscribe(move |sim, ev| e2.on_usb_event(sim, ev));
        // A computed heartbeat stream ends the instant anything its beats
        // depend on changes: the ready set, a drop rule on the way to the
        // Master, or (in the `ep.active_master` handler) the Master hint.
        let e2 = ep.clone();
        usb.watch_tree(move |sim| e2.on_tree_change(sim));
        let e2 = ep.clone();
        ep.rpc
            .network()
            .on_rule_change(move |sim, change| e2.end_stream(sim, Some(change)));
        let interval = ep.inner.borrow().config.heartbeat_interval;
        ep.arm_heartbeat(sim, sim.now() + interval);
        ep.arm_idle_checker(sim);
        ep
    }

    /// The host this EndPoint runs on.
    pub fn host(&self) -> HostId {
        self.inner.borrow().host
    }

    /// The deploy unit this EndPoint serves.
    pub fn unit(&self) -> UnitId {
        self.inner.borrow().unit
    }

    /// The EndPoint's network address.
    pub fn addr(&self) -> Addr {
        self.rpc.addr().clone()
    }

    /// Simulates a process crash (stops heartbeats and exports).
    pub fn pause(&self, sim: &Sim) {
        {
            let mut ep = self.inner.borrow_mut();
            ep.paused = true;
            ep.gen += 1;
        }
        self.end_stream(sim, None);
    }

    /// Restarts a paused EndPoint. Detach notices were dropped while
    /// paused, so first withdraw the targets of every disk that is no
    /// longer attached to this host.
    pub fn resume(&self, sim: &Sim) {
        let interval = {
            let mut ep = self.inner.borrow_mut();
            ep.paused = false;
            ep.gen += 1;
            ep.config.heartbeat_interval
        };
        let host = self.host();
        self.withdraw(|d| self.runtime.attached_host(d) != Some(host));
        self.arm_heartbeat(sim, sim.now() + interval);
        self.arm_idle_checker(sim);
    }

    /// Idle checks run so far (§IV-F power policy).
    #[cfg(test)]
    pub(crate) fn idle_checks(&self) -> u64 {
        self.inner.borrow().idle_checks
    }

    /// Targets currently exported.
    pub fn exported_targets(&self) -> Vec<String> {
        self.iscsi.target_names()
    }

    // ---- RPC handlers ------------------------------------------------------

    fn install_handlers(&self) {
        let e = self.clone();
        self.rpc.serve("ep.expose", move |sim, req, responder| {
            let req: &ExposeReq = req.downcast_ref().expect("ExposeReq");
            e.expose(sim, req.name, req.offset, req.len);
            responder.reply(sim, Arc::new(Ok(()) as EndpointAck), 16);
        });
        let e = self.clone();
        self.rpc.serve("ep.unexpose", move |sim, req, responder| {
            let req: &UnexposeReq = req.downcast_ref().expect("UnexposeReq");
            e.unexpose(req.name);
            responder.reply(sim, Arc::new(Ok(()) as EndpointAck), 16);
        });
        let e = self.clone();
        self.rpc.serve("ep.disk_power", move |sim, req, responder| {
            let req: &DiskPowerReq = req.downcast_ref().expect("DiskPowerReq");
            let disk = e.runtime.disk(req.disk);
            if req.up {
                disk.spin_up(sim);
            } else {
                disk.spin_down(sim);
            }
            responder.reply(sim, Arc::new(Ok(()) as EndpointAck), 16);
        });
        // Heartbeats go to the hinted Master; only the active Master moves
        // the hint, by announcing itself.
        let e = self.clone();
        self.rpc.serve_cast("ep.active_master", move |sim, msg| {
            let msg: &ActiveMaster = msg.downcast_ref().expect("ActiveMaster");
            let before = e.masters.hinted().cloned();
            e.masters.point_at(&msg.addr);
            if e.masters.hinted() != before.as_ref() {
                e.end_stream(sim, None);
            }
        });
    }

    /// Records an exposure and exports it if the disk is already visible.
    fn expose(&self, sim: &Sim, name: SpaceName, offset: u64, len: u64) {
        let already = {
            let mut ep = self.inner.borrow_mut();
            let prev = ep.exposures.insert(
                name,
                Exposure {
                    offset,
                    len,
                    exported: false,
                },
            );
            prev.is_some_and(|p| p.exported)
        };
        if already {
            // Re-expose (idempotent): mark exported again.
            self.inner
                .borrow_mut()
                .exposures
                .get_mut(&name)
                .expect("present")
                .exported = true;
            return;
        }
        if self.runtime.disk_ready(name.disk)
            && self.runtime.attached_host(name.disk) == Some(self.host())
        {
            self.schedule_export(sim, name);
        }
    }

    fn unexpose(&self, name: SpaceName) {
        self.inner.borrow_mut().exposures.remove(&name);
        self.iscsi.unexpose(&name.target_name());
    }

    /// Exports after the configured delay (partition scan, tgt reload).
    fn schedule_export(&self, sim: &Sim, name: SpaceName) {
        let delay = self.inner.borrow().config.export_delay;
        // Exports after a failover are part of the remount phase (Fig. 6
        // part 2); parent under it when one is open.
        let span = match sim.find_open_span("failover.remount") {
            Some(p) => sim.span_child(p, "endpoint", "endpoint.export"),
            None => sim.span_start("endpoint", "endpoint.export"),
        };
        sim.span_attr(span, "space", name.to_string());
        let this = self.clone();
        sim.schedule_in(delay, move |sim| {
            let (offset, len, host) = {
                let ep = this.inner.borrow();
                if ep.paused {
                    sim.span_attr(span, "error", "paused");
                    sim.span_end(span);
                    return;
                }
                let Some(x) = ep.exposures.get(&name) else {
                    sim.span_attr(span, "error", "withdrawn");
                    sim.span_end(span);
                    return;
                };
                (x.offset, x.len, ep.host)
            };
            // The disk may have moved away while we waited.
            if this.runtime.attached_host(name.disk) != Some(host)
                || !this.runtime.disk_ready(name.disk)
            {
                sim.span_attr(span, "error", "moved");
                sim.span_end(span);
                return;
            }
            let activity = this.activity_cell(sim, name.disk);
            let spin_ups = this.inner.clone();
            let dev = ExposedSpace {
                runtime: this.runtime.clone(),
                disk: name.disk,
                offset,
                len,
                activity,
                on_spin_up: Box::new(move |sim| {
                    let mut ep = spin_ups.borrow_mut();
                    let now = sim.now();
                    ep.spin_ups.entry(name.disk).or_default().push(now);
                }),
            };
            this.iscsi.expose(name.target_name(), Rc::new(dev));
            if let Some(x) = this.inner.borrow_mut().exposures.get_mut(&name) {
                x.exported = true;
            }
            sim.count(&this.addr().to_string(), "endpoint.exports", 1);
            sim.span_end(span);
            sim.trace(
                TraceLevel::Info,
                "endpoint",
                format!("{}: exported {}", this.addr(), name),
            );
        });
    }

    fn activity_cell(&self, sim: &Sim, d: DiskId) -> Rc<Cell<SimTime>> {
        self.inner
            .borrow_mut()
            .activity
            .entry(d)
            .or_insert_with(|| Rc::new(Cell::new(sim.now())))
            .clone()
    }

    // ---- USB monitor --------------------------------------------------------

    fn on_usb_event(&self, sim: &Sim, ev: UsbEvent) {
        if self.inner.borrow().paused {
            return;
        }
        match ev {
            UsbEvent::Ready(dev) if dev.0 < 100_000 => {
                let d = DiskId(dev.0);
                // Export every recorded exposure for this disk.
                let names: Vec<SpaceName> = self
                    .inner
                    .borrow()
                    .exposures
                    .keys()
                    .filter(|n| n.disk == d)
                    .copied()
                    .collect();
                for n in names {
                    self.schedule_export(sim, n);
                }
            }
            UsbEvent::Detached(dev) if dev.0 < 100_000 => self.withdraw(|d| d == DiskId(dev.0)),
            _ => {}
        }
    }

    /// Stops exporting every space whose disk is `gone`, keeping the
    /// exposure records so the disk's return re-exports them.
    fn withdraw(&self, gone: impl Fn(DiskId) -> bool) {
        let names: Vec<SpaceName> = self
            .inner
            .borrow()
            .exposures
            .keys()
            .filter(|n| gone(n.disk))
            .copied()
            .collect();
        for n in names {
            self.iscsi.unexpose(&n.target_name());
            if let Some(x) = self.inner.borrow_mut().exposures.get_mut(&n) {
                x.exported = false;
            }
        }
    }

    // ---- Heartbeats -----------------------------------------------------------

    /// Arms the simulated beat chain's tick at `at`. Ticks are early
    /// events: a beat due at `t` is sent before anything else happens at
    /// `t`, which is also how a computed stream counts it. A tick sends a
    /// simulated beat to the hinted Master; if the next beats will repeat
    /// it, they are computed and the chain stops until the stream ends (the
    /// ready set, the hint or the path changes, or `pause`).
    fn arm_heartbeat(&self, sim: &Sim, at: SimTime) {
        let gen = self.inner.borrow().gen;
        let this = self.clone();
        sim.schedule_early_at(at, move |sim| {
            if this.inner.borrow().paused || this.inner.borrow().gen != gen {
                return;
            }
            let (ready, to) = (this.ready_disks(), this.masters.hinted().cloned());
            let mut guard = this.inner.borrow_mut();
            let ep = &mut *guard;
            let (unit, host, addr) = (ep.unit, ep.host, this.rpc.addr());
            let hb = |seq| Heartbeat {
                unit,
                host,
                addr: addr.clone(),
                ready_disks: Arc::clone(&ready),
                seq,
            };
            let interval = ep.config.heartbeat_interval;
            if !ep
                .beats
                .send(sim, to.as_ref(), |seq| Arc::new(hb(seq)), true, &hb)
            {
                drop(guard);
                this.arm_heartbeat(sim, at + interval);
            }
        });
    }

    /// The ready-disk list, rebuilt only when the USB tree changed.
    fn ready_disks(&self) -> Arc<[DiskId]> {
        let mut ep = self.inner.borrow_mut();
        let usb = self.runtime.usb_host(ep.host);
        let gen = usb.topology_gen();
        if ep.ready_cache.0 != gen {
            let ready: Arc<[DiskId]> = usb
                .snapshot()
                .into_iter()
                .filter(|n| n.kind == DeviceKind::Storage && n.state == DeviceState::Ready)
                .map(|n| DiskId(n.id.0))
                .collect();
            ep.ready_cache = (gen, ready);
        }
        Arc::clone(&ep.ready_cache.1)
    }

    /// Ends the computed stream, if any (for a drop-rule `change`, if it
    /// touches the stream's path); simulated beats resume where its next
    /// beat was due, unless paused.
    fn end_stream(&self, sim: &Sim, change: Option<&RuleChange>) {
        let at = match change {
            Some(c) => self.inner.borrow_mut().beats.on_rule_change(sim, c),
            None => self.inner.borrow_mut().beats.end(sim),
        };
        if let Some(at) = at.filter(|_| !self.inner.borrow().paused) {
            self.arm_heartbeat(sim, at);
        }
    }

    fn on_tree_change(&self, sim: &Sim) {
        let streamed = self
            .inner
            .borrow()
            .beats
            .streaming()
            .map(|hb| Arc::clone(&hb.ready_disks));
        if streamed.is_some_and(|ready| ready != self.ready_disks()) {
            self.end_stream(sim, None);
        }
    }

    // ---- Power management (§IV-F) ---------------------------------------------

    fn arm_idle_checker(&self, sim: &Sim) {
        let (interval, gen) = {
            let ep = self.inner.borrow();
            (ep.config.idle_check, ep.gen)
        };
        let this = self.clone();
        sim.schedule_in(interval, move |sim| {
            {
                let ep = this.inner.borrow();
                if ep.paused || ep.gen != gen {
                    return;
                }
            }
            this.check_idle(sim);
            this.arm_idle_checker(sim);
        });
    }

    fn check_idle(&self, sim: &Sim) {
        self.inner.borrow_mut().idle_checks += 1;
        let host = self.host();
        let now = sim.now();
        // Seed an activity clock for every disk visible on this host, so
        // disks that never see IO also spin down (the paper's default
        // policy covers any idle disk, not just exposed ones).
        let visible: Vec<DiskId> = self
            .runtime
            .usb_host(host)
            .snapshot()
            .into_iter()
            .filter(|n| n.kind == DeviceKind::Storage && n.state == DeviceState::Ready)
            .map(|n| DiskId(n.id.0))
            .collect();
        for d in visible {
            self.activity_cell(sim, d);
        }
        let candidates: Vec<(DiskId, Duration)> = {
            let mut ep = self.inner.borrow_mut();
            let base = ep.config.idle_spin_down;
            let window = ep.config.spin_cycle_window;
            let limit = ep.config.spin_cycle_limit;
            // Adapt thresholds for disks that churn.
            let churning: Vec<DiskId> = ep
                .spin_ups
                .iter_mut()
                .filter_map(|(d, ups)| {
                    ups.retain(|t| now.saturating_duration_since(*t) < window);
                    (ups.len() >= limit).then_some(*d)
                })
                .collect();
            for d in churning {
                let t = {
                    let t = ep.idle_threshold.entry(d).or_insert(base);
                    *t = (*t * 2).min(Duration::from_secs(7200));
                    *t
                };
                ep.spin_ups.remove(&d);
                sim.trace(
                    TraceLevel::Info,
                    "endpoint",
                    format!("{d} cycles too often; idle threshold now {t:?}"),
                );
            }
            ep.activity
                .iter()
                .map(|(d, a)| {
                    let thr = ep.idle_threshold.get(d).copied().unwrap_or(base);
                    (*d, thr, a.get())
                })
                .filter(|(_, thr, last)| now.saturating_duration_since(*last) > *thr)
                .map(|(d, thr, _)| (d, thr))
                .collect()
        };
        for (d, _) in candidates {
            if self.runtime.attached_host(d) == Some(host) {
                let disk = self.runtime.disk(d);
                if disk.power_state() == PowerStateKind::Idle {
                    sim.trace(
                        TraceLevel::Info,
                        "endpoint",
                        format!("spinning down idle {d}"),
                    );
                    disk.spin_down(sim);
                }
            }
        }
    }
}

/// An exposed space: a window of a fabric-attached disk served as a
/// network block device, with activity tracking for power management.
struct ExposedSpace {
    runtime: FabricRuntime,
    disk: DiskId,
    offset: u64,
    len: u64,
    activity: Rc<Cell<SimTime>>,
    on_spin_up: Box<dyn Fn(&Sim)>,
}

impl ExposedSpace {
    fn touch(&self, sim: &Sim) {
        self.activity.set(sim.now());
        if self.runtime.disk(self.disk).power_state() == PowerStateKind::Standby {
            // Cold hit: the IO arrived at a spun-down disk. Flag the trace
            // (if one rides the ambient stamp) so the slo report can split
            // cold reads from warm ones.
            sim.reqtracer().note_cold_hit(sim.current_stamp());
            (self.on_spin_up)(sim);
        }
    }
}

fn map_err(e: FabricIoError) -> BlockError {
    match e {
        FabricIoError::NotAttached | FabricIoError::NotReady => {
            BlockError::Unavailable(e.to_string())
        }
        FabricIoError::Disk(d) => BlockError::Io(d.to_string()),
    }
}

impl BlockDevice for ExposedSpace {
    fn capacity(&self) -> u64 {
        self.len
    }

    fn read(&self, sim: &Sim, offset: u64, len: u64, cb: ReadCb) {
        if offset.saturating_add(len) > self.len {
            sim.schedule_now(move |sim| cb(sim, Err(BlockError::OutOfRange)));
            return;
        }
        self.touch(sim);
        self.runtime
            .read(sim, self.disk, self.offset + offset, len, move |sim, r| {
                cb(sim, r.map_err(map_err));
            });
    }

    fn write(&self, sim: &Sim, offset: u64, data: Arc<Vec<u8>>, cb: WriteCb) {
        if offset.saturating_add(data.len() as u64) > self.len {
            sim.schedule_now(move |sim| cb(sim, Err(BlockError::OutOfRange)));
            return;
        }
        self.touch(sim);
        self.runtime
            .write(sim, self.disk, self.offset + offset, data, move |sim, r| {
                cb(sim, r.map(|_| ()).map_err(map_err));
            });
    }
}
