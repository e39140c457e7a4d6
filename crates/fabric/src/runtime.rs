//! Binds the fabric to simulated hardware and executes reconfigurations.
//!
//! [`FabricRuntime`] owns the deploy unit's moving parts: the
//! [`FabricState`] (wiring + switch positions), the [`ControlPlane`], the
//! per-host [`UsbHost`] controllers, the [`Disk`] models and the power
//! relays. It implements the Controller's §IV-C command execution: lock
//! the fabric, compute the switches to turn (Algorithm 1), drive them
//! through the microcontroller, let the moved devices re-enumerate on
//! their new host, verify within a deadline, and roll back on failure.
//!
//! Every change to switch positions, relays or component failures ends in
//! one reconcile step, after which each host's USB tree holds exactly the
//! hubs and disks the fabric routes to it.
//!
//! It also serves fabric-attached IO: a disk command's completion is the
//! later of the drive's own service time and its share of the USB tree
//! (they overlap, so an uncontended bus adds nothing — Table II).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_disk::{Disk, DiskError, DiskProfile};
use ustore_sim::{Sim, SimTime, SpanId, TraceLevel};
use ustore_usb::{BusDir, DeviceDesc, DeviceId, DeviceKind, DeviceState, UsbHost, UsbProfile};

use crate::control::{ControlError, ControlPlane, RelayBank};
use crate::routing::{Component, FabricState, ScheduleError};
use crate::topology::{DiskId, HostId, HubId, SwitchConfig, SwitchId, SwitchPos, Topology, UpRef};

/// Errors from fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// Another command holds the fabric lock (§IV-C step 1).
    Busy,
    /// Algorithm 1 refused the command.
    Schedule(ScheduleError),
    /// The control plane cannot reach a microcontroller.
    Control(ControlError),
    /// Moved disks did not re-enumerate before the deadline; the command
    /// was rolled back (§IV-C step 3).
    VerifyTimeout {
        /// Disks that never became ready.
        missing: Vec<DiskId>,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Busy => write!(f, "fabric is locked by another command"),
            FabricError::Schedule(e) => write!(f, "schedule: {e}"),
            FabricError::Control(e) => write!(f, "control plane: {e}"),
            FabricError::VerifyTimeout { missing } => {
                write!(
                    f,
                    "verification timed out; rolled back ({} disks)",
                    missing.len()
                )
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// Errors from fabric-attached IO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricIoError {
    /// The disk currently has no live path to any host.
    NotAttached,
    /// The disk's USB device has not (re-)enumerated yet.
    NotReady,
    /// The drive itself failed the command.
    Disk(DiskError),
}

impl fmt::Display for FabricIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricIoError::NotAttached => write!(f, "disk not attached to any host"),
            FabricIoError::NotReady => write!(f, "disk not enumerated yet"),
            FabricIoError::Disk(e) => write!(f, "disk: {e}"),
        }
    }
}

impl std::error::Error for FabricIoError {}

/// Runtime construction parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Disk model (defaults to the prototype drive behind a USB bridge).
    pub disk_profile: DiskProfile,
    /// USB controller model.
    pub usb_profile: UsbProfile,
    /// Whether disks retain written payloads.
    pub store_data: bool,
    /// Verification deadline for reconfigurations (paper: 30 s).
    pub verify_timeout: Duration,
    /// Poll interval while verifying.
    pub verify_poll: Duration,
    /// Hosts whose failure takes down microcontroller 0 / 1.
    pub mc_hosts: [HostId; 2],
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            disk_profile: DiskProfile::usb_bridge(),
            usb_profile: UsbProfile::prototype(),
            store_data: true,
            verify_timeout: Duration::from_secs(30),
            verify_poll: Duration::from_millis(200),
            mc_hosts: [HostId(0), HostId(1)],
        }
    }
}

struct RT {
    state: FabricState,
    control: ControlPlane,
    relays: RelayBank,
    hosts: BTreeMap<HostId, UsbHost>,
    disks: BTreeMap<DiskId, Disk>,
    config: RuntimeConfig,
    locked: bool,
    glitched: std::collections::BTreeSet<DiskId>,
}

fn hub_dev(h: HubId) -> DeviceId {
    DeviceId(100_000 + h.0)
}
fn disk_dev(d: DiskId) -> DeviceId {
    DeviceId(d.0)
}

/// The live deploy unit: fabric + control plane + simulated hardware.
#[derive(Clone)]
pub struct FabricRuntime {
    inner: Rc<RefCell<RT>>,
}

impl fmt::Debug for FabricRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rt = self.inner.borrow();
        f.debug_struct("FabricRuntime")
            .field("hosts", &rt.hosts.len())
            .field("disks", &rt.disks.len())
            .field("locked", &rt.locked)
            .finish()
    }
}

impl FabricRuntime {
    /// Brings up a deploy unit: creates host controllers and disks, applies
    /// the initial switch configuration and enumerates everything.
    pub fn new(
        sim: &Sim,
        topology: Topology,
        switch_config: SwitchConfig,
        config: RuntimeConfig,
    ) -> Self {
        let switches: Vec<SwitchId> = topology.switches().collect();
        let disks_ids: Vec<DiskId> = topology.disks().collect();
        let hubs_ids: Vec<HubId> = topology.hubs().collect();
        let mut control = ControlPlane::new(switches.clone());
        // Drive the control plane to the requested initial configuration.
        for (s, pos) in &switch_config {
            control.turn_switch(*s, *pos).expect("fresh control plane");
        }
        let state = FabricState::new(topology.clone(), switch_config);
        let hosts: BTreeMap<HostId, UsbHost> = topology
            .hosts()
            .map(|h| (h, UsbHost::new(format!("{h}"), config.usb_profile.clone())))
            .collect();
        let disks: BTreeMap<DiskId, Disk> = disks_ids
            .iter()
            .map(|d| {
                (
                    *d,
                    Disk::new(
                        sim,
                        format!("{d}"),
                        config.disk_profile.clone(),
                        config.store_data,
                    ),
                )
            })
            .collect();
        let rt = FabricRuntime {
            inner: Rc::new(RefCell::new(RT {
                state,
                control,
                relays: RelayBank::new(disks_ids, hubs_ids),
                hosts,
                disks,
                config,
                locked: false,
                glitched: std::collections::BTreeSet::new(),
            })),
        };
        rt.reconcile(sim);
        // Hot-plug listeners capture their subscribers (an EndPoint on
        // each host holds this runtime back) — a cycle the event-queue
        // teardown cannot reach. Register a weak breaker so one
        // `Sim::teardown` releases the whole unit.
        let weak = Rc::downgrade(&rt.inner);
        sim.on_teardown(move || {
            if let Some(inner) = weak.upgrade() {
                let hosts: Vec<UsbHost> = inner.borrow().hosts.values().cloned().collect();
                for h in hosts {
                    h.clear_listeners();
                }
            }
        });
        rt
    }

    /// Convenience constructor for the paper's prototype (16 disks, 4
    /// hosts, fan-in 4, upper-level switching).
    pub fn prototype(sim: &Sim) -> Self {
        let (t, cfg) = Topology::upper_switched(4, 16, 4);
        FabricRuntime::new(sim, t, cfg, RuntimeConfig::default())
    }

    /// The devices the fabric routes to each host, as `(host, desc)`
    /// attach commands ordered parents first: every powered hub and disk
    /// whose path leads to a live host, unless its parent hub is not
    /// routed to that same host.
    fn routed(rt: &RT) -> Vec<(HostId, DeviceDesc)> {
        let topo = rt.state.topology();
        let hubs = topo
            .hubs()
            .filter(|h| rt.relays.hub_on(*h))
            .filter_map(|h| {
                let host = rt.state.hub_host(h)?;
                Some((host, hub_dev(h), DeviceKind::Hub, topo.hub_upstream(h)?))
            });
        let disks = topo
            .disks()
            .filter(|d| rt.relays.disk_on(*d))
            .filter_map(|d| {
                let host = rt.state.attached_host(d)?;
                Some((
                    host,
                    disk_dev(d),
                    DeviceKind::Storage,
                    topo.disk_upstream(d)?,
                ))
            });
        let mut rows: Vec<(usize, HostId, DeviceDesc)> = hubs
            .chain(disks)
            .map(|(host, id, kind, up)| {
                let parent = match rt.state.usb_parent(up) {
                    Some(UpRef::Hub(p)) => Some(hub_dev(p)),
                    _ => None,
                };
                (rt.state.depth_of(up), host, DeviceDesc { id, kind, parent })
            })
            .collect();
        rows.sort_by_key(|(depth, host, desc)| (*depth, host.0, desc.id));
        let mut placed: BTreeMap<DeviceId, HostId> = BTreeMap::new();
        rows.into_iter()
            .filter_map(|(_, host, desc)| {
                let under_parent = desc.parent.is_none_or(|p| placed.get(&p) == Some(&host));
                under_parent.then(|| {
                    placed.insert(desc.id, host);
                    (host, desc)
                })
            })
            .collect()
    }

    /// Brings every host's USB tree in line with the fabric; the only
    /// place devices attach or detach. Stale devices detach first (hubs,
    /// then disks, in id order; a device an earlier subtree detach already
    /// removed is a no-op), then missing ones attach parents first. A
    /// device recorded as failed counts as present, so nothing retries,
    /// and a glitched disk that would have to re-enumerate stays dark
    /// until [`power_cycle_disk`](Self::power_cycle_disk).
    fn reconcile(&self, sim: &Sim) {
        let (plan, hosts, glitched) = {
            let rt = self.inner.borrow();
            (Self::routed(&rt), rt.hosts.clone(), rt.glitched.clone())
        };
        let want: BTreeMap<DeviceId, (HostId, Option<DeviceId>)> =
            plan.iter().map(|(h, d)| (d.id, (*h, d.parent))).collect();
        let mut stale: Vec<(bool, DeviceId, HostId)> = Vec::new();
        for (h, usb) in &hosts {
            for n in usb.snapshot() {
                if want.get(&n.id) != Some(&(*h, n.parent)) {
                    stale.push((n.kind == DeviceKind::Storage, n.id, *h));
                }
            }
        }
        stale.sort();
        for (_, id, h) in stale {
            hosts[&h].detach(sim, id);
        }
        for (h, desc) in plan {
            let dark = desc.kind == DeviceKind::Storage && glitched.contains(&DiskId(desc.id.0));
            if !dark && hosts[&h].device_state(desc.id).is_none() {
                hosts[&h].attach(sim, desc);
            }
        }
    }

    // ---- Accessors ---------------------------------------------------------

    /// Runs `f` against the fabric state.
    pub fn with_state<R>(&self, f: impl FnOnce(&FabricState) -> R) -> R {
        f(&self.inner.borrow().state)
    }

    /// Mutates the fabric state directly — the failure-injection hook used
    /// by tests and experiments (e.g. marking a hub failed).
    pub fn with_state_mut<R>(&self, f: impl FnOnce(&mut FabricState) -> R) -> R {
        f(&mut self.inner.borrow_mut().state)
    }

    /// The USB controller of one host.
    pub fn usb_host(&self, h: HostId) -> UsbHost {
        self.inner.borrow().hosts[&h].clone()
    }

    /// The disk model behind one slot.
    pub fn disk(&self, d: DiskId) -> Disk {
        self.inner.borrow().disks[&d].clone()
    }

    /// All disk ids.
    pub fn disk_ids(&self) -> Vec<DiskId> {
        self.inner.borrow().state.topology().disks().collect()
    }

    /// All host ids.
    pub fn host_ids(&self) -> Vec<HostId> {
        self.inner.borrow().state.topology().hosts().collect()
    }

    /// The host a disk is currently attached to.
    pub fn attached_host(&self, d: DiskId) -> Option<HostId> {
        self.inner.borrow().state.attached_host(d)
    }

    /// Whether the disk's USB device is enumerated and usable.
    pub fn disk_ready(&self, d: DiskId) -> bool {
        let rt = self.inner.borrow();
        let Some(host) = rt.state.attached_host(d) else {
            return false;
        };
        matches!(
            rt.hosts[&host].device_state(disk_dev(d)),
            Some(DeviceState::Ready)
        )
    }

    // ---- Reconfiguration (§IV-C) ------------------------------------------

    /// Executes a scheduling command: connect each `(disk, host)` pair.
    ///
    /// Follows the paper's three steps — lock, Algorithm 1, actuate +
    /// verify (rolling back on timeout). `cb` receives the outcome.
    pub fn execute(
        &self,
        sim: &Sim,
        pairs: Vec<(DiskId, HostId)>,
        cb: impl FnOnce(&Sim, Result<(), FabricError>) + 'static,
    ) {
        // Step 1: lock the fabric.
        {
            let mut rt = self.inner.borrow_mut();
            if rt.locked {
                sim.count("fabric", "fabric.busy_rejections", 1);
                sim.schedule_now(move |sim| cb(sim, Err(FabricError::Busy)));
                return;
            }
            rt.locked = true;
        }
        sim.count("fabric", "fabric.commands", 1);
        // If a failover's reconfiguration phase is in flight, our span tree
        // hangs under it; otherwise this command is its own root.
        let exec = match sim.find_open_span("failover.reconfiguration") {
            Some(parent) => sim.span_child(parent, "fabric", "fabric.execute"),
            None => sim.span_start("fabric", "fabric.execute"),
        };
        sim.span_attr(exec, "pairs", pairs.len().to_string());
        let lock = sim.span_child(exec, "fabric", "fabric.lock");
        sim.span_end(lock);
        // Step 2: Algorithm 1.
        let turns = match self.with_state(|s| s.switches_to_turn(&pairs)) {
            Ok(t) => t,
            Err(e) => {
                self.inner.borrow_mut().locked = false;
                sim.span_attr(exec, "error", "schedule");
                sim.span_end(exec);
                sim.schedule_now(move |sim| cb(sim, Err(FabricError::Schedule(e))));
                return;
            }
        };
        if turns.is_empty() {
            self.inner.borrow_mut().locked = false;
            sim.span_attr(exec, "switches", "0");
            sim.span_end(exec);
            sim.schedule_now(move |sim| cb(sim, Ok(())));
            return;
        }
        // Step 3: actuate through the microcontroller, one switch at a time.
        let (actuation, prev): (Duration, Vec<(SwitchId, SwitchPos)>) = {
            let mut rt = self.inner.borrow_mut();
            let prev: Vec<(SwitchId, SwitchPos)> = turns
                .iter()
                .map(|(s, _)| (*s, rt.state.switch_pos(*s).expect("switch exists")))
                .collect();
            for (s, pos) in &turns {
                if let Err(e) = rt.control.turn_switch(*s, *pos) {
                    rt.locked = false;
                    drop(rt);
                    sim.span_attr(exec, "error", "control");
                    sim.span_end(exec);
                    sim.schedule_now(move |sim| cb(sim, Err(FabricError::Control(e))));
                    return;
                }
            }
            (rt.control.switch_latency() * turns.len() as u32, prev)
        };
        sim.count("fabric", "fabric.switch_flips", turns.len() as u64);
        let actuate = sim.span_child(exec, "fabric", "fabric.actuate");
        sim.span_attr(actuate, "switches", turns.len().to_string());
        sim.trace(
            TraceLevel::Info,
            "fabric",
            format!("turning {} switches for {} pairs", turns.len(), pairs.len()),
        );
        let this = self.clone();
        let moved_expect: Vec<DiskId> = self.with_state(|s| s.displaced_by(&turns));
        sim.schedule_in(actuation, move |sim| {
            sim.span_end(actuate);
            this.apply_physical(sim, &turns);
            // Verify: all moved disks must re-enumerate before the deadline.
            let verify = sim.span_child(exec, "fabric", "fabric.verify");
            let deadline = sim.now() + this.inner.borrow().config.verify_timeout;
            this.verify_loop(sim, moved_expect, prev, deadline, (exec, verify), cb);
        });
    }

    /// Applies turned switches to the fabric state; the moved subtrees
    /// re-enumerate on their new hosts.
    fn apply_physical(&self, sim: &Sim, turns: &[(SwitchId, SwitchPos)]) {
        self.inner.borrow_mut().state.apply_turns(turns);
        self.reconcile(sim);
    }

    fn verify_loop(
        &self,
        sim: &Sim,
        moved: Vec<DiskId>,
        prev: Vec<(SwitchId, SwitchPos)>,
        deadline: SimTime,
        spans: (SpanId, SpanId),
        cb: impl FnOnce(&Sim, Result<(), FabricError>) + 'static,
    ) {
        let (exec, verify) = spans;
        let missing: Vec<DiskId> = moved
            .iter()
            .copied()
            .filter(|d| {
                // Only disks that should be attached need to verify.
                self.attached_host(*d).is_some() && !self.disk_ready(*d)
            })
            .collect();
        if missing.is_empty() {
            self.inner.borrow_mut().locked = false;
            sim.span_end(verify);
            sim.span_end(exec);
            if let Some(d) = sim.with_spans(|t| t.get(exec).and_then(|s| s.duration())) {
                sim.observe_duration("fabric", "fabric.reconfig_latency_ns", d);
            }
            sim.trace(TraceLevel::Info, "fabric", "reconfiguration verified");
            cb(sim, Ok(()));
            return;
        }
        if sim.now() >= deadline {
            // Roll back: turn the switches to their original state.
            sim.trace(
                TraceLevel::Error,
                "fabric",
                format!(
                    "verification timed out; rolling back ({} missing)",
                    missing.len()
                ),
            );
            {
                let mut rt = self.inner.borrow_mut();
                for (s, pos) in &prev {
                    // Best effort; control-plane loss here leaves the
                    // fabric for the operator, as in the paper.
                    let _ = rt.control.turn_switch(*s, *pos);
                }
            }
            sim.count("fabric", "fabric.rollbacks", 1);
            sim.count("fabric", "fabric.switch_flips", prev.len() as u64);
            self.apply_physical(sim, &prev);
            self.inner.borrow_mut().locked = false;
            sim.span_attr(verify, "outcome", "timeout");
            sim.span_attr(exec, "error", "verify_timeout");
            sim.span_end(verify);
            sim.span_end(exec);
            cb(sim, Err(FabricError::VerifyTimeout { missing }));
            return;
        }
        let poll = self.inner.borrow().config.verify_poll;
        let this = self.clone();
        sim.schedule_in(poll, move |sim| {
            this.verify_loop(sim, moved, prev, deadline, spans, cb);
        });
    }

    // ---- Failures ------------------------------------------------------------

    /// Marks a host dead: its USB trees go away and, if it hosted the
    /// active microcontroller, the control plane fails over to the backup.
    pub fn host_failed(&self, sim: &Sim, h: HostId) {
        let mut rt = self.inner.borrow_mut();
        rt.state.fail(Component::Host(h));
        let mc_hosts = rt.config.mc_hosts;
        for (i, mh) in mc_hosts.iter().enumerate() {
            if *mh == h {
                rt.control.set_host_alive(i, false);
            }
        }
        if !rt.control.controllable() {
            rt.control.activate_backup();
            sim.count("fabric", "fabric.control_failovers", 1);
            sim.trace(
                TraceLevel::Warn,
                "fabric",
                "control plane failed over to backup",
            );
        }
        drop(rt);
        self.reconcile(sim);
        sim.trace(TraceLevel::Warn, "fabric", format!("{h} marked failed"));
    }

    /// Marks a hub dead (§IV-E: the hub and the switch feeding it are one
    /// failure unit): its whole USB subtree disappears from whichever host
    /// it was visible on. Disks behind a failed host-side hub can be
    /// rerouted by Algorithm 1; disks behind their own leaf hub cannot and
    /// await repair.
    pub fn hub_failed(&self, sim: &Sim, hub: HubId) {
        self.inner.borrow_mut().state.fail(Component::Hub(hub));
        self.reconcile(sim);
        sim.trace(TraceLevel::Warn, "fabric", format!("{hub} marked failed"));
    }

    /// Repairs a hub; anything now routed through it re-enumerates.
    pub fn hub_repaired(&self, sim: &Sim, hub: HubId) {
        self.inner.borrow_mut().state.repair(Component::Hub(hub));
        self.reconcile(sim);
        sim.trace(TraceLevel::Info, "fabric", format!("{hub} repaired"));
    }

    /// Restores a repaired host.
    pub fn host_repaired(&self, sim: &Sim, h: HostId) {
        let mut rt = self.inner.borrow_mut();
        rt.state.repair(Component::Host(h));
        let mc_hosts = rt.config.mc_hosts;
        for (i, mh) in mc_hosts.iter().enumerate() {
            if *mh == h {
                rt.control.set_host_alive(i, true);
            }
        }
        drop(rt);
        // Re-enumerate anything now visible on the repaired host.
        self.reconcile(sim);
    }

    /// Injects the paper's §V-B "wrinkle": the next time this disk is
    /// switched it fails to re-enumerate until power cycled.
    pub fn inject_switch_glitch(&self, d: DiskId) {
        self.inner.borrow_mut().glitched.insert(d);
    }

    /// Power cycles a disk (the paper's workaround for stuck switching):
    /// clears a glitch, cuts and restores the rail, re-enumerates.
    pub fn power_cycle_disk(&self, sim: &Sim, d: DiskId) {
        {
            let mut rt = self.inner.borrow_mut();
            rt.glitched.remove(&d);
        }
        self.set_disk_power(sim, d, false);
        let this = self.clone();
        sim.schedule_in(Duration::from_millis(500), move |sim| {
            this.set_disk_power(sim, d, true);
        });
    }

    // ---- Power -----------------------------------------------------------------

    /// Sets a disk's 12 V relay; powering off detaches it from USB.
    pub fn set_disk_power(&self, sim: &Sim, d: DiskId, on: bool) {
        let disk = {
            let mut rt = self.inner.borrow_mut();
            rt.relays.set_disk(d, on);
            rt.disks[&d].clone()
        };
        if on {
            disk.power_on(sim);
        } else {
            disk.power_off(sim);
        }
        self.reconcile(sim);
    }

    /// Sets a hub's relay; powering off detaches its whole subtree.
    pub fn set_hub_power(&self, sim: &Sim, hub: HubId, on: bool) {
        self.inner.borrow_mut().relays.set_hub(hub, on);
        self.reconcile(sim);
    }

    /// Spins every disk's rail up with `stagger` between starts — the
    /// rolling spin-up of §III-B.
    pub fn rolling_spin_up(&self, sim: &Sim, stagger: Duration) {
        let ids = self.disk_ids();
        for (i, d) in ids.into_iter().enumerate() {
            let this = self.clone();
            sim.schedule_in(stagger * i as u32, move |sim| {
                this.set_disk_power(sim, d, true);
            });
        }
    }

    /// Cuts power to every disk.
    pub fn power_off_all_disks(&self, sim: &Sim) {
        for d in self.disk_ids() {
            self.set_disk_power(sim, d, false);
        }
    }

    /// Interconnect power draw: powered hubs (Table IV model, port count =
    /// powered devices below) plus the always-tiny switches.
    pub fn fabric_power_w(&self) -> f64 {
        let rt = self.inner.borrow();
        let topo = rt.state.topology();
        let profile = &rt.config.usb_profile;
        let mut total = topo.switches().count() as f64 * profile.switch_power;
        for hub in topo.hubs() {
            if !rt.relays.hub_on(hub) {
                continue;
            }
            // Count powered devices whose USB parent is this hub.
            let mut ports = 0;
            for d in topo.disks() {
                if rt.relays.disk_on(d) {
                    let up = topo.disk_upstream(d).expect("disk exists");
                    if rt.state.usb_parent(up) == Some(UpRef::Hub(hub)) {
                        ports += 1;
                    }
                }
            }
            for other in topo.hubs() {
                if other != hub && rt.relays.hub_on(other) {
                    let up = topo.hub_upstream(other).expect("hub exists");
                    if rt.state.usb_parent(up) == Some(UpRef::Hub(hub)) {
                        ports += 1;
                    }
                }
            }
            total += profile.hub_power(ports);
        }
        total
    }

    /// Total unit power: interconnect + every disk (drive + bridge).
    pub fn unit_power_w(&self) -> f64 {
        let fabric = self.fabric_power_w();
        let rt = self.inner.borrow();
        fabric + rt.disks.values().map(Disk::watts_now).sum::<f64>()
    }

    /// Publishes every disk's power-state residency and energy gauges into
    /// the metrics registry (one set per disk, under the disk's name).
    pub fn publish_residency(&self, sim: &Sim) {
        // Publishing touches only each disk and the registry, never the
        // runtime, so the map is borrowed for the whole pass.
        for d in self.inner.borrow().disks.values() {
            d.publish_residency(sim);
        }
    }

    // ---- IO ---------------------------------------------------------------------

    /// Reads from a fabric-attached disk: the drive's service and the USB
    /// transfer overlap; completion is the later of the two.
    pub fn read(
        &self,
        sim: &Sim,
        d: DiskId,
        offset: u64,
        len: u64,
        cb: impl FnOnce(&Sim, Result<Vec<u8>, FabricIoError>) + 'static,
    ) {
        let (host, disk) = match self.io_route(d) {
            Ok(r) => r,
            Err(e) => {
                sim.schedule_now(move |sim| cb(sim, Err(e)));
                return;
            }
        };
        let join = Join::new(cb);
        let j1 = join.clone();
        disk.read(sim, offset, len, move |sim, r| {
            j1.disk_done(sim, r.map_err(FabricIoError::Disk));
        });
        let j2 = join.clone();
        host.transfer(sim, disk_dev(d), BusDir::In, len, move |sim, r| {
            j2.bus_done(sim, r.is_ok());
        });
    }

    /// Writes to a fabric-attached disk. The buffer is handed to the
    /// drive as is (see [`Disk::write`]); a `Vec<u8>` converts without a
    /// copy.
    pub fn write(
        &self,
        sim: &Sim,
        d: DiskId,
        offset: u64,
        data: impl Into<Arc<Vec<u8>>>,
        cb: impl FnOnce(&Sim, Result<Vec<u8>, FabricIoError>) + 'static,
    ) {
        let data = data.into();
        let (host, disk) = match self.io_route(d) {
            Ok(r) => r,
            Err(e) => {
                sim.schedule_now(move |sim| cb(sim, Err(e)));
                return;
            }
        };
        let len = data.len() as u64;
        let join = Join::new(cb);
        let j1 = join.clone();
        disk.write(sim, offset, data, move |sim, r| {
            j1.disk_done(sim, r.map(|()| Vec::new()).map_err(FabricIoError::Disk));
        });
        let j2 = join.clone();
        host.transfer(sim, disk_dev(d), BusDir::Out, len, move |sim, r| {
            j2.bus_done(sim, r.is_ok());
        });
    }

    fn io_route(&self, d: DiskId) -> Result<(UsbHost, Disk), FabricIoError> {
        let rt = self.inner.borrow();
        let host = rt
            .state
            .attached_host(d)
            .ok_or(FabricIoError::NotAttached)?;
        let usb = rt.hosts[&host].clone();
        if !matches!(usb.device_state(disk_dev(d)), Some(DeviceState::Ready)) {
            return Err(FabricIoError::NotReady);
        }
        let disk = rt.disks[&d].clone();
        Ok((usb, disk))
    }
}

/// A handle to one fabric-attached disk: the view upper layers (the
/// EndPoint's iSCSI targets) get of UStore storage.
#[derive(Clone)]
pub struct FabricDisk {
    runtime: FabricRuntime,
    id: DiskId,
}

impl fmt::Debug for FabricDisk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FabricDisk").field("id", &self.id).finish()
    }
}

impl FabricDisk {
    /// Creates a handle to `id` on `runtime`.
    pub fn new(runtime: FabricRuntime, id: DiskId) -> Self {
        FabricDisk { runtime, id }
    }

    /// The fabric disk id.
    pub fn id(&self) -> DiskId {
        self.id
    }

    /// The drive's capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.runtime.disk(self.id).capacity()
    }

    /// The host currently serving this disk, if any.
    pub fn attached_host(&self) -> Option<HostId> {
        self.runtime.attached_host(self.id)
    }

    /// Reads `len` bytes at `offset` through the fabric.
    pub fn read(
        &self,
        sim: &Sim,
        offset: u64,
        len: u64,
        cb: impl FnOnce(&Sim, Result<Vec<u8>, FabricIoError>) + 'static,
    ) {
        self.runtime.read(sim, self.id, offset, len, cb);
    }

    /// Writes `data` at `offset` through the fabric.
    pub fn write(
        &self,
        sim: &Sim,
        offset: u64,
        data: impl Into<Arc<Vec<u8>>>,
        cb: impl FnOnce(&Sim, Result<(), FabricIoError>) + 'static,
    ) {
        self.runtime
            .write(sim, self.id, offset, data, move |sim, r| {
                cb(sim, r.map(|_| ()))
            });
    }
}

/// Joins a disk completion with a bus completion, calling the user
/// callback once both finished (with the disk's result).
struct JoinInner {
    remaining: u8,
    result: Option<Result<Vec<u8>, FabricIoError>>,
    cb: Option<Box<dyn FnOnce(&Sim, Result<Vec<u8>, FabricIoError>)>>,
}

#[derive(Clone)]
struct Join {
    inner: Rc<RefCell<JoinInner>>,
}

impl Join {
    fn new(cb: impl FnOnce(&Sim, Result<Vec<u8>, FabricIoError>) + 'static) -> Self {
        Join {
            inner: Rc::new(RefCell::new(JoinInner {
                remaining: 2,
                result: None,
                cb: Some(Box::new(cb)),
            })),
        }
    }

    fn disk_done(&self, sim: &Sim, r: Result<Vec<u8>, FabricIoError>) {
        {
            let mut j = self.inner.borrow_mut();
            j.result = Some(r);
            j.remaining -= 1;
        }
        self.maybe_finish(sim);
    }

    fn bus_done(&self, sim: &Sim, ok: bool) {
        {
            let mut j = self.inner.borrow_mut();
            j.remaining -= 1;
            if !ok && j.result.is_none() {
                j.result = Some(Err(FabricIoError::NotReady));
            }
        }
        self.maybe_finish(sim);
    }

    fn maybe_finish(&self, sim: &Sim) {
        let ready = {
            let j = self.inner.borrow();
            j.remaining == 0 && j.result.is_some() && j.cb.is_some()
        };
        if ready {
            let (cb, r) = {
                let mut j = self.inner.borrow_mut();
                (
                    j.cb.take().expect("cb present"),
                    j.result.take().expect("result present"),
                )
            };
            cb(sim, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn settled(sim: &Sim, rt: &FabricRuntime) {
        // Initial enumeration: 4-5 devices per host, serialized.
        sim.run_until(sim.now() + Duration::from_secs(10));
        for d in rt.disk_ids() {
            assert!(rt.disk_ready(d), "{d} ready after bring-up");
        }
    }

    #[test]
    fn bring_up_enumerates_everything() {
        let sim = Sim::new(31);
        let rt = FabricRuntime::prototype(&sim);
        settled(&sim, &rt);
        // Each host sees 2 hubs (host tree root + leaf) + 4 disks.
        for h in rt.host_ids() {
            let snap = rt.usb_host(h).snapshot();
            let disks = snap
                .iter()
                .filter(|n| n.kind == DeviceKind::Storage)
                .count();
            assert_eq!(disks, 4, "host {h}");
        }
    }

    #[test]
    fn io_roundtrip_through_fabric() {
        let sim = Sim::new(32);
        let rt = FabricRuntime::prototype(&sim);
        settled(&sim, &rt);
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        let fd = FabricDisk::new(rt.clone(), DiskId(3));
        let fd2 = fd.clone();
        fd.write(&sim, 4096, b"cold archive".to_vec(), move |sim, r| {
            r.expect("write");
            fd2.read(sim, 4096, 12, move |_, r| {
                assert_eq!(r.expect("read"), b"cold archive".to_vec());
                d.set(true);
            });
        });
        sim.run_until(sim.now() + Duration::from_secs(2));
        assert!(done.get());
        assert!(fd.capacity() > 2_000_000_000_000);
    }

    #[test]
    fn execute_moves_group_and_verifies() {
        let sim = Sim::new(33);
        let rt = FabricRuntime::prototype(&sim);
        settled(&sim, &rt);
        let t0 = sim.now();
        let outcome = Rc::new(Cell::new(None));
        let o = outcome.clone();
        let pairs: Vec<(DiskId, HostId)> = (0..4).map(|d| (DiskId(d), HostId(1))).collect();
        rt.execute(&sim, pairs, move |sim, r| {
            r.expect("reconfiguration");
            o.set(Some(sim.now()));
        });
        sim.run_until(sim.now() + Duration::from_secs(20));
        let done_at = outcome.get().expect("executed");
        for d in 0..4u32 {
            assert_eq!(rt.attached_host(DiskId(d)), Some(HostId(1)));
            assert!(rt.disk_ready(DiskId(d)));
        }
        // Part-1 switching time: debounce + 4 serialized enumerations +
        // driver probe, plus actuation and verify polling.
        let elapsed = done_at - t0;
        assert!(
            elapsed > Duration::from_secs(2) && elapsed < Duration::from_secs(5),
            "switch time {elapsed:?}"
        );
        // Host 1 now serves 8 disks.
        let snap = rt.usb_host(HostId(1)).snapshot();
        assert_eq!(
            snap.iter()
                .filter(|n| n.kind == DeviceKind::Storage)
                .count(),
            8
        );
        // Host 0 serves none.
        let snap0 = rt.usb_host(HostId(0)).snapshot();
        assert_eq!(
            snap0
                .iter()
                .filter(|n| n.kind == DeviceKind::Storage)
                .count(),
            0
        );
    }

    #[test]
    fn execute_emits_span_tree_and_metrics() {
        let sim = Sim::new(41);
        let rt = FabricRuntime::prototype(&sim);
        settled(&sim, &rt);
        let pairs: Vec<(DiskId, HostId)> = (0..4).map(|d| (DiskId(d), HostId(1))).collect();
        rt.execute(&sim, pairs, |_, r| r.expect("reconfiguration"));
        sim.run_until(sim.now() + Duration::from_secs(20));
        sim.with_spans(|t| {
            let exec = t.by_name("fabric.execute").next().expect("execute span").id;
            let kids: Vec<&str> = t.children(exec).map(|s| &*s.name).collect();
            assert_eq!(kids, ["fabric.lock", "fabric.actuate", "fabric.verify"]);
            // The §IV-C ordering, asserted causally: the fabric is locked
            // before any switch turns, and turning precedes verification.
            assert!(t.all_before("fabric.lock", "fabric.actuate"));
            assert!(t.all_before("fabric.actuate", "fabric.verify"));
            for s in t.spans() {
                assert!(!s.is_open(), "span {} left open", s.name);
            }
        });
        let m = sim.metrics_snapshot();
        assert_eq!(m.counter("fabric", "fabric.commands"), 1);
        assert!(m.counter("fabric", "fabric.switch_flips") >= 1);
        let h = m
            .histogram("fabric", "fabric.reconfig_latency_ns")
            .expect("latency histogram");
        assert_eq!(h.count(), 1);
        rt.publish_residency(&sim);
        let m = sim.metrics_snapshot();
        assert!(
            m.gauge("disk0", "power.residency.idle_s").is_some(),
            "residency gauges published"
        );
    }

    #[test]
    fn conflicting_command_is_rejected() {
        let sim = Sim::new(34);
        let rt = FabricRuntime::prototype(&sim);
        settled(&sim, &rt);
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        rt.execute(&sim, vec![(DiskId(0), HostId(1))], move |_, r| {
            assert!(matches!(r.unwrap_err(), FabricError::Schedule(_)));
            g.set(true);
        });
        sim.run_until(sim.now() + Duration::from_secs(1));
        assert!(got.get());
    }

    #[test]
    fn fabric_lock_rejects_concurrent_commands() {
        let sim = Sim::new(35);
        let rt = FabricRuntime::prototype(&sim);
        settled(&sim, &rt);
        let pairs: Vec<(DiskId, HostId)> = (0..4).map(|d| (DiskId(d), HostId(1))).collect();
        rt.execute(&sim, pairs.clone(), |_, r| r.expect("first command"));
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        let pairs2: Vec<(DiskId, HostId)> = (4..8).map(|d| (DiskId(d), HostId(2))).collect();
        rt.execute(&sim, pairs2, move |_, r| {
            assert_eq!(r.unwrap_err(), FabricError::Busy);
            g.set(true);
        });
        sim.run_until(sim.now() + Duration::from_secs(20));
        assert!(got.get());
    }

    #[test]
    fn host_failure_then_reconfigure_through_backup_mc() {
        let sim = Sim::new(36);
        let rt = FabricRuntime::prototype(&sim);
        settled(&sim, &rt);
        // Host 0 hosts the active microcontroller; kill it.
        rt.host_failed(&sim, HostId(0));
        assert_eq!(rt.attached_host(DiskId(0)), None);
        // Move its disks to host 2 via the backup microcontroller.
        let pairs: Vec<(DiskId, HostId)> = (0..4).map(|d| (DiskId(d), HostId(2))).collect();
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        rt.execute(&sim, pairs, move |_, r| {
            r.expect("failover reconfiguration");
            o.set(true);
        });
        sim.run_until(sim.now() + Duration::from_secs(20));
        assert!(ok.get());
        for d in 0..4u32 {
            assert_eq!(rt.attached_host(DiskId(d)), Some(HostId(2)));
            assert!(rt.disk_ready(DiskId(d)));
        }
    }

    #[test]
    fn glitched_switch_rolls_back_then_power_cycle_recovers() {
        let sim = Sim::new(37);
        let (t, cfg) = Topology::upper_switched(4, 16, 4);
        let config = RuntimeConfig {
            verify_timeout: Duration::from_secs(8),
            ..RuntimeConfig::default()
        };
        let rt = FabricRuntime::new(&sim, t, cfg, config);
        settled(&sim, &rt);
        rt.inject_switch_glitch(DiskId(2));
        let pairs: Vec<(DiskId, HostId)> = (0..4).map(|d| (DiskId(d), HostId(1))).collect();
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        rt.execute(&sim, pairs, move |_, r| {
            match r.unwrap_err() {
                FabricError::VerifyTimeout { missing } => assert_eq!(missing, vec![DiskId(2)]),
                other => panic!("expected verify timeout, got {other:?}"),
            }
            g.set(true);
        });
        sim.run_until(sim.now() + Duration::from_secs(30));
        assert!(got.get(), "rollback happened");
        // Rolled back: disks 0,1,3 back on host 0 and ready; 2 still dark.
        for d in [0u32, 1, 3] {
            assert_eq!(rt.attached_host(DiskId(d)), Some(HostId(0)));
        }
        assert!(!rt.disk_ready(DiskId(2)));
        // The paper's workaround: power cycle the device.
        rt.power_cycle_disk(&sim, DiskId(2));
        sim.run_until(sim.now() + Duration::from_secs(15));
        assert!(rt.disk_ready(DiskId(2)), "recovered after power cycle");
    }

    #[test]
    fn power_accounting_tracks_states() {
        let sim = Sim::new(38);
        let rt = FabricRuntime::prototype(&sim);
        settled(&sim, &rt);
        let all_on = rt.unit_power_w();
        // 16 idle disks at 5.76 W (Table III) plus fabric.
        assert!(
            all_on > 16.0 * 5.76 && all_on < 16.0 * 5.76 + 20.0,
            "{all_on}"
        );
        rt.power_off_all_disks(&sim);
        sim.run_until(sim.now() + Duration::from_secs(1));
        let all_off = rt.unit_power_w();
        assert!(
            all_off < 8.0,
            "disks off leaves only hubs+switches: {all_off}"
        );
        // Hubs can be cut too (§IV-F).
        for h in rt.with_state(|s| s.topology().hubs().collect::<Vec<_>>()) {
            rt.set_hub_power(&sim, h, false);
        }
        let dark = rt.unit_power_w();
        assert!(dark < 1.0, "only switches remain: {dark}");
    }

    #[test]
    fn rolling_spin_up_limits_peak_power() {
        let sim = Sim::new(39);
        let rt = FabricRuntime::prototype(&sim);
        settled(&sim, &rt);
        rt.power_off_all_disks(&sim);
        sim.run_until(sim.now() + Duration::from_secs(5));
        // Simultaneous spin-up peak: sample while all 16 draw spin-up power.
        let peak = Rc::new(Cell::new(0.0f64));
        let p = peak.clone();
        let rt2 = rt.clone();
        sim.every(
            Duration::from_millis(100),
            Duration::from_millis(100),
            move |_| {
                p.set(p.get().max(rt2.unit_power_w()));
            },
        );
        rt.rolling_spin_up(&sim, Duration::from_secs(2));
        sim.run_until(sim.now() + Duration::from_secs(60));
        // With 2 s stagger and 7 s spin-up, at most 4 disks spin at once:
        // well under the 16 * 24 W = 384 W simultaneous worst case.
        assert!(peak.get() < 230.0, "peak {}", peak.get());
        for d in rt.disk_ids() {
            assert!(rt.disk_ready(d), "{d} ready after rolling spin-up");
        }
    }

    #[test]
    fn io_on_detached_disk_errors() {
        let sim = Sim::new(40);
        let rt = FabricRuntime::prototype(&sim);
        settled(&sim, &rt);
        rt.host_failed(&sim, HostId(3));
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        rt.read(&sim, DiskId(12), 0, 512, move |_, r| {
            assert_eq!(r.unwrap_err(), FabricIoError::NotAttached);
            g.set(true);
        });
        sim.run_until(sim.now() + Duration::from_secs(1));
        assert!(got.get());
    }
}
