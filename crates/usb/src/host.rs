//! One host's USB 3.0 root controller and its device tree.
//!
//! [`UsbHost`] models the view a single server has of one of its USB 3.0
//! root ports: which hubs and storage bridges are attached (the fabric
//! rewires these at switch flips), enumeration timing (serialized on the
//! bus, which makes Figure 6's part 1 grow with the number of disks
//! switched together), the Intel device-count quirk, tier limits, and the
//! shared per-direction payload links whose reservation discipline produces
//! the saturation behaviour of Figure 5.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use ustore_sim::{CounterHandle, Sim, SimTime, TraceLevel};

use crate::profile::UsbProfile;

/// Globally unique identifier of a USB device (hub or storage bridge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "usb{}", self.0)
    }
}

/// What kind of device sits at a tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// An aggregation hub.
    Hub,
    /// A SATA↔USB mass-storage bridge (i.e. a disk).
    Storage,
}

/// Description of a device being attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceDesc {
    /// The device's identity.
    pub id: DeviceId,
    /// Hub or storage.
    pub kind: DeviceKind,
    /// Upstream hub, or `None` when plugged directly into the root port.
    pub parent: Option<DeviceId>,
}

/// Enumeration outcome problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumError {
    /// The root controller's device limit was reached (§V-B quirk).
    TooManyDevices,
    /// The device sits deeper than the allowed hub tiers.
    TierTooDeep,
    /// The named parent hub is not attached to this host.
    ParentMissing,
    /// A device with this id is already attached.
    DuplicateId,
}

impl fmt::Display for EnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnumError::TooManyDevices => write!(f, "root controller device limit reached"),
            EnumError::TierTooDeep => write!(f, "device exceeds hub tier limit"),
            EnumError::ParentMissing => write!(f, "parent hub not attached"),
            EnumError::DuplicateId => write!(f, "device id already attached"),
        }
    }
}

impl std::error::Error for EnumError {}

/// Lifecycle state of an attached device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// Attached, still enumerating.
    Enumerating,
    /// Enumerated and usable.
    Ready,
    /// Enumeration failed.
    Failed(EnumError),
}

/// Hot-plug notifications delivered to subscribers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsbEvent {
    /// A device appeared on the bus (enumeration begins).
    Attached(DeviceId),
    /// A device finished enumeration and is usable.
    Ready(DeviceId),
    /// A device left the bus (fired after the disconnect-detect delay).
    Detached(DeviceId),
    /// Enumeration failed.
    EnumFailed(DeviceId, EnumError),
}

/// Errors for data transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsbError {
    /// The device is not attached to this host.
    NoSuchDevice,
    /// The device has not (yet) enumerated.
    NotReady,
    /// The device is a hub, not a storage function.
    NotStorage,
}

impl fmt::Display for UsbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UsbError::NoSuchDevice => write!(f, "no such usb device"),
            UsbError::NotReady => write!(f, "usb device not enumerated"),
            UsbError::NotStorage => write!(f, "usb device is not a storage function"),
        }
    }
}

impl std::error::Error for UsbError {}

/// Transfer direction over the bus, from the host's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusDir {
    /// Device-to-host (disk reads).
    In,
    /// Host-to-device (disk writes).
    Out,
}

/// One row of an `lsusb -t`-style snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsbTreeNode {
    /// Device identity.
    pub id: DeviceId,
    /// Hub or storage.
    pub kind: DeviceKind,
    /// Upstream hub (`None` = root port).
    pub parent: Option<DeviceId>,
    /// Hub tiers below the root port (direct attach = 1).
    pub tier: u8,
    /// Lifecycle state.
    pub state: DeviceState,
}

struct Node {
    desc: DeviceDesc,
    tier: u8,
    state: DeviceState,
    epoch: u64,
}

/// Per-transfer metric handles, resolved lazily ([`UsbHost::new`] has no
/// simulator handle) so the streaming path never re-hashes metric names.
#[derive(Debug, Clone)]
struct HostMetrics {
    transfers: CounterHandle,
    bytes: CounterHandle,
    link_in_busy: CounterHandle,
    link_out_busy: CounterHandle,
}

struct Inner {
    name: String,
    profile: UsbProfile,
    nodes: HashMap<DeviceId, Node>,
    enum_tail: SimTime,
    in_busy: SimTime,
    out_busy: SimTime,
    listeners: Vec<Rc<dyn Fn(&Sim, UsbEvent)>>,
    /// Called synchronously whenever `topo_gen` changes.
    tree_watchers: Vec<Rc<dyn Fn(&Sim)>>,
    next_epoch: u64,
    /// Bumped on every attach/detach/state change; consumers (the
    /// EndPoint's heartbeat) cache derived views keyed by this and skip
    /// re-snapshotting an unchanged tree.
    topo_gen: u64,
    metrics: Option<HostMetrics>,
}

impl Inner {
    fn metrics(&mut self, sim: &Sim) -> &HostMetrics {
        if self.metrics.is_none() {
            self.metrics = Some(HostMetrics {
                transfers: sim.counter(&self.name, "usb.transfers"),
                bytes: sim.counter(&self.name, "usb.bytes"),
                link_in_busy: sim.counter(&self.name, "usb.link_in_busy_ns"),
                link_out_busy: sim.counter(&self.name, "usb.link_out_busy_ns"),
            });
        }
        self.metrics.as_ref().expect("metrics just initialized")
    }
}

/// A host's root controller. Cloning shares the controller.
#[derive(Clone)]
pub struct UsbHost {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for UsbHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let i = self.inner.borrow();
        f.debug_struct("UsbHost")
            .field("name", &i.name)
            .field("devices", &i.nodes.len())
            .finish()
    }
}

impl UsbHost {
    /// Creates a root controller with the given profile.
    pub fn new(name: impl Into<String>, profile: UsbProfile) -> Self {
        UsbHost {
            inner: Rc::new(RefCell::new(Inner {
                name: name.into(),
                profile,
                nodes: HashMap::new(),
                enum_tail: SimTime::ZERO,
                in_busy: SimTime::ZERO,
                out_busy: SimTime::ZERO,
                listeners: Vec::new(),
                tree_watchers: Vec::new(),
                next_epoch: 0,
                topo_gen: 0,
                metrics: None,
            })),
        }
    }

    /// The controller's name (host it belongs to).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// Registers a hot-plug listener.
    pub fn subscribe(&self, f: impl Fn(&Sim, UsbEvent) + 'static) {
        self.inner.borrow_mut().listeners.push(Rc::new(f));
    }

    /// Drops every registered hot-plug listener.
    ///
    /// Listeners capture the component that subscribed, which usually
    /// holds (a handle to) this host back — an `Rc` cycle outside the
    /// event queue. Harness teardown calls this so repeated in-process
    /// builds don't accumulate whole deployments.
    pub fn clear_listeners(&self) {
        let mut i = self.inner.borrow_mut();
        i.listeners.clear();
        i.tree_watchers.clear();
    }

    /// Registers a tree watcher: called at the very instant the
    /// [`topology_gen`](Self::topology_gen) changes, with no notification
    /// delay (a detach removes devices from the tree at once, while its
    /// [`UsbEvent::Detached`] fires only after the disconnect-detect
    /// delay).
    pub fn watch_tree(&self, f: impl Fn(&Sim) + 'static) {
        self.inner.borrow_mut().tree_watchers.push(Rc::new(f));
    }

    fn tree_changed(&self, sim: &Sim) {
        let watchers: Vec<_> = self.inner.borrow().tree_watchers.clone();
        for w in watchers {
            w(sim);
        }
    }

    fn emit(&self, sim: &Sim, ev: UsbEvent) {
        let listeners: Vec<_> = self.inner.borrow().listeners.clone();
        for l in listeners {
            l(sim, ev);
        }
    }

    /// Attaches a device; enumeration proceeds asynchronously and ends with
    /// a [`UsbEvent::Ready`] or [`UsbEvent::EnumFailed`] notification.
    pub fn attach(&self, sim: &Sim, desc: DeviceDesc) {
        let verdict: Result<(SimTime, u64), EnumError> = {
            let mut i = self.inner.borrow_mut();
            if i.nodes.contains_key(&desc.id) {
                Err(EnumError::DuplicateId)
            } else {
                let tier = match desc.parent {
                    None => 1,
                    Some(p) => match i.nodes.get(&p) {
                        Some(n) if n.desc.kind == DeviceKind::Hub => n.tier + 1,
                        _ => {
                            drop(i);
                            self.emit(sim, UsbEvent::EnumFailed(desc.id, EnumError::ParentMissing));
                            return;
                        }
                    },
                };
                let tier_limit = match desc.kind {
                    DeviceKind::Hub => i.profile.max_hub_tiers,
                    DeviceKind::Storage => i.profile.max_hub_tiers + 1,
                };
                if tier > tier_limit {
                    Err(EnumError::TierTooDeep)
                } else if i.nodes.len() >= i.profile.max_devices {
                    Err(EnumError::TooManyDevices)
                } else {
                    let epoch = i.next_epoch;
                    i.next_epoch += 1;
                    // Serialize the bus-level part of enumeration.
                    let debounce = sim.now() + i.profile.disconnect_detect;
                    let start = debounce.max(i.enum_tail);
                    let serial_done = start + i.profile.enum_serial;
                    i.enum_tail = serial_done;
                    let ready_at = serial_done + i.profile.enum_parallel;
                    i.nodes.insert(
                        desc.id,
                        Node {
                            desc,
                            tier,
                            state: DeviceState::Enumerating,
                            epoch,
                        },
                    );
                    i.topo_gen += 1;
                    Ok((ready_at, epoch))
                }
            }
        };
        match verdict {
            Ok((ready_at, epoch)) => {
                self.tree_changed(sim);
                self.emit(sim, UsbEvent::Attached(desc.id));
                let this = self.clone();
                sim.schedule_at(ready_at, move |sim| {
                    let became_ready = {
                        let mut i = this.inner.borrow_mut();
                        match i.nodes.get_mut(&desc.id) {
                            Some(n) if n.epoch == epoch => {
                                n.state = DeviceState::Ready;
                                true
                            }
                            _ => false,
                        }
                    };
                    if became_ready {
                        this.inner.borrow_mut().topo_gen += 1;
                        this.tree_changed(sim);
                    }
                    if became_ready {
                        sim.count(&this.name(), "usb.enumerations", 1);
                        sim.trace(
                            TraceLevel::Debug,
                            "usb",
                            format!("{}: {} ready", this.name(), desc.id),
                        );
                        this.emit(sim, UsbEvent::Ready(desc.id));
                    }
                });
            }
            Err(e) => {
                // Record the failed device so the operator can see it in
                // the tree snapshot (mirrors the paper's ">15 devices not
                // recognized" symptom).
                if e == EnumError::TooManyDevices || e == EnumError::TierTooDeep {
                    let mut i = self.inner.borrow_mut();
                    let epoch = i.next_epoch;
                    i.next_epoch += 1;
                    let tier = desc
                        .parent
                        .and_then(|p| i.nodes.get(&p))
                        .map_or(1, |n| n.tier + 1);
                    i.nodes.insert(
                        desc.id,
                        Node {
                            desc,
                            tier,
                            state: DeviceState::Failed(e),
                            epoch,
                        },
                    );
                    i.topo_gen += 1;
                    drop(i);
                    self.tree_changed(sim);
                }
                sim.trace(
                    TraceLevel::Warn,
                    "usb",
                    format!("{}: {} enumeration failed: {e}", self.name(), desc.id),
                );
                self.emit(sim, UsbEvent::EnumFailed(desc.id, e));
            }
        }
    }

    /// Detaches a device and its entire subtree. [`UsbEvent::Detached`]
    /// notifications fire after the disconnect-detect delay.
    pub fn detach(&self, sim: &Sim, id: DeviceId) {
        let removed = {
            let mut i = self.inner.borrow_mut();
            let mut to_remove = vec![id];
            let mut k = 0;
            while k < to_remove.len() {
                let cur = to_remove[k];
                k += 1;
                let children: Vec<DeviceId> = i
                    .nodes
                    .values()
                    .filter(|n| n.desc.parent == Some(cur))
                    .map(|n| n.desc.id)
                    .collect();
                to_remove.extend(children);
            }
            let mut removed = Vec::new();
            for d in to_remove {
                if i.nodes.remove(&d).is_some() {
                    removed.push(d);
                }
            }
            if !removed.is_empty() {
                i.topo_gen += 1;
            }
            removed
        };
        if removed.is_empty() {
            return;
        }
        self.tree_changed(sim);
        sim.count(&self.name(), "usb.detaches", removed.len() as u64);
        let delay = self.inner.borrow().profile.disconnect_detect;
        let this = self.clone();
        sim.schedule_in(delay, move |sim| {
            for d in &removed {
                this.emit(sim, UsbEvent::Detached(*d));
            }
        });
    }

    /// Number of attached devices (any state).
    pub fn device_count(&self) -> usize {
        self.inner.borrow().nodes.len()
    }

    /// State of one device, if attached.
    pub fn device_state(&self, id: DeviceId) -> Option<DeviceState> {
        self.inner.borrow().nodes.get(&id).map(|n| n.state)
    }

    /// Topology generation: changes whenever any device attaches, detaches
    /// or changes state. Cache keys for derived views of the tree.
    pub fn topology_gen(&self) -> u64 {
        self.inner.borrow().topo_gen
    }

    /// `lsusb -t`-style snapshot, sorted by (tier, id).
    pub fn snapshot(&self) -> Vec<UsbTreeNode> {
        let i = self.inner.borrow();
        let mut v: Vec<UsbTreeNode> = i
            .nodes
            .values()
            .map(|n| UsbTreeNode {
                id: n.desc.id,
                kind: n.desc.kind,
                parent: n.desc.parent,
                tier: n.tier,
                state: n.state,
            })
            .collect();
        v.sort_by_key(|n| (n.tier, n.id));
        v
    }

    /// Renders the tree like `lsusb -t` — the view the paper's USB
    /// Monitor ships to the Controller (§IV-B).
    ///
    /// ```text
    /// /:  root hub (host-0)
    ///     |__ usb100000 [hub] ready
    ///         |__ usb0 [storage] ready
    /// ```
    pub fn format_tree(&self) -> String {
        let snap = self.snapshot();
        let mut out = format!(
            "/:  root hub ({})
",
            self.name()
        );
        fn emit(out: &mut String, snap: &[UsbTreeNode], parent: Option<DeviceId>, depth: usize) {
            for n in snap.iter().filter(|n| n.parent == parent) {
                let kind = match n.kind {
                    DeviceKind::Hub => "hub",
                    DeviceKind::Storage => "storage",
                };
                let state = match n.state {
                    DeviceState::Ready => "ready".to_owned(),
                    DeviceState::Enumerating => "enumerating".to_owned(),
                    DeviceState::Failed(e) => format!("FAILED: {e}"),
                };
                out.push_str(&"    ".repeat(depth));
                out.push_str(&format!(
                    "|__ {} [{kind}] {state}
",
                    n.id
                ));
                emit(out, snap, Some(n.id), depth + 1);
            }
        }
        emit(&mut out, &snap, None, 1);
        out
    }

    /// Number of ready storage devices downstream of hub `hub` (for the
    /// Table IV hub power model).
    pub fn hub_active_ports(&self, hub: DeviceId) -> usize {
        let i = self.inner.borrow();
        i.nodes
            .values()
            .filter(|n| n.desc.parent == Some(hub) && !matches!(n.state, DeviceState::Failed(_)))
            .count()
    }

    /// Reserves the shared payload link for a `bytes`-sized command to or
    /// from `id`, invoking `cb` when the bus transfer would complete.
    ///
    /// The caller overlaps this with the disk's own service time (the
    /// completion is the max of the two), so under no contention the bus
    /// adds nothing — matching Table II's H&S ≈ USB observation.
    pub fn transfer(
        &self,
        sim: &Sim,
        id: DeviceId,
        dir: BusDir,
        bytes: u64,
        cb: impl FnOnce(&Sim, Result<(), UsbError>) + 'static,
    ) {
        let res: Result<SimTime, UsbError> = {
            let mut i = self.inner.borrow_mut();
            match i.nodes.get(&id) {
                None => Err(UsbError::NoSuchDevice),
                Some(n) if n.desc.kind != DeviceKind::Storage => Err(UsbError::NotStorage),
                Some(n) if n.state != DeviceState::Ready => Err(UsbError::NotReady),
                Some(_) => {
                    let now = sim.now();
                    let other_busy = match dir {
                        BusDir::In => i.out_busy,
                        BusDir::Out => i.in_busy,
                    };
                    let mut occ = i.profile.command_occupancy(bytes);
                    if other_busy > now {
                        // Both directions streaming: duplex derating.
                        occ = Duration::from_secs_f64(occ.as_secs_f64() / i.profile.duplex_factor);
                    }
                    let busy = match dir {
                        BusDir::In => &mut i.in_busy,
                        BusDir::Out => &mut i.out_busy,
                    };
                    let start = now.max(*busy);
                    let done = start + occ;
                    *busy = done;
                    // Link utilization telemetry: summing busy_ns over a
                    // window gives the per-direction duty cycle.
                    let m = i.metrics(sim);
                    m.transfers.inc();
                    m.bytes.add(bytes);
                    match dir {
                        BusDir::In => &m.link_in_busy,
                        BusDir::Out => &m.link_out_busy,
                    }
                    .add(occ.as_nanos().min(u128::from(u64::MAX)) as u64);
                    Ok(done)
                }
            }
        };
        match res {
            Ok(done) => {
                sim.schedule_at(done, move |sim| cb(sim, Ok(())));
            }
            Err(e) => {
                sim.schedule_now(move |sim| cb(sim, Err(e)));
            }
        }
    }

    /// The controller's profile.
    pub fn profile(&self) -> UsbProfile {
        self.inner.borrow().profile.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn host() -> (Sim, UsbHost) {
        (Sim::new(3), UsbHost::new("h0", UsbProfile::prototype()))
    }

    fn hub(id: u32, parent: Option<u32>) -> DeviceDesc {
        DeviceDesc {
            id: DeviceId(id),
            kind: DeviceKind::Hub,
            parent: parent.map(DeviceId),
        }
    }

    fn stor(id: u32, parent: Option<u32>) -> DeviceDesc {
        DeviceDesc {
            id: DeviceId(id),
            kind: DeviceKind::Storage,
            parent: parent.map(DeviceId),
        }
    }

    #[test]
    fn single_device_enumerates_in_expected_time() {
        let (sim, h) = host();
        let ready_at = Rc::new(Cell::new(SimTime::ZERO));
        let r = ready_at.clone();
        h.subscribe(move |sim, ev| {
            if matches!(ev, UsbEvent::Ready(_)) {
                r.set(sim.now());
            }
        });
        h.attach(&sim, stor(1, None));
        sim.run();
        // debounce 0.4 + serial 0.3 + parallel 1.1 = 1.8 s
        assert_eq!(ready_at.get(), SimTime::from_millis(1800));
        assert_eq!(h.device_state(DeviceId(1)), Some(DeviceState::Ready));
    }

    #[test]
    fn simultaneous_enumeration_serializes() {
        let (sim, h) = host();
        let last = Rc::new(Cell::new(SimTime::ZERO));
        let l = last.clone();
        h.subscribe(move |sim, ev| {
            if matches!(ev, UsbEvent::Ready(_)) {
                l.set(sim.now());
            }
        });
        for d in 0..4 {
            h.attach(&sim, stor(d, None));
        }
        sim.run();
        // 0.4 + 4 * 0.3 + 1.1 = 2.7 s — the Figure 6 part-1 slope.
        assert_eq!(last.get(), SimTime::from_millis(2700));
    }

    #[test]
    fn device_limit_quirk() {
        let (sim, h) = host();
        let failed = Rc::new(Cell::new(0u32));
        let f = failed.clone();
        h.subscribe(move |_, ev| {
            if matches!(ev, UsbEvent::EnumFailed(_, EnumError::TooManyDevices)) {
                f.set(f.get() + 1);
            }
        });
        for d in 0..20 {
            h.attach(&sim, stor(d, None));
        }
        sim.run();
        assert_eq!(failed.get(), 5, "15-device quirk rejects the rest");
        // Spec-conformant controller takes all 20.
        let h2 = UsbHost::new("h1", UsbProfile::spec_conformant());
        for d in 0..20 {
            h2.attach(&sim, stor(100 + d, None));
        }
        sim.run();
        let ready = h2
            .snapshot()
            .iter()
            .filter(|n| n.state == DeviceState::Ready)
            .count();
        assert_eq!(ready, 20);
    }

    #[test]
    fn tier_limit_enforced() {
        let (sim, h) = host();
        let mut parent = None;
        for t in 0..5 {
            h.attach(&sim, hub(t, parent));
            parent = Some(t);
        }
        sim.run();
        // 6th tier hub fails.
        h.attach(&sim, hub(5, parent));
        sim.run();
        assert_eq!(
            h.device_state(DeviceId(5)),
            Some(DeviceState::Failed(EnumError::TierTooDeep))
        );
        // Storage on tier-5 hub is fine (it is the 6th level = device level).
        h.attach(&sim, stor(10, Some(4)));
        sim.run();
        assert_eq!(h.device_state(DeviceId(10)), Some(DeviceState::Ready));
    }

    #[test]
    fn parent_missing_and_duplicate() {
        let (sim, h) = host();
        let events = Rc::new(RefCell::new(Vec::new()));
        let e = events.clone();
        h.subscribe(move |_, ev| e.borrow_mut().push(ev));
        h.attach(&sim, stor(1, Some(99)));
        h.attach(&sim, stor(2, None));
        h.attach(&sim, stor(2, None));
        sim.run();
        let evs = events.borrow();
        assert!(evs.contains(&UsbEvent::EnumFailed(DeviceId(1), EnumError::ParentMissing)));
        assert!(evs.contains(&UsbEvent::EnumFailed(DeviceId(2), EnumError::DuplicateId)));
    }

    #[test]
    fn detach_removes_subtree_and_notifies() {
        let (sim, h) = host();
        h.attach(&sim, hub(1, None));
        h.attach(&sim, stor(2, Some(1)));
        h.attach(&sim, stor(3, Some(1)));
        sim.run();
        assert_eq!(h.device_count(), 3);
        let detached = Rc::new(RefCell::new(Vec::new()));
        let d = detached.clone();
        h.subscribe(move |_, ev| {
            if let UsbEvent::Detached(id) = ev {
                d.borrow_mut().push(id);
            }
        });
        h.detach(&sim, DeviceId(1));
        assert_eq!(h.device_count(), 0, "subtree gone immediately");
        sim.run();
        assert_eq!(detached.borrow().len(), 3, "all three notified");
        assert_eq!(
            sim.metrics_snapshot().counter(&h.name(), "usb.detaches"),
            3,
            "detach storms are countable per host"
        );
    }

    #[test]
    fn detach_mid_enumeration_cancels_ready() {
        let (sim, h) = host();
        h.attach(&sim, stor(1, None));
        h.detach(&sim, DeviceId(1));
        let got_ready = Rc::new(Cell::new(false));
        let g = got_ready.clone();
        h.subscribe(move |_, ev| {
            if matches!(ev, UsbEvent::Ready(_)) {
                g.set(true);
            }
        });
        sim.run();
        assert!(!got_ready.get());
    }

    #[test]
    fn transfer_requires_ready_storage() {
        let (sim, h) = host();
        h.attach(&sim, hub(1, None));
        h.attach(&sim, stor(2, Some(1)));
        h.transfer(&sim, DeviceId(9), BusDir::In, 4096, |_, r| {
            assert_eq!(r.unwrap_err(), UsbError::NoSuchDevice);
        });
        h.transfer(&sim, DeviceId(2), BusDir::In, 4096, |_, r| {
            assert_eq!(r.unwrap_err(), UsbError::NotReady);
        });
        sim.run();
        h.transfer(&sim, DeviceId(1), BusDir::In, 4096, |_, r| {
            assert_eq!(r.unwrap_err(), UsbError::NotStorage);
        });
        h.transfer(&sim, DeviceId(2), BusDir::In, 4096, |_, r| {
            r.expect("ready now")
        });
        sim.run();
    }

    #[test]
    fn link_is_shared_fifo() {
        let (sim, h) = host();
        h.attach(&sim, stor(1, None));
        h.attach(&sim, stor(2, None));
        sim.run();
        let t0 = sim.now();
        let done = Rc::new(RefCell::new(Vec::new()));
        for d in [1u32, 2] {
            let dn = done.clone();
            h.transfer(
                &sim,
                DeviceId(d),
                BusDir::In,
                4 * 1024 * 1024,
                move |sim, r| {
                    r.expect("transfer");
                    dn.borrow_mut().push(sim.now());
                },
            );
        }
        sim.run();
        let done = done.borrow();
        let occ = UsbProfile::prototype().command_occupancy(4 * 1024 * 1024);
        assert_eq!(done[0], t0 + occ);
        assert_eq!(
            done[1],
            t0 + occ + occ,
            "second transfer queued behind first"
        );
    }

    #[test]
    fn duplex_directions_overlap_with_derating() {
        let (sim, h) = host();
        h.attach(&sim, stor(1, None));
        h.attach(&sim, stor(2, None));
        sim.run();
        let t0 = sim.now();
        let done_in = Rc::new(Cell::new(SimTime::ZERO));
        let done_out = Rc::new(Cell::new(SimTime::ZERO));
        let di = done_in.clone();
        h.transfer(&sim, DeviceId(1), BusDir::In, 4 << 20, move |sim, _| {
            di.set(sim.now())
        });
        let do_ = done_out.clone();
        h.transfer(&sim, DeviceId(2), BusDir::Out, 4 << 20, move |sim, _| {
            do_.set(sim.now())
        });
        sim.run();
        let occ = UsbProfile::prototype().command_occupancy(4 << 20);
        // IN started first with the OUT side idle: full rate.
        assert_eq!(done_in.get(), t0 + occ);
        // OUT sees the IN side busy: derated by the duplex factor.
        let derated = Duration::from_secs_f64(occ.as_secs_f64() / 0.9);
        assert_eq!(done_out.get(), t0 + derated);
        // Both complete far sooner than serialized (2x occ).
        assert!(done_out.get() < t0 + occ + occ);
    }

    #[test]
    fn format_tree_renders_hierarchy_and_states() {
        let (sim, h) = host();
        h.attach(&sim, hub(5, None));
        h.attach(&sim, stor(3, Some(5)));
        sim.run();
        for d in 0..20 {
            h.attach(&sim, stor(50 + d, None));
        }
        sim.run();
        let tree = h.format_tree();
        assert!(tree.starts_with("/:  root hub (h0)"), "{tree}");
        assert!(tree.contains("|__ usb5 [hub] ready"));
        assert!(tree.contains("    |__ usb3 [storage] ready"), "{tree}");
        assert!(
            tree.contains("FAILED"),
            "over-limit devices visible: {tree}"
        );
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let (sim, h) = host();
        h.attach(&sim, hub(5, None));
        h.attach(&sim, stor(3, Some(5)));
        h.attach(&sim, stor(4, Some(5)));
        sim.run();
        let snap = h.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].id, DeviceId(5));
        assert_eq!(snap[0].tier, 1);
        assert_eq!(snap[1].tier, 2);
        assert_eq!(h.hub_active_ports(DeviceId(5)), 2);
    }
}
