//! The UStore Master (§IV-A).
//!
//! A single logical Master maintains the holistic view of the system:
//! **SysConf** (static configuration, persisted in the coordination
//! service), **SysStat** (live host/disk state, kept only in memory and
//! rebuilt from heartbeats), and **StorAlloc** (storage allocations,
//! persisted synchronously). For fault tolerance it runs as active/standby
//! processes elected through the Paxos-backed coordination service
//! (§V-B), exactly like the prototype's ZooKeeper deployment.
//!
//! Heartbeats are one way: nothing answers them. The active Master tells
//! EndPoints where it is instead — every configured host on activation,
//! then any host whose heartbeats have gone quiet. A steady EndPoint's
//! beats are computed, not simulated (see [`ustore_net::stream`]): SysStat
//! reads settle them first, and every action a beat's arrival triggers
//! runs at the computed arrival of the first beat that triggers it.
//!
//! Failure handling (§IV-E): when heartbeats from a host stop, the Master
//! declares it dead and commands the unit's Controller to move the dead
//! host's disks to survivors; once the moved disks re-enumerate, the new
//! hosts' EndPoints re-expose their targets and ClientLibs remount.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_consensus::{
    group_addrs, ClientConfig as CoordClientConfig, CoordClient, CreateMode, Election,
};
use ustore_fabric::{DiskId, HostId};
use ustore_net::{
    Addr, End, Inbound, Network, Open, Payload, Receiver, Replicas, RetryPolicy, RpcError, RpcNode,
    RuleChange, Verdict,
};
use ustore_sim::{CounterHandle, FastMap, FastSet, Sim, SimTime, SpanId, TraceLevel};

use crate::alloc::{Allocator, Extent};
use crate::ids::{SpaceName, UnitId};
use crate::messages::ExposeReq;
use crate::messages::{
    ActiveMaster, AllocateReq, AllocateResp, DiskPowerReq, EndpointAck, ExecuteReq, ExecuteResp,
    Heartbeat, LookupReq, LookupResp, MasterError, PlanReq, PlanResp, ReleaseReq, ReleaseResp,
    SpaceInfo, UnexposeReq,
};
use crate::meta::MetaRouter;

/// Static configuration of one deploy unit (part of SysConf).
#[derive(Debug, Clone)]
pub struct UnitConf {
    /// The unit's id.
    pub unit: UnitId,
    /// Hosts connected to the unit, with their network addresses.
    pub hosts: Vec<(HostId, Addr)>,
    /// Disks in the unit, with capacities.
    pub disks: Vec<(DiskId, u64)>,
    /// Addresses of the unit's (primary, backup) Controllers.
    pub controllers: Vec<Addr>,
}

/// Master tunables.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// A host missing heartbeats for this long is declared dead.
    pub heartbeat_timeout: Duration,
    /// Failure-detection sweep period.
    pub sweep_interval: Duration,
    /// RPC timeout toward EndPoints/Controllers.
    pub rpc_timeout: Duration,
    /// Timeout for Controller execute commands (enumeration takes seconds).
    pub execute_timeout: Duration,
    /// A disk unseen in heartbeats for this long (while its host lives)
    /// is treated as a fabric-device failure (§IV-E).
    pub disk_timeout: Duration,
    /// Minimum gap between recovery attempts for the same disk.
    pub disk_retry: Duration,
    /// Metadata partitions (§IV-A scaled out): StorAlloc is split into
    /// per-unit-group namespaces, each persisted in its own replicated
    /// log. Partition 0 lives in the base coordination cluster under the
    /// legacy paths; `1` (the default) is the pre-partition Master,
    /// byte-for-byte.
    pub partitions: u32,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            heartbeat_timeout: Duration::from_millis(1000),
            sweep_interval: Duration::from_millis(200),
            rpc_timeout: Duration::from_millis(500),
            execute_timeout: Duration::from_secs(40),
            disk_timeout: Duration::from_secs(8),
            disk_retry: Duration::from_secs(30),
            partitions: 1,
        }
    }
}

struct M {
    config: MasterConfig,
    active: bool,
    units: BTreeMap<UnitId, UnitConf>,
    // SysStat — memory only (§IV-A), rebuilt from heartbeats.
    /// When each host was last heard. A heard stream's arrivals are not
    /// written here but derived when read ([`M::host_last`]).
    host_last_hb: FastMap<(UnitId, HostId), SimTime>,
    host_alive: FastMap<(UnitId, HostId), bool>,
    host_addr: FastMap<(UnitId, HostId), Addr>,
    /// `host_addr` inverted, for the allocation locality hint.
    addr_host: FastMap<Addr, (UnitId, HostId)>,
    /// When this process last told each host that it is the active Master.
    announced: FastMap<(UnitId, HostId), SimTime>,
    disk_host: FastMap<(UnitId, DiskId), HostId>,
    /// When each disk was last listed ready, like `host_last_hb`
    /// ([`M::disk_last`]).
    disk_last_seen: FastMap<(UnitId, DiskId), SimTime>,
    failover_in_progress: BTreeSet<(UnitId, HostId)>,
    disk_recovery_attempted: FastMap<(UnitId, DiskId), SimTime>,
    // StorAlloc — persisted through the coordination service.
    alloc: Allocator,
    exposures_pushed: FastSet<(SpaceName, HostId)>,
    /// Allocations whose metadata write is still in flight; not exposed
    /// until persisted (§IV-A's synchronous-persistence rule).
    pending_persist: FastSet<SpaceName>,
    /// Heartbeats heard while active.
    heard: CounterHandle,
    /// When this process became active (baseline for detecting hosts that
    /// died before ever heartbeating to this master).
    activated_at: Option<SimTime>,
    /// Computed heartbeat streams pointed at this process, by host.
    streams: Receiver<(UnitId, HostId), Beats>,
    /// Streams that are not [clean](Beats::clean), by the arrival of
    /// the next beat to apply in full (kept only while hearing).
    dirty: BTreeSet<(SimTime, UnitId, HostId)>,
    /// Heard streams by the instant they start to [cover](Beats::covers).
    cover_from: BTreeSet<(SimTime, UnitId, HostId)>,
    /// What covering streams vouch for, for every unit of `units`.
    cover: BTreeMap<UnitId, UnitCover>,
    /// Covering streams listing each configured disk ready.
    disk_cover: FastMap<(UnitId, DiskId), u32>,
}

/// How many of a unit's configured hosts and disks covering streams
/// vouch for, per check.
#[derive(Debug, Clone, Copy, Default)]
struct UnitCover {
    /// Hosts the dead check skips.
    dead: usize,
    /// Hosts `announce` skips.
    announce: usize,
    /// Disks the missing-disk sweep skips.
    disks: usize,
}

/// The checks a covering stream vouches for (see [`Beats::covers`]).
#[derive(Debug, Clone, Copy)]
struct Covers {
    dead: bool,
    announce: bool,
    disks: bool,
    /// The host is configured in its unit, so the unit's tally counts it.
    known: bool,
}

/// What the Master keeps of a computed heartbeat stream.
struct Beats {
    /// What every beat of the stream says (`seq` aside). From its first
    /// heard beat on, the host's and its ready disks' timestamps are the
    /// stream's latest heard arrival.
    beat: Heartbeat,
    /// SysStat already holds what this stream's beats say, so the next
    /// one only moves its timestamps. Cleared by every change to the
    /// unit's SysStat.
    clean: bool,
    /// This stream's key in [`M::dirty`].
    due: Option<SimTime>,
    /// Set while the stream covers: it is heard, not ended, and one of
    /// its heard beats has arrived. Then every check whose threshold
    /// exceeds the largest gap between two arrivals (the interval plus
    /// the flow's jitter span) would find the host (and its ready disks)
    /// heard less than that gap ago, so it cannot select them.
    covers: Option<Covers>,
}

type Stream = Inbound<Beats>;

/// A beat a settle applies in full.
struct Due {
    at: SimTime,
    key: (UnitId, HostId),
    beat: Heartbeat,
}

/// Beat `n` of `key`'s stream `st`, applied in full at its arrival.
fn due(key: (UnitId, HostId), st: &Stream, n: u64) -> Due {
    let mut beat = st.state.beat.clone();
    beat.seq = n;
    Due {
        at: st.arrival(n),
        key,
        beat,
    }
}

/// Keeps the later of `at` and the recorded instant.
fn record<K: std::hash::Hash + Eq>(map: &mut FastMap<K, SimTime>, key: K, at: SimTime) {
    let t = map.entry(key).or_insert(at);
    *t = (*t).max(at);
}

impl M {
    /// When `key` was last heard, as of `now`.
    fn host_last(&self, key: (UnitId, HostId), now: SimTime) -> Option<SimTime> {
        let heard = self
            .streams
            .get(&key)
            .and_then(|st| Some(st.arrival(st.heard_by(now)?)));
        self.host_last_hb.get(&key).copied().max(heard)
    }

    /// When `key` was last listed ready, as of `now`.
    fn disk_last(&self, key: (UnitId, DiskId), now: SimTime) -> Option<SimTime> {
        let heard = self
            .streams
            .range(stream_keys(Some(key.0)))
            .filter(|(_, st)| st.state.beat.ready_disks.contains(&key.1))
            .filter_map(|(_, st)| Some(st.arrival(st.heard_by(now)?)))
            .max();
        self.disk_last_seen.get(&key).copied().max(heard)
    }

    /// Whether a covering stream of `key` vouches for the check `pick`
    /// selects.
    fn vouched(&self, key: (UnitId, HostId), pick: impl Fn(&Covers) -> bool) -> bool {
        self.streams
            .get(&key)
            .and_then(|st| st.state.covers.as_ref())
            .is_some_and(pick)
    }

    /// Counts `key` in the cover tallies.
    fn start_cover(&mut self, key: (UnitId, HostId)) {
        let (timeout, disk_timeout) = (self.config.heartbeat_timeout, self.config.disk_timeout);
        let Some(conf) = self.units.get(&key.0) else {
            return;
        };
        let known = conf.hosts.iter().any(|(h, _)| *h == key.1);
        let Some(st) = self.streams.get_mut(&key) else {
            return;
        };
        let gap = st.gap();
        let c = Covers {
            dead: gap < timeout,
            announce: gap < timeout / 2,
            disks: gap < disk_timeout,
            known,
        };
        st.state.covers = Some(c);
        let tally = self.cover.get_mut(&key.0).expect("configured unit");
        tally.dead += usize::from(c.known && c.dead);
        tally.announce += usize::from(c.known && c.announce);
        if c.disks {
            for d in st.state.beat.ready_disks.iter() {
                if let Some(n) = self.disk_cover.get_mut(&(key.0, *d)) {
                    *n += 1;
                    tally.disks += usize::from(*n == 1);
                }
            }
        }
    }

    /// Takes `key` out of the cover tallies (and out of `cover_from`).
    fn stop_cover(&mut self, key: (UnitId, HostId)) {
        let Some(st) = self.streams.get_mut(&key) else {
            return;
        };
        if let Some(f) = st.heard_from().filter(|_| st.state.covers.is_none()) {
            self.cover_from.remove(&(st.arrival(f), key.0, key.1));
        }
        let Some(c) = st.state.covers.take() else {
            return;
        };
        let tally = self.cover.get_mut(&key.0).expect("configured unit");
        tally.dead -= usize::from(c.known && c.dead);
        tally.announce -= usize::from(c.known && c.announce);
        if c.disks {
            for d in st.state.beat.ready_disks.iter() {
                if let Some(n) = self.disk_cover.get_mut(&(key.0, *d)) {
                    *n -= 1;
                    tally.disks -= usize::from(*n == 0);
                }
            }
        }
    }

    /// Starts covering every heard stream whose first heard beat has
    /// arrived by `now`.
    fn promote(&mut self, now: SimTime) {
        while let Some(&(at, unit, host)) = self.cover_from.first() {
            if at > now {
                break;
            }
            self.cover_from.pop_first();
            self.start_cover((unit, host));
        }
    }

    /// Starts covering `key` once its first heard beat arrives (not for
    /// an ended stream).
    fn hear(&mut self, key: (UnitId, HostId)) {
        let Some(st) = self.streams.get(&key) else {
            return;
        };
        if let (Some(f), false) = (st.heard_from(), st.is_ended()) {
            self.cover_from.insert((st.arrival(f), key.0, key.1));
        }
    }

    /// Queues `key` to apply its beat arriving at `at` in full.
    fn set_due(&mut self, key: (UnitId, HostId), at: Option<SimTime>) {
        let Some(st) = self.streams.get_mut(&key) else {
            return;
        };
        if let Some(t) = std::mem::replace(&mut st.state.due, at) {
            self.dirty.remove(&(t, key.0, key.1));
        }
        if let Some(t) = at {
            self.dirty.insert((t, key.0, key.1));
        }
    }

    /// Removes the ended stream `key`, every beat of which arrived by
    /// `sim.now()`; what was heard goes to the maps.
    fn remove_stream(&mut self, sim: &Sim, key: (UnitId, HostId)) -> Option<Stream> {
        self.record_heard(key, sim.now());
        self.stop_cover(key);
        self.set_due(key, None);
        self.streams.remove(sim, &key)
    }

    /// Writes what `key`'s heard arrivals say into the timestamp maps.
    fn record_heard(&mut self, key: (UnitId, HostId), now: SimTime) {
        let Some(st) = self.streams.get(&key) else {
            return;
        };
        let Some(n) = st.heard_by(now) else {
            return;
        };
        let at = st.arrival(n);
        record(&mut self.host_last_hb, key, at);
        for d in st.state.beat.ready_disks.iter() {
            record(&mut self.disk_last_seen, (key.0, *d), at);
        }
    }
}

/// The `streams` keys of `unit`, or of every unit.
fn stream_keys(unit: Option<UnitId>) -> std::ops::RangeInclusive<(UnitId, HostId)> {
    match unit {
        Some(u) => (u, HostId(0))..=(u, HostId(u32::MAX)),
        None => (UnitId(0), HostId(0))..=(UnitId(u32::MAX), HostId(u32::MAX)),
    }
}

/// The step at which a [`Master::reroute`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RerouteStep {
    /// No Controller answered the plan, or Algorithm 1 found no path.
    Plan,
    /// The Controller did not complete the reconfiguration.
    Execute,
}

/// One Master process (active or standby).
#[derive(Clone)]
pub struct Master {
    rpc: RpcNode,
    /// Partition-0 client: base cluster — election, sessions, legacy paths.
    coord: CoordClient,
    /// Clients for partitions 1.. (empty in a single-partition deployment).
    part_coords: Rc<Vec<CoordClient>>,
    router: MetaRouter,
    inner: Rc<RefCell<M>>,
    election: Rc<RefCell<Option<Rc<Election>>>>,
}

impl fmt::Debug for Master {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.inner.borrow();
        f.debug_struct("Master")
            .field("addr", self.rpc.addr())
            .field("active", &m.active)
            .finish()
    }
}

impl Master {
    /// Starts a Master process at `addr` (its coordination-client socket is
    /// `<addr>-zk`), joining the active/standby election.
    pub fn new(
        sim: &Sim,
        net: &Network,
        addr: Addr,
        coord_servers: Vec<Addr>,
        units: Vec<UnitConf>,
        config: MasterConfig,
    ) -> Master {
        let rpc = RpcNode::new(net, addr.clone());
        let router = MetaRouter::new(config.partitions, units.len() as u32);
        let coord = CoordClient::new(
            net,
            MetaRouter::coord_socket(&addr, 0),
            coord_servers.clone(),
            CoordClientConfig::default(),
        );
        // One additional session per metadata partition, against that
        // partition's own replica group. Nothing is created at
        // `partitions == 1`.
        let part_coords: Vec<CoordClient> = (1..router.partitions())
            .map(|k| {
                CoordClient::new(
                    net,
                    MetaRouter::coord_socket(&addr, k),
                    group_addrs(&coord_servers, k),
                    CoordClientConfig::default(),
                )
            })
            .collect();
        let mut alloc = Allocator::new();
        let mut disk_cover = FastMap::default();
        for u in &units {
            for (d, cap) in &u.disks {
                alloc.register_disk(u.unit, *d, *cap);
                disk_cover.insert((u.unit, *d), 0);
            }
        }
        let units: BTreeMap<UnitId, UnitConf> = units.into_iter().map(|u| (u.unit, u)).collect();
        let master = Master {
            rpc,
            coord: coord.clone(),
            part_coords: Rc::new(part_coords),
            router,
            inner: Rc::new(RefCell::new(M {
                config,
                active: false,
                cover: units.keys().map(|u| (*u, UnitCover::default())).collect(),
                units,
                host_last_hb: FastMap::default(),
                host_alive: FastMap::default(),
                host_addr: FastMap::default(),
                addr_host: FastMap::default(),
                announced: FastMap::default(),
                disk_host: FastMap::default(),
                disk_last_seen: FastMap::default(),
                failover_in_progress: BTreeSet::new(),
                disk_recovery_attempted: FastMap::default(),
                alloc,
                exposures_pushed: FastSet::default(),
                pending_persist: FastSet::default(),
                heard: sim.counter(addr.as_str(), "master.heartbeats"),
                activated_at: None,
                streams: Receiver::new(net, addr.clone()),
                dirty: BTreeSet::new(),
                cover_from: BTreeSet::new(),
                disk_cover,
            })),
            election: Rc::new(RefCell::new(None)),
        };
        master.install_handlers();
        let m = master.clone();
        net.bind_notices(&addr, move |sim, notice| m.on_notice(sim, notice));
        // Beats arriving while this process's node is down are dropped:
        // settle the streams under the old rule before it changes.
        let m = master.clone();
        net.on_rule_change(move |sim, change| match change {
            RuleChange::Down(a) if *a == addr => {
                m.settle(sim, None);
                m.set_hearing(sim, false);
            }
            // Beats dropped while down may have let a sweep mark hosts
            // dead; the first beat to arrive once up brings them back.
            RuleChange::Up(a) if *a == addr => {
                m.settle(sim, None);
                let active = m.inner.borrow().active;
                m.set_hearing(sim, active);
                m.wake(sim, None);
            }
            _ => {}
        });
        let m = master.clone();
        sim.on_settle(move |sim| m.settle(sim, None));
        // The election's `on_change` closure captures this Master, and the
        // Master holds the election handle back — drop it (weakly) at
        // teardown so the pair can be collected.
        let weak = Rc::downgrade(&master.election);
        sim.on_teardown(move || {
            if let Some(e) = weak.upgrade() {
                *e.borrow_mut() = None;
            }
        });
        // Connect to the coordination service and join the election.
        let m2 = master.clone();
        coord.connect(sim, move |sim, r| {
            if r.is_err() {
                sim.trace(
                    TraceLevel::Error,
                    "master",
                    "cannot reach coordination service",
                );
                return;
            }
            let m3 = m2.clone();
            let election = Election::join(
                sim,
                &m2.coord,
                "/ustore/master-election",
                move |sim, leads| {
                    if leads {
                        m3.activate(sim);
                    }
                },
            );
            *m2.election.borrow_mut() = Some(election);
        });
        // Partition sessions connect concurrently with the election: the
        // election needs several RPC round trips, so by the time this
        // process can activate and serve allocations the routed sessions
        // are already live.
        for (i, c) in master.part_coords.iter().enumerate() {
            let part = i as u32 + 1;
            c.connect(sim, move |sim, r| {
                if r.is_err() {
                    sim.trace(
                        TraceLevel::Error,
                        "master",
                        format!("cannot reach metadata partition {part}"),
                    );
                }
            });
        }
        master.arm_sweeper(sim);
        master
    }

    /// The coordination client owning metadata partition `p`.
    fn coord_for(&self, p: u32) -> &CoordClient {
        if p == 0 {
            &self.coord
        } else {
            &self.part_coords[(p - 1) as usize]
        }
    }

    /// Number of metadata partitions this master routes across.
    pub fn partitions(&self) -> u32 {
        self.router.partitions()
    }

    /// Whether this process is currently the active master.
    pub fn is_active(&self) -> bool {
        self.inner.borrow().active
    }

    /// The master's service address.
    pub fn addr(&self) -> Addr {
        self.rpc.addr().clone()
    }

    /// Simulates a process crash: stops answering and lets the session
    /// (and election candidacy) lapse.
    pub fn pause(&self, sim: &Sim) {
        self.settle(sim, None);
        self.set_hearing(sim, false);
        self.inner.borrow_mut().active = false;
        self.coord.stop_pinging();
        for c in self.part_coords.iter() {
            c.stop_pinging();
        }
    }

    /// SysStat view: the host a disk is believed attached to.
    pub fn disk_host(&self, unit: UnitId, d: DiskId) -> Option<HostId> {
        self.inner.borrow().disk_host.get(&(unit, d)).copied()
    }

    /// SysStat view: whether a host is believed alive.
    pub fn host_alive(&self, unit: UnitId, h: HostId) -> bool {
        self.inner
            .borrow()
            .host_alive
            .get(&(unit, h))
            .copied()
            .unwrap_or(false)
    }

    // ---- Activation --------------------------------------------------------

    fn activate(&self, sim: &Sim) {
        sim.trace(
            TraceLevel::Info,
            "master",
            format!("{} becoming active", self.rpc.addr()),
        );
        // Load persisted StorAlloc, then start serving.
        let this = self.clone();
        self.ensure_meta_paths(sim, move |sim| {
            this.load_allocations(sim);
        });
    }

    fn ensure_meta_paths(&self, sim: &Sim, then: impl FnOnce(&Sim) + 'static) {
        // Every partition creates its namespace chain in its own log; the
        // continuation fires once all of them exist. With one partition
        // this is the legacy `/ustore` → `/ustore/alloc` chain, verbatim.
        let total = self.router.partitions();
        let remaining = Rc::new(RefCell::new(total));
        let then = Rc::new(RefCell::new(Some(then)));
        for p in 0..total {
            let coord = self.coord_for(p).clone();
            let chain = self.router.create_chain(p);
            let remaining = remaining.clone();
            let then = then.clone();
            create_chain(
                sim,
                coord,
                chain,
                0,
                Box::new(move |sim| {
                    let done = {
                        let mut r = remaining.borrow_mut();
                        *r -= 1;
                        *r == 0
                    };
                    if done {
                        if let Some(t) = then.borrow_mut().take() {
                            t(sim);
                        }
                    }
                }),
            );
        }
    }

    fn load_allocations(&self, sim: &Sim) {
        // Read <alloc-dir>/<space-name-with-escaped-slashes> from every
        // partition's log; activation completes once every partition has
        // been replayed. A metadata-store error stalls activation, exactly
        // as the single-log Master did.
        let parts_remaining = Rc::new(RefCell::new(self.router.partitions()));
        for p in 0..self.router.partitions() {
            let this = self.clone();
            let coord = self.coord_for(p).clone();
            let dir = self.router.alloc_dir(p);
            let dir2 = dir.clone();
            let parts_remaining = parts_remaining.clone();
            coord.clone().children_watch(sim, dir, None, move |sim, r| {
                let part_done = move |this: &Master, sim: &Sim| {
                    let done = {
                        let mut rem = parts_remaining.borrow_mut();
                        *rem -= 1;
                        *rem == 0
                    };
                    if done {
                        this.finish_activation(sim);
                    }
                };
                let Ok(kids) = r else {
                    sim.trace(TraceLevel::Error, "master", "cannot list allocations");
                    return;
                };
                if kids.is_empty() {
                    part_done(&this, sim);
                    return;
                }
                let remaining = Rc::new(RefCell::new(kids.len()));
                let part_done = Rc::new(RefCell::new(Some(part_done)));
                for kid in kids {
                    let Some(name) = decode_space(&kid) else {
                        continue;
                    };
                    let this2 = this.clone();
                    let remaining = remaining.clone();
                    let part_done = part_done.clone();
                    coord.get(sim, format!("{dir2}/{kid}"), move |sim, r| {
                        if let Ok(Some((data, _))) = r {
                            if let Some(extent) = decode_extent(&data) {
                                this2.inner.borrow_mut().alloc.restore(name, extent);
                            }
                        }
                        let done = {
                            let mut rem = remaining.borrow_mut();
                            *rem -= 1;
                            *rem == 0
                        };
                        if done {
                            if let Some(pd) = part_done.borrow_mut().take() {
                                pd(&this2, sim);
                            }
                        }
                    });
                }
            });
        }
    }

    fn finish_activation(&self, sim: &Sim) {
        self.settle(sim, None);
        {
            let mut m = self.inner.borrow_mut();
            m.active = true;
            m.activated_at = Some(sim.now());
        }
        self.set_hearing(sim, self.rpc.network().is_up(self.rpc.addr()));
        sim.trace(
            TraceLevel::Info,
            "master",
            format!("{} active", self.rpc.addr()),
        );
        self.announce(sim);
        // Every stream's next beat now counts, and may push exposures.
        self.wake(sim, None);
    }

    /// Casts this Master's address to every host in SysConf that is silent
    /// (never heard by this process, or not for more than half the
    /// heartbeat timeout), at most once per half timeout per host; the
    /// host points its heartbeats here. Run on activation, when no host
    /// has been heard yet, and after every sweep, this one rule covers a
    /// Master change, a lost announcement, a healed partition and a
    /// resumed EndPoint. A host that beats more often than every half
    /// timeout hears nothing.
    fn announce(&self, sim: &Sim) {
        let hosts: Vec<Addr> = {
            let mut guard = self.inner.borrow_mut();
            let m = &mut *guard;
            if !m.active {
                return;
            }
            let quiet = m.config.heartbeat_timeout / 2;
            let now = sim.now();
            m.promote(now);
            let since = |t: Option<SimTime>| t.map(|t| now.saturating_duration_since(t));
            let mut out = Vec::new();
            for ((unit, conf), cover) in m.units.iter().zip(m.cover.values()) {
                if cover.announce == conf.hosts.len() {
                    continue;
                }
                for (host, addr) in &conf.hosts {
                    let key = (*unit, *host);
                    if m.vouched(key, |c| c.announce) {
                        continue;
                    }
                    let silent = since(m.host_last(key, now)).is_none_or(|d| d > quiet);
                    let due = since(m.announced.get(&key).copied()).is_none_or(|d| d >= quiet);
                    if silent && due {
                        m.announced.insert(key, now);
                        out.push(addr.clone());
                    }
                }
            }
            out
        };
        let msg: Payload = Arc::new(ActiveMaster {
            addr: self.rpc.addr().clone(),
        });
        for addr in hosts {
            // At debug level: when announcements go out is what the
            // computed-beat oracle checks of the coverage rule.
            sim.trace(
                TraceLevel::Debug,
                "master",
                format!("{} announces itself to {addr}", self.rpc.addr()),
            );
            self.rpc
                .cast(sim, &addr, "ep.active_master", Arc::clone(&msg), 32);
        }
    }

    // ---- RPC handlers ---------------------------------------------------------

    fn install_handlers(&self) {
        let m = self.clone();
        self.rpc.serve_cast("master.heartbeat", move |sim, hb| {
            m.on_heartbeat(sim, hb.downcast_ref().expect("Heartbeat"));
        });
        let m = self.clone();
        self.rpc
            .serve("master.allocate", move |sim, req, responder| {
                let req: &AllocateReq = req.downcast_ref().expect("AllocateReq");
                m.on_allocate(sim, req.clone(), responder);
            });
        let m = self.clone();
        self.rpc.serve("master.lookup", move |sim, req, responder| {
            let req: &LookupReq = req.downcast_ref().expect("LookupReq");
            let resp: LookupResp = m.on_lookup(sim, req.name);
            sim.reqtracer().note_lookup_served(resp.is_ok());
            responder.reply(sim, Arc::new(resp), 128);
        });
        let m = self.clone();
        self.rpc
            .serve("master.release", move |sim, req, responder| {
                let req: &ReleaseReq = req.downcast_ref().expect("ReleaseReq");
                m.on_release(sim, req.name, responder);
            });
        let m = self.clone();
        self.rpc
            .serve("master.disk_power", move |sim, req, responder| {
                let req: &DiskPowerReq = req.downcast_ref().expect("DiskPowerReq");
                m.on_disk_power(sim, req.clone(), responder);
            });
    }

    /// Records a heartbeat into SysStat; a standby drops it.
    fn on_heartbeat(&self, sim: &Sim, hb: &Heartbeat) {
        self.settle(sim, Some(hb.unit));
        if !self.inner.borrow().active {
            return;
        }
        self.inner.borrow().heard.inc();
        if self.apply_beat(sim, hb, sim.now(), true) {
            self.soil(sim, hb.unit, None);
        }
    }

    /// What an active Master does with a beat that arrived at `at`:
    /// SysStat learns the host and its ready disks, and every persisted
    /// allocation on those disks not yet pushed to the host is exposed.
    /// The timestamps are written only if `stamp` (a live stream's are
    /// derived). Returns whether anything but the timestamps changed.
    fn apply_beat(&self, sim: &Sim, hb: &Heartbeat, at: SimTime, stamp: bool) -> bool {
        let (pushes, changed) = {
            let mut guard = self.inner.borrow_mut();
            let m = &mut *guard;
            let key = (hb.unit, hb.host);
            if stamp {
                record(&mut m.host_last_hb, key, at);
            }
            let was_alive = m.host_alive.insert(key, true);
            if was_alive == Some(false) {
                sim.trace(
                    TraceLevel::Info,
                    "master",
                    format!("{} {} is back", hb.unit, hb.host),
                );
            }
            let mut changed = was_alive != Some(true) || {
                let old = m.host_addr.insert(key, hb.addr.clone());
                let moved = old.as_ref() != Some(&hb.addr);
                if moved {
                    if let Some(a) = old.filter(|a| m.addr_host.get(a) == Some(&key)) {
                        m.addr_host.remove(&a);
                    }
                    m.addr_host.insert(hb.addr.clone(), key);
                }
                moved
            };
            let mut pushes = Vec::new();
            for d in hb.ready_disks.iter() {
                changed |= m.disk_host.insert((hb.unit, *d), hb.host) != Some(hb.host);
                if stamp {
                    record(&mut m.disk_last_seen, (hb.unit, *d), at);
                }
                // Ensure every allocation on this disk is exposed there.
                for (name, extent) in m.alloc.extents_on(hb.unit, *d) {
                    if m.pending_persist.contains(&name) {
                        continue;
                    }
                    if m.exposures_pushed.insert((name, hb.host)) {
                        pushes.push((
                            hb.addr.clone(),
                            ExposeReq {
                                name,
                                offset: extent.offset,
                                len: extent.len,
                            },
                        ));
                    }
                }
            }
            changed |= !pushes.is_empty();
            (pushes, changed)
        };
        let timeout = self.inner.borrow().config.rpc_timeout;
        for (addr, req) in pushes {
            self.trace_push(sim, req.name, &addr);
            self.rpc.call::<EndpointAck>(
                sim,
                &addr,
                "ep.expose",
                Arc::new(req),
                64,
                timeout,
                |_, _| {},
            );
        }
        changed
    }

    /// Records an exposure push, at debug level: when pushes happen is
    /// what the computed-beat oracle checks of the wake rule.
    fn trace_push(&self, sim: &Sim, name: SpaceName, to: &Addr) {
        sim.trace(
            TraceLevel::Debug,
            "master",
            format!("{} pushes {name} to {to}", self.rpc.addr()),
        );
    }

    /// Marks every stream of `unit` as no longer [clean](Beats::clean):
    /// each applies its next heard beat in full. Inside a settle, `after`
    /// is the beat just applied; a stream whose latest heard beat comes
    /// after it in the settle's order is returned instead, for the same
    /// settle to apply in full.
    fn soil(
        &self,
        sim: &Sim,
        unit: UnitId,
        after: Option<(SimTime, (UnitId, HostId))>,
    ) -> Vec<Due> {
        let now = sim.now();
        let mut guard = self.inner.borrow_mut();
        let m = &mut *guard;
        let (mut again, mut next) = (Vec::new(), Vec::new());
        for (key, st) in m.streams.range_mut(stream_keys(Some(unit))) {
            if !st.state.clean {
                continue;
            }
            st.state.clean = false;
            let latest = st.heard_by(now).map(|n| (st.arrival(n), n));
            match (latest, after) {
                (Some((at, n)), Some(cur)) if (at, *key) > cur => again.push(due(*key, st, n)),
                _ => next.push((*key, st.next_after(now).map(|n| st.arrival(n)))),
            }
        }
        if m.streams.hearing() {
            for (key, at) in next {
                m.set_due(key, at);
            }
        }
        again
    }

    /// A stream notice from an EndPoint (see [`ustore_net::stream`]).
    fn on_notice(&self, sim: &Sim, notice: Payload) {
        let now = sim.now();
        if let Some(open) = notice.downcast_ref::<Open<(UnitId, HostId), Heartbeat>>() {
            // The previous stream's beats have all arrived by now.
            self.settle(sim, Some(open.key.0));
            let beats = Beats {
                beat: open.payload.clone(),
                clean: false,
                due: None,
                covers: None,
            };
            let mut m = self.inner.borrow_mut();
            debug_assert!(!m.streams.contains_key(&open.key), "opened over a stream");
            m.streams.open(sim, open, beats);
            if m.streams.hearing() {
                m.hear(open.key);
                let first = open.clock.first;
                m.set_due(open.key, Some(open.clock.arrival(first, &open.flow)));
            }
        } else if let Some(end) = notice.downcast_ref::<End<(UnitId, HostId)>>() {
            self.settle(sim, Some(end.key.0));
            let key = end.key;
            let mut m = self.inner.borrow_mut();
            m.stop_cover(key);
            let Some(st) = m.streams.end(sim, end) else {
                return;
            };
            if st.next_after(now).is_some() {
                // Beat `last` is still to arrive, so it exists.
                if st.state.due.is_some_and(|t| t > st.arrival(end.last)) {
                    m.set_due(key, None);
                }
                return;
            }
            // Every beat arrived and was settled.
            m.remove_stream(sim, key);
        }
    }

    /// Starts or stops SysStat taking in the streams' arrivals (this
    /// process turned active or standby, or its node is going up or
    /// down), and counting them as heard. Stopping writes what was heard
    /// into the maps; starting hears each stream from its next arrival
    /// on.
    fn set_hearing(&self, sim: &Sim, on: bool) {
        let now = sim.now();
        let mut guard = self.inner.borrow_mut();
        let m = &mut *guard;
        if m.streams.hearing() == on {
            return;
        }
        let keys: Vec<(UnitId, HostId)> = m.streams.keys().copied().collect();
        for &key in keys.iter().filter(|_| !on) {
            m.record_heard(key, now);
            m.stop_cover(key);
            m.set_due(key, None);
        }
        m.streams.count_into(sim, on.then(|| m.heard.clone()));
        for &key in keys.iter().filter(|_| on) {
            m.hear(key);
        }
    }

    /// Brings the computed streams of `unit` (of every unit for `None`)
    /// up to now. While this process hears them, each stream that is not
    /// [clean](Beats::clean) and has a beat arrived since its last
    /// application has its latest beat applied in full, and each ended
    /// stream whose last beat arrived leaves with that beat applied in
    /// full, oldest first. Earlier beats of a stream said the same, and
    /// every SysStat change that could make a beat act differently
    /// settles before it and [wakes](Self::wake) the streams after it,
    /// so applying only the latest is what applying all of them would
    /// do. A clean stream's beats only move timestamps, which are
    /// derived from its clock when read, so a settle leaves it alone;
    /// the network counts its arrivals.
    fn settle(&self, sim: &Sim, unit: Option<UnitId>) {
        let now = sim.now();
        let mut batch = {
            let mut guard = self.inner.borrow_mut();
            let m = &mut *guard;
            let mut batch = Vec::new();
            for key in m.streams.ended(now, stream_keys(unit)) {
                let Some(st) = m.remove_stream(sim, key) else {
                    continue;
                };
                batch.extend(st.heard_by(now).map(|l| due(key, &st, l)));
            }
            let top = (now, UnitId(u32::MAX), HostId(u32::MAX));
            let woken: Vec<(UnitId, HostId)> = m
                .dirty
                .range(..=top)
                .map(|&(_, u, h)| (u, h))
                .filter(|(u, _)| unit.is_none_or(|x| x == *u))
                .collect();
            for key in woken {
                m.set_due(key, None);
                let st = &m.streams[&key];
                batch.extend(st.heard_by(now).map(|n| due(key, st, n)));
            }
            batch
        };
        batch.sort_by_key(|d| (d.at, d.key));
        let mut i = 0;
        while i < batch.len() {
            let (at, key) = (batch[i].at, batch[i].key);
            if self.apply_beat(sim, &batch[i].beat, at, false) {
                for d in self.soil(sim, key.0, Some((at, key))) {
                    let pos =
                        i + 1 + batch[i + 1..].partition_point(|x| (x.at, x.key) < (d.at, d.key));
                    batch.insert(pos, d);
                }
            }
            if let Some(st) = self.inner.borrow_mut().streams.get_mut(&key) {
                st.state.clean = true;
            }
            i += 1;
        }
    }

    /// Schedules a settle at the next beat arrival of every stream of
    /// `unit` (of every unit for `None`). Called after a SysStat change
    /// that the next beat may act on (a push, an "is back"), so the
    /// action runs when that beat arrives.
    fn wake(&self, sim: &Sim, unit: Option<UnitId>) {
        let mut guard = self.inner.borrow_mut();
        let m = &mut *guard;
        for (_, st) in m.streams.range_mut(stream_keys(unit)) {
            st.state.clean = false;
        }
        let this = self.clone();
        let due = m
            .streams
            .wake_all(sim, stream_keys(unit), move |sim| this.settle(sim, unit));
        if m.streams.hearing() {
            for (key, t) in due {
                m.set_due(key, Some(t));
            }
        }
    }

    fn on_allocate(&self, sim: &Sim, req: AllocateReq, responder: ustore_net::Responder) {
        self.settle(sim, None);
        let allocation = {
            let mut guard = self.inner.borrow_mut();
            let m = &mut *guard;
            if !m.active {
                responder.reply(
                    sim,
                    Arc::new(Err(MasterError::NotActive) as AllocateResp),
                    16,
                );
                return;
            }
            // Locality: map the client's hinted address to a host of a
            // unit.
            let preferred = req
                .near
                .as_ref()
                .and_then(|near| m.addr_host.get(near).copied());
            let disk_host = &m.disk_host;
            let attached_to = |key: &(UnitId, DiskId)| disk_host.get(key).copied();
            match m
                .alloc
                .allocate(&req.service, req.size, attached_to, preferred)
            {
                Ok(a) => a,
                Err(e) => {
                    drop(guard);
                    responder.reply(
                        sim,
                        Arc::new(Err(MasterError::Alloc(e)) as AllocateResp),
                        16,
                    );
                    return;
                }
            }
        };
        // Persist synchronously to the metadata store before replying
        // (§IV-A: "stored persistently in the Master synchronously") —
        // routed to the partition owning the space's unit.
        let part = self.router.partition_of_unit(allocation.name.unit);
        let znode = format!(
            "{}/{}",
            self.router.alloc_dir(part),
            encode_space(allocation.name)
        );
        let data = encode_extent(&allocation.extent);
        let this = self.clone();
        let name = allocation.name;
        let extent = allocation.extent.clone();
        self.inner.borrow_mut().pending_persist.insert(name);
        self.coord_for(part)
            .create(sim, znode, data, CreateMode::Persistent, move |sim, r| {
                this.settle(sim, Some(name.unit));
                this.inner.borrow_mut().pending_persist.remove(&name);
                if r.is_err() {
                    // Roll the allocation back; metadata must win.
                    let _ = this.inner.borrow_mut().alloc.release(name);
                    responder.reply(
                        sim,
                        Arc::new(Err(MasterError::MetadataUnavailable) as AllocateResp),
                        16,
                    );
                    return;
                }
                let info = this.space_info(name, &extent);
                // Proactively expose on the current host.
                if let Some(addr) = info.host_addr.clone() {
                    let timeout = this.inner.borrow().config.rpc_timeout;
                    let host = this.inner_disk_host(name);
                    this.inner
                        .borrow_mut()
                        .exposures_pushed
                        .insert((name, host));
                    this.trace_push(sim, name, &addr);
                    this.rpc.call::<EndpointAck>(
                        sim,
                        &addr,
                        "ep.expose",
                        Arc::new(ExposeReq {
                            name,
                            offset: extent.offset,
                            len: extent.len,
                        }),
                        64,
                        timeout,
                        |_, _| {},
                    );
                }
                // The next beat listing the disk from any other host
                // pushes the exposure there.
                this.wake(sim, Some(name.unit));
                responder.reply(sim, Arc::new(Ok(info) as AllocateResp), 128);
            });
    }

    fn inner_disk_host(&self, name: SpaceName) -> HostId {
        self.inner
            .borrow()
            .disk_host
            .get(&(name.unit, name.disk))
            .copied()
            .unwrap_or(HostId(u32::MAX))
    }

    fn space_info(&self, name: SpaceName, extent: &Extent) -> SpaceInfo {
        let m = self.inner.borrow();
        let host_addr = m
            .disk_host
            .get(&(name.unit, name.disk))
            .filter(|h| {
                m.host_alive
                    .get(&(name.unit, **h))
                    .copied()
                    .unwrap_or(false)
            })
            .and_then(|h| m.host_addr.get(&(name.unit, *h)).cloned());
        SpaceInfo {
            name,
            size: extent.len,
            host_addr,
            target: name.target_name(),
        }
    }

    fn on_lookup(&self, sim: &Sim, name: SpaceName) -> LookupResp {
        self.settle(sim, Some(name.unit));
        let m = self.inner.borrow();
        if !m.active {
            return Err(MasterError::NotActive);
        }
        let extent = m
            .alloc
            .lookup(name)
            .cloned()
            .ok_or(MasterError::NoSuchSpace)?;
        drop(m);
        Ok(self.space_info(name, &extent))
    }

    fn on_release(&self, sim: &Sim, name: SpaceName, responder: ustore_net::Responder) {
        self.settle(sim, Some(name.unit));
        {
            let mut m = self.inner.borrow_mut();
            if !m.active {
                responder.reply(
                    sim,
                    Arc::new(Err(MasterError::NotActive) as ReleaseResp),
                    16,
                );
                return;
            }
            if m.alloc.release(name).is_err() {
                responder.reply(
                    sim,
                    Arc::new(Err(MasterError::NoSuchSpace) as ReleaseResp),
                    16,
                );
                return;
            }
            m.exposures_pushed.retain(|(n, _)| *n != name);
        }
        // Withdraw the target and delete the metadata.
        let host = self.inner_disk_host(name);
        let addr = self
            .inner
            .borrow()
            .host_addr
            .get(&(name.unit, host))
            .cloned();
        let timeout = self.inner.borrow().config.rpc_timeout;
        if let Some(addr) = addr {
            self.rpc.call::<EndpointAck>(
                sim,
                &addr,
                "ep.unexpose",
                Arc::new(UnexposeReq { name }),
                32,
                timeout,
                |_, _| {},
            );
        }
        let part = self.router.partition_of_unit(name.unit);
        let znode = format!("{}/{}", self.router.alloc_dir(part), encode_space(name));
        self.coord_for(part)
            .delete(sim, znode, None, move |sim, r| {
                let resp: ReleaseResp = r.map_err(|_| MasterError::MetadataUnavailable);
                responder.reply(sim, Arc::new(resp), 16);
            });
    }

    fn on_disk_power(&self, sim: &Sim, req: DiskPowerReq, responder: ustore_net::Responder) {
        let reply = |sim: &Sim, r: Result<(), MasterError>| responder.reply(sim, Arc::new(r), 16);
        self.settle(sim, Some(req.unit));
        let target = {
            let m = self.inner.borrow();
            if !m.active {
                return reply(sim, Err(MasterError::NotActive));
            }
            m.disk_host
                .get(&(req.unit, req.disk))
                .and_then(|h| m.host_addr.get(&(req.unit, *h)).cloned())
        };
        let Some(addr) = target else {
            return reply(
                sim,
                Err(MasterError::Endpoint("disk not attached".to_owned())),
            );
        };
        let timeout = self.inner.borrow().config.rpc_timeout;
        self.rpc.call::<EndpointAck>(
            sim,
            &addr,
            "ep.disk_power",
            Arc::new(req),
            32,
            timeout,
            move |sim, r| {
                let r = match r {
                    Ok(a) => (*a).clone(),
                    Err(e) => Err(e.to_string()),
                };
                reply(sim, r.map_err(MasterError::Endpoint));
            },
        );
    }

    // ---- Failure detection and failover (§IV-E) --------------------------------

    fn arm_sweeper(&self, sim: &Sim) {
        let interval = self.inner.borrow().config.sweep_interval;
        let this = self.clone();
        sim.schedule_in(interval, move |sim| {
            this.sweep(sim);
            this.arm_sweeper(sim);
        });
    }

    fn sweep(&self, sim: &Sim) {
        self.settle(sim, None);
        let dead: Vec<(UnitId, HostId)> = {
            let mut m = self.inner.borrow_mut();
            if !m.active {
                return;
            }
            let timeout = m.config.heartbeat_timeout;
            let now = sim.now();
            let Some(activated_at) = m.activated_at else {
                return;
            };
            m.promote(now);
            // Sweep every configured host, not just those we have heard
            // from: a host that died before this master activated never
            // sends a heartbeat at all. A host a covering stream vouches
            // for was heard too recently to be selected.
            let mut newly_dead: Vec<(UnitId, HostId)> = Vec::new();
            for ((unit, conf), cover) in m.units.iter().zip(m.cover.values()) {
                if cover.dead == conf.hosts.len() {
                    continue;
                }
                for (host, _) in &conf.hosts {
                    let key = (*unit, *host);
                    if m.vouched(key, |c| c.dead)
                        || m.failover_in_progress.contains(&key)
                        || m.host_alive.get(&key) == Some(&false)
                    {
                        continue;
                    }
                    let last = m.host_last(key, now).unwrap_or(activated_at);
                    if now.saturating_duration_since(last) > timeout {
                        newly_dead.push(key);
                    }
                }
            }
            for k in &newly_dead {
                m.host_alive.insert(*k, false);
                m.failover_in_progress.insert(*k);
            }
            newly_dead
        };
        for (unit, host) in dead {
            // A beat from the host, should one still arrive, brings it back.
            self.wake(sim, Some(unit));
            sim.trace(
                TraceLevel::Warn,
                "master",
                format!("{unit} {host} missed heartbeats; starting failover"),
            );
            sim.count(&self.rpc.addr().to_string(), "master.failovers", 1);
            // Join the failover span opened at failure injection, or root a
            // fresh one (failures can arise without the harness's help).
            let root = failover_root(sim, unit, host).unwrap_or_else(|| {
                let id = sim.span_start("master", "failover");
                sim.span_attr(id, "victim", format!("{unit}/{host}"));
                id
            });
            // Detection ends the moment the host is declared dead.
            let det = open_child(sim, root, "failover.detection")
                .unwrap_or_else(|| sim.span_child(root, "master", "failover.detection"));
            sim.span_end(det);
            sim.span_child(root, "master", "failover.reconfiguration");
            self.failover(sim, unit, host);
        }
        self.sweep_missing_disks(sim);
        self.announce(sim);
    }

    /// §IV-E fabric-device failures: a disk that stops appearing in any
    /// live host's USB tree (its hub, switch or bridge died) gets its path
    /// switched away from the failed device; if no alternative path
    /// exists, the failure is reported for repair.
    fn sweep_missing_disks(&self, sim: &Sim) {
        let now = sim.now();
        let missing: Vec<(UnitId, DiskId, Vec<HostId>, Vec<Addr>)> = {
            let mut guard = self.inner.borrow_mut();
            let m = &mut *guard;
            if !m.active {
                return;
            }
            let Some(activated_at) = m.activated_at else {
                return;
            };
            let timeout = m.config.disk_timeout;
            let retry = m.config.disk_retry;
            m.promote(now);
            let mut out = Vec::new();
            // Read every unit's configuration in place: only a disk that
            // is actually missing takes a copy of its targets and
            // controllers. A disk a covering stream lists was seen too
            // recently to be selected.
            for ((&unit, conf), cover) in m.units.iter().zip(m.cover.values()) {
                if cover.disks == conf.disks.len() {
                    continue;
                }
                // Skip while a host failover is running in this unit.
                if m.failover_in_progress.iter().any(|(u, _)| *u == unit) {
                    continue;
                }
                let alive = |h: &HostId| m.host_alive.get(&(unit, *h)).copied().unwrap_or(false);
                if !conf.hosts.iter().any(|(h, _)| alive(h)) {
                    continue;
                }
                for (d, _) in &conf.disks {
                    let key = (unit, *d);
                    if m.disk_cover.get(&key).is_some_and(|n| *n > 0) {
                        continue;
                    }
                    // Only disks whose mapped host is alive: dead hosts are
                    // the host-failover path's job.
                    if let Some(h) = m.disk_host.get(&key) {
                        if m.host_alive.get(&(unit, *h)) != Some(&true) {
                            continue;
                        }
                    }
                    let last = m.disk_last(key, now).unwrap_or(activated_at);
                    if now.saturating_duration_since(last) <= timeout {
                        continue;
                    }
                    if let Some(t) = m.disk_recovery_attempted.get(&key) {
                        if now.saturating_duration_since(*t) < retry {
                            continue;
                        }
                    }
                    m.disk_recovery_attempted.insert(key, now);
                    let targets = conf
                        .hosts
                        .iter()
                        .map(|(h, _)| *h)
                        .filter(|h| alive(h))
                        .collect();
                    out.push((unit, *d, targets, conf.controllers.clone()));
                }
            }
            out
        };
        for (unit, d, targets, controllers) in missing {
            sim.trace(
                TraceLevel::Warn,
                "master",
                format!("{unit} {d} vanished from all USB trees; rerouting"),
            );
            self.reroute(sim, unit, vec![d], targets, controllers, false, |_, _| {});
        }
    }

    /// Plans and executes a path switch for one disk (§IV-E), choosing
    /// targets among the unit's live hosts *other than* the disk's current
    /// host when any exist — the entry point for proactive moves, e.g. the
    /// health watchdog escalating sustained degradation before the disk
    /// fails outright. `done` fires with `true` once the fabric
    /// reconfiguration completed and SysStat maps the disk to a new host
    /// (EndPoint re-export and client remounts follow asynchronously).
    pub fn recover_disk(
        &self,
        sim: &Sim,
        unit: UnitId,
        d: DiskId,
        done: impl FnOnce(&Sim, bool) + 'static,
    ) {
        self.settle(sim, Some(unit));
        let picked = {
            let mut m = self.inner.borrow_mut();
            if !m.active || !m.units.contains_key(&unit) {
                None
            } else {
                let conf = m.units[&unit].clone();
                let current = m.disk_host.get(&(unit, d)).copied();
                let live: Vec<HostId> = conf
                    .hosts
                    .iter()
                    .map(|(h, _)| *h)
                    .filter(|h| m.host_alive.get(&(unit, *h)).copied().unwrap_or(false))
                    .collect();
                let away: Vec<HostId> = live
                    .iter()
                    .copied()
                    .filter(|h| Some(*h) != current)
                    .collect();
                let targets = if away.is_empty() { live } else { away };
                if targets.is_empty() {
                    None
                } else {
                    m.disk_recovery_attempted.insert((unit, d), sim.now());
                    Some((targets, conf.controllers))
                }
            }
        };
        let Some((targets, controllers)) = picked else {
            sim.trace(
                TraceLevel::Error,
                "master",
                format!("{unit} {d}: no recovery target available"),
            );
            done(sim, false);
            return;
        };
        // A still-attached disk moves with its hub cohort: relocating it
        // turns switches its healthy hub-mates share.
        let done = move |sim: &Sim, r: Result<(), RerouteStep>| done(sim, r.is_ok());
        self.reroute(sim, unit, vec![d], targets, controllers, true, done);
    }

    /// The one plan→execute→commit disk move behind host
    /// [`failover`](Self::failover), the missing-disk
    /// [sweep](Self::sweep_missing_disks) and [`recover_disk`](Self::recover_disk):
    /// Algorithm 1 plans paths for `disks` onto `targets`, the Controller
    /// executes them, and SysStat commits the new mapping. `done` learns
    /// which step failed, if any.
    #[allow(clippy::too_many_arguments)]
    fn reroute(
        &self,
        sim: &Sim,
        unit: UnitId,
        disks: Vec<DiskId>,
        targets: Vec<HostId>,
        controllers: Vec<Addr>,
        pull_cohort: bool,
        done: impl FnOnce(&Sim, Result<(), RerouteStep>) + 'static,
    ) {
        let this = self.clone();
        let (rpc_timeout, exec_timeout) = {
            let m = self.inner.borrow();
            (m.config.rpc_timeout, m.config.execute_timeout)
        };
        let what = disks
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(",");
        // The primary Controller first, a backup only when it fails
        // (§IV-C: "Only when the primary fails will the Master send
        // commands to the backup Controller"). Plan and execute share the
        // hint, so the Controller that planned is asked to execute.
        let policy = |timeout| RetryPolicy {
            timeout,
            attempts: controllers.len() as u32,
            backoff: Duration::ZERO,
        };
        let (plan_policy, exec_policy) = (policy(rpc_timeout), policy(exec_timeout));
        let ctl = Replicas::new(self.rpc.clone(), controllers);
        ctl.clone().call::<PlanResp, PlanResp>(
            sim,
            "ctl.plan",
            Arc::new(PlanReq {
                disks,
                targets,
                pull_cohort,
            }),
            256,
            plan_policy,
            controller_reply("ctl.plan"),
            move |sim, plan| {
                let pairs = match plan {
                    Some(Ok(pairs)) => pairs,
                    Some(Err(why)) => {
                        // No alternative path: the paper "reports the
                        // failure to system administrator for future
                        // replacement or repair".
                        sim.trace(
                            TraceLevel::Error,
                            "master",
                            format!("{unit} {what} unrecoverable ({why}); needs repair"),
                        );
                        done(sim, Err(RerouteStep::Plan));
                        return;
                    }
                    None => {
                        done(sim, Err(RerouteStep::Plan));
                        return;
                    }
                };
                let pairs2 = pairs.clone();
                ctl.call::<ExecuteResp, ExecuteResp>(
                    sim,
                    "ctl.execute",
                    Arc::new(ExecuteReq { pairs }),
                    256,
                    exec_policy,
                    controller_reply("ctl.execute"),
                    move |sim, r| {
                        let (outcome, r) = match r {
                            Some(Ok(())) => {
                                this.settle(sim, Some(unit));
                                {
                                    let mut m = this.inner.borrow_mut();
                                    for (d, h) in &pairs2 {
                                        m.disk_host.insert((unit, *d), *h);
                                    }
                                    // Force re-pushing exposures to the new hosts.
                                    m.exposures_pushed
                                        .retain(|(n, _)| !pairs2.iter().any(|(d, _)| *d == n.disk));
                                }
                                this.wake(sim, Some(unit));
                                ("complete", Ok(()))
                            }
                            _ => ("failed", Err(RerouteStep::Execute)),
                        };
                        let msg = format!("reroute of {unit} {what} {outcome}");
                        sim.trace(TraceLevel::Info, "master", msg);
                        done(sim, r);
                    },
                );
            },
        );
    }

    fn failover(&self, sim: &Sim, unit: UnitId, dead: HostId) {
        self.settle(sim, Some(unit));
        let (disks, targets, controllers) = {
            let m = self.inner.borrow();
            // The dead host's disks: mapped to it in SysStat, or not
            // claimed by any host at all (a fresh master may never have
            // seen the dead host's heartbeats).
            let conf = &m.units[&unit];
            let disks: Vec<DiskId> = conf
                .disks
                .iter()
                .map(|(d, _)| *d)
                .filter(|d| m.disk_host.get(&(unit, *d)).is_none_or(|h| *h == dead))
                .collect();
            let targets: Vec<HostId> = conf
                .hosts
                .iter()
                .map(|(h, _)| *h)
                .filter(|h| *h != dead && m.host_alive.get(&(unit, *h)).copied().unwrap_or(false))
                .collect();
            (disks, targets, conf.controllers.clone())
        };
        if disks.is_empty() || targets.is_empty() {
            self.inner
                .borrow_mut()
                .failover_in_progress
                .remove(&(unit, dead));
            return;
        }
        let this = self.clone();
        let done = move |sim: &Sim, r: Result<(), RerouteStep>| {
            this.inner
                .borrow_mut()
                .failover_in_progress
                .remove(&(unit, dead));
            let (counter, outcome) = match r {
                Ok(()) => {
                    // Reconfiguration done; the remount phase runs until
                    // clients read again (the harness or the experiment
                    // closes it).
                    if let Some(root) = failover_root(sim, unit, dead) {
                        if let Some(rec) = open_child(sim, root, "failover.reconfiguration") {
                            sim.span_end(rec);
                        }
                        sim.span_child(root, "master", "failover.remount");
                    }
                    ("master.failovers_completed", "complete")
                }
                Err(RerouteStep::Plan) => {
                    sim.trace(TraceLevel::Error, "master", "failover planning failed");
                    close_failover_spans(sim, unit, dead, "planning_failed");
                    return;
                }
                Err(RerouteStep::Execute) => {
                    close_failover_spans(sim, unit, dead, "execute_failed");
                    ("master.failovers_failed", "FAILED")
                }
            };
            sim.count(&this.rpc.addr().to_string(), counter, 1);
            let msg = format!("failover of {unit} {dead} {outcome}");
            sim.trace(TraceLevel::Info, "master", msg);
        };
        self.reroute(sim, unit, disks, targets, controllers, false, done);
    }
}

/// Judges a Controller's reply: any answer is final (a refused plan
/// included); no answer moves on to the next Controller.
fn controller_reply<R: Clone>(
    method: &'static str,
) -> impl FnMut(&Sim, Result<Arc<R>, RpcError>) -> Verdict<R> {
    move |sim, r| match r {
        Ok(resp) => Verdict::Done(Arc::unwrap_or_clone(resp)),
        Err(_) => {
            sim.trace(
                TraceLevel::Warn,
                "master",
                format!("{method}: controller unreachable"),
            );
            Verdict::Next
        }
    }
}

/// The open `failover` span tree of `unit`/`dead`, if any.
fn failover_root(sim: &Sim, unit: UnitId, dead: HostId) -> Option<SpanId> {
    sim.with_spans(|t| t.find_open_by("failover", "victim", &format!("{unit}/{dead}")))
}

/// The open child of `root` named `name`, if any.
fn open_child(sim: &Sim, root: SpanId, name: &str) -> Option<SpanId> {
    sim.with_spans(|t| {
        t.children(root)
            .find(|s| &*s.name == name && s.is_open())
            .map(|s| s.id)
    })
}

/// Closes the failover span tree for `unit`/`dead` after an unsuccessful
/// outcome: any open phase child is ended, the root gets an `error`
/// attribute and is ended too.
fn close_failover_spans(sim: &Sim, unit: UnitId, dead: HostId, error: &str) {
    let Some(root) = failover_root(sim, unit, dead) else {
        return;
    };
    let open_children: Vec<SpanId> = sim.with_spans(|t| {
        t.children(root)
            .filter(|s| s.is_open())
            .map(|s| s.id)
            .collect()
    });
    for c in open_children {
        sim.span_end(c);
    }
    sim.span_attr(root, "error", error);
    sim.span_end(root);
}

/// Creates `paths[idx..]` in order (parents first) on `coord`, then fires
/// `then`. Already-existing nodes are fine: create errors are ignored,
/// exactly like the pre-partition bootstrap chain.
fn create_chain(
    sim: &Sim,
    coord: CoordClient,
    paths: Vec<String>,
    idx: usize,
    then: Box<dyn FnOnce(&Sim)>,
) {
    if idx >= paths.len() {
        then(sim);
        return;
    }
    let path = paths[idx].clone();
    let coord2 = coord.clone();
    coord.create(
        sim,
        path,
        Vec::new(),
        CreateMode::Persistent,
        move |sim, _| {
            create_chain(sim, coord2, paths, idx + 1, then);
        },
    );
}

/// Encodes a space name as a single znode name (slashes become dots).
fn encode_space(name: SpaceName) -> String {
    format!("{}.{}.{}", name.unit.0, name.disk.0, name.space)
}

fn decode_space(s: &str) -> Option<SpaceName> {
    let mut it = s.split('.');
    let unit = it.next()?.parse().ok()?;
    let disk = it.next()?.parse().ok()?;
    let space = it.next()?.parse().ok()?;
    it.next()
        .is_none()
        .then(|| SpaceName::new(UnitId(unit), DiskId(disk), space))
}

fn encode_extent(e: &Extent) -> Vec<u8> {
    format!("{},{},{}", e.offset, e.len, e.service).into_bytes()
}

fn decode_extent(data: &[u8]) -> Option<Extent> {
    let s = std::str::from_utf8(data).ok()?;
    let mut it = s.splitn(3, ',');
    let offset = it.next()?.parse().ok()?;
    let len = it.next()?.parse().ok()?;
    let service = it.next()?.to_owned();
    Some(Extent {
        offset,
        len,
        service,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_encoding_roundtrip() {
        let n = SpaceName::new(UnitId(2), DiskId(7), 11);
        assert_eq!(encode_space(n), "2.7.11");
        assert_eq!(decode_space("2.7.11"), Some(n));
        assert_eq!(decode_space("2.7"), None);
        assert_eq!(decode_space("a.b.c"), None);
    }

    #[test]
    fn extent_encoding_roundtrip() {
        let e = Extent {
            offset: 5,
            len: 10,
            service: "svc,with,commas".into(),
        };
        let enc = encode_extent(&e);
        assert_eq!(decode_extent(&enc), Some(e));
        assert_eq!(decode_extent(b"bogus"), None);
    }
}
