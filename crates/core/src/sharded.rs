//! Sharded pod: one UStore deployment split across a fixed set of
//! simulation worlds, executed by [`ShardCoordinator`] on 1..N threads.
//!
//! The decomposition follows the paper's structure (§III): deploy units
//! are mostly independent — their only cross-unit coupling is
//! control-plane RPC over the data-center network — so the pod is split
//! into one *control world* (coordination cluster, Masters, clients) and
//! `groups` *unit-group worlds* (each a contiguous block of deploy units
//! with their USB fabrics, disks, EndPoints and Controllers). The
//! network's `base_latency` is the PDES lookahead bound.
//!
//! Crucially the world decomposition is fixed by the scenario, **not** by
//! the shard count: `--shards N` only chooses how many OS threads execute
//! the same worlds. Each world consumes its own RNG stream and owns its
//! own telemetry registries, so per-world exports — and any digest
//! combined over them in world-id order — are bit-identical for every
//! shard count.

use std::cell::RefCell;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_consensus::{group_addrs, CoordGroup, CoordServer};
use ustore_fabric::Topology;
use ustore_net::{Addr, Envelope, Network};
use ustore_sim::{
    FastMap, LookaheadMatrix, ProfSnapshot, Profiler, RequestTracer, Routed, Scraper,
    ScraperConfig, ShardCoordinator, ShardWorld, Sim, SimTime, TraceLevel, TraceSnapshot,
    TrafficMatrix, TrafficSnapshot, WorldBuilder,
};

use crate::clientlib::UStoreClient;
use crate::ids::UnitId;
use crate::master::Master;
use crate::meta::MetaRouter;
use crate::system::{
    client, coord_addrs, coord_servers, finalize_world, master_addr, masters, network,
    partition_groups, start_pipeline, unit_hardware, unit_host_addr, SystemConfig, UnitHardware,
};

/// When (and how) each world starts its telemetry pipeline. Scheduled at
/// an absolute instant so every world samples on the same clock.
#[derive(Debug, Clone)]
pub struct TelemetryPlan {
    /// Absolute instant the publisher + scraper start.
    pub start: SimTime,
    /// Scraper parameters (each world runs its own scraper).
    pub scraper: ScraperConfig,
}

/// Request-lifecycle tracing parameters (see `ustore_sim::reqtrace`).
#[derive(Debug, Clone)]
pub struct TracePlan {
    /// Keep one full per-stage trace every this many completions.
    pub sample_every: u64,
    /// Always retain this many slowest-request exemplars.
    pub exemplars: usize,
}

impl Default for TracePlan {
    fn default() -> Self {
        TracePlan {
            sample_every: ustore_sim::reqtrace::DEFAULT_SAMPLE_EVERY,
            exemplars: ustore_sim::reqtrace::DEFAULT_EXEMPLARS,
        }
    }
}

/// Shape of a sharded pod.
#[derive(Debug, Clone)]
pub struct ShardedPodConfig {
    /// The deployment shape (units, hosts, disks, control plane).
    pub system: SystemConfig,
    /// Number of unit-group worlds. Fixed per scenario: changing it
    /// changes the decomposition and therefore the telemetry digests;
    /// changing `shards` does not.
    pub groups: u32,
    /// Executor threads (1 = fully sequential on the calling thread).
    pub shards: usize,
    /// Client names to create in the control world (they must be known at
    /// build time so the placement map covers them).
    pub clients: Vec<String>,
    /// Telemetry pipeline start, if any.
    pub telemetry: Option<TelemetryPlan>,
    /// Minimum trace level recorded by every world.
    pub trace_level: TraceLevel,
    /// Wall-clock engine profiling: when true the pod carries an active
    /// [`Profiler`] (phase timers on every engine thread) and a
    /// [`TrafficMatrix`] (cross-world send accounting in every world's
    /// network). Off by default; never affects simulation state or
    /// telemetry digests.
    pub profile: bool,
    /// Request-lifecycle tracing: when `Some` every world carries the
    /// same active [`RequestTracer`] and each client IO accumulates typed
    /// stage intervals (queue, lookup, network, spin-up, seek, transfer,
    /// retry). Off by default; never affects simulation state or
    /// telemetry digests.
    pub trace: Option<TracePlan>,
}

/// Telemetry and engine statistics of one finalized world.
#[derive(Debug, Clone)]
pub struct WorldTelemetry {
    /// World id (0 = control world).
    pub world: usize,
    /// Metrics registry snapshot as stable JSON.
    pub metrics_json: String,
    /// Span log as stable JSON.
    pub spans_json: String,
    /// Scraped time-series CSV (empty without a [`TelemetryPlan`]).
    pub scrape_csv: String,
    /// Events this world's engine processed.
    pub events: u64,
    /// Peak live event-queue depth of this world's engine.
    pub peak_queue_depth: f64,
    /// Replicated-log lengths of the metadata partitions hosted by this
    /// world, as `(partition, applied length)` pairs (partition 0 = the
    /// base cluster). Empty for worlds hosting no coordination replicas.
    pub partition_logs: Vec<(u32, u64)>,
}

/// One world of the sharded pod.
struct PodWorld {
    id: usize,
    sim: Sim,
    net: Network,
    hw: UnitHardware,
    coord: Vec<CoordServer>,
    coord_groups: Vec<CoordGroup>,
    masters: Vec<Master>,
    clients: Vec<UStoreClient>,
    scraper: Rc<RefCell<Option<Scraper>>>,
}

impl ShardWorld for PodWorld {
    type Msg = Envelope;

    fn sim(&self) -> &Sim {
        &self.sim
    }

    fn drain_outbox_into(&mut self, out: &mut Vec<Routed<Envelope>>) {
        self.net.drain_outbox_into(out);
    }

    fn deliver(&mut self, batch: &mut Vec<Routed<Envelope>>) {
        for r in batch.drain(..) {
            debug_assert_eq!(r.dst_world, self.id, "misrouted envelope");
            self.net.deliver_remote(&self.sim, r);
        }
    }

    fn finalize(self: Box<Self>) -> Box<dyn std::any::Any + Send> {
        Box::new(finalize_world(
            self.id,
            &self.sim,
            &self.hw.runtimes,
            &self.coord,
            &self.coord_groups,
            self.scraper.borrow().as_ref(),
        ))
    }
}

/// Derives a world's root seed from the run seed: every world gets an
/// independent, deterministic RNG stream regardless of shard count.
fn world_seed(root: u64, world: usize) -> u64 {
    let mut z = root
        ^ (world as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Units per unit-group world.
fn units_per_group(units: u32, groups: u32) -> u32 {
    units.div_ceil(groups)
}

/// The deploy units unit-group world `w` hosts (none for world 0).
fn world_units(w: usize, units: u32, groups: u32) -> Range<u32> {
    if w == 0 {
        return 0..0;
    }
    let per = units_per_group(units, groups);
    (w as u32 - 1) * per..(w as u32 * per).min(units)
}

/// The world a unit's hosts are placed in (shard-placement rule:
/// contiguous unit blocks, world 0 reserved for the control plane).
pub fn world_of_unit(unit: u32, units: u32, groups: u32) -> usize {
    1 + (unit / units_per_group(units, groups)) as usize
}

/// The world metadata partition `partition`'s replica group is placed in:
/// the unit-group world owning every unit of the partition when the
/// partition map aligns with the world decomposition (metadata co-located
/// with the data it describes), else the control world. Partition 0 — the
/// base cluster — always lives in the control world.
pub fn partition_world(partition: u32, partitions: u32, units: u32, groups: u32) -> usize {
    if partition == 0 {
        return 0;
    }
    let per = units.max(1).div_ceil(partitions.max(1)).max(1);
    let lo = partition * per;
    let hi = ((partition + 1) * per).min(units);
    if lo >= hi {
        return 0; // partition owns no units; keep it with the control plane
    }
    let w = world_of_unit(lo, units, groups);
    if (lo..hi).all(|u| world_of_unit(u, units, groups) == w) {
        w
    } else {
        0
    }
}

/// Builds the static address → world placement map shared by all worlds.
fn build_placement(cfg: &ShardedPodConfig) -> Arc<FastMap<Addr, usize>> {
    let sys = &cfg.system;
    let mut placement: FastMap<Addr, usize> = FastMap::default();
    // Metadata partitions: each partition's replica group lives in the
    // unit-group world owning its units (or world 0 when the maps don't
    // align); the masters and their per-partition client sockets stay in
    // world 0.
    let coord_addrs = coord_addrs(sys);
    let partitions = sys.master.partitions.max(1);
    for k in 0..partitions {
        let world = partition_world(k, partitions, sys.units, cfg.groups);
        for a in group_addrs(&coord_addrs, k) {
            placement.insert(a, world);
        }
        for m in 0..sys.masters {
            placement.insert(MetaRouter::coord_socket(&master_addr(m), k), 0);
        }
    }
    for m in 0..sys.masters {
        placement.insert(master_addr(m), 0);
    }
    for name in &cfg.clients {
        placement.insert(Addr::new(name.as_str()), 0);
    }
    let (topology, _) = Topology::upper_switched(sys.hosts, sys.disks, sys.fanin);
    let host_ids: Vec<_> = topology.hosts().collect();
    for u in 0..sys.units {
        let world = world_of_unit(u, sys.units, cfg.groups);
        for &h in &host_ids {
            placement.insert(unit_host_addr(UnitId(u), h), world);
        }
    }
    Arc::new(placement)
}

/// Everything one world is built from. `Send`, so a worker thread can
/// build the worlds it executes.
#[derive(Clone)]
struct WorldSpec {
    id: usize,
    seed: u64,
    cfg: ShardedPodConfig,
    /// The deploy units this world hosts (empty for the control world).
    units: Range<u32>,
    placement: Arc<FastMap<Addr, usize>>,
    lookahead: Arc<LookaheadMatrix>,
    traffic: Option<Arc<TrafficMatrix>>,
    tracer: RequestTracer,
}

impl WorldSpec {
    /// Builds the world: the control world (0) gets the coordination
    /// cluster, the Masters and the clients; every world gets the
    /// metadata-partition replica groups placed in it, its units'
    /// hardware, and its own telemetry pipeline.
    fn build(self) -> PodWorld {
        let sys = &self.cfg.system;
        let id = self.id;
        let sim = Sim::new(world_seed(self.seed, id));
        sim.with_trace(|t| t.set_min_level(self.cfg.trace_level));
        sim.set_reqtracer(self.tracer);
        let net = network(&sim, sys);
        net.enable_shard_routing(id, self.placement, self.lookahead);
        if let Some(m) = self.traffic {
            net.set_traffic_matrix(m);
        }
        let control = id == 0;
        let coord = if control {
            coord_servers(&sim, &net, sys)
        } else {
            Vec::new()
        };
        let partitions = sys.master.partitions.max(1);
        let coord_groups = partition_groups(&sim, &net, sys, |k| {
            partition_world(k, partitions, sys.units, self.cfg.groups) == id
        });
        let (masters, clients) = if control {
            let masters = masters(&sim, &net, sys);
            let clients = self.cfg.clients.iter().map(|n| client(&net, sys, n));
            (masters, clients.collect())
        } else {
            (Vec::new(), Vec::new())
        };
        let hw = unit_hardware(&sim, &net, sys, self.units);
        let scraper: Rc<RefCell<Option<Scraper>>> = Rc::new(RefCell::new(None));
        if let Some(plan) = self.cfg.telemetry.clone() {
            let (net, runtimes, slot) = (net.clone(), hw.runtimes.clone(), scraper.clone());
            sim.schedule_at(plan.start, move |sim| {
                *slot.borrow_mut() = Some(start_pipeline(sim, &net, runtimes, plan.scraper));
            });
        }
        PodWorld {
            id,
            sim,
            net,
            hw,
            coord,
            coord_groups,
            masters,
            clients,
            scraper,
        }
    }
}

/// A sharded UStore pod: the coordinator plus control-world handles the
/// driver can interact with between epochs (clients, masters).
pub struct ShardedPod {
    coordinator: ShardCoordinator<Envelope>,
    /// The control world's engine (the driver's clock: issue client calls
    /// against this, then [`ShardedPod::run_for`] to execute them).
    pub sim: Sim,
    /// The control world's network.
    pub net: Network,
    /// Master processes (control world).
    pub masters: Vec<Master>,
    /// Clients created at build time, in `cfg.clients` order.
    pub clients: Vec<UStoreClient>,
    profiler: Profiler,
    traffic: Option<Arc<TrafficMatrix>>,
    tracer: RequestTracer,
}

impl fmt::Debug for ShardedPod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedPod")
            .field("now", &self.coordinator.now())
            .field("epochs", &self.coordinator.epochs())
            .finish()
    }
}

impl ShardedPod {
    /// Builds the pod: the control world and any unit-group worlds that
    /// land on shard 0 are constructed on the calling thread; the rest
    /// are constructed on their worker threads (round-robin assignment of
    /// unit-group worlds over shards).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate shape (`groups` 0 or > units, `shards` 0)
    /// or a zero network base latency (no lookahead bound).
    pub fn build(seed: u64, cfg: &ShardedPodConfig) -> ShardedPod {
        let sys = &cfg.system;
        assert!(sys.units >= 1, "need at least one deploy unit");
        assert!(
            cfg.groups >= 1 && cfg.groups <= sys.units,
            "groups must be in 1..=units"
        );
        assert!(cfg.shards >= 1, "need at least one shard");
        let lookahead = sys.net.base_latency;
        assert!(
            lookahead > Duration::ZERO,
            "sharded execution needs a positive network base latency as lookahead"
        );

        let world_count = 1 + cfg.groups as usize;
        let profiler = if cfg.profile {
            Profiler::on(world_count)
        } else {
            Profiler::off()
        };
        let traffic = cfg
            .profile
            .then(|| Arc::new(TrafficMatrix::new(world_count)));
        let tracer = match &cfg.trace {
            Some(plan) => RequestTracer::on(plan.sample_every, plan.exemplars),
            None => RequestTracer::off(),
        };

        let placement = build_placement(cfg);
        // The pod's cross-world traffic is control-plane RPC only: unit
        // worlds talk to the Masters/coordination/clients in world 0 and
        // never to each other (clients reach EndPoints via world 0 as
        // well). The lookahead matrix encodes exactly that star, so the
        // adaptive scheduler never lets one unit world's horizon
        // constrain a sibling's. With a partitioned Master the partition
        // map is fed in as well: unit worlds sharing a metadata partition
        // get direct (non-star) edges, declaring the coupling their
        // shared replicated log implies. Reachability is a capability,
        // not a schedule — a partition map that adds no such pairs (e.g.
        // one partition per world) leaves the star untouched.
        let partitions = sys.master.partitions.max(1);
        let units = sys.units;
        let groups = cfg.groups;
        let partition_of_world = move |w: usize| -> Option<u32> {
            if w == 0 || partitions == 1 {
                return None;
            }
            let mut own = world_units(w, units, groups);
            let router = MetaRouter::new(partitions, units);
            let p = router.partition_of_unit(UnitId(own.start));
            own.all(|u| router.partition_of_unit(UnitId(u)) == p)
                .then_some(p)
        };
        let matrix = Arc::new(LookaheadMatrix::from_reachability(
            world_count,
            lookahead,
            |src, dst| {
                if src == 0 || dst == 0 {
                    return true;
                }
                matches!(
                    (partition_of_world(src), partition_of_world(dst)),
                    (Some(a), Some(b)) if a == b
                )
            },
        ));
        let spec = |id: usize| WorldSpec {
            id,
            seed,
            cfg: cfg.clone(),
            units: world_units(id, sys.units, cfg.groups),
            placement: placement.clone(),
            lookahead: matrix.clone(),
            traffic: traffic.clone(),
            tracer: tracer.clone(),
        };
        let control = spec(0).build();
        let sim = control.sim.clone();
        let net = control.net.clone();
        let masters = control.masters.clone();
        let clients = control.clients.clone();

        // Unit-group worlds are assigned to shards round-robin; those on
        // shard 0 are built here, the rest on their worker threads.
        let mut local: Vec<(usize, Box<dyn ShardWorld<Msg = Envelope>>)> =
            vec![(0, Box::new(control))];
        let mut remote: Vec<Vec<(usize, WorldBuilder<Envelope>)>> =
            (1..cfg.shards).map(|_| Vec::new()).collect();
        for g in 0..cfg.groups as usize {
            let spec = spec(1 + g);
            match g % cfg.shards {
                0 => local.push((spec.id, Box::new(spec.build()))),
                shard => remote[shard - 1].push((
                    spec.id,
                    Box::new(move || Box::new(spec.build()) as Box<dyn ShardWorld<Msg = Envelope>>)
                        as WorldBuilder<Envelope>,
                )),
            }
        }

        let coordinator = ShardCoordinator::new(&matrix, local, remote, profiler.clone());
        ShardedPod {
            coordinator,
            sim,
            net,
            masters,
            clients,
            profiler,
            traffic,
            tracer,
        }
    }

    /// The merged clock (barrier reached so far).
    pub fn now(&self) -> SimTime {
        self.coordinator.now()
    }

    /// Runs every world to `deadline` through adaptive epoch windows.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.coordinator.run_until(deadline);
    }

    /// Runs for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        self.coordinator.run_for(d);
    }

    /// Epoch windows executed so far.
    pub fn epochs(&self) -> u64 {
        self.coordinator.epochs()
    }

    /// Inner synchronization rounds executed so far (several per window;
    /// see [`ShardCoordinator::sync_rounds`]).
    pub fn sync_rounds(&self) -> u64 {
        self.coordinator.sync_rounds()
    }

    /// Cross-world messages exchanged so far.
    pub fn cross_messages(&self) -> u64 {
        self.coordinator.cross_messages()
    }

    /// The currently active master, if any.
    pub fn active_master(&self) -> Option<&Master> {
        self.masters.iter().find(|m| m.is_active())
    }

    /// Wall-clock profiler snapshot (phase slabs, epoch statistics,
    /// thread tracks). `None` unless built with `profile: true`. Take it
    /// after the last `run_until` so no worker is mid-epoch.
    pub fn prof_snapshot(&self) -> Option<ProfSnapshot> {
        self.profiler.snapshot()
    }

    /// Cross-world traffic matrix snapshot. `None` unless built with
    /// `profile: true`.
    pub fn traffic_snapshot(&self) -> Option<TrafficSnapshot> {
        self.traffic.as_ref().map(|m| m.snapshot())
    }

    /// Request-lifecycle trace snapshot (per-stage TTFB attribution,
    /// sampled traces, slowest exemplars). `None` unless built with
    /// `trace: Some(..)`. Take it after the last `run_until` so no request
    /// is mid-flight on a worker.
    pub fn trace_snapshot(&self) -> Option<TraceSnapshot> {
        self.tracer.snapshot()
    }

    /// Finalizes every world and returns their telemetry in world-id
    /// order.
    pub fn finalize(self) -> Vec<WorldTelemetry> {
        self.coordinator
            .finalize()
            .into_iter()
            .map(|(id, t)| {
                let t = t
                    .downcast::<WorldTelemetry>()
                    .expect("pod world returns WorldTelemetry");
                debug_assert_eq!(t.world, id);
                *t
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::coord_addr;
    use std::cell::Cell;
    use ustore_net::BlockDevice;
    use ustore_sim::Phase;

    fn pod_cfg(units: u32, groups: u32, shards: usize, clients: u32) -> ShardedPodConfig {
        ShardedPodConfig {
            system: SystemConfig {
                units,
                ..SystemConfig::default()
            },
            groups,
            shards,
            clients: (0..clients).map(|c| format!("app-{c}")).collect(),
            telemetry: None,
            trace_level: TraceLevel::Warn,
            profile: false,
            trace: None,
        }
    }

    /// Allocates and mounts a space through the pod's first client, then
    /// writes `payload` and reads it back.
    fn round_trip(pod: &mut ShardedPod, payload: &'static [u8]) {
        let client = pod.clients[0].clone();
        let info = Rc::new(RefCell::new(None));
        let i2 = info.clone();
        client.allocate(&pod.sim, "svc", 1 << 30, move |_, r| {
            *i2.borrow_mut() = Some(r.expect("allocate"));
        });
        pod.run_for(Duration::from_secs(10));
        let info = info.borrow_mut().take().expect("allocation served");

        let mounted = Rc::new(RefCell::new(None));
        let m2 = mounted.clone();
        client.mount(&pod.sim, info.name, move |_, r| {
            *m2.borrow_mut() = Some(r.expect("mount"));
        });
        pod.run_for(Duration::from_secs(15));
        let mounted = mounted.borrow_mut().take().expect("mount served");

        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        let m3 = mounted.clone();
        mounted.write(
            &pod.sim,
            4096,
            payload.to_vec(),
            Box::new(move |sim, r| {
                r.expect("write");
                m3.read(
                    sim,
                    4096,
                    payload.len() as u64,
                    Box::new(move |_, r| {
                        assert_eq!(r.expect("read"), payload.to_vec());
                        o.set(true);
                    }),
                );
            }),
        );
        pod.run_for(Duration::from_secs(10));
        assert!(ok.get(), "cross-world IO round trip completed");
    }

    #[test]
    fn sharded_pod_brings_up_and_serves_cross_world_io() {
        let mut pod = ShardedPod::build(2001, &pod_cfg(4, 2, 2, 1));
        pod.run_until(SimTime::from_secs(15));
        assert!(pod.active_master().is_some(), "master elected");
        assert!(pod.cross_messages() > 0, "heartbeats crossed worlds");

        // Every hop (client → master → controller/endpoint → disk)
        // crosses worlds.
        round_trip(&mut pod, b"cold bits");
    }

    #[test]
    fn world_telemetry_identical_across_shard_counts() {
        let run = |shards: usize| -> Vec<WorldTelemetry> {
            let mut pod = ShardedPod::build(2002, &pod_cfg(4, 4, shards, 2));
            pod.run_until(SimTime::from_secs(15));
            assert!(pod.active_master().is_some());
            pod.run_for(Duration::from_secs(5));
            pod.finalize()
        };
        let one = run(1);
        assert_eq!(one.len(), 5, "control world + 4 unit worlds");
        for shards in [2, 4] {
            let n = run(shards);
            for (a, b) in one.iter().zip(&n) {
                assert_eq!(a.world, b.world);
                assert_eq!(a.events, b.events, "world {} events differ", a.world);
                assert_eq!(
                    a.metrics_json, b.metrics_json,
                    "world {} metrics differ (shards={shards})",
                    a.world
                );
                assert_eq!(
                    a.spans_json, b.spans_json,
                    "world {} spans differ (shards={shards})",
                    a.world
                );
            }
        }
    }

    #[test]
    fn profiled_pod_reports_phases_and_traffic() {
        let mut cfg = pod_cfg(4, 2, 2, 1);
        cfg.profile = true;
        let mut pod = ShardedPod::build(2003, &cfg);
        pod.run_until(SimTime::from_secs(15));
        assert!(pod.cross_messages() > 0);
        let prof = pod.prof_snapshot().expect("profiled build snapshots");
        assert_eq!(prof.worlds.len(), 3, "control + 2 unit worlds");
        assert_eq!(prof.epochs, pod.epochs());
        assert!(prof.lookahead_ns > 0);
        for w in &prof.worlds {
            assert!(
                w.phase_ns[Phase::Execute as usize] > 0,
                "world {} never executed",
                w.world
            );
            assert!(w.epochs > 0);
        }
        // Worker thread + coordinator each own a track.
        assert_eq!(prof.tracks.len(), 2);
        let traffic = pod.traffic_snapshot().expect("traffic matrix attached");
        assert_eq!(traffic.total_messages(), pod.cross_messages());
        assert!(traffic.busiest().is_some());
        // An unprofiled pod reports neither.
        let mut plain = ShardedPod::build(2003, &pod_cfg(4, 2, 2, 1));
        plain.run_until(SimTime::from_secs(1));
        assert!(plain.prof_snapshot().is_none());
        assert!(plain.traffic_snapshot().is_none());
    }

    #[test]
    fn traced_pod_attributes_request_stages() {
        let mut cfg = pod_cfg(4, 2, 2, 1);
        cfg.trace = Some(TracePlan {
            sample_every: 1,
            exemplars: 4,
        });
        let mut pod = ShardedPod::build(2004, &cfg);
        pod.run_until(SimTime::from_secs(15));
        assert!(pod.active_master().is_some(), "master elected");
        round_trip(&mut pod, b"trace me");
        let snap = pod.trace_snapshot().expect("traced build snapshots");
        assert!(snap.seen >= 2, "write + read completed under trace");
        assert_eq!(snap.live_at_end, 0, "no request left mid-flight");
        let worst = snap.worst().expect("exemplar retained");
        assert!(worst.ttfb_ns > 0);
        assert!(
            worst.attributed_ns > 0,
            "stage attribution covers the worst request"
        );
        // Every completed request crossed the network at least twice.
        for k in &snap.kinds {
            if k.completed > 0 {
                assert!(
                    k.stages[ustore_sim::reqtrace::Stage::NetTransit as usize].sum() > 0,
                    "net transit attributed for {:?}",
                    k.kind
                );
            }
        }
        // An untraced pod reports nothing.
        let mut plain = ShardedPod::build(2004, &pod_cfg(4, 2, 2, 1));
        plain.run_until(SimTime::from_secs(1));
        assert!(plain.trace_snapshot().is_none());
    }

    #[test]
    fn placement_rules() {
        let cfg = pod_cfg(8, 4, 2, 1);
        assert_eq!(world_of_unit(0, 8, 4), 1);
        assert_eq!(world_of_unit(1, 8, 4), 1);
        assert_eq!(world_of_unit(2, 8, 4), 2);
        assert_eq!(world_of_unit(7, 8, 4), 4);
        let placement = build_placement(&cfg);
        assert_eq!(placement.get(&master_addr(0)), Some(&0));
        assert_eq!(placement.get(&coord_addr(0)), Some(&0));
        assert_eq!(placement.get(&Addr::new("app-0")), Some(&0));
        assert_eq!(
            placement.get(&unit_host_addr(UnitId(0), ustore_fabric::HostId(0))),
            Some(&1)
        );
        assert_eq!(
            placement.get(&unit_host_addr(UnitId(7), ustore_fabric::HostId(3))),
            Some(&4)
        );

        // Partitioned: every socket a Master opens and every replica of
        // every partition group has a placement entry.
        let mut cfg = pod_cfg(8, 4, 2, 1);
        cfg.system.master.partitions = 4;
        let sys = &cfg.system;
        let placement = build_placement(&cfg);
        let coord_addrs = coord_addrs(sys);
        for k in 0..4 {
            for m in 0..sys.masters {
                let socket = MetaRouter::coord_socket(&master_addr(m), k);
                assert_eq!(placement.get(&socket), Some(&0), "{socket}");
            }
            let world = partition_world(k, 4, sys.units, cfg.groups);
            for a in group_addrs(&coord_addrs, k) {
                assert_eq!(placement.get(&a), Some(&world), "{a}");
            }
        }
        // Partitions 1..4 each own two units, i.e. exactly one world.
        assert_eq!(partition_world(3, 4, 8, 4), 4);
    }
}
