//! Pod-scale deployment experiment: many deploy units under one Master.
//!
//! The paper's prototype (§V-B) is a single 16-disk deploy unit. A data
//! center pod is two orders of magnitude bigger: the automated fat-tree
//! design literature (Solnushkin, arXiv:1301.6179) and reallocation-free
//! cold-storage distribution (Ishikawa, arXiv:1707.00904) both assume
//! hundreds of hosts and a thousand-plus devices. This module composes
//! `N` copies of the paper's deploy unit into one two-layer pod — every
//! unit keeps its own upper-switched USB fabric (layer one), all units
//! hang off the shared Master/coordination control plane and data-center
//! network (layer two) — and drives a mixed archival workload through the
//! full Master → EndPoint → ClientLib path.
//!
//! Besides proving the system composes, the experiment is the simulator's
//! scale yardstick: [`run_podscale`] reports wall-clock engine statistics
//! (events processed, peak live queue depth) and a telemetry digest that
//! must be bit-for-bit identical across same-seed runs. The `repro perf`
//! subcommand runs it twice and records both in `BENCH_podscale.json`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use ustore::{
    ClientLibConfig, HealthWatchdog, MasterConfig, Mounted, ShardedPod, ShardedPodConfig,
    SpaceInfo, SystemConfig, TelemetryPlan, TracePlan, UStoreClient, UStoreSystem, WatchdogConfig,
};
use ustore_net::BlockDevice;
use ustore_sim::{
    Json, ProfSnapshot, ProfTrack, Profiler, RequestTracer, Scraper, ScraperConfig, Sim, SimTime,
    TraceLevel, TraceSnapshot, TrafficSnapshot,
};

use crate::report::{Report, Row};

/// Shape and workload of one pod-scale run.
#[derive(Debug, Clone)]
pub struct PodConfig {
    /// Deploy units composed into the pod.
    pub units: u32,
    /// Hosts per deploy unit (the paper's unit has 4).
    pub hosts_per_unit: u32,
    /// Disks per deploy unit (the paper's unit has 16).
    pub disks_per_unit: u32,
    /// USB hub fan-in inside each unit.
    pub fanin: usize,
    /// Concurrent archival clients.
    pub clients: u32,
    /// Measured workload window (virtual time) after bring-up.
    pub run: Duration,
    /// Per-client archival write cadence.
    pub write_interval: Duration,
    /// Per-client restore read cadence.
    pub read_interval: Duration,
    /// Telemetry scrape cadence (scraper + Master watchdog are installed,
    /// as they would be in production).
    pub scrape_interval: Duration,
    /// Unit-group worlds for the sharded engine ([`RunOpts::shards`]).
    /// Part of the scenario, not the execution: the decomposition (and so
    /// the telemetry digest) depends on it, while the shard count does
    /// not. Must divide into `units` (1..=units).
    pub world_groups: u32,
    /// Metadata partitions the Master splits its namespace into. `1` is
    /// the monolithic pre-partition layout and leaves every run
    /// bit-identical with it.
    pub partitions: u32,
    /// Client-side location lease. `None` (the default) always asks the
    /// Master; `Some(d)` caches resolved locations for `d` and adds a
    /// periodic directory-refresh lookup per client so the lease cache is
    /// actually exercised. Part of the scenario: it changes the event
    /// stream, so leased digests are not comparable with unleased ones.
    pub location_lease: Option<Duration>,
}

impl PodConfig {
    /// The full pod: 64 units of the paper's 4-host/16-disk deploy unit —
    /// 256 hosts and 1024 disks under one Master.
    pub fn pod() -> PodConfig {
        PodConfig {
            units: 64,
            hosts_per_unit: 4,
            disks_per_unit: 16,
            fanin: 4,
            clients: 32,
            run: Duration::from_secs(20),
            write_interval: Duration::from_millis(200),
            read_interval: Duration::from_millis(500),
            scrape_interval: Duration::from_millis(500),
            world_groups: 8,
            partitions: 1,
            location_lease: None,
        }
    }

    /// The same pod with the control plane scaled out: one metadata
    /// partition per unit-group world (so each partition's replica group
    /// co-locates with the units it serves) and a client-side location
    /// lease long enough that steady-state directory refreshes hit cache.
    pub fn partitioned(self) -> PodConfig {
        PodConfig {
            partitions: self.world_groups,
            location_lease: Some(Duration::from_secs(2)),
            ..self
        }
    }

    /// Same 1024-disk pod with a shorter workload window and fewer
    /// clients — the CI smoke shape.
    pub fn quick() -> PodConfig {
        PodConfig {
            clients: 8,
            run: Duration::from_secs(8),
            ..PodConfig::pod()
        }
    }

    /// A small pod for unit tests (still multi-unit, still the full
    /// control plane).
    pub fn tiny() -> PodConfig {
        PodConfig {
            units: 4,
            clients: 4,
            run: Duration::from_secs(5),
            world_groups: 4,
            ..PodConfig::pod()
        }
    }

    /// The deployment shape both engines build.
    pub fn system(&self) -> SystemConfig {
        SystemConfig {
            units: self.units,
            hosts: self.hosts_per_unit,
            disks: self.disks_per_unit,
            fanin: self.fanin,
            master: MasterConfig {
                partitions: self.partitions.max(1),
                ..MasterConfig::default()
            },
            clientlib: ClientLibConfig {
                location_lease: self.location_lease,
                ..ClientLibConfig::default()
            },
            ..SystemConfig::default()
        }
    }

    /// Total hosts in the pod.
    pub fn hosts(&self) -> u32 {
        self.units * self.hosts_per_unit
    }

    /// Total disks in the pod.
    pub fn disks(&self) -> u32 {
        self.units * self.disks_per_unit
    }
}

/// Engine statistics specific to a sharded ([`RunOpts::shards`]) run.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Executor threads used.
    pub shards: usize,
    /// Unit-group worlds the pod was decomposed into (plus the control
    /// world).
    pub groups: u32,
    /// Epoch windows the adaptive coordinator executed (each advances
    /// the global floor by up to one coalescing quantum).
    pub epochs: u64,
    /// Inner synchronization rounds across all windows (each round runs
    /// the runnable worlds once and exchanges messages).
    pub sync_rounds: u64,
    /// Envelopes routed across world boundaries.
    pub cross_messages: u64,
    /// Peak live queue depth of the deepest single world (per-shard max).
    pub peak_queue_depth_max: f64,
    /// Sum of per-world peaks — the whole-sim queue pressure a
    /// single-world engine would have carried.
    pub peak_queue_depth_sum: f64,
}

/// Payload bytes of every archival write the pod workload issues.
pub const POD_WRITE_BYTES: u64 = 65536;

/// Outcome of one pod-scale run.
#[derive(Debug, Clone)]
pub struct PodscaleRun {
    /// Human-readable summary rows.
    pub report: Report,
    /// FNV-1a digest over the full telemetry export (metrics snapshot
    /// JSON + span log JSON + scraped time-series CSV). Two same-seed
    /// runs must produce the same digest. Sharded runs combine per-world
    /// digests in world-id order; the result is identical for every shard
    /// count but differs from the classic engine's single-world digest
    /// (different decomposition, different RNG streams).
    pub digest: u64,
    /// Events the engine processed over the whole run (summed across
    /// worlds for sharded runs).
    pub events: u64,
    /// Virtual seconds the run simulated (bring-up + workload).
    pub sim_seconds: f64,
    /// Peak live event-queue depth (for sharded runs: the per-shard max;
    /// see [`ShardStats`] for the whole-sim sum).
    pub peak_queue_depth: f64,
    /// Sharded-engine statistics (`None` on the classic engine).
    pub sharding: Option<ShardStats>,
    /// Completed archival writes.
    pub writes_ok: u64,
    /// Completed restore reads.
    pub reads_ok: u64,
    /// Failed IOs (should be zero in a healthy pod).
    pub io_errors: u64,
    /// Machine-readable summary (`{"experiment","seed","hosts",...}`).
    pub telemetry: Json,
    /// Wall-clock profiler snapshot ([`RunOpts::profile`] runs only).
    pub prof: Option<ProfSnapshot>,
    /// Cross-world traffic matrix snapshot (profiled sharded runs only).
    pub traffic: Option<TrafficSnapshot>,
    /// Request-lifecycle trace snapshot ([`RunOpts::trace`] runs only).
    pub slo: Option<TraceSnapshot>,
    /// Replicated-log length of every metadata partition at the end of
    /// the run, as `(partition, applied length)` pairs in partition order
    /// (partition 0 = the base cluster, which also carries elections and
    /// sessions).
    pub partition_logs: Vec<(u32, u64)>,
    /// Wall seconds spent settling and advancing the engine (world
    /// construction excluded) — the denominator for the profiler's
    /// phase-coverage check.
    pub run_wall_seconds: f64,
}

/// FNV-1a 64-bit digest, the dependency-free way to fingerprint exports.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of one world's telemetry export: metrics snapshot JSON, span
/// log JSON and scraped time-series CSV.
pub(crate) fn world_digest(metrics_json: &str, spans_json: &str, scrape_csv: &str) -> u64 {
    fnv1a(metrics_json.as_bytes())
        ^ fnv1a(spans_json.as_bytes()).rotate_left(1)
        ^ fnv1a(scrape_csv.as_bytes()).rotate_left(2)
}

/// Drives the mixed archival workload against already-built clients:
/// allocate one space per client (distinct services), mount, then steady
/// sequential ingest writes plus scattered restore reads for the measured
/// window. `advance` runs the engine — the single-world and sharded
/// harnesses advance time differently, the workload recipe is shared
/// (and must stay identical: the digests depend on it).
///
/// Returns `(writes_ok, reads_ok, io_errors)`.
fn drive_workload(
    sim: &Sim,
    clients: &[UStoreClient],
    cfg: &PodConfig,
    mut advance: impl FnMut(Duration),
) -> (u64, u64, u64) {
    let mut mounts: Vec<(Mounted, u32)> = Vec::new();
    let infos: Rc<RefCell<Vec<Option<SpaceInfo>>>> =
        Rc::new(RefCell::new(vec![None; cfg.clients as usize]));
    for (c, client) in clients.iter().enumerate() {
        let infos = infos.clone();
        client.allocate(sim, format!("archive-svc-{c}"), 1 << 30, move |_, r| {
            infos.borrow_mut()[c] = Some(r.expect("pod allocate"));
        });
    }
    advance(Duration::from_secs(10));
    let mounted: Rc<RefCell<Vec<Option<Mounted>>>> =
        Rc::new(RefCell::new(vec![None; cfg.clients as usize]));
    for (c, client) in clients.iter().enumerate() {
        let info = infos.borrow()[c].clone().expect("pod allocation served");
        let mounted = mounted.clone();
        client.mount(sim, info.name, move |_, r| {
            mounted.borrow_mut()[c] = Some(r.expect("pod mount"));
        });
    }
    advance(Duration::from_secs(15));
    for (c, m) in mounted.borrow().iter().enumerate() {
        mounts.push((m.clone().expect("pod mount served"), c as u32));
    }

    let writes_ok = Rc::new(Cell::new(0u64));
    let reads_ok = Rc::new(Cell::new(0u64));
    let io_errors = Rc::new(Cell::new(0u64));
    for (m, c) in &mounts {
        let stagger = Duration::from_millis(7 * u64::from(*c) % 97);
        {
            let m = m.clone();
            let ok = writes_ok.clone();
            let err = io_errors.clone();
            let k = Cell::new(u64::from(*c));
            sim.every(
                cfg.write_interval + stagger,
                cfg.write_interval,
                move |sim| {
                    let n = k.get();
                    k.set(n + 1);
                    let offset = (n * POD_WRITE_BYTES) % ((1 << 30) - POD_WRITE_BYTES);
                    let ok = ok.clone();
                    let err = err.clone();
                    m.write(
                        sim,
                        offset,
                        vec![0xA5; POD_WRITE_BYTES as usize],
                        Box::new(move |_, r| match r {
                            Ok(()) => ok.set(ok.get() + 1),
                            Err(_) => err.set(err.get() + 1),
                        }),
                    );
                },
            );
        }
        {
            let m = m.clone();
            let ok = reads_ok.clone();
            let err = io_errors.clone();
            let k = Cell::new(u64::from(*c).wrapping_mul(131));
            sim.every(cfg.read_interval + stagger, cfg.read_interval, move |sim| {
                let n = k.get();
                k.set(n + 1);
                let offset = (n.wrapping_mul(7919) % (1 << 14)) * 4096;
                let ok = ok.clone();
                let err = err.clone();
                m.read(
                    sim,
                    offset,
                    4096,
                    Box::new(move |_, r| match r {
                        Ok(_) => ok.set(ok.get() + 1),
                        Err(_) => err.set(err.get() + 1),
                    }),
                );
            });
        }
    }
    // With a location lease configured, add the directory-refresh traffic
    // the lease exists for: each client periodically re-checks where its
    // space lives (upper layers do this before scheduling restore jobs).
    // The first check misses and asks the Master; checks inside the lease
    // window are served from cache. Unleased runs skip this entirely so
    // their event stream stays bit-identical with the pre-lease harness.
    if cfg.location_lease.is_some() {
        for ((_, c), client) in mounts.iter().zip(clients) {
            let name = infos.borrow()[*c as usize]
                .as_ref()
                .expect("pod allocation served")
                .name;
            let stagger = Duration::from_millis(11 * u64::from(*c) % 103);
            let client = client.clone();
            let err = io_errors.clone();
            sim.every(cfg.read_interval + stagger, cfg.read_interval, move |sim| {
                let err = err.clone();
                client.lookup(sim, name, move |_, r| {
                    if r.is_err() {
                        err.set(err.get() + 1);
                    }
                });
            });
        }
    }
    advance(cfg.run);
    (writes_ok.get(), reads_ok.get(), io_errors.get())
}

/// How to execute one pod-scale run. None of these change what the pod
/// simulates: the digest depends on the engine's decomposition only.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// `None` runs the classic single-world engine; `Some(n)` runs the
    /// sharded engine on `n` executor threads (the decomposition into
    /// `world_groups` unit-group worlds is fixed by the scenario, so every
    /// `n` yields the same digest).
    pub shards: Option<usize>,
    /// Attach the wall-clock profiler (and, sharded, the cross-world
    /// traffic matrix): populates `prof`, `traffic` and
    /// `run_wall_seconds`.
    pub profile: bool,
    /// Attach the request-lifecycle tracer: populates `slo`.
    pub trace: Option<TracePlan>,
}

impl RunOpts {
    /// The sharded engine on `shards` threads, no profiling or tracing.
    pub fn sharded(shards: usize) -> RunOpts {
        RunOpts {
            shards: Some(shards),
            ..RunOpts::default()
        }
    }
}

/// The pod after bring-up, on either engine.
enum Pod {
    Classic {
        system: Box<UStoreSystem>,
        scraper: Scraper,
        _watchdog: HealthWatchdog,
        profiler: Profiler,
        track: ProfTrack,
        tracer: RequestTracer,
    },
    Sharded(Box<ShardedPod>),
}

impl Pod {
    fn advance(&mut self, d: Duration) {
        match self {
            Pod::Classic {
                system,
                profiler,
                track,
                ..
            } => classic_window(&system.sim, profiler, track, || {
                system.sim.run_until(system.sim.now() + d);
            }),
            Pod::Sharded(pod) => pod.run_for(d),
        }
    }
}

/// Runs one window of the classic engine under the profiler: the same
/// per-world execute probe the sharded engine applies to every world and
/// round, plus the window's sim-time advance.
fn classic_window(sim: &Sim, prof: &Profiler, track: &ProfTrack, run: impl FnOnce()) {
    let start = sim.now();
    prof.execute(track, 0, sim, run);
    prof.epoch(sim.now().duration_since(start), false);
}

/// Runs the pod-scale experiment once: build and settle the pod on the
/// engine `opts` selects, drive the archival workload, then fold every
/// world's telemetry export into one digest (in world-id order; the
/// classic engine is the one-world case).
///
/// The classic engine also installs the production Master-side watchdog.
/// The sharded engine does not (it needs cross-world disk metrics; the
/// healthy-pod workload never exercises it), so digests compare across
/// shard counts but not with the classic engine.
///
/// # Panics
///
/// Panics if bring-up fails (no active master, allocations not served) —
/// a pod that cannot bring up is a broken system, not a measurement — or
/// on a degenerate sharded shape (`shards` 0, `world_groups` outside
/// `1..=units`).
pub fn run_podscale(seed: u64, cfg: &PodConfig, opts: &RunOpts) -> PodscaleRun {
    let scraper_config = ScraperConfig {
        interval: cfg.scrape_interval,
        retention: 1024,
    };
    let names: Vec<String> = (0..cfg.clients).map(|c| format!("archive-{c}")).collect();
    // Build and settle: the only step where the two engines differ.
    let (mut pod, clients, wall0) = match opts.shards {
        None => {
            let tracer = match &opts.trace {
                Some(plan) => RequestTracer::on(plan.sample_every, plan.exemplars),
                None => RequestTracer::off(),
            };
            let sim = Sim::new(seed);
            sim.set_reqtracer(tracer.clone());
            let system = UStoreSystem::build(sim, cfg.system());
            // Pod-scale runs are about engine throughput; keep the trace
            // buffer to warnings so it measures the system, not the logger.
            system.sim.with_trace(|t| t.set_min_level(TraceLevel::Warn));
            let profiler = if opts.profile {
                Profiler::on(1)
            } else {
                Profiler::off()
            };
            let track = profiler.register_track("classic-engine");
            let wall0 = Instant::now();
            classic_window(&system.sim, &profiler, &track, || system.settle());
            let scraper = system.start_telemetry(scraper_config);
            let watchdog = system
                .install_watchdog(&scraper, WatchdogConfig::default())
                .expect("pod bring-up must elect a master");
            let clients = names.iter().map(|n| system.client(n)).collect();
            let pod = Pod::Classic {
                system: Box::new(system),
                scraper,
                _watchdog: watchdog,
                profiler,
                track,
                tracer,
            };
            (pod, clients, wall0)
        }
        Some(shards) => {
            let mut pod = ShardedPod::build(
                seed,
                &ShardedPodConfig {
                    system: cfg.system(),
                    groups: cfg.world_groups,
                    shards,
                    clients: names,
                    telemetry: Some(TelemetryPlan {
                        start: SimTime::from_secs(15),
                        scraper: scraper_config,
                    }),
                    trace_level: TraceLevel::Warn,
                    profile: opts.profile,
                    trace: opts.trace.clone(),
                },
            );
            let wall0 = Instant::now();
            pod.run_until(SimTime::from_secs(15));
            assert!(
                pod.active_master().is_some(),
                "pod bring-up must elect a master"
            );
            let clients = pod.clients.clone();
            (Pod::Sharded(Box::new(pod)), clients, wall0)
        }
    };

    let sim = match &pod {
        Pod::Classic { system, .. } => system.sim.clone(),
        Pod::Sharded(p) => p.sim.clone(),
    };
    let (writes_ok, reads_ok, io_errors) = drive_workload(&sim, &clients, cfg, |d| pod.advance(d));
    let run_wall_seconds = wall0.elapsed().as_secs_f64();
    drop((sim, clients));

    let (worlds, sim_seconds, prof, traffic, slo, engine) = match pod {
        Pod::Classic {
            system,
            scraper,
            _watchdog,
            profiler,
            tracer,
            ..
        } => {
            let sim_seconds = system.sim.now().as_secs_f64();
            let worlds = vec![system.finalize(Some(&scraper))];
            let (prof, slo) = (profiler.snapshot(), tracer.snapshot());
            (worlds, sim_seconds, prof, None, slo, None)
        }
        Pod::Sharded(pod) => {
            let engine = (pod.epochs(), pod.sync_rounds(), pod.cross_messages());
            let sim_seconds = pod.now().as_secs_f64();
            let (prof, traffic, slo) = (
                pod.prof_snapshot(),
                pod.traffic_snapshot(),
                pod.trace_snapshot(),
            );
            (
                pod.finalize(),
                sim_seconds,
                prof,
                traffic,
                slo,
                Some(engine),
            )
        }
    };

    // Combine per-world digests in world-id order. The fold is
    // order-sensitive so a swap of two worlds' telemetry cannot cancel
    // out; for one world it is that world's digest.
    let mut digest = 0u64;
    let mut events = 0u64;
    let mut peak_max = 0f64;
    let mut peak_sum = 0f64;
    let mut partition_logs: Vec<(u32, u64)> = Vec::new();
    for w in &worlds {
        digest =
            digest.rotate_left(7) ^ world_digest(&w.metrics_json, &w.spans_json, &w.scrape_csv);
        events += w.events;
        peak_max = peak_max.max(w.peak_queue_depth);
        peak_sum += w.peak_queue_depth;
        partition_logs.extend(w.partition_logs.iter().copied());
    }
    partition_logs.sort_unstable();
    let sharding = opts.shards.zip(engine).map(
        |(shards, (epochs, sync_rounds, cross_messages))| ShardStats {
            shards,
            groups: cfg.world_groups,
            epochs,
            sync_rounds,
            cross_messages,
            peak_queue_depth_max: peak_max,
            peak_queue_depth_sum: peak_sum,
        },
    );

    let mut telemetry = vec![
        ("experiment", Json::str("podscale")),
        ("seed", Json::u64(seed)),
        ("units", Json::u64(u64::from(cfg.units))),
        ("hosts", Json::u64(u64::from(cfg.hosts()))),
        ("disks", Json::u64(u64::from(cfg.disks()))),
        ("clients", Json::u64(u64::from(cfg.clients))),
    ];
    let mut rows = vec![
        Row::measured_only("hosts", f64::from(cfg.hosts()), ""),
        Row::measured_only("disks", f64::from(cfg.disks()), ""),
        Row::measured_only("events processed", events as f64, ""),
    ];
    let partitions = ("partitions", Json::u64(u64::from(cfg.partitions.max(1))));
    let title = match &sharding {
        None => {
            telemetry.extend([
                partitions,
                ("sim_seconds", Json::f64(sim_seconds)),
                ("events", Json::u64(events)),
                ("peak_queue_depth", Json::f64(peak_max)),
            ]);
            rows.push(Row::measured_only("peak live queue depth", peak_max, ""));
            format!(
                "podscale — {} units, {} hosts, {} disks",
                cfg.units,
                cfg.hosts(),
                cfg.disks()
            )
        }
        Some(s) => {
            telemetry[0].1 = Json::str("podscale_sharded");
            telemetry.extend([
                ("world_groups", Json::u64(u64::from(s.groups))),
                partitions,
                ("shards", Json::u64(s.shards as u64)),
                ("epochs", Json::u64(s.epochs)),
                ("sync_rounds", Json::u64(s.sync_rounds)),
                ("cross_messages", Json::u64(s.cross_messages)),
                ("sim_seconds", Json::f64(sim_seconds)),
                ("events", Json::u64(events)),
                ("peak_queue_depth_max", Json::f64(peak_max)),
                ("peak_queue_depth_sum", Json::f64(peak_sum)),
            ]);
            rows.extend([
                Row::measured_only("epoch windows", s.epochs as f64, ""),
                Row::measured_only("sync rounds", s.sync_rounds as f64, ""),
                Row::measured_only("cross-world messages", s.cross_messages as f64, ""),
                Row::measured_only("peak queue depth (per-shard max)", peak_max, ""),
                Row::measured_only("peak queue depth (whole-sim sum)", peak_sum, ""),
            ]);
            format!(
                "podscale (sharded) — {} units in {} worlds on {} threads",
                cfg.units, s.groups, s.shards
            )
        }
    };
    telemetry.extend([
        ("writes_ok", Json::u64(writes_ok)),
        ("reads_ok", Json::u64(reads_ok)),
        ("io_errors", Json::u64(io_errors)),
        ("telemetry_digest", Json::str(format!("{digest:016x}"))),
    ]);
    rows.extend([
        Row::measured_only("archival writes", writes_ok as f64, ""),
        Row::measured_only("restore reads", reads_ok as f64, ""),
        Row::measured_only("io errors", io_errors as f64, ""),
    ]);
    PodscaleRun {
        report: Report::new(title, rows),
        digest,
        events,
        sim_seconds,
        peak_queue_depth: peak_max,
        sharding,
        writes_ok,
        reads_ok,
        io_errors,
        telemetry: Json::obj(telemetry),
        prof,
        traffic,
        slo,
        partition_logs,
        run_wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_pod_brings_up_and_serves_io() {
        let run = run_podscale(901, &PodConfig::tiny(), &RunOpts::default());
        assert!(run.writes_ok > 0, "archival writes completed");
        assert!(run.reads_ok > 0, "restore reads completed");
        assert_eq!(run.io_errors, 0, "healthy pod serves all IO");
        assert!(
            run.events > 2 * (run.writes_ok + run.reads_ok),
            "every served IO runs as events"
        );
    }

    #[test]
    fn sharded_tiny_pod_serves_io_and_reports_shard_stats() {
        let cfg = PodConfig::tiny();
        let run = run_podscale(904, &cfg, &RunOpts::sharded(2));
        assert!(run.writes_ok > 0, "archival writes completed");
        assert!(run.reads_ok > 0, "restore reads completed");
        assert_eq!(run.io_errors, 0, "healthy pod serves all IO");
        let s = run.sharding.expect("sharded run carries shard stats");
        assert_eq!(s.shards, 2);
        assert_eq!(s.groups, cfg.world_groups);
        assert!(s.epochs > 0, "coordinator ran epoch windows");
        assert!(s.sync_rounds > 0, "windows executed sync rounds");
        assert!(s.cross_messages > 0, "workload crossed world boundaries");
        assert!(s.peak_queue_depth_sum >= s.peak_queue_depth_max);
    }

    #[test]
    fn traced_tiny_pod_attributes_ttfb() {
        let opts = RunOpts {
            trace: Some(TracePlan::default()),
            ..RunOpts::default()
        };
        let run = run_podscale(905, &PodConfig::tiny(), &opts);
        let slo = run.slo.expect("traced run snapshots");
        assert!(slo.seen > 0, "workload completed under trace");
        assert!(slo.worst().is_some(), "slowest exemplar retained");
        // Acceptance invariant: stage sums explain >=95% of end-to-end
        // TTFB at every reported quantile.
        for q in [0.5, 0.99, 0.999] {
            let c = slo.min_coverage(q).expect("traffic on both kinds");
            assert!(c >= 0.95, "stage coverage {c:.3} below 0.95 at q={q}");
        }
    }

    #[test]
    fn partitioned_leased_tiny_pod_serves_io() {
        let cfg = PodConfig::tiny().partitioned();
        assert_eq!(cfg.partitions, cfg.world_groups);
        let run = run_podscale(906, &cfg, &RunOpts::sharded(2));
        assert!(run.writes_ok > 0, "archival writes completed");
        assert!(run.reads_ok > 0, "restore reads completed");
        assert_eq!(run.io_errors, 0, "healthy pod serves all IO and lookups");
        assert_eq!(
            run.partition_logs.len(),
            cfg.partitions as usize,
            "every metadata partition reports its log"
        );
        assert!(
            run.partition_logs.iter().all(|&(_, len)| len > 0),
            "every partition's replicated log applied entries: {:?}",
            run.partition_logs
        );
    }

    #[test]
    fn same_seed_runs_share_a_digest() {
        let cfg = PodConfig::tiny();
        let a = run_podscale(902, &cfg, &RunOpts::default());
        let b = run_podscale(902, &cfg, &RunOpts::default());
        assert_eq!(a.digest, b.digest, "telemetry digest is deterministic");
        assert_eq!(a.events, b.events);
        let c = run_podscale(903, &cfg, &RunOpts::default());
        assert_ne!(a.digest, c.digest, "different seed, different telemetry");
    }
}
