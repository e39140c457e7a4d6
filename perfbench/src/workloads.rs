//! The four workloads. Each builds its deployment through the crates'
//! public API, drives it, checks what it read back, exports telemetry and
//! tears it down, timing every phase from outside. See `README.md` for why
//! each workload exists and which layers it loads.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ustore::{
    ClientLibConfig, EndpointConfig, MasterConfig, Mounted, ShardedPod, ShardedPodConfig,
    SpaceInfo, SystemConfig, TelemetryPlan, TracePlan, UStoreClient, UStoreSystem, WatchdogConfig,
    WorldTelemetry,
};
use ustore_fabric::HostId;
use ustore_sim::{
    Histogram, MetricsRegistry, ProfSnapshot, RequestTracer, Scraper, ScraperConfig, Sim, SimRng,
    SimTime, TimerId, TraceLevel, TraceSnapshot,
};
use ustore_workload::{generate, TraceConfig};

use crate::io::{Expect, Io, IoLog, Stream, PAGE};
use crate::minijson;
use crate::procfs;
use crate::spans::BenchSpans;
use crate::stats::{fnv1a, mix};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 1024-disk pod on the classic engine under steady archival load.
    PodSteady,
    /// The 4096-disk partitioned megapod on the sharded engine.
    MegapodSharded,
    /// One deploy unit: closed-loop bulk ingest against open-loop restores.
    UnitIngestRestore,
    /// The prototype unit losing the host that serves its space.
    UnitFailover,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PodSteady,
        Workload::MegapodSharded,
        Workload::UnitIngestRestore,
        Workload::UnitFailover,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PodSteady => "pod-steady",
            Workload::MegapodSharded => "megapod-sharded",
            Workload::UnitIngestRestore => "unit-ingest-restore",
            Workload::UnitFailover => "unit-failover",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full shapes for measurement, tiny ones for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The documented shapes.
    Full,
    /// Shapes small enough for unit tests.
    Tiny,
}

/// How to run one iteration.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs and results.
    pub seed: u64,
    /// Shape.
    pub size: Size,
    /// Tracing on: request tracer, benchmark spans, engine profiler
    /// (sharded engine), repeated-failover probe (`unit-failover`).
    pub traced: bool,
    /// Engine threads for the sharded workload.
    pub shards: usize,
}

/// Wall-clock phase timers of one iteration; together they tile `run_s`.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    /// Engine bring-up: enumeration, election, first heartbeats.
    pub settle: f64,
    /// Clients allocate and mount their spaces (and preload data).
    pub attach: f64,
    /// The measured window, grace period and read-back checks.
    pub workload: f64,
    /// Telemetry export and digest.
    pub export: f64,
    /// Engine teardown and drop.
    pub teardown: f64,
}

impl Phases {
    /// Sum of the phase timers.
    pub fn total(&self) -> f64 {
        self.settle + self.attach + self.workload + self.export + self.teardown
    }
}

/// One host failover, read off the system's `failover` span tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailoverTimes {
    /// Kill to the first successful client read, seconds.
    pub total_s: f64,
    /// `failover.detection`: kill to the Master declaring the host dead.
    pub detect_s: f64,
    /// `failover.reconfiguration`: Algorithm 1, switch actuation,
    /// re-enumeration and Controller verification.
    pub reconfig_s: f64,
    /// `failover.remount`: re-export and ClientLib remount.
    pub remount_s: f64,
}

/// Everything an iteration reports in simulated time or as a count of
/// simulated work. It depends only on the seed and the shape, so repeated
/// iterations of one run must agree exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimFacts {
    /// FNV-1a over the telemetry export (metrics, spans, scraped series).
    pub digest: u64,
    /// Measured-window IO accounting.
    pub io: IoLog,
    /// Read-back checks of acknowledged writes: issued, and passed.
    pub verify_issued: u64,
    /// Read-back checks that returned the acknowledged bytes.
    pub verify_passed: u64,
    /// Mean disk power over the window, watts, summed over disks.
    pub disk_power_w: f64,
    /// Engine events.
    pub events: u64,
    /// Peak live event-queue depth (deepest world on the sharded engine).
    pub peak_queue_depth: f64,
    /// Registry counter totals by metric name (all components, all worlds).
    pub counters: BTreeMap<String, u64>,
    /// p99 of `rpc.rtt_ns` merged over components, ns.
    pub rpc_rtt_p99_ns: u64,
    /// Busiest USB root link direction: busy ns ÷ window ns.
    pub usb_root_busy_frac: f64,
    /// Scraped telemetry series.
    pub series: u64,
    /// Replicated-log length summed over metadata partitions.
    pub log_len: u64,
    /// Sharded engine: epoch windows, sync rounds, cross-world messages.
    pub epochs: u64,
    /// Inner synchronization rounds.
    pub sync_rounds: u64,
    /// Envelopes routed across worlds.
    pub cross_messages: u64,
    /// One entry per host kill (`unit-failover`).
    pub failovers: Vec<FailoverTimes>,
}

/// The outcome of one iteration.
#[derive(Debug)]
pub struct Outcome {
    /// Wall seconds from settle through teardown (summed over units).
    pub run_s: f64,
    /// Phase timers tiling `run_s`.
    pub phases: Phases,
    /// Process CPU seconds over `run_s`.
    pub cpu_s: f64,
    /// Run-queue wait of this process's threads while the engine ran, s.
    pub runq_wait_s: f64,
    /// CPU time the hypervisor stole from the machine over `run_s`, s.
    pub steal_s: f64,
    /// Heap allocations and bytes over `run_s`.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Simulated results (shared between iterations that agree).
    pub sim: Rc<SimFacts>,
    /// Request-tracer snapshot (traced iterations).
    pub trace: Option<TraceSnapshot>,
    /// Engine profiler snapshot (traced sharded iterations).
    pub prof: Option<ProfSnapshot>,
    /// Repeated-failover probe (traced `unit-failover`): recovery seconds,
    /// or `None` when the space never became readable within the timeout.
    pub refailover_s: Option<Option<f64>>,
    /// The benchmark's own spans (traced iterations).
    pub spans: BenchSpans,
}

/// Counters the per-layer report reads, by registry metric name.
pub const COUNTERS: [&str; 14] = [
    "rpc.calls",
    "rpc.timeouts",
    "consensus.proposals",
    "consensus.elections",
    "master.heartbeats",
    "endpoint.heartbeats_sent",
    "client.remounts",
    "fabric.switch_flips",
    "fabric.commands",
    "disk.seeks",
    "disk.cache_hits",
    "disk.spin_ups",
    "disk.write_bytes",
    "usb.bytes",
];

/// Allocation counters fed by the binary's global allocator (they stay
/// zero in test binaries, which keep the system allocator).
pub static ALLOCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// Bytes requested from the global allocator.
pub static ALLOC_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn alloc_counts() -> (u64, u64) {
    use std::sync::atomic::Ordering::Relaxed;
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// Builds `w`'s deployment once, as an iteration does, tears it down, and
/// returns the wall seconds of the build alone.
pub fn setup_sample(w: Workload, o: &Opts) -> f64 {
    let (spans, tracer) = (BenchSpans::off(), RequestTracer::off());
    let t = Instant::now();
    let sys = match w {
        Workload::PodSteady | Workload::MegapodSharded => {
            let r = if w == Workload::PodSteady {
                PodRecipe::steady(o.size)
            } else {
                PodRecipe::megapod(o.size)
            };
            match build_pod(&r, o, &spans, &tracer) {
                (Engine::Sharded(pod), _) => {
                    let s = secs(t);
                    pod.finalize();
                    return s;
                }
                (_, sys) => sys.expect("classic engine carries its system"),
            }
        }
        Workload::UnitIngestRestore => build_ingest(o, &spans, &tracer),
        Workload::UnitFailover => build_unit(unit_seed(o.seed, 0), &tracer, &spans),
    };
    let s = secs(t);
    teardown_classic(sys, &spans);
    s
}

/// Runs one iteration of `w`.
pub fn run(w: Workload, o: &Opts) -> Outcome {
    match w {
        Workload::PodSteady => run_pod(&PodRecipe::steady(o.size), o),
        Workload::MegapodSharded => run_pod(&PodRecipe::megapod(o.size), o),
        Workload::UnitIngestRestore => run_ingest(o),
        Workload::UnitFailover => run_failover(o),
    }
}

// ---- Shared pieces -----------------------------------------------------

const SCRAPE: Duration = Duration::from_millis(500);
/// Requests not done this long after the window count as failed.
const GRACE: Duration = Duration::from_secs(10);
/// Grace period on the unit with sleeping disks: a cold read pays a
/// spin-up behind a queue.
const COLD_GRACE: Duration = Duration::from_secs(30);
/// Warm-up before the measured window of `unit-ingest-restore`: long
/// enough for every disk without ingest to go idle and spin down.
const QUIET: Duration = Duration::from_secs(8);
/// Acknowledged slots read back per write stream.
const VERIFY_SAMPLES: usize = 4;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn spans_for(o: &Opts) -> BenchSpans {
    if o.traced {
        BenchSpans::on()
    } else {
        BenchSpans::off()
    }
}

fn tracer_for(o: &Opts) -> RequestTracer {
    if o.traced {
        let p = TracePlan::default();
        RequestTracer::on(p.sample_every, p.exemplars)
    } else {
        RequestTracer::off()
    }
}

fn rng_for(seed: u64, stream: u64) -> SimRng {
    SimRng::seed_from(mix(seed ^ mix(stream)))
}

/// The engine a workload drives: the classic single-world simulator, or
/// the sharded pod whose control world carries the driver's clock.
enum Engine {
    Classic(Sim),
    Sharded(Box<ShardedPod>),
}

impl Engine {
    fn sim(&self) -> Sim {
        match self {
            Engine::Classic(s) => s.clone(),
            Engine::Sharded(p) => p.sim.clone(),
        }
    }

    /// Advances the engine by `d` of simulated time.
    fn advance(&mut self, d: Duration, spans: &BenchSpans) {
        match self {
            Engine::Classic(s) => {
                let s2 = s.clone();
                spans.time("sim", "Sim::run_until", Some(s), || {
                    s2.run_until(s2.now() + d)
                });
            }
            Engine::Sharded(p) => {
                let sim = p.sim.clone();
                let deadline = p.now() + d;
                spans.time("shard", "ShardedPod::run_until", Some(&sim), || {
                    p.run_until(deadline)
                });
            }
        }
    }
}

/// Allocates one space per `(client, service)` pair, then mounts each;
/// panics if the deployment cannot serve them (a broken system, not a
/// measurement).
fn attach(
    eng: &mut Engine,
    pairs: &[(UStoreClient, String)],
    spans: &BenchSpans,
) -> Vec<(SpaceInfo, Mounted)> {
    let sim = eng.sim();
    let infos: Rc<RefCell<Vec<Option<SpaceInfo>>>> = Rc::new(RefCell::new(vec![None; pairs.len()]));
    for (i, (client, service)) in pairs.iter().enumerate() {
        let infos = infos.clone();
        let sp = spans.clone();
        let span = spans.open("core.clientlib", "UStoreClient::allocate", Some(&sim));
        client.allocate(&sim, service.clone(), 1 << 30, move |sim, r| {
            sp.close(span, Some(sim));
            infos.borrow_mut()[i] = Some(r.expect("allocation served"));
        });
    }
    eng.advance(Duration::from_secs(10), spans);
    let mounted: Rc<RefCell<Vec<Option<Mounted>>>> = Rc::new(RefCell::new(vec![None; pairs.len()]));
    for (i, (client, _)) in pairs.iter().enumerate() {
        let name = infos.borrow()[i]
            .as_ref()
            .expect("allocation completed")
            .name;
        let mounted = mounted.clone();
        let sp = spans.clone();
        let span = spans.open("core.clientlib", "UStoreClient::mount", Some(&sim));
        client.mount(&sim, name, move |sim, r| {
            sp.close(span, Some(sim));
            mounted.borrow_mut()[i] = Some(r.expect("mount served"));
        });
    }
    eng.advance(Duration::from_secs(15), spans);
    let infos = infos.borrow();
    let mounted = mounted.borrow();
    infos
        .iter()
        .zip(mounted.iter())
        .map(|(i, m)| {
            (
                i.clone().expect("allocated"),
                m.clone().expect("mount completed"),
            )
        })
        .collect()
}

/// Reads back a sample of every stream's acknowledged writes after the
/// window; returns `(issued, passed)`.
fn verify_streams(
    eng: &mut Engine,
    streams: &[Rc<Stream>],
    seed: u64,
    wait: Duration,
    spans: &BenchSpans,
) -> (u64, u64) {
    let sim = eng.sim();
    let check = Io::new(spans.clone());
    let mut rng = rng_for(seed, 0xC4EC);
    let mut issued = 0u64;
    for s in streams {
        issued += s.verify(&sim, &check, VERIFY_SAMPLES, |n| rng.u64_below(n.max(1))) as u64;
    }
    eng.advance(wait, spans);
    let l = check.log.borrow();
    (issued, l.checked - l.mismatches)
}

fn digest_of(metrics_json: &str, spans_json: &str, csv: &str) -> u64 {
    let mut d = fnv1a(metrics_json.as_bytes());
    d ^= fnv1a(spans_json.as_bytes()).rotate_left(1);
    d ^= fnv1a(csv.as_bytes()).rotate_left(2);
    d
}

fn merged_histogram(reg: &MetricsRegistry, name: &str) -> Histogram {
    let mut h = Histogram::new();
    for (_, n, x) in reg.histograms() {
        if n == name {
            h.merge(x);
        }
    }
    h
}

/// Busy-ns counters of every USB root link direction, by component.
fn usb_busy(sim: &Sim) -> BTreeMap<String, u64> {
    sim.with_metrics(|m| {
        m.counters()
            .filter(|(_, n, _)| n.starts_with("usb.link_"))
            .map(|(c, n, v)| (format!("{c}/{n}"), v))
            .collect()
    })
}

/// Busiest root link direction over a window, as busy ÷ window. Host
/// names repeat across deploy units, so each series sums `units` links;
/// with one unit this is exact, with more it is the busiest host index's
/// mean over units.
fn busy_frac(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    window: Duration,
    units: u32,
) -> f64 {
    after
        .iter()
        .map(|(k, v)| v.saturating_sub(before.get(k).copied().unwrap_or(0)))
        .max()
        .map_or(0.0, |ns| {
            ns as f64 / (window.as_nanos() as f64 * f64::from(units))
        })
}

fn disk_energy_j(sys: &UStoreSystem) -> f64 {
    sys.runtimes
        .iter()
        .flat_map(|rt| {
            rt.disk_ids()
                .into_iter()
                .map(move |d| rt.disk(d).energy_joules(&sys.sim))
        })
        .sum()
}

/// Classic-engine export: publishes residency, snapshots the registry,
/// renders the span log and scraped series, and digests them.
fn export_classic(
    sys: &UStoreSystem,
    scraper: Option<&Scraper>,
    spans: &BenchSpans,
    facts: &mut SimFacts,
) {
    let sim = &sys.sim;
    for rt in &sys.runtimes {
        rt.publish_residency(sim);
    }
    let snap = spans.time("sim", "Sim::metrics_snapshot", Some(sim), || {
        sim.metrics_snapshot()
    });
    let csv = scraper.map_or(String::new(), |s| {
        spans.time("telemetry", "Scraper::to_csv", Some(sim), || s.to_csv())
    });
    facts.digest = digest_of(
        &snap.to_json().to_string(),
        &sim.with_spans(|t| t.to_json()).to_string(),
        &csv,
    );
    for name in COUNTERS {
        facts
            .counters
            .insert(name.to_string(), snap.counter_total(name));
    }
    facts.rpc_rtt_p99_ns = merged_histogram(&snap, "rpc.rtt_ns")
        .quantile(0.99)
        .unwrap_or(0);
    facts.series = scraper.map_or(0, |s| s.keys().len() as u64);
    facts.log_len = sys.partition_log_lens().iter().sum();
    facts.events = sim.events_processed();
    facts.peak_queue_depth = snap.gauge("sim", "queue_depth_max").unwrap_or(0.0);
}

fn teardown_classic(sys: UStoreSystem, spans: &BenchSpans) {
    let sim = sys.sim.clone();
    spans.time("sim", "Sim::teardown", Some(&sim), || sim.teardown());
    drop(sys);
}

// ---- pod-steady and megapod-sharded -----------------------------------

/// Shape and open-loop recipe of a pod workload.
#[derive(Debug, Clone)]
struct PodRecipe {
    units: u32,
    clients: u32,
    groups: u32,
    partitions: u32,
    lease: Option<Duration>,
    window: Duration,
    sharded: bool,
}

/// Per-client archival write cadence (5 writes/s).
const POD_WRITE_EVERY: Duration = Duration::from_millis(200);
/// Per-client restore read cadence (2 reads/s), and lookup cadence.
const POD_READ_EVERY: Duration = Duration::from_millis(500);
/// Archival write size.
const POD_WRITE_LEN: u64 = 64 << 10;
/// Each client's writes wrap inside 32 × 64 KiB = 2 MiB.
const POD_SLOTS: u64 = 32;
/// Restore reads are 4 KiB, scattered over a 64 MiB never-written range.
const POD_READ_LEN: u64 = 4096;
const POD_READ_BASE: u64 = 64 << 20;
const POD_READ_SPAN: u64 = 64 << 20;

impl PodRecipe {
    fn steady(size: Size) -> PodRecipe {
        let full = PodRecipe {
            units: 64,
            clients: 32,
            groups: 8,
            partitions: 1,
            lease: None,
            window: Duration::from_secs(120),
            sharded: false,
        };
        match size {
            Size::Full => full,
            Size::Tiny => PodRecipe {
                units: 4,
                clients: 4,
                groups: 4,
                window: Duration::from_secs(5),
                ..full
            },
        }
    }

    fn megapod(size: Size) -> PodRecipe {
        let full = PodRecipe {
            units: 256,
            clients: 48,
            groups: 16,
            partitions: 16,
            lease: Some(Duration::from_secs(2)),
            window: Duration::from_secs(20),
            sharded: true,
        };
        match size {
            Size::Full => full,
            Size::Tiny => PodRecipe {
                units: 4,
                clients: 4,
                groups: 4,
                partitions: 4,
                window: Duration::from_secs(5),
                ..full
            },
        }
    }

    fn system(&self) -> SystemConfig {
        SystemConfig {
            units: self.units,
            master: MasterConfig {
                partitions: self.partitions,
                ..MasterConfig::default()
            },
            clientlib: ClientLibConfig {
                location_lease: self.lease,
                ..ClientLibConfig::default()
            },
            ..SystemConfig::default()
        }
    }
}

/// Builds a pod workload's deployment: the sharded pod, or the classic
/// system (carried beside its engine).
fn build_pod(
    r: &PodRecipe,
    o: &Opts,
    spans: &BenchSpans,
    tracer: &RequestTracer,
) -> (Engine, Option<UStoreSystem>) {
    if r.sharded {
        let cfg = ShardedPodConfig {
            system: r.system(),
            groups: r.groups,
            shards: o.shards,
            clients: pod_clients(r),
            telemetry: Some(TelemetryPlan {
                start: SimTime::from_secs(15),
                scraper: ScraperConfig {
                    interval: SCRAPE,
                    retention: 1024,
                },
            }),
            trace_level: TraceLevel::Warn,
            profile: o.traced,
            trace: o.traced.then(TracePlan::default),
        };
        let pod = spans.time("core", "ShardedPod::build", None, || {
            ShardedPod::build(o.seed, &cfg)
        });
        (Engine::Sharded(Box::new(pod)), None)
    } else {
        let sys = spans.time("core", "UStoreSystem::build", None, || {
            let sim = Sim::new(o.seed);
            sim.set_reqtracer(tracer.clone());
            UStoreSystem::build(sim, r.system())
        });
        (Engine::Classic(sys.sim.clone()), Some(sys))
    }
}

fn pod_clients(r: &PodRecipe) -> Vec<String> {
    (0..r.clients).map(|c| format!("archive-{c}")).collect()
}

fn run_pod(r: &PodRecipe, o: &Opts) -> Outcome {
    let spans = spans_for(o);
    let tracer = tracer_for(o);
    let (mut eng, sys) = build_pod(r, o, &spans, &tracer);
    let sim = eng.sim();
    let mut ph = Phases::default();
    let mut facts = SimFacts::default();
    let sched0 = procfs::task_schedstats();
    let cpu0 = procfs::process_cpu_s();
    let steal0 = procfs::steal_s();
    let alloc0 = alloc_counts();
    let run0 = Instant::now();

    // Settle: bring-up, then (classic) the production telemetry pipeline:
    // scraper plus Master-side watchdog.
    let t = Instant::now();
    let mut scraper = None;
    let mut _dog = None;
    match (&mut eng, &sys) {
        (Engine::Classic(_), Some(sys)) => {
            sys.sim.with_trace(|t| t.set_min_level(TraceLevel::Warn));
            spans.time("core", "UStoreSystem::settle", Some(&sys.sim), || {
                sys.settle()
            });
            assert!(sys.active_master().is_some(), "bring-up elects a master");
            let s = sys.start_telemetry(ScraperConfig {
                interval: SCRAPE,
                retention: 1024,
            });
            _dog = Some(
                sys.install_watchdog(&s, WatchdogConfig::default())
                    .expect("watchdog installs once a master is active"),
            );
            scraper = Some(s);
        }
        (Engine::Sharded(pod), _) => {
            spans.time("shard", "ShardedPod::run_until", Some(&sim), || {
                pod.run_until(SimTime::from_secs(15))
            });
            assert!(pod.active_master().is_some(), "bring-up elects a master");
        }
        _ => unreachable!("classic engine carries its system"),
    }
    ph.settle = secs(t);

    // Attach: one space per client, each for a distinct service so the
    // allocator fans out over units.
    let t = Instant::now();
    let clients: Vec<UStoreClient> = match (&eng, &sys) {
        (Engine::Sharded(pod), _) => pod.clients.clone(),
        (_, Some(sys)) => pod_clients(r).iter().map(|n| sys.client(n)).collect(),
        _ => unreachable!("classic engine carries its system"),
    };
    let pairs: Vec<(UStoreClient, String)> = clients
        .iter()
        .enumerate()
        .map(|(c, cl)| (cl.clone(), format!("archive-svc-{c}")))
        .collect();
    let spaces = attach(&mut eng, &pairs, &spans);
    ph.attach = secs(t);

    // Workload: open-loop writes, reads and (leased pods) lookups.
    let t = Instant::now();
    let io = Io::new(spans.clone());
    let mut timers: Vec<TimerId> = Vec::new();
    let mut streams = Vec::new();
    for (c, (info, dev)) in spaces.iter().enumerate() {
        let c64 = c as u64;
        let stagger = Duration::from_millis(7 * c64 % 97);
        let stream = Stream::new(c64, dev.clone(), 0, POD_WRITE_LEN, POD_SLOTS, c64);
        streams.push(stream.clone());
        let io2 = io.clone();
        timers.push(
            sim.every(POD_WRITE_EVERY + stagger, POD_WRITE_EVERY, move |sim| {
                stream.write_next(sim, &io2, |_, _| {});
            }),
        );
        let io2 = io.clone();
        let dev = dev.clone();
        let mut rng = rng_for(o.seed, c64);
        timers.push(
            sim.every(POD_READ_EVERY + stagger, POD_READ_EVERY, move |sim| {
                let off = POD_READ_BASE + rng.u64_below(POD_READ_SPAN / PAGE) * PAGE;
                io2.read(sim, &dev, off, POD_READ_LEN, Expect::Zeros, |_, _| {});
            }),
        );
        if r.lease.is_some() {
            // Directory refreshes: the first misses and asks the Master,
            // later ones inside the lease are served from cache.
            let client = clients[c].clone();
            let name = info.name;
            let log = io.log.clone();
            let sp = spans.clone();
            let stagger = Duration::from_millis(11 * c64 % 103);
            timers.push(
                sim.every(POD_READ_EVERY + stagger, POD_READ_EVERY, move |sim| {
                    let due = sim.now();
                    let log = log.clone();
                    log.borrow_mut().lookups += 1;
                    let sp2 = sp.clone();
                    let span = sp.open("core.clientlib", "UStoreClient::lookup", Some(sim));
                    client.lookup(sim, name, move |sim, r| {
                        sp2.close(span, Some(sim));
                        let mut l = log.borrow_mut();
                        match r {
                            Ok(_) => l
                                .lookup_ns
                                .push(sim.now().saturating_duration_since(due).as_nanos() as u64),
                            Err(_) => l.lookup_errors += 1,
                        }
                    });
                }),
            );
        }
    }
    let busy0 = usb_busy(&sim);
    let energy0 = sys.as_ref().map(disk_energy_j);
    io.window_end.set(sim.now() + r.window);
    eng.advance(r.window, &spans);
    for id in timers {
        sim.cancel_timer(id);
    }
    if let Some(sys) = &sys {
        facts.disk_power_w = (disk_energy_j(sys) - energy0.unwrap_or(0.0)) / r.window.as_secs_f64();
        facts.usb_root_busy_frac = busy_frac(&busy0, &usb_busy(&sim), r.window, r.units);
    }
    eng.advance(GRACE, &spans);
    io.log.borrow_mut().close_grace();
    io.log.borrow_mut().window_s = r.window.as_secs_f64();
    (facts.verify_issued, facts.verify_passed) =
        verify_streams(&mut eng, &streams, o.seed, GRACE, &spans);
    drop((streams, spaces, pairs, clients));
    ph.workload = secs(t);
    let sched1 = procfs::task_schedstats();
    facts.io = io.log.borrow().clone();

    // Export, then teardown.
    let t = Instant::now();
    let mut prof = None;
    let trace = match (eng, sys) {
        (Engine::Classic(_), Some(sys)) => {
            export_classic(&sys, scraper.as_ref(), &spans, &mut facts);
            ph.export = secs(t);
            let t = Instant::now();
            drop((scraper, _dog));
            teardown_classic(sys, &spans);
            ph.teardown = secs(t);
            tracer.snapshot()
        }
        (Engine::Sharded(pod), _) => {
            let control = spans.time("sim", "Sim::metrics_snapshot", Some(&sim), || {
                sim.metrics_snapshot()
            });
            facts.rpc_rtt_p99_ns = merged_histogram(&control, "rpc.rtt_ns")
                .quantile(0.99)
                .unwrap_or(0);
            facts.epochs = pod.epochs();
            facts.sync_rounds = pod.sync_rounds();
            facts.cross_messages = pod.cross_messages();
            prof = pod.prof_snapshot();
            let trace = pod.trace_snapshot();
            let sim_s = pod.now().as_secs_f64();
            drop(sim);
            // Finalizing a world exports its telemetry and tears its engine
            // down in one call, so world teardown is timed here.
            let worlds = spans.time("shard", "ShardedPod::finalize", None, || pod.finalize());
            absorb_worlds(&worlds, r.units, r.groups, sim_s, &mut facts);
            ph.export = secs(t);
            let t = Instant::now();
            drop(worlds);
            ph.teardown = secs(t);
            trace
        }
        _ => unreachable!("classic engine carries its system"),
    };
    let run_s = secs(run0);
    let alloc1 = alloc_counts();
    Outcome {
        run_s,
        phases: ph,
        cpu_s: procfs::process_cpu_s() - cpu0,
        steal_s: procfs::steal_s() - steal0,
        runq_wait_s: procfs::runq_wait_between(&sched0, &sched1),
        allocs: alloc1.0 - alloc0.0,
        alloc_bytes: alloc1.1 - alloc0.1,
        sim: Rc::new(facts),
        trace,
        prof,
        refailover_s: None,
        spans,
    }
}

/// Folds the sharded engine's per-world exports into `facts`. Metric
/// names repeat across the units inside one world, so per-disk gauges
/// (energy) hold the world's last unit: they are scaled by units per
/// world, an estimate over a sample of one unit per world.
fn absorb_worlds(
    worlds: &[WorldTelemetry],
    units: u32,
    groups: u32,
    sim_s: f64,
    facts: &mut SimFacts,
) {
    let per_world = units.div_ceil(groups);
    let mut digest = 0u64;
    let mut energy_j = 0.0;
    for w in worlds {
        digest = digest.rotate_left(7) ^ digest_of(&w.metrics_json, &w.spans_json, &w.scrape_csv);
        facts.events += w.events;
        facts.peak_queue_depth = facts.peak_queue_depth.max(w.peak_queue_depth);
        facts.log_len += w.partition_logs.iter().map(|&(_, l)| l).sum::<u64>();
        let mut keys: Vec<&str> = w
            .scrape_csv
            .lines()
            .skip(1)
            .filter_map(|l| l.rsplitn(3, ',').nth(2))
            .collect();
        keys.dedup();
        facts.series += keys.len() as u64;
        let doc = minijson::parse(&w.metrics_json).expect("world metrics export is valid JSON");
        let counters = doc.get("counters").map_or(&[][..], |c| c.members());
        for (key, v) in counters {
            let Some((_, name)) = key.rsplit_once('/') else {
                continue;
            };
            let v = v.num().unwrap_or(0.0) as u64;
            if COUNTERS.contains(&name) {
                *facts.counters.entry(name.to_string()).or_insert(0) += v;
            }
            if w.world > 0 && name.starts_with("usb.link_") {
                let frac = v as f64 / (sim_s * 1e9 * f64::from(per_world));
                facts.usb_root_busy_frac = facts.usb_root_busy_frac.max(frac);
            }
        }
        let gauges = doc.get("gauges").map_or(&[][..], |g| g.members());
        energy_j += gauges
            .iter()
            .filter(|(k, _)| k.ends_with("/power.energy_j"))
            .filter_map(|(_, v)| v.num())
            .sum::<f64>()
            * f64::from(per_world);
    }
    for name in COUNTERS {
        facts.counters.entry(name.to_string()).or_insert(0);
    }
    facts.digest = digest;
    facts.disk_power_w = energy_j / sim_s;
}

// ---- unit-ingest-restore ------------------------------------------------

/// Spaces allocated on the unit (one per disk when the allocator spreads).
const INGEST_SPACES: usize = 16;
/// Ingest write size.
const INGEST_WRITE_LEN: u64 = 1 << 20;
/// Upper bound of an ingest client's think time between writes.
const INGEST_THINK: Duration = Duration::from_millis(2);
/// Each ingest stream wraps inside 8 × 1 MiB = 8 MiB.
const INGEST_SLOTS: u64 = 8;
/// Restore objects: 64 KiB each, 16 per space, preloaded during attach.
const RESTORE_LEN: u64 = 64 << 10;
const RESTORE_OBJS: u64 = 16;
const RESTORE_BASE: u64 = 512 << 20;
/// Payload stream ids of the preloaded restore objects.
const RESTORE_STREAM: u64 = 1 << 20;
/// ClientLib IO timeout on the cold unit: longer than a 7 s spin-up, as
/// a cold-tier client's must be. With the default 800 ms every cold read
/// times out, remounts and retries until the disk is up.
const COLD_IO_TIMEOUT: Duration = Duration::from_secs(15);
/// Mean restore reads per second.
const RESTORE_RATE: f64 = 120.0;
/// Zipf skew of restore popularity over objects.
const RESTORE_SKEW: f64 = 0.9;

fn ingest_window(size: Size) -> Duration {
    match size {
        Size::Full => Duration::from_secs(15),
        Size::Tiny => Duration::from_secs(5),
    }
}

/// Builds the ingest unit: EndPoints spin idle disks down after 3 s, and
/// the ClientLib waits out a spin-up instead of remounting.
fn build_ingest(o: &Opts, spans: &BenchSpans, tracer: &RequestTracer) -> UStoreSystem {
    spans.time("core", "UStoreSystem::build", None, || {
        let sim = Sim::new(o.seed);
        sim.set_reqtracer(tracer.clone());
        UStoreSystem::build(
            sim,
            SystemConfig {
                endpoint: EndpointConfig {
                    idle_spin_down: Duration::from_secs(3),
                    idle_check: Duration::from_secs(1),
                    ..EndpointConfig::default()
                },
                clientlib: ClientLibConfig {
                    io_timeout: COLD_IO_TIMEOUT,
                    ..ClientLibConfig::default()
                },
                ..SystemConfig::default()
            },
        )
    })
}

fn run_ingest(o: &Opts) -> Outcome {
    let spans = spans_for(o);
    let tracer = tracer_for(o);
    let window = ingest_window(o.size);
    let sys = build_ingest(o, &spans, &tracer);
    let sim = sys.sim.clone();
    let mut eng = Engine::Classic(sim.clone());
    let mut ph = Phases::default();
    let mut facts = SimFacts::default();
    let sched0 = procfs::task_schedstats();
    let cpu0 = procfs::process_cpu_s();
    let steal0 = procfs::steal_s();
    let alloc0 = alloc_counts();
    let run0 = Instant::now();

    let t = Instant::now();
    sim.with_trace(|t| t.set_min_level(TraceLevel::Warn));
    spans.time("core", "UStoreSystem::settle", Some(&sim), || sys.settle());
    assert!(sys.active_master().is_some(), "bring-up elects a master");
    let scraper = sys.start_telemetry(ScraperConfig {
        interval: SCRAPE,
        retention: 1024,
    });
    ph.settle = secs(t);

    // Attach: one client per space, one space per service.
    let t = Instant::now();
    let pairs: Vec<(UStoreClient, String)> = (0..INGEST_SPACES)
        .map(|i| {
            (
                sys.client(&format!("archive-{i}")),
                format!("archive-svc-{i}"),
            )
        })
        .collect();
    let spaces = attach(&mut eng, &pairs, &spans);
    ph.attach = secs(t);

    // Ingest goes to every space behind the two hosts serving the most
    // spaces; the most popular restore objects live on those spaces, so
    // hot reads contend with ingest and the tail lands on sleeping disks.
    let t = Instant::now();
    let host_of = |info: &SpaceInfo| {
        sys.runtime
            .attached_host(info.name.disk)
            .expect("space's disk is attached")
    };
    let mut per_host: BTreeMap<HostId, usize> = BTreeMap::new();
    for (info, _) in &spaces {
        *per_host.entry(host_of(info)).or_insert(0) += 1;
    }
    let mut hosts: Vec<(HostId, usize)> = per_host.into_iter().collect();
    hosts.sort_by_key(|&(h, n)| (std::cmp::Reverse(n), h));
    let ingest_hosts: Vec<HostId> = hosts.iter().take(2).map(|&(h, _)| h).collect();
    let mut order: Vec<usize> = (0..spaces.len()).collect();
    order.sort_by_key(|&s| {
        (
            !ingest_hosts.contains(&host_of(&spaces[s].0)),
            spaces[s].0.name.disk,
        )
    });

    // Warm-up: every space's restore objects are preloaded while the
    // ingest streams start, so ingest disks never idle and every other
    // disk spins down before the window opens.
    let preload = Io::new(spans.clone());
    for (s, (_, dev)) in spaces.iter().enumerate() {
        let stream = Stream::new(
            RESTORE_STREAM + s as u64,
            dev.clone(),
            RESTORE_BASE,
            RESTORE_LEN,
            RESTORE_OBJS,
            0,
        );
        for _ in 0..RESTORE_OBJS {
            stream.write_next(&sim, &preload, |_, ok| {
                assert!(ok, "restore preload acknowledged")
            });
        }
    }
    let io = Io::new(spans.clone());
    io.window_start.set(sim.now() + QUIET);
    io.window_end.set(sim.now() + QUIET + window);
    let streams: Vec<Rc<Stream>> = order
        .iter()
        .take_while(|&&s| ingest_hosts.contains(&host_of(&spaces[s].0)))
        .map(|&s| {
            Stream::new(
                s as u64,
                spaces[s].1.clone(),
                0,
                INGEST_WRITE_LEN,
                INGEST_SLOTS,
                0,
            )
        })
        .collect();
    for (i, s) in streams.iter().enumerate() {
        let rng = Rc::new(RefCell::new(rng_for(o.seed, 0x1A6E57 + i as u64)));
        s.run_closed(&sim, &io, INGEST_THINK, rng);
    }
    eng.advance(QUIET, &spans);
    assert_eq!(
        preload.log.borrow().write_ns.len() as u64,
        RESTORE_OBJS * INGEST_SPACES as u64,
        "preload complete"
    );
    let mut rng = rng_for(o.seed, 0x2E57);
    let objects = spaces.len() * RESTORE_OBJS as usize;
    let restores = generate(
        &TraceConfig {
            objects,
            skew: RESTORE_SKEW,
            peak_per_hour: RESTORE_RATE * 3600.0,
            trough_ratio: 1.0,
            read_fraction: 1.0,
        },
        window,
        &mut rng,
    );
    let start = sim.now();
    let hot = streams.len() * RESTORE_OBJS as usize;
    for op in restores {
        // The most popular objects go round-robin over the ingest spaces,
        // the rest round-robin over the others.
        let (base, len, rank) = if op.object < hot {
            (0, streams.len(), op.object)
        } else {
            (streams.len(), spaces.len() - streams.len(), op.object - hot)
        };
        let s = order[base + rank % len];
        let obj = (rank / len) as u64;
        let dev = spaces[s].1.clone();
        let io2 = io.clone();
        sim.schedule_at(
            start.saturating_add(op.at.saturating_duration_since(SimTime::ZERO)),
            move |sim| {
                let expect = Expect::Payload {
                    stream: RESTORE_STREAM + s as u64,
                    gen: obj,
                    write_len: RESTORE_LEN,
                    at: 0,
                };
                io2.read(
                    sim,
                    &dev,
                    RESTORE_BASE + obj * RESTORE_LEN,
                    RESTORE_LEN,
                    expect,
                    |_, _| {},
                );
            },
        );
    }
    let busy0 = usb_busy(&sim);
    let energy0 = disk_energy_j(&sys);
    eng.advance(window, &spans);
    facts.disk_power_w = (disk_energy_j(&sys) - energy0) / window.as_secs_f64();
    facts.usb_root_busy_frac = busy_frac(&busy0, &usb_busy(&sim), window, 1);
    eng.advance(COLD_GRACE, &spans);
    io.log.borrow_mut().close_grace();
    io.log.borrow_mut().window_s = window.as_secs_f64();
    (facts.verify_issued, facts.verify_passed) =
        verify_streams(&mut eng, &streams, o.seed, COLD_GRACE, &spans);
    drop((streams, spaces, pairs));
    ph.workload = secs(t);
    let sched1 = procfs::task_schedstats();
    facts.io = io.log.borrow().clone();

    let t = Instant::now();
    export_classic(&sys, Some(&scraper), &spans, &mut facts);
    ph.export = secs(t);
    let t = Instant::now();
    drop(scraper);
    teardown_classic(sys, &spans);
    ph.teardown = secs(t);
    let run_s = secs(run0);
    let alloc1 = alloc_counts();
    Outcome {
        run_s,
        phases: ph,
        cpu_s: procfs::process_cpu_s() - cpu0,
        steal_s: procfs::steal_s() - steal0,
        runq_wait_s: procfs::runq_wait_between(&sched0, &sched1),
        allocs: alloc1.0 - alloc0.0,
        alloc_bytes: alloc1.1 - alloc0.1,
        sim: Rc::new(facts),
        trace: tracer.snapshot(),
        prof: None,
        refailover_s: None,
        spans,
    }
}

// ---- unit-failover ------------------------------------------------------

/// Fresh units (one kill each) per iteration; victims cycle over hosts.
fn kills(size: Size) -> u32 {
    match size {
        Size::Full => 8,
        Size::Tiny => 1,
    }
}
const FO_READ_EVERY: Duration = Duration::from_millis(100);
const FO_WRITE_EVERY: Duration = Duration::from_millis(200);
const FO_IO_LEN: u64 = 4096;
/// Healthy IO before the kill, and IO after it.
const FO_BEFORE: Duration = Duration::from_secs(5);
const FO_AFTER: Duration = Duration::from_secs(25);
/// Offset of the kill from the read cadence, so no read is in flight.
const FO_KILL_PHASE: Duration = Duration::from_millis(50);
/// Repeated-failover probe timeout.
const REFAILOVER_TIMEOUT: Duration = Duration::from_secs(30);

/// A freshly built, settled prototype unit with one mounted space served
/// by `want` when the allocator offers one there.
struct Unit {
    sys: UStoreSystem,
    dev: Mounted,
    info: SpaceInfo,
}

fn unit_seed(seed: u64, k: u32) -> u64 {
    mix(seed ^ (u64::from(k) + 1).wrapping_mul(0xA24B_AED4_963E_E407))
}

fn build_unit(seed: u64, tracer: &RequestTracer, spans: &BenchSpans) -> UStoreSystem {
    spans.time("core", "UStoreSystem::build", None, || {
        let sim = Sim::new(seed);
        sim.set_reqtracer(tracer.clone());
        UStoreSystem::build(sim, SystemConfig::default())
    })
}

fn settle_and_mount(sys: UStoreSystem, want: HostId, spans: &BenchSpans, ph: &mut Phases) -> Unit {
    let t = Instant::now();
    sys.sim.with_trace(|t| t.set_min_level(TraceLevel::Warn));
    spans.time("core", "UStoreSystem::settle", Some(&sys.sim), || {
        sys.settle()
    });
    assert!(sys.active_master().is_some(), "bring-up elects a master");
    ph.settle += secs(t);
    let t = Instant::now();
    let mut eng = Engine::Classic(sys.sim.clone());
    // Four services spread over the unit's disks, one client each (a
    // client's concurrent Master calls share one master hint); the space
    // on `want` is the one driven.
    let pairs: Vec<(UStoreClient, String)> = (0..4)
        .map(|i| (sys.client(&format!("app-{i}")), format!("svc-{i}")))
        .collect();
    let spaces = attach(&mut eng, &pairs, spans);
    let (info, dev) = spaces
        .iter()
        .find(|(i, _)| sys.runtime.attached_host(i.name.disk) == Some(want))
        .unwrap_or(&spaces[0])
        .clone();
    ph.attach += secs(t);
    Unit { sys, dev, info }
}

/// Starts open-loop reads (checked, never-written range) and writes;
/// `first_ok_after` records the first successful read completing after
/// the instant it holds.
fn start_unit_io(
    u: &Unit,
    io: &Io,
    k: u64,
    seed: u64,
    watch: &Rc<Watch>,
) -> (Vec<TimerId>, Rc<Stream>) {
    let sim = &u.sys.sim;
    let stream = Stream::new(k, u.dev.clone(), 0, FO_IO_LEN, 64, 0);
    let s2 = stream.clone();
    let io2 = io.clone();
    let w = sim.every(FO_WRITE_EVERY, FO_WRITE_EVERY, move |sim| {
        s2.write_next(sim, &io2, |_, _| {})
    });
    let io2 = io.clone();
    let dev = u.dev.clone();
    let watch = watch.clone();
    let mut rng = rng_for(seed, k);
    let r = sim.every(FO_READ_EVERY, FO_READ_EVERY, move |sim| {
        let off = POD_READ_BASE + rng.u64_below(POD_READ_SPAN / PAGE) * PAGE;
        let watch = watch.clone();
        io2.read(sim, &dev, off, FO_IO_LEN, Expect::Zeros, move |sim, ok| {
            if ok {
                watch.read_ok(sim);
            }
        });
    });
    (vec![w, r], stream)
}

/// Watches for the first successful read after a kill.
#[derive(Debug, Default)]
struct Watch {
    killed_at: Cell<Option<SimTime>>,
    recovered_at: Cell<Option<SimTime>>,
}

impl Watch {
    fn arm(&self, at: SimTime) {
        self.killed_at.set(Some(at));
        self.recovered_at.set(None);
    }

    fn read_ok(&self, sim: &Sim) {
        let Some(k) = self.killed_at.get() else {
            return;
        };
        if self.recovered_at.get().is_none() && sim.now() > k {
            self.recovered_at.set(Some(sim.now()));
            // The client's first good read closes the remount phase and
            // the failover root, as the paper's measurement does.
            if let Some(s) = sim.find_open_span("failover.remount") {
                sim.span_end(s);
            }
            if let Some(s) = sim.find_open_span("failover") {
                sim.span_end(s);
            }
        }
    }

    fn recovery(&self) -> Option<f64> {
        Some(
            self.recovered_at
                .get()?
                .saturating_duration_since(self.killed_at.get()?)
                .as_secs_f64(),
        )
    }
}

fn failover_spans(sim: &Sim, t0: SimTime) -> (f64, f64, f64) {
    sim.with_spans(|t| {
        let Some(root) = t.by_name("failover").filter(|s| s.start >= t0).last() else {
            return (0.0, 0.0, 0.0);
        };
        let child = |n: &str| {
            t.children(root.id)
                .find(|c| &*c.name == n)
                .and_then(|c| c.duration())
                .map_or(0.0, |d| d.as_secs_f64())
        };
        (
            child("failover.detection"),
            child("failover.reconfiguration"),
            child("failover.remount"),
        )
    })
}

fn run_failover(o: &Opts) -> Outcome {
    let spans = spans_for(o);
    let tracer = tracer_for(o);
    let mut ph = Phases::default();
    let mut facts = SimFacts::default();
    let mut energy_j = 0.0;
    let mut window_s = 0.0;
    let mut runq_wait_s = 0.0;
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let cpu0 = procfs::process_cpu_s();
    let steal0 = procfs::steal_s();
    let alloc0 = alloc_counts();
    let mut run_s = 0.0;
    for k in 0..kills(o.size) {
        let seed = unit_seed(o.seed, k);
        let sys = build_unit(seed, &tracer, &spans);
        let sched0 = procfs::task_schedstats();
        let run0 = Instant::now();
        let victim = HostId(k % 4);
        let u = settle_and_mount(sys, victim, &spans, &mut ph);
        let sim = u.sys.sim.clone();

        let t = Instant::now();
        let mut eng = Engine::Classic(sim.clone());
        let io = Io::new(spans.clone());
        let watch = Rc::new(Watch::default());
        let (timers, stream) = start_unit_io(&u, &io, u64::from(k), seed, &watch);
        let start = sim.now();
        let energy0 = disk_energy_j(&u.sys);
        let busy0 = usb_busy(&sim);
        eng.advance(FO_BEFORE + FO_KILL_PHASE, &spans);
        let serving = u
            .sys
            .runtime
            .attached_host(u.info.name.disk)
            .expect("space's disk is attached");
        let t0 = sim.now();
        watch.arm(t0);
        spans.time("core", "UStoreSystem::kill_host", Some(&sim), || {
            u.sys.kill_host(serving)
        });
        eng.advance(FO_AFTER - FO_KILL_PHASE, &spans);
        for id in timers {
            sim.cancel_timer(id);
        }
        let window = sim.now().saturating_duration_since(start);
        energy_j += disk_energy_j(&u.sys) - energy0;
        facts.usb_root_busy_frac =
            facts
                .usb_root_busy_frac
                .max(busy_frac(&busy0, &usb_busy(&sim), window, 1));
        window_s += window.as_secs_f64();
        eng.advance(GRACE, &spans);
        io.log.borrow_mut().close_grace();
        io.log.borrow_mut().window_s = window.as_secs_f64();
        let (issued, passed) = verify_streams(&mut eng, &[stream], seed, GRACE, &spans);
        facts.verify_issued += issued;
        facts.verify_passed += passed;
        let (detect_s, reconfig_s, remount_s) = failover_spans(&sim, t0);
        facts.failovers.push(FailoverTimes {
            total_s: watch.recovery().unwrap_or(f64::INFINITY),
            detect_s,
            reconfig_s,
            remount_s,
        });
        ph.workload += secs(t);
        runq_wait_s += procfs::runq_wait_between(&sched0, &procfs::task_schedstats());
        facts.io.absorb(io.log.borrow().clone());

        let t = Instant::now();
        let mut unit = SimFacts::default();
        export_classic(&u.sys, None, &spans, &mut unit);
        facts.digest = facts.digest.rotate_left(7) ^ unit.digest;
        facts.events += unit.events;
        facts.peak_queue_depth = facts.peak_queue_depth.max(unit.peak_queue_depth);
        facts.log_len += unit.log_len;
        facts.rpc_rtt_p99_ns = facts.rpc_rtt_p99_ns.max(unit.rpc_rtt_p99_ns);
        for (n, v) in unit.counters {
            *counters.entry(n).or_insert(0) += v;
        }
        ph.export += secs(t);
        let t = Instant::now();
        drop(u.dev);
        teardown_classic(u.sys, &spans);
        ph.teardown += secs(t);
        run_s += secs(run0);
    }
    facts.counters = counters;
    facts.io.window_s = window_s;
    facts.disk_power_w = energy_j / window_s;
    let refailover_s = o.traced.then(|| refailover_probe(o.seed, &spans));
    let alloc1 = alloc_counts();
    Outcome {
        run_s,
        phases: ph,
        cpu_s: procfs::process_cpu_s() - cpu0,
        steal_s: procfs::steal_s() - steal0,
        runq_wait_s,
        allocs: alloc1.0 - alloc0.0,
        alloc_bytes: alloc1.1 - alloc0.1,
        sim: Rc::new(facts),
        trace: tracer.snapshot(),
        prof: None,
        refailover_s,
        spans,
    }
}

/// Kills the serving host, restores it once the client recovered, then
/// kills the disk's new host and waits up to [`REFAILOVER_TIMEOUT`] for a
/// successful read. Runs on its own fresh unit, outside the timed phases
/// and the digest.
fn refailover_probe(seed: u64, spans: &BenchSpans) -> Option<f64> {
    let seed = unit_seed(seed, u32::MAX);
    let sys = build_unit(seed, &RequestTracer::off(), spans);
    let u = settle_and_mount(sys, HostId(0), spans, &mut Phases::default());
    let sim = u.sys.sim.clone();
    let mut eng = Engine::Classic(sim.clone());
    let io = Io::new(spans.clone());
    let watch = Rc::new(Watch::default());
    let (timers, _stream) = start_unit_io(&u, &io, 0, seed, &watch);
    eng.advance(FO_BEFORE + FO_KILL_PHASE, spans);
    let first = u
        .sys
        .runtime
        .attached_host(u.info.name.disk)
        .expect("space's disk is attached");
    watch.arm(sim.now());
    u.sys.kill_host(first);
    eng.advance(FO_AFTER - FO_KILL_PHASE, spans);
    u.sys.restore_host(first);
    eng.advance(Duration::from_secs(10) - FO_KILL_PHASE, spans);
    let result = u
        .sys
        .runtime
        .attached_host(u.info.name.disk)
        .and_then(|second| {
            watch.arm(sim.now());
            u.sys.kill_host(second);
            eng.advance(REFAILOVER_TIMEOUT, spans);
            watch.recovery()
        });
    for id in timers {
        sim.cancel_timer(id);
    }
    drop(u.dev);
    teardown_classic(u.sys, spans);
    result
}
