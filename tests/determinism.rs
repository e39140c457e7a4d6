//! Golden determinism: the engine overhaul (key interning, slot-reuse
//! cancellation, id-keyed scraping) must not perturb simulation outcomes
//! or telemetry byte order. Two same-seed runs of each benchmark scenario
//! must produce bit-for-bit identical telemetry exports, and the tiny pod's
//! digests are pinned so a refactor that changes them fails here.

use ustore::TracePlan;
use ustore_bench::degraded::run_degraded_traced;
use ustore_bench::failover::run_failover_traced;
use ustore_bench::fuzz::{run_fuzz, FuzzOptions};
use ustore_bench::podscale::{fnv1a, run_podscale, PodConfig, PodscaleRun, RunOpts};
use ustore_sim::faultgen::{Bathtub, FaultModelConfig, FaultSchedule, FleetShape, Weibull};
use ustore_sim::{canonical_merge, Routed, SimRng, SimTime};

#[test]
fn degraded_telemetry_is_bit_for_bit_deterministic() {
    let a = run_degraded_traced(20150707);
    let b = run_degraded_traced(20150707);

    assert_eq!(
        a.events_processed, b.events_processed,
        "event counts differ"
    );
    assert_eq!(a.timing, b.timing, "phase timings differ");
    assert_eq!(
        a.telemetry.to_string(),
        b.telemetry.to_string(),
        "telemetry JSON (metrics + spans + timeline) differs"
    );
    assert_eq!(
        a.artifacts.prometheus, b.artifacts.prometheus,
        "prometheus export differs"
    );
    assert_eq!(
        a.artifacts.chrome_trace, b.artifacts.chrome_trace,
        "chrome trace differs"
    );
    assert_eq!(
        a.artifacts.timeseries_csv, b.artifacts.timeseries_csv,
        "time-series CSV differs"
    );
}

#[test]
fn degraded_telemetry_varies_with_seed() {
    // Sanity check for the test above: if the exports were constant, the
    // bit-for-bit comparison would be vacuous.
    let a = run_degraded_traced(20150707);
    let b = run_degraded_traced(19411207);
    assert_ne!(
        fnv1a(a.artifacts.timeseries_csv.as_bytes()),
        fnv1a(b.artifacts.timeseries_csv.as_bytes()),
        "different seeds produced identical CSV exports"
    );
}

/// fnv1a of `run_degraded_traced(20150707)`'s Prometheus, Chrome-trace and
/// CSV artifacts.
const GOLDEN_DEGRADED_ARTIFACTS: [u64; 3] = [
    0xeaef_c940_ba3f_1d41,
    0x89b2_ed71_95ee_b2cc,
    0x5752_41ca_3b9e_865c,
];

/// `run_failover_traced(20150707, u32::MAX)`: fnv1a of its span tree and
/// its detection, reconfiguration, restore and total durations in ns. Its
/// metrics are deliberately not pinned (they count USB detaches).
const GOLDEN_FAILOVER: (u64, [u128; 4]) = (
    0xcb87_1190_0974_d74a,
    [1_000_000_000, 510_452_016, 4_101_954_084, 5_612_406_100],
);

#[test]
fn degraded_artifacts_are_pinned() {
    let a = run_degraded_traced(20150707).artifacts;
    let got = [&a.prometheus, &a.chrome_trace, &a.timeseries_csv].map(|x| fnv1a(x.as_bytes()));
    assert_eq!(got, GOLDEN_DEGRADED_ARTIFACTS, "degraded artifacts changed");
}

#[test]
fn failover_spans_and_phases_are_pinned() {
    let run = run_failover_traced(20150707, u32::MAX);
    let spans = run.telemetry.get("spans").expect("span tree").to_string();
    let t = &run.timing;
    let phases = [t.detection, t.reconfiguration, t.restore, t.total].map(|d| d.as_nanos());
    assert_eq!(
        (fnv1a(spans.as_bytes()), phases),
        GOLDEN_FAILOVER,
        "failover span tree or phase timing changed"
    );
}

/// Pinned `(telemetry digest, events)` of the tiny pod at seed 7: the
/// classic engine, the sharded engine (any shard count) and the sharded
/// partitioned + leased pod. Re-golden one line only for a deliberate
/// change to what the pod simulates or exports.
const GOLDEN_TINY_CLASSIC: (u64, u64) = (0xc9a7_edaf_2b1d_723a, 2_747);
const GOLDEN_TINY_SHARDED: (u64, u64) = (0x823c_6198_71cf_bc88, 3_232);
const GOLDEN_TINY_PARTITIONED_LEASED: (u64, u64) = (0xce43_6add_e6a0_2d54, 5_613);

/// Pinned sharded-engine counters `(epochs, sync_rounds, cross_messages)`
/// of the same two sharded runs: the scheduler's decisions, which must
/// not drift when the engine loop is restructured (any shard count).
const GOLDEN_TINY_SHARDED_ENGINE: (u64, u64, u64) = (387, 1_057, 522);
const GOLDEN_TINY_PARTITIONED_LEASED_ENGINE: (u64, u64, u64) = (387, 1_203, 1_662);

fn assert_golden(run: &PodscaleRun, golden: (u64, u64), name: &str) {
    assert_eq!(
        (run.digest, run.events),
        golden,
        "{name}: digest {:#018x} / {} events drifted from the pinned golden",
        run.digest,
        run.events
    );
}

fn assert_engine_golden(run: &PodscaleRun, golden: (u64, u64, u64), name: &str) {
    let s = run.sharding.as_ref().expect("shard stats");
    assert_eq!(
        (s.epochs, s.sync_rounds, s.cross_messages),
        golden,
        "{name} at --shards {}: (epochs, sync_rounds, cross_messages) drifted \
         from the pinned golden",
        s.shards
    );
}

fn classic() -> RunOpts {
    RunOpts::default()
}

fn profiled(shards: Option<usize>) -> RunOpts {
    RunOpts {
        shards,
        profile: true,
        trace: None,
    }
}

fn traced(shards: Option<usize>) -> RunOpts {
    RunOpts {
        shards,
        profile: false,
        trace: Some(TracePlan::default()),
    }
}

#[test]
fn podscale_digest_is_deterministic_across_same_seed_runs() {
    let cfg = PodConfig::tiny();
    let a = run_podscale(7, &cfg, &classic());
    let b = run_podscale(7, &cfg, &classic());
    assert_eq!(a.events, b.events, "event counts differ");
    assert_eq!(a.digest, b.digest, "telemetry digests differ");
    assert_eq!(
        a.telemetry.to_string(),
        b.telemetry.to_string(),
        "pod telemetry JSON differs"
    );
    assert_golden(&a, GOLDEN_TINY_CLASSIC, "classic tiny pod");
}

/// Golden test for the sharded parallel engine: the same pod, same seed,
/// executed on 1, 2 and 4 threads must produce byte-identical telemetry
/// digests. The decomposition (world count, RNG streams, registries) is
/// fixed by the scenario; only the executor thread count varies, so any
/// divergence means cross-shard message ordering leaked thread timing
/// into simulation state.
#[test]
fn podscale_sharded_digest_is_identical_for_shards_1_2_4() {
    let cfg = PodConfig::tiny();
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|s| (s, run_podscale(7, &cfg, &RunOpts::sharded(s))))
        .collect();
    let (_, base) = &runs[0];
    assert!(base.writes_ok > 0 && base.reads_ok > 0, "workload served");
    assert_eq!(base.io_errors, 0, "healthy pod serves all IO");
    assert_golden(base, GOLDEN_TINY_SHARDED, "sharded tiny pod");
    for (_, run) in &runs {
        assert_engine_golden(run, GOLDEN_TINY_SHARDED_ENGINE, "sharded tiny pod");
    }
    for (s, run) in &runs[1..] {
        assert_eq!(
            run.digest, base.digest,
            "telemetry digest diverged at --shards {s}"
        );
        assert_eq!(
            run.events, base.events,
            "event count diverged at --shards {s}"
        );
        assert_eq!(run.writes_ok, base.writes_ok);
        assert_eq!(run.reads_ok, base.reads_ok);
        let (a, b) = (
            base.sharding.as_ref().expect("shard stats"),
            run.sharding.as_ref().expect("shard stats"),
        );
        assert_eq!(
            a.epochs, b.epochs,
            "epoch window count diverged at --shards {s}"
        );
        assert_eq!(
            a.sync_rounds, b.sync_rounds,
            "sync round count diverged at --shards {s} — the adaptive \
             scheduler let thread timing into a scheduling decision"
        );
        assert_eq!(
            a.cross_messages, b.cross_messages,
            "cross-world traffic diverged at --shards {s}"
        );
    }
}

/// Golden test for the partitioned control plane on the sharded engine:
/// with one metadata partition per unit-group world (replica groups
/// co-located with their units, so the lookahead matrix gains
/// same-partition edges) and client location leases on, the telemetry
/// digest must still be bit-identical at every executor thread count.
/// This is the determinism gate for both new mechanisms at once: the
/// partition routing and the widened lookahead can change *scheduling*,
/// never *outcomes*.
#[test]
fn partitioned_leased_sharded_digest_is_identical_for_shards_1_2_4() {
    let cfg = PodConfig::tiny().partitioned();
    assert!(cfg.partitions > 1, "partitioned shape under test");
    let runs: Vec<_> = [1usize, 2, 4]
        .into_iter()
        .map(|s| (s, run_podscale(7, &cfg, &RunOpts::sharded(s))))
        .collect();
    let (_, base) = &runs[0];
    assert!(base.writes_ok > 0 && base.reads_ok > 0, "workload served");
    assert_eq!(base.io_errors, 0, "healthy pod serves all IO");
    assert_golden(
        base,
        GOLDEN_TINY_PARTITIONED_LEASED,
        "partitioned leased tiny pod",
    );
    for (_, run) in &runs {
        assert_engine_golden(
            run,
            GOLDEN_TINY_PARTITIONED_LEASED_ENGINE,
            "partitioned leased tiny pod",
        );
    }
    for (s, run) in &runs[1..] {
        assert_eq!(
            run.digest, base.digest,
            "partitioned telemetry digest diverged at --shards {s}"
        );
        assert_eq!(run.events, base.events);
        assert_eq!(run.writes_ok, base.writes_ok);
        assert_eq!(run.reads_ok, base.reads_ok);
        assert_eq!(
            run.partition_logs, base.partition_logs,
            "per-partition log lengths diverged at --shards {s}"
        );
        let (a, b) = (
            base.sharding.as_ref().expect("shard stats"),
            run.sharding.as_ref().expect("shard stats"),
        );
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.sync_rounds, b.sync_rounds);
        assert_eq!(a.cross_messages, b.cross_messages);
    }
    // The monolithic pod at the same seed is a different scenario (extra
    // replica groups, refresh lookups): its digest must differ, or the
    // partitioned comparison above is vacuous.
    let mono = run_podscale(7, &PodConfig::tiny(), &RunOpts::sharded(2));
    assert_ne!(
        mono.digest, base.digest,
        "partitioned and monolithic scenarios produced identical telemetry"
    );
}

/// Equivalence of the partitioned Master with the monolithic one: the
/// partition map changes *where metadata lives*, never *what it says*.
/// The same allocation workload against partitions=1 and partitions=4
/// must yield identical spaces, identical lookup answers, and — after the
/// active master is killed and the standby rebuilds from the replicated
/// logs — identical recovered state.
#[test]
fn partitioned_master_agrees_with_monolithic_on_allocate_lookup_recover() {
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;
    use ustore::{MasterConfig, SpaceInfo, SystemConfig, UStoreSystem};

    fn run_scenario(partitions: u32) -> (Vec<SpaceInfo>, Vec<SpaceInfo>) {
        let sim = ustore_sim::Sim::new(0xE0_0415);
        let s = UStoreSystem::build(
            sim,
            SystemConfig {
                units: 4,
                master: MasterConfig {
                    partitions,
                    ..MasterConfig::default()
                },
                ..SystemConfig::default()
            },
        );
        s.settle();
        let client = s.client("equiv");
        let run_for = |secs: u64| s.sim.run_until(s.sim.now() + Duration::from_secs(secs));
        // A serialized request sequence: each allocate observes the
        // state left by the previous one, so the balance rule's answer
        // is a pure function of the sequence — the property under test.
        // (Concurrent allocates would commit in a transport-dependent
        // interleaving, which partitioning legitimately changes.)
        let allocated: Rc<RefCell<Vec<Option<SpaceInfo>>>> = Rc::new(RefCell::new(vec![None; 8]));
        for i in 0..8usize {
            let out = allocated.clone();
            client.allocate(&s.sim, format!("svc-{i}"), 1 << 30, move |_, r| {
                out.borrow_mut()[i] = Some(r.expect("allocate"));
            });
            run_for(3);
        }
        let allocated: Vec<SpaceInfo> = allocated
            .borrow()
            .iter()
            .map(|o| o.clone().expect("allocation served"))
            .collect();
        // Fail the active master over; the standby rebuilds SysConf from
        // the replicated logs (all partitions) before serving lookups.
        let active = s
            .masters
            .iter()
            .position(|m| m.is_active())
            .expect("active master");
        s.kill_master(active);
        run_for(40);
        // One concurrent batch: every lookup first times out on the dead
        // Master, and the shared master hint must still lead each one to
        // the new active Master.
        let recovered: Rc<RefCell<Vec<Option<SpaceInfo>>>> = Rc::new(RefCell::new(vec![None; 8]));
        for (i, info) in allocated.iter().enumerate() {
            let out = recovered.clone();
            client.lookup(&s.sim, info.name, move |_, r| {
                out.borrow_mut()[i] = Some(r.expect("lookup after failover"));
            });
        }
        run_for(24);
        let recovered: Vec<SpaceInfo> = recovered
            .borrow()
            .iter()
            .map(|o| o.clone().expect("lookup served"))
            .collect();
        s.sim.teardown();
        (allocated, recovered)
    }

    let (mono_alloc, mono_rec) = run_scenario(1);
    let (part_alloc, part_rec) = run_scenario(4);
    assert_eq!(
        mono_alloc, part_alloc,
        "allocation answers differ between monolithic and partitioned Master"
    );
    assert_eq!(
        mono_rec, part_rec,
        "post-failover lookup answers differ between monolithic and partitioned Master"
    );
    for (a, r) in mono_alloc.iter().zip(&mono_rec) {
        assert_eq!(a.name, r.name);
        assert_eq!(a.size, r.size, "recovered extent size drifted");
    }
}

/// Property test for the adaptive scheduler's safety precondition: the
/// per-pair lookahead matrix handed to the coordinator must never exceed
/// the true minimum cross-world delivery latency for any reachable pair.
/// If an entry overstated the real minimum, a message could arrive inside
/// an epoch bound the scheduler already committed to — unsound.
///
/// The pod builds its matrix from the network's `base_latency` over the
/// control-plane star. Here we drive the same routing layer with
/// randomized payload sizes and destinations (deterministic LCG) and check
/// every observed routed envelope clears its pair's matrix entry.
#[test]
fn lookahead_matrix_never_undercuts_observed_path_latency() {
    use std::sync::Arc;
    use std::time::Duration;
    use ustore_net::{Addr, NetConfig, Network};
    use ustore_sim::{FastMap, LookaheadMatrix, Sim};

    const WORLDS: usize = 5;
    let cfg = NetConfig::default();
    let matrix = Arc::new(LookaheadMatrix::from_reachability(
        WORLDS,
        cfg.base_latency,
        // The pod's control-plane star: world 0 talks to everyone,
        // leaf worlds only talk to world 0.
        |src, dst| src == 0 || dst == 0,
    ));
    assert_eq!(
        matrix.min_finite(),
        Some(cfg.base_latency),
        "star matrix floor is the network base latency"
    );
    assert!(
        !matrix.reachable(1, 2),
        "leaf worlds do not talk to each other"
    );

    let mut placement = FastMap::default();
    let addrs: Vec<Addr> = (0..WORLDS)
        .map(|w| {
            let a = Addr::new(format!("w{w}"));
            placement.insert(a.clone(), w);
            a
        })
        .collect();
    let placement = Arc::new(placement);

    let mut state = 0x5EED_1A7E_9C3Fu64;
    let mut rand = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };

    let mut routed = 0u64;
    let mut out = Vec::new();
    for src in 0..WORLDS {
        let sim = Sim::new(0xC0FF_EE00 + src as u64);
        let net = Network::new(cfg.clone());
        net.enable_shard_routing(src, placement.clone(), matrix.clone());
        net.register(&addrs[src]);
        // Advance virtual time so latencies are measured off a nonzero now.
        sim.schedule_in(Duration::from_millis(rand(50)), |_| {});
        sim.run();
        for _ in 0..64 {
            let dst = if src == 0 {
                1 + rand(WORLDS as u64 - 1) as usize
            } else {
                0 // the only world a leaf can reach
            };
            let bytes = rand(1 << 20);
            net.send(&sim, &addrs[src], &addrs[dst], bytes, Arc::new(bytes));
        }
        net.drain_outbox_into(&mut out);
        for r in out.drain(..) {
            routed += 1;
            assert!(
                matrix.reachable(r.src_world, r.dst_world),
                "routed envelope {} -> {} over a pair the matrix excludes",
                r.src_world,
                r.dst_world
            );
            let latency = r.deliver_at.duration_since(sim.now());
            let bound = Duration::from_nanos(matrix.get_ns(r.src_world, r.dst_world));
            assert!(
                latency >= bound,
                "observed delivery latency {:?} undercuts the lookahead \
                 matrix entry {:?} for pair {} -> {}",
                latency,
                bound,
                r.src_world,
                r.dst_world
            );
        }
    }
    assert_eq!(routed, WORLDS as u64 * 64, "every randomized send routed");
}

/// Golden test for the wall-clock profiler: it observes the engine from a
/// monotonic-clock side channel and must never feed back into simulation
/// state. Enabling it leaves every shard count's telemetry digest
/// bit-identical to the unprofiled run.
#[test]
fn profiling_leaves_sharded_digests_bit_identical() {
    let cfg = PodConfig::tiny();
    for shards in [1usize, 2, 4] {
        let plain = run_podscale(7, &cfg, &RunOpts::sharded(shards));
        let profiled = run_podscale(7, &cfg, &profiled(Some(shards)));
        assert_eq!(
            profiled.digest, plain.digest,
            "profiling changed the telemetry digest at --shards {shards}"
        );
        assert_eq!(profiled.events, plain.events);
        assert!(
            profiled.prof.is_some() && profiled.traffic.is_some(),
            "profiled run captured its snapshots"
        );
        assert!(plain.prof.is_none() && plain.traffic.is_none());
    }
    let plain = run_podscale(7, &cfg, &classic());
    let profiled = run_podscale(7, &cfg, &profiled(None));
    assert_eq!(
        profiled.digest, plain.digest,
        "profiling changed the classic engine's telemetry digest"
    );
}

/// Golden test for the request-lifecycle tracer: like the profiler it is
/// a pure observability side channel — no RNG draws, no scheduled events,
/// no digested telemetry. Enabling it leaves every shard count's
/// telemetry digest bit-identical to the untraced run, and the classic
/// engine's too.
#[test]
fn tracing_leaves_sharded_digests_bit_identical() {
    let cfg = PodConfig::tiny();
    for shards in [1usize, 2, 4] {
        let plain = run_podscale(7, &cfg, &RunOpts::sharded(shards));
        let traced = run_podscale(7, &cfg, &traced(Some(shards)));
        assert_eq!(
            traced.digest, plain.digest,
            "tracing changed the telemetry digest at --shards {shards}"
        );
        assert_eq!(traced.events, plain.events);
        let snap = traced.slo.as_ref().expect("traced run captured snapshot");
        assert!(snap.seen > 0, "tracer saw the pod's requests");
        assert!(plain.slo.is_none());
    }
    let plain = run_podscale(7, &cfg, &classic());
    let traced = run_podscale(7, &cfg, &traced(None));
    assert_eq!(
        traced.digest, plain.digest,
        "tracing changed the classic engine's telemetry digest"
    );
    assert_eq!(traced.events, plain.events);
}

/// The profiler's phase accounting must tile the run: each world's phase
/// sums approximate the measured wall time of the run window. The bounds
/// are generous — CI machines are noisy and the tiny pod runs for
/// milliseconds — but they reject both gross undercounting (a phase not
/// instrumented) and double counting (a phase attributed twice).
#[test]
fn profiled_phase_sums_approximate_measured_wall_time() {
    let run = run_podscale(7, &PodConfig::tiny(), &profiled(Some(2)));
    let prof = run.prof.expect("profiled run has a snapshot");
    let wall_ns = run.run_wall_seconds * 1e9;
    assert!(wall_ns > 0.0);
    for w in &prof.worlds {
        let ratio = w.total_ns() as f64 / wall_ns;
        assert!(
            (0.5..=1.5).contains(&ratio),
            "world {}: phase sum is {:.0}% of wall time (sum {} ns, wall {:.0} ns)",
            w.world,
            ratio * 100.0,
            w.total_ns(),
            wall_ns
        );
    }
}

/// The profiler's event accounting must cover the whole run: every event
/// either engine executes happens inside a profiled execute window, so
/// the per-world event counts sum to the run's event count — on the
/// classic engine (its settle window included) and on every world of the
/// sharded engine, whichever thread hosts it.
#[test]
fn profiled_event_counts_cover_every_executed_event() {
    let cfg = PodConfig::tiny();
    for shards in [None, Some(1), Some(2), Some(4)] {
        let run = run_podscale(7, &cfg, &profiled(shards));
        let prof = run.prof.expect("profiled run has a snapshot");
        let per_world: Vec<u64> = prof.worlds.iter().map(|w| w.events).collect();
        assert_eq!(
            per_world.iter().sum::<u64>(),
            run.events,
            "shards {shards:?}: profiled per-world events {per_world:?} do not \
             add up to the run's events"
        );
    }
}

/// Property test for the fault model's lifetime samplers: at a fixed
/// seed, the empirical CDF of inverse-transform draws must track the
/// analytic CDF. The tolerance is a Kolmogorov–Smirnov-style bound with
/// slack (the seed is fixed, so the test is deterministic; the bound
/// rejects a broken transform, not an unlucky sample).
#[test]
fn weibull_and_bathtub_samples_match_the_analytic_cdf() {
    const N: usize = 4000;
    const TOL: f64 = 0.03; // ~1.6/sqrt(N) with headroom

    fn max_cdf_deviation(samples: &mut [f64], cdf: impl Fn(f64) -> f64) -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = samples.len() as f64;
        samples
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let empirical = (i as f64 + 0.5) / n;
                (cdf(t) - empirical).abs()
            })
            .fold(0.0, f64::max)
    }

    let infant = Weibull {
        shape: 0.7,
        scale: 40_000.0,
    };
    let wearout = Weibull {
        shape: 3.0,
        scale: 60_000.0,
    };
    let mut rng = SimRng::seed_from(0xCDF_CDF);
    let mut draws: Vec<f64> = (0..N).map(|_| infant.sample(&mut rng)).collect();
    let d = max_cdf_deviation(&mut draws, |t| infant.cdf(t));
    assert!(d < TOL, "infant Weibull deviates from analytic CDF: {d:.4}");

    let mut draws: Vec<f64> = (0..N).map(|_| wearout.sample(&mut rng)).collect();
    let d = max_cdf_deviation(&mut draws, |t| wearout.cdf(t));
    assert!(
        d < TOL,
        "wear-out Weibull deviates from analytic CDF: {d:.4}"
    );

    let tub = Bathtub {
        infant,
        wearout,
        infant_weight: 0.15,
    };
    let mut draws: Vec<f64> = (0..N).map(|_| tub.sample(&mut rng)).collect();
    let d = max_cdf_deviation(&mut draws, |t| tub.cdf(t));
    assert!(
        d < TOL,
        "bathtub mixture deviates from analytic CDF: {d:.4}"
    );
}

/// Golden test for the fault generator's shard invariance: schedules are
/// keyed per `(world, unit)` by the fleet's `world_groups` decomposition,
/// so the executor thread count must never reach the stream. The same
/// seed at `--shards` 1, 2 and 4 must produce the identical schedule,
/// pinned to a golden digest so silent generator drift is also caught.
#[test]
fn fault_schedules_are_identical_across_shard_counts() {
    let shape = FleetShape {
        units: 2,
        hosts_per_unit: 4,
        disks_per_unit: 8,
        fanin: 4,
        world_groups: 2,
    };
    let cfg = FaultModelConfig::reference();
    let runs: Vec<FaultSchedule> = [1usize, 2, 4]
        .into_iter()
        .map(|s| FaultSchedule::generate_for(0x5EED_FA07, &shape, &cfg, s))
        .collect();
    assert!(!runs[0].events.is_empty(), "reference model yields faults");
    assert!(
        runs[0].events.windows(2).all(|w| w[0].at <= w[1].at),
        "schedule sorted by time"
    );
    for (i, r) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            r.digest(),
            runs[0].digest(),
            "schedule diverged at shard count index {i}"
        );
        assert_eq!(r.events, runs[0].events);
        assert_eq!(r.counts(), runs[0].counts());
    }
    assert_eq!(
        runs[0].digest(),
        GOLDEN_SCHEDULE_DIGEST,
        "fault generator drifted from the golden schedule \
         (update GOLDEN_SCHEDULE_DIGEST only for a deliberate model change)"
    );
}

/// Golden digest for `FaultSchedule::generate_for(0x5EED_FA07, ..)` over
/// the 2-unit reference fleet above.
const GOLDEN_SCHEDULE_DIGEST: u64 = 0x2364_B17A_D8FD_33C8;

/// Golden replay test for the fuzzer: a short campaign with a synthetic
/// failure must catch the failure, shrink it, and a second run of the
/// identical options must reproduce the telemetry digest and the
/// minimized schedule byte-for-byte.
#[test]
fn fuzz_failing_campaign_replays_bit_identically() {
    let opts = FuzzOptions {
        seed: 0xD1_6E57,
        quick: true,
        shards: 2,
        campaigns: 1,
        synthetic_fail: true,
        replay: None,
    };
    let a = run_fuzz(&opts);
    let b = run_fuzz(&opts);

    // Both runs caught the synthetic failure and the in-run replay gate
    // (re-execution of the failing seed) held.
    for run in [&a, &b] {
        assert!(run.failing.is_some(), "synthetic failure caught");
        assert!(run.replay.matches, "in-run replay gate holds");
    }

    // Cross-run: telemetry digests, violations and the minimized
    // schedule are byte-identical.
    assert_eq!(a.campaigns.len(), b.campaigns.len());
    for (ca, cb) in a.campaigns.iter().zip(&b.campaigns) {
        assert_eq!(ca.digest, cb.digest, "campaign telemetry digest differs");
        assert_eq!(ca.schedule_digest, cb.schedule_digest);
        assert_eq!(ca.violations, cb.violations);
        assert_eq!(ca.events_processed, cb.events_processed);
    }
    let (fa, fb) = (a.failing.as_ref().unwrap(), b.failing.as_ref().unwrap());
    assert_eq!(fa.seed, fb.seed);
    assert_eq!(fa.minimized.digest(), fb.minimized.digest());
    assert_eq!(
        fa.minimized.to_json().to_string(),
        fb.minimized.to_json().to_string(),
        "minimized schedule JSON differs between runs"
    );
    assert_eq!(
        a.to_json().to_string(),
        b.to_json().to_string(),
        "full fuzz report differs between runs"
    );
}

/// Property test for the epoch barrier's merge: the canonical order of
/// cross-shard messages depends only on `(deliver_at, src_world, seq)`,
/// never on the order worker threads happened to finish and hand in
/// their outboxes.
#[test]
fn epoch_merge_order_is_independent_of_thread_finish_order() {
    // A deterministic batch of routed messages from 4 worlds, with
    // deliberate deliver-time collisions across worlds.
    let batch: Vec<Routed<u32>> = (0..4)
        .flat_map(|world| {
            (0..25u64).map(move |seq| Routed {
                deliver_at: SimTime::from_nanos(
                    1_000 + (seq * 7919 + world as u64 * 104_729) % 13 * 100,
                ),
                src_world: world,
                dst_world: (world + 1) % 4,
                seq,
                msg: (world * 100) as u32 + seq as u32,
            })
        })
        .collect();
    let canon: Vec<_> = canonical_merge(batch.clone())
        .into_iter()
        .map(|r| (r.deliver_at, r.src_world, r.seq, r.msg))
        .collect();
    // Simulate every way the per-shard outboxes could arrive: world-major
    // permutations, interleaved round-robin, reversed, and a pseudo-random
    // shuffle — the merged order must always be the canonical one.
    let mut arrivals: Vec<Vec<Routed<u32>>> = Vec::new();
    for rotation in 0..4usize {
        let mut v = Vec::new();
        for w in 0..4usize {
            let w = (w + rotation) % 4;
            v.extend(batch.iter().filter(|r| r.src_world == w).cloned());
        }
        arrivals.push(v);
    }
    arrivals.push(batch.iter().rev().cloned().collect());
    let mut shuffled = batch.clone();
    // Deterministic LCG shuffle — no RNG dependency in tests.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..shuffled.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        shuffled.swap(i, j);
    }
    arrivals.push(shuffled);
    for (i, arrival) in arrivals.into_iter().enumerate() {
        let merged: Vec<_> = canonical_merge(arrival)
            .into_iter()
            .map(|r| (r.deliver_at, r.src_world, r.seq, r.msg))
            .collect();
        assert_eq!(merged, canon, "arrival order {i} changed the merge");
    }
}
