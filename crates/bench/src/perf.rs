//! Wall-clock engine performance harness (`repro perf`).
//!
//! Every experiment in this reproduction funnels through `ustore-sim`'s
//! event loop, so the engine's wall-clock throughput bounds how big a
//! deployment the harness can explore. This module measures it with two
//! scenarios:
//!
//! - **degraded** — the PR 2 watchdog scenario: a 16-disk unit with the
//!   full telemetry pipeline on. Telemetry-heavy, the historical hot spot.
//! - **podscale** — [`crate::podscale`]: 64 units / 256 hosts / 1024
//!   disks under one Master, mixed archival workload. The scale target.
//! - **sharding** — the same pod on the sharded parallel engine
//!   ([`crate::podscale::RunOpts::shards`]) at 1, 2, 4, … threads
//!   (digests must be identical at every count), plus the 4096-disk
//!   [`crate::megapod`] at the largest count.
//!
//! For each it reports **events/sec** (engine events processed per
//! wall-clock second), **peak live queue depth**, and — when the caller
//! provides an allocation counter (the `repro` binary installs a counting
//! global allocator) — **allocations per event** and, for the pod runs,
//! **allocated bytes per written byte** (64 KiB archival writes; the
//! caller's own payload buffer counts as 1.0, so a copy of the payload
//! anywhere on the write path shows up as +1.0). Both counts are
//! deterministic, unlike the wall clock. The podscale scenario
//! runs twice with the same seed and the two telemetry digests must be
//! identical: the determinism guard for the engine's interning and heap
//! rewrites.
//!
//! Wall-clock numbers depend on the machine, so the report carries no
//! baseline from another one; compare against a run on the same machine.

use std::time::Instant;

use ustore_sim::Json;

use ustore::TracePlan;

use crate::degraded;
use crate::fuzz;
use crate::megapod;
use crate::podscale::{run_podscale, PodConfig, PodscaleRun, RunOpts, POD_WRITE_BYTES};
use crate::profile;
use crate::report::{Report, Row};
use crate::slo;

/// Perf-run options.
#[derive(Debug, Clone, Copy)]
pub struct PerfOptions {
    /// Simulation seed (shared by every measured scenario).
    pub seed: u64,
    /// Quick mode: fewer repetitions and the shorter podscale workload
    /// window (same 1024-disk pod). This is what CI runs.
    pub quick: bool,
    /// Maximum executor threads for the shard-scaling sweep (the sweep
    /// measures powers of two up to this, always including 1 and this
    /// value; the megapod runs at this value).
    pub shards: usize,
    /// Returns the process-lifetime allocation counts; measured around
    /// each run to derive allocations/event and allocated bytes per
    /// written byte. `None` leaves both metrics out.
    pub alloc_counter: Option<fn() -> AllocCount>,
}

/// Process-lifetime heap allocation totals from a counting allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocations (and reallocations) made.
    pub allocations: u64,
    /// Bytes requested by those allocations (a reallocation counts its
    /// new size).
    pub bytes: u64,
}

/// One scenario's wall-clock measurement (best of the repetitions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfSample {
    /// Virtual seconds simulated in one run.
    pub sim_seconds: f64,
    /// Engine events processed in one run.
    pub events: u64,
    /// Wall-clock seconds for the best run.
    pub wall_seconds: f64,
    /// `events / wall_seconds` for the best run.
    pub events_per_sec: f64,
    /// Peak live (non-cancelled) event-queue depth.
    pub peak_queue_depth: f64,
    /// Heap allocations per processed event, if a counter was provided.
    pub allocs_per_event: Option<f64>,
    /// Heap bytes allocated per payload byte written, if a counter was
    /// provided and the run wrote anything.
    pub alloc_bytes_per_write_byte: Option<f64>,
}

/// One point of the shard-scaling sweep.
#[derive(Debug, Clone)]
pub struct ShardSample {
    /// Executor threads.
    pub shards: usize,
    /// Wall-clock measurement of the run.
    pub sample: PerfSample,
    /// Telemetry digest of the run (must match every other point).
    pub digest: u64,
    /// Epoch windows executed.
    pub epochs: u64,
    /// Inner synchronization rounds executed.
    pub sync_rounds: u64,
    /// Envelopes routed across world boundaries.
    pub cross_messages: u64,
    /// Sum of per-world peak queue depths (whole-sim pressure; the
    /// `sample`'s `peak_queue_depth` is the per-shard max).
    pub peak_queue_depth_sum: f64,
}

/// The shard-scaling section of the perf report.
#[derive(Debug, Clone)]
pub struct ShardScaling {
    /// Unit-group worlds the pod was decomposed into.
    pub groups: u32,
    /// One measurement per shard count, ascending; `counts[0]` is the
    /// serial (1-thread) run.
    pub counts: Vec<ShardSample>,
    /// Whether every point produced the same telemetry digest — the
    /// determinism gate for the parallel engine.
    pub digests_identical: bool,
    /// `events_per_sec` at the largest shard count over the serial run.
    pub speedup_vs_serial: f64,
    /// Classic single-threaded engine wall time over the *best* (fastest)
    /// sharded point's wall time: how the parallel engine fares against
    /// the engine it is supposed to beat, not just against its own serial
    /// mode (shards-1 being 4x off classic used to hide behind
    /// `speedup_vs_serial`).
    pub speedup_vs_classic: f64,
    /// Serial (shards = 1) sharded wall time over the classic
    /// single-threaded engine's wall time on the same pod: what the epoch
    /// machinery itself costs before parallelism pays it back.
    pub shard_overhead_vs_classic: f64,
    /// The megapod (4096 disks) measured at the largest shard count.
    pub megapod: ShardSample,
    /// The megapod shape measured.
    pub megapod_pod: PodConfig,
}

/// The full perf report.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Options the run used.
    pub quick: bool,
    /// Seed the run used.
    pub seed: u64,
    /// The degraded-scenario measurement.
    pub degraded: PerfSample,
    /// The podscale measurement.
    pub podscale: PerfSample,
    /// Pod shape measured.
    pub pod: PodConfig,
    /// Telemetry digest of the podscale run (hex).
    pub podscale_digest: u64,
    /// Whether two same-seed podscale runs produced identical digests.
    pub deterministic: bool,
    /// The sharded-engine scaling sweep (pod at 1..=N shards + megapod).
    pub sharding: ShardScaling,
    /// The wall-clock profiler section: profiled sharded + classic runs,
    /// phase coverage, and the profiling-on digest gate
    /// ([`crate::profile::profile_section`]).
    pub profile: Json,
    /// The request-lifecycle SLO section: traced sharded + classic runs'
    /// TTFB decomposition snapshots and the tracing-on digest gate
    /// ([`crate::slo::slo_section`]).
    pub slo: Json,
    /// The control-plane section: the partitioned + leased pod's partition
    /// count, per-partition replicated-log lengths, lease hit rate, and
    /// the client-observed `master_lookup` distribution before/after
    /// ([`crate::slo::metadata_section`]).
    pub metadata: Json,
    /// The fault-model section: a reference fuzz campaign set's
    /// durability nines, repair bandwidth, scrub coverage, watchdog FP/FN
    /// rates, and the replay determinism gate
    /// ([`crate::fuzz::faults_section`]).
    pub faults: Json,
}

/// What a measured run reports about itself: virtual seconds, events,
/// peak queue depth and payload bytes written.
type RunStats = (f64, u64, f64, u64);

/// The pod runs' [`RunStats`]: every acknowledged write carries
/// [`POD_WRITE_BYTES`].
fn pod_stats(run: &PodscaleRun) -> RunStats {
    (
        run.sim_seconds,
        run.events,
        run.peak_queue_depth,
        run.writes_ok * POD_WRITE_BYTES,
    )
}

fn measure<R>(
    iters: u32,
    alloc_counter: Option<fn() -> AllocCount>,
    mut run: impl FnMut() -> R,
    stats: impl Fn(&R) -> RunStats,
) -> (PerfSample, R) {
    let mut best: Option<(PerfSample, R)> = None;
    for _ in 0..iters.max(1) {
        let before = alloc_counter.map(|f| f());
        let t0 = Instant::now();
        let out = run();
        let wall = t0.elapsed();
        let allocs = alloc_counter.map(|f| {
            let (now, before) = (f(), before.unwrap_or_default());
            (
                now.allocations - before.allocations,
                now.bytes - before.bytes,
            )
        });
        let (sim_seconds, events, peak_queue_depth, written) = stats(&out);
        let wall_seconds = wall.as_secs_f64().max(1e-9);
        let sample = PerfSample {
            sim_seconds,
            events,
            wall_seconds,
            events_per_sec: events as f64 / wall_seconds,
            peak_queue_depth,
            allocs_per_event: allocs.map(|(a, _)| a as f64 / events.max(1) as f64),
            alloc_bytes_per_write_byte: allocs
                .filter(|_| written > 0)
                .map(|(_, b)| b as f64 / written as f64),
        };
        let better = best
            .as_ref()
            .is_none_or(|(b, _)| sample.events_per_sec > b.events_per_sec);
        if better {
            best = Some((sample, out));
        }
    }
    best.expect("at least one iteration")
}

/// Runs the perf harness: degraded (repeated, best run kept) and podscale
/// (twice, same seed, digests compared).
pub fn run_perf(opts: &PerfOptions) -> PerfReport {
    // The degraded run costs tens of milliseconds, so best-of-N with a
    // healthy N is nearly free and is what rejects scheduler noise on a
    // shared machine; the expensive pod run stays at its own cadence
    // below.
    let iters = if opts.quick { 3 } else { 8 };
    let (degraded_sample, _) = measure(
        iters,
        opts.alloc_counter,
        || degraded::run_degraded_traced(opts.seed),
        |run| {
            (
                run.timing.total.as_secs_f64(),
                run.events_processed,
                run.peak_queue_depth,
                0,
            )
        },
    );
    let pod = if opts.quick {
        PodConfig::quick()
    } else {
        PodConfig::pod()
    };
    // Run the pod twice with the same seed: the second run both feeds the
    // best-of measurement and proves telemetry determinism.
    let classic = || {
        measure(
            1,
            opts.alloc_counter,
            || run_podscale(opts.seed, &pod, &RunOpts::default()),
            pod_stats,
        )
    };
    let (podscale_sample, first) = classic();
    let (podscale_sample2, second) = classic();
    let deterministic = first.digest == second.digest && first.events == second.events;
    let podscale_best = if podscale_sample2.events_per_sec > podscale_sample.events_per_sec {
        podscale_sample2
    } else {
        podscale_sample
    };
    // Shard-scaling sweep: the same pod on the sharded engine at 1, 2, 4,
    // ... threads (every digest must match), then the megapod at the
    // largest count. The sweep reuses the pod shape, so "events" differ
    // from the single-world runs above (different decomposition) but are
    // identical across the sweep.
    let max_shards = opts.shards.max(1);
    let mut shard_counts: Vec<usize> = vec![1];
    let mut c = 2;
    while c <= max_shards {
        shard_counts.push(c);
        c *= 2;
    }
    if max_shards > 1 && !shard_counts.contains(&max_shards) {
        shard_counts.push(max_shards);
    }
    // Best-of-3 per sweep point: sharded wall times are compared against
    // the classic engine's (also best-of), and a single noisy sample on a
    // shared or virtualized runner would otherwise dominate the
    // `shard_overhead_vs_classic` gate.
    let shard_iters = if opts.quick { 2 } else { 3 };
    let shard_sample = |pod: &PodConfig, shards: usize| {
        let (sample, run) = measure(
            shard_iters,
            opts.alloc_counter,
            || run_podscale(opts.seed, pod, &RunOpts::sharded(shards)),
            pod_stats,
        );
        let stats = run.sharding.expect("sharded run carries shard stats");
        ShardSample {
            shards,
            sample,
            digest: run.digest,
            epochs: stats.epochs,
            sync_rounds: stats.sync_rounds,
            cross_messages: stats.cross_messages,
            peak_queue_depth_sum: stats.peak_queue_depth_sum,
        }
    };
    let counts: Vec<ShardSample> = shard_counts
        .iter()
        .map(|&s| shard_sample(&pod, s))
        .collect();
    let digests_identical = counts.windows(2).all(|w| w[0].digest == w[1].digest);
    let speedup_vs_serial = counts
        .last()
        .expect("sweep has points")
        .sample
        .events_per_sec
        / counts[0].sample.events_per_sec;
    let megapod_pod = if opts.quick {
        megapod::megapod_quick()
    } else {
        megapod::megapod()
    };
    let megapod = shard_sample(&megapod_pod, max_shards);
    let shard_overhead_vs_classic = counts[0].sample.wall_seconds / podscale_best.wall_seconds;
    let best_sharded_wall = counts
        .iter()
        .map(|c| c.sample.wall_seconds)
        .fold(f64::INFINITY, f64::min);
    let speedup_vs_classic = podscale_best.wall_seconds / best_sharded_wall;
    let sharding = ShardScaling {
        groups: pod.world_groups,
        digests_identical,
        speedup_vs_serial,
        speedup_vs_classic,
        shard_overhead_vs_classic,
        megapod,
        megapod_pod,
        counts,
    };

    // The profiler section: one profiled sharded run at the largest count
    // (its digest must match the unprofiled sweep point) plus a profiled
    // classic run.
    let profiled = |shards| RunOpts {
        shards,
        profile: true,
        trace: None,
    };
    let prof_sharded = run_podscale(opts.seed, &pod, &profiled(Some(max_shards)));
    let prof_classic = run_podscale(opts.seed, &pod, &profiled(None));
    let unprofiled_digest = sharding.counts.last().expect("sweep has points").digest;
    let profile = profile::profile_section(&prof_sharded, &prof_classic, Some(unprofiled_digest));

    // The SLO section: one traced sharded run at the largest count (its
    // digest must match the unprofiled sweep point — tracing must not
    // perturb the simulation) plus a traced classic run.
    let traced = |shards| RunOpts {
        shards,
        profile: false,
        trace: Some(TracePlan::default()),
    };
    let slo_sharded = run_podscale(opts.seed, &pod, &traced(Some(max_shards)));
    let slo_classic = run_podscale(opts.seed, &pod, &traced(None));
    let slo = slo::slo_section(&slo_sharded, &slo_classic, Some(unprofiled_digest));

    // The control-plane section: the same pod with per-world metadata
    // partitions and client location leases, traced so the report carries
    // the master_lookup before/after and the lease hit rate alongside the
    // per-partition replicated-log lengths.
    let leased_pod = pod.clone().partitioned();
    let leased_run = run_podscale(opts.seed, &leased_pod, &traced(Some(max_shards)));
    let metadata = slo::metadata_section(slo_sharded.slo.as_ref(), &leased_run, &leased_pod);

    // The fault-model section: a small reference fuzz campaign set under
    // the empirical fault model, including its replay determinism gate.
    let fuzz_run = fuzz::run_fuzz(&fuzz::FuzzOptions {
        seed: opts.seed,
        quick: opts.quick,
        shards: max_shards,
        campaigns: if opts.quick { 2 } else { 4 },
        synthetic_fail: false,
        replay: None,
    });
    let faults = fuzz::faults_section(&fuzz_run);

    PerfReport {
        quick: opts.quick,
        seed: opts.seed,
        degraded: degraded_sample,
        podscale: podscale_best,
        pod,
        podscale_digest: first.digest,
        deterministic,
        sharding,
        profile,
        slo,
        metadata,
        faults,
    }
}

fn sample_json(s: &PerfSample) -> Json {
    Json::obj([
        ("sim_seconds", Json::f64(s.sim_seconds)),
        ("events", Json::u64(s.events)),
        ("wall_seconds", Json::f64(s.wall_seconds)),
        ("events_per_sec", Json::f64(s.events_per_sec)),
        ("peak_queue_depth", Json::f64(s.peak_queue_depth)),
        (
            "allocs_per_event",
            s.allocs_per_event.map_or(Json::Null, Json::f64),
        ),
        (
            "alloc_bytes_per_write_byte",
            s.alloc_bytes_per_write_byte.map_or(Json::Null, Json::f64),
        ),
    ])
}

fn shard_sample_json(s: &ShardSample) -> Json {
    Json::obj([
        ("shards", Json::u64(s.shards as u64)),
        ("sim_seconds", Json::f64(s.sample.sim_seconds)),
        ("events", Json::u64(s.sample.events)),
        ("wall_seconds", Json::f64(s.sample.wall_seconds)),
        ("events_per_sec", Json::f64(s.sample.events_per_sec)),
        ("epochs", Json::u64(s.epochs)),
        ("sync_rounds", Json::u64(s.sync_rounds)),
        ("cross_messages", Json::u64(s.cross_messages)),
        ("peak_queue_depth_max", Json::f64(s.sample.peak_queue_depth)),
        ("peak_queue_depth_sum", Json::f64(s.peak_queue_depth_sum)),
        ("digest", Json::str(format!("{:016x}", s.digest))),
    ])
}

impl PerfReport {
    /// The `BENCH_podscale.json` document.
    pub fn to_bench_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("ustore-bench-podscale-v8")),
            ("mode", Json::str(if self.quick { "quick" } else { "full" })),
            ("seed", Json::u64(self.seed)),
            (
                "pod",
                Json::obj([
                    ("units", Json::u64(u64::from(self.pod.units))),
                    ("hosts", Json::u64(u64::from(self.pod.hosts()))),
                    ("disks", Json::u64(u64::from(self.pod.disks()))),
                    ("clients", Json::u64(u64::from(self.pod.clients))),
                ]),
            ),
            (
                "current",
                Json::obj([
                    ("degraded", sample_json(&self.degraded)),
                    ("podscale", sample_json(&self.podscale)),
                ]),
            ),
            (
                "determinism",
                Json::obj([
                    (
                        "podscale_digest",
                        Json::str(format!("{:016x}", self.podscale_digest)),
                    ),
                    ("two_runs_identical", Json::Bool(self.deterministic)),
                ]),
            ),
            (
                "sharding",
                Json::obj([
                    ("groups", Json::u64(u64::from(self.sharding.groups))),
                    (
                        "counts",
                        Json::arr(self.sharding.counts.iter().map(shard_sample_json)),
                    ),
                    (
                        "digests_identical",
                        Json::Bool(self.sharding.digests_identical),
                    ),
                    (
                        "speedup_vs_serial",
                        Json::f64(self.sharding.speedup_vs_serial),
                    ),
                    (
                        "speedup_vs_classic",
                        Json::f64(self.sharding.speedup_vs_classic),
                    ),
                    (
                        "shard_overhead_vs_classic",
                        Json::f64(self.sharding.shard_overhead_vs_classic),
                    ),
                    (
                        "megapod",
                        Json::obj([
                            (
                                "units",
                                Json::u64(u64::from(self.sharding.megapod_pod.units)),
                            ),
                            (
                                "hosts",
                                Json::u64(u64::from(self.sharding.megapod_pod.hosts())),
                            ),
                            (
                                "disks",
                                Json::u64(u64::from(self.sharding.megapod_pod.disks())),
                            ),
                            (
                                "groups",
                                Json::u64(u64::from(self.sharding.megapod_pod.world_groups)),
                            ),
                            ("run", shard_sample_json(&self.sharding.megapod)),
                        ]),
                    ),
                ]),
            ),
            ("profile", self.profile.clone()),
            ("slo", self.slo.clone()),
            ("metadata", self.metadata.clone()),
            ("faults", self.faults.clone()),
        ])
    }

    /// Human-readable report rows.
    pub fn to_report(&self) -> Report {
        let mut rows = vec![
            Row::measured_only("degraded events/sec", self.degraded.events_per_sec, ""),
            Row::measured_only(
                "degraded peak queue depth",
                self.degraded.peak_queue_depth,
                "",
            ),
            Row::measured_only("podscale events/sec", self.podscale.events_per_sec, ""),
            Row::measured_only(
                "podscale peak queue depth",
                self.podscale.peak_queue_depth,
                "",
            ),
            Row::measured_only("podscale disks", f64::from(self.pod.disks()), ""),
            Row::measured_only(
                "podscale deterministic",
                if self.deterministic { 1.0 } else { 0.0 },
                "",
            ),
        ];
        if let Some(a) = self.degraded.allocs_per_event {
            rows.push(Row::measured_only("degraded allocs/event", a, ""));
        }
        if let Some(a) = self.podscale.allocs_per_event {
            rows.push(Row::measured_only("podscale allocs/event", a, ""));
        }
        if let Some(b) = self.podscale.alloc_bytes_per_write_byte {
            rows.push(Row::measured_only(
                "podscale alloc bytes/written byte",
                b,
                "",
            ));
        }
        for s in &self.sharding.counts {
            rows.push(Row::measured_only(
                format!("sharded pod events/sec ({} threads)", s.shards),
                s.sample.events_per_sec,
                "",
            ));
        }
        rows.push(Row::measured_only(
            "shard digests identical",
            if self.sharding.digests_identical {
                1.0
            } else {
                0.0
            },
            "",
        ));
        rows.push(Row::new(
            "shard speedup vs serial",
            1.0,
            self.sharding.speedup_vs_serial,
            "x",
        ));
        rows.push(Row::new(
            "shard speedup vs classic (best point)",
            1.0,
            self.sharding.speedup_vs_classic,
            "x",
        ));
        rows.push(Row::new(
            "shard overhead vs classic (1 thread)",
            1.0,
            self.sharding.shard_overhead_vs_classic,
            "x",
        ));
        rows.push(Row::measured_only(
            format!(
                "megapod ({} disks) events/sec ({} threads)",
                self.sharding.megapod_pod.disks(),
                self.sharding.megapod.shards
            ),
            self.sharding.megapod.sample.events_per_sec,
            "",
        ));
        if let Some(r) = self.metadata.get("lease_hit_rate").and_then(Json::as_f64) {
            rows.push(Row::measured_only("lease cache hit rate", r, ""));
        }
        if let Some(p) = self
            .metadata
            .get("partitions")
            .and_then(Json::as_f64)
            .filter(|&p| p > 1.0)
        {
            rows.push(Row::measured_only("metadata partitions", p, ""));
        }
        if let Some(nines) = self
            .faults
            .get("durability")
            .and_then(|d| d.get("nines"))
            .and_then(Json::as_f64)
        {
            rows.push(Row::measured_only("fuzz durability nines", nines, ""));
        }
        if let Some(Json::Bool(ok)) = self
            .faults
            .get("replay")
            .and_then(|r| r.get("digest_matches"))
        {
            rows.push(Row::measured_only(
                "fuzz replay bit-identical",
                if *ok { 1.0 } else { 0.0 },
                "",
            ));
        }
        Report::new("engine perf (wall clock)", rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_schema_is_stable() {
        let sample = PerfSample {
            sim_seconds: 1.0,
            events: 100,
            wall_seconds: 0.5,
            events_per_sec: 200.0,
            peak_queue_depth: 7.0,
            allocs_per_event: Some(3.5),
            alloc_bytes_per_write_byte: Some(1.25),
        };
        let shard = |shards: usize| ShardSample {
            shards,
            sample,
            digest: 0xfeed_f00d,
            epochs: 42,
            sync_rounds: 84,
            cross_messages: 17,
            peak_queue_depth_sum: 11.0,
        };
        let rep = PerfReport {
            quick: true,
            seed: 1,
            degraded: sample,
            podscale: sample,
            pod: PodConfig::quick(),
            podscale_digest: 0xdead_beef,
            deterministic: true,
            sharding: ShardScaling {
                groups: 8,
                counts: vec![shard(1), shard(2), shard(4)],
                digests_identical: true,
                speedup_vs_serial: 2.5,
                speedup_vs_classic: 2.1,
                shard_overhead_vs_classic: 1.2,
                megapod: shard(4),
                megapod_pod: crate::megapod::megapod_quick(),
            },
            profile: Json::obj([("digest_matches_unprofiled", Json::Bool(true))]),
            slo: Json::obj([("digest_matches_untraced", Json::Bool(true))]),
            metadata: Json::obj([
                ("partitions", Json::u64(8)),
                ("lease_hit_rate", Json::f64(0.75)),
            ]),
            faults: Json::obj([("replay", Json::obj([("digest_matches", Json::Bool(true))]))]),
        };
        let j = rep.to_bench_json().to_string();
        assert!(j.contains(r#""schema":"ustore-bench-podscale-v8""#));
        assert!(!j.contains(r#""baseline""#) && !j.contains(r#""speedup""#));
        assert!(j.contains(r#""events_per_sec":200"#));
        assert!(j.contains(r#""two_runs_identical":true"#));
        assert!(j.contains(r#""alloc_bytes_per_write_byte":1.25"#));
        assert!(j.contains(r#""podscale_digest":"00000000deadbeef""#));
        assert!(j.contains(r#""disks":1024"#));
        assert!(j.contains(r#""digests_identical":true"#));
        assert!(j.contains(r#""speedup_vs_serial":2.5"#));
        assert!(j.contains(r#""speedup_vs_classic":2.1"#));
        assert!(j.contains(r#""sync_rounds":84"#));
        assert!(j.contains(r#""shard_overhead_vs_classic":1.2"#));
        assert!(j.contains(r#""cross_messages":17"#));
        assert!(j.contains(r#""disks":4096"#), "megapod shape recorded");
        assert!(
            j.contains(r#""profile":{"digest_matches_unprofiled":true}"#),
            "profile section carried through"
        );
        assert!(
            j.contains(r#""slo":{"digest_matches_untraced":true}"#),
            "slo section carried through"
        );
        assert!(
            j.contains(r#""metadata":{"partitions":8,"lease_hit_rate":0.75}"#),
            "metadata section carried through"
        );
        assert!(
            j.contains(r#""faults":{"replay":{"digest_matches":true}}"#),
            "faults section carried through"
        );
    }
}
