//! Regenerates every table and figure of the UStore paper.
//!
//! ```text
//! repro [experiment ...] [--seed N] [--repeats N] [--jobs N] [--shards N]
//!       [--partitions N] [--json] [--prom-out FILE] [--trace-out FILE]
//!       [--ts-out FILE]
//! repro perf [--quick] [--seed N] [--shards N] [--bench-out FILE] [--json]
//! repro profile [--quick] [--seed N] [--shards N] [--prom-out FILE]
//!       [--trace-out FILE] [--json]
//! repro slo [--quick] [--seed N] [--shards N] [--slo-out FILE]
//!       [--trace-out FILE] [--json]
//! repro fuzz [--quick] [--seed N] [--shards N] [--campaigns N]
//!       [--replay SEED] [--synthetic-fail] [--fuzz-out FILE] [--json]
//! ```
//!
//! Experiments: `table1 table2 table3 table4 table5 fig5 fig6 duplex
//! failover degraded hdfs rolling ablation podscale megapod all` (default:
//! `all`; `podscale` — the 1024-disk pod — and `megapod` — the 4096-disk
//! pod — are not part of `all` because of their runtime). Output shows
//! paper value vs measured value with the relative error; `--json` emits
//! the same data machine-readably, plus a `telemetry` object (keyed by
//! experiment) carrying the metrics snapshot and span tree of each traced
//! run.
//!
//! `--shards N` selects the sharded parallel engine (conservative
//! epoch-synchronized PDES) where supported: `podscale` runs sharded when
//! the flag is given (and single-world otherwise), `megapod` always runs
//! sharded (default: up to 4 threads), and `perf` sweeps shard counts up
//! to `N` for the shard-scaling section of `BENCH_podscale.json`. Both
//! `--jobs` and `--shards` must be ≥ 1 — `0` is rejected, not clamped.
//!
//! `--partitions N` splits the Master's metadata namespace into `N`
//! partitions (each its own replicated log) for the `podscale` and
//! `megapod` experiments; `1` (the default) is the monolithic layout and
//! is bit-identical with the pre-partition system. Like `--shards`, `0`
//! is rejected. The `perf` and `slo` subcommands measure the partitioned
//! pod themselves (the `metadata` section of `BENCH_podscale.json` and
//! the control-plane block of the SLO report), so they do not take the
//! flag.
//!
//! Each experiment builds its own independent simulator, so the selected
//! experiments run on a thread pool (`--jobs`, default: available
//! parallelism). Results are joined in selection order, making the text
//! and `--json` output byte-identical to a serial run.
//!
//! The `perf` subcommand is the wall-clock engine benchmark: it measures
//! events/sec, peak live queue depth and allocations/event (via a counting
//! global allocator) on the `degraded` scenario and on the pod-scale
//! deployment, runs the pod twice to verify telemetry determinism, and
//! writes `BENCH_podscale.json` (override with `--bench-out`). It always
//! runs alone, serially, so wall-clock numbers are undisturbed.
//!
//! The `profile` subcommand runs the pod with the wall-clock shard
//! profiler on and prints a scaling diagnosis: per-world phase breakdown
//! (execute / outbox_drain / barrier_wait / merge / idle_jump), epoch and
//! lookahead statistics, and the cross-world traffic matrix. With
//! `--trace-out` it writes a Perfetto trace with one wall-clock track per
//! engine thread; with `--prom-out`, the profiler aggregates under the
//! `ustore_prof_` prefix. It exits nonzero if enabling the profiler
//! changed the telemetry digest. Like `perf`, it runs alone.
//!
//! The `slo` subcommand runs the pod with the request-lifecycle tracer on
//! and prints the time-to-first-byte decomposition: per-stage p50 / p99 /
//! p99.9 tables for reads and writes, the coverage fraction (attributed ÷
//! end-to-end latency), and the slowest request's full stage timeline.
//! With `--slo-out` it writes the machine-readable report; with
//! `--trace-out` it writes a Perfetto trace with one track per
//! slowest-request exemplar. It exits nonzero if enabling the tracer
//! changed the telemetry digest. Like `perf`, it runs alone.
//!
//! The `fuzz` subcommand runs seeded fault-injection campaigns against
//! the full system under the empirical fault model (`ustore-sim`'s
//! `faultgen`): bathtub drive failures, latent sector errors, degradation
//! ramps, background scrubs, and correlated hub/host outages. After each
//! campaign an invariant oracle reads back every acknowledged write and
//! probes every mount; unexplained losses are violations, and a failing
//! schedule is shrunk to a minimal reproduction. `--replay SEED` reruns
//! exactly one campaign from its printed seed — the result (and its
//! telemetry digest) is bit-identical, which the run itself verifies and
//! exits nonzero on divergence. `--synthetic-fail` plants a harness-level
//! self-test fault so the shrink/replay machinery stays exercised.
//! `--fuzz-out` writes the machine-readable report. Like `perf`, it runs
//! alone.
//!
//! The artifact flags write standard-format telemetry exports of the last
//! traced experiment that ran (`degraded` wins over `failover` in the
//! default order):
//!
//! - `--prom-out`: Prometheus exposition text of the final metrics
//!   snapshot;
//! - `--trace-out`: Chrome trace-event JSON of the span log — open it in
//!   [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`;
//! - `--ts-out`: CSV (`component,series,t_s,value`) of the scraped time
//!   series.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use ustore_bench::{
    ablation, degraded, failover, fig5, fig6, fuzz, hdfs, megapod, perf, podscale, power, profile,
    slo, table2, Report, TelemetryArtifacts,
};
use ustore_sim::Json;

/// Counts heap allocations so `repro perf` can report allocations/event.
/// Counting two relaxed atomics per alloc is noise next to the allocation
/// itself and does not disturb the measured scenarios.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const EXPERIMENTS: [&str; 19] = [
    "table1", "table2", "table3", "table4", "table5", "fig5", "duplex", "fig6", "failover",
    "degraded", "hdfs", "rolling", "ablation", "podscale", "megapod", "perf", "profile", "slo",
    "fuzz",
];

/// Default shard count for the scenarios that always run sharded: as many
/// threads as the machine offers, capped where scaling flattens for the
/// pod shapes.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

/// Everything one experiment contributes to the final output.
struct PickOutput {
    reports: Vec<Report>,
    telemetry: Option<(&'static str, Json)>,
    artifacts: Option<TelemetryArtifacts>,
}

fn run_pick(
    pick: &str,
    seed: u64,
    repeats: u64,
    shards: Option<usize>,
    partitions: Option<u32>,
) -> PickOutput {
    let mut out = PickOutput {
        reports: Vec::new(),
        telemetry: None,
        artifacts: None,
    };
    match pick {
        "table1" => out.reports.push(power::table1()),
        "table2" => out.reports.extend(table2::table2(seed)),
        "table3" => out.reports.push(power::table3(seed)),
        "table4" => out.reports.push(power::table4()),
        "table5" => out.reports.push(power::table5()),
        "fig5" => out.reports.extend(fig5::fig5(seed)),
        "duplex" => out.reports.push(fig5::duplex(seed)),
        "fig6" => out.reports.push(fig6::fig6(seed, repeats)),
        "failover" => {
            let (rep, tele, arts) = failover::failover_report_traced(seed);
            out.reports.push(rep);
            out.telemetry = Some(("failover", tele));
            out.artifacts = Some(arts);
        }
        "degraded" => {
            let (rep, tele, arts) = degraded::degraded_report_traced(seed);
            out.reports.push(rep);
            out.telemetry = Some(("degraded", tele));
            out.artifacts = Some(arts);
        }
        "hdfs" => out.reports.push(hdfs::hdfs_report(seed)),
        "rolling" => out.reports.push(power::rolling_spin_up_ablation(seed)),
        "ablation" => {
            out.reports.push(ablation::topology_ablation());
            out.reports.push(ablation::heartbeat_sweep(seed));
            out.reports.push(ablation::allocation_ablation(seed));
        }
        "podscale" => {
            let mut cfg = podscale::PodConfig::pod();
            if let Some(p) = partitions {
                cfg.partitions = p;
            }
            let opts = podscale::RunOpts {
                shards,
                ..podscale::RunOpts::default()
            };
            let run = podscale::run_podscale(seed, &cfg, &opts);
            out.telemetry = Some(("podscale", run.telemetry.clone()));
            out.reports.push(run.report);
        }
        "megapod" => {
            let mut cfg = megapod::megapod();
            if let Some(p) = partitions {
                cfg.partitions = p;
            }
            let opts = podscale::RunOpts::sharded(shards.unwrap_or_else(default_shards));
            let run = podscale::run_podscale(seed, &cfg, &opts);
            out.telemetry = Some(("megapod", run.telemetry.clone()));
            out.reports.push(run.report);
        }
        other => unreachable!("picks validated before dispatch: {other:?}"),
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 20150707;
    let mut repeats: u64 = 6;
    let mut jobs: usize = std::thread::available_parallelism().map_or(1, usize::from);
    let mut shards: Option<usize> = None;
    let mut partitions: Option<u32> = None;
    let mut json = false;
    let mut quick = false;
    let mut bench_out = String::from("BENCH_podscale.json");
    let mut slo_out: Option<String> = None;
    let mut fuzz_out: Option<String> = None;
    let mut campaigns: Option<u32> = None;
    let mut replay: Option<u64> = None;
    let mut synthetic_fail = false;
    let mut prom_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut ts_out: Option<String> = None;
    let mut picks: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--repeats" => {
                repeats = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--repeats needs a number"));
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v >= 1)
                    .unwrap_or_else(|| usage("--jobs needs a positive number"));
            }
            "--shards" => {
                shards = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&v: &usize| v >= 1)
                        .unwrap_or_else(|| usage("--shards needs a positive number")),
                );
            }
            "--partitions" => {
                partitions = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&v: &u32| v >= 1)
                        .unwrap_or_else(|| usage("--partitions needs a positive number")),
                );
            }
            "--json" => json = true,
            "--quick" => quick = true,
            "--bench-out" => {
                bench_out = it
                    .next()
                    .unwrap_or_else(|| usage("--bench-out needs a path"));
            }
            "--slo-out" => {
                slo_out = Some(it.next().unwrap_or_else(|| usage("--slo-out needs a path")));
            }
            "--fuzz-out" => {
                fuzz_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--fuzz-out needs a path")),
                );
            }
            "--campaigns" => {
                campaigns = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&v: &u32| v >= 1)
                        .unwrap_or_else(|| usage("--campaigns needs a positive number")),
                );
            }
            "--replay" => {
                replay =
                    Some(it.next().and_then(|v| parse_seed(&v)).unwrap_or_else(|| {
                        usage("--replay needs a campaign seed (0x... or decimal)")
                    }));
            }
            "--synthetic-fail" => synthetic_fail = true,
            "--prom-out" => {
                prom_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--prom-out needs a path")),
                );
            }
            "--trace-out" => {
                trace_out = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--trace-out needs a path")),
                );
            }
            "--ts-out" => {
                ts_out = Some(it.next().unwrap_or_else(|| usage("--ts-out needs a path")));
            }
            "-h" | "--help" => {
                usage("");
            }
            other => picks.push(other.to_owned()),
        }
    }
    // Artifact destinations are validated up front: a typo'd directory
    // should cost a usage error now, not a lost result after minutes of
    // simulation.
    for (flag, path) in [
        ("--bench-out", Some(&bench_out)),
        ("--slo-out", slo_out.as_ref()),
        ("--fuzz-out", fuzz_out.as_ref()),
        ("--prom-out", prom_out.as_ref()),
        ("--trace-out", trace_out.as_ref()),
        ("--ts-out", ts_out.as_ref()),
    ] {
        if let Some(path) = path {
            check_writable_destination(flag, path);
        }
    }
    if partitions.is_some()
        && picks
            .iter()
            .any(|p| matches!(p.as_str(), "perf" | "profile" | "slo" | "fuzz"))
    {
        usage("--partitions applies to podscale/megapod (perf and slo measure the partitioned pod themselves)");
    }
    if picks.iter().any(|p| p == "fuzz") {
        if picks.len() > 1 {
            usage("fuzz runs alone (campaign seeds must not share artifact flags)");
        }
        if prom_out.is_some() || trace_out.is_some() || ts_out.is_some() || slo_out.is_some() {
            usage("--prom-out/--trace-out/--ts-out/--slo-out are not produced by fuzz (use --fuzz-out)");
        }
        run_fuzz_command(
            seed,
            quick,
            shards.unwrap_or_else(default_shards),
            campaigns.unwrap_or(8),
            replay,
            synthetic_fail,
            fuzz_out.as_deref(),
            json,
        );
        return;
    }
    if campaigns.is_some() || replay.is_some() || fuzz_out.is_some() || synthetic_fail {
        usage(
            "--campaigns/--replay/--fuzz-out/--synthetic-fail are only used by the fuzz subcommand",
        );
    }
    if picks.iter().any(|p| p == "perf") {
        if picks.len() > 1 {
            usage("perf runs alone (wall-clock numbers must not share the machine)");
        }
        run_perf_command(
            seed,
            quick,
            shards.unwrap_or_else(default_shards),
            &bench_out,
            json,
        );
        return;
    }
    if picks.iter().any(|p| p == "profile") {
        if picks.len() > 1 {
            usage("profile runs alone (wall-clock numbers must not share the machine)");
        }
        if ts_out.is_some() {
            usage("--ts-out is not produced by profile (use --prom-out / --trace-out)");
        }
        run_profile_command(
            seed,
            quick,
            shards.unwrap_or_else(default_shards),
            prom_out.as_deref(),
            trace_out.as_deref(),
            json,
        );
        return;
    }
    if picks.iter().any(|p| p == "slo") {
        if picks.len() > 1 {
            usage("slo runs alone (it owns the pod-scale runs it measures)");
        }
        if prom_out.is_some() || ts_out.is_some() {
            usage("--prom-out/--ts-out are not produced by slo (use --slo-out / --trace-out)");
        }
        run_slo_command(
            seed,
            quick,
            shards.unwrap_or_else(default_shards),
            slo_out.as_deref(),
            trace_out.as_deref(),
            json,
        );
        return;
    }
    if slo_out.is_some() {
        usage("--slo-out is only produced by the slo subcommand");
    }
    if picks.is_empty() || picks.iter().any(|p| p == "all") {
        picks = EXPERIMENTS
            .iter()
            .filter(|e| {
                !matches!(
                    **e,
                    "podscale" | "megapod" | "perf" | "profile" | "slo" | "fuzz"
                )
            })
            .map(|s| (*s).to_owned())
            .collect();
    }
    for p in &picks {
        if !EXPERIMENTS.contains(&p.as_str()) {
            usage(&format!("unknown experiment {p:?}"));
        }
    }
    if partitions.is_some() && !picks.iter().any(|p| p == "podscale" || p == "megapod") {
        usage("--partitions is only used by the podscale and megapod experiments");
    }

    // Every experiment owns an independent simulator, so they run on a
    // thread pool and join in selection order — output is byte-identical
    // to a serial run.
    // `--jobs` is validated ≥ 1 at parse time and `picks` is non-empty
    // here, so no clamping is needed.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<PickOutput>>> = picks.iter().map(|_| Mutex::new(None)).collect();
    let workers = jobs.min(picks.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(pick) = picks.get(i) else { break };
                let out = run_pick(pick, seed, repeats, shards, partitions);
                *slots[i].lock().expect("result slot") = Some(out);
            });
        }
    });

    let mut reports: Vec<Report> = Vec::new();
    let mut telemetry: Vec<(&'static str, Json)> = Vec::new();
    let mut artifacts: Option<TelemetryArtifacts> = None;
    for slot in slots {
        let out = slot
            .into_inner()
            .expect("result slot")
            .expect("worker completed every pick");
        reports.extend(out.reports);
        telemetry.extend(out.telemetry);
        if let Some(arts) = out.artifacts {
            artifacts = Some(arts);
        }
    }
    let wants_artifacts = prom_out.is_some() || trace_out.is_some() || ts_out.is_some();
    if wants_artifacts && artifacts.is_none() {
        usage("--prom-out/--trace-out/--ts-out need a traced experiment (failover or degraded)");
    }
    if let Some(arts) = &artifacts {
        let write = |path: &Option<String>, what: &str, content: &str| {
            if let Some(path) = path {
                if let Err(e) = std::fs::write(path, content) {
                    eprintln!("error: writing {what} to {path}: {e}");
                    std::process::exit(1);
                }
            }
        };
        write(&prom_out, "Prometheus metrics", &arts.prometheus);
        write(&trace_out, "Chrome trace", &arts.chrome_trace);
        write(&ts_out, "time-series CSV", &arts.timeseries_csv);
    }
    if json {
        let mut doc = Json::obj([
            ("seed", Json::u64(seed)),
            ("reports", Json::arr(reports.iter().map(Report::to_json))),
        ]);
        if !telemetry.is_empty() {
            doc.insert("telemetry", Json::obj(telemetry));
        }
        println!("{}", doc.pretty());
    } else {
        println!("UStore reproduction — paper vs simulation (seed {seed})\n");
        for rep in &reports {
            println!("{rep}");
        }
        for (name, tele) in &telemetry {
            let spans = tele
                .get("spans")
                .and_then(Json::as_arr)
                .map_or(0, <[Json]>::len);
            println!(
                "telemetry[{name}]: {spans} spans captured (rerun with --json for the full export)"
            );
        }
    }
}

fn run_perf_command(seed: u64, quick: bool, shards: usize, bench_out: &str, json: bool) {
    let report = perf::run_perf(&perf::PerfOptions {
        seed,
        quick,
        shards,
        alloc_counter: Some(alloc_count),
    });
    let doc = report.to_bench_json();
    if let Err(e) = std::fs::write(bench_out, format!("{}\n", doc.pretty())) {
        eprintln!("error: writing bench report to {bench_out}: {e}");
        std::process::exit(1);
    }
    if json {
        println!("{}", doc.pretty());
    } else {
        println!(
            "UStore engine perf (seed {seed}, {} mode)\n",
            if quick { "quick" } else { "full" }
        );
        println!("{}", report.to_report());
        println!("bench report written to {bench_out}");
    }
    if !report.deterministic {
        eprintln!("error: two same-seed podscale runs diverged — engine is non-deterministic");
        std::process::exit(1);
    }
    if !report.sharding.digests_identical {
        eprintln!(
            "error: telemetry digests diverged across shard counts — the parallel engine broke determinism"
        );
        std::process::exit(1);
    }
}

fn run_profile_command(
    seed: u64,
    quick: bool,
    shards: usize,
    prom_out: Option<&str>,
    trace_out: Option<&str>,
    json: bool,
) {
    let run = profile::run_profile(&profile::ProfileOptions {
        seed,
        quick,
        shards,
    });
    if let Some(path) = prom_out {
        if let Err(e) = std::fs::write(path, run.prometheus()) {
            eprintln!("error: writing profiler metrics to {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, format!("{}\n", run.wallclock_trace())) {
            eprintln!("error: writing wall-clock trace to {path}: {e}");
            std::process::exit(1);
        }
    }
    if json {
        println!("{}", run.to_json().pretty());
    } else {
        println!(
            "UStore engine wall-clock profile (seed {seed}, {} mode, {shards} shards)\n",
            if quick { "quick" } else { "full" }
        );
        println!("{}", run.diagnosis());
        if let Some(path) = trace_out {
            println!("wall-clock Perfetto trace written to {path}");
        }
        if let Some(path) = prom_out {
            println!("profiler metrics written to {path}");
        }
    }
    if !run.digest_matches_unprofiled {
        eprintln!(
            "error: telemetry digest changed with profiling on ({:016x} != {:016x}) — the profiler leaked into the simulation",
            run.sharded.digest, run.unprofiled_digest
        );
        std::process::exit(1);
    }
}

fn run_slo_command(
    seed: u64,
    quick: bool,
    shards: usize,
    slo_out: Option<&str>,
    trace_out: Option<&str>,
    json: bool,
) {
    let run = slo::run_slo(&slo::SloOptions {
        seed,
        quick,
        shards,
        sample_every: ustore_sim::reqtrace::DEFAULT_SAMPLE_EVERY,
        exemplars: ustore_sim::reqtrace::DEFAULT_EXEMPLARS,
    });
    if let Some(path) = slo_out {
        if let Err(e) = std::fs::write(path, format!("{}\n", run.to_json().pretty())) {
            eprintln!("error: writing slo report to {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, format!("{}\n", run.request_trace())) {
            eprintln!("error: writing request trace to {path}: {e}");
            std::process::exit(1);
        }
    }
    if json {
        println!("{}", run.to_json().pretty());
    } else {
        println!(
            "UStore request-lifecycle SLO (seed {seed}, {} mode, {shards} shards)\n",
            if quick { "quick" } else { "full" }
        );
        println!("{}", run.decomposition());
        if let Some(path) = slo_out {
            println!("slo report written to {path}");
        }
        if let Some(path) = trace_out {
            println!("request-exemplar Perfetto trace written to {path}");
        }
    }
    if !run.digest_matches_untraced {
        eprintln!(
            "error: telemetry digest changed with tracing on ({:016x} != {:016x}) — the tracer leaked into the simulation",
            run.sharded.digest, run.untraced_digest
        );
        std::process::exit(1);
    }
    if !run.leased_digest_matches {
        eprintln!(
            "error: telemetry digest changed with tracing on in the partitioned+leased run ({:016x} != {:016x})",
            run.leased.digest, run.leased_untraced_digest
        );
        std::process::exit(1);
    }
    if !matches!(run.lease_hit_rate, Some(r) if r > 0.0) {
        eprintln!(
            "error: the leased run never hit the location-lease cache (hit rate {:?}) — the lease path is dead",
            run.lease_hit_rate
        );
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_fuzz_command(
    seed: u64,
    quick: bool,
    shards: usize,
    campaigns: u32,
    replay: Option<u64>,
    synthetic_fail: bool,
    fuzz_out: Option<&str>,
    json: bool,
) {
    let run = fuzz::run_fuzz(&fuzz::FuzzOptions {
        seed,
        quick,
        shards,
        campaigns,
        synthetic_fail,
        replay,
    });
    if let Some(path) = fuzz_out {
        if let Err(e) = std::fs::write(path, format!("{}\n", run.to_json().pretty())) {
            eprintln!("error: writing fuzz report to {path}: {e}");
            std::process::exit(1);
        }
    }
    if json {
        println!("{}", run.to_json().pretty());
    } else {
        println!(
            "UStore scenario fuzzer (seed {seed}, {} mode, {} campaign(s))\n",
            if quick { "quick" } else { "full" },
            run.campaigns.len()
        );
        println!("{}", run.summary());
        if let Some(path) = fuzz_out {
            println!("fuzz report written to {path}");
        }
    }
    if !run.replay.matches {
        eprintln!(
            "error: replaying campaign seed {:#018x} diverged ({:016x} != {:016x}) — the campaign is non-deterministic",
            run.replay.seed, run.replay.digest, run.replay.replay_digest
        );
        std::process::exit(1);
    }
    // A real invariant violation is a bug; the planted self-test fault is
    // the expected outcome of --synthetic-fail.
    if !synthetic_fail && run.failing.is_some() {
        eprintln!(
            "error: invariant violation found (minimized schedule above; rerun with --replay)"
        );
        std::process::exit(1);
    }
    if synthetic_fail && run.failing.is_none() {
        eprintln!("error: --synthetic-fail planted a fault the oracle failed to catch");
        std::process::exit(1);
    }
}

/// Parses a campaign seed as printed by the fuzzer (`0x...`) or decimal.
fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// Rejects artifact destinations that can only fail after the run: the
/// path must not be a directory and its parent directory must exist.
fn check_writable_destination(flag: &str, path: &str) {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        usage(&format!("{flag}: {path} is a directory, not a file"));
    }
    let parent = match p.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    if !parent.is_dir() {
        usage(&format!(
            "{flag}: directory {} does not exist (cannot write {path})",
            parent.display()
        ));
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [experiment ...] [--seed N] [--repeats N] [--jobs N] [--shards N] [--partitions N] [--json]\n\
         \x20            [--prom-out FILE] [--trace-out FILE] [--ts-out FILE]\n\
         \x20      repro perf [--quick] [--seed N] [--shards N] [--bench-out FILE] [--json]\n\
         \x20      repro profile [--quick] [--seed N] [--shards N] [--prom-out FILE] [--trace-out FILE] [--json]\n\
         \x20      repro slo [--quick] [--seed N] [--shards N] [--slo-out FILE] [--trace-out FILE] [--json]\n\
         \x20      repro fuzz [--quick] [--seed N] [--shards N] [--campaigns N] [--replay SEED] [--synthetic-fail] [--fuzz-out FILE] [--json]\n\
         experiments: table1 table2 table3 table4 table5 fig5 fig6 duplex failover degraded hdfs rolling ablation podscale megapod all\n\
         (podscale — 256 hosts / 1024 disks — and megapod — 1024 hosts / 4096 disks — are not part of `all`;\n\
         run them explicitly or via `perf`; --shards selects the parallel engine, --partitions splits the\n\
         Master's metadata namespace; --jobs/--shards/--partitions must be >= 1)"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
