//! Wall-clock shard profiler harness (`repro profile`).
//!
//! Runs the pod-scale deployment three ways — sharded with the profiler
//! on, sharded with it off, and on the classic single-threaded engine
//! with it on — and turns the snapshots into a scaling diagnosis:
//!
//! - **where the wall time goes**: per-world `execute` / `outbox_drain` /
//!   `barrier_wait` / `merge` / `idle_jump` breakdown, with the coverage
//!   fraction (phase sums ÷ measured wall) proving the accounting tiles
//!   the run;
//! - **how well the epochs work**: events-per-epoch distribution,
//!   idle-epoch counts, and lookahead utilization (mean epoch advance ÷
//!   lookahead);
//! - **what crosses worlds**: the `src × dst` traffic matrix with slack
//!   histograms — slack is how much earlier than the lookahead bound a
//!   message could have been delivered;
//! - **what profiling costs**: sharded wall time vs the classic engine,
//!   and a digest gate proving the profiler never perturbed the
//!   simulation (profiled and unprofiled telemetry digests must be
//!   bit-identical).

use ustore_sim::{export, Json, Phase, SpanTracer};

use crate::podscale::{run_podscale, PodConfig, PodscaleRun, RunOpts};

/// Profile-run options.
#[derive(Debug, Clone, Copy)]
pub struct ProfileOptions {
    /// Simulation seed (shared by all three runs).
    pub seed: u64,
    /// Quick mode: the shorter podscale workload window.
    pub quick: bool,
    /// Executor threads for the sharded runs.
    pub shards: usize,
}

/// Everything `repro profile` measured.
#[derive(Debug, Clone)]
pub struct ProfileRun {
    /// Seed the runs used.
    pub seed: u64,
    /// Quick mode flag.
    pub quick: bool,
    /// Executor threads for the sharded runs.
    pub shards: usize,
    /// Pod shape measured.
    pub pod: PodConfig,
    /// The profiled sharded run (`prof` and `traffic` populated).
    pub sharded: PodscaleRun,
    /// The profiled classic (single-threaded) run (`prof` populated).
    pub classic: PodscaleRun,
    /// Telemetry digest of the unprofiled sharded run.
    pub unprofiled_digest: u64,
    /// Whether the profiled and unprofiled digests are bit-identical —
    /// the proof that profiling is a pure wall-clock side channel.
    pub digest_matches_unprofiled: bool,
    /// Minimum over worlds of phase-sum ÷ measured run wall. The
    /// acceptance bar is ≥ 0.95: the phase taxonomy must tile the run.
    pub coverage: f64,
}

/// Phase-sum ÷ run-wall coverage, minimized over worlds. Each world's
/// phases tile its host thread's wall clock (sibling busy time is charged
/// as `barrier_wait`), so every world should individually account for
/// ~100% of the run window; the minimum is the honest headline.
pub fn coverage_fraction(run: &PodscaleRun) -> f64 {
    let Some(prof) = &run.prof else { return 0.0 };
    let wall_ns = run.run_wall_seconds * 1e9;
    if wall_ns <= 0.0 {
        return 0.0;
    }
    prof.worlds
        .iter()
        .map(|w| w.total_ns() as f64 / wall_ns)
        .fold(f64::INFINITY, f64::min)
        .min(1.0)
}

/// Runs the profiler harness: profiled sharded, unprofiled sharded (the
/// digest gate), and profiled classic.
pub fn run_profile(opts: &ProfileOptions) -> ProfileRun {
    let pod = if opts.quick {
        PodConfig::quick()
    } else {
        PodConfig::pod()
    };
    let profiled = |shards| RunOpts {
        shards,
        profile: true,
        trace: None,
    };
    let sharded = run_podscale(opts.seed, &pod, &profiled(Some(opts.shards)));
    let unprofiled = run_podscale(opts.seed, &pod, &RunOpts::sharded(opts.shards));
    let classic = run_podscale(opts.seed, &pod, &profiled(None));
    let coverage = coverage_fraction(&sharded);
    ProfileRun {
        seed: opts.seed,
        quick: opts.quick,
        shards: opts.shards,
        pod,
        unprofiled_digest: unprofiled.digest,
        digest_matches_unprofiled: sharded.digest == unprofiled.digest,
        coverage,
        sharded,
        classic,
    }
}

/// The `profile` section of `BENCH_podscale.json` (schema v3, unchanged in v6): profiled
/// sharded + classic snapshots, coverage, overhead, and the digest gate.
pub fn profile_section(
    sharded: &PodscaleRun,
    classic: &PodscaleRun,
    unprofiled_digest: Option<u64>,
) -> Json {
    let mut out = Json::obj([
        (
            "sharded",
            Json::obj([
                ("run_wall_seconds", Json::f64(sharded.run_wall_seconds)),
                ("coverage", Json::f64(coverage_fraction(sharded))),
                (
                    "prof",
                    sharded.prof.as_ref().map_or(Json::Null, |p| p.to_json()),
                ),
                (
                    "traffic",
                    sharded.traffic.as_ref().map_or(Json::Null, |t| t.to_json()),
                ),
            ]),
        ),
        (
            "classic",
            Json::obj([
                ("run_wall_seconds", Json::f64(classic.run_wall_seconds)),
                (
                    "prof",
                    classic.prof.as_ref().map_or(Json::Null, |p| p.to_json()),
                ),
            ]),
        ),
        (
            "overhead_vs_classic",
            Json::f64(if classic.run_wall_seconds > 0.0 {
                sharded.run_wall_seconds / classic.run_wall_seconds
            } else {
                f64::NAN
            }),
        ),
    ]);
    if let Some(d) = unprofiled_digest {
        out.insert("digest_matches_unprofiled", Json::Bool(sharded.digest == d));
    }
    out
}

fn fmt_secs(ns: u64) -> String {
    format!("{:.3} s", ns as f64 / 1e9)
}

impl ProfileRun {
    /// The machine-readable document (`repro profile --json`).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj([
            ("experiment", Json::str("profile")),
            ("seed", Json::u64(self.seed)),
            ("mode", Json::str(if self.quick { "quick" } else { "full" })),
            ("shards", Json::u64(self.shards as u64)),
            (
                "pod",
                Json::obj([
                    ("units", Json::u64(u64::from(self.pod.units))),
                    ("hosts", Json::u64(u64::from(self.pod.hosts()))),
                    ("disks", Json::u64(u64::from(self.pod.disks()))),
                    ("clients", Json::u64(u64::from(self.pod.clients))),
                    ("world_groups", Json::u64(u64::from(self.pod.world_groups))),
                ]),
            ),
            ("digest", Json::str(format!("{:016x}", self.sharded.digest))),
            (
                "unprofiled_digest",
                Json::str(format!("{:016x}", self.unprofiled_digest)),
            ),
        ]);
        doc.insert(
            "profile",
            profile_section(&self.sharded, &self.classic, Some(self.unprofiled_digest)),
        );
        doc
    }

    /// The wall-clock Perfetto trace: one track per engine thread under a
    /// `wall-clock` process. The sim-time process is empty — podscale runs
    /// with warning-level tracing, so there are no spans to pair it with.
    pub fn wallclock_trace(&self) -> Json {
        let spans = SpanTracer::new();
        match &self.sharded.prof {
            Some(p) => export::chrome_trace_with_wallclock(&spans, p),
            None => export::chrome_trace(&spans),
        }
    }

    /// The profiler aggregates in Prometheus exposition format
    /// (`ustore_prof_` prefix).
    pub fn prometheus(&self) -> String {
        match &self.sharded.prof {
            Some(p) => export::prometheus_prof(p, self.sharded.traffic.as_ref()),
            None => String::new(),
        }
    }

    /// Human-readable scaling diagnosis.
    pub fn diagnosis(&self) -> String {
        let mut out = String::new();
        let p = |out: &mut String, s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        p(
            &mut out,
            format!(
                "pod: {} units / {} hosts / {} disks, {} worlds on {} threads",
                self.pod.units,
                self.pod.hosts(),
                self.pod.disks(),
                u64::from(self.pod.world_groups) + 1,
                self.shards
            ),
        );
        p(
            &mut out,
            format!(
                "run wall: {:.3} s sharded, {:.3} s classic ({:.2}x vs classic)",
                self.sharded.run_wall_seconds,
                self.classic.run_wall_seconds,
                self.sharded.run_wall_seconds / self.classic.run_wall_seconds.max(1e-9)
            ),
        );
        p(
            &mut out,
            format!(
                "phase coverage: {:.1}% of measured wall accounted (min across worlds)",
                self.coverage * 100.0
            ),
        );

        let Some(prof) = &self.sharded.prof else {
            p(&mut out, "no profiler snapshot captured".to_string());
            return out;
        };
        let dropped = prof.dropped_slices();
        if dropped > 0 {
            p(
                &mut out,
                format!(
                    "warning: wall-clock timeline truncated — {dropped} slices dropped past \
                     the {}-per-track cap (aggregates are complete)",
                    ustore_sim::prof::SLICE_CAP
                ),
            );
        }

        // Top phase costs, aggregated across worlds, sorted descending.
        let mut totals: Vec<(Phase, u64)> = Phase::ALL
            .iter()
            .map(|&ph| (ph, prof.phase_total_ns(ph)))
            .collect();
        totals.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        let grand: u64 = totals.iter().map(|(_, ns)| ns).sum();
        p(&mut out, String::new());
        p(&mut out, "top phase costs (all worlds):".to_string());
        for (ph, ns) in &totals {
            p(
                &mut out,
                format!(
                    "  {:<13} {:>12}  {:5.1}%",
                    ph.name(),
                    fmt_secs(*ns),
                    *ns as f64 / grand.max(1) as f64 * 100.0
                ),
            );
        }

        p(&mut out, String::new());
        p(
            &mut out,
            format!(
                "  {:<5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6} {:>9} {:>7} {:>8}",
                "world",
                "execute",
                "outbox",
                "barrier",
                "merge",
                "idle",
                "wait%",
                "events",
                "epochs",
                "ev/epoch"
            ),
        );
        for w in &prof.worlds {
            let ns = |ph: Phase| w.phase_ns[ph as usize] as f64 / 1e9;
            p(
                &mut out,
                format!(
                    "  {:<5} {:>9.3}s {:>9.3}s {:>9.3}s {:>9.3}s {:>9.3}s {:>5.1}% {:>9} {:>7} {:>8.1}",
                    w.world,
                    ns(Phase::Execute),
                    ns(Phase::OutboxDrain),
                    ns(Phase::BarrierWait),
                    ns(Phase::Merge),
                    ns(Phase::IdleJump),
                    w.barrier_fraction() * 100.0,
                    w.events,
                    w.epochs,
                    w.events_per_epoch.mean().unwrap_or(0.0)
                ),
            );
        }

        p(&mut out, String::new());
        let epe = prof.events_per_epoch();
        p(
            &mut out,
            format!(
                "epochs: {} windows ({} sync rounds), {} idle-jump; min lookahead {} ns, utilization {}",
                prof.epochs,
                prof.sync_rounds,
                prof.idle_jump_epochs,
                prof.lookahead_ns,
                prof.lookahead_utilization()
                    .map_or_else(|| "n/a".to_string(), |u| format!("{:.1}%", u * 100.0))
            ),
        );
        let horizon_ns = self.sharded.sim_seconds * 1e9;
        let mean_advance_ns = prof.advance_ns_total as f64 / prof.epochs.max(1) as f64;
        let barrier_ns = prof.phase_total_ns(Phase::BarrierWait);
        let accounted: u64 = Phase::ALL.iter().map(|&ph| prof.phase_total_ns(ph)).sum();
        p(
            &mut out,
            format!(
                "epoch efficiency: {} windows, mean advance {:.4}% of horizon, \
                 barrier-wait {:.1}% of accounted wall",
                prof.epochs,
                if horizon_ns > 0.0 {
                    mean_advance_ns / horizon_ns * 100.0
                } else {
                    0.0
                },
                barrier_ns as f64 / accounted.max(1) as f64 * 100.0
            ),
        );
        p(
            &mut out,
            format!(
                "events/epoch (per world): mean {:.1}, p50 {}, p99 {}, max {}",
                epe.mean().unwrap_or(0.0),
                epe.quantile(0.5).unwrap_or(0),
                epe.quantile(0.99).unwrap_or(0),
                epe.max().unwrap_or(0)
            ),
        );

        if let Some(t) = &self.sharded.traffic {
            p(&mut out, String::new());
            p(
                &mut out,
                format!(
                    "cross-world traffic: {} messages over {} world pairs",
                    t.total_messages(),
                    t.cells.len()
                ),
            );
            if let Some(b) = t.busiest() {
                p(
                    &mut out,
                    format!(
                        "  busiest pair: world {} -> {} ({} messages, min slack {} ns, mean {:.0} ns)",
                        b.src,
                        b.dst,
                        b.messages,
                        b.min_slack_ns,
                        b.mean_slack_ns()
                    ),
                );
            }
        }

        p(&mut out, String::new());
        p(
            &mut out,
            format!(
                "determinism: profiled digest {:016x} {} unprofiled {:016x}",
                self.sharded.digest,
                if self.digest_matches_unprofiled {
                    "=="
                } else {
                    "!="
                },
                self.unprofiled_digest
            ),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_covers_wall_and_keeps_digest() {
        let run = run_profile(&ProfileOptions {
            seed: 31,
            quick: true,
            shards: 2,
        });
        assert!(
            run.digest_matches_unprofiled,
            "profiling must not perturb the simulation"
        );
        let prof = run
            .sharded
            .prof
            .as_ref()
            .expect("profiled run has snapshot");
        assert!(prof.epochs > 0);
        for w in &prof.worlds {
            assert!(
                w.phase_ns[Phase::Execute as usize] > 0,
                "world {} executed",
                w.world
            );
        }
        // The coverage bar is checked loosely here (CI machines are noisy
        // and the quick run is short); `repro profile` reports the exact
        // number and the full run meets ≥0.95.
        assert!(
            run.coverage > 0.5,
            "phase sums cover most of the wall: {}",
            run.coverage
        );
        let traffic = run.sharded.traffic.as_ref().expect("traffic matrix on");
        assert!(traffic.total_messages() > 0);
        let text = run.diagnosis();
        assert!(text.contains("top phase costs"));
        assert!(text.contains("busiest pair"));
        assert!(text.contains("epoch efficiency:"));
        assert!(text.contains("sync rounds"));
        assert!(text.contains("=="));
        let json = run.to_json().to_string();
        assert!(json.contains(r#""experiment":"profile""#));
        assert!(json.contains(r#""digest_matches_unprofiled":true"#));
        assert!(
            json.contains(r#""dropped_slices""#),
            "snapshot reports timeline truncation (0 when none)"
        );
        let prom = run.prometheus();
        assert!(prom.contains("ustore_prof_phase_seconds"));
        let trace = run.wallclock_trace().to_string();
        assert!(trace.contains("wall-clock"));
    }
}
