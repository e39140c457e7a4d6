//! Request-lifecycle SLO harness (`repro slo`).
//!
//! Runs the pod-scale deployment three ways — sharded with the request
//! tracer on, sharded with it off, and on the classic single-threaded
//! engine with it on — and turns the trace snapshots into a
//! time-to-first-byte decomposition:
//!
//! - **where each quantile goes**: per-stage p50 / p99 / p99.9 tables for
//!   reads and writes (client queue, master lookup, network transit,
//!   endpoint queue, spin-up wait, seek, transfer, retry), with the
//!   coverage fraction (stage sums ÷ end-to-end) proving the attribution
//!   tiles the latency;
//! - **what the tail looks like**: the slowest-request exemplars with
//!   their full stage timelines, renderable as Perfetto tracks
//!   ([`SloRun::request_trace`]);
//! - **what tracing costs**: a digest gate proving the tracer never
//!   perturbed the simulation (traced and untraced telemetry digests must
//!   be bit-identical).
//!
//! The coverage acceptance bar is ≥ 0.95 at every reported quantile: a
//! pod whose stage accounting explains less than 95% of its TTFB has an
//! unattributed latency source, which is exactly the situation the tracer
//! exists to prevent.

use ustore::TracePlan;
use ustore_sim::{export, Json, SpanTracer, Stage, TraceRecord, TraceSnapshot};

use crate::podscale::{run_podscale, PodConfig, PodscaleRun, RunOpts};

/// The quantiles every SLO table reports, with display labels.
pub const SLO_QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p99", 0.99), ("p99.9", 0.999)];

/// Minimum stage-coverage fraction accepted at each reported quantile.
pub const COVERAGE_BAR: f64 = 0.95;

/// SLO-run options.
#[derive(Debug, Clone, Copy)]
pub struct SloOptions {
    /// Simulation seed (shared by all three runs).
    pub seed: u64,
    /// Quick mode: the shorter podscale workload window.
    pub quick: bool,
    /// Executor threads for the sharded runs.
    pub shards: usize,
    /// Keep one full per-stage trace every this many completions.
    pub sample_every: u64,
    /// Slowest-request exemplars always retained.
    pub exemplars: usize,
}

/// Everything `repro slo` measured.
#[derive(Debug, Clone)]
pub struct SloRun {
    /// Seed the runs used.
    pub seed: u64,
    /// Quick mode flag.
    pub quick: bool,
    /// Executor threads for the sharded runs.
    pub shards: usize,
    /// Pod shape measured.
    pub pod: PodConfig,
    /// The traced sharded run (`slo` populated).
    pub sharded: PodscaleRun,
    /// The traced classic (single-threaded) run (`slo` populated).
    pub classic: PodscaleRun,
    /// Telemetry digest of the untraced sharded run.
    pub untraced_digest: u64,
    /// Whether the traced and untraced digests are bit-identical — the
    /// proof that tracing is a pure observability side channel.
    pub digest_matches_untraced: bool,
    /// Minimum coverage over kinds and reported quantiles on the sharded
    /// snapshot. `None` when no request completed.
    pub min_coverage: Option<f64>,
    /// The partitioned + leased pod shape (the same pod with one metadata
    /// partition per unit-group world and client location leases).
    pub leased_pod: PodConfig,
    /// The traced partitioned + leased sharded run (`slo` populated) —
    /// the before/after comparison for the `master_lookup` stage.
    pub leased: PodscaleRun,
    /// Telemetry digest of the untraced partitioned + leased run.
    pub leased_untraced_digest: u64,
    /// Tracer-purity gate for the partitioned + leased configuration.
    pub leased_digest_matches: bool,
    /// Fraction of location-lease consultations the leased run served
    /// from cache. `None` when the leased run consulted no lease.
    pub lease_hit_rate: Option<f64>,
}

/// Runs the SLO harness: traced sharded, untraced sharded (the digest
/// gate), and traced classic.
pub fn run_slo(opts: &SloOptions) -> SloRun {
    let pod = if opts.quick {
        PodConfig::quick()
    } else {
        PodConfig::pod()
    };
    let plan = TracePlan {
        sample_every: opts.sample_every,
        exemplars: opts.exemplars,
    };
    let traced = |shards| RunOpts {
        shards,
        profile: false,
        trace: Some(plan.clone()),
    };
    let sharded = run_podscale(opts.seed, &pod, &traced(Some(opts.shards)));
    let untraced = run_podscale(opts.seed, &pod, &RunOpts::sharded(opts.shards));
    let classic = run_podscale(opts.seed, &pod, &traced(None));
    // The same pod with the control plane scaled out: per-world metadata
    // partitions plus client location leases. Traced for the before/after
    // master_lookup comparison, untraced for its own purity gate (leased
    // digests are a different scenario, so they get their own pair).
    let leased_pod = pod.clone().partitioned();
    let leased = run_podscale(opts.seed, &leased_pod, &traced(Some(opts.shards)));
    let leased_untraced = run_podscale(opts.seed, &leased_pod, &RunOpts::sharded(opts.shards));
    let min_coverage = sharded.slo.as_ref().and_then(|s| {
        SLO_QUANTILES
            .iter()
            .filter_map(|&(_, q)| s.min_coverage(q))
            .min_by(|a, b| a.partial_cmp(b).expect("coverage is finite"))
    });
    let lease_hit_rate = leased.slo.as_ref().and_then(TraceSnapshot::lease_hit_rate);
    SloRun {
        seed: opts.seed,
        quick: opts.quick,
        shards: opts.shards,
        pod,
        untraced_digest: untraced.digest,
        digest_matches_untraced: sharded.digest == untraced.digest,
        min_coverage,
        leased_untraced_digest: leased_untraced.digest,
        leased_digest_matches: leased.digest == leased_untraced.digest,
        lease_hit_rate,
        leased_pod,
        leased,
        sharded,
        classic,
    }
}

/// The `metadata` section of `BENCH_podscale.json` (schema v7) and of the
/// `repro slo` report: the partitioned + leased control-plane comparison —
/// partition count, per-partition replicated-log lengths, lease traffic,
/// and the client-observed `master_lookup` distribution before (monolithic
/// Master, no lease) and after (partitioned + leased).
pub fn metadata_section(
    baseline: Option<&TraceSnapshot>,
    leased: &PodscaleRun,
    leased_pod: &PodConfig,
) -> Json {
    let mut out = Json::obj([
        (
            "partitions",
            Json::u64(u64::from(leased_pod.partitions.max(1))),
        ),
        (
            "lease_ms",
            leased_pod
                .location_lease
                .map_or(Json::Null, |d| Json::u64(d.as_millis() as u64)),
        ),
        ("digest", Json::str(format!("{:016x}", leased.digest))),
        (
            "partition_log_lens",
            Json::arr(leased.partition_logs.iter().map(|&(p, len)| {
                Json::obj([
                    ("partition", Json::u64(u64::from(p))),
                    ("log_len", Json::u64(len)),
                ])
            })),
        ),
    ]);
    if let Some(snap) = &leased.slo {
        out.insert("lease_hits", Json::u64(snap.lease_hits));
        out.insert("lease_misses", Json::u64(snap.lease_misses));
        if let Some(r) = snap.lease_hit_rate() {
            out.insert("lease_hit_rate", Json::f64(r));
        }
        let q = |h: &ustore_sim::Histogram, q: f64| Json::u64(h.quantile(q).unwrap_or(0));
        let mut lookup = Json::obj([
            ("after_p50_ns", q(&snap.master_lookup, 0.5)),
            ("after_p99_ns", q(&snap.master_lookup, 0.99)),
        ]);
        if let Some(base) = baseline {
            lookup.insert("before_p50_ns", q(&base.master_lookup, 0.5));
            lookup.insert("before_p99_ns", q(&base.master_lookup, 0.99));
        }
        out.insert("master_lookup", lookup);
    }
    out
}

/// The `slo` section of `BENCH_podscale.json` (schema v4, unchanged in v6): the traced
/// sharded + classic snapshots and the digest gate.
pub fn slo_section(
    sharded: &PodscaleRun,
    classic: &PodscaleRun,
    untraced_digest: Option<u64>,
) -> Json {
    let snap = |run: &PodscaleRun| run.slo.as_ref().map_or(Json::Null, TraceSnapshot::to_json);
    let mut out = Json::obj([("sharded", snap(sharded)), ("classic", snap(classic))]);
    if let Some(d) = untraced_digest {
        out.insert("digest_matches_untraced", Json::Bool(sharded.digest == d));
    }
    out
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.2} ms", ns as f64 / 1e6)
}

impl SloRun {
    /// The machine-readable document (`repro slo --json`).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj([
            ("experiment", Json::str("slo")),
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
                "untraced_digest",
                Json::str(format!("{:016x}", self.untraced_digest)),
            ),
        ]);
        if let Some(c) = self.min_coverage {
            doc.insert("min_coverage", Json::f64(c));
        }
        doc.insert(
            "slo",
            slo_section(&self.sharded, &self.classic, Some(self.untraced_digest)),
        );
        let mut meta = metadata_section(self.sharded.slo.as_ref(), &self.leased, &self.leased_pod);
        meta.insert(
            "untraced_digest",
            Json::str(format!("{:016x}", self.leased_untraced_digest)),
        );
        meta.insert(
            "digest_matches_untraced",
            Json::Bool(self.leased_digest_matches),
        );
        doc.insert("metadata", meta);
        doc
    }

    /// The exemplar Perfetto trace: one track per slowest request with its
    /// stage timeline as nested slices, plus cluster annotations — all in
    /// simulated time.
    pub fn request_trace(&self) -> Json {
        let spans = SpanTracer::new();
        match &self.sharded.slo {
            Some(s) => export::chrome_trace_with_requests(&spans, s),
            None => export::chrome_trace(&spans),
        }
    }

    /// Human-readable TTFB decomposition report.
    pub fn decomposition(&self) -> String {
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
        let snap = self
            .sharded
            .slo
            .as_ref()
            .expect("traced run has a snapshot");
        p(
            &mut out,
            format!(
                "requests: {} completed, {} retries, {} cold hits, {} abandoned, {} live at end",
                snap.seen, snap.retries, snap.cold_hits, snap.abandoned, snap.live_at_end
            ),
        );
        p(
            &mut out,
            format!(
                "sampling: {} full traces kept (1 per {} completions, {} dropped past cap), {} exemplars",
                snap.sampled.len(),
                snap.sample_every,
                snap.sample_dropped,
                snap.exemplars.len()
            ),
        );
        p(
            &mut out,
            format!(
                "master lookups: {} served, {} unresolved; client-observed p99 {}",
                snap.lookups_served,
                snap.lookups_unresolved,
                fmt_ms(snap.master_lookup.quantile(0.99).unwrap_or(0))
            ),
        );

        for stats in &snap.kinds {
            if stats.completed == 0 {
                continue;
            }
            p(&mut out, String::new());
            p(
                &mut out,
                format!(
                    "ttfb decomposition — {} ({} completed, {} cold):",
                    stats.kind.name(),
                    stats.completed,
                    stats.cold_completed
                ),
            );
            p(
                &mut out,
                format!(
                    "  {:<14} {:>12} {:>12} {:>12} {:>7} {:>9}",
                    "stage", "p50", "p99", "p99.9", "share", "dominant"
                ),
            );
            for s in Stage::ALL {
                let h = &stats.stages[s as usize];
                p(
                    &mut out,
                    format!(
                        "  {:<14} {:>12} {:>12} {:>12} {:>6.1}% {:>9}",
                        s.name(),
                        fmt_ms(h.quantile(0.5).unwrap_or(0)),
                        fmt_ms(h.quantile(0.99).unwrap_or(0)),
                        fmt_ms(h.quantile(0.999).unwrap_or(0)),
                        stats.stage_share(s) * 100.0,
                        stats.dominant[s as usize]
                    ),
                );
            }
            p(
                &mut out,
                format!(
                    "  {:<14} {:>12} {:>12} {:>12}",
                    "attributed",
                    fmt_ms(stats.attributed.quantile(0.5).unwrap_or(0)),
                    fmt_ms(stats.attributed.quantile(0.99).unwrap_or(0)),
                    fmt_ms(stats.attributed.quantile(0.999).unwrap_or(0)),
                ),
            );
            p(
                &mut out,
                format!(
                    "  {:<14} {:>12} {:>12} {:>12}",
                    "end-to-end",
                    fmt_ms(stats.e2e.quantile(0.5).unwrap_or(0)),
                    fmt_ms(stats.e2e.quantile(0.99).unwrap_or(0)),
                    fmt_ms(stats.e2e.quantile(0.999).unwrap_or(0)),
                ),
            );
            let cov: Vec<String> = SLO_QUANTILES
                .iter()
                .map(|&(label, q)| {
                    stats.coverage(q).map_or_else(
                        || format!("{label} n/a"),
                        |c| format!("{label} {:.1}%", c * 100.0),
                    )
                })
                .collect();
            p(&mut out, format!("  coverage: {}", cov.join(", ")));
        }

        if let Some(w) = snap.worst() {
            p(&mut out, String::new());
            p(&mut out, worst_exemplar_timeline(w));
        }
        if !snap.annotations.is_empty() {
            p(
                &mut out,
                format!(
                    "cluster annotations: {} (first: {:.3} s {})",
                    snap.annotations.len(),
                    snap.annotations[0].0 as f64 / 1e9,
                    snap.annotations[0].1
                ),
            );
        }

        p(&mut out, String::new());
        if let Some(c) = self.min_coverage {
            p(
                &mut out,
                format!(
                    "coverage floor: {:.1}% across kinds and quantiles (bar: {:.0}%)",
                    c * 100.0,
                    COVERAGE_BAR * 100.0
                ),
            );
        }
        p(
            &mut out,
            format!(
                "determinism: traced digest {:016x} {} untraced {:016x}",
                self.sharded.digest,
                if self.digest_matches_untraced {
                    "=="
                } else {
                    "!="
                },
                self.untraced_digest
            ),
        );

        p(&mut out, String::new());
        p(
            &mut out,
            format!(
                "control plane off the critical path: {} metadata partitions, {} lease",
                self.leased_pod.partitions,
                self.leased_pod
                    .location_lease
                    .map_or_else(|| "no".to_string(), |d| format!("{} ms", d.as_millis())),
            ),
        );
        let leased = self.leased.slo.as_ref().expect("traced run has a snapshot");
        p(
            &mut out,
            format!(
                "  lease consultations: {} hits / {} misses{}",
                leased.lease_hits,
                leased.lease_misses,
                leased
                    .lease_hit_rate()
                    .map_or_else(String::new, |r| format!(" (hit rate {:.1}%)", r * 100.0)),
            ),
        );
        // The median is where the lease shows up: hits are served
        // locally (recorded as zero), so at hit rates above 50% the
        // median consultation becomes free. The tail is the residual
        // misses, measured under full workload.
        let q = |h: &ustore_sim::Histogram, q: f64| {
            h.quantile(q).map_or_else(|| "n/a".to_string(), fmt_ms)
        };
        p(
            &mut out,
            format!(
                "  master_lookup p50: {} unpartitioned -> {} partitioned+leased",
                q(&snap.master_lookup, 0.5),
                q(&leased.master_lookup, 0.5),
            ),
        );
        p(
            &mut out,
            format!(
                "  master_lookup p99: {} unpartitioned -> {} partitioned+leased (residual misses)",
                q(&snap.master_lookup, 0.99),
                q(&leased.master_lookup, 0.99),
            ),
        );
        p(
            &mut out,
            format!(
                "  partition logs: {}",
                self.leased
                    .partition_logs
                    .iter()
                    .map(|(p, len)| format!("p{p}={len}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        );
        p(
            &mut out,
            format!(
                "  determinism: leased traced digest {:016x} {} untraced {:016x}",
                self.leased.digest,
                if self.leased_digest_matches {
                    "=="
                } else {
                    "!="
                },
                self.leased_untraced_digest
            ),
        );
        out
    }
}

/// Renders the slowest request's stage timeline, one attributed interval
/// per line, offsets relative to issue time.
fn worst_exemplar_timeline(w: &TraceRecord) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "worst request: id {} ({}{}, {} attempt{}) — ttfb {}, dominant {}\n",
        w.id,
        w.kind.name(),
        if w.cold { ", cold" } else { "" },
        w.attempts,
        if w.attempts == 1 { "" } else { "s" },
        fmt_ms(w.ttfb_ns),
        w.dominant().name()
    ));
    for seg in &w.segments {
        out.push_str(&format!(
            "  +{:>10} {:<14} {}\n",
            fmt_ms(seg.start_ns.saturating_sub(w.start_ns)),
            seg.stage.name(),
            fmt_ms(seg.dur_ns)
        ));
    }
    let unattributed = w.ttfb_ns.saturating_sub(w.attributed_ns);
    if unattributed > 0 {
        out.push_str(&format!("  (unattributed: {})\n", fmt_ms(unattributed)));
    }
    out.pop();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_slo_covers_ttfb_and_keeps_digest() {
        let run = run_slo(&SloOptions {
            seed: 41,
            quick: true,
            shards: 2,
            sample_every: 16,
            exemplars: 4,
        });
        assert!(
            run.digest_matches_untraced,
            "tracing must not perturb the simulation"
        );
        assert!(
            run.leased_digest_matches,
            "tracing must not perturb the partitioned + leased simulation"
        );
        assert_eq!(
            run.leased_pod.partitions, run.pod.world_groups,
            "one metadata partition per unit-group world"
        );
        assert_eq!(run.leased.io_errors, 0, "leased pod serves all IO");
        assert!(
            run.leased.partition_logs.len() == run.leased_pod.partitions as usize
                && run.leased.partition_logs.iter().all(|&(_, l)| l > 0),
            "every metadata partition applied log entries: {:?}",
            run.leased.partition_logs
        );
        assert!(
            run.lease_hit_rate.expect("leases consulted") > 0.0,
            "steady-state directory refreshes must hit the lease cache"
        );
        // Lease hits are served locally and recorded as zero, so with a
        // healthy hit rate the *median* directory consultation becomes
        // free; the tail (p99) is still a real Master round trip and is
        // measured under full workload, so it is not comparable with the
        // unleased baseline's bring-up-time lookups.
        let base_p50 = run
            .sharded
            .slo
            .as_ref()
            .and_then(|s| s.master_lookup.quantile(0.5))
            .expect("baseline lookups measured");
        let leased_p50 = run
            .leased
            .slo
            .as_ref()
            .and_then(|s| s.master_lookup.quantile(0.5))
            .unwrap_or(0);
        assert!(
            leased_p50 < base_p50,
            "leased master_lookup p50 ({leased_p50} ns) must beat the unleased baseline ({base_p50} ns)"
        );
        let snap = run.sharded.slo.as_ref().expect("traced run has snapshot");
        assert!(snap.seen > 0, "workload completed under trace");
        assert!(snap.worst().is_some(), "exemplars retained");
        assert!(
            run.min_coverage.expect("coverage computed") >= COVERAGE_BAR,
            "stage sums must explain >= 95% of TTFB: {:?}",
            run.min_coverage
        );
        let classic = run.classic.slo.as_ref().expect("classic traced too");
        assert!(classic.seen > 0);

        let text = run.decomposition();
        assert!(text.contains("ttfb decomposition — read"));
        assert!(text.contains("spin_up_wait"));
        assert!(text.contains("worst request"));
        assert!(text.contains("=="));
        assert!(text.contains("metadata partitions"));
        assert!(text.contains("lease consultations"));
        let json = run.to_json().to_string();
        assert!(json.contains(r#""experiment":"slo""#));
        assert!(json.contains(r#""digest_matches_untraced":true"#));
        assert!(json.contains(r#""metadata":"#));
        assert!(json.contains(r#""lease_hit_rate":"#));
        assert!(json.contains(r#""partition_log_lens":"#));
        let trace = run.request_trace().to_string();
        assert!(trace.contains("requests"));
        assert!(trace.contains("reqtrace"));
    }
}
