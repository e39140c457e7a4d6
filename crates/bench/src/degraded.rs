//! Proactive recovery from a *slowly failing* disk.
//!
//! The hard-failover experiment ([`crate::failover`]) measures the path
//! the paper measures: a host dies outright and the heartbeat sweeper
//! notices. Real cold-storage drives rarely die that cleanly — they drift
//! first (seek latency creeps up, uncorrectable reads appear), and a
//! system that waits for the hard failure serves degraded IO the whole
//! while. This scenario measures the telemetry-driven alternative:
//!
//! 1. a full deployment runs a steady random-read workload with the
//!    telemetry pipeline on (scraper + Master-side health watchdog);
//! 2. at a known onset the serving disk starts degrading — its seek time
//!    is stretched in steps and it begins throwing uncorrectable reads;
//! 3. a hard failure of the same disk is scheduled for `onset +
//!    25 s` — the watchdog races it;
//! 4. the watchdog detects the drift from the scraped series, escalates
//!    through [`Master::recover_disk`](ustore::Master) into the fabric
//!    reconfiguration path, and the client remounts the moved disk.
//!
//! The detection → reconfiguration → remount breakdown is read off the
//! `degradation` span tree the watchdog emits, and the same timeline is
//! visible in the exported time series as the per-disk `watchdog.phase`
//! gauge (0 healthy … 4 recovered). The run's artifacts (Prometheus
//! text, Chrome trace JSON, time-series CSV) ship with the report.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use ustore::{Mounted, SpaceInfo, UStoreSystem, WatchdogConfig};
use ustore_net::BlockDevice;
use ustore_sim::{Json, ScraperConfig, SimTime, Span, TraceLevel};

use crate::report::{Report, Row, TelemetryArtifacts};

/// Scrape cadence for the scenario (finer than the default 500 ms so the
/// phase timeline resolves sub-second transitions).
const SCRAPE_INTERVAL: Duration = Duration::from_millis(250);
/// Read workload cadence — every scrape window sees fresh samples.
const READ_INTERVAL: Duration = Duration::from_millis(100);
/// Healthy warm-up before the degradation onset (baseline learning).
const WARMUP: Duration = Duration::from_secs(8);
/// Onset-relative deadline at which the drive fails hard if the watchdog
/// has not finished recovery by then.
const HARD_FAILURE_AFTER: Duration = Duration::from_secs(25);
/// Longest wait, once the read workload stops, for IO already queued or
/// in flight (and the remounts its errors start) to finish.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Measured breakdown of one degraded-disk recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedTiming {
    /// Degradation onset to the watchdog escalating (sustained breach).
    pub detection: Duration,
    /// Escalation to the fabric reporting the disk rerouted.
    pub reconfiguration: Duration,
    /// Reroute completion to the client's IO flowing again.
    pub remount: Duration,
    /// Onset to recovered, end to end.
    pub total: Duration,
    /// How long before the scheduled hard failure recovery completed
    /// (zero if the race was lost and the drive died).
    pub margin: Duration,
    /// Health events the watchdog recorded during the run.
    pub events: usize,
    /// Whether recovery beat the hard failure.
    pub recovered: bool,
}

/// One scenario run: timing, machine-readable telemetry, and the
/// standard-format exports.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRun {
    /// The phase breakdown.
    pub timing: DegradedTiming,
    /// `{"experiment", "seed", "disk", …, "phase_timeline", "metrics",
    /// "spans"}`.
    pub telemetry: Json,
    /// Prometheus / Chrome-trace / CSV exports of the run.
    pub artifacts: TelemetryArtifacts,
    /// Engine events processed over the whole run (perf harness input).
    pub events_processed: u64,
    /// Peak live event-queue depth over the run.
    pub peak_queue_depth: f64,
}

/// Runs the degraded-disk scenario once.
pub fn run_degraded_traced(seed: u64) -> DegradedRun {
    let s = UStoreSystem::prototype(seed);
    s.sim.with_trace(|t| t.set_min_level(TraceLevel::Info));
    s.settle();

    // Telemetry pipeline + watchdog. The slow EWMA keeps the baseline from
    // chasing the ramp between breaching windows.
    let scraper = s.start_telemetry(ScraperConfig {
        interval: SCRAPE_INTERVAL,
        retention: 8192,
    });
    let dog = s
        .install_watchdog(
            &scraper,
            WatchdogConfig {
                ewma_alpha: 0.1,
                ..WatchdogConfig::default()
            },
        )
        .expect("active master after settle");

    // Allocate and mount the space the workload will hammer.
    let client = s.client("app-1");
    let info: Rc<RefCell<Option<SpaceInfo>>> = Rc::new(RefCell::new(None));
    let i2 = info.clone();
    client.allocate(&s.sim, "bench", 1 << 30, move |_, r| {
        *i2.borrow_mut() = Some(r.expect("allocate"));
    });
    s.sim.run_until(s.sim.now() + Duration::from_secs(5));
    let info = info.borrow().clone().expect("allocated");
    let mounted: Rc<RefCell<Option<Mounted>>> = Rc::new(RefCell::new(None));
    let m2 = mounted.clone();
    client.mount(&s.sim, info.name, move |_, r| {
        *m2.borrow_mut() = Some(r.expect("mount"));
    });
    s.sim.run_until(s.sim.now() + Duration::from_secs(10));
    let mounted = mounted.borrow().clone().expect("mounted");

    let disk = s.runtime.disk(info.name.disk);
    let component = format!("{}", info.name.disk);

    // Steady random-read workload. Each successful read checks whether the
    // watchdog's remount phase is waiting on it and, if so, closes it —
    // exactly how the hard-failover scenario closes `failover.remount`.
    let recovered_at: Rc<Cell<SimTime>> = Rc::new(Cell::new(SimTime::ZERO));
    let reads = {
        let mounted = mounted.clone();
        let comp = component.clone();
        let rec = recovered_at.clone();
        let k = Cell::new(0u64);
        s.sim.every(READ_INTERVAL, READ_INTERVAL, move |sim| {
            let n = k.get();
            k.set(n + 1);
            // Deterministic scattered offsets: every read seeks.
            let offset = (n.wrapping_mul(7919) % (1 << 18)) * 4096;
            let comp = comp.clone();
            let rec = rec.clone();
            mounted.read(
                sim,
                offset,
                4096,
                Box::new(move |sim, r| {
                    if r.is_ok() && rec.get() == SimTime::ZERO {
                        if let Some(rm) =
                            sim.with_spans(|t| t.find_open_by("degradation.remount", "disk", &comp))
                        {
                            sim.span_end(rm);
                            rec.set(sim.now());
                        }
                    }
                }),
            );
        })
    };
    s.sim.run_until(s.sim.now() + WARMUP);
    let onset = s.sim.now();

    // The degradation ramp: seek time ×1.5, ×3, ×6, ×8 at 2 s intervals;
    // uncorrectable reads start at the second step. The ramp outruns the
    // EWMA baseline, as a failing spindle outruns a capacity plan.
    for (i, (factor, err)) in [(1.5, 0.0), (3.0, 0.05), (6.0, 0.10), (8.0, 0.15)]
        .into_iter()
        .enumerate()
    {
        let d = disk.clone();
        s.sim
            .schedule_at(onset + Duration::from_secs(2 * i as u64), move |sim| {
                d.set_latency_factor(factor);
                d.set_read_error_rate(sim, err);
            });
    }
    // The race: if recovery has not finished by the deadline, the drive
    // dies hard and the ordinary failover path takes over.
    {
        let d = disk.clone();
        let rec = recovered_at.clone();
        s.sim.schedule_at(onset + HARD_FAILURE_AFTER, move |sim| {
            if rec.get() == SimTime::ZERO {
                sim.trace(
                    TraceLevel::Warn,
                    "bench",
                    "degraded disk reached hard failure before recovery",
                );
                d.set_failed(sim, true);
            }
        });
    }
    s.sim
        .run_until(onset + HARD_FAILURE_AFTER + Duration::from_secs(7));
    // Stop the workload and drain until every span has closed, so the
    // exports do not depend on where the window's end falls among the
    // client's remounts (each read error starts one).
    s.sim.cancel_timer(reads);
    let drain_end = s.sim.now() + DRAIN_LIMIT;
    while s.sim.now() < drain_end && s.sim.with_spans(|t| t.spans().iter().any(Span::is_open)) {
        s.sim.run_until(s.sim.now() + READ_INTERVAL);
    }

    // Phase boundaries from the watchdog's degradation span tree.
    let (detection, reconfiguration, remount) = s.sim.with_spans(|t| {
        let root = t
            .by_name("degradation")
            .filter(|sp| sp.start >= onset)
            .last()
            .expect("degradation root span")
            .id;
        let child = |n: &str| t.children(root).find(|c| &*c.name == n).cloned();
        (
            child("degradation.detection"),
            child("degradation.reconfiguration"),
            child("degradation.remount"),
        )
    });
    let escalated = detection
        .expect("detection span")
        .end
        .expect("watchdog escalated");
    let rerouted = reconfiguration
        .expect("reconfiguration span")
        .end
        .expect("fabric rerouted the disk");
    let end = recovered_at.get();
    let recovered = end > SimTime::ZERO;
    if recovered {
        let rm = remount.expect("remount span");
        assert_eq!(rm.end, Some(end), "remount closes at the client's read");
    }
    let deadline = onset + HARD_FAILURE_AFTER;
    let timing = DegradedTiming {
        detection: escalated.saturating_duration_since(onset),
        reconfiguration: rerouted.saturating_duration_since(escalated),
        remount: end.saturating_duration_since(rerouted),
        total: end.saturating_duration_since(onset),
        margin: if recovered {
            deadline.saturating_duration_since(end)
        } else {
            Duration::ZERO
        },
        events: dog.events().len(),
        recovered,
    };

    // The same timeline, read straight from the exported time series.
    let phase_timeline: Vec<(f64, f64)> =
        scraper.window(&component, "watchdog.phase", onset, s.sim.now());
    s.runtime.publish_residency(&s.sim);
    let telemetry = Json::obj([
        ("experiment", Json::str("degraded")),
        ("seed", Json::u64(seed)),
        ("disk", Json::str(component.clone())),
        ("detection_s", Json::f64(timing.detection.as_secs_f64())),
        (
            "reconfiguration_s",
            Json::f64(timing.reconfiguration.as_secs_f64()),
        ),
        ("remount_s", Json::f64(timing.remount.as_secs_f64())),
        ("total_s", Json::f64(timing.total.as_secs_f64())),
        ("margin_s", Json::f64(timing.margin.as_secs_f64())),
        (
            "phase_timeline",
            Json::arr(
                phase_timeline
                    .iter()
                    .map(|&(t, v)| Json::arr([Json::f64(t), Json::f64(v)])),
            ),
        ),
        ("metrics", s.sim.metrics_snapshot().to_json()),
        ("spans", s.sim.with_spans(|t| t.to_json())),
    ]);
    let artifacts = TelemetryArtifacts::capture(&s.sim, &scraper);
    let peak_queue_depth = s
        .sim
        .metrics_snapshot()
        .gauge("sim", "queue_depth_max")
        .unwrap_or(0.0);
    DegradedRun {
        timing,
        telemetry,
        artifacts,
        events_processed: s.sim.events_processed(),
        peak_queue_depth,
    }
}

/// Regenerates the degraded-disk report.
pub fn degraded_report(seed: u64) -> Report {
    degraded_report_traced(seed).0
}

/// Like [`degraded_report`], also returning the run's telemetry and
/// artifacts.
pub fn degraded_report_traced(seed: u64) -> (Report, Json, TelemetryArtifacts) {
    let run = run_degraded_traced(seed);
    let t = &run.timing;
    let rows = vec![
        Row::measured_only("detection (onset→escalate)", t.detection.as_secs_f64(), "s"),
        Row::measured_only("reconfiguration", t.reconfiguration.as_secs_f64(), "s"),
        Row::measured_only("remount", t.remount.as_secs_f64(), "s"),
        Row::measured_only("total proactive recovery", t.total.as_secs_f64(), "s"),
        Row::measured_only("margin before hard failure", t.margin.as_secs_f64(), "s"),
        Row::measured_only("health events recorded", t.events as f64, ""),
    ];
    (
        Report::new("degraded-disk watchdog recovery", rows),
        run.telemetry,
        run.artifacts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_beats_the_hard_failure() {
        let run = run_degraded_traced(501);
        let t = &run.timing;
        assert!(t.recovered, "recovery completed");
        assert!(t.events > 0, "health events recorded");
        assert!(
            t.detection > Duration::ZERO && t.detection < Duration::from_secs(10),
            "detection {:?}",
            t.detection
        );
        assert!(
            t.total < HARD_FAILURE_AFTER,
            "recovered in {:?}, before the {HARD_FAILURE_AFTER:?} deadline",
            t.total
        );
        assert!(t.margin > Duration::from_secs(5), "margin {:?}", t.margin);
    }

    #[test]
    fn phase_timeline_is_readable_from_exported_series() {
        let run = run_degraded_traced(502);
        assert!(run.timing.recovered);
        let timeline = run
            .telemetry
            .get("phase_timeline")
            .and_then(Json::as_arr)
            .expect("phase timeline");
        let at = |phase: f64| {
            timeline
                .iter()
                .filter_map(|p| {
                    let p = p.as_arr()?;
                    (p[1].as_f64()? == phase).then(|| p[0].as_f64())?
                })
                .next()
        };
        let detect = at(1.0)
            .or_else(|| at(2.0))
            .expect("detecting/reconfiguring");
        let remount = at(3.0).expect("remounting sampled");
        let recovered = at(4.0).expect("recovered sampled");
        assert!(detect < remount && remount < recovered, "phases in order");

        // And the artifacts carry the same story in standard formats.
        assert!(run
            .artifacts
            .prometheus
            .contains("ustore_watchdog_escalations"));
        assert!(run.artifacts.timeseries_csv.contains("watchdog.phase"));
        assert!(run.artifacts.chrome_trace.contains("degradation.remount"));
    }
}
