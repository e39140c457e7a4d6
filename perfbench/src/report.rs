//! Turns a run's iterations into named metrics and correctness checks.
//!
//! Simulated-time metrics come from the first iteration (every iteration
//! of a run repeats the same seed and must agree exactly); wall-clock
//! metrics are medians over iterations.

use ustore_sim::{Json, Phase, ReqKind, Stage};

use crate::stats::{median, quantile};
use crate::workloads::{Outcome, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples behind a percentile or median, where there is one.
    pub samples: Option<u64>,
}

/// `fabric.refailover_s` when the space never became readable again
/// within the probe's timeout: a value no recovery can take.
pub const REFAILOVER_UNRECOVERED_S: f64 = 1000.0;

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples: None,
    }
}

fn ms(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |v| v as f64 / 1e6)
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// End-to-end metrics of a run's untraced iterations, with `setups` the
/// timed deployment builds and `peak_rss_mb` the process's peak after
/// them. The first iteration warms caches and the allocator up and is left
/// out of the `run_s` median.
pub fn end_to_end(outs: &[Outcome], setups: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let first = &outs[0].sim;
    let timed = if outs.len() > 1 { &outs[1..] } else { outs };
    let runs: Vec<f64> = timed.iter().map(|o| o.run_s).collect();
    let reads = sorted(&first.io.read_ns);
    let writes = sorted(&first.io.write_ns);
    let with = |mut x: Metric, n: usize| {
        x.samples = Some(n as u64);
        x
    };
    let io = &first.io;
    vec![
        with(m("setup_s", "s", median(setups)), setups.len()),
        with(m("run_s", "s", median(&runs)), runs.len()),
        m("peak_rss_mb", "MB", peak_rss_mb),
        with(
            m("read_ttfb_p50_ms", "ms", ms(quantile(&reads, 0.5))),
            reads.len(),
        ),
        with(
            m("read_ttfb_p99_ms", "ms", ms(quantile(&reads, 0.99))),
            reads.len(),
        ),
        with(
            m("write_p50_ms", "ms", ms(quantile(&writes, 0.5))),
            writes.len(),
        ),
        with(
            m("write_p99_ms", "ms", ms(quantile(&writes, 0.99))),
            writes.len(),
        ),
        m("io_mb_s", "MB/s", io.acked_bytes as f64 / 1e6 / io.window_s),
        with(
            m(
                "io_ok_frac",
                "ratio",
                1.0 - io.failed() as f64 / io.attempted.max(1) as f64,
            ),
            io.attempted as usize,
        ),
        m("disk_power_w", "W", first.disk_power_w),
    ]
}

/// Per-layer metrics of a traced run: `traced` iterations carry the
/// request tracer (and the engine profiler on the sharded engine);
/// `untraced` ones are the same seed without them.
pub fn per_layer(
    w: Workload,
    untraced: &[Outcome],
    traced: &[Outcome],
    shards: usize,
    nproc: usize,
) -> Vec<Metric> {
    let t0 = &traced[0];
    let f = &t0.sim;
    let med = |g: &dyn Fn(&Outcome) -> f64| median(&traced.iter().map(g).collect::<Vec<f64>>());
    let run_s = med(&|o| o.run_s);
    let c = |name: &str| f.counters.get(name).copied().unwrap_or(0) as f64;
    let io_bytes = f.io.acked_bytes.max(1) as f64;
    let trace = t0.trace.as_ref();
    // Stage percentiles are over reads (the TTFB breakdown), except the
    // client queue, which writes fill.
    let stage_p99 = |kind: ReqKind, s: Stage| {
        trace.map_or(0.0, |t| ms(t.kind(kind).stages[s as usize].quantile(0.99)))
    };
    let read_p99 = |s: Stage| stage_p99(ReqKind::Read, s);
    let reads = trace.map(|t| t.kind(ReqKind::Read));
    let fo: Vec<f64> = f.failovers.iter().map(|x| x.total_s).collect();
    let fo_med = |g: &dyn Fn(&crate::workloads::FailoverTimes) -> f64| {
        if f.failovers.is_empty() {
            0.0
        } else {
            median(&f.failovers.iter().map(g).collect::<Vec<f64>>())
        }
    };
    let prof = t0.prof.as_ref();
    let exec: Vec<f64> = prof.map_or(Vec::new(), |p| {
        p.worlds
            .iter()
            .map(|w| w.phase_ns[Phase::Execute as usize] as f64 / 1e9)
            .collect()
    });
    let exec_total = exec.iter().fold(0.0, |a, b| a + b);
    let untraced_run = median(&untraced.iter().map(|o| o.run_s).collect::<Vec<f64>>());
    let sharded = w == Workload::MegapodSharded;
    vec![
        // sim: the event engine.
        m("sim.events", "count", f.events as f64),
        m("sim.events_per_s", "1/s", f.events as f64 / run_s),
        m(
            "sim.allocs_per_event",
            "count",
            med(&|o| o.allocs as f64) / f.events.max(1) as f64,
        ),
        m(
            "sim.alloc_bytes_per_io_byte",
            "ratio",
            med(&|o| o.alloc_bytes as f64) / io_bytes,
        ),
        m("sim.peak_queue_depth", "count", f.peak_queue_depth),
        m("sim.cpu_s", "s", med(&|o| o.cpu_s)),
        m("sim.runq_wait_s", "s", med(&|o| o.runq_wait_s)),
        m("sim.steal_s", "s", med(&|o| o.steal_s)),
        m("core.settle_s", "s", med(&|o| o.phases.settle)),
        m("core.attach_s", "s", med(&|o| o.phases.attach)),
        m("sim.workload_s", "s", med(&|o| o.phases.workload)),
        m("telemetry.export_s", "s", med(&|o| o.phases.export)),
        m("sim.teardown_s", "s", med(&|o| o.phases.teardown)),
        // shard: the sharded engine's coordinator.
        m(
            "shard.shards",
            "count",
            if sharded { shards as f64 } else { 1.0 },
        ),
        m("shard.epochs", "count", f.epochs as f64),
        m("shard.sync_rounds", "count", f.sync_rounds as f64),
        m("shard.cross_messages", "count", f.cross_messages as f64),
        m("shard.execute_s", "s", exec_total),
        m(
            "shard.barrier_wait_s",
            "s",
            prof.map_or(0.0, |p| p.phase_total_ns(Phase::BarrierWait) as f64 / 1e9),
        ),
        m(
            "shard.balance",
            "ratio",
            if exec.is_empty() {
                0.0
            } else {
                exec.iter().copied().fold(0.0, f64::max) / (exec_total / exec.len() as f64)
            },
        ),
        m(
            "shard.control_frac",
            "ratio",
            exec.first()
                .map_or(0.0, |w0| w0 / exec_total.max(f64::MIN_POSITIVE)),
        ),
        m("shard.cpu_per_wall", "ratio", med(&|o| o.cpu_s / o.run_s)),
        // telemetry.
        m("telemetry.series", "count", f.series as f64),
        // net.
        m("net.rpc_calls", "count", c("rpc.calls")),
        m("net.rpc_timeouts", "count", c("rpc.timeouts")),
        m("net.rpc_rtt_p99_us", "us", f.rpc_rtt_p99_ns as f64 / 1e3),
        m("net.transit_p99_ms", "ms", read_p99(Stage::NetTransit)),
        // consensus.
        m("consensus.proposals", "count", c("consensus.proposals")),
        m("consensus.elections", "count", c("consensus.elections")),
        m("consensus.log_len", "count", f.log_len as f64),
        // core: master, clientlib, endpoint.
        m("master.heartbeats", "count", c("master.heartbeats")),
        m(
            "master.lookup_p99_ms",
            "ms",
            ms(quantile(&sorted(&f.io.lookup_ns), 0.99)),
        ),
        m(
            "master.lookup_stage_p99_ms",
            "ms",
            read_p99(Stage::MasterLookup),
        ),
        m("master.detect_s", "s", fo_med(&|x| x.detect_s)),
        m(
            "clientlib.lease_hit_rate",
            "ratio",
            trace.and_then(|t| t.lease_hit_rate()).unwrap_or(0.0),
        ),
        m(
            "clientlib.client_queue_p99_ms",
            "ms",
            stage_p99(ReqKind::Write, Stage::ClientQueue),
        ),
        m("clientlib.remounts", "count", c("client.remounts")),
        m("clientlib.remount_s", "s", fo_med(&|x| x.remount_s)),
        m(
            "endpoint.queue_p99_ms",
            "ms",
            read_p99(Stage::EndpointQueue),
        ),
        m(
            "endpoint.heartbeats_sent",
            "count",
            c("endpoint.heartbeats_sent"),
        ),
        // fabric.
        m("fabric.reconfig_s", "s", fo_med(&|x| x.reconfig_s)),
        m("fabric.switch_flips", "count", c("fabric.switch_flips")),
        m("fabric.commands", "count", c("fabric.commands")),
        m(
            "fabric.refailover_s",
            "s",
            match t0.refailover_s {
                Some(Some(s)) => s,
                Some(None) => REFAILOVER_UNRECOVERED_S,
                None => 0.0,
            },
        ),
        // disk.
        m("disk.seeks", "count", c("disk.seeks")),
        m("disk.seek_p99_ms", "ms", read_p99(Stage::Seek)),
        m("disk.cache_hits", "count", c("disk.cache_hits")),
        m("disk.spin_ups", "count", c("disk.spin_ups")),
        m(
            "disk.cold_hit_frac",
            "ratio",
            reads.map_or(0.0, |k| k.cold_completed as f64 / k.completed.max(1) as f64),
        ),
        m(
            "disk.spin_up_wait_p99_ms",
            "ms",
            read_p99(Stage::SpinUpWait),
        ),
        m("disk.write_bytes", "bytes", c("disk.write_bytes")),
        // usb.
        m("usb.bytes", "bytes", c("usb.bytes")),
        m("usb.root_busy_frac", "ratio", f.usb_root_busy_frac),
        m("usb.transfer_p99_ms", "ms", read_p99(Stage::Transfer)),
        // Whole-system figures that only the traced run reports.
        m(
            "failover_p50_s",
            "s",
            if fo.is_empty() { 0.0 } else { median(&fo) },
        ),
        m(
            "failover_max_s",
            "s",
            fo.iter().copied().fold(0.0, f64::max),
        ),
        m(
            "io.fail_frac",
            "ratio",
            f.io.failed() as f64 / f.io.attempted.max(1) as f64,
        ),
        m("io.reads", "count", f.io.read_ns.len() as f64),
        m("io.writes", "count", f.io.write_ns.len() as f64),
        m("trace.overhead_s", "s", run_s - untraced_run),
        m(
            "trace.coverage_p50",
            "ratio",
            trace.and_then(|t| t.min_coverage(0.5)).unwrap_or(0.0),
        ),
        m(
            "trace.coverage_p99",
            "ratio",
            trace.and_then(|t| t.min_coverage(0.99)).unwrap_or(0.0),
        ),
        m("trace.spans", "count", t0.spans.len() as f64),
        m("bench.nproc", "count", nproc as f64),
    ]
}

/// Named correctness checks over a run's iterations. `traced` is empty
/// for an untraced run.
pub fn checks(w: Workload, untraced: &[Outcome], traced: &[Outcome]) -> Vec<(String, bool)> {
    let f = &untraced[0].sim;
    let mut out = vec![
        (
            "repeated iterations of the seed agree exactly".to_string(),
            untraced.iter().all(|o| o.sim == *f),
        ),
        (
            "window reads return the expected bytes".into(),
            f.io.mismatches == 0 && f.io.checked > 0,
        ),
        (
            "acknowledged writes read back intact".into(),
            f.verify_issued > 0 && f.verify_passed == f.verify_issued,
        ),
        (
            "reads and writes completed".into(),
            !f.io.read_ns.is_empty() && !f.io.write_ns.is_empty(),
        ),
    ];
    if w == Workload::UnitFailover {
        out.push((
            "every host kill recovered".into(),
            !f.failovers.is_empty() && f.failovers.iter().all(|x| x.total_s.is_finite()),
        ));
    } else {
        out.push((
            "no request failed or timed out".into(),
            f.io.failed() == 0 && f.io.lookup_errors == 0,
        ));
    }
    if !traced.is_empty() {
        out.push((
            "traced and untraced runs agree (telemetry digest included)".into(),
            traced.iter().all(|o| o.sim == *f),
        ));
        let cov = |q: f64| {
            traced[0]
                .trace
                .as_ref()
                .and_then(|t| t.min_coverage(q))
                .unwrap_or(0.0)
        };
        out.push((
            "reqtrace stage coverage >= 0.95 at p50 and p99".into(),
            cov(0.5) >= 0.95 && cov(0.99) >= 0.95,
        ));
    }
    out
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`,
/// each metric under the name it is paired with.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, x)| {
                (
                    name.as_str(),
                    Json::obj([("value", Json::f64(x.value)), ("unit", Json::str(x.unit))]),
                )
            })),
        ),
    ])
}
