//! Differential oracle for computed heartbeats (DESIGN §17).
//!
//! A steady EndPoint's beats are computed, not simulated. Each test here
//! runs a scenario twice, once as shipped and once with every beat
//! simulated as events under the same model
//! ([`ustore::beats::with_simulated_beats`]), and requires identical
//! report rows, spans, scraped series and metrics, apart from the
//! engine's own event and queue figures.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use ustore::beats::with_simulated_beats;
use ustore::{
    ShardedPod, ShardedPodConfig, SystemConfig, TelemetryPlan, UStoreSystem, UnitId, WorldTelemetry,
};
use ustore_bench::fuzz::{faults_section, run_fuzz, FuzzOptions};
use ustore_bench::podscale::{run_podscale, PodConfig, RunOpts};
use ustore_bench::{
    ablation, degraded, failover, fig5, fig6, hdfs, megapod, power, table2, Report,
};
use ustore_fabric::HostId;
use ustore_net::BlockDevice;
use ustore_sim::{Json, ScraperConfig, Sim, SimTime, TraceLevel};

/// Keys that count engine work rather than simulated behaviour (the
/// digests hash whole registries, engine gauges included).
const ENGINE_KEYS: [&str; 12] = [
    "telemetry_digest",
    "replay_digest",
    "peak_queue_depth_max",
    "peak_queue_depth_sum",
    "events",
    "events_per_sec",
    "peak_queue_depth",
    "epochs",
    "sync_rounds",
    "cross_messages",
    "digest",
    "world_digests",
];

/// `j` without engine figures: `sim/*` series and [`ENGINE_KEYS`].
fn strip(j: &Json) -> Json {
    match j {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !k.starts_with("sim/") && !ENGINE_KEYS.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), strip(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip).collect()),
        other => other.clone(),
    }
}

/// Report row labels that count engine work.
const ENGINE_ROWS: [&str; 5] = [
    "events",
    "queue depth",
    "epoch",
    "sync rounds",
    "cross-world",
];

/// Report rows, minus rows about engine work.
fn rows(reports: &[Report]) -> String {
    reports
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.rows
                .retain(|row| !ENGINE_ROWS.iter().any(|e| row.label.contains(e)));
            format!("{r:?}")
        })
        .collect()
}

/// Metrics JSON, span JSON and scrape CSV with the `sim/*` series removed.
fn world_outputs(t: &WorldTelemetry) -> (String, String, String) {
    let metrics = t
        .metrics_json
        .split(',')
        .filter(|kv| !kv.contains("\"sim/"))
        .collect::<Vec<_>>()
        .join(",");
    let csv = t
        .scrape_csv
        .lines()
        .filter(|l| !l.starts_with("sim,"))
        .collect::<Vec<_>>()
        .join("\n");
    (metrics, t.spans_json.clone(), csv)
}

/// Asserts `a == b`, reporting only the first differing line.
fn assert_same(what: &str, a: &str, b: &str) {
    if a == b {
        return;
    }
    let split = |s: &str| -> Vec<String> {
        s.split(['\n', ',', '{'])
            .map(|l| l.chars().take(160).collect())
            .collect()
    };
    let (la, lb) = (split(a), split(b));
    let i = la
        .iter()
        .zip(&lb)
        .position(|(x, y)| x != y)
        .unwrap_or(la.len().min(lb.len()));
    panic!(
        "{what}: computed and simulated beats differ at item {i}:\n  computed:  {:?}\n  simulated: {:?}",
        la.get(i.saturating_sub(1)..(i + 2).min(la.len())),
        lb.get(i.saturating_sub(1)..(i + 2).min(lb.len())),
    );
}

fn both<T>(run: impl Fn() -> T) -> (T, T) {
    let computed = with_simulated_beats(false, &run);
    let simulated = with_simulated_beats(true, &run);
    (computed, simulated)
}

#[test]
fn repro_experiments_match_with_every_beat_simulated() {
    let seed = 20150707;
    let (a, b) = both(|| {
        let (f, ft, _) = failover::failover_report_traced(seed);
        let (d, dt, _) = degraded::degraded_report_traced(seed);
        let mut reports = vec![
            f,
            d,
            hdfs::hdfs_report(seed),
            fig6::fig6(seed, 1),
            fig5::duplex(seed),
            power::table1(),
            power::table3(seed),
            power::table4(),
            power::table5(),
            power::rolling_spin_up_ablation(seed),
            ablation::topology_ablation(),
            ablation::heartbeat_sweep(seed),
            ablation::allocation_ablation(seed),
        ];
        reports.extend(table2::table2(seed));
        reports.extend(fig5::fig5(seed));
        let fuzz = run_fuzz(&FuzzOptions {
            seed,
            quick: true,
            shards: 1,
            campaigns: 2,
            synthetic_fail: false,
            replay: None,
        });
        (
            rows(&reports),
            strip(&ft).to_string(),
            strip(&dt).to_string(),
            strip(&faults_section(&fuzz)).to_string(),
        )
    });
    assert_same("report rows", &a.0, &b.0);
    assert_same("failover telemetry", &a.1, &b.1);
    assert_same("degraded telemetry", &a.2, &b.2);
    assert_same("fuzz campaigns", &a.3, &b.3);
}

#[test]
fn pods_match_with_every_beat_simulated() {
    let tiny = PodConfig::tiny();
    let quick = megapod::megapod_quick();
    for opts in [
        RunOpts::default(),
        RunOpts::sharded(1),
        RunOpts::sharded(2),
        RunOpts::sharded(4),
    ] {
        let (a, b) = both(|| {
            let t = run_podscale(7, &tiny, &opts);
            (
                t.writes_ok,
                t.reads_ok,
                rows(&[t.report]),
                strip(&t.telemetry).to_string(),
            )
        });
        assert_same(
            &format!("tiny pod {opts:?}"),
            &format!("{a:?}"),
            &format!("{b:?}"),
        );
    }
    let (a, b) = both(|| {
        let t = run_podscale(7, &quick, &RunOpts::sharded(2));
        (rows(&[t.report]), strip(&t.telemetry).to_string())
    });
    assert_same("quick megapod", &format!("{a:?}"), &format!("{b:?}"));
}

/// A one-unit system with a scraper, a mounted space under read/write
/// load, and `faults` applied at 20 s; the telemetry of the whole run.
fn system_run(
    faults: impl Fn(&Rc<UStoreSystem>) + Clone + 'static,
) -> (WorldTelemetry, Vec<String>) {
    let s = Rc::new(UStoreSystem::build(Sim::new(77), SystemConfig::default()));
    s.sim.with_trace(|t| t.set_min_level(TraceLevel::Info));
    let scraper = s.start_telemetry(ScraperConfig {
        interval: Duration::from_millis(500),
        ..ScraperConfig::default()
    });
    s.settle();
    let client = s.client("app-0");
    let mounted = Rc::new(RefCell::new(None));
    let m2 = mounted.clone();
    let c2 = client.clone();
    client.allocate(&s.sim, "svc", 1 << 30, move |sim, r| {
        let info = r.expect("allocate");
        c2.mount(sim, info.name, move |_, r| {
            *m2.borrow_mut() = Some(r.expect("mount"));
        });
    });
    s.sim.run_until(SimTime::from_secs(20));
    let s2 = s.clone();
    s.sim
        .schedule_at(SimTime::from_secs(20), move |_| faults(&s2));
    let mounted = mounted.borrow().clone().expect("mounted");
    for k in 0..40u64 {
        let m = mounted.clone();
        s.sim
            .schedule_at(SimTime::from_millis(20_000 + 1_000 * k), move |sim| {
                m.write(sim, k * 4096, vec![k as u8; 4096], Box::new(|_, _| {}));
                m.read(sim, 0, 4096, Box::new(|_, _| {}));
            });
    }
    s.sim.run_until(SimTime::from_secs(75));
    let log = s
        .sim
        .with_trace(|t| t.events().iter().map(|e| format!("{e:?}")).collect());
    let s = Rc::try_unwrap(s).expect("sole owner");
    (s.finalize(Some(&scraper)), log)
}

fn assert_system_matches(name: &str, faults: impl Fn(&Rc<UStoreSystem>) + Clone + 'static) {
    let (a, b) = both(|| {
        let (t, log) = system_run(faults.clone());
        (world_outputs(&t), log, t.events)
    });
    assert_same(
        &format!("{name} trace log"),
        &a.1.join("\n"),
        &b.1.join("\n"),
    );
    assert_same(&format!("{name} metrics"), &a.0 .0, &b.0 .0);
    assert_same(&format!("{name} spans"), &a.0 .1, &b.0 .1);
    assert_same(&format!("{name} scraped series"), &a.0 .2, &b.0 .2);
    assert!(
        a.2 < b.2,
        "{name}: computed beats should save events ({} vs {})",
        a.2,
        b.2
    );
}

#[test]
fn host_kill_and_restore_match() {
    assert_system_matches("kill/restore", |s| {
        s.kill_host(HostId(2));
        let s2 = s.clone();
        s.sim
            .schedule_in(Duration::from_secs(20), move |_| s2.restore_host(HostId(2)));
    });
}

#[test]
fn master_failover_matches() {
    assert_system_matches("master failover", |s| {
        let i = s
            .masters
            .iter()
            .position(|m| m.is_active())
            .expect("active");
        s.kill_master(i);
    });
}

#[test]
fn partition_from_the_master_matches() {
    assert_system_matches("partition", |s| {
        let host = ustore::system::unit_host_addr(UnitId(0), HostId(3));
        for m in &s.masters {
            s.net.partition(&s.sim, &host, &m.addr());
        }
        let net = s.net.clone();
        s.sim
            .schedule_in(Duration::from_secs(3), move |sim| net.heal(sim));
    });
}

#[test]
fn ready_set_change_matches() {
    assert_system_matches("ready set change", |s| {
        let rt = s.runtime.clone();
        let d = rt.disk_ids()[5];
        rt.set_disk_power(&s.sim, d, false);
        s.sim.schedule_in(Duration::from_secs(12), move |sim| {
            rt.set_disk_power(sim, d, true)
        });
    });
}

fn tiny_pod(shards: usize) -> ShardedPodConfig {
    ShardedPodConfig {
        system: SystemConfig {
            units: 4,
            ..SystemConfig::default()
        },
        groups: 4,
        shards,
        clients: vec!["app-0".into()],
        telemetry: Some(TelemetryPlan {
            start: SimTime::from_secs(1),
            scraper: ScraperConfig::default(),
        }),
        trace_level: TraceLevel::Warn,
        profile: false,
        trace: None,
    }
}

#[test]
fn sharded_pod_with_a_host_kill_matches() {
    for shards in [1, 2, 4] {
        let (a, b) = both(|| {
            let mut pod = ShardedPod::build(5, &tiny_pod(shards));
            pod.run_until(SimTime::from_secs(20));
            let client = pod.clients[0].clone();
            client.allocate(&pod.sim, "svc", 1 << 30, |_, r| {
                r.expect("allocate");
            });
            pod.run_until(SimTime::from_secs(40));
            pod.finalize().iter().map(world_outputs).collect::<Vec<_>>()
        });
        for (w, (x, y)) in a.iter().zip(&b).enumerate() {
            let what = format!("sharded tiny pod --shards {shards} world {w}");
            assert_same(&what, &format!("{x:?}"), &format!("{y:?}"));
        }
    }
}
