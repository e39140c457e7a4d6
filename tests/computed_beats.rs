//! Differential oracle for computed heartbeats and Paxos learns
//! (DESIGN §17).
//!
//! A steady EndPoint's beats and a steady coordination leader's learns
//! are computed, not simulated. Each test here runs a scenario twice,
//! once as shipped and once with every beat and learn simulated as
//! events under the same model ([`ustore_net::with_simulated_streams`]),
//! and requires identical report rows, spans, scraped series and
//! metrics, apart from the engine's own event and queue figures.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore::messages::ActiveMaster;
use ustore::{
    MasterConfig, ShardedPod, ShardedPodConfig, SpaceName, SystemConfig, TelemetryPlan,
    UStoreSystem, UnitId, WorldTelemetry,
};
use ustore_bench::fuzz::{faults_section, run_fuzz, FuzzOptions};
use ustore_bench::podscale::{run_podscale, PodConfig, RunOpts};
use ustore_bench::{
    ablation, degraded, failover, fig5, fig6, hdfs, megapod, power, table2, Report,
};
use ustore_fabric::{HostId, HubId};
use ustore_net::with_simulated_streams;
use ustore_net::{Addr, BlockDevice, RpcNode};
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
    let computed = with_simulated_streams(false, &run);
    let simulated = with_simulated_streams(true, &run);
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
    // Partitioned metadata puts a replica group in every unit-group
    // world, so their learns are computed there too.
    let partitioned = tiny.partitioned();
    for shards in [1, 2, 4] {
        let (a, b) = both(|| {
            let t = run_podscale(7, &partitioned, &RunOpts::sharded(shards));
            (rows(&[t.report]), strip(&t.telemetry).to_string())
        });
        assert_same(
            &format!("partitioned leased tiny pod --shards {shards}"),
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

/// Host 3's link to the active Master is blocked exactly on one of its
/// beats' send instants, 21 s: every EndPoint of the system is built at 0
/// and beats on the 300 ms grid from there, so that is beat 70. Ticks are
/// early events, so beat 70 counts as sent before the block applies, in
/// both runs; the stream ends with it, and the re-armed tick must send
/// beat 71 at 21.3 s. An off-by-one in either moves the counts.
#[test]
fn a_stream_ended_on_a_send_instant_resumes_with_the_next_beat() {
    assert_system_matches("block on a send instant", |s| {
        let host = ustore::system::unit_host_addr(UnitId(0), HostId(3));
        let master = s.active_master().expect("active").addr();
        let sent = |sim: &Sim, host: &Addr| {
            let metrics = sim.metrics_snapshot();
            metrics.counter(host.as_str(), "endpoint.heartbeats_sent")
        };
        let at = SimTime::from_millis(21_000);
        let before = Rc::new(RefCell::new(0));
        let (b, h) = (before.clone(), host.clone());
        let just_before = SimTime::from_nanos(at.as_nanos() - 1);
        s.sim
            .schedule_at(just_before, move |sim| *b.borrow_mut() = sent(sim, &h));
        let net = s.net.clone();
        s.sim.schedule_at(at, move |sim| {
            assert_eq!(sent(sim, &host), *before.borrow() + 1, "beat 70 sent");
            net.block(sim, &host, &master);
            let net = net.clone();
            sim.schedule_in(Duration::from_secs(1), move |sim| net.heal(sim));
        });
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

/// A one-unit system built from `config`, traced down to debug level (so
/// every exposure push and announcement is logged with its instant), a
/// 1 GiB space allocated, and `act` run at 20 s with the system and the
/// space. The trace log up to `end`.
fn traced_run(
    config: SystemConfig,
    end: SimTime,
    act: impl Fn(&Rc<UStoreSystem>, SpaceName) + Clone + 'static,
) -> Vec<(SimTime, String)> {
    let s = Rc::new(UStoreSystem::build(Sim::new(78), config));
    s.sim.with_trace(|t| t.set_min_level(TraceLevel::Debug));
    s.settle();
    let space = Rc::new(RefCell::new(None));
    let sp = space.clone();
    s.client("app-0")
        .allocate(&s.sim, "svc", 1 << 30, move |_, r| {
            *sp.borrow_mut() = Some(r.expect("allocate").name);
        });
    s.sim.run_until(SimTime::from_secs(20));
    let name = space.borrow().expect("allocated");
    act(&s, name);
    s.sim.run_until(end);
    s.sim.with_trace(|t| {
        t.events()
            .iter()
            .filter(|e| e.level != TraceLevel::Debug || e.component == "master")
            .map(|e| (e.at, format!("{e:?}")))
            .collect()
    })
}

/// Runs `act` both ways on the default system: the same log, in which
/// the lines after 20 s contain each of `expect`, in order.
fn assert_wake_matches(
    name: &str,
    end: SimTime,
    expect: &[&str],
    act: impl Fn(&Rc<UStoreSystem>, SpaceName) + Clone + 'static,
) {
    assert_log_matches(name, SystemConfig::default(), end, expect, act);
}

/// [`assert_wake_matches`] on a system built from `config`.
fn assert_log_matches(
    name: &str,
    config: SystemConfig,
    end: SimTime,
    expect: &[&str],
    act: impl Fn(&Rc<UStoreSystem>, SpaceName) + Clone + 'static,
) {
    let (a, b) = both(|| traced_run(config.clone(), end, act.clone()));
    let text = |v: &[(SimTime, String)]| {
        v.iter()
            .map(|(_, l)| l.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_same(&format!("{name} trace log"), &text(&a), &text(&b));
    let mut lines = a
        .iter()
        .filter(|(at, _)| *at > SimTime::from_secs(20))
        .map(|(_, l)| l);
    for want in expect {
        assert!(
            lines.any(|l| l.contains(want)),
            "{name}: no {want:?} after 20 s, in order"
        );
    }
}

/// A reroute commit clears `exposures_pushed` for the disks it moved
/// after the new host's stream already lists them: the next computed
/// beat from that host must push the space again, at its arrival. The
/// Controller's first answer is lost (its link to the Master is blocked
/// for 50 ms around it), so the commit waits for the retry 40 s later,
/// long after the disks enumerated on the new host.
#[test]
fn a_reroute_commit_pushes_at_the_next_computed_beat() {
    let expect = [
        "pushes /0/0/0 to host-3",
        "reroute of unit0 disk0 complete",
        "pushes /0/0/0 to host-3",
    ];
    let end = SimTime::from_secs(70);
    assert_wake_matches("reroute commit", end, &expect, |s, space| {
        let master = s.active_master().expect("active").clone();
        master.recover_disk(&s.sim, space.unit, space.disk, |_, ok| assert!(ok));
        let (net, m) = (s.net.clone(), master.addr());
        let ctl = ustore::system::unit_host_addr(UnitId(0), HostId(0));
        s.sim.schedule_at(SimTime::from_millis(23_000), move |sim| {
            net.block(sim, &ctl, &m);
            let net = net.clone();
            sim.schedule_in(Duration::from_millis(50), move |sim| net.heal(sim));
        });
    });
}

/// A standby activates with a persisted allocation while every host's
/// steady stream already points at it (the hosts heard a stale
/// announcement naming it just as the active Master died): the first
/// computed beat after activation must push the space, at its arrival.
#[test]
fn a_standby_activating_under_steady_streams_pushes_at_the_next_computed_beat() {
    let expect = ["master-1 active", "master-1 pushes /0/0/0"];
    let end = SimTime::from_secs(45);
    assert_wake_matches("standby activation", end, &expect, |s, _| {
        let active = s
            .masters
            .iter()
            .position(|m| m.is_active())
            .expect("active");
        let standby = s.masters[1 - active].addr();
        s.kill_master(active);
        let announcer = RpcNode::new(&s.net, Addr::new("stale-announcer"));
        for ep in &s.endpoints {
            let msg = ActiveMaster {
                addr: standby.clone(),
            };
            announcer.cast(&s.sim, &ep.addr(), "ep.active_master", Arc::new(msg), 32);
        }
    });
}

/// The active Master's node goes down for 1.5 s while its process runs:
/// its sweeps mark every host dead, and once the node is up the first
/// computed beat of each host must bring it back, at its arrival.
#[test]
fn a_master_node_back_up_hears_steady_streams_at_their_arrivals() {
    let expect = ["missed heartbeats", "is back"];
    let end = SimTime::from_secs(45);
    assert_wake_matches("master node down and up", end, &expect, |s, _| {
        let m = s.active_master().expect("active").addr();
        s.net.set_down(&s.sim, &m);
        let net = s.net.clone();
        s.sim
            .schedule_in(Duration::from_millis(1_530), move |sim| net.set_up(sim, &m));
    });
}

/// Host 0's root hub fails while host 0 beats steadily: its four disks
/// vanish from every ready set, the host's stream ends and reopens
/// without them, and the missing-disk sweep (which skips every disk a
/// covering stream lists) must find and reroute exactly those disks, at
/// the instants the fully simulated run does. The four reroutes race for
/// the Controller; one of them completes.
#[test]
fn a_hub_failure_under_a_steady_host_reroutes_its_disks_at_the_same_instants() {
    let expect = [
        "unit0 disk0 vanished from all USB trees; rerouting",
        "unit0 disk3 vanished from all USB trees; rerouting",
        "reroute of unit0 disk",
        " complete",
    ];
    let end = SimTime::from_secs(45);
    assert_wake_matches("hub failure", end, &expect, |s, _| {
        s.runtime.hub_failed(&s.sim, HubId(0));
    });
}

/// The prototype unit with a 500 ms heartbeat timeout: `announce` looks
/// for hosts silent for more than 250 ms, shorter than the 300 ms beat
/// interval, so no stream covers it and every sweep scans every host.
/// Each announcement must go out at the instant the fully simulated run
/// sends it.
#[test]
fn announcements_under_a_short_heartbeat_timeout_match() {
    let config = SystemConfig {
        master: MasterConfig {
            heartbeat_timeout: Duration::from_millis(500),
            ..MasterConfig::default()
        },
        ..SystemConfig::default()
    };
    let expect = ["announces itself to host-0", "announces itself to host-3"];
    let end = SimTime::from_secs(30);
    assert_log_matches("500 ms timeout", config, end, &expect, |_, _| {});
}

/// A host of unit 2 (world 3 of the tiny pod) is killed at 20 s while
/// its stream is steady; a sweep of the Master (world 0) must declare it
/// dead at the same instant as with every beat simulated, at every shard
/// count.
#[test]
fn a_host_killed_under_a_steady_stream_is_detected_at_the_same_sweep() {
    let kill = (SimTime::from_secs(20), UnitId(2), HostId(1));
    for shards in [1, 2, 4] {
        let (a, b) = both(|| {
            let mut pod = ShardedPod::build_with_kills(5, &tiny_pod(shards), vec![kill]);
            pod.run_until(SimTime::from_secs(30));
            let m = pod.active_master().expect("active").clone();
            assert!(!m.host_alive(kill.1, kill.2), "victim declared dead");
            pod.finalize().iter().map(world_outputs).collect::<Vec<_>>()
        });
        assert!(
            a[0].1.contains("failover.detection"),
            "--shards {shards}: no detection span"
        );
        for (w, (x, y)) in a.iter().zip(&b).enumerate() {
            let what = format!("host kill --shards {shards} world {w}");
            assert_same(&what, &format!("{x:?}"), &format!("{y:?}"));
        }
    }
}
