//! Seeded scenario fuzzer with deterministic replay (`repro fuzz`).
//!
//! Every fault path in this reproduction was grown against hand-scripted
//! scenarios: one disk drifts, one host dies, one hub fails. The fuzzer
//! closes the gap between those unit scenarios and what an operating
//! fleet actually experiences — *many* faults, correlated, at awkward
//! times — by running randomized campaigns and checking system-level
//! invariants after each one:
//!
//! 1. draw a [`FaultSchedule`] from the empirical fault model
//!    (`ustore_sim::faultgen`): bathtub drive failures, latent sector
//!    errors, degradation ramps, scrub passes, hub/host domain outages;
//! 2. run a full [`UStoreSystem`] (2 units / 8 hosts / 16 disks) with the
//!    telemetry pipeline and health watchdog on, under a steady tracked
//!    read/write workload, and apply the schedule through the ordinary
//!    injection hooks (`set_latency_factor`, `set_read_error_rate`,
//!    `inject_bad_page`, `set_failed`, `Disk::scrub`, fabric hub/host
//!    kill paths);
//! 3. after a repair grace window, read back every acknowledged write and
//!    probe every mount: an acked write that cannot be read back — and is
//!    not explained by an injected fault (drive loss, latent sector) — is
//!    an **invariant violation**, as is a mount that never came back on a
//!    healthy disk. Explained losses feed the durability accounting
//!    instead of failing the run.
//!
//! On a violation the fuzzer **shrinks** the schedule (greedy ddmin-style
//! chunk removal, bounded reruns) to a minimal still-failing event list,
//! then **replays** the campaign from its seed and asserts the telemetry
//! digest is bit-identical — the contract that `repro fuzz --replay
//! <seed>` reproduces exactly what the campaign saw. The replay gate also
//! runs on clean campaigns so CI always exercises it. `--synthetic-fail`
//! plants a harness-level expectation fault (no simulator state touched)
//! so the shrink + failing-replay paths stay tested even when the system
//! is healthy; its minimal schedule is empty, correctly showing the
//! failure is not schedule-dependent.
//!
//! Everything is a pure function of the root seed: campaign seeds are
//! derived with the sharded engine's own SplitMix64 mixer, schedules are
//! keyed per-(world, unit) exactly like the shard decomposition (thread
//! count never enters — goldened in `tests/determinism.rs`), and each
//! campaign runs on one seeded [`Sim`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Duration;

use ustore::{Mounted, SpaceInfo, SystemConfig, UStoreSystem, UnitId, WatchdogConfig};
use ustore_fabric::{DiskId, UpRef};
use ustore_net::BlockDevice;
use ustore_sim::faultgen::mix_seed;
use ustore_sim::{
    FaultKind, FaultModelConfig, FaultSchedule, FleetShape, Json, ScraperConfig, Sim,
};

use crate::podscale::world_digest;

/// 4 KiB pages, matching the disk model's sector-error granularity.
const PAGE: u64 = 4096;
/// Tracked write size (two whole pages — a full-page overwrite repairs).
const WRITE_LEN: u64 = 2 * PAGE;
/// Space size each fuzz client allocates.
const SPACE_SIZE: u64 = 256 << 20;
/// Tracked mounts (one per fuzz client).
const MOUNTS: u32 = 2;
/// Steady-state write cadence per mount.
const WRITE_INTERVAL: Duration = Duration::from_millis(400);
/// Steady-state read cadence per mount.
const READ_INTERVAL: Duration = Duration::from_millis(150);
/// Healthy warm-up before the fault window (watchdog baseline learning).
const WARMUP: Duration = Duration::from_secs(8);
/// Per-disk background patrol-read cadence: keeps every disk's latency
/// series alive so the watchdog can see drift on disks the tracked
/// workload never touches.
const PATROL_INTERVAL: Duration = Duration::from_millis(700);
/// Post-horizon repair grace: domain repairs dwell 10 s, then remounts.
const GRACE: Duration = Duration::from_secs(20);
/// Settle window after the final probes are issued (a probe of a latent
/// bad page exhausts the client's remount-retry loop before failing).
const PROBE_WINDOW: Duration = Duration::from_secs(20);
/// Acked writes probed per mount (evenly sampled; all are counted for
/// durability, the probe set bounds the readback traffic).
const PROBES_PER_MOUNT: usize = 40;
/// Campaign reruns the shrinker may spend minimizing one failure.
const SHRINK_BUDGET: u32 = 16;

/// Fuzzer options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzOptions {
    /// Root seed; campaign seeds derive from it.
    pub seed: u64,
    /// Quick mode: the shorter, denser fault model (what CI runs).
    pub quick: bool,
    /// Executor threads the equivalent sharded run would use. Schedule
    /// generation provably ignores it; carried so the report states the
    /// invariance it was checked under.
    pub shards: usize,
    /// Campaigns to run (ignored when `replay` is set).
    pub campaigns: u32,
    /// Plant a harness-level self-test fault in every campaign.
    pub synthetic_fail: bool,
    /// Replay exactly one campaign by its campaign seed.
    pub replay: Option<u64>,
}

impl FuzzOptions {
    /// The fault model matching the mode.
    pub fn model(&self) -> FaultModelConfig {
        if self.quick {
            FaultModelConfig::quick()
        } else {
            FaultModelConfig::reference()
        }
    }
}

/// The fleet every campaign runs: 2 units × (4 hosts, 8 disks, fan-in 4),
/// decomposed one unit per world like the sharded pod would be.
pub fn campaign_shape() -> FleetShape {
    FleetShape {
        units: 2,
        hosts_per_unit: 4,
        disks_per_unit: 8,
        fanin: 4,
        world_groups: 2,
    }
}

fn campaign_system_config() -> SystemConfig {
    let shape = campaign_shape();
    SystemConfig {
        units: shape.units,
        hosts: shape.hosts_per_unit,
        disks: shape.disks_per_unit,
        fanin: shape.fanin as usize,
        ..SystemConfig::default()
    }
}

/// Campaign seed for campaign index `i` under a root seed — the same
/// SplitMix64 mixing the sharded engine keys world streams with.
pub fn campaign_seed(root: u64, i: u32) -> u64 {
    mix_seed(root, 0xFA07_0000 + u64::from(i))
}

/// One acknowledged tracked write.
#[derive(Debug, Clone, Copy)]
struct AckedWrite {
    offset: u64,
    fill: u8,
}

/// What the harness injected, so the oracle can tell bug from fault.
#[derive(Default)]
struct Tracker {
    /// Disks the schedule hard-failed, by (unit, disk).
    hard_failed: BTreeSet<(u32, u32)>,
    /// Latent-sector pages injected per (unit, disk).
    lse: BTreeMap<(u32, u32), BTreeSet<u64>>,
    /// Disks already marked as watchdog ground truth.
    marked: BTreeSet<String>,
    scrub_scanned_pages: u64,
    scrub_found: u64,
    scrub_repaired_pages: u64,
    io_errors: u64,
}

/// Outcome of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The campaign seed (feed it to `--replay`).
    pub seed: u64,
    /// Digest of the applied schedule.
    pub schedule_digest: u64,
    /// Events in the applied schedule.
    pub schedule_events: usize,
    /// Schedule composition by kind label.
    pub counts: Vec<(&'static str, u64)>,
    /// Campaign digest: telemetry digest ⊕ rotated schedule digest.
    pub digest: u64,
    /// Acknowledged tracked writes.
    pub acked: u64,
    /// Probed acked writes read back with the right bytes.
    pub survived: u64,
    /// Acked writes on drives the schedule hard-failed (explained loss).
    pub lost_hard: u64,
    /// Probed acked writes lost to injected latent sectors (explained).
    pub lost_latent: u64,
    /// Invariant violations (empty = campaign passed).
    pub violations: Vec<String>,
    /// Watchdog escalations over the campaign.
    pub escalations: u64,
    /// Watchdog false positives (escalated never-degraded disks).
    pub false_pos: u64,
    /// Watchdog false negatives (degraded disks never escalated).
    pub false_neg: u64,
    /// Disks the schedule actually put on a degradation ramp.
    pub truth_marked: u64,
    /// Pages covered by background scrub passes.
    pub scrub_scanned_pages: u64,
    /// Latent pages scrub repaired.
    pub scrub_repaired_pages: u64,
    /// Workload IO errors observed mid-campaign (expected under faults).
    pub io_errors: u64,
    /// Virtual seconds the campaign simulated.
    pub sim_seconds: f64,
    /// Engine events processed.
    pub events_processed: u64,
}

impl CampaignOutcome {
    fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// A failing campaign, minimized and replayed.
#[derive(Debug, Clone)]
pub struct FailingCase {
    /// The failing campaign's seed.
    pub seed: u64,
    /// Its violations.
    pub violations: Vec<String>,
    /// Events in the original schedule.
    pub original_events: usize,
    /// The minimal still-failing schedule.
    pub minimized: FaultSchedule,
    /// Campaign reruns the shrinker spent.
    pub shrink_runs: u32,
}

/// The replay determinism gate.
#[derive(Debug, Clone, Copy)]
pub struct ReplayCheck {
    /// Seed that was replayed.
    pub seed: u64,
    /// Digest of the first run.
    pub digest: u64,
    /// Digest of the replay.
    pub replay_digest: u64,
    /// Bit-identical?
    pub matches: bool,
}

/// A full fuzz run: campaigns, the (optional) minimized failure, and the
/// replay gate.
#[derive(Debug, Clone)]
pub struct FuzzRun {
    /// Options the run used.
    pub options: FuzzOptions,
    /// The fleet shape every campaign ran.
    pub shape: FleetShape,
    /// Per-campaign outcomes, in seed-derivation order.
    pub campaigns: Vec<CampaignOutcome>,
    /// First failing campaign, shrunk — `None` when all passed.
    pub failing: Option<FailingCase>,
    /// The replay gate (failing campaign's seed when there is one).
    pub replay: ReplayCheck,
}

/// One campaign: build the system, run the tracked workload, apply the
/// schedule, then let the oracle judge the wreckage.
fn run_campaign(
    seed: u64,
    model: &FaultModelConfig,
    schedule: &FaultSchedule,
    synthetic_fail: bool,
) -> CampaignOutcome {
    let s = Rc::new(UStoreSystem::build(
        Sim::new(seed),
        campaign_system_config(),
    ));
    s.settle();

    let scraper = s.start_telemetry(ScraperConfig {
        interval: Duration::from_millis(500),
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

    // Allocate and mount one tracked space per client.
    let mut mounts: Vec<(Mounted, SpaceInfo)> = Vec::new();
    {
        let infos: Rc<RefCell<Vec<SpaceInfo>>> = Rc::new(RefCell::new(Vec::new()));
        let clients: Vec<_> = (0..MOUNTS)
            .map(|c| s.client(&format!("fuzz-{c}")))
            .collect();
        for client in &clients {
            let i2 = infos.clone();
            client.allocate(&s.sim, "fuzz", SPACE_SIZE, move |_, r| {
                i2.borrow_mut().push(r.expect("allocate"));
            });
        }
        s.sim.run_until(s.sim.now() + Duration::from_secs(5));
        let mut infos = infos.borrow_mut();
        infos.sort_by_key(|i| (i.name.unit, i.name.disk, i.name.space));
        for (client, info) in clients.iter().zip(infos.drain(..)) {
            let slot: Rc<RefCell<Option<Mounted>>> = Rc::new(RefCell::new(None));
            let m2 = slot.clone();
            client.mount(&s.sim, info.name, move |_, r| {
                *m2.borrow_mut() = Some(r.expect("mount"));
            });
            s.sim.run_until(s.sim.now() + Duration::from_secs(5));
            let mounted = slot.borrow_mut().take().expect("mounted");
            mounts.push((mounted, info));
        }
    }

    let tracker: Rc<RefCell<Tracker>> = Rc::new(RefCell::new(Tracker::default()));
    let stop = Rc::new(Cell::new(false));
    let mut acked_lists: Vec<Rc<RefCell<Vec<AckedWrite>>>> = Vec::new();

    // Tracked workload: append-style writes (distinct fill bytes, never
    // reusing an offset, so an acked write has exactly one expected
    // payload) and scattered reads that keep every disk's latency series
    // alive for the watchdog.
    for (mi, (mounted, info)) in mounts.iter().enumerate() {
        let acked: Rc<RefCell<Vec<AckedWrite>>> = Rc::new(RefCell::new(Vec::new()));
        acked_lists.push(acked.clone());
        let disk_key = (info.name.unit.0, info.name.disk.0);
        {
            let mounted = mounted.clone();
            let acked = acked.clone();
            let tracker = tracker.clone();
            let stop = stop.clone();
            let n = Cell::new(0u64);
            s.sim.every(WRITE_INTERVAL, WRITE_INTERVAL, move |sim| {
                if stop.get() || tracker.borrow().hard_failed.contains(&disk_key) {
                    return;
                }
                let k = n.get();
                n.set(k + 1);
                let offset = k * WRITE_LEN;
                if offset + WRITE_LEN > SPACE_SIZE {
                    return;
                }
                let fill = 1 + ((k + 13 * mi as u64) % 250) as u8;
                let acked = acked.clone();
                let tracker = tracker.clone();
                mounted.write(
                    sim,
                    offset,
                    vec![fill; WRITE_LEN as usize],
                    Box::new(move |_, r| match r {
                        Ok(()) => acked.borrow_mut().push(AckedWrite { offset, fill }),
                        Err(_) => tracker.borrow_mut().io_errors += 1,
                    }),
                );
            });
        }
        {
            let mounted = mounted.clone();
            let tracker = tracker.clone();
            let stop = stop.clone();
            let n = Cell::new(0u64);
            s.sim.every(READ_INTERVAL, READ_INTERVAL, move |sim| {
                if stop.get() || tracker.borrow().hard_failed.contains(&disk_key) {
                    return;
                }
                let k = n.get();
                n.set(k + 1);
                let offset = (k.wrapping_mul(7919) % (SPACE_SIZE / PAGE / 4)) * PAGE;
                let tracker = tracker.clone();
                mounted.read(
                    sim,
                    offset,
                    PAGE,
                    Box::new(move |_, r| {
                        if r.is_err() {
                            tracker.borrow_mut().io_errors += 1;
                        }
                    }),
                );
            });
        }
    }

    // Patrol reads: a light background read against every disk in the
    // fleet. Without them a drifting idle disk has no latency series for
    // the watchdog to breach (a guaranteed false negative), and latent
    // sector errors could only surface on the one restore read that
    // needed them — patrol is how production fleets find both.
    for (u, rt) in s.runtimes.iter().enumerate() {
        for d in rt.disk_ids() {
            let rt = rt.clone();
            let tracker = tracker.clone();
            let stop = stop.clone();
            let key = (u as u32, d.0);
            let n = Cell::new(0u64);
            let first = PATROL_INTERVAL + Duration::from_millis(37 * (u64::from(d.0) + 1));
            s.sim.every(first, PATROL_INTERVAL, move |sim| {
                if stop.get() || tracker.borrow().hard_failed.contains(&key) {
                    return;
                }
                let k = n.get();
                n.set(k + 1);
                let offset = (k.wrapping_mul(7919) % ((64 << 20) / PAGE)) * PAGE;
                rt.read(sim, d, offset, PAGE, |_, _| {});
            });
        }
    }
    s.sim.run_until(s.sim.now() + WARMUP);

    // Apply the schedule. Indices are logical (unit-relative); resolve
    // them against the runtimes here, at the only layer that knows both.
    let fault_start = s.sim.now();
    for ev in &schedule.events {
        let at = fault_start + Duration::from_nanos(ev.at.as_nanos());
        match ev.kind.clone() {
            FaultKind::DriveFailure { unit, disk } => {
                let d = s.runtimes[unit as usize].disk(DiskId(disk));
                let tracker = tracker.clone();
                s.sim.schedule_at(at, move |sim| {
                    tracker.borrow_mut().hard_failed.insert((unit, disk));
                    d.set_failed(sim, true);
                });
            }
            FaultKind::LatencyDrift {
                unit,
                disk,
                factor,
                error_rate,
            } => {
                let d = s.runtimes[unit as usize].disk(DiskId(disk));
                let dog = dog.clone();
                let tracker = tracker.clone();
                let component = format!("{}", DiskId(disk));
                s.sim.schedule_at(at, move |sim| {
                    // Ground truth for FP/FN accounting: a drifting disk
                    // is what the watchdog is *supposed* to escalate.
                    // (Components are name-keyed; units sharing disk
                    // names share one watch, like their metrics merge.)
                    if tracker.borrow_mut().marked.insert(component.clone()) {
                        dog.mark_degraded(&component);
                    }
                    d.set_latency_factor(factor);
                    d.set_read_error_rate(sim, error_rate);
                });
            }
            FaultKind::LatentSector { unit, disk, offset } => {
                let d = s.runtimes[unit as usize].disk(DiskId(disk));
                let tracker = tracker.clone();
                s.sim.schedule_at(at, move |_| {
                    tracker
                        .borrow_mut()
                        .lse
                        .entry((unit, disk))
                        .or_default()
                        .insert(offset / PAGE);
                    d.inject_bad_page(offset);
                });
            }
            FaultKind::ScrubPass { unit, disk } => {
                let d = s.runtimes[unit as usize].disk(DiskId(disk));
                let tracker = tracker.clone();
                let span = model.region_bytes;
                s.sim.schedule_at(at, move |sim| {
                    let tracker = tracker.clone();
                    d.scrub(sim, 0, span, move |_, r| {
                        if let Ok(rep) = r {
                            let mut t = tracker.borrow_mut();
                            t.scrub_scanned_pages += rep.scanned_pages;
                            t.scrub_found += rep.bad_found;
                            t.scrub_repaired_pages += rep.repaired;
                        }
                    });
                });
            }
            FaultKind::HubFailure { unit, group } | FaultKind::HubRepair { unit, group } => {
                let repair = matches!(ev.kind, FaultKind::HubRepair { .. });
                let rt = s.runtimes[unit as usize].clone();
                let first_disk = DiskId(group * campaign_shape().fanin);
                s.sim.schedule_at(at, move |sim| {
                    let hub = rt.with_state(|st| match st.topology().disk_upstream(first_disk) {
                        Some(UpRef::Hub(h)) => Some(h),
                        _ => None,
                    });
                    if let Some(h) = hub {
                        if repair {
                            rt.hub_repaired(sim, h);
                        } else {
                            rt.hub_failed(sim, h);
                        }
                    }
                });
            }
            FaultKind::HostFailure { unit, host } | FaultKind::HostRepair { unit, host } => {
                let repair = matches!(ev.kind, FaultKind::HostRepair { .. });
                let s2 = s.clone();
                s.sim.schedule_at(at, move |_| {
                    if repair {
                        s2.restore_unit_host(UnitId(unit), ustore_fabric::HostId(host));
                    } else {
                        s2.kill_unit_host(UnitId(unit), ustore_fabric::HostId(host));
                    }
                });
            }
        }
    }
    s.sim.run_until(fault_start + schedule.horizon + GRACE);
    stop.set(true);

    // The oracle. Every acked write on a surviving drive must read back
    // with its exact payload; a failure is explained (durability loss,
    // not a bug) only by an injected latent sector on that drive.
    let mut violations: Vec<String> = Vec::new();
    let mut acked_total = 0u64;
    let mut lost_hard = 0u64;
    let probe_ok = Rc::new(Cell::new(0u64));
    let lost_latent = Rc::new(Cell::new(0u64));
    let probe_violations: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    for (mi, (mounted, info)) in mounts.iter().enumerate() {
        let mut acked = acked_lists[mi].borrow().clone();
        if synthetic_fail && mi == 0 && !acked.is_empty() {
            // Harness self-test: corrupt one expectation (the simulator
            // is untouched, so the telemetry digest is unchanged). The
            // probe below now reports a guaranteed unexplained mismatch.
            acked[0].fill ^= 0xFF;
        }
        acked_total += acked.len() as u64;
        let disk_key = (info.name.unit.0, info.name.disk.0);
        if tracker.borrow().hard_failed.contains(&disk_key) {
            lost_hard += acked.len() as u64;
            continue;
        }
        let stride = (acked.len() / PROBES_PER_MOUNT).max(1);
        let lse_hit = tracker.borrow().lse.contains_key(&disk_key);
        for w in acked.iter().step_by(stride) {
            let w = *w;
            let space = info.name;
            let ok = probe_ok.clone();
            let lost = lost_latent.clone();
            let bad = probe_violations.clone();
            mounted.read(
                &s.sim,
                w.offset,
                WRITE_LEN,
                Box::new(move |_, r| match r {
                    Ok(data) if data == vec![w.fill; WRITE_LEN as usize] => ok.set(ok.get() + 1),
                    Ok(_) => bad.borrow_mut().push(format!(
                        "acked write {space}+{} read back corrupt (expected fill {:#04x})",
                        w.offset, w.fill
                    )),
                    Err(e) => {
                        let why = e.to_string();
                        if lse_hit && why.contains("medium error") {
                            lost.set(lost.get() + 1);
                        } else {
                            bad.borrow_mut().push(format!(
                                "acked write {space}+{} lost on healthy disk: {why}",
                                w.offset
                            ));
                        }
                    }
                }),
            );
        }
        // Remount-deadline liveness probe: after the grace window every
        // mount on a surviving disk must serve reads again.
        let space = info.name;
        let bad = probe_violations.clone();
        mounted.read(
            &s.sim,
            SPACE_SIZE - PAGE,
            PAGE,
            Box::new(move |_, r| {
                if let Err(e) = r {
                    bad.borrow_mut()
                        .push(format!("mount {space} still dead after repair grace: {e}"));
                }
            }),
        );
    }
    s.sim.run_until(s.sim.now() + PROBE_WINDOW);
    violations.extend(probe_violations.borrow().iter().cloned());

    // Watchdog audit (records false negatives) and the telemetry digest.
    let (false_pos, false_neg) = dog.audit(&s.sim);
    for rt in &s.runtimes {
        rt.publish_residency(&s.sim);
    }
    let digest = world_digest(
        &s.sim.metrics_snapshot().to_json().to_string(),
        &s.sim.with_spans(|t| t.to_json()).to_string(),
        &scraper.to_csv(),
    ) ^ schedule.digest().rotate_left(3);

    let t = tracker.borrow();
    CampaignOutcome {
        seed,
        schedule_digest: schedule.digest(),
        schedule_events: schedule.events.len(),
        counts: schedule.counts(),
        digest,
        acked: acked_total,
        survived: probe_ok.get(),
        lost_hard,
        lost_latent: lost_latent.get(),
        violations,
        escalations: dog.escalations(),
        false_pos,
        false_neg,
        truth_marked: t.marked.len() as u64,
        scrub_scanned_pages: t.scrub_scanned_pages,
        scrub_repaired_pages: t.scrub_repaired_pages,
        io_errors: t.io_errors,
        sim_seconds: s.sim.now().as_nanos() as f64 / 1e9,
        events_processed: s.sim.events_processed(),
    }
}

/// Greedy ddmin-style shrink: drop chunks (halves, then smaller) as long
/// as the campaign keeps failing, within a bounded rerun budget.
fn shrink(
    seed: u64,
    model: &FaultModelConfig,
    base: &FaultSchedule,
    synthetic_fail: bool,
) -> (FaultSchedule, u32) {
    let mut cur = base.events.clone();
    let mut runs = 0u32;
    let mut chunk = cur.len().div_ceil(2).max(1);
    loop {
        let mut i = 0;
        let mut any = false;
        while i < cur.len() && runs < SHRINK_BUDGET {
            let mut cand = cur.clone();
            cand.drain(i..(i + chunk).min(cand.len()));
            let candidate = FaultSchedule {
                events: cand,
                horizon: base.horizon,
            };
            runs += 1;
            if run_campaign(seed, model, &candidate, synthetic_fail).failed() {
                cur = candidate.events;
                any = true;
            } else {
                i += chunk;
            }
        }
        if runs >= SHRINK_BUDGET || cur.is_empty() || (chunk == 1 && !any) {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    (
        FaultSchedule {
            events: cur,
            horizon: base.horizon,
        },
        runs,
    )
}

/// Runs the fuzzer.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzRun {
    assert!(opts.shards >= 1, "need at least one executor thread");
    let model = opts.model();
    let shape = campaign_shape();
    let seeds: Vec<u64> = match opts.replay {
        Some(seed) => vec![seed],
        None => (0..opts.campaigns.max(1))
            .map(|i| campaign_seed(opts.seed, i))
            .collect(),
    };
    let campaigns: Vec<CampaignOutcome> = seeds
        .iter()
        .map(|&seed| {
            let schedule = FaultSchedule::generate_for(seed, &shape, &model, opts.shards);
            run_campaign(seed, &model, &schedule, opts.synthetic_fail)
        })
        .collect();

    let failing = campaigns.iter().find(|c| c.failed()).map(|c| {
        let schedule = FaultSchedule::generate_for(c.seed, &shape, &model, opts.shards);
        let (minimized, shrink_runs) = shrink(c.seed, &model, &schedule, opts.synthetic_fail);
        FailingCase {
            seed: c.seed,
            violations: c.violations.clone(),
            original_events: schedule.events.len(),
            minimized,
            shrink_runs,
        }
    });

    // Replay gate: rerun one campaign (the failing one when there is
    // one) from nothing but its seed; the digest must be bit-identical.
    let target = failing
        .as_ref()
        .map(|f| f.seed)
        .unwrap_or(campaigns[0].seed);
    let first = campaigns
        .iter()
        .find(|c| c.seed == target)
        .expect("replay target is one of the campaigns");
    let schedule = FaultSchedule::generate_for(target, &shape, &model, opts.shards);
    let replayed = run_campaign(target, &model, &schedule, opts.synthetic_fail);
    let replay = ReplayCheck {
        seed: target,
        digest: first.digest,
        replay_digest: replayed.digest,
        matches: first.digest == replayed.digest,
    };

    FuzzRun {
        options: *opts,
        shape,
        campaigns,
        failing,
        replay,
    }
}

/// Durability nines over a set of campaigns: `log10(acked / lost)`, with
/// a resolution-limited cap of `log10(acked + 1)` when nothing was lost
/// (the campaigns bound the loss rate, they cannot prove it zero).
pub fn durability_nines(acked: u64, lost: u64) -> f64 {
    if acked == 0 {
        return 0.0;
    }
    if lost == 0 {
        return (acked as f64 + 1.0).log10();
    }
    (acked as f64 / lost as f64).log10()
}

impl FuzzRun {
    fn totals(&self) -> (u64, u64, u64, u64) {
        let acked = self.campaigns.iter().map(|c| c.acked).sum();
        let lost_hard = self.campaigns.iter().map(|c| c.lost_hard).sum();
        let lost_latent = self.campaigns.iter().map(|c| c.lost_latent).sum();
        let violations = self
            .campaigns
            .iter()
            .map(|c| c.violations.len() as u64)
            .sum();
        (acked, lost_hard, lost_latent, violations)
    }

    /// Machine-readable report (the `--fuzz-out` document).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj([
            ("schema", Json::str("ustore-fuzz-v1")),
            ("seed", Json::u64(self.options.seed)),
            (
                "mode",
                Json::str(if self.options.quick { "quick" } else { "full" }),
            ),
            ("shards", Json::u64(self.options.shards as u64)),
            ("synthetic_fail", Json::Bool(self.options.synthetic_fail)),
            (
                "shape",
                Json::obj([
                    ("units", Json::u64(u64::from(self.shape.units))),
                    (
                        "hosts_per_unit",
                        Json::u64(u64::from(self.shape.hosts_per_unit)),
                    ),
                    (
                        "disks_per_unit",
                        Json::u64(u64::from(self.shape.disks_per_unit)),
                    ),
                    ("fanin", Json::u64(u64::from(self.shape.fanin))),
                    (
                        "world_groups",
                        Json::u64(u64::from(self.shape.world_groups)),
                    ),
                ]),
            ),
            ("faults", faults_section(self)),
            (
                "campaigns",
                Json::arr(self.campaigns.iter().map(|c| {
                    Json::obj([
                        ("seed", Json::str(format!("{:#018x}", c.seed))),
                        (
                            "schedule_digest",
                            Json::str(format!("{:016x}", c.schedule_digest)),
                        ),
                        ("schedule_events", Json::u64(c.schedule_events as u64)),
                        (
                            "schedule_counts",
                            Json::obj(c.counts.iter().map(|&(k, v)| (k, Json::u64(v)))),
                        ),
                        ("digest", Json::str(format!("{:016x}", c.digest))),
                        ("acked_writes", Json::u64(c.acked)),
                        ("survived_probes", Json::u64(c.survived)),
                        ("lost_hard", Json::u64(c.lost_hard)),
                        ("lost_latent", Json::u64(c.lost_latent)),
                        ("violations", Json::arr(c.violations.iter().map(Json::str))),
                        ("escalations", Json::u64(c.escalations)),
                        ("watchdog_false_pos", Json::u64(c.false_pos)),
                        ("watchdog_false_neg", Json::u64(c.false_neg)),
                        ("io_errors", Json::u64(c.io_errors)),
                        ("sim_seconds", Json::f64(c.sim_seconds)),
                        ("events_processed", Json::u64(c.events_processed)),
                    ])
                })),
            ),
        ]);
        if let Some(f) = &self.failing {
            doc.insert(
                "failing",
                Json::obj([
                    ("seed", Json::str(format!("{:#018x}", f.seed))),
                    ("violations", Json::arr(f.violations.iter().map(Json::str))),
                    ("original_events", Json::u64(f.original_events as u64)),
                    (
                        "minimized_events",
                        Json::u64(f.minimized.events.len() as u64),
                    ),
                    ("shrink_runs", Json::u64(u64::from(f.shrink_runs))),
                    ("minimized_schedule", f.minimized.to_json()),
                ]),
            );
        }
        doc
    }

    /// Human summary.
    pub fn summary(&self) -> String {
        let (acked, lost_hard, lost_latent, violations) = self.totals();
        let mut out = String::new();
        let push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        push(
            &mut out,
            format!(
                "{} campaign(s), {} fault events total, {} sim-seconds",
                self.campaigns.len(),
                self.campaigns
                    .iter()
                    .map(|c| c.schedule_events as u64)
                    .sum::<u64>(),
                self.campaigns.iter().map(|c| c.sim_seconds).sum::<f64>()
            ),
        );
        push(
            &mut out,
            format!(
                "durability: {acked} acked writes, {lost_hard} lost to drive failures, {lost_latent} to latent sectors => {:.2} nines{}",
                durability_nines(acked, lost_hard + lost_latent),
                if lost_hard + lost_latent == 0 { " (resolution-limited)" } else { "" }
            ),
        );
        let scrub: u64 = self.campaigns.iter().map(|c| c.scrub_scanned_pages).sum();
        let repaired: u64 = self.campaigns.iter().map(|c| c.scrub_repaired_pages).sum();
        push(
            &mut out,
            format!("scrub: {scrub} pages scanned, {repaired} latent pages repaired"),
        );
        let esc: u64 = self.campaigns.iter().map(|c| c.escalations).sum();
        let fp: u64 = self.campaigns.iter().map(|c| c.false_pos).sum();
        let fneg: u64 = self.campaigns.iter().map(|c| c.false_neg).sum();
        push(
            &mut out,
            format!("watchdog: {esc} escalations, {fp} false positives, {fneg} false negatives"),
        );
        match &self.failing {
            Some(f) => {
                push(
                    &mut out,
                    format!(
                        "FAIL: campaign seed {:#018x} violated {} invariant(s); schedule minimized {} -> {} events in {} rerun(s)",
                        f.seed,
                        f.violations.len(),
                        f.original_events,
                        f.minimized.events.len(),
                        f.shrink_runs
                    ),
                );
                for v in &f.violations {
                    push(&mut out, format!("  violation: {v}"));
                }
                push(
                    &mut out,
                    format!("  reproduce with: repro fuzz --replay {:#x}", f.seed),
                );
            }
            None => push(
                &mut out,
                format!("all invariants held ({violations} violations)"),
            ),
        }
        push(
            &mut out,
            format!(
                "replay gate: seed {:#018x} digest {:016x} vs {:016x} => {}",
                self.replay.seed,
                self.replay.digest,
                self.replay.replay_digest,
                if self.replay.matches {
                    "bit-identical"
                } else {
                    "DIVERGED"
                }
            ),
        );
        out
    }
}

/// The `faults` section of `BENCH_podscale.json` (schema v5, unchanged in v6): durability
/// nines, repair bandwidth, scrub coverage, watchdog FP/FN rates, and the
/// replay determinism gate.
pub fn faults_section(run: &FuzzRun) -> Json {
    let (acked, lost_hard, lost_latent, violations) = run.totals();
    let lost = lost_hard + lost_latent;
    let scrub_scanned: u64 = run.campaigns.iter().map(|c| c.scrub_scanned_pages).sum();
    let scrub_repaired: u64 = run.campaigns.iter().map(|c| c.scrub_repaired_pages).sum();
    let sim_seconds: f64 = run.campaigns.iter().map(|c| c.sim_seconds).sum();
    let fleet_region_pages = u64::from(run.shape.units)
        * u64::from(run.shape.disks_per_unit)
        * (run.options.model().region_bytes / PAGE);
    let esc: u64 = run.campaigns.iter().map(|c| c.escalations).sum();
    let fp: u64 = run.campaigns.iter().map(|c| c.false_pos).sum();
    let fneg: u64 = run.campaigns.iter().map(|c| c.false_neg).sum();
    let truth: u64 = run.campaigns.iter().map(|c| c.truth_marked).sum();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for c in &run.campaigns {
        for &(k, v) in &c.counts {
            *counts.entry(k).or_insert(0) += v;
        }
    }
    Json::obj([
        ("campaigns", Json::u64(run.campaigns.len() as u64)),
        (
            "fault_events",
            Json::obj(counts.into_iter().map(|(k, v)| (k, Json::u64(v)))),
        ),
        (
            "durability",
            Json::obj([
                ("acked_writes", Json::u64(acked)),
                ("lost_hard", Json::u64(lost_hard)),
                ("lost_latent", Json::u64(lost_latent)),
                ("nines", Json::f64(durability_nines(acked, lost))),
                ("resolution_limited", Json::Bool(lost == 0)),
            ]),
        ),
        (
            "repair",
            Json::obj([
                ("scrub_scanned_pages", Json::u64(scrub_scanned)),
                ("scrub_repaired_pages", Json::u64(scrub_repaired)),
                (
                    "repair_bandwidth_bytes_per_s",
                    Json::f64(if sim_seconds > 0.0 {
                        scrub_repaired as f64 * PAGE as f64 / sim_seconds
                    } else {
                        0.0
                    }),
                ),
                (
                    "scrub_coverage_x",
                    Json::f64(scrub_scanned as f64 / fleet_region_pages.max(1) as f64),
                ),
            ]),
        ),
        (
            "watchdog",
            Json::obj([
                ("escalations", Json::u64(esc)),
                ("false_pos", Json::u64(fp)),
                ("false_neg", Json::u64(fneg)),
                ("degraded_truth", Json::u64(truth)),
                ("false_pos_rate", Json::f64(fp as f64 / esc.max(1) as f64)),
                (
                    "false_neg_rate",
                    Json::f64(fneg as f64 / truth.max(1) as f64),
                ),
            ]),
        ),
        ("violations", Json::u64(violations)),
        (
            "replay",
            Json::obj([
                ("seed", Json::str(format!("{:#018x}", run.replay.seed))),
                ("digest", Json::str(format!("{:016x}", run.replay.digest))),
                (
                    "replay_digest",
                    Json::str(format!("{:016x}", run.replay.replay_digest)),
                ),
                ("digest_matches", Json::Bool(run.replay.matches)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(campaigns: u32, synthetic: bool) -> FuzzOptions {
        FuzzOptions {
            seed: 0xF0CC_1A7E,
            quick: true,
            shards: 2,
            campaigns,
            synthetic_fail: synthetic,
            replay: None,
        }
    }

    #[test]
    fn clean_campaign_holds_invariants_and_replays_bit_identically() {
        let run = run_fuzz(&quick_opts(1, false));
        assert_eq!(run.campaigns.len(), 1);
        let c = &run.campaigns[0];
        assert!(
            c.violations.is_empty(),
            "unexpected violations: {:?}",
            c.violations
        );
        assert!(c.acked > 0, "tracked writes were acknowledged");
        assert!(c.schedule_events > 0, "quick model generated faults");
        assert!(c.scrub_scanned_pages > 0, "scrub passes ran");
        assert!(run.failing.is_none());
        assert!(run.replay.matches, "replay digest diverged");
        let doc = run.to_json().to_string();
        assert!(doc.contains(r#""schema":"ustore-fuzz-v1""#));
        assert!(doc.contains(r#""digest_matches":true"#));
    }

    #[test]
    fn synthetic_fault_is_caught_shrunk_and_replayed() {
        let run = run_fuzz(&quick_opts(1, true));
        let f = run.failing.as_ref().expect("synthetic fault detected");
        assert!(!f.violations.is_empty());
        // The planted fault is schedule-independent, so the minimal
        // still-failing schedule is empty.
        assert!(
            f.minimized.events.is_empty(),
            "minimized to {} events",
            f.minimized.events.len()
        );
        assert!(f.shrink_runs <= SHRINK_BUDGET);
        assert!(run.replay.matches, "failing replay digest diverged");
        assert!(run.summary().contains("FAIL"));
    }

    #[test]
    fn durability_nines_formula() {
        assert_eq!(durability_nines(0, 0), 0.0);
        assert!((durability_nines(999, 0) - 3.0).abs() < 0.01);
        assert!((durability_nines(1000, 1) - 3.0).abs() < 0.01);
        assert!((durability_nines(1000, 10) - 2.0).abs() < 0.01);
    }
}
