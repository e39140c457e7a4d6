//! Whole-deployment integration tests spanning every crate: hardware
//! simulation, consensus, fabric, the UStore software stack and client
//! workloads in one simulator.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use ustore::{Mounted, SpaceInfo, SystemConfig, UStoreSystem, UnitId};
use ustore_fabric::HostId;
use ustore_net::BlockDevice;
use ustore_sim::Sim;

fn run_for(s: &UStoreSystem, secs: u64) {
    s.sim.run_until(s.sim.now() + Duration::from_secs(secs));
}

fn allocate(
    s: &UStoreSystem,
    client: &ustore::UStoreClient,
    service: &str,
    size: u64,
) -> SpaceInfo {
    let out = Rc::new(RefCell::new(None));
    let o = out.clone();
    client.allocate(&s.sim, service, size, move |_, r| {
        *o.borrow_mut() = Some(r.expect("allocate"));
    });
    run_for(s, 8);
    let v = out.borrow_mut().take().expect("allocated");
    v
}

fn mount(s: &UStoreSystem, client: &ustore::UStoreClient, info: &SpaceInfo) -> Mounted {
    let out = Rc::new(RefCell::new(None));
    let o = out.clone();
    client.mount(&s.sim, info.name, move |_, r| {
        *o.borrow_mut() = Some(r.expect("mount"));
    });
    run_for(s, 12);
    let v = out.borrow_mut().take().expect("mounted");
    v
}

#[test]
fn multiple_clients_spread_across_disks_and_hosts() {
    let s = UStoreSystem::prototype(9001);
    s.settle();
    let mut disks = std::collections::BTreeSet::new();
    let mut hosts = std::collections::BTreeSet::new();
    for i in 0..6 {
        let c = s.client(&format!("tenant-{i}"));
        let info = allocate(&s, &c, &format!("svc-{i}"), 1 << 30);
        disks.insert(info.name.disk);
        hosts.insert(info.host_addr.expect("host known"));
    }
    // The balance rule spreads distinct services over many disks, and
    // those disks span several hosts.
    assert!(disks.len() >= 4, "spread over {} disks", disks.len());
    assert!(hosts.len() >= 2, "spread over {} hosts", hosts.len());
}

#[test]
fn sequential_failures_of_two_hosts_are_survivable() {
    let s = UStoreSystem::prototype(9002);
    s.settle();
    let client = s.client("app");
    let info = allocate(&s, &client, "svc", 1 << 30);
    let m = mount(&s, &client, &info);
    m.write(
        &s.sim,
        0,
        b"durable".to_vec(),
        Box::new(|_, r| r.expect("write")),
    );
    run_for(&s, 2);
    // Kill the serving host; wait for recovery; then kill the next one.
    for round in 0..2 {
        let victim = s.runtime.attached_host(info.name.disk).expect("attached");
        s.kill_host(victim);
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        m.read(
            &s.sim,
            0,
            7,
            Box::new(move |_, r| {
                assert_eq!(r.expect("read"), b"durable".to_vec());
                o.set(true);
            }),
        );
        run_for(&s, 30);
        assert!(ok.get(), "round {round}: recovered");
    }
    // Two hosts dead, data still reachable on the remaining two.
    assert!(m.remount_count() >= 3);
}

#[test]
fn host_repair_rejoins_the_pool() {
    let s = UStoreSystem::prototype(9003);
    s.settle();
    let master = s.active_master().expect("active").clone();
    s.kill_host(HostId(3));
    run_for(&s, 15);
    assert!(!master.host_alive(UnitId(0), HostId(3)));
    s.restore_host(HostId(3));
    run_for(&s, 15);
    assert!(
        master.host_alive(UnitId(0), HostId(3)),
        "heartbeats resumed"
    );
}

#[test]
fn simultaneous_host_and_master_failure() {
    let s = UStoreSystem::prototype(9004);
    s.settle();
    let client = s.client("app");
    let info = allocate(&s, &client, "svc", 1 << 30);
    let m = mount(&s, &client, &info);
    m.write(
        &s.sim,
        0,
        b"both".to_vec(),
        Box::new(|_, r| r.expect("write")),
    );
    run_for(&s, 2);
    // Kill the active master AND the serving host at the same instant.
    let active_idx = s
        .masters
        .iter()
        .position(|x| x.is_active())
        .expect("active");
    let victim = s.runtime.attached_host(info.name.disk).expect("attached");
    s.kill_master(active_idx);
    s.kill_host(victim);
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    m.read(
        &s.sim,
        0,
        4,
        Box::new(move |_, r| {
            assert_eq!(r.expect("read"), b"both".to_vec());
            o.set(true);
        }),
    );
    // Standby master must first win the election, rebuild SysStat from
    // heartbeats, detect the dead host and orchestrate the move.
    run_for(&s, 50);
    assert!(ok.get(), "recovered from double failure");
    assert!(s.masters[1 - active_idx].is_active());
}

#[test]
fn data_integrity_across_many_spaces() {
    let s = UStoreSystem::prototype(9005);
    s.settle();
    let client = s.client("verify");
    let mut mounts = Vec::new();
    for i in 0..4 {
        let info = allocate(&s, &client, &format!("it-{i}"), 64 << 20);
        mounts.push((i as u8, mount(&s, &client, &info)));
    }
    let pending = Rc::new(Cell::new(0u32));
    for (tag, m) in &mounts {
        let payload: Vec<u8> = (0..65536u32).map(|j| (j as u8) ^ tag).collect();
        let expect = payload.clone();
        let m2 = m.clone();
        let p = pending.clone();
        p.set(p.get() + 1);
        let off = u64::from(*tag) * 1_000_000;
        m.write(
            &s.sim,
            off,
            payload,
            Box::new(move |sim, r| {
                r.expect("write");
                let p2 = p.clone();
                m2.read(
                    sim,
                    off,
                    65536,
                    Box::new(move |_, r| {
                        assert_eq!(r.expect("read"), expect);
                        p2.set(p2.get() - 1);
                    }),
                );
            }),
        );
    }
    run_for(&s, 30);
    assert_eq!(pending.get(), 0, "all verifications completed");
}

#[test]
fn bigger_unit_with_more_hosts_boots() {
    // A 32-disk, 8-host unit exercises the generalized builders.
    let cfg = SystemConfig {
        hosts: 8,
        disks: 32,
        ..SystemConfig::default()
    };
    let s = UStoreSystem::build(Sim::new(9006), cfg);
    s.settle();
    run_for(&s, 10);
    assert_eq!(s.ready_disks().len(), 32);
    assert!(s.active_master().is_some());
    let client = s.client("big");
    let info = allocate(&s, &client, "svc", 1 << 30);
    let m = mount(&s, &client, &info);
    assert_eq!(m.capacity(), 1 << 30);
}

#[test]
fn deterministic_replay_same_seed_same_outcome() {
    let run = |seed: u64| -> (u64, String) {
        let s = UStoreSystem::prototype(seed);
        s.settle();
        let client = s.client("det");
        let info = allocate(&s, &client, "svc", 1 << 30);
        (s.sim.events_processed(), info.name.to_string())
    };
    let a = run(777);
    let b = run(777);
    assert_eq!(a, b, "same seed, same world");
    let c = run(778);
    assert_ne!(a.0, c.0, "different seed perturbs event count");
}

#[test]
fn multi_unit_deployment_allocates_and_fails_over_per_unit() {
    // §IV: "A typical UStore deployment is composed of one Master and a
    // number of deploy units."
    let cfg = SystemConfig {
        units: 2,
        ..SystemConfig::default()
    };
    let s = UStoreSystem::build(Sim::new(9007), cfg);
    s.settle();
    assert_eq!(s.runtimes.len(), 2);
    assert_eq!(s.endpoints.len(), 8);
    assert_eq!(s.controllers.len(), 4);
    let ready = s.ready_disks();
    assert_eq!(ready.len(), 32, "both units' disks are ready");
    assert_eq!(ready.iter().filter(|(u, _)| *u == UnitId(1)).count(), 16);
    let client = s.client("tenant");
    // 32 disks available; the balance rule fills unit 0's 16 disks with
    // one service each before spilling into unit 1.
    let mut units_seen = std::collections::BTreeSet::new();
    let mut infos = Vec::new();
    for i in 0..18 {
        let info = allocate(&s, &client, &format!("svc-{i}"), 1 << 30);
        units_seen.insert(info.name.unit);
        infos.push(info);
    }
    assert_eq!(units_seen.len(), 2, "allocations span both units");
    // Mount a space from unit 1 and kill its serving host: failover is
    // handled by unit 1's controllers without touching unit 0.
    let info = infos
        .iter()
        .find(|i| i.name.unit == UnitId(1))
        .expect("unit 1 allocation");
    let m = mount(&s, &client, info);
    m.write(
        &s.sim,
        0,
        b"u1".to_vec(),
        Box::new(|_, r| r.expect("write")),
    );
    run_for(&s, 2);
    let rt1 = &s.runtimes[1];
    let victim = rt1.attached_host(info.name.disk).expect("attached");
    let unit0_map_before = s.runtimes[0].with_state(|st| st.attachment_map());
    s.kill_unit_host(UnitId(1), victim);
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    m.read(
        &s.sim,
        0,
        2,
        Box::new(move |_, r| {
            assert_eq!(r.expect("read after unit-1 failover"), b"u1".to_vec());
            o.set(true);
        }),
    );
    run_for(&s, 30);
    assert!(ok.get(), "unit 1 recovered");
    // Unit 0 was untouched by unit 1's failover.
    let unit0_map_after = s.runtimes[0].with_state(|st| st.attachment_map());
    assert_eq!(unit0_map_before, unit0_map_after);
    assert_ne!(
        s.runtimes[1].attached_host(info.name.disk),
        Some(victim),
        "disk left the dead host"
    );
}

#[test]
fn stale_location_lease_is_invalidated_by_io_failure() {
    // A long location lease (60 virtual seconds — longer than the whole
    // test) would pin every directory answer to its first resolution.
    // The lease contract is that IO failures kill the cached entry, so a
    // remount after a host death re-resolves through the Master instead
    // of retrying the dead endpoint off a stale lease.
    let s = UStoreSystem::build(
        Sim::new(9010),
        SystemConfig {
            clientlib: ustore::ClientLibConfig {
                location_lease: Some(Duration::from_secs(60)),
                ..ustore::ClientLibConfig::default()
            },
            ..SystemConfig::default()
        },
    );
    s.settle();
    let client = s.client("app");
    let info = allocate(&s, &client, "svc", 1 << 30);
    // Prime the lease with a directory lookup.
    let primed = Rc::new(Cell::new(false));
    let p = primed.clone();
    client.lookup(&s.sim, info.name, move |_, r| {
        r.expect("lookup");
        p.set(true);
    });
    run_for(&s, 2);
    assert!(primed.get(), "lookup served");
    let old_host = client
        .cached_location(&s.sim, info.name)
        .expect("location leased")
        .host_addr
        .expect("host known");
    let m = mount(&s, &client, &info);
    m.write(
        &s.sim,
        0,
        b"leased".to_vec(),
        Box::new(|_, r| r.expect("write")),
    );
    run_for(&s, 2);
    // Kill the serving host mid-lease and issue IO against it.
    let victim = s.runtime.attached_host(info.name.disk).expect("attached");
    s.kill_host(victim);
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    m.read(
        &s.sim,
        0,
        6,
        Box::new(move |_, r| {
            assert_eq!(r.expect("read after failover"), b"leased".to_vec());
            o.set(true);
        }),
    );
    run_for(&s, 30);
    assert!(ok.get(), "IO recovered past the dead endpoint");
    assert!(m.remount_count() >= 1, "remount machinery re-resolved");
    // The stale lease did not survive: whatever is cached now (the
    // remount's fresh answer, or nothing) no longer names the dead host.
    if let Some(now) = client.cached_location(&s.sim, info.name) {
        assert_ne!(
            now.host_addr,
            Some(old_host.clone()),
            "lease still points at the dead host"
        );
    }
    // And a fresh directory lookup resolves to the new serving host.
    let resolved = Rc::new(RefCell::new(None));
    let o = resolved.clone();
    client.lookup(&s.sim, info.name, move |_, r| {
        *o.borrow_mut() = Some(r.expect("re-resolve"));
    });
    run_for(&s, 5);
    let fresh = resolved.borrow_mut().take().expect("lookup served");
    assert_ne!(
        fresh.host_addr,
        Some(old_host),
        "directory still names the dead host"
    );
}

#[test]
fn acknowledged_write_is_stored_in_the_callers_buffer() {
    // One buffer from client to platter: the 64 KiB a client hands to
    // `Mounted::write` is the allocation the disk store's pages point
    // into, with no copy on the way (ClientLib, iSCSI, EndPoint, fabric).
    let s = UStoreSystem::prototype(9010);
    s.settle();
    let client = s.client("zero-copy");
    let info = allocate(&s, &client, "svc", 1 << 30);
    let m = mount(&s, &client, &info);
    let payload: Vec<u8> = (0..65536u32).map(|j| (j % 251) as u8).collect();
    let base = payload.as_ptr() as usize;
    let acked = Rc::new(Cell::new(false));
    let a = acked.clone();
    m.write(
        &s.sim,
        0,
        payload,
        Box::new(move |_, r| {
            r.expect("write");
            a.set(true);
        }),
    );
    run_for(&s, 2);
    assert!(acked.get(), "write acknowledged");
    // The first space on a fresh disk starts at extent offset 0.
    let disk = s.runtime.disk(info.name.disk);
    for k in 0..16u64 {
        assert_eq!(
            disk.page_addr(k * 4096),
            Some(base + (k * 4096) as usize),
            "page {k} points into the caller's allocation"
        );
    }
}

#[test]
fn disk_power_sent_to_a_standby_reaches_the_active_master() {
    let s = UStoreSystem::prototype(9020);
    s.settle();
    let active = s
        .masters
        .iter()
        .position(|m| m.is_active())
        .expect("active master");
    let standby = 1 - active;
    let info = allocate(&s, &s.client("app"), "svc", 1 << 30);
    // This client asks the standby first; its NotActive must move the
    // call on to the active Master rather than fail it.
    let client = ustore::UStoreClient::new(
        &s.net,
        ustore_net::Addr::new("app-standby-first"),
        vec![
            ustore::master_addr(standby as u32),
            ustore::master_addr(active as u32),
        ],
        ustore::ClientLibConfig::default(),
    );
    let done = Rc::new(RefCell::new(None));
    let d = done.clone();
    client.disk_power(
        &s.sim,
        info.name.unit,
        info.name.disk,
        false,
        move |_, r| {
            *d.borrow_mut() = Some(r);
        },
    );
    run_for(&s, 10);
    assert_eq!(done.borrow_mut().take(), Some(Ok(())), "spin-down acked");
    assert_eq!(
        s.runtime.disk(info.name.disk).power_state(),
        ustore_disk::PowerStateKind::Standby
    );
}

#[test]
fn concurrent_lookups_after_a_master_failover_all_resolve() {
    let s = UStoreSystem::prototype(9021);
    s.settle();
    let client = s.client("app");
    let spaces: Vec<SpaceInfo> = (0..8)
        .map(|i| allocate(&s, &client, &format!("svc-{i}"), 64 << 20))
        .collect();
    let active = s
        .masters
        .iter()
        .position(|m| m.is_active())
        .expect("active master");
    s.kill_master(active);
    // The client's calls share one master hint, which still names the
    // dead Master: all 8 lookups time out there together. The first
    // failure moves the hint to the standby; the other 7 must not move
    // it back.
    let results = Rc::new(RefCell::new(vec![None; spaces.len()]));
    for (i, info) in spaces.iter().enumerate() {
        let out = results.clone();
        client.lookup(&s.sim, info.name, move |_, r| out.borrow_mut()[i] = Some(r));
    }
    run_for(&s, 30);
    for (r, info) in results.borrow().iter().zip(&spaces) {
        let got = r.as_ref().expect("lookup answered");
        let got = got.as_ref().expect("lookup after failover");
        assert_eq!((got.name, got.size), (info.name, info.size));
    }
}

#[test]
fn disk_power_acts_on_the_named_units_disk() {
    // Disk ids repeat in every unit: a spin-down for unit 1's disk 0
    // must reach unit 1, not the lowest unit that has a disk 0.
    let cfg = SystemConfig {
        units: 2,
        ..SystemConfig::default()
    };
    let s = UStoreSystem::build(Sim::new(9022), cfg);
    s.settle();
    let client = s.client("tenant");
    // The balance rule fills unit 0's 16 disks before spilling into
    // unit 1.
    let target = (0..32)
        .map(|i| allocate(&s, &client, &format!("svc-{i}"), 1 << 30).name)
        .find(|n| n.unit == UnitId(1) && n.disk == ustore_fabric::DiskId(0))
        .expect("a space on unit 1 disk 0");
    let done = Rc::new(RefCell::new(None));
    let d = done.clone();
    client.disk_power(&s.sim, target.unit, target.disk, false, move |_, r| {
        *d.borrow_mut() = Some(r);
    });
    run_for(&s, 10);
    assert_eq!(done.borrow_mut().take(), Some(Ok(())), "spin-down acked");
    let state = |u: usize| s.runtimes[u].disk(target.disk).power_state();
    assert_eq!(state(1), ustore_disk::PowerStateKind::Standby);
    assert_eq!(state(0), ustore_disk::PowerStateKind::Idle);
}

/// Runs in 100 ms steps until `done` holds, for at most `limit`.
fn run_until(s: &UStoreSystem, limit: Duration, done: impl Fn() -> bool) {
    let end = s.sim.now() + limit;
    while !done() {
        assert!(s.sim.now() < end, "condition not reached within {limit:?}");
        s.sim.run_until(s.sim.now() + Duration::from_millis(100));
    }
}

fn master_counter(s: &UStoreSystem, i: usize, name: &str) -> u64 {
    let addr = ustore::master_addr(i as u32);
    s.sim.metrics_snapshot().counter(addr.as_str(), name)
}

#[test]
fn a_new_active_master_hears_every_heartbeat() {
    // Nothing answers a heartbeat, so the EndPoints learn of the Master
    // change only from the new Master's announcement. If they kept
    // beating at the dead Master, the new one would declare hosts dead.
    let s = UStoreSystem::prototype(9023);
    s.settle();
    let active = s
        .masters
        .iter()
        .position(|m| m.is_active())
        .expect("active master");
    let standby = 1 - active;
    s.kill_master(active);
    run_until(&s, Duration::from_secs(30), || {
        s.masters[standby].is_active()
    });
    // One beat interval for the announcement to land and beats to turn.
    let beat = SystemConfig::default().endpoint.heartbeat_interval;
    s.sim.run_until(s.sim.now() + beat);
    let before = master_counter(&s, standby, "master.heartbeats");
    run_for(&s, 5);
    let heard = master_counter(&s, standby, "master.heartbeats") - before;
    let full = s.endpoints.len() as u64 * (5_000 / beat.as_millis() as u64);
    assert!(
        heard >= full,
        "{heard} heartbeats in 5 s, full rate is {full}"
    );
    assert_eq!(master_counter(&s, standby, "master.failovers"), 0);
}

#[test]
fn a_host_restored_after_a_master_change_is_heard_again() {
    // Host 1 dies while the old Master is active, so its EndPoint still
    // points at that Master when it comes back. The new Master keeps
    // announcing itself to the silent host, which finds it unaided.
    let s = UStoreSystem::prototype(9024);
    s.settle();
    let active = s
        .masters
        .iter()
        .position(|m| m.is_active())
        .expect("active master");
    let standby = 1 - active;
    s.kill_host(HostId(1));
    s.kill_master(active);
    let new = s.masters[standby].clone();
    run_until(&s, Duration::from_secs(40), || {
        new.is_active() && !new.host_alive(UnitId(0), HostId(1))
    });
    s.restore_host(HostId(1));
    let timeout = SystemConfig::default().master.heartbeat_timeout;
    s.sim.run_until(s.sim.now() + timeout);
    assert!(new.host_alive(UnitId(0), HostId(1)), "host 1 heard again");
}
