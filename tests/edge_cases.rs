//! Edge-case behaviour: the §IV-F adaptive spin-down back-off, the
//! ClientLib's remount deadline, and metadata-store outage handling.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use ustore::{ClientLibError, Mounted, SpaceInfo, SystemConfig, UStoreSystem};
use ustore_disk::PowerStateKind;
use ustore_fabric::HostId;
use ustore_net::BlockDevice;
use ustore_sim::Sim;

fn run_for(s: &UStoreSystem, secs: u64) {
    s.sim.run_until(s.sim.now() + Duration::from_secs(secs));
}

fn allocate(s: &UStoreSystem, client: &ustore::UStoreClient, service: &str) -> SpaceInfo {
    let out = Rc::new(RefCell::new(None));
    let o = out.clone();
    client.allocate(&s.sim, service, 1 << 30, move |_, r| {
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
fn churning_disk_gets_its_idle_threshold_doubled() {
    // §IV-F: "if it is detected that the disk is spun up and down too
    // frequently, the host will increase the time interval."
    let mut cfg = SystemConfig::default();
    cfg.endpoint.idle_spin_down = Duration::from_secs(15);
    cfg.endpoint.idle_check = Duration::from_secs(5);
    cfg.endpoint.spin_cycle_window = Duration::from_secs(600);
    cfg.endpoint.spin_cycle_limit = 2;
    let s = UStoreSystem::build(Sim::new(8101), cfg);
    s.settle();
    let client = s.client("churny");
    let info = allocate(&s, &client, "svc");
    let m = mount(&s, &client, &info);
    let disk = s.runtime.disk(info.name.disk);
    // Access every ~35 s: with a 15 s threshold the disk spins down and
    // back up each period, which the EndPoint counts as churn.
    for _ in 0..4 {
        m.read(
            &s.sim,
            0,
            512,
            Box::new(|_, r| {
                r.expect("read");
            }),
        );
        run_for(&s, 35);
    }
    let spin_ups_before = disk.time_in_state(&s.sim, PowerStateKind::SpinningUp);
    // After the threshold doubles past the access period, churn stops.
    for _ in 0..4 {
        m.read(
            &s.sim,
            0,
            512,
            Box::new(|_, r| {
                r.expect("read");
            }),
        );
        run_for(&s, 35);
    }
    let spin_ups_after = disk.time_in_state(&s.sim, PowerStateKind::SpinningUp);
    let early = spin_ups_before.as_secs_f64();
    let late = (spin_ups_after - spin_ups_before).as_secs_f64();
    assert!(
        early >= 14.0,
        "early period churned (>=2 spin-ups): {early}"
    );
    assert!(
        late < early / 2.0,
        "back-off cut churn: early {early:.0}s vs late {late:.0}s of spin-up"
    );
}

#[test]
fn remount_deadline_fails_queued_io_when_no_host_survives() {
    let mut cfg = SystemConfig::default();
    cfg.clientlib.remount_deadline = Duration::from_secs(8);
    let s = UStoreSystem::build(Sim::new(8102), cfg);
    s.settle();
    let client = s.client("doomed");
    let info = allocate(&s, &client, "svc");
    let m = mount(&s, &client, &info);
    // Kill every host: nothing can serve the space again.
    for h in 0..4 {
        s.kill_host(HostId(h));
    }
    let got = Rc::new(Cell::new(false));
    let g = got.clone();
    m.read(
        &s.sim,
        0,
        16,
        Box::new(move |_, r| {
            assert!(r.is_err(), "IO fails once the remount deadline passes");
            g.set(true);
        }),
    );
    run_for(&s, 60);
    assert!(got.get(), "queued IO was failed, not leaked");
}

#[test]
fn allocate_fails_cleanly_when_metadata_store_is_down() {
    // §IV-A stores StorAlloc synchronously: if the coordination cluster
    // has no quorum, allocation must fail rather than hand out space the
    // metadata does not record.
    let s = UStoreSystem::prototype(8103);
    s.settle();
    // Take down a majority of the coordination cluster.
    for c in s.coord.iter().take(3) {
        c.pause(&s.sim);
        s.net.set_down(&s.sim, &c.addr());
    }
    run_for(&s, 5);
    let client = s.client("unlucky");
    let got = Rc::new(Cell::new(None));
    let g = got.clone();
    client.allocate(&s.sim, "svc", 1 << 30, move |_, r| {
        g.set(Some(r.is_err()));
    });
    run_for(&s, 60);
    if got.get().is_none() {
        s.sim.with_trace(|t| {
            for e in t.events().iter().rev().take(40) {
                eprintln!("{e}");
            }
        });
    }
    assert_eq!(got.get(), Some(true), "allocation failed cleanly");
    let _ = ClientLibError::MasterUnreachable; // error type exercised above
}

#[test]
fn release_frees_space_for_reuse_end_to_end() {
    let s = UStoreSystem::prototype(8104);
    s.settle();
    let client = s.client("app");
    // Fill a disk-sized region, release, and re-allocate.
    let a = allocate(&s, &client, "svc");
    let released = Rc::new(Cell::new(false));
    let r2 = released.clone();
    client.release(&s.sim, a.name, move |_, r| {
        r.expect("release");
        r2.set(true);
    });
    run_for(&s, 8);
    assert!(released.get());
    let b = allocate(&s, &client, "svc");
    assert_eq!(b.name.disk, a.name.disk, "space reused on the same disk");
    assert_ne!(b.name.space, a.name.space, "space ids are fresh");
    // The released target is gone from the EndPoint.
    let targets: Vec<String> = s
        .endpoints
        .iter()
        .flat_map(|e| e.exported_targets())
        .collect();
    assert!(
        !targets.contains(&a.name.target_name()),
        "old target withdrawn"
    );
    assert!(
        targets.contains(&b.name.target_name()),
        "new target exported"
    );
}
