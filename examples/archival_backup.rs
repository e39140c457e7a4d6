//! An archival backup service over UStore (§I's motivating workload:
//! "file system backups and system logs ... accessed in large batches on
//! a predictable schedule").
//!
//! Nightly snapshots stream to a mounted UStore space; between backup
//! windows the service spins its disk down through the ClientLib's power
//! API (§IV-F), and the example reports how much unit power that saves.
//! A restore at the end verifies integrity end-to-end.
//!
//! ```text
//! cargo run --example archival_backup
//! ```

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use ustore::{Mounted, SpaceInfo, UStoreSystem};
use ustore_disk::PowerStateKind;
use ustore_workload::BackupService;

fn run_for(s: &UStoreSystem, secs: u64) {
    s.sim.run_until(s.sim.now() + Duration::from_secs(secs));
}

fn main() {
    let system = UStoreSystem::prototype(7);
    system.settle();
    let client = system.client("backup-svc");
    let sim = system.sim.clone();

    // One 4 GiB archive space.
    let info: Rc<RefCell<Option<SpaceInfo>>> = Rc::new(RefCell::new(None));
    let i2 = info.clone();
    client.allocate(&sim, "backup", 4 << 30, move |_, r| {
        *i2.borrow_mut() = Some(r.expect("allocate"));
    });
    run_for(&system, 5);
    let info = info.borrow().clone().expect("allocated");
    let mounted: Rc<RefCell<Option<Mounted>>> = Rc::new(RefCell::new(None));
    let m2 = mounted.clone();
    client.mount(&sim, info.name, move |_, r| {
        *m2.borrow_mut() = Some(r.expect("mount"));
    });
    run_for(&system, 10);
    let mounted = mounted.borrow().clone().expect("mounted");
    let service = BackupService::new(Rc::new(mounted));
    println!("archive space {} on {:?}", info.name, info.host_addr);

    // Three nightly snapshots; spin the disk down between windows.
    for night in 0..3u32 {
        let snapshot: Vec<u8> = (0..(64usize << 20))
            .map(|i| (i as u8).wrapping_mul(13).wrapping_add(night as u8))
            .collect();
        let label = format!("nightly-{night}");
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        let t0 = sim.now();
        service.backup(&sim, label.clone(), snapshot, move |sim, r| {
            let meta = r.expect("backup");
            println!(
                "  {} stored: {} MB in {:.1}s",
                meta.label,
                meta.len >> 20,
                sim.now().saturating_duration_since(t0).as_secs_f64()
            );
            d.set(true);
        });
        while !done.get() {
            run_for(&system, 1);
        }
        // Window over: the service spins its disk down itself.
        let before = system.runtime.unit_power_w();
        client.disk_power(&sim, info.name.unit, info.name.disk, false, |_, r| {
            r.expect("spin down")
        });
        run_for(&system, 10);
        let after = system.runtime.unit_power_w();
        println!(
            "  disk {:?} between windows; unit power {before:.1} W -> {after:.1} W",
            system.runtime.disk(info.name.disk).power_state()
        );
        assert_eq!(
            system.runtime.disk(info.name.disk).power_state(),
            PowerStateKind::Standby
        );
        // Sleep until the next window (the next IO auto-spins-up).
        run_for(&system, 3600);
    }

    // Restore and verify the latest snapshot.
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    service.restore(&sim, "nightly-2", move |_, r| {
        let data = r.expect("restore (checksummed)");
        println!(
            "restored nightly-2: {} MB, checksum verified",
            data.len() >> 20
        );
        o.set(true);
    });
    run_for(&system, 60);
    assert!(ok.get());
    println!(
        "catalog: {:?}",
        service
            .catalog()
            .iter()
            .map(|m| m.label.clone())
            .collect::<Vec<_>>()
    );
}
