//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Switch placement** (Figure 2 left vs right): component count and
//!    cost vs reconfiguration granularity.
//! 2. **Heartbeat timeout**: failure-detection latency vs the total
//!    failover time (the 5.8 s budget's biggest knob).
//! 3. **Allocation policy**: the paper's affinity+locality rules vs
//!    random placement, measured by how many disks a service's
//!    power-management action must touch (§IV-A's stated motivation).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use ustore::{Allocator, MasterConfig, SystemConfig, UnitId};
use ustore_cost::{fabric_retail, PriceCatalog};
use ustore_fabric::{DiskId, HostId, Topology};
use ustore_net::BlockDevice;
use ustore_sim::{Sim, SimRng, SimTime};

use crate::report::{Report, Row};

/// Switch-placement ablation: Figure 2 left (leaf switching) vs right
/// (upper-level switching) for a 16-disk, 2-host unit.
pub fn topology_ablation() -> Report {
    let catalog = PriceCatalog::default();
    let (leaf, leaf_cfg) = Topology::leaf_switched(16, 4);
    let (upper, upper_cfg) = Topology::upper_switched(2, 16, 4);
    let lc = leaf.component_counts();
    let uc = upper.component_counts();
    let mut rows = vec![
        Row::measured_only("leaf: hubs", lc.hubs as f64, "pcs"),
        Row::measured_only("leaf: switches", lc.switches as f64, "pcs"),
        Row::measured_only("leaf: fabric retail", fabric_retail(&catalog, &leaf), "$"),
        Row::measured_only("upper: hubs", uc.hubs as f64, "pcs"),
        Row::measured_only("upper: switches", uc.switches as f64, "pcs"),
        Row::measured_only("upper: fabric retail", fabric_retail(&catalog, &upper), "$"),
    ];
    // Granularity: smallest reconfigurable unit (disks that must move
    // together when one disk is re-homed).
    let leaf_state = ustore_fabric::FabricState::new(leaf, leaf_cfg);
    let upper_state = ustore_fabric::FabricState::new(upper, upper_cfg);
    let granularity = |st: &ustore_fabric::FabricState| -> f64 {
        let d = DiskId(0);
        let target = HostId(1);
        let path = st.path_switches(d, target).expect("path");
        let turns: Vec<_> = path
            .into_iter()
            .filter(|(s, p)| st.switch_pos(*s) != Some(*p))
            .collect();
        st.displaced_by(&turns).len() as f64
    };
    rows.push(Row::measured_only(
        "leaf: disks moved per re-home",
        granularity(&leaf_state),
        "disks",
    ));
    rows.push(Row::measured_only(
        "upper: disks moved per re-home",
        granularity(&upper_state),
        "disks",
    ));
    Report::new("Ablation: switch placement (Fig. 2 left vs right)", rows)
}

/// Heartbeat-timeout sweep: total host-failure recovery time as the
/// Master's detection timeout varies.
pub fn heartbeat_sweep(seed: u64) -> Report {
    let mut rows = Vec::new();
    for timeout_ms in [500u64, 1000, 2000, 4000] {
        let cfg = SystemConfig {
            master: MasterConfig {
                heartbeat_timeout: Duration::from_millis(timeout_ms),
                ..MasterConfig::default()
            },
            ..SystemConfig::default()
        };
        let s = ustore::UStoreSystem::build(Sim::new(seed.wrapping_add(timeout_ms)), cfg);
        s.settle();
        let client = s.client("sweep");
        // Allocate + mount.
        let info = Rc::new(RefCell::new(None));
        let i2 = info.clone();
        client.allocate(&s.sim, "svc", 1 << 30, move |_, r| {
            *i2.borrow_mut() = Some(r.expect("allocate"));
        });
        s.sim.run_until(s.sim.now() + Duration::from_secs(5));
        let info = info.borrow().clone().expect("allocated");
        let mounted = Rc::new(RefCell::new(None));
        let m2 = mounted.clone();
        client.mount(&s.sim, info.name, move |_, r| {
            *m2.borrow_mut() = Some(r.expect("mount"));
        });
        s.sim.run_until(s.sim.now() + Duration::from_secs(10));
        let mounted = mounted.borrow().clone().expect("mounted");
        mounted.write(&s.sim, 0, b"x".to_vec(), Box::new(|_, r| r.expect("write")));
        s.sim.run_until(s.sim.now() + Duration::from_secs(2));
        // Kill and measure read recovery.
        let victim = s.runtime.attached_host(info.name.disk).expect("attached");
        let t0 = s.sim.now();
        s.kill_host(victim);
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = done.clone();
        mounted.read(
            &s.sim,
            0,
            1,
            Box::new(move |sim, r| {
                r.expect("recovered read");
                d.set(sim.now());
            }),
        );
        s.sim.run_until(s.sim.now() + Duration::from_secs(40));
        let total = done.get().saturating_duration_since(t0);
        rows.push(Row::measured_only(
            format!("recovery @ timeout {timeout_ms} ms"),
            total.as_secs_f64(),
            "s",
        ));
    }
    Report::new("Ablation: heartbeat timeout vs recovery time", rows)
}

/// Allocation-policy ablation: after allocating many spaces for a few
/// services, how many distinct disks does each service span? Fewer disks
/// means a service's spin-down decision touches less hardware (§IV-A).
pub fn allocation_ablation(seed: u64) -> Report {
    const SERVICES: usize = 4;
    const SPACES_PER_SERVICE: usize = 8;
    const GB: u64 = 50_000_000_000; // 50 GB spaces on 3 TB disks

    let spread = |policy_paper: bool| -> f64 {
        let mut alloc = Allocator::new();
        for d in 0..16u32 {
            alloc.register_disk(UnitId(0), DiskId(d), 3_000_000_000_000);
        }
        let mut rng = SimRng::seed_from(seed);
        let attachments: BTreeMap<(UnitId, DiskId), HostId> = (0..16u32)
            .map(|d| ((UnitId(0), DiskId(d)), HostId(d / 4)))
            .collect();
        let attached_to = |k: &(UnitId, DiskId)| attachments.get(k).copied();
        for svc in 0..SERVICES {
            for _ in 0..SPACES_PER_SERVICE {
                if policy_paper {
                    alloc
                        .allocate(&format!("svc{svc}"), GB, attached_to, None)
                        .expect("allocate");
                } else {
                    // Random placement: pick any disk with room by hand.
                    loop {
                        let d = DiskId(rng.u64_below(16) as u32);
                        if alloc.free_on(UnitId(0), d).unwrap_or(0) >= GB {
                            // Emulate randomness by allocating under a
                            // per-disk unique service so affinity never
                            // kicks in, then releasing nothing.
                            let unique = format!("rand-{svc}-{}", rng.next_u64());
                            let got = alloc
                                .allocate(
                                    &unique,
                                    GB,
                                    attached_to,
                                    Some((UnitId(0), HostId(d.0 / 4))),
                                )
                                .expect("allocate");
                            let _ = got;
                            break;
                        }
                    }
                }
            }
        }
        if policy_paper {
            let total: usize = (0..SERVICES)
                .map(|svc| alloc.disks_of_service(&format!("svc{svc}")).len())
                .sum();
            total as f64 / SERVICES as f64
        } else {
            // Random: count disks carrying each pseudo-service's spaces by
            // sampling disk usage spread.
            let used: usize = (0..16u32)
                .filter(|d| alloc.free_on(UnitId(0), DiskId(*d)) != Some(3_000_000_000_000))
                .count();
            used as f64 / SERVICES as f64
        }
    };
    Report::new(
        "Ablation: allocation policy (disks per service)",
        vec![
            Row::measured_only("paper policy (affinity+locality)", spread(true), "disks"),
            Row::measured_only("random placement", spread(false), "disks"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_switching_is_cheaper_but_coarser() {
        let rep = topology_ablation();
        let get = |label: &str| {
            rep.rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("row {label}"))
                .measured
        };
        assert!(get("upper: fabric retail") < get("leaf: fabric retail"));
        assert_eq!(
            get("leaf: disks moved per re-home"),
            1.0,
            "leaf moves one disk"
        );
        assert!(
            get("upper: disks moved per re-home") >= 4.0,
            "upper moves a group"
        );
    }

    #[test]
    fn shorter_heartbeat_timeouts_recover_faster() {
        let rep = heartbeat_sweep(801);
        let first = rep.rows.first().expect("rows").measured;
        let last = rep.rows.last().expect("rows").measured;
        assert!(
            last > first + 2.0,
            "4000 ms timeout ({last:.1}s) should be clearly slower than 500 ms ({first:.1}s)"
        );
        // And the difference is roughly the timeout delta (3.5 s).
        assert!(
            (last - first - 3.5).abs() < 1.5,
            "delta {:.1}",
            last - first
        );
    }

    #[test]
    fn paper_allocation_policy_concentrates_services() {
        let rep = allocation_ablation(802);
        let paper = rep.rows[0].measured;
        let random = rep.rows[1].measured;
        assert!(
            paper <= 2.0,
            "affinity packs a service on few disks: {paper}"
        );
        assert!(random > paper, "random placement spreads more: {random}");
    }
}
