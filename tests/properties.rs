//! Randomized property tests over the core data structures and invariants,
//! driven by the deterministic [`SimRng`] (no external framework needed).
//!
//! - Any switch configuration partitions the fabric into non-overlapping
//!   trees (the validity claim of §III-A).
//! - Algorithm 1 never moves a disk that was not named in the command.
//! - Every host's USB tree holds exactly the hubs and disks the fabric
//!   routes to it, through reconfigurations, failures, repairs and relay
//!   changes.
//! - The allocator never hands out overlapping extents, and each
//!   placement is the first of every candidate sorted by its comparator.
//! - Paxos acceptors never decide two different values.
//! - The znode store is a deterministic state machine.
//! - `MetricsRegistry::diff`/`merge` round-trip on counters.
//! - The Prometheus exporter is byte-stable under insertion order.
//!
//! Each property runs a fixed number of seeded cases; on failure the case
//! seed is in the panic message so the exact input can be replayed.

use std::collections::BTreeSet;
use std::time::Duration;

use ustore::{Allocator, Extent, SpaceName, UnitId};
use ustore_consensus::{AcceptReply, Acceptor, Ballot, Command, PrepareReply, ZnodeStore};
use ustore_fabric::{DiskId, FabricRuntime, FabricState, HostId, HubId, Topology, UpRef};
use ustore_sim::{export, Histogram, MetricsRegistry, Sim, SimRng};

const CASES: u64 = 64;

fn arbitrary_fabric(rng: &mut SimRng) -> (FabricState, u32, u32) {
    // hosts in {2,4}, disks 4..=32, fanin 2..=5
    let hosts = if rng.chance(0.5) { 2u32 } else { 4u32 };
    let disks = rng.range_u64(4, 33) as u32;
    let fanin = rng.range_u64(2, 6) as usize;
    let (t, cfg) = Topology::upper_switched(hosts, disks, fanin);
    (FabricState::new(t, cfg), hosts, disks)
}

/// Random switch settings always leave each disk attached to at most
/// one host, and every attachment is consistent with a real path.
#[test]
fn any_switch_config_partitions_into_trees() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xA11CE + case);
        let (mut fabric, hosts, disks) = arbitrary_fabric(&mut rng);
        let switches: Vec<_> = fabric.topology().switches().collect();
        let flips = rng.usize_below(128);
        for i in 0..flips {
            if switches.is_empty() {
                break;
            }
            let s = switches[i % switches.len()];
            if rng.chance(0.5) {
                let cur = fabric.switch_pos(s).expect("switch exists");
                fabric.set_switch(s, cur.flip());
            }
        }
        for d in 0..disks {
            let host = fabric.attached_host(DiskId(d));
            if let Some(h) = host {
                assert!(h.0 < hosts, "case {case}: attachment to a real host");
                // Consistency: the required path for that host needs no
                // switch turns under the current config.
                let path = fabric.path_switches(DiskId(d), h).expect("path exists");
                for (s, pos) in path {
                    assert_eq!(fabric.switch_pos(s), Some(pos), "case {case}");
                }
            }
        }
    }
}

/// Algorithm 1 either errors or produces turns that move exactly the
/// requested disks (plus nothing attached elsewhere).
#[test]
fn switches_to_turn_never_steals_unrelated_disks() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xB0B0 + case);
        let (fabric, hosts, disks) = arbitrary_fabric(&mut rng);
        let moved = rng.u64_below(32) as u32;
        let target = rng.u64_below(4) as u32;
        let d = DiskId(moved % disks);
        let h = HostId(target % hosts);
        let before = fabric.attachment_map();
        if let Ok(turns) = fabric.switches_to_turn(&[(d, h)]) {
            let mut after = fabric.clone();
            after.apply_turns(&turns);
            assert_eq!(after.attached_host(d), Some(h), "case {case}");
            for (other, old_host) in &before {
                if *other != d {
                    assert_eq!(
                        after.attached_host(*other),
                        Some(*old_host),
                        "case {case}: unrelated disk moved"
                    );
                }
            }
        }
    }
}

/// The device ids a host's USB tree must hold: every powered hub and
/// disk whose path leads to `h` and whose USB ancestors are all powered.
/// Hubs enumerate as device `100_000 + hub`, disks under their own id (the
/// convention the EndPoint's USB monitor relies on).
fn routed_to(
    rt: &FabricRuntime,
    h: HostId,
    hubs_off: &BTreeSet<HubId>,
    disks_off: &BTreeSet<DiskId>,
) -> BTreeSet<u32> {
    rt.with_state(|st| {
        let topo = st.topology();
        let ancestors_powered = |mut up: UpRef| loop {
            match st.usb_parent(up) {
                Some(UpRef::Hub(p)) if hubs_off.contains(&p) => return false,
                Some(UpRef::Hub(p)) => up = topo.hub_upstream(p).expect("hub exists"),
                _ => return true,
            }
        };
        let hubs = topo
            .hubs()
            .filter(|hub| !hubs_off.contains(hub) && st.hub_host(*hub) == Some(h))
            .filter(|hub| ancestors_powered(topo.hub_upstream(*hub).expect("hub exists")))
            .map(|hub| 100_000 + hub.0);
        let disks = topo
            .disks()
            .filter(|d| !disks_off.contains(d) && st.attached_host(*d) == Some(h))
            .filter(|d| ancestors_powered(topo.disk_upstream(*d).expect("disk exists")))
            .map(|d| d.0);
        hubs.chain(disks).collect()
    })
}

/// Whatever sequence of reconfigurations, host and hub failures and
/// repairs, and relay changes hits the prototype unit, once it settles
/// each host's USB tree holds exactly the devices the fabric routes to it
/// — in particular a dead host keeps nothing, and a repaired one gets
/// back only what is routed to it.
#[test]
fn usb_trees_follow_the_fabric() {
    for case in 0..16 {
        let mut rng = SimRng::seed_from(0x05B74EE + case);
        let sim = Sim::new(case);
        let rt = FabricRuntime::prototype(&sim);
        let hosts = rt.host_ids();
        let disks = rt.disk_ids();
        let hubs: Vec<HubId> = rt.with_state(|st| st.topology().hubs().collect());
        let mut hubs_off = BTreeSet::new();
        let mut disks_off = BTreeSet::new();
        let mut log = Vec::new();
        for _ in 0..12 {
            let h = hosts[rng.usize_below(hosts.len())];
            let hub = hubs[rng.usize_below(hubs.len())];
            let d = disks[rng.usize_below(disks.len())];
            match rng.usize_below(7) {
                0 => {
                    // Steer one whole leaf-hub group to one host.
                    let group = d.0 / 4;
                    let pairs = (group * 4..group * 4 + 4).map(|d| (DiskId(d), h)).collect();
                    rt.execute(&sim, pairs, |_, _| {});
                    log.push(format!("execute group{group} -> {h}"));
                }
                1 => {
                    rt.host_failed(&sim, h);
                    log.push(format!("fail {h}"));
                }
                2 => {
                    rt.host_repaired(&sim, h);
                    log.push(format!("repair {h}"));
                }
                3 => {
                    rt.hub_failed(&sim, hub);
                    log.push(format!("fail {hub}"));
                }
                4 => {
                    rt.hub_repaired(&sim, hub);
                    log.push(format!("repair {hub}"));
                }
                5 => {
                    let on = !disks_off.remove(&d);
                    if !on {
                        disks_off.insert(d);
                    }
                    rt.set_disk_power(&sim, d, on);
                    log.push(format!("power {d} {on}"));
                }
                _ => {
                    let on = !hubs_off.remove(&hub);
                    if !on {
                        hubs_off.insert(hub);
                    }
                    rt.set_hub_power(&sim, hub, on);
                    log.push(format!("power {hub} {on}"));
                }
            }
            // Long enough for enumeration, verification and a rollback.
            sim.run_until(sim.now() + Duration::from_secs(40));
            for h in &hosts {
                let held: BTreeSet<u32> =
                    rt.usb_host(*h).snapshot().iter().map(|n| n.id.0).collect();
                assert_eq!(
                    held,
                    routed_to(&rt, *h, &hubs_off, &disks_off),
                    "case {case}: {h} after {log:?}"
                );
            }
        }
    }
}

/// Where a reference placement would put `size` bytes for `service`:
/// every disk with a fitting first-fit gap, scored as §IV-A says (2 for
/// serving the service, 1 for sitting on the preferred host), sorted by
/// score, then (service-affine) least or (otherwise) most free, then key;
/// the first one's key and gap.
fn reference_placement(
    a: &Allocator,
    disks: &BTreeSet<(UnitId, DiskId)>,
    service: &str,
    size: u64,
    attached_to: impl Fn(&(UnitId, DiskId)) -> Option<HostId>,
    preferred: Option<(UnitId, HostId)>,
) -> Option<((UnitId, DiskId), u64)> {
    let mut candidates: Vec<((UnitId, DiskId), i64, u64, u64)> = Vec::new();
    for &(unit, disk) in disks {
        let spaces: Vec<Extent> = a
            .spaces_on(unit, disk)
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        let free = a.free_on(unit, disk).expect("registered");
        let capacity = free + spaces.iter().map(|e| e.len).sum::<u64>();
        let mut spans: Vec<(u64, u64)> = spaces.iter().map(|e| (e.offset, e.len)).collect();
        spans.sort_unstable();
        let mut cursor = 0u64;
        let mut gap = None;
        for (off, len) in spans {
            if off.saturating_sub(cursor) >= size {
                gap = Some(cursor);
                break;
            }
            cursor = cursor.max(off + len);
        }
        let Some(gap) = gap.or((capacity.saturating_sub(cursor) >= size).then_some(cursor)) else {
            continue;
        };
        let mut score = 0i64;
        if spaces.iter().any(|e| e.service == service) {
            score += 2;
        }
        if let Some((u, h)) = preferred {
            if u == unit && attached_to(&(unit, disk)) == Some(h) {
                score += 1;
            }
        }
        candidates.push(((unit, disk), score, free, gap));
    }
    candidates.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| {
                if a.1 >= 2 {
                    a.2.cmp(&b.2)
                } else {
                    b.2.cmp(&a.2)
                }
            })
            .then_with(|| a.0.cmp(&b.0))
    });
    candidates.first().map(|c| (c.0, c.3))
}

/// Every placement `Allocator::allocate` makes equals the reference's,
/// through random allocate, release and restore sequences over three
/// units of four disks (capacities chosen so equal-free ties occur),
/// four services and random locality hints. A restore either rebuilds
/// the allocator from the live spaces (a new Master) or places a space
/// on a disk that was never registered.
#[test]
fn allocator_places_where_sorting_every_candidate_does() {
    const UNITS: u32 = 3;
    const DISKS: u32 = 4;
    let attached_to = |k: &(UnitId, DiskId)| (k.1 .0 < 3).then_some(HostId(k.1 .0 % 2));
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xA11C_A7E0 + case);
        let capacities: Vec<((UnitId, DiskId), u64)> = (0..UNITS)
            .flat_map(|u| (0..DISKS).map(move |d| (UnitId(u), DiskId(d))))
            .map(|k| (k, 1000 * (1 + rng.u64_below(3))))
            .collect();
        let fresh = |capacities: &[((UnitId, DiskId), u64)]| {
            let mut a = Allocator::new();
            for ((u, d), cap) in capacities {
                a.register_disk(*u, *d, *cap);
            }
            a
        };
        let mut a = fresh(&capacities);
        let mut disks: BTreeSet<(UnitId, DiskId)> = capacities.iter().map(|(k, _)| *k).collect();
        let mut live: Vec<(SpaceName, Extent)> = Vec::new();
        for step in 0..80 {
            match rng.usize_below(10) {
                0..=5 => {
                    let service = format!("svc{}", rng.usize_below(4));
                    let size = rng.range_u64(1, 800);
                    let preferred = rng.chance(0.5).then(|| {
                        (
                            UnitId(rng.u64_below(UNITS as u64) as u32),
                            HostId(rng.u64_below(2) as u32),
                        )
                    });
                    let want =
                        reference_placement(&a, &disks, &service, size, attached_to, preferred);
                    let got = a.allocate(&service, size, attached_to, preferred).ok();
                    assert_eq!(
                        got.as_ref()
                            .map(|g| ((g.name.unit, g.name.disk), g.extent.offset)),
                        want,
                        "case {case} step {step}: {size} bytes for {service} near {preferred:?}"
                    );
                    live.extend(got.map(|g| (g.name, g.extent)));
                }
                6 | 7 if !live.is_empty() => {
                    let (name, _) = live.swap_remove(rng.usize_below(live.len()));
                    a.release(name).expect("release live");
                }
                8 => {
                    a = fresh(&capacities);
                    disks = capacities.iter().map(|(k, _)| *k).collect();
                    for (name, extent) in &live {
                        a.restore(*name, extent.clone());
                        disks.insert((name.unit, name.disk));
                    }
                }
                _ => {
                    let unit = UnitId(rng.u64_below(UNITS as u64) as u32);
                    let disk = DiskId(DISKS + rng.u64_below(2) as u32);
                    let name = SpaceName::new(unit, disk, rng.u64_below(4) as u32);
                    if a.lookup(name).is_none() {
                        let extent = Extent {
                            offset: rng.u64_below(4) * 1000,
                            len: 1 + rng.u64_below(999),
                            service: format!("svc{}", rng.usize_below(4)),
                        };
                        a.restore(name, extent.clone());
                        disks.insert((unit, disk));
                        live.push((name, extent));
                    }
                }
            }
        }
    }
}

/// The allocator never double-books bytes on a disk.
#[test]
fn allocator_extents_never_overlap() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xA110C + case);
        let mut a = Allocator::new();
        for d in 0..3u32 {
            a.register_disk(UnitId(0), ustore_fabric::DiskId(d), 4096);
        }
        let mut live = Vec::new();
        let n = 1 + rng.usize_below(39);
        for _ in 0..n {
            let size = rng.range_u64(1, 1001);
            if let Ok(got) = a.allocate("svc", size, |_| None, None) {
                live.push(got.name);
            }
            if rng.chance(0.4) && !live.is_empty() {
                let idx = rng.usize_below(live.len());
                let victim = live.swap_remove(idx);
                a.release(victim).expect("release live");
            }
        }
        // Check pairwise disjointness per disk.
        for d in 0..3u32 {
            let spaces = a.spaces_on(UnitId(0), ustore_fabric::DiskId(d));
            for (i, (_, x)) in spaces.iter().enumerate() {
                assert!(x.offset + x.len <= 4096, "case {case}");
                for (_, y) in spaces.iter().skip(i + 1) {
                    let disjoint = x.offset + x.len <= y.offset || y.offset + y.len <= x.offset;
                    assert!(disjoint, "case {case}: overlap: {x:?} vs {y:?}");
                }
            }
        }
    }
}

/// Single-decree Paxos safety: with any interleaving of two proposers
/// over five acceptors, at most one value is chosen.
#[test]
fn paxos_never_decides_two_values() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x9A05 + case);
        let mut acceptors: Vec<Acceptor<&'static str>> = vec![Acceptor::new(); 5];
        #[derive(Clone)]
        struct P {
            ballot: Ballot,
            value: &'static str,
            order: Vec<usize>,
            step: usize,
            promises: Vec<(u32, Option<(Ballot, &'static str)>)>,
            accepts: BTreeSet<u32>,
            phase2: bool,
            chosen_value: Option<&'static str>,
        }
        let order = |rng: &mut SimRng| -> Vec<usize> {
            let n = 5 + rng.usize_below(5);
            (0..n).map(|_| rng.usize_below(5)).collect()
        };
        let order_a = order(&mut rng);
        let order_b = order(&mut rng);
        let mut ps = [
            P {
                ballot: Ballot::new(1, 0),
                value: "A",
                order: order_a,
                step: 0,
                promises: vec![],
                accepts: BTreeSet::new(),
                phase2: false,
                chosen_value: None,
            },
            P {
                ballot: Ballot::new(2, 1),
                value: "B",
                order: order_b,
                step: 0,
                promises: vec![],
                accepts: BTreeSet::new(),
                phase2: false,
                chosen_value: None,
            },
        ];
        let mut chosen: Vec<&str> = Vec::new();
        let steps = 10 + rng.usize_below(10);
        for _ in 0..steps {
            let pick = rng.chance(0.5);
            let p = &mut ps[usize::from(pick)];
            if p.step >= p.order.len() {
                continue;
            }
            let ai = p.order[p.step];
            p.step += 1;
            if !p.phase2 {
                if let PrepareReply::Promised { accepted, .. } = acceptors[ai].on_prepare(p.ballot)
                {
                    if !p.promises.iter().any(|(n, _)| *n == ai as u32) {
                        p.promises.push((ai as u32, accepted));
                    }
                    if p.promises.len() >= 3 {
                        p.phase2 = true;
                        let forced = p
                            .promises
                            .iter()
                            .filter_map(|(_, a)| *a)
                            .max_by_key(|(b, _)| *b)
                            .map(|(_, v)| v);
                        p.chosen_value = Some(forced.unwrap_or(p.value));
                    }
                }
            } else if let Some(v) = p.chosen_value {
                if let AcceptReply::Accepted { .. } = acceptors[ai].on_accept(p.ballot, v) {
                    p.accepts.insert(ai as u32);
                    if p.accepts.len() == 3 {
                        chosen.push(v);
                    }
                }
            }
        }
        if chosen.len() == 2 {
            assert_eq!(chosen[0], chosen[1], "case {case}: split decision");
        }
    }
}

/// Replaying the same command stream always yields the same store.
#[test]
fn znode_store_is_deterministic() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x2E0DE + case);
        let n = 1 + rng.usize_below(59);
        let ops: Vec<(u8, u8, bool)> = (0..n)
            .map(|_| {
                (
                    rng.u64_below(5) as u8,
                    rng.u64_below(4) as u8,
                    rng.chance(0.5),
                )
            })
            .collect();
        fn build(ops: &[(u8, u8, bool)]) -> (ZnodeStore, Vec<String>) {
            let mut store = ZnodeStore::new();
            store
                .apply(&Command::CreateSession { id: 1 })
                .0
                .expect("session");
            let mut results = Vec::new();
            for (op, node, eph) in ops {
                let path = format!("/n{node}");
                let cmd = match op {
                    0 => Command::Create {
                        session: 1,
                        path,
                        data: vec![*node],
                        mode: if *eph {
                            ustore_consensus::CreateMode::Ephemeral
                        } else {
                            ustore_consensus::CreateMode::Persistent
                        },
                    },
                    1 => Command::Delete {
                        path,
                        version: None,
                    },
                    2 => Command::SetData {
                        path,
                        data: vec![*op],
                        version: None,
                    },
                    3 => Command::ExpireSession { id: 1 },
                    _ => Command::CreateSession { id: 1 },
                };
                results.push(format!("{:?}", store.apply(&cmd)));
            }
            (store, results)
        }
        let (sa, ra) = build(&ops);
        let (sb, rb) = build(&ops);
        assert_eq!(ra, rb, "case {case}");
        let ka: Vec<&str> = sa.children("/").collect();
        let kb: Vec<&str> = sb.children("/").collect();
        assert_eq!(ka, kb, "case {case}");
    }
}

/// Counter telemetry deltas lose nothing: applying `diff(after, before)`
/// back onto `before` reconstructs `after` exactly, for any monotone
/// counter growth.
#[test]
fn metrics_diff_merge_round_trips_counters() {
    const COMPONENTS: [&str; 3] = ["disk0", "host1", "master-0"];
    const NAMES: [&str; 3] = ["io.reads", "io.writes", "rpc.calls"];
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0xD1FF + case);
        let mut before = MetricsRegistry::new();
        let n = rng.usize_below(20);
        for _ in 0..n {
            let c = COMPONENTS[rng.usize_below(3)];
            let m = NAMES[rng.usize_below(3)];
            before.counter_add(c, m, rng.u64_below(1000));
        }
        // Counters only grow; `after` extends `before`.
        let mut after = before.snapshot();
        let grow = rng.usize_below(20);
        for _ in 0..grow {
            let c = COMPONENTS[rng.usize_below(3)];
            let m = NAMES[rng.usize_below(3)];
            after.counter_add(c, m, rng.u64_below(1000));
        }
        let mut rebuilt = before.snapshot();
        rebuilt.merge(&after.diff(&before));
        let want: Vec<(String, String, u64)> = after
            .counters()
            .map(|(c, n, v)| (c.to_owned(), n.to_owned(), v))
            .collect();
        let got: Vec<(String, String, u64)> = rebuilt
            .counters()
            .map(|(c, n, v)| (c.to_owned(), n.to_owned(), v))
            .collect();
        assert_eq!(want, got, "case {case}: merge(diff(a,b), b) != a");
    }
}

/// The Prometheus exporter is a pure function of registry *content*:
/// recording the same data in any order yields byte-identical exposition
/// text, and exporting twice never differs.
#[test]
fn prometheus_export_is_byte_stable() {
    const COMPONENTS: [&str; 3] = ["disk0", "disk1", "net"];
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x9B0F + case);
        // A random batch of operations...
        let n = 1 + rng.usize_below(40);
        let ops: Vec<(u8, usize, u64)> = (0..n)
            .map(|_| {
                (
                    rng.u64_below(3) as u8,
                    rng.usize_below(3),
                    rng.u64_below(1_000_000),
                )
            })
            .collect();
        let apply = |m: &mut MetricsRegistry, (op, c, v): (u8, usize, u64)| {
            let c = COMPONENTS[c];
            match op {
                0 => m.counter_add(c, "ops.count", v),
                1 => m.gauge_set(c, "ops.gauge", v as f64),
                _ => m.observe(c, "ops.latency_ns", v),
            }
        };
        let mut fwd = MetricsRegistry::new();
        for op in &ops {
            apply(&mut fwd, *op);
        }
        // ...replayed in reverse order. Counters sum and histograms are
        // order-free; replay gauges forward so the last write wins in
        // both registries.
        let mut rev = MetricsRegistry::new();
        for op in ops.iter().rev().filter(|(op, _, _)| *op != 1) {
            apply(&mut rev, *op);
        }
        for op in ops.iter().filter(|(op, _, _)| *op == 1) {
            apply(&mut rev, *op);
        }
        let a = export::prometheus(&fwd);
        let b = export::prometheus(&rev);
        assert_eq!(a, b, "case {case}: insertion order leaked into export");
        assert_eq!(
            a,
            export::prometheus(&fwd),
            "case {case}: repeated export differs"
        );
    }
}

/// Histogram quantiles are order-consistent and bounded by min/max.
#[test]
fn histogram_quantiles_are_sane() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from(0x415706 + case);
        let n = 1 + rng.usize_below(299);
        let mut h = Histogram::new();
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let s = rng.u64_below(1_000_000_000);
            samples.push(s);
            h.record(s);
        }
        let min = h.min().expect("nonempty");
        let max = h.max().expect("nonempty");
        let mut last = 0;
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).expect("nonempty");
            assert!(
                v >= min && v <= max,
                "case {case}: q{q}: {v} outside [{min},{max}]"
            );
            assert!(v >= last, "case {case}: quantiles must be monotone");
            last = v;
        }
        let mean = h.mean().expect("nonempty");
        assert!(mean >= min as f64 && mean <= max as f64, "case {case}");
    }
}
