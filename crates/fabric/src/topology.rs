//! The interconnect fabric's static topology.
//!
//! A UStore deploy unit's fabric is built from two primitives (§III): *hubs*
//! (aggregate up to `fanin` downstream flows into one upstream) and
//! *switches* (2:1 multiplexers whose control signal selects one of two
//! upstream paths). [`Topology`] captures the wiring; a
//! [`SwitchConfig`] assigns each switch a position, which partitions the
//! fabric into non-overlapping trees rooted at host ports — the property
//! the paper relies on for fault tolerance.
//!
//! Two builders reproduce Figure 2: [`Topology::leaf_switched`] (left —
//! two full hub trees, one switch per disk) and
//! [`Topology::upper_switched`] (right / the prototype — switches placed
//! above leaf hubs, fewer components).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

/// A host root port of the deploy unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// A hub in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HubId(pub u32);

/// A 2:1 switch in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub u32);

/// A disk slot (disk + its SATA↔USB bridge; one failure unit, §IV-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DiskId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}
impl fmt::Display for HubId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hub{}", self.0)
    }
}
impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}
impl fmt::Display for DiskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "disk{}", self.0)
    }
}

/// A switch's selected upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchPos {
    /// First upstream.
    A,
    /// Second upstream.
    B,
}

impl SwitchPos {
    /// The other position.
    pub fn flip(self) -> SwitchPos {
        match self {
            SwitchPos::A => SwitchPos::B,
            SwitchPos::B => SwitchPos::A,
        }
    }
}

/// An upstream attachment point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UpRef {
    /// Directly into a host's root port.
    Host(HostId),
    /// Into a downstream port of a hub.
    Hub(HubId),
    /// Into the downstream side of a switch.
    Switch(SwitchId),
}

/// Per-switch position assignment.
pub type SwitchConfig = BTreeMap<SwitchId, SwitchPos>;

/// Errors from topology validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A referenced component does not exist.
    Dangling(String),
    /// A hub has more downstream connections than its fan-in.
    HubOverSubscribed(HubId),
    /// A switch has zero or more than one downstream child.
    SwitchChildCount(SwitchId, usize),
    /// The graph has a cycle.
    Cycle(String),
    /// A switch's two upstreams are identical.
    SwitchSameUpstreams(SwitchId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Dangling(w) => write!(f, "dangling reference: {w}"),
            TopologyError::HubOverSubscribed(h) => write!(f, "{h} exceeds its fan-in"),
            TopologyError::SwitchChildCount(s, n) => {
                write!(f, "{s} has {n} downstream children (expected 1)")
            }
            TopologyError::Cycle(w) => write!(f, "topology contains a cycle at {w}"),
            TopologyError::SwitchSameUpstreams(s) => {
                write!(f, "{s} has identical upstreams")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Component counts (feeds the Table I cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentCounts {
    /// Host root ports used.
    pub hosts: usize,
    /// Hubs.
    pub hubs: usize,
    /// 2:1 switches.
    pub switches: usize,
    /// Disk slots (each has a SATA↔USB bridge).
    pub disks: usize,
    /// Cable segments (every upstream edge, switches counted twice).
    pub cables: usize,
}

/// The static wiring of one deploy unit's fabric.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    fanin: usize,
    hosts: BTreeSet<HostId>,
    hubs: BTreeMap<HubId, UpRef>,
    switches: BTreeMap<SwitchId, (UpRef, UpRef)>,
    disks: BTreeMap<DiskId, UpRef>,
}

impl Topology {
    /// Creates an empty fabric with hub fan-in `fanin`.
    ///
    /// # Panics
    ///
    /// Panics if `fanin` is zero.
    pub fn new(fanin: usize) -> Self {
        assert!(fanin > 0, "fan-in must be positive");
        Topology {
            fanin,
            ..Default::default()
        }
    }

    /// Hub fan-in factor.
    pub fn fanin(&self) -> usize {
        self.fanin
    }

    /// Adds a host root port.
    pub fn add_host(&mut self, h: HostId) {
        self.hosts.insert(h);
    }

    /// Adds a hub whose uplink plugs into `up`.
    pub fn add_hub(&mut self, h: HubId, up: UpRef) {
        self.hubs.insert(h, up);
    }

    /// Adds a switch whose two uplinks plug into `a` and `b`.
    pub fn add_switch(&mut self, s: SwitchId, a: UpRef, b: UpRef) {
        self.switches.insert(s, (a, b));
    }

    /// Adds a disk slot whose bridge plugs into `up`.
    pub fn add_disk(&mut self, d: DiskId, up: UpRef) {
        self.disks.insert(d, up);
    }

    /// Host, hub, switch and disk id iterators.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        self.hosts.iter().copied()
    }
    /// All hub ids.
    pub fn hubs(&self) -> impl Iterator<Item = HubId> + '_ {
        self.hubs.keys().copied()
    }
    /// All switch ids.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.switches.keys().copied()
    }
    /// All disk ids.
    pub fn disks(&self) -> impl Iterator<Item = DiskId> + '_ {
        self.disks.keys().copied()
    }

    /// A switch's two upstreams.
    pub fn switch_upstreams(&self, s: SwitchId) -> Option<(UpRef, UpRef)> {
        self.switches.get(&s).copied()
    }

    /// A hub's upstream.
    pub fn hub_upstream(&self, h: HubId) -> Option<UpRef> {
        self.hubs.get(&h).copied()
    }

    /// A disk's upstream.
    pub fn disk_upstream(&self, d: DiskId) -> Option<UpRef> {
        self.disks.get(&d).copied()
    }

    fn upref_exists(&self, up: UpRef) -> bool {
        match up {
            UpRef::Host(h) => self.hosts.contains(&h),
            UpRef::Hub(h) => self.hubs.contains_key(&h),
            UpRef::Switch(s) => self.switches.contains_key(&s),
        }
    }

    /// Downstream children plugged into a hub.
    fn hub_load(&self, h: HubId) -> usize {
        let up = UpRef::Hub(h);
        self.hubs.values().filter(|&&u| u == up).count()
            + self.disks.values().filter(|&&u| u == up).count()
            + self
                .switches
                .values()
                .flat_map(|&(a, b)| [a, b])
                .filter(|&u| u == up)
                .count()
    }

    /// Nodes plugged into a switch's downstream side.
    fn switch_children(&self, s: SwitchId) -> usize {
        let up = UpRef::Switch(s);
        self.hubs.values().filter(|&&u| u == up).count()
            + self.disks.values().filter(|&&u| u == up).count()
            + self
                .switches
                .values()
                .flat_map(|&(a, b)| [a, b])
                .filter(|&u| u == up)
                .count()
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: dangling references, hub
    /// oversubscription, switch child counts, identical switch upstreams,
    /// or cycles.
    pub fn validate(&self) -> Result<(), TopologyError> {
        for (h, up) in &self.hubs {
            if !self.upref_exists(*up) {
                return Err(TopologyError::Dangling(format!("{h} upstream")));
            }
        }
        for (d, up) in &self.disks {
            if !self.upref_exists(*up) {
                return Err(TopologyError::Dangling(format!("{d} upstream")));
            }
        }
        for (s, (a, b)) in &self.switches {
            if !self.upref_exists(*a) || !self.upref_exists(*b) {
                return Err(TopologyError::Dangling(format!("{s} upstream")));
            }
            if a == b {
                return Err(TopologyError::SwitchSameUpstreams(*s));
            }
            let n = self.switch_children(*s);
            if n != 1 {
                return Err(TopologyError::SwitchChildCount(*s, n));
            }
        }
        for h in self.hubs.keys() {
            if self.hub_load(*h) > self.fanin {
                return Err(TopologyError::HubOverSubscribed(*h));
            }
        }
        // Cycle check: walk up from every node with a visited set.
        for start in self
            .hubs
            .keys()
            .map(|h| UpRef::Hub(*h))
            .chain(self.switches.keys().map(|s| UpRef::Switch(*s)))
        {
            let mut seen = HashSet::new();
            let mut frontier = vec![start];
            while let Some(node) = frontier.pop() {
                if !seen.insert(node) {
                    return Err(TopologyError::Cycle(format!("{node:?}")));
                }
                match node {
                    UpRef::Host(_) => {}
                    UpRef::Hub(h) => frontier.push(self.hubs[&h]),
                    UpRef::Switch(s) => {
                        let (a, b) = self.switches[&s];
                        frontier.push(a);
                        frontier.push(b);
                    }
                }
            }
        }
        Ok(())
    }

    /// Component counts for the cost model.
    pub fn component_counts(&self) -> ComponentCounts {
        let cables = self.hubs.len() + self.disks.len() + 2 * self.switches.len();
        ComponentCounts {
            hosts: self.hosts.len(),
            hubs: self.hubs.len(),
            switches: self.switches.len(),
            disks: self.disks.len(),
            cables,
        }
    }

    // ---- Builders --------------------------------------------------------

    /// Figure 2 (left): two full hub trees, one per host; each disk hangs
    /// off its own 2:1 switch that selects between the corresponding leaf
    /// ports of the two trees.
    ///
    /// # Panics
    ///
    /// Panics if `disks` is zero.
    pub fn leaf_switched(disks: u32, fanin: usize) -> (Topology, SwitchConfig) {
        assert!(disks > 0, "need at least one disk");
        let mut t = Topology::new(fanin);
        let hosts = [HostId(0), HostId(1)];
        for h in hosts {
            t.add_host(h);
        }
        let mut next_hub = 0u32;
        // Build one full tree per host with `disks` leaf positions; returns
        // the leaf hub list in order.
        let mut leaf_hubs: Vec<Vec<HubId>> = Vec::new();
        for host in hosts {
            let mut leaves = Vec::new();
            let n_leaf_hubs = (disks as usize).div_ceil(fanin);
            // Aggregation layers from the leaf hubs up to the host port.
            let mut layer: Vec<HubId> = (0..n_leaf_hubs)
                .map(|_| {
                    let id = HubId(next_hub);
                    next_hub += 1;
                    id
                })
                .collect();
            leaves.extend(layer.iter().copied());
            // Stack upper layers until one uplink remains.
            while layer.len() > 1 {
                let upper_count = layer.len().div_ceil(fanin);
                let upper: Vec<HubId> = (0..upper_count)
                    .map(|_| {
                        let id = HubId(next_hub);
                        next_hub += 1;
                        id
                    })
                    .collect();
                for (i, hub) in layer.iter().enumerate() {
                    t.add_hub(*hub, UpRef::Hub(upper[i / fanin]));
                }
                layer = upper;
            }
            t.add_hub(layer[0], UpRef::Host(host));
            leaf_hubs.push(leaves);
        }
        // One switch per disk choosing between tree 0 and tree 1.
        let mut config = SwitchConfig::new();
        for d in 0..disks {
            let sw = SwitchId(d);
            let leaf0 = leaf_hubs[0][d as usize / fanin];
            let leaf1 = leaf_hubs[1][d as usize / fanin];
            t.add_switch(sw, UpRef::Hub(leaf0), UpRef::Hub(leaf1));
            t.add_disk(DiskId(d), UpRef::Switch(sw));
            // Spread disks across both hosts initially.
            config.insert(
                sw,
                if d % 2 == 0 {
                    SwitchPos::A
                } else {
                    SwitchPos::B
                },
            );
        }
        (t, config)
    }

    /// Figure 2 (right) / the prototype (§V-B): disks group under leaf
    /// hubs of `fanin` disks; each leaf hub's uplink climbs a binary tree
    /// of switches that can steer the whole group to any of `hosts` host
    /// ports. 16 disks × 4 hosts × fan-in 4 reproduces the prototype.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is not a power of two or `disks`/`hosts` is zero.
    pub fn upper_switched(hosts: u32, disks: u32, fanin: usize) -> (Topology, SwitchConfig) {
        assert!(hosts > 0 && disks > 0, "need hosts and disks");
        assert!(hosts.is_power_of_two(), "hosts must be a power of two");
        let mut t = Topology::new(fanin);
        for h in 0..hosts {
            t.add_host(HostId(h));
        }
        // Per-host aggregation tree with one port per disk group, so in the
        // extreme every group can be steered to the same host.
        let n_groups = (disks as usize).div_ceil(fanin);
        let mut next_hub = 0u32;
        let mut host_ports: Vec<Vec<UpRef>> = Vec::new();
        for h in 0..hosts {
            host_ports.push(Self::build_host_tree(
                &mut t,
                &mut next_hub,
                HostId(h),
                n_groups,
                fanin,
            ));
        }
        let mut next_switch = 0u32;
        let mut config = SwitchConfig::new();
        for g in 0..n_groups {
            let leaf = HubId(next_hub);
            next_hub += 1;
            // Binary switch tree: the leaf hub's uplink enters the root of
            // a selection tree whose leaves are this group's ports on each
            // host's aggregation tree.
            let leaves: Vec<UpRef> = host_ports.iter().map(|ports| ports[g]).collect();
            let hub_up = Self::build_switch_tree(
                &mut t,
                &mut next_switch,
                &mut config,
                &leaves,
                0,
                hosts as usize,
                g,
            );
            t.add_hub(leaf, hub_up);
            for i in 0..fanin {
                let d = g * fanin + i;
                if d < disks as usize {
                    t.add_disk(DiskId(d as u32), UpRef::Hub(leaf));
                }
            }
        }
        (t, config)
    }

    /// Builds a hub tree under `host` exposing `n_ports` downstream ports;
    /// returns one attachment point per port.
    fn build_host_tree(
        t: &mut Topology,
        next_hub: &mut u32,
        host: HostId,
        n_ports: usize,
        fanin: usize,
    ) -> Vec<UpRef> {
        assert!(fanin >= 2, "host aggregation tree needs fan-in >= 2");
        Self::build_hub_subtree(t, next_hub, UpRef::Host(host), n_ports, fanin)
    }

    /// Creates one hub under `up` and recursively enough hubs below it to
    /// expose exactly `n_ports` attachment points, never exceeding the
    /// fan-in on any hub.
    fn build_hub_subtree(
        t: &mut Topology,
        next_hub: &mut u32,
        up: UpRef,
        n_ports: usize,
        fanin: usize,
    ) -> Vec<UpRef> {
        let hub = HubId(*next_hub);
        *next_hub += 1;
        t.add_hub(hub, up);
        if n_ports <= fanin {
            return vec![UpRef::Hub(hub); n_ports];
        }
        // Split the demand across at most `fanin` downstream slots; a slot
        // either is a direct port (share == 1) or feeds a child subtree.
        let mut ports = Vec::with_capacity(n_ports);
        let mut remaining = n_ports;
        for slot in 0..fanin {
            if remaining == 0 {
                break;
            }
            let share = remaining.div_ceil(fanin - slot);
            if share == 1 {
                ports.push(UpRef::Hub(hub));
            } else {
                ports.extend(Self::build_hub_subtree(
                    t,
                    next_hub,
                    UpRef::Hub(hub),
                    share,
                    fanin,
                ));
            }
            remaining -= share;
        }
        ports
    }

    /// Recursively builds the binary switch tree selecting among
    /// `leaves[lo..lo+n]` (one attachment point per host); returns the
    /// [`UpRef`] the subtree's child should plug into. Initial positions
    /// steer group `g` to host `g % hosts`.
    fn build_switch_tree(
        t: &mut Topology,
        next_switch: &mut u32,
        config: &mut SwitchConfig,
        leaves: &[UpRef],
        lo: usize,
        n: usize,
        group: usize,
    ) -> UpRef {
        if n == 1 {
            return leaves[lo];
        }
        let sw = SwitchId(*next_switch);
        *next_switch += 1;
        let half = n / 2;
        let a = Self::build_switch_tree(t, next_switch, config, leaves, lo, half, group);
        let b = Self::build_switch_tree(t, next_switch, config, leaves, lo + half, half, group);
        t.add_switch(sw, a, b);
        // Choose the position that routes toward host (group % hosts).
        let target = group % leaves.len();
        let pos = if target < lo + half {
            SwitchPos::A
        } else {
            SwitchPos::B
        };
        config.insert(sw, pos);
        sw_upref(sw)
    }
}

fn sw_upref(s: SwitchId) -> UpRef {
    UpRef::Switch(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_switched_structure() {
        let (t, cfg) = Topology::leaf_switched(16, 4);
        t.validate().expect("valid");
        let c = t.component_counts();
        assert_eq!(c.hosts, 2);
        assert_eq!(c.disks, 16);
        assert_eq!(c.switches, 16, "one switch per disk");
        // Two trees x (4 leaf hubs + 1 root hub) = 10 hubs.
        assert_eq!(c.hubs, 10);
        assert_eq!(cfg.len(), 16);
    }

    #[test]
    fn upper_switched_prototype_structure() {
        // The paper's prototype: 16 disks, 4 hosts, fan-in 4.
        let (t, cfg) = Topology::upper_switched(4, 16, 4);
        t.validate().expect("valid");
        let c = t.component_counts();
        assert_eq!(c.hosts, 4);
        assert_eq!(c.disks, 16);
        // 4 groups x 3 switches (binary tree over 4 hosts) = 12 switches.
        assert_eq!(c.switches, 12);
        // 4 root hubs + 4 leaf hubs = 8 hubs.
        assert_eq!(c.hubs, 8);
        assert_eq!(cfg.len(), 12);
        // Upper switching uses fewer components than leaf switching for
        // the same fault tolerance goal — the paper's cost argument.
        let (t2, _) = Topology::leaf_switched(16, 4);
        let c2 = t2.component_counts();
        assert!(c.switches + c.hubs < c2.switches + c2.hubs);
    }

    #[test]
    fn big_unit_64_disks() {
        let (t, _) = Topology::upper_switched(4, 64, 4);
        t.validate().expect("valid");
        let c = t.component_counts();
        assert_eq!(c.disks, 64);
        // Host side: root + 4 children per host (16 group ports); disk
        // side: 16 leaf hubs.
        assert_eq!(c.hubs, 4 * 5 + 16);
        assert_eq!(c.switches, 16 * 3);
    }

    #[test]
    fn validation_catches_dangling() {
        let mut t = Topology::new(4);
        t.add_disk(DiskId(0), UpRef::Hub(HubId(9)));
        assert!(matches!(t.validate(), Err(TopologyError::Dangling(_))));
    }

    #[test]
    fn validation_catches_oversubscription() {
        let mut t = Topology::new(2);
        t.add_host(HostId(0));
        t.add_hub(HubId(0), UpRef::Host(HostId(0)));
        for d in 0..3 {
            t.add_disk(DiskId(d), UpRef::Hub(HubId(0)));
        }
        assert_eq!(
            t.validate(),
            Err(TopologyError::HubOverSubscribed(HubId(0)))
        );
    }

    #[test]
    fn validation_catches_switch_child_count() {
        let mut t = Topology::new(4);
        t.add_host(HostId(0));
        t.add_host(HostId(1));
        t.add_switch(SwitchId(0), UpRef::Host(HostId(0)), UpRef::Host(HostId(1)));
        assert_eq!(
            t.validate(),
            Err(TopologyError::SwitchChildCount(SwitchId(0), 0))
        );
        t.add_disk(DiskId(0), UpRef::Switch(SwitchId(0)));
        t.add_disk(DiskId(1), UpRef::Switch(SwitchId(0)));
        assert_eq!(
            t.validate(),
            Err(TopologyError::SwitchChildCount(SwitchId(0), 2))
        );
    }

    #[test]
    fn validation_catches_same_upstreams() {
        let mut t = Topology::new(4);
        t.add_host(HostId(0));
        t.add_switch(SwitchId(0), UpRef::Host(HostId(0)), UpRef::Host(HostId(0)));
        t.add_disk(DiskId(0), UpRef::Switch(SwitchId(0)));
        assert_eq!(
            t.validate(),
            Err(TopologyError::SwitchSameUpstreams(SwitchId(0)))
        );
    }

    #[test]
    fn validation_catches_cycles() {
        let mut t = Topology::new(4);
        t.add_hub(HubId(0), UpRef::Hub(HubId(1)));
        t.add_hub(HubId(1), UpRef::Hub(HubId(0)));
        assert!(matches!(t.validate(), Err(TopologyError::Cycle(_))));
    }

    #[test]
    fn switch_pos_flip() {
        assert_eq!(SwitchPos::A.flip(), SwitchPos::B);
        assert_eq!(SwitchPos::B.flip(), SwitchPos::A);
    }

    #[test]
    fn display_impls() {
        assert_eq!(HostId(1).to_string(), "host1");
        assert_eq!(HubId(2).to_string(), "hub2");
        assert_eq!(SwitchId(3).to_string(), "sw3");
        assert_eq!(DiskId(4).to_string(), "disk4");
    }
}
