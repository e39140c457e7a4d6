//! Routing over the fabric: current attachments, candidate paths, and the
//! paper's Algorithm 1 (`SwitchesToTurn`).
//!
//! A [`FabricState`] combines the static [`Topology`] with the current
//! [`SwitchConfig`] and the set of failed components. From it one can ask
//! where a disk is currently attached, which hosts it *could* reach, which
//! switch positions a reattachment requires, and — via
//! [`FabricState::switches_to_turn`] — the minimal, conflict-checked set of
//! switches to flip for a batch of `(disk, host)` scheduling commands.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use crate::topology::{DiskId, HostId, HubId, SwitchConfig, SwitchId, SwitchPos, Topology, UpRef};

/// A failed component (one failure unit, §IV-E: a switch or bridge is
/// lumped with the hub/disk it serves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// A host root port (host crash).
    Host(HostId),
    /// A hub (and the switch feeding it, if any).
    Hub(HubId),
    /// A disk slot (disk + bridge + leaf switch).
    Disk(DiskId),
}

/// Why a scheduling command cannot be executed — the "ErrInfo" of
/// Algorithm 1, detailed enough for the Master to decide (§IV-C: e.g.
/// "connecting A to H1 will force disk E to be disconnected from host H3").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No path exists between the disk and the requested host.
    NoPath(DiskId, HostId),
    /// Turning `switch` would disconnect `victim` from its current host.
    Conflict {
        /// The switch that would have to be turned.
        switch: SwitchId,
        /// The disk requesting the turn.
        requester: DiskId,
        /// A disk whose current path occupies the switch.
        victim: DiskId,
        /// The host the victim would lose.
        victim_host: HostId,
    },
    /// Two commands in the same batch need the same switch in different
    /// positions.
    BatchConflict {
        /// The contested switch.
        switch: SwitchId,
        /// The two disks whose requirements clash.
        disks: (DiskId, DiskId),
    },
    /// The disk or host does not exist or has failed.
    Unavailable(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoPath(d, h) => write!(f, "no fabric path from {d} to {h}"),
            ScheduleError::Conflict {
                switch,
                requester,
                victim,
                victim_host,
            } => write!(
                f,
                "turning {switch} for {requester} would disconnect {victim} from {victim_host}"
            ),
            ScheduleError::BatchConflict { switch, disks } => write!(
                f,
                "{} and {} need {switch} in different positions",
                disks.0, disks.1
            ),
            ScheduleError::Unavailable(w) => write!(f, "unavailable: {w}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Topology + switch configuration + failure set.
#[derive(Debug, Clone)]
pub struct FabricState {
    topology: Topology,
    config: SwitchConfig,
    failed: BTreeSet<Component>,
}

impl FabricState {
    /// Creates a state over `topology` with the given initial switch
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics if the topology fails validation or `config` is missing a
    /// switch.
    pub fn new(topology: Topology, config: SwitchConfig) -> Self {
        topology.validate().expect("valid topology");
        for s in topology.switches() {
            assert!(config.contains_key(&s), "config missing {s}");
        }
        FabricState {
            topology,
            config,
            failed: BTreeSet::new(),
        }
    }

    /// The static topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The current switch configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Marks a component failed.
    pub fn fail(&mut self, c: Component) {
        self.failed.insert(c);
    }

    /// Clears a component failure (after repair).
    pub fn repair(&mut self, c: Component) {
        self.failed.remove(&c);
    }

    /// Sets one switch's position.
    ///
    /// # Panics
    ///
    /// Panics if the switch does not exist.
    pub fn set_switch(&mut self, s: SwitchId, pos: SwitchPos) {
        assert!(self.config.contains_key(&s), "unknown switch {s}");
        self.config.insert(s, pos);
    }

    /// One switch's current position.
    pub fn switch_pos(&self, s: SwitchId) -> Option<SwitchPos> {
        self.config.get(&s).copied()
    }

    fn up_ok(&self, up: UpRef) -> bool {
        match up {
            UpRef::Host(h) => !self.failed.contains(&Component::Host(h)),
            UpRef::Hub(h) => !self.failed.contains(&Component::Hub(h)),
            UpRef::Switch(_) => true, // switch failures fold into hubs/disks
        }
    }

    /// The host a disk is currently attached to, following the active
    /// switch positions; `None` if a component on the path failed.
    pub fn attached_host(&self, d: DiskId) -> Option<HostId> {
        if self.failed.contains(&Component::Disk(d)) {
            return None;
        }
        let mut cur = self.topology.disk_upstream(d)?;
        let mut hops = 0;
        loop {
            hops += 1;
            if hops > 64 {
                return None; // defensive: malformed topology
            }
            if !self.up_ok(cur) {
                return None;
            }
            cur = match cur {
                UpRef::Host(h) => return Some(h),
                UpRef::Hub(h) => self.topology.hub_upstream(h)?,
                UpRef::Switch(s) => {
                    let (a, b) = self.topology.switch_upstreams(s)?;
                    match self.config.get(&s)? {
                        SwitchPos::A => a,
                        SwitchPos::B => b,
                    }
                }
            };
        }
    }

    /// The host a hub is currently visible to, following active switch
    /// positions (host-side hubs are always visible to their host).
    pub fn hub_host(&self, h: HubId) -> Option<HostId> {
        if self.failed.contains(&Component::Hub(h)) {
            return None;
        }
        self.host_of(self.topology.hub_upstream(h)?)
    }

    /// Walks up from an attachment point to the host it currently leads to.
    pub fn host_of(&self, mut cur: UpRef) -> Option<HostId> {
        let mut hops = 0;
        loop {
            hops += 1;
            if hops > 64 || !self.up_ok(cur) {
                return None;
            }
            cur = match cur {
                UpRef::Host(h) => return Some(h),
                UpRef::Hub(h) => self.topology.hub_upstream(h)?,
                UpRef::Switch(s) => {
                    let (a, b) = self.topology.switch_upstreams(s)?;
                    match self.config.get(&s)? {
                        SwitchPos::A => a,
                        SwitchPos::B => b,
                    }
                }
            };
        }
    }

    /// The USB-visible parent of an attachment point: the first hub or
    /// host reached going upward (switches are invisible to USB, §IV-E).
    pub fn usb_parent(&self, mut cur: UpRef) -> Option<UpRef> {
        let mut hops = 0;
        loop {
            hops += 1;
            if hops > 64 {
                return None;
            }
            match cur {
                UpRef::Host(_) | UpRef::Hub(_) => return Some(cur),
                UpRef::Switch(s) => {
                    let (a, b) = self.topology.switch_upstreams(s)?;
                    cur = match self.config.get(&s)? {
                        SwitchPos::A => a,
                        SwitchPos::B => b,
                    };
                }
            }
        }
    }

    /// Number of hops (hubs) between a node and its host, for attach
    /// ordering (parents first).
    pub fn depth_of(&self, mut cur: UpRef) -> usize {
        let mut depth = 0;
        let mut hops = 0;
        loop {
            hops += 1;
            if hops > 64 {
                return depth;
            }
            match cur {
                UpRef::Host(_) => return depth,
                UpRef::Hub(h) => {
                    depth += 1;
                    match self.topology.hub_upstream(h) {
                        Some(up) => cur = up,
                        None => return depth,
                    }
                }
                UpRef::Switch(s) => {
                    let Some((a, b)) = self.topology.switch_upstreams(s) else {
                        return depth;
                    };
                    cur = match self.config.get(&s) {
                        Some(SwitchPos::A) => a,
                        Some(SwitchPos::B) => b,
                        None => return depth,
                    };
                }
            }
        }
    }

    /// Current attachment map of every reachable disk.
    pub fn attachment_map(&self) -> BTreeMap<DiskId, HostId> {
        self.topology
            .disks()
            .filter_map(|d| self.attached_host(d).map(|h| (d, h)))
            .collect()
    }

    /// Switch settings required on the (unique) path from `d` to `host`,
    /// ignoring current positions — the paper's `GETSWITCH()`.
    ///
    /// Returns `None` when no path exists or a component on it failed.
    pub fn path_switches(&self, d: DiskId, host: HostId) -> Option<Vec<(SwitchId, SwitchPos)>> {
        if self.failed.contains(&Component::Disk(d)) || self.failed.contains(&Component::Host(host))
        {
            return None;
        }
        let start = self.topology.disk_upstream(d)?;
        let mut out = Vec::new();
        if self.search_up(start, host, &mut out, 0) {
            out.reverse();
            Some(out)
        } else {
            None
        }
    }

    fn search_up(
        &self,
        cur: UpRef,
        target: HostId,
        path: &mut Vec<(SwitchId, SwitchPos)>,
        depth: usize,
    ) -> bool {
        if depth > 64 || !self.up_ok(cur) {
            return false;
        }
        match cur {
            UpRef::Host(h) => h == target,
            UpRef::Hub(h) => match self.topology.hub_upstream(h) {
                Some(up) => self.search_up(up, target, path, depth + 1),
                None => false,
            },
            UpRef::Switch(s) => {
                let Some((a, b)) = self.topology.switch_upstreams(s) else {
                    return false;
                };
                path.push((s, SwitchPos::A));
                if self.search_up(a, target, path, depth + 1) {
                    return true;
                }
                path.pop();
                path.push((s, SwitchPos::B));
                if self.search_up(b, target, path, depth + 1) {
                    return true;
                }
                path.pop();
                false
            }
        }
    }

    /// Hosts this disk could reach through some switch configuration.
    pub fn reachable_hosts(&self, d: DiskId) -> Vec<HostId> {
        self.topology
            .hosts()
            .filter(|h| self.path_switches(d, *h).is_some())
            .collect()
    }

    /// The switches on a disk's *current* active path (with positions).
    pub fn current_path_switches(&self, d: DiskId) -> Vec<(SwitchId, SwitchPos)> {
        let mut out = Vec::new();
        let Some(mut cur) = self.topology.disk_upstream(d) else {
            return out;
        };
        let mut hops = 0;
        loop {
            hops += 1;
            if hops > 64 {
                break;
            }
            cur = match cur {
                UpRef::Host(_) => break,
                UpRef::Hub(h) => match self.topology.hub_upstream(h) {
                    Some(up) => up,
                    None => break,
                },
                UpRef::Switch(s) => {
                    let Some((a, b)) = self.topology.switch_upstreams(s) else {
                        break;
                    };
                    let Some(pos) = self.config.get(&s).copied() else {
                        break;
                    };
                    out.push((s, pos));
                    match pos {
                        SwitchPos::A => a,
                        SwitchPos::B => b,
                    }
                }
            };
        }
        out
    }

    /// Algorithm 1: determines which switches must be turned to satisfy a
    /// batch of `(disk, host)` commands, refusing turns that would steal a
    /// switch from a disk not named in the batch.
    ///
    /// # Errors
    ///
    /// [`ScheduleError`] mirrors the paper's `ErrInfo`: missing paths,
    /// conflicts with unrelated disks, or contradictory batch demands.
    pub fn switches_to_turn(
        &self,
        pairs: &[(DiskId, HostId)],
    ) -> Result<Vec<(SwitchId, SwitchPos)>, ScheduleError> {
        let moving: BTreeSet<DiskId> = pairs.iter().map(|(d, _)| *d).collect();
        // OccupiedSwitches: positions pinned by disks that must not move.
        let mut occupied: HashMap<SwitchId, (SwitchPos, DiskId)> = HashMap::new();
        for d in self.topology.disks() {
            if moving.contains(&d) {
                continue;
            }
            if self.attached_host(d).is_none() {
                continue; // already disconnected; nothing to preserve
            }
            for (s, pos) in self.current_path_switches(d) {
                occupied.entry(s).or_insert((pos, d));
            }
        }
        let mut to_turn: Vec<(SwitchId, SwitchPos)> = Vec::new();
        let mut batch_pins: HashMap<SwitchId, (SwitchPos, DiskId)> = HashMap::new();
        for (d, h) in pairs {
            let path = self
                .path_switches(*d, *h)
                .ok_or(ScheduleError::NoPath(*d, *h))?;
            for (s, desired) in path {
                if let Some((pinned, other)) = batch_pins.get(&s) {
                    if *pinned != desired {
                        return Err(ScheduleError::BatchConflict {
                            switch: s,
                            disks: (*other, *d),
                        });
                    }
                    continue;
                }
                if let Some((pos, victim)) = occupied.get(&s) {
                    if *pos != desired {
                        let victim_host = self
                            .attached_host(*victim)
                            .expect("victim was attached when pinned");
                        return Err(ScheduleError::Conflict {
                            switch: s,
                            requester: *d,
                            victim: *victim,
                            victim_host,
                        });
                    }
                    // Already in the right position and shared: fine.
                    batch_pins.insert(s, (desired, *d));
                    continue;
                }
                batch_pins.insert(s, (desired, *d));
                if self.config.get(&s).copied() != Some(desired) {
                    to_turn.push((s, desired));
                }
            }
        }
        Ok(to_turn)
    }

    /// Disks whose current attachment would change if `switches` were
    /// turned — the victims named in the Controller's error reports.
    pub fn displaced_by(&self, switches: &[(SwitchId, SwitchPos)]) -> Vec<DiskId> {
        let mut hypothetical = self.clone();
        for (s, pos) in switches {
            hypothetical.set_switch(*s, *pos);
        }
        self.topology
            .disks()
            .filter(|d| {
                let before = self.attached_host(*d);
                let after = hypothetical.attached_host(*d);
                before.is_some() && before != after
            })
            .collect()
    }

    /// Applies a turn list (after the control plane has executed it).
    pub fn apply_turns(&mut self, switches: &[(SwitchId, SwitchPos)]) {
        for (s, pos) in switches {
            self.set_switch(*s, *pos);
        }
    }

    /// Plans the evacuation of `disks` (typically a dead host's) onto
    /// `targets`, assigning whole switch cohorts together and balancing
    /// target load.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NoPath`] if some disk cannot reach any target
    /// without stealing a switch from a disk outside the evacuation set.
    pub fn plan_evacuation(
        &self,
        disks: &[DiskId],
        targets: &[HostId],
    ) -> Result<Vec<(DiskId, HostId)>, ScheduleError> {
        self.plan(disks, targets, false)
    }

    /// Like [`plan_evacuation`](Self::plan_evacuation), but disks still
    /// live on a host may be pulled along as cohort: turning a shared
    /// switch moves every disk behind it, so relocating one *degraded but
    /// still attached* disk necessarily carries its hub-mates to the new
    /// host. Evacuation of a dead host refuses that (it would silently
    /// steal disks from healthy hosts); a proactive single-disk move
    /// requires it.
    pub fn plan_move(
        &self,
        disks: &[DiskId],
        targets: &[HostId],
    ) -> Result<Vec<(DiskId, HostId)>, ScheduleError> {
        self.plan(disks, targets, true)
    }

    fn plan(
        &self,
        disks: &[DiskId],
        targets: &[HostId],
        pull_live_cohort: bool,
    ) -> Result<Vec<(DiskId, HostId)>, ScheduleError> {
        let moving: BTreeSet<DiskId> = disks.iter().copied().collect();
        let mut loads: BTreeMap<HostId, usize> = targets.iter().map(|h| (*h, 0)).collect();
        for (d, h) in self.attachment_map() {
            if !moving.contains(&d) {
                if let Some(l) = loads.get_mut(&h) {
                    *l += 1;
                }
            }
        }
        let mut assigned: BTreeMap<DiskId, HostId> = BTreeMap::new();
        for d in disks {
            if assigned.contains_key(d) {
                continue;
            }
            // Try targets from least to most loaded.
            let mut order: Vec<HostId> = targets.to_vec();
            // Least-loaded first; on ties prefer higher-numbered hosts so
            // the controlling hosts (low ids) stay available as backups.
            order.sort_by_key(|h| (loads[h], u32::MAX - h.0));
            let mut placed = false;
            'target: for t in order {
                let Some(path) = self.path_switches(*d, t) else {
                    continue;
                };
                let turned: Vec<SwitchId> = path
                    .iter()
                    .filter(|(s, p)| self.config.get(s) != Some(p))
                    .map(|(s, _)| *s)
                    .collect();
                // Cohort: every disk whose current path crosses a turned
                // switch moves together.
                let mut cohort = vec![*d];
                for other in self.topology.disks() {
                    if other == *d {
                        continue;
                    }
                    let crosses = self
                        .current_path_switches(other)
                        .iter()
                        .any(|(s, _)| turned.contains(s));
                    if crosses {
                        if !moving.contains(&other)
                            && self.attached_host(other).is_some()
                            && !pull_live_cohort
                        {
                            continue 'target; // would steal a live disk
                        }
                        cohort.push(other);
                    }
                }
                for c in &cohort {
                    assigned.insert(*c, t);
                }
                *loads.get_mut(&t).expect("known target") += cohort.len();
                placed = true;
                break;
            }
            if !placed {
                return Err(ScheduleError::NoPath(
                    *d,
                    targets.first().copied().unwrap_or(HostId(u32::MAX)),
                ));
            }
        }
        Ok(assigned.into_iter().collect())
    }

    /// Disks that currently have no live path to any host (blast-radius
    /// analysis for failure reporting).
    pub fn orphaned_disks(&self) -> Vec<DiskId> {
        self.topology
            .disks()
            .filter(|d| self.attached_host(*d).is_none())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prototype() -> FabricState {
        let (t, cfg) = Topology::upper_switched(4, 16, 4);
        FabricState::new(t, cfg)
    }

    fn two_tree() -> FabricState {
        let (t, cfg) = Topology::leaf_switched(16, 4);
        FabricState::new(t, cfg)
    }

    #[test]
    fn initial_attachment_spreads_groups() {
        let f = prototype();
        let map = f.attachment_map();
        assert_eq!(map.len(), 16);
        // Group g of 4 disks lands on host g.
        for d in 0..16u32 {
            assert_eq!(map[&DiskId(d)], HostId(d / 4), "disk {d}");
        }
    }

    #[test]
    fn every_disk_reaches_every_host_in_prototype() {
        let f = prototype();
        for d in 0..16u32 {
            let hosts = f.reachable_hosts(DiskId(d));
            assert_eq!(hosts.len(), 4, "disk {d} reaches all hosts");
        }
    }

    #[test]
    fn leaf_switched_reaches_both_hosts() {
        let f = two_tree();
        for d in 0..16u32 {
            assert_eq!(f.reachable_hosts(DiskId(d)).len(), 2);
        }
    }

    #[test]
    fn path_switches_roundtrip() {
        let mut f = prototype();
        let d = DiskId(0);
        let target = HostId(3);
        let path = f.path_switches(d, target).expect("path exists");
        assert!(!path.is_empty());
        for (s, pos) in &path {
            f.set_switch(*s, *pos);
        }
        assert_eq!(f.attached_host(d), Some(target));
    }

    #[test]
    fn switches_to_turn_moves_whole_group() {
        let f = prototype();
        // Moving disk 0 to host 1 turns its group's switch tree; disks 1-3
        // (same leaf hub) are also moved, so naming only disk 0 conflicts
        // with its groupmates... unless they are named too.
        let err = f.switches_to_turn(&[(DiskId(0), HostId(1))]).unwrap_err();
        match err {
            ScheduleError::Conflict {
                victim,
                victim_host,
                ..
            } => {
                assert!(victim.0 < 4, "victim is a groupmate");
                assert_eq!(victim_host, HostId(0));
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        // Naming the whole group succeeds.
        let pairs: Vec<(DiskId, HostId)> = (0..4).map(|d| (DiskId(d), HostId(1))).collect();
        let turns = f.switches_to_turn(&pairs).expect("no conflict");
        assert!(!turns.is_empty());
        let mut f2 = f.clone();
        f2.apply_turns(&turns);
        for d in 0..4u32 {
            assert_eq!(f2.attached_host(DiskId(d)), Some(HostId(1)));
        }
        // Other groups untouched.
        assert_eq!(f2.attached_host(DiskId(5)), Some(HostId(1)));
        assert_eq!(f2.attached_host(DiskId(9)), Some(HostId(2)));
    }

    #[test]
    fn leaf_switched_moves_single_disk_without_conflict() {
        let f = two_tree();
        // Disk 0 starts on host 0 (pos A); move it alone to host 1.
        assert_eq!(f.attached_host(DiskId(0)), Some(HostId(0)));
        let turns = f
            .switches_to_turn(&[(DiskId(0), HostId(1))])
            .expect("independent switch per disk");
        assert_eq!(turns.len(), 1);
        let mut f2 = f.clone();
        f2.apply_turns(&turns);
        assert_eq!(f2.attached_host(DiskId(0)), Some(HostId(1)));
        // No other disk moved.
        for d in 1..16u32 {
            assert_eq!(f2.attached_host(DiskId(d)), f.attached_host(DiskId(d)));
        }
    }

    #[test]
    fn noop_command_returns_empty_turn_list() {
        let f = prototype();
        let turns = f
            .switches_to_turn(&[(DiskId(0), HostId(0))])
            .expect("already attached");
        assert!(turns.is_empty());
    }

    #[test]
    fn batch_conflict_detected() {
        let f = prototype();
        // Disks 0 and 1 share a leaf hub: steering them to different hosts
        // needs the same switch tree in two positions at once.
        let mut pairs: Vec<(DiskId, HostId)> = vec![(DiskId(0), HostId(1)), (DiskId(1), HostId(2))];
        pairs.extend((2..4).map(|d| (DiskId(d), HostId(1))));
        let err = f.switches_to_turn(&pairs).unwrap_err();
        assert!(
            matches!(err, ScheduleError::BatchConflict { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn host_failure_orphans_until_reconfigured() {
        let mut f = prototype();
        f.fail(Component::Host(HostId(0)));
        assert_eq!(f.attached_host(DiskId(0)), None);
        assert_eq!(f.orphaned_disks().len(), 4);
        // Algorithm 1 can move the orphaned group to a live host.
        let pairs: Vec<(DiskId, HostId)> = (0..4).map(|d| (DiskId(d), HostId(2))).collect();
        let turns = f.switches_to_turn(&pairs).expect("reroute");
        f.apply_turns(&turns);
        assert_eq!(f.orphaned_disks(), Vec::<DiskId>::new());
        assert_eq!(f.attached_host(DiskId(0)), Some(HostId(2)));
    }

    #[test]
    fn hub_failure_detected_and_no_path_through_it() {
        let mut f = prototype();
        // Fail host 1's root hub: host 1 becomes unreachable.
        // Root hubs are HubId(0..4) in build order.
        f.fail(Component::Hub(crate::topology::HubId(1)));
        assert_eq!(f.attached_host(DiskId(4)), None, "group 1 orphaned");
        assert!(f.path_switches(DiskId(0), HostId(1)).is_none());
        assert_eq!(f.reachable_hosts(DiskId(0)).len(), 3);
    }

    #[test]
    fn disk_failure_is_isolated() {
        let mut f = prototype();
        f.fail(Component::Disk(DiskId(7)));
        assert_eq!(f.attached_host(DiskId(7)), None);
        assert_eq!(
            f.attached_host(DiskId(6)),
            Some(HostId(1)),
            "neighbour fine"
        );
        f.repair(Component::Disk(DiskId(7)));
        assert_eq!(f.attached_host(DiskId(7)), Some(HostId(1)));
    }

    #[test]
    fn displaced_by_reports_victims() {
        let f = prototype();
        let path = f.path_switches(DiskId(0), HostId(1)).expect("path");
        let turns: Vec<_> = path
            .into_iter()
            .filter(|(s, p)| f.switch_pos(*s) != Some(*p))
            .collect();
        let displaced = f.displaced_by(&turns);
        // The whole group 0 moves.
        assert_eq!(displaced, vec![DiskId(0), DiskId(1), DiskId(2), DiskId(3)]);
    }

    #[test]
    fn plan_evacuation_balances_groups() {
        let mut f = prototype();
        f.fail(Component::Host(HostId(0)));
        let dead_disks: Vec<DiskId> = (0..4).map(DiskId).collect();
        let live: Vec<HostId> = (1..4).map(HostId).collect();
        let plan = f.plan_evacuation(&dead_disks, &live).expect("plan");
        assert_eq!(plan.len(), 4, "whole group planned");
        let target = plan[0].1;
        assert!(
            plan.iter().all(|(_, h)| *h == target),
            "group moves together"
        );
        assert_ne!(target, HostId(0));
        // The plan is executable.
        let turns = f.switches_to_turn(&plan).expect("valid plan");
        f.apply_turns(&turns);
        assert!(f.orphaned_disks().is_empty());
    }

    #[test]
    fn plan_evacuation_spreads_multiple_groups() {
        // Kill two hosts worth of disks in the leaf-switched design: each
        // disk is independent, so planning balances them across survivors.
        let f = two_tree();
        // Move all 8 disks currently on host 0 to host 1.
        let disks: Vec<DiskId> = (0..16u32)
            .map(DiskId)
            .filter(|d| f.attached_host(*d) == Some(HostId(0)))
            .collect();
        assert_eq!(disks.len(), 8);
        let plan = f.plan_evacuation(&disks, &[HostId(1)]).expect("plan");
        assert_eq!(plan.len(), 8);
        assert!(plan.iter().all(|(_, h)| *h == HostId(1)));
    }

    #[test]
    fn plan_move_pulls_live_hub_mates() {
        // disk0 is alive on host0; its three hub-mates share the leaf
        // hub. Evacuation-style planning must refuse (stealing live
        // disks), a proactive move must carry the whole group.
        let f = prototype();
        let targets: Vec<HostId> = (1..4).map(HostId).collect();
        let err = f.plan_evacuation(&[DiskId(0)], &targets).unwrap_err();
        assert!(matches!(err, ScheduleError::NoPath(_, _)));
        let plan = f.plan_move(&[DiskId(0)], &targets).expect("plan");
        assert_eq!(plan.len(), 4, "whole hub group moves");
        let hosts: BTreeSet<HostId> = plan.iter().map(|(_, h)| *h).collect();
        assert_eq!(hosts.len(), 1, "group stays together");
        assert!(!hosts.contains(&HostId(0)), "moved away from host0");
        // The plan is executable.
        let mut f = f;
        let turns = f.switches_to_turn(&plan).expect("valid plan");
        f.apply_turns(&turns);
        for (d, h) in &plan {
            assert_eq!(f.attached_host(*d), Some(*h));
        }
    }

    #[test]
    fn plan_evacuation_fails_without_targets() {
        let f = prototype();
        let err = f.plan_evacuation(&[DiskId(0)], &[]).unwrap_err();
        assert!(matches!(err, ScheduleError::NoPath(_, _)));
    }

    #[test]
    fn any_config_partitions_into_trees() {
        // Property sampled deterministically: random switch settings always
        // leave each disk attached to at most one host, and disks sharing a
        // leaf hub agree on the host.
        let (t, cfg) = Topology::upper_switched(4, 16, 4);
        let mut f = FabricState::new(t, cfg);
        let switches: Vec<SwitchId> = f.topology().switches().collect();
        let mut x = 0xDEADBEEFu64;
        for _ in 0..50 {
            for s in &switches {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let pos = if x & 1 == 0 {
                    SwitchPos::A
                } else {
                    SwitchPos::B
                };
                f.set_switch(*s, pos);
            }
            for g in 0..4u32 {
                let hosts: BTreeSet<Option<HostId>> =
                    (0..4).map(|i| f.attached_host(DiskId(g * 4 + i))).collect();
                assert_eq!(hosts.len(), 1, "group {g} splits across hosts");
            }
        }
    }
}
