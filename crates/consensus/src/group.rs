//! Multi-group instantiation of the coordination substrate.
//!
//! The partitioned Master keeps each per-unit-group metadata namespace in
//! its **own replicated log**: an independent replica set of the existing
//! [`CoordServer`] machinery, addressed by prefixing the base cluster's
//! replica names (`coord-3` → `p1-coord-3` for partition 1). Group 0 *is*
//! the base cluster — elections, sessions and legacy metadata stay there —
//! so a single-partition deployment instantiates nothing new and remains
//! byte-identical with the pre-partition system.
//!
//! Keeping groups as whole replica sets (rather than multiplexing several
//! logs over one set) means no wire-format or consensus-protocol change:
//! each group runs the proven single-log Paxos RSM, and groups share
//! nothing but the simulated network.

use ustore_net::{Addr, Network};
use ustore_sim::Sim;

use crate::rsm::{CoordConfig, CoordServer};

/// Derives the replica addresses of metadata-partition group `group` from
/// the base cluster's addresses. Group 0 is the base cluster itself.
pub fn group_addrs(base: &[Addr], group: u32) -> Vec<Addr> {
    if group == 0 {
        return base.to_vec();
    }
    base.iter()
        .map(|a| Addr::new(format!("p{group}-{a}")))
        .collect()
}

/// One additional replicated-log group: an independent `CoordServer`
/// replica set at [`group_addrs`]-derived addresses.
#[derive(Debug)]
pub struct CoordGroup {
    group: u32,
    servers: Vec<CoordServer>,
}

impl CoordGroup {
    /// Instantiates group `group` (≥ 1) as a fresh replica set mirroring
    /// the base cluster's size, on the same simulator and network.
    ///
    /// # Panics
    ///
    /// Panics on `group == 0` — group 0 is the pre-existing base cluster,
    /// never instantiated here.
    pub fn new(
        sim: &Sim,
        net: &Network,
        group: u32,
        base_addrs: &[Addr],
        config: CoordConfig,
    ) -> Self {
        assert!(group >= 1, "group 0 is the base cluster");
        let addrs = group_addrs(base_addrs, group);
        let servers = (0..addrs.len() as u32)
            .map(|i| CoordServer::new(sim, net, i, addrs.clone(), config.clone()))
            .collect();
        CoordGroup { group, servers }
    }

    /// The group index (≥ 1).
    pub fn group(&self) -> u32 {
        self.group
    }

    /// The group's replicas.
    pub fn servers(&self) -> &[CoordServer] {
        &self.servers
    }

    /// The group's replica addresses.
    pub fn addrs(&self) -> Vec<Addr> {
        self.servers.iter().map(|s| s.addr()).collect()
    }

    /// Length of the group's replicated log: the longest applied prefix
    /// across replicas (replicas catch up asynchronously, so the max is
    /// the log's true committed extent).
    pub fn log_len(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| s.applied_len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::Duration;

    use ustore_net::NetConfig;

    use crate::client::{ClientConfig, CoordClient};

    #[test]
    fn group_addrs_prefix_and_identity() {
        let base: Vec<Addr> = (0..3).map(|i| Addr::new(format!("coord-{i}"))).collect();
        assert_eq!(group_addrs(&base, 0), base);
        let g2 = group_addrs(&base, 2);
        assert_eq!(g2[0].as_str(), "p2-coord-0");
        assert_eq!(g2[2].as_str(), "p2-coord-2");
    }

    #[test]
    fn groups_are_independent_logs() {
        let sim = Sim::new(71);
        let net = Network::new(NetConfig::default(), sim.seed());
        let base: Vec<Addr> = (0..3).map(|i| Addr::new(format!("coord-{i}"))).collect();
        let base_servers: Vec<CoordServer> = (0..3)
            .map(|i| CoordServer::new(&sim, &net, i, base.clone(), CoordConfig::default()))
            .collect();
        let g1 = CoordGroup::new(&sim, &net, 1, &base, CoordConfig::default());
        sim.run_until(sim.now() + Duration::from_secs(5));

        // Write one znode through a client of group 1 only.
        let client = CoordClient::new(
            &net,
            Addr::new("g1-client"),
            g1.addrs(),
            ClientConfig::default(),
        );
        let wrote = Rc::new(Cell::new(false));
        let w = wrote.clone();
        client.connect(&sim, move |sim2, r| {
            r.expect("connect to group 1");
            // `client` lives outside; re-create cheaply via capture.
            let _ = sim2;
            w.set(true);
        });
        sim.run_until(sim.now() + Duration::from_secs(2));
        assert!(wrote.get());
        let created = Rc::new(Cell::new(false));
        let c = created.clone();
        client.create(
            &sim,
            "/only-in-g1",
            b"x".to_vec(),
            crate::store::CreateMode::Persistent,
            move |_, r| {
                r.expect("create in group 1");
                c.set(true);
            },
        );
        sim.run_until(sim.now() + Duration::from_secs(3));
        assert!(created.get());

        // The write landed in group 1's log, not the base cluster's store.
        assert!(g1.log_len() > 0);
        let base_has = base_servers
            .iter()
            .any(|s| s.with_store(|st| st.exists("/only-in-g1")));
        assert!(!base_has, "base cluster must not see group 1 writes");
        let g1_has = g1
            .servers()
            .iter()
            .any(|s| s.with_store(|st| st.exists("/only-in-g1")));
        assert!(g1_has, "group 1 replicas hold the znode");
    }
}
