//! Megapod: the deployment size the single-world engine cannot reach.
//!
//! Four times the [`crate::podscale`] pod — 256 deploy units, 1024 hosts,
//! 4096 disks under one Master — decomposed into 16 unit-group worlds for
//! the sharded engine. At this scale the event volume of one virtual
//! second is large enough that parallel execution, not per-event cost, is
//! what determines how much deployment the harness can explore; the
//! megapod is the scenario the shard-scaling numbers in
//! `BENCH_podscale.json` are reported against alongside the pod.
//!
//! Run it with `repro megapod --shards N` or via `repro perf` (full
//! mode), both of which run it through [`crate::podscale::run_podscale`].

use std::time::Duration;

use crate::podscale::PodConfig;

/// The megapod shape: 256 units × (4 hosts + 16 disks) = 1024 hosts and
/// 4096 disks, 16 unit-group worlds, 48 archival clients.
pub fn megapod() -> PodConfig {
    PodConfig {
        units: 256,
        clients: 48,
        run: Duration::from_secs(10),
        world_groups: 16,
        ..PodConfig::pod()
    }
}

/// The CI shape: same 4096-disk megapod with fewer clients and a shorter
/// measured window.
pub fn megapod_quick() -> PodConfig {
    PodConfig {
        clients: 16,
        run: Duration::from_secs(4),
        ..megapod()
    }
}

/// The megapod with its control plane scaled out to match: 16 metadata
/// partitions (one per unit-group world, each replica group co-located
/// with its units) and client location leases. This is the shape where
/// partitioning matters — 4096 disks of heartbeat, allocation and lookup
/// traffic through one serialized log is the bottleneck the partition map
/// removes.
pub fn megapod_partitioned() -> PodConfig {
    megapod().partitioned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn megapod_shape_is_the_issue_spec() {
        let cfg = megapod();
        assert_eq!(cfg.units, 256);
        assert_eq!(cfg.hosts(), 1024);
        assert_eq!(cfg.disks(), 4096);
        assert_eq!(cfg.world_groups, 16);
        assert_eq!(megapod_quick().disks(), 4096);
    }

    #[test]
    fn partitioned_megapod_scales_metadata_with_the_worlds() {
        let cfg = megapod_partitioned();
        assert_eq!(cfg.partitions, 16, "one partition per unit-group world");
        assert!(cfg.location_lease.is_some(), "clients lease locations");
        assert_eq!(cfg.disks(), 4096, "same data plane as the megapod");
    }
}
