//! # ustore — the UStore cold/archival storage system
//!
//! Reproduction of the UStore system from *"UStore: A Low Cost Cold and
//! Archival Data Storage System for Data Centers"* (ICDCS 2015): a
//! combined hardware/software design that attaches large numbers of
//! commodity disks to existing data-center servers through a
//! reconfigurable USB 3.0 fat-tree fabric.
//!
//! This crate is the software stack of §IV, running over the simulated
//! substrates (`ustore-sim`, `ustore-usb`, `ustore-disk`, `ustore-net`,
//! `ustore-consensus`, `ustore-fabric`):
//!
//! - [`Master`]: replicated metadata service (SysConf / SysStat /
//!   StorAlloc), heartbeat failure detection, failover orchestration.
//! - [`Controller`]: fabric command execution (Algorithm 1 + actuation +
//!   verification + rollback).
//! - [`Endpoint`]: per-host agent — USB monitoring, heartbeats, iSCSI
//!   target export, idle spin-down power management.
//! - [`UStoreClient`] / [`Mounted`]: the ClientLib — allocation, lookup
//!   and auto-remounting block devices.
//! - [`UStoreSystem`]: a whole-deployment harness with failure injection.
//! - [`HealthWatchdog`]: telemetry-driven degradation detection that
//!   escalates drifting disks into the failover/reconfiguration path
//!   before they fail hard.
//!
//! ## Quickstart
//!
//! ```
//! use ustore::UStoreSystem;
//! use ustore_net::BlockDevice;
//!
//! let system = UStoreSystem::prototype(42);
//! system.settle();
//! let client = system.client("app-1");
//! let sim = system.sim.clone();
//! client.allocate(&sim, "backup", 1 << 30, move |sim, space| {
//!     let space = space.expect("allocated");
//!     println!("got {} on {:?}", space.name, space.host_addr);
//! });
//! system.sim.run_until(system.sim.now() + std::time::Duration::from_secs(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod clientlib;
pub mod controller;
pub mod endpoint;
pub mod ids;
pub mod master;
pub mod messages;
pub mod meta;
pub mod sharded;
pub mod system;
pub mod watchdog;

pub use alloc::{AllocError, Allocation, Allocator, Extent};
pub use clientlib::{ClientLibConfig, ClientLibError, Mounted, UStoreClient};
pub use controller::Controller;
pub use endpoint::{Endpoint, EndpointConfig};
pub use ids::{ParseSpaceNameError, SpaceName, UnitId};
pub use master::{Master, MasterConfig, UnitConf};
pub use messages::{MasterError, SpaceInfo};
pub use meta::MetaRouter;
pub use sharded::{
    partition_world, world_of_unit, ShardedPod, ShardedPodConfig, TelemetryPlan, TracePlan,
    WorldTelemetry,
};
pub use system::{
    coord_addr, host_addr, master_addr, unit_conf_for, unit_host_addr, SystemConfig, UStoreSystem,
};
pub use watchdog::{HealthEvent, HealthSignal, HealthWatchdog, Phase, WatchdogConfig};
