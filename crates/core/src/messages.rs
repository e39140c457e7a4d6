//! RPC message types exchanged between UStore components.
//!
//! All messages travel over `ustore-net`'s RPC layer as `Rc<dyn Any>`
//! payloads; this module is the single place where both sides of each
//! conversation agree on the types.
//!
//! Metadata partitioning is deliberately invisible here: clients address
//! *a Master*, and the Master routes each request to the partition owning
//! the space's unit (see `crate::meta::MetaRouter`). No wire format
//! changes when the partition count does, which is what lets a
//! single-partition deployment remain byte-identical with the
//! pre-partition system.

use std::fmt;
use std::sync::Arc;

use ustore_fabric::{DiskId, HostId};
use ustore_net::Addr;

use crate::alloc::AllocError;
use crate::ids::{SpaceName, UnitId};

/// Periodic EndPoint → Master heartbeat (§IV-B), sent one way: nothing
/// answers it.
#[derive(Debug, Clone)]
pub struct Heartbeat {
    /// Which deploy unit the host serves.
    pub unit: UnitId,
    /// The reporting host.
    pub host: HostId,
    /// The host's network address (for ClientLib redirection).
    pub addr: Addr,
    /// Disks currently enumerated and usable on this host (shared with
    /// the EndPoint's cache: a beat does not copy the list).
    pub ready_disks: Arc<[DiskId]>,
    /// Monotonic sequence number.
    pub seq: u64,
}

/// Active Master → EndPoint, one way: send heartbeats here. Cast on
/// activation and to hosts whose heartbeats have gone quiet.
#[derive(Debug, Clone)]
pub struct ActiveMaster {
    /// The active Master's service address.
    pub addr: Addr,
}

/// Client → Master: allocate storage.
#[derive(Debug, Clone)]
pub struct AllocateReq {
    /// Requesting service (drives the disk-affinity rule).
    pub service: String,
    /// Bytes requested.
    pub size: u64,
    /// Client locality hint: the host address it is nearest to.
    pub near: Option<Addr>,
}

/// Client → Master: where is this space?
#[derive(Debug, Clone)]
pub struct LookupReq {
    /// The space to resolve.
    pub name: SpaceName,
}

/// Client → Master: release a space.
#[derive(Debug, Clone)]
pub struct ReleaseReq {
    /// The space to release.
    pub name: SpaceName,
}

/// Resolved location of a space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceInfo {
    /// Global name.
    pub name: SpaceName,
    /// Size in bytes.
    pub size: u64,
    /// Address of the host currently exposing it (None while failing over).
    pub host_addr: Option<Addr>,
    /// iSCSI target name.
    pub target: String,
}

/// Master-side errors surfaced to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MasterError {
    /// This master process is not the active one.
    NotActive,
    /// Allocation failed.
    Alloc(AllocError),
    /// Unknown space.
    NoSuchSpace,
    /// The metadata store is unreachable.
    MetadataUnavailable,
    /// A disk command failed: the disk is attached to no host, or its
    /// EndPoint refused or did not answer.
    Endpoint(String),
}

impl fmt::Display for MasterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MasterError::NotActive => write!(f, "not the active master"),
            MasterError::Alloc(e) => write!(f, "allocation: {e}"),
            MasterError::NoSuchSpace => write!(f, "no such space"),
            MasterError::MetadataUnavailable => write!(f, "metadata store unreachable"),
            MasterError::Endpoint(w) => write!(f, "endpoint: {w}"),
        }
    }
}

impl std::error::Error for MasterError {}

/// Master response wrappers.
pub type AllocateResp = Result<SpaceInfo, MasterError>;
/// Lookup response.
pub type LookupResp = Result<SpaceInfo, MasterError>;
/// Release response.
pub type ReleaseResp = Result<(), MasterError>;

/// Master → EndPoint: expose a space as an iSCSI target.
#[derive(Debug, Clone)]
pub struct ExposeReq {
    /// The space.
    pub name: SpaceName,
    /// Byte offset on the disk.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Master → EndPoint: withdraw a target.
#[derive(Debug, Clone)]
pub struct UnexposeReq {
    /// The space.
    pub name: SpaceName,
}

/// Master/Service → EndPoint: disk power control (§IV-F).
#[derive(Debug, Clone)]
pub struct DiskPowerReq {
    /// The deploy unit of the disk (disk ids repeat in every unit).
    pub unit: UnitId,
    /// The disk to control.
    pub disk: DiskId,
    /// Spin the disk up (`true`) or down (`false`).
    pub up: bool,
}

/// Generic ack for EndPoint commands.
pub type EndpointAck = Result<(), String>;

/// Master → Controller: plan an evacuation.
#[derive(Debug, Clone)]
pub struct PlanReq {
    /// Disks to move (a dead host's).
    pub disks: Vec<DiskId>,
    /// Live hosts to move them to.
    pub targets: Vec<HostId>,
    /// Allow still-attached hub-mates to be pulled along (proactive
    /// single-disk moves) rather than vetoing the plan (dead-host
    /// evacuation).
    pub pull_cohort: bool,
}

/// Controller's plan.
pub type PlanResp = Result<Vec<(DiskId, HostId)>, String>;

/// Master → Controller: execute a reconfiguration (§IV-C).
#[derive(Debug, Clone)]
pub struct ExecuteReq {
    /// Disk→host pairs to connect.
    pub pairs: Vec<(DiskId, HostId)>,
}

/// Controller execution outcome.
pub type ExecuteResp = Result<(), String>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_error_display() {
        assert_eq!(MasterError::NotActive.to_string(), "not the active master");
        assert_eq!(
            MasterError::Alloc(AllocError::NoSpace).to_string(),
            "allocation: no disk has enough contiguous free space"
        );
    }

    #[test]
    fn space_info_equality() {
        let a = SpaceInfo {
            name: SpaceName::new(UnitId(0), DiskId(1), 2),
            size: 10,
            host_addr: Some(Addr::new("h")),
            target: "t".into(),
        };
        assert_eq!(a, a.clone());
    }
}
