//! Storage allocation (the Master's `StorAlloc` metadata, §IV-A).
//!
//! Pure allocation logic, kept separate from the Master's RPC plumbing so
//! the policy is directly testable. Two placement rules come from the
//! paper: *"a physical disk is preferred to be allocated to the same
//! service, which facilitates power management"*, and *"a disk located
//! near the client ... improves locality and reduces networking
//! overhead"*.

use std::collections::BTreeMap;
use std::fmt;

use ustore_fabric::{DiskId, HostId};

use crate::ids::{SpaceName, UnitId};

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// No disk has a contiguous free extent of the requested size.
    NoSpace,
    /// The space name is not allocated.
    NoSuchSpace,
    /// Requested size is zero.
    ZeroSize,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::NoSpace => write!(f, "no disk has enough contiguous free space"),
            AllocError::NoSuchSpace => write!(f, "space is not allocated"),
            AllocError::ZeroSize => write!(f, "cannot allocate zero bytes"),
        }
    }
}

impl std::error::Error for AllocError {}

/// One allocated extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset on the disk.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Owning service (e.g. `"hdfs"`, `"backup"`).
    pub service: String,
}

#[derive(Debug, Clone)]
struct DiskSpace {
    capacity: u64,
    next_space: u32,
    extents: BTreeMap<u32, Extent>,
}

impl DiskSpace {
    /// Free bytes (total, not necessarily contiguous).
    fn free(&self) -> u64 {
        self.capacity - self.extents.values().map(|e| e.len).sum::<u64>()
    }

    /// First-fit gap of at least `size` bytes, if any.
    fn find_gap(&self, size: u64) -> Option<u64> {
        let mut cursor = 0u64;
        let mut spans: Vec<(u64, u64)> = self.extents.values().map(|e| (e.offset, e.len)).collect();
        spans.sort_unstable();
        for (off, len) in spans {
            if off.saturating_sub(cursor) >= size {
                return Some(cursor);
            }
            cursor = cursor.max(off + len);
        }
        (self.capacity.saturating_sub(cursor) >= size).then_some(cursor)
    }

    fn serves(&self, service: &str) -> bool {
        self.extents.values().any(|e| e.service == service)
    }
}

/// A successful allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Global name of the space.
    pub name: SpaceName,
    /// Extent on the disk.
    pub extent: Extent,
}

/// A disk that can take an allocation, as placement ranks it.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    key: (UnitId, DiskId),
    /// 2 if the disk serves the service, plus 1 if it is attached to the
    /// preferred host.
    score: i64,
    free: u64,
    /// Offset of the first gap that fits.
    gap: u64,
}

impl Candidate {
    /// Placement order, best first: highest score; among service-affine
    /// disks the fullest (least free) to keep a service's data on few
    /// spindles, otherwise the emptiest for balance; then by key. A total
    /// order, so the best candidate is unique.
    fn rank(&self, other: &Candidate) -> std::cmp::Ordering {
        other
            .score
            .cmp(&self.score)
            .then_with(|| {
                if self.score >= 2 {
                    self.free.cmp(&other.free) // pack
                } else {
                    other.free.cmp(&self.free) // balance
                }
            })
            .then_with(|| self.key.cmp(&other.key))
    }
}

/// The allocator over every registered disk.
#[derive(Debug, Clone, Default)]
pub struct Allocator {
    disks: BTreeMap<(UnitId, DiskId), DiskSpace>,
}

impl Allocator {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a disk with its capacity (idempotent).
    pub fn register_disk(&mut self, unit: UnitId, disk: DiskId, capacity: u64) {
        self.disks.entry((unit, disk)).or_insert(DiskSpace {
            capacity,
            next_space: 0,
            extents: BTreeMap::new(),
        });
    }

    /// Allocates `size` bytes for `service`.
    ///
    /// Placement preference (§IV-A): disks already serving this service
    /// first, then disks attached to `preferred_host` (a host of one
    /// unit; `attached_to` names the host a disk is attached to), then
    /// most free space.
    ///
    /// # Errors
    ///
    /// [`AllocError::ZeroSize`] or [`AllocError::NoSpace`].
    pub fn allocate(
        &mut self,
        service: &str,
        size: u64,
        attached_to: impl Fn(&(UnitId, DiskId)) -> Option<HostId>,
        preferred_host: Option<(UnitId, HostId)>,
    ) -> Result<Allocation, AllocError> {
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let mut best: Option<Candidate> = None;
        for (key, ds) in &self.disks {
            let Some(gap) = ds.find_gap(size) else {
                continue;
            };
            let mut score = 0i64;
            if ds.serves(service) {
                score += 2;
            }
            if let Some((unit, pref)) = preferred_host {
                if key.0 == unit && attached_to(key) == Some(pref) {
                    score += 1;
                }
            }
            let c = Candidate {
                key: *key,
                score,
                free: ds.free(),
                gap,
            };
            if best.as_ref().is_none_or(|b| c.rank(b).is_lt()) {
                best = Some(c);
            }
        }
        let Candidate {
            key: (unit, disk),
            gap: offset,
            ..
        } = best.ok_or(AllocError::NoSpace)?;
        let ds = self.disks.get_mut(&(unit, disk)).expect("candidate exists");
        let space = ds.next_space;
        ds.next_space += 1;
        let extent = Extent {
            offset,
            len: size,
            service: service.to_owned(),
        };
        ds.extents.insert(space, extent.clone());
        Ok(Allocation {
            name: SpaceName::new(unit, disk, space),
            extent,
        })
    }

    /// Restores an allocation read back from persistent metadata.
    pub fn restore(&mut self, name: SpaceName, extent: Extent) {
        let ds = self
            .disks
            .entry((name.unit, name.disk))
            .or_insert(DiskSpace {
                capacity: u64::MAX,
                next_space: 0,
                extents: BTreeMap::new(),
            });
        ds.next_space = ds.next_space.max(name.space + 1);
        ds.extents.insert(name.space, extent);
    }

    /// Releases an allocated space.
    ///
    /// # Errors
    ///
    /// [`AllocError::NoSuchSpace`] if the name is unknown.
    pub fn release(&mut self, name: SpaceName) -> Result<(), AllocError> {
        let ds = self
            .disks
            .get_mut(&(name.unit, name.disk))
            .ok_or(AllocError::NoSuchSpace)?;
        ds.extents
            .remove(&name.space)
            .map(|_| ())
            .ok_or(AllocError::NoSuchSpace)
    }

    /// Looks up an allocation.
    pub fn lookup(&self, name: SpaceName) -> Option<&Extent> {
        self.disks
            .get(&(name.unit, name.disk))?
            .extents
            .get(&name.space)
    }

    /// All spaces allocated on one disk.
    pub fn spaces_on(&self, unit: UnitId, disk: DiskId) -> Vec<(SpaceName, Extent)> {
        self.extents_on(unit, disk)
            .map(|(name, e)| (name, e.clone()))
            .collect()
    }

    /// The allocations on one disk, borrowed.
    pub fn extents_on(
        &self,
        unit: UnitId,
        disk: DiskId,
    ) -> impl Iterator<Item = (SpaceName, &Extent)> + '_ {
        self.disks
            .get(&(unit, disk))
            .into_iter()
            .flat_map(move |ds| {
                ds.extents
                    .iter()
                    .map(move |(s, e)| (SpaceName::new(unit, disk, *s), e))
            })
    }

    /// All disks that hold data for `service` (power-management scope).
    pub fn disks_of_service(&self, service: &str) -> Vec<(UnitId, DiskId)> {
        self.disks
            .iter()
            .filter(|(_, ds)| ds.serves(service))
            .map(|(k, _)| *k)
            .collect()
    }

    /// Free bytes on one disk.
    pub fn free_on(&self, unit: UnitId, disk: DiskId) -> Option<u64> {
        self.disks.get(&(unit, disk)).map(DiskSpace::free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;

    fn allocator(disks: u32, capacity: u64) -> Allocator {
        let mut a = Allocator::new();
        for d in 0..disks {
            a.register_disk(UnitId(0), DiskId(d), capacity);
        }
        a
    }

    fn no_attach(_: &(UnitId, DiskId)) -> Option<HostId> {
        None
    }

    #[test]
    fn allocates_and_looks_up() {
        let mut a = allocator(4, 10 * GB);
        let got = a.allocate("svc", GB, no_attach, None).expect("alloc");
        assert_eq!(got.extent.len, GB);
        assert_eq!(a.lookup(got.name).expect("lookup").service, "svc");
        assert_eq!(a.free_on(UnitId(0), got.name.disk), Some(9 * GB));
    }

    #[test]
    fn same_service_packs_on_same_disk() {
        let mut a = allocator(4, 10 * GB);
        let first = a.allocate("svc", GB, no_attach, None).expect("alloc");
        let second = a.allocate("svc", GB, no_attach, None).expect("alloc");
        assert_eq!(first.name.disk, second.name.disk, "service affinity");
        // A different service lands elsewhere (balance rule).
        let other = a.allocate("other", GB, no_attach, None).expect("alloc");
        assert_ne!(other.name.disk, first.name.disk);
    }

    #[test]
    fn locality_prefers_near_host() {
        let mut a = allocator(4, 10 * GB);
        let mut attach = BTreeMap::new();
        for d in 0..4 {
            attach.insert((UnitId(0), DiskId(d)), HostId(d / 2));
        }
        let got = a
            .allocate(
                "svc",
                GB,
                |k| attach.get(k).copied(),
                Some((UnitId(0), HostId(1))),
            )
            .expect("alloc");
        assert_eq!(attach[&(UnitId(0), got.name.disk)], HostId(1));
    }

    #[test]
    fn release_and_reuse_gap() {
        let mut a = allocator(1, 3 * GB);
        let x = a.allocate("s", GB, no_attach, None).expect("x");
        let _y = a.allocate("s", GB, no_attach, None).expect("y");
        let _z = a.allocate("s", GB, no_attach, None).expect("z");
        assert_eq!(
            a.allocate("s", GB, no_attach, None).unwrap_err(),
            AllocError::NoSpace
        );
        a.release(x.name).expect("release");
        let again = a.allocate("s", GB, no_attach, None).expect("reuse");
        assert_eq!(again.extent.offset, 0, "first-fit reuses the gap");
        assert_ne!(again.name.space, x.name.space, "space ids are not recycled");
    }

    #[test]
    fn fragmentation_respects_contiguity() {
        let mut a = allocator(1, 4 * GB);
        let x = a.allocate("s", GB, no_attach, None).expect("x");
        let _y = a.allocate("s", GB, no_attach, None).expect("y");
        let z = a.allocate("s", GB, no_attach, None).expect("z");
        a.release(x.name).expect("rel x");
        a.release(z.name).expect("rel z");
        // 3 GB free but max contiguous gap is 2 GB (tail) — the paper's
        // spaces are contiguous extents.
        assert!(a.allocate("s", GB * 5 / 2, no_attach, None).is_err());
        a.allocate("s", 2 * GB, no_attach, None)
            .expect("tail gap fits");
    }

    #[test]
    fn errors() {
        let mut a = allocator(1, GB);
        assert_eq!(
            a.allocate("s", 0, no_attach, None).unwrap_err(),
            AllocError::ZeroSize
        );
        assert_eq!(
            a.release(SpaceName::new(UnitId(0), DiskId(0), 9))
                .unwrap_err(),
            AllocError::NoSuchSpace
        );
        assert_eq!(
            a.release(SpaceName::new(UnitId(5), DiskId(0), 0))
                .unwrap_err(),
            AllocError::NoSuchSpace
        );
    }

    #[test]
    fn restore_rebuilds_state() {
        let mut a = allocator(2, 10 * GB);
        let x = a.allocate("svc", GB, no_attach, None).expect("x");
        // A new master restores from persisted metadata.
        let mut b = Allocator::new();
        b.register_disk(UnitId(0), DiskId(0), 10 * GB);
        b.register_disk(UnitId(0), DiskId(1), 10 * GB);
        b.restore(x.name, x.extent.clone());
        assert_eq!(b.lookup(x.name), Some(&x.extent));
        // Next allocation on that disk does not collide.
        let y = b.allocate("svc", GB, no_attach, None).expect("y");
        assert_eq!(y.name.disk, x.name.disk, "affinity survives restore");
        assert_ne!(y.name.space, x.name.space);
        assert_ne!(y.extent.offset, x.extent.offset);
    }

    #[test]
    fn spaces_on_and_service_scope() {
        let mut a = allocator(2, 10 * GB);
        let x = a.allocate("svc", GB, no_attach, None).expect("x");
        a.allocate("svc", GB, no_attach, None).expect("y");
        assert_eq!(a.spaces_on(UnitId(0), x.name.disk).len(), 2);
        assert_eq!(a.disks_of_service("svc"), vec![(UnitId(0), x.name.disk)]);
        assert!(a.disks_of_service("nope").is_empty());
    }
}
