//! A simple archival backup service — the second kind of upper-layer
//! workload the paper motivates ("file system backups and system logs",
//! §I): large sequential batches written on a schedule, rarely restored,
//! with integrity verification on restore.
//!
//! The service appends checksummed snapshots to any [`BlockDevice`]
//! (a mounted UStore space in the examples), keeps a catalog, and can
//! spin the underlying disks down between backup windows through the
//! ClientLib's power API.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use ustore_net::{BlockDevice, BlockError};
use ustore_sim::{Sim, SimTime};

/// FNV-1a 64-bit checksum (self-contained; good enough for integrity
/// verification in the simulation).
pub fn checksum(data: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_0000_01B3);
    }
    h
}

/// Catalog entry for one stored snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Snapshot label (e.g. `"2015-03-01-full"`).
    pub label: String,
    /// Byte offset on the device.
    pub offset: u64,
    /// Snapshot length.
    pub len: u64,
    /// Integrity checksum.
    pub checksum: u64,
    /// When the snapshot finished writing.
    pub written_at: SimTime,
}

/// Backup failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackupError {
    /// Device IO failed.
    Io(BlockError),
    /// The device has no room for the snapshot.
    OutOfSpace,
    /// Unknown snapshot label.
    NoSuchSnapshot,
    /// Restore read back different bytes than were written.
    CorruptSnapshot {
        /// Expected checksum.
        expected: u64,
        /// Checksum of the bytes read back.
        actual: u64,
    },
}

impl fmt::Display for BackupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackupError::Io(e) => write!(f, "io: {e}"),
            BackupError::OutOfSpace => write!(f, "archive device is full"),
            BackupError::NoSuchSnapshot => write!(f, "no such snapshot"),
            BackupError::CorruptSnapshot { expected, actual } => {
                write!(
                    f,
                    "corrupt snapshot: expected {expected:016x}, got {actual:016x}"
                )
            }
        }
    }
}

impl std::error::Error for BackupError {}

struct Archive {
    device: Rc<dyn BlockDevice>,
    next_offset: u64,
    catalog: Vec<SnapshotMeta>,
    chunk_bytes: u64,
}

/// The backup service over one archive device.
#[derive(Clone)]
pub struct BackupService {
    inner: Rc<RefCell<Archive>>,
}

impl fmt::Debug for BackupService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.inner.borrow();
        f.debug_struct("BackupService")
            .field("snapshots", &a.catalog.len())
            .field("used", &a.next_offset)
            .finish()
    }
}

impl BackupService {
    /// Creates a service writing 4 MiB chunks to `device`.
    pub fn new(device: Rc<dyn BlockDevice>) -> Self {
        BackupService {
            inner: Rc::new(RefCell::new(Archive {
                device,
                next_offset: 0,
                catalog: Vec::new(),
                chunk_bytes: 4 << 20,
            })),
        }
    }

    /// The catalog, oldest first.
    pub fn catalog(&self) -> Vec<SnapshotMeta> {
        self.inner.borrow().catalog.clone()
    }

    /// Bytes consumed on the archive device.
    pub fn used_bytes(&self) -> u64 {
        self.inner.borrow().next_offset
    }

    /// Streams `data` to the archive as snapshot `label` (sequential
    /// chunked writes — the archival access pattern).
    pub fn backup(
        &self,
        sim: &Sim,
        label: impl Into<String>,
        data: Vec<u8>,
        cb: impl FnOnce(&Sim, Result<SnapshotMeta, BackupError>) + 'static,
    ) {
        let label = label.into();
        let (offset, chunk) = {
            let mut a = self.inner.borrow_mut();
            let len = data.len() as u64;
            if a.next_offset + len > a.device.capacity() {
                drop(a);
                sim.schedule_now(move |sim| cb(sim, Err(BackupError::OutOfSpace)));
                return;
            }
            let offset = a.next_offset;
            a.next_offset += len;
            (offset, a.chunk_bytes as usize)
        };
        let sum = checksum(&data);
        let len = data.len() as u64;
        let this = self.clone();
        self.write_chunks(
            sim,
            offset,
            data,
            0,
            chunk,
            Box::new(move |sim, r| match r {
                Err(e) => cb(sim, Err(e)),
                Ok(()) => {
                    let meta = SnapshotMeta {
                        label,
                        offset,
                        len,
                        checksum: sum,
                        written_at: sim.now(),
                    };
                    this.inner.borrow_mut().catalog.push(meta.clone());
                    cb(sim, Ok(meta));
                }
            }),
        );
    }

    fn write_chunks(
        &self,
        sim: &Sim,
        base: u64,
        data: Vec<u8>,
        written: usize,
        chunk: usize,
        cb: Box<dyn FnOnce(&Sim, Result<(), BackupError>)>,
    ) {
        if written >= data.len() {
            cb(sim, Ok(()));
            return;
        }
        let end = (written + chunk).min(data.len());
        let piece = data[written..end].to_vec();
        let device = self.inner.borrow().device.clone();
        let this = self.clone();
        device.write(
            sim,
            base + written as u64,
            piece.into(),
            Box::new(move |sim, r| match r {
                Err(e) => cb(sim, Err(BackupError::Io(e))),
                Ok(()) => this.write_chunks(sim, base, data, end, chunk, cb),
            }),
        );
    }

    /// Restores snapshot `label`, verifying its checksum.
    pub fn restore(
        &self,
        sim: &Sim,
        label: &str,
        cb: impl FnOnce(&Sim, Result<Vec<u8>, BackupError>) + 'static,
    ) {
        let meta = self
            .inner
            .borrow()
            .catalog
            .iter()
            .rev()
            .find(|m| m.label == label)
            .cloned();
        let Some(meta) = meta else {
            sim.schedule_now(move |sim| cb(sim, Err(BackupError::NoSuchSnapshot)));
            return;
        };
        let chunk = self.inner.borrow().chunk_bytes as usize;
        self.read_chunks(sim, meta, Vec::new(), chunk, Box::new(cb));
    }

    fn read_chunks(
        &self,
        sim: &Sim,
        meta: SnapshotMeta,
        mut acc: Vec<u8>,
        chunk: usize,
        cb: Box<dyn FnOnce(&Sim, Result<Vec<u8>, BackupError>)>,
    ) {
        if acc.len() as u64 >= meta.len {
            let actual = checksum(&acc);
            if actual != meta.checksum {
                cb(
                    sim,
                    Err(BackupError::CorruptSnapshot {
                        expected: meta.checksum,
                        actual,
                    }),
                );
            } else {
                cb(sim, Ok(acc));
            }
            return;
        }
        let start = meta.offset + acc.len() as u64;
        let want = ((meta.len - acc.len() as u64) as usize).min(chunk);
        let device = self.inner.borrow().device.clone();
        let this = self.clone();
        device.read(
            sim,
            start,
            want as u64,
            Box::new(move |sim, r| match r {
                Err(e) => cb(sim, Err(BackupError::Io(e))),
                Ok(mut data) => {
                    acc.append(&mut data);
                    this.read_chunks(sim, meta, acc, chunk, cb);
                }
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;
    use ustore_net::MemDevice;
    use ustore_sim::Sim;

    fn service(capacity: usize) -> (Sim, BackupService) {
        let sim = Sim::new(91);
        let dev = Rc::new(MemDevice::new(capacity, Duration::from_micros(100)));
        (sim, BackupService::new(dev))
    }

    fn payload(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn backup_restore_roundtrip() {
        let (sim, svc) = service(64 << 20);
        let data = payload(10 << 20, 7);
        let expect = data.clone();
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        let svc2 = svc.clone();
        svc.backup(&sim, "full-1", data, move |sim, r| {
            let meta = r.expect("backup");
            assert_eq!(meta.len, 10 << 20);
            svc2.restore(sim, "full-1", move |_, r| {
                assert_eq!(r.expect("restore"), expect);
                o.set(true);
            });
        });
        sim.run();
        assert!(ok.get());
        assert_eq!(svc.catalog().len(), 1);
        assert_eq!(svc.used_bytes(), 10 << 20);
    }

    #[test]
    fn snapshots_append_and_latest_wins() {
        let (sim, svc) = service(64 << 20);
        let first = payload(1 << 20, 1);
        let second = payload(1 << 20, 2);
        let expect = second.clone();
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        let svc2 = svc.clone();
        svc.backup(&sim, "daily", first, move |sim, r| {
            r.expect("first");
            let svc3 = svc2.clone();
            svc2.backup(sim, "daily", second, move |sim, r| {
                r.expect("second");
                svc3.restore(sim, "daily", move |_, r| {
                    assert_eq!(r.expect("restore"), expect, "latest snapshot wins");
                    o.set(true);
                });
            });
        });
        sim.run();
        assert!(ok.get());
        assert_eq!(svc.catalog().len(), 2);
    }

    #[test]
    fn out_of_space_and_missing_label() {
        let (sim, svc) = service(1 << 20);
        svc.backup(&sim, "big", vec![0u8; 2 << 20], |_, r| {
            assert_eq!(r.unwrap_err(), BackupError::OutOfSpace);
        });
        svc.restore(&sim, "nope", |_, r| {
            assert_eq!(r.unwrap_err(), BackupError::NoSuchSnapshot);
        });
        sim.run();
    }

    #[test]
    fn corruption_is_detected() {
        let sim = Sim::new(92);
        let dev = Rc::new(MemDevice::new(8 << 20, Duration::ZERO));
        let svc = BackupService::new(dev.clone());
        let got = Rc::new(Cell::new(false));
        let g = got.clone();
        let svc2 = svc.clone();
        svc.backup(&sim, "s", payload(1 << 20, 3), move |sim, r| {
            let meta = r.expect("backup");
            // Flip a byte behind the service's back.
            dev.write(
                sim,
                meta.offset + 100,
                vec![0xFF].into(),
                Box::new(move |sim, r| {
                    r.expect("tamper");
                    svc2.restore(sim, "s", move |_, r| {
                        assert!(matches!(
                            r.unwrap_err(),
                            BackupError::CorruptSnapshot { .. }
                        ));
                        g.set(true);
                    });
                }),
            );
        });
        sim.run();
        assert!(got.get());
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum(b"archival data");
        assert_eq!(a, checksum(b"archival data"));
        assert_ne!(a, checksum(b"archival datb"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }
}
