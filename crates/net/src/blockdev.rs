//! The block-device abstraction exported over the network.
//!
//! UStore deliberately provides "the most basic storage interface, i.e. the
//! block device interface" (§IV-D). [`BlockDevice`] is that interface:
//! asynchronous reads and writes against a byte-addressed device. The core
//! crate implements it on top of fabric-attached disks; [`MemDevice`] is a
//! RAM-backed implementation for tests; [`Partition`] carves an allocated
//! window out of a bigger device ("a disk, a disk partition or a big file
//! in a disk", §IV-B).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use ustore_sim::Sim;

/// Errors surfaced by block devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// Access beyond the device's capacity.
    OutOfRange,
    /// The backing hardware failed or is unreachable.
    Unavailable(String),
    /// Unrecoverable medium error.
    Io(String),
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::OutOfRange => write!(f, "access beyond device capacity"),
            BlockError::Unavailable(why) => write!(f, "device unavailable: {why}"),
            BlockError::Io(why) => write!(f, "io error: {why}"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Completion callback for reads.
pub type ReadCb = Box<dyn FnOnce(&Sim, Result<Vec<u8>, BlockError>)>;
/// Completion callback for writes.
pub type WriteCb = Box<dyn FnOnce(&Sim, Result<(), BlockError>)>;

/// An asynchronous, byte-addressed block device.
///
/// Write payloads travel as one immutable shared buffer from the client
/// down to the drive: every layer passes the `Arc` on, none copies the
/// bytes (a `Vec<u8>` converts with `.into()`, without a copy).
pub trait BlockDevice {
    /// Device capacity in bytes.
    fn capacity(&self) -> u64;
    /// Reads `len` bytes at `offset`.
    fn read(&self, sim: &Sim, offset: u64, len: u64, cb: ReadCb);
    /// Writes `data` at `offset`.
    fn write(&self, sim: &Sim, offset: u64, data: Arc<Vec<u8>>, cb: WriteCb);
}

/// A RAM-backed block device with a fixed service latency (test double).
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use ustore_sim::Sim;
/// use ustore_net::{BlockDevice, MemDevice};
///
/// let sim = Sim::new(0);
/// let dev = MemDevice::new(1 << 20, Duration::from_micros(50));
/// dev.write(&sim, 0, vec![9u8; 16].into(), Box::new(|_, r| r.expect("write")));
/// dev.read(&sim, 0, 16, Box::new(|_, r| {
///     assert_eq!(r.expect("read"), vec![9u8; 16]);
/// }));
/// sim.run();
/// ```
#[derive(Clone)]
pub struct MemDevice {
    data: Rc<RefCell<Vec<u8>>>,
    latency: Duration,
}

impl fmt::Debug for MemDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemDevice")
            .field("capacity", &self.data.borrow().len())
            .finish()
    }
}

impl MemDevice {
    /// Creates a zero-filled device of `capacity` bytes.
    pub fn new(capacity: usize, latency: Duration) -> Self {
        MemDevice {
            data: Rc::new(RefCell::new(vec![0u8; capacity])),
            latency,
        }
    }
}

impl BlockDevice for MemDevice {
    fn capacity(&self) -> u64 {
        self.data.borrow().len() as u64
    }

    fn read(&self, sim: &Sim, offset: u64, len: u64, cb: ReadCb) {
        let this = self.clone();
        sim.schedule_in(self.latency, move |sim| {
            let result = {
                let data = this.data.borrow();
                let end = offset.saturating_add(len);
                if end > data.len() as u64 {
                    Err(BlockError::OutOfRange)
                } else {
                    Ok(data[offset as usize..end as usize].to_vec())
                }
            };
            cb(sim, result);
        });
    }

    fn write(&self, sim: &Sim, offset: u64, data: Arc<Vec<u8>>, cb: WriteCb) {
        let this = self.clone();
        sim.schedule_in(self.latency, move |sim| {
            let result = {
                let mut store = this.data.borrow_mut();
                let end = offset.saturating_add(data.len() as u64);
                if end > store.len() as u64 {
                    Err(BlockError::OutOfRange)
                } else {
                    store[offset as usize..end as usize].copy_from_slice(&data);
                    Ok(())
                }
            };
            cb(sim, result);
        });
    }
}

/// A window into another block device (an allocated space).
pub struct Partition {
    inner: Rc<dyn BlockDevice>,
    start: u64,
    len: u64,
}

impl fmt::Debug for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Partition")
            .field("start", &self.start)
            .field("len", &self.len)
            .finish()
    }
}

impl Partition {
    /// Creates a window of `len` bytes starting at `start` on `inner`.
    ///
    /// # Panics
    ///
    /// Panics if the window exceeds the inner device's capacity.
    pub fn new(inner: Rc<dyn BlockDevice>, start: u64, len: u64) -> Self {
        assert!(
            start.saturating_add(len) <= inner.capacity(),
            "partition window exceeds device capacity"
        );
        Partition { inner, start, len }
    }
}

impl BlockDevice for Partition {
    fn capacity(&self) -> u64 {
        self.len
    }

    fn read(&self, sim: &Sim, offset: u64, len: u64, cb: ReadCb) {
        if offset.saturating_add(len) > self.len {
            sim.schedule_now(move |sim| cb(sim, Err(BlockError::OutOfRange)));
            return;
        }
        self.inner.read(sim, self.start + offset, len, cb);
    }

    fn write(&self, sim: &Sim, offset: u64, data: Arc<Vec<u8>>, cb: WriteCb) {
        if offset.saturating_add(data.len() as u64) > self.len {
            sim.schedule_now(move |sim| cb(sim, Err(BlockError::OutOfRange)));
            return;
        }
        self.inner.write(sim, self.start + offset, data, cb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn mem_device_roundtrip_and_latency() {
        let sim = Sim::new(0);
        let dev = MemDevice::new(1024, Duration::from_micros(50));
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        dev.write(
            &sim,
            10,
            vec![1, 2, 3].into(),
            Box::new(|_, r| r.expect("write")),
        );
        dev.read(
            &sim,
            10,
            3,
            Box::new(move |sim, r| {
                assert_eq!(r.expect("read"), vec![1, 2, 3]);
                assert_eq!(sim.now().as_nanos(), 50_000);
                d.set(true);
            }),
        );
        sim.run();
        assert!(done.get());
    }

    #[test]
    fn mem_device_out_of_range() {
        let sim = Sim::new(0);
        let dev = MemDevice::new(100, Duration::ZERO);
        dev.read(
            &sim,
            90,
            20,
            Box::new(|_, r| {
                assert_eq!(r.unwrap_err(), BlockError::OutOfRange);
            }),
        );
        dev.write(
            &sim,
            99,
            vec![0; 2].into(),
            Box::new(|_, r| {
                assert_eq!(r.unwrap_err(), BlockError::OutOfRange);
            }),
        );
        sim.run();
    }

    #[test]
    fn partition_translates_and_bounds() {
        let sim = Sim::new(0);
        let base = Rc::new(MemDevice::new(1000, Duration::ZERO));
        let part = Partition::new(base.clone(), 100, 50);
        assert_eq!(part.capacity(), 50);
        part.write(
            &sim,
            0,
            vec![7u8; 10].into(),
            Box::new(|_, r| r.expect("write")),
        );
        sim.run();
        // Visible at offset 100 of the base device.
        base.read(
            &sim,
            100,
            10,
            Box::new(|_, r| {
                assert_eq!(r.expect("read"), vec![7u8; 10]);
            }),
        );
        part.read(
            &sim,
            45,
            10,
            Box::new(|_, r| {
                assert_eq!(r.unwrap_err(), BlockError::OutOfRange);
            }),
        );
        sim.run();
    }

    #[test]
    #[should_panic(expected = "exceeds device capacity")]
    fn oversized_partition_panics() {
        let base = Rc::new(MemDevice::new(100, Duration::ZERO));
        let _ = Partition::new(base, 50, 51);
    }
}
