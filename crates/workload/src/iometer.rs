//! Iometer-style workload generation (§VII-A).
//!
//! The paper evaluates throughput "by combining different values of three
//! parameters: transfer size, read/write mix percentage and access
//! patterns", with one Iometer worker per disk. [`AccessSpec`] is that
//! parameter triple; [`Worker`] is a closed-loop generator (one
//! outstanding IO, like the paper's default Iometer configuration) driving
//! any asynchronous target.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use ustore_disk::Direction;
use ustore_sim::{Histogram, Sim, SimRng, SimTime, Throughput};

/// One Iometer access specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessSpec {
    /// Transfer request size in bytes.
    pub request_bytes: u64,
    /// Percentage of operations that are reads (0–100).
    pub read_pct: u8,
    /// Random (true) or sequential (false) access.
    pub random: bool,
    /// Span of the target region exercised (Iometer's "maximum disk size";
    /// the paper's random numbers match an ~8 GiB test region).
    pub region_bytes: u64,
}

impl AccessSpec {
    /// Creates a spec; region defaults to 8 GiB like the calibration.
    pub fn new(request_bytes: u64, read_pct: u8, random: bool) -> Self {
        assert!(read_pct <= 100, "read percentage is 0-100");
        AccessSpec {
            request_bytes,
            read_pct,
            random,
            region_bytes: 8 * 1024 * 1024 * 1024,
        }
    }

    /// The paper's workload naming: e.g. `4K-S-R` (4 KiB, sequential,
    /// read), `4M-R-W` (4 MiB, random, write).
    pub fn label(&self) -> String {
        let size = if self.request_bytes >= 1 << 20 {
            format!("{}M", self.request_bytes >> 20)
        } else {
            format!("{}K", self.request_bytes >> 10)
        };
        let pat = if self.random { "R" } else { "S" };
        let mix = match self.read_pct {
            100 => "R".to_owned(),
            0 => "W".to_owned(),
            p => format!("{p}"),
        };
        format!("{size}-{pat}-{mix}")
    }
}

impl fmt::Display for AccessSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// An asynchronous IO target a worker can drive: issue one operation and
/// call back on completion (`Ok` payload size ignored; errors counted).
pub type IoIssuer = Rc<dyn Fn(&Sim, Direction, u64, u64, Box<dyn FnOnce(&Sim, bool)>)>;

/// Measured outcome of one worker (or a merged set).
#[derive(Debug, Clone, Default)]
pub struct WorkloadStats {
    /// Completed operations and bytes.
    pub done: Throughput,
    /// Reads only.
    pub reads: Throughput,
    /// Writes only.
    pub writes: Throughput,
    /// Failed operations.
    pub errors: u64,
    /// Per-op completion latency in nanoseconds.
    pub latency: Histogram,
    /// Measurement window.
    pub window: Duration,
}

impl WorkloadStats {
    /// Operations per second over the window.
    pub fn iops(&self) -> f64 {
        self.done.over(self.window).ops_per_sec
    }

    /// Payload megabytes per second over the window (Iometer MB/s).
    pub fn mbps(&self) -> f64 {
        self.done.over(self.window).mb_per_sec
    }

    /// Merges another worker's stats (same window).
    pub fn merge(&mut self, other: &WorkloadStats) {
        self.done.merge(other.done);
        self.reads.merge(other.reads);
        self.writes.merge(other.writes);
        self.errors += other.errors;
        self.latency.merge(&other.latency);
        self.window = self.window.max(other.window);
    }
}

struct WorkerState {
    spec: AccessSpec,
    rng: SimRng,
    next_seq: u64,
    region_start: u64,
    end_at: SimTime,
    stats: WorkloadStats,
    finished: bool,
}

/// A closed-loop Iometer worker (queue depth 1).
#[derive(Clone)]
pub struct Worker {
    inner: Rc<RefCell<WorkerState>>,
    issuer: IoIssuer,
}

impl fmt::Debug for Worker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.inner.borrow();
        f.debug_struct("Worker").field("spec", &w.spec).finish()
    }
}

impl Worker {
    /// Creates a worker over `issuer`, exercising `region_start..+region`.
    pub fn new(spec: AccessSpec, rng: SimRng, region_start: u64, issuer: IoIssuer) -> Self {
        Worker {
            inner: Rc::new(RefCell::new(WorkerState {
                spec,
                rng,
                next_seq: 0,
                region_start,
                end_at: SimTime::ZERO,
                stats: WorkloadStats::default(),
                finished: false,
            })),
            issuer,
        }
    }

    /// Runs the closed loop for `duration` of virtual time; afterwards
    /// [`Worker::stats`] holds the result.
    pub fn run(&self, sim: &Sim, duration: Duration) {
        {
            let mut w = self.inner.borrow_mut();
            w.end_at = sim.now() + duration;
            w.stats.window = duration;
        }
        self.issue_next(sim);
    }

    /// Whether the measurement window elapsed and the loop stopped.
    pub fn finished(&self) -> bool {
        self.inner.borrow().finished
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> WorkloadStats {
        self.inner.borrow().stats.clone()
    }

    fn issue_next(&self, sim: &Sim) {
        let (dir, offset, len) = {
            let mut w = self.inner.borrow_mut();
            if sim.now() >= w.end_at {
                w.finished = true;
                return;
            }
            let len = w.spec.request_bytes;
            let slots = (w.spec.region_bytes / len).max(1);
            let offset = if w.spec.random {
                w.region_start + w.rng.u64_below(slots) * len
            } else {
                let o = w.region_start + (w.next_seq % slots) * len;
                w.next_seq += 1;
                o
            };
            let dir = if w.rng.u64_below(100) < u64::from(w.spec.read_pct) {
                Direction::Read
            } else {
                Direction::Write
            };
            (dir, offset, len)
        };
        let this = self.clone();
        let started = sim.now();
        (self.issuer)(
            sim,
            dir,
            offset,
            len,
            Box::new(move |sim, ok| {
                {
                    let mut w = this.inner.borrow_mut();
                    if ok {
                        w.stats.done.complete(len);
                        match dir {
                            Direction::Read => w.stats.reads.complete(len),
                            Direction::Write => w.stats.writes.complete(len),
                        }
                        let dt = sim.now().saturating_duration_since(started);
                        w.stats.latency.record(dt.as_nanos() as u64);
                    } else {
                        w.stats.errors += 1;
                    }
                }
                this.issue_next(sim);
            }),
        );
    }
}

/// Builds an issuer over a fabric-attached disk (used by the Table II /
/// Figure 5 experiments, which measure below the network layer).
pub fn fabric_issuer(
    runtime: ustore_fabric::FabricRuntime,
    disk: ustore_fabric::DiskId,
) -> IoIssuer {
    Rc::new(move |sim, dir, offset, len, done| match dir {
        Direction::Read => {
            runtime.read(sim, disk, offset, len, move |sim, r| done(sim, r.is_ok()));
        }
        Direction::Write => {
            runtime.write(sim, disk, offset, vec![0u8; len as usize], move |sim, r| {
                done(sim, r.is_ok())
            });
        }
    })
}

/// Builds an issuer over a raw [`ustore_disk::Disk`] (no USB in the path —
/// the Table II "SATA" and bare "USB" configurations).
pub fn disk_issuer(disk: ustore_disk::Disk) -> IoIssuer {
    Rc::new(move |sim, dir, offset, len, done| match dir {
        Direction::Read => disk.read(sim, offset, len, move |sim, r| done(sim, r.is_ok())),
        Direction::Write => disk.write(sim, offset, vec![0u8; len as usize], move |sim, r| {
            done(sim, r.is_ok())
        }),
    })
}

/// Builds an issuer over any [`ustore_net::BlockDevice`] (client-level
/// workloads over mounted UStore spaces).
pub fn blockdev_issuer(dev: Rc<dyn ustore_net::BlockDevice>) -> IoIssuer {
    Rc::new(move |sim, dir, offset, len, done| match dir {
        Direction::Read => dev.read(
            sim,
            offset,
            len,
            Box::new(move |sim, r| done(sim, r.is_ok())),
        ),
        Direction::Write => dev.write(
            sim,
            offset,
            vec![0u8; len as usize].into(),
            Box::new(move |sim, r| done(sim, r.is_ok())),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ustore_disk::{Disk, DiskProfile};

    fn run_spec(spec: AccessSpec, profile: DiskProfile, secs: u64) -> WorkloadStats {
        let sim = Sim::new(71);
        let disk = Disk::new(&sim, "d", profile, false);
        let worker = Worker::new(spec, sim.fork_rng("w"), 0, disk_issuer(disk));
        worker.run(&sim, Duration::from_secs(secs));
        sim.run();
        assert!(worker.finished());
        worker.stats()
    }

    #[test]
    fn labels_match_paper_naming() {
        assert_eq!(AccessSpec::new(4096, 100, false).label(), "4K-S-R");
        assert_eq!(AccessSpec::new(4 << 20, 0, true).label(), "4M-R-W");
        assert_eq!(AccessSpec::new(4096, 50, true).label(), "4K-R-50");
    }

    #[test]
    fn sata_4k_seq_read_matches_table2() {
        let s = run_spec(AccessSpec::new(4096, 100, false), DiskProfile::sata(), 2);
        let iops = s.iops();
        assert!((iops - 13378.0).abs() / 13378.0 < 0.05, "iops {iops}");
    }

    #[test]
    fn usb_4m_rand_write_matches_table2() {
        let s = run_spec(
            AccessSpec::new(4 << 20, 0, true),
            DiskProfile::usb_bridge(),
            20,
        );
        let mbps = s.mbps();
        assert!((mbps - 79.3).abs() / 79.3 < 0.08, "mbps {mbps}");
    }

    #[test]
    fn mixed_load_counts_both_directions() {
        let s = run_spec(AccessSpec::new(4096, 50, false), DiskProfile::sata(), 1);
        assert!(s.reads.ops() > 0 && s.writes.ops() > 0);
        let frac = s.reads.ops() as f64 / s.done.ops() as f64;
        assert!((frac - 0.5).abs() < 0.05, "read fraction {frac}");
        assert_eq!(s.done.ops(), s.reads.ops() + s.writes.ops());
        assert_eq!(s.errors, 0);
        assert!(s.latency.count() > 0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let a = run_spec(AccessSpec::new(4096, 100, false), DiskProfile::sata(), 1);
        let mut b = run_spec(AccessSpec::new(4096, 100, false), DiskProfile::sata(), 1);
        let single = b.done.ops();
        b.merge(&a);
        assert_eq!(b.done.ops(), single + a.done.ops());
    }

    #[test]
    fn sequential_wraps_region() {
        // A tiny region forces wraparound without exceeding the disk.
        let sim = Sim::new(72);
        let disk = Disk::new(&sim, "d", DiskProfile::sata(), false);
        let spec = AccessSpec {
            region_bytes: 16 * 4096,
            ..AccessSpec::new(4096, 100, false)
        };
        let worker = Worker::new(spec, sim.fork_rng("w"), 0, disk_issuer(disk.clone()));
        worker.run(&sim, Duration::from_secs(1));
        sim.run();
        assert_eq!(disk.stats().errors, 0, "never out of range");
        assert!(worker.stats().done.ops() > 1000);
    }
}
