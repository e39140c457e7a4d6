//! Pure service-time model of one disk.
//!
//! [`IoModel::service`] maps an IO command to the time the drive (plus
//! its attachment) takes to complete it, given the stream history. It is a
//! pure, engine-independent function so that the calibration against the
//! paper's Table II can be unit-tested directly; the DES wrapper in
//! [`crate::disk`] layers queueing, power states and data storage on top.
//!
//! The model distinguishes two regimes, as the measurements do:
//!
//! - **Sequential** commands (starting exactly where the previous command
//!   ended) are absorbed by the drive's read-ahead / write-back cache: cost
//!   = per-command overhead + media streaming time, plus a turnaround
//!   penalty when the stream flips direction (drained write-back cache).
//! - **Random** commands pay mechanical positioning: a short-stroke seek
//!   (distance-dependent), half a rotation, a write-settle penalty for
//!   writes, and an attachment-dependent per-byte streaming surcharge.

use std::time::Duration;

use crate::profile::{Direction, DiskProfile};

/// Per-stream history the model needs to classify and price a command.
#[derive(Debug, Clone, Default)]
pub struct StreamState {
    /// Byte offset one past the end of the previous command, if any.
    next_offset: Option<u64>,
    /// Byte offset where the previous command started (for seek distance).
    last_offset: u64,
    /// Direction of the previous command, if any.
    last_dir: Option<Direction>,
    /// Media time of the most recent write (for the destage penalty).
    last_write_media: Duration,
}

/// Cost breakdown of one serviced command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceBreakdown {
    /// Host + link + controller per-command overhead.
    pub overhead: Duration,
    /// Seek + rotation + settle + streaming surcharge (zero when cached).
    pub positioning: Duration,
    /// Time streaming payload off/onto the platters.
    pub media: Duration,
    /// Direction-change turnaround penalty.
    pub turnaround: Duration,
}

impl ServiceBreakdown {
    /// Total service time.
    pub fn total(&self) -> Duration {
        self.overhead + self.positioning + self.media + self.turnaround
    }
}

/// The service-time model for one disk.
#[derive(Debug, Clone)]
pub struct IoModel {
    profile: DiskProfile,
    state: StreamState,
}

impl IoModel {
    /// Creates a model for the given profile with no stream history.
    pub fn new(profile: DiskProfile) -> Self {
        IoModel {
            profile,
            state: StreamState::default(),
        }
    }

    /// The configured profile.
    pub fn profile(&self) -> &DiskProfile {
        &self.profile
    }

    /// Media rate (bytes/s) at a byte offset, accounting for zoning: outer
    /// tracks stream faster than inner tracks.
    pub fn media_rate(&self, offset: u64, dir: Direction) -> f64 {
        let m = &self.profile.mech;
        let outer = match dir {
            Direction::Read => m.media_rate_read_outer,
            Direction::Write => m.media_rate_write_outer,
        };
        let frac = (offset as f64 / m.capacity_bytes as f64).clamp(0.0, 1.0);
        outer * (1.0 - (1.0 - m.inner_rate_frac) * frac)
    }

    /// Seek time for a head movement across `dist` bytes of LBA span.
    pub fn seek_time(&self, dist: u64) -> Duration {
        let m = &self.profile.mech;
        if dist == 0 {
            return Duration::ZERO;
        }
        let frac = (dist as f64 / m.capacity_bytes as f64).clamp(0.0, 1.0);
        m.seek_base + Duration::from_secs_f64(m.seek_full_extra.as_secs_f64() * frac.sqrt())
    }

    /// Average rotational wait: half a revolution.
    pub fn rotation_half(&self) -> Duration {
        Duration::from_secs_f64(60.0 / f64::from(self.profile.mech.rpm) / 2.0)
    }

    /// Prices one command and updates the stream history.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or the command exceeds the disk capacity.
    pub fn service(&mut self, offset: u64, len: u64, dir: Direction) -> ServiceBreakdown {
        assert!(len > 0, "service: zero-length command");
        assert!(
            offset.saturating_add(len) <= self.profile.mech.capacity_bytes,
            "service: command beyond capacity"
        );
        let a = &self.profile.attach;
        let sequential = self.state.next_offset == Some(offset);
        let dir_changed = self.state.last_dir.is_some_and(|d| d != dir);
        let media = Duration::from_secs_f64(len as f64 / self.media_rate(offset, dir));

        let overhead = match dir {
            Direction::Read => a.overhead_read,
            Direction::Write => a.overhead_write,
        };

        let (positioning, turnaround) = if sequential {
            // Cache-absorbed: only a turnaround penalty when the stream
            // flips, dominated by draining the write-back cache on W->R.
            let turn = if dir_changed && dir == Direction::Read {
                a.seq_turnaround
                    + Duration::from_secs_f64(
                        a.seq_destage_factor * self.state.last_write_media.as_secs_f64(),
                    )
            } else {
                Duration::ZERO
            };
            (Duration::ZERO, turn)
        } else {
            let dist = offset.abs_diff(self.state.last_offset);
            let per_byte_ns = match dir {
                Direction::Read => a.stream_cost_read_ns_per_byte,
                Direction::Write => a.stream_cost_write_ns_per_byte,
            };
            let mut pos = self.seek_time(dist)
                + self.rotation_half()
                + Duration::from_nanos((per_byte_ns * len as f64) as u64);
            if dir == Direction::Write {
                pos += self.profile.mech.write_settle;
            }
            let turn = if dir_changed {
                a.rand_turnaround
            } else {
                Duration::ZERO
            };
            (pos, turn)
        };

        self.state.next_offset = Some(offset + len);
        self.state.last_offset = offset;
        self.state.last_dir = Some(dir);
        if dir == Direction::Write {
            self.state.last_write_media = media;
        }

        ServiceBreakdown {
            overhead,
            positioning,
            media,
            turnaround,
        }
    }

    /// Forgets stream history (e.g. after a power cycle).
    pub fn reset_stream(&mut self) {
        self.state = StreamState::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Direction::{Read, Write};

    const KIB4: u64 = 4 * 1024;
    const MIB4: u64 = 4 * 1024 * 1024;
    /// Iometer-style 8 GiB test region at the start of the disk.
    const REGION: u64 = 8 * 1024 * 1024 * 1024;

    /// Runs `n` ops through the model and reports (IO/s, MB/s) like Iometer.
    fn run(
        model: &mut IoModel,
        n: usize,
        len: u64,
        random: bool,
        dir_of: impl Fn(usize) -> Direction,
    ) -> (f64, f64) {
        // Deterministic low-discrepancy offsets for the random pattern.
        let mut total = Duration::ZERO;
        let mut seq_off = 0u64;
        let mut x = 0x9E37_79B9u64;
        for i in 0..n {
            let off = if random {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x % (REGION / len)) * len
            } else {
                let o = seq_off;
                seq_off += len;
                o
            };
            total += model.service(off, len, dir_of(i)).total();
        }
        let secs = total.as_secs_f64();
        (n as f64 / secs, n as f64 * len as f64 / 1e6 / secs)
    }

    fn all_read(_: usize) -> Direction {
        Read
    }
    fn all_write(_: usize) -> Direction {
        Write
    }
    /// 50% mix with W->R transition frequency 0.25 (random-mix statistics).
    fn rrww(i: usize) -> Direction {
        if i % 4 < 2 {
            Read
        } else {
            Write
        }
    }

    fn assert_close(measured: f64, paper: f64, tol_frac: f64, what: &str) {
        let err = (measured - paper).abs() / paper;
        assert!(
            err <= tol_frac,
            "{what}: model {measured:.1} vs paper {paper:.1} ({:+.1}%)",
            100.0 * (measured - paper) / paper
        );
    }

    // ---- Table II, SATA row -------------------------------------------

    #[test]
    fn table2_sata_4k_seq() {
        let mut m = IoModel::new(DiskProfile::sata());
        let (iops, _) = run(&mut m, 4000, KIB4, false, all_read);
        assert_close(iops, 13378.0, 0.03, "SATA 4K seq 100% read");
        let mut m = IoModel::new(DiskProfile::sata());
        let (iops, _) = run(&mut m, 4000, KIB4, false, all_write);
        assert_close(iops, 11211.0, 0.03, "SATA 4K seq 0% read");
        let mut m = IoModel::new(DiskProfile::sata());
        let (iops, _) = run(&mut m, 4000, KIB4, false, rrww);
        assert_close(iops, 8066.0, 0.05, "SATA 4K seq 50% read");
    }

    #[test]
    fn table2_sata_4k_rand() {
        let mut m = IoModel::new(DiskProfile::sata());
        let (iops, _) = run(&mut m, 2000, KIB4, true, all_read);
        assert_close(iops, 191.9, 0.05, "SATA 4K rand 100% read");
        let mut m = IoModel::new(DiskProfile::sata());
        let (iops, _) = run(&mut m, 2000, KIB4, true, all_write);
        assert_close(iops, 86.9, 0.05, "SATA 4K rand 0% read");
        let mut m = IoModel::new(DiskProfile::sata());
        let (iops, _) = run(&mut m, 2000, KIB4, true, rrww);
        assert_close(iops, 105.4, 0.08, "SATA 4K rand 50% read");
    }

    #[test]
    fn table2_sata_4m_seq() {
        let mut m = IoModel::new(DiskProfile::sata());
        let (_, mbs) = run(&mut m, 400, MIB4, false, all_read);
        assert_close(mbs, 184.8, 0.03, "SATA 4M seq 100% read");
        let mut m = IoModel::new(DiskProfile::sata());
        let (_, mbs) = run(&mut m, 400, MIB4, false, all_write);
        assert_close(mbs, 180.2, 0.03, "SATA 4M seq 0% read");
        let mut m = IoModel::new(DiskProfile::sata());
        let (_, mbs) = run(&mut m, 400, MIB4, false, rrww);
        assert_close(mbs, 105.7, 0.05, "SATA 4M seq 50% read");
    }

    #[test]
    fn table2_sata_4m_rand() {
        let mut m = IoModel::new(DiskProfile::sata());
        let (_, mbs) = run(&mut m, 400, MIB4, true, all_read);
        assert_close(mbs, 129.1, 0.05, "SATA 4M rand 100% read");
        let mut m = IoModel::new(DiskProfile::sata());
        let (_, mbs) = run(&mut m, 400, MIB4, true, all_write);
        assert_close(mbs, 57.5, 0.05, "SATA 4M rand 0% read");
        let mut m = IoModel::new(DiskProfile::sata());
        let (_, mbs) = run(&mut m, 400, MIB4, true, rrww);
        assert_close(mbs, 78.7, 0.08, "SATA 4M rand 50% read");
    }

    // ---- Table II, USB row --------------------------------------------

    #[test]
    fn table2_usb_4k_seq() {
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (iops, _) = run(&mut m, 4000, KIB4, false, all_read);
        assert_close(iops, 5380.0, 0.03, "USB 4K seq 100% read");
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (iops, _) = run(&mut m, 4000, KIB4, false, all_write);
        assert_close(iops, 6166.0, 0.03, "USB 4K seq 0% read");
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (iops, _) = run(&mut m, 4000, KIB4, false, rrww);
        assert_close(iops, 4294.0, 0.05, "USB 4K seq 50% read");
    }

    #[test]
    fn table2_usb_4k_rand() {
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (iops, _) = run(&mut m, 2000, KIB4, true, all_read);
        assert_close(iops, 189.0, 0.05, "USB 4K rand 100% read");
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (iops, _) = run(&mut m, 2000, KIB4, true, all_write);
        assert_close(iops, 85.2, 0.05, "USB 4K rand 0% read");
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (iops, _) = run(&mut m, 2000, KIB4, true, rrww);
        assert_close(iops, 105.2, 0.10, "USB 4K rand 50% read");
    }

    #[test]
    fn table2_usb_4m_seq() {
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (_, mbs) = run(&mut m, 400, MIB4, false, all_read);
        assert_close(mbs, 185.8, 0.03, "USB 4M seq 100% read");
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (_, mbs) = run(&mut m, 400, MIB4, false, all_write);
        assert_close(mbs, 184.0, 0.03, "USB 4M seq 0% read");
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (_, mbs) = run(&mut m, 400, MIB4, false, rrww);
        assert_close(mbs, 119.7, 0.05, "USB 4M seq 50% read");
    }

    #[test]
    fn table2_usb_4m_rand() {
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (_, mbs) = run(&mut m, 400, MIB4, true, all_read);
        assert_close(mbs, 147.9, 0.05, "USB 4M rand 100% read");
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (_, mbs) = run(&mut m, 400, MIB4, true, all_write);
        assert_close(mbs, 79.3, 0.05, "USB 4M rand 0% read");
        let mut m = IoModel::new(DiskProfile::usb_bridge());
        let (_, mbs) = run(&mut m, 400, MIB4, true, rrww);
        assert_close(mbs, 95.5, 0.10, "USB 4M rand 50% read");
    }

    // ---- Structural properties ----------------------------------------

    #[test]
    fn sequential_reads_cost_less_than_random() {
        let mut m = IoModel::new(DiskProfile::sata());
        m.service(0, KIB4, Read);
        let seq = m.service(KIB4, KIB4, Read).total();
        let rand = m.service(REGION / 2, KIB4, Read).total();
        assert!(seq < rand / 10);
    }

    #[test]
    fn inner_zone_is_slower() {
        let m = IoModel::new(DiskProfile::sata());
        let outer = m.media_rate(0, Read);
        let inner = m.media_rate(m.profile().mech.capacity_bytes - 1, Read);
        assert!((inner / outer - 0.55).abs() < 0.01);
    }

    #[test]
    fn seek_grows_with_distance() {
        let m = IoModel::new(DiskProfile::sata());
        assert_eq!(m.seek_time(0), Duration::ZERO);
        let near = m.seek_time(1 << 20);
        let far = m.seek_time(m.profile().mech.capacity_bytes / 2);
        assert!(near < far);
        assert!(far < Duration::from_millis(10));
    }

    #[test]
    fn full_stroke_random_is_slower_than_short_stroke() {
        // Full-disk random 4K reads should be clearly slower than the 8 GiB
        // short-stroke region the paper tests (the model must extrapolate).
        let mut short = IoModel::new(DiskProfile::sata());
        let mut t_short = Duration::ZERO;
        let mut t_full = Duration::ZERO;
        let mut full = IoModel::new(DiskProfile::sata());
        let cap = full.profile().mech.capacity_bytes;
        let mut x = 12345u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            t_short += short
                .service((x % (REGION / KIB4)) * KIB4, KIB4, Read)
                .total();
            t_full += full
                .service(
                    (x % (cap / KIB4 / 2)) * KIB4 * 2 / 2 * 2 % (cap - KIB4),
                    KIB4,
                    Read,
                )
                .total();
        }
        assert!(
            t_full > t_short * 3 / 2,
            "full {t_full:?} short {t_short:?}"
        );
    }

    #[test]
    fn reset_stream_forgets_sequentiality() {
        let mut m = IoModel::new(DiskProfile::sata());
        m.service(0, KIB4, Read);
        m.reset_stream();
        let b = m.service(KIB4, KIB4, Read);
        assert!(b.positioning > Duration::ZERO, "should be priced as random");
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_len_panics() {
        IoModel::new(DiskProfile::sata()).service(0, 0, Read);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn beyond_capacity_panics() {
        let mut m = IoModel::new(DiskProfile::sata());
        let cap = m.profile().mech.capacity_bytes;
        m.service(cap - 1, 2, Read);
    }
}
