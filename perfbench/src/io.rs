//! The benchmark's IO generator and checker: write streams with distinct,
//! recomputable payloads, reads that are checked against the bytes they
//! must return, and the simulated-time accounting every end-to-end metric
//! is computed from.
//!
//! Every request is timed in simulated time from the instant it was due.
//! Open-loop requests are issued by engine timers exactly when due, so
//! generator lateness is zero by construction; closed-loop requests are
//! due when their predecessor completes.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use std::time::Duration;
use ustore::Mounted;
use ustore_net::BlockDevice;

use ustore_sim::{Sim, SimRng, SimTime};

use crate::spans::BenchSpans;
use crate::stats::mix;

/// Page granularity of read checks.
pub const PAGE: u64 = 4096;

/// The payload of write `gen` of stream `stream`: `len` bytes that differ
/// for every `(stream, gen)` and can be recomputed to check a read. One
/// 4 KiB pattern is repeated with each page's first word stamped with its
/// index, so building a large payload costs about a memory copy.
pub fn payload(stream: u64, gen: u64, len: u64) -> Vec<u8> {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let key = mix(stream.rotate_left(32) ^ gen);
    let page: Vec<u8> = (0..PAGE / 8)
        .flat_map(|w| key.wrapping_add(w.wrapping_mul(K)).to_le_bytes())
        .collect();
    let len = len as usize;
    let mut out = Vec::with_capacity(len);
    let mut index = 0u64;
    while out.len() < len {
        let start = out.len();
        out.extend_from_slice(&page[..page.len().min(len - start)]);
        let stamp = (key ^ index.wrapping_mul(K)).to_le_bytes();
        let n = stamp.len().min(out.len() - start);
        out[start..start + n].copy_from_slice(&stamp[..n]);
        index += 1;
    }
    out
}

/// What a read must return.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Never-written space reads as zeros.
    Zeros,
    /// `[at, at + len)` of the payload of write `gen` of `stream`.
    Payload {
        /// Stream id.
        stream: u64,
        /// Write generation.
        gen: u64,
        /// Size of the whole write.
        write_len: u64,
        /// Offset of the read inside that write.
        at: u64,
    },
}

impl Expect {
    fn holds(self, data: &[u8]) -> bool {
        match self {
            Expect::Zeros => data.iter().all(|&b| b == 0),
            Expect::Payload {
                stream,
                gen,
                write_len,
                at,
            } => {
                let p = payload(stream, gen, write_len);
                p.get(at as usize..at as usize + data.len()) == Some(data)
            }
        }
    }
}

/// Simulated-time accounting of one run's measured window.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct IoLog {
    /// Read time-to-first-byte samples, ns.
    pub read_ns: Vec<u64>,
    /// Write acknowledgement latency samples, ns.
    pub write_ns: Vec<u64>,
    /// Directory lookup latency samples, ns.
    pub lookup_ns: Vec<u64>,
    /// IO requests issued in the window.
    pub attempted: u64,
    /// IO requests that completed with an error.
    pub errors: u64,
    /// Lookups issued.
    pub lookups: u64,
    /// Lookups that failed.
    pub lookup_errors: u64,
    /// User bytes acknowledged (reads returned + writes acked).
    pub acked_bytes: u64,
    /// Reads whose bytes were checked.
    pub checked: u64,
    /// Checked reads that returned the wrong bytes.
    pub mismatches: u64,
    /// Requests still outstanding (set when the grace period ends).
    pub unfinished: u64,
    /// Simulated seconds of the measured window(s).
    pub window_s: f64,
    outstanding: u64,
}

impl IoLog {
    /// Errors plus requests not done by the end of the grace period.
    pub fn failed(&self) -> u64 {
        self.errors + self.unfinished
    }

    fn issue(&mut self, measured: bool) {
        if measured {
            self.attempted += 1;
            self.outstanding += 1;
        }
    }

    /// Accounts a completion and returns whether it is a measured
    /// success. A warm-up request only counts if it failed.
    fn complete(&mut self, measured: bool, ok: bool) -> bool {
        if measured {
            self.outstanding -= 1;
        } else if !ok {
            self.attempted += 1;
        }
        if !ok {
            self.errors += 1;
        }
        measured && ok
    }

    /// Freezes the outstanding count at the end of the grace period.
    pub fn close_grace(&mut self) {
        self.unfinished += self.outstanding;
        self.outstanding = 0;
    }

    /// Appends another window's accounting (one fresh unit per kill).
    pub fn absorb(&mut self, other: IoLog) {
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        self.lookup_ns.extend(other.lookup_ns);
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.lookups += other.lookups;
        self.lookup_errors += other.lookup_errors;
        self.acked_bytes += other.acked_bytes;
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        self.unfinished += other.unfinished + other.outstanding;
        self.window_s += other.window_s;
    }
}

/// Shared state of the generator callbacks.
#[derive(Debug, Clone)]
pub struct Io {
    /// The window's accounting.
    pub log: Rc<RefCell<IoLog>>,
    /// The benchmark's own spans.
    pub spans: BenchSpans,
    /// Requests issued before this instant are warm-up: only their
    /// errors are counted.
    pub window_start: Rc<Cell<SimTime>>,
    /// Closed-loop streams stop re-issuing at this instant.
    pub window_end: Rc<Cell<SimTime>>,
}

impl Io {
    /// Fresh accounting.
    pub fn new(spans: BenchSpans) -> Io {
        Io {
            log: Rc::new(RefCell::new(IoLog::default())),
            spans,
            window_start: Rc::new(Cell::new(SimTime::ZERO)),
            window_end: Rc::new(Cell::new(SimTime::MAX)),
        }
    }

    /// Issues a read of `len` bytes at `offset`, timed from now, checked
    /// against `expect`. `done` runs after accounting, with success.
    pub fn read(
        &self,
        sim: &Sim,
        dev: &Mounted,
        offset: u64,
        len: u64,
        expect: Expect,
        done: impl FnOnce(&Sim, bool) + 'static,
    ) {
        let due = sim.now();
        let measured = due >= self.window_start.get();
        self.log.borrow_mut().issue(measured);
        let log = self.log.clone();
        let spans = self.spans.clone();
        let span = spans.open("core.clientlib", "Mounted::read", Some(sim));
        dev.read(
            sim,
            offset,
            len,
            Box::new(move |sim, r| {
                spans.close(span, Some(sim));
                let ok = r.is_ok();
                {
                    let mut l = log.borrow_mut();
                    if let (true, Ok(data)) = (l.complete(measured, ok), &r) {
                        l.read_ns
                            .push(sim.now().saturating_duration_since(due).as_nanos() as u64);
                        l.acked_bytes += data.len() as u64;
                    }
                    if let Ok(data) = &r {
                        l.checked += 1;
                        if data.len() as u64 != len || !expect.holds(data) {
                            l.mismatches += 1;
                        }
                    }
                }
                done(sim, ok);
            }),
        );
    }
}

/// A write stream: sequential writes of `write_len` bytes that wrap inside
/// a bounded region of `slots` writes, so the payload footprint held by the
/// simulated disks stays fixed however long the run.
#[derive(Debug)]
pub struct Stream {
    id: u64,
    dev: Mounted,
    base: u64,
    write_len: u64,
    slots: u64,
    next: Cell<u64>,
    /// Per slot: generation of the last write issued, and whether that
    /// write was acknowledged.
    state: RefCell<Vec<Option<(u64, bool)>>>,
}

impl Stream {
    /// A stream of `write_len`-byte writes at `base` wrapping after
    /// `slots` writes; `start` staggers the first slot.
    pub fn new(
        id: u64,
        dev: Mounted,
        base: u64,
        write_len: u64,
        slots: u64,
        start: u64,
    ) -> Rc<Stream> {
        Rc::new(Stream {
            id,
            dev,
            base,
            write_len,
            slots,
            next: Cell::new(start),
            state: RefCell::new(vec![None; slots as usize]),
        })
    }

    /// Issues the stream's next write, timed from now. `done` runs after
    /// accounting, with success.
    pub fn write_next(
        self: &Rc<Self>,
        sim: &Sim,
        io: &Io,
        done: impl FnOnce(&Sim, bool) + 'static,
    ) {
        let gen = self.next.get();
        self.next.set(gen + 1);
        let slot = gen % self.slots;
        self.state.borrow_mut()[slot as usize] = Some((gen, false));
        let due = sim.now();
        let measured = due >= io.window_start.get();
        io.log.borrow_mut().issue(measured);
        let this = self.clone();
        let log = io.log.clone();
        let spans = io.spans.clone();
        let span = spans.open("core.clientlib", "Mounted::write", Some(sim));
        self.dev.write(
            sim,
            self.base + slot * self.write_len,
            payload(self.id, gen, self.write_len),
            Box::new(move |sim, r| {
                spans.close(span, Some(sim));
                let ok = r.is_ok();
                {
                    let mut l = log.borrow_mut();
                    if l.complete(measured, ok) {
                        l.write_ns
                            .push(sim.now().saturating_duration_since(due).as_nanos() as u64);
                        l.acked_bytes += this.write_len;
                    }
                }
                if let Some(s) = this.state.borrow_mut()[slot as usize].as_mut() {
                    if s.0 == gen {
                        s.1 = ok;
                    }
                }
                done(sim, ok);
            }),
        );
    }

    /// Closed loop: keeps one write in flight until the window ends. After
    /// each completion the client thinks for a uniform random time below
    /// `think`, drawn from `rng`, so streams sharing a link do not lock
    /// into one interleaving.
    pub fn run_closed(
        self: &Rc<Self>,
        sim: &Sim,
        io: &Io,
        think: Duration,
        rng: Rc<RefCell<SimRng>>,
    ) {
        let this = self.clone();
        let io2 = io.clone();
        self.write_next(sim, io, move |sim, _| {
            if sim.now() >= io2.window_end.get() {
                return;
            }
            let pause =
                Duration::from_nanos(rng.borrow_mut().u64_below(think.as_nanos().max(1) as u64));
            sim.schedule_in(pause, move |sim| this.run_closed(sim, &io2, think, rng));
        });
    }

    /// Reads back one page of up to `samples` slots whose last write was
    /// acknowledged (always including the most recent one) and checks it
    /// against that write's payload. `pick` draws the sampled slots and
    /// the page inside each. Returns how many reads were issued.
    pub fn verify(
        self: &Rc<Self>,
        sim: &Sim,
        io: &Io,
        samples: usize,
        mut pick: impl FnMut(u64) -> u64,
    ) -> usize {
        let acked: Vec<(u64, u64)> = self
            .state
            .borrow()
            .iter()
            .enumerate()
            .filter_map(|(slot, s)| match s {
                Some((gen, true)) => Some((slot as u64, *gen)),
                _ => None,
            })
            .collect();
        if acked.is_empty() {
            return 0;
        }
        let latest = acked
            .iter()
            .max_by_key(|(_, g)| *g)
            .copied()
            .expect("non-empty");
        let mut chosen = vec![latest];
        for _ in 1..samples {
            chosen.push(acked[pick(acked.len() as u64) as usize]);
        }
        for &(slot, gen) in &chosen {
            let at = pick(self.write_len / PAGE) * PAGE;
            let expect = Expect::Payload {
                stream: self.id,
                gen,
                write_len: self.write_len,
                at,
            };
            io.read(
                sim,
                &self.dev,
                self.base + slot * self.write_len + at,
                PAGE,
                expect,
                |_, _| {},
            );
        }
        chosen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_distinct_and_recomputable() {
        let a = payload(1, 2, 4096);
        assert_eq!(a.len(), 4096);
        assert_eq!(a, payload(1, 2, 4096));
        assert_ne!(a, payload(1, 3, 4096));
        assert_ne!(a, payload(2, 2, 4096));
        let e = Expect::Payload {
            stream: 1,
            gen: 2,
            write_len: 8192,
            at: 4096,
        };
        assert!(e.holds(&payload(1, 2, 8192)[4096..]));
        assert!(!e.holds(&payload(1, 2, 8192)[..4096]));
        assert!(Expect::Zeros.holds(&[0; 16]));
    }
}
