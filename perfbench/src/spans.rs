//! The benchmark's own spans: one around each call it makes into a crate's
//! public API, stamped in both wall-clock and simulated time, kept in
//! memory and written out as Chrome-trace JSON (loadable in Perfetto) when
//! the run ends. Spans are recorded only in traced runs.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use ustore_sim::{Json, Sim};

/// Spans kept per run; later spans are counted as dropped.
const SPAN_CAP: usize = 50_000;

#[derive(Debug, Clone)]
struct Rec {
    name: &'static str,
    layer: &'static str,
    wall_start_ns: u64,
    wall_dur_ns: u64,
    sim_start_ns: u64,
    sim_dur_ns: u64,
}

/// An open asynchronous span (a call whose result arrives by callback).
#[derive(Debug, Clone, Copy)]
pub struct Open {
    name: &'static str,
    layer: &'static str,
    wall: Instant,
    sim_ns: u64,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    recs: RefCell<Vec<Rec>>,
    dropped: Cell<u64>,
}

/// Span recorder handle; cloning shares the buffer. An `off` recorder
/// records nothing and costs one branch per call.
#[derive(Debug, Clone)]
pub struct BenchSpans(Option<Rc<Inner>>);

fn sim_ns(sim: Option<&Sim>) -> u64 {
    sim.map_or(0, |s| s.now().as_nanos())
}

impl BenchSpans {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        BenchSpans(None)
    }

    /// A recording recorder.
    pub fn on() -> Self {
        BenchSpans(Some(Rc::new(Inner {
            origin: Instant::now(),
            recs: RefCell::new(Vec::new()),
            dropped: Cell::new(0),
        })))
    }

    /// Times a synchronous call. `sim` supplies the simulated clock
    /// before and after (for calls that advance it).
    pub fn time<R>(
        &self,
        layer: &'static str,
        name: &'static str,
        sim: Option<&Sim>,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(layer, name, sim);
        let r = f();
        self.close(open, sim);
        r
    }

    /// Opens a span for an asynchronous call; close it from the callback.
    pub fn open(&self, layer: &'static str, name: &'static str, sim: Option<&Sim>) -> Option<Open> {
        self.0.as_ref()?;
        Some(Open {
            name,
            layer,
            wall: Instant::now(),
            sim_ns: sim_ns(sim),
        })
    }

    /// Closes a span opened by [`BenchSpans::open`].
    pub fn close(&self, open: Option<Open>, sim: Option<&Sim>) {
        let (Some(inner), Some(open)) = (&self.0, open) else {
            return;
        };
        let mut recs = inner.recs.borrow_mut();
        if recs.len() >= SPAN_CAP {
            inner.dropped.set(inner.dropped.get() + 1);
            return;
        }
        recs.push(Rec {
            name: open.name,
            layer: open.layer,
            wall_start_ns: open.wall.saturating_duration_since(inner.origin).as_nanos() as u64,
            wall_dur_ns: open.wall.elapsed().as_nanos() as u64,
            sim_start_ns: open.sim_ns,
            sim_dur_ns: sim_ns(sim).saturating_sub(open.sim_ns),
        });
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.recs.borrow().len())
    }

    /// True when no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Chrome trace-event JSON: process 1 is the wall-clock timeline,
    /// process 2 the simulated one; one track per layer in each.
    pub fn to_chrome_json(&self) -> Json {
        let Some(inner) = &self.0 else {
            return Json::obj([("traceEvents", Json::arr([]))]);
        };
        let recs = inner.recs.borrow();
        let mut layers: Vec<&str> = recs.iter().map(|r| r.layer).collect();
        layers.sort_unstable();
        layers.dedup();
        let tid = |layer: &str| layers.iter().position(|l| *l == layer).unwrap_or(0) as u64 + 1;
        let mut events = Vec::new();
        for (pid, label) in [(1u64, "wall clock"), (2, "simulated time")] {
            events.push(Json::obj([
                ("ph", Json::str("M")),
                ("name", Json::str("process_name")),
                ("pid", Json::u64(pid)),
                ("args", Json::obj([("name", Json::str(label))])),
            ]));
            for l in &layers {
                events.push(Json::obj([
                    ("ph", Json::str("M")),
                    ("name", Json::str("thread_name")),
                    ("pid", Json::u64(pid)),
                    ("tid", Json::u64(tid(l))),
                    ("args", Json::obj([("name", Json::str(*l))])),
                ]));
            }
        }
        for r in recs.iter() {
            for (pid, start, dur) in [
                (1u64, r.wall_start_ns, r.wall_dur_ns),
                (2, r.sim_start_ns, r.sim_dur_ns),
            ] {
                events.push(Json::obj([
                    ("ph", Json::str("X")),
                    ("name", Json::str(r.name)),
                    ("cat", Json::str(r.layer)),
                    ("pid", Json::u64(pid)),
                    ("tid", Json::u64(tid(r.layer))),
                    ("ts", Json::f64(start as f64 / 1e3)),
                    ("dur", Json::f64(dur as f64 / 1e3)),
                ]));
            }
        }
        Json::obj([
            ("traceEvents", Json::arr(events)),
            ("dropped", Json::u64(inner.dropped.get())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn records_wall_and_sim_time() {
        let spans = BenchSpans::on();
        let sim = Sim::new(1);
        spans.time("sim", "run_until", Some(&sim), || {
            sim.run_until(sim.now() + Duration::from_secs(2));
        });
        assert_eq!(spans.len(), 1);
        let json = spans.to_chrome_json().to_string();
        assert!(json.contains(r#""name":"run_until""#));
        assert!(
            json.contains(r#""dur":2000000"#),
            "sim span lasts 2 s: {json}"
        );
        let off = BenchSpans::off();
        assert_eq!(off.time("sim", "x", None, || 7), 7);
        assert!(off.is_empty());
    }
}
