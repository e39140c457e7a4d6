//! Ring-buffered time series and the registry [`Scraper`].
//!
//! The [`MetricsRegistry`] is point-in-time: it answers "how many seeks
//! so far", never "how did seek latency evolve".
//! This module adds the time dimension. A [`Scraper`] runs as a recurring
//! simulated-time event, sampling every registry series into a
//! [`TimeSeries`] ring buffer keyed by `(component, series)`:
//!
//! - counters and gauges sample as their current value;
//! - histograms fan out into derived series (`<name>.count`, `<name>.mean`,
//!   `<name>.p50`, `<name>.p99`, `<name>.max`), so tail drift is visible
//!   sample over sample even though the histogram itself is cumulative.
//!
//! Consumers either pull (CSV export, experiment post-processing) or
//! subscribe with [`Scraper::on_scrape`] and react to each sweep — the
//! Master-side health watchdog uses the latter to turn drifting series
//! into reconfiguration decisions.
//!
//! Retention is bounded per series (ring buffer), so an arbitrarily long
//! simulation holds a sliding window, not an unbounded log.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Duration;

use crate::engine::{Sim, TimerId};
use crate::intern::MetricKey;
use crate::obs::MetricsRegistry;
use crate::time::SimTime;

/// One bounded series of `(instant, value)` samples.
///
/// # Examples
///
/// ```
/// use ustore_sim::{SimTime, TimeSeries};
///
/// let mut ts = TimeSeries::new(2);
/// ts.push(SimTime::from_secs(1), 10.0);
/// ts.push(SimTime::from_secs(2), 20.0);
/// ts.push(SimTime::from_secs(3), 30.0); // evicts the oldest
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.last(), Some((SimTime::from_secs(3), 30.0)));
/// assert_eq!(ts.delta(), Some(10.0));
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    points: VecDeque<(SimTime, f64)>,
    retention: usize,
}

impl TimeSeries {
    /// Creates an empty series keeping at most `retention` samples.
    ///
    /// # Panics
    ///
    /// Panics if `retention` is zero.
    pub fn new(retention: usize) -> Self {
        assert!(retention > 0, "time series retention must be positive");
        TimeSeries {
            points: VecDeque::new(),
            retention,
        }
    }

    /// Appends a sample, evicting the oldest when at capacity.
    pub fn push(&mut self, at: SimTime, value: f64) {
        if self.points.len() == self.retention {
            self.points.pop_front();
        }
        self.points.push_back((at, value));
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no sample is retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent sample, if any.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.back().copied()
    }

    /// Value change between the last two samples (for rate-of-change rules
    /// over cumulative counters), if at least two samples exist.
    pub fn delta(&self) -> Option<f64> {
        let n = self.points.len();
        if n < 2 {
            return None;
        }
        Some(self.points[n - 1].1 - self.points[n - 2].1)
    }

    /// Iterates retained samples oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points.iter().copied()
    }

    /// Exponentially weighted moving average over the retained window
    /// (`alpha` is the weight of each newer sample), if any samples exist.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn ewma(&self, alpha: f64) -> Option<f64> {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "ewma alpha must be in (0, 1], got {alpha}"
        );
        let mut it = self.points.iter();
        let mut acc = it.next()?.1;
        for (_, v) in it {
            acc = alpha * v + (1.0 - alpha) * acc;
        }
        Some(acc)
    }

    /// Largest retained value, if any.
    pub fn max_value(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |m, v| {
            Some(m.map_or(v, |m: f64| if v > m { v } else { m }))
        })
    }
}

/// Scraper tunables.
#[derive(Debug, Clone)]
pub struct ScraperConfig {
    /// Sampling period (simulated time).
    pub interval: Duration,
    /// Samples retained per series (ring-buffer capacity).
    pub retention: usize,
}

impl Default for ScraperConfig {
    fn default() -> Self {
        ScraperConfig {
            interval: Duration::from_millis(500),
            retention: 4096,
        }
    }
}

/// Histogram-derived sub-series appended to the histogram's name.
const HIST_FACETS: [&str; 6] = ["count", "mean", "p50", "p99", "p999", "max"];

/// Facet discriminants used in the id-keyed slot map. Counters and gauges
/// are single-valued; histograms fan out into [`HIST_FACETS`] (facet
/// `HIST_BASE + i` maps to `HIST_FACETS[i]`).
const FACET_COUNTER: u8 = 0;
const FACET_GAUGE: u8 = 1;
const HIST_BASE: u8 = 2;
/// Total facet discriminants per metric key (counter + gauge + 5 histogram
/// facets) — the width of one row in the dense slot table.
const FACETS_PER_KEY: usize = HIST_BASE as usize + HIST_FACETS.len();
/// Sentinel for "no ring buffer assigned yet" in the slot table.
const NO_SLOT: u32 = u32::MAX;

type ScrapeObserver = Box<dyn FnMut(&Sim, &Scraper)>;

struct ScraperInner {
    config: ScraperConfig,
    /// Dense `key raw → per-facet store index` table ([`NO_SLOT`] =
    /// unassigned). The sweep resolves each registry series with two array
    /// indexes — no hashing, no per-sample string allocation; names
    /// materialize only when a series is first seen.
    slots: Vec<[u32; FACETS_PER_KEY]>,
    store: Vec<TimeSeries>,
    /// `(component, series name, store index)`, sorted by name pair — the
    /// string-keyed view over `store` for lookups, CSV export and key
    /// listings. A sorted vec (not a map) so reads are allocation-free
    /// binary searches; inserts only happen the first time a series is
    /// seen.
    index: Vec<(String, String, u32)>,
    scrapes: u64,
}

/// Binary-search `index` for `(component, name)` without allocating keys.
fn find_series(
    index: &[(String, String, u32)],
    component: &str,
    name: &str,
) -> Result<usize, usize> {
    index.binary_search_by(|e| (e.0.as_str(), e.1.as_str()).cmp(&(component, name)))
}

impl ScraperInner {
    /// Appends one sample, creating the ring buffer (and its string index
    /// entry) the first time a `(key, facet)` series is seen.
    fn push_sample(
        &mut self,
        metrics: &MetricsRegistry,
        key: MetricKey,
        facet: u8,
        now: SimTime,
        value: f64,
    ) {
        let row = key.raw() as usize;
        if row >= self.slots.len() {
            self.slots.resize(row + 1, [NO_SLOT; FACETS_PER_KEY]);
        }
        let mut idx = self.slots[row][facet as usize];
        if idx == NO_SLOT {
            let (c, n) = metrics.resolve_key(key);
            let name = if facet < HIST_BASE {
                n.to_owned()
            } else {
                format!("{n}.{}", HIST_FACETS[(facet - HIST_BASE) as usize])
            };
            idx = self.store.len() as u32;
            self.store.push(TimeSeries::new(self.config.retention));
            self.slots[row][facet as usize] = idx;
            if let Err(pos) = find_series(&self.index, c, &name) {
                self.index.insert(pos, (c.to_owned(), name, idx));
            }
        }
        self.store[idx as usize].push(now, value);
    }
}

/// Samples the simulation's [`MetricsRegistry`] on a fixed simulated-time
/// cadence into per-series ring buffers.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use ustore_sim::{Scraper, ScraperConfig, Sim, SimTime};
///
/// let sim = Sim::new(7);
/// let scraper = Scraper::start(&sim, ScraperConfig::default());
/// sim.count("disk0", "disk.reads", 3);
/// sim.run_until(SimTime::from_secs(2));
/// let ts = scraper.series("disk0", "disk.reads").expect("scraped");
/// assert!(ts.len() >= 3);
/// assert_eq!(ts.last().map(|(_, v)| v), Some(3.0));
/// ```
#[derive(Clone)]
pub struct Scraper {
    inner: Rc<RefCell<ScraperInner>>,
    // Held separately so observers may re-enter series accessors.
    observers: Rc<RefCell<Vec<ScrapeObserver>>>,
    publishers: Rc<RefCell<Vec<Box<dyn Fn(&Sim)>>>>,
    timer: TimerId,
}

impl std::fmt::Debug for Scraper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let i = self.inner.borrow();
        f.debug_struct("Scraper")
            .field("interval", &i.config.interval)
            .field("series", &i.store.len())
            .field("scrapes", &i.scrapes)
            .finish()
    }
}

impl Scraper {
    /// Installs a scraper on the simulator: the first sweep runs one
    /// `interval` from now, then periodically until [`Scraper::stop`].
    pub fn start(sim: &Sim, config: ScraperConfig) -> Scraper {
        let inner = Rc::new(RefCell::new(ScraperInner {
            config: config.clone(),
            slots: Vec::new(),
            store: Vec::new(),
            index: Vec::new(),
            scrapes: 0,
        }));
        let observers: Rc<RefCell<Vec<ScrapeObserver>>> = Rc::new(RefCell::new(Vec::new()));
        // The timer closure needs the handle; tie the knot through a cell.
        let handle: Rc<RefCell<Option<Scraper>>> = Rc::new(RefCell::new(None));
        let h2 = handle.clone();
        let timer = sim.every(config.interval, config.interval, move |sim| {
            let scraper = h2.borrow().clone().expect("scraper handle set");
            scraper.scrape(sim);
        });
        let scraper = Scraper {
            inner,
            observers,
            publishers: Rc::default(),
            timer,
        };
        *handle.borrow_mut() = Some(scraper.clone());
        scraper
    }

    /// Stops the periodic sweep (already-collected samples stay readable).
    pub fn stop(&self, sim: &Sim) {
        sim.cancel_timer(self.timer);
    }

    /// Registers a callback that publishes gauges into the registry at
    /// every sweep, after the sweep settles it and before it samples.
    pub fn before_scrape(&self, publish: impl Fn(&Sim) + 'static) {
        self.publishers.borrow_mut().push(Box::new(publish));
    }

    /// Registers a callback invoked after every sweep. Callbacks may read
    /// the scraper's series but must not register further observers.
    pub fn on_scrape(&self, cb: impl FnMut(&Sim, &Scraper) + 'static) {
        self.observers.borrow_mut().push(Box::new(cb));
    }

    /// Runs one sweep immediately (also used by the periodic timer).
    ///
    /// The sweep walks the registry in place — no snapshot clone — and
    /// resolves each series by its interned [`MetricKey`], so steady-state
    /// sampling allocates nothing beyond ring-buffer growth.
    pub fn scrape(&self, sim: &Sim) {
        let now = sim.now();
        sim.settle();
        for publish in self.publishers.borrow().iter() {
            publish(sim);
        }
        sim.publish_engine_gauges();
        {
            let mut i = self.inner.borrow_mut();
            sim.with_metrics(|m| {
                for raw in 0..m.num_keys() {
                    let key = MetricKey::from_raw(raw);
                    if let Some(v) = m.counter_value(key) {
                        i.push_sample(m, key, FACET_COUNTER, now, v as f64);
                    }
                    if let Some(v) = m.gauge_value(key) {
                        i.push_sample(m, key, FACET_GAUGE, now, v);
                    }
                    if let Some(h) = m.histogram_value(key) {
                        // Order must match HIST_FACETS exactly.
                        let facets = [
                            h.count() as f64,
                            h.mean().unwrap_or(0.0),
                            h.quantile(0.5).unwrap_or(0) as f64,
                            h.quantile(0.99).unwrap_or(0) as f64,
                            h.quantile(0.999).unwrap_or(0) as f64,
                            h.max().unwrap_or(0) as f64,
                        ];
                        for (j, v) in facets.into_iter().enumerate() {
                            i.push_sample(m, key, HIST_BASE + j as u8, now, v);
                        }
                    }
                }
            });
            i.scrapes += 1;
        }
        // Inner borrow released: observers may call accessors freely.
        let observers = self.observers.clone();
        let mut obs = observers.borrow_mut();
        for cb in obs.iter_mut() {
            cb(sim, self);
        }
    }

    /// Number of sweeps performed.
    pub fn scrapes(&self) -> u64 {
        self.inner.borrow().scrapes
    }

    /// The configured sampling period.
    pub fn interval(&self) -> Duration {
        self.inner.borrow().config.interval
    }

    /// A copy of one series, if it has ever been sampled. Prefer
    /// [`Scraper::with_series`] on hot read paths — it skips the clone.
    pub fn series(&self, component: &str, name: &str) -> Option<TimeSeries> {
        self.with_series(component, name, |ts| ts.clone())
    }

    /// Applies `f` to one series in place (no clone), if it has ever been
    /// sampled.
    pub fn with_series<R>(
        &self,
        component: &str,
        name: &str,
        f: impl FnOnce(&TimeSeries) -> R,
    ) -> Option<R> {
        let i = self.inner.borrow();
        let pos = find_series(&i.index, component, name).ok()?;
        let idx = i.index[pos].2 as usize;
        Some(f(&i.store[idx]))
    }

    /// All `(component, series)` keys, sorted.
    pub fn keys(&self) -> Vec<(String, String)> {
        self.inner
            .borrow()
            .index
            .iter()
            .map(|(c, n, _)| (c.clone(), n.clone()))
            .collect()
    }

    /// CSV export of every retained sample:
    /// `component,series,t_s,value` rows, keys sorted, oldest-first within
    /// a series. Byte-stable for identical runs.
    ///
    /// This is the largest artifact a run emits (megabytes at pod scale),
    /// so it avoids the formatting machinery where it can: the
    /// `component,series,` prefix is built once per series, timestamps are
    /// formatted once per distinct scrape instant (every series samples at
    /// the same instants), and integral values — counters and most gauges —
    /// take a direct digit-writing path instead of `f64` shortest-repr
    /// formatting.
    pub fn to_csv(&self) -> String {
        let i = self.inner.borrow();
        let total: usize = i
            .index
            .iter()
            .map(|&(_, _, idx)| i.store[idx as usize].len())
            .sum();
        let mut out = String::with_capacity(64 + total * 48);
        out.push_str("component,series,t_s,value\n");
        // Every series samples at the same scrape instants, so timestamp
        // strings are formatted once per distinct instant and reused;
        // sorted-vec lookup keeps the per-row cost at a short binary search.
        let mut times: Vec<(u64, String)> = Vec::new();
        let mut prefix = String::new();
        for (c, n, idx) in &i.index {
            prefix.clear();
            prefix.push_str(c);
            prefix.push(',');
            prefix.push_str(n);
            prefix.push(',');
            // Timestamps within a series are increasing and follow the
            // shared scrape cadence, so a forward cursor into the sorted
            // cache hits on almost every row; the binary search only runs
            // when a series joins the cadence mid-run.
            let mut cursor = 0usize;
            for (at, v) in i.store[*idx as usize].iter() {
                out.push_str(&prefix);
                let ns = at.as_nanos();
                let pos = if times.get(cursor).is_some_and(|&(t, _)| t == ns) {
                    cursor
                } else {
                    match times.binary_search_by_key(&ns, |&(t, _)| t) {
                        Ok(pos) => pos,
                        Err(pos) => {
                            times.insert(pos, (ns, format!("{:.6}", at.as_secs_f64())));
                            pos
                        }
                    }
                };
                cursor = pos + 1;
                out.push_str(&times[pos].1);
                out.push(',');
                push_f64(&mut out, v);
                out.push('\n');
            }
        }
        out
    }

    /// Extracts the sub-window of one series between `from` and `to`
    /// (inclusive), as `(seconds, value)` pairs — the shape experiment
    /// post-processing wants for phase timelines.
    pub fn window(
        &self,
        component: &str,
        name: &str,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(f64, f64)> {
        self.with_series(component, name, |ts| {
            ts.iter()
                .filter(|(at, _)| *at >= from && *at <= to)
                .map(|(at, v)| (at.as_secs_f64(), v))
                .collect()
        })
        .unwrap_or_default()
    }
}

/// Appends `v` formatted exactly as `{v}` (f64 `Display`) would, taking a
/// direct digit-writing path for integral values in the exactly-representable
/// range — the common case for sampled counters — where shortest-repr float
/// formatting is several times slower.
fn push_f64(out: &mut String, v: f64) {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if v.fract() == 0.0 && v.abs() <= EXACT && !(v == 0.0 && v.is_sign_negative()) {
        let mut n = v as i64;
        if n < 0 {
            out.push('-');
            n = -n;
        }
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&buf[at..]).expect("ascii digits"));
    } else {
        let _ = write!(out, "{v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_f64_matches_float_display() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            3.5,
            -2.25,
            123456789.0,
            9_007_199_254_740_992.0,
            1.0e300,
            f64::NAN,
            f64::INFINITY,
            0.1,
        ] {
            let mut fast = String::new();
            push_f64(&mut fast, v);
            assert_eq!(fast, format!("{v}"), "mismatch for {v:?}");
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut ts = TimeSeries::new(3);
        for s in 1..=5u64 {
            ts.push(SimTime::from_secs(s), s as f64);
        }
        assert_eq!(ts.len(), 3);
        let vals: Vec<f64> = ts.iter().map(|(_, v)| v).collect();
        assert_eq!(vals, [3.0, 4.0, 5.0]);
        assert_eq!(ts.delta(), Some(1.0));
        assert_eq!(ts.max_value(), Some(5.0));
    }

    #[test]
    fn ewma_tracks_level_shift() {
        let mut ts = TimeSeries::new(64);
        for s in 0..10u64 {
            ts.push(SimTime::from_secs(s), 100.0);
        }
        let flat = ts.ewma(0.3).expect("samples");
        assert!((flat - 100.0).abs() < 1e-9);
        for s in 10..20u64 {
            ts.push(SimTime::from_secs(s), 300.0);
        }
        let shifted = ts.ewma(0.3).expect("samples");
        assert!(shifted > 250.0, "ewma follows the shift: {shifted}");
    }

    #[test]
    fn scraper_samples_counters_gauges_histograms() {
        let sim = Sim::new(1);
        let scraper = Scraper::start(
            &sim,
            ScraperConfig {
                interval: Duration::from_millis(100),
                retention: 16,
            },
        );
        sim.count("c", "ops", 5);
        sim.gauge_set("c", "level", 2.5);
        sim.observe("c", "lat", 1000);
        sim.observe("c", "lat", 3000);
        sim.run_until(SimTime::from_millis(250));
        assert_eq!(scraper.scrapes(), 2);
        assert_eq!(
            scraper.series("c", "ops").unwrap().last().map(|(_, v)| v),
            Some(5.0)
        );
        assert_eq!(
            scraper.series("c", "level").unwrap().last().map(|(_, v)| v),
            Some(2.5)
        );
        assert_eq!(
            scraper
                .series("c", "lat.count")
                .unwrap()
                .last()
                .map(|(_, v)| v),
            Some(2.0)
        );
        assert!(scraper.series("c", "lat.p99").is_some());
        assert_eq!(
            scraper
                .series("c", "lat.max")
                .unwrap()
                .last()
                .map(|(_, v)| v),
            Some(3000.0)
        );
    }

    #[test]
    fn scraper_retention_bounds_memory() {
        let sim = Sim::new(2);
        let scraper = Scraper::start(
            &sim,
            ScraperConfig {
                interval: Duration::from_millis(10),
                retention: 4,
            },
        );
        sim.count("c", "ops", 1);
        sim.run_until(SimTime::from_secs(1));
        let ts = scraper.series("c", "ops").unwrap();
        assert_eq!(ts.len(), 4, "ring buffer capped");
    }

    #[test]
    fn observers_fire_per_sweep_and_may_read_series() {
        let sim = Sim::new(3);
        let scraper = Scraper::start(
            &sim,
            ScraperConfig {
                interval: Duration::from_millis(100),
                retention: 8,
            },
        );
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s2 = seen.clone();
        scraper.on_scrape(move |_, sc| {
            s2.borrow_mut()
                .push(sc.series("c", "ops").and_then(|t| t.last()).map(|(_, v)| v));
        });
        sim.count("c", "ops", 7);
        sim.run_until(SimTime::from_millis(250));
        assert_eq!(*seen.borrow(), vec![Some(7.0), Some(7.0)]);
    }

    #[test]
    fn stop_halts_sampling() {
        let sim = Sim::new(4);
        let scraper = Scraper::start(&sim, ScraperConfig::default());
        sim.count("c", "ops", 1);
        sim.run_until(SimTime::from_secs(2));
        let before = scraper.scrapes();
        scraper.stop(&sim);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(scraper.scrapes(), before);
    }

    #[test]
    fn csv_export_lists_all_samples() {
        let sim = Sim::new(5);
        let scraper = Scraper::start(
            &sim,
            ScraperConfig {
                interval: Duration::from_millis(500),
                retention: 8,
            },
        );
        sim.count("disk0", "disk.reads", 2);
        sim.run_until(SimTime::from_secs(1));
        let csv = scraper.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("component,series,t_s,value"));
        assert!(csv.contains("disk0,disk.reads,0.500000,2"));
        // Window extraction matches the CSV contents.
        let w = scraper.window("disk0", "disk.reads", SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].1, 2.0);
    }
}
