//! # ustore-sim — deterministic discrete-event simulation kernel
//!
//! Foundation of the UStore reproduction: a single-threaded, seeded,
//! bit-for-bit reproducible discrete-event simulator. Every hardware model
//! (USB buses, disks, the network) and every software component (Master,
//! EndPoint, Controller, ClientLib) runs as closures scheduled on a shared
//! [`Sim`] handle.
//!
//! ## Example
//!
//! ```
//! use std::time::Duration;
//! use ustore_sim::{Sim, SimTime};
//!
//! let sim = Sim::new(0xC01D_DA7A);
//! sim.schedule_in(Duration::from_secs(1), |sim| {
//!     println!("one virtual second elapsed at {}", sim.now());
//! });
//! sim.run();
//! assert_eq!(sim.now(), SimTime::from_secs(1));
//! ```
//!
//! ## Modules
//!
//! - [`time`]: virtual instants ([`SimTime`]).
//! - [`engine`]: the event queue and [`Sim`] handle.
//! - [`rng`]: seeded, forkable randomness ([`SimRng`], [`Zipf`]).
//! - [`faultgen`]: empirical fleet fault model — Weibull/bathtub drive
//!   lifetimes, latent sector errors, scrub passes, correlated failure
//!   domains — generating deterministic [`FaultSchedule`]s.
//! - [`metrics`]: counters, histograms, throughput accounting.
//! - [`obs`]: the unified [`MetricsRegistry`] every component reports into,
//!   and [`obs::timeseries`] — the [`Scraper`] sampling it over sim time.
//! - [`shard`]: conservative epoch-synchronized parallel execution of a
//!   fixed world decomposition ([`ShardCoordinator`]).
//! - [`prof`]: wall-clock profiling of the engine itself ([`Profiler`],
//!   [`TrafficMatrix`]) — phase timers, epoch statistics, Perfetto
//!   thread timelines. Off unless a run turns it on.
//! - [`span`]: causal span tracing ([`SpanTracer`]) for decomposition and
//!   causality queries.
//! - [`export`]: Prometheus exposition text and Chrome trace-event JSON.
//! - [`trace`]: structured in-memory tracing.
//! - [`json`]: dependency-free stable JSON export ([`Json`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod export;
pub mod faultgen;
pub mod hash;
pub mod intern;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod prof;
pub mod reqtrace;
pub mod rng;
pub mod shard;
pub mod span;
pub mod time;
pub mod trace;

pub use engine::{CounterHandle, EventId, GaugeHandle, HistogramHandle, Sim, TimerId};
pub use faultgen::{
    Bathtub, FaultEvent, FaultKind, FaultModelConfig, FaultSchedule, FleetShape, Weibull,
};
pub use hash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use intern::{ComponentId, KeyInterner, MetricKey};
pub use json::Json;
pub use metrics::{Counter, Histogram, Throughput, ThroughputRate};
pub use obs::timeseries::{Scraper, ScraperConfig, TimeSeries};
pub use obs::MetricsRegistry;
pub use prof::{
    Phase, ProfSnapshot, ProfTrack, Profiler, TrafficCell, TrafficMatrix, TrafficSnapshot,
    WorldProf,
};
pub use reqtrace::{
    ReqKind, ReqStamp, RequestTracer, Stage, TraceId, TraceRecord, TraceSeg, TraceSnapshot,
};
pub use rng::{SimRng, Zipf};
pub use shard::{
    canonical_merge, canonical_sort, LookaheadMatrix, Routed, ShardCoordinator, ShardWorld,
    WorldBuilder,
};
pub use span::{Span, SpanId, SpanTracer};
pub use time::SimTime;
pub use trace::{Trace, TraceEvent, TraceLevel};
