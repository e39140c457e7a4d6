//! The UStore benchmark: four workloads over the pod and its simulator,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! traced one. `README.md` in this package documents the workloads, the
//! metrics and which layer metric should move which end-to-end metric.

#![forbid(unsafe_code)]

pub mod io;
pub mod minijson;
pub mod procfs;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
