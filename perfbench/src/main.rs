//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (with `all`, each in turn) for about `--seconds` of
//! wall time, repeating the seeded iteration and timing a few deployment
//! builds after each, and prints a human-readable report followed by one
//! JSON result line. `--trace 0` reports the end-to-end metrics; `--trace
//! 1` alternates untraced and traced iterations and reports the per-layer
//! metrics, writing the benchmark's spans as Chrome-trace JSON to
//! `perfbench/out/trace-<workload>-<seed>.json`. With `all` the result's
//! metric names carry a `<workload>/` prefix. The sharded workload runs on
//! as many engine threads as there are CPUs available.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use ustore_perfbench::procfs;
use ustore_perfbench::report::{checks, end_to_end, per_layer, result_json, Metric};
use ustore_perfbench::spans::BenchSpans;
use ustore_perfbench::workloads::{
    run, setup_sample, Opts, Outcome, Size, Workload, ALLOCS, ALLOC_BYTES,
};
use ustore_sim::Stage;

/// Counts heap allocations and requested bytes for `sim.allocs_per_event`
/// and `sim.alloc_bytes_per_io_byte`; otherwise the system allocator.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's `layout` obligations carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: `ptr`/`layout` come from `System`; the caller guarantees
        // `new_size` is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Iterations per run at least, however short `--seconds` is: the first
/// absorbs warm-up and the repeats check determinism.
const MIN_ITERATIONS: usize = 3;

/// Deployment builds timed for `setup_s` after each untraced iteration, so
/// the samples spread over the run as the iterations do.
const SETUPS_PER_ITERATION: usize = 3;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::parse(&value).ok_or(format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for x in metrics {
        let n = x.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<30} {:>16.6} {}{n}", x.name, x.value, x.unit);
    }
}

/// One workload's verdict and reported metrics.
struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Runs workload `w` for the requested time and prints its report.
fn bench(w: Workload, a: &Args, nproc: usize) -> Verdict {
    let shards = if w == Workload::MegapodSharded {
        nproc
    } else {
        1
    };
    let opts = |traced| Opts {
        seed: a.seed,
        size: Size::Full,
        traced,
        shards,
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={nproc} shards={shards}",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let (mut untraced, mut traced): (Vec<Outcome>, Vec<Outcome>) = (Vec::new(), Vec::new());
    let mut setups = Vec::new();
    while untraced.len() < MIN_ITERATIONS || start.elapsed() < budget {
        // Later iterations keep only their wall-clock figures: simulated
        // results that agree with the first share its copy, so memory does
        // not grow with the iteration count.
        let mut o = run(w, &opts(false));
        if let Some(first) = untraced.first() {
            if o.sim == first.sim {
                o.sim = Rc::clone(&first.sim);
            }
        }
        untraced.push(o);
        setups.extend((0..SETUPS_PER_ITERATION).map(|_| setup_sample(w, &opts(false))));
        if a.trace {
            let mut o = run(w, &opts(true));
            if o.sim == untraced[0].sim {
                o.sim = Rc::clone(&untraced[0].sim);
            }
            if !traced.is_empty() {
                (o.trace, o.prof, o.spans) = (None, None, BenchSpans::off());
            }
            traced.push(o);
        }
    }
    let peak_rss_mb = procfs::peak_rss_mb();

    let checks = checks(w, &untraced, &traced);
    for (name, ok) in &checks {
        println!("check {:<4} {name}", if *ok { "ok" } else { "FAIL" });
    }
    let f = &untraced[0].sim;
    println!(
        "iterations={} sim: events={} reads={} writes={} failovers={:?}",
        untraced.len(),
        f.events,
        f.io.read_ns.len(),
        f.io.write_ns.len(),
        f.failovers.iter().map(|x| x.total_s).collect::<Vec<_>>()
    );
    let round = |v: f64| (v * 1e3).round() / 1e3;
    println!(
        "run_s per iteration: {:?}",
        untraced.iter().map(|o| round(o.run_s)).collect::<Vec<_>>()
    );
    println!(
        "cpu_s per iteration: {:?}",
        untraced.iter().map(|o| round(o.cpu_s)).collect::<Vec<_>>()
    );
    println!(
        "reads slower than 1 s: {} of {}",
        f.io.read_ns
            .iter()
            .filter(|&&ns| ns > 1_000_000_000)
            .count(),
        f.io.read_ns.len()
    );
    let e2e = end_to_end(&untraced, &setups, peak_rss_mb);
    print_metrics("end-to-end (untraced):", &e2e);
    let metrics = if a.trace {
        let layer = per_layer(w, &untraced, &traced, shards, nproc);
        print_metrics("per-layer (traced):", &layer);
        if let Some(worst) = traced[0].trace.as_ref().and_then(|t| t.worst()) {
            let stages: Vec<String> = Stage::ALL
                .iter()
                .filter(|s| worst.stages[**s as usize] > 0)
                .map(|s| {
                    format!(
                        "{}={:.3}ms",
                        s.name(),
                        worst.stages[*s as usize] as f64 / 1e6
                    )
                })
                .collect();
            println!(
                "slowest {} request: ttfb={:.3}ms {}",
                worst.kind.name(),
                worst.ttfb_ns as f64 / 1e6,
                stages.join(" ")
            );
        }
        let path = format!("perfbench/out/trace-{}-{}.json", w.name(), a.seed);
        let json = traced[0].spans.to_chrome_json().to_string();
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => println!("benchmark spans: {path} ({} spans)", traced[0].spans.len()),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
        layer
    } else {
        e2e
    };
    let (attempted, failed) = untraced.iter().chain(&traced).fold((0, 0), |(n, e), o| {
        let io = &o.sim.io;
        (
            n + io.attempted + io.lookups,
            e + io.failed() + io.lookup_errors,
        )
    });
    Verdict {
        correct: checks.iter().all(|(_, ok)| *ok),
        attempted,
        failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let nproc = procfs::nproc();
    let verdicts: Vec<(Workload, Verdict)> = a
        .workloads
        .iter()
        .map(|&w| (w, bench(w, &a, nproc)))
        .collect();
    let prefix = verdicts.len() > 1;
    let metrics: Vec<(String, &Metric)> = verdicts
        .iter()
        .flat_map(|(w, v)| {
            v.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}/{}", w.name(), m.name)
                } else {
                    m.name.to_string()
                };
                (name, m)
            })
        })
        .collect();
    let json = result_json(
        verdicts.iter().all(|(_, v)| v.correct),
        verdicts.iter().map(|(_, v)| v.attempted).sum(),
        verdicts.iter().map(|(_, v)| v.failed).sum(),
        &metrics,
    );
    println!("{json}");
    ExitCode::SUCCESS
}
