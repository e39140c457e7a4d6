//! Self-tests of the benchmark on tiny shapes: every named metric is
//! reported, finite and in its declared unit; results depend on the seed
//! and only on the seed; the phase timers tile `run_s`; the sharded
//! workload's digest does not depend on the engine thread count.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ustore_perfbench::minijson::{self, Value};
use ustore_perfbench::procfs;
use ustore_perfbench::report::{checks, end_to_end, per_layer, Metric};
use ustore_perfbench::workloads::{run, setup_sample, Opts, Outcome, Size, Workload};

fn tiny(seed: u64, traced: bool, shards: usize) -> Opts {
    Opts {
        seed,
        size: Size::Tiny,
        traced,
        shards,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark package");
    let doc = minijson::parse(&text).expect("BENCHMARK.json is valid JSON");
    let Some(Value::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                _ => panic!("{section} entry without {k}"),
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn assert_matches(section: &str, got: &[Metric]) {
    let want = declared(section);
    let have: Vec<(String, String)> = got
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        have, want,
        "{section}: reported names and units match BENCHMARK.json"
    );
    for m in got {
        assert!(m.value.is_finite(), "{} is finite, got {}", m.name, m.value);
    }
}

fn assert_tiles(o: &Outcome) {
    let gap = (o.run_s - o.phases.total()).abs();
    assert!(
        gap <= 0.05 * o.run_s,
        "phase timers {:?} sum to run_s {} within 5%",
        o.phases,
        o.run_s
    );
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let nproc = procfs::nproc();
    for w in Workload::ALL {
        let shards = if w == Workload::MegapodSharded {
            nproc
        } else {
            1
        };
        let untraced = vec![
            run(w, &tiny(7, false, shards)),
            run(w, &tiny(7, false, shards)),
        ];
        let traced = vec![run(w, &tiny(7, true, shards))];
        for o in untraced.iter().chain(&traced) {
            assert_tiles(o);
        }
        let setups = [setup_sample(w, &tiny(7, false, shards))];
        assert_matches(
            "end_to_end",
            &end_to_end(&untraced, &setups, procfs::peak_rss_mb()),
        );
        assert_matches(
            "per_layer",
            &per_layer(w, &untraced, &traced, shards, nproc),
        );
        for (name, ok) in checks(w, &untraced, &traced) {
            assert!(ok, "{}: check failed: {name}", w.name());
        }
        assert!(
            !traced[0].spans.is_empty(),
            "{}: traced run records spans",
            w.name()
        );
    }
}

#[test]
fn the_seed_decides_the_results() {
    let a = run(Workload::PodSteady, &tiny(11, false, 1));
    let b = run(Workload::PodSteady, &tiny(11, false, 1));
    let c = run(Workload::PodSteady, &tiny(12, false, 1));
    assert_eq!(a.sim, b.sim, "same seed, same simulated results");
    assert_ne!(a.sim.digest, c.sim.digest, "another seed, another digest");
}

#[test]
fn sharded_digest_does_not_depend_on_the_thread_count() {
    let one = run(Workload::MegapodSharded, &tiny(13, false, 1));
    let many = run(
        Workload::MegapodSharded,
        &tiny(13, false, procfs::nproc().max(2)),
    );
    assert_eq!(
        one.sim.digest, many.sim.digest,
        "digest at shards=1 equals shards=nproc"
    );
    assert_eq!(one.sim, many.sim, "every simulated result agrees");
}
