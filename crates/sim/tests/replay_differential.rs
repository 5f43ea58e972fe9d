//! One table-driven differential over every replay path.
//!
//! The reference is the keyed per-request loop (`simulate_observed`) with
//! the miss-ratio series as its observer, which records read by read. Every
//! other path must reproduce it bit for bit — counters, f64 bits, eviction
//! histograms and every series window:
//!
//! - in memory, plain (`simulate_named`);
//! - in memory, windowed (`simulate_named_windowed`);
//! - streamed from `.ctr` (`replay_ctr_windowed`) at chunk sizes 1, 777 and
//!   `DEFAULT_CHUNK_RECORDS`.
//!
//! Policies are every registry algorithm with a dense variant, plus ARC for
//! the keyed engine. Windows are 1, 999 and one longer than the trace, so
//! the dense driver both scans for window boundaries and skips the scan
//! when the rest of a chunk cannot fill the open window.

use cache_ds::{Histogram, SplitMix64};
use cache_obs::MissRatioSeries;
use cache_policies::registry::{self, ALL_ALGORITHMS};
use cache_sim::{
    replay_ctr_windowed, simulate_named, simulate_named_windowed, simulate_observed, CacheSizeSpec,
    SimConfig, SimResult, DEFAULT_CHUNK_RECORDS,
};
use cache_trace::ctr::{read_trace, write_trace, CtrReader};
use cache_trace::gen::WorkloadSpec;
use cache_trace::Trace;
use cache_types::{Op, Request};
use std::io::Cursor;

const REQUESTS: usize = 6_000;
const CHUNKS: [usize; 3] = [1, 777, DEFAULT_CHUNK_RECORDS];
const WINDOWS: [u64; 3] = [1, 999, REQUESTS as u64 + 1];

/// Get/set/delete over 600 objects with sizes 1..=100.
fn mixed_trace(seed: u64) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let reqs: Vec<Request> = (0..REQUESTS)
        .map(|_| {
            let id = rng.next_below(600);
            let op = match rng.next_below(10) {
                0 => Op::Set,
                1 => Op::Delete,
                _ => Op::Get,
            };
            Request {
                id,
                size: 1 + rng.next_below(100) as u32,
                op,
                time: 0,
            }
        })
        .collect();
    Trace::new("mixed", reqs)
}

/// A trace as `.ctr` bytes plus the trace those bytes decode to. `.ctr`
/// stores dense ids, so every in-memory path replays the decoded trace and
/// all paths see the identical request stream.
fn encoded(trace: &Trace) -> (Vec<u8>, Trace) {
    let (cursor, _) = write_trace(trace, Cursor::new(Vec::new())).expect("encode");
    let bytes = cursor.into_inner();
    let (decoded, _) = read_trace(trace.name.clone(), Cursor::new(&bytes)).expect("decode");
    (bytes, decoded)
}

/// The workloads: a pure-get Zipf trace at unit size, and a mixed-op trace
/// both with sizes honored and at unit size.
fn workloads() -> Vec<(Vec<u8>, Trace, SimConfig)> {
    let zipf = encoded(&WorkloadSpec::zipf("zipf", REQUESTS, 600, 1.0, 42).generate());
    let mixed = encoded(&mixed_trace(7));
    let cfg = |ignore_size: bool, trace: &Trace| {
        let capacity = if ignore_size {
            trace.footprint() as u64 / 10
        } else {
            trace.footprint_bytes() / 10
        };
        SimConfig {
            size: CacheSizeSpec::Bytes(capacity),
            ignore_size,
            min_objects: 0,
            floor_objects: 0,
        }
    };
    let zipf_cfg = cfg(true, &zipf.1);
    let sized_cfg = cfg(false, &mixed.1);
    let unit_cfg = cfg(true, &mixed.1);
    vec![
        (zipf.0, zipf.1, zipf_cfg),
        (mixed.0.clone(), mixed.1.clone(), sized_cfg),
        (mixed.0, mixed.1, unit_cfg),
    ]
}

fn assert_same_hist(got: &Histogram, want: &Histogram, ctx: &str) {
    assert_eq!(got.count(), want.count(), "{ctx}: count");
    assert_eq!(got.min(), want.min(), "{ctx}: min");
    assert_eq!(got.max(), want.max(), "{ctx}: max");
    assert_eq!(got.mean().to_bits(), want.mean().to_bits(), "{ctx}: mean");
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(got.quantile(q), want.quantile(q), "{ctx}: quantile {q}");
    }
}

fn assert_same(got: &SimResult, want: &SimResult, ctx: &str) {
    assert_eq!(got.algorithm, want.algorithm, "{ctx}: algorithm");
    assert_eq!(got.trace, want.trace, "{ctx}: trace");
    assert_eq!(got.capacity, want.capacity, "{ctx}: capacity");
    assert_eq!(got.requests, want.requests, "{ctx}: requests");
    assert_eq!(got.misses, want.misses, "{ctx}: misses");
    assert_eq!(got.evictions, want.evictions, "{ctx}: evictions");
    assert_eq!(
        got.miss_ratio.to_bits(),
        want.miss_ratio.to_bits(),
        "{ctx}: miss ratio"
    );
    assert_eq!(
        got.byte_miss_ratio.to_bits(),
        want.byte_miss_ratio.to_bits(),
        "{ctx}: byte miss ratio"
    );
    assert_eq!(
        got.one_hit_eviction_fraction.to_bits(),
        want.one_hit_eviction_fraction.to_bits(),
        "{ctx}: one-hit fraction"
    );
    assert_same_hist(
        &got.freq_at_eviction,
        &want.freq_at_eviction,
        &format!("{ctx}: freq"),
    );
    assert_same_hist(
        &got.eviction_age,
        &want.eviction_age,
        &format!("{ctx}: age"),
    );
}

fn assert_same_series(got: &MissRatioSeries, want: &MissRatioSeries, ctx: &str) {
    assert_eq!(
        got.points().len(),
        want.points().len(),
        "{ctx}: window count"
    );
    for (g, w) in got.points().iter().zip(want.points()) {
        assert_eq!(g, w, "{ctx}: window {}", w.window);
    }
}

/// The keyed loop, read by read: the reference every path must match.
fn reference(
    name: &str,
    trace: &Trace,
    cfg: &SimConfig,
    window: u64,
) -> (SimResult, MissRatioSeries) {
    let capacity = cfg.capacity_for(trace);
    let mut policy = registry::build(name, capacity, Some(&trace.requests)).expect("known policy");
    let mut series = MissRatioSeries::new(window);
    let result = simulate_observed(policy.as_mut(), trace, cfg.ignore_size, &mut series);
    series.finish();
    // The series mirrors the policy's own accounting.
    assert_eq!(
        series.total_requests(),
        result.requests,
        "{name}: series reads"
    );
    assert_eq!(
        series.total_misses(),
        result.misses,
        "{name}: series misses"
    );
    (result, series)
}

/// Every registry algorithm with a dense variant, plus ARC for the keyed
/// engine.
fn policies() -> Vec<&'static str> {
    let mut names: Vec<&str> = ALL_ALGORITHMS
        .iter()
        .copied()
        .filter(|name| {
            registry::build_dense_domain(name, 16, 16)
                .expect("known policy")
                .is_some()
        })
        .collect();
    names.push("ARC");
    names
}

#[test]
fn every_replay_path_matches_the_keyed_loop() {
    for (bytes, trace, cfg) in workloads() {
        let capacity = cfg.capacity_for(&trace);
        for name in policies() {
            let ctx = format!("{name} on {} (ignore_size={})", trace.name, cfg.ignore_size);
            let plain = simulate_named(name, &trace, &cfg)
                .expect("known policy")
                .expect("no min_objects filter");
            let (want, _) = reference(name, &trace, &cfg, 1);
            assert_same(&plain, &want, &format!("{ctx}, plain"));

            for window in WINDOWS {
                let (want, want_series) = reference(name, &trace, &cfg, window);
                let ctx = format!("{ctx}, window {window}");
                let (got, series) = simulate_named_windowed(name, &trace, &cfg, window)
                    .expect("known policy")
                    .expect("no min_objects filter");
                assert_same(&got, &want, &format!("{ctx}, in memory"));
                assert_same_series(&series, &want_series, &format!("{ctx}, in memory"));

                for chunk in CHUNKS {
                    let ctx = format!("{ctx}, .ctr chunk {chunk}");
                    let mut reader = CtrReader::open(Cursor::new(&bytes)).expect("open");
                    let streamed = replay_ctr_windowed(
                        name,
                        &mut reader,
                        &trace.name,
                        capacity,
                        cfg.ignore_size,
                        window,
                        chunk,
                    )
                    .expect("streamable policy");
                    assert_eq!(streamed.records, REQUESTS as u64, "{ctx}: records");
                    assert_same(&streamed.result, &want, &ctx);
                    assert_same_series(&streamed.series, &want_series, &ctx);
                }
            }
        }
    }
}
