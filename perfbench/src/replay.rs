//! The offline workload: a `paper_mix` trace written to `.ctr` at set-up,
//! then streamed through dense S3-FIFO, replayed keyed on an in-memory
//! prefix, and swept into a 32-point miss-ratio curve. No server runs.

use crate::spans::{SpanId, Tracer, NONE};
use crate::stats::{median, peak_rss_mb, Samples};
use crate::Outcome;
use cache_policies::registry;
use cache_sim::{replay_ctr_path, simulate_mrc, DenseWindowed, MrcConfig, DEFAULT_CHUNK_RECORDS};
use cache_trace::ctr::{write_trace, CtrReader};
use cache_trace::stream_gen::StreamSpec;
use cache_trace::Trace;
use cache_types::{Eviction, PolicyStats, Request};
use std::path::Path;
use std::time::Instant;

/// Requests in the trace and distinct objects in its Zipf core.
const REQUESTS: u64 = 10_000_000;
const OBJECTS: u64 = 1_000_000;
/// Requests of the in-memory prefix used by the keyed replay and the MRC.
const PREFIX: usize = 2_000_000;
const POLICY: &str = "S3-FIFO";
/// Reads per miss-ratio window of the streamed replay.
const WINDOW: u64 = 1_000_000;
/// Trace writes per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds of one streamed and `KEYED_PER_ROUND` keyed passes: at least
/// `MIN_ROUNDS`, for at least `ROUNDS_SHARE` of the run's seconds.
const MIN_ROUNDS: usize = 3;
const KEYED_PER_ROUND: usize = 2;
const ROUNDS_SHARE: f64 = 0.75;
/// MRC curves per run; `mrc_s` is their median.
const MRC_CURVES: usize = 2;
/// Keyed requests per span of the traced run.
const KEYED_BATCH: usize = 1024;
/// MRC grid: `capacity * k / 16` for k = 1..=32, so point 16 is the
/// replay capacity itself.
const MRC_POINTS: u64 = 32;
/// How far the traced replay's layer self times may stray from the
/// untraced replay time, as a share of it. Reported, not enforced: on a
/// shared host, back-to-back passes of one replay differ by up to ±20%.
const SELF_TIME_TOLERANCE: f64 = 0.25;
/// Untraced/traced pass pairs in the traced run.
const COMPOSED_ROUNDS: usize = 3;
/// The spans whose self times make up the composed replay.
const COMPOSED_LAYERS: [&str; 6] = [
    "ctr.open",
    "policies.dense_build",
    "ctr.read_chunk",
    "sim.slots",
    "sim.feed",
    "sim.finish",
];

/// Order-sensitive digest of an eviction sequence, for bit-for-bit
/// comparison of two replays.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct EvictionDigest(u64);

impl EvictionDigest {
    fn add(&mut self, index: usize, e: &Eviction) {
        let mix = cache_ds::rng::mix64;
        self.0 = mix(self.0 ^ mix(index as u64) ^ mix(e.id.rotate_left(17) ^ u64::from(e.freq)));
    }
}

struct Keyed {
    stats: PolicyStats,
    digest: EvictionDigest,
    seconds: f64,
}

fn keyed_pass(
    trace: &Trace,
    capacity: u64,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<Keyed, String> {
    let mut policy = registry::build(POLICY, capacity, None).map_err(|e| e.to_string())?;
    let mut evs: Vec<Eviction> = Vec::with_capacity(16);
    let mut digest = EvictionDigest::default();
    let start = Instant::now();
    for (b, batch) in trace.requests.chunks(KEYED_BATCH).enumerate() {
        let t = Instant::now();
        for (i, r) in batch.iter().enumerate() {
            evs.clear();
            policy.request(r, &mut evs);
            for e in &evs {
                digest.add(b * KEYED_BATCH + i, e);
            }
        }
        tracer.record("policies.keyed_batch", parent, b as u64, t, Instant::now());
    }
    Ok(Keyed {
        stats: policy.stats(),
        digest,
        seconds: start.elapsed().as_secs_f64(),
    })
}

/// Dense S3-FIFO over the prefix's interned slots, in memory.
fn dense_pass(trace: &Trace, capacity: u64) -> Result<(PolicyStats, EvictionDigest, f64), String> {
    let dense = trace.dense();
    let mut policy = registry::build_dense(POLICY, capacity, &dense.ids)
        .map_err(|e| e.to_string())?
        .ok_or("no dense S3-FIFO")?;
    let mut digest = EvictionDigest::default();
    let t = Instant::now();
    let mut w = DenseWindowed::new(WINDOW);
    w.feed(policy.as_mut(), &dense.slots, &trace.requests, true);
    let seconds = t.elapsed().as_secs_f64();
    let (result, _) = w.finish(policy.as_ref(), &trace.name);
    std::hint::black_box(result);
    // The eviction sequence, from a second replay with a callback.
    let mut check = registry::build_dense(POLICY, capacity, &dense.ids)
        .map_err(|e| e.to_string())?
        .ok_or("no dense S3-FIFO")?;
    check.replay(&dense.slots, &trace.requests, true, &mut |i, e| {
        digest.add(i, e)
    });
    Ok((policy.stats(), digest, seconds))
}

fn mrc_grid(capacity: u64) -> Vec<u64> {
    (1..=MRC_POINTS)
        .map(|k| (capacity * k / 16).max(1))
        .collect()
}

/// The correctness checks on the prefix: keyed and dense S3-FIFO agree bit
/// for bit, and the MRC point at the replay capacity equals the
/// single-capacity replay.
fn check_prefix(
    out: &mut Outcome,
    keyed: &Keyed,
    dense: &(PolicyStats, EvictionDigest, f64),
    mrc: &cache_sim::MrcResult,
    capacity: u64,
) {
    if keyed.stats != dense.0 || keyed.digest != dense.1 {
        out.violations.push(format!(
            "keyed and dense S3-FIFO disagree on the prefix: {:?} vs {:?}",
            keyed.stats, dense.0
        ));
    }
    match mrc.points.iter().find(|p| p.capacity == capacity) {
        Some(p)
            if p.requests == keyed.stats.gets
                && p.misses == keyed.stats.misses
                && p.evictions == keyed.stats.evictions => {}
        other => out.violations.push(format!(
            "MRC point at capacity {capacity} ({other:?}) differs from the replay ({:?})",
            keyed.stats
        )),
    }
}

fn read_prefix(path: &Path) -> Result<Trace, String> {
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let mut reader = CtrReader::open(file).map_err(|e| e.to_string())?;
    let mut reqs: Vec<Request> = Vec::new();
    reader
        .read_chunk(&mut reqs, PREFIX)
        .map_err(|e| e.to_string())?;
    Ok(Trace::new("paper-mix-prefix", reqs))
}

pub fn run(dir: &Path, seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tracer.enter("replay.run", NONE, 0);
    let path = dir.join(format!("replay-{seed}.ctr"));
    let spec = StreamSpec::paper_mix(REQUESTS, OBJECTS, seed);

    let reps = if tracer.enabled() { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut info = None;
    for _ in 0..reps {
        let span = tracer.enter("stream_gen.write", root, 0);
        let t = Instant::now();
        info = Some(
            spec.write_path(&path)
                .map_err(|e| format!("writing the trace: {e}"))?,
        );
        setup.push(t.elapsed().as_secs_f64());
        tracer.exit(span);
    }
    let info = info.ok_or("no trace written")?;
    out.e2e("setup_s", median(&setup), Some(setup.len()));
    out.note(format!("set-ups: {setup:?} s"));
    let capacity = (info.id_space / 10).max(10);
    let file_mb = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64 / 1e6;
    out.note(format!(
        "trace: {} requests, id space {}, cache {capacity}, {file_mb:.1} MB",
        info.records, info.id_space
    ));

    let result = if tracer.enabled() {
        traced(
            &path, &info, capacity, setup[0], file_mb, tracer, root, &mut out,
        )
    } else {
        untraced(&path, &info, capacity, seconds, &mut out)
    };
    let _ = std::fs::remove_file(&path);
    result?;
    tracer.exit(root);
    out.e2e("peak_rss_mb", peak_rss_mb(), None);
    Ok(out)
}

/// The streamed replay composed from its public parts, each in a span:
/// `.ctr` open and decode, slot mapping, the dense policy loop, and the
/// result. Returns the result and the number of chunks read.
fn composed_pass(
    path: &Path,
    info: &cache_trace::ctr::CtrInfo,
    capacity: u64,
    tracer: &mut Tracer,
    root: SpanId,
    round: usize,
) -> Result<(cache_sim::SimResult, u64), String> {
    let top = tracer.enter("replay.composed", root, round as u64);
    let span = tracer.enter("ctr.open", top, 0);
    let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let mut reader = CtrReader::open(file).map_err(|e| e.to_string())?;
    tracer.exit(span);
    let span = tracer.enter("policies.dense_build", top, 0);
    let domain = usize::try_from(info.id_space).map_err(|e| e.to_string())?;
    let mut policy = registry::build_dense_domain(POLICY, capacity, domain)
        .map_err(|e| e.to_string())?
        .ok_or("no dense S3-FIFO")?;
    let mut w = DenseWindowed::new(WINDOW);
    tracer.exit(span);
    let mut reqs: Vec<Request> = Vec::new();
    let mut slots: Vec<u32> = Vec::new();
    let mut chunks = 0u64;
    loop {
        let span = tracer.enter("ctr.read_chunk", top, chunks);
        let n = reader
            .read_chunk(&mut reqs, DEFAULT_CHUNK_RECORDS)
            .map_err(|e| e.to_string())?;
        tracer.exit(span);
        if n == 0 {
            break;
        }
        let span = tracer.enter("sim.slots", top, chunks);
        slots.clear();
        slots.extend(reqs.iter().map(|r| r.id as u32));
        tracer.exit(span);
        let span = tracer.enter("sim.feed", top, chunks);
        w.feed(policy.as_mut(), &slots, &reqs, true);
        tracer.exit(span);
        chunks += 1;
    }
    let span = tracer.enter("sim.finish", top, 0);
    let (result, _) = w.finish(policy.as_ref(), "paper-mix");
    tracer.exit(span);
    tracer.exit(top);
    Ok((result, chunks))
}

fn streamed(path: &Path, capacity: u64) -> Result<(cache_sim::StreamReplay, f64), String> {
    let t = Instant::now();
    let r = replay_ctr_path(
        POLICY,
        path,
        "paper-mix",
        capacity,
        true,
        WINDOW,
        DEFAULT_CHUNK_RECORDS,
    )
    .map_err(|e| format!("streamed replay: {e}"))?;
    Ok((r, t.elapsed().as_secs_f64()))
}

fn untraced(
    path: &Path,
    info: &cache_trace::ctr::CtrInfo,
    capacity: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let trace = read_prefix(path)?;
    let mut tracer = Tracer::new(false);
    // Streamed and keyed passes alternate for most of the run, so each
    // median samples the whole run, not one stretch of a shared host.
    let mut streamed_s = Vec::new();
    let mut keyed = Vec::new();
    let mut first: Option<cache_sim::SimResult> = None;
    let start = Instant::now();
    while streamed_s.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < ROUNDS_SHARE * seconds {
        let (r, t) = streamed(path, capacity)?;
        streamed_s.push(t);
        match &first {
            None => first = Some(r.result),
            Some(f) if (r.result.misses, r.result.evictions) != (f.misses, f.evictions) => {
                out.violations
                    .push("streamed replays of one file disagree".into());
            }
            Some(_) => {}
        }
        for _ in 0..KEYED_PER_ROUND {
            keyed.push(keyed_pass(&trace, capacity, &mut tracer, NONE)?);
        }
    }
    let first = first.ok_or("no streamed replay ran")?;
    out.attempted += info.records * streamed_s.len() as u64;
    out.e2e(
        "throughput_ops_s",
        info.records as f64 / median(&streamed_s),
        Some(streamed_s.len()),
    );
    out.e2e(
        "hit_ratio",
        1.0 - first.miss_ratio,
        Some(first.requests as usize),
    );
    // Keyed time per request, one sample per pass: within a pass the time
    // per request depends on where in the trace it is (filling, then
    // evicting), so smaller batches would measure the trace, not the code.
    let mut per_req_us = Samples::default();
    for k in &keyed {
        per_req_us.push(k.seconds * 1e6 / trace.len() as f64);
    }
    out.attempted += (trace.len() * keyed.len()) as u64;
    let n = per_req_us.len();
    out.e2e(
        "latency_p50_us",
        per_req_us.quantile(0.5).unwrap_or(0.0),
        Some(n),
    );
    out.e2e(
        "latency_p90_us",
        per_req_us.quantile(0.9).unwrap_or(0.0),
        Some(n),
    );
    let keyed_s: Vec<f64> = keyed.iter().map(|k| k.seconds).collect();
    out.note(format!("streamed passes: {streamed_s:?} s"));
    out.note(format!(
        "keyed_mreq_s = {:.3} (median of {} passes over {} requests)",
        trace.len() as f64 / median(&keyed_s) / 1e6,
        keyed_s.len(),
        trace.len()
    ));

    let dense = dense_pass(&trace, capacity)?;
    let grid = mrc_grid(capacity);
    trace.dense();
    let mut mrc_s = Vec::new();
    let mut mrc = None;
    for _ in 0..MRC_CURVES {
        let t = Instant::now();
        mrc = Some(
            simulate_mrc(POLICY, &trace, &grid, &MrcConfig::default())
                .map_err(|e| e.to_string())?,
        );
        mrc_s.push(t.elapsed().as_secs_f64());
    }
    let mrc = mrc.ok_or("no MRC ran")?;
    out.attempted += (trace.len() * mrc_s.len()) as u64;
    out.note(format!(
        "mrc_s = {:.4} s (median of {} {MRC_POINTS}-point curves over {} requests)",
        median(&mrc_s),
        mrc_s.len(),
        trace.len()
    ));
    check_prefix(out, &keyed[0], &dense, &mrc, capacity);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn traced(
    path: &Path,
    info: &cache_trace::ctr::CtrInfo,
    capacity: u64,
    write_s: f64,
    file_mb: f64,
    tracer: &mut Tracer,
    root: SpanId,
    out: &mut Outcome,
) -> Result<(), String> {
    out.layer("stream_gen.write_s", write_s);
    out.layer("stream_gen.mb_written", file_mb);

    // Untraced passes of the library's streamed replay alternate with the
    // same replay composed from its public parts, each part in a span.
    let mut untraced = Vec::new();
    let mut chunks = 0;
    for round in 0..COMPOSED_ROUNDS {
        let (reference, t) = streamed(path, capacity)?;
        untraced.push(t);
        out.layer(
            "sim.peak_buffer_mb",
            reference.peak_buffer_bytes as f64 / 1e6,
        );
        let (composed, n) = composed_pass(path, info, capacity, tracer, root, round)?;
        chunks = n;
        out.attempted += 2 * info.records;
        if (composed.misses, composed.evictions)
            != (reference.result.misses, reference.result.evictions)
        {
            out.violations.push(format!(
                "composed replay ({} misses, {} evictions) differs from replay_ctr_path ({}, {})",
                composed.misses,
                composed.evictions,
                reference.result.misses,
                reference.result.evictions
            ));
        }
    }
    let rounds = COMPOSED_ROUNDS as f64;
    let untraced_s = untraced.iter().sum::<f64>() / rounds;
    let own = tracer.self_seconds();
    let layer = |n: &str| own.get(n).copied().unwrap_or(0.0) / rounds;
    let self_sum: f64 = COMPOSED_LAYERS.iter().map(|n| layer(n)).sum();
    let traced_s = tracer.total_seconds("replay.composed") / rounds;
    let gap = (self_sum / untraced_s - 1.0).abs();
    out.layer("ctr.read_chunk_s", layer("ctr.read_chunk"));
    out.layer(
        "ctr.mb_read",
        (info.records * u64::from(info.record_bytes)) as f64 / 1e6,
    );
    out.layer("ctr.chunks", chunks as f64);
    out.layer("sim.feed_s", layer("sim.feed"));
    out.layer("sim.finish_s", layer("sim.finish"));
    out.layer("replay.untraced_s", untraced_s);
    out.layer("replay.traced_s", traced_s);
    out.layer("replay.self_time_sum_s", self_sum);
    out.layer("replay.self_time_gap", gap);
    out.layer(
        "tracing.overhead_share",
        (traced_s - untraced_s) / untraced_s,
    );
    out.note(format!(
        "layer self times sum to {self_sum:.4} s against {untraced_s:.4} s untraced: gap {gap:.3}, {} the stated ±{SELF_TIME_TOLERANCE}",
        if gap <= SELF_TIME_TOLERANCE { "within" } else { "OUTSIDE" }
    ));

    // The prefix: interning, keyed and dense policies, in memory vs streamed.
    let trace = read_prefix(path)?;
    let span = tracer.enter("trace.intern", root, 0);
    trace.dense();
    tracer.exit(span);
    out.layer("trace.intern_s", tracer.total_seconds("trace.intern"));
    let span = tracer.enter("policies.keyed", root, 0);
    let keyed = keyed_pass(&trace, capacity, tracer, span)?;
    tracer.exit(span);
    out.attempted += trace.len() as u64;
    out.layer(
        "policies.keyed.ns_per_req",
        keyed.seconds * 1e9 / trace.len() as f64,
    );
    out.layer("policies.keyed.evictions", keyed.stats.evictions as f64);
    let dense = dense_pass(&trace, capacity)?;
    out.layer("policies.dense.evictions", dense.0.evictions as f64);
    out.layer("sim.in_memory_mreq_s", trace.len() as f64 / dense.2 / 1e6);
    let prefix_path = path.with_extension("prefix.ctr");
    let file = std::fs::File::create(&prefix_path).map_err(|e| e.to_string())?;
    let (w, _) = write_trace(&trace, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    w.into_inner().map_err(|e| e.to_string())?;
    let prefix_streamed = streamed(&prefix_path, capacity);
    let _ = std::fs::remove_file(&prefix_path);
    let (_, prefix_s) = prefix_streamed?;
    out.layer("sim.streamed_vs_in_memory", prefix_s / dense.2);

    let grid = mrc_grid(capacity);
    let span = tracer.enter("sim.mrc", root, 0);
    let mrc =
        simulate_mrc(POLICY, &trace, &grid, &MrcConfig::default()).map_err(|e| e.to_string())?;
    tracer.exit(span);
    let mrc_s = tracer.total_seconds("sim.mrc");
    out.layer(
        "sim.mrc.point_mreq_s",
        (grid.len() * trace.len()) as f64 / mrc_s / 1e6,
    );
    out.layer("sim.mrc.points", grid.len() as f64);
    out.layer("sim.mrc.curve_s", mrc_s);
    out.attempted += trace.len() as u64;
    check_prefix(out, &keyed, &dense, &mrc, capacity);
    out.layer("tracing.spans", tracer.len() as f64);
    Ok(())
}
