//! The two wire workloads: an in-process `cache-server` driven open-loop
//! over two TCP connections.
//!
//! A run sets up (server start + key streams), bulk-loads the keys, and runs
//! the nominal-rate phase that gives the latency and hit-ratio figures. The
//! traced run adds a second, traced nominal phase, replays that phase's
//! exact requests through each server layer's public functions, and climbs
//! a rate ladder for the highest rate that meets the p99 limit.

use crate::spans::{SpanId, Tracer, NONE};
use crate::stats::{cpu_delta_ms, median, per_class_cost, task_cpu_ms, Samples};
use crate::wire::{self, ConnOut, Kind, Op, Status};
use crate::Outcome;
use bytes::Bytes;
use cache_concurrent::s3fifo::ConcurrentS3Fifo;
use cache_concurrent::ConcurrentCache;
use cache_ds::SplitMix64;
use cache_faults::FaultPlan;
use cache_server::proto::{encode_value, parse_frame, Limits, ParseOutcome};
use cache_server::store::{encode_payload, hash_key, StoreConfig, TtlStore};
use cache_server::{LoadShedder, Server, ServerConfig, ServerHandle, ShedConfig};
use cache_trace::zipf::ZipfSampler;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// One wire workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Nominal offered rate, ops/s, over both connections.
    pub rate: f64,
    /// Percent of GET, SET and DELETE.
    pub mix: [u32; 3],
    /// Zipf(1.0) key space.
    pub keys: u64,
    /// Bytes per value.
    pub value_len: usize,
    /// Keys bulk-loaded before measuring: the most popular ones.
    pub load_keys: u32,
    /// Bulk loads per run; the load figures are their median.
    pub load_reps: usize,
}

/// Read-mostly over a key space that fits the cache, so the front end and
/// the store's hit path lead.
pub const SERVE_READ: Spec = Spec {
    rate: 20_000.0,
    mix: [90, 10, 0],
    keys: 50_000,
    value_len: 64,
    load_keys: 50_000,
    load_reps: 15,
};

/// Write-heavy over 4M keys against a 64k-entry cache: nearly every SET
/// parses a 1 KiB block, allocates a payload and inserts with eviction.
pub const SERVE_CHURN: Spec = Spec {
    rate: 10_000.0,
    mix: [45, 50, 5],
    keys: 4_000_000,
    value_len: 1024,
    load_keys: 65_536,
    load_reps: 5,
};

const CONNS: usize = 2;
/// Server setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// All-op p99 limit of the rate ladder, in µs.
const LADDER_P99_LIMIT_US: f64 = 1000.0;
/// Coarse ladder rates as multiples of the nominal rate; the bracket
/// around the crossing is then bisected this many times.
const LADDER: [f64; 12] = [
    1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 14.0, 16.0,
];
const BISECTIONS: usize = 3;
/// A ladder step's p99 is the median of this many stretches' p99s.
const LADDER_WINDOWS: usize = 5;
/// Ops per replay batch when a layer is timed per batch, not per call.
const BATCH: usize = 64;

fn server_config() -> ServerConfig {
    ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    }
}

/// Per-connection op streams, drawn from Zipf(1.0) with the workload's mix.
/// Phases take consecutive stretches, wrapping around.
fn key_streams(spec: &Spec, seed: u64, len: usize) -> Vec<Vec<Op>> {
    let zipf = ZipfSampler::new(spec.keys, 1.0);
    (0..CONNS)
        .map(|c| {
            let mut rng =
                SplitMix64::new(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1)));
            (0..len)
                .map(|_| {
                    let pick = rng.next_below(100) as u32;
                    let kind = if pick < spec.mix[0] {
                        Kind::Get
                    } else if pick < spec.mix[0] + spec.mix[1] {
                        Kind::Set
                    } else {
                        Kind::Delete
                    };
                    let key = (zipf.sample(&mut rng) - 1) as u32;
                    Op { kind, key }
                })
                .collect()
        })
        .collect()
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    // The acceptor hands the connection to a shard asynchronously; one
    // round trip makes sure it is served before anything is timed.
    wire::version_sync(&mut s)?;
    Ok(s)
}

/// One open-loop phase over both connections at a fixed rate.
struct Phase {
    ops: Vec<Vec<Op>>,
    conns: Vec<ConnOut>,
    secs: f64,
}

impl Phase {
    fn latency(&self, keep: impl Fn(&Op) -> bool) -> Samples {
        let mut s = Samples::default();
        for (ops, c) in self.ops.iter().zip(&self.conns) {
            for (op, &l) in ops.iter().zip(&c.latency_us) {
                if keep(op) {
                    s.push(f64::from(l));
                }
            }
        }
        s
    }
    fn all_latency(&self) -> Samples {
        self.latency(|_| true)
    }
    fn kind_latency(&self, kind: Kind) -> Samples {
        self.latency(|op| op.kind == kind)
    }
    /// Median over `windows` consecutive stretches of the phase (by due
    /// time) of each stretch's all-op p99: one stall of a shared host moves
    /// one stretch, not the result.
    fn windowed_p99(&self, windows: usize) -> f64 {
        let p99s: Vec<f64> = (0..windows)
            .map(|w| {
                let mut s = Samples::default();
                for c in &self.conns {
                    let n = c.latency_us.len();
                    for &l in &c.latency_us[w * n / windows..(w + 1) * n / windows] {
                        s.push(f64::from(l));
                    }
                }
                s.quantile(0.99).unwrap_or(f64::INFINITY)
            })
            .collect();
        median(&p99s)
    }
    fn merged(&self, f: impl Fn(&ConnOut) -> &Samples) -> Samples {
        let mut s = Samples::default();
        for c in &self.conns {
            s.extend(f(c));
        }
        s
    }
    fn sum(&self, f: impl Fn(&ConnOut) -> u64) -> u64 {
        self.conns.iter().map(f).sum()
    }
    fn backlog(&self) -> usize {
        self.conns.iter().map(|c| c.backlog_at_last_due).sum()
    }
}

/// The client side of a wire run: one connection per generator thread and
/// its op stream. Phases take consecutive stretches of the streams.
struct Client {
    addr: SocketAddr,
    streams: Vec<Vec<Op>>,
    cursor: usize,
    conns: Vec<TcpStream>,
    value_len: usize,
}

impl Client {
    fn new(addr: SocketAddr, streams: Vec<Vec<Op>>, value_len: usize) -> Result<Self, String> {
        let conns = (0..CONNS)
            .map(|_| connect(addr))
            .collect::<Result<_, _>>()?;
        Ok(Client {
            addr,
            streams,
            cursor: 0,
            conns,
            value_len,
        })
    }

    /// One open-loop phase over every connection at `rate` ops/s for
    /// `secs`. A connection that ended the phase out of step with its
    /// replies is replaced, so late replies never answer the next phase.
    fn phase(&mut self, rate: f64, secs: f64, record: bool) -> Result<Phase, String> {
        let per_conn = ((rate * secs) as usize / CONNS).max(1);
        let interval = Duration::from_secs_f64(CONNS as f64 / rate);
        let start = self.cursor;
        self.cursor += per_conn;
        let ops: Vec<Vec<Op>> = self
            .streams
            .iter()
            .map(|s| (0..per_conn).map(|i| s[(start + i) % s.len()]).collect())
            .collect();
        let value_len = self.value_len;
        let t0 = Instant::now() + Duration::from_millis(2);
        let results: Vec<std::io::Result<ConnOut>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&ops)
                .enumerate()
                .map(|(c, (stream, ops))| {
                    // Offset the connections by a share of the interval so
                    // their sends interleave instead of landing together.
                    let offset = interval.mul_f64(c as f64 / CONNS as f64);
                    std::thread::Builder::new()
                        .name(format!("perfbench-gen-{c}"))
                        .spawn_scoped(scope, move || {
                            wire::drive(stream, ops, t0 + offset, interval, value_len, record)
                        })
                        .map_err(|e| format!("spawn generator: {e}"))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h {
                    Ok(h) => h
                        .join()
                        .unwrap_or_else(|_| Err(std::io::Error::other("generator panicked"))),
                    Err(e) => Err(std::io::Error::other(e)),
                })
                .collect()
        });
        let outs = results
            .into_iter()
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("generator: {e}"))?;
        for (conn, o) in self.conns.iter_mut().zip(&outs) {
            if !o.in_sync {
                *conn = connect(self.addr)?;
            }
        }
        Ok(Phase {
            ops,
            conns: outs,
            secs,
        })
    }
}

/// The highest offered rate whose windowed all-op p99 stays within the
/// limit with no growing backlog, interpolated between the last step that
/// met the limit and the first that did not. `steps` is
/// `(rate, p99, backlog_ok)`, sorted by rate.
fn max_rate(steps: &[(f64, f64, bool)]) -> f64 {
    let limit = LADDER_P99_LIMIT_US;
    let Some(k) = steps.iter().position(|s| !step_met(s)) else {
        return steps.last().map_or(0.0, |s| s.0);
    };
    let (r1, p1, _) = steps[k];
    if k == 0 {
        // Even the first step missed: scale it down by how far it missed.
        return r1 * (limit / p1.max(limit)).min(1.0);
    }
    let (r0, p0, _) = steps[k - 1];
    if p1 <= limit || !p1.is_finite() || p1 <= p0 {
        // Failed on backlog alone, or no slope to interpolate on.
        return r0;
    }
    r0 + (r1 - r0) * ((limit - p0) / (p1 - p0)).clamp(0.0, 1.0)
}

/// The rate ladder: climbs the coarse ladder from `base` until a step
/// misses the limit, bisects the bracket, and returns the interpolated
/// crossing and the number of steps run. Its steps probe overload on
/// purpose, so their requests are reported apart from the run's totals.
fn crossing(
    client: &mut Client,
    base: f64,
    secs: f64,
    out: &mut Outcome,
) -> Result<(f64, usize), String> {
    let mut steps = Vec::new();
    let mut bracket = None;
    for mult in LADDER {
        let step = ladder_step(client, base * mult, secs, out)?;
        steps.push(step);
        if !step_met(&step) {
            bracket = Some(step.0);
            break;
        }
    }
    if let Some(mut hi) = bracket {
        let mut lo = steps
            .iter()
            .filter(|s| s.0 < hi)
            .map(|s| s.0)
            .fold(0.0, f64::max);
        for _ in 0..BISECTIONS {
            if lo == 0.0 {
                break;
            }
            let step = ladder_step(client, (lo + hi) / 2.0, secs, out)?;
            steps.push(step);
            if step_met(&step) {
                lo = step.0;
            } else {
                hi = step.0;
            }
        }
    }
    steps.sort_by(|a, b| a.0.total_cmp(&b.0));
    Ok((max_rate(&steps), steps.len()))
}

/// Runs one ladder step at `rate`; returns `(rate, p99, backlog_ok)`.
fn ladder_step(
    client: &mut Client,
    rate: f64,
    secs: f64,
    out: &mut Outcome,
) -> Result<(f64, f64, bool), String> {
    let phase = client.phase(rate, secs, false)?;
    for c in &phase.conns {
        out.violations.extend(c.malformed.iter().cloned());
    }
    let p99 = phase.windowed_p99(LADDER_WINDOWS);
    let backlog_ok = phase.backlog() as f64 <= rate * LADDER_P99_LIMIT_US / 1e6 + CONNS as f64;
    out.note(format!(
        "ladder {rate:.0} ops/s: windowed p99 {p99:.1} µs, backlog {}, {} failed of {}",
        phase.backlog(),
        phase.sum(|c| c.failed),
        phase.sum(|c| c.attempted)
    ));
    Ok((rate, p99, backlog_ok))
}

fn step_met(step: &(f64, f64, bool)) -> bool {
    step.1 <= LADDER_P99_LIMIT_US && step.2
}

fn us(s: &mut Samples, q: f64) -> f64 {
    s.quantile(q).unwrap_or(0.0)
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tracer.enter("serve.run", NONE, 0);
    // The traced run has two nominal phases (untraced and traced) and a
    // ladder, so each phase is shorter.
    let nominal_secs = if tracer.enabled() { 0.3 } else { 0.8 } * seconds;
    let step_secs = 0.04 * seconds;
    let stream_len = ((spec.rate * nominal_secs)
        .max(spec.rate * LADDER[LADDER.len() - 1] * step_secs) as usize)
        / CONNS
        + 1;

    // Set-up: server start and key streams, several times; the last stays.
    let mut setup = Vec::new();
    let mut server: Option<ServerHandle> = None;
    let mut streams = Vec::new();
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let span = tracer.enter("serve.setup", root, 0);
        let t = Instant::now();
        server = Some(Server::start(server_config()).map_err(|e| format!("server start: {e}"))?);
        streams = key_streams(spec, seed, stream_len);
        setup.push(t.elapsed().as_secs_f64());
        tracer.exit(span);
    }
    let server = server.ok_or("no server")?;
    out.e2e("setup_s", median(&setup), Some(setup.len()));

    // Bulk load, windowed, repeated into the same server. Half the loads
    // run before the measured phases and half after, so their median
    // samples the whole run rather than its first seconds.
    let load_keys: Vec<u32> = (0..spec.load_keys).collect();
    let mut loads = Vec::new();
    let loads_before = spec.load_reps.div_ceil(2);
    bulk_loads(
        &server,
        &load_keys,
        spec.value_len,
        loads_before,
        tracer,
        root,
        &mut loads,
    )?;

    let mut client = Client::new(server.addr(), streams, spec.value_len)?;
    let span = tracer.enter("serve.nominal", root, 0);
    let nominal = client.phase(spec.rate, nominal_secs, false)?;
    tracer.exit(span);
    account(&mut out, &nominal);
    let mut all = nominal.all_latency();
    out.e2e("latency_p50_us", us(&mut all, 0.5), Some(all.len()));
    // The gated tail is p90: on a shared 2-vCPU host, multi-millisecond
    // stalls of the whole machine decide p99 (0.37 to 6.9 ms between runs
    // of one build), so p99 is printed but not gated.
    out.e2e("latency_p90_us", us(&mut all, 0.9), Some(all.len()));
    out.note(format!(
        "p99 over all {} samples = {:.1} µs",
        all.len(),
        us(&mut all, 0.99)
    ));
    let gets = nominal.sum(|c| c.gets);
    let hits = nominal.sum(|c| c.hits);
    out.e2e(
        "hit_ratio",
        hits as f64 / gets.max(1) as f64,
        Some(gets as usize),
    );
    for (kind, label) in [
        (Kind::Get, "get"),
        (Kind::Set, "set"),
        (Kind::Delete, "delete"),
    ] {
        let mut s = nominal.kind_latency(kind);
        if s.len() > 0 {
            out.note(format!(
                "{label}_p50_us = {:.1} µs, {label}_p99_us = {:.1} µs (n={})",
                us(&mut s, 0.5),
                us(&mut s, 0.99),
                s.len()
            ));
        }
    }

    if tracer.enabled() {
        traced_layers(
            spec,
            &server,
            &mut client,
            nominal.secs,
            &load_keys,
            &nominal,
            tracer,
            root,
            &mut out,
        )?;
        let span = tracer.enter("serve.ladder", root, 0);
        let (rate, steps) = crossing(&mut client, spec.rate, step_secs, &mut out)?;
        tracer.exit(span);
        out.note(format!(
            "max_ops_s = {rate:.0} ops/s after {steps} ladder steps"
        ));
        out.layer("client.max_ops_s", rate);
    }
    drop(client);
    let loads_after = spec.load_reps - loads_before;
    bulk_loads(
        &server,
        &load_keys,
        spec.value_len,
        loads_after,
        tracer,
        root,
        &mut loads,
    )?;
    let load_s = median(&loads);
    let load_mib = (load_keys.len() * spec.value_len) as f64 / (1024.0 * 1024.0);
    out.e2e(
        "throughput_ops_s",
        load_keys.len() as f64 / load_s,
        Some(loads.len()),
    );
    out.note(format!(
        "load_mib_s = {:.3} MiB/s ({} sets of {} B in windows of {}, median of {} loads: {:?} ms)",
        load_mib / load_s,
        load_keys.len(),
        spec.value_len,
        wire::LOAD_WINDOW,
        loads.len(),
        loads.iter().map(|l| (l * 1e3).round()).collect::<Vec<_>>()
    ));
    server.shutdown();
    tracer.exit(root);
    out.e2e("peak_rss_mb", crate::stats::peak_rss_mb(), None);
    Ok(out)
}

/// Runs `reps` windowed bulk loads of `keys` on one connection, appending
/// each one's seconds to `loads`.
fn bulk_loads(
    server: &ServerHandle,
    keys: &[u32],
    value_len: usize,
    reps: usize,
    tracer: &mut Tracer,
    root: SpanId,
    loads: &mut Vec<f64>,
) -> Result<(), String> {
    let mut loader = connect(server.addr())?;
    for _ in 0..reps {
        let span = tracer.enter("serve.load", root, 0);
        loads.push(wire::windowed_load(&mut loader, keys, value_len)?.as_secs_f64());
        tracer.exit(span);
    }
    Ok(())
}

fn account(out: &mut Outcome, phase: &Phase) {
    out.attempted += phase.sum(|c| c.attempted);
    out.failed += phase.sum(|c| c.failed);
    for c in &phase.conns {
        out.violations.extend(c.malformed.iter().cloned());
    }
}

/// The traced half of a wire run: an untraced and a traced nominal phase
/// (their difference is the tracing overhead), the server's thread CPU and
/// counters around the traced one, and replays of its exact requests
/// through each layer's public functions.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    spec: &Spec,
    server: &ServerHandle,
    client: &mut Client,
    secs: f64,
    load_keys: &[u32],
    untraced: &Phase,
    tracer: &mut Tracer,
    root: SpanId,
    out: &mut Outcome,
) -> Result<(), String> {
    let c = server.counters();
    let counter = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
    let (req0, shed0) = (counter(&c.requests), counter(&c.shed_replies));
    let cpu0 = task_cpu_ms();
    let span = tracer.enter("serve.nominal_traced", root, 0);
    let phase = client.phase(spec.rate, secs, true)?;
    tracer.exit(span);
    let cpu1 = task_cpu_ms();
    account(out, &phase);
    for (ci, conn) in phase.conns.iter().enumerate() {
        for (i, &(due, done)) in conn.spans.iter().enumerate() {
            tracer.record(
                "client.request",
                span,
                ((ci as u64) << 32) | i as u64,
                due,
                done,
            );
        }
    }
    let ops_done = phase.sum(|c| c.attempted) as f64;
    let kops = ops_done / 1000.0;
    out.layer(
        "server.shard_cpu_ms_per_kop",
        cpu_delta_ms(&cpu0, &cpu1, "cache-shard-") / kops,
    );
    out.layer(
        "server.accept_cpu_ms_per_s",
        cpu_delta_ms(&cpu0, &cpu1, "cache-accept") / phase.secs,
    );
    let mut rt = phase.merged(|c| &c.roundtrip);
    let roundtrip_p50 = us(&mut rt, 0.5);
    out.layer("server.roundtrip_p50_us", roundtrip_p50);
    out.layer("server.requests", counter(&c.requests) - req0);
    out.layer("server.timeouts", counter(&c.timeouts));
    out.layer("server.conns_rejected", counter(&c.conns_rejected));
    out.layer("server.slow_reader_drops", counter(&c.slow_reader_drops));
    out.layer(
        "shed.shed_share",
        (counter(&c.shed_replies) - shed0) / ops_done.max(1.0),
    );

    let mut late = phase.merged(|c| &c.late);
    out.layer("loadgen.late_p99_us", us(&mut late, 0.99));
    out.layer("loadgen.late_max_us", late.max().unwrap_or(0.0));
    out.layer(
        "loadgen.cpu_ms_per_kop",
        phase.conns.iter().map(|c| c.cpu_ms).sum::<f64>() / kops,
    );

    let mut traced_all = phase.all_latency();
    let mut untraced_all = untraced.all_latency();
    let (t50, u50) = (us(&mut traced_all, 0.5), us(&mut untraced_all, 0.5));
    out.layer("tracing.overhead_share", (t50 - u50) / u50);
    for (kind, name) in [(Kind::Get, "get"), (Kind::Set, "set")] {
        let mut s = phase.kind_latency(kind);
        let p50: &'static str = if name == "get" {
            "client.get_p50_us"
        } else {
            "client.set_p50_us"
        };
        let p99: &'static str = if name == "get" {
            "client.get_p99_us"
        } else {
            "client.set_p99_us"
        };
        out.layer(p50, us(&mut s, 0.5));
        out.layer(p99, us(&mut s, 0.99));
    }

    // The server saw the two connections' requests interleaved by due time.
    let longest = phase
        .conns
        .iter()
        .map(|c| c.statuses.len())
        .max()
        .unwrap_or(0);
    let merged: Vec<(Op, Status)> = (0..longest)
        .flat_map(|i| {
            phase
                .conns
                .iter()
                .filter_map(move |c| c.statuses.get(i).copied())
        })
        .collect();

    // proto: parse the exact bytes sent; encode every hit.
    let span = tracer.enter("layer.proto", root, 0);
    let limits = Limits::default();
    let (mut frames, mut errors, mut parse_ns, mut bytes) = (0u64, 0u64, 0f64, 0u64);
    for conn in &phase.conns {
        let buf = &conn.sent;
        bytes += buf.len() as u64;
        let mut off = 0usize;
        while off < buf.len() {
            let t = Instant::now();
            let mut n = 0;
            while n < BATCH && off < buf.len() {
                match parse_frame(&buf[off..], &limits) {
                    ParseOutcome::Frame { consumed, .. } => off += consumed,
                    ParseOutcome::Error { consumed, .. } => {
                        errors += 1;
                        off += consumed;
                    }
                    ParseOutcome::Incomplete | ParseOutcome::Fatal { .. } => {
                        errors += 1;
                        off = buf.len();
                    }
                }
                n += 1;
            }
            let end = Instant::now();
            tracer.record("proto.parse_batch", span, 0, t, end);
            parse_ns += (end - t).as_nanos() as f64;
            frames += n as u64;
        }
    }
    let hits: Vec<(String, Vec<u8>)> = merged
        .iter()
        .filter(|(_, st)| *st == Status::Hit)
        .map(|(op, _)| {
            (
                wire::key_name(op.key),
                wire::value_for(op.key, spec.value_len),
            )
        })
        .collect();
    let mut encoded = Vec::new();
    let mut encode_ns = 0f64;
    for batch in hits.chunks(BATCH) {
        encoded.clear();
        let t = Instant::now();
        for (key, value) in batch {
            encode_value(&mut encoded, key, 0, value);
        }
        let end = Instant::now();
        tracer.record("proto.encode_batch", span, 0, t, end);
        encode_ns += (end - t).as_nanos() as f64;
        std::hint::black_box(&encoded);
    }
    tracer.exit(span);
    if errors > 0 {
        out.violations
            .push(format!("{errors} requests sent did not parse as frames"));
    }
    let parse_per_op = parse_ns / frames.max(1) as f64;
    let encode_per_hit = if hits.is_empty() {
        0.0
    } else {
        encode_ns / hits.len() as f64
    };
    out.layer("proto.parse_ns_per_op", parse_per_op);
    out.layer(
        "proto.parse_ns_per_kib",
        parse_ns / (bytes as f64 / 1024.0).max(1e-9),
    );
    out.layer("proto.encode_ns_per_hit", encode_per_hit);
    out.layer("proto.bytes_in_per_op", bytes as f64 / ops_done.max(1.0));
    out.layer(
        "proto.bytes_out_per_op",
        phase.sum(|c| c.bytes_in) as f64 / ops_done.max(1.0),
    );
    out.layer("proto.parse_errors", errors as f64);

    // shed: one admission decision per request, as the server makes it.
    let span = tracer.enter("layer.shed", root, 0);
    let shedder = LoadShedder::new(ShedConfig::default());
    let mut admit_ns = 0f64;
    for batch in merged.chunks(BATCH) {
        let t = Instant::now();
        for (op, _) in batch {
            std::hint::black_box(shedder.admit(op.kind != Kind::Get));
        }
        let end = Instant::now();
        tracer.record("shed.admit_batch", span, 0, t, end);
        admit_ns += (end - t).as_nanos() as f64;
    }
    tracer.exit(span);
    let admit_per_op = admit_ns / merged.len().max(1) as f64;
    out.layer("shed.admit_ns_per_op", admit_per_op);

    // store: a same-config TtlStore, loaded like the server, fed the stream.
    let span = tracer.enter("layer.store", root, 0);
    let store = TtlStore::new(StoreConfig::default(), FaultPlan::none());
    for &k in load_keys {
        store
            .set(
                &wire::key_name(k),
                0,
                0,
                &wire::value_for(k, spec.value_len),
            )
            .map_err(|e| format!("store load: {e}"))?;
    }
    let prepared: Vec<(Kind, String, Vec<u8>)> = merged
        .iter()
        .map(|(op, _)| {
            let value = if op.kind == Kind::Set {
                wire::value_for(op.key, spec.value_len)
            } else {
                Vec::new()
            };
            (op.kind, wire::key_name(op.key), value)
        })
        .collect();
    let (g0, h0) = (
        store.counters.gets.load(Ordering::Relaxed),
        store.counters.hits.load(Ordering::Relaxed),
    );
    let mut batches: Vec<([f64; 3], f64)> = Vec::new();
    for batch in prepared.chunks(BATCH) {
        let mut counts = [0.0; 3];
        let t = Instant::now();
        for (kind, key, value) in batch {
            counts[kind.index()] += 1.0;
            match kind {
                Kind::Get => {
                    std::hint::black_box(store.get(key).map_err(|e| format!("store get: {e}"))?);
                }
                Kind::Set => store
                    .set(key, 0, 0, value)
                    .map_err(|e| format!("store set: {e}"))?,
                Kind::Delete => {
                    std::hint::black_box(store.delete(key));
                }
            }
        }
        let end = Instant::now();
        tracer.record("store.batch", span, 0, t, end);
        batches.push((counts, (end - t).as_nanos() as f64));
    }
    tracer.exit(span);
    let store_cost = per_class_cost(&batches);
    let store_gets = store.counters.gets.load(Ordering::Relaxed) - g0;
    let store_hits = store.counters.hits.load(Ordering::Relaxed) - h0;
    out.layer("store.get_ns", store_cost[0]);
    out.layer("store.set_ns", store_cost[1]);
    out.layer("store.delete_ns", store_cost[2]);
    out.layer(
        "store.hit_ratio",
        store_hits as f64 / store_gets.max(1) as f64,
    );
    out.layer(
        "store.collisions",
        store.counters.collisions.load(Ordering::Relaxed) as f64,
    );

    // concurrent: the S3-FIFO under the store, fed the same ids and payloads.
    let span = tracer.enter("layer.concurrent", root, 0);
    let cache = ConcurrentS3Fifo::new(StoreConfig::default().capacity);
    for &k in load_keys {
        let key = wire::key_name(k);
        cache.insert(
            hash_key(&key),
            Bytes::from(encode_payload(
                0,
                0,
                &key,
                &wire::value_for(k, spec.value_len),
            )),
        );
    }
    let s0 = cache.aggregate_stats();
    let mut payloads: Vec<(Kind, u64, Option<Bytes>)> = prepared
        .iter()
        .map(|(kind, key, value)| {
            let payload =
                (*kind == Kind::Set).then(|| Bytes::from(encode_payload(0, 0, key, value)));
            (*kind, hash_key(key), payload)
        })
        .collect();
    let mut batches: Vec<([f64; 3], f64)> = Vec::new();
    for batch in payloads.chunks_mut(BATCH) {
        let mut counts = [0.0; 3];
        let t = Instant::now();
        for (kind, id, payload) in batch.iter_mut() {
            counts[kind.index()] += 1.0;
            match kind {
                Kind::Get => {
                    std::hint::black_box(cache.get(*id));
                }
                Kind::Set => cache.insert(*id, payload.take().unwrap_or_default()),
                Kind::Delete => {
                    std::hint::black_box(cache.remove(*id));
                }
            }
        }
        let end = Instant::now();
        tracer.record("concurrent.batch", span, 0, t, end);
        batches.push((counts, (end - t).as_nanos() as f64));
    }
    tracer.exit(span);
    let cc = per_class_cost(&batches);
    let s1 = cache.aggregate_stats();
    let inserts = s1.inserts - s0.inserts;
    let lookups = (s1.hits - s0.hits) + (s1.misses - s0.misses);
    out.layer("concurrent.get_ns", cc[0]);
    out.layer("concurrent.insert_ns", cc[1]);
    out.layer(
        "concurrent.evictions_per_insert",
        (s1.evictions - s0.evictions) as f64 / inserts.max(1) as f64,
    );
    out.layer(
        "concurrent.hit_ratio",
        (s1.hits - s0.hits) as f64 / lookups.max(1) as f64,
    );

    // Front end: what the round trip spends outside the in-process path.
    let n = merged.len().max(1) as f64;
    let share = |k: Kind| merged.iter().filter(|(op, _)| op.kind == k).count() as f64 / n;
    let store_per_op = share(Kind::Get) * store_cost[0]
        + share(Kind::Set) * store_cost[1]
        + share(Kind::Delete) * store_cost[2];
    let hits_per_op = hits.len() as f64 / n;
    let service_ns = parse_per_op + admit_per_op + store_per_op + hits_per_op * encode_per_hit;
    out.layer(
        "server.frontend_us_per_op",
        roundtrip_p50 - service_ns / 1000.0,
    );
    out.layer("tracing.spans", tracer.len() as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rate_interpolates_across_the_crossing() {
        let steps = [
            (10.0, 200.0, true),
            (20.0, 600.0, true),
            (30.0, 1400.0, true),
        ];
        assert!((max_rate(&steps) - 25.0).abs() < 1e-9);
        assert_eq!(max_rate(&steps[..2]), 20.0);
        let backlog = [(10.0, 200.0, true), (20.0, 900.0, false)];
        assert_eq!(max_rate(&backlog), 10.0);
    }

    #[test]
    fn key_streams_follow_the_mix_and_the_seed() {
        let a = key_streams(&SERVE_CHURN, 7, 20_000);
        let b = key_streams(&SERVE_CHURN, 7, 20_000);
        assert_eq!(
            a[0].iter().map(|o| o.key).collect::<Vec<_>>(),
            b[0].iter().map(|o| o.key).collect::<Vec<_>>()
        );
        let sets = a[1].iter().filter(|o| o.kind == Kind::Set).count() as f64 / 20_000.0;
        assert!((sets - 0.5).abs() < 0.02, "{sets}");
        assert!(a
            .iter()
            .flatten()
            .all(|o| u64::from(o.key) < SERVE_CHURN.keys));
    }
}
