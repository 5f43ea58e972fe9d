//! The replay driver: one keyed loop, one chunked dense driver, and the one
//! place that chooses between them.
//!
//! Every replay is a *source* feeding an *engine* with optional *sinks*:
//!
//! - **Source** — an in-memory [`Trace`], fed as a single chunk, or a
//!   `.ctr` reader fed chunk by chunk ([`crate::stream`]).
//! - **Engine** — chosen once per replay: the registry's dense variant of
//!   the policy when it has one, the keyed policy otherwise.
//! - **Dense engine** — [`DenseWindowed`] drives the policy's own
//!   monomorphized replay loop and derives series windows from stats
//!   deltas, so the per-request path carries no hook.
//! - **Keyed engine** — one generic per-request loop. [`simulate`] runs it
//!   with a zero-sized no-op observer; [`simulate_observed`] with the
//!   caller's [`RequestObserver`]; windowed replays with the
//!   [`MissRatioSeries`] as the observer.
//! - **Sinks** — every replay yields a [`SimResult`] (built in one place);
//!   windowed replays add the per-window miss-ratio series.

use cache_ds::Histogram;
use cache_obs::MissRatioSeries;
use cache_policies::registry;
use cache_trace::Trace;
use cache_types::{CacheError, DensePolicy, Eviction, Outcome, Policy, PolicyStats, Request};

/// How the cache capacity is derived for a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheSizeSpec {
    /// Absolute capacity in bytes (or objects when sizes are ignored).
    Bytes(u64),
    /// Fraction of the trace footprint in *objects* (§5.1.2's "10 % of the
    /// trace footprint"); only meaningful with `ignore_size = true`.
    FractionOfObjects(f64),
    /// Fraction of the trace footprint in *bytes* (§5.2.3's byte-miss-ratio
    /// sizing).
    FractionOfBytes(f64),
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Cache size derivation.
    pub size: CacheSizeSpec,
    /// When true, every request is treated as size 1 (the paper's default:
    /// "we ignore object size in the simulator", §5.1.2).
    pub ignore_size: bool,
    /// Skip the simulation when the derived capacity is below this many
    /// objects (the paper ignores traces where the small size is under 1000
    /// objects). `0` disables the check.
    pub min_objects: u64,
    /// Clamp the derived capacity up to at least this many objects (used by
    /// the scaled-down corpus instead of skipping). `0` disables the clamp.
    pub floor_objects: u64,
}

impl SimConfig {
    /// The paper's large-cache setting: 10 % of the trace footprint in
    /// objects, sizes ignored.
    pub fn large() -> Self {
        SimConfig {
            size: CacheSizeSpec::FractionOfObjects(0.10),
            ignore_size: true,
            min_objects: 0,
            floor_objects: 10,
        }
    }

    /// The paper's small-cache setting: 0.1 % of the trace footprint
    /// (clamped at a 100-object floor for the scaled-down corpus; the paper
    /// uses a 1000-object floor on full-size traces).
    pub fn small() -> Self {
        SimConfig {
            size: CacheSizeSpec::FractionOfObjects(0.001),
            ignore_size: true,
            min_objects: 0,
            floor_objects: 100,
        }
    }

    /// Resolves the configured size against a trace.
    pub fn capacity_for(&self, trace: &Trace) -> u64 {
        match self.size {
            CacheSizeSpec::Bytes(b) => b,
            CacheSizeSpec::FractionOfObjects(f) => {
                ((trace.footprint() as f64 * f).round() as u64).max(self.floor_objects.max(1))
            }
            CacheSizeSpec::FractionOfBytes(f) => {
                ((trace.footprint_bytes() as f64 * f).round() as u64).max(1)
            }
        }
    }
}

/// The outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Algorithm name.
    pub algorithm: String,
    /// Trace name.
    pub trace: String,
    /// Capacity used (bytes, or objects in ignore-size mode).
    pub capacity: u64,
    /// Read requests processed.
    pub requests: u64,
    /// Read misses.
    pub misses: u64,
    /// Request miss ratio.
    pub miss_ratio: f64,
    /// Byte miss ratio.
    pub byte_miss_ratio: f64,
    /// Number of evictions.
    pub evictions: u64,
    /// Distribution of post-insert access counts at eviction (Fig. 4).
    pub freq_at_eviction: Histogram,
    /// Fraction of evicted objects with zero post-insert accesses — the
    /// "one-hit wonders at eviction" of Fig. 4.
    pub one_hit_eviction_fraction: f64,
    /// Distribution of logical ages at eviction.
    pub eviction_age: Histogram,
}

/// The two eviction-time histograms every replay collects, indexed by the
/// evicting request's global position in the trace.
#[derive(Default)]
struct EvictionHists {
    freq_at_eviction: Histogram,
    eviction_age: Histogram,
}

impl EvictionHists {
    #[inline]
    fn record(&mut self, index: u64, e: &Eviction) {
        self.freq_at_eviction.record(u64::from(e.freq));
        self.eviction_age.record(e.age(index));
    }

    /// The one [`SimResult`] constructor: a policy's name, capacity and
    /// end-of-run stats plus these histograms.
    fn into_result(
        self,
        algorithm: String,
        capacity: u64,
        stats: &PolicyStats,
        trace: &str,
    ) -> SimResult {
        SimResult {
            algorithm,
            trace: trace.to_string(),
            capacity,
            requests: stats.gets,
            misses: stats.misses,
            miss_ratio: stats.miss_ratio(),
            byte_miss_ratio: stats.byte_miss_ratio(),
            evictions: stats.evictions,
            one_hit_eviction_fraction: self.freq_at_eviction.zero_fraction(),
            freq_at_eviction: self.freq_at_eviction,
            eviction_age: self.eviction_age,
        }
    }
}

/// Per-request hook into the keyed replay loop.
///
/// `cache-check`'s invariant observer plugs in here to verify structural
/// invariants (capacity bounds, duplicate residency, counter caps, ghost
/// bounds) after every single request; a [`MissRatioSeries`] is one too,
/// and debugging probes and custom metric collectors fit the same shape.
/// Observation must not mutate the policy — the hook only gets a shared
/// reference.
pub trait RequestObserver {
    /// Called once per request, after the policy processed it. `index` is
    /// the request's position in the trace, `req` the request as replayed
    /// (size already overridden in ignore-size mode), `evicted` the
    /// evictions it caused, and `policy` the post-request state for
    /// structural inspection.
    fn after_request(
        &mut self,
        index: usize,
        req: &Request,
        outcome: Outcome,
        evicted: &[Eviction],
        policy: &dyn Policy,
    );
}

/// The windowed miss-ratio series as a keyed-replay sink. Mirrors
/// [`PolicyStats`] accounting exactly: non-read requests
/// ([`Outcome::NotRead`]) are not counted and [`Outcome::Uncacheable`]
/// counts as a miss, so the series' totals equal the end-of-run stats.
impl RequestObserver for MissRatioSeries {
    #[inline]
    fn after_request(
        &mut self,
        _index: usize,
        _req: &Request,
        outcome: Outcome,
        _evicted: &[Eviction],
        _policy: &dyn Policy,
    ) {
        if outcome != Outcome::NotRead {
            self.record(outcome.is_miss());
        }
    }
}

/// The observer of an unobserved replay. Zero-sized, so [`simulate`]'s
/// monomorphized copy of the keyed loop carries no per-request dispatch.
struct NoObserver;

impl RequestObserver for NoObserver {
    #[inline(always)]
    fn after_request(&mut self, _: usize, _: &Request, _: Outcome, _: &[Eviction], _: &dyn Policy) {
    }
}

/// The keyed replay loop, the only one in the crate. `offset` is the global
/// index of `reqs[0]`, so replaying a trace chunk by chunk yields the same
/// eviction ages and observer indices as one whole-trace call.
///
/// Size override happens here and only here: with `ignore_size` every
/// request is replayed at size 1 without materializing a unit-size copy of
/// the trace.
fn run_keyed<O: RequestObserver + ?Sized>(
    policy: &mut dyn Policy,
    reqs: &[Request],
    offset: usize,
    ignore_size: bool,
    observer: &mut O,
    hists: &mut EvictionHists,
) {
    // A single eviction batch is small (one insert evicts a handful of
    // objects at most); preallocate once so the inner loop never grows it.
    let mut evs: Vec<Eviction> = Vec::with_capacity(64);
    for (i, r) in reqs.iter().enumerate() {
        let index = offset + i;
        let req = if ignore_size {
            Request { size: 1, ..(*r) }
        } else {
            *r
        };
        evs.clear();
        let outcome = policy.request(&req, &mut evs);
        for e in &evs {
            hists.record(index as u64, e);
        }
        observer.after_request(index, &req, outcome, &evs, &*policy);
    }
}

/// Replays `trace` through the keyed `policy`, collecting eviction-time
/// metrics.
pub fn simulate(policy: &mut dyn Policy, trace: &Trace, ignore_size: bool) -> SimResult {
    simulate_observed(policy, trace, ignore_size, &mut NoObserver)
}

/// [`simulate`] with a [`RequestObserver`] attached to every request.
/// Results are identical to [`simulate`] because observers cannot mutate
/// the policy.
pub fn simulate_observed<O: RequestObserver + ?Sized>(
    policy: &mut dyn Policy,
    trace: &Trace,
    ignore_size: bool,
    observer: &mut O,
) -> SimResult {
    let mut hists = EvictionHists::default();
    run_keyed(
        policy,
        &trace.requests,
        0,
        ignore_size,
        observer,
        &mut hists,
    );
    hists.into_result(
        policy.name(),
        policy.capacity(),
        &policy.stats(),
        &trace.name,
    )
}

/// The chunked dense driver, shared by every dense replay: the in-memory
/// front doors feed it a whole trace as one chunk, the out-of-core replayer
/// ([`crate::stream`]) feeds it `.ctr` chunks. Feed slot/request chunks of
/// any size in any number of calls, then [`finish`](DenseWindowed::finish)
/// into a `(SimResult, MissRatioSeries)` bit-identical to the keyed loop
/// with the series as its observer.
///
/// Series windows count *reads* — non-read requests are invisible to the
/// series — while the dense engine's per-window counts come from
/// [`PolicyStats`] deltas between `replay` calls, so the policy's own
/// monomorphized loop runs with no per-request hook. `feed` therefore
/// re-chunks its input so every `replay` call ends precisely when the open
/// window's read budget is exhausted, keeping each
/// [`MissRatioSeries::record_window`] delta exact. (Chunking by request
/// count would hand the series misaligned deltas on mixed-op traces and
/// smear misses proportionally across window boundaries; the regression
/// tests below pin this.)
pub struct DenseWindowed {
    series: MissRatioSeries,
    hists: EvictionHists,
    /// Stats snapshot after the previous `replay` call; window counts are
    /// deltas against this.
    prev: PolicyStats,
    /// Global index of the next request to be fed, for rebasing the
    /// chunk-relative eviction indices `replay` reports.
    offset: u64,
    window: u64,
}

impl DenseWindowed {
    /// A fresh accumulator with `window` reads per series window.
    ///
    /// The policy handed to [`feed`](DenseWindowed::feed) must not have
    /// processed any requests yet (its stats are the delta baseline).
    pub fn new(window: u64) -> Self {
        DenseWindowed {
            series: MissRatioSeries::new(window),
            hists: EvictionHists::default(),
            prev: PolicyStats::default(),
            offset: 0,
            window: window.max(1),
        }
    }

    /// Replays one chunk through `policy`, splitting it so each underlying
    /// `replay` call ends exactly on a series-window boundary.
    ///
    /// Chunks arrive in trace order across calls; `slots` and `reqs` are
    /// parallel. All state (window fill, global eviction-index offset, stats
    /// baseline) carries across calls, so feeding one big slice or many
    /// small ones is bit-identical.
    pub fn feed(
        &mut self,
        policy: &mut dyn DensePolicy,
        slots: &[u32],
        reqs: &[Request],
        ignore_size: bool,
    ) {
        debug_assert_eq!(slots.len(), reqs.len());
        let mut base = 0usize;
        while base < reqs.len() {
            // Reads still missing from the currently open series window.
            let mut budget = self.window - self.series.total_requests() % self.window;
            // When the rest cannot overfill the open window there is no
            // boundary to find, so skip the per-request read scan.
            let mut end = if (reqs.len() - base) as u64 <= budget {
                reqs.len()
            } else {
                base
            };
            while end < reqs.len() {
                let is_read = reqs[end].is_read();
                end += 1;
                if is_read {
                    budget -= 1;
                    if budget == 0 {
                        break;
                    }
                }
            }
            // Eviction callbacks see chunk-relative indices; rebase them so
            // eviction ages match the unchunked replay bit for bit.
            let offset = self.offset;
            let hists = &mut self.hists;
            policy.replay(
                &slots[base..end],
                &reqs[base..end],
                ignore_size,
                &mut |i, e| {
                    hists.record(offset + i as u64, e);
                },
            );
            let cur = policy.stats();
            // Exact by construction: the gets delta equals the read count of
            // the sub-chunk, which never overshoots the open window.
            self.series
                .record_window(cur.gets - self.prev.gets, cur.misses - self.prev.misses);
            self.prev = cur;
            self.offset += (end - base) as u64;
            base = end;
        }
    }

    /// Replays one chunk through the keyed loop with the series as its
    /// observer — the same accumulator state, so either engine can drive a
    /// chunked replay.
    fn feed_keyed(&mut self, policy: &mut dyn Policy, reqs: &[Request], ignore_size: bool) {
        // Chunk offsets count requests held in memory, so they fit a usize.
        let offset = self.offset as usize;
        run_keyed(
            policy,
            reqs,
            offset,
            ignore_size,
            &mut self.series,
            &mut self.hists,
        );
        self.offset += reqs.len() as u64;
    }

    /// Closes the series and assembles the final [`SimResult`] from the
    /// policy's end-of-run stats.
    pub fn finish(self, policy: &dyn DensePolicy, trace: &str) -> (SimResult, MissRatioSeries) {
        self.close(policy.name(), policy.capacity(), &policy.stats(), trace)
    }

    fn close(
        mut self,
        algorithm: String,
        capacity: u64,
        stats: &PolicyStats,
        trace: &str,
    ) -> (SimResult, MissRatioSeries) {
        self.series.finish();
        let result = self.hists.into_result(algorithm, capacity, stats, trace);
        (result, self.series)
    }
}

/// Where a replay's requests come from, which decides how its engine is
/// built.
pub(crate) enum Source<'a> {
    /// An in-memory trace: dense policies map its interned slots back to
    /// object ids, and keyed `Belady` reads its future.
    Trace(&'a Trace),
    /// A stream of already-dense ids `0..domain` (a `.ctr` file).
    Domain(usize),
}

/// The engine a replay runs on.
pub(crate) enum Engine {
    /// The registry's dense variant of the policy.
    Dense(Box<dyn DensePolicy>),
    /// The keyed policy, for algorithms without a dense variant.
    Keyed(Box<dyn Policy>),
}

impl Engine {
    /// The one engine choice: the dense variant when the registry has one,
    /// the keyed policy otherwise.
    pub(crate) fn choose(
        name: &str,
        capacity: u64,
        source: Source<'_>,
    ) -> Result<Engine, CacheError> {
        let (dense, future) = match source {
            Source::Trace(t) => (
                registry::build_dense(name, capacity, &t.dense().ids)?,
                Some(t.requests.as_slice()),
            ),
            Source::Domain(domain) => (registry::build_dense_domain(name, capacity, domain)?, None),
        };
        Ok(match dense {
            Some(p) => Engine::Dense(p),
            None => Engine::Keyed(registry::build(name, capacity, future)?),
        })
    }
}

/// One windowed replay in progress: the engine plus the accumulator it
/// feeds, chunk by chunk.
pub(crate) struct Replay {
    engine: Engine,
    acc: DenseWindowed,
}

impl Replay {
    /// Starts a replay on `engine` with `window` reads per series window.
    pub(crate) fn new(engine: Engine, window: u64) -> Replay {
        Replay {
            engine,
            acc: DenseWindowed::new(window),
        }
    }

    /// True when the engine is dense and [`feed`](Replay::feed) reads its
    /// `slots`; keyed engines ignore them.
    pub(crate) fn is_dense(&self) -> bool {
        matches!(self.engine, Engine::Dense(_))
    }

    /// Replays the next chunk, in trace order.
    pub(crate) fn feed(&mut self, slots: &[u32], reqs: &[Request], ignore_size: bool) {
        match &mut self.engine {
            Engine::Dense(p) => self.acc.feed(p.as_mut(), slots, reqs, ignore_size),
            Engine::Keyed(p) => self.acc.feed_keyed(p.as_mut(), reqs, ignore_size),
        }
    }

    /// Closes the series and assembles the result.
    pub(crate) fn finish(self, trace: &str) -> (SimResult, MissRatioSeries) {
        match &self.engine {
            Engine::Dense(p) => self.acc.finish(p.as_ref(), trace),
            Engine::Keyed(p) => self.acc.close(p.name(), p.capacity(), &p.stats(), trace),
        }
    }
}

/// The capacity `cfg` derives for `trace`, or `None` when it falls below
/// `cfg.min_objects` (the paper's exclusion of too-small configurations).
fn filtered_capacity(trace: &Trace, cfg: &SimConfig) -> Option<u64> {
    let capacity = cfg.capacity_for(trace);
    (cfg.min_objects == 0 || capacity >= cfg.min_objects).then_some(capacity)
}

/// How many requests ahead the ganged replay warms each policy's slot state;
/// matches the lookahead of the single-policy monomorphized loops.
const GANG_LOOKAHEAD: usize = 12;

/// Replays **one pass** of `trace` through several dense policies at once.
///
/// Sweep jobs that share a trace are independent, so a single trace
/// traversal can drive all of them: while one policy's slot load stalls on
/// memory, the others issue theirs, converting the per-job serial cache
/// misses of one-job-at-a-time replay into gang-wide memory-level
/// parallelism. On a single core this is where sweep throughput comes from;
/// results are bit-identical to running each policy alone because every
/// policy sees exactly the same request sequence and keeps private state.
fn replay_gang(
    policies: &mut [Box<dyn DensePolicy>],
    trace: &Trace,
    ignore_size: bool,
) -> Vec<SimResult> {
    let dense = trace.dense();
    let slots = &dense.slots;
    match policies {
        [] => return Vec::new(),
        [only] => {
            // A gang of one gains nothing over the policy's own
            // monomorphized loop.
            let mut w = DenseWindowed::new(u64::MAX);
            w.feed(only.as_mut(), slots, &trace.requests, ignore_size);
            return vec![w.finish(only.as_ref(), &trace.name).0];
        }
        _ => {}
    }
    let mut hists: Vec<EvictionHists> = policies.iter().map(|_| EvictionHists::default()).collect();
    let mut evs: Vec<Eviction> = Vec::with_capacity(64);
    for (i, (&slot, r)) in slots.iter().zip(trace.requests.iter()).enumerate() {
        if let Some(&ahead) = slots.get(i + GANG_LOOKAHEAD) {
            for p in policies.iter() {
                p.prefetch(ahead);
            }
        }
        let req = if ignore_size {
            Request { size: 1, ..(*r) }
        } else {
            *r
        };
        for (p, h) in policies.iter_mut().zip(hists.iter_mut()) {
            evs.clear();
            p.request_dense(slot, &req, &mut evs);
            for e in &evs {
                h.record(i as u64, e);
            }
        }
    }
    policies
        .iter()
        .zip(hists)
        .map(|(p, h)| h.into_result(p.name(), p.capacity(), &p.stats(), &trace.name))
        .collect()
}

/// Simulates several named algorithms against the same trace and config,
/// ganging all dense-capable ones into a single trace pass and running the
/// rest through the keyed engine individually. Results come back in input
/// order; each entry is exactly what [`simulate_named`] would have produced
/// for that name.
///
/// # Errors
///
/// Propagates the first [`CacheError`] from the registry (unknown name, bad
/// parameter).
pub fn simulate_named_many(
    names: &[&str],
    trace: &Trace,
    cfg: &SimConfig,
) -> Result<Vec<Option<SimResult>>, CacheError> {
    let mut results: Vec<Option<SimResult>> = names.iter().map(|_| None).collect();
    let Some(capacity) = filtered_capacity(trace, cfg) else {
        return Ok(results);
    };
    let mut gang: Vec<Box<dyn DensePolicy>> = Vec::new();
    let mut gang_idx: Vec<usize> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        match Engine::choose(name, capacity, Source::Trace(trace))? {
            Engine::Dense(p) => {
                gang.push(p);
                gang_idx.push(i);
            }
            Engine::Keyed(mut p) => {
                results[i] = Some(simulate(p.as_mut(), trace, cfg.ignore_size));
            }
        }
    }
    for (i, r) in gang_idx
        .into_iter()
        .zip(replay_gang(&mut gang, trace, cfg.ignore_size))
    {
        results[i] = Some(r);
    }
    Ok(results)
}

/// Builds the named algorithm for `trace` under `cfg` and simulates it,
/// on the dense engine when the registry has a dense variant.
///
/// Returns `None` when the derived capacity is below `cfg.min_objects`
/// (mirroring the paper's exclusion of too-small configurations).
///
/// # Errors
///
/// Propagates [`CacheError`] from the registry (unknown name, bad
/// parameter).
///
/// # Examples
///
/// ```
/// use cache_sim::{simulate_named, SimConfig};
/// use cache_trace::gen::WorkloadSpec;
///
/// let trace = WorkloadSpec::zipf("t", 20_000, 2_000, 1.0, 1).generate();
/// let s3 = simulate_named("S3-FIFO", &trace, &SimConfig::large())
///     .unwrap()
///     .unwrap();
/// let fifo = simulate_named("FIFO", &trace, &SimConfig::large())
///     .unwrap()
///     .unwrap();
/// assert!(s3.miss_ratio < fifo.miss_ratio);
/// ```
pub fn simulate_named(
    name: &str,
    trace: &Trace,
    cfg: &SimConfig,
) -> Result<Option<SimResult>, CacheError> {
    Ok(simulate_named_windowed(name, trace, cfg, u64::MAX)?.map(|(result, _)| result))
}

/// [`simulate_named`] plus a windowed miss-ratio timeseries with `window`
/// reads per window.
///
/// # Errors
///
/// Propagates [`CacheError`] from the registry (unknown name, bad
/// parameter).
pub fn simulate_named_windowed(
    name: &str,
    trace: &Trace,
    cfg: &SimConfig,
    window: u64,
) -> Result<Option<(SimResult, MissRatioSeries)>, CacheError> {
    let Some(capacity) = filtered_capacity(trace, cfg) else {
        return Ok(None);
    };
    let mut replay = Replay::new(
        Engine::choose(name, capacity, Source::Trace(trace))?,
        window,
    );
    replay.feed(&trace.dense().slots, &trace.requests, cfg.ignore_size);
    Ok(Some(replay.finish(&trace.name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_trace::gen::WorkloadSpec;

    fn small_trace() -> Trace {
        WorkloadSpec::zipf("t", 20_000, 2000, 1.0, 7).generate()
    }

    #[test]
    fn simulate_counts_match_policy_stats() {
        let trace = small_trace();
        let mut p = cache_policies::Lru::new(100).unwrap();
        let r = simulate(&mut p, &trace, true);
        assert_eq!(r.requests, 20_000);
        assert!(r.miss_ratio > 0.0 && r.miss_ratio < 1.0);
        assert_eq!(r.algorithm, "LRU");
        assert!(r.evictions > 0);
        assert_eq!(r.freq_at_eviction.count(), r.evictions);
    }

    #[test]
    fn capacity_resolution() {
        let trace = small_trace();
        let fp = trace.footprint() as f64;
        let cfg = SimConfig::large();
        let cap = cfg.capacity_for(&trace);
        assert_eq!(cap, (fp * 0.1).round() as u64);
        let cfg = SimConfig {
            size: CacheSizeSpec::Bytes(42),
            ignore_size: false,
            min_objects: 0,
            floor_objects: 0,
        };
        assert_eq!(cfg.capacity_for(&trace), 42);
    }

    #[test]
    fn small_config_clamps_to_floor() {
        let trace = small_trace(); // footprint ~1800 → 0.1 % ≈ 2 → floor 100
        let cfg = SimConfig::small();
        assert_eq!(cfg.capacity_for(&trace), 100);
    }

    #[test]
    fn named_simulation_runs_everything() {
        let trace = WorkloadSpec::zipf("t", 5000, 500, 1.0, 9).generate();
        let cfg = SimConfig::large();
        for name in ["FIFO", "LRU", "S3-FIFO", "ARC", "Belady"] {
            let r = simulate_named(name, &trace, &cfg).unwrap().unwrap();
            assert_eq!(r.requests, 5000, "{name}");
        }
    }

    #[test]
    fn min_objects_skips_tiny_caches() {
        let trace = WorkloadSpec::zipf("t", 2000, 100, 1.0, 9).generate();
        let cfg = SimConfig {
            size: CacheSizeSpec::FractionOfObjects(0.001),
            ignore_size: true,
            min_objects: 1000,
            floor_objects: 0,
        };
        assert!(simulate_named("LRU", &trace, &cfg).unwrap().is_none());
    }

    #[test]
    fn s3fifo_beats_fifo_on_skewed_trace() {
        // The headline claim, end to end through the simulator.
        let trace = small_trace();
        let cfg = SimConfig::large();
        let fifo = simulate_named("FIFO", &trace, &cfg).unwrap().unwrap();
        let s3 = simulate_named("S3-FIFO", &trace, &cfg).unwrap().unwrap();
        assert!(
            s3.miss_ratio < fifo.miss_ratio,
            "S3-FIFO {:.4} must beat FIFO {:.4}",
            s3.miss_ratio,
            fifo.miss_ratio
        );
    }

    #[test]
    fn belady_is_lower_bound() {
        let trace = small_trace();
        let cfg = SimConfig::large();
        let opt = simulate_named("Belady", &trace, &cfg).unwrap().unwrap();
        for name in ["FIFO", "LRU", "S3-FIFO", "ARC", "TinyLFU"] {
            let r = simulate_named(name, &trace, &cfg).unwrap().unwrap();
            assert!(
                opt.miss_ratio <= r.miss_ratio + 1e-12,
                "Belady {:.4} vs {name} {:.4}",
                opt.miss_ratio,
                r.miss_ratio
            );
        }
    }

    #[test]
    fn ganged_replay_matches_individual_runs() {
        let trace = small_trace();
        let cfg = SimConfig::large();
        // A mixed batch: dense-capable names ganged into one pass, keyed-only
        // names (ARC) simulated individually, all in input order.
        let names = ["S3-FIFO", "FIFO", "ARC", "LRU", "SIEVE"];
        let many = simulate_named_many(&names, &trace, &cfg).unwrap();
        assert_eq!(many.len(), names.len());
        for (name, got) in names.iter().zip(many) {
            let got = got.unwrap();
            let solo = simulate_named(name, &trace, &cfg).unwrap().unwrap();
            assert_eq!(got.algorithm, solo.algorithm);
            assert_eq!(got.misses, solo.misses, "{name}");
            assert_eq!(got.evictions, solo.evictions, "{name}");
            assert_eq!(
                got.miss_ratio.to_bits(),
                solo.miss_ratio.to_bits(),
                "{name}"
            );
            assert_eq!(
                got.one_hit_eviction_fraction.to_bits(),
                solo.one_hit_eviction_fraction.to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn ganged_replay_respects_min_objects() {
        let trace = WorkloadSpec::zipf("t", 2000, 100, 1.0, 9).generate();
        let cfg = SimConfig {
            size: CacheSizeSpec::FractionOfObjects(0.001),
            ignore_size: true,
            min_objects: 1000,
            floor_objects: 0,
        };
        let many = simulate_named_many(&["LRU", "FIFO"], &trace, &cfg).unwrap();
        assert!(many.iter().all(Option::is_none));
    }

    #[test]
    fn byte_miss_ratio_with_sizes() {
        let mut spec = WorkloadSpec::zipf("t", 10_000, 1000, 0.9, 11);
        spec.size_model = cache_trace::gen::SizeModel::Uniform { min: 10, max: 1000 };
        let trace = spec.generate();
        let cfg = SimConfig {
            size: CacheSizeSpec::FractionOfBytes(0.1),
            ignore_size: false,
            min_objects: 0,
            floor_objects: 0,
        };
        let r = simulate_named("S3-FIFO", &trace, &cfg).unwrap().unwrap();
        assert!(r.byte_miss_ratio > 0.0 && r.byte_miss_ratio <= 1.0);
        assert!(r.miss_ratio > 0.0);
    }

    /// Mixed-op trace (get/set/delete) with a given length — the shape that
    /// exposed the window-boundary accounting bug.
    fn mixed_trace(requests: usize, seed: u64) -> Trace {
        use cache_ds::SplitMix64;
        use cache_types::Op;
        let mut rng = SplitMix64::new(seed);
        let reqs: Vec<Request> = (0..requests)
            .map(|_| {
                let op = match rng.next_below(8) {
                    0 => Op::Set,
                    1 => Op::Delete,
                    _ => Op::Get,
                };
                Request {
                    id: rng.next_below(500),
                    size: 1,
                    op,
                    time: 0,
                }
            })
            .collect();
        Trace::new("mixed", reqs)
    }

    /// The dense driver's windows against the keyed loop's, which records
    /// read by read.
    fn assert_series_equal(name: &str, trace: &Trace, window: u64) {
        let capacity = 64;
        let mut dense = registry::build_dense(name, capacity, &trace.dense().ids)
            .expect("valid name")
            .expect("dense-capable");
        let mut w = DenseWindowed::new(window);
        w.feed(dense.as_mut(), &trace.dense().slots, &trace.requests, true);
        let (dense_result, dense_series) = w.finish(dense.as_ref(), &trace.name);
        let mut keyed = registry::build(name, capacity, Some(&trace.requests)).expect("valid name");
        let mut keyed_series = MissRatioSeries::new(window);
        let keyed_result = simulate_observed(keyed.as_mut(), trace, true, &mut keyed_series);
        keyed_series.finish();
        assert_eq!(
            dense_result.misses, keyed_result.misses,
            "{name} w={window}"
        );
        assert_eq!(
            dense_series.points(),
            keyed_series.points(),
            "{name} w={window}: windows"
        );
    }

    /// Regression (trace-I/O bug sweep): chunking the dense replay by
    /// *request* count handed the series misaligned deltas on mixed-op
    /// traces — reads per chunk < window — which smeared misses
    /// proportionally across window boundaries. Every per-window count must
    /// equal the keyed observer path's, which records read by read.
    #[test]
    fn dense_windows_match_keyed_on_mixed_op_traces() {
        let trace = mixed_trace(10_000, 21);
        for window in [1u64, 3, 64, 999, 1000, 1001] {
            for name in ["FIFO", "LRU", "S3-FIFO"] {
                assert_series_equal(name, &trace, window);
            }
        }
    }

    /// Sweep trace length against window length so every residue class of
    /// `len % window` gets exercised, on both pure-get and mixed-op traces
    /// (the final partial window was the other suspect in the boundary
    /// audit).
    #[test]
    fn window_boundary_sweep_length_mod_window() {
        for len in [1usize, 99, 100, 101, 250, 999, 1000, 1024] {
            let pure = WorkloadSpec::zipf("p", len, 200, 1.0, len as u64).generate();
            let mixed = mixed_trace(len, len as u64);
            for window in [1u64, 7, 100, 128] {
                assert_series_equal("S3-FIFO", &pure, window);
                assert_series_equal("S3-FIFO", &mixed, window);
            }
        }
    }

    #[test]
    fn windows_respect_min_objects_filter() {
        let trace = WorkloadSpec::zipf("tiny", 2000, 100, 1.0, 9).generate();
        let cfg = SimConfig {
            min_objects: 1000,
            ..SimConfig::small()
        };
        assert!(simulate_named_windowed("LRU", &trace, &cfg, 100)
            .unwrap()
            .is_none());
    }
}
