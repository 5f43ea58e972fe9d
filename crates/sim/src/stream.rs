//! Out-of-core streamed replay of `.ctr` traces.
//!
//! [`replay_ctr_windowed`] is the chunked source of the replay driver
//! ([`crate::engine`]): it feeds a policy straight from a [`CtrReader`] in
//! fixed-size record chunks, so a trace is **never** materialized in
//! memory: peak trace-buffer footprint is bounded by the chunk size
//! regardless of trace length (1B+ requests replay in a few MB of buffers).
//! Results — final counters, eviction histograms, and the per-window
//! miss-ratio series — are bit-identical to [`simulate_named_windowed`] on
//! any trace small enough to run both (`cache-check`'s streamed
//! differential enforces this across the registry).
//!
//! The engine is chosen exactly as in memory. `.ctr` record ids are already
//! dense (that is the format's core invariant), so each record's id *is*
//! its slot: a dense policy is built over the header's id space via
//! [`registry::build_dense_domain`] with no interning table at all.
//! Policies without a dense variant run the keyed loop chunk by chunk;
//! `Belady` cannot stream (it needs the future) and surfaces the registry's
//! error.
//!
//! [`simulate_named_windowed`]: crate::simulate_named_windowed
//! [`registry::build_dense_domain`]: cache_policies::registry::build_dense_domain

use crate::engine::{Engine, Replay, SimResult, Source};
use cache_obs::MissRatioSeries;
use cache_trace::ctr::CtrReader;
use cache_types::{CacheError, Request};
use std::io::{Read, Seek};
use std::path::Path;

/// Default records decoded per chunk (≈ 8–13 MB of buffers depending on
/// lanes — large enough to amortize I/O and refill cost, small enough to
/// stay cache- and memory-friendly).
pub const DEFAULT_CHUNK_RECORDS: usize = 1 << 20;

/// Everything a streamed replay produces: the usual result pair plus the
/// buffer accounting that proves memory stayed bounded.
#[derive(Debug)]
pub struct StreamReplay {
    /// Simulation result, bit-identical to the in-memory replay.
    pub result: SimResult,
    /// Per-window miss-ratio series, bit-identical to the in-memory replay.
    pub series: MissRatioSeries,
    /// Records replayed (the file's full record count).
    pub records: u64,
    /// Chunk size used, in records.
    pub chunk_records: usize,
    /// Peak bytes held in trace buffers (raw record bytes + decoded
    /// requests + dense slot ids). This — not the trace length — bounds the
    /// streamed path's trace memory.
    pub peak_buffer_bytes: u64,
}

/// Replays an open `.ctr` reader through the named policy with a windowed
/// miss-ratio series, never holding more than `chunk_records` requests in
/// memory.
///
/// The reader is rewound to the first record before replay, so a reader
/// that was partially consumed (e.g. for inspection) replays the full
/// trace. `capacity` is absolute — deriving it from a footprint would
/// require a trace scan, which out-of-core callers do once at generation
/// or conversion time (the `.ctr` header's id space *is* the object
/// footprint for dense traces).
///
/// # Errors
///
/// Propagates [`CacheError`] from the registry (unknown name, bad
/// parameter, `Belady` without a materialized trace) and `.ctr` read
/// errors ([`CacheError::TraceFormat`] / [`CacheError::Io`]).
pub fn replay_ctr_windowed<R: Read + Seek>(
    name: &str,
    reader: &mut CtrReader<R>,
    trace_name: &str,
    capacity: u64,
    ignore_size: bool,
    window: u64,
    chunk_records: usize,
) -> Result<StreamReplay, CacheError> {
    let info = *reader.info();
    let chunk_records = chunk_records.max(1);
    reader.seek_record(0)?;
    // id_space ≤ 2^32 is a header invariant, so the cast cannot truncate.
    let domain = usize::try_from(info.id_space).unwrap_or(usize::MAX);
    let mut replay = Replay::new(
        Engine::choose(name, capacity, Source::Domain(domain))?,
        window,
    );
    let mut reqs: Vec<Request> = Vec::new();
    let mut slots: Vec<u32> = Vec::new();
    loop {
        let n = reader.read_chunk(&mut reqs, chunk_records)?;
        if n == 0 {
            break;
        }
        if replay.is_dense() {
            slots.clear();
            // Dense ids are validated against the header's id space on
            // read, so the narrowing cast is lossless.
            slots.extend(reqs.iter().map(|r| r.id as u32));
        }
        replay.feed(&slots, &reqs, ignore_size);
    }
    let (result, series) = replay.finish(trace_name);
    let peak_buffer_bytes = reader.buffer_capacity() as u64
        + (reqs.capacity() * std::mem::size_of::<Request>()) as u64
        + (slots.capacity() * std::mem::size_of::<u32>()) as u64;
    Ok(StreamReplay {
        result,
        series,
        records: info.records,
        chunk_records,
        peak_buffer_bytes,
    })
}

/// [`replay_ctr_windowed`] against a `.ctr` file on disk.
///
/// Reads are large sequential `read_exact`s into the reader's chunk
/// buffer, so the file handle is used unbuffered — an extra
/// `BufReader` copy would only slow the hot path down.
///
/// # Errors
///
/// Everything [`replay_ctr_windowed`] returns, plus open/validate errors
/// from [`CtrReader::open`].
pub fn replay_ctr_path(
    name: &str,
    path: &Path,
    trace_name: &str,
    capacity: u64,
    ignore_size: bool,
    window: u64,
    chunk_records: usize,
) -> Result<StreamReplay, CacheError> {
    let file = std::fs::File::open(path)?;
    let mut reader = CtrReader::open(file)?;
    replay_ctr_windowed(
        name,
        &mut reader,
        trace_name,
        capacity,
        ignore_size,
        window,
        chunk_records,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_trace::ctr::write_trace;
    use cache_trace::gen::WorkloadSpec;
    use cache_trace::Trace;
    use std::io::Cursor;

    fn encode(trace: &Trace) -> Vec<u8> {
        let (cursor, _info) = write_trace(trace, Cursor::new(Vec::new())).expect("encode");
        cursor.into_inner()
    }

    #[test]
    fn buffers_stay_bounded_by_chunk_size() {
        let trace = WorkloadSpec::zipf("bounded-t", 30_000, 3000, 1.0, 3).generate();
        let bytes = encode(&trace);
        let mut reader = CtrReader::open(Cursor::new(&bytes)).unwrap();
        let chunk = 256usize;
        let streamed =
            replay_ctr_windowed("S3-FIFO", &mut reader, "bounded-t", 300, true, 1000, chunk)
                .unwrap();
        assert_eq!(streamed.records, 30_000);
        // Raw bytes + decoded requests + slots for one chunk, with slack for
        // Vec growth policy — nowhere near the 30k-request trace itself.
        let bound = (chunk * (16 + std::mem::size_of::<Request>() + 4) * 2) as u64;
        assert!(
            streamed.peak_buffer_bytes <= bound,
            "peak {} exceeds chunk-proportional bound {}",
            streamed.peak_buffer_bytes,
            bound
        );
    }

    #[test]
    fn belady_cannot_stream() {
        let trace = WorkloadSpec::zipf("b-t", 1_000, 100, 1.0, 1).generate();
        let bytes = encode(&trace);
        let mut reader = CtrReader::open(Cursor::new(&bytes)).unwrap();
        assert!(replay_ctr_windowed("Belady", &mut reader, "b-t", 50, true, 100, 100).is_err());
    }

    #[test]
    fn partially_consumed_reader_replays_from_start() {
        let trace = WorkloadSpec::zipf("rw-t", 5_000, 500, 1.0, 11).generate();
        let bytes = encode(&trace);
        let mut reader = CtrReader::open(Cursor::new(&bytes)).unwrap();
        let mut scratch = Vec::new();
        reader.read_chunk(&mut scratch, 123).unwrap();
        let streamed =
            replay_ctr_windowed("FIFO", &mut reader, "rw-t", 50, true, 500, 1000).unwrap();
        assert_eq!(streamed.result.requests, 5_000);
    }
}
