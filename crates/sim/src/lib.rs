//! Cache simulator and parameter-sweep engine (the workspace's libCacheSim
//! substitute).
//!
//! - [`engine`] is the replay driver: one keyed loop, one chunked dense
//!   driver, and the engine choice between them. It collects the
//!   eviction-time metrics the paper's figures need (miss ratio, byte miss
//!   ratio, frequency at eviction for Fig. 4, eviction ages) and, on
//!   request, a per-window miss-ratio series.
//! - [`stream`] feeds the same driver from an out-of-core `.ctr` trace.
//! - [`demotion`] computes the quick-demotion *speed* and *precision*
//!   metrics of §6.1 / Fig. 10 using an exact next-access oracle.
//! - [`sweep`] fans (trace × algorithm × cache size) combinations across a
//!   scoped-thread worker pool and aggregates the paper's
//!   miss-ratio-reduction percentiles (Figs. 6, 7, 11).
//! - [`mrc`] computes miss-ratio curves; [`simulate_mrc`] runs the whole
//!   capacity grid in ~one trace pass for the FIFO family (exact
//!   insertion-index FIFO, interleaved ganged lanes for the rest),
//!   bit-identical to the per-capacity sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demotion;
pub mod engine;
pub mod mrc;
pub mod oracle;
pub mod stream;
pub mod sweep;

pub use demotion::{demotion_metrics, DemotionMetrics};
pub use engine::{
    simulate, simulate_named, simulate_named_many, simulate_named_windowed, simulate_observed,
    CacheSizeSpec, DenseWindowed, RequestObserver, SimConfig, SimResult,
};
pub use mrc::{
    miss_ratio_curve, simulate_mrc, simulate_mrc_recorded, MissRatioCurve, MrcConfig, MrcEngine,
    MrcPoint, MrcResult, MrcSample,
};
pub use oracle::NextAccessOracle;
pub use stream::{replay_ctr_path, replay_ctr_windowed, StreamReplay, DEFAULT_CHUNK_RECORDS};
pub use sweep::{
    miss_ratio_reduction, per_dataset_means, run_sweep, run_sweep_with_abort,
    summarize_reductions, JobReport, JobStatus, SweepOutcome, SweepRecord, SweepSpec, MAX_GANG,
};
