//! perfbench: the repository's one benchmark.
//!
//! ```text
//! perfbench --workload <serve-read|serve-churn|replay-ctr> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! records spans around each layer's public calls and prints the per-layer
//! metrics instead, writing the spans to `.bench_out/`. Every run checks
//! the program's outputs; the last line of standard output is one JSON
//! object, and a failed check makes it say `"correct": false` and the
//! process exit non-zero. `README.md` beside this file says what each
//! metric means on each workload.

mod replay;
mod serve;
mod spans;
mod stats;
mod wire;

use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("throughput_ops_s", "ops/s"),
    ("hit_ratio", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload in the traced run; a layer
/// the workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 56] = [
    ("server.shard_cpu_ms_per_kop", "ms"),
    ("server.accept_cpu_ms_per_s", "ms/s"),
    ("server.roundtrip_p50_us", "us"),
    ("server.frontend_us_per_op", "us"),
    ("server.requests", "count"),
    ("server.timeouts", "count"),
    ("server.conns_rejected", "count"),
    ("server.slow_reader_drops", "count"),
    ("client.get_p50_us", "us"),
    ("client.get_p99_us", "us"),
    ("client.set_p50_us", "us"),
    ("client.set_p99_us", "us"),
    ("client.max_ops_s", "ops/s"),
    ("proto.parse_ns_per_op", "ns"),
    ("proto.parse_ns_per_kib", "ns"),
    ("proto.encode_ns_per_hit", "ns"),
    ("proto.bytes_in_per_op", "B"),
    ("proto.bytes_out_per_op", "B"),
    ("proto.parse_errors", "count"),
    ("shed.admit_ns_per_op", "ns"),
    ("shed.shed_share", "fraction"),
    ("store.get_ns", "ns"),
    ("store.set_ns", "ns"),
    ("store.delete_ns", "ns"),
    ("store.hit_ratio", "fraction"),
    ("store.collisions", "count"),
    ("concurrent.get_ns", "ns"),
    ("concurrent.insert_ns", "ns"),
    ("concurrent.evictions_per_insert", "fraction"),
    ("concurrent.hit_ratio", "fraction"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.late_max_us", "us"),
    ("loadgen.cpu_ms_per_kop", "ms"),
    ("stream_gen.write_s", "s"),
    ("stream_gen.mb_written", "MB"),
    ("ctr.read_chunk_s", "s"),
    ("ctr.mb_read", "MB"),
    ("ctr.chunks", "count"),
    ("sim.feed_s", "s"),
    ("sim.finish_s", "s"),
    ("sim.peak_buffer_mb", "MB"),
    ("sim.in_memory_mreq_s", "Mreq/s"),
    ("sim.streamed_vs_in_memory", "ratio"),
    ("trace.intern_s", "s"),
    ("policies.keyed.ns_per_req", "ns"),
    ("policies.keyed.evictions", "count"),
    ("policies.dense.evictions", "count"),
    ("sim.mrc.point_mreq_s", "Mreq/s"),
    ("sim.mrc.points", "count"),
    ("sim.mrc.curve_s", "s"),
    ("replay.untraced_s", "s"),
    ("replay.traced_s", "s"),
    ("replay.self_time_sum_s", "s"),
    ("replay.self_time_gap", "fraction"),
    ("tracing.overhead_share", "fraction"),
    ("tracing.spans", "count"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any one fails the run.
    pub violations: Vec<String>,
    /// End-to-end value and, where it is a statistic, its sample count.
    e2e: BTreeMap<&'static str, (f64, Option<usize>)>,
    layers: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, (value, samples));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A JSON number: finite values in Rust's shortest round-trip form, so no
/// digit of a measurement is lost. A latency that is infinite because a
/// request failed is printed as 1e12 µs, over any limit.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e12".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let mut tracer = spans::Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "serve-read" => serve::run(&serve::SERVE_READ, args.seed, args.seconds, &mut tracer),
        "serve-churn" => serve::run(&serve::SERVE_CHURN, args.seed, args.seconds, &mut tracer),
        "replay-ctr" => replay::run(out_dir, args.seed, args.seconds, &mut tracer),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if args.trace {
        let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            outcome
                .violations
                .push(format!("writing {}: {e}", path.display()));
        }
    }

    for line in &outcome.notes {
        println!("# {line}");
    }
    println!(
        "# failed_share = {} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for v in &outcome.violations {
        println!("# VIOLATION: {v}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let (value, samples) = if args.trace {
            (outcome.layers.get(name).copied().unwrap_or(0.0), None)
        } else {
            match outcome.e2e.get(name) {
                Some(&v) => v,
                None => {
                    outcome.violations.push(format!("{name} was not measured"));
                    (0.0, None)
                }
            }
        };
        match samples {
            Some(n) => println!("# {name} = {value} {unit} (n={n})"),
            None => println!("# {name} = {value} {unit}"),
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = outcome.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
