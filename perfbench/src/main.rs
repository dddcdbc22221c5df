//! The repository benchmark: end-to-end and per-layer metrics of three
//! workloads, measured from outside through each layer's public calls.
//!
//! ```text
//! perfbench --workload <fleet_wide|closed_loop|paper_pipeline> --seed <u64>
//!           --seconds <n> --trace <0|1> [--tiny]
//! ```
//!
//! Prints, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run also
//! writes its spans as JSON lines under the build directory. Any failed
//! correctness check makes the exit code non-zero.

mod closed_loop;
mod common;
mod fleet_wide;
mod fleets;
mod offline;
mod paper_pipeline;
mod sizing;
mod trace;

use common::{result_line, Opts, Outcome};
use std::path::PathBuf;
use trace::Tracer;

/// End-to-end metrics, measured with tracing off: (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("invocations_per_s", "1/s"),
    ("gb_s_per_req", "GB.s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured by the traced run: (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.events", "count"),
    ("engine.peak_queue_depth", "count"),
    ("engine.step_us_p50", "us"),
    ("engine.step_us_p99", "us"),
    ("engine.step_samples", "count"),
    ("engine.queue_ns_per_op.heap", "ns"),
    ("engine.queue_ns_per_op.calendar", "ns"),
    ("engine.calendar_vs_heap", "ratio"),
    ("fleet.select_host_ns", "ns"),
    ("fleet.select_host_calls", "count"),
    ("fleet.try_begin_ns", "ns"),
    ("fleet.try_begin_calls", "count"),
    ("fleet.complete_ns", "ns"),
    ("fleet.complete_calls", "count"),
    ("fleet.keepalive_ns", "ns"),
    ("fleet.keepalive_calls", "count"),
    ("fleet.cold_starts", "count"),
    ("fleet.evictions", "count"),
    ("fleet.expirations", "count"),
    ("fleet.throttled", "count"),
    ("fleet.retries", "count"),
    ("fleet.warm_hit_pct", "%"),
    ("cold_start_pct", "%"),
    ("failed_pct", "%"),
    ("platform.execute_ns", "ns"),
    ("platform.execute_calls", "count"),
    ("workload.experiment_ms", "ms"),
    ("workload.experiment_calls", "count"),
    ("workload.fanout_efficiency", "ratio"),
    ("workload.fanout_nproc_vs_1", "ratio"),
    ("workload.fanout_threads", "count"),
    ("funcgen.generate_us", "us"),
    ("funcgen.functions", "count"),
    ("telemetry.observe_ns", "ns"),
    ("telemetry.window_push_ns", "ns"),
    ("telemetry.window_aggregate_us", "us"),
    ("telemetry.metric_vector_us", "us"),
    ("stats.mann_whitney_us", "us"),
    ("core.ingest_ns_p50", "ns"),
    ("core.ingest_ns_p99", "ns"),
    ("core.ingest_calls", "count"),
    ("core.directives", "count"),
    ("core.features_ns", "ns"),
    ("core.predict_us", "us"),
    ("core.optimize_ns", "ns"),
    ("core.dataset_s", "s"),
    ("core.train_s", "s"),
    ("recommend_p50_us", "us"),
    ("recommend_p99_us", "us"),
    ("recommend_calls", "count"),
    ("optimal_hit_pct", "%"),
    ("speedup_pct", "%"),
    ("cost_saving_pct", "%"),
    ("neural.epoch_ms", "ms"),
    ("obs.ring_vs_null", "ratio"),
    ("obs.records", "count"),
    ("obs.jsonl_export_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.empty_span_ns", "ns"),
    ("engine.self_ms", "ms"),
    ("engine.spans", "count"),
    ("fleet.self_ms", "ms"),
    ("fleet.spans", "count"),
    ("platform.self_ms", "ms"),
    ("platform.spans", "count"),
    ("workload.self_ms", "ms"),
    ("workload.spans", "count"),
    ("funcgen.self_ms", "ms"),
    ("funcgen.spans", "count"),
    ("telemetry.self_ms", "ms"),
    ("telemetry.spans", "count"),
    ("stats.self_ms", "ms"),
    ("stats.spans", "count"),
    ("neural.self_ms", "ms"),
    ("neural.spans", "count"),
    ("core.self_ms", "ms"),
    ("core.spans", "count"),
    ("obs.self_ms", "ms"),
    ("obs.spans", "count"),
    ("bench.self_ms", "ms"),
    ("bench.spans", "count"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <fleet_wide|closed_loop|paper_pipeline> --seed <u64> \
         --seconds <n> --trace <0|1> [--tiny]"
    );
    std::process::exit(2);
}

fn parse() -> (String, Opts) {
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--tiny" => opts.tiny = true,
            _ => usage(),
        }
    }
    (workload.unwrap_or_else(|| usage()), opts)
}

/// Cost of an empty span, ns: the clock reads a leaf span adds.
fn empty_span_ns() -> f64 {
    let mut tr = Tracer::new(true);
    for _ in 0..100_000 {
        tr.span("bench.empty", |_| ());
    }
    tr.stats("bench.empty")
        .map_or(0.0, |s| s.percentile_ns(0.5))
}

fn main() {
    let (workload, opts) = parse();
    let mut out = Outcome::default();
    let mut tr = Tracer::new(opts.trace);
    let extra = match workload.as_str() {
        "fleet_wide" => fleet_wide::run(&opts, &mut out, &mut tr),
        "closed_loop" => {
            closed_loop::run(&opts, &mut out, &mut tr);
            Vec::new()
        }
        "paper_pipeline" => {
            paper_pipeline::run(&opts, &mut out, &mut tr);
            Vec::new()
        }
        _ => usage(),
    };
    if opts.trace {
        out.set("trace.empty_span_ns", empty_span_ns());
        for (layer, (self_ns, spans)) in tr.layers() {
            out.set(format!("{layer}.self_ms"), self_ns as f64 / 1e6);
            out.set(format!("{layer}.spans"), spans as f64);
        }
        write_trace(&workload, &opts, &tr, &extra);
    }
    let names = if opts.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&out, names));
    if out.failed > 0 {
        std::process::exit(1);
    }
}

/// Writes the spans (and any extra report lines) under the build directory.
fn write_trace(workload: &str, opts: &Opts, tr: &Tracer, extra: &[String]) {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
            .join("perfbench");
    let path = dir.join(format!("spans-{workload}-seed{}.jsonl", opts.seed));
    let mut body = tr.to_jsonl();
    for line in extra {
        body.push_str(line);
        body.push('\n');
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("[perfbench] wrote spans to {}", path.display()),
        Err(e) => eprintln!("[perfbench] could not write {}: {e}", path.display()),
    }
}
