//! `paper_pipeline`: the paper's offline and online phases — generate and
//! measure synthetic functions, train the Table-2 network, and recommend
//! sizes for the 27 case-study functions from their 256 MB monitoring data,
//! scored against their measured optimum.

use crate::closed_loop::trainer_config;
use crate::common::{digest, measure_for, median, repeat_setup, timed, Opts, Outcome};
use crate::offline::offline_probe;
use crate::sizing::{neural_probe, recommend_path, window_metrics};
use crate::trace::Tracer;
use sizeless_apps::{
    measure_app, AppMeasurement, CaseStudyApp, FunctionMeasurement, MeasurementPlan,
};
use sizeless_core::dataset::TrainingDataset;
use sizeless_core::trainer::{TrainedSizer, Trainer, TrainerConfig};
use sizeless_platform::{MemorySize, Platform};
use sizeless_telemetry::MetricVector;
use std::time::Duration;

/// The size the case-study functions are monitored at.
const BASE: MemorySize = MemorySize::MB_256;

/// The set-up: the platform, and the case-study functions measured at
/// every size on one thread — the oracle the recommendations are scored
/// against.
fn oracle(opts: &Opts) -> (Platform, Vec<FunctionMeasurement>) {
    let platform = Platform::aws_like();
    let functions = CaseStudyApp::ALL
        .iter()
        .flat_map(|&app| {
            let mut plan = MeasurementPlan::scaled(app, opts.pick(20.0, 200.0));
            plan.seed = opts.seed;
            plan.threads = 1;
            let m: AppMeasurement = measure_app(&platform, app, &plan);
            m.functions
        })
        .collect();
    (platform, functions)
}

/// One pass of the measured phase.
struct Pass {
    /// Digest of the dataset records and the recommended sizes.
    digest: u64,
    dataset: TrainingDataset,
    sizer: TrainedSizer,
    chosen: Vec<MemorySize>,
}

/// Generates the dataset, trains the network and recommends a size for
/// every case-study function from its 256 MB monitoring data.
fn pass(
    platform: &Platform,
    config: &TrainerConfig,
    oracle: &[FunctionMeasurement],
    tr: &mut Tracer,
) -> (Pass, Duration) {
    let ((dataset, sizer, chosen), wall) = timed(|| {
        tr.span("bench.pipeline_pass", |tr| {
            let dataset = tr.span("core.dataset", |_| {
                TrainingDataset::generate(platform, &config.dataset)
            });
            let sizer = tr.span("core.train", |_| {
                Trainer::new(*config)
                    .train_from_dataset(platform, &dataset)
                    .expect("the benchmark dataset has at least ten functions")
            });
            let chosen: Vec<MemorySize> = oracle
                .iter()
                .map(|f| {
                    tr.span("core.recommend", |_| sizer.recommend(f.metrics_at(BASE)))
                        .memory_size()
                })
                .collect();
            (dataset, sizer, chosen)
        })
    });
    let sizes: Vec<u32> = chosen.iter().map(|m| m.mb()).collect();
    let digest = digest(&(digest(&dataset.records), sizes));
    (
        Pass {
            digest,
            dataset,
            sizer,
            chosen,
        },
        wall,
    )
}

/// Measured execution GB·s per request of the case-study functions at the
/// recommended sizes (each function weighted equally).
fn gb_s_per_req(oracle: &[FunctionMeasurement], chosen: &[MemorySize]) -> f64 {
    let total: f64 = oracle
        .iter()
        .zip(chosen)
        .map(|(f, &c)| f.execution_ms_at(c) / 1000.0 * c.gb())
        .sum();
    total / oracle.len() as f64
}

/// The paper's headline accuracy at t = 0.75: the share of functions given
/// their measured-optimal size, and the mean speedup and cost saving of
/// the chosen size over the 256 MB base, %.
fn accuracy(
    sizer: &TrainedSizer,
    oracle: &[FunctionMeasurement],
    chosen: &[MemorySize],
) -> (f64, f64, f64) {
    let n = oracle.len() as f64;
    let (mut hits, mut speedup, mut saving) = (0.0, 0.0, 0.0);
    for (f, &c) in oracle.iter().zip(chosen) {
        if sizer.optimizer().optimize_times(&f.times_map()).chosen == c {
            hits += 1.0;
        }
        speedup += 1.0 - f.execution_ms_at(c) / f.execution_ms_at(BASE);
        saving += 1.0 - f.cost_usd_at(c) / f.cost_usd_at(BASE);
    }
    (100.0 * hits / n, 100.0 * speedup / n, 100.0 * saving / n)
}

pub fn run(opts: &Opts, out: &mut Outcome, tr: &mut Tracer) {
    let mut first_oracle: Option<u64> = None;
    let mut identical = true;
    // Set-up: platform construction and the case-study oracle measurement.
    let ((platform, oracle), setup_s) = repeat_setup(|| {
        let (platform, functions) = oracle(opts);
        let d = digest(&functions);
        identical &= *first_oracle.get_or_insert(d) == d;
        (platform, functions)
    });
    out.check(
        identical,
        "the oracle measurement is reproducible across set-up repeats",
    );
    out.set("setup_s", setup_s);

    let mut config = trainer_config(opts, opts.seed, opts.pick(120, 12), opts.pick(200, 3));
    let mut untraced = Tracer::new(false);
    let mut first: Option<Pass> = None;
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (_, rss) = measure_for(opts.seconds, |i| {
        // The warm-up pass (i = 0) is checked but not timed.
        let (p, wall) = pass(&platform, &config, &oracle, &mut untraced);
        if i > 0 {
            walls.push(wall.as_secs_f64());
        }
        let mut spent = wall;
        if opts.trace {
            let (t, traced_wall) = pass(&platform, &config, &oracle, tr);
            out.check(t.digest == p.digest, "traced and untraced passes agree");
            if i > 0 {
                traced_walls.push(traced_wall.as_secs_f64());
            }
            spent += traced_wall;
        }
        match &first {
            None => first = Some(p),
            Some(f) => out.check(
                f.digest == p.digest,
                "pipeline digest is identical across passes",
            ),
        }
        spent
    });
    let first = first.expect("measure_for runs at least once");
    out.set("peak_rss_mb", rss);
    // Fan-out: the same pass with the measurement spread over every core.
    config.dataset.threads = opts.nproc();
    let (wide, _) = pass(&platform, &config, &oracle, &mut untraced);
    out.check(
        wide.digest == first.digest,
        "dataset and recommendations are identical at 1 and nproc threads",
    );

    let wall = median(&walls);
    let invocations = config.dataset.function_count as f64
        * MemorySize::STANDARD.len() as f64
        * config.dataset.experiment.rps
        * config.dataset.experiment.duration_ms
        / 1000.0;
    out.set("wall_s", wall);
    out.set("invocations_per_s", invocations / wall);
    out.set("gb_s_per_req", gb_s_per_req(&oracle, &first.chosen));
    if !opts.trace {
        return;
    }

    let (hit, speedup, saving) = accuracy(&first.sizer, &oracle, &first.chosen);
    out.set("optimal_hit_pct", hit);
    out.set("speedup_pct", speedup);
    out.set("cost_saving_pct", saving);
    out.set("trace.wall_s", median(&traced_walls));
    out.set(
        "trace.overhead_pct",
        100.0 * (median(&traced_walls) / wall - 1.0),
    );
    out.set("core.dataset_s", tr.mean_ns("core.dataset") / 1e9);
    out.set("core.train_s", tr.mean_ns("core.train") / 1e9);

    config.dataset.threads = 1;
    let cold = tr.span("bench.offline_probe", |tr| {
        offline_probe(&platform, &config.dataset, opts.nproc(), out, tr)
    });
    out.set("cold_start_pct", cold);
    // The probe's harness replay calls the platform and the monitor.
    out.set("platform.execute_ns", tr.mean_ns("platform.execute"));
    out.set(
        "platform.execute_calls",
        tr.count("platform.execute") as f64,
    );
    window_metrics(out, tr);
    let inputs: Vec<MetricVector> = oracle.iter().map(|f| f.metrics_at(BASE).clone()).collect();
    recommend_path(&first.sizer, &inputs, 1_000, out, tr);
    neural_probe(&first.dataset, &config, &first.sizer, &inputs, out, tr);
}
