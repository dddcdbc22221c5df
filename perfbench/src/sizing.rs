//! Drivers for the sizing side: the online service, telemetry windows,
//! drift statistics and the trained sizer's recommendation path.

use crate::common::{digest, Outcome};
use crate::fleets::merged_arrivals;
use crate::trace::Tracer;
use sizeless_core::dataset::TrainingDataset;
use sizeless_core::model::design_matrices;
use sizeless_core::service::{ServiceConfig, SizingService};
use sizeless_core::trainer::{TrainedSizer, TrainerConfig};
use sizeless_engine::RngStream;
use sizeless_fleet::FleetFunction;
use sizeless_neural::{NeuralNetwork, StandardScaler};
use sizeless_platform::{MemorySize, Platform};
use sizeless_stats::mann_whitney_u;
use sizeless_telemetry::{MetricVector, ResourceMonitor, StreamingWindow};

/// Replays a closed-loop sample stream through `SizingService::ingest`.
///
/// Every function's arrival stream over `duration_ms` is merged into one
/// time-ordered stream. Each arrival is sampled by the platform at the
/// function's current size and observed by the resource monitor; the sample
/// is ingested, and a directive moves the function to its target size for
/// the samples that follow — the service's loop without the cluster.
/// Alongside, each function's samples fill a `StreamingWindow` of the
/// service's length; every full window is aggregated and compared with the
/// previous one by a Mann–Whitney test on execution time, as the drift
/// check does. Returns the aggregated windows (monitoring data at the
/// deployed size, for the recommendation timings).
pub fn service_replay(
    platform: &Platform,
    functions: &[FleetFunction],
    sizer: &TrainedSizer,
    duration_ms: f64,
    seed: u64,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> Vec<MetricVector> {
    let root = RngStream::from_seed(seed, "perfbench-service");
    let arrivals = merged_arrivals(functions, duration_ms, &root);

    let config = ServiceConfig::default();
    let mut service = SizingService::new(sizer.clone(), config);
    let monitor = ResourceMonitor::new();
    let mut exec_rng = root.derive("executions");
    let mut monitor_rng = root.derive("monitor");
    let mut current: Vec<MemorySize> = functions.iter().map(|f| f.config.memory()).collect();
    let mut windows: Vec<StreamingWindow> = functions
        .iter()
        .map(|_| StreamingWindow::new(config.window))
        .collect();
    let mut previous: Vec<Option<Vec<f64>>> = vec![None; functions.len()];
    let mut aggregates = Vec::new();
    let mut directives = 0usize;

    for &(at, fn_id) in &arrivals {
        let size = current[fn_id];
        let record = tr.span("platform.execute", |_| {
            platform.invoke_unnamed_at(&functions[fn_id].config, size, false, &mut exec_rng)
        });
        let sample = tr.span("telemetry.observe", |_| {
            monitor.observe(at, &record.usage, &mut monitor_rng)
        });
        let window = &mut windows[fn_id];
        tr.span("telemetry.window_push", |_| window.push(sample.clone()));
        if window.is_full() {
            let agg = tr.span("telemetry.window_aggregate", |_| window.aggregate());
            let direct = tr.span("telemetry.metric_vector", |_| {
                MetricVector::from_samples(window.samples())
            });
            out.check(
                digest(&agg) == digest(&direct),
                "window aggregate equals MetricVector::from_samples",
            );
            let exec: Vec<f64> = window.samples().map(|s| s.execution_time_ms()).collect();
            if let Some(prev) = &previous[fn_id] {
                let test = tr.span("stats.mann_whitney", |_| mann_whitney_u(prev, &exec));
                out.check(test.is_ok(), "Mann-Whitney test on a full window");
            }
            previous[fn_id] = Some(exec);
            if size == functions[fn_id].config.memory() {
                aggregates.push(agg);
            }
            window.clear();
        }
        if let Some(d) = tr.span("core.ingest", |_| service.ingest(fn_id, size, sample)) {
            directives += 1;
            if d.target != current[fn_id] {
                current[fn_id] = d.target;
                windows[fn_id].clear();
                previous[fn_id] = None;
            }
        }
    }
    let ingest = tr
        .stats("core.ingest")
        .expect("the replay ingested samples");
    out.set("core.ingest_ns_p50", ingest.percentile_ns(0.50));
    out.set("core.ingest_ns_p99", ingest.percentile_ns(0.99));
    out.set("core.ingest_calls", ingest.count as f64);
    out.set("core.directives", directives as f64);
    out.check(
        service.stats().samples_ingested > 0,
        "the service replay ingested samples into windows",
    );
    aggregates
}

/// Times the recommendation path on monitoring data: the whole
/// `TrainedSizer::recommend` call (at least `min_calls` of them, cycling
/// through `inputs`) and, on the same inputs, its parts — feature
/// extraction, model prediction and the optimizer. Checks that the parts
/// reach the same decision as the whole.
pub fn recommend_path(
    sizer: &TrainedSizer,
    inputs: &[MetricVector],
    min_calls: usize,
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    if inputs.is_empty() {
        out.check(false, "the recommendation path needs monitoring data");
        return;
    }
    let rounds = min_calls.div_ceil(inputs.len());
    let model = sizer.model();
    let mut agree = true;
    for _ in 0..rounds {
        for mv in inputs {
            let rec = tr.span("core.recommend", |_| sizer.recommend(mv));
            let features = tr.span("core.features", |_| model.feature_set().extract(mv));
            std::hint::black_box(features);
            let predicted = tr.span("core.predict", |_| model.predict(mv));
            let outcome = tr.span("core.optimize", |_| sizer.optimizer().optimize(&predicted));
            agree &= outcome.chosen == rec.memory_size();
        }
    }
    out.check(agree, "recommend agrees with predict + optimize");
    let rec = tr.stats("core.recommend").expect("recommend ran");
    out.set("recommend_p50_us", rec.percentile_ns(0.50) / 1e3);
    out.set("recommend_p99_us", rec.percentile_ns(0.99) / 1e3);
    out.set("recommend_calls", rec.count as f64);
    out.set("core.features_ns", tr.mean_ns("core.features"));
    out.set("core.predict_us", tr.mean_ns("core.predict") / 1e3);
    out.set("core.optimize_ns", tr.mean_ns("core.optimize"));
}

/// Sets the window/statistics metrics from the spans the replay recorded.
pub fn window_metrics(out: &mut Outcome, tr: &Tracer) {
    out.set("telemetry.observe_ns", tr.mean_ns("telemetry.observe"));
    out.set(
        "telemetry.window_push_ns",
        tr.mean_ns("telemetry.window_push"),
    );
    out.set(
        "telemetry.window_aggregate_us",
        tr.mean_ns("telemetry.window_aggregate") / 1e3,
    );
    out.set(
        "telemetry.metric_vector_us",
        tr.mean_ns("telemetry.metric_vector") / 1e3,
    );
    out.set(
        "stats.mann_whitney_us",
        tr.mean_ns("stats.mann_whitney") / 1e3,
    );
}

/// Trains the network again from public parts — `design_matrices`, the
/// scaler and `NeuralNetwork::fit` — with a span on each, and checks that
/// it predicts exactly what the artifact trained from the same dataset
/// predicts. Sets `neural.epoch_ms` (fit time per epoch).
pub fn neural_probe(
    dataset: &TrainingDataset,
    config: &TrainerConfig,
    sizer: &TrainedSizer,
    inputs: &[MetricVector],
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    let features = config.feature_set;
    let (x_raw, y) = tr.span("core.design_matrices", |_| {
        design_matrices(dataset, config.base_size, features)
    });
    let (scaler, x) = tr.span("neural.scale", |_| StandardScaler::fit_transform(&x_raw));
    let mut network = NeuralNetwork::new(x.cols(), y.cols(), &config.network, config.seed);
    tr.span("neural.fit", |_| network.fit(&x, &y));
    let same = inputs.iter().all(|mv| {
        let ratios: Vec<f64> = network
            .predict_one(&scaler.transform_row(&features.extract(mv)))
            .into_iter()
            .map(|r| r.max(0.01))
            .collect();
        ratios == sizer.model().predict_ratios(mv)
    });
    out.check(
        same,
        "a network fitted from public parts predicts like the artifact",
    );
    out.set(
        "neural.epoch_ms",
        tr.mean_ns("neural.fit") / 1e6 / config.network.epochs as f64,
    );
}
