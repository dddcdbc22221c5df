//! The offline phase taken apart: the layers `TrainingDataset::generate`
//! runs, each called directly with a span around it.
//!
//! * `funcgen.generate` per synthetic function;
//! * `workload.experiment` per `run_experiment` (one thread), then the same
//!   jobs through `measure_parallel` at one thread and at `nproc` threads —
//!   the fan-out ratios — with every result compared to the serial one;
//! * a harness replay (arrivals, warm pool, platform sampler, resource
//!   monitor, metric aggregation) that splits one experiment's time into
//!   `platform.execute`, `telemetry.observe` and `telemetry.metric_vector`.

use crate::common::Outcome;
use crate::trace::Tracer;
use sizeless_core::dataset::DatasetConfig;
use sizeless_engine::RngStream;
use sizeless_funcgen::FunctionGenerator;
use sizeless_platform::pool::WarmPool;
use sizeless_platform::{FunctionConfig, MemorySize, Platform, ResourceProfile};
use sizeless_telemetry::{MetricStore, MetricVector, ResourceMonitor};
use sizeless_workload::{measure_parallel, run_experiment, ArrivalProcess, ExperimentConfig};

/// Runs the probes on a dataset of `config`'s shape. Returns the cold-start
/// share of the serial experiments, %.
pub fn offline_probe(
    platform: &Platform,
    config: &DatasetConfig,
    nproc: usize,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> f64 {
    let mut rng = RngStream::from_seed(config.seed, "perfbench-funcgen");
    let mut generator = FunctionGenerator::new(config.generator);
    let functions: Vec<ResourceProfile> = (0..config.function_count)
        .map(|_| {
            tr.span("funcgen.generate", |_| generator.generate(&mut rng))
                .profile
        })
        .collect();
    out.set("funcgen.generate_us", tr.mean_ns("funcgen.generate") / 1e3);
    out.set("funcgen.functions", functions.len() as f64);

    let jobs: Vec<(&ResourceProfile, MemorySize)> = functions
        .iter()
        .flat_map(|p| MemorySize::STANDARD.iter().map(move |&m| (p, m)))
        .collect();
    let exp = config.experiment;
    let serial: Vec<_> = jobs
        .iter()
        .map(|&(p, m)| {
            tr.span("workload.experiment", |_| {
                run_experiment(platform, p, m, &exp)
            })
        })
        .collect();
    let one = tr.span("workload.measure_parallel_1", |_| {
        measure_parallel(platform, &jobs, &exp, 1)
    });
    let many = tr.span("workload.measure_parallel_n", |_| {
        measure_parallel(platform, &jobs, &exp, nproc)
    });
    out.check(
        one == serial,
        "measure_parallel at 1 thread equals serial run_experiment",
    );
    out.check(
        many == serial,
        "measure_parallel at nproc threads equals serial run_experiment",
    );
    let job_ns = tr.total_ns("workload.experiment") as f64;
    let wall_1 = tr.total_ns("workload.measure_parallel_1") as f64;
    let wall_n = tr.total_ns("workload.measure_parallel_n") as f64;
    out.set(
        "workload.experiment_ms",
        tr.mean_ns("workload.experiment") / 1e6,
    );
    out.set(
        "workload.experiment_calls",
        tr.count("workload.experiment") as f64,
    );
    out.set(
        "workload.fanout_efficiency",
        job_ns / (nproc as f64 * wall_n),
    );
    out.set("workload.fanout_nproc_vs_1", wall_1 / wall_n);
    out.set("workload.fanout_threads", nproc as f64);

    for &(p, m) in &jobs {
        harness_replay(platform, p, m, &exp, tr);
    }
    let invocations: usize = serial.iter().map(|s| s.summary.invocations).sum();
    let cold: usize = serial.iter().map(|s| s.summary.cold_starts).sum();
    100.0 * cold as f64 / invocations as f64
}

/// One experiment rebuilt from public parts: Poisson arrivals, a warm pool
/// deciding cold starts, the platform's invocation sampler and the
/// resource monitor, then aggregation into a metric vector.
fn harness_replay(
    platform: &Platform,
    profile: &ResourceProfile,
    memory: MemorySize,
    exp: &ExperimentConfig,
    tr: &mut Tracer,
) {
    let root = RngStream::from_seed(exp.seed, "perfbench-harness");
    let mut arrival_rng = root.derive("arrivals");
    let mut exec_rng = root.derive("executions");
    let mut monitor_rng = root.derive("monitor");
    let arrivals = ArrivalProcess::poisson(exp.rps).arrivals_ms(exp.duration_ms, &mut arrival_rng);
    let monitor = ResourceMonitor::new();
    let config = FunctionConfig::new(profile.clone(), memory);
    let mut pool = WarmPool::new(platform.cold_start_model().idle_ttl_ms);
    let mut store = MetricStore::new();
    for &at in &arrivals {
        let (instance, cold) = pool.begin(at);
        let record = tr.span("platform.execute", |_| {
            platform.invoke(&config, cold, &mut exec_rng)
        });
        pool.complete(
            instance,
            at + record.init_ms + record.duration_ms + monitor.overhead_ms,
        );
        let sample = tr.span("telemetry.observe", |_| {
            monitor.observe(at, &record.usage, &mut monitor_rng)
        });
        store.record(sample);
    }
    let mv = tr.span("telemetry.metric_vector", |_| {
        MetricVector::from_samples(store.samples())
    });
    std::hint::black_box(mv);
}
