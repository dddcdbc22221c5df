//! `closed_loop`: the 27 case-study functions at 256 MB on 8 hosts, bursty
//! traffic, an embedded `SizingService` with a trained artifact, and a
//! seeded fault plan with retries — few functions with dense traffic, so
//! time goes to the parts that serve each completion.

use crate::common::{repeat_setup, Opts, Outcome};
use crate::fleets::FleetSpec;
use crate::offline::offline_probe;
use crate::sizing::{neural_probe, recommend_path, service_replay, window_metrics};
use crate::trace::Tracer;
use sizeless_core::dataset::{DatasetConfig, TrainingDataset};
use sizeless_core::trainer::{TrainedSizer, Trainer, TrainerConfig};
use sizeless_fleet::{
    FaultPlan, FleetArrival, FleetConfig, FleetFunction, KeepAliveKind, RetryKind, SchedulerKind,
};
use sizeless_platform::{FunctionConfig, MemorySize, Platform};
use sizeless_workload::{BurstyArrival, ExperimentConfig};

/// The size every function is deployed at and monitored from.
const BASE: MemorySize = MemorySize::MB_256;

/// The case-study functions as fleet functions. Each application's paper
/// request rate is split evenly over its functions and driven as a
/// two-state MMPP with that long-run mean: a base state at a third of the
/// mean, and bursts averaging 2 s out of every 10 s.
pub fn functions() -> Vec<FleetFunction> {
    sizeless_apps::all_functions()
        .into_iter()
        .map(|(app, f)| {
            let rps = app.workload().0 / app.functions().len() as f64;
            let base = rps / 3.0;
            let burst = 5.0 * rps - 4.0 * base;
            FleetFunction::new(
                FunctionConfig::new(f.profile, BASE),
                FleetArrival::Bursty(BurstyArrival::new(base, burst, 8_000.0, 2_000.0)),
            )
        })
        .collect()
}

/// Seed of the closed loop's artifact. The artifact is part of the
/// workload, like a deployed model: the run seed drives traffic, faults and
/// monitoring noise. With an artifact trained per seed, its different
/// resize decisions made `wall_s` and `gb_s_per_req` vary by ±15% between
/// seeds.
const ARTIFACT_SEED: u64 = 0xA27_1FAC7;

/// The offline phase at benchmark size: a synthetic dataset measured at
/// every size on one thread, and the Table-2 network trained on it for
/// `epochs` epochs, all seeded by `seed`.
pub fn trainer_config(opts: &Opts, seed: u64, functions: usize, epochs: usize) -> TrainerConfig {
    let mut config = TrainerConfig {
        dataset: DatasetConfig {
            function_count: functions,
            experiment: ExperimentConfig {
                duration_ms: opts.pick(10_000.0, 2_000.0),
                rps: 30.0,
                seed,
            },
            generator: Default::default(),
            seed,
            threads: 1,
        },
        base_size: BASE,
        seed,
        ..TrainerConfig::default()
    };
    config.network.epochs = epochs;
    config
}

/// Generates the dataset and trains the artifact, with a span on each.
pub fn train(
    platform: &Platform,
    config: &TrainerConfig,
    tr: &mut Tracer,
) -> (TrainingDataset, TrainedSizer) {
    let dataset = tr.span("core.dataset", |_| {
        TrainingDataset::generate(platform, &config.dataset)
    });
    let sizer = tr.span("core.train", |_| {
        Trainer::new(*config)
            .train_from_dataset(platform, &dataset)
            .expect("the benchmark dataset has at least ten functions")
    });
    (dataset, sizer)
}

pub fn run(opts: &Opts, out: &mut Outcome, tr: &mut Tracer) {
    let platform = Platform::aws_like();
    let config = trainer_config(opts, ARTIFACT_SEED, opts.pick(120, 12), opts.pick(60, 3));
    // 20 virtual minutes. Over 5 minutes, the bursts, crashes and resize
    // timings a seed draws moved `invocations_per_s` by ±10% between
    // seeds; over 20 minutes they average out to about ±5%.
    let duration_ms = opts.pick(1_200_000.0, 20_000.0);
    let fns = functions();
    let mut first: Option<TrainedSizer> = None;
    let mut identical = true;
    // Set-up: artifact training and fleet construction.
    let ((dataset, spec), setup_s) = repeat_setup(|| {
        let (dataset, sizer) = train(&platform, &config, tr);
        match &first {
            None => first = Some(sizer.clone()),
            Some(s) => identical &= *s == sizer,
        }
        let spec = FleetSpec {
            platform: platform.clone(),
            config: FleetConfig::new(8, 8192.0, duration_ms, opts.seed),
            functions: fns.clone(),
            scheduler: SchedulerKind::WarmFirst,
            keepalive: KeepAliveKind::Adaptive,
            sizer: Some(sizer),
            faults: Some((
                FaultPlan::none()
                    .with_crash_process(60_000.0, 3_000.0)
                    .with_transient(0.02, 0.02, 0.5)
                    .with_seed(opts.seed),
                RetryKind::ExponentialBackoff {
                    base_ms: 50.0,
                    factor: 2.0,
                    cap_ms: 2_000.0,
                    max_attempts: 3,
                    jitter_frac: 0.2,
                    budget_per_fn: None,
                },
            )),
        };
        std::hint::black_box(tr.span("fleet.new", |_| spec.build(spec.config.queue)));
        (dataset, spec)
    });
    out.check(identical, "training is reproducible across set-up repeats");
    out.set("setup_s", setup_s);
    let report = if opts.trace {
        out.set("core.dataset_s", tr.mean_ns("core.dataset") / 1e9);
        out.set("core.train_s", tr.mean_ns("core.train") / 1e9);
        spec.traced(opts, out, tr)
    } else {
        spec.measure(opts, out)
    };
    let rs = report
        .rightsizing
        .as_ref()
        .expect("a closed-loop run reports rightsizing");
    out.check(
        rs.counters.resizes_applied > 0,
        "the closed loop resized at least one function",
    );
    if !opts.trace {
        return;
    }
    let sizer = spec.sizer.as_ref().expect("closed_loop has a sizer");
    let windows = tr.span("bench.service_replay", |tr| {
        service_replay(
            &platform,
            &spec.functions,
            sizer,
            duration_ms,
            opts.seed,
            out,
            tr,
        )
    });
    window_metrics(out, tr);
    recommend_path(sizer, &windows, 1_000, out, tr);
    neural_probe(&dataset, &config, sizer, &windows, out, tr);
    tr.span("bench.offline_probe", |tr| {
        offline_probe(&platform, &config.dataset, opts.nproc(), out, tr)
    });
}
