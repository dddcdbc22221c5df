//! `fleet_wide`: about 400 synthetic functions with Zipf popularity on 64
//! hosts — many functions with sparse traffic, so host placement and
//! eviction dominate.

use crate::common::{repeat_setup, Opts, Outcome};
use crate::fleets::FleetSpec;
use crate::trace::Tracer;
use sizeless_engine::RngStream;
use sizeless_fleet::{FleetArrival, FleetConfig, FleetFunction, KeepAliveKind, SchedulerKind};
use sizeless_funcgen::{FunctionGenerator, GeneratorConfig};
use sizeless_platform::{FunctionConfig, MemorySize, Platform};
use sizeless_workload::ArrivalProcess;

/// Memory of every host, MB.
const HOST_MB: f64 = 8192.0;

/// Seed of the function population. The population is the same for every
/// run seed, which drives the traffic instead: with a population drawn per
/// seed, the few most popular functions' profiles made `wall_s` and
/// `gb_s_per_req` vary by ±20% between seeds.
const POPULATION_SEED: u64 = 0x5EED_F1EE7;

/// `n` generated functions whose Poisson rates follow Zipf (s = 1) over
/// popularity rank and sum to `total_rps`; the function of rank `i` is
/// deployed at standard size `i mod 6`, so every size is used.
fn functions(n: usize, total_rps: f64, tr: &mut Tracer) -> Vec<FleetFunction> {
    let mut rng = RngStream::from_seed(POPULATION_SEED, "perfbench-fleet_wide");
    let mut generator = FunctionGenerator::new(GeneratorConfig::default());
    let harmonic: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    (0..n)
        .map(|i| {
            let f = tr.span("funcgen.generate", |_| generator.generate(&mut rng));
            let size = MemorySize::STANDARD[i % MemorySize::STANDARD.len()];
            let rps = total_rps / harmonic / (i + 1) as f64;
            FleetFunction::new(
                FunctionConfig::new(f.profile, size),
                FleetArrival::Steady(ArrivalProcess::poisson(rps)),
            )
        })
        .collect()
}

fn spec(functions: Vec<FleetFunction>, hosts: usize, duration_ms: f64, seed: u64) -> FleetSpec {
    FleetSpec {
        platform: Platform::aws_like(),
        config: FleetConfig::new(hosts, HOST_MB, duration_ms, seed),
        functions,
        scheduler: SchedulerKind::WarmFirst,
        keepalive: KeepAliveKind::Adaptive,
        sizer: None,
        faults: None,
    }
}

pub fn run(opts: &Opts, out: &mut Outcome, tr: &mut Tracer) -> Vec<String> {
    let n = opts.pick(400, 40);
    let hosts = opts.pick(64, 8);
    let duration_ms = opts.pick(20_000.0, 2_000.0);
    // Set-up: function generation and `Fleet::new`.
    let (spec, setup_s) = repeat_setup(|| {
        let spec = spec(functions(n, n as f64, tr), hosts, duration_ms, opts.seed);
        std::hint::black_box(tr.span("fleet.new", |_| spec.build(spec.config.queue)));
        spec
    });
    out.set("setup_s", setup_s);
    out.set("funcgen.generate_us", tr.mean_ns("funcgen.generate") / 1e3);
    out.set("funcgen.functions", n as f64);
    if !opts.trace {
        spec.measure(opts, out);
        return Vec::new();
    }
    spec.traced(opts, out, tr);
    ladder(opts)
}

/// The scale ladder (reported, not gated): the `fleet_wide` shape at
/// functions {10, 100, 400, 1000} x hosts {8, 64}, one rps per function on
/// average, over a short horizon. Each rung is one untraced run (for
/// invocations/s) and one step-driven run on its own tracer (for the step
/// p99); returns one JSON line per rung.
fn ladder(opts: &Opts) -> Vec<String> {
    let rungs: &[(usize, usize)] = if opts.tiny {
        &[(10, 8)]
    } else {
        &[
            (10, 8),
            (10, 64),
            (100, 8),
            (100, 64),
            (400, 8),
            (400, 64),
            (1000, 8),
            (1000, 64),
        ]
    };
    let duration_ms = opts.pick(2_000.0, 500.0);
    eprintln!(
        "[perfbench] scale ladder ({} s virtual per rung):",
        duration_ms / 1e3
    );
    eprintln!(
        "{:>9} {:>6} {:>12} {:>11} {:>18}",
        "functions", "hosts", "invocations", "inv/s", "engine.step_us_p99"
    );
    let mut lines = Vec::new();
    for &(n, hosts) in rungs {
        let mut tr = Tracer::new(true);
        let spec = spec(
            functions(n, n as f64, &mut tr),
            hosts,
            duration_ms,
            opts.seed,
        );
        let (report, wall) = spec.run(spec.config.queue);
        spec.run_stepped(&mut tr);
        let settled = (report.counters.completed + report.counters.failed) as f64;
        let ips = settled / wall.as_secs_f64();
        let p99 = tr
            .stats("engine.step")
            .map_or(0.0, |s| s.percentile_ns(0.99) / 1e3);
        eprintln!("{n:>9} {hosts:>6} {settled:>12} {ips:>11.0} {p99:>18.2}");
        lines.push(format!(
            "{{\"kind\":\"ladder\",\"functions\":{n},\"hosts\":{hosts},\"invocations\":{settled},\"invocations_per_s\":{ips},\"engine.step_us_p99\":{p99}}}"
        ));
    }
    lines
}
