//! Measurement drivers shared by the two fleet workloads.
//!
//! * [`FleetSpec::measure`] — the end-to-end loop: untraced
//!   `Fleet::run` iterations, each report checked for conservation and
//!   digest-compared with the first.
//! * [`FleetSpec::traced`] — the traced run: rounds of A/B runs (calendar
//!   vs heap queue, ring vs null sink) and a step-driven run
//!   (`Fleet::prime` + `Simulation::step` + `Fleet::into_report`) with one
//!   span per engine step, then a replay driver that feeds the workload's
//!   arrival stream through the public host, scheduler and keep-alive
//!   calls, and an `EventQueue` hold model at the run's peak queue depth.

use crate::common::{digest, measure_for, median, timed, Opts, Outcome};
use crate::trace::Tracer;
use sizeless_core::service::{ServiceConfig, SizingService};
use sizeless_core::trainer::TrainedSizer;
use sizeless_engine::{EventQueue, QueueKind, RngStream, SimTime, Simulation};
use sizeless_fleet::{
    FaultPlan, Fleet, FleetArrival, FleetConfig, FleetFunction, FleetReport, FleetSim, Host,
    KeepAliveKind, KeepAlivePolicy, Placement, RetryKind, SchedulerKind,
};
use sizeless_obs::{MemorySink, RingBufferSink, TraceSink};
use sizeless_platform::Platform;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

const MB_MS_TO_GB_S: f64 = 1.0 / (1024.0 * 1000.0);

/// Everything that defines one fleet run.
pub struct FleetSpec {
    pub platform: Platform,
    pub config: FleetConfig,
    pub functions: Vec<FleetFunction>,
    pub scheduler: SchedulerKind,
    pub keepalive: KeepAliveKind,
    /// Closed-loop sizing: the trained artifact the embedded service uses.
    pub sizer: Option<TrainedSizer>,
    pub faults: Option<(FaultPlan, RetryKind)>,
}

impl FleetSpec {
    /// A fresh fleet for one run, on the given event queue.
    pub fn build(&self, queue: QueueKind) -> Fleet {
        let default_ttl = self.platform.cold_start_model().idle_ttl_ms;
        let mut fleet = Fleet::new(
            &self.platform,
            &self.config.with_queue(queue),
            &self.functions,
            self.scheduler.build(),
            self.keepalive.build(self.functions.len(), default_ttl),
        );
        if let Some(sizer) = &self.sizer {
            fleet = fleet.with_sizing(SizingService::new(sizer.clone(), ServiceConfig::default()));
        }
        if let Some((plan, retry)) = &self.faults {
            fleet = fleet.with_faults(plan).with_retries(*retry);
        }
        fleet
    }

    /// One untraced run; the fleet is built before the clock starts.
    pub fn run(&self, queue: QueueKind) -> (FleetReport, Duration) {
        let fleet = self.build(queue);
        timed(|| fleet.run())
    }

    /// One run recording into `sink`; returns the sink too.
    fn run_with_sink<T: TraceSink + 'static>(&self, sink: T) -> (FleetReport, T, Duration) {
        let fleet = self.build(self.config.queue).with_trace(sink);
        let ((report, sink), d) = timed(|| fleet.run_traced());
        (report, sink, d)
    }

    /// One run driven step by step, with a span per engine step.
    pub fn run_stepped(&self, tr: &mut Tracer) -> (FleetReport, Duration) {
        let mut fleet = tr.span("fleet.new", |_| self.build(self.config.queue));
        timed(|| {
            tr.span("bench.stepped_run", |tr| {
                let mut sim: FleetSim<_> =
                    Simulation::with_queue(self.config.queue, fleet.event_capacity_hint());
                tr.span("fleet.prime", |_| fleet.prime(&mut sim));
                while tr.span("engine.step", |_| sim.step(&mut fleet)) {}
                tr.span("fleet.into_report", |_| fleet.into_report(&sim))
            })
        })
    }

    /// The end-to-end loop. Sets `wall_s`, `invocations_per_s`,
    /// `gb_s_per_req` and `peak_rss_mb`; returns the first report.
    pub fn measure(&self, opts: &Opts, out: &mut Outcome) -> FleetReport {
        let mut first: Option<(FleetReport, u64)> = None;
        let (walls, rss) = measure_for(opts.seconds, |_| {
            let (report, d) = self.run(self.config.queue);
            check_report(out, &report, &mut first);
            d
        });
        let (report, _) = first.expect("measure_for runs at least once");
        let settled = (report.counters.completed + report.counters.failed) as f64;
        let wall = median(&walls);
        eprintln!(
            "[perfbench] {} runs, min {:.4} median {wall:.4} max {:.4} s: {} events, {settled} settled, {} cold starts, {} evictions, {} expirations, {} throttled, {} resizes",
            walls.len(),
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            walls.iter().copied().fold(0.0, f64::max),
            report.sim.events_executed,
            report.counters.cold_starts,
            report.evictions,
            report.expirations,
            report.counters.throttled(),
            report.rightsizing.as_ref().map_or(0, |r| r.counters.resizes_applied),
        );
        out.set("wall_s", wall);
        out.set("invocations_per_s", settled / wall);
        out.set("gb_s_per_req", gb_s_per_req(&report));
        out.set("peak_rss_mb", rss);
        report
    }

    /// The traced run: every fleet-side per-layer metric.
    pub fn traced(&self, opts: &Opts, out: &mut Outcome, tr: &mut Tracer) -> FleetReport {
        let mut first: Option<(FleetReport, u64)> = None;
        let (mut calendar, mut heap, mut ring, mut stepped) = (vec![], vec![], vec![], vec![]);
        let mut ring_records = 0u64;
        measure_for(opts.seconds, |i| {
            // The warm-up round (i = 0) is checked but not timed.
            let keep = |walls: &mut Vec<f64>, d: Duration| {
                if i > 0 {
                    walls.push(d.as_secs_f64());
                }
                d
            };
            let (r, d) = self.run(self.config.queue);
            check_report(out, &r, &mut first);
            let mut spent = keep(&mut calendar, d);
            let (r, d) = self.run(QueueKind::Heap);
            check_report(out, &r, &mut first);
            spent += keep(&mut heap, d);
            let (r, sink, d) = self.run_with_sink(RingBufferSink::new(1 << 16));
            check_report(out, &r, &mut first);
            ring_records = sink.recorded();
            spent += keep(&mut ring, d);
            let (r, d) = self.run_stepped(tr);
            check_report(out, &r, &mut first);
            spent + keep(&mut stepped, d)
        });
        let (report, _) = first.expect("measure_for runs at least once");

        let untraced = median(&calendar);
        out.set("engine.calendar_vs_heap", untraced / median(&heap));
        out.set("obs.ring_vs_null", median(&ring) / untraced);
        out.set("trace.wall_s", median(&stepped));
        out.set(
            "trace.overhead_pct",
            100.0 * (median(&stepped) / untraced - 1.0),
        );

        let (mem_report, sink, _) = self.run_with_sink(MemorySink::new());
        out.check(
            digest(&mem_report) == digest(&report),
            "a MemorySink run reproduces the untraced report",
        );
        out.check(
            sink.len() as u64 == ring_records,
            "MemorySink and RingBufferSink saw the same number of records",
        );
        let jsonl = tr.span("obs.to_jsonl", |_| sink.to_jsonl());
        out.check(
            jsonl.lines().count() == sink.len(),
            "JSONL export has one line per record",
        );
        out.set("obs.records", sink.len() as f64);
        out.set("obs.jsonl_export_ms", tr.mean_ns("obs.to_jsonl") / 1e6);

        let steps = tr.stats("engine.step").expect("the stepped run took steps");
        out.set("engine.step_us_p50", steps.percentile_ns(0.50) / 1e3);
        out.set("engine.step_us_p99", steps.percentile_ns(0.99) / 1e3);
        out.set("engine.step_samples", steps.count as f64);
        out.set("engine.events", report.sim.events_executed as f64);
        out.set(
            "engine.peak_queue_depth",
            report.sim.peak_queue_depth as f64,
        );

        let c = &report.counters;
        let dispatches = (c.completed + c.failed_attempts) as f64;
        out.set("fleet.cold_starts", c.cold_starts as f64);
        out.set("fleet.evictions", report.evictions as f64);
        out.set("fleet.expirations", report.expirations as f64);
        out.set("fleet.throttled", c.throttled() as f64);
        out.set("fleet.retries", c.retries_scheduled as f64);
        out.set(
            "fleet.warm_hit_pct",
            100.0 * (1.0 - c.cold_starts as f64 / dispatches),
        );
        out.set("cold_start_pct", 100.0 * c.cold_starts as f64 / dispatches);
        out.set(
            "failed_pct",
            100.0 * (c.throttled() + c.failed) as f64 / c.submitted as f64,
        );

        let conserved = tr.span("bench.replay_fleet", |tr| replay(self, tr));
        out.check(conserved, "replay driver accounted for every arrival");
        for span in [
            "fleet.select_host",
            "fleet.try_begin",
            "fleet.complete",
            "fleet.keepalive",
            "platform.execute",
        ] {
            out.set(format!("{span}_ns"), tr.mean_ns(span));
            out.set(format!("{span}_calls"), tr.count(span) as f64);
        }

        let depth = report.sim.peak_queue_depth.max(1);
        let gap_ms = report.horizon_ms / report.sim.events_executed.max(1) as f64;
        let ops = opts.pick(2_000_000, 20_000);
        let (heap_ns, heap_sum) = tr.span("bench.hold_model", |tr| {
            hold_model(QueueKind::Heap, depth, gap_ms, ops, opts.seed, tr)
        });
        let (cal_ns, cal_sum) = tr.span("bench.hold_model", |tr| {
            hold_model(QueueKind::calendar(), depth, gap_ms, ops, opts.seed, tr)
        });
        out.check(
            heap_sum == cal_sum,
            "heap and calendar queues pop the same schedule",
        );
        out.set("engine.queue_ns_per_op.heap", heap_ns);
        out.set("engine.queue_ns_per_op.calendar", cal_ns);
        report
    }
}

/// Checks one report: conserved, and identical to the first report of the
/// run (same seed, same inputs, whatever queue, sink or driver ran it).
fn check_report(out: &mut Outcome, report: &FleetReport, first: &mut Option<(FleetReport, u64)>) {
    out.check(
        report.counters.is_conserved(),
        "fleet counters are conserved",
    );
    let d = digest(report);
    match first {
        None => *first = Some((report.clone(), d)),
        Some((_, d0)) => out.check(d == *d0, "fleet report digest is identical across runs"),
    }
}

/// Execution GB·s per completed request.
fn gb_s_per_req(r: &FleetReport) -> f64 {
    r.counters.exec_mb_ms * MB_MS_TO_GB_S / r.counters.completed.max(1) as f64
}

/// Every function's arrival times over `duration_ms`, each from its own
/// stream under `root`, merged in time order (ties by function id).
pub fn merged_arrivals(
    functions: &[FleetFunction],
    duration_ms: f64,
    root: &RngStream,
) -> Vec<(f64, usize)> {
    let mut arrivals: Vec<(f64, usize)> = Vec::new();
    for (i, f) in functions.iter().enumerate() {
        let mut rng = root.derive(&format!("arrivals/{i}"));
        let times = match f.arrival {
            FleetArrival::Steady(p) => p.arrivals_ms(duration_ms, &mut rng),
            FleetArrival::Bursty(b) => b.arrivals_ms(duration_ms, &mut rng),
        };
        arrivals.extend(times.into_iter().map(|t| (t, i)));
    }
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    arrivals
}

/// Feeds the workload's arrival stream through the public placement calls
/// on a `Vec<Host>` of the workload's shape: `KeepAlivePolicy::
/// observe_arrival`, `Scheduler::select_host`, `Host::try_begin`, the
/// platform's invocation sampler, then `KeepAlivePolicy::ttl_ms` and
/// `Host::complete` at each completion. Sizes stay as deployed (no sizing,
/// no faults): this isolates placement cost on the workload's traffic.
/// Returns whether every arrival was dispatched or throttled and every
/// dispatch completed.
fn replay(spec: &FleetSpec, tr: &mut Tracer) -> bool {
    let cfg = &spec.config;
    let root = RngStream::from_seed(cfg.seed, "perfbench-replay");
    let arrivals = merged_arrivals(&spec.functions, cfg.duration_ms, &root);

    let default_ttl = spec.platform.cold_start_model().idle_ttl_ms;
    let mut hosts: Vec<Host> = (0..cfg.hosts)
        .map(|i| Host::new(i, cfg.host_memory_mb))
        .collect();
    let mut scheduler = spec.scheduler.build();
    let mut keepalive = spec.keepalive.build(spec.functions.len(), default_ttl);
    let mut sched_rng = root.derive("scheduler");
    let mut exec_rng = root.derive("executions");
    let mut completions = Completions::default();
    let (mut dispatched, mut throttled) = (0usize, 0usize);
    for &(at, fn_id) in &arrivals {
        completions.settle(at, &mut hosts, keepalive.as_mut(), tr);
        tr.span("fleet.keepalive", |_| keepalive.observe_arrival(fn_id, at));
        let config = &spec.functions[fn_id].config;
        let memory = config.memory();
        let mem_mb = f64::from(memory.mb());
        let host = tr.span("fleet.select_host", |_| {
            scheduler.select_host(fn_id, mem_mb, &mut hosts, at, &mut sched_rng)
        });
        let placed = host.and_then(|h| {
            tr.span("fleet.try_begin", |_| {
                hosts[h].try_begin(fn_id, mem_mb, default_ttl, at)
            })
            .map(|p| (h, p))
        });
        let Some((host, (placement, cold))) = placed else {
            throttled += 1;
            continue;
        };
        dispatched += 1;
        let record = tr.span("platform.execute", |_| {
            spec.platform
                .invoke_unnamed_at(config, memory, cold, &mut exec_rng)
        });
        if cold {
            keepalive.observe_cold_start(fn_id, record.init_ms);
        }
        let busy_ms = record.init_ms + record.duration_ms;
        completions.push(Pending {
            fn_id,
            host,
            placement,
            finish_ms: at + busy_ms,
            busy_ms,
        });
    }
    completions.settle(f64::INFINITY, &mut hosts, keepalive.as_mut(), tr);
    let in_flight: usize = hosts.iter().map(Host::in_flight).sum();
    dispatched + throttled == arrivals.len() && completions.settled == dispatched && in_flight == 0
}

/// A started invocation awaiting completion in the replay driver.
#[derive(Clone, Copy)]
struct Pending {
    fn_id: usize,
    host: usize,
    placement: Placement,
    finish_ms: f64,
    busy_ms: f64,
}

/// The replay driver's completion queue, in finish-time order.
#[derive(Default)]
struct Completions {
    /// (finish time bits, slot): non-negative floats order like their bits.
    order: BinaryHeap<Reverse<(u64, usize)>>,
    slots: Vec<Pending>,
    settled: usize,
}

impl Completions {
    fn push(&mut self, p: Pending) {
        self.order
            .push(Reverse((p.finish_ms.to_bits(), self.slots.len())));
        self.slots.push(p);
    }

    /// Completes every invocation finishing at or before `until_ms`.
    fn settle(
        &mut self,
        until_ms: f64,
        hosts: &mut [Host],
        keepalive: &mut dyn KeepAlivePolicy,
        tr: &mut Tracer,
    ) {
        while let Some(&Reverse((bits, slot))) = self.order.peek() {
            if f64::from_bits(bits) > until_ms {
                break;
            }
            self.order.pop();
            let p = self.slots[slot];
            let ttl = tr.span("fleet.keepalive", |_| keepalive.ttl_ms(p.fn_id));
            tr.span("fleet.complete", |_| {
                hosts[p.host].complete(p.fn_id, p.placement, p.finish_ms, ttl, p.busy_ms)
            });
            self.settled += 1;
        }
    }
}

/// The classic hold model: keep `depth` events pending, pop the earliest
/// and schedule a replacement an exponential `depth * gap_ms` later, `ops`
/// times. Returns ns per hold (one pop plus one schedule) and a checksum of
/// the popped schedule, which must not depend on the queue kind.
fn hold_model(
    kind: QueueKind,
    depth: usize,
    gap_ms: f64,
    ops: usize,
    seed: u64,
    tr: &mut Tracer,
) -> (f64, u64) {
    let mut rng = RngStream::from_seed(seed, "perfbench-hold");
    let mean = depth as f64 * gap_ms;
    let mut incr = move || -(1.0 - rng.next_f64()).ln() * mean;
    let mut q: EventQueue<u32> = EventQueue::with_capacity(kind, depth);
    for i in 0..depth {
        q.schedule(SimTime::from_millis(incr()), i as u32);
    }
    let name = match kind {
        QueueKind::Heap => "engine.hold_heap",
        QueueKind::Calendar { .. } => "engine.hold_calendar",
    };
    let (sum, d) = tr.span(name, |_| {
        timed(|| {
            let mut sum = 0u64;
            for _ in 0..ops {
                let (t, id) = q.pop().expect("the hold model keeps the queue non-empty");
                sum = sum
                    .wrapping_mul(31)
                    .wrapping_add(t.as_millis().to_bits() ^ u64::from(id));
                q.schedule(SimTime::from_millis(t.as_millis() + incr()), id);
            }
            sum
        })
    });
    (d.as_nanos() as f64 / ops as f64, sum)
}
