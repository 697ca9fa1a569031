//! Readout serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper5|mux20|fleet-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Simulates a workload's chip, fits its tenants, registers them with a
//! one-worker `FleetEngine` and drives it from one client thread: closed
//! loop for capacity, then open loop at the workload's fixed rate for
//! latency. Every served verdict is checked bit for bit against the
//! tenant's direct `predict_batch`. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it traces the layers and reports
//! the per-layer metrics instead. The last line of standard output is the
//! JSON result; README.md says what each number means.

mod drive;
mod host;
mod layers;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use drive::{Client, Phase, Tracing};
use host::Host;
use trace::Tracer;
use workload::{Served, SetupTimes, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Closed-loop warm-up after the full pass, before anything is timed.
const WARM_UP_S: f64 = 0.25;
/// Closed/open slice pairs of an untraced run.
const ROUNDS: usize = 10;
/// Closed-loop time is cut into spans this long, ended at a verdict's
/// arrival; `shots_per_s` is the [`CAPACITY_Q`] quantile of their rates.
const SPAN_NS: u64 = 20_000_000;
/// On a shared host a busy thread sometimes runs at two thirds of its
/// speed or less for seconds on end, with no steal time to show for it.
/// A high quantile of the span rates reads the program's speed from the
/// stretches the host left alone; the printed median also counts the
/// stretches it did not.
const CAPACITY_Q: f64 = 0.95;
/// Open-loop requests per block, in due order; `latency_p90_us` is the
/// median of the blocks' p90s, so a host stall moves the blocks it hits,
/// not the result. A thousand also supports the printed p99.
const TAIL_BLOCK: usize = 1000;
/// A run that has not finished by then has lost a ticket.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {value} outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    // One thread per predict_batch: the library reads this on every batch,
    // and nothing has read it yet.
    std::env::set_var("MLR_THREADS", "1");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; a ticket was lost");
        std::process::exit(3);
    });
    let report = run(&args);
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: the run failed its checks");
        ExitCode::FAILURE
    }
}

/// A metric as printed: name, value, unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    outstanding: u64,
    unmatched: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("metric {name} = {value:.6} {unit}");
        self.metrics.push(Metric { name, value, unit });
    }

    fn count(&mut self, phase: &Phase) {
        self.attempted += phase.sent;
        self.failed += phase.failed;
    }

    /// Every verdict matched, nothing was lost, every traced request was
    /// matched to its flush, and every metric could be measured.
    fn correct(&self) -> bool {
        self.failed == 0
            && self.outstanding == 0
            && self.unmatched == 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed + self.outstanding,
        )
    }
}

fn print_host(args: &Args, host: &Host, served: &Served) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host cpu=\"{}\" nproc={} simd_active={} fma_active={} MLR_THREADS={} \
         pool_workers={} client_threads=1 pinned={} git_rev={}",
        host.cpu,
        host.nproc,
        host.simd,
        host.fma,
        host.mlr_threads,
        served.fleet.config().workers,
        served.pinned,
        host.git_rev
    );
    let w = &args.workload;
    println!(
        "workload {}: window={} closed_in_flight={} open_rate={}/s {} limit={} us",
        w.name,
        w.window
            .map_or("scalar".to_owned(), |n| format!("{n} shots")),
        w.in_flight,
        w.rate_hz,
        if w.poisson { "poisson" } else { "even" },
        w.limit_us
    );
}

/// Sets the workload up [`SETUP_REPEATS`] times from scratch and keeps the
/// last set-up to serve from.
fn set_up(args: &Args, cpus: usize, tracer: &mut Tracer) -> (Served, Vec<SetupTimes>) {
    let mut times = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous fleet (joining its worker) before timing the
        // next set-up.
        drop(served.take());
        let (s, t) = workload::set_up(&args.workload, args.seed, cpus, tracer);
        println!(
            "setup {:.4} s (generate {:.4} s, fit {} s)",
            t.total_s,
            t.generate_s,
            t.fit_s
                .iter()
                .map(|f| format!("{f:.4}"))
                .collect::<Vec<_>>()
                .join(" + ")
        );
        times.push(t);
        served = Some(s);
    }
    (served.expect("at least one set-up"), times)
}

fn run(args: &Args) -> Report {
    // Probed before any thread is pinned, which would narrow `nproc`.
    let host = Host::probe();
    let mut tracer = Tracer::new(Instant::now());
    let (served, setups) = set_up(args, host.nproc, &mut tracer);
    print_host(args, &host, &served);
    let mut report = Report::default();
    let mut client = Client::new(args.workload, &served, args.seed);

    let pass = client.full_pass(&tracer);
    report.count(&pass);
    let warm = client.closed_loop("warm-up", WARM_UP_S, Tracing::Off, &tracer);
    report.count(&warm);

    if args.trace {
        traced(
            args,
            &served,
            &mut client,
            &mut tracer,
            &setups,
            &mut report,
        );
    } else {
        // Closed and open slices alternate, so every metric samples the
        // whole run rather than one stretch of host drift.
        let slice = args.seconds / ROUNDS as f64;
        let (mut closed, mut open) = (Vec::new(), Vec::new());
        for _ in 0..ROUNDS {
            closed.push(client.closed_loop("closed", 0.3 * slice, Tracing::Off, &tracer));
            open.push(client.open_loop(0.7 * slice, Tracing::Off, &tracer));
        }
        for phase in closed.iter().chain(&open) {
            report.count(phase);
        }
        end_to_end(args, &setups, &pass, &closed, &open, &mut report);
    }
    let stats = served.fleet.aggregate_stats();
    report.outstanding = stats.outstanding();
    println!(
        "fleet: submitted {} completed {} failed {} outstanding {}",
        stats.total_submitted(),
        stats.completed,
        stats.failed,
        report.outstanding
    );
    report
}

/// Closed-loop capacity, shots per second: the [`CAPACITY_Q`] quantile of
/// the [`SPAN_NS`] span rates of `closed` phases. Prints the spans' median
/// too, which host contention drags down.
fn capacity(closed: &[Phase]) -> f64 {
    let spans: Vec<f64> = closed
        .iter()
        .flat_map(|p| stats::span_rates(p.start_ns, &p.arrivals, SPAN_NS))
        .collect();
    let median = stats::quantile(&spans, 0.5).map_or(f64::NAN, |q| q.value);
    let Some(high) = stats::quantile(&spans, CAPACITY_Q) else {
        return f64::NAN;
    };
    println!(
        "closed loop: {} spans of {} ms, p{:.0} {:.0} shots/s, median {median:.0} shots/s",
        spans.len(),
        SPAN_NS / 1_000_000,
        high.q * 100.0,
        high.value
    );
    high.value
}

fn end_to_end(
    args: &Args,
    setups: &[SetupTimes],
    pass: &Phase,
    closed: &[Phase],
    open: &[Phase],
    report: &mut Report,
) {
    report.add("shots_per_s", capacity(closed), "shots/s");
    let mut samples: Vec<(u64, f64)> = open
        .iter()
        .flat_map(|p| p.latency.iter().copied())
        .collect();
    samples.sort_by_key(|&(due, _)| due);
    let all: Vec<f64> = samples.iter().map(|&(_, us)| us).collect();
    let p50 = stats::quantile(&all, 0.5);
    report.add("latency_p50_us", p50.map_or(f64::NAN, |p| p.value), "us");
    let tail = stats::block_quantiles(&all, TAIL_BLOCK, 0.9);
    let values: Vec<f64> = tail.iter().map(|p| p.value).collect();
    report.add(
        "latency_p90_us",
        stats::median(&values).unwrap_or(f64::NAN),
        "us",
    );
    let sent: u64 = open.iter().map(|p| p.sent).sum();
    let within: u64 = open.iter().map(|p| p.within_limit).sum();
    let p99: Vec<f64> = stats::block_quantiles(&all, TAIL_BLOCK, 0.99)
        .iter()
        .map(|p| p.value.round())
        .collect();
    println!(
        "open loop: {sent} requests due, {within} within {} us, {} latency samples; \
         p99 (not bounded: set by host stalls) whole loop {:?} us, per block {p99:?} us",
        args.workload.limit_us,
        all.len(),
        stats::quantile(&all, 0.99).map(|p| p.value)
    );
    report.add("slo_attain", within as f64 / sent.max(1) as f64, "fraction");
    report.add(
        "assign_error",
        pass.wrong_levels as f64 / pass.levels.max(1) as f64,
        "fraction",
    );
    let totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    report.add("setup_s", stats::median(&totals).unwrap_or(f64::NAN), "s");
}

fn traced(
    args: &Args,
    served: &Served,
    client: &mut Client,
    tracer: &mut Tracer,
    setups: &[SetupTimes],
    report: &mut Report,
) {
    let t = args.seconds;
    let generate: Vec<f64> = setups.iter().map(|s| s.generate_s).collect();
    let fit: Vec<f64> = setups.iter().map(|s| s.fit_s.iter().sum()).collect();

    let start = tracer.now_ns();
    let probe = tracer.push("probe", start, start, None, None);
    let window = args.workload.window.unwrap_or(16);
    let per_tenant = 0.1 * t / served.tenants.len() as f64;
    let costs = layers::plan_costs(served, window, per_tenant, probe, tracer);
    tracer.spans[probe].end_ns = tracer.now_ns();
    for c in &costs {
        println!(
            "plan {}: trunk {:.3} us/shot, heads {:.3} us/shot ({}-shot windows)",
            served.tenants[c.tenant].label, c.trunk_us_per_shot, c.heads_us_per_shot, window
        );
    }

    let untraced = client.closed_loop("closed", 0.3 * t, Tracing::Off, tracer);
    report.count(&untraced);
    served.log.set_recording(true);
    let traced_closed = client.closed_loop("closed-traced", 0.3 * t, Tracing::On, tracer);
    report.count(&traced_closed);
    let overhead =
        capacity(std::slice::from_ref(&traced_closed)) / capacity(std::slice::from_ref(&untraced));
    drop(traced_closed);
    served.log.take();
    let before = served.fleet.aggregate_stats();
    let start = tracer.now_ns();
    let open = client.open_loop(0.3 * t, Tracing::On, tracer);
    served.log.set_recording(false);
    report.count(&open);
    let after = served.fleet.aggregate_stats();
    let phase = tracer.push("phase.open", start, tracer.now_ns(), None, None);
    let flushes = served.log.take();
    let (stages, unmatched) = layers::split_requests(&open.records, &flushes, phase, tracer);
    report.unmatched = unmatched;
    println!(
        "traced open loop: {} requests matched to {} flushes, {unmatched} unmatched",
        stages.len(),
        flushes.len()
    );

    report.add(
        "sim.generate_s",
        stats::median(&generate).unwrap_or(f64::NAN),
        "s",
    );
    report.add(
        "registry.fit_s",
        stats::median(&fit).unwrap_or(f64::NAN),
        "s",
    );
    // Weighted by each plan tenant's share of requests.
    let weight: f64 = costs.iter().map(|c| served.tenants[c.tenant].share).sum();
    let weighted = |f: fn(&layers::PlanCost) -> f64| {
        costs
            .iter()
            .map(|c| f(c) * served.tenants[c.tenant].share)
            .sum::<f64>()
            / weight
    };
    let trunk = weighted(|c| c.trunk_us_per_shot);
    let heads = weighted(|c| c.heads_us_per_shot);
    report.add("plan.trunk_us_per_shot", trunk, "us");
    report.add("plan.heads_us_per_shot", heads, "us");
    println!("plan trunk share = {:.4}", trunk / (trunk + heads));

    let pick = |f: fn(&layers::Stages) -> f64| stages.iter().map(f).collect::<Vec<f64>>();
    let q = |v: &[f64], q: f64| stats::quantile(v, q).map_or(f64::NAN, |got| got.value);
    let submit = pick(|s| s.submit_us);
    let queue = pick(|s| s.queue_wait_us);
    let resolve = pick(|s| s.resolve_us);
    report.add("engine.submit_us.p50", q(&submit, 0.5), "us");
    report.add("engine.submit_us.p99", q(&submit, 0.99), "us");
    let classify: Vec<f64> = flushes
        .iter()
        .map(|f| (f.end_ns - f.start_ns) as f64 / 1e3)
        .collect();
    let batch: Vec<f64> = flushes.iter().map(|f| f.keys.len() as f64).collect();
    report.add("engine.classify_us.p50", q(&classify, 0.5), "us");
    report.add(
        "engine.batch_shots.mean",
        stats::mean(&batch).unwrap_or(f64::NAN),
        "count",
    );
    report.add("engine.queue_wait_us.p50", q(&queue, 0.5), "us");
    report.add("engine.queue_wait_us.p99", q(&queue, 0.99), "us");
    report.add("engine.resolve_us.p50", q(&resolve, 0.5), "us");
    report.add("engine.resolve_us.p99", q(&resolve, 0.99), "us");
    let engine: f64 = stages
        .iter()
        .map(|s| s.submit_us + s.queue_wait_us + s.resolve_us)
        .sum();
    let total: f64 = stages.iter().map(|s| s.latency_us).sum();
    report.add("engine.overhead_share", engine / total, "fraction");
    report.add(
        "engine.flushes",
        (after.flushes - before.flushes) as f64,
        "count",
    );
    let shed = |s: &mlr_core::EngineStats| s.shed.iter().sum::<u64>();
    report.add(
        "engine.shed",
        (shed(&after) - shed(&before)) as f64,
        "count",
    );
    report.add(
        "engine.failed",
        (after.failed - before.failed) as f64,
        "count",
    );
    report.add("engine.max_depth", after.max_depth as f64, "count");
    report.add("client.late_us.p99", q(&open.late_us, 0.99), "us");
    report.add("trace.overhead", overhead, "ratio");

    let selfs = trace::self_times(&tracer.spans);
    let mut by_name: Vec<(&str, u64, u64)> = Vec::new();
    for (span, own) in tracer.spans.iter().zip(&selfs) {
        match by_name.iter_mut().find(|(n, _, _)| *n == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += own;
            }
            None => by_name.push((span.name, 1, *own)),
        }
    }
    for (name, count, own) in by_name {
        println!(
            "self time {name}: {count} spans, {:.3} ms total, {:.3} us mean",
            own as f64 / 1e6,
            own as f64 / 1e3 / count as f64
        );
    }
    let path = PathBuf::from(format!(
        "perfbench/traces/{}-seed{}.csv",
        args.workload.name, args.seed
    ));
    match tracer.write_csv(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
}
