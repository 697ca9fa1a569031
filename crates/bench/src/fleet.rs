//! Multi-tenant serving workloads: the drivers behind `mlr serve-stats`,
//! the `fleet_saturation` bench and the CI fleet smoke step.
//!
//! Three scenarios, all built on [`mlr_core::FleetEngine`]:
//!
//! * **Throughput** ([`run_fleet_throughput`]): many concurrent sessions
//!   per model submit shots through the admission-controlled path,
//!   driven as async tasks on the in-tree [`exec`] executor (tickets are
//!   futures). Each session keeps a bounded submission window sized so a
//!   healthy fleet never sheds — when it is rejected anyway it awaits its
//!   oldest in-flight ticket and retries, so backpressure costs latency,
//!   never correctness. The report compares the fleet's aggregate rate
//!   against the *direct-equivalent* rate: the time the same shots would
//!   have taken as plain `predict_batch` calls, one model after another
//!   — the fair single-machine baseline (a 1-core container cannot
//!   parallelise past the sum of the parts).
//! * **Saturation** ([`run_fleet_saturation`]): every tenant is wrapped
//!   in a gate-held [`FaultyDiscriminator`] so its worker is pinned
//!   inside `predict_batch` while sessions flood the queues far past
//!   `max_queue`. Overload must be absorbed by the typed shed counters —
//!   never by a hang or a lost ticket: once the gates open and the fleet
//!   drains, `accepted == completed` exactly ([`SaturationReport::lost`]
//!   is zero). Deterministic by construction: gates, not sleeps.
//! * **Eviction churn** ([`run_fleet_eviction_churn`]): more models than
//!   hot slots stream through an LRU-evicting fleet, each served a
//!   vectored burst before the next registration evicts the coldest.
//!   Conservation must survive the churn — counters from retired tenants
//!   fold into the aggregate and no accepted shot is ever lost.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use exec::Executor;
use mlr_core::engine::fault::{FaultMode, FaultyDiscriminator, Gate};
use mlr_core::spec::BoxedDiscriminator;
use mlr_core::{
    BatchTicket, EngineConfig, EngineStats, EvictPolicy, FleetConfig, FleetEngine, Qos, Rejected,
    Session, Ticket,
};
use mlr_num::Complex;

/// Shape of a fleet workload: how many tenants, how hard each is hit.
#[derive(Debug, Clone, Copy)]
pub struct FleetScenario {
    /// Concurrent sessions per model.
    pub sessions_per_model: usize,
    /// Shots each session submits.
    pub shots_per_session: usize,
    /// Shots per submission call. `1` uses the scalar `try_submit` path;
    /// anything larger submits vectored windows through
    /// [`Session::try_submit_all`] — one lock, one wake, one
    /// [`BatchTicket`] per window.
    pub window: usize,
    /// Per-worker batching and admission policy.
    pub engine: EngineConfig,
}

impl Default for FleetScenario {
    fn default() -> Self {
        Self {
            sessions_per_model: 8,
            shots_per_session: 512,
            window: 1,
            engine: EngineConfig::default(),
        }
    }
}

/// Outcome of a [`run_fleet_throughput`] run.
#[derive(Debug, Clone)]
pub struct FleetThroughputReport {
    /// Models served.
    pub models: usize,
    /// Total concurrent sessions (across models).
    pub sessions: usize,
    /// Shots completed with a verdict.
    pub completed: u64,
    /// Times a session was shed and had to await + retry.
    pub shed_retries: u64,
    /// Wall-clock seconds for the whole run.
    pub elapsed: f64,
    /// Completed shots per second across the whole fleet.
    pub aggregate_rate: f64,
    /// Fleet-wide counter sum after the drain.
    pub stats: EngineStats,
    /// Accepted-but-never-resolved tickets — must be zero.
    pub lost: u64,
}

impl FleetThroughputReport {
    /// The fleet's share of the direct-equivalent rate: `aggregate_rate`
    /// divided by the rate the same per-model shot counts would achieve
    /// as plain sequential `predict_batch` calls (`direct_rates` in shots
    /// per second, one entry per model, same order as the run's tenants).
    /// The serving acceptance bar is ≥ 0.8.
    pub fn efficiency_vs_direct(&self, direct_rates: &[f64], shots_per_model: &[u64]) -> f64 {
        let direct_secs: f64 = direct_rates
            .iter()
            .zip(shots_per_model)
            .map(|(&rate, &shots)| shots as f64 / rate.max(f64::MIN_POSITIVE))
            .sum();
        if direct_secs <= 0.0 {
            return 0.0;
        }
        let direct_equivalent_rate = shots_per_model.iter().sum::<u64>() as f64 / direct_secs;
        self.aggregate_rate / direct_equivalent_rate
    }
}

/// One session's async submission loop: windowed in-flight tickets,
/// await-oldest-and-retry on shed.
async fn session_task(
    session: Session,
    shots: Arc<Vec<Vec<Complex>>>,
    offset: usize,
    count: usize,
    window: usize,
) -> (u64, u64) {
    let mut inflight: VecDeque<Ticket> = VecDeque::new();
    let mut completed = 0u64;
    let mut shed_retries = 0u64;
    for k in 0..count {
        let raw = &shots[(offset + k) % shots.len()];
        loop {
            match session.try_submit(raw) {
                Ok(ticket) => {
                    inflight.push_back(ticket);
                    break;
                }
                Err(Rejected::Shed { .. }) | Err(Rejected::QueueFull { .. }) => {
                    // Overloaded: drain our own oldest ticket (yield if we
                    // have none) and try again — cooperative backpressure.
                    shed_retries += 1;
                    match inflight.pop_front() {
                        Some(ticket) => {
                            ticket.await.expect("fleet worker failed mid-run");
                            completed += 1;
                        }
                        None => exec::yield_now().await,
                    }
                }
                Err(refusal) => panic!("fleet refused a healthy submission: {refusal}"),
            }
        }
        if inflight.len() >= window {
            // Drain half the window in one wake-up: the first await parks
            // until its flush lands, and the rest of that batch is then
            // already resolved — one context switch amortised over
            // window/2 tickets instead of paid per shot.
            while inflight.len() > window / 2 {
                let ticket = inflight.pop_front().expect("window bounds inflight");
                ticket.await.expect("fleet worker failed mid-run");
                completed += 1;
            }
        }
    }
    while let Some(ticket) = inflight.pop_front() {
        ticket.await.expect("fleet worker failed mid-run");
        completed += 1;
    }
    (completed, shed_retries)
}

/// One session's *vectored* submission loop: zero-copy `window`-shot
/// slices through [`Session::try_submit_all_shared`] (the engine clones
/// `Arc` refcounts instead of memcpying 4 KB per shot), a bounded deque
/// of in-flight [`BatchTicket`]s, and [`mlr_core::PartialShed`]-aware
/// backpressure — a shed window keeps its admitted prefix, and the
/// refused remainder goes through the blocking
/// [`Session::submit_all_shared`] path, which parks on the queue's space
/// condvar instead of busy-retrying (a retry loop would re-shed the same
/// window on every spin and drown the shed counters in noise).
async fn vectored_session_task(
    session: Session,
    shots: Arc<Vec<Arc<[Complex]>>>,
    offset: usize,
    count: usize,
    window: usize,
) -> (u64, u64) {
    const MAX_INFLIGHT_WINDOWS: usize = 2;
    let mut inflight: VecDeque<BatchTicket> = VecDeque::new();
    let mut completed = 0u64;
    let mut shed_windows = 0u64;
    let mut submitted = 0usize;
    while submitted < count {
        let take = window.min(count - submitted);
        let refs: Vec<Arc<[Complex]>> = (0..take)
            .map(|k| Arc::clone(&shots[(offset + submitted + k) % shots.len()]))
            .collect();
        match session.try_submit_all_shared(&refs) {
            Ok(ticket) => {
                submitted += take;
                inflight.push_back(ticket);
            }
            Err(shed) => {
                // The admitted prefix is already queued — account it
                // before handling the remainder, or shots double-submit.
                submitted += shed.admitted_count;
                if let Some(ticket) = shed.admitted {
                    inflight.push_back(ticket);
                }
                match shed.reason {
                    Rejected::Shed { .. } | Rejected::QueueFull { .. } => {
                        shed_windows += 1;
                        let remainder = &refs[shed.admitted_count..];
                        inflight.push_back(session.submit_all_shared(remainder));
                        submitted += remainder.len();
                    }
                    refusal => panic!("fleet refused a healthy window: {refusal}"),
                }
            }
        }
        while inflight.len() > MAX_INFLIGHT_WINDOWS {
            let ticket = inflight.pop_front().expect("bounded inflight deque");
            let verdicts = ticket.await.expect("fleet worker failed mid-run");
            completed += verdicts.len() as u64;
        }
    }
    while let Some(ticket) = inflight.pop_front() {
        let verdicts = ticket.await.expect("fleet worker failed mid-run");
        completed += verdicts.len() as u64;
    }
    (completed, shed_windows)
}

/// Serves `shots` through every registered tenant of `fleet` from
/// `scenario.sessions_per_model` concurrent async sessions per model and
/// measures the aggregate verdict rate.
///
/// `tenants` are the fingerprints to hit (all must be registered or
/// loadable). Sessions run as tasks on a [`exec::Executor`] with
/// `executor_threads` workers. With `scenario.window == 1` each session
/// drives the scalar `try_submit` path with an in-flight ticket window
/// sized from the engine config; with `scenario.window > 1` sessions
/// submit whole windows through [`Session::try_submit_all`] — one lock
/// and one wake per window instead of per shot.
///
/// # Panics
///
/// Panics if a tenant session cannot be opened or a worker fails mid-run
/// — throughput numbers from a degraded fleet would be lies.
pub fn run_fleet_throughput(
    fleet: &FleetEngine,
    tenants: &[u64],
    shots: &[Vec<Complex>],
    scenario: &FleetScenario,
    executor_threads: usize,
) -> FleetThroughputReport {
    assert!(!tenants.is_empty(), "no tenants to serve");
    assert!(!shots.is_empty(), "no shots to submit");
    let sessions_per_model = scenario.sessions_per_model.max(1);
    // Scalar path: keep the per-model queue roughly half full when every
    // session's ticket window is outstanding — deep enough to always have
    // a batch to flush, shallow enough not to trip the bulk watermark.
    let inflight_window = (scenario.engine.max_queue / (2 * sessions_per_model)).max(1);
    let submit_window = scenario.window.max(1);
    let shots_owned = Arc::new(shots.to_vec());
    // The vectored path shares shot storage with the engine zero-copy;
    // built before the timer, like a control system's pre-pinned DMA
    // buffers.
    let shots_shared: Arc<Vec<Arc<[Complex]>>> = Arc::new(
        shots
            .iter()
            .map(|trace| Arc::from(trace.as_slice()))
            .collect(),
    );
    let executor = Executor::new(executor_threads.max(1));

    let t = Instant::now();
    let mut handles = Vec::new();
    for &fingerprint in tenants {
        for s in 0..sessions_per_model {
            let session = fleet
                .session_by_fingerprint(fingerprint, Qos::Standard)
                .unwrap_or_else(|e| panic!("tenant {fingerprint:016x}: {e}"));
            let offset = s * scenario.shots_per_session;
            let count = scenario.shots_per_session;
            handles.push(if submit_window > 1 {
                let shots = Arc::clone(&shots_shared);
                executor.spawn(async move {
                    vectored_session_task(session, shots, offset, count, submit_window).await
                })
            } else {
                let shots = Arc::clone(&shots_owned);
                executor.spawn(async move {
                    session_task(session, shots, offset, count, inflight_window).await
                })
            });
        }
    }
    let mut completed = 0u64;
    let mut shed_retries = 0u64;
    for handle in handles {
        let (done, retries) = handle.join();
        completed += done;
        shed_retries += retries;
    }
    let elapsed = t.elapsed().as_secs_f64();

    let stats = fleet.aggregate_stats();
    FleetThroughputReport {
        models: tenants.len(),
        sessions: tenants.len() * sessions_per_model,
        completed,
        shed_retries,
        elapsed,
        aggregate_rate: completed as f64 / elapsed.max(f64::MIN_POSITIVE),
        lost: stats.outstanding(),
        stats,
    }
}

/// Outcome of a [`run_fleet_saturation`] run.
#[derive(Debug, Clone)]
pub struct SaturationReport {
    /// Models served.
    pub models: usize,
    /// Submissions the admission controller accepted.
    pub accepted: u64,
    /// Submissions shed with a typed verdict (the overload absorber).
    pub shed: u64,
    /// Accepted submissions that resolved with a verdict.
    pub completed: u64,
    /// Accepted submissions that were failed by a worker fault (zero
    /// here: saturation holds workers, it does not break them).
    pub failed: u64,
    /// Accepted but never resolved — the conservation violation count.
    /// Anything but zero means the fleet *lost* tickets under overload.
    pub lost: u64,
    /// Fleet-wide counter sum after the drain.
    pub stats: EngineStats,
}

/// Drives every model of a fresh fleet into overload and proves the shed
/// counters — not a hang — absorb it.
///
/// Each model in `models` is wrapped in a gate-held
/// [`FaultyDiscriminator`], so its worker drains one batch and then
/// blocks inside `predict_batch`; `sessions_per_model` threads per model
/// then flood `shots_per_session` non-blocking submissions each into the
/// stalled queues. Once the flood is complete the gates open and every
/// accepted ticket is waited on.
///
/// With `sessions_per_model * shots_per_session` comfortably above
/// `engine.max_queue + engine.max_batch`, at least one shot is shed *by
/// construction* — no timing assumption anywhere.
///
/// # Panics
///
/// Panics if fleet registration fails (more models than
/// `scenario`-derived capacity).
pub fn run_fleet_saturation(
    models: Vec<BoxedDiscriminator>,
    shots: &[Vec<Complex>],
    scenario: &FleetScenario,
) -> SaturationReport {
    assert!(!models.is_empty(), "no models to saturate");
    assert!(!shots.is_empty(), "no shots to submit");
    let n_models = models.len();
    let fleet = FleetEngine::new(FleetConfig {
        engine: scenario.engine,
        max_models: n_models,
        ..FleetConfig::default()
    });
    let gates: Vec<Arc<Gate>> = (0..n_models).map(|_| Gate::new()).collect();
    for (i, (model, gate)) in models.into_iter().zip(&gates).enumerate() {
        fleet
            .register(
                i as u64,
                FaultyDiscriminator::boxed(model, FaultMode::Hold(Arc::clone(gate))),
            )
            .expect("register saturation tenant");
    }

    // Flood phase: all sessions hammer try_submit while every worker is
    // (or is about to be) pinned behind its gate. The queues fill, the
    // watermarks engage, the excess is shed.
    let qos_cycle = [Qos::Realtime, Qos::Standard, Qos::Bulk];
    let tickets: Vec<Ticket> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for m in 0..n_models {
            for s in 0..scenario.sessions_per_model.max(1) {
                let session = fleet
                    .session_by_fingerprint(m as u64, qos_cycle[s % qos_cycle.len()])
                    .expect("registered tenant");
                let shots = &shots;
                let count = scenario.shots_per_session;
                handles.push(scope.spawn(move || {
                    let mut accepted = Vec::new();
                    for k in 0..count {
                        if let Ok(ticket) = session.try_submit(&shots[k % shots.len()]) {
                            accepted.push(ticket);
                        }
                    }
                    accepted
                }));
            }
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("flood session thread"))
            .collect()
    });

    // Drain phase: open every gate and wait for each accepted ticket.
    for gate in &gates {
        gate.open();
    }
    let mut completed = 0u64;
    for ticket in tickets {
        if ticket.outcome().is_ok() {
            completed += 1;
        }
    }

    let stats = fleet.aggregate_stats();
    SaturationReport {
        models: n_models,
        accepted: stats.total_submitted(),
        shed: stats.total_shed(),
        completed,
        failed: stats.failed,
        lost: stats.outstanding(),
        stats,
    }
}

/// Outcome of a [`run_fleet_eviction_churn`] run.
#[derive(Debug, Clone)]
pub struct EvictionChurnReport {
    /// Models pushed through the fleet.
    pub registrations: usize,
    /// Hot slots the fleet was capped at (`max_models`).
    pub capacity: usize,
    /// Models LRU-evicted to make room (`registrations - capacity`).
    pub evictions: u64,
    /// Shots that resolved with a verdict, across live and evicted
    /// tenants alike.
    pub completed: u64,
    /// Accepted-but-never-resolved tickets — must be zero: eviction may
    /// retire a model, never a ticket.
    pub lost: u64,
    /// Wall-clock seconds for the whole churn.
    pub elapsed: f64,
    /// Fleet-wide counter sum *including retired tenants* after the run.
    pub stats: EngineStats,
}

/// Streams more models than the fleet has hot slots through an
/// LRU-evicting [`FleetEngine`], serving a vectored burst on each before
/// the next registration evicts the coldest, and audits conservation:
/// every accepted shot resolves even though most tenants are retired by
/// the end ([`EvictionChurnReport::lost`] is zero).
///
/// The fleet is built with `capacity` hot slots and
/// [`EvictPolicy::Lru`]; `scenario.window` sizes the per-model vectored
/// bursts (`scenario.shots_per_session` shots per model in total).
///
/// # Panics
///
/// Panics if a registration is refused — under LRU with every prior
/// tenant drained, room must always be made — or if a worker fails.
pub fn run_fleet_eviction_churn(
    models: Vec<BoxedDiscriminator>,
    shots: &[Vec<Complex>],
    scenario: &FleetScenario,
    capacity: usize,
) -> EvictionChurnReport {
    assert!(!models.is_empty(), "no models to churn");
    assert!(!shots.is_empty(), "no shots to submit");
    let n_models = models.len();
    let capacity = capacity.max(1);
    let window = scenario.window.max(1);
    let fleet = FleetEngine::new(FleetConfig {
        engine: scenario.engine,
        max_models: capacity,
        evict: EvictPolicy::Lru,
        ..FleetConfig::default()
    });

    let t = Instant::now();
    let mut completed = 0u64;
    for (i, model) in models.into_iter().enumerate() {
        fleet
            .register(i as u64, model)
            .expect("LRU eviction makes room for every registration");
        let session = fleet
            .session_by_fingerprint(i as u64, Qos::Standard)
            .expect("freshly registered tenant");
        let mut submitted = 0usize;
        while submitted < scenario.shots_per_session {
            let take = window.min(scenario.shots_per_session - submitted);
            let refs: Vec<&[Complex]> = (0..take)
                .map(|k| shots[(submitted + k) % shots.len()].as_slice())
                .collect();
            completed += session.submit_all(&refs).wait().len() as u64;
            submitted += take;
        }
    }
    let elapsed = t.elapsed().as_secs_f64();

    let stats = fleet.aggregate_stats();
    EvictionChurnReport {
        registrations: n_models,
        capacity,
        evictions: n_models.saturating_sub(capacity) as u64,
        completed,
        lost: stats.outstanding(),
        elapsed,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_core::Discriminator;

    /// Cheap deterministic model: level = trace length modulo 3.
    struct Echo;

    impl Discriminator for Echo {
        fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
            vec![raw.len() % 3; 2]
        }
        fn name(&self) -> &str {
            "ECHO"
        }
        fn n_qubits(&self) -> usize {
            2
        }
        fn weight_count(&self) -> usize {
            0
        }
    }

    fn pool(n: usize) -> Vec<Vec<Complex>> {
        (0..n).map(|i| vec![Complex::ZERO; 40 + i]).collect()
    }

    #[test]
    fn throughput_driver_conserves_and_counts() {
        let fleet = FleetEngine::new(FleetConfig {
            engine: EngineConfig::with_queue(32),
            max_models: 2,
            ..FleetConfig::default()
        });
        fleet.register(0, Box::new(Echo)).unwrap();
        fleet.register(1, Box::new(Echo)).unwrap();
        let scenario = FleetScenario {
            sessions_per_model: 3,
            shots_per_session: 50,
            window: 1,
            engine: EngineConfig::with_queue(32),
        };
        let report = run_fleet_throughput(&fleet, &[0, 1], &pool(16), &scenario, 2);
        assert_eq!(report.models, 2);
        assert_eq!(report.sessions, 6);
        assert_eq!(report.completed, 2 * 3 * 50);
        assert_eq!(report.lost, 0, "no ticket may be lost");
        assert_eq!(report.stats.completed, report.completed);
        assert!(report.aggregate_rate > 0.0);
    }

    #[test]
    fn vectored_throughput_driver_conserves_and_counts() {
        let fleet = FleetEngine::new(FleetConfig {
            engine: EngineConfig::with_queue(32),
            max_models: 2,
            ..FleetConfig::default()
        });
        fleet.register(0, Box::new(Echo)).unwrap();
        fleet.register(1, Box::new(Echo)).unwrap();
        // window 7 does not divide 50: the driver must handle a ragged
        // tail window and still conserve every shot.
        let scenario = FleetScenario {
            sessions_per_model: 3,
            shots_per_session: 50,
            window: 7,
            engine: EngineConfig::with_queue(32),
        };
        let report = run_fleet_throughput(&fleet, &[0, 1], &pool(16), &scenario, 2);
        assert_eq!(report.completed, 2 * 3 * 50);
        assert_eq!(report.lost, 0, "no vectored window may be lost");
        assert_eq!(report.stats.completed, report.completed);
        assert_eq!(report.stats.failed, 0);
    }

    #[test]
    fn eviction_churn_driver_conserves_across_retirements() {
        let scenario = FleetScenario {
            sessions_per_model: 1,
            shots_per_session: 20,
            window: 5,
            engine: EngineConfig::with_queue(32),
        };
        let models: Vec<BoxedDiscriminator> = (0..6)
            .map(|_| Box::new(Echo) as BoxedDiscriminator)
            .collect();
        let report = run_fleet_eviction_churn(models, &pool(8), &scenario, 2);
        assert_eq!(report.registrations, 6);
        assert_eq!(report.capacity, 2);
        assert_eq!(report.evictions, 4, "6 models through 2 slots evict 4");
        assert_eq!(report.completed, 6 * 20);
        assert_eq!(report.lost, 0, "eviction may retire models, not tickets");
        assert_eq!(report.stats.completed, report.completed);
        assert_eq!(report.stats.failed, 0);
    }

    #[test]
    fn saturation_sheds_and_conserves() {
        // 4 sessions x 64 shots = 256 >> max_queue(16) + max_batch(4):
        // shedding is guaranteed by construction, not by timing.
        let scenario = FleetScenario {
            sessions_per_model: 4,
            shots_per_session: 64,
            window: 1,
            engine: EngineConfig {
                max_batch: 4,
                max_queue: 16,
                standard_watermark: 12,
                bulk_watermark: 8,
            },
        };
        let models: Vec<BoxedDiscriminator> = vec![Box::new(Echo), Box::new(Echo)];
        let report = run_fleet_saturation(models, &pool(8), &scenario);
        assert_eq!(report.models, 2);
        assert!(report.shed > 0, "overload must be absorbed by shedding");
        assert_eq!(report.lost, 0, "accepted tickets must all resolve");
        assert_eq!(report.completed, report.accepted);
        assert_eq!(report.failed, 0);
        assert_eq!(
            report.accepted + report.shed,
            2 * 4 * 64,
            "every submission is accounted: accepted or shed"
        );
    }
}
