//! Fault-injection integration tests on the multi-tenant serving fleet:
//! a broken or stalled tenant must fail (or delay) only its own tickets,
//! never its neighbours'. Every test is deterministic — faults trigger on
//! counted batches and stalls are gates, so there is not a single
//! wall-clock sleep in this file.

use std::sync::Arc;
use std::time::Duration;

use mlr_core::engine::fault::{FaultMode, FaultyDiscriminator, Gate};
use mlr_core::{
    Discriminator, EngineConfig, EvictPolicy, FleetConfig, FleetEngine, FleetError, ManualClock,
    Qos, Rejected,
};
use mlr_num::Complex;

/// Deterministic model: level = trace length modulo 3 on both qubits.
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

/// An [`Echo`] whose batch path announces entry (opens `entered`) and then
/// blocks on `hold` — pins one shared-pool thread inside `predict_batch`
/// at a moment the test chooses, with no sleeps.
struct GatedEcho {
    hold: Arc<Gate>,
    entered: Arc<Gate>,
}

impl Discriminator for GatedEcho {
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        vec![raw.len() % 3; 2]
    }
    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        self.entered.open();
        self.hold.pass();
        shots.iter().map(|s| self.predict_shot(s)).collect()
    }
    fn name(&self) -> &str {
        "GATED-ECHO"
    }
    fn n_qubits(&self) -> usize {
        2
    }
    fn weight_count(&self) -> usize {
        0
    }
}

fn trace(len: usize) -> Vec<Complex> {
    vec![Complex::ZERO; len]
}

/// `max_batch` 1 gives every submission a flush of its own, so a fault
/// counted in flushes lands on exactly the shot a test picks.
fn tight_config() -> EngineConfig {
    EngineConfig {
        max_batch: 1,
        max_queue: 8,
        standard_watermark: 8,
        bulk_watermark: 8,
    }
}

#[test]
fn panicking_tenant_fails_only_its_own_tickets() {
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            engine: tight_config(),
            max_models: 2,
            ..FleetConfig::default()
        },
        Arc::new(ManualClock::new()),
    );
    fleet.register(0, Box::new(Echo)).unwrap();
    fleet
        .register(
            1,
            FaultyDiscriminator::boxed(Box::new(Echo), FaultMode::PanicOnFlush(0)),
        )
        .unwrap();

    let healthy = fleet.session_by_fingerprint(0, Qos::Standard).unwrap();
    let doomed = fleet.session_by_fingerprint(1, Qos::Standard).unwrap();

    // The faulty tenant's first flush panics: its ticket fails loudly.
    let lost = doomed.submit(&trace(40));
    assert!(
        lost.outcome().is_err(),
        "faulty tenant must fail its ticket"
    );

    // Its engine is closed for good — typed refusals, not hangs.
    assert!(matches!(
        doomed.try_submit(&trace(41)),
        Err(Rejected::WorkerFailed)
    ));

    // The healthy tenant never noticed: verdicts as usual, before and
    // after the neighbour's death.
    for len in [40usize, 41, 42, 43] {
        assert_eq!(healthy.submit(&trace(len)).wait(), vec![len % 3; 2]);
    }

    // Per-tenant bookkeeping agrees: only tenant 1 is marked failed.
    let stats = fleet.stats();
    assert_eq!(stats.len(), 2);
    assert!(!stats[0].failed);
    assert_eq!(stats[0].stats.completed, 4);
    assert!(stats[1].failed);
    assert_eq!(stats[1].stats.failed, 1);
}

#[test]
fn wrong_shape_tenant_fails_like_a_panic_without_collateral() {
    for mode in [FaultMode::TruncateBatch(0), FaultMode::WidenVerdicts(0)] {
        let fleet = FleetEngine::with_clock(
            FleetConfig {
                engine: tight_config(),
                max_models: 2,
                ..FleetConfig::default()
            },
            Arc::new(ManualClock::new()),
        );
        fleet.register(0, Box::new(Echo)).unwrap();
        fleet
            .register(1, FaultyDiscriminator::boxed(Box::new(Echo), mode))
            .unwrap();

        let healthy = fleet.session_by_fingerprint(0, Qos::Standard).unwrap();
        let doomed = fleet.session_by_fingerprint(1, Qos::Standard).unwrap();

        // A wrong-shape batch (short batch / wide verdicts) must be caught
        // by the worker's shape check and fail the ticket — silently
        // zip-truncated verdicts would be misassigned readout.
        assert!(doomed.submit(&trace(50)).outcome().is_err());
        assert!(matches!(
            doomed.try_submit(&trace(51)),
            Err(Rejected::WorkerFailed)
        ));
        assert_eq!(healthy.submit(&trace(52)).wait(), vec![52 % 3; 2]);
        assert!(fleet.stats()[1].failed);
        assert!(!fleet.stats()[0].failed);
    }
}

#[test]
fn stalled_tenant_sheds_its_own_lane_while_neighbours_serve() {
    let gate = Gate::new();
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            engine: EngineConfig {
                max_batch: 1,
                max_queue: 4,
                standard_watermark: 4,
                bulk_watermark: 2,
            },
            max_models: 2,
            ..FleetConfig::default()
        },
        Arc::new(ManualClock::new()),
    );
    fleet.register(0, Box::new(Echo)).unwrap();
    fleet
        .register(
            1,
            FaultyDiscriminator::boxed(Box::new(Echo), FaultMode::Hold(Arc::clone(&gate))),
        )
        .unwrap();

    let healthy = fleet.session_by_fingerprint(0, Qos::Standard).unwrap();
    let slow = fleet.session_by_fingerprint(1, Qos::Standard).unwrap();

    // Flood the stalled tenant far past queue + in-flight capacity: with
    // 32 submissions against max_queue 4 + max_batch 1, at least 27 are
    // shed by construction — no timing assumption.
    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for k in 0..32 {
        match slow.try_submit(&trace(60 + k)) {
            Ok(ticket) => accepted.push((60 + k, ticket)),
            Err(Rejected::Shed { .. }) | Err(Rejected::QueueFull { .. }) => shed += 1,
            Err(other) => panic!("stalled tenant refused wrongly: {other}"),
        }
    }
    assert!(shed >= 27, "flood must overrun capacity, shed {shed}");
    assert!(!accepted.is_empty(), "capacity must admit some tickets");

    // Meanwhile the healthy neighbour is completely unaffected.
    for len in [70usize, 71, 72] {
        assert_eq!(healthy.submit(&trace(len)).wait(), vec![len % 3; 2]);
    }

    // Open the gate: every accepted ticket on the slow tenant resolves —
    // delayed, never lost, and with the right verdicts.
    gate.open();
    let n_accepted = accepted.len() as u64;
    for (len, ticket) in accepted {
        assert_eq!(ticket.wait(), vec![len % 3; 2]);
    }

    // Conservation on the stalled tenant: accepted == completed, shed
    // accounted, nothing outstanding.
    let stats = fleet.stats();
    let slow_stats = &stats[1].stats;
    assert_eq!(slow_stats.total_submitted(), n_accepted);
    assert_eq!(slow_stats.completed, n_accepted);
    assert_eq!(slow_stats.total_shed(), shed as u64);
    assert_eq!(slow_stats.outstanding(), 0);
    assert_eq!(stats[0].stats.completed, 3);
}

#[test]
fn panic_mid_window_fails_only_that_windows_batch_ticket() {
    // Micro-batches of 2 over a 4-shot window: the faulty tenant's second
    // flush panics mid-window. The whole window's BatchTicket must fail —
    // and the healthy neighbour's window, served by the same shared pool,
    // must resolve bit-identically to direct predict_batch.
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            engine: EngineConfig {
                max_batch: 2,
                ..tight_config()
            },
            max_models: 2,
            ..FleetConfig::default()
        },
        Arc::new(ManualClock::new()),
    );
    fleet.register(0, Box::new(Echo)).unwrap();
    fleet
        .register(
            1,
            FaultyDiscriminator::boxed(Box::new(Echo), FaultMode::PanicOnFlush(1)),
        )
        .unwrap();

    let healthy = fleet.session_by_fingerprint(0, Qos::Standard).unwrap();
    let doomed = fleet.session_by_fingerprint(1, Qos::Standard).unwrap();

    let traces: Vec<Vec<Complex>> = (40..44).map(trace).collect();
    let window: Vec<&[Complex]> = traces.iter().map(Vec::as_slice).collect();

    assert!(
        doomed.submit_all(&window).outcome().is_err(),
        "a panic on any micro-batch of the window must fail the whole ticket"
    );
    assert!(matches!(
        doomed.try_submit(&trace(50)),
        Err(Rejected::WorkerFailed)
    ));
    assert_eq!(
        healthy.submit_all(&window).wait(),
        Echo.predict_batch(&window)
    );

    let stats = fleet.stats();
    assert!(!stats[0].failed);
    assert_eq!(stats[0].stats.completed, 4);
    assert!(stats[1].failed);
    // First micro-batch classified, second and its sibling failed: all
    // four shots accounted either way.
    assert_eq!(stats[1].stats.completed + stats[1].stats.failed, 4);
    assert_eq!(stats[1].stats.outstanding(), 0);
}

#[test]
fn held_tenant_under_shared_pool_never_starves_healthy_fingerprints() {
    // Two pool threads (the default), one deliberately pinned inside a
    // gated model: every healthy fingerprint must still be served by the
    // remaining thread. Deterministic — `entered` proves the pin happened
    // before the healthy submissions, and nothing sleeps.
    let hold = Gate::new();
    let entered = Gate::new();
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            engine: tight_config(),
            max_models: 3,
            workers: 2,
            ..FleetConfig::default()
        },
        Arc::new(ManualClock::new()),
    );
    fleet
        .register(
            0,
            Box::new(GatedEcho {
                hold: Arc::clone(&hold),
                entered: Arc::clone(&entered),
            }),
        )
        .unwrap();
    fleet.register(1, Box::new(Echo)).unwrap();
    fleet.register(2, Box::new(Echo)).unwrap();

    let slow = fleet.session_by_fingerprint(0, Qos::Standard).unwrap();
    let held = slow.submit(&trace(33));
    entered.pass(); // one pool thread is now pinned inside the model

    // Both healthy fingerprints, mixed lanes, scalar and vectored paths:
    // all served by the one remaining thread while the pin lasts.
    let realtime = fleet.session_by_fingerprint(1, Qos::Realtime).unwrap();
    let bulk = fleet.session_by_fingerprint(2, Qos::Bulk).unwrap();
    for len in [60usize, 61, 62] {
        assert_eq!(realtime.submit(&trace(len)).wait(), vec![len % 3; 2]);
    }
    let traces: Vec<Vec<Complex>> = (70..76).map(trace).collect();
    let window: Vec<&[Complex]> = traces.iter().map(Vec::as_slice).collect();
    assert_eq!(bulk.submit_all(&window).wait(), Echo.predict_batch(&window));

    // Release the pin: the held ticket resolves — delayed, never lost.
    hold.open();
    assert_eq!(held.wait(), vec![0, 0]);
    let agg = fleet.aggregate_stats();
    assert_eq!(agg.completed, 10);
    assert_eq!(agg.outstanding(), 0);
}

#[test]
fn lone_shot_on_a_free_worker_resolves_while_a_neighbour_is_held() {
    // Default batching policy, frozen clock, two pool threads: one is
    // pinned inside tenant 0's gated model, and a single shot on tenant 1
    // must still be drained by the other at once — no batch to fill, no
    // time to wait out.
    let hold = Gate::new();
    let entered = Gate::new();
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            engine: EngineConfig::default(),
            max_models: 2,
            workers: 2,
            ..FleetConfig::default()
        },
        Arc::new(ManualClock::new()),
    );
    fleet
        .register(
            0,
            Box::new(GatedEcho {
                hold: Arc::clone(&hold),
                entered: Arc::clone(&entered),
            }),
        )
        .unwrap();
    fleet.register(1, Box::new(Echo)).unwrap();

    let held = fleet
        .session_by_fingerprint(0, Qos::Standard)
        .unwrap()
        .submit(&trace(33));
    entered.pass(); // one pool thread is now pinned inside the model

    let lone = fleet.session_by_fingerprint(1, Qos::Standard).unwrap();
    assert_eq!(lone.submit(&trace(61)).wait(), vec![61 % 3; 2]);
    assert_eq!(fleet.stats()[1].stats.flushes, 1);

    hold.open();
    assert_eq!(held.wait(), vec![0, 0]);
    assert_eq!(fleet.aggregate_stats().outstanding(), 0);
}

#[test]
fn eviction_of_a_held_tenant_is_refused_while_its_ticket_is_pinned() {
    let gate = Gate::new();
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            engine: tight_config(),
            max_models: 1,
            evict: EvictPolicy::Lru,
            ..FleetConfig::default()
        },
        Arc::new(ManualClock::new()),
    );
    fleet
        .register(
            0,
            FaultyDiscriminator::boxed(Box::new(Echo), FaultMode::Hold(Arc::clone(&gate))),
        )
        .unwrap();
    let slow = fleet.session_by_fingerprint(0, Qos::Standard).unwrap();
    let held = slow.submit(&trace(42));

    // The sole tenant has a ticket in flight: even under LRU there is no
    // idle candidate, so registration past the bound is refused — with
    // `coldest: None` telling the caller why nothing can move.
    match fleet.register(1, Box::new(Echo)).unwrap_err() {
        FleetError::FleetFull {
            limit: 1,
            coldest: None,
        } => {}
        other => panic!("expected a pinned FleetFull, got {other:?}"),
    }

    // Once the ticket resolves the tenant is evictable and the same
    // registration succeeds.
    gate.open();
    assert_eq!(held.wait(), vec![0, 0]);
    fleet
        .register(1, Box::new(Echo))
        .expect("idle tenant must be evictable");
    assert_eq!(fleet.len(), 1);
    assert_eq!(fleet.aggregate_stats().completed, 1);
}

#[test]
fn lru_churn_across_manual_clock_steps_loses_no_ticket() {
    // Force heavy eviction churn: 8 models through a 2-slot fleet, each
    // serving a window before being evicted by the next registration.
    // Access times step on a ManualClock so the LRU victim is always
    // exact, and the conservation audit runs over live + retired tenants.
    let clock = Arc::new(ManualClock::new());
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            engine: tight_config(),
            max_models: 2,
            evict: EvictPolicy::Lru,
            ..FleetConfig::default()
        },
        clock.clone(),
    );
    let mut expected_completed = 0u64;
    for round in 0..8u64 {
        clock.advance(Duration::from_micros(10));
        fleet
            .register(round, Box::new(Echo))
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(fleet.len() <= 2, "eviction must hold the bound");
        let session = fleet
            .session_by_fingerprint(round, Qos::Standard)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        let traces: Vec<Vec<Complex>> = (1..=5).map(|k| trace(round as usize + k)).collect();
        let window: Vec<&[Complex]> = traces.iter().map(Vec::as_slice).collect();
        assert_eq!(
            session.submit_all(&window).wait(),
            Echo.predict_batch(&window),
            "round {round}: post-eviction verdicts must stay bit-identical"
        );
        expected_completed += window.len() as u64;
    }
    assert_eq!(fleet.len(), 2);
    let agg = fleet.aggregate_stats();
    assert_eq!(agg.total_submitted(), expected_completed);
    assert_eq!(agg.completed, expected_completed);
    assert_eq!(agg.outstanding(), 0, "churn must not lose a single ticket");
    assert_eq!(agg.failed, 0);
}
