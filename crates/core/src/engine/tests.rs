//! Engine and fleet unit tests. A free worker drains whatever is queued
//! at once, so a test that needs shots to wait in a queue first pins the
//! worker inside a gated model ([`GatedEcho`]); latencies and LRU stamps
//! run on a [`ManualClock`]. Nothing here sleeps or races the scheduler.

use super::fault::{FaultMode, FaultyDiscriminator, Gate};
use super::*;
use crate::{gather_shots, Discriminator};
use mlr_sim::{ChipConfig, TraceDataset};

/// A deterministic stand-in model: "level" = trace length modulo the
/// alphabet, so verdicts encode which shot produced them.
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

/// [`Echo`] with a constant level offset — distinguishable fleet tenants.
struct EchoOffset(usize);

impl Discriminator for EchoOffset {
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        vec![(raw.len() + self.0) % 3; 2]
    }
    fn name(&self) -> &str {
        "ECHO-OFFSET"
    }
    fn n_qubits(&self) -> usize {
        2
    }
    fn weight_count(&self) -> usize {
        0
    }
}

/// A [`GatedEcho`] that records the trace lengths of every batch it is
/// asked to classify — lets tests observe *flush composition*, not just
/// verdicts.
struct Recorder {
    batches: Arc<Mutex<Vec<Vec<usize>>>>,
    inner: GatedEcho,
}

impl Discriminator for Recorder {
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        self.inner.predict_shot(raw)
    }
    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        self.batches
            .lock()
            .unwrap()
            .push(shots.iter().map(|s| s.len()).collect());
        self.inner.predict_batch(shots)
    }
    fn name(&self) -> &str {
        "RECORDER"
    }
    fn n_qubits(&self) -> usize {
        2
    }
    fn weight_count(&self) -> usize {
        0
    }
}

/// An [`Echo`] whose batch path announces entry (opens `entered`) and
/// then blocks on `hold` — pins the worker inside `predict_batch` at a
/// moment the test chooses, with no sleeps.
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

/// A [`GatedEcho`] with its `hold` and `entered` gates, both closed.
fn gated() -> (GatedEcho, Arc<Gate>, Arc<Gate>) {
    let (hold, entered) = (Gate::new(), Gate::new());
    let model = GatedEcho {
        hold: Arc::clone(&hold),
        entered: Arc::clone(&entered),
    };
    (model, hold, entered)
}

fn trace(len: usize) -> Vec<Complex> {
    vec![Complex::new(1.0, -1.0); len]
}

fn manual() -> Arc<ManualClock> {
    Arc::new(ManualClock::new())
}

#[test]
#[ignore = "diagnostic timing probe, run with --release -- --ignored"]
fn overhead_probe() {
    let engine = ReadoutEngine::new(Box::new(Echo), EngineConfig::default());
    let traces: Vec<Vec<Complex>> = (0..512).map(|_| trace(500)).collect();
    let shots: Vec<&[Complex]> = traces.iter().map(Vec::as_slice).collect();
    let _ = engine.classify_all(&shots); // warm
    let t = std::time::Instant::now();
    for _ in 0..20 {
        let _ = engine.classify_all(&shots);
    }
    let per_iter = t.elapsed().as_secs_f64() / 20.0;
    eprintln!(
        "pure engine overhead: {:.3} ms per 512 shots ({:.2} us/shot)",
        per_iter * 1e3,
        per_iter * 1e6 / 512.0
    );
}

#[test]
fn lone_shot_resolves_without_a_clock_advance() {
    // Default policy on a frozen clock: an idle worker drains a lone shot
    // at once, whichever submit path queued it — there is no batch to
    // fill and no time to wait out.
    let engine = ReadoutEngine::with_clock(Box::new(Echo), EngineConfig::default(), manual());
    assert_eq!(engine.session().submit(&trace(7)).wait(), vec![1, 1]);
    assert_eq!(engine.stats().flushes, 1);

    let engine = ReadoutEngine::with_clock(Box::new(Echo), EngineConfig::default(), manual());
    let ticket = engine
        .session()
        .try_submit(&trace(7))
        .expect("an empty queue admits the shot");
    assert_eq!(ticket.wait(), vec![1, 1]);
    assert_eq!(engine.stats().flushes, 1);
}

#[test]
fn verdicts_match_submission_not_arrival_order() {
    let engine = ReadoutEngine::new(Box::new(Echo), EngineConfig::default());
    let session = engine.session();
    let tickets: Vec<(usize, Ticket)> = (0..200)
        .map(|i| (i, session.submit(&trace(i + 1))))
        .collect();
    for (i, ticket) in tickets {
        assert_eq!(ticket.wait(), vec![(i + 1) % 3; 2], "shot {i}");
    }
}

#[test]
fn concurrent_sessions_from_many_threads_agree_with_direct_batch() {
    let mut chip = ChipConfig::uniform(2);
    chip.n_samples = 80;
    let ds = TraceDataset::generate(&chip, 3, 6, 5);
    let split = ds.split(0.6, 0.0, 5);
    let spec = crate::DiscriminatorSpec::Discriminant(crate::DiscriminantKind::Lda);
    let model = crate::registry::fit(&spec, &ds, &split, 5);
    let all: Vec<usize> = (0..ds.len()).collect();
    let expected = model.predict_batch(&gather_shots(&ds, &all));

    let engine = ReadoutEngine::new(
        Box::new(model),
        EngineConfig {
            max_batch: 7, // deliberately unaligned with the shot count
            ..EngineConfig::default()
        },
    );
    let verdicts: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let handles: Vec<_> = all
            .chunks(13)
            .map(|chunk| {
                let session = engine.session();
                let ds = &ds;
                scope.spawn(move || {
                    let tickets: Vec<(usize, Ticket)> = chunk
                        .iter()
                        .map(|&i| (i, session.submit(ds.raw(i))))
                        .collect();
                    tickets
                        .into_iter()
                        .map(|(i, t)| (i, t.wait()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut indexed: Vec<(usize, Vec<usize>)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("submitter thread"))
            .collect();
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, v)| v).collect()
    });
    assert_eq!(verdicts, expected);
}

#[test]
fn classify_all_matches_direct_predict_batch() {
    let engine = ReadoutEngine::new(Box::new(Echo), EngineConfig::default());
    let traces: Vec<Vec<Complex>> = (1..40).map(trace).collect();
    let shots: Vec<&[Complex]> = traces.iter().map(Vec::as_slice).collect();
    assert_eq!(engine.classify_all(&shots), Echo.predict_batch(&shots));
}

#[test]
fn drop_resolves_outstanding_tickets() {
    // The worker is pinned on the first shot until the drop has closed
    // the queue, so the other 18 are still queued at shutdown: only the
    // drop-drain can resolve them, and the test pins exactly that path.
    let (model, hold, entered) = gated();
    let engine = ReadoutEngine::with_clock(
        Box::new(model),
        EngineConfig {
            max_batch: 1000,
            max_queue: 1000,
            ..EngineConfig::default()
        },
        manual(),
    );
    let session = engine.session();
    let mut tickets = vec![session.submit(&trace(1))];
    entered.pass();
    tickets.extend((2..20).map(|i| session.submit(&trace(i))));
    let tenant = Arc::clone(&engine.tenant);
    let opener = std::thread::spawn(move || {
        let mut queue = lock_recovering(&tenant.queue);
        while !queue.closed {
            queue = tenant
                .space
                .wait(queue)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(queue);
        hold.open();
    });
    drop(engine); // closes the queue, then drains it before joining the worker
    opener.join().expect("gate opener");
    for (i, ticket) in tickets.into_iter().enumerate() {
        assert_eq!(ticket.wait(), vec![(i + 1) % 3; 2]);
    }
}

#[test]
#[should_panic(expected = "shut-down ReadoutEngine")]
fn submit_after_shutdown_panics() {
    let engine = ReadoutEngine::new(Box::new(Echo), EngineConfig::default());
    let session = engine.session();
    drop(engine);
    drop(session.submit(&trace(3)));
}

#[test]
fn poisoned_queue_lock_does_not_wedge_later_submitters() {
    // The shutdown panic fires while the queue guard is held, poisoning
    // the mutex. Every *later* submitter must still fail with the same
    // clean panic — not a PoisonError, not a hang (the regression this
    // pins: one panicking caller must never wedge its siblings).
    let engine = ReadoutEngine::new(Box::new(Echo), EngineConfig::default());
    let session = engine.session();
    drop(engine);
    for attempt in 0..2 {
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.submit(&trace(3))))
                .expect_err("submit on a shut-down engine must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(
            msg.contains("shut-down ReadoutEngine"),
            "attempt {attempt}: unexpected panic {msg:?}"
        );
    }
}

#[test]
fn resolving_a_poisoned_ticket_slot_still_wakes_waiters() {
    // Poison the slot mutex the way a panicking waiter would, then check
    // that the worker-side resolve path and a sibling waiter both recover.
    let slot = BatchState::new(1);
    let poisoner = Arc::clone(&slot);
    let _ = std::thread::spawn(move || {
        let _guard = poisoner.state.lock().unwrap();
        panic!("deliberate poison");
    })
    .join();
    assert!(slot.state.lock().is_err(), "mutex must be poisoned");

    let waiter_slot = Arc::clone(&slot);
    let waiter = std::thread::spawn(move || {
        Ticket {
            window: BatchTicket { slot: waiter_slot },
        }
        .outcome()
    });
    slot.resolve_many(vec![(0, vec![2, 1])]);
    assert_eq!(waiter.join().expect("waiter thread"), Ok(vec![2, 1]));
}

#[test]
fn scalar_tickets_and_a_window_share_one_flush() {
    // The worker is pinned on a first shot while a scalar `submit`, a
    // 3-shot window and two back-to-back scalar `try_submit`s queue
    // behind it, so all six shots drain as one batch. Each one-shot window
    // is its own resolve run: the adjacent `try_submit` tickets must not
    // merge, and every verdict must match a direct batch.
    let (model, hold, entered) = gated();
    let engine = ReadoutEngine::with_clock(Box::new(model), EngineConfig::default(), manual());
    let session = engine.session();
    let pinned = session.submit(&trace(9));
    entered.pass();
    let traces: Vec<Vec<Complex>> = (1..=6).map(trace).collect();
    let shots: Vec<&[Complex]> = traces.iter().map(Vec::as_slice).collect();
    let scalar = session.submit(shots[0]);
    let window = session.submit_all(&shots[1..4]);
    let left = session.try_submit(shots[4]).expect("queue has room");
    let right = session.try_submit(shots[5]).expect("queue has room");
    hold.open();

    let expected = Echo.predict_batch(&shots);
    assert_eq!(pinned.wait(), Echo.predict_shot(&trace(9)));
    assert_eq!(scalar.wait(), expected[0]);
    assert_eq!(window.wait(), expected[1..4]);
    assert_eq!(left.wait(), expected[4]);
    assert_eq!(right.wait(), expected[5]);
    let stats = engine.stats();
    assert_eq!(stats.flushes, 2);
    assert_eq!(stats.completed, 7);
    assert_eq!(stats.outstanding(), 0);
}

#[test]
fn try_wait_is_nonblocking_and_nonconsuming() {
    // The worker is pinned inside the model on an earlier shot, so
    // `first` sits in the queue and *nothing* can resolve it: the None
    // peek is exact.
    let (model, hold, entered) = gated();
    let engine = ReadoutEngine::with_clock(
        Box::new(model),
        EngineConfig {
            max_batch: 2,
            ..EngineConfig::default()
        },
        manual(),
    );
    let session = engine.session();
    let pinned = session.submit(&trace(3));
    entered.pass();
    let first = session.submit(&trace(4));
    assert!(first.try_wait().is_none());
    let second = session.submit(&trace(5));
    hold.open();
    assert_eq!(pinned.wait(), vec![0, 0]);
    assert_eq!(second.wait(), vec![2, 2]);
    // `first` shared the flush and resolved before `second` — and
    // peeking does not consume it, so wait still returns the verdict.
    assert_eq!(first.try_wait(), Some(vec![1, 1]));
    assert_eq!(first.try_wait(), Some(vec![1, 1]));
    assert_eq!(first.wait(), vec![1, 1]);
}

#[test]
fn qos_lanes_flush_realtime_before_standard_before_bulk() {
    let batches = Arc::new(Mutex::new(Vec::new()));
    let (inner, hold, entered) = gated();
    let engine = ReadoutEngine::with_clock(
        Box::new(Recorder {
            batches: Arc::clone(&batches),
            inner,
        }),
        EngineConfig {
            max_batch: 4,
            ..EngineConfig::default()
        },
        manual(),
    );
    let bulk = engine.session_with(Qos::Bulk);
    let realtime = engine.session_with(Qos::Realtime);
    let standard = engine.session_with(Qos::Standard);
    assert_eq!(realtime.qos(), Qos::Realtime);
    // The worker is pinned on a first shot while four more queue behind
    // it, so all four are queued when it drains them as one batch — and
    // they must come out in priority order (realtime FIFO, then
    // standard, then bulk), not submission order.
    let pinned = standard.submit(&trace(9));
    entered.pass();
    let tickets = [
        bulk.submit(&trace(1)),
        realtime.submit(&trace(2)),
        standard.submit(&trace(3)),
        realtime.submit(&trace(4)),
    ];
    hold.open();
    let _ = pinned.wait();
    for ticket in tickets {
        let _ = ticket.wait();
    }
    let seen = batches.lock().unwrap();
    assert_eq!(seen.as_slice(), &[vec![9], vec![2, 4, 3, 1]]);
}

#[test]
fn admission_sheds_by_class_and_conserves_every_ticket() {
    let hold = Gate::new();
    let entered = Gate::new();
    let config = EngineConfig {
        max_batch: 1,
        max_queue: 8,
        standard_watermark: 6,
        bulk_watermark: 3,
    };
    let engine = ReadoutEngine::with_clock(
        Box::new(GatedEcho {
            hold: Arc::clone(&hold),
            entered: Arc::clone(&entered),
        }),
        config,
        manual(),
    );
    assert_eq!(config.watermark(Qos::Realtime), 8);
    assert_eq!(config.watermark(Qos::Standard), 6);
    assert_eq!(config.watermark(Qos::Bulk), 3);

    // Pin the worker inside the model, then fill the queue behind it: the
    // depth the admission controller sees is now fully deterministic.
    let bulk = engine.session_with(Qos::Bulk);
    let standard = engine.session_with(Qos::Standard);
    let realtime = engine.session_with(Qos::Realtime);
    let mut tickets = vec![standard.submit(&trace(9))];
    entered.pass();

    for depth in 0..3 {
        tickets.push(
            bulk.try_submit(&trace(depth + 1))
                .unwrap_or_else(|r| panic!("bulk at depth {depth} rejected: {r}")),
        );
    }
    match bulk.try_submit(&trace(4)) {
        Err(Rejected::Shed {
            qos: Qos::Bulk,
            depth: 3,
            watermark: 3,
        }) => {}
        other => panic!("expected bulk shed, got {other:?}"),
    }
    for depth in 3..6 {
        tickets.push(standard.try_submit(&trace(depth + 1)).unwrap());
    }
    assert!(matches!(
        standard.try_submit(&trace(7)),
        Err(Rejected::Shed {
            qos: Qos::Standard,
            depth: 6,
            watermark: 6,
        })
    ));
    for depth in 6..8 {
        tickets.push(realtime.try_submit(&trace(depth + 1)).unwrap());
    }
    assert!(matches!(
        realtime.try_submit(&trace(9)),
        Err(Rejected::QueueFull { depth: 8 })
    ));

    // Release the worker: every accepted ticket must resolve (shed load
    // was refused up front, not lost).
    hold.open();
    let accepted = tickets.len();
    for ticket in tickets {
        assert!(ticket.outcome().is_ok());
    }
    let stats = engine.stats();
    assert_eq!(stats.submitted, [2, 4, 3]);
    assert_eq!(stats.shed, [1, 1, 1]);
    assert_eq!(stats.completed, accepted as u64);
    assert_eq!(stats.outstanding(), 0, "no ticket may be lost");
    assert_eq!(stats.max_depth, 8);
    assert_eq!(stats.flushes, 9);
}

#[test]
fn model_panic_fails_tickets_and_closes_engine_instead_of_hanging() {
    // Batch size 1: every submission flushes immediately, so the fault
    // fires on the exact batch the FaultyDiscriminator was told to hit.
    let engine = ReadoutEngine::with_clock(
        FaultyDiscriminator::boxed(Box::new(Echo), FaultMode::PanicOnFlush(1)),
        EngineConfig {
            max_batch: 1,
            ..EngineConfig::default()
        },
        manual(),
    );
    let session = engine.session();
    // A healthy batch still works.
    assert_eq!(session.submit(&trace(4)).wait(), vec![1, 1]);
    // The poisoned batch fails its ticket loudly...
    let bad = session.submit(&trace(13));
    assert_eq!(bad.outcome(), Err(TicketFailed));
    assert!(engine.is_failed());
    // ...blocking submission panics rather than accepting doomed work...
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.submit(&trace(4))));
    assert!(err.is_err(), "submit after a worker panic must panic");
    // ...and the admission path reports the same as a typed verdict.
    assert!(matches!(
        session.try_submit(&trace(4)),
        Err(Rejected::WorkerFailed)
    ));
    let stats = engine.stats();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.rejected_closed, 1);
    assert_eq!(
        stats.outstanding(),
        0,
        "failed tickets are accounted, not lost"
    );
}

#[test]
fn panicking_waiter_does_not_wedge_sibling_tickets() {
    let (model, hold, entered) = gated();
    let engine = ReadoutEngine::with_clock(
        FaultyDiscriminator::boxed(Box::new(model), FaultMode::PanicOnFlush(1)),
        EngineConfig {
            max_batch: 2,
            ..EngineConfig::default()
        },
        manual(),
    );
    let session = engine.session();
    let pinned = session.submit(&trace(3));
    entered.pass();
    let first = session.submit(&trace(4));
    let second = session.submit(&trace(5));
    hold.open(); // both queued behind the pin -> one flush -> panic
    assert_eq!(pinned.wait(), vec![0, 0]);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || first.wait()));
    assert!(err.is_err(), "wait on a failed ticket must panic");
    // The sibling's outcome is still reachable after its neighbour's
    // waiter panicked — failure is per-ticket state, not shared poison.
    assert_eq!(second.outcome(), Err(TicketFailed));
}

#[test]
fn wrong_shape_outputs_fail_tickets_like_a_panic() {
    for mode in [FaultMode::TruncateBatch(1), FaultMode::WidenVerdicts(1)] {
        let (model, hold, entered) = gated();
        let engine = ReadoutEngine::with_clock(
            FaultyDiscriminator::boxed(Box::new(model), mode.clone()),
            EngineConfig {
                max_batch: 2,
                ..EngineConfig::default()
            },
            manual(),
        );
        let session = engine.session();
        let pinned = session.submit(&trace(3));
        entered.pass();
        let first = session.submit(&trace(4));
        let second = session.submit(&trace(5));
        hold.open(); // both queued behind the pin -> one faulty flush
        assert_eq!(pinned.wait(), vec![0, 0], "{mode:?}");
        // Silently zipping a short batch would strand `second` forever;
        // the worker must treat any shape mismatch as a model fault.
        assert_eq!(first.outcome(), Err(TicketFailed), "{mode:?}");
        assert_eq!(second.outcome(), Err(TicketFailed), "{mode:?}");
        assert!(engine.is_failed(), "{mode:?}");
        assert_eq!(engine.stats().failed, 2, "{mode:?}");
    }
}

#[test]
fn tickets_are_futures_resolving_to_outcomes() {
    let engine = ReadoutEngine::new(
        Box::new(Echo),
        EngineConfig {
            max_batch: 1,
            ..EngineConfig::default()
        },
    );
    let session = engine.session();
    let verdict = exec::block_on(async { session.submit(&trace(7)).await });
    assert_eq!(verdict, Ok(vec![1, 1]));

    // A failed worker resolves awaited tickets to the typed error.
    let faulty = ReadoutEngine::with_clock(
        FaultyDiscriminator::boxed(Box::new(Echo), FaultMode::PanicOnFlush(0)),
        EngineConfig {
            max_batch: 1,
            ..EngineConfig::default()
        },
        manual(),
    );
    let session = faulty.session();
    let outcome = exec::block_on(async { session.submit(&trace(4)).await });
    assert_eq!(outcome, Err(TicketFailed));
}

#[test]
fn latency_counters_read_the_injected_clock() {
    let clock = manual();
    let (model, hold, entered) = gated();
    let engine = ReadoutEngine::with_clock(
        Box::new(model),
        EngineConfig {
            max_batch: 2,
            ..EngineConfig::default()
        },
        clock.clone(),
    );
    let session = engine.session();
    // The worker takes `first` at t=0 and is held inside the model while
    // the clock moves on and `second` queues at t=100us.
    let first = session.submit(&trace(4));
    entered.pass();
    clock.advance(Duration::from_micros(100));
    let second = session.submit(&trace(5));
    hold.open();
    assert_eq!(first.wait(), vec![1, 1]);
    assert_eq!(second.wait(), vec![2, 2]);
    let stats = engine.stats();
    // first resolved at t=100us after the full 100us, second was drained
    // the moment the worker came free: the manual clock makes these
    // latencies exact, not approximate.
    assert_eq!(stats.completed, 2);
    assert!((stats.mean_latency_us - 50.0).abs() < 1e-9, "{stats:?}");
    assert!((stats.max_latency_us - 100.0).abs() < 1e-9, "{stats:?}");
    assert_eq!(stats.flushes, 2);
    assert!((stats.mean_batch() - 1.0).abs() < 1e-9);
}

#[test]
fn qos_parses_and_displays() {
    for qos in Qos::ALL {
        assert_eq!(qos.name().parse::<Qos>().unwrap(), qos);
        assert_eq!(format!("{qos}"), qos.name());
    }
    assert!("turbo".parse::<Qos>().is_err());
}

#[test]
fn submit_all_matches_per_shot_submission_bit_for_bit() {
    let mut chip = ChipConfig::uniform(2);
    chip.n_samples = 60;
    let ds = TraceDataset::generate(&chip, 3, 5, 9);
    let split = ds.split(0.6, 0.0, 9);
    let spec = crate::DiscriminatorSpec::Discriminant(crate::DiscriminantKind::Lda);
    let model = crate::registry::fit(&spec, &ds, &split, 9);
    let all: Vec<usize> = (0..ds.len()).collect();
    let shots = gather_shots(&ds, &all);
    let expected = model.predict_batch(&shots);

    let engine = ReadoutEngine::new(
        Box::new(model),
        EngineConfig {
            max_batch: 7, // deliberately unaligned with the window size
            ..EngineConfig::default()
        },
    );
    let vectored = engine.session().submit_all(&shots).wait();
    assert_eq!(
        vectored, expected,
        "vectored verdicts must be bit-identical"
    );

    let session = engine.session();
    let tickets: Vec<Ticket> = shots.iter().map(|s| session.submit(s)).collect();
    let scalar: Vec<Vec<usize>> = tickets.into_iter().map(Ticket::wait).collect();
    assert_eq!(scalar, expected, "scalar verdicts must be bit-identical");
}

#[test]
fn shared_windows_are_zero_copy_and_bit_identical() {
    let (model, hold, entered) = gated();
    let engine = ReadoutEngine::with_clock(Box::new(model), EngineConfig::default(), manual());
    let traces: Vec<std::sync::Arc<[Complex]>> =
        (1..=6).map(|n| std::sync::Arc::from(trace(n))).collect();
    let borrowed: Vec<&[Complex]> = traces.iter().map(|t| &t[..]).collect();
    let expected = Echo.predict_batch(&borrowed);

    let session = engine.session();
    let pinned = session.submit(&trace(9));
    entered.pass();
    let ticket = session.submit_all_shared(&traces);
    // The pinned worker leaves every shot in the queue, where the engine
    // must hold a refcount on the caller's buffer — not a copy of it.
    for t in &traces {
        assert!(
            std::sync::Arc::strong_count(t) >= 2,
            "queued shared trace should be refcounted by the engine"
        );
    }
    hold.open();
    assert_eq!(pinned.wait(), vec![0, 0]);
    assert_eq!(
        ticket.wait(),
        expected,
        "shared verdicts must be bit-identical"
    );
    // Shared buffers are dropped before the wake (they are never
    // recycled into the spare pool), so ownership is already back with
    // the caller by the time `wait` returns.
    for t in &traces {
        assert_eq!(std::sync::Arc::strong_count(t), 1);
    }

    let retry = engine
        .session()
        .try_submit_all_shared(&traces)
        .expect("drained queue admits the whole window");
    assert_eq!(
        retry.wait(),
        expected,
        "try-path shared verdicts must match"
    );
}

#[test]
fn empty_windows_resolve_immediately() {
    // An empty window queues nothing, so only the
    // empty-window-is-already-complete path can resolve these.
    let engine = ReadoutEngine::with_clock(Box::new(Echo), EngineConfig::default(), manual());
    let session = engine.session();
    let empty = session.submit_all(&[]);
    assert!(empty.is_empty());
    assert_eq!(empty.wait(), Vec::<Vec<usize>>::new());
    let ok = session
        .try_submit_all(&[])
        .expect("empty window always fits");
    assert_eq!(ok.outcome(), Ok(vec![]));
}

#[test]
fn submit_all_chunks_windows_larger_than_the_queue() {
    let engine = ReadoutEngine::new(
        Box::new(Echo),
        EngineConfig {
            max_batch: 1,
            max_queue: 2,
            standard_watermark: 2,
            bulk_watermark: 1,
        },
    );
    let traces: Vec<Vec<Complex>> = (1..=9).map(trace).collect();
    let window: Vec<&[Complex]> = traces.iter().map(Vec::as_slice).collect();
    let expected = Echo.predict_batch(&window);
    // 9 shots through a queue of 2: submit_all must block-and-chunk
    // behind the worker, never shed, and still resolve in submission
    // order.
    assert_eq!(engine.session().submit_all(&window).wait(), expected);
    assert_eq!(engine.stats().total_submitted(), 9);
    assert_eq!(engine.stats().outstanding(), 0);
}

#[test]
fn try_submit_all_admits_a_prefix_and_sheds_the_rest_typed() {
    let hold = Gate::new();
    let entered = Gate::new();
    let config = EngineConfig {
        max_batch: 1,
        max_queue: 8,
        standard_watermark: 6,
        bulk_watermark: 3,
    };
    let engine = ReadoutEngine::with_clock(
        Box::new(GatedEcho {
            hold: Arc::clone(&hold),
            entered: Arc::clone(&entered),
        }),
        config,
        manual(),
    );
    // Pin the worker inside the model so the queue depth the vectored
    // admission sees is fully deterministic.
    let first = engine.session().submit(&trace(9));
    entered.pass();

    let traces: Vec<Vec<Complex>> = (1..=5).map(trace).collect();
    let window: Vec<&[Complex]> = traces.iter().map(Vec::as_slice).collect();

    // Bulk watermark 3, empty queue: only a 3-shot prefix fits.
    let bulk = engine.session_with(Qos::Bulk);
    let shed = bulk.try_submit_all(&window).unwrap_err();
    assert_eq!(shed.admitted_count, 3);
    assert!(matches!(
        shed.reason,
        Rejected::Shed {
            qos: Qos::Bulk,
            depth: 3,
            watermark: 3,
        }
    ));
    let prefix = shed.admitted.expect("a prefix was admitted");
    assert_eq!(prefix.len(), 3);
    assert_eq!(prefix.pending(), 3);

    // At the watermark nothing fits: a fully-shed window carries no
    // ticket at all.
    let none = bulk.try_submit_all(&window).unwrap_err();
    assert!(none.admitted.is_none());
    assert_eq!(none.admitted_count, 0);

    // Realtime rides past the bulk watermark to the full-queue bound...
    let realtime = engine.session_with(Qos::Realtime);
    let full_window = realtime
        .try_submit_all(&window)
        .expect("5 realtime shots fit in the remaining 5 slots");
    // ...and the 9th slot is the hard bound even for realtime.
    let refused = realtime.try_submit_all(&window).unwrap_err();
    assert!(matches!(refused.reason, Rejected::QueueFull { depth: 8 }));

    // Release the worker: every admitted shot resolves, in submission
    // order, and shed load was refused up front — not lost.
    hold.open();
    assert_eq!(first.wait(), vec![0, 0]);
    assert_eq!(
        prefix.wait(),
        vec![vec![1, 1], vec![2, 2], vec![0, 0]],
        "prefix verdicts come back in submission order"
    );
    assert_eq!(full_window.wait(), Echo.predict_batch(&window));
    let stats = engine.stats();
    assert_eq!(stats.submitted, [5, 1, 3]);
    assert_eq!(stats.shed, [5, 0, 7]);
    assert_eq!(stats.completed, 9);
    assert_eq!(stats.outstanding(), 0, "no vectored ticket may be lost");
}

#[test]
fn panic_mid_window_fails_the_whole_batch_ticket() {
    // Window of 4 over micro-batches of 2: the first flush classifies,
    // the second panics. A half-resolved window is not a usable readout
    // result, so the whole BatchTicket fails — loudly, never a hang.
    let engine = ReadoutEngine::with_clock(
        FaultyDiscriminator::boxed(Box::new(Echo), FaultMode::PanicOnFlush(1)),
        EngineConfig {
            max_batch: 2,
            ..EngineConfig::default()
        },
        manual(),
    );
    let session = engine.session();
    let traces: Vec<Vec<Complex>> = (1..=4).map(trace).collect();
    let window: Vec<&[Complex]> = traces.iter().map(Vec::as_slice).collect();
    let ticket = session.submit_all(&window);
    assert_eq!(ticket.outcome(), Err(TicketFailed));
    assert!(engine.is_failed());
    let stats = engine.stats();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.outstanding(), 0, "failed shots are accounted");
}

#[test]
fn batch_tickets_are_futures_resolving_to_outcomes() {
    let engine = ReadoutEngine::new(
        Box::new(Echo),
        EngineConfig {
            max_batch: 2,
            ..EngineConfig::default()
        },
    );
    let traces: Vec<Vec<Complex>> = (1..=4).map(trace).collect();
    let window: Vec<&[Complex]> = traces.iter().map(Vec::as_slice).collect();
    let session = engine.session();
    let verdicts = exec::block_on(async { session.submit_all(&window).await });
    assert_eq!(verdicts, Ok(Echo.predict_batch(&window)));

    // A failed worker resolves awaited windows to the typed error.
    let faulty = ReadoutEngine::with_clock(
        FaultyDiscriminator::boxed(Box::new(Echo), FaultMode::PanicOnFlush(0)),
        EngineConfig {
            max_batch: 4,
            ..EngineConfig::default()
        },
        manual(),
    );
    let session = faulty.session();
    let outcome = exec::block_on(async { session.submit_all(&window).await });
    assert_eq!(outcome, Err(TicketFailed));
}

#[test]
fn fleet_routes_by_fingerprint_and_bounds_model_count() {
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            engine: EngineConfig {
                max_batch: 1,
                ..EngineConfig::default()
            },
            model_dir: std::path::PathBuf::from("this-dir-does-not-exist"),
            max_models: 2,
            ..FleetConfig::default()
        },
        manual(),
    );
    assert!(fleet.is_empty());
    fleet.register(1, Box::new(EchoOffset(0))).unwrap();
    fleet.register(2, Box::new(EchoOffset(1))).unwrap();
    let s1 = fleet.session_by_fingerprint(1, Qos::Standard).unwrap();
    let s2 = fleet.session_by_fingerprint(2, Qos::Bulk).unwrap();
    // Same trace, different tenants, different verdicts: routing is real.
    assert_eq!(s1.submit(&trace(4)).wait(), vec![1, 1]);
    assert_eq!(s2.submit(&trace(4)).wait(), vec![2, 2]);

    // The fleet refuses a third model rather than growing without bound —
    // before it even looks at the (nonexistent) model directory.
    assert!(matches!(
        fleet.register(3, Box::new(EchoOffset(2))),
        Err(FleetError::FleetFull { limit: 2, .. })
    ));
    assert!(matches!(
        fleet.session_by_fingerprint(3, Qos::Standard),
        Err(FleetError::FleetFull { limit: 2, .. })
    ));

    let rows = fleet.stats();
    assert_eq!(rows.len(), 2);
    assert_eq!((rows[0].fingerprint, rows[1].fingerprint), (1, 2));
    assert!(rows.iter().all(|r| !r.failed && r.stats.completed == 1));
    let agg = fleet.aggregate_stats();
    assert_eq!(agg.total_submitted(), 2);
    assert_eq!(agg.completed, 2);
    assert_eq!(agg.outstanding(), 0);

    // Retiring frees the slot.
    assert!(fleet.retire(1));
    assert!(!fleet.retire(1));
    fleet.register(3, Box::new(EchoOffset(2))).unwrap();
    assert_eq!(fleet.len(), 2);
}

#[test]
fn fleet_worker_failure_is_contained_to_its_model() {
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            engine: EngineConfig {
                max_batch: 1,
                ..EngineConfig::default()
            },
            ..FleetConfig::default()
        },
        manual(),
    );
    fleet.register(7, Box::new(EchoOffset(0))).unwrap();
    fleet
        .register(
            8,
            FaultyDiscriminator::boxed(Box::new(EchoOffset(0)), FaultMode::PanicOnFlush(0)),
        )
        .unwrap();
    let healthy = fleet.session_by_fingerprint(7, Qos::Standard).unwrap();
    let doomed = fleet.session_by_fingerprint(8, Qos::Standard).unwrap();

    assert_eq!(doomed.submit(&trace(4)).outcome(), Err(TicketFailed));
    // The faulty tenant is failed and refuses work; the healthy tenant
    // never notices.
    assert!(matches!(
        doomed.try_submit(&trace(4)),
        Err(Rejected::WorkerFailed)
    ));
    assert_eq!(healthy.submit(&trace(4)).wait(), vec![1, 1]);

    let rows = fleet.stats();
    let failed_row = rows.iter().find(|r| r.fingerprint == 8).unwrap();
    let healthy_row = rows.iter().find(|r| r.fingerprint == 7).unwrap();
    assert!(failed_row.failed && failed_row.stats.failed == 1);
    assert!(!healthy_row.failed && healthy_row.stats.completed == 1);
    assert_eq!(fleet.aggregate_stats().outstanding(), 0);
}

#[test]
fn fleet_lazily_loads_saved_models_and_matches_direct() {
    let mut chip = ChipConfig::uniform(2);
    chip.n_samples = 80;
    let ds = TraceDataset::generate(&chip, 3, 6, 5);
    let split = ds.split(0.6, 0.0, 5);
    let spec = crate::DiscriminatorSpec::Discriminant(crate::DiscriminantKind::Lda);
    let model = crate::registry::fit(&spec, &ds, &split, 5);
    let all: Vec<usize> = (0..ds.len()).collect();
    let expected = model.predict_batch(&gather_shots(&ds, &all));

    let dir = std::env::temp_dir().join(format!("mlr-fleet-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    model
        .save_json_file(dir.join("mlr-model-0123456789abcdef.json"))
        .unwrap();

    let fleet = FleetEngine::new(FleetConfig {
        engine: EngineConfig {
            max_batch: 7,
            ..EngineConfig::default()
        },
        model_dir: dir.clone(),
        ..FleetConfig::default()
    });
    // First session loads from disk and spins the worker up...
    let session = fleet.session(&spec).unwrap();
    assert_eq!(fleet.len(), 1);
    // ...a second request routes to the same worker, no reload.
    let _again = fleet.session(&spec).unwrap();
    assert_eq!(fleet.len(), 1);

    let tickets: Vec<Ticket> = all.iter().map(|&i| session.submit(ds.raw(i))).collect();
    let verdicts: Vec<Vec<usize>> = tickets.into_iter().map(Ticket::wait).collect();
    assert_eq!(verdicts, expected, "fleet serving must be bit-identical");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_reports_unknown_models_with_the_scanned_dir() {
    let dir = std::env::temp_dir().join(format!("mlr-fleet-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fleet = FleetEngine::new(FleetConfig {
        model_dir: dir.clone(),
        ..FleetConfig::default()
    });
    match fleet.session_by_fingerprint(0xDEAD_BEEF, Qos::Standard) {
        Err(FleetError::UnknownModel {
            fingerprint,
            dir: scanned,
        }) => {
            assert_eq!(fingerprint, 0xDEAD_BEEF);
            assert_eq!(scanned, dir);
        }
        other => panic!("expected UnknownModel, got {:?}", other.map(|_| ())),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_config_default_workers_track_host_parallelism() {
    let workers = FleetConfig::default().workers;
    // Floored at two so one blocking tenant cannot stall the fleet even
    // on a single-core host; otherwise every advertised hardware thread.
    assert!(workers >= 2);
    if let Ok(cores) = std::thread::available_parallelism() {
        assert_eq!(workers, cores.get().max(2));
    }
}

#[test]
fn fleet_config_reads_env_overrides() {
    std::env::set_var("MLR_FLEET_MAX_MODELS", "3");
    std::env::set_var("MLR_FLEET_MAX_QUEUE", "32");
    std::env::set_var("MLR_FLEET_MAX_BATCH", "16");
    std::env::set_var("MLR_FLEET_WORKERS", "4");
    std::env::set_var("MLR_FLEET_EVICT", "lru");
    let config = FleetConfig::from_env();
    std::env::remove_var("MLR_FLEET_MAX_MODELS");
    std::env::remove_var("MLR_FLEET_MAX_QUEUE");
    std::env::remove_var("MLR_FLEET_MAX_BATCH");
    std::env::remove_var("MLR_FLEET_WORKERS");
    std::env::remove_var("MLR_FLEET_EVICT");
    assert_eq!(config.max_models, 3);
    assert_eq!(config.engine.max_queue, 32);
    assert_eq!(config.engine.max_batch, 16);
    assert_eq!(config.workers, 4);
    assert_eq!(config.evict, EvictPolicy::Lru);
    // Watermarks scale with the queue, not the defaults.
    assert_eq!(config.engine.standard_watermark, 28);
    assert_eq!(config.engine.bulk_watermark, 16);
    // An unset policy variable leaves the conservative default.
    assert_eq!(FleetConfig::from_env().evict, EvictPolicy::Refuse);
    assert!("lru".parse::<EvictPolicy>().is_ok());
    assert!("sometimes".parse::<EvictPolicy>().is_err());
}

#[test]
fn fleet_lru_evicts_the_coldest_idle_model_and_conserves_its_counters() {
    let clock = manual();
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            engine: EngineConfig {
                max_batch: 1,
                ..EngineConfig::default()
            },
            max_models: 2,
            evict: EvictPolicy::Lru,
            ..FleetConfig::default()
        },
        clock.clone(),
    );
    fleet.register(1, Box::new(EchoOffset(0))).unwrap();
    fleet.register(2, Box::new(EchoOffset(1))).unwrap();
    let s1 = fleet.session_by_fingerprint(1, Qos::Standard).unwrap();
    let s2 = fleet.session_by_fingerprint(2, Qos::Standard).unwrap();
    assert_eq!(s1.submit(&trace(4)).wait(), vec![1, 1]);
    assert_eq!(s2.submit(&trace(4)).wait(), vec![2, 2]);

    // Step time, then touch model 1: model 2 is now strictly the coldest,
    // on ManualClock-stamped access times — no wall-clock ambiguity.
    clock.advance(Duration::from_micros(10));
    let _warm = fleet.session_by_fingerprint(1, Qos::Standard).unwrap();
    fleet
        .register(3, Box::new(EchoOffset(2)))
        .expect("LRU eviction makes room instead of FleetFull");
    assert_eq!(fleet.len(), 2);
    let fingerprints: Vec<u64> = fleet.stats().iter().map(|r| r.fingerprint).collect();
    assert_eq!(fingerprints, vec![1, 3], "model 2 was the LRU victim");

    // The evicted tenant's counters survive in the aggregate: eviction
    // churn never loses a count...
    let agg = fleet.aggregate_stats();
    assert_eq!(agg.completed, 2);
    assert_eq!(agg.outstanding(), 0);
    // ...and sessions held on the victim see a clean shutdown, not a hang.
    assert!(matches!(
        s2.try_submit(&trace(4)),
        Err(Rejected::ShuttingDown)
    ));
    assert_eq!(
        fleet
            .session_by_fingerprint(3, Qos::Standard)
            .unwrap()
            .submit(&trace(4))
            .wait(),
        vec![0, 0]
    );
}

#[test]
fn fleet_full_names_the_coldest_evictable_model() {
    let clock = manual();
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            max_models: 1,
            ..FleetConfig::default()
        },
        clock.clone(),
    );
    fleet.register(0xAB, Box::new(EchoOffset(0))).unwrap();
    clock.advance(Duration::from_micros(5));
    let err = fleet.register(0xCD, Box::new(EchoOffset(1))).unwrap_err();
    match &err {
        FleetError::FleetFull {
            limit: 1,
            coldest: Some(candidate),
        } => {
            assert_eq!(candidate.fingerprint, 0xAB);
            assert_eq!(candidate.idle_for, Duration::from_micros(5));
        }
        other => panic!("expected FleetFull with a candidate, got {other:?}"),
    }
    // Regression-pin the message shape: the limit, the coldest
    // fingerprint, its idle age, and the knob that would evict it.
    let msg = err.to_string();
    assert!(msg.contains("maximum of 1 models"), "{msg}");
    assert!(msg.contains("00000000000000ab"), "{msg}");
    assert!(msg.contains("idle 5 µs"), "{msg}");
    assert!(msg.contains("MLR_FLEET_EVICT=lru"), "{msg}");
}

#[test]
fn eviction_refuses_models_pinned_by_tickets_in_flight() {
    let hold = Gate::new();
    let entered = Gate::new();
    let fleet = FleetEngine::with_clock(
        FleetConfig {
            engine: EngineConfig {
                max_batch: 1,
                ..EngineConfig::default()
            },
            max_models: 1,
            evict: EvictPolicy::Lru,
            ..FleetConfig::default()
        },
        manual(),
    );
    fleet
        .register(
            1,
            Box::new(GatedEcho {
                hold: Arc::clone(&hold),
                entered: Arc::clone(&entered),
            }),
        )
        .unwrap();
    let session = fleet.session_by_fingerprint(1, Qos::Standard).unwrap();
    let inflight = session.submit(&trace(4));
    entered.pass(); // the pool thread is now pinned inside the model

    // Even under LRU the sole tenant is not idle: its in-flight ticket
    // pins it, so the fleet refuses — with no candidate to name.
    match fleet.register(2, Box::new(EchoOffset(0))).unwrap_err() {
        FleetError::FleetFull {
            limit: 1,
            coldest: None,
        } => {}
        other => panic!("expected FleetFull with no candidate, got {other:?}"),
    }
    let msg = fleet
        .register(2, Box::new(EchoOffset(0)))
        .unwrap_err()
        .to_string();
    assert!(msg.contains("nothing is evictable"), "{msg}");

    // Once the ticket resolves the tenant is idle again and eviction
    // proceeds.
    hold.open();
    assert_eq!(inflight.wait(), vec![1, 1]);
    fleet
        .register(2, Box::new(EchoOffset(0)))
        .expect("drained tenant is evictable");
    assert_eq!(fleet.len(), 1);
    assert_eq!(fleet.stats()[0].fingerprint, 2);
    assert_eq!(fleet.aggregate_stats().completed, 1);
}
