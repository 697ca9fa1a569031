//! The serving layer of the model lifecycle: micro-batching inference
//! engines over trained discriminators, and the multi-model fleet that
//! scales them.
//!
//! The batch path ([`crate::Discriminator::predict_batch`]) is ~2.4× faster per
//! shot than the per-shot loop, but it wants shots *in bulk* — while a
//! control system (or a fleet of concurrent callers) produces them one at
//! a time. [`ReadoutEngine`] closes that gap the way production model
//! servers do: callers [`Session::submit`] individual shots from any
//! thread and get a [`Ticket`] back; as soon as a worker is free it
//! drains up to `max_batch` queued shots, issues **one** `predict_batch`
//! call for the whole micro-batch, and resolves every ticket with its
//! per-qubit verdict. Batches grow with load on their own: shots that
//! arrive while a batch is being classified queue up to form the next.
//!
//! When the caller already holds a *window* of shots — a feedline's worth
//! of multiplexed readout, not one shot at a time — [`Session::submit_all`]
//! enqueues the whole window under **one** lock acquisition and one wake
//! and returns a [`BatchTicket`] that resolves to every verdict in
//! submission order ([`Session::try_submit_all`] is its non-blocking,
//! partial-shedding twin). Vectored submission collapses the per-ticket
//! lock/wake overhead that otherwise caps cheap plan-fused tenants. The
//! window is the engine's one unit of submission: a lone shot is a
//! window of length one, and its [`Ticket`] is a one-shot
//! [`BatchTicket`] — the same admission code, the same queued job, the
//! same resolve path.
//!
//! Workers live in a shared `pool`: a bounded set of threads drains
//! every tenant's queue — lane-priority within a tenant, round-robin
//! across tenants — so [`FleetEngine`] (in [`fleet`]) serves many models
//! from `MLR_FLEET_WORKERS` threads instead of one thread per model,
//! merging all sessions of the same fingerprint into one `predict_batch`
//! call. A [`ReadoutEngine`] is simply a pool of one thread over one
//! tenant.
//!
//! Verdicts are identical to calling `predict_batch` directly — batching
//! only changes *when* shots are grouped, never the decision; the
//! workspace's tests pin this for arbitrary submission orders, thread
//! counts, window sizes and model mixes. For plan-served families the
//! worker's `predict_batch` call executes the compiled single-pass
//! inference plan ([`crate::CompiledPlan`]), so the engine inherits the
//! fused standardize+head kernels for free.
//!
//! Three serving concerns layer on top of the micro-batcher:
//!
//! * **QoS** ([`Qos`]): each session carries a priority class; when the
//!   queue holds more than one flush's worth of work, realtime shots
//!   flush ahead of standard ahead of bulk.
//! * **Admission control** ([`Session::try_submit`]): instead of the
//!   blocking backpressure of [`Session::submit`], non-blocking
//!   submission sheds load with a typed [`Rejected`] verdict once the
//!   queue crosses the class's watermark ([`EngineConfig`]), so an
//!   overloaded worker degrades by refusing bulk work, not by stalling
//!   everyone. [`Session::try_submit_all`] admits the window prefix that
//!   fits and sheds the rest with a typed [`PartialShed`].
//! * **Observability** ([`EngineStats`]): request/shed/latency counters
//!   per worker, surfaced by `mlr serve-stats` and summed fleet-wide.
//!
//! Time is injectable ([`Clock`]): production engines read a
//! [`WallClock`], tests drive a [`ManualClock`] so latency counters and
//! LRU stamps are exact. Faults are injectable too
//! ([`fault::FaultyDiscriminator`]): a panicking, blocking or
//! wrong-shaped model fails its own tickets loudly — never hangs them —
//! and never touches another worker.
//!
//! # Examples
//!
//! ```no_run
//! use mlr_core::{registry, DiscriminatorSpec, EngineConfig, ReadoutEngine};
//! use mlr_sim::{ChipConfig, TraceDataset};
//!
//! let dataset = TraceDataset::generate(&ChipConfig::five_qubit_paper(), 3, 50, 7);
//! let split = dataset.paper_split(7);
//! let model = registry::fit(&DiscriminatorSpec::default(), &dataset, &split, 7);
//! let engine = ReadoutEngine::new(Box::new(model), EngineConfig::default());
//! let session = engine.session();
//! let ticket = session.submit(dataset.raw(0));
//! println!("verdict: {:?}", ticket.wait());
//! ```

mod clock;
pub mod fault;
pub mod fleet;
mod pool;
mod stats;

pub use clock::{Clock, ManualClock, WallClock};
pub use fleet::{
    EvictPolicy, EvictionCandidate, FleetConfig, FleetEngine, FleetError, ModelServeStats,
};
pub use stats::EngineStats;

use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use mlr_num::Complex;

use crate::spec::BoxedDiscriminator;
use pool::{PoolCore, WorkerPool};
use stats::StatCells;

/// Locks a mutex, recovering from poisoning: every engine state
/// transition completes atomically under the guard, so state behind a
/// poisoned lock is still consistent (poisoning here only means some
/// *caller* panicked while holding it — e.g. a deliberate
/// submit-after-shutdown panic, or a waiter that panicked between lock
/// and wait).
pub(crate) fn lock_recovering<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Per-session priority class of the micro-batcher.
///
/// Priorities decide two things: flush order when the queue holds more
/// than one batch of work (realtime first), and the admission watermark
/// at which [`Session::try_submit`] starts shedding the class
/// ([`EngineConfig::watermark`] — bulk sheds earliest, realtime only when
/// the queue is full).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(usize)]
pub enum Qos {
    /// Feedback-latency-critical shots: flushed first, shed last.
    Realtime = 0,
    /// The default class.
    #[default]
    Standard = 1,
    /// Throughput-oriented background work: first to be shed under load.
    Bulk = 2,
}

impl Qos {
    /// Number of priority classes.
    pub const CLASSES: usize = 3;

    /// All classes, highest priority first.
    pub const ALL: [Qos; Qos::CLASSES] = [Qos::Realtime, Qos::Standard, Qos::Bulk];

    /// Lower-case class name (`realtime` / `standard` / `bulk`).
    pub fn name(self) -> &'static str {
        match self {
            Qos::Realtime => "realtime",
            Qos::Standard => "standard",
            Qos::Bulk => "bulk",
        }
    }
}

impl fmt::Display for Qos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Qos {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "realtime" => Ok(Qos::Realtime),
            "standard" => Ok(Qos::Standard),
            "bulk" => Ok(Qos::Bulk),
            other => Err(format!(
                "unknown QoS class '{other}' (expected realtime, standard or bulk)"
            )),
        }
    }
}

/// Micro-batching and admission policy of a [`ReadoutEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Largest micro-batch a worker drains in one go. 64 matches the batch
    /// kernels' sweet spot on the 5-qubit chip (see the
    /// `engine_throughput` bench).
    pub max_batch: usize,
    /// Hard queue bound: [`Session::submit`] blocks (and
    /// [`Session::try_submit`] rejects with [`Rejected::QueueFull`])
    /// while this many shots are already queued. Bounds the engine's
    /// memory to `max_queue` traces and keeps the recycled trace buffers
    /// cache-resident (an unbounded queue measurably slows the inference
    /// it feeds — see the `engine_throughput` bench). Clamped up to at
    /// least `max_batch`.
    pub max_queue: usize,
    /// Admission watermark for [`Qos::Standard`] `try_submit`s: reject
    /// with [`Rejected::Shed`] once the queue depth reaches this.
    /// Clamped to `max_queue`.
    pub standard_watermark: usize,
    /// Admission watermark for [`Qos::Bulk`] `try_submit`s — lower than
    /// `standard_watermark`, so bulk load sheds first.
    pub bulk_watermark: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::with_queue(128)
    }
}

impl EngineConfig {
    /// The default policy scaled to a hard queue bound of `max_queue`:
    /// micro-batches of at most 64 (clamped to the queue), drained as
    /// soon as a worker is free, standard admission at 7/8 of the queue
    /// and bulk admission at half of it.
    pub fn with_queue(max_queue: usize) -> Self {
        let max_queue = max_queue.max(1);
        Self {
            max_batch: 64.min(max_queue),
            max_queue,
            standard_watermark: (max_queue - max_queue / 8).max(1),
            bulk_watermark: (max_queue / 2).max(1),
        }
    }

    /// Queue depth at which a [`Session::try_submit`] of class `qos` is
    /// shed: the class watermark, except realtime which is only refused
    /// by the full queue.
    pub fn watermark(&self, qos: Qos) -> usize {
        let cap = self.max_queue.max(self.max_batch);
        match qos {
            Qos::Realtime => cap,
            Qos::Standard => self.standard_watermark.min(cap),
            Qos::Bulk => self.bulk_watermark.min(cap),
        }
    }
}

/// Why [`Session::try_submit`] refused a shot — the typed load-shedding
/// verdicts of the admission controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The queue is at its hard [`EngineConfig::max_queue`] bound; even
    /// realtime work is refused rather than buffered without limit.
    QueueFull {
        /// Queue depth at rejection time.
        depth: usize,
    },
    /// The queue crossed this class's admission watermark; higher-priority
    /// classes may still be admitted.
    Shed {
        /// The rejected class.
        qos: Qos,
        /// Queue depth at rejection time.
        depth: usize,
        /// The class's watermark ([`EngineConfig::watermark`]).
        watermark: usize,
    },
    /// The worker died classifying an earlier batch (model panic or
    /// wrong-shape output); this model serves nothing further.
    WorkerFailed,
    /// The engine is shutting down cleanly.
    ShuttingDown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { depth } => write!(f, "queue full at depth {depth}"),
            Rejected::Shed {
                qos,
                depth,
                watermark,
            } => write!(
                f,
                "{qos} load shed at depth {depth} (watermark {watermark})"
            ),
            Rejected::WorkerFailed => write!(f, "worker failed"),
            Rejected::ShuttingDown => write!(f, "engine shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// The verdict for this shot was lost to a worker fault (the model
/// panicked or returned wrong-shaped output while classifying its
/// micro-batch). Returned by [`Ticket::outcome`] and the ticket's
/// [`Future`] impl; [`Ticket::wait`] panics instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TicketFailed;

impl fmt::Display for TicketFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "readout worker failed before this shot's micro-batch was classified"
        )
    }
}

impl std::error::Error for TicketFailed {}

/// One queued shot: its sample storage, the window slot its verdict
/// lands in (`index` of `batch`; a scalar [`Ticket`] is a one-shot
/// window), and when it entered the queue (anchors the latency counters,
/// on the engine's [`Clock`]).
pub(crate) struct Job {
    trace: TraceBuf,
    batch: Arc<BatchState>,
    index: usize,
    submitted_at: Duration,
}

/// A queued shot's sample storage. Scalar and borrowed-window submission
/// copy the caller's slice into an engine-owned (recycled) buffer; the
/// `*_shared` vectored paths enqueue an [`Arc`] clone of caller-owned
/// storage instead — for fast plan-fused models the 4 KB-per-shot copy
/// *is* the serving overhead, and sharing removes it.
pub(crate) enum TraceBuf {
    Owned(Vec<Complex>),
    Shared(Arc<[Complex]>),
}

impl TraceBuf {
    fn as_slice(&self) -> &[Complex] {
        match self {
            TraceBuf::Owned(trace) => trace,
            TraceBuf::Shared(trace) => trace,
        }
    }
}

/// A pending verdict for one submitted shot.
///
/// Resolves once the engine's worker has flushed the micro-batch
/// containing the shot. Consume it synchronously with [`Ticket::wait`] /
/// [`Ticket::outcome`], peek with [`Ticket::try_wait`], or `.await` it —
/// a ticket is a [`Future`], which is what the fleet's async front end
/// builds on. Under the hood a ticket is a one-shot [`BatchTicket`]: a
/// lone shot is a window of length one, queued, flushed and resolved on
/// the same path as every window.
pub struct Ticket {
    window: BatchTicket,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = lock_recovering(&self.window.slot.state);
        f.debug_struct("Ticket")
            .field("resolved", &inner.verdicts[0].is_some())
            .field("failed", &inner.failed)
            .finish()
    }
}

impl Ticket {
    /// Blocks until the verdict is available and returns the per-qubit
    /// level decisions, in qubit order.
    ///
    /// # Panics
    ///
    /// Panics if the engine's worker died (the model panicked) before
    /// this shot's micro-batch was classified — the verdict will never
    /// arrive, and hanging forever would hide the failure. Use
    /// [`Ticket::outcome`] to handle that case as a value instead.
    pub fn wait(self) -> Vec<usize> {
        match self.outcome() {
            Ok(verdict) => verdict,
            // Panic with no lock held: a panicking waiter must not
            // poison state shared with sibling tickets or the worker.
            Err(TicketFailed) => {
                panic!("ReadoutEngine worker panicked; this shot's verdict was lost")
            }
        }
    }

    /// Blocks until the shot is classified (`Ok`) or its worker fails
    /// (`Err`), never panicking: the non-blocking-policy twin of
    /// [`Ticket::wait`].
    pub fn outcome(self) -> Result<Vec<usize>, TicketFailed> {
        self.window.slot.wait_settled(take_one)
    }

    /// Returns a copy of the verdict if it is already available, without
    /// blocking or consuming it — [`Ticket::wait`] still works afterwards.
    pub fn try_wait(&self) -> Option<Vec<usize>> {
        lock_recovering(&self.window.slot.state).verdicts[0].clone()
    }
}

impl Future for Ticket {
    type Output = Result<Vec<usize>, TicketFailed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.window.slot.poll_settled(cx, take_one)
    }
}

/// Shared resolution state behind a [`BatchTicket`]: one slot per shot of
/// the window, a remaining-count, and one condvar/waker for the whole
/// window.
struct BatchState {
    state: Mutex<BatchInner>,
    ready: Condvar,
}

struct BatchInner {
    /// Per-shot verdicts, indexed by submission order within the window.
    verdicts: Vec<Option<Vec<usize>>>,
    /// Unresolved slots; the window completes when this reaches zero.
    remaining: usize,
    /// A worker fault hit (at least) one shot of the window: the whole
    /// window's verdict set is unusable, so the ticket fails as a unit.
    failed: bool,
    /// Whether the holder is (about to be) blocked in [`BatchTicket::wait`].
    waiting: bool,
    /// Waker of a task awaiting the window through its [`Future`] impl.
    waker: Option<Waker>,
}

impl BatchState {
    fn new(len: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(BatchInner {
                verdicts: vec![None; len],
                remaining: len,
                failed: false,
                waiting: false,
                waker: None,
            }),
            ready: Condvar::new(),
        })
    }

    /// Lands a whole run of verdicts from one flush under a single lock
    /// acquisition — a 64-shot flush of one window pays one lock on the
    /// resolve path, not 64 — and wakes the holder only when the last
    /// slot fills: one wake per window, not per shot. The wake syscall is
    /// skipped unless the holder is (about to be) blocked in `wait`;
    /// under bulk submission most windows resolve before anyone waits.
    fn resolve_many(&self, run: impl IntoIterator<Item = (usize, Vec<usize>)>) {
        let (done, waiting, waker) = {
            let mut inner = lock_recovering(&self.state);
            for (index, verdict) in run {
                if inner.verdicts[index].is_none() {
                    inner.remaining -= 1;
                }
                inner.verdicts[index] = Some(verdict);
            }
            let done = inner.remaining == 0;
            let waker = if done { inner.waker.take() } else { None };
            (done, inner.waiting, waker)
        };
        if done {
            if waiting {
                self.ready.notify_all();
            }
            if let Some(waker) = waker {
                waker.wake();
            }
        }
    }

    /// Fails the whole window (worker fault on any of its shots), waking
    /// waiters immediately.
    fn fail(&self) {
        let waker = {
            let mut inner = lock_recovering(&self.state);
            inner.failed = true;
            inner.waker.take()
        };
        self.ready.notify_all();
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Blocks until the window settles: `Ok` with `take` applied to its
    /// verdict slots once every shot is classified, `Err` once a worker
    /// fault failed it.
    fn wait_settled<R>(
        &self,
        take: impl FnOnce(&mut [Option<Vec<usize>>]) -> R,
    ) -> Result<R, TicketFailed> {
        let mut guard = lock_recovering(&self.state);
        loop {
            if guard.failed {
                // Surface the failure outside the lock (see `Ticket::wait`).
                drop(guard);
                return Err(TicketFailed);
            }
            if guard.remaining == 0 {
                return Ok(take(&mut guard.verdicts));
            }
            guard.waiting = true;
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// The [`Future`] form of [`BatchState::wait_settled`]: registers the
    /// task's waker instead of blocking.
    fn poll_settled<R>(
        &self,
        cx: &mut Context<'_>,
        take: impl FnOnce(&mut [Option<Vec<usize>>]) -> R,
    ) -> Poll<Result<R, TicketFailed>> {
        let mut inner = lock_recovering(&self.state);
        if inner.failed {
            return Poll::Ready(Err(TicketFailed));
        }
        if inner.remaining == 0 {
            return Poll::Ready(Ok(take(&mut inner.verdicts)));
        }
        inner.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Takes every verdict of a completed window, in submission order.
fn take_all(verdicts: &mut [Option<Vec<usize>>]) -> Vec<Vec<usize>> {
    verdicts
        .iter_mut()
        .map(|slot| slot.take().unwrap_or_default())
        .collect()
}

/// Takes the verdict of a completed one-shot window (a [`Ticket`]).
fn take_one(verdicts: &mut [Option<Vec<usize>>]) -> Vec<usize> {
    verdicts[0].take().unwrap_or_default()
}

/// The pending verdicts for one vectored window submitted with
/// [`Session::submit_all`] / [`Session::try_submit_all`].
///
/// Resolves once every shot of the window has been classified — the
/// verdicts come back in submission order regardless of how the worker
/// grouped the window into micro-batches. Like [`Ticket`], it is also a
/// [`Future`]. If a worker fault hits *any* shot of the window, the whole
/// ticket fails ([`TicketFailed`]): a partially-classified window is not
/// a usable readout result.
pub struct BatchTicket {
    slot: Arc<BatchState>,
}

impl fmt::Debug for BatchTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = lock_recovering(&self.slot.state);
        f.debug_struct("BatchTicket")
            .field("len", &inner.verdicts.len())
            .field("pending", &inner.remaining)
            .field("failed", &inner.failed)
            .finish()
    }
}

impl BatchTicket {
    /// Number of shots in the window.
    pub fn len(&self) -> usize {
        lock_recovering(&self.slot.state).verdicts.len()
    }

    /// Whether the window holds no shots (an empty window resolves
    /// immediately).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shots of the window still awaiting a verdict.
    pub fn pending(&self) -> usize {
        lock_recovering(&self.slot.state).remaining
    }

    /// Blocks until every shot of the window is classified and returns
    /// the per-shot verdicts in submission order.
    ///
    /// # Panics
    ///
    /// Panics if the worker died before the window completed (see
    /// [`Ticket::wait`]); use [`BatchTicket::outcome`] to handle the
    /// failure as a value.
    pub fn wait(self) -> Vec<Vec<usize>> {
        match self.outcome() {
            Ok(verdicts) => verdicts,
            Err(TicketFailed) => {
                panic!("ReadoutEngine worker panicked; this window's verdicts were lost")
            }
        }
    }

    /// Blocks until the window completes (`Ok`, verdicts in submission
    /// order) or its worker fails (`Err`), never panicking.
    pub fn outcome(self) -> Result<Vec<Vec<usize>>, TicketFailed> {
        self.slot.wait_settled(take_all)
    }
}

impl Future for BatchTicket {
    type Output = Result<Vec<Vec<usize>>, TicketFailed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.slot.poll_settled(cx, take_all)
    }
}

/// What [`Session::try_submit_all`] did with a window it could not admit
/// in full: the prefix that fit (if any) and the typed reason the first
/// refused shot was shed.
#[derive(Debug)]
pub struct PartialShed {
    /// Ticket covering the admitted window *prefix*, in submission order;
    /// `None` when the queue had no room for even one shot.
    pub admitted: Option<BatchTicket>,
    /// Shots admitted (the prefix length; the rest of the window was
    /// shed).
    pub admitted_count: usize,
    /// Why the first refused shot was shed — the same typed verdicts as
    /// [`Session::try_submit`].
    pub reason: Rejected,
}

/// One tenant of the worker [`pool`]: a model, its lane-prioritised
/// submission queue, and its serving counters. A [`ReadoutEngine`] owns
/// exactly one; a [`FleetEngine`] keeps one per fingerprint.
pub(crate) struct Tenant {
    queue: Mutex<Queue>,
    /// Signals submitters blocked on the [`EngineConfig::max_queue`]
    /// backpressure bound: space freed or shutdown.
    space: Condvar,
    /// The engine's time source (latency counters, LRU stamps).
    clock: Arc<dyn Clock>,
    /// Serving counters, updated lock-free on the submit/resolve paths.
    stats: StatCells,
    /// The batching policy (clamped: `max_queue >= max_batch`).
    config: EngineConfig,
    /// The served model. [`crate::Discriminator`] is `Sync`, so any pool
    /// thread may call `predict_batch` on it.
    model: BoxedDiscriminator,
    /// Cached `model.n_qubits()` for the output shape check.
    n_qubits: usize,
    /// Nanoseconds (on the engine clock) of the last session open or
    /// submission — the fleet's LRU eviction stamp.
    last_access: AtomicU64,
}

struct Queue {
    /// One FIFO lane per [`Qos`] class, drained highest priority first.
    lanes: [VecDeque<Job>; Qos::CLASSES],
    /// Total queued jobs across lanes.
    len: usize,
    /// Recycled trace buffers: flushed jobs return their `Vec<Complex>`
    /// here and submissions refill from it, so a busy engine stops
    /// touching the allocator (and keeps its working set at roughly one
    /// micro-batch of traces instead of one per queued shot — cache
    /// pressure directly measurable in the `engine_throughput` bench).
    spare_buffers: Vec<Vec<Complex>>,
    /// A pool thread is classifying a batch drained from this queue;
    /// exactly one drainer per tenant at a time keeps flush order
    /// deterministic and pins the tenant against eviction.
    draining: bool,
    closed: bool,
    /// `closed` because the worker died (model fault), not a clean
    /// shutdown — distinguishes [`Rejected::WorkerFailed`] from
    /// [`Rejected::ShuttingDown`].
    failed: bool,
}

impl Queue {
    /// Drains up to `max` jobs, highest-priority lanes first, FIFO within
    /// a lane.
    fn drain_batch(&mut self, max: usize) -> Vec<Job> {
        let mut batch = Vec::with_capacity(max.min(self.len));
        for lane in &mut self.lanes {
            while batch.len() < max {
                match lane.pop_front() {
                    Some(job) => batch.push(job),
                    None => break,
                }
            }
        }
        self.len -= batch.len();
        batch
    }
}

/// Whether an enqueue that moved the queue from `pre` to `post` jobs must
/// wake a pool thread: only when it became non-empty. A queue that was
/// already non-empty is either being drained — and its drainer rescans
/// when it finishes — or was announced by the wake that made it
/// non-empty. Waking on every shot would cost a context switch per shot
/// on a busy engine, and that dominates serving overhead.
fn wake_worthy(pre: usize, post: usize) -> bool {
    pre == 0 && post > 0
}

impl Tenant {
    /// Builds a tenant around a model, clamping the config like
    /// [`ReadoutEngine::with_clock`] documents.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` or `config.max_queue` is zero.
    fn new(
        model: BoxedDiscriminator,
        mut config: EngineConfig,
        clock: Arc<dyn Clock>,
    ) -> Arc<Self> {
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.max_queue > 0, "max_queue must be positive");
        config.max_queue = config.max_queue.max(config.max_batch);
        let n_qubits = model.n_qubits();
        Arc::new(Self {
            queue: Mutex::new(Queue {
                lanes: std::array::from_fn(|_| VecDeque::new()),
                len: 0,
                spare_buffers: Vec::new(),
                draining: false,
                closed: false,
                failed: false,
            }),
            space: Condvar::new(),
            clock,
            stats: StatCells::default(),
            config,
            model,
            n_qubits,
            last_access: AtomicU64::new(0),
        })
    }

    pub(crate) fn config(&self) -> EngineConfig {
        self.config
    }

    pub(crate) fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    pub(crate) fn is_failed(&self) -> bool {
        lock_recovering(&self.queue).failed
    }

    /// Stamps the LRU clock: called on session open (the submit paths
    /// stamp from the enqueue timestamp instead).
    pub(crate) fn touch(&self) {
        self.stamp_access(self.clock.now());
    }

    fn stamp_access(&self, at: Duration) {
        let nanos = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX);
        self.last_access.store(nanos, Ordering::Relaxed);
    }

    /// The LRU stamp, in nanoseconds on the engine clock.
    pub(crate) fn last_access_nanos(&self) -> u64 {
        self.last_access.load(Ordering::Relaxed)
    }

    /// Whether nothing pins this tenant: no queued work, no batch being
    /// classified, no unresolved ticket. Only idle tenants are LRU
    /// eviction candidates — tickets in flight pin their worker.
    pub(crate) fn is_idle(&self) -> bool {
        let queue = lock_recovering(&self.queue);
        !queue.draining && queue.len == 0 && self.stats.snapshot().outstanding() == 0
    }

    /// Closes the queue: submissions are refused from here on. Queued
    /// work is *not* dropped — a pool thread (or
    /// [`Tenant::drain_after_close`]) still flushes it.
    pub(crate) fn close(&self) {
        {
            let mut queue = lock_recovering(&self.queue);
            queue.closed = true;
        }
        self.space.notify_all();
    }

    /// If this tenant has queued shots and no other thread is draining
    /// it, claims up to `max_batch` of them: marks the queue draining and
    /// returns the batch. The caller must hand the batch to
    /// [`Tenant::classify_and_resolve`] with `clear_draining = true`.
    pub(crate) fn try_begin_drain(&self) -> Option<Vec<Job>> {
        let mut queue = lock_recovering(&self.queue);
        if queue.draining || queue.len == 0 {
            return None;
        }
        queue.draining = true;
        Some(queue.drain_batch(self.config.max_batch))
    }

    /// Shots queued and not yet claimed by a drainer.
    pub(crate) fn queued(&self) -> usize {
        lock_recovering(&self.queue).len
    }

    /// Classifies one drained batch in a single `predict_batch` call and
    /// resolves its tickets; on a model fault (panic *or* wrong-shape
    /// output) fails every outstanding ticket loudly and closes the
    /// tenant. `clear_draining` is set by pool threads that claimed the
    /// batch via [`Tenant::try_begin_drain`].
    pub(crate) fn classify_and_resolve(&self, batch: Vec<Job>, clear_draining: bool) {
        let shots: Vec<&[Complex]> = batch.iter().map(|job| job.trace.as_slice()).collect();
        let verdicts = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.model.predict_batch(&shots)
        }));
        drop(shots);
        // A panic and a wrong-shape output are the same fault: this
        // model can no longer be trusted to resolve tickets.
        let verdicts = match verdicts {
            Ok(verdicts)
                if verdicts.len() == batch.len()
                    && verdicts.iter().all(|v| v.len() == self.n_qubits) =>
            {
                verdicts
            }
            _ => {
                self.fail_with(batch, clear_draining);
                return;
            }
        };
        self.stats.record_flush();
        let resolved_at = self.clock.now();
        let n = batch.len() as u64;
        let mut latency_sum = 0u64;
        let mut latency_max = 0u64;
        let mut resolved = Vec::with_capacity(batch.len());
        let mut buffers = Vec::with_capacity(batch.len());
        for (job, verdict) in batch.into_iter().zip(verdicts) {
            let ns = u64::try_from(resolved_at.saturating_sub(job.submitted_at).as_nanos())
                .unwrap_or(u64::MAX);
            latency_sum = latency_sum.saturating_add(ns);
            latency_max = latency_max.max(ns);
            resolved.push((job.batch, job.index, verdict));
            // Shared traces belong to the submitter; only engine-owned
            // buffers go back to the recycle pool.
            if let TraceBuf::Owned(buf) = job.trace {
                buffers.push(buf);
            }
        }
        // Stats before the wake: a caller returning from `wait` must
        // already see its own completion counted.
        self.stats
            .record_completed_batch(n, latency_sum, latency_max);
        // Hand the flushed traces back to the submission pool (bounded at
        // the queue depth so an idle engine does not pin memory) and
        // release the drain claim *before* resolving: a holder returning
        // from `wait` must already find the tenant idle (the fleet's
        // eviction pin reads exactly this).
        {
            let mut queue = lock_recovering(&self.queue);
            if clear_draining {
                queue.draining = false;
            }
            let cap = self.config.max_queue;
            while queue.spare_buffers.len() < cap {
                match buffers.pop() {
                    Some(buf) => queue.spare_buffers.push(buf),
                    None => break,
                }
            }
        }
        // Resolve in runs: consecutive shots of the same window land under
        // one BatchState lock via `resolve_many` (a scalar ticket is a
        // run of one).
        let mut resolved = resolved.into_iter().peekable();
        while let Some((batch, index, verdict)) = resolved.next() {
            let rest = std::iter::from_fn(|| {
                resolved
                    .next_if(|(next, ..)| Arc::ptr_eq(next, &batch))
                    .map(|(_, index, verdict)| (index, verdict))
            });
            batch.resolve_many(std::iter::once((index, verdict)).chain(rest));
        }
        // Backpressured submitters move up.
        self.space.notify_all();
    }

    /// The fail-loudly path: mark every outstanding ticket failed, close
    /// the tenant, and wake everyone — waiters see the failure,
    /// submitters are refused.
    fn fail_with(&self, batch: Vec<Job>, clear_draining: bool) {
        let queued = {
            let mut queue = lock_recovering(&self.queue);
            queue.closed = true;
            queue.failed = true;
            queue.len = 0;
            if clear_draining {
                queue.draining = false;
            }
            std::mem::replace(&mut queue.lanes, std::array::from_fn(|_| VecDeque::new()))
        };
        // Count before waking anyone: a waiter that sees its ticket fail
        // must already find the failure in the stats.
        let jobs: Vec<Job> = batch
            .into_iter()
            .chain(queued.into_iter().flatten())
            .collect();
        self.stats.record_failed(jobs.len());
        for job in jobs {
            job.batch.fail();
        }
        self.space.notify_all();
    }

    /// Synchronously flushes everything still queued on a closed tenant —
    /// the fleet's retire/evict path runs this on the caller's thread so
    /// a retired tenant's tickets resolve even after it leaves the pool
    /// roster. Safe alongside a pool thread finishing its last claimed
    /// batch: each job is drained exactly once, and concurrent
    /// `predict_batch` calls are fine (`Discriminator: Sync`).
    pub(crate) fn drain_after_close(&self) {
        loop {
            let batch = {
                let mut queue = lock_recovering(&self.queue);
                if queue.len == 0 {
                    break;
                }
                queue.drain_batch(self.config.max_batch)
            };
            self.classify_and_resolve(batch, false);
        }
    }
}

/// A cloneable handle for submitting shots to a [`ReadoutEngine`] or
/// [`FleetEngine`] tenant from any thread, carrying its [`Qos`] class.
#[derive(Clone)]
pub struct Session {
    tenant: Arc<Tenant>,
    pool: Arc<PoolCore>,
    qos: Qos,
}

impl Session {
    pub(crate) fn open(tenant: Arc<Tenant>, pool: Arc<PoolCore>, qos: Qos) -> Self {
        Self { tenant, pool, qos }
    }

    /// This session's priority class.
    pub fn qos(&self) -> Qos {
        self.qos
    }

    /// Enqueues one raw multiplexed trace for classification; the returned
    /// [`Ticket`] resolves to the per-qubit verdict once the micro-batch
    /// containing it is flushed.
    ///
    /// This is the *cooperative backpressure* path: it blocks while the
    /// queue is at [`EngineConfig::max_queue`], bypassing the admission
    /// watermarks. Use [`Session::try_submit`] for the non-blocking,
    /// load-shedding path.
    ///
    /// The trace is copied into the engine (submission outlives the
    /// caller's borrow).
    ///
    /// # Panics
    ///
    /// Panics if the engine has shut down (the [`ReadoutEngine`] was
    /// dropped while this session survived it, or its worker died).
    pub fn submit(&self, raw: &[Complex]) -> Ticket {
        Ticket {
            window: self.submit_all_inner(&[raw]),
        }
    }

    /// Non-blocking admission-controlled submission: enqueues the trace
    /// if this session's class is below its watermark
    /// ([`EngineConfig::watermark`]), otherwise sheds it with a typed
    /// [`Rejected`] verdict. Never blocks, never panics — the fleet
    /// front door.
    ///
    /// # Errors
    ///
    /// [`Rejected`] describes why the shot was refused; the caller can
    /// retry later, downgrade, or drop the work.
    pub fn try_submit(&self, raw: &[Complex]) -> Result<Ticket, Rejected> {
        self.try_submit_all_inner(&[raw])
            .map(|window| Ticket { window })
            .map_err(|shed| shed.reason)
    }

    /// Vectored submission: enqueues a whole window of shots under one
    /// lock acquisition and (at most) one worker wake per queue refill,
    /// instead of a lock+wake pair per shot. The returned [`BatchTicket`]
    /// resolves to every verdict in submission order.
    ///
    /// Like [`Session::submit`] this is the blocking-backpressure path: a
    /// window larger than the queue's free space is enqueued in chunks,
    /// waiting for the worker to make room — the caller never sheds.
    ///
    /// # Panics
    ///
    /// Panics if the engine has shut down (see [`Session::submit`]); any
    /// already-enqueued prefix of the window is still classified or
    /// failed, never lost.
    pub fn submit_all(&self, window: &[&[Complex]]) -> BatchTicket {
        self.submit_all_inner(window)
    }

    /// Zero-copy [`Session::submit_all`]: the window shares the caller's
    /// [`Arc`]-owned shot storage instead of copying each trace into the
    /// queue. For plan-fused models whose per-shot compute is comparable
    /// to a trace memcpy, the copy *is* the serving overhead — this is
    /// the path that lets cheap tenants track their direct-equivalent
    /// rate. The engine drops its refcounts as each flush resolves.
    ///
    /// # Panics
    ///
    /// Panics if the engine has shut down, exactly like
    /// [`Session::submit_all`].
    pub fn submit_all_shared(&self, window: &[Arc<[Complex]>]) -> BatchTicket {
        self.submit_all_inner(window)
    }

    fn submit_all_inner<T: TraceSource>(&self, window: &[T]) -> BatchTicket {
        let batch = BatchState::new(window.len());
        let mut next = 0;
        while next < window.len() {
            let must_wake = {
                let mut queue = lock_recovering(&self.tenant.queue);
                // Backpressure: wait for queue space rather than buffering
                // without bound (see `EngineConfig::max_queue`).
                while queue.len >= self.tenant.config.max_queue && !queue.closed {
                    queue = self
                        .tenant
                        .space
                        .wait(queue)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                assert!(!queue.closed, "submit on a shut-down ReadoutEngine");
                let room = self.tenant.config.max_queue - queue.len;
                let take = room.min(window.len() - next);
                let pre = queue.len;
                let submitted_at = self.stamp_now();
                for offset in 0..take {
                    let trace = window[next + offset].to_buf(&mut queue);
                    self.enqueue(&mut queue, trace, &batch, next + offset, submitted_at);
                }
                next += take;
                self.tenant.stats.record_submit_n(self.qos, take, queue.len);
                wake_worthy(pre, queue.len)
            };
            if must_wake {
                self.pool.wake_one();
            }
        }
        BatchTicket { slot: batch }
    }

    /// Non-blocking vectored submission: admits the longest window
    /// *prefix* that fits under this class's watermark
    /// ([`EngineConfig::watermark`]) — still one lock acquisition and at
    /// most one wake — and sheds the rest with a typed [`PartialShed`].
    ///
    /// # Errors
    ///
    /// [`PartialShed`] when any shot was refused: it carries the ticket
    /// for the admitted prefix (if any) plus the same typed
    /// [`Rejected`] reason [`Session::try_submit`] would give the first
    /// refused shot. A fully-admitted window returns `Ok`.
    pub fn try_submit_all(&self, window: &[&[Complex]]) -> Result<BatchTicket, PartialShed> {
        self.try_submit_all_inner(window)
    }

    /// Zero-copy [`Session::try_submit_all`]: admission control and typed
    /// partial shedding over windows that share the caller's
    /// [`Arc`]-owned shot storage (see [`Session::submit_all_shared`]).
    ///
    /// # Errors
    ///
    /// [`PartialShed`] exactly as [`Session::try_submit_all`].
    pub fn try_submit_all_shared(
        &self,
        window: &[Arc<[Complex]>],
    ) -> Result<BatchTicket, PartialShed> {
        self.try_submit_all_inner(window)
    }

    fn try_submit_all_inner<T: TraceSource>(
        &self,
        window: &[T],
    ) -> Result<BatchTicket, PartialShed> {
        let n = window.len();
        let (result, must_wake) = {
            let mut queue = lock_recovering(&self.tenant.queue);
            if queue.closed {
                self.tenant.stats.record_rejected_closed_n(n);
                return Err(PartialShed {
                    admitted: None,
                    admitted_count: 0,
                    reason: if queue.failed {
                        Rejected::WorkerFailed
                    } else {
                        Rejected::ShuttingDown
                    },
                });
            }
            let watermark = self.tenant.config.watermark(self.qos);
            let take = watermark.saturating_sub(queue.len).min(n);
            let batch = BatchState::new(take);
            let pre = queue.len;
            if take > 0 {
                let submitted_at = self.stamp_now();
                for (offset, raw) in window.iter().enumerate().take(take) {
                    let trace = raw.to_buf(&mut queue);
                    self.enqueue(&mut queue, trace, &batch, offset, submitted_at);
                }
                self.tenant.stats.record_submit_n(self.qos, take, queue.len);
            }
            let ticket = BatchTicket { slot: batch };
            let result = if take == n {
                Ok(ticket)
            } else {
                self.tenant.stats.record_shed_n(self.qos, n - take);
                let depth = queue.len;
                Err(PartialShed {
                    admitted: (take > 0).then_some(ticket),
                    admitted_count: take,
                    reason: if depth >= self.tenant.config.max_queue {
                        Rejected::QueueFull { depth }
                    } else {
                        Rejected::Shed {
                            qos: self.qos,
                            depth,
                            watermark,
                        }
                    },
                })
            };
            (result, wake_worthy(pre, queue.len))
        };
        if must_wake {
            self.pool.wake_one();
        }
        result
    }

    /// Reads the clock once and stamps the tenant's LRU access time:
    /// vectored windows pay one clock read per chunk, not per shot.
    fn stamp_now(&self) -> Duration {
        let now = self.tenant.clock.now();
        self.tenant.stamp_access(now);
        now
    }

    /// Pushes one job, resolving into slot `index` of `batch`, into this
    /// session's lane. Callers stamp the clock ([`Session::stamp_now`]),
    /// record stats and decide the wake.
    fn enqueue(
        &self,
        queue: &mut Queue,
        trace: TraceBuf,
        batch: &Arc<BatchState>,
        index: usize,
        submitted_at: Duration,
    ) {
        queue.lanes[self.qos as usize].push_back(Job {
            trace,
            batch: Arc::clone(batch),
            index,
            submitted_at,
        });
        queue.len += 1;
    }
}

/// Internal: how each submission path materialises a queued [`TraceBuf`].
/// Borrowed slices copy into a recycled engine-owned buffer; `Arc` shots
/// clone the refcount and share the caller's storage zero-copy.
trait TraceSource {
    fn to_buf(&self, queue: &mut Queue) -> TraceBuf;
}

impl TraceSource for &[Complex] {
    fn to_buf(&self, queue: &mut Queue) -> TraceBuf {
        let mut trace = queue.spare_buffers.pop().unwrap_or_default();
        trace.clear();
        trace.extend_from_slice(self);
        TraceBuf::Owned(trace)
    }
}

impl TraceSource for Arc<[Complex]> {
    fn to_buf(&self, _queue: &mut Queue) -> TraceBuf {
        TraceBuf::Shared(Arc::clone(self))
    }
}

/// The micro-batching serving front door; see the [module docs](self).
///
/// Owns the trained model (any [`crate::Discriminator`], typically a
/// [`crate::TrainedModel`] from the registry) and a single-thread worker
/// `pool`. Dropping the engine flushes the remaining queue and joins
/// the worker; outstanding tickets still resolve.
pub struct ReadoutEngine {
    tenant: Arc<Tenant>,
    pool: WorkerPool,
    config: EngineConfig,
}

impl ReadoutEngine {
    /// Spawns the engine's worker around a trained model, timed by the
    /// production [`WallClock`].
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` or `config.max_queue` is zero.
    pub fn new(model: BoxedDiscriminator, config: EngineConfig) -> Self {
        Self::with_clock(model, config, Arc::new(WallClock::new()))
    }

    /// [`ReadoutEngine::new`] with an injected time source — a
    /// [`ManualClock`] makes latency counters exact in tests.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` or `config.max_queue` is zero.
    pub fn with_clock(
        model: BoxedDiscriminator,
        config: EngineConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let tenant = Tenant::new(model, config, clock);
        let config = tenant.config();
        let pool = WorkerPool::new(1, "mlr-readout-engine");
        pool.core().add(0, Arc::clone(&tenant));
        Self {
            tenant,
            pool,
            config,
        }
    }

    /// The engine's batching policy (after clamping).
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Opens a [`Qos::Standard`] submission handle; sessions are cheap to
    /// clone and safe to use from many threads at once.
    pub fn session(&self) -> Session {
        self.session_with(Qos::Standard)
    }

    /// Opens a submission handle with an explicit priority class.
    pub fn session_with(&self, qos: Qos) -> Session {
        Session::open(Arc::clone(&self.tenant), self.pool.core(), qos)
    }

    /// A snapshot of this worker's serving counters.
    pub fn stats(&self) -> EngineStats {
        self.tenant.stats()
    }

    /// Whether the worker died to a model fault (every subsequent
    /// submission is refused; outstanding tickets were failed loudly).
    pub fn is_failed(&self) -> bool {
        self.tenant.is_failed()
    }

    /// Convenience: submit a batch of shots through one session and wait
    /// for all verdicts, in input order — one vectored
    /// [`Session::submit_all`] under the hood.
    pub fn classify_all(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        self.session().submit_all(shots).wait()
    }
}

// No Drop impl needed: dropping `pool` (a `WorkerPool`) closes every
// roster tenant, drains the queues, and joins the threads.

#[cfg(test)]
mod tests;
