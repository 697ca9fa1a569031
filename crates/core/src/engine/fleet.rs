//! Multi-model serving: per-fingerprint tenant queues drained by a
//! shared bounded worker pool, with models loaded lazily from the
//! registry cache and (optionally) evicted LRU.
//!
//! A [`FleetEngine`] is a map from [`DiscriminatorSpec`] fingerprint to a
//! serving `Tenant` queue, behind one front door: ask for a
//! [`FleetEngine::session`] on a spec and the fleet either routes to the
//! already-serving tenant or loads the model from the `MLR_MODEL_DIR`
//! envelope cache ([`crate::registry::find_in_dir`]) and installs one.
//! Every tenant's queue is drained by the **same** pool of
//! [`FleetConfig::workers`] threads (`MLR_FLEET_WORKERS`), round-robin
//! across tenants and lane-priority within each (see `super::pool`) —
//! so all sessions of one fingerprint merge into one `predict_batch`
//! call, and serving `n` models costs `workers` threads, not `n`.
//!
//! Tenants stay fault-isolated despite the shared threads — a model that
//! panics or mis-shapes a batch fails its own tickets and refuses further
//! work ([`super::Rejected::WorkerFailed`]), while every other tenant
//! keeps serving; a model that *blocks* pins at most the one pool thread
//! that claimed its batch. The fault-injection tests pin both.
//!
//! The fleet adds one admission layer of its own: at most
//! [`FleetConfig::max_models`] tenants. Past the bound the fleet either
//! refuses ([`FleetError::FleetFull`], which names the coldest evictable
//! tenant so callers can act) or — under [`EvictPolicy::Lru`]
//! (`MLR_FLEET_EVICT=lru`) — retires the least-recently-used *idle*
//! tenant to make room. Access times are stamped on session opens and
//! submissions from the engine [`Clock`]; tenants with tickets in flight
//! are never eviction candidates. Counters aggregate across live and
//! retired tenants ([`FleetEngine::aggregate_stats`]) for
//! `mlr serve-stats`, so eviction churn never loses a count.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::model_io::ModelIoError;
use crate::registry;
use crate::spec::BoxedDiscriminator;
use crate::DiscriminatorSpec;

use super::pool::WorkerPool;
use super::{lock_recovering, Clock, EngineConfig, EngineStats, Qos, Session, Tenant, WallClock};

/// What the fleet does when [`FleetEngine::register`] or a lazy load
/// needs a slot past [`FleetConfig::max_models`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictPolicy {
    /// Refuse with [`FleetError::FleetFull`] (the pre-eviction behaviour,
    /// and the default).
    #[default]
    Refuse,
    /// Retire the least-recently-used **idle** tenant to make room
    /// (`MLR_FLEET_EVICT=lru`). Tenants with queued work, a batch being
    /// classified, or unresolved tickets are pinned and never evicted; if
    /// nothing is idle the fleet still refuses.
    Lru,
}

impl std::str::FromStr for EvictPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "lru" => Ok(EvictPolicy::Lru),
            "refuse" | "off" | "none" => Ok(EvictPolicy::Refuse),
            other => Err(format!(
                "unknown eviction policy '{other}' (expected lru or refuse)"
            )),
        }
    }
}

/// Sizing and model-source policy of a [`FleetEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Batching and admission policy applied to every tenant queue.
    pub engine: EngineConfig,
    /// Directory scanned for saved model envelopes on a fingerprint miss
    /// (the `MLR_MODEL_DIR` cache written by `mlr-bench`).
    pub model_dir: PathBuf,
    /// Hard bound on concurrently served models; what happens past it is
    /// [`FleetConfig::evict`]'s call.
    pub max_models: usize,
    /// Worker threads in the shared pool draining every tenant
    /// (`MLR_FLEET_WORKERS`). Defaults to the machine's available
    /// parallelism (at least two, so one blocking tenant cannot stall the
    /// whole fleet even on a single-core box); clamped to at least one
    /// when overridden.
    pub workers: usize,
    /// Behaviour at the [`FleetConfig::max_models`] bound
    /// (`MLR_FLEET_EVICT`).
    pub evict: EvictPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            model_dir: PathBuf::from("models"),
            max_models: 8,
            workers: default_workers(),
            evict: EvictPolicy::Refuse,
        }
    }
}

/// Default shared-pool size: every hardware thread the host advertises,
/// floored at two. Serving is throughput work — leaving cores idle by
/// default only made sense when the pool was shared by a single tenant —
/// but the floor keeps the one-blocking-tenant isolation guarantee on
/// single-core machines, and `MLR_FLEET_WORKERS` still pins any size
/// (down to one) explicitly.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(2)
        .max(2)
}

impl FleetConfig {
    /// The deployment-facing constructor: defaults overridden by the
    /// `MLR_MODEL_DIR` (model cache directory), `MLR_FLEET_MAX_MODELS`
    /// (tenant bound), `MLR_FLEET_WORKERS` (shared pool size),
    /// `MLR_FLEET_EVICT` (`lru` to retire cold idle tenants at the
    /// bound), `MLR_FLEET_MAX_QUEUE` and `MLR_FLEET_MAX_BATCH`
    /// (per-tenant queue sizing, see [`EngineConfig::with_queue`])
    /// environment variables. Unparsable values fall back to defaults —
    /// serving starts conservatively rather than not at all.
    pub fn from_env() -> Self {
        let mut config = Self::default();
        if let Some(dir) = std::env::var_os("MLR_MODEL_DIR") {
            config.model_dir = PathBuf::from(dir);
        }
        if let Some(n) = env_usize("MLR_FLEET_MAX_MODELS") {
            config.max_models = n.max(1);
        }
        if let Some(n) = env_usize("MLR_FLEET_WORKERS") {
            config.workers = n.max(1);
        }
        if let Ok(policy) = std::env::var("MLR_FLEET_EVICT") {
            if let Ok(policy) = policy.parse() {
                config.evict = policy;
            }
        }
        if let Some(n) = env_usize("MLR_FLEET_MAX_QUEUE") {
            config.engine = EngineConfig::with_queue(n);
        }
        if let Some(n) = env_usize("MLR_FLEET_MAX_BATCH") {
            config.engine.max_batch = n.max(1);
            config.engine.max_queue = config.engine.max_queue.max(config.engine.max_batch);
        }
        config
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The coldest idle tenant at the moment a [`FleetError::FleetFull`] was
/// raised: what [`EvictPolicy::Lru`] would have retired to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionCandidate {
    /// The idle tenant's spec fingerprint.
    pub fingerprint: u64,
    /// How long since its last session open or submission, on the
    /// fleet's [`Clock`].
    pub idle_for: Duration,
}

/// Why the fleet could not open a session on a spec.
#[derive(Debug)]
pub enum FleetError {
    /// No serving tenant matches the fingerprint and no envelope in
    /// [`FleetConfig::model_dir`] does either.
    UnknownModel {
        /// The requested spec fingerprint.
        fingerprint: u64,
        /// The directory that was scanned.
        dir: PathBuf,
    },
    /// A matching envelope exists but failed to load, or the model
    /// directory is unreadable.
    ModelIo(ModelIoError),
    /// The fleet already serves [`FleetConfig::max_models`] models and
    /// the eviction policy did not (or could not) make room.
    FleetFull {
        /// The configured bound.
        limit: usize,
        /// The coldest idle tenant — what LRU eviction would retire —
        /// or `None` when every tenant is pinned by work in flight.
        coldest: Option<EvictionCandidate>,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownModel { fingerprint, dir } => write!(
                f,
                "no worker or saved model for spec fingerprint {fingerprint:016x} in {}",
                dir.display()
            ),
            FleetError::ModelIo(e) => write!(f, "model load failed: {e}"),
            FleetError::FleetFull { limit, coldest } => {
                write!(f, "fleet already serves its maximum of {limit} models")?;
                match coldest {
                    Some(c) => write!(
                        f,
                        "; coldest idle model {:016x} (idle {} µs) is evictable under MLR_FLEET_EVICT=lru",
                        c.fingerprint,
                        c.idle_for.as_micros()
                    ),
                    None => write!(f, "; every model has tickets in flight — nothing is evictable"),
                }
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::ModelIo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelIoError> for FleetError {
    fn from(e: ModelIoError) -> Self {
        FleetError::ModelIo(e)
    }
}

/// One fleet tenant's identity and serving counters, as reported by
/// [`FleetEngine::stats`] (and printed by `mlr serve-stats`).
#[derive(Debug, Clone)]
pub struct ModelServeStats {
    /// The tenant's key: [`DiscriminatorSpec::fingerprint`].
    pub fingerprint: u64,
    /// The served design's name ([`crate::Discriminator::name`]).
    pub family: String,
    /// Whether this tenant died to a model fault.
    pub failed: bool,
    /// The tenant's counters.
    pub stats: EngineStats,
}

struct FleetTenant {
    tenant: Arc<Tenant>,
    family: String,
}

/// The multi-model serving fleet; see the [module docs](self).
pub struct FleetEngine {
    config: FleetConfig,
    clock: Arc<dyn Clock>,
    tenants: Mutex<HashMap<u64, FleetTenant>>,
    /// Counters of retired/evicted tenants, folded into
    /// [`FleetEngine::aggregate_stats`] so churn never loses a count.
    retired: Mutex<EngineStats>,
    pool: WorkerPool,
}

impl FleetEngine {
    /// An empty fleet timed by the production [`WallClock`]; tenants
    /// appear on demand.
    pub fn new(config: FleetConfig) -> Self {
        Self::with_clock(config, Arc::new(WallClock::new()))
    }

    /// [`FleetEngine::new`] with an injected time source, shared by every
    /// tenant the fleet installs (one [`super::ManualClock`] drives all
    /// latency counters and LRU access stamps in tests).
    pub fn with_clock(config: FleetConfig, clock: Arc<dyn Clock>) -> Self {
        let pool = WorkerPool::new(config.workers, "mlr-fleet-worker");
        Self {
            config,
            clock,
            tenants: Mutex::new(HashMap::new()),
            retired: Mutex::new(EngineStats::default()),
            pool,
        }
    }

    /// The fleet's sizing policy.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Installs an already-built model under `fingerprint`, serving it
    /// immediately — the test/bench path that skips the disk. Replaces
    /// (and drains) any tenant already serving the key.
    ///
    /// # Errors
    ///
    /// [`FleetError::FleetFull`] when the fleet is at
    /// [`FleetConfig::max_models`], `fingerprint` is new, and the
    /// eviction policy found nothing to retire.
    pub fn register(&self, fingerprint: u64, model: BoxedDiscriminator) -> Result<(), FleetError> {
        let family = model.name().to_owned();
        let mut outgoing = Vec::new();
        {
            let mut tenants = lock_recovering(&self.tenants);
            if !tenants.contains_key(&fingerprint) {
                if let Some(evicted) = self.make_room(&mut tenants)? {
                    outgoing.push(evicted);
                }
            }
            let (_, replaced) = self.install(&mut tenants, fingerprint, model, family);
            outgoing.extend(replaced);
        }
        for old in outgoing {
            self.retire_tenant(old);
        }
        Ok(())
    }

    /// Opens a [`Qos::Standard`] session on the tenant serving `spec`,
    /// lazily loading the model from [`FleetConfig::model_dir`] if none
    /// serves it yet.
    ///
    /// # Errors
    ///
    /// [`FleetError`] when the model cannot be found, loaded, or admitted.
    pub fn session(&self, spec: &DiscriminatorSpec) -> Result<Session, FleetError> {
        self.session_with(spec, Qos::Standard)
    }

    /// [`FleetEngine::session`] with an explicit [`Qos`] class.
    ///
    /// # Errors
    ///
    /// As for [`FleetEngine::session`].
    pub fn session_with(&self, spec: &DiscriminatorSpec, qos: Qos) -> Result<Session, FleetError> {
        self.session_by_fingerprint(spec.fingerprint(), qos)
    }

    /// Opens a session keyed directly by spec fingerprint (the wire-level
    /// form a serving front end routes on). A fingerprint miss first
    /// secures a slot — erroring with [`FleetError::FleetFull`] (or
    /// evicting, under [`EvictPolicy::Lru`]) *before* touching the disk —
    /// then scans [`FleetConfig::model_dir`] for a matching envelope
    /// ([`registry::find_in_dir`]); the load happens under the fleet
    /// lock, so concurrent first requests for the same model fit it once.
    ///
    /// # Errors
    ///
    /// [`FleetError`] when the model cannot be found, loaded, or admitted.
    pub fn session_by_fingerprint(
        &self,
        fingerprint: u64,
        qos: Qos,
    ) -> Result<Session, FleetError> {
        let mut tenants = lock_recovering(&self.tenants);
        if let Some(serving) = tenants.get(&fingerprint) {
            serving.tenant.touch();
            return Ok(Session::open(
                Arc::clone(&serving.tenant),
                self.pool.core(),
                qos,
            ));
        }
        let evicted = self.make_room(&mut tenants)?;
        let result = registry::find_in_dir(&self.config.model_dir, fingerprint)
            .map_err(FleetError::from)
            .and_then(|found| {
                found.ok_or_else(|| FleetError::UnknownModel {
                    fingerprint,
                    dir: self.config.model_dir.clone(),
                })
            })
            .map(|model| {
                let family = model.spec().family_name().to_owned();
                let (tenant, _) = self.install(&mut tenants, fingerprint, Box::new(model), family);
                Session::open(tenant, self.pool.core(), qos)
            });
        drop(tenants);
        // An eviction made for a load that then failed still retires
        // cleanly — the candidate was idle, so nothing is lost but cache
        // warmth.
        if let Some(old) = evicted {
            self.retire_tenant(old);
        }
        result
    }

    /// Builds a tenant around `model`, stamps its LRU clock, puts it on
    /// the roster under `fingerprint` and hands it to the pool, all under
    /// the caller's fleet lock. Returns the new tenant and whatever entry
    /// it replaced (the caller retires that one).
    fn install(
        &self,
        tenants: &mut HashMap<u64, FleetTenant>,
        fingerprint: u64,
        model: BoxedDiscriminator,
        family: String,
    ) -> (Arc<Tenant>, Option<FleetTenant>) {
        let tenant = Tenant::new(model, self.config.engine, Arc::clone(&self.clock));
        tenant.touch();
        let replaced = tenants.insert(
            fingerprint,
            FleetTenant {
                tenant: Arc::clone(&tenant),
                family,
            },
        );
        self.pool.core().add(fingerprint, Arc::clone(&tenant));
        (tenant, replaced)
    }

    /// Secures one free tenant slot while holding the fleet lock: a no-op
    /// below [`FleetConfig::max_models`]; at the bound, retires the
    /// coldest idle tenant (LRU by access stamp) under
    /// [`EvictPolicy::Lru`] and returns it for the caller to drain, or
    /// refuses with a [`FleetError::FleetFull`] that names that
    /// candidate.
    fn make_room(
        &self,
        tenants: &mut HashMap<u64, FleetTenant>,
    ) -> Result<Option<FleetTenant>, FleetError> {
        if tenants.len() < self.config.max_models {
            return Ok(None);
        }
        // Ties on the access stamp break by fingerprint so eviction order
        // is deterministic under a frozen ManualClock.
        let coldest = tenants
            .iter()
            .filter(|(_, t)| t.tenant.is_idle())
            .min_by_key(|(&fp, t)| (t.tenant.last_access_nanos(), fp))
            .map(|(&fp, _)| fp);
        match (self.config.evict, coldest) {
            (EvictPolicy::Lru, Some(fingerprint)) => {
                let old = tenants
                    .remove(&fingerprint)
                    .expect("coldest fingerprint is present");
                self.pool.core().remove(fingerprint);
                Ok(Some(old))
            }
            (_, coldest) => Err(FleetError::FleetFull {
                limit: self.config.max_models,
                coldest: coldest.map(|fingerprint| EvictionCandidate {
                    fingerprint,
                    idle_for: self.clock.now().saturating_sub(Duration::from_nanos(
                        tenants[&fingerprint].tenant.last_access_nanos(),
                    )),
                }),
            }),
        }
    }

    /// Closes a tenant removed from the roster, flushes whatever its
    /// queue still holds on *this* thread, and folds its counters into
    /// the retired aggregate.
    fn retire_tenant(&self, old: FleetTenant) {
        old.tenant.close();
        old.tenant.drain_after_close();
        let snapshot = old.tenant.stats();
        let mut retired = lock_recovering(&self.retired);
        *retired = retired.merge(&snapshot);
    }

    /// Number of models currently served.
    pub fn len(&self) -> usize {
        lock_recovering(&self.tenants).len()
    }

    /// Whether no tenant is serving yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-tenant serving counters, sorted by fingerprint for stable
    /// output.
    pub fn stats(&self) -> Vec<ModelServeStats> {
        let tenants = lock_recovering(&self.tenants);
        let mut rows: Vec<ModelServeStats> = tenants
            .iter()
            .map(|(&fingerprint, serving)| ModelServeStats {
                fingerprint,
                family: serving.family.clone(),
                failed: serving.tenant.is_failed(),
                stats: serving.tenant.stats(),
            })
            .collect();
        rows.sort_by_key(|row| row.fingerprint);
        rows
    }

    /// Fleet-wide counter sum ([`EngineStats::merge`] over every live
    /// tenant, plus everything retired or evicted since the fleet
    /// started) — the conservation-audit view.
    pub fn aggregate_stats(&self) -> EngineStats {
        let live = lock_recovering(&self.tenants)
            .values()
            .fold(EngineStats::default(), |acc, serving| {
                acc.merge(&serving.tenant.stats())
            });
        live.merge(&lock_recovering(&self.retired))
    }

    /// Retires the tenant serving `fingerprint` (draining its queue on
    /// this thread), freeing its [`FleetConfig::max_models`] slot.
    /// Returns whether one was serving. Outstanding tickets still
    /// resolve; sessions held on the retired tenant see it as shut down,
    /// and its counters stay in [`FleetEngine::aggregate_stats`].
    pub fn retire(&self, fingerprint: u64) -> bool {
        let old = lock_recovering(&self.tenants).remove(&fingerprint);
        match old {
            Some(old) => {
                self.pool.core().remove(fingerprint);
                self.retire_tenant(old);
                true
            }
            None => false,
        }
    }
}

// Dropping the fleet drops its `WorkerPool`, which closes every roster
// tenant, flushes the remaining queues, and joins the threads.
