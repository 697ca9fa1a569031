//! The three workloads: what each simulates and fits, and the traffic it
//! sends. Why each exists is recorded in `BENCHMARK.json` and README.md.

use std::path::PathBuf;
use std::sync::Arc;

use mlr_core::{
    registry, DiscriminantKind, Discriminator, DiscriminatorSpec, EngineConfig, FleetConfig,
    FleetEngine, OursConfig, Qos, Session, TrainedModel,
};
use mlr_num::Complex;
use mlr_sim::multiplex::FeedlineSpec;
use mlr_sim::{ChipConfig, DatasetSpec, DatasetSplit, TraceDataset};

use crate::host::pin_current_thread;
use crate::trace::{FlushLog, ShotKey, Timed, Tracer};

/// Training epochs of the paper chip's OURS heads. Early stopping is off,
/// so every run does the same training work.
const PAPER_EPOCHS: usize = 20;
/// Training epochs of the crowded line's OURS heads.
const MUX_EPOCHS: usize = 10;
/// Shots per prepared basis state on the paper chip (3^5 states).
const PAPER_SHOTS_PER_STATE: usize = 16;
/// Crowded-line training shard: sampled preparations x shots each, all of
/// them trained on.
const MUX_STATES: usize = 512;
const MUX_SHOTS_PER_STATE: usize = 2;
/// Crowded-line held-out preparations (the serving pool) x shots each.
const MUX_HELD_OUT_STATES: usize = 256;
const MUX_HELD_OUT_SHOTS: usize = 4;
/// Separates the held-out seed stream from the training shard's.
const HELD_OUT_SALT: u64 = 0xABCD;

/// A named workload: its tenants and the traffic sent to them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Shots per vectored request (`submit_all_shared`); `None` sends
    /// scalar `try_submit` requests.
    pub window: Option<usize>,
    /// Requests the closed loop keeps in flight, counting those blocked in
    /// `submit_all_shared` by the engine's queue bound. Deep enough that the
    /// pool worker does not wait on the client's wake-up: at 2 windows
    /// in flight, `paper5` read 10-25 % lower and spread wider.
    pub in_flight: usize,
    /// Open-loop arrival rate, requests per second.
    pub rate_hz: f64,
    /// Exponential inter-arrival times when set; an even schedule
    /// otherwise (a controller reading out on a clock).
    pub poisson: bool,
    /// Latency limit of the open loop's `slo_attain`, µs.
    pub limit_us: f64,
}

/// Open-loop rates sit between a seventh and a fifth of each workload's
/// closed-loop capacity on a 2-vCPU Xeon guest, low enough that the
/// host's slow stretches do not build a queue.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper5",
        window: Some(64),
        in_flight: 8,
        rate_hz: 300.0,
        poisson: false,
        limit_us: 5_000.0,
    },
    Workload {
        name: "mux20",
        window: Some(16),
        in_flight: 16,
        rate_hz: 100.0,
        poisson: false,
        limit_us: 15_000.0,
    },
    Workload {
        name: "fleet-mix",
        window: None,
        in_flight: 48,
        rate_hz: 25_000.0,
        poisson: true,
        limit_us: 2_000.0,
    },
];

/// Request shares of fleet-mix's QoS lanes, in [`Qos::ALL`] order.
pub const LANE_SHARES: [f64; Qos::CLASSES] = [0.2, 0.5, 0.3];

impl Workload {
    pub fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// How the timing wrapper identifies flushed shots for this traffic.
    pub fn shot_key(&self) -> ShotKey {
        if self.window.is_some() {
            ShotKey::Pointer
        } else {
            ShotKey::Content
        }
    }
}

/// One served model with the shots sent to it.
pub struct Tenant {
    pub label: &'static str,
    pub model: Arc<TrainedModel>,
    /// Share of scalar requests sent to this tenant.
    pub share: f64,
    /// Held-out shots, in the engine's zero-copy form.
    pub pool: Vec<Arc<[Complex]>>,
    /// Simulator ground truth per pool shot and qubit.
    pub truth: Vec<Vec<usize>>,
    /// Direct `predict_batch` verdicts per pool shot: what the engine must
    /// serve, bit for bit.
    pub reference: Vec<Vec<usize>>,
    /// One session per QoS lane, in [`Qos::ALL`] order.
    pub sessions: Vec<Session>,
}

/// A workload ready to take its first request.
pub struct Served {
    pub tenants: Vec<Tenant>,
    pub fleet: FleetEngine,
    pub log: Arc<FlushLog>,
    /// Whether the client and the pool worker were placed on CPUs of
    /// their own.
    pub pinned: bool,
    /// The training data, kept for the traced run's plan probe.
    pub train: TraceDataset,
    pub split: DatasetSplit,
}

/// Wall time of one set-up.
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    /// `registry::fit` time per tenant, in tenant order.
    pub fit_s: Vec<f64>,
}

struct Fitted {
    label: &'static str,
    spec: DiscriminatorSpec,
    share: f64,
}

fn ours_paper() -> DiscriminatorSpec {
    let mut config = OursConfig::default();
    config.train.epochs = PAPER_EPOCHS;
    config.train.early_stop_patience = None;
    DiscriminatorSpec::Ours(config)
}

/// The crowded-line recipe of `mlr multiplex sweep`: a joint bank over
/// two neighbours per side, and the step size and weight decay its
/// small sampled shards need.
fn ours_mux() -> DiscriminatorSpec {
    let mut config = OursConfig {
        joint_neighbors: 2,
        ..OursConfig::default()
    };
    config.train.epochs = MUX_EPOCHS;
    config.train.early_stop_patience = None;
    config.train.learning_rate = 1e-2;
    config.train.weight_decay = 2e-2;
    DiscriminatorSpec::Ours(config)
}

fn tenants_of(workload: &Workload) -> Vec<Fitted> {
    match workload.name {
        "paper5" => vec![Fitted {
            label: "OURS",
            spec: ours_paper(),
            share: 1.0,
        }],
        "mux20" => vec![Fitted {
            label: "OURS",
            spec: ours_mux(),
            share: 1.0,
        }],
        _ => vec![
            Fitted {
                label: "LDA",
                spec: DiscriminatorSpec::Discriminant(DiscriminantKind::Lda),
                share: 0.6,
            },
            Fitted {
                label: "QDA",
                spec: DiscriminatorSpec::Discriminant(DiscriminantKind::Qda),
                share: 0.25,
            },
            Fitted {
                label: "OURS",
                spec: ours_paper(),
                share: 0.15,
            },
        ],
    }
}

/// Simulates, fits every tenant and registers it with a fresh one-worker
/// fleet — everything a deployment does before its first request — and
/// records `sim.generate`, `registry.fit` and `fleet.register` spans
/// under one `setup` span. With `cpus` of two or more, the fleet's worker
/// and the calling client thread each get a CPU of their own. The
/// held-out pools and direct reference verdicts are computed afterwards,
/// outside the timed set-up.
pub fn set_up(
    workload: &Workload,
    seed: u64,
    cpus: usize,
    tracer: &mut Tracer,
) -> (Served, SetupTimes) {
    let start = tracer.now_ns();
    let setup = tracer.push("setup", start, start, None, None);

    let t_generate = tracer.now_ns();
    let (train, held_out, split) = simulate(workload, seed);
    let generate_end = tracer.now_ns();
    tracer.push("sim.generate", t_generate, generate_end, Some(setup), None);

    let mut fit_s = Vec::new();
    let mut models = Vec::new();
    for fitted in tenants_of(workload) {
        let t = tracer.now_ns();
        let model = registry::fit(&fitted.spec, &train, &split, seed);
        let end = tracer.now_ns();
        tracer.push("registry.fit", t, end, Some(setup), None);
        fit_s.push((end - t) as f64 * 1e-9);
        models.push((fitted, Arc::new(model)));
    }

    let t = tracer.now_ns();
    let (fleet, log, pinned) = register(&models, workload.shot_key(), cpus, tracer);
    let end = tracer.now_ns();
    tracer.push("fleet.register", t, end, Some(setup), None);
    tracer.spans[setup].end_ns = end;
    let times = SetupTimes {
        total_s: (end - start) as f64 * 1e-9,
        generate_s: (generate_end - t_generate) as f64 * 1e-9,
        fit_s,
    };

    let pool_dataset = held_out.as_ref().unwrap_or(&train);
    let pool_ids = pool_indices(workload, pool_dataset, &split);
    let tenants = tenants(&fleet, models, pool_dataset, &pool_ids);
    let served = Served {
        tenants,
        fleet,
        log,
        pinned,
        train,
        split,
    };
    (served, times)
}

/// Starts a one-worker fleet and registers every model behind a [`Timed`]
/// wrapper. Returns the fleet, the wrappers' flush log and whether the
/// worker and the caller were pinned to CPUs 1 and 0.
fn register(
    models: &[(Fitted, Arc<TrainedModel>)],
    key: ShotKey,
    cpus: usize,
    tracer: &Tracer,
) -> (FleetEngine, Arc<FlushLog>, bool) {
    let log = FlushLog::new(tracer.epoch(), key);
    // The pool worker inherits the affinity of the thread that starts it:
    // start it on CPU 1, then move the client to CPU 0.
    let pinned = cpus >= 2 && pin_current_thread(1);
    let fleet = FleetEngine::new(FleetConfig {
        engine: EngineConfig::default(),
        // Never read: every tenant is registered in memory below, so no
        // session misses and falls back to the model cache.
        model_dir: PathBuf::from("perfbench/no-model-cache"),
        max_models: models.len(),
        workers: 1,
        evict: mlr_core::EvictPolicy::Refuse,
    });
    let pinned = pinned && pin_current_thread(0);
    for (tenant, (fitted, model)) in models.iter().enumerate() {
        let timed = Timed {
            model: Arc::clone(model),
            tenant,
            log: Arc::clone(&log),
        };
        fleet
            .register(fitted.spec.fingerprint(), Box::new(timed))
            .expect("fleet sized for every tenant");
    }
    (fleet, log, pinned)
}

/// Each registered model with its pool, ground truth, direct reference
/// verdicts and one session per lane.
fn tenants(
    fleet: &FleetEngine,
    models: Vec<(Fitted, Arc<TrainedModel>)>,
    data: &TraceDataset,
    pool_ids: &[usize],
) -> Vec<Tenant> {
    models
        .into_iter()
        .map(|(fitted, model)| {
            let pool: Vec<Arc<[Complex]>> =
                pool_ids.iter().map(|&i| Arc::from(data.raw(i))).collect();
            let refs: Vec<&[Complex]> = pool.iter().map(|s| &s[..]).collect();
            let reference = model.predict_batch(&refs);
            let truth = pool_ids
                .iter()
                .map(|&i| (0..model.n_qubits()).map(|q| data.label(i, q)).collect())
                .collect();
            let sessions = Qos::ALL
                .iter()
                .map(|&qos| {
                    fleet
                        .session_with(&fitted.spec, qos)
                        .expect("tenant registered above")
                })
                .collect();
            Tenant {
                label: fitted.label,
                model,
                share: fitted.share,
                pool,
                truth,
                reference,
                sessions,
            }
        })
        .collect()
}

/// A small LDA tenant on a shortened paper chip, served the way
/// [`set_up`] serves a workload's tenants, for the harness tests.
#[cfg(test)]
pub fn tiny_lda(key: ShotKey, tracer: &Tracer) -> Served {
    let mut chip = ChipConfig::five_qubit_paper();
    chip.n_samples = 60;
    let train = TraceDataset::generate(&chip, 3, 4, 5);
    let split = train.paper_split(5);
    let spec = DiscriminatorSpec::Discriminant(DiscriminantKind::Lda);
    let model = Arc::new(registry::fit(&spec, &train, &split, 5));
    let fitted = Fitted {
        label: "LDA",
        spec,
        share: 1.0,
    };
    let models = vec![(fitted, model)];
    let (fleet, log, pinned) = register(&models, key, 1, tracer);
    let tenants = tenants(&fleet, models, &train, &split.test);
    Served {
        tenants,
        fleet,
        log,
        pinned,
        train,
        split,
    }
}

/// The training dataset, a separate held-out dataset for the pool when
/// there is one, and the training split. The paper chip serves its own
/// test split; the crowded line serves freshly sampled preparations, as
/// `mlr multiplex sweep` scores it, because its heads can memorise each
/// training preparation.
fn simulate(workload: &Workload, seed: u64) -> (TraceDataset, Option<TraceDataset>, DatasetSplit) {
    if workload.name == "mux20" {
        let chip = FeedlineSpec::crowded(20).chip();
        let train =
            DatasetSpec::sampled(chip.clone(), 3, MUX_STATES, MUX_SHOTS_PER_STATE, seed).generate();
        let held_out = DatasetSpec::sampled(
            chip,
            3,
            MUX_HELD_OUT_STATES,
            MUX_HELD_OUT_SHOTS,
            seed ^ HELD_OUT_SALT,
        )
        .generate();
        let split = train.split(1.0, 0.0, seed);
        (train, Some(held_out), split)
    } else {
        let data = TraceDataset::generate(
            &ChipConfig::five_qubit_paper(),
            3,
            PAPER_SHOTS_PER_STATE,
            seed,
        );
        let split = data.paper_split(seed);
        (data, None, split)
    }
}

/// Pool shot indices into the held-out dataset, cut to whole windows.
fn pool_indices(workload: &Workload, held_out: &TraceDataset, split: &DatasetSplit) -> Vec<usize> {
    let mut ids: Vec<usize> = if workload.name == "mux20" {
        (0..held_out.len()).collect()
    } else {
        split.test.clone()
    };
    let window = workload.window.unwrap_or(1);
    ids.truncate(ids.len() / window * window);
    ids
}
