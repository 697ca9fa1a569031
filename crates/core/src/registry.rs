//! The registry layer of the model lifecycle: fit, persist and reload
//! *any* discriminator family through one front door.
//!
//! [`fit`] turns a [`DiscriminatorSpec`] plus a dataset split into a
//! [`TrainedModel`]; [`TrainedModel::save_json_file`] /
//! [`load_json_file`] round-trip it through the tagged `SavedModel` v2
//! envelope:
//!
//! ```json
//! {
//!   "format_version": 2,
//!   "family": "HERQULES",
//!   "spec": { "family": "HERQULES", "config": { ... } },
//!   "spec_fingerprint": "91c3b2…",
//!   "chip": { ... },
//!   "levels": 3,
//!   "payload": { ... }
//! }
//! ```
//!
//! The `family` tag dispatches the payload decoder, the embedded spec
//! reconstructs exactly the design that was trained (fingerprint checked
//! on load), and the chip rebuilds every derived table (demodulators,
//! fused kernels) so reloaded models predict **bit-identically** — the
//! workspace's property tests pin this for every family. Legacy v1 files
//! (the OURS-only [`crate::SavedModel`] layout) keep loading; envelopes
//! from a future format version fail with the typed
//! [`ModelIoError::UnsupportedVersion`].
//!
//! # Examples
//!
//! ```no_run
//! use mlr_core::{evaluate, registry, DiscriminatorSpec};
//! use mlr_sim::{ChipConfig, TraceDataset};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec: DiscriminatorSpec = "LDA".parse()?;
//! let dataset = TraceDataset::generate(&ChipConfig::five_qubit_paper(), 3, 50, 7);
//! let split = dataset.paper_split(7);
//! let model = registry::fit(&spec, &dataset, &split, 7);
//! model.save_json_file("lda.json")?;
//! let restored = registry::load_json_file("lda.json")?;
//! let report = evaluate(&restored, &dataset, &split.test);
//! println!("{} F5Q = {:.4}", restored.spec(), report.geometric_mean_fidelity());
//! # Ok(())
//! # }
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use mlr_num::Complex;
use mlr_sim::{ChipConfig, DatasetSplit, TraceDataset};
use serde::{Deserialize, JsonValue, Serialize};

use crate::spec::{fnv1a, reseed_ours, seeded, DiscriminatorSpec};
use crate::{
    AutoencoderBaseline, DeployedDiscriminator, DiscriminantAnalysis, Discriminator, FnnBaseline,
    HerqulesBaseline, HmmBaseline, ModelIoError, OursConfig, OursDiscriminator, StreamingReadout,
};

/// The envelope revision this build writes.
pub const FORMAT_VERSION: u32 = 2;

/// One concrete trained family behind a [`TrainedModel`].
#[derive(Debug, Clone)]
enum Family {
    Ours(OursDiscriminator),
    Deployed(DeployedDiscriminator),
    Herqules(HerqulesBaseline),
    Fnn(FnnBaseline),
    Discriminant(DiscriminantAnalysis),
    Hmm(HmmBaseline),
    Autoencoder(AutoencoderBaseline),
    Streaming(StreamingReadout),
}

impl Family {
    fn as_discriminator(&self) -> &dyn Discriminator {
        match self {
            Family::Ours(m) => m,
            Family::Deployed(m) => m,
            Family::Herqules(m) => m,
            Family::Fnn(m) => m,
            Family::Discriminant(m) => m,
            Family::Hmm(m) => m,
            Family::Autoencoder(m) => m,
            Family::Streaming(m) => m,
        }
    }
}

/// A trained discriminator with its provenance: the spec that produced it
/// and the chip it was trained for.
///
/// Produced by [`fit`] or [`load_json`]; implements [`Discriminator`]
/// (delegating to the concrete family, with [`Discriminator::name`]
/// reporting the spec's family name, so `OURS-NO-EMF` and `QDA` label
/// their evaluation reports correctly), and persists itself through the
/// `SavedModel` v2 envelope.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    spec: DiscriminatorSpec,
    chip: ChipConfig,
    levels: usize,
    inner: Family,
}

impl TrainedModel {
    /// The spec this model was trained from.
    pub fn spec(&self) -> &DiscriminatorSpec {
        &self.spec
    }

    /// The chip the model was trained for (also the simulator
    /// configuration an evaluation run should use).
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// Level-alphabet size the model decides over.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Borrows the concrete OURS model when this is the `OURS` or
    /// `OURS-NO-EMF` family — the escape hatch for OURS-specific
    /// diagnostics (leak probabilities, per-head access).
    pub fn as_ours(&self) -> Option<&OursDiscriminator> {
        match &self.inner {
            Family::Ours(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the concrete streaming readout when this is the
    /// `OURS-STREAM` family (for latency statistics via
    /// [`crate::evaluate_streaming`]).
    pub fn as_streaming(&self) -> Option<&StreamingReadout> {
        match &self.inner {
            Family::Streaming(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the concrete integer-datapath deployment when this is
    /// the `OURS-INT` family (for format diagnostics and plan access).
    pub fn as_deployed(&self) -> Option<&DeployedDiscriminator> {
        match &self.inner {
            Family::Deployed(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the concrete joint-MLP baseline when this is the
    /// `HERQULES` family (for plan diagnostics).
    pub fn as_herqules(&self) -> Option<&HerqulesBaseline> {
        match &self.inner {
            Family::Herqules(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the concrete discriminant when this is the `LDA` or `QDA`
    /// family (for the scorer's bit-identity checks).
    pub fn as_discriminant(&self) -> Option<&DiscriminantAnalysis> {
        match &self.inner {
            Family::Discriminant(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this family serves through a compiled single-pass
    /// inference plan ([`crate::CompiledPlan`]) — true for eight of the
    /// ten families: OURS, OURS-NO-EMF, OURS-INT, HERQULES, FNN,
    /// OURS-STREAM (one plan per checkpoint), LDA, and the autoencoder.
    /// Each such plan is compiled from one of [`TrainedModel::graphs`],
    /// which [`crate::plan::eval`] interprets as its reference. False for
    /// QDA (per-class quadratic form) and the HMM (sequential decoding),
    /// which cannot lower to static kernel banks. QDA still serves
    /// single-pass, through its bit-identical f64 scorer.
    pub fn has_plan(&self) -> bool {
        !self.plans().is_empty()
    }

    /// Every compiled plan this model serves through: one for most
    /// plan-capable families, one per checkpoint for OURS-STREAM, none
    /// for QDA (no f32 plan; it serves through an f64 single-pass scorer)
    /// and the HMM.
    pub fn plans(&self) -> Vec<&crate::CompiledPlan> {
        match &self.inner {
            Family::Ours(m) => vec![m.plan()],
            Family::Deployed(m) => vec![m.plan()],
            Family::Herqules(m) => vec![m.plan()],
            Family::Fnn(m) => vec![m.plan()],
            Family::Streaming(m) => m.checkpoint_plans().iter().collect(),
            Family::Autoencoder(m) => vec![m.plan()],
            Family::Discriminant(m) => m.plan().into_iter().collect(),
            Family::Hmm(_) => Vec::new(),
        }
    }

    /// The unfused op graphs this model's plans are compiled from,
    /// parallel to [`TrainedModel::plans`]: one per checkpoint for
    /// OURS-STREAM, one for the other plan families, none for QDA and the
    /// HMM.
    pub fn graphs(&self) -> Vec<crate::plan::OpGraph> {
        match &self.inner {
            Family::Ours(m) => vec![m.graph()],
            Family::Deployed(m) => vec![m.graph()],
            Family::Herqules(m) => vec![m.graph()],
            Family::Fnn(m) => vec![m.graph()],
            Family::Streaming(m) => m.graphs(),
            Family::Autoencoder(m) => vec![m.graph()],
            Family::Discriminant(m) => m.graph().into_iter().collect(),
            Family::Hmm(_) => Vec::new(),
        }
    }

    /// Batch inference through the family's reference path, the baseline
    /// of every fused-vs-reference comparison: [`crate::plan::eval_batch`]
    /// on the unfused graph for a one-plan family, the sample-at-a-time
    /// [`StreamingReadout::process_shot_layered`] for OURS-STREAM, the
    /// per-qubit [`DiscriminantAnalysis::predict_shot_layered`] for QDA,
    /// and [`Discriminator::predict_batch`] for the HMM.
    ///
    /// # Panics
    ///
    /// As for [`Discriminator::predict_batch`].
    pub fn predict_batch_layered(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        match &self.inner {
            Family::Streaming(m) => crate::par_map(shots, |raw| m.process_shot_layered(raw).levels),
            Family::Discriminant(m) if m.plan().is_none() => {
                crate::par_map(shots, |raw| m.predict_shot_layered(raw))
            }
            Family::Hmm(m) => m.predict_batch(shots),
            _ => match self.graphs().as_slice() {
                [graph] => crate::plan::eval_batch(graph, shots),
                graphs => unreachable!("{} graphs for a single-plan family", graphs.len()),
            },
        }
    }

    /// Serialises the model into the v2 envelope.
    ///
    /// # Errors
    ///
    /// Returns [`ModelIoError`] on I/O or encoding failure.
    pub fn save_json<W: Write>(&self, writer: W) -> Result<(), ModelIoError> {
        serde_json::to_writer(writer, &self.envelope())?;
        Ok(())
    }

    /// Saves the model to a v2 envelope file (buffered).
    ///
    /// # Errors
    ///
    /// As for [`TrainedModel::save_json`].
    pub fn save_json_file<P: AsRef<Path>>(&self, path: P) -> Result<(), ModelIoError> {
        self.save_json(BufWriter::new(File::create(path)?))
    }

    fn envelope(&self) -> JsonValue {
        let payload = match &self.inner {
            Family::Ours(m) => m.to_saved().to_json_value(),
            Family::Deployed(m) => m.to_saved().to_json_value(),
            Family::Herqules(m) => m.to_saved().to_json_value(),
            Family::Fnn(m) => m.to_saved().to_json_value(),
            Family::Discriminant(m) => m.to_saved().to_json_value(),
            Family::Hmm(m) => m.to_saved().to_json_value(),
            Family::Autoencoder(m) => m.to_saved().to_json_value(),
            Family::Streaming(m) => m.to_saved().to_json_value(),
        };
        JsonValue::Object(vec![
            (
                "format_version".to_owned(),
                JsonValue::Number(f64::from(FORMAT_VERSION)),
            ),
            (
                "family".to_owned(),
                JsonValue::String(self.spec.family_name().to_owned()),
            ),
            (
                "spec_fingerprint".to_owned(),
                JsonValue::String(format!("{:016x}", self.spec.fingerprint())),
            ),
            ("spec".to_owned(), self.spec.to_json_value()),
            ("chip".to_owned(), self.chip.to_json_value()),
            ("levels".to_owned(), JsonValue::Number(self.levels as f64)),
            ("payload".to_owned(), payload),
        ])
    }
}

impl Discriminator for TrainedModel {
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        self.inner.as_discriminator().predict_shot(raw)
    }

    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        self.inner.as_discriminator().predict_batch(shots)
    }

    /// The registry family name (`"OURS-NO-EMF"`, `"QDA"`, …), which can
    /// be more specific than the concrete model's own label.
    fn name(&self) -> &str {
        self.spec.family_name()
    }

    fn n_qubits(&self) -> usize {
        self.inner.as_discriminator().n_qubits()
    }

    fn weight_count(&self) -> usize {
        self.inner.as_discriminator().weight_count()
    }
}

/// Trains the family `spec` names on the dataset's splits, returning the
/// model with its provenance attached.
///
/// This is the one way to fit a model. `seed` overrides the spec's
/// configured training seed (ignored by the training-free families), so
/// one spec value can be fitted reproducibly under many seeds. The
/// concrete family is kept, so the result can be persisted.
///
/// # Panics
///
/// Panics where the underlying family's `fit` would (empty or
/// out-of-range splits, a missing level for some qubit, checkpoints
/// beyond the readout window, …).
pub fn fit(
    spec: &DiscriminatorSpec,
    dataset: &TraceDataset,
    split: &DatasetSplit,
    seed: u64,
) -> TrainedModel {
    // The seed-override rule lives in the spec layer (`spec::seeded` /
    // `spec::reseed_ours`).
    let inner = match spec {
        DiscriminatorSpec::Ours(c) => Family::Ours(OursDiscriminator::fit(
            dataset,
            split,
            &reseed_ours(c, seed),
        )),
        DiscriminatorSpec::OursNoEmf(c) => Family::Ours(OursDiscriminator::fit(
            dataset,
            split,
            &OursConfig {
                include_emf: false,
                ..reseed_ours(c, seed)
            },
        )),
        DiscriminatorSpec::Deployed(c) => {
            let ours = OursDiscriminator::fit(dataset, split, &reseed_ours(&c.base, seed));
            Family::Deployed(DeployedDiscriminator::new(&ours, c.format))
        }
        DiscriminatorSpec::Streaming(c) => Family::Streaming(StreamingReadout::fit(
            dataset,
            split,
            &crate::StreamingConfig {
                base: reseed_ours(&c.base, seed),
                ..c.clone()
            },
        )),
        DiscriminatorSpec::Herqules(c) => Family::Herqules(HerqulesBaseline::fit(
            dataset,
            split,
            &crate::HerqulesConfig {
                train: seeded(&c.train, seed),
                ..c.clone()
            },
        )),
        DiscriminatorSpec::Fnn(c) => Family::Fnn(FnnBaseline::fit(
            dataset,
            split,
            &crate::FnnConfig {
                train: seeded(&c.train, seed),
                ..c.clone()
            },
        )),
        DiscriminatorSpec::Discriminant(k) => {
            Family::Discriminant(DiscriminantAnalysis::fit(dataset, split, *k))
        }
        DiscriminatorSpec::Hmm(c) => Family::Hmm(HmmBaseline::fit(dataset, split, c)),
        DiscriminatorSpec::Autoencoder(c) => Family::Autoencoder(AutoencoderBaseline::fit(
            dataset,
            split,
            &crate::AutoencoderConfig {
                ae_train: seeded(&c.ae_train, seed),
                head_train: seeded(&c.head_train, seed),
                ..c.clone()
            },
        )),
    };
    TrainedModel {
        spec: spec.clone(),
        chip: dataset.config().clone(),
        levels: dataset.levels(),
        inner,
    }
}

/// Reads a model envelope (v2, or a legacy v1 OURS file) and validates it.
///
/// # Errors
///
/// Returns [`ModelIoError`] on I/O failure, malformed JSON, an
/// inconsistent model description, or an
/// [`ModelIoError::UnsupportedVersion`] future-format envelope.
pub fn load_json<R: Read>(reader: R) -> Result<TrainedModel, ModelIoError> {
    let value: JsonValue = serde_json::from_reader(reader)?;
    let version = match value.get("format_version") {
        Some(JsonValue::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as u32,
        _ => {
            return Err(ModelIoError::Invalid(
                "missing or non-integer format_version".to_owned(),
            ))
        }
    };
    match version {
        1 => load_v1(&value),
        FORMAT_VERSION => load_v2(&value),
        newer => Err(ModelIoError::UnsupportedVersion(newer)),
    }
}

/// Loads a model envelope from a file (buffered).
///
/// # Errors
///
/// As for [`load_json`].
pub fn load_json_file<P: AsRef<Path>>(path: P) -> Result<TrainedModel, ModelIoError> {
    load_json(BufReader::new(File::open(path)?))
}

/// Maps a legacy v1 [`crate::SavedModel`] file into the registry: family
/// `OURS`, spec defaulted (v1 files never recorded hyper-parameters).
fn load_v1(value: &JsonValue) -> Result<TrainedModel, ModelIoError> {
    let saved =
        crate::SavedModel::from_json_value(value).map_err(|e| json_shape_error(&e.to_string()))?;
    let chip = saved.chip.clone();
    let levels = saved.levels;
    let model = OursDiscriminator::try_from(saved)?;
    Ok(TrainedModel {
        spec: DiscriminatorSpec::Ours(OursConfig::default()),
        chip,
        levels,
        inner: Family::Ours(model),
    })
}

fn load_v2(value: &JsonValue) -> Result<TrainedModel, ModelIoError> {
    let family = match value.get("family") {
        Some(JsonValue::String(s)) => s.clone(),
        _ => return Err(ModelIoError::Invalid("missing family tag".to_owned())),
    };
    let spec_value = value
        .get("spec")
        .ok_or_else(|| ModelIoError::Invalid("missing spec".to_owned()))?;
    let spec = DiscriminatorSpec::from_json_value(spec_value)
        .map_err(|e| json_shape_error(&e.to_string()))?;
    if spec.family_name() != family {
        return Err(ModelIoError::Invalid(format!(
            "family tag {family} does not match embedded spec {}",
            spec.family_name()
        )));
    }
    if let Some(JsonValue::String(fp)) = value.get("spec_fingerprint") {
        let expected = format!("{:016x}", spec.fingerprint());
        if fp != &expected {
            return Err(ModelIoError::Invalid(format!(
                "spec fingerprint {fp} does not match embedded spec ({expected}) — \
                 the envelope was edited or written by a different config schema"
            )));
        }
    }
    let chip = ChipConfig::from_json_value(
        value
            .get("chip")
            .ok_or_else(|| ModelIoError::Invalid("missing chip".to_owned()))?,
    )
    .map_err(|e| json_shape_error(&e.to_string()))?;
    chip.validate()
        .map_err(|e| ModelIoError::Invalid(format!("chip: {e}")))?;
    let levels = match value.get("levels") {
        Some(JsonValue::Number(n)) if *n >= 2.0 && n.fract() == 0.0 => *n as usize,
        _ => return Err(ModelIoError::Invalid("missing levels".to_owned())),
    };
    let payload = value
        .get("payload")
        .ok_or_else(|| ModelIoError::Invalid("missing payload".to_owned()))?;

    let de = |e: serde::DeError| json_shape_error(&e.to_string());
    let inner = match &spec {
        // The joint spectral-neighbourhood radius travels in the spec, not
        // the payload, and the mix table is rebuilt from the chip at load.
        DiscriminatorSpec::Ours(c) | DiscriminatorSpec::OursNoEmf(c) => {
            Family::Ours(OursDiscriminator::from_saved(
                Deserialize::from_json_value(payload).map_err(de)?,
                chip.clone(),
                c.joint_neighbors,
            )?)
        }
        DiscriminatorSpec::Deployed(c) => Family::Deployed(DeployedDiscriminator::from_saved(
            Deserialize::from_json_value(payload).map_err(de)?,
            chip.clone(),
            c.base.joint_neighbors,
        )?),
        DiscriminatorSpec::Streaming(c) => Family::Streaming(StreamingReadout::from_saved(
            Deserialize::from_json_value(payload).map_err(de)?,
            chip.clone(),
            c.base.joint_neighbors,
        )?),
        DiscriminatorSpec::Herqules(_) => Family::Herqules(HerqulesBaseline::from_saved(
            Deserialize::from_json_value(payload).map_err(de)?,
            chip.clone(),
        )?),
        DiscriminatorSpec::Fnn(_) => Family::Fnn(FnnBaseline::from_saved(
            Deserialize::from_json_value(payload).map_err(de)?,
            chip.clone(),
        )?),
        DiscriminatorSpec::Discriminant(kind) => {
            let model = DiscriminantAnalysis::from_saved(
                Deserialize::from_json_value(payload).map_err(de)?,
                chip.clone(),
            )?;
            if model.kind() != *kind {
                return Err(ModelIoError::Invalid(format!(
                    "payload covariance kind {:?} does not match family {family}",
                    model.kind()
                )));
            }
            Family::Discriminant(model)
        }
        DiscriminatorSpec::Hmm(_) => Family::Hmm(HmmBaseline::from_saved(
            Deserialize::from_json_value(payload).map_err(de)?,
            chip.clone(),
        )?),
        DiscriminatorSpec::Autoencoder(_) => Family::Autoencoder(AutoencoderBaseline::from_saved(
            Deserialize::from_json_value(payload).map_err(de)?,
            chip.clone(),
        )?),
    };
    Ok(TrainedModel {
        spec,
        chip,
        levels,
        inner,
    })
}

/// Wraps a shim deserialisation message as a [`ModelIoError::Invalid`]
/// (the value parsed as JSON; its *shape* did not match).
fn json_shape_error(msg: &str) -> ModelIoError {
    ModelIoError::Invalid(msg.to_owned())
}

/// Scans `dir` for a saved model envelope whose **spec** fingerprint is
/// `spec_fingerprint`, returning the first match in file-name order.
///
/// This is the fleet's lazy-load path: workers are keyed by
/// [`DiscriminatorSpec::fingerprint`], while `MLR_MODEL_DIR` file names
/// carry the *model* fingerprint ([`model_fingerprint`], which also mixes
/// in dataset and seed) — so the match is decided by each envelope's
/// embedded `spec_fingerprint` field, read before the payload is
/// deserialised. Files that are not readable model envelopes are skipped,
/// not errors: a cache directory may hold junk.
///
/// Returns `Ok(None)` when no envelope in the directory serves the spec.
///
/// # Errors
///
/// Returns [`ModelIoError`] only when the directory itself cannot be read,
/// or a matching envelope fails to load (a *matching* model that does not
/// deserialise is corruption worth surfacing, unlike unrelated files).
pub fn find_in_dir<P: AsRef<Path>>(
    dir: P,
    spec_fingerprint: u64,
) -> Result<Option<TrainedModel>, ModelIoError> {
    let mut names: Vec<_> = std::fs::read_dir(dir.as_ref())?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|ext| ext == "json")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("mlr-model-"))
        })
        .collect();
    names.sort();
    let wanted = format!("{spec_fingerprint:016x}");
    for path in names {
        let Ok(file) = File::open(&path) else {
            continue;
        };
        let value: JsonValue = match serde_json::from_reader(BufReader::new(file)) {
            Ok(v) => v,
            Err(_) => continue,
        };
        match value.get("spec_fingerprint") {
            // v2 envelopes announce their spec up front: cheap mismatch.
            Some(JsonValue::String(fp)) if *fp != wanted => continue,
            Some(JsonValue::String(_)) => return load_v2(&value).map(Some),
            // v1 legacy files (implicit default-OURS spec) and envelopes
            // without the fingerprint field: decide by actually loading.
            _ => {
                let loaded = match value.get("format_version") {
                    Some(JsonValue::Number(n)) if *n == 1.0 => load_v1(&value),
                    _ => load_v2(&value),
                };
                if let Ok(model) = loaded {
                    if model.spec().fingerprint() == spec_fingerprint {
                        return Ok(Some(model));
                    }
                }
            }
        }
    }
    Ok(None)
}

/// Stable cache key for a trained model: the spec fingerprint chained
/// with the dataset fingerprint and the training seed — the recipe
/// `mlr_bench::cached_model` uses for `MLR_MODEL_DIR` file names.
pub fn model_fingerprint(spec: &DiscriminatorSpec, dataset_fingerprint: u64, seed: u64) -> u64 {
    let mut h = fnv1a(b"mlr-model-v2", 0xCBF2_9CE4_8422_2325);
    h = fnv1a(&spec.fingerprint().to_le_bytes(), h);
    h = fnv1a(&dataset_fingerprint.to_le_bytes(), h);
    fnv1a(&seed.to_le_bytes(), h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather_shots;
    use mlr_sim::ChipConfig;

    fn tiny() -> (TraceDataset, DatasetSplit) {
        let mut chip = ChipConfig::uniform(2);
        chip.n_samples = 100;
        let ds = TraceDataset::generate(&chip, 3, 12, 23);
        let split = ds.split(0.6, 0.1, 23);
        (ds, split)
    }

    fn quick_spec() -> DiscriminatorSpec {
        DiscriminatorSpec::Ours(OursConfig {
            train: mlr_nn::TrainConfig {
                epochs: 4,
                ..OursConfig::default().train
            },
            ..OursConfig::default()
        })
    }

    #[test]
    fn fit_save_load_round_trip_is_bit_identical() {
        let (ds, split) = tiny();
        let model = fit(&quick_spec(), &ds, &split, 23);
        let mut buf = Vec::new();
        model.save_json(&mut buf).unwrap();
        let restored = load_json(buf.as_slice()).unwrap();
        assert_eq!(restored.spec(), model.spec());
        assert_eq!(restored.levels(), 3);
        let all: Vec<usize> = (0..ds.len()).collect();
        let shots = gather_shots(&ds, &all);
        assert_eq!(model.predict_batch(&shots), restored.predict_batch(&shots));
    }

    #[test]
    fn v1_files_still_load_as_ours() {
        let (ds, split) = tiny();
        let model = fit(&quick_spec(), &ds, &split, 23);
        let ours = model.as_ours().expect("OURS family");
        let mut v1 = Vec::new();
        ours.save_json(&mut v1).unwrap();
        let restored = load_json(v1.as_slice()).unwrap();
        assert_eq!(restored.spec().family_name(), "OURS");
        let all: Vec<usize> = (0..ds.len()).collect();
        let shots = gather_shots(&ds, &all);
        assert_eq!(ours.predict_batch(&shots), restored.predict_batch(&shots));
    }

    #[test]
    fn future_versions_are_typed_errors() {
        let (ds, split) = tiny();
        let model = fit(&quick_spec(), &ds, &split, 23);
        let mut buf = Vec::new();
        model.save_json(&mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        let bumped = json.replacen("\"format_version\":2", "\"format_version\":3", 1);
        assert_ne!(json, bumped, "version field must be present to bump");
        let err = load_json(bumped.as_bytes()).unwrap_err();
        assert!(matches!(err, ModelIoError::UnsupportedVersion(3)), "{err}");
        assert!(err.to_string().contains("newer"), "{err}");
    }

    #[test]
    fn tampered_fingerprint_is_rejected() {
        let (ds, split) = tiny();
        let model = fit(&quick_spec(), &ds, &split, 23);
        let mut buf = Vec::new();
        model.save_json(&mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        let fp = format!("{:016x}", model.spec().fingerprint());
        let tampered = json.replacen(&fp, "00000000deadbeef", 1);
        let err = load_json(tampered.as_bytes()).unwrap_err();
        assert!(matches!(err, ModelIoError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn envelope_with_bad_adc_width_is_rejected() {
        let (ds, split) = tiny();
        let model = fit(&quick_spec(), &ds, &split, 23);
        let mut buf = Vec::new();
        model.save_json(&mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        assert!(json.contains("\"adc_bits\":12"), "adc_bits must be present");
        for bad in ["0", "64", "70"] {
            let edited = json.replace("\"adc_bits\":12", &format!("\"adc_bits\":{bad}"));
            let err = load_json(edited.as_bytes()).unwrap_err();
            assert!(matches!(err, ModelIoError::Invalid(_)), "{err}");
            assert!(err.to_string().contains("adc_bits"), "{err}");
        }
    }

    #[test]
    fn envelope_with_non_finite_chip_is_rejected() {
        let (ds, split) = tiny();
        let model = fit(&quick_spec(), &ds, &split, 23);
        let mut buf = Vec::new();
        model.save_json(&mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        // JSON has no NaN or inf, but an out-of-range literal parses to inf.
        let key = "\"amplitude\":";
        let at = json.find(key).expect("amplitude must be present") + key.len();
        let end = at + json[at..].find([',', '}']).unwrap();
        let edited = format!("{}1e999{}", &json[..at], &json[end..]);
        let err = load_json(edited.as_bytes()).unwrap_err();
        assert!(matches!(err, ModelIoError::Invalid(_)), "{err}");
        assert!(
            err.to_string().contains("amplitude must be finite"),
            "{err}"
        );
    }

    #[test]
    fn family_tag_must_match_spec() {
        let (ds, split) = tiny();
        let model = fit(&quick_spec(), &ds, &split, 23);
        let mut buf = Vec::new();
        model.save_json(&mut buf).unwrap();
        let json = String::from_utf8(buf).unwrap();
        let tampered = json.replacen("\"family\":\"OURS\"", "\"family\":\"HMM\"", 1);
        let err = load_json(tampered.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn trained_model_reports_registry_name() {
        let (ds, split) = tiny();
        let spec: DiscriminatorSpec = "QDA".parse().unwrap();
        let model = fit(&spec, &ds, &split, 1);
        assert_eq!(model.name(), "QDA");
        assert_eq!(model.n_qubits(), 2);
        assert_eq!(model.weight_count(), 0);
        let report = crate::evaluate(&model, &ds, &split.test);
        assert_eq!(report.design, "QDA");
    }

    #[test]
    fn model_fingerprint_tracks_every_input() {
        let spec = quick_spec();
        let base = model_fingerprint(&spec, 1, 2);
        assert_ne!(base, model_fingerprint(&spec, 1, 3));
        assert_ne!(base, model_fingerprint(&spec, 9, 2));
        assert_ne!(base, model_fingerprint(&DiscriminatorSpec::default(), 1, 2));
    }
}
