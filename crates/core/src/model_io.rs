//! Saving and loading trained discriminators.
//!
//! A fitted [`OursDiscriminator`] is a few kilobytes of kernels, scaling
//! constants and head weights — exactly the artefact a control system would
//! flash after calibration. [`SavedModel`] is its stable, versioned on-disk
//! form (JSON via serde): matched-filter banks and heads are stored as-is,
//! while derived data (the demodulator's reference tables) is rebuilt from
//! the embedded chip description on load.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use mlr_nn::{Mlp, Standardizer};
use mlr_sim::ChipConfig;
use serde::{Deserialize, Serialize};

use crate::{FeatureExtractor, OursDiscriminator, QubitMfBank};

/// Why a model file could not be written or read back.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Json(serde_json::Error),
    /// Structurally valid JSON describing an inconsistent model.
    Invalid(String),
    /// A well-formed envelope written by a newer format revision than this
    /// build reads (`SavedModel` v1 and the registry's v2 are supported).
    UnsupportedVersion(u32),
}

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "model io failed: {e}"),
            ModelIoError::Json(e) => write!(f, "model encoding failed: {e}"),
            ModelIoError::Invalid(msg) => write!(f, "invalid model file: {msg}"),
            ModelIoError::UnsupportedVersion(v) => write!(
                f,
                "model format version {v} is newer than this build reads (supported: 1, {})",
                crate::registry::FORMAT_VERSION
            ),
        }
    }
}

impl std::error::Error for ModelIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelIoError::Io(e) => Some(e),
            ModelIoError::Json(e) => Some(e),
            ModelIoError::Invalid(_) | ModelIoError::UnsupportedVersion(_) => None,
        }
    }
}

#[doc(hidden)]
impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

#[doc(hidden)]
impl From<serde_json::Error> for ModelIoError {
    fn from(e: serde_json::Error) -> Self {
        ModelIoError::Json(e)
    }
}

/// The serialisable form of a trained [`OursDiscriminator`] — the legacy
/// v1 file layout.
///
/// New code should persist through [`crate::registry`], whose `SavedModel`
/// v2 envelope covers *every* discriminator family; v1 files written by
/// this type keep loading through [`crate::registry::load_json`] (and
/// [`OursDiscriminator::load_json`]) indefinitely.
///
/// # Examples
///
/// ```no_run
/// use mlr_core::{OursConfig, OursDiscriminator};
/// use mlr_sim::{ChipConfig, TraceDataset};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let chip = ChipConfig::five_qubit_paper();
/// let dataset = TraceDataset::generate(&chip, 3, 50, 7);
/// let split = dataset.paper_split(7);
/// let ours = OursDiscriminator::fit(&dataset, &split, &OursConfig::default());
/// ours.save_json_file("model.json")?;
/// let restored = OursDiscriminator::load_json_file("model.json")?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    /// Schema version; bumped on breaking layout changes.
    pub format_version: u32,
    /// Chip description; the demodulator is rebuilt from it on load.
    pub chip: ChipConfig,
    /// Level-alphabet size.
    pub levels: usize,
    /// Fitted matched-filter banks, one per qubit.
    pub banks: Vec<QubitMfBank>,
    /// Feature standardisation constants.
    pub standardizer: Standardizer,
    /// Per-qubit classification heads.
    pub heads: Vec<Mlp>,
}

impl SavedModel {
    /// The schema version this build writes.
    pub const CURRENT_VERSION: u32 = 1;

    /// Validates the chip description and internal consistency (counts
    /// and dimensions).
    ///
    /// # Errors
    ///
    /// Returns [`ModelIoError::Invalid`] describing the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), ModelIoError> {
        if self.format_version != Self::CURRENT_VERSION {
            return Err(ModelIoError::Invalid(format!(
                "format version {} (this build reads {})",
                self.format_version,
                Self::CURRENT_VERSION
            )));
        }
        self.chip
            .validate()
            .map_err(|e| ModelIoError::Invalid(format!("chip: {e}")))?;
        let n = self.chip.n_qubits();
        if self.banks.len() != n {
            return Err(ModelIoError::Invalid(format!(
                "{} banks for {} qubits",
                self.banks.len(),
                n
            )));
        }
        if self.heads.len() != n {
            return Err(ModelIoError::Invalid(format!(
                "{} heads for {} qubits",
                self.heads.len(),
                n
            )));
        }
        let feature_dim: usize = self.banks.iter().map(QubitMfBank::n_filters).sum();
        if self.standardizer.dim() != feature_dim {
            return Err(ModelIoError::Invalid(format!(
                "standardizer dim {} != feature dim {}",
                self.standardizer.dim(),
                feature_dim
            )));
        }
        for (q, head) in self.heads.iter().enumerate() {
            if head.input_len() != feature_dim {
                return Err(ModelIoError::Invalid(format!(
                    "head {q} input {} != feature dim {feature_dim}",
                    head.input_len()
                )));
            }
            if head.output_len() != self.levels {
                return Err(ModelIoError::Invalid(format!(
                    "head {q} output {} != levels {}",
                    head.output_len(),
                    self.levels
                )));
            }
        }
        Ok(())
    }
}

impl From<&OursDiscriminator> for SavedModel {
    fn from(disc: &OursDiscriminator) -> Self {
        let extractor = &disc.extractor;
        SavedModel {
            format_version: SavedModel::CURRENT_VERSION,
            chip: extractor.chip_config().clone(),
            levels: disc.levels,
            banks: (0..extractor.n_qubits())
                .map(|q| extractor.bank(q).clone())
                .collect(),
            standardizer: disc.standardizer.clone(),
            heads: disc.heads.clone(),
        }
    }
}

impl TryFrom<SavedModel> for OursDiscriminator {
    type Error = ModelIoError;

    /// Legacy v1 files predate joint kernels, so they always rebuild with
    /// `joint_neighbors = 0`; the v2 registry path threads the radius from
    /// the envelope's spec via `OursDiscriminator::from_legacy_joint`.
    fn try_from(saved: SavedModel) -> Result<Self, ModelIoError> {
        Self::from_legacy_joint(saved, 0)
    }
}

impl OursDiscriminator {
    /// Rebuilds a discriminator from its serialised parts with the joint
    /// spectral-neighbourhood radius the banks were fitted with. The mix
    /// table, fused kernels, and compiled plan are all derived data
    /// reconstructed from `chip` + `joint_neighbors`.
    pub(crate) fn from_legacy_joint(
        saved: SavedModel,
        joint_neighbors: usize,
    ) -> Result<Self, ModelIoError> {
        saved.validate()?;
        let extractor =
            FeatureExtractor::from_parts_joint(saved.chip, saved.banks, joint_neighbors);
        // The plan is derived data: recompiled at load, never serialised.
        let plan = crate::plan::compile(crate::plan::per_qubit_graph(
            &extractor,
            &saved.standardizer,
            &saved.heads,
        ));
        Ok(OursDiscriminator {
            extractor,
            standardizer: saved.standardizer,
            heads: saved.heads,
            levels: saved.levels,
            plan,
        })
    }
}

impl OursDiscriminator {
    /// Writes the model as JSON. A `&mut` reference works as the writer.
    ///
    /// # Errors
    ///
    /// Returns [`ModelIoError`] on I/O or encoding failure.
    pub fn save_json<W: Write>(&self, writer: W) -> Result<(), ModelIoError> {
        serde_json::to_writer(writer, &SavedModel::from(self))?;
        Ok(())
    }

    /// Reads a model from JSON and validates it. A `&mut` reference works
    /// as the reader.
    ///
    /// # Errors
    ///
    /// Returns [`ModelIoError`] on I/O failure, malformed JSON, or an
    /// inconsistent model description.
    pub fn load_json<R: Read>(reader: R) -> Result<Self, ModelIoError> {
        let saved: SavedModel = serde_json::from_reader(reader)?;
        Self::try_from(saved)
    }

    /// Saves the model to a JSON file (buffered).
    ///
    /// # Errors
    ///
    /// As for [`OursDiscriminator::save_json`].
    pub fn save_json_file<P: AsRef<Path>>(&self, path: P) -> Result<(), ModelIoError> {
        self.save_json(BufWriter::new(File::create(path)?))
    }

    /// Loads a model from a JSON file (buffered).
    ///
    /// # Errors
    ///
    /// As for [`OursDiscriminator::load_json`].
    pub fn load_json_file<P: AsRef<Path>>(path: P) -> Result<Self, ModelIoError> {
        Self::load_json(BufReader::new(File::open(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Discriminator, OursConfig};
    use mlr_nn::TrainConfig;
    use mlr_sim::{ChipConfig, TraceDataset};

    fn fitted() -> (TraceDataset, OursDiscriminator) {
        let mut c = ChipConfig::uniform(2);
        c.n_samples = 120;
        let ds = TraceDataset::generate(&c, 3, 10, 3);
        let split = ds.split(0.5, 0.0, 3);
        let config = OursConfig {
            train: TrainConfig {
                epochs: 5,
                ..OursConfig::default().train
            },
            ..OursConfig::default()
        };
        let ours = OursDiscriminator::fit(&ds, &split, &config);
        (ds, ours)
    }

    #[test]
    fn json_roundtrip_preserves_predictions() {
        let (ds, ours) = fitted();
        let mut buf = Vec::new();
        ours.save_json(&mut buf).unwrap();
        let restored = OursDiscriminator::load_json(buf.as_slice()).unwrap();
        for i in 0..30 {
            assert_eq!(
                ours.predict_shot(ds.raw(i)),
                restored.predict_shot(ds.raw(i))
            );
        }
        assert_eq!(restored.weight_count(), ours.weight_count());
    }

    #[test]
    fn file_roundtrip() {
        let (_, ours) = fitted();
        let dir = std::env::temp_dir().join("mlr_model_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        ours.save_json_file(&path).unwrap();
        let restored = OursDiscriminator::load_json_file(&path).unwrap();
        assert_eq!(restored.levels(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (_, ours) = fitted();
        let mut saved = SavedModel::from(&ours);
        saved.format_version = 99;
        let err = OursDiscriminator::try_from(saved).unwrap_err();
        assert!(matches!(err, ModelIoError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("format version"));
    }

    #[test]
    fn out_of_range_adc_width_is_rejected() {
        let (_, ours) = fitted();
        for bits in [0, 64, 70] {
            let mut saved = SavedModel::from(&ours);
            saved.chip.adc_bits = Some(bits);
            let err = OursDiscriminator::try_from(saved).unwrap_err();
            assert!(matches!(err, ModelIoError::Invalid(_)), "{err}");
            assert!(err.to_string().contains("adc_bits"), "{err}");
        }
    }

    #[test]
    fn non_finite_chip_is_rejected() {
        let (_, ours) = fitted();
        for x in [f64::NAN, f64::INFINITY] {
            let mut saved = SavedModel::from(&ours);
            saved.chip.rx_noise = x;
            let err = OursDiscriminator::try_from(saved).unwrap_err();
            assert!(matches!(err, ModelIoError::Invalid(_)), "{err}");
            assert!(err.to_string().contains("rx_noise must be finite"), "{err}");
        }
    }

    #[test]
    fn infinite_t1_survives_a_json_round_trip() {
        // t1 = +inf is a legal "no decay" lifetime, so a saved chip must
        // load back with it.
        let (_, ours) = fitted();
        let mut saved = SavedModel::from(&ours);
        saved.chip.qubits[0].t1_ge_us = f64::INFINITY;
        let json = serde_json::to_string(&saved).unwrap();
        let back: SavedModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back.chip.qubits[0].t1_ge_us, f64::INFINITY);
        OursDiscriminator::try_from(back).expect("an infinite lifetime is valid");
    }

    #[test]
    fn truncated_heads_are_rejected() {
        let (_, ours) = fitted();
        let mut saved = SavedModel::from(&ours);
        saved.heads.pop();
        let err = OursDiscriminator::try_from(saved).unwrap_err();
        assert!(err.to_string().contains("heads"), "{err}");
    }

    #[test]
    fn corrupt_json_is_a_json_error() {
        let err = OursDiscriminator::load_json("{not json".as_bytes()).unwrap_err();
        assert!(matches!(err, ModelIoError::Json(_)));
    }

    #[test]
    fn json_schema_carries_version_and_chip() {
        // Field names are the on-disk contract; renames are breaking.
        let (_, ours) = fitted();
        let mut buf = Vec::new();
        ours.save_json(&mut buf).unwrap();
        let value: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(value["format_version"], 1);
        assert!(value["chip"]["qubits"].is_array());
        assert_eq!(value["banks"].as_array().unwrap().len(), 2);
        assert_eq!(value["heads"].as_array().unwrap().len(), 2);
        assert!(value["standardizer"].is_object());
    }

    #[test]
    fn error_type_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelIoError>();
    }
}
