//! The spec layer of the model lifecycle: one serialisable name for every
//! discriminator design the paper compares.
//!
//! The paper's Tables IV/V story is a comparison *across designs* — OURS,
//! its no-EMF ablation, the quantised deployment, HERQULES, the raw-trace
//! FNN, LDA/QDA, and the related-work HMM and autoencoder methods — yet
//! each family historically exposed its own `fit(dataset, split, config)`
//! shape. [`DiscriminatorSpec`] closes that gap: it is the single value
//! that names a family and carries its configuration, with
//!
//! * stable family names ([`FromStr`]/[`fmt::Display`]: `"OURS"`,
//!   `"HERQULES"`, `"LDA"`, …) used by the CLI's `--design` flag and the
//!   saved-model envelope;
//! * a JSON round-trip (`{"family": "...", "config": {...}}`) so specs
//!   travel inside [`crate::registry`]'s `SavedModel` v2 files;
//! * a content [`DiscriminatorSpec::fingerprint`] for model caching.
//!
//! Training through a spec and serving the result is the job of the next
//! two layers: [`crate::registry`] (fit/save/load — [`crate::registry::fit`]
//! is the one training entry point) and [`crate::engine`] (micro-batched
//! serving).
//!
//! # Examples
//!
//! ```no_run
//! use mlr_core::{registry, DiscriminatorSpec, Discriminator};
//! use mlr_sim::{ChipConfig, TraceDataset};
//!
//! let spec: DiscriminatorSpec = "HERQULES".parse().unwrap();
//! let dataset = TraceDataset::generate(&ChipConfig::five_qubit_paper(), 3, 50, 7);
//! let split = dataset.paper_split(7);
//! let model = registry::fit(&spec, &dataset, &split, 7);
//! println!("{} has {} weights", spec, model.weight_count());
//! ```

use std::fmt;
use std::str::FromStr;

use mlr_nn::TrainConfig;
use serde::{DeError, Deserialize, JsonValue, Serialize};

use crate::{
    AutoencoderConfig, DeployedConfig, DiscriminantKind, Discriminator, FnnConfig, HerqulesConfig,
    HmmConfig, OursConfig, StreamingConfig,
};

/// A trained discriminator boxed for serving: thread safe, ready for
/// [`crate::evaluate`] or [`crate::ReadoutEngine`].
pub type BoxedDiscriminator = Box<dyn Discriminator + Send>;

/// Returns `train` with its seed replaced by the spec-level `seed` — the
/// one place the spec-level seed-override rule of [`crate::registry::fit`]
/// lives.
pub(crate) fn seeded(train: &TrainConfig, seed: u64) -> TrainConfig {
    TrainConfig {
        seed,
        ..train.clone()
    }
}

/// [`seeded`] lifted to a whole [`OursConfig`].
pub(crate) fn reseed_ours(config: &OursConfig, seed: u64) -> OursConfig {
    OursConfig {
        train: seeded(&config.train, seed),
        ..config.clone()
    }
}

/// One discriminator design of the paper's comparison, with its
/// family-specific configuration payload.
///
/// See the [module docs](self) for the role this type plays; the variant
/// list is the registry's family alphabet. `Discriminant` covers both the
/// LDA and QDA names (they differ only in [`DiscriminantKind`]).
#[derive(Debug, Clone, PartialEq)]
pub enum DiscriminatorSpec {
    /// The paper's design: matched-filter bank + per-qubit heads.
    Ours(OursConfig),
    /// The EMF ablation: OURS with excitation matched filters removed
    /// (fitting forces `include_emf = false` whatever the payload says).
    OursNoEmf(OursConfig),
    /// The fixed-point deployment: OURS trained in float, heads quantised
    /// to the configured word format.
    Deployed(DeployedConfig),
    /// The ISCA '23 HERQULES baseline (joint `kⁿ`-way classifier).
    Herqules(HerqulesConfig),
    /// The raw-trace deep FNN baseline.
    Fnn(FnnConfig),
    /// Classical per-qubit discriminant analysis (LDA or QDA).
    Discriminant(DiscriminantKind),
    /// Per-qubit Gaussian hidden Markov model.
    Hmm(HmmConfig),
    /// Autoencoder compression + classifier heads.
    Autoencoder(AutoencoderConfig),
    /// Confidence-gated early-termination streaming readout.
    Streaming(StreamingConfig),
}

/// A `--design` (or envelope) name that matches no registry family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFamily {
    /// The name that failed to resolve.
    pub name: String,
}

impl fmt::Display for UnknownFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown discriminator design '{}' (valid designs: {})",
            self.name,
            DiscriminatorSpec::FAMILY_NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownFamily {}

impl Default for DiscriminatorSpec {
    /// The paper's proposed design with default hyper-parameters.
    fn default() -> Self {
        DiscriminatorSpec::Ours(OursConfig::default())
    }
}

impl DiscriminatorSpec {
    /// Every parseable family name, in the paper's usual presentation
    /// order — the alphabet [`FromStr`] accepts and CLI errors list.
    pub const FAMILY_NAMES: [&'static str; 10] = [
        "OURS",
        "OURS-NO-EMF",
        "OURS-INT",
        "OURS-STREAM",
        "HERQULES",
        "FNN",
        "LDA",
        "QDA",
        "HMM",
        "AE",
    ];

    /// The design's stable name, as used in the paper's tables, the CLI
    /// `--design` flag and the saved-model envelope.
    pub fn family_name(&self) -> &'static str {
        match self {
            DiscriminatorSpec::Ours(_) => "OURS",
            DiscriminatorSpec::OursNoEmf(_) => "OURS-NO-EMF",
            DiscriminatorSpec::Deployed(_) => "OURS-INT",
            DiscriminatorSpec::Streaming(_) => "OURS-STREAM",
            DiscriminatorSpec::Herqules(_) => "HERQULES",
            DiscriminatorSpec::Fnn(_) => "FNN",
            DiscriminatorSpec::Discriminant(DiscriminantKind::Lda) => "LDA",
            DiscriminatorSpec::Discriminant(DiscriminantKind::Qda) => "QDA",
            DiscriminatorSpec::Hmm(_) => "HMM",
            DiscriminatorSpec::Autoencoder(_) => "AE",
        }
    }

    /// One spec per family name, each with its default configuration —
    /// the whole zoo, for sweeps and smoke tests.
    pub fn all_families() -> Vec<DiscriminatorSpec> {
        Self::FAMILY_NAMES
            .iter()
            .map(|name| name.parse().expect("listed names parse"))
            .collect()
    }

    /// Returns the spec with every neural-network epoch budget replaced by
    /// `epochs` — the CLI's `--epochs` override, meaningful for each
    /// trained family and a no-op for the training-free ones (LDA/QDA,
    /// HMM, whose fitting has no epoch notion).
    pub fn with_epochs(self, epochs: usize) -> Self {
        fn set(train: &mut TrainConfig, epochs: usize) {
            train.epochs = epochs;
        }
        match self {
            DiscriminatorSpec::Ours(mut c) => {
                set(&mut c.train, epochs);
                DiscriminatorSpec::Ours(c)
            }
            DiscriminatorSpec::OursNoEmf(mut c) => {
                set(&mut c.train, epochs);
                DiscriminatorSpec::OursNoEmf(c)
            }
            DiscriminatorSpec::Deployed(mut c) => {
                set(&mut c.base.train, epochs);
                DiscriminatorSpec::Deployed(c)
            }
            DiscriminatorSpec::Streaming(mut c) => {
                set(&mut c.base.train, epochs);
                DiscriminatorSpec::Streaming(c)
            }
            DiscriminatorSpec::Herqules(mut c) => {
                set(&mut c.train, epochs);
                DiscriminatorSpec::Herqules(c)
            }
            DiscriminatorSpec::Fnn(mut c) => {
                set(&mut c.train, epochs);
                DiscriminatorSpec::Fnn(c)
            }
            DiscriminatorSpec::Autoencoder(mut c) => {
                set(&mut c.ae_train, epochs);
                set(&mut c.head_train, epochs);
                DiscriminatorSpec::Autoencoder(c)
            }
            spec @ (DiscriminatorSpec::Discriminant(_) | DiscriminatorSpec::Hmm(_)) => spec,
        }
    }

    /// Stable content fingerprint of the spec (FNV-1a over its canonical
    /// JSON) — the model-cache key component contributed by the design.
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("specs serialise");
        fnv1a(json.as_bytes(), FNV_OFFSET)
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over `bytes`, chained from `hash` (same recipe as the dataset
/// cache fingerprints in `mlr-sim`).
pub(crate) fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

impl fmt::Display for DiscriminatorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.family_name())
    }
}

impl FromStr for DiscriminatorSpec {
    type Err = UnknownFamily;

    /// Parses a family name (case-insensitive) into that family's spec
    /// with default configuration.
    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw.to_ascii_uppercase().as_str() {
            "OURS" => Ok(DiscriminatorSpec::Ours(OursConfig::default())),
            "OURS-NO-EMF" => Ok(DiscriminatorSpec::OursNoEmf(OursConfig {
                include_emf: false,
                ..OursConfig::default()
            })),
            "OURS-INT" => Ok(DiscriminatorSpec::Deployed(DeployedConfig::default())),
            "OURS-STREAM" => Ok(DiscriminatorSpec::Streaming(StreamingConfig::default())),
            "HERQULES" => Ok(DiscriminatorSpec::Herqules(HerqulesConfig::default())),
            "FNN" => Ok(DiscriminatorSpec::Fnn(FnnConfig::default())),
            "LDA" => Ok(DiscriminatorSpec::Discriminant(DiscriminantKind::Lda)),
            "QDA" => Ok(DiscriminatorSpec::Discriminant(DiscriminantKind::Qda)),
            "HMM" => Ok(DiscriminatorSpec::Hmm(HmmConfig::default())),
            "AE" => Ok(DiscriminatorSpec::Autoencoder(AutoencoderConfig::default())),
            _ => Err(UnknownFamily {
                name: raw.to_owned(),
            }),
        }
    }
}

impl Serialize for DiscriminatorSpec {
    /// `{"family": "<name>", "config": <family payload>}`; the
    /// training-free LDA/QDA families carry a `null` config (the family
    /// name already encodes the covariance kind).
    fn to_json_value(&self) -> JsonValue {
        let config = match self {
            DiscriminatorSpec::Ours(c) | DiscriminatorSpec::OursNoEmf(c) => c.to_json_value(),
            DiscriminatorSpec::Deployed(c) => c.to_json_value(),
            DiscriminatorSpec::Streaming(c) => c.to_json_value(),
            DiscriminatorSpec::Herqules(c) => c.to_json_value(),
            DiscriminatorSpec::Fnn(c) => c.to_json_value(),
            DiscriminatorSpec::Discriminant(_) => JsonValue::Null,
            DiscriminatorSpec::Hmm(c) => c.to_json_value(),
            DiscriminatorSpec::Autoencoder(c) => c.to_json_value(),
        };
        JsonValue::Object(vec![
            (
                "family".to_owned(),
                JsonValue::String(self.family_name().to_owned()),
            ),
            ("config".to_owned(), config),
        ])
    }
}

impl Deserialize for DiscriminatorSpec {
    fn from_json_value(value: &JsonValue) -> Result<Self, DeError> {
        let family = match value.get("family") {
            Some(JsonValue::String(s)) => s.clone(),
            _ => return Err(DeError::new("spec object needs a string `family`")),
        };
        let config = value.get("config").unwrap_or(&JsonValue::Null);
        let spec = match family.to_ascii_uppercase().as_str() {
            "OURS" => DiscriminatorSpec::Ours(OursConfig::from_json_value(config)?),
            "OURS-NO-EMF" => DiscriminatorSpec::OursNoEmf(OursConfig::from_json_value(config)?),
            "OURS-INT" => DiscriminatorSpec::Deployed(DeployedConfig::from_json_value(config)?),
            "OURS-STREAM" => {
                DiscriminatorSpec::Streaming(StreamingConfig::from_json_value(config)?)
            }
            "HERQULES" => DiscriminatorSpec::Herqules(HerqulesConfig::from_json_value(config)?),
            "FNN" => DiscriminatorSpec::Fnn(FnnConfig::from_json_value(config)?),
            "LDA" => DiscriminatorSpec::Discriminant(DiscriminantKind::Lda),
            "QDA" => DiscriminatorSpec::Discriminant(DiscriminantKind::Qda),
            "HMM" => DiscriminatorSpec::Hmm(HmmConfig::from_json_value(config)?),
            "AE" => DiscriminatorSpec::Autoencoder(AutoencoderConfig::from_json_value(config)?),
            other => {
                return Err(DeError::new(format!(
                    "unknown discriminator family `{other}`"
                )))
            }
        };
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_name_parses_and_round_trips() {
        for name in DiscriminatorSpec::FAMILY_NAMES {
            let spec: DiscriminatorSpec = name.parse().unwrap();
            assert_eq!(spec.family_name(), name);
            assert_eq!(spec.to_string(), name);
            // Case-insensitive parsing.
            let lower: DiscriminatorSpec = name.to_ascii_lowercase().parse().unwrap();
            assert_eq!(lower.family_name(), name);
        }
        assert_eq!(
            DiscriminatorSpec::all_families().len(),
            DiscriminatorSpec::FAMILY_NAMES.len()
        );
    }

    #[test]
    fn unknown_family_error_lists_valid_names() {
        let err = "MWPM".parse::<DiscriminatorSpec>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("MWPM"), "{msg}");
        for name in DiscriminatorSpec::FAMILY_NAMES {
            assert!(msg.contains(name), "{msg} missing {name}");
        }
    }

    #[test]
    fn json_round_trip_preserves_spec() {
        for spec in DiscriminatorSpec::all_families() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: DiscriminatorSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
        // A non-default payload survives too.
        let spec = DiscriminatorSpec::Hmm(HmmConfig {
            window: 10,
            viterbi_rounds: 0,
            transition_smoothing: 0.5,
        });
        let back: DiscriminatorSpec =
            serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn json_schema_is_family_plus_config() {
        let spec = DiscriminatorSpec::default();
        let value = spec.to_json_value();
        assert_eq!(value["family"], "OURS");
        assert!(value["config"].is_object());
        let lda = DiscriminatorSpec::Discriminant(DiscriminantKind::Lda).to_json_value();
        assert_eq!(lda["config"], JsonValue::Null);
    }

    #[test]
    fn fingerprints_separate_families_and_configs() {
        let mut fps: Vec<u64> = DiscriminatorSpec::all_families()
            .iter()
            .map(DiscriminatorSpec::fingerprint)
            .collect();
        fps.push(
            DiscriminatorSpec::Ours(OursConfig {
                class_weight_cap: 7.0,
                ..OursConfig::default()
            })
            .fingerprint(),
        );
        let unique: std::collections::BTreeSet<u64> = fps.iter().copied().collect();
        assert_eq!(unique.len(), fps.len(), "fingerprint collision: {fps:?}");
    }

    #[test]
    fn with_epochs_reaches_every_trained_family() {
        for spec in DiscriminatorSpec::all_families() {
            let tuned = spec.clone().with_epochs(3);
            match &tuned {
                DiscriminatorSpec::Ours(c) | DiscriminatorSpec::OursNoEmf(c) => {
                    assert_eq!(c.train.epochs, 3)
                }
                DiscriminatorSpec::Deployed(c) => assert_eq!(c.base.train.epochs, 3),
                DiscriminatorSpec::Streaming(c) => assert_eq!(c.base.train.epochs, 3),
                DiscriminatorSpec::Herqules(c) => assert_eq!(c.train.epochs, 3),
                DiscriminatorSpec::Fnn(c) => assert_eq!(c.train.epochs, 3),
                DiscriminatorSpec::Autoencoder(c) => {
                    assert_eq!((c.ae_train.epochs, c.head_train.epochs), (3, 3))
                }
                DiscriminatorSpec::Discriminant(_) | DiscriminatorSpec::Hmm(_) => {
                    assert_eq!(tuned, spec)
                }
            }
        }
    }

    #[test]
    fn no_emf_spec_defaults_to_no_emf_config() {
        let spec: DiscriminatorSpec = "ours-no-emf".parse().unwrap();
        match spec {
            DiscriminatorSpec::OursNoEmf(c) => assert!(!c.include_emf),
            other => panic!("wrong family {other}"),
        }
    }
}
