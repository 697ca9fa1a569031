//! The paper's tables and figures as typed artifacts, printed by
//! `mlr repro [ARTIFACT]`.
//!
//! Each artifact is one function that returns an [`Artifact`]: a table
//! (title, header, rows) plus the paper's [`Claim`]s about it, each with
//! the paper's value, this run's value and whether the claim holds. One
//! printer (`Display for Artifact`) prints any artifact.
//!
//! Artifacts read three knobs from the environment, once, through
//! [`Knobs::from_env`]: `MLR_SHOTS` (shots per prepared basis state,
//! default 600), `MLR_SEED` (default 2025) and `MLR_QEC_TRIALS` (ERASER
//! trials per row or sweep point; 600 for Tables I and VI, 300 for the
//! herald sweep). The five-design fidelity study behind Fig. 1(c) and
//! Tables II, IV, V and VI runs at most once per [`run`], and only when a
//! requested artifact reads it.

use std::fmt;
use std::str::FromStr;

use mlr_sim::{ChipConfig, DatasetSplit, TraceDataset};

mod extensions;
mod hardware;
mod qec;
mod study;

pub use extensions::adaptive_table;
pub use hardware::{hardware_table, scaling, HW_COLUMNS};
pub use qec::{eraser_table, herald_table};
use study::{run_fidelity_study, FidelityStudy};

/// One statement of the paper next to what this run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What is claimed, phrased as the test [`Claim::holds`] applies.
    pub statement: String,
    /// The paper's value(s).
    pub paper: String,
    /// This run's value(s); `unmeasured` where a ratio had a zero
    /// denominator.
    pub measured: String,
    /// Whether the measured values satisfy the statement.
    pub holds: bool,
}

/// One regenerated table or figure of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The name `mlr repro` selects it by (`table1`, `fig1d`, …).
    pub name: &'static str,
    /// Table title.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Table rows, each as wide as the header.
    pub rows: Vec<Vec<String>>,
    /// The paper's claims about this artifact.
    pub claims: Vec<Claim>,
}

impl Artifact {
    fn new(
        name: &'static str,
        title: impl Into<String>,
        header: &[&str],
        rows: Vec<Vec<String>>,
    ) -> Self {
        Self {
            name,
            title: title.into(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows,
            claims: Vec::new(),
        }
    }

    fn claim(mut self, statement: &str, paper: &str, measured: String, holds: bool) -> Self {
        self.claims.push(Claim {
            statement: statement.to_owned(),
            paper: paper.to_owned(),
            measured,
            holds,
        });
        self
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::format_table(&self.title, &self.header, &self.rows))?;
        for c in &self.claims {
            let tag = if c.holds { "holds" } else { "fails" };
            writeln!(
                f,
                "  [{tag}] {}: measured {} (paper {})",
                c.statement, c.measured, c.paper
            )?;
        }
        Ok(())
    }
}

/// `num / den`, or `None` when the denominator is zero — a ratio that
/// was not measured, not an infinitely large one.
fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// A ratio as `{r:.digits$}x`, or `unmeasured`.
fn times(r: Option<f64>, digits: usize) -> String {
    r.map_or_else(|| "unmeasured".to_owned(), |r| format!("{r:.digits$}x"))
}

/// A ratio as a percentage with one decimal, or `unmeasured`.
fn percent(r: Option<f64>) -> String {
    r.map_or_else(|| "unmeasured".to_owned(), |r| format!("{:.1}%", 100.0 * r))
}

/// `items` joined by `sep`.
fn joined(items: impl IntoIterator<Item = String>, sep: &str) -> String {
    items.into_iter().collect::<Vec<_>>().join(sep)
}

/// The reproduction's environment knobs, read once per invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// `MLR_SHOTS`: shots per prepared basis state (default 600; the
    /// paper records 50 000 on hardware).
    pub shots: usize,
    /// `MLR_SEED`: master seed (default 2025).
    pub seed: u64,
    /// `MLR_QEC_TRIALS`: ERASER trials per table row or sweep point;
    /// `None` keeps each artifact's default.
    pub qec_trials: Option<usize>,
}

impl Knobs {
    /// Reads `MLR_SHOTS`, `MLR_SEED` and `MLR_QEC_TRIALS`.
    ///
    /// # Errors
    ///
    /// [`ReproError::BadKnob`] when a value does not parse, or a count is
    /// zero.
    pub fn from_env() -> Result<Self, ReproError> {
        let var = |name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        Self::parse(
            var("MLR_SHOTS").as_deref(),
            var("MLR_SEED").as_deref(),
            var("MLR_QEC_TRIALS").as_deref(),
        )
    }

    /// The pure parser behind [`Knobs::from_env`]: `None` is an unset
    /// variable, and every value set must be a positive integer.
    ///
    /// # Errors
    ///
    /// [`ReproError::BadKnob`] naming the first variable whose value does
    /// not parse or is zero.
    pub fn parse(
        shots: Option<&str>,
        seed: Option<&str>,
        qec_trials: Option<&str>,
    ) -> Result<Self, ReproError> {
        Ok(Self {
            shots: positive("MLR_SHOTS", shots)?.unwrap_or(600),
            seed: positive("MLR_SEED", seed)?.unwrap_or(2025),
            qec_trials: positive("MLR_QEC_TRIALS", qec_trials)?,
        })
    }
}

fn positive<T: FromStr + Default + PartialEq>(
    var: &'static str,
    raw: Option<&str>,
) -> Result<Option<T>, ReproError> {
    let bad = |r: &str| ReproError::BadKnob {
        var,
        value: r.to_owned(),
    };
    raw.map(|r| {
        r.parse()
            .ok()
            .filter(|n| *n != T::default())
            .ok_or_else(|| bad(r))
    })
    .transpose()
}

/// Why `mlr repro` could not regenerate an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReproError {
    /// An environment knob held a value that is not a positive integer.
    BadKnob {
        /// The variable.
        var: &'static str,
        /// Its value.
        value: String,
    },
    /// The training split has no shot of some level on some qubit, so
    /// its matched-filter bank cannot be fitted.
    MissingLevel {
        /// 1-based qubit number, as in the tables.
        qubit: usize,
        /// The missing level.
        level: usize,
        /// The `MLR_SHOTS` in force.
        shots: usize,
    },
    /// No artifact has this name.
    UnknownArtifact(String),
}

impl fmt::Display for ReproError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReproError::BadKnob { var, value } => {
                write!(f, "{var}={value:?} is not a positive integer")
            }
            ReproError::MissingLevel {
                qubit,
                level,
                shots,
            } => write!(
                f,
                "qubit {qubit} has no level-{level} shot in the training split at \
                 MLR_SHOTS={shots}; raise MLR_SHOTS"
            ),
            ReproError::UnknownArtifact(name) => write!(
                f,
                "unknown artifact '{name}' (valid artifacts: {})",
                names().collect::<Vec<_>>().join(", ")
            ),
        }
    }
}

impl std::error::Error for ReproError {}

/// The natural-leakage dataset of `chip` (cached, see
/// [`crate::cached_natural_dataset`]) with its checked paper split.
fn natural_data(
    chip: &ChipConfig,
    shots: usize,
    seed: u64,
) -> Result<(TraceDataset, DatasetSplit), ReproError> {
    let dataset = crate::cached_natural_dataset(chip, shots, seed);
    let split = checked_split(&dataset, seed, shots)?;
    Ok((dataset, split))
}

/// The paper split of `dataset`, refused when its training part has no
/// shot of some level on some qubit: that qubit's matched-filter bank
/// would be underdetermined.
fn checked_split(
    dataset: &TraceDataset,
    seed: u64,
    shots: usize,
) -> Result<DatasetSplit, ReproError> {
    let split = dataset.paper_split(seed);
    for q in 0..dataset.config().n_qubits() {
        let mut seen = vec![false; dataset.levels()];
        for &i in &split.train {
            seen[dataset.label(i, q)] = true;
        }
        if let Some(level) = seen.iter().position(|&s| !s) {
            return Err(ReproError::MissingLevel {
                qubit: q + 1,
                level,
                shots,
            });
        }
    }
    Ok(split)
}

/// How an artifact is computed.
#[derive(Clone, Copy)]
enum Build {
    /// From the knobs alone.
    Knobs(fn(&Knobs) -> Result<Artifact, ReproError>),
    /// From the shared fidelity study.
    Study(fn(&FidelityStudy, &Knobs) -> Artifact),
}

/// Every artifact by name; a bare `mlr repro` prints the first
/// [`DEFAULT_SET`], in this order.
const ARTIFACTS: &[(&str, Build)] = &[
    ("fig1c", Build::Study(study::fig1c)),
    ("table2", Build::Study(study::table2)),
    ("table4", Build::Study(study::table4)),
    ("table5", Build::Study(study::table5)),
    ("table6", Build::Study(study::table6)),
    ("table1", Build::Knobs(qec::table1)),
    ("fig1d", Build::Knobs(hardware::fig1d)),
    ("fig5a", Build::Knobs(hardware::fig5a)),
    ("sec3a", Build::Knobs(qec::sec3a)),
    ("sec7b", Build::Knobs(qec::sec7b)),
    ("sec7d", Build::Knobs(hardware::sec7d)),
    ("calibrate", Build::Study(study::calibrate)),
    ("scaling", Build::Knobs(|_| Ok(hardware::scaling(500)))),
    ("twolevel", Build::Knobs(extensions::twolevel)),
    ("fig3", Build::Knobs(extensions::fig3)),
    ("fig5b", Build::Knobs(extensions::fig5b)),
    ("herald_sweep", Build::Knobs(qec::herald_sweep)),
    ("ablation", Build::Knobs(extensions::ablation)),
    ("sensitivity", Build::Knobs(extensions::sensitivity)),
    ("adaptive", Build::Knobs(extensions::adaptive)),
    ("diag", Build::Knobs(extensions::diag)),
];

const DEFAULT_SET: usize = 11;

/// Every artifact name `mlr repro` accepts.
pub fn names() -> impl Iterator<Item = &'static str> {
    ARTIFACTS.iter().map(|(name, _)| *name)
}

/// Regenerates the artifact `name` — or, with `None`, the default set
/// (Fig. 1(c), Tables II, IV, V, VI and I, Fig. 1(d), Fig. 5(a),
/// Secs. III-A, VII-B and VII-D) — handing each to `emit` as it is done.
/// The fidelity study runs once, before the first artifact that reads it.
///
/// # Errors
///
/// [`ReproError::UnknownArtifact`] before anything runs when `name`
/// names no artifact; [`ReproError::MissingLevel`] when `knobs.shots` is
/// too small to fit a design.
pub fn run(
    name: Option<&str>,
    knobs: &Knobs,
    mut emit: impl FnMut(&Artifact),
) -> Result<(), ReproError> {
    let selection = match name {
        None => &ARTIFACTS[..DEFAULT_SET],
        Some(name) => {
            let i = names().position(|n| n == name);
            let i = i.ok_or_else(|| ReproError::UnknownArtifact(name.to_owned()))?;
            &ARTIFACTS[i..=i]
        }
    };
    let mut study = None;
    for (_, build) in selection {
        let artifact = match *build {
            Build::Knobs(build) => build(knobs)?,
            Build::Study(build) => {
                if study.is_none() {
                    study = Some(run_fidelity_study(knobs.shots, knobs.seed)?);
                }
                build(study.as_ref().expect("study just ran"), knobs)
            }
        };
        emit(&artifact);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_core::EvalReport;

    fn defaults() -> Knobs {
        Knobs::parse(None, None, None).unwrap()
    }

    fn report(design: &str, fidelity: f64) -> EvalReport {
        EvalReport {
            design: design.to_owned(),
            per_qubit_fidelity: vec![fidelity; 5],
            per_qubit_micro: vec![fidelity; 5],
            per_level_recall: vec![vec![fidelity; 3]; 5],
            joint_accuracy: fidelity,
            n_shots: 100,
        }
    }

    fn study(ours: f64, fnn: f64, herqules: f64) -> FidelityStudy {
        FidelityStudy {
            ours: report("OURS", ours),
            fnn: report("FNN", fnn),
            herqules: report("HERQULES", herqules),
            lda: report("LDA", 0.9),
            qda: report("QDA", 0.9),
            weight_counts: (6_000, 600_000, 38_000),
        }
    }

    fn assert_rectangular(a: &Artifact) {
        assert!(!a.rows.is_empty(), "{} has no rows", a.name);
        for row in &a.rows {
            assert_eq!(row.len(), a.header.len(), "{}: {row:?}", a.name);
        }
    }

    fn holds(a: &Artifact, statement_start: &str) -> bool {
        a.claims
            .iter()
            .find(|c| c.statement.starts_with(statement_start))
            .unwrap_or_else(|| panic!("{} has no claim '{statement_start}…'", a.name))
            .holds
    }

    #[test]
    fn artifacts_without_the_study_are_rectangular() {
        let knobs = Knobs {
            qec_trials: Some(4),
            ..defaults()
        };
        for name in [
            "fig1d", "fig5a", "sec7d", "scaling", "sec7b", "sec3a", "table1",
        ] {
            let (_, build) = ARTIFACTS.iter().find(|(n, _)| *n == name).unwrap();
            let Build::Knobs(build) = build else {
                panic!("{name} reads the study")
            };
            let a = build(&knobs).unwrap();
            assert_eq!(a.name, name);
            assert_rectangular(&a);
            assert!(!a.claims.is_empty(), "{name} states no claim");
        }
    }

    #[test]
    fn study_artifacts_are_rectangular() {
        let s = study(0.92, 0.9, 0.6);
        let knobs = Knobs {
            qec_trials: Some(2),
            ..defaults()
        };
        for build in [
            study::fig1c,
            study::table2,
            study::table4,
            study::table5,
            study::table6,
            study::calibrate,
        ] {
            assert_rectangular(&build(&s, &knobs));
        }
    }

    #[test]
    fn study_claims_can_hold_and_fail() {
        let knobs = defaults();
        let paper_like = study(0.9052, 0.8985, 0.591);
        assert!(holds(
            &study::table4(&paper_like, &knobs),
            "OURS F5Q >= FNN"
        ));
        assert!(holds(
            &study::table2(&paper_like, &knobs),
            "FNN F5Q > HERQULES"
        ));
        let reversed = study(0.85, 0.9, 0.95);
        assert!(!holds(&study::table4(&reversed, &knobs), "OURS F5Q >= FNN"));
        assert!(!holds(
            &study::table2(&reversed, &knobs),
            "FNN F5Q > HERQULES"
        ));
    }

    #[test]
    fn a_zero_denominator_ratio_is_unmeasured() {
        assert_eq!(ratio(3.0, 0.0), None);
        assert_eq!(times(ratio(3.0, 0.0), 2), "unmeasured");
        assert_eq!(times(ratio(3.0, 2.0), 2), "1.50x");
        // A perfect FNN leaves OURS' relative improvement undefined.
        let a = study::table4(&study(1.0, 1.0, 0.5), &defaults());
        let claim = a
            .claims
            .iter()
            .find(|c| c.statement.contains("relative"))
            .unwrap();
        assert!(claim.measured.contains("unmeasured"), "{}", claim.measured);
        assert!(!claim.holds);
        assert!(a.to_string().contains("[fails]"));
    }

    #[test]
    fn knob_parser_rejects_garbage_and_zero() {
        assert_eq!(
            defaults(),
            Knobs {
                shots: 600,
                seed: 2025,
                qec_trials: None
            }
        );
        assert_eq!(
            Knobs::parse(Some("200"), Some("7"), Some("50")).unwrap(),
            Knobs {
                shots: 200,
                seed: 7,
                qec_trials: Some(50)
            }
        );
        for (bad, var) in [
            ((Some("zz"), None, None), "MLR_SHOTS"),
            ((Some("0"), None, None), "MLR_SHOTS"),
            ((None, Some("zz"), None), "MLR_SEED"),
            ((None, Some("-1"), None), "MLR_SEED"),
            ((None, None, Some("zz")), "MLR_QEC_TRIALS"),
            ((None, None, Some("0")), "MLR_QEC_TRIALS"),
        ] {
            let err = Knobs::parse(bad.0, bad.1, bad.2).unwrap_err();
            assert!(
                matches!(&err, ReproError::BadKnob { var: v, .. } if *v == var),
                "{err}"
            );
            assert!(err.to_string().contains(var), "{err}");
        }
    }

    #[test]
    fn unknown_artifacts_are_refused_before_anything_runs() {
        let err = run(Some("table3"), &defaults(), |_| panic!("ran")).unwrap_err();
        let msg = err.to_string();
        for name in names() {
            assert!(msg.contains(name), "{msg} misses {name}");
        }
    }

    #[test]
    fn too_few_shots_is_an_error_naming_qubit_level_and_shots() {
        let chip = mlr_sim::ChipConfig::five_qubit_paper();
        let dataset = TraceDataset::generate_natural(&chip, 2, 3);
        let err = checked_split(&dataset, 3, 2).unwrap_err();
        assert!(
            matches!(
                err,
                ReproError::MissingLevel {
                    level: 2,
                    shots: 2,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("MLR_SHOTS=2"), "{err}");
    }
}
