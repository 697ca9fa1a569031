//! Per-qubit Gaussian discriminant analysis (LDA/QDA) on boxcar-integrated
//! IQ points — the classical baselines of Tables V and VI.

use crate::plan::{self, Branch, CompiledPlan, MfBankOp, Op, OpGraph, OutputStage};
use crate::Discriminator;
use mlr_dsp::{integrate, Demodulator};
use mlr_linalg::{covariance_matrix, Cholesky, Matrix};
use mlr_nn::{cmul_sum_f64, CmulSumFn, CMUL_LANES};
use mlr_num::Complex;
use mlr_sim::{DatasetSplit, TraceDataset};
use serde::{Deserialize, Serialize};

/// Which covariance model the discriminant uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiscriminantKind {
    /// Linear discriminant analysis: one covariance pooled across classes.
    Lda,
    /// Quadratic discriminant analysis: one covariance per class.
    Qda,
}

/// Per-class Gaussian model of one qubit's integrated IQ point.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QubitModel {
    /// Class means, one per level.
    means: Vec<Vec<f64>>,
    /// Class log-priors.
    log_priors: Vec<f64>,
    /// Cholesky factors of the covariances: one per class for QDA, a single
    /// pooled entry for LDA.
    chols: Vec<Cholesky>,
    kind: DiscriminantKind,
}

impl QubitModel {
    /// Class `class`'s covariance factor and the `log_det` term its score
    /// carries.
    fn class_factor(&self, class: usize) -> (&Cholesky, f64) {
        match self.kind {
            DiscriminantKind::Lda => (&self.chols[0], 0.0), // common constant, drops out
            DiscriminantKind::Qda => (&self.chols[class], self.chols[class].log_det()),
        }
    }

    fn discriminant(&self, x: &[f64], class: usize) -> f64 {
        let d: Vec<f64> = x
            .iter()
            .zip(&self.means[class])
            .map(|(a, b)| a - b)
            .collect();
        let (chol, log_det) = self.class_factor(class);
        let quad = chol.mahalanobis_sq(&d);
        -0.5 * (quad + log_det) + self.log_priors[class]
    }

    fn predict(&self, x: &[f64]) -> usize {
        let scores: Vec<f64> = (0..self.means.len())
            .map(|c| self.discriminant(x, c))
            .collect();
        mlr_num::argmax(&scores).expect("at least one class")
    }
}

/// One class's constants for [`QdaScorer`]: the mean, the nonzero
/// entries of the 2 × 2 covariance factor and the precomputed `log_det`
/// and log-prior.
#[derive(Debug, Clone, Copy)]
struct ClassTerms {
    mean: [f64; 2],
    /// `[L₀₀, L₁₀, L₁₁]` of the lower-triangular factor.
    l: [f64; 3],
    log_det: f64,
    log_prior: f64,
}

impl ClassTerms {
    fn new(model: &QubitModel, class: usize) -> Result<Self, String> {
        let factor = match model.kind {
            DiscriminantKind::Lda => 0,
            DiscriminantKind::Qda => class,
        };
        let shaped = (
            model.chols.get(factor).map(Cholesky::dim),
            model.log_priors.get(class),
        );
        let ([m0, m1], (Some(2), Some(&log_prior))) = (model.means[class].as_slice(), shaped)
        else {
            return Err(format!(
                "class {class} needs a 2-D mean, a 2 × 2 factor and a prior"
            ));
        };
        let (chol, log_det) = model.class_factor(class);
        let l = chol.factor();
        Ok(Self {
            mean: [*m0, *m1],
            l: [l[(0, 0)], l[(1, 0)], l[(1, 1)]],
            log_det,
            log_prior,
        })
    }

    /// `QubitModel::discriminant` on the integrated point `x`, with the
    /// same `f64` operations in the same forms: `Cholesky::solve`'s two
    /// substitutions unrolled for 2 × 2 and `mahalanobis_sq`'s `.sum()`
    /// over the two products, so every bit (signed zeros included)
    /// matches.
    #[inline]
    fn score(&self, x: [f64; 2]) -> f64 {
        let [l00, l10, l11] = self.l;
        let d = [x[0] - self.mean[0], x[1] - self.mean[1]];
        let y0 = d[0] / l00;
        let y1 = (d[1] - l10 * y0) / l11;
        let s1 = y1 / l11;
        let s0 = (y0 - l10 * s1) / l00;
        let quad: f64 = [d[0] * s0, d[1] * s1].iter().sum();
        -0.5 * (quad + self.log_det) + self.log_prior
    }
}

/// QDA's serving path: every qubit's demodulate-integrate in one pass
/// over the trace ([`mlr_nn::cmul_sum_f64`] on a sample-major reference
/// table, qubits padded to even), then each class scored from constants
/// built at fit/load time — no allocation per shot beyond the verdicts,
/// and bit-identical to [`DiscriminantAnalysis::predict_shot_layered`].
#[derive(Debug, Clone)]
struct QdaScorer {
    /// [`Demodulator::sample_major_table`] over the padded qubit count.
    table: Vec<f64>,
    /// Floats per table row: twice the padded qubit count.
    stride: usize,
    /// Per qubit, per class.
    classes: Vec<Vec<ClassTerms>>,
}

impl QdaScorer {
    fn new(demod: &Demodulator, models: &[QubitModel]) -> Result<Self, String> {
        let classes = models
            .iter()
            .enumerate()
            .map(|(q, model)| {
                if model.means.is_empty() {
                    return Err(format!("qubit {q} has no classes"));
                }
                (0..model.means.len())
                    .map(|c| ClassTerms::new(model, c).map_err(|e| format!("qubit {q}: {e}")))
                    .collect()
            })
            .collect::<Result<_, _>>()?;
        let lanes = models.len().next_multiple_of(2);
        Ok(Self {
            table: demod.sample_major_table(lanes),
            stride: 2 * lanes,
            classes,
        })
    }

    /// Integrates `raw` against every qubit's reference with `kernel`,
    /// at most [`CMUL_LANES`] qubits per pass, and hands each qubit's
    /// integrated point and class constants to `visit`, in qubit order.
    /// The caller has checked the trace length.
    fn walk(
        &self,
        raw: &[Complex],
        kernel: CmulSumFn,
        mut visit: impl FnMut([f64; 2], &[ClassTerms]),
    ) {
        let iq = Complex::as_interleaved(raw);
        let n = raw.len() as f64;
        let mut acc = [0.0f64; 2 * CMUL_LANES];
        for (block, classes) in self.classes.chunks(CMUL_LANES).enumerate() {
            let q0 = block * CMUL_LANES;
            let acc = &mut acc[..2 * classes.len().next_multiple_of(2)];
            kernel(&self.table[2 * q0..], self.stride, iq, acc);
            for (z, classes) in acc.chunks_exact(2).zip(classes) {
                // `integrate`: the mean of the baseband samples, zero for
                // an empty trace.
                let x = if raw.is_empty() {
                    [0.0, 0.0]
                } else {
                    [z[0] / n, z[1] / n]
                };
                visit(x, classes);
            }
        }
    }

    fn predict(&self, raw: &[Complex], kernel: CmulSumFn) -> Vec<usize> {
        let mut verdicts = Vec::with_capacity(self.classes.len());
        self.walk(raw, kernel, |x, classes| {
            let scores = classes.iter().map(|t| t.score(x));
            verdicts.push(mlr_num::argmax_iter(scores).expect("at least one class"));
        });
        verdicts
    }

    fn scores(&self, raw: &[Complex], kernel: CmulSumFn) -> Vec<Vec<f64>> {
        let mut scores = Vec::with_capacity(self.classes.len());
        self.walk(raw, kernel, |x, classes| {
            scores.push(classes.iter().map(|t| t.score(x)).collect());
        });
        scores
    }
}

/// How a fitted discriminant serves `predict_shot`/`predict_batch`.
#[derive(Debug, Clone)]
enum Serving {
    /// LDA: the fused single-pass plan. Under a pooled covariance the
    /// quadratic term `−½·xᵀΣ⁻¹x` is the same for every class, so the
    /// decision is linear in `x` and composes with demodulation +
    /// integration into one kernel row per (qubit, level) against the raw
    /// trace.
    Plan(CompiledPlan),
    /// QDA: per-class covariances keep the quadratic form
    /// class-dependent, so there is no f32 plan; the f64 single-pass
    /// scorer serves it instead, bit-identical to the layered path.
    Scorer(QdaScorer),
}

impl Serving {
    fn build(
        demod: &Demodulator,
        models: &[QubitModel],
        kind: DiscriminantKind,
    ) -> Result<Self, String> {
        Ok(match kind {
            DiscriminantKind::Lda => Serving::Plan(plan::compile(lda_graph(demod, models))),
            DiscriminantKind::Qda => Serving::Scorer(QdaScorer::new(demod, models)?),
        })
    }
}

/// Training-free per-qubit LDA/QDA over demodulated, boxcar-integrated IQ
/// points (two features per qubit).
///
/// These are the "fast" classical rows of Table VI: cheap to fit and
/// evaluate, blind to trace-shape information (mid-readout decay), and
/// blind to other qubits' state (crosstalk) — which is exactly why the
/// matched-filter + NN designs beat them.
///
/// LDA serves through a fused f32 plan ([`Self::plan`]). QDA has no f32
/// plan — its per-class quadratic form does not lower to a kernel bank —
/// but serves through an f64 single-pass scorer that demodulates every
/// qubit in one walk over the trace and is bit-identical to
/// [`Self::predict_shot_layered`].
#[derive(Debug, Clone)]
pub struct DiscriminantAnalysis {
    demod: Demodulator,
    models: Vec<QubitModel>,
    kind: DiscriminantKind,
    serving: Serving,
}

/// Builds the LDA op graph: one kernel row per (qubit, level).
///
/// The layered path scores `−½(x−μ_c)ᵀΣ⁻¹(x−μ_c) + log π_c` on the
/// integrated IQ point `x = mean_t(raw[t]·ref[t])`. Expanding and dropping
/// the class-constant `−½xᵀΣ⁻¹x` leaves the linear discriminant
/// `w_c·x − ½μ_c·w_c + log π_c` with `w_c = Σ⁻¹μ_c`; substituting the
/// demodulate-integrate definition of `x` turns `w_c·x` into a dot product
/// against the interleaved raw trace:
///
/// ```text
/// row[2t]   = (w₀·ref.re[t] + w₁·ref.im[t]) / n
/// row[2t+1] = (w₁·ref.re[t] − w₀·ref.im[t]) / n
/// ```
///
/// Each qubit's branch argmaxes its `levels`-wide slice of the bank — no
/// dense layers at all, so the fused path is a single matrix against the
/// raw trace.
fn lda_graph(demod: &Demodulator, models: &[QubitModel]) -> OpGraph {
    let n = demod.n_samples();
    let inv_n = 1.0 / n as f64;
    let mut rows = Vec::new();
    let mut bias = Vec::new();
    let mut branches = Vec::with_capacity(models.len());
    let mut start = 0usize;
    for (q, model) in models.iter().enumerate() {
        debug_assert_eq!(model.kind, DiscriminantKind::Lda);
        let refs = demod.reference(q);
        let levels = model.means.len();
        for (mean, &log_prior) in model.means.iter().zip(&model.log_priors) {
            let w = model.chols[0].solve(mean);
            let mut row = vec![0.0f64; 2 * n];
            for (t, r) in refs.iter().enumerate() {
                row[2 * t] = (w[0] * r.re + w[1] * r.im) * inv_n;
                row[2 * t + 1] = (w[1] * r.re - w[0] * r.im) * inv_n;
            }
            rows.push(row);
            bias.push(-0.5 * (mean[0] * w[0] + mean[1] * w[1]) + log_prior);
        }
        branches.push(Branch {
            take: Some(start..start + levels),
            layers: Vec::new(),
        });
        start += levels;
    }
    OpGraph {
        trunk: vec![
            Op::FlattenIq { n_samples: n },
            Op::MfBank(MfBankOp {
                rows,
                bias,
                relu: false,
            }),
        ],
        output: OutputStage::PerQubit { branches },
    }
}

impl DiscriminantAnalysis {
    /// Ridge added to covariance diagonals so a Cholesky always exists.
    const RIDGE: f64 = 1e-9;

    /// Fits per-qubit class Gaussians from the training split.
    ///
    /// # Panics
    ///
    /// Panics if the training split is empty, indexes out of range, or a
    /// qubit is missing a level (no class statistics).
    pub fn fit(dataset: &TraceDataset, split: &DatasetSplit, kind: DiscriminantKind) -> Self {
        assert!(!split.train.is_empty(), "empty training split");
        let config = dataset.config();
        let demod = Demodulator::new(config);
        let levels = dataset.levels();

        let models: Vec<QubitModel> = (0..config.n_qubits())
            .map(|q| {
                // Integrated IQ features per training shot.
                let feats: Vec<Vec<f64>> = split
                    .train
                    .iter()
                    .map(|&i| {
                        let z = integrate(&demod.demodulate(dataset.raw(i), q));
                        vec![z.re, z.im]
                    })
                    .collect();
                let labels: Vec<usize> = split.train.iter().map(|&i| dataset.label(i, q)).collect();

                let mut means = Vec::with_capacity(levels);
                let mut log_priors = Vec::with_capacity(levels);
                let mut class_covs = Vec::with_capacity(levels);
                let mut counts = Vec::with_capacity(levels);
                for c in 0..levels {
                    let members: Vec<&Vec<f64>> = feats
                        .iter()
                        .zip(&labels)
                        .filter(|(_, &l)| l == c)
                        .map(|(f, _)| f)
                        .collect();
                    assert!(
                        !members.is_empty(),
                        "qubit {q} has no training traces for level {c}"
                    );
                    let data = Matrix::from_fn(members.len(), 2, |i, j| members[i][j]);
                    means.push(mlr_linalg::mean_vector(&data));
                    log_priors.push((members.len() as f64 / feats.len() as f64).ln());
                    class_covs.push(covariance_matrix(&data));
                    counts.push(members.len());
                }

                let ridge = |m: &Matrix| -> Matrix {
                    let mut r = m.clone();
                    for i in 0..r.rows() {
                        r[(i, i)] += Self::RIDGE + 1e-12 * r[(i, i)].abs();
                    }
                    r
                };

                let chols: Vec<Cholesky> = match kind {
                    DiscriminantKind::Qda => class_covs
                        .iter()
                        .map(|c| ridge(c).cholesky().expect("SPD covariance"))
                        .collect(),
                    DiscriminantKind::Lda => {
                        // Pooled covariance, weighted by class df.
                        let total_df: f64 = counts.iter().map(|&n| (n.max(2) - 1) as f64).sum();
                        let mut pooled = Matrix::zeros(2, 2);
                        for (cov, &n) in class_covs.iter().zip(&counts) {
                            pooled = &pooled + &cov.scale((n.max(2) - 1) as f64 / total_df);
                        }
                        vec![ridge(&pooled).cholesky().expect("SPD covariance")]
                    }
                };

                QubitModel {
                    means,
                    log_priors,
                    chols,
                    kind,
                }
            })
            .collect();

        let serving = Serving::build(&demod, &models, kind).expect("fitted models are 2-D");
        Self {
            demod,
            models,
            kind,
            serving,
        }
    }

    /// The covariance model in use.
    pub fn kind(&self) -> DiscriminantKind {
        self.kind
    }

    /// The unfused op graph an LDA plan is compiled from: the reference
    /// [`plan::eval`] interprets. `None` for QDA.
    pub(crate) fn graph(&self) -> Option<OpGraph> {
        (self.kind == DiscriminantKind::Lda).then(|| lda_graph(&self.demod, &self.models))
    }

    /// Borrows the compiled single-pass plan — `Some` for LDA, `None` for
    /// QDA, whose per-class quadratic form does not lower to an f32 kernel
    /// bank (QDA serves through the bit-identical f64 single-pass scorer
    /// instead; see [`Self::predict_shot_with`]).
    pub fn plan(&self) -> Option<&CompiledPlan> {
        match &self.serving {
            Serving::Plan(plan) => Some(plan),
            Serving::Scorer(_) => None,
        }
    }

    fn scorer(&self) -> Option<&QdaScorer> {
        match &self.serving {
            Serving::Scorer(scorer) => Some(scorer),
            Serving::Plan(_) => None,
        }
    }

    /// QDA's single-pass scorer verdicts for one trace, with the
    /// demodulate-integrate kernel given explicitly
    /// ([`mlr_nn::cmul_sum_f64`], which `predict_shot` uses, its scalar
    /// mirror or its AVX2 path) — `None` for LDA.
    ///
    /// # Panics
    ///
    /// Panics if the trace is longer than the demodulation reference.
    pub fn predict_shot_with(&self, raw: &[Complex], kernel: CmulSumFn) -> Option<Vec<usize>> {
        let scorer = self.scorer()?;
        self.demod.check_len(raw.len());
        Some(scorer.predict(raw, kernel))
    }

    /// QDA's single-pass scorer class scores for one trace, per qubit,
    /// with the kernel given as for [`Self::predict_shot_with`] — `None`
    /// for LDA. Bit-identical to [`Self::class_scores_layered`].
    ///
    /// # Panics
    ///
    /// Panics if the trace is longer than the demodulation reference.
    pub fn scores_with(&self, raw: &[Complex], kernel: CmulSumFn) -> Option<Vec<Vec<f64>>> {
        let scorer = self.scorer()?;
        self.demod.check_len(raw.len());
        Some(scorer.scores(raw, kernel))
    }

    /// Layered Gaussian discriminant scores for one trace, per qubit and
    /// class — what [`Self::predict_shot_layered`] argmaxes, and the
    /// reference the single-pass scorer is checked against.
    pub fn class_scores_layered(&self, raw: &[Complex]) -> Vec<Vec<f64>> {
        self.models
            .iter()
            .enumerate()
            .map(|(q, model)| {
                let z = integrate(&self.demod.demodulate(raw, q));
                (0..model.means.len())
                    .map(|c| model.discriminant(&[z.re, z.im], c))
                    .collect()
            })
            .collect()
    }

    /// Reference per-qubit path — demodulate, integrate, score the full
    /// Gaussian discriminant in `f64` — the reference QDA's single-pass
    /// scorer is checked against bit for bit (and LDA's labels away from
    /// exact ties).
    pub fn predict_shot_layered(&self, raw: &[Complex]) -> Vec<usize> {
        self.models
            .iter()
            .enumerate()
            .map(|(q, model)| {
                let z = integrate(&self.demod.demodulate(raw, q));
                model.predict(&[z.re, z.im])
            })
            .collect()
    }

    /// Layered linear discriminant scores for one trace, per qubit: the
    /// class-constant quadratic term dropped, exactly what the LDA graph's
    /// kernel rows compute — what that graph is pinned against.
    pub fn scores_layered(&self, raw: &[Complex]) -> Vec<Vec<f64>> {
        self.models
            .iter()
            .enumerate()
            .map(|(q, model)| {
                let z = integrate(&self.demod.demodulate(raw, q));
                model
                    .means
                    .iter()
                    .zip(&model.log_priors)
                    .map(|(mean, &log_prior)| {
                        let w = model.chols[0].solve(mean);
                        z.re * w[0] + z.im * w[1] - 0.5 * (mean[0] * w[0] + mean[1] * w[1])
                            + log_prior
                    })
                    .collect()
            })
            .collect()
    }
}

impl Discriminator for DiscriminantAnalysis {
    /// LDA serves through the fused plan (one kernel row per class against
    /// the raw trace, argmax fused); QDA through the f64 single-pass
    /// scorer, bit-identical to the layered Gaussian scoring.
    fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        match &self.serving {
            Serving::Plan(plan) => plan.predict_shot(raw),
            Serving::Scorer(scorer) => {
                self.demod.check_len(raw.len());
                scorer.predict(raw, cmul_sum_f64)
            }
        }
    }

    fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        match &self.serving {
            Serving::Plan(plan) => plan.predict_batch(shots),
            Serving::Scorer(_) => crate::par_map(shots, |raw| self.predict_shot(raw)),
        }
    }

    fn name(&self) -> &str {
        match self.kind {
            DiscriminantKind::Lda => "LDA",
            DiscriminantKind::Qda => "QDA",
        }
    }

    fn n_qubits(&self) -> usize {
        self.models.len()
    }

    fn weight_count(&self) -> usize {
        0 // no neural network
    }
}

/// The serialisable body of a fitted [`DiscriminantAnalysis`] inside the
/// registry's `SavedModel` v2 envelope; the demodulator is rebuilt from
/// the envelope's chip on load.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SavedDiscriminant {
    models: Vec<QubitModel>,
    kind: DiscriminantKind,
}

impl DiscriminantAnalysis {
    pub(crate) fn to_saved(&self) -> SavedDiscriminant {
        SavedDiscriminant {
            models: self.models.clone(),
            kind: self.kind,
        }
    }

    pub(crate) fn from_saved(
        saved: SavedDiscriminant,
        chip: mlr_sim::ChipConfig,
    ) -> Result<Self, crate::ModelIoError> {
        if saved.models.len() != chip.n_qubits() {
            return Err(crate::ModelIoError::Invalid(format!(
                "{} discriminant models for {} qubits",
                saved.models.len(),
                chip.n_qubits()
            )));
        }
        let demod = Demodulator::new(&chip);
        let serving = Serving::build(&demod, &saved.models, saved.kind)
            .map_err(crate::ModelIoError::Invalid)?;
        Ok(Self {
            demod,
            models: saved.models,
            kind: saved.kind,
            serving,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use mlr_sim::ChipConfig;

    fn dataset() -> (TraceDataset, DatasetSplit) {
        let mut c = ChipConfig::uniform(2);
        c.n_samples = 150;
        let ds = TraceDataset::generate(&c, 3, 30, 17);
        let split = ds.split(0.5, 0.0, 17);
        (ds, split)
    }

    #[test]
    fn lda_and_qda_discriminate_three_levels() {
        let (ds, split) = dataset();
        for kind in [DiscriminantKind::Lda, DiscriminantKind::Qda] {
            let da = DiscriminantAnalysis::fit(&ds, &split, kind);
            let report = evaluate(&da, &ds, &split.test);
            for (q, f) in report.per_qubit_fidelity.iter().enumerate() {
                assert!(*f > 0.75, "{kind:?} qubit {q} fidelity {f}");
            }
        }
    }

    #[test]
    fn qda_handles_unequal_class_variances_at_least_as_well() {
        let (ds, split) = dataset();
        let lda = DiscriminantAnalysis::fit(&ds, &split, DiscriminantKind::Lda);
        let qda = DiscriminantAnalysis::fit(&ds, &split, DiscriminantKind::Qda);
        let f_lda = evaluate(&lda, &ds, &split.test).geometric_mean_fidelity();
        let f_qda = evaluate(&qda, &ds, &split.test).geometric_mean_fidelity();
        // Trace variance is state dependent (decay), so QDA should not lose
        // by much — allow a small statistical margin.
        assert!(f_qda > f_lda - 0.02, "LDA {f_lda} vs QDA {f_qda}");
    }

    #[test]
    fn names_and_sizes() {
        let (ds, split) = dataset();
        let lda = DiscriminantAnalysis::fit(&ds, &split, DiscriminantKind::Lda);
        assert_eq!(lda.name(), "LDA");
        assert_eq!(lda.n_qubits(), 2);
        assert_eq!(lda.weight_count(), 0);
    }

    #[test]
    fn lda_graph_matches_the_fit_time_pipeline() {
        // One row per (qubit, level) must give the f64 linear scores and
        // the full Gaussian discriminant's labels.
        let (ds, split) = dataset();
        let lda = DiscriminantAnalysis::fit(&ds, &split, DiscriminantKind::Lda);
        let plan = lda.plan().expect("LDA compiles a plan");
        // One kernel row per (qubit, level), empty branches: the whole
        // pipeline is a single matrix against the raw trace.
        assert_eq!(plan.n_kernel_rows(), 2 * 3);
        let graph = lda.graph().expect("LDA has a graph");
        let shots: Vec<&[Complex]> = split.test.iter().map(|&i| ds.raw(i)).collect();
        for (&i, raw) in split.test.iter().zip(&shots) {
            let got = plan::eval(&graph, raw);
            assert_eq!(got.levels, lda.predict_shot_layered(raw), "shot {i}");
            for (q, (logits, scores)) in got.logits.iter().zip(lda.scores_layered(raw)).enumerate()
            {
                plan::assert_logits_close(logits, &scores, &format!("shot {i}, qubit {q}"));
            }
        }
        let layered: Vec<Vec<usize>> = shots
            .iter()
            .map(|raw| lda.predict_shot_layered(raw))
            .collect();
        assert_eq!(lda.predict_batch(&shots), layered);
        // The QDA scorer's entry points are QDA-only.
        assert!(lda.scores_with(shots[0], cmul_sum_f64).is_none());
        assert!(lda.predict_shot_with(shots[0], cmul_sum_f64).is_none());
    }

    #[test]
    fn qda_has_no_plan() {
        let (ds, split) = dataset();
        let qda = DiscriminantAnalysis::fit(&ds, &split, DiscriminantKind::Qda);
        assert!(qda.plan().is_none());
        assert!(qda.graph().is_none());
    }

    #[test]
    #[should_panic(expected = "trace longer than demodulation reference")]
    fn qda_rejects_a_trace_longer_than_the_reference() {
        let (ds, split) = dataset();
        let qda = DiscriminantAnalysis::fit(&ds, &split, DiscriminantKind::Qda);
        let mut long = ds.raw(0).to_vec();
        long.push(Complex::ONE);
        let _ = qda.predict_batch(&[&long]);
    }

    #[test]
    fn qda_load_rejects_a_body_the_scorer_cannot_use() {
        let (ds, split) = dataset();
        let qda = DiscriminantAnalysis::fit(&ds, &split, DiscriminantKind::Qda);
        let mut saved = qda.to_saved();
        saved.models[1].means[2].pop();
        let err = DiscriminantAnalysis::from_saved(saved, ds.config().clone())
            .expect_err("a 1-D class mean cannot be scored");
        assert!(err.to_string().contains("qubit 1"), "{err}");
    }

    #[test]
    #[should_panic(expected = "empty training split")]
    fn rejects_empty_split() {
        let (ds, _) = dataset();
        let empty = DatasetSplit::default();
        let _ = DiscriminantAnalysis::fit(&ds, &empty, DiscriminantKind::Lda);
    }
}
