//! End-to-end feature extraction: raw multiplexed trace → merged
//! matched-filter scores from every qubit (Fig. 4(a)–(b)).

use mlr_dsp::{iq_features, Demodulator, MatchedFilterKind};
use mlr_num::Complex;
use mlr_sim::{ChipConfig, TraceDataset};
use rayon::prelude::*;

use crate::QubitMfBank;

/// One matched filter with the demodulation rotation folded in: weights in
/// the **raw-trace** domain, so a score is a single dot product against
/// the undemodulated composite trace — no per-shot demodulation at all.
///
/// Derivation: with reference phasor `c_t = e^{-i 2π f_q t}`, the baseband
/// is `b_t = z_t · c_t`, and the bank scores `Σ_t k_I[t]·Re(b_t) +
/// k_Q[t]·Im(b_t)`. Substituting gives raw-domain weights
/// `w_I[t] = k_I[t]·Re(c_t) + k_Q[t]·Im(c_t)` and
/// `w_Q[t] = k_Q[t]·Re(c_t) − k_I[t]·Im(c_t)` — exactly the pre-rotated
/// coefficient memory an FPGA datapath would load. The weights are stored
/// interleaved (`w[2t] = w_I[t]`, `w[2t+1] = w_Q[t]`) so the score is one
/// contiguous dot product against the flattened `[re, im, re, im, …]`
/// trace.
#[derive(Debug, Clone)]
struct FusedKernel {
    w: Vec<f64>,
}

/// Shots per tile in the batched extraction: kernels stay cache-resident
/// across a tile, which is where the batch path's amortisation comes from.
const BATCH_TILE: usize = 16;

/// Writes a complex trace as interleaved `[re, im, …]` into `flat`.
fn flatten_iq(raw: &[Complex], flat: &mut Vec<f64>) {
    flat.clear();
    flat.reserve(2 * raw.len());
    for z in raw {
        flat.push(z.re);
        flat.push(z.im);
    }
}

/// The effective (de-mixed) baseband of one qubit: the α-weighted sum of
/// the participating channels' demodulated traces. The single-entry
/// identity recipe short-circuits to plain demodulation, so the
/// `joint_neighbors = 0` layered path is bit-identical to the historic
/// per-qubit one.
fn joint_baseband(demod: &Demodulator, mix_q: &[(usize, f64)], raw: &[Complex]) -> Vec<Complex> {
    if let [(q, alpha)] = mix_q {
        if *alpha == 1.0 {
            return demod.demodulate(raw, *q);
        }
    }
    let mut out = vec![Complex::ZERO; raw.len()];
    for &(p, alpha) in mix_q {
        for (acc, z) in out.iter_mut().zip(demod.demodulate(raw, p)) {
            acc.re += alpha * z.re;
            acc.im += alpha * z.im;
        }
    }
    out
}

/// [`joint_baseband`] written straight into the [`iq_features`] layout
/// (`out[..n]` the I samples, `out[n..]` the Q samples of an `n`-sample
/// trace), with the same arithmetic per sample, so the same bits.
fn joint_baseband_iq(
    demod: &Demodulator,
    mix_q: &[(usize, f64)],
    raw: &[Complex],
    out: &mut [f64],
) {
    demod.check_len(raw.len());
    let (out_i, out_q) = out.split_at_mut(raw.len());
    if let [(q, alpha)] = mix_q {
        if *alpha == 1.0 {
            let samples = raw.iter().zip(demod.reference(*q));
            for ((re, im), (&s, &r)) in out_i.iter_mut().zip(out_q.iter_mut()).zip(samples) {
                let z = s * r;
                (*re, *im) = (z.re, z.im);
            }
            return;
        }
    }
    out_i.fill(0.0);
    out_q.fill(0.0);
    for &(p, alpha) in mix_q {
        let samples = raw.iter().zip(demod.reference(p));
        for ((re, im), (&s, &r)) in out_i.iter_mut().zip(out_q.iter_mut()).zip(samples) {
            let z = s * r;
            *re += alpha * z.re;
            *im += alpha * z.im;
        }
    }
}

/// Demodulates a raw trace and scores every qubit's matched-filter bank,
/// merging the scores into one feature vector (`9 × n` entries for the
/// paper's three-level banks).
///
/// The same extractor (with `include_emf = false`) produces HERQULES'
/// `6 × n` feature vector, which is how the baseline shares this code path.
///
/// Two extraction paths exist: the per-shot reference path
/// ([`FeatureExtractor::extract`]: demodulate, then score each bank), and
/// the batched fused path ([`FeatureExtractor::extract_batch_traces`]),
/// which folds each qubit's demodulation rotation into its kernels at
/// construction time and scores tiles of shots against the shared,
/// cache-resident kernel memory. The two agree to floating-point
/// reassociation (≈1e-13 relative); downstream decisions are identical.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    chip: ChipConfig,
    demod: Demodulator,
    banks: Vec<QubitMfBank>,
    /// Spectral-neighbourhood radius of the joint crosstalk-aware kernels
    /// (0 = the classic per-qubit bank).
    joint_neighbors: usize,
    /// Per-qubit de-mixing recipe: qubit `q`'s effective baseband is
    /// `Σ (p, α) ∈ mix[q] of α · demod_p(raw)`; derived from `chip` +
    /// `joint_neighbors`, rebuilt rather than serialised.
    mix: Vec<Vec<(usize, f64)>>,
    /// Raw-domain kernels, flattened in qubit-major score order; derived
    /// from `banks` + `demod` + `mix`, rebuilt rather than serialised.
    fused: Vec<FusedKernel>,
}

/// Builds the per-qubit de-mixing tables for a spectral-neighbourhood
/// radius of `joint_neighbors` tones each side.
///
/// The simulator mixes channel `p` into channel `q`'s baseband with weight
/// `β[q][p]` (the chip's crosstalk row). Subtracting `β[q][p] ·
/// demod_p(raw)` from `demod_q(raw)` cancels that contamination to first
/// order in β, so qubit `q`'s entry is `[(q, 1.0)]` followed by
/// `(p, −β[q][p])` for the `joint_neighbors` nearest tones on each side in
/// frequency order (zero-β neighbours are skipped — they widen kernel
/// support for nothing). With `joint_neighbors = 0` every entry is the
/// identity `[(q, 1.0)]`, which reproduces the per-qubit bank bit-exactly.
fn joint_mix(chip: &ChipConfig, joint_neighbors: usize) -> Vec<Vec<(usize, f64)>> {
    let n = chip.n_qubits();
    let mut by_freq: Vec<usize> = (0..n).collect();
    by_freq.sort_by(|&a, &b| {
        chip.qubits[a]
            .if_freq_mhz
            .total_cmp(&chip.qubits[b].if_freq_mhz)
            .then(a.cmp(&b))
    });
    let mut rank = vec![0usize; n];
    for (r, &q) in by_freq.iter().enumerate() {
        rank[q] = r;
    }
    (0..n)
        .map(|q| {
            let mut mix = vec![(q, 1.0)];
            for d in 1..=joint_neighbors {
                let r = rank[q];
                let left = r.checked_sub(d).map(|rl| by_freq[rl]);
                let right = (r + d < n).then(|| by_freq[r + d]);
                for p in left.into_iter().chain(right) {
                    let beta = chip.crosstalk[q][p];
                    if beta != 0.0 {
                        mix.push((p, -beta));
                    }
                }
            }
            mix
        })
        .collect()
}

/// Folds every bank's kernels through its qubit's de-mixing recipe: the
/// raw-domain row of a joint kernel is the α-weighted sum of the same
/// bank kernel rotated by each participating channel's reference phasor.
fn fuse_kernels(
    demod: &Demodulator,
    banks: &[QubitMfBank],
    mix: &[Vec<(usize, f64)>],
) -> Vec<FusedKernel> {
    let mut fused = Vec::with_capacity(banks.iter().map(QubitMfBank::n_filters).sum());
    for (q, bank) in banks.iter().enumerate() {
        for (ki, kq) in bank.kernels_iq() {
            let mut w = vec![0.0; 2 * demod.n_samples()];
            for &(p, alpha) in &mix[q] {
                let refs = demod.reference(p);
                for (pair, (c, (i, q))) in w
                    .chunks_exact_mut(2)
                    .zip(refs.iter().zip(ki.iter().zip(&kq)))
                {
                    pair[0] += alpha * (i * c.re + q * c.im);
                    pair[1] += alpha * (q * c.re - i * c.im);
                }
            }
            fused.push(FusedKernel { w });
        }
    }
    fused
}

impl FeatureExtractor {
    /// Fits one matched-filter bank per qubit from the training shots of
    /// `dataset` selected by `train_indices`.
    ///
    /// Returns `None` if any qubit is missing a level in the training
    /// split.
    ///
    /// # Panics
    ///
    /// Panics if `train_indices` is empty or out of range.
    pub fn fit(
        dataset: &TraceDataset,
        train_indices: &[usize],
        include_emf: bool,
        kind: MatchedFilterKind,
    ) -> Option<Self> {
        Self::fit_joint(dataset, train_indices, include_emf, kind, 0)
    }

    /// [`FeatureExtractor::fit`] with joint crosstalk-aware kernels over a
    /// spectral neighbourhood of `joint_neighbors` tones each side.
    ///
    /// Banks are fitted on the **de-mixed** basebands (see `joint_mix`),
    /// so matched filters and their raw-domain folded kernels agree on
    /// what a channel looks like. `joint_neighbors = 0` is bit-identical
    /// to [`FeatureExtractor::fit`].
    ///
    /// # Panics
    ///
    /// Panics if `train_indices` is empty or out of range.
    pub fn fit_joint(
        dataset: &TraceDataset,
        train_indices: &[usize],
        include_emf: bool,
        kind: MatchedFilterKind,
        joint_neighbors: usize,
    ) -> Option<Self> {
        assert!(!train_indices.is_empty(), "no training shots");
        let config = dataset.config();
        let demod = Demodulator::new(config);
        let levels = dataset.levels();
        let mix = joint_mix(config, joint_neighbors);

        let width = 2 * dataset.n_samples();
        let banks: Option<Vec<QubitMfBank>> = (0..config.n_qubits())
            .into_par_iter()
            .map(|q| {
                // One flat buffer of IQ feature rows per qubit, not two
                // allocations per shot.
                let mut flat = vec![0.0; train_indices.len() * width];
                for (row, &i) in flat.chunks_exact_mut(width).zip(train_indices) {
                    joint_baseband_iq(&demod, &mix[q], dataset.raw(i), row);
                }
                let features: Vec<&[f64]> = flat.chunks_exact(width).collect();
                let labels: Vec<usize> =
                    train_indices.iter().map(|&i| dataset.label(i, q)).collect();
                QubitMfBank::fit(&features, &labels, levels, include_emf, kind)
            })
            .collect();

        let banks = banks?;
        let fused = fuse_kernels(&demod, &banks, &mix);
        Some(Self {
            chip: config.clone(),
            demod,
            banks,
            joint_neighbors,
            mix,
            fused,
        })
    }

    /// Reassembles an extractor from a chip description and fitted banks —
    /// the deserialisation path of [`crate::SavedModel`]. The demodulator
    /// is derived data and is rebuilt from `chip`.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is empty or its length differs from the chip's
    /// qubit count.
    pub fn from_parts(chip: ChipConfig, banks: Vec<QubitMfBank>) -> Self {
        Self::from_parts_joint(chip, banks, 0)
    }

    /// [`FeatureExtractor::from_parts`] with the joint-kernel radius the
    /// banks were fitted with — the deserialisation path of joint models,
    /// where `joint_neighbors` travels in the envelope's spec and the mix
    /// table is derived data rebuilt from the chip's crosstalk matrix.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is empty or its length differs from the chip's
    /// qubit count.
    pub fn from_parts_joint(
        chip: ChipConfig,
        banks: Vec<QubitMfBank>,
        joint_neighbors: usize,
    ) -> Self {
        assert!(!banks.is_empty(), "no banks");
        assert_eq!(banks.len(), chip.n_qubits(), "bank count != qubit count");
        let demod = Demodulator::new(&chip);
        let mix = joint_mix(&chip, joint_neighbors);
        let fused = fuse_kernels(&demod, &banks, &mix);
        Self {
            chip,
            demod,
            banks,
            joint_neighbors,
            mix,
            fused,
        }
    }

    /// The chip description the extractor was fitted for.
    pub fn chip_config(&self) -> &ChipConfig {
        &self.chip
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.banks.len()
    }

    /// Spectral-neighbourhood radius of the joint crosstalk-aware kernels
    /// (0 = the classic per-qubit bank).
    pub fn joint_neighbors(&self) -> usize {
        self.joint_neighbors
    }

    /// Scores per qubit (9 for the full three-level bank).
    pub fn per_qubit_dim(&self) -> usize {
        self.banks.first().map_or(0, QubitMfBank::n_filters)
    }

    /// Total merged feature dimensionality (`per_qubit_dim × n_qubits`).
    pub fn feature_dim(&self) -> usize {
        self.banks.iter().map(QubitMfBank::n_filters).sum()
    }

    /// Borrows qubit `q`'s bank.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn bank(&self, q: usize) -> &QubitMfBank {
        &self.banks[q]
    }

    /// Readout-window length in samples — the trace length every
    /// extraction path expects.
    pub fn window_samples(&self) -> usize {
        self.demod.n_samples()
    }

    /// Clones the raw-domain fused kernel rows (interleaved `[w_I, w_Q]`
    /// per sample, in qubit-major score order) — the matched-filter bank
    /// the inference-plan compiler builds its op graph from.
    pub(crate) fn fused_rows(&self) -> Vec<Vec<f64>> {
        self.fused.iter().map(|k| k.w.clone()).collect()
    }

    /// Extracts the merged feature vector of one raw trace: demodulate each
    /// channel, score its bank, concatenate in qubit order.
    ///
    /// # Panics
    ///
    /// Panics if the trace is longer than the configured readout window.
    pub fn extract(&self, raw: &[Complex]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.feature_dim());
        for (q, bank) in self.banks.iter().enumerate() {
            let baseband = joint_baseband(&self.demod, &self.mix[q], raw);
            out.extend(bank.apply(&iq_features(&baseband)));
        }
        out
    }

    /// Extracts features for many dataset shots through the fused batch
    /// engine ([`FeatureExtractor::extract_batch_traces`]) — the fit-time
    /// and serve-time batch paths share one implementation, so training
    /// sees exactly the features batched inference produces.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn extract_batch(&self, dataset: &TraceDataset, indices: &[usize]) -> Vec<Vec<f64>> {
        let shots: Vec<&[Complex]> = indices.iter().map(|&i| dataset.raw(i)).collect();
        self.extract_batch_traces(&shots)
    }

    /// Extracts merged feature vectors for a batch of raw traces through
    /// the fused kernels: no per-shot demodulation, each trace flattened
    /// once, each 16-shot tile (`BATCH_TILE`) scored against every kernel
    /// in register blocks ([`mlr_nn::dot4_f64_tile`], bit-identical to the
    /// single-shot [`mlr_nn::dot4_f64`]), tiles fanned out over cores.
    ///
    /// Scores agree with the per-shot [`FeatureExtractor::extract`] path
    /// to floating-point reassociation (≈1e-13 relative); decisions
    /// downstream are identical.
    ///
    /// # Panics
    ///
    /// Panics if any trace's length differs from the readout window.
    pub fn extract_batch_traces(&self, shots: &[&[Complex]]) -> Vec<Vec<f64>> {
        let dim = self.feature_dim();
        let n_samples = self.demod.n_samples();
        let stride = 2 * n_samples;
        let tiles: Vec<&[&[Complex]]> = shots.chunks(BATCH_TILE).collect();
        let per_tile = crate::par_map(&tiles, |tile| {
            // Flatten the tile's traces once into a single contiguous
            // scratch (one allocation per tile, not per shot); every
            // kernel reuses it.
            let mut flat = vec![0.0f64; tile.len() * stride];
            for (dst, raw) in flat.chunks_exact_mut(stride).zip(tile.iter()) {
                assert_eq!(raw.len(), n_samples, "trace length != readout window");
                for (pair, z) in dst.chunks_exact_mut(2).zip(raw.iter()) {
                    pair[0] = z.re;
                    pair[1] = z.im;
                }
            }
            // Every (kernel, shot) pair of the tile in register blocks;
            // each score is `dot4_f64` of the pair, bit for bit.
            let kernels: Vec<&[f64]> = self.fused.iter().map(|k| k.w.as_slice()).collect();
            let flats: Vec<&[f64]> = flat.chunks_exact(stride).collect();
            let mut scores = vec![0.0; tile.len() * dim];
            mlr_nn::dot4_f64_tile(&kernels, &flats, &mut scores);
            scores
                .chunks_exact(dim)
                .map(<[f64]>::to_vec)
                .collect::<Vec<_>>()
        });
        per_tile.into_iter().flatten().collect()
    }

    /// Fused-path extraction of one raw trace — the single-shot view of
    /// [`FeatureExtractor::extract_batch_traces`] (identical arithmetic),
    /// exposed so streaming / deployment layers can share the
    /// demodulation-free path.
    ///
    /// # Panics
    ///
    /// Panics if the trace's length differs from the readout window.
    pub fn extract_fused(&self, raw: &[Complex]) -> Vec<f64> {
        assert_eq!(
            raw.len(),
            self.demod.n_samples(),
            "trace length != readout window"
        );
        let mut flat = Vec::new();
        flatten_iq(raw, &mut flat);
        self.fused
            .iter()
            .map(|kernel| mlr_nn::dot4_f64(&flat, &kernel.w))
            .collect()
    }

    /// Merged partial feature vector after only the first `n_samples` of a
    /// raw trace, scored against the full-length kernels — what a streaming
    /// accumulator holds mid-readout. At `n_samples == raw.len()` (full
    /// trace) this equals [`FeatureExtractor::extract`].
    ///
    /// # Panics
    ///
    /// Panics if `n_samples` exceeds the trace or the configured window.
    pub fn extract_prefix(&self, raw: &[Complex], n_samples: usize) -> Vec<f64> {
        assert!(n_samples <= raw.len(), "prefix longer than trace");
        let mut out = Vec::with_capacity(self.feature_dim());
        for (q, bank) in self.banks.iter().enumerate() {
            let baseband = joint_baseband(&self.demod, &self.mix[q], &raw[..n_samples]);
            out.extend(bank.apply_prefix(&baseband));
        }
        out
    }

    /// Extracts prefix features for many dataset shots in parallel.
    ///
    /// # Panics
    ///
    /// As for [`FeatureExtractor::extract_prefix`]; indices must be in
    /// range.
    pub fn extract_prefix_batch(
        &self,
        dataset: &TraceDataset,
        indices: &[usize],
        n_samples: usize,
    ) -> Vec<Vec<f64>> {
        indices
            .par_iter()
            .map(|&i| self.extract_prefix(dataset.raw(i), n_samples))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlr_sim::ChipConfig;

    fn small_dataset() -> TraceDataset {
        let mut c = ChipConfig::five_qubit_paper();
        c.n_samples = 60;
        // Boost leakage so every level is present with few shots.
        TraceDataset::generate(&c, 3, 6, 13)
    }

    #[test]
    fn joint_baseband_iq_matches_the_allocating_path_bit_for_bit() {
        let ds = small_dataset();
        let chip = ds.config();
        let demod = Demodulator::new(chip);
        // The identity recipe and a two-neighbour de-mixing recipe.
        for joint_neighbors in [0, 2] {
            let mix = joint_mix(chip, joint_neighbors);
            for (q, mix_q) in mix.iter().enumerate() {
                for i in [0, 7, ds.len() - 1] {
                    let raw = ds.raw(i);
                    let want = iq_features(&joint_baseband(&demod, mix_q, raw));
                    // Stale contents must not leak into the mixed sum.
                    let mut got = vec![f64::NAN; 2 * raw.len()];
                    joint_baseband_iq(&demod, mix_q, raw, &mut got);
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "q {q} shot {i} radius {joint_neighbors}"
                    );
                }
            }
        }
    }

    #[test]
    fn merged_feature_dimensions_match_paper() {
        let ds = small_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let fx = FeatureExtractor::fit(&ds, &all, true, MatchedFilterKind::VarianceSum)
            .expect("all levels present");
        assert_eq!(fx.n_qubits(), 5);
        assert_eq!(fx.per_qubit_dim(), 9);
        assert_eq!(fx.feature_dim(), 45);
        let f = fx.extract(ds.raw(0));
        assert_eq!(f.len(), 45);
    }

    #[test]
    fn herqules_variant_has_six_per_qubit() {
        let ds = small_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let fx = FeatureExtractor::fit(&ds, &all, false, MatchedFilterKind::VarianceSum).unwrap();
        assert_eq!(fx.per_qubit_dim(), 6);
        assert_eq!(fx.feature_dim(), 30);
    }

    #[test]
    fn batch_matches_single_extraction() {
        let ds = small_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let fx = FeatureExtractor::fit(&ds, &all, true, MatchedFilterKind::VarianceSum).unwrap();
        let batch = fx.extract_batch(&ds, &[0, 5, 10]);
        // The batch engine is bit-identical to the single-shot fused path…
        assert_eq!(batch[1], fx.extract_fused(ds.raw(5)));
        // …and agrees with the demodulate-then-score reference path to
        // floating-point reassociation.
        let reference = fx.extract(ds.raw(5));
        for (a, b) in batch[1].iter().zip(&reference) {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                "fused {a} vs reference {b}"
            );
        }
    }

    #[test]
    fn fused_tiles_are_independent_of_batch_size() {
        let ds = small_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let fx = FeatureExtractor::fit(&ds, &all, true, MatchedFilterKind::VarianceSum).unwrap();
        // A batch spanning several tiles must equal per-shot fused calls.
        let idxs: Vec<usize> = (0..40).collect();
        let batch = fx.extract_batch(&ds, &idxs);
        for (&i, row) in idxs.iter().zip(&batch) {
            assert_eq!(row, &fx.extract_fused(ds.raw(i)), "shot {i}");
        }
    }

    #[test]
    fn full_length_prefix_equals_extract() {
        let ds = small_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let fx = FeatureExtractor::fit(&ds, &all, true, MatchedFilterKind::VarianceSum).unwrap();
        let raw = ds.raw(2);
        let full = fx.extract(raw);
        let prefix = fx.extract_prefix(raw, raw.len());
        for (a, b) in full.iter().zip(&prefix) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        // Prefix features differ from full features mid-trace.
        let early = fx.extract_prefix(raw, raw.len() / 2);
        assert_ne!(early, full);
    }

    #[test]
    fn from_parts_rebuilds_a_working_extractor() {
        let ds = small_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let fx = FeatureExtractor::fit(&ds, &all, true, MatchedFilterKind::VarianceSum).unwrap();
        let banks: Vec<QubitMfBank> = (0..fx.n_qubits()).map(|q| fx.bank(q).clone()).collect();
        let rebuilt = FeatureExtractor::from_parts(fx.chip_config().clone(), banks);
        let raw = ds.raw(0);
        assert_eq!(fx.extract(raw), rebuilt.extract(raw));
    }

    #[test]
    #[should_panic(expected = "bank count != qubit count")]
    fn from_parts_checks_bank_count() {
        let ds = small_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let fx = FeatureExtractor::fit(&ds, &all, true, MatchedFilterKind::VarianceSum).unwrap();
        let _ = FeatureExtractor::from_parts(
            fx.chip_config().clone(),
            vec![fx.bank(0).clone()], // 1 bank for a 5-qubit chip
        );
    }

    #[test]
    fn features_separate_ground_from_leaked() {
        let ds = small_dataset();
        let all: Vec<usize> = (0..ds.len()).collect();
        let fx = FeatureExtractor::fit(&ds, &all, true, MatchedFilterKind::VarianceSum).unwrap();
        // QMF(0,2) score of qubit 0 (feature index 1 in its bank) should on
        // average be higher for |2...> than |0...> preparations.
        let roles = fx.bank(0).roles();
        let idx = roles
            .iter()
            .position(|r| *r == crate::FilterRole::Qubit(0, 2))
            .unwrap();
        let mean_score = |target: usize| -> f64 {
            let idxs: Vec<usize> = (0..ds.len())
                .filter(|&i| ds.label(i, 0) == target)
                .collect();
            let total: f64 = idxs.iter().map(|&i| fx.extract(ds.raw(i))[idx]).sum();
            total / idxs.len() as f64
        };
        assert!(mean_score(2) > mean_score(0));
    }
}
