//! Property-based tests on the workspace's core data structures and
//! numeric invariants.

use std::sync::OnceLock;

use proptest::prelude::*;

use mlr_core::{
    registry, AutoencoderConfig, DeployedConfig, DiscriminantKind, Discriminator,
    DiscriminatorSpec, FnnConfig, HerqulesConfig, HmmConfig, OursConfig, OursDiscriminator,
    StreamingConfig, TrainedModel,
};
use mlr_dsp::{Demodulator, MatchedFilter, MatchedFilterKind, StreamingDemodulator};
use mlr_linalg::Matrix;
use mlr_nn::{geometric_mean, FixedPointFormat, IntMlp, Mlp, QuantizedMlp, TrainConfig};
use mlr_num::{Complex, Welford};
use mlr_qec::{
    xor_support, Decoder as QecDecoder, DecoderKind, QecCycleTiming, StabilizerKind, SurfaceCode,
    UnionFindDecoder,
};
use mlr_sim::{
    basis_state_count, BasisState, ChipConfig, DatasetIoError, FeedlineSpec, TraceDataset,
};

/// Every registry family, fitted once through `registry::fit` on one
/// small two-qubit chip so the batch-equivalence and persistence
/// properties can range over all of them cheaply. `reloaded` holds each
/// model after one save→load round trip through the `SavedModel` v2
/// envelope.
struct DiscriminatorZoo {
    dataset: TraceDataset,
    models: Vec<TrainedModel>,
    reloaded: Vec<TrainedModel>,
    ours: OursDiscriminator,
}

/// One quickly-trainable spec per registry family (test-budget epochs).
fn zoo_specs() -> Vec<DiscriminatorSpec> {
    let quick = TrainConfig {
        epochs: 6,
        batch_size: 32,
        early_stop_patience: None,
        ..TrainConfig::default()
    };
    let quick_ours = OursConfig {
        train: quick.clone(),
        ..OursConfig::default()
    };
    vec![
        DiscriminatorSpec::Ours(quick_ours.clone()),
        DiscriminatorSpec::OursNoEmf(OursConfig {
            include_emf: false,
            ..quick_ours.clone()
        }),
        DiscriminatorSpec::Deployed(DeployedConfig {
            base: quick_ours.clone(),
            format: FixedPointFormat::HLS4ML_DEFAULT,
        }),
        DiscriminatorSpec::Streaming(StreamingConfig {
            checkpoints: vec![60, 120],
            confidence: 0.9,
            base: quick_ours,
        }),
        DiscriminatorSpec::Herqules(HerqulesConfig {
            train: quick.clone(),
            ..HerqulesConfig::default()
        }),
        DiscriminatorSpec::Fnn(FnnConfig {
            hidden: vec![24, 12],
            train: quick.clone(),
        }),
        DiscriminatorSpec::Discriminant(DiscriminantKind::Lda),
        DiscriminatorSpec::Discriminant(DiscriminantKind::Qda),
        DiscriminatorSpec::Hmm(HmmConfig::default()),
        DiscriminatorSpec::Autoencoder(AutoencoderConfig {
            ae_train: TrainConfig {
                epochs: 10,
                ..quick.clone()
            },
            head_train: TrainConfig {
                epochs: 10,
                ..quick
            },
            ..AutoencoderConfig::default()
        }),
    ]
}

fn zoo() -> &'static DiscriminatorZoo {
    static ZOO: OnceLock<DiscriminatorZoo> = OnceLock::new();
    ZOO.get_or_init(|| {
        let mut chip = ChipConfig::uniform(2);
        chip.n_samples = 120;
        let dataset = TraceDataset::generate(&chip, 3, 14, 23);
        let split = dataset.split(0.6, 0.1, 23);
        let models: Vec<TrainedModel> = zoo_specs()
            .iter()
            .map(|spec| registry::fit(spec, &dataset, &split, 23))
            .collect();
        let reloaded: Vec<TrainedModel> = models
            .iter()
            .map(|model| {
                let mut buf = Vec::new();
                model.save_json(&mut buf).expect("model serialises");
                registry::load_json(buf.as_slice()).expect("envelope loads")
            })
            .collect();
        let ours = models[0].as_ours().expect("OURS family").clone();
        DiscriminatorZoo {
            dataset,
            models,
            reloaded,
            ours,
        }
    })
}

/// Crosstalk-aware fixtures for the joint-kernel properties, fitted once:
/// three crowded feedlines of different density each carry a joint OURS
/// model, and a crosstalk-free line carries a `joint_neighbors = 0` /
/// `joint_neighbors = 2` pair per plan-capable OURS variant (on a β ≡ 0
/// chip the de-mix recipe prunes to the identity, so the pair must be
/// bit-identical).
struct JointZoo {
    /// `(dataset, joint OURS model)` per crowding config.
    crowded: Vec<(TraceDataset, TrainedModel)>,
    clean_ds: TraceDataset,
    /// `(radius-0 model, radius-2 model)` per OURS variant on the clean chip.
    clean_pairs: Vec<(TrainedModel, TrainedModel)>,
}

/// The plan-capable OURS variants that carry an [`OursConfig`] payload,
/// with the given joint radius at test-budget epochs.
fn ours_variant_specs(joint_neighbors: usize) -> Vec<DiscriminatorSpec> {
    let quick = TrainConfig {
        epochs: 6,
        batch_size: 32,
        early_stop_patience: None,
        ..TrainConfig::default()
    };
    let base = OursConfig {
        joint_neighbors,
        train: quick,
        ..OursConfig::default()
    };
    vec![
        DiscriminatorSpec::Ours(base.clone()),
        DiscriminatorSpec::OursNoEmf(OursConfig {
            include_emf: false,
            ..base.clone()
        }),
        DiscriminatorSpec::Deployed(DeployedConfig {
            base: base.clone(),
            format: FixedPointFormat::HLS4ML_DEFAULT,
        }),
        DiscriminatorSpec::Streaming(StreamingConfig {
            checkpoints: vec![60, 120],
            confidence: 0.9,
            base,
        }),
    ]
}

fn joint_zoo() -> &'static JointZoo {
    static ZOO: OnceLock<JointZoo> = OnceLock::new();
    ZOO.get_or_init(|| {
        // Dense tone grids at test scale: band shrunk so the Lorentzian
        // tails overlap hard even with 3-5 tones.
        let crowded = [
            (3usize, 36.0, 0.9, 1usize),
            (4, 40.0, 0.7, 2),
            (5, 45.0, 0.5, 2),
        ]
        .into_iter()
        .map(|(n, band_mhz, coupling, radius)| {
            let mut line = FeedlineSpec::crowded(n);
            line.band_mhz = band_mhz;
            line.coupling = coupling;
            line.n_samples = 120;
            let ds = TraceDataset::generate(&line.chip(), 3, 6, 31);
            let split = ds.split(0.6, 0.1, 31);
            let spec = DiscriminatorSpec::Ours(OursConfig {
                joint_neighbors: radius,
                train: TrainConfig {
                    epochs: 6,
                    batch_size: 32,
                    early_stop_patience: None,
                    ..TrainConfig::default()
                },
                ..OursConfig::default()
            });
            let model = registry::fit(&spec, &ds, &split, 31);
            (ds, model)
        })
        .collect();

        let mut clean_line = FeedlineSpec::crowded(3);
        clean_line.coupling = 0.0;
        clean_line.n_samples = 120;
        let clean_ds = TraceDataset::generate(&clean_line.chip(), 3, 6, 37);
        let split = clean_ds.split(0.6, 0.1, 37);
        let perq_specs = ours_variant_specs(0);
        let joint_specs = ours_variant_specs(2);
        let clean_pairs = perq_specs
            .iter()
            .zip(&joint_specs)
            .map(|(perq, joint)| {
                (
                    registry::fit(perq, &clean_ds, &split, 37),
                    registry::fit(joint, &clean_ds, &split, 37),
                )
            })
            .collect();
        JointZoo {
            crowded,
            clean_ds,
            clean_pairs,
        }
    })
}

/// QDA fixtures for the single-pass scorer property, fitted once: one
/// chip of each size from 1 to 6 qubits (odd sizes run the scorer's
/// padded lane), each with its QDA model fitted through the registry and
/// that model after a save→load round trip (`from_saved` rebuilds the
/// scorer's tables).
struct QdaZoo {
    /// `(dataset, fitted, reloaded)` per qubit count.
    chips: Vec<(TraceDataset, TrainedModel, TrainedModel)>,
}

/// Trace length of every [`QdaZoo`] chip.
const QDA_SAMPLES: usize = 150;

fn qda_zoo() -> &'static QdaZoo {
    static ZOO: OnceLock<QdaZoo> = OnceLock::new();
    ZOO.get_or_init(|| {
        let spec: DiscriminatorSpec = "QDA".parse().expect("registry design");
        let chips = (1..=6u32)
            .map(|n_qubits| {
                let mut chip = ChipConfig::uniform(n_qubits as usize);
                chip.n_samples = QDA_SAMPLES;
                // Every basis state at least once, ~60 shots in all.
                let shots_per_state = (60 / 3usize.pow(n_qubits)).max(1);
                let ds = TraceDataset::generate(&chip, 3, shots_per_state, 41);
                let split = ds.split(0.7, 0.0, 41);
                let model = registry::fit(&spec, &ds, &split, 41);
                let mut buf = Vec::new();
                model.save_json(&mut buf).expect("model serialises");
                let reloaded = registry::load_json(buf.as_slice()).expect("envelope loads");
                (ds, model, reloaded)
            })
            .collect();
        QdaZoo { chips }
    })
}

/// Whether two kernel results are the same to the bit, counting any two
/// NaNs as equal (a NaN's payload carries no verdict).
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Deterministic kernel inputs of one flavour: 0 plain, 1 with NaNs,
/// 2 with many signed zeros, 3 ReLU outputs (non-negative, many zeros).
fn kernel_data(n: usize, seed: u64, flavour: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 40) as f32 / (1u64 << 24) as f32;
            let v = 6.0 * u - 3.0;
            let pick = state % 8;
            match flavour {
                1 if pick == 0 => f32::NAN,
                2 if pick == 0 => -0.0,
                2 if pick < 3 => 0.0,
                3 => v.max(0.0),
                _ => v,
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn basis_state_flat_index_roundtrip(
        n_qubits in 1usize..8,
        levels in 2usize..4,
        seed in any::<u64>(),
    ) {
        let total = basis_state_count(n_qubits, levels);
        let index = (seed as usize) % total;
        let state = BasisState::from_flat_index(index, n_qubits, levels);
        prop_assert_eq!(state.flat_index(levels), index);
        prop_assert_eq!(state.n_qubits(), n_qubits);
    }

    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e3f64..1e3, 2..60)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / (xs.len() - 1) as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-9 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() < 1e-8 * (1.0 + var));
    }

    #[test]
    fn welford_merge_is_order_independent(
        a in prop::collection::vec(-50f64..50.0, 1..30),
        b in prop::collection::vec(-50f64..50.0, 1..30),
    ) {
        let mut wa = Welford::new();
        a.iter().for_each(|&x| wa.push(x));
        let mut wb = Welford::new();
        b.iter().for_each(|&x| wb.push(x));
        let mut ab = wa;
        ab.merge(&wb);
        let mut all = Welford::new();
        a.iter().chain(&b).for_each(|&x| all.push(x));
        prop_assert!((ab.mean() - all.mean()).abs() < 1e-9);
        prop_assert!((ab.variance() - all.variance()).abs() < 1e-8);
    }

    #[test]
    fn complex_multiplication_preserves_magnitude(
        r1 in 0.01f64..10.0, p1 in -std::f64::consts::PI..std::f64::consts::PI,
        r2 in 0.01f64..10.0, p2 in -std::f64::consts::PI..std::f64::consts::PI,
    ) {
        let a = Complex::from_polar(r1, p1);
        let b = Complex::from_polar(r2, p2);
        prop_assert!(((a * b).abs() - r1 * r2).abs() < 1e-9 * (1.0 + r1 * r2));
    }

    #[test]
    fn matched_filter_score_is_linear(
        xs in prop::collection::vec(-5f64..5.0, 4),
        k in 0.1f64..4.0,
    ) {
        // Fixed two-class fit, then check score linearity in the input.
        let c0 = [vec![0.0, 0.0, 0.0, 0.2], vec![0.2, -0.1, 0.1, 0.0]];
        let c1 = [vec![1.0, 1.1, 0.9, 1.0], vec![0.9, 1.0, 1.1, 0.8]];
        let mf = MatchedFilter::fit(
            c0.iter().map(|v| v.as_slice()),
            c1.iter().map(|v| v.as_slice()),
            MatchedFilterKind::VarianceSum,
        ).unwrap();
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        prop_assert!((mf.apply(&scaled) - k * mf.apply(&xs)).abs() < 1e-6 * (1.0 + mf.apply(&xs).abs() * k));
    }

    #[test]
    fn quantization_is_idempotent_and_bounded(
        x in -1e4f64..1e4,
        total in 4u32..24,
        int_frac in 1u32..8,
    ) {
        let int_bits = int_frac.min(total);
        let fmt = FixedPointFormat::new(total, int_bits);
        let q = fmt.quantize(x);
        prop_assert_eq!(fmt.quantize(q), q, "idempotent");
        prop_assert!(q <= fmt.max_value() + 1e-12);
        prop_assert!(q >= -(fmt.max_value() + fmt.resolution()) - 1e-12);
        // Within half an LSB when in range.
        if x.abs() < fmt.max_value() {
            prop_assert!((q - x).abs() <= fmt.resolution() / 2.0 + 1e-12);
        }
    }

    #[test]
    fn lu_solve_has_small_residual(
        seed in prop::collection::vec(-1f64..1.0, 9),
        rhs in prop::collection::vec(-10f64..10.0, 3),
    ) {
        // Diagonally dominant 3x3 built from the seed: always solvable.
        let a = Matrix::from_fn(3, 3, |i, j| {
            let v = seed[i * 3 + j];
            if i == j { 5.0 + v } else { v }
        });
        let lu = a.lu().expect("diagonally dominant");
        let x = lu.solve(&rhs);
        let ax = a.mul_vec(&x);
        for (l, r) in ax.iter().zip(&rhs) {
            prop_assert!((l - r).abs() < 1e-8);
        }
    }

    #[test]
    fn jacobi_eigen_reconstructs_random_symmetric(
        seed in prop::collection::vec(-2f64..2.0, 10),
    ) {
        // Build a symmetric 4x4 from 10 free entries.
        let mut m = Matrix::zeros(4, 4);
        let mut it = seed.iter();
        for i in 0..4 {
            for j in i..4 {
                let v = *it.next().unwrap();
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        let eig = m.symmetric_eigen();
        let v = &eig.vectors;
        let rec = &(v * &Matrix::from_diag(&eig.values)) * &v.transpose();
        prop_assert!((&rec - &m).max_abs() < 1e-8);
        // Ascending eigenvalues.
        for w in eig.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn geometric_mean_bounded_by_extremes(
        fs in prop::collection::vec(0.01f64..1.0, 1..8),
    ) {
        let g = geometric_mean(&fs);
        let min = fs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fs.iter().cloned().fold(0.0, f64::max);
        prop_assert!(g >= min - 1e-12 && g <= max + 1e-12);
    }

    #[test]
    fn cycle_reduction_matches_measurement_share(meas in 100f64..2000.0, saving in 0f64..100.0) {
        let base = QecCycleTiming::versluis_surface17(meas);
        let fast = QecCycleTiming::versluis_surface17(meas - saving);
        let r = base.relative_reduction(&fast);
        prop_assert!((r - saving / base.cycle_ns()).abs() < 1e-12);
        prop_assert!((0.0..1.0).contains(&r));
    }

    #[test]
    fn decoder_corrections_always_annihilate_the_syndrome(
        raw in prop::collection::vec(0usize..25, 0..25),
        sector_bit in any::<bool>(),
    ) {
        // Validity, independent of logical success: whatever error pattern
        // a decoder is shown, the proposed correction must produce the
        // same syndrome — the residual is then an undetectable chain, a
        // stabilizer or at worst a logical, never a leftover defect.
        let code = SurfaceCode::rotated(5);
        let sector = if sector_bit { StabilizerKind::Z } else { StabilizerKind::X };
        let mut error = raw.clone();
        error.sort_unstable();
        error.dedup();
        for kind in [DecoderKind::Greedy, DecoderKind::UnionFind] {
            let decoder = kind.build(&code, sector);
            let syndrome = decoder.syndrome_of(&error);
            let correction = decoder.decode(&syndrome);
            let residual = xor_support(&error, &correction);
            prop_assert!(
                decoder.syndrome_of(&residual).iter().all(|&s| !s),
                "{} left a residual syndrome for {:?}", kind, error
            );
        }
    }

    #[test]
    fn erased_only_errors_are_always_corrected(
        raw in prop::collection::vec(0usize..25, 1..5),
        mask in any::<u64>(),
        sector_bit in any::<bool>(),
    ) {
        // Leakage heralds as erasures: when every actual error sits on an
        // erased qubit and the erased set is lighter than the distance (so
        // it cannot hide a logical operator), `decode_with_erasures` must
        // recover exactly — no residual syndrome, no logical fault.
        let code = SurfaceCode::rotated(5);
        let sector = if sector_bit { StabilizerKind::Z } else { StabilizerKind::X };
        let decoder = UnionFindDecoder::new(&code, sector);
        let mut erased = raw.clone();
        erased.sort_unstable();
        erased.dedup();
        let error: Vec<usize> = erased
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &q)| q)
            .collect();
        let syndrome = QecDecoder::syndrome_of(&decoder, &error);
        let correction = decoder.decode_with_erasures(&syndrome, &erased);
        let residual = xor_support(&error, &correction);
        prop_assert!(
            QecDecoder::syndrome_of(&decoder, &residual).iter().all(|&s| !s),
            "residual syndrome for error {:?} erased {:?}", error, erased
        );
        prop_assert!(
            !decoder.is_logical_error(&residual),
            "logical fault for erased-only error {:?} erased {:?}", error, erased
        );
    }

    #[test]
    fn integer_datapath_matches_float_quantisation_model(
        seed in any::<u64>(),
        hidden in 1usize..24,
        n_in in 1usize..16,
        n_out in 2usize..6,
        total_bits in 8u32..20,
        int_bits in 4u32..8,
        xs in prop::collection::vec(-4f32..4.0, 16),
    ) {
        // The headline IntMlp property: bit-identical to QuantizedMlp for
        // any topology, format, and input.
        let fmt = FixedPointFormat::new(total_bits, int_bits.min(total_bits));
        let mlp = Mlp::new(&[n_in, hidden, n_out], seed);
        let imlp = IntMlp::from_mlp(&mlp, fmt);
        let qmlp = QuantizedMlp::from_mlp(&mlp, fmt);
        let x = &xs[..n_in];
        prop_assert_eq!(imlp.forward(x), qmlp.forward(x));
        prop_assert_eq!(imlp.predict(x), qmlp.predict(x));
    }

    #[test]
    fn iq_prefix_score_completes_to_full_apply(
        trace in prop::collection::vec((-3f64..3.0, -3f64..3.0), 8..32),
        split_at in 0usize..8,
    ) {
        // A matched filter fitted at the trace length scores a full-length
        // prefix identically to the batch feature path.
        let traces: Vec<Vec<Complex>> = vec![
            trace.iter().map(|&(re, im)| Complex::new(re, im)).collect(),
        ];
        let full: &[Complex] = &traces[0];
        let c0: Vec<Vec<f64>> = vec![vec![0.0; 2 * full.len()], vec![0.1; 2 * full.len()]];
        let c1: Vec<Vec<f64>> = vec![vec![1.0; 2 * full.len()], vec![0.9; 2 * full.len()]];
        let mf = MatchedFilter::fit(
            c0.iter().map(|v| v.as_slice()),
            c1.iter().map(|v| v.as_slice()),
            MatchedFilterKind::VarianceSum,
        ).expect("both classes populated");
        let batch = mf.apply(&mlr_dsp::iq_features(full));
        let via_prefix = mf.apply_iq_prefix(full);
        prop_assert!((batch - via_prefix).abs() < 1e-9 * (1.0 + batch.abs()));
        // Prefix scores accumulate monotonically in information: a prefix
        // is the partial sum of per-sample contributions.
        let k = split_at.min(full.len());
        let head = mf.apply_iq_prefix(&full[..k]);
        let tail: f64 = (k..full.len())
            .map(|t| {
                let l = mf.kernel().len() / 2;
                mf.kernel()[t] * full[t].re + mf.kernel()[l + t] * full[t].im
            })
            .sum();
        prop_assert!((head + tail - via_prefix).abs() < 1e-9 * (1.0 + via_prefix.abs()));
    }

    #[test]
    fn streaming_demod_matches_batch_tables(
        samples in prop::collection::vec((-2f64..2.0, -2f64..2.0), 1..120),
        n_qubits in 1usize..4,
    ) {
        let mut chip = ChipConfig::uniform(n_qubits);
        chip.n_samples = 120;
        let batch = Demodulator::new(&chip);
        let mut stream = StreamingDemodulator::new(&chip);
        let raw: Vec<Complex> = samples
            .iter()
            .map(|&(re, im)| Complex::new(re, im))
            .collect();
        let reference: Vec<Vec<Complex>> = (0..n_qubits)
            .map(|q| batch.demodulate(&raw, q))
            .collect();
        for (t, &z) in raw.iter().enumerate() {
            let bb = stream.push(z).to_vec();
            for q in 0..n_qubits {
                prop_assert!((bb[q] - reference[q][t]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn binary_dataset_roundtrip_is_bit_exact(
        n_qubits in 1usize..4,
        n_samples in 10usize..40,
        shots_per_state in 1usize..3,
        seed in any::<u64>(),
        natural in any::<bool>(),
        window_frac in 0.3f64..1.0,
    ) {
        // save_bin -> load_bin must preserve traces, labels, transition
        // events and the chip config bit-exactly, for both generation
        // methodologies and for window-truncated datasets.
        let mut chip = ChipConfig::uniform(n_qubits);
        chip.n_samples = n_samples;
        let ds = if natural {
            TraceDataset::generate_natural(&chip, shots_per_state, seed)
        } else {
            TraceDataset::generate(&chip, 3, shots_per_state, seed)
        };
        let window = ((n_samples as f64 * window_frac) as usize).max(1);
        let ds = ds.truncated(window);

        let mut buf = Vec::new();
        ds.save_bin(&mut buf).unwrap();
        let back = TraceDataset::load_bin(buf.as_slice()).unwrap();

        prop_assert_eq!(back.store(), ds.store());
        prop_assert_eq!(back.config(), ds.config());
        prop_assert_eq!(back.levels(), ds.levels());
        prop_assert_eq!(back.label_source(), ds.label_source());
        for i in 0..ds.len() {
            prop_assert_eq!(back.raw(i), ds.raw(i));
            prop_assert_eq!(back.events(i), ds.events(i));
            for q in 0..n_qubits {
                prop_assert_eq!(back.label(i, q), ds.label(i, q));
            }
        }
    }

    #[test]
    fn corrupted_dataset_headers_are_typed_errors(
        flip_byte in 0usize..80,
        flip_bit in 0u32..8,
    ) {
        // Any single-bit corruption of the fixed header (magic, version,
        // config hash, and every count field) must surface as a typed
        // DatasetIoError, never a panic, an OOM abort, or a silently
        // wrong dataset.
        let mut chip = ChipConfig::uniform(1);
        chip.n_samples = 12;
        let ds = TraceDataset::generate(&chip, 2, 1, 7);
        let mut buf = Vec::new();
        ds.save_bin(&mut buf).unwrap();
        buf[flip_byte] ^= 1u8 << flip_bit;
        match TraceDataset::load_bin(buf.as_slice()) {
            Ok(back) => {
                // The flip may cancel inside unused hash bits only if the
                // payload still validates; then it must equal the original.
                prop_assert_eq!(back.store(), ds.store());
            }
            Err(
                DatasetIoError::BadMagic
                | DatasetIoError::UnsupportedVersion(_)
                | DatasetIoError::Corrupt(_)
                | DatasetIoError::Io(_),
            ) => {}
        }
    }

    #[test]
    fn predict_batch_equals_mapped_predict_shot(
        picks in prop::collection::vec(any::<u64>(), 1..20),
    ) {
        // The batch-first engine's contract: for EVERY discriminator
        // family, one predict_batch call decides exactly what a
        // predict_shot loop decides, shot for shot, in order.
        let zoo = zoo();
        let n = zoo.dataset.len();
        let shots: Vec<&[Complex]> = picks
            .iter()
            .map(|&p| zoo.dataset.raw((p as usize) % n))
            .collect();
        for disc in &zoo.models {
            let batch = disc.predict_batch(&shots);
            let mapped: Vec<Vec<usize>> =
                shots.iter().map(|raw| disc.predict_shot(raw)).collect();
            prop_assert_eq!(&batch, &mapped, "design {}", disc.name());
        }
    }

    #[test]
    fn saved_models_reload_with_bit_identical_batch_predictions(
        picks in prop::collection::vec(any::<u64>(), 1..20),
    ) {
        // The registry's persistence contract: for EVERY family, a
        // spec→fit→save→load round trip predicts exactly what the fitted
        // model predicts, shot for shot (`reloaded` went through the
        // SavedModel v2 envelope once at zoo construction).
        let zoo = zoo();
        let n = zoo.dataset.len();
        let shots: Vec<&[Complex]> = picks
            .iter()
            .map(|&p| zoo.dataset.raw((p as usize) % n))
            .collect();
        for (model, reloaded) in zoo.models.iter().zip(&zoo.reloaded) {
            prop_assert_eq!(reloaded.spec(), model.spec());
            prop_assert_eq!(
                &model.predict_batch(&shots),
                &reloaded.predict_batch(&shots),
                "design {}",
                model.name()
            );
        }
    }

    #[test]
    fn engine_sessions_match_direct_batch_for_any_submission_order(
        order_seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        // The serving layer's contract: micro-batched session verdicts
        // equal a direct predict_batch call whatever the submission
        // order and thread count.
        let zoo = zoo();
        let n = zoo.dataset.len();
        let all: Vec<usize> = (0..n).collect();
        let shots: Vec<&[Complex]> = all.iter().map(|&i| zoo.dataset.raw(i)).collect();
        let model = &zoo.models[0]; // OURS
        let expected = model.predict_batch(&shots);

        // A seed-keyed shuffle of the submission order.
        let mut order = all.clone();
        let mut state = order_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }

        let engine = mlr_core::ReadoutEngine::new(
            Box::new(model.clone()),
            mlr_core::EngineConfig {
                max_batch: 5, // unaligned with the shot count on purpose
                ..mlr_core::EngineConfig::default()
            },
        );
        let verdicts: Vec<(usize, Vec<usize>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = order
                .chunks(order.len().div_ceil(threads))
                .map(|chunk| {
                    let session = engine.session();
                    let dataset = &zoo.dataset;
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|&i| (i, session.submit(dataset.raw(i))))
                            .collect::<Vec<_>>()
                            .into_iter()
                            .map(|(i, t)| (i, t.wait()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("submitter thread"))
                .collect()
        });
        for (i, verdict) in verdicts {
            prop_assert_eq!(&verdict, &expected[i], "shot {}", i);
        }
    }

    #[test]
    fn fleet_sessions_match_direct_batch_across_models(
        order_seed in any::<u64>(),
        threads in 1usize..4,
    ) {
        // The multi-tenant serving contract: whatever the interleaving of
        // sessions across models and threads, every fleet verdict equals
        // the owning model's direct predict_batch decision — tenants never
        // bleed into each other's queues.
        let zoo = zoo();
        let n = zoo.dataset.len();
        let tenants = [6usize, 7, 8]; // LDA, QDA, HMM: cheap inference
        let shots: Vec<&[Complex]> = (0..n).map(|i| zoo.dataset.raw(i)).collect();
        let expected: Vec<Vec<Vec<usize>>> = tenants
            .iter()
            .map(|&t| zoo.models[t].predict_batch(&shots))
            .collect();

        let fleet = mlr_core::FleetEngine::new(mlr_core::FleetConfig {
            engine: mlr_core::EngineConfig {
                max_batch: 5, // unaligned with the shot count on purpose
                ..mlr_core::EngineConfig::default()
            },
            max_models: tenants.len(),
            ..mlr_core::FleetConfig::default()
        });
        for (k, &t) in tenants.iter().enumerate() {
            fleet
                .register(k as u64, Box::new(zoo.models[t].clone()))
                .expect("register tenant");
        }

        // A seed-keyed shuffle of every (tenant, shot) pair.
        let mut work: Vec<(usize, usize)> = (0..tenants.len())
            .flat_map(|m| (0..n).map(move |i| (m, i)))
            .collect();
        let mut state = order_seed | 1;
        for i in (1..work.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            work.swap(i, (state >> 33) as usize % (i + 1));
        }

        let verdicts: Vec<(usize, usize, Vec<usize>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = work
                .chunks(work.len().div_ceil(threads))
                .map(|chunk| {
                    let fleet = &fleet;
                    let dataset = &zoo.dataset;
                    scope.spawn(move || {
                        // One session per tenant per thread, each in a
                        // different QoS lane — interleavings cross lanes too.
                        let sessions: Vec<mlr_core::Session> = (0..tenants.len())
                            .map(|m| {
                                fleet
                                    .session_by_fingerprint(
                                        m as u64,
                                        mlr_core::Qos::ALL[m % mlr_core::Qos::CLASSES],
                                    )
                                    .expect("registered tenant")
                            })
                            .collect();
                        chunk
                            .iter()
                            .map(|&(m, i)| (m, i, sessions[m].submit(dataset.raw(i))))
                            .collect::<Vec<_>>()
                            .into_iter()
                            .map(|(m, i, t)| (m, i, t.wait()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("submitter thread"))
                .collect()
        });
        for (m, i, verdict) in verdicts {
            prop_assert_eq!(&verdict, &expected[m][i], "tenant {} shot {}", m, i);
        }
    }

    #[test]
    fn vectored_windows_match_scalar_and_direct_across_pool_sizes(
        order_seed in any::<u64>(),
        workers in 1usize..4,
        max_window in 1usize..9,
    ) {
        // The vectored serving contract: slicing a tenant's shots into
        // arbitrary windows (submit_all), interleaved with scalar submits,
        // across 1-3 shared pool threads and every QoS lane, yields
        // verdicts bit-identical to the owning model's direct
        // predict_batch — windowing only changes when shots are grouped,
        // never the decision.
        let zoo = zoo();
        let n = zoo.dataset.len();
        let tenants = [6usize, 7, 8]; // LDA, QDA, HMM: cheap inference
        let shots: Vec<&[Complex]> = (0..n).map(|i| zoo.dataset.raw(i)).collect();
        let expected: Vec<Vec<Vec<usize>>> = tenants
            .iter()
            .map(|&t| zoo.models[t].predict_batch(&shots))
            .collect();

        let fleet = mlr_core::FleetEngine::new(mlr_core::FleetConfig {
            engine: mlr_core::EngineConfig {
                max_batch: 5, // unaligned with the window sizes on purpose
                ..mlr_core::EngineConfig::default()
            },
            max_models: tenants.len(),
            workers,
            ..mlr_core::FleetConfig::default()
        });
        for (k, &t) in tenants.iter().enumerate() {
            fleet
                .register(k as u64, Box::new(zoo.models[t].clone()))
                .expect("register tenant");
        }

        let results: Vec<(usize, usize, Vec<usize>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..tenants.len())
                .map(|m| {
                    let fleet = &fleet;
                    let dataset = &zoo.dataset;
                    scope.spawn(move || {
                        let session = fleet
                            .session_by_fingerprint(
                                m as u64,
                                mlr_core::Qos::ALL[m % mlr_core::Qos::CLASSES],
                            )
                            .expect("registered tenant");
                        // Tenant-keyed shot order, sliced into seed-sized
                        // windows that alternate vectored/scalar.
                        let mut order: Vec<usize> = (0..n).collect();
                        let mut state = order_seed.wrapping_add(m as u64) | 1;
                        for i in (1..order.len()).rev() {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            order.swap(i, (state >> 33) as usize % (i + 1));
                        }
                        let mut windows: Vec<(&[usize], mlr_core::BatchTicket)> = Vec::new();
                        let mut scalars: Vec<(usize, mlr_core::Ticket)> = Vec::new();
                        let mut cursor = 0usize;
                        let mut vectored = true;
                        while cursor < n {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let take =
                                1 + (state >> 33) as usize % max_window.min(n - cursor);
                            let idx = &order[cursor..cursor + take];
                            if vectored {
                                let window: Vec<&[Complex]> =
                                    idx.iter().map(|&i| dataset.raw(i)).collect();
                                windows.push((idx, session.submit_all(&window)));
                            } else {
                                for &i in idx {
                                    scalars.push((i, session.submit(dataset.raw(i))));
                                }
                            }
                            vectored = !vectored;
                            cursor += take;
                        }
                        let mut out = Vec::with_capacity(n);
                        for (idx, ticket) in windows {
                            for (&i, v) in idx.iter().zip(ticket.wait()) {
                                out.push((m, i, v));
                            }
                        }
                        for (i, ticket) in scalars {
                            out.push((m, i, ticket.wait()));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("tenant thread"))
                .collect()
        });
        prop_assert_eq!(results.len(), tenants.len() * n, "every shot resolves");
        for (m, i, verdict) in results {
            prop_assert_eq!(&verdict, &expected[m][i], "tenant {} shot {}", m, i);
        }
    }

    #[test]
    fn quantized_batch_equals_mapped_quantized_path(
        picks in prop::collection::vec(any::<u64>(), 1..12),
        total_bits in 6u32..17,
    ) {
        // The quantised inference path must satisfy the same batch
        // contract: quantise-once batching equals per-shot re-quantised
        // decisions for any word width.
        let zoo = zoo();
        let n = zoo.dataset.len();
        let fmt = FixedPointFormat::new(total_bits, 4.min(total_bits));
        let features: Vec<Vec<f64>> = picks
            .iter()
            .map(|&p| {
                zoo.ours
                    .extractor()
                    .extract_fused(zoo.dataset.raw((p as usize) % n))
            })
            .collect();
        let batch = zoo.ours.predict_features_quantized_batch(&features, fmt);
        let mapped: Vec<Vec<usize>> = features
            .iter()
            .map(|f| zoo.ours.predict_features_quantized(f, fmt))
            .collect();
        prop_assert_eq!(batch, mapped);
    }

    #[test]
    fn softmax_probabilities_are_a_distribution(
        seed in any::<u64>(),
        xs in prop::collection::vec(-10f32..10.0, 5),
    ) {
        let mlp = Mlp::new(&[5, 7, 4], seed);
        let p = mlp.predict_proba(&xs);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-5);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // predict() agrees with the argmax of the distribution (ties
        // resolve to the lowest index, hence the strictly-greater fold).
        let argmax = p
            .iter()
            .enumerate()
            .fold((0usize, f32::NEG_INFINITY), |acc, (i, &v)| {
                if v > acc.1 { (i, v) } else { acc }
            })
            .0;
        prop_assert_eq!(mlp.predict(&xs), argmax);
    }

    #[test]
    fn fused_plans_decide_exactly_like_the_layered_path(
        picks in prop::collection::vec(any::<u64>(), 1..16),
    ) {
        // The plan compiler's headline contract: every family served
        // through a compiled single-pass plan (OURS, OURS-NO-EMF,
        // OURS-INT, OURS-STREAM, HERQULES, FNN, LDA, AE) decides exactly
        // what its original layered stages decide, shot for shot. The zoo
        // ranges over all ten registry families; `has_plan()` selects the
        // eight that lower.
        let zoo = zoo();
        let n = zoo.dataset.len();
        let shots: Vec<&[Complex]> = picks
            .iter()
            .map(|&p| zoo.dataset.raw((p as usize) % n))
            .collect();
        for model in zoo.models.iter().filter(|m| m.has_plan()) {
            prop_assert_eq!(
                &model.predict_batch(&shots),
                &model.predict_batch_layered(&shots),
                "design {}",
                model.name()
            );
        }
    }

    #[test]
    fn qda_scorer_matches_the_layered_reference_bit_for_bit(
        pick in any::<u64>(),
        window in 0usize..4,
        specials in prop::collection::vec((any::<u64>(), 0usize..5, any::<bool>()), 0..6),
    ) {
        // QDA serves through the f64 single-pass scorer (one walk over the
        // trace for every tone, class constants precomputed). On every
        // chip size, window length (empty, one sample, truncated, full),
        // non-finite and signed-zero sample, scorer kernel (scalar mirror,
        // AVX2 path, dispatch) and on both the fitted and the reloaded
        // model, its per-class f64 scores must equal the layered Gaussian
        // discriminant to the bit (any NaN matches any NaN) and its
        // verdicts must equal the layered path's.
        let mut kernels: Vec<(&str, mlr_nn::CmulSumFn)> = vec![
            ("dispatch", mlr_nn::cmul_sum_f64),
            ("scalar", mlr_nn::cmul_sum_f64_scalar),
        ];
        #[cfg(target_arch = "x86_64")]
        if mlr_nn::simd_active() {
            kernels.push(("avx2", mlr_nn::cmul_sum_f64_avx2));
        }
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        for (ds, fitted, reloaded) in &qda_zoo().chips {
            let len = [0, 1, 137, QDA_SAMPLES][window];
            let mut raw = ds.raw((pick as usize) % ds.len())[..len].to_vec();
            for &(at, value, im) in &specials {
                if let Some(z) = raw.get_mut((at as usize) % len.max(1)) {
                    *if im { &mut z.im } else { &mut z.re } = values[value];
                }
            }
            let shots: Vec<&[Complex]> = vec![&raw];
            for model in [fitted, reloaded] {
                let qda = model.as_discriminant().expect("QDA family");
                prop_assert!(!model.has_plan());
                let layered = qda.predict_shot_layered(&raw);
                let want = qda.class_scores_layered(&raw);
                for (name, kernel) in &kernels {
                    let got = qda.scores_with(&raw, *kernel).expect("QDA scorer");
                    prop_assert_eq!(got.len(), want.len());
                    for (q, (gq, wq)) in got.iter().zip(&want).enumerate() {
                        prop_assert_eq!(gq.len(), wq.len());
                        for (c, (&g, &w)) in gq.iter().zip(wq).enumerate() {
                            prop_assert!(
                                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                                "{} {} qubits, window {}, qubit {} class {}: {} vs {}",
                                name, qda.n_qubits(), len, q, c, g, w
                            );
                        }
                    }
                    prop_assert_eq!(
                        qda.predict_shot_with(&raw, *kernel).expect("QDA scorer"),
                        layered.clone(),
                        "{} {} qubits, window {}", name, qda.n_qubits(), len
                    );
                }
                prop_assert_eq!(model.predict_shot(&raw), layered.clone());
                prop_assert_eq!(model.predict_batch(&shots), vec![layered]);
            }
        }
    }

    #[test]
    fn joint_radius_zero_is_bit_identical_to_the_per_qubit_bank(
        picks in prop::collection::vec(any::<u64>(), 1..16),
    ) {
        // On a crosstalk-free line the joint de-mix recipe prunes every
        // β == 0 neighbour and collapses to the identity, so a widened
        // radius must change NOTHING: for every plan-capable OURS variant
        // (OURS, OURS-NO-EMF, OURS-INT, OURS-STREAM) the radius-0 and
        // radius-2 fits decide bit-identically, fused and layered both.
        let zoo = joint_zoo();
        let n = zoo.clean_ds.len();
        let shots: Vec<&[Complex]> = picks
            .iter()
            .map(|&p| zoo.clean_ds.raw((p as usize) % n))
            .collect();
        for (perq, joint) in &zoo.clean_pairs {
            prop_assert_eq!(
                &perq.predict_batch(&shots),
                &joint.predict_batch(&shots),
                "fused, design {}",
                perq.name()
            );
            prop_assert_eq!(
                &perq.predict_batch_layered(&shots),
                &joint.predict_batch_layered(&shots),
                "layered, design {}",
                perq.name()
            );
        }
    }

    #[test]
    fn joint_plans_decide_exactly_like_the_layered_joint_path(
        picks in prop::collection::vec(any::<u64>(), 1..16),
    ) {
        // Joint kernels reach the plan compiler as ordinary widened rows
        // (the lowering derives each row's span from the data), so the
        // fused single-pass plan must reproduce the layered
        // de-mix → bank → head path label-for-label across crowding
        // densities and joint radii.
        let zoo = joint_zoo();
        for (ds, model) in &zoo.crowded {
            let n = ds.len();
            let shots: Vec<&[Complex]> = picks
                .iter()
                .map(|&p| ds.raw((p as usize) % n))
                .collect();
            prop_assert_eq!(
                &model.predict_batch(&shots),
                &model.predict_batch_layered(&shots),
                "{} tones",
                ds.config().n_qubits()
            );
        }
    }

    #[test]
    fn plan_logits_track_layered_logits(pick in any::<u64>()) {
        // Folding the standardizer into downstream weights and lowering
        // to f32 must not move any score by more than float-precision
        // noise: every plan of every plan family (each OURS-STREAM
        // checkpoint's included) against `plan::eval` on the unfused
        // graph it was compiled from. Float heads get a 1e-4 relative
        // budget; the integer family additionally tolerates a few
        // fixed-point LSBs, since a folded-vs-unfolded standardize
        // difference can flip one quantisation bucket at the head's
        // input.
        let zoo = zoo();
        let raw = zoo.dataset.raw((pick as usize) % zoo.dataset.len());
        let mut families = 0;
        for model in &zoo.models {
            let extra = model
                .as_deployed()
                .map_or(0.0, |d| 4.0 * d.format().resolution() as f32);
            let (plans, graphs) = (model.plans(), model.graphs());
            prop_assert_eq!(plans.len(), graphs.len(), "graph count, {}", model.name());
            families += usize::from(!plans.is_empty());
            for (ci, (plan, graph)) in plans.iter().zip(&graphs).enumerate() {
                let raw = &raw[..plan.n_samples()];
                let fused = plan.logits_shot(raw);
                let reference = mlr_core::plan::eval(graph, raw).logits;
                let name = format!("{} plan {ci}", model.name());
                prop_assert_eq!(fused.len(), reference.len(), "branch count, {}", name);
                for (f, l) in fused.iter().zip(&reference) {
                    prop_assert_eq!(f.len(), l.len(), "logit count, {}", name);
                    for (a, b) in f.iter().zip(l) {
                        prop_assert!(
                            (a - b).abs() <= 1e-4 * (1.0 + b.abs()) + extra,
                            "{}: fused logit {} vs reference {}",
                            name, a, b
                        );
                    }
                }
            }
        }
        prop_assert_eq!(families, 8, "plan families in the zoo");
    }

    #[test]
    fn fused_argmax_tie_breaking_matches_mlp_predict(
        seed in any::<u64>(),
        n_samples in 2usize..6,
        k in 2usize..5,
        raw_parts in prop::collection::vec((-2f64..2.0, -2f64..2.0), 8),
    ) {
        // Duplicating every output row of a linear head manufactures
        // exact logit ties between index i and i + k. The plan's
        // running (max, index) fold must resolve them the way
        // `Mlp::predict` does — strictly-greater fold, ties→lowest — so
        // the winner always sits below the duplicate block.
        use mlr_core::plan::{Branch, DenseOp, MfBankOp, Op, OpGraph, OutputStage};
        let d = 2 * n_samples;
        let mlp = Mlp::new(&[d, k], seed);
        let head = DenseOp::from_mlp_layer(&mlp, 0);
        let mut w = head.w.clone();
        w.extend_from_slice(&head.w);
        let mut b = head.b.clone();
        b.extend_from_slice(&head.b);
        let doubled = DenseOp { n_in: d, n_out: 2 * k, w, b, relu: false };
        // Identity bank: features are exactly the flattened [re, im, …]
        // trace, so the head sees the same input the reference Mlp sees.
        let rows: Vec<Vec<f64>> = (0..d)
            .map(|i| {
                let mut row = vec![0.0; d];
                row[i] = 1.0;
                row
            })
            .collect();
        let graph = OpGraph {
            trunk: vec![
                Op::FlattenIq { n_samples },
                Op::MfBank(MfBankOp { rows, bias: vec![0.0; d], relu: false }),
            ],
            output: OutputStage::PerQubit {
                branches: vec![Branch { take: None, layers: vec![doubled] }],
            },
        };
        let plan = mlr_core::plan::compile(graph);
        let raw: Vec<Complex> = raw_parts[..n_samples]
            .iter()
            .map(|&(re, im)| Complex::new(re, im))
            .collect();
        let feats: Vec<f32> = raw
            .iter()
            .flat_map(|z| [z.re as f32, z.im as f32])
            .collect();
        let picked = plan.predict_shot(&raw)[0];
        prop_assert!(picked < k, "tie resolved into the duplicate block: {}", picked);
        prop_assert_eq!(picked, mlp.predict(&feats));
    }

    #[test]
    fn dot_f32_simd_agrees_bitwise_with_scalar(
        xs in prop::collection::vec(-8f32..8.0, 0..200),
        ys in prop::collection::vec(-8f32..8.0, 0..200),
    ) {
        // The AVX2 kernel mirrors the scalar fallback's reduction tree
        // exactly (8 lanes x 4 accumulators, pairwise folds, sequential
        // remainder), so the two must agree to the bit — any drift means
        // plan scores would depend on the deploy machine.
        let n = xs.len().min(ys.len());
        let (a, b) = (&xs[..n], &ys[..n]);
        let scalar = mlr_core::plan::dot_f32_scalar(a, b);
        prop_assert_eq!(mlr_core::plan::dot_f32(a, b).to_bits(), scalar.to_bits());
        #[cfg(target_arch = "x86_64")]
        if mlr_core::plan::simd_active() {
            prop_assert_eq!(
                mlr_core::plan::dot_f32_avx2(a, b).to_bits(),
                scalar.to_bits()
            );
        }
    }

    #[test]
    fn tile_kernels_match_the_single_pair_dot_bit_for_bit(
        len_pick in 0usize..10,
        n_rows in 1usize..18,
        n_shots in 1usize..18,
        lead in 0usize..5,
        pad in 0usize..5,
        flavour in 0usize..4,
        seed in any::<u64>(),
    ) {
        // The tile-major executor's contract: every (row, shot) pair the
        // register-blocked bank kernel or the 8-shot-lane head kernel
        // scores equals the scalar single-pair dot to the bit, on
        // the AVX-512 and AVX2 paths and the scalar mirror alike — for any
        // length (remainder-only, exact chunks, chunks plus remainder),
        // ragged row and shot blocks, banded spans and NaN, ±0 or ReLU
        // inputs.
        use mlr_core::plan::{self as kernels, SHOT_LANES};
        let len = [0usize, 1, 7, 11, 22, 31, 32, 33, 45, 1000][len_pick];
        let dot = kernels::dot_f32_scalar;
        #[cfg(target_arch = "x86_64")]
        let vector = kernels::simd_active();
        #[cfg(target_arch = "x86_64")]
        let avx512 = kernels::avx512_active();

        // Bank: banded span `lead..lead + len` inside a wider stride.
        let stride = lead + len + pad + 1;
        let span = lead..lead + len;
        let rows = kernel_data(n_rows * stride, seed, flavour);
        let shots = kernel_data(n_shots * stride, seed ^ 0x9e37_79b9, flavour);
        let mut outs = vec![vec![f32::INFINITY; n_shots * n_rows]; 4];
        kernels::dot_tile(&rows, &shots, stride, span.clone(), &mut outs[0], n_rows);
        kernels::dot_tile_scalar(&rows, &shots, stride, span.clone(), &mut outs[1], n_rows);
        #[cfg(target_arch = "x86_64")]
        if vector {
            kernels::dot_tile_avx2(&rows, &shots, stride, span.clone(), &mut outs[2], n_rows);
        }
        #[cfg(target_arch = "x86_64")]
        if avx512 {
            kernels::dot_tile_avx512(&rows, &shots, stride, span.clone(), &mut outs[3], n_rows);
        }
        for r in 0..n_rows {
            for s in 0..n_shots {
                let want = dot(&shots[s * stride..][span.clone()], &rows[r * stride..][span.clone()]);
                prop_assert!(same_bits(outs[0][s * n_rows + r], want), "dispatch, bank ({}, {})", r, s);
                prop_assert!(same_bits(outs[1][s * n_rows + r], want), "scalar, bank ({}, {})", r, s);
                #[cfg(target_arch = "x86_64")]
                if vector {
                    prop_assert!(same_bits(outs[2][s * n_rows + r], want), "avx2, bank ({}, {})", r, s);
                }
                #[cfg(target_arch = "x86_64")]
                if avx512 {
                    prop_assert!(same_bits(outs[3][s * n_rows + r], want), "avx512, bank ({}, {})", r, s);
                }
            }
        }

        // Heads: an n_rows × len layer over one lane block of shots.
        let w = kernel_data(n_rows * len, seed ^ 0x51, flavour);
        let x = kernel_data(len * SHOT_LANES, seed ^ 0xa7, flavour);
        let mut outs = vec![vec![f32::INFINITY; n_rows * SHOT_LANES]; 3];
        kernels::dot_lanes(&w, len, &x, &mut outs[0]);
        kernels::dot_lanes_scalar(&w, len, &x, &mut outs[1]);
        #[cfg(target_arch = "x86_64")]
        if vector {
            kernels::dot_lanes_avx2(&w, len, &x, &mut outs[2]);
        }
        for lane in 0..SHOT_LANES {
            let column: Vec<f32> = (0..len).map(|k| x[k * SHOT_LANES + lane]).collect();
            for o in 0..n_rows {
                let want = dot(&w[o * len..][..len], &column);
                let at = o * SHOT_LANES + lane;
                prop_assert!(same_bits(outs[0][at], want), "dispatch, head ({}, {})", o, lane);
                prop_assert!(same_bits(outs[1][at], want), "scalar, head ({}, {})", o, lane);
                #[cfg(target_arch = "x86_64")]
                if vector {
                    prop_assert!(same_bits(outs[2][at], want), "avx2, head ({}, {})", o, lane);
                }
            }
        }
    }

    #[test]
    fn narrow_f32_matches_as_f32_bit_for_bit(
        picks in prop::collection::vec((0usize..12, any::<u64>()), 0..40),
    ) {
        // The trunk's flatten narrows every IQ sample through `narrow_f32`:
        // it must equal `x as f32` to the bit on every path (8-wide, 4-wide
        // and scalar tails, so lengths 0..40), including NaN, ±0, ±∞, f64
        // and f32 subnormals and magnitudes past f32::MAX, which round to
        // f32::MAX or overflow to ±∞.
        let src: Vec<f64> = picks
            .iter()
            .map(|&(pick, bits)| {
                let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
                let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
                sign * match pick {
                    0 => f64::NAN,
                    1 => 0.0,
                    2 => f64::INFINITY,
                    3 => f64::from_bits(bits >> 12), // an f64 subnormal
                    4 => u * f32::MIN_POSITIVE as f64, // an f32 subnormal
                    5 => f32::MAX as f64 * (1.0 + u * 1e-7), // rounds to MAX or ∞
                    6 => f32::MAX as f64 * (1.0 + u * 1e3),
                    7 => f64::MAX * u,
                    8 => f64::from_bits(bits),
                    _ => (u - 0.5) * 1e3,
                }
            })
            .collect();
        // Every start within eight samples of a 64-byte line boundary: the
        // scalar prologue up to the boundary, then the vector bodies.
        let mut padded = vec![0.0f64; 7];
        padded.extend_from_slice(&src);
        for offset in 0..8 {
            let src = &padded[offset..];
            let mut dst = vec![0.0f32; src.len()];
            mlr_core::plan::narrow_f32(src, &mut dst);
            for (i, (&x, &got)) in src.iter().zip(&dst).enumerate() {
                prop_assert!(same_bits(got, x as f32), "offset {}, {}: {:e} -> {:e}, want {:e}", offset, i, x, got, x as f32);
            }
        }
    }

    #[test]
    fn tile_major_plans_match_the_per_shot_reference_bit_for_bit(
        start in any::<u64>(),
    ) {
        // Every plan family (OURS, OURS-NO-EMF, OURS-INT, OURS-STREAM per
        // checkpoint, HERQULES, FNN, LDA, AE) decides every shot of a
        // window exactly as the reference interpreter (`plan::eval`, one
        // single-pair dot per (row, shot)) re-scores the plan's own
        // lowered weights — at window sizes that leave ragged tiles and
        // ragged lane blocks — with trunk features and head logits equal
        // to the bit.
        let zoo = zoo();
        let n = zoo.dataset.len();
        for model in &zoo.models {
            for plan in model.plans() {
                let graph = plan.lowered_graph();
                let window = plan.n_samples();
                for size in [1usize, 3, 16, 17, 64] {
                    let shots: Vec<&[Complex]> = (0..size)
                        .map(|i| &zoo.dataset.raw((start as usize).wrapping_add(i) % n)[..window])
                        .collect();
                    let batch = plan.predict_batch(&shots);
                    let feats = plan.features_batch(&shots);
                    for (s, raw) in shots.iter().enumerate() {
                        let want = mlr_core::plan::eval(&graph, raw);
                        let what = format!("design {}, window {size}, shot {s}", model.name());
                        prop_assert_eq!(&batch[s], &want.levels, "verdict, {}", what);
                        prop_assert!(
                            feats[s].len() == want.features.len()
                                && feats[s].iter().zip(&want.features).all(|(&a, &b)| same_bits(a, b)),
                            "features, {}", what
                        );
                    }
                    let first = mlr_core::plan::eval(&graph, shots[0]);
                    let logits = plan.logits_shot(shots[0]);
                    prop_assert!(
                        logits.len() == first.logits.len()
                            && logits.iter().zip(&first.logits).all(|(a, b)| {
                                a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same_bits(x, y))
                            }),
                        "logits, design {}", model.name()
                    );
                    prop_assert_eq!(&plan.predict_shot(shots[0]), &batch[0]);
                }
            }
        }
    }
}
