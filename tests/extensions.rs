//! Cross-crate integration tests for the workspace extensions: streaming
//! early-termination readout, integer deployment inference, model
//! serialisation, and the related-work baselines (HMM, autoencoder).

use mlr_core::{
    evaluate, evaluate_streaming, AutoencoderBaseline, AutoencoderConfig, Discriminator,
    HmmBaseline, HmmConfig, OursConfig, OursDiscriminator, StreamingConfig, StreamingReadout,
};
use mlr_nn::{FixedPointFormat, IntMlp, QuantizedMlp, TrainConfig};
use mlr_sim::{ChipConfig, DatasetSplit, TraceDataset};

/// A leak-rich two-qubit chip shared by the extension tests.
fn small_chip() -> ChipConfig {
    let mut config = ChipConfig::uniform(2);
    config.n_samples = 250;
    config.qubits[0].prep_leak_prob = 0.04;
    config.qubits[1].prep_leak_prob = 0.06;
    config
}

fn dataset_and_split() -> (TraceDataset, DatasetSplit) {
    let dataset = TraceDataset::generate(&small_chip(), 3, 60, 77);
    let split = dataset.split(0.6, 0.1, 77);
    (dataset, split)
}

#[test]
fn streaming_full_window_tracks_batch_pipeline() {
    // With early termination disabled, the streaming pipeline is the batch
    // pipeline (same kernels, same head recipe) — their test fidelities
    // must agree closely.
    let (dataset, split) = dataset_and_split();
    let batch = OursDiscriminator::fit(&dataset, &split, &OursConfig::default());
    let streaming = StreamingReadout::fit(
        &dataset,
        &split,
        &StreamingConfig {
            checkpoints: vec![250],
            confidence: 2.0,
            base: OursConfig::default(),
        },
    );
    let f_batch = evaluate(&batch, &dataset, &split.test).geometric_mean_fidelity();
    let f_stream = evaluate(&streaming, &dataset, &split.test).geometric_mean_fidelity();
    assert!(
        (f_batch - f_stream).abs() < 0.05,
        "batch {f_batch:.4} vs streaming {f_stream:.4}"
    );
}

#[test]
fn early_termination_interacts_sanely_with_leakage() {
    // Early stopping must not silently sacrifice the rare |2> class: leak
    // recall at an eager threshold stays within a modest band of the
    // full-window recall.
    let (dataset, split) = dataset_and_split();
    let fit = |confidence: f64| {
        StreamingReadout::fit(
            &dataset,
            &split,
            &StreamingConfig {
                checkpoints: vec![125, 185, 250],
                confidence,
                base: OursConfig::default(),
            },
        )
    };
    let eager = evaluate_streaming(&fit(0.9), &dataset, &split.test);
    let full = evaluate_streaming(&fit(2.0), &dataset, &split.test);
    assert!(eager.mean_samples < full.mean_samples);
    for q in 0..2 {
        assert!(
            eager.per_qubit_fidelity[q] > full.per_qubit_fidelity[q] - 0.1,
            "qubit {q}: eager {:.4} vs full {:.4}",
            eager.per_qubit_fidelity[q],
            full.per_qubit_fidelity[q]
        );
    }
}

#[test]
fn integer_deployment_of_trained_heads_is_bit_exact_and_accurate() {
    let (dataset, split) = dataset_and_split();
    let ours = OursDiscriminator::fit(&dataset, &split, &OursConfig::default());
    let fmt = FixedPointFormat::HLS4ML_DEFAULT;

    // Bit-exactness of the integer datapath against the float quantisation
    // model on real (trained) weights and real features.
    for q in 0..2 {
        let head = ours.head(q);
        let int_head = IntMlp::from_mlp(head, fmt);
        let q_head = QuantizedMlp::from_mlp(head, fmt);
        for &i in split.test.iter().take(50) {
            let feats = ours.extractor().extract(dataset.raw(i));
            let x: Vec<f32> = feats.iter().map(|&v| v as f32).collect();
            assert_eq!(
                int_head.forward(&x),
                q_head.forward(&x),
                "shot {i} head {q}"
            );
        }
    }

    // End-to-end quantised accuracy stays near float accuracy.
    let mut float_hits = 0usize;
    let mut int_hits = 0usize;
    for &i in &split.test {
        let raw = dataset.raw(i);
        let truth: Vec<usize> = (0..2).map(|q| dataset.label(i, q)).collect();
        let feats = ours.extractor().extract(raw);
        if ours.predict_features(&feats) == truth {
            float_hits += 1;
        }
        if ours.predict_features_quantized(&feats, fmt) == truth {
            int_hits += 1;
        }
    }
    let n = split.test.len() as f64;
    assert!(
        (float_hits as f64 - int_hits as f64).abs() / n < 0.02,
        "float {float_hits} vs int {int_hits} of {n}"
    );
}

#[test]
fn saved_model_survives_the_full_loop() {
    let (dataset, split) = dataset_and_split();
    let config = OursConfig {
        train: TrainConfig {
            epochs: 10,
            ..OursConfig::default().train
        },
        ..OursConfig::default()
    };
    let ours = OursDiscriminator::fit(&dataset, &split, &config);
    let mut buf = Vec::new();
    ours.save_json(&mut buf).unwrap();
    let restored = OursDiscriminator::load_json(buf.as_slice()).unwrap();
    // The restored model is not merely similar — it is the same function.
    for &i in split.test.iter().take(100) {
        let raw = dataset.raw(i);
        assert_eq!(ours.predict_shot(raw), restored.predict_shot(raw));
    }
    // And its embedded chip regenerates compatible datasets.
    let chip = restored.extractor().chip_config();
    assert_eq!(chip.n_qubits(), 2);
    assert_eq!(chip.n_samples, 250);
}

#[test]
fn hmm_exploits_relaxation_structure_on_short_lived_qubits() {
    // Make decay common within the readout window: the HMM's explicit
    // decay transitions must then beat a plain integrated-IQ Gaussian
    // model (LDA) on excited-state recall.
    let mut chip = small_chip();
    chip.qubits[0].t1_ge_us = 1.2; // ~40% decay within the 500 ns window
    chip.qubits[1].t1_ge_us = 1.2;
    let dataset = TraceDataset::generate(&chip, 3, 60, 11);
    let split = dataset.split(0.6, 0.0, 11);

    let hmm = HmmBaseline::fit(&dataset, &split, &HmmConfig::default());
    let lda =
        mlr_core::DiscriminantAnalysis::fit(&dataset, &split, mlr_core::DiscriminantKind::Lda);
    let r_hmm = evaluate(&hmm, &dataset, &split.test);
    let r_lda = evaluate(&lda, &dataset, &split.test);
    let excited_recall =
        |r: &mlr_core::EvalReport| (r.per_level_recall[0][1] + r.per_level_recall[1][1]) / 2.0;
    assert!(
        excited_recall(&r_hmm) > excited_recall(&r_lda) + 0.03,
        "HMM |1> recall {:.4} should beat LDA {:.4} under fast decay",
        excited_recall(&r_hmm),
        excited_recall(&r_lda)
    );
}

#[test]
fn autoencoder_bottleneck_preserves_state_information() {
    let (dataset, split) = dataset_and_split();
    let ae = AutoencoderBaseline::fit(&dataset, &split, &AutoencoderConfig::default());
    let report = evaluate(&ae, &dataset, &split.test);
    for (q, f) in report.per_qubit_fidelity.iter().enumerate() {
        assert!(*f > 0.7, "qubit {q} fidelity {f}");
    }
    // The stack is small compared to the raw-trace FNN (686k for 5 qubits).
    assert!(ae.weight_count() < 50_000);
}

#[test]
fn tone_probes_resolve_the_multiplexed_feedline() {
    // The simulator multiplexes one probe tone per qubit onto the feedline;
    // the single-bin DFT probe must find power at every qubit's IF and
    // essentially none midway between tones.
    let chip = ChipConfig::five_qubit_paper();
    let dataset = TraceDataset::generate(&chip, 3, 2, 3);
    let dt = chip.dt_us();
    // Average the probe powers over a handful of shots: any single trace
    // can have one qubit's tone ride a noise trough, but the multiplexing
    // contrast is a property of the ensemble.
    let probe: Vec<&[mlr_num::Complex]> = (0..20).map(|i| dataset.raw(i)).collect();
    let mean_power = |freq_mhz: f64| -> f64 {
        probe
            .iter()
            .map(|raw| mlr_dsp::tone_power(raw, freq_mhz, dt))
            .sum::<f64>()
            / probe.len() as f64
    };
    let on_tone: Vec<f64> = chip
        .qubits
        .iter()
        .map(|q| mean_power(q.if_freq_mhz))
        .collect();
    // Midpoints between adjacent tones.
    let off_tone: Vec<f64> = chip
        .qubits
        .windows(2)
        .map(|w| mean_power((w[0].if_freq_mhz + w[1].if_freq_mhz) / 2.0))
        .collect();
    let min_on = on_tone.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_off = off_tone.iter().cloned().fold(0.0, f64::max);
    // The ring-up transient leaks a little spectral power into the gaps, so
    // the contrast is finite — but every tone must stand well clear of it.
    assert!(
        min_on > 4.0 * max_off,
        "tones {on_tone:?} vs gaps {off_tone:?}"
    );
}

#[test]
fn leak_roc_beats_chance_and_supports_thresholding() {
    let (dataset, split) = dataset_and_split();
    let ours = OursDiscriminator::fit(&dataset, &split, &OursConfig::default());
    for q in 0..2 {
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for &i in &split.test {
            let f = ours.extractor().extract(dataset.raw(i));
            scores.push(ours.leak_probability(&f, q));
            labels.push(dataset.label(i, q) == 2);
        }
        let auc = mlr_nn::auc(&scores, &labels);
        assert!(auc > 0.85, "qubit {q} leak AUC {auc}");
        // The ROC exposes an operating point with high TPR at modest FPR.
        let roc = mlr_nn::roc_curve(&scores, &labels);
        assert!(
            roc.iter().any(|p| p.tpr > 0.8 && p.fpr < 0.2),
            "qubit {q} has no usable operating point"
        );
    }
}

#[test]
fn all_discriminators_expose_consistent_metadata() {
    let (dataset, split) = dataset_and_split();
    let quick = OursConfig {
        train: TrainConfig {
            epochs: 5,
            ..OursConfig::default().train
        },
        ..OursConfig::default()
    };
    let discs: Vec<Box<dyn Discriminator>> = vec![
        Box::new(OursDiscriminator::fit(&dataset, &split, &quick)),
        Box::new(HmmBaseline::fit(&dataset, &split, &HmmConfig::default())),
        Box::new(mlr_core::DiscriminantAnalysis::fit(
            &dataset,
            &split,
            mlr_core::DiscriminantKind::Qda,
        )),
    ];
    for disc in &discs {
        assert_eq!(disc.n_qubits(), 2, "{}", disc.name());
        let decision = disc.predict_shot(dataset.raw(0));
        assert_eq!(decision.len(), 2, "{}", disc.name());
        assert!(decision.iter().all(|&l| l < 3), "{}", disc.name());
    }
}
