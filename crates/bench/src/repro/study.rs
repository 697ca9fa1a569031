//! The five-design fidelity study and the artifacts that read it:
//! Fig. 1(c), Tables II, IV, V and VI, and the calibration table.

use std::time::Instant;

use mlr_core::{evaluate, Discriminator, DiscriminatorSpec, EvalReport, TrainedModel};
use mlr_fpga::FpgaDevice;
use mlr_qec::{EraserConfig, EraserExperiment, SpeculationMode};
use mlr_sim::{ChipConfig, DatasetSpec};

use super::hardware::paper_designs;
use super::{checked_split, joined, percent, ratio, times, Artifact, Knobs, ReproError};
use crate::{cached_dataset, cached_model};

/// The five fitted designs of the readout-fidelity experiments, evaluated
/// on the test split.
#[derive(Debug, Clone)]
pub(crate) struct FidelityStudy {
    /// The proposed design.
    pub ours: EvalReport,
    /// The raw-trace FNN baseline.
    pub fnn: EvalReport,
    /// HERQULES.
    pub herqules: EvalReport,
    /// LDA.
    pub lda: EvalReport,
    /// QDA.
    pub qda: EvalReport,
    /// Weight counts per design: (ours, fnn, herqules).
    pub weight_counts: (usize, usize, usize),
}

/// Runs the three-level fidelity study on the paper's five-qubit chip
/// following its calibration-free methodology: prepare only the 32
/// computational basis states, label shots by their true initial
/// three-level state (natural leakage provides the `|2⟩` examples, as the
/// paper's spectral clustering does), fit OURS and the four baselines on
/// the stratified training split, and evaluate balanced per-qubit
/// fidelity on the test split.
///
/// Every design is built through the registry via [`cached_model`], so a
/// warm `MLR_MODEL_DIR` skips all five fits.
///
/// # Errors
///
/// [`ReproError::MissingLevel`] when `shots_per_state` leaves some qubit
/// without a shot of some level in the training split.
pub(crate) fn run_fidelity_study(
    shots_per_state: usize,
    seed: u64,
) -> Result<FidelityStudy, ReproError> {
    let config = ChipConfig::five_qubit_paper();
    eprintln!("[study] natural-leakage dataset: 32 states x {shots_per_state} shots (seed {seed})");
    let t = Instant::now();
    let dataset_spec = DatasetSpec::natural(config.clone(), shots_per_state, seed);
    let dataset = cached_dataset(&dataset_spec);
    let split = checked_split(&dataset, seed, shots_per_state)?;
    let leaked_counts: Vec<usize> = (0..config.n_qubits())
        .map(|q| {
            (0..dataset.len())
                .filter(|&i| dataset.label(i, q) == 2)
                .count()
        })
        .collect();
    eprintln!(
        "[study] {} shots in {:.1}s (train {}, val {}, test {}); leaked per qubit {:?}",
        dataset.len(),
        t.elapsed().as_secs_f64(),
        split.train.len(),
        split.val.len(),
        split.test.len(),
        leaked_counts
    );

    let fit = |name: &str| -> TrainedModel {
        let spec: DiscriminatorSpec = name.parse().expect("registry family name");
        cached_model(&spec, &dataset_spec, &dataset, &split, seed)
    };
    let ours_model = fit("OURS");
    let herq_model = fit("HERQULES");
    let fnn_model = fit("FNN");
    let lda_model = fit("LDA");
    let qda_model = fit("QDA");

    let t = Instant::now();
    let study = FidelityStudy {
        ours: evaluate(&ours_model, &dataset, &split.test),
        herqules: evaluate(&herq_model, &dataset, &split.test),
        fnn: evaluate(&fnn_model, &dataset, &split.test),
        lda: evaluate(&lda_model, &dataset, &split.test),
        qda: evaluate(&qda_model, &dataset, &split.test),
        weight_counts: (
            ours_model.weight_count(),
            fnn_model.weight_count(),
            herq_model.weight_count(),
        ),
    };
    eprintln!("[study] evaluation in {:.1}s", t.elapsed().as_secs_f64());
    Ok(study)
}

/// Header of a per-qubit fidelity table on the five-qubit chip.
pub(super) const F5Q_HEADER: [&str; 7] = ["Design", "Q1", "Q2", "Q3", "Q4", "Q5", "F5Q"];

/// A name, one value per qubit, and a summary value, to four decimals.
pub(super) fn qubit_row(name: &str, per_qubit: &[f64], summary: f64) -> Vec<String> {
    let mut row = vec![name.to_owned()];
    row.extend(
        per_qubit
            .iter()
            .chain([&summary])
            .map(|f| format!("{f:.4}")),
    );
    row
}

/// Design name, per-qubit fidelities, geometric mean.
pub(super) fn fidelity_row(r: &EvalReport) -> Vec<String> {
    qubit_row(
        &r.design,
        &r.per_qubit_fidelity,
        r.geometric_mean_fidelity(),
    )
}

/// Fig. 1(c): three-level readout inaccuracy (1 − fidelity) per qubit of
/// HERQULES, FNN and OURS.
pub(super) fn fig1c(s: &FidelityStudy, _: &Knobs) -> Artifact {
    let inaccuracy = |r: &EvalReport| 1.0 - r.geometric_mean_fidelity();
    let rows = [&s.herqules, &s.fnn, &s.ours]
        .iter()
        .map(|r| {
            let per_qubit: Vec<f64> = r.per_qubit_fidelity.iter().map(|f| 1.0 - f).collect();
            qubit_row(&r.design, &per_qubit, inaccuracy(r))
        })
        .collect();
    let (ours, fnn, herq) = (
        inaccuracy(&s.ours),
        inaccuracy(&s.fnn),
        inaccuracy(&s.herqules),
    );
    Artifact::new(
        "fig1c",
        "Fig. 1(c): three-level readout inaccuracy per qubit",
        &["Design", "Q1", "Q2", "Q3", "Q4", "Q5", "1-F5Q"],
        rows,
    )
    .claim(
        "OURS inaccuracy <= FNN inaccuracy",
        "OURS <= FNN",
        format!("OURS {ours:.4} vs FNN {fnn:.4}"),
        ours <= fnn,
    )
    .claim(
        "FNN inaccuracy < HERQULES inaccuracy",
        "FNN << HERQULES",
        format!("FNN {fnn:.4} vs HERQULES {herq:.4}"),
        fnn < herq,
    )
}

/// Table II: three-level readout fidelity of the existing designs, FNN
/// and HERQULES, with the cumulative `F5Q = (F1 … F5)^(1/5)`.
pub(super) fn table2(s: &FidelityStudy, _: &Knobs) -> Artifact {
    let (fnn, herq) = (
        s.fnn.geometric_mean_fidelity(),
        s.herqules.geometric_mean_fidelity(),
    );
    Artifact::new(
        "table2",
        "Table II: three-level readout fidelity of existing designs",
        &F5Q_HEADER,
        vec![fidelity_row(&s.fnn), fidelity_row(&s.herqules)],
    )
    .claim(
        "FNN F5Q > HERQULES F5Q at three levels",
        "FNN 0.967/0.728/0.927/0.932/0.962 -> 0.898, \
         HERQULES 0.598/0.549/0.608/0.607/0.594 -> 0.591",
        format!("FNN {fnn:.4} vs HERQULES {herq:.4}"),
        fnn > herq,
    )
}

/// Table IV: three-level readout fidelity of the FNN and the proposed
/// design, with the relative improvement and the model-size ratio.
pub(super) fn table4(s: &FidelityStudy, _: &Knobs) -> Artifact {
    let (fnn, ours) = (
        s.fnn.geometric_mean_fidelity(),
        s.ours.geometric_mean_fidelity(),
    );
    let relative = ratio(ours - fnn, 1.0 - fnn);
    let (w_ours, w_fnn, _) = s.weight_counts;
    let smaller = ratio(w_fnn as f64, w_ours as f64).map(f64::floor);
    Artifact::new(
        "table4",
        "Table IV: three-level readout fidelity, FNN vs OURS",
        &F5Q_HEADER,
        vec![fidelity_row(&s.fnn), fidelity_row(&s.ours)],
    )
    .claim(
        "OURS F5Q >= FNN F5Q: OURS' relative improvement (F_OURS - F_FNN) / (1 - F_FNN) >= 0",
        "FNN 0.967/0.728/0.928/0.932/0.962 -> 0.8985, \
         OURS 0.971/0.745/0.923/0.939/0.969 -> 0.9052: +6.6%",
        format!("OURS {ours:.4} vs FNN {fnn:.4}: {}", percent(relative)),
        relative.is_some_and(|r| r >= 0.0),
    )
    .claim(
        "OURS has at least 50x fewer weights than FNN",
        "~100x",
        format!("{} (OURS {w_ours} vs FNN {w_fnn})", times(smaller, 0)),
        smaller.is_some_and(|x| x >= 50.0),
    )
}

/// Table V: per-qubit three-level fidelity of the discriminant baselines
/// (LDA, QDA) and the neural designs (NN, OURS) on the leakage-prone
/// qubits 3 and 4.
pub(super) fn table5(s: &FidelityStudy, _: &Knobs) -> Artifact {
    let qubits = [
        (2usize, "LDA 0.8966, QDA 0.914, NN 0.939, OURS 0.959"),
        (3, "LDA 0.9181, QDA 0.921, NN 0.926, OURS 0.930"),
    ];
    let rows = qubits
        .iter()
        .map(|&(q, _)| {
            let mut row = vec![format!("Qubit {}", q + 1)];
            for r in [&s.lda, &s.qda, &s.fnn, &s.ours] {
                row.push(format!("{:.4}", r.per_qubit_fidelity[q]));
            }
            row
        })
        .collect();
    let mut a = Artifact::new(
        "table5",
        "Table V: single-qubit three-level fidelity (leakage-prone qubits)",
        &["", "LDA", "QDA", "NN", "OURS"],
        rows,
    );
    for (q, paper) in qubits {
        let (lda, ours) = (s.lda.per_qubit_fidelity[q], s.ours.per_qubit_fidelity[q]);
        a = a.claim(
            &format!("OURS >= LDA on qubit {}", q + 1),
            paper,
            format!(
                "OURS {ours:.4} vs LDA {lda:.4} ({:+.1}% absolute)",
                100.0 * (ours - lda)
            ),
            ours >= lda,
        );
    }
    a
}

/// Table VI: ERASER+M speculation accuracy with each discriminator's
/// readout error (mean infidelity without qubit 2, as the paper) plugged
/// into the ancilla readout, next to its FPGA speed class. LDA and QDA
/// are a pair of dot products per qubit, trivially fast.
pub(super) fn table6(s: &FidelityStudy, knobs: &Knobs) -> Artifact {
    let device = FpgaDevice::xczu7ev();
    let exp = EraserExperiment::new(EraserConfig {
        trials: knobs.qec_trials.unwrap_or(600),
        ..EraserConfig::default()
    });
    let [ours_speed, _, fnn_speed] = paper_designs(5, 3, 500).map(|hw| hw.speed_class(&device));
    let entries = [
        ("LDA", &s.lda, "Fast"),
        ("QDA", &s.qda, "Fast"),
        ("FNN", &s.fnn, fnn_speed),
        ("Ours", &s.ours, ours_speed),
    ]
    .map(|(name, report, speed)| {
        let err = report.mean_error_excluding(&[1]);
        let res = exp.run(SpeculationMode::EraserM { readout_error: err });
        (name, err, speed, res.speculation_accuracy)
    });
    let rows = entries
        .iter()
        .map(|(name, err, speed, acc)| {
            vec![
                (*name).to_owned(),
                format!("{:.1}", 100.0 * err),
                (*speed).to_owned(),
                format!("{acc:.3}"),
            ]
        })
        .collect();
    let mut by_error = entries.to_vec();
    by_error.sort_by(|a, b| a.1.total_cmp(&b.1));
    Artifact::new(
        "table6",
        "Table VI: multi-level readout impact on leakage speculation",
        &["Design", "Error(%)", "Speed", "Speculation Accuracy"],
        rows,
    )
    .claim(
        "Lower readout error gives higher speculation accuracy",
        "Ours 5%/0.947, FNN 5.5%/0.943, QDA 9%/0.921, LDA 10%/0.914",
        joined(
            by_error
                .iter()
                .map(|e| format!("{} {:.1}%/{:.3}", e.0, 100.0 * e.1, e.3)),
            ", ",
        ),
        by_error.windows(2).all(|w| w[0].3 >= w[1].3),
    )
    .claim(
        "Only the FNN is Slow",
        "FNN Slow, LDA/QDA/Ours Fast",
        joined(entries.iter().map(|e| format!("{} {}", e.0, e.2)), ", "),
        entries.iter().all(|e| (e.2 == "Slow") == (e.0 == "FNN")),
    )
}

/// Every design's per-qubit fidelity and weight count next to the
/// paper's targets, for tuning `ChipConfig::five_qubit_paper` until the
/// trends match. Not a paper artifact, so it states no claim.
pub(super) fn calibrate(s: &FidelityStudy, _: &Knobs) -> Artifact {
    let (ours, fnn, herq) = s.weight_counts;
    let designs = [
        (&s.lda, None),
        (&s.qda, None),
        (&s.fnn, Some(fnn)),
        (&s.herqules, Some(herq)),
        (&s.ours, Some(ours)),
    ];
    let mut rows: Vec<Vec<String>> = designs
        .iter()
        .map(|(r, w)| {
            let mut row = fidelity_row(r);
            row.push(w.map_or_else(|| "-".to_owned(), |w| w.to_string()));
            row
        })
        .collect();
    for (design, targets) in [
        ("FNN", "0.967 0.728 0.928 0.932 0.962 0.8985"),
        ("HERQULES", "0.598 0.549 0.608 0.607 0.594 0.5910"),
        ("OURS", "0.971 0.745 0.923 0.939 0.969 0.9052"),
    ] {
        let mut row = vec![format!("{design} (paper)")];
        row.extend(targets.split(' ').chain(["-"]).map(str::to_owned));
        rows.push(row);
    }
    Artifact::new(
        "calibrate",
        "Calibration: three-level readout fidelity (paper: Tables II/IV/V)",
        &["Design", "Q1", "Q2", "Q3", "Q4", "Q5", "F5Q", "weights"],
        rows,
    )
}
