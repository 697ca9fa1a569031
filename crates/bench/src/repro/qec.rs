//! The QEC artifacts: Table I, Secs. III-A and VII-B, and the herald
//! sweep that closes the readout→QEC loop.

use mlr_core::{registry, DiscriminatorHerald, DiscriminatorSpec};
use mlr_qec::{
    herald_sweep as sweep, CnotChannel, DecoderKind, EraserConfig, EraserExperiment, EraserResult,
    GroundTruthHerald, HeraldModel, HeraldSweepConfig, HeraldSweepPoint, QecCycleTiming,
    RepeatedCnotExperiment, SpeculationMode,
};
use mlr_sim::{ChipConfig, TraceDataset};

use super::{natural_data, ratio, times, Artifact, Knobs, ReproError};

/// ERASER and ERASER+M (ancilla readout error `readout_error`) on
/// `experiment`, with `herald` reporting the end-of-run erasures: Table
/// I's rows and claims, shared with `mlr qec`. "Logical fail" is the
/// end-of-run decode with leakage heralds as erasures.
pub fn eraser_table(
    name: &'static str,
    title: &str,
    experiment: &EraserExperiment,
    readout_error: f64,
    herald: &dyn HeraldModel,
) -> Artifact {
    let plain = experiment.run_with_herald(SpeculationMode::Eraser, herald);
    let with_m = experiment.run_with_herald(SpeculationMode::EraserM { readout_error }, herald);
    let row = |name: String, r: &EraserResult| {
        vec![
            name,
            format!("{:.3}", r.speculation_accuracy),
            format!("{:.2e}", r.leakage_population),
            format!("{:.3}", r.episode_recall),
            format!("{:.4}", r.false_flag_rate),
            format!("{:.3}", r.logical_failure_rate),
        ]
    };
    let lp = ratio(plain.leakage_population, with_m.leakage_population);
    Artifact::new(
        name,
        title,
        &[
            "Design",
            "Accuracy",
            "Leakage Pop.",
            "Episode recall",
            "False-flag rate",
            "Logical fail",
        ],
        vec![
            row("ERASER".to_owned(), &plain),
            row(format!("ERASER+M (err {readout_error})"), &with_m),
        ],
    )
    .claim(
        "ERASER+M speculates more accurately than ERASER",
        "0.971 vs 0.957",
        format!(
            "{:.3} vs {:.3}",
            with_m.speculation_accuracy, plain.speculation_accuracy
        ),
        with_m.speculation_accuracy > plain.speculation_accuracy,
    )
    .claim(
        "ERASER+M lowers the leakage population",
        "2.97e-3 vs 4.19e-3 (~1.5x)",
        format!(
            "{:.2e} vs {:.2e} ({})",
            with_m.leakage_population,
            plain.leakage_population,
            times(lp, 2)
        ),
        lp.is_some_and(|r| r > 1.0),
    )
}

/// Table I: ERASER vs ERASER+M leakage speculation on a distance-7
/// surface code over 10 cycles, ERASER+M with the proposed
/// discriminator's readout error (Table VI's "Ours" row: 5 %).
pub(super) fn table1(knobs: &Knobs) -> Result<Artifact, ReproError> {
    let experiment = EraserExperiment::new(EraserConfig {
        trials: knobs.qec_trials.unwrap_or(600),
        ..EraserConfig::default()
    });
    Ok(eraser_table(
        "table1",
        "Table I: readout impact on leakage speculation (d=7, 10 cycles)",
        &experiment,
        0.05,
        &GroundTruthHerald,
    ))
}

/// Sec. III-A: leakage injected into repeated CNOTs (10 000 shots), as
/// observed on IBM Lagos.
pub(super) fn sec3a(_: &Knobs) -> Result<Artifact, ReproError> {
    let exp = RepeatedCnotExperiment::new(CnotChannel::default(), 10_000, 12, 33);
    let leaked = exp.run(true);
    let clean = exp.run(false);
    let (l, c) = (&leaked.target_leak_vs_gates, &clean.target_leak_vs_gates);
    let rows = (0..12)
        .map(|g| {
            vec![
                format!("{}", g + 1),
                format!("{:.4}", c[g]),
                format!("{:.4}", l[g]),
                times(ratio(l[g], c[g]), 2),
            ]
        })
        .collect();
    let growth = ratio(l[11], c[11]);
    let transfer = leaked.single_gate_transfer_rate;
    Ok(Artifact::new(
        "sec3a",
        "Sec. III-A: target leakage vs repeated CNOTs (10,000 shots)",
        &["CNOTs", "control |1>", "control |2>", "growth"],
        rows,
    )
    .claim(
        "A leaked control multiplies target leakage within 12 CNOTs",
        "~3x",
        format!(
            "{:.1}% vs {:.1}% -> {}",
            100.0 * c[11],
            100.0 * l[11],
            times(growth, 1)
        ),
        growth.is_some_and(|r| r > 1.0),
    )
    .claim(
        "Single-CNOT leakage transfer is 1.5-2%",
        "1.5-2%",
        format!("{:.2}%", 100.0 * transfer),
        (0.015..=0.02).contains(&transfer),
    )
    .claim(
        "A leaked control flips the target more often than a clean one",
        "random target bit-flips",
        format!(
            "{:.1}% vs {:.2}% per CNOT",
            100.0 * leaked.single_gate_flip_rate,
            100.0 * clean.single_gate_flip_rate
        ),
        leaked.single_gate_flip_rate > clean.single_gate_flip_rate,
    ))
}

/// Sec. VII-B: Surface-17 QEC cycle time as the readout shortens.
pub(super) fn sec7b(_: &Knobs) -> Result<Artifact, ReproError> {
    let baseline = QecCycleTiming::versluis_surface17(1000.0);
    let rows = [1000.0, 900.0, 800.0, 700.0, 600.0]
        .iter()
        .map(|&meas_ns| {
            let t = QecCycleTiming::versluis_surface17(meas_ns);
            vec![
                format!("{meas_ns:.0}"),
                format!("{:.0}", t.cycle_ns()),
                format!("{:.1}%", 100.0 * t.measurement_fraction()),
                format!("{:.1}%", 100.0 * baseline.relative_reduction(&t)),
                format!("{:.2}", t.total_ns(10) / 1000.0),
            ]
        })
        .collect();
    let cut = baseline.relative_reduction(&QecCycleTiming::versluis_surface17(800.0));
    Ok(Artifact::new(
        "sec7b",
        "Sec. VII-B: Surface-17 cycle time vs readout duration",
        &[
            "Readout (ns)",
            "Cycle (ns)",
            "Meas. fraction",
            "Cycle reduction",
            "10 cycles (us)",
        ],
        rows,
    )
    .claim(
        "A 200 ns shorter readout shortens the QEC cycle by ~17%",
        "up to 17%",
        format!("{:.1}%", 100.0 * cut),
        (cut - 0.17).abs() < 0.01,
    ))
}

/// One row of a herald table.
fn herald_row(
    (d, decoder): (usize, DecoderKind),
    herald: String,
    herald_error: String,
    (fp, fne): (f64, f64),
    r: &EraserResult,
) -> Vec<String> {
    vec![
        d.to_string(),
        decoder.to_string(),
        herald,
        herald_error,
        format!("{fp:.3}"),
        format!("{fne:.3}"),
        format!("{:.2e}", r.leakage_population),
        format!("{:.4}", r.logical_failure_rate),
    ]
}

/// One row per point of a herald-quality sweep (a symmetric confusion
/// channel as the end-of-run herald), shared with `mlr qec sweep`.
pub fn herald_table(name: &'static str, title: &str, points: &[HeraldSweepPoint]) -> Artifact {
    let rows = points
        .iter()
        .map(|p| {
            let r = &p.result;
            herald_row(
                (p.distance, p.decoder),
                "confusion".to_owned(),
                format!("{:.3}", p.herald_error),
                (r.herald_false_positive_rate, r.herald_false_negative_rate),
                r,
            )
        })
        .collect();
    Artifact::new(
        name,
        title,
        &[
            "d",
            "decoder",
            "herald",
            "herald err",
            "herald FP",
            "herald FN",
            "leakage pop",
            "logical failure",
        ],
        rows,
    )
}

/// Table VI extended to the decoder: how the end-of-run erasure herald's
/// assignment error moves the logical failure rate, per decoder and
/// distance (a symmetric confusion sweep; greedy ignores erasures, so the
/// union-find-minus-greedy gap is the value of erasure information), then
/// OURS and LDA calibrated as heralds on fresh traces and placed on the
/// same axis at d = 5, their FP/FN measured on the calibration traces
/// (`MLR_QEC_TRIALS` defaults to 300 here).
pub(super) fn herald_sweep(knobs: &Knobs) -> Result<Artifact, ReproError> {
    let (trials, seed) = (knobs.qec_trials.unwrap_or(300), knobs.seed);
    let chip = ChipConfig::five_qubit_paper();
    let (dataset, split) = natural_data(&chip, knobs.shots, seed)?;
    let points = sweep(&HeraldSweepConfig {
        trials,
        seed,
        ..HeraldSweepConfig::default()
    });
    let title = format!("Herald assignment error -> logical failure ({trials} trials/point)");
    let mut table = herald_table("herald_sweep", &title, &points);

    let ours = registry::fit(&DiscriminatorSpec::default(), &dataset, &split, seed);
    let lda = registry::fit(&"LDA".parse().unwrap(), &dataset, &split, seed);
    // Fresh calibration traces (another seed), so each herald's measured
    // confusion is out of sample, as a deployed readout chain's would be.
    let calib_shots = (knobs.shots / 8).max(4);
    let calibration = TraceDataset::generate(&chip, 3, calib_shots, seed ^ 0x5eed);
    let experiment = EraserExperiment::new(EraserConfig {
        distance: 5,
        trials,
        seed,
        decoder: DecoderKind::UnionFind,
        ..EraserConfig::default()
    });
    let eraser_m = SpeculationMode::EraserM {
        readout_error: 0.05,
    };
    let d5 = (5, DecoderKind::UnionFind);
    let truth = experiment.run(eraser_m);
    let row = herald_row(
        d5,
        "ground truth".to_owned(),
        "-".to_owned(),
        (0.0, 0.0),
        &truth,
    );
    table.rows.push(row);
    for model in [&ours, &lda] {
        let herald = DiscriminatorHerald::calibrate_on(model, &calibration);
        let r = experiment.run_with_herald(eraser_m, &herald);
        let row = herald_row(
            d5,
            herald.name(),
            "-".to_owned(),
            herald.mean_confusion(),
            &r,
        );
        table.rows.push(row);
    }

    let curve = |decoder: DecoderKind| {
        [3usize, 5].map(|d| {
            let f: Vec<f64> = points
                .iter()
                .filter(|p| p.distance == d && p.decoder == decoder)
                .map(|p| p.result.logical_failure_rate)
                .collect();
            (d, f[0], f[f.len() - 1])
        })
    };
    let shown = |c: [(usize, f64, f64); 2]| {
        c.map(|(d, first, last)| format!("d={d}: {first:.4} -> {last:.4}"))
            .join(", ")
    };
    let (uf, greedy) = (curve(DecoderKind::UnionFind), curve(DecoderKind::Greedy));
    Ok(table
        .claim(
            "Union-find's logical failure does not fall as herald error grows",
            "false positives erode its effective distance",
            shown(uf),
            uf.iter().all(|(_, first, last)| last >= first),
        )
        .claim(
            "Greedy's logical failure is flat in herald error",
            "greedy ignores erasures",
            shown(greedy),
            greedy.iter().all(|(_, first, last)| last == first),
        ))
}
