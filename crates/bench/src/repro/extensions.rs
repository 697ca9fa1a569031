//! Artifacts that fit their own designs: Fig. 3, Fig. 5(b), the Sec. IV-B
//! two-level crossover, and the studies beyond the paper (ablation,
//! sensitivity, adaptive readout, per-level recall diagnostics).

use mlr_core::{
    evaluate, evaluate_streaming, registry, Discriminator, DiscriminatorSpec, EvalReport,
    NaturalLeakageDetector, OursConfig, StreamingConfig,
};
use mlr_dsp::{boxcar_decimate, Demodulator, MatchedFilterKind};
use mlr_nn::FixedPointFormat;
use mlr_num::Complex;
use mlr_qec::QecCycleTiming;
use mlr_sim::{ChipConfig, DatasetSpec, DatasetSplit, TraceDataset};

use super::study::{fidelity_row, qubit_row, F5Q_HEADER};
use super::{
    checked_split, joined, natural_data, percent, ratio, times, Artifact, Knobs, ReproError,
};
use crate::{cached_dataset, cached_natural_dataset};

/// Fig. 3: calibration-free leakage discovery on qubit 4. The first rows
/// are the three spectral clusters of the two-level readout's averaged
/// IQ (MTV) points, the smallest being natural leakage (Fig. 3(a)/(b)),
/// with each cluster's mean trace in ten boxcar bins over 1 µs
/// (Fig. 3(c)); the last rows are the excitation-error traces, shots
/// whose qubit jumped upward mid-readout (Fig. 3(d)).
pub(super) fn fig3(knobs: &Knobs) -> Result<Artifact, ReproError> {
    let q = 3; // the paper's qubit 4: strongest natural leakage
    let config = ChipConfig::five_qubit_paper();
    let dataset = cached_natural_dataset(&config, knobs.shots, knobs.seed);
    let all: Vec<usize> = (0..dataset.len()).collect();
    let harvest = NaturalLeakageDetector::new().detect(&dataset, q, &all);

    let demod = Demodulator::new(dataset.config());
    let n_bins = 10;
    let mut centroid_sums = [[0.0f64; 2]; 3];
    let mut trace_sums = vec![vec![Complex::ZERO; n_bins]; 3];
    for (pos, &i) in all.iter().enumerate() {
        let level = harvest.assigned_levels[pos];
        centroid_sums[level][0] += harvest.mtv_points[pos][0];
        centroid_sums[level][1] += harvest.mtv_points[pos][1];
        let bb = boxcar_decimate(
            &demod.demodulate(dataset.raw(i), q),
            dataset.config().n_samples / n_bins,
        );
        for (s, z) in trace_sums[level].iter_mut().zip(&bb) {
            *s += *z;
        }
    }
    let mut rows: Vec<Vec<String>> = (0..3)
        .map(|l| {
            let n = harvest.cluster_sizes[l].max(1) as f64;
            let mut row = vec![
                ["|0>", "|1>", "L"][l].to_owned(),
                harvest.cluster_sizes[l].to_string(),
                format!("{:.3}", centroid_sums[l][0] / n),
                format!("{:.3}", centroid_sums[l][1] / n),
            ];
            row.extend(trace_sums[l].iter().map(|z| format!("{:.2}", (*z / n).re)));
            row
        })
        .collect();

    let mut jumps: [(&str, Vec<Complex>); 3] = [
        ("0 -> 1", Vec::new()),
        ("0 -> 2", Vec::new()),
        ("1 -> 2", Vec::new()),
    ];
    for &i in &all {
        let shot = dataset.view(i);
        for e in shot.events {
            if e.qubit == q && !e.is_relaxation() {
                let slot = match (e.from.index(), e.to.index()) {
                    (0, 1) => 0,
                    (0, 2) => 1,
                    (1, 2) => 2,
                    _ => continue,
                };
                let mtv = mlr_dsp::mean_trace_value(&demod.demodulate(shot.raw, q));
                jumps[slot].1.push(mtv);
            }
        }
    }
    for (name, mtvs) in &jumps {
        let mean = mtvs.iter().copied().sum::<Complex>() / mtvs.len().max(1) as f64;
        let mut row = vec![
            (*name).to_owned(),
            mtvs.len().to_string(),
            format!("{:.3}", mean.re),
            format!("{:.3}", mean.im),
        ];
        row.resize(4 + n_bins, "-".to_owned());
        rows.push(row);
    }

    let leaked = harvest.cluster_sizes[2];
    let truly_leaked = all
        .iter()
        .enumerate()
        .filter(|(pos, &i)| {
            harvest.assigned_levels[*pos] == 2 && dataset.initial_level(i, q).is_leaked()
        })
        .count();
    let purity = ratio(truly_leaked as f64, leaked as f64);
    let mut header = vec!["group", "traces", "MTV I", "MTV Q"];
    let bins: Vec<String> = (0..n_bins).map(|b| format!("t{b}")).collect();
    header.extend(bins.iter().map(String::as_str));
    Ok(Artifact::new(
        "fig3",
        "Fig. 3: qubit-4 spectral clusters (a/b), their mean I traces over 1 us (c), \
         excitation-error traces (d)",
        &header,
        rows,
    )
    .claim(
        "Most of the leakage cluster, found without |2> calibration, is truly leaked",
        "the smallest spectral cluster is natural leakage",
        format!(
            "{leaked} traces ({:.2}% of shots), purity {}",
            100.0 * harvest.leakage_fraction(),
            percent(purity)
        ),
        purity.is_some_and(|p| p > 0.5),
    ))
}

/// Fig. 5(b): accuracy of the proposed design as the readout shortens,
/// with filters and heads refitted per duration (the paper's
/// per-duration calibration).
pub(super) fn fig5b(knobs: &Knobs) -> Result<Artifact, ReproError> {
    let (dataset, split) = natural_data(&ChipConfig::five_qubit_paper(), knobs.shots, knobs.seed)?;
    let mut rows = Vec::new();
    let mut mean_acc_at = Vec::new();
    for n_samples in [250usize, 300, 350, 400, 450, 500] {
        let truncated = dataset.truncated(n_samples);
        let ours = registry::fit(
            &DiscriminatorSpec::default(),
            &truncated,
            &split,
            knobs.seed,
        );
        let report = evaluate(&ours, &truncated, &split.test);
        let duration_ns = n_samples as f64 * 2.0; // 500 MS/s -> 2 ns/sample
        let f = &report.per_qubit_fidelity;
        let mean_acc = f.iter().sum::<f64>() / f.len() as f64;
        mean_acc_at.push(mean_acc);
        let mut row = vec![
            format!("{duration_ns:.0}"),
            format!("{mean_acc:.4}"),
            format!("{:.4}", report.geometric_mean_fidelity()),
        ];
        row.extend(f.iter().map(|f| format!("{f:.3}")));
        rows.push(row);
    }
    let (at_800, full) = (mean_acc_at[3], mean_acc_at[5]);
    Ok(Artifact::new(
        "fig5b",
        "Fig. 5(b): mean accuracy vs readout duration (refit per duration)",
        &["ns", "mean acc", "F5Q", "Q1", "Q2", "Q3", "Q4", "Q5"],
        rows,
    )
    .claim(
        "A 200 ns shorter readout (1000 -> 800 ns) costs under 0.01 mean accuracy",
        "flat from 1 us down to ~800 ns",
        format!("{full:.4} -> {at_800:.4} (delta {:+.4})", at_800 - full),
        full - at_800 < 0.01,
    ))
}

/// HERQULES and FNN fitted and evaluated on `dataset`: reports and
/// weight counts.
fn herqules_and_fnn(
    (dataset, split): &(TraceDataset, DatasetSplit),
    seed: u64,
) -> [(EvalReport, usize); 2] {
    ["HERQULES", "FNN"].map(|name| {
        let model = registry::fit(&name.parse().unwrap(), dataset, split, seed);
        (evaluate(&model, dataset, &split.test), model.weight_count())
    })
}

/// Sec. IV-B: "While the HERQULES design outperforms FNN for two-level
/// readout, it struggles with the increased complexity of three-level
/// readout." Both designs on the paper chip at one shot budget: all 32
/// computational states labelled as prepared (the ISCA '23 setting), then
/// the natural-leakage methodology of the main tables. The `|2>` recall
/// per qubit is the mechanism behind the three-level drop.
pub(super) fn twolevel(knobs: &Knobs) -> Result<Artifact, ReproError> {
    let (shots, seed) = (knobs.shots, knobs.seed);
    let chip = ChipConfig::five_qubit_paper();
    // Both splits are checked before the first (slow) fit.
    let ds2 = cached_dataset(&DatasetSpec::full(chip.clone(), 2, shots, seed));
    let split2 = checked_split(&ds2, seed, shots)?;
    let two = (ds2, split2);
    let three = natural_data(&chip, shots, seed)?;
    let [herq2, fnn2] = herqules_and_fnn(&two, seed);
    let [herq3, fnn3] = herqules_and_fnn(&three, seed);

    let leak_recall = |r: &EvalReport| {
        let recall = r
            .per_level_recall
            .iter()
            .map(|q| q.get(2).copied().unwrap_or(0.0));
        joined(recall.map(|r| format!("{r:.2}")), "/")
    };
    let rows = [(2, &herq2, &fnn2), (3, &herq3, &fnn3)]
        .iter()
        .flat_map(|&(levels, herq, fnn)| [(levels, herq), (levels, fnn)])
        .map(|(levels, (report, weights))| {
            let mut row = vec![levels.to_string()];
            row.extend(fidelity_row(report));
            row.push(weights.to_string());
            row.push(if levels == 3 {
                leak_recall(report)
            } else {
                "-".to_owned()
            });
            row
        })
        .collect();
    let mut header = vec!["levels"];
    header.extend(F5Q_HEADER);
    header.extend(["weights", "|2> recall per qubit"]);
    let f = |r: &(EvalReport, usize)| r.0.geometric_mean_fidelity();
    let fewer = ratio(fnn2.1 as f64, herq2.1 as f64).map(f64::floor);
    Ok(Artifact::new(
        "twolevel",
        "Sec. IV-B: HERQULES vs FNN at two and three levels",
        &header,
        rows,
    )
    .claim(
        "HERQULES F5Q > FNN F5Q at two levels",
        "HERQULES outperforms FNN for two-level readout",
        format!(
            "HERQULES-FNN = {:+.4}, with {} fewer weights",
            f(&herq2) - f(&fnn2),
            times(fewer, 0)
        ),
        f(&herq2) > f(&fnn2),
    )
    .claim(
        "HERQULES F5Q drops from two to three levels",
        "HERQULES struggles with three-level readout",
        format!("{:.4} -> {:.4}", f(&herq2), f(&herq3)),
        f(&herq3) < f(&herq2),
    ))
}

/// Ablation of the proposed design (design-choice checks, not a paper
/// artifact): excitation matched filters on and off (the paper's
/// addition over HERQULES' filter set), the paper's variance-difference
/// kernel against the robust variance-sum kernel, and fixed-point heads
/// (16/8/6 bits), which underpin the FPGA model's 8-bit assumption.
pub(super) fn ablation(knobs: &Knobs) -> Result<Artifact, ReproError> {
    let seed = knobs.seed;
    let (dataset, split) = natural_data(&ChipConfig::five_qubit_paper(), knobs.shots, seed)?;
    let variants = [
        (
            "full design (EMF, variance-sum)",
            true,
            MatchedFilterKind::VarianceSum,
        ),
        (
            "no EMF (HERQULES filter set)",
            false,
            MatchedFilterKind::VarianceSum,
        ),
        (
            "paper kernel (variance-diff)",
            true,
            MatchedFilterKind::PaperVarianceDiff,
        ),
    ];
    let mut rows = Vec::new();
    let mut f5q = Vec::new();
    let mut full_model = None;
    for (name, include_emf, mf_kind) in variants {
        // The EMF arm is the registry's OURS-NO-EMF family; the kernel arm
        // stays an OURS config knob.
        let config = OursConfig {
            mf_kind,
            ..OursConfig::default()
        };
        let spec = if include_emf {
            DiscriminatorSpec::Ours(config)
        } else {
            DiscriminatorSpec::OursNoEmf(config)
        };
        let model = registry::fit(&spec, &dataset, &split, seed);
        let mut report = evaluate(&model, &dataset, &split.test);
        report.design = name.to_owned();
        rows.push(fidelity_row(&report));
        f5q.push(report.geometric_mean_fidelity());
        if include_emf && mf_kind == MatchedFilterKind::VarianceSum {
            full_model = Some(model);
        }
    }

    // Features are extracted once and shared by every precision; heads
    // are quantised once per format.
    let ours = full_model
        .as_ref()
        .and_then(|m| m.as_ours())
        .expect("full design fitted");
    let features = ours.extractor().extract_batch(&dataset, &split.test);
    let formats = [
        ("heads f32 (no quantisation)", None),
        (
            "heads ap_fixed<16,6>",
            Some(FixedPointFormat::HLS4ML_DEFAULT),
        ),
        ("heads ap_fixed<8,3>", Some(FixedPointFormat::new(8, 3))),
        ("heads ap_fixed<6,3>", Some(FixedPointFormat::new(6, 3))),
    ];
    for (name, format) in formats {
        let decisions = match format {
            None => ours.predict_features_batch(&features),
            Some(f) => ours.predict_features_quantized_batch(&features, f),
        };
        // Balanced per-qubit fidelity: recall averaged over the levels
        // present.
        let fidelities: Vec<f64> = (0..ours.n_qubits())
            .map(|q| {
                let (mut hits, mut counts) = ([0usize; 3], [0usize; 3]);
                for (&i, decided) in split.test.iter().zip(&decisions) {
                    let truth = dataset.label(i, q);
                    counts[truth] += 1;
                    hits[truth] += usize::from(decided[q] == truth);
                }
                let present: Vec<f64> = (0..3)
                    .filter(|&l| counts[l] > 0)
                    .map(|l| hits[l] as f64 / counts[l] as f64)
                    .collect();
                present.iter().sum::<f64>() / present.len() as f64
            })
            .collect();
        let g = mlr_nn::geometric_mean(&fidelities);
        rows.push(qubit_row(name, &fidelities, g));
        f5q.push(g);
    }
    let mut header = F5Q_HEADER;
    header[0] = "Variant";
    // f5q: full, no EMF, variance-diff, f32, 16-bit, 8-bit, 6-bit.
    Ok(Artifact::new(
        "ablation",
        "Ablation: filter bank, kernel, and head quantisation",
        &header,
        rows,
    )
    .claim(
        "Excitation matched filters do not lower F5Q",
        "EMFs are the addition over HERQULES' filter set",
        format!("with {:.4} vs without {:.4}", f5q[0], f5q[1]),
        f5q[0] >= f5q[1],
    )
    .claim(
        "8-bit heads keep F5Q within 0.01 of f32",
        "8-bit heads in the FPGA resource model",
        format!("{:.4} vs {:.4}", f5q[5], f5q[3]),
        f5q[3] - f5q[5] < 0.01,
    ))
}

/// OURS and LDA F5Q on one chip variant.
fn ours_and_lda(chip: &ChipConfig, shots: usize, seed: u64) -> Result<(f64, f64), ReproError> {
    let (dataset, split) = natural_data(chip, shots, seed)?;
    let ours = registry::fit(&DiscriminatorSpec::default(), &dataset, &split, seed);
    let lda = registry::fit(&"LDA".parse().unwrap(), &dataset, &split, seed);
    Ok((
        evaluate(&ours, &dataset, &split.test).geometric_mean_fidelity(),
        evaluate(&lda, &dataset, &split.test).geometric_mean_fidelity(),
    ))
}

/// Sensitivity of OURS and LDA to the simulator's physical knobs
/// (robustness checks, not a paper artifact): receiver noise, qubit
/// lifetime (short T1 puts relaxation inside the readout window), and
/// the seed (dataset and training both reseeded), whose spread bounds the
/// run-to-run wobble behind every fidelity table. The learned design is
/// the sample-hungry one: compare trends, not levels, at small
/// `MLR_SHOTS`. The OURS-LDA column tracks how much this simulator's
/// stationary Gaussian IQ clusters favour LDA.
pub(super) fn sensitivity(knobs: &Knobs) -> Result<Artifact, ReproError> {
    let (shots, seed0) = (knobs.shots, knobs.seed);
    let mut rows = Vec::new();
    let mut row = |sweep: &str, value: String, (ours, lda): (f64, f64)| {
        eprintln!("[sensitivity] {sweep} {value}: OURS {ours:.4} LDA {lda:.4}");
        rows.push(vec![
            sweep.to_owned(),
            value,
            format!("{ours:.4}"),
            format!("{lda:.4}"),
            format!("{:+.4}", ours - lda),
        ]);
    };

    let mut noise_f = Vec::new();
    for noise in [1.7, 3.4, 5.1, 6.8] {
        let mut chip = ChipConfig::five_qubit_paper();
        chip.rx_noise = noise;
        let pair = ours_and_lda(&chip, shots, seed0)?;
        noise_f.push(pair);
        row(
            "rx noise",
            format!("{noise:.1} ({:.1}x)", noise / 3.4),
            pair,
        );
    }
    let mut t1_f = Vec::new();
    for t1_scale in [0.35, 0.7, 1.0, 2.0] {
        let mut chip = ChipConfig::five_qubit_paper();
        for q in &mut chip.qubits {
            q.t1_ge_us *= t1_scale;
            q.t1_ef_us *= t1_scale;
        }
        let pair = ours_and_lda(&chip, shots, seed0)?;
        t1_f.push(pair);
        row("T1 scale", format!("{t1_scale:.2}x"), pair);
    }
    let seeds = [
        seed0,
        seed0 ^ 0x9e37_79b9,
        seed0.wrapping_mul(6364136223846793005),
    ];
    let mut seed_f = Vec::new();
    for s in seeds {
        let pair = ours_and_lda(&ChipConfig::five_qubit_paper(), shots, s)?;
        seed_f.push(pair);
        row("seed", s.to_string(), pair);
    }
    let stats = |xs: Vec<f64>| -> (f64, f64) {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        (mean, var.sqrt())
    };
    let (m_ours, s_ours) = stats(seed_f.iter().map(|p| p.0).collect());
    let (m_lda, s_lda) = stats(seed_f.iter().map(|p| p.1).collect());
    row("seed", "mean".to_owned(), (m_ours, m_lda));
    rows.push(vec![
        "seed".to_owned(),
        "std".to_owned(),
        format!("{s_ours:.4}"),
        format!("{s_lda:.4}"),
        "-".to_owned(),
    ]);

    let never_rises = |f: &[(f64, f64)]| f.windows(2).all(|w| w[1].0 <= w[0].0 && w[1].1 <= w[0].1);
    let never_falls = |f: &[(f64, f64)]| f.windows(2).all(|w| w[1].0 >= w[0].0 && w[1].1 >= w[0].1);
    let ends = |f: &[(f64, f64)]| {
        let (first, last) = (f[0], f[f.len() - 1]);
        format!(
            "OURS {:.4} -> {:.4}, LDA {:.4} -> {:.4}",
            first.0, last.0, first.1, last.1
        )
    };
    Ok(Artifact::new(
        "sensitivity",
        format!(
            "Sensitivity: F5Q vs receiver noise, T1 scale and seed ({} seeds)",
            seeds.len()
        ),
        &["sweep", "value", "OURS F5Q", "LDA F5Q", "OURS-LDA"],
        rows,
    )
    .claim(
        "Both designs' F5Q falls monotonically as receiver noise grows",
        "extension: noise degrades every discriminator",
        ends(&noise_f),
        never_rises(&noise_f),
    )
    .claim(
        "Both designs' F5Q rises monotonically with T1",
        "extension: relaxation inside the window costs fidelity",
        ends(&t1_f),
        never_falls(&t1_f),
    ))
}

/// Adaptive readout duration by streaming early termination: each shot
/// stops integrating at the first checkpoint (3/5, 4/5 and all of the
/// window) where every qubit's softmax confidence clears the threshold; a
/// threshold above 1 never stops early. One row per threshold in
/// `confidences`: mean fidelity, mean duration, shots decided per
/// checkpoint, and the Surface-17 cycle (Sec. VII-B's model) against the
/// full window. Shared with `mlr streaming`.
pub fn adaptive_table(
    name: &'static str,
    dataset: &TraceDataset,
    split: &DatasetSplit,
    seed: u64,
    confidences: &[f64],
) -> Artifact {
    let chip = dataset.config();
    let (n, dt_ns) = (chip.n_samples, chip.dt_us() * 1000.0);
    let checkpoints = vec![3 * n / 5, 4 * n / 5, n];
    let base_cycle = QecCycleTiming::versluis_surface17(n as f64 * dt_ns);
    let mut rows = Vec::new();
    let mut durations = Vec::new();
    for &confidence in confidences {
        let spec = DiscriminatorSpec::Streaming(StreamingConfig {
            checkpoints: checkpoints.clone(),
            confidence,
            base: Default::default(),
        });
        let model = registry::fit(&spec, dataset, split, seed);
        let readout = model.as_streaming().expect("streaming family");
        let report = evaluate_streaming(readout, dataset, &split.test);
        let f = &report.per_qubit_fidelity;
        let mean_f = f.iter().sum::<f64>() / f.len() as f64;
        let dur_ns = report.mean_duration_ns(dt_ns);
        durations.push(dur_ns);
        let cycle = QecCycleTiming::versluis_surface17(dur_ns);
        rows.push(vec![
            if confidence > 1.0 {
                "never (full window)".to_owned()
            } else {
                format!("{confidence:.2}")
            },
            format!("{mean_f:.4}"),
            format!("{dur_ns:.0}"),
            joined(report.checkpoint_counts.iter().map(|c| c.to_string()), "/"),
            format!("{:.0}", cycle.cycle_ns()),
            format!("{:.1}%", 100.0 * base_cycle.relative_reduction(&cycle)),
        ]);
    }
    let cp_ns = joined(
        checkpoints
            .iter()
            .map(|&c| format!("{:.0}", c as f64 * dt_ns)),
        "/",
    );
    Artifact::new(
        name,
        format!("Adaptive readout (checkpoints {cp_ns} ns)"),
        &[
            "confidence",
            "mean fidelity",
            "mean dur (ns)",
            "decided at cp",
            "S17 cycle (ns)",
            "cycle saving",
        ],
        rows,
    )
    .claim(
        "A lower confidence threshold never lengthens the mean readout",
        "extension of Fig. 5(b): shorter readouts buy QEC cycle time",
        joined(durations.iter().map(|d| format!("{d:.0}")), " <= "),
        durations.windows(2).all(|w| w[0] <= w[1]),
    )
}

/// The adaptive-readout extension on the paper chip: the fixed-duration
/// row is Fig. 5(b)'s right edge.
pub(super) fn adaptive(knobs: &Knobs) -> Result<Artifact, ReproError> {
    let (dataset, split) = natural_data(&ChipConfig::five_qubit_paper(), knobs.shots, knobs.seed)?;
    let confidences = [0.7, 0.9, 0.95, 0.99, 2.0];
    Ok(adaptive_table(
        "adaptive",
        &dataset,
        &split,
        knobs.seed,
        &confidences,
    ))
}

/// Per-level recall of each qubit for simulator calibration: what the
/// balanced fidelities of the paper's tables decompose into. Fits OURS,
/// HERQULES, LDA and QDA (and FNN with `MLR_DIAG_FNN=1`). A diagnostic,
/// so it states no claim.
pub(super) fn diag(knobs: &Knobs) -> Result<Artifact, ReproError> {
    let (dataset, split) = natural_data(&ChipConfig::five_qubit_paper(), knobs.shots, knobs.seed)?;
    eprintln!(
        "[diag] {} shots, train {}, test {}",
        dataset.len(),
        split.train.len(),
        split.test.len()
    );
    let mut designs = vec!["OURS", "HERQULES", "LDA", "QDA"];
    if std::env::var("MLR_DIAG_FNN").as_deref() == Ok("1") {
        designs.push("FNN");
    }
    let mut rows = Vec::new();
    for name in designs {
        let model = registry::fit(&name.parse().unwrap(), &dataset, &split, knobs.seed);
        let report = evaluate(&model, &dataset, &split.test);
        for (q, recall) in report.per_level_recall.iter().enumerate() {
            let mut row = vec![format!("{} Q{}", report.design, q + 1)];
            row.extend(recall.iter().map(|r| format!("{r:.3}")));
            row.push(format!("{:.4}", report.per_qubit_fidelity[q]));
            rows.push(row);
        }
    }
    Ok(Artifact::new(
        "diag",
        "Per-level recall by design and qubit",
        &["Design", "r(|0>)", "r(|1>)", "r(|2>)", "balanced F"],
        rows,
    ))
}
