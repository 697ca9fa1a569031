//! Integration tests comparing all four discriminator families on one
//! shared dataset through the common `Discriminator` trait.

use mlr_core::{
    evaluate, DiscriminantAnalysis, DiscriminantKind, Discriminator, FnnBaseline, FnnConfig,
    HerqulesBaseline, HerqulesConfig, OursConfig, OursDiscriminator,
};
use mlr_nn::TrainConfig;
use mlr_sim::{ChipConfig, DatasetSplit, TraceDataset};

fn shared() -> (TraceDataset, DatasetSplit) {
    let mut config = ChipConfig::uniform(2);
    config.n_samples = 200;
    config.qubits[0].prep_leak_prob = 0.05;
    config.qubits[1].prep_leak_prob = 0.05;
    let dataset = TraceDataset::generate_natural(&config, 200, 17);
    let split = dataset.paper_split(17);
    (dataset, split)
}

fn quick_train() -> TrainConfig {
    TrainConfig {
        epochs: 25,
        batch_size: 32,
        ..TrainConfig::default()
    }
}

#[test]
fn all_designs_expose_consistent_interfaces() {
    let (dataset, split) = shared();
    let designs: Vec<Box<dyn Discriminator>> = vec![
        Box::new(OursDiscriminator::fit(
            &dataset,
            &split,
            &OursConfig {
                train: quick_train(),
                ..OursConfig::default()
            },
        )),
        Box::new(HerqulesBaseline::fit(
            &dataset,
            &split,
            &HerqulesConfig {
                train: quick_train(),
                ..HerqulesConfig::default()
            },
        )),
        Box::new(FnnBaseline::fit(
            &dataset,
            &split,
            &FnnConfig {
                hidden: vec![64, 32],
                train: quick_train(),
            },
        )),
        Box::new(DiscriminantAnalysis::fit(
            &dataset,
            &split,
            DiscriminantKind::Qda,
        )),
    ];

    let names: Vec<&str> = designs.iter().map(|d| d.name()).collect();
    assert_eq!(names, vec!["OURS", "HERQULES", "FNN", "QDA"]);

    for d in &designs {
        assert_eq!(d.n_qubits(), 2);
        let decided = d.predict_shot(dataset.raw(3));
        assert_eq!(decided.len(), 2);
        assert!(decided.iter().all(|&l| l < 3), "{}: {decided:?}", d.name());

        let report = evaluate(d.as_ref(), &dataset, &split.test);
        assert_eq!(report.design, d.name());
        assert_eq!(report.n_shots, split.test.len());
        for q in 0..2 {
            assert!((0.0..=1.0).contains(&report.per_qubit_fidelity[q]));
            assert!(report.per_qubit_micro[q] >= 0.0);
            // Every design must comfortably beat 3-way chance on the
            // computational recalls.
            assert!(
                report.per_level_recall[q][0] > 0.6,
                "{} q{q} r0 {:?}",
                d.name(),
                report.per_level_recall[q]
            );
        }
    }

    // Model-size ordering: OURS tiny, HERQULES mid, FNN huge, QDA zero.
    let w: Vec<usize> = designs.iter().map(|d| d.weight_count()).collect();
    assert!(w[0] < w[1] && w[1] < w[2], "weights {w:?}");
    assert_eq!(w[3], 0);
}

#[test]
fn joint_output_designs_lose_leakage_recall() {
    // The paper's central comparison: per-qubit heads keep leakage recall,
    // joint k^n-argmax heads lose it under natural class imbalance.
    let (dataset, split) = shared();
    let ours = OursDiscriminator::fit(
        &dataset,
        &split,
        &OursConfig {
            train: quick_train(),
            ..OursConfig::default()
        },
    );
    let herq = HerqulesBaseline::fit(
        &dataset,
        &split,
        &HerqulesConfig {
            train: quick_train(),
            ..HerqulesConfig::default()
        },
    );
    let r_ours = evaluate(&ours, &dataset, &split.test);
    let r_herq = evaluate(&herq, &dataset, &split.test);
    let mean_leak_recall =
        |r: &mlr_core::EvalReport| (r.per_level_recall[0][2] + r.per_level_recall[1][2]) / 2.0;
    assert!(
        mean_leak_recall(&r_ours) >= mean_leak_recall(&r_herq),
        "OURS {:.3} vs HERQULES {:.3}",
        mean_leak_recall(&r_ours),
        mean_leak_recall(&r_herq)
    );
}
