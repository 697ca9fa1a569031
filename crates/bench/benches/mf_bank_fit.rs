//! Criterion bench of the matched-filter fit: the step of the OURS and
//! HERQULES fits that demodulates every training shot for every qubit and
//! fits that qubit's bank, pairing with `dataset_generation` and
//! `head_training` so each set-up stage has a bench.
//!
//! `fit_joint_paper5_972shots_emf` times one `FeatureExtractor::fit_joint`
//! (nine filters per qubit, no joint neighbours) on the paper chip's
//! 972-shot training split: 243 states × 16 shots, cut by `paper_split`,
//! as the `paper5` serving workload sets up.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mlr_core::FeatureExtractor;
use mlr_dsp::MatchedFilterKind;
use mlr_sim::{ChipConfig, TraceDataset};

fn bench_mf_bank_fit(c: &mut Criterion) {
    let data = TraceDataset::generate(&ChipConfig::five_qubit_paper(), 3, 16, 7);
    let split = data.paper_split(7);
    assert_eq!(split.train.len(), 972, "the paper5 training split");

    let mut group = c.benchmark_group("mf_bank_fit");
    group.sample_size(20);
    group.bench_function("fit_joint_paper5_972shots_emf", |b| {
        b.iter(|| {
            black_box(FeatureExtractor::fit_joint(
                black_box(&data),
                &split.train,
                true,
                MatchedFilterKind::VarianceSum,
                0,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mf_bank_fit);
criterion_main!(benches);
