//! Criterion microbenches of the discriminators' **inference** paths —
//! the quantitative backing for the paper's latency claims (Table VI's
//! Speed column; the proposed design must classify within a few ns of
//! hardware latency, so its software path must be a handful of dot
//! products).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mlr_bench::measure_throughput;
use mlr_core::{
    DiscriminantAnalysis, DiscriminantKind, Discriminator, FnnBaseline, FnnConfig,
    HerqulesBaseline, HerqulesConfig, OursConfig, OursDiscriminator,
};
use mlr_dsp::{iq_features, Demodulator};
use mlr_nn::TrainConfig;
use mlr_sim::{ChipConfig, TraceDataset};

struct Fixtures {
    dataset: TraceDataset,
    ours: OursDiscriminator,
    herqules: HerqulesBaseline,
    fnn: FnnBaseline,
    lda: DiscriminantAnalysis,
    demod: Demodulator,
}

/// One small natural-leakage dataset and all four fitted designs.
/// Training budgets are minimal: these benches time *inference*.
fn fixtures() -> Fixtures {
    let mut config = ChipConfig::five_qubit_paper();
    // More natural leakage so every level is present in a small dataset.
    for q in &mut config.qubits {
        q.prep_leak_prob = (q.prep_leak_prob * 6.0).min(0.2);
    }
    let dataset = TraceDataset::generate_natural(&config, 60, 404);
    let split = dataset.split(0.5, 0.1, 404);
    let quick_train = TrainConfig {
        epochs: 3,
        early_stop_patience: None,
        ..TrainConfig::default()
    };
    let ours = OursDiscriminator::fit(
        &dataset,
        &split,
        &OursConfig {
            train: quick_train.clone(),
            ..OursConfig::default()
        },
    );
    let herqules = HerqulesBaseline::fit(
        &dataset,
        &split,
        &HerqulesConfig {
            train: quick_train.clone(),
            ..HerqulesConfig::default()
        },
    );
    let fnn = FnnBaseline::fit(
        &dataset,
        &split,
        &FnnConfig {
            train: quick_train,
            ..FnnConfig::default()
        },
    );
    let lda = DiscriminantAnalysis::fit(&dataset, &split, DiscriminantKind::Lda);
    let demod = Demodulator::new(dataset.config());
    Fixtures {
        dataset,
        ours,
        herqules,
        fnn,
        lda,
        demod,
    }
}

fn bench_inference(c: &mut Criterion) {
    let f = fixtures();
    let raw = f.dataset.raw(0);

    let mut group = c.benchmark_group("inference_per_shot");
    group.sample_size(40);
    group.bench_function("demodulate_5ch", |b| {
        b.iter(|| black_box(f.demod.demodulate_all(black_box(raw))))
    });
    group.bench_function("iq_features_1000", |b| {
        b.iter(|| black_box(iq_features(black_box(raw))))
    });
    group.bench_function("ours_45mf_plus_5_heads", |b| {
        b.iter(|| black_box(f.ours.predict_shot(black_box(raw))))
    });
    group.bench_function("herqules_30mf_joint243", |b| {
        b.iter(|| black_box(f.herqules.predict_shot(black_box(raw))))
    });
    group.bench_function("fnn_686k_weights", |b| {
        b.iter(|| black_box(f.fnn.predict_shot(black_box(raw))))
    });
    group.bench_function("lda_integrated_iq", |b| {
        b.iter(|| black_box(f.lda.predict_shot(black_box(raw))))
    });
    group.finish();

    // Feature stage in isolation: the matched-filter bank (45 dot products).
    let mut group = c.benchmark_group("feature_extraction");
    group.sample_size(40);
    group.bench_function("mf_bank_45_filters", |b| {
        b.iter(|| black_box(f.ours.extractor().extract(black_box(raw))))
    });
    group.bench_function("mf_bank_45_filters_fused", |b| {
        b.iter(|| black_box(f.ours.extractor().extract_fused(black_box(raw))))
    });
    group.finish();
}

/// Per-shot loop vs one `predict_batch` call on ≥1000 five-qubit shots —
/// the throughput claim of the batch-first refactor. The shim criterion
/// prints per-iteration time; divide the two lines (or read the printed
/// shots/s) for the speedup.
fn bench_batch_throughput(c: &mut Criterion) {
    let f = fixtures();
    assert!(
        f.dataset.len() >= 1000,
        "the fixture must generate at least 1000 shots for the throughput claim"
    );
    let shots: Vec<&[mlr_num::Complex]> = (0..1000).map(|i| f.dataset.raw(i)).collect();

    let mut group = c.benchmark_group("batch_throughput");
    group.sample_size(10);
    group.bench_function("ours_per_shot_1000", |b| {
        b.iter(|| {
            let decisions: Vec<Vec<usize>> = shots
                .iter()
                .map(|raw| f.ours.predict_shot(black_box(raw)))
                .collect();
            black_box(decisions)
        })
    });
    group.bench_function("ours_predict_batch_1000", |b| {
        b.iter(|| black_box(f.ours.predict_batch(black_box(&shots))))
    });
    group.bench_function("herqules_per_shot_1000", |b| {
        b.iter(|| {
            let decisions: Vec<Vec<usize>> = shots
                .iter()
                .map(|raw| f.herqules.predict_shot(black_box(raw)))
                .collect();
            black_box(decisions)
        })
    });
    group.bench_function("herqules_predict_batch_1000", |b| {
        b.iter(|| black_box(f.herqules.predict_batch(black_box(&shots))))
    });
    group.finish();

    // The measured rates, printed so CHANGES.md numbers are reproducible
    // from `cargo bench -p mlr-bench --bench discriminators`.
    let report = measure_throughput(&f.ours, &shots);
    println!(
        "ours: per-shot {:.0} shots/s, batch {:.0} shots/s, speedup {:.2}x over {} shots",
        report.per_shot_rate,
        report.batch_rate,
        report.speedup(),
        report.n_shots
    );
}

criterion_group!(benches, bench_inference, bench_batch_throughput);
criterion_main!(benches);
