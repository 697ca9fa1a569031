//! Criterion bench of head training: one OURS-shaped `[45, 22, 11, 3]`
//! head trained with mini-batch Adam, the step `registry::fit` repeats
//! once per qubit.
//!
//! `ours_head_972x45_batch64_3epochs` times a whole `Mlp::train` call on
//! 972 standardised-looking samples (the paper5 training split's size)
//! with inverse-frequency class weights and a 146-sample validation set,
//! as the OURS fit runs it.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

use mlr_nn::{inverse_frequency_weights, Mlp, TrainConfig, TrainData};

/// `n` samples of 45 features around three class centres, with the
/// classes imbalanced the way naturally leaked `|2⟩` labels are.
fn blobs(n: usize, seed: u64) -> TrainData {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let y = match i % 20 {
            0 => 2,
            k if k % 2 == 0 => 1,
            _ => 0,
        };
        inputs.push(
            (0..45)
                .map(|k| {
                    let centre = if k % 3 == y { 1.0 } else { -0.5 };
                    centre + rng.gen::<f32>() * 2.0 - 1.0
                })
                .collect(),
        );
        labels.push(y);
    }
    TrainData::new(inputs, labels, 3).expect("well-formed blobs")
}

fn bench_head_training(c: &mut Criterion) {
    let train = blobs(972, 1);
    let val = blobs(146, 2);
    let config = TrainConfig {
        epochs: 3,
        batch_size: 64,
        early_stop_patience: None,
        class_weights: Some(inverse_frequency_weights(train.labels(), 3, 25.0)),
        ..TrainConfig::default()
    };

    let mut group = c.benchmark_group("head_training");
    group.sample_size(20);
    group.bench_function("ours_head_972x45_batch64_3epochs", |b| {
        b.iter(|| {
            let mut head = Mlp::new(&[45, 22, 11, 3], 7);
            black_box(head.train(black_box(&train), Some(&val), &config));
            head
        })
    });
    group.finish();
}

criterion_group!(benches, bench_head_training);
criterion_main!(benches);
