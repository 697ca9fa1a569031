//! Criterion microbenches for the workspace extensions: streaming
//! demodulation + accumulation, integer vs float NN inference, and the
//! related-work discriminators (HMM, autoencoder).
//!
//! The latency-sensitive numbers here back the deployment story: a
//! streaming sample update must beat the 2 ns ADC period on a real part
//! (we measure hundreds of picoseconds to a few nanoseconds per push on a
//! host CPU), and integer head inference costs no more than float.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use mlr_core::{OursConfig, StreamingConfig, StreamingReadout};
use mlr_dsp::StreamingDemodulator;
use mlr_nn::{FixedPointFormat, IntMlp, Mlp, QuantizedMlp};
use mlr_sim::{ChipConfig, TraceDataset};

fn bench_streaming_demod(c: &mut Criterion) {
    let chip = ChipConfig::five_qubit_paper();
    let mut demod = StreamingDemodulator::new(&chip);
    let sample = mlr_num::Complex::new(0.7, -0.3);
    c.bench_function("streaming_demod_push_5q", |b| {
        b.iter(|| black_box(demod.push(black_box(sample))[4]))
    });
}

fn bench_shot_stream_push(c: &mut Criterion) {
    let mut chip = ChipConfig::uniform(2);
    chip.n_samples = 200;
    let ds = TraceDataset::generate(&chip, 3, 20, 3);
    let split = ds.split(0.5, 0.0, 3);
    let readout = StreamingReadout::fit(
        &ds,
        &split,
        &StreamingConfig {
            checkpoints: vec![100, 200],
            confidence: 2.0,
            base: OursConfig::default(),
        },
    );
    let raw = ds.raw(0).to_vec();
    c.bench_function("shot_stream_full_trace_200", |b| {
        b.iter_batched(
            || readout.begin_shot(),
            |mut stream| {
                for &z in &raw {
                    if stream.push(z).is_some() {
                        break;
                    }
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_int_vs_float_head(c: &mut Criterion) {
    // The paper-shaped per-qubit head.
    let head = Mlp::new(&[45, 22, 11, 3], 7);
    let int_head = IntMlp::from_mlp(&head, FixedPointFormat::HLS4ML_DEFAULT);
    let q_head = QuantizedMlp::from_mlp(&head, FixedPointFormat::HLS4ML_DEFAULT);
    let x: Vec<f32> = (0..45).map(|i| ((i as f32) * 0.17).sin()).collect();
    let mut group = c.benchmark_group("head_inference");
    group.bench_function("float_f32", |b| {
        b.iter(|| black_box(head.predict(black_box(&x))))
    });
    group.bench_function("int_q16", |b| {
        b.iter(|| black_box(int_head.predict(black_box(&x))))
    });
    group.bench_function("quantized_f64_model", |b| {
        b.iter(|| black_box(q_head.predict(black_box(&x))))
    });
    group.finish();
}

fn bench_related_work_predict(c: &mut Criterion) {
    use mlr_core::{AutoencoderBaseline, AutoencoderConfig, Discriminator, HmmBaseline, HmmConfig};
    use mlr_nn::TrainConfig;

    let mut chip = ChipConfig::uniform(2);
    chip.n_samples = 200;
    let ds = TraceDataset::generate(&chip, 3, 20, 5);
    let split = ds.split(0.5, 0.0, 5);
    let hmm = HmmBaseline::fit(&ds, &split, &HmmConfig::default());
    let ae = AutoencoderBaseline::fit(
        &ds,
        &split,
        &AutoencoderConfig {
            ae_train: TrainConfig {
                epochs: 10,
                ..AutoencoderConfig::default().ae_train
            },
            head_train: TrainConfig {
                epochs: 10,
                ..AutoencoderConfig::default().head_train
            },
            ..AutoencoderConfig::default()
        },
    );
    let raw = ds.raw(0).to_vec();
    let mut group = c.benchmark_group("related_work_predict_shot");
    group.bench_function("hmm_2q", |b| {
        b.iter(|| black_box(hmm.predict_shot(black_box(&raw))))
    });
    group.bench_function("autoencoder_2q", |b| {
        b.iter(|| black_box(ae.predict_shot(black_box(&raw))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_streaming_demod, bench_shot_stream_push, bench_int_vs_float_head, bench_related_work_predict
}
criterion_main!(benches);
