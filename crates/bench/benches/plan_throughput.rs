//! Criterion microbenches of the compiled inference plans: the fused
//! single-pass kernels ([`mlr_core::CompiledPlan`]) vs the reference
//! path (`plan::eval` on the family's unfused graph, one single-pair dot
//! per row and shot) on the same shots, for every family the plan
//! compiler converts.
//!
//! The acceptance bar tracked in `BENCH_throughput.json`: the fused plan
//! must never be slower than the reference — it folds the
//! standardizer into downstream weights, scores the matched-filter bank
//! in register blocks over a contiguous f32 tile, runs the heads over
//! 8-shot lanes, and dispatches to the AVX2 kernels where the host
//! supports them (`mlr throughput --check-plan` gates the same invariant
//! in CI).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use mlr_core::{registry, Discriminator, DiscriminatorSpec, HerqulesConfig};
use mlr_sim::{ChipConfig, TraceDataset};

struct Fixtures {
    dataset: TraceDataset,
    models: Vec<mlr_core::TrainedModel>,
}

/// One small natural-leakage dataset and minimally trained models for
/// each plan-served family (these benches time inference, not training
/// quality).
fn fixtures() -> Fixtures {
    let mut config = ChipConfig::five_qubit_paper();
    for q in &mut config.qubits {
        q.prep_leak_prob = (q.prep_leak_prob * 6.0).min(0.2);
    }
    let dataset = TraceDataset::generate_natural(&config, 40, 404);
    let split = dataset.split(0.5, 0.1, 404);
    let specs = [
        DiscriminatorSpec::default().with_epochs(3),
        DiscriminatorSpec::Herqules(HerqulesConfig::default()).with_epochs(3),
    ];
    let models = specs
        .iter()
        .map(|spec| registry::fit(spec, &dataset, &split, 404))
        .collect();
    Fixtures { dataset, models }
}

fn bench_plan_vs_layered(c: &mut Criterion) {
    let f = fixtures();
    let total = f.dataset.len().min(512);
    let shots: Vec<&[mlr_num::Complex]> = (0..total).map(|i| f.dataset.raw(i)).collect();

    let mut group = c.benchmark_group("plan_throughput");
    group.sample_size(10);
    for model in &f.models {
        assert!(model.has_plan(), "{} should compile a plan", model.name());
        // The fused single-pass plan (what predict_batch now runs).
        group.bench_function(&format!("{}_fused_{total}", model.name()), |b| {
            b.iter(|| black_box(model.predict_batch(black_box(&shots))))
        });
        // The reference path the plan is checked against.
        group.bench_function(&format!("{}_layered_{total}", model.name()), |b| {
            b.iter(|| black_box(model.predict_batch_layered(black_box(&shots))))
        });
        // Per-shot latency through the plan (a QEC cycle decides one shot
        // at a time; tile-of-one must stay cheap).
        let one = shots[0];
        group.bench_function(&format!("{}_fused_per_shot", model.name()), |b| {
            b.iter(|| black_box(model.predict_shot(black_box(one))))
        });
    }
    group.finish();

    // Headline numbers for the docs, printed so README/BENCH figures are
    // reproducible from `cargo bench -p mlr-bench --bench plan_throughput`.
    // Interleaved best-of-N: alternating passes so scheduler noise on a
    // shared machine hits both paths equally.
    for model in &f.models {
        let mut t_fused = f64::INFINITY;
        let mut t_layered = f64::INFINITY;
        for _ in 0..20 {
            let t = std::time::Instant::now();
            black_box(model.predict_batch(black_box(&shots)));
            t_fused = t_fused.min(t.elapsed().as_secs_f64());
            let t = std::time::Instant::now();
            black_box(model.predict_batch_layered(black_box(&shots)));
            t_layered = t_layered.min(t.elapsed().as_secs_f64());
        }
        println!(
            "{}: fused {:.0} shots/s vs layered {:.0} shots/s over {} shots — {:.2}x",
            model.name(),
            total as f64 / t_fused,
            total as f64 / t_layered,
            total,
            t_layered / t_fused,
        );
    }
}

criterion_group!(benches, bench_plan_vs_layered);
criterion_main!(benches);
