//! Readout-duration trade-off (Fig. 5(b)): truncate the readout window,
//! refit the discriminator, and watch where accuracy starts to pay.
//!
//! ```sh
//! cargo run --release --example fast_readout
//! ```

use mlr_core::{evaluate, registry, DiscriminatorSpec};
use mlr_qec::QecCycleTiming;
use mlr_sim::{ChipConfig, TraceDataset};

fn main() {
    // Small chip for speed; `mlr repro fig5b` runs the paper-scale
    // five-qubit sweep.
    let mut config = ChipConfig::uniform(2);
    config.qubits[0].prep_leak_prob = 0.03;
    config.qubits[1].prep_leak_prob = 0.05;
    let dataset = TraceDataset::generate_natural(&config, 300, 3);
    let split = dataset.paper_split(3);

    println!("duration  mean fidelity  QEC cycle (Surface-17)");
    for n_samples in [150usize, 200, 250, 300, 350, 400, 450, 500] {
        let truncated = dataset.truncated(n_samples);
        let ours = registry::fit(&DiscriminatorSpec::default(), &truncated, &split, 3);
        let report = evaluate(&ours, &truncated, &split.test);
        let mean =
            report.per_qubit_fidelity.iter().sum::<f64>() / report.per_qubit_fidelity.len() as f64;
        let duration_ns = n_samples as f64 * 2.0;
        let cycle = QecCycleTiming::versluis_surface17(duration_ns);
        println!(
            "{:>5} ns        {:.4}         {:>6.0} ns",
            duration_ns,
            mean,
            cycle.cycle_ns()
        );
    }
    println!(
        "\nThe knee of this curve is where the paper's '20% shorter readout for free'\n\
         claim lives: above it, shaving readout time costs almost nothing."
    );
}
