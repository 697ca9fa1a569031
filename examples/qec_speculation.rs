//! Leakage speculation in QEC (Sec. III / Tables I and VI): how multi-level
//! readout accelerates ERASER-style leakage mitigation on a surface code.
//!
//! ```sh
//! cargo run --release --example qec_speculation
//! ```

use mlr_qec::{
    logical_error_rate, ConfusionMatrixHerald, DecoderKind, EraserConfig, EraserExperiment,
    QecCycleTiming, SpeculationMode, SurfaceCode,
};

fn main() {
    let exp = EraserExperiment::new(EraserConfig {
        distance: 5,
        trials: 200,
        ..EraserConfig::default()
    });

    println!("Distance-5 surface code, 10 QEC cycles, 200 trials\n");
    let plain = exp.run(SpeculationMode::Eraser);
    println!(
        "ERASER (2-level readout):   accuracy {:.3}, leakage population {:.2e}",
        plain.speculation_accuracy, plain.leakage_population
    );

    println!("\nERASER+M vs three-level readout error:");
    for err in [0.02, 0.05, 0.10, 0.20] {
        let res = exp.run(SpeculationMode::EraserM { readout_error: err });
        println!(
            "  readout error {:>4.0}% -> accuracy {:.3}, LP {:.2e}, false flags {:.3}/qubit/cycle",
            err * 100.0,
            res.speculation_accuracy,
            res.leakage_population,
            res.false_flag_rate
        );
    }

    // The decoder behind the logical-failure column: union-find restores
    // the full effective distance greedy matching loses (greedy's only
    // steps every other d, so d=5 buys it nothing over d=3).
    println!("\nLogical error rate at p=0.5% IID X noise (20k trials):");
    for kind in [DecoderKind::Greedy, DecoderKind::UnionFind] {
        let lers: Vec<String> = [3usize, 5, 7]
            .iter()
            .map(|&d| {
                let ler = logical_error_rate(&SurfaceCode::rotated(d), kind, 0.005, 20_000, 9);
                format!("d={d} {ler:.2e}")
            })
            .collect();
        println!("  {kind:<11} {}", lers.join("  "));
    }

    // Closing the readout→QEC loop: the end-of-run erasure set is itself a
    // *measurement*. A noisy herald (readout assignment error) erases
    // healthy qubits and misses leaked ones, so the union-find decoder's
    // erasure payoff erodes as readout quality drops — greedy, which
    // ignores erasures, is the flat baseline. (`mlr qec sweep` scans the
    // full grid; `mlr repro herald_sweep` adds discriminator-backed heralds.)
    println!("\nLogical failure vs herald assignment error (d=5 union-find vs greedy):");
    let mode = SpeculationMode::EraserM {
        readout_error: 0.05,
    };
    for kind in [DecoderKind::Greedy, DecoderKind::UnionFind] {
        let exp = EraserExperiment::new(EraserConfig {
            distance: 5,
            trials: 200,
            decoder: kind,
            ..EraserConfig::default()
        });
        let cells: Vec<String> = [0.0, 0.05, 0.2]
            .iter()
            .map(|&err| {
                let res = exp.run_with_herald(mode, &ConfusionMatrixHerald::symmetric(err));
                format!("err {err:>4}: {:.3}", res.logical_failure_rate)
            })
            .collect();
        println!("  {kind:<11} {}", cells.join("  "));
    }

    // The other half of the story: faster readout shortens every cycle.
    let base = QecCycleTiming::versluis_surface17(1000.0);
    let fast = QecCycleTiming::versluis_surface17(800.0);
    println!(
        "\nFaster readout (1 us -> 800 ns) shortens the Surface-17 QEC cycle by {:.1}%",
        100.0 * base.relative_reduction(&fast)
    );
}
