//! The hardware artifacts: one table builder behind Fig. 1(d), Fig. 5(a),
//! Sec. VII-D and `mlr resources`, and the Sec. IV-C scaling sweep behind
//! `mlr scaling`.

use mlr_fpga::{max_feasible_qubits, scaling_study, DiscriminatorHw, FpgaDevice, PowerModel};

use super::{ratio, times, Artifact, Knobs, ReproError};

/// Back-to-back 1 µs readouts: one inference per microsecond.
const INFERENCE_RATE_HZ: f64 = 1.0e6;

/// The columns of [`hardware_table`], in print order: NN weights; LUTs,
/// flip-flops, block RAMs and DSP slices, each as a count and a share of
/// the part; whether the design fits at reuse 1; latency in cycles and in
/// ns, NN-engine power at 1 MHz inference, and dynamic energy per
/// inference under the 45 nm model; the FPGA speed class.
pub const HW_COLUMNS: [&str; 11] = [
    "weights",
    "LUT",
    "FF",
    "BRAM",
    "DSP",
    "fits?",
    "cycles",
    "latency (ns)",
    "power (mW)",
    "energy/inf (nJ)",
    "class",
];

/// OURS, HERQULES and FNN as the paper builds them for `n` qubits × `k`
/// levels on `samples`-sample traces.
pub(super) fn paper_designs(n: usize, k: usize, samples: usize) -> [DiscriminatorHw; 3] {
    [
        DiscriminatorHw::ours_paper(n, k, samples),
        DiscriminatorHw::herqules_paper(n, k, samples),
        DiscriminatorHw::fnn_paper(n, k, samples),
    ]
}

/// The paper's FPGA part.
fn device() -> FpgaDevice {
    FpgaDevice::xczu7ev()
}

/// One row per paper design (OURS, HERQULES, FNN) for `n` qubits × `k`
/// levels on `samples`-sample traces, on the xczu7ev and under the 45 nm
/// power model, with the `columns` (of [`HW_COLUMNS`]) asked for.
///
/// # Panics
///
/// Panics if a column is not one of [`HW_COLUMNS`].
pub fn hardware_table(
    name: &'static str,
    title: &str,
    (n, k, samples): (usize, usize, usize),
    columns: &[&str],
) -> Artifact {
    let device = device();
    let power = PowerModel::tsmc45();
    let rows = paper_designs(n, k, samples)
        .iter()
        .map(|hw| {
            let est = hw.estimate(&device);
            let util = est.utilization(&device);
            let share = |count: usize, pct: f64| format!("{count} ({pct:.1}%)");
            let cells = [
                hw.nn_weights.to_string(),
                share(est.luts, util.lut_pct),
                share(est.ffs, util.ff_pct),
                share(est.brams, util.bram_pct),
                share(est.dsps, util.dsp_pct),
                if est.fits(&device) { "yes" } else { "NO" }.to_owned(),
                hw.latency_cycles().to_string(),
                format!("{:.0}", power.latency_ns(hw)),
                format!("{:.3}", power.nn_power_mw(hw, INFERENCE_RATE_HZ)),
                format!("{:.1}", power.energy_per_inference_pj(hw) / 1000.0),
                hw.speed_class(&device).to_owned(),
            ];
            let mut row = vec![hw.name.clone()];
            row.extend(columns.iter().map(|c| {
                let i = HW_COLUMNS.iter().position(|h| h == c);
                cells[i.expect("a hardware column")].clone()
            }));
            row
        })
        .collect();
    let mut header = vec!["Design"];
    header.extend(columns);
    Artifact::new(name, title, &header, rows)
}

/// Fig. 1(d): FPGA LUT utilisation of the three designs on the xczu7ev.
pub(super) fn fig1d(_: &Knobs) -> Result<Artifact, ReproError> {
    let device = device();
    let [ours, herq, fnn] = paper_designs(5, 3, 500).map(|hw| hw.estimate(&device).luts as f64);
    let a = hardware_table(
        "fig1d",
        &format!("Fig. 1(d): LUT utilisation on {}", device.name),
        (5, 3, 500),
        &["weights", "LUT", "fits?"],
    );
    let more = |a: Artifact, statement: &str, paper: &str, r: Option<f64>, digits: usize| {
        a.claim(
            statement,
            paper,
            times(r, digits),
            r.is_some_and(|r| r > 1.0),
        )
    };
    let a = more(
        a,
        "FNN needs more LUTs than OURS",
        "~60x (420% vs 7% of the part)",
        ratio(fnn, ours),
        0,
    );
    let a = more(
        a,
        "FNN needs more LUTs than HERQULES",
        "~15x (420% vs 28%)",
        ratio(fnn, herq),
        0,
    );
    Ok(more(
        a,
        "HERQULES needs more LUTs than OURS",
        "~4x (28% vs 7%)",
        ratio(herq, ours),
        1,
    ))
}

/// Fig. 5(a): full FPGA resources (LUT / FF / BRAM / DSP), latency and
/// NN-engine power of the three designs on the xczu7ev.
pub(super) fn fig5a(_: &Knobs) -> Result<Artifact, ReproError> {
    let device = device();
    let [ours, herq, _] = paper_designs(5, 3, 500).map(|hw| hw.estimate(&device));
    let luts = ratio(herq.luts as f64, ours.luts as f64);
    let ffs = ratio(herq.ffs as f64, ours.ffs as f64);
    Ok(hardware_table(
        "fig5a",
        &format!("Fig. 5(a): resource utilisation on {}", device.name),
        (5, 3, 500),
        &["LUT", "FF", "BRAM", "DSP", "cycles", "power (mW)"],
    )
    .claim(
        "OURS needs fewer LUTs than HERQULES",
        "~4x fewer",
        format!("{} fewer", times(luts, 1)),
        luts.is_some_and(|r| r > 1.0),
    )
    .claim(
        "OURS needs fewer FFs than HERQULES",
        ">5x fewer",
        format!("{} fewer", times(ffs, 1)),
        ffs.is_some_and(|r| r > 1.0),
    ))
}

/// Sec. VII-D: power, energy and latency of the three designs' NN engines
/// under the 45 nm model.
pub(super) fn sec7d(_: &Knobs) -> Result<Artifact, ReproError> {
    let power = PowerModel::tsmc45();
    let ours = DiscriminatorHw::ours_paper(5, 3, 500);
    let (mw, ns) = (
        power.nn_power_mw(&ours, INFERENCE_RATE_HZ),
        power.latency_ns(&ours),
    );
    Ok(hardware_table(
        "sec7d",
        &format!(
            "Sec. VII-D: 45 nm power model at {} GHz, 1 MHz inference rate",
            power.clock_ghz
        ),
        (5, 3, 500),
        &["weights", "power (mW)", "energy/inf (nJ)", "latency (ns)"],
    )
    .claim(
        "The OURS NN engine draws 1.561 mW with a 5 ns latency",
        "1.561 mW, 5 ns (5 cycles at 1 GHz)",
        format!("{mw:.3} mW, {ns:.0} ns ({} cycles)", ours.latency_cycles()),
        (mw - 1.561).abs() < 5e-4 && ns == 5.0,
    ))
}

/// Sec. IV-C: model size and FPGA feasibility of the three architectures
/// as the qubit count `n` and level count `k` grow, on `samples`-sample
/// traces. Joint classifiers carry a `kⁿ` output layer; the proposed
/// per-qubit heads grow polynomially (`O(nk²)` input, `n` heads).
pub fn scaling(samples: usize) -> Artifact {
    let device = device();
    let levels = [2usize, 3, 4];
    let points = scaling_study(&[2, 3, 5, 8, 10, 15, 20], &levels, samples, &device);
    let rows = points
        .iter()
        .map(|p| {
            vec![
                p.levels.to_string(),
                p.n_qubits.to_string(),
                p.design.clone(),
                p.joint_states.to_string(),
                p.nn_weights.to_string(),
                p.estimate.luts.to_string(),
                if p.fits { "yes" } else { "NO" }.to_owned(),
                p.min_reuse.map_or("never".to_owned(), |r| format!("R={r}")),
            ]
        })
        .collect();
    let mut a = Artifact::new(
        "scaling",
        format!(
            "Sec. IV-C scaling sweep ({}, {samples}-sample traces)",
            device.name
        ),
        &[
            "k",
            "n",
            "design",
            "k^n states",
            "NN weights",
            "LUTs",
            "fits @R=1?",
            "min reuse",
        ],
        rows,
    );
    for k in levels {
        let frontier = ["OURS", "HERQULES", "FNN"].map(|d| max_feasible_qubits(&points, d, k));
        let shown = |n: Option<usize>| n.map_or("never".to_owned(), |n| format!("n <= {n}"));
        a = a.claim(
            &format!("At k = {k}, OURS fits at more qubits than HERQULES and FNN (any reuse)"),
            "OURS polynomial in (n, k); HERQULES and FNN exponential in n via the k^n output layer",
            format!(
                "OURS {}, HERQULES {}, FNN {}",
                shown(frontier[0]),
                shown(frontier[1]),
                shown(frontier[2])
            ),
            frontier[0] > frontier[1] && frontier[0] > frontier[2],
        );
    }
    a
}
