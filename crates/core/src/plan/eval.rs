//! The reference interpreter: an [`OpGraph`] run as written, shot by shot,
//! with the executor's per-pair arithmetic but no folding and no tiling.
//! Each bank row is [`dot_f32`] over the row's nonzero span plus its bias
//! (ReLU'd if set), an affine runs in `f32`, each dense layer is
//! `bias + dot_f32(row, x)` — `Mlp`'s arithmetic, on weights that narrow
//! back exactly — and the decisions are the executor's own. So it
//! reproduces a plan's [`crate::CompiledPlan::lowered_graph`] bit for
//! bit, and on a family's unfused graph it is the reference the fused
//! plan is checked against. A batch runs in the executor's 16-shot tiles
//! with one scratch per tile.

use std::ops::Range;

use mlr_nn::{dot_f32, narrow_f32};
use mlr_num::Complex;

use super::exec::{
    argmax, decide_marginal, decode_joint, nonzero_span, running_argmax, DenseF32, PLAN_TILE,
};
use super::graph::{DenseOp, Op, OpGraph, OutputStage};

/// One shot through the reference interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Trunk features (bank scores after bias, ReLU and any affine).
    pub features: Vec<f32>,
    /// Per-head logits (integer heads: dequantised outputs).
    pub logits: Vec<Vec<f32>>,
    /// Per-qubit levels.
    pub levels: Vec<usize>,
}

/// Interprets `graph` on one raw trace.
///
/// # Panics
///
/// Panics if the trunk does not start with [`Op::FlattenIq`], on
/// inconsistent dimensions, or if the trace's length differs from the
/// graph's window.
pub fn eval(graph: &OpGraph, raw: &[Complex]) -> Evaluation {
    let interpreter = Interpreter::new(graph);
    let mut sc = Scratch::default();
    let levels = interpreter.run(raw, &mut sc);
    let logits = match &graph.output {
        OutputStage::PerQubitInt { heads } => heads.iter().map(|h| h.forward(&sc.feats)).collect(),
        _ => sc.logits,
    };
    Evaluation {
        features: sc.feats,
        logits,
        levels,
    }
}

/// Interprets `graph` on a batch of raw traces, returning each shot's
/// levels: tiles of 16 shots fanned over worker threads
/// ([`crate::par_map`]), each run shot by shot with one scratch.
///
/// # Panics
///
/// As for [`eval`].
pub fn eval_batch(graph: &OpGraph, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
    let interpreter = Interpreter::new(graph);
    let tiles: Vec<&[&[Complex]]> = shots.chunks(PLAN_TILE).collect();
    let per_tile = crate::par_map(&tiles, |tile| {
        let mut sc = Scratch::default();
        tile.iter()
            .map(|raw| interpreter.run(raw, &mut sc))
            .collect::<Vec<_>>()
    });
    per_tile.into_iter().flatten().collect()
}

/// A trunk op with its weights narrowed to `f32`.
enum Step {
    Flatten(usize),
    Bank {
        rows: Vec<Vec<f32>>,
        spans: Vec<(usize, usize)>,
        bias: Vec<f32>,
        relu: bool,
    },
    Affine(Vec<f32>, Vec<f32>),
}

/// A graph with its weights narrowed once.
struct Interpreter<'g> {
    steps: Vec<Step>,
    /// The float heads — a feature range through a dense chain (an empty
    /// chain means the range is the logits): one per branch, or the one
    /// joint chain. Empty for integer heads, which run from the graph.
    heads: Vec<(Option<Range<usize>>, Vec<DenseF32>)>,
    output: &'g OutputStage,
}

/// One shot's working buffers, reused across a tile.
#[derive(Default)]
struct Scratch {
    flat: Vec<f32>,
    feats: Vec<f32>,
    cur: Vec<f32>,
    next: Vec<f32>,
    /// One logit vector per float head.
    logits: Vec<Vec<f32>>,
}

fn narrow(xs: &[f64]) -> Vec<f32> {
    let mut out = vec![0.0; xs.len()];
    narrow_f32(xs, &mut out);
    out
}

impl<'g> Interpreter<'g> {
    fn new(graph: &'g OpGraph) -> Self {
        assert!(
            matches!(graph.trunk.first(), Some(Op::FlattenIq { .. })),
            "graph trunk must start with FlattenIq"
        );
        let steps = graph
            .trunk
            .iter()
            .map(|op| match op {
                &Op::FlattenIq { n_samples } => Step::Flatten(n_samples),
                Op::MfBank(bank) => {
                    assert_eq!(bank.bias.len(), bank.rows.len(), "bank bias count");
                    let rows: Vec<Vec<f32>> = bank.rows.iter().map(|r| narrow(r)).collect();
                    Step::Bank {
                        spans: rows.iter().map(|r| nonzero_span(r)).collect(),
                        rows,
                        bias: narrow(&bank.bias),
                        relu: bank.relu,
                    }
                }
                Op::Affine(a) => Step::Affine(narrow(&a.scale), narrow(&a.shift)),
            })
            .collect();
        let chain = |layers: &[DenseOp]| layers.iter().map(DenseF32::lower).collect::<Vec<_>>();
        let heads = match &graph.output {
            OutputStage::PerQubit { branches } => branches
                .iter()
                .map(|br| (br.take.clone(), chain(&br.layers)))
                .collect(),
            OutputStage::Joint { layers, .. } | OutputStage::JointMarginal { layers, .. } => {
                vec![(None, chain(layers))]
            }
            OutputStage::PerQubitInt { .. } => Vec::new(),
        };
        Self {
            steps,
            heads,
            output: &graph.output,
        }
    }

    /// Runs one trace through the trunk and the float heads, leaving its
    /// features and logits in `sc`, and returns its levels.
    fn run(&self, raw: &[Complex], sc: &mut Scratch) -> Vec<usize> {
        let Scratch {
            flat,
            feats,
            cur,
            next,
            logits,
        } = sc;
        for step in &self.steps {
            match step {
                &Step::Flatten(n_samples) => {
                    assert_eq!(raw.len(), n_samples, "trace length != readout window");
                    flat.resize(2 * n_samples, 0.0);
                    narrow_f32(Complex::as_interleaved(raw), flat);
                }
                Step::Bank {
                    rows,
                    spans,
                    bias,
                    relu,
                } => {
                    feats.clear();
                    for ((row, &(s0, s1)), &b) in rows.iter().zip(spans).zip(bias) {
                        assert_eq!(row.len(), flat.len(), "kernel row length != 2 × window");
                        let score = dot_f32(&flat[s0..s1], &row[s0..s1]) + b;
                        feats.push(if *relu { score.max(0.0) } else { score });
                    }
                }
                Step::Affine(scale, shift) => {
                    assert_eq!(scale.len(), feats.len(), "affine width != features");
                    for ((v, &a), &b) in feats.iter_mut().zip(scale).zip(shift) {
                        *v = *v * a + b;
                    }
                }
            }
        }
        logits.resize_with(self.heads.len(), Vec::new);
        for ((take, layers), out) in self.heads.iter().zip(logits.iter_mut()) {
            cur.clear();
            cur.extend_from_slice(&feats[take.clone().unwrap_or(0..feats.len())]);
            for layer in layers {
                assert_eq!(cur.len(), layer.n_in, "dense input width");
                next.clear();
                for (row, &bias) in layer.w.chunks_exact(layer.n_in).zip(&layer.b) {
                    let acc = bias + dot_f32(row, cur);
                    next.push(if layer.relu { acc.max(0.0) } else { acc });
                }
                std::mem::swap(cur, next);
            }
            out.clone_from(cur);
        }
        match self.output {
            OutputStage::PerQubit { .. } => self
                .heads
                .iter()
                .zip(logits.iter())
                .map(|((_, layers), xs)| {
                    if layers.is_empty() {
                        argmax(xs)
                    } else {
                        running_argmax(xs)
                    }
                })
                .collect(),
            &OutputStage::Joint {
                n_qubits, levels, ..
            } => decode_joint(running_argmax(&logits[0]), n_qubits, levels),
            &OutputStage::JointMarginal {
                n_qubits, levels, ..
            } => decide_marginal(&logits[0], n_qubits, levels),
            OutputStage::PerQubitInt { heads } => heads.iter().map(|h| h.predict(feats)).collect(),
        }
    }
}

/// Asserts every logit in `got` lies within the plan logit tolerance
/// (1e-4 relative) of the matching one in `want`.
#[cfg(test)]
pub(crate) fn assert_logits_close<T: Copy + Into<f64>>(got: &[f32], want: &[T], what: &str) {
    assert_eq!(got.len(), want.len(), "logit count, {what}");
    for (&a, &b) in got.iter().zip(want) {
        let (a, b) = (f64::from(a), b.into());
        assert!(
            (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
            "{what}: {a} vs {b}"
        );
    }
}
