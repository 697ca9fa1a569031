//! The compiler's back end: lowering a fused [`OpGraph`] to `f32` tile
//! kernels and executing them tile-major.
//!
//! # Tile-major execution
//!
//! Every entry point — [`CompiledPlan::predict_batch`],
//! [`CompiledPlan::predict_shot`] (a 1-shot tile),
//! [`CompiledPlan::features_batch`] and the confidence and logit
//! readers — runs one executor over tiles of up to [`PLAN_TILE`] shots:
//!
//! 1. **Trunk.** The tile's traces are flattened into one `f32` scratch
//!    (`mlr_nn::narrow_f32` over each trace's interleaved IQ, vector
//!    `f64`→`f32` conversion) and the bank is scored by `mlr_nn::dot_tile`
//!    in register blocks of 3 rows × 4 shots on AVX-512 hosts (2 × 3 on
//!    AVX2), one call per run of rows sharing a nonzero span (banded
//!    rows). Bias, the bank ReLU and any residual affine follow
//!    elementwise.
//! 2. **Heads.** The features are transposed into blocks of 8 shot lanes
//!    (`x[k * 8 + lane]`) and every head's dense chain runs head-major,
//!    one layer at a time, through `mlr_nn::dot_lanes`: a weight is read
//!    once per 8 shots instead of once per shot, and the narrow 22- and
//!    11-wide layers become vector work across shots.
//! 3. **Decide.** Each shot's final logits are gathered back and decided
//!    per shot: per-head argmax, joint decoding, marginal decoding, or
//!    the integer heads on the shot's features.
//!
//! # Why verdicts do not move
//!
//! The tile kernels change which (row, shot) pairs share a load, never
//! the association order inside a pair. Each pair keeps `dot_f32`'s own
//! sequence: 32 accumulators, `(acc0+acc1)+(acc2+acc3)`, the fixed
//! horizontal tree and the serial remainder in order. Every score is
//! therefore bit-identical to scoring the pair alone with `dot_f32`,
//! whatever the tile size or batch split, which is what makes batch and
//! per-shot decisions identical.
//!
//! # Host independence
//!
//! Every kernel multiplies and adds separately and reduces in a fixed
//! tree, so AVX-512, AVX2 and the scalar mirror agree **bit-for-bit** and
//! every host serves identical decisions.
//!
//! # Argmax
//!
//! A head with dense layers is decided by a running (max, index) fold
//! seeded at −∞; a collapsed head (its feature slice *is* the logits) and
//! the marginal decoder by an argmax seeded with the first element. Both
//! use the strictly-greater rule (ties→lowest) shared with `Mlp::predict`;
//! they differ only when the first logit is NaN. Confidence callers read
//! the same logits through [`CompiledPlan::predict_shot_proba`] and
//! [`CompiledPlan::logits_shot`].

use std::ops::Range;

use mlr_nn::{dot_lanes, dot_tile, narrow_f32, IntMlp, SHOT_LANES};
use mlr_num::Complex;

use super::graph::{AffineOp, Branch, DenseOp, MfBankOp, Op, OpGraph, OutputStage};

/// Shots per execution tile. Kernel rows stay cache-resident across a
/// tile, one flattened-trace scratch serves the whole tile, and the heads
/// run over its shots in two full 8-shot lane blocks. The tile size does
/// not change any score (see the module docs), only the work per call.
pub(super) const PLAN_TILE: usize = 16;

// ------------------------------------------------------------- lowering

/// A dense layer lowered to `f32`.
#[derive(Debug, Clone)]
pub(super) struct DenseF32 {
    pub(super) n_in: usize,
    n_out: usize,
    pub(super) w: Vec<f32>,
    pub(super) b: Vec<f32>,
    pub(super) relu: bool,
}

impl DenseF32 {
    pub(super) fn lower(d: &DenseOp) -> Self {
        Self {
            n_in: d.n_in,
            n_out: d.n_out,
            w: d.w.iter().map(|&x| x as f32).collect(),
            b: d.b.iter().map(|&x| x as f32).collect(),
            relu: d.relu,
        }
    }

    /// The layer over a tile's lane blocks: block `g` reads `x(g)`
    /// (`n_in × SHOT_LANES`, lane-major) and writes `n_out × SHOT_LANES`
    /// at `out[g * n_out * SHOT_LANES..]`. Each lane's output is
    /// `bias + dot(row, x)`, ReLU'd on hidden layers.
    fn forward_lanes<'x>(
        &self,
        n_blocks: usize,
        x: impl Fn(usize) -> &'x [f32],
        out: &mut Vec<f32>,
    ) {
        let width = self.n_out * SHOT_LANES;
        out.clear();
        out.resize(n_blocks * width, 0.0);
        for g in 0..n_blocks {
            dot_lanes(&self.w, self.n_in, x(g), &mut out[g * width..][..width]);
        }
        for (lanes, &bias) in out.chunks_exact_mut(SHOT_LANES).zip(self.b.iter().cycle()) {
            for v in lanes {
                let acc = bias + *v;
                *v = if self.relu { acc.max(0.0) } else { acc };
            }
        }
    }
}

/// One head: a slice of the trunk features through a dense chain. An
/// empty chain means the slice is already the logits (a collapsed linear
/// head).
#[derive(Debug, Clone)]
struct CompiledHead {
    start: usize,
    len: usize,
    layers: Vec<DenseF32>,
}

impl CompiledHead {
    /// Logits this head produces per shot.
    fn width(&self) -> usize {
        self.layers.last().map_or(self.len, |l| l.n_out)
    }

    /// Runs the chain over a tile's `n_blocks` lane blocks of features
    /// (`x`, one equal block each), one layer at a time across all blocks
    /// so each layer's weights stay hot. Returns the buffer holding the
    /// final logits, its per-block stride, and the logits' offset within
    /// a block (the feature slice itself for an empty chain).
    fn run<'a>(
        &'a self,
        x: &'a [f32],
        n_blocks: usize,
        cur: &'a mut Vec<f32>,
        next: &'a mut Vec<f32>,
    ) -> (&'a [f32], usize, usize) {
        let block = x.len() / n_blocks;
        let Some((first, rest)) = self.layers.split_first() else {
            return (x, block, self.start * SHOT_LANES);
        };
        let (start, len) = (self.start * SHOT_LANES, self.len * SHOT_LANES);
        first.forward_lanes(n_blocks, |g| &x[g * block + start..][..len], cur);
        for layer in rest {
            let width = layer.n_in * SHOT_LANES;
            let input: &[f32] = cur;
            layer.forward_lanes(n_blocks, |g| &input[g * width..][..width], next);
            std::mem::swap(cur, next);
        }
        let width = self.width() * SHOT_LANES;
        (cur, width, 0)
    }
}

/// How the heads' logits become per-qubit levels.
#[derive(Debug, Clone)]
enum Decision {
    /// One head per qubit, each argmaxed.
    PerQubit,
    /// One joint head: argmax over `levelsⁿ` classes, decoded into digits.
    Joint { n_qubits: usize, levels: usize },
    /// One joint head decoded by per-qubit softmax marginals.
    JointMarginal { n_qubits: usize, levels: usize },
    /// Integer heads on each shot's features; no float heads run.
    Int(Vec<IntMlp>),
}

/// Argmax with the network's tie rule (strictly-greater, so ties go to the
/// lowest index) — must match `mlr_nn`'s own argmax for plan decisions to
/// equal the network's decisions away from exact ties.
pub(super) fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// The running (best value, index) fold seeded at −∞ that decides every
/// head with dense layers. Strictly-greater, so ties resolve to the lowest
/// index — the rule of `Mlp::predict`. Unlike [`argmax`], a NaN first
/// logit never wins.
pub(super) fn running_argmax(xs: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Numerically stable softmax in `f32` — the plan-side mirror of
/// `mlr_nn`'s (crate-private) softmax, needed by the marginal decoder and
/// the streaming confidence path.
fn softmax_f32(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&z| (z - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / sum).collect()
}

/// `Mlp::predict_marginal`'s decision rule on plan logits: softmax over
/// the joint classes, per-digit marginal mass (qubit 0 = most significant
/// digit), argmax per digit with ties→lowest. Accumulation order matches
/// the network's own implementation exactly.
pub(super) fn decide_marginal(logits: &[f32], n_qubits: usize, levels: usize) -> Vec<usize> {
    let probs = softmax_f32(logits);
    let mut marginals = vec![vec![0.0f32; levels]; n_qubits];
    for (class, &p) in probs.iter().enumerate() {
        let mut rem = class;
        for digit in (0..n_qubits).rev() {
            marginals[digit][rem % levels] += p;
            rem /= levels;
        }
    }
    marginals.iter().map(|m| argmax(m)).collect()
}

/// Splits a joint class index into per-qubit digits, most significant
/// digit first — the same convention as `BasisState::from_flat_index`.
pub(super) fn decode_joint(joint: usize, n_qubits: usize, levels: usize) -> Vec<usize> {
    let mut digits = vec![0usize; n_qubits];
    let mut rem = joint;
    for d in digits.iter_mut().rev() {
        *d = rem % levels;
        rem /= levels;
    }
    digits
}

/// A narrowed kernel row's scored span `(start, end)`: its nonzero
/// window, over which the row's dot runs. An all-zero row gets the empty
/// span (its score is the bias alone). Shared by the lowering and the
/// reference interpreter, so both drop the same structural zeros.
pub(super) fn nonzero_span(row: &[f32]) -> (usize, usize) {
    let start = row.iter().position(|&x| x != 0.0).unwrap_or(0);
    let end = row.iter().rposition(|&x| x != 0.0).map_or(start, |e| e + 1);
    (start, end)
}

/// One tile's working buffers, reused across the tile's stages.
#[derive(Debug, Default)]
struct Scratch {
    /// The tile's traces as interleaved `f32` IQ, one stride per shot.
    flat: Vec<f32>,
    /// Trunk features, shot-major: shot `s` at `feats[s * n_rows..]`.
    feats: Vec<f32>,
    /// The tile's features in 8-shot lane blocks, `n_rows × SHOT_LANES`
    /// each, zero-padded past the last shot.
    lanes: Vec<f32>,
    cur: Vec<f32>,
    next: Vec<f32>,
    /// Head logits, shot-major: shot `s` at `logits[s * n_logits..]`.
    logits: Vec<f32>,
}

/// A fused single-pass inference plan: the whole per-shot pipeline —
/// flatten, matched-filter bank, (folded) standardisation, heads, argmax —
/// lowered to `f32` tile kernels and executed tile-major (see the module
/// docs).
///
/// Compiled once at fit/load time ([`crate::plan::compile`]) from the
/// family's unfused graph; [`crate::plan::eval`] interprets that same
/// graph unfused as the reference the plan is checked against.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    n_samples: usize,
    /// `2 × n_samples` — the flattened-trace width and kernel row stride.
    stride: usize,
    n_rows: usize,
    /// All kernel rows contiguous, row `r` at `rows[r*stride..][..stride]`.
    rows: Vec<f32>,
    /// Per-row nonzero span `(start, end)` within the stride. Matched
    /// filters are dense (the full stride); banded rows — a boxcar
    /// decimation chunk (AE), a checkpoint prefix (OURS-STREAM) — only
    /// touch a window, and scoring skips the structural zeros outside it.
    /// Trimming drops exact-zero terms only (regrouping the reduction
    /// lanes by at most one ulp); spans come from the narrowed rows
    /// ([`nonzero_span`]), so the result stays deterministic and
    /// machine-independent.
    row_spans: Vec<(usize, usize)>,
    row_bias: Vec<f32>,
    /// ReLU after the bank rows — set when a hidden dense layer was folded
    /// into the bank (the FNN's first layer).
    bank_relu: bool,
    /// Residual standardisation, only when no folding pass could absorb it
    /// (never the case for the shipped families — kept for generality).
    affine: Option<(Vec<f32>, Vec<f32>)>,
    /// The float heads, in output order: one per qubit, or the one joint
    /// chain. Empty for integer heads.
    heads: Vec<CompiledHead>,
    /// Sum of the heads' widths: logits per shot.
    n_logits: usize,
    decision: Decision,
    fuse: super::fuse::FuseReport,
}

impl CompiledPlan {
    /// Lowers a fused graph. The trunk must be `[FlattenIq, MfBank]` or
    /// `[FlattenIq, MfBank, Affine]` (what [`super::fuse::fuse`] leaves).
    ///
    /// # Panics
    ///
    /// Panics on any other trunk shape or on inconsistent dimensions.
    pub(super) fn lower(graph: &OpGraph, fuse: super::fuse::FuseReport) -> Self {
        let mut ops = graph.trunk.iter();
        let Some(&Op::FlattenIq { n_samples }) = ops.next() else {
            panic!("plan trunk must start with FlattenIq");
        };
        let Some(Op::MfBank(bank)) = ops.next() else {
            panic!("plan trunk must score an MfBank");
        };
        let affine = match ops.next() {
            None => None,
            Some(Op::Affine(a)) => Some((
                a.scale.iter().map(|&x| x as f32).collect::<Vec<f32>>(),
                a.shift.iter().map(|&x| x as f32).collect::<Vec<f32>>(),
            )),
            Some(other) => panic!("unexpected trunk op after MfBank: {other:?}"),
        };
        assert!(ops.next().is_none(), "trunk too deep after fusing");
        assert!(
            !(bank.relu && affine.is_some()),
            "residual affine after a ReLU bank is not lowerable"
        );

        let stride = 2 * n_samples;
        let n_rows = bank.rows.len();
        let mut rows = Vec::with_capacity(n_rows * stride);
        let mut row_spans = Vec::with_capacity(n_rows);
        for row in &bank.rows {
            assert_eq!(row.len(), stride, "kernel row length != 2 × window");
            let at = rows.len();
            rows.extend(row.iter().map(|&x| x as f32));
            row_spans.push(nonzero_span(&rows[at..]));
        }
        let row_bias: Vec<f32> = bank.bias.iter().map(|&x| x as f32).collect();
        assert_eq!(row_bias.len(), n_rows, "bank bias length != row count");

        let chain = |layers: &[DenseOp], range: Range<usize>| {
            assert!(range.end <= n_rows, "head reads past the bank");
            CompiledHead {
                start: range.start,
                len: range.end - range.start,
                layers: layers.iter().map(DenseF32::lower).collect(),
            }
        };
        let (heads, decision) = match &graph.output {
            OutputStage::PerQubit { branches } => (
                branches
                    .iter()
                    .map(|br| chain(&br.layers, br.take.clone().unwrap_or(0..n_rows)))
                    .collect(),
                Decision::PerQubit,
            ),
            OutputStage::Joint {
                layers,
                n_qubits,
                levels,
            } => {
                assert!(!layers.is_empty(), "joint chain needs a layer");
                (
                    vec![chain(layers, 0..n_rows)],
                    Decision::Joint {
                        n_qubits: *n_qubits,
                        levels: *levels,
                    },
                )
            }
            OutputStage::JointMarginal {
                layers,
                n_qubits,
                levels,
            } => {
                assert!(!layers.is_empty(), "joint chain needs a layer");
                (
                    vec![chain(layers, 0..n_rows)],
                    Decision::JointMarginal {
                        n_qubits: *n_qubits,
                        levels: *levels,
                    },
                )
            }
            OutputStage::PerQubitInt { heads } => (Vec::new(), Decision::Int(heads.clone())),
        };
        let n_logits = heads.iter().map(CompiledHead::width).sum();

        Self {
            n_samples,
            stride,
            n_rows,
            rows,
            row_spans,
            row_bias,
            bank_relu: bank.relu,
            affine,
            heads,
            n_logits,
            decision,
            fuse,
        }
    }

    /// Readout-window length the plan expects (samples per trace).
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Kernel rows scored against each shot — after folding, this can be
    /// smaller than the model's feature dimension (collapsed linear heads).
    pub fn n_kernel_rows(&self) -> usize {
        self.n_rows
    }

    /// Each kernel row's scored span `(start, end)` within the flattened
    /// trace: the row's nonzero window, over which its dot runs.
    pub fn kernel_spans(&self) -> &[(usize, usize)] {
        &self.row_spans
    }

    /// The lowered plan as an [`OpGraph`]: the `f32` weights the executor
    /// scores, widened exactly to `f64`, with every per-qubit head's
    /// feature range as its `take` — everything the executor computes
    /// from. [`crate::plan::eval`] on it re-scores the plan pair by pair
    /// with the single-pair dot and reproduces the executor bit for bit.
    pub fn lowered_graph(&self) -> OpGraph {
        let widen = |xs: &[f32]| xs.iter().map(|&x| f64::from(x)).collect::<Vec<f64>>();
        let chain = |head: &CompiledHead| {
            head.layers
                .iter()
                .map(|d| DenseOp {
                    n_in: d.n_in,
                    n_out: d.n_out,
                    w: widen(&d.w),
                    b: widen(&d.b),
                    relu: d.relu,
                })
                .collect::<Vec<_>>()
        };
        let mut trunk = vec![
            Op::FlattenIq {
                n_samples: self.n_samples,
            },
            Op::MfBank(MfBankOp {
                rows: (0..self.n_rows)
                    .map(|r| widen(&self.rows[r * self.stride..][..self.stride]))
                    .collect(),
                bias: widen(&self.row_bias),
                relu: self.bank_relu,
            }),
        ];
        if let Some((scale, shift)) = &self.affine {
            trunk.push(Op::Affine(AffineOp {
                scale: widen(scale),
                shift: widen(shift),
            }));
        }
        let output = match &self.decision {
            Decision::PerQubit => OutputStage::PerQubit {
                branches: self
                    .heads
                    .iter()
                    .map(|h| Branch {
                        take: Some(h.start..h.start + h.len),
                        layers: chain(h),
                    })
                    .collect(),
            },
            &Decision::Joint { n_qubits, levels } => OutputStage::Joint {
                layers: chain(&self.heads[0]),
                n_qubits,
                levels,
            },
            &Decision::JointMarginal { n_qubits, levels } => OutputStage::JointMarginal {
                layers: chain(&self.heads[0]),
                n_qubits,
                levels,
            },
            Decision::Int(heads) => OutputStage::PerQubitInt {
                heads: heads.clone(),
            },
        };
        OpGraph { trunk, output }
    }

    /// Which folding passes fired when this plan was compiled.
    pub fn fuse_report(&self) -> super::fuse::FuseReport {
        self.fuse
    }

    /// The trunk over one tile: flattens the traces into `sc.flat` and
    /// writes every shot's features, shot-major, into `sc.feats`. The
    /// bank is scored by [`dot_tile`] once per run of rows sharing a span.
    fn trunk(&self, tile: &[&[Complex]], sc: &mut Scratch) {
        let stride = self.stride;
        sc.flat.clear();
        sc.flat.resize(tile.len() * stride, 0.0);
        for (dst, raw) in sc.flat.chunks_exact_mut(stride).zip(tile) {
            assert_eq!(raw.len(), self.n_samples, "trace length != readout window");
            narrow_f32(Complex::as_interleaved(raw), dst);
        }
        sc.feats.clear();
        sc.feats.resize(tile.len() * self.n_rows, 0.0);
        let mut r0 = 0;
        while r0 < self.n_rows {
            let span = self.row_spans[r0];
            let r1 = r0
                + self.row_spans[r0..]
                    .iter()
                    .take_while(|&&s| s == span)
                    .count();
            dot_tile(
                &self.rows[r0 * stride..r1 * stride],
                &sc.flat,
                stride,
                span.0..span.1,
                &mut sc.feats[r0..],
                self.n_rows,
            );
            r0 = r1;
        }
        for (v, &bias) in sc.feats.iter_mut().zip(self.row_bias.iter().cycle()) {
            let score = *v + bias;
            *v = if self.bank_relu {
                score.max(0.0)
            } else {
                score
            };
        }
        if let Some((scale, shift)) = &self.affine {
            let per_row = scale.iter().zip(shift).cycle();
            for (v, (&a, &b)) in sc.feats.iter_mut().zip(per_row) {
                *v = *v * a + b;
            }
        }
    }

    /// The heads over one tile's features: the features are transposed
    /// into 8-shot lane blocks, every head's chain runs head-major across
    /// all of them one layer at a time, and each shot's logits are
    /// written, shot-major, into `sc.logits`.
    fn heads(&self, n_shots: usize, sc: &mut Scratch) {
        let Scratch {
            feats,
            lanes,
            cur,
            next,
            logits,
            ..
        } = sc;
        logits.clear();
        logits.resize(n_shots * self.n_logits, 0.0);
        if self.heads.is_empty() {
            return;
        }
        let block = self.n_rows * SHOT_LANES;
        let n_blocks = n_shots.div_ceil(SHOT_LANES);
        lanes.clear();
        lanes.resize(n_blocks * block, 0.0);
        for s in 0..n_shots {
            let f = &feats[s * self.n_rows..][..self.n_rows];
            let dst = &mut lanes[(s / SHOT_LANES) * block + s % SHOT_LANES..];
            for (k, &v) in f.iter().enumerate() {
                dst[k * SHOT_LANES] = v;
            }
        }
        let mut offset = 0;
        for head in &self.heads {
            let (out, stride, at) = head.run(lanes, n_blocks, cur, next);
            let width = head.width();
            for s in 0..n_shots {
                let src = &out[(s / SHOT_LANES) * stride + at + s % SHOT_LANES..];
                let dst = &mut logits[s * self.n_logits + offset..][..width];
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = src[i * SHOT_LANES];
                }
            }
            offset += width;
        }
    }

    /// Runs the whole plan over one tile, leaving features and logits in
    /// `sc`.
    fn run_tile(&self, tile: &[&[Complex]], sc: &mut Scratch) {
        self.trunk(tile, sc);
        self.heads(tile.len(), sc);
    }

    /// Shot `s`'s features and head logits from a finished tile.
    fn shot<'a>(&self, sc: &'a Scratch, s: usize) -> (&'a [f32], &'a [f32]) {
        (
            &sc.feats[s * self.n_rows..][..self.n_rows],
            &sc.logits[s * self.n_logits..][..self.n_logits],
        )
    }

    /// Pairs every float head with its slice of one shot's logits.
    fn head_logits<'a>(
        &'a self,
        logits: &'a [f32],
    ) -> impl Iterator<Item = (&'a CompiledHead, &'a [f32])> + 'a {
        self.heads.iter().scan(0usize, move |offset, head| {
            let width = head.width();
            let slice = &logits[*offset..*offset + width];
            *offset += width;
            Some((head, slice))
        })
    }

    /// Decides one shot's per-qubit levels from its features and logits.
    fn decide(&self, f: &[f32], logits: &[f32]) -> Vec<usize> {
        match &self.decision {
            Decision::PerQubit => self
                .head_logits(logits)
                .map(|(head, xs)| {
                    if head.layers.is_empty() {
                        argmax(xs)
                    } else {
                        running_argmax(xs)
                    }
                })
                .collect(),
            &Decision::Joint { n_qubits, levels } => {
                decode_joint(running_argmax(logits), n_qubits, levels)
            }
            &Decision::JointMarginal { n_qubits, levels } => {
                decide_marginal(logits, n_qubits, levels)
            }
            Decision::Int(heads) => heads.iter().map(|h| h.predict(f)).collect(),
        }
    }

    /// Post-trunk feature vectors (kernel scores after folding, bank
    /// activation, and any residual affine) for a batch of traces — the
    /// compiled trunk alone, exposed so fit-time callers can reuse the
    /// fused extraction without the decision stage.
    ///
    /// # Panics
    ///
    /// Panics if any trace's length differs from the readout window.
    pub fn features_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<f32>> {
        let tiles: Vec<&[&[Complex]]> = shots.chunks(PLAN_TILE).collect();
        let per_tile = crate::par_map(&tiles, |tile| {
            let mut sc = Scratch::default();
            self.trunk(tile, &mut sc);
            sc.feats
                .chunks_exact(self.n_rows)
                .map(<[f32]>::to_vec)
                .collect::<Vec<_>>()
        });
        per_tile.into_iter().flatten().collect()
    }

    /// Fused per-qubit `(level, confidence)` decisions for one raw trace —
    /// the streaming checkpoints' verdict, end-to-end on the compiled
    /// datapath. Each per-qubit head reports its softmax winner and that
    /// probability; heads with no probabilistic reading (joint and integer
    /// heads) report their decision with probability 1.0.
    ///
    /// # Panics
    ///
    /// Panics if the trace's length differs from the readout window.
    pub fn predict_shot_proba(&self, raw: &[Complex]) -> Vec<(usize, f64)> {
        let mut sc = Scratch::default();
        self.run_tile(&[raw], &mut sc);
        let (f, logits) = self.shot(&sc, 0);
        let Decision::PerQubit = self.decision else {
            return self
                .decide(f, logits)
                .into_iter()
                .map(|l| (l, 1.0))
                .collect();
        };
        self.head_logits(logits)
            .map(|(_, xs)| {
                let (mut best, mut best_p) = (0usize, f64::NEG_INFINITY);
                for (i, &p) in softmax_f32(xs).iter().enumerate() {
                    if (p as f64) > best_p {
                        best = i;
                        best_p = p as f64;
                    }
                }
                (best, best_p)
            })
            .collect()
    }

    /// Raw decision scores for one trace, per head: the logits each branch
    /// argmaxes (for integer heads, the dequantised outputs). The logit
    /// property compares these against [`crate::plan::eval`] on the
    /// family's unfused graph within 1e-4 relative.
    ///
    /// # Panics
    ///
    /// Panics if the trace's length differs from the readout window.
    pub fn logits_shot(&self, raw: &[Complex]) -> Vec<Vec<f32>> {
        let mut sc = Scratch::default();
        self.run_tile(&[raw], &mut sc);
        let (f, logits) = self.shot(&sc, 0);
        match &self.decision {
            Decision::Int(heads) => heads.iter().map(|h| h.forward(f)).collect(),
            _ => self
                .head_logits(logits)
                .map(|(_, xs)| xs.to_vec())
                .collect(),
        }
    }

    /// Classifies one raw trace through the fused datapath: the batch
    /// executor run as a 1-shot tile, so batch and per-shot decisions are
    /// bit-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if the trace's length differs from the readout window.
    pub fn predict_shot(&self, raw: &[Complex]) -> Vec<usize> {
        let mut sc = Scratch::default();
        self.run_tile(&[raw], &mut sc);
        let (f, logits) = self.shot(&sc, 0);
        self.decide(f, logits)
    }

    /// Classifies a batch of raw traces: 16-shot tiles fanned over worker
    /// threads (`MLR_THREADS` honoured via [`crate::par_map`]), each run
    /// tile-major through the trunk and the heads with one scratch.
    ///
    /// # Panics
    ///
    /// Panics if any trace's length differs from the readout window.
    pub fn predict_batch(&self, shots: &[&[Complex]]) -> Vec<Vec<usize>> {
        let tiles: Vec<&[&[Complex]]> = shots.chunks(PLAN_TILE).collect();
        let per_tile = crate::par_map(&tiles, |tile| {
            let mut sc = Scratch::default();
            self.run_tile(tile, &mut sc);
            (0..tile.len())
                .map(|s| {
                    let (f, logits) = self.shot(&sc, s);
                    self.decide(f, logits)
                })
                .collect::<Vec<_>>()
        });
        per_tile.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::fuse::FuseReport;
    use crate::plan::graph::AffineOp;

    /// Deterministic values in `[-1, 1)`.
    fn values(n: usize, seed: u32) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                f64::from(state >> 8) / f64::from(1u32 << 23) - 1.0
            })
            .collect()
    }

    #[test]
    fn residual_affine_follows_the_bank_per_feature() {
        // `fuse` always absorbs the standardizer, so only a graph lowered
        // unfused keeps a residual affine. The tile executor must apply it
        // after the bias exactly as the reference interpreter does, and
        // decide a ragged batch as it decides each shot alone.
        let (n_samples, n_rows) = (37, 5);
        let stride = 2 * n_samples;
        let rows: Vec<Vec<f64>> = (0..n_rows).map(|r| values(stride, 7 + r as u32)).collect();
        let dense = |n_in, n_out, seed, relu| DenseOp {
            n_in,
            n_out,
            w: values(n_in * n_out, seed),
            b: values(n_out, seed + 1),
            relu,
        };
        let graph = OpGraph {
            trunk: vec![
                Op::FlattenIq { n_samples },
                Op::MfBank(MfBankOp {
                    rows: rows.clone(),
                    bias: values(n_rows, 3),
                    relu: false,
                }),
                Op::Affine(AffineOp {
                    scale: values(n_rows, 4),
                    shift: values(n_rows, 5),
                }),
            ],
            output: OutputStage::PerQubit {
                branches: vec![
                    Branch {
                        take: None,
                        layers: vec![dense(n_rows, 4, 20, true), dense(4, 3, 30, false)],
                    },
                    Branch {
                        take: Some(2..5),
                        layers: Vec::new(),
                    },
                ],
            },
        };
        let plan = CompiledPlan::lower(&graph, FuseReport::default());
        let traces: Vec<Vec<Complex>> = (0..19)
            .map(|s| {
                let v = values(stride, 100 + s);
                v.chunks_exact(2)
                    .map(|p| Complex::new(p[0], p[1]))
                    .collect()
            })
            .collect();
        let shots: Vec<&[Complex]> = traces.iter().map(Vec::as_slice).collect();

        let feats = plan.features_batch(&shots);
        let batch = plan.predict_batch(&shots);
        for (s, raw) in shots.iter().enumerate() {
            let want = crate::plan::eval(&graph, raw);
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&feats[s]), bits(&want.features), "features, shot {s}");
            let logits = plan.logits_shot(raw);
            assert_eq!(logits.len(), want.logits.len(), "heads, shot {s}");
            for (got, want) in logits.iter().zip(&want.logits) {
                assert_eq!(bits(got), bits(want), "logits, shot {s}");
            }
            assert_eq!(batch[s], want.levels, "verdict, shot {s}");
            assert_eq!(
                plan.predict_shot(raw),
                want.levels,
                "per-shot verdict, shot {s}"
            );
        }
    }
}
