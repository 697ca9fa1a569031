//! The two kernels of [`crate::Mlp::train`]'s batch-major backward pass:
//! the weight-gradient outer product and the ReLU-masked `Wᵀδ` that
//! carries the deltas one layer down.
//!
//! # Layouts
//!
//! Deltas and activations are lane-major, as [`crate::dot_lanes`] reads
//! and writes them: unit `k` of sample `b · SHOT_LANES + j` sits at
//! `[(b · width + k) · SHOT_LANES + j]`. The outer product reads the
//! layer's inputs sample-major instead, one row of `stride` values per
//! sample (`stride` a multiple of eight, zero past the layer's width), and
//! accumulates into a gradient of the same row stride.
//!
//! # Bit reproducibility
//!
//! Every gradient element adds its samples' products in batch order, and
//! every `Wᵀδ` element adds its output units' products in unit order, each
//! product a separate multiply then add (no FMA) — the order of a
//! per-sample backward pass. A per-sample pass skips a product whose delta
//! is zero; the AVX2 bodies add it. Both sums start from `+0.0`, and a sum
//! that starts from `+0.0` never becomes `-0.0`, so adding the `±0.0`
//! that a zero delta times a finite factor gives leaves it unchanged. A
//! zero delta times an infinite or NaN factor would add NaN instead, so
//! the AVX2 bodies only run where every factor the deltas multiply is
//! finite (the layer's inputs for the outer product, the weights for
//! `Wᵀδ`); otherwise the scalar mirror, which keeps the skip, runs. AVX2
//! body, scalar mirror and per-sample pass agree bit for bit.

use crate::SHOT_LANES;

/// Which body a kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The scalar mirror.
    Scalar,
    /// 256-bit AVX2.
    Avx2,
}

impl Tier {
    /// AVX2 where the host has it, else the scalar mirror.
    pub(crate) fn host() -> Self {
        if crate::simd_active() {
            Tier::Avx2
        } else {
            Tier::Scalar
        }
    }

    /// Every tier this host runs.
    #[cfg(test)]
    pub(crate) fn on_host() -> Vec<Self> {
        let mut tiers = vec![Tier::Scalar];
        if Tier::host() == Tier::Avx2 {
            tiers.push(Tier::Avx2);
        }
        tiers
    }

    /// Whether `self` is the AVX2 tier (which the host must run).
    fn avx2(self) -> bool {
        assert!(
            self == Tier::Scalar || Tier::host() == Tier::Avx2,
            "AVX2 unavailable on this host"
        );
        self == Tier::Avx2
    }
}

/// The row stride of a gradient or sample row over `width` inputs: the
/// width rounded up to whole AVX2 vectors.
pub(crate) fn row_stride(width: usize) -> usize {
    width.next_multiple_of(SHOT_LANES)
}

/// Whether every value is finite.
fn all_finite(xs: &[f32]) -> bool {
    xs.iter().fold(true, |ok, x| ok & x.is_finite())
}

/// `grad[o · stride + i] += d_s[o] · a_s[i]` for every sample `s` below
/// `batch`, in sample order, skipping samples whose `d_s[o]` is zero.
/// `delta` is lane-major over `n_out` units; `rows` holds one row of
/// `stride` inputs per sample. The AVX2 body runs when every input is
/// finite.
///
/// # Panics
///
/// Panics if `stride` is not a multiple of eight or a buffer is too short
/// for the shapes, or if `tier` is AVX2 on a host without it.
pub(crate) fn accumulate_outer(
    tier: Tier,
    grad: &mut [f32],
    stride: usize,
    delta: &[f32],
    rows: &[f32],
    batch: usize,
) {
    assert!(
        stride.is_multiple_of(SHOT_LANES),
        "row stride must be whole vectors"
    );
    let n_out = grad.len() / stride.max(1);
    assert_eq!(grad.len(), n_out * stride, "gradient must hold whole rows");
    assert!(rows.len() >= batch * stride, "too few sample rows");
    assert!(
        delta.len() >= batch.div_ceil(SHOT_LANES) * n_out * SHOT_LANES,
        "too few deltas"
    );
    #[cfg(target_arch = "x86_64")]
    if tier.avx2() && all_finite(&rows[..batch * stride]) {
        // SAFETY: AVX2 was checked above; the asserts bound every index
        // the body reads and writes.
        return unsafe { avx2::outer(grad, stride, n_out, delta, rows, batch) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier.avx2();
    for (o, g_row) in grad.chunks_exact_mut(stride).enumerate() {
        for (s, a_row) in rows.chunks_exact(stride).take(batch).enumerate() {
            let d = delta[((s / SHOT_LANES) * n_out + o) * SHOT_LANES + s % SHOT_LANES];
            if d != 0.0 {
                for (g, &a) in g_row.iter_mut().zip(a_row) {
                    *g += d * a;
                }
            }
        }
    }
}

/// The deltas one layer down: for every sample lane of every block,
/// `prev[i] = Σ_o d[o] · w[o · n_in + i]` over the output units in order
/// (skipping zero deltas), then zero wherever the layer's input
/// activation is `<= 0` (the ReLU's derivative). `delta` is lane-major
/// over `w.len() / n_in` units, `acts` and `prev` over `n_in`; `prev`
/// sets the block count. The AVX2 body runs when every weight is finite.
///
/// # Panics
///
/// Panics if a buffer is too short for the shapes, or if `tier` is AVX2
/// on a host without it.
pub(crate) fn back_delta(
    tier: Tier,
    w: &[f32],
    n_in: usize,
    delta: &[f32],
    acts: &[f32],
    prev: &mut [f32],
) {
    assert!(n_in > 0, "layer width must be positive");
    let n_out = w.len() / n_in;
    assert_eq!(w.len(), n_out * n_in, "weights must hold whole rows");
    assert!(
        prev.len().is_multiple_of(n_in * SHOT_LANES),
        "deltas must hold whole blocks"
    );
    let blocks = prev.len() / (n_in * SHOT_LANES);
    assert!(acts.len() >= prev.len(), "too few activations");
    assert!(delta.len() >= blocks * n_out * SHOT_LANES, "too few deltas");
    #[cfg(target_arch = "x86_64")]
    if tier.avx2() && all_finite(w) {
        // SAFETY: AVX2 was checked above; the asserts bound every index
        // the body reads and writes.
        return unsafe { avx2::back(w, n_in, n_out, delta, acts, prev, blocks) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier.avx2();
    for b in 0..blocks {
        let d_block = &delta[b * n_out * SHOT_LANES..][..n_out * SHOT_LANES];
        for i in 0..n_in {
            for lane in 0..SHOT_LANES {
                let mut p = 0.0f32;
                for (o, d_row) in d_block.chunks_exact(SHOT_LANES).enumerate() {
                    let d = d_row[lane];
                    if d != 0.0 {
                        p += d * w[o * n_in + i];
                    }
                }
                let at = (b * n_in + i) * SHOT_LANES + lane;
                prev[at] = if acts[at] <= 0.0 { 0.0 } else { p };
            }
        }
    }
}

/// The AVX2 bodies.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_andnot_ps, _mm256_broadcast_ss, _mm256_cmp_ps, _mm256_loadu_ps,
        _mm256_mul_ps, _mm256_setzero_ps, _mm256_storeu_ps, _CMP_LE_OQ,
    };

    use crate::SHOT_LANES;

    /// The outer product, in register blocks of four gradient rows by two
    /// vectors of columns, held across the whole batch.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and the buffers must fit the shapes, as
    /// [`super::accumulate_outer`] asserts. Bit-identical to the scalar
    /// mirror only when every row value is finite.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn outer(
        grad: &mut [f32],
        stride: usize,
        n_out: usize,
        delta: &[f32],
        rows: &[f32],
        batch: usize,
    ) {
        let g = grad.as_mut_ptr();
        let (d, a) = (delta.as_ptr(), rows.as_ptr());
        let mut o = 0;
        while o + 4 <= n_out {
            outer_rows::<4>(g, stride, n_out, o, d, a, batch);
            o += 4;
        }
        match n_out - o {
            3 => outer_rows::<3>(g, stride, n_out, o, d, a, batch),
            2 => outer_rows::<2>(g, stride, n_out, o, d, a, batch),
            1 => outer_rows::<1>(g, stride, n_out, o, d, a, batch),
            _ => {}
        }
    }

    /// Gradient rows `o..o + R`, two column vectors at a time.
    #[inline(always)]
    unsafe fn outer_rows<const R: usize>(
        g: *mut f32,
        stride: usize,
        n_out: usize,
        o: usize,
        d: *const f32,
        a: *const f32,
        batch: usize,
    ) {
        let mut c = 0;
        while c + 2 * SHOT_LANES <= stride {
            outer_block::<R, 2>(g, stride, n_out, o, c, d, a, batch);
            c += 2 * SHOT_LANES;
        }
        if c < stride {
            outer_block::<R, 1>(g, stride, n_out, o, c, d, a, batch);
        }
    }

    /// One `R`-row × `C`-vector register block of the gradient, starting
    /// at row `o`, column `c`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn outer_block<const R: usize, const C: usize>(
        g: *mut f32,
        stride: usize,
        n_out: usize,
        o: usize,
        c: usize,
        d: *const f32,
        a: *const f32,
        batch: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (k, v) in row.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(g.add((o + r) * stride + c + k * SHOT_LANES));
            }
        }
        for s in 0..batch {
            let mut x = [_mm256_setzero_ps(); C];
            for (k, v) in x.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(a.add(s * stride + c + k * SHOT_LANES));
            }
            let ds = d.add(((s / SHOT_LANES) * n_out + o) * SHOT_LANES + s % SHOT_LANES);
            for (r, row) in acc.iter_mut().enumerate() {
                let dv = _mm256_broadcast_ss(&*ds.add(r * SHOT_LANES));
                for (v, &xk) in row.iter_mut().zip(&x) {
                    *v = _mm256_add_ps(*v, _mm256_mul_ps(dv, xk));
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (k, v) in row.iter().enumerate() {
                _mm256_storeu_ps(g.add((o + r) * stride + c + k * SHOT_LANES), *v);
            }
        }
    }

    /// `Wᵀδ` with the ReLU mask, eight sample lanes per vector, in blocks
    /// of eight input units.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and the buffers must fit the shapes, as
    /// [`super::back_delta`] asserts. Bit-identical to the scalar mirror
    /// only when every weight is finite.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn back(
        w: &[f32],
        n_in: usize,
        n_out: usize,
        delta: &[f32],
        acts: &[f32],
        prev: &mut [f32],
        blocks: usize,
    ) {
        let wp = w.as_ptr();
        for b in 0..blocks {
            let d = delta.as_ptr().add(b * n_out * SHOT_LANES);
            let x = acts.as_ptr().add(b * n_in * SHOT_LANES);
            let p = prev.as_mut_ptr().add(b * n_in * SHOT_LANES);
            let mut i = 0;
            while i + 8 <= n_in {
                back_units::<8>(wp, n_in, n_out, i, d, x, p);
                i += 8;
            }
            match n_in - i {
                7 => back_units::<7>(wp, n_in, n_out, i, d, x, p),
                6 => back_units::<6>(wp, n_in, n_out, i, d, x, p),
                5 => back_units::<5>(wp, n_in, n_out, i, d, x, p),
                4 => back_units::<4>(wp, n_in, n_out, i, d, x, p),
                3 => back_units::<3>(wp, n_in, n_out, i, d, x, p),
                2 => back_units::<2>(wp, n_in, n_out, i, d, x, p),
                1 => back_units::<1>(wp, n_in, n_out, i, d, x, p),
                _ => {}
            }
        }
    }

    /// Input units `i..i + U` of one block.
    #[inline(always)]
    unsafe fn back_units<const U: usize>(
        w: *const f32,
        n_in: usize,
        n_out: usize,
        i: usize,
        d: *const f32,
        x: *const f32,
        p: *mut f32,
    ) {
        let zero = _mm256_setzero_ps();
        let mut acc = [zero; U];
        for o in 0..n_out {
            let dv = _mm256_loadu_ps(d.add(o * SHOT_LANES));
            let wr = w.add(o * n_in + i);
            for (u, v) in acc.iter_mut().enumerate() {
                *v = _mm256_add_ps(*v, _mm256_mul_ps(dv, _mm256_broadcast_ss(&*wr.add(u))));
            }
        }
        for (u, v) in acc.iter().enumerate() {
            let at = (i + u) * SHOT_LANES;
            let dead = _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_loadu_ps(x.add(at)), zero);
            _mm256_storeu_ps(p.add(at), _mm256_andnot_ps(dead, *v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic values with zeros, negatives and, where `wild`, the
    /// odd infinity and NaN.
    fn values(n: usize, seed: u32, wild: bool) -> Vec<f32> {
        (0..n as u32)
            .map(|k| {
                let h = (k.wrapping_mul(2_654_435_761) ^ seed.wrapping_mul(40_503)) % 1009;
                match h {
                    0..=120 => 0.0,
                    121 if wild => f32::INFINITY,
                    122 if wild => f32::NAN,
                    123 if wild => -0.0,
                    _ => (h as f32 - 560.0) / 97.0,
                }
            })
            .collect()
    }

    /// Bit patterns, every NaN read as one: which NaN a sum of two NaNs
    /// keeps depends on operand order, which the compiler may swap.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    #[test]
    fn outer_product_bodies_agree_with_the_per_sample_sum() {
        // Finite rows run the AVX2 body; rows with an infinity or a NaN
        // take the scalar mirror on every tier.
        let shapes = [
            (22, 45, 64usize),
            (11, 22, 37),
            (3, 11, 8),
            (7, 200, 13),
            (5, 3, 1),
        ];
        for ((n_out, width, batch), wild) in
            shapes.into_iter().flat_map(|s| [(s, false), (s, true)])
        {
            let stride = row_stride(width);
            let blocks = batch.div_ceil(SHOT_LANES);
            let delta = values(blocks * n_out * SHOT_LANES, 3, true);
            let mut rows = values(batch * stride, 5, wild);
            for row in rows.chunks_exact_mut(stride) {
                row[width..].fill(0.0);
            }
            let start = values(n_out * stride, 7, false);
            // The per-sample backward pass's order: sample by sample, each
            // row's products added in column order.
            let mut want = start.clone();
            for s in 0..batch {
                for o in 0..n_out {
                    let d = delta[((s / SHOT_LANES) * n_out + o) * SHOT_LANES + s % SHOT_LANES];
                    if d != 0.0 {
                        for i in 0..width {
                            want[o * stride + i] += d * rows[s * stride + i];
                        }
                    }
                }
            }
            for tier in Tier::on_host() {
                let mut got = start.clone();
                accumulate_outer(tier, &mut got, stride, &delta, &rows, batch);
                for o in 0..n_out {
                    let (g, w) = (&got[o * stride..][..width], &want[o * stride..][..width]);
                    assert_eq!(
                        bits(g),
                        bits(w),
                        "{tier:?} {n_out}x{width}, batch {batch}, wild {wild}, row {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn back_delta_bodies_agree_with_the_per_sample_sum() {
        // Finite weights run the AVX2 body; an infinite weight takes the
        // scalar mirror on every tier.
        let shapes = [
            (22, 11, 8),
            (11, 3, 3),
            (45, 22, 1),
            (100, 50, 2),
            (1, 4, 2),
        ];
        for ((n_in, n_out, blocks), wild) in
            shapes.into_iter().flat_map(|s| [(s, false), (s, true)])
        {
            let mut w = values(n_out * n_in, 11, false);
            if wild {
                w[n_in / 2] = f32::INFINITY;
            }
            let delta = values(blocks * n_out * SHOT_LANES, 13, true);
            let acts = values(blocks * n_in * SHOT_LANES, 17, true);
            let mut want = vec![0.0f32; blocks * n_in * SHOT_LANES];
            for b in 0..blocks {
                for lane in 0..SHOT_LANES {
                    let d: Vec<f32> = (0..n_out)
                        .map(|o| delta[(b * n_out + o) * SHOT_LANES + lane])
                        .collect();
                    let mut prev = vec![0.0f32; n_in];
                    for (o, &d) in d.iter().enumerate() {
                        if d != 0.0 {
                            for (p, &wv) in prev.iter_mut().zip(&w[o * n_in..][..n_in]) {
                                *p += d * wv;
                            }
                        }
                    }
                    for (i, p) in prev.iter().enumerate() {
                        let at = (b * n_in + i) * SHOT_LANES + lane;
                        want[at] = if acts[at] <= 0.0 { 0.0 } else { *p };
                    }
                }
            }
            for tier in Tier::on_host() {
                let mut got = vec![f32::NAN; want.len()];
                back_delta(tier, &w, n_in, &delta, &acts, &mut got);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{tier:?} {n_out}->{n_in}, {blocks} blocks, wild {wild}"
                );
            }
        }
    }
}
