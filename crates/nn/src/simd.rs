//! Explicit-SIMD `f32` dot products — the one kernel every fused inference
//! path in the workspace is built on, living here (below `mlr_core`) so the
//! network's own forward passes run on the same arithmetic as the compiled
//! inference plans.
//!
//! # Bit reproducibility
//!
//! [`dot_f32`] dispatches at runtime (cached feature detection) between an
//! AVX2 path and a scalar fallback that mirrors the vector code's exact
//! lane and reduction structure: 4 accumulator vectors × 8 lanes, pairwise
//! lane reduction `(a0+a1)+(a2+a3)`, the same fixed horizontal tree, and a
//! shared scalar remainder loop. Both paths use separate multiply-then-add
//! (deliberately **no FMA** — an FMA's unrounded intermediate would make
//! the two paths diverge in the last bit). The result: scalar and AVX2
//! agree **bit-for-bit**, which the workspace's property tests pin, and a
//! host without AVX2 serves identical decisions.
//!
//! # Tile kernels
//!
//! [`dot_tile`] and [`dot_lanes`] score many (row, shot) pairs per call,
//! and every pair's result is bit-identical to [`dot_f32`]: each pair
//! keeps its own 32 accumulators, the same `(acc0+acc1)+(acc2+acc3)` lane
//! fold, the same horizontal tree and the same serial remainder. Only
//! which pairs share a load changes, never the association order inside a
//! pair.
//!
//! * [`dot_tile`] scores a block of kernel rows against a block of
//!   shots in register blocks, dispatching at runtime AVX-512 → AVX2 →
//!   scalar ([`tile_tier`]):
//!   - **AVX-512: 3 rows × 4 shots.** A zmm holds two of a pair's ymm
//!     accumulators: floats 0..16 of every 32-float chunk go into one
//!     (lanes 0–7 are `acc0`, 8–15 `acc1`) and floats 16..32 into the
//!     other (`acc2|acc3`), so all twelve pairs' accumulators take 24 of
//!     the 32 zmm registers, leaving six for the three rows' loads, and
//!     the block makes one pass. The finish adds each zmm's two 256-bit
//!     halves — `acc0+acc1` and `acc2+acc3` — and then those two.
//!   - **AVX2: 2 rows × 3 shots.** All four accumulators of six pairs
//!     would need 24 vector registers and AVX2 has 16, so each block
//!     makes two half passes over every 32-float chunk with twelve live:
//!     the first keeps `acc0`/`acc1` and folds them to `acc0+acc1`, the
//!     second does the same for `acc2`/`acc3`, and the two folds are
//!     added last.
//! * [`dot_lanes`] scores a dense layer over [`SHOT_LANES`] shots held
//!   lane-major (`x[k * SHOT_LANES + lane]`). Each AVX2 lane is one shot
//!   running the scalar [`dot_f32_scalar`] sequence, so a width-22 or
//!   width-11 layer, which a single dot spends entirely in its serial
//!   remainder, becomes vector work across shots.
//!
//! Both have an AVX2 path and a scalar mirror that calls
//! [`dot_f32_scalar`] per pair, and [`dot_tile`] also has the AVX-512
//! path; the property tests pin all of them against [`dot_f32_scalar`].
//!
//! # Narrowing
//!
//! [`narrow_f32`] converts the `f64` IQ samples a plan flattens into the
//! `f32` the kernels score (`_mm512_cvtpd_ps` / `_mm256_cvtpd_ps`), with
//! the same round-to-nearest-even as `x as f32`.
//!
//! # Four-accumulator dot (`f64`)
//!
//! [`dot4_f64`] is the matched-filter feature extractor's dot product:
//! four accumulators, the remainder into the first, a fixed fold. One pair
//! is a single dependency chain, so [`dot4_f64_tile`] scores many (kernel,
//! shot) pairs at once — on AVX2, each pair's four accumulators in one
//! ymm, register blocks of two kernels × four shots — and every pair's
//! result is bit-identical to [`dot4_f64`]; [`dot4_f64_tile_scalar`] is
//! its mirror.
//!
//! # Demodulate-integrate (`f64`)
//!
//! [`cmul_sum_f64`] is the one `f64` kernel here: it demodulates an
//! interleaved IQ trace against up to [`CMUL_LANES`] reference tones and
//! sums each baseband, in one walk over the trace. Each tone's sum runs in
//! the same sequential order and with the same roundings as demodulating
//! that tone alone and summing the result from `+0.0`, so its output is
//! bit-identical to the per-tone path on the AVX2 path (two tones per ymm:
//! `mul`, `permute`, `mul`, `addsub`, `add`, no FMA) and on the scalar
//! mirror alike. QDA serves through it.

use std::ops::Range;

/// The instruction set [`dot_tile`] scores with on this host: AVX-512
/// where available, then AVX2, then the scalar mirror.
pub fn tile_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_enabled() {
            return SimdTier::Avx512;
        }
        if avx2_enabled() {
            return SimdTier::Avx2;
        }
    }
    SimdTier::Scalar
}

/// The instruction set a tile kernel runs on (see [`tile_tier`]). Every
/// tier produces the same bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// The scalar mirror.
    Scalar,
    /// 256-bit AVX2.
    Avx2,
    /// 512-bit AVX-512F.
    Avx512,
}

impl SimdTier {
    /// The tier's name as bench rows record it: `"scalar"`, `"avx2"` or
    /// `"avx512"`.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx512_enabled() -> bool {
    use std::sync::OnceLock;
    static AVX512: OnceLock<bool> = OnceLock::new();
    *AVX512.get_or_init(|| is_x86_feature_detected!("avx512f"))
}

#[cfg(target_arch = "x86_64")]
fn avx2_enabled() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// Whether this host serves the AVX2 path (`false` means the bit-identical
/// scalar fallback is in use).
pub fn simd_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_enabled()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this host has AVX2 and FMA3. A host probe only: no kernel
/// consults it, since every kernel multiplies and adds separately.
pub fn fma_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this host serves [`dot_tile`]'s AVX-512 path (`false` means
/// AVX2 or the scalar mirror).
pub fn avx512_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx512_enabled()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Shared tail of both dot paths: fixed-order horizontal
/// reduction of the 8 lane sums, then the (sub-32-element) remainder
/// accumulated serially.
#[inline]
fn finish_dot(lanes: &[f32; 8], ra: &[f32], rb: &[f32]) -> f32 {
    let mut total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for (&x, &y) in ra.iter().zip(rb) {
        total += x * y;
    }
    total
}

/// Scalar dot product mirroring the AVX2 path's lane structure exactly:
/// 32 accumulators laid out as 4 vectors × 8 lanes, reduced pairwise.
/// Bit-identical to [`dot_f32_avx2`] by construction.
///
/// # Panics
///
/// Panics in debug builds if the slices' lengths differ.
pub fn dot_f32_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 32];
    let mut ca = a.chunks_exact(32);
    let mut cb = b.chunks_exact(32);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for ((acc, &x), &y) in acc.iter_mut().zip(xa).zip(xb) {
            *acc += x * y;
        }
    }
    let mut lanes = [0.0f32; 8];
    for (l, lane) in lanes.iter_mut().enumerate() {
        *lane = (acc[l] + acc[8 + l]) + (acc[16 + l] + acc[24 + l]);
    }
    finish_dot(&lanes, ca.remainder(), cb.remainder())
}

/// # Safety
///
/// Caller must ensure AVX2 is available and `a.len() == b.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_f32_avx2_impl(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    let n = a.len();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut acc2 = _mm256_setzero_ps();
    let mut acc3 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 32 <= n {
        let pa = a.as_ptr().add(i);
        let pb = b.as_ptr().add(i);
        acc0 = _mm256_add_ps(
            acc0,
            _mm256_mul_ps(_mm256_loadu_ps(pa), _mm256_loadu_ps(pb)),
        );
        acc1 = _mm256_add_ps(
            acc1,
            _mm256_mul_ps(_mm256_loadu_ps(pa.add(8)), _mm256_loadu_ps(pb.add(8))),
        );
        acc2 = _mm256_add_ps(
            acc2,
            _mm256_mul_ps(_mm256_loadu_ps(pa.add(16)), _mm256_loadu_ps(pb.add(16))),
        );
        acc3 = _mm256_add_ps(
            acc3,
            _mm256_mul_ps(_mm256_loadu_ps(pa.add(24)), _mm256_loadu_ps(pb.add(24))),
        );
        i += 32;
    }
    let s = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), s);
    finish_dot(&lanes, &a[i..], &b[i..])
}

/// The AVX2 dot product (safe wrapper) — exposed for the scalar-vs-AVX2
/// bit-agreement tests.
///
/// # Panics
///
/// Panics if AVX2 is not available on this host (check [`simd_active`]
/// first) or, in debug builds, if the slices' lengths differ.
#[cfg(target_arch = "x86_64")]
pub fn dot_f32_avx2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    assert!(avx2_enabled(), "AVX2 unavailable on this host");
    // SAFETY: availability checked above; equal lengths asserted.
    unsafe { dot_f32_avx2_impl(a, b) }
}

/// Contiguous `f32` dot product with runtime SIMD dispatch — every score
/// the compiled plans and the network forward passes produce goes through
/// this one function, single-shot and batched alike, which is what makes
/// them bit-identical to each other.
///
/// # Panics
///
/// Panics in debug builds if the slices' lengths differ.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_enabled() {
            // SAFETY: availability checked at runtime.
            return unsafe { dot_f32_avx2_impl(a, b) };
        }
    }
    dot_f32_scalar(a, b)
}

/// Shots per lane block of [`dot_lanes`]: one AVX2 vector of `f32`.
pub const SHOT_LANES: usize = 8;

/// The shape checks every [`dot_tile`] entry point makes; returns the
/// row and shot counts.
fn tile_shape(
    rows: &[f32],
    shots: &[f32],
    stride: usize,
    span: &Range<usize>,
    out: &[f32],
    out_stride: usize,
) -> (usize, usize) {
    assert!(stride > 0, "tile stride must be positive");
    assert!(
        rows.len().is_multiple_of(stride) && shots.len().is_multiple_of(stride),
        "tile blocks must hold whole rows and shots"
    );
    assert!(
        span.start <= span.end && span.end <= stride,
        "span {span:?} outside stride {stride}"
    );
    let (n_rows, n_shots) = (rows.len() / stride, shots.len() / stride);
    if n_rows > 0 && n_shots > 0 {
        assert!(
            n_rows <= out_stride && (n_shots - 1) * out_stride + n_rows <= out.len(),
            "tile output too small"
        );
    }
    (n_rows, n_shots)
}

/// The shape checks every [`dot_lanes`] entry point makes; returns the
/// output row count.
fn lanes_shape(w: &[f32], n_in: usize, x: &[f32], out: &[f32]) -> usize {
    assert!(
        out.len().is_multiple_of(SHOT_LANES),
        "lane output must hold whole lane rows"
    );
    let n_out = out.len() / SHOT_LANES;
    assert_eq!(w.len(), n_out * n_in, "weights != n_out × n_in");
    assert_eq!(x.len(), n_in * SHOT_LANES, "lane input != n_in × lanes");
    n_out
}

/// Scores every (row, shot) pair of a row block against a shot block:
/// `out[s * out_stride + r] = dot(&shot_s[span], &row_r[span])`, where
/// row `r` is `rows[r * stride..][..stride]` and shot `s` is
/// `shots[s * stride..][..stride]`. Each result is bit-identical to the
/// [`dot_f32`] on the same slices; see the module docs for the register
/// blocking.
///
/// # Panics
///
/// Panics if `stride` is zero, either block is not a whole number of
/// strides, `span` leaves the stride, or `out` cannot hold the result.
pub fn dot_tile(
    rows: &[f32],
    shots: &[f32],
    stride: usize,
    span: Range<usize>,
    out: &mut [f32],
    out_stride: usize,
) {
    match tile_tier() {
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx512 => dot_tile_avx512(rows, shots, stride, span, out, out_stride),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => dot_tile_avx2(rows, shots, stride, span, out, out_stride),
        _ => dot_tile_scalar(rows, shots, stride, span, out, out_stride),
    }
}

/// [`dot_tile`]'s scalar mirror: [`dot_f32_scalar`] per pair.
///
/// # Panics
///
/// As [`dot_tile`].
pub fn dot_tile_scalar(
    rows: &[f32],
    shots: &[f32],
    stride: usize,
    span: Range<usize>,
    out: &mut [f32],
    out_stride: usize,
) {
    tile_shape(rows, shots, stride, &span, out, out_stride);
    for (r, row) in rows.chunks_exact(stride).enumerate() {
        for (s, shot) in shots.chunks_exact(stride).enumerate() {
            out[s * out_stride + r] = dot_f32_scalar(&shot[span.clone()], &row[span.clone()]);
        }
    }
}

/// [`dot_tile`]'s AVX2 path (2 × 3 register blocks), exposed for the
/// bit-agreement tests.
///
/// # Panics
///
/// Panics if AVX2 is unavailable on this host (see [`simd_active`]), and
/// as [`dot_tile`].
#[cfg(target_arch = "x86_64")]
pub fn dot_tile_avx2(
    rows: &[f32],
    shots: &[f32],
    stride: usize,
    span: Range<usize>,
    out: &mut [f32],
    out_stride: usize,
) {
    assert!(avx2_enabled(), "AVX2 unavailable on this host");
    let (n_rows, n_shots) = tile_shape(rows, shots, stride, &span, out, out_stride);
    let row = |r: usize| &rows[r * stride..][span.clone()];
    let shot = |s: usize| &shots[s * stride..][span.clone()];
    let mut s = 0;
    while s < n_shots {
        let sb = (n_shots - s).min(3);
        let mut r = 0;
        while r < n_rows {
            let rb = (n_rows - r).min(2);
            let at = &mut out[s * out_stride + r..];
            // SAFETY: AVX2 was checked above, and every row and shot slice
            // has the span's length.
            unsafe {
                match (rb, sb) {
                    (2, 3) => avx2::block::<2, 3>(row, shot, r, s, at, out_stride),
                    (2, 2) => avx2::block::<2, 2>(row, shot, r, s, at, out_stride),
                    (2, _) => avx2::block::<2, 1>(row, shot, r, s, at, out_stride),
                    (_, 3) => avx2::block::<1, 3>(row, shot, r, s, at, out_stride),
                    (_, 2) => avx2::block::<1, 2>(row, shot, r, s, at, out_stride),
                    _ => avx2::block::<1, 1>(row, shot, r, s, at, out_stride),
                }
            }
            r += rb;
        }
        s += sb;
    }
}

/// [`dot_tile`]'s AVX-512 path (3 × 4 register blocks), exposed for the
/// bit-agreement tests.
///
/// # Panics
///
/// Panics if AVX-512F is unavailable on this host (see
/// [`avx512_active`]), and as [`dot_tile`].
#[cfg(target_arch = "x86_64")]
pub fn dot_tile_avx512(
    rows: &[f32],
    shots: &[f32],
    stride: usize,
    span: Range<usize>,
    out: &mut [f32],
    out_stride: usize,
) {
    assert!(avx512_enabled(), "AVX-512F unavailable on this host");
    let (n_rows, n_shots) = tile_shape(rows, shots, stride, &span, out, out_stride);
    let row = |r: usize| &rows[r * stride..][span.clone()];
    let shot = |s: usize| &shots[s * stride..][span.clone()];
    let mut s = 0;
    while s < n_shots {
        let sb = (n_shots - s).min(4);
        let mut r = 0;
        while r < n_rows {
            let rb = (n_rows - r).min(3);
            let at = &mut out[s * out_stride + r..];
            // SAFETY: AVX-512F was checked above, and every row and shot
            // slice has the span's length.
            unsafe {
                match (rb, sb) {
                    (3, 4) => avx512::block::<3, 4>(row, shot, r, s, at, out_stride),
                    (3, 3) => avx512::block::<3, 3>(row, shot, r, s, at, out_stride),
                    (3, 2) => avx512::block::<3, 2>(row, shot, r, s, at, out_stride),
                    (3, _) => avx512::block::<3, 1>(row, shot, r, s, at, out_stride),
                    (2, 4) => avx512::block::<2, 4>(row, shot, r, s, at, out_stride),
                    (2, 3) => avx512::block::<2, 3>(row, shot, r, s, at, out_stride),
                    (2, 2) => avx512::block::<2, 2>(row, shot, r, s, at, out_stride),
                    (2, _) => avx512::block::<2, 1>(row, shot, r, s, at, out_stride),
                    (_, 4) => avx512::block::<1, 4>(row, shot, r, s, at, out_stride),
                    (_, 3) => avx512::block::<1, 3>(row, shot, r, s, at, out_stride),
                    (_, 2) => avx512::block::<1, 2>(row, shot, r, s, at, out_stride),
                    (_, _) => avx512::block::<1, 1>(row, shot, r, s, at, out_stride),
                }
            }
            r += rb;
        }
        s += sb;
    }
}

/// Narrows `f64` samples to `f32`: `dst[i] = src[i] as f32`, bit for bit
/// (round to nearest, ties to even; NaN stays NaN, overflow goes to ±∞),
/// eight at a time with `_mm512_cvtpd_ps` on AVX-512 hosts and four with
/// `_mm256_cvtpd_ps` on AVX hosts.
///
/// The samples before the source's first 64-byte boundary are narrowed
/// one by one, so every vector load reads whole cache lines whatever
/// alignment the allocator gave the source.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
pub fn narrow_f32(src: &[f64], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "narrow_f32 length mismatch");
    let head = src.as_ptr().align_offset(64).min(src.len());
    narrow::scalar(&src[..head], &mut dst[..head]);
    let (src, dst) = (&src[head..], &mut dst[head..]);
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_enabled() {
            // SAFETY: availability checked at runtime; equal lengths
            // asserted above.
            return unsafe { narrow::avx512(src, dst) };
        }
        if is_x86_feature_detected!("avx") {
            // SAFETY: as above.
            return unsafe { narrow::avx(src, dst) };
        }
    }
    narrow::scalar(src, dst);
}

/// [`narrow_f32`]'s per-width bodies; each vector body leaves the
/// sub-vector tail to [`narrow::scalar`].
mod narrow {
    pub(super) fn scalar(src: &[f64], dst: &mut [f32]) {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = x as f32;
        }
    }

    /// # Safety
    ///
    /// AVX-512F must be available and `src.len() == dst.len()`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512(src: &[f64], dst: &mut [f32]) {
        use std::arch::x86_64::{_mm256_storeu_ps, _mm512_cvtpd_ps, _mm512_loadu_pd};
        let full = src.len() - src.len() % 8;
        let mut i = 0;
        while i < full {
            let v = _mm512_cvtpd_ps(_mm512_loadu_pd(src.as_ptr().add(i)));
            _mm256_storeu_ps(dst.as_mut_ptr().add(i), v);
            i += 8;
        }
        scalar(&src[full..], &mut dst[full..]);
    }

    /// # Safety
    ///
    /// AVX must be available and `src.len() == dst.len()`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn avx(src: &[f64], dst: &mut [f32]) {
        use std::arch::x86_64::{_mm256_cvtpd_ps, _mm256_loadu_pd, _mm_storeu_ps};
        let full = src.len() - src.len() % 4;
        let mut i = 0;
        while i < full {
            let v = _mm256_cvtpd_ps(_mm256_loadu_pd(src.as_ptr().add(i)));
            _mm_storeu_ps(dst.as_mut_ptr().add(i), v);
            i += 4;
        }
        scalar(&src[full..], &mut dst[full..]);
    }
}

/// The four-accumulator `f64` dot product the matched-filter feature
/// extractor scores with: accumulator `k` sums `a[4j + k] · b[4j + k]` over
/// the whole chunks of four, the remainder adds into accumulator 0, and
/// the result is `(acc₀ + acc₁) + (acc₂ + acc₃)`. Multiply, then add; no
/// FMA.
///
/// # Panics
///
/// Panics in debug builds if the slices' lengths differ.
pub fn dot4_f64(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        for ((acc, &x), &y) in acc.iter_mut().zip(ca).zip(cb) {
            *acc += x * y;
        }
    }
    finish_dot4(acc, chunks_a.remainder(), chunks_b.remainder())
}

/// [`dot4_f64`]'s tail: the remainder into accumulator 0, then the fold.
#[inline]
fn finish_dot4(mut acc: [f64; 4], ra: &[f64], rb: &[f64]) -> f64 {
    for (x, y) in ra.iter().zip(rb) {
        acc[0] += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// The signature [`dot4_f64_tile`], its scalar mirror and its AVX2 path
/// share, so a caller can pin one of them.
pub type Dot4TileFn = fn(&[&[f64]], &[&[f64]], &mut [f64]);

/// Scores every (row, shot) pair with [`dot4_f64`]:
/// `out[s · rows.len() + r] = dot4_f64(shots[s], rows[r])`, bit for bit. A
/// single pair's four accumulators form one dependency chain; the AVX2
/// path keeps them in one ymm and runs register blocks of two rows by
/// four shots, so eight chains overlap. The scalar mirror is
/// [`dot4_f64_tile_scalar`].
///
/// # Panics
///
/// Panics unless every row and shot has the same length and `out` holds
/// one value per pair.
pub fn dot4_f64_tile(rows: &[&[f64]], shots: &[&[f64]], out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        return dot4_f64_tile_avx2(rows, shots, out);
    }
    dot4_f64_tile_scalar(rows, shots, out);
}

/// The shape checks every [`dot4_f64_tile`] entry point makes.
fn dot4_shape(rows: &[&[f64]], shots: &[&[f64]], out: &[f64]) {
    let n = rows.first().or(shots.first()).map_or(0, |x| x.len());
    assert!(
        rows.iter().chain(shots).all(|x| x.len() == n),
        "rows and shots must have one length"
    );
    assert_eq!(out.len(), rows.len() * shots.len(), "one output per pair");
}

/// [`dot4_f64_tile`]'s scalar mirror: [`dot4_f64`] per pair.
///
/// # Panics
///
/// As [`dot4_f64_tile`].
pub fn dot4_f64_tile_scalar(rows: &[&[f64]], shots: &[&[f64]], out: &mut [f64]) {
    dot4_shape(rows, shots, out);
    for (o, shot) in out.chunks_exact_mut(rows.len().max(1)).zip(shots) {
        for (o, row) in o.iter_mut().zip(rows) {
            *o = dot4_f64(shot, row);
        }
    }
}

/// [`dot4_f64_tile`]'s AVX2 path, exposed for the bit-agreement tests.
///
/// # Panics
///
/// Panics if AVX2 is unavailable on this host (see [`simd_active`]), and
/// as [`dot4_f64_tile`].
#[cfg(target_arch = "x86_64")]
pub fn dot4_f64_tile_avx2(rows: &[&[f64]], shots: &[&[f64]], out: &mut [f64]) {
    assert!(avx2_enabled(), "AVX2 unavailable on this host");
    dot4_shape(rows, shots, out);
    // SAFETY: AVX2 was checked above, and `dot4_shape` checked that every
    // row and shot has one length and `out` holds every pair.
    unsafe { dot4::tile(rows, shots, out) }
}

/// [`dot4_f64_tile_avx2`]'s body.
#[cfg(target_arch = "x86_64")]
mod dot4 {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };

    use super::finish_dot4;

    /// Rows in register blocks of two, shots in blocks of four, smaller
    /// blocks at the edges.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, every row and shot must have one length and
    /// `out` must hold `rows.len() · shots.len()` values.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile(rows: &[&[f64]], shots: &[&[f64]], out: &mut [f64]) {
        let mut s = 0;
        while s < shots.len() {
            let sb = (shots.len() - s).min(4);
            let mut r = 0;
            while r < rows.len() {
                let rb = (rows.len() - r).min(2);
                match (rb, sb) {
                    (2, 4) => block::<2, 4>(rows, shots, r, s, out),
                    (2, 3) => block::<2, 3>(rows, shots, r, s, out),
                    (2, 2) => block::<2, 2>(rows, shots, r, s, out),
                    (2, _) => block::<2, 1>(rows, shots, r, s, out),
                    (_, 4) => block::<1, 4>(rows, shots, r, s, out),
                    (_, 3) => block::<1, 3>(rows, shots, r, s, out),
                    (_, 2) => block::<1, 2>(rows, shots, r, s, out),
                    (_, _) => block::<1, 1>(rows, shots, r, s, out),
                }
                r += rb;
            }
            s += sb;
        }
    }

    /// One `R`-row × `S`-shot block: each pair's four accumulators are one
    /// ymm, added chunk by chunk as [`super::dot4_f64`] adds them.
    ///
    /// # Safety
    ///
    /// As [`tile`], with rows `r0..r0 + R` and shots `s0..s0 + S` in range.
    #[inline(always)]
    unsafe fn block<const R: usize, const S: usize>(
        rows: &[&[f64]],
        shots: &[&[f64]],
        r0: usize,
        s0: usize,
        out: &mut [f64],
    ) {
        let n = rows[r0].len();
        let full = n - n % 4;
        let mut acc = [[_mm256_setzero_pd(); S]; R];
        let mut i = 0;
        while i < full {
            let mut x = [_mm256_setzero_pd(); S];
            for (j, x) in x.iter_mut().enumerate() {
                *x = _mm256_loadu_pd(shots[s0 + j].as_ptr().add(i));
            }
            for (k, acc) in acc.iter_mut().enumerate() {
                let w = _mm256_loadu_pd(rows[r0 + k].as_ptr().add(i));
                for (a, &x) in acc.iter_mut().zip(&x) {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(x, w));
                }
            }
            i += 4;
        }
        for (k, acc) in acc.iter().enumerate() {
            for (j, a) in acc.iter().enumerate() {
                let mut lanes = [0.0f64; 4];
                _mm256_storeu_pd(lanes.as_mut_ptr(), *a);
                let (shot, row) = (shots[s0 + j], rows[r0 + k]);
                out[(s0 + j) * rows.len() + r0 + k] =
                    finish_dot4(lanes, &shot[full..], &row[full..]);
            }
        }
    }
}

/// Most complex lanes (tones) one [`cmul_sum_f64`] call carries: four
/// ymm accumulators of two tones each.
pub const CMUL_LANES: usize = 8;

/// The signature [`cmul_sum_f64`], its scalar mirror and its AVX2 path
/// share, so a caller can pin one of them.
pub type CmulSumFn = fn(&[f64], usize, &[f64], &mut [f64]);

/// The shape checks every [`cmul_sum_f64`] entry point makes.
fn cmul_shape(table: &[f64], stride: usize, iq: &[f64], acc: &[f64]) {
    assert!(
        acc.len().is_multiple_of(4) && acc.len() <= 2 * CMUL_LANES,
        "accumulator must hold whole tone pairs, at most {CMUL_LANES} tones"
    );
    assert!(iq.len().is_multiple_of(2), "trace must be interleaved IQ");
    // Checked arithmetic: the AVX2 path's reads rely on this bound.
    let n = iq.len() / 2;
    let fits = n == 0
        || (n - 1)
            .checked_mul(stride)
            .and_then(|start| start.checked_add(acc.len()))
            .is_some_and(|end| end <= table.len());
    assert!(
        stride >= acc.len() && fits,
        "reference table too short for the trace"
    );
}

/// Demodulates and integrates one interleaved IQ trace against a block of
/// reference tones in a single pass: with `k = acc.len() / 2` tones and
/// `ref_j(t) = (table[t·stride + 2j], table[t·stride + 2j + 1])`,
/// `acc[2j..2j + 2]` becomes `Σ_t iq(t) · ref_j(t)` as a complex number.
/// Each tone's sum starts from `+0.0` and runs sequentially in `t`, every
/// step rounded exactly like `Complex::mul` followed by `Complex::add`
/// (`re = s.re·r.re − s.im·r.im`, `im = s.re·r.im + s.im·r.re`, no FMA),
/// so the result is bit-identical to demodulating one tone at a time and
/// summing the baseband samples. The AVX2 path holds two tones per ymm
/// (`mul`, `permute`, `mul`, `addsub`, `add`); the scalar mirror is
/// [`cmul_sum_f64_scalar`].
///
/// # Panics
///
/// Panics unless `acc` holds whole tone pairs (`acc.len()` a multiple of
/// 4, at most `2 ·` [`CMUL_LANES`]), `iq` is whole samples, and `table`
/// has a `stride`-wide row (at least `acc.len()` wide) for every sample.
pub fn cmul_sum_f64(table: &[f64], stride: usize, iq: &[f64], acc: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        return cmul_sum_f64_avx2(table, stride, iq, acc);
    }
    cmul_sum_f64_scalar(table, stride, iq, acc);
}

/// [`cmul_sum_f64`]'s scalar mirror.
///
/// # Panics
///
/// As [`cmul_sum_f64`].
pub fn cmul_sum_f64_scalar(table: &[f64], stride: usize, iq: &[f64], acc: &mut [f64]) {
    cmul_shape(table, stride, iq, acc);
    acc.fill(0.0);
    for (t, s) in iq.chunks_exact(2).enumerate() {
        let (sr, si) = (s[0], s[1]);
        let refs = &table[t * stride..][..acc.len()];
        for (a, r) in acc.chunks_exact_mut(2).zip(refs.chunks_exact(2)) {
            a[0] += sr * r[0] - si * r[1];
            a[1] += sr * r[1] + si * r[0];
        }
    }
}

/// [`cmul_sum_f64`]'s AVX2 path, exposed for the bit-agreement tests.
///
/// # Panics
///
/// Panics if AVX2 is unavailable on this host (see [`simd_active`]), and
/// as [`cmul_sum_f64`].
#[cfg(target_arch = "x86_64")]
pub fn cmul_sum_f64_avx2(table: &[f64], stride: usize, iq: &[f64], acc: &mut [f64]) {
    assert!(avx2_enabled(), "AVX2 unavailable on this host");
    cmul_shape(table, stride, iq, acc);
    // SAFETY: AVX2 was checked above, and `cmul_shape` checked that every
    // sample's table row holds the `acc.len()` floats the block reads.
    unsafe {
        match acc.len() / 4 {
            0 => {}
            1 => cmul::sum::<1>(table, stride, iq, acc),
            2 => cmul::sum::<2>(table, stride, iq, acc),
            3 => cmul::sum::<3>(table, stride, iq, acc),
            _ => cmul::sum::<4>(table, stride, iq, acc),
        }
    }
}

/// [`cmul_sum_f64_avx2`]'s body, one monomorphisation per tone-pair
/// count so every accumulator stays in a register.
#[cfg(target_arch = "x86_64")]
mod cmul {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_addsub_pd, _mm256_broadcast_sd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_permute_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };

    /// # Safety
    ///
    /// AVX2 must be available, `acc` must hold `4 · P` floats, and
    /// `table[t * stride..]` must hold `4 · P` floats for every sample `t`
    /// of `iq`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum<const P: usize>(
        table: &[f64],
        stride: usize,
        iq: &[f64],
        acc: &mut [f64],
    ) {
        let mut a = [_mm256_setzero_pd(); P];
        for (t, s) in iq.chunks_exact(2).enumerate() {
            let sr = _mm256_broadcast_sd(&s[0]);
            let si = _mm256_broadcast_sd(&s[1]);
            let row = table.as_ptr().add(t * stride);
            for (p, a) in a.iter_mut().enumerate() {
                // r = [re₀, im₀, re₁, im₁] of two tones; the permute swaps
                // each tone's pair so `addsub` yields
                // [sr·re₀ − si·im₀, sr·im₀ + si·re₀, …].
                let r = _mm256_loadu_pd(row.add(4 * p));
                let d = _mm256_addsub_pd(
                    _mm256_mul_pd(sr, r),
                    _mm256_mul_pd(si, _mm256_permute_pd::<0b0101>(r)),
                );
                *a = _mm256_add_pd(*a, d);
            }
        }
        for (p, a) in a.iter().enumerate() {
            _mm256_storeu_pd(acc.as_mut_ptr().add(4 * p), *a);
        }
    }
}

/// Scores a dense layer over a block of [`SHOT_LANES`] shots held
/// lane-major: with `n_out = out.len() / SHOT_LANES`,
/// `out[o * SHOT_LANES + l] = dot(&w[o * n_in..][..n_in], column l of x)`
/// where column `l` is `x[k * SHOT_LANES + l]` for `k < n_in`. Each result
/// is bit-identical to [`dot_f32`] of the weight row against that shot's
/// activations.
///
/// # Panics
///
/// Panics unless `out` holds whole lane rows, `w` is `n_out × n_in` and
/// `x` is `n_in × SHOT_LANES`.
pub fn dot_lanes(w: &[f32], n_in: usize, x: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        return dot_lanes_avx2(w, n_in, x, out);
    }
    dot_lanes_scalar(w, n_in, x, out);
}

/// [`dot_lanes`]'s scalar mirror: gathers each shot's column and runs
/// [`dot_f32_scalar`] per (row, shot) pair.
///
/// # Panics
///
/// As [`dot_lanes`].
pub fn dot_lanes_scalar(w: &[f32], n_in: usize, x: &[f32], out: &mut [f32]) {
    let n_out = lanes_shape(w, n_in, x, out);
    let mut column = vec![0.0f32; n_in];
    for lane in 0..SHOT_LANES {
        for (k, c) in column.iter_mut().enumerate() {
            *c = x[k * SHOT_LANES + lane];
        }
        for o in 0..n_out {
            out[o * SHOT_LANES + lane] = dot_f32_scalar(&w[o * n_in..][..n_in], &column);
        }
    }
}

/// [`dot_lanes`]' AVX2 path, exposed for the bit-agreement tests.
///
/// # Panics
///
/// Panics if AVX2 is unavailable on this host (see [`simd_active`]), and
/// as [`dot_lanes`].
#[cfg(target_arch = "x86_64")]
pub fn dot_lanes_avx2(w: &[f32], n_in: usize, x: &[f32], out: &mut [f32]) {
    assert!(avx2_enabled(), "AVX2 unavailable on this host");
    lanes_shape(w, n_in, x, out);
    // SAFETY: AVX2 was checked above, and the shapes the kernel indexes by
    // were checked by `lanes_shape`.
    unsafe { avx2::lanes(w, n_in, x, out) }
}

/// The AVX2 tile kernels. Every step is a separate multiply, then add.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    use super::{finish_dot, SHOT_LANES};

    /// One `R`-row × `S`-shot register block, written to
    /// `out[s * out_stride + r]` for the block's local `r`, `s`. Inlined
    /// into [`block`] so its intrinsics compile with AVX2 enabled, while
    /// its closures, defined outside any `target_feature` function, still
    /// inline into `std::array::from_fn`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, and every slice `row(r0 + i)` /
    /// `shot(s0 + j)` must have the same length.
    #[inline(always)]
    unsafe fn block_in<'a, const R: usize, const S: usize>(
        row: impl Fn(usize) -> &'a [f32],
        shot: impl Fn(usize) -> &'a [f32],
        r0: usize,
        s0: usize,
        out: &mut [f32],
        out_stride: usize,
    ) {
        let k: [&[f32]; R] = std::array::from_fn(|i| row(r0 + i));
        let x: [&[f32]; S] = std::array::from_fn(|j| shot(s0 + j));
        let n = k[0].len();
        let full = n - n % 32;
        let mut sums = [[_mm256_setzero_ps(); S]; R];
        // Half pass 0 keeps acc0/acc1 (floats 0..16 of every 32-float
        // chunk), half pass 1 keeps acc2/acc3 (floats 16..32); folding
        // each pass's pair and then adding the two gives the single-pair
        // dot's (acc0+acc1)+(acc2+acc3).
        for half in [0usize, 16] {
            let mut lo = [[_mm256_setzero_ps(); S]; R];
            let mut hi = [[_mm256_setzero_ps(); S]; R];
            let mut i = half;
            while i < full {
                for r in 0..R {
                    let kp = k[r].as_ptr().add(i);
                    let (k0, k1) = (_mm256_loadu_ps(kp), _mm256_loadu_ps(kp.add(8)));
                    for s in 0..S {
                        let xp = x[s].as_ptr().add(i);
                        lo[r][s] = _mm256_add_ps(lo[r][s], _mm256_mul_ps(_mm256_loadu_ps(xp), k0));
                        hi[r][s] =
                            _mm256_add_ps(hi[r][s], _mm256_mul_ps(_mm256_loadu_ps(xp.add(8)), k1));
                    }
                }
                i += 32;
            }
            for r in 0..R {
                for s in 0..S {
                    let pair = _mm256_add_ps(lo[r][s], hi[r][s]);
                    sums[r][s] = if half == 0 {
                        pair
                    } else {
                        _mm256_add_ps(sums[r][s], pair)
                    };
                }
            }
        }
        for r in 0..R {
            for s in 0..S {
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), sums[r][s]);
                out[s * out_stride + r] = finish_dot(&lanes, &x[s][full..], &k[r][full..]);
            }
        }
    }

    /// One register block.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; as [`block_in`] otherwise.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block<'a, const R: usize, const S: usize>(
        row: impl Fn(usize) -> &'a [f32],
        shot: impl Fn(usize) -> &'a [f32],
        r0: usize,
        s0: usize,
        out: &mut [f32],
        out_stride: usize,
    ) {
        block_in::<R, S>(row, shot, r0, s0, out, out_stride)
    }

    /// `R` output rows of a lane layer, starting at row `o`. Inlined into
    /// [`lanes`], so its intrinsics compile with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `w` must hold rows `o..o + R` of width
    /// `n_in`, `x` must be `n_in × SHOT_LANES` and `out` must hold rows
    /// `o..o + R` of `SHOT_LANES`.
    #[inline(always)]
    unsafe fn lane_rows<const R: usize>(
        w: &[f32],
        n_in: usize,
        o: usize,
        x: &[f32],
        out: &mut [f32],
    ) {
        let full = n_in - n_in % 32;
        let xp = x.as_ptr();
        let wp = w.as_ptr().add(o * n_in);
        let mut total = [_mm256_setzero_ps(); R];
        if full > 0 {
            for (r, t) in total.iter_mut().enumerate() {
                let wr = wp.add(r * n_in);
                let mut lanes = [_mm256_setzero_ps(); 8];
                for (l, lane) in lanes.iter_mut().enumerate() {
                    // Accumulators l, 8+l, 16+l, 24+l of the single-pair
                    // dot, for eight shots at once.
                    let mut acc = [_mm256_setzero_ps(); 4];
                    let mut c = 0;
                    while c < full {
                        for (q, a) in acc.iter_mut().enumerate() {
                            let k = c + 8 * q + l;
                            let xk = _mm256_loadu_ps(xp.add(k * SHOT_LANES));
                            *a = _mm256_add_ps(*a, _mm256_mul_ps(xk, _mm256_set1_ps(*wr.add(k))));
                        }
                        c += 32;
                    }
                    *lane =
                        _mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3]));
                }
                *t = _mm256_add_ps(
                    _mm256_add_ps(
                        _mm256_add_ps(lanes[0], lanes[1]),
                        _mm256_add_ps(lanes[2], lanes[3]),
                    ),
                    _mm256_add_ps(
                        _mm256_add_ps(lanes[4], lanes[5]),
                        _mm256_add_ps(lanes[6], lanes[7]),
                    ),
                );
            }
        }
        // The serial remainder, interleaved across the R rows so their
        // dependency chains overlap.
        for k in full..n_in {
            let xk = _mm256_loadu_ps(xp.add(k * SHOT_LANES));
            for (r, t) in total.iter_mut().enumerate() {
                *t = _mm256_add_ps(*t, _mm256_mul_ps(xk, _mm256_set1_ps(*wp.add(r * n_in + k))));
            }
        }
        let op = out.as_mut_ptr().add(o * SHOT_LANES);
        for (r, t) in total.iter().enumerate() {
            _mm256_storeu_ps(op.add(r * SHOT_LANES), *t);
        }
    }

    /// A whole lane layer: blocks of four output rows, then single rows.
    ///
    /// # Safety
    ///
    /// As [`lane_rows`], for every row below `out.len() / SHOT_LANES`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn lanes(w: &[f32], n_in: usize, x: &[f32], out: &mut [f32]) {
        let n_out = out.len() / SHOT_LANES;
        let mut o = 0;
        while o + 4 <= n_out {
            lane_rows::<4>(w, n_in, o, x, out);
            o += 4;
        }
        while o < n_out {
            lane_rows::<1>(w, n_in, o, x, out);
            o += 1;
        }
    }
}

/// The AVX-512 tile kernel: the AVX2 block's multiply-then-add, 512 bits
/// at a time, with the finish on the shared scalar tail.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::{
        __m256, __m512, _mm256_add_ps, _mm256_castpd_ps, _mm256_storeu_ps, _mm512_add_ps,
        _mm512_castpd512_pd256, _mm512_castps_pd, _mm512_extractf64x4_pd, _mm512_loadu_ps,
        _mm512_mul_ps, _mm512_setzero_ps,
    };

    use super::finish_dot;

    /// Lanes 0–7 plus lanes 8–15 of `v`.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available.
    #[inline(always)]
    unsafe fn fold_halves(v: __m512) -> __m256 {
        let v = _mm512_castps_pd(v);
        _mm256_add_ps(
            _mm256_castpd_ps(_mm512_castpd512_pd256(v)),
            _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(v)),
        )
    }

    /// One `R`-row × `S`-shot register block, written to
    /// `out[s * out_stride + r]` for the block's local `r`, `s`. Inlined
    /// into [`block`], as in [`super::avx2`].
    ///
    /// # Safety
    ///
    /// AVX-512F must be available, and every slice `row(r0 + i)` /
    /// `shot(s0 + j)` must have the same length.
    #[inline(always)]
    unsafe fn block_in<'a, const R: usize, const S: usize>(
        row: impl Fn(usize) -> &'a [f32],
        shot: impl Fn(usize) -> &'a [f32],
        r0: usize,
        s0: usize,
        out: &mut [f32],
        out_stride: usize,
    ) {
        let k: [&[f32]; R] = std::array::from_fn(|i| row(r0 + i));
        let x: [&[f32]; S] = std::array::from_fn(|j| shot(s0 + j));
        let n = k[0].len();
        let full = n - n % 32;
        // `lo` holds acc0|acc1 (floats 0..16 of every 32-float chunk) and
        // `hi` acc2|acc3 (floats 16..32), lane for lane the single-pair
        // dot's four ymm accumulators.
        let mut lo = [[_mm512_setzero_ps(); S]; R];
        let mut hi = [[_mm512_setzero_ps(); S]; R];
        let mut i = 0;
        while i < full {
            for r in 0..R {
                let kp = k[r].as_ptr().add(i);
                let (k0, k1) = (_mm512_loadu_ps(kp), _mm512_loadu_ps(kp.add(16)));
                for s in 0..S {
                    let xp = x[s].as_ptr().add(i);
                    lo[r][s] = _mm512_add_ps(lo[r][s], _mm512_mul_ps(_mm512_loadu_ps(xp), k0));
                    hi[r][s] =
                        _mm512_add_ps(hi[r][s], _mm512_mul_ps(_mm512_loadu_ps(xp.add(16)), k1));
                }
            }
            i += 32;
        }
        for r in 0..R {
            for s in 0..S {
                let sum = _mm256_add_ps(fold_halves(lo[r][s]), fold_halves(hi[r][s]));
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
                out[s * out_stride + r] = finish_dot(&lanes, &x[s][full..], &k[r][full..]);
            }
        }
    }

    /// One register block.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; as [`block_in`] otherwise.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn block<'a, const R: usize, const S: usize>(
        row: impl Fn(usize) -> &'a [f32],
        shot: impl Fn(usize) -> &'a [f32],
        r0: usize,
        s0: usize,
        out: &mut [f32],
        out_stride: usize,
    ) {
        block_in::<R, S>(row, shot, r0, s0, out, out_stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f32>, Vec<f32>) {
        // Deterministic pseudo-random data with mixed signs/magnitudes.
        let mut state = 0x2545_F491u32;
        let mut next = || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let a = (0..n).map(|_| next() * 3.0).collect();
        let b = (0..n).map(|_| next() * 3.0).collect();
        (a, b)
    }

    #[test]
    fn reproducible_tier_simd_agrees_bitwise_with_scalar() {
        #[cfg(target_arch = "x86_64")]
        if simd_active() {
            for n in [0, 1, 7, 31, 32, 33, 64, 120, 1000] {
                let (a, b) = vecs(n);
                assert_eq!(
                    dot_f32_avx2(&a, &b).to_bits(),
                    dot_f32_scalar(&a, &b).to_bits(),
                    "length {n}"
                );
            }
        }
    }

    type TileFn = fn(&[f32], &[f32], usize, Range<usize>, &mut [f32], usize);

    /// Every bank kernel this host can run.
    fn bank_kernels() -> Vec<(&'static str, TileFn)> {
        let mut kernels: Vec<(&'static str, TileFn)> =
            vec![("dispatch", dot_tile), ("scalar", dot_tile_scalar)];
        #[cfg(target_arch = "x86_64")]
        {
            if simd_active() {
                kernels.push(("avx2", dot_tile_avx2));
            }
            if avx512_active() {
                kernels.push(("avx512", dot_tile_avx512));
            }
        }
        kernels
    }

    /// Scores every (row, shot) pair on `span` with each bank kernel and
    /// checks it against the scalar single-pair dot, to the bit (any NaN
    /// matches any NaN).
    fn check_bank(rows: &[f32], shots: &[f32], stride: usize, span: Range<usize>) {
        let (n_rows, n_shots) = (rows.len() / stride, shots.len() / stride);
        for (name, kernel) in bank_kernels() {
            let mut out = vec![f32::INFINITY; n_rows * n_shots];
            kernel(rows, shots, stride, span.clone(), &mut out, n_rows);
            for r in 0..n_rows {
                for s in 0..n_shots {
                    let got = out[s * n_rows + r];
                    let want = dot_f32_scalar(
                        &shots[s * stride..][span.clone()],
                        &rows[r * stride..][span.clone()],
                    );
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{name} {n_rows}x{n_shots} {span:?} ({r}, {s})"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_kernels_agree_bitwise_with_the_single_pair_dot() {
        for (n, n_rows, n_shots) in [(0, 2, 3), (22, 17, 1), (45, 5, 7), (1000, 3, 4)] {
            // One padding float per stride, so the span is banded.
            let stride = n + 1;
            let (rows, shots) = vecs(n_rows.max(n_shots) * stride);
            let (rows, shots) = (&rows[..n_rows * stride], &shots[..n_shots * stride]);
            check_bank(rows, shots, stride, 0..n);

            let w = &rows[..n_rows * n];
            let (x, _) = vecs(n * SHOT_LANES);
            let mut out = vec![0.0f32; n_rows * SHOT_LANES];
            dot_lanes(w, n, &x, &mut out);
            for lane in 0..SHOT_LANES {
                let column: Vec<f32> = (0..n).map(|k| x[k * SHOT_LANES + lane]).collect();
                for o in 0..n_rows {
                    let want = dot_f32_scalar(&w[o * n..][..n], &column);
                    assert_eq!(
                        out[o * SHOT_LANES + lane].to_bits(),
                        want.to_bits(),
                        "{n} ({o}, {lane})"
                    );
                }
            }
        }

        // Every ragged block shape up to 17 × 17, on a banded span (a
        // 32-float chunk plus a remainder, one float of padding either
        // side) with NaN, signed-zero and ReLU'd inputs.
        let special = |v: Vec<f32>| -> Vec<f32> {
            v.into_iter()
                .enumerate()
                .map(|(i, x)| match (i % 97, i % 7) {
                    (0, _) => f32::NAN,
                    (_, 1) => -0.0,
                    (_, 2) => 0.0,
                    (_, 3) => x.max(0.0),
                    _ => x,
                })
                .collect()
        };
        let stride = 35;
        let (rows, shots) = vecs(17 * stride);
        let (rows, shots) = (special(rows), special(shots));
        for n_rows in 1..=17 {
            for n_shots in 1..=17 {
                let (rows, shots) = (&rows[..n_rows * stride], &shots[..n_shots * stride]);
                check_bank(rows, shots, stride, 1..stride - 1);
            }
        }
    }

    #[test]
    fn cmul_sum_kernels_agree_bitwise_with_tone_by_tone_demodulation() {
        let mut kernels: Vec<(&str, CmulSumFn)> =
            vec![("dispatch", cmul_sum_f64), ("scalar", cmul_sum_f64_scalar)];
        #[cfg(target_arch = "x86_64")]
        if simd_active() {
            kernels.push(("avx2", cmul_sum_f64_avx2));
        }
        // A third spreads each value over the full f64 mantissa, so the
        // products are not exact and a fused or reordered step would round
        // differently.
        let widen =
            |v: Vec<f32>| -> Vec<f64> { v.into_iter().map(|x| f64::from(x) / 3.0).collect() };
        let n_max = 150;
        // Rows of ten tones, one pad float either side of the block.
        let stride = 22;
        let (table, iq) = vecs(n_max * stride);
        let (mut table, mut iq) = (widen(table), widen(iq)[..2 * n_max].to_vec());
        // Signed zeros throughout and a NaN in tone 1's reference; ±∞ and
        // NaN samples only past sample 137, so shorter windows keep every
        // other tone finite.
        for i in (5..table.len()).step_by(7) {
            table[i] = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        for i in (3..iq.len()).step_by(13) {
            iq[i] = -0.0;
        }
        table[1 + 40 * stride + 3] = f64::NAN;
        iq[2 * 140] = f64::INFINITY;
        iq[2 * 141 + 1] = f64::NEG_INFINITY;
        iq[2 * 145] = f64::NAN;
        for n in [0, 1, 2, 137, n_max] {
            for pairs in 0..=CMUL_LANES / 2 {
                let width = 4 * pairs;
                let block = &table[1..];
                let iq = &iq[..2 * n];
                for (name, kernel) in &kernels {
                    let mut acc = vec![f64::NAN; width];
                    kernel(block, stride, iq, &mut acc);
                    for j in 0..width / 2 {
                        let (mut re, mut im) = (0.0f64, 0.0f64);
                        for (t, s) in iq.chunks_exact(2).enumerate() {
                            let r = &block[t * stride + 2 * j..][..2];
                            re += s[0] * r[0] - s[1] * r[1];
                            im += s[0] * r[1] + s[1] * r[0];
                        }
                        for (got, want) in [(acc[2 * j], re), (acc[2 * j + 1], im)] {
                            assert!(
                                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                                "{name} n {n} pairs {pairs} tone {j}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dot4_tile_kernels_agree_bitwise_with_the_four_accumulator_dot() {
        // The feature extractor's dot as it was written before the tile
        // kernels, kept here as the reference.
        fn fused_dot(a: &[f64], b: &[f64]) -> f64 {
            let mut acc = [0.0f64; 4];
            let mut chunks_a = a.chunks_exact(4);
            let mut chunks_b = b.chunks_exact(4);
            for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
                acc[0] += ca[0] * cb[0];
                acc[1] += ca[1] * cb[1];
                acc[2] += ca[2] * cb[2];
                acc[3] += ca[3] * cb[3];
            }
            for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
                acc[0] += x * y;
            }
            (acc[0] + acc[1]) + (acc[2] + acc[3])
        }
        let mut kernels: Vec<(&str, Dot4TileFn)> = vec![
            ("dispatch", dot4_f64_tile),
            ("scalar", dot4_f64_tile_scalar),
        ];
        #[cfg(target_arch = "x86_64")]
        if simd_active() {
            kernels.push(("avx2", dot4_f64_tile_avx2));
        }
        let widen =
            |v: Vec<f32>| -> Vec<f64> { v.into_iter().map(|x| f64::from(x) / 3.0).collect() };
        let (a, b) = vecs(9 * 103);
        let (mut a, b) = (widen(a), widen(b));
        for i in (2..a.len()).step_by(11) {
            a[i] = -0.0;
        }
        for n in [0, 1, 3, 4, 7, 100, 103] {
            let rows: Vec<&[f64]> = a.chunks_exact(103).map(|r| &r[..n]).collect();
            let shots: Vec<&[f64]> = b.chunks_exact(103).map(|s| &s[..n]).collect();
            // Every edge block: 1..=9 rows against 1..=9 shots.
            for (nr, ns) in [(9, 9), (2, 4), (1, 1), (3, 5), (5, 7), (0, 3)] {
                for (name, kernel) in &kernels {
                    let mut out = vec![f64::NAN; nr * ns];
                    kernel(&rows[..nr], &shots[..ns], &mut out);
                    for s in 0..ns {
                        for r in 0..nr {
                            let want = fused_dot(shots[s], rows[r]);
                            assert_eq!(
                                out[s * nr + r].to_bits(),
                                want.to_bits(),
                                "{name} n {n}, {nr}x{ns}, pair ({r}, {s})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole tone pairs")]
    fn cmul_sum_rejects_a_half_pair() {
        cmul_sum_f64(&[0.0; 8], 4, &[1.0, 0.0], &mut [0.0; 2]);
    }
}
