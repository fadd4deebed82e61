//! Explicit AVX2 tier: 4-wide `f64` kernels via `core::arch::x86_64`.
//!
//! Safety and bit-identity ground rules, shared by every kernel here:
//!
//! * **Vectorize across independent outputs, never inside a reduction.**
//!   Rank-k/GEMM tiles vectorize across contiguous `j` accumulator elements;
//!   the reduction kernels assign one *row* per SIMD lane.  Either way each
//!   accumulated element still receives its contributions strictly in row
//!   (or `k`) order, so results are bit-identical to the scalar tier.
//! * **`mul` + `add`, never `fmadd`.**  The host may well support FMA (and
//!   the bench metadata records it), but a fused multiply-add skips the
//!   intermediate rounding of `a * b` and would silently diverge from the
//!   scalar formulation — breaking the engine-wide `transition_chunk` ≡
//!   per-row bit-identity contract.
//! * Remainder rows/columns run the scalar formula per element, in the same
//!   row order as the scalar tier.
//!
//! The only `unsafe` in the crate lives in this module: raw loads/stores
//! whose bounds are established by the surrounding loop conditions, and
//! `#[target_feature(enable = "avx2")]` functions that are only reachable
//! after [`available`] has confirmed CPU support at runtime.
//!
//! On non-x86_64 targets this module re-exports the scalar tier so the
//! crate still compiles; the dispatcher never selects the SIMD path there.

/// Whether the explicit SIMD tier can run on this machine.
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::{
    batch_closest_column, batch_dot, batch_squared_distances, gemm_acc, gemv_acc,
    rank_k_update_lower, weighted_rank_k_update_lower, xty_update,
};

#[cfg(not(target_arch = "x86_64"))]
pub use super::scalar::{
    batch_closest_column, batch_dot, batch_squared_distances, gemm_acc, gemv_acc,
    rank_k_update_lower, weighted_rank_k_update_lower, xty_update,
};

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_blendv_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_mul_pd,
        _mm256_set1_pd, _mm256_set_pd, _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd,
        _CMP_LT_OQ,
    };

    use crate::dense::DenseMatrix;
    use crate::kernels::scalar::ROW_BLOCK;

    use super::available;

    /// Gathers four `f64`s at `p`, `p + stride`, … into lanes 0..3.
    ///
    /// # Safety
    /// `p .. p + 3 * stride` must be in bounds of a live allocation.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_strided4(p: *const f64, stride: usize) -> __m256d {
        _mm256_set_pd(*p.add(3 * stride), *p.add(2 * stride), *p.add(stride), *p)
    }

    /// AVX2 `m += Σ_r x_r x_rᵀ` (lower triangle).
    pub fn rank_k_update_lower(m: &mut DenseMatrix, xs: &[f64], width: usize) {
        debug_assert_eq!(m.rows(), width);
        debug_assert_eq!(m.cols(), width);
        debug_assert_eq!(xs.len() % width.max(1), 0);
        assert!(available(), "SIMD tier called without AVX2 support");
        if width == 0 {
            return;
        }
        let md = m.as_mut_slice();
        for row_block in xs.chunks(ROW_BLOCK * width) {
            // SAFETY: AVX2 support asserted above; in-bounds by loop shape.
            unsafe { rank_k_block_avx2(md, row_block, width, None) };
        }
    }

    /// AVX2 weighted rank-k update (lower triangle).
    pub fn weighted_rank_k_update_lower(
        m: &mut DenseMatrix,
        xs: &[f64],
        weights: &[f64],
        width: usize,
    ) {
        debug_assert_eq!(m.rows(), width);
        debug_assert_eq!(m.cols(), width);
        debug_assert_eq!(xs.len(), weights.len() * width);
        assert!(available(), "SIMD tier called without AVX2 support");
        if width == 0 {
            return;
        }
        let md = m.as_mut_slice();
        for (block_idx, row_block) in xs.chunks(ROW_BLOCK * width).enumerate() {
            let block_weights = &weights[block_idx * ROW_BLOCK..];
            // SAFETY: AVX2 support asserted above; in-bounds by loop shape.
            unsafe { rank_k_block_avx2(md, row_block, width, Some(block_weights)) };
        }
    }

    /// One row block of the rank-k update: 4-row strips, 4×8 register tiles
    /// (with a 4×4 cleanup tile), diagonal remainder via [`rank_k_edge`].
    #[target_feature(enable = "avx2")]
    unsafe fn rank_k_block_avx2(
        md: &mut [f64],
        block: &[f64],
        width: usize,
        weights: Option<&[f64]>,
    ) {
        let mut i0 = 0;
        while i0 < width {
            let i_end = (i0 + 4).min(width);
            if i_end - i0 == 4 {
                // Largest multiple of 4 that is ≤ i0 + 1: every row of the
                // strip covers columns [0, j_full).
                let j_full = (i0 + 1) & !3;
                let mut j0 = 0;
                while j0 + 8 <= j_full {
                    rank_k_tile::<2>(md, block, width, i0, j0, weights);
                    j0 += 8;
                }
                if j0 + 4 <= j_full {
                    rank_k_tile::<1>(md, block, width, i0, j0, weights);
                }
                rank_k_edge(md, block, width, i0, i_end, j_full, weights);
            } else {
                rank_k_edge(md, block, width, i0, i_end, 0, weights);
            }
            i0 += 4;
        }
    }

    /// The tile remainder: rows `i0..i_end`, columns `j_lo..=i` (the part of
    /// the strip the full tiles could not cover).  Element-major with the row
    /// loop innermost — each element's additions still happen in row order.
    fn rank_k_edge(
        md: &mut [f64],
        block: &[f64],
        width: usize,
        i0: usize,
        i_end: usize,
        j_lo: usize,
        weights: Option<&[f64]>,
    ) {
        for i in i0..i_end {
            for j in j_lo..=i {
                let mut acc = md[i * width + j];
                match weights {
                    None => {
                        for x in block.chunks_exact(width) {
                            acc += x[i] * x[j];
                        }
                    }
                    Some(w) => {
                        for (x, wr) in block.chunks_exact(width).zip(w) {
                            acc += (wr * x[i]) * x[j];
                        }
                    }
                }
                md[i * width + j] = acc;
            }
        }
    }

    /// A 4×(4·NJ) accumulator tile at (`i0`, `j0`): seeded from `md`, updated
    /// across every row of `block` with `mul`+`add`, stored back once.  The
    /// store/load round-trip is exact, so the per-element addition chain is
    /// the scalar tier's chain re-batched.
    #[target_feature(enable = "avx2")]
    unsafe fn rank_k_tile<const NJ: usize>(
        md: &mut [f64],
        block: &[f64],
        width: usize,
        i0: usize,
        j0: usize,
        weights: Option<&[f64]>,
    ) {
        let mp = md.as_mut_ptr();
        let mut acc = [[_mm256_setzero_pd(); NJ]; 4];
        for (ii, row_acc) in acc.iter_mut().enumerate() {
            for (jj, a) in row_acc.iter_mut().enumerate() {
                *a = _mm256_loadu_pd(mp.add((i0 + ii) * width + j0 + 4 * jj));
            }
        }
        for (r, x) in block.chunks_exact(width).enumerate() {
            let xp = x.as_ptr();
            let mut xj = [_mm256_setzero_pd(); NJ];
            for (jj, v) in xj.iter_mut().enumerate() {
                *v = _mm256_loadu_pd(xp.add(j0 + 4 * jj));
            }
            for (ii, row_acc) in acc.iter_mut().enumerate() {
                let xi = match weights {
                    Some(w) => _mm256_set1_pd(w[r] * *xp.add(i0 + ii)),
                    None => _mm256_set1_pd(*xp.add(i0 + ii)),
                };
                for (a, &v) in row_acc.iter_mut().zip(&xj) {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(xi, v));
                }
            }
        }
        for (ii, row_acc) in acc.iter().enumerate() {
            for (jj, a) in row_acc.iter().enumerate() {
                _mm256_storeu_pd(mp.add((i0 + ii) * width + j0 + 4 * jj), *a);
            }
        }
    }

    /// AVX2 `acc += Σ_r y_r · x_r`.
    pub fn xty_update(acc: &mut [f64], xs: &[f64], ys: &[f64], width: usize) {
        debug_assert_eq!(xs.len(), ys.len() * width);
        assert!(available(), "SIMD tier called without AVX2 support");
        if width == 0 {
            return;
        }
        // SAFETY: AVX2 support asserted above; in-bounds by loop shape.
        unsafe { xty_update_avx2(acc, xs, ys, width) };
    }

    #[target_feature(enable = "avx2")]
    unsafe fn xty_update_avx2(acc: &mut [f64], xs: &[f64], ys: &[f64], width: usize) {
        let ap = acc.as_mut_ptr();
        for (x, y) in xs.chunks_exact(width).zip(ys) {
            let xp = x.as_ptr();
            let yv = _mm256_set1_pd(*y);
            let mut j = 0;
            while j + 4 <= width {
                let av = _mm256_loadu_pd(ap.add(j));
                let xv = _mm256_loadu_pd(xp.add(j));
                _mm256_storeu_pd(ap.add(j), _mm256_add_pd(av, _mm256_mul_pd(xv, yv)));
                j += 4;
            }
            while j < width {
                // Stay on the raw pointer: `acc` is re-used across rows, so
                // touching it through the slice here would invalidate `ap`.
                *ap.add(j) += x[j] * y;
                j += 1;
            }
        }
    }

    /// AVX2 batched dot product: eight rows per pass, one per lane.
    pub fn batch_dot(xs: &[f64], w: &[f64], out: &mut [f64]) {
        let width = w.len();
        debug_assert_eq!(xs.len(), out.len() * width);
        assert!(available(), "SIMD tier called without AVX2 support");
        if width == 0 {
            out.fill(0.0);
            return;
        }
        // SAFETY: AVX2 support asserted above; in-bounds by loop shape.
        unsafe { batch_dot_avx2(xs, w, out) };
    }

    #[target_feature(enable = "avx2")]
    unsafe fn batch_dot_avx2(xs: &[f64], w: &[f64], out: &mut [f64]) {
        let width = w.len();
        let rows = out.len();
        let xp = xs.as_ptr();
        let op = out.as_mut_ptr();
        let mut r = 0;
        while r + 8 <= rows {
            let base = xp.add(r * width);
            let mut lo = _mm256_setzero_pd();
            let mut hi = _mm256_setzero_pd();
            for (k, &wk) in w.iter().enumerate() {
                let wv = _mm256_set1_pd(wk);
                lo = _mm256_add_pd(lo, _mm256_mul_pd(load_strided4(base.add(k), width), wv));
                hi = _mm256_add_pd(
                    hi,
                    _mm256_mul_pd(load_strided4(base.add(4 * width + k), width), wv),
                );
            }
            _mm256_storeu_pd(op.add(r), lo);
            _mm256_storeu_pd(op.add(r + 4), hi);
            r += 8;
        }
        for rr in r..rows {
            let x = &xs[rr * width..(rr + 1) * width];
            let mut acc = 0.0;
            for (xi, wi) in x.iter().zip(w) {
                acc += xi * wi;
            }
            out[rr] = acc;
        }
    }

    /// AVX2 batched squared distances: eight rows per pass, one per lane.
    pub fn batch_squared_distances(xs: &[f64], center: &[f64], out: &mut [f64]) {
        let width = center.len();
        debug_assert_eq!(xs.len(), out.len() * width);
        assert!(available(), "SIMD tier called without AVX2 support");
        if width == 0 {
            out.fill(0.0);
            return;
        }
        // SAFETY: AVX2 support asserted above; in-bounds by loop shape.
        unsafe { batch_squared_distances_avx2(xs, center, out) };
    }

    #[target_feature(enable = "avx2")]
    unsafe fn batch_squared_distances_avx2(xs: &[f64], center: &[f64], out: &mut [f64]) {
        let width = center.len();
        let rows = out.len();
        let xp = xs.as_ptr();
        let op = out.as_mut_ptr();
        let mut r = 0;
        while r + 8 <= rows {
            let base = xp.add(r * width);
            let mut lo = _mm256_setzero_pd();
            let mut hi = _mm256_setzero_pd();
            for (k, &ck) in center.iter().enumerate() {
                let cv = _mm256_set1_pd(ck);
                let dl = _mm256_sub_pd(load_strided4(base.add(k), width), cv);
                lo = _mm256_add_pd(lo, _mm256_mul_pd(dl, dl));
                let dh = _mm256_sub_pd(load_strided4(base.add(4 * width + k), width), cv);
                hi = _mm256_add_pd(hi, _mm256_mul_pd(dh, dh));
            }
            _mm256_storeu_pd(op.add(r), lo);
            _mm256_storeu_pd(op.add(r + 4), hi);
            r += 8;
        }
        for rr in r..rows {
            let x = &xs[rr * width..(rr + 1) * width];
            let mut acc = 0.0;
            for (xi, ci) in x.iter().zip(center) {
                let d = xi - ci;
                acc += d * d;
            }
            out[rr] = acc;
        }
    }

    /// AVX2 batched closest column: four rows per pass; per-lane strict-`<`
    /// first-minimum tracking via ordered compare + blend (`_CMP_LT_OQ` is
    /// false for NaN, exactly like the scalar `d < best`).
    pub fn batch_closest_column(columns: &[Vec<f64>], xs: &[f64], width: usize, out: &mut [usize]) {
        debug_assert_eq!(xs.len(), out.len() * width);
        debug_assert!(columns.iter().all(|c| c.len() == width));
        assert!(available(), "SIMD tier called without AVX2 support");
        if width == 0 {
            out.fill(0);
            return;
        }
        // SAFETY: AVX2 support asserted above; in-bounds by loop shape.
        unsafe { batch_closest_column_avx2(columns, xs, width, out) };
    }

    #[target_feature(enable = "avx2")]
    unsafe fn batch_closest_column_avx2(
        columns: &[Vec<f64>],
        xs: &[f64],
        width: usize,
        out: &mut [usize],
    ) {
        let rows = out.len();
        let xp = xs.as_ptr();
        let mut r = 0;
        while r + 4 <= rows {
            let base = xp.add(r * width);
            let mut best_d = _mm256_set1_pd(f64::INFINITY);
            let mut best_i = _mm256_setzero_pd();
            for (idx, col) in columns.iter().enumerate() {
                let mut dist = _mm256_setzero_pd();
                for (k, &ck) in col.iter().enumerate() {
                    let diff = _mm256_sub_pd(load_strided4(base.add(k), width), _mm256_set1_pd(ck));
                    dist = _mm256_add_pd(dist, _mm256_mul_pd(diff, diff));
                }
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(dist, best_d);
                best_d = _mm256_blendv_pd(best_d, dist, lt);
                best_i = _mm256_blendv_pd(best_i, _mm256_set1_pd(idx as f64), lt);
            }
            let mut lanes = [0.0f64; 4];
            _mm256_storeu_pd(lanes.as_mut_ptr(), best_i);
            for (lane, &fidx) in lanes.iter().enumerate() {
                out[r + lane] = fidx as usize;
            }
            r += 4;
        }
        for rr in r..rows {
            let point = &xs[rr * width..(rr + 1) * width];
            let mut best = (0usize, f64::INFINITY);
            for (idx, col) in columns.iter().enumerate() {
                let mut d = 0.0;
                for (x, c) in point.iter().zip(col) {
                    let diff = x - c;
                    d += diff * diff;
                }
                if d < best.1 {
                    best = (idx, d);
                }
            }
            out[rr] = best.0;
        }
    }

    /// AVX2 `y += alpha * A * x`: eight matrix rows per pass, one per lane.
    pub fn gemv_acc(alpha: f64, a: &DenseMatrix, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(a.cols(), x.len());
        debug_assert_eq!(a.rows(), y.len());
        assert!(available(), "SIMD tier called without AVX2 support");
        // SAFETY: AVX2 support asserted above; in-bounds by loop shape.
        unsafe { gemv_acc_avx2(alpha, a, x, y) };
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gemv_acc_avx2(alpha: f64, a: &DenseMatrix, x: &[f64], y: &mut [f64]) {
        let cols = a.cols();
        let rows = y.len();
        let ap = a.as_slice().as_ptr();
        let yp = y.as_mut_ptr();
        let av = _mm256_set1_pd(alpha);
        let mut r = 0;
        if cols > 0 {
            while r + 8 <= rows {
                let base = ap.add(r * cols);
                let mut lo = _mm256_setzero_pd();
                let mut hi = _mm256_setzero_pd();
                for (k, &xk) in x.iter().enumerate() {
                    let xv = _mm256_set1_pd(xk);
                    lo = _mm256_add_pd(lo, _mm256_mul_pd(load_strided4(base.add(k), cols), xv));
                    hi = _mm256_add_pd(
                        hi,
                        _mm256_mul_pd(load_strided4(base.add(4 * cols + k), cols), xv),
                    );
                }
                let ylo = _mm256_loadu_pd(yp.add(r));
                _mm256_storeu_pd(yp.add(r), _mm256_add_pd(ylo, _mm256_mul_pd(av, lo)));
                let yhi = _mm256_loadu_pd(yp.add(r + 4));
                _mm256_storeu_pd(yp.add(r + 4), _mm256_add_pd(yhi, _mm256_mul_pd(av, hi)));
                r += 8;
            }
        }
        for (rr, yv) in y.iter_mut().enumerate().take(rows).skip(r) {
            let row = a.row_slice(rr);
            let mut acc = 0.0;
            for (avv, xv) in row.iter().zip(x) {
                acc += avv * xv;
            }
            *yv += alpha * acc;
        }
    }

    /// AVX2 GEMM accumulation `out += A * B`: per output row a 16-wide
    /// register tile held across the whole `k` loop, preserving the scalar
    /// tier's `a[i][k] == 0.0` skip per `(i, k)` pair.
    pub fn gemm_acc(out: &mut DenseMatrix, a: &DenseMatrix, b: &DenseMatrix) {
        debug_assert_eq!(a.cols(), b.rows());
        debug_assert_eq!(out.rows(), a.rows());
        debug_assert_eq!(out.cols(), b.cols());
        assert!(available(), "SIMD tier called without AVX2 support");
        // SAFETY: AVX2 support asserted above; in-bounds by loop shape.
        unsafe { gemm_acc_avx2(out, a, b) };
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gemm_acc_avx2(out: &mut DenseMatrix, a: &DenseMatrix, b: &DenseMatrix) {
        let (arows, acols, bcols) = (a.rows(), a.cols(), b.cols());
        let ad = a.as_slice();
        let bp = b.as_slice().as_ptr();
        let od = out.as_mut_slice();
        let op = od.as_mut_ptr();
        for i in 0..arows {
            let arow = &ad[i * acols..(i + 1) * acols];
            let obase = i * bcols;
            let mut j0 = 0usize;
            while j0 + 16 <= bcols {
                let mut acc = [
                    _mm256_loadu_pd(op.add(obase + j0)),
                    _mm256_loadu_pd(op.add(obase + j0 + 4)),
                    _mm256_loadu_pd(op.add(obase + j0 + 8)),
                    _mm256_loadu_pd(op.add(obase + j0 + 12)),
                ];
                for (k, &aik) in arow.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let akv = _mm256_set1_pd(aik);
                    let bbase = bp.add(k * bcols + j0);
                    for (t, av) in acc.iter_mut().enumerate() {
                        *av = _mm256_add_pd(
                            *av,
                            _mm256_mul_pd(akv, _mm256_loadu_pd(bbase.add(4 * t))),
                        );
                    }
                }
                for (t, av) in acc.iter().enumerate() {
                    _mm256_storeu_pd(op.add(obase + j0 + 4 * t), *av);
                }
                j0 += 16;
            }
            while j0 + 4 <= bcols {
                let mut acc = _mm256_loadu_pd(op.add(obase + j0));
                for (k, &aik) in arow.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    let akv = _mm256_set1_pd(aik);
                    acc = _mm256_add_pd(
                        acc,
                        _mm256_mul_pd(akv, _mm256_loadu_pd(bp.add(k * bcols + j0))),
                    );
                }
                _mm256_storeu_pd(op.add(obase + j0), acc);
                j0 += 4;
            }
            for j in j0..bcols {
                // Stay on the raw pointers: `op` is re-used for later rows.
                let mut acc = *op.add(obase + j);
                for (k, &aik) in arow.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    acc += aik * *bp.add(k * bcols + j);
                }
                *op.add(obase + j) = acc;
            }
        }
    }
}
