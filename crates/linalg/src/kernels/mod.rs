//! Inner-loop kernels: paper "generations" plus tiered batched kernels.
//!
//! # Paper generations
//!
//! Section 4.4 of the paper compares three generations of the MADlib linear
//! regression inner loop:
//!
//! * **v0.1alpha** — a straightforward C implementation computing the outer
//!   product `x xᵀ` with a simple nested loop over the *full* matrix.
//! * **v0.2.1beta** — an Armadillo/BLAS-backed implementation that was *much
//!   slower* because (a) the BLAS was the untuned reference implementation and
//!   (b) the code computed `yᵀy` for a **row** vector `y`, an orientation that
//!   profiling showed to be 3–4× slower than `x xᵀ` for a column vector, plus
//!   abstraction-layer overhead (locking, backend calls).
//! * **v0.3** — an Eigen-backed implementation exploiting the symmetry of
//!   `XᵀX` (only the lower triangle is accumulated) with minimal overhead.
//!
//! To reproduce the Figure 4 / Figure 5 version comparison without Armadillo
//! or Eigen we provide three rank-1 update kernels with the same asymmetric
//! performance profile: a plain full-matrix update, a deliberately
//! cache-unfriendly column-striding update with emulated per-call overhead,
//! and a triangular (symmetric) update that does roughly half the flops.
//!
//! # Batched kernels and dispatch tiers
//!
//! The engine's vectorized execution path hands transition functions a whole
//! chunk of rows as one contiguous row-major block (`rows × width` values);
//! the batched kernels here are the chunk-granularity counterparts of the
//! per-row updates.  Each batched kernel exists in two implementations:
//!
//! * [`scalar`] — the reference: sequential loops, autovectorizer only.
//!   Hosts without AVX2 run it.
//! * [`simd`] — explicit AVX2 intrinsics (x86-64, runtime-detected): the
//!   fast path.
//!
//! The public functions dispatch through [`dispatch::active_path`], which
//! resolves once per process from runtime CPU detection and the
//! `MADLIB_SIMD` escape hatch (`off` forces the scalar reference tier — see
//! [`dispatch`]).
//!
//! # The accumulation-order contract
//!
//! Both tiers are **bit-identical**, to each other and to folding rows
//! one at a time through the per-row kernels.  That is a hard engine-wide
//! contract: the row/chunk-equivalence property tests require
//! `transition_chunk` ≡ per-row `transition` to the bit, and the scheduler
//! relies on results being independent of which path ran.  Two consequences
//! shape every kernel in this module:
//!
//! * **Vectorization runs across independent outputs, never inside a
//!   reduction.**  A dot product's additions form one rounding chain whose
//!   order is observable; splitting it across SIMD lanes would reassociate
//!   it.  So the rank-k update vectorizes across contiguous `j` elements of
//!   `m[i][j]` (each element keeps its own in-order chain), and `batch_dot`
//!   / `batch_squared_distances` / `gemv_acc` / `batch_closest_column` put
//!   one *row* in each SIMD lane, stepping through elements sequentially —
//!   this also sidesteps the serial chain's latency bound, which is why the
//!   reduction kernels gain the most: the autovectorizer was never allowed
//!   to touch them in the first place.
//! * **`mul` + `add`, never `fmadd`.**  FMA skips the intermediate rounding
//!   of `a * b`; using it would diverge from the scalar formulation even
//!   though the hardware supports it (the bench metadata records `fma` as
//!   detected, not as used).
//!
//! Accumulator register tiles are seeded from the output matrix and stored
//! back when the tile retires; an `f64` store/load round-trip is exact, so
//! re-batching the additions this way never changes any element's chain.
//!
//! One carve-out: **NaN payload and sign are outside the contract** (where
//! NaNs appear is still exact).  When an addition has two *distinct* NaN
//! operands — a propagated input NaN (`0x7FF8…`) meeting the indefinite NaN
//! x86 generates for invalid operations (`0xFFF8…`, e.g. from `0 * ∞`) —
//! the hardware returns whichever NaN sits in the first source operand, and
//! LLVM commutes `fadd`/`fmul` operands freely during instruction
//! selection.  The same scalar source loop can yield either payload
//! depending on surrounding codegen, so no tier (including the scalar
//! reference compared against itself across compilations) can promise more.
//! The tier property tests salt with the hardware-generated NaN so every
//! NaN is bit-identical and the remaining guarantee stays exact.

use crate::dense::DenseMatrix;

pub mod dispatch;
pub mod scalar;
pub mod simd;

pub use dispatch::{active_path, cpu_features, KernelPath};

/// Which generation of the inner-loop kernel to use.
///
/// The enum names follow the MADlib version numbers used in the paper's
/// Figure 4 so that benchmark output lines up with the original table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelGeneration {
    /// v0.1alpha: naive nested-loop outer product over the full matrix.
    V01Alpha,
    /// v0.2.1beta: untuned, wrong-orientation update with per-call overhead.
    V021Beta,
    /// v0.3: symmetric triangular update (default; fastest).
    #[default]
    V03,
}

impl KernelGeneration {
    /// All generations, in paper order.
    pub const ALL: [KernelGeneration; 3] = [
        KernelGeneration::V01Alpha,
        KernelGeneration::V021Beta,
        KernelGeneration::V03,
    ];

    /// The label used in the paper's Figure 4 column headers.
    pub fn label(self) -> &'static str {
        match self {
            KernelGeneration::V01Alpha => "v0.1alpha",
            KernelGeneration::V021Beta => "v0.2.1beta",
            KernelGeneration::V03 => "v0.3",
        }
    }
}

/// Accumulates the rank-1 update `m += x xᵀ` using the selected generation.
///
/// For [`KernelGeneration::V03`] only the lower triangle is updated; callers
/// must invoke [`DenseMatrix::symmetrize_from_lower`] before using the full
/// matrix (mirroring the paper's Listing 1/2 split between the transition and
/// final functions).
///
/// # Panics
/// Panics in debug builds if `m` is not `x.len() × x.len()`.
pub fn rank1_update(generation: KernelGeneration, m: &mut DenseMatrix, x: &[f64]) {
    debug_assert_eq!(m.rows(), x.len());
    debug_assert_eq!(m.cols(), x.len());
    match generation {
        KernelGeneration::V01Alpha => rank1_full(m, x),
        KernelGeneration::V021Beta => rank1_column_strided(m, x),
        KernelGeneration::V03 => rank1_lower_triangular(m, x),
    }
}

/// Whether the generation accumulates only the lower triangle (and therefore
/// needs a final symmetrization step).
pub fn needs_symmetrize(generation: KernelGeneration) -> bool {
    matches!(generation, KernelGeneration::V03)
}

/// v0.1alpha kernel: full-matrix nested loop.
fn rank1_full(m: &mut DenseMatrix, x: &[f64]) {
    let k = x.len();
    for i in 0..k {
        let xi = x[i];
        let row = m.row_slice_mut(i);
        for j in 0..k {
            row[j] += xi * x[j];
        }
    }
}

/// v0.2.1beta kernel: iterates in column-major order over a row-major matrix
/// (the "row-vector `yᵀy`" orientation the paper found 3–4× slower) and
/// performs redundant temporary work emulating untuned-BLAS + abstraction
/// overhead observed in that release.
#[allow(clippy::needless_range_loop)] // the strided, index-heavy shape is the point
fn rank1_column_strided(m: &mut DenseMatrix, x: &[f64]) {
    let k = x.len();
    // Emulated marshalling overhead: the v0.2.1beta abstraction layer copied
    // the input array into a library-owned temporary on every call.
    let copy: Vec<f64> = x.to_vec();
    for j in 0..k {
        let xj = copy[j];
        for i in 0..k {
            // Column-major traversal of row-major storage: strided access.
            let v = m.get(i, j) + copy[i] * xj;
            m.set(i, j, v);
        }
    }
}

/// v0.3 kernel: lower-triangular update (half the flops), contiguous access.
fn rank1_lower_triangular(m: &mut DenseMatrix, x: &[f64]) {
    let k = x.len();
    for i in 0..k {
        let xi = x[i];
        let row = m.row_slice_mut(i);
        for j in 0..=i {
            row[j] += xi * x[j];
        }
    }
}

/// Accumulates `m += Σ_r x_r x_rᵀ` (lower triangle only) over a chunk of rows
/// stored contiguously row-major in `xs` — the chunk-granularity version of
/// the v0.3 rank-1 kernel, dispatched per [`dispatch::active_path`].
///
/// Callers must symmetrize afterwards, exactly as with the per-row v0.3
/// kernel.  Bit-identical to folding the rows through
/// [`rank1_update`]`(V03, ..)` one at a time, on every tier.
///
/// # Panics
/// Panics in debug builds when `xs.len()` is not a multiple of `width` or `m`
/// is not `width × width`.
pub fn rank_k_update_lower(m: &mut DenseMatrix, xs: &[f64], width: usize) {
    match active_path() {
        KernelPath::Scalar => scalar::rank_k_update_lower(m, xs, width),
        KernelPath::Simd => simd::rank_k_update_lower(m, xs, width),
    }
}

/// Accumulates `m += Σ_r w_r · x_r x_rᵀ` (lower triangle only) over a chunk —
/// the weighted rank-k update behind the IRLS Hessian `XᵀDX`, dispatched per
/// [`dispatch::active_path`].  Each contribution is computed as
/// `(w_r · x_r[i]) · x_r[j]`, matching the per-row formulation bit for bit.
///
/// # Panics
/// Panics in debug builds on shape mismatch.
pub fn weighted_rank_k_update_lower(
    m: &mut DenseMatrix,
    xs: &[f64],
    weights: &[f64],
    width: usize,
) {
    match active_path() {
        KernelPath::Scalar => scalar::weighted_rank_k_update_lower(m, xs, weights, width),
        KernelPath::Simd => simd::weighted_rank_k_update_lower(m, xs, weights, width),
    }
}

/// Accumulates `acc += Σ_r y_r · x_r` over a chunk: the `Xᵀy` update of the
/// regression transition state at chunk granularity, dispatched per
/// [`dispatch::active_path`].
///
/// # Panics
/// Panics in debug builds on shape mismatch.
pub fn xty_update(acc: &mut [f64], xs: &[f64], ys: &[f64], width: usize) {
    match active_path() {
        KernelPath::Scalar => scalar::xty_update(acc, xs, ys, width),
        KernelPath::Simd => simd::xty_update(acc, xs, ys, width),
    }
}

/// Computes `out[r] = x_r · w` for every row of a contiguous row-major chunk
/// — the batched linear-score (dot-product) kernel used by logistic and SGD
/// transitions, dispatched per [`dispatch::active_path`].  Each dot product
/// accumulates left-to-right, matching the scalar
/// `iter().zip().map().sum()` formulation bit for bit.
///
/// # Panics
/// Panics in debug builds on shape mismatch.
pub fn batch_dot(xs: &[f64], w: &[f64], out: &mut [f64]) {
    match active_path() {
        KernelPath::Scalar => scalar::batch_dot(xs, w, out),
        KernelPath::Simd => simd::batch_dot(xs, w, out),
    }
}

/// Computes the squared Euclidean distance from every row of a contiguous
/// row-major chunk to a single `center` — the batched form of
/// `array_squared_distance`, accumulating element-wise in order, dispatched
/// per [`dispatch::active_path`].
///
/// # Panics
/// Panics in debug builds on shape mismatch.
pub fn batch_squared_distances(xs: &[f64], center: &[f64], out: &mut [f64]) {
    match active_path() {
        KernelPath::Scalar => scalar::batch_squared_distances(xs, center, out),
        KernelPath::Simd => simd::batch_squared_distances(xs, center, out),
    }
}

/// Assigns every row of a contiguous row-major chunk to its closest column
/// (first strict minimum of squared Euclidean distance — ties keep the
/// earliest column, NaN distances never win), dispatched per
/// [`dispatch::active_path`].  This is the k-means assignment inner loop;
/// `array_ops::batch_closest_column` validates shapes and delegates here.
///
/// # Panics
/// Panics in debug builds when a column's length differs from `width` or
/// `xs.len() != out.len() * width`.  With an empty `columns` every row is
/// assigned `0`; callers wanting an error must validate first (as
/// `array_ops` does).
pub fn batch_closest_column(columns: &[Vec<f64>], xs: &[f64], width: usize, out: &mut [usize]) {
    match active_path() {
        KernelPath::Scalar => scalar::batch_closest_column(columns, xs, width, out),
        KernelPath::Simd => simd::batch_closest_column(columns, xs, width, out),
    }
}

/// General matrix–matrix multiply `C = A * B` as a free function (wrapper
/// around [`DenseMatrix::matmul`], which itself runs [`gemm_acc`]) kept here
/// so benchmarks can address "the gemm kernel" uniformly.
pub fn gemm(a: &DenseMatrix, b: &DenseMatrix) -> crate::Result<DenseMatrix> {
    a.matmul(b)
}

/// Accumulates `out += A * B` (dense GEMM) without allocating, dispatched per
/// [`dispatch::active_path`].  Both tiers preserve the historical
/// `DenseMatrix::matmul` semantics: per output element the `k` contributions
/// are added in ascending order, and `a[i][k] == 0.0` entries are *skipped*
/// rather than multiplied through (observable with NaN/±∞ in `B` and with
/// signed zeros).
///
/// # Panics
/// Panics in debug builds on shape mismatch.
pub fn gemm_acc(out: &mut DenseMatrix, a: &DenseMatrix, b: &DenseMatrix) {
    match active_path() {
        KernelPath::Scalar => scalar::gemm_acc(out, a, b),
        KernelPath::Simd => simd::gemm_acc(out, a, b),
    }
}

/// Accumulates `y += alpha * A * x` (dense GEMV) without allocating,
/// dispatched per [`dispatch::active_path`].
///
/// # Panics
/// Panics in debug builds on shape mismatch.
pub fn gemv_acc(alpha: f64, a: &DenseMatrix, x: &[f64], y: &mut [f64]) {
    match active_path() {
        KernelPath::Scalar => scalar::gemv_acc(alpha, a, x, y),
        KernelPath::Simd => simd::gemv_acc(alpha, a, x, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_outer(x: &[f64]) -> DenseMatrix {
        let k = x.len();
        let mut m = DenseMatrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                m.set(i, j, x[i] * x[j]);
            }
        }
        m
    }

    #[test]
    fn generations_agree_after_symmetrization() {
        let x = vec![1.0, -2.0, 3.5, 0.25];
        let expected = dense_outer(&x);

        for gen in KernelGeneration::ALL {
            let mut m = DenseMatrix::zeros(4, 4);
            rank1_update(gen, &mut m, &x);
            if needs_symmetrize(gen) {
                m.symmetrize_from_lower().unwrap();
            }
            assert!(
                m.max_abs_diff(&expected).unwrap() < 1e-12,
                "generation {:?} disagrees",
                gen
            );
        }
    }

    #[test]
    fn repeated_updates_accumulate() {
        let rows = [vec![1.0, 2.0], vec![3.0, 4.0], vec![-1.0, 0.5]];
        let mut expected = DenseMatrix::zeros(2, 2);
        for r in &rows {
            expected.add_assign(&dense_outer(r)).unwrap();
        }
        let mut m = DenseMatrix::zeros(2, 2);
        for r in &rows {
            rank1_update(KernelGeneration::V03, &mut m, r);
        }
        m.symmetrize_from_lower().unwrap();
        assert!(m.max_abs_diff(&expected).unwrap() < 1e-12);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(KernelGeneration::V01Alpha.label(), "v0.1alpha");
        assert_eq!(KernelGeneration::V021Beta.label(), "v0.2.1beta");
        assert_eq!(KernelGeneration::V03.label(), "v0.3");
        assert_eq!(KernelGeneration::default(), KernelGeneration::V03);
    }

    /// Deterministic pseudo-random chunk of `rows × width` values.
    fn chunk_data(rows: usize, width: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.max(1);
        (0..rows * width)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 250.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn rank_k_update_is_bit_identical_to_per_row_v03() {
        // Widths straddling the tile size exercise partial tiles; row counts
        // straddling the row block exercise partial blocks.
        for (rows, width) in [(1, 5), (7, 3), (130, 17), (70, 65), (200, 70)] {
            let xs = chunk_data(rows, width, (rows * width) as u64);
            let mut per_row = DenseMatrix::zeros(width, width);
            for x in xs.chunks_exact(width) {
                rank1_update(KernelGeneration::V03, &mut per_row, x);
            }
            let mut batched = DenseMatrix::zeros(width, width);
            rank_k_update_lower(&mut batched, &xs, width);
            for i in 0..width {
                for j in 0..width {
                    assert_eq!(
                        batched.get(i, j).to_bits(),
                        per_row.get(i, j).to_bits(),
                        "element ({i}, {j}) differs at rows={rows} width={width}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_k_update_handles_empty_chunks() {
        let mut m = DenseMatrix::zeros(4, 4);
        rank_k_update_lower(&mut m, &[], 4);
        assert!(m.max_abs_diff(&DenseMatrix::zeros(4, 4)).unwrap() == 0.0);
        let mut empty = DenseMatrix::zeros(0, 0);
        rank_k_update_lower(&mut empty, &[], 0);
    }

    #[test]
    fn weighted_rank_k_update_is_bit_identical_to_per_row() {
        for (rows, width) in [(1, 4), (90, 13), (130, 66)] {
            let xs = chunk_data(rows, width, 31);
            let weights: Vec<f64> = chunk_data(rows, 1, 77)
                .iter()
                .map(|w| w.abs() + 0.01)
                .collect();
            let mut per_row = DenseMatrix::zeros(width, width);
            for (x, w) in xs.chunks_exact(width).zip(&weights) {
                for i in 0..width {
                    for j in 0..=i {
                        let v = per_row.get(i, j) + w * x[i] * x[j];
                        per_row.set(i, j, v);
                    }
                }
            }
            let mut batched = DenseMatrix::zeros(width, width);
            weighted_rank_k_update_lower(&mut batched, &xs, &weights, width);
            for i in 0..width {
                for j in 0..=i {
                    assert_eq!(
                        batched.get(i, j).to_bits(),
                        per_row.get(i, j).to_bits(),
                        "element ({i}, {j}) differs at rows={rows} width={width}"
                    );
                }
            }
        }
    }

    #[test]
    fn xty_update_is_bit_identical_to_per_row() {
        let width = 9;
        let rows = 83;
        let xs = chunk_data(rows, width, 11);
        let ys = chunk_data(rows, 1, 23);
        let mut per_row = vec![0.25f64; width];
        for (x, y) in xs.chunks_exact(width).zip(&ys) {
            for (a, xi) in per_row.iter_mut().zip(x) {
                *a += xi * y;
            }
        }
        let mut batched = vec![0.25f64; width];
        xty_update(&mut batched, &xs, &ys, width);
        for (a, b) in batched.iter().zip(&per_row) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_dot_matches_scalar_dot() {
        let width = 12;
        let rows = 31;
        let xs = chunk_data(rows, width, 5);
        let w = chunk_data(1, width, 7);
        let mut out = vec![0.0; rows];
        batch_dot(&xs, &w, &mut out);
        for (x, o) in xs.chunks_exact(width).zip(&out) {
            let scalar_dot: f64 = x.iter().zip(&w).map(|(a, b)| a * b).sum();
            assert_eq!(o.to_bits(), scalar_dot.to_bits());
        }
    }

    #[test]
    fn batch_distances_match_scalar_distances() {
        let width = 6;
        let rows = 40;
        let xs = chunk_data(rows, width, 3);
        let center = chunk_data(1, width, 9);
        let mut out = vec![0.0; rows];
        batch_squared_distances(&xs, &center, &mut out);
        for (x, o) in xs.chunks_exact(width).zip(&out) {
            let scalar_d: f64 = x.iter().zip(&center).map(|(a, b)| (a - b) * (a - b)).sum();
            assert_eq!(o.to_bits(), scalar_d.to_bits());
        }
    }

    #[test]
    fn gemv_acc_matches_matvec() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let x = [1.0, -1.0];
        let mut y = vec![10.0, 20.0];
        gemv_acc(2.0, &a, &x, &mut y);
        assert_eq!(y, vec![10.0 + -2.0, 20.0 + -2.0]);
    }

    #[test]
    fn gemm_delegates_to_matmul() {
        let a = DenseMatrix::identity(3);
        let b = DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap();
        assert_eq!(gemm(&a, &b).unwrap(), b);
    }
}
