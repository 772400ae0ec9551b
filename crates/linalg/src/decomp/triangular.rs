//! In-place triangular substitution, shared by the Cholesky and LU solves.
//!
//! A pass solves one triangular system for a whole right-hand side `X`,
//! **one row at a time**: row `i` becomes
//! `(row_i − Σ_j coef(i, j) · row_j) / pivot(i)` with `j` ascending over the
//! rows already solved (`0..i` top-down for a lower triangle, `i+1..n`
//! bottom-up for an upper one). Each subtraction is a contiguous axpy over
//! the row, so the pass streams memory instead of striding a column.
//!
//! Per element `(i, c)` this is exactly the column-at-a-time loop
//! `acc = x_ic; for j ascending { acc -= coef(i, j) · x_jc }; x_ic = acc / pivot`:
//! the same products, subtracted in the same order, then the same division.
//! Columns never interact, so neither the row order nor splitting the
//! columns into bands changes a bit.
//!
//! Large solves (`n²·cols` multiply–adds that [`on_pool`] sends to the
//! pool; the paper-scale Ñ = 64 `P₀` solve stays on the calling thread)
//! split `X` into one band of columns per worker and hand each band to the
//! pool once, as a list of per-row sub-slices; every band runs both passes
//! on its own columns. Bands are as wide as the pool allows because each one
//! re-reads the whole factor, and the back pass reads it by column (`Lᵀ`):
//! at `Ñ = 1024` one band per worker beat bands of 64 and 256 columns.

use crate::matmul::on_pool;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
use crate::simd::wide;
use rayon::prelude::*;
use std::ops::Range;

/// How a pass reads its triangle out of a factor matrix `m`.
#[derive(Clone, Copy)]
pub(crate) enum Triangle {
    /// The lower triangle with its diagonal: `L` of a Cholesky factor.
    Lower,
    /// `Lᵀ` read from the lower triangle: `coef(i, j) = m[j][i]`.
    LowerTransposed,
    /// The unit lower triangle of a packed LU factor (no division).
    UnitLower,
    /// The upper triangle with its diagonal of a packed LU factor.
    Upper,
}

impl Triangle {
    #[inline(always)]
    fn is_upper(self) -> bool {
        matches!(self, Triangle::LowerTransposed | Triangle::Upper)
    }

    /// The row solved at step `step` of `n`: top-down for a lower
    /// triangle, bottom-up for an upper one.
    #[inline(always)]
    fn row_at(self, step: usize, n: usize) -> usize {
        if self.is_upper() {
            n - 1 - step
        } else {
            step
        }
    }

    #[inline(always)]
    fn coef<T: Scalar>(self, m: &Matrix<T>, i: usize, j: usize) -> T {
        match self {
            Triangle::LowerTransposed => m[(j, i)],
            _ => m[(i, j)],
        }
    }

    #[inline(always)]
    fn pivot<T: Scalar>(self, m: &Matrix<T>, i: usize) -> Option<T> {
        match self {
            Triangle::UnitLower => None,
            _ => Some(m[(i, i)]),
        }
    }
}

/// Which columns of a right-hand-side row the terms of a pass can change.
#[derive(Clone, Copy)]
pub(crate) enum Span {
    /// Every column.
    Full,
    /// The right-hand side is lower triangular with exact `+0` above its
    /// diagonal, the pass is a lower one and the factor is finite, so row
    /// `j` is `+0` past column `j`. Subtracting `c·(+0)` (a `±0`) from a
    /// sum that never becomes `−0` leaves it unchanged, so a term for row
    /// `j` may stop at column `j`, and the row's own `+0`s past its
    /// diagonal stay `+0` through the division. The value is the band's
    /// first column.
    Lower(usize),
}

impl Span {
    /// How many leading columns of a `w`-wide row (or band) row `j` reaches.
    #[inline(always)]
    fn width(self, j: usize, w: usize) -> usize {
        match self {
            Span::Full => w,
            Span::Lower(c0) => (j + 1).saturating_sub(c0).min(w),
        }
    }
}

/// Solve the two triangular systems `passes` (in order) for `x` in place,
/// reading both triangles from the factor `m` (`n × n`, `x` is `n × cols`).
/// With `x_lower` the caller promises what [`Span::Lower`] needs of `x`
/// and `m`, and the first (lower) pass skips the zeros above the diagonal.
pub(crate) fn solve_in_place<T: Scalar>(
    m: &Matrix<T>,
    passes: [Triangle; 2],
    x: &mut Matrix<T>,
    x_lower: bool,
) {
    let (n, cols) = x.shape();
    if n == 0 || cols == 0 {
        return;
    }
    if !on_pool(n * n * cols) {
        let x = x.as_mut_slice();
        wide(
            #[inline(always)]
            || {
                for (tri, span) in passes.into_iter().zip([first_span(x_lower, 0), Span::Full]) {
                    pass_flat(m, tri, x, cols, span);
                }
            },
        );
        return;
    }
    let width = cols
        .div_ceil(rayon::current_num_threads())
        .next_multiple_of(8);
    let mut bands: Vec<Vec<&mut [T]>> = (0..cols.div_ceil(width))
        .map(|_| Vec::with_capacity(n))
        .collect();
    for row in x.as_mut_slice().chunks_exact_mut(cols) {
        for (band, piece) in bands.iter_mut().zip(row.chunks_mut(width)) {
            band.push(piece);
        }
    }
    let bands: Vec<(usize, Vec<&mut [T]>)> = bands.into_iter().enumerate().collect();
    bands.into_par_iter().for_each(|(b, mut rows)| {
        let span = first_span(x_lower, b * width);
        wide(
            #[inline(always)]
            || {
                for (tri, span) in passes.into_iter().zip([span, Span::Full]) {
                    pass_rows(m, tri, &mut rows, span);
                }
            },
        );
    });
}

/// The [`Span`] of the first pass over a band starting at column `c0`.
fn first_span(x_lower: bool, c0: usize) -> Span {
    if x_lower {
        Span::Lower(c0)
    } else {
        Span::Full
    }
}

/// `row ← (row − Σ_{j ∈ js} coef(j) · src(j)) / pivot`, subtracting in
/// ascending `j`, where row `i`'s terms reach the columns `span` allows.
/// Terms go four to a sweep of the row: each element takes its four
/// subtractions in a register and is stored once, which changes memory
/// traffic only, not the order of operations.
#[inline(always)]
fn eliminate<'a, T: Scalar>(
    row: &mut [T],
    i: usize,
    js: Range<usize>,
    coef: impl Fn(usize) -> T,
    src: impl Fn(usize) -> &'a [T],
    pivot: Option<T>,
    span: Span,
) {
    let mut j = js.start;
    while j + 4 <= js.end {
        let c: [T; 4] = std::array::from_fn(|g| coef(j + g));
        let w = span.width(j + 3, row.len());
        let [s0, s1, s2, s3]: [&[T]; 4] = std::array::from_fn(|g| &src(j + g)[..w]);
        for k in 0..w {
            let mut acc = row[k];
            acc -= c[0] * s0[k];
            acc -= c[1] * s1[k];
            acc -= c[2] * s2[k];
            acc -= c[3] * s3[k];
            row[k] = acc;
        }
        j += 4;
    }
    for j in j..js.end {
        let c = coef(j);
        let w = span.width(j, row.len());
        for (v, &x) in row[..w].iter_mut().zip(src(j)) {
            *v -= c * x;
        }
    }
    if let Some(d) = pivot {
        let w = span.width(i, row.len());
        for v in row[..w].iter_mut() {
            *v /= d;
        }
    }
}

/// One pass over a contiguous row-major right-hand side of `cols` columns.
/// Callers run it through [`wide`].
#[inline(always)]
pub(crate) fn pass_flat<T: Scalar>(
    m: &Matrix<T>,
    tri: Triangle,
    x: &mut [T],
    cols: usize,
    span: Span,
) {
    let n = m.rows();
    for step in 0..n {
        let i = tri.row_at(step, n);
        let (head, rest) = x.split_at_mut(i * cols);
        let (row, tail) = rest.split_at_mut(cols);
        let (head, tail) = (&*head, &*tail);
        let coef = |j| tri.coef(m, i, j);
        let pivot = tri.pivot(m, i);
        if tri.is_upper() {
            let src = |j: usize| &tail[(j - i - 1) * cols..(j - i) * cols];
            eliminate(row, i, i + 1..n, coef, src, pivot, span);
        } else {
            let src = |j: usize| &head[j * cols..(j + 1) * cols];
            eliminate(row, i, 0..i, coef, src, pivot, span);
        }
    }
}

/// One pass over a band of the right-hand side given as per-row sub-slices.
/// Callers run it through [`wide`].
#[inline(always)]
pub(crate) fn pass_rows<T: Scalar>(
    m: &Matrix<T>,
    tri: Triangle,
    rows: &mut [&mut [T]],
    span: Span,
) {
    let n = m.rows();
    for step in 0..n {
        let i = tri.row_at(step, n);
        let (head, rest) = rows.split_at_mut(i);
        let (row, tail) = rest.split_first_mut().expect("row i exists");
        let (head, tail) = (&*head, &*tail);
        let coef = |j| tri.coef(m, i, j);
        let pivot = tri.pivot(m, i);
        if tri.is_upper() {
            eliminate(row, i, i + 1..n, coef, |j| &*tail[j - i - 1], pivot, span);
        } else {
            eliminate(row, i, 0..i, coef, |j| &*head[j], pivot, span);
        }
    }
}
