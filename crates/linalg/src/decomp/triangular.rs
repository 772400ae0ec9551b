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
//! Large solves (`n²·cols` strictly above
//! [`parallel_flop_threshold`](crate::matmul::parallel_flop_threshold), so
//! the paper-scale Ñ = 64 `P₀` solve stays on the calling thread; on a pool
//! with more than one worker) split `X` into one band of columns per
//! worker and hand each band to the pool once, as a list of per-row
//! sub-slices; every band runs both passes on its own columns. Bands are as
//! wide as the pool allows because each one re-reads the whole factor, and
//! the back pass reads it by column (`Lᵀ`): at `Ñ = 1024` one band per
//! worker beat bands of 64 and 256 columns.

use crate::matmul::parallel_flop_threshold;
use crate::matrix::Matrix;
use crate::scalar::Scalar;
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
    fn is_upper(self) -> bool {
        matches!(self, Triangle::LowerTransposed | Triangle::Upper)
    }

    fn coef<T: Scalar>(self, m: &Matrix<T>, i: usize, j: usize) -> T {
        match self {
            Triangle::LowerTransposed => m[(j, i)],
            _ => m[(i, j)],
        }
    }

    fn pivot<T: Scalar>(self, m: &Matrix<T>, i: usize) -> Option<T> {
        match self {
            Triangle::UnitLower => None,
            _ => Some(m[(i, i)]),
        }
    }
}

/// Solve the two triangular systems `passes` (in order) for `x` in place,
/// reading both triangles from the factor `m` (`n × n`, `x` is `n × cols`).
pub(crate) fn solve_in_place<T: Scalar>(m: &Matrix<T>, passes: [Triangle; 2], x: &mut Matrix<T>) {
    let (n, cols) = x.shape();
    if n == 0 || cols == 0 {
        return;
    }
    let threads = rayon::current_num_threads();
    if threads <= 1 || n * n * cols <= parallel_flop_threshold() {
        for tri in passes {
            pass_flat(m, tri, x.as_mut_slice(), cols);
        }
        return;
    }
    let width = cols.div_ceil(threads).next_multiple_of(8);
    let mut bands: Vec<Vec<&mut [T]>> = (0..cols.div_ceil(width))
        .map(|_| Vec::with_capacity(n))
        .collect();
    for row in x.as_mut_slice().chunks_exact_mut(cols) {
        for (band, piece) in bands.iter_mut().zip(row.chunks_mut(width)) {
            band.push(piece);
        }
    }
    bands.into_par_iter().for_each(|mut rows| {
        for tri in passes {
            pass_rows(m, tri, &mut rows);
        }
    });
}

/// `row ← (row − Σ_{j ∈ js} coef(j) · src(j)) / pivot`, subtracting in
/// ascending `j`. Terms go four to a sweep of the row: each element takes
/// its four subtractions in a register and is stored once, which changes
/// memory traffic only, not the order of operations.
fn eliminate<'a, T: Scalar>(
    row: &mut [T],
    js: Range<usize>,
    coef: impl Fn(usize) -> T,
    src: impl Fn(usize) -> &'a [T],
    pivot: Option<T>,
) {
    let mut j = js.start;
    while j + 4 <= js.end {
        let c: [T; 4] = std::array::from_fn(|g| coef(j + g));
        let w = row.len();
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
        for (v, &x) in row.iter_mut().zip(src(j)) {
            *v -= c * x;
        }
    }
    if let Some(d) = pivot {
        for v in row.iter_mut() {
            *v /= d;
        }
    }
}

/// One pass over a contiguous row-major right-hand side of `cols` columns.
fn pass_flat<T: Scalar>(m: &Matrix<T>, tri: Triangle, x: &mut [T], cols: usize) {
    let n = m.rows();
    let mut step = |i: usize| {
        let (head, rest) = x.split_at_mut(i * cols);
        let (row, tail) = rest.split_at_mut(cols);
        let (head, tail) = (&*head, &*tail);
        let coef = |j| tri.coef(m, i, j);
        let pivot = tri.pivot(m, i);
        if tri.is_upper() {
            let src = |j: usize| &tail[(j - i - 1) * cols..(j - i) * cols];
            eliminate(row, i + 1..n, coef, src, pivot);
        } else {
            eliminate(row, 0..i, coef, |j| &head[j * cols..(j + 1) * cols], pivot);
        }
    };
    if tri.is_upper() {
        (0..n).rev().for_each(&mut step);
    } else {
        (0..n).for_each(&mut step);
    }
}

/// One pass over a band of the right-hand side given as per-row sub-slices.
fn pass_rows<T: Scalar>(m: &Matrix<T>, tri: Triangle, rows: &mut [&mut [T]]) {
    let n = m.rows();
    let mut step = |i: usize| {
        let (head, rest) = rows.split_at_mut(i);
        let (row, tail) = rest.split_first_mut().expect("row i exists");
        let (head, tail) = (&*head, &*tail);
        let coef = |j| tri.coef(m, i, j);
        let pivot = tri.pivot(m, i);
        if tri.is_upper() {
            eliminate(row, i + 1..n, coef, |j| &*tail[j - i - 1], pivot);
        } else {
            eliminate(row, 0..i, coef, |j| &*head[j], pivot);
        }
    };
    if tri.is_upper() {
        (0..n).rev().for_each(&mut step);
    } else {
        (0..n).for_each(&mut step);
    }
}
