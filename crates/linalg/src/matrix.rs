//! Row-major dense matrix.
//!
//! [`Matrix`] is the workhorse type of the workspace: OS-ELM's `α`, `β`, `P`
//! and `H` are all small dense matrices. The representation is a flat
//! `Vec<T>` in row-major order, which keeps the inner loops of the matrix
//! kernels contiguous and cache-friendly (see the blocked multiply in
//! [`crate::matmul`]).

use crate::error::{LinalgError, Result};
use crate::scalar::Scalar;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, row-major `rows × cols` matrix of [`Scalar`] elements.
#[derive(PartialEq)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Clone for Matrix<T> {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies into the existing allocation when it is large enough, so
    /// workspace copies stay allocation-free at steady state.
    fn clone_from(&mut self, source: &Self) {
        self.rows = source.rows;
        self.cols = source.cols;
        self.data.clone_from(&source.data);
    }
}

impl<T: Scalar> Matrix<T> {
    /// Create a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, T::zero())
    }

    /// Create a matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, T::one())
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Build a matrix from a function of the index pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Build a matrix from a slice of rows. Panics on ragged input — use
    /// [`Matrix::try_from_rows`] for a fallible version.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        Self::try_from_rows(rows).expect("from_rows: ragged or empty input")
    }

    /// Build a matrix from a slice of rows, checking that every row has the
    /// same length.
    pub fn try_from_rows(rows: &[Vec<T>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::InvalidData {
                detail: "no rows".into(),
            });
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::InvalidData {
                detail: "zero-length rows".into(),
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidData {
                    detail: format!("row {i} has {} columns, expected {cols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Build a matrix from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(LinalgError::InvalidData {
                detail: format!("expected {rows}×{cols} elements, got {}", data.len()),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// A `1 × n` row matrix from a slice.
    pub fn row_from_slice(v: &[T]) -> Self {
        Self {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// An `n × 1` column matrix from a slice.
    pub fn col_from_slice(v: &[T]) -> Self {
        Self {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// A square matrix with `diag` on the diagonal and zeros elsewhere.
    pub fn from_diag(diag: &[T]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has zero elements (never true for matrices built
    /// through the public constructors, which reject empty shapes).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reshape to `rows × cols`, filling with zeros. The backing `Vec`'s
    /// capacity is **reused** — no heap traffic once the matrix has grown to
    /// its steady-state size. This is the primitive behind the workspace
    /// (`*_into`) kernels: scratch matrices keep their allocation across
    /// calls while tolerating changing shapes.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, T::zero());
    }

    /// Reshape to `rows × cols` for a kernel that overwrites every element.
    /// Like [`Matrix::resize_zeroed`] it reuses the allocation, but it keeps
    /// the old values (only growth is zero-filled), so a call at the steady
    /// shape writes nothing.
    #[inline]
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, T::zero());
    }

    /// Overwrite row `r` from a slice of length `cols`.
    #[inline]
    pub fn set_row(&mut self, r: usize, src: &[T]) {
        self.row_mut(r).copy_from_slice(src);
    }

    /// Borrow the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the matrix and return its row-major storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Checked element access.
    pub fn get(&self, r: usize, c: usize) -> Result<T> {
        if r >= self.rows || c >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                row: r,
                col: c,
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok(self.data[r * self.cols + c])
    }

    /// Checked element assignment.
    pub fn set(&mut self, r: usize, c: usize, v: T) -> Result<()> {
        if r >= self.rows || c >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                row: r,
                col: c,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.data[r * self.cols + c] = v;
        Ok(())
    }

    /// Borrow row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds ({} rows)",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new `Vec`.
    pub fn col(&self, c: usize) -> Vec<T> {
        assert!(
            c < self.cols,
            "col index {c} out of bounds ({} cols)",
            self.cols
        );
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Iterator over rows as slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols)
    }

    /// Copy the listed rows (in the given order, duplicates allowed) into a
    /// new `indices.len() × cols` matrix. This is the packing primitive the
    /// population engine uses to assemble the state batch of the still-active
    /// replicas before a batched forward pass.
    pub fn gather_rows(&self, indices: &[usize]) -> Self {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &r in indices {
            data.extend_from_slice(self.row(r));
        }
        Self {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Iterator over all elements in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.data.iter()
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Apply `f` to every element, producing a new matrix.
    pub fn map(&self, mut f: impl FnMut(T) -> T) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(T) -> T) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combination of two equally shaped matrices.
    pub fn zip_map(&self, other: &Self, mut f: impl FnMut(T, T) -> T) -> Result<Self> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                detail: format!("zip_map {:?} vs {:?}", self.shape(), other.shape()),
            });
        }
        Ok(Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Multiply every element by `s`.
    pub fn scale(&self, s: T) -> Self {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> T {
        let mut acc = T::zero();
        for &x in &self.data {
            acc += x;
        }
        acc
    }

    /// Trace (sum of diagonal elements). Errors on non-square matrices.
    pub fn trace(&self) -> Result<T> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut acc = T::zero();
        for i in 0..self.rows {
            acc += self[(i, i)];
        }
        Ok(acc)
    }

    /// The largest absolute element value.
    pub fn max_abs(&self) -> T {
        let mut best = T::zero();
        for &x in &self.data {
            let a = x.abs();
            if a > best {
                best = a;
            }
        }
        best
    }

    /// `true` if any element is NaN-like.
    pub fn has_nan(&self) -> bool {
        self.data.iter().any(|x| x.is_nan())
    }

    /// Extract the sub-matrix `rows[r0..r1) × cols[c0..c1)`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Result<Self> {
        if r1 > self.rows || c1 > self.cols || r0 >= r1 || c0 >= c1 {
            return Err(LinalgError::InvalidData {
                detail: format!(
                    "submatrix [{r0}..{r1}, {c0}..{c1}] of {}x{}",
                    self.rows, self.cols
                ),
            });
        }
        let mut out = Self::zeros(r1 - r0, c1 - c0);
        for r in r0..r1 {
            for c in c0..c1 {
                out[(r - r0, c - c0)] = self[(r, c)];
            }
        }
        Ok(out)
    }

    /// Stack two matrices vertically (`self` on top of `other`).
    pub fn vstack(&self, other: &Self) -> Result<Self> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                detail: format!("vstack cols {} vs {}", self.cols, other.cols),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Self {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Stack two matrices horizontally (`self` to the left of `other`).
    pub fn hstack(&self, other: &Self) -> Result<Self> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                detail: format!("hstack rows {} vs {}", self.rows, other.rows),
            });
        }
        let mut out = Self::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        Ok(out)
    }

    /// Convert the element type via `f64` (used to move between float and
    /// fixed-point backends).
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| U::from_f64(x.to_f64())).collect(),
        }
    }

    /// Maximum absolute element-wise difference to another matrix of the same
    /// shape. Panics on shape mismatch (use in tests/diagnostics).
    pub fn max_abs_diff(&self, other: &Self) -> T {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        let mut best = T::zero();
        for (&a, &b) in self.data.iter().zip(other.data.iter()) {
            let d = (a - b).abs();
            if d > best {
                best = d;
            }
        }
        best
    }
}

/// The default matrix is the empty `0 × 0` placeholder — the natural seed
/// for workspace/scratch matrices that are reshaped on first use via
/// [`Matrix::resize_zeroed`].
impl<T: Scalar> Default for Matrix<T> {
    fn default() -> Self {
        Self {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>12.6} ", self[(r, c)].to_f64())?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

macro_rules! impl_elementwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<'a, 'b, T: Scalar> $trait<&'b Matrix<T>> for &'a Matrix<T> {
            type Output = Matrix<T>;
            fn $method(self, rhs: &'b Matrix<T>) -> Matrix<T> {
                assert_eq!(
                    self.shape(),
                    rhs.shape(),
                    concat!(stringify!($method), ": shape mismatch")
                );
                Matrix {
                    rows: self.rows,
                    cols: self.cols,
                    data: self
                        .data
                        .iter()
                        .zip(rhs.data.iter())
                        .map(|(&a, &b)| a $op b)
                        .collect(),
                }
            }
        }
        impl<T: Scalar> $trait<Matrix<T>> for Matrix<T> {
            type Output = Matrix<T>;
            fn $method(self, rhs: Matrix<T>) -> Matrix<T> {
                (&self).$method(&rhs)
            }
        }
    };
}

impl_elementwise!(Add, add, +);
impl_elementwise!(Sub, sub, -);

impl<T: Scalar> AddAssign<&Matrix<T>> for Matrix<T> {
    fn add_assign(&mut self, rhs: &Matrix<T>) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl<T: Scalar> SubAssign<&Matrix<T>> for Matrix<T> {
    fn sub_assign(&mut self, rhs: &Matrix<T>) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl<T: Scalar> Neg for &Matrix<T> {
    type Output = Matrix<T>;
    fn neg(self) -> Matrix<T> {
        self.map(|x| -x)
    }
}

/// Scalar multiplication: `&m * s`.
impl<T: Scalar> Mul<T> for &Matrix<T> {
    type Output = Matrix<T>;
    fn mul(self, rhs: T) -> Matrix<T> {
        self.scale(rhs)
    }
}

/// Matrix multiplication through the `*` operator delegates to
/// [`Matrix::matmul`] (the naive kernel); prefer the explicit method in hot
/// code so the kernel choice is visible.
impl<T: Scalar> Mul<&Matrix<T>> for &Matrix<T> {
    type Output = Matrix<T>;
    fn mul(self, rhs: &Matrix<T>) -> Matrix<T> {
        self.matmul(rhs)
    }
}

/// Serialised as `{"rows": r, "cols": c, "data": [..]}` with `data` in
/// row-major order — the same layout the in-memory representation uses, so
/// checkpointing a matrix is a straight copy of its backing vector.
impl<T: Scalar + serde::Serialize> serde::Serialize for Matrix<T> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("rows".to_owned(), self.rows.to_value()),
            ("cols".to_owned(), self.cols.to_value()),
            ("data".to_owned(), self.data.to_value()),
        ])
    }
}

impl<T: Scalar + serde::Deserialize> serde::Deserialize for Matrix<T> {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get_field(name)
                .ok_or_else(|| serde::Error::missing_field("Matrix", name))
        };
        let rows = usize::from_value(field("rows")?)?;
        let cols = usize::from_value(field("cols")?)?;
        let data = Vec::<T>::from_value(field("data")?)?;
        Matrix::from_vec(rows, cols, data).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<f64> {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn constructors_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
        assert!(!m.is_square());
        assert_eq!(m[(1, 2)], 6.0);
        let z = Matrix::<f64>::zeros(2, 2);
        assert_eq!(z.sum(), 0.0);
        let o = Matrix::<f64>::ones(2, 2);
        assert_eq!(o.sum(), 4.0);
        let i = Matrix::<f64>::identity(3);
        assert_eq!(i.trace().unwrap(), 3.0);
        assert!(i.is_square());
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(2, 2)], 3.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = Matrix::try_from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidData { .. }));
        assert!(Matrix::<f64>::try_from_rows(&[]).is_err());
        assert!(Matrix::<f64>::from_vec(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn get_set_bounds() {
        let mut m = sample();
        assert_eq!(m.get(0, 1).unwrap(), 2.0);
        assert!(m.get(5, 0).is_err());
        m.set(0, 0, 9.0).unwrap();
        assert_eq!(m[(0, 0)], 9.0);
        assert!(m.set(0, 9, 1.0).is_err());
    }

    #[test]
    fn rows_cols_access() {
        let m = sample();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        let rows: Vec<&[f64]> = m.row_iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = sample();
        let b = sample();
        let s = &a + &b;
        assert_eq!(s[(1, 2)], 12.0);
        let d = &s - &a;
        assert_eq!(d, b);
        let n = -&a;
        assert_eq!(n[(0, 0)], -1.0);
        let sc = &a * 2.0;
        assert_eq!(sc[(1, 0)], 8.0);
        let mut acc = a.clone();
        acc += &b;
        assert_eq!(acc[(0, 0)], 2.0);
        acc -= &b;
        assert_eq!(acc, a);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = sample();
        let b = Matrix::<f64>::zeros(3, 3);
        let _ = &a + &b;
    }

    #[test]
    fn map_and_zip_map() {
        let m = sample();
        let sq = m.map(|x| x * x);
        assert_eq!(sq[(1, 2)], 36.0);
        let z = m.zip_map(&m, |a, b| a + b).unwrap();
        assert_eq!(z[(0, 2)], 6.0);
        assert!(m.zip_map(&Matrix::zeros(1, 1), |a, _| a).is_err());
        let mut mm = m.clone();
        mm.map_inplace(|x| x + 1.0);
        assert_eq!(mm[(0, 0)], 2.0);
    }

    #[test]
    fn stacking() {
        let a = sample();
        let v = a.vstack(&a).unwrap();
        assert_eq!(v.shape(), (4, 3));
        assert_eq!(v[(3, 2)], 6.0);
        let h = a.hstack(&a).unwrap();
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h[(1, 5)], 6.0);
        assert!(a.vstack(&Matrix::zeros(1, 2)).is_err());
        assert!(a.hstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn gather_rows_selects_reorders_and_duplicates() {
        let a = sample();
        let g = a.gather_rows(&[1, 0, 1]);
        assert_eq!(g.shape(), (3, 3));
        assert_eq!(g.row(0), a.row(1));
        assert_eq!(g.row(1), a.row(0));
        assert_eq!(g.row(2), a.row(1));
        let empty = a.gather_rows(&[]);
        assert_eq!(empty.shape(), (0, 3));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rows_rejects_out_of_range_indices() {
        let _ = sample().gather_rows(&[2]);
    }

    #[test]
    fn submatrix_extraction() {
        let a = sample();
        let s = a.submatrix(0, 2, 1, 3).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)], 2.0);
        assert_eq!(s[(1, 1)], 6.0);
        assert!(a.submatrix(0, 3, 0, 1).is_err());
        assert!(a.submatrix(1, 1, 0, 1).is_err());
    }

    #[test]
    fn reductions() {
        let a = sample();
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.max_abs(), 6.0);
        assert!(Matrix::<f64>::identity(2).trace().unwrap() == 2.0);
        assert!(a.trace().is_err());
        assert!(!a.has_nan());
        let mut b = a.clone();
        b[(0, 0)] = f64::NAN;
        assert!(b.has_nan());
    }

    #[test]
    fn cast_between_precisions() {
        let a = sample();
        let f: Matrix<f32> = a.cast();
        assert_eq!(f[(1, 2)], 6.0_f32);
        let back: Matrix<f64> = f.cast();
        assert!(back.max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn debug_formatting_is_bounded() {
        let big = Matrix::<f64>::zeros(20, 20);
        let s = format!("{big:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains("..."));
    }

    #[test]
    fn row_and_col_vectors() {
        let r = Matrix::row_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
        let c = Matrix::col_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(c.shape(), (3, 1));
        assert_eq!(r.transpose(), c);
    }

    #[test]
    fn serde_round_trip_is_exact() {
        use serde::{Deserialize, Serialize};
        let m = Matrix::from_rows(&[vec![0.1, -2.5e-17, 3.0], vec![f64::MIN, 5.0, -0.0]]);
        let back = Matrix::<f64>::from_value(&m.to_value()).unwrap();
        assert_eq!(back.shape(), m.shape());
        for (a, b) in back.as_slice().iter().zip(m.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn serde_rejects_shape_data_mismatch() {
        use serde::{Deserialize, Serialize};
        let mut v = sample().to_value();
        if let serde::Value::Map(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "rows" {
                    *val = serde::Value::UInt(3);
                }
            }
        }
        assert!(Matrix::<f64>::from_value(&v).is_err());
    }
}
