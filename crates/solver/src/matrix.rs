//! Minimal dense linear algebra for the LP solvers.
//!
//! Row-major dense matrices with the handful of operations the
//! interior-point method needs: matvec, transposed matvec, `A D A^T`
//! assembly, and Cholesky factorization/solves.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A `rows x cols` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Mat {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have equal length"
        );
        Mat {
            rows: rows.len(),
            cols,
            data: rows.iter().flatten().copied().collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[allow(clippy::needless_range_loop)] // index form mirrors the math
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            y[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// `self^T * y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    #[allow(clippy::needless_range_loop)] // index form mirrors the math
    pub fn t_matvec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "t_matvec dimension mismatch");
        let mut x = vec![0.0; self.cols];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (j, &a) in row.iter().enumerate() {
                x[j] += a * y[i];
            }
        }
        x
    }

    /// Assembles the normal-equations matrix `A D A^T` where `D` is the
    /// diagonal given by `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != cols`.
    pub fn a_d_at(&self, d: &[f64]) -> Mat {
        assert_eq!(d.len(), self.cols, "diagonal dimension mismatch");
        let m = self.rows;
        let mut out = Mat::zeros(m, m);
        for i in 0..m {
            let ri = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in i..m {
                let rj = &self.data[j * self.cols..(j + 1) * self.cols];
                let mut s = 0.0;
                for k in 0..self.cols {
                    s += ri[k] * d[k] * rj[k];
                }
                out[(i, j)] = s;
                out[(j, i)] = s;
            }
        }
        out
    }

    /// Cholesky factorization of a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefinite`] if a pivot drops below a small
    /// tolerance (the interior-point caller regularizes and retries).
    pub fn cholesky(&self) -> Result<Cholesky, NotPositiveDefinite> {
        assert_eq!(self.rows, self.cols, "cholesky needs a square matrix");
        let n = self.rows;
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 1e-12 {
                        return Err(NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Cholesky factorization failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// The pivot index where the factorization broke down.
    pub pivot: usize,
}

impl fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is not positive definite (pivot {})", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// A lower-triangular Cholesky factor `L` with `L L^T = A`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Mat,
}

impl Cholesky {
    /// Solves `A x = b` by forward/backward substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factor size.
    #[allow(clippy::needless_range_loop)] // triangular solves read cleaner indexed
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.l.rows();
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        // Forward: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Backward: L^T x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in i + 1..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        x
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_and_transpose() {
        let a = Mat::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(a.t_matvec(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]] is SPD; solve A x = [8, 7] -> x = [1.5, 1.333...]
        let a = Mat::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let chol = a.cholesky().unwrap();
        let x = chol.solve(&[8.0, 7.0]);
        let back = a.matvec(&x);
        assert!((back[0] - 8.0).abs() < 1e-12);
        assert!((back[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn a_d_at_matches_manual() {
        let a = Mat::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 1.0, 1.0]]);
        let d = [2.0, 3.0, 1.0];
        let m = a.a_d_at(&d);
        // Row0·D·Row0 = 1*2 + 0 + 4*1 = 6; Row0·D·Row1 = 2; Row1·D·Row1 = 3+1 = 4
        assert!((m[(0, 0)] - 6.0).abs() < 1e-12);
        assert!((m[(0, 1)] - 2.0).abs() < 1e-12);
        assert!((m[(1, 0)] - 2.0).abs() < 1e-12);
        assert!((m[(1, 1)] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ragged_rows_rejected() {
        let r = std::panic::catch_unwind(|| Mat::from_rows(&[vec![1.0], vec![1.0, 2.0]]));
        assert!(r.is_err());
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }
}
