//! Dense row-major matrices used by the reporting analyses.
//!
//! The paper stores its co-reporting matrix over all 21 k sources
//! densely (~1.8 GB); the analyses here read country- and publisher-
//! sized matrices. [`Matrix`] is the minimal dense container they need,
//! with a mergeable counter specialization for the per-thread-partial
//! pattern.

use crate::exec::Merge;

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Matrix<T> {
    /// Zeroed `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![T::default(); rows * cols] }
    }

    /// Row count.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        debug_assert!(r < self.rows && c < self.cols);
        // analyze: allow(panic_path): r < rows, c < cols ⇒ r*cols + c < rows*cols (caller contract)
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        // analyze: allow(panic_path): r < rows, c < cols ⇒ r*cols + c < rows*cols (caller contract)
        &mut self.data[r * self.cols + c]
    }

    /// Set one element.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        *self.get_mut(r, c) = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat data view.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Map every element into a new matrix.
    pub fn map<U: Copy + Default>(&self, f: impl Fn(T) -> U) -> Matrix<U> {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }
}

impl Matrix<u64> {
    /// Add one to an element (the hot co-reporting update).
    #[inline]
    pub fn bump(&mut self, r: usize, c: usize) {
        // analyze: allow(panic_path): r < rows, c < cols ⇒ r*cols + c < rows*cols (caller contract)
        self.data[r * self.cols + c] += 1;
    }

    /// Column sums.
    pub fn col_sums(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.cols];
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out[c] += v;
            }
        }
        out
    }

    /// Row sums.
    pub fn row_sums(&self) -> Vec<u64> {
        (0..self.rows).map(|r| self.row(r).iter().sum()).collect()
    }

    /// Total of all elements.
    pub fn total(&self) -> u64 {
        self.data.iter().sum()
    }
}

impl Matrix<f64> {
    /// Column sums (used for the Table IV "Sum" row).
    pub fn col_sums_f(&self) -> Vec<f64> {
        let mut out = vec![0f64; self.cols];
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out[c] += v;
            }
        }
        out
    }
}

impl Merge for Matrix<u64> {
    fn merge(&mut self, other: Self) {
        if self.data.is_empty() {
            *self = other;
            return;
        }
        // Deliberate API contract: a shape mismatch is a caller bug.
        assert_eq!(self.rows, other.rows, "matrix shape mismatch in merge");
        assert_eq!(self.cols, other.cols, "matrix shape mismatch in merge");
        for (a, b) in self.data.iter_mut().zip(other.data) {
            *a += b;
        }
    }
}

impl<T: Copy + Default> Default for Matrix<T> {
    fn default() -> Self {
        Matrix { rows: 0, cols: 0, data: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = Matrix::<u64>::zeros(3, 2);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(2, 1), 0);
        m.set(2, 1, 7);
        assert_eq!(m.get(2, 1), 7);
        m.bump(2, 1);
        assert_eq!(m.get(2, 1), 8);
    }

    #[test]
    fn row_view_and_sums() {
        let mut m = Matrix::<u64>::zeros(2, 3);
        m.set(0, 0, 1);
        m.set(0, 2, 2);
        m.set(1, 1, 5);
        assert_eq!(m.row(0), &[1, 0, 2]);
        assert_eq!(m.row_sums(), vec![3, 5]);
        assert_eq!(m.col_sums(), vec![1, 5, 2]);
        assert_eq!(m.total(), 8);
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = Matrix::<u64>::zeros(2, 2);
        a.set(0, 0, 1);
        let mut b = Matrix::<u64>::zeros(2, 2);
        b.set(0, 0, 2);
        b.set(1, 1, 3);
        a.merge(b);
        assert_eq!(a.get(0, 0), 3);
        assert_eq!(a.get(1, 1), 3);
    }

    #[test]
    fn merge_into_default_takes_shape() {
        let mut a = Matrix::<u64>::default();
        let mut b = Matrix::<u64>::zeros(2, 2);
        b.set(1, 0, 9);
        a.merge(b);
        assert_eq!(a.get(1, 0), 9);
        assert_eq!(a.rows(), 2);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn merge_rejects_shape_mismatch() {
        let mut a = Matrix::<u64>::zeros(2, 2);
        a.set(0, 0, 1); // non-empty so the shape check engages
        let b = Matrix::<u64>::zeros(3, 2);
        a.merge(b);
    }

    #[test]
    fn map_converts_element_type() {
        let mut m = Matrix::<u64>::zeros(1, 2);
        m.set(0, 1, 4);
        let f = m.map(|v| v as f64 / 2.0);
        assert_eq!(f.get(0, 1), 2.0);
        assert_eq!(f.col_sums_f(), vec![0.0, 2.0]);
    }
}
