//! Compressed-sparse-row matrices for Markov clustering.
//!
//! MCL iterates on a column-stochastic similarity matrix. The
//! co-reporting matrices this runs on are symmetric and (outside the
//! media-group blocks) sparse, so CSR is the natural representation —
//! the paper makes the same observation about time-sliced co-reporting
//! matrices (§VI-B).

/// A square CSR matrix with `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Dimension (square).
    pub n: usize,
    /// Row pointer array, `n + 1` entries.
    pub indptr: Vec<usize>,
    /// Column indices, grouped by row, ascending within a row.
    pub indices: Vec<u32>,
    /// Values parallel to `indices`.
    pub values: Vec<f64>,
}

impl CsrMatrix {
    /// Zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        CsrMatrix { n, indptr: vec![0; n + 1], indices: Vec::new(), values: Vec::new() }
    }

    /// Build from unordered triplets, summing duplicates and dropping
    /// explicit zeros.
    pub fn from_triplets(n: usize, triplets: &[(u32, u32, f64)]) -> Self {
        let mut sorted: Vec<(u32, u32, f64)> = triplets
            .iter()
            .filter(|&&(r, c, v)| v != 0.0 && (r as usize) < n && (c as usize) < n)
            .copied()
            .collect();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; n + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        for &(r, c, v) in &sorted {
            if let (Some(&last_c), true) = (indices.last(), indptr[r as usize + 1] > 0) {
                // Same row (indptr cursor at r+1 nonzero) and same col →
                // accumulate.
                let row_started = indptr[r as usize + 1] > indptr[r as usize];
                if row_started && last_c == c {
                    *values.last_mut().expect("non-empty") += v;
                    continue;
                }
            }
            indices.push(c);
            values.push(v);
            indptr[r as usize + 1] = indices.len();
        }
        // Fill empty-row gaps in indptr.
        for i in 1..=n {
            if indptr[i] < indptr[i - 1] {
                indptr[i] = indptr[i - 1];
            }
        }
        CsrMatrix { n, indptr, indices, values }
    }

    /// Build from a dense row-major slice.
    pub fn from_dense(n: usize, dense: &[f64]) -> Self {
        assert_eq!(dense.len(), n * n, "dense data must be n*n");
        let mut indptr = vec![0usize; n + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..n {
            for c in 0..n {
                let v = dense[r * n + c];
                if v != 0.0 {
                    indices.push(c as u32);
                    values.push(v);
                }
            }
            indptr[r + 1] = indices.len();
        }
        CsrMatrix { n, indptr, indices, values }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Entry accessor (binary search within the row).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        match self.indices[lo..hi].binary_search(&(c as u32)) {
            Ok(i) => self.values[lo + i],
            Err(_) => 0.0,
        }
    }

    /// Densify (tests / tiny matrices only).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.n * self.n];
        for r in 0..self.n {
            for i in self.indptr[r]..self.indptr[r + 1] {
                out[r * self.n + self.indices[i] as usize] = self.values[i];
            }
        }
        out
    }

    /// Add `v` to every diagonal entry (MCL self-loops).
    pub fn add_self_loops(&self, v: f64) -> CsrMatrix {
        let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(self.nnz() + self.n);
        for r in 0..self.n {
            for i in self.indptr[r]..self.indptr[r + 1] {
                triplets.push((r as u32, self.indices[i], self.values[i]));
            }
            triplets.push((r as u32, r as u32, v));
        }
        CsrMatrix::from_triplets(self.n, &triplets)
    }

    /// Normalize every **column** to sum 1 (column-stochastic form).
    /// All-zero columns stay zero.
    pub fn normalize_columns(&self) -> CsrMatrix {
        let mut col_sums = vec![0.0f64; self.n];
        for (i, &c) in self.indices.iter().enumerate() {
            col_sums[c as usize] += self.values[i];
        }
        let mut out = self.clone();
        for (i, &c) in self.indices.iter().enumerate() {
            let s = col_sums[c as usize];
            if s > 0.0 {
                out.values[i] = self.values[i] / s;
            }
        }
        out
    }

    /// Sparse matrix product `self * other`, row by row through one
    /// dense accumulator that is cleared entry by entry after each row.
    pub fn multiply(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let n = self.n;
        let mut acc = vec![0.0f64; n];
        let mut touched: Vec<u32> = Vec::new();
        let mut indptr = vec![0usize; n + 1];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in 0..n {
            for i in self.indptr[r]..self.indptr[r + 1] {
                let k = self.indices[i] as usize;
                let v = self.values[i];
                for j in other.indptr[k]..other.indptr[k + 1] {
                    let c = other.indices[j] as usize;
                    if acc[c] == 0.0 {
                        touched.push(c as u32);
                    }
                    acc[c] += v * other.values[j];
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                indices.push(c);
                values.push(acc[c as usize]);
            }
            for &c in &touched {
                acc[c as usize] = 0.0;
            }
            touched.clear();
            indptr[r + 1] = indices.len();
        }
        CsrMatrix { n, indptr, indices, values }
    }

    /// Hadamard (element-wise) power — the MCL inflation kernel.
    pub fn hadamard_power(&self, exponent: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = v.powf(exponent);
        }
        out
    }

    /// Drop entries below `threshold` (MCL pruning).
    pub fn prune(&self, threshold: f64) -> CsrMatrix {
        let mut indptr = vec![0usize; self.n + 1];
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for r in 0..self.n {
            for i in self.indptr[r]..self.indptr[r + 1] {
                if self.values[i] >= threshold {
                    indices.push(self.indices[i]);
                    values.push(self.values[i]);
                }
            }
            indptr[r + 1] = indices.len();
        }
        CsrMatrix { n: self.n, indptr, indices, values }
    }

    /// Largest absolute element-wise difference to another matrix
    /// (convergence check).
    pub fn max_abs_diff(&self, other: &CsrMatrix) -> f64 {
        assert_eq!(self.n, other.n, "dimension mismatch");
        // Walk both row streams; missing entries count as 0.
        let mut max = 0.0f64;
        for r in 0..self.n {
            let (mut i, ei) = (self.indptr[r], self.indptr[r + 1]);
            let (mut j, ej) = (other.indptr[r], other.indptr[r + 1]);
            while i < ei || j < ej {
                let ci = if i < ei { self.indices[i] } else { u32::MAX };
                let cj = if j < ej { other.indices[j] } else { u32::MAX };
                let d = match ci.cmp(&cj) {
                    std::cmp::Ordering::Less => {
                        let d = self.values[i].abs();
                        i += 1;
                        d
                    }
                    std::cmp::Ordering::Greater => {
                        let d = other.values[j].abs();
                        j += 1;
                        d
                    }
                    std::cmp::Ordering::Equal => {
                        let d = (self.values[i] - other.values[j]).abs();
                        i += 1;
                        j += 1;
                        d
                    }
                };
                max = max.max(d);
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12)
    }

    #[test]
    fn from_triplets_sorts_and_sums() {
        let m = CsrMatrix::from_triplets(3, &[(1, 2, 1.0), (0, 1, 2.0), (1, 2, 0.5), (2, 0, 3.0)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(1, 2), 1.5);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(2, 0), 3.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn from_triplets_drops_zeros_and_out_of_range() {
        let m = CsrMatrix::from_triplets(2, &[(0, 0, 0.0), (5, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(1, 1), 2.0);
    }

    #[test]
    fn dense_round_trip() {
        let dense = vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0];
        let m = CsrMatrix::from_dense(3, &dense);
        assert_eq!(m.nnz(), 4);
        assert!(approx(&m.to_dense(), &dense));
    }

    #[test]
    fn column_normalization() {
        // Column 0 sums to 5, column 1 to 2.
        let m = CsrMatrix::from_dense(2, &[1.0, 2.0, 4.0, 0.0]);
        let n = m.normalize_columns();
        assert!(approx(&n.to_dense(), &[0.2, 1.0, 0.8, 0.0]));
    }

    #[test]
    fn multiply_matches_dense() {
        let a = CsrMatrix::from_dense(2, &[1.0, 2.0, 3.0, 4.0]);
        let b = CsrMatrix::from_dense(2, &[5.0, 6.0, 7.0, 8.0]);
        let c = a.multiply(&b);
        assert!(approx(&c.to_dense(), &[19.0, 22.0, 43.0, 50.0]));
    }

    #[test]
    fn multiply_keeps_sparsity() {
        let a = CsrMatrix::from_triplets(4, &[(0, 1, 1.0)]);
        let b = CsrMatrix::from_triplets(4, &[(1, 3, 2.0)]);
        let c = a.multiply(&b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 3), 2.0);
    }

    #[test]
    fn hadamard_power_and_prune() {
        let m = CsrMatrix::from_dense(2, &[0.5, 0.25, 0.0, 1.0]);
        let p = m.hadamard_power(2.0);
        assert!(approx(&p.to_dense(), &[0.25, 0.0625, 0.0, 1.0]));
        let pruned = p.prune(0.1);
        assert_eq!(pruned.nnz(), 2);
        assert_eq!(pruned.get(0, 1), 0.0);
    }

    #[test]
    fn self_loops() {
        let m = CsrMatrix::from_triplets(2, &[(0, 1, 1.0)]);
        let s = m.add_self_loops(0.5);
        assert_eq!(s.get(0, 0), 0.5);
        assert_eq!(s.get(1, 1), 0.5);
        assert_eq!(s.get(0, 1), 1.0);
    }

    #[test]
    fn max_abs_diff_handles_different_patterns() {
        let a = CsrMatrix::from_triplets(2, &[(0, 0, 1.0), (0, 1, 0.5)]);
        let b = CsrMatrix::from_triplets(2, &[(0, 0, 0.75), (1, 1, 0.2)]);
        let d = a.max_abs_diff(&b);
        assert!((d - 0.5).abs() < 1e-12); // the (0,1) entry vs 0
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn zeros_matrix() {
        let z = CsrMatrix::zeros(3);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.get(2, 2), 0.0);
        let m = CsrMatrix::from_triplets(3, &[(0, 0, 1.0)]);
        let prod = z.multiply(&m);
        assert_eq!(prod.nnz(), 0);
    }
}
