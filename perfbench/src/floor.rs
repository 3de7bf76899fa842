//! The serial floor: a plain CSR SpMV and a plain single-threaded CG
//! loop over the same operator the runtime solves. Used for the
//! true-residual output check and as the `floor.*` reference.

use std::time::Instant;

use kdr_sparse::SparseMatrix;

/// Row-compressed copy of an operator, built from its entries.
pub struct SerialCsr {
    pub n: usize,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl SerialCsr {
    pub fn from_matrix(m: &dyn SparseMatrix<f64>) -> SerialCsr {
        let n = m.range_space().size() as usize;
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        m.for_each_entry(&mut |_k, i, j, v| entries.push((i as usize, j as usize, v)));
        entries.sort_by_key(|&(i, j, _)| (i, j));
        let mut row_ptr = vec![0usize; n + 1];
        for &(i, _, _) in &entries {
            row_ptr[i + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        SerialCsr {
            n,
            row_ptr,
            cols: entries.iter().map(|e| e.1).collect(),
            vals: entries.iter().map(|e| e.2).collect(),
        }
    }

    /// `y = A x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate().take(self.n) {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.vals[k] * x[self.cols[k]];
            }
            *yi = acc;
        }
    }

    /// `‖b − A x‖ / ‖b‖`.
    pub fn relative_residual(&self, b: &[f64], x: &[f64]) -> f64 {
        let mut ax = vec![0.0; self.n];
        self.spmv(x, &mut ax);
        let r: f64 = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai) * (bi - ai)).sum();
        let bb: f64 = b.iter().map(|v| v * v).sum();
        (r / bb).sqrt()
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One serial CG solve from a zero guess, stopping when `‖r‖ < tol`
/// (the library's CG convergence measure), checked every iteration.
/// Returns `(iterations, wall seconds, solution)`.
pub fn cg(a: &SerialCsr, b: &[f64], tol: f64, max_iters: usize) -> (usize, f64, Vec<f64>) {
    let t0 = Instant::now();
    let n = a.n;
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rr = dot(&r, &r);
    let mut iters = 0;
    while iters < max_iters && rr.sqrt() >= tol {
        a.spmv(&p, &mut q);
        let alpha = rr / dot(&p, &q);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rr_new = dot(&r, &r);
        let beta = rr_new / rr;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rr = rr_new;
        iters += 1;
    }
    (iters, t0.elapsed().as_secs_f64(), x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdr_sparse::stencil::rhs_vector;
    use kdr_sparse::Stencil;

    #[test]
    fn floor_cg_converges_on_lap2d() {
        let s = Stencil::lap2d(12, 12);
        let a = SerialCsr::from_matrix(&s.to_csr::<f64, u64>());
        let b = rhs_vector::<f64>(s.unknowns(), 3);
        let (iters, _, x) = cg(&a, &b, 1e-10, 1000);
        assert!(iters > 0 && iters < 1000);
        assert!(a.relative_residual(&b, &x) < 1e-9);
    }
}
