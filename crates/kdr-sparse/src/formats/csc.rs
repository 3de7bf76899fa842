//! Compressed Sparse Column.
//!
//! Structural assumption: `K` is totally ordered so that each
//! *column's* entries form a contiguous interval. Metadata:
//! `colptr : D -> [K, K]` and `row : K -> R`. CSC is CSR's mirror
//! image; its adjoint SpMV is the fast direction.

use kdr_index::{FnRelation, IndexSpace, IntervalMapRelation, Relation, TransposedRelation};

use crate::matrix::SparseMatrix;
use crate::scalar::{IndexInt, Scalar};
use crate::triples::Triples;

/// A CSC matrix generic over entry type `T` and stored index type `I`.
#[derive(Clone, Debug)]
pub struct Csc<T, I = u64> {
    colptr: Vec<u64>,
    rowidx: Vec<I>,
    values: Vec<T>,
    rows: u64,
}

impl<T: Scalar, I: IndexInt> Csc<T, I> {
    /// Build from a coordinate list (duplicates summed).
    pub fn from_triples(t: Triples<T>) -> Self {
        let rows = t.rows();
        let cols = t.cols();
        // Canonicalize in transposed order: sort by (col, row).
        let tt = t.transposed().canonicalize();
        let mut colptr = vec![0u64; cols as usize + 1];
        for &(j, _, _) in tt.entries() {
            colptr[j as usize + 1] += 1;
        }
        for c in 1..colptr.len() {
            colptr[c] += colptr[c - 1];
        }
        let mut rowidx = Vec::with_capacity(tt.len());
        let mut values = Vec::with_capacity(tt.len());
        for &(_, i, v) in tt.entries() {
            rowidx.push(I::from_u64(i));
            values.push(v);
        }
        Csc {
            colptr,
            rowidx,
            values,
            rows,
        }
    }

    /// Row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> u64 {
        self.colptr.len() as u64 - 1
    }

    /// Column-pointer array (`cols + 1` entries).
    pub fn colptr(&self) -> &[u64] {
        &self.colptr
    }
}

impl<T: Scalar, I: IndexInt> SparseMatrix<T> for Csc<T, I> {
    fn kernel_space(&self) -> IndexSpace {
        IndexSpace::flat(self.values.len() as u64)
    }

    fn domain_space(&self) -> IndexSpace {
        IndexSpace::flat(self.cols())
    }

    fn range_space(&self) -> IndexSpace {
        IndexSpace::flat(self.rows)
    }

    fn col_relation(&self) -> Box<dyn Relation> {
        Box::new(TransposedRelation::new(Box::new(
            IntervalMapRelation::from_offsets(&self.colptr, self.values.len() as u64),
        )))
    }

    fn row_relation(&self) -> Box<dyn Relation> {
        Box::new(FnRelation::new(
            self.rowidx.iter().map(|&i| i.to_u64()).collect(),
            self.rows,
        ))
    }

    fn for_each_entry(&self, f: &mut dyn FnMut(u64, u64, u64, T)) {
        for j in 0..self.cols() {
            let (lo, hi) = (self.colptr[j as usize], self.colptr[j as usize + 1]);
            for k in lo..hi {
                f(
                    k,
                    self.rowidx[k as usize].to_u64(),
                    j,
                    self.values[k as usize],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::csr::Csr;

    fn t() -> Triples<f64> {
        Triples::from_entries(
            3,
            3,
            vec![
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 2, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
    }

    #[test]
    fn matches_csr() {
        let csc: Csc<f64, u32> = Csc::from_triples(t());
        let csr: Csr<f64, u32> = Csr::from_triples(t());
        let x = [1.0, 2.0, 3.0];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        csc.spmv(&x, &mut y1);
        csr.spmv(&x, &mut y2);
        assert_eq!(y1, y2);
        let mut z1 = vec![0.0; 3];
        let mut z2 = vec![0.0; 3];
        csc.spmv_transpose(&x, &mut z1);
        csr.spmv_transpose(&x, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn layout_is_column_major() {
        let m: Csc<f64> = Csc::from_triples(t());
        assert_eq!(m.colptr(), &[0, 2, 3, 5]);
        // Column 0 holds rows 0 and 2.
        let mut coords = Vec::new();
        m.for_each_entry(&mut |k, i, j, _| coords.push((k, i, j)));
        assert_eq!(coords[0], (0, 0, 0));
        assert_eq!(coords[1], (1, 2, 0));
    }

    #[test]
    fn relations_reproduce_entries() {
        let m: Csc<f64> = Csc::from_triples(t());
        let row = m.row_relation();
        let col = m.col_relation();
        m.for_each_entry(&mut |k, i, j, _| {
            let mut r = Vec::new();
            row.targets_of(k, &mut r);
            assert_eq!(r, vec![i]);
            let mut c = Vec::new();
            col.targets_of(k, &mut c);
            assert_eq!(c, vec![j]);
        });
    }

    #[test]
    fn piece_kernels_sum_to_whole() {
        let m: Csc<f64> = Csc::from_triples(t());
        let x = [1.0, -2.0, 0.5];
        let mut whole = vec![0.0; 3];
        m.spmv(&x, &mut whole);
        let mut acc = vec![0.0; 3];
        for p in m.kernel_space().all().split_equal(2) {
            m.spmv_add_piece(&p, &x, &mut acc);
        }
        assert_eq!(acc, whole);
        let mut wt = vec![0.0; 3];
        m.spmv_transpose(&x, &mut wt);
        let mut at = vec![0.0; 3];
        for p in m.kernel_space().all().split_equal(4) {
            m.spmv_transpose_add_piece(&p, &x, &mut at);
        }
        assert_eq!(at, wt);
    }
}
