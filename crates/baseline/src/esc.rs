//! Column-wise expand–sort–compress (ESC) SpGEMM.
//!
//! This is the GPU-style ESC algorithm of Dalton et al. adapted to
//! multicore, included because the paper's access-pattern analysis
//! (Table II, second row) characterises it: the full expanded matrix `Ĉ` is
//! materialised in memory (one write and one read of `flop` tuples) before
//! it is sorted and compressed row by row.
//!
//! Unlike PB-SpGEMM there is no propagation blocking: tuples are grouped by
//! the *output row that produced them* (which is free, because the expansion
//! walks `A` row by row), not re-bucketed by row ranges sized to the cache.

use pb_sparse::semiring::{Numeric, PlusTimes, Semiring};
use pb_sparse::stats::flop_rows;
use pb_sparse::{Csr, Index};
use rayon::prelude::*;

/// Column-wise ESC SpGEMM under an arbitrary semiring.
pub fn esc_column_spgemm_with<S: Semiring>(a: &Csr<S::Elem>, b: &Csr<S::Elem>) -> Csr<S::Elem> {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "SpGEMM shape mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    let nrows = a.nrows();
    let ncols = b.ncols();

    // ----- Symbolic: size the expanded matrix Ĉ --------------------------
    let per_row = flop_rows(a, b);
    let mut offsets = Vec::with_capacity(nrows + 1);
    offsets.push(0u64);
    for &f in &per_row {
        offsets.push(offsets.last().unwrap() + f);
    }
    let flop = *offsets.last().unwrap() as usize;

    // ----- Expand: write all tuples of Ĉ, grouped by output row ----------
    let mut expanded: Vec<(Index, S::Elem)> = vec![(0, S::zero()); flop];
    {
        // Hand each row its own disjoint segment of the expanded buffer.
        let mut segments: Vec<&mut [(Index, S::Elem)]> = Vec::with_capacity(nrows);
        let mut rest: &mut [(Index, S::Elem)] = &mut expanded;
        for &len in per_row.iter().take(nrows) {
            let (seg, r) = rest.split_at_mut(len as usize);
            segments.push(seg);
            rest = r;
        }
        segments.into_par_iter().enumerate().for_each(|(i, seg)| {
            let (a_cols, a_vals) = a.row(i);
            let mut w = 0usize;
            for (&k, &a_ik) in a_cols.iter().zip(a_vals) {
                let (b_cols, b_vals) = b.row(k as usize);
                for (&j, &b_kj) in b_cols.iter().zip(b_vals) {
                    seg[w] = (j, S::mul(a_ik, b_kj));
                    w += 1;
                }
            }
            debug_assert_eq!(w, seg.len());
        });
    }

    // ----- Sort + compress each row segment of Ĉ --------------------------
    let rows: Vec<(Vec<Index>, Vec<S::Elem>)> = {
        let mut segments: Vec<&mut [(Index, S::Elem)]> = Vec::with_capacity(nrows);
        let mut rest: &mut [(Index, S::Elem)] = &mut expanded;
        for &len in per_row.iter().take(nrows) {
            let (seg, r) = rest.split_at_mut(len as usize);
            segments.push(seg);
            rest = r;
        }
        segments
            .into_par_iter()
            .map(|seg| {
                // Stable: expand wrote each row's products in ascending k,
                // so equal columns are summed in the reference's order.
                seg.sort_by_key(|&(c, _)| c);
                let mut cols: Vec<Index> = Vec::new();
                let mut vals: Vec<S::Elem> = Vec::new();
                for &(c, v) in seg.iter() {
                    match cols.last() {
                        Some(&last) if last == c => {
                            let slot = vals.last_mut().expect("values track cols");
                            *slot = S::add(*slot, v);
                        }
                        _ => {
                            cols.push(c);
                            vals.push(v);
                        }
                    }
                }
                (cols, vals)
            })
            .collect()
    };

    crate::util::assemble_rows(nrows, ncols, rows)
}

/// Column-wise ESC SpGEMM with ordinary `+`/`×`.
pub fn esc_column_spgemm<T: Numeric>(a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
    esc_column_spgemm_with::<PlusTimes<T>>(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_gen::{banded, erdos_renyi_square, rmat_square};
    use pb_sparse::reference::{csr_approx_eq, multiply_csr};

    #[test]
    fn matches_reference_on_random_matrices() {
        let er = erdos_renyi_square(8, 4, 21);
        let rm = rmat_square(8, 8, 22);
        let bd = banded(256, 11, 23);
        for m in [&er, &rm, &bd] {
            let expected = multiply_csr(m, m);
            assert!(csr_approx_eq(&esc_column_spgemm(m, m), &expected, 1e-9));
        }
    }

    #[test]
    fn output_is_canonical() {
        let a = rmat_square(7, 6, 24);
        let c = esc_column_spgemm(&a, &a);
        assert!(c.has_sorted_indices());
        assert!(!c.has_duplicates());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn empty_rows_are_handled() {
        let a = erdos_renyi_square(6, 1, 25);
        let expected = multiply_csr(&a, &a);
        assert!(csr_approx_eq(&esc_column_spgemm(&a, &a), &expected, 1e-9));

        let empty: Csr<f64> = Csr::empty(8, 8);
        assert_eq!(esc_column_spgemm(&empty, &empty).nnz(), 0);
    }
}
