//! Integration tests for the extension crates: masked PB-SpGEMM and
//! explicit bin counts, the SpMV kernels, and the graph-analytics layer, all exercised
//! through the public facade exactly as a downstream user would.

use pb_spgemm_suite::graph::{
    self, betweenness_centrality, count_triangles, markov_cluster, MclConfig,
};
use pb_spgemm_suite::prelude::*;
use pb_spgemm_suite::sparse::ops::mask_by_pattern;
use pb_spgemm_suite::sparse::{binfmt, reference};

/// Engine-backed stand-in for the retired `pb_spgemm::multiply` free
/// function: call sites stay unchanged while routing through the unified
/// [`SpGemm`] engine.
fn multiply(a: &Csc<f64>, b: &Csr<f64>, cfg: &PbConfig) -> Csr<f64> {
    SpGemm::pb().config(cfg.clone()).multiply_csc(a, b)
}

/// Engine-backed stand-in for the retired `pb_spgemm::multiply_masked`.
fn multiply_masked(a: &Csc<f64>, b: &Csr<f64>, mask: &Csr<f64>, cfg: &PbConfig) -> Csr<f64> {
    SpGemm::pb()
        .config(cfg.clone())
        .mask(mask)
        .multiply_csc(a, b)
}

use pb_spgemm_suite::spmv::{csc_spmv, csr_spmv, pb_spmv, spmspv, PbSpmvConfig};

// Named after the deleted Balanced mapping; the name stays so test histories line up.
#[test]
fn balanced_bins_produce_the_same_product_as_uniform_bins() {
    // R-MAT's skewed rows load the bins unevenly; an explicit 64-bin
    // layout must give the same product as the derived bin count.
    let a = rmat_square(9, 8, 5);
    let a_csc = a.to_csc();
    let uniform = multiply(&a_csc, &a, &PbConfig::default());
    let explicit = multiply(&a_csc, &a, &PbConfig::default().with_nbins(64));
    assert!(reference::csr_approx_eq(&uniform, &explicit, 1e-9));
}

#[test]
fn masked_multiply_equals_multiply_then_filter_on_real_standins() {
    for name in ["scircuit", "mc2depi"] {
        let a = standin_scaled(name, 0.004, 11);
        let full = multiply(&a.to_csc(), &a, &PbConfig::default());
        let masked = multiply_masked(&a.to_csc(), &a, &a, &PbConfig::default());
        let expected = mask_by_pattern(&full, &a);
        assert!(reference::csr_approx_eq(&masked, &expected, 1e-9), "{name}");
        assert!(masked.nnz() <= full.nnz());
    }
}

#[test]
fn spmv_kernels_agree_on_a_suitesparse_standin() {
    let a = standin_scaled("web-Google", 0.002, 3);
    let a_csc = a.to_csc();
    let x: Vec<f64> = (0..a.ncols())
        .map(|i| ((i % 97) as f64) / 97.0 - 0.5)
        .collect();
    let y_csr = csr_spmv(&a, &x);
    let y_csc = csc_spmv(&a_csc, &x);
    let y_pb = pb_spmv(&a_csc, &x, &PbSpmvConfig::default());
    for ((p, q), r) in y_csr.iter().zip(&y_csc).zip(&y_pb) {
        assert!((p - q).abs() < 1e-9);
        assert!((p - r).abs() < 1e-9);
    }
}

#[test]
fn spmspv_restricted_to_a_dense_frontier_matches_dense_spmv() {
    let a = rmat_square(8, 6, 21);
    let x_dense: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.01).sin()).collect();
    let x_sparse = SparseVec::from_dense(&x_dense, 0.0);
    let dense = csr_spmv(&a, &x_dense);
    let sparse = spmspv(&a.to_csc(), &x_sparse);
    for (i, d) in dense.iter().enumerate() {
        assert!((sparse.get(i).unwrap_or(0.0) - d).abs() < 1e-9, "row {i}");
    }
}

#[test]
fn pagerank_with_pb_spmv_matches_the_csr_kernel() {
    let g = rmat_square(9, 8, 4).map_values(|_| 1.0);
    let pb = pagerank(
        &g,
        &PageRankConfig::default().with_engine(SpmvEngine::PropagationBlocking),
    );
    let csr = pagerank(
        &g,
        &PageRankConfig::default().with_engine(SpmvEngine::RowCsr),
    );
    assert!(pb.converged && csr.converged);
    let max_diff = pb
        .scores
        .iter()
        .zip(&csr.scores)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff < 1e-8);
    assert_eq!(pb.ranking()[..10], csr.ranking()[..10]);
}

#[test]
fn triangle_counting_via_masked_multiply_matches_the_graph_kernel() {
    // The graph kernel computes (A·A) ∘ A with a full multiply + filter; the
    // masked PB-SpGEMM entry point must reach the same triangle count.
    let g = rmat_square(8, 6, 17);
    let engine = SpGemm::pb();
    let expected = count_triangles(&g, &engine);

    let a = graph::triangles::to_simple_undirected(&g);
    let masked = multiply_masked(&a.to_csc(), &a, &a, &PbConfig::default());
    let total: f64 = masked.values().iter().sum();
    assert_eq!((total / 6.0).round() as u64, expected);
}

#[test]
fn markov_clustering_and_betweenness_run_end_to_end_on_standins() {
    let g = standin_scaled("scircuit", 0.002, 9).map_values(|v| v.abs() + 0.1);
    let clusters = markov_cluster(
        &g,
        &MclConfig {
            max_iterations: 20,
            ..MclConfig::default()
        },
    );
    assert_eq!(clusters.clusters.len(), g.nrows());
    assert!(clusters.num_clusters >= 1 && clusters.num_clusters <= g.nrows());

    let sources: Vec<usize> = (0..16).map(|k| (k * 31) % g.nrows()).collect();
    let bc = betweenness_centrality(&g, &sources, 8, &SpGemm::pb());
    assert_eq!(bc.len(), g.nrows());
    assert!(bc.iter().all(|&v| v >= 0.0 && v.is_finite()));
}

#[test]
fn binary_format_roundtrips_an_spgemm_result() {
    let a = erdos_renyi_square(8, 6, 2);
    let c = multiply(&a.to_csc(), &a, &PbConfig::default());
    let mut buffer = Vec::new();
    binfmt::write_csr_to(&mut buffer, &c).expect("in-memory serialisation cannot fail");
    let back: Csr<f64> = binfmt::read_csr_from(buffer.as_slice()).expect("roundtrip");
    assert!(reference::csr_exact_eq(&c, &back));
}
