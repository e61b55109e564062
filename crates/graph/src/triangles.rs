//! Triangle counting and clustering coefficients.
//!
//! The classic SpGEMM formulation (Azad, Buluç, Gilbert — reference \[2\] of
//! the paper): for an undirected simple graph with 0/1 adjacency matrix `A`,
//! the entry `(A·A)(i, j)` counts the common neighbours of `i` and `j`, so
//!
//! ```text
//! #triangles = Σ_{(i,j) ∈ E} (A·A)(i, j) / 6
//! ```
//!
//! (each triangle is counted once per directed edge, i.e. six times).  The
//! per-vertex count divides by two instead, and the local clustering
//! coefficient normalises by the number of wedges centred at the vertex.

use pb_sparse::{ops, Csr};

use pb_spgemm::SpGemm;

/// Canonicalises an arbitrary sparse matrix into a simple undirected 0/1
/// adjacency matrix: symmetrised pattern, no self loops, unit values.
///
/// Exposed because betweenness centrality, and callers that build the
/// masked product `(A·A) ∘ A` themselves, need the same canonical form.
pub fn to_simple_undirected<T: pb_sparse::Scalar>(a: &Csr<T>) -> Csr<f64> {
    assert_eq!(
        a.nrows(),
        a.ncols(),
        "graph kernels need a square adjacency matrix"
    );
    let ones = a.map_values(|_| 1.0f64);
    let sym = ops::add(&ones, &ones.transpose());
    ops::remove_diagonal(&sym).map_values(|_| 1.0)
}

/// The masked common-neighbour matrix `(A·A) ∘ A` for a simple undirected
/// adjacency matrix, computed with the given engine's masked multiply (PB
/// drops the unmasked entries before assembly).
fn common_neighbours(a: &Csr<f64>, engine: &SpGemm) -> Csr<f64> {
    engine.mask(a).multiply(a, a)
}

/// Total number of triangles in the graph whose (possibly directed, possibly
/// weighted) adjacency matrix is `adjacency`.  The matrix is symmetrised and
/// self loops are dropped before counting.
pub fn count_triangles<T: pb_sparse::Scalar>(adjacency: &Csr<T>, engine: &SpGemm) -> u64 {
    crate::Triangles::new()
        .engine(engine.clone())
        .run(adjacency)
}

pub(crate) fn count_triangles_impl<T: pb_sparse::Scalar>(
    adjacency: &Csr<T>,
    engine: &SpGemm,
) -> u64 {
    let a = to_simple_undirected(adjacency);
    let masked = common_neighbours(&a, engine);
    let total: f64 = masked.values().iter().sum();
    (total / 6.0).round() as u64
}

/// Number of triangles incident to every vertex.
pub fn triangle_counts_per_vertex<T: pb_sparse::Scalar>(
    adjacency: &Csr<T>,
    engine: &SpGemm,
) -> Vec<u64> {
    crate::Triangles::new()
        .engine(engine.clone())
        .per_vertex(adjacency)
}

pub(crate) fn triangle_counts_per_vertex_impl<T: pb_sparse::Scalar>(
    adjacency: &Csr<T>,
    engine: &SpGemm,
) -> Vec<u64> {
    let a = to_simple_undirected(adjacency);
    let masked = common_neighbours(&a, engine);
    ops::row_sums(&masked)
        .into_iter()
        .map(|s: f64| (s / 2.0).round() as u64)
        .collect()
}

/// Local clustering coefficient of every vertex: the fraction of wedges
/// centred at the vertex that close into a triangle (`0` for vertices of
/// degree < 2), plus the graph's global triangle count.
pub fn clustering_coefficients<T: pb_sparse::Scalar>(
    adjacency: &Csr<T>,
    engine: &SpGemm,
) -> (Vec<f64>, u64) {
    crate::Triangles::new()
        .engine(engine.clone())
        .clustering_coefficients(adjacency)
}

pub(crate) fn clustering_coefficients_impl<T: pb_sparse::Scalar>(
    adjacency: &Csr<T>,
    engine: &SpGemm,
) -> (Vec<f64>, u64) {
    let a = to_simple_undirected(adjacency);
    let masked = common_neighbours(&a, engine);
    let per_vertex: Vec<f64> = ops::row_sums(&masked)
        .into_iter()
        .map(|s: f64| s / 2.0)
        .collect();
    let coefficients: Vec<f64> = (0..a.nrows())
        .map(|v| {
            let deg = a.row_nnz(v) as f64;
            let wedges = deg * (deg - 1.0) / 2.0;
            if wedges > 0.0 {
                per_vertex[v] / wedges
            } else {
                0.0
            }
        })
        .collect();
    let total = (per_vertex.iter().sum::<f64>() / 3.0).round() as u64;
    (coefficients, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_gen::{erdos_renyi_square, rmat_square};
    use pb_sparse::Coo;

    /// O(n³) brute-force triangle count on the canonicalised graph.
    fn brute_force(adjacency: &Csr<f64>) -> u64 {
        let a = to_simple_undirected(adjacency);
        let n = a.nrows();
        let mut count = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                if a.get(i, j).is_none() {
                    continue;
                }
                for k in (j + 1)..n {
                    if a.get(i, k).is_some() && a.get(j, k).is_some() {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    fn triangle_graph() -> Csr<f64> {
        // Two triangles sharing the edge (1, 2), plus a pendant vertex 4.
        Coo::from_entries(
            5,
            5,
            vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (0, 2, 1.0),
                (1, 3, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
            ],
        )
        .unwrap()
        .to_csr()
    }

    #[test]
    fn counts_a_hand_built_graph() {
        let g = triangle_graph();
        assert_eq!(count_triangles(&g, &SpGemm::pb()), 2);
        let per_vertex = triangle_counts_per_vertex(&g, &SpGemm::pb());
        assert_eq!(per_vertex, vec![1, 2, 2, 1, 0]);
    }

    #[test]
    fn clustering_coefficients_of_the_hand_built_graph() {
        let g = triangle_graph();
        let (cc, total) = clustering_coefficients(&g, &SpGemm::pb());
        assert_eq!(total, 2);
        // Vertex 0 has degree 2 and one triangle: coefficient 1.
        assert!((cc[0] - 1.0).abs() < 1e-12);
        // Vertex 1 has degree 3 (0, 2, 3) and two triangles out of three wedges.
        assert!((cc[1] - 2.0 / 3.0).abs() < 1e-12);
        // The pendant vertex has no wedge.
        assert_eq!(cc[4], 0.0);
    }

    #[test]
    fn complete_graph_has_n_choose_3_triangles() {
        let n = 8usize;
        let mut entries = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    entries.push((i, j, 1.0));
                }
            }
        }
        let g = Coo::from_entries(n, n, entries).unwrap().to_csr();
        assert_eq!(count_triangles(&g, &SpGemm::pb()), 56); // C(8,3)
    }

    #[test]
    fn triangle_free_graphs_count_zero() {
        // A star graph and a path have no triangles.
        let star = Coo::from_entries(5, 5, (1..5).map(|v| (0usize, v, 1.0)).collect::<Vec<_>>())
            .unwrap()
            .to_csr();
        assert_eq!(count_triangles(&star, &SpGemm::pb()), 0);
        let empty = Csr::<f64>::empty(10, 10);
        assert_eq!(count_triangles(&empty, &SpGemm::pb()), 0);
    }

    #[test]
    fn matches_brute_force_on_random_graphs_for_all_engines() {
        for seed in [1u64, 2, 3] {
            let g = erdos_renyi_square(5, 3, seed);
            let expected = brute_force(&g);
            for engine in SpGemm::paper_set() {
                assert_eq!(
                    count_triangles(&g, &engine),
                    expected,
                    "engine {} seed {seed}",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn directed_and_weighted_input_is_canonicalised() {
        // Same triangle described with directed edges and arbitrary weights.
        let g = Coo::from_entries(3, 3, vec![(0, 1, 7.5), (1, 2, -2.0), (2, 0, 0.25)])
            .unwrap()
            .to_csr();
        assert_eq!(count_triangles(&g, &SpGemm::pb()), 1);
        // Self loops must not create spurious triangles.
        let with_loops = Coo::from_entries(
            3,
            3,
            vec![(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
        )
        .unwrap()
        .to_csr();
        assert_eq!(count_triangles(&with_loops, &SpGemm::pb()), 1);
    }

    #[test]
    fn per_vertex_counts_sum_to_three_times_the_total() {
        let g = rmat_square(6, 6, 11);
        let total = count_triangles(&g, &SpGemm::pb());
        let per_vertex = triangle_counts_per_vertex(&g, &SpGemm::pb());
        assert_eq!(per_vertex.iter().sum::<u64>(), 3 * total);
    }
}
