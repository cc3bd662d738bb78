// Tests for the spectral embedding driver.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/graph.h"
#include "graph/laplacian.h"
#include "linalg/lanczos.h"
#include "model/assembly.h"
#include "spectral/embedding.h"
#include "util/status.h"

namespace specpart::spectral {
namespace {

graph::Graph path(std::size_t n) {
  std::vector<graph::Edge> edges;
  for (graph::NodeId i = 0; i + 1 < n; ++i)
    edges.push_back({i, static_cast<graph::NodeId>(i + 1), 1.0});
  return graph::Graph(n, edges);
}

TEST(Embedding, PathEigenvaluesKnown) {
  const std::size_t n = 16;
  EmbeddingOptions opts;
  opts.count = 4;
  const EigenBasis basis = compute_eigenbasis(path(n), opts);
  ASSERT_EQ(basis.dimension(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos(M_PI * static_cast<double>(k) /
                             static_cast<double>(n));
    EXPECT_NEAR(basis.values[k], expected, 1e-8) << "k=" << k;
  }
}

TEST(Embedding, SkipTrivialDropsConstantVector) {
  EmbeddingOptions opts;
  opts.count = 1;
  opts.skip_trivial = true;
  const EigenBasis basis = compute_eigenbasis(path(10), opts);
  ASSERT_EQ(basis.dimension(), 1u);
  EXPECT_GT(basis.values[0], 1e-6);  // lambda_2, not lambda_1 = 0
  // Fiedler vector of a path is monotone.
  const linalg::Vec f = basis.vectors.col(0);
  const bool increasing = f[1] > f[0];
  for (std::size_t i = 1; i < f.size(); ++i)
    EXPECT_EQ(f[i] > f[i - 1], increasing) << "position " << i;
}

TEST(Embedding, TraceIsSumOfAllEigenvalues) {
  const graph::Graph g = path(8);
  EmbeddingOptions opts;
  opts.count = 8;
  const EigenBasis basis = compute_eigenbasis(g, opts);
  double sum = 0.0;
  for (double v : basis.values) sum += v;
  EXPECT_NEAR(basis.laplacian_trace, sum, 1e-9);
  EXPECT_NEAR(basis.laplacian_trace, 2.0 * g.total_edge_weight(), 1e-12);
}

TEST(Embedding, LanczosPathAgreesWithDense) {
  // Clique-model Laplacian of a degenerate netlist: a 0-pin net, 1-pin
  // nets, and vertex 9 appearing only in a 1-pin net, so the Laplacian
  // has an empty row and a 2-dimensional kernel.
  const graph::Hypergraph degenerate(10, {{},
                                          {3},
                                          {9},
                                          {0, 1, 2, 3},
                                          {2, 3, 4, 5},
                                          {4, 5, 6, 7, 8},
                                          {0, 6, 7},
                                          {1, 8}});
  const linalg::SymCsrMatrix inputs[] = {
      graph::build_laplacian(path(200)),
      model::build_clique_laplacian(degenerate, model::NetModel::kStandard)};
  for (const linalg::SymCsrMatrix& q : inputs) {
    SCOPED_TRACE(q.size());
    // Force the sparse path by setting a tiny dense threshold.
    EmbeddingOptions dense_opts;
    dense_opts.count = 5;
    dense_opts.solver.dense_threshold = 1000;
    EmbeddingOptions sparse_opts = dense_opts;
    sparse_opts.solver.dense_threshold = 0;
    const EigenBasis a = compute_eigenbasis(q, dense_opts);
    const EigenBasis b = compute_eigenbasis(q, sparse_opts);
    ASSERT_TRUE(b.converged);
    ASSERT_EQ(b.dimension(), 5u);
    for (std::size_t j = 0; j < 5; ++j)
      EXPECT_NEAR(a.values[j], b.values[j], 1e-6) << "pair " << j;
  }
}

TEST(Embedding, SolveCountersMatchTheLanczosRun) {
  const graph::Graph g = path(200);
  EmbeddingOptions opts;
  opts.count = 5;
  opts.solver.dense_threshold = 0;
  Diagnostics diag;
  const EigenBasis basis = compute_eigenbasis(g, opts, &diag);
  ASSERT_TRUE(basis.converged);
  ASSERT_EQ(diag.total_fallbacks(), 0u);

  // One clean attempt: the counters are exactly that Lanczos run's.
  linalg::LanczosOptions direct;
  direct.num_eigenpairs = opts.count;
  direct.seed = opts.seed;
  direct.tolerance = opts.solver.tolerance;
  const linalg::LanczosResult r =
      linalg::lanczos_smallest(graph::build_laplacian(g), direct);
  EXPECT_GT(r.ritz_checks, 0u);
  EXPECT_EQ(diag.counter("eigensolve", "krylov_dim"), r.iterations);
  EXPECT_EQ(diag.counter("eigensolve", "ritz_checks"), r.ritz_checks);
  EXPECT_EQ(diag.counter("eigensolve", "flops"), r.flops);
}

TEST(Embedding, CountClampedToN) {
  EmbeddingOptions opts;
  opts.count = 100;
  const EigenBasis basis = compute_eigenbasis(path(6), opts);
  EXPECT_EQ(basis.dimension(), 6u);
}

TEST(Embedding, VectorsAreUnitNorm) {
  EmbeddingOptions opts;
  opts.count = 3;
  const EigenBasis basis = compute_eigenbasis(path(30), opts);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(linalg::norm(basis.vectors.col(j)), 1.0, 1e-9);
}

}  // namespace
}  // namespace specpart::spectral
