// Tests for the spectral embedding driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/laplacian.h"
#include "linalg/lanczos.h"
#include "model/assembly.h"
#include "spectral/embedding.h"
#include "util/fault.h"
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
  direct.tolerance = linalg::kSolverTolerance;
  const linalg::LanczosResult r =
      linalg::lanczos_smallest(graph::build_laplacian(g), direct);
  EXPECT_GT(r.ritz_checks, 0u);
  EXPECT_EQ(diag.counter("eigensolve", "krylov_dim"), r.iterations);
  EXPECT_EQ(diag.counter("eigensolve", "ritz_checks"), r.ritz_checks);
  EXPECT_EQ(diag.counter("eigensolve", "flops"), r.flops);
  // Every SpMV is counted: 40 probe steps, 20 per filtered Krylov step and
  // 5 per Rayleigh-Ritz on A (one, at the accepting check).
  EXPECT_EQ(r.iterations, 30u);
  EXPECT_EQ(r.operator_applies, 40u + 20u * r.iterations + 5u);
  EXPECT_EQ(diag.counter("eigensolve", "matrix_bytes_moved"),
            r.operator_applies * graph::build_laplacian(g).stream_bytes());
}

/// Clique-model Laplacian of a generated netlist: n modules, n + n/4 nets,
/// 10 planted clusters, seed 7.
linalg::SymCsrMatrix netlist_laplacian(std::size_t n) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = n;
  cfg.num_nets = n + n / 4;
  cfg.num_clusters = 10;
  cfg.seed = 7;
  return model::build_clique_laplacian(
      graph::generate_netlist(cfg), model::NetModel::kPartitioningSpecific);
}

TEST(Embedding, ReseededRetryIsOneDoubledLanczosRun) {
#ifndef SPECPART_FAULT_INJECTION
  GTEST_SKIP() << "fault injection compiled out";
#endif
  // The filtered solver converges on these instances at the first attempt,
  // so an armed "lanczos.force_nonconverge" fault fails the first attempt
  // instead: it runs to its automatic cap M. The fallback chain's one
  // retry must return exactly what a direct run with the reseeded seed and
  // cap min(n, 2M) returns, bit for bit, at a cost of M + c Krylov
  // columns, where c is the step at which the retry converges.
  struct Case {
    std::size_t n;
    std::size_t count;
    std::size_t first_cap;     // M = min(n, max(20 * count + 120, 200))
    std::size_t converged_at;  // c
  };
  constexpr Case kCases[] = {{1500, 6, 240, 50}, {2000, 11, 340, 100}};
  for (const Case& c : kCases) {
    SCOPED_TRACE("n=" + std::to_string(c.n));
    fault::ScopedFaults guard;
    const linalg::SymCsrMatrix q = netlist_laplacian(c.n);
    EmbeddingOptions opts;
    opts.count = c.count;
    opts.seed = 0x3E10ULL;
    opts.parallel = ParallelConfig::with_threads(1);

    linalg::LanczosOptions direct;
    direct.num_eigenpairs = c.count;
    direct.tolerance = linalg::kSolverTolerance;
    direct.parallel = opts.parallel;
    direct.seed = opts.seed;
    fault::arm("lanczos.force_nonconverge", 1);
    const linalg::LanczosResult first = linalg::lanczos_smallest(q, direct);
    ASSERT_FALSE(first.converged);
    ASSERT_EQ(first.iterations, c.first_cap);

    direct.seed = opts.seed * 0x9E3779B97F4A7C15ULL + 1;
    direct.max_iterations = std::min(c.n, 2 * c.first_cap);
    const linalg::LanczosResult retry = linalg::lanczos_smallest(q, direct);
    ASSERT_TRUE(retry.converged);
    EXPECT_EQ(retry.iterations, c.converged_at);

    fault::arm("lanczos.force_nonconverge", 1);
    Diagnostics diag;
    const EigenBasis basis = compute_eigenbasis(q, opts, &diag);
    ASSERT_TRUE(basis.converged);
    ASSERT_EQ(basis.values.size(), retry.values.size());
    for (std::size_t j = 0; j < basis.values.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(basis.values[j]),
                std::bit_cast<std::uint64_t>(retry.values[j]))
          << "value " << j;
      for (std::size_t i = 0; i < c.n; ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(basis.vectors.at(i, j)),
                  std::bit_cast<std::uint64_t>(retry.vectors.at(i, j)))
            << "vector " << j << " row " << i;
    }
    EXPECT_EQ(diag.total_fallbacks(), 1u);
    EXPECT_EQ(diag.counter("eigensolve", "krylov_dim"),
              c.first_cap + c.converged_at);
    EXPECT_EQ(diag.counter("eigensolve", "ritz_checks"),
              first.ritz_checks + retry.ritz_checks);
    EXPECT_EQ(diag.counter("eigensolve", "flops"), first.flops + retry.flops);
  }
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
