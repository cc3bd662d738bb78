// Tests for the Lanczos eigensolver, validated against the exact dense
// solver on random graph Laplacians, including disconnected graphs
// (repeated zero eigenvalues exercise the invariant-subspace restart).
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
#include "linalg/objective.h"
#include "linalg/symmetric_eigen.h"
#include "model/clique_models.h"
#include "util/rng.h"

namespace specpart::linalg {
namespace {

/// Random connected graph Laplacian (spanning tree + extra random edges).
SymCsrMatrix random_laplacian(std::size_t n, std::size_t extra_edges,
                              std::uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::Edge> edges;
  for (std::size_t v = 1; v < n; ++v)
    edges.push_back({static_cast<graph::NodeId>(rng.next_below(v)),
                     static_cast<graph::NodeId>(v),
                     0.5 + rng.next_double()});
  for (std::size_t e = 0; e < extra_edges; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.next_below(n));
    const auto v = static_cast<graph::NodeId>(rng.next_below(n));
    if (u != v) edges.push_back({u, v, 0.5 + rng.next_double()});
  }
  return graph::build_laplacian(graph::Graph(n, edges));
}

TEST(Lanczos, MatchesDenseOnSmallLaplacian) {
  const SymCsrMatrix q = random_laplacian(40, 80, 1);
  LanczosOptions opts;
  opts.num_eigenpairs = 5;
  const LanczosResult r = lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  const EigenDecomposition exact = solve_symmetric_eigen(q.to_dense());
  for (std::size_t j = 0; j < 5; ++j)
    EXPECT_NEAR(r.values[j], exact.values[j], 1e-7) << "pair " << j;
}

TEST(Lanczos, FirstPairIsTrivial) {
  const SymCsrMatrix q = random_laplacian(60, 120, 2);
  LanczosOptions opts;
  opts.num_eigenpairs = 3;
  const LanczosResult r = lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.values[0], 0.0, 1e-8);
  // Trivial eigenvector is constant: all entries equal up to sign.
  const Vec v0 = r.vectors.col(0);
  for (std::size_t i = 1; i < v0.size(); ++i)
    EXPECT_NEAR(v0[i], v0[0], 1e-7);
}

TEST(Lanczos, ResidualsSmall) {
  const SymCsrMatrix q = random_laplacian(80, 160, 3);
  LanczosOptions opts;
  opts.num_eigenpairs = 6;
  const LanczosResult r = lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  for (std::size_t j = 0; j < 6; ++j) {
    const Vec v = r.vectors.col(j);
    Vec qv = q.matvec(v);
    axpy(-r.values[j], v, qv);
    EXPECT_LT(norm(qv), 1e-6 * q.gershgorin_upper()) << "pair " << j;
  }
}

TEST(Lanczos, VectorsOrthonormal) {
  const SymCsrMatrix q = random_laplacian(70, 140, 4);
  LanczosOptions opts;
  opts.num_eigenpairs = 8;
  const LanczosResult r = lanczos_smallest(q, opts);
  for (std::size_t a = 0; a < 8; ++a) {
    for (std::size_t b = a; b < 8; ++b) {
      const double g = dot(r.vectors.col(a), r.vectors.col(b));
      EXPECT_NEAR(g, a == b ? 1.0 : 0.0, 1e-7) << a << "," << b;
    }
  }
}

TEST(Lanczos, DisconnectedGraphRepeatedZeros) {
  // Two disjoint cliques: the Laplacian kernel is 2-dimensional.
  std::vector<graph::Edge> edges;
  for (graph::NodeId i = 0; i < 10; ++i)
    for (graph::NodeId j = i + 1; j < 10; ++j) edges.push_back({i, j, 1.0});
  for (graph::NodeId i = 10; i < 20; ++i)
    for (graph::NodeId j = i + 1; j < 20; ++j) edges.push_back({i, j, 1.0});
  const SymCsrMatrix q = graph::build_laplacian(graph::Graph(20, edges));
  LanczosOptions opts;
  opts.num_eigenpairs = 3;
  const LanczosResult r = lanczos_smallest(q, opts);
  EXPECT_NEAR(r.values[0], 0.0, 1e-8);
  EXPECT_NEAR(r.values[1], 0.0, 1e-8);
  EXPECT_NEAR(r.values[2], 10.0, 1e-6);  // K10 second eigenvalue = n = 10
}

TEST(Lanczos, WantMoreThanDimension) {
  const SymCsrMatrix q = random_laplacian(6, 5, 5);
  LanczosOptions opts;
  opts.num_eigenpairs = 10;  // clamped to n = 6
  const LanczosResult r = lanczos_smallest(q, opts);
  EXPECT_EQ(r.values.size(), 6u);
  const EigenDecomposition exact = solve_symmetric_eigen(q.to_dense());
  for (std::size_t j = 0; j < 6; ++j)
    EXPECT_NEAR(r.values[j], exact.values[j], 1e-7);
}

TEST(Lanczos, DeterministicForFixedSeed) {
  const SymCsrMatrix q = random_laplacian(50, 100, 6);
  LanczosOptions opts;
  opts.num_eigenpairs = 4;
  const LanczosResult a = lanczos_smallest(q, opts);
  const LanczosResult b = lanczos_smallest(q, opts);
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_DOUBLE_EQ(a.values[j], b.values[j]);
}

TEST(Lanczos, LargerGraphConverges) {
  const SymCsrMatrix q = random_laplacian(1200, 3600, 7);
  LanczosOptions opts;
  opts.num_eigenpairs = 10;
  const LanczosResult r = lanczos_smallest(q, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.values[0], 0.0, 1e-7);
  for (std::size_t j = 1; j < 10; ++j) {
    EXPECT_GT(r.values[j], -1e-9);
    EXPECT_GE(r.values[j] + 1e-9, r.values[j - 1]);
  }
}

/// Largest ||A x_j - theta_j x_j|| over the returned pairs, in units of
/// the solver's acceptance scale tolerance * Gershgorin bound.
double worst_residual_ratio(const SymCsrMatrix& q, const LanczosResult& r,
                            double tolerance) {
  double worst = 0.0;
  for (std::size_t j = 0; j < r.values.size(); ++j) {
    const Vec x = r.vectors.col(j);
    Vec qx = q.matvec(x);
    axpy(-r.values[j], x, qx);
    worst = std::max(worst, norm(qx) / (tolerance * q.gershgorin_upper()));
  }
  return worst;
}

TEST(LanczosFiltered, DisconnectedLaplacianMeetsResidualBound) {
  // Eighty identical components of 5 vertices: every eigenvalue, zero
  // included, is eightyfold, so p(A) has an eightyfold top eigenvalue and
  // a Krylov space from one start vector is invariant after at most 5
  // steps, which forces breakdown restarts in the probe and the filtered
  // run. Every returned pair must be an eigenpair of A to the acceptance
  // bound; here the restarts also find all ten copies of zero.
  constexpr std::size_t kParts = 80;
  constexpr std::size_t kSize = 5;
  Rng rng(11);
  std::vector<graph::Edge> component;
  for (std::size_t v = 1; v < kSize; ++v)
    component.push_back({static_cast<graph::NodeId>(rng.next_below(v)),
                         static_cast<graph::NodeId>(v),
                         0.5 + rng.next_double()});
  for (std::size_t e = 0; e < 2 * kSize; ++e) {
    const auto u = static_cast<graph::NodeId>(rng.next_below(kSize));
    const auto v = static_cast<graph::NodeId>(rng.next_below(kSize));
    if (u != v) component.push_back({u, v, 0.5 + rng.next_double()});
  }
  std::vector<graph::Edge> edges;
  for (std::size_t c = 0; c < kParts; ++c)
    for (const graph::Edge& e : component)
      edges.push_back({static_cast<graph::NodeId>(c * kSize + e.u),
                       static_cast<graph::NodeId>(c * kSize + e.v), e.weight});
  const SymCsrMatrix q =
      graph::build_laplacian(graph::Graph(kParts * kSize, edges));
  LanczosOptions opts;
  opts.num_eigenpairs = 10;
  const LanczosResult r = lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.values.size(), 10u);
  EXPECT_GT(r.breakdown_restarts, 0u);
  EXPECT_LE(worst_residual_ratio(q, r, opts.tolerance), 1.0);
  for (std::size_t j = 0; j < 10; ++j)
    EXPECT_NEAR(r.values[j], 0.0, 1e-8) << "pair " << j;
}

TEST(LanczosFiltered, StarGraphMeetsResidualBound) {
  // Star on 500 vertices: spectrum {0, 1 (498 times), 500}. The wanted
  // pairs sit in a 498-fold eigenvalue equal to the probe's cutoff Ritz
  // value, and the probe breaks down after three steps.
  constexpr std::size_t n = 500;
  std::vector<graph::Edge> edges;
  for (graph::NodeId v = 1; v < n; ++v) edges.push_back({0, v, 1.0});
  const SymCsrMatrix q = graph::build_laplacian(graph::Graph(n, edges));
  LanczosOptions opts;
  opts.num_eigenpairs = 6;
  const LanczosResult r = lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.values.size(), 6u);
  EXPECT_GT(r.breakdown_restarts, 0u);
  EXPECT_LE(worst_residual_ratio(q, r, opts.tolerance), 1.0);
  EXPECT_NEAR(r.values[0], 0.0, 1e-8);
  for (std::size_t j = 1; j < 6; ++j)
    EXPECT_NEAR(r.values[j], 1.0, 1e-8) << "pair " << j;
}

TEST(LanczosFiltered, JustAboveDenseThresholdMeetsResidualBound) {
  // n = SolverOptions::dense_threshold + 1, the smallest embedding solve
  // that reaches Lanczos.
  graph::GeneratorConfig cfg;
  cfg.num_modules = 321;
  cfg.num_nets = 321 + 321 / 4;
  cfg.num_clusters = 10;
  cfg.seed = 7;
  const SymCsrMatrix q = graph::build_laplacian(model::clique_expand(
      graph::generate_netlist(cfg), model::NetModel::kPartitioningSpecific));
  LanczosOptions opts;
  opts.num_eigenpairs = 11;
  opts.tolerance = 1e-8;
  const LanczosResult r = lanczos_smallest(q, opts);
  ASSERT_TRUE(r.converged);
  ASSERT_EQ(r.values.size(), 11u);
  EXPECT_LE(worst_residual_ratio(q, r, opts.tolerance), 1.0);
  const EigenDecomposition exact = solve_symmetric_eigen(q.to_dense());
  for (std::size_t j = 0; j < 11; ++j)
    EXPECT_NEAR(r.values[j], exact.values[j], 1e-7) << "pair " << j;
}

TEST(LanczosLargestOp, DiagonalOperator) {
  // B = diag(1..8): largest eigenpairs are 8, 7, 6.
  const std::size_t n = 8;
  auto apply = [](const Vec& x, Vec& y) {
    y.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      y[i] = static_cast<double>(i + 1) * x[i];
  };
  LanczosOptions opts;
  opts.num_eigenpairs = 3;
  const LanczosResult r = lanczos_largest_op(n, apply, 8.0, opts);
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_NEAR(r.values[0], 8.0, 1e-8);
  EXPECT_NEAR(r.values[1], 7.0, 1e-8);
  EXPECT_NEAR(r.values[2], 6.0, 1e-8);
}

/// One pinned lanczos_smallest run on a clique-model netlist Laplacian
/// (generate_netlist with n + n/4 nets, 10 planted clusters, seed 7).
struct PinnedSolve {
  std::size_t n;
  bool normalized;
  std::size_t pairs;
  std::size_t iterations;
  bool converged;
  std::size_t num_converged;
  std::size_t ritz_checks;
  std::size_t operator_applies;
};

// The convergence-check schedule and decision rule of the Chebyshev-
// filtered solve, pinned: filtered Krylov steps, Ritz checks (every 10
// steps) and operator applies (40 probe steps, 20 SpMVs per filtered step,
// `pairs` per Rayleigh-Ritz on A). Any change to the probe, the filter,
// when the solver checks or what it decides shows up here.
constexpr PinnedSolve kPinnedSolves[] = {
    {1000, false, 6, 40, true, 6, 4, 846},
    {1000, true, 11, 30, true, 11, 2, 651},
    {2000, false, 6, 60, true, 6, 6, 1246},
    {2000, true, 6, 20, true, 6, 2, 446},
};

TEST(LanczosPinned, IterationsAndConvergenceUnchanged) {
  for (const PinnedSolve& pin : kPinnedSolves) {
    graph::GeneratorConfig cfg;
    cfg.num_modules = pin.n;
    cfg.num_nets = pin.n + pin.n / 4;
    cfg.num_clusters = 10;
    cfg.seed = 7;
    SymCsrMatrix q = graph::build_laplacian(model::clique_expand(
        graph::generate_netlist(cfg), model::NetModel::kPartitioningSpecific));
    if (pin.normalized) q = normalized_laplacian(q);
    LanczosOptions opts;
    opts.num_eigenpairs = pin.pairs;
    const LanczosResult r = lanczos_smallest(q, opts);
    const std::string label =
        "n=" + std::to_string(pin.n) +
        (pin.normalized ? " normalized" : " unnormalized") +
        " pairs=" + std::to_string(pin.pairs);
    EXPECT_EQ(r.iterations, pin.iterations) << label;
    EXPECT_EQ(r.converged, pin.converged) << label;
    EXPECT_EQ(r.num_converged, pin.num_converged) << label;
    EXPECT_EQ(r.ritz_checks, pin.ritz_checks) << label;
    EXPECT_EQ(r.operator_applies, pin.operator_applies) << label;
    EXPECT_EQ(r.matrix_bytes_moved, r.operator_applies * q.stream_bytes())
        << label;
    EXPECT_EQ(r.values.size(), pin.pairs) << label;
  }
}

TEST(LanczosPinned, DoublingTheCapKeepsAConvergedRun) {
  // Fixed-seed Lanczos is prefix-deterministic: a run with a larger cap
  // builds the same Krylov basis step for step, and checks convergence at
  // every step the capped run checked (the automatic cap is a multiple of
  // 10 or n; the probe and the filter do not depend on the cap). So a run
  // that converges under its cap returns the same bits under twice that
  // cap. The embedding fallback chain's single retry rests on this.
  for (const PinnedSolve& pin : kPinnedSolves) {
    graph::GeneratorConfig cfg;
    cfg.num_modules = pin.n;
    cfg.num_nets = pin.n + pin.n / 4;
    cfg.num_clusters = 10;
    cfg.seed = 7;
    SymCsrMatrix q = graph::build_laplacian(model::clique_expand(
        graph::generate_netlist(cfg), model::NetModel::kPartitioningSpecific));
    if (pin.normalized) q = normalized_laplacian(q);
    const std::string label =
        "n=" + std::to_string(pin.n) +
        (pin.normalized ? " normalized" : " unnormalized") +
        " pairs=" + std::to_string(pin.pairs);
    LanczosOptions opts;
    opts.num_eigenpairs = pin.pairs;
    const LanczosResult capped = lanczos_smallest(q, opts);
    const std::size_t automatic_cap =
        std::min(pin.n, std::max<std::size_t>(20 * pin.pairs + 120, 200));
    opts.max_iterations = 2 * automatic_cap;
    const LanczosResult doubled = lanczos_smallest(q, opts);
    ASSERT_TRUE(capped.converged) << label;
    EXPECT_TRUE(doubled.converged) << label;
    EXPECT_EQ(doubled.iterations, capped.iterations) << label;
    EXPECT_EQ(doubled.ritz_checks, capped.ritz_checks) << label;
    EXPECT_EQ(doubled.num_converged, capped.num_converged) << label;
    ASSERT_EQ(doubled.values.size(), capped.values.size()) << label;
    for (std::size_t j = 0; j < capped.values.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(doubled.values[j]),
                std::bit_cast<std::uint64_t>(capped.values[j]))
          << label << " value " << j;
      for (std::size_t i = 0; i < q.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(doubled.vectors.at(i, j)),
                  std::bit_cast<std::uint64_t>(capped.vectors.at(i, j)))
            << label << " vector " << j << " row " << i;
    }
  }
}

}  // namespace
}  // namespace specpart::linalg
