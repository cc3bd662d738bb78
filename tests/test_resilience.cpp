// Resilience tests: injected eigensolver failures, degenerate spectra and
// exhausted compute budgets must all degrade into a valid, balanced
// partition with the recovery recorded in Diagnostics — no crash, no
// silent empty result.
//
// The fault-injection tests need the library built with the (default-ON)
// CMake option SPECPART_FAULT_INJECTION; they skip themselves when the
// hooks were compiled out.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/drivers.h"
#include "graph/generator.h"
#include "graph/laplacian.h"
#include "linalg/lanczos.h"
#include "model/clique_models.h"
#include "part/fm.h"
#include "part/objectives.h"
#include "part/ordering.h"
#include "part/report.h"
#include "spectral/embedding.h"
#include "util/budget.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/timer.h"

namespace specpart {
namespace {

graph::Hypergraph test_netlist(std::size_t n, std::uint64_t seed) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = n;
  cfg.num_nets = n + n / 2;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

bool has_event(const Diagnostics& diag, const std::string& needle) {
  for (const DiagnosticEvent& e : diag.events())
    if (e.message.find(needle) != std::string::npos) return true;
  return false;
}

double stage_seconds(const Diagnostics& diag, const std::string& name) {
  for (const StageStats& s : diag.stages())
    if (s.name == name) return s.seconds;
  return -1.0;
}

void expect_valid_balanced(const graph::Hypergraph& h,
                           const core::MeloBipartitionResult& r,
                           double min_fraction) {
  const std::size_t n = h.num_nodes();
  EXPECT_TRUE(part::is_permutation(r.ordering, n));
  ASSERT_EQ(r.partition.num_nodes(), n);
  ASSERT_EQ(r.partition.k(), 2u);
  const double floor_size = min_fraction * static_cast<double>(n);
  EXPECT_GE(static_cast<double>(r.partition.cluster_size(0)), floor_size);
  EXPECT_GE(static_cast<double>(r.partition.cluster_size(1)), floor_size);
  // The reported cut must match an independent recount — no silent junk.
  EXPECT_DOUBLE_EQ(r.cut, part::cut_nets(h, r.partition));
}

// --- Diagnostics on a healthy run -------------------------------------------

TEST(Resilience, CleanRunReportsTimingsAndZeroFallbacks) {
  const graph::Hypergraph h = test_netlist(60, 11);
  Diagnostics diag;
  core::MeloOptions m;
  m.num_eigenvectors = 6;
  m.diagnostics = &diag;
  const auto r = core::melo_bipartition(h, m, 0.45);
  expect_valid_balanced(h, r, 0.45);
  EXPECT_EQ(diag.status(), StatusCode::kOk);
  EXPECT_EQ(diag.total_fallbacks(), 0u);
  EXPECT_FALSE(r.budget_exhausted);
  EXPECT_TRUE(r.eigen_converged);
  EXPECT_EQ(r.eigenvectors_used, 6u);
  // Every pipeline stage reports a wall-clock timing.
  EXPECT_GE(stage_seconds(diag, "model"), 0.0);
  EXPECT_GE(stage_seconds(diag, "eigensolve"), 0.0);
  EXPECT_GE(stage_seconds(diag, "ordering"), 0.0);
  EXPECT_GE(stage_seconds(diag, "split"), 0.0);
}

TEST(Resilience, StatusCodeNames) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "ok");
  EXPECT_STREQ(status_code_name(StatusCode::kDegraded), "degraded");
  EXPECT_STREQ(status_code_name(StatusCode::kBudgetExhausted),
               "budget_exhausted");
}

// --- Injected eigensolver failures ------------------------------------------

#ifdef SPECPART_FAULT_INJECTION
constexpr bool kFaultsCompiled = true;
#else
constexpr bool kFaultsCompiled = false;
#endif

TEST(Resilience, ForcedBreakdownRecoversWithRestart) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  const graph::Hypergraph h = test_netlist(60, 12);
  fault::arm("lanczos.force_breakdown", 3);
  Diagnostics diag;
  core::MeloOptions m;
  m.num_eigenvectors = 5;
  m.solver.dense_threshold = 8;  // force the Lanczos path on this small instance
  m.diagnostics = &diag;
  const auto r = core::melo_bipartition(h, m, 0.45);
  expect_valid_balanced(h, r, 0.45);
  EXPECT_GE(fault::triggered("lanczos.force_breakdown"), 1u);
  EXPECT_TRUE(has_event(diag, "breakdown"));
  EXPECT_GE(diag.stage_fallbacks("eigensolve"), 1u);
}

TEST(Resilience, ForcedNonConvergenceWalksFallbackChain) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  const graph::Hypergraph h = test_netlist(60, 13);
  // The first attempt fails; the reseeded retry in the doubled Krylov
  // space runs clean and converges.
  fault::arm("lanczos.force_nonconverge", 1);
  Diagnostics diag;
  core::MeloOptions m;
  m.num_eigenvectors = 5;
  m.solver.dense_threshold = 8;
  m.diagnostics = &diag;
  const auto r = core::melo_bipartition(h, m, 0.45);
  expect_valid_balanced(h, r, 0.45);
  EXPECT_TRUE(has_event(diag, "reseeded retry in a 60-column Krylov space"));
  EXPECT_EQ(diag.stage_fallbacks("eigensolve"), 1u);
  EXPECT_TRUE(r.eigen_converged);
  EXPECT_EQ(diag.status(), StatusCode::kDegraded);
}

TEST(Resilience, PersistentNonConvergenceFallsBackToDense) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  const graph::Hypergraph h = test_netlist(60, 14);
  fault::arm("lanczos.force_nonconverge", 100);  // defeat every attempt
  Diagnostics diag;
  core::MeloOptions m;
  m.num_eigenvectors = 5;
  m.solver.dense_threshold = 8;
  m.diagnostics = &diag;
  const auto r = core::melo_bipartition(h, m, 0.45);
  expect_valid_balanced(h, r, 0.45);
  EXPECT_TRUE(has_event(diag, "dense eigensolver fallback"));
  EXPECT_TRUE(r.eigen_converged);  // the dense solve is exact
  EXPECT_EQ(r.eigenvectors_used, 5u);
  EXPECT_EQ(diag.status(), StatusCode::kDegraded);
}

TEST(Resilience, SolveCountersSumOverFallbackAttempts) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  const graph::Hypergraph h = test_netlist(60, 14);
  const linalg::SymCsrMatrix q = graph::build_laplacian(
      model::clique_expand(h, model::NetModel::kPartitioningSpecific));
  fault::arm("lanczos.force_nonconverge", 100);  // defeat every attempt
  spectral::EmbeddingOptions opts;
  opts.count = 5;
  opts.solver.dense_threshold = 8;
  Diagnostics diag;
  const spectral::EigenBasis basis =
      spectral::compute_eigenbasis(q, opts, &diag);
  EXPECT_TRUE(has_event(diag, "dense eigensolver fallback"));
  EXPECT_TRUE(basis.converged);
  // The first attempt and the reseeded retry each run to the whole space
  // (m = n = 60) and check at m = 10, 20, ..., 60; the dense fallback adds
  // neither Krylov columns nor checks.
  EXPECT_EQ(diag.counter("eigensolve", "krylov_dim"), 2u * 60u);
  EXPECT_EQ(diag.counter("eigensolve", "ritz_checks"), 2u * 6u);
}

TEST(Resilience, TruncationToConvergedPrefix) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  const graph::Hypergraph h = test_netlist(60, 15);
  const graph::Graph g = model::clique_expand(
      h, model::NetModel::kPartitioningSpecific);
  fault::arm("lanczos.force_nonconverge", 100);
  Diagnostics diag;
  spectral::EmbeddingOptions eopts;
  eopts.count = 6;
  eopts.solver.dense_threshold = 8;
  eopts.solver.dense_fallback_limit = 0;  // terminal recovery is truncation
  const auto basis = spectral::compute_eigenbasis(g, eopts, &diag);
  EXPECT_TRUE(basis.truncated);
  EXPECT_LT(basis.dimension(), basis.requested);
  EXPECT_GE(basis.dimension(), 1u);
  EXPECT_TRUE(has_event(diag, "truncated eigenbasis"));
  EXPECT_EQ(diag.status(), StatusCode::kDegraded);
}

TEST(Resilience, TruncatedBasisDegradesDEndToEnd) {
  if (!kFaultsCompiled) GTEST_SKIP() << "fault injection compiled out";
  fault::ScopedFaults guard;
  const graph::Hypergraph h = test_netlist(60, 16);
  fault::arm("lanczos.force_nonconverge", 100);
  Diagnostics diag;
  core::MeloOptions m;
  m.num_eigenvectors = 6;
  m.solver.dense_threshold = 8;
  m.solver.dense_fallback_limit = 0;  // no dense rescue: d must degrade instead
  m.diagnostics = &diag;
  const auto r = core::melo_bipartition(h, m, 0.45);
  expect_valid_balanced(h, r, 0.45);
  EXPECT_LT(r.eigenvectors_used, 6u);
  EXPECT_GE(r.eigenvectors_used, 1u);
  EXPECT_TRUE(has_event(diag, "degraded d"));
  EXPECT_NE(diag.status(), StatusCode::kOk);
}

TEST(Resilience, ClusteredSpectrumCompleteGraph) {
  // K_n via a single all-vertex net: Laplacian eigenvalues {0, n, .., n} —
  // maximal clustering. The Lanczos path must handle the invariant
  // subspaces (breakdown restarts) and still produce a balanced split.
  std::vector<std::vector<graph::NodeId>> nets = {{}};
  for (graph::NodeId v = 0; v < 30; ++v) nets[0].push_back(v);
  for (graph::NodeId v = 0; v + 1 < 30; ++v) nets.push_back({v, v + 1});
  const graph::Hypergraph h(30, std::move(nets));
  Diagnostics diag;
  core::MeloOptions m;
  m.num_eigenvectors = 5;
  m.solver.dense_threshold = 8;
  m.diagnostics = &diag;
  const auto r = core::melo_bipartition(h, m, 0.45);
  expect_valid_balanced(h, r, 0.45);
}

// --- Compute budgets ---------------------------------------------------------

TEST(Resilience, ExpiredDeadlineReturnsBestSoFarPartition) {
  const graph::Hypergraph h = test_netlist(100, 17);
  ComputeBudget budget = ComputeBudget::with_deadline(0.0);
  Diagnostics diag;
  core::MeloOptions m;
  m.num_eigenvectors = 6;
  m.solver.dense_threshold = 8;  // Lanczos path: the budget bites mid-eigensolve
  m.num_starts = 3;
  m.diagnostics = &diag;
  m.budget = &budget;
  const auto r = core::melo_bipartition(h, m, 0.45);
  expect_valid_balanced(h, r, 0.45);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(diag.status(), StatusCode::kBudgetExhausted);
}

TEST(Resilience, ExpiredDeadlineBoundsMultiwaySplit) {
  // k = 8 DP-RP at n = 4000 sweeps ~8M segment extensions unbudgeted; an
  // expired deadline must stop it at the first start position and still
  // return a valid 8-way partition (the equal-length contiguous split).
  const std::size_t n = 4000;
  const graph::Hypergraph h = test_netlist(n, 21);
  ComputeBudget budget = ComputeBudget::with_deadline(0.0);
  Diagnostics diag;
  core::MeloOptions m;
  m.diagnostics = &diag;
  m.budget = &budget;
  const Timer timer;
  const auto r = core::melo_multiway(h, 8, m);
  EXPECT_LT(timer.seconds(), 1.0);  // deadline 0 + slack for valid output
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(diag.status(), StatusCode::kBudgetExhausted);
  ASSERT_EQ(r.partition.num_nodes(), n);
  ASSERT_EQ(r.partition.k(), 8u);
  for (std::uint32_t c = 0; c < 8; ++c)
    EXPECT_EQ(r.partition.cluster_size(c), n / 8);
  EXPECT_EQ(r.scaled_cost, part::scaled_cost(h, r.partition));
  EXPECT_EQ(diag.counter("split", "dprp_relaxations"), 0u);
  EXPECT_EQ(diag.counter("split", "dprp_sweep_steps"), 0u);
}

TEST(Resilience, IterationBudgetBoundsLanczos) {
  const graph::Hypergraph h = test_netlist(120, 18);
  const graph::Graph g = model::clique_expand(
      h, model::NetModel::kPartitioningSpecific);
  const linalg::SymCsrMatrix q = graph::build_laplacian(g);
  ComputeBudget budget = ComputeBudget::with_max_iterations(5);
  linalg::LanczosOptions lopts;
  lopts.num_eigenpairs = 8;
  lopts.budget = &budget;
  const auto r = linalg::lanczos_smallest(q, lopts);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_LE(r.iterations, 6u);
  // The charge unit is one filtered Krylov step (20 SpMVs); the probe
  // before the filtered run is a fixed 40 SpMVs and is not charged.
  EXPECT_EQ(budget.iterations_used(), r.iterations);
  EXPECT_GE(r.values.size(), 1u);  // best-so-far pairs, never empty
  EXPECT_FALSE(r.converged);
}

TEST(Resilience, DeadlineBoundsLargeFilteredSolve) {
  // An n=5000 unnormalized solve takes several times the deadline. The
  // filtered run polls the budget once per Krylov step, so the call
  // returns within the deadline plus one step and the closing
  // Rayleigh-Ritz, with usable best-so-far pairs.
  graph::GeneratorConfig cfg;
  cfg.num_modules = 5000;
  cfg.num_nets = 5000 + 5000 / 4;
  cfg.num_clusters = 10;
  cfg.seed = 7;
  const linalg::SymCsrMatrix q = graph::build_laplacian(model::clique_expand(
      graph::generate_netlist(cfg), model::NetModel::kPartitioningSpecific));
  constexpr double kDeadline = 0.05;
  ComputeBudget budget = ComputeBudget::with_deadline(kDeadline);
  linalg::LanczosOptions lopts;
  lopts.num_eigenpairs = 11;
  lopts.tolerance = linalg::kSolverTolerance;
  lopts.budget = &budget;
  const Timer timer;
  const auto r = linalg::lanczos_smallest(q, lopts);
  EXPECT_LT(timer.seconds(), kDeadline + 1.0);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_FALSE(r.converged);
  ASSERT_GE(r.values.size(), 1u);
  const linalg::Vec x = r.vectors.col(0);
  EXPECT_NEAR(linalg::norm(x), 1.0, 1e-12);
  EXPECT_NEAR(r.values[0], linalg::dot(x, q.matvec(x)), 1e-9);
}

TEST(Resilience, BudgetedFmStaysBalanced) {
  const graph::Hypergraph h = test_netlist(80, 19);
  ComputeBudget budget = ComputeBudget::with_deadline(0.0);
  part::FmOptions opts;
  opts.balance = {0.45, 0.55};
  opts.budget = &budget;
  const auto r = part::fm_bipartition(h, opts);
  EXPECT_TRUE(r.budget_exhausted);
  ASSERT_EQ(r.partition.num_nodes(), 80u);
  const auto n0 = static_cast<double>(r.partition.cluster_size(0));
  EXPECT_GE(n0, 0.45 * 80.0 - 1.0);
  EXPECT_LE(n0, 0.55 * 80.0 + 1.0);
  EXPECT_DOUBLE_EQ(r.cut, part::cut_nets(h, r.partition));
}

TEST(Resilience, UnlimitedBudgetNeverExhausts) {
  ComputeBudget budget;
  EXPECT_TRUE(budget.unlimited());
  EXPECT_FALSE(budget.exhausted());
  EXPECT_TRUE(budget.charge(1000000));
}

// --- Solver provenance in reports -------------------------------------------

TEST(Resilience, ReportSurfacesSolverOutcome) {
  const graph::Hypergraph h = test_netlist(40, 20);
  Diagnostics diag;
  core::MeloOptions m;
  m.num_eigenvectors = 4;
  m.diagnostics = &diag;
  const auto r = core::melo_bipartition(h, m, 0.45);
  part::QualityReport qr = part::evaluate(h, r.partition);
  qr.solver.present = true;
  qr.solver.eigen_converged = r.eigen_converged;
  qr.solver.eigenvectors_requested = m.num_eigenvectors;
  qr.solver.eigenvectors_used = r.eigenvectors_used;
  qr.solver.budget_exhausted = r.budget_exhausted;
  qr.solver.fallbacks = diag.total_fallbacks();
  std::ostringstream out;
  part::print_report(qr, out);
  EXPECT_NE(out.str().find("eigensolver : converged"), std::string::npos);
}

}  // namespace
}  // namespace specpart
