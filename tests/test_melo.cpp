// Tests for the MELO greedy ordering and its end-to-end drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <tuple>

#include "core/drivers.h"
#include "core/melo.h"
#include "core/reduction.h"
#include "graph/generator.h"
#include "model/clique_models.h"
#include "part/objectives.h"
#include "spectral/embedding.h"
#include "spectral/sb.h"
#include "util/budget.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace specpart::core {
namespace {

VectorInstance make_instance(std::vector<std::vector<double>> rows) {
  VectorInstance inst;
  inst.vectors = linalg::DenseMatrix(rows.size(), rows[0].size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t j = 0; j < rows[i].size(); ++j)
      inst.vectors.at(i, j) = rows[i][j];
  return inst;
}

graph::Hypergraph planted(std::size_t modules, std::size_t clusters,
                          std::uint64_t seed, double p_local = 0.9) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = modules;
  cfg.num_nets = modules * 2;
  cfg.num_clusters = clusters;
  cfg.subclusters_per_cluster = 2;
  cfg.p_subcluster = p_local - 0.2;
  cfg.p_cluster = 0.2;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

TEST(MeloOrder, IsPermutationForAllSchemes) {
  const VectorInstance inst = make_instance(
      {{1, 0}, {0.9, 0.1}, {0, 1}, {-0.5, 0.5}, {0.2, -0.8}, {0.5, 0.5}});
  for (SelectionRule s : {SelectionRule::kMagnitude,
                          SelectionRule::kProjection,
                          SelectionRule::kCosine}) {
    MeloOrderingOptions opts;
    opts.selection = s;
    const part::Ordering o = melo_order_vectors(inst, opts);
    EXPECT_TRUE(part::is_permutation(o, 6)) << selection_rule_name(s);
  }
}

TEST(MeloOrder, StartsFromLongestVector) {
  const VectorInstance inst = make_instance({{1, 0}, {5, 0}, {2, 0}});
  const part::Ordering o = melo_order_vectors(inst, MeloOrderingOptions{});
  EXPECT_EQ(o.front(), 1u);
}

TEST(MeloOrder, StartRankPicksAlternateSeeds) {
  const VectorInstance inst = make_instance({{1, 0}, {5, 0}, {2, 0}});
  MeloOrderingOptions opts;
  opts.start_rank = 1;
  EXPECT_EQ(melo_order_vectors(inst, opts).front(), 2u);
  opts.start_rank = 2;
  EXPECT_EQ(melo_order_vectors(inst, opts).front(), 0u);
  opts.start_rank = 99;  // clamped to last
  EXPECT_EQ(melo_order_vectors(inst, opts).front(), 0u);
}

TEST(MeloOrder, MagnitudeSchemeGroupsAlignedVectors) {
  // Vectors split into +x and +y groups: greedy magnitude keeps growing in
  // one direction before crossing over.
  const VectorInstance inst = make_instance(
      {{1, 0}, {0, 1}, {1, 0.05}, {0.05, 1}, {1, -0.05}, {-0.05, 1}});
  const part::Ordering o = melo_order_vectors(inst, MeloOrderingOptions{});
  // First three selections must be one aligned group.
  std::set<graph::NodeId> first(o.begin(), o.begin() + 3);
  const std::set<graph::NodeId> x_group{0, 2, 4};
  const std::set<graph::NodeId> y_group{1, 3, 5};
  EXPECT_TRUE(first == x_group || first == y_group);
}

TEST(MeloOrder, ReadjustCallbackFiresOnce) {
  const VectorInstance inst = make_instance(
      {{1, 0}, {0.5, 0.5}, {0, 1}, {1, 1}, {0.3, 0.7}, {0.9, 0.2}});
  int calls = 0;
  MeloReadjust readjust;
  readjust.at = 3;
  readjust.rebuild = [&](const std::vector<graph::NodeId>& chosen) {
    ++calls;
    EXPECT_EQ(chosen.size(), 3u);
    return inst;  // identity rebuild
  };
  const part::Ordering o =
      melo_order_vectors(inst, MeloOrderingOptions{}, &readjust);
  EXPECT_TRUE(part::is_permutation(o, 6));
  EXPECT_EQ(calls, 1);
}

TEST(MeloOrder, DeterministicForSameInputs) {
  const graph::Hypergraph h = planted(80, 3, 5);
  MeloOptions opts;
  const auto a = melo_orderings(h, opts);
  const auto b = melo_orderings(h, opts);
  EXPECT_EQ(a[0].ordering, b[0].ordering);
}

// --- Certified scan against the exhaustive scan -----------------------------

/// Test-local copy of the exhaustive scan the certified scan replaced: every
/// unchosen key at every step, blocked (key, smallest-id) argmax. It is the
/// oracle the certified scan must match bit for bit.
part::Ordering exhaustive_melo(const VectorInstance& inst,
                               const MeloOrderingOptions& opts,
                               const MeloReadjust* readjust = nullptr) {
  const std::size_t n = inst.size();
  const std::size_t d = inst.dimension();
  std::vector<double> flat;
  std::vector<double> norms_sq(n);
  linalg::Vec sum(d, 0.0);
  double sum_norm_sq = 0.0;
  const auto row = [&](graph::NodeId v) { return flat.data() + v * d; };
  const auto load = [&](const VectorInstance& x) {
    flat.assign(x.vectors.data(), x.vectors.data() + n * d);
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < d; ++j) s += row(i)[j] * row(i)[j];
      norms_sq[i] = s;
    }
  };
  const auto key = [&](graph::NodeId v) {
    double s_dot_y = 0.0;
    for (std::size_t j = 0; j < d; ++j) s_dot_y += sum[j] * row(v)[j];
    const double y_sq = norms_sq[v];
    switch (opts.selection) {
      case SelectionRule::kMagnitude:
        return sum_norm_sq + 2.0 * s_dot_y + y_sq;
      case SelectionRule::kProjection:
        if (sum_norm_sq <= 1e-300) return y_sq;
        return s_dot_y;
      case SelectionRule::kCosine: {
        if (sum_norm_sq <= 1e-300) return y_sq;
        const double y_norm = std::sqrt(y_sq);
        if (y_norm <= 1e-300) return -std::numeric_limits<double>::infinity();
        return s_dot_y / y_norm;
      }
    }
    return 0.0;
  };
  load(inst);

  std::vector<char> chosen(n, 0);
  part::Ordering order;
  const auto take = [&](graph::NodeId v) {
    chosen[v] = 1;
    for (std::size_t j = 0; j < d; ++j) sum[j] += row(v)[j];
    sum_norm_sq = linalg::norm_sq(sum);
    order.push_back(v);
    if (readjust != nullptr && readjust->at != 0 &&
        order.size() == readjust->at && order.size() < n) {
      load(readjust->rebuild(order));
      sum.assign(d, 0.0);
      for (graph::NodeId u : order)
        for (std::size_t j = 0; j < d; ++j) sum[j] += row(u)[j];
      sum_norm_sq = linalg::norm_sq(sum);
    }
  };

  std::vector<graph::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  const std::size_t rank = std::min(opts.start_rank, n - 1);
  std::nth_element(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(rank),
                   ids.end(), [&](graph::NodeId a, graph::NodeId b) {
                     if (norms_sq[a] != norms_sq[b])
                       return norms_sq[a] > norms_sq[b];
                     return a < b;
                   });
  take(ids[rank]);

  ParallelConfig scan = opts.parallel;
  scan.grain = 256;
  while (order.size() < n) {
    if (!budget_charge(opts.budget)) {
      for (graph::NodeId v = 0; v < n; ++v)
        if (!chosen[v]) {
          chosen[v] = 1;
          order.push_back(v);
        }
      break;
    }
    const std::size_t best = parallel_argmax(
        scan, n,
        [&](std::size_t v) { return key(static_cast<graph::NodeId>(v)); },
        [&](std::size_t v) { return chosen[v] == 0; });
    take(static_cast<graph::NodeId>(best));
  }
  return order;
}

constexpr SelectionRule kRules[] = {SelectionRule::kMagnitude,
                                    SelectionRule::kProjection,
                                    SelectionRule::kCosine};

/// Random rows whose norms spread over two orders of magnitude, with a
/// shared drift so the greedy finds aligned groups (as on scaled
/// eigenvectors).
VectorInstance random_instance(std::size_t n, std::size_t d,
                               std::uint64_t seed) {
  Rng rng(seed);
  VectorInstance inst;
  inst.vectors = linalg::DenseMatrix(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = std::pow(10.0, 2.0 * rng.next_double() - 1.0);
    const double drift = (i % 3 == 0) ? 0.5 : -0.25;
    for (std::size_t j = 0; j < d; ++j)
      inst.vectors.at(i, j) =
          scale * (rng.next_normal() + (j == 0 ? drift : 0.0));
  }
  return inst;
}

/// H-readjust stand-in: rescales every column by its own factor, so row
/// norms and the subset sum both change at the reload.
MeloReadjust column_rescale(const VectorInstance& inst) {
  MeloReadjust r;
  r.at = inst.size() / 2;
  r.rebuild = [&inst](const std::vector<graph::NodeId>&) {
    VectorInstance out = inst;
    const std::size_t d = inst.dimension();
    for (std::size_t i = 0; i < inst.size(); ++i)
      for (std::size_t j = 0; j < d; ++j)
        out.vectors.at(i, j) *= 0.5 + 1.5 * static_cast<double>(j + 1) /
                                          static_cast<double>(d);
    return out;
  };
  return r;
}

/// Certified ordering == oracle ordering, for every rule, with and without
/// the readjust reload.
void expect_matches_exhaustive(const VectorInstance& inst,
                               MeloOrderingOptions opts = {}) {
  const MeloReadjust readjust = column_rescale(inst);
  for (SelectionRule rule : kRules) {
    opts.selection = rule;
    for (const MeloReadjust* r : {static_cast<const MeloReadjust*>(nullptr),
                                  &readjust}) {
      EXPECT_EQ(melo_order_vectors(inst, opts, r),
                exhaustive_melo(inst, opts, r))
          << selection_rule_name(rule) << (r ? " readjust" : "")
          << " n=" << inst.size() << " d=" << inst.dimension();
    }
  }
}

class MeloCertifiedScan
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(MeloCertifiedScan, MatchesExhaustiveScan) {
  const auto [n, d] = GetParam();
  const VectorInstance inst = random_instance(n, d, 1000 * n + d);
  expect_matches_exhaustive(inst);
  MeloOrderingOptions later_start;
  later_start.start_rank = 2;
  expect_matches_exhaustive(inst, later_start);
}

INSTANTIATE_TEST_SUITE_P(
    RandomRows, MeloCertifiedScan,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 50, 700, 3000),
                       ::testing::Values<std::size_t>(1, 3, 12, 20)));

TEST(MeloCertifiedScan, MatchesOnScaledEigenvectors) {
  const graph::Hypergraph h = planted(700, 6, 41);
  spectral::EmbeddingOptions eo;
  eo.count = 12;
  const spectral::EigenBasis basis = spectral::compute_eigenbasis(
      model::clique_expand(h, model::NetModel::kPartitioningSpecific), eo);
  for (CoordScaling sc : {CoordScaling::kSqrtGap, CoordScaling::kGap,
                          CoordScaling::kInvSqrtLambda, CoordScaling::kUnit}) {
    const double h0 = default_h(basis);
    const VectorInstance inst = build_scaled_instance(basis, sc, h0);
    MeloReadjust readjust;
    readjust.at = inst.size() / 2;
    readjust.rebuild = [&](const std::vector<graph::NodeId>&) {
      return build_scaled_instance(basis, sc, 1.7 * h0);
    };
    for (SelectionRule rule : kRules) {
      MeloOrderingOptions opts;
      opts.selection = rule;
      EXPECT_EQ(melo_order_vectors(inst, opts, &readjust),
                exhaustive_melo(inst, opts, &readjust))
          << coord_scaling_name(sc) << " " << selection_rule_name(rule);
    }
  }
}

TEST(MeloCertifiedScan, ExactTiesBreakTowardSmallestId) {
  // Duplicate rows: every copy has the same key, bit for bit.
  VectorInstance dup = random_instance(300, 4, 7);
  Rng rng(8);
  for (std::size_t i = 0; i < 300; ++i) {
    const std::size_t src = static_cast<std::size_t>(rng.next_below(20));
    for (std::size_t j = 0; j < 4; ++j)
      dup.vectors.at(i, j) = dup.vectors.at(src, j);
  }
  expect_matches_exhaustive(dup);
  // All rows equal: every step is a full tie.
  VectorInstance same = random_instance(200, 3, 9);
  for (std::size_t i = 0; i < 200; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      same.vectors.at(i, j) = same.vectors.at(0, j);
  expect_matches_exhaustive(same);
  // Small integer rows: every key is exact, so ties are frequent and the
  // bound is as tight as Cauchy-Schwarz allows.
  VectorInstance ints = random_instance(400, 2, 10);
  for (std::size_t i = 0; i < 400; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      ints.vectors.at(i, j) = static_cast<double>(rng.next_in(-2, 2));
  expect_matches_exhaustive(ints);
}

TEST(MeloCertifiedScan, ZeroRowsAndZeroNormVectorsUnderCosine) {
  // A third of the rows are zero: their cosine key is -inf, their other
  // keys tie; the last selections are all among them.
  VectorInstance inst = random_instance(240, 5, 11);
  for (std::size_t i = 0; i < 240; i += 3)
    for (std::size_t j = 0; j < 5; ++j) inst.vectors.at(i, j) = 0.0;
  expect_matches_exhaustive(inst);
  // Only zero rows, and one nonzero row among zeros.
  VectorInstance zeros = make_instance(std::vector<std::vector<double>>(
      40, std::vector<double>(3, 0.0)));
  expect_matches_exhaustive(zeros);
  zeros.vectors.at(17, 1) = 2.5;
  expect_matches_exhaustive(zeros);
}

TEST(MeloCertifiedScan, ExtremeCoordinateScales) {
  for (double scale : {1e150, 1e-150}) {
    for (std::size_t n : {50u, 700u}) {
      for (std::size_t d : {3u, 12u}) {
        VectorInstance inst = random_instance(n, d, 31 * n + d);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < d; ++j)
            inst.vectors.at(i, j) *= 0.1 * scale;
        expect_matches_exhaustive(inst);
      }
    }
  }
  // Rows of very different scales in one instance: products underflow for
  // the small rows while the subset sum is dominated by the large ones.
  VectorInstance mixed = random_instance(500, 6, 37);
  for (std::size_t i = 0; i < 500; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      mixed.vectors.at(i, j) *=
          (i % 4 == 0) ? 1e-150 : (i % 4 == 1 ? 1e-160 : 1.0);
  expect_matches_exhaustive(mixed);
}

TEST(MeloCertifiedScan, OverflowedCoordinates) {
  // Subset sums and products overflow: keys become +-inf and, under the
  // magnitude rule, NaN. The bound prunes nothing there, and the choice
  // still matches the exhaustive scan's.
  for (double scale : {1e154, 1e200}) {
    VectorInstance inst = random_instance(300, 4, 61);
    for (std::size_t i = 0; i < 300; ++i)
      for (std::size_t j = 0; j < 4; ++j) inst.vectors.at(i, j) *= scale;
    expect_matches_exhaustive(inst);
  }
}

TEST(MeloCertifiedScan, BudgetExpiringMidScan) {
  const VectorInstance inst = random_instance(700, 12, 43);
  const MeloReadjust readjust = column_rescale(inst);
  for (std::size_t limit : {1u, 5u, 200u, 500u}) {
    for (SelectionRule rule : kRules) {
      ComputeBudget mine = ComputeBudget::with_max_iterations(limit);
      ComputeBudget theirs = ComputeBudget::with_max_iterations(limit);
      MeloOrderingOptions opts;
      opts.selection = rule;
      opts.budget = &mine;
      const part::Ordering got = melo_order_vectors(inst, opts, &readjust);
      opts.budget = &theirs;
      EXPECT_EQ(got, exhaustive_melo(inst, opts, &readjust))
          << "limit " << limit << " " << selection_rule_name(rule);
      EXPECT_TRUE(part::is_permutation(got, inst.size()));
      EXPECT_EQ(mine.iterations_used(), theirs.iterations_used());
    }
  }
}

TEST(MeloCertifiedScan, IdenticalAtEveryThreadCount) {
  // 0 = the environment-chosen count (SPECPART_THREADS in the _mt run).
  const VectorInstance inst = random_instance(3000, 12, 47);
  const MeloReadjust readjust = column_rescale(inst);
  for (SelectionRule rule : kRules) {
    MeloOrderingOptions opts;
    opts.selection = rule;
    const part::Ordering reference = exhaustive_melo(inst, opts, &readjust);
    MeloScanStats first;
    for (std::size_t threads : {0u, 1u, 2u, 8u}) {
      MeloScanStats stats;
      opts.parallel = ParallelConfig::with_threads(threads);
      opts.stats = &stats;
      EXPECT_EQ(melo_order_vectors(inst, opts, &readjust), reference)
          << threads << " threads, " << selection_rule_name(rule);
      if (threads == 0) first = stats;
      EXPECT_EQ(stats.key_evals, first.key_evals);
      EXPECT_EQ(stats.snapshots, first.snapshots);
      EXPECT_EQ(stats.snapshot_rows, first.snapshot_rows);
    }
  }
}

TEST(MeloCertifiedScan, EvaluatesFewKeys) {
  const std::size_t n = 3000;
  const VectorInstance inst = random_instance(n, 12, 53);
  const double exhaustive = static_cast<double>(n) * (n - 1) / 2.0;
  for (SelectionRule rule : kRules) {
    MeloScanStats stats;
    MeloOrderingOptions opts;
    opts.selection = rule;
    opts.stats = &stats;
    melo_order_vectors(inst, opts);
    EXPECT_GT(stats.key_evals, n - 1) << selection_rule_name(rule);
    EXPECT_LT(static_cast<double>(stats.key_evals), 0.1 * exhaustive)
        << selection_rule_name(rule);
    EXPECT_GE(stats.snapshots, 1u);
    EXPECT_LT(static_cast<double>(stats.snapshot_rows), 0.2 * exhaustive)
        << selection_rule_name(rule);
  }
}

TEST(MeloDrivers, BipartitionValidAndBalanced) {
  const graph::Hypergraph h = planted(150, 2, 7);
  MeloOptions opts;
  const MeloBipartitionResult r = melo_bipartition(h, opts, 0.45);
  const std::size_t n = h.num_nodes();
  EXPECT_GE(r.partition.cluster_size(0), static_cast<std::size_t>(0.45 * n));
  EXPECT_GE(r.partition.cluster_size(1), static_cast<std::size_t>(0.45 * n));
  EXPECT_DOUBLE_EQ(r.cut, part::cut_nets(h, r.partition));
}

TEST(MeloDrivers, BeatsOrMatchesSbOnPlanted) {
  // The headline claim, in miniature: MELO (d = 10) should not lose to SB
  // on balanced (45-55%) min-cut bipartitioning. The advantage shows on
  // realistically noisy netlists (the suite's parameter regime), not on
  // tiny perfectly-separable toys where every method finds the same cut.
  graph::GeneratorConfig cfg;
  cfg.num_modules = 800;
  cfg.num_nets = 740;
  cfg.num_clusters = 6;
  cfg.subclusters_per_cluster = 3;
  cfg.seed = 0x1001;  // the suite's "balu"
  const graph::Hypergraph h = graph::generate_netlist(cfg);
  MeloOptions opts;
  opts.num_eigenvectors = 10;
  opts.num_starts = 3;
  const MeloBipartitionResult melo = melo_bipartition(h, opts, 0.45);
  spectral::SbOptions sb_opts;
  sb_opts.min_fraction = 0.45;
  const spectral::SbResult sb = spectral::spectral_bipartition(h, sb_opts);
  const double sb_cut = part::cut_nets(h, sb.partition);
  EXPECT_LE(melo.cut, sb_cut * 1.02 + 1e-12);
}

TEST(MeloDrivers, ScanCountersSumIntoDiagnostics) {
  const graph::Hypergraph h = planted(400, 4, 59);
  Diagnostics diag;
  MeloOptions opts;
  opts.diagnostics = &diag;
  const auto runs = melo_orderings(h, opts);
  MeloScanStats sum;
  for (const MeloOrderingRun& run : runs) sum += run.scan;
  EXPECT_GT(sum.key_evals, 0u);
  EXPECT_GT(sum.snapshots, 0u);
  EXPECT_EQ(diag.counter("ordering", "key_evals"), sum.key_evals);
  EXPECT_EQ(diag.counter("ordering", "snapshots"), sum.snapshots);
  EXPECT_EQ(diag.counter("ordering", "snapshot_rows"), sum.snapshot_rows);
  const double n = static_cast<double>(h.num_nodes());
  EXPECT_LT(static_cast<double>(sum.key_evals),
            static_cast<double>(runs.size()) * n * (n - 1) / 2.0);
}

TEST(MeloDrivers, MultiwayProducesKClusters) {
  const graph::Hypergraph h = planted(160, 4, 13);
  MeloOptions opts;
  for (std::uint32_t k : {2u, 4u, 6u}) {
    const MeloMultiwayResult r = melo_multiway(h, k, opts);
    EXPECT_EQ(r.partition.k(), k);
    EXPECT_EQ(r.partition.num_nonempty(), k);
    EXPECT_NEAR(r.scaled_cost, part::scaled_cost(h, r.partition), 1e-12);
  }
}

TEST(MeloDrivers, MultiStartNeverWorse) {
  const graph::Hypergraph h = planted(120, 3, 17);
  MeloOptions one;
  one.num_starts = 1;
  MeloOptions many = one;
  many.num_starts = 4;
  const double r1 = melo_bipartition(h, one).ratio_cut;
  const double r4 = melo_bipartition(h, many).ratio_cut;
  EXPECT_LE(r4, r1 + 1e-12);
}

TEST(MeloDrivers, HOverrideRespected) {
  const graph::Hypergraph h = planted(60, 2, 19);
  MeloOptions opts;
  opts.h_override = 1e6;  // enormous H: all coordinates scale up together
  const auto runs = melo_orderings(h, opts);
  EXPECT_DOUBLE_EQ(runs[0].h_initial, 1e6);
  EXPECT_DOUBLE_EQ(runs[0].h_final, 1e6);  // no readjustment with override
}

TEST(MeloDrivers, ReadjustChangesH) {
  const graph::Hypergraph h = planted(100, 2, 23);
  MeloOptions opts;
  opts.readjust_h = true;
  const auto runs = melo_orderings(h, opts);
  // h_final was recomputed (readjusted_h rarely equals the a-priori mean).
  EXPECT_NE(runs[0].h_initial, runs[0].h_final);
  EXPECT_GE(runs[0].h_final, 0.0);
}

TEST(MeloDrivers, RejectsDegenerateInputs) {
  graph::Hypergraph tiny(1, {});
  EXPECT_THROW(melo_bipartition(tiny, MeloOptions{}), Error);
  // num_eigenvectors == 0 is no longer degenerate: it selects d
  // automatically from the spectral gap (at least 2 columns).
  const graph::Hypergraph h = planted(20, 2, 29);
  MeloOptions opts;
  opts.num_eigenvectors = 0;
  const MeloBipartitionResult r = melo_bipartition(h, opts);
  EXPECT_GE(r.eigenvectors_used, 2u);
}

TEST(MeloDrivers, DEqualsNStillWorks) {
  const graph::Hypergraph h = planted(40, 2, 31);
  MeloOptions opts;
  opts.num_eigenvectors = 40;
  opts.solver.dense_threshold = 100;
  const MeloBipartitionResult r = melo_bipartition(h, opts);
  EXPECT_TRUE(part::is_permutation(r.ordering, 40));
  // With all n eigenvectors, each scaling family must still order validly.
  for (CoordScaling sc : {CoordScaling::kGap, CoordScaling::kInvSqrtLambda,
                          CoordScaling::kUnit}) {
    MeloOptions o2 = opts;
    o2.scaling = sc;
    EXPECT_TRUE(
        part::is_permutation(melo_bipartition(h, o2).ordering, 40))
        << coord_scaling_name(sc);
  }
}

}  // namespace
}  // namespace specpart::core
