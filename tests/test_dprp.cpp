// Tests for the DP-RP dynamic program, validated against brute-force
// enumeration of all contiguous splits on small instances and, bit for bit,
// against a level-by-level reference fill on larger ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <numeric>

#include "graph/generator.h"
#include "part/objectives.h"
#include "spectral/dprp.h"
#include "util/budget.h"
#include "util/error.h"
#include "util/rng.h"

namespace specpart::spectral {
namespace {

/// Brute force over all contiguous k-way splits of the ordering.
double brute_force_best(const graph::Hypergraph& h, const part::Ordering& o,
                        std::uint32_t k, std::size_t lo, std::size_t hi) {
  const std::size_t n = o.size();
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> bounds(k + 1, 0);
  bounds[k] = n;
  // bounds[1..k-1] enumerated; last cluster implicit.
  std::function<void(std::uint32_t, std::size_t)> rec2 =
      [&](std::uint32_t level, std::size_t start) {
        if (level == k - 1) {
          const std::size_t len = n - start;
          if (len < lo || len > hi) return;
          std::vector<std::uint32_t> assignment(n, 0);
          std::size_t pos = 0;
          std::size_t cluster_start = 0;
          for (std::uint32_t c = 0; c + 1 < k; ++c) {
            for (; pos < bounds[c + 1]; ++pos) assignment[o[pos]] = c;
            cluster_start = bounds[c + 1];
          }
          (void)cluster_start;
          for (; pos < n; ++pos) assignment[o[pos]] = k - 1;
          best = std::min(best, part::scaled_cost(
                                    h, part::Partition(assignment, k)));
          return;
        }
        for (std::size_t len = lo; len <= hi && start + len <= n; ++len) {
          bounds[level + 1] = start + len;
          rec2(level + 1, start + len);
        }
      };
  rec2(0, 0);
  return best;
}

graph::Hypergraph random_netlist(std::size_t n, std::size_t nets,
                                 std::uint64_t seed) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = n;
  cfg.num_nets = nets;
  cfg.num_clusters = 3;
  cfg.subclusters_per_cluster = 1;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

class DprpBrute
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint32_t>> {
};

TEST_P(DprpBrute, MatchesBruteForce) {
  const auto [n, k] = GetParam();
  const graph::Hypergraph h = random_netlist(n, n + 10, 31 + n + k);
  part::Ordering o(n);
  std::iota(o.begin(), o.end(), 0u);
  Rng rng(n * 7 + k);
  rng.shuffle(o);

  DprpOptions opts;
  opts.k = k;
  const DprpResult r = dprp_split(h, o, opts);
  ASSERT_TRUE(r.feasible);
  const double brute = brute_force_best(h, o, k, 1, n);
  EXPECT_NEAR(r.scaled_cost, brute, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, DprpBrute,
    ::testing::Combine(::testing::Values<std::size_t>(8, 10, 12, 14),
                       ::testing::Values<std::uint32_t>(2, 3, 4)));

TEST(Dprp, RespectsSizeBounds) {
  const graph::Hypergraph h = random_netlist(30, 40, 5);
  part::Ordering o(30);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 3;
  opts.min_cluster_size = 8;
  opts.max_cluster_size = 12;
  const DprpResult r = dprp_split(h, o, opts);
  for (std::uint32_t c = 0; c < 3; ++c) {
    EXPECT_GE(r.partition.cluster_size(c), 8u);
    EXPECT_LE(r.partition.cluster_size(c), 12u);
  }
}

TEST(Dprp, BoundsMatchBruteForce) {
  const graph::Hypergraph h = random_netlist(12, 20, 6);
  part::Ordering o(12);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 3;
  opts.min_cluster_size = 3;
  opts.max_cluster_size = 6;
  const DprpResult r = dprp_split(h, o, opts);
  EXPECT_NEAR(r.scaled_cost, brute_force_best(h, o, 3, 3, 6), 1e-12);
}

TEST(Dprp, InfeasibleBoundsThrow) {
  const graph::Hypergraph h = random_netlist(10, 15, 7);
  part::Ordering o(10);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 3;
  opts.min_cluster_size = 5;  // 3 * 5 > 10
  EXPECT_THROW(dprp_split(h, o, opts), Error);
}

TEST(Dprp, KTooSmallThrows) {
  const graph::Hypergraph h = random_netlist(10, 15, 8);
  part::Ordering o(10);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 1;
  EXPECT_THROW(dprp_split(h, o, opts), Error);
}

TEST(Dprp, BoundariesConsistentWithPartition) {
  const graph::Hypergraph h = random_netlist(25, 35, 9);
  part::Ordering o(25);
  std::iota(o.begin(), o.end(), 0u);
  Rng rng(10);
  rng.shuffle(o);
  DprpOptions opts;
  opts.k = 4;
  const DprpResult r = dprp_split(h, o, opts);
  ASSERT_EQ(r.boundaries.size(), 5u);
  EXPECT_EQ(r.boundaries.front(), 0u);
  EXPECT_EQ(r.boundaries.back(), 25u);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(r.partition.cluster_size(c),
              r.boundaries[c + 1] - r.boundaries[c]);
    for (std::size_t pos = r.boundaries[c]; pos < r.boundaries[c + 1]; ++pos)
      EXPECT_EQ(r.partition.cluster_of(o[pos]), c);
  }
}

TEST(Dprp, ScaledCostMatchesObjectiveModule) {
  const graph::Hypergraph h = random_netlist(40, 55, 12);
  part::Ordering o(40);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 5;
  const DprpResult r = dprp_split(h, o, opts);
  EXPECT_NEAR(r.scaled_cost, part::scaled_cost(h, r.partition), 1e-12);
}

TEST(DprpAllK, EachKMatchesIndividualSolve) {
  const graph::Hypergraph h = random_netlist(20, 30, 13);
  part::Ordering o(20);
  std::iota(o.begin(), o.end(), 0u);
  Rng rng(14);
  rng.shuffle(o);
  DprpOptions opts;
  opts.k = 5;
  const auto all = dprp_all_k(h, o, opts);
  ASSERT_EQ(all.size(), 4u);  // k = 2..5
  for (std::uint32_t k = 2; k <= 5; ++k) {
    DprpOptions single = opts;
    single.k = k;
    const DprpResult direct = dprp_split(h, o, single);
    ASSERT_TRUE(all[k - 2].feasible);
    EXPECT_NEAR(all[k - 2].scaled_cost, direct.scaled_cost, 1e-12)
        << "k=" << k;
  }
}

TEST(DprpAllK, InfeasibleKsFlagged) {
  const graph::Hypergraph h = random_netlist(10, 15, 15);
  part::Ordering o(10);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 6;
  opts.min_cluster_size = 3;  // k >= 4 infeasible (4 * 3 > 10)
  const auto all = dprp_all_k(h, o, opts);
  ASSERT_EQ(all.size(), 5u);
  EXPECT_TRUE(all[0].feasible);   // k = 2
  EXPECT_TRUE(all[1].feasible);   // k = 3
  EXPECT_FALSE(all[2].feasible);  // k = 4
  EXPECT_FALSE(all[3].feasible);  // k = 5
  EXPECT_FALSE(all[4].feasible);  // k = 6
}

// --- Level-major reference ---------------------------------------------------

/// The level-by-level table fill: for each level h = 1..k, an incremental
/// pin sweep from every start i with dp[h-1][i] finite. The library's fill
/// shares one sweep per start across all levels and must reproduce these
/// tables — values and parents — bit for bit.
struct LevelMajorTables {
  std::vector<std::vector<double>> dp;
  std::vector<std::vector<std::uint32_t>> parent;
};

LevelMajorTables level_major_fill(const graph::Hypergraph& h,
                                  const part::Ordering& o, std::uint32_t k,
                                  std::size_t lo, std::size_t hi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = h.num_nodes();
  LevelMajorTables t;
  t.dp.assign(k + 1, std::vector<double>(n + 1, kInf));
  t.parent.assign(k + 1, std::vector<std::uint32_t>(n + 1, 0));
  t.dp[0][0] = 0.0;
  std::vector<std::uint32_t> inside(h.num_nets(), 0);
  std::vector<graph::NetId> touched;
  for (std::uint32_t level = 1; level <= k; ++level) {
    auto& cur = t.dp[level];
    auto& parent = t.parent[level];
    const auto& prev = t.dp[level - 1];
    const std::size_t i_end = n >= lo ? n - lo + 1 : 0;
    for (std::size_t i = (level - 1) * lo; i < i_end; ++i) {
      if (prev[i] == kInf) continue;
      touched.clear();
      double cut = 0.0;
      const std::size_t j_end = std::min(n, i + hi);
      for (std::size_t j = i + 1; j <= j_end; ++j) {
        for (graph::NetId e : h.nets_of(o[j - 1])) {
          const std::size_t size = h.net(e).size();
          if (size < 2) continue;
          const std::uint32_t before = inside[e]++;
          if (before == 0) {
            cut += h.net_weight(e);
            touched.push_back(e);
          }
          if (before + 1 == size) cut -= h.net_weight(e);
        }
        const std::size_t len = j - i;
        if (len < lo) continue;
        const double candidate = prev[i] + cut / static_cast<double>(len);
        if (candidate < cur[j]) {
          cur[j] = candidate;
          parent[j] = static_cast<std::uint32_t>(i);
        }
      }
      for (graph::NetId e : touched) inside[e] = 0;
    }
  }
  return t;
}

/// Boundaries of the reference optimum for k clusters; empty = infeasible.
std::vector<std::size_t> level_major_boundaries(const LevelMajorTables& t,
                                                std::uint32_t k) {
  const std::size_t n = t.dp[0].size() - 1;
  if (t.dp[k][n] == std::numeric_limits<double>::infinity()) return {};
  std::vector<std::size_t> b(k + 1, n);
  for (std::uint32_t level = k; level >= 1; --level)
    b[level - 1] = t.parent[level][b[level]];
  return b;
}

double level_major_cost(const graph::Hypergraph& h, const part::Ordering& o,
                        const std::vector<std::size_t>& b) {
  const auto k = static_cast<std::uint32_t>(b.size() - 1);
  std::vector<std::uint32_t> assignment(o.size(), 0);
  for (std::uint32_t c = 0; c < k; ++c)
    for (std::size_t pos = b[c]; pos < b[c + 1]; ++pos) assignment[o[pos]] = c;
  return part::scaled_cost(h, part::Partition(std::move(assignment), k));
}

void expect_matches_level_major(const graph::Hypergraph& h,
                                const part::Ordering& o,
                                const DprpOptions& opts) {
  const std::size_t n = h.num_nodes();
  const std::size_t lo = std::max<std::size_t>(1, opts.min_cluster_size);
  const std::size_t hi =
      opts.max_cluster_size == 0 ? n : opts.max_cluster_size;
  const LevelMajorTables ref = level_major_fill(h, o, opts.k, lo, hi);
  const std::vector<DprpResult> all = dprp_all_k(h, o, opts);
  ASSERT_EQ(all.size(), opts.k - 1u);
  for (std::uint32_t k = 2; k <= opts.k; ++k) {
    const std::vector<std::size_t> b = level_major_boundaries(ref, k);
    const DprpResult& r = all[k - 2];
    ASSERT_EQ(r.feasible, !b.empty()) << "k=" << k;
    if (b.empty()) continue;
    EXPECT_EQ(r.boundaries, b) << "k=" << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.scaled_cost),
              std::bit_cast<std::uint64_t>(level_major_cost(h, o, b)))
        << "k=" << k;
  }
  const DprpResult single = dprp_split(h, o, opts);
  EXPECT_EQ(single.boundaries, all.back().boundaries);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(single.scaled_cost),
            std::bit_cast<std::uint64_t>(all.back().scaled_cost));
}

enum class Bounds { kNone, kMinOnly, kMinMax };

class DprpLevelMajor
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::uint32_t, Bounds>> {};

TEST_P(DprpLevelMajor, BitIdenticalToLevelMajorFill) {
  const auto [n, k, bounds] = GetParam();
  graph::GeneratorConfig cfg;
  cfg.num_modules = n;
  cfg.num_nets = n + n / 10;
  cfg.seed = 400 + n + k;
  const graph::Hypergraph h = graph::generate_netlist(cfg);
  part::Ordering o(n);
  std::iota(o.begin(), o.end(), 0u);
  Rng rng(n * 3 + k);
  rng.shuffle(o);
  DprpOptions opts;
  opts.k = k;
  if (bounds != Bounds::kNone) opts.min_cluster_size = n / (2 * k);
  if (bounds == Bounds::kMinMax) opts.max_cluster_size = 2 * n / k;
  expect_matches_level_major(h, o, opts);
}

INSTANTIATE_TEST_SUITE_P(
    RandomNetlists, DprpLevelMajor,
    ::testing::Combine(::testing::Values<std::size_t>(60, 301, 1500),
                       ::testing::Values<std::uint32_t>(2, 3, 8),
                       ::testing::Values(Bounds::kNone, Bounds::kMinOnly,
                                         Bounds::kMinMax)));

TEST(DprpLevelMajor, BitIdenticalWithNonIntegerNetWeights) {
  // Unit weights make every cut an exact integer, which would hide a
  // reordered FP sum; irrational-ish weights do not.
  const std::size_t n = 700;
  const graph::Hypergraph base = random_netlist(n, n + 70, 70);
  std::vector<std::vector<graph::NodeId>> nets;
  std::vector<double> weights;
  Rng rng(71);
  for (graph::NetId e = 0; e < base.num_nets(); ++e) {
    nets.push_back(base.net(e));
    weights.push_back(0.1 + 3.0 * rng.next_double());
  }
  const graph::Hypergraph h(n, std::move(nets), std::move(weights));
  part::Ordering o(n);
  std::iota(o.begin(), o.end(), 0u);
  rng.shuffle(o);
  DprpOptions opts;
  opts.k = 8;
  expect_matches_level_major(h, o, opts);
  opts.min_cluster_size = 40;
  opts.max_cluster_size = 170;
  expect_matches_level_major(h, o, opts);
}

TEST(DprpLevelMajor, ZeroCostTiesPickEarliestStart) {
  // Only 1-pin nets: every segment costs 0, so every candidate ties and the
  // strict < keeps the earliest start at every level.
  const std::size_t n = 40;
  std::vector<std::vector<graph::NodeId>> nets;
  for (graph::NodeId v = 0; v < n; v += 2) nets.push_back({v});
  const graph::Hypergraph h(n, std::move(nets));
  part::Ordering o(n);
  std::iota(o.begin(), o.end(), 0u);
  Rng rng(41);
  rng.shuffle(o);
  DprpOptions opts;
  opts.k = 5;
  expect_matches_level_major(h, o, opts);
  EXPECT_EQ(dprp_split(h, o, opts).boundaries,
            (std::vector<std::size_t>{0, 1, 2, 3, 4, n}));
  opts.min_cluster_size = 3;
  opts.max_cluster_size = 20;
  expect_matches_level_major(h, o, opts);
  EXPECT_EQ(dprp_split(h, o, opts).boundaries,
            (std::vector<std::size_t>{0, 3, 6, 9, 20, n}));
}

// --- Work counters -------------------------------------------------------------

TEST(DprpCounters, UnboundedWorkMatchesClosedForm) {
  const std::size_t n = 200;
  const graph::Hypergraph h = random_netlist(n, n + 20, 50);
  part::Ordering o(n);
  std::iota(o.begin(), o.end(), 0u);
  for (const std::uint32_t k : {2u, 3u, 8u}) {
    DprpOptions opts;
    opts.k = k;
    const DprpResult r = dprp_split(h, o, opts);
    // Level 1 extends start 0 to every end; level l >= 2 relaxes every
    // end j > i from every start i in [l-1, n-1].
    std::uint64_t cells = n;
    for (std::uint64_t l = 2; l <= k; ++l) cells += (n - l + 1) * (n - l + 2) / 2;
    EXPECT_EQ(r.relaxations, cells) << "k=" << k;
    EXPECT_EQ(r.sweep_steps, n * (n + 1) / 2) << "k=" << k;
    EXPECT_FALSE(r.budget_exhausted);
  }
}

// --- Compute budget --------------------------------------------------------------

TEST(DprpBudget, UnlimitedBudgetChangesNothing) {
  const std::size_t n = 120;
  const graph::Hypergraph h = random_netlist(n, n + 15, 60);
  part::Ordering o(n);
  std::iota(o.begin(), o.end(), 0u);
  DprpOptions opts;
  opts.k = 4;
  opts.min_cluster_size = 10;
  const DprpResult plain = dprp_split(h, o, opts);
  ComputeBudget unlimited;
  opts.budget = &unlimited;
  const DprpResult budgeted = dprp_split(h, o, opts);
  EXPECT_EQ(budgeted.boundaries, plain.boundaries);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(budgeted.scaled_cost),
            std::bit_cast<std::uint64_t>(plain.scaled_cost));
  EXPECT_EQ(budgeted.relaxations, plain.relaxations);
  EXPECT_FALSE(budgeted.budget_exhausted);
}

TEST(DprpBudget, ExpiredBudgetFallsBackToEqualSplit) {
  const std::size_t n = 103;
  const graph::Hypergraph h = random_netlist(n, n + 15, 61);
  part::Ordering o(n);
  std::iota(o.begin(), o.end(), 0u);
  Rng rng(62);
  rng.shuffle(o);
  ComputeBudget expired = ComputeBudget::with_deadline(0.0);
  DprpOptions opts;
  opts.k = 4;
  opts.min_cluster_size = 25;
  opts.max_cluster_size = 26;
  opts.budget = &expired;
  const DprpResult r = dprp_split(h, o, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.relaxations, 0u);
  EXPECT_EQ(r.sweep_steps, 0u);
  EXPECT_EQ(r.boundaries, (std::vector<std::size_t>{0, 25, 51, 77, n}));
  EXPECT_EQ(r.scaled_cost, part::scaled_cost(h, r.partition));

  // dprp_all_k: the fallback only where the bounds admit a k-way split.
  opts.k = 5;
  const auto all = dprp_all_k(h, o, opts);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_FALSE(all[0].feasible);  // k = 2: 2 * 26 < 103
  EXPECT_FALSE(all[1].feasible);  // k = 3
  EXPECT_TRUE(all[2].feasible);   // k = 4
  EXPECT_FALSE(all[3].feasible);  // k = 5: 5 * 25 > 103
  for (const DprpResult& r_k : all) EXPECT_TRUE(r_k.budget_exhausted);
}

}  // namespace
}  // namespace specpart::spectral
