// Reference replica of the level-by-level DP-RP table fill, kept only as
// the benchmark baseline for the fused start sweep (spectral::dprp_split).
// The library no longer contains this code path; the replica preserves its
// shape so BENCH_kernels.json records a like-for-like comparison:
//
//   for each level h = 1..k: for each start i with dp[h-1][i] finite:
//     incremental pin sweep over j = i+1..n, relaxing dp[h][j]
//
// i.e. k - 1 full O(n^2 * pins per vertex) segment sweeps for a k-way
// split, versus the fused path's single sweep shared by every level.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/hypergraph.h"
#include "part/ordering.h"

namespace specpart::bench {

/// Segment boundaries of the optimal unbounded k-way restricted
/// partitioning of `o`, filled level by level.
inline std::vector<std::size_t> levelmajor_dprp_boundaries(
    const graph::Hypergraph& h, const part::Ordering& o, std::uint32_t k) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = h.num_nodes();
  std::vector<std::vector<double>> dp(k + 1, std::vector<double>(n + 1, kInf));
  std::vector<std::vector<std::uint32_t>> parent(
      k + 1, std::vector<std::uint32_t>(n + 1, 0));
  dp[0][0] = 0.0;
  std::vector<std::uint32_t> inside(h.num_nets(), 0);
  std::vector<graph::NetId> touched;
  for (std::uint32_t level = 1; level <= k; ++level) {
    for (std::size_t i = level - 1; i < n; ++i) {
      if (dp[level - 1][i] == kInf) continue;
      touched.clear();
      double cut = 0.0;
      for (std::size_t j = i + 1; j <= n; ++j) {
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
        const double candidate =
            dp[level - 1][i] + cut / static_cast<double>(j - i);
        if (candidate < dp[level][j]) {
          dp[level][j] = candidate;
          parent[level][j] = static_cast<std::uint32_t>(i);
        }
      }
      for (graph::NetId e : touched) inside[e] = 0;
    }
  }
  std::vector<std::size_t> boundaries(k + 1, n);
  for (std::uint32_t level = k; level >= 1; --level)
    boundaries[level - 1] = parent[level][boundaries[level]];
  return boundaries;
}

}  // namespace specpart::bench
