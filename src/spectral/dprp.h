// DP-RP — dynamic-programming restricted partitioning (Alpert/Kahng [1]).
//
// Given a vertex ordering, finds the k-way partitioning into *contiguous*
// segments of the ordering that minimizes Scaled Cost, subject to per-
// cluster size bounds. This is how both SFC orderings and MELO orderings
// become multi-way partitionings ("To generate multi-way partitionings from
// MELO orderings, we apply the DP-RP algorithm of [1]").
//
// The DP relaxes dp[h][j] = min_i dp[h-1][i] + E(i,j) / (j-i), where E(i,j)
// is the weight of nets with pins both inside and outside ordering[i..j).
// The tables fill in one pass over start positions: one incremental pin
// sweep per start i yields E(i,j)/(j-i) for every end j, and every level h
// relaxes from it — O(n^2 * pins per vertex + k*n^2), no O(n^2) table.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/hypergraph.h"
#include "part/ordering.h"
#include "part/partition.h"
#include "util/budget.h"
#include "util/parallel.h"

namespace specpart::spectral {

struct DprpOptions {
  std::uint32_t k = 2;
  /// Cluster size bounds in vertices; 0 for max means "no upper bound".
  std::size_t min_cluster_size = 1;
  std::size_t max_cluster_size = 0;
  /// Polled once per start position (nullptr = unlimited). On exhaustion
  /// the result is the best partition whose last cut precedes the first
  /// unswept start, else the equal-length contiguous split.
  ComputeBudget* budget = nullptr;
  /// Unused (the fill is serial); kept for source compatibility.
  ParallelConfig parallel;
};

struct DprpResult {
  part::Partition partition;
  /// Scaled Cost of the result, measured on the hypergraph.
  double scaled_cost = 0.0;
  /// Segment boundaries: cluster h spans positions
  /// [boundaries[h], boundaries[h+1]) of the ordering (size k+1).
  std::vector<std::size_t> boundaries;
  bool feasible = false;
  bool budget_exhausted = false;  // the budget stopped the fill early
  /// Fill work: (level, end) candidates relaxed, and pin-sweep segment
  /// extensions (n(n+1)/2 without size bounds, for any k).
  std::uint64_t relaxations = 0;
  std::uint64_t sweep_steps = 0;
};

/// Optimal restricted (contiguous) k-way partitioning of the ordering under
/// the Scaled Cost objective. Throws specpart::Error when the size bounds
/// admit no k-way split at all.
DprpResult dprp_split(const graph::Hypergraph& h, const part::Ordering& o,
                      const DprpOptions& opts);

/// The DP table already contains the optimum for EVERY cluster count up to
/// opts.k (as in [1], which reports all k simultaneously): returns the
/// best restricted partitioning per k in [2, opts.k]. Entry j corresponds
/// to k = j + 2; infeasible cluster counts yield feasible == false.
std::vector<DprpResult> dprp_all_k(const graph::Hypergraph& h,
                                   const part::Ordering& o,
                                   const DprpOptions& opts);

}  // namespace specpart::spectral
