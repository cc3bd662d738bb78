// MELO — Multiple-Eigenvector Linear Ordering (the paper's heuristic).
//
// Instead of solving the (NP-hard) vector partitioning problem directly,
// MELO converts it into a vertex ordering: starting from an empty subset S,
// it repeatedly appends the vector that maximizes a weighting function of
// the growing subset-sum vector ~S = sum_{y in S} y. Because every vector
// carries *global* partitioning information (it is built from d
// eigenvectors), the ordering is qualitatively different from a local graph
// traversal — and splitting it recovers high-quality partitionings.
//
// The greedy's selection rule (how "best next vector" is scored) is a
// design knob separate from the paper's weighting schemes (which scale the
// vector coordinates, see reduction.h):
//   kMagnitude   max ||S + y||^2      — the max-sum objective, greedily
//   kProjection  max S.y              — growth along the subset direction
//   kCosine      max S.y / ||y||      — direction only, magnitude-blind
// (Normalizations that are constant across candidates at a fixed step —
// e.g. dividing by |S|+1 or by ||S|| — do not change the argmax and are
// deliberately not separate rules.)
//
// The exact greedy returns the argmax of the key over every unchosen vector
// at every step, but it evaluates few of them: a certified scan bounds each
// key from a periodic snapshot of S.y and computes exact keys only for the
// candidates the bound cannot rule out (melo.cpp). The ordering is the one
// the exhaustive O(d n^2) scan gives; the work is O(d n) per snapshot plus
// a few exact keys per step, and a snapshot is taken only when the bound
// has gone slack. The paper buys its speed by re-ranking the candidates
// only "periodically (e.g., every 100 iterations)", which gives up
// exactness; the certified scan is as fast and stays exact.
#pragma once

#include <cstdint>
#include <functional>

#include "core/vecpart.h"
#include "part/ordering.h"
#include "util/budget.h"
#include "util/parallel.h"

namespace specpart::core {

enum class SelectionRule {
  kMagnitude = 1,
  kProjection = 2,
  kCosine = 3,
};

const char* selection_rule_name(SelectionRule s);

/// Deterministic work counters of one or more orderings. Every field is a
/// count of d-length dot products or of refreshes; none depends on the
/// thread count.
struct MeloScanStats {
  /// Exact key evaluations.
  std::uint64_t key_evals = 0;
  /// Snapshot refreshes.
  std::uint64_t snapshots = 0;
  /// Rows evaluated by those refreshes, one S.y product each.
  std::uint64_t snapshot_rows = 0;

  MeloScanStats& operator+=(const MeloScanStats& o) {
    key_evals += o.key_evals;
    snapshots += o.snapshots;
    snapshot_rows += o.snapshot_rows;
    return *this;
  }
};

struct MeloOrderingOptions {
  SelectionRule selection = SelectionRule::kMagnitude;
  /// Start the ordering from the (start_rank+1)-th longest vector; distinct
  /// ranks give the diversified multi-start orderings Table 5 uses.
  std::size_t start_rank = 0;
  /// Optional shared compute budget (one greedy selection = one unit).
  /// On exhaustion the remaining vertices are appended in a cheap
  /// deterministic order so the result is still a full permutation — a
  /// valid, best-effort ordering rather than an aborted one.
  ComputeBudget* budget = nullptr;
  /// Compute-kernel threading (see util/parallel.h). Only the snapshot
  /// refreshes fan out, one independent row per vertex; the selection walk
  /// is serial, so the ordering is bit-identical for every thread count.
  ParallelConfig parallel;
  /// Optional work counters (non-owning); the call adds its own counts.
  MeloScanStats* stats = nullptr;
};

/// Optional mid-construction coordinate readjustment (the paper's
/// H-recomputation): when |S| first reaches `at`, `rebuild` is called with
/// the chosen vertices and must return the re-scaled instance; the subset
/// sum is then recomputed under the new coordinates.
struct MeloReadjust {
  std::size_t at = 0;  // 0 disables
  std::function<VectorInstance(const std::vector<graph::NodeId>&)> rebuild;
};

/// Runs the MELO greedy over an explicit vector instance and returns the
/// selection order (a permutation of 0..n-1).
part::Ordering melo_order_vectors(const VectorInstance& inst,
                                  const MeloOrderingOptions& opts,
                                  const MeloReadjust* readjust = nullptr);

}  // namespace specpart::core
