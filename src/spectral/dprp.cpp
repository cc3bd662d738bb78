#include "spectral/dprp.h"

#include <algorithm>
#include <limits>

#include "part/objectives.h"
#include "util/error.h"

namespace specpart::spectral {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Filled DP state: dp[h][j] = best sum of E/|C| using h clusters over the
/// first j positions of the ordering; parent[h][j] = the split point i
/// achieving it. Valid for every h <= k simultaneously — or, when the
/// budget ran out, for every partition whose last cut precedes the first
/// unswept start.
struct DpTables {
  std::vector<std::vector<double>> dp;
  std::vector<std::vector<std::uint32_t>> parent;
  std::uint64_t relaxations = 0;
  std::uint64_t sweep_steps = 0;
  bool budget_exhausted = false;
};

/// The pins of nets with >= 2 pins, listed in ordering-position order, and
/// what each one does to the cut of a segment [i, j) that grows past it:
/// it adds the net's weight when it is the net's first pin at or after i
/// (i >= enter), and removes it when it completes the net (i < leave).
/// These are exactly the 0 -> 1 and size-1 -> size transitions of a
/// per-net inside count, so the sweep keeps the same FP operation sequence
/// without the count, the touched list or their random accesses.
struct Pin {
  std::uint32_t enter;  // 1 + position of the net's previous pin, else 0
  std::uint32_t leave;  // last pin: 1 + position of the first pin, else 0
  double weight;
};

/// Pins in position order; pins of position p are [first[p], first[p+1]).
std::vector<Pin> pins_by_position(const graph::Hypergraph& h,
                                  const part::Ordering& o,
                                  std::vector<std::size_t>& first) {
  const std::size_t n = h.num_nodes();
  std::vector<std::uint32_t> seen(h.num_nets(), 0), enter(h.num_nets(), 0),
      first_pos(h.num_nets(), 0);
  std::vector<Pin> pins;
  pins.reserve(h.num_pins());
  first.assign(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    for (graph::NetId e : h.nets_of(o[p])) {
      const std::size_t size = h.net(e).size();
      if (size < 2) continue;
      if (seen[e]++ == 0) first_pos[e] = static_cast<std::uint32_t>(p);
      pins.push_back({enter[e], seen[e] == size ? first_pos[e] + 1 : 0,
                      h.net_weight(e)});
      enter[e] = static_cast<std::uint32_t>(p + 1);
    }
    first[p + 1] = pins.size();
  }
  return pins;
}

/// One pass over start positions i in ascending order. Every segment that
/// ends at i starts before i, so dp[*][i] is final when start i is reached
/// and the costs E(i, j) / (j - i) can be swept once for all levels. Each
/// candidate is the same two FP operations on the same operands as a
/// level-by-level fill, and each level still meets its starts in ascending
/// order under strict `<`, so values and parents (earliest i wins ties)
/// are bit-identical to that fill.
DpTables fill_tables(const graph::Hypergraph& h, const part::Ordering& o,
                     std::uint32_t k, std::size_t lo, std::size_t hi,
                     ComputeBudget* budget) {
  const std::size_t n = h.num_nodes();
  DpTables t;
  t.dp.assign(k + 1, std::vector<double>(n + 1, kInf));
  t.parent.assign(k + 1, std::vector<std::uint32_t>(n + 1, 0));
  t.dp[0][0] = 0.0;

  std::vector<std::size_t> first;
  const std::vector<Pin> pins = pins_by_position(h, o, first);
  std::vector<double> cut(pins.size() + 1);  // cut after each pin
  std::vector<double> seg(n + 1, 0.0);

  const std::size_t i_end = n >= lo ? n - lo + 1 : 0;
  for (std::size_t i = 0; i < i_end; ++i) {
    if (!budget_ok(budget)) {
      t.budget_exhausted = true;
      break;
    }
    bool reachable = false;
    for (std::uint32_t level = 1; level <= k && !reachable; ++level)
      reachable = t.dp[level - 1][i] != kInf;
    if (!reachable) continue;

    // Incremental sweep: grow segment [i, j) one pin at a time, then read
    // E(i, j) off the cut after the last pin of position j - 1. A pin never
    // both enters and completes its net, and `running` is never -0, so
    // adding (w - 0), (0 - w) or (0 - 0) is bit for bit `+= w`, `-= w` or
    // nothing.
    const std::size_t j_begin = i + lo;  // <= j_end: i < i_end, lo <= hi
    const std::size_t j_end = std::min(n, i + hi);
    double running = 0.0;
    cut[first[i]] = running;
    for (std::size_t q = first[i]; q < first[j_end]; ++q) {
      running += (i >= pins[q].enter ? pins[q].weight : 0.0) -
                 (i < pins[q].leave ? pins[q].weight : 0.0);
      cut[q + 1] = running;
    }
    for (std::size_t j = j_begin; j <= j_end; ++j)
      seg[j] = cut[first[j]] / static_cast<double>(j - i);
    t.sweep_steps += j_end - i;

    for (std::uint32_t level = 1; level <= k; ++level) {
      const double base = t.dp[level - 1][i];
      if (base == kInf) continue;
      double* cur = t.dp[level].data();
      std::uint32_t* parent = t.parent[level].data();
      for (std::size_t j = j_begin; j <= j_end; ++j) {
        const double candidate = base + seg[j];
        if (candidate < cur[j]) {
          cur[j] = candidate;
          parent[j] = static_cast<std::uint32_t>(i);
        }
      }
      t.relaxations += j_end - j_begin + 1;
    }
  }
  return t;
}

/// The optimum for k clusters from the tables. When the budget stopped the
/// fill before any k-way split was reached, the equal-length contiguous
/// split stands in: sizes floor(n/k) and ceil(n/k) lie in [lo, hi]
/// whenever k·lo <= n <= k·hi.
DprpResult reconstruct(const graph::Hypergraph& h, const part::Ordering& o,
                       const DpTables& t, std::uint32_t k, std::size_t lo,
                       std::size_t hi) {
  const std::size_t n = h.num_nodes();
  DprpResult result;
  result.budget_exhausted = t.budget_exhausted;
  result.relaxations = t.relaxations;
  result.sweep_steps = t.sweep_steps;
  std::vector<std::size_t>& bounds = result.boundaries;
  if (t.dp[k][n] != kInf) {
    bounds.assign(k + 1, n);
    for (std::uint32_t level = k; level >= 1; --level)
      bounds[level - 1] = t.parent[level][bounds[level]];
  } else if (t.budget_exhausted && k * lo <= n && n <= k * hi) {
    bounds.assign(k + 1, n);
    for (std::uint32_t c = 0; c < k; ++c) bounds[c] = c * n / k;
  } else {
    return result;  // feasible stays false
  }
  result.feasible = true;
  std::vector<std::uint32_t> assignment(n, 0);
  for (std::uint32_t c = 0; c < k; ++c)
    for (std::size_t pos = bounds[c]; pos < bounds[c + 1]; ++pos)
      assignment[o[pos]] = c;
  result.partition = part::Partition(std::move(assignment), k);
  result.scaled_cost = part::scaled_cost(h, result.partition);
  return result;
}

void validate(const graph::Hypergraph& h, const part::Ordering& o,
              const DprpOptions& opts, std::size_t* lo, std::size_t* hi) {
  const std::size_t n = h.num_nodes();
  SP_CHECK_INPUT(opts.k >= 2, "DP-RP: need k >= 2");
  SP_REQUIRE(part::is_permutation(o, n), "DP-RP: ordering not a permutation");
  *lo = std::max<std::size_t>(1, opts.min_cluster_size);
  *hi = opts.max_cluster_size == 0 ? n : opts.max_cluster_size;
  SP_CHECK_INPUT(*lo <= *hi, "DP-RP: min cluster size exceeds max");
}

}  // namespace

DprpResult dprp_split(const graph::Hypergraph& h, const part::Ordering& o,
                      const DprpOptions& opts) {
  std::size_t lo = 0, hi = 0;
  validate(h, o, opts, &lo, &hi);
  const std::size_t n = h.num_nodes();
  SP_CHECK_INPUT(opts.k * lo <= n && opts.k * hi >= n,
                 "DP-RP: size bounds admit no k-way split");
  const DpTables tables = fill_tables(h, o, opts.k, lo, hi, opts.budget);
  DprpResult result = reconstruct(h, o, tables, opts.k, lo, hi);
  SP_CHECK_INPUT(result.feasible, "DP-RP: no feasible restricted partition");
  return result;
}

std::vector<DprpResult> dprp_all_k(const graph::Hypergraph& h,
                                   const part::Ordering& o,
                                   const DprpOptions& opts) {
  std::size_t lo = 0, hi = 0;
  validate(h, o, opts, &lo, &hi);
  const DpTables tables = fill_tables(h, o, opts.k, lo, hi, opts.budget);
  std::vector<DprpResult> results;
  results.reserve(opts.k - 1);
  for (std::uint32_t k = 2; k <= opts.k; ++k)
    results.push_back(reconstruct(h, o, tables, k, lo, hi));
  return results;
}

}  // namespace specpart::spectral
