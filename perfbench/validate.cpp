#include "validate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "part/objectives.h"
#include "part/sweep_cut.h"

namespace perfbench {

namespace sp = specpart;

namespace {

std::string mismatch(const char* field, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %.17g != recomputed %.17g", field, got,
                want);
  return buf;
}

}  // namespace

Validation validate(const sp::service::PartitionRequest& req,
                    const sp::service::PartitionResponse& resp) {
  Validation v;
  const std::size_t n = req.graph.num_nodes();
  if (resp.status != "ok" && resp.status != "degraded") {
    v.failure = "status " + resp.status + " " + resp.error;
    return v;
  }
  if (resp.id != req.id || resp.k != req.k) {
    v.failure = "id or k does not echo the request";
    return v;
  }
  if (resp.assignment.size() != n) {
    v.failure = "assignment length " + std::to_string(resp.assignment.size()) +
                " != n " + std::to_string(n);
    return v;
  }
  std::vector<std::size_t> sizes(req.k, 0);
  for (std::uint32_t c : resp.assignment) {
    if (c >= req.k) {
      v.failure = "cluster id " + std::to_string(c) + " >= k";
      return v;
    }
    ++sizes[c];
  }
  for (std::uint32_t c = 0; c < req.k; ++c)
    if (sizes[c] == 0) {
      v.failure = "cluster " + std::to_string(c) + " is empty";
      return v;
    }
  if (req.k == 2) {
    const std::size_t floor_side = static_cast<std::size_t>(
        std::max(1.0, std::ceil(req.balance * static_cast<double>(n) - 1e-9)));
    if (std::min(sizes[0], sizes[1]) < floor_side) {
      v.failure = "side of " + std::to_string(std::min(sizes[0], sizes[1])) +
                  " vertices below the balance floor " +
                  std::to_string(floor_side);
      return v;
    }
  }

  const sp::part::Partition p(resp.assignment, req.k);
  const double cut = sp::part::cut_nets(req.graph, p);
  const double scaled = sp::part::scaled_cost(req.graph, p);
  const double ratio = req.k == 2 ? sp::part::ratio_cut(req.graph, p) : 0.0;
  if (resp.cut != cut) {
    v.failure = mismatch("cut", resp.cut, cut);
  } else if (resp.scaled_cost != scaled) {
    v.failure = mismatch("scaled_cost", resp.scaled_cost, scaled);
  } else if (resp.ratio_cut != ratio) {
    v.failure = mismatch("ratio_cut", resp.ratio_cut, ratio);
  } else if (req.k == 2) {
    v.conductance = sp::part::conductance(req.graph, p);
  }
  return v;
}

}  // namespace perfbench
