#include "workloads.h"

#include <sstream>
#include <stdexcept>

#include "graph/generator.h"

namespace perfbench {

namespace sp = specpart;
using sp::core::CoordScaling;
using sp::core::ObjectiveModel;
using sp::core::SolverStrategy;

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0xD1B54A32D192ED03ULL);
  return splitmix64(state);
}

template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t& state) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[splitmix64(state) % i]);
}

sp::graph::Hypergraph base_netlist(std::size_t modules, std::uint64_t seed) {
  sp::graph::GeneratorConfig cfg;
  cfg.num_modules = modules;
  cfg.num_nets = modules + modules / 4;
  cfg.num_clusters = 10;
  cfg.seed = seed;
  return sp::graph::generate_netlist(cfg);
}

/// One entry of a workload's request cycle.
struct Template {
  const char* id;  // shared by identical templates, so they repeat exactly
  std::size_t netlist;
  ObjectiveModel objective;
  std::uint32_t k;
  std::size_t d;
  CoordScaling scaling;
};

constexpr ObjectiveModel kU = ObjectiveModel::kUnnormalized;
constexpr ObjectiveModel kN = ObjectiveModel::kNormalizedSymmetric;

// Each latency quantile should fall in the upper part of a class of
// requests doing identical work, well below the next class's cost: on this
// host the lower tail of a class follows short bursts of a faster machine,
// and a quantile on a class boundary jumps between classes.
//
// Cold cycles: two normalized solves, then one unnormalized solve (about
// three times slower). p50 falls at 75% of the normalized class, p90 at
// 70% of the unnormalized class. Netlist 0 is the unnormalized base,
// netlist 1 the normalized one.
const std::vector<Template> kColdCycle = {
    {"c", 1, kN, 2, 10, CoordScaling::kSqrtGap},
    {"c", 1, kN, 2, 10, CoordScaling::kSqrtGap},
    {"c", 0, kU, 2, 10, CoordScaling::kSqrtGap},
};

// warm_mixed cycle over pool netlists 0 (n=3000) and 1 (n=4000). By cost:
// six k=2 requests on netlist 1 at d=12 (either objective, H-based
// scalings: the same O(d n^2) ordering; ranks 0-0.6, p50 at 83%), one k=4
// DP-RP on netlist 0 (0.6-0.7) and three k=8 DP-RP requests on netlist 1
// (0.7-1.0, p90 at 67%). Every d lies in the one cache quantum 9..16;
// equal ids mark exact repeats.
const std::vector<Template> kWarmCycle = {
    {"m1", 1, kU, 2, 12, CoordScaling::kSqrtGap},
    {"m2", 1, kN, 2, 12, CoordScaling::kSqrtGap},
    {"t1", 1, kU, 8, 10, CoordScaling::kSqrtGap},
    {"m3", 1, kU, 2, 12, CoordScaling::kGap},
    {"k1", 0, kU, 4, 14, CoordScaling::kInvSqrtLambda},
    {"t2", 1, kU, 8, 16, CoordScaling::kGap},
    {"m1", 1, kU, 2, 12, CoordScaling::kSqrtGap},
    {"m2", 1, kN, 2, 12, CoordScaling::kSqrtGap},
    {"t3", 1, kU, 8, 12, CoordScaling::kUnit},
    {"m3", 1, kU, 2, 12, CoordScaling::kGap},
};

const std::vector<Template>& cycle_of(WorkloadKind kind) {
  return kind == WorkloadKind::kWarmMixed ? kWarmCycle : kColdCycle;
}

sp::service::PartitionRequest make_request(const Template& t,
                                           SolverStrategy strategy,
                                           const sp::graph::Hypergraph& g) {
  sp::service::PartitionRequest req;
  req.id = t.id;
  req.k = t.k;
  req.balance = 0.45;
  req.pipeline.num_eigenvectors = t.d;
  req.pipeline.scaling = t.scaling;
  req.pipeline.objective = t.objective;
  req.pipeline.solver.strategy = strategy;
  req.graph = g;
  return req;
}

}  // namespace

WorkloadKind parse_workload(const std::string& name) {
  for (WorkloadKind kind :
       {WorkloadKind::kColdFlat, WorkloadKind::kColdLargeMultilevel,
        WorkloadKind::kWarmMixed})
    if (name == workload_name(kind)) return kind;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kColdFlat:
      return "cold_flat";
    case WorkloadKind::kColdLargeMultilevel:
      return "cold_large_multilevel";
    case WorkloadKind::kWarmMixed:
      return "warm_mixed";
  }
  return "?";
}

sp::graph::Hypergraph shuffle_nets(const sp::graph::Hypergraph& h,
                                   std::uint64_t seed) {
  std::uint64_t state = seed;
  std::vector<std::vector<sp::graph::NodeId>> nets;
  nets.reserve(h.num_nets());
  for (sp::graph::NetId e = 0; e < h.num_nets(); ++e) nets.push_back(h.net(e));
  shuffle(nets, state);
  return sp::graph::Hypergraph(h.num_nodes(), std::move(nets));
}

Workload::Workload(WorkloadKind kind, std::uint64_t seed)
    : kind_(kind), seed_(seed) {
  switch (kind) {
    case WorkloadKind::kColdFlat:
      netlists_.push_back(base_netlist(1000, 1));
      netlists_.push_back(base_netlist(2000, 1));
      break;
    case WorkloadKind::kColdLargeMultilevel:
      netlists_.push_back(base_netlist(4000, 1));
      netlists_.push_back(netlists_.front());
      break;
    case WorkloadKind::kWarmMixed:
      netlists_.push_back(shuffle_nets(base_netlist(3000, 2), mix_seed(seed, 0)));
      netlists_.push_back(shuffle_nets(base_netlist(4000, 3), mix_seed(seed, 1)));
      break;
  }
}

std::size_t Workload::cycle_length() const { return cycle_of(kind_).size(); }

ScheduledRequest Workload::request(std::size_t i) const {
  const std::vector<Template>& cycle = cycle_of(kind_);
  const Template& t = cycle[i % cycle.size()];
  ScheduledRequest s;
  if (kind_ == WorkloadKind::kWarmMixed) {
    s.request =
        make_request(t, SolverStrategy::kMultilevel, netlists_[t.netlist]);
  } else {
    // Cold: every request is a distinct net order (salt i + 2 keeps the
    // streams apart from the warm pool's salts 0 and 1).
    const SolverStrategy strategy = kind_ == WorkloadKind::kColdFlat
                                        ? SolverStrategy::kFlat
                                        : SolverStrategy::kMultilevel;
    s.request = make_request(
        t, strategy, shuffle_nets(netlists_[t.netlist], mix_seed(seed_, i + 2)));
    s.request.id = std::string(t.id) + std::to_string(i);
  }
  s.wire = request_wire(s.request);
  return s;
}

std::vector<sp::service::PartitionRequest> Workload::prewarm_requests()
    const {
  std::vector<sp::service::PartitionRequest> out;
  if (kind_ != WorkloadKind::kWarmMixed) return out;
  for (const Template& t : kWarmCycle) {
    bool seen = false;
    for (const sp::service::PartitionRequest& r : out)
      seen = seen || (r.graph.num_nodes() ==
                          netlists_[t.netlist].num_nodes() &&
                      r.pipeline.objective == t.objective);
    if (seen) continue;
    Template setup = t;
    setup.id = "setup";
    setup.k = 2;
    out.push_back(
        make_request(setup, SolverStrategy::kMultilevel, netlists_[t.netlist]));
  }
  return out;
}

std::string request_wire(const sp::service::PartitionRequest& req) {
  std::ostringstream out;
  sp::service::write_request(req, out);
  return out.str();
}

std::string response_wire(const sp::service::PartitionResponse& resp) {
  std::ostringstream out;
  sp::service::write_response(resp, out);
  return out.str();
}

}  // namespace perfbench
