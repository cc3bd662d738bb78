// Request schedules of the end-to-end benchmark.
//
// Every workload is a fixed cycle of request templates over a fixed family
// of base netlists (graph::generate_netlist with constant configs). The
// run's --seed only chooses the order of each netlist's nets: a reordered
// netlist has different content (a different cache key, so a real cold
// solve) but the same vertices, the same clique graph up to summation
// order and the same partitions, so every seed measures the same
// numerical work. Request i of a run uses template i mod cycle_length.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/hypergraph.h"
#include "service/protocol.h"

namespace perfbench {

enum class WorkloadKind { kColdFlat, kColdLargeMultilevel, kWarmMixed };

/// Parses a --workload name; throws std::invalid_argument on an unknown one.
WorkloadKind parse_workload(const std::string& name);
const char* workload_name(WorkloadKind kind);

/// One request of a workload plus its wire encoding (the request frame the
/// traced replay decodes, and the key of the exact-repeat check).
struct ScheduledRequest {
  specpart::service::PartitionRequest request;
  std::string wire;
};

class Workload {
 public:
  Workload(WorkloadKind kind, std::uint64_t seed);

  std::size_t cycle_length() const;

  /// Request i of the run's closed-loop sequence (deterministic in seed, i).
  ScheduledRequest request(std::size_t i) const;

  /// warm_mixed only: the requests whose solves set-up must spill to the
  /// persistent store — one per (netlist, cache-key setting) the cycle
  /// touches.
  std::vector<specpart::service::PartitionRequest> prewarm_requests() const;

 private:
  WorkloadKind kind_;
  std::uint64_t seed_;
  /// Base netlists (cold workloads) or the shuffled pool (warm_mixed).
  std::vector<specpart::graph::Hypergraph> netlists_;
};

/// `h` with its nets in a seeded Fisher-Yates order. Content differs,
/// structure does not.
specpart::graph::Hypergraph shuffle_nets(const specpart::graph::Hypergraph& h,
                                         std::uint64_t seed);

std::string request_wire(const specpart::service::PartitionRequest& req);
std::string response_wire(const specpart::service::PartitionResponse& resp);

}  // namespace perfbench
