// Traced replay: one request re-run through the public calls the serving
// path makes, with a span around each layer boundary.
//
//   service::parse_request        span "protocol.decode"
//   core::melo_orderings          span "ordering"; its embedding provider is
//     EmbeddingCache::compute     span "cache" (nested), which builds the
//                                 model::CliqueModel operator and solves
//                                 on a miss, exactly as PartitionService's
//                                 provider does
//   part:: / spectral:: splits    span "split"
//   service::write_response       span "protocol.encode"
//
// Stage times the library already records in Diagnostics ("model",
// "eigensolve", "embedding_cache_disk_hit") split the cache and ordering
// spans into their layers; see README.md for the self-time formulas.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "service/cache.h"
#include "service/protocol.h"

namespace perfbench {

/// In-memory span recorder; spans are written out once, at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    int parent = -1;  // index into spans(), -1 for a root
    std::size_t request = 0;
  };

  /// Opens a span and returns its index.
  int open(std::string name, int parent, std::size_t request);
  void close(int span);

  const std::vector<Span>& spans() const { return spans_; }
  double duration(int span) const {
    return spans_[span].end - spans_[span].start;
  }

  /// One JSON object per line.
  void write_jsonl(std::ostream& out) const;

 private:
  double now() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// Per-layer seconds and counters of one replayed request.
struct LayerSample {
  double request_s = 0.0;
  double decode_s = 0.0;
  double encode_s = 0.0;
  /// Sum of the request span's direct children (coverage numerator).
  double children_s = 0.0;
  double model_s = 0.0;
  double eigensolve_s = 0.0;
  double disk_hit_s = 0.0;
  /// Self time of the cache span: cache span minus model, eigensolve and
  /// disk-hit time inside it.
  double cache_self_s = 0.0;
  /// Self time of the ordering span: melo_orderings minus the cache span
  /// and the model time spent inside it outside the cache.
  double ordering_self_s = 0.0;
  double split_s = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t bytes_moved = 0;
  std::size_t fallbacks = 0;
  bool multilevel = false;  // a multilevel eigensolve ran
  std::uint64_t ml_levels = 0;
  std::uint64_t ml_coarsest_n = 0;
  std::uint64_t ml_refine_sweeps = 0;
  std::size_t model_nnz = 0;  // 0 when the request built no operator
  double key_evals = 0.0;     // computed, see README.md
  double dprp_cells = 0.0;    // computed, see README.md
  double min_cluster_share = 1.0;
  std::size_t request_bytes = 0;
  std::string response_wire;
};

/// Replays request `index` (its wire frame) against `cache` with one kernel
/// thread. Never throws for a request the service would answer with an
/// error response; the error is in the response bytes like the service's.
LayerSample replay_request(const std::string& request_wire,
                           std::size_t index,
                           specpart::service::EmbeddingCache& cache,
                           Tracer& tracer);

}  // namespace perfbench
