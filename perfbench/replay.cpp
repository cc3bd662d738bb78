#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "core/drivers.h"
#include "part/objectives.h"
#include "part/ordering.h"
#include "part/sweep_cut.h"
#include "spectral/dprp.h"
#include "util/error.h"
#include "util/status.h"

namespace perfbench {

namespace sp = specpart;

namespace {

double stage_seconds(const sp::Diagnostics& diag, const std::string& name) {
  for (const sp::StageStats& s : diag.stages())
    if (s.name == name) return s.seconds;
  return 0.0;
}

std::size_t stage_calls(const sp::Diagnostics& diag, const std::string& name) {
  for (const sp::StageStats& s : diag.stages())
    if (s.name == name) return s.calls;
  return 0;
}

/// RAII span.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, int parent, std::size_t request)
      : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Closes early (idempotent) and returns the span's duration.
  double close() {
    if (!closed_) tracer_.close(id_);
    closed_ = true;
    return tracer_.duration(id_);
  }
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
  bool closed_ = false;
};

/// DP-RP cells one dprp_split call evaluates without size bounds: level 1
/// extends the single start 0 to every end (n cells); level l >= 2 extends
/// every start i in [l-1, n-1] to every end in (i, n].
double dprp_cells(std::size_t n, std::uint32_t k) {
  double cells = static_cast<double>(n);
  for (std::uint32_t level = 2; level <= k; ++level) {
    const double m = static_cast<double>(n - level + 1);
    cells += m * (m + 1.0) / 2.0;
  }
  return cells;
}

/// The split step of core::melo_bipartition / core::melo_multiway, run on
/// the orderings melo_orderings returned; fills the response fields the
/// service fills.
void split(const sp::service::PartitionRequest& req,
           const std::vector<sp::core::MeloOrderingRun>& runs,
           const sp::ParallelConfig& parallel,
           sp::service::PartitionResponse& resp, LayerSample& sample) {
  const sp::graph::Hypergraph& h = req.graph;
  const std::size_t n = h.num_nodes();
  sp::part::Partition best;
  bool have = false;
  for (const sp::core::MeloOrderingRun& run : runs) {
    resp.eigenvectors_used = run.eigenvectors_used;
    resp.eigen_converged = run.eigen_converged;
    resp.budget_exhausted = resp.budget_exhausted || run.budget_exhausted;
  }
  if (req.k == 2) {
    const bool sweep_cut =
        req.pipeline.objective == sp::core::ObjectiveModel::kNormalizedSymmetric;
    double best_objective = std::numeric_limits<double>::infinity();
    for (const sp::core::MeloOrderingRun& run : runs) {
      const sp::part::SplitResult s =
          sweep_cut
              ? sp::part::best_conductance_split(h, run.ordering, req.balance)
              : (req.balance > 0.0
                     ? sp::part::best_min_cut_split(h, run.ordering,
                                                    req.balance)
                     : sp::part::best_ratio_cut_split(h, run.ordering));
      if (!s.feasible) continue;
      if (!have || s.objective < best_objective) {
        have = true;
        best_objective = s.objective;
        best = sp::part::split_to_partition(run.ordering, s.split);
        resp.cut = s.cut;
      }
    }
    SP_CHECK_INPUT(have, "MELO bipartition: no feasible split");
    resp.ratio_cut = sp::part::ratio_cut(h, best);
    resp.scaled_cost = sp::part::scaled_cost(h, best);
  } else {
    sp::spectral::DprpOptions dopts;
    dopts.k = req.k;
    dopts.parallel = parallel;
    for (const sp::core::MeloOrderingRun& run : runs) {
      const sp::spectral::DprpResult dp =
          sp::spectral::dprp_split(h, run.ordering, dopts);
      sample.dprp_cells += dprp_cells(n, req.k);
      if (!have || dp.scaled_cost < resp.scaled_cost) {
        have = true;
        best = dp.partition;
        resp.scaled_cost = dp.scaled_cost;
      }
    }
    resp.cut = sp::part::cut_nets(h, best);
    resp.ratio_cut = 0.0;
  }
  resp.assignment = best.assignment();
  for (std::uint32_t c = 0; c < best.k(); ++c)
    sample.min_cluster_share =
        std::min(sample.min_cluster_share,
                 static_cast<double>(best.cluster_size(c)) /
                     static_cast<double>(n));
}

}  // namespace

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int Tracer::open(std::string name, int parent, std::size_t request) {
  Span s;
  s.name = std::move(name);
  s.start = now();
  s.parent = parent;
  s.request = request;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int span) { spans_[span].end = now(); }

void Tracer::write_jsonl(std::ostream& out) const {
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"parent\": %d, \"request\": %zu}\n",
                  s.name.c_str(), s.start, s.end, s.parent, s.request);
    out << line;
  }
}

LayerSample replay_request(const std::string& request_wire,
                           std::size_t index,
                           sp::service::EmbeddingCache& cache,
                           Tracer& tracer) {
  LayerSample sample;
  sample.request_bytes = request_wire.size();
  SpanScope request_span(tracer, "request", -1, index);
  const int root = request_span.id();

  sp::service::PartitionRequest req;
  {
    SpanScope span(tracer, "protocol.decode", root, index);
    std::istringstream in(request_wire);
    std::string header;
    std::getline(in, header);
    req = sp::service::parse_request(header, in);
    sample.decode_s = span.close();
  }

  sp::service::PartitionResponse resp;
  resp.id = req.id;
  resp.k = req.k;
  sp::Diagnostics diag;
  const sp::ParallelConfig serial = sp::ParallelConfig::with_threads(1);
  double ordering_s = 0.0;
  double cache_s = 0.0;
  double model_in_cache_s = 0.0;
  try {
    SP_CHECK_INPUT(req.graph.num_nodes() >= 2,
                   "request graph needs at least 2 vertices");
    SP_CHECK_INPUT(req.k >= 2, "request k must be >= 2");
    SP_CHECK_INPUT(req.k <= req.graph.num_nodes(),
                   "request k exceeds the vertex count");
    sp::core::MeloOptions m;
    static_cast<sp::core::PipelineConfig&>(m) = req.pipeline;
    m.parallel = serial;
    m.diagnostics = &diag;

    std::vector<sp::core::MeloOrderingRun> runs;
    {
      SpanScope ordering_span(tracer, "ordering", root, index);
      const int ordering_id = ordering_span.id();
      m.embedding_provider = [&](const sp::model::CliqueModel& cm,
                                 const sp::spectral::EmbeddingOptions& eopts,
                                 sp::Diagnostics* d, sp::ComputeBudget* b) {
        SpanScope cache_span(tracer, "cache", ordering_id, index);
        const double model_before = stage_seconds(*d, "model");
        sp::spectral::EigenBasis basis = cache.compute(cm, eopts, d, b);
        model_in_cache_s += stage_seconds(*d, "model") - model_before;
        if (cm.laplacian_built()) sample.model_nnz = cm.laplacian().nnz();
        cache_s += cache_span.close();
        return basis;
      };
      runs = sp::core::melo_orderings(req.graph, m);
      ordering_s = ordering_span.close();
    }
    {
      SpanScope span(tracer, "split", root, index);
      split(req, runs, serial, resp, sample);
      sample.split_s = span.close();
    }
    resp.status = std::string(sp::service::status_token(
        resp.budget_exhausted  ? sp::StatusCode::kBudgetExhausted
        : resp.eigen_converged ? sp::StatusCode::kOk
                               : sp::StatusCode::kDegraded));
    const double n = static_cast<double>(req.graph.num_nodes());
    sample.key_evals = static_cast<double>(
                           std::max<std::size_t>(1, req.pipeline.num_starts)) *
                       n * (n - 1.0) / 2.0;
  } catch (const sp::Error& e) {
    resp = sp::service::PartitionResponse();
    resp.id = req.id;
    resp.k = req.k;
    resp.status = "error";
    resp.error = e.what();
  }

  {
    SpanScope span(tracer, "protocol.encode", root, index);
    std::ostringstream out;
    sp::service::write_response(resp, out);
    sample.response_wire = out.str();
    sample.encode_s = span.close();
  }
  sample.request_s = request_span.close();

  sample.model_s = stage_seconds(diag, "model");
  sample.eigensolve_s = stage_seconds(diag, "eigensolve");
  sample.disk_hit_s = stage_seconds(diag, "embedding_cache_disk_hit");
  sample.cache_self_s =
      cache_s - model_in_cache_s - sample.eigensolve_s - sample.disk_hit_s;
  sample.ordering_self_s =
      ordering_s - cache_s - (sample.model_s - model_in_cache_s);
  sample.children_s =
      sample.decode_s + ordering_s + sample.split_s + sample.encode_s;
  sample.flops = diag.counter("eigensolve", "flops");
  sample.bytes_moved = diag.counter("eigensolve", "matrix_bytes_moved");
  sample.fallbacks = diag.stage_fallbacks("eigensolve");
  sample.multilevel =
      req.pipeline.solver.strategy == sp::core::SolverStrategy::kMultilevel &&
      stage_calls(diag, "eigensolve") > 0;
  sample.ml_levels = diag.counter("eigensolve", "multilevel_levels");
  sample.ml_coarsest_n = diag.counter("eigensolve", "multilevel_coarsest_n");
  sample.ml_refine_sweeps =
      diag.counter("eigensolve", "multilevel_refine_sweeps");
  return sample;
}

}  // namespace perfbench
