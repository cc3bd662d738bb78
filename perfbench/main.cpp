// e2e_bench: the end-to-end request benchmark of the specpart service.
//
//   e2e_bench --workload <cold_flat|cold_large_multilevel|warm_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--trace-out <file.jsonl>]
//
// One closed-loop client in one process sends the workload's requests
// (workloads.h) through the public serving API — PartitionService::submit
// for the cold workloads, ShardRouter -> loopback ShardServer for
// warm_mixed — with one service worker and one kernel thread, for
// --seconds. Every response is validated (validate.h); exact repeats must
// return byte-identical responses.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the timed phase
// for half of --seconds, then replays the first cycle of requests through
// the traced call chain (replay.h), asserts the replay's response bytes
// equal the served ones, and prints the per-layer metrics. The last line
// of stdout is one JSON object {correct, attempted, failed, metrics}; the
// exit code is 0 only when every check passed. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "replay.h"
#include "service/router.h"
#include "service/server.h"
#include "service/service.h"
#include "validate.h"
#include "workloads.h"

namespace sp = specpart;
namespace fs = std::filesystem;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  WorkloadKind kind = WorkloadKind::kColdFlat;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.kind = parse_workload(value);
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--workdir") {
      a.workdir = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload || a.workdir.empty() || a.seconds <= 0.0)
    throw std::invalid_argument(
        "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --workdir <dir> [--trace-out <file>]");
  return a;
}

/// Sample quantile with linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(double sum, std::size_t count) {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

sp::service::ServiceOptions service_options(const std::string& cache_dir) {
  sp::service::ServiceOptions so;
  so.num_workers = 1;
  so.parallel = sp::ParallelConfig::with_threads(1);
  so.cache.cache_dir = cache_dir;
  return so;
}

/// The system under test: an in-process PartitionService (cold workloads)
/// or a ShardRouter in front of one loopback ShardServer (warm_mixed).
/// Members are destroyed router first, so no connection outlives its shard.
struct Serving {
  std::unique_ptr<sp::service::PartitionService> service;
  std::unique_ptr<sp::service::ShardServer> server;
  std::unique_ptr<sp::service::ShardRouter> router;

  sp::service::PartitionService& engine() {
    return server ? server->service() : *service;
  }
  sp::service::PartitionResponse call(const sp::service::PartitionRequest& r) {
    return router ? router->route(r) : service->submit(r).get();
  }
  /// Seconds the engine has spent executing requests so far.
  double engine_seconds() { return engine().snapshot().latency.sum_seconds; }
};

void start_shard(Serving& s, const std::string& cache_dir) {
  s.router.reset();
  s.server.reset();
  sp::service::ShardServerOptions so;
  so.service = service_options(cache_dir);
  s.server = std::make_unique<sp::service::ShardServer>(so);
  sp::service::RouterOptions ro;
  sp::service::ShardClientOptions client;
  client.port = s.server->port();
  client.io_timeout_ms = 120000;
  ro.shards.push_back(client);
  ro.local = service_options("");
  s.router = std::make_unique<sp::service::ShardRouter>(ro);
}

/// One served request of the timed phase.
struct Record {
  ScheduledRequest scheduled;
  double latency_s = 0.0;
  double engine_s = 0.0;
  std::string response_wire;
  std::string status;
  double cut = 0.0;
  double scaled_cost = 0.0;
  double conductance = 0.0;
  bool valid = false;
};

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0.0;
    entries_.emplace_back(name, std::make_pair(value, unit));
  }
  std::string json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].first.c_str(),
                    entries_[i].second.first, entries_[i].second.second);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, const char*>>> entries_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Failures {
  std::size_t count = 0;
  void note(const std::string& what) {
    ++count;
    if (count <= 20) std::cerr << "e2e_bench: FAILED: " << what << "\n";
  }
};

int run(const Args& args) {
  const bool warm = args.kind == WorkloadKind::kWarmMixed;
  const std::string store_dir =
      args.kind == WorkloadKind::kColdLargeMultilevel
          ? ""
          : (fs::path(args.workdir) / "store").string();
  Failures failures;

  // ---- Set-up ------------------------------------------------------------
  // Cold: build the workload and start the service, five times (fresh
  // store each), median reported. Warm: build the pool, solve every
  // (netlist, cache-key setting) so the bases spill to the store, then
  // restart the service on the same directory (three restarts, median).
  std::unique_ptr<Workload> workload;
  Serving serving;
  double setup_s = 0.0;
  if (!warm) {
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
      const std::string dir =
          store_dir.empty() ? "" : store_dir + "-" + std::to_string(rep);
      serving.service.reset();
      const Clock::time_point t0 = Clock::now();
      workload = std::make_unique<Workload>(args.kind, args.seed);
      serving.service = std::make_unique<sp::service::PartitionService>(
          service_options(dir));
      times.push_back(since(t0));
    }
    setup_s = quantile(times, 0.5);
  } else {
    const Clock::time_point t0 = Clock::now();
    workload = std::make_unique<Workload>(args.kind, args.seed);
    {
      sp::service::PartitionService prewarm(service_options(store_dir));
      for (const sp::service::PartitionRequest& req :
           workload->prewarm_requests()) {
        const Validation v = validate(req, prewarm.execute(req));
        if (!v.failure.empty()) failures.note("prewarm: " + v.failure);
      }
      if (prewarm.cache_stats().misses != prewarm.snapshot().storage.spills)
        failures.note("prewarm: not every solve spilled to the store");
    }
    const double prewarm_s = since(t0);
    std::vector<double> restarts;
    for (int rep = 0; rep < 3; ++rep) {
      const Clock::time_point r0 = Clock::now();
      start_shard(serving, store_dir);
      restarts.push_back(since(r0));
    }
    setup_s = prewarm_s + quantile(restarts, 0.5);
  }

  // ---- Timed phase: closed loop, one client ------------------------------
  const double phase_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const std::size_t min_requests = workload->cycle_length();
  std::vector<Record> records;
  std::map<std::string, std::string> seen;  // request wire -> response wire
  // Peak RSS once the first cycle is done: a time-bounded run that fits
  // more cold requests also caches more bases, which must not read as a
  // memory regression of a faster build.
  double rss_mb = 0.0;
  const Clock::time_point phase_start = Clock::now();
  for (std::size_t i = 0;
       i < min_requests || since(phase_start) < phase_s; ++i) {
    Record rec;
    rec.scheduled = workload->request(i);
    const double engine_before = serving.engine_seconds();
    const Clock::time_point t0 = Clock::now();
    const sp::service::PartitionResponse resp =
        serving.call(rec.scheduled.request);
    rec.latency_s = since(t0);
    rec.engine_s = serving.engine_seconds() - engine_before;
    rec.response_wire = response_wire(resp);
    rec.status = resp.status;
    rec.cut = resp.cut;
    rec.scaled_cost = resp.scaled_cost;
    const Validation v = validate(rec.scheduled.request, resp);
    rec.valid = v.failure.empty();
    rec.conductance = v.conductance;
    if (!rec.valid)
      failures.note("request " + std::to_string(i) + ": " + v.failure);
    auto [it, fresh] = seen.emplace(rec.scheduled.wire, rec.response_wire);
    if (!fresh && it->second != rec.response_wire) {
      rec.valid = false;
      failures.note("request " + std::to_string(i) +
                    ": exact repeat returned different response bytes");
    }
    records.push_back(std::move(rec));
    if (records.size() == min_requests) rss_mb = peak_rss_mb();
  }

  if (warm) {
    // The timed phase must run no eigensolve: every lookup is a tier-1 hit
    // or a tier-2 read.
    const sp::service::EmbeddingCacheStats c = serving.engine().cache_stats();
    const std::uint64_t disk_hits =
        serving.engine().snapshot().storage.disk_hits;
    if (c.hits + disk_hits != c.lookups)
      failures.note("warm_mixed turned cold: " + std::to_string(c.hits) +
                    " tier-1 hits + " + std::to_string(disk_hits) +
                    " disk hits != " + std::to_string(c.lookups) +
                    " lookups");
  }

  std::vector<double> latencies;
  double busy_s = 0.0;
  double transport_s = 0.0;
  std::size_t invalid = 0;
  std::size_t degraded = 0;
  for (const Record& r : records) {
    latencies.push_back(r.latency_s);
    busy_s += r.latency_s;
    transport_s += r.latency_s - r.engine_s;
    invalid += r.valid ? 0 : 1;
    degraded += r.status == "degraded" ? 1 : 0;
  }
  const std::size_t attempted = records.size();

  // Quality over the first cycle, which every run completes: deterministic
  // for a seed however many requests the time window held.
  double cut_sum = 0.0, cond_sum = 0.0, sc_multi = 0.0, sc_all = 0.0;
  std::size_t cut_n = 0, cond_n = 0, multi_n = 0;
  for (std::size_t i = 0; i < min_requests; ++i) {
    const Record& r = records[i];
    const sp::service::PartitionRequest& req = r.scheduled.request;
    const bool normalized =
        req.pipeline.objective == sp::core::ObjectiveModel::kNormalizedSymmetric;
    if (req.k == 2 && !normalized) cut_sum += r.cut, ++cut_n;
    if (req.k == 2 && normalized) cond_sum += r.conductance, ++cond_n;
    if (req.k > 2) sc_multi += r.scaled_cost, ++multi_n;
    sc_all += r.scaled_cost;
  }

  Metrics metrics;
  if (!args.trace) {
    metrics.add("setup_s", setup_s, "s");
    metrics.add("latency_p50_s", quantile(latencies, 0.5), "s");
    metrics.add("latency_p90_s", quantile(latencies, 0.9), "s");
    metrics.add("throughput_rps", static_cast<double>(attempted) / busy_s,
                "1/s");
    metrics.add("peak_rss_mb", rss_mb, "MB");
    metrics.add("cut_mean", mean(cut_sum, cut_n), "nets");
    metrics.add("conductance_mean", mean(cond_sum, cond_n), "ratio");
    // Over k > 2 requests; a workload that sends none takes every request
    // (the response carries scaled_cost for k = 2 too).
    metrics.add("scaled_cost_mean",
                multi_n > 0 ? mean(sc_multi, multi_n)
                            : mean(sc_all, min_requests),
                "cost");
  } else {
    // ---- Traced replay of the first cycle --------------------------------
    sp::service::EmbeddingCacheOptions co = service_options("").cache;
    // Same cache state the served requests met: the warm store as set-up
    // left it, a fresh store for cold_flat, no store for the other.
    if (!store_dir.empty())
      co.cache_dir = warm ? store_dir : store_dir + "-replay";
    sp::service::EmbeddingCache cache(co);
    Tracer tracer;
    std::vector<LayerSample> samples;
    double engine_sum = 0.0;
    for (std::size_t i = 0; i < min_requests; ++i) {
      samples.push_back(
          replay_request(records[i].scheduled.wire, i, cache, tracer));
      engine_sum += records[i].engine_s;
      if (samples.back().response_wire != records[i].response_wire)
        failures.note("replay of request " + std::to_string(i) +
                      " differs from the served response");
    }
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      tracer.write_jsonl(out);
    }

    LayerSample sum;
    double min_share = 1.0;
    std::size_t ml = 0, built = 0;
    double ml_levels = 0, ml_coarsest = 0, ml_sweeps = 0, nnz = 0;
    double flops = 0, bytes = 0, fallbacks = 0;
    for (const LayerSample& s : samples) {
      sum.request_s += s.request_s;
      sum.children_s += s.children_s;
      sum.decode_s += s.decode_s;
      sum.encode_s += s.encode_s;
      sum.model_s += s.model_s;
      sum.eigensolve_s += s.eigensolve_s;
      sum.disk_hit_s += s.disk_hit_s;
      sum.cache_self_s += s.cache_self_s;
      sum.ordering_self_s += s.ordering_self_s;
      sum.split_s += s.split_s;
      sum.key_evals += s.key_evals;
      sum.dprp_cells += s.dprp_cells;
      sum.request_bytes += s.request_bytes;
      flops += static_cast<double>(s.flops);
      bytes += static_cast<double>(s.bytes_moved);
      fallbacks += static_cast<double>(s.fallbacks);
      min_share = std::min(min_share, s.min_cluster_share);
      if (s.multilevel) {
        ++ml;
        ml_levels += static_cast<double>(s.ml_levels);
        ml_coarsest += static_cast<double>(s.ml_coarsest_n);
        ml_sweeps += static_cast<double>(s.ml_refine_sweeps);
      }
      if (s.model_nnz > 0) {
        ++built;
        nnz += static_cast<double>(s.model_nnz);
      }
    }
    const std::size_t n = samples.size();
    const sp::service::EmbeddingCacheStats cs = cache.stats();
    const sp::storage::StoreStats ds = cache.disk_stats();
    const sp::service::MetricsSnapshot snap =
        serving.router ? serving.router->snapshot()
                       : serving.engine().snapshot();

    metrics.add("eigensolve.s", mean(sum.eigensolve_s, n), "s");
    metrics.add("eigensolve.flops", mean(flops, n), "flop");
    metrics.add("eigensolve.matrix_bytes_moved", mean(bytes, n), "B");
    metrics.add("eigensolve.fallbacks", mean(fallbacks, n), "count");
    metrics.add("eigensolve.gflops_per_s",
                sum.eigensolve_s > 0.0 ? flops / sum.eigensolve_s / 1e9 : 0.0,
                "GFLOP/s");
    metrics.add("multilevel.levels", mean(ml_levels, ml), "count");
    metrics.add("multilevel.coarsest_n", mean(ml_coarsest, ml), "count");
    metrics.add("multilevel.refine_sweeps", mean(ml_sweeps, ml), "count");
    metrics.add("ordering.s", mean(sum.ordering_self_s, n), "s");
    metrics.add("ordering.key_evals", mean(sum.key_evals, n), "count");
    metrics.add("model.s", mean(sum.model_s, n), "s");
    metrics.add("model.nnz", mean(nnz, built), "count");
    metrics.add("split.s", mean(sum.split_s, n), "s");
    metrics.add("split.dprp_cells", mean(sum.dprp_cells, n), "count");
    metrics.add("split.min_cluster_share", min_share, "ratio");
    metrics.add("cache.lookup_s", mean(sum.cache_self_s, n), "s");
    metrics.add("cache.hit_rate", cs.hit_rate(), "ratio");
    metrics.add("cache.prefix_hits", static_cast<double>(cs.prefix_hits),
                "count");
    metrics.add("storage.disk_hits", static_cast<double>(ds.hits), "count");
    metrics.add("storage.disk_hit_s", mean(sum.disk_hit_s, ds.hits), "s");
    metrics.add("storage.spills", static_cast<double>(ds.spills), "count");
    metrics.add("storage.spill_failures",
                static_cast<double>(ds.spill_failures), "count");
    metrics.add("storage.bytes_on_disk", static_cast<double>(ds.bytes_on_disk),
                "B");
    metrics.add("protocol.encode_s", mean(sum.encode_s, n), "s");
    metrics.add("protocol.decode_s", mean(sum.decode_s, n), "s");
    metrics.add("protocol.request_bytes",
                mean(static_cast<double>(sum.request_bytes), n), "B");
    metrics.add("router.route_s", mean(transport_s, attempted), "s");
    metrics.add("router.retries", static_cast<double>(snap.router.retries),
                "count");
    metrics.add("router.failovers", static_cast<double>(snap.router.failovers),
                "count");
    metrics.add("error_share",
                mean(static_cast<double>(invalid), attempted), "ratio");
    metrics.add("degraded_share",
                mean(static_cast<double>(degraded), attempted), "ratio");
    metrics.add("latency_samples", static_cast<double>(attempted), "count");
    metrics.add("trace.overhead_s", mean(sum.request_s - engine_sum, n), "s");
    metrics.add("trace.span_coverage",
                sum.request_s > 0.0 ? sum.children_s / sum.request_s : 0.0,
                "ratio");
  }

  std::cerr << "e2e_bench: " << workload_name(args.kind) << " seed "
            << args.seed << ": " << attempted << " requests, " << invalid
            << " invalid, " << failures.count << " failed check(s)\n";
  const bool correct = failures.count == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted,
              std::min(attempted, std::max(invalid, failures.count)),
              metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
}
