// servebench: the repository's end-to-end serving benchmark.
//
// One process runs one workload: closed-loop clients send requests through
// QueryService with its shipped defaults, each client issuing its next
// request only when the previous one returned. Three workloads each put a
// different layer on the critical path (see NOTES.md for why and sizes):
//
//   job_adhoc        execution-bound    JOB-lite 0.1,       1 client
//   customer_adhoc   planning-bound     CUSTOMER-lite 0.1,  4 clients
//   tpcds_templated  warm plan cache    TPC-DS-lite 1,      4 clients
//
// The ad hoc workloads never serve one query text twice from the same
// QueryService: every pass over the base queries gets a fresh service,
// built and torn down off the clock. The templated workload draws
// requests by Zipf from a fixed template set smaller than the plan cache
// and jitters each request's int constants by a few percent.
//
// Every run also makes the "paper pass": for each base query the BQO and
// the Original plans run alternately on the direct path (OptimizeQuery +
// ExecutePlan, no service), and BQO's summed minimum cpu_ns over
// Original's is the paper's Fig 8 ratio. The same pass yields the
// reference checksum every served result is verified against.
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes the separate
// traced run that splits request time by layer from the span trees
// QueryService returns and from the benchmark's own timed calls into each
// layer's public functions. Usage:
//
//   servebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. Exit code 0 = the measurement completed (correct may still be
// false); non-zero = it could not be made (bad arguments, or a percentile
// without enough samples beyond it).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve_core.h"
#include "src/obs/explain.h"
#include "src/optimizer/parameterized.h"
#include "src/server/query_service.h"
#include "src/workload/runner.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using bqo::QuerySpec;
using Clock = std::chrono::steady_clock;

/// Request-stream seed used when --seed is absent, and the held-out seed
/// a claimed gain must also hold on (never used while tuning a change).
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 90001;

/// Set-ups per trace-0 run; setup_s is their median.
constexpr int kSetups = 3;
/// Alternations per base query in the paper pass (minimum cpu_ns kept).
constexpr int kPaperReps = 2;

// Templated workload shape (tpcds_templated).
constexpr int kTemplates = 48;        ///< of TPC-DS-lite's 99; < 64 cache slots
constexpr int kVariants = 4;          ///< constant variants per template
constexpr double kZipfTheta = 0.9;
constexpr double kJitter = 0.04;      ///< max relative move of an int constant

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct WorkloadDef {
  const char* name;
  const char* why;
  double scale;
  int clients;
  bool adhoc;
  /// Ad hoc set-up: warm-up queries per client, served in index order on
  /// a throwaway service (-1 = one full pass).
  int warmup_per_client;
  /// Base queries put through the direct layer calls in the traced run.
  int layer_sample;
  double paper_ratio;  ///< the paper's Fig 8 BQO/Original for this workload
  bqo::Workload (*make)(double scale);
};

const WorkloadDef kWorkloads[] = {
    {"job_adhoc", "execution-bound: every query planned cold, exec dominates",
     0.1, 1, true, -1, 113, 0.36,
     [](double s) { return bqo::MakeJobLite(s); }},
    {"customer_adhoc",
     "planning-bound: 25-relation queries, optimize dominates", 0.1, 4, true,
     4, 12, 0.75,
     [](double s) { return bqo::MakeCustomerLite(s); }},
    {"tpcds_templated",
     "warm path: plan-cache rebinds and shared builds under 4 clients", 1.0,
     4, false, 0, 99, 0.78,
     [](double s) { return bqo::MakeTpcdsLite(s); }},
};

struct Args {
  const WorkloadDef* def = nullptr;
  uint64_t seed = kDefaultSeed;
  double seconds = 25;
  bool trace = false;
};

/// What a correct execution of a request returns.
struct Reference {
  uint64_t checksum = 0;
  int64_t rows = -1;  ///< -1 = not computed; matches no result

  static Reference Of(const bqo::QueryMetrics& m) {
    return {m.result_checksum, m.result_rows};
  }
  bool operator==(const Reference&) const = default;
};

/// The generated inputs of one run: the database, the distinct requests
/// (ad hoc: the base queries; templated: template x variant), and the
/// reference result of each.
struct Inputs {
  std::unique_ptr<bqo::Workload> workload;
  std::vector<QuerySpec> requests;
  std::vector<Reference> refs;
  std::vector<int> template_query;  ///< templated: rank -> base query index

  int num_base() const { return static_cast<int>(workload->queries.size()); }
};

void MakeRequests(const Args& args, Inputs* in) {
  const auto& base = in->workload->queries;
  in->requests.clear();
  in->template_query.clear();
  if (args.def->adhoc) {
    in->requests = base;
  } else {
    // A fixed, evenly spread template set and popularity order: the seed
    // moves the draws and the jitter, never which templates are hot, so
    // the mix a run measures is the same across seeds.
    const int n = static_cast<int>(base.size());
    for (int r = 0; r < kTemplates; ++r) {
      const int q = r * n / kTemplates;
      in->template_query.push_back(q);
      for (int v = 0; v < kVariants; ++v) {
        const uint64_t id = static_cast<uint64_t>(r * kVariants + v);
        in->requests.push_back(
            v == 0 ? base[static_cast<size_t>(q)]
                   : JitterConstants(base[static_cast<size_t>(q)],
                                     Mix(args.seed, id), kJitter));
      }
    }
  }
  in->refs.assign(in->requests.size(), Reference{});
}

/// Direct-path execution options for one spec (single-threaded, no
/// service, no build cache) — the uncached path references come from.
bqo::ExecutionOptions DirectExec(const QuerySpec& spec) {
  bqo::ExecutionOptions exec;
  exec.agg = spec.agg;
  return exec;
}

bqo::JoinGraph Bind(const bqo::Catalog& catalog, const QuerySpec& spec,
                    bool attach_statistics = true) {
  auto graph = bqo::BuildJoinGraph(catalog, spec, attach_statistics);
  BQO_CHECK_MSG(graph.ok(), ("query failed to bind: " + spec.name).c_str());
  return std::move(graph.value());
}

// ---------------------------------------------------------------------
// Paper pass
// ---------------------------------------------------------------------

struct PaperPass {
  double bqo_cpu_s = 0;
  double original_cpu_s = 0;
  double l_group_speedup = 0;
  int pruned_filters = 0;  ///< BQO plans, summed over base queries
  int pairs = 0;
  int mismatches = 0;  ///< BQO and Original disagreed on a result
  double ratio() const { return bqo_cpu_s / original_cpu_s; }
};

/// Fig 8 over the base queries: BQO and Original plans alternate, the
/// side that runs first alternates too, and each keeps its minimum
/// cpu_ns. BQO's result becomes the query's reference.
PaperPass RunPaperPass(Inputs* in) {
  const bqo::Workload& w = *in->workload;
  bqo::StatsCatalog stats(w.catalog.get());
  bqo::OptimizerOptions bqo_options;  // shipped default: kBqoShallow
  bqo::OptimizerOptions original_options;
  original_options.mode = bqo::OptimizerMode::kBaselinePostProcess;

  PaperPass pass;
  std::vector<bqo::QueryRun> original_runs(w.queries.size());
  std::vector<int64_t> bqo_cpu(w.queries.size());
  std::vector<Reference> base_refs(w.queries.size());
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const QuerySpec& spec = w.queries[i];
    const bqo::JoinGraph graph = Bind(*w.catalog, spec);
    const bqo::OptimizedQuery bqo_plan =
        bqo::OptimizeQuery(graph, &stats, bqo_options);
    const bqo::OptimizedQuery original_plan =
        bqo::OptimizeQuery(graph, &stats, original_options);
    pass.pruned_filters += bqo_plan.pruned_filters;
    const bqo::ExecutionOptions exec = DirectExec(spec);

    int64_t best[2] = {INT64_MAX, INT64_MAX};  // [original, bqo]
    Reference first[2];
    for (int rep = 0; rep < kPaperReps; ++rep) {
      for (int k = 0; k < 2; ++k) {
        const int side = (rep + k) % 2;
        const bqo::QueryMetrics m = bqo::ExecutePlan(
            side == 0 ? original_plan.plan : bqo_plan.plan, exec);
        if (rep == 0) first[side] = Reference::Of(m);
        if (Reference::Of(m) != first[side]) ++pass.mismatches;
        best[side] = std::min(best[side], m.cpu_ns);
      }
    }
    if (first[0] != first[1]) ++pass.mismatches;
    ++pass.pairs;
    base_refs[i] = first[1];
    original_runs[i].metrics.total_ns = best[0];  // groups by Original CPU
    bqo_cpu[i] = best[1];
    pass.original_cpu_s += static_cast<double>(best[0]) / 1e9;
    pass.bqo_cpu_s += static_cast<double>(best[1]) / 1e9;
  }

  double l_original = 0, l_bqo = 0;
  const auto groups = bqo::GroupBySelectivity(original_runs);
  for (size_t i = 0; i < groups.size(); ++i) {
    if (groups[i] != bqo::QueryGroup::kL) continue;
    l_original += static_cast<double>(original_runs[i].metrics.total_ns);
    l_bqo += static_cast<double>(bqo_cpu[i]);
  }
  pass.l_group_speedup = l_bqo > 0 ? l_original / l_bqo : 0;

  // Reference results: base queries from the pass above; jittered
  // template variants through the same uncached direct path.
  if (in->template_query.empty()) {
    in->refs = base_refs;
  } else {
    for (size_t id = 0; id < in->requests.size(); ++id) {
      const int rank = static_cast<int>(id) / kVariants;
      if (id % kVariants == 0) {
        in->refs[id] =
            base_refs[static_cast<size_t>(in->template_query[rank])];
        continue;
      }
      const QuerySpec& spec = in->requests[id];
      const bqo::JoinGraph graph = Bind(*w.catalog, spec);
      const bqo::OptimizedQuery plan =
          bqo::OptimizeQuery(graph, &stats, bqo_options);
      const bqo::QueryMetrics m = bqo::ExecutePlan(plan.plan, DirectExec(spec));
      in->refs[id] = Reference::Of(m);
    }
  }
  return pass;
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/// Per-layer sums over traced requests (traced server only).
struct LayerTally {
  int64_t requests = 0;
  double query_ms = 0, admit_ms = 0, lookup_ms = 0, rebind_ms = 0,
         optimize_ms = 0, execute_ms = 0, acquire_wait_ms = 0, build_ms = 0,
         unattributed_ms = 0, scan_ms = 0, hash_join_ms = 0,
         aggregate_ms = 0;
  int64_t rebinds = 0, leaf_tuples = 0, join_tuples = 0, probe_in = 0,
          probe_matched = 0, filter_probed = 0, filter_passed = 0,
          filter_bytes = 0, fpr_leaked = 0, fpr_rejected = 0;

  void Add(const LayerTally& o) {
    requests += o.requests;
    query_ms += o.query_ms;
    admit_ms += o.admit_ms;
    lookup_ms += o.lookup_ms;
    rebind_ms += o.rebind_ms;
    optimize_ms += o.optimize_ms;
    execute_ms += o.execute_ms;
    acquire_wait_ms += o.acquire_wait_ms;
    build_ms += o.build_ms;
    unattributed_ms += o.unattributed_ms;
    scan_ms += o.scan_ms;
    hash_join_ms += o.hash_join_ms;
    aggregate_ms += o.aggregate_ms;
    rebinds += o.rebinds;
    leaf_tuples += o.leaf_tuples;
    join_tuples += o.join_tuples;
    probe_in += o.probe_in;
    probe_matched += o.probe_matched;
    filter_probed += o.filter_probed;
    filter_passed += o.filter_passed;
    filter_bytes += o.filter_bytes;
    fpr_leaked += o.fpr_leaked;
    fpr_rejected += o.fpr_rejected;
  }

  /// Fold one served query's span tree and merged operator counters in.
  void AddResult(const bqo::QueryResult& r) {
    ++requests;
    const std::vector<bqo::TraceSpan> spans = r.trace->spans();
    const auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
    double covered = 0;
    for (const bqo::TraceSpan& s : spans) {
      if (s.parent == 0) covered += ms(s.wall_ns);
      switch (s.kind) {
        case bqo::SpanKind::kQuery: query_ms += ms(s.wall_ns); break;
        case bqo::SpanKind::kAdmissionWait: admit_ms += ms(s.wall_ns); break;
        case bqo::SpanKind::kPlanCacheLookup: lookup_ms += ms(s.wall_ns); break;
        case bqo::SpanKind::kRebind:
          rebind_ms += ms(s.wall_ns);
          ++rebinds;
          break;
        case bqo::SpanKind::kOptimize: optimize_ms += ms(s.wall_ns); break;
        case bqo::SpanKind::kExecute: execute_ms += ms(s.wall_ns); break;
        case bqo::SpanKind::kBuildAcquire:
          // The builds inside are subtracted below.
          acquire_wait_ms += ms(s.wall_ns);
          break;
        case bqo::SpanKind::kBuild:
          build_ms += ms(s.wall_ns);
          if (s.parent >= 0 && spans[static_cast<size_t>(s.parent)].kind ==
                                   bqo::SpanKind::kBuildAcquire) {
            acquire_wait_ms -= ms(s.wall_ns);
          }
          break;
        default: break;
      }
    }
    // Request wall time no layer span covers (span 0 is the query root).
    if (!spans.empty()) unattributed_ms += ms(spans[0].wall_ns) - covered;

    const bqo::QueryMetrics& m = r.metrics;
    leaf_tuples += m.leaf_tuples;
    join_tuples += m.join_tuples;
    for (const bqo::OperatorStats& op : m.operators) {
      switch (op.type) {
        case bqo::OperatorType::kScan: scan_ms += ms(op.ns_self); break;
        case bqo::OperatorType::kHashJoin:
          hash_join_ms += ms(op.ns_self);
          probe_in += op.probe_rows_in;
          probe_matched += op.probe_rows_matched;
          break;
        case bqo::OperatorType::kAggregate:
          aggregate_ms += ms(op.ns_self);
          break;
        default: break;
      }
    }
    for (const bqo::FilterStats& f : m.filters) {
      if (!f.created) continue;
      filter_probed += f.probed;
      filter_passed += f.passed;
      filter_bytes += f.size_bytes;
    }
    // Measured FPR terms of each created filter, read at the join that
    // created it, as ExplainAnalyze computes its per-filter measured_fpr.
    if (r.explain == nullptr) return;
    for (const bqo::FilterExplainRow& f : r.explain->filters) {
      if (!f.created) continue;
      for (const bqo::OperatorStats& op : m.operators) {
        if (op.type != bqo::OperatorType::kHashJoin ||
            op.plan_node_id != f.source_join || op.probe_rows_in == 0) {
          continue;
        }
        fpr_leaked += op.probe_rows_in - op.probe_rows_matched;
        fpr_rejected += f.probed - f.passed;
      }
    }
  }
};

/// Cache and admission counters summed over the services a server used.
struct ServiceTally {
  bqo::PlanCacheStats plan;
  bqo::BuildCacheStats build;
  int64_t shed = 0;
  int64_t max_build_bytes = 0;  ///< a level (largest resident), not a sum

  static ServiceTally Of(const bqo::QueryService& s) {
    ServiceTally t;
    t.plan = s.cache_stats();
    t.build = s.build_cache_stats();
    t.shed = s.serving_stats().shed;
    t.max_build_bytes = t.build.bytes;
    return t;
  }

  /// Adds `sign` times the counters of `o`; -1 takes a snapshot back out.
  void Add(const ServiceTally& o, int64_t sign = 1) {
    plan.hits += sign * o.plan.hits;
    plan.misses += sign * o.plan.misses;
    plan.evictions += sign * o.plan.evictions;
    plan.shape_hits += sign * o.plan.shape_hits;
    plan.rebinds += sign * o.plan.rebinds;
    plan.reoptimizations += sign * o.plan.reoptimizations;
    build.lookups += sign * o.build.lookups;
    build.hits += sign * o.build.hits;
    build.single_flight_waits += sign * o.build.single_flight_waits;
    shed += sign * o.shed;
    if (sign > 0) {
      max_build_bytes = std::max(max_build_bytes, o.max_build_bytes);
    }
  }
};

struct ClientTally {
  std::vector<double> latency_ms;  ///< OK, verified requests only
  int64_t attempted = 0;
  int64_t failed = 0;  ///< non-OK status or wrong result
  double active_s = 0;  ///< loop time minus off-clock service turnover
  LayerTally layers;
};

/// Closed-loop clients over one request stream. Ad hoc: the clients share
/// one pass at a time — a seeded permutation of the base queries served
/// by a fresh service, so no service sees a query text twice and any run
/// covers whole passes plus one partial pass. Templated: the clients share
/// one warm service and draw tickets off one counter.
class Server {
 public:
  Server(const Args& args, const Inputs& in, bqo::QueryServiceOptions options,
         uint64_t stream)
      : args_(args), in_(in), stream_(stream), options_(std::move(options)),
        templated_(Mix(args.seed, stream), kTemplates, kVariants, kZipfTheta),
        clients_(static_cast<size_t>(args.def->clients)) {
    if (!args.def->adhoc) service_ = NewService();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Untimed warm-up, the same on every seed, left out of Services().
  /// Ad hoc: the first warm-up queries of the workload, in index order, on
  /// a throwaway service. Templated: every distinct request once, so the
  /// plan cache and StatsCatalog are warm before the clock starts.
  void Warmup() {
    const bool adhoc = args_.def->adhoc;
    const size_t count =
        !adhoc ? in_.requests.size()
        : args_.def->warmup_per_client < 0
            ? in_.requests.size()
            : std::min(in_.requests.size(),
                       static_cast<size_t>(args_.def->warmup_per_client *
                                           args_.def->clients));
    const std::shared_ptr<bqo::QueryService> service =
        adhoc ? std::make_shared<bqo::QueryService>(in_.workload->catalog.get(),
                                                    options_)
              : service_;
    std::atomic<size_t> next{0};
    Parallel([&](int) {
      for (size_t id; (id = next.fetch_add(1)) < count;) {
        service->Execute(in_.requests[id]);
      }
    });
    if (!adhoc) warmup_ = ServiceTally::Of(*service_);
  }

  /// Run every client closed-loop until `seconds` have passed (requests
  /// in flight at the deadline complete and count).
  void RunFor(double seconds, bool analyze) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    Parallel([&](int c) {
      ClientLoop(&clients_[static_cast<size_t>(c)], deadline, analyze);
    });
  }

  /// Sum of per-client OK rates: each client's verified requests over its
  /// on-clock time.
  double Qps() const {
    double qps = 0;
    for (const ClientTally& c : clients_) {
      if (c.active_s > 0) {
        qps += static_cast<double>(c.latency_ms.size()) / c.active_s;
      }
    }
    return qps;
  }

  ClientTally Merged() const {
    ClientTally all;
    for (const ClientTally& c : clients_) {
      all.latency_ms.insert(all.latency_ms.end(), c.latency_ms.begin(),
                            c.latency_ms.end());
      all.attempted += c.attempted;
      all.failed += c.failed;
      all.layers.Add(c.layers);
    }
    return all;
  }

  /// Counters of every service this server used, retired ones included,
  /// less the warm-up.
  ServiceTally Services() const {
    ServiceTally t;
    {
      std::lock_guard<std::mutex> lock(retired_mu_);
      t = retired_;
    }
    std::lock_guard<std::mutex> lock(pass_mu_);
    if (service_ != nullptr) t.Add(ServiceTally::Of(*service_));
    t.Add(warmup_, -1);
    return t;
  }

 private:
  template <typename Fn>
  void Parallel(Fn fn) {
    std::vector<std::thread> threads;
    for (int c = 0; c < args_.def->clients; ++c) threads.emplace_back(fn, c);
    for (std::thread& t : threads) t.join();
  }

  /// A service whose counters fold into retired_ when its last holder
  /// lets go (a pass's last in-flight request may outlive the pass).
  std::shared_ptr<bqo::QueryService> NewService() {
    return std::shared_ptr<bqo::QueryService>(
        new bqo::QueryService(in_.workload->catalog.get(), options_),
        [this](bqo::QueryService* s) {
          {
            std::lock_guard<std::mutex> lock(retired_mu_);
            retired_.Add(ServiceTally::Of(*s));
          }
          delete s;
        });
  }

  /// The next request of the stream and the service to send it to. Ad hoc
  /// pass turnover (a new service and permutation) is added to
  /// `off_clock_s`.
  std::shared_ptr<bqo::QueryService> Claim(size_t* id, double* off_clock_s) {
    if (!args_.def->adhoc) {
      const TemplatedRequest r = templated_.At(next_ticket_.fetch_add(1));
      *id = static_cast<size_t>(r.template_rank * kVariants + r.variant);
      return service_;
    }
    std::lock_guard<std::mutex> lock(pass_mu_);
    if (service_ == nullptr || pos_ == order_.size()) {
      const Clock::time_point t = Clock::now();
      service_ = NewService();
      order_ = PassOrder(args_.seed, stream_, pass_++, in_.num_base());
      pos_ = 0;
      *off_clock_s += SecondsSince(t);
    }
    *id = static_cast<size_t>(order_[pos_++]);
    return service_;
  }

  void ClientLoop(ClientTally* tally, Clock::time_point deadline,
                  bool analyze) {
    const Clock::time_point start = Clock::now();
    double off_clock_s = 0;
    while (Clock::now() < deadline) {
      size_t id = 0;
      std::shared_ptr<bqo::QueryService> service = Claim(&id, &off_clock_s);

      const Clock::time_point t0 = Clock::now();
      const bqo::QueryResult result = service->Execute(in_.requests[id]);
      const Clock::duration latency = Clock::now() - t0;

      ++tally->attempted;
      if (result.status.ok() && Reference::Of(result.metrics) == in_.refs[id]) {
        tally->latency_ms.push_back(Ms(latency));
      } else {
        ++tally->failed;
        std::fprintf(stderr, "[servebench] request %s failed: %s\n",
                     in_.requests[id].name.c_str(),
                     result.status.ok() ? "wrong result"
                                        : result.status.ToString().c_str());
      }
      if (analyze && result.trace != nullptr) tally->layers.AddResult(result);

      // The last holder of a finished pass's service tears it down here.
      const Clock::time_point t = Clock::now();
      service.reset();
      off_clock_s += SecondsSince(t);
    }
    tally->active_s += SecondsSince(start) - off_clock_s;
  }

  const Args& args_;
  const Inputs& in_;
  const uint64_t stream_;
  bqo::QueryServiceOptions options_;
  TemplatedStream templated_;
  std::atomic<uint64_t> next_ticket_{0};
  std::vector<ClientTally> clients_;

  mutable std::mutex retired_mu_;
  ServiceTally retired_;  ///< counters of services already torn down
  ServiceTally warmup_;   ///< templated: the service's counters after Warmup

  // Declared after retired_: the current service's deleter writes it.
  mutable std::mutex pass_mu_;
  std::shared_ptr<bqo::QueryService> service_;
  std::vector<int> order_;  ///< ad hoc: the current pass's permutation
  size_t pos_ = 0;
  uint64_t pass_ = 0;
};

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           const std::string& note = "") {
    std::printf("  %-28s %14.6g %-7s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// The machine-readable result: the last line of stdout.
  void PrintJson(bool correct, int64_t attempted, int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(), v,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Adds a latency percentile, or returns false (and says why) when the
/// sample cannot back it.
bool AddPercentile(Report* report, const std::string& name,
                   const std::vector<double>& latency_ms, double q) {
  const Percentile p = PercentileOf(latency_ms, q);
  if (!p.ok) {
    std::fprintf(stderr,
                 "[servebench] %s refused: %zu samples, %zu beyond it "
                 "(need %zu)\n",
                 name.c_str(), p.samples, p.beyond, kMinSamplesBeyond);
    return false;
  }
  char note[96];
  std::snprintf(note, sizeof(note), "(n=%zu, %zu beyond)", p.samples,
                p.beyond);
  report->Add(name, p.value, "ms", note);
  return true;
}

/// The highest of p99.9/p99/p90 the sample backs, for the text output.
void PrintTail(const std::vector<double>& latency_ms) {
  for (double q : {0.999, 0.99, 0.9}) {
    const Percentile p = PercentileOf(latency_ms, q);
    if (p.ok) {
      std::printf("  highest backed percentile:   p%g = %.4g ms (n=%zu, %zu "
                  "beyond)\n",
                  q * 100, p.value, p.samples, p.beyond);
      return;
    }
  }
}

void PrintPaper(const PaperPass& pass, const WorkloadDef& def) {
  std::printf("  paper pass: %d query pairs, min of %d interleaved runs; "
              "Original %.3f s, BQO %.3f s CPU; %d mismatches\n",
              pass.pairs, kPaperReps, pass.original_cpu_s, pass.bqo_cpu_s,
              pass.mismatches);
  std::printf("  Fig 8 BQO/Original = %.3f   (paper: %.2f)   L-group "
              "speedup %.2fx (paper JOB: up to 4.8x)\n",
              pass.ratio(), def.paper_ratio, pass.l_group_speedup);
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

int EndToEndRun(const Args& args) {
  const WorkloadDef& def = *args.def;
  Inputs in;
  std::unique_ptr<Server> server;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    in.workload.reset();
    const Clock::time_point t0 = Clock::now();
    in.workload = std::make_unique<bqo::Workload>(def.make(def.scale));
    MakeRequests(args, &in);
    server = std::make_unique<Server>(args, in, bqo::QueryServiceOptions{}, 0);
    server->Warmup();
    setup_s.push_back(SecondsSince(t0));
  }

  const Clock::time_point paper_start = Clock::now();
  const PaperPass pass = RunPaperPass(&in);
  const double paper_s = SecondsSince(paper_start);
  server->RunFor(args.seconds, /*analyze=*/false);

  const ClientTally t = server->Merged();
  Report report;
  std::printf("end-to-end (%d clients, %.0f s timed, %lld requests):\n",
              def.clients, args.seconds, static_cast<long long>(t.attempted));
  report.Add("setup_s", Median(setup_s), "s",
             "(median of " + std::to_string(kSetups) + " set-ups)");
  report.Add("qps", server->Qps(), "1/s");
  if (!AddPercentile(&report, "latency_p50_ms", t.latency_ms, 0.5) ||
      !AddPercentile(&report, "latency_p90_ms", t.latency_ms, 0.9)) {
    return 3;
  }
  report.Add("bqo_over_original", pass.ratio(), "ratio",
             "(paper " + std::to_string(def.paper_ratio).substr(0, 4) + ")");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("ok_share",
             Ratio(static_cast<double>(t.attempted - t.failed),
                   static_cast<double>(t.attempted)),
             "share");
  PrintTail(t.latency_ms);
  std::printf("  failed_share = %.6g (%lld of %lld)\n",
              Ratio(static_cast<double>(t.failed),
                    static_cast<double>(t.attempted)),
              static_cast<long long>(t.failed),
              static_cast<long long>(t.attempted));
  PrintPaper(pass, def);
  std::printf("  phases: set-ups %.1f s, paper pass + references %.1f s\n",
              std::accumulate(setup_s.begin(), setup_s.end(), 0.0), paper_s);

  const int64_t attempted = t.attempted + pass.pairs;
  const int64_t failed = t.failed + pass.mismatches;
  report.PrintJson(failed == 0, attempted, failed);
  return 0;
}

int TracedRun(const Args& args) {
  const WorkloadDef& def = *args.def;
  Inputs in;
  const Clock::time_point t0 = Clock::now();
  in.workload = std::make_unique<bqo::Workload>(def.make(def.scale));
  const double datagen_s = SecondsSince(t0);
  MakeRequests(args, &in);
  const PaperPass pass = RunPaperPass(&in);
  const bqo::Workload& w = *in.workload;

  // Direct calls into each planning layer's public functions over a
  // seeded sample of base queries.
  double bind_ms = 0, estimate_ms = 0, optimize_ms = 0, parameterize_ms = 0;
  double rows_examined = 0;
  const int sample = std::min(def.layer_sample, in.num_base());
  {
    bqo::StatsCatalog stats(w.catalog.get());
    const bqo::OptimizerOptions options;
    const std::vector<int> order =
        PassOrder(args.seed, 999, 0, in.num_base());
    for (int i = 0; i < sample; ++i) {
      const QuerySpec& spec = w.queries[static_cast<size_t>(order[i])];
      const Clock::time_point a = Clock::now();
      Bind(*w.catalog, spec, /*attach_statistics=*/false);
      const Clock::time_point b = Clock::now();
      const bqo::JoinGraph graph = Bind(*w.catalog, spec);
      const Clock::time_point c = Clock::now();
      bqo::OptimizeQuery(graph, &stats, options);  // warms StatsCatalog
      const Clock::time_point d = Clock::now();
      bqo::OptimizeQuery(graph, &stats, options);
      const Clock::time_point e = Clock::now();
      bqo::OptimizeParameterized(graph, &stats, options);
      const Clock::time_point f = Clock::now();
      bind_ms += Ms(b - a);
      estimate_ms += Ms(c - b) - Ms(b - a);
      optimize_ms += Ms(e - d);
      parameterize_ms += Ms(f - e) - Ms(e - d);
      for (int r = 0; r < graph.num_relations(); ++r) {
        rows_examined += graph.relation(r).base_rows;
      }
    }
  }

  // Serving: a traced server (span trees and EXPLAIN ANALYZE reports
  // collected and read) and an untraced one (both off) alternate in
  // one-second slices; the qps ratio is the collection overhead.
  bqo::QueryServiceOptions traced_options;
  traced_options.collect_traces = true;
  traced_options.explain_analyze = true;
  bqo::QueryServiceOptions plain_options;
  plain_options.collect_traces = false;
  Server traced(args, in, traced_options, 1);
  Server plain(args, in, plain_options, 2);
  traced.Warmup();
  plain.Warmup();
  const int slices = std::max(2, static_cast<int>(args.seconds));
  const double slice_s = args.seconds / slices;
  for (int s = 0; s < slices; ++s) {
    if (s % 2 == 0) {
      traced.RunFor(slice_s, /*analyze=*/true);
    } else {
      plain.RunFor(slice_s, /*analyze=*/false);
    }
  }
  const ClientTally t = traced.Merged();
  const ClientTally p = plain.Merged();
  const LayerTally& l = t.layers;
  const ServiceTally svc = traced.Services();
  const double n = static_cast<double>(std::max<int64_t>(1, l.requests));
  const double ns = std::max(1, sample);

  Report r;
  std::printf("per-layer (traced: %lld requests over %d clients; direct "
              "layer calls: %d base queries):\n",
              static_cast<long long>(l.requests), def.clients, sample);
  r.Add("workload.datagen_s", datagen_s, "s");
  r.Add("storage.db_mb", static_cast<double>(w.DatabaseBytes()) / 1e6, "MB");
  r.Add("plan.bind_ms", bind_ms / ns, "ms", "(per query, direct)");
  r.Add("stats.estimate_ms", estimate_ms / ns, "ms", "(per query, direct)");
  r.Add("stats.rows_examined", rows_examined / ns, "rows",
        "(per query, direct)");
  r.Add("optimizer.optimize_ms", optimize_ms / ns, "ms",
        "(OptimizeQuery, per query)");
  r.Add("optimizer.parameterize_ms", parameterize_ms / ns, "ms",
        "(OptimizeParameterized minus OptimizeQuery)");
  r.Add("optimizer.pruned_filters", pass.pruned_filters, "count",
        "(BQO plans, all base queries)");
  r.Add("optimizer.request_share", Ratio(l.optimize_ms, l.query_ms), "share",
        "(optimize spans / request time)");
  r.Add("plan_cache.hit_rate", svc.plan.HitRate(), "share");
  r.Add("plan_cache.reopt_share",
        Ratio(static_cast<double>(svc.plan.reoptimizations),
              static_cast<double>(svc.plan.shape_hits)),
        "share", "(reoptimizations / shape hits)");
  r.Add("plan_cache.evictions", static_cast<double>(svc.plan.evictions),
        "count");
  r.Add("plan_cache.lookup_ms", l.lookup_ms / n, "ms", "(per request)");
  r.Add("plan_cache.rebind_ms", Ratio(l.rebind_ms, l.rebinds), "ms",
        "(per rebind, " + std::to_string(l.rebinds) + " rebinds)");
  r.Add("build_cache.hit_rate", svc.build.HitRate(), "share");
  r.Add("build_cache.single_flight_waits",
        static_cast<double>(svc.build.single_flight_waits), "count");
  r.Add("build_cache.wait_ms", l.acquire_wait_ms / n, "ms",
        "(build_acquire minus build, per request)");
  r.Add("build_cache.bytes", static_cast<double>(svc.max_build_bytes), "B",
        "(resident)");
  r.Add("admission.wait_ms", l.admit_ms / n, "ms", "(per request)");
  r.Add("admission.shed", static_cast<double>(svc.shed), "count");
  r.Add("exec.execute_ms", l.execute_ms / n, "ms", "(per request)");
  r.Add("exec.request_share", Ratio(l.execute_ms, l.query_ms), "share",
        "(execute spans / request time)");
  r.Add("exec.cpu_s", pass.bqo_cpu_s, "s", "(paper pass, BQO min cpu)");
  r.Add("exec.build_ms", l.build_ms / n, "ms", "(per request)");
  r.Add("exec.scan_ms", l.scan_ms / n, "ms", "(operator self, per request)");
  r.Add("exec.hash_join_ms", l.hash_join_ms / n, "ms",
        "(operator self, per request)");
  r.Add("exec.aggregate_ms", l.aggregate_ms / n, "ms",
        "(operator self, per request)");
  r.Add("exec.leaf_tuples", static_cast<double>(l.leaf_tuples) / n, "rows",
        "(per request)");
  r.Add("exec.join_tuples", static_cast<double>(l.join_tuples) / n, "rows",
        "(per request)");
  r.Add("exec.probe_match_rate",
        Ratio(static_cast<double>(l.probe_matched),
              static_cast<double>(l.probe_in)),
        "share");
  r.Add("exec.l_group_speedup", pass.l_group_speedup, "ratio",
        "(Fig 8 L group, Original/BQO)");
  r.Add("filter.eliminated_share",
        Ratio(static_cast<double>(l.filter_probed - l.filter_passed),
              static_cast<double>(l.filter_probed)),
        "share");
  const double leaked = static_cast<double>(l.fpr_leaked);
  r.Add("filter.measured_fpr",
        Ratio(leaked, leaked + static_cast<double>(l.fpr_rejected)), "share",
        "(per created filter at its join, as EXPLAIN ANALYZE)");
  r.Add("filter.bytes", static_cast<double>(l.filter_bytes) / n, "B",
        "(per request)");
  r.Add("obs.trace_overhead", Ratio(plain.Qps(), traced.Qps()), "ratio",
        "(untraced qps / traced + explained qps)");
  r.Add("unattributed_ms", l.unattributed_ms / n, "ms",
        "(request time outside every layer span)");
  const int64_t attempted = t.attempted + p.attempted;
  const int64_t failed = t.failed + p.failed;
  r.Add("serve.failed_share",
        Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
        "share");
  PrintPaper(pass, def);

  const int64_t all_attempted = attempted + pass.pairs;
  const int64_t all_failed = failed + pass.mismatches;
  r.PrintJson(all_failed == 0, all_attempted, all_failed);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const WorkloadDef& d : kWorkloads) {
        if (d.name == std::string(value)) args->def = &d;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->def != nullptr && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload job_adhoc|customer_adhoc|"
                 "tpcds_templated [--seed N] [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  std::printf("[servebench] workload=%s seed=%llu (default %llu, held-out "
              "%llu) scale=%g clients=%d trace=%d\n"
              "[servebench] why: %s\n",
              args.def->name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(kDefaultSeed),
              static_cast<unsigned long long>(kHeldOutSeed),
              args.def->scale, args.def->clients, args.trace ? 1 : 0,
              args.def->why);
  std::fflush(stdout);
  return args.trace ? TracedRun(args) : EndToEndRun(args);
}
