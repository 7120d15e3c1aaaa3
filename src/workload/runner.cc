#include "src/workload/runner.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/common/string_util.h"
#include "src/server/query_service.h"

namespace bqo {

std::vector<QueryRun> RunWorkload(const Workload& workload,
                                  OptimizerMode mode,
                                  const RunOptions& options) {
  std::vector<QueryRun> runs;
  StatsCatalog stats(workload.catalog.get());

  size_t count = workload.queries.size();
  if (options.limit > 0) count = std::min(count, options.limit);

  for (size_t qi = 0; qi < count; ++qi) {
    const QuerySpec& spec = workload.queries[qi];
    auto graph_result = BuildJoinGraph(*workload.catalog, spec);
    BQO_CHECK_MSG(graph_result.ok(),
                  ("query failed to bind: " + spec.name).c_str());
    const JoinGraph& graph = graph_result.value();

    OptimizerOptions opt = options.optimizer;
    opt.mode = mode;
    OptimizedQuery optimized = OptimizeQuery(graph, &stats, opt);

    ExecutionOptions exec = options.execution;
    exec.use_bitvectors = mode != OptimizerMode::kNoBitvectors;
    exec.agg = spec.agg;

    QueryRun run;
    run.query_name = spec.name;
    run.mode = mode;
    run.estimated_cost = optimized.estimated_cost;
    run.optimize_ns = optimized.optimize_ns;
    run.num_joins = spec.num_joins();
    run.pruned_filters = optimized.pruned_filters;

    for (int rep = 0; rep < std::max(1, options.repeats); ++rep) {
      QueryMetrics m = ExecutePlan(optimized.plan, exec);
      // Min-of-k keys on the query's own task time (cpu_ns), not wall
      // time: under a shared pool a repeat can be slowed by co-running
      // queries without doing any more work itself.
      if (rep == 0 || m.cpu_ns < run.metrics.cpu_ns) {
        run.metrics = std::move(m);
      }
    }
    for (const FilterStats& fs : run.metrics.filters) {
      if (fs.created && fs.probed > 0) run.used_bitvectors = true;
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

std::vector<QueryRun> RunWorkloadConcurrent(const Workload& workload,
                                            OptimizerMode mode, int clients,
                                            const RunOptions& options) {
  QueryServiceOptions service_options;
  service_options.optimizer = options.optimizer;
  service_options.optimizer.mode = mode;
  service_options.execution = options.execution;
  QueryService service(workload.catalog.get(), service_options);

  size_t count = workload.queries.size();
  if (options.limit > 0) count = std::min(count, options.limit);
  std::vector<QueryRun> runs(count);

  // Client threads model external traffic: each claims whole queries off a
  // shared cursor and owns the claimed result slots, so no cross-client
  // synchronization beyond the cursor is needed. All engine parallelism
  // below Execute() flows through the shared WorkerPool, not these
  // threads.
  std::atomic<size_t> cursor{0};
  const int num_clients = std::max(1, clients);
  auto client = [&] {
    for (;;) {
      const size_t qi = cursor.fetch_add(1, std::memory_order_relaxed);
      if (qi >= count) return;
      const QuerySpec& spec = workload.queries[qi];
      QueryRun run;
      for (int rep = 0; rep < std::max(1, options.repeats); ++rep) {
        QueryResult r = service.Execute(spec);
        if (rep == 0 || r.metrics.cpu_ns < run.metrics.cpu_ns) {
          run.metrics = std::move(r.metrics);
          run.estimated_cost = r.estimated_cost;
          run.pruned_filters = r.pruned_filters;
          run.used_bitvectors = r.used_bitvectors;
          run.plan_cache_hit = r.plan_cache_hit;
          // Repeats after the first hit the plan cache; report the real
          // optimization cost this query paid, not the hit's zero.
          if (r.optimize_ns > 0) run.optimize_ns = r.optimize_ns;
        } else if (r.optimize_ns > 0) {
          run.optimize_ns = r.optimize_ns;
        }
        // Any repeat that executed a re-bound instance marks the run: a
        // rebound plan may differ from the per-query optimum, so parity
        // checks compare costs only for non-rebound runs.
        run.plan_rebound = run.plan_rebound || r.plan_rebound;
      }
      run.query_name = spec.name;
      run.mode = mode;
      run.num_joins = spec.num_joins();
      runs[qi] = std::move(run);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  return runs;
}

std::vector<QueryGroup> GroupBySelectivity(
    const std::vector<QueryRun>& baseline_runs) {
  std::vector<size_t> order(baseline_runs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return baseline_runs[a].metrics.cpu_ns < baseline_runs[b].metrics.cpu_ns;
  });
  std::vector<QueryGroup> groups(baseline_runs.size(), QueryGroup::kM);
  const size_t third = baseline_runs.size() / 3;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    if (rank < third) {
      groups[order[rank]] = QueryGroup::kS;
    } else if (rank >= order.size() - third) {
      groups[order[rank]] = QueryGroup::kL;
    }
  }
  return groups;
}

}  // namespace bqo
