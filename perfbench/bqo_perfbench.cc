// Repository benchmark driver: the paper's Original-vs-BQO workload CPU
// (Fig 8) measured end to end, plus templated serving through
// QueryService, with per-layer attribution from spans recorded here.
//
// Usage:
//   bqo_perfbench --workload job-mn|customer-deep|tpcds-serve --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE]
//                 [--scale-mult X] [--zipf-theta T] [--corrupt-check]
//                 [--corrupt-trace]
//
// The engine is called only through its public entry points
// (Make*Lite, StatsCatalog, BuildJoinGraph, OptimizeQuery, ExecutePlan,
// QueryService::Execute, the stats structs and the MetricsRegistry). Why
// each workload exists, and how the seed reaches the inputs, is in
// NOTES.md beside this file.
//
// The last line of stdout is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. Every metric is also printed above it as a text line.
// A wrong result makes `correct` false and the exit code 1.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/executor.h"
#include "src/obs/metrics_registry.h"
#include "src/optimizer/optimizer.h"
#include "src/server/query_service.h"
#include "src/server/worker_pool.h"
#include "src/stats/table_stats.h"
#include "src/workload/workload.h"

namespace {

using namespace bqo;

// ---------------------------------------------------------------- clocks --

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quantile q in (0, 1) of an unsorted sample, interpolated at position
/// (n + 1) * q of the sorted values (Python's statistics.quantiles
/// default). For a few samples a high quantile approaches the largest.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double h = static_cast<double>(v.size() + 1) * q;
  if (h <= 1) return v.front();
  if (h >= static_cast<double>(v.size())) return v.back();
  const size_t i = static_cast<size_t>(h);  // 1-based lower neighbour
  return v[i - 1] + (h - static_cast<double>(i)) * (v[i] - v[i - 1]);
}

// ----------------------------------------------------------------- spans --
//
// Spans are recorded by this file around each call into an engine layer.
// A span's name is "<layer>.<operation>"; its layer is the prefix. Spans
// stay in memory and are written out once, at exit.

struct SpanRecord {
  const char* name = "";
  int id = -1;
  int parent = -1;
  int thread = 0;
  int64_t request = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  int NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  std::atomic<int> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

thread_local int t_current_span = -1;
thread_local int t_thread_index = 0;

/// Scoped span; a no-op when `tracer` is null (the untraced runs).
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t request = -1)
      : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    rec_.name = name;
    rec_.id = tracer_->NextId();
    rec_.parent = t_current_span;
    rec_.thread = t_thread_index;
    rec_.request = request;
    saved_parent_ = t_current_span;
    t_current_span = rec_.id;
    rec_.start_ns = NowNs();
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    rec_.end_ns = NowNs();
    t_current_span = saved_parent_;
    tracer_->Record(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return rec_.id; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
  int saved_parent_ = -1;
};

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

/// Wall time attributed to each layer, summing exactly to the root span.
///
/// On one thread a span's self time is its duration minus the time its
/// child spans cover. Several threads (serving clients, verifiers) run at
/// once under one parent span, so each instant of the root's wall time is
/// split equally between the innermost spans open at that instant on the
/// threads that are working; a span that is an ancestor of another open
/// span (a parent waiting for its child threads) gets none of it.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<SpanRecord>& spans, int root_id) {
  std::map<int, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  const SpanRecord& root = spans[by_id.at(root_id)];

  struct Segment {
    int64_t start, end;
    int span;
  };
  std::map<int, std::vector<size_t>> per_thread;
  for (size_t i = 0; i < spans.size(); ++i) {
    per_thread[spans[i].thread].push_back(i);
  }
  // Per thread: disjoint segments labelled with the innermost open span.
  std::vector<std::vector<Segment>> segments;
  for (auto& [thread, idx] : per_thread) {
    std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
      if (spans[a].start_ns != spans[b].start_ns) {
        return spans[a].start_ns < spans[b].start_ns;
      }
      return spans[a].end_ns > spans[b].end_ns;
    });
    std::vector<Segment> out;
    struct Open {
      size_t span;
      int64_t cursor;
    };
    std::vector<Open> stack;
    auto emit = [&](size_t s, int64_t from, int64_t to) {
      if (to > from) out.push_back({from, to, spans[s].id});
    };
    auto pop = [&] {
      const Open top = stack.back();
      stack.pop_back();
      emit(top.span, top.cursor, spans[top.span].end_ns);
      if (!stack.empty()) stack.back().cursor = spans[top.span].end_ns;
    };
    for (size_t s : idx) {
      while (!stack.empty() &&
             spans[stack.back().span].end_ns <= spans[s].start_ns) {
        pop();
      }
      if (!stack.empty()) {
        emit(stack.back().span, stack.back().cursor, spans[s].start_ns);
      }
      stack.push_back({s, spans[s].start_ns});
    }
    while (!stack.empty()) pop();
    segments.push_back(std::move(out));
  }

  std::vector<int64_t> bounds;
  for (const auto& segs : segments) {
    for (const Segment& seg : segs) {
      bounds.push_back(seg.start);
      bounds.push_back(seg.end);
    }
  }
  bounds.push_back(root.start_ns);
  bounds.push_back(root.end_ns);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  auto is_ancestor = [&](int ancestor, int span) {
    for (int p = spans[by_id.at(span)].parent; p >= 0;
         p = spans[by_id.at(p)].parent) {
      if (p == ancestor) return true;
    }
    return false;
  };

  std::map<std::string, double> self;
  std::vector<size_t> cursor(segments.size(), 0);
  std::vector<int> active;
  for (size_t b = 0; b + 1 < bounds.size(); ++b) {
    const int64_t from = bounds[b];
    const int64_t to = bounds[b + 1];
    if (from < root.start_ns || to > root.end_ns) continue;
    active.clear();
    for (size_t t = 0; t < segments.size(); ++t) {
      const auto& segs = segments[t];
      while (cursor[t] < segs.size() && segs[cursor[t]].end <= from) {
        ++cursor[t];
      }
      if (cursor[t] < segs.size() && segs[cursor[t]].start <= from) {
        active.push_back(segs[cursor[t]].span);
      }
    }
    std::vector<int> working;
    for (int a : active) {
      bool waiting = false;
      for (int other : active) {
        if (other != a && is_ancestor(a, other)) waiting = true;
      }
      if (!waiting) working.push_back(a);
    }
    const double dt = static_cast<double>(to - from) / 1e9;
    for (int w : working) {
      self[LayerOf(spans[by_id.at(w)].name)] +=
          dt / static_cast<double>(working.size());
    }
  }
  return self;
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%d,\"parent\":%d,\"thread\":%d,"
                 "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, s.id, s.parent, s.thread,
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// --------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t refused = 0;
  int64_t wrong = 0;

  void Add(const Outcome& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    refused += o.refused;
    wrong += o.wrong;
  }
  int64_t Bad() const { return failed + refused + wrong; }
};

// -------------------------------------------------------------- workloads --

enum class Generator { kJob, kCustomer, kTpcds };

struct WorkloadConfig {
  const char* name;
  Generator generator;
  double scale;
  bool serve;
  /// Paper-reference BQO/Original total CPU ratio (Fig 8).
  double paper_ratio;
};

// Scales: job-mn at 0.1 keeps the M:N blowup of job_q039 without letting
// it run for minutes; customer-deep at 0.2 keeps optimization dominant;
// tpcds-serve at 1.0 gives build sides large enough that the serve
// stream's distinct ones exceed a kServeBuildCacheMb cache.
constexpr WorkloadConfig kWorkloads[] = {
    {"job-mn", Generator::kJob, 0.1, false, 0.36},
    {"customer-deep", Generator::kCustomer, 0.2, false, 0.75},
    {"tpcds-serve", Generator::kTpcds, 1.0, true, 0.78},
};

/// The database is the generator's own default draw at the workload's
/// scale, whatever the benchmark seed: across data seeds job-mn's cost
/// moves 3.5x (NOTES.md), which no bound could absorb.
Workload Generate(const WorkloadConfig& config, double scale) {
  switch (config.generator) {
    case Generator::kJob:
      return MakeJobLite(scale);
    case Generator::kCustomer:
      return MakeCustomerLite(scale);
    case Generator::kTpcds:
      break;
  }
  return MakeTpcdsLite(scale);
}

// ------------------------------------------------------------ host speed --
//
// On a shared VM the same code runs 15-20% faster or slower for tens of
// seconds at a time as other guests load the host, for ALU-, cache- and
// DRAM-bound loops alike (NOTES.md), so raw CPU seconds of runs taken
// minutes apart differ by more than any useful bound. HostSpeed runs a
// fixed kernel, which shares no code with the engine and never calls the
// process's allocator, in short slices taken while no engine work is in
// flight. A timed sample is reported at reference host speed: divided by
// the host's slowdown around it, the mean slice time within one second of
// the sample over kReferenceSliceS. Raw totals and the slowdown itself are
// kept as per-layer metrics.
class HostSpeed {
 public:
  HostSpeed() : arena_(std::make_unique<std::byte[]>(kArenaBytes)) {}

  /// Runs one slice on the calling thread and records its CPU time. The
  /// caller guarantees that no engine work runs at the same time. The
  /// kernel runs twice and only the second pass is timed, so the slice
  /// measures the host, not what the measured work left in the caches.
  void Slice() {
    const int64_t wall = NowNs();
    std::unique_lock<std::mutex> kernel_lock(kernel_mu_);
    size_t sink = Kernel();
    const int64_t cpu0 = ThreadCpuNs();
    sink += Kernel();
    const double cpu = static_cast<double>(ThreadCpuNs() - cpu0) / 1e9;
    kernel_lock.unlock();
    std::lock_guard<std::mutex> lock(mu_);
    sink_ += sink;
    slices_.insert(std::upper_bound(slices_.begin(), slices_.end(),
                                    std::make_pair(wall, cpu)),
                   std::make_pair(wall, cpu));
  }

  /// Mean slice time within one second of `at_ns`, over the reference
  /// (1 = reference speed, 1.2 = the host runs 20% slow).
  double Slowdown(int64_t at_ns) const {
    constexpr int64_t kWindowNs = 1000000000;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::lower_bound(slices_.begin(), slices_.end(),
                               std::make_pair(at_ns - kWindowNs, 0.0));
    double sum = 0;
    int count = 0;
    for (; it != slices_.end() && it->first <= at_ns + kWindowNs; ++it) {
      sum += it->second;
      ++count;
    }
    if (count == 0) {
      for (const auto& s : slices_) sum += s.second;
      count = static_cast<int>(slices_.size());
    }
    return count == 0 ? 1.0 : sum / count / kReferenceSliceS;
  }

 private:
  /// Typical CPU time of one timed pass on the 4-vCPU KVM guest these
  /// bounds were set on. It only scales the reported values.
  static constexpr double kReferenceSliceS = 0.00028;

  static constexpr size_t kArenaBytes = 512 << 10;

  /// Builds an ordered map of 2000 one-element vectors in a fixed arena
  /// that is reset on every pass: small node writes and pointer chasing,
  /// without the process's malloc, so no engine or allocator change can
  /// move the kernel's time. Of the kernels compared (NOTES.md), its time
  /// tracked the sweep-to-sweep CPU of the paper-mode workloads most
  /// closely among those that leave the process heap alone.
  size_t Kernel() {
    std::pmr::monotonic_buffer_resource arena(
        arena_.get(), kArenaBytes, std::pmr::null_memory_resource());
    std::pmr::map<int, std::pmr::vector<int>> m(&arena);
    for (int i = 0; i < 2000; ++i) m[(i * 7919) % 5003].push_back(i);
    size_t sum = 0;
    for (const auto& [key, values] : m) {
      sum += static_cast<size_t>(key) + values.size();
    }
    return sum;
  }

  std::unique_ptr<std::byte[]> arena_;
  std::mutex kernel_mu_;  ///< one slice at a time owns the arena
  mutable std::mutex mu_;
  size_t sink_ = 0;  ///< kept so the kernel cannot be elided
  std::vector<std::pair<int64_t, double>> slices_;  ///< (wall ns, cpu s)
};

// ------------------------------------------------------------ paper mode --

struct Expected {
  uint64_t checksum = 0;
  int64_t rows = 0;
};

/// One query run under one optimizer mode: bind + optimize + execute on
/// this thread, exec.threads = 1.
struct ArmRun {
  bool ok = false;
  double bind_s = 0, optimize_s = 0, execute_s = 0, wall_s = 0;
  int64_t start_ns = 0;
  /// Host slowdown around start_ns (HostSpeed); 1 until measured.
  double slowdown = 1;
  uint64_t checksum = 0;
  int64_t rows = 0;
  int64_t join_tuples = 0, leaf_tuples = 0, intermediate = 0;
  double estimated_cost = 0;
  int pruned = 0;
  int64_t filters_created = 0, filter_bytes = 0, filter_probed = 0;
  int64_t filter_rejected = 0, filter_leaked = 0;
  int64_t agg_rows_folded = 0, probe_rows_in = 0, probe_rows_matched = 0;

  double cpu_s() const { return bind_s + optimize_s + execute_s; }
};

// Timed fields of an ArmRun at reference host speed.
double RefCpu(const ArmRun& r) { return r.cpu_s() / r.slowdown; }
double RefBind(const ArmRun& r) { return r.bind_s / r.slowdown; }
double RefOptimize(const ArmRun& r) { return r.optimize_s / r.slowdown; }
double RefExecute(const ArmRun& r) { return r.execute_s / r.slowdown; }

ArmRun RunArm(const Catalog& catalog, StatsCatalog* stats,
              const QuerySpec& spec, OptimizerMode mode, Tracer* tracer,
              int64_t request) {
  ArmRun run;
  Span query_span(tracer, "bench.query", request);
  const int64_t wall0 = NowNs();
  run.start_ns = wall0;
  const int64_t cpu0 = ThreadCpuNs();
  Result<JoinGraph> graph = [&] {
    Span span(tracer, "plan.bind", request);
    return BuildJoinGraph(catalog, spec);
  }();
  const int64_t cpu1 = ThreadCpuNs();
  run.bind_s = static_cast<double>(cpu1 - cpu0) / 1e9;
  if (!graph.ok()) return run;

  OptimizerOptions opt;
  opt.mode = mode;
  OptimizedQuery optimized = [&] {
    Span span(tracer, "optimizer.optimize", request);
    return OptimizeQuery(graph.value(), stats, opt);
  }();
  run.optimize_s = static_cast<double>(ThreadCpuNs() - cpu1) / 1e9;

  ExecutionOptions exec;
  exec.exec.threads = 1;
  exec.agg = spec.agg;
  const QueryMetrics m = [&] {
    Span span(tracer, "exec.execute", request);
    return ExecutePlan(optimized.plan, exec);
  }();
  run.wall_s = static_cast<double>(NowNs() - wall0) / 1e9;
  run.execute_s = static_cast<double>(m.cpu_ns) / 1e9;
  run.ok = true;
  run.checksum = m.result_checksum;
  run.rows = m.result_rows;
  run.join_tuples = m.join_tuples;
  run.leaf_tuples = m.leaf_tuples;
  run.intermediate = m.TotalIntermediateTuples();
  run.estimated_cost = optimized.estimated_cost;
  run.pruned = optimized.pruned_filters;

  for (const OperatorStats& op : m.operators) {
    if (op.type == OperatorType::kAggregate) {
      run.agg_rows_folded += op.agg_rows_folded;
    } else if (op.type == OperatorType::kHashJoin) {
      run.probe_rows_in += op.probe_rows_in;
      run.probe_rows_matched += op.probe_rows_matched;
    }
  }
  for (const FilterStats& fs : m.filters) {
    if (!fs.created) continue;
    ++run.filters_created;
    run.filter_bytes += fs.size_bytes;
    run.filter_probed += fs.probed;
    run.filter_rejected += fs.probed - fs.passed;
    // Rows the filter let through that its source join then found no
    // match for (src/obs/explain.h "Measured FPR").
    for (const PlanFilter& pf : optimized.plan.filters) {
      if (pf.id != fs.filter_id) continue;
      for (const OperatorStats& op : m.operators) {
        if (op.type == OperatorType::kHashJoin &&
            op.plan_node_id == pf.source_join) {
          run.filter_leaked += op.probe_rows_in - op.probe_rows_matched;
        }
      }
    }
  }
  return run;
}

bool Matches(const ArmRun& run, const Expected& expected) {
  return run.ok && run.checksum == expected.checksum &&
         run.rows == expected.rows;
}

struct PaperQuery {
  std::vector<ArmRun> bqo, original;
};

struct PaperPhase {
  std::vector<PaperQuery> queries;
  int sweeps = 0;
  double wall_s = 0;
  Outcome outcome;
};

/// Sweeps over the workload until `seconds` have passed (at least
/// `min_sweeps`), adding the runs to `phase`. Each sweep visits the queries
/// in a seeded order and runs BQO and Original back to back per query, the
/// first arm chosen by a seeded coin, so a slow phase of the host hits both
/// arms alike. Every result is checked against `expected`. A HostSpeed
/// slice precedes every query pair.
void RunPaperPhase(const Workload& workload, StatsCatalog* stats,
                   const std::vector<Expected>& expected, double seconds,
                   int min_sweeps, std::mt19937_64* rng, HostSpeed* host,
                   Tracer* tracer, PaperPhase* out) {
  PaperPhase& phase = *out;
  const size_t n = workload.queries.size();
  phase.queries.resize(n);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const int64_t start = NowNs();
  int64_t request = phase.outcome.attempted;
  auto elapsed = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  for (int sweeps = 0; sweeps < min_sweeps || elapsed() < seconds;
       ++sweeps) {
    Span sweep_span(tracer, "bench.sweep", phase.sweeps);
    std::shuffle(order.begin(), order.end(), *rng);
    for (size_t qi : order) {
      host->Slice();
      const bool bqo_first = ((*rng)() & 1) != 0;
      for (int arm = 0; arm < 2; ++arm) {
        const bool bqo = (arm == 0) == bqo_first;
        ArmRun run = RunArm(*workload.catalog, stats, workload.queries[qi],
                            bqo ? OptimizerMode::kBqoShallow
                                : OptimizerMode::kBaselinePostProcess,
                            tracer, request++);
        ++phase.outcome.attempted;
        if (!run.ok) {
          ++phase.outcome.failed;
        } else if (!Matches(run, expected[qi])) {
          ++phase.outcome.wrong;
          std::fprintf(stderr,
                       "[perfbench] WRONG %s %s: checksum %llu rows %lld, "
                       "expected %llu rows %lld\n",
                       workload.queries[qi].name.c_str(),
                       bqo ? "BQO" : "Original",
                       static_cast<unsigned long long>(run.checksum),
                       static_cast<long long>(run.rows),
                       static_cast<unsigned long long>(expected[qi].checksum),
                       static_cast<long long>(expected[qi].rows));
        } else {
          ++phase.outcome.ok;
        }
        (bqo ? phase.queries[qi].bqo : phase.queries[qi].original)
            .push_back(std::move(run));
      }
    }
    ++phase.sweeps;
  }
  phase.wall_s += elapsed();
}

/// Sets every run's host slowdown, once all slices around it are taken.
void SetSlowdowns(const HostSpeed& host, PaperPhase* phase) {
  for (PaperQuery& pq : phase->queries) {
    for (auto* runs : {&pq.bqo, &pq.original}) {
      for (ArmRun& r : *runs) r.slowdown = host.Slowdown(r.start_ns);
    }
  }
}

/// Per-query median of `field` over the sweeps, summed over the workload.
template <typename Field>
double SumOfMedians(const std::vector<PaperQuery>& queries, bool bqo,
                    Field field) {
  double total = 0;
  for (const PaperQuery& q : queries) {
    std::vector<double> v;
    for (const ArmRun& r : bqo ? q.bqo : q.original) v.push_back(field(r));
    total += Median(std::move(v));
  }
  return total;
}

// ------------------------------------------------------------ serve mode --

/// Literal jitter factors: variant v of a template scales every int
/// literal by kJitter[v]. A handful of variants keeps the set of distinct
/// requests small enough to verify each one after the window.
constexpr double kJitter[] = {1.0, 0.95, 1.05, 0.9, 1.1};
constexpr int kVariants = sizeof(kJitter) / sizeof(kJitter[0]);

int64_t Scaled(int64_t v, double factor) {
  return static_cast<int64_t>(std::llround(static_cast<double>(v) * factor));
}

ExprPtr JitterExpr(const ExprPtr& expr, double factor) {
  if (expr == nullptr) return nullptr;
  auto out = std::make_shared<Expr>(*expr);
  switch (out->kind) {
    case ExprKind::kCompare:
      if (out->literal.type() == DataType::kInt64) {
        out->literal = Value(Scaled(out->literal.AsInt64(), factor));
      }
      break;
    case ExprKind::kBetween:
      out->lo = Scaled(out->lo, factor);
      out->hi = Scaled(out->hi, factor);
      break;
    case ExprKind::kInList:
      for (int64_t& v : out->in_values) v = Scaled(v, factor);
      break;
    case ExprKind::kModLess:
      out->mod_bound = Scaled(out->mod_bound, factor);
      break;
    default:
      break;
  }
  for (ExprPtr& child : out->children) child = JitterExpr(child, factor);
  return out;
}

QuerySpec JitterSpec(const QuerySpec& spec, int variant) {
  QuerySpec out = spec;
  if (variant == 0) return out;
  for (QueryRelation& rel : out.relations) {
    rel.predicate = JitterExpr(rel.predicate, kJitter[variant]);
  }
  return out;
}

/// Seeded request stream: template t is drawn from the repository's
/// Zipf(`theta`) sampler by its position in the workload (a fixed property
/// of the workload, so a seed changes which requests arrive, not how heavy
/// the mix is), and a uniformly drawn literal variant. theta = 0.8 is an
/// assumption, not a measured property of any serving fleet (NOTES.md).
/// Returns indices into the jittered spec table (template * kVariants +
/// variant).
std::vector<int> MakeRequestStream(size_t length, size_t templates,
                                   double theta, uint64_t seed) {
  Rng rng(seed);
  const ZipfGenerator pick(templates, theta);
  std::vector<int> stream(length);
  for (int& r : stream) {
    const int t = static_cast<int>(pick.Sample(rng));
    r = t * kVariants + static_cast<int>(rng.Uniform(kVariants));
  }
  return stream;
}

struct Served {
  int spec = 0;
  int64_t start_ns = 0;
  StatusCode code = StatusCode::kOk;
  int64_t latency_ns = 0;
  uint64_t checksum = 0;
  int64_t rows = 0;
  int64_t cpu_ns = 0;
  int64_t exec_wall_ns = 0;
  int64_t optimize_ns = 0;
};

struct ServePhase {
  std::vector<Served> requests;
  /// Position in the request stream where the next window continues.
  size_t next_request = 0;
  double wall_s = 0;
  /// Wall time of the quiet HostSpeed slices inside the window, when no
  /// request was in flight.
  double quiet_s = 0;
  int slices = 0;
};

/// Serve-mode HostSpeed slices: every kQuietEveryNs each client parks before
/// its next request; the last one to park, with no request in flight and
/// the pool idle, runs the slice and releases the others. A slice taken
/// beside a running query would be slowed by the engine's own contention
/// and divide part of an engine change out.
constexpr int64_t kQuietEveryNs = 200000000;

class QuietGate {
 public:
  QuietGate(int clients, int64_t start_ns, HostSpeed* host)
      : active_(clients), next_ns_(start_ns), host_(host) {}

  /// Called by a client before each request.
  void MaybePark() {
    if (NowNs() < next_ns_.load(std::memory_order_relaxed)) return;
    std::unique_lock<std::mutex> lock(mu_);
    if (NowNs() < next_ns_.load(std::memory_order_relaxed)) return;
    ++parked_;
    if (parked_ == active_) {
      SliceAndRelease();
      return;
    }
    const uint64_t generation = generation_;
    cv_.wait(lock, [&] { return generation_ != generation; });
  }

  /// Called by a client that stops sending; releases any parked ones.
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    if (parked_ > 0 && parked_ == active_) SliceAndRelease();
  }

  double quiet_s() const { return static_cast<double>(quiet_ns_) / 1e9; }
  int slices() const { return slices_; }

 private:
  /// Runs with mu_ held and every active client parked.
  void SliceAndRelease() {
    const int64_t t0 = NowNs();
    host_->Slice();
    const int64_t t1 = NowNs();
    quiet_ns_ += t1 - t0;
    ++slices_;
    next_ns_.store(t1 + kQuietEveryNs, std::memory_order_relaxed);
    parked_ = 0;
    ++generation_;
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  int active_;
  int parked_ = 0;
  uint64_t generation_ = 0;
  std::atomic<int64_t> next_ns_;
  int64_t quiet_ns_ = 0;
  int slices_ = 0;
  HostSpeed* host_;
};

/// Closed loop: each client sends its next request when the previous one
/// returns, until `seconds` have passed. The requests are added to `phase`.
void RunServeWindow(QueryService* service, const std::vector<QuerySpec>& specs,
                    const std::vector<int>& stream, int clients,
                    double seconds, HostSpeed* host, Tracer* tracer,
                    ServePhase* phase) {
  Span window(tracer, "bench.serve_window");
  const int window_id = window.id();
  std::vector<std::vector<Served>> per_client(static_cast<size_t>(clients));
  std::atomic<size_t> cursor{phase->next_request};
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  QuietGate gate(clients, start, host);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      t_thread_index = 1 + c;
      t_current_span = window_id;
      Span client(tracer, "bench.client");
      while (true) {
        gate.MaybePark();
        if (NowNs() >= deadline) break;
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        Served s;
        s.spec = stream[i % stream.size()];
        const int64_t t0 = NowNs();
        s.start_ns = t0;
        QueryResult r = [&] {
          Span span(tracer, "server.execute", static_cast<int64_t>(i));
          return service->Execute(specs[static_cast<size_t>(s.spec)]);
        }();
        s.latency_ns = NowNs() - t0;
        s.code = r.status.code();
        s.checksum = r.metrics.result_checksum;
        s.rows = r.metrics.result_rows;
        s.cpu_ns = r.metrics.cpu_ns;
        s.exec_wall_ns = r.metrics.total_ns;
        s.optimize_ns = r.optimize_ns;
        per_client[static_cast<size_t>(c)].push_back(s);
      }
      gate.Leave();
    });
  }
  for (std::thread& t : threads) t.join();
  phase->next_request = cursor.load();
  phase->wall_s += static_cast<double>(NowNs() - start) / 1e9;
  phase->quiet_s += gate.quiet_s();
  phase->slices += gate.slices();
  host->Slice();  // the last requests' neighbourhood
  for (auto& v : per_client) {
    phase->requests.insert(phase->requests.end(), v.begin(), v.end());
  }
}

/// Reference result of every spec index in `needed`: a cache-free,
/// threads = 1 ExecutePlan of an Original-mode plan, computed on
/// `threads` threads outside the timed window.
std::map<int, Expected> ComputeReferences(const Catalog& catalog,
                                          StatsCatalog* stats,
                                          const std::vector<QuerySpec>& specs,
                                          const std::vector<int>& needed,
                                          int threads, Tracer* tracer) {
  Span verify(tracer, "bench.verify");
  const int verify_id = verify.id();
  std::vector<Expected> out(needed.size());
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      t_thread_index = 100 + t;
      t_current_span = verify_id;
      for (size_t i; (i = cursor.fetch_add(1)) < needed.size();) {
        const ArmRun run =
            RunArm(catalog, stats, specs[static_cast<size_t>(needed[i])],
                   OptimizerMode::kBaselinePostProcess, tracer,
                   static_cast<int64_t>(i));
        out[i] = {run.ok ? run.checksum : ~0ULL, run.ok ? run.rows : -1};
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::map<int, Expected> refs;
  for (size_t i = 0; i < needed.size(); ++i) refs[needed[i]] = out[i];
  return refs;
}

double HistogramQuantile(const MetricSnapshot& after,
                         const MetricSnapshot* before, double q) {
  std::vector<int64_t> buckets = after.buckets;
  if (before != nullptr) {
    for (size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] -= before->buckets[i];
    }
  }
  const int64_t count = buckets.empty() ? 0 : buckets.back();
  if (count == 0) return 0;
  const double target = q * static_cast<double>(count);
  for (size_t i = 0; i < after.bounds.size(); ++i) {
    if (static_cast<double>(buckets[i]) >= target) return after.bounds[i];
  }
  return after.bounds.empty() ? 0 : after.bounds.back();
}

const MetricSnapshot* FindMetric(const std::vector<MetricSnapshot>& snap,
                                 const std::string& name) {
  for (const MetricSnapshot& m : snap) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// ------------------------------------------------------------------- run --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  double scale_mult = 1.0;
  bool corrupt_check = false;
  bool corrupt_trace = false;
  double zipf_theta = 0.8;
};

struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layer;
  Outcome outcome;
  /// Wall time per unit of measured work at reference host speed (a sweep
  /// in paper mode, a request in serve mode); traced vs untraced gives the
  /// tracing overhead.
  double wall_per_unit = 0;
};

constexpr int kSetupRepeats = 3;
constexpr int kMinSweeps = 3;
constexpr int kServeClients = 2;
/// Two clients over a 1-worker pool, each query with 2 logical workers: a
/// client's thread helps drain its own query's tasks, so drains run in
/// parallel, and at most 3 threads run on the 4 vCPUs. The spare vCPU
/// keeps the wall-clock serve metrics steady when the host takes one away;
/// with a 2-worker pool they moved three times as much (NOTES.md).
constexpr int kServePoolThreads = 1;
constexpr int kServeWorkersPerQuery = 2;
constexpr int kVerifyThreads = 4;
/// BuildCache bound for tpcds-serve: below the ~31 MiB of distinct build
/// sides its stream touches, so the eviction path carries load.
constexpr int64_t kServeBuildCacheMb = 16;
/// tpcds-serve: share of --seconds given to its paper-mode sweeps; the
/// serve window gets the rest.
constexpr double kServePaperShare = 0.35;
/// tpcds-serve alternates paper sweeps and serve windows in this many
/// rounds, so both sample the host's slow and fast phases of the whole run.
constexpr int kServeRounds = 4;

struct SetUpState {
  Workload workload;
  std::unique_ptr<StatsCatalog> stats;
  std::unique_ptr<QueryService> service;
  /// Every query's result in the warm pass: the correctness gate's
  /// expectation.
  std::vector<Expected> expected;
  /// tpcds-serve: the jittered spec table (template * kVariants + variant).
  std::vector<QuerySpec> specs;
  // Medians over the repeats, at reference host speed.
  double setup_s = 0;
  double generate_s = 0;
  double warmup_s = 0;
  double warm_pass_s = 0;
};

/// Wall seconds from `start_ns` to `end_ns` at reference host speed.
double RefSeconds(const HostSpeed& host, int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9 /
         host.Slowdown(start_ns);
}

QueryServiceOptions ServeOptions() {
  QueryServiceOptions options;
  options.optimizer.mode = OptimizerMode::kBqoShallow;
  options.execution.exec.threads = kServeWorkersPerQuery;
  options.max_concurrent_queries = kServeClients;
  options.max_workers_per_query = kServeWorkersPerQuery;
  options.build_cache_mb = kServeBuildCacheMb;
  options.collect_traces = false;
  options.slow_query_ms = -1;
  return options;
}

/// The whole set-up, kSetupRepeats times; the last repeat's state is kept.
/// One set-up is: generate, stats warm-up (eager Get of every table),
/// service construction, and an unmeasured warm pass (BQO once per query;
/// on the serving workload also each template once through the service).
SetUpState SetUp(const WorkloadConfig& config, double scale, HostSpeed* host,
                 Tracer* tracer) {
  SetUpState state;
  // Per repeat: generate, stats warm-up, and the remaining steps.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> steps(3);
  std::vector<double> generate, warmup, warm_pass, total;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    state = SetUpState{};
    for (auto& s : steps) s.clear();
    host->Slice();
    int64_t t0 = NowNs();
    {
      Span span(tracer, "workload.generate");
      state.workload = Generate(config, scale);
    }
    steps[0].push_back({t0, NowNs()});
    host->Slice();
    t0 = NowNs();
    {
      Span span(tracer, "stats.warmup");
      state.stats =
          std::make_unique<StatsCatalog>(state.workload.catalog.get());
      for (const Table* table : state.workload.catalog->tables()) {
        state.stats->Get(table->name());
      }
    }
    steps[1].push_back({t0, NowNs()});
    if (config.serve) {
      host->Slice();
      t0 = NowNs();
      Span span(tracer, "server.construct");
      state.service = std::make_unique<QueryService>(
          state.workload.catalog.get(), ServeOptions());
      steps[2].push_back({t0, NowNs()});
    }
    const Workload& workload = state.workload;
    const size_t n = workload.queries.size();
    state.expected.resize(n);
    Span span(tracer, "bench.warm_pass");
    for (size_t qi = 0; qi < n; ++qi) {
      host->Slice();
      const ArmRun run =
          RunArm(*workload.catalog, state.stats.get(), workload.queries[qi],
                 OptimizerMode::kBqoShallow, tracer, static_cast<int64_t>(qi));
      state.expected[qi] = {run.checksum, run.rows};
      steps[2].push_back({run.start_ns, NowNs()});
    }
    if (config.serve) {
      for (size_t t = 0; t < n; ++t) {
        for (int v = 0; v < kVariants; ++v) {
          state.specs.push_back(JitterSpec(workload.queries[t], v));
        }
        host->Slice();
        t0 = NowNs();
        (void)state.service->Execute(state.specs[t * kVariants]);
        steps[2].push_back({t0, NowNs()});
      }
    }
    host->Slice();
    // The slices on both sides of every step are in place: time it.
    double step_s[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) {
      for (const auto& [start, end] : steps[i]) {
        step_s[i] += RefSeconds(*host, start, end);
      }
    }
    generate.push_back(step_s[0]);
    warmup.push_back(step_s[1]);
    warm_pass.push_back(step_s[2]);
    total.push_back(step_s[0] + step_s[1] + step_s[2]);
  }
  state.setup_s = Median(total);
  state.generate_s = Median(generate);
  state.warmup_s = Median(warmup);
  state.warm_pass_s = Median(warm_pass);
  return state;
}

void PrintOutcome(const char* workload, const char* phase, const Outcome& o) {
  std::printf("[%s] %s outcomes: attempted %lld ok %lld failed %lld "
              "refused %lld wrong %lld\n",
              workload, phase, static_cast<long long>(o.attempted),
              static_cast<long long>(o.ok), static_cast<long long>(o.failed),
              static_cast<long long>(o.refused),
              static_cast<long long>(o.wrong));
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Samples above the p99 of `n` samples (see Quantile).
size_t BeyondP99(size_t n) {
  const double h = static_cast<double>(n + 1) * 0.99;
  return h >= static_cast<double>(n) ? 0 : n - static_cast<size_t>(h);
}

RunResult RunOnce(const WorkloadConfig& config, const Args& args,
                  Tracer* tracer) {
  RunResult result;
  Span root(tracer, "bench.run");
  std::mt19937_64 rng(args.seed);
  HostSpeed host;
  if (config.serve) WorkerPool::ResetGlobal(kServePoolThreads);

  SetUpState state =
      SetUp(config, config.scale * args.scale_mult, &host, tracer);
  const Workload& workload = state.workload;
  const size_t n = workload.queries.size();

  std::vector<Expected> expected = state.expected;
  const std::vector<QuerySpec>& specs = state.specs;
  if (args.corrupt_check) expected[0].checksum ^= 1;

  // ---- measured work. Paper-mode workloads only sweep; tpcds-serve
  // alternates sweeps and serve windows.
  PaperPhase paper;
  ServePhase serve;
  std::vector<int> stream;
  PlanCacheStats pc0, pc1;
  BuildCacheStats bc0, bc1;
  ServingStats ss0, ss1;
  std::vector<MetricSnapshot> reg0, reg1;
  QueryService* service = state.service.get();
  if (!config.serve) {
    RunPaperPhase(workload, state.stats.get(), expected, args.seconds,
                  kMinSweeps, &rng, &host, tracer, &paper);
  } else {
    stream = MakeRequestStream(1 << 16, n, args.zipf_theta, rng());
    pc0 = service->cache_stats();
    bc0 = service->build_cache_stats();
    ss0 = service->serving_stats();
    reg0 = service->metrics_registry().Snapshot();
    const double round_s = args.seconds / kServeRounds;
    for (int round = 0; round < kServeRounds; ++round) {
      RunPaperPhase(workload, state.stats.get(), expected,
                    kServePaperShare * round_s, 1, &rng, &host, tracer,
                    &paper);
      RunServeWindow(service, specs, stream, kServeClients,
                     (1 - kServePaperShare) * round_s, &host, tracer, &serve);
    }
    pc1 = service->cache_stats();
    bc1 = service->build_cache_stats();
    ss1 = service->serving_stats();
    reg1 = service->metrics_registry().Snapshot();
  }
  SetSlowdowns(host, &paper);
  result.outcome.Add(paper.outcome);
  PrintOutcome(config.name, "paper", paper.outcome);
  const auto& q = paper.queries;
  const double bqo_cpu = SumOfMedians(q, true, RefCpu);
  const double orig_cpu = SumOfMedians(q, false, RefCpu);
  const double bqo_opt = SumOfMedians(q, true, RefOptimize);
  const double orig_opt = SumOfMedians(q, false, RefOptimize);
  const double bqo_exec = SumOfMedians(q, true, RefExecute);
  const double orig_exec = SumOfMedians(q, false, RefExecute);

  // Plan counters are deterministic: take each query's first measured run.
  int64_t pruned = 0, created = 0, fbytes = 0, probed = 0, rejected = 0,
          leaked = 0, bqo_join = 0, orig_join = 0, bqo_leaf = 0, folded = 0,
          probe_in = 0, probe_matched = 0;
  std::vector<double> qerror, query_cpu, latencies, slowdowns;
  for (const PaperQuery& pq : q) {
    const ArmRun& b = pq.bqo.front();
    pruned += b.pruned;
    created += b.filters_created;
    fbytes += b.filter_bytes;
    probed += b.filter_probed;
    rejected += b.filter_rejected;
    leaked += b.filter_leaked;
    bqo_join += b.join_tuples;
    orig_join += pq.original.front().join_tuples;
    bqo_leaf += b.leaf_tuples;
    folded += b.agg_rows_folded;
    probe_in += b.probe_rows_in;
    probe_matched += b.probe_rows_matched;
    const double est = std::max(1.0, b.estimated_cost);
    const double act = std::max(1.0, static_cast<double>(b.intermediate));
    qerror.push_back(std::max(est / act, act / est));
    std::vector<double> cpu, wall_ms;
    for (const ArmRun& r : pq.bqo) {
      cpu.push_back(RefCpu(r));
      wall_ms.push_back(r.wall_s / r.slowdown * 1e3);
      slowdowns.push_back(r.slowdown);
    }
    query_cpu.push_back(Median(std::move(cpu)));
    latencies.push_back(Median(std::move(wall_ms)));
  }
  std::printf("[%s] paper mode: %zu queries x %d sweeps in %.2f s, threads=1\n",
              config.name, n, paper.sweeps, paper.wall_s);
  std::printf("[%s] paper reference: BQO/Original execute CPU %.3f, total "
              "CPU %.3f (paper Fig 8: %.2f); join tuples %.3f (Fig 9)\n",
              config.name, Ratio(bqo_exec, orig_exec), Ratio(bqo_cpu, orig_cpu),
              config.paper_ratio,
              Ratio(static_cast<double>(bqo_join),
                    static_cast<double>(orig_join)));

  // ---- serve mode. Paper-mode workloads have no server; under the same
  // names they report their one-at-a-time BQO loop, one sample per query:
  // its median latency over the sweeps. These are wall-clock twins of
  // bqo_cpu_s, and their p99 is close to the heaviest query's latency, not
  // a serving tail (NOTES.md).
  double serve_qps = 0, p50 = 0, p99 = 0, peak_rss_mb = 0;
  size_t samples = latencies.size();
  // Server-layer counters stay 0 where the layer is bypassed.
  double cpu_per_wall = 0, plan_hit_rate = 0, reoptimizations = 0,
         plan_evictions = 0, server_optimize = 0, build_hit_rate = 0,
         build_evictions = 0, single_flight_waits = 0, server_cpu = 0,
         admission_p99 = 0;
  if (!config.serve) {
    double wall = 0;
    for (double l : latencies) wall += l / 1e3;
    serve_qps = Ratio(static_cast<double>(samples), wall);
    p50 = Quantile(latencies, 0.50);
    p99 = Quantile(latencies, 0.99);
    peak_rss_mb = PeakRssMb();
    auto ref_wall = [](const ArmRun& r) { return r.wall_s / r.slowdown; };
    result.wall_per_unit =
        SumOfMedians(q, true, ref_wall) + SumOfMedians(q, false, ref_wall);
  } else {
    // Correctness gate, after the window: every OK response against a
    // threads=1, cache-free execution of the same jittered spec.
    std::vector<int> needed;
    for (const Served& s : serve.requests) {
      if (s.code == StatusCode::kOk) needed.push_back(s.spec);
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    // The peak RSS of the measured work; the verification below is the
    // benchmark's own and runs 4 reference executions at once.
    peak_rss_mb = PeakRssMb();
    std::map<int, Expected> refs =
        ComputeReferences(*workload.catalog, state.stats.get(), specs, needed,
                          kVerifyThreads, tracer);
    if (args.corrupt_check && !refs.empty()) refs.begin()->second.checksum ^= 1;

    Outcome o;
    std::vector<double> lat;
    double exec_wall = 0, slowdown_sum = 0;
    for (const Served& s : serve.requests) {
      ++o.attempted;
      const double slowdown = host.Slowdown(s.start_ns);
      slowdown_sum += slowdown;
      slowdowns.push_back(slowdown);
      lat.push_back(static_cast<double>(s.latency_ns) / 1e6 / slowdown);
      if (s.code == StatusCode::kResourceExhausted ||
          s.code == StatusCode::kDeadlineExceeded) {
        ++o.refused;
      } else if (s.code != StatusCode::kOk) {
        ++o.failed;
      } else if (refs.at(s.spec).checksum != s.checksum ||
                 refs.at(s.spec).rows != s.rows) {
        ++o.wrong;
        std::fprintf(stderr, "[perfbench] WRONG served result for spec %d\n",
                     s.spec);
      } else {
        ++o.ok;
        server_cpu += static_cast<double>(s.cpu_ns) / 1e9;
        exec_wall += static_cast<double>(s.exec_wall_ns) / 1e9;
        server_optimize += static_cast<double>(s.optimize_ns) / 1e9;
      }
    }
    result.outcome.Add(o);
    PrintOutcome(config.name, "serve", o);
    samples = lat.size();
    // Requests per second at reference host speed, over the window less its
    // quiet slices.
    serve_qps = static_cast<double>(o.ok) / (serve.wall_s - serve.quiet_s) *
                Ratio(slowdown_sum, static_cast<double>(samples));
    p50 = Quantile(lat, 0.50);
    p99 = Quantile(lat, 0.99);
    result.wall_per_unit = Ratio(std::accumulate(lat.begin(), lat.end(), 0.0),
                                 static_cast<double>(samples));
    cpu_per_wall = Ratio(server_cpu, exec_wall);

    // Outcome cross-check against the service's own registry totals.
    const int64_t registry_total = ss1.Total() - ss0.Total();
    const int64_t registry_served = ss1.served - ss0.served;
    std::printf("[%s] serve window: %zu requests in %.2f s (%d quiet slices, "
                "%.3f s), %d clients over a %d-worker pool, Zipf(%.2f) "
                "templates, %zu distinct specs verified; registry total %lld "
                "served %lld; build cache %lld entries, %.1f MiB\n",
                config.name, samples, serve.wall_s, serve.slices,
                serve.quiet_s, kServeClients, kServePoolThreads,
                args.zipf_theta, needed.size(),
                static_cast<long long>(registry_total),
                static_cast<long long>(registry_served),
                static_cast<long long>(bc1.entries),
                static_cast<double>(bc1.bytes) / (1 << 20));
    if (registry_total != o.attempted || registry_served != o.ok + o.wrong) {
      std::fprintf(stderr, "[perfbench] registry totals disagree with the "
                           "requests sent\n");
      ++result.outcome.failed;
    }

    const int64_t lookups = (pc1.hits + pc1.misses + pc1.reoptimizations) -
                            (pc0.hits + pc0.misses + pc0.reoptimizations);
    plan_hit_rate = Ratio(static_cast<double>(pc1.hits - pc0.hits),
                          static_cast<double>(lookups));
    reoptimizations =
        static_cast<double>(pc1.reoptimizations - pc0.reoptimizations);
    plan_evictions = static_cast<double>(pc1.evictions - pc0.evictions);
    build_hit_rate = Ratio(static_cast<double>(bc1.hits - bc0.hits),
                           static_cast<double>(bc1.lookups - bc0.lookups));
    build_evictions = static_cast<double>(bc1.evictions - bc0.evictions);
    single_flight_waits =
        static_cast<double>(bc1.single_flight_waits - bc0.single_flight_waits);
    if (const MetricSnapshot* wait =
            FindMetric(reg1, "bqo_admission_wait_ms")) {
      admission_p99 = HistogramQuantile(
          *wait, FindMetric(reg0, "bqo_admission_wait_ms"), 0.99);
    }
  }
  std::printf("[%s] latency: %zu samples, %zu beyond p99\n", config.name,
              samples, BeyondP99(samples));

  const Outcome& out = result.outcome;
  result.end_to_end = {
      {"setup_s", state.setup_s, "s"},
      {"bqo_cpu_s", bqo_cpu, "s"},
      {"serve_qps", serve_qps, "1/s"},
      {"serve_p50_ms", p50, "ms"},
      {"serve_p99_ms", p99, "ms"},
      {"ok_rate",
       Ratio(static_cast<double>(out.ok), static_cast<double>(out.attempted)),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  result.layer = {
      {"workload.generate_s", state.generate_s, "s"},
      {"storage.catalog_mb",
       static_cast<double>(workload.DatabaseBytes()) / (1 << 20), "MB"},
      {"stats.warmup_s", state.warmup_s, "s"},
      {"bench.warm_pass_s", state.warm_pass_s, "s"},
      {"bench.host_slowdown", Median(slowdowns), "ratio"},
      {"bench.bqo_cpu_raw_s",
       SumOfMedians(q, true, [](const ArmRun& r) { return r.cpu_s(); }), "s"},
      {"bench.latency_samples", static_cast<double>(samples), "count"},
      {"plan.bind_s", SumOfMedians(q, true, RefBind), "s"},
      {"optimizer.bqo_optimize_s", bqo_opt, "s"},
      {"optimizer.original_optimize_s", orig_opt, "s"},
      {"optimizer.optimize_share", Ratio(bqo_opt, bqo_cpu), "ratio"},
      {"optimizer.filters_pruned", static_cast<double>(pruned), "count"},
      {"optimizer.cout_qerror_p50", Quantile(qerror, 0.5), "ratio"},
      {"optimizer.cout_qerror_p90", Quantile(qerror, 0.9), "ratio"},
      {"filter.created", static_cast<double>(created), "count"},
      {"filter.bytes", static_cast<double>(fbytes), "bytes"},
      {"filter.probed", static_cast<double>(probed), "count"},
      {"filter.reject_rate",
       Ratio(static_cast<double>(rejected), static_cast<double>(probed)),
       "ratio"},
      {"filter.measured_fpr",
       Ratio(static_cast<double>(leaked),
             static_cast<double>(leaked + rejected)),
       "ratio"},
      {"exec.bqo_execute_s", bqo_exec, "s"},
      {"exec.original_execute_s", orig_exec, "s"},
      {"exec.bqo_join_tuples", static_cast<double>(bqo_join), "count"},
      {"exec.original_join_tuples", static_cast<double>(orig_join), "count"},
      {"exec.bqo_leaf_tuples", static_cast<double>(bqo_leaf), "count"},
      {"exec.agg_rows_folded", static_cast<double>(folded), "count"},
      {"exec.probe_match_rate",
       Ratio(static_cast<double>(probe_matched), static_cast<double>(probe_in)),
       "ratio"},
      {"exec.top_query_cpu_share",
       Ratio(*std::max_element(query_cpu.begin(), query_cpu.end()), bqo_cpu),
       "ratio"},
      {"exec.cpu_per_wall", cpu_per_wall, "ratio"},
      {"server.plan_cache_hit_rate", plan_hit_rate, "ratio"},
      {"server.reoptimizations", reoptimizations, "count"},
      {"server.plan_cache_evictions", plan_evictions, "count"},
      {"server.optimize_s", server_optimize, "s"},
      {"server.build_cache_hit_rate", build_hit_rate, "ratio"},
      {"server.build_cache_evictions", build_evictions, "count"},
      {"server.single_flight_waits", single_flight_waits, "count"},
      {"server.execute_cpu_s", server_cpu, "s"},
      {"server.admission_wait_p99_ms", admission_p99, "ms"},
      {"paper.original_cpu_s", orig_cpu, "s"},
      {"paper.exec_cpu_ratio", Ratio(bqo_exec, orig_exec), "ratio"},
      {"paper.join_tuple_ratio",
       Ratio(static_cast<double>(bqo_join), static_cast<double>(orig_join)),
       "ratio"},
  };
  return result;
}

/// CPU cost of recording one span, timed on a throwaway tracer.
double SpanCostSeconds() {
  constexpr int kSpans = 100000;
  Tracer tracer;
  const int64_t t0 = ThreadCpuNs();
  for (int i = 0; i < kSpans; ++i) Span span(&tracer, "bench.cost", i);
  return static_cast<double>(ThreadCpuNs() - t0) / 1e9 / kSpans;
}

/// Spans that break the span tree: a parent that was never recorded, or a
/// child that does not lie within its parent's [start, end]. Client and
/// verifier threads start their spans under the window or verify span of
/// the thread that spawned them, so the interval check covers them too.
int NestingViolations(const std::vector<SpanRecord>& spans, int root_id) {
  std::map<int, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  int violations = 0;
  for (const SpanRecord& s : spans) {
    if (s.id == root_id) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end() || s.start_ns < it->second->start_ns ||
        s.end_ns > it->second->end_ns || s.end_ns < s.start_ns) {
      if (violations++ == 0) {
        std::fprintf(stderr, "[perfbench] span %s (id %d) is not nested in "
                     "its parent %d\n", s.name, s.id, s.parent);
      }
    }
  }
  return violations;
}

/// Per-layer self times of the traced run and the cost of tracing. The
/// self times sum to the root span's wall time by construction
/// (SelfSecondsByLayer); trace.self_sum_ratio shows it.
std::vector<Metric> TraceMetrics(const std::vector<SpanRecord>& spans,
                                 int root_id, double untraced_unit,
                                 double traced_unit) {
  const std::map<std::string, double> self = SelfSecondsByLayer(spans, root_id);
  double wall = 0;
  for (const SpanRecord& s : spans) {
    if (s.id == root_id) {
      wall = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
  }
  double sum = 0;
  for (const auto& [layer, seconds] : self) sum += seconds;
  std::vector<Metric> out = {
      {"trace.wall_s", wall, "s"},
      {"trace.self_sum_ratio", Ratio(sum, wall), "ratio"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
      // Traced minus untraced work per unit, at reference host speed; it
      // sits inside run-to-run noise, so the direct span cost follows.
      {"trace.overhead_pct", 100.0 * (Ratio(traced_unit, untraced_unit) - 1.0),
       "%"},
      {"trace.span_cost_pct",
       100.0 * Ratio(static_cast<double>(spans.size()) * SpanCostSeconds(),
                     wall),
       "%"},
  };
  for (const char* layer :
       {"bench", "workload", "stats", "plan", "optimizer", "exec", "server"}) {
    const auto it = self.find(layer);
    out.push_back({std::string("self.") + layer + "_s",
                   it == self.end() ? 0.0 : it->second, "s"});
  }
  return out;
}

void PrintMetricLines(const char* workload,
                      const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("[%s] metric %-34s %.9g %s\n", workload, m.name.c_str(),
                m.value, m.unit.c_str());
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--corrupt-check") {
      args->corrupt_check = true;
      continue;
    }
    if (flag == "--corrupt-trace") {
      args->corrupt_trace = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = v;
    } else if (flag == "--zipf-theta") {
      args->zipf_theta = std::atof(v);
    } else if (flag == "--scale-mult") {
      args->scale_mult = std::atof(v);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && args->scale_mult > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bqo_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--scale-mult X] "
                 "[--zipf-theta T] [--corrupt-check] [--corrupt-trace]\n");
    return 2;
  }
  const WorkloadConfig* config = nullptr;
  for (const WorkloadConfig& c : kWorkloads) {
    if (args.workload == c.name) config = &c;
  }
  if (config == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // End-to-end numbers always come from an untraced run; --trace 1 runs
  // the workload a second time with spans and reports that run's layers.
  const RunResult untraced = RunOnce(*config, args, nullptr);
  RunResult reported = untraced;
  if (args.trace) {
    Tracer tracer;
    int root_id = -1;
    {
      Span root(&tracer, "bench.traced_run");
      root_id = root.id();
      reported = RunOnce(*config, args, &tracer);
    }
    std::vector<SpanRecord> spans = tracer.spans();
    if (args.corrupt_trace) {
      // Stretch one nested span past its parent's end.
      std::map<int, int64_t> end_of;
      for (const SpanRecord& s : spans) end_of[s.id] = s.end_ns;
      for (SpanRecord& s : spans) {
        if (s.parent >= 0 && s.parent != root_id) {
          s.end_ns = end_of[s.parent] + 1;
          break;
        }
      }
    }
    const std::vector<Metric> trace = TraceMetrics(
        spans, root_id, untraced.wall_per_unit, reported.wall_per_unit);
    reported.layer.insert(reported.layer.end(), trace.begin(), trace.end());
    reported.end_to_end = untraced.end_to_end;
    reported.outcome.Add(untraced.outcome);
    if (NestingViolations(spans, root_id) > 0) ++reported.outcome.failed;
    if (!args.trace_out.empty() && !WriteSpans(spans, args.trace_out)) {
      std::fprintf(stderr, "[perfbench] cannot write %s\n",
                   args.trace_out.c_str());
    }
  }

  PrintMetricLines(config->name, reported.end_to_end);
  PrintMetricLines(config->name, reported.layer);

  const Outcome& o = reported.outcome;
  const bool correct = o.wrong == 0;
  const std::vector<Metric>& json =
      args.trace ? reported.layer : reported.end_to_end;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(o.attempted);
  line += ", \"failed\": " + std::to_string(o.Bad());
  line += ", \"metrics\": {";
  for (size_t i = 0; i < json.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", json[i].value);
    line += (i ? ", \"" : "\"") + json[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + json[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct && o.Bad() == 0 ? 0 : 1;
}
