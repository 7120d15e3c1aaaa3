// Ablation E: join algorithm — hash join vs sort-merge join, each with and
// without bitvector filters (the paper's Section 2 remark: the filter
// machinery adapts to merge joins; elimination happens before the sort, so
// merge joins benefit as well).
#include "bench_util.h"

int main() {
  using namespace bqo;
  const double scale = ScaleFromEnv();
  bench::PrintHeader(
      "Ablation: join algorithm x bitvector filters (TPC-DS, BQO plans)\n"
      "CPU normalized to hash join with filters.");

  Workload w = MakeTpcdsLite(scale * 0.5);

  struct Config {
    const char* label;
    bool merge;
    bool filters;
  };
  const Config configs[] = {
      {"hash + filters", false, true},
      {"hash, no filters", false, false},
      {"merge + filters", true, true},
      {"merge, no filters", true, false},
  };

  std::printf("%-20s %12s %18s\n", "configuration", "CPU (norm)",
              "join tuples (M)");
  std::printf("%s\n", std::string(54, '-').c_str());
  int64_t reference_cpu_ns = -1;
  for (const Config& cfg : configs) {
    RunOptions options;
    options.repeats = 2;
    options.execution.use_sort_merge_join = cfg.merge;
    std::fprintf(stderr, "[bench] %s...\n", cfg.label);
    const auto runs = RunWorkload(
        w,
        cfg.filters ? OptimizerMode::kBqoShallow
                    : OptimizerMode::kNoBitvectors,
        options);
    int64_t cpu_ns = 0, join_tuples = 0;
    for (const QueryRun& r : runs) {
      cpu_ns += r.metrics.cpu_ns;
      join_tuples += r.metrics.join_tuples;
    }
    if (reference_cpu_ns < 0) reference_cpu_ns = cpu_ns;
    std::printf("%-20s %12.3f %18.2f\n", cfg.label,
                static_cast<double>(cpu_ns) /
                    static_cast<double>(reference_cpu_ns),
                static_cast<double>(join_tuples) / 1e6);
  }
  std::printf(
      "\nExpected shape: filters help BOTH algorithms; merge joins pay an\n"
      "extra sort but the filter removes tuples before sorting, so the\n"
      "relative benefit of filtering is at least as large.\n");
  return 0;
}
