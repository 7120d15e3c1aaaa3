// Table 4 (Appendix A): effectiveness of bitvector filtering as a pure
// query-processing technique — the same baseline plans executed with and
// without bitvector filters.
//
// Columns reproduced: workload CPU ratio (with/without), ratio of queries
// whose plans use bitvector filters, fraction of queries improved >20%,
// fraction regressed >20%.
#include "bench_util.h"

int main() {
  using namespace bqo;
  const double scale = ScaleFromEnv();
  bench::PrintHeader(
      "Table 4: query plans with and without bitvector filters\n"
      "(same baseline join order; filters toggled at execution)");

  std::printf("%-10s %10s %18s %12s %12s\n", "workload", "CPU ratio",
              "w/ bitvectors", "improved", "regressed");
  std::printf("%s\n", std::string(68, '-').c_str());

  for (int which = 0; which < 3; ++which) {
    Workload w = bench::MakeWorkloadByIndex(which, scale);
    RunOptions options;
    options.repeats = 2;
    std::fprintf(stderr, "[bench] %s: filters ON...\n", w.name.c_str());
    const auto with =
        RunWorkload(w, OptimizerMode::kBaselinePostProcess, options);
    std::fprintf(stderr, "[bench] %s: filters OFF...\n", w.name.c_str());
    const auto without = RunWorkload(w, OptimizerMode::kNoBitvectors, options);

    int64_t with_cpu_ns = 0, without_cpu_ns = 0;
    int uses_filters = 0, improved = 0, regressed = 0;
    for (size_t i = 0; i < with.size(); ++i) {
      with_cpu_ns += with[i].metrics.cpu_ns;
      without_cpu_ns += without[i].metrics.cpu_ns;
      if (with[i].used_bitvectors) ++uses_filters;
      const double ratio =
          static_cast<double>(with[i].metrics.cpu_ns) /
          static_cast<double>(std::max<int64_t>(1, without[i].metrics.cpu_ns));
      if (ratio < 0.8) ++improved;
      if (ratio > 1.2) ++regressed;
    }
    const double n = static_cast<double>(with.size());
    std::printf("%-10s %10.2f %18.2f %12.2f %12.2f\n", w.name.c_str(),
                static_cast<double>(with_cpu_ns) /
                    static_cast<double>(std::max<int64_t>(1, without_cpu_ns)),
                uses_filters / n, improved / n, regressed / n);
  }
  std::printf(
      "\nPaper reference: CPU ratio JOB 0.20 / TPC-DS 0.53 / CUSTOMER 0.90;\n"
      "97-100%% of queries use filters; 42-88%% improved >20%%; no "
      "regressions >20%%.\n");
  return 0;
}
