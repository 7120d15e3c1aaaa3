// Figure 8: total query execution CPU time per workload, Original vs BQO,
// broken down by query selectivity group (S = cheapest third of queries by
// baseline CPU, L = most expensive third).
//
// Paper headline: BQO reduces total workload CPU to 0.36 (JOB), 0.78
// (TPC-DS), 0.75 (CUSTOMER) of the original, with the largest wins in the
// L (low-selectivity / expensive) group — 4.8x for JOB's L group.
#include "bench_util.h"

int main() {
  using namespace bqo;
  const double scale = ScaleFromEnv();
  bench::PrintHeader(
      "Figure 8: total execution CPU by selectivity group (Original vs BQO)\n"
      "All numbers normalized by the workload's Original total.");

  auto comparisons = bench::RunAllComparisons(scale);

  std::printf("%-10s | %9s %9s %9s | %9s %9s %9s | %s\n", "workload",
              "Orig L", "Orig M", "Orig S", "BQO L", "BQO M", "BQO S",
              "BQO total");
  std::printf("%s\n", std::string(100, '-').c_str());

  for (const auto& c : comparisons) {
    const auto groups = GroupBySelectivity(c.original);
    double orig[3] = {0, 0, 0}, bqo[3] = {0, 0, 0};
    for (size_t i = 0; i < c.original.size(); ++i) {
      const int g = static_cast<int>(groups[i]);
      orig[g] += static_cast<double>(c.original[i].metrics.cpu_ns);
      bqo[g] += static_cast<double>(c.bqo[i].metrics.cpu_ns);
    }
    const double total = orig[0] + orig[1] + orig[2];
    std::printf(
        "%-10s | %9.3f %9.3f %9.3f | %9.3f %9.3f %9.3f |   %.3f\n",
        c.workload.name.c_str(), orig[2] / total, orig[1] / total,
        orig[0] / total, bqo[2] / total, bqo[1] / total, bqo[0] / total,
        (bqo[0] + bqo[1] + bqo[2]) / total);
    if (bqo[2] > 0) {
      std::printf(
          "%-10s   L-group (expensive queries) speedup: %.2fx   "
          "(paper: up to 4.8x for JOB)\n",
          "", orig[2] / bqo[2]);
    }
  }
  std::printf(
      "\nPaper reference (BQO total, normalized): JOB 0.36, TPC-DS 0.78, "
      "CUSTOMER 0.75; average reduction 37%%.\n");
  return 0;
}
