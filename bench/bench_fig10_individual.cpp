// Figure 10: per-query CPU time, Original vs BQO, for the top-60 most
// expensive queries of each workload (sorted by Original CPU; the paper
// plots these on a log scale and observes up to two orders of magnitude
// improvement on individual queries, with some regressions).
#include <algorithm>

#include "bench_util.h"

int main() {
  using namespace bqo;
  const double scale = ScaleFromEnv();
  bench::PrintHeader(
      "Figure 10: individual query CPU (top 60 by Original CPU, per "
      "workload)\nratio < 1 means BQO wins; log-scale in the paper.");

  auto comparisons = bench::RunAllComparisons(scale);

  for (const auto& c : comparisons) {
    std::printf("\n--- %s ---\n", c.workload.name.c_str());
    std::vector<size_t> order(c.original.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return c.original[a].metrics.cpu_ns > c.original[b].metrics.cpu_ns;
    });
    const size_t top = std::min<size_t>(60, order.size());
    std::printf("%-4s %-14s %12s %12s %9s\n", "rank", "query",
                "Original(ms)", "BQO(ms)", "ratio");
    int improved10x = 0, improved = 0, regressed = 0;
    for (size_t rank = 0; rank < top; ++rank) {
      const QueryRun& o = c.original[order[rank]];
      const QueryRun& b = c.bqo[order[rank]];
      const double oms = static_cast<double>(o.metrics.cpu_ns) / 1e6;
      const double bms = static_cast<double>(b.metrics.cpu_ns) / 1e6;
      const double ratio = oms > 0 ? bms / oms : 1.0;
      if (rank < 20) {  // print the first 20 rows, summarize the rest
        std::printf("%-4zu %-14s %12.3f %12.3f %9.3f\n", rank + 1,
                    o.query_name.c_str(), oms, bms, ratio);
      }
      if (ratio < 0.1) ++improved10x;
      if (ratio < 0.8) ++improved;
      if (ratio > 1.25) ++regressed;
    }
    std::printf(
        "... (of top %zu): %d queries >=10x faster, %d improved >20%%, %d "
        "regressed >25%%\n",
        top, improved10x, improved, regressed);
  }
  std::printf(
      "\nPaper: up to two orders of magnitude reduction on individual "
      "queries; a few regressions\n(cost-model gaps, right-deep bias) — "
      "Section 7.4.\n");
  return 0;
}
