// Ablation A (Section 6.3): sensitivity to the cost-based filter threshold
// lambda_thresh. The paper profiles Cf/Cp, derives ~10%, and ships 5%
// ("slightly smaller than 1 - Cf/Cp works well"). This sweep shows workload
// CPU and filter counts across thresholds, including "keep everything"
// (thresh <= 0) and "prune aggressively".
#include "bench_util.h"

int main() {
  using namespace bqo;
  const double scale = ScaleFromEnv();
  bench::PrintHeader(
      "Ablation: lambda_thresh sweep (TPC-DS, BQO plans)\n"
      "CPU normalized to lambda_thresh = off (no pruning).");

  Workload w = MakeTpcdsLite(scale);
  const double kThresholds[] = {-1.0, 0.0, 0.01, 0.05, 0.10, 0.25, 0.50,
                                0.90};

  int64_t reference_cpu_ns = -1;
  std::printf("%-10s %14s %14s %14s\n", "thresh", "CPU (norm)",
              "filters kept", "filters pruned");
  std::printf("%s\n", std::string(58, '-').c_str());
  for (double thresh : kThresholds) {
    RunOptions options;
    options.repeats = 2;
    options.optimizer.lambda_thresh = thresh;
    const auto runs = RunWorkload(w, OptimizerMode::kBqoShallow, options);
    int64_t cpu_ns = 0, kept = 0, pruned = 0;
    for (const QueryRun& r : runs) {
      cpu_ns += r.metrics.cpu_ns;
      pruned += r.pruned_filters;
      for (const auto& fs : r.metrics.filters) {
        if (fs.created) ++kept;
      }
    }
    if (reference_cpu_ns < 0) reference_cpu_ns = cpu_ns;
    std::printf("%-10s %14.3f %14lld %14lld\n",
                thresh < 0 ? "off" : StringFormat("%.2f", thresh).c_str(),
                static_cast<double>(cpu_ns) /
                    static_cast<double>(reference_cpu_ns),
                static_cast<long long>(kept), static_cast<long long>(pruned));
  }
  std::printf(
      "\nExpected shape: a shallow minimum around 0.05-0.10 (pruning "
      "useless filters\nsaves probe overhead) rising steeply once "
      "genuinely selective filters get pruned.\n");
  return 0;
}
