// Ablation C (Section 6.4): integration options — baseline post-processing
// vs shallow integration (the paper's shipped variant) vs alternative-plan
// vs full (exhaustive bitvector-aware) integration.
#include "bench_util.h"

int main() {
  using namespace bqo;
  const double scale = ScaleFromEnv();
  bench::PrintHeader(
      "Ablation: integration modes (Section 6.4) on TPC-DS and JOB\n"
      "CPU normalized per workload to baseline post-processing.");

  const OptimizerMode kModes[] = {
      OptimizerMode::kBaselinePostProcess, OptimizerMode::kBqoShallow,
      OptimizerMode::kAlternativePlan, OptimizerMode::kExhaustive};

  for (int which : {1, 0}) {  // TPC-DS, JOB
    Workload w = bench::MakeWorkloadByIndex(which, scale);
    std::printf("\n--- %s ---\n", w.name.c_str());
    std::printf("%-26s %12s %16s\n", "mode", "CPU (norm)", "optimize ms tot");
    std::printf("%s\n", std::string(56, '-').c_str());
    int64_t reference_cpu_ns = -1;
    for (OptimizerMode mode : kModes) {
      RunOptions options;
      options.repeats = 2;
      // Exhaustive costing is exponential; cap the per-query plan budget so
      // the ablation stays runnable (larger queries fall back to BQO).
      options.optimizer.exhaustive_limit = 600;
      std::fprintf(stderr, "[bench] %s / %s...\n", w.name.c_str(),
                   OptimizerModeName(mode));
      const auto runs = RunWorkload(w, mode, options);
      int64_t cpu_ns = 0, opt_ns = 0;
      for (const QueryRun& r : runs) {
        cpu_ns += r.metrics.cpu_ns;
        opt_ns += r.optimize_ns;
      }
      if (reference_cpu_ns < 0) reference_cpu_ns = cpu_ns;
      std::printf("%-26s %12.3f %16.1f\n", OptimizerModeName(mode),
                  static_cast<double>(cpu_ns) /
                      static_cast<double>(reference_cpu_ns),
                  static_cast<double>(opt_ns) / 1e6);
    }
  }
  std::printf(
      "\nExpected shape: shallow ~= alternative-plan <= baseline; "
      "exhaustive matches or\nslightly beats shallow at much higher "
      "optimization cost (it explores an\nexponential space; shallow "
      "explores n+1 candidates).\n");
  return 0;
}
