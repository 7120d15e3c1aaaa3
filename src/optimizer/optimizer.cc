#include "src/optimizer/optimizer.h"

#include <chrono>
#include <limits>

#include "src/optimizer/bqo.h"
#include "src/optimizer/cost_model.h"
#include "src/optimizer/dp_optimizer.h"
#include "src/plan/enumerate.h"
#include "src/plan/pushdown.h"
#include "src/stats/estimated_cost.h"

namespace bqo {

const char* OptimizerModeName(OptimizerMode mode) {
  switch (mode) {
    case OptimizerMode::kBaselinePostProcess:
      return "baseline-postprocess";
    case OptimizerMode::kNoBitvectors:
      return "no-bitvectors";
    case OptimizerMode::kBqoShallow:
      return "bqo-shallow";
    case OptimizerMode::kAlternativePlan:
      return "bqo-alternative-plan";
    case OptimizerMode::kExhaustive:
      return "exhaustive-bitvector-aware";
  }
  return "unknown";
}

namespace {

Plan ExhaustiveBitvectorAware(const JoinGraph& graph, CoutModel* model,
                              size_t limit, bool* fell_back) {
  const size_t count = CountRightDeepOrders(graph, limit + 1);
  if (count > limit) {
    *fell_back = true;
    return OptimizeBqo(graph, model);
  }
  *fell_back = false;
  Plan best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& order : EnumerateRightDeepOrders(graph)) {
    Plan plan = BuildRightDeepPlan(graph, order);
    PushDownBitvectors(&plan);
    const double cost = model->Cout(plan);
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(plan);
    }
  }
  return best;
}

}  // namespace

OptimizedQuery OptimizeQuery(const JoinGraph& graph, StatsCatalog* stats,
                             const OptimizerOptions& options) {
  const auto start = std::chrono::steady_clock::now();

  EstimatedCoutModel blind_model(stats, /*fp_rate=*/0.0);
  EstimatedCoutModel aware_model(stats, options.filter_fp_rate);

  OptimizedQuery result;
  DpOptions dp;
  dp.max_dp_relations = options.max_dp_relations;

  switch (options.mode) {
    case OptimizerMode::kBaselinePostProcess:
    case OptimizerMode::kNoBitvectors: {
      // Join order chosen blind to filters; Algorithm 1 as post-processing.
      result.plan = OptimizeDpBaseline(graph, &blind_model, dp);
      break;
    }
    case OptimizerMode::kBqoShallow: {
      result.plan = OptimizeBqo(graph, &aware_model);
      break;
    }
    case OptimizerMode::kAlternativePlan: {
      Plan baseline = OptimizeDpBaseline(graph, &blind_model, dp);
      PushDownBitvectors(&baseline);
      const double baseline_cost = aware_model.Cout(baseline);
      Plan bqo = OptimizeBqo(graph, &aware_model);
      PushDownBitvectors(&bqo);
      const double bqo_cost = aware_model.Cout(bqo);
      result.plan =
          bqo_cost <= baseline_cost ? std::move(bqo) : std::move(baseline);
      break;
    }
    case OptimizerMode::kExhaustive: {
      bool fell_back = false;
      result.plan = ExhaustiveBitvectorAware(
          graph, &aware_model, options.exhaustive_limit, &fell_back);
      break;
    }
  }

  if (options.mode == OptimizerMode::kNoBitvectors) {
    ClearBitvectors(&result.plan);
  } else {
    PushDownBitvectors(&result.plan);
    if (options.lambda_thresh >= 0) {
      result.pruned_filters = PruneIneffectiveFilters(
          &result.plan, &aware_model, options.lambda_thresh);
    }
  }
  result.estimated_cost = aware_model.Cout(result.plan);
  result.optimize_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace bqo
