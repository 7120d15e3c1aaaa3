// Optimizer facade: the end-to-end optimize pipeline under each of the
// paper's integration options (Section 6.4) plus the baselines the
// evaluation compares against.
#pragma once

#include <string>

#include "src/plan/cout.h"
#include "src/stats/table_stats.h"

namespace bqo {

enum class OptimizerMode {
  /// DP join ordering blind to bitvector filters, then Algorithm 1 as a
  /// post-processing step — the "original Microsoft SQL Server" baseline.
  kBaselinePostProcess = 0,
  /// Same join order as the baseline but bitvector filters disabled
  /// entirely (Table 4's "plan without bitvector filters").
  kNoBitvectors,
  /// Shallow integration (the paper's implementation): Algorithm 3 orders
  /// the snowflake, further join reordering on it is disabled.
  kBqoShallow,
  /// Alternative-plan integration: cost the baseline plan and the BQO plan
  /// with the bitvector-aware model, keep the cheaper one.
  kAlternativePlan,
  /// Full integration via exhaustive right-deep enumeration with
  /// bitvector-aware costing (ablation; exponential — small queries only,
  /// falls back to kBqoShallow past `exhaustive_limit` plans).
  kExhaustive,
};

const char* OptimizerModeName(OptimizerMode mode);

struct OptimizerOptions {
  OptimizerMode mode = OptimizerMode::kBqoShallow;
  /// Cost-based bitvector filters (Section 6.3): filters with estimated
  /// elimination below lambda_thresh are pruned. Negative disables pruning.
  double lambda_thresh = 0.05;
  /// Assumed filter false-positive rate inside the cost model.
  double filter_fp_rate = 0.0;
  /// DP width cap; larger queries fall back to greedy (baseline modes).
  int max_dp_relations = 14;
  /// Plan-count cap for kExhaustive.
  size_t exhaustive_limit = 50000;

  // ---- Parameterized-plan validity band (src/optimizer/parameterized.h;
  // not part of the plan's cache identity — they bound reuse, they don't
  // change the plan optimization produces) ----

  /// Widest selectivity band for re-bound plan reuse: a cached join order
  /// is served while each re-bound relation's selectivity stays within
  /// this factor (up or down) of its optimize-time value — tightened per
  /// relation by probe re-optimizations (below). <= 1 disables banded
  /// reuse: any moved constant escalates to full re-optimization.
  /// Env overlay: BQO_SEL_BAND (ApplyServingEnvOverrides).
  double reopt_sel_band = 4.0;
  /// Probe re-optimizations per direction per predicated relation when
  /// deriving the band: selectivity is scaled to geometric steps of
  /// reopt_sel_band and the optimizer re-run; the band edge is the last
  /// step at which the chosen join order and unpruned filter set were
  /// unchanged. 0 = skip probing and trust reopt_sel_band as-is.
  int band_probe_steps = 2;
};

struct OptimizedQuery {
  Plan plan;
  /// Bitvector-aware estimated Cout of the final (pruned) plan.
  double estimated_cost = 0;
  /// Filters removed by cost-based pruning.
  int pruned_filters = 0;
  /// Wall time spent optimizing, for the optimization-overhead ablation.
  int64_t optimize_ns = 0;
};

/// \brief Optimize `graph` under `options`. The result plan is fully
/// annotated (Algorithm 1 push-down done, ineffective filters pruned) and
/// ready for ExecutePlan.
OptimizedQuery OptimizeQuery(const JoinGraph& graph, StatsCatalog* stats,
                             const OptimizerOptions& options = {});

}  // namespace bqo
