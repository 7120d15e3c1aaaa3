// ExchangeOperator: the pre-aggregating, morsel-parallel drain of the
// plan's topmost probe pipeline.
//
// The wrapped child is any parallelizable probe pipeline (pipeline.h): a
// bare scan, or a scan -> probe -> ... -> probe chain of hash joins. The
// executor compiles exactly one exchange, directly below the final
// aggregate, when that pipeline is parallelizable (executor.cc), so
// parallelism stops at the plan's final breaker, not at the leaves — and
// the breaker's own work (the fold) runs wide too, leaving only the
// group-map merge serial.
//
// Open() only opens the child, which runs every hash-join build below
// (itself wide) and resolves the scan's pushed-down filters. The aggregate
// sink then calls DrainPartials(), a single fork-join scope: it spawns one
// task per logical worker on the shared WorkerPool (src/server/
// worker_pool.h; no per-query thread construction), each pulling scan
// morsels off the shared cursor and streaming them up the probe chain
// thread-locally (PipelineParallelFold). The chain's top join is the plan
// root, which the constructor turns into a groupjoin (hash_join.h): it
// folds each probe row's pre-aggregated build matches straight into the
// worker's PartialAggState (aggregate.h), so the root's M:N output is never
// materialized; a bare-scan child's batches fold row by row. DrainPartials()
// then Wait()s — helping run its own queued tasks, so the drain progresses
// even on a saturated pool — and returns the partials for the exact merge
// (MergeFrom commutes; see aggregate.h). No task outlives the call. The
// exchange produces no batches: Next() must not be called.
//
// Stats discipline: workers accumulate FilterStats/OperatorStats deltas in
// their private PipelineWorkerState (scan scratch + per-join ProbeStates);
// DrainPartials() merges them into the shared counters exactly once after
// Wait(), so the merged probed/passed counts — at the scan's pushed-down
// filters and at every join's residual filters — equal the single-threaded
// run's (the observed-lambda numbers of Section 6.3 stay exact under
// parallelism). The per-worker agg counters (rows folded, partial group
// counts) merge into this operator's agg_rows_folded / agg_partial_groups
// the same way (metrics.h); rows_out counts the folded rows, which under a
// groupjoin are the join rows its weighted folds stand for.
//
// Cancellation (query_context.h): workers poll the query's context at every
// morsel claim, stride and batch, so a cancelled drain runs dry in bounded
// time and DrainPartials() returns; the caller reads the context's status.
#pragma once

#include <memory>
#include <vector>

#include "src/exec/aggregate.h"
#include "src/exec/exec_config.h"
#include "src/exec/pipeline.h"

namespace bqo {

class ExchangeOperator final : public PhysicalOperator {
 public:
  /// `child` must decompose into a parallelizable pipeline
  /// (BuildProbePipeline(child).parallel()) and `config` must resolve to
  /// more than one thread. A hash-join `child` becomes a groupjoin folding
  /// `agg` (HashJoinOperator::FoldInto); a bare scan's `agg` is resolved
  /// against its schema. Both CHECK on missing columns.
  ExchangeOperator(std::unique_ptr<PhysicalOperator> child, ExecConfig config,
                   const AggSpec& agg, std::string label);

  void Open() override;
  /// The exchange has no batch output; CHECK-fails. Use DrainPartials().
  bool Next(Batch* out) override;
  void Close() override;

  /// \brief Run every worker to scan exhaustion (or cancellation), merge
  /// their pipeline stats exactly once, and return the per-worker partial
  /// aggregates for the sink to merge. Call once per Open().
  std::vector<PartialAggState> DrainPartials();

  std::vector<PhysicalOperator*> children() override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<PhysicalOperator> child_;
  Pipeline pipe_;  ///< decomposition of child_ (source + probe stages)
  ExecConfig config_;
  AggFold fold_;  ///< bare-scan child only: shared, read-only fold kernel
};

}  // namespace bqo
