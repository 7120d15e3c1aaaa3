#include "src/exec/exchange.h"

#include <utility>

#include "src/common/fault_injector.h"
#include "src/common/thread_clock.h"
#include "src/server/worker_pool.h"

namespace bqo {

namespace {

/// One logical worker: fold the pipeline into `partial` until the scan
/// cursor runs dry or the query stops.
void FoldWorker(const Pipeline& pipe, const AggFold& fold, QueryContext* ctx,
                PipelineWorkerState* ws, PartialAggState* partial) {
  while (!CtxShouldStop(ctx)) {
    const int64_t start = ThreadCpuNanos();
    // Fault hook at the fold hand-off: a fired fault cancels the whole
    // query first-error-wins, exactly as a real fold failure would.
    Status fault =
        FaultInjector::Global().Check(FaultInjector::Site::kExchangePush);
    if (!fault.ok() && ctx != nullptr) ctx->Cancel(std::move(fault));
    const bool more =
        !CtxShouldStop(ctx) && PipelineParallelFold(pipe, fold, ws, partial);
    // Whole-pipeline worker time (fold included) accumulates on the source
    // scan's counter, measured on the per-thread CPU clock so co-running
    // queries on a shared pool don't inflate it (see metrics.h).
    ws->scan.busy_ns += ThreadCpuNanos() - start;
    if (!more) break;
  }
}

}  // namespace

ExchangeOperator::ExchangeOperator(std::unique_ptr<PhysicalOperator> child,
                                   ExecConfig config, const AggSpec& agg,
                                   std::string label)
    : child_(std::move(child)), config_(config) {
  schema_ = child_->output_schema();
  stats_.type = OperatorType::kExchange;
  stats_.label = std::move(label);
  pipe_ = BuildProbePipeline(child_.get());
  BQO_CHECK_MSG(pipe_.parallel(),
                "exchange child must be a parallelizable pipeline");
  BQO_CHECK_GT(config_.ResolvedThreads(), 1);
  // The top probe stage is the plan-root join: a groupjoin folding straight
  // into the workers' partials. A bare scan's batches fold through fold_.
  if (pipe_.probes.empty()) {
    fold_ = AggFold::Resolve(agg, schema_);
  } else {
    pipe_.probes.back()->FoldInto(agg);
  }
}

void ExchangeOperator::Open() {
  TimerGuard timer(&stats_);
  child_->Open();
  pipe_.source->set_morsel_rows(static_cast<size_t>(config_.morsel_rows));
  stats_.parallel_workers = config_.ResolvedThreads();
}

bool ExchangeOperator::Next(Batch* /*out*/) {
  BQO_CHECK_MSG(false, "exchange has no batch output; use DrainPartials()");
  return false;
}

std::vector<PartialAggState> ExchangeOperator::DrainPartials() {
  TimerGuard timer(&stats_);
  // Worker scratch is sized here, after Open() fixed the scan's filter set
  // and each join's residual set.
  const size_t num_workers = static_cast<size_t>(config_.ResolvedThreads());
  std::vector<PipelineWorkerState> workers(num_workers);
  for (auto& ws : workers) InitPipelineWorker(pipe_, &ws);
  std::vector<PartialAggState> partials(num_workers);

  QueryContext* ctx = pipe_.source->query_context();
  WorkerPool::TaskGroup tasks(&WorkerPool::Global());
  for (size_t i = 0; i < num_workers; ++i) {
    tasks.Spawn([this, ctx, ws = &workers[i], partial = &partials[i]] {
      FoldWorker(pipe_, fold_, ctx, ws, partial);
    });
  }
  // Wait() runs still-queued worker tasks on this thread if the pool is
  // busy, so the drain always progresses (worker_pool.h on helping).
  tasks.Wait();

  for (auto& ws : workers) MergePipelineWorkerStats(pipe_, &ws);
  for (const PartialAggState& p : partials) {
    // Per-worker agg counters, merged exactly once (metrics.h). The input
    // rows the fold consumed are this operator's throughput: rows in ==
    // rows out.
    stats_.agg_rows_folded += p.rows_folded;
    stats_.agg_partial_groups += static_cast<int64_t>(p.groups.size());
    stats_.rows_prefilter += p.rows_folded;
    stats_.rows_out += p.rows_folded;
  }
  return partials;
}

void ExchangeOperator::Close() { child_->Close(); }

}  // namespace bqo
