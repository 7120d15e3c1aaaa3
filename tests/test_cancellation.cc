// Failure-domain correctness: cooperative cancellation, deadlines, fault
// injection, and overload resilience across the serving stack. Pins:
//
//  * QueryContext semantics: first-error-wins Cancel, deadline self-cancel
//    in ShouldStop, cancel listeners (invoke-on-cancel, immediate invoke
//    when already cancelled, remove-blocks-until-quiesced contract).
//  * FaultInjector determinism: every-Nth-check firing, per-site counters,
//    DisarmAll.
//  * Mid-drain cancellation: injected faults at each engine site (worker
//    task entry, filter fill, exchange hand-off) cancel star / snowflake /
//    bushy / sort-merge queries mid-execution at pool sizes {1,2,4}
//    without crashing, and the very next clean run on the same pool
//    reproduces the threads==1 baseline exactly — a failed query never
//    poisons the WorkerPool or its neighbors.
//  * Progress guarantee: with the pool's only worker pinned by a blocker
//    task, a parallel plan still completes through Wait()-helping with
//    threads==1 parity, and a query cancelled mid-drain still returns its
//    cancel status promptly — every drain ends in Wait().
//  * Serving-layer overload: bounded admission queue sheds with
//    kResourceExhausted, admission waits are bounded by the service
//    timeout and by the query deadline, a cancelled waiter wakes promptly,
//    and every outcome lands in exactly one ServingStats bucket.
//
// Run under -DBQO_SANITIZE=thread in CI: cancellation races (flag vs. CV
// parks vs. worker unwinding) are exactly what TSan is for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault_injector.h"
#include "src/exec/executor.h"
#include "src/exec/query_context.h"
#include "src/plan/pushdown.h"
#include "src/server/query_service.h"
#include "src/server/worker_pool.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeSnowflakeDb;
using ::bqo::testing::MakeStarDb;
using ::bqo::testing::TestDb;

/// Restores the default (env-sized) global pool when a test that resized
/// it ends, so test order does not matter.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { WorkerPool::ResetGlobal(0); }
};

/// Disarms the process-wide injector on scope exit so a failing test can
/// never leave faults armed for its neighbors.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::Global().DisarmAll(); }
};

// ---- QueryContext unit tests ----

TEST(QueryContext, StartsClean) {
  QueryContext ctx;
  EXPECT_FALSE(ctx.IsCancelled());
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.status().ok());
  EXPECT_FALSE(CtxShouldStop(&ctx));
  EXPECT_FALSE(CtxShouldStop(nullptr));  // null-tolerant helper
}

TEST(QueryContext, CancelIsFirstErrorWins) {
  QueryContext ctx;
  ctx.Cancel(Status::Cancelled("first"));
  ctx.Cancel(Status::Internal("second"));  // must be a no-op
  EXPECT_TRUE(ctx.IsCancelled());
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.status().IsCancelled());
  EXPECT_EQ(ctx.status().message(), "first");
}

TEST(QueryContext, DeadlineSelfCancelsInShouldStop) {
  QueryContext ctx;
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  ASSERT_TRUE(ctx.has_deadline());
  // The flag alone is not raised until someone polls.
  EXPECT_FALSE(ctx.IsCancelled());
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.IsCancelled());
  EXPECT_TRUE(ctx.status().IsDeadlineExceeded());
}

TEST(QueryContext, FutureDeadlineDoesNotStop) {
  QueryContext ctx;
  ctx.SetDeadlineAfterMs(60'000);
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_TRUE(ctx.status().ok());
}

TEST(QueryContext, CancelListenersRunOnCancel) {
  QueryContext ctx;
  std::atomic<int> fired{0};
  const int64_t kept = ctx.AddCancelListener([&fired] { ++fired; });
  const int64_t removed = ctx.AddCancelListener([&fired] { fired += 100; });
  ctx.RemoveCancelListener(removed);
  ctx.Cancel(Status::Cancelled("bye"));
  EXPECT_EQ(fired.load(), 1);  // kept ran once, removed never
  // A listener added after cancellation is invoked immediately (the waiter
  // would otherwise park forever on an already-dead query).
  const int64_t late = ctx.AddCancelListener([&fired] { fired += 10; });
  EXPECT_EQ(fired.load(), 11);
  ctx.RemoveCancelListener(late);
  ctx.RemoveCancelListener(kept);
}

// ---- FaultInjector unit tests ----

TEST(FaultInjector, FiresEveryNthCheckDeterministically) {
  FaultGuard guard;
  FaultInjector& fi = FaultInjector::Global();
  fi.DisarmAll();
  fi.Arm(FaultInjector::Site::kWorkerTask, 3);

  int fires = 0;
  for (int i = 0; i < 9; ++i) {
    const Status s = fi.Check(FaultInjector::Site::kWorkerTask);
    if (!s.ok()) {
      ++fires;
      EXPECT_TRUE(s.IsInternal());
      EXPECT_NE(s.message().find("worker_task"), std::string::npos);
    }
  }
  EXPECT_EQ(fires, 3);  // checks 3, 6, 9
  EXPECT_EQ(fi.injected(), 3);
  EXPECT_EQ(fi.checks(FaultInjector::Site::kWorkerTask), 9);

  // Unarmed sites never fire but the armed site's state is untouched.
  EXPECT_TRUE(fi.Check(FaultInjector::Site::kFilterFill).ok());
  EXPECT_EQ(fi.injected(), 3);

  fi.DisarmAll();
  EXPECT_TRUE(fi.Check(FaultInjector::Site::kWorkerTask).ok());
  EXPECT_EQ(fi.injected(), 0);
  // A disarmed site's Check is a single relaxed load: nothing is counted.
  EXPECT_EQ(fi.checks(FaultInjector::Site::kWorkerTask), 0);
}

// ---- Mid-drain cancellation across plan shapes, sites, and pool sizes ----

struct PlanUnderTest {
  std::unique_ptr<TestDb> db;
  JoinGraph graph;
  Plan plan;
  ExecutionOptions options;
};

std::unique_ptr<PlanUnderTest> MakeStarPlan() {
  auto t = std::make_unique<PlanUnderTest>();
  t->db = MakeStarDb(3, 25000, 300, {0.3, 0.6, 0.15}, 991, /*zipf=*/0.5);
  auto graph = t->db->Graph();
  BQO_CHECK(graph.ok());
  t->graph = std::move(graph.value());
  t->plan = BuildRightDeepPlan(t->graph, {0, 1, 2, 3});
  PushDownBitvectors(&t->plan);
  t->options.agg.kind = AggKind::kSum;
  t->options.agg.sum_column = BoundColumn{0, "measure"};
  t->options.agg.has_group_by = true;
  t->options.agg.group_column = BoundColumn{1, "d0_id"};
  return t;
}

std::unique_ptr<PlanUnderTest> MakeSnowflakePlan() {
  auto t = std::make_unique<PlanUnderTest>();
  t->db = MakeSnowflakeDb({2, 2}, 18000, 400, 0.5, {0.4, 0.5}, 661,
                          /*zipf=*/0.4);
  auto graph = t->db->Graph();
  BQO_CHECK(graph.ok());
  t->graph = std::move(graph.value());
  t->plan = BuildRightDeepPlan(t->graph, {0, 1, 2, 3, 4});
  PushDownBitvectors(&t->plan);
  return t;
}

std::unique_ptr<PlanUnderTest> MakeBushyPlan() {
  auto t = std::make_unique<PlanUnderTest>();
  t->db = MakeSnowflakeDb({2, 2}, 18000, 400, 0.5, {0.4, 0.5}, 772,
                          /*zipf=*/0.4);
  auto graph = t->db->Graph();
  BQO_CHECK(graph.ok());
  t->graph = std::move(graph.value());
  t->plan.graph = &t->graph;
  auto branch0 =
      MakeJoin(t->graph, MakeLeaf(t->graph, 2), MakeLeaf(t->graph, 1));
  auto branch1 =
      MakeJoin(t->graph, MakeLeaf(t->graph, 4), MakeLeaf(t->graph, 3));
  auto inner = MakeJoin(t->graph, std::move(branch1), MakeLeaf(t->graph, 0));
  t->plan.root = MakeJoin(t->graph, std::move(branch0), std::move(inner));
  BQO_CHECK(t->plan.root != nullptr);
  t->plan.Renumber();
  BQO_CHECK(t->plan.Validate());
  PushDownBitvectors(&t->plan);
  return t;
}

std::unique_ptr<PlanUnderTest> MakeSortMergePlan() {
  auto t = std::make_unique<PlanUnderTest>();
  t->db = MakeStarDb(2, 12000, 250, {0.4, 0.25}, 337, /*zipf=*/0.5);
  auto graph = t->db->Graph();
  BQO_CHECK(graph.ok());
  t->graph = std::move(graph.value());
  t->plan = BuildRightDeepPlan(t->graph, {0, 1, 2});
  PushDownBitvectors(&t->plan);
  t->options.use_sort_merge_join = true;
  return t;
}

void ExpectMetricsEqual(const QueryMetrics& base, const QueryMetrics& m,
                        const std::string& what) {
  EXPECT_EQ(m.result_rows, base.result_rows) << what;
  EXPECT_EQ(m.result_checksum, base.result_checksum) << what;
  EXPECT_EQ(m.leaf_tuples, base.leaf_tuples) << what;
  EXPECT_EQ(m.join_tuples, base.join_tuples) << what;
  ASSERT_EQ(m.filters.size(), base.filters.size()) << what;
  for (size_t i = 0; i < m.filters.size(); ++i) {
    EXPECT_EQ(m.filters[i].probed, base.filters[i].probed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].passed, base.filters[i].passed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].inserted, base.filters[i].inserted)
        << what << " f" << i;
  }
}

/// For every plan shape and every fault site that shape exercises, at pool
/// sizes {1,2,4}: an armed fault cancels the query mid-drain (the status
/// is the injected internal error, first-error-wins) without crashing, and
/// the immediately following clean run on the SAME pool matches the
/// threads==1 baseline exactly. This is the "one dead query never poisons
/// the pool" contract.
TEST(MidDrainCancellation, InjectedFaultsUnwindAndPoolStaysServiceable) {
  GlobalPoolGuard pool_guard;
  FaultGuard fault_guard;

  struct Shape {
    const char* name;
    std::unique_ptr<PlanUnderTest> t;
    /// Sites this plan shape actually reaches when executed wide. A
    /// sort-merge root compiles no exchange and fills its filters inline,
    /// so only the build-drain worker tasks are exposed.
    std::vector<FaultInjector::Site> sites;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"star", MakeStarPlan(),
                    {FaultInjector::Site::kWorkerTask,
                     FaultInjector::Site::kFilterFill,
                     FaultInjector::Site::kExchangePush}});
  shapes.push_back({"snowflake", MakeSnowflakePlan(),
                    {FaultInjector::Site::kWorkerTask,
                     FaultInjector::Site::kFilterFill,
                     FaultInjector::Site::kExchangePush}});
  shapes.push_back({"bushy", MakeBushyPlan(),
                    {FaultInjector::Site::kWorkerTask,
                     FaultInjector::Site::kFilterFill,
                     FaultInjector::Site::kExchangePush}});
  shapes.push_back(
      {"sort-merge", MakeSortMergePlan(), {FaultInjector::Site::kWorkerTask}});

  for (Shape& shape : shapes) {
    ExecutionOptions single = shape.t->options;
    single.exec.threads = 1;
    const QueryMetrics base = ExecutePlan(shape.t->plan, single);

    for (int pool : {1, 2, 4}) {
      WorkerPool::ResetGlobal(pool);
      for (FaultInjector::Site site : shape.sites) {
        const std::string what = std::string(shape.name) + " pool=" +
                                 std::to_string(pool) + " site=" +
                                 FaultInjector::SiteName(site);

        ExecutionOptions parallel = shape.t->options;
        parallel.exec.threads = 4;
        parallel.exec.morsel_rows = 1024;

        QueryContext ctx;
        parallel.context = &ctx;
        FaultInjector::Global().Arm(site, 1);  // first check fires
        (void)ExecutePlan(shape.t->plan, parallel);
        FaultInjector::Global().DisarmAll();

        EXPECT_TRUE(ctx.IsCancelled()) << what;
        EXPECT_TRUE(ctx.status().IsInternal()) << what;
        EXPECT_NE(ctx.status().message().find("injected fault"),
                  std::string::npos)
            << what;

        // The same pool, immediately after the failure: bit-exact parity.
        parallel.context = nullptr;
        const QueryMetrics clean = ExecutePlan(shape.t->plan, parallel);
        ExpectMetricsEqual(base, clean, what + " follow-up");
      }
    }
  }
}

/// An already-expired deadline stops the plan before (or within one stride
/// of) any real work, with kDeadlineExceeded as the first error.
TEST(MidDrainCancellation, ExpiredDeadlineStopsExecution) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto t = MakeStarPlan();

  ExecutionOptions options = t->options;
  options.exec.threads = 4;
  QueryContext ctx;
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  options.context = &ctx;
  (void)ExecutePlan(t->plan, options);
  EXPECT_TRUE(ctx.IsCancelled());
  EXPECT_TRUE(ctx.status().IsDeadlineExceeded());
}

// ---- Progress guarantee: every drain ends in Wait(), which helps ----

/// Resizes the global pool to one worker and holds that worker with a
/// blocker task, so every task a drain spawns stays queued unless the
/// drain's own TaskGroup::Wait() runs it. Release() (or the destructor)
/// unpins the worker and restores the env-sized pool.
class PinnedPool {
 public:
  PinnedPool() {
    WorkerPool::ResetGlobal(1);
    blocker_ = std::make_unique<WorkerPool::TaskGroup>(&WorkerPool::Global());
    std::shared_future<void> release(released_.get_future());
    blocker_->Spawn([this, release] {
      occupied_.set_value();
      release.wait();
    });
    occupied_.get_future().wait();
  }
  ~PinnedPool() {
    Release();
    WorkerPool::ResetGlobal(0);
  }
  PinnedPool(const PinnedPool&) = delete;
  PinnedPool& operator=(const PinnedPool&) = delete;

  void Release() {
    if (blocker_ == nullptr) return;
    released_.set_value();
    blocker_.reset();  // ~TaskGroup waits for the blocker to finish
  }

 private:
  std::promise<void> occupied_;
  std::promise<void> released_;
  std::unique_ptr<WorkerPool::TaskGroup> blocker_;
};

int64_t ExchangeRowsFolded(const QueryMetrics& m) {
  for (const OperatorStats& op : m.operators) {
    if (op.type == OperatorType::kExchange) return op.agg_rows_folded;
  }
  return -1;
}

/// Runs `plan` on its own thread and waits up to `timeout` for it. On
/// timeout the pool is unpinned so the query can finish, and nullopt says
/// the drain did not progress on its own.
std::optional<QueryMetrics> ExecuteWithin(const Plan& plan,
                                          const ExecutionOptions& options,
                                          PinnedPool* pinned,
                                          std::chrono::seconds timeout) {
  auto run = std::async(std::launch::async, [&plan, &options] {
    return ExecutePlan(plan, options);
  });
  if (run.wait_for(timeout) != std::future_status::ready) {
    pinned->Release();
    run.wait();
    return std::nullopt;
  }
  return run.get();
}

TEST(ProgressGuarantee, PinnedPoolDrainsThroughWaitHelping) {
  auto t = MakeStarPlan();
  const QueryMetrics base = ExecutePlan(t->plan, t->options);

  PinnedPool pinned;
  ExecutionOptions parallel = t->options;
  parallel.exec.threads = 4;
  parallel.exec.morsel_rows = 1024;
  const std::optional<QueryMetrics> m =
      ExecuteWithin(t->plan, parallel, &pinned, std::chrono::seconds(30));
  ASSERT_TRUE(m.has_value()) << "drain stalled behind the pinned worker";
  ASSERT_GT(ExchangeRowsFolded(*m), 0) << "plan compiled no exchange";
  ExpectMetricsEqual(base, *m, "pinned pool");
}

TEST(ProgressGuarantee, MidDrainCancelReturnsWhilePoolPinned) {
  FaultGuard fault_guard;
  auto t = MakeStarPlan();
  ExecutionOptions parallel = t->options;
  parallel.exec.threads = 4;
  parallel.exec.morsel_rows = 1024;
  const int64_t full_rows = ExchangeRowsFolded(ExecutePlan(t->plan, parallel));
  ASSERT_GT(full_rows, 0);

  PinnedPool pinned;
  QueryContext ctx;
  parallel.context = &ctx;
  // The exchange's first fold hand-off cancels the context, so the cancel
  // lands mid-drain on every run, with the tasks queued behind the pinned
  // worker.
  FaultInjector::Global().Arm(FaultInjector::Site::kExchangePush, 1);
  const std::optional<QueryMetrics> m =
      ExecuteWithin(t->plan, parallel, &pinned, std::chrono::seconds(10));
  ASSERT_TRUE(m.has_value()) << "cancelled drain stalled while pinned";
  EXPECT_TRUE(ctx.status().IsInternal());
  EXPECT_NE(ctx.status().message().find("exchange_push"), std::string::npos);
  EXPECT_LT(ExchangeRowsFolded(*m), full_rows);
}

// ---- QueryService: deadlines, shedding, bounded waits, fault recovery ----

std::unique_ptr<TestDb> MakeServiceDb() {
  return MakeStarDb(2, 15000, 250, {0.4, 0.5}, 313, /*zipf=*/0.5);
}

TEST(QueryServiceResilience, ExpiredClientDeadlineIsTimedOutNotServed) {
  auto db = MakeServiceDb();
  QueryService service(&db->catalog, QueryServiceOptions{});

  QueryContext ctx;
  ctx.SetDeadline(std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1));
  const QueryResult r = service.Execute(db->spec, &ctx);
  EXPECT_TRUE(r.status.IsDeadlineExceeded());
  EXPECT_EQ(r.metrics.result_rows, 0);  // never planned, never ran

  // A fresh query right after is served normally.
  EXPECT_TRUE(service.Execute(db->spec).status.ok());
  const ServingStats stats = service.serving_stats();
  EXPECT_EQ(stats.timed_out, 1);
  EXPECT_EQ(stats.served, 1);
  EXPECT_EQ(service.queries_served(), 1);
}

TEST(QueryServiceResilience, DefaultDeadlineCoversSlowAdmittedQueries) {
  auto db = MakeServiceDb();
  QueryServiceOptions options;
  options.default_deadline_ms = 10;
  // Deterministic "slow query": park after admission until well past the
  // deadline; the pre-planning ShouldStop must then stop it.
  options.post_admit_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  QueryService service(&db->catalog, options);

  const QueryResult r = service.Execute(db->spec);
  EXPECT_TRUE(r.status.IsDeadlineExceeded());
  EXPECT_EQ(service.serving_stats().timed_out, 1);
}

TEST(QueryServiceResilience, FullAdmissionQueueShedsImmediately) {
  auto db = MakeServiceDb();
  QueryServiceOptions options;
  options.max_concurrent_queries = 1;
  options.admission_queue_limit = 0;  // run-or-shed: nobody waits

  std::promise<void> admitted_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<bool> first{true};
  options.post_admit_hook = [&] {
    // Only the first (occupying) query parks; follow-ups run through.
    if (first.exchange(false)) {
      admitted_promise.set_value();
      release.wait();
    }
  };
  QueryService service(&db->catalog, options);

  std::thread occupant(
      [&] { EXPECT_TRUE(service.Execute(db->spec).status.ok()); });
  admitted_promise.get_future().wait();

  // House full, queue bound 0: shed synchronously, no waiting.
  const QueryResult shed = service.Execute(db->spec);
  EXPECT_TRUE(shed.status.IsResourceExhausted());

  release_promise.set_value();
  occupant.join();

  // Capacity was not leaked: the service keeps serving.
  EXPECT_TRUE(service.Execute(db->spec).status.ok());
  const ServingStats stats = service.serving_stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.Total(), 3);
}

TEST(QueryServiceResilience, AdmissionWaitIsBoundedByServiceTimeout) {
  auto db = MakeServiceDb();
  QueryServiceOptions options;
  options.max_concurrent_queries = 1;
  options.admission_timeout_ms = 30;

  std::promise<void> admitted_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<bool> first{true};
  options.post_admit_hook = [&] {
    if (first.exchange(false)) {
      admitted_promise.set_value();
      release.wait();
    }
  };
  QueryService service(&db->catalog, options);

  std::thread occupant(
      [&] { EXPECT_TRUE(service.Execute(db->spec).status.ok()); });
  admitted_promise.get_future().wait();

  // Queue is unbounded, so this waits — but only up to the timeout.
  const QueryResult timed_out = service.Execute(db->spec);
  EXPECT_TRUE(timed_out.status.IsDeadlineExceeded());

  release_promise.set_value();
  occupant.join();
  EXPECT_EQ(service.serving_stats().timed_out, 1);
  EXPECT_TRUE(service.Execute(db->spec).status.ok());
}

TEST(QueryServiceResilience, CancelWakesAdmissionWaiter) {
  auto db = MakeServiceDb();
  QueryServiceOptions options;
  options.max_concurrent_queries = 1;  // no timeout, no queue bound

  std::promise<void> admitted_promise;
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<bool> first{true};
  options.post_admit_hook = [&] {
    if (first.exchange(false)) {
      admitted_promise.set_value();
      release.wait();
    }
  };
  QueryService service(&db->catalog, options);

  std::thread occupant(
      [&] { EXPECT_TRUE(service.Execute(db->spec).status.ok()); });
  admitted_promise.get_future().wait();

  QueryContext waiter_ctx;
  std::promise<QueryResult> waiter_result;
  std::thread waiter([&] {
    waiter_result.set_value(service.Execute(db->spec, &waiter_ctx));
  });

  // The waiter parks on the admission CV (unbounded, no timeout). Cancel
  // must wake it promptly — the occupant is still holding the only slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  waiter_ctx.Cancel(Status::Cancelled("client disconnected"));

  auto fut = waiter_result.get_future();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "admission waiter stayed parked after Cancel";
  EXPECT_TRUE(fut.get().status.IsCancelled());
  waiter.join();

  release_promise.set_value();
  occupant.join();
  const ServingStats stats = service.serving_stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.served, 1);
}

/// Faults injected through the service — at the planning surface and in
/// the engine mid-drain — surface in QueryResult::status, count as
/// failures, and leave pool + plan cache serving identical results.
TEST(QueryServiceResilience, InjectedFaultsDoNotPoisonTheService) {
  GlobalPoolGuard pool_guard;
  FaultGuard fault_guard;
  WorkerPool::ResetGlobal(4);

  auto db = MakeServiceDb();
  QueryServiceOptions options;
  options.execution.exec.threads = 4;
  options.max_workers_per_query = 4;
  // Build privately every run: the kWorkerTask/kFilterFill sites live in
  // the build drain and filter fill, which a build-cache hit skips — this
  // test is about faults on the engine path itself. Faults during *shared*
  // builds are covered by tests/test_shared_builds.cc.
  options.use_build_cache = false;
  QueryService service(&db->catalog, options);

  const QueryResult baseline = service.Execute(db->spec);
  ASSERT_TRUE(baseline.status.ok());

  int64_t expect_failed = 0;
  for (FaultInjector::Site site :
       {FaultInjector::Site::kPlanCacheLookup,
        FaultInjector::Site::kWorkerTask, FaultInjector::Site::kFilterFill,
        FaultInjector::Site::kExchangePush}) {
    FaultInjector::Global().Arm(site, 1);
    const QueryResult faulted = service.Execute(db->spec);
    FaultInjector::Global().DisarmAll();
    EXPECT_TRUE(faulted.status.IsInternal())
        << FaultInjector::SiteName(site);
    ++expect_failed;

    const QueryResult after = service.Execute(db->spec);
    EXPECT_TRUE(after.status.ok()) << FaultInjector::SiteName(site);
    ExpectMetricsEqual(baseline.metrics, after.metrics,
                       std::string("after fault at ") +
                           FaultInjector::SiteName(site));
  }

  const ServingStats stats = service.serving_stats();
  EXPECT_EQ(stats.failed, expect_failed);
  EXPECT_EQ(stats.served, 1 + expect_failed);  // baseline + one per recovery
  EXPECT_EQ(stats.Total(), 1 + 2 * expect_failed);
  EXPECT_EQ(service.peak_concurrent(), 1);
}

TEST(QueryServiceResilience, ServingEnvOverrides) {
  // No env set: options pass through untouched.
  QueryServiceOptions base;
  base.default_deadline_ms = 7;
  base.admission_queue_limit = 3;
  const QueryServiceOptions same = ApplyServingEnvOverrides(base);
  EXPECT_EQ(same.default_deadline_ms, 7);
  EXPECT_EQ(same.admission_queue_limit, 3);

  ::setenv("BQO_DEADLINE_MS", "250", 1);
  ::setenv("BQO_ADMISSION_QUEUE", "0", 1);
  const QueryServiceOptions overridden = ApplyServingEnvOverrides(base);
  ::unsetenv("BQO_DEADLINE_MS");
  ::unsetenv("BQO_ADMISSION_QUEUE");
  EXPECT_EQ(overridden.default_deadline_ms, 250);
  EXPECT_EQ(overridden.admission_queue_limit, 0);  // "0" is meaningful
}

}  // namespace
}  // namespace bqo
