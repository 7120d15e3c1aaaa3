// Morsel-parallel scan correctness: for every filter kind (including a
// saturated Bloom filter), SUM(measure) GROUP BY key over a scan drained by N
// exchange workers must produce the same checksum, group count and total,
// and the same merged FilterStats/OperatorStats, as the single-threaded
// scan — parallelism is pure performance (and the per-worker accumulate +
// merge-once discipline keeps the counters exact; see metrics.h). Run under
// -DBQO_SANITIZE=thread in CI to pin race-freedom.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/exec/aggregate.h"
#include "src/exec/exchange.h"
#include "src/exec/executor.h"
#include "src/exec/scan.h"
#include "src/filter/bloom_filter.h"
#include "src/filter/exact_filter.h"
#include "src/plan/pushdown.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeStarDb;

struct ManualScanResult {
  uint64_t checksum = 0;  ///< order-independent (aggregate.h)
  int64_t num_groups = 0;
  int64_t total = 0;
  FilterStats filter_stats;
  int64_t rows_prefilter = 0;
  int64_t rows_out = 0;
};

/// SUM(measure) GROUP BY `key_column` over a ScanOperator probing `filter`
/// on `key_column`, behind an exchange when threads > 1 — the compile shape
/// ExecutePlan uses for a single-table plan.
ManualScanResult RunManualScan(const Table* table,
                               std::unique_ptr<BitvectorFilter> filter,
                               const std::string& key_column, int threads) {
  FilterRuntime runtime;
  runtime.slots.resize(1);
  runtime.stats.assign(1, FilterStats{});
  runtime.stats[0].filter_id = 0;
  runtime.slots[0] = std::move(filter);

  ResolvedFilter rf;
  rf.filter_id = 0;
  rf.key_positions.push_back(table->ColumnIndex(key_column));
  OutputSchema schema({BoundColumn{0, key_column}, BoundColumn{0, "measure"}});
  AggSpec spec;
  spec.kind = AggKind::kSum;
  spec.sum_column = BoundColumn{0, "measure"};
  spec.has_group_by = true;
  spec.group_column = BoundColumn{0, key_column};

  auto scan = std::make_unique<ScanOperator>(
      table, nullptr, schema, std::vector<ResolvedFilter>{rf}, &runtime,
      "scan t");
  ScanOperator* scan_raw = scan.get();
  std::unique_ptr<PhysicalOperator> child;
  if (threads > 1) {
    ExecConfig config;
    config.threads = threads;
    config.morsel_rows = 4096;  // several morsels per worker at test sizes
    child = std::make_unique<ExchangeOperator>(std::move(scan), config, spec,
                                               "xchg t");
  } else {
    child = std::move(scan);
  }
  AggregateOperator agg(std::move(child), spec);

  ManualScanResult result;
  agg.Open();
  agg.Close();
  result.checksum = agg.ResultChecksum();
  result.num_groups = agg.NumGroups();
  result.total = agg.TotalValue();
  result.filter_stats = runtime.stats[0];
  result.rows_prefilter = scan_raw->stats().rows_prefilter;
  result.rows_out = scan_raw->stats().rows_out;
  return result;
}

class ParallelScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeStarDb(1, 50000, 500, {-1.0}, 4242, /*zipf=*/0.5);
    fact_ = db_->catalog.GetTable("f").value();
  }

  /// Filter admitting ~half the FK domain (built from the composite hashes
  /// the scan probes with), fresh per run so stats never leak across runs.
  std::unique_ptr<BitvectorFilter> MakeHalfDomainFilter(FilterKind kind) {
    FilterConfig config;
    config.kind = kind;
    auto filter = CreateFilter(config, 250);
    for (int64_t v = 0; v < 500; v += 2) {
      filter->Insert(HashComposite(&v, 1));
    }
    return filter;
  }

  /// A Bloom filter sized for 16 keys and fed thousands, so every bit of
  /// its single block is set (it then admits everything).
  std::unique_ptr<BitvectorFilter> MakeSaturatedBloom() {
    auto filter = std::make_unique<BloomFilter>(16, 10.0);
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) filter->Insert(rng.Next());
    for (int i = 0; i < 1000; ++i) BQO_CHECK(filter->MayContain(rng.Next()));
    return filter;
  }

  std::unique_ptr<testing::TestDb> db_;
  const Table* fact_ = nullptr;
};

TEST_F(ParallelScanTest, ThreadedScanMatchesSingleThreadAllKinds) {
  for (FilterKind kind :
       {FilterKind::kExact, FilterKind::kBloom, FilterKind::kBlockedBloom}) {
    const ManualScanResult base =
        RunManualScan(fact_, MakeHalfDomainFilter(kind), "d0_fk", 1);
    ASSERT_GT(base.rows_out, 0) << FilterKindName(kind);
    ASSERT_LT(base.rows_out, base.rows_prefilter) << FilterKindName(kind);
    for (int threads : {2, 4}) {
      const ManualScanResult par =
          RunManualScan(fact_, MakeHalfDomainFilter(kind), "d0_fk", threads);
      EXPECT_EQ(par.checksum, base.checksum)
          << FilterKindName(kind) << " threads=" << threads;
      EXPECT_EQ(par.num_groups, base.num_groups) << FilterKindName(kind);
      EXPECT_EQ(par.total, base.total) << FilterKindName(kind);
      // Merged stats must equal the single-threaded counts exactly (the
      // probe/pass sets are partition-invariant; only probe_batches may
      // differ with morsel boundaries).
      EXPECT_EQ(par.filter_stats.probed, base.filter_stats.probed);
      EXPECT_EQ(par.filter_stats.passed, base.filter_stats.passed);
      EXPECT_EQ(par.rows_prefilter, base.rows_prefilter);
      EXPECT_EQ(par.rows_out, base.rows_out);
    }
  }
}

TEST_F(ParallelScanTest, SaturatedBloomPassesEverythingUnderThreads) {
  const ManualScanResult base =
      RunManualScan(fact_, MakeSaturatedBloom(), "d0_fk", 1);
  // Saturated filter admits everything: output == full selection.
  EXPECT_EQ(base.rows_out, fact_->num_rows());
  EXPECT_EQ(base.filter_stats.passed, base.filter_stats.probed);
  const ManualScanResult par =
      RunManualScan(fact_, MakeSaturatedBloom(), "d0_fk", 4);
  EXPECT_EQ(par.checksum, base.checksum);
  EXPECT_EQ(par.num_groups, base.num_groups);
  EXPECT_EQ(par.total, base.total);
  EXPECT_EQ(par.rows_out, base.rows_out);
  EXPECT_EQ(par.filter_stats.probed, base.filter_stats.probed);
  EXPECT_EQ(par.filter_stats.passed, base.filter_stats.passed);
}

/// End-to-end: ExecutePlan with exec.threads in {1, 4} must agree on result
/// rows, the order-independent checksum, and every filter's merged counters,
/// for all three filter kinds.
TEST(ParallelExecTest, PlanResultsAndFilterStatsMatchSingleThread) {
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 77, /*zipf=*/0.6);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1, 2, 3});
  PushDownBitvectors(&plan);

  for (FilterKind kind :
       {FilterKind::kExact, FilterKind::kBloom, FilterKind::kBlockedBloom}) {
    ExecutionOptions single;
    single.filter_config.kind = kind;
    single.agg.kind = AggKind::kSum;
    single.agg.sum_column = BoundColumn{0, "measure"};
    const QueryMetrics base = ExecutePlan(plan, single);

    ExecutionOptions parallel = single;
    parallel.exec.threads = 4;
    parallel.exec.morsel_rows = 2048;
    const QueryMetrics m = ExecutePlan(plan, parallel);

    EXPECT_EQ(m.result_rows, base.result_rows) << FilterKindName(kind);
    EXPECT_EQ(m.result_checksum, base.result_checksum) << FilterKindName(kind);
    EXPECT_EQ(m.leaf_tuples, base.leaf_tuples) << FilterKindName(kind);
    EXPECT_EQ(m.join_tuples, base.join_tuples) << FilterKindName(kind);
    ASSERT_EQ(m.filters.size(), base.filters.size());
    for (size_t i = 0; i < m.filters.size(); ++i) {
      EXPECT_EQ(m.filters[i].probed, base.filters[i].probed)
          << FilterKindName(kind) << " filter " << i;
      EXPECT_EQ(m.filters[i].passed, base.filters[i].passed)
          << FilterKindName(kind) << " filter " << i;
      EXPECT_EQ(m.filters[i].inserted, base.filters[i].inserted)
          << FilterKindName(kind) << " filter " << i;
    }
  }
}

/// The exchange must also behave under tiny inputs: more workers than
/// morsels, and a single morsel spanning the whole selection.
TEST(ParallelExecTest, DegenerateShapes) {
  auto db = MakeStarDb(1, 300, 50, {0.5}, 99);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());
  Plan plan = BuildRightDeepPlan(graph.value(), {0, 1});
  PushDownBitvectors(&plan);

  ExecutionOptions single;
  const QueryMetrics base = ExecutePlan(plan, single);

  ExecutionOptions parallel;
  parallel.exec.threads = 8;           // far more workers than morsels
  parallel.exec.morsel_rows = 100000;  // one morsel takes everything
  const QueryMetrics m = ExecutePlan(plan, parallel);
  EXPECT_EQ(m.result_rows, base.result_rows);
  EXPECT_EQ(m.result_checksum, base.result_checksum);
}

}  // namespace
}  // namespace bqo
