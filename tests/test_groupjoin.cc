// Groupjoin parity: the plan-root hash join folds its M:N output into the
// aggregate from a pre-aggregated build side (hash_join.h) instead of
// materializing it. Every result and counter must equal the materializing
// sort-merge root's — the reference — and a brute-force oracle's:
//
//  * ResultChecksum, NumGroups, TotalValue, join_tuples, agg_rows_folded
//    and the merged FilterStats, for COUNT, probe- and build-side SUM
//    (negative build values included), and probe- and build-side GROUP BY,
//    at threads 1 and at pool {1,2,4} x threads {2,4};
//  * the root's probe_rows_in / probe_rows_matched against the oracle's
//    probe-side match counts;
//  * empty build side, empty probe side, and no matching keys;
//  * a BuildCache hit, whose pre-aggregate derives from a shared side;
//  * every JOB-lite and TPC-DS-lite query, hash vs sort-merge.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/plan/pushdown.h"
#include "src/server/build_cache.h"
#include "src/server/worker_pool.h"
#include "src/workload/runner.h"
#include "test_util.h"

namespace bqo {
namespace {

struct GlobalPoolGuard {
  ~GlobalPoolGuard() { WorkerPool::ResetGlobal(0); }
};

// ---- Synthetic M:N join ----
//
// Probe relation "a" (k, v, g) and build relation "b" (k, w, h). Keys 0..2
// repeat kProbePerKey / kBuildPerKey times on each side, so the join emits
// 3 * kProbePerKey * kBuildPerKey rows; key 3 exists only in "a" and key 4
// only in "b", so some probe rows never match.
constexpr int kProbePerKey = 1500;
constexpr int kBuildPerKey = 700;

std::unique_ptr<testing::TestDb> MakeMnDb() {
  auto db = std::make_unique<testing::TestDb>();
  Table* a = db->catalog
                 .CreateTable("a", {{"k", DataType::kInt64},
                                    {"v", DataType::kInt64},
                                    {"g", DataType::kInt64}})
                 .ValueOrDie();
  Table* b = db->catalog
                 .CreateTable("b", {{"k", DataType::kInt64},
                                    {"w", DataType::kInt64},
                                    {"h", DataType::kInt64}})
                 .ValueOrDie();
  for (int64_t k : {0, 1, 2, 3}) {
    for (int64_t i = 0; i < kProbePerKey; ++i) {
      BQO_CHECK(a->AppendRow({Value(k), Value(i % 97 + k), Value(i % 11)})
                    .ok());
    }
  }
  for (int64_t k : {0, 1, 2, 4}) {
    for (int64_t i = 0; i < kBuildPerKey; ++i) {
      // Negative and positive build measures; h repeats within a key so a
      // build-side GROUP BY folds several build rows per (key, group).
      BQO_CHECK(b->AppendRow({Value(k), Value(i % 13 - 9 + k), Value(i % 5)})
                    .ok());
    }
  }
  db->spec.relations = {{"a", "a", nullptr}, {"b", "b", nullptr}};
  db->spec.joins = {{"a", "k", "b", "k"}};
  return db;
}

/// One aggregate over the synthetic join: relation 0 is "a", 1 is "b".
struct AggCase {
  const char* name;
  AggSpec spec;
};

std::vector<AggCase> AggCases() {
  auto make = [](AggKind kind, BoundColumn sum, bool grouped,
                 BoundColumn group) {
    AggSpec s;
    s.kind = kind;
    s.sum_column = sum;
    s.has_group_by = grouped;
    s.group_column = group;
    return s;
  };
  const BoundColumn none{};
  const BoundColumn av{0, "v"}, ag{0, "g"}, bw{1, "w"}, bh{1, "h"};
  return {
      {"count", make(AggKind::kCountStar, none, false, none)},
      {"sum_probe", make(AggKind::kSum, av, false, none)},
      {"sum_build", make(AggKind::kSum, bw, false, none)},
      {"sum_probe_group_probe", make(AggKind::kSum, av, true, ag)},
      {"sum_build_group_probe", make(AggKind::kSum, bw, true, ag)},
      {"count_group_build", make(AggKind::kCountStar, none, true, bh)},
      {"sum_probe_group_build", make(AggKind::kSum, av, true, bh)},
      {"sum_build_group_build", make(AggKind::kSum, bw, true, bh)},
  };
}

/// Everything one execution reports that the groupjoin must keep exact.
struct GjRun {
  uint64_t checksum = 0;
  int64_t num_groups = 0;
  int64_t total = 0;
  int64_t join_tuples = 0;
  int64_t agg_rows_folded = 0;
  int64_t probe_rows_in = 0;  ///< root join (hash only)
  int64_t probe_rows_matched = 0;
  bool root_groupjoin = false;
  std::vector<FilterStats> filters;
};

GjRun RunPlan(const Plan& plan, const ExecutionOptions& options) {
  FilterRuntime runtime;
  runtime.build_cache = options.build_cache;
  runtime.catalog_version = options.catalog_version;
  auto agg = CompilePlan(plan, options, &runtime);
  agg->Open();
  Batch batch;
  while (agg->Next(&batch)) {
  }
  agg->Close();
  GjRun r;
  r.checksum = agg->ResultChecksum();
  r.num_groups = agg->NumGroups();
  r.total = agg->TotalValue();
  r.agg_rows_folded = agg->stats().agg_rows_folded;
  r.filters = runtime.stats;
  std::vector<PhysicalOperator*> stack = {agg.get()};
  while (!stack.empty()) {
    PhysicalOperator* op = stack.back();
    stack.pop_back();
    const OperatorStats& s = op->stats();
    if (s.type == OperatorType::kHashJoin) {
      r.join_tuples += s.rows_out;
      if (s.plan_node_id == plan.root->id) {
        r.probe_rows_in = s.probe_rows_in;
        r.probe_rows_matched = s.probe_rows_matched;
        r.root_groupjoin = s.groupjoin;
      }
    }
    for (PhysicalOperator* child : op->children()) stack.push_back(child);
  }
  return r;
}

void ExpectSameResult(const GjRun& ref, const GjRun& r, bool same_batches,
                      const std::string& what) {
  EXPECT_EQ(r.checksum, ref.checksum) << what;
  EXPECT_EQ(r.num_groups, ref.num_groups) << what;
  EXPECT_EQ(r.total, ref.total) << what;
  EXPECT_EQ(r.join_tuples, ref.join_tuples) << what;
  EXPECT_EQ(r.agg_rows_folded, ref.agg_rows_folded) << what;
  ASSERT_EQ(r.filters.size(), ref.filters.size()) << what;
  for (size_t i = 0; i < r.filters.size(); ++i) {
    const FilterStats& x = r.filters[i];
    const FilterStats& y = ref.filters[i];
    EXPECT_EQ(x.created, y.created) << what << " filter " << i;
    EXPECT_EQ(x.inserted, y.inserted) << what << " filter " << i;
    EXPECT_EQ(x.probed, y.probed) << what << " filter " << i;
    EXPECT_EQ(x.passed, y.passed) << what << " filter " << i;
    EXPECT_EQ(x.size_bytes, y.size_bytes) << what << " filter " << i;
    // Stride boundaries move with morsels; only threads == 1 chops the
    // probe into the same batches.
    if (same_batches) {
      EXPECT_EQ(x.probe_batches, y.probe_batches) << what << " filter " << i;
    }
  }
}

/// Brute-force oracle over the raw tables (no engine code): the join's row
/// count, the aggregate's total and group count, and the probe rows the
/// root join sees (with no bitvector filter below it) and matches.
struct Oracle {
  int64_t join_rows = 0;
  int64_t total = 0;
  int64_t num_groups = 0;
  int64_t probe_rows = 0;
  int64_t probe_matched = 0;
};

/// Row filters mirroring the tests' scan predicates, applied to column k.
using KeyPred = bool (*)(int64_t);
bool KeepAll(int64_t) { return true; }
bool KeepNone(int64_t k) { return k < -1; }
bool KeepOnlyFour(int64_t k) { return k == 4; }

Oracle BruteForce(const testing::TestDb& db, const AggSpec& spec,
                  KeyPred keep_a, KeyPred keep_b) {
  const Table* a = db.catalog.GetTable("a").value();
  const Table* b = db.catalog.GetTable("b").value();
  auto col = [](const Table* t, const char* name, int64_t r) {
    return t->column(t->ColumnIndex(name)).GetInt64(r);
  };
  struct BuildRow {
    int64_t w, h;
  };
  std::map<int64_t, std::vector<BuildRow>> build;
  for (int64_t r = 0; r < b->num_rows(); ++r) {
    if (keep_b(col(b, "k", r))) {
      build[col(b, "k", r)].push_back({col(b, "w", r), col(b, "h", r)});
    }
  }
  const bool sum_from_probe = spec.sum_column.rel == 0;
  const bool group_from_probe = spec.group_column.rel == 0;
  Oracle o;
  std::map<int64_t, int64_t> groups;
  for (int64_t r = 0; r < a->num_rows(); ++r) {
    const int64_t k = col(a, "k", r);
    if (!keep_a(k)) continue;
    ++o.probe_rows;
    auto it = build.find(k);
    if (it == build.end()) continue;
    ++o.probe_matched;
    for (const BuildRow& q : it->second) {
      ++o.join_rows;
      const int64_t v = spec.kind == AggKind::kCountStar ? 1
                        : sum_from_probe                 ? col(a, "v", r)
                                                         : q.w;
      if (spec.has_group_by) {
        groups[group_from_probe ? col(a, "g", r) : q.h] += v;
      }
      o.total += v;
    }
  }
  o.num_groups = static_cast<int64_t>(groups.size());
  return o;
}

ExprPtr PredFor(KeyPred keep) {
  if (keep == KeepNone) return Lt("k", -1);
  if (keep == KeepOnlyFour) return Eq("k", 4);
  return nullptr;
}

/// The synthetic join's right-deep plan (probe "a", build "b") with the
/// given scan predicates, bitvector filters pushed down.
struct MnPlan {
  std::unique_ptr<testing::TestDb> db;
  JoinGraph graph;
  Plan plan;
};

std::unique_ptr<MnPlan> MakeMnPlan(KeyPred keep_a, KeyPred keep_b) {
  auto t = std::make_unique<MnPlan>();
  t->db = MakeMnDb();
  t->db->spec.relations[0].predicate = PredFor(keep_a);
  t->db->spec.relations[1].predicate = PredFor(keep_b);
  t->graph = t->db->Graph().ValueOrDie();
  t->plan = BuildRightDeepPlan(t->graph, {0, 1});
  PushDownBitvectors(&t->plan);
  return t;
}

/// Pin the hash (groupjoin) root to the sort-merge root and the oracle at
/// threads 1 and at pool {1,2,4} x threads {2,4}.
void ExpectGroupJoinParity(KeyPred keep_a, KeyPred keep_b,
                           const std::vector<AggCase>& cases,
                           const std::string& what) {
  GlobalPoolGuard guard;
  auto t = MakeMnPlan(keep_a, keep_b);
  for (const AggCase& c : cases) {
    const std::string label = what + " " + c.name;
    const Oracle oracle = BruteForce(*t->db, c.spec, keep_a, keep_b);

    ExecutionOptions options;
    options.agg = c.spec;
    ExecutionOptions merge = options;
    merge.use_sort_merge_join = true;
    const GjRun ref = RunPlan(t->plan, merge);
    EXPECT_FALSE(ref.root_groupjoin) << label;
    EXPECT_EQ(ref.join_tuples, oracle.join_rows) << label;
    EXPECT_EQ(ref.agg_rows_folded, oracle.join_rows) << label;
    EXPECT_EQ(ref.total, oracle.total) << label;
    EXPECT_EQ(ref.num_groups, oracle.num_groups) << label;

    // With no bitvector filter below it, the root sees every probe row.
    ExecutionOptions unfiltered = options;
    unfiltered.use_bitvectors = false;
    const GjRun bare = RunPlan(t->plan, unfiltered);
    EXPECT_EQ(bare.probe_rows_in, oracle.probe_rows) << label;
    EXPECT_EQ(bare.probe_rows_matched, oracle.probe_matched) << label;
    EXPECT_EQ(bare.total, oracle.total) << label;

    const GjRun base = RunPlan(t->plan, options);
    EXPECT_TRUE(base.root_groupjoin) << label;
    ExpectSameResult(ref, base, /*same_batches=*/true, label + " threads=1");
    EXPECT_EQ(base.probe_rows_matched, oracle.probe_matched) << label;
    for (int pool : {1, 2, 4}) {
      WorkerPool::ResetGlobal(pool);
      for (int threads : {2, 4}) {
        options.exec.threads = threads;
        options.exec.morsel_rows = 512;
        const GjRun r = RunPlan(t->plan, options);
        const std::string where = label + " pool=" + std::to_string(pool) +
                                  " threads=" + std::to_string(threads);
        EXPECT_TRUE(r.root_groupjoin) << where;
        ExpectSameResult(ref, r, /*same_batches=*/false, where);
        EXPECT_EQ(r.probe_rows_in, base.probe_rows_in) << where;
        EXPECT_EQ(r.probe_rows_matched, base.probe_rows_matched) << where;
      }
    }
  }
}

TEST(GroupJoin, MatchesSortMergeRootOnMnJoin) {
  ExpectGroupJoinParity(KeepAll, KeepAll, AggCases(), "m:n");
}

TEST(GroupJoin, EmptyBuildSide) {
  ExpectGroupJoinParity(KeepAll, KeepNone, AggCases(), "empty build");
}

TEST(GroupJoin, EmptyProbeSide) {
  ExpectGroupJoinParity(KeepNone, KeepAll, AggCases(), "empty probe");
}

TEST(GroupJoin, NoMatchingKeys) {
  ExpectGroupJoinParity(KeepAll, KeepOnlyFour, AggCases(), "no match");
}

/// A BuildCache hit hands the root a side another query built; the
/// query-private pre-aggregate derived from it must give the miss's result.
/// Aggregates whose build columns coincide share one cached side while
/// pre-aggregating it differently (count vs probe-side SUM by build group).
TEST(GroupJoin, BuildCacheHitMatchesMiss) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto t = MakeMnPlan(KeepAll, KeepAll);
  BuildCache cache(BuildCacheOptions{/*max_bytes=*/64 << 20});
  for (int threads : {1, 4}) {
    for (const AggCase& c : AggCases()) {
      const std::string label =
          std::string(c.name) + " threads=" + std::to_string(threads);
      ExecutionOptions merge;
      merge.agg = c.spec;
      merge.use_sort_merge_join = true;
      const GjRun ref = RunPlan(t->plan, merge);

      ExecutionOptions options;
      options.agg = c.spec;
      options.exec.threads = threads;
      options.build_cache = &cache;
      const int64_t hits_before = cache.stats().hits;
      const GjRun first = RunPlan(t->plan, options);
      const GjRun second = RunPlan(t->plan, options);
      EXPECT_GT(cache.stats().hits, hits_before) << label;
      ExpectSameResult(ref, first, threads == 1, label + " first");
      ExpectSameResult(ref, second, threads == 1, label + " hit");
      EXPECT_EQ(second.probe_rows_in, first.probe_rows_in) << label;
      EXPECT_EQ(second.probe_rows_matched, first.probe_rows_matched)
          << label;
    }
  }
}

/// A probe-side measure times a match count can leave the int64 range
/// where the expanded sum does too; both wrap identically (and without
/// signed-overflow UB, which the UBSan build checks).
TEST(GroupJoin, WeightedProductWrapsLikeExpandedSum) {
  testing::TestDb db;
  Table* a = db.catalog
                 .CreateTable("a", {{"k", DataType::kInt64},
                                    {"v", DataType::kInt64}})
                 .ValueOrDie();
  Table* b =
      db.catalog.CreateTable("b", {{"k", DataType::kInt64}}).ValueOrDie();
  const int64_t big = int64_t{1} << 62;
  ASSERT_TRUE(a->AppendRow({Value(int64_t{0}), Value(big)}).ok());
  ASSERT_TRUE(a->AppendRow({Value(int64_t{0}), Value(-big)}).ok());
  ASSERT_TRUE(a->AppendRow({Value(int64_t{0}), Value(big + 1)}).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(b->AppendRow({Value(int64_t{0})}).ok());
  }
  db.spec.relations = {{"a", "a", nullptr}, {"b", "b", nullptr}};
  db.spec.joins = {{"a", "k", "b", "k"}};
  const JoinGraph graph = db.Graph().ValueOrDie();
  Plan plan = BuildRightDeepPlan(graph, {0, 1});
  PushDownBitvectors(&plan);

  ExecutionOptions options;
  options.agg.kind = AggKind::kSum;
  options.agg.sum_column = BoundColumn{0, "v"};
  ExecutionOptions merge = options;
  merge.use_sort_merge_join = true;
  const GjRun ref = RunPlan(plan, merge);
  const GjRun r = RunPlan(plan, options);
  EXPECT_TRUE(r.root_groupjoin);
  ExpectSameResult(ref, r, /*same_batches=*/true, "wrap");
  // 5 * (2^62 - 2^62 + 2^62 + 1) = 5 * 2^62 + 5, wrapped to int64.
  EXPECT_EQ(static_cast<uint64_t>(r.total),
            5 * (uint64_t{1} << 62) + 5);
}

/// Every JOB-lite and TPC-DS-lite query under BQO: the hash plan (groupjoin
/// root) and the sort-merge plan (materializing root) agree on results,
/// Fig 9 join tuples, and the aggregate's input row count.
TEST(GroupJoin, WorkloadsMatchSortMerge) {
  for (const Workload& w : {MakeJobLite(0.05), MakeTpcdsLite(0.1)}) {
    RunOptions options;
    options.repeats = 1;
    const auto hash = RunWorkload(w, OptimizerMode::kBqoShallow, options);
    options.execution.use_sort_merge_join = true;
    const auto merge = RunWorkload(w, OptimizerMode::kBqoShallow, options);
    ASSERT_EQ(hash.size(), merge.size());
    ASSERT_EQ(hash.size(), w.queries.size());
    for (size_t i = 0; i < hash.size(); ++i) {
      const QueryMetrics& h = hash[i].metrics;
      const QueryMetrics& m = merge[i].metrics;
      const std::string& q = hash[i].query_name;
      EXPECT_EQ(h.result_checksum, m.result_checksum) << q;
      EXPECT_EQ(h.result_rows, m.result_rows) << q;
      EXPECT_EQ(h.join_tuples, m.join_tuples) << q;
      EXPECT_EQ(h.leaf_tuples, m.leaf_tuples) << q;
      auto folded = [](const QueryMetrics& x) {
        for (const OperatorStats& op : x.operators) {
          if (op.type == OperatorType::kAggregate) return op.agg_rows_folded;
        }
        return int64_t{-1};
      };
      EXPECT_EQ(folded(h), folded(m)) << q;
      bool root_groupjoin = false;
      for (const OperatorStats& op : h.operators) {
        root_groupjoin = root_groupjoin || op.groupjoin;
      }
      EXPECT_TRUE(root_groupjoin) << q;
    }
  }
}

}  // namespace
}  // namespace bqo
