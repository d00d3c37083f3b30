#include <dirent.h>

#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "aim/rta/scan_pool.h"
#include "aim/rta/shared_scan.h"
#include "aim/storage/delta_main.h"
#include "test_util.h"

namespace aim {
namespace {

using testing_util::MakeTinySchema;

/// Pool-vs-single-thread equivalence is checked with EXPECT_DOUBLE_EQ, not
/// a tolerance: every stored value is integer-valued, so all double-typed
/// partial sums are exact (< 2^53) and merging in any executor order must
/// produce byte-identical aggregates.
class ScanPoolTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kRecords = 2000;

  ScanPoolTest() : schema_(MakeTinySchema()) {
    map_ = std::make_unique<ColumnMap>(schema_.get(), /*bucket_size=*/64,
                                       kRecords);
    Random rng(77);
    std::vector<std::uint8_t> row(schema_->record_size(), 0);
    const std::uint16_t calls = schema_->FindAttribute("calls_today");
    const std::uint16_t dur = schema_->FindAttribute("dur_today_sum");
    const std::uint16_t entity = schema_->FindAttribute("entity_id");
    for (EntityId e = 1; e <= kRecords; ++e) {
      RecordView rec(schema_.get(), row.data());
      rec.Set(entity, Value::UInt64(e));
      rec.Set(calls, Value::Int32(static_cast<std::int32_t>(rng.Uniform(20))));
      // Distinct integer-valued floats: exact sums and a unique top-k order.
      rec.Set(dur, Value::Float(static_cast<float>(e)));
      AIM_CHECK(map_->Insert(e, row.data(), 1).ok());
    }
  }

  std::vector<Query> MakeBatch() {
    std::vector<Query> batch;
    batch.push_back(*QueryBuilder(schema_.get())
                         .Select(AggOp::kSum, "dur_today_sum")
                         .Select(AggOp::kMin, "dur_today_sum")
                         .Select(AggOp::kMax, "dur_today_sum")
                         .SelectCount()
                         .Where("calls_today", CmpOp::kGt, Value::Int32(5))
                         .Build());
    batch.push_back(*QueryBuilder(schema_.get())
                         .SelectCount()
                         .GroupByAttr("calls_today")
                         .Build());
    batch.push_back(*QueryBuilder(schema_.get())
                         .TopK("dur_today_sum", false, 3)
                         .WithEntityAttr("entity_id")
                         .Build());
    return batch;
  }

  std::vector<std::shared_ptr<const QueryPlan>> CompileBatch(
      const std::vector<Query>& batch) {
    std::vector<std::shared_ptr<const QueryPlan>> plans;
    for (const Query& q : batch) {
      plans.push_back(*QueryPlan::Compile(q, schema_.get(), nullptr));
    }
    return plans;
  }

  std::vector<QueryResult> SingleThreadReference(
      const std::vector<Query>& batch) {
    std::vector<QueryResult> out;
    ScanScratch scratch;
    for (const Query& q : batch) {
      CompiledQuery cq = *CompiledQuery::Compile(q, schema_.get(), nullptr);
      for (std::uint32_t b = 0; b < map_->num_buckets(); ++b) {
        cq.ProcessBucket(*map_, map_->bucket(b), &scratch);
      }
      out.push_back(FinalizeResult(q, nullptr, cq.TakePartial()));
    }
    return out;
  }

  void ExpectMatchesReference(const std::vector<Query>& batch,
                              std::vector<PartialResult> got,
                              const std::vector<QueryResult>& want) {
    ASSERT_EQ(got.size(), batch.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      QueryResult r = FinalizeResult(batch[q], nullptr, std::move(got[q]));
      ASSERT_EQ(r.rows.size(), want[q].rows.size()) << "query " << q;
      for (std::size_t i = 0; i < want[q].rows.size(); ++i) {
        EXPECT_EQ(r.rows[i].group_key, want[q].rows[i].group_key);
        ASSERT_EQ(r.rows[i].values.size(), want[q].rows[i].values.size());
        for (std::size_t v = 0; v < want[q].rows[i].values.size(); ++v) {
          EXPECT_DOUBLE_EQ(r.rows[i].values[v], want[q].rows[i].values[v])
              << "query " << q << " row " << i << " value " << v;
        }
      }
      ASSERT_EQ(r.topk.size(), want[q].topk.size());
      for (std::size_t t = 0; t < want[q].topk.size(); ++t) {
        ASSERT_EQ(r.topk[t].size(), want[q].topk[t].size());
        for (std::size_t k = 0; k < want[q].topk[t].size(); ++k) {
          EXPECT_EQ(r.topk[t][k].entity, want[q].topk[t][k].entity);
          EXPECT_DOUBLE_EQ(r.topk[t][k].value, want[q].topk[t][k].value);
        }
      }
    }
  }

  std::unique_ptr<Schema> schema_;
  std::unique_ptr<ColumnMap> map_;
};

TEST_F(ScanPoolTest, MatchesSingleThreadedSharedScanExactly) {
  const std::vector<Query> batch = MakeBatch();
  const std::vector<QueryResult> want = SingleThreadReference(batch);

  for (std::size_t workers : {0u, 1u, 2u}) {
    ScanPool::Options popts;
    popts.num_threads = workers;
    ScanPool pool(popts);
    for (std::uint32_t morsel : {1u, 4u, 16u, 1000u}) {
      const auto plans = CompileBatch(batch);
      ScanPool::ScanOptions sopts;
      sopts.morsel_buckets = morsel;
      std::vector<PartialResult> results;
      const ScanPool::ScanStats stats =
          pool.ScanPartition(*map_, plans, sopts, &results);
      EXPECT_EQ(stats.morsels,
                (map_->num_buckets() + morsel - 1) / morsel);
      EXPECT_EQ(stats.executed_by_coordinator + stats.executed_by_workers,
                stats.morsels)
          << "workers " << workers << " morsel " << morsel;
      ExpectMatchesReference(batch, std::move(results), want);
    }
  }
}

TEST_F(ScanPoolTest, WorkersCarryWholeScanWhenCoordinatorAbstains) {
  const std::vector<Query> batch = MakeBatch();
  const std::vector<QueryResult> want = SingleThreadReference(batch);

  ScanPool::Options popts;
  popts.num_threads = 2;
  ScanPool pool(popts);
  const auto plans = CompileBatch(batch);

  ScanPool::ScanOptions sopts;
  sopts.morsel_buckets = 4;
  sopts.coordinator_participates = false;
  std::vector<PartialResult> results;
  const ScanPool::ScanStats stats =
      pool.ScanPartition(*map_, plans, sopts, &results);

  // Deterministic proof the pool executed the scan: the coordinator never
  // took a morsel, yet every morsel completed and the results are exact.
  EXPECT_GT(stats.morsels, 0u);
  EXPECT_EQ(stats.executed_by_coordinator, 0u);
  EXPECT_EQ(stats.executed_by_workers, stats.morsels);
  ExpectMatchesReference(batch, std::move(results), want);
}

TEST_F(ScanPoolTest, ZeroWorkerPoolForcesCoordinatorExecution) {
  const std::vector<Query> batch = MakeBatch();
  ScanPool pool(ScanPool::Options{});
  ASSERT_EQ(pool.num_threads(), 0u);
  const auto plans = CompileBatch(batch);

  ScanPool::ScanOptions sopts;
  sopts.coordinator_participates = false;  // must be overridden, or deadlock
  std::vector<PartialResult> results;
  const ScanPool::ScanStats stats =
      pool.ScanPartition(*map_, plans, sopts, &results);
  EXPECT_EQ(stats.executed_by_coordinator, stats.morsels);
  EXPECT_EQ(stats.executed_by_workers, 0u);
}

TEST_F(ScanPoolTest, PerExecutorCountsSumToMorsels) {
  const std::vector<Query> batch = MakeBatch();
  ScanPool::Options popts;
  popts.num_threads = 2;
  ScanPool pool(popts);
  const auto plans = CompileBatch(batch);

  ScanPool::ScanOptions sopts;
  sopts.morsel_buckets = 2;
  std::vector<PartialResult> results;
  const ScanPool::ScanStats stats =
      pool.ScanPartition(*map_, plans, sopts, &results);
  ASSERT_EQ(stats.per_executor.size(), pool.num_threads() + 1);
  std::uint32_t total = 0;
  for (std::uint32_t n : stats.per_executor) total += n;
  EXPECT_EQ(total, stats.morsels);
  EXPECT_EQ(stats.per_executor.back(), stats.executed_by_coordinator);
}

TEST_F(ScanPoolTest, EmptyPartitionYieldsWellFormedPartials) {
  ColumnMap empty(schema_.get(), /*bucket_size=*/64, /*max_records=*/128);
  const std::vector<Query> batch = {*QueryBuilder(schema_.get())
                                         .Select(AggOp::kSum, "dur_today_sum")
                                         .SelectCount()
                                         .Build()};
  ScanPool::Options popts;
  popts.num_threads = 1;
  ScanPool pool(popts);
  const auto plans = CompileBatch(batch);

  std::vector<PartialResult> results;
  const ScanPool::ScanStats stats =
      pool.ScanPartition(empty, plans, ScanPool::ScanOptions{}, &results);
  EXPECT_EQ(stats.morsels, 0u);
  ASSERT_EQ(results.size(), 1u);
  QueryResult r = FinalizeResult(batch[0], nullptr, std::move(results[0]));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0].values[1], 0.0);  // COUNT(*) = 0
}

TEST_F(ScanPoolTest, MorselAndStealCountersAreWired) {
  MetricsRegistry registry;
  ScanPool::Options popts;
  popts.num_threads = 2;
  popts.metrics = &registry;
  popts.node_label = "7";
  ScanPool pool(popts);

  const std::vector<Query> batch = MakeBatch();
  const auto plans = CompileBatch(batch);
  ScanPool::ScanOptions sopts;
  sopts.morsel_buckets = 2;
  std::vector<PartialResult> results;
  const ScanPool::ScanStats stats =
      pool.ScanPartition(*map_, plans, sopts, &results);

  Counter* morsels =
      registry.GetCounter("aim_scan_morsels_total", {{"node", "7"}});
  Counter* steals =
      registry.GetCounter("aim_scan_steals_total", {{"node", "7"}});
  EXPECT_EQ(morsels->Value(), stats.morsels);
  EXPECT_EQ(morsels->Value(), pool.morsels());
  EXPECT_EQ(steals->Value(), pool.steals());
  // Per-worker scan histograms exist (registered at pool construction).
  EXPECT_NE(registry.GetHistogram("aim_scan_worker_morsel_micros",
                                  {{"node", "7"}, {"worker", "0"}}),
            nullptr);
}

TEST_F(ScanPoolTest, SharedPoolIsASingleton) {
  ScanPool* a = ScanPool::Shared();
  ScanPool* b = ScanPool::Shared();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
}

TEST_F(ScanPoolTest, CountStarSeesEveryRecordOnce) {
  const std::vector<Query> batch = {
      *QueryBuilder(schema_.get()).SelectCount().Build()};
  ScanPool::Options popts;
  popts.num_threads = 3;
  ScanPool pool(popts);
  ScanPool::ScanOptions sopts;
  sopts.morsel_buckets = 2;
  std::vector<PartialResult> results;
  const ScanPool::ScanStats stats =
      pool.ScanPartition(*map_, CompileBatch(batch), sopts, &results);

  // COUNT(*) over all morsels equals the record count: every bucket was
  // visited exactly once, by exactly one executor.
  QueryResult r = FinalizeResult(batch[0], nullptr, std::move(results[0]));
  EXPECT_DOUBLE_EQ(r.rows[0].values[0], kRecords);
  std::uint32_t total = 0;
  for (std::uint32_t n : stats.per_executor) total += n;
  EXPECT_EQ(total, (map_->num_buckets() + 1) / 2);
}

// Number of live threads in this process (Linux: /proc/self/task entries).
std::size_t CountProcessThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

TEST_F(ScanPoolTest, RepeatedScansCreateNoThreads) {
  const auto plans = CompileBatch(MakeBatch());
  ScanPool::ScanOptions sopts;
  sopts.morsel_buckets = 2;
  std::vector<PartialResult> results;
  // The first call may lazily start the shared pool's persistent workers.
  ScanPool::Shared()->ScanPartition(*map_, plans, sopts, &results);
  const std::size_t warm = CountProcessThreads();
  ASSERT_GT(warm, 0u);
  for (int i = 0; i < 8; ++i) {
    ScanPool::Shared()->ScanPartition(*map_, plans, sopts, &results);
    EXPECT_EQ(CountProcessThreads(), warm) << "iteration " << i;
  }
}

/// Bitwise equality of two finalized results (doubles compared by bits,
/// so -0.0 and +0.0 or two NaN payloads would differ).
void ExpectBitIdentical(const QueryResult& got, const QueryResult& want,
                        const std::string& where) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << where;
  for (std::size_t r = 0; r < want.rows.size(); ++r) {
    EXPECT_EQ(got.rows[r].group_key, want.rows[r].group_key) << where;
    ASSERT_EQ(got.rows[r].values.size(), want.rows[r].values.size());
    for (std::size_t v = 0; v < want.rows[r].values.size(); ++v) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.rows[r].values[v]),
                std::bit_cast<std::uint64_t>(want.rows[r].values[v]))
          << where << " row " << r << " value " << v;
    }
  }
  ASSERT_EQ(got.topk.size(), want.topk.size()) << where;
  for (std::size_t t = 0; t < want.topk.size(); ++t) {
    ASSERT_EQ(got.topk[t].size(), want.topk[t].size()) << where;
    for (std::size_t k = 0; k < want.topk[t].size(); ++k) {
      EXPECT_EQ(got.topk[t][k].entity, want.topk[t][k].entity)
          << where << " target " << t << " rank " << k;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.topk[t][k].value),
                std::bit_cast<std::uint64_t>(want.topk[t][k].value))
          << where << " target " << t << " rank " << k;
    }
  }
}

// The pool with 0-3 workers and any morsel size answers bit for bit like
// SharedScan::ScanStep. Values are small dyadic numbers, so sums are exact
// in any merge order; the top-k columns repeat values across buckets, so
// ties between executors are settled by entity id alone.
TEST_F(ScanPoolTest, PoolIsBitIdenticalToScanStep) {
  DeltaMainStore::Options sopts;
  sopts.bucket_size = 32;
  sopts.max_records = 4096;
  DeltaMainStore store(schema_.get(), sopts);
  const std::uint16_t entity = schema_->FindAttribute("entity_id");
  const std::uint16_t calls = schema_->FindAttribute("calls_today");
  const std::uint16_t dur = schema_->FindAttribute("dur_today_sum");
  const std::uint16_t cost = schema_->FindAttribute("cost_week_sum");
  Random rng(91);
  std::vector<std::uint8_t> row(schema_->record_size(), 0);
  for (EntityId e = 1; e <= 3000; ++e) {
    RecordView rec(schema_.get(), row.data());
    rec.Set(entity, Value::UInt64(e));
    rec.Set(calls, Value::Int32(static_cast<std::int32_t>(rng.Uniform(20))));
    rec.Set(dur, Value::Float(static_cast<float>(rng.Uniform(13)) * 0.5f));
    rec.Set(cost, Value::Float(static_cast<float>(rng.Uniform(9)) - 4.0f));
    ASSERT_TRUE(store.BulkInsert(e, row.data()).ok());
  }

  std::vector<Query> batch = MakeBatch();
  batch.push_back(*QueryBuilder(schema_.get())
                       .Select(AggOp::kAvg, "dur_today_sum")
                       .Select(AggOp::kMin, "cost_week_sum")
                       .SelectSumRatio("cost_week_sum", "dur_today_sum")
                       .GroupByAttr("calls_today")
                       .Build());
  for (std::uint32_t k : {1u, 3u, 50u}) {
    for (bool asc : {false, true}) {
      batch.push_back(*QueryBuilder(schema_.get())
                           .TopK("dur_today_sum", asc, k)
                           .TopKRatio("cost_week_sum", "dur_today_sum", asc, k)
                           .Where("calls_today", CmpOp::kGt, Value::Int32(3))
                           .WithEntityAttr("entity_id")
                           .Build());
    }
  }

  std::vector<CompiledQuery> compiled;
  for (const Query& q : batch) {
    compiled.push_back(*CompiledQuery::Compile(q, schema_.get(), nullptr));
  }
  SharedScan scan(&store);
  scan.ScanStep(compiled);
  std::vector<QueryResult> want;
  for (std::size_t q = 0; q < batch.size(); ++q) {
    want.push_back(FinalizeResult(batch[q], nullptr, compiled[q].TakePartial()));
  }

  const auto plans = CompileBatch(batch);
  for (std::size_t workers : {0u, 1u, 2u, 3u}) {
    ScanPool::Options popts;
    popts.num_threads = workers;
    ScanPool pool(popts);
    for (std::uint32_t morsel : {1u, 3u, 200u}) {
      ScanPool::ScanOptions options;
      options.morsel_buckets = morsel;
      std::vector<PartialResult> results;
      pool.ScanPartition(store.main(), plans, options, &results);
      ASSERT_EQ(results.size(), batch.size());
      for (std::size_t q = 0; q < batch.size(); ++q) {
        ExpectBitIdentical(
            FinalizeResult(batch[q], nullptr, std::move(results[q])), want[q],
            "workers " + std::to_string(workers) + " morsel " +
                std::to_string(morsel) + " query " + std::to_string(q));
      }
    }
  }
}

}  // namespace
}  // namespace aim
