// ScanPool under contention: several RTA coordinators submit morsel jobs to
// one shared pool at once (the node-wide deployment shape), and a pool-driven
// scan races a live ESP writer through the delta/main switch-merge cycle.
// Every job must complete exactly (coordinator + worker morsel counts add
// up), every result must match the per-partition ground truth, and TSan must
// observe no unsynchronized access on the board, the tickets, or the
// executor-local scratch contexts.

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "aim/rta/scan_pool.h"
#include "aim/storage/delta_main.h"
#include "stress_util.h"
#include "test_util.h"

namespace aim {
namespace {

using testing_util::MakeTinySchema;

class ScanPoolStressTest : public ::testing::Test {
 protected:
  static constexpr EntityId kEntities = 1200;

  ScanPoolStressTest() : schema_(MakeTinySchema()) {
    calls_ = schema_->FindAttribute("calls_today");
    entity_ = schema_->FindAttribute("entity_id");
  }

  // A standalone partition whose calls_today values are all `fill`, so each
  // coordinator can verify its own scans against a closed-form answer.
  std::unique_ptr<ColumnMap> MakePartition(std::int32_t fill) {
    auto map = std::make_unique<ColumnMap>(schema_.get(), /*bucket_size=*/32,
                                           kEntities);
    std::vector<std::uint8_t> row(schema_->record_size(), 0);
    for (EntityId e = 1; e <= kEntities; ++e) {
      RecordView rec(schema_.get(), row.data());
      rec.Set(entity_, Value::UInt64(e));
      rec.Set(calls_, Value::Int32(fill));
      AIM_CHECK(map->Insert(e, row.data(), 1).ok());
    }
    return map;
  }

  std::vector<Query> SumCountBatch() {
    std::vector<Query> batch;
    batch.push_back(*QueryBuilder(schema_.get())
                         .Select(AggOp::kSum, "calls_today")
                         .SelectCount()
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

  std::unique_ptr<Schema> schema_;
  std::uint16_t calls_ = 0;
  std::uint16_t entity_ = 0;
};

// Many coordinators, one pool: each thread owns a partition with a distinct
// fill value and hammers ScanPartition; any cross-job mixup on the board
// (a morsel charged to the wrong ticket, a context reused across jobs)
// corrupts a closed-form aggregate immediately.
TEST_F(ScanPoolStressTest, ConcurrentCoordinatorsShareOnePool) {
  const int kCoordinators = 4;
  const int kRounds = static_cast<int>(stress::Scaled(60));

  ScanPool::Options popts;
  popts.num_threads = 3;
  ScanPool pool(popts);

  std::vector<std::thread> coordinators;
  coordinators.reserve(kCoordinators);
  for (int c = 0; c < kCoordinators; ++c) {
    coordinators.emplace_back([&, c] {
      const std::int32_t fill = c + 1;
      std::unique_ptr<ColumnMap> map = MakePartition(fill);
      const std::vector<Query> batch = SumCountBatch();
      for (int round = 0; round < kRounds; ++round) {
        const auto plans = CompileBatch(batch);
        ScanPool::ScanOptions sopts;
        // Vary morsel size and participation across coordinators so the
        // board sees mixed job shapes in flight simultaneously.
        sopts.morsel_buckets = (c % 2 == 0) ? 1 : 4;
        sopts.coordinator_participates = (c % 2 == 0);
        std::vector<PartialResult> results;
        const ScanPool::ScanStats stats =
            pool.ScanPartition(*map, plans, sopts, &results);
        ASSERT_EQ(stats.executed_by_coordinator + stats.executed_by_workers,
                  stats.morsels)
            << "coordinator " << c << " round " << round;
        if (!sopts.coordinator_participates) {
          ASSERT_EQ(stats.executed_by_coordinator, 0u);
        }
        QueryResult r =
            FinalizeResult(batch[0], nullptr, std::move(results[0]));
        ASSERT_EQ(r.rows.size(), 1u);
        ASSERT_EQ(r.rows[0].values[1], static_cast<double>(kEntities))
            << "coordinator " << c << " round " << round;
        ASSERT_EQ(r.rows[0].values[0],
                  static_cast<double>(fill) * kEntities)
            << "coordinator " << c << " round " << round;
      }
    });
  }
  for (std::thread& t : coordinators) t.join();

  // Lifetime accounting stays coherent across all concurrent jobs.
  EXPECT_GT(pool.morsels(), 0u);
}

// Pool-driven scan racing a live ESP writer (the storage-node shape): the
// coordinator switches and merges deltas between scans while the writer
// keeps incrementing through the active delta. Snapshot consistency must
// hold — COUNT(*) exact, SUM monotone — with scan morsels executing on
// pool workers instead of the coordinator's own SharedScan loop.
TEST_F(ScanPoolStressTest, PoolScanStaysConsistentUnderIngest) {
  const int kCycles = static_cast<int>(stress::Scaled(40));

  DeltaMainStore::Options sopts;
  sopts.bucket_size = 32;
  sopts.max_records = 1u << 16;
  DeltaMainStore store(schema_.get(), sopts);
  std::vector<std::uint8_t> row(schema_->record_size(), 0);
  for (EntityId e = 1; e <= kEntities; ++e) {
    RecordView rec(schema_.get(), row.data());
    rec.Set(entity_, Value::UInt64(e));
    rec.Set(calls_, Value::Int32(0));
    ASSERT_TRUE(store.BulkInsert(e, row.data()).ok());
  }

  ScanPool::Options popts;
  popts.num_threads = 2;
  ScanPool pool(popts);
  const std::vector<Query> batch = SumCountBatch();
  store.set_esp_attached(true);

  std::atomic<bool> esp_stop{false};
  std::atomic<std::uint64_t> increments{0};
  std::thread esp([&] {
    std::vector<std::uint8_t> buf(schema_->record_size());
    Random rng(43);
    while (!esp_stop.load(std::memory_order_acquire)) {
      store.EspCheckpoint();
      const EntityId e = rng.Uniform(kEntities) + 1;
      Version v = 0;
      ASSERT_TRUE(store.Get(e, buf.data(), &v).ok());
      RecordView rec(schema_.get(), buf.data());
      rec.Set(calls_, Value::Int32(rec.Get(calls_).i32() + 1));
      ASSERT_TRUE(store.Put(e, buf.data(), v).ok());
      increments.fetch_add(1, std::memory_order_relaxed);
    }
    store.set_esp_attached(false);
  });

  double last_sum = 0.0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    store.SwitchDeltas();
    store.MergeStep();

    const auto plans = CompileBatch(batch);
    ScanPool::ScanOptions scan_opts;
    scan_opts.morsel_buckets = 2;
    std::vector<PartialResult> results;
    pool.ScanPartition(store.main(), plans, scan_opts, &results);
    QueryResult r = FinalizeResult(batch[0], nullptr, std::move(results[0]));
    ASSERT_EQ(r.rows.size(), 1u);
    const double sum = r.rows[0].values[0];
    const double count = r.rows[0].values[1];
    ASSERT_EQ(count, static_cast<double>(kEntities));
    ASSERT_GE(sum, last_sum) << "pool scan observed a regressing aggregate";
    last_sum = sum;
  }

  esp_stop.store(true, std::memory_order_release);
  esp.join();
  store.Merge();

  std::uint64_t total = 0;
  for (EntityId e = 1; e <= kEntities; ++e) {
    total += static_cast<std::uint64_t>(store.GetAttribute(e, calls_)->i32());
  }
  EXPECT_EQ(total, increments.load(std::memory_order_acquire));
}

}  // namespace
}  // namespace aim
