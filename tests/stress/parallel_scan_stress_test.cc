// Morsel-parallel ScanPool scans racing concurrent ingest: pool workers
// scan the main while a live ESP writer puts into the delta and the RTA
// role interleaves switch/merge cycles between scans (the paper's Figure 6
// loop). Scan
// results must stay snapshot-consistent — COUNT(*) exact, SUM monotone
// under increment-only updates — and TSan must observe no unsynchronized
// access between scan workers and the writer.

#include <atomic>
#include <cstring>
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

class ParallelScanStressTest : public ::testing::Test {
 protected:
  static constexpr EntityId kEntities = 1500;

  ParallelScanStressTest() : schema_(MakeTinySchema()) {
    DeltaMainStore::Options opts;
    opts.bucket_size = 32;
    opts.max_records = 1u << 16;
    store_ = std::make_unique<DeltaMainStore>(schema_.get(), opts);
    calls_ = schema_->FindAttribute("calls_today");
    entity_ = schema_->FindAttribute("entity_id");

    std::vector<std::uint8_t> row(schema_->record_size(), 0);
    for (EntityId e = 1; e <= kEntities; ++e) {
      RecordView rec(schema_.get(), row.data());
      rec.Set(entity_, Value::UInt64(e));
      rec.Set(calls_, Value::Int32(0));
      AIM_CHECK(store_->BulkInsert(e, row.data()).ok());
    }
  }

  std::vector<Query> SumCountBatch() {
    std::vector<Query> batch;
    batch.push_back(*QueryBuilder(schema_.get())
                         .Select(AggOp::kSum, "calls_today")
                         .SelectCount()
                         .Build());
    return batch;
  }

  /// One scan of the main on the process-wide pool, the calling thread
  /// coordinating; returns one partial per query.
  std::vector<PartialResult> PoolScan(const std::vector<Query>& batch,
                                      std::uint32_t morsel_buckets) {
    std::vector<std::shared_ptr<const QueryPlan>> plans;
    for (const Query& q : batch) {
      plans.push_back(*QueryPlan::Compile(q, schema_.get(), nullptr));
    }
    ScanPool::ScanOptions opts;
    opts.morsel_buckets = morsel_buckets;
    std::vector<PartialResult> partials;
    ScanPool::Shared()->ScanPartition(store_->main(), plans, opts, &partials);
    return partials;
  }

  std::unique_ptr<Schema> schema_;
  std::unique_ptr<DeltaMainStore> store_;
  std::uint16_t calls_ = 0;
  std::uint16_t entity_ = 0;
};

TEST_F(ParallelScanStressTest, ScansStayConsistentUnderIngest) {
  const int kCycles = static_cast<int>(stress::Scaled(40));
  const std::vector<Query> batch = SumCountBatch();
  store_->set_esp_attached(true);

  std::atomic<bool> esp_stop{false};
  std::atomic<std::uint64_t> increments{0};
  std::thread esp([&] {
    std::vector<std::uint8_t> buf(schema_->record_size());
    Random rng(41);
    while (!esp_stop.load(std::memory_order_acquire)) {
      store_->EspCheckpoint();
      const EntityId e = rng.Uniform(kEntities) + 1;
      Version v = 0;
      ASSERT_TRUE(store_->Get(e, buf.data(), &v).ok());
      RecordView rec(schema_.get(), buf.data());
      rec.Set(calls_, Value::Int32(rec.Get(calls_).i32() + 1));
      ASSERT_TRUE(store_->Put(e, buf.data(), v).ok());
      increments.fetch_add(1, std::memory_order_relaxed);
    }
    store_->set_esp_attached(false);
  });

  // RTA role (this thread): merge then scan, per Figure 6 — the merge and
  // the scan never overlap, but scan workers race the ESP writer.
  double last_sum = 0.0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    store_->SwitchDeltas();
    store_->MergeStep();

    std::vector<PartialResult> partials = PoolScan(batch, 2);
    QueryResult r = FinalizeResult(batch[0], nullptr, std::move(partials[0]));
    ASSERT_EQ(r.rows.size(), 1u);
    const double sum = r.rows[0].values[0];
    const double count = r.rows[0].values[1];
    // Snapshot consistency: the scan sees every preloaded record exactly
    // once, and increment-only updates keep the sum monotone across
    // merge boundaries.
    ASSERT_EQ(count, static_cast<double>(kEntities));
    ASSERT_GE(sum, last_sum) << "scan observed a regressing aggregate";
    last_sum = sum;
  }

  esp_stop.store(true, std::memory_order_release);
  esp.join();
  store_->Merge();

  // Final accounting: after the last merge the matrix must hold exactly the
  // number of increments applied.
  std::uint64_t total = 0;
  for (EntityId e = 1; e <= kEntities; ++e) {
    total +=
        static_cast<std::uint64_t>(store_->GetAttribute(e, calls_)->i32());
  }
  EXPECT_EQ(total, increments.load(std::memory_order_acquire));
}

// Inserts alongside updates: COUNT(*) grows monotonically as new entities
// merge in, never shrinking and never exceeding the number of successful
// inserts.
TEST_F(ParallelScanStressTest, CountMonotoneUnderInserts) {
  const int kCycles = static_cast<int>(stress::Scaled(30));
  const std::vector<Query> batch = SumCountBatch();
  store_->set_esp_attached(true);

  // Bound the inserts so the store (max_records = 1<<16, minus preload)
  // cannot fill mid-merge regardless of how fast this thread spins.
  const EntityId kMaxInserts = 50000;
  std::atomic<bool> esp_stop{false};
  std::atomic<std::uint64_t> inserts{0};
  std::thread esp([&] {
    std::vector<std::uint8_t> row(schema_->record_size(), 0);
    EntityId next = kEntities + 1;
    while (!esp_stop.load(std::memory_order_acquire) &&
           next <= kEntities + kMaxInserts) {
      store_->EspCheckpoint();
      RecordView rec(schema_.get(), row.data());
      rec.Set(entity_, Value::UInt64(next));
      ASSERT_TRUE(store_->Insert(next, row.data()).ok());
      inserts.fetch_add(1, std::memory_order_release);
      ++next;
    }
    store_->set_esp_attached(false);
  });

  double last_count = kEntities;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    store_->SwitchDeltas();
    store_->MergeStep();

    std::vector<PartialResult> partials = PoolScan(batch, 1);
    QueryResult r = FinalizeResult(batch[0], nullptr, std::move(partials[0]));
    const double count = r.rows[0].values[1];
    ASSERT_GE(count, last_count);
    ASSERT_LE(count, static_cast<double>(
                         kEntities + inserts.load(std::memory_order_acquire)));
    last_count = count;
  }

  esp_stop.store(true, std::memory_order_release);
  esp.join();
  store_->Merge();
  EXPECT_EQ(store_->main_records(),
            kEntities + inserts.load(std::memory_order_acquire));
}

}  // namespace
}  // namespace aim
