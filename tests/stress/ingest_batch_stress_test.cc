// Drain-batched ingest stress: multiple producers pump SubmitEventBatch
// into a running StorageNode while queries stream, so the ESP loop's
// DrainInto batching, the router's same-thread run splitting and the RTA
// scan race under TSan. A second test floods the separate ESP tier whose
// workers drain up to max_event_batch events per wakeup. Both assert exact
// conservation: every accepted event processed exactly once.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "aim/server/esp_tier.h"
#include "aim/server/storage_node.h"
#include "aim/workload/benchmark_schema.h"
#include "aim/workload/cdr_generator.h"
#include "aim/workload/dimension_data.h"
#include "stress_util.h"
#include "test_util.h"

namespace aim {
namespace {

class IngestBatchStressTest : public ::testing::Test {
 protected:
  IngestBatchStressTest()
      : schema_(MakeCompactSchema()), dims_(MakeBenchmarkDims()) {}

  StorageNode::Options NodeOptions(std::uint32_t partitions,
                                   std::uint32_t esp_threads) {
    StorageNode::Options opts;
    opts.node_id = 0;
    opts.num_partitions = partitions;
    opts.num_esp_threads = esp_threads;
    opts.bucket_size = 64;
    opts.max_records_per_partition = 1 << 14;
    opts.scan_poll_micros = 200;
    opts.max_event_batch = 32;
    opts.esp.prefetch_distance = 8;
    return opts;
  }

  void LoadEntities(StorageNode* node, std::uint64_t n) {
    std::vector<std::uint8_t> row(schema_->record_size(), 0);
    for (EntityId e = 1; e <= n; ++e) {
      std::fill(row.begin(), row.end(), 0);
      PopulateEntityProfile(*schema_, dims_, e, n, row.data());
      ASSERT_TRUE(node->BulkLoad(e, row.data()).ok());
    }
  }

  static std::vector<std::uint8_t> Wire(const Event& e) {
    BinaryWriter w;
    e.Serialize(&w);
    return w.TakeBuffer();
  }

  QueryResult RunQuery(StorageNode* node, const Query& q) {
    BinaryWriter w;
    q.Serialize(&w);
    MpscQueue<std::vector<std::uint8_t>> replies;
    EXPECT_TRUE(node->SubmitQuery(w.TakeBuffer(),
                                  [&replies](std::vector<std::uint8_t>&& b) {
                                    replies.Push(std::move(b));
                                  }));
    std::optional<std::vector<std::uint8_t>> bytes = replies.Pop();
    QueryResult result;
    if (!bytes.has_value() || bytes->empty()) {
      result.status = Status::Shutdown();
      return result;
    }
    BinaryReader r(*bytes);
    StatusOr<PartialResult> partial = PartialResult::Deserialize(&r);
    EXPECT_TRUE(partial.ok());
    return FinalizeResult(q, &dims_.catalog, std::move(partial).value());
  }

  double AwaitSum(StorageNode* node, double expected) {
    Query q = *QueryBuilder(schema_.get())
                   .Select(AggOp::kSum, "number_of_calls_today")
                   .Build();
    double seen = 0;
    for (int attempt = 0; attempt < 2000; ++attempt) {
      const QueryResult r = RunQuery(node, q);
      EXPECT_TRUE(r.status.ok());
      seen = r.rows[0].values[0];
      if (seen == expected) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return seen;
  }

  std::unique_ptr<Schema> schema_;
  BenchmarkDims dims_;
  std::vector<Rule> rules_;
};

// Multi-producer batch submission against two ESP threads: each submitted
// batch mixes entities from both partitions, so SubmitEventBatch splits it
// into same-thread runs pushed with PushAll while the ESP loops drain with
// DrainInto and a query stream scans concurrently. Every few batches a
// producer attaches a completion to the last event and waits on it (the
// FIFO drain proves that thread's prefix processed), which also paces the
// flood so the unbounded queues stay small.
TEST_F(IngestBatchStressTest, BatchedIngestWhileQuery) {
  constexpr std::uint64_t kEntities = 64;
  constexpr std::uint32_t kProducers = 3;
  constexpr std::uint64_t kBatchSize = 24;
  const std::uint64_t kBatchesPerProducer = stress::Scaled(120);

  StorageNode node(schema_.get(), &dims_.catalog, &rules_, NodeOptions(2, 2));
  LoadEntities(&node, kEntities);
  ASSERT_TRUE(node.Start().ok());

  std::atomic<std::uint64_t> submitted{0};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      CdrGenerator::Options gopts;
      gopts.num_entities = kEntities;
      gopts.seed = 500 + p;
      CdrGenerator gen(gopts);
      Timestamp ts = 1000;
      for (std::uint64_t b = 0; b < kBatchesPerProducer; ++b) {
        std::vector<EventMessage> batch;
        for (std::uint64_t i = 0; i < kBatchSize; ++i) {
          EventMessage msg;
          msg.bytes = Wire(gen.Next(ts += 10));
          batch.push_back(std::move(msg));
        }
        EventCompletion pace;
        const bool paced = b % 4 == 3;
        if (paced) batch.back().completion = &pace;
        // Counted before the hand-off: an event can be processed and scanned
        // before SubmitEventBatch returns, and the querier bounds the
        // aggregate by this count. The queue hand-off orders the increment
        // before any scan that sees the batch.
        submitted.fetch_add(kBatchSize, std::memory_order_relaxed);
        ASSERT_EQ(node.SubmitEventBatch(std::move(batch)), kBatchSize);
        if (paced) {
          pace.Wait();
          ASSERT_TRUE(pace.status.ok()) << pace.status.ToString();
        }
      }
    });
  }

  std::atomic<bool> stop_queries{false};
  std::thread querier([&] {
    Query q = *QueryBuilder(schema_.get())
                   .Select(AggOp::kSum, "number_of_calls_today")
                   .Build();
    double last = 0;
    while (!stop_queries.load(std::memory_order_acquire)) {
      const QueryResult r = RunQuery(&node, q);
      ASSERT_TRUE(r.status.ok());
      const double sum = r.rows[0].values[0];
      ASSERT_GE(sum, last) << "aggregate regressed mid-ingest";
      ASSERT_LE(sum, static_cast<double>(
                         submitted.load(std::memory_order_acquire)));
      last = sum;
    }
  });

  for (auto& t : producers) t.join();
  const std::uint64_t total = submitted.load(std::memory_order_acquire);
  EXPECT_EQ(AwaitSum(&node, static_cast<double>(total)),
            static_cast<double>(total));
  stop_queries.store(true, std::memory_order_release);
  querier.join();
  node.Stop();

  EXPECT_EQ(node.stats().events_processed, total);
  EXPECT_EQ(node.stats().txn_conflicts, 0u);
}

// The separate-tier deployment under a fire-and-forget flood: tier workers
// drain up to max_event_batch queued events per wakeup and drive the node
// through its record Get/Put service while producers keep the queue full.
// Light pacing (a completion every 64 events per producer) bounds memory
// without ever leaving the drain loop idle.
TEST_F(IngestBatchStressTest, EspTierDrainBatchedFlood) {
  constexpr std::uint64_t kEntities = 64;
  constexpr std::uint32_t kProducers = 2;
  const std::uint64_t kPerProducer = stress::Scaled(1500);

  StorageNode node(schema_.get(), &dims_.catalog, &rules_, NodeOptions(2, 1));
  LoadEntities(&node, kEntities);
  ASSERT_TRUE(node.Start().ok());

  EspTierNode::Options topts;
  topts.num_threads = 2;
  topts.max_event_batch = 16;
  EspTierNode tier(schema_.get(), &node, &rules_, topts);
  ASSERT_TRUE(tier.Start().ok());

  std::atomic<std::uint64_t> submitted{0};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      CdrGenerator::Options gopts;
      gopts.num_entities = kEntities;
      gopts.seed = 700 + p;
      CdrGenerator gen(gopts);
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const bool paced = i % 64 == 63;
        EventCompletion pace;
        ASSERT_TRUE(tier.SubmitEvent(Wire(gen.Next(1000 + i)),
                                     paced ? &pace : nullptr));
        submitted.fetch_add(1, std::memory_order_relaxed);
        if (paced) {
          pace.Wait();
          ASSERT_TRUE(pace.status.ok()) << pace.status.ToString();
        }
      }
    });
  }

  for (auto& t : producers) t.join();
  const std::uint64_t total = submitted.load(std::memory_order_acquire);
  EXPECT_EQ(AwaitSum(&node, static_cast<double>(total)),
            static_cast<double>(total));
  tier.Stop();
  node.Stop();

  EXPECT_EQ(tier.stats().events_processed, total);
  EXPECT_GT(tier.stats().record_bytes_shipped, 0u);
}

}  // namespace
}  // namespace aim
