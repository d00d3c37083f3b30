#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "aim/esp/esp_engine.h"
#include "aim/esp/rule_eval.h"
#include "aim/workload/rules_generator.h"
#include "test_util.h"

namespace aim {
namespace {

using testing_util::MakeTinySchema;

class EspEngineTest : public ::testing::Test {
 protected:
  EspEngineTest() : schema_(MakeTinySchema()) {
    DeltaMainStore::Options opts;
    opts.bucket_size = 8;
    opts.max_records = 1024;
    store_ = std::make_unique<DeltaMainStore>(schema_.get(), opts);
    sys_.entity_id = schema_->FindAttribute("entity_id");
    sys_.last_event_ts = schema_->FindAttribute("last_event_ts");
    sys_.preferred_number = schema_->FindAttribute("preferred_number");
  }

  EspEngine MakeEngine(EspEngine::Options opts = {}) {
    return EspEngine(schema_.get(), store_.get(), &rules_, sys_, opts);
  }

  Event CallEvent(EntityId caller, Timestamp ts, std::uint32_t duration,
                  float cost = 1.0f, bool long_distance = false) {
    Event e;
    e.caller = caller;
    e.callee = 2;
    e.timestamp = ts;
    e.duration = duration;
    e.cost = cost;
    if (long_distance) e.flags |= Event::kLongDistance;
    return e;
  }

  std::unique_ptr<Schema> schema_;
  std::unique_ptr<DeltaMainStore> store_;
  std::vector<Rule> rules_;
  SystemAttrs sys_;
};

TEST_F(EspEngineTest, CreatesMissingEntityAndUpdates) {
  EspEngine engine = MakeEngine();
  ASSERT_TRUE(engine.ProcessEvent(CallEvent(5, 1000, 60), nullptr).ok());
  ASSERT_TRUE(engine.ProcessEvent(CallEvent(5, 2000, 40), nullptr).ok());

  EXPECT_EQ(engine.stats().events_processed, 2u);
  EXPECT_EQ(engine.stats().entities_created, 1u);
  EXPECT_EQ(
      store_->GetAttribute(5, schema_->FindAttribute("calls_today"))->i32(),
      2);
  EXPECT_FLOAT_EQ(
      store_->GetAttribute(5, schema_->FindAttribute("dur_today_sum"))->f32(),
      100.0f);
  EXPECT_EQ(store_->GetAttribute(5, sys_.entity_id)->u64(), 5u);
  EXPECT_EQ(store_->GetAttribute(5, sys_.last_event_ts)->i64(), 2000);
}

TEST_F(EspEngineTest, MissingEntityRejectedWhenCreateDisabled) {
  EspEngine::Options opts;
  opts.create_missing_entities = false;
  EspEngine engine = MakeEngine(opts);
  EXPECT_TRUE(
      engine.ProcessEvent(CallEvent(5, 1000, 60), nullptr).IsNotFound());
}

TEST_F(EspEngineTest, UpdatesExistingBulkLoadedEntity) {
  std::vector<std::uint8_t> row(schema_->record_size(), 0);
  RecordView rec(schema_.get(), row.data());
  rec.SetAs<std::uint64_t>(sys_.entity_id, 9);
  ASSERT_TRUE(store_->BulkInsert(9, row.data()).ok());

  EspEngine engine = MakeEngine();
  ASSERT_TRUE(engine.ProcessEvent(CallEvent(9, 500, 30), nullptr).ok());
  EXPECT_EQ(engine.stats().entities_created, 0u);
  EXPECT_EQ(
      store_->GetAttribute(9, schema_->FindAttribute("calls_today"))->i32(),
      1);
}

TEST_F(EspEngineTest, RulesFireOnUpdatedRecord) {
  const std::uint16_t calls = schema_->FindAttribute("calls_today");
  rules_.push_back(
      RuleBuilder(0, "threshold").Where(calls, CmpOp::kGe, 3).Build());
  EspEngine engine = MakeEngine();

  std::vector<std::uint32_t> fired;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(engine.ProcessEvent(CallEvent(1, 100 + i, 10), &fired).ok());
    EXPECT_TRUE(fired.empty()) << "event " << i;
  }
  // Third call today: count reaches 3, rule fires.
  ASSERT_TRUE(engine.ProcessEvent(CallEvent(1, 102, 10), &fired).ok());
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 0u);
  EXPECT_EQ(engine.stats().rules_fired, 1u);
}

TEST_F(EspEngineTest, FiringPolicySuppressesRepeats) {
  const std::uint16_t calls = schema_->FindAttribute("calls_today");
  rules_.push_back(RuleBuilder(0, "capped")
                       .Where(calls, CmpOp::kGe, 1)
                       .WithPolicy(FiringPolicy::PerWindow(2, kMillisPerDay))
                       .Build());
  EspEngine engine = MakeEngine();

  std::vector<std::uint32_t> fired;
  int total_fired = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.ProcessEvent(CallEvent(1, 100 + i, 10), &fired).ok());
    total_fired += static_cast<int>(fired.size());
  }
  EXPECT_EQ(total_fired, 2);
  EXPECT_EQ(engine.stats().rules_suppressed, 3u);
}

TEST_F(EspEngineTest, RuleIndexModeAgreesWithStraightEvaluation) {
  const std::uint16_t calls = schema_->FindAttribute("calls_today");
  const std::uint16_t sum = schema_->FindAttribute("dur_today_sum");
  rules_.push_back(
      RuleBuilder(0, "a").Where(calls, CmpOp::kGe, 2).Build());
  rules_.push_back(RuleBuilder(1, "b")
                       .Where(sum, CmpOp::kGt, 100)
                       .AndEvent(EventFieldId::kDuration, CmpOp::kGt, 50)
                       .Build());

  // Two engines over two stores processing identical events.
  DeltaMainStore::Options opts;
  opts.bucket_size = 8;
  opts.max_records = 1024;
  DeltaMainStore store2(schema_.get(), opts);
  EspEngine straight = MakeEngine();
  EspEngine::Options iopts;
  iopts.use_rule_index = true;
  EspEngine indexed(schema_.get(), &store2, &rules_, sys_, iopts);

  Random rng(4);
  std::vector<std::uint32_t> f1, f2;
  for (int i = 0; i < 200; ++i) {
    Event e = testing_util::RandomEvent(&rng, rng.Uniform(5) + 1, 1000 + i);
    ASSERT_TRUE(straight.ProcessEvent(e, &f1).ok());
    ASSERT_TRUE(indexed.ProcessEvent(e, &f2).ok());
    std::sort(f1.begin(), f1.end());
    std::sort(f2.begin(), f2.end());
    ASSERT_EQ(f1, f2) << "event " << i;
  }
}

TEST_F(EspEngineTest, ArchiveRetainsProcessedEvents) {
  EspEngine::Options opts;
  opts.keep_event_archive = true;
  opts.archive_retention_ms = kMillisPerDay;
  EspEngine engine = MakeEngine(opts);
  ASSERT_NE(engine.archive(), nullptr);
  ASSERT_TRUE(engine.ProcessEvent(CallEvent(4, 100, 10), nullptr).ok());
  ASSERT_TRUE(engine.ProcessEvent(CallEvent(4, 200, 20), nullptr).ok());
  ASSERT_TRUE(engine.ProcessEvent(CallEvent(5, 300, 30), nullptr).ok());
  EXPECT_EQ(engine.archive()->TotalEvents(), 3u);
  EXPECT_EQ(engine.archive()->EventsOf(4), 2u);

  // No archive unless requested.
  EspEngine plain = MakeEngine();
  EXPECT_EQ(plain.archive(), nullptr);
}

// The ProcessBatch contract: batched processing — with or without group
// prefetching — is bit-identical to N sequential ProcessEvent calls. One
// engine replays the stream event at a time, a second replays it in random
// batch splits; statuses, fired-rule sets, counter accounting, record
// bytes AND versions must all match exactly. The entity universe is tiny
// (8) so nearly every batch holds same-entity collisions, the case where a
// reordering or stale-prefetch bug would surface, and both stores merge at
// identical stream positions to exercise the frozen-delta path too.
TEST_F(EspEngineTest, BatchEquivalentToSequentialBitForBit) {
  const std::uint16_t calls = schema_->FindAttribute("calls_today");
  const std::uint16_t sum = schema_->FindAttribute("dur_today_sum");
  rules_.push_back(
      RuleBuilder(0, "ge2").Where(calls, CmpOp::kGe, 2).Build());
  rules_.push_back(RuleBuilder(1, "cap")
                       .Where(sum, CmpOp::kGt, 50)
                       .WithPolicy(FiringPolicy::PerWindow(3, kMillisPerDay))
                       .Build());

  for (int distance : {0, 3, 8}) {
    DeltaMainStore::Options sopts;
    sopts.bucket_size = 8;
    sopts.max_records = 1024;
    DeltaMainStore seq_store(schema_.get(), sopts);
    DeltaMainStore batch_store(schema_.get(), sopts);
    EspEngine seq(schema_.get(), &seq_store, &rules_, sys_, {});
    EspEngine::Options bopts;
    bopts.prefetch_distance = distance;
    EspEngine batched(schema_.get(), &batch_store, &rules_, sys_, bopts);

    Random rng(1234 + distance);
    std::vector<Event> stream;
    for (int i = 0; i < 600; ++i) {
      stream.push_back(
          testing_util::RandomEvent(&rng, rng.Uniform(8) + 1, 1000 + i));
    }

    EspEngine::BatchResult result;
    std::vector<std::uint32_t> fired;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t k = std::min<std::size_t>(
          rng.Uniform(48) + 1, stream.size() - pos);
      batched.ProcessBatch({stream.data() + pos, k}, &result);
      for (std::size_t i = 0; i < k; ++i) {
        const Status s = seq.ProcessEvent(stream[pos + i], &fired);
        ASSERT_EQ(s.code(), result.statuses[i].code())
            << "event " << pos + i << " distance " << distance;
        ASSERT_EQ(fired, result.fired[i])
            << "event " << pos + i << " distance " << distance;
      }
      pos += k;
      if (rng.Uniform(4) == 0) {
        seq_store.Merge();
        batch_store.Merge();
      }
    }

    std::vector<std::uint8_t> row_seq(schema_->record_size());
    std::vector<std::uint8_t> row_batch(schema_->record_size());
    for (EntityId e = 1; e <= 8; ++e) {
      Version v_seq = 0;
      Version v_batch = 0;
      ASSERT_TRUE(seq_store.Get(e, row_seq.data(), &v_seq).ok());
      ASSERT_TRUE(batch_store.Get(e, row_batch.data(), &v_batch).ok());
      EXPECT_EQ(row_seq, row_batch) << "entity " << e;
      EXPECT_EQ(v_seq, v_batch) << "entity " << e;
    }
    const EspEngine::Stats a = seq.stats();
    const EspEngine::Stats b = batched.stats();
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.txn_conflicts, b.txn_conflicts);
    EXPECT_EQ(a.rules_fired, b.rules_fired);
    EXPECT_EQ(a.rules_suppressed, b.rules_suppressed);
    EXPECT_EQ(a.entities_created, b.entities_created);
  }
}

// Engine-level parity of the compiled rule program: a seeded 300-rule
// stream through ProcessBatch in random batch splits fires, per event,
// exactly what RuleEvaluator plus FiringPolicyTracker fire on that event's
// post-update record, kept by a reference model of Algorithm 1. Rule ids
// are sparse, a third of the rules carry a per-day quota, timestamps roll
// over several days, and the stream crosses the program's re-sort
// interval three times.
TEST_F(EspEngineTest, CompiledRulesFireAsAlgorithm2PlusPolicy) {
  RulesGeneratorOptions ropts;
  ropts.num_rules = 300;
  ropts.seed = 77;
  rules_ = MakeBenchmarkRules(*schema_, ropts);
  std::map<std::uint32_t, const Rule*> by_id;
  for (Rule& r : rules_) {
    r.id = r.id * 5 + 3;
    by_id[r.id] = &r;
  }
  EspEngine engine = MakeEngine();
  RuleEvaluator oracle(&rules_);
  FiringPolicyTracker oracle_policy;
  const UpdateProgram update(*schema_, sys_.preferred_number);
  std::map<EntityId, std::vector<std::uint8_t>> model;

  Random rng(2024);
  const std::size_t n = 3 * RuleProgram::kReorderInterval + 500;
  std::vector<Event> stream;
  for (std::size_t i = 0; i < n; ++i) {
    stream.push_back(testing_util::RandomEvent(
        &rng, rng.Uniform(16) + 1, 1000 + static_cast<Timestamp>(i) * 45000));
  }

  EspEngine::BatchResult result;
  std::vector<std::uint32_t> expected;
  std::uint64_t fired_total = 0;
  std::uint64_t suppressed_total = 0;
  for (std::size_t pos = 0; pos < n;) {
    const std::size_t k =
        std::min<std::size_t>(rng.Uniform(64) + 1, n - pos);
    engine.ProcessBatch({stream.data() + pos, k}, &result);
    for (std::size_t i = 0; i < k; ++i) {
      const Event& e = stream[pos + i];
      ASSERT_TRUE(result.statuses[i].ok());
      auto [it, fresh] = model.try_emplace(e.caller);
      std::vector<std::uint8_t>& row = it->second;
      if (fresh) {
        row.assign(schema_->record_size(), 0);
        RecordView(schema_.get(), row.data())
            .SetAs<std::uint64_t>(sys_.entity_id, e.caller);
      }
      update.Apply(e, row.data());
      RecordView(schema_.get(), row.data())
          .SetAs<std::int64_t>(sys_.last_event_ts, e.timestamp);
      oracle.Evaluate(e, ConstRecordView(schema_.get(), row.data()),
                      &expected);
      const std::size_t matched = expected.size();
      std::erase_if(expected, [&](std::uint32_t id) {
        return !oracle_policy.Allow(*by_id.at(id), e.caller, e.timestamp);
      });
      suppressed_total += matched - expected.size();
      fired_total += expected.size();
      ASSERT_EQ(result.fired[i], expected) << "event " << pos + i;
    }
    pos += k;
  }
  EXPECT_GT(fired_total, 1000u);
  EXPECT_GT(suppressed_total, 100u);
  EXPECT_EQ(engine.stats().rules_fired, fired_total);
  EXPECT_EQ(engine.stats().rules_suppressed, suppressed_total);
}

// The predicates counter moves once per call, and only the compiled
// program feeds it: the rule index, switched on later, does not.
TEST_F(EspEngineTest, CountsRulePredicatesPerCall) {
  const std::uint16_t calls = schema_->FindAttribute("calls_today");
  rules_.push_back(RuleBuilder(0, "a")
                       .Where(calls, CmpOp::kGe, 100)
                       .And(calls, CmpOp::kGe, 0)
                       .Build());
  MetricsRegistry registry;
  EspEngine::Options opts;
  opts.metrics = &registry;
  EspEngine engine = MakeEngine(opts);
  const Counter* predicates =
      registry.GetCounter("aim_esp_rule_predicates_total", {});
  std::vector<Event> batch = {CallEvent(1, 100, 10), CallEvent(2, 100, 10),
                              CallEvent(1, 200, 10)};
  EspEngine::BatchResult result;
  engine.ProcessBatch(batch, &result);
  // Before any re-order the guard is calls >= 100; it fails alone.
  EXPECT_EQ(predicates->Value(), 3u);
  ASSERT_TRUE(engine.ProcessEvent(CallEvent(2, 300, 10), nullptr).ok());
  EXPECT_EQ(predicates->Value(), 4u);

  engine.set_use_rule_index(true);
  ASSERT_TRUE(engine.ProcessEvent(CallEvent(2, 400, 10), nullptr).ok());
  EXPECT_EQ(predicates->Value(), 4u);
}

TEST_F(EspEngineTest, IndicatorsVisibleAfterMergeToo) {
  EspEngine engine = MakeEngine();
  ASSERT_TRUE(engine.ProcessEvent(CallEvent(3, 100, 25), nullptr).ok());
  store_->Merge();
  ASSERT_TRUE(engine.ProcessEvent(CallEvent(3, 200, 25), nullptr).ok());
  EXPECT_EQ(
      store_->GetAttribute(3, schema_->FindAttribute("calls_today"))->i32(),
      2);
}

}  // namespace
}  // namespace aim
