#include <gtest/gtest.h>

#include "aim/esp/firing_policy.h"
#include "aim/esp/rule.h"
#include "aim/esp/rule_eval.h"
#include "test_util.h"

namespace aim {
namespace {

using testing_util::MakeTinySchema;

class RuleTest : public ::testing::Test {
 protected:
  RuleTest() : schema_(MakeTinySchema()), buf_(schema_.get()) {
    calls_today_ = schema_->FindAttribute("calls_today");
    dur_sum_ = schema_->FindAttribute("dur_today_sum");
  }

  void SetAttr(std::uint16_t attr, const Value& v) { buf_.view().Set(attr, v); }

  ConstRecordView Record() const { return buf_.const_view(); }

  std::unique_ptr<Schema> schema_;
  RecordBuffer buf_;
  std::uint16_t calls_today_;
  std::uint16_t dur_sum_;
};

TEST_F(RuleTest, PredicateOnRecordAttr) {
  SetAttr(calls_today_, Value::Int32(5));
  Event e;
  EXPECT_TRUE(Predicate::OnAttr(calls_today_, CmpOp::kGt, 4).Evaluate(
      e, Record()));
  EXPECT_FALSE(Predicate::OnAttr(calls_today_, CmpOp::kGt, 5).Evaluate(
      e, Record()));
  EXPECT_TRUE(Predicate::OnAttr(calls_today_, CmpOp::kGe, 5).Evaluate(
      e, Record()));
  EXPECT_TRUE(Predicate::OnAttr(calls_today_, CmpOp::kEq, 5).Evaluate(
      e, Record()));
  EXPECT_TRUE(Predicate::OnAttr(calls_today_, CmpOp::kNe, 4).Evaluate(
      e, Record()));
  EXPECT_TRUE(Predicate::OnAttr(calls_today_, CmpOp::kLt, 6).Evaluate(
      e, Record()));
  EXPECT_FALSE(Predicate::OnAttr(calls_today_, CmpOp::kLe, 4).Evaluate(
      e, Record()));
}

TEST_F(RuleTest, PredicateOnEventFields) {
  Event e;
  e.duration = 301;
  e.cost = 2.5f;
  e.flags = Event::kLongDistance | Event::kRoaming;
  EXPECT_TRUE(Predicate::OnEvent(EventFieldId::kDuration, CmpOp::kGt, 300)
                  .Evaluate(e, Record()));
  EXPECT_TRUE(Predicate::OnEvent(EventFieldId::kCost, CmpOp::kLe, 2.5)
                  .Evaluate(e, Record()));
  EXPECT_TRUE(Predicate::OnEvent(EventFieldId::kLongDistance, CmpOp::kEq, 1)
                  .Evaluate(e, Record()));
  EXPECT_TRUE(Predicate::OnEvent(EventFieldId::kRoaming, CmpOp::kEq, 1)
                  .Evaluate(e, Record()));
  EXPECT_TRUE(Predicate::OnEvent(EventFieldId::kInternational, CmpOp::kEq, 0)
                  .Evaluate(e, Record()));
  EXPECT_TRUE(Predicate::OnEvent(EventFieldId::kDataVolume, CmpOp::kEq, 0)
                  .Evaluate(e, Record()));
}

TEST_F(RuleTest, BuilderBuildsDnf) {
  Rule r = RuleBuilder(3, "test")
               .Where(calls_today_, CmpOp::kGt, 1)
               .And(dur_sum_, CmpOp::kLt, 100)
               .Or()
               .WhereEvent(EventFieldId::kDuration, CmpOp::kGt, 50)
               .WithAction("act")
               .Build();
  EXPECT_EQ(r.id, 3u);
  ASSERT_EQ(r.conjuncts.size(), 2u);
  EXPECT_EQ(r.conjuncts[0].predicates.size(), 2u);
  EXPECT_EQ(r.conjuncts[1].predicates.size(), 1u);
  EXPECT_EQ(r.action, "act");
  EXPECT_FALSE(r.ToString(schema_.get()).empty());
}

TEST_F(RuleTest, EvaluatorEarlySuccessAcrossConjuncts) {
  SetAttr(calls_today_, Value::Int32(10));
  std::vector<Rule> rules;
  // First conjunct fails, second matches.
  rules.push_back(RuleBuilder(0, "r0")
                      .Where(calls_today_, CmpOp::kGt, 100)
                      .Or()
                      .Where(calls_today_, CmpOp::kGt, 5)
                      .Build());
  // Never matches.
  rules.push_back(RuleBuilder(1, "r1")
                      .Where(calls_today_, CmpOp::kLt, 0)
                      .Build());
  RuleEvaluator eval(&rules);
  Event e;
  std::vector<std::uint32_t> matched;
  eval.Evaluate(e, Record(), &matched);
  ASSERT_EQ(matched.size(), 1u);
  EXPECT_EQ(matched[0], 0u);
}

TEST_F(RuleTest, EvaluatorMixedEventAndRecordPredicates) {
  SetAttr(calls_today_, Value::Int32(21));
  SetAttr(schema_->FindAttribute("cost_week_sum"), Value::Float(101.0f));
  std::vector<Rule> rules;
  rules.push_back(RuleBuilder(0, "campaign")
                      .Where(calls_today_, CmpOp::kGt, 20)
                      .And(schema_->FindAttribute("cost_week_sum"),
                           CmpOp::kGt, 100)
                      .AndEvent(EventFieldId::kDuration, CmpOp::kGt, 300)
                      .Build());
  RuleEvaluator eval(&rules);
  std::vector<std::uint32_t> matched;

  Event e;
  e.duration = 299;
  eval.Evaluate(e, Record(), &matched);
  EXPECT_TRUE(matched.empty());

  e.duration = 301;
  eval.Evaluate(e, Record(), &matched);
  ASSERT_EQ(matched.size(), 1u);
}

TEST_F(RuleTest, EmptyRuleSetMatchesNothing) {
  std::vector<Rule> rules;
  RuleEvaluator eval(&rules);
  std::vector<std::uint32_t> matched = {99};
  Event e;
  eval.Evaluate(e, Record(), &matched);
  EXPECT_TRUE(matched.empty());  // cleared
}

// ---------------------------------------------------------------------------
// Firing policy
// ---------------------------------------------------------------------------

TEST(FiringPolicyTest, UnlimitedAlwaysAllows) {
  FiringPolicyTracker tracker;
  Rule r;
  r.id = 1;
  r.policy = FiringPolicy::Unlimited();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(tracker.Allow(r, 42, 1000 + i));
  }
  EXPECT_EQ(tracker.tracked_pairs(), 0u);
}

TEST(FiringPolicyTest, CapsFiringsPerWindow) {
  FiringPolicyTracker tracker;
  Rule r;
  r.id = 1;
  r.policy = FiringPolicy::PerWindow(2, kMillisPerDay);
  EXPECT_TRUE(tracker.Allow(r, 42, 100));
  EXPECT_TRUE(tracker.Allow(r, 42, 200));
  EXPECT_FALSE(tracker.Allow(r, 42, 300));
  // Other entity unaffected.
  EXPECT_TRUE(tracker.Allow(r, 43, 300));
  // Next day resets.
  EXPECT_TRUE(tracker.Allow(r, 42, kMillisPerDay + 1));
}

TEST(FiringPolicyTest, FilterRemovesSuppressed) {
  FiringPolicyTracker tracker;
  const std::vector<std::uint32_t> ids = {0, 1};
  const std::vector<FiringPolicy> policies = {
      FiringPolicy::PerWindow(1, kMillisPerDay), FiringPolicy::Unlimited()};

  std::vector<std::uint32_t> matched = {0, 1};
  tracker.Filter(ids, policies, 7, 100, &matched);
  EXPECT_EQ(matched.size(), 2u);  // first firing allowed

  matched = {0, 1};
  tracker.Filter(ids, policies, 7, 200, &matched);
  ASSERT_EQ(matched.size(), 1u);  // rule 0 suppressed now
  EXPECT_EQ(matched[0], 1u);
}

// Positions in, ids out: sparse, non-positional ids take the policy of
// their own position, with no lookup by id.
TEST(FiringPolicyTest, FilterMapsPositionsToSparseIds) {
  FiringPolicyTracker tracker;
  const std::vector<std::uint32_t> ids = {900, 7, 1u << 20};
  const std::vector<FiringPolicy> policies = {
      FiringPolicy::Unlimited(), FiringPolicy::PerWindow(1, kMillisPerDay),
      FiringPolicy::PerWindow(2, kMillisPerDay)};

  std::vector<std::uint32_t> matched = {0, 1, 2};
  tracker.Filter(ids, policies, 5, 100, &matched);
  EXPECT_EQ(matched, (std::vector<std::uint32_t>{900, 7, 1u << 20}));

  matched = {0, 1, 2};
  tracker.Filter(ids, policies, 5, 200, &matched);
  EXPECT_EQ(matched, (std::vector<std::uint32_t>{900, 1u << 20}));

  matched = {2, 1};
  tracker.Filter(ids, policies, 5, 300, &matched);
  EXPECT_TRUE(matched.empty());  // both quotas used today

  matched = {1, 2};
  tracker.Filter(ids, policies, 6, 300, &matched);  // another entity
  EXPECT_EQ(matched, (std::vector<std::uint32_t>{7, 1u << 20}));
  EXPECT_EQ(tracker.tracked_pairs(), 4u);
}

TEST(FiringPolicyTest, ExpireDropsOldWindows) {
  FiringPolicyTracker tracker;
  Rule r;
  r.id = 1;
  r.policy = FiringPolicy::PerWindow(1, kMillisPerDay);
  tracker.Allow(r, 42, 100);
  EXPECT_EQ(tracker.tracked_pairs(), 1u);
  tracker.Expire(10 * kMillisPerDay);
  EXPECT_EQ(tracker.tracked_pairs(), 0u);
}

}  // namespace
}  // namespace aim
