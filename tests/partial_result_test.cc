#include <limits>

#include <gtest/gtest.h>

#include "aim/rta/partial_result.h"
#include "test_util.h"

namespace aim {
namespace {

using testing_util::MakeTinySchema;

simd::AggAccum Acc(double sum, double mn, double mx, std::int64_t n) {
  simd::AggAccum a;
  a.sum = sum;
  a.min = mn;
  a.max = mx;
  a.count = n;
  return a;
}

Query AggQuery(const Schema* schema) {
  return *QueryBuilder(const_cast<Schema*>(schema))
              .WithId(7)
              .Select(AggOp::kAvg, "dur_today_sum")
              .SelectCount()
              .Build();
}

TEST(PartialResultTest, NumAggSlotsCountsRatioTwice) {
  auto schema = MakeTinySchema();
  Query q = *QueryBuilder(schema.get())
                 .Select(AggOp::kSum, "dur_today_sum")
                 .SelectSumRatio("cost_week_sum", "dur_today_sum")
                 .SelectCount()
                 .Build();
  EXPECT_EQ(NumAggSlots(q), 4u);
}

TEST(PartialResultTest, SerializeRoundTrip) {
  PartialResult p;
  p.query_id = 12;
  p.groups.push_back({5, {Acc(10, 1, 9, 3), Acc(0, 0, 0, 7)}});
  p.groups.push_back({9, {Acc(-2.5, -5, 0, 2), Acc(0, 0, 0, 1)}});
  p.topk.push_back({{101, 3.5}, {102, 2.0}});

  BinaryWriter w;
  p.Serialize(&w);
  BinaryReader r(w.buffer());
  StatusOr<PartialResult> parsed = PartialResult::Deserialize(&r);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->groups.size(), 2u);
  EXPECT_EQ(parsed->groups[0].key, 5u);
  EXPECT_DOUBLE_EQ(parsed->groups[0].slots[0].sum, 10.0);
  EXPECT_EQ(parsed->groups[1].slots[1].count, 1);
  ASSERT_EQ(parsed->topk.size(), 1u);
  EXPECT_EQ(parsed->topk[0][0].entity, 101u);
  EXPECT_DOUBLE_EQ(parsed->topk[0][1].value, 2.0);
}

TEST(PartialResultTest, DeserializeTruncatedFails) {
  PartialResult p;
  p.query_id = 1;
  p.groups.push_back({0, {Acc(1, 1, 1, 1)}});
  BinaryWriter w;
  p.Serialize(&w);
  BinaryReader r(w.buffer().data(), w.size() - 4);
  EXPECT_FALSE(PartialResult::Deserialize(&r).ok());
}

TEST(PartialResultTest, MergeCombinesGroupsByKey) {
  auto schema = MakeTinySchema();
  const Query q = AggQuery(schema.get());

  PartialResult a, b;
  a.groups.push_back({1, {Acc(10, 2, 8, 4), Acc(0, 0, 0, 4)}});
  a.groups.push_back({2, {Acc(5, 5, 5, 1), Acc(0, 0, 0, 1)}});
  b.groups.push_back({1, {Acc(20, 1, 30, 2), Acc(0, 0, 0, 2)}});
  b.groups.push_back({3, {Acc(7, 7, 7, 1), Acc(0, 0, 0, 1)}});

  a.MergeFrom(b, q);
  ASSERT_EQ(a.groups.size(), 3u);
  const auto& g1 = a.groups[0];
  EXPECT_EQ(g1.key, 1u);
  EXPECT_DOUBLE_EQ(g1.slots[0].sum, 30.0);
  EXPECT_DOUBLE_EQ(g1.slots[0].min, 1.0);
  EXPECT_DOUBLE_EQ(g1.slots[0].max, 30.0);
  EXPECT_EQ(g1.slots[0].count, 6);
}

TEST(PartialResultTest, MergeTopKKeepsBestK) {
  auto schema = MakeTinySchema();
  Query q = *QueryBuilder(schema.get())
                 .TopK("dur_today_max", /*ascending=*/false, 2)
                 .WithEntityAttr("entity_id")
                 .Build();
  PartialResult a, b;
  a.topk.push_back({{1, 10.0}, {2, 5.0}});
  b.topk.push_back({{3, 7.0}, {4, 20.0}});
  a.MergeFrom(b, q);
  ASSERT_EQ(a.topk[0].size(), 2u);
  EXPECT_EQ(a.topk[0][0].entity, 4u);  // 20.0
  EXPECT_EQ(a.topk[0][1].entity, 1u);  // 10.0
}

TEST(PartialResultTest, MergeTopKDropsNaNAndBreaksTiesByEntity) {
  auto schema = MakeTinySchema();
  Query q = *QueryBuilder(schema.get())
                 .TopK("dur_today_max", /*ascending=*/true, 3)
                 .WithEntityAttr("entity_id")
                 .Build();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  PartialResult a, b;
  // A partial decoded off the wire may carry NaN; it must not rank.
  a.topk.push_back({{9, nan}, {7, 5.0}, {2, 5.0}});
  b.topk.push_back({{1, nan}, {4, 5.0}, {3, -1.0}});
  a.MergeFrom(b, q);
  ASSERT_EQ(a.topk[0].size(), 3u);
  EXPECT_EQ(a.topk[0][0].entity, 3u);  // -1.0
  EXPECT_EQ(a.topk[0][1].entity, 2u);  // 5.0, smallest id of the tie
  EXPECT_EQ(a.topk[0][2].entity, 4u);  // 5.0
}

TEST(FinalizeResultTest, AvgAndCountSemantics) {
  auto schema = MakeTinySchema();
  const Query q = AggQuery(schema.get());
  PartialResult p;
  p.query_id = q.id;
  p.groups.push_back({0, {Acc(30, 1, 20, 4), Acc(0, 0, 0, 4)}});
  QueryResult r = FinalizeResult(q, nullptr, std::move(p));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0].values[0], 7.5);  // avg = 30/4
  EXPECT_DOUBLE_EQ(r.rows[0].values[1], 4.0);  // count
  EXPECT_EQ(r.query_id, q.id);
  EXPECT_FALSE(r.ToString().empty());
}

TEST(FinalizeResultTest, EmptyAggregateGetsZeroRow) {
  auto schema = MakeTinySchema();
  const Query q = AggQuery(schema.get());
  QueryResult r = FinalizeResult(q, nullptr, PartialResult{});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0].values[0], 0.0);
  EXPECT_DOUBLE_EQ(r.rows[0].values[1], 0.0);
}

TEST(FinalizeResultTest, RatioWithZeroDenominatorIsZero) {
  auto schema = MakeTinySchema();
  Query q = *QueryBuilder(schema.get())
                 .SelectSumRatio("cost_week_sum", "dur_today_sum")
                 .Build();
  PartialResult p;
  p.groups.push_back({0, {Acc(42, 0, 0, 3), Acc(0, 0, 0, 0)}});
  QueryResult r = FinalizeResult(q, nullptr, std::move(p));
  EXPECT_DOUBLE_EQ(r.rows[0].values[0], 0.0);
}

TEST(FinalizeResultTest, GroupRowsSortedAndLimited) {
  auto schema = MakeTinySchema();
  Query q = *QueryBuilder(schema.get())
                 .SelectCount()
                 .GroupByAttr("calls_today")
                 .Limit(2)
                 .Build();
  PartialResult p;
  p.groups.push_back({30, {Acc(0, 0, 0, 1)}});
  p.groups.push_back({10, {Acc(0, 0, 0, 2)}});
  p.groups.push_back({20, {Acc(0, 0, 0, 3)}});
  QueryResult r = FinalizeResult(q, nullptr, std::move(p));
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].group_key, 10u);
  EXPECT_EQ(r.rows[1].group_key, 20u);
}

}  // namespace
}  // namespace aim
