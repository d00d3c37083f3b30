#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aim/baselines/row_query.h"
#include "aim/rta/compiled_query.h"
#include "aim/rta/shared_scan.h"
#include "test_util.h"

namespace aim {
namespace {

using testing_util::MakeTinySchema;

/// Test fixture: a ColumnMap with deterministic pseudo-random rows plus a
/// zip -> city/region dimension table, and a row-wise oracle.
class CompiledQueryTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kRecords = 1000;
  static constexpr std::uint32_t kBucketSize = 96;  // forces partial buckets

  CompiledQueryTest() : schema_(MakeTinySchema()) {
    DimensionTable region("RegionInfo");
    city_col_ = region.AddStringColumn("city");
    pop_col_ = region.AddUInt32Column("population");
    // 10 zips (0..9) mapping to 3 cities; zip 9 deliberately missing so the
    // inner-join drop path is exercised.
    for (std::uint32_t zip = 0; zip < 9; ++zip) {
      region.AddRow(zip, {zip * 100}, {"city_" + std::to_string(zip % 3)});
    }
    region_table_ = dims_.AddTable(std::move(region));

    map_ = std::make_unique<ColumnMap>(schema_.get(), kBucketSize, kRecords);
    Random rng(31);
    calls_ = schema_->FindAttribute("calls_today");
    dur_sum_ = schema_->FindAttribute("dur_today_sum");
    cost_sum_ = schema_->FindAttribute("cost_week_sum");
    zip_ = schema_->FindAttribute("zip");
    entity_ = schema_->FindAttribute("entity_id");

    std::vector<std::uint8_t> row(schema_->record_size(), 0);
    for (std::uint32_t i = 0; i < kRecords; ++i) {
      RecordView rec(schema_.get(), row.data());
      rec.Set(entity_, Value::UInt64(i + 1));
      rec.Set(calls_, Value::Int32(static_cast<std::int32_t>(
                          rng.Uniform(20))));
      rec.Set(dur_sum_, Value::Float(static_cast<float>(rng.Uniform(1000))));
      rec.Set(cost_sum_, Value::Float(
                             static_cast<float>(rng.Uniform(500)) / 10.0f));
      rec.Set(zip_, Value::UInt32(static_cast<std::uint32_t>(
                        rng.Uniform(10))));
      rows_.push_back(row);
      AIM_CHECK(map_->Insert(i + 1, row.data(), 1).ok());
    }
  }

  QueryResult Run(const Query& q) {
    StatusOr<CompiledQuery> cq =
        CompiledQuery::Compile(q, schema_.get(), &dims_);
    AIM_CHECK_MSG(cq.ok(), "%s", cq.status().ToString().c_str());
    ScanScratch scratch;
    for (std::uint32_t b = 0; b < map_->num_buckets(); ++b) {
      cq->ProcessBucket(*map_, map_->bucket(b), &scratch);
    }
    return FinalizeResult(q, &dims_, cq->TakePartial());
  }

  double Attr(std::uint32_t rec, std::uint16_t attr) const {
    return ConstRecordView(schema_.get(), rows_[rec].data())
        .Get(attr)
        .AsDouble();
  }

  std::unique_ptr<Schema> schema_;
  DimensionCatalog dims_;
  std::uint16_t region_table_, city_col_, pop_col_;
  std::unique_ptr<ColumnMap> map_;
  std::vector<std::vector<std::uint8_t>> rows_;
  std::uint16_t calls_, dur_sum_, cost_sum_, zip_, entity_;
};

TEST_F(CompiledQueryTest, AggregateWithFilters) {
  StatusOr<Query> q = QueryBuilder(schema_.get())
                          .Select(AggOp::kSum, "dur_today_sum")
                          .Select(AggOp::kAvg, "cost_week_sum")
                          .Select(AggOp::kMin, "dur_today_sum")
                          .Select(AggOp::kMax, "cost_week_sum")
                          .SelectCount()
                          .Where("calls_today", CmpOp::kGt, Value::Int32(5))
                          .Where("dur_today_sum", CmpOp::kLe,
                                 Value::Float(800.0f))
                          .Build();
  ASSERT_TRUE(q.ok());
  const QueryResult result = Run(*q);
  ASSERT_EQ(result.rows.size(), 1u);

  double sum = 0, cost_sum = 0, mn = 1e18, mx = -1e18;
  std::int64_t n = 0;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    if (Attr(i, calls_) > 5 && Attr(i, dur_sum_) <= 800.0) {
      sum += Attr(i, dur_sum_);
      cost_sum += Attr(i, cost_sum_);
      mn = std::min(mn, Attr(i, dur_sum_));
      mx = std::max(mx, Attr(i, cost_sum_));
      n++;
    }
  }
  ASSERT_GT(n, 0);
  const auto& v = result.rows[0].values;
  ASSERT_EQ(v.size(), 5u);
  EXPECT_NEAR(v[0], sum, 1e-6 * (1 + sum));
  EXPECT_NEAR(v[1], cost_sum / n, 1e-6 * (1 + cost_sum / n));
  EXPECT_DOUBLE_EQ(v[2], mn);
  EXPECT_DOUBLE_EQ(v[3], mx);
  EXPECT_DOUBLE_EQ(v[4], static_cast<double>(n));
}

TEST_F(CompiledQueryTest, NoFilterScansEverything) {
  StatusOr<Query> q =
      QueryBuilder(schema_.get()).SelectCount().Build();
  ASSERT_TRUE(q.ok());
  const QueryResult result = Run(*q);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.rows[0].values[0], kRecords);
}

TEST_F(CompiledQueryTest, EmptySelectionReturnsZeroRow) {
  StatusOr<Query> q = QueryBuilder(schema_.get())
                          .Select(AggOp::kAvg, "dur_today_sum")
                          .Select(AggOp::kMin, "dur_today_sum")
                          .SelectCount()
                          .Where("calls_today", CmpOp::kGt,
                                 Value::Int32(1000000))
                          .Build();
  ASSERT_TRUE(q.ok());
  const QueryResult result = Run(*q);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result.rows[0].values[0], 0.0);  // avg of empty = 0
  EXPECT_DOUBLE_EQ(result.rows[0].values[1], 0.0);  // min of empty = 0
  EXPECT_DOUBLE_EQ(result.rows[0].values[2], 0.0);  // count
}

TEST_F(CompiledQueryTest, GroupByMatrixAttr) {
  StatusOr<Query> q = QueryBuilder(schema_.get())
                          .Select(AggOp::kSum, "dur_today_sum")
                          .SelectCount()
                          .GroupByAttr("calls_today")
                          .Build();
  ASSERT_TRUE(q.ok());
  const QueryResult result = Run(*q);

  std::map<std::int64_t, std::pair<double, std::int64_t>> expected;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    auto& e = expected[static_cast<std::int64_t>(Attr(i, calls_))];
    e.first += Attr(i, dur_sum_);
    e.second++;
  }
  ASSERT_EQ(result.rows.size(), expected.size());
  for (const auto& row : result.rows) {
    const auto it = expected.find(static_cast<std::int64_t>(row.group_key));
    ASSERT_NE(it, expected.end());
    EXPECT_NEAR(row.values[0], it->second.first,
                1e-6 * (1 + it->second.first));
    EXPECT_DOUBLE_EQ(row.values[1], it->second.second);
  }
  // Sorted by key ascending.
  for (std::size_t i = 1; i < result.rows.size(); ++i) {
    EXPECT_LT(result.rows[i - 1].group_key, result.rows[i].group_key);
  }
}

TEST_F(CompiledQueryTest, GroupByLimitTruncates) {
  StatusOr<Query> q = QueryBuilder(schema_.get())
                          .SelectCount()
                          .GroupByAttr("calls_today")
                          .Limit(3)
                          .Build();
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(Run(*q).rows.size(), 3u);
}

TEST_F(CompiledQueryTest, GroupByDimColumnJoins) {
  StatusOr<Query> q = QueryBuilder(schema_.get())
                          .Select(AggOp::kSum, "cost_week_sum")
                          .SelectCount()
                          .GroupByDim("zip", region_table_, city_col_)
                          .Build();
  ASSERT_TRUE(q.ok());
  const QueryResult result = Run(*q);

  std::map<std::string, std::pair<double, std::int64_t>> expected;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    const std::uint32_t zip = static_cast<std::uint32_t>(Attr(i, zip_));
    if (zip >= 9) continue;  // zip 9 has no dim row: inner join drops it
    auto& e = expected["city_" + std::to_string(zip % 3)];
    e.first += Attr(i, cost_sum_);
    e.second++;
  }
  ASSERT_EQ(result.rows.size(), expected.size());
  for (const auto& row : result.rows) {
    const auto it = expected.find(row.group_label);
    ASSERT_NE(it, expected.end()) << row.group_label;
    EXPECT_NEAR(row.values[0], it->second.first,
                1e-6 * (1 + it->second.first));
    EXPECT_DOUBLE_EQ(row.values[1], it->second.second);
  }
}

TEST_F(CompiledQueryTest, DimFilterRestrictsByLabel) {
  StatusOr<Query> q = QueryBuilder(schema_.get())
                          .SelectCount()
                          .WhereDimLabel("zip", region_table_, city_col_,
                                         "city_1")
                          .Build();
  ASSERT_TRUE(q.ok());
  const QueryResult result = Run(*q);

  std::int64_t n = 0;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    const std::uint32_t zip = static_cast<std::uint32_t>(Attr(i, zip_));
    if (zip < 9 && zip % 3 == 1) n++;
  }
  EXPECT_DOUBLE_EQ(result.rows[0].values[0], static_cast<double>(n));
}

TEST_F(CompiledQueryTest, DimFilterNumericRange) {
  // population > 400 selects zips 5..8.
  StatusOr<Query> q = QueryBuilder(schema_.get())
                          .SelectCount()
                          .WhereDim("zip", region_table_, pop_col_,
                                    CmpOp::kGt, 400)
                          .Build();
  ASSERT_TRUE(q.ok());
  std::int64_t n = 0;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    const std::uint32_t zip = static_cast<std::uint32_t>(Attr(i, zip_));
    if (zip >= 5 && zip <= 8) n++;
  }
  EXPECT_DOUBLE_EQ(Run(*q).rows[0].values[0], static_cast<double>(n));
}

TEST_F(CompiledQueryTest, SumRatio) {
  StatusOr<Query> q = QueryBuilder(schema_.get())
                          .SelectSumRatio("cost_week_sum", "dur_today_sum")
                          .Build();
  ASSERT_TRUE(q.ok());
  double num = 0, den = 0;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    num += Attr(i, cost_sum_);
    den += Attr(i, dur_sum_);
  }
  EXPECT_NEAR(Run(*q).rows[0].values[0], num / den, 1e-6);
}

TEST_F(CompiledQueryTest, TopKDescendingAndRatio) {
  StatusOr<Query> q = QueryBuilder(schema_.get())
                          .TopK("dur_today_sum", /*ascending=*/false, 5)
                          .TopKRatio("cost_week_sum", "dur_today_sum",
                                     /*ascending=*/true, 5)
                          .WithEntityAttr("entity_id")
                          .Build();
  ASSERT_TRUE(q.ok());
  const QueryResult result = Run(*q);
  ASSERT_EQ(result.topk.size(), 2u);

  // Oracle for target 0: top-5 by dur_today_sum.
  std::vector<std::pair<double, std::uint64_t>> by_dur;
  std::vector<std::pair<double, std::uint64_t>> by_ratio;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    by_dur.push_back({Attr(i, dur_sum_), i + 1});
    const double den = Attr(i, dur_sum_);
    if (den != 0.0) {
      by_ratio.push_back({Attr(i, cost_sum_) / den, i + 1});
    }
  }
  std::sort(by_dur.begin(), by_dur.end(),
            [](auto& a, auto& b) { return a.first > b.first; });
  std::sort(by_ratio.begin(), by_ratio.end());

  ASSERT_EQ(result.topk[0].size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(result.topk[0][i].value, by_dur[i].first) << i;
  }
  ASSERT_EQ(result.topk[1].size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(result.topk[1][i].value, by_ratio[i].first, 1e-9) << i;
  }
  // Top-1 entity must match exactly (values are distinct with overwhelming
  // probability; if tied, entity may differ — check value only above).
}

TEST_F(CompiledQueryTest, SharedBatchMatchesIndividualRuns) {
  // Algorithm 5: a batch processed in one pass must produce exactly the
  // same results as one-at-a-time execution.
  std::vector<Query> queries;
  queries.push_back(*QueryBuilder(schema_.get())
                         .SelectCount()
                         .Where("calls_today", CmpOp::kGt, Value::Int32(9))
                         .Build());
  queries.push_back(*QueryBuilder(schema_.get())
                         .Select(AggOp::kSum, "dur_today_sum")
                         .GroupByAttr("calls_today")
                         .Build());
  queries.push_back(*QueryBuilder(schema_.get())
                         .Select(AggOp::kMax, "cost_week_sum")
                         .Build());

  std::vector<CompiledQuery> batch;
  for (const Query& q : queries) {
    batch.push_back(*CompiledQuery::Compile(q, schema_.get(), &dims_));
  }
  ScanScratch scratch;
  for (std::uint32_t b = 0; b < map_->num_buckets(); ++b) {
    const ColumnMap::BucketRef bucket = map_->bucket(b);
    for (CompiledQuery& cq : batch) {
      cq.ProcessBucket(*map_, bucket, &scratch);
    }
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult shared =
        FinalizeResult(queries[i], &dims_, batch[i].TakePartial());
    const QueryResult solo = Run(queries[i]);
    ASSERT_EQ(shared.rows.size(), solo.rows.size()) << i;
    for (std::size_t r = 0; r < solo.rows.size(); ++r) {
      EXPECT_EQ(shared.rows[r].group_key, solo.rows[r].group_key);
      ASSERT_EQ(shared.rows[r].values.size(), solo.rows[r].values.size());
      for (std::size_t v = 0; v < solo.rows[r].values.size(); ++v) {
        EXPECT_DOUBLE_EQ(shared.rows[r].values[v], solo.rows[r].values[v]);
      }
    }
  }
}

TEST_F(CompiledQueryTest, CompileRejectsBadQueries) {
  Query q;
  q.id = 1;
  q.select.push_back(SelectItem::Agg(AggOp::kSum, 9999));
  EXPECT_FALSE(CompiledQuery::Compile(q, schema_.get(), &dims_).ok());

  Query q2;
  q2.select.push_back(SelectItem::Count());
  q2.dim_where.push_back(DimFilter{zip_, 99, 0, CmpOp::kEq, 1, ""});
  EXPECT_FALSE(CompiledQuery::Compile(q2, schema_.get(), &dims_).ok());
}

// ---------------------------------------------------------------------------
// Parity with the row-at-a-time oracle (RowQueryRun) over random columns of
// every ValueType and random Q1-Q7-shaped queries.
// ---------------------------------------------------------------------------

/// Same value, bit for bit, except that any two NaNs are equal.
bool SameDouble(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void ExpectSameResult(const QueryResult& got, const QueryResult& want,
                      const std::string& where) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << where;
  for (std::size_t r = 0; r < want.rows.size(); ++r) {
    EXPECT_EQ(got.rows[r].group_key, want.rows[r].group_key) << where;
    EXPECT_EQ(got.rows[r].group_label, want.rows[r].group_label) << where;
    ASSERT_EQ(got.rows[r].values.size(), want.rows[r].values.size()) << where;
    for (std::size_t v = 0; v < want.rows[r].values.size(); ++v) {
      EXPECT_TRUE(SameDouble(got.rows[r].values[v], want.rows[r].values[v]))
          << where << " row " << r << " value " << v << ": "
          << got.rows[r].values[v] << " vs " << want.rows[r].values[v];
    }
  }
  ASSERT_EQ(got.topk.size(), want.topk.size()) << where;
  for (std::size_t t = 0; t < want.topk.size(); ++t) {
    ASSERT_EQ(got.topk[t].size(), want.topk[t].size())
        << where << " target " << t;
    for (std::size_t k = 0; k < want.topk[t].size(); ++k) {
      EXPECT_EQ(got.topk[t][k].entity, want.topk[t][k].entity)
          << where << " target " << t << " rank " << k;
      EXPECT_TRUE(SameDouble(got.topk[t][k].value, want.topk[t][k].value))
          << where << " target " << t << " rank " << k;
    }
  }
}

/// A matrix of raw columns, one per ValueType, plus two u32 FK columns into
/// two dimension tables with holes in their key ranges. Numeric values are
/// small integers or quarters, so every sum is exact in any order and the
/// SIMD aggregate path must agree with the oracle bit for bit; the double
/// column also carries NaN and +-inf.
class CompiledQueryParityTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kRecords = 2000;
  static constexpr std::uint32_t kBucketSize = 96;
  static constexpr std::uint32_t kDim1Span = 60;  // keys 0..59, holes at %7

  CompiledQueryParityTest() {
    entity_ = schema_.AddRawAttribute("entity_id", ValueType::kUInt64);
    for (ValueType t : {ValueType::kInt32, ValueType::kUInt32,
                        ValueType::kInt64, ValueType::kUInt64,
                        ValueType::kFloat, ValueType::kDouble}) {
      numeric_.push_back(schema_.AddRawAttribute(
          std::string("col_") + ValueTypeName(t), t));
    }
    // Few distinct values: top-k ties everywhere.
    ties_ = schema_.AddRawAttribute("ties", ValueType::kInt32);
    numeric_.push_back(ties_);
    // Inexact doubles, summed only per group: their sums depend on the
    // order of addition, which must be record order.
    frac_ = schema_.AddRawAttribute("frac", ValueType::kDouble);
    fk1_ = schema_.AddRawAttribute("fk1", ValueType::kUInt32);
    fk2_ = schema_.AddRawAttribute("fk2", ValueType::kUInt32);
    AIM_CHECK(schema_.Finalize().ok());

    DimensionTable dim1("Dim1");
    dim1_label_ = dim1.AddStringColumn("label");
    dim1_num_ = dim1.AddUInt32Column("num");
    Random dim_rng(5);
    for (std::uint32_t key = 0; key < kDim1Span; ++key) {
      if (key % 7 == 3) continue;  // holes inside the key range
      dim1.AddRow(key, {static_cast<std::uint32_t>(dim_rng.Uniform(20))},
                  {"label_" + std::to_string(dim_rng.Uniform(5))});
    }
    dim1_ = dims_.AddTable(std::move(dim1));
    DimensionTable dim2("Dim2");
    dim2_label_ = dim2.AddStringColumn("kind");
    for (std::uint32_t key = 0; key < 10; ++key) {
      dim2.AddRow(key, {}, {"kind_" + std::to_string(key % 3)});
    }
    dim2_ = dims_.AddTable(std::move(dim2));
  }

  /// Random value of the column's type (see the class comment).
  Value RandomValue(ValueType t, Random* rng) {
    switch (t) {
      case ValueType::kInt32:
        return Value::Int32(static_cast<std::int32_t>(rng->UniformRange(-40, 40)));
      case ValueType::kUInt32:
        // Mostly small, a tenth zero: ratio targets meet zero denominators.
        return Value::UInt32(rng->OneIn(10) ? 0u
                                            : static_cast<std::uint32_t>(
                                                  rng->Uniform(1000)));
      case ValueType::kInt64:
        return Value::Int64(rng->UniformRange(-1000000, 1000000));
      case ValueType::kUInt64:
        return Value::UInt64(rng->Uniform(5000));
      case ValueType::kFloat:
        return Value::Float(static_cast<float>(rng->UniformRange(-400, 400)) /
                            4.0f);
      case ValueType::kDouble: {
        const std::uint64_t r = rng->Uniform(100);
        if (r == 0) return Value::Double(std::numeric_limits<double>::quiet_NaN());
        if (r == 1) return Value::Double(std::numeric_limits<double>::infinity());
        if (r == 2) return Value::Double(-std::numeric_limits<double>::infinity());
        return Value::Double(static_cast<double>(rng->UniformRange(-9000, 9000)) /
                             4.0);
      }
    }
    return Value::Int32(0);
  }

  /// Entity id of record i: a permutation of 1..kRecords, so scan order is
  /// not entity order and top-k ties must be settled by comparing ids.
  static EntityId EntityOf(std::uint32_t i) {
    return (static_cast<EntityId>(i) * 7919) % kRecords + 1;
  }

  /// Fills `rows_` with kRecords random records.
  void MakeRows(std::uint64_t seed) {
    Random rng(seed);
    rows_.clear();
    std::vector<std::uint8_t> row(schema_.record_size(), 0);
    for (std::uint32_t i = 0; i < kRecords; ++i) {
      RecordView rec(&schema_, row.data());
      rec.Set(entity_, Value::UInt64(EntityOf(i)));
      for (std::uint16_t attr : numeric_) {
        rec.Set(attr, RandomValue(schema_.attribute(attr).type, &rng));
      }
      rec.Set(ties_, Value::Int32(static_cast<std::int32_t>(rng.Uniform(4))));
      rec.Set(frac_, Value::Double(rng.NextDouble() * 1000.0 / 3.0));
      // FKs: in range, in a hole, beyond the span, or far beyond it.
      const std::uint64_t r = rng.Uniform(20);
      const std::uint32_t fk1 =
          r == 0 ? 0xffffffffu
                 : static_cast<std::uint32_t>(rng.Uniform(kDim1Span + 10));
      rec.Set(fk1_, Value::UInt32(fk1));
      rec.Set(fk2_, Value::UInt32(static_cast<std::uint32_t>(rng.Uniform(12))));
      rows_.push_back(row);
    }
  }

  /// Partition `part` of `parts`: every parts-th row, starting at `part`.
  std::unique_ptr<ColumnMap> MakeMap(std::uint32_t part,
                                     std::uint32_t parts) const {
    auto map = std::make_unique<ColumnMap>(&schema_, kBucketSize, kRecords);
    for (std::uint32_t i = part; i < rows_.size(); i += parts) {
      AIM_CHECK(map->Insert(EntityOf(i), rows_[i].data(), 1).ok());
    }
    return map;
  }

  DimFilter RandomDimFilter(Random* rng) {
    DimFilter f;
    switch (rng->Uniform(4)) {
      case 0:  // label equality / inequality, sometimes an absent label
        f.fk_attr = fk1_;
        f.dim_table = dim1_;
        f.dim_column = dim1_label_;
        f.op = rng->OneIn(3) ? CmpOp::kNe : CmpOp::kEq;
        f.str_constant = "label_" + std::to_string(rng->Uniform(6));
        break;
      case 1:
      case 2:  // numeric range on the same FK
        f.fk_attr = fk1_;
        f.dim_table = dim1_;
        f.dim_column = dim1_num_;
        f.op = static_cast<CmpOp>(rng->Uniform(6));
        f.constant = static_cast<std::uint32_t>(rng->Uniform(22));
        break;
      default:
        f.fk_attr = fk2_;
        f.dim_table = dim2_;
        f.dim_column = dim2_label_;
        f.op = CmpOp::kEq;
        f.str_constant = "kind_" + std::to_string(rng->Uniform(3));
        break;
    }
    return f;
  }

  SelectItem RandomSelect(Random* rng) {
    const std::uint16_t attr = numeric_[rng->Uniform(numeric_.size())];
    switch (rng->Uniform(4)) {
      case 0:
        return SelectItem::Count();
      case 1:
        return SelectItem::SumRatio(attr,
                                    numeric_[rng->Uniform(numeric_.size())]);
      default:
        return SelectItem::Agg(static_cast<AggOp>(rng->Uniform(5)), attr);
    }
  }

  /// A random query shaped like one of Q1-Q7: aggregate with filters,
  /// GROUP BY a matrix column, GROUP BY a dimension column through an FK
  /// with dimension predicates, or top-k (plain and ratio targets).
  Query RandomQuery(Random* rng, std::uint32_t id) {
    Query q;
    q.id = id;
    const int shape = static_cast<int>(rng->Uniform(7)) + 1;
    const int num_filters = static_cast<int>(rng->Uniform(3));
    for (int i = 0; i < num_filters; ++i) {
      ScanFilter f;
      f.attr = numeric_[rng->Uniform(numeric_.size())];
      f.op = static_cast<CmpOp>(rng->Uniform(6));
      f.constant = RandomValue(schema_.attribute(f.attr).type, rng);
      if (std::isnan(f.constant.AsDouble())) f.constant = Value::Double(0.5);
      q.where.push_back(f);
    }
    const int num_dim = shape >= 4 ? static_cast<int>(rng->Uniform(3)) : 0;
    for (int i = 0; i < num_dim; ++i) q.dim_where.push_back(RandomDimFilter(rng));

    if (shape <= 2) {
      q.kind = Query::Kind::kAggregate;
    } else if (shape <= 5) {
      q.kind = Query::Kind::kGroupBy;
      if (shape == 3) {
        q.group_by.kind = GroupBy::Kind::kMatrixAttr;
        q.group_by.attr = numeric_[rng->Uniform(numeric_.size())];
      } else {
        q.group_by.kind = GroupBy::Kind::kDimColumn;
        q.group_by.fk_attr = fk1_;
        q.group_by.dim_table = dim1_;
        q.group_by.dim_column = rng->OneIn(2) ? dim1_label_ : dim1_num_;
      }
      if (rng->OneIn(4)) q.limit = static_cast<std::uint32_t>(rng->Uniform(20));
    } else {
      q.kind = Query::Kind::kTopK;
      q.entity_attr = entity_;
      const std::uint32_t ks[] = {1, 3, 50};
      q.k = ks[rng->Uniform(3)];
      const int targets = static_cast<int>(rng->Uniform(4)) + 1;
      for (int t = 0; t < targets; ++t) {
        TopKTarget target;
        target.attr = numeric_[rng->Uniform(numeric_.size())];
        if (shape == 7 && rng->OneIn(2)) {
          target.den_attr = numeric_[rng->Uniform(numeric_.size())];
        }
        target.ascending = rng->OneIn(2);
        q.topk.push_back(target);
      }
      return q;
    }
    const int items = static_cast<int>(rng->Uniform(3)) + 1;
    for (int i = 0; i < items; ++i) q.select.push_back(RandomSelect(rng));
    return q;
  }

  QueryResult RunEngine(const Query& q, std::uint32_t parts) {
    StatusOr<std::shared_ptr<const QueryPlan>> plan =
        QueryPlan::Compile(q, &schema_, &dims_);
    AIM_CHECK_MSG(plan.ok(), "%s", plan.status().ToString().c_str());
    PartialResult merged;
    for (std::uint32_t p = 0; p < parts; ++p) {
      const std::unique_ptr<ColumnMap> map = MakeMap(p, parts);
      CompiledQuery cq(*plan);
      ScanScratch scratch;
      for (std::uint32_t b = 0; b < map->num_buckets(); ++b) {
        cq.ProcessBucket(*map, map->bucket(b), &scratch);
      }
      if (p == 0) {
        merged = cq.TakePartial();
      } else {
        merged.MergeFrom(cq.TakePartial(), q);
      }
    }
    return FinalizeResult(q, &dims_, std::move(merged));
  }

  QueryResult RunOracle(const Query& q) {
    RowQueryRun run;
    AIM_CHECK(RowQueryRun::Compile(q, &schema_, &dims_, &run).ok());
    for (const std::vector<std::uint8_t>& row : rows_) {
      if (run.Matches(row.data())) run.Accumulate(row.data());
    }
    return run.Finish();
  }

  Schema schema_;
  DimensionCatalog dims_;
  std::uint16_t entity_ = 0, ties_ = 0, frac_ = 0, fk1_ = 0, fk2_ = 0;
  std::vector<std::uint16_t> numeric_;
  std::uint16_t dim1_ = 0, dim1_label_ = 0, dim1_num_ = 0;
  std::uint16_t dim2_ = 0, dim2_label_ = 0;
  std::vector<std::vector<std::uint8_t>> rows_;
};

TEST_F(CompiledQueryParityTest, RandomQueriesMatchRowOracle) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    MakeRows(seed);
    Random rng(seed * 1000 + 7);
    for (std::uint32_t i = 0; i < 150; ++i) {
      const Query q = RandomQuery(&rng, i);
      const std::string where = "seed " + std::to_string(seed) + " query " +
                                std::to_string(i) + ": " +
                                q.ToString(&schema_);
      ExpectSameResult(RunEngine(q, 1), RunOracle(q), where);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST_F(CompiledQueryParityTest, EdgeShapesMatchRowOracle) {
  MakeRows(11);
  std::vector<Query> queries;
  // Negative int32 group keys.
  Query neg;
  neg.kind = Query::Kind::kGroupBy;
  neg.group_by.kind = GroupBy::Kind::kMatrixAttr;
  neg.group_by.attr = numeric_[0];  // col_int32, values -40..40
  neg.select = {SelectItem::Count(), SelectItem::Agg(AggOp::kSum, numeric_[5])};
  queries.push_back(neg);
  // Far more distinct groups than the flat table starts with.
  Query many = neg;
  many.group_by.attr = numeric_[3];  // col_uint64, ~1,600 distinct values
  queries.push_back(many);
  // Order-sensitive sums, per matrix group and per dimension group.
  Query order = neg;
  order.select = {SelectItem::Agg(AggOp::kSum, frac_),
                  SelectItem::Agg(AggOp::kAvg, frac_),
                  SelectItem::SumRatio(frac_, numeric_[4])};
  queries.push_back(order);
  Query dim_order = order;
  dim_order.group_by = {GroupBy::Kind::kDimColumn, 0, fk1_, dim1_, dim1_label_};
  queries.push_back(dim_order);
  // An empty match set: a label no dimension row carries.
  Query empty;
  empty.kind = Query::Kind::kGroupBy;
  empty.group_by = {GroupBy::Kind::kDimColumn, 0, fk1_, dim1_, dim1_label_};
  empty.select = {SelectItem::Count()};
  empty.dim_where.push_back(
      DimFilter{fk1_, dim1_, dim1_label_, CmpOp::kEq, 0, "no_such_label"});
  queries.push_back(empty);
  Query empty_agg = empty;
  empty_agg.kind = Query::Kind::kAggregate;
  empty_agg.group_by = GroupBy{};
  queries.push_back(empty_agg);
  // Two dimension predicates through one FK, plus one through another.
  Query two = empty;
  two.dim_where = {
      DimFilter{fk1_, dim1_, dim1_num_, CmpOp::kGe, 5, ""},
      DimFilter{fk1_, dim1_, dim1_label_, CmpOp::kNe, 0, "label_2"},
      DimFilter{fk2_, dim2_, dim2_label_, CmpOp::kEq, 0, "kind_1"}};
  queries.push_back(two);
  // Top-k: k in {1, 3, 50}, both directions, plain and ratio targets whose
  // denominator (col_uint32) is often zero, over NaN/inf values and ties.
  for (std::uint32_t k : {1u, 3u, 50u}) {
    for (bool asc : {false, true}) {
      Query top;
      top.kind = Query::Kind::kTopK;
      top.entity_attr = entity_;
      top.k = k;
      top.topk = {TopKTarget{ties_, kInvalidAttr, asc},
                  TopKTarget{numeric_[5], kInvalidAttr, asc},
                  TopKTarget{numeric_[4], numeric_[1], asc}};
      queries.push_back(top);
    }
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QueryResult want = RunOracle(queries[i]);
    ExpectSameResult(RunEngine(queries[i], 1), want,
                     "edge query " + std::to_string(i));
  }
  EXPECT_EQ(RunOracle(queries[4]).rows.size(), 0u);
  EXPECT_GT(RunOracle(queries[1]).rows.size(), GroupTable::kInitialCapacity);
}

// Top-k ranks by (value, entity id) and never ranks NaN, so any split of
// the records into partitions returns the same entities as one scan and as
// the oracle — including ties that straddle partitions and +-inf values.
TEST_F(CompiledQueryParityTest, TopKIsTheSameForAnyPartitioning) {
  MakeRows(23);
  for (std::uint32_t k : {1u, 3u, 50u}) {
    for (bool asc : {false, true}) {
      Query top;
      top.kind = Query::Kind::kTopK;
      top.entity_attr = entity_;
      top.k = k;
      top.topk = {TopKTarget{ties_, kInvalidAttr, asc},
                  TopKTarget{numeric_[5], kInvalidAttr, asc},
                  TopKTarget{numeric_[0], numeric_[2], asc}};
      const QueryResult want = RunOracle(top);
      for (const auto& list : want.topk) ASSERT_EQ(list.size(), k);
      // The tie column has 4 values over 2,000 records: the k best are all
      // equal, so the entity ids alone decide, smallest first.
      for (std::size_t r = 1; r < want.topk[0].size(); ++r) {
        EXPECT_LT(want.topk[0][r - 1].entity, want.topk[0][r].entity);
      }
      // Infinities rank like any value; NaN never does.
      for (const TopKEntry& e : want.topk[1]) EXPECT_FALSE(std::isnan(e.value));
      EXPECT_TRUE(std::isinf(want.topk[1][0].value));
      for (std::uint32_t parts : {1u, 2u, 3u, 7u}) {
        ExpectSameResult(RunEngine(top, parts), want,
                         "k " + std::to_string(k) + " asc " +
                             std::to_string(asc) + " parts " +
                             std::to_string(parts));
      }
    }
  }
}

}  // namespace
}  // namespace aim
