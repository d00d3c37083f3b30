// Property tests: the compiled RuleProgram reports exactly the rules
// RuleEvaluator (Algorithm 2) reports, in the same order, on random rules,
// records and events — every value type and op, boundary constants, NaN
// and ±inf, degenerate rules, and re-orders at any point of a stream.

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "aim/common/random.h"
#include "aim/esp/rule_eval.h"
#include "aim/esp/rule_program.h"
#include "aim/schema/record.h"

namespace aim {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Values each column type takes: small sets, so that constants drawn from
/// them often equal the record value, plus the extremes where widening to
/// double rounds (2^53 + 1, 2^63 + 1, UINT64_MAX) and NaN/±inf.
const std::vector<Value>& ValuesOf(ValueType t) {
  static const auto* kValues = new std::vector<std::vector<Value>>{
      {Value::Int32(-2), Value::Int32(0), Value::Int32(1), Value::Int32(3),
       Value::Int32(std::numeric_limits<std::int32_t>::min()),
       Value::Int32(std::numeric_limits<std::int32_t>::max())},
      {Value::UInt32(0), Value::UInt32(1), Value::UInt32(3),
       Value::UInt32(std::numeric_limits<std::uint32_t>::max())},
      {Value::Int64(-3), Value::Int64(0), Value::Int64(1),
       Value::Int64((std::int64_t{1} << 53) + 1),
       Value::Int64(std::numeric_limits<std::int64_t>::min()),
       Value::Int64(std::numeric_limits<std::int64_t>::max())},
      {Value::UInt64(0), Value::UInt64(1),
       Value::UInt64((std::uint64_t{1} << 53) + 1),
       Value::UInt64((std::uint64_t{1} << 63) + 1),
       Value::UInt64(std::numeric_limits<std::uint64_t>::max())},
      {Value::Float(0.0f), Value::Float(-0.0f), Value::Float(1.5f),
       Value::Float(3.0f), Value::Float(std::numeric_limits<float>::max()),
       Value::Float(static_cast<float>(kInf)),
       Value::Float(static_cast<float>(-kInf)),
       Value::Float(static_cast<float>(kNaN))},
      {Value::Double(0.0), Value::Double(1.5), Value::Double(3.0),
       Value::Double(1e300), Value::Double(9007199254740993.0),
       Value::Double(kInf), Value::Double(-kInf), Value::Double(kNaN)},
  };
  return (*kValues)[static_cast<std::size_t>(t)];
}

/// Two raw attributes of every value type.
std::unique_ptr<Schema> MakeAllTypesSchema() {
  auto schema = std::make_unique<Schema>();
  for (int round = 0; round < 2; ++round) {
    for (int t = 0; t < kNumValueTypes; ++t) {
      const ValueType type = static_cast<ValueType>(t);
      schema->AddRawAttribute(
          std::string(ValueTypeName(type)) + "_" + std::to_string(round),
          type);
    }
  }
  AIM_CHECK(schema->Finalize().ok());
  return schema;
}

double RandomConstant(Random* rng) {
  const auto& values =
      ValuesOf(static_cast<ValueType>(rng->Uniform(kNumValueTypes)));
  return values[rng->Uniform(values.size())].AsDouble();
}

Predicate RandomPredicate(const Schema& schema, Random* rng) {
  const CmpOp op = static_cast<CmpOp>(rng->Uniform(6));
  if (rng->OneIn(3)) {
    return Predicate::OnEvent(
        static_cast<EventFieldId>(rng->Uniform(kNumEventFields)), op,
        rng->OneIn(2) ? static_cast<double>(rng->Uniform(3))
                      : RandomConstant(rng));
  }
  const auto attr =
      static_cast<std::uint16_t>(rng->Uniform(schema.num_attributes()));
  // Mostly a value the attribute can hold, so Eq/Le/Ge boundaries hit.
  const auto& values = ValuesOf(schema.attribute(attr).type);
  const double constant = rng->Uniform(4) != 0
                              ? values[rng->Uniform(values.size())].AsDouble()
                              : RandomConstant(rng);
  return Predicate::OnAttr(attr, op, constant);
}

/// Rules with 0-4 conjuncts of 0-5 predicates, duplicated predicates and
/// conjuncts, and unique ids unrelated to position.
std::vector<Rule> RandomRules(const Schema& schema, Random* rng,
                              std::size_t n) {
  std::vector<Rule> rules;
  for (std::size_t r = 0; r < n; ++r) {
    Rule rule;
    rule.id = static_cast<std::uint32_t>((n - r) * 7919 + 13);
    const std::uint64_t conjuncts = rng->Uniform(5);
    for (std::uint64_t c = 0; c < conjuncts; ++c) {
      Conjunct conj;
      const std::uint64_t preds = rng->Uniform(6);
      for (std::uint64_t p = 0; p < preds; ++p) {
        conj.predicates.push_back(RandomPredicate(schema, rng));
        if (rng->OneIn(8)) conj.predicates.push_back(conj.predicates.back());
      }
      rule.conjuncts.push_back(conj);
      if (rng->OneIn(10)) rule.conjuncts.push_back(conj);
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

void RandomRecord(const Schema& schema, Random* rng, RecordView rec) {
  for (std::uint16_t a = 0; a < schema.num_attributes(); ++a) {
    const auto& values = ValuesOf(schema.attribute(a).type);
    rec.Set(a, values[rng->Uniform(values.size())]);
  }
}

Event RandomEvent(Random* rng) {
  static const std::uint32_t kDurations[] = {
      0, 1, 2, 300, std::numeric_limits<std::uint32_t>::max()};
  static const float kFloats[] = {0.0f, 1.0f, 1.5f, 3.0f,
                                  static_cast<float>(kInf),
                                  static_cast<float>(kNaN)};
  Event e;
  e.caller = 1;
  e.duration = kDurations[rng->Uniform(5)];
  e.cost = kFloats[rng->Uniform(6)];
  e.data_mb = kFloats[rng->Uniform(6)];
  e.flags = static_cast<std::uint32_t>(rng->Uniform(8));
  return e;
}

std::vector<std::uint32_t> Ids(const RuleProgram& program,
                               const std::vector<std::uint32_t>& positions) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t pos : positions) ids.push_back(program.rule_ids()[pos]);
  return ids;
}

class RuleProgramParityTest : public ::testing::TestWithParam<int> {};

TEST_P(RuleProgramParityTest, MatchesAlgorithm2InOrder) {
  auto schema = MakeAllTypesSchema();
  Random rng(7000 + GetParam());
  const std::vector<Rule> rules = RandomRules(*schema, &rng, 60);
  RuleEvaluator oracle(&rules);
  RuleProgram program(*schema, rules);
  ASSERT_EQ(program.num_rules(), rules.size());

  RecordBuffer buf(schema.get());
  std::vector<std::uint32_t> expected, positions;
  std::size_t total_matches = 0;
  // Crosses the built-in re-order interval twice, plus forced re-orders at
  // random points; the records and events keep changing across them.
  const std::uint64_t events = 2 * RuleProgram::kReorderInterval + 300;
  for (std::uint64_t i = 0; i < events; ++i) {
    RandomRecord(*schema, &rng, buf.view());
    const Event e = RandomEvent(&rng);
    oracle.Evaluate(e, buf.const_view(), &expected);
    program.Evaluate(e, buf.const_view(), &positions);
    ASSERT_EQ(Ids(program, positions), expected) << "event " << i;
    total_matches += expected.size();
    if (rng.OneIn(97)) program.Reorder();
  }
  EXPECT_GT(total_matches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleProgramParityTest, ::testing::Range(0, 6));

// A u64 above 2^53 widens to the nearest double, as Value::AsDouble does:
// 2^53 + 1 compares equal to 2^53 and to nothing else.
TEST(RuleProgramTest, WidensLikeValueAsDouble) {
  auto schema = MakeAllTypesSchema();
  const std::uint16_t u64 = schema->FindAttribute("uint64_0");
  const std::uint16_t i64 = schema->FindAttribute("int64_0");
  const double two53 = 9007199254740992.0;
  std::vector<Rule> rules;
  rules.push_back(RuleBuilder(5, "u64_eq").Where(u64, CmpOp::kEq, two53).Build());
  rules.push_back(RuleBuilder(6, "u64_gt").Where(u64, CmpOp::kGt, two53).Build());
  rules.push_back(RuleBuilder(7, "i64_le").Where(i64, CmpOp::kLe, -two53).Build());
  RuleProgram program(*schema, rules);
  RuleEvaluator oracle(&rules);

  RecordBuffer buf(schema.get());
  buf.view().Set(u64, Value::UInt64((std::uint64_t{1} << 53) + 1));
  buf.view().Set(i64, Value::Int64(-(std::int64_t{1} << 53) - 1));
  std::vector<std::uint32_t> expected, positions;
  oracle.Evaluate(Event{}, buf.const_view(), &expected);
  program.Evaluate(Event{}, buf.const_view(), &positions);
  EXPECT_EQ(expected, (std::vector<std::uint32_t>{5, 7}));
  EXPECT_EQ(Ids(program, positions), expected);
}

// NaN is false under every op but kNe, which is true.
TEST(RuleProgramTest, NaNIsTrueOnlyForNotEqual) {
  auto schema = MakeAllTypesSchema();
  const std::uint16_t f = schema->FindAttribute("float_0");
  std::vector<Rule> rules;
  for (int op = 0; op < 6; ++op) {
    rules.push_back(RuleBuilder(static_cast<std::uint32_t>(op), "nan")
                        .Where(f, static_cast<CmpOp>(op), 1.0)
                        .Build());
  }
  RuleProgram program(*schema, rules);
  RecordBuffer buf(schema.get());
  buf.view().Set(f, Value::Float(static_cast<float>(kNaN)));
  std::vector<std::uint32_t> positions;
  program.Evaluate(Event{}, buf.const_view(), &positions);
  EXPECT_EQ(positions, (std::vector<std::uint32_t>{
                           static_cast<std::uint32_t>(CmpOp::kNe)}));
}

TEST(RuleProgramTest, DegenerateRules) {
  auto schema = MakeAllTypesSchema();
  Rule never;  // no conjuncts: never matches
  never.id = 40;
  Rule always;  // one empty conjunct: always matches
  always.id = 30;
  always.conjuncts.emplace_back();
  std::vector<Rule> rules = {never, always, never};
  RuleProgram program(*schema, rules);
  EXPECT_EQ(program.num_conjuncts(), 1u);
  EXPECT_EQ(program.num_predicates(), 0u);

  RecordBuffer buf(schema.get());
  std::vector<std::uint32_t> positions = {9, 9};
  EXPECT_EQ(program.Evaluate(Event{}, buf.const_view(), &positions), 0u);
  EXPECT_EQ(positions, (std::vector<std::uint32_t>{1}));

  std::vector<Rule> none;
  RuleProgram empty(*schema, none);
  EXPECT_EQ(empty.Evaluate(Event{}, buf.const_view(), &positions), 0u);
  EXPECT_TRUE(positions.empty());
}

// The conjunct (always true AND never true) costs two predicates per event
// in rule order; once census samples have been taken and the program
// re-orders, the never-true guard fails alone and it costs one.
TEST(RuleProgramTest, ReorderPutsTheSelectivePredicateFirst) {
  auto schema = MakeAllTypesSchema();
  const std::uint16_t a = schema->FindAttribute("int32_0");
  std::vector<Rule> rules;
  rules.push_back(RuleBuilder(1, "r")
                      .Where(a, CmpOp::kGe, 0)
                      .And(a, CmpOp::kGt, 100)
                      .Build());
  RuleProgram program(*schema, rules);
  RecordBuffer buf(schema.get());
  std::vector<std::uint32_t> positions;
  EXPECT_EQ(program.Evaluate(Event{}, buf.const_view(), &positions), 2u);
  for (std::uint64_t i = 1; i < RuleProgram::kReorderInterval; ++i) {
    program.Evaluate(Event{}, buf.const_view(), &positions);
  }
  EXPECT_EQ(program.Evaluate(Event{}, buf.const_view(), &positions), 1u);
  EXPECT_TRUE(positions.empty());
}

}  // namespace
}  // namespace aim
