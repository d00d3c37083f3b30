// bench_rule_index — paper §4.4 micro-benchmark: straight-forward DNF
// evaluation (Algorithm 2), the compiled rule program the ESP engine runs,
// and the Fabre-style predicate-counting rule index, varying the rule set
// size.
//
// Paper finding to reproduce: for the 300-rule benchmark set the index does
// NOT pay off against Algorithm 2; the crossover sits around a thousand
// rules ([13] p.26). The compiled program moves that crossover; see
// EXPERIMENTS.md §4.4.
//
// Inputs are live (event, post-update record) pairs: 1,000 profiled
// entities are warmed with 10 events each through the compiled update
// functions, then each of the next 2,000 events is applied and the updated
// record kept. Every evaluation first copies its record into one reused
// row buffer, as the engine's Get does, so the record is hot, not one of
// 2,000 cold 10.8 KB rows.

#include <cstdio>
#include <cstring>

#include "aim/common/clock.h"
#include "aim/esp/rule_eval.h"
#include "aim/esp/rule_index.h"
#include "aim/esp/rule_program.h"
#include "aim/esp/update_kernel.h"
#include "aim/workload/benchmark_schema.h"
#include "aim/workload/cdr_generator.h"
#include "aim/workload/dimension_data.h"
#include "aim/workload/rules_generator.h"

using namespace aim;

namespace {

constexpr std::uint64_t kEntities = 1000;
constexpr int kWarmEventsPerEntity = 10;
constexpr int kPairs = 2000;

struct EvalInput {
  std::vector<std::vector<std::uint8_t>> records;  // post-update
  std::vector<Event> events;
};

EvalInput MakeInput(const Schema& schema) {
  const BenchmarkDims dims = MakeBenchmarkDims();
  std::vector<std::vector<std::uint8_t>> rows(kEntities + 1);
  for (EntityId e = 1; e <= kEntities; ++e) {
    rows[e].assign(schema.record_size(), 0);
    PopulateEntityProfile(schema, dims, e, kEntities, rows[e].data());
  }
  const UpdateProgram update(schema, schema.FindAttribute("preferred_number"));
  CdrGenerator::Options gopts;
  gopts.num_entities = kEntities;
  CdrGenerator gen(gopts);
  Timestamp now = 1000;
  for (std::uint64_t i = 0; i < kEntities * kWarmEventsPerEntity; ++i) {
    const Event e = gen.Next(now++);
    update.Apply(e, rows[e.caller].data());
  }
  EvalInput in;
  for (int i = 0; i < kPairs; ++i) {
    const Event e = gen.Next(now++);
    update.Apply(e, rows[e.caller].data());
    in.events.push_back(e);
    in.records.push_back(rows[e.caller]);
  }
  return in;
}

/// Events per second of `eval(event, record)` over `reps` passes of the
/// input, each record first copied into `row`.
template <typename Eval>
double EventsPerSecond(const Schema& schema, const EvalInput& input, int reps,
                       std::vector<std::uint8_t>* row, Eval eval) {
  const ConstRecordView rec(&schema, row->data());
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < input.events.size(); ++i) {
      std::memcpy(row->data(), input.records[i].data(), row->size());
      eval(input.events[i], rec);
    }
  }
  return static_cast<double>(reps) * static_cast<double>(input.events.size()) /
         sw.ElapsedSeconds();
}

}  // namespace

int main() {
  std::printf("=== bench_rule_index (paper §4.4 micro-benchmark) ===\n");
  auto schema = MakeBenchmarkSchema();
  const EvalInput input = MakeInput(*schema);
  std::vector<std::uint8_t> row(schema->record_size(), 0);

  std::printf("%-8s %16s %16s %16s %12s %12s\n", "#rules", "straight (ev/s)",
              "compiled (ev/s)", "indexed (ev/s)", "idx/straight",
              "idx/compiled");
  for (std::size_t num_rules : {10u, 50u, 100u, 300u, 1000u, 2000u, 5000u}) {
    RulesGeneratorOptions ropts;
    ropts.num_rules = num_rules;
    const std::vector<Rule> rules = MakeBenchmarkRules(*schema, ropts);
    RuleEvaluator straight(&rules);
    RuleProgram compiled(*schema, rules);
    RuleIndex index(&rules);
    RuleIndex::Scratch scratch;
    std::vector<std::uint32_t> matched;

    const int reps = num_rules >= 2000 ? 2 : 5;
    const double straight_eps = EventsPerSecond(
        *schema, input, reps, &row,
        [&](const Event& e, const ConstRecordView& rec) {
          straight.Evaluate(e, rec, &matched);
        });
    const double compiled_eps = EventsPerSecond(
        *schema, input, reps, &row,
        [&](const Event& e, const ConstRecordView& rec) {
          compiled.Evaluate(e, rec, &matched);
        });
    const double indexed_eps = EventsPerSecond(
        *schema, input, reps, &row,
        [&](const Event& e, const ConstRecordView& rec) {
          index.Evaluate(e, rec, &scratch, &matched);
        });

    std::printf("%-8zu %16.0f %16.0f %16.0f %11.2fx %11.2fx\n", num_rules,
                straight_eps, compiled_eps, indexed_eps,
                indexed_eps / straight_eps, indexed_eps / compiled_eps);
  }
  std::printf("\nExpected shape: idx/straight < 1 for small rule sets (index "
              "overhead loses to Algorithm 2's early abort), crossing above "
              "1 somewhere near 10^3 rules (paper §4.4). idx/compiled is the "
              "crossover against what the engine runs by default.\n");
  return 0;
}
