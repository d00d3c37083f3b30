#ifndef AIM_ESP_RULE_PROGRAM_H_
#define AIM_ESP_RULE_PROGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "aim/esp/rule.h"
#include "aim/schema/record.h"
#include "aim/schema/schema.h"

namespace aim {

/// The Business Rules compiled once for one ESP thread: Algorithm 2 (paper
/// §2.2) with the same matched rules in the same order, run the way
/// technique 6 runs the update functions.
///
/// - Flat, typed layout. Every predicate is `(source, byte offset, type,
///   op, constant)` in one contiguous array, where the source is the
///   updated record or the event's six fields widened to double once per
///   event. Conjuncts and rules are index spans over it.
/// - Measured order. One event in 2^kSampleShift is a census event that
///   evaluates every predicate and counts its passes. Every
///   kReorderInterval events each conjunct's predicates are re-sorted by
///   pass count, most selective first. Predicates are pure, so the order
///   changes only how soon a conjunct aborts, never its truth.
/// - Guard pass. Per event the first predicate of every conjunct (its
///   guard) is evaluated without branches into a bitmap, one tight loop
///   per (source, type, op) class. Only conjuncts whose guard passed are
///   walked further, in rule order, with early abort, and the remaining
///   conjuncts of a rule that already matched are skipped (early success).
///
/// Comparisons happen in the double domain exactly as Predicate::Evaluate
/// does (Value::AsDouble), so NaN and ±inf behave identically.
/// RuleEvaluator (rule_eval.h) stays as the reference it is tested against.
///
/// Not thread-safe: Evaluate updates the pass counts and may re-order.
class RuleProgram {
 public:
  /// One event in 2^kSampleShift is a census event.
  static constexpr int kSampleShift = 5;
  /// Evaluate re-orders after every kReorderInterval events.
  static constexpr std::uint64_t kReorderInterval = 1024;

  /// Compiles `rules` against `schema`; keeps no reference to either.
  RuleProgram(const Schema& schema, const std::vector<Rule>& rules);

  /// Appends the positions (indices into the compiled rule vector) of all
  /// rules matching `event` and the updated `record` to `matched` (cleared
  /// first), in rule order. Returns the number of predicates evaluated,
  /// census predicates not included.
  std::uint64_t Evaluate(const Event& event, const ConstRecordView& record,
                         std::vector<std::uint32_t>* matched);

  /// Re-sorts every conjunct's predicates by pass count, rebuilds the
  /// guard pass and halves the counts, so later samples weigh more.
  /// Evaluate calls it on its own; public so tests can re-order anywhere.
  void Reorder();

  /// Rule id and firing policy by position.
  std::span<const std::uint32_t> rule_ids() const { return rule_ids_; }
  std::span<const FiringPolicy> policies() const { return policies_; }

  std::size_t num_rules() const { return rule_ids_.size(); }
  std::size_t num_conjuncts() const { return conj_rule_.size(); }
  std::size_t num_predicates() const { return preds_.size(); }

  // Layout types, public for the evaluation kernels in rule_program.cc.

  /// One compiled predicate: the value of type `type` at `offset` in
  /// `source`, widened to double, compared with `constant`.
  struct Pred {
    std::uint32_t offset = 0;
    ValueType type = ValueType::kDouble;
    CmpOp op = CmpOp::kEq;
    std::uint8_t source = 0;  // kRecord or kEvent
    double constant = 0.0;
  };
  static constexpr std::uint8_t kRecord = 0;
  static constexpr std::uint8_t kEvent = 1;

  /// One predicate of a guard or census class. `target` is the conjunct
  /// (guard) or original predicate (census) the outcome goes to.
  struct ClassEntry {
    std::uint32_t offset = 0;
    std::uint32_t target = 0;
    double constant = 0.0;
  };

 private:
  /// A run of entries sharing (source, type, op): one branch-free loop.
  struct ClassSpan {
    std::uint8_t source = kRecord;
    ValueType type = ValueType::kDouble;
    CmpOp op = CmpOp::kEq;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Groups `preds[i]` (outcome to `targets[i]`) by class.
  static void BuildClasses(const std::vector<Pred>& preds,
                           const std::vector<std::uint32_t>& targets,
                           std::vector<ClassEntry>* entries,
                           std::vector<ClassSpan>* spans);
  void BuildGuards();
  void Census(const std::uint8_t* const* bases);

  std::vector<std::uint32_t> rule_ids_;
  std::vector<FiringPolicy> policies_;

  std::vector<Pred> preds_;                // current order
  std::vector<std::uint32_t> conj_begin_;  // conjunct c: [begin[c], begin[c+1])
  std::vector<std::uint32_t> conj_rule_;   // conjunct -> rule position

  // Guard pass: the first predicate of every non-empty conjunct.
  std::vector<ClassEntry> guard_entries_;
  std::vector<ClassSpan> guard_spans_;
  std::vector<std::uint64_t> always_bits_;  // empty conjuncts: always true
  std::vector<std::uint64_t> guard_bits_;

  // Census: every predicate in compiled order, counted by original index.
  std::vector<Pred> orig_preds_;
  std::vector<std::uint32_t> slot_orig_;  // slot in preds_ -> original index
  std::vector<ClassEntry> census_entries_;
  std::vector<ClassSpan> census_spans_;
  std::vector<std::uint32_t> pass_counts_;

  double event_slots_[kNumEventFields] = {};
  std::uint64_t events_ = 0;
};

}  // namespace aim

#endif  // AIM_ESP_RULE_PROGRAM_H_
