#ifndef AIM_ESP_RULE_EVAL_H_
#define AIM_ESP_RULE_EVAL_H_

#include <cstdint>
#include <vector>

#include "aim/esp/rule.h"

namespace aim {

/// Straight-forward DNF evaluation over the rule set (paper Algorithm 2),
/// with early abort (predicate false => next conjunct) and early success
/// (conjunct true => rule matched, next rule). The paper found this beats a
/// rule index for small rule sets (< ~1000 rules, §4.4). The engine runs
/// the compiled RuleProgram instead; this is the reference its tests
/// compare against and the baseline of bench_rule_index.
class RuleEvaluator {
 public:
  /// Does not take ownership; `rules` must outlive the evaluator.
  explicit RuleEvaluator(const std::vector<Rule>* rules) : rules_(rules) {}

  /// Appends the ids of all matched rules to `matched` (cleared first).
  void Evaluate(const Event& event, const ConstRecordView& record,
                std::vector<std::uint32_t>* matched) const {
    matched->clear();
    for (const Rule& rule : *rules_) {
      for (const Conjunct& conjunct : rule.conjuncts) {
        bool matching = true;
        for (const Predicate& p : conjunct.predicates) {
          if (!p.Evaluate(event, record)) {
            matching = false;
            break;  // early abort: conjunct is false
          }
        }
        if (matching) {
          matched->push_back(rule.id);
          break;  // early success: rule matched
        }
      }
    }
  }

  const std::vector<Rule>& rules() const { return *rules_; }

 private:
  const std::vector<Rule>* rules_;
};

}  // namespace aim

#endif  // AIM_ESP_RULE_EVAL_H_
