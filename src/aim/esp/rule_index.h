#ifndef AIM_ESP_RULE_INDEX_H_
#define AIM_ESP_RULE_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "aim/esp/rule.h"

namespace aim {

/// Predicate-counting rule index after Fabre et al. (paper §4.4, [11]).
///
/// Build time: atomic predicates are deduplicated and grouped per dimension
/// (one dimension per distinct record attribute / event field). Within a
/// dimension, inequality predicates are kept in sorted threshold arrays so
/// that all predicates satisfied by a value v form a contiguous range found
/// by one binary search; equality predicates live in a hash map.
///
/// Match time: for each dimension referenced by any rule, the value is
/// extracted once and the satisfied predicate ranges are walked, bumping a
/// per-conjunct counter. A conjunct whose counter reaches its predicate
/// count fires; the first firing conjunct of a rule matches the rule.
/// != predicates are not indexed; they are verified residually when a
/// conjunct's indexed predicates are all satisfied.
///
/// The paper's finding — reproduced by bench_rule_index — is that this only
/// pays off beyond roughly a thousand rules; below that, Algorithm 2 with
/// early abort wins.
class RuleIndex {
 public:
  /// `rules` must outlive the index. Conjuncts with zero indexable
  /// predicates (only != predicates) are always candidate conjuncts.
  explicit RuleIndex(const std::vector<Rule>* rules);

  /// Appends ids of all matched rules to `matched` (cleared first).
  /// Thread-compatible via an external per-thread Scratch.
  struct Scratch {
    std::vector<std::uint32_t> conjunct_count;
    std::vector<std::uint32_t> conjunct_epoch;
    std::vector<std::uint32_t> rule_epoch;
    std::uint32_t epoch = 0;
  };

  void Evaluate(const Event& event, const ConstRecordView& record,
                Scratch* scratch, std::vector<std::uint32_t>* matched) const;

  /// As Evaluate, but reports rule positions (indices into `rules`), the
  /// form FiringPolicyTracker::Filter takes.
  void EvaluatePositions(const Event& event, const ConstRecordView& record,
                         Scratch* scratch,
                         std::vector<std::uint32_t>* matched) const;

  std::size_t num_dimensions() const { return dimensions_.size(); }
  std::size_t num_conjuncts() const { return conjuncts_.size(); }

 private:
  /// Occurrence: a (deduplicated) atomic predicate appearing in a conjunct.
  /// Stored as flat lists; a threshold entry references its occurrence span.
  struct ThresholdEntry {
    double constant;
    std::uint32_t occ_begin;  // [occ_begin, occ_end) into occurrences_
    std::uint32_t occ_end;
  };

  struct Dimension {
    Predicate::Lhs lhs;
    std::uint16_t attr = 0;
    EventFieldId field = EventFieldId::kDuration;

    // Sorted ascending by constant. Satisfied sets:
    //   lt: v < c  -> suffix (c > v)      le: v <= c -> suffix (c >= v)
    //   gt: v > c  -> prefix (c < v)      ge: v >= c -> prefix (c <= v)
    std::vector<ThresholdEntry> lt, le, gt, ge;
    // Equality predicates, probed by exact value.
    std::unordered_map<double, std::pair<std::uint32_t, std::uint32_t>> eq;
  };

  struct ConjunctInfo {
    std::uint32_t rule_pos;       // index into rules_
    std::uint32_t indexed_preds;  // counter target
    std::vector<Predicate> residual;  // != predicates, verified directly
  };

  double DimensionValue(const Dimension& d, const Event& e,
                        const ConstRecordView& r) const;

  void BumpRange(const std::vector<ThresholdEntry>& entries,
                 std::size_t begin, std::size_t end, const Event& e,
                 const ConstRecordView& r, Scratch* scratch,
                 std::vector<std::uint32_t>* matched) const;

  void BumpOccurrences(std::uint32_t occ_begin, std::uint32_t occ_end,
                       const Event& e, const ConstRecordView& r,
                       Scratch* scratch,
                       std::vector<std::uint32_t>* matched) const;

  const std::vector<Rule>* rules_;
  std::vector<Dimension> dimensions_;
  std::vector<ConjunctInfo> conjuncts_;
  std::vector<std::uint32_t> occurrences_;  // conjunct ids
  // Conjuncts with no indexed predicates: always candidates.
  std::vector<std::uint32_t> unindexed_conjuncts_;
};

}  // namespace aim

#endif  // AIM_ESP_RULE_INDEX_H_
