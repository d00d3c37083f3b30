#include "aim/esp/rule_index.h"

#include <algorithm>
#include <map>

#include "aim/common/logging.h"

namespace aim {

namespace {

/// Key identifying a dimension (what a predicate's lhs refers to).
struct DimKey {
  Predicate::Lhs lhs;
  std::uint16_t attr;
  EventFieldId field;

  bool operator<(const DimKey& o) const {
    if (lhs != o.lhs) return lhs < o.lhs;
    if (lhs == Predicate::Lhs::kRecordAttr) return attr < o.attr;
    return field < o.field;
  }
};

DimKey KeyOf(const Predicate& p) {
  return DimKey{p.lhs, p.attr, p.field};
}

}  // namespace

RuleIndex::RuleIndex(const std::vector<Rule>* rules) : rules_(rules) {
  // Pass 1: collect conjuncts and bucket indexable predicates per
  // (dimension, op, constant). Deduplication happens naturally through the
  // map: identical atomic predicates from different conjuncts share one
  // threshold entry with a multi-element occurrence list.
  struct PredOccs {
    std::vector<std::uint32_t> conjuncts;
  };
  std::map<DimKey, std::map<std::pair<int, double>, PredOccs>> buckets;

  for (std::uint32_t rp = 0; rp < rules_->size(); ++rp) {
    const Rule& rule = (*rules_)[rp];
    for (const Conjunct& conj : rule.conjuncts) {
      const std::uint32_t cid = static_cast<std::uint32_t>(conjuncts_.size());
      ConjunctInfo info;
      info.rule_pos = rp;
      info.indexed_preds = 0;
      for (const Predicate& p : conj.predicates) {
        if (p.op == CmpOp::kNe) {
          info.residual.push_back(p);
          continue;
        }
        buckets[KeyOf(p)][{static_cast<int>(p.op), p.constant}]
            .conjuncts.push_back(cid);
        info.indexed_preds++;
      }
      if (info.indexed_preds == 0) unindexed_conjuncts_.push_back(cid);
      conjuncts_.push_back(std::move(info));
    }
  }

  // Pass 2: freeze dimensions with sorted threshold arrays over the shared
  // occurrence pool.
  for (auto& [key, preds] : buckets) {
    Dimension dim;
    dim.lhs = key.lhs;
    dim.attr = key.attr;
    dim.field = key.field;
    for (auto& [op_const, occs] : preds) {
      ThresholdEntry entry;
      entry.constant = op_const.second;
      entry.occ_begin = static_cast<std::uint32_t>(occurrences_.size());
      occurrences_.insert(occurrences_.end(), occs.conjuncts.begin(),
                          occs.conjuncts.end());
      entry.occ_end = static_cast<std::uint32_t>(occurrences_.size());
      switch (static_cast<CmpOp>(op_const.first)) {
        case CmpOp::kLt:
          dim.lt.push_back(entry);
          break;
        case CmpOp::kLe:
          dim.le.push_back(entry);
          break;
        case CmpOp::kGt:
          dim.gt.push_back(entry);
          break;
        case CmpOp::kGe:
          dim.ge.push_back(entry);
          break;
        case CmpOp::kEq:
          dim.eq[entry.constant] = {entry.occ_begin, entry.occ_end};
          break;
        case CmpOp::kNe:
          AIM_CHECK(false);  // filtered above
      }
    }
    // std::map iteration already yields ascending constants; keep the
    // explicit sort as defense against future refactors.
    auto by_const = [](const ThresholdEntry& a, const ThresholdEntry& b) {
      return a.constant < b.constant;
    };
    std::sort(dim.lt.begin(), dim.lt.end(), by_const);
    std::sort(dim.le.begin(), dim.le.end(), by_const);
    std::sort(dim.gt.begin(), dim.gt.end(), by_const);
    std::sort(dim.ge.begin(), dim.ge.end(), by_const);
    dimensions_.push_back(std::move(dim));
  }
}

double RuleIndex::DimensionValue(const Dimension& d, const Event& e,
                                 const ConstRecordView& r) const {
  Predicate p;
  p.lhs = d.lhs;
  p.attr = d.attr;
  p.field = d.field;
  return p.LhsValue(e, r);
}

void RuleIndex::BumpOccurrences(std::uint32_t occ_begin,
                                std::uint32_t occ_end, const Event& e,
                                const ConstRecordView& r, Scratch* scratch,
                                std::vector<std::uint32_t>* matched) const {
  for (std::uint32_t i = occ_begin; i < occ_end; ++i) {
    const std::uint32_t cid = occurrences_[i];
    if (scratch->conjunct_epoch[cid] != scratch->epoch) {
      scratch->conjunct_epoch[cid] = scratch->epoch;
      scratch->conjunct_count[cid] = 0;
    }
    if (++scratch->conjunct_count[cid] != conjuncts_[cid].indexed_preds) {
      continue;
    }
    // All indexed predicates satisfied: verify residual != predicates, then
    // report the rule (once per event).
    const ConjunctInfo& info = conjuncts_[cid];
    if (scratch->rule_epoch[info.rule_pos] == scratch->epoch) continue;
    bool ok = true;
    for (const Predicate& p : info.residual) {
      if (!p.Evaluate(e, r)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      scratch->rule_epoch[info.rule_pos] = scratch->epoch;
      matched->push_back(info.rule_pos);
    }
  }
}

void RuleIndex::Evaluate(const Event& event, const ConstRecordView& record,
                         Scratch* scratch,
                         std::vector<std::uint32_t>* matched) const {
  EvaluatePositions(event, record, scratch, matched);
  for (std::uint32_t& m : *matched) m = (*rules_)[m].id;
}

void RuleIndex::EvaluatePositions(const Event& event,
                                  const ConstRecordView& record,
                                  Scratch* scratch,
                                  std::vector<std::uint32_t>* matched) const {
  matched->clear();
  scratch->conjunct_count.resize(conjuncts_.size(), 0);
  scratch->conjunct_epoch.resize(conjuncts_.size(), 0);
  scratch->rule_epoch.resize(rules_->size(), 0);
  scratch->epoch++;
  if (scratch->epoch == 0) {  // epoch wrap: hard reset
    std::fill(scratch->conjunct_epoch.begin(), scratch->conjunct_epoch.end(),
              0);
    std::fill(scratch->rule_epoch.begin(), scratch->rule_epoch.end(), 0);
    scratch->epoch = 1;
  }

  for (const Dimension& dim : dimensions_) {
    const double v = DimensionValue(dim, event, record);

    // v < c: suffix of lt with c > v.
    {
      auto it = std::upper_bound(
          dim.lt.begin(), dim.lt.end(), v,
          [](double x, const ThresholdEntry& t) { return x < t.constant; });
      for (; it != dim.lt.end(); ++it) {
        BumpOccurrences(it->occ_begin, it->occ_end, event, record, scratch,
                        matched);
      }
    }
    // v <= c: suffix of le with c >= v.
    {
      auto it = std::lower_bound(
          dim.le.begin(), dim.le.end(), v,
          [](const ThresholdEntry& t, double x) { return t.constant < x; });
      for (; it != dim.le.end(); ++it) {
        BumpOccurrences(it->occ_begin, it->occ_end, event, record, scratch,
                        matched);
      }
    }
    // v > c: prefix of gt with c < v.
    {
      auto end = std::lower_bound(
          dim.gt.begin(), dim.gt.end(), v,
          [](const ThresholdEntry& t, double x) { return t.constant < x; });
      for (auto it = dim.gt.begin(); it != end; ++it) {
        BumpOccurrences(it->occ_begin, it->occ_end, event, record, scratch,
                        matched);
      }
    }
    // v >= c: prefix of ge with c <= v.
    {
      auto end = std::upper_bound(
          dim.ge.begin(), dim.ge.end(), v,
          [](double x, const ThresholdEntry& t) { return x < t.constant; });
      for (auto it = dim.ge.begin(); it != end; ++it) {
        BumpOccurrences(it->occ_begin, it->occ_end, event, record, scratch,
                        matched);
      }
    }
    // v == c.
    if (!dim.eq.empty()) {
      auto it = dim.eq.find(v);
      if (it != dim.eq.end()) {
        BumpOccurrences(it->second.first, it->second.second, event, record,
                        scratch, matched);
      }
    }
  }

  // Conjuncts made only of != predicates never get counter bumps; check
  // them directly.
  for (std::uint32_t cid : unindexed_conjuncts_) {
    const ConjunctInfo& info = conjuncts_[cid];
    if (scratch->rule_epoch[info.rule_pos] == scratch->epoch) continue;
    bool ok = true;
    for (const Predicate& p : info.residual) {
      if (!p.Evaluate(event, record)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      scratch->rule_epoch[info.rule_pos] = scratch->epoch;
      matched->push_back(info.rule_pos);
    }
  }
}

}  // namespace aim
