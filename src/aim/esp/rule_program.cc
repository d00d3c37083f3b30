#include "aim/esp/rule_program.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

namespace aim {

namespace {

template <typename T>
inline double LoadDouble(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return static_cast<double>(v);
}

inline double LoadDouble(ValueType type, const std::uint8_t* p) {
  switch (type) {
    case ValueType::kInt32:
      return LoadDouble<std::int32_t>(p);
    case ValueType::kUInt32:
      return LoadDouble<std::uint32_t>(p);
    case ValueType::kInt64:
      return LoadDouble<std::int64_t>(p);
    case ValueType::kUInt64:
      return LoadDouble<std::uint64_t>(p);
    case ValueType::kFloat:
      return LoadDouble<float>(p);
    case ValueType::kDouble:
      return LoadDouble<double>(p);
  }
  return 0.0;
}

template <CmpOp kOp>
inline bool Compare(double v, double c) {
  if constexpr (kOp == CmpOp::kLt) return v < c;
  if constexpr (kOp == CmpOp::kLe) return v <= c;
  if constexpr (kOp == CmpOp::kGt) return v > c;
  if constexpr (kOp == CmpOp::kGe) return v >= c;
  if constexpr (kOp == CmpOp::kEq) return v == c;
  return v != c;
}

/// All six outcomes at once, then op's bit: no branch on op. Each outcome
/// is its own IEEE comparison, so NaN is false for every op but kNe.
inline bool Compare(CmpOp op, double v, double c) {
  const unsigned outcomes =
      static_cast<unsigned>(v < c) | static_cast<unsigned>(v <= c) << 1 |
      static_cast<unsigned>(v > c) << 2 | static_cast<unsigned>(v >= c) << 3 |
      static_cast<unsigned>(v == c) << 4 | static_cast<unsigned>(v != c) << 5;
  return (outcomes >> static_cast<unsigned>(op)) & 1u;
}

inline bool Passes(const RuleProgram::Pred& p,
                   const std::uint8_t* const* bases) {
  return Compare(p.op, LoadDouble(p.type, bases[p.source] + p.offset),
                 p.constant);
}

using Entry = RuleProgram::ClassEntry;

/// Sets bit `target` for every passing entry.
template <typename T, CmpOp kOp>
void GuardClass(const std::uint8_t* base, const Entry* e, const Entry* end,
                std::uint64_t* bits) {
  for (; e != end; ++e) {
    const bool pass = Compare<kOp>(LoadDouble<T>(base + e->offset),
                                   e->constant);
    bits[e->target >> 6] |= static_cast<std::uint64_t>(pass)
                            << (e->target & 63);
  }
}

/// Adds one to count `target` for every passing entry.
template <typename T, CmpOp kOp>
void CensusClass(const std::uint8_t* base, const Entry* e, const Entry* end,
                 std::uint32_t* counts) {
  for (; e != end; ++e) {
    counts[e->target] += Compare<kOp>(LoadDouble<T>(base + e->offset),
                                      e->constant);
  }
}

struct ClassFns {
  void (*guard)(const std::uint8_t*, const Entry*, const Entry*,
                std::uint64_t*);
  void (*census)(const std::uint8_t*, const Entry*, const Entry*,
                 std::uint32_t*);
};

template <typename T>
constexpr std::array<ClassFns, 6> FnsRow() {
  return {{{&GuardClass<T, CmpOp::kLt>, &CensusClass<T, CmpOp::kLt>},
           {&GuardClass<T, CmpOp::kLe>, &CensusClass<T, CmpOp::kLe>},
           {&GuardClass<T, CmpOp::kGt>, &CensusClass<T, CmpOp::kGt>},
           {&GuardClass<T, CmpOp::kGe>, &CensusClass<T, CmpOp::kGe>},
           {&GuardClass<T, CmpOp::kEq>, &CensusClass<T, CmpOp::kEq>},
           {&GuardClass<T, CmpOp::kNe>, &CensusClass<T, CmpOp::kNe>}}};
}

/// Indexed [ValueType][CmpOp].
constexpr std::array<std::array<ClassFns, 6>, kNumValueTypes> kFns = {
    {FnsRow<std::int32_t>(), FnsRow<std::uint32_t>(),
     FnsRow<std::int64_t>(), FnsRow<std::uint64_t>(), FnsRow<float>(),
     FnsRow<double>()}};

}  // namespace

RuleProgram::RuleProgram(const Schema& schema,
                         const std::vector<Rule>& rules) {
  conj_begin_.push_back(0);
  for (std::uint32_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    rule_ids_.push_back(rule.id);
    policies_.push_back(rule.policy);
    for (const Conjunct& conj : rule.conjuncts) {
      for (const Predicate& p : conj.predicates) {
        Pred c;
        c.op = p.op;
        c.constant = p.constant;
        if (p.lhs == Predicate::Lhs::kRecordAttr) {
          const Attribute& a = schema.attribute(p.attr);
          c.source = kRecord;
          c.offset = a.row_offset;
          c.type = a.type;
        } else {
          c.source = kEvent;
          c.offset = static_cast<std::uint32_t>(p.field) * sizeof(double);
          c.type = ValueType::kDouble;
        }
        preds_.push_back(c);
      }
      conj_begin_.push_back(static_cast<std::uint32_t>(preds_.size()));
      conj_rule_.push_back(r);
    }
  }

  const std::size_t words = (conj_rule_.size() + 63) / 64;
  always_bits_.assign(words, 0);
  for (std::uint32_t c = 0; c < conj_rule_.size(); ++c) {
    if (conj_begin_[c] == conj_begin_[c + 1]) {
      always_bits_[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
  }
  guard_bits_.resize(words);

  orig_preds_ = preds_;
  slot_orig_.resize(preds_.size());
  for (std::uint32_t i = 0; i < slot_orig_.size(); ++i) slot_orig_[i] = i;
  BuildClasses(orig_preds_, slot_orig_, &census_entries_, &census_spans_);
  pass_counts_.assign(preds_.size(), 0);
  BuildGuards();
}

void RuleProgram::BuildClasses(const std::vector<Pred>& preds,
                               const std::vector<std::uint32_t>& targets,
                               std::vector<ClassEntry>* entries,
                               std::vector<ClassSpan>* spans) {
  constexpr std::size_t kClasses = 2 * kNumValueTypes * 6;
  auto key = [](const Pred& p) {
    return (static_cast<std::size_t>(p.source) * kNumValueTypes +
            static_cast<std::size_t>(p.type)) *
               6 +
           static_cast<std::size_t>(p.op);
  };
  // Counting sort by class.
  std::array<std::uint32_t, kClasses + 1> start{};
  for (const Pred& p : preds) ++start[key(p) + 1];
  for (std::size_t k = 0; k < kClasses; ++k) start[k + 1] += start[k];
  entries->resize(preds.size());
  spans->clear();
  for (std::size_t k = 0; k < kClasses; ++k) {
    if (start[k] == start[k + 1]) continue;
    spans->push_back({static_cast<std::uint8_t>(k / (kNumValueTypes * 6)),
                      static_cast<ValueType>(k / 6 % kNumValueTypes),
                      static_cast<CmpOp>(k % 6), start[k], start[k + 1]});
  }
  std::array<std::uint32_t, kClasses + 1> next = start;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    (*entries)[next[key(preds[i])]++] = {preds[i].offset, targets[i],
                                         preds[i].constant};
  }
}

void RuleProgram::BuildGuards() {
  std::vector<Pred> guards;
  std::vector<std::uint32_t> targets;
  for (std::uint32_t c = 0; c < conj_rule_.size(); ++c) {
    if (conj_begin_[c] == conj_begin_[c + 1]) continue;
    guards.push_back(preds_[conj_begin_[c]]);
    targets.push_back(c);
  }
  BuildClasses(guards, targets, &guard_entries_, &guard_spans_);
}

void RuleProgram::Census(const std::uint8_t* const* bases) {
  for (const ClassSpan& s : census_spans_) {
    kFns[static_cast<std::size_t>(s.type)][static_cast<std::size_t>(s.op)]
        .census(bases[s.source], census_entries_.data() + s.begin,
                census_entries_.data() + s.end, pass_counts_.data());
  }
}

void RuleProgram::Reorder() {
  for (std::uint32_t c = 0; c < conj_rule_.size(); ++c) {
    const auto begin = slot_orig_.begin() + conj_begin_[c];
    const auto end = slot_orig_.begin() + conj_begin_[c + 1];
    std::stable_sort(begin, end, [this](std::uint32_t a, std::uint32_t b) {
      return pass_counts_[a] < pass_counts_[b];
    });
  }
  for (std::size_t s = 0; s < preds_.size(); ++s) {
    preds_[s] = orig_preds_[slot_orig_[s]];
  }
  for (std::uint32_t& n : pass_counts_) n >>= 1;
  BuildGuards();
}

std::uint64_t RuleProgram::Evaluate(const Event& event,
                                    const ConstRecordView& record,
                                    std::vector<std::uint32_t>* matched) {
  matched->clear();
  // The event's fields, widened as Predicate::LhsValue widens them.
  event_slots_[static_cast<int>(EventFieldId::kDuration)] =
      static_cast<double>(event.duration);
  event_slots_[static_cast<int>(EventFieldId::kCost)] =
      static_cast<double>(event.cost);
  event_slots_[static_cast<int>(EventFieldId::kDataVolume)] =
      static_cast<double>(event.data_mb);
  event_slots_[static_cast<int>(EventFieldId::kLongDistance)] =
      event.long_distance() ? 1.0 : 0.0;
  event_slots_[static_cast<int>(EventFieldId::kInternational)] =
      event.international() ? 1.0 : 0.0;
  event_slots_[static_cast<int>(EventFieldId::kRoaming)] =
      event.roaming() ? 1.0 : 0.0;
  const std::uint8_t* const bases[2] = {
      record.data(), reinterpret_cast<const std::uint8_t*>(event_slots_)};

  ++events_;
  if ((events_ & ((std::uint64_t{1} << kSampleShift) - 1)) == 0) {
    Census(bases);
  }

  std::copy(always_bits_.begin(), always_bits_.end(), guard_bits_.begin());
  for (const ClassSpan& s : guard_spans_) {
    kFns[static_cast<std::size_t>(s.type)][static_cast<std::size_t>(s.op)]
        .guard(bases[s.source], guard_entries_.data() + s.begin,
               guard_entries_.data() + s.end, guard_bits_.data());
  }

  std::uint64_t evaluated = guard_entries_.size();
  std::uint32_t last_matched = std::numeric_limits<std::uint32_t>::max();
  for (std::size_t w = 0; w < guard_bits_.size(); ++w) {
    for (std::uint64_t bits = guard_bits_[w]; bits != 0; bits &= bits - 1) {
      const std::uint32_t c =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      const std::uint32_t rule = conj_rule_[c];
      if (rule == last_matched) continue;  // early success
      // The guard (slot begin) passed; walk the rest with early abort.
      // An empty conjunct has begin == end and is true.
      const std::uint32_t first = conj_begin_[c] + 1;
      const std::uint32_t end = conj_begin_[c + 1];
      std::uint32_t p = first;
      while (p < end && Passes(preds_[p], bases)) ++p;
      evaluated += (p - first) + (p < end);
      if (p >= end) {
        matched->push_back(rule);
        last_matched = rule;
      }
    }
  }

  if (events_ % kReorderInterval == 0) Reorder();
  return evaluated;
}

}  // namespace aim
