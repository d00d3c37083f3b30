#include "aim/baselines/row_query.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "aim/common/logging.h"

namespace aim {

namespace {

double LoadAsDouble(ValueType t, const std::uint8_t* p) {
  switch (t) {
    case ValueType::kInt32: {
      std::int32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
    case ValueType::kUInt32: {
      std::uint32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
    case ValueType::kInt64: {
      std::int64_t v;
      std::memcpy(&v, p, 8);
      return static_cast<double>(v);
    }
    case ValueType::kUInt64: {
      std::uint64_t v;
      std::memcpy(&v, p, 8);
      return static_cast<double>(v);
    }
    case ValueType::kFloat: {
      float v;
      std::memcpy(&v, p, 4);
      return v;
    }
    case ValueType::kDouble: {
      double v;
      std::memcpy(&v, p, 8);
      return v;
    }
  }
  return 0.0;
}

bool EvalCmp(CmpOp op, double lhs, double rhs) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
  }
  return false;
}

bool CmpU32(CmpOp op, std::uint32_t lhs, std::uint32_t rhs) {
  return EvalCmp(op, lhs, rhs);
}

}  // namespace

Status RowQueryRun::Compile(const Query& query, const Schema* schema,
                            const DimensionCatalog* dims, RowQueryRun* out) {
  out->query_ = query;
  out->schema_ = schema;
  out->dims_ = dims;
  out->filters_.clear();
  out->fk_filters_.clear();
  out->agg_slots_.clear();
  out->fk_to_group_.clear();
  out->group_index_.clear();
  out->partial_ = PartialResult{};
  out->partial_.query_id = query.id;
  out->topk_state_.assign(query.topk.size(), {});

  for (const ScanFilter& f : query.where) {
    if (f.attr >= schema->num_attributes()) {
      return Status::InvalidArgument("filter attribute out of range");
    }
    const Attribute& a = schema->attribute(f.attr);
    out->filters_.push_back(
        RowFilter{a.row_offset, a.type, f.op, f.constant.AsDouble()});
  }

  for (const DimFilter& f : query.dim_where) {
    if (dims == nullptr || f.dim_table >= dims->num_tables()) {
      return Status::InvalidArgument("unknown dimension table");
    }
    const DimensionTable& table = dims->table(f.dim_table);
    std::unordered_set<std::uint32_t> matching;
    const bool is_string =
        table.column_type(f.dim_column) == DimensionTable::ColumnType::kString;
    for (std::uint32_t row = 0; row < table.num_rows(); ++row) {
      bool pass;
      if (is_string) {
        const bool eq =
            table.string_value(row, f.dim_column) == f.str_constant;
        pass = f.op == CmpOp::kEq ? eq : (f.op == CmpOp::kNe && !eq);
      } else {
        pass = CmpU32(f.op, table.u32_value(row, f.dim_column), f.constant);
      }
      if (pass) {
        matching.insert(static_cast<std::uint32_t>(table.row_key(row)));
      }
    }
    const Attribute& fk = schema->attribute(f.fk_attr);
    out->fk_filters_.push_back(FkSet{fk.row_offset, std::move(matching)});
  }

  std::uint32_t slot = 0;
  for (const SelectItem& s : query.select) {
    const bool count_star = s.attr == kInvalidAttr && s.op == AggOp::kCount;
    if (!count_star && s.attr >= schema->num_attributes()) {
      return Status::InvalidArgument("aggregate over invalid attribute");
    }
    out->agg_slots_.push_back(
        AggSlot{slot++, count_star ? kInvalidAttr : s.attr});
    if (s.is_sum_ratio) {
      if (s.den_attr >= schema->num_attributes()) {
        return Status::InvalidArgument("ratio denominator out of range");
      }
      out->agg_slots_.push_back(AggSlot{slot++, s.den_attr});
    }
  }
  out->num_slots_ = slot;

  if (query.group_by.kind == GroupBy::Kind::kMatrixAttr) {
    out->group_attr_ = query.group_by.attr;
  } else if (query.group_by.kind == GroupBy::Kind::kDimColumn) {
    out->group_by_dim_ = true;
    out->group_fk_attr_ = query.group_by.fk_attr;
    const DimensionTable& table = dims->table(query.group_by.dim_table);
    for (std::uint32_t row = 0; row < table.num_rows(); ++row) {
      out->fk_to_group_.emplace(
          static_cast<std::uint32_t>(table.row_key(row)),
          table.GroupKey(row, query.group_by.dim_column));
    }
  }
  return Status::OK();
}

double RowQueryRun::LoadAttr(const std::uint8_t* row,
                             std::uint16_t attr) const {
  const Attribute& a = schema_->attribute(attr);
  return LoadAsDouble(a.type, row + a.row_offset);
}

bool RowQueryRun::MatchesExcept(const std::uint8_t* row,
                                std::size_t skip_index) const {
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (i == skip_index) continue;
    const RowFilter& f = filters_[i];
    if (!EvalCmp(f.op, LoadAsDouble(f.type, row + f.offset), f.constant)) {
      return false;
    }
  }
  for (const FkSet& f : fk_filters_) {
    std::uint32_t fk;
    std::memcpy(&fk, row + f.offset, 4);
    if (f.matching.find(fk) == f.matching.end()) return false;
  }
  return true;
}

bool RowQueryRun::Matches(const std::uint8_t* row) const {
  return MatchesExcept(row, filters_.size());
}

void RowQueryRun::Accumulate(const std::uint8_t* row) {
  if (query_.kind == Query::Kind::kTopK) {
    if (query_.k == 0) return;
    for (std::size_t t = 0; t < query_.topk.size(); ++t) {
      const TopKTarget& target = query_.topk[t];
      double v = LoadAttr(row, target.attr);
      if (target.den_attr != kInvalidAttr) {
        const double den = LoadAttr(row, target.den_attr);
        if (den == 0.0) continue;
        v /= den;
      }
      if (std::isnan(v)) continue;  // NaN never ranks (see TopKBefore)
      TopKEntry entry;
      const Attribute& ea = schema_->attribute(query_.entity_attr);
      std::uint64_t ent = 0;
      std::memcpy(&ent, row + ea.row_offset, ValueTypeSize(ea.type));
      entry.entity = ent;
      entry.value = v;
      topk_state_[t].push_back(entry);
      if (topk_state_[t].size() > static_cast<std::size_t>(query_.k) * 4 + 16) {
        const bool asc = target.ascending;
        std::nth_element(topk_state_[t].begin(),
                         topk_state_[t].begin() + query_.k - 1,
                         topk_state_[t].end(),
                         [asc](const TopKEntry& a, const TopKEntry& b) {
                           return TopKBefore(a, b, asc);
                         });
        topk_state_[t].resize(query_.k);
      }
    }
    return;
  }

  std::uint64_t key = 0;
  if (query_.kind == Query::Kind::kGroupBy) {
    if (group_by_dim_) {
      const Attribute& fk_attr = schema_->attribute(group_fk_attr_);
      std::uint32_t fk;
      std::memcpy(&fk, row + fk_attr.row_offset, 4);
      auto it = fk_to_group_.find(fk);
      if (it == fk_to_group_.end()) return;
      key = it->second;
    } else {
      const Attribute& a = schema_->attribute(group_attr_);
      if (a.type == ValueType::kInt32) {
        std::int32_t v;
        std::memcpy(&v, row + a.row_offset, 4);
        key = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
      } else {
        std::uint64_t v = 0;
        std::memcpy(&v, row + a.row_offset, ValueTypeSize(a.type));
        key = v;
      }
    }
  }

  auto [it, inserted] = group_index_.emplace(
      key, static_cast<std::uint32_t>(partial_.groups.size()));
  if (inserted) {
    PartialResult::Group g;
    g.key = key;
    g.slots.assign(num_slots_, simd::AggAccum{});
    partial_.groups.push_back(std::move(g));
  }
  PartialResult::Group& g = partial_.groups[it->second];
  for (const AggSlot& slot : agg_slots_) {
    simd::AggAccum& acc = g.slots[slot.slot];
    if (slot.attr == kInvalidAttr) {
      acc.count++;
      continue;
    }
    const double v = LoadAttr(row, slot.attr);
    acc.sum += v;
    if (v < acc.min) acc.min = v;
    if (v > acc.max) acc.max = v;
    acc.count++;
  }
}

QueryResult RowQueryRun::Finish() {
  partial_.topk.clear();
  for (std::size_t t = 0; t < topk_state_.size(); ++t) {
    auto& entries = topk_state_[t];
    const bool asc = query_.topk[t].ascending;
    std::sort(entries.begin(), entries.end(),
              [asc](const TopKEntry& a, const TopKEntry& b) {
                return TopKBefore(a, b, asc);
              });
    if (entries.size() > query_.k) entries.resize(query_.k);
    partial_.topk.push_back(std::move(entries));
  }
  return FinalizeResult(query_, dims_, std::move(partial_));
}

}  // namespace aim
