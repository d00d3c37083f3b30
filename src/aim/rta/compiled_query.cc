#include "aim/rta/compiled_query.h"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "aim/common/logging.h"

namespace aim {

namespace {

/// Calls fn(T{}) with the C++ type of `t`: the scan loops are instantiated
/// per type, so the dispatch happens once per bucket and column, not once
/// per value.
template <typename Fn>
inline void WithType(ValueType t, Fn&& fn) {
  switch (t) {
    case ValueType::kInt32:
      fn(std::int32_t{});
      return;
    case ValueType::kUInt32:
      fn(std::uint32_t{});
      return;
    case ValueType::kInt64:
      fn(std::int64_t{});
      return;
    case ValueType::kUInt64:
      fn(std::uint64_t{});
      return;
    case ValueType::kFloat:
      fn(float{});
      return;
    case ValueType::kDouble:
      fn(double{});
      return;
  }
}

template <typename T>
inline T LoadAt(const std::uint8_t* col, std::uint32_t idx) {
  T v;
  std::memcpy(&v, col + static_cast<std::size_t>(idx) * sizeof(T), sizeof(T));
  return v;
}

/// A column value as a u64 group key or entity id: signed integers
/// sign-extended, floats by bit pattern (exact-value grouping).
template <typename T>
inline std::uint64_t KeyOf(T v) {
  if constexpr (std::is_same_v<T, float>) {
    return std::bit_cast<std::uint32_t>(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<std::uint64_t>(v);
  } else if constexpr (std::is_signed_v<T>) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  } else {
    return v;
  }
}

bool CmpU32(CmpOp op, std::uint32_t lhs, std::uint32_t rhs) {
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

/// Offers `e` to a top-k heap of at most k entries whose front is the
/// worst entry kept.
inline void OfferTopK(std::vector<TopKEntry>* heap, std::size_t k,
                      const TopKEntry& e, bool asc) {
  const auto before = [asc](const TopKEntry& a, const TopKEntry& b) {
    return TopKBefore(a, b, asc);
  };
  if (heap->size() < k) {
    heap->push_back(e);
    std::push_heap(heap->begin(), heap->end(), before);
  } else if (before(e, heap->front())) {
    std::pop_heap(heap->begin(), heap->end(), before);
    heap->back() = e;
    std::push_heap(heap->begin(), heap->end(), before);
  }
}

}  // namespace

StatusOr<std::shared_ptr<const QueryPlan>> QueryPlan::Compile(
    const Query& query, const Schema* schema, const DimensionCatalog* dims) {
  auto plan = std::make_shared<QueryPlan>();
  plan->query = query;

  // WHERE predicates on matrix columns.
  for (const ScanFilter& f : query.where) {
    if (f.attr >= schema->num_attributes()) {
      return Status::InvalidArgument("filter attribute out of range");
    }
    plan->filters.push_back(ColumnFilter{
        f.attr, schema->attribute(f.attr).type, f.op, f.constant});
  }

  // Dimension predicates -> one membership byte per FK value. Several
  // predicates through the same FK intersect into one array.
  for (const DimFilter& f : query.dim_where) {
    if (dims == nullptr || f.dim_table >= dims->num_tables()) {
      return Status::InvalidArgument("unknown dimension table");
    }
    const DimensionTable& table = dims->table(f.dim_table);
    if (f.dim_column >= table.num_columns()) {
      return Status::InvalidArgument("unknown dimension column");
    }
    if (f.fk_attr >= schema->num_attributes() ||
        schema->attribute(f.fk_attr).type != ValueType::kUInt32) {
      return Status::InvalidArgument("dim FK must be a uint32 attribute");
    }
    const bool is_string =
        table.column_type(f.dim_column) == DimensionTable::ColumnType::kString;
    if (is_string && f.op != CmpOp::kEq && f.op != CmpOp::kNe) {
      return Status::InvalidArgument(
          "string dim predicates support ==/!= only");
    }
    // An absent label matches no row under == and every row under !=.
    const std::uint32_t label =
        is_string ? table.FindLabel(f.dim_column, f.str_constant) : 0;
    std::vector<std::uint8_t> member(table.key_span() + 1, 0);
    for (std::uint32_t row = 0; row < table.num_rows(); ++row) {
      const bool pass =
          is_string
              ? (table.row_label(row, f.dim_column) == label) ==
                    (f.op == CmpOp::kEq)
              : CmpU32(f.op, table.u32_value(row, f.dim_column), f.constant);
      if (pass) member[table.row_key(row)] = 0xff;
    }
    auto existing = std::find_if(
        plan->fk_filters.begin(), plan->fk_filters.end(),
        [&](const FkFilter& e) { return e.attr == f.fk_attr; });
    if (existing == plan->fk_filters.end()) {
      plan->fk_filters.push_back(FkFilter{f.fk_attr, std::move(member)});
    } else {
      // Intersect over the shorter span; its last entry is the 0 that
      // every FK beyond the span clamps onto.
      const std::size_t n = std::min(existing->member.size(), member.size());
      existing->member.resize(n);
      for (std::size_t i = 0; i < n; ++i) existing->member[i] &= member[i];
    }
  }

  // Aggregate slots.
  std::uint32_t slot = 0;
  for (const SelectItem& s : query.select) {
    const bool count_star = s.attr == kInvalidAttr && s.op == AggOp::kCount;
    if (!count_star && s.attr >= schema->num_attributes()) {
      return Status::InvalidArgument("aggregate over invalid attribute");
    }
    const ValueType t =
        count_star ? ValueType::kInt32 : schema->attribute(s.attr).type;
    plan->agg_slots.push_back(
        AggSlot{slot++, count_star ? kInvalidAttr : s.attr, t});
    if (s.is_sum_ratio) {
      if (s.den_attr >= schema->num_attributes()) {
        return Status::InvalidArgument("ratio denominator out of range");
      }
      plan->agg_slots.push_back(
          AggSlot{slot++, s.den_attr, schema->attribute(s.den_attr).type});
    }
  }
  plan->num_slots = slot;

  // GROUP BY.
  if (query.kind == Query::Kind::kGroupBy &&
      query.group_by.kind == GroupBy::Kind::kNone) {
    return Status::InvalidArgument("group-by query without a group-by key");
  }
  if (query.group_by.kind == GroupBy::Kind::kMatrixAttr) {
    if (query.group_by.attr >= schema->num_attributes()) {
      return Status::InvalidArgument("group-by attribute out of range");
    }
    plan->group_attr = query.group_by.attr;
    plan->group_attr_type = schema->attribute(plan->group_attr).type;
  } else if (query.group_by.kind == GroupBy::Kind::kDimColumn) {
    if (dims == nullptr || query.group_by.dim_table >= dims->num_tables()) {
      return Status::InvalidArgument("unknown group-by dimension table");
    }
    const DimensionTable& table = dims->table(query.group_by.dim_table);
    if (query.group_by.dim_column >= table.num_columns()) {
      return Status::InvalidArgument("unknown group-by dimension column");
    }
    plan->group_fk_attr = query.group_by.fk_attr;
    if (plan->group_fk_attr >= schema->num_attributes() ||
        schema->attribute(plan->group_fk_attr).type != ValueType::kUInt32) {
      return Status::InvalidArgument("group-by FK must be uint32");
    }
    // Rows sharing a group key (e.g. zips of one city) share a dense id.
    plan->fk_group.assign(table.key_span() + 1, kNoGroup);
    GroupTable ids;
    for (std::uint32_t row = 0; row < table.num_rows(); ++row) {
      const std::uint64_t key = table.GroupKey(row, query.group_by.dim_column);
      bool inserted = false;
      const std::uint32_t id = ids.FindOrInsert(key, &inserted);
      if (inserted) plan->dim_group_keys.push_back(key);
      plan->fk_group[table.row_key(row)] = id;
    }
  }

  // Top-k targets.
  if (query.kind == Query::Kind::kTopK) {
    if (query.entity_attr >= schema->num_attributes()) {
      return Status::InvalidArgument("top-k entity attribute out of range");
    }
    plan->entity_type = schema->attribute(query.entity_attr).type;
    for (const TopKTarget& t : query.topk) {
      if (t.attr >= schema->num_attributes() ||
          (t.den_attr != kInvalidAttr &&
           t.den_attr >= schema->num_attributes())) {
        return Status::InvalidArgument("top-k attribute out of range");
      }
      plan->topk.push_back(TopKColumn{
          t.attr, schema->attribute(t.attr).type, t.den_attr,
          t.den_attr == kInvalidAttr ? ValueType::kDouble
                                     : schema->attribute(t.den_attr).type,
          t.ascending});
    }
  }
  return std::shared_ptr<const QueryPlan>(std::move(plan));
}

StatusOr<CompiledQuery> CompiledQuery::Compile(const Query& query,
                                               const Schema* schema,
                                               const DimensionCatalog* dims) {
  StatusOr<std::shared_ptr<const QueryPlan>> plan =
      QueryPlan::Compile(query, schema, dims);
  if (!plan.ok()) return plan.status();
  return CompiledQuery(std::move(plan).value());
}

CompiledQuery::CompiledQuery(std::shared_ptr<const QueryPlan> plan)
    : plan_(std::move(plan)) {
  Reset();
}

void CompiledQuery::Reset() {
  group_keys_.clear();
  accums_.clear();
  group_table_.Clear();
  dim_group_index_.assign(plan_->dim_group_keys.size(), QueryPlan::kNoGroup);
  topk_.resize(plan_->topk.size());
  for (std::vector<TopKEntry>& heap : topk_) heap.clear();
}

std::uint32_t CompiledQuery::NewGroup(std::uint64_t key) {
  const std::uint32_t g = static_cast<std::uint32_t>(group_keys_.size());
  group_keys_.push_back(key);
  accums_.resize(accums_.size() + plan_->num_slots);
  return g;
}

void CompiledQuery::ProcessBucket(const ColumnMap& map,
                                  const ColumnMap::BucketRef& bucket,
                                  ScanScratch* scratch) {
  const std::uint32_t count = bucket.count;
  if (count == 0) return;
  const QueryPlan& plan = *plan_;
  std::uint8_t* mask = scratch->MaskFor(count);

  // Selection: SIMD column filters, then FK membership as a mask AND (FK
  // values beyond the span clamp onto its trailing 0).
  if (plan.filters.empty()) {
    simd::FillMask(mask, count);
  } else {
    for (std::size_t i = 0; i < plan.filters.size(); ++i) {
      const QueryPlan::ColumnFilter& f = plan.filters[i];
      simd::FilterColumn(f.type, bucket.Column(map, f.attr), count, f.op,
                         f.constant, mask, /*combine_and=*/i > 0);
    }
  }
  for (const QueryPlan::FkFilter& f : plan.fk_filters) {
    const std::uint8_t* col = bucket.Column(map, f.attr);
    const std::uint8_t* member = f.member.data();
    const std::uint32_t last = static_cast<std::uint32_t>(f.member.size() - 1);
    for (std::uint32_t i = 0; i < count; ++i) {
      mask[i] &= member[std::min(LoadAt<std::uint32_t>(col, i), last)];
    }
  }

  switch (plan.query.kind) {
    case Query::Kind::kAggregate:
      AggregateBucket(map, bucket, mask, count);
      break;
    case Query::Kind::kGroupBy:
      GroupByBucket(map, bucket, mask, count, scratch);
      break;
    case Query::Kind::kTopK:
      TopKBucket(map, bucket, mask, count);
      break;
  }
}

void CompiledQuery::AggregateBucket(const ColumnMap& map,
                                    const ColumnMap::BucketRef& bucket,
                                    const std::uint8_t* mask,
                                    std::uint32_t count) {
  if (group_keys_.empty()) NewGroup(0);
  for (const QueryPlan::AggSlot& slot : plan_->agg_slots) {
    simd::AggAccum* acc = &accums_[slot.slot];
    if (slot.attr == kInvalidAttr) {
      acc->count += simd::CountMask(mask, count);  // COUNT(*)
      continue;
    }
    simd::MaskedAggregate(slot.type, bucket.Column(map, slot.attr), mask,
                          count, acc);
  }
}

void CompiledQuery::GroupByBucket(const ColumnMap& map,
                                  const ColumnMap::BucketRef& bucket,
                                  const std::uint8_t* mask,
                                  std::uint32_t count, ScanScratch* scratch) {
  const QueryPlan& plan = *plan_;
  std::uint32_t* rows = scratch->RowsFor(count);
  std::uint32_t* groups = scratch->GroupsFor(count);
  std::uint32_t n = 0;

  // Pass 1: a group index for every selected row.
  if (plan.group_fk_attr != kInvalidAttr) {
    const std::uint8_t* fk_col = bucket.Column(map, plan.group_fk_attr);
    const std::uint32_t* fk_group = plan.fk_group.data();
    const std::uint32_t last =
        static_cast<std::uint32_t>(plan.fk_group.size() - 1);
    for (std::uint32_t i = 0; i < count; ++i) {
      if (mask[i] == 0) continue;
      const std::uint32_t id =
          fk_group[std::min(LoadAt<std::uint32_t>(fk_col, i), last)];
      if (id == QueryPlan::kNoGroup) continue;  // inner join: no dim row
      std::uint32_t& g = dim_group_index_[id];
      if (g == QueryPlan::kNoGroup) g = NewGroup(plan.dim_group_keys[id]);
      rows[n] = i;
      groups[n] = g;
      ++n;
    }
  } else {
    const std::uint8_t* key_col = bucket.Column(map, plan.group_attr);
    WithType(plan.group_attr_type, [&](auto tag) {
      using T = decltype(tag);
      for (std::uint32_t i = 0; i < count; ++i) {
        if (mask[i] == 0) continue;
        const std::uint64_t key = KeyOf(LoadAt<T>(key_col, i));
        bool inserted = false;
        const std::uint32_t g = group_table_.FindOrInsert(key, &inserted);
        if (inserted) NewGroup(key);
        rows[n] = i;
        groups[n] = g;
        ++n;
      }
    });
  }
  if (n == 0) return;

  // Pass 2: one typed loop per aggregate slot, rows in record order.
  const std::uint32_t stride = plan.num_slots;
  simd::AggAccum* accums = accums_.data();
  for (const QueryPlan::AggSlot& slot : plan.agg_slots) {
    simd::AggAccum* base = accums + slot.slot;
    if (slot.attr == kInvalidAttr) {
      for (std::uint32_t j = 0; j < n; ++j) base[groups[j] * stride].count++;
      continue;
    }
    const std::uint8_t* col = bucket.Column(map, slot.attr);
    WithType(slot.type, [&](auto tag) {
      using T = decltype(tag);
      for (std::uint32_t j = 0; j < n; ++j) {
        const double v = static_cast<double>(LoadAt<T>(col, rows[j]));
        simd::AggAccum& acc = base[groups[j] * stride];
        acc.sum += v;
        if (v < acc.min) acc.min = v;
        if (v > acc.max) acc.max = v;
        acc.count++;
      }
    });
  }
}

void CompiledQuery::TopKBucket(const ColumnMap& map,
                               const ColumnMap::BucketRef& bucket,
                               const std::uint8_t* mask,
                               std::uint32_t count) {
  const QueryPlan& plan = *plan_;
  const std::size_t k = plan.query.k;
  if (k == 0) return;
  const std::uint8_t* entity_col = bucket.Column(map, plan.query.entity_attr);

  for (std::size_t t = 0; t < plan.topk.size(); ++t) {
    const QueryPlan::TopKColumn& target = plan.topk[t];
    std::vector<TopKEntry>& heap = topk_[t];
    const bool asc = target.ascending;
    const std::uint8_t* num_col = bucket.Column(map, target.attr);

    // Rows strictly worse than the current k-th value cannot enter; equal
    // ones still can, through a smaller entity id.
    const auto offer_row = [&](std::uint32_t i, double v) {
      if (heap.size() == k) {
        const double bound = heap.front().value;
        if (asc ? v > bound : v < bound) return;
      }
      TopKEntry e;
      WithType(plan.entity_type, [&](auto tag) {
        e.entity = KeyOf(LoadAt<decltype(tag)>(entity_col, i));
      });
      e.value = v;
      OfferTopK(&heap, k, e, asc);
    };

    if (target.den_attr == kInvalidAttr) {
      if (heap.size() == k) {
        // The bucket's best selected value (min/max skip NaN) against the
        // bound: most buckets of a full heap end here.
        simd::AggAccum acc;
        simd::MaskedAggregate(target.type, num_col, mask, count, &acc);
        const double bound = heap.front().value;
        if (asc ? acc.min > bound : acc.max < bound) continue;
      }
      WithType(target.type, [&](auto tag) {
        using T = decltype(tag);
        for (std::uint32_t i = 0; i < count; ++i) {
          if (mask[i] == 0) continue;
          const double v = static_cast<double>(LoadAt<T>(num_col, i));
          if (v != v) continue;  // NaN never ranks
          offer_row(i, v);
        }
      });
      continue;
    }

    const std::uint8_t* den_col = bucket.Column(map, target.den_attr);
    WithType(target.type, [&](auto num_tag) {
      WithType(target.den_type, [&](auto den_tag) {
        using N = decltype(num_tag);
        using D = decltype(den_tag);
        for (std::uint32_t i = 0; i < count; ++i) {
          if (mask[i] == 0) continue;
          const double den = static_cast<double>(LoadAt<D>(den_col, i));
          if (den == 0.0) continue;  // undefined ratio: skip record
          const double v = static_cast<double>(LoadAt<N>(num_col, i)) / den;
          if (v != v) continue;
          offer_row(i, v);
        }
      });
    });
  }
}

PartialResult CompiledQuery::TakePartial() {
  PartialResult out;
  out.query_id = plan_->query.id;
  const std::uint32_t stride = plan_->num_slots;
  out.groups.resize(group_keys_.size());
  for (std::size_t g = 0; g < group_keys_.size(); ++g) {
    out.groups[g].key = group_keys_[g];
    out.groups[g].slots.assign(accums_.begin() + g * stride,
                               accums_.begin() + (g + 1) * stride);
  }
  for (std::size_t t = 0; t < topk_.size(); ++t) {
    std::vector<TopKEntry>& entries = topk_[t];
    const bool asc = plan_->topk[t].ascending;
    std::sort_heap(entries.begin(), entries.end(),
                   [asc](const TopKEntry& a, const TopKEntry& b) {
                     return TopKBefore(a, b, asc);
                   });
    out.topk.push_back(std::move(entries));
  }
  Reset();
  return out;
}

}  // namespace aim
