#include "aim/rta/partial_result.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "aim/common/logging.h"
#include "aim/rta/group_table.h"

namespace aim {

std::uint32_t NumAggSlots(const Query& query) {
  std::uint32_t n = 0;
  for (const SelectItem& s : query.select) {
    n += s.is_sum_ratio ? 2 : 1;
  }
  return n;
}

void PartialResult::MergeFrom(const PartialResult& other, const Query& query) {
  // Merge group tables: O(n) on keys. The table hands out indices in
  // insertion order, which is exactly `groups` order (keys are unique).
  GroupTable index;
  bool inserted = false;
  for (const Group& g : groups) index.FindOrInsert(g.key, &inserted);
  for (const Group& g : other.groups) {
    const std::uint32_t i = index.FindOrInsert(g.key, &inserted);
    if (inserted) {
      groups.push_back(g);
    } else {
      Group& mine = groups[i];
      AIM_CHECK(mine.slots.size() == g.slots.size());
      for (std::size_t s = 0; s < g.slots.size(); ++s) {
        mine.slots[s].MergeFrom(g.slots[s]);
      }
    }
  }

  // Merge top-k candidate lists: concatenate, re-rank, truncate.
  if (topk.size() < other.topk.size()) topk.resize(other.topk.size());
  for (std::size_t t = 0; t < other.topk.size(); ++t) {
    auto& mine = topk[t];
    mine.insert(mine.end(), other.topk[t].begin(), other.topk[t].end());
    // A partial off the wire may carry NaN; keep the sort's order strict.
    std::erase_if(mine, [](const TopKEntry& e) { return std::isnan(e.value); });
    const bool asc = t < query.topk.size() && query.topk[t].ascending;
    std::sort(mine.begin(), mine.end(),
              [asc](const TopKEntry& a, const TopKEntry& b) {
                return TopKBefore(a, b, asc);
              });
    if (mine.size() > query.k) mine.resize(query.k);
  }
}

void PartialResult::Serialize(BinaryWriter* w) const {
  w->PutU32(query_id);
  w->PutU32(static_cast<std::uint32_t>(groups.size()));
  for (const Group& g : groups) {
    w->PutU64(g.key);
    w->PutU32(static_cast<std::uint32_t>(g.slots.size()));
    for (const simd::AggAccum& a : g.slots) {
      w->PutF64(a.sum);
      w->PutF64(a.min);
      w->PutF64(a.max);
      w->PutI64(a.count);
    }
  }
  w->PutU32(static_cast<std::uint32_t>(topk.size()));
  for (const auto& t : topk) {
    w->PutU32(static_cast<std::uint32_t>(t.size()));
    for (const TopKEntry& e : t) {
      w->PutU64(e.entity);
      w->PutF64(e.value);
    }
  }
}

StatusOr<PartialResult> PartialResult::Deserialize(BinaryReader* r) {
  PartialResult p;
  p.query_id = r->GetU32();
  // Every count is validated against the remaining bytes before any
  // container is sized (GetCountU32 with the minimum encoded element size),
  // so a hostile header cannot pre-allocate more than the payload carries.
  const std::uint32_t ng = r->GetCountU32(12);  // u64 key + u32 slot count
  if (!r->ok()) return Status::InvalidArgument("truncated partial result");
  p.groups.reserve(ng);
  for (std::uint32_t i = 0; i < ng && r->ok(); ++i) {
    PartialResult::Group g;
    g.key = r->GetU64();
    const std::uint32_t ns = r->GetCountU32(32);  // 3 x f64 + i64
    g.slots.reserve(ns);
    for (std::uint32_t s = 0; s < ns && r->ok(); ++s) {
      simd::AggAccum a;
      a.sum = r->GetF64();
      a.min = r->GetF64();
      a.max = r->GetF64();
      a.count = r->GetI64();
      g.slots.push_back(a);
    }
    p.groups.push_back(std::move(g));
  }
  const std::uint32_t nt = r->GetCountU32(4);  // u32 entry count
  p.topk.reserve(nt);
  for (std::uint32_t t = 0; t < nt && r->ok(); ++t) {
    std::vector<TopKEntry> list;
    const std::uint32_t ne = r->GetCountU32(16);  // u64 entity + f64 value
    list.reserve(ne);
    for (std::uint32_t e = 0; e < ne && r->ok(); ++e) {
      TopKEntry entry;
      entry.entity = r->GetU64();
      entry.value = r->GetF64();
      list.push_back(entry);
    }
    p.topk.push_back(std::move(list));
  }
  if (!r->ok()) return Status::InvalidArgument("truncated partial result");
  return p;
}

namespace {

double FinalizeSlot(const SelectItem& item, const simd::AggAccum* slots) {
  const simd::AggAccum& a = slots[0];
  if (item.is_sum_ratio) {
    const double den = slots[1].sum;
    return den == 0.0 ? 0.0 : a.sum / den;
  }
  switch (item.op) {
    case AggOp::kCount:
      return static_cast<double>(a.count);
    case AggOp::kSum:
      return a.sum;
    case AggOp::kMin:
      return a.count == 0 ? 0.0 : a.min;
    case AggOp::kMax:
      return a.count == 0 ? 0.0 : a.max;
    case AggOp::kAvg:
      return a.count == 0 ? 0.0 : a.sum / static_cast<double>(a.count);
  }
  return 0.0;
}

}  // namespace

QueryResult FinalizeResult(const Query& query, const DimensionCatalog* dims,
                           PartialResult&& merged) {
  QueryResult result;
  result.query_id = query.id;

  if (query.kind == Query::Kind::kTopK) {
    result.topk = std::move(merged.topk);
    for (auto& list : result.topk) {
      if (list.size() > query.k) list.resize(query.k);
    }
    result.topk.resize(query.topk.size());
    return result;
  }

  // Deterministic output order: sort groups by key.
  std::sort(merged.groups.begin(), merged.groups.end(),
            [](const PartialResult::Group& a, const PartialResult::Group& b) {
              return a.key < b.key;
            });

  const bool dim_group = query.group_by.kind == GroupBy::Kind::kDimColumn;
  for (const PartialResult::Group& g : merged.groups) {
    if (query.limit > 0 && result.rows.size() >= query.limit) break;
    QueryResult::Row row;
    row.group_key = g.key;
    if (dim_group && dims != nullptr &&
        query.group_by.dim_table < dims->num_tables()) {
      row.group_label = dims->table(query.group_by.dim_table)
                            .GroupLabel(g.key, query.group_by.dim_column);
    }
    std::size_t slot = 0;
    for (const SelectItem& item : query.select) {
      row.values.push_back(FinalizeSlot(item, g.slots.data() + slot));
      slot += item.is_sum_ratio ? 2 : 1;
    }
    result.rows.push_back(std::move(row));
  }

  // Plain aggregates always return one row, even over an empty selection.
  if (query.kind == Query::Kind::kAggregate && result.rows.empty()) {
    QueryResult::Row row;
    simd::AggAccum empty;
    std::vector<simd::AggAccum> zeros(NumAggSlots(query), empty);
    std::size_t slot = 0;
    for (const SelectItem& item : query.select) {
      row.values.push_back(FinalizeSlot(item, zeros.data() + slot));
      slot += item.is_sum_ratio ? 2 : 1;
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

std::string QueryResult::ToString() const {
  std::string out = "Query " + std::to_string(query_id) + ": ";
  if (!status.ok()) return out + status.ToString();
  if (!topk.empty()) {
    for (std::size_t t = 0; t < topk.size(); ++t) {
      out += "[target " + std::to_string(t) + ":";
      for (const TopKEntry& e : topk[t]) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " (%llu, %.3f)",
                      static_cast<unsigned long long>(e.entity), e.value);
        out += buf;
      }
      out += "]";
    }
    return out;
  }
  out += std::to_string(rows.size()) + " row(s)";
  const std::size_t show = std::min<std::size_t>(rows.size(), 5);
  for (std::size_t i = 0; i < show; ++i) {
    out += " {";
    if (!rows[i].group_label.empty()) {
      out += rows[i].group_label + ": ";
    } else if (rows.size() > 1) {
      out += std::to_string(rows[i].group_key) + ": ";
    }
    for (std::size_t v = 0; v < rows[i].values.size(); ++v) {
      if (v > 0) out += ", ";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4g", rows[i].values[v]);
      out += buf;
    }
    out += "}";
  }
  if (rows.size() > show) out += " ...";
  return out;
}

}  // namespace aim
