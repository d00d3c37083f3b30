#ifndef AIM_RTA_PARTIAL_RESULT_H_
#define AIM_RTA_PARTIAL_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "aim/common/binary_io.h"
#include "aim/common/status.h"
#include "aim/rta/dimension.h"
#include "aim/rta/query.h"
#include "aim/rta/simd.h"

namespace aim {

/// One entity in a top-k result.
struct TopKEntry {
  std::uint64_t entity = 0;
  double value = 0.0;
};

/// Top-k rank order: the better value first (larger, or smaller when
/// `ascending`), equal values by ascending entity id. A strict weak order
/// over non-NaN values, and a total one while entity ids are distinct, so
/// every partitioning of the records ranks the same entities first. NaN
/// values are excluded before ranking (engine, merge and baseline alike).
inline bool TopKBefore(const TopKEntry& a, const TopKEntry& b,
                       bool ascending) {
  if (a.value != b.value) {
    return ascending ? a.value < b.value : a.value > b.value;
  }
  return a.entity < b.entity;
}

/// The partial result a storage node produces for one query over its share
/// of the Analytics Matrix. RTA front-end nodes merge the partials from all
/// storage nodes and finalize (paper §4.2: "merge the partial results before
/// delivering the final result").
///
/// Layout: one AggAccum per aggregate slot per group. Plain aggregate
/// queries are a group-by with the single implicit group key 0. Top-k
/// queries carry per-target candidate lists instead.
struct PartialResult {
  std::uint32_t query_id = 0;

  struct Group {
    std::uint64_t key = 0;
    std::vector<simd::AggAccum> slots;
  };
  std::vector<Group> groups;

  std::vector<std::vector<TopKEntry>> topk;  // per target, locally best k

  /// Merges another node's partial into this one. `num_slots` must match.
  void MergeFrom(const PartialResult& other, const Query& query);

  void Serialize(BinaryWriter* w) const;
  static StatusOr<PartialResult> Deserialize(BinaryReader* r);
};

/// Number of AggAccum slots a query needs per group (ratio items use two).
std::uint32_t NumAggSlots(const Query& query);

/// Final, client-facing result.
struct QueryResult {
  struct Row {
    std::uint64_t group_key = 0;
    std::string group_label;  // resolved dim label (group-by-dim queries)
    std::vector<double> values;  // one per select item
  };

  std::uint32_t query_id = 0;
  Status status;
  std::vector<Row> rows;                     // aggregate: exactly one row
  std::vector<std::vector<TopKEntry>> topk;  // top-k queries

  std::string ToString() const;
};

/// Turns a fully merged partial into the final result: finalizes avg/ratio
/// expressions, resolves dim group labels, sorts groups by key and applies
/// LIMIT, truncates top-k lists to k.
QueryResult FinalizeResult(const Query& query, const DimensionCatalog* dims,
                           PartialResult&& merged);

}  // namespace aim

#endif  // AIM_RTA_PARTIAL_RESULT_H_
