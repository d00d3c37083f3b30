#ifndef AIM_RTA_COMPILED_QUERY_H_
#define AIM_RTA_COMPILED_QUERY_H_

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "aim/common/logging.h"
#include "aim/common/status.h"
#include "aim/rta/dimension.h"
#include "aim/rta/group_table.h"
#include "aim/rta/partial_result.h"
#include "aim/rta/query.h"
#include "aim/rta/simd.h"
#include "aim/storage/column_map.h"

namespace aim {

/// Reusable per-thread scan scratch: the selection mask plus the selected
/// row ids and their group indices (GROUP BY's two-pass bucket loop), all
/// sized to bucket_size. The mask buffer is 64-byte aligned and its capacity is a multiple of 64:
/// the SIMD filter kernels read/write the mask in full vector registers
/// (up to 64 mask bytes per AVX-512 CountMask step), and cacheline-aligned
/// scratch keeps each pool worker's mask traffic off its neighbors' lines.
struct ScanScratch {
  std::uint8_t* MaskFor(std::uint32_t n) {
    if (capacity_ < n) {
      const std::size_t cap = (n + 63u) & ~std::size_t{63};
      mask_.reset(static_cast<std::uint8_t*>(
          ::operator new(cap, std::align_val_t{64})));
      capacity_ = cap;
      AIM_DCHECK(reinterpret_cast<std::uintptr_t>(mask_.get()) % 64 == 0);
    }
    return mask_.get();
  }

  std::size_t capacity() const { return capacity_; }

  std::uint32_t* RowsFor(std::uint32_t n) {
    if (rows_.size() < n) rows_.resize(n);
    return rows_.data();
  }
  std::uint32_t* GroupsFor(std::uint32_t n) {
    if (groups_.size() < n) groups_.resize(n);
    return groups_.data();
  }

 private:
  struct AlignedDelete {
    void operator()(std::uint8_t* p) const {
      ::operator delete(p, std::align_val_t{64});
    }
  };
  std::unique_ptr<std::uint8_t[], AlignedDelete> mask_;
  std::size_t capacity_ = 0;
  std::vector<std::uint32_t> rows_;
  std::vector<std::uint32_t> groups_;
};

/// The immutable half of a compiled query: everything resolved against the
/// schema and the dimension catalog once per batch, then shared read-only
/// (shared_ptr<const QueryPlan>) by every partition and scan executor.
/// Compilation resolves
///   * WHERE predicates into typed SIMD column filters;
///   * dimension predicates into one membership byte per FK value (0xff =
///     the FK's dimension row passes), so the semi-join is a branch-free
///     mask AND during the scan (the "join happens at the storage node"
///     strategy of §3.4 — dimension tables are small, static and
///     replicated, so the reduction is exact). Several predicates on one FK
///     intersect into one array; string predicates compare label ids;
///   * GROUP BY a dimension column into an FK -> dense group id array plus
///     the group key of each id;
///   * select items into aggregate slots, top-k targets into typed columns.
/// Every FK-indexed array has DimensionTable::key_span() + 1 entries; the
/// last one answers "no dimension row" and FK values beyond the span are
/// clamped onto it.
struct QueryPlan {
  static constexpr std::uint32_t kNoGroup = 0xffffffffu;

  static StatusOr<std::shared_ptr<const QueryPlan>> Compile(
      const Query& query, const Schema* schema, const DimensionCatalog* dims);

  struct ColumnFilter {
    std::uint16_t attr;
    ValueType type;
    CmpOp op;
    Value constant;
  };
  struct FkFilter {
    std::uint16_t attr;  // u32 FK column
    std::vector<std::uint8_t> member;
  };
  /// One accumulator slot. Ratio select items produce two.
  struct AggSlot {
    std::uint32_t slot;
    std::uint16_t attr;  // kInvalidAttr = COUNT(*)
    ValueType type;
  };
  struct TopKColumn {
    std::uint16_t attr;
    ValueType type;
    std::uint16_t den_attr;  // kInvalidAttr: plain attribute
    ValueType den_type;
    bool ascending;
  };

  Query query;
  std::vector<ColumnFilter> filters;
  std::vector<FkFilter> fk_filters;
  std::vector<AggSlot> agg_slots;
  std::uint32_t num_slots = 0;

  // GROUP BY a matrix attribute (group_attr != kInvalidAttr) ...
  std::uint16_t group_attr = kInvalidAttr;
  ValueType group_attr_type = ValueType::kInt32;
  // ... or a dimension column through an FK.
  std::uint16_t group_fk_attr = kInvalidAttr;
  std::vector<std::uint32_t> fk_group;        // FK -> dim group id/kNoGroup
  std::vector<std::uint64_t> dim_group_keys;  // dim group id -> group key

  std::vector<TopKColumn> topk;
  ValueType entity_type = ValueType::kUInt64;
};

/// The per-executor half: accumulators for one pass of one plan over some
/// buckets. Cheap to create from a plan; one instance is owned by one scan
/// thread (not shared).
///
/// Usage per scan: Reset(), ProcessBucket() for every bucket, TakePartial().
///
/// GROUP BY runs in two passes per bucket: first each selected row gets a
/// group index (a dense-array lookup for dimension groups, a GroupTable
/// probe for matrix attributes), then one typed loop per aggregate column
/// folds the rows into their groups. Each group still sees its rows in
/// record order, so sums are bit-identical to a row-at-a-time evaluation.
///
/// Top-k keeps, per target, a heap of the best k entries so far in the
/// order TopKBefore (value, then entity id; NaN never enters). Once the
/// heap is full, a bucket whose best selected value (SIMD min/max) cannot
/// reach the current k-th value is skipped, and in the others only rows
/// that meet it are pushed.
class CompiledQuery {
 public:
  /// Compiles a plan and wraps it (single-query callers).
  static StatusOr<CompiledQuery> Compile(const Query& query,
                                         const Schema* schema,
                                         const DimensionCatalog* dims);

  explicit CompiledQuery(std::shared_ptr<const QueryPlan> plan);

  const Query& query() const { return plan_->query; }
  const std::shared_ptr<const QueryPlan>& plan() const { return plan_; }

  /// Clears accumulated state for a fresh scan pass.
  void Reset();

  /// Consumes one bucket (Algorithm 5's process_bucket(bucket, query)).
  void ProcessBucket(const ColumnMap& map, const ColumnMap::BucketRef& bucket,
                     ScanScratch* scratch);

  /// Moves the accumulated partial result out (ends the pass).
  PartialResult TakePartial();

 private:
  void AggregateBucket(const ColumnMap& map,
                       const ColumnMap::BucketRef& bucket,
                       const std::uint8_t* mask, std::uint32_t count);
  void GroupByBucket(const ColumnMap& map, const ColumnMap::BucketRef& bucket,
                     const std::uint8_t* mask, std::uint32_t count,
                     ScanScratch* scratch);
  void TopKBucket(const ColumnMap& map, const ColumnMap::BucketRef& bucket,
                  const std::uint8_t* mask, std::uint32_t count);

  /// Appends a group with fresh accumulators; returns its index.
  std::uint32_t NewGroup(std::uint64_t key);

  std::shared_ptr<const QueryPlan> plan_;

  // Groups in first-seen order: keys, and num_slots accumulators each.
  std::vector<std::uint64_t> group_keys_;
  std::vector<simd::AggAccum> accums_;
  GroupTable group_table_;                    // matrix-attr key -> group
  std::vector<std::uint32_t> dim_group_index_;  // dim group id -> group

  std::vector<std::vector<TopKEntry>> topk_;  // per target: heap, worst first
};

}  // namespace aim

#endif  // AIM_RTA_COMPILED_QUERY_H_
