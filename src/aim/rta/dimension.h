#ifndef AIM_RTA_DIMENSION_H_
#define AIM_RTA_DIMENSION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "aim/common/status.h"

namespace aim {

/// A small, static dimension table (paper §2.3 / §3.4): RegionInfo,
/// SubscriptionType, Category, ... Replicated at every storage node, so
/// joins with the Analytics Matrix execute locally during the scan.
///
/// Rows are keyed by an application key (e.g. zip code) mapped to a dense
/// row id; columns are either numeric (u32) or labels (strings, used as
/// group-by output). Built once, immutable afterwards — which is what makes
/// replication cheap (paper §4.1(d)).
///
/// Keys are the values of u32 FK columns and are expected to be small and
/// dense, so the key -> row map is a flat array indexed by key (key_span()
/// entries) and compiled queries resolve joins with per-key arrays of the
/// same span. Keys must be <= kMaxKey; AddRow aborts on a larger one rather
/// than let a scan silently miss it.
class DimensionTable {
 public:
  enum class ColumnType : std::uint8_t { kUInt32 = 0, kString = 1 };

  /// Largest admissible key. Bounds every key-indexed array (4 B per key
  /// here, 1-4 B per key in each compiled query) at a few MB.
  static constexpr std::uint64_t kMaxKey = (std::uint64_t{1} << 20) - 1;

  explicit DimensionTable(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Schema building (before any AddRow).
  std::uint16_t AddUInt32Column(const std::string& name);
  std::uint16_t AddStringColumn(const std::string& name);

  /// Returns the column id, or kNoColumn.
  static constexpr std::uint16_t kNoColumn = 0xffff;
  std::uint16_t FindColumn(const std::string& name) const;
  std::uint16_t num_columns() const {
    return static_cast<std::uint16_t>(columns_.size());
  }
  ColumnType column_type(std::uint16_t col) const {
    return columns_[col].type;
  }
  const std::string& column_name(std::uint16_t col) const {
    return columns_[col].name;
  }

  /// Adds a row; `u32_values` / `str_values` must match the declared
  /// columns in order (u32 columns consume from u32_values, string columns
  /// from str_values). Returns the dense row id. Aborts on a duplicate key
  /// or a key above kMaxKey.
  std::uint32_t AddRow(std::uint64_t key,
                       const std::vector<std::uint32_t>& u32_values,
                       const std::vector<std::string>& str_values);

  std::uint32_t num_rows() const {
    return static_cast<std::uint32_t>(keys_.size());
  }

  static constexpr std::uint32_t kNoRow = 0xffffffffu;
  /// Dense row id for an application key (FK value), or kNoRow.
  std::uint32_t LookupRow(std::uint64_t key) const {
    return key < key_to_row_.size() ? key_to_row_[key] : kNoRow;
  }

  /// One past the largest key added (0 for an empty table): every key-
  /// indexed array over this table has this many entries.
  std::uint32_t key_span() const {
    return static_cast<std::uint32_t>(key_to_row_.size());
  }

  std::uint64_t row_key(std::uint32_t row) const { return keys_[row]; }
  std::uint32_t u32_value(std::uint32_t row, std::uint16_t col) const {
    return columns_[col].u32_data[row];
  }
  const std::string& string_value(std::uint32_t row,
                                  std::uint16_t col) const {
    return columns_[col].str_data[row];
  }

  /// Group-by key for a column value: u32 columns group by value, string
  /// columns group by a dense label id (resolved back via GroupLabel).
  std::uint64_t GroupKey(std::uint32_t row, std::uint16_t col) const;
  std::string GroupLabel(std::uint64_t group_key, std::uint16_t col) const;

  /// Label id of `label` in string column `col`, or kNoLabel. Lets string
  /// predicates compare label ids instead of strings.
  static constexpr std::uint32_t kNoLabel = 0xffffffffu;
  std::uint32_t FindLabel(std::uint16_t col, const std::string& label) const;
  /// Label id of `row` in string column `col`.
  std::uint32_t row_label(std::uint32_t row, std::uint16_t col) const {
    return columns_[col].row_label[row];
  }

 private:
  struct Column {
    std::string name;
    ColumnType type;
    std::vector<std::uint32_t> u32_data;
    std::vector<std::string> str_data;
    // For string columns: label -> dense label id (shared labels group
    // together, e.g. many zips in one city).
    std::unordered_map<std::string, std::uint32_t> label_ids;
    std::vector<std::string> labels;         // label id -> text
    std::vector<std::uint32_t> row_label;    // row -> label id
  };

  std::string name_;
  std::vector<Column> columns_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> key_to_row_;  // key -> row, kNoRow for holes
};

/// The set of dimension tables replicated at a node (or front-end).
class DimensionCatalog {
 public:
  static constexpr std::uint16_t kNoTable = 0xffff;

  /// Takes ownership. Returns the table id.
  std::uint16_t AddTable(DimensionTable table);

  std::uint16_t FindTable(const std::string& name) const;
  const DimensionTable& table(std::uint16_t id) const { return tables_[id]; }
  std::uint16_t num_tables() const {
    return static_cast<std::uint16_t>(tables_.size());
  }

 private:
  std::vector<DimensionTable> tables_;
  std::unordered_map<std::string, std::uint16_t> name_to_table_;
};

}  // namespace aim

#endif  // AIM_RTA_DIMENSION_H_
