#include "aim/rta/dimension.h"

#include "aim/common/logging.h"

namespace aim {

std::uint16_t DimensionTable::AddUInt32Column(const std::string& name) {
  AIM_CHECK_MSG(keys_.empty(), "add columns before rows");
  Column c;
  c.name = name;
  c.type = ColumnType::kUInt32;
  columns_.push_back(std::move(c));
  return static_cast<std::uint16_t>(columns_.size() - 1);
}

std::uint16_t DimensionTable::AddStringColumn(const std::string& name) {
  AIM_CHECK_MSG(keys_.empty(), "add columns before rows");
  Column c;
  c.name = name;
  c.type = ColumnType::kString;
  columns_.push_back(std::move(c));
  return static_cast<std::uint16_t>(columns_.size() - 1);
}

std::uint16_t DimensionTable::FindColumn(const std::string& name) const {
  for (std::uint16_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return kNoColumn;
}

std::uint32_t DimensionTable::AddRow(
    std::uint64_t key, const std::vector<std::uint32_t>& u32_values,
    const std::vector<std::string>& str_values) {
  AIM_CHECK_MSG(key <= kMaxKey,
                "dimension key %llu of table %s exceeds kMaxKey %llu",
                static_cast<unsigned long long>(key), name_.c_str(),
                static_cast<unsigned long long>(kMaxKey));
  AIM_CHECK_MSG(LookupRow(key) == kNoRow, "duplicate dimension key");
  const std::uint32_t row = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(key);
  if (key >= key_to_row_.size()) key_to_row_.resize(key + 1, kNoRow);
  key_to_row_[key] = row;

  std::size_t ui = 0, si = 0;
  for (Column& c : columns_) {
    if (c.type == ColumnType::kUInt32) {
      AIM_CHECK(ui < u32_values.size());
      c.u32_data.push_back(u32_values[ui++]);
    } else {
      AIM_CHECK(si < str_values.size());
      const std::string& label = str_values[si++];
      auto [it, inserted] =
          c.label_ids.emplace(label, static_cast<std::uint32_t>(
                                         c.labels.size()));
      if (inserted) c.labels.push_back(label);
      c.row_label.push_back(it->second);
      c.str_data.push_back(label);
    }
  }
  return row;
}

std::uint32_t DimensionTable::FindLabel(std::uint16_t col,
                                        const std::string& label) const {
  const Column& c = columns_[col];
  auto it = c.label_ids.find(label);
  return it == c.label_ids.end() ? kNoLabel : it->second;
}

std::uint64_t DimensionTable::GroupKey(std::uint32_t row,
                                       std::uint16_t col) const {
  const Column& c = columns_[col];
  if (c.type == ColumnType::kUInt32) return c.u32_data[row];
  return c.row_label[row];
}

std::string DimensionTable::GroupLabel(std::uint64_t group_key,
                                       std::uint16_t col) const {
  const Column& c = columns_[col];
  if (c.type == ColumnType::kUInt32) return std::to_string(group_key);
  if (group_key < c.labels.size()) {
    return c.labels[static_cast<std::uint32_t>(group_key)];
  }
  return "<label#" + std::to_string(group_key) + ">";
}

std::uint16_t DimensionCatalog::AddTable(DimensionTable table) {
  const std::uint16_t id = static_cast<std::uint16_t>(tables_.size());
  name_to_table_.emplace(table.name(), id);
  tables_.push_back(std::move(table));
  return id;
}

std::uint16_t DimensionCatalog::FindTable(const std::string& name) const {
  auto it = name_to_table_.find(name);
  return it == name_to_table_.end() ? kNoTable : it->second;
}

}  // namespace aim
