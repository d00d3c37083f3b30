#include <gtest/gtest.h>

#include "aim/rta/dimension.h"
#include "aim/workload/dimension_data.h"

namespace aim {
namespace {

TEST(DimensionTableTest, BuildAndLookup) {
  DimensionTable t("RegionInfo");
  const std::uint16_t city = t.AddStringColumn("city");
  const std::uint16_t pop = t.AddUInt32Column("population");
  EXPECT_EQ(t.FindColumn("city"), city);
  EXPECT_EQ(t.FindColumn("population"), pop);
  EXPECT_EQ(t.FindColumn("nope"), DimensionTable::kNoColumn);

  const std::uint32_t r0 = t.AddRow(8001, {350000}, {"Zurich"});
  const std::uint32_t r1 = t.AddRow(8400, {110000}, {"Winterthur"});
  const std::uint32_t r2 = t.AddRow(8002, {350000}, {"Zurich"});
  EXPECT_EQ(t.num_rows(), 3u);

  EXPECT_EQ(t.LookupRow(8001), r0);
  EXPECT_EQ(t.LookupRow(8400), r1);
  EXPECT_EQ(t.LookupRow(9999), DimensionTable::kNoRow);

  EXPECT_EQ(t.string_value(r0, city), "Zurich");
  EXPECT_EQ(t.u32_value(r1, pop), 110000u);
  EXPECT_EQ(t.row_key(r2), 8002u);
}

TEST(DimensionTableTest, GroupKeysShareLabels) {
  DimensionTable t("RegionInfo");
  const std::uint16_t city = t.AddStringColumn("city");
  const std::uint32_t r0 = t.AddRow(1, {}, {"A"});
  const std::uint32_t r1 = t.AddRow(2, {}, {"B"});
  const std::uint32_t r2 = t.AddRow(3, {}, {"A"});
  // Same label -> same group key.
  EXPECT_EQ(t.GroupKey(r0, city), t.GroupKey(r2, city));
  EXPECT_NE(t.GroupKey(r0, city), t.GroupKey(r1, city));
  EXPECT_EQ(t.GroupLabel(t.GroupKey(r0, city), city), "A");
  EXPECT_EQ(t.GroupLabel(t.GroupKey(r1, city), city), "B");
}

TEST(DimensionTableTest, NumericGroupKeysAreValues) {
  DimensionTable t("T");
  const std::uint16_t c = t.AddUInt32Column("v");
  const std::uint32_t r0 = t.AddRow(1, {42}, {});
  EXPECT_EQ(t.GroupKey(r0, c), 42u);
  EXPECT_EQ(t.GroupLabel(42, c), "42");
}

TEST(DimensionTableTest, DenseKeysCoverHolesAndSpan) {
  DimensionTable t("T");
  const std::uint16_t label = t.AddStringColumn("label");
  EXPECT_EQ(t.key_span(), 0u);
  const std::uint32_t r0 = t.AddRow(5, {}, {"x"});
  const std::uint32_t r1 = t.AddRow(2, {}, {"y"});
  EXPECT_EQ(t.key_span(), 6u);  // keys 0..5
  EXPECT_EQ(t.LookupRow(5), r0);
  EXPECT_EQ(t.LookupRow(2), r1);
  EXPECT_EQ(t.LookupRow(3), DimensionTable::kNoRow);  // hole
  EXPECT_EQ(t.LookupRow(6), DimensionTable::kNoRow);  // beyond the span
  EXPECT_EQ(t.LookupRow(std::uint64_t{1} << 40), DimensionTable::kNoRow);
  EXPECT_EQ(t.FindLabel(label, "y"), t.row_label(r1, label));
  EXPECT_EQ(t.FindLabel(label, "z"), DimensionTable::kNoLabel);
}

TEST(DimensionTableDeathTest, KeyAboveBoundFailsAtAddRow) {
  DimensionTable t("T");
  t.AddUInt32Column("v");
  t.AddRow(DimensionTable::kMaxKey, {1}, {});  // the bound itself is fine
  EXPECT_EQ(t.key_span(), DimensionTable::kMaxKey + 1);
  EXPECT_DEATH(t.AddRow(DimensionTable::kMaxKey + 1, {2}, {}),
               "exceeds kMaxKey");
  EXPECT_DEATH(t.AddRow(std::uint64_t{1} << 40, {3}, {}), "exceeds kMaxKey");
}

TEST(DimensionCatalogTest, AddAndFind) {
  DimensionCatalog catalog;
  DimensionTable a("A"), b("B");
  const std::uint16_t ia = catalog.AddTable(std::move(a));
  const std::uint16_t ib = catalog.AddTable(std::move(b));
  EXPECT_EQ(catalog.num_tables(), 2u);
  EXPECT_EQ(catalog.FindTable("A"), ia);
  EXPECT_EQ(catalog.FindTable("B"), ib);
  EXPECT_EQ(catalog.FindTable("C"), DimensionCatalog::kNoTable);
  EXPECT_EQ(catalog.table(ia).name(), "A");
}

TEST(BenchmarkDimsTest, DeterministicFromSeed) {
  BenchmarkDimsOptions opts;
  opts.seed = 5;
  const BenchmarkDims a = MakeBenchmarkDims(opts);
  const BenchmarkDims b = MakeBenchmarkDims(opts);
  ASSERT_EQ(a.catalog.num_tables(), 4u);
  const DimensionTable& ra = a.catalog.table(a.region_info);
  const DimensionTable& rb = b.catalog.table(b.region_info);
  ASSERT_EQ(ra.num_rows(), rb.num_rows());
  for (std::uint32_t i = 0; i < ra.num_rows(); ++i) {
    EXPECT_EQ(ra.string_value(i, a.region_city),
              rb.string_value(i, b.region_city));
  }
}

TEST(BenchmarkDimsTest, GeographyRollsUpConsistently) {
  const BenchmarkDims dims = MakeBenchmarkDims();
  const DimensionTable& region = dims.catalog.table(dims.region_info);
  EXPECT_EQ(region.num_rows(), dims.num_zips);
  // Every zip has non-empty city/region/country, and a given city always
  // maps to the same region (1:n rollup).
  std::unordered_map<std::string, std::string> city_to_region;
  for (std::uint32_t r = 0; r < region.num_rows(); ++r) {
    const std::string city = region.string_value(r, dims.region_city);
    const std::string reg = region.string_value(r, dims.region_region);
    ASSERT_FALSE(city.empty());
    ASSERT_FALSE(reg.empty());
    auto [it, inserted] = city_to_region.emplace(city, reg);
    EXPECT_EQ(it->second, reg) << "city " << city << " spans regions";
  }
}

TEST(BenchmarkDimsTest, AuxiliaryTablesSized) {
  BenchmarkDimsOptions opts;
  opts.num_subscription_types = 4;
  opts.num_categories = 5;
  opts.num_cell_value_types = 3;
  const BenchmarkDims dims = MakeBenchmarkDims(opts);
  EXPECT_EQ(dims.catalog.table(dims.subscription_type).num_rows(), 4u);
  EXPECT_EQ(dims.catalog.table(dims.category).num_rows(), 5u);
  EXPECT_EQ(dims.catalog.table(dims.cell_value_type).num_rows(), 3u);
  EXPECT_EQ(dims.subscription_types.size(), 4u);
  EXPECT_EQ(dims.categories.size(), 5u);
  EXPECT_EQ(dims.cell_value_types.size(), 3u);
}

}  // namespace
}  // namespace aim
