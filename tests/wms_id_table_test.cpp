// IdTable: interning semantics, handle density, arena stability, reserve
// and move behaviour — the invariants the flat workflow core builds on.
#include "wms/id_table.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace pga::wms {
namespace {

TEST(IdTable, InternReturnsDenseHandlesInInsertionOrder) {
  IdTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.intern("alpha"), 0u);
  EXPECT_EQ(table.intern("beta"), 1u);
  EXPECT_EQ(table.intern("gamma"), 2u);
  EXPECT_EQ(table.size(), 3u);
  // Re-interning is idempotent: same handle, no growth.
  EXPECT_EQ(table.intern("beta"), 1u);
  EXPECT_EQ(table.size(), 3u);
}

TEST(IdTable, FindAndNameRoundTrip) {
  IdTable table;
  const std::uint32_t handle = table.intern("run_cap3_42");
  EXPECT_EQ(table.find("run_cap3_42"), handle);
  EXPECT_EQ(table.name(handle), "run_cap3_42");
  EXPECT_TRUE(table.contains("run_cap3_42"));
  EXPECT_EQ(table.find("run_cap3_43"), IdTable::kInvalid);
  EXPECT_FALSE(table.contains("run_cap3_43"));
  EXPECT_THROW((void)table.name(99), common::InvalidArgument);
}

TEST(IdTable, FindOnEmptyTableIsInvalid) {
  const IdTable table;
  EXPECT_EQ(table.find("anything"), IdTable::kInvalid);
}

TEST(IdTable, ViewsStayValidAcrossGrowth) {
  // name() views point into the arena and must survive arbitrary growth
  // (blocks are chained, never reallocated).
  IdTable table;
  const std::string_view first = table.name(table.intern("job_0"));
  std::vector<std::string_view> views;
  for (int i = 0; i < 20'000; ++i) {
    views.push_back(table.name(table.intern(common::cat({"job_", std::to_string(i)}))));
  }
  EXPECT_EQ(first, "job_0");
  EXPECT_EQ(first.data(), views[0].data());
  for (int i = 0; i < 20'000; ++i) {
    EXPECT_EQ(views[static_cast<std::size_t>(i)], common::cat({"job_", std::to_string(i)}));
  }
  EXPECT_GT(table.arena_bytes(), 0u);
}

TEST(IdTable, EveryIdRoundTripsAtScale) {
  IdTable table;
  constexpr std::uint32_t kCount = 50'000;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(table.intern(common::cat({"id_", std::to_string(i)})), i);
  }
  ASSERT_EQ(table.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const std::string id = common::cat({"id_", std::to_string(i)});
    ASSERT_EQ(table.find(id), i) << id;
    ASSERT_EQ(table.name(i), id) << id;
  }
}

TEST(IdTable, ReservePreSizesWithoutChangingSemantics) {
  IdTable table;
  table.reserve(10'000, 200'000);
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    ASSERT_EQ(table.intern(common::cat({"j", std::to_string(i)})), i);
  }
  EXPECT_EQ(table.find("j9999"), 9999u);
  EXPECT_EQ(table.find("j10000"), IdTable::kInvalid);
}

TEST(IdTable, MovePreservesEntriesAndViews) {
  IdTable table;
  table.intern("one");
  table.intern("two");
  const std::string_view view = table.name(0);

  IdTable moved = std::move(table);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved.find("one"), 0u);
  EXPECT_EQ(moved.find("two"), 1u);
  // Arena blocks moved wholesale: the old view still points at live bytes.
  EXPECT_EQ(moved.name(0).data(), view.data());

  IdTable assigned;
  assigned.intern("other");
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_EQ(assigned.name(1), "two");
}

TEST(IdTable, EmptyStringIsAnOrdinaryId) {
  IdTable table;
  EXPECT_EQ(table.intern(""), 0u);
  EXPECT_EQ(table.find(""), 0u);
  EXPECT_EQ(table.name(0), "");
  EXPECT_EQ(table.intern("x"), 1u);
  EXPECT_EQ(table.intern(""), 0u);
}

}  // namespace
}  // namespace pga::wms
