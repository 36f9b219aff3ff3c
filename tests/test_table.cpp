#include "common/table.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace vcdl {
namespace {

TEST(Table, RowWidthMustMatchHeader) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), Error);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), Error);
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, EmptyHeaderRejected) { EXPECT_THROW(Table({}), Error); }

TEST(Table, PrintAlignsColumns) {
  Table t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Each data row starts at column 0 with the name left-aligned to the
  // widest cell; "22" must appear at the same column in both rows.
  const auto line1 = out.find("x");
  const auto line2 = out.find("longer");
  ASSERT_NE(line1, std::string::npos);
  ASSERT_NE(line2, std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);  // header rule
}

TEST(Table, FmtDouble) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(2.0, 4), "2.0000");
}

TEST(Table, FmtIntegers) {
  EXPECT_EQ(Table::fmt(std::size_t{42}), "42");
  EXPECT_EQ(Table::fmt(-7ll), "-7");
}

}  // namespace
}  // namespace vcdl
