#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace vcdl {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  VCDL_CHECK(!headers_.empty(), "Table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
  VCDL_CHECK(cells.size() == headers_.size(),
             "Table row width mismatch: expected " +
                 std::to_string(headers_.size()) + ", got " +
                 std::to_string(cells.size()));
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::fmt(std::size_t v) { return std::to_string(v); }
std::string Table::fmt(long long v) { return std::to_string(v); }

std::string Table::fmt_band(double lo, double hi, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << '[' << lo << ", " << hi
     << ']';
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (const auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

}  // namespace vcdl
