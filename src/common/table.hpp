// Console table emitter used by the paper-reproduction benches.
//
// Every bench binary prints the rows or series of the paper table/figure it
// regenerates; Table renders them aligned for the terminal.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace vcdl {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Helpers for mixed-type rows.
  static std::string fmt(double v, int precision = 4);
  static std::string fmt(std::size_t v);
  static std::string fmt(long long v);
  /// "[lo, hi]", each bound at `precision` decimals.
  static std::string fmt_band(double lo, double hi, int precision);

  std::size_t rows() const { return rows_.size(); }

  /// Aligned monospace rendering with a rule under the header.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace vcdl
