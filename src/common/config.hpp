// Flat key=value configuration with typed accessors.
//
// Benches and examples accept `key=value` command-line overrides (for
// example `epochs=20 alpha=0.95 store=eventual`) so the paper experiments
// can be re-run at other scales without recompiling. Each getter records
// the key it reads, so a program that has read all its keys can reject the
// rest (reject_unread); a Config is therefore read from one thread.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>

namespace vcdl {

class Config {
 public:
  Config() = default;

  /// Parses argv-style `key=value` tokens; a token without `=` throws.
  static Config from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);

  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Throws InvalidArgument naming every key that no getter has read. A program calls it once it has read all its keys, before its
  /// first run, so a misspelt or dropped key fails instead of running the
  /// defaults.
  void reject_unread() const;

 private:
  /// The key's value, or null when it is not set; records the key as read.
  const std::string* find(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace vcdl
