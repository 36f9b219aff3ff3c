#include "common/config.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vcdl {
namespace {

void parse_token(Config& cfg, const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw InvalidArgument("Config: expected key=value, got '" + token + "'");
  }
  cfg.set(token.substr(0, eq), token.substr(eq + 1));
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) parse_token(cfg, argv[i]);
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

const std::string* Config::find(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : *v;
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  const std::string* v = find(key);
  if (v == nullptr) return fallback;
  try {
    std::size_t pos = 0;
    const auto n = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument(*v);
    return n;
  } catch (const std::exception&) {
    throw InvalidArgument("Config: '" + key + "' is not an integer: " + *v);
  }
}

double Config::get_double(const std::string& key, double fallback) const {
  const std::string* v = find(key);
  if (v == nullptr) return fallback;
  try {
    std::size_t pos = 0;
    const auto d = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument(*v);
    return d;
  } catch (const std::exception&) {
    throw InvalidArgument("Config: '" + key + "' is not a number: " + *v);
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const std::string* found = find(key);
  if (found == nullptr) return fallback;
  std::string v = *found;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw InvalidArgument("Config: '" + key + "' is not a bool: " + *found);
}

void Config::reject_unread() const {
  std::string unread;
  std::size_t count = 0;
  for (const auto& [key, _] : values_) {
    if (read_.count(key) > 0) continue;
    unread += (count++ == 0 ? "'" : ", '") + key + "'";
  }
  if (count > 0) {
    throw InvalidArgument(std::string("Config: unknown key") +
                          (count > 1 ? "s " : " ") + unread);
  }
}

}  // namespace vcdl
