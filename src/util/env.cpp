#include "util/env.hpp"

#include <cstdlib>

#include "util/log.hpp"

namespace updec::env {

namespace {

template <typename T>
T get_or_warn(const char* name, T fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  T parsed{};
  if (parse_strict(value, parsed)) return parsed;
  log_warn() << name << "='" << value
             << "' is not a valid number; using the default";
  return fallback;
}

}  // namespace

double get_double(const char* name, double fallback) {
  return get_or_warn<double>(name, fallback);
}

std::int64_t get_i64(const char* name, std::int64_t fallback) {
  return get_or_warn<std::int64_t>(name, fallback);
}

std::uint64_t get_u64(const char* name, std::uint64_t fallback) {
  return get_or_warn<std::uint64_t>(name, fallback);
}

bool get_bool(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  std::string v(value);
  for (char& c : v)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (v == "1" || v == "on" || v == "true" || v == "yes") return true;
  if (v == "0" || v == "off" || v == "false" || v == "no") return false;
  log_warn() << name << "='" << value
             << "' is not a valid boolean (1/on/true/yes or 0/off/false/no); "
             << "using the default";
  return fallback;
}

std::string get_string(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return value;
}

}  // namespace updec::env
