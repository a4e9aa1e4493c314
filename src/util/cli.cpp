#include "util/cli.hpp"

#include "util/env.hpp"
#include "util/error.hpp"

namespace updec {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      kv_[arg] = argv[++i];
    } else {
      kv_[arg] = "";  // boolean flag
    }
  }
}

bool CliArgs::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

namespace {

/// Parse the full value string as a T (env::parse_strict); any leftover
/// characters (or no digits at all) mean the option is malformed.
template <typename T>
T parse_or_throw(const std::string& key, const std::string& value) {
  T parsed{};
  UPDEC_REQUIRE(env::parse_strict(value, parsed),
                "malformed numeric value for --" + key + ": '" + value + "'");
  return parsed;
}

}  // namespace

int CliArgs::get_int(const std::string& key, int fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end() || it->second.empty()) return fallback;
  return parse_or_throw<int>(key, it->second);
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end() || it->second.empty()) return fallback;
  return parse_or_throw<double>(key, it->second);
}

}  // namespace updec
