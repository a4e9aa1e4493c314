#include "serve/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "refine/refiner.hpp"
#include "util/env.hpp"
#include "util/error.hpp"

namespace updec::serve {

namespace {

// Each enum's names, indexed by value: to_string and the parsers share them.
constexpr const char* kProblemNames[] = {"laplace", "channel"};
constexpr const char* kStrategyNames[] = {"dp", "dal", "fd"};
constexpr const char* kStatusNames[] = {
    "pending", "running", "succeeded", "cancelled", "deadline_expired",
    "failed", "retrying"};

template <std::size_t N, typename E>
const char* name_of(const char* const (&names)[N], E value) {
  const auto i = static_cast<std::size_t>(value);
  return i < N ? names[i] : "?";
}

template <typename E, std::size_t N>
E parse_name(const char* const (&names)[N], const std::string& s,
             const char* what) {
  std::string want;
  for (std::size_t i = 0; i < N; ++i) {
    if (s == names[i]) return static_cast<E>(i);
    if (i > 0) want += '|';
    want += names[i];
  }
  throw Error("unknown " + std::string(what) + " '" + s + "' (want " + want +
              ")");
}

}  // namespace

const char* to_string(ProblemKind kind) { return name_of(kProblemNames, kind); }
const char* to_string(Strategy strategy) {
  return name_of(kStrategyNames, strategy);
}
const char* to_string(JobStatus status) {
  return name_of(kStatusNames, status);
}

ProblemKind parse_problem_kind(const std::string& s) {
  if (s == "navier-stokes") return ProblemKind::kChannel;
  return parse_name<ProblemKind>(kProblemNames, s, "problem kind");
}

Strategy parse_strategy(const std::string& s) {
  return parse_name<Strategy>(kStrategyNames, s, "strategy");
}

double resolved_refine_fraction(const Scenario& sc) {
  if (sc.refine_cycles > 0 && sc.refine_fraction > 0.0 &&
      sc.refine_fraction < 1.0)
    return sc.refine_fraction;
  return refine::RefineConfig{}.refine_fraction;
}

KeyBuilder family_key(const Scenario& sc, std::string_view domain) {
  Scenario family = sc;
  family.refine_fraction = resolved_refine_fraction(sc);
  KeyBuilder kb(domain);
  for_each_field(family, [&](const FieldInfo& f, const auto& value) {
    using V = std::decay_t<decltype(value)>;
    if (f.role != FieldRole::kDiscretisation) return;
    if (f.only && *f.only != sc.problem) return;
    if constexpr (std::is_floating_point_v<V>)
      kb.add(value);
    else if constexpr (!std::is_same_v<V, std::string>)
      kb.add(static_cast<std::int64_t>(value));  // enums and integers
  });
  return kb;
}

namespace {

void parse_value(std::string_view cell, std::string& out) { out = cell; }

void parse_value(std::string_view cell, ProblemKind& out) {
  out = parse_problem_kind(std::string(cell));
}

void parse_value(std::string_view cell, Strategy& out) {
  out = parse_strategy(std::string(cell));
}

template <typename T>
void parse_value(std::string_view cell, T& out)
  requires std::is_arithmetic_v<T>
{
  T parsed{};
  if (!env::parse_strict(cell, parsed) ||
      !std::isfinite(static_cast<double>(parsed)))
    throw Error("malformed number '" + std::string(cell) + "'");
  out = parsed;
}

}  // namespace

void set_field(Scenario& sc, std::string_view column, std::string_view cell) {
  bool found = false;
  for_each_field(sc, [&](const FieldInfo& f, auto& value) {
    if (f.name != column) return;
    found = true;
    if (cell.empty()) return;
    try {
      parse_value(cell, value);
    } catch (const Error& e) {
      throw Error("column '" + std::string(column) + "': " + e.what());
    }
  });
  if (!found) throw Error("unknown column '" + std::string(column) + "'");
}

std::vector<Scenario> parse_manifest(std::istream& in,
                                     const std::string& source) {
  std::vector<Scenario> scenarios;
  std::vector<std::string> columns;  // empty until the header row
  const auto has = [&columns](const std::string& name) {
    return std::find(columns.begin(), columns.end(), name) != columns.end();
  };
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF file
    if (line.empty() || line[0] == '#') continue;
    try {
      std::vector<std::string> cells;
      std::stringstream row(line);
      for (std::string cell; std::getline(row, cell, ',');)
        cells.push_back(cell);
      Scenario sc;
      if (columns.empty()) {  // the header row
        for (const std::string& name : cells) {
          set_field(sc, name, "");  // throws on an unknown column
          if (has(name)) throw Error("duplicated column '" + name + "'");
          columns.push_back(name);
        }
        if (!has("id")) throw Error("the header has no 'id' column");
        continue;
      }
      if (cells.size() > columns.size())
        throw Error(std::to_string(cells.size()) + " cells under " +
                    std::to_string(columns.size()) + " header columns");
      for (std::size_t i = 0; i < cells.size(); ++i)
        set_field(sc, columns[i], cells[i]);
      if (sc.id.empty()) throw Error("missing scenario id");
      scenarios.push_back(std::move(sc));
    } catch (const Error& e) {
      throw Error(source + " line " + std::to_string(line_no) + ": " +
                  e.what());
    }
  }
  if (scenarios.empty()) throw Error("manifest has no scenarios: " + source);
  return scenarios;
}

std::vector<Scenario> load_manifest(const std::string& path) {
  std::ifstream is(path);
  UPDEC_REQUIRE(is.good(), "cannot open manifest " + path);
  return parse_manifest(is, path);
}

}  // namespace updec::serve
