#pragma once
/// \file codec.hpp
/// \brief The binary payload codec of the wire frames and disk-tier
///        artefacts: scalars little-endian, doubles as raw bits (bit-exact
///        round trips), bulk arrays in host order (little-endian on every
///        supported target). The Reader throws updec::Error on truncation,
///        trailing bytes or an out-of-range value. Both classes overload
///        operator() per field type, so one record table or payload layout
///        encodes with a Writer and decodes with a Reader.

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "serve/cache.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace updec::serve {

/// Sanity bound on a single payload; a JobReport with a full cost history
/// is kilobytes, so anything near this is stream corruption, not data.
inline constexpr std::uint64_t kMaxPayloadBytes = 64ull << 20;

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    out_.append(s.data(), s.size());
  }
  template <typename T>
  void bulk(const T* data, std::size_t n) {
    out_.append(reinterpret_cast<const char*>(data), n * sizeof(T));
  }
  [[nodiscard]] std::string take() { return std::move(out_); }

  void operator()(std::uint64_t v) { u64(v); }
  void operator()(int v) { u64(static_cast<std::uint64_t>(std::int64_t{v})); }
  void operator()(double v) { f64(v); }
  void operator()(bool v) { u8(v ? 1 : 0); }
  void operator()(const std::string& s) { str(s); }
  template <typename E>
  void operator()(E e)
    requires std::is_enum_v<E>
  {
    u8(static_cast<std::uint8_t>(e));
  }
  template <typename T>
  void operator()(const std::vector<T>& v) {
    u64(v.size());
    for (const T& x : v) (*this)(x);
  }
  void operator()(const metrics::CounterSample& c) {
    str(c.name);
    u64(c.value);
  }
  void operator()(const std::map<std::string, OperatorCache::ClassStats>& m) {
    u64(m.size());
    for (const auto& [name, cs] : m) {
      str(name);
      for_each_stat(*this, cs);
    }
  }
  template <typename T>
  void operator()(StatKind, const T& v) {
    (*this)(v);
  }

 private:
  template <typename U>
  void le(U v) {
    for (std::size_t i = 0; i < sizeof v; ++i)
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }

  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(in_[pos_++]);
  }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(in_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  template <typename T>
  void bulk(T* out, std::size_t n) {
    need(n * sizeof(T));
    std::memcpy(out, in_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  }
  /// Every payload decode ends with this: trailing bytes mean the writer
  /// and we disagree about the layout, which is as fatal as truncation.
  void finish() const {
    if (pos_ != in_.size()) throw Error("payload: trailing bytes");
  }

  void operator()(std::uint64_t& v) { v = u64(); }
  void operator()(int& v) {
    v = static_cast<int>(static_cast<std::int64_t>(u64()));
  }
  void operator()(double& v) { v = f64(); }
  void operator()(bool& v) { v = u8() != 0; }
  void operator()(std::string& s) { s = str(); }
  /// Enum bytes are range-checked: to_string() names every valid value.
  template <typename E>
  void operator()(E& e)
    requires std::is_enum_v<E>
  {
    e = static_cast<E>(u8());
    if (std::string_view(to_string(e)) == "?")
      throw Error("payload: enum byte out of range");
  }
  template <typename T>
  void operator()(std::vector<T>& v) {
    // An element takes at least one byte (bool, enum) or eight (numbers,
    // strings), so a length the rest of the payload cannot hold is
    // corruption; rejecting it before the resize bounds the allocation.
    constexpr std::size_t kMinBytes =
        std::is_same_v<T, bool> || std::is_enum_v<T> ? 1 : 8;
    const std::uint64_t n = u64();
    if (n > (in_.size() - pos_) / kMinBytes)
      throw Error("payload: sequence length out of range");
    v.resize(static_cast<std::size_t>(n));
    for (T& x : v) (*this)(x);
  }
  void operator()(metrics::CounterSample& c) {
    c.name = str();
    c.value = u64();
  }
  void operator()(std::map<std::string, OperatorCache::ClassStats>& m) {
    for (std::uint64_t n = u64(); n > 0; --n) {
      std::string name = str();
      OperatorCache::ClassStats cs;
      for_each_stat(*this, cs);
      m.emplace(std::move(name), cs);
    }
  }
  template <typename T>
  void operator()(StatKind, T& v) {
    (*this)(v);
  }

 private:
  void need(std::uint64_t n) {
    if (n > in_.size() - pos_) throw Error("payload: truncated");
  }
  template <typename U>
  U le() {
    need(sizeof(U));
    U v = 0;
    for (std::size_t i = sizeof(U); i-- > 0;)
      v = static_cast<U>((v << 8) | static_cast<unsigned char>(in_[pos_ + i]));
    pos_ += sizeof(U);
    return v;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
};

}  // namespace updec::serve
