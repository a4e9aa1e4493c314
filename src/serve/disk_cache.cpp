#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include <unistd.h>

#include "serve/cache.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace updec::serve {

namespace {

// Entry layout: header then payload, all host-endian (the cache is a
// per-machine artefact store, not an interchange format).
constexpr char kMagic[8] = {'U', 'P', 'D', 'E', 'C', 'O', 'P', 'C'};
constexpr std::uint32_t kFormatVersion = 1;

struct EntryHeader {
  char magic[8];
  std::uint32_t version = 0;
  std::uint32_t reserved = 0;
  std::uint64_t key_hi = 0;
  std::uint64_t key_lo = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t payload_checksum = 0;
};
static_assert(sizeof(EntryHeader) == 48, "entry header must be packed");

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string cache_dir_from_env() {
  return env::get_string("UPDEC_CACHE_DIR");
}

DiskCache::DiskCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_, ec)) {
    log_warn() << "serve cache: cannot use disk tier directory '" << dir_
               << "' (" << ec.message() << "); persistence disabled";
    return;
  }
  enabled_ = true;
  log_info() << "serve cache: persistent tier armed at " << dir_;
}

std::string DiskCache::path_for(const CacheKey& key) const {
  return dir_ + "/" + hex16(key.hi) + "-" + hex16(key.lo) + ".opc";
}

bool DiskCache::load(const CacheKey& key, std::string& payload) {
  if (!enabled_) return false;
  const std::string path = path_for(key);
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    std::lock_guard lock(stats_mutex_);
    ++stats_.misses;
    UPDEC_METRIC_ADD("serve/cache.disk_misses", 1);
    return false;
  }

  // Anything short of a fully verified entry is corruption: count it,
  // delete the file so it cannot poison later runs, report a miss -- the
  // caller recomputes and rewrites.
  const auto corrupt = [&](const char* why) {
    is.close();
    reject(key, why);
    return false;
  };

  EntryHeader header;
  if (!is.read(reinterpret_cast<char*>(&header), sizeof header))
    return corrupt("truncated header");
  if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0)
    return corrupt("bad magic");
  if (header.version != kFormatVersion) return corrupt("format version");
  if (header.key_hi != key.hi || header.key_lo != key.lo)
    return corrupt("key mismatch");

  payload.resize(header.payload_size);
  if (!is.read(payload.data(),
               static_cast<std::streamsize>(header.payload_size)))
    return corrupt("truncated payload");
  if (is.peek() != std::ifstream::traits_type::eof())
    return corrupt("trailing bytes");
  if (UPDEC_FAULT_POINT("serve.cache_disk_corrupt") && !payload.empty())
    payload[payload.size() / 2] ^= char{0x5A};  // simulated bit rot
  if (fnv1a64(payload.data(), payload.size()) != header.payload_checksum)
    return corrupt("payload checksum");

  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.hits;
  }
  UPDEC_METRIC_ADD("serve/cache.disk_hits", 1);
  return true;
}

bool DiskCache::store(const CacheKey& key, std::string_view payload) {
  if (!enabled_) return false;
  const std::string path = path_for(key);
  const auto fail = [&](const std::string& why) {
    log_warn() << "serve cache: disk write of " << path << " failed (" << why
               << "); serving from memory only";
    std::lock_guard lock(stats_mutex_);
    ++stats_.errors;
    UPDEC_METRIC_ADD("serve/cache.disk_errors", 1);
    return false;
  };

  if (UPDEC_FAULT_POINT("serve.cache_disk_write"))
    return fail("injected fault");

  EntryHeader header;
  std::memcpy(header.magic, kMagic, sizeof kMagic);
  header.version = kFormatVersion;
  header.key_hi = key.hi;
  header.key_lo = key.lo;
  header.payload_size = payload.size();
  header.payload_checksum = fnv1a64(payload.data(), payload.size());

  // Unique tmp name per process + store call, so concurrent writers (other
  // threads via distinct caches, or other processes sharing the directory)
  // never interleave bytes; the POSIX rename() makes the publish atomic and
  // last-writer-wins, which is fine for content-addressed entries.
  static std::atomic<std::uint64_t> sequence{0};
  const std::string tmp =
      path + ".tmp." +
      std::to_string(static_cast<long long>(::getpid())) + "." +
      std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.good()) return fail("cannot open tmp file");
    os.write(reinterpret_cast<const char*>(&header), sizeof header);
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    os.flush();
    if (!os.good()) {
      os.close();
      std::remove(tmp.c_str());
      return fail("short write");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail("rename");
  }
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.writes;
  }
  UPDEC_METRIC_ADD("serve/cache.disk_writes", 1);
  return true;
}

void DiskCache::reject(const CacheKey& key, const std::string& why) {
  if (!enabled_) return;
  const std::string path = path_for(key);
  log_warn() << "serve cache: rejecting corrupt disk entry " << path << " ("
             << why << ")";
  std::remove(path.c_str());
  std::lock_guard lock(stats_mutex_);
  ++stats_.corrupt;
  UPDEC_METRIC_ADD("serve/cache.disk_corrupt", 1);
}

DiskCache::Stats DiskCache::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

}  // namespace updec::serve
