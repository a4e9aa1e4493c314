#pragma once
/// \file cache.hpp
/// \brief Content-addressed operator cache for the scenario-serving runtime.
///
/// Assembling a global collocation matrix is O(N^2 k) and factoring it is
/// O(N^3); both depend only on (node layout, kernel, operator/row config).
/// A batch of scenarios that share a discretisation should therefore pay
/// for assembly + factorisation exactly once. This cache memoizes those
/// artefacts under 128-bit content keys built from fingerprints of their
/// inputs:
///
///   * fingerprint(PointCloud) -- positions, boundary kinds, normals, tags;
///   * fingerprint(Kernel)     -- name + phi/phi'/phi'' sampled at probe
///                                radii, so shape parameters (epsilon) and
///                                PHS exponents change the key even though
///                                they are hidden behind the virtual
///                                interface;
///   * fingerprint(Matrix)     -- raw bytes of an assembled operator (the
///                                same content address
///                                rbf::GlobalCollocation::content_hash()
///                                uses).
///
/// Eviction is LRU under a byte budget (UPDEC_CACHE_BYTES, default 512 MiB;
/// 0 disables storage entirely -- get_or_compute() then degenerates to
/// single-flight compute). Lookups are thread-safe, and concurrent misses on
/// the same key are single-flighted: one caller computes, the rest block on
/// a shared future, so a 16-job batch never factors the same matrix twice.
///
/// Counters (when metrics are enabled): serve/cache.hits, .misses,
/// .evictions, .inflight_waits; gauge serve/cache.bytes.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "la/iterative.hpp"
#include "la/lu.hpp"
#include "la/robust_solve.hpp"
#include "la/sparse.hpp"
#include "pointcloud/cloud.hpp"
#include "rbf/collocation.hpp"
#include "rbf/kernels.hpp"
#include "rbf/operators.hpp"
#include "rbf/rbffd.hpp"
#include "rom/pod_basis.hpp"

namespace updec::serve {

/// 128-bit content address: two FNV-1a lanes from different starting
/// states, which make an accidental full-key collision astronomically
/// unlikely. The lanes share one prime, so their low bits move together:
/// finalise a key before reducing it modulo a small number.
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const CacheKey& a, const CacheKey& b) {
    return !(a == b);
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// 64-bit FNV-1a over `n` bytes: the payload checksum of wire frames and
/// disk-tier entries.
[[nodiscard]] std::uint64_t fnv1a64(const void* data, std::size_t n);

/// Incremental key construction: seed with a domain string (namespacing
/// different artefact types computed from the same inputs), then mix in
/// fingerprints, config scalars and strings.
class KeyBuilder {
 public:
  explicit KeyBuilder(std::string_view domain);

  KeyBuilder& add_bytes(const void* data, std::size_t n);
  KeyBuilder& add(std::uint64_t v);
  KeyBuilder& add(std::int64_t v) { return add(static_cast<std::uint64_t>(v)); }
  KeyBuilder& add(double v);  ///< bit pattern, so -0.0 != 0.0 by design
  KeyBuilder& add(std::string_view s);

  [[nodiscard]] CacheKey key() const { return {hi_, lo_}; }

 private:
  std::uint64_t hi_;
  std::uint64_t lo_;
};

/// Content fingerprints of the cache's input objects.
[[nodiscard]] std::uint64_t fingerprint(const pc::PointCloud& cloud);
/// Behavioural: name() + phi/dphi/d2phi sampled at fixed probe radii, so
/// kernels that differ only in hidden parameters (epsilon, exponent) get
/// distinct fingerprints.
[[nodiscard]] std::uint64_t fingerprint(const rbf::Kernel& kernel);
[[nodiscard]] std::uint64_t fingerprint(const la::Matrix& m);
/// Structure + values of a CSR operator (row pointers, column indices, raw
/// value bytes) -- the content address of a sparse system matrix.
[[nodiscard]] std::uint64_t fingerprint(const la::CsrMatrix& m);
[[nodiscard]] std::uint64_t fingerprint(const rbf::LinearOp& op);

/// Byte budget implied by the environment: UPDEC_CACHE_BYTES when set and
/// parseable (0 allowed: disables storage), else 512 MiB. Malformed values
/// warn and fall back (strict whole-string parse; no silent prefixes).
[[nodiscard]] std::size_t byte_budget_from_env();

/// Disk-tier directory implied by the environment: UPDEC_CACHE_DIR when set
/// and non-empty, else "" (disk tier disarmed).
[[nodiscard]] std::string cache_dir_from_env();

/// Crash-safe persistent blob store under the in-memory cache: one
/// content-addressed file per entry (`<dir>/<hi>-<lo>.opc`), written
/// atomically (tmp + std::rename, the driver-checkpoint discipline) with a
/// header carrying magic, format version, the full 128-bit key and an
/// FNV-1a payload checksum. Reads verify all of it; a corrupt or truncated
/// entry is counted (`serve/cache.disk_corrupt`), deleted and reported as a
/// miss -- never trusted. Write failures (disk full, permissions, the
/// `serve.cache_disk_write` fault site) degrade to a warning: the cache
/// keeps serving from memory.
class DiskCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;     ///< verified payload served from disk
    std::uint64_t misses = 0;   ///< no entry on disk
    std::uint64_t writes = 0;   ///< entries persisted
    std::uint64_t corrupt = 0;  ///< rejected (bad magic/version/key/checksum)
    std::uint64_t errors = 0;   ///< I/O failures (open/write/rename)
  };

  /// Creates `dir` (and parents) if missing. An unusable directory warns
  /// and leaves the tier disabled rather than throwing: persistence is an
  /// optimisation, not a correctness requirement.
  explicit DiskCache(std::string dir);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string path_for(const CacheKey& key) const;

  /// Load and verify the payload for `key` into `payload`. False on miss;
  /// corrupt entries are deleted and counted, then reported as a miss.
  [[nodiscard]] bool load(const CacheKey& key, std::string& payload);

  /// Atomically persist `payload` under `key`. Never throws.
  bool store(const CacheKey& key, std::string_view payload);

  /// Drop and count the on-disk entry for `key` as corrupt: it failed
  /// verification, or checksummed fine but did not decode.
  void reject(const CacheKey& key, const std::string& why);

  [[nodiscard]] Stats stats() const;

 private:
  std::string dir_;
  bool enabled_ = false;
  mutable std::mutex stats_mutex_;
  Stats stats_;
};

/// Thread-safe LRU cache of type-erased immutable artefacts.
class OperatorCache {
 public:
  /// Per-artefact-class accounting. Every lookup names its artefact class
  /// (e.g. "lu", "ilu0", "pod-basis"); without this the pod-basis traffic
  /// of the ROM tier would be indistinguishable from the LU rows it shares
  /// the cache with.
  struct ClassStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;    ///< currently resident
    std::size_t entries = 0;  ///< currently resident
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;          ///< compute actually ran
    std::uint64_t evictions = 0;
    std::uint64_t inflight_waits = 0;  ///< joined another caller's compute
    std::size_t bytes = 0;             ///< currently resident
    std::size_t entries = 0;
    std::size_t byte_budget = 0;
    std::map<std::string, ClassStats> by_class;
    DiskCache::Stats disk;             ///< zeroed when no disk tier is armed
  };

  /// A computed artefact plus its resident size (for budget accounting).
  template <typename T>
  struct Sized {
    std::shared_ptr<const T> value;
    std::size_t bytes = 0;
  };

  /// `disk_dir` non-empty arms the persistent tier (UPDEC_CACHE_DIR by
  /// default); artefacts registered through get_or_compute_disk() then
  /// survive process restarts and warm-promote into the in-memory LRU.
  explicit OperatorCache(std::size_t byte_budget = byte_budget_from_env(),
                         std::string disk_dir = cache_dir_from_env());

  OperatorCache(const OperatorCache&) = delete;
  OperatorCache& operator=(const OperatorCache&) = delete;

  /// Return the cached value for `key`, or run `compute` (exactly once
  /// across concurrent callers) and cache its result. `compute` must return
  /// Sized<T>; it runs outside the cache lock. An exception thrown by the
  /// leader's compute propagates to every caller waiting on that key and
  /// nothing is cached. `klass` names the artefact class for per-class
  /// stats accounting (a static string: "lu", "ilu0", "pod-basis", ...).
  template <typename T, typename Fn>
  std::shared_ptr<const T> get_or_compute(const CacheKey& key, Fn&& compute,
                                          const char* klass = "other") {
    std::shared_ptr<const void> p = get_or_compute_erased(
        key,
        [&compute]() -> Computed { return Sized<T>(compute()); },
        klass);
    return std::static_pointer_cast<const T>(std::move(p));
  }

  /// Like get_or_compute, with the persistent tier underneath: a memory
  /// miss first probes the disk tier (a verified entry is decoded and
  /// promoted into the LRU -- the warm-restart path), and a genuine compute
  /// is encoded and persisted for the next process. `encode` maps const T&
  /// to the payload bytes; `decode` maps the verified payload back to a
  /// Sized<T> and may throw updec::Error on a malformed payload (the entry
  /// is then dropped and recomputed, like checksum-level corruption).
  /// Degenerates to plain get_or_compute when no disk tier is armed.
  template <typename T, typename Fn, typename Enc, typename Dec>
  std::shared_ptr<const T> get_or_compute_disk(const CacheKey& key,
                                               Fn&& compute, Enc&& encode,
                                               Dec&& decode,
                                               const char* klass = "other") {
    return get_or_compute<T>(
        key,
        [&]() -> Sized<T> {
          if (disk_ && disk_->enabled()) {
            std::string payload;
            if (disk_->load(key, payload)) {
              try {
                return decode(std::string_view(payload));
              } catch (const std::exception& e) {
                disk_->reject(key, e.what());
              }
            }
          }
          Sized<T> sized = compute();
          if (disk_ && disk_->enabled() && sized.value != nullptr)
            disk_->store(key, encode(*sized.value));
          return sized;
        },
        klass);
  }

  /// Probe the in-memory tier only: a hit refreshes LRU order and counts;
  /// a miss counts and returns nullptr WITHOUT computing anything. For
  /// artefacts that are published with put()/put_disk() rather than
  /// computed on demand (the ROM tier's adaptively rebuilt pod-basis).
  template <typename T>
  [[nodiscard]] std::shared_ptr<const T> try_get(const CacheKey& key,
                                                 const char* klass = "other") {
    return std::static_pointer_cast<const T>(try_get_erased(key, {}, klass));
  }

  /// try_get() with the persistent tier underneath: a memory miss probes
  /// the disk tier, and a verified entry is decoded and promoted into the
  /// LRU (the warm-restart path). `decode` may throw updec::Error on a
  /// malformed payload -- the disk entry is then rejected (deleted) and the
  /// probe reports a miss. Never computes.
  template <typename T, typename Dec>
  [[nodiscard]] std::shared_ptr<const T> try_get_disk(
      const CacheKey& key, Dec&& decode, const char* klass = "other") {
    return std::static_pointer_cast<const T>(try_get_erased(
        key,
        [&decode](std::string_view payload) -> Computed {
          return Sized<T>(decode(payload));
        },
        klass));
  }

  /// Insert or OVERWRITE the entry for `key` (get_or_compute can only fill
  /// empty slots; rebuildable artefacts need replacement semantics).
  template <typename T>
  void put(const CacheKey& key, Sized<T> sized, const char* klass = "other") {
    put_erased(key, std::move(sized), {}, klass);
  }

  /// put() that also persists the payload to the disk tier (atomic
  /// overwrite) when one is armed.
  template <typename T, typename Enc>
  void put_disk(const CacheKey& key, Sized<T> sized, Enc&& encode,
                const char* klass = "other") {
    const T& value = *sized.value;
    put_erased(key, std::move(sized),
               [&encode, &value]() -> std::string { return encode(value); },
               klass);
  }

  /// Probe without computing (testing / diagnostics). Does not count as a
  /// hit and does not touch LRU order.
  [[nodiscard]] bool contains(const CacheKey& key) const;

  /// The persistent tier, or nullptr when disarmed.
  [[nodiscard]] DiskCache* disk() { return disk_.get(); }

  /// Replace the persistent tier ("" disarms it). Forked shard workers call
  /// this with cache_dir_from_env() at startup: the parent process may have
  /// constructed the global cache before the serving environment was final,
  /// and the inherited disk binding would otherwise be stale. Existing
  /// disk-tier stats are discarded with the old tier.
  void rearm_disk(std::string dir);

  void clear();
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t byte_budget() const { return byte_budget_; }

 private:
  struct Computed {
    Computed() = default;
    template <typename T>
    Computed(Sized<T> sized)  // implicit: every Sized<T> erases to this
        : value(std::move(sized.value)), bytes(sized.bytes) {}
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };
  struct Entry {
    CacheKey key;
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    std::string klass;
  };

  std::shared_ptr<const void> get_or_compute_erased(
      const CacheKey& key, const std::function<Computed()>& compute,
      const char* klass);
  /// Probe memory (then disk via `decode`, when non-empty); never computes.
  std::shared_ptr<const void> try_get_erased(
      const CacheKey& key,
      const std::function<Computed(std::string_view)>& decode,
      const char* klass);
  /// Insert/overwrite; `encode` (when non-empty) feeds the disk tier.
  void put_erased(const CacheKey& key, Computed computed,
                  const std::function<std::string()>& encode,
                  const char* klass);
  /// A hit refreshes the entry's LRU position and counts; a miss returns
  /// nullptr uncounted. Caller holds mutex_.
  std::shared_ptr<const void> lookup_locked(const CacheKey& key,
                                            const char* klass);
  void count_miss_locked(const char* klass);
  /// Insert under the budget, evicting LRU tail entries. Caller holds mutex_.
  void store_locked(const CacheKey& key, const Computed& computed,
                    const char* klass);
  /// Drop `it`'s entry and fix the byte/entry/class accounting. Caller
  /// holds mutex_. Does NOT count an eviction (used by put overwrite too).
  void erase_locked(std::list<Entry>::iterator it);

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
      index_;
  std::unordered_map<CacheKey, std::shared_future<Computed>, CacheKeyHash>
      inflight_;
  std::size_t byte_budget_;
  std::size_t bytes_ = 0;
  Stats stats_;
  std::unique_ptr<DiskCache> disk_;  ///< null when no directory is armed
};

/// What a cache statistic measures: a counter accumulates over the cache's
/// life, a resident level is a point-in-time sum, the budget is a setting.
enum class StatKind : std::uint8_t { kCounter, kResident, kBudget };

/// The statistics tables: f(kind, field...) over one field of every
/// argument at a time, in wire order. Nested records (by_class, disk) are
/// visited by their own tables.
template <typename F, typename... S>
void for_each_stat(F&& f, S&... s)
  requires(std::is_same_v<std::remove_const_t<S>, DiskCache::Stats> && ...)
{
  f(StatKind::kCounter, s.hits...);
  f(StatKind::kCounter, s.misses...);
  f(StatKind::kCounter, s.writes...);
  f(StatKind::kCounter, s.corrupt...);
  f(StatKind::kCounter, s.errors...);
}

template <typename F, typename... S>
void for_each_stat(F&& f, S&... s)
  requires(std::is_same_v<std::remove_const_t<S>, OperatorCache::ClassStats> &&
           ...)
{
  f(StatKind::kCounter, s.hits...);
  f(StatKind::kCounter, s.misses...);
  f(StatKind::kCounter, s.evictions...);
  f(StatKind::kResident, s.bytes...);
  f(StatKind::kResident, s.entries...);
}

template <typename F, typename... S>
void for_each_stat(F&& f, S&... s)
  requires(std::is_same_v<std::remove_const_t<S>, OperatorCache::Stats> && ...)
{
  f(StatKind::kCounter, s.hits...);
  f(StatKind::kCounter, s.misses...);
  f(StatKind::kCounter, s.evictions...);
  f(StatKind::kCounter, s.inflight_waits...);
  f(StatKind::kResident, s.bytes...);
  f(StatKind::kResident, s.entries...);
  f(StatKind::kBudget, s.byte_budget...);
}

/// Process-wide cache instance used by the serve scheduler (budget from
/// UPDEC_CACHE_BYTES at first use).
OperatorCache& global_cache();

// ---- disk-tier codecs ----------------------------------------------------
// Byte-exact binary round trips for the artefacts worth persisting: the
// O(N^3) dense LU, RBF-FD stencil weight matrices and ILU(0) factors.
// decode_* throw updec::Error on malformed payloads (inconsistent sizes),
// which get_or_compute_disk treats as corruption: drop and recompute.

[[nodiscard]] std::string encode_lu(const la::LuFactorization& lu);
[[nodiscard]] la::LuFactorization decode_lu(std::string_view payload);
[[nodiscard]] std::string encode_csr(const la::CsrMatrix& m);
[[nodiscard]] la::CsrMatrix decode_csr(std::string_view payload);
[[nodiscard]] std::string encode_ilu0(const la::Ilu0& ilu);
[[nodiscard]] la::Ilu0 decode_ilu0(std::string_view payload);

/// \brief fp32-factor variant of the ILU(0) codec (mixed-precision serving):
/// the sparsity pattern is stored exactly as encode_ilu0, but values are the
/// factorisation's fp32 shadow (Ilu0::factors_f32), halving the artefact
/// size. The round trip is bit-exact for the fp32 values -- decode widens
/// each float to double and Ilu0::from_factors regenerates an identical
/// fp32 shadow, since double(float(v)) is exact.
[[nodiscard]] std::string encode_ilu0_f32(const la::Ilu0& ilu);
[[nodiscard]] la::Ilu0 decode_ilu0_f32(std::string_view payload);

// ---- high-level memoization helpers --------------------------------------

/// Resident size of a factorisation: the packed LU matrix plus the
/// permutation vector.
[[nodiscard]] std::size_t lu_bytes(const la::LuFactorization& lu);

/// Factorisation of `colloc`'s matrix, memoized under its content hash.
/// On a hit the O(N^3) factor step is skipped entirely.
[[nodiscard]] std::shared_ptr<const la::LuFactorization> cached_lu(
    OperatorCache& cache, const rbf::GlobalCollocation& colloc);

/// cached_lu() + install: after this call, colloc.lu()/solve()/solve_many()
/// reuse the memoized factorisation.
void memoize_lu(OperatorCache& cache, rbf::GlobalCollocation& colloc);

/// RBF-FD differentiation matrix for `op`, memoized under
/// (cloud, kernel, stencil config, op coefficients).
[[nodiscard]] std::shared_ptr<const la::CsrMatrix> cached_rbffd_weights(
    OperatorCache& cache, const rbf::RbffdOperators& ops,
    const rbf::LinearOp& op);

/// Resident sizes of the sparse artefacts.
[[nodiscard]] std::size_t csr_bytes(const la::CsrMatrix& m);
[[nodiscard]] std::size_t ilu0_bytes(const la::Ilu0& ilu);

/// \brief ILU(0) factors of a CSR operator, memoized under its content
/// fingerprint. A warm scenario batch that re-assembles the same sparse
/// operator skips the incomplete factorisation entirely.
///
/// `fp32_factors` selects the mixed-precision artefact variant: it keys
/// under the distinct domain "ilu0-f32" (so fp64 and fp32 artefacts for the
/// same operator never alias in memory or on disk) and persists through the
/// half-size encode_ilu0_f32 codec. The fp32 shadow (what the mixed chain
/// actually applies) round trips bit-exactly through disk; a warm-restart
/// decode rebuilds the fp64 values by widening, which is fine for a
/// preconditioner -- inexactness costs Krylov iterations, never correctness,
/// and the fp64 refinement retry still verifies true fp64 residuals.
[[nodiscard]] std::shared_ptr<const la::Ilu0> cached_ilu0(
    OperatorCache& cache, const la::CsrMatrix& a, bool fp32_factors = false);

/// cached_ilu0() + install: after this call, a sparse-path solver runs its
/// Krylov chain against the memoized preconditioner. No-op when the solver
/// took the dense path (its eager LU makes the ILU irrelevant). Solvers
/// with RobustSolveOptions::mixed_precision set memoize the fp32-factor
/// artefact variant.
void memoize_preconditioner(OperatorCache& cache, la::SparseFirstSolver& op);

// ---- pod-basis artefact class (ROM tier) ---------------------------------
// The POD basis is unlike the LU/CSR/ILU artefacts: it is not a pure
// function of its key (the ROM tier rebuilds it as enrichment snapshots
// arrive), so it flows through try_get/put replacement semantics instead of
// get_or_compute. Same bit-exact codec discipline and the same
// corruption-handling ladder: checksum failures are handled by DiskCache,
// decode failures reject the entry, and either way the tier recomputes.

/// Resident size of a basis: modes + eigenvalues.
[[nodiscard]] std::size_t pod_basis_bytes(const rom::PodBasis& basis);

[[nodiscard]] std::string encode_pod_basis(const rom::PodBasis& basis);
[[nodiscard]] rom::PodBasis decode_pod_basis(std::string_view payload);

/// Content address of the pod-basis artefact for one operator fingerprint
/// (domain "pod-basis", so it never aliases the operator's LU/ILU rows).
[[nodiscard]] CacheKey pod_basis_key(std::uint64_t operator_fingerprint);

/// Warm-restart probe: the persisted basis for `operator_fingerprint`, from
/// memory or the disk tier (promoted into the LRU), or nullptr. Never
/// computes -- a missing basis is simply relearned from snapshots.
[[nodiscard]] std::shared_ptr<const rom::PodBasis> cached_pod_basis(
    OperatorCache& cache, std::uint64_t operator_fingerprint);

/// Publish (insert or overwrite) the basis artefact after a (re)build, so
/// the next process warm-restarts from the adapted basis.
void store_pod_basis(OperatorCache& cache, std::uint64_t operator_fingerprint,
                     const rom::PodBasis& basis);

}  // namespace updec::serve
