#pragma once
/// \file scheduler.hpp
/// \brief Batch scenario-serving: fan optimal-control scenarios across a
///        thread pool with per-job cancellation, deadlines and reports.
///
/// A Scenario names one optimisation run: which problem (Laplace boundary
/// control or Navier-Stokes inflow control), which gradient strategy
/// (DP / DAL / FD), the discretisation, and the run budget. The Scheduler
/// executes scenarios on a serve::ThreadPool and memoizes the expensive
/// discretisation artefacts in a serve::OperatorCache, two-level:
///
///   1. problem bundles (assembled collocation + solver + problem object)
///      keyed by configuration -- jobs sharing a discretisation share ONE
///      problem instance (safe: the shared state is immutable after
///      construction; the lazily factored LU is mutex-guarded);
///   2. LU factorisations keyed by rbf::GlobalCollocation::content_hash()
///      -- survives bundle eviction and deduplicates across distinct
///      problem objects whose matrices happen to be identical.
///
/// Cancellation and deadlines are cooperative: they are routed into
/// control::DriverOptions::should_stop, polled once per optimisation
/// iteration, so a stopped job returns a well-formed JobReport with the
/// trajectory accumulated so far -- the pool itself never aborts.
///
/// Per-job isolation: each job draws its initial-control jitter from its own
/// Rng(seed) (never a process-global stream), so a batch's results are
/// independent of scheduling order and thread count.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/cache.hpp"
#include "serve/pool.hpp"
#include "serve/scenario.hpp"

namespace updec::serve {

class ShardPool;

/// Policy implied by the environment: UPDEC_SERVE_RETRIES (max_retries) and
/// UPDEC_SERVE_BACKOFF_MS (backoff_ms) over RetryPolicy's defaults; malformed
/// values warn and keep the defaults (strict whole-string parse).
[[nodiscard]] RetryPolicy retry_policy_from_env();

struct SchedulerOptions {
  std::size_t threads = 0;          ///< 0 -> default_thread_count()
  std::size_t max_queue = 1024;     ///< ThreadPool backpressure bound
  /// Deadline applied to scenarios with deadline_ms == 0. Defaults to
  /// UPDEC_SERVE_DEADLINE_MS from the environment (0 / unset = none).
  double default_deadline_ms = -1.0;  ///< -1 -> read the environment
  OperatorCache* cache = nullptr;     ///< nullptr -> global_cache()
  /// Retry/degradation policy for every job; nullopt reads the environment
  /// (retry_policy_from_env()).
  std::optional<RetryPolicy> retry;
  /// Worker PROCESSES. nullopt reads UPDEC_SERVE_SHARDS; 0 keeps the
  /// classic in-process ThreadPool; >= 1 serves through a serve::ShardPool
  /// (fork + fingerprint routing + work stealing). In shard mode `threads`,
  /// `max_queue` and `cache` are ignored: workers run single-threaded
  /// against their own process-local global_cache(), submit() never blocks,
  /// and jobs queue parent-side without bound.
  std::optional<std::size_t> shards;
};

/// UPDEC_SERVE_DEADLINE_MS when set to a positive number, else 0 (none).
/// Malformed values warn and count as unset (strict whole-string parse).
[[nodiscard]] double default_deadline_ms_from_env();

/// Execute one scenario synchronously on the calling thread, including its
/// retry/backoff/degradation ladder. This is the exact function scheduler
/// jobs run; exposed for sequential baselines (bench_serve's cold path) and
/// tests. `external_stop` (may be empty) is polled alongside the deadline
/// (and during backoff); returning true cancels the job. `retry` nullopt
/// reads the environment; `on_status` (may be empty) observes live status
/// transitions (kRunning, kRetrying) -- the Scheduler routes these into
/// Scheduler::status().
[[nodiscard]] JobReport run_scenario(
    const Scenario& scenario, OperatorCache& cache,
    double deadline_ms = 0.0,
    const std::function<bool()>& external_stop = {},
    const std::optional<RetryPolicy>& retry = std::nullopt,
    const std::function<void(JobStatus)>& on_status = {});

class Scheduler {
 public:
  using JobId = std::size_t;

  explicit Scheduler(SchedulerOptions options = {});
  /// Waits for in-flight jobs (pool drain + join / shard-pool drain).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueue one scenario; returns a handle for cancel()/wait(). Blocks
  /// under queue backpressure in thread mode; returns immediately in shard
  /// mode (results stream back through the completion queue).
  JobId submit(Scenario scenario);

  /// Request cancellation. A job that has not started yet resolves to
  /// kCancelled without running; a running job stops at its next iteration
  /// boundary (in shard mode, after one kCancel frame crosses the process
  /// boundary). Returns false iff the job had already finished (the report
  /// is unaffected then).
  bool cancel(JobId id);

  /// Live status of a job: kPending until a worker picks it up, kRunning /
  /// kRetrying while in flight, then the report's final status.
  [[nodiscard]] JobStatus status(JobId id) const;

  /// Block until the job resolves and return its report. Each job's report
  /// can be waited on from any number of threads.
  [[nodiscard]] JobReport wait(JobId id);

  /// Wait for every job submitted so far, in submission order.
  [[nodiscard]] std::vector<JobReport> wait_all();

  // ---- async completion stream -------------------------------------------
  // Every job's report is ALSO pushed onto a completion queue the moment it
  // resolves, in completion (not submission) order. wait()/wait_all() and
  // the stream are independent views: consuming one never starves the other.

  /// Pop the next completed job if one is ready; nullopt otherwise.
  [[nodiscard]] std::optional<std::pair<JobId, JobReport>>
  try_next_completed();

  /// Block until a job completes and pop it. nullopt iff every submitted
  /// job's completion has already been streamed (nothing left to wait for).
  [[nodiscard]] std::optional<std::pair<JobId, JobReport>> next_completed();

  [[nodiscard]] std::size_t thread_count() const {
    return pool_ ? pool_->thread_count() : 0;
  }
  /// Worker processes in shard mode, 0 in thread mode.
  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] OperatorCache& cache() { return *cache_; }
  /// The shard pool (nullptr in thread mode) -- per-shard report data.
  [[nodiscard]] ShardPool* shards() { return shards_.get(); }

  /// Cache statistics across the whole serving topology: the parent cache
  /// plus, in shard mode, the delta-merged stats of every worker process
  /// (counters accumulate across worker generations; resident bytes are
  /// the live workers' sum). This is what the updec_serve report and the
  /// bench JSON should print -- OperatorCache::stats() alone is
  /// process-local and near-empty under sharding.
  [[nodiscard]] OperatorCache::Stats cache_stats();

 private:
  struct JobState {
    Scenario scenario;
    std::size_t shard_job = 0;  ///< ShardPool id (shard mode only)
    std::atomic<bool> cancelled{false};
    std::atomic<bool> done{false};
    std::atomic<JobStatus> live{JobStatus::kPending};
    std::promise<JobReport> promise;
    std::shared_future<JobReport> future;
  };

  /// Resolve a job: promise, live status, completion queue. Called exactly
  /// once per job, from the worker lambda (thread mode) or the shard pool's
  /// result callback (dispatcher thread).
  void finish_job(JobId id, const std::shared_ptr<JobState>& state,
                  JobReport&& report);

  OperatorCache* cache_;
  double default_deadline_ms_;
  RetryPolicy retry_;
  mutable std::mutex jobs_mutex_;
  std::map<JobId, std::shared_ptr<JobState>> jobs_;
  std::map<std::size_t, JobId> shard_to_job_;  ///< ShardPool id -> JobId
  JobId next_id_ = 1;
  std::deque<std::pair<JobId, JobReport>> completed_;
  std::condition_variable completed_cv_;
  std::size_t unstreamed_ = 0;  ///< submitted, completion not yet queued
  std::unique_ptr<ShardPool> shards_;  ///< shard mode only; forks in ctor
  std::unique_ptr<ThreadPool> pool_;   ///< thread mode only; last member
};

}  // namespace updec::serve
