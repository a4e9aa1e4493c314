// Tests for the scenario-serving runtime (src/serve): thread-pool ordering
// and fault containment, operator-cache hit/miss/LRU/contention semantics,
// scheduler cancellation and deadlines, the batched multi-RHS solve paths
// they are built on, and the metrics predump hook that makes the atexit
// JSON dump safe while pool workers are live.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "la/blas.hpp"
#include "la/iterative.hpp"
#include "la/lu.hpp"
#include "la/sparse.hpp"
#include "pde/heat.hpp"
#include "pde/laplace.hpp"
#include "pointcloud/generators.hpp"
#include "rbf/kernels.hpp"
#include "serve/cache.hpp"
#include "serve/pool.hpp"
#include "serve/scheduler.hpp"
#include "serve/wire.hpp"
#include "testing_common.hpp"
#include "util/faultinject.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace updec;
using serve::CacheKey;
using serve::KeyBuilder;
using serve::OperatorCache;

// ---- multi-RHS solve paths -----------------------------------------------

// Randomness routes through the shared logged-seed stack (testing_common);
// the local name keeps the historical (rows, cols, seed) call sites.
la::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  return testing_support::random_matrix(rows, cols, seed);
}

TEST(SolveMany, LuMatchesPerColumnSolves) {
  const std::size_t n = 24, k = 7;
  la::Matrix a = random_matrix(n, n, 1);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 6.0;  // well-conditioned
  const la::Matrix b = random_matrix(n, k, 2);

  const la::LuFactorization lu(a);
  ASSERT_TRUE(lu.valid());
  const la::Matrix x = lu.solve_many(b);
  ASSERT_EQ(x.rows(), n);
  ASSERT_EQ(x.cols(), k);
  la::Vector col(n);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
    const la::Vector xj = lu.solve(col);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(x(i, j), xj[i], 1e-12) << "column " << j << " row " << i;
  }
}

TEST(SolveMany, LuSolveManyConvenienceMatchesFactorThenSolve) {
  const std::size_t n = 12, k = 3;
  la::Matrix a = random_matrix(n, n, 3);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 5.0;
  const la::Matrix b = random_matrix(n, k, 4);
  const la::Matrix x1 = la::lu_solve_many(a, b);
  const la::Matrix x2 = la::LuFactorization(a).solve_many(b);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) EXPECT_EQ(x1(i, j), x2(i, j));
}

la::CsrMatrix poisson_1d(std::size_t n) {
  la::SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return la::CsrMatrix(b);
}

TEST(SolveMany, BatchedCgMatchesPerColumnCg) {
  const std::size_t n = 32, k = 4;
  const la::CsrMatrix a = poisson_1d(n);
  const la::Matrix b = random_matrix(n, k, 5);
  const la::BatchedIterativeResult batched = la::cg_many(a, b);
  EXPECT_EQ(batched.columns, k);
  EXPECT_TRUE(batched.all_converged());
  la::Vector col(n);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
    const la::IterativeResult single = la::cg(a, col);
    ASSERT_TRUE(single.converged);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(batched.x(i, j), single.x[i], 1e-8);
  }
}

TEST(SolveMany, LaplaceSolveManyMatchesPerControlSolves) {
  const rbf::PolyharmonicSpline kernel(3);
  const pde::LaplaceSolver solver(8, kernel);
  const std::size_t nc = solver.num_control(), k = 3;
  const la::Matrix controls = random_matrix(nc, k, 6);

  const la::Matrix coeffs = solver.solve_many(controls);
  const la::Matrix flux = solver.flux_top_many(coeffs);
  la::Vector c(nc);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < nc; ++i) c[i] = controls(i, j);
    const la::Vector cj = solver.solve(c);
    const la::Vector fj = solver.flux_top(cj);
    for (std::size_t i = 0; i < cj.size(); ++i)
      EXPECT_NEAR(coeffs(i, j), cj[i], 1e-9);
    for (std::size_t i = 0; i < fj.size(); ++i)
      EXPECT_NEAR(flux(i, j), fj[i], 1e-9);
  }
}

TEST(SolveMany, HeatStepManyMatchesPerMemberSteps) {
  const pc::PointCloud cloud = pc::unit_square_grid(10, 10);
  const rbf::PolyharmonicSpline kernel(3);
  const pde::HeatSolver solver(cloud, kernel, 0.2, 1e-3);
  const auto boundary = [](const pc::Node& n, double) { return n.pos.x; };
  const std::size_t k = 3;
  const la::Matrix u0 = random_matrix(cloud.size(), k, 7);

  const la::Matrix u1 = solver.advance_many(u0, boundary, 0.0, 2);
  la::Vector member(cloud.size());
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < cloud.size(); ++i) member[i] = u0(i, j);
    const la::Vector uj = solver.advance(member, boundary, 0.0, 2);
    for (std::size_t i = 0; i < cloud.size(); ++i)
      EXPECT_NEAR(u1(i, j), uj[i], 1e-10);
  }
}

// ---- operator cache ------------------------------------------------------

OperatorCache::Sized<int> sized_int(int v, std::size_t bytes) {
  return {std::make_shared<const int>(v), bytes};
}

TEST(OperatorCache, HitAndMissCounting) {
  OperatorCache cache(1 << 20);
  int computes = 0;
  const CacheKey key = KeyBuilder("t").add(std::uint64_t{1}).key();
  const auto compute = [&] {
    ++computes;
    return sized_int(42, 100);
  };
  const auto a = cache.get_or_compute<int>(key, compute);
  const auto b = cache.get_or_compute<int>(key, compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(*a, 42);
  EXPECT_EQ(a.get(), b.get());  // same shared artefact, not a copy
  const OperatorCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 100u);
}

TEST(OperatorCache, LruEvictionUnderByteBudget) {
  OperatorCache cache(250);  // fits two 100-byte entries, not three
  const auto key_of = [](std::uint64_t i) {
    return KeyBuilder("lru").add(i).key();
  };
  (void)cache.get_or_compute<int>(key_of(1), [&] { return sized_int(1, 100); });
  (void)cache.get_or_compute<int>(key_of(2), [&] { return sized_int(2, 100); });
  // Touch 1 so 2 becomes least recently used...
  (void)cache.get_or_compute<int>(key_of(1), [&] { return sized_int(1, 100); });
  // ...then inserting 3 must evict 2, not 1.
  (void)cache.get_or_compute<int>(key_of(3), [&] { return sized_int(3, 100); });
  EXPECT_TRUE(cache.contains(key_of(1)));
  EXPECT_FALSE(cache.contains(key_of(2)));
  EXPECT_TRUE(cache.contains(key_of(3)));
  const OperatorCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, 250u);
}

TEST(OperatorCache, ZeroBudgetDisablesStorageButStillComputes) {
  OperatorCache cache(0);
  int computes = 0;
  const CacheKey key = KeyBuilder("z").add(std::uint64_t{9}).key();
  const auto compute = [&] {
    ++computes;
    return sized_int(7, 10);
  };
  EXPECT_EQ(*cache.get_or_compute<int>(key, compute), 7);
  EXPECT_EQ(*cache.get_or_compute<int>(key, compute), 7);
  EXPECT_EQ(computes, 2);  // nothing retained
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(OperatorCache, ConcurrentGetOrComputeRunsComputeOnce) {
  OperatorCache cache(1 << 20);
  const CacheKey key = KeyBuilder("flight").add(std::uint64_t{1}).key();
  std::atomic<int> computes{0};
  std::atomic<int> ready{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const int>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Rough barrier so the threads pile onto the key together.
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      results[t] = cache.get_or_compute<int>(key, [&] {
        ++computes;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return sized_int(99, 50);
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(computes.load(), 1) << "duplicate factorisation under contention";
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(*r, 99);
    EXPECT_EQ(r.get(), results[0].get());
  }
}

TEST(OperatorCache, FingerprintsSeparateDistinctInputs) {
  // Kernels differing only in hidden parameters must not collide.
  const rbf::GaussianKernel g1(1.0), g2(2.0);
  EXPECT_NE(serve::fingerprint(g1), serve::fingerprint(g2));
  EXPECT_EQ(serve::fingerprint(g1), serve::fingerprint(rbf::GaussianKernel(1.0)));
  const rbf::PolyharmonicSpline p3(3), p5(5);
  EXPECT_NE(serve::fingerprint(p3), serve::fingerprint(p5));

  const pc::PointCloud c1 = pc::unit_square_grid(4, 4);
  const pc::PointCloud c2 = pc::unit_square_grid(5, 5);
  EXPECT_NE(serve::fingerprint(c1), serve::fingerprint(c2));
  EXPECT_EQ(serve::fingerprint(c1),
            serve::fingerprint(pc::unit_square_grid(4, 4)));

  // KeyBuilder: domain separation and order sensitivity.
  EXPECT_FALSE(KeyBuilder("a").add(std::uint64_t{1}).key() ==
               KeyBuilder("b").add(std::uint64_t{1}).key());
  EXPECT_FALSE(KeyBuilder("a").add(1.0).add(2.0).key() ==
               KeyBuilder("a").add(2.0).add(1.0).key());
}

TEST(OperatorCache, CachedLuIsSharedAndInstallable) {
  const rbf::PolyharmonicSpline kernel(3);
  pde::LaplaceSolver s1(6, kernel);
  pde::LaplaceSolver s2(6, kernel);  // identical layout => identical matrix
  ASSERT_EQ(s1.collocation().content_hash(), s2.collocation().content_hash());

  OperatorCache cache(std::size_t{64} << 20);
  serve::memoize_lu(cache, s1.collocation());
  serve::memoize_lu(cache, s2.collocation());
  // Second memoize must be a hit: both solvers share one factorisation.
  const OperatorCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(&s1.collocation().lu(), &s2.collocation().lu());

  // The installed factorisation must actually solve the system.
  const la::Vector c(s1.num_control(), 0.25);
  const la::Vector u1 = s1.solve(c);
  const la::Vector u2 = s2.solve(c);
  for (std::size_t i = 0; i < u1.size(); ++i) EXPECT_EQ(u1[i], u2[i]);
}

TEST(OperatorCache, CachedIlu0IsSharedAndInstallable) {
  // Tridiagonal convection-diffusion operator, built twice with identical
  // content: the second ILU(0) request must be a cache hit.
  const auto build = [] {
    la::SparseBuilder b(64, 64);
    for (std::size_t i = 0; i < 64; ++i) {
      b.add(i, i, 2.1);
      if (i > 0) b.add(i, i - 1, -1.3);
      if (i + 1 < 64) b.add(i, i + 1, -0.7);
    }
    return la::CsrMatrix(b);
  };
  const la::CsrMatrix a1 = build();
  const la::CsrMatrix a2 = build();
  ASSERT_EQ(serve::fingerprint(a1), serve::fingerprint(a2));

  // Two sparse-path solvers over identical content produce identical
  // (row-equilibrated) Krylov operators, so the second ILU(0) request must
  // be a cache hit on the first one's factors.
  la::RobustSolveOptions options;
  options.sparse_min_n = 0;
  la::SparseFirstSolver solver(a1, options);
  la::SparseFirstSolver twin(a2, options);
  ASSERT_EQ(serve::fingerprint(solver.krylov_matrix()),
            serve::fingerprint(twin.krylov_matrix()));

  OperatorCache cache(std::size_t{64} << 20);
  const auto ilu1 = serve::cached_ilu0(cache, solver.krylov_matrix());
  const auto ilu2 = serve::cached_ilu0(cache, twin.krylov_matrix());
  EXPECT_EQ(ilu1.get(), ilu2.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Install into the solver: the memoized factors precondition its Krylov
  // chain and the solve still matches the dense reference.
  serve::memoize_preconditioner(cache, solver);
  EXPECT_EQ(solver.shared_preconditioner().get(), ilu1.get());
  EXPECT_EQ(cache.stats().hits, 2u);

  la::Vector b(64, 1.0);
  la::SolveReport report;
  const la::Vector x = solver.solve(b, &report);
  EXPECT_TRUE(report.converged);
  const la::Vector x_ref = la::solve(a1.to_dense(), b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-8);

  // Dense-path solvers ignore the memoization entirely.
  options.sparse_min_n = 1000;
  la::SparseFirstSolver dense_solver(a1, options);
  const auto before = cache.stats().hits;
  serve::memoize_preconditioner(cache, dense_solver);
  EXPECT_EQ(dense_solver.shared_preconditioner(), nullptr);
  EXPECT_EQ(cache.stats().hits, before);
}

// ---- thread pool ---------------------------------------------------------

TEST(ThreadPool, CompletesJobsSubmittedFasterThanExecuted) {
  serve::ThreadPool pool(3, 4);  // small queue: exercises backpressure
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i)
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++done;
    });
  pool.drain();
  EXPECT_EQ(done.load(), 32);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, JobsCompleteOutOfSubmissionOrder) {
  serve::ThreadPool pool(2);
  std::mutex order_mutex;
  std::vector<int> order;
  pool.submit([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    std::lock_guard lock(order_mutex);
    order.push_back(0);
  });
  pool.submit([&] {
    std::lock_guard lock(order_mutex);
    order.push_back(1);
  });
  pool.drain();
  ASSERT_EQ(order.size(), 2u);
  // The fast job (1) must not have been serialised behind the slow one (0).
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 0);
}

TEST(ThreadPool, ThrowingJobDoesNotKillWorkers) {
  serve::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i)
    pool.submit([] { throw std::runtime_error("job boom"); });
  for (int i = 0; i < 4; ++i) pool.submit([&done] { ++done; });
  pool.drain();
  EXPECT_EQ(done.load(), 4);
}

// ---- metrics predump hook (atexit-dump safety regression) ----------------

#if !defined(UPDEC_DISABLE_METRICS)
TEST(ThreadPool, MetricsDumpDrainsLiveWorkersFirst) {
  metrics::reset();
  metrics::set_enabled(true);
  serve::ThreadPool pool(2);
  constexpr int kJobs = 24;
  for (int i = 0; i < kJobs; ++i)
    pool.submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      metrics::counter_add("test/predump.jobs");
    });
  // Dump immediately, while workers are mid-flight: the pool's predump hook
  // must drain them before the snapshot, so the dump carries ALL increments.
  const std::string path = ::testing::TempDir() + "predump_metrics.json";
  ASSERT_TRUE(metrics::dump_json_file(path));
  EXPECT_EQ(metrics::counter_value("test/predump.jobs"),
            static_cast<std::uint64_t>(kJobs));
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_NE(ss.str().find("test/predump.jobs"), std::string::npos);
  std::remove(path.c_str());
  metrics::set_enabled(false);
  metrics::reset();
}
#endif

// ---- scheduler -----------------------------------------------------------

serve::Scenario quick_laplace(const std::string& id, std::size_t iters) {
  serve::Scenario sc;
  sc.id = id;
  sc.problem = serve::ProblemKind::kLaplace;
  sc.strategy = serve::Strategy::kDal;
  sc.grid_n = 8;
  sc.iterations = iters;
  return sc;
}

TEST(Scheduler, RunsABatchAndReportsInSubmissionOrder) {
  OperatorCache cache(std::size_t{64} << 20);
  serve::SchedulerOptions options;
  options.threads = 2;
  options.default_deadline_ms = 0.0;
  options.cache = &cache;
  serve::Scheduler scheduler(options);
  for (int i = 0; i < 6; ++i)
    (void)scheduler.submit(quick_laplace("job-" + std::to_string(i), 5));
  const std::vector<serve::JobReport> reports = scheduler.wait_all();
  ASSERT_EQ(reports.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(reports[i].id, "job-" + std::to_string(i));
    EXPECT_EQ(reports[i].status, serve::JobStatus::kSucceeded)
        << reports[i].error;
    EXPECT_EQ(reports[i].iterations, 5u);
    EXPECT_EQ(reports[i].cost_history.size(), 5u);
    EXPECT_GT(reports[i].seconds, 0.0);
  }
  // All six jobs share one discretisation: exactly one bundle build and one
  // factorisation; every other lookup is a hit or (when a job arrives while
  // the leader is still building) an in-flight join -- never a recompute.
  const OperatorCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);  // bundle + LU
  EXPECT_GE(s.hits + s.inflight_waits, 5u);
}

TEST(Scheduler, CancellationIsHonored) {
  OperatorCache cache(std::size_t{64} << 20);
  serve::SchedulerOptions options;
  options.threads = 1;  // serialise: job 2 cannot start before job 1 ends
  options.cache = &cache;
  serve::Scheduler scheduler(options);
  const auto long_id = scheduler.submit(quick_laplace("long", 100000));
  const auto queued_id = scheduler.submit(quick_laplace("queued", 100000));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(scheduler.cancel(long_id));
  EXPECT_TRUE(scheduler.cancel(queued_id));

  const serve::JobReport running = scheduler.wait(long_id);
  EXPECT_EQ(running.status, serve::JobStatus::kCancelled);
  EXPECT_LT(running.iterations, 100000u);  // stopped mid-run, state intact

  const serve::JobReport queued = scheduler.wait(queued_id);
  EXPECT_EQ(queued.status, serve::JobStatus::kCancelled);

  // cancel() on a finished job reports "too late".
  EXPECT_FALSE(scheduler.cancel(long_id));

  // The pool survives: a fresh job still runs to completion.
  const auto after = scheduler.submit(quick_laplace("after", 3));
  EXPECT_EQ(scheduler.wait(after).status, serve::JobStatus::kSucceeded);
}

TEST(Scheduler, DeadlineExpiryFailsTheJobNotThePool) {
  OperatorCache cache(std::size_t{64} << 20);
  serve::SchedulerOptions options;
  options.threads = 1;
  options.cache = &cache;
  serve::Scheduler scheduler(options);

  serve::Scenario doomed = quick_laplace("doomed", 10000000);
  doomed.deadline_ms = 30.0;
  const auto doomed_id = scheduler.submit(doomed);
  const serve::JobReport report = scheduler.wait(doomed_id);
  EXPECT_EQ(report.status, serve::JobStatus::kDeadlineExpired);
  EXPECT_LT(report.iterations, 10000000u);

  const auto ok_id = scheduler.submit(quick_laplace("ok", 3));
  EXPECT_EQ(scheduler.wait(ok_id).status, serve::JobStatus::kSucceeded);
}

TEST(Scheduler, JitteredSeedsProduceIsolatedTrajectories) {
  OperatorCache cache(std::size_t{64} << 20);
  serve::SchedulerOptions options;
  options.threads = 2;
  options.cache = &cache;
  serve::Scheduler scheduler(options);
  serve::Scenario a = quick_laplace("seed-1", 4);
  a.seed = 1;
  a.control_jitter = 0.1;
  serve::Scenario b = quick_laplace("seed-2", 4);
  b.seed = 2;
  b.control_jitter = 0.1;
  serve::Scenario a2 = quick_laplace("seed-1-again", 4);
  a2.seed = 1;
  a2.control_jitter = 0.1;
  const auto ia = scheduler.submit(a);
  const auto ib = scheduler.submit(b);
  const auto ia2 = scheduler.submit(a2);
  const serve::JobReport ra = scheduler.wait(ia);
  const serve::JobReport rb = scheduler.wait(ib);
  const serve::JobReport ra2 = scheduler.wait(ia2);
  ASSERT_TRUE(ra.ok() && rb.ok() && ra2.ok());
  // Same seed => identical trajectory regardless of scheduling; different
  // seed => different trajectory (per-job Rng, no shared stream).
  ASSERT_EQ(ra.cost_history.size(), ra2.cost_history.size());
  for (std::size_t i = 0; i < ra.cost_history.size(); ++i)
    EXPECT_EQ(ra.cost_history[i], ra2.cost_history[i]);
  EXPECT_NE(ra.cost_history.front(), rb.cost_history.front());
}

TEST(Scheduler, RefinedScenariosShareOneAdaptedCloudPerFamily) {
  // refine_cycles > 0 on a DAL Laplace job routes through the refined-cloud
  // bundle: the adapted cloud is built ONCE per (grid, refinement-knob)
  // family and shared by every job in it; a different refinement level is a
  // different family and must rebuild.
  OperatorCache cache(std::size_t{64} << 20);
  serve::SchedulerOptions options;
  options.threads = 2;
  options.cache = &cache;
  serve::Scheduler scheduler(options);

  serve::Scenario refined = quick_laplace("refined-1", 4);
  refined.grid_n = 10;
  refined.refine_cycles = 1;
  serve::Scenario sibling = refined;
  sibling.id = "refined-2";
  sibling.seed = 99;
  sibling.control_jitter = 0.05;
  serve::Scenario deeper = refined;
  deeper.id = "refined-deeper";
  deeper.refine_cycles = 2;

  const auto i1 = scheduler.submit(refined);
  const auto i2 = scheduler.submit(sibling);
  const serve::JobReport r1 = scheduler.wait(i1);
  const serve::JobReport r2 = scheduler.wait(i2);
  ASSERT_TRUE(r1.ok()) << r1.error;
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_TRUE(std::isfinite(r1.final_cost));
  const OperatorCache::Stats after_family = cache.stats();

  const serve::JobReport r3 = scheduler.wait(scheduler.submit(deeper));
  ASSERT_TRUE(r3.ok()) << r3.error;
  EXPECT_GT(cache.stats().misses, after_family.misses)
      << "a deeper refinement level is a distinct cached artefact";
}

TEST(Scheduler, ParsersRoundTrip) {
  EXPECT_EQ(serve::parse_problem_kind("laplace"), serve::ProblemKind::kLaplace);
  EXPECT_EQ(serve::parse_strategy("fd"), serve::Strategy::kFd);
  EXPECT_THROW(serve::parse_problem_kind("poisson"), Error);
  EXPECT_THROW(serve::parse_strategy("adjoint"), Error);
  EXPECT_STREQ(serve::to_string(serve::JobStatus::kDeadlineExpired),
               "deadline_expired");
  EXPECT_STREQ(serve::to_string(serve::JobStatus::kRetrying), "retrying");
}

TEST(Scheduler, StatusTracksTheJobLifecycle) {
  OperatorCache cache(std::size_t{64} << 20);
  serve::SchedulerOptions options;
  options.threads = 1;
  options.cache = &cache;
  serve::Scheduler scheduler(options);
  const auto id = scheduler.submit(quick_laplace("tracked", 3));
  (void)scheduler.wait(id);
  EXPECT_EQ(scheduler.status(id), serve::JobStatus::kSucceeded);
  EXPECT_THROW((void)scheduler.status(9999), Error);
}

TEST(Scheduler, RefineCyclesOutsideLaplaceDalFailsWithoutBuilding) {
  // Only a Laplace DAL job is served on a refined cloud. Any other job with
  // refine_cycles > 0 must fail up front -- no attempt, no retry, nothing
  // built -- rather than run on the uniform cloud under another family.
  OperatorCache cache(std::size_t{64} << 20);
  serve::RetryPolicy retry;
  retry.max_retries = 2;
  const std::pair<serve::ProblemKind, serve::Strategy> kinds[] = {
      {serve::ProblemKind::kLaplace, serve::Strategy::kDp},
      {serve::ProblemKind::kLaplace, serve::Strategy::kFd},
      {serve::ProblemKind::kChannel, serve::Strategy::kDal}};
  for (const auto& [problem, strategy] : kinds) {
    serve::Scenario sc = quick_laplace("misrefined", 3);
    sc.problem = problem;
    sc.strategy = strategy;
    sc.refine_cycles = 1;
    const serve::JobReport report =
        serve::run_scenario(sc, cache, 0.0, {}, retry);
    EXPECT_EQ(report.status, serve::JobStatus::kFailed)
        << serve::to_string(problem) << " " << serve::to_string(strategy);
    EXPECT_NE(report.error.find("refine_cycles"), std::string::npos)
        << report.error;
    EXPECT_EQ(report.attempts, 0u);
    EXPECT_EQ(report.retries, 0u);
  }
  EXPECT_EQ(cache.stats().misses, 0u) << "a misconfigured job built something";
}

TEST(Scheduler, PolyDegreeReachesEveryLaplaceBundle) {
  // poly_degree keys every Laplace family, so each bundle must also be
  // built with it: the plain, the refined and the ROM bundle alike.
  const auto final_cost = [](serve::Scenario sc, int degree) {
    OperatorCache cache(std::size_t{64} << 20);
    sc.poly_degree = degree;
    const serve::JobReport report = serve::run_scenario(sc, cache);
    EXPECT_TRUE(report.ok()) << sc.id << " degree " << degree << ": "
                             << report.error;
    return report.final_cost;
  };
  const serve::Scenario plain = quick_laplace("plain", 3);
  serve::Scenario refined = plain;
  refined.id = "refined";
  refined.refine_cycles = 1;
  EXPECT_NE(final_cost(plain, 1), final_cost(plain, 2));
  EXPECT_NE(final_cost(refined, 1), final_cost(refined, 2));
  ::setenv("UPDEC_ROM", "1", 1);
  const double rom_1 = final_cost(plain, 1);
  const double rom_2 = final_cost(plain, 2);
  ::unsetenv("UPDEC_ROM");
  EXPECT_NE(rom_1, rom_2);
}

// ---- scenario manifests ----------------------------------------------------

/// The fixed-column manifest parser the field table replaced, kept as the
/// oracle for the committed manifests: columns
/// id,problem,strategy,grid,iters,lr,deadline_ms,seed,jitter in that order.
std::vector<serve::Scenario> legacy_parse(std::istream& is) {
  std::vector<serve::Scenario> out;
  std::string line;
  bool header_seen = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (!header_seen) {
      header_seen = true;
      continue;
    }
    std::vector<std::string> cells;
    std::stringstream ss(line);
    for (std::string cell; std::getline(ss, cell, ',');) cells.push_back(cell);
    cells.resize(9);
    serve::Scenario sc;
    sc.id = cells[0];
    if (!cells[1].empty()) sc.problem = serve::parse_problem_kind(cells[1]);
    if (!cells[2].empty()) sc.strategy = serve::parse_strategy(cells[2]);
    if (!cells[3].empty()) sc.grid_n = sc.target_nodes = std::stoul(cells[3]);
    if (!cells[4].empty()) sc.iterations = std::stoul(cells[4]);
    if (!cells[5].empty()) sc.learning_rate = std::stod(cells[5]);
    if (!cells[6].empty()) sc.deadline_ms = std::stod(cells[6]);
    if (!cells[7].empty()) sc.seed = std::stoull(cells[7]);
    if (!cells[8].empty()) sc.control_jitter = std::stod(cells[8]);
    out.push_back(sc);
  }
  return out;
}

/// A scenario's wire bytes: equal bytes mean bitwise-equal fields.
std::string scenario_bytes(const serve::Scenario& sc) {
  serve::wire::JobFrame frame;
  frame.scenario = sc;
  return serve::wire::encode_job(frame);
}

TEST(Manifest, CommittedManifestsParseAsBefore) {
  for (const char* name : {"serve_manifest.csv", "serve_chaos_manifest.csv",
                           "serve_shard_manifest.csv"}) {
    const std::string path = std::string(UPDEC_EXAMPLES_DIR) + "/" + name;
    std::ifstream is(path);
    const std::vector<serve::Scenario> want = legacy_parse(is);
    const std::vector<serve::Scenario> got = serve::load_manifest(path);
    ASSERT_EQ(got.size(), want.size()) << name;
    for (std::size_t i = 0; i < got.size(); ++i) {
      // The old parser also copied `grid` into the channel cloud size, a
      // field no Laplace row reads; `nodes` is its own column now.
      ASSERT_EQ(want[i].problem, serve::ProblemKind::kLaplace);
      serve::Scenario expected = want[i];
      expected.target_nodes = serve::Scenario{}.target_nodes;
      EXPECT_EQ(scenario_bytes(got[i]), scenario_bytes(expected))
          << name << " row " << i << " (" << got[i].id << ")";
    }
  }
}

TEST(Manifest, ColumnsMatchByHeaderNameInAnyOrder) {
  std::istringstream in(
      "# any column order, any subset with an id\n"
      "seed,grid,id,strategy,problem,nodes,refine_cycles,lr\n"
      "7,14,lap,dp,laplace,,,+0.5\n"
      "\n"
      ",,chan,dal,channel,350\n");
  const std::vector<serve::Scenario> got = serve::parse_manifest(in, "inline");
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, "lap");
  EXPECT_EQ(got[0].seed, 7u);
  EXPECT_EQ(got[0].grid_n, 14u);
  EXPECT_EQ(got[0].strategy, serve::Strategy::kDp);
  EXPECT_EQ(got[0].learning_rate, 0.5);
  EXPECT_EQ(got[0].target_nodes, serve::Scenario{}.target_nodes)
      << "grid must not set the channel cloud size";
  EXPECT_EQ(got[1].problem, serve::ProblemKind::kChannel);
  EXPECT_EQ(got[1].target_nodes, 350u) << "channel rows size from `nodes`";
  EXPECT_EQ(got[1].grid_n, serve::Scenario{}.grid_n);

  // A file saved with CRLF line endings parses the same.
  std::istringstream crlf("# crlf\r\nid,grid,jitter\r\nlap,14,0.25\r\n");
  const std::vector<serve::Scenario> rows = serve::parse_manifest(crlf, "crlf");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].id, "lap");
  EXPECT_EQ(rows[0].grid_n, 14u);
  EXPECT_EQ(rows[0].control_jitter, 0.25);
}

TEST(Manifest, RejectsBadInputNamingTheLineAndColumn) {
  const auto error_of = [](const std::string& text) {
    std::istringstream in(text);
    try {
      (void)serve::parse_manifest(in, "m.csv");
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const std::pair<const char*, std::vector<const char*>> cases[] = {
      {"id,grid\na,12abc\n", {"m.csv line 2", "column 'grid'", "12abc"}},
      {"id,grid\na,-1\n", {"line 2", "column 'grid'", "'-1'"}},
      {"id,seed\n# c\na,-3\n", {"line 3", "column 'seed'"}},
      {"id,iters\na,1.5\n", {"column 'iters'"}},
      {"id,lr\na,nan\n", {"line 2", "column 'lr'", "nan"}},
      {"id,jitter\na,inf\n", {"column 'jitter'"}},
      {"id,deadline_ms\na,1e999\n", {"column 'deadline_ms'"}},
      {"id,problem\na,poisson\n", {"column 'problem'", "poisson"}},
      {"id,gird\na,12\n", {"line 1", "unknown column 'gird'"}},
      {"id,grid,grid\na,1,2\n", {"line 1", "duplicated column 'grid'"}},
      {"grid\n12\n", {"line 1", "no 'id' column"}},
      {"id,grid\na,12,3\n", {"line 2", "3 cells under 2"}},
      {"id,grid\n,12\n", {"line 2", "missing scenario id"}},
      {"id,grid\n", {"no scenarios"}},
  };
  for (const auto& [text, fragments] : cases) {
    const std::string error = error_of(text);
    for (const char* fragment : fragments)
      EXPECT_NE(error.find(fragment), std::string::npos)
          << "input:\n" << text << "error: " << error;
  }
}

// ---- retry / degradation ladder ------------------------------------------

/// Every test leaves the global fault registry clean.
class ServeRetryTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

serve::RetryPolicy quick_policy(std::size_t retries) {
  serve::RetryPolicy policy;
  policy.max_retries = retries;
  policy.backoff_ms = 1.0;
  policy.jitter = 0.0;
  return policy;
}

TEST_F(ServeRetryTest, TransientFaultIsAbsorbedByTheSecondAttempt) {
  metrics::reset();
  metrics::set_enabled(true);
  OperatorCache cache(std::size_t{64} << 20);
  fault::arm("serve.solve_fault", 1);

  const serve::JobReport report = serve::run_scenario(
      quick_laplace("transient", 4), cache, 0.0, {}, quick_policy(2));
  EXPECT_EQ(report.status, serve::JobStatus::kSucceeded) << report.error;
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.iterations, 4u);  // full budget, not a truncated fallback
  EXPECT_EQ(metrics::counter_value("serve/jobs.retries"), 1u);
  EXPECT_EQ(metrics::counter_value("serve/jobs.succeeded"), 1u);
  EXPECT_EQ(metrics::counter_value("serve/jobs.failed"), 0u);
  metrics::set_enabled(false);
  metrics::reset();
}

TEST_F(ServeRetryTest, InjectedLatencyDelaysButDoesNotFailTheJob) {
  OperatorCache cache(std::size_t{64} << 20);
  fault::arm("serve.solve_latency", 1);
  const serve::JobReport report =
      serve::run_scenario(quick_laplace("slow", 3), cache);
  EXPECT_EQ(report.status, serve::JobStatus::kSucceeded) << report.error;
  EXPECT_GE(report.seconds, 0.02);  // the injected 25 ms spike
  EXPECT_EQ(report.retries, 0u);
}

TEST_F(ServeRetryTest, RetryBudgetIsChargedAgainstTheDeadline) {
  OperatorCache cache(std::size_t{64} << 20);
  fault::arm("serve.solve_fault", 10);  // every attempt would fail

  serve::RetryPolicy policy = quick_policy(8);
  policy.backoff_ms = 60000.0;  // any single backoff blows the deadline
  serve::Scenario doomed = quick_laplace("doomed", 4);
  doomed.deadline_ms = 50.0;

  const auto start = std::chrono::steady_clock::now();
  const serve::JobReport report =
      serve::run_scenario(doomed, cache, 0.0, {}, policy);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  // The job must resolve kDeadlineExpired the moment the backoff cannot
  // fit, without sleeping into (or spinning past) the deadline.
  EXPECT_EQ(report.status, serve::JobStatus::kDeadlineExpired);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_NE(report.error.find("retry budget exceeds deadline"),
            std::string::npos)
      << report.error;
  EXPECT_LT(elapsed_ms, 10000.0) << "gave up by resolving, not by sleeping";
}

TEST_F(ServeRetryTest, ExhaustedRetriesDegradeToBestEffort) {
  metrics::reset();
  metrics::set_enabled(true);
  OperatorCache cache(std::size_t{64} << 20);
  fault::arm("serve.solve_fault", 1);

  serve::RetryPolicy policy = quick_policy(0);  // no retries: straight to
  policy.degraded_iterations = 0.5;             // the degraded fallback
  const serve::JobReport report = serve::run_scenario(
      quick_laplace("best-effort", 10), cache, 0.0, {}, policy);
  EXPECT_EQ(report.status, serve::JobStatus::kSucceeded) << report.error;
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_LE(report.iterations, 5u);  // truncated budget
  EXPECT_GT(report.achieved_tolerance, 0.0);
  EXPECT_EQ(metrics::counter_value("serve/jobs.degraded"), 1u);
  EXPECT_EQ(metrics::counter_value("serve/jobs.succeeded"), 1u);
  metrics::set_enabled(false);
  metrics::reset();
}

TEST_F(ServeRetryTest, DegradationDisabledFailsHardAfterRetries) {
  OperatorCache cache(std::size_t{64} << 20);
  fault::arm("serve.solve_fault", 2);  // first attempt + its one retry

  serve::RetryPolicy policy = quick_policy(1);
  policy.allow_degraded = false;
  const serve::JobReport report = serve::run_scenario(
      quick_laplace("hard-fail", 4), cache, 0.0, {}, policy);
  EXPECT_EQ(report.status, serve::JobStatus::kFailed);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_NE(report.error.find("injected transient solve fault"),
            std::string::npos);
}

TEST_F(ServeRetryTest, SchedulerRoutesRetriesThroughThePool) {
  OperatorCache cache(std::size_t{64} << 20);
  fault::arm("serve.solve_fault", 1);
  serve::SchedulerOptions options;
  options.threads = 1;
  options.cache = &cache;
  options.retry = quick_policy(2);
  serve::Scheduler scheduler(options);
  const auto id = scheduler.submit(quick_laplace("pooled", 4));
  const serve::JobReport report = scheduler.wait(id);
  EXPECT_EQ(report.status, serve::JobStatus::kSucceeded) << report.error;
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(scheduler.status(id), serve::JobStatus::kSucceeded);
}

// ---- disk-tier codecs ----------------------------------------------------

TEST(DiskCodec, LuRoundTripIsBitExact) {
  const std::size_t n = 12;
  la::Matrix a = random_matrix(n, n, 21);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 5.0;
  const la::LuFactorization lu(a);
  ASSERT_TRUE(lu.valid());

  const la::LuFactorization rt = serve::decode_lu(serve::encode_lu(lu));
  EXPECT_EQ(rt.permutation_sign(), lu.permutation_sign());
  EXPECT_EQ(rt.permutation(), lu.permutation());
  la::Vector b(n);
  Rng rng(22);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-1.0, 1.0);
  const la::Vector x1 = lu.solve(b);
  const la::Vector x2 = rt.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x1[i], x2[i]);
}

TEST(DiskCodec, CsrAndIlu0RoundTripsPreserveContent) {
  const la::CsrMatrix a = poisson_1d(16);
  const la::CsrMatrix rt = serve::decode_csr(serve::encode_csr(a));
  EXPECT_EQ(serve::fingerprint(rt), serve::fingerprint(a));

  const la::Ilu0 ilu(a);
  const la::Ilu0 ilu_rt = serve::decode_ilu0(serve::encode_ilu0(ilu));
  EXPECT_EQ(serve::fingerprint(ilu_rt.factors()),
            serve::fingerprint(ilu.factors()));
  la::Vector r(16, 1.0), z1(16), z2(16);
  ilu.apply(r, z1);
  ilu_rt.apply(r, z2);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(z1[i], z2[i]);
}

TEST(DiskCodec, Ilu0F32RoundTripIsBitExactOnTheShadow) {
  // The mixed-precision artefact stores the fp32 shadow; decoding widens to
  // double and Ilu0::from_factors re-narrows, so the shadow (the values the
  // mixed chain actually applies) must survive the round trip BITWISE.
  const la::CsrMatrix a = poisson_1d(32);
  const la::Ilu0 ilu(a);
  const std::string payload = serve::encode_ilu0_f32(ilu);
  // Half-size value storage vs the fp64 codec.
  EXPECT_LT(payload.size(), serve::encode_ilu0(ilu).size());
  const la::Ilu0 rt = serve::decode_ilu0_f32(payload);
  ASSERT_EQ(rt.factors_f32().size(), ilu.factors_f32().size());
  for (std::size_t k = 0; k < ilu.factors_f32().size(); ++k)
    EXPECT_EQ(rt.factors_f32()[k], ilu.factors_f32()[k]);
  EXPECT_EQ(rt.factors().row_ptr(), ilu.factors().row_ptr());
  EXPECT_EQ(rt.factors().col_idx(), ilu.factors().col_idx());
  // Identical fp32 sweeps on both sides.
  la::Vector r(32, 1.0), z1(32), z2(32);
  ilu.apply_f32(r, z1);
  rt.apply_f32(r, z2);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(z1[i], z2[i]);
}

TEST(DiskCodec, DecodeRejectsMalformedPayloads) {
  EXPECT_THROW((void)serve::decode_lu("garbage"), Error);
  EXPECT_THROW((void)serve::decode_csr(""), Error);
  EXPECT_THROW((void)serve::decode_ilu0_f32("garbage"), Error);
  // A structurally valid prefix with trailing junk must not decode either.
  std::string payload = serve::encode_csr(poisson_1d(4));
  payload += "x";
  EXPECT_THROW((void)serve::decode_csr(payload), Error);
  std::string payload_f32 = serve::encode_ilu0_f32(la::Ilu0(poisson_1d(4)));
  payload_f32 += "x";
  EXPECT_THROW((void)serve::decode_ilu0_f32(payload_f32), Error);
}

// ---- persistent disk tier ------------------------------------------------

std::string fresh_cache_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "updec_disk_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(DiskCache, WarmRestartServesBitwiseEqualArtefactsFromDisk) {
  const std::string dir = fresh_cache_dir("warm");
  const rbf::PolyharmonicSpline kernel(3);
  la::Vector cold, warm;

  {
    // Cold process: compute, persist.
    pde::LaplaceSolver solver(6, kernel);
    OperatorCache cache(std::size_t{64} << 20, dir);
    const auto lu = serve::cached_lu(cache, solver.collocation());
    ASSERT_NE(lu, nullptr);
    const OperatorCache::Stats s = cache.stats();
    EXPECT_EQ(s.disk.writes, 1u);
    EXPECT_EQ(s.disk.hits, 0u);
    cold = lu->solve(la::Vector(solver.collocation().system_size(), 1.0));
  }
  {
    // Warm restart: a NEW cache instance over the same directory must serve
    // the factorisation from disk, not refactor, and the artefact must be
    // bitwise identical.
    pde::LaplaceSolver solver(6, kernel);
    OperatorCache cache(std::size_t{64} << 20, dir);
    const auto lu = serve::cached_lu(cache, solver.collocation());
    ASSERT_NE(lu, nullptr);
    const OperatorCache::Stats s = cache.stats();
    EXPECT_EQ(s.disk.hits, 1u);
    EXPECT_EQ(s.disk.writes, 0u);
    warm = lu->solve(la::Vector(solver.collocation().system_size(), 1.0));

    // Promoted into the in-memory LRU: the next lookup never touches disk.
    (void)serve::cached_lu(cache, solver.collocation());
    EXPECT_EQ(cache.stats().disk.hits, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
  }
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) EXPECT_EQ(cold[i], warm[i]);
  std::filesystem::remove_all(dir);
}

TEST(DiskCache, MixedPrecisionIluRoundTripsThroughDiskBitExactly) {
  // Regression for UPDEC_MIXED_PRECISION serving: the fp32-factor artefact
  // variant persists under its own key domain ("ilu0-f32") and a warm
  // restart must serve a preconditioner whose fp32 sweep output is bitwise
  // identical to the cold process's.
  const std::string dir = fresh_cache_dir("mixed");
  const la::CsrMatrix a = poisson_1d(40);
  la::Vector r(40, 1.0), cold(40), warm(40);
  std::vector<float> cold_shadow;

  {
    OperatorCache cache(std::size_t{64} << 20, dir);
    const auto ilu = serve::cached_ilu0(cache, a, /*fp32_factors=*/true);
    ASSERT_NE(ilu, nullptr);
    EXPECT_EQ(cache.stats().disk.writes, 1u);
    cold_shadow = ilu->factors_f32();
    ilu->apply_f32(r, cold);
  }
  {
    OperatorCache cache(std::size_t{64} << 20, dir);
    const auto ilu = serve::cached_ilu0(cache, a, /*fp32_factors=*/true);
    ASSERT_NE(ilu, nullptr);
    EXPECT_EQ(cache.stats().disk.hits, 1u);
    EXPECT_EQ(cache.stats().disk.writes, 0u);
    ASSERT_EQ(ilu->factors_f32().size(), cold_shadow.size());
    for (std::size_t k = 0; k < cold_shadow.size(); ++k)
      EXPECT_EQ(ilu->factors_f32()[k], cold_shadow[k]);
    ilu->apply_f32(r, warm);

    // The fp64 artefact for the SAME operator lives under a different key:
    // requesting it must compute (and persist) a fresh entry, not alias the
    // narrowed fp32 factors.
    const auto ilu64 = serve::cached_ilu0(cache, a, /*fp32_factors=*/false);
    EXPECT_EQ(cache.stats().disk.writes, 1u);
    EXPECT_NE(ilu64.get(), ilu.get());
  }
  for (std::size_t i = 0; i < 40; ++i) EXPECT_EQ(cold[i], warm[i]);
  std::filesystem::remove_all(dir);
}

TEST(DiskCache, CorruptEntryIsRejectedDeletedAndRecomputed) {
  const std::string dir = fresh_cache_dir("corrupt");
  const rbf::PolyharmonicSpline kernel(3);
  la::Vector cold, recomputed;
  std::string entry_path;

  {
    pde::LaplaceSolver solver(6, kernel);
    OperatorCache cache(std::size_t{64} << 20, dir);
    const auto lu = serve::cached_lu(cache, solver.collocation());
    cold = lu->solve(la::Vector(solver.collocation().system_size(), 1.0));
    for (const auto& e : std::filesystem::directory_iterator(dir))
      entry_path = e.path().string();
  }
  ASSERT_FALSE(entry_path.empty());

  // Flip one payload byte on disk (simulated bit rot past the header).
  {
    std::fstream f(entry_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    ASSERT_GT(size, 64);
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  {
    pde::LaplaceSolver solver(6, kernel);
    OperatorCache cache(std::size_t{64} << 20, dir);
    const auto lu = serve::cached_lu(cache, solver.collocation());
    ASSERT_NE(lu, nullptr);
    const OperatorCache::Stats s = cache.stats();
    EXPECT_EQ(s.disk.corrupt, 1u);  // rejected, never trusted
    EXPECT_EQ(s.disk.hits, 0u);
    EXPECT_EQ(s.disk.writes, 1u);   // recomputed and re-persisted
    recomputed =
        lu->solve(la::Vector(solver.collocation().system_size(), 1.0));
  }
  for (std::size_t i = 0; i < cold.size(); ++i)
    EXPECT_EQ(cold[i], recomputed[i]);
  std::filesystem::remove_all(dir);
}

TEST_F(ServeRetryTest, InjectedCorruptionFaultForcesChecksumReject) {
  const std::string dir = fresh_cache_dir("faultrot");
  const rbf::PolyharmonicSpline kernel(3);
  {
    pde::LaplaceSolver solver(6, kernel);
    OperatorCache cache(std::size_t{64} << 20, dir);
    (void)serve::cached_lu(cache, solver.collocation());
  }
  fault::arm("serve.cache_disk_corrupt", 1);
  {
    pde::LaplaceSolver solver(6, kernel);
    OperatorCache cache(std::size_t{64} << 20, dir);
    const auto lu = serve::cached_lu(cache, solver.collocation());
    ASSERT_NE(lu, nullptr);  // recomputed under the injected rot
    EXPECT_EQ(cache.stats().disk.corrupt, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ServeRetryTest, DiskWriteFaultDegradesToMemoryOnlyServing) {
  const std::string dir = fresh_cache_dir("wfault");
  const rbf::PolyharmonicSpline kernel(3);
  pde::LaplaceSolver solver(6, kernel);
  OperatorCache cache(std::size_t{64} << 20, dir);
  fault::arm("serve.cache_disk_write", 1);

  const auto lu = serve::cached_lu(cache, solver.collocation());
  ASSERT_NE(lu, nullptr);  // the artefact itself is unaffected
  const OperatorCache::Stats s = cache.stats();
  EXPECT_EQ(s.disk.errors, 1u);
  EXPECT_EQ(s.disk.writes, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir));  // nothing half-written
  // The in-memory tier still serves it.
  (void)serve::cached_lu(cache, solver.collocation());
  EXPECT_EQ(cache.stats().hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(DiskCache, UnusableDirectoryDisablesPersistenceNotServing) {
  // A path that cannot be a directory (parent is a FILE) must warn and
  // disarm the tier; compute still works.
  const std::string file = ::testing::TempDir() + "updec_disk_blocker";
  std::ofstream(file) << "x";
  OperatorCache cache(std::size_t{64} << 20, file + "/sub");
  EXPECT_TRUE(cache.disk() == nullptr || !cache.disk()->enabled());
  const rbf::PolyharmonicSpline kernel(3);
  pde::LaplaceSolver solver(6, kernel);
  EXPECT_NE(serve::cached_lu(cache, solver.collocation()), nullptr);
  std::remove(file.c_str());
}

}  // namespace
