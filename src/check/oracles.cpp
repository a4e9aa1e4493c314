#include "check/oracles.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <functional>
#include <sstream>
#include <string_view>

#ifdef UPDEC_HAVE_OPENMP
#include <omp.h>
#endif

#include "autodiff/dual.hpp"
#include "autodiff/dual2.hpp"
#include "autodiff/ops.hpp"
#include "autodiff/tape.hpp"
#include "check/generators.hpp"
#include "control/driver.hpp"
#include "control/laplace_problem.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/iterative.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"
#include "la/robust_solve.hpp"
#include "nn/jet.hpp"
#include "nn/mlp.hpp"
#include "pointcloud/generators.hpp"
#include "rbf/collocation.hpp"
#include "rbf/rbffd.hpp"
#include "refine/adaptive_loop.hpp"
#include "rom/laplace_rom.hpp"
#include "rom/rom_solver.hpp"
#include "serve/cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard.hpp"
#include "serve/wire.hpp"

namespace updec::check {
namespace {

/// error <= tolerance decides ok; detail should read as a sentence fragment.
OracleResult judged(double error, double tolerance, std::string detail) {
  OracleResult r;
  r.error = error;
  r.tolerance = tolerance;
  r.ok = error <= tolerance;
  r.detail = std::move(detail);
  return r;
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / (1.0 + std::max(std::abs(a), std::abs(b)));
}

double max_rel_diff(const la::Vector& a, const la::Vector& b) {
  UPDEC_REQUIRE(a.size() == b.size(), "oracle vector size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, rel_diff(a[i], b[i]));
  return worst;
}

double max_abs_diff(const la::Matrix& a, const la::Matrix& b) {
  UPDEC_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                "oracle matrix shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
  return worst;
}

double max_abs_diff(const la::Vector& a, const la::Vector& b) {
  UPDEC_REQUIRE(a.size() == b.size(), "oracle vector size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

double cosine(const la::Vector& a, const la::Vector& b) {
  return la::dot(a, b) / (la::nrm2(a) * la::nrm2(b) + 1e-300);
}

}  // namespace

// ---- AD vs FD on tape ops -------------------------------------------------

OracleResult ad_vs_fd_ops(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t n = std::max<std::size_t>(c.size, 2);

  const la::CsrMatrix sp = random_sparse_diag_dominant(rng, n);
  const la::Matrix dense = random_matrix(rng, n, n);
  const la::LuFactorization lu(random_diag_dominant(rng, n));
  const la::Vector w1 = random_vector(rng, n);
  const la::Vector w2 = random_vector(rng, n);
  const la::Vector x0 = random_vector(rng, n);

  // One taped pipeline through every vector op with a hand-written VJP:
  //   y = A_lu^{-1} (S x + D x);  J = <y, w1> + <y o x, w2> + sum(0.5 x)
  // Evaluated through the tape for both the gradient and the FD probes, so
  // forward values and adjoints are checked against the same arithmetic.
  const auto evaluate = [&](const la::Vector& x, la::Vector* grad) {
    ad::Tape tape;
    ad::VarVec vx = ad::make_variables(tape, x);
    ad::VarVec y = ad::solve(lu, ad::add(ad::spmv(sp, vx), ad::gemv(dense, vx)));
    ad::Var j1 = ad::dot(y, w1);
    ad::Var j2 = ad::dot(ad::hadamard(y, vx), w2);
    ad::Var j3 = ad::sum(ad::scale(0.5, vx));
    const ad::Var j = tape.node2(j1.value() + j2.value(), j1.index(), 1.0,
                                 j2.index(), 1.0);
    const ad::Var total =
        tape.node2(j.value() + j3.value(), j.index(), 1.0, j3.index(), 1.0);
    if (grad != nullptr) {
      tape.backward(total);
      *grad = ad::adjoints(vx);
    }
    return total.value();
  };

  la::Vector g_ad;
  evaluate(x0, &g_ad);

  la::Vector g_fd(n);
  la::Vector xp = x0;
  for (std::size_t i = 0; i < n; ++i) {
    const double h = 1e-6 * (1.0 + std::abs(x0[i]));
    xp[i] = x0[i] + h;
    const double jp = evaluate(xp, nullptr);
    xp[i] = x0[i] - h;
    const double jm = evaluate(xp, nullptr);
    xp[i] = x0[i];
    g_fd[i] = (jp - jm) / (2.0 * h);
  }

  const double err = max_rel_diff(g_ad, g_fd);
  std::ostringstream os;
  os << "tape gradient vs central FD over spmv/gemv/lu-solve/dot/hadamard"
     << " (n=" << n << ", max rel component diff " << err << ")";
  return judged(err, 1e-4, os.str());
}

// ---- AD vs FD on the full Laplace control objective -----------------------

OracleResult ad_vs_fd_laplace(const OracleCase& c) {
  Rng rng(c.seed);
  const LaplaceCase lc = random_laplace_case(rng, std::max<std::size_t>(c.size, 6));
  auto dp = control::make_laplace_dp(lc.problem);
  auto fd = control::make_laplace_fd(lc.problem);

  la::Vector g_dp, g_fd;
  const double j_dp = dp->value_and_gradient(lc.control, g_dp);
  const double j_fd = fd->value_and_gradient(lc.control, g_fd);

  double err = rel_diff(j_dp, j_fd);
  err = std::max(err, max_rel_diff(g_dp, g_fd));
  std::ostringstream os;
  os << "DP gradient vs central FD on Laplace objective (grid " << lc.grid_n
     << ", " << g_dp.size() << " controls, worst rel diff " << err << ")";
  return judged(err, 1e-4, os.str());
}

// ---- DAL vs DP ------------------------------------------------------------

OracleResult dal_vs_dp_laplace(const OracleCase& c) {
  Rng rng(c.seed);
  // The continuous-adjoint (optimise-then-discretise) gradient only tracks
  // the exact discrete gradient inside its consistency domain: fine enough
  // grids and *smooth* controls near the optimisation path. Measured on
  // this codebase, grids >= 16 with controls within quarter-scale of the
  // analytic minimiser plus smooth perturbations keep the central cosine
  // >= 0.88; rough (white-noise) controls legitimately anti-align even at
  // grid 24 -- that is the paper's section-4 OTD-inconsistency, not a bug.
  // The oracle therefore randomises within the validated domain.
  const std::size_t grid = std::clamp<std::size_t>(c.size, 16, 28);
  const auto kernel = std::make_shared<rbf::PolyharmonicSpline>(3);
  const auto problem =
      std::make_shared<control::LaplaceControlProblem>(grid, *kernel);
  la::Vector control = problem->analytic_control();
  const double scale = rng.uniform(0.0, 0.25);
  const double a = rng.uniform(-0.1, 0.1);
  const double b = rng.uniform(-0.1, 0.1);
  const std::vector<double> xs = problem->solver().control_x();
  for (std::size_t i = 0; i < control.size(); ++i) {
    constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
    control[i] = scale * control[i] + a * std::sin(kTwoPi * xs[i]) +
                 b * std::cos(kTwoPi * xs[i]);
  }

  auto dp = control::make_laplace_dp(problem);
  auto dal = control::make_laplace_dal(problem);
  la::Vector g_dp, g_dal;
  const double j_dp = dp->value_and_gradient(control, g_dp);
  const double j_dal = dal->value_and_gradient(control, g_dal);

  // Both strategies evaluate J through the same forward solve: the costs
  // must agree to roundoff no matter what the gradients do.
  const double cost_err = rel_diff(j_dp, j_dal);
  if (cost_err > 1e-10) {
    std::ostringstream os;
    os << "DAL and DP report different costs at the same control: " << j_dal
       << " vs " << j_dp;
    return judged(cost_err, 1e-10, os.str());
  }

  // The continuous-adjoint gradient is corrupted at the wall extremes (the
  // section-4 Runge corners), so direction agreement is asserted over the
  // central half of the control vector only.
  la::Vector central_dp, central_dal;
  for (std::size_t i = g_dp.size() / 4; i < 3 * g_dp.size() / 4; ++i) {
    central_dp.std().push_back(g_dp[i]);
    central_dal.std().push_back(g_dal[i]);
  }
  const double align = cosine(central_dp, central_dal);
  std::ostringstream os;
  os << "DAL vs DP central-gradient alignment on Laplace (grid " << grid
     << ", control scale " << scale << ", cosine " << align
     << ", costs agree to " << cost_err << ")";
  return judged(1.0 - align, 0.25, os.str());
}

// ---- dense LU vs Krylov vs robust escalation ------------------------------

OracleResult solver_equivalence(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t n = std::max<std::size_t>(c.size, 4);
  const la::CsrMatrix a = random_sparse_diag_dominant(rng, n);
  const la::Vector b = random_vector(rng, n);

  const la::Vector x_ref = la::solve(a.to_dense(), b);
  const double scale = la::nrm_inf(x_ref) + 1.0;

  la::IterativeOptions opts;
  opts.rel_tol = 1e-12;
  opts.max_iterations = 20 * n + 200;

  double err = 0.0;
  std::string worst = "none";
  const auto consider = [&](const char* name, const la::Vector& x) {
    const double e = max_abs_diff(x, x_ref) / scale;
    if (e > err) {
      err = e;
      worst = name;
    }
  };

  consider("gmres", la::gmres(a, b, opts, la::jacobi_preconditioner(a))
                        .require_converged("oracle gmres")
                        .x);
  consider("bicgstab", la::bicgstab(a, b, opts, la::jacobi_preconditioner(a))
                           .require_converged("oracle bicgstab")
                           .x);
  {
    la::RobustSolver robust(a);
    la::Vector x;
    robust.solve(b, x).require_converged("oracle robust_solve");
    consider("robust_solve", x);
  }
  {
    // Sparse-first solver forced onto each of its two modes: the threshold
    // must select a *path*, never change the answer.
    la::RobustSolveOptions forced;
    forced.iterative = opts;
    forced.sparse_min_n = 0;  // force CSR + ILU-Krylov
    const la::SparseFirstSolver sparse_first(a, forced);
    la::SolveReport report;
    la::Vector x = sparse_first.solve(b, &report);
    report.require_converged("oracle sparse_first (sparse)");
    consider("sparse_first/sparse", x);

    // Same sparse path with the fp32 ILU(0) closure (UPDEC_MIXED_PRECISION):
    // preconditioner precision may change the iteration count, never the
    // accepted answer, so it must meet the same fp64 tolerance as the rest.
    forced.mixed_precision = true;
    const la::SparseFirstSolver mixed_first(a, forced);
    x = mixed_first.solve(b, &report);
    report.require_converged("oracle sparse_first (mixed)");
    consider("sparse_first/mixed", x);
    forced.mixed_precision = false;

    forced.sparse_min_n = n + 1;  // force eager dense LU
    const la::SparseFirstSolver dense_first(a, forced);
    x = dense_first.solve(b, &report);
    report.require_converged("oracle sparse_first (dense)");
    consider("sparse_first/dense", x);
  }

  std::ostringstream os;
  os << "GMRES/BiCGSTAB/robust_solve/sparse_first vs dense LU on "
     << "diag-dominant sparse system (n=" << n << ", worst path " << worst
     << " at " << err << ")";
  return judged(err, 1e-7, os.str());
}

// ---- batched vs looped ----------------------------------------------------

OracleResult batched_vs_looped(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t n = std::max<std::size_t>(c.size, 2);
  const std::size_t k = 1 + rng.uniform_index(8);

  const la::Matrix a = random_diag_dominant(rng, n);
  la::Matrix b(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) b(i, j) = rng.normal();

  double err = 0.0;
  std::string worst = "none";
  const auto consider = [&](const char* name, double e) {
    if (e > err) {
      err = e;
      worst = name;
    }
  };

  // LuFactorization::solve_many against per-column solve().
  const la::LuFactorization lu(a);
  {
    const la::Matrix batched = lu.solve_many(b);
    la::Matrix looped(n, k);
    for (std::size_t j = 0; j < k; ++j) {
      la::Vector col(n);
      for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
      const la::Vector x = lu.solve(col);
      for (std::size_t i = 0; i < n; ++i) looped(i, j) = x[i];
    }
    consider("lu.solve_many", max_abs_diff(batched, looped));
    consider("lu_solve_many", max_abs_diff(la::lu_solve_many(a, b), looped));
  }

  // gmres_many against per-column gmres with the shared preconditioner.
  {
    const la::CsrMatrix sp = random_sparse_diag_dominant(rng, n);
    la::IterativeOptions opts;
    opts.rel_tol = 1e-12;
    opts.max_iterations = 20 * n + 200;
    const la::Preconditioner precond = la::jacobi_preconditioner(sp);
    const la::BatchedIterativeResult batched =
        la::gmres_many(sp, b, opts, precond);
    batched.require_converged("oracle gmres_many");
    la::Matrix looped(n, k);
    for (std::size_t j = 0; j < k; ++j) {
      la::Vector col(n);
      for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
      const la::Vector x = la::gmres(sp, col, opts, precond)
                               .require_converged("oracle gmres loop")
                               .x;
      for (std::size_t i = 0; i < n; ++i) looped(i, j) = x[i];
    }
    consider("gmres_many", max_abs_diff(batched.x, looped));
  }

  std::ostringstream os;
  os << "batched multi-RHS sweeps vs looped single solves (n=" << n
     << ", k=" << k << ", worst path " << worst << " at " << err << ")";
  return judged(err, 1e-10, os.str());
}

// ---- warm cache hits vs cold computes -------------------------------------

OracleResult cached_vs_cold(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t side = std::max<std::size_t>(c.size, 4);
  const pc::PointCloud cloud = random_cloud(rng, side * side, side);
  const rbf::PolyharmonicSpline kernel(3);

  const auto interior = [](const pc::Node&) { return 0.0; };
  const auto boundary = [](const pc::Node& node) {
    return std::sin(3.0 * node.pos.x) + node.pos.y;
  };

  // Cold: a collocation that factors its own LU.
  rbf::GlobalCollocation cold(cloud, kernel, 1, rbf::LinearOp::laplacian());
  const la::Vector rhs = cold.assemble_rhs(interior, boundary);
  const la::Vector x_cold = cold.solve(rhs);

  // Warm: two fresh collocations of the same content served by one cache --
  // the second memoize must hit and both must reproduce the cold solution
  // bit-for-bit (same matrix bytes => same factorisation => same sweeps).
  serve::OperatorCache cache(std::size_t{1} << 30);
  rbf::GlobalCollocation warm1(cloud, kernel, 1, rbf::LinearOp::laplacian());
  rbf::GlobalCollocation warm2(cloud, kernel, 1, rbf::LinearOp::laplacian());
  serve::memoize_lu(cache, warm1);
  serve::memoize_lu(cache, warm2);
  const la::Vector x_warm1 = warm1.solve(rhs);
  const la::Vector x_warm2 = warm2.solve(rhs);

  double err = std::max(max_abs_diff(x_cold, x_warm1),
                        max_abs_diff(x_cold, x_warm2));

  // Memoized RBF-FD weights: second fetch must be the identical object and
  // match a cold weights_for() run exactly.
  const rbf::RbffdConfig config = random_stencil_config(rng, cloud.size());
  const rbf::RbffdOperators ops(cloud, kernel, config);
  const la::CsrMatrix w_cold = ops.weights_for(rbf::LinearOp::laplacian());
  const auto w1 =
      serve::cached_rbffd_weights(cache, ops, rbf::LinearOp::laplacian());
  const auto w2 =
      serve::cached_rbffd_weights(cache, ops, rbf::LinearOp::laplacian());
  if (w1.get() != w2.get())
    return judged(1.0, 0.0, "repeated cached_rbffd_weights returned distinct objects");
  err = std::max(err, max_abs_diff(w_cold.to_dense(), w1->to_dense()));

  const serve::OperatorCache::Stats stats = cache.stats();
  if (stats.misses != 2 || stats.hits < 2) {
    std::ostringstream os;
    os << "cache accounting wrong: expected 2 misses / >= 2 hits, got "
       << stats.misses << " misses / " << stats.hits << " hits";
    return judged(1.0, 0.0, os.str());
  }

  std::ostringstream os;
  os << "warm OperatorCache hits reproduce cold computes (" << cloud.size()
     << " nodes, " << stats.hits << " hits, max abs diff " << err << ")";
  return judged(err, 0.0, os.str());
}

// ---- OpenMP vs forced single thread ---------------------------------------

OracleResult threaded_vs_serial(const OracleCase& c) {
#ifndef UPDEC_HAVE_OPENMP
  (void)c;
  OracleResult r;
  r.skipped = true;
  r.detail = "OpenMP not compiled in; threaded-vs-serial oracle skipped";
  return r;
#else
  Rng rng(c.seed);
  const std::size_t n = std::max<std::size_t>(c.size, 4);
  const std::size_t k = 1 + rng.uniform_index(6);

  const la::Matrix a = random_matrix(rng, n, n);
  const la::Matrix bm = random_matrix(rng, n, n);
  const la::Matrix d = random_diag_dominant(rng, n);
  la::Matrix rhs(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) rhs(i, j) = rng.normal();
  const la::CsrMatrix sp = random_sparse_diag_dominant(rng, n);
  const la::Vector v = random_vector(rng, n);

  const std::size_t side = 4 + rng.uniform_index(4);
  const pc::PointCloud cloud = random_cloud(rng, side * side, side);
  const rbf::PolyharmonicSpline kernel(3);
  const rbf::RbffdConfig config = random_stencil_config(rng, cloud.size());

  struct Snapshot {
    la::Matrix gemm_out;
    la::Vector spmv_out;
    la::Matrix solve_many_out;
    la::Matrix colloc_matrix;
    la::Matrix rbffd_lap;
  };
  const auto compute = [&]() {
    Snapshot s;
    s.gemm_out = la::Matrix(n, n);
    la::gemm(1.0, a, bm, 0.0, s.gemm_out);
    s.spmv_out = sp.apply(v);
    s.solve_many_out = la::lu_solve_many(d, rhs);
    rbf::GlobalCollocation colloc(cloud, kernel, 1,
                                  rbf::LinearOp::laplacian());
    s.colloc_matrix = colloc.matrix();
    rbf::RbffdOperators ops(cloud, kernel, config);
    s.rbffd_lap = ops.laplacian().to_dense();
    return s;
  };

  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  Snapshot serial;
  try {
    serial = compute();
  } catch (...) {
    omp_set_num_threads(saved_threads);
    throw;
  }
  omp_set_num_threads(saved_threads);
  const Snapshot threaded = compute();

  double err = 0.0;
  std::string worst = "none";
  const auto consider = [&](const char* name, double e) {
    if (e > err) {
      err = e;
      worst = name;
    }
  };
  consider("gemm", max_abs_diff(serial.gemm_out, threaded.gemm_out));
  consider("spmv", max_abs_diff(serial.spmv_out, threaded.spmv_out));
  consider("lu_solve_many",
           max_abs_diff(serial.solve_many_out, threaded.solve_many_out));
  consider("collocation_assembly",
           max_abs_diff(serial.colloc_matrix, threaded.colloc_matrix));
  consider("rbffd_weights", max_abs_diff(serial.rbffd_lap, threaded.rbffd_lap));

  std::ostringstream os;
  os << "OpenMP (" << saved_threads << " threads) vs forced serial run "
     << "(n=" << n << ", worst kernel " << worst << " at " << err
     << "; row-parallel loops must be bitwise deterministic)";
  return judged(err, 0.0, os.str());
#endif
}

// ---- Cholesky / QR / LU consistency ---------------------------------------

OracleResult factorization_consistency(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t n = std::max<std::size_t>(c.size, 2);
  const la::Matrix a = random_spd(rng, n);
  const la::Vector b = random_vector(rng, n);

  const la::Vector x_lu = la::solve(a, b);
  const double scale = la::nrm_inf(x_lu) + 1.0;

  double err = 0.0;
  std::string worst = "none";
  const auto consider = [&](const char* name, double e) {
    if (e > err) {
      err = e;
      worst = name;
    }
  };

  const la::CholeskyFactorization chol(a);
  consider("cholesky_solve", max_abs_diff(chol.solve(b), x_lu) / scale);

  const la::QrFactorization qr(a);
  consider("qr_solve", max_abs_diff(qr.solve_least_squares(b), x_lu) / scale);

  // log|det A| from the Cholesky factor vs the LU determinant.
  const la::LuFactorization lu(a);
  consider("log_determinant",
           rel_diff(chol.log_determinant(), std::log(std::abs(lu.determinant()))));

  std::ostringstream os;
  os << "Cholesky/QR/LU agreement on random SPD system (n=" << n
     << ", worst path " << worst << " at " << err << ")";
  return judged(err, 1e-8, os.str());
}

// ---- reduced-order tier vs full path --------------------------------------

OracleResult rom_vs_full(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t n = std::max<std::size_t>(c.size, 8);

  // Part A: the estimator's three regimes on a random sparse system, on the
  // same sparse path the serve tier escalates to.
  la::RobustSolveOptions forced;
  forced.sparse_min_n = 0;
  const la::CsrMatrix a = random_sparse_diag_dominant(rng, n);
  const la::SparseFirstSolver full(a, forced);

  rom::RomConfig config;
  config.enabled = true;
  config.tol = 1e-8;
  config.max_k = n;
  config.min_snapshots = std::max<std::size_t>(3, n / 4);
  rom::SnapshotBank bank(1ull << 22);
  rom::RomSolver solver(full, bank, c.seed ^ 0x9E3779B97F4A7C15ull, config);

  // Cold: no basis exists, so every solve must escalate and be harvested.
  std::vector<la::Vector> rhs;
  for (std::size_t i = 0; i < config.min_snapshots; ++i) {
    rhs.push_back(random_vector(rng, n));
    rom::RomSolveReport rep;
    (void)solver.solve(rhs.back(), {}, &rep);
    if (!rep.escalated || rep.reduced)
      return judged(1.0, 0.0, "cold ROM solve did not escalate");
  }

  // In-span: x is linear in b, so a combination of the harvested right-hand
  // sides has its solution inside the snapshot span -- the estimator must
  // accept it in reduced space and the answer must match the full path.
  la::Vector inside(n, 0.0);
  for (const la::Vector& r : rhs) la::axpy(rng.uniform(-1.0, 1.0), r, inside);
  rom::RomSolveReport rep;
  const la::Vector x_rom = solver.solve(inside, {}, &rep);
  la::SolveReport full_rep;
  const la::Vector x_full = full.solve(inside, &full_rep);
  full_rep.require_converged("oracle rom_vs_full reference");
  if (!rep.reduced)
    return judged(1.0, 0.0,
                  "in-span rhs was not answered in reduced space (estimate " +
                      std::to_string(rep.estimate) + ")");
  double err = max_abs_diff(x_rom, x_full) / (la::nrm_inf(x_full) + 1.0);

  // Out-of-span: whichever path answers a fresh rhs, the result must agree
  // with the full solver -- an accepted reduced answer met a 1e-8 residual.
  const la::Vector fresh = random_vector(rng, n);
  const la::Vector y_rom = solver.solve(fresh, {}, &rep);
  const la::Vector y_full = full.solve(fresh, &full_rep);
  full_rep.require_converged("oracle rom_vs_full reference (fresh)");
  err = std::max(err, max_abs_diff(y_rom, y_full) / (la::nrm_inf(y_full) + 1.0));

  const rom::RomStats stats = solver.stats();
  if (stats.reduced + stats.escalated != config.min_snapshots + 2)
    return judged(1.0, 0.0, "ROM solve accounting does not balance");
  if (stats.rebuilds == 0 || stats.harvested < config.min_snapshots)
    return judged(1.0, 0.0, "escalations were not harvested into a basis");

  // Part B: the whole DAL control loop, ROM-routed vs full-path, from the
  // same jittered start. The estimator bounds each accepted solve, so the
  // final costs must stay within a small multiple of the ROM tolerance.
  const rbf::PolyharmonicSpline kernel(3);
  auto problem = std::make_shared<rom::LaplaceFdControlProblem>(8, kernel);
  rom::RomConfig loop_config;
  loop_config.enabled = true;
  loop_config.tol = 1e-7;
  loop_config.max_k = 24;
  loop_config.min_snapshots = 4;
  rom::SnapshotBank loop_bank(1ull << 24);
  auto loop_rom = std::make_shared<rom::RomSolver>(
      problem->solver().op(), loop_bank, 1, loop_config);

  la::Vector control = problem->initial_control();
  for (std::size_t i = 0; i < control.size(); ++i)
    control[i] += rng.normal(0.0, 0.1);

  control::DriverOptions options;
  options.iterations = 10;
  options.initial_learning_rate = 1e-2;
  const auto full_strategy = rom::make_laplace_fd_dal(problem);
  const auto rom_strategy = rom::make_laplace_rom_dal(problem, loop_rom);
  const control::DriverResult full_run =
      control::optimize_from(control, *full_strategy, options);
  const control::DriverResult rom_run =
      control::optimize_from(control, *rom_strategy, options);

  const rom::RomStats loop_stats = loop_rom->stats();
  if (loop_stats.escalated < loop_config.min_snapshots)
    return judged(1.0, 0.0, "ROM control loop never exercised escalation");
  if (loop_stats.reduced == 0)
    return judged(1.0, 0.0, "ROM control loop never used the reduced space");
  err = std::max(err, rel_diff(rom_run.final_cost, full_run.final_cost));

  std::ostringstream os;
  os << "RomSolver vs full sparse path (n=" << n << ", loop "
     << loop_stats.reduced << " reduced / " << loop_stats.escalated
     << " escalated, J_rom=" << rom_run.final_cost
     << " vs J_full=" << full_run.final_cost << ", worst " << err << ")";
  return judged(err, 1e-4, os.str());
}

// ---- adjoint-adaptive refinement vs uniform --------------------------------

/// The analytic minimiser sampled at a problem's control DOFs: at this
/// control the exact tracked cost is 0, so the discrete cost IS the
/// tracked-cost discretisation error -- an optimizer-free measure of cloud
/// quality.
la::Vector analytic_control_for(const rom::LaplaceFdControlProblem& p) {
  la::Vector c(p.control_size(), 0.0);
  const std::vector<double>& xs = p.solver().top_x();
  for (std::size_t i = 0; i + 1 < xs.size(); ++i)
    c[i] = pde::LaplaceSolver::analytic_control(xs[i]);
  return c;
}

OracleResult refinement_vs_uniform(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t grid_n = std::clamp<std::size_t>(c.size, 12, 14);

  refine::AdaptiveOptions options;
  options.refine.cycles = 2;
  options.refine.refine_fraction = rng.uniform(0.10, 0.20);
  const rbf::PolyharmonicSpline kernel(3);
  const refine::AdaptiveResult adapted =
      refine::AdaptiveLoop(grid_n, kernel, options).run();
  const std::size_t adapted_nodes =
      adapted.problem->solver().cloud().size();
  const double adapted_err =
      adapted.problem->cost(analytic_control_for(*adapted.problem));

  // Uniform arm: the smallest uniform grid with AT LEAST as many nodes, so
  // the comparison can only flatter the uniform cloud.
  std::size_t uniform_n = grid_n;
  while ((uniform_n + 1) * (uniform_n + 1) < adapted_nodes) ++uniform_n;
  const rom::LaplaceFdControlProblem uniform(uniform_n, kernel);
  const double uniform_err = uniform.cost(analytic_control_for(uniform));

  std::ostringstream os;
  os << "adaptive refinement (base " << grid_n << "^2, fraction "
     << options.refine.refine_fraction << ") reached " << adapted_nodes
     << " nodes with tracked-cost error " << adapted_err << " vs uniform "
     << uniform.solver().cloud().size() << " nodes at " << uniform_err;
  if (!(uniform_err > 0.0))
    return judged(1.0, 0.0, "uniform reference error vanished: " + os.str());
  // The adapted cloud must not lose to uniform at matched size (the bench
  // gate demands 2x; the randomized oracle only asserts "never worse").
  return judged(adapted_err / uniform_err, 1.0, os.str());
}

// ---- sharded serving vs in-process ----------------------------------------

OracleResult sharded_vs_single(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t n_jobs = std::max<std::size_t>(c.size, 4);

  // A mixed batch: several grid families so a 4-shard pool actually spreads
  // load (and steals), randomized seeds/jitter so runs are distinct jobs.
  std::vector<serve::Scenario> scenarios;
  scenarios.reserve(n_jobs);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    serve::Scenario sc;
    sc.id = "oracle-" + std::to_string(i);
    sc.problem = serve::ProblemKind::kLaplace;
    sc.strategy = serve::Strategy::kDal;
    sc.grid_n = 6 + rng.uniform_index(3);
    sc.iterations = 2 + rng.uniform_index(3);
    sc.learning_rate = 1e-2;
    sc.seed = rng.next_u64();
    sc.control_jitter = rng.uniform(0.0, 0.2);
    scenarios.push_back(sc);
  }

  // Reference arm: plain run_scenario with a private cache, no processes.
  serve::OperatorCache reference_cache(64u << 20, "");
  std::vector<serve::JobReport> reference;
  reference.reserve(n_jobs);
  for (const serve::Scenario& sc : scenarios)
    reference.push_back(serve::run_scenario(sc, reference_cache));

  const auto run_sharded = [&](std::size_t shards) {
    serve::SchedulerOptions options;
    options.shards = shards;
    serve::Scheduler scheduler(options);
    std::vector<serve::Scheduler::JobId> ids;
    ids.reserve(n_jobs);
    for (const serve::Scenario& sc : scenarios)
      ids.push_back(scheduler.submit(sc));
    std::vector<serve::JobReport> reports;
    reports.reserve(n_jobs);
    for (const auto id : ids) reports.push_back(scheduler.wait(id));
    return reports;
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const std::vector<serve::JobReport> reports = run_sharded(shards);
    for (std::size_t i = 0; i < n_jobs; ++i) {
      const serve::JobReport& got = reports[i];
      const serve::JobReport& want = reference[i];
      std::ostringstream os;
      os << scenarios[i].id << " via " << shards << " shard(s) ";
      if (got.status != serve::JobStatus::kSucceeded) {
        os << "failed: " << got.error;
        return judged(1.0, 0.0, os.str());
      }
      if (got.final_cost != want.final_cost ||
          got.iterations != want.iterations ||
          got.cost_history != want.cost_history) {
        os << "diverged from the in-process run: J=" << got.final_cost
           << " vs " << want.final_cost << " ("
           << std::abs(got.final_cost - want.final_cost) << " apart), "
           << got.iterations << " vs " << want.iterations << " iterations";
        return judged(1.0, 0.0, os.str());
      }
    }
  }

  std::ostringstream os;
  os << "sharded serving vs in-process run (" << n_jobs
     << " jobs, 1-shard and 4-shard pools, per-job costs bitwise equal)";
  return judged(0.0, 0.0, os.str());
}

// ---- the scenario schema ---------------------------------------------------

namespace {

void draw(Rng& rng, std::string& v) {
  v = "id" + std::to_string(rng.next_u64());
}
void draw(Rng& rng, serve::ProblemKind& v) {
  v = static_cast<serve::ProblemKind>(rng.uniform_index(2));
}
void draw(Rng& rng, serve::Strategy& v) {
  v = static_cast<serve::Strategy>(rng.uniform_index(3));
}
void draw(Rng& rng, std::uint64_t& v) {
  // Mostly small values, 0 included (a uniform job), sometimes any 64 bits.
  v = rng.uniform_index(4) == 0 ? rng.next_u64() : rng.uniform_index(4);
}
void draw(Rng& rng, int& v) { v = static_cast<int>(rng.uniform_index(7)) - 3; }
void draw(Rng& rng, double& v) {
  switch (rng.uniform_index(4)) {
    case 0: v = rng.uniform_index(2) != 0 ? 0.0 : -0.0; break;
    case 1: v = rng.uniform(); break;
    case 2: v = rng.uniform(-1e3, 1e3); break;
    default: v = rng.uniform(-1.0, 1.0) * 1e300; break;
  }
}

/// A different value of the same type; a fraction in (0, 1) stays there.
void nudge(std::string& v) { v += "x"; }
void nudge(serve::ProblemKind& v) {
  v = v == serve::ProblemKind::kLaplace ? serve::ProblemKind::kChannel
                                        : serve::ProblemKind::kLaplace;
}
void nudge(serve::Strategy& v) {
  v = static_cast<serve::Strategy>((static_cast<int>(v) + 1) % 3);
}
void nudge(std::uint64_t& v) { ++v; }
void nudge(int& v) { ++v; }
void nudge(double& v) { v = v > 0.0 && v < 1.0 ? v / 2 : 0.5; }

std::string cell(const std::string& v) { return v; }
std::string cell(serve::ProblemKind v) { return serve::to_string(v); }
std::string cell(serve::Strategy v) { return serve::to_string(v); }
template <typename T>
std::string cell(T v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// `sc` with its k-th table field nudged; `info` names that field.
serve::Scenario nudged(serve::Scenario sc, std::size_t k,
                       serve::FieldInfo& info) {
  std::size_t at = 0;
  serve::for_each_field(sc, [&](const serve::FieldInfo& f, auto& v) {
    if (at++ != k) return;
    info = f;
    nudge(v);
  });
  return sc;
}

/// Wire bytes of a scenario: equal bytes mean bitwise-equal fields.
std::string scenario_bytes(const serve::Scenario& sc) {
  serve::wire::JobFrame frame;
  frame.scenario = sc;
  return serve::wire::encode_job(frame);
}

std::uint64_t bundle_hits(serve::OperatorCache& cache) {
  std::uint64_t hits = 0;
  for (const auto& [name, cs] : cache.stats().by_class)
    if (name == "bundle" || name == "rom-bundle" || name == "refined-bundle")
      hits += cs.hits;
  return hits;
}

}  // namespace

OracleResult scenario_schema(const OracleCase& c) {
  Rng rng(c.seed);
  const serve::Scenario defaults;
  std::size_t n_fields = 0;
  serve::for_each_field(
      defaults, [&](const serve::FieldInfo&, const auto&) { ++n_fields; });
  const std::size_t n = std::max<std::size_t>(c.size, 2);

  // Parts 1-2: random scenarios round-trip bitwise through the wire and a
  // one-row manifest, and only the applicable discretisation fields move
  // the routing fingerprint.
  for (std::size_t trial = 0; trial < n; ++trial) {
    serve::Scenario sc;
    serve::for_each_field(
        sc, [&](const serve::FieldInfo&, auto& v) { draw(rng, v); });
    const std::string bytes = scenario_bytes(sc);
    serve::wire::JobFrame frame;
    frame.scenario = sc;
    if (scenario_bytes(serve::wire::decode_job(serve::wire::encode_job(frame))
                           .scenario) != bytes)
      return judged(1.0, 0.0, "wire round trip changed " + sc.id);
    std::string header, row;
    serve::for_each_field(sc, [&](const serve::FieldInfo& f, const auto& v) {
      header += std::string(header.empty() ? "" : ",") + f.name;
      row += (row.empty() ? "" : ",") + cell(v);
    });
    std::istringstream manifest(header + "\n" + row + "\n");
    const std::vector<serve::Scenario> parsed =
        serve::parse_manifest(manifest, "oracle");
    if (parsed.size() != 1 || scenario_bytes(parsed[0]) != bytes)
      return judged(1.0, 0.0, "manifest round trip changed row " + row);

    const std::uint64_t fp = serve::scenario_fingerprint(sc);
    for (std::size_t k = 0; k < n_fields; ++k) {
      serve::FieldInfo f{"", serve::FieldRole::kIdentity};
      const serve::Scenario other = nudged(sc, k, f);
      const bool applies =
          f.role == serve::FieldRole::kDiscretisation &&
          (!f.only || *f.only == sc.problem) &&
          (std::string_view(f.name) != "refine_fraction" ||
           sc.refine_cycles > 0);
      if ((serve::scenario_fingerprint(other) != fp) != applies)
        return judged(1.0, 0.0,
                      std::string("changing ") + f.name + " of a " +
                          serve::to_string(sc.problem) + " scenario " +
                          (applies ? "kept" : "moved") + " its fingerprint");
    }
  }

  // Part 3: two jobs that share a cached operator bundle share a shard.
  // A small Laplace job and each one-field nudge of it run on a private
  // cold cache; whenever the nudged job hits the first one's bundle, both
  // must route alike.
  std::size_t shared = 0;
  for (std::size_t trial = 0; trial < n / 8 + 1; ++trial) {
    serve::Scenario a;
    a.id = "bundle-" + std::to_string(trial);
    a.strategy = static_cast<serve::Strategy>(rng.uniform_index(3));
    a.grid_n = 6 + rng.uniform_index(2);
    a.iterations = 1;
    a.refine_cycles = rng.uniform_index(2);
    a.refine_fraction = std::array{0.0, 0.2, 1.5}[rng.uniform_index(3)];
    for (std::size_t k = 0; k < n_fields; ++k) {
      serve::FieldInfo f{"", serve::FieldRole::kIdentity};
      const serve::Scenario b = nudged(a, k, f);
      if (std::string_view(f.name) == "problem") continue;  // no channel bundle
      serve::OperatorCache cache(64u << 20, "");
      (void)serve::run_scenario(a, cache, 0.0, {}, serve::RetryPolicy{});
      const std::uint64_t before = bundle_hits(cache);
      (void)serve::run_scenario(b, cache, 0.0, {}, serve::RetryPolicy{});
      if (bundle_hits(cache) == before) continue;
      ++shared;
      if (serve::scenario_fingerprint(a) != serve::scenario_fingerprint(b))
        return judged(1.0, 0.0,
                      std::string("jobs sharing a bundle route apart after "
                                  "changing ") + f.name);
    }
  }

  std::ostringstream os;
  os << "scenario schema (" << n << " random scenarios round-trip bitwise "
     << "through wire and manifest, fingerprint moves with exactly the "
     << "applicable discretisation fields; " << shared
     << " bundle-sharing pairs route together)";
  return judged(0.0, 0.0, os.str());
}

// ---- batched PINN jets vs per-point Dual2<Var> ----------------------------

namespace {

// Per-point reference evaluations: one Mlp::forward per point on
// Dual2<Var> (full second order), Dual<Var> (one directional first
// derivative) or Var (value) scalars -- the arithmetic nn::jet batches.

std::vector<ad::Dual2<ad::Var>> eval_dual2(const nn::Mlp& net,
                                           std::span<const ad::Var> theta,
                                           ad::Tape& tape, double x,
                                           double y) {
  const ad::Var zero = tape.constant(0.0);
  const ad::Var one = tape.constant(1.0);
  const std::vector<ad::Dual2<ad::Var>> inputs = {
      {tape.constant(x), one, zero, zero, zero, zero},
      {tape.constant(y), zero, one, zero, zero, zero}};
  return net.forward<ad::Dual2<ad::Var>, ad::Var>(
      theta, std::span<const ad::Dual2<ad::Var>>(inputs),
      [&](const ad::Var& w) {
        return ad::Dual2<ad::Var>{w, zero, zero, zero, zero, zero};
      });
}

std::vector<ad::Dual<ad::Var>> eval_dual1(const nn::Mlp& net,
                                          std::span<const ad::Var> theta,
                                          ad::Tape& tape, double x, double y,
                                          double dx, double dy) {
  const std::vector<ad::Dual<ad::Var>> inputs = {
      {tape.constant(x), tape.constant(dx)},
      {tape.constant(y), tape.constant(dy)}};
  return net.forward<ad::Dual<ad::Var>, ad::Var>(
      theta, std::span<const ad::Dual<ad::Var>>(inputs),
      [&](const ad::Var& w) {
        return ad::Dual<ad::Var>{w, tape.constant(0.0)};
      });
}

std::vector<ad::Var> eval_value(const nn::Mlp& net,
                                std::span<const ad::Var> theta, ad::Tape& tape,
                                std::span<const double> point) {
  std::vector<ad::Var> inputs;
  for (const double v : point) inputs.push_back(tape.constant(v));
  return net.forward<ad::Var, ad::Var>(theta, std::span<const ad::Var>(inputs),
                                       [](const ad::Var& w) { return w; });
}

/// Output jets of one point from the per-point path, by channel.
using PointJets = std::function<ad::Var(nn::Channel, std::size_t out)>;

PointJets per_point_jets(const nn::Mlp& net, std::span<const ad::Var> theta,
                         ad::Tape& tape, double x, double y,
                         nn::Channels channels) {
  using nn::Channel;
  const bool dx = channels.has(Channel::kDx);
  const bool dy = channels.has(Channel::kDy);
  const bool second = channels.has(Channel::kDxx) ||
                      channels.has(Channel::kDyy) || (dx && dy);
  if (second) {
    auto out = eval_dual2(net, theta, tape, x, y);
    return [out](Channel c, std::size_t o) {
      switch (c) {
        case Channel::kValue: return out[o].v;
        case Channel::kDx: return out[o].gx;
        case Channel::kDy: return out[o].gy;
        case Channel::kDxx: return out[o].hxx;
        case Channel::kDyy: return out[o].hyy;
      }
      return out[o].v;
    };
  }
  if (dx || dy) {
    auto out = eval_dual1(net, theta, tape, x, y, dx ? 1.0 : 0.0,
                          dy ? 1.0 : 0.0);
    return [out](Channel c, std::size_t o) {
      return c == Channel::kValue ? out[o].v : out[o].d;
    };
  }
  const double point[] = {x, y};
  auto out = eval_value(net, theta, tape, point);
  return [out](Channel, std::size_t o) { return out[o]; };
}

}  // namespace

OracleResult pinn_batched_vs_scalar(const OracleCase& c) {
  using nn::Channel;
  Rng rng(c.seed);
  constexpr nn::Activation kActivations[] = {
      nn::Activation::kTanh, nn::Activation::kSin, nn::Activation::kRelu,
      nn::Activation::kIdentity};
  constexpr Channel kAll[] = {Channel::kValue, Channel::kDx, Channel::kDy,
                              Channel::kDxx, Channel::kDyy};
  // Every distinct channel set (a second-order channel implies its first).
  const nn::Channels kSets[] = {
      {Channel::kValue},
      {Channel::kDx},
      {Channel::kDy},
      {Channel::kDx, Channel::kDy},
      {Channel::kDxx},
      {Channel::kDyy},
      {Channel::kDxx, Channel::kDy},
      {Channel::kDx, Channel::kDyy},
      {Channel::kDxx, Channel::kDyy}};

  const std::size_t max_width = std::clamp<std::size_t>(c.size, 1, 30);
  const auto random_net = [&](std::size_t in, std::size_t out,
                              nn::Activation activation) {
    std::vector<std::size_t> layers = {in};
    const std::size_t depth = 1 + rng.uniform_index(3);
    for (std::size_t k = 0; k < depth; ++k)
      layers.push_back(1 + rng.uniform_index(max_width));
    layers.push_back(out);
    nn::Mlp net(layers, activation, rng.next_u64());
    // Glorot weights plus nonzero biases, so every parameter matters.
    std::vector<double> params = net.parameters();
    for (double& p : params) p += rng.uniform(-0.3, 0.3);
    net.set_parameters(params);
    return net;
  };
  const nn::Activation activation = kActivations[rng.uniform_index(4)];
  const nn::Mlp u_net =
      random_net(2, rng.uniform_index(2) ? 3 : 1, activation);
  const nn::Mlp c_net = random_net(1, 1, activation);
  const std::size_t n = 1 + rng.uniform_index(8);
  std::vector<double> points(2 * n), ts(n);
  for (double& v : points) v = rng.uniform(-1.0, 1.0);
  for (double& v : ts) v = rng.uniform(-1.0, 1.0);

  double err = 0.0;
  for (const nn::Channels& set : kSets) {
    // Loss weights: a linear and a quadratic term per output jet.
    std::vector<double> weights;
    for (std::size_t k = 0; k < 2 * (5 * 3 * n + n); ++k)
      weights.push_back(rng.uniform(-1.0, 1.0));
    struct Taped {
      double loss;
      la::Vector grad_u, grad_c;
    };
    // Builds the same loss from either path's jets, in the same order.
    const auto run = [&](bool batched) {
      ad::Tape tape;
      const ad::VarVec theta_u =
          ad::make_variables(tape, la::Vector(u_net.parameters()));
      const ad::VarVec theta_c =
          ad::make_variables(tape, la::Vector(c_net.parameters()));
      std::vector<PointJets> u_jets, c_jets;
      if (batched) {
        const nn::JetVars u = nn::jet(u_net, theta_u, points, set);
        const nn::JetVars cj = nn::jet(c_net, theta_c, ts, {Channel::kValue});
        for (std::size_t p = 0; p < n; ++p) {
          u_jets.push_back([u, p](Channel ch, std::size_t o) {
            return u(ch, p, o);
          });
          c_jets.push_back([cj, p](Channel ch, std::size_t o) {
            return cj(ch, p, o);
          });
        }
      } else {
        for (std::size_t p = 0; p < n; ++p) {
          u_jets.push_back(per_point_jets(u_net, theta_u, tape,
                                          points[2 * p], points[2 * p + 1],
                                          set));
          const double t[] = {ts[p]};
          const auto cv = eval_value(c_net, theta_c, tape, t);
          c_jets.push_back([cv](Channel, std::size_t o) { return cv[o]; });
        }
      }
      ad::Var loss = tape.constant(0.0);
      std::size_t k = 0;
      const auto add = [&](const ad::Var& y) {
        loss = loss + weights[k] * y + weights[k + 1] * (y * y);
        k += 2;
      };
      for (std::size_t p = 0; p < n; ++p) {
        for (const Channel ch : kAll)
          if (set.has(ch))
            for (std::size_t o = 0; o < u_net.num_outputs(); ++o)
              add(u_jets[p](ch, o));
        add(c_jets[p](Channel::kValue, 0));
      }
      tape.backward(loss);
      return Taped{loss.value(), ad::adjoints(theta_u),
                   ad::adjoints(theta_c)};
    };
    const Taped batched = run(true);
    const Taped scalar = run(false);
    err = std::max({err, rel_diff(batched.loss, scalar.loss),
                    max_rel_diff(batched.grad_u, scalar.grad_u),
                    max_rel_diff(batched.grad_c, scalar.grad_c)});
  }

  // u_xx against a central difference of the value channel, on a smooth
  // net (ReLU and identity have no useful second derivative).
  const nn::Mlp smooth = random_net(2, 1, nn::Activation::kTanh);
  const double x = rng.uniform(-1.0, 1.0), y = rng.uniform(-1.0, 1.0);
  const double h = 1e-3;
  const auto value_at = [&](double xv) {
    const double p[] = {xv, y};
    return nn::BatchedJet(smooth, smooth.parameters(), p, {Channel::kValue})
        .output(Channel::kValue, 0);
  };
  const double at[] = {x, y};
  const double uxx =
      nn::BatchedJet(smooth, smooth.parameters(), at, {Channel::kDxx})
          .output(Channel::kDxx, 0);
  const double fd =
      (value_at(x + h) - 2.0 * value_at(x) + value_at(x - h)) / (h * h);
  const double fd_err = rel_diff(uxx, fd);
  constexpr double kFdTolerance = 1e-5;

  std::ostringstream os;
  os << "batched jet op vs per-point Dual2<Var> path ("
     << nn::to_string(activation) << ", u net " << u_net.summary() << ", "
     << n << " points, 9 channel sets; worst rel diff " << err
     << "; u_xx vs central FD rel diff " << fd_err << ")";
  if (fd_err > kFdTolerance) return judged(fd_err, kFdTolerance, os.str());
  return judged(err, 1e-10, os.str());
}

// ---- catalogue ------------------------------------------------------------

const std::vector<Oracle>& all_oracles() {
  static const std::vector<Oracle> oracles = {
      {"ad_vs_fd_ops", "reverse-mode AD vs central FD on the vector tape ops",
       4, 32, &ad_vs_fd_ops},
      {"ad_vs_fd_laplace",
       "DP gradient vs central FD on the Laplace control objective", 6, 12,
       &ad_vs_fd_laplace},
      {"dal_vs_dp_laplace",
       "DAL adjoint gradient vs DP gradient on the Laplace problem", 16, 28,
       &dal_vs_dp_laplace},
      {"solver_equivalence",
       "dense LU vs GMRES vs BiCGSTAB vs robust_solve escalation", 8, 96,
       &solver_equivalence},
      {"batched_vs_looped",
       "solve_many / lu_solve_many / gmres_many vs looped single solves", 4,
       64, &batched_vs_looped},
      {"cached_vs_cold",
       "warm OperatorCache hits vs cold assembly + factorisation", 4, 9,
       &cached_vs_cold},
      {"threaded_vs_serial",
       "OpenMP kernels vs the same run forced to one thread", 8, 64,
       &threaded_vs_serial},
      {"factorization_consistency",
       "Cholesky and QR vs LU on random SPD systems", 2, 64,
       &factorization_consistency},
      {"rom_vs_full",
       "POD/Galerkin reduced solves vs the full sparse path", 8, 48,
       &rom_vs_full},
      {"refinement_vs_uniform",
       "adjoint-adapted point clouds vs uniform grids at matched node count",
       12, 14, &refinement_vs_uniform},
      {"sharded_vs_single",
       "multi-process shard pools vs a plain in-process scenario run", 4, 12,
       &sharded_vs_single},
      {"scenario_schema",
       "scenario field table: wire/manifest round trips, family routing", 2,
       64, &scenario_schema},
      {"pinn_batched_vs_scalar",
       "batched Taylor-mode network op vs per-point Dual2<Var> PINN path", 1,
       30, &pinn_batched_vs_scalar},
  };
  return oracles;
}

const Oracle* find_oracle(std::string_view name) {
  for (const Oracle& o : all_oracles())
    if (name == o.name) return &o;
  return nullptr;
}

OracleResult run_guarded(const Oracle& oracle, OracleCase c) {
  c.size = std::clamp(c.size, oracle.min_size, oracle.max_size);
  try {
    return oracle.run(c);
  } catch (const std::exception& e) {
    OracleResult r;
    r.ok = false;
    r.error = 1.0;
    r.tolerance = 0.0;
    r.detail = std::string("exception escaped oracle: ") + e.what();
    return r;
  }
}

}  // namespace updec::check
