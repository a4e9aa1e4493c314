// Tests for RBF kernels, the dual-derived kernel adapter, differential
// operators and the monomial basis.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>

#include "testing_common.hpp"
#include "rbf/kernels.hpp"
#include "rbf/operators.hpp"
#include "util/rng.hpp"

namespace updec::rbf {

// Print kernel parameters by name so the parameterised test names (and the
// ctest names derived from them) are the same in every build, instead of
// carrying the shared_ptr's address.
void PrintTo(const std::shared_ptr<Kernel>& kernel, std::ostream* os) {
  *os << kernel->name();
}

}  // namespace updec::rbf

namespace {

using updec::pc::Vec2;
using updec::rbf::DualDerivedKernel;
using updec::rbf::GaussianKernel;
using updec::rbf::InverseMultiquadricKernel;
using updec::rbf::Kernel;
using updec::rbf::LinearOp;
using updec::rbf::MonomialBasis;
using updec::rbf::MultiquadricKernel;
using updec::rbf::PolyharmonicSpline;
using updec::rbf::ThinPlateSpline;

TEST(Kernels, Phs3Values) {
  const PolyharmonicSpline phs(3);
  EXPECT_DOUBLE_EQ(phs.phi(2.0), 8.0);
  EXPECT_DOUBLE_EQ(phs.dphi(2.0), 12.0);
  EXPECT_DOUBLE_EQ(phs.d2phi(2.0), 12.0);
  // 2-D Laplacian of r^3 is 9r.
  EXPECT_DOUBLE_EQ(phs.laplacian(2.0), 18.0);
  EXPECT_DOUBLE_EQ(phs.laplacian(0.0), 0.0);
  EXPECT_EQ(phs.name(), "phs3");
}

TEST(Kernels, RejectsEvenPhsExponent) {
  EXPECT_THROW(PolyharmonicSpline(2), updec::Error);
  EXPECT_THROW(GaussianKernel(0.0), updec::Error);
}

TEST(Kernels, GaussianLaplacianAtZeroIsSmoothLimit) {
  const GaussianKernel g(2.0);
  // phi'' (0) = -2 eps^2; 2-D Laplacian limit = 2 phi''(0) = -4 eps^2.
  EXPECT_NEAR(g.laplacian(0.0), -16.0, 1e-12);
  // Consistency with r > 0 values approaching 0.
  EXPECT_NEAR(g.laplacian(1e-7), g.laplacian(0.0), 1e-5);
}

TEST(Kernels, ThinPlateSplineGuardsOrigin) {
  const ThinPlateSpline tps;
  EXPECT_DOUBLE_EQ(tps.phi(0.0), 0.0);
  EXPECT_DOUBLE_EQ(tps.dphi(0.0), 0.0);
  EXPECT_THROW(tps.laplacian(0.0), updec::Error);
  EXPECT_NEAR(tps.laplacian(1.0), 4.0, 1e-14);
}

/// Cross-validation of hand-derived kernel derivatives against forward-mode
/// AD -- the paper's "define phi, differentiate by grad" workflow.
void check_against_dual(const Kernel& analytic, const Kernel& dual,
                        std::initializer_list<double> radii,
                        double tol = 1e-9) {
  for (const double r : radii) {
    EXPECT_NEAR(analytic.phi(r), dual.phi(r), tol) << "phi @ " << r;
    EXPECT_NEAR(analytic.dphi(r), dual.dphi(r), tol) << "dphi @ " << r;
    EXPECT_NEAR(analytic.d2phi(r), dual.d2phi(r), tol) << "d2phi @ " << r;
  }
}

TEST(Kernels, Phs3MatchesDualDerived) {
  const PolyharmonicSpline analytic(3);
  const DualDerivedKernel dual("phs3-ad", [](auto r) { return r * r * r; });
  check_against_dual(analytic, dual, {0.1, 0.5, 1.0, 3.0});
}

TEST(Kernels, GaussianMatchesDualDerived) {
  const double eps = 1.7;
  const GaussianKernel analytic(eps);
  const DualDerivedKernel dual("gauss-ad", [eps](auto r) {
    using std::exp;
    return exp(-1.0 * (eps * r) * (eps * r));
  });
  check_against_dual(analytic, dual, {0.0, 0.2, 0.9, 2.0});
}

TEST(Kernels, MultiquadricMatchesDualDerived) {
  const double eps = 0.8;
  const MultiquadricKernel analytic(eps);
  const DualDerivedKernel dual("mq-ad", [eps](auto r) {
    using std::sqrt;
    return sqrt(1.0 + (eps * r) * (eps * r));
  });
  check_against_dual(analytic, dual, {0.0, 0.3, 1.1, 4.0});
}

TEST(Kernels, InverseMultiquadricMatchesDualDerived) {
  const double eps = 1.2;
  const InverseMultiquadricKernel analytic(eps);
  const DualDerivedKernel dual("imq-ad", [eps](auto r) {
    using std::sqrt;
    return 1.0 / sqrt(1.0 + (eps * r) * (eps * r));
  });
  check_against_dual(analytic, dual, {0.0, 0.4, 1.5, 3.0});
}

TEST(Kernels, DefaultKernelIsPaperChoice) {
  const auto kernel = updec::rbf::make_default_kernel();
  EXPECT_EQ(kernel->name(), "phs3");
}

TEST(Operators, ApplyKernelGradientMatchesFiniteDifferences) {
  const PolyharmonicSpline phs(3);
  const Vec2 c{0.3, 0.7};
  const Vec2 x{0.9, 0.2};
  const double h = 1e-6;
  const auto phi_at = [&](double px, double py) {
    const double dx = px - c.x, dy = py - c.y;
    return std::pow(std::sqrt(dx * dx + dy * dy), 3);
  };
  const double gx = updec::rbf::apply_kernel(phs, LinearOp::d_dx(), x, c);
  const double gy = updec::rbf::apply_kernel(phs, LinearOp::d_dy(), x, c);
  EXPECT_NEAR(gx, (phi_at(x.x + h, x.y) - phi_at(x.x - h, x.y)) / (2 * h), 1e-6);
  EXPECT_NEAR(gy, (phi_at(x.x, x.y + h) - phi_at(x.x, x.y - h)) / (2 * h), 1e-6);
}

TEST(Operators, ApplyKernelLaplacianMatchesFiniteDifferences) {
  const GaussianKernel g(1.3);
  const Vec2 c{0.0, 0.0};
  const Vec2 x{0.4, -0.3};
  const double h = 1e-4;
  const auto phi_at = [&](double px, double py) {
    const double r = std::sqrt(px * px + py * py);
    return g.phi(r);
  };
  const double lap = updec::rbf::apply_kernel(g, LinearOp::laplacian(), x, c);
  const double lap_fd =
      (phi_at(x.x + h, x.y) + phi_at(x.x - h, x.y) + phi_at(x.x, x.y + h) +
       phi_at(x.x, x.y - h) - 4 * phi_at(x.x, x.y)) /
      (h * h);
  EXPECT_NEAR(lap, lap_fd, 1e-5);
}

TEST(Operators, NormalDerivativeAndRobin) {
  const PolyharmonicSpline phs(3);
  const Vec2 c{0.0, 0.0};
  const Vec2 x{1.0, 0.0};
  const Vec2 n{1.0, 0.0};
  const double dn =
      updec::rbf::apply_kernel(phs, LinearOp::normal_derivative(n), x, c);
  EXPECT_NEAR(dn, 3.0, 1e-14);  // d/dr r^3 at r=1 along the radial direction
  const double robin =
      updec::rbf::apply_kernel(phs, LinearOp::robin(n, 2.0), x, c);
  EXPECT_NEAR(robin, 3.0 + 2.0 * 1.0, 1e-14);  // + beta * phi(1)
}

TEST(Monomials, SizeMatchesPaperFormula) {
  // M = C(n+d, n) with d = 2: n=1 -> 3 (paper footnote 7), n=2 -> 6.
  EXPECT_EQ(MonomialBasis(0).size(), 1u);
  EXPECT_EQ(MonomialBasis(1).size(), 3u);
  EXPECT_EQ(MonomialBasis(2).size(), 6u);
  EXPECT_EQ(MonomialBasis(3).size(), 10u);
}

TEST(Monomials, EvaluationAndDerivatives) {
  const MonomialBasis basis(2);
  const Vec2 x{2.0, 3.0};
  // Order: 1; x, y; x^2, xy, y^2.
  EXPECT_DOUBLE_EQ(basis.evaluate(0, x), 1.0);
  EXPECT_DOUBLE_EQ(basis.evaluate(1, x), 2.0);
  EXPECT_DOUBLE_EQ(basis.evaluate(2, x), 3.0);
  EXPECT_DOUBLE_EQ(basis.evaluate(3, x), 4.0);
  EXPECT_DOUBLE_EQ(basis.evaluate(4, x), 6.0);
  EXPECT_DOUBLE_EQ(basis.evaluate(5, x), 9.0);
  // d/dx of xy = y; Laplacian of x^2 = 2; d/dy of 1 = 0.
  EXPECT_DOUBLE_EQ(basis.apply(4, LinearOp::d_dx(), x), 3.0);
  EXPECT_DOUBLE_EQ(basis.apply(3, LinearOp::laplacian(), x), 2.0);
  EXPECT_DOUBLE_EQ(basis.apply(0, LinearOp::d_dy(), x), 0.0);
  // Combined operator on y^2: (I + lap) y^2 = 9 + 2.
  EXPECT_DOUBLE_EQ(basis.apply(5, LinearOp{1.0, 0.0, 0.0, 1.0}, x), 11.0);
}

// Property sweep: every kernel's laplacian() is consistent with its radial
// derivatives at random radii.
class KernelLaplacianConsistency
    : public ::testing::TestWithParam<std::shared_ptr<Kernel>> {};

TEST_P(KernelLaplacianConsistency, MatchesRadialFormula) {
  updec::Rng rng = updec::testing_support::test_rng(5);
  const auto& kernel = *GetParam();
  for (int i = 0; i < 50; ++i) {
    const double r = rng.uniform(0.05, 3.0);
    EXPECT_NEAR(kernel.laplacian(r), kernel.d2phi(r) + kernel.dphi(r) / r,
                1e-12 * (1.0 + std::abs(kernel.laplacian(r))));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelLaplacianConsistency,
    ::testing::Values(std::make_shared<PolyharmonicSpline>(3),
                      std::make_shared<PolyharmonicSpline>(5),
                      std::make_shared<PolyharmonicSpline>(7),
                      std::make_shared<GaussianKernel>(1.5),
                      std::make_shared<MultiquadricKernel>(0.9),
                      std::make_shared<InverseMultiquadricKernel>(1.1)));

}  // namespace
