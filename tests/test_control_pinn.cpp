// Tests for the PINN strategy: training reduces the multi-objective loss,
// derivatives and costs are consistent, and the two-step omega line search
// of section 2.3 runs end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "control/omega_search.hpp"
#include "control/laplace_problem.hpp"
#include "util/error.hpp"

namespace {

using updec::control::ChannelPinn;
using updec::control::LaplacePinn;
using updec::control::PinnConfig;
using updec::la::Vector;

PinnConfig tiny_laplace_config() {
  PinnConfig config;
  config.u_hidden = {16, 16};
  config.c_hidden = {8};
  config.epochs = 220;
  config.n_interior = 220;
  config.n_boundary = 24;
  config.batch_interior = 48;
  config.batch_boundary = 16;
  config.learning_rate = 2e-3;
  config.omega = 0.1;
  config.seed = 5;
  return config;
}

double mean_of(const std::vector<double>& v, std::size_t from,
               std::size_t to) {
  return std::accumulate(v.begin() + static_cast<std::ptrdiff_t>(from),
                         v.begin() + static_cast<std::ptrdiff_t>(to), 0.0) /
         static_cast<double>(to - from);
}

TEST(LaplacePinnTest, TrainingReducesTotalLoss) {
  LaplacePinn pinn(tiny_laplace_config());
  pinn.train();
  const auto& hist = pinn.history().total_loss;
  ASSERT_EQ(hist.size(), 220u);
  const double early = mean_of(hist, 0, 30);
  const double late = mean_of(hist, hist.size() - 30, hist.size());
  EXPECT_LT(late, 0.8 * early);
  for (const double v : hist) EXPECT_TRUE(std::isfinite(v));
}

TEST(LaplacePinnTest, TrainingReducesPdeResidual) {
  LaplacePinn pinn(tiny_laplace_config());
  const double residual_before = pinn.pde_residual();
  pinn.train();
  EXPECT_LT(pinn.pde_residual(), residual_before);
}

TEST(LaplacePinnTest, ControlSamplingAndCostAreFinite) {
  LaplacePinn pinn(tiny_laplace_config());
  pinn.train();
  const Vector c = pinn.control_at({0.0, 0.25, 0.5, 0.75, 1.0});
  ASSERT_EQ(c.size(), 5u);
  for (const double v : c.std()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::abs(v), 5.0);
  }
  EXPECT_TRUE(std::isfinite(pinn.network_cost()));
}

TEST(LaplacePinnTest, FrozenControlDoesNotMove) {
  PinnConfig config = tiny_laplace_config();
  config.train_control = false;
  config.alternating = false;
  config.epochs = 40;
  LaplacePinn pinn(config);
  const auto before = pinn.c_net().parameters();
  pinn.train();
  EXPECT_EQ(pinn.c_net().parameters(), before);
  // Meanwhile the solution network did move.
  LaplacePinn fresh(config);
  EXPECT_NE(pinn.u_net().parameters(), fresh.u_net().parameters());
}

TEST(LaplacePinnTest, ResetSolutionNetworkReinitialises) {
  LaplacePinn pinn(tiny_laplace_config());
  const auto params0 = pinn.u_net().parameters();
  pinn.train();
  EXPECT_NE(pinn.u_net().parameters(), params0);
  pinn.reset_solution_network(99);
  EXPECT_NE(pinn.u_net().parameters(), params0);  // new seed, new weights
  EXPECT_TRUE(pinn.history().total_loss.empty());
}

TEST(OmegaSearch, TwoStepSearchPicksAnOmega) {
  PinnConfig base = tiny_laplace_config();
  base.epochs = 120;
  const updec::rbf::PolyharmonicSpline kernel(3);
  auto problem =
      std::make_shared<updec::control::LaplaceControlProblem>(12, kernel);
  const std::vector<double> xs = problem->solver().control_x();
  const auto result = updec::control::laplace_omega_search(
      base, {1e-2, 1e-1, 1.0}, xs,
      [&](const Vector& c) { return problem->cost(c); });
  ASSERT_EQ(result.entries.size(), 3u);
  EXPECT_LT(result.best_index, 3u);
  EXPECT_DOUBLE_EQ(result.entries[result.best_index].omega,
                   result.best_omega);
  EXPECT_EQ(result.best_control.size(), xs.size());
  EXPECT_TRUE(result.best_control_net.has_value());
  for (const auto& entry : result.entries) {
    EXPECT_TRUE(std::isfinite(entry.step1_network_cost));
    EXPECT_TRUE(std::isfinite(entry.step2_network_cost));
    EXPECT_TRUE(std::isfinite(entry.reference_cost));
    EXPECT_GE(entry.step2_pde_residual, 0.0);
  }
  // The winner has the smallest step-2 cost by construction.
  for (const auto& entry : result.entries)
    EXPECT_LE(result.entries[result.best_index].step2_network_cost,
              entry.step2_network_cost);
}

TEST(ChannelPinnTest, TrainingReducesTotalLoss) {
  PinnConfig config;
  config.u_hidden = {20, 20};
  config.c_hidden = {8};
  config.epochs = 120;
  config.n_interior = 200;
  config.n_boundary = 20;
  config.batch_interior = 24;
  config.batch_boundary = 10;
  config.learning_rate = 2e-3;
  config.omega = 1.0;
  config.seed = 8;
  updec::pc::ChannelSpec spec;
  ChannelPinn pinn(config, spec, 20.0, 0.3);
  pinn.train();
  const auto& hist = pinn.history().total_loss;
  ASSERT_EQ(hist.size(), 120u);
  const double early = mean_of(hist, 0, 20);
  const double late = mean_of(hist, hist.size() - 20, hist.size());
  EXPECT_LT(late, early);
  for (const double v : hist) EXPECT_TRUE(std::isfinite(v));
  // Profiles and costs sane.
  const Vector inflow = pinn.control_at({0.25, 0.5, 0.75});
  const Vector outflow = pinn.outflow_at({0.25, 0.5, 0.75});
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(inflow[i]));
    EXPECT_TRUE(std::isfinite(outflow[i]));
  }
  EXPECT_TRUE(std::isfinite(pinn.network_cost()));
  EXPECT_TRUE(std::isfinite(pinn.pde_residual()));
}

// Configurations that cannot train are rejected up front: one boundary
// point per segment gives 0/0 coordinates, and empty sets or batches give
// 0/0 batch means, so training would otherwise run on NaN losses.
TEST(PinnConfigValidation, RejectsSingleBoundaryPoint) {
  PinnConfig config = tiny_laplace_config();
  config.n_boundary = 1;
  EXPECT_THROW(LaplacePinn{config}, updec::Error);
  EXPECT_THROW(ChannelPinn(config, updec::pc::ChannelSpec{}, 20.0, 0.3),
               updec::Error);
}

TEST(PinnConfigValidation, RejectsEmptyInteriorSet) {
  PinnConfig config = tiny_laplace_config();
  config.n_interior = 0;
  EXPECT_THROW(LaplacePinn{config}, updec::Error);
  EXPECT_THROW(ChannelPinn(config, updec::pc::ChannelSpec{}, 20.0, 0.3),
               updec::Error);
}

TEST(PinnConfigValidation, RejectsEmptyInteriorBatch) {
  PinnConfig config = tiny_laplace_config();
  config.batch_interior = 0;
  EXPECT_THROW(LaplacePinn{config}, updec::Error);
  EXPECT_THROW(ChannelPinn(config, updec::pc::ChannelSpec{}, 20.0, 0.3),
               updec::Error);
}

TEST(PinnConfigValidation, RejectsEmptyBoundaryBatch) {
  PinnConfig config = tiny_laplace_config();
  config.batch_boundary = 0;
  EXPECT_THROW(LaplacePinn{config}, updec::Error);
  EXPECT_THROW(ChannelPinn(config, updec::pc::ChannelSpec{}, 20.0, 0.3),
               updec::Error);
}

TEST(PinnConfigValidation, AcceptsTheSmallestTrainableConfig) {
  PinnConfig config = tiny_laplace_config();
  config.n_boundary = 2;
  config.n_interior = 1;
  config.batch_interior = 1;
  config.batch_boundary = 1;
  config.epochs = 2;
  LaplacePinn pinn(config);
  pinn.train();
  for (const double v : pinn.history().total_loss)
    EXPECT_TRUE(std::isfinite(v));
}

// One epoch records a handful of network ops, not one scalar node per
// multiply-add: the tape stays within a few parameter vectors' worth.
TEST(LaplacePinnTest, EpochTapeIsBatched) {
  PinnConfig config;
  config.epochs = 1;
  LaplacePinn pinn(config);
  pinn.train();
  const std::size_t params =
      pinn.u_net().num_parameters() + pinn.c_net().num_parameters();
  // A per-point Dual2<Var> tape of one default epoch holds about 6M nodes
  // (over 1 GiB with adjoints).
  EXPECT_LT(pinn.scratch_bytes(), 8u << 20);
  EXPECT_GT(pinn.scratch_bytes(), params * sizeof(double));
}

}  // namespace
