#pragma once
/// \file pinn_laplace.hpp
/// PINN solver for the Laplace control problem (sections 2.3 and 3.1):
/// a solution network u_theta(x, y) and a control network c_theta(x) are
/// trained jointly (alternating updates) on the multi-objective loss
///   L = L_PDE + L_BC + omega * J(c_theta, u_theta),
/// with the PDE enforced as soft residuals at scattered collocation points
/// (mesh-free, like the RBF methods it is compared against).

#include <memory>

#include "control/pinn_common.hpp"
#include "optim/optimizer.hpp"
#include "pointcloud/cloud.hpp"
#include "util/rng.hpp"

namespace updec::control {

/// One PINN training instance for the Laplace problem.
class LaplacePinn {
 public:
  explicit LaplacePinn(const PinnConfig& config);

  /// Train for config.epochs (step 1 of the line search when
  /// config.train_control is true, step 2 style when false).
  void train();

  /// Training record (Fig. 3c-e data).
  [[nodiscard]] const PinnHistory& history() const { return history_; }

  /// Control network sampled at given x locations.
  [[nodiscard]] la::Vector control_at(const std::vector<double>& xs) const;

  /// Network-side cost: J evaluated from u_theta's flux on a uniform
  /// quadrature grid along the top wall.
  [[nodiscard]] double network_cost() const;

  /// Mean squared PDE residual of u_theta on a fixed test grid.
  [[nodiscard]] double pde_residual() const;

  /// Replace the solution network with a fresh initialisation (line-search
  /// step 2 retrains u from scratch under a frozen control).
  void reset_solution_network(std::uint64_t seed);

  /// Import a control network (from a step-1 run).
  void set_control_network(const nn::Mlp& c_net) { c_net_ = c_net; }

  [[nodiscard]] const nn::Mlp& u_net() const { return u_net_; }
  [[nodiscard]] const nn::Mlp& c_net() const { return c_net_; }
  [[nodiscard]] const PinnConfig& config() const { return config_; }

  /// Training-tape footprint of the last epoch (Table 3 memory column).
  [[nodiscard]] std::size_t scratch_bytes() const {
    return tape_.memory_bytes();
  }

  /// Loss components of one epoch.
  struct EpochLosses {
    double total, pde, boundary, cost;
  };
  /// One optimisation step (train() runs config.epochs of them, without
  /// recording history here); returns the loss components.
  EpochLosses epoch_step(std::size_t epoch);

 private:
  PinnConfig config_;
  nn::Mlp u_net_;
  nn::Mlp c_net_;
  Rng rng_;

  // Fixed collocation sets (mini-batches are sampled from these).
  std::vector<pc::Vec2> interior_points_;
  std::vector<double> bottom_x_, side_y_, top_x_;
  // Uniform quadrature grid on the top wall for the cost term.
  std::vector<double> quad_x_;
  std::vector<double> quad_w_;

  std::unique_ptr<optim::Adam> adam_u_, adam_c_;
  std::shared_ptr<optim::LrSchedule> schedule_;
  PinnHistory history_;
  ad::Tape tape_;  // reused across epochs (clear() keeps capacity)
};

}  // namespace updec::control
