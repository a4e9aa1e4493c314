#include "control/pinn_laplace.hpp"

#include <cmath>
#include <numbers>

#include "pde/laplace.hpp"
#include "pointcloud/generators.hpp"
#include "util/trace.hpp"

namespace updec::control {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}  // namespace

LaplacePinn::LaplacePinn(const PinnConfig& config)
    : config_(config),
      u_net_(arch(2, config.u_hidden, 1), nn::Activation::kTanh, config.seed),
      c_net_(arch(1, config.c_hidden, 1), nn::Activation::kTanh,
             config.seed + 1),
      rng_(config.seed + 2) {
  validate(config_);
  // Scattered interior collocation points (training happens on a cloud,
  // testing on the regular grid, as in section 3.1).
  interior_points_.reserve(config_.n_interior);
  std::uint64_t index = config_.seed + 17;
  while (interior_points_.size() < config_.n_interior) {
    const pc::Vec2 p = pc::halton2(index++);
    if (p.x < 0.02 || p.x > 0.98 || p.y < 0.02 || p.y > 0.98) continue;
    interior_points_.push_back(p);
  }
  // Boundary collocation sets.
  for (std::size_t i = 0; i < config_.n_boundary; ++i) {
    const double t =
        static_cast<double>(i) / static_cast<double>(config_.n_boundary - 1);
    bottom_x_.push_back(t);
    side_y_.push_back(t);
    top_x_.push_back(t);
  }
  // Cost quadrature: uniform trapezoid along the top wall.
  const std::size_t nq = 64;
  quad_x_.resize(nq);
  quad_w_.assign(nq, 1.0 / static_cast<double>(nq - 1));
  for (std::size_t i = 0; i < nq; ++i)
    quad_x_[i] = static_cast<double>(i) / static_cast<double>(nq - 1);
  quad_w_.front() *= 0.5;
  quad_w_.back() *= 0.5;

  schedule_ = std::make_shared<optim::PaperSchedule>(config_.learning_rate,
                                                     config_.epochs);
  adam_u_ = std::make_unique<optim::Adam>(schedule_);
  adam_c_ = std::make_unique<optim::Adam>(schedule_);
}

void LaplacePinn::reset_solution_network(std::uint64_t seed) {
  u_net_.reinitialize(seed);
  adam_u_->reset();
  adam_c_->reset();
  history_ = PinnHistory{};
}

LaplacePinn::EpochLosses LaplacePinn::epoch_step(std::size_t epoch) {
  UPDEC_TRACE_SCOPE("control/pinn_epoch");
  using ad::Var;
  using nn::Channel;
  ad::Tape& tape = tape_;
  tape.clear();
  const ad::VarVec theta_u =
      ad::make_variables(tape, la::Vector(u_net_.parameters()));
  const ad::VarVec theta_c =
      ad::make_variables(tape, la::Vector(c_net_.parameters()));
  const std::span<const Var> tu(theta_u);
  const std::span<const Var> tc(theta_c);

  // ---- PDE residual on an interior mini-batch ----
  const auto batch = rng_.sample_without_replacement(
      interior_points_.size(),
      std::min(config_.batch_interior, interior_points_.size()));
  std::vector<double> interior;
  for (const std::size_t k : batch)
    interior.insert(interior.end(),
                    {interior_points_[k].x, interior_points_[k].y});
  const nn::JetVars u =
      nn::jet(u_net_, tu, interior, {Channel::kDxx, Channel::kDyy});
  Var pde_loss = tape.constant(0.0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Var r = u(Channel::kDxx, i) + u(Channel::kDyy, i);
    pde_loss = pde_loss + r * r;
  }
  pde_loss = pde_loss * (1.0 / static_cast<double>(batch.size()));

  // ---- boundary penalties ----
  const std::size_t nb = std::min(config_.batch_boundary, bottom_x_.size());
  const auto bidx = rng_.sample_without_replacement(bottom_x_.size(), nb);
  // Per sampled k: a bottom and a top wall point (values), a left and a
  // right side point (values and x-derivatives), a top point for c_theta.
  std::vector<double> walls, sides, top;
  for (const std::size_t k : bidx) {
    walls.insert(walls.end(), {bottom_x_[k], 0.0, top_x_[k], 1.0});
    sides.insert(sides.end(), {0.0, side_y_[k], 1.0, side_y_[k]});
    top.push_back(top_x_[k]);
  }
  const nn::JetVars uw = nn::jet(u_net_, tu, walls, {Channel::kValue});
  const nn::JetVars us = nn::jet(u_net_, tu, sides, {Channel::kDx});
  const nn::JetVars ct = nn::jet(c_net_, tc, top, {Channel::kValue});
  Var bc_loss = tape.constant(0.0);
  for (std::size_t i = 0; i < nb; ++i) {
    // Bottom Dirichlet: u(x, 0) = sin(2 pi x).
    const Var db =
        uw(Channel::kValue, 2 * i) - std::sin(kTwoPi * bottom_x_[bidx[i]]);
    bc_loss = bc_loss + db * db;
    // Top coupling: u(x, 1) = c_theta(x).
    const Var dt = uw(Channel::kValue, 2 * i + 1) - ct(Channel::kValue, i);
    bc_loss = bc_loss + dt * dt;
    // Periodic matching of values and x-derivatives on the sides.
    const Var dv = us(Channel::kValue, 2 * i) - us(Channel::kValue, 2 * i + 1);
    const Var dg = us(Channel::kDx, 2 * i) - us(Channel::kDx, 2 * i + 1);
    bc_loss = bc_loss + dv * dv + dg * dg;
  }
  bc_loss = bc_loss * (1.0 / static_cast<double>(nb));

  // ---- cost objective J(c_theta) via the network flux ----
  std::vector<double> flux;
  for (const double x : quad_x_) flux.insert(flux.end(), {x, 1.0});
  const nn::JetVars uf = nn::jet(u_net_, tu, flux, {Channel::kDy});
  Var cost = tape.constant(0.0);
  for (std::size_t i = 0; i < quad_x_.size(); ++i) {
    const Var d =
        uf(Channel::kDy, i) - pde::LaplaceSolver::target_flux(quad_x_[i]);
    cost = cost + quad_w_[i] * (d * d);
  }

  Var total = pde_loss + bc_loss + config_.omega * cost;
  tape.backward(total);

  la::Vector grad_u = ad::adjoints(theta_u);
  la::Vector grad_c = ad::adjoints(theta_c);

  // Alternating updates (section 2.3): even epochs move u_theta, odd move
  // c_theta; joint updates if disabled. Step 2 freezes the control.
  la::Vector params_u(u_net_.parameters());
  const bool update_u = !config_.alternating || epoch % 2 == 0 ||
                        !config_.train_control;
  const bool update_c = config_.train_control &&
                        (!config_.alternating || epoch % 2 == 1);
  if (update_u) {
    adam_u_->step(params_u, grad_u, epoch);
    u_net_.set_parameters(params_u.std());
  }
  if (update_c) {
    la::Vector params_c(c_net_.parameters());
    adam_c_->step(params_c, grad_c, epoch);
    c_net_.set_parameters(params_c.std());
  }
  return {total.value(), pde_loss.value(), bc_loss.value(), cost.value()};
}

void LaplacePinn::train() {
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const EpochLosses losses = epoch_step(epoch);
    history_.total_loss.push_back(losses.total);
    history_.pde_loss.push_back(losses.pde);
    history_.boundary_loss.push_back(losses.boundary);
    history_.cost_term.push_back(losses.cost);
  }
}

la::Vector LaplacePinn::control_at(const std::vector<double>& xs) const {
  la::Vector c(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    c[i] = c_net_.forward(std::vector<double>{xs[i]})[0];
  return c;
}

double LaplacePinn::network_cost() const {
  // Flux of the network along the top wall via first-order duals (double).
  double j = 0.0;
  for (std::size_t i = 0; i < quad_x_.size(); ++i) {
    const std::vector<ad::Dual<double>> in = {
        ad::dual_constant(quad_x_[i]), ad::dual_input(1.0)};
    const auto out = u_net_.forward<ad::Dual<double>, double>(
        std::span<const double>(u_net_.parameters()),
        std::span<const ad::Dual<double>>(in),
        [](double w) { return ad::dual_constant(w); });
    const double d = out[0].d - pde::LaplaceSolver::target_flux(quad_x_[i]);
    j += quad_w_[i] * d * d;
  }
  return j;
}

double LaplacePinn::pde_residual() const {
  double total = 0.0;
  std::size_t count = 0;
  for (double x = 0.1; x < 0.95; x += 0.2) {
    for (double y = 0.1; y < 0.95; y += 0.2) {
      std::vector<ad::Dual2<double>> in = {ad::dual2_x(x), ad::dual2_y(y)};
      const auto out = u_net_.forward<ad::Dual2<double>, double>(
          std::span<const double>(u_net_.parameters()),
          std::span<const ad::Dual2<double>>(in),
          [](double w) { return ad::dual2_constant(w); });
      const double r = out[0].hxx + out[0].hyy;
      total += r * r;
      ++count;
    }
  }
  return total / static_cast<double>(count);
}

}  // namespace updec::control
