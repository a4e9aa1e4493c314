#include "control/pinn_channel.hpp"

#include <cmath>
#include <numbers>

#include "util/trace.hpp"

namespace updec::control {

ChannelPinn::ChannelPinn(const PinnConfig& config, const pc::ChannelSpec& spec,
                         double reynolds, double patch_velocity)
    : config_(config),
      spec_(spec),
      reynolds_(reynolds),
      patch_velocity_(patch_velocity),
      u_net_(arch(2, config.u_hidden, 3), nn::Activation::kTanh, config.seed),
      c_net_(arch(1, config.c_hidden, 1), nn::Activation::kTanh,
             config.seed + 1),
      rng_(config.seed + 2) {
  validate(config_);
  // Scattered interior collocation points.
  interior_points_.reserve(config_.n_interior);
  std::uint64_t index = config_.seed + 31;
  while (interior_points_.size() < config_.n_interior) {
    pc::Vec2 p = pc::halton2(index++);
    p.x *= spec_.lx;
    p.y *= spec_.ly;
    if (p.x < 0.01 || p.x > spec_.lx - 0.01 || p.y < 0.01 ||
        p.y > spec_.ly - 0.01)
      continue;
    interior_points_.push_back(p);
  }
  for (std::size_t i = 0; i < config_.n_boundary; ++i) {
    const double t =
        static_cast<double>(i) / static_cast<double>(config_.n_boundary - 1);
    inlet_y_.push_back(t * spec_.ly);
    wall_x_.push_back(t * spec_.lx);
    outlet_y_.push_back(t * spec_.ly);
  }
  // Outlet quadrature (trapezoid over y).
  const std::size_t nq = 48;
  quad_y_.resize(nq);
  quad_w_.assign(nq, spec_.ly / static_cast<double>(nq - 1));
  for (std::size_t i = 0; i < nq; ++i)
    quad_y_[i] = spec_.ly * static_cast<double>(i) / static_cast<double>(nq - 1);
  quad_w_.front() *= 0.5;
  quad_w_.back() *= 0.5;

  schedule_ = std::make_shared<optim::PaperSchedule>(config_.learning_rate,
                                                     config_.epochs);
  adam_u_ = std::make_unique<optim::Adam>(schedule_);
  adam_c_ = std::make_unique<optim::Adam>(schedule_);
}

double ChannelPinn::target_outflow(double y) const {
  return 4.0 * y * (spec_.ly - y) / (spec_.ly * spec_.ly);
}

double ChannelPinn::patch_v(double x, bool bottom) const {
  const double start = bottom ? spec_.blow_start : spec_.suction_start;
  const double end = bottom ? spec_.blow_end : spec_.suction_end;
  const double t = (x - start) / (end - start);
  if (t <= 0.0 || t >= 1.0) return 0.0;
  const double s = std::sin(std::numbers::pi * t);
  return patch_velocity_ * s * s;
}

void ChannelPinn::reset_solution_network(std::uint64_t seed) {
  u_net_.reinitialize(seed);
  adam_u_->reset();
  adam_c_->reset();
  history_ = PinnHistory{};
}

ChannelPinn::EpochLosses ChannelPinn::epoch_step(std::size_t epoch) {
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
  const double nu = 1.0 / reynolds_;

  // ---- NS residuals on an interior mini-batch ----
  const auto batch = rng_.sample_without_replacement(
      interior_points_.size(),
      std::min(config_.batch_interior, interior_points_.size()));
  std::vector<double> interior;
  for (const std::size_t k : batch)
    interior.insert(interior.end(),
                    {interior_points_[k].x, interior_points_[k].y});
  const nn::JetVars out = nn::jet(
      u_net_, tu, interior,
      {Channel::kDx, Channel::kDy, Channel::kDxx, Channel::kDyy});
  Var pde_loss = tape.constant(0.0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Outputs 0, 1, 2 are u, v, p.
    const auto f = [&](Channel c, std::size_t o) { return out(c, i, o); };
    const Var rx = f(Channel::kValue, 0) * f(Channel::kDx, 0) +
                   f(Channel::kValue, 1) * f(Channel::kDy, 0) +
                   f(Channel::kDx, 2) -
                   nu * (f(Channel::kDxx, 0) + f(Channel::kDyy, 0));
    const Var ry = f(Channel::kValue, 0) * f(Channel::kDx, 1) +
                   f(Channel::kValue, 1) * f(Channel::kDy, 1) +
                   f(Channel::kDy, 2) -
                   nu * (f(Channel::kDxx, 1) + f(Channel::kDyy, 1));
    const Var rc = f(Channel::kDx, 0) + f(Channel::kDy, 1);
    pde_loss = pde_loss + rx * rx + ry * ry + rc * rc;
  }
  pde_loss = pde_loss * (1.0 / static_cast<double>(batch.size()));

  // ---- boundary penalties ----
  const std::size_t nb = std::min(config_.batch_boundary, wall_x_.size());
  const auto bidx = rng_.sample_without_replacement(wall_x_.size(), nb);
  // Value points: per sampled k an inlet, a bottom-wall and a top-wall
  // point, then the outlet quadrature of the cost term. The outlet Neumann
  // points carry x-derivatives.
  std::vector<double> values, inlet, outlet;
  for (const std::size_t k : bidx) {
    values.insert(values.end(), {0.0, inlet_y_[k], wall_x_[k], 0.0,
                                 wall_x_[k], spec_.ly});
    inlet.push_back(inlet_y_[k]);
    outlet.insert(outlet.end(), {spec_.lx, outlet_y_[k]});
  }
  for (const double y : quad_y_) values.insert(values.end(), {spec_.lx, y});
  const nn::JetVars uv = nn::jet(u_net_, tu, values, {Channel::kValue});
  const nn::JetVars cv = nn::jet(c_net_, tc, inlet, {Channel::kValue});
  const nn::JetVars ox = nn::jet(u_net_, tu, outlet, {Channel::kDx});
  const auto value = [&](std::size_t point, std::size_t o) {
    return uv(Channel::kValue, point, o);
  };
  Var bc_loss = tape.constant(0.0);
  for (std::size_t i = 0; i < nb; ++i) {
    // Inlet: u = c_theta(y), v = 0.
    const Var diu = value(3 * i, 0) - cv(Channel::kValue, i);
    bc_loss = bc_loss + diu * diu + value(3 * i, 1) * value(3 * i, 1);
    // Walls: no-slip u, prescribed v (patch bumps).
    const double xw = wall_x_[bidx[i]];
    const Var bot_u = value(3 * i + 1, 0);
    const Var top_u = value(3 * i + 2, 0);
    const Var dbv = value(3 * i + 1, 1) - patch_v(xw, true);
    const Var dtv = value(3 * i + 2, 1) - patch_v(xw, false);
    bc_loss = bc_loss + bot_u * bot_u + dbv * dbv + top_u * top_u +
              dtv * dtv;
    // Outlet: p = 0 (Dirichlet) and homogeneous Neumann du/dx = dv/dx = 0.
    const Var p = ox(Channel::kValue, i, 2);
    const Var ux = ox(Channel::kDx, i, 0);
    const Var vx = ox(Channel::kDx, i, 1);
    bc_loss = bc_loss + p * p + ux * ux + vx * vx;
  }
  bc_loss = bc_loss * (1.0 / static_cast<double>(nb));

  // ---- cost objective J on the outlet quadrature ----
  Var cost = tape.constant(0.0);
  for (std::size_t i = 0; i < quad_y_.size(); ++i) {
    const Var du = value(3 * nb + i, 0) - target_outflow(quad_y_[i]);
    const Var dv = value(3 * nb + i, 1);
    cost = cost + 0.5 * quad_w_[i] * (du * du + dv * dv);
  }

  Var total = pde_loss + bc_loss + config_.omega * cost;
  tape.backward(total);

  la::Vector grad_u = ad::adjoints(theta_u);
  la::Vector grad_c = ad::adjoints(theta_c);
  const bool update_u = !config_.alternating || epoch % 2 == 0 ||
                        !config_.train_control;
  const bool update_c = config_.train_control &&
                        (!config_.alternating || epoch % 2 == 1);
  if (update_u) {
    la::Vector params_u(u_net_.parameters());
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

void ChannelPinn::train() {
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    const EpochLosses losses = epoch_step(epoch);
    history_.total_loss.push_back(losses.total);
    history_.pde_loss.push_back(losses.pde);
    history_.boundary_loss.push_back(losses.boundary);
    history_.cost_term.push_back(losses.cost);
  }
}

la::Vector ChannelPinn::control_at(const std::vector<double>& ys) const {
  la::Vector c(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i)
    c[i] = c_net_.forward(std::vector<double>{ys[i]})[0];
  return c;
}

la::Vector ChannelPinn::outflow_at(const std::vector<double>& ys) const {
  la::Vector u(ys.size());
  for (std::size_t i = 0; i < ys.size(); ++i)
    u[i] = u_net_.forward(std::vector<double>{spec_.lx, ys[i]})[0];
  return u;
}

double ChannelPinn::network_cost() const {
  double j = 0.0;
  for (std::size_t i = 0; i < quad_y_.size(); ++i) {
    const auto out =
        u_net_.forward(std::vector<double>{spec_.lx, quad_y_[i]});
    const double du = out[0] - target_outflow(quad_y_[i]);
    j += 0.5 * quad_w_[i] * (du * du + out[1] * out[1]);
  }
  return j;
}

double ChannelPinn::pde_residual() const {
  const double nu = 1.0 / reynolds_;
  double total = 0.0;
  std::size_t count = 0;
  for (double x = 0.1; x < spec_.lx - 0.05; x += 0.25) {
    for (double y = 0.1; y < spec_.ly - 0.05; y += 0.2) {
      std::vector<ad::Dual2<double>> in = {ad::dual2_x(x), ad::dual2_y(y)};
      const auto out = u_net_.forward<ad::Dual2<double>, double>(
          std::span<const double>(u_net_.parameters()),
          std::span<const ad::Dual2<double>>(in),
          [](double w) { return ad::dual2_constant(w); });
      const auto& u = out[0];
      const auto& v = out[1];
      const auto& p = out[2];
      const double rx =
          u.v * u.gx + v.v * u.gy + p.gx - nu * (u.hxx + u.hyy);
      const double ry =
          u.v * v.gx + v.v * v.gy + p.gy - nu * (v.hxx + v.hyy);
      const double rc = u.gx + v.gy;
      total += rx * rx + ry * ry + rc * rc;
      ++count;
    }
  }
  return total / static_cast<double>(count);
}

}  // namespace updec::control
