#pragma once
/// \file jet.hpp
/// Batched Taylor-mode evaluation of an Mlp: every point of a set at once,
/// layer by layer, carrying the value and the input derivatives a PINN
/// residual reads (u, u_x, u_y, u_xx, u_yy) through dense products
///
///   Z = W [H | H_x | H_y | H_xx | H_yy] + [b | 0 | 0 | 0 | 0],
///   A = sigma(Z),  A_x = sigma'(Z) Z_x,
///   A_xx = sigma'(Z) Z_xx + sigma''(Z) Z_x^2   (likewise for y).
///
/// On a tape, one evaluation is ONE custom op (`jet`) with a hand-written
/// vector-Jacobian product that scatters into the parameter leaves -- the
/// pattern ad::spmv / ad::solve use -- instead of one scalar node per
/// multiply-add of a per-point Dual2<Var> forward pass. The VJP of the
/// second-order channels needs sigma'''.
///
/// Forward values repeat the per-point Mlp::forward<Dual2<Var>, Var> and
/// Dual<Var> arithmetic operation for operation (same summation order, same
/// chain-rule expressions), so a loss built from them is bitwise equal to
/// the per-point one; only the gradient's summation order differs.

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "autodiff/tape.hpp"
#include "nn/mlp.hpp"

namespace updec::nn {

/// Taylor channels of a batched evaluation: the value, and first and second
/// derivatives along the network's first two inputs (x, y). The mixed
/// u_xy is not carried: no PINN residual here reads it.
enum class Channel : unsigned { kValue = 0, kDx, kDy, kDxx, kDyy };

/// The channels one evaluation carries: always the value, plus any of the
/// derivative channels. A second-order channel pulls in its first-order
/// one, which its chain rule reads.
class Channels {
 public:
  constexpr Channels(std::initializer_list<Channel> channels) {
    for (const Channel c : channels) {
      bits_ |= bit(c);
      if (c == Channel::kDxx) bits_ |= bit(Channel::kDx);
      if (c == Channel::kDyy) bits_ |= bit(Channel::kDy);
    }
  }
  [[nodiscard]] constexpr bool has(Channel c) const {
    return (bits_ & bit(c)) != 0;
  }
  /// Number of channels carried (1 to 5).
  [[nodiscard]] constexpr std::size_t count() const {
    return static_cast<std::size_t>(std::popcount(bits_));
  }
  /// Position of a carried channel among the carried ones (enum order).
  [[nodiscard]] constexpr std::size_t slot(Channel c) const {
    return static_cast<std::size_t>(std::popcount(bits_ & (bit(c) - 1u)));
  }

 private:
  static constexpr unsigned bit(Channel c) {
    return 1u << static_cast<unsigned>(c);
  }
  unsigned bits_ = 1u;  // the value channel
};

/// Forward jets of a point set through an Mlp, with every hidden layer's
/// jets kept for the vector-Jacobian product. Plain doubles; `jet` below
/// puts one of these on a tape.
class BatchedJet {
 public:
  /// \param params flat parameters (Mlp layout, length num_parameters()).
  /// \param inputs row-major points, num_points x net.num_inputs().
  BatchedJet(const Mlp& net, std::span<const double> params,
             std::span<const double> inputs, Channels channels);

  /// Channel c of network output `out` at point `point`.
  [[nodiscard]] double output(Channel c, std::size_t point,
                              std::size_t out = 0) const {
    return outputs_[index(c, point, out)];
  }
  /// Position of (c, point, out) in outputs(); c must be carried.
  [[nodiscard]] std::size_t index(Channel c, std::size_t point,
                                  std::size_t out) const {
    UPDEC_REQUIRE(channels_.has(c) && point < n_,
                  "jet channel not carried or point out of range");
    const std::size_t k =
        (out * channels_.count() + channels_.slot(c)) * n_ + point;
    UPDEC_REQUIRE(k < outputs_.size(), "jet output out of range");
    return k;
  }
  /// All output jets, laid out [output][channel slot][point].
  [[nodiscard]] const std::vector<double>& outputs() const {
    return outputs_;
  }

  /// theta_bar += (d outputs / d params)^T out_bar, with out_bar laid out
  /// like outputs().
  void vjp(std::span<const double> out_bar, std::span<double> theta_bar) const;

  /// Bytes held for the VJP (the saved layer jets).
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  /// One hidden layer's saved state. Matrices are row-major, one row per
  /// neuron; z and a have count() * n columns (channel blocks of n points),
  /// the activation derivatives f1..f3 have n.
  struct Hidden {
    std::vector<double> z, a, f1, f2, f3;
  };

  std::vector<std::size_t> layers_;
  Activation activation_;
  std::vector<double> params_;
  Channels channels_;
  std::size_t n_;
  std::vector<double> input_jets_;  // num_inputs x count() * n
  std::vector<Hidden> hidden_;
  std::vector<double> outputs_;     // num_outputs x count() * n
};

/// Taped output jets of one `jet` call.
class JetVars {
 public:
  JetVars(ad::Tape& tape, std::int64_t start,
          std::shared_ptr<const BatchedJet> jet)
      : tape_(&tape), start_(start), jet_(std::move(jet)) {}

  /// Channel c of network output `out` at point `point`.
  [[nodiscard]] ad::Var operator()(Channel c, std::size_t point,
                                   std::size_t out = 0) const {
    return {tape_, start_ + static_cast<std::int64_t>(
                                jet_->index(c, point, out))};
  }

 private:
  ad::Tape* tape_;
  std::int64_t start_;
  std::shared_ptr<const BatchedJet> jet_;
};

/// Evaluate `net` at every point of `inputs` (row-major, num_points x
/// num_inputs) with parameters `theta` on a tape, as one custom op. The
/// reverse sweep scatters d loss / d theta into the theta leaves.
JetVars jet(const Mlp& net, std::span<const ad::Var> theta,
            std::span<const double> inputs, Channels channels);

}  // namespace updec::nn
