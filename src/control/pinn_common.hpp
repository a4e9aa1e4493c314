#pragma once
/// \file pinn_common.hpp
/// Shared machinery of the PINN strategy (section 2.3): configuration, its
/// validation, and training records. Training evaluates the networks with
/// nn::jet (nn/jet.hpp): one batched Taylor-mode tape op per point set,
/// which gives exact input derivatives and d loss / d theta in one sweep.

#include <vector>

#include "autodiff/dual.hpp"
#include "autodiff/dual2.hpp"
#include "autodiff/ops.hpp"
#include "nn/jet.hpp"
#include "nn/mlp.hpp"
#include "util/error.hpp"

namespace updec::control {

/// Hyper-parameters of one PINN training run (Tables 1 and 2 rows).
struct PinnConfig {
  std::vector<std::size_t> u_hidden = {30, 30, 30};  ///< paper Laplace: 3x30
  std::vector<std::size_t> c_hidden = {20};
  std::size_t epochs = 1000;
  std::size_t n_interior = 800;    ///< collocation points in Omega
  std::size_t n_boundary = 48;     ///< points per boundary segment
  std::size_t batch_interior = 64;
  std::size_t batch_boundary = 32;
  double learning_rate = 1e-3;     ///< paper: 1e-3 for both problems
  double omega = 0.1;              ///< cost weight (paper Laplace: 1e-1)
  std::uint64_t seed = 0;
  bool alternating = true;         ///< alternate u/c updates (section 2.3)
  bool train_control = true;       ///< false freezes c (line-search step 2)
};

/// Per-epoch training record.
struct PinnHistory {
  std::vector<double> total_loss;
  std::vector<double> pde_loss;
  std::vector<double> boundary_loss;
  std::vector<double> cost_term;  ///< J as seen by the network
};

/// Reject configurations that cannot train: fewer than two boundary points
/// per segment (their coordinates t = i / (n - 1) would be 0/0), no interior
/// points, or empty mini-batches (the batch means would divide by zero).
/// Throws updec::Error.
inline void validate(const PinnConfig& config) {
  UPDEC_REQUIRE(config.n_boundary >= 2,
                "PinnConfig.n_boundary must be at least 2");
  UPDEC_REQUIRE(config.n_interior > 0, "PinnConfig.n_interior must be > 0");
  UPDEC_REQUIRE(config.batch_interior > 0,
                "PinnConfig.batch_interior must be > 0");
  UPDEC_REQUIRE(config.batch_boundary > 0,
                "PinnConfig.batch_boundary must be > 0");
}

/// Layer sizes of a network with `in` inputs, the given hidden widths and
/// `out` outputs.
inline std::vector<std::size_t> arch(std::size_t in,
                                     const std::vector<std::size_t>& hidden,
                                     std::size_t out) {
  std::vector<std::size_t> layers;
  layers.push_back(in);
  layers.insert(layers.end(), hidden.begin(), hidden.end());
  layers.push_back(out);
  return layers;
}

}  // namespace updec::control
