#include "nn/jet.hpp"

#include <algorithm>
#include <cmath>

#include "la/simd.hpp"
#include "util/trace.hpp"

namespace updec::nn {

namespace {

/// sigma and its first three derivatives at z. f0..f2 use the expressions
/// of the per-point Dual/Dual2 chain rules (tanh: f1 = 1 - t^2,
/// f2 = -2 t f1), so the forward jets match them bit for bit.
struct Derivatives {
  double f0, f1, f2, f3;
};

Derivatives derivatives(Activation activation, double z) {
  switch (activation) {
    case Activation::kTanh: {
      const double t = std::tanh(z);
      const double f1 = 1.0 - t * t;
      const double f2 = -2.0 * (t * f1);
      return {t, f1, f2, -2.0 * (f1 * f1 + t * f2)};
    }
    case Activation::kSin: {
      const double s = std::sin(z);
      const double c = std::cos(z);
      return {s, c, -s, -c};
    }
    case Activation::kRelu:
      // Mlp::relu: the identity where z > 0, z * 0 elsewhere.
      if (z > 0.0) return {z, 1.0, 0.0, 0.0};
      return {z * 0.0, 0.0, 0.0, 0.0};
    case Activation::kIdentity:
      return {z, 1.0, 0.0, 0.0};
  }
  UPDEC_REQUIRE(false, "unreachable activation");
  return {};
}

/// The first-order channels and the second-order channel each one feeds.
constexpr Channel kFirstOrder[] = {Channel::kDx, Channel::kDy};
constexpr Channel kSecondOrder[] = {Channel::kDxx, Channel::kDyy};

/// z = W in + [b | 0]: W is fan_out x fan_in, in and z have `cols` columns,
/// and the bias goes on the first n (value) columns only. Each z entry sums
/// bias first, then inputs in order -- the per-point forward's order.
void affine(const double* UPDEC_RESTRICT w, const double* UPDEC_RESTRICT b,
            const double* UPDEC_RESTRICT in, std::size_t fan_in,
            std::size_t fan_out, std::size_t n, std::size_t cols,
            double* UPDEC_RESTRICT z) {
  for (std::size_t j = 0; j < fan_out; ++j) {
    const double* UPDEC_RESTRICT wj = w + j * fan_in;
    double* UPDEC_RESTRICT zj = z + j * cols;
    // Vectorised across columns; each column's sum stays in a register.
    UPDEC_PRAGMA_SIMD
    for (std::size_t c = 0; c < cols; ++c) {
      double s = c < n ? b[j] : 0.0;
      for (std::size_t i = 0; i < fan_in; ++i) s += wj[i] * in[i * cols + c];
      zj[c] = s;
    }
  }
}

}  // namespace

BatchedJet::BatchedJet(const Mlp& net, std::span<const double> params,
                       std::span<const double> inputs, Channels channels)
    : layers_(net.layer_sizes()),
      activation_(net.activation()),
      params_(params.begin(), params.end()),
      channels_(channels) {
  UPDEC_TRACE_SCOPE("nn/jet_forward");
  UPDEC_REQUIRE(params.size() == net.num_parameters(),
                "parameter vector size mismatch");
  const std::size_t n_in = layers_.front();
  UPDEC_REQUIRE(!inputs.empty() && inputs.size() % n_in == 0,
                "jet inputs must be one or more whole points");
  UPDEC_REQUIRE(!channels_.has(Channel::kDy) || n_in >= 2,
                "y-derivative channels need a second network input");
  n_ = inputs.size() / n_in;
  const std::size_t cols = channels_.count() * n_;

  // Input jets: the point coordinates, unit seeds along x (input 0) and
  // y (input 1), zero second derivatives.
  input_jets_.assign(n_in * cols, 0.0);
  for (std::size_t i = 0; i < n_in; ++i)
    for (std::size_t p = 0; p < n_; ++p)
      input_jets_[i * cols + p] = inputs[p * n_in + i];
  for (std::size_t d = 0; d < 2; ++d)
    if (channels_.has(kFirstOrder[d]))
      std::fill_n(input_jets_.begin() +
                      static_cast<std::ptrdiff_t>(
                          d * cols + channels_.slot(kFirstOrder[d]) * n_),
                  n_, 1.0);

  const std::size_t n_layers = layers_.size() - 1;
  hidden_.resize(n_layers - 1);
  const double* in = input_jets_.data();
  std::size_t offset = 0;
  for (std::size_t l = 0; l < n_layers; ++l) {
    const std::size_t fan_in = layers_[l];
    const std::size_t fan_out = layers_[l + 1];
    const double* w = params_.data() + offset;
    offset += fan_in * fan_out + fan_out;
    if (l + 1 == n_layers) {  // linear output layer
      outputs_.resize(fan_out * cols);
      affine(w, w + fan_in * fan_out, in, fan_in, fan_out, n_, cols,
             outputs_.data());
      break;
    }
    Hidden& h = hidden_[l];
    h.z.resize(fan_out * cols);
    affine(w, w + fan_in * fan_out, in, fan_in, fan_out, n_, cols,
           h.z.data());
    h.a.resize(fan_out * cols);
    h.f1.resize(fan_out * n_);
    h.f2.resize(fan_out * n_);
    h.f3.resize(fan_out * n_);
    for (std::size_t j = 0; j < fan_out; ++j) {
      const double* z = h.z.data() + j * cols;
      double* a = h.a.data() + j * cols;
      double* f1 = h.f1.data() + j * n_;
      double* f2 = h.f2.data() + j * n_;
      for (std::size_t p = 0; p < n_; ++p) {
        const Derivatives d = derivatives(activation_, z[p]);
        a[p] = d.f0;
        f1[p] = d.f1;
        f2[p] = d.f2;
        h.f3[j * n_ + p] = d.f3;
      }
      for (std::size_t d = 0; d < 2; ++d) {
        if (!channels_.has(kFirstOrder[d])) continue;
        const std::size_t sd = channels_.slot(kFirstOrder[d]) * n_;
        for (std::size_t p = 0; p < n_; ++p)
          a[sd + p] = f1[p] * z[sd + p];
        if (!channels_.has(kSecondOrder[d])) continue;
        const std::size_t sdd = channels_.slot(kSecondOrder[d]) * n_;
        for (std::size_t p = 0; p < n_; ++p)
          a[sdd + p] =
              f1[p] * z[sdd + p] + f2[p] * (z[sd + p] * z[sd + p]);
      }
    }
    in = h.a.data();
  }
}

void BatchedJet::vjp(std::span<const double> out_bar,
                     std::span<double> theta_bar) const {
  UPDEC_TRACE_SCOPE("nn/jet_vjp");
  UPDEC_REQUIRE(out_bar.size() == outputs_.size(), "jet adjoint size mismatch");
  UPDEC_REQUIRE(theta_bar.size() == params_.size(),
                "jet parameter adjoint size mismatch");
  const std::size_t cols = channels_.count() * n_;
  const std::size_t n_layers = layers_.size() - 1;
  std::vector<std::size_t> offsets(n_layers, 0);
  for (std::size_t l = 1; l < n_layers; ++l)
    offsets[l] = offsets[l - 1] + layers_[l - 1] * layers_[l] + layers_[l];

  // g: adjoint of the current layer's pre-activation jets Z.
  std::vector<double> g(out_bar.begin(), out_bar.end());
  std::vector<double> a_bar;
  for (std::size_t l = n_layers; l-- > 0;) {
    const std::size_t fan_in = layers_[l];
    const std::size_t fan_out = layers_[l + 1];
    const double* w = params_.data() + offsets[l];
    double* w_bar = theta_bar.data() + offsets[l];
    double* b_bar = w_bar + fan_in * fan_out;
    const double* in = l == 0 ? input_jets_.data() : hidden_[l - 1].a.data();

    // W_bar += G In^T over every channel column; b_bar += G's value block.
    for (std::size_t j = 0; j < fan_out; ++j) {
      const double* UPDEC_RESTRICT gj = g.data() + j * cols;
      for (std::size_t i = 0; i < fan_in; ++i) {
        const double* UPDEC_RESTRICT ai = in + i * cols;
        double s = 0.0;
        UPDEC_PRAGMA_SIMD_REDUCTION(+ : s)
        for (std::size_t c = 0; c < cols; ++c) s += gj[c] * ai[c];
        w_bar[j * fan_in + i] += s;
      }
      double s = 0.0;
      UPDEC_PRAGMA_SIMD_REDUCTION(+ : s)
      for (std::size_t p = 0; p < n_; ++p) s += gj[p];
      b_bar[j] += s;
    }
    if (l == 0) break;  // the input jets are constants

    // A_bar = W^T G.
    a_bar.assign(fan_in * cols, 0.0);
    for (std::size_t j = 0; j < fan_out; ++j) {
      const double* UPDEC_RESTRICT gj = g.data() + j * cols;
      for (std::size_t i = 0; i < fan_in; ++i) {
        const double wji = w[j * fan_in + i];
        double* UPDEC_RESTRICT ai = a_bar.data() + i * cols;
        UPDEC_PRAGMA_SIMD
        for (std::size_t c = 0; c < cols; ++c) ai[c] += wji * gj[c];
      }
    }

    // Back through the activation jets of hidden layer l - 1:
    //   A    = f0(Z)                    -> Z_bar    += f1 A_bar
    //   A_d  = f1(Z) Z_d                -> Z_bar    += f2 Z_d A_d_bar,
    //                                      Z_d_bar  += f1 A_d_bar
    //   A_dd = f1(Z) Z_dd + f2(Z) Z_d^2 -> Z_bar    += (f3 Z_d^2 + f2 Z_dd)
    //                                                  A_dd_bar,
    //                                      Z_d_bar  += 2 f2 Z_d A_dd_bar,
    //                                      Z_dd_bar += f1 A_dd_bar
    const Hidden& h = hidden_[l - 1];
    g.assign(fan_in * cols, 0.0);
    for (std::size_t j = 0; j < fan_in; ++j) {
      const double* z = h.z.data() + j * cols;
      const double* ab = a_bar.data() + j * cols;
      const double* f1 = h.f1.data() + j * n_;
      const double* f2 = h.f2.data() + j * n_;
      const double* f3 = h.f3.data() + j * n_;
      double* gz = g.data() + j * cols;
      for (std::size_t p = 0; p < n_; ++p) gz[p] = f1[p] * ab[p];
      for (std::size_t d = 0; d < 2; ++d) {
        if (!channels_.has(kFirstOrder[d])) continue;
        const std::size_t sd = channels_.slot(kFirstOrder[d]) * n_;
        for (std::size_t p = 0; p < n_; ++p) {
          gz[p] += f2[p] * z[sd + p] * ab[sd + p];
          gz[sd + p] = f1[p] * ab[sd + p];
        }
        if (!channels_.has(kSecondOrder[d])) continue;
        const std::size_t sdd = channels_.slot(kSecondOrder[d]) * n_;
        for (std::size_t p = 0; p < n_; ++p) {
          const double zd = z[sd + p];
          const double abdd = ab[sdd + p];
          gz[p] += (f3[p] * zd * zd + f2[p] * z[sdd + p]) * abdd;
          gz[sd + p] += 2.0 * f2[p] * zd * abdd;
          gz[sdd + p] = f1[p] * abdd;
        }
      }
    }
  }
}

std::size_t BatchedJet::memory_bytes() const {
  std::size_t doubles = params_.size() + input_jets_.size() + outputs_.size();
  for (const Hidden& h : hidden_)
    doubles += h.z.size() + h.a.size() + h.f1.size() + h.f2.size() +
               h.f3.size();
  return doubles * sizeof(double);
}

JetVars jet(const Mlp& net, std::span<const ad::Var> theta,
            std::span<const double> inputs, Channels channels) {
  UPDEC_REQUIRE(!theta.empty() && theta.front().valid(),
                "jet needs taped parameters");
  ad::Tape& tape = *theta.front().tape();
  std::vector<double> params(theta.size());
  std::vector<std::int64_t> leaves(theta.size());
  for (std::size_t k = 0; k < theta.size(); ++k) {
    params[k] = theta[k].value();
    leaves[k] = theta[k].index();
  }
  auto batch =
      std::make_shared<const BatchedJet>(net, params, inputs, channels);
  const std::int64_t start = tape.custom_op(
      batch->outputs(),
      [batch, leaves = std::move(leaves)](ad::Tape& t, std::int64_t out) {
        std::vector<double> out_bar(batch->outputs().size());
        bool any = false;
        for (std::size_t k = 0; k < out_bar.size(); ++k) {
          out_bar[k] = t.adjoint(out + static_cast<std::int64_t>(k));
          any = any || out_bar[k] != 0.0;
        }
        if (!any) return;
        std::vector<double> theta_bar(leaves.size(), 0.0);
        batch->vjp(out_bar, theta_bar);
        for (std::size_t k = 0; k < leaves.size(); ++k)
          t.adjoint_ref(leaves[k]) += theta_bar[k];
      },
      batch->memory_bytes());
  return {tape, start, batch};
}

}  // namespace updec::nn
