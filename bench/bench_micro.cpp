// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// three strategies: RBF assembly, dense factorisation/solves, sparse SpMV,
// tape record + reverse sweep, RBF-FD stencil generation, the per-point
// Dual2 PINN evaluation and one batched PINN training epoch.

#include <benchmark/benchmark.h>

#include "autodiff/dual2.hpp"
#include "autodiff/ops.hpp"
#include "control/pinn_laplace.hpp"
#include "la/blas.hpp"
#include "la/lu.hpp"
#include "nn/mlp.hpp"
#include "pde/channel_flow.hpp"
#include "pointcloud/generators.hpp"
#include "rbf/collocation.hpp"
#include "rbf/rbffd.hpp"
#include "util/rng.hpp"

namespace {

using namespace updec;

void BM_GlobalCollocationAssembly(benchmark::State& state) {
  const auto grid = static_cast<std::size_t>(state.range(0));
  const pc::PointCloud cloud = pc::unit_square_grid(grid, grid);
  const rbf::PolyharmonicSpline kernel(3);
  for (auto _ : state) {
    const rbf::GlobalCollocation colloc(cloud, kernel, 1,
                                        rbf::LinearOp::laplacian());
    benchmark::DoNotOptimize(colloc.matrix().data());
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(cloud.size()));
}
BENCHMARK(BM_GlobalCollocationAssembly)->Arg(10)->Arg(20)->Arg(30)
    ->Complexity(benchmark::oNSquared);

void BM_LuFactorization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  la::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    a(i, i) += static_cast<double>(n);
  }
  for (auto _ : state) {
    const la::LuFactorization lu(a);
    benchmark::DoNotOptimize(lu.size());
  }
}
BENCHMARK(BM_LuFactorization)->Arg(100)->Arg(300)->Arg(600);

void BM_LuTriangularSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  la::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    a(i, i) += static_cast<double>(n);
  }
  const la::LuFactorization lu(a);
  la::Vector b(n, 1.0);
  for (auto _ : state) {
    const la::Vector x = lu.solve(b);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LuTriangularSolve)->Arg(300)->Arg(1000);

void BM_RbffdWeights(benchmark::State& state) {
  pc::ChannelSpec spec;
  spec.target_nodes = static_cast<std::size_t>(state.range(0));
  const pc::PointCloud cloud = pc::channel_cloud(spec);
  const rbf::PolyharmonicSpline kernel(3);
  for (auto _ : state) {
    const rbf::RbffdOperators ops(cloud, kernel);
    benchmark::DoNotOptimize(ops.weights_for(rbf::LinearOp::laplacian()).nnz());
  }
}
BENCHMARK(BM_RbffdWeights)->Arg(300)->Arg(800);

void BM_SparseSpmv(benchmark::State& state) {
  pc::ChannelSpec spec;
  spec.target_nodes = static_cast<std::size_t>(state.range(0));
  const pc::PointCloud cloud = pc::channel_cloud(spec);
  const rbf::PolyharmonicSpline kernel(3);
  const rbf::RbffdOperators ops(cloud, kernel);
  const la::CsrMatrix& dx = ops.dx();
  la::Vector x(cloud.size(), 1.0), y(cloud.size());
  for (auto _ : state) {
    dx.spmv(1.0, x, 0.0, y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SparseSpmv)->Arg(300)->Arg(800);

void BM_TapeRecordAndSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ad::Tape tape;
    ad::Var x = tape.variable(0.5);
    ad::Var acc = tape.constant(0.0);
    for (std::size_t i = 0; i < n; ++i) acc = acc + sin(x * (1.0 + 1e-3 * i));
    tape.backward(acc);
    benchmark::DoNotOptimize(x.adjoint());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_TapeRecordAndSweep)->Arg(1000)->Arg(100000);

void BM_DpChannelGradient(benchmark::State& state) {
  pc::ChannelSpec spec;
  spec.target_nodes = 300;
  const pc::PointCloud cloud = pc::channel_cloud(spec);
  const rbf::PolyharmonicSpline kernel(3);
  pde::ChannelFlowConfig config;
  config.reynolds = 50.0;
  config.refinements = 1;
  config.steps_per_refinement = static_cast<std::size_t>(state.range(0));
  config.steady_tol = 0.0;
  const pde::ChannelFlowSolver solver(cloud, kernel, config, spec);
  const la::Vector inflow = solver.parabolic_inflow();
  for (auto _ : state) {
    ad::Tape tape;
    const ad::VarVec c = ad::make_variables(tape, inflow);
    const pde::FlowAd flow = solver.solve(tape, c);
    ad::Var j = ad::dot(flow.u, flow.u);
    tape.backward(j);
    benchmark::DoNotOptimize(c.front().adjoint());
  }
}
BENCHMARK(BM_DpChannelGradient)->Arg(20)->Arg(80);

void BM_PinnDual2Residual(benchmark::State& state) {
  const nn::Mlp net({2, 30, 30, 30, 1}, nn::Activation::kTanh, 1);
  for (auto _ : state) {
    ad::Tape tape;
    const ad::VarVec theta =
        ad::make_variables(tape, la::Vector(net.parameters()));
    const ad::Var zero = tape.constant(0.0);
    const ad::Var one = tape.constant(1.0);
    const std::vector<ad::Dual2<ad::Var>> in = {
        {tape.constant(0.3), one, zero, zero, zero, zero},
        {tape.constant(0.6), zero, one, zero, zero, zero}};
    const auto out = net.forward<ad::Dual2<ad::Var>, ad::Var>(
        std::span<const ad::Var>(theta),
        std::span<const ad::Dual2<ad::Var>>(in), [&](const ad::Var& w) {
          return ad::Dual2<ad::Var>{w, zero, zero, zero, zero, zero};
        });
    ad::Var r = out[0].hxx + out[0].hyy;
    ad::Var loss = r * r;
    tape.backward(loss);
    benchmark::DoNotOptimize(theta.front().adjoint());
  }
}
BENCHMARK(BM_PinnDual2Residual);

// One full Laplace PINN epoch on the paper's 3x30 net at the default batch
// sizes (64 interior, 32 boundary points, 64 flux quadrature points): the
// batched jet ops, the scalar loss glue, one reverse sweep and the Adam
// step. Compare with BM_PinnDual2Residual, which is one interior point of
// the per-point Dual2<Var> path.
void BM_PinnBatchedEpoch(benchmark::State& state) {
  control::PinnConfig config;
  config.u_hidden = {30, 30, 30};
  control::LaplacePinn pinn(config);
  std::size_t epoch = 0;
  for (auto _ : state) {
    const auto losses = pinn.epoch_step(epoch++ % config.epochs);
    benchmark::DoNotOptimize(losses.total);
  }
  state.counters["tape_bytes"] =
      static_cast<double>(pinn.scratch_bytes());
}
BENCHMARK(BM_PinnBatchedEpoch);

}  // namespace

BENCHMARK_MAIN();
