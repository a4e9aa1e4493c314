// One benchmark workload in one process: set-up (repeated), one timed phase,
// and a single JSON line on stdout with the raw measurements. run.py starts
// this binary once per run with a pinned OpenMP team, checks the outputs and
// turns the raw numbers into metrics.
//
//   perfbench_workload --workload table3|pinn|serve --seed N --rounds R
//                      --setup-reps S --trace 0|1 --workers W
//
// --trace 1 enables the metrics registry and adds its spans and counters to
// the result. The benchmark's own spans (set-up steps, optimiser and gradient
// calls, serve submit/queue) are recorded in both modes: they cost two clock
// reads each.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "control/channel_problem.hpp"
#include "control/driver.hpp"
#include "control/laplace_problem.hpp"
#include "control/pinn_laplace.hpp"
#include "pointcloud/generators.hpp"
#include "rbf/kernels.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard.hpp"
#include "util/memory.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace updec;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double rusage_cpu(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// CPU seconds (user + system) a live process has used, from /proc/<pid>/stat.
double proc_cpu(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), {});
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command name start at 3 (state); utime/stime are 14/15.
  for (int i = 3; i <= 15 && fields >> field; ++i)
    if (i >= 14) ticks += std::stod(field);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// VmHWM of a live process in bytes, from /proc/<pid>/status.
double proc_hwm_bytes(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return 1024.0 * std::stod(line.substr(6));
  return 0.0;
}

/// Runs `setup` -- which times itself and returns seconds -- in `n - 1`
/// forked children, one after another, and returns their times. Repeated
/// set-ups then leave nothing behind in the process that runs the timed
/// phase: not heap layout, not malloc's adaptive mmap threshold (which moved
/// the pinn peak RSS by 54 MiB), not caches or registry counters. The
/// caller times its own n-th set-up. Call it before this process starts
/// any thread, OpenMP's included: a forked child inherits none of them.
std::vector<double> setups_in_children(std::size_t n,
                                       const std::function<double()>& setup) {
  std::vector<double> seconds;
  for (std::size_t i = 1; i < n; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      close(fds[0]);
      double s = -1.0;
      try {
        s = setup();
      } catch (const std::exception& e) {
        std::cerr << "set-up failed: " << e.what() << "\n";
      }
      _exit(write(fds[1], &s, sizeof s) == sizeof s ? 0 : 1);
    }
    close(fds[1]);
    double s = -1.0;
    const ssize_t got = read(fds[0], &s, sizeof s);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != static_cast<ssize_t>(sizeof s) || s < 0.0)
      throw std::runtime_error("set-up failed in a child process");
    seconds.push_back(s);
  }
  return seconds;
}

/// The benchmark's own spans: every occurrence's duration, by name.
using Spans = std::map<std::string, std::vector<double>>;

/// Times GradientStrategy::value_and_gradient, splitting an optimiser run
/// into gradient evaluations and optimiser-loop + optim self time.
class TimedStrategy final : public control::GradientStrategy {
 public:
  TimedStrategy(std::unique_ptr<control::GradientStrategy> inner,
                std::vector<double>& sink)
      : inner_(std::move(inner)), sink_(sink) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  double value_and_gradient(const la::Vector& control,
                            la::Vector& gradient) override {
    const auto t0 = Clock::now();
    const double j = inner_->value_and_gradient(control, gradient);
    sink_.push_back(since(t0));
    return j;
  }
  [[nodiscard]] std::size_t scratch_bytes() const override {
    return inner_->scratch_bytes();
  }

 private:
  std::unique_ptr<control::GradientStrategy> inner_;
  std::vector<double>& sink_;
};

/// Fisher-Yates permutation of 0..n-1 from the workload seed.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  return order;
}

std::string json_num(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// Minimal JSON object writer for the one-line result.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) {
    return raw(key, json_num(v));
  }
  JsonOut& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return raw(key, quoted + "\"");
  }
  JsonOut& arr(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      s += (i ? "," : "") + json_num(v[i]);
    return raw(key, s + "]");
  }
  JsonOut& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + value;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// One checked unit of work: an optimiser run, a training or a serve job.
struct RunResult {
  std::string key;
  double j = 0.0;
  bool ok = true;
  std::string detail;
};

std::string runs_json(const std::vector<RunResult>& runs) {
  std::string s = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    JsonOut o;
    o.str("key", runs[i].key).num("j", runs[i].j).raw(
        "ok", runs[i].ok ? "true" : "false");
    if (!runs[i].detail.empty()) o.str("detail", runs[i].detail);
    s += (i ? "," : "") + o.str();
  }
  return s + "]";
}

/// Registry name -> per-layer name: "/" becomes ".".
std::string layer_name(std::string name) {
  std::replace(name.begin(), name.end(), '/', '.');
  return name;
}

/// The registry counters the benchmark doc maps to end-to-end metrics.
void registry_counters(JsonOut& layers) {
  for (const char* name :
       {"la/lu_factor.calls", "la/gmres.iterations",
        "la/sparse_first.fallbacks", "la/sparse_first.dense_instances",
        "autodiff/tape.nodes_swept", "rbf/rbffd.rows_recomputed",
        "rbf/rbffd.rows_reused"})
    layers.num(layer_name(name),
               static_cast<double>(metrics::counter_value(name)));
  layers.num("autodiff.tape.peak_bytes",
             metrics::gauge_value("autodiff/tape.peak_bytes"));
}

/// The registry spans the benchmark doc maps, as total seconds ("_s").
void registry_spans(JsonOut& layers) {
  for (const char* name : {"rbf/rbffd_weights", "la/lu_factor",
                           "pde/channel_solve", "pde/channel_solve_ad",
                           "autodiff/backward", "refine/adaptive_loop"})
    layers.num(layer_name(name) + "_s",
               metrics::span_stats(name).total_seconds);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t rounds = 1;
  std::size_t setup_reps = 3;
  bool trace = false;
  std::size_t workers = 2;
};

/// What every workload hands back to main().
struct Measured {
  std::vector<double> setup_s;
  double timed_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_bytes = 0.0;
  double units = 0.0;
  std::vector<double> latency_s;
  std::vector<RunResult> runs;
  JsonOut layers;
  std::string registry = "{}";  ///< full registry dump of a traced run
};

// ---- table3 ---------------------------------------------------------------

// Reduced-scale Table 3 DAL and DP rows: Laplace on a 40x40 global
// collocation grid, channel Navier-Stokes on 350 nodes at Re 100, k = 3.
constexpr std::size_t kLaplaceGrid = 40;
constexpr std::size_t kChannelNodes = 350;

struct Table3Problems {
  rbf::PolyharmonicSpline kernel{3};
  std::shared_ptr<control::LaplaceControlProblem> laplace;
  std::shared_ptr<control::ChannelFlowControlProblem> channel;
  double laplace_j0 = 0.0;
  double channel_j0 = 0.0;
};

pc::ChannelSpec channel_spec() {
  pc::ChannelSpec spec;
  spec.target_nodes = kChannelNodes;
  return spec;
}

pde::ChannelFlowConfig channel_config() {
  pde::ChannelFlowConfig config;
  config.reynolds = 100.0;
  config.refinements = 3;
  config.steps_per_refinement = 150;
  return config;
}

/// Builds both problems and forces the Laplace factorisation.
std::unique_ptr<Table3Problems> build_table3(Spans& spans, bool channel) {
  auto p = std::make_unique<Table3Problems>();
  auto t0 = Clock::now();
  p->laplace =
      std::make_shared<control::LaplaceControlProblem>(kLaplaceGrid, p->kernel);
  if (channel)
    p->channel = std::make_shared<control::ChannelFlowControlProblem>(
        channel_spec(), p->kernel, channel_config());
  spans["rbf.assemble"].push_back(since(t0));

  t0 = Clock::now();
  p->laplace_j0 = p->laplace->cost(p->laplace->initial_control());
  spans["la.factor"].push_back(since(t0));
  if (channel) p->channel_j0 = p->channel->cost(p->channel->initial_control());
  return p;
}

/// Times the cloud generators on their own, for the split of set-up into
/// cloud build and operator assembly. The problem constructors build their
/// clouds internally, so this is extra work: traced runs only, and after the
/// timed set-up.
void time_cloud_builds(Spans& spans, bool channel) {
  const auto t0 = Clock::now();
  (void)pc::unit_square_grid(kLaplaceGrid, kLaplaceGrid);
  if (channel) (void)pc::channel_cloud(channel_spec());
  spans["pointcloud.build"].push_back(since(t0));
}

struct Cell {
  const char* name;
  bool channel;
  bool dp;
  /// False for NS DAL: at Re 100 its continuous-adjoint gradient is not a
  /// descent direction (the paper's negative result), so J rises; the run
  /// is checked against its reference J only.
  bool descends;
  std::size_t iterations;
};
// Per-iteration times form four well-separated clusters (Laplace DAL < DP
// << NS DAL < DP). The budgets put the pooled p50 in the middle of the
// Laplace DP cluster and p90 in the middle of the NS DAL one; a percentile
// that falls on a gap between clusters would jump from run to run.
constexpr Cell kCells[] = {{"laplace_dal", false, false, true, 10},
                           {"laplace_dp", false, true, true, 55},
                           {"ns_dal", true, false, false, 5},
                           {"ns_dp", true, true, true, 5}};
// A round runs every cell this many times, interleaved, so that each
// cluster's samples spread over the whole round. Host speed drifts over
// seconds; a p50 drawn from one 2 s Laplace DP window had a quartile spread
// of 29 % of its median over ten runs. The cells run in this fixed order,
// not in a seed order: with four passes, the order moved peak RSS between
// 261 and 297 MiB through the heap state each NS DP tape lands on.
constexpr std::size_t kPasses = 4;

Measured run_table3(const Options& opt, Spans& spans) {
  Measured m;
  // Traced runs record from the start: set-up is where the factor lands.
  metrics::set_enabled(opt.trace);
  m.setup_s = setups_in_children(opt.setup_reps, [&] {
    const auto t0 = Clock::now();
    const auto problems = build_table3(spans, true);
    return since(t0);
  });
  auto t0 = Clock::now();
  const std::unique_ptr<Table3Problems> p = build_table3(spans, true);
  m.setup_s.push_back(since(t0));
  if (opt.trace) time_cloud_builds(spans, true);

  const double cpu0 = rusage_cpu(RUSAGE_SELF);
  t0 = Clock::now();
  std::map<std::string, std::vector<double>> gradients;
  for (std::size_t pass = 0; pass < opt.rounds * kPasses; ++pass) {
    for (const Cell& cell : kCells) {
      control::DriverOptions adam;
      adam.iterations = cell.iterations;
      adam.initial_learning_rate = 1e-2;
      std::unique_ptr<control::GradientStrategy> inner;
      const control::ControlProblem* problem = nullptr;
      double j0 = 0.0;
      if (cell.channel) {
        inner = cell.dp ? control::make_channel_dp(p->channel)
                        : control::make_channel_dal(p->channel);
        problem = p->channel.get();
        j0 = p->channel_j0;
      } else {
        inner = cell.dp ? control::make_laplace_dp(p->laplace)
                        : control::make_laplace_dal(p->laplace);
        problem = p->laplace.get();
        j0 = p->laplace_j0;
      }
      TimedStrategy strategy(std::move(inner), gradients[cell.name]);
      const auto tc = Clock::now();
      const control::DriverResult r =
          control::optimize(*problem, strategy, adam);
      spans[std::string("control.") + cell.name + ".optimize"].push_back(
          since(tc));
      m.units += static_cast<double>(r.iterations);
      for (double s : r.iteration_seconds) m.latency_s.push_back(s);
      RunResult run{cell.name, r.final_cost, true, ""};
      if (r.aborted || r.iterations != adam.iterations) {
        run.ok = false;
        run.detail = "aborted or short run";
      } else if (cell.descends && !(r.final_cost < j0)) {
        run.ok = false;
        run.detail = "final J not below J(initial control)";
      }
      m.runs.push_back(run);
    }
  }
  m.timed_s = since(t0);
  m.cpu_s = rusage_cpu(RUSAGE_SELF) - cpu0;
  m.peak_rss_bytes = static_cast<double>(peak_rss_bytes());
  metrics::set_enabled(false);
  registry_counters(m.layers);
  registry_spans(m.layers);
  if (opt.trace) m.registry = metrics::dump_json();

  for (const Cell& cell : kCells) {
    const std::string prefix = std::string("control.") + cell.name;
    m.layers.num(prefix + ".optimize_s", sum(spans[prefix + ".optimize"]))
        .num(prefix + ".gradient_p50_s", median(gradients[cell.name]));
  }
  return m;
}

// ---- pinn -----------------------------------------------------------------

// K short trainings of the paper's 3x30 Laplace PINN at omega = 0.1, each
// scored through the 40x40 RBF solver of the table3 workload.
constexpr std::size_t kPinnTrainings = 24;
constexpr std::size_t kPinnEpochs = 6;

Measured run_pinn(const Options& opt, Spans& spans) {
  Measured m;
  // Traced runs record from the start: set-up is where the factor lands.
  metrics::set_enabled(opt.trace);
  m.setup_s = setups_in_children(opt.setup_reps, [&] {
    const auto t0 = Clock::now();
    const auto problems = build_table3(spans, false);
    return since(t0);
  });
  auto t0 = Clock::now();
  const std::unique_ptr<Table3Problems> p = build_table3(spans, false);
  m.setup_s.push_back(since(t0));
  if (opt.trace) time_cloud_builds(spans, false);
  const std::vector<double> xs = p->laplace->solver().control_x();

  const double cpu0 = rusage_cpu(RUSAGE_SELF);
  t0 = Clock::now();
  std::vector<double> train_s;
  for (std::size_t round = 0; round < opt.rounds; ++round) {
    for (std::size_t k : permutation(kPinnTrainings, opt.seed + round)) {
      control::PinnConfig config;
      config.u_hidden = {30, 30, 30};
      config.epochs = kPinnEpochs;
      config.learning_rate = 1e-3;
      config.omega = 0.1;
      config.seed = k + 1;
      const auto tt = Clock::now();
      control::LaplacePinn pinn(config);
      pinn.train();
      train_s.push_back(since(tt));
      const auto te = Clock::now();
      const double j = p->laplace->cost(pinn.control_at(xs));
      spans["pinn.eval"].push_back(since(te));
      m.latency_s.push_back(since(tt));
      m.units += static_cast<double>(config.epochs);
      RunResult run{"seed" + std::to_string(config.seed), j,
                    std::isfinite(j), ""};
      if (!run.ok) run.detail = "non-finite J";
      m.runs.push_back(run);
    }
  }
  m.timed_s = since(t0);
  m.cpu_s = rusage_cpu(RUSAGE_SELF) - cpu0;
  m.peak_rss_bytes = static_cast<double>(peak_rss_bytes());
  metrics::set_enabled(false);
  registry_counters(m.layers);
  registry_spans(m.layers);
  if (opt.trace) m.registry = metrics::dump_json();

  const double backward =
      metrics::span_stats("autodiff/backward").total_seconds;
  m.layers.num("pinn.train_p50_s", median(train_s))
      .num("pinn.eval_s", sum(spans["pinn.eval"]))
      .num("pinn.record_s", opt.trace ? sum(train_s) - backward : 0.0);
  return m;
}

// ---- serve ----------------------------------------------------------------

// The batch: hot Laplace families (warmed in set-up, so their jobs read the
// operator cache), a batched-RHS FD slice on a hot family, and a once-seen
// slice whose families build and factor inside the timed phase -- uniform
// grids and adjoint-refined clouds. Every shard holds every hot family after
// set-up, so a job hits or misses the cache the same way wherever routing or
// stealing puts it, and the cache counts repeat exactly from run to run.
struct JobSpec {
  std::size_t grid;
  serve::Strategy strategy;
  std::size_t iterations;
  std::size_t refine_cycles;
};

// Many short hot jobs rather than few long ones: the batch's p90 is an order
// statistic, and its run-to-run spread shrinks with the number of samples and
// with their density around it. Each strategy's iteration counts run through
// every value in [kHotMinIterations, kHotMinIterations + kHotIterationSpan),
// so no lump of equal jobs puts a gap in the tail. 256 jobs of 100-180
// iterations in steps of 20 gave a p90 quartile spread of 0.17 and 0.25 of
// its median in two sets of ten runs; 1024 jobs of 25-45 iterations, the
// same total iterations, gave 0.09 and 0.18.
constexpr std::size_t kHotGrids[] = {20, 24, 28, 32};
constexpr std::size_t kHotJobsPerFamily = 256;
constexpr std::size_t kHotMinIterations = 25;
constexpr std::size_t kHotIterationSpan = 21;
constexpr std::size_t kFdJobs = 8;
constexpr std::size_t kOnceGrids[] = {21, 22, 23, 25, 26, 27, 29, 30};
constexpr std::size_t kRefinedGrids[] = {10, 11};

serve::Scenario scenario(const std::string& id, const JobSpec& spec) {
  serve::Scenario s;
  s.id = id;
  s.problem = serve::ProblemKind::kLaplace;
  s.strategy = spec.strategy;
  s.grid_n = spec.grid;
  s.iterations = spec.iterations;
  s.learning_rate = 1e-2;
  s.refine_cycles = spec.refine_cycles;
  return s;
}

std::vector<serve::Scenario> serve_batch(std::uint64_t seed) {
  std::vector<serve::Scenario> jobs;
  for (std::size_t g : kHotGrids)
    for (std::size_t i = 0; i < kHotJobsPerFamily; ++i)
      jobs.push_back(scenario(
          "hot-g" + std::to_string(g) + "-" + std::to_string(i),
          {g, i % 2 ? serve::Strategy::kDp : serve::Strategy::kDal,
           kHotMinIterations + (i / 2) % kHotIterationSpan, 0}));
  for (std::size_t i = 0; i < kFdJobs; ++i)
    jobs.push_back(scenario("fd-g20-" + std::to_string(i),
                            {20, serve::Strategy::kFd, 3 + i % 3, 0}));
  for (std::size_t i = 0; i < std::size(kOnceGrids); ++i) {
    const std::size_t g = kOnceGrids[i];
    jobs.push_back(scenario(
        "once-g" + std::to_string(g),
        {g, i % 2 ? serve::Strategy::kDp : serve::Strategy::kDal, 20, 0}));
  }
  for (std::size_t g : kRefinedGrids)
    for (std::size_t cycles = 1; cycles <= 2; ++cycles)
      jobs.push_back(scenario(
          "refined-g" + std::to_string(g) + "-c" + std::to_string(cycles),
          {g, serve::Strategy::kDal, 20, cycles}));
  std::vector<serve::Scenario> batch;
  for (std::size_t i : permutation(jobs.size(), seed)) batch.push_back(jobs[i]);
  return batch;
}

std::unique_ptr<serve::Scheduler> make_scheduler(std::size_t workers) {
  serve::SchedulerOptions so;
  so.shards = workers;
  so.default_deadline_ms = 0.0;
  so.retry = serve::RetryPolicy{};
  auto sched = std::make_unique<serve::Scheduler>(so);
  // Warm each hot family on every shard: one copy per worker, submitted
  // together while all workers are idle, so the home shard takes one copy
  // and each other shard steals one.
  for (std::size_t g : kHotGrids) {
    for (std::size_t w = 0; w < workers; ++w)
      (void)sched->submit(scenario("warm-g" + std::to_string(g),
                                   {g, serve::Strategy::kDal, 1, 0}));
    // Popping the completions also keeps warm-ups out of the timed stream.
    for (std::size_t w = 0; w < workers; ++w) {
      const auto done = sched->next_completed();
      if (!done || !done->second.ok())
        throw std::runtime_error("warm-up job failed");
    }
  }
  return sched;
}

Measured run_serve(const Options& opt, Spans& spans) {
  Measured m;
  // Workers inherit the registry switch at fork, so a traced run turns it
  // on before the pool exists and drops the set-up counters below.
  metrics::set_enabled(opt.trace);
  m.setup_s = setups_in_children(opt.setup_reps, [&] {
    const auto t0 = Clock::now();
    const auto pool = make_scheduler(opt.workers);
    return since(t0);
  });
  const double children_cpu0 = rusage_cpu(RUSAGE_CHILDREN);
  auto t0 = Clock::now();
  std::unique_ptr<serve::Scheduler> sched = make_scheduler(opt.workers);
  m.setup_s.push_back(since(t0));
  const std::vector<serve::Scenario> batch = serve_batch(opt.seed);
  // Counters recorded so far (set-up) are merged, then dropped, so the
  // traced run reports the timed phase alone.
  const serve::OperatorCache::Stats stats0 = sched->cache_stats();
  metrics::reset();

  std::vector<int> pids;
  double worker_cpu0 = 0.0;
  for (const auto& info : sched->shards()->shard_infos()) {
    pids.push_back(info.pid);
    worker_cpu0 += proc_cpu(info.pid);
  }
  const double cpu0 = rusage_cpu(RUSAGE_SELF);
  t0 = Clock::now();
  std::map<serve::Scheduler::JobId, std::pair<std::string, double>> submitted;
  for (std::size_t round = 0; round < opt.rounds; ++round) {
    const auto ts = Clock::now();
    for (const serve::Scenario& s : batch) {
      const auto id = sched->submit(s);
      submitted[id] = {s.id, since(t0)};
    }
    spans["serve.submit"].push_back(since(ts));
    while (auto done = sched->next_completed()) {
      const double t_done = since(t0);
      const auto& [id, report] = *done;
      const auto& [key, t_submit] = submitted.at(id);
      m.latency_s.push_back(report.seconds);
      spans["serve.queue_wait"].push_back(t_done - t_submit - report.seconds);
      if (key.rfind("fd-", 0) == 0)
        spans["serve.fd"].push_back(report.seconds);
      if (key.rfind("refined-", 0) == 0)
        spans["serve.refined"].push_back(report.seconds);
      m.units += 1.0;
      RunResult run{key, report.final_cost, true, ""};
      if (report.status != serve::JobStatus::kSucceeded || report.degraded) {
        run.ok = false;
        run.detail = std::string("status ") + serve::to_string(report.status) +
                     (report.degraded ? " (degraded)" : "") + " " +
                     report.error;
      }
      m.runs.push_back(run);
    }
  }
  m.timed_s = since(t0);
  const double self_cpu = rusage_cpu(RUSAGE_SELF) - cpu0;

  // Per-worker peak RSS must be read while the workers are alive.
  double workers_hwm = 0.0;
  for (int pid : pids) workers_hwm += proc_hwm_bytes(pid);
  const serve::OperatorCache::Stats stats = sched->cache_stats();
  const auto infos = sched->shards()->shard_infos();
  registry_counters(m.layers);  // worker counters merged by cache_stats()
  sched.reset();  // drains and reaps: their CPU lands in RUSAGE_CHILDREN
  const double workers_cpu =
      rusage_cpu(RUSAGE_CHILDREN) - children_cpu0 - worker_cpu0;
  m.cpu_s = self_cpu + workers_cpu;
  m.peak_rss_bytes = static_cast<double>(peak_rss_bytes()) + workers_hwm;

  // Worker spans do not cross the shard wire, so a traced run replays the
  // once-seen slice in this process -- single-threaded like a shard, on a
  // private cold cache -- to split its cache-miss work into layers.
  if (opt.trace) {
    metrics::reset();
#if defined(_OPENMP)
    const int team = omp_get_max_threads();
    omp_set_num_threads(1);
#endif
    serve::OperatorCache cold(serve::byte_budget_from_env(), "");
    for (const serve::Scenario& s : batch)
      if (s.id.rfind("once-", 0) == 0 || s.id.rfind("refined-", 0) == 0)
        (void)serve::run_scenario(s, cold, 0.0, {}, serve::RetryPolicy{});
#if defined(_OPENMP)
    omp_set_num_threads(team);
#endif
  }
  metrics::set_enabled(false);
  registry_spans(m.layers);
  if (opt.trace) m.registry = metrics::dump_json();

  double steals = 0.0, max_done = 0.0, min_done = 1e300;
  for (const auto& info : infos) {
    steals += static_cast<double>(info.steals);
    max_done = std::max(max_done, static_cast<double>(info.jobs_done));
    min_done = std::min(min_done, static_cast<double>(info.jobs_done));
  }
  const double hits = static_cast<double>(stats.hits - stats0.hits);
  const double misses = static_cast<double>(stats.misses - stats0.misses);
  m.layers.num("serve.submit_s", sum(spans["serve.submit"]))
      .num("serve.queue_wait_p50_s", median(spans["serve.queue_wait"]))
      .num("serve.cache_hit_ratio", hits / std::max(1.0, hits + misses))
      .num("serve.cache_misses", misses)
      .num("serve.steals", steals)
      .num("serve.shard_imbalance", max_done / std::max(1.0, min_done))
      .num("serve.fd_p50_s", median(spans["serve.fd"]))
      .num("serve.refined_p50_s", median(spans["serve.refined"]));
  // Every class the cache knows; run.py keeps the ones BENCHMARK.json names.
  for (const auto& [klass, now] : stats.by_class) {
    serve::OperatorCache::ClassStats before;
    if (auto it = stats0.by_class.find(klass); it != stats0.by_class.end())
      before = it->second;
    const std::string prefix = "serve.cache." + klass;
    m.layers.num(prefix + ".hits", static_cast<double>(now.hits - before.hits))
        .num(prefix + ".misses",
             static_cast<double>(now.misses - before.misses));
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--rounds") opt.rounds = std::stoul(value);
    else if (key == "--setup-reps") opt.setup_reps = std::stoul(value);
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--workers") opt.workers = std::stoul(value);
    else {
      std::cerr << "unknown argument " << key << "\n";
      return 2;
    }
  }
  if (opt.rounds < 1 || opt.setup_reps < 1 || opt.workers < 1) {
    std::cerr << "--rounds, --setup-reps and --workers must be >= 1\n";
    return 2;
  }
  metrics::set_enabled(false);

  Spans spans;
  Measured m;
  try {
    if (opt.workload == "table3") m = run_table3(opt, spans);
    else if (opt.workload == "pinn") m = run_pinn(opt, spans);
    else if (opt.workload == "serve") m = run_serve(opt, spans);
    else {
      std::cerr << "unknown workload '" << opt.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "workload failed: " << e.what() << "\n";
    return 1;
  }

  if (opt.trace) {
    m.layers
        .num("pointcloud.build_s", median(spans["pointcloud.build"]))
        .num("rbf.assemble_s", median(spans["rbf.assemble"]))
        .num("la.factor_s", median(spans["la.factor"]));
  }
  int team = 1;
#if defined(_OPENMP)
  team = omp_get_max_threads();
#endif
  JsonOut out;
  out.str("workload", opt.workload)
      .num("omp_team", team)
      .num("workers", opt.workload == "serve" ? opt.workers : 0)
      .arr("setup_s", m.setup_s)
      .num("timed_s", m.timed_s)
      .num("cpu_s", m.cpu_s)
      .num("peak_rss_bytes", m.peak_rss_bytes)
      .num("units", m.units)
      .arr("latency_s", m.latency_s)
      .raw("runs", runs_json(m.runs))
      .raw("layers", m.layers.str())
      .raw("registry", m.registry);
  std::string line = out.str();
  std::replace(line.begin(), line.end(), '\n', ' ');  // the dump is indented
  std::cout << line << std::endl;
  return 0;
}
