#pragma once
/// \file scenario.hpp
/// \brief The serve tier's records -- Scenario, RetryPolicy, JobReport --
///        each listing its fields once, in its for_each_field.
///
/// Everything that copies, keys or parses a record visits that list: the
/// wire codec (Writer and Reader walk the same list), the operator-family
/// key behind every bundle cache key and shard routing (family_key), and
/// the manifest parser and CLI batch synthesiser (set_field).

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "serve/cache.hpp"

namespace updec::serve {

enum class ProblemKind : std::uint8_t { kLaplace = 0, kChannel = 1 };
enum class Strategy : std::uint8_t { kDp = 0, kDal = 1, kFd = 2 };

/// Name of an enum value; "?" for a value outside the enum (the wire codec
/// uses that to reject out-of-range bytes).
[[nodiscard]] const char* to_string(ProblemKind kind);
[[nodiscard]] const char* to_string(Strategy strategy);
/// Parse "laplace"/"channel" and "dp"/"dal"/"fd" (throws updec::Error).
[[nodiscard]] ProblemKind parse_problem_kind(const std::string& s);
[[nodiscard]] Strategy parse_strategy(const std::string& s);

/// One optimisation run to serve.
struct Scenario {
  std::string id;                ///< caller-chosen label for the report
  ProblemKind problem = ProblemKind::kLaplace;
  Strategy strategy = Strategy::kDal;

  // Discretisation.
  std::size_t grid_n = 16;        ///< Laplace: nodes per side
  std::size_t target_nodes = 500; ///< Channel: cloud size
  double reynolds = 1.0;          ///< Channel only
  int poly_degree = 1;            ///< Laplace only

  // Optimisation budget.
  std::size_t iterations = 50;
  double learning_rate = 1e-2;
  double fd_step = 1e-6;

  // Per-job initial-control perturbation: control[i] += jitter * N(0, 1)
  // drawn from Rng(seed). jitter == 0 reproduces the problem's canonical
  // initial control regardless of seed.
  std::uint64_t seed = 0;
  double control_jitter = 0.0;

  /// Wall-clock budget for THIS job; 0 falls back to the scheduler's
  /// default (SchedulerOptions::default_deadline_ms), which itself
  /// defaults to "no deadline".
  double deadline_ms = 0.0;

  // Adaptive refinement (Laplace DAL only; any other job with
  // refine_cycles > 0 fails unbuilt). refine_cycles > 0 serves the job on an
  // adjoint-adapted cloud grown from grid_n by that many refine::AdaptiveLoop
  // cycles. The cycle count and the resolved fraction are part of the family
  // key: a refined cloud never aliases another level in cache or routing.
  std::size_t refine_cycles = 0;
  double refine_fraction = 0.0;   ///< outside (0, 1): RefineConfig's default
};

/// What a Scenario field means to the serve tier.
enum class FieldRole : std::uint8_t {
  kIdentity,        ///< names the job (id, seed); never keys anything
  kSelector,        ///< picks the gradient strategy over a family's operators
  kBudget,          ///< how long and how hard to optimise; never keys anything
  kDiscretisation,  ///< picks the operator family: keys bundles and routing
};

struct FieldInfo {
  const char* name;  ///< manifest column; CLI flag with '_' spelled '-'
  FieldRole role;
  /// The one problem kind that reads this field; nullopt: every kind.
  std::optional<ProblemKind> only = std::nullopt;
};

/// The Scenario table: f(FieldInfo, field) for every field, in wire order.
/// `S` is Scenario or const Scenario.
template <typename S, typename F>
void for_each_field(S& sc, F&& f)
  requires std::is_same_v<std::remove_const_t<S>, Scenario>
{
  using R = FieldRole;
  constexpr auto kLaplace = ProblemKind::kLaplace;
  constexpr auto kChannel = ProblemKind::kChannel;
  f(FieldInfo{"id", R::kIdentity}, sc.id);
  f(FieldInfo{"problem", R::kDiscretisation}, sc.problem);
  f(FieldInfo{"strategy", R::kSelector}, sc.strategy);
  f(FieldInfo{"grid", R::kDiscretisation, kLaplace}, sc.grid_n);
  f(FieldInfo{"nodes", R::kDiscretisation, kChannel}, sc.target_nodes);
  f(FieldInfo{"reynolds", R::kDiscretisation, kChannel}, sc.reynolds);
  f(FieldInfo{"poly_degree", R::kDiscretisation, kLaplace}, sc.poly_degree);
  f(FieldInfo{"iters", R::kBudget}, sc.iterations);
  f(FieldInfo{"lr", R::kBudget}, sc.learning_rate);
  f(FieldInfo{"fd_step", R::kBudget}, sc.fd_step);
  f(FieldInfo{"seed", R::kIdentity}, sc.seed);
  f(FieldInfo{"jitter", R::kBudget}, sc.control_jitter);
  f(FieldInfo{"deadline_ms", R::kBudget}, sc.deadline_ms);
  f(FieldInfo{"refine_cycles", R::kDiscretisation, kLaplace},
    sc.refine_cycles);
  f(FieldInfo{"refine_fraction", R::kDiscretisation, kLaplace},
    sc.refine_fraction);
}

/// The fraction a refined cloud is built with: refine_fraction when
/// refine_cycles > 0 and it lies in (0, 1), else RefineConfig's default.
[[nodiscard]] double resolved_refine_fraction(const Scenario& sc);

/// The operator-family key: `domain` plus every kDiscretisation field that
/// applies to the scenario's problem kind, refine_fraction resolved. Bundle
/// caches extend it with their tier-private inputs; shard routing finalises
/// it. Identity, budget and selector fields never enter it.
[[nodiscard]] KeyBuilder family_key(const Scenario& sc,
                                    std::string_view domain);

/// Parse one manifest cell (or CLI flag value) into the field named
/// `column`; an empty cell keeps the field's value. Numbers must parse over
/// the whole cell (std::from_chars, a leading '+' tolerated); unsigned
/// fields reject a sign, doubles reject nan/inf. Throws updec::Error on an
/// unknown column or a malformed value.
void set_field(Scenario& sc, std::string_view column, std::string_view cell);

/// Parse a CSV manifest whose header row names table columns in any order
/// (`id` required; '#' and blank lines skipped; empty cells keep defaults).
/// Unknown or duplicated columns, extra cells and malformed values throw
/// updec::Error naming `source`, the line and the column.
[[nodiscard]] std::vector<Scenario> parse_manifest(std::istream& in,
                                                   const std::string& source);
/// parse_manifest over the file at `path`.
[[nodiscard]] std::vector<Scenario> load_manifest(const std::string& path);

enum class JobStatus : std::uint8_t {
  kPending = 0,
  kRunning = 1,
  kSucceeded = 2,
  kCancelled = 3,         ///< Scheduler::cancel() before/while running
  kDeadlineExpired = 4,   ///< cooperative deadline stop
  kFailed = 5,            ///< solver threw or the driver aborted
  kRetrying = 6,          ///< live-only: backing off before another attempt
};

[[nodiscard]] const char* to_string(JobStatus status);

/// How run_scenario handles transient failures: up to `max_retries` extra
/// attempts with exponential backoff and a deterministic per-job jitter,
/// every delay charged against the job's deadline (a retry that cannot fit
/// in the remaining budget is not taken -- the job resolves to
/// kDeadlineExpired instead of spinning), and an optional final best-effort
/// degraded attempt once the retry budget is gone.
struct RetryPolicy {
  std::size_t max_retries = 0;      ///< extra attempts after the first
  double backoff_ms = 50.0;         ///< delay before the first retry
  double backoff_multiplier = 2.0;  ///< growth per subsequent retry
  double max_backoff_ms = 2000.0;   ///< cap on any single delay
  double jitter = 0.1;              ///< +/- fraction, drawn from Rng(seed)

  /// After the last retry fails, run one more attempt with the iteration
  /// budget truncated to `degraded_iterations` of the scenario's and a
  /// doubled divergence-recovery budget. A success is reported with
  /// JobReport::degraded set (and the achieved gradient norm recorded)
  /// instead of a hard kFailed.
  bool allow_degraded = true;
  double degraded_iterations = 0.25;  ///< fraction of Scenario::iterations

  /// When > 0 and the job has a deadline: once elapsed time crosses this
  /// fraction of the deadline, ask the driver to wrap up via
  /// DriverOptions::should_degrade. The job then resolves as a degraded
  /// success with the trajectory so far, rather than running into the hard
  /// deadline and resolving kDeadlineExpired. 0 (default) disables.
  double soft_deadline_fraction = 0.0;
};

/// The RetryPolicy table: f(field) for every field, in wire order.
template <typename P, typename F>
void for_each_field(P& p, F&& f)
  requires std::is_same_v<std::remove_const_t<P>, RetryPolicy>
{
  f(p.max_retries);
  f(p.backoff_ms);
  f(p.backoff_multiplier);
  f(p.max_backoff_ms);
  f(p.jitter);
  f(p.allow_degraded);
  f(p.degraded_iterations);
  f(p.soft_deadline_fraction);
}

/// Outcome of one scenario.
struct JobReport {
  std::string id;
  JobStatus status = JobStatus::kPending;
  double seconds = 0.0;              ///< wall-clock inside the job (all attempts)
  double final_cost = 0.0;
  std::size_t iterations = 0;        ///< accepted optimisation iterations
  std::vector<double> cost_history;  ///< J per iteration (possibly truncated)
  std::string error;                 ///< populated for kFailed
  std::size_t attempts = 0;          ///< attempts executed (>= 1 once run)
  std::size_t retries = 0;           ///< backoff delays actually taken
  bool degraded = false;             ///< best-effort result (see RetryPolicy)
  /// Final gradient norm of the returned trajectory -- the optimisation
  /// tolerance actually achieved, meaningful mainly when `degraded`.
  double achieved_tolerance = 0.0;

  [[nodiscard]] bool ok() const { return status == JobStatus::kSucceeded; }
};

/// The JobReport table: f(field) for every field, in wire order.
template <typename R, typename F>
void for_each_field(R& r, F&& f)
  requires std::is_same_v<std::remove_const_t<R>, JobReport>
{
  f(r.id);
  f(r.status);
  f(r.seconds);
  f(r.final_cost);
  f(r.iterations);
  f(r.cost_history);
  f(r.error);
  f(r.attempts);
  f(r.retries);
  f(r.degraded);
  f(r.achieved_tolerance);
}

}  // namespace updec::serve
