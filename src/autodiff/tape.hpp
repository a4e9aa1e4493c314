#pragma once
/// \file tape.hpp
/// Reverse-mode automatic differentiation on a Wengert tape.
///
/// This is the substrate of the paper's differentiable-programming (DP)
/// strategy: every elementary operation of the discretised RBF solver is
/// recorded as a node, and one reverse sweep yields the exact gradient of
/// the cost objective with respect to the control (the "discretise-then-
/// optimise" approach of section 2.4). The tape mirrors what JAX's `grad`
/// does for the original Updec implementation, including custom vector-
/// valued operations with hand-written VJPs (see ops.hpp) that keep linear
/// solves O(n) on the tape instead of O(n^2).
///
/// Storage is structure-of-arrays: each scalar node carries a value, up to
/// two parent indices and the local partial derivatives with respect to
/// those parents. Custom multi-output operations (SpMV, linear solve, ...)
/// register a backward callback that fires at the right position of the
/// reverse sweep.

#include <cstdint>
#include <functional>
#include <vector>

#include "util/error.hpp"

namespace updec::ad {

class Tape;

/// Handle to a scalar node on a tape. Cheap to copy; only valid while the
/// owning tape is alive and has not been cleared past the node.
class Var {
 public:
  Var() = default;
  Var(Tape* tape, std::int64_t idx) : tape_(tape), idx_(idx) {}

  [[nodiscard]] bool valid() const { return tape_ != nullptr; }
  [[nodiscard]] Tape* tape() const { return tape_; }
  [[nodiscard]] std::int64_t index() const { return idx_; }

  /// Forward value of this node.
  [[nodiscard]] double value() const;

  /// Adjoint of this node after Tape::backward().
  [[nodiscard]] double adjoint() const;

 private:
  Tape* tape_ = nullptr;
  std::int64_t idx_ = -1;
};

/// Wengert tape holding the computation graph of one forward pass.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Create a differentiable input (leaf) node.
  Var variable(double value);

  /// Create a constant node (leaf; gradient flows stop here by definition
  /// since nothing upstream depends on it).
  Var constant(double value) { return variable(value); }

  /// Record a node with one parent.
  Var node1(double value, std::int64_t parent, double partial);

  /// Record a node with two parents.
  Var node2(double value, std::int64_t pa, double wa, std::int64_t pb,
            double wb);

  /// Backward callback of a custom op: receives the tape (adjoints are live)
  /// and the index of the op's first output node.
  using CustomBackward = std::function<void(Tape&, std::int64_t out_start)>;

  /// Register a custom multi-output operation. `out_count` fresh leaf nodes
  /// are allocated (initialised with `out_values`); `backward` runs during
  /// the reverse sweep once all downstream adjoints have been accumulated,
  /// and must scatter the outputs' adjoints onto the operation's inputs via
  /// adjoint_ref(). Returns the index of the first output node.
  /// `saved_bytes` is what the backward callback holds on to (forward
  /// intermediates); memory_bytes() counts it.
  std::int64_t custom_op(const std::vector<double>& out_values,
                         CustomBackward backward, std::size_t saved_bytes = 0);

  /// Seed `root` with adjoint 1 and run the reverse sweep. May be called
  /// once per forward pass; call clear()/rewind() before reusing the tape.
  void backward(const Var& root);

  /// Value / adjoint accessors by node index.
  [[nodiscard]] double value(std::int64_t idx) const {
    UPDEC_ASSERT(idx >= 0 && static_cast<std::size_t>(idx) < val_.size());
    return val_[static_cast<std::size_t>(idx)];
  }
  [[nodiscard]] double adjoint(std::int64_t idx) const {
    UPDEC_REQUIRE(!adj_.empty(), "adjoint() before backward()");
    UPDEC_ASSERT(idx >= 0 && static_cast<std::size_t>(idx) < adj_.size());
    return adj_[static_cast<std::size_t>(idx)];
  }
  /// Mutable adjoint accumulator (for custom-op backward callbacks).
  double& adjoint_ref(std::int64_t idx) {
    UPDEC_ASSERT(idx >= 0 && static_cast<std::size_t>(idx) < adj_.size());
    return adj_[static_cast<std::size_t>(idx)];
  }

  /// Number of scalar nodes currently on the tape.
  [[nodiscard]] std::size_t size() const { return val_.size(); }

  /// Approximate tape memory footprint in bytes (Table 3 "Peak mem." probe).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Forget everything (keeps capacity for reuse across iterations).
  void clear();

  /// Checkpointing: remember the current size...
  [[nodiscard]] std::size_t mark() const { return val_.size(); }
  /// ...and drop every node recorded after `mark`. Vars taken after the
  /// mark become invalid. Custom ops recorded after the mark are dropped too.
  void rewind(std::size_t mark);

  /// Reserve capacity (avoids reallocation churn in long rollouts).
  void reserve(std::size_t nodes);

 private:
  struct CustomOp {
    std::int64_t out_start = 0;
    std::int64_t out_count = 0;
    CustomBackward backward;
  };

  std::vector<double> val_;
  std::vector<double> adj_;
  std::vector<std::int64_t> pa_, pb_;  // parent indices, -1 = none
  std::vector<double> wa_, wb_;        // local partials
  std::vector<CustomOp> custom_;
  std::vector<std::size_t> custom_saved_;  // saved_bytes per custom op
  std::size_t saved_bytes_ = 0;            // their sum
};

inline double Var::value() const {
  UPDEC_REQUIRE(tape_ != nullptr, "value() on null Var");
  return tape_->value(idx_);
}

inline double Var::adjoint() const {
  UPDEC_REQUIRE(tape_ != nullptr, "adjoint() on null Var");
  return tape_->adjoint(idx_);
}

}  // namespace updec::ad
