// Repeated Balls-into-Bins (RBB): the modern successor of the paper's
// Scenario A/B chains (see PAPERS.md).
//
// One round: every non-empty bin ejects one ball, then the s ejected
// balls re-enter one at a time through the placement rule.  With the
// uniform rule (ABKU[1]) this is the classical RBB process of Becchetti
// et al.; d >= 2 is the d-choice variant.  Two headline claims drive
// exp22/exp23:
//
//   * Cancrini–Posta, "Mixing time for the Repeated Balls-into-Bins
//     dynamics": for m = O(n) the chain mixes in O(n log n) rounds.
//   * Los–Sauerwald, "Tight Bounds for Repeated Balls-into-Bins": for
//     m = Θ(n) the stationary maximum load is Θ(log n), and the process
//     self-stabilizes from worst-case concentrated starts (the max load
//     of an adversarial pile decays to the typical band and stays there).
//
// The ejection is a deterministic function of the load *multiset*, so the
// normalized LoadVector state space still captures RBB exactly; the only
// randomness is the placement probe stream, drawn per round once the
// ejection has fixed the round length s.
#pragma once

#include <algorithm>
#include <utility>

#include "src/balls/coupling_common.hpp"
#include "src/balls/load_vector.hpp"
#include "src/balls/rules.hpp"

namespace recover::balls {

template <typename Rule>
class RBBChain {
 public:
  using State = LoadVector;

  RBBChain(LoadVector init, Rule rule)
      : state_(std::move(init)), rule_(std::move(rule)) {
    RL_REQUIRE(state_.balls() > 0);
  }

  [[nodiscard]] const LoadVector& state() const { return state_; }
  [[nodiscard]] LoadVector& mutable_state() { return state_; }
  void set_state(LoadVector s) {
    RL_REQUIRE(s.balls() == state_.balls());
    RL_REQUIRE(s.bins() == state_.bins());
    state_ = std::move(s);
  }

  [[nodiscard]] const Rule& rule() const { return rule_; }
  [[nodiscard]] std::size_t bins() const { return state_.bins(); }
  [[nodiscard]] std::int64_t balls() const { return state_.balls(); }

  /// One round: deterministic ejection, then s sequential re-placements
  /// (each sees the updated vector, like the sequential arrivals of the
  /// round in the source papers).
  template <typename Engine>
  void step(Engine& eng) {
    const std::size_t s = state_.eject_one_per_nonempty();
    for (std::size_t k = 0; k < s; ++k) {
      ProbeFresh<Engine> probe(eng, state_.bins());
      state_.add_at(rule_.place_index(state_, probe));
    }
  }

 private:
  LoadVector state_;
  Rule rule_;
};

/// Grand coupling of two RBB copies with equal bin and ball counts, for
/// the coalescence/recovery estimators.  The ejection halves are
/// deterministic; the placement halves share one probe sequence per ball
/// for the min(s_x, s_y) balls both copies re-place (Lemma 3.3 shared
/// probes, so equal copies stay equal forever), and the surplus copy's
/// extra balls draw fresh probes.  Each marginal is exactly the RBB law:
/// probes are i.u.r. either way, sharing only correlates the copies.
template <typename Rule>
class GrandCouplingRBB {
 public:
  GrandCouplingRBB(LoadVector x, LoadVector y, Rule rule)
      : x_(std::move(x)), y_(std::move(y)), rule_(std::move(rule)) {
    RL_REQUIRE(x_.bins() == y_.bins());
    RL_REQUIRE(x_.balls() == y_.balls());
    RL_REQUIRE(x_.balls() > 0);
  }

  template <typename Engine>
  void step(Engine& eng) {
    const std::size_t sx = x_.eject_one_per_nonempty();
    const std::size_t sy = y_.eject_one_per_nonempty();
    const std::size_t shared = std::min(sx, sy);
    for (std::size_t k = 0; k < shared; ++k) coupled_place(rule_, x_, y_, eng);
    LoadVector& longer = sx >= sy ? x_ : y_;
    for (std::size_t k = shared; k < std::max(sx, sy); ++k) {
      ProbeFresh<Engine> probe(eng, longer.bins());
      longer.add_at(rule_.place_index(longer, probe));
    }
  }

  [[nodiscard]] bool coalesced() const { return x_ == y_; }
  [[nodiscard]] std::int64_t distance() const { return x_.distance(y_); }
  [[nodiscard]] const LoadVector& first() const { return x_; }
  [[nodiscard]] const LoadVector& second() const { return y_; }

 private:
  LoadVector x_;
  LoadVector y_;
  Rule rule_;
};

}  // namespace recover::balls
