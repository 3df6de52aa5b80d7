// Scenario A (§2, §4): the protocol the paper calls I_A.
//
// Repeatedly: remove a ball chosen i.u.r. among the m balls in the system
// (bin i loses a ball with probability v_i / m — distribution 𝒜(v) of
// Definition 3.2), then place a new ball with the scheduling rule.
// With rule ABKU[d] this is I_A-ABKU[d] (the Azar et al. dynamic process);
// with ADAP(x) it is I_A-ADAP(x).
//
// Theorem 1: for any right-oriented rule, τ(ε) ≤ ⌈m ln(m ε⁻¹)⌉, and the
// bound is tight up to lower-order terms.
#pragma once

#include <utility>

#include "src/balls/load_vector.hpp"
#include "src/balls/rules.hpp"

namespace recover::balls {

template <typename Rule>
class ScenarioAChain {
 public:
  using State = LoadVector;

  ScenarioAChain(LoadVector init, Rule rule)
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

  /// One phase: remove via 𝒜(v), insert via the rule.
  template <typename Engine>
  void step(Engine& eng) {
    const std::size_t i = state_.sample_ball_weighted(eng);
    state_.remove_at(i);
    ProbeFresh<Engine> probe(eng, state_.bins());
    state_.add_at(rule_.place_index(state_, probe));
  }

 private:
  LoadVector state_;
  Rule rule_;
};

/// Exact removal pmf of 𝒜(v) over sorted indices (Definition 3.2):
/// p_i = v_i / m.  Used by the exact-mixing validation harness.
std::vector<double> scenario_a_removal_pmf(const LoadVector& v);

}  // namespace recover::balls
