// Scenario B (§2, §5): the protocol the paper calls I_B.
//
// Repeatedly: remove one ball from a non-empty bin chosen i.u.r.
// (distribution ℬ(v) of Definition 3.3 — uniform over the s non-empty
// bins), then place a new ball with the scheduling rule.  With ABKU[d]
// this is I_B-ABKU[d]; with ADAP(x) it is I_B-ADAP(x).
//
// The paper finds this removal model genuinely harder than scenario A:
// Claim 5.3 gives τ(ε) = O(n m² ln ε⁻¹) via a simple path coupling, the
// (deferred) full version improves it to Õ(m²), and τ ≥ Ω(max(n·m, m²))
// for large m.
#pragma once

#include <utility>

#include "src/balls/load_vector.hpp"
#include "src/balls/rules.hpp"

namespace recover::balls {

template <typename Rule>
class ScenarioBChain {
 public:
  using State = LoadVector;

  ScenarioBChain(LoadVector init, Rule rule)
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

  /// One phase: remove via ℬ(v), insert via the rule.
  template <typename Engine>
  void step(Engine& eng) {
    const std::size_t i = state_.sample_nonempty_uniform(eng);
    state_.remove_at(i);
    ProbeFresh<Engine> probe(eng, state_.bins());
    state_.add_at(rule_.place_index(state_, probe));
  }

 private:
  LoadVector state_;
  Rule rule_;
};

/// Exact removal pmf of ℬ(v) over sorted indices (Definition 3.3):
/// p_i = 1/s for i < s, else 0.
std::vector<double> scenario_b_removal_pmf(const LoadVector& v);

}  // namespace recover::balls
