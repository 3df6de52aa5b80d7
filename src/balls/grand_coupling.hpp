// Grand couplings: full couplings of two copies of I_A / I_B from
// *arbitrary* state pairs, used to measure coalescence times.
//
// The Path Coupling Lemma only needs a coupling on adjacent pairs Γ; a
// simulation that starts two copies at extremal states needs a coupling
// defined everywhere.  We use the natural quantile couplings:
//
//   scenario A — draw one shared ball rank t uniform on [0, m) and remove
//     the bin holding the t-th ball (in sorted order) in each copy; each
//     marginal is exactly 𝒜(v).
//   scenario B — draw one shared quantile w uniform on [0, 1) and remove
//     bin ⌊w·s⌋ in a copy with s non-empty bins; each marginal is ℬ(v).
//
// Insertions share the probe sequence (Lemma 3.3), so once the copies
// meet they move identically forever; the first meeting time
// stochastically dominates the TV mixing behaviour and is the standard
// simulation-side estimate of the recovery time.  exp09 validates it
// against exact mixing times on small state spaces.
#pragma once

#include <utility>

#include "src/balls/coupling_common.hpp"
#include "src/rng/distributions.hpp"

namespace recover::balls {

template <typename Rule>
class GrandCouplingA {
 public:
  GrandCouplingA(LoadVector x, LoadVector y, Rule rule)
      : x_(std::move(x)), y_(std::move(y)), rule_(std::move(rule)) {
    RL_REQUIRE(x_.bins() == y_.bins());
    RL_REQUIRE(x_.balls() == y_.balls());
    RL_REQUIRE(x_.balls() > 0);
  }

  template <typename Engine>
  void step(Engine& eng) {
    const auto t = static_cast<std::int64_t>(rng::uniform_below(
        eng, static_cast<std::uint64_t>(x_.balls())));
    x_.remove_at(x_.ball_at_quantile(t));
    y_.remove_at(y_.ball_at_quantile(t));
    coupled_place(rule_, x_, y_, eng);
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

template <typename Rule>
class GrandCouplingB {
 public:
  GrandCouplingB(LoadVector x, LoadVector y, Rule rule)
      : x_(std::move(x)), y_(std::move(y)), rule_(std::move(rule)) {
    RL_REQUIRE(x_.bins() == y_.bins());
    RL_REQUIRE(x_.balls() == y_.balls());
    RL_REQUIRE(x_.balls() > 0);
  }

  template <typename Engine>
  void step(Engine& eng) {
    const double w = rng::uniform_real(eng);
    const auto pick = [w](const LoadVector& v) {
      const auto s = static_cast<double>(v.nonempty_count());
      auto i = static_cast<std::size_t>(w * s);
      if (i >= v.nonempty_count()) i = v.nonempty_count() - 1;
      return i;
    };
    x_.remove_at(pick(x_));
    y_.remove_at(pick(y_));
    coupled_place(rule_, x_, y_, eng);
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
