// Placement scheduling rules: ABKU[d] (Azar–Broder–Karlin–Upfal) and the
// adaptive ADAP(x) rule of Czumaj–Stemann (§2 of the paper).
//
// Both rules are *right-oriented random functions* (Definition 3.4): their
// randomness is an explicit probe sequence b = (b₁, b₂, …) of i.u.r. sorted
// bin indices, and the placement is the deterministic function
//
//   D(v, b) = p(b)_j,   p(b)_t = max{b₁,…,b_t},
//   j = min{ t : x_{v[p(b)_t]} ≤ t }                      (formula (1))
//
// with x ≡ d for ABKU[d].  Lemma 3.4 shows this D is right-oriented with
// Φ_D = identity, so a coupling feeds the *same* probe sequence to both
// copies (Lemma 3.3) and the ‖·‖₁ distance cannot grow on placement.
//
// Under the normalized representation, b_t being a *sorted* index means a
// larger index has smaller-or-equal load, so "least loaded probe so far"
// is simply the running maximum index.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/balls/load_vector.hpp"
#include "src/rng/distributions.hpp"
#include "src/util/assert.hpp"

namespace recover::balls {

/// Lazily draws and memoizes the probe sequence b so a coupled step can
/// replay identical probes into both copies of the chain.  The first
/// kInline probes live in the memo itself, so ABKU[d ≤ kInline] never
/// allocates; only ADAP's longer sequences spill to the heap.
template <typename Engine>
class ProbeMemo {
 public:
  static constexpr std::size_t kInline = 8;

  ProbeMemo(Engine& eng, std::size_t n) : eng_(eng), n_(n) {}

  std::size_t operator()(std::size_t k) {
    while (drawn_ <= k) {
      const auto b = static_cast<std::size_t>(rng::uniform_below(eng_, n_));
      if (drawn_ < kInline) {
        inline_[drawn_] = b;
      } else {
        spill_.push_back(b);
      }
      ++drawn_;
    }
    return k < kInline ? inline_[k] : spill_[k - kInline];
  }

 private:
  Engine& eng_;
  std::size_t n_;
  std::size_t drawn_ = 0;
  // Left uninitialized: only slots below drawn_ are read, and each is
  // written when drawn.
  std::array<std::size_t, kInline> inline_;
  std::vector<std::size_t> spill_;
};

/// Fresh-draw probe source for uncoupled steps (no memoization cost).
template <typename Engine>
class ProbeFresh {
 public:
  ProbeFresh(Engine& eng, std::size_t n) : eng_(eng), n_(n) {}

  std::size_t operator()(std::size_t /*k*/) {
    return static_cast<std::size_t>(rng::uniform_below(eng_, n_));
  }

 private:
  Engine& eng_;
  std::size_t n_;
};

/// ABKU[d]: place into the least full of d bins chosen i.u.r. with
/// replacement.  d = 1 is the classical single-choice process.
class AbkuRule {
 public:
  explicit AbkuRule(int d) : d_(d) { RL_REQUIRE(d >= 1); }

  [[nodiscard]] int d() const { return d_; }

  /// Number of probes consumed is always exactly d.
  template <typename ProbeFn>
  std::size_t place_index(const LoadVector& v, ProbeFn&& probe) const {
    (void)v;
    std::size_t best = probe(0);
    for (int k = 1; k < d_; ++k) {
      const std::size_t b = probe(static_cast<std::size_t>(k));
      if (b > best) best = b;
    }
    return best;
  }

  /// Exact pmf of the placed sorted index: P(j) = ((j+1)/n)^d − (j/n)^d.
  [[nodiscard]] std::vector<double> placement_pmf(std::size_t n) const;

 private:
  int d_;
};

/// Non-decreasing threshold schedule x = (x₀, x₁, …) indexed by load;
/// values past the stored prefix clamp to the last stored threshold.
class ThresholdSchedule {
 public:
  explicit ThresholdSchedule(std::vector<int> thresholds)
      : x_(std::move(thresholds)) {
    RL_REQUIRE(!x_.empty());
    RL_REQUIRE(x_.front() >= 1);
    for (std::size_t i = 1; i < x_.size(); ++i) {
      RL_REQUIRE(x_[i] >= x_[i - 1]);
    }
  }

  /// Constant schedule x ≡ d (recovers ABKU[d]).
  static ThresholdSchedule constant(int d) {
    return ThresholdSchedule({d});
  }

  /// x_l = min(base + l * slope, cap): linearly growing patience.
  static ThresholdSchedule linear(int base, int slope, int cap);

  [[nodiscard]] int at(std::int64_t load) const {
    RL_DBG_ASSERT(load >= 0);
    const auto i = static_cast<std::size_t>(load);
    return i < x_.size() ? x_[i] : x_.back();
  }

  [[nodiscard]] const std::vector<int>& values() const { return x_; }

 private:
  std::vector<int> x_;
};

/// ADAP(x): probe bins one at a time, tracking the least-loaded probe so
/// far; stop as soon as the number of probes reaches the threshold for
/// that bin's load (low load ⇒ settle quickly, high load ⇒ keep probing).
class AdapRule {
 public:
  explicit AdapRule(ThresholdSchedule schedule)
      : x_(std::move(schedule)) {}

  [[nodiscard]] const ThresholdSchedule& schedule() const { return x_; }

  /// Exact pmf of the placed sorted index for the given state — the
  /// probe process is a Markov chain on (best index, probe count), so a
  /// short dynamic program over probe rounds computes the law exactly
  /// (rounds are bounded by the schedule's largest threshold).  Powers
  /// the exact-mixing validation of the adaptive rule.
  [[nodiscard]] std::vector<double> placement_pmf(const LoadVector& v) const;

  template <typename ProbeFn>
  std::size_t place_index(const LoadVector& v, ProbeFn&& probe) const {
    std::size_t best = probe(0);
    std::size_t m = 1;
    while (x_.at(v.load(best)) > static_cast<int>(m)) {
      // Probes never run forever: once m probes have been taken, the
      // running max index stochastically reaches the minimum-load run,
      // whose threshold is finite.
      const std::size_t b = probe(m);
      ++m;
      if (b > best) best = b;
      // Guard against pathological schedules on tiny n: after n·x_max
      // probes the best index is almost surely the global minimum; cap
      // hard at a generous bound so a misuse cannot hang.
      RL_DBG_ASSERT(m < 64 * (v.bins() + 4) *
                            static_cast<std::size_t>(x_.at(v.min_load())));
    }
    return best;
  }

 private:
  ThresholdSchedule x_;
};

}  // namespace recover::balls
