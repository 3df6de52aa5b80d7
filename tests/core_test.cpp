// Tests for the core path-coupling framework pieces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/balls/coupling_a.hpp"
#include "src/balls/grand_coupling.hpp"
#include "src/balls/random_states.hpp"
#include "src/balls/scenario_a.hpp"
#include "src/core/coalescence.hpp"
#include "src/core/contraction.hpp"
#include "src/core/path_coupling.hpp"
#include "src/core/recovery.hpp"
#include "src/rng/engines.hpp"

namespace recover::core {
namespace {

TEST(PathCouplingBounds, ContractiveCaseFormula) {
  // β = 1 − 1/m, D = m, ε: bound = ceil(ln(m/ε) · m).
  const double b = path_coupling_bound_contractive(1.0 - 1.0 / 64, 64, 0.25);
  EXPECT_DOUBLE_EQ(b, std::ceil(std::log(64 / 0.25) * 64));
}

TEST(PathCouplingBounds, MartingaleCaseFormula) {
  const double b = path_coupling_bound_martingale(1.0 / 3.0, 10, 0.25);
  EXPECT_DOUBLE_EQ(b, std::ceil(std::exp(1.0) * 100 * 3) *
                          std::ceil(std::log(4.0)));
}

TEST(PathCouplingBounds, Theorem1Instantiation) {
  EXPECT_DOUBLE_EQ(theorem1_bound(100, 0.25),
                   std::ceil(100 * std::log(400.0)));
  // Must equal the generic contractive bound with β = 1 − 1/m, D = m.
  EXPECT_DOUBLE_EQ(
      theorem1_bound(64, 0.125),
      path_coupling_bound_contractive(1.0 - 1.0 / 64, 64, 0.125));
}

TEST(PathCouplingBounds, MonotoneInParameters) {
  EXPECT_LT(path_coupling_bound_contractive(0.5, 16, 0.25),
            path_coupling_bound_contractive(0.9, 16, 0.25));
  EXPECT_LT(path_coupling_bound_contractive(0.5, 16, 0.25),
            path_coupling_bound_contractive(0.5, 1000, 0.25));
  EXPECT_LE(path_coupling_bound_martingale(0.5, 16, 0.25),
            path_coupling_bound_martingale(0.1, 16, 0.25));
  EXPECT_GT(corollary64_bound(32, 0.25), corollary64_bound(8, 0.25));
}

TEST(FirstSustainedEntry, FindsWindowedEntry) {
  const std::vector<double> series = {9, 8, 3, 9, 3, 3, 3, 2, 9};
  // Band [0,4], window 3: samples 4,5,6 qualify -> index 4.
  EXPECT_EQ(first_sustained_entry(series, 0, 4, 3), 4);
  // Window 1: first in-band sample is index 2.
  EXPECT_EQ(first_sustained_entry(series, 0, 4, 1), 2);
  // Window 5: never sustained.
  EXPECT_EQ(first_sustained_entry(series, 0, 4, 5), -1);
}

TEST(FirstSustainedEntry, EmptySeriesNeverRecovers) {
  EXPECT_EQ(first_sustained_entry({}, 0, 1, 1), -1);
}

TEST(RecordTrajectory, SamplesAtRequestedInterval) {
  balls::ScenarioAChain<balls::AbkuRule> chain(
      balls::LoadVector::all_in_one(8, 8), balls::AbkuRule(2));
  TrajectoryOptions opts;
  opts.max_steps = 100;
  opts.sample_interval = 10;
  const auto series = record_trajectory(
      chain,
      [](const auto& c) { return static_cast<double>(c.state().max_load()); },
      opts, 5);
  EXPECT_EQ(series.size(), 10u);
  // Max load starts at 8 and can only decrease by at most 1 per step.
  EXPECT_GE(series.front(), 1.0);
}

TEST(MeasureRecovery, CrashStateRecoversWithinTheoremBound) {
  const std::size_t n = 64;
  const auto m = static_cast<std::int64_t>(n);
  TrajectoryOptions opts;
  opts.max_steps =
      4 * static_cast<std::int64_t>(theorem1_bound(m, 0.25));
  opts.sample_interval = 4;
  const auto stats = measure_recovery(
      [&](int) {
        return balls::ScenarioAChain<balls::AbkuRule>(
            balls::LoadVector::all_in_one(n, m), balls::AbkuRule(2));
      },
      [](const auto& c) { return static_cast<double>(c.state().max_load()); },
      0.0, 5.0, 4, 8, opts, 17);
  EXPECT_EQ(stats.censored, 0);
  EXPECT_GT(stats.hitting_steps.mean(), 0.0);
  EXPECT_LT(stats.hitting_steps.mean(), static_cast<double>(opts.max_steps));
}

TEST(EstimateContraction, MatchesCorollary42OnScenarioA) {
  const std::size_t n = 8;
  const std::int64_t m = 16;
  const balls::AbkuRule rule(2);
  const auto estimate = estimate_contraction(
      [&](int p, rng::Xoshiro256PlusPlus& eng) {
        return balls::random_gamma_pair(n, m, eng, 1 + p % 3);
      },
      [&](std::pair<balls::LoadVector, balls::LoadVector>& pair,
          rng::Xoshiro256PlusPlus& eng) {
        return balls::coupled_step_a(pair.first, pair.second, rule, eng);
      },
      8, 3000, 21);
  ASSERT_EQ(estimate.pairs.size(), 8u);
  // β̂ ≤ 1 − 1/m up to MC slack; and the distance must change sometimes.
  EXPECT_LE(estimate.beta_hat, 1.0 - 1.0 / static_cast<double>(m) + 0.02);
  EXPECT_GT(estimate.alpha_hat, 0.0);
}

// Coalescence trials draw replica r from substream(seed, r), so the
// thread count cannot change a single meeting time.
std::vector<std::int64_t> coalescence_times(bool parallel) {
  CoalescenceOptions options;
  options.replicas = 8;
  options.seed = 404;
  options.max_steps = 20'000;
  options.check_interval = 64;
  options.parallel = parallel;
  return run_coalescence_trials(
      [](std::uint64_t) {
        return balls::GrandCouplingA<balls::AbkuRule>(
            balls::LoadVector::all_in_one(16, 32),
            balls::LoadVector::balanced(16, 32), balls::AbkuRule(2));
      },
      options);
}

TEST(CoalescenceByteIdentity, TrialsIdenticalAcrossThreadCounts) {
  const auto serial = coalescence_times(false);
  EXPECT_EQ(serial, coalescence_times(true));
  // The cell must actually measure something (not all censored).
  EXPECT_TRUE(std::any_of(serial.begin(), serial.end(),
                          [](std::int64_t t) { return t >= 0; }));
}

}  // namespace
}  // namespace recover::core
