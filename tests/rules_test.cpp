#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/balls/coupling_common.hpp"
#include "src/balls/load_vector.hpp"
#include "src/balls/random_states.hpp"
#include "src/balls/rules.hpp"
#include "src/rng/engines.hpp"
#include "src/stats/summary.hpp"

namespace recover::balls {
namespace {

// A deterministic probe source for targeted rule tests.
class ScriptedProbes {
 public:
  explicit ScriptedProbes(std::vector<std::size_t> probes)
      : probes_(std::move(probes)) {}

  std::size_t operator()(std::size_t k) {
    EXPECT_LT(k, probes_.size());
    used_ = std::max(used_, k + 1);
    return probes_[k];
  }

  [[nodiscard]] std::size_t used() const { return used_; }

 private:
  std::vector<std::size_t> probes_;
  std::size_t used_ = 0;
};

TEST(AbkuRule, PlacesAtMaxProbedIndex) {
  const LoadVector v = LoadVector::from_loads({5, 3, 2, 1});
  AbkuRule rule(3);
  ScriptedProbes probes({1, 3, 0});
  EXPECT_EQ(rule.place_index(v, probes), 3u);
  EXPECT_EQ(probes.used(), 3u);
}

TEST(AbkuRule, SingleChoiceUsesFirstProbe) {
  const LoadVector v = LoadVector::from_loads({5, 3});
  AbkuRule rule(1);
  ScriptedProbes probes({1});
  EXPECT_EQ(rule.place_index(v, probes), 1u);
}

TEST(AbkuRule, PlacementPmfIsPowerLaw) {
  AbkuRule rule(2);
  const auto pmf = rule.placement_pmf(4);
  ASSERT_EQ(pmf.size(), 4u);
  double sum = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    const double jd = static_cast<double>(j);
    const double expect = std::pow((jd + 1) / 4.0, 2) - std::pow(jd / 4.0, 2);
    EXPECT_NEAR(pmf[j], expect, 1e-12);
    sum += pmf[j];
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(AbkuRule, EmpiricalPlacementMatchesPmf) {
  rng::Xoshiro256PlusPlus eng(13);
  const std::size_t n = 8;
  const LoadVector v = LoadVector::balanced(n, 8);
  AbkuRule rule(2);
  const auto pmf = rule.placement_pmf(n);
  std::vector<std::int64_t> counts(n, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    ProbeFresh<rng::Xoshiro256PlusPlus> probe(eng, n);
    ++counts[rule.place_index(v, probe)];
  }
  const double stat = stats::chi_square_statistic(counts, pmf);
  EXPECT_LT(stat, stats::chi_square_critical(static_cast<int>(n) - 1, 0.001));
}

TEST(ThresholdSchedule, ValidatesMonotonicity) {
  const ThresholdSchedule x({1, 2, 2, 5});
  EXPECT_EQ(x.at(0), 1);
  EXPECT_EQ(x.at(2), 2);
  EXPECT_EQ(x.at(3), 5);
  EXPECT_EQ(x.at(100), 5);  // clamps past the stored prefix
  EXPECT_DEATH(ThresholdSchedule({2, 1}), "");
  EXPECT_DEATH(ThresholdSchedule({0}), "");
}

TEST(ThresholdSchedule, ConstantRecoversAbku) {
  const ThresholdSchedule x = ThresholdSchedule::constant(3);
  EXPECT_EQ(x.at(0), 3);
  EXPECT_EQ(x.at(50), 3);
}

TEST(ThresholdSchedule, LinearRampRespectsCap) {
  const ThresholdSchedule x = ThresholdSchedule::linear(2, 1, 5);
  EXPECT_EQ(x.at(0), 2);
  EXPECT_EQ(x.at(1), 3);
  EXPECT_EQ(x.at(3), 5);
  EXPECT_EQ(x.at(10), 5);
}

TEST(AdapRule, StopsImmediatelyWhenThresholdIsOne) {
  // x ≡ 1: the first probe always wins regardless of load.
  const LoadVector v = LoadVector::from_loads({9, 9, 9});
  AdapRule rule{ThresholdSchedule::constant(1)};
  ScriptedProbes probes({0});
  EXPECT_EQ(rule.place_index(v, probes), 0u);
  EXPECT_EQ(probes.used(), 1u);
}

TEST(AdapRule, KeepsProbingUntilLoadThresholdSatisfied) {
  // Loads (5, 1, 0); x = (1, 2, 3, 3, 3, 3): a load-5 probe needs 3
  // probes, a load-1 probe needs 2, a load-0 probe wins after 1.
  const LoadVector v = LoadVector::from_loads({5, 1, 0});
  AdapRule rule{ThresholdSchedule({1, 2, 3, 3, 3, 3})};
  {
    // First probe hits the empty bin: done after one probe.
    ScriptedProbes probes({2});
    EXPECT_EQ(rule.place_index(v, probes), 2u);
    EXPECT_EQ(probes.used(), 1u);
  }
  {
    // First probe hits load 5 (needs 3 probes); second hits load 1
    // (threshold 2 <= 2 probes): stop at bin 1.
    ScriptedProbes probes({0, 1, 2});
    EXPECT_EQ(rule.place_index(v, probes), 1u);
    EXPECT_EQ(probes.used(), 2u);
  }
  {
    // Probes keep hitting the full bin; after 3 probes the threshold
    // x_5 = 3 is met and the ball settles there.
    ScriptedProbes probes({0, 0, 0});
    EXPECT_EQ(rule.place_index(v, probes), 0u);
    EXPECT_EQ(probes.used(), 3u);
  }
}

TEST(AdapRule, MatchesAbkuWhenConstant) {
  // ADAP with x ≡ d consumes exactly d probes and picks their max.
  rng::Xoshiro256PlusPlus eng(47);
  const LoadVector v = random_load_vector(10, 30, eng, 2);
  AdapRule adap{ThresholdSchedule::constant(3)};
  AbkuRule abku(3);
  for (int rep = 0; rep < 200; ++rep) {
    std::vector<std::size_t> script;
    for (int k = 0; k < 3; ++k) {
      script.push_back(
          static_cast<std::size_t>(rng::uniform_below(eng, 10)));
    }
    ScriptedProbes p1(script), p2(script);
    EXPECT_EQ(adap.place_index(v, p1), abku.place_index(v, p2));
  }
}

TEST(AdapRule, PlacementPmfMatchesSimulation) {
  // The DP over probe rounds must agree with the empirical law of the
  // executable rule.
  rng::Xoshiro256PlusPlus eng(71);
  const LoadVector v = LoadVector::from_loads({5, 3, 3, 1, 0, 0});
  const AdapRule rule{ThresholdSchedule({1, 2, 2, 4, 4, 4})};
  const auto pmf = rule.placement_pmf(v);
  ASSERT_EQ(pmf.size(), v.bins());
  double sum = 0;
  for (const double p : pmf) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  std::vector<std::int64_t> counts(v.bins(), 0);
  constexpr int kSamples = 120000;
  for (int i = 0; i < kSamples; ++i) {
    ProbeFresh<rng::Xoshiro256PlusPlus> probe(eng, v.bins());
    ++counts[rule.place_index(v, probe)];
  }
  const double stat = stats::chi_square_statistic(counts, pmf);
  EXPECT_LT(stat, stats::chi_square_critical(
                      static_cast<int>(v.bins()) - 1, 0.001));
}

TEST(AdapRule, PlacementPmfReducesToAbkuForConstantSchedule) {
  const LoadVector v = LoadVector::from_loads({4, 2, 1, 1});
  const AdapRule adap{ThresholdSchedule::constant(3)};
  const AbkuRule abku(3);
  const auto adap_pmf = adap.placement_pmf(v);
  const auto abku_pmf = abku.placement_pmf(v.bins());
  for (std::size_t j = 0; j < v.bins(); ++j) {
    EXPECT_NEAR(adap_pmf[j], abku_pmf[j], 1e-12) << "index " << j;
  }
}

TEST(AdapRule, PlacementPmfFavorsEmptyBinsUnderSteepSchedule) {
  // With x = (1, 4, 4, ...) an empty probe wins instantly while loaded
  // bins need 4 probes: mass concentrates on the empty suffix far above
  // the single-probe baseline 1/n.
  const LoadVector v = LoadVector::from_loads({3, 3, 3, 0, 0, 0});
  const AdapRule rule{ThresholdSchedule({1, 4, 4, 4})};
  const auto pmf = rule.placement_pmf(v);
  const double empty_mass = pmf[3] + pmf[4] + pmf[5];
  EXPECT_GT(empty_mass, 0.8);
}

TEST(ProbeMemo, CoupledPlacementPastTheInlineSlots) {
  // ADAP with x ≡ 12 draws exactly 12 probes per placement, so the memo
  // spills past its inline slots.  The spilled probes must replay into
  // the second copy like the inline ones, and each must be drawn once:
  // both copies land where ABKU[12] puts the same 12 fresh draws, and
  // the engines agree afterwards.
  static_assert(ProbeMemo<rng::Xoshiro256PlusPlus>::kInline < 12);
  rng::Xoshiro256PlusPlus eng(2024);
  const AdapRule adap{ThresholdSchedule::constant(12)};
  const AbkuRule abku(12);
  for (int rep = 0; rep < 50; ++rep) {
    LoadVector v = random_load_vector(16, 40, eng, 2);
    LoadVector u = random_load_vector(16, 40, eng, 1);
    rng::Xoshiro256PlusPlus fresh_eng = eng;
    ProbeFresh<rng::Xoshiro256PlusPlus> fresh(fresh_eng, v.bins());
    const std::size_t index = abku.place_index(v, fresh);
    LoadVector v_want = v;
    LoadVector u_want = u;
    const std::pair<std::size_t, std::size_t> want = {v_want.add_at(index),
                                                      u_want.add_at(index)};
    EXPECT_EQ(coupled_place(adap, v, u, eng), want);
    EXPECT_EQ(v, v_want);
    EXPECT_EQ(u, u_want);
    EXPECT_EQ(eng(), fresh_eng());
  }
}

// Right-orientedness (Definition 3.4 via Lemma 3.3): with the SAME probe
// sequence, placement into two states never increases ‖v − u‖₁.
class RightOrientedTest : public ::testing::TestWithParam<int> {};

TEST_P(RightOrientedTest, SharedProbesNeverExpandL1) {
  const int d = GetParam();
  rng::Xoshiro256PlusPlus eng(97 + static_cast<std::uint64_t>(d));
  AbkuRule abku(d);
  AdapRule adap{ThresholdSchedule::linear(1, 1, d + 2)};
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t n = 3 + static_cast<std::size_t>(rep % 12);
    const auto m = static_cast<std::int64_t>(1 + rep % 40);
    LoadVector v = random_load_vector(n, m, eng, 1 + rep % 3);
    LoadVector u = random_load_vector(n, m, eng, 1 + rep % 2);
    const std::int64_t before = v.l1_distance(u);
    // Shared probe script long enough for both rules.
    std::vector<std::size_t> script;
    for (int k = 0; k < 64; ++k) {
      script.push_back(static_cast<std::size_t>(rng::uniform_below(eng, n)));
    }
    {
      LoadVector v2 = v, u2 = u;
      ScriptedProbes p1(script), p2(script);
      v2.add_at(abku.place_index(v2, p1));
      u2.add_at(abku.place_index(u2, p2));
      EXPECT_LE(v2.l1_distance(u2), before) << "ABKU expansion";
    }
    {
      LoadVector v2 = v, u2 = u;
      ScriptedProbes p1(script), p2(script);
      v2.add_at(adap.place_index(v2, p1));
      u2.add_at(adap.place_index(u2, p2));
      EXPECT_LE(v2.l1_distance(u2), before) << "ADAP expansion";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Choices, RightOrientedTest,
                         ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace recover::balls
