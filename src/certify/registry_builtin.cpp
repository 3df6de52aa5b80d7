// Built-in ChainModel records: every chain family in the tree registers
// here, which is what makes the conformance suite (properties.cpp) and
// the certify_runner cover the whole repo by iterating one registry.
//
// Exact models are deliberately the INDEPENDENT implementations: the
// balls chains check their samplers against the enumerated
// PartitionSpace transition matrix, the labeled oracles check against
// the same matrix (so normalized and labeled dynamics are pinned to one
// law), the orientation chain against its BFS-enumerated space, and the
// open systems against a direct branch-by-branch pmf computed right here
// — the first exact model the open chains have had.

#include <algorithm>
#include <map>
#include <optional>
#include <utility>

#include "src/balls/exact_chain.hpp"
#include "src/balls/grand_coupling.hpp"
#include "src/balls/labeled.hpp"
#include "src/balls/rbb.hpp"
#include "src/balls/scenario_a.hpp"
#include "src/balls/scenario_b.hpp"
#include "src/certify/model.hpp"
#include "src/open/bounded_chain.hpp"
#include "src/open/open_chain.hpp"
#include "src/orient/chain.hpp"
#include "src/orient/exact_chain.hpp"
#include "src/util/assert.hpp"

namespace recover::certify {

namespace {

using balls::AbkuRule;
using balls::AdapRule;
using balls::LoadVector;
using balls::PartitionSpace;
using balls::RemovalKind;
using balls::ThresholdSchedule;

LoadVector lv_of(const std::string& key) {
  return LoadVector::from_loads(values_of(key));
}

std::string key_lv(const LoadVector& v) { return key_of(v.loads()); }

/// ADAP schedule used by the adaptive models: thresholds 1,2,3,... capped
/// at d+1, so the rule is genuinely state-dependent at every instance.
ThresholdSchedule adap_schedule(const Instance& in) {
  return ThresholdSchedule::linear(1, 1, in.d + 1);
}

/// Balanced, all-in-one, and a two-bin pile — distinct corners of Ω_m.
std::vector<std::string> balls_starts(const Instance& in) {
  std::vector<std::string> starts;
  const auto push = [&starts](const LoadVector& v) {
    std::string key = key_lv(v);
    if (std::find(starts.begin(), starts.end(), key) == starts.end()) {
      starts.push_back(std::move(key));
    }
  };
  push(LoadVector::balanced(in.n, in.m));
  push(LoadVector::all_in_one(in.n, in.m));
  push(LoadVector::piled(in.n, in.m, std::min<std::size_t>(2, in.n)));
  return starts;
}

/// Exact one-step law of the ABKU balls chains via the enumerated
/// partition space (src/balls/exact_chain.*) — independent of every
/// sampler code path.
StepLaw balls_exact_law(const Instance& in, const std::string& start,
                        RemovalKind removal) {
  PartitionSpace space(in.n, in.m);
  const core::SparseChain chain =
      balls::build_exact_chain(space, removal, AbkuRule(in.d));
  const std::size_t i = space.index_of(lv_of(start));
  StepLaw law;
  for (const auto& [j, p] : chain.row(i)) {
    law.emplace_back(key_of(space.state(j)), p);
  }
  return law;
}

StepLaw adap_exact_law(const Instance& in, const std::string& start,
                       RemovalKind removal) {
  PartitionSpace space(in.n, in.m);
  const AdapRule rule(adap_schedule(in));
  const core::SparseChain chain = balls::build_exact_chain_general(
      space, removal,
      [&rule](const LoadVector& v) { return rule.placement_pmf(v); });
  const std::size_t i = space.index_of(lv_of(start));
  StepLaw law;
  for (const auto& [j, p] : chain.row(i)) {
    law.emplace_back(key_of(space.state(j)), p);
  }
  return law;
}

/// v ⪯ w in the majorization order (both normalized, equal totals).
bool majorized_by(const LoadVector& v, const LoadVector& w) {
  std::int64_t pv = 0;
  std::int64_t pw = 0;
  for (std::size_t i = 0; i < v.bins(); ++i) {
    pv += v.load(i);
    pw += w.load(i);
    if (pv > pw) return false;
  }
  return true;
}

/// A state strictly between the extremes: a few warm-up steps from
/// balanced.  Any state works — all_in_one / balanced are the order
/// maximum / minimum of Ω_m.
template <typename Chain>
LoadVector warm_mid_state(Chain&& chain, std::uint64_t seed) {
  rng::Xoshiro256PlusPlus eng(seed);
  for (int t = 0; t < 16; ++t) chain.step(eng);
  return chain.state();
}

/// The majorization-sandwich invariant CFTP rests on (src/core/cftp.hpp):
/// run TWO couplings — (top, mid) and (mid, bottom) — on identical
/// engine streams.  Every draw of a coupled step is a deterministic
/// function of the engine words, and both couplings consume words
/// identically (same uniform bounds, ABKU consumes exactly d probes), so
/// the two mid copies must stay in lockstep; on top of that the
/// majorization order must be preserved at every step.
template <typename Coupling, typename Chain>
bool sandwich_invariant(const Instance& in, std::uint64_t seed,
                        std::int64_t steps, std::string* diag) {
  const LoadVector top = LoadVector::all_in_one(in.n, in.m);
  const LoadVector bottom = LoadVector::balanced(in.n, in.m);
  const LoadVector mid = warm_mid_state(Chain(bottom, AbkuRule(in.d)),
                                        rng::substream(seed, 0xA11));
  Coupling high(top, mid, AbkuRule(in.d));
  Coupling low(mid, bottom, AbkuRule(in.d));
  rng::Xoshiro256PlusPlus eng_high(rng::substream(seed, 1));
  rng::Xoshiro256PlusPlus eng_low = eng_high;
  for (std::int64_t t = 0; t < steps; ++t) {
    high.step(eng_high);
    low.step(eng_low);
    if (!(high.second() == low.first())) {
      *diag = "mid copies diverged at step " + std::to_string(t) +
              " (couplings consumed different randomness)";
      return false;
    }
    if (!majorized_by(high.second(), high.first()) ||
        !majorized_by(low.second(), low.first())) {
      *diag = "majorization order violated at step " + std::to_string(t);
      return false;
    }
  }
  return true;
}

/// Direct exact one-round law of the RBB dynamics: the ejection is a
/// deterministic map, and each of the s re-placements expands the
/// support through the state-independent ABKU pmf formula
/// P(j) = ((j+1)/n)^d − (j/n)^d — independent of the sampler's probe
/// path, so sampler bugs cannot hide in a shared code path.
StepLaw rbb_exact_law(const Instance& in, const std::string& start) {
  LoadVector v = lv_of(start);
  const std::size_t s = v.eject_one_per_nonempty();
  const std::vector<double> pmf = AbkuRule(in.d).placement_pmf(in.n);
  std::map<std::string, double> acc;
  acc[key_lv(v)] = 1.0;
  for (std::size_t ball = 0; ball < s; ++ball) {
    std::map<std::string, double> next_acc;
    for (const auto& [key, p] : acc) {
      const LoadVector state = lv_of(key);
      for (std::size_t j = 0; j < pmf.size(); ++j) {
        if (pmf[j] <= 0.0) continue;
        LoadVector next = state;
        next.add_at(j);
        next_acc[key_lv(next)] += p * pmf[j];
      }
    }
    acc = std::move(next_acc);
  }
  StepLaw law;
  for (auto& [key, p] : acc) law.emplace_back(key, p);
  return law;
}

/// Direct exact one-step law of the open / bounded-open systems.  The
/// step structure mirrors open_chain.hpp / bounded_chain.hpp branch for
/// branch: with probability ½ insert (ABKU pmf, state-independent;
/// rejected as a no-op at capacity), otherwise remove ball-weighted
/// (no-op on an empty system).
StepLaw open_exact_law(const Instance& in, const std::string& start,
                       std::optional<std::int64_t> capacity) {
  const double insert_p = 0.5;
  const LoadVector v = lv_of(start);
  const std::int64_t m = v.balls();
  std::map<std::string, double> acc;
  // Insert branch.
  if (capacity.has_value() && m >= *capacity) {
    acc[key_lv(v)] += insert_p;
  } else {
    const std::vector<double> pmf = AbkuRule(in.d).placement_pmf(in.n);
    for (std::size_t j = 0; j < pmf.size(); ++j) {
      if (pmf[j] <= 0.0) continue;
      LoadVector next = v;
      next.add_at(j);
      acc[key_lv(next)] += insert_p * pmf[j];
    }
  }
  // Removal branch.
  if (m == 0) {
    acc[key_lv(v)] += 1.0 - insert_p;
  } else {
    for (std::size_t i = 0; i < v.bins(); ++i) {
      if (v.load(i) <= 0) continue;
      LoadVector next = v;
      next.remove_at(i);
      acc[key_lv(next)] += (1.0 - insert_p) * static_cast<double>(v.load(i)) /
                           static_cast<double>(m);
    }
  }
  StepLaw law;
  for (auto& [key, p] : acc) law.emplace_back(key, p);
  return law;
}

std::vector<std::string> open_starts(const Instance& in) {
  std::vector<std::string> starts;
  starts.push_back(key_lv(LoadVector(in.n)));  // empty system
  starts.push_back(key_lv(LoadVector::balanced(in.n, in.m)));
  starts.push_back(key_lv(LoadVector::all_in_one(in.n, in.m)));
  return starts;
}

std::vector<std::string> orient_starts(const Instance& in) {
  const orient::OrientationSpace space(in.n);
  std::vector<std::string> starts;
  const auto push = [&starts](const orient::DiffState& s) {
    std::string key = key_of(s.diffs());
    if (std::find(starts.begin(), starts.end(), key) == starts.end()) {
      starts.push_back(std::move(key));
    }
  };
  push(space.state(space.zero_index()));
  push(space.state(space.most_unfair_index()));
  push(space.state(space.size() / 2));
  return starts;
}

/// n is recovered from the key (one difference per vertex), so the law
/// matches whatever instance produced the start state.
StepLaw orient_exact_law(const std::string& start) {
  const orient::DiffState state =
      orient::DiffState::from_diffs(values_of(start));
  const orient::OrientationSpace space(state.vertices());
  const core::SparseChain chain =
      orient::build_exact_orientation_chain(space);
  const std::size_t i = space.index_of(state);
  StepLaw law;
  for (const auto& [j, p] : chain.row(i)) {
    law.emplace_back(key_of(space.state(j).diffs()), p);
  }
  return law;
}

template <typename Chain>
bool load_vector_invariant(const Instance& in, std::uint64_t seed,
                           std::int64_t steps, std::string* diag,
                           Chain&& chain, bool fixed_ball_count,
                           std::int64_t capacity) {
  rng::Xoshiro256PlusPlus eng(seed);
  for (std::int64_t t = 0; t < steps; ++t) {
    chain.step(eng);
    const LoadVector& v = chain.state();
    if (!v.invariants_hold()) {
      *diag = "state invariants broken at step " + std::to_string(t);
      return false;
    }
    if (fixed_ball_count && v.balls() != in.m) {
      *diag = "ball count drifted at step " + std::to_string(t);
      return false;
    }
    if (capacity >= 0 && v.balls() > capacity) {
      *diag = "capacity exceeded at step " + std::to_string(t);
      return false;
    }
  }
  return true;
}

void register_scenario_models(ModelRegistry& registry) {
  {
    ChainModel m;
    m.name = "scenario_a";
    m.family = "balls";
    m.starts = balls_starts;
    m.exact_step = [](const Instance& in, const std::string& s) {
      return balls_exact_law(in, s, RemovalKind::kBallWeighted);
    };
    m.sample_step = [](const Instance& in, const std::string& s,
                       rng::Xoshiro256PlusPlus& eng) {
      balls::ScenarioAChain<AbkuRule> chain(lv_of(s), AbkuRule(in.d));
      chain.step(eng);
      return key_lv(chain.state());
    };
    m.invariant_name = "normalized_state";
    m.invariant_run = [](const Instance& in, std::uint64_t seed,
                         std::int64_t steps, std::string* diag) {
      return load_vector_invariant(
          in, seed, steps, diag,
          balls::ScenarioAChain<AbkuRule>(LoadVector::all_in_one(in.n, in.m),
                                          AbkuRule(in.d)),
          /*fixed_ball_count=*/true, /*capacity=*/-1);
    };
    registry.add(std::move(m));
  }
  {
    ChainModel m;
    m.name = "scenario_b";
    m.family = "balls";
    m.starts = balls_starts;
    m.exact_step = [](const Instance& in, const std::string& s) {
      return balls_exact_law(in, s, RemovalKind::kNonEmptyUniform);
    };
    m.sample_step = [](const Instance& in, const std::string& s,
                       rng::Xoshiro256PlusPlus& eng) {
      balls::ScenarioBChain<AbkuRule> chain(lv_of(s), AbkuRule(in.d));
      chain.step(eng);
      return key_lv(chain.state());
    };
    m.invariant_name = "normalized_state";
    m.invariant_run = [](const Instance& in, std::uint64_t seed,
                         std::int64_t steps, std::string* diag) {
      return load_vector_invariant(
          in, seed, steps, diag,
          balls::ScenarioBChain<AbkuRule>(LoadVector::all_in_one(in.n, in.m),
                                          AbkuRule(in.d)),
          /*fixed_ball_count=*/true, /*capacity=*/-1);
    };
    registry.add(std::move(m));
  }
  {
    ChainModel m;
    m.name = "scenario_a_adap";
    m.family = "balls";
    m.starts = balls_starts;
    m.exact_step = [](const Instance& in, const std::string& s) {
      return adap_exact_law(in, s, RemovalKind::kBallWeighted);
    };
    m.sample_step = [](const Instance& in, const std::string& s,
                       rng::Xoshiro256PlusPlus& eng) {
      balls::ScenarioAChain<AdapRule> chain(lv_of(s),
                                            AdapRule(adap_schedule(in)));
      chain.step(eng);
      return key_lv(chain.state());
    };
    registry.add(std::move(m));
  }
  {
    ChainModel m;
    m.name = "labeled_a";
    m.family = "balls";
    m.starts = balls_starts;
    // The labeled oracle must follow the SAME exact law as the
    // normalized chain — the paper's "bin order is insignificant",
    // checked as a property.
    m.exact_step = [](const Instance& in, const std::string& s) {
      return balls_exact_law(in, s, RemovalKind::kBallWeighted);
    };
    m.sample_step = [](const Instance& in, const std::string& s,
                       rng::Xoshiro256PlusPlus& eng) {
      balls::LabeledScenarioA chain(balls::LabeledState::from_loads(values_of(s)),
                                    in.d);
      chain.step(eng);
      return key_lv(chain.state().normalized());
    };
    registry.add(std::move(m));
  }
  {
    ChainModel m;
    m.name = "labeled_b";
    m.family = "balls";
    m.starts = balls_starts;
    m.exact_step = [](const Instance& in, const std::string& s) {
      return balls_exact_law(in, s, RemovalKind::kNonEmptyUniform);
    };
    m.sample_step = [](const Instance& in, const std::string& s,
                       rng::Xoshiro256PlusPlus& eng) {
      balls::LabeledScenarioB chain(balls::LabeledState::from_loads(values_of(s)),
                                    in.d);
      chain.step(eng);
      return key_lv(chain.state().normalized());
    };
    registry.add(std::move(m));
  }
  {
    ChainModel m;
    m.name = "rbb";
    m.family = "balls";
    m.starts = balls_starts;
    m.exact_step = rbb_exact_law;
    m.sample_step = [](const Instance& in, const std::string& s,
                       rng::Xoshiro256PlusPlus& eng) {
      balls::RBBChain<AbkuRule> chain(lv_of(s), AbkuRule(in.d));
      chain.step(eng);
      return key_lv(chain.state());
    };
    m.invariant_name = "normalized_state";
    m.invariant_run = [](const Instance& in, std::uint64_t seed,
                         std::int64_t steps, std::string* diag) {
      return load_vector_invariant(
          in, seed, steps, diag,
          balls::RBBChain<AbkuRule>(LoadVector::all_in_one(in.n, in.m),
                                    AbkuRule(in.d)),
          /*fixed_ball_count=*/true, /*capacity=*/-1);
    };
    registry.add(std::move(m));
  }
}

void register_coupling_models(ModelRegistry& registry) {
  {
    ChainModel m;
    m.name = "grand_coupling_a";
    m.family = "coupling";
    m.starts = balls_starts;
    m.exact_step = [](const Instance& in, const std::string& s) {
      return balls_exact_law(in, s, RemovalKind::kBallWeighted);
    };
    m.coupled_step = [](const Instance& in, const std::string& sx,
                        const std::string& sy, rng::Xoshiro256PlusPlus& eng) {
      balls::GrandCouplingA<AbkuRule> c(lv_of(sx), lv_of(sy), AbkuRule(in.d));
      c.step(eng);
      return std::make_pair(key_lv(c.first()), key_lv(c.second()));
    };
    m.invariant_name = "majorization_sandwich";
    m.invariant_run = [](const Instance& in, std::uint64_t seed,
                         std::int64_t steps, std::string* diag) {
      return sandwich_invariant<balls::GrandCouplingA<AbkuRule>,
                                balls::ScenarioAChain<AbkuRule>>(in, seed,
                                                                 steps, diag);
    };
    registry.add(std::move(m));
  }
  {
    ChainModel m;
    m.name = "grand_coupling_b";
    m.family = "coupling";
    m.starts = balls_starts;
    m.exact_step = [](const Instance& in, const std::string& s) {
      return balls_exact_law(in, s, RemovalKind::kNonEmptyUniform);
    };
    m.coupled_step = [](const Instance& in, const std::string& sx,
                        const std::string& sy, rng::Xoshiro256PlusPlus& eng) {
      balls::GrandCouplingB<AbkuRule> c(lv_of(sx), lv_of(sy), AbkuRule(in.d));
      c.step(eng);
      return std::make_pair(key_lv(c.first()), key_lv(c.second()));
    };
    m.invariant_name = "majorization_sandwich";
    m.invariant_run = [](const Instance& in, std::uint64_t seed,
                         std::int64_t steps, std::string* diag) {
      return sandwich_invariant<balls::GrandCouplingB<AbkuRule>,
                                balls::ScenarioBChain<AbkuRule>>(in, seed,
                                                                 steps, diag);
    };
    registry.add(std::move(m));
  }
  {
    ChainModel m;
    m.name = "grand_coupling_rbb";
    m.family = "coupling";
    m.starts = balls_starts;
    m.exact_step = rbb_exact_law;
    m.coupled_step = [](const Instance& in, const std::string& sx,
                        const std::string& sy, rng::Xoshiro256PlusPlus& eng) {
      balls::GrandCouplingRBB<AbkuRule> c(lv_of(sx), lv_of(sy),
                                          AbkuRule(in.d));
      c.step(eng);
      return std::make_pair(key_lv(c.first()), key_lv(c.second()));
    };
    // No majorization-sandwich invariant: RBB is famously non-monotone,
    // and its per-round word consumption depends on the copies' nonempty
    // counts, so two couplings on one engine stream need not stay in
    // lockstep.  Absorption + marginal faithfulness are still covered by
    // the generic coupling properties.
    registry.add(std::move(m));
  }
}

void register_orient_models(ModelRegistry& registry) {
  {
    ChainModel m;
    m.name = "orientation";
    m.family = "orient";
    m.n_min = 2;
    m.n_max = 5;
    m.m_min = 0;
    m.m_max = 0;  // no ball count
    m.d_min = 1;
    m.d_max = 1;  // no probe count
    m.starts = orient_starts;
    m.exact_step = [](const Instance&, const std::string& s) {
      return orient_exact_law(s);
    };
    m.sample_step = [](const Instance&, const std::string& s,
                       rng::Xoshiro256PlusPlus& eng) {
      orient::DiffState state = orient::DiffState::from_diffs(values_of(s));
      state.step(eng);
      return key_of(state.diffs());
    };
    m.invariant_name = "zero_sum_sorted";
    m.invariant_run = [](const Instance& in, std::uint64_t seed,
                         std::int64_t steps, std::string* diag) {
      orient::DiffState state(in.n);
      rng::Xoshiro256PlusPlus eng(seed);
      for (std::int64_t t = 0; t < steps; ++t) {
        state.step(eng);
        if (!state.invariants_hold()) {
          *diag = "diff-state invariants broken at step " + std::to_string(t);
          return false;
        }
      }
      return true;
    };
    registry.add(std::move(m));
  }
  {
    ChainModel m;
    m.name = "orientation_coupling";
    m.family = "coupling";
    m.n_min = 2;
    m.n_max = 5;
    m.m_min = 0;
    m.m_max = 0;
    m.d_min = 1;
    m.d_max = 1;
    m.starts = orient_starts;
    m.exact_step = [](const Instance&, const std::string& s) {
      return orient_exact_law(s);
    };
    m.coupled_step = [](const Instance&, const std::string& sx,
                        const std::string& sy, rng::Xoshiro256PlusPlus& eng) {
      orient::GrandCouplingOrient c(orient::DiffState::from_diffs(values_of(sx)),
                                    orient::DiffState::from_diffs(values_of(sy)));
      c.step(eng);
      return std::make_pair(key_of(c.first().diffs()),
                            key_of(c.second().diffs()));
    };
    registry.add(std::move(m));
  }
}

void register_open_models(ModelRegistry& registry) {
  // The bounded system's capacity: the instance's m doubles as the cap,
  // so the all-in-one start sits exactly at capacity and the insert-
  // rejection branch gets exercised.
  const auto capacity_of = [](const Instance& in) { return in.m; };
  {
    ChainModel m;
    m.name = "open";
    m.family = "open";
    m.starts = open_starts;
    m.exact_step = [](const Instance& in, const std::string& s) {
      return open_exact_law(in, s, std::nullopt);
    };
    m.sample_step = [](const Instance& in, const std::string& s,
                       rng::Xoshiro256PlusPlus& eng) {
      open::OpenChain<AbkuRule> chain(lv_of(s), AbkuRule(in.d));
      chain.step(eng);
      return key_lv(chain.state());
    };
    m.invariant_name = "normalized_state";
    m.invariant_run = [](const Instance& in, std::uint64_t seed,
                         std::int64_t steps, std::string* diag) {
      return load_vector_invariant(
          in, seed, steps, diag,
          open::OpenChain<AbkuRule>(LoadVector(in.n), AbkuRule(in.d)),
          /*fixed_ball_count=*/false, /*capacity=*/-1);
    };
    registry.add(std::move(m));
  }
  {
    ChainModel m;
    m.name = "open_coupling";
    m.family = "coupling";
    m.starts = open_starts;
    m.exact_step = [](const Instance& in, const std::string& s) {
      return open_exact_law(in, s, std::nullopt);
    };
    m.coupled_step = [](const Instance& in, const std::string& sx,
                        const std::string& sy, rng::Xoshiro256PlusPlus& eng) {
      open::OpenGrandCoupling<AbkuRule> c(lv_of(sx), lv_of(sy),
                                          AbkuRule(in.d));
      c.step(eng);
      return std::make_pair(key_lv(c.first()), key_lv(c.second()));
    };
    registry.add(std::move(m));
  }
  {
    ChainModel m;
    m.name = "bounded_open";
    m.family = "open";
    m.starts = open_starts;
    m.exact_step = [capacity_of](const Instance& in, const std::string& s) {
      return open_exact_law(in, s, capacity_of(in));
    };
    m.sample_step = [capacity_of](const Instance& in, const std::string& s,
                                  rng::Xoshiro256PlusPlus& eng) {
      open::BoundedOpenChain<AbkuRule> chain(lv_of(s), AbkuRule(in.d),
                                             capacity_of(in));
      chain.step(eng);
      return key_lv(chain.state());
    };
    m.invariant_name = "capacity_bound";
    m.invariant_run = [capacity_of](const Instance& in, std::uint64_t seed,
                                    std::int64_t steps, std::string* diag) {
      return load_vector_invariant(
          in, seed, steps, diag,
          open::BoundedOpenChain<AbkuRule>(LoadVector(in.n), AbkuRule(in.d),
                                           capacity_of(in)),
          /*fixed_ball_count=*/false, capacity_of(in));
    };
    registry.add(std::move(m));
  }
  {
    ChainModel m;
    m.name = "bounded_open_coupling";
    m.family = "coupling";
    m.starts = open_starts;
    m.exact_step = [capacity_of](const Instance& in, const std::string& s) {
      return open_exact_law(in, s, capacity_of(in));
    };
    m.coupled_step = [capacity_of](const Instance& in, const std::string& sx,
                                   const std::string& sy,
                                   rng::Xoshiro256PlusPlus& eng) {
      open::BoundedOpenCoupling<AbkuRule> c(lv_of(sx), lv_of(sy),
                                            AbkuRule(in.d), capacity_of(in));
      c.step(eng);
      return std::make_pair(key_lv(c.first()), key_lv(c.second()));
    };
    registry.add(std::move(m));
  }
}

}  // namespace

void register_builtin_models(ModelRegistry& registry) {
  register_scenario_models(registry);
  register_coupling_models(registry);
  register_orient_models(registry);
  register_open_models(registry);
}

}  // namespace recover::certify
